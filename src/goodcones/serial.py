"""JSON (de)serialization for cones, Reeb vectors and documents, and the
JSON encoding of isotropy graphs, which are written but never read back.
Surgery plans are not handled here: `SurgeryPlan.to_json` in `surgery.py`
writes them, and nothing loads them.  All domain numbers are exact:
integers stay integers, rationals serialize as strings "p/q", quadratic
numbers as {"rat","irr","d"}.

The loaders check the shape and the types of what they read and raise
`DocumentError` for anything else: a cone's normals are JSON integers
(not floats or booleans), a Reeb vector's entries are integers or ASCII
strings "n" or "n/m" of decimal digits with an optional "-" before n and
m nonzero (no spaces, "+", underscores, decimal points or exponents), and
its d is a square-free integer with 2 <= d < 2**63.  A document's "reeb"
and "metadata" are absent only when missing or null.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .cone import GoodCone, load_cone
from .exactnum import QuadNumber, Record, _discriminant_fault, _set, ratio_text
from .reeb import ReebVector


class DocumentError(ValueError):
    pass


def parse_frac(value) -> Fraction:
    """A Reeb entry: a JSON integer, or an ASCII string "n" or "n/m" of
    decimal digits, with an optional "-" before n and m nonzero.  The
    digits are read by `int`, so a string beyond its digit limit is
    rejected too."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str) and value.isascii():
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if digits.isdigit() and (den.isdigit() or not slash):
            try:
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            except (ValueError, ZeroDivisionError):  # beyond int's digit limit, or m = 0
                pass
    raise DocumentError(f"expected integer or 'p/q' string, got {value!r}")


def is_integer_triples(value) -> bool:
    """A JSON list of lists of three integers each (booleans excluded)."""
    if not isinstance(value, list):
        return False
    for v in value:
        if not isinstance(v, list) or len(v) != 3:
            return False
        a, b, c = v
        if type(a) is not int or type(b) is not int or type(c) is not int:
            return False
    return True


def quad_to_json(x: QuadNumber) -> dict:
    n = x.den
    return {"rat": ratio_text(x.a, n), "irr": ratio_text(x.b, n), "d": x.d}


def cone_to_json(cone: GoodCone) -> dict:
    return {"normals": [list(n) for n in cone.normals]}


def cone_from_json(obj) -> GoodCone:
    """The cone of a JSON object with a list of integer triples as its
    'normals'.  Here each normal is checked to be a list of three; its
    entries are type-checked once, by `int_triple` as the cone is built,
    whose TypeError becomes the DocumentError."""
    if not isinstance(obj, dict) or "normals" not in obj:
        raise DocumentError("cone JSON needs a 'normals' field")
    normals = obj["normals"]
    if isinstance(normals, list) and all(isinstance(n, list) and len(n) == 3 for n in normals):
        try:
            return load_cone(normals)
        except TypeError:
            pass
    raise DocumentError("'normals' must be a list of integer triples")


def reeb_to_json(r: ReebVector) -> dict:
    return {
        "p": [str(x) for x in r.p],
        "q": [str(x) for x in r.q],
        "d": r.d,
    }


def reeb_from_json(obj) -> ReebVector:
    if not isinstance(obj, dict) or "p" not in obj or "q" not in obj:
        raise DocumentError("reeb JSON needs 'p' and 'q' fields")
    p, q = obj["p"], obj["q"]
    if not (isinstance(p, list) and len(p) == 3 and isinstance(q, list) and len(q) == 3):
        raise DocumentError("reeb 'p' and 'q' must be lists of three numbers")
    d = obj.get("d", 2)
    if type(d) is not int:
        raise DocumentError(f"discriminant must be square-free >= 2, got {d!r}")
    if fault := _discriminant_fault(d):
        raise DocumentError(fault)
    return ReebVector(tuple(parse_frac(x) for x in p), tuple(parse_frac(x) for x in q), d)


# The default of `Document`'s metadata: a new empty dict for each document.
_NEW_DICT = object()


class Document(Record):
    cone: GoodCone
    reeb: Optional[ReebVector]
    metadata: dict

    def __init__(
        self, cone: GoodCone, reeb: Optional[ReebVector] = None, metadata: dict = _NEW_DICT
    ):
        _set(self, "cone", cone)
        _set(self, "reeb", reeb)
        _set(self, "metadata", {} if metadata is _NEW_DICT else metadata)


def document_to_json(doc: Document) -> dict:
    out = {"cone": cone_to_json(doc.cone), "metadata": dict(doc.metadata)}
    out["reeb"] = reeb_to_json(doc.reeb) if doc.reeb is not None else None
    return out


def document_from_json(obj) -> Document:
    """Deserialize a document or a bare cone file.  The cone is not checked
    for goodness here; the operation that uses it validates it."""
    if not isinstance(obj, dict):
        raise DocumentError("a document must be a JSON object")
    if "normals" in obj:  # bare cone file
        return Document(cone=cone_from_json(obj))
    if "cone" not in obj:
        raise DocumentError("a document needs a 'cone' field, or 'normals' for a bare cone")
    # Only a missing key or null means "absent"; any other value is read.
    meta = obj.get("metadata")
    if meta is None:
        meta = {}
    elif not isinstance(meta, dict):
        raise DocumentError("'metadata' must be a JSON object")
    reeb = obj.get("reeb")
    return Document(
        cone=cone_from_json(obj["cone"]),
        reeb=None if reeb is None else reeb_from_json(reeb),
        metadata=dict(meta),
    )


def graph_to_json(g) -> dict:
    """The JSON encoding of the `IsotropyGraph` g.  `graph` is imported
    here, so that loading a document does not load it."""
    from .graph import EdgeItem, FatVertex, canonical_form

    def enc_extreme(v):
        if isinstance(v, FatVertex):
            return {
                "kind": "fat",
                "direction": list(v.direction),
                "genus": v.genus,
                "multiplicities": list(v.multiplicities),
                "orbifold_euler": str(v.orbifold_euler),
                "normal_euler": {
                    "b": v.normal_euler[0],
                    "f": v.normal_euler[1],
                    "f_reversed": v.normal_euler_rev,
                },
            }
        return {"kind": "regular", "order": v.order, "direction": list(v.direction)}

    def enc_item(item):
        if isinstance(item, EdgeItem):
            iso = item.isotropy
            return {
                "kind": "edge",
                "multiplicity": item.multiplicity,
                "isotropy": {
                    "order": iso.order,
                    "generator": [ratio_text(x, iso.order) for x in iso.residues],
                },
            }
        return {"kind": "vertex", "order": item.order, "direction": list(item.direction)}

    return {
        "reeb_class": [quad_to_json(x) for x in g.reeb_class],
        "min": enc_extreme(g.minimum),
        "max": enc_extreme(g.maximum),
        "chains": [[enc_item(i) for i in ch] for ch in g.chains],
        "canonical": canonical_form(g),
    }
