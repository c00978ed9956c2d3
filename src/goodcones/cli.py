"""Command-line surface: one subcommand per library operation, JSON on
stdout, SVG rendering of moment cross-sections, and a content-addressed
document catalog.

Exit codes: 0 success, 1 mathematical impossibility (an
`exactnum.DomainError`: validation failure, obstruction, exhausted search;
or a `CatalogError`), 2 usage or malformed input (`UsageError`,
`DocumentError`).  The exception's class alone decides the code.

Loading a document needs `serial`, `cone`, `reeb` and `exactnum`, which are
imported here; each subcommand imports the other modules it uses when it
runs, so that a call loads only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from functools import cache
from typing import List, Optional, Sequence

from .cone import GoodCone, face_invariants, require_valid, validate
from .exactnum import DISCRIMINANT_BOUND, DomainError, _discriminant_fault
from .reeb import InadmissibleReeb, _checked_profile, is_admissible, isotropy_profile, rank_of
from .serial import (
    Document,
    DocumentError,
    cone_to_json,
    document_from_json,
    document_to_json,
    is_integer_triples,
)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise UsageError(f"{path} is not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    except RecursionError:
        raise UsageError(f"malformed JSON in {path}: nested too deeply") from None


class UsageError(ValueError):
    pass


def _load_document(path: str) -> Document:
    return document_from_json(_load_json(path))


def _need_reeb(doc: Document):
    if doc.reeb is None:
        # A non-good cone is reported first (exit 1), as the operation would.
        require_valid(doc.cone)
        raise UsageError("this operation needs a document with a 'reeb' field")
    return doc.reeb


def _parse_vec(text: str, length: Optional[int] = 3):
    """Comma-separated integers, exactly `length` of them unless it is None."""
    parts = text.split(",")
    what = "comma-separated integers" if length is None else f"{length} comma-separated integers"
    if length is not None and len(parts) != length:
        raise UsageError(f"expected {what}, got {text!r}")
    try:
        return tuple(int(x) for x in parts)
    except ValueError:
        raise UsageError(f"expected {what}, got {text!r}") from None


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(value, pad: str) -> str:
    """The text of `json.dumps(value, indent=2)` for a value nested at the
    indentation `pad`.  Str-keyed dicts, lists, tuples, strings, ints,
    booleans and None are built here, as the json module's encoder builds
    them; anything else (floats, dicts with other keys) goes through
    `json.dumps` and is re-indented to its depth."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        items = []
        for key, v in value.items():
            if type(key) is not str:
                return _fallback_text(value, pad)
            items.append(_encode_str(key) + ": " + _json_text(v, inner))
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        # A loop, not a comprehension: one stack frame per level of nesting,
        # as deep as the json module's own encoder goes.
        items = []
        for v in value:
            items.append(_json_text(v, inner))
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    return _fallback_text(value, pad)


def _fallback_text(value, pad: str) -> str:
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _emit(obj) -> None:
    """Print `obj` as `json.dumps(obj, indent=2)` and a newline, in one write."""
    sys.stdout.write(_json_text(obj, "") + "\n")


# ---------------------------------------------------------------------------
# SVG rendering.
# ---------------------------------------------------------------------------


def render_svg(doc: Document, out_path: str) -> None:
    """Draw the exact moment cross-section: project the affine slice by
    dropping the coordinate where the Reeb vector is largest in absolute
    value (presentation-only float comparison), label faces with their
    isotropy magnitudes, and highlight flat faces."""
    reeb = _need_reeb(doc)
    cone = doc.cone
    try:
        facts = _checked_profile(cone, reeb)
    except InadmissibleReeb:
        raise InadmissibleReeb("reeb vector is not admissible for this cone") from None
    profile = facts.profile
    poly = facts.polygon
    coords = [abs(float(c)) for c in reeb.coords()]
    drop = coords.index(max(coords))
    keep = [j for j in range(3) if j != drop]
    pts = [(float(v[keep[0]]), float(v[keep[1]])) for v in poly.vertices]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x_min, y_max = min(xs), max(ys)
    span = max(max(xs) - x_min, y_max - min(ys)) or 1.0
    scale = 400.0 / span
    margin = 40.0

    def sx(p):
        return margin + (p[0] - x_min) * scale

    def sy(p):
        return margin + (y_max - p[1]) * scale

    lines: List[str] = []
    lines.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="480" height="480" '
        'viewBox="0 0 480 480">'
    )
    point_str = " ".join(f"{sx(p):.6f},{sy(p):.6f}" for p in pts)
    lines.append(
        f'<polygon points="{point_str}" fill="#eef4ff" stroke="#233" stroke-width="1"/>'
    )
    n = len(pts)
    for i in range(n):
        a = pts[(i - 1) % n]
        b = pts[i % n]
        flat = i in profile.flats
        color = "#c22" if flat else "#358"
        width = "4" if flat else "2"
        lines.append(
            f'<line x1="{sx(a):.6f}" y1="{sy(a):.6f}" x2="{sx(b):.6f}" y2="{sy(b):.6f}" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )
        mx, my = (sx(a) + sx(b)) / 2, (sy(a) + sy(b)) / 2
        label = f"k={profile.k[i]}" + (" (flat)" if flat else "")
        lines.append(
            f'<text x="{mx:.6f}" y="{my:.6f}" font-size="12" fill="#111">{label}</text>'
        )
    for i, p in enumerate(pts):
        lines.append(
            f'<circle cx="{sx(p):.6f}" cy="{sy(p):.6f}" r="3" fill="#233"/>'
        )
    lines.append("</svg>")
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise UsageError(f"cannot write {out_path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# Catalog.
# ---------------------------------------------------------------------------


def _doc_hash(doc: Document) -> str:
    import hashlib

    payload = json.dumps(document_to_json(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


class CatalogError(ValueError):
    pass


# A store is a directory of documents, each in the file "<sha256>.json"
# named by its `_doc_hash`; any other file in it is ignored.
_STORED_FILE = re.compile(r"[0-9a-f]{64}\.json")


def catalog_add(store: str, doc: Document) -> str:
    """Store the document as "<hash>.json" and return its hash.  The file is
    written under a temporary name and moved into place, so a write cut
    short leaves no document; a file already there must hold the same."""
    digest = _doc_hash(doc)
    payload = document_to_json(doc)
    target = os.path.join(store, f"{digest}.json")
    if os.path.exists(target):
        if _load_json(target) != payload:
            raise CatalogError(f"hash collision with differing content: {digest}")
        return digest
    os.makedirs(store, exist_ok=True)
    partial = os.path.join(store, f".{digest}.{os.urandom(8).hex()}.tmp")
    try:
        with open(partial, "x") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.remove(partial)
    return digest


def catalog_list(store: str) -> list:
    """[{"hash", "name"}] of the stored documents in hash order, each name
    its document's metadata name or ""; a missing store holds none."""
    try:
        files = sorted(f for f in os.listdir(store) if _STORED_FILE.fullmatch(f))
    except FileNotFoundError:
        return []
    return [
        {"hash": f[:-5], "name": _load_document(os.path.join(store, f)).metadata.get("name", "")}
        for f in files
    ]


def catalog_get(store: str, digest: str) -> dict:
    """The stored document of the hash; a hash that is not 64 lowercase hex
    digits names no document, so nothing outside the store is read."""
    path = os.path.join(store, f"{digest}.json")
    if not _STORED_FILE.fullmatch(f"{digest}.json") or not os.path.exists(path):
        raise CatalogError(f"no document with hash {digest}")
    return _load_json(path)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    doc = _load_document(args.file)
    report = validate(doc.cone)
    _emit(
        {
            "is_good": report.is_good,
            "failures": [{"kind": k, "indices": list(ix)} for k, ix in report.failures],
        }
    )
    return 0 if report.is_good else 1


def _cmd_invariants(args) -> int:
    doc = _load_document(args.file)
    require_valid(doc.cone)
    inv = face_invariants(doc.cone, args.face)
    _emit(
        {
            "b": inv.b,
            "f": inv.f,
            "blowdown": math.gcd(inv.b, inv.f) == 1,
            "gluing": [list(row) for row in inv.gluing],
        }
    )
    return 0


def _cmd_rank(args) -> int:
    doc = _load_document(args.file)
    reeb = _need_reeb(doc)
    _emit({"rank": rank_of(reeb), "admissible": is_admissible(doc.cone, reeb)})
    return 0


def _cmd_profile(args) -> int:
    doc = _load_document(args.file)
    reeb = _need_reeb(doc)
    profile = isotropy_profile(doc.cone, reeb)
    _emit(
        {
            "v0": list(profile.v0),
            "k": list(profile.k),
            "flats": sorted(profile.flats),
            "vertex_orders": list(profile.vertex_orders),
            "lieG_basis": [list(profile.lieG_basis[0]), list(profile.lieG_basis[1])],
        }
    )
    return 0


def _cmd_graph(args) -> int:
    from .graph import count_nontrivial_chains, extract_graph
    from .serial import graph_to_json

    doc = _load_document(args.file)
    reeb = _need_reeb(doc)
    g = extract_graph(doc.cone, reeb)
    out = graph_to_json(g)
    out["nontrivial_chains"] = count_nontrivial_chains(g)
    _emit(out)
    return 0


def _cmd_euler_check(args) -> int:
    from .euler import verify_global_identity

    doc = _load_document(args.file)
    reeb = _need_reeb(doc)
    ybar = _parse_vec(args.ybar) if args.ybar else None
    report = verify_global_identity(doc.cone, reeb, ybar)
    _emit(report.to_dict())
    return 0 if report.ok else 1


def _cmd_blowup(args) -> int:
    from .surgery import CutSpec, cut

    doc = _load_document(args.file)
    result = cut(doc.cone, CutSpec(_parse_vec(args.t)))
    _emit(
        {
            "kind": result.kind,
            "index": result.index,
            "cone": cone_to_json(result.cone),
        }
    )
    return 0


def _cmd_blowdown(args) -> int:
    from .surgery import SurgeryRejected, blowdown_delete

    doc = _load_document(args.file)
    try:
        result = blowdown_delete(doc.cone, args.face)
    except SurgeryRejected as exc:
        failures = (
            [{"kind": k, "indices": list(ix)} for k, ix in exc.report.failures]
            if exc.report
            else []
        )
        _emit({"error": str(exc), "failures": failures})
        return 1
    _emit({"cone": cone_to_json(result)})
    return 0


def _cmd_plan(args) -> int:
    from .surgery import _planned

    doc = _load_document(args.file)
    plan, final = _planned(doc.cone, _parse_vec(args.keep, None))
    _emit({"steps": plan.to_json(), "final": cone_to_json(final)})
    return 0


def _cmd_construct(args) -> int:
    from . import construct

    if args.k < 2:
        raise UsageError(f"--k must be at least 2, got {args.k}")
    if args.d >= DISCRIMINANT_BOUND:
        raise UsageError(f"--d must be below 2**63, got {args.d}")
    if _discriminant_fault(args.d):
        raise UsageError(f"--d must be a square-free integer >= 2, got {args.d}")
    # argparse's `choices` admits only the two families.
    if args.family == "example":
        cone, reeb = construct.example_family(args.k, d=args.d)
    else:
        cone, reeb = construct.obstructed_family(args.k, seed=args.seed, d=args.d)
    doc = Document(
        cone=cone,
        reeb=reeb,
        metadata={"name": f"{args.family}-k{args.k}", "provenance": "constructed"},
    )
    _emit(document_to_json(doc))
    return 0


def _parse_chain(normals, path: str):
    """A chain is a JSON list of normals, each a list of three integers."""
    if not is_integer_triples(normals):
        raise UsageError(f"{path}: 'normals' must be a list of integer triples")
    return [tuple(n) for n in normals]


def _cmd_close(args) -> int:
    from . import construct

    obj = _load_json(args.file)
    if isinstance(obj, dict) and "normals" not in obj:
        raise UsageError(f"{args.file} has no 'normals' field")
    chain = _parse_chain(obj["normals"] if isinstance(obj, dict) else obj, args.file)
    try:
        closing = construct.close_chain(chain)
    except construct.ChainError as exc:
        raise UsageError(f"{args.file}: {exc}") from None
    closed = GoodCone(tuple(chain) + (closing,))
    _emit({"closing": list(closing), "cone": cone_to_json(closed)})
    return 0


def _cmd_toric_check(args) -> int:
    from .graph import toric_condition_check

    v = toric_condition_check(_parse_vec(args.vmin, 2), _parse_vec(args.vmax, 2))
    if v is None:
        _emit({"found": False})
        return 1
    _emit({"found": True, "v": list(v)})
    return 0


def _cmd_render(args) -> int:
    doc = _load_document(args.file)
    render_svg(doc, args.out)
    _emit({"written": args.out})
    return 0


def _catalog_store(action, store: str, *args):
    """Run a catalog action; a store path that cannot be used is a usage
    error."""
    try:
        return action(store, *args)
    except OSError as exc:
        raise UsageError(f"cannot use catalog store {store}: {exc.strerror}") from None


def _cmd_catalog_add(args) -> int:
    doc = _load_document(args.file)
    require_valid(doc.cone)
    _emit({"hash": _catalog_store(catalog_add, args.store, doc)})
    return 0


def _cmd_catalog_list(args) -> int:
    _emit(_catalog_store(catalog_list, args.store))
    return 0


def _cmd_catalog_get(args) -> int:
    _emit(_catalog_store(catalog_get, args.store, args.hash))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goodcones",
        description="Exact invariants and surgeries of good cones with Reeb rays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="goodness check of a cone document")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("invariants", help="lens-space invariants of a face")
    p.add_argument("file")
    p.add_argument("--face", type=int, required=True)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("rank", help="rank of the document's Reeb vector")
    p.add_argument("file")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("profile", help="rank-2 isotropy profile")
    p.add_argument("file")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("graph", help="graph of isotropy data")
    p.add_argument("file")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("euler-check", help="global Euler-sum identity report")
    p.add_argument("file")
    p.add_argument("--ybar", default=None, help="transverse circle a,b,c")
    p.set_defaults(func=_cmd_euler_check)

    p = sub.add_parser("blowup", help="cut by a half-space and classify")
    p.add_argument("file")
    p.add_argument("--t", required=True, help="cutting normal a,b,c")
    p.set_defaults(func=_cmd_blowup)

    p = sub.add_parser("blowdown", help="delete a face (orbit blow-down)")
    p.add_argument("file")
    p.add_argument("--face", type=int, required=True)
    p.set_defaults(func=_cmd_blowdown)

    p = sub.add_parser("plan", help="blow-down plan keeping the given faces")
    p.add_argument("file")
    p.add_argument("--keep", required=True, help="comma-separated face indices")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("construct", help="generate a constructive family")
    p.add_argument("--family", choices=("example", "obstructed"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d", type=int, default=2, help="quadratic discriminant")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("close", help="closing normal for a chain of normals")
    p.add_argument("file")
    p.set_defaults(func=_cmd_close)

    p = sub.add_parser("toric-check", help="unimodular vector between two rays")
    p.add_argument("--vmin", required=True, help="a,b")
    p.add_argument("--vmax", required=True, help="a,b")
    p.set_defaults(func=_cmd_toric_check)

    p = sub.add_parser("render", help="SVG of the moment cross-section")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("catalog", help="content-addressed document store")
    actions = p.add_subparsers(dest="action", required=True)
    # --store belongs to each action, so it may come before or after the
    # positional argument.
    for action, positional, func, help_text in (
        ("add", "file", _cmd_catalog_add, "store a document"),
        ("list", None, _cmd_catalog_list, "list stored documents"),
        ("get", "hash", _cmd_catalog_get, "print a stored document"),
    ):
        a = actions.add_parser(action, help=help_text)
        if positional:
            a.add_argument(positional)
        a.add_argument("--store", required=True)
        a.set_defaults(func=func)

    return parser


@cache
def _parser():
    """The parser of this process and its subcommands' parsers by name,
    built on the first `run` and reused: parse_args keeps no state between
    calls."""
    parser = build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, commands.choices


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, on one parser where it can be.
    The top-level parser hands all of argv[1:] to the subcommand that
    argv[0] names, so that subcommand's parser reads them directly; the
    top-level parser runs only when argv[0] names none or arguments are
    left over, and then reports the usage error itself."""
    parser, commands = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, DocumentError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except (CatalogError, DomainError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`goodcones ... | head`).  Point
        # stdout at devnull so that the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
