"""Golden guard: the sha256 of the CLI's stdout and stderr (of the written
SVG file for `render`) and the exit code, pinned on fixed documents, plus
the canonical string of a one-germ fiber sum and the messages of the first
error each Reeb-layer entry raises.  Any change of an output byte fails
here."""

import contextlib
import hashlib
import io
import json
import os

import pytest

from goodcones import cli
from goodcones.cone import GoodCone
from goodcones.construct import example_family, obstructed_family
from goodcones.euler import build_identity_data, verify_global_identity
from goodcones.graph import (
    GermOfChain,
    assemble_fiber_sum,
    canonical_form,
    extract_graph,
)
from goodcones.reeb import (
    arc_decomposition,
    choose_transverse_circle,
    closure_identity_residual,
    is_admissible,
    isotropy_profile,
    moment_polygon,
    reeb_from_vectors,
    width_of_flat_face,
)
from goodcones.serial import Document, document_to_json

from conftest import bundle_from_cone

FAMILIES = {
    "example-2": lambda: example_family(2),
    "example-6": lambda: example_family(6),
    "example-12": lambda: example_family(12),
    "obstructed-3-seed-5": lambda: obstructed_family(3, seed=5),
    # A conftest random pair (seed 3) whose extremes are both regular
    # vertices; every other document here has two flat faces.
    "random-seed-3-regular": lambda: (
        GoodCone(((1, -2, 0), (4, -7, 2), (0, 0, 1), (-1, -3, 7), (0, -1, 1))),
        reeb_from_vectors((7, -30, 30), (13, -34, 24), 5),
    ),
}

# (exit code, sha256 of stdout); for render the digest is that of the SVG
# file, since stdout names the output path.  Recorded before the Reeb and
# graph layers were restructured to validate each cone once per call.
GOLDEN = {
    ("example-2", "profile"): (
        0,
        "9eb89e30e473cb2a88fa7eebf052f36fb211d6846bf9ac0531d766189c176408",
    ),
    ("example-2", "graph"): (
        0,
        "3b6abaae2423d4f1cb995ecf0e2f9ffb7d725826dd78a8b9a5b469840254d752",
    ),
    ("example-2", "euler-check"): (
        0,
        "b40d07b15b10af103ec9cf2d41399fe63ca6eb2b7b8b5aecb699d5b775756133",
    ),
    ("example-2", "plan"): (
        0,
        "8d47b3a3cce2e9fa139de91a670109408b2c6ae49cf2e203909a0a66ad68ab03",
    ),
    ("example-2", "render"): (
        0,
        "ff26e80c42aa84b3a4715db757b9ccbe98e93f2951f9c37b1cd2cc2c51d229f0",
    ),
    ("example-6", "profile"): (
        0,
        "da3cccfec9d81a06725c26c448b87e39c832da4e3dbb4cfe9dc8d7bda7881eb9",
    ),
    ("example-6", "graph"): (
        0,
        "08e33979f9e251c5ac951489b289e5b6bff1febff82d20525b3cd3f84e4c9fc2",
    ),
    ("example-6", "euler-check"): (
        0,
        "72ff2ff7c509ef8d85236204cd3f2acc4dc9a9219bf2ea8029d8003a3a76e19d",
    ),
    ("example-6", "plan"): (
        0,
        "4cef030691c68324f28d903e33c148e87fbc220a1a66be10840202ecd3ff6423",
    ),
    ("example-6", "render"): (
        0,
        "fabb83e935cc1371b0c6d7d155d3d4175ed54a2afdb4ad1f646e13507fa712ff",
    ),
    ("example-12", "profile"): (
        0,
        "4e415a94a7596cf7d15ffaf7d5a0129ae7fec40d6af1f4808c9441538e02161b",
    ),
    ("example-12", "graph"): (
        0,
        "508c1afd655a668b605944616d61f7df69422bb0cc5af33e525f6e74ff2fda75",
    ),
    ("example-12", "euler-check"): (
        0,
        "43f9ce5375bedb82da204583fa9f2213feb17e5bf8a26b6bfd87deacf212506b",
    ),
    ("example-12", "plan"): (
        0,
        "db5ad3885188d3c5c705493d6b166485fa53a6551a96afeb170abcef1628898d",
    ),
    ("example-12", "render"): (
        0,
        "0b0f2c0b92b1e3ba490313c099de98984e8a5b3613e15858f530259ecf5115ee",
    ),
    ("obstructed-3-seed-5", "profile"): (
        0,
        "5397d354825165c358980855c88a8fb57495f860c8eae97c736236d8e9f77c10",
    ),
    ("obstructed-3-seed-5", "graph"): (
        0,
        "28edaf6d6b720f240c8bd267d1c6fe8f9ed583f42c043643a39cf47e586eed6d",
    ),
    ("obstructed-3-seed-5", "euler-check"): (
        0,
        "5f7224f929ce7424c86875bfddb10ddf82875527f04cc4c4117900944d676dd9",
    ),
    ("obstructed-3-seed-5", "plan"): (
        0,
        "9ad97297aa3542eb01afd112df44fc15356b437bd899cb36c4663ff3fc90e62d",
    ),
    ("obstructed-3-seed-5", "render"): (
        0,
        "9845ac740249492993db4edcd96102345de17dbe92d4708ec42801e80f385578",
    ),
    ("random-seed-3-regular", "graph"): (
        0,
        "0b5524de65b1e86faa789e392cc678b291923cc12d49afda9fd96b2248fcc6ba",
    ),
}

FIBER_SUM_CANONICAL = (
    '{"chains":["[[\\"edge\\", 2, 2, [\\"1/2\\", \\"0\\"]], '
    '[\\"vertex\\", 2, [0, 1]], [\\"edge\\", 2, 2, [\\"1/2\\", \\"1/2\\"]]]"],'
    '"max":["fat",[1,0],0,[2],"-3/2",[3,0]],'
    '"min":["fat",[1,3],0,[2],"-5/2",[5,3]],'
    '"reeb":["1|1|2","0|3|2"]}'
)

# Type and message of what each Reeb-layer entry raises on an inadmissible
# Reeb vector: the cone's validity is reported first, admissibility second.
INVALID = (
    "InvalidCone",
    "cone is not good: (('convexity-det', (0, 2)), ('convexity-det', (0, 3)), "
    "('convexity-det', (0, 4)), ('convexity-det', (1, 0)))",
)
INADMISSIBLE = ("InadmissibleReeb", "profile requires an admissible Reeb vector")
ON_GOOD_CONE = {
    "is_admissible": ("returned", "False"),
    "moment_polygon": ("InadmissibleReeb", "R pairs non-positively with edge (-1, 0, 1)"),
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def observe(family: str, command: str, workdir: str):
    cone, reeb = FAMILIES[family]()
    path = os.path.join(workdir, f"{family}.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(document_to_json(Document(cone=cone, reeb=reeb))))
    argv = [command, path]
    if command == "plan":
        k = len(cone) - 3
        argv += ["--keep", f"0,{k + 1},{k + 2}"]
    svg = os.path.join(workdir, f"{family}.svg")
    if command == "render":
        argv += ["--out", svg]
    code, out, err = run_cli(argv)
    assert err == ""
    if command == "render":
        with open(svg) as fh:
            out = fh.read()
    return code, sha(out)


def fiber_sum_canonical() -> str:
    cone, reeb = example_family(2)
    germ = GermOfChain(normals=cone.normals[:4], reeb=reeb)
    bundle = bundle_from_cone(cone, reeb, 0, 3, germ)
    return canonical_form(assemble_fiber_sum(bundle, [germ]))


ENTRIES = {
    "is_admissible": lambda c, r: is_admissible(c, r),
    "isotropy_profile": lambda c, r: isotropy_profile(c, r),
    "moment_polygon": lambda c, r: moment_polygon(c, r),
    "choose_transverse_circle": lambda c, r: choose_transverse_circle(c, r),
    "width_of_flat_face": lambda c, r: width_of_flat_face(c, r, (0, 1, 0), 0),
    "arc_decomposition": lambda c, r: arc_decomposition(c, r),
    "closure_identity_residual": lambda c, r: closure_identity_residual(
        c, r, (0, 1, 0)
    ),
    "extract_graph": lambda c, r: extract_graph(c, r),
    "build_identity_data": lambda c, r: build_identity_data(c, r),
    "verify_global_identity": lambda c, r: verify_global_identity(c, r),
}


def error_messages():
    cone, reeb = example_family(2)
    inadmissible = reeb_from_vectors(
        tuple(-x for x in reeb.p), tuple(-x for x in reeb.q), reeb.d
    )
    bad = GoodCone(cone.normals[1:2] + cone.normals[:1] + cone.normals[2:])
    seen = {}
    for name, call in ENTRIES.items():
        for label, c in (("bad-cone", bad), ("good-cone", cone)):
            try:
                result = call(c, inadmissible)
            except Exception as exc:  # the raised type is what is pinned
                seen[(name, label)] = (type(exc).__name__, str(exc))
            else:
                seen[(name, label)] = ("returned", repr(result))
    return seen


@pytest.mark.parametrize(
    "family,command", sorted(GOLDEN), ids=lambda x: x if isinstance(x, str) else None
)
def test_cli_output_is_pinned(tmp_path, family, command):
    assert observe(family, command, str(tmp_path)) == GOLDEN[(family, command)]


def test_fiber_sum_canonical_string_is_pinned():
    assert fiber_sum_canonical() == FIBER_SUM_CANONICAL


def test_error_order_and_messages_are_pinned():
    expected = {}
    for name in ENTRIES:
        expected[(name, "bad-cone")] = INVALID
        expected[(name, "good-cone")] = ON_GOOD_CONE.get(name, INADMISSIBLE)
    assert error_messages() == expected
