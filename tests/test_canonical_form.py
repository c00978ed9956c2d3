"""`canonical_form` against a reference that builds the flipped graph and
encodes it again, and the encode-once budget of one call."""

import json
import random

import pytest

import goodcones.graph
from goodcones.construct import example_family, obstructed_family
from goodcones.graph import (
    FatVertex,
    GermOfChain,
    IsotropyGraph,
    _encode_extreme,
    _encode_item,
    _encode_quad,
    assemble_fiber_sum,
    canonical_form,
    extract_graph,
    reeb_frame_matrix,
    transform_graph,
)

from conftest import (
    bundle_from_cone,
    random_admissible_rank2_reeb,
    random_good_cone,
    random_sl3,
    replaced,
    sl3_image,
)


def reference_canonical_form(g: IsotropyGraph) -> str:
    """The min/max flip as a second graph, each candidate encoded in full."""
    base = transform_graph(g, reeb_frame_matrix(g))
    variants = []
    for flip in (False, True):
        if flip:
            cand = IsotropyGraph(
                reeb_class=base.reeb_class,
                minimum=base.maximum,
                maximum=base.minimum,
                chains=tuple(tuple(reversed(ch)) for ch in base.chains),
            )
        else:
            cand = base
        chains = sorted(
            json.dumps([_encode_item(i) for i in ch], sort_keys=True)
            for ch in cand.chains
        )
        for reversed_reading in (False, True):
            payload = {
                "reeb": [_encode_quad(x) for x in cand.reeb_class],
                "min": _encode_extreme(cand.minimum, reversed_reading),
                "max": _encode_extreme(cand.maximum, reversed_reading),
                "chains": chains,
            }
            variants.append(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return min(variants)


def corpus_pairs():
    """1,500 (cone, Reeb) pairs: the example family, the obstructed family
    and random conftest pairs with 0 to 4 orbit blow-ups and d in 2, 3, 5."""
    pairs = [example_family(k) for k in range(2, 40)]
    pairs += [obstructed_family(k, seed) for k in range(2, 12) for seed in range(3)]
    rnd = random.Random(30)
    while len(pairs) < 1500:
        cone = random_good_cone(rnd, cuts=rnd.randint(0, 4))
        pairs.append((cone, random_admissible_rank2_reeb(rnd, cone, d=rnd.choice((2, 3, 5)))))
    return pairs


def fiber_sums():
    """Fiber sums of 0, 1 and 2 germs of the example family, in genus 0 and 2."""
    for k in range(2, 9):
        cone, reeb = example_family(k)
        germ = GermOfChain(normals=cone.normals[: k + 2], reeb=reeb)
        bundle = bundle_from_cone(cone, reeb, 0, k + 1, germ)
        for genus in (0, 2):
            for germs in ([], [germ], [germ, germ]):
                yield assemble_fiber_sum(replaced(bundle, genus=genus), germs)


def shape(g: IsotropyGraph):
    """Kinds of the two extremes and the number of chains."""
    kinds = ["fat" if isinstance(v, FatVertex) else "regular" for v in (g.minimum, g.maximum)]
    return (*kinds, len(g.chains))


def test_canonical_form_matches_the_reference_on_pairs_and_their_images():
    rnd = random.Random(31)
    shapes = set()
    graphs = 0
    for cone, reeb in corpus_pairs():
        for c, r in ((cone, reeb), sl3_image(random_sl3(rnd), cone, reeb)):
            g = extract_graph(c, r)
            assert canonical_form(g) == reference_canonical_form(g), (c, r)
            shapes.add(shape(g))
            graphs += 1
    assert graphs == 3000
    # Every combination of extreme kinds and chain counts but two regular
    # extremes with no chain.
    assert shapes == {
        (lo, hi, n) for lo in ("fat", "regular") for hi in ("fat", "regular") for n in (0, 1, 2)
    } - {("regular", "regular", 0)}


def test_canonical_form_matches_the_reference_on_fiber_sums():
    shapes = set()
    for g in fiber_sums():
        assert canonical_form(g) == reference_canonical_form(g)
        shapes.add(shape(g))
    assert shapes == {("fat", "fat", n) for n in (0, 1, 2)}


BUDGETED = ("_encode_item", "_encode_quad", "_encode_extreme", "IsotropyGraph")


def random_pair_graph():
    rnd = random.Random(3)
    cone = random_good_cone(rnd, cuts=4)
    return extract_graph(cone, random_admissible_rank2_reeb(rnd, cone))


BUDGET_GRAPHS = {
    "example-8": lambda: extract_graph(*example_family(8)),
    "obstructed-4": lambda: extract_graph(*obstructed_family(4)),
    "random-pair": random_pair_graph,
    "two-germ-fiber-sum": lambda: list(fiber_sums())[2],
}


@pytest.mark.parametrize("name", sorted(BUDGET_GRAPHS))
def test_a_canonical_form_keeps_to_its_encode_once_budget(monkeypatch, name):
    """One `canonical_form(g)` encodes each chain item once, each Reeb
    coordinate once and each extreme once per reading of its Euler
    residue (two for a fat extreme, one for a regular one), and builds one
    graph, the image in the Reeb frame."""
    graph = BUDGET_GRAPHS[name]()
    calls = dict.fromkeys(BUDGETED, 0)
    for name in BUDGETED:

        def counting(*args, _name=name, _original=getattr(goodcones.graph, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(goodcones.graph, name, counting)
    expected = reference_canonical_form(graph)
    for name in calls:
        calls[name] = 0
    assert canonical_form(graph) == expected
    assert calls == {
        "_encode_item": sum(len(ch) for ch in graph.chains),
        "_encode_quad": 2,
        "_encode_extreme": 2 + sum(isinstance(v, FatVertex) for v in (graph.minimum, graph.maximum)),
        "IsotropyGraph": 1,
    }


def test_the_budget_graphs_cover_both_extreme_kinds_and_two_chains():
    shapes = {shape(build()) for build in BUDGET_GRAPHS.values()}
    assert ("regular", "regular", 2) in shapes and ("fat", "fat", 2) in shapes
