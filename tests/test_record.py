"""`exactnum.Record`, the base of the library's 25 result records, against
`dataclass(frozen=True)`: for each record class a test-local dataclass twin
with the same field names gives the same repr, == and hash on instances
taken from real calls.  The records are frozen, unequal across classes, and
survive copy, deepcopy and pickle."""

import copy
import pickle
import random
from dataclasses import make_dataclass
from fractions import Fraction

import pytest

from goodcones.cone import FaceInvariants, GoodCone, ValidityReport, face_invariants, validate
from goodcones.construct import example_family, obstructed_family
from goodcones.euler import (
    ChainDescriptor,
    EulerReport,
    IdentityData,
    IdentityTerm,
    build_identity_data,
    verify_global_identity,
)
from goodcones.exactnum import Record, quad
from goodcones.graph import (
    EdgeItem,
    FatVertex,
    FiniteCyclicSubgroup,
    GermOfChain,
    IsotropyGraph,
    LensBundleDescriptor,
    RegularVertex,
    extract_graph,
)
from goodcones.reeb import (
    ArcDecomposition,
    Extreme,
    IsotropyProfile,
    MomentPolygon,
    ReebVector,
    arc_decomposition,
    isotropy_profile,
    moment_polygon,
)
from goodcones.serial import Document, document_from_json, document_to_json
from goodcones.surgery import (
    CutSpec,
    LocalBlowupSolution,
    PlanStep,
    SurgeryPlan,
    SurgeryResult,
    plan_blowdown_sequence,
    solve_local_blowup,
)

from conftest import (
    bundle_from_cone,
    orbit_cut_normal,
    random_admissible_rank2_reeb,
    random_good_cone,
    random_orbit_blowup,
)

RECORDS = (
    GoodCone,
    ValidityReport,
    FaceInvariants,
    ReebVector,
    MomentPolygon,
    IsotropyProfile,
    Extreme,
    ArcDecomposition,
    ChainDescriptor,
    IdentityData,
    IdentityTerm,
    EulerReport,
    FiniteCyclicSubgroup,
    FatVertex,
    RegularVertex,
    EdgeItem,
    IsotropyGraph,
    GermOfChain,
    LensBundleDescriptor,
    Document,
    CutSpec,
    SurgeryResult,
    PlanStep,
    SurgeryPlan,
    LocalBlowupSolution,
)


def pairs():
    """Example and obstructed pairs (fat extremes) and random pairs (regular
    extremes)."""
    found = [example_family(3), example_family(5), obstructed_family(4)]
    rnd = random.Random(31)
    for _ in range(3):
        cone = random_good_cone(rnd, cuts=3)
        found.append((cone, random_admissible_rank2_reeb(rnd, cone)))
    return found


def collect():
    """Records of every class, by class, from calls on `pairs()`."""
    found = {cls: [] for cls in RECORDS}

    def add(*records):
        for r in records:
            found[type(r)].append(r)

    for k in (3, 5):
        cone, reeb = example_family(k)
        germ = GermOfChain(normals=cone.normals[: k + 2], reeb=reeb)
        add(germ, bundle_from_cone(cone, reeb, 0, k + 1, germ))
    rnd = random.Random(5)
    for cone, reeb in pairs():
        add(cone, reeb, build_identity_data(cone, reeb))
        add(validate(cone), *[face_invariants(cone, i) for i in range(len(cone))])
        add(moment_polygon(cone, reeb), isotropy_profile(cone, reeb))
        arcs = arc_decomposition(cone, reeb)
        add(arcs, arcs.minimum, arcs.maximum)
        report = verify_global_identity(cone, reeb)
        add(report, *report.terms)
        add(*[ChainDescriptor(t.k, (t.a,)) for t in report.terms if t.kind == "jump"])
        g = extract_graph(cone, reeb)
        add(g, g.minimum, g.maximum, *[item for ch in g.chains for item in ch])
        add(*[e.isotropy for e in g.edges])
        add(document_from_json(document_to_json(Document(cone, reeb, {"name": "pair"}))))
        add(Document(cone))
        add(CutSpec(orbit_cut_normal(cone, 0, 2, 3)), random_orbit_blowup(rnd, cone))
    add(validate(GoodCone(((1, 0, 0), (0, 1, 0), (1, 1, -2), (0, 0, 1)))))
    cone, _ = example_family(3)
    plan = plan_blowdown_sequence(cone, [0, 4, 5])
    add(plan, *plan.steps, plan_blowdown_sequence(cone, range(len(cone))))
    for m1, m2 in ((1, 1), (2, 3)):
        add(solve_local_blowup(quad(1), quad(0, 1), m1, m2, Fraction(1)))
    return found


SAMPLES = collect()


def fields(cls):
    return list(cls.__annotations__)


def twin_of(cls):
    """A frozen dataclass with the record's name and field names."""
    return make_dataclass(cls.__name__, fields(cls), frozen=True)


def values(record):
    return [getattr(record, name) for name in fields(type(record))]


def hash_or_error(x):
    try:
        return hash(x)
    except TypeError as exc:
        return str(exc)


def test_every_record_class_has_distinct_samples():
    assert len(RECORDS) == 25
    for cls in RECORDS:
        assert issubclass(cls, Record)
        assert len(set(map(repr, SAMPLES[cls]))) >= 2, cls.__name__


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_prints_compares_and_hashes_as_its_dataclass_twin(cls):
    twin = twin_of(cls)
    records = SAMPLES[cls]
    twins = [twin(*values(r)) for r in records]
    assert [repr(r) for r in records] == [repr(t) for t in twins]
    assert [hash_or_error(r) for r in records] == [hash_or_error(t) for t in twins]
    for i, (r, t) in enumerate(zip(records, twins)):
        assert [r == s for s in records] == [t == u for u in twins], i
        assert [r != s for s in records] == [t != u for u in twins], i
        assert r == cls(*values(r))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_of_two_classes_with_equal_fields_are_unequal(cls):
    other = type(cls.__name__, (Record,), {"__annotations__": dict(cls.__annotations__)})
    twin = twin_of(cls)
    for r in SAMPLES[cls]:
        for x in (other(*values(r)), twin(*values(r))):
            assert repr(x) == repr(r)
            assert r != x and x != r
            assert not (r == x or x == r)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_are_frozen(cls):
    for r in SAMPLES[cls]:
        for name in [*fields(cls), "extra"]:
            with pytest.raises(AttributeError):
                setattr(r, name, None)
            with pytest.raises(AttributeError):
                delattr(r, name)
        assert r == cls(*values(r))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_survive_copy_deepcopy_and_pickle(cls):
    for r in SAMPLES[cls]:
        for x in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert type(x) is cls
            assert x == r and repr(x) == repr(r)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_constructor_takes_fields_by_position_or_keyword(cls):
    r = SAMPLES[cls][0]
    args = values(r)
    assert cls(**dict(zip(fields(cls), args))) == r
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, extra=None)
    if cls not in (Document, ReebVector):  # their last field has a default
        with pytest.raises(TypeError):
            cls(*args[:-1])


def test_document_metadata_defaults_to_a_new_dict():
    cone, reeb = example_family(3)
    a, b = Document(cone), Document(cone, reeb)
    assert a.reeb is None and a.metadata == {} and b.metadata == {}
    assert a.metadata is not b.metadata
