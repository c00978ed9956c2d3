"""goodcones: exact invariants, surgeries and isotropy graphs of good cones
in Z^3 with a Reeb ray over a real quadratic field.

The package imports no module up front.  A public name, or one of the
modules below, is imported on first use (PEP 562) and kept here, so
`from goodcones import X` loads only the modules that X needs."""

import importlib

# The public names, by the module that defines them.
_EXPORTS = {
    "cone": (
        "FaceInvariants",
        "GoodCone",
        "InvalidCone",
        "ValidityReport",
        "can_blowdown_to_orbit",
        "edge_ray",
        "edge_rays",
        "face_invariants",
        "gluing_matrix",
        "load_cone",
        "validate",
    ),
    "construct": (
        "close_chain",
        "example_family",
        "obstructed_family",
        "weighted_homogeneous_check",
    ),
    "euler": (
        "ChainDescriptor",
        "ChainDataError",
        "EulerReport",
        "chain_euler_sum",
        "critical_jump",
        "euler_lens",
        "euler_near_B_lens",
        "euler_near_B_orbit",
        "euler_quotient",
        "euler_s3",
        "verify_global_identity",
    ),
    "exactnum": (
        "DEFAULT_DISCRIMINANT",
        "DegenerateInput",
        "DomainError",
        "QuadNumber",
        "SearchExhausted",
        "cross_primitive",
        "delzant_witness",
        "det3",
        "is_delzant_pair",
        "is_prime",
        "plane_lattice_basis",
        "quad",
    ),
    "graph": (
        "FiniteCyclicSubgroup",
        "GermOfChain",
        "IsotropyGraph",
        "LensBundleDescriptor",
        "assemble_fiber_sum",
        "canonical_form",
        "count_nontrivial_chains",
        "extract_graph",
        "isomorphic",
        "toric_condition_check",
        "transform_graph",
    ),
    "reeb": (
        "InadmissibleReeb",
        "IsotropyProfile",
        "MomentPolygon",
        "RankError",
        "ReebVector",
        "choose_transverse_circle",
        "is_admissible",
        "isotropy_profile",
        "moment_polygon",
        "rank_of",
        "reeb_from_vectors",
        "width_of_flat_face",
    ),
    "surgery": (
        "CutSpec",
        "LocalBlowupSolution",
        "SurgeryPlan",
        "SurgeryRejected",
        "SurgeryResult",
        "blowdown_delete",
        "can_blowdown_by_multiplicities",
        "cone_hash",
        "cut",
        "find_blowdown_normal",
        "plan_blowdown_sequence",
        "replace_range",
        "replay",
        "solve_local_blowup",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value
