"""goodcones: exact invariants, surgeries and isotropy graphs of good cones
in Z^3 with a Reeb ray over a real quadratic field."""

from .cone import (
    FaceInvariants,
    GoodCone,
    InvalidCone,
    ValidityReport,
    can_blowdown_to_orbit,
    edge_ray,
    edge_rays,
    face_invariants,
    gluing_matrix,
    load_cone,
    validate,
)
from .construct import (
    close_chain,
    example_family,
    obstructed_family,
    weighted_homogeneous_check,
)
from .euler import (
    ChainDescriptor,
    ChainDataError,
    EulerReport,
    chain_euler_sum,
    critical_jump,
    euler_lens,
    euler_near_B_lens,
    euler_near_B_orbit,
    euler_quotient,
    euler_s3,
    verify_global_identity,
)
from .exactnum import (
    DEFAULT_DISCRIMINANT,
    DegenerateInput,
    QuadNumber,
    SearchExhausted,
    cross_primitive,
    delzant_witness,
    det3,
    is_delzant_pair,
    is_prime,
    plane_lattice_basis,
    quad,
)
from .graph import (
    FiniteCyclicSubgroup,
    GermOfChain,
    IsotropyGraph,
    LensBundleDescriptor,
    assemble_fiber_sum,
    canonical_form,
    count_nontrivial_chains,
    extract_graph,
    isomorphic,
    toric_condition_check,
    transform_graph,
)
from .reeb import (
    InadmissibleReeb,
    IsotropyProfile,
    MomentPolygon,
    RankError,
    ReebVector,
    choose_transverse_circle,
    is_admissible,
    isotropy_profile,
    moment_polygon,
    rank_of,
    reeb_from_vectors,
    width_of_flat_face,
)
from .surgery import (
    CutSpec,
    LocalBlowupSolution,
    SurgeryPlan,
    SurgeryRejected,
    SurgeryResult,
    blowdown_delete,
    can_blowdown_by_multiplicities,
    cone_hash,
    cut,
    find_blowdown_normal,
    plan_blowdown_sequence,
    replace_range,
    replay,
    solve_local_blowup,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
