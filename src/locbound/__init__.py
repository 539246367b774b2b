"""Entropic lower bounds for geometrically local quantum error correction.

A desk-scale numerical toolkit: register-labelled density matrices,
entropic functionals, relative entropy of entanglement brackets,
stabilizer-code analysis, noisy separable-circuit simulation, grid
partitions of embedded connectivity graphs, explicit-constant bound
evaluators, and a verification harness that checks every bound
numerically.
"""

from .bounds import (
    BoundInputs,
    BoundReport,
    depth_bound_rhs,
    encoding_depth_floor,
    encoding_depth_floor_geometric,
    overhead_floor,
    syndrome_depth_floor,
)
from .circuit import (
    Circuit,
    Conditional,
    ConnectivityGraph,
    EcModule,
    Embedding,
    InvariantError,
    KrausGate,
    Layer,
    Unitary,
    apply_layer,
    boundary,
    grid_graph,
    logical_error_rate,
    measure_gate,
    module_fidelity,
    noise_apply,
    reset_gate,
    simulate_module,
    validate_embedding,
    validate_layer,
)
from .entropy import (
    binary_entropy,
    coherent_info,
    cond_mutual_info,
    g_continuity,
    g_slack,
    relative_entropy,
    vn_entropy,
)
from .files import read_circuit_file, read_code_file, read_embedded_graph_file
from .partition import (
    Partition,
    PartitionGuarantee,
    check_guarantees,
    grid_partition,
    kappa_default,
)
from .qstate import (
    ClassicalQuantumState,
    DensityMatrix,
    PureState,
    Register,
    RegisterLayout,
    fidelity,
    max_entangled_state,
    partial_trace,
    purify,
    trace_distance,
)
from .separability import (
    ReeBracket,
    SeparableEnsemble,
    ree_bracket,
    ree_lower,
    ree_upper,
)
from .stabilizer import (
    DistanceResult,
    StabilizerCode,
    code_entropy,
    correctable_region,
    encoding_isometry,
    five_qubit_code,
    four_two_two_code,
    min_distance,
    parse_pauli,
    repetition_code,
    validate_code,
)
from .verify import (
    DepthBoundScenario,
    VerificationReport,
    verify_appendix,
    verify_corr_max_entangled,
    verify_depth_bound,
    verify_overhead_consistency,
    verify_sie,
    verify_structure_code,
)

__version__ = "0.1.0"
