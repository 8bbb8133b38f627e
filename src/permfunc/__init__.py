"""Exact generalized matrix functions of linear sums of permutation matrices.

The package evaluates d(A) = sum over sigma in G of chi(sigma) times the
diagonal product A[i, sigma(i)] for subgroups G of the symmetric group
and characters chi, specializing to determinant, permanent and
immanants.  For structured inputs a*P_theta + b*P_tau (and their block
generalizations) the sum collapses to at most 2^r terms indexed by the
cycles of theta^-1*tau, which this package exploits; naive and
minor-expansion oracles are included for verification and benchmarking.
"""

from .errors import (
    CapacityError,
    CharacterDomainError,
    DegreeMismatchError,
    DisjointnessError,
    ExactnessError,
    ParseError,
    PermfuncError,
)
from .gaussian import GaussianRational, gauss
from .perm import (
    CycleDecomposition,
    CycleStructure,
    Permutation,
    compose,
    cycle_structure,
    disjoint_cycles,
    format_permutation,
    inverse,
    mixtures,
    parse_permutation,
)
from .groups import (
    AlternatingGroup,
    CyclicGroup,
    GeneratedSubgroup,
    GroupSpec,
    PointwiseStabilizer,
    SymmetricGroup,
    enumerate_group,
    parse_group,
)
from .characters import (
    CharacterSpec,
    CyclicRootCharacter,
    IrreducibleCharacter,
    Partition,
    SignCharacter,
    TableCharacter,
    TrivialCharacter,
    mn_value,
    parse_character,
    partitions,
)
from .matrices import (
    BlockSpec,
    Matrix,
    PsdClassification,
    block_matrix,
    conjugate_transpose,
    linear_sum,
    mat_add,
    mat_mul,
    perm_matrix,
    psd_classify,
    s_matrix,
    scalar_mul,
    trace,
)
from .engine import (
    BoundReport,
    DominanceReport,
    GmfResult,
    Method,
    SingularSpectrum,
    SuperadditivityReport,
    TermCounts,
    check_dominance,
    check_singular_bound,
    check_superadditivity,
    det_cauchy_binet_sum,
    det_exact,
    det_linear_sum,
    det_perm_pair_closed,
    det_s_closed,
    gmf_block,
    gmf_linear_sum,
    gmf_naive,
    gmf_s_matrix,
    per_linear_sum,
    s_product,
    singular_values,
    tensor_oracle,
    term_counts,
)

__version__ = "0.1.0"
