"""qwalk: graph <-> unitary compiler and simulator for coined
discrete-time quantum walks."""

from .linalg import (
    Tolerance,
    DEFAULT_TOL,
    as_matrix,
    max_norm,
    is_unitary,
    unitarity_residual,
)
from .graphs import (
    Arc,
    Edge,
    MultiGraph,
    adjacency,
    split_directed,
    split_undirected,
    union,
    from_adjacency,
)
from .shift import (
    KrausGrid,
    KrausReport,
    decompose_permutations,
    verify_kraus,
    assemble_shift,
    extract_graph,
    extract_family,
)
from .coins import (
    CoinSpec,
    named_coin,
    coin_matrix,
    evolution,
    column_adjacency,
)
from .walk import (
    WalkerState,
    ProbabilityVector,
    basis_state,
    step,
    evolve,
    measure_position,
    classical_transition,
    classical_trajectory,
    classical_walk,
)
from .errors import (
    QWalkError,
    FileFormatError,
    PreconditionError,
    NonUnitaryError,
)

__version__ = "0.1.0"
