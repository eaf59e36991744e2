"""Walk engine: quantum state evolution and measurement, plus the
classical random-walk baseline used as a comparison oracle.

Amplitude layout is coin-major: index = coin * n + vertex, so the state
vector is m stacked position subvectors of length n.

A multi-step call (``evolve``, ``classical_walk``) steps plain arrays and
checks only the value it returns; ``step`` and ``classical_trajectory``
check each value they return. Both classical walks step one loop.
"""

from collections.abc import Iterator
from dataclasses import InitVar, dataclass

import numpy as np
from numpy.typing import NDArray

from .coins import WalkOperator
from .errors import PreconditionError
from .graphs import MultiGraph, _arc_columns
from .linalg import ComplexMatrix, DEFAULT_TOL, Tolerance

__all__ = [
    "WalkerState",
    "ProbabilityVector",
    "basis_state",
    "step",
    "evolve",
    "measure_position",
    "classical_transition",
    "classical_trajectory",
    "classical_walk",
]


@dataclass(frozen=True, eq=False)
class WalkerState:
    """Normalized length-nm amplitude vector over coin (x) position.

    Construction rejects NaN/Inf, and a norm off 1 by more than ``tol``
    instead of silently fixing it. ``tol`` None is for states computed
    from a checked one: an operator the tolerance accepts may let the
    norm drift a little at every step, and a walk must not abort on it.
    """

    m: int
    n: int
    amplitudes: NDArray[np.complex128]
    tol: InitVar[Tolerance | None] = DEFAULT_TOL

    def __post_init__(self, tol):
        if self.m < 1 or self.n < 1:
            raise PreconditionError("state dimensions must be positive")
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.shape[0] != self.m * self.n:
            raise PreconditionError(
                f"expected {self.m * self.n} amplitudes, got {amps.shape[0]}")
        if not np.isfinite(amps).all():
            raise PreconditionError("amplitudes contain NaN or Inf")
        if tol is not None:
            with np.errstate(over="ignore"):  # huge amplitudes: an infinite norm, refused
                norm_sq = float(np.sum(np.abs(amps) ** 2))
            if abs(norm_sq - 1.0) > tol.abs_eps:
                raise PreconditionError(
                    f"state is not normalized (|psi|^2 = {norm_sq!r}); "
                    "renormalize explicitly if that is intended")
            amps = amps.copy()  # the caller may write to its array after the check
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def subvector(self, coin: int) -> NDArray[np.complex128]:
        """Position subvector for one coin state."""
        if not 0 <= coin < self.m:
            raise PreconditionError(f"coin index {coin} out of range")
        return self.amplitudes[coin * self.n:(coin + 1) * self.n]


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """Length-n distribution over vertices, summing to 1 within ``tol``
    (None: computed from a checked value, so the sum is not checked)."""

    probs: NDArray[np.float64]
    tol: InitVar[Tolerance | None] = DEFAULT_TOL

    def __post_init__(self, tol):
        p = np.asarray(self.probs, dtype=np.float64).reshape(-1)
        if p.shape[0] < 1:
            raise PreconditionError("probability vector must be nonempty")
        if not (p.min() >= 0 and p.max() < np.inf):  # NaN fails the first
            raise PreconditionError("probabilities must be finite and nonnegative")
        if tol is not None:
            with np.errstate(over="ignore"):  # huge probabilities: an infinite sum, refused
                total = float(p.sum())
            if abs(total - 1.0) > tol.abs_eps:
                raise PreconditionError(f"probabilities sum to {total!r}, not 1")
            p = p.copy()  # the caller may write to its array after the check
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @property
    def n(self) -> int:
        return self.probs.shape[0]


def basis_state(m: int, n: int, coin: int, vertex: int) -> WalkerState:
    """Computational basis state |coin> (x) |vertex>."""
    if not 0 <= coin < m:
        raise PreconditionError(f"coin index {coin} out of range for m={m}")
    if not 0 <= vertex < n:
        raise PreconditionError(f"vertex index {vertex} out of range for n={n}")
    amps = np.zeros(m * n, dtype=np.complex128)
    amps[coin * n + vertex] = 1.0
    return WalkerState(m, n, amps)


def step(u: WalkOperator | ComplexMatrix, s: WalkerState) -> WalkerState:
    """Apply the evolution operator once: ``evolve(u, s, 1)``."""
    return evolve(u, s, 1)


def evolve(u: WalkOperator | ComplexMatrix, s0: WalkerState, t: int) -> WalkerState:
    """t successive steps psi <- U @ psi; t = 0 returns the initial state.
    A WalkOperator steps from its factors; any other U is read once, by
    ``np.asarray``. U is not scanned, and only the state returned is checked:
    a NaN/Inf in U reaches the product (NaN*x, Inf*0 are NaN) and never
    turns finite again, so WalkerState rejects it."""
    if t < 0:
        raise PreconditionError("step count must be nonnegative")
    u = u if isinstance(u, WalkOperator) else np.asarray(u, dtype=np.complex128)
    if u.shape != (s0.m * s0.n, s0.m * s0.n):
        raise PreconditionError(
            f"operator shape {u.shape} does not match state dimension {s0.m * s0.n}")
    amps = s0.amplitudes
    for _ in range(t):
        amps = u @ amps
    return WalkerState(s0.m, s0.n, amps, None)


def measure_position(s: WalkerState) -> ProbabilityVector:
    """Vertex distribution, marginalizing the coin register. It sums to
    the state's norm, which ``step`` lets drift, so the sum is not
    checked."""
    probs = (np.abs(s.amplitudes.reshape(s.m, s.n)) ** 2).sum(axis=0)
    return ProbabilityVector(probs, None)


def classical_transition(a: ComplexMatrix | MultiGraph) -> ComplexMatrix:
    """Row-stochastic transition matrix M = D^-1 A of the random walk on a
    real nonnegative adjacency, a matrix or a MultiGraph (D holds the out-degree
    weights), scattered from the arcs that ``classical_trajectory`` steps
    over: its update rule P <- M^T P never builds M."""
    n, tail, head, weight = _transition_arcs(a)
    m = np.zeros((n, n), dtype=np.complex128)
    m[tail, head] = weight
    return m


def _transition_arcs(a) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """n and the arcs M[tail, head] = weight of M = D^-1 A, tail-major, checked
    as ``classical_transition`` says; a float64 ``a`` is not copied."""
    n, tail, head, weight = _arc_columns(a)
    if np.any(weight.imag != 0) or weight.real.min(initial=0) < 0:
        raise PreconditionError("classical walks need real nonnegative weights")
    with np.errstate(over="ignore"):  # a row sum past the float range is refused below
        degrees = (np.bincount(tail, weight.real, n) if isinstance(a, MultiGraph)
                   else np.asarray(a).real.sum(axis=1, dtype=np.float64))  # as D^-1 A sums rows
    if (zero := degrees == 0).any():
        raise PreconditionError(f"vertices {np.flatnonzero(zero).tolist()} have zero out-degree")
    if (inf := ~np.isfinite(degrees)).any():
        raise PreconditionError(f"vertices {np.flatnonzero(inf).tolist()} have infinite out-degree")
    return n, tail, head, weight.real / degrees[tail]


def _classical_steps(a, p0: ProbabilityVector, t: int) -> Iterator[NDArray[np.float64]]:
    """p0.probs, then the arrays after 1, ..., t steps of the update rule P <- M^T P,
    each a gather over the arcs of M in O(n + nnz): both classical walks' one loop."""
    if t < 0:
        raise PreconditionError("step count must be nonnegative")
    n, tail, head, weight = _transition_arcs(a)
    if n != p0.n:
        raise PreconditionError(f"adjacency dimension {n} does not match p0 length {p0.n}")
    p = p0.probs
    yield p
    for _ in range(t):
        p = np.bincount(head, weight * p[tail], n)
        yield p


def classical_trajectory(a: ComplexMatrix | MultiGraph, p0: ProbabilityVector,
                         t: int) -> Iterator[ProbabilityVector]:
    """Yield p0 itself, then each later distribution of the loop that
    ``classical_walk`` runs, checked for NaN/Inf but not for its sum:
    rounding drift must not abort a walk."""
    for i, p in enumerate(_classical_steps(a, p0, t)):
        yield ProbabilityVector(p, None) if i else p0


def classical_walk(a: ComplexMatrix | MultiGraph, p0: ProbabilityVector,
                   t: int) -> ProbabilityVector:
    """Distribution after t steps, the last of the loop that
    ``classical_trajectory`` yields and the only one checked: the weights
    are nonzero, so a NaN/Inf never turns finite again."""
    for p in _classical_steps(a, p0, t):
        pass
    return ProbabilityVector(p, None)
