"""Shared fixtures and numeric helpers for the test suite."""

import numpy as np
import pytest

from qwalk import KrausGrid, assemble_shift


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def cycle_adjacency(n: int) -> np.ndarray:
    """Adjacency matrix of the directed 2-regular cycle C_n (both
    orientations)."""
    a = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        a[i, (i + 1) % n] = 1
        a[i, (i - 1) % n] = 1
    return a


def right_shift(n: int) -> np.ndarray:
    """Cyclic permutation with entry (i+1 mod n, i) = 1."""
    r = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        r[(i + 1) % n, i] = 1
    return r


def cycle_shift_grid(n: int) -> KrausGrid:
    """Block-diagonal grid for the cycle: stored blocks R^T and L^T with
    R the right cyclic shift and L = R^T, in permutation form:
    (S x)[v] is x[v + 1] on coin 0 and x[v - 1] on coin 1."""
    v = np.arange(n)
    return KrausGrid.from_permutation(2, n, np.concatenate([(v + 1) % n, n + (v - 1) % n]))


def hypercube_adjacency(bits: int) -> np.ndarray:
    """Adjacency matrix of the undirected hypercube graph on 2^bits
    vertices (both arc orientations present)."""
    n = 1 << bits
    a = np.zeros((n, n), dtype=np.complex128)
    for v in range(n):
        for b in range(bits):
            a[v, v ^ (1 << b)] = 1
    return a


def oracle_dense_residual(a) -> float:
    """max|a^dag a - I| written out, an inf or NaN with no warning on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))))


def with_huge_entries(a, huge, rng):
    """``a`` with about a tenth of its entries set to +-huge or +-huge*i."""
    hit = rng.random(a.shape) < 0.1
    a[hit] = huge * rng.choice([1, -1, 1j, -1j], size=np.count_nonzero(hit))
    return a


def spy_stack_checks(monkeypatch, calls: list) -> None:
    """Record in ``calls`` the (stack shape, what) of each check that
    ``coins`` makes through ``linalg``'s unitarity kernel, in order."""
    import qwalk.coins
    residual, require = qwalk.coins._stack_residual, qwalk.coins._require_residual
    shapes = []
    monkeypatch.setattr(qwalk.coins, "_stack_residual", lambda stack, weights=None:
                        shapes.append(stack.shape) or residual(stack, weights))
    monkeypatch.setattr(qwalk.coins, "_require_residual", lambda r, tol, what:
                        calls.append((shapes.pop(), what)) or require(r, tol, what))


def pair_list(z) -> list:
    return [[float(w.real), float(w.imag)] for w in np.asarray(z).reshape(-1)]


def matrix_obj(a) -> dict:
    """The parsed form of a matrix file holding ``a``."""
    return {"rows": a.shape[0], "cols": a.shape[1], "entries": pair_list(a)}


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260826)


@pytest.fixture
def c4_shift():
    return assemble_shift(cycle_shift_grid(4))
