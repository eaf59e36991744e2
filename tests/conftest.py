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
    v = np.arange(n)
    a[v, (v + 1) % n] = a[v, (v - 1) % n] = 1
    return a


def right_shift(n: int) -> np.ndarray:
    """Cyclic permutation with entry (i+1 mod n, i) = 1."""
    r = np.zeros((n, n), dtype=np.complex128)
    v = np.arange(n)
    r[(v + 1) % n, v] = 1
    return r


def cycle_shift_grid(n: int) -> KrausGrid:
    """Block-diagonal grid for the cycle: stored blocks R^T and L^T with
    R the right cyclic shift and L = R^T, in permutation form:
    (S x)[v] is x[v + 1] on coin 0 and x[v - 1] on coin 1."""
    v = np.arange(n)
    return KrausGrid.from_permutation(2, n, np.concatenate([(v + 1) % n, n + (v - 1) % n]))


def hypercube_shift_grid(d: int) -> KrausGrid:
    """The shift of the hypercube Z_2^d, m = d coins and n = 2^d vertices, in
    permutation form: (S x)[a n + v] is x[a n + (v ^ 2^a)], an involution."""
    n, a = 1 << d, np.arange(d)[:, None]
    return KrausGrid.from_permutation(d, n, (a * n + (np.arange(n) ^ (1 << a))).reshape(-1))


def fourier_cycle_walk(c, shifts, psi0, t: int) -> np.ndarray:
    """psi_t of the walk U = S (C x I_n) on the cycle C_n whose shift moves
    coin a's amplitude from v to v + shifts[a] mod n, in Fourier space
    (Ambainis, Bach, Nayak, Vishwanath and Watrous 2001): psi_t =
    IFFT(U_k^t FFT psi_0), U_k = diag(exp(-2 pi i k s_a / n)) C, by one
    matrix_power of the (n, m, m) stack. ``psi0`` is coin-major, m n long."""
    c = np.asarray(c, dtype=np.complex128)
    m = c.shape[0]
    psi = np.fft.fft(np.asarray(psi0, dtype=np.complex128).reshape(m, -1), axis=1)
    n = psi.shape[1]
    phases = np.exp(-2j * np.pi * (np.outer(np.arange(n), shifts) % n) / n)  # (n, m)
    u_t = np.linalg.matrix_power(phases[:, :, None] * c, t)
    return np.fft.ifft(np.einsum("kab,bk->ak", u_t, psi), axis=1).reshape(-1)


def _walsh(x) -> np.ndarray:
    """The unnormalized Walsh-Hadamard transform of each row of the (d, 2^d)
    array x, by d butterfly passes over its (d, 2, ..., 2) view."""
    d = x.shape[0]
    y = x.reshape((d,) + (2,) * d)
    for axis in range(1, d + 1):
        lo, hi = np.split(y, 2, axis=axis)
        y = np.concatenate([lo + hi, lo - hi], axis=axis)
    return y.reshape(d, -1)


def walsh_hypercube_walk(c, psi0, t: int) -> np.ndarray:
    """psi_t of the walk U = S (C x I_n) on the hypercube Z_2^d, with m = d
    coins and n = 2^d vertices, whose shift moves coin a's amplitude from v
    to v ^ 2^a, in the Walsh basis (Moore and Russell 2002; Kempe 2005):
    psi_t = WHT^-1(U_k^t WHT psi_0), U_k = diag((-1)^{k_a}) C, by one
    matrix_power of the (n, m, m) stack. ``psi0`` is coin-major, m n long."""
    c = np.asarray(c, dtype=np.complex128)
    d = c.shape[0]
    psi = _walsh(np.asarray(psi0, dtype=np.complex128).reshape(d, -1))
    signs = 1 - 2 * (np.arange(1 << d)[:, None] >> np.arange(d) & 1)  # (n, m)
    u_t = np.linalg.matrix_power(signs[:, :, None] * c, t)
    return _walsh(np.einsum("kab,bk->ak", u_t, psi)).reshape(-1) / (1 << d)


def hypercube_adjacency(bits: int) -> np.ndarray:
    """Adjacency matrix of the undirected hypercube graph on 2^bits
    vertices (both arc orientations present)."""
    v = np.arange(1 << bits)[:, None]
    a = np.zeros((v.size, v.size), dtype=np.complex128)
    a[v, v ^ (1 << np.arange(bits))] = 1
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
