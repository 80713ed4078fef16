"""Independent reference computations used to check the library.

Nothing here calls the library's own norm or eigenvalue paths: norms go
through LAPACK's SVD, eigenvalues through power iteration with deflation
or closed 2x2 formulas, and counts through direct enumeration.
"""

from __future__ import annotations

import numpy as np


def svd_norm(a) -> float:
    """Largest singular value straight from LAPACK's SVD driver."""
    return float(np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False)[0])


def involution_defect(a) -> float:
    """The larger of ||a - a*|| and ||a* a - I||: zero exactly when a is a
    self-adjoint unitary, that is a self-adjoint involution."""
    a = np.asarray(a, dtype=complex)
    return max(svd_norm(a - a.conj().T), svd_norm(a.conj().T @ a - np.eye(len(a))))


def chsh_square_residual(a0, a1, b0, b1) -> float:
    """||S^2 - (4 I - [a0,a1] (x) [b0,b1])|| for the CHSH operator
    S = a0(x)b0 + a0(x)b1 + a1(x)b0 - a1(x)b1; zero when all four are
    self-adjoint involutions (the square identity behind 2 sqrt(2))."""
    s = np.kron(a0, b0) + np.kron(a0, b1) + np.kron(a1, b0) - np.kron(a1, b1)
    rhs = 4.0 * np.eye(len(s)) - np.kron(a0 @ a1 - a1 @ a0, b0 @ b1 - b1 @ b0)
    return svd_norm(s @ s - rhs)


def two_term_residual(x1, x2, y1, y2) -> float:
    """||S^2 - 2(I + W)|| for S = x1(x)y1 + x2(x)y2 and W = x1x2 (x) y1y2;
    zero for anticommuting pairs of self-adjoint involutions, where W is a
    self-adjoint involution and so ||S|| = 2."""
    s = np.kron(x1, y1) + np.kron(x2, y2)
    w = np.kron(x1 @ x2, y1 @ y2)
    return svd_norm(s @ s - 2.0 * (np.eye(len(s)) + w))


def dense_kron_sum(x_ops, y_ops, weights) -> np.ndarray:
    """B = sum_i c_i x_i (x) y_i assembled in full: one np.kron per term,
    scaled after the product and added to a zero matrix in term order."""
    n = len(x_ops[0]) * len(y_ops[0])
    b = np.zeros((n, n), dtype=complex)
    for c, x, y in zip(weights, x_ops, y_ops):
        b += np.kron(x, y) * c
    return b


def eig2x2_hermitian(a) -> tuple[float, float]:
    """Closed-form eigenvalues (ascending) of a 2x2 Hermitian matrix."""
    a = np.asarray(a, dtype=complex)
    mean = (a[0, 0].real + a[1, 1].real) / 2.0
    rad = np.sqrt(((a[0, 0].real - a[1, 1].real) / 2.0) ** 2 + abs(a[0, 1]) ** 2)
    return (mean - rad, mean + rad)


def power_iteration_spectrum(a, iterations: int = 20000, seed: int = 7) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix by shifted power iteration
    with deflation, ascending. Independent of any QR-based eigensolver.

    The shift makes the dominant eigenvalue of (a + shift I) the largest
    eigenvalue of a; each converged eigenpair is projected out before the
    next round.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    shift = float(np.linalg.norm(a, "fro")) + 1.0
    work = a + shift * np.eye(n)
    rng = np.random.default_rng(seed)
    eigenvalues = []
    for _ in range(n):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        for _ in range(iterations):
            w = work @ v
            norm = np.linalg.norm(w)
            if norm == 0.0:
                break
            v = w / norm
        lam = float(np.real(v.conj() @ (work @ v)))
        eigenvalues.append(lam - shift)
        work = work - lam * np.outer(v, v.conj())
    return np.sort(np.array(eigenvalues))


def brute_phi_breakdown(x_ops, y_ops) -> dict:
    """phi values for every pair from direct matrix products and SVD norms."""
    m = len(x_ops)
    out = {}
    for i in range(m):
        for j in range(i + 1, m):
            cx = svd_norm(x_ops[i] @ x_ops[j] - x_ops[j] @ x_ops[i])
            cy = svd_norm(y_ops[i] @ y_ops[j] - y_ops[j] @ y_ops[i])
            ax = svd_norm(x_ops[i] @ x_ops[j] + x_ops[j] @ x_ops[i])
            ay = svd_norm(y_ops[i] @ y_ops[j] + y_ops[j] @ y_ops[i])
            out[(i, j)] = 0.5 * (cx * cy + ax * ay)
    return out


def count_pairs_at_least(values: dict, weights, t: float) -> int:
    """How many pairs carry weighted mass |c_i c_j| phi_ij >= t."""
    return sum(
        1
        for (i, j), phi in values.items()
        if abs(float(weights[i]) * float(weights[j])) * phi >= t
    )


def count_edges_at_least(values: dict, weights, edges_1based, t: float) -> int:
    """Same count restricted to the (1-based) edges of a graph."""
    return sum(
        1
        for i, j in edges_1based
        if abs(float(weights[i - 1]) * float(weights[j - 1])) * values[(i - 1, j - 1)] >= t
    )


def sequential_pair_sum(values: dict, weights) -> float:
    """sum over pairs i < j of |c_i c_j| phi_ij, one pair at a time."""
    total = 0.0
    for (i, j), phi in sorted(values.items()):
        total += abs(float(weights[i]) * float(weights[j])) * phi
    return total


def sequential_edge_sum(values: dict, weights, edges_1based) -> float:
    """Same sum restricted to the (1-based) edges of a graph."""
    total = 0.0
    for i, j in sorted(edges_1based):
        total += abs(float(weights[i - 1]) * float(weights[j - 1])) * values[(i - 1, j - 1)]
    return total


def loop_domination(values: dict, weights, m: int, edges_1based, weighted: bool, tol: float) -> dict:
    """Edge domination checked one non-edge at a time.

    Returns {(i, j) 1-based non-edge: (lhs, rhs, violated)} where
    lhs = w_ij phi_ij, rhs sums the neighborhood averages of w_ik phi_ik at
    both ends, and a non-edge violates when lhs > rhs + tol * s, with s the
    largest w_ab in its comparison (w_ij = |c_i c_j|, or 1 when unweighted).
    """
    edges = {tuple(sorted(e)) for e in edges_1based}
    nbrs = {v: sorted(k for k in range(1, m + 1) if tuple(sorted((v, k))) in edges) for v in range(1, m + 1)}

    def w(i, j):
        return abs(float(weights[i - 1]) * float(weights[j - 1])) if weighted else 1.0

    def phi(i, j):
        return values[(min(i, j) - 1, max(i, j) - 1)]

    def average(v):
        if not nbrs[v]:
            return 0.0
        return sum(w(v, k) * phi(v, k) for k in nbrs[v]) / len(nbrs[v])

    out = {}
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            if (i, j) in edges:
                continue
            lhs = w(i, j) * phi(i, j)
            rhs = average(i) + average(j)
            scale = max([w(i, j)] + [w(i, k) for k in nbrs[i]] + [w(j, k) for k in nbrs[j]])
            out[(i, j)] = (lhs, rhs, lhs > rhs + tol * scale)
    return out
