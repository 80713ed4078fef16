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


def kron_sum_eigenvalue_bound(n: int, weights) -> float:
    """How far two computed spectra of one B = sum_i c_i x_i (x) y_i, on a
    product space of dimension n with contractions x_i, y_i, may lie apart
    when each assembles B in its own order and diagonalizes it on its own.

    Assembly: every entry of B is a sum of m = len(weights) terms
    c_i x_i[a, b] y_i[k, l], each |x_i[a, b]|, |y_i[k, l]| <= 1. Scaling by
    the real c_i and the complex product take at most 3 roundings per real
    component (Higham, Lemma 3.5), and any order of the sum m - 1 more
    (Higham, (3.4)), so the computed entry is within
    sqrt(2) gamma_{m+2} sum |c_i| of the exact one, with
    gamma_k = k u / (1 - k u). Two assemblies differ entrywise by twice
    that, and in 2-norm by at most n times it (the Frobenius norm of an
    n x n matrix of such entries). By Weyl's inequality each eigenvalue
    moves by no more than that 2-norm. Solving: each backward-stable
    solver, real or complex, returns the eigenvalues of B + E with
    ||E|| <= n u ||B|| and ||B|| <= sum |c_i|, so Weyl adds n u sum |c_i|
    per solve. In total (4 gamma_{m+2} + 2 u) n sum |c_i|, rounding
    sqrt(2) up to 2.
    """
    u = np.finfo(float).eps / 2
    k = len(weights) + 2
    gamma = k * u / (1 - k * u)
    return (4 * gamma + 2 * u) * n * float(np.sum(np.abs(weights)))


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


def chained_bell(n: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The chained Bell operator of Braunstein & Caves (1990) with ``n``
    settings per side, as the 2n terms A_k (x) B_k and A_{k+1} (x) B_k,
    k = 0..n-1, all of weight 1.

    A_k is the Z-X plane observable at angle k pi/n, with A_n = -A_0, and
    B_k the one at angle (2k+1) pi/(2n); every term's pair sits pi/(2n)
    apart. The operator's norm is 2n cos(pi/(2n)), so n = 2 is CHSH at
    Tsirelson's 2 sqrt(2). Returns the x and y operators, term by term.
    """
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)

    def plane(angle):
        return np.cos(angle) * z + np.sin(angle) * x

    a = [plane(k * np.pi / n) for k in range(n)] + [-plane(0.0)]
    b = [plane((2 * k + 1) * np.pi / (2 * n)) for k in range(n)]
    x_ops, y_ops = [], []
    for k in range(n):
        x_ops += [a[k], a[k + 1]]
        y_ops += [b[k], b[k]]
    return x_ops, y_ops


def haar_unitary(n: int, rng: np.random.Generator, real: bool = False) -> np.ndarray:
    """A Haar-random n x n unitary, or real orthogonal matrix with ``real``:
    Q of the QR of a complex (real) Gaussian matrix, with the phases (signs)
    of R's diagonal moved into it (Mezzadri 2007)."""
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g if real else g + 1j * rng.standard_normal((n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def lift(
    x_ops, y_ops, d, e, seed: int, real: bool = False
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Lift a tensor sum to operators of dimensions len(x_i) len(d) and
    len(y_i) len(e), with a spectrum known in closed form.

    With D = diag(d) and E = diag(e), real entries in [-1, 1] and the
    largest magnitude 1 in each, and Haar unitaries U, V drawn from
    ``seed`` (real orthogonal ones with ``real``, which keep real x_i and
    y_i real), the lifted operators are x_i' = U (x_i (x) D) U* and
    y_i' = V (y_i (x) E) V*, each hermitized as (a + a*)/2. Then
    sum c_i x_i' (x) y_i' is unitarily similar to the direct sum over a, b
    of d_a e_b B_c, so its spectrum is {d_a e_b lambda} and its norm that
    of B_c. Every phi_ij is unchanged too: [x (x) D, x' (x) D] is
    [x, x'] (x) D^2, likewise for anticommutators, and ||D^2|| = 1.

    Returns x', y' and that spectrum, ascending, for unit weights, with the
    eigenvalues lambda of B = sum x_i (x) y_i from power_iteration_spectrum.
    """
    rng = np.random.default_rng(seed)
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    u = haar_unitary(len(x_ops[0]) * len(d), rng, real)
    v = haar_unitary(len(y_ops[0]) * len(e), rng, real)

    def conjugate(w, a, diag):
        b = w @ np.kron(a, np.diag(diag)) @ w.conj().T
        return (b + b.conj().T) / 2

    base = power_iteration_spectrum(dense_kron_sum(x_ops, y_ops, np.ones(len(x_ops))), 500)
    spectrum = np.sort(np.multiply.outer(np.outer(d, e), base).ravel())
    return [conjugate(u, a, d) for a in x_ops], [conjugate(v, b, e) for b in y_ops], spectrum
