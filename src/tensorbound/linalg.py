"""Dense complex linear algebra on small operators.

Everything here works on square complex matrices represented as numpy
``complex128`` arrays. All functions are pure: inputs are never mutated
and there is no module-level mutable state, so values can be shared
freely between workers.

The exact path (``kron`` tiles, then ``hermitian_eig``) is desk-scale by
design: ``bounds.exact_reference`` holds the product dimension to a cap
before it builds anything, and takes its operators from a validated
instance, so neither function checks its input. The bound computations
elsewhere never assemble the full tensor product and are dimension-free.
``lanczos_extremes`` finds the two extreme eigenvalues of a Hermitian
operator known only through its action on vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Exact-norm work is refused above this total dimension unless the caller
# raises the cap explicitly. Bounds never form the product space, so they
# are unaffected.
DEFAULT_DIM_CAP = 4096

# Hermiticity is accepted when ||a - a*||_F <= HERM_TOL_FACTOR * max(1, ||a||_F).
HERM_TOL_FACTOR = 1e-10

# Complex entries per temporary stack when work on an operator stack runs in
# batches (1 MB): phi_table's pair products and validate's defects and norms.
BATCH_ENTRIES = 2 ** 16

# Lanczos accepts an extreme Ritz pair (theta, q) when ||B q - theta q|| <=
# LANCZOS_TOL * scale, with scale an upper bound on ||B||. The Ritz value is
# then within that distance of an eigenvalue of B.
LANCZOS_TOL = 1e-10

# Most Lanczos steps taken before giving up (the basis holds this many rows of n entries).
LANCZOS_MAX_STEPS = 300

# Convergence of the extreme Ritz values is tested every this many steps.
_LANCZOS_CHECK_EVERY = 10


class DimensionCapError(ValueError):
    """Raised when an exact-norm operation would exceed the dimension cap."""


def as_operator(a) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("operator dimension must be at least 1")
    if not np.isfinite(m).all():
        raise ValueError("operator entries must be finite (no NaN/Inf)")
    return m


def batches(count: int, dim: int) -> list[slice]:
    """Slices cutting ``count`` d x d matrices into batches of at most
    max(1, BATCH_ENTRIES // d^2); one empty slice when count is 0."""
    step = max(1, BATCH_ENTRIES // dim ** 2)
    return [slice(start, start + step) for start in range(0, max(count, 1), step)]


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """||s||_F of each matrix of a stack, through a real view (no temporary)."""
    k, d, _ = stack.shape
    v = stack.reshape(k, d * d).view(np.float64)
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor (Kronecker) product a (x) b of two complex matrices, unchecked.

    The result has dimension dim(a)*dim(b) and block structure
    (a(x)b)[i*db+k, j*db+l] = a[i,j]*b[k,l], the products np.kron forms
    (without its generic-shape handling).
    """
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def check_dim_cap(dim_a: int, dim_b: int, dim_cap: int) -> None:
    """Raise DimensionCapError when dim_a * dim_b exceeds ``dim_cap``."""
    total = dim_a * dim_b
    if total > dim_cap:
        raise DimensionCapError(
            f"tensor product dimension {dim_a}*{dim_b} = {total} "
            f"exceeds the cap {dim_cap}; raise dim_cap to force assembly"
        )


@dataclass(frozen=True, eq=False)
class SpectralSummary:
    """Spectrum of a Hermitian operator.

    ``eigenvalues`` is ascending; ``spectral_norm`` equals
    max(|lambda_min|, |lambda_max|).
    """

    eigenvalues: np.ndarray
    spectral_norm: float
    lambda_max: float
    lambda_min: float


def hermitian_eig(a: np.ndarray) -> SpectralSummary:
    """All eigenvalues, ascending, of the Hermitian matrix whose lower
    triangle is ``a``.

    Calls LAPACK's eigenvalue-only routine (``numpy.linalg.eigvalsh``),
    which reads only the lower triangle and the real part of the diagonal;
    the strict upper triangle and the diagonal's imaginary part are never
    read, so nothing is checked there. No eigenvectors are computed.
    """
    w = np.linalg.eigvalsh(a)
    lo = float(w[0])
    hi = float(w[-1])
    return SpectralSummary(
        eigenvalues=w,
        spectral_norm=max(abs(lo), abs(hi)),
        lambda_max=hi,
        lambda_min=lo,
    )


def spectral_norm(a: np.ndarray) -> np.ndarray:
    """Operator norms (largest singular values) of the matrices of a
    (k, d, d) stack, as an array of k norms.

    Computed as sqrt(lambda_max(a* a)), which reuses the Hermitian
    eigensolver and agrees with max |eigenvalue| for Hermitian input: one
    batched product and one batched eigvalsh call for the whole stack.
    Any other shape, a single matrix included, and non-finite norms (from
    NaN/Inf entries, or an a* a that overflows) are refused.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 1:
        raise ValueError(f"need a (k, d, d) stack, each a nonempty square matrix, got shape {a.shape}")
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite norm is named below
        w = np.linalg.eigvalsh(np.swapaxes(a.conj(), -1, -2) @ a)[..., -1]
        norms = np.sqrt(np.maximum(w, 0.0))
    if not np.isfinite(norms).all():
        raise ValueError("spectral norm is not finite (NaN/Inf entries, or a* a overflows)")
    return norms


@dataclass(frozen=True)
class LanczosResult:
    """Extreme Ritz values of a Hermitian operator after a Lanczos run.

    ``residual`` is the larger of the explicit residuals ||B q - theta q||
    of the two extreme Ritz pairs, recomputed after the last step.
    ``converged`` is true when both residuals are within the tolerance, so
    each Ritz value lies within ``LANCZOS_TOL * scale`` of an eigenvalue.
    """

    lambda_min: float
    lambda_max: float
    steps: int
    residual: float
    converged: bool


def lanczos_extremes(matvec, n: int, scale: float) -> LanczosResult:
    """Smallest and largest eigenvalue of a Hermitian operator B on C^n that
    is given only as ``matvec(v) = B v``.

    Lanczos with full reorthogonalization (two classical Gram-Schmidt
    passes against the whole basis), started from a fixed-seed complex
    Gaussian vector so that repeated calls give identical results. A random
    start has a component along every eigenvector with probability one;
    Kuczynski & Wozniakowski (1992) bound how slowly the extreme Ritz
    values can then approach the extreme eigenvalues.

    ``scale`` must bound ||B|| from above; tolerances are
    ``LANCZOS_TOL * scale``. Every ``_LANCZOS_CHECK_EVERY`` steps the
    tridiagonal matrix is diagonalized, and the run stops once both extreme
    Ritz residual estimates are within tolerance. It also stops when the
    next basis vector has norm within tolerance: the Krylov space is then
    invariant and its Ritz values are eigenvalues of B. At most
    min(n, LANCZOS_MAX_STEPS) steps are taken.
    """
    thresh = LANCZOS_TOL * scale
    max_steps = min(n, LANCZOS_MAX_STEPS)
    rng = np.random.default_rng(0)
    q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    q /= np.linalg.norm(q)
    basis = np.empty((max_steps, n), dtype=complex)  # rows are written as steps run
    alphas: list[float] = []
    betas: list[float] = []
    estimates_met = False
    while True:
        k = len(alphas)
        basis[k] = q
        w = matvec(q)
        alphas.append(float(np.vdot(q, w).real))
        span = basis[: k + 1]
        for _ in range(2):
            w -= span.T @ (span @ w.conj()).conj()
        beta = float(np.linalg.norm(w))
        steps = k + 1
        if beta <= thresh:
            estimates_met = True
            theta, s = _tridiagonal_eigh(alphas, betas)
            break
        if steps % _LANCZOS_CHECK_EVERY == 0 or steps == max_steps:
            theta, s = _tridiagonal_eigh(alphas, betas)
            if beta * max(abs(s[-1, 0]), abs(s[-1, -1])) <= thresh:
                estimates_met = True
                break
            if steps == max_steps:
                break
        betas.append(beta)
        q = w / beta

    residual = 0.0
    for j in (0, -1):
        ritz = basis[:steps].T @ s[:, j]
        residual = max(residual, float(np.linalg.norm(matvec(ritz) - theta[j] * ritz)))
    return LanczosResult(
        lambda_min=float(theta[0]),
        lambda_max=float(theta[-1]),
        steps=steps,
        residual=residual,
        converged=estimates_met and residual <= thresh,
    )


def _tridiagonal_eigh(alphas: list[float], betas: list[float]):
    """Eigenpairs of the real symmetric tridiagonal Lanczos matrix."""
    t = np.diag(alphas)
    if betas:
        off = np.arange(len(betas))
        t[off + 1, off] = betas
        t[off, off + 1] = betas
    return np.linalg.eigh(t)
