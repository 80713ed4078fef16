"""Dense complex linear algebra on small operators.

Everything here works on complex matrices, or stacks of them, as numpy
``complex128`` arrays. All functions are pure: inputs are never mutated
and there is no module-level mutable state, so values can be shared
freely between workers.

``as_operator`` is the one check of an outside matrix, and
``bounds.TensorSumInstance`` is its one caller, once per side on the
whole stack; every other function here takes matrices that came through
it, or were built from such matrices, and checks nothing. The exact path
(strips of at most max(BATCH_ENTRIES, dim_k * n) entries, each one
``kron`` of weighted stacks, then ``hermitian_eig``, real when B is) is
desk-scale: ``bounds.exact_reference`` caps the product dimension first.
The bound computations never form the tensor product and are
dimension-free. ``kron`` and ``spectral_norm`` take stacks only, and
``lanczos_extremes`` finds the two extreme eigenvalues of a Hermitian
operator known only through its action on vectors. Both
``hermitian_eig`` and ``lanczos_extremes`` return an ``ExtremeSpectrum``,
the one spectrum type.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Exact-norm work is refused above this total dimension unless the caller
# raises the cap explicitly. Bounds never form the product space, so they
# are unaffected.
DEFAULT_DIM_CAP = 4096

# Complex entries per temporary when work runs in batches (1 MB): phi_table's
# pair products, validate's defects and norms, exact_reference's strips.
BATCH_ENTRIES = 2 ** 16

# Lanczos accepts an extreme Ritz pair (theta, q) when ||B q - theta q|| <=
# LANCZOS_TOL * scale, with scale an upper bound on ||B||. The Ritz value is
# then within that distance of an eigenvalue of B.
LANCZOS_TOL = 1e-10

# Most Lanczos steps taken before giving up (the basis holds this many rows of n entries).
LANCZOS_MAX_STEPS = 300

# Convergence of the extreme Ritz values is tested every this many steps.
_LANCZOS_CHECK_EVERY = 10


def as_operator(a, *, stack: bool = False) -> np.ndarray:
    """Coerce to a square complex matrix, or with ``stack`` to a (k, d, d)
    stack of them in one conversion and one finiteness scan, rejecting
    non-finite entries; every refusal is a ValueError."""
    try:
        m = np.asarray(a, dtype=complex)
    except OverflowError:  # an integer beyond the float range
        raise ValueError("operator entries must be finite (no NaN/Inf)") from None
    except (TypeError, ValueError):  # an entry that is not a number, or ragged rows
        raise ValueError("operator must be a rectangular array of numbers") from None
    if m.ndim != 2 + stack or m.shape[-1] != m.shape[-2]:
        shape = "a (k, d, d) stack" if stack else "a square matrix"
        raise ValueError(f"operator must be {shape}, got shape {m.shape}")
    if m.shape[-1] < 1:
        raise ValueError("operator dimension must be at least 1")
    if not np.isfinite(m).all():
        raise ValueError("operator entries must be finite (no NaN/Inf)")
    return m


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """||s||_F of each matrix of a stack, through a real view (no temporary)."""
    k, d, _ = stack.shape
    v = stack.reshape(k, d * d).view(np.float64)
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor sum sum_t a_t (x) b_t of (k, p, q) and (k, r, s) complex
    stacks, unchecked: the (p r, q s) matrix with entries [i*r+u, j*s+v] =
    sum_t a[t,i,j] b[t,u,v], in np.kron's order. One matrix product of the
    flattened stacks gives every entry, its axes then moved into that order
    (Van Loan's reshaping), so each sum over t runs in BLAS's order.
    """
    k, p, q = a.shape
    _, r, s = b.shape
    t = a.reshape(k, p * q).T @ b.reshape(k, r * s)
    return t.reshape(p, q, r, s).transpose(0, 2, 1, 3).reshape(p * r, q * s)


def check_dim_cap(dim_a: int, dim_b: int, dim_cap: int) -> None:
    """Raise ValueError when dim_a * dim_b exceeds ``dim_cap``."""
    total = dim_a * dim_b
    if total > dim_cap:
        raise ValueError(
            f"tensor product dimension {dim_a}*{dim_b} = {total} "
            f"exceeds the cap {dim_cap}; raise dim_cap to force assembly"
        )


@dataclass(frozen=True)
class ExtremeSpectrum:
    """The spectrum of a Hermitian operator: its extreme eigenvalues and
    norm, and how they were computed.

    ``spectral_norm`` is max(|lambda_min|, |lambda_max|). ``method`` is
    "lanczos" (lanczos_extremes, matrix-free), "dense" (hermitian_eig, and
    through it bounds.exact_reference and bounds.extreme_spectrum), or
    "dense-fallback" (bounds.extreme_spectrum through exact_reference
    after Lanczos missed its tolerance). ``steps`` and ``residual``
    describe the Lanczos run and are None for "dense"; ``residual`` is
    the larger of the explicit residuals ||B q - theta q|| of the two
    extreme Ritz pairs, recomputed after the last step. ``eigenvalues``
    is the whole spectrum, ascending, set by the dense paths and None for
    "lanczos"; equality, hashing and repr ignore it.
    """

    lambda_min: float
    lambda_max: float
    spectral_norm: float
    method: str
    steps: int | None = None
    residual: float | None = None
    eigenvalues: np.ndarray | None = field(default=None, compare=False, repr=False)


def hermitian_eig(a: np.ndarray) -> ExtremeSpectrum:
    """All eigenvalues, ascending, of the Hermitian matrix whose lower
    triangle is ``a``, as a "dense" ``ExtremeSpectrum``.

    LAPACK's eigenvalue-only routine (``numpy.linalg.eigvalsh``) reads only
    the lower triangle and the real part of the diagonal, so nothing is
    checked elsewhere; no eigenvectors are computed. Every imaginary part is
    read once, to choose the routine: when all are zero, ``a.real`` goes to
    the real solver (``dsyevd``, a quarter of ``zheevd``'s work).
    """
    w = np.linalg.eigvalsh(a if a.imag.any() else a.real)
    lo, hi = float(w[0]), float(w[-1])
    return ExtremeSpectrum(lo, hi, max(abs(lo), abs(hi)), "dense", eigenvalues=w)


def spectral_norm(h: np.ndarray) -> np.ndarray:
    """Operator norms of the Hermitian matrices of a (k, d, d) stack, as an
    array of k norms.

    A Hermitian matrix's norm is the larger of |lambda_min| and |lambda_max|,
    so one batched eigvalsh gives every norm, with no Gram product. Like
    hermitian_eig, eigvalsh reads only each lower triangle and the real part
    of the diagonal, so nothing checks that the stack is Hermitian: its
    matrices are i(P - P*) and P + P* for bounds._pair_norms' pair products P.
    """
    w = np.linalg.eigvalsh(h)
    return np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1]))


def lanczos_extremes(matvec, n: int, scale: float) -> ExtremeSpectrum:
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
    min(n, LANCZOS_MAX_STEPS) steps are taken. Each Ritz value lies within
    the returned ``residual`` of an eigenvalue of B, so a run is to be
    trusted when ``residual <= LANCZOS_TOL * scale``.
    """
    thresh = LANCZOS_TOL * scale
    max_steps = min(n, LANCZOS_MAX_STEPS)
    rng = np.random.default_rng(0)
    q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    q /= np.linalg.norm(q)
    basis = np.empty((max_steps, n), dtype=complex)  # rows are written as steps run
    alphas: list[float] = []
    betas: list[float] = []
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
            theta, s = _tridiagonal_eigh(alphas, betas)
            break
        if steps % _LANCZOS_CHECK_EVERY == 0 or steps == max_steps:
            theta, s = _tridiagonal_eigh(alphas, betas)
            if beta * max(abs(s[-1, 0]), abs(s[-1, -1])) <= thresh or steps == max_steps:
                break
        betas.append(beta)
        q = w / beta

    residual = 0.0
    for j in (0, -1):
        ritz = basis[:steps].T @ s[:, j]
        residual = max(residual, float(np.linalg.norm(matvec(ritz) - theta[j] * ritz)))
    lo, hi = float(theta[0]), float(theta[-1])
    return ExtremeSpectrum(lo, hi, max(abs(lo), abs(hi)), "lanczos", steps, residual)


def _tridiagonal_eigh(alphas: list[float], betas: list[float]):
    """Eigenpairs of the real symmetric tridiagonal Lanczos matrix."""
    t = np.diag(alphas)
    if betas:
        off = np.arange(len(betas))
        t[off + 1, off] = betas
        t[off, off + 1] = betas
    return np.linalg.eigh(t)
