"""Operator families: Pauli matrices, anticommuting Clifford generators,
and seeded random ensembles of self-adjoint contractions.

Generation is deterministic: all randomness derives from an explicit
64-bit seed through numpy's PCG64 stream, with Gaussian variates drawn
via Box-Muller so the ensemble is reproducible at the distribution level
across implementations and bit-identical within this one.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import BATCH_ENTRIES, DEFAULT_DIM_CAP, frobenius_norms

# validate's acceptance rule: an operator a is self-adjoint when
# ||a - a*||_F <= HERM_TOL_FACTOR * max(1, ||a||_F), and a contraction when
# its norm is at most 1 + CONTRACTION_TOL.
HERM_TOL_FACTOR = 1e-10
CONTRACTION_TOL = 1e-9

# Identifier of the pseudorandom scheme used by random_operator; recorded
# in sweep outputs so a corpus can be tied to the generator that made it.
RNG_ALGORITHM = "pcg64+box-muller"

ENSEMBLE_KINDS = ("contraction", "unitary_involution")

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(which: str) -> np.ndarray:
    """One of the 2x2 Pauli matrices 'x', 'y', 'z' (physics sign convention)."""
    try:
        return _PAULI[which].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli label {which!r}, expected 'x', 'y' or 'z'") from None


def _norms_from_gram(gram: np.ndarray) -> np.ndarray:
    """Operator norms sqrt(max(mu_max, 0)) from the Gram matrices a* a of a
    stack, mu_max the largest eigenvalue of one batched eigvalsh. validate
    measures these norms and random_operator scales by them, so this
    arithmetic fixes every generated operator to the bit."""
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))


def _first_failure(a: np.ndarray, adjoint: np.ndarray) -> tuple[int, str] | None:
    """validate on one batch and its adjoint: the first failing matrix and
    why, or None.

    A batch equal to its adjoint has no defect, and each of its norms is
    the largest |eigenvalue| from one eigvalsh of the batch itself; only
    when one exceeds 1 is ||a||_F taken, to word the failure (entries too
    large fail there too: the norm is at least ||a||_F / sqrt(d)). Any other
    batch goes through a* a: ||a||_F^2 bounds every entry of a* a
    (Cauchy-Schwarz), so a* a is finite wherever ||a||_F is. Where it or
    the defect overflows, the entries are too large and a* a is zeroed
    before eigvalsh.
    """
    if np.array_equal(a, adjoint):
        norm = np.abs(np.linalg.eigvalsh(a)).max(axis=1)
        if norm.max() <= 1.0 + CONTRACTION_TOL:
            return None
        defect = np.zeros(len(a))
        with np.errstate(over="ignore"):  # an overflow is marked large below
            size = frobenius_norms(a)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is marked large below
            size = frobenius_norms(a)
            defect = frobenius_norms(a - adjoint)
            gram = adjoint @ a
        gram[np.maximum(size, defect) == np.inf] = 0.0
        norm = _norms_from_gram(gram)
    large = np.maximum(size, defect) == np.inf
    hermitian = defect <= HERM_TOL_FACTOR * np.maximum(1.0, size)
    failed = np.flatnonzero(large | ~(hermitian & (norm <= 1.0 + CONTRACTION_TOL)))
    if not failed.size:
        return None
    k = int(failed[0])
    if large[k]:
        return k, "entries too large: ||a||_F^2 or ||a - a*||_F^2 overflows"
    if not hermitian[k]:
        return k, f"not self-adjoint, hermiticity defect {defect[k]:.3e}"
    return k, f"not a contraction, norm {norm[k]:.12g} > 1"


def validate(a: np.ndarray, adjoint: np.ndarray) -> tuple[int, str] | None:
    """The first matrix of a (k, d, d) stack, k >= 1, that is not a
    self-adjoint contraction by the rule above HERM_TOL_FACTOR, as
    (index, reason), or None when all are. Within one matrix, entries too
    large (||a||_F^2 or ||a - a*||_F^2 overflows) come before hermiticity,
    and hermiticity before contraction. ``adjoint`` is the stack's adjoint,
    which TensorSumInstance takes once per side and also stores the side's
    Hermitian part from.

    The stack goes through max(1, BATCH_ENTRIES // d^2) matrices at a
    time, up to the first batch that holds a failure. Each norm is that
    of the matrix as passed: the largest |eigenvalue| in a batch that
    equals its adjoint, else sqrt(mu_max) of a* a (_norms_from_gram, the
    arithmetic random_operator scales by), which measures the norm of a
    matrix that may fail the self-adjointness check.

    The stack is taken unchecked: TensorSumInstance passes operators that
    linalg.as_operator has checked to be finite and square.
    """
    step = max(1, BATCH_ENTRIES // a.shape[1] ** 2)
    for start in range(0, len(a), step):
        end = start + step
        if failure := _first_failure(a[start:end], adjoint[start:end]):
            return start + failure[0], failure[1]
    return None


def clifford_generators(m: int) -> tuple[np.ndarray, ...]:
    """m mutually anticommuting Hermitian involutions on 2^ceil(m/2) dimensions.

    Jordan-Wigner pattern on n = ceil(m/2) qubits:

        g_{2k-1} = Z^(k-1) (x) X (x) I^(n-k)
        g_{2k}   = Z^(k-1) (x) Y (x) I^(n-k)

    All entries lie in {0, +-1, +-i}, so g_i^2 = I and {g_i, g_j} = 0
    hold exactly in floating point, not just to rounding.
    """
    if m < 1:
        raise ValueError("need at least one generator")
    n = (m + 1) // 2
    dim = 2 ** n
    if dim > DEFAULT_DIM_CAP:
        raise ValueError(
            f"{m} generators need dimension 2^{n} = {dim}, above the cap {DEFAULT_DIM_CAP}"
        )
    x, y, z = _PAULI["x"], _PAULI["y"], _PAULI["z"]
    eye = np.eye(2, dtype=complex)
    gens = []
    for k in range(1, n + 1):
        for mid in (x, y):
            factors = [z] * (k - 1) + [mid] + [eye] * (n - k)
            op = factors[0]
            for f in factors[1:]:
                op = np.kron(op, f)
            gens.append(op)
    return tuple(gens[:m])


def random_operator(kind: str, dim: int, seeds) -> np.ndarray:
    """A (k, dim, dim) stack of seeded random self-adjoint contractions or
    unitary involutions, one per seed in ``seeds``; equal arguments give
    bit-identical stacks.

    contraction: symmetrized complex Gaussian rescaled to norm s with s
    uniform on [0, 1), hence always a strict contraction.
    unitary_involution: Q D Q* with Q from the QR of a complex Gaussian
    and D a uniformly random +-1 diagonal.

    Each operator draws its uniforms in one call from its own
    Generator(PCG64(seed)): 4 d^2 for the real and imaginary Gaussian
    parts (Box-Muller: u1 shifted into (0, 1] to avoid log 0, then u2),
    then s, or the d signs. Box-Muller, the norms and the QR then run once
    on the whole stack; each matrix equals the one its seed gives alone.
    """
    if kind not in ENSEMBLE_KINDS:
        raise ValueError(f"kind must be one of {ENSEMBLE_KINDS}, got {kind!r}")
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim!r}")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must not be empty")
    for s in seeds:
        if not 0 <= s < 2 ** 64:
            raise ValueError(f"seeds must be unsigned 64-bit integers, got {s!r}")
    n, tail = 4 * dim * dim, 1 if kind == "contraction" else dim
    u = np.stack([np.random.Generator(np.random.PCG64(s)).random(n + tail) for s in seeds])
    parts = u[:, :n].reshape(len(seeds), 4, dim, dim)
    normals = np.sqrt(-2.0 * np.log(1.0 - parts[:, 0::2])) * np.cos(2.0 * math.pi * parts[:, 1::2])
    g = (normals[:, 0] + 1j * normals[:, 1]) / math.sqrt(2.0)
    if kind == "contraction":
        h = (g + np.swapaxes(g.conj(), -1, -2)) / 2.0
        norm = _norms_from_gram(np.swapaxes(h.conj(), -1, -2) @ h)
        scale = np.divide(u[:, -1], norm, out=np.ones(len(u)), where=norm > 0.0)  # 0 stays 0
        return h * scale[:, None, None]
    q, _ = np.linalg.qr(g)
    signs = np.where(u[:, n:] < 0.5, -1.0, 1.0)
    return (q * signs[:, None, :]) @ np.swapaxes(q.conj(), -1, -2)
