"""Operator families: Pauli matrices, anticommuting Clifford generators,
and seeded random ensembles of self-adjoint contractions.

Generation is deterministic: all randomness derives from an explicit
64-bit seed through numpy's PCG64 stream, with Gaussian variates drawn
via Box-Muller so the ensemble is reproducible at the distribution level
across implementations and bit-identical within this one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_DIM_CAP,
    HERM_TOL_FACTOR,
    DimensionCapError,
    batches,
    frobenius_norms,
    spectral_norm,
)

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


@dataclass(frozen=True)
class ContractionCertificate:
    """Checked facts about each operator of a (k, d, d) stack, as arrays of k.

    ``is_hermitian`` means ||a - a*||_F <= HERM_TOL_FACTOR * max(1, ||a||_F),
    with the measured ``hermiticity_defect`` explaining a failed check;
    ``is_contraction`` means norm <= 1 + CONTRACTION_TOL.
    """

    is_hermitian: np.ndarray
    hermiticity_defect: np.ndarray
    norm: np.ndarray
    is_contraction: np.ndarray


def _defects_and_squared_singular_values(a: np.ndarray):
    """Hermiticity defects, their acceptance and the eigenvalues of a* a."""
    adjoint = np.swapaxes(a.conj(), -1, -2)
    defect = frobenius_norms(a - adjoint)
    accepted = defect <= HERM_TOL_FACTOR * np.maximum(1.0, frobenius_norms(a))
    return defect, accepted, np.linalg.eigvalsh(adjoint @ a)


def validate(a) -> ContractionCertificate:
    """Certify whether each matrix of a (k, d, d) stack is a self-adjoint
    contraction, one linalg.batches batch at a time: a Frobenius reduction
    gives the hermiticity defects ||a - a*||_F, and one eigvalsh of a* a its
    largest eigenvalue mu_max, hence the norm sqrt(mu_max) (the arithmetic
    of linalg.spectral_norm).

    Never raises for a well-formed stack; failures show up as False flags
    plus the measured defects. Anything else, a single matrix included, is
    refused with ValueError.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 1 or not np.isfinite(a).all():
        raise ValueError(f"operator stack must hold finite square matrices, got shape {a.shape}")
    parts = [_defects_and_squared_singular_values(a[p]) for p in batches(len(a), a.shape[1])]
    defect, is_herm, mu = (np.concatenate(arrays) for arrays in zip(*parts))
    norm = np.sqrt(np.maximum(mu[:, -1], 0.0))
    return ContractionCertificate(
        is_hermitian=is_herm,
        hermiticity_defect=defect,
        norm=norm,
        is_contraction=norm <= 1.0 + CONTRACTION_TOL,
    )


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
        raise DimensionCapError(
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
        norm = spectral_norm(h)
        scale = np.divide(u[:, -1], norm, out=np.ones(len(u)), where=norm > 0.0)  # 0 stays 0
        return h * scale[:, None, None]
    q, _ = np.linalg.qr(g)
    signs = np.where(u[:, n:] < 0.5, -1.0, 1.0)
    return (q * signs[:, None, :]) @ np.swapaxes(q.conj(), -1, -2)
