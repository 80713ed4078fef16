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
    as_operator,
    batches,
    frobenius_norms,
    spectral_norm,
)

CONTRACTION_TOL = 1e-9
INVOLUTION_TOL = 1e-9

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
    """Checked facts about one operator, or arrays of them for a (k, d, d) stack.

    ``is_contraction`` means norm <= 1 + CONTRACTION_TOL;
    ``is_unitary_involution`` additionally requires hermiticity and
    ||a* a - I|| <= INVOLUTION_TOL (||a^2 - I|| for self-adjoint a). The
    defect fields hold the measured residuals that explain a failed check.
    """

    is_hermitian: bool | np.ndarray
    hermiticity_defect: float | np.ndarray
    norm: float | np.ndarray
    is_contraction: bool | np.ndarray
    is_unitary_involution: bool | np.ndarray
    involution_defect: float | np.ndarray


def _defects_and_squared_singular_values(a: np.ndarray):
    """Hermiticity defects, their acceptance and the eigenvalues of a* a."""
    adjoint = np.swapaxes(a.conj(), -1, -2)
    defect = frobenius_norms(a - adjoint)
    accepted = defect <= HERM_TOL_FACTOR * np.maximum(1.0, frobenius_norms(a))
    return defect, accepted, np.linalg.eigvalsh(adjoint @ a)


def validate(a) -> ContractionCertificate:
    """Certify whether a matrix, or each matrix of a (k, d, d) stack, is a
    self-adjoint contraction / involution, one linalg.batches batch at a
    time: a Frobenius reduction gives the hermiticity defects ||a - a*||_F,
    and one eigvalsh of a* a its eigenvalues mu_i, hence the norm
    sqrt(mu_max) (the arithmetic of linalg.spectral_norm) and the involution
    defect max |mu_i - 1|.

    Never raises for well-formed square matrices; failures show up as False
    flags plus the measured defects.
    """
    single = np.ndim(a) != 3
    a = as_operator(a)[None] if single else np.asarray(a, dtype=complex)
    if not single and (a.shape[1] != a.shape[2] or a.shape[1] < 1 or not np.isfinite(a).all()):
        raise ValueError(f"operator stack must hold finite square matrices, got shape {a.shape}")
    parts = [_defects_and_squared_singular_values(a[p]) for p in batches(len(a), a.shape[1])]
    defect, is_herm, mu = (np.concatenate(arrays) for arrays in zip(*parts))
    norm = np.sqrt(np.maximum(mu[:, -1], 0.0))
    inv_defect = np.abs(mu - 1.0).max(axis=1)
    fields = {
        "is_hermitian": is_herm,
        "hermiticity_defect": defect,
        "norm": norm,
        "is_contraction": norm <= 1.0 + CONTRACTION_TOL,
        "is_unitary_involution": is_herm & (inv_defect <= INVOLUTION_TOL),
        "involution_defect": inv_defect,
    }
    if single:
        fields = {name: value[0].item() for name, value in fields.items()}
    return ContractionCertificate(**fields)


def clifford_generators(m: int, *, dim_cap: int = DEFAULT_DIM_CAP) -> tuple[np.ndarray, ...]:
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
    if dim > dim_cap:
        raise DimensionCapError(
            f"{m} generators need dimension 2^{n} = {dim}, above the cap {dim_cap}"
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


@dataclass(frozen=True)
class RandomEnsembleConfig:
    """Deterministic recipe for one random operator.

    Identical configs produce bit-identical matrices.
    """

    seed: int
    dim: int
    kind: str  # 'contraction' or 'unitary_involution'

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"kind must be one of {ENSEMBLE_KINDS}, got {self.kind!r}")


def _box_muller(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normals from uniforms; u1 shifted into (0, 1] to avoid log 0."""
    u1 = 1.0 - rng.random(shape)
    u2 = rng.random(shape)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)


def _gaussian_complex(rng: np.random.Generator, dim: int) -> np.ndarray:
    re = _box_muller(rng, (dim, dim))
    im = _box_muller(rng, (dim, dim))
    return (re + 1j * im) / math.sqrt(2.0)


def random_operator(config: RandomEnsembleConfig) -> np.ndarray:
    """Seeded random self-adjoint contraction or unitary involution.

    contraction: symmetrized complex Gaussian rescaled to norm s with s
    uniform on [0, 1), hence always a strict contraction.
    unitary_involution: Q D Q* with Q from the QR of a complex Gaussian
    and D a uniformly random +-1 diagonal.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    if config.kind == "contraction":
        g = _gaussian_complex(rng, config.dim)
        h = (g + g.conj().T) / 2.0
        s = rng.random()
        norm = spectral_norm(h)
        if norm == 0.0:
            return h
        return h * (s / norm)
    # unitary_involution
    q, _ = np.linalg.qr(_gaussian_complex(rng, config.dim))
    signs = np.where(rng.random(config.dim) < 0.5, -1.0, 1.0)
    return (q * signs) @ q.conj().T
