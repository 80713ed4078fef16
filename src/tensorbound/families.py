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

    ``is_hermitian`` means ||a - a*||_F <= HERM_TOL_FACTOR * max(1, ||a||_F),
    with the measured ``hermiticity_defect`` explaining a failed check;
    ``is_contraction`` means norm <= 1 + CONTRACTION_TOL.
    """

    is_hermitian: bool | np.ndarray
    hermiticity_defect: float | np.ndarray
    norm: float | np.ndarray
    is_contraction: bool | np.ndarray


def _defects_and_squared_singular_values(a: np.ndarray):
    """Hermiticity defects, their acceptance and the eigenvalues of a* a."""
    adjoint = np.swapaxes(a.conj(), -1, -2)
    defect = frobenius_norms(a - adjoint)
    accepted = defect <= HERM_TOL_FACTOR * np.maximum(1.0, frobenius_norms(a))
    return defect, accepted, np.linalg.eigvalsh(adjoint @ a)


def validate(a) -> ContractionCertificate:
    """Certify whether a matrix, or each matrix of a (k, d, d) stack, is a
    self-adjoint contraction, one linalg.batches batch at a time: a
    Frobenius reduction gives the hermiticity defects ||a - a*||_F, and one
    eigvalsh of a* a its largest eigenvalue mu_max, hence the norm
    sqrt(mu_max) (the arithmetic of linalg.spectral_norm).

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
    fields = {
        "is_hermitian": is_herm,
        "hermiticity_defect": defect,
        "norm": norm,
        "is_contraction": norm <= 1.0 + CONTRACTION_TOL,
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


def random_operator(config):
    """Seeded random self-adjoint contraction or unitary involution, for
    one RandomEnsembleConfig (a matrix), or a (k, d, d) stack for a
    sequence of configs that share one kind and one dim.

    contraction: symmetrized complex Gaussian rescaled to norm s with s
    uniform on [0, 1), hence always a strict contraction.
    unitary_involution: Q D Q* with Q from the QR of a complex Gaussian
    and D a uniformly random +-1 diagonal.

    Each operator draws its uniforms in one call from its own
    Generator(PCG64(seed)): 4 d^2 for the real and imaginary Gaussian
    parts (Box-Muller: u1 shifted into (0, 1] to avoid log 0, then u2),
    then s, or the d signs. Box-Muller, the norms and the QR then run once
    on the whole stack; each matrix equals the one its config gives alone.
    """
    single = isinstance(config, RandomEnsembleConfig)
    configs = [config] if single else list(config)
    if len({(c.kind, c.dim) for c in configs}) != 1:
        raise ValueError("random_operator needs configs that share one kind and one dim")
    kind, d = configs[0].kind, configs[0].dim
    n, tail = 4 * d * d, 1 if kind == "contraction" else d
    u = np.stack([np.random.Generator(np.random.PCG64(c.seed)).random(n + tail) for c in configs])
    parts = u[:, :n].reshape(len(configs), 4, d, d)
    normals = np.sqrt(-2.0 * np.log(1.0 - parts[:, 0::2])) * np.cos(2.0 * math.pi * parts[:, 1::2])
    g = (normals[:, 0] + 1j * normals[:, 1]) / math.sqrt(2.0)
    if kind == "contraction":
        h = (g + np.swapaxes(g.conj(), -1, -2)) / 2.0
        norm = spectral_norm(h)
        scale = np.divide(u[:, -1], norm, out=np.ones(len(u)), where=norm > 0.0)  # 0 stays 0
        ops = h * scale[:, None, None]
    else:
        q, _ = np.linalg.qr(g)
        signs = np.where(u[:, n:] < 0.5, -1.0, 1.0)
        ops = (q * signs[:, None, :]) @ np.swapaxes(q.conj(), -1, -2)
    return ops[0] if single else ops
