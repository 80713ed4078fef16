"""Instances whose spectrum is known in closed form: ground truth for the
exact path that does not come from a second eigensolver."""

import math

import numpy as np
import pytest

from oracles import chained_bell, kron_sum_eigenvalue_bound, lift
from tensorbound import (
    TensorSumInstance,
    build_report,
    exact_reference,
    extreme_spectrum,
    phi_table,
)
from tensorbound.bounds import _tensor_sum_matvec
from tensorbound.linalg import DEFAULT_DIM_CAP, LANCZOS_MAX_STEPS, LANCZOS_TOL, lanczos_extremes

UNIT_ROUNDOFF = np.finfo(float).eps / 2


@pytest.mark.parametrize("settings", range(2, 13))
def test_chained_bell_norm_matches_closed_form(settings):
    inst = TensorSumInstance(*chained_bell(settings), np.ones(2 * settings))
    norm = 2 * settings * math.cos(math.pi / (2 * settings))
    n = inst.dim_h * inst.dim_k
    tol = n * UNIT_ROUNDOFF * norm
    w = exact_reference(inst).eigenvalues
    assert max(abs(w[0]), abs(w[-1])) == pytest.approx(norm, rel=0, abs=tol)
    assert extreme_spectrum(inst).spectral_norm == pytest.approx(norm, rel=0, abs=tol)
    if settings % 2 == 0:
        # even N: the complete bound is tight, at m = 2N up to 24
        assert build_report(inst).complete_bound == pytest.approx(norm ** 2, rel=1e-14, abs=0)


# Lifting chained N = 4 (2 x 2 operators) by 16 x 16 diagonals gives 32 x 32
# operators and n = 1024, above LANCZOS_MIN_DIM.
LIFT_DIAGONALS = (np.linspace(-1.0, 1.0, 16), np.linspace(1.0, 0.25, 16))
# phi and the complete bound are unchanged by a lift in exact arithmetic;
# rounding in the 32 x 32 products and norms stays well within this.
LIFT_RTOL = 1e-12


def lifted_chained_bell(settings: int = 4):
    x, y = chained_bell(settings)
    x_lift, y_lift, spectrum = lift(x, y, *LIFT_DIAGONALS, seed=10)
    weights = np.ones(2 * settings)
    return TensorSumInstance(x, y, weights), TensorSumInstance(x_lift, y_lift, weights), spectrum


def test_lift_keeps_phi_and_the_complete_bound():
    base, lifted, _ = lifted_chained_bell()
    assert lifted.dim_h * lifted.dim_k == 1024
    phi, phi_lift = phi_table(base).values, phi_table(lifted).values
    assert np.abs(phi_lift - phi).max() <= LIFT_RTOL * phi.max()
    complete = build_report(base).complete_bound
    assert build_report(lifted).complete_bound == pytest.approx(complete, rel=LIFT_RTOL, abs=0)


def test_extreme_spectrum_of_a_lift_matches_closed_form():
    _, lifted, spectrum = lifted_chained_bell()
    norm = 8 * math.cos(math.pi / 8)
    assert (spectrum[0], spectrum[-1]) == pytest.approx((-norm, norm), rel=1e-14, abs=0)
    spec = extreme_spectrum(lifted)
    assert spec.method == "lanczos"
    tol = LANCZOS_TOL * max(1.0, float(np.sum(np.abs(lifted.weights))))
    assert spec.lambda_min == pytest.approx(-norm, rel=0, abs=tol)
    assert spec.lambda_max == pytest.approx(norm, rel=0, abs=tol)
    assert spec.spectral_norm == pytest.approx(norm, rel=0, abs=tol)


def test_dense_spectrum_of_a_lift_matches_closed_form():
    _, lifted, spectrum = lifted_chained_bell()
    n = lifted.dim_h * lifted.dim_k
    norm = 8 * math.cos(math.pi / 8)
    w = exact_reference(lifted).eigenvalues
    assert n == 1024 and len(w) == len(spectrum)
    assert np.abs(w - spectrum).max() <= n * UNIT_ROUNDOFF * norm


@pytest.mark.parametrize("settings", [3, 4])
def test_real_lift_takes_the_real_path_and_matches_closed_form(settings, monkeypatch):
    # real orthogonal U and V keep the lifted operators, and so B, real:
    # the real solver's spectrum agrees with the complex solver's on the
    # same B and with the closed form
    x, y = chained_bell(settings)
    x_lift, y_lift, spectrum = lift(x, y, *LIFT_DIAGONALS, seed=12, real=True)
    lifted = TensorSumInstance(x_lift, y_lift, np.ones(2 * settings))
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a.copy()) or eigvalsh(a))
    w = exact_reference(lifted).eigenvalues
    [b] = seen
    assert b.dtype == np.float64 and len(b) == 1024
    bound = kron_sum_eigenvalue_bound(len(b), lifted.weights)
    assert np.abs(w - eigvalsh(b.astype(complex))).max() <= bound
    assert np.abs(w - spectrum).max() <= bound


def test_lanczos_above_the_cap_matches_closed_form():
    # 64 x 64 diagonals give 128 x 128 operators and n = 16384, four times
    # the default cap; Lanczos runs on the matrix-free product directly, as
    # the dense fallback would need a 4 GB matrix.
    x, y = chained_bell(4)
    x_lift, y_lift, spectrum = lift(
        x, y, np.linspace(-1.0, 1.0, 64), np.linspace(1.0, 0.25, 64), seed=11
    )
    lifted = TensorSumInstance(x_lift, y_lift, np.ones(8))
    n = lifted.dim_h * lifted.dim_k
    assert n == 16384 > DEFAULT_DIM_CAP
    scale = float(np.sum(np.abs(lifted.weights)))
    run = lanczos_extremes(_tensor_sum_matvec(lifted), n, scale)
    tol = LANCZOS_TOL * scale
    assert run.method == "lanczos" and run.steps < LANCZOS_MAX_STEPS and run.residual <= tol
    assert run.lambda_min == pytest.approx(spectrum[0], rel=0, abs=tol)
    assert run.lambda_max == pytest.approx(spectrum[-1], rel=0, abs=tol)
