"""Instances whose spectrum is known in closed form: ground truth for the
exact path that does not come from a second eigensolver."""

import math

import numpy as np
import pytest

from oracles import chained_bell
from tensorbound import TensorSumInstance, build_report, exact_reference, extreme_spectrum

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
