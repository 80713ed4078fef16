"""Matrix-free Lanczos extremes against the dense path and the SVD oracle."""

import json
import tracemalloc

import numpy as np
import pytest

from oracles import svd_norm
from tensorbound import (
    ExtremeSpectrum,
    TensorSumInstance,
    build_report,
    exact_reference,
    extreme_spectrum,
    lanczos_extremes,
    random_operator,
    save_instance,
)
from tensorbound import bounds, linalg
from tensorbound.cli import main
from tensorbound.demos import build_demo
from tensorbound.linalg import LANCZOS_TOL


def random_instance(seed, m, dim_h, dim_k, weights=None):
    rng = np.random.default_rng(seed)
    kinds = ("contraction", "unitary_involution")

    def draw(dim):
        kind = kinds[int(rng.integers(0, 2))]
        return random_operator(kind, dim, [int(rng.integers(0, 2**63))])[0]

    x = [draw(dim_h) for _ in range(m)]
    y = [draw(dim_k) for _ in range(m)]
    if weights is None:
        weights = rng.uniform(-2, 2, m)
    return TensorSumInstance(x, y, weights)


def psd_contraction(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    p = g @ g.conj().T
    return p / np.linalg.eigvalsh(p)[-1]


def assembled(inst):
    """B_c from np.kron directly, independent of the library's assembly."""
    return sum(c * np.kron(x, y) for c, x, y in zip(inst.weights, inst.x, inst.y))


def tolerance(inst):
    return LANCZOS_TOL * max(1.0, float(np.sum(np.abs(inst.weights))))


def assert_agrees_with_dense(inst, spec):
    dense = exact_reference(inst)
    tol = tolerance(inst)
    assert spec.lambda_min == pytest.approx(dense.lambda_min, abs=tol)
    assert spec.lambda_max == pytest.approx(dense.lambda_max, abs=tol)
    assert spec.spectral_norm == pytest.approx(dense.spectral_norm, abs=tol)
    assert spec.spectral_norm == pytest.approx(svd_norm(assembled(inst)), abs=tol)


@pytest.mark.parametrize(
    "seed, m, dim_h, dim_k",
    [(0, 5, 16, 17), (1, 10, 16, 17), (2, 3, 17, 16), (3, 6, 32, 32)],
)
def test_random_instances_match_dense_and_svd(seed, m, dim_h, dim_k):
    inst = random_instance(seed, m, dim_h, dim_k)
    spec = extreme_spectrum(inst)
    assert spec.method == "lanczos"
    assert spec.residual <= tolerance(inst)
    assert 1 <= spec.steps <= linalg.LANCZOS_MAX_STEPS
    assert_agrees_with_dense(inst, spec)


@pytest.mark.parametrize("name", ["star", "chain"])
def test_degenerate_demo_spectrum_stops_at_breakdown(name):
    inst, _ = build_demo(name, 10)
    spec = extreme_spectrum(inst)
    assert inst.dim_h * inst.dim_k == 1024
    assert spec.method == "lanczos"
    # Few distinct eigenvalues: the Krylov space closes long before the
    # first convergence check could pass on a generic spectrum.
    assert spec.steps < 20
    assert_agrees_with_dense(inst, spec)


def test_zero_weights_give_zero_operator():
    inst = random_instance(4, 3, 16, 17, weights=np.zeros(3))
    spec = extreme_spectrum(inst)
    assert spec.method == "lanczos"
    assert spec.steps == 1
    assert (spec.lambda_min, spec.lambda_max, spec.spectral_norm) == (0.0, 0.0, 0.0)


def test_single_term():
    inst = random_instance(5, 1, 16, 17, weights=[-1.5])
    spec = extreme_spectrum(inst)
    assert spec.method == "lanczos"
    assert_agrees_with_dense(inst, spec)


def test_norm_from_lambda_min_when_it_dominates():
    rng = np.random.default_rng(6)
    m = 4
    x = [psd_contraction(rng, 16) for _ in range(m)]
    y = [psd_contraction(rng, 17) for _ in range(m)]
    inst = TensorSumInstance(x, y, -rng.uniform(0.5, 1.5, m))
    spec = extreme_spectrum(inst)
    assert spec.method == "lanczos"
    assert abs(spec.lambda_min) > spec.lambda_max
    assert spec.spectral_norm == -spec.lambda_min
    assert_agrees_with_dense(inst, spec)


def test_repeat_calls_are_bit_identical():
    inst = random_instance(7, 5, 16, 17)
    assert extreme_spectrum(inst) == extreme_spectrum(inst)


def test_unconverged_lanczos_falls_back_to_dense(monkeypatch):
    inst = random_instance(8, 5, 16, 17)
    monkeypatch.setattr(linalg, "LANCZOS_MAX_STEPS", 2)
    spec = extreme_spectrum(inst)
    dense = exact_reference(inst)
    assert spec.method == "dense-fallback"
    assert spec.steps == 2
    assert spec.residual > tolerance(inst)
    assert (spec.lambda_min, spec.lambda_max) == (dense.lambda_min, dense.lambda_max)
    note = dict(build_report(inst).provenance)["exact_norm_squared"]
    assert "dense eigvalsh after Lanczos missed its tolerance: 2 Lanczos steps" in note


def test_acceptance_is_the_explicit_residual_at_tolerance(monkeypatch):
    # a run is taken as it is up to residual == LANCZOS_TOL * scale
    # inclusive, whatever stopped it; one float above, dense runs instead
    inst = random_instance(12, 4, 16, 17)
    tol = tolerance(inst)
    dense = exact_reference(inst)
    for residual, method in ((tol, "lanczos"), (np.nextafter(tol, np.inf), "dense-fallback")):
        run = ExtremeSpectrum(-1.0, 1.0, 1.0, "lanczos", 7, residual)
        monkeypatch.setattr(bounds, "lanczos_extremes", lambda matvec, n, scale: run)
        spec = extreme_spectrum(inst)
        assert spec.method == method
        if method == "lanczos":
            assert spec is run
        else:
            assert spec == ExtremeSpectrum(
                dense.lambda_min, dense.lambda_max, dense.spectral_norm, method, 7, residual
            )
            # the fallback keeps the dense spectrum
            assert spec.eigenvalues.tobytes() == dense.eigenvalues.tobytes()


def test_small_products_stay_dense():
    inst = random_instance(9, 4, 16, 16)
    spec = extreme_spectrum(inst)
    dense = exact_reference(inst)
    assert (spec.method, spec.steps, spec.residual) == ("dense", None, None)
    assert (spec.lambda_min, spec.lambda_max) == (dense.lambda_min, dense.lambda_max)
    assert spec.eigenvalues.tobytes() == dense.eigenvalues.tobytes()


def test_eigenvalues_are_ignored_by_equality_hash_and_repr():
    bare = ExtremeSpectrum(-2.0, 2.0, 2.0, "dense")
    full = ExtremeSpectrum(-2.0, 2.0, 2.0, "dense", eigenvalues=np.array([-2.0, 0.0, 2.0]))
    assert bare == full
    assert hash(bare) == hash(full)
    assert repr(bare) == repr(full)


def test_generic_solver_on_known_diagonal():
    d = np.linspace(-3.0, 2.0, 40)
    run = lanczos_extremes(lambda v: d * v, 40, 3.0)
    assert run.method == "lanczos"
    assert run.lambda_min == pytest.approx(-3.0, abs=3 * LANCZOS_TOL)
    assert run.lambda_max == pytest.approx(2.0, abs=3 * LANCZOS_TOL)
    assert run.residual <= 3 * LANCZOS_TOL


def test_basis_is_allocated_once():
    # an evenly spaced spectrum keeps Lanczos running to the step cap; a
    # basis grown by copies would hold its old and new rows at once
    n = 4096
    d = np.linspace(-1.0, 1.0, n)
    tracemalloc.start()
    try:
        run = lanczos_extremes(lambda v: d * v, n, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.steps > 160
    assert peak < (linalg.LANCZOS_MAX_STEPS + 100) * n * 16


class TestProvenance:
    def test_lanczos_names_steps_and_residual(self):
        inst = random_instance(10, 4, 16, 17)
        spec = extreme_spectrum(inst)
        note = dict(build_report(inst).provenance)["exact_norm_squared"]
        assert note == (
            "squared spectral norm of the tensor sum (matrix-free: "
            f"{spec.steps} Lanczos steps, explicit residual {spec.residual:.1e}, "
            f"tolerance {LANCZOS_TOL:g} * max(1, sum |c_i|))"
        )

    def test_dense(self):
        inst, _ = build_demo("two-spin")
        note = dict(build_report(inst).provenance)["exact_norm_squared"]
        assert note == "squared spectral norm of the assembled tensor sum (dense eigvalsh)"

    def test_skipped_above_cap_says_why(self):
        inst, _ = build_demo("two-spin")
        report = build_report(inst, dim_cap=2)
        assert report.exact_norm_squared is None
        assert dict(report.provenance)["exact_norm_squared"] == (
            "not computed: product dimension 4 exceeds dim-cap 2"
        )


class TestCapUnchanged:
    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(path, random_instance(11, 3, 16, 17))
        return path

    def test_extreme_spectrum_refuses_above_cap(self):
        with pytest.raises(ValueError, match="16\\*17 = 272 exceeds the cap 256"):
            extreme_spectrum(random_instance(11, 3, 16, 17), dim_cap=256)

    def test_bound_above_cap_omits_exact(self, path, capsys):
        assert main(["--dim-cap", "256", "bound", str(path), "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact_norm_squared"] is None
        assert payload["exact_lambda_max"] is None
        assert payload["provenance"]["exact_norm_squared"] == (
            "not computed: product dimension 272 exceeds dim-cap 256"
        )

    def test_certify_without_beta_above_cap_refuses(self, path, capsys):
        assert main(["--dim-cap", "256", "certify", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error: tensor product dimension 16*17 = 272 exceeds the cap 256" in err

    def test_certify_computes_beta_under_cap(self, path, capsys):
        assert main(["certify", str(path), "--output", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        inst = random_instance(11, 3, 16, 17)
        assert payload["beta_source"] == "computed"
        assert payload["beta"] == pytest.approx(
            exact_reference(inst).lambda_max, abs=tolerance(inst)
        )


class TestTridiagonalSolves:
    """A run that stops at a convergence check keeps that check's
    decomposition; only a stop at an invariant subspace, where no check
    ran, decomposes the tridiagonal matrix once more."""

    def recorded_run(self, monkeypatch, d):
        solves, vectors = [], []
        solve = linalg._tridiagonal_eigh

        def recorded_solve(alphas, betas):
            solves.append((list(alphas), list(betas)))
            return solve(alphas, betas)

        def matvec(v):
            vectors.append(v.copy())
            return d * v

        monkeypatch.setattr(linalg, "_tridiagonal_eigh", recorded_solve)
        run = lanczos_extremes(matvec, d.size, 3.0)
        return run, solves, vectors

    def assert_result_of_final_matrix(self, run, solves, vectors, d):
        # the result is a fresh decomposition of the full final matrix,
        # with the residual recomputed from the Ritz vectors as before
        alphas, betas = solves[-1]
        assert (len(alphas), len(betas)) == (run.steps, run.steps - 1)
        theta, s = linalg._tridiagonal_eigh(alphas, betas)
        basis = np.array(vectors[: run.steps])
        residual = 0.0
        for j in (0, -1):
            ritz = basis.T @ s[:, j]
            residual = max(residual, float(np.linalg.norm(d * ritz - theta[j] * ritz)))
        lo, hi = float(theta[0]), float(theta[-1])
        assert run == ExtremeSpectrum(lo, hi, max(abs(lo), abs(hi)), "lanczos", run.steps, residual)

    def test_stop_at_a_check_decomposes_once_per_check(self, monkeypatch):
        d = np.concatenate([[-3.0], np.linspace(-1.0, 1.0, 398), [2.0]])
        run, solves, vectors = self.recorded_run(monkeypatch, d)
        assert run.residual <= LANCZOS_TOL * 3.0
        assert run.steps % linalg._LANCZOS_CHECK_EVERY == 0
        assert run.steps < linalg.LANCZOS_MAX_STEPS
        checks = run.steps // linalg._LANCZOS_CHECK_EVERY
        assert [len(a) for a, _ in solves] == [
            k * linalg._LANCZOS_CHECK_EVERY for k in range(1, checks + 1)
        ]
        self.assert_result_of_final_matrix(run, solves, vectors, d)

    def test_invariant_subspace_stop_decomposes_once(self, monkeypatch):
        d = np.repeat([-1.0, 0.5, 2.0], 20)
        run, solves, vectors = self.recorded_run(monkeypatch, d)
        assert run.residual <= LANCZOS_TOL * 3.0
        assert run.steps == 3
        assert len(solves) == 1
        self.assert_result_of_final_matrix(run, solves, vectors, d)
