import json
import math
from pathlib import Path

import numpy as np
import pytest

from oracles import kron_sum_eigenvalue_bound
from tensorbound import build_report, exact_reference, load_instance, save_instance
from tensorbound.cli import bound_report_to_dict
from tensorbound.demos import build_demo, default_filename

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_FILES = sorted(GOLDEN_DIR.glob("*.json"))

TOL = 1e-9


def assert_matches(expected, actual, path=""):
    """Compare a golden subtree against the produced report: floats to
    TOL, everything else exactly; only keys pinned in the golden count."""
    if isinstance(expected, dict):
        for key, sub in expected.items():
            assert key in actual, f"{path}.{key} missing from report"
            assert_matches(sub, actual[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(expected) == len(actual), f"{path} length mismatch"
        for idx, (e, a) in enumerate(zip(expected, actual)):
            assert_matches(e, a, f"{path}[{idx}]")
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, abs=TOL), path
    else:
        assert expected == actual, path


@pytest.mark.parametrize("golden_path", GOLDEN_FILES, ids=lambda p: p.stem)
def test_demo_matches_golden(golden_path):
    golden = json.loads(golden_path.read_text())
    inst, graph = build_demo(golden["demo"], golden["m_arg"])
    report = bound_report_to_dict(build_report(inst, graph))
    assert_matches(golden["report"], report)


@pytest.mark.parametrize("golden_path", GOLDEN_FILES, ids=lambda p: p.stem)
def test_demo_round_trips_through_file(golden_path, tmp_path):
    golden = json.loads(golden_path.read_text())
    inst, graph = build_demo(golden["demo"], golden["m_arg"])
    path = tmp_path / default_filename(golden["demo"], golden["m_arg"])
    save_instance(path, inst, graph)
    loaded, loaded_graph = load_instance(path)
    report = bound_report_to_dict(build_report(loaded, loaded_graph))
    assert_matches(golden["report"], report)


@pytest.mark.parametrize("golden_path", GOLDEN_FILES, ids=lambda p: p.stem)
def test_real_path_matches_complex_path_and_closed_form(golden_path, monkeypatch):
    # every demo's B is real, though its operators are complex: it reaches
    # the real solver, whose spectrum agrees with the complex solver's on
    # the same B and with the golden's closed-form lambda_max and ||B||^2
    golden = json.loads(golden_path.read_text())
    inst, _ = build_demo(golden["demo"], golden["m_arg"])
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a.copy()) or eigvalsh(a))
    spec = exact_reference(inst)
    [b] = seen
    assert b.dtype == np.float64
    bound = kron_sum_eigenvalue_bound(len(b), inst.weights)
    assert np.abs(spec.eigenvalues - eigvalsh(b.astype(complex))).max() <= bound
    report = golden["report"]
    assert spec.lambda_max == pytest.approx(report["exact_lambda_max"], rel=0, abs=bound)
    norm = math.sqrt(report["exact_norm_squared"])
    assert spec.spectral_norm == pytest.approx(norm, rel=0, abs=bound)


def test_every_demo_has_a_golden():
    from tensorbound.demos import DEMO_NAMES

    covered = {json.loads(p.read_text())["demo"] for p in GOLDEN_FILES}
    assert covered == set(DEMO_NAMES)


def test_parametric_demo_requires_m():
    with pytest.raises(ValueError, match="needs a size"):
        build_demo("clifford")
    with pytest.raises(ValueError, match="does not take"):
        build_demo("chsh", 3)


def test_default_filenames():
    assert default_filename("chsh") == "demo-chsh.json"
    assert default_filename("heisenberg") == "demo-heisenberg.json"
    assert default_filename("counterexample") == "counterexample.json"
    assert default_filename("clifford", 4) == "demo-clifford-4.json"
