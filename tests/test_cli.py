"""End-to-end CLI tests (subprocess, real exit codes)."""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import brute_phi_breakdown, count_pairs_at_least
from tensorbound import (
    InteractionGraph,
    TensorSumInstance,
    bounds,
    cli,
    complete_graph,
    instance_to_dict,
    pauli,
    save_instance,
    sweep,
)
from tensorbound.demos import build_demo
from tensorbound.instance_io import matrix_to_json
from test_bounds import no_phi, small_weight_instance
from test_certificates import oracle_norm, scalar_instance
from test_render import RENDER_DIR


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, cwd=None):
    # the child imports tensorbound from this checkout's src/, installed or not
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "tensorbound", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def parse_kv(text):
    """Parse the aligned key/value lines of text reports."""
    out = {}
    for line in text.splitlines():
        if ":" in line and not line.startswith(" "):
            key, _, value = line.partition(":")
            out[key.strip()] = value.strip()
    return out


def instance_file(tmp_path, inst, **changes):
    """Write ``inst`` as an instance file, with top-level fields replaced."""
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({**instance_to_dict(inst), **changes}))
    return str(path)


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    """One directory with every canonical instance file written once."""
    path = tmp_path_factory.mktemp("demos")
    for spec in (
        ["demo", "chsh"],
        ["demo", "heisenberg"],
        ["demo", "two-spin"],
        ["demo", "counterexample"],
        ["demo", "clifford", "--m", "4"],
        ["demo", "star", "--m", "5"],
    ):
        proc = run_cli(*spec, "--dir", str(path))
        assert proc.returncode == 0, proc.stderr
    return path


class TestBound:
    def test_heisenberg_text(self, demo_dir):
        proc = run_cli("bound", str(demo_dir / "demo-heisenberg.json"))
        assert proc.returncode == 0
        values = parse_kv(proc.stdout)
        assert values["complete_bound"] == "9"
        assert values["exact_norm_squared"] == "9"

    def test_chsh_json(self, demo_dir):
        proc = run_cli(
            "bound", str(demo_dir / "demo-chsh.json"), "--output", "json"
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["complete_bound"] == pytest.approx(8.0, abs=1e-9)
        assert payload["exact_norm_squared"] == pytest.approx(8.0, abs=1e-9)
        assert payload["indexing"] == "1-based"
        assert payload["provenance"]["sparse_bound"].startswith("graph-restricted")

    def test_chsh_csv(self, demo_dir):
        proc = run_cli("bound", str(demo_dir / "demo-chsh.json"), "--output", "csv")
        assert proc.returncode == 0
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert len(rows) == 1
        assert float(rows[0]["complete_bound"]) == pytest.approx(8.0, abs=1e-9)
        assert rows[0]["sparse_bound"] == ""

    def test_counterexample_exits_one_with_violation(self, demo_dir):
        proc = run_cli("bound", str(demo_dir / "counterexample.json"))
        assert proc.returncode == 1
        assert "VIOLATED" in proc.stdout
        assert "non-edge (1,3): lhs 2  rhs 0" in proc.stdout
        assert proc.stderr == "error: edge domination fails, graph-restricted bound not proven\n"

    def test_isolated_vertex_with_domination_exits_one(self, tmp_path):
        # (1,3) and (2,3) have phi 0 against the zero operator, so domination
        # holds, but vertex 3 has no edge and C(G) is undefined
        ops = [pauli("z"), pauli("x"), np.zeros((2, 2))]
        path = tmp_path / "isolated.json"
        save_instance(path, TensorSumInstance(ops, ops), InteractionGraph(3, [(1, 2)]))
        proc = run_cli("bound", str(path))
        assert proc.returncode == 1
        assert "edge domination (weighted): satisfied" in proc.stdout
        assert proc.stderr == (
            "error: graph has an isolated vertex, connectivity factor undefined\n"
        )

    def test_counterexample_no_graph_passes(self, demo_dir):
        proc = run_cli("bound", str(demo_dir / "counterexample.json"), "--no-graph")
        assert proc.returncode == 0
        assert parse_kv(proc.stdout)["baseline_bound"] == "5"

    def test_external_graph_override(self, demo_dir, tmp_path):
        graph_file = tmp_path / "complete3.json"
        graph_file.write_text(json.dumps({"edges": [[0, 1], [0, 2], [1, 2]]}))
        proc = run_cli(
            "bound",
            str(demo_dir / "counterexample.json"),
            "--graph",
            str(graph_file),
            "--output",
            "json",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["graph_constant"] == 1.0
        assert payload["sparse_bound"] == pytest.approx(5.0, abs=1e-9)

    def test_missing_file_exits_three(self):
        proc = run_cli("bound", "no-such-file.json")
        assert proc.returncode == 3
        assert "error" in proc.stderr

    def test_invalid_instance_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": "tensorbound/1", "dim_h": 2}))
        proc = run_cli("bound", str(bad))
        assert proc.returncode == 1

    @pytest.mark.parametrize("where", ["entry", "weight"])
    def test_oversized_integer_exits_one(self, tmp_path, where):
        doc = json.loads(json.dumps(instance_to_dict(build_demo("chsh")[0])))
        if where == "entry":
            doc["y"][1][0][1][0] = 10**400
        else:
            doc["weights"][2] = -(10**400)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("bound", str(path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        expected = {"entry": "y[1][0][1]: entries must be finite",
                    "weight": "weights must be finite reals"}[where]
        assert line.startswith("error: ") and expected in line
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("where", ["instance", "graph"])
    def test_integer_past_the_digit_limit_names_the_file(self, demo_dir, tmp_path, where):
        # json.loads raises a plain ValueError, not JSONDecodeError, for an
        # integer literal longer than Python's 4300-digit conversion limit
        huge = "7" * 5001
        if where == "instance":
            path = tmp_path / "huge.json"
            doc = json.dumps(instance_to_dict(build_demo("chsh")[0]))
            path.write_text(doc.replace('"weights": [', f'"weights": [{huge}, ', 1))
            proc = run_cli("bound", str(path))
        else:
            path = tmp_path / "graph.json"
            path.write_text(f'{{"edges": [[0, {huge}]]}}')
            proc = run_cli("bound", str(demo_dir / "demo-chsh.json"), "--graph", str(path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("where", ["instance", "graph"])
    def test_file_not_utf8_names_the_file(self, demo_dir, tmp_path, where):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff{}")
        if where == "instance":
            proc = run_cli("bound", str(path))
        else:
            proc = run_cli("bound", str(demo_dir / "demo-chsh.json"), "--graph", str(path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line == (
            f"error: {path}: not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte"
        )

    def test_dim_cap_flag_disables_exact(self, demo_dir):
        proc = run_cli(
            "--dim-cap", "2",
            "bound", str(demo_dir / "demo-two-spin.json"),
            "--output", "json",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["exact_norm_squared"] is None
        assert payload["complete_bound"] == pytest.approx(4.0, abs=1e-9)


class TestBoundSelfCheck:
    def test_small_weight_violation_refuses_the_graph_bound(self, tmp_path):
        inst, graph = small_weight_instance(1e-7)
        path = tmp_path / "small.json"
        save_instance(path, inst, graph)
        proc = run_cli("bound", str(path), "--output", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["sparse_bound"] is None
        assert [c["pair"] for c in payload["domination"]["violations"]] == [[1, 4]]
        assert proc.stderr == "error: edge domination fails, graph-restricted bound not proven\n"
        proc = run_cli("check-domination", str(path))
        assert proc.returncode == 1
        assert "non-edge (1,4)" in proc.stdout
        assert "[violated]" in proc.stdout.split("non-edge (1,4)")[1].splitlines()[0]

    def test_too_small_sparse_bound_is_reported(self, demo_dir, monkeypatch, capsys):
        real = cli.build_report

        def shrunk(*args, **kwargs):
            report = real(*args, **kwargs)
            return dataclasses.replace(report, sparse_bound=report.exact_norm_squared / 2)

        monkeypatch.setattr(cli, "build_report", shrunk)
        code = cli.main(["bound", str(demo_dir / "demo-star-5.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "exceeds the sparse bound 12.5" in err
        assert "complete bound" not in err

    def test_half_bounds_at_small_weights_are_reported(self, tmp_path, monkeypatch, capsys):
        inst, graph = build_demo("star", 5)
        path = tmp_path / "star-small.json"
        save_instance(path, TensorSumInstance(inst.x, inst.y, inst.weights * 1e-5), graph)
        real = cli.build_report

        def halved(*args, **kwargs):
            report = real(*args, **kwargs)
            half = report.exact_norm_squared / 2
            return dataclasses.replace(report, complete_bound=half, sparse_bound=half)

        monkeypatch.setattr(cli, "build_report", halved)
        assert cli.main(["bound", str(path)]) == 1
        err = capsys.readouterr().err
        assert "exceeds the complete bound" in err
        assert "exceeds the sparse bound" in err

    def test_demo_runs_the_same_self_check(self, tmp_path, monkeypatch, capsys):
        real = cli.build_report

        def below_exact(*args, **kwargs):
            report = real(*args, **kwargs)
            return dataclasses.replace(report, complete_bound=report.exact_norm_squared / 2)

        monkeypatch.setattr(cli, "build_report", below_exact)
        assert cli.main(["demo", "chsh", "--dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "exceeds the complete bound" in err and "this indicates a bug" in err


class TestExact:
    def test_two_spin_spectrum(self, demo_dir):
        proc = run_cli(
            "exact", str(demo_dir / "demo-two-spin.json"), "--output", "json"
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["spectral_norm"] == pytest.approx(2.0, abs=1e-9)
        assert payload["eigenvalues"] == pytest.approx([-2, 0, 0, 2], abs=1e-9)

    def test_over_cap_exits_one(self, demo_dir):
        proc = run_cli("--dim-cap", "2", "exact", str(demo_dir / "demo-two-spin.json"))
        assert proc.returncode == 1
        assert "cap" in proc.stderr

    @pytest.mark.parametrize("command", ["bound", "exact", "certify"])
    def test_terms_at_the_hermiticity_tolerance_are_accepted(self, tmp_path, command):
        # the file holds the raw operator: an instance would store its Hermitian part, Z
        a = pauli("z") + 4.5e-11j * pauli("x")
        raw = [matrix_to_json(a)]
        path = instance_file(tmp_path, TensorSumInstance([a], [a]), x=raw, y=raw)
        assert json.loads(Path(path).read_text())["x"] == raw
        proc = run_cli(command, path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


class TestCheckDomination:
    def test_violated_exits_one(self, demo_dir):
        proc = run_cli("check-domination", str(demo_dir / "counterexample.json"))
        assert proc.returncode == 1
        assert "VIOLATED" in proc.stdout

    def test_satisfied_exits_zero(self, demo_dir):
        proc = run_cli(
            "check-domination", str(demo_dir / "demo-star-5.json"), "--output", "json"
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["satisfied"] is True
        assert payload["weighted"] is True

    def test_unweighted_flag(self, demo_dir):
        proc = run_cli(
            "check-domination",
            str(demo_dir / "demo-star-5.json"),
            "--unweighted",
            "--output",
            "json",
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["weighted"] is False

    def test_requires_graph(self, demo_dir):
        proc = run_cli("check-domination", str(demo_dir / "demo-chsh.json"))
        assert proc.returncode == 2

    def test_complete_graph_needs_no_phi(self, tmp_path, monkeypatch, capsys):
        # no non-edge: check-domination and certify verify domination vacuously
        inst, _ = build_demo("heisenberg")
        path = str(tmp_path / "complete.json")
        save_instance(path, inst, complete_graph(inst.m))
        monkeypatch.setattr(bounds, "phi_table", no_phi)
        assert cli.main(["check-domination", path]) == 0
        assert "satisfied (0 non-edge(s) checked)" in capsys.readouterr().out
        assert cli.main(["certify", path, "--beta", "2.5"]) == 0
        assert parse_kv(capsys.readouterr().out)["domination"] == "verified"


class TestCertify:
    def test_chsh_weights_and_threshold(self):
        proc = run_cli(
            "certify",
            "--weights", "1,1,1,1",
            "--beta", "2.8284271",
            "--threshold", "2",
            "--output", "json",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["excess"] == pytest.approx(4.0, abs=1e-5)
        (counting,) = payload["counting"]
        # weights alone force no pair: four scalar terms with a = 0.99
        # reach ||B|| = 3.9204 >= beta with every pair's mass 1.921 < 2
        assert counting["pairs"] == 0
        witness = scalar_instance(4, 0.99)
        assert oracle_norm(witness) >= 2.8284271
        brute = brute_phi_breakdown(witness.x, witness.y)
        assert count_pairs_at_least(brute, witness.weights, 2.0) == 0

    def test_trivial_beta_all_zero(self):
        proc = run_cli(
            "certify", "--weights", "1,1", "--beta", "1", "--threshold", "0.5",
            "--output", "json",
        )
        payload = json.loads(proc.stdout)
        assert payload["excess"] == 0.0
        assert payload["counting"][0]["pairs"] == 0

    def test_heisenberg_instance_with_beta(self, demo_dir):
        proc = run_cli(
            "certify",
            str(demo_dir / "demo-heisenberg.json"),
            "--beta", "3",
            "--threshold", "2",
            "--output", "json",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["beta_source"] == "supplied"
        assert payload["counting"][0]["pairs"] == 3

    def test_instance_computes_beta_when_omitted(self, demo_dir):
        proc = run_cli(
            "certify", str(demo_dir / "demo-chsh.json"), "--output", "json"
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["beta_source"] == "computed"
        assert payload["beta"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    def test_phi_threshold_variant(self):
        proc = run_cli(
            "certify",
            "--weights", "1,1,1,1",
            "--beta", "2.8284271",
            "--phi-threshold", "2",
            "--output", "json",
        )
        payload = json.loads(proc.stdout)
        # no pair is forced to phi >= 2, by the same scalar witness
        assert payload["phi_threshold_variant"]["pairs"] == 0
        witness = scalar_instance(4, 0.99)
        assert oracle_norm(witness) >= 2.8284271
        brute = brute_phi_breakdown(witness.x, witness.y)
        assert sum(1 for phi in brute.values() if phi >= 2.0) == 0

    def test_bad_threshold_exits_one(self):
        proc = run_cli(
            "certify", "--weights", "1,1", "--beta", "2", "--threshold", "-1"
        )
        assert proc.returncode == 1
        assert "positive" in proc.stderr

    @pytest.mark.parametrize(
        "flags",
        [("-t", "nan"), ("--phi-threshold", "nan"), ("-t", "0.5", "--phi-threshold", "nan")],
    )
    def test_nan_threshold_exits_one(self, flags):
        proc = run_cli("certify", "--weights", "1,1,1", "--beta", "2.5", *flags)
        assert proc.returncode == 1
        assert "must be positive and finite, got nan" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "flags", [("--weights=-1,1", "--beta", "2"), ("--weights", "1,1", "--beta=-2e0")]
    )
    def test_negative_values_in_name_value_form(self, flags):
        proc = run_cli("certify", *flags)
        assert proc.returncode == 0, proc.stderr
        assert parse_kv(proc.stdout)["excess"] == "2"
        # the space form reads the value as an option, as the --help text warns
        spaced = [part for flag in flags for part in flag.split("=")]
        assert run_cli("certify", *spaced).returncode == 2

    def test_usage_errors_exit_two(self, demo_dir):
        assert run_cli("certify", "--beta", "2").returncode == 2
        assert (
            run_cli(
                "certify", str(demo_dir / "demo-chsh.json"), "--weights", "1,1"
            ).returncode
            == 2
        )
        for args, message in (
            (("--weights", "1,1"), "error: --beta is required with --weights\n"),
            (
                ("--weights", "1,a", "--beta", "2"),
                "error: argument --weights: cannot parse weights from '1,a'\n",
            ),
            (
                ("--weights", "1,1", "--beta", "2", "--phi-threshold", "1", "--c-max", "1"),
                "error: unrecognized arguments: --c-max\n",  # the optional instance takes the 1
            ),
        ):
            proc = run_cli("certify", *args)
            assert proc.returncode == 2
            assert proc.stderr.endswith(message)

    def test_weights_with_graph_is_asserted(self, tmp_path):
        graph_file = tmp_path / "g.json"
        graph_file.write_text(json.dumps({"edges": [[0, 1], [1, 2]]}))
        proc = run_cli(
            "certify",
            "--weights", "1,1,1",
            "--beta", "2",
            "--graph", str(graph_file),
            "--output", "json",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["domination"] == "asserted, not verified"
        assert payload["graph_constant"] == 3.0

    def test_edge_cap_four_products_line(self, tmp_path):
        graph_file = tmp_path / "complete3.json"
        graph_file.write_text(json.dumps({"edges": [[0, 1], [0, 2], [1, 2]]}))
        proc = run_cli(
            "certify", "--weights", "1,1,1", "--beta", repr(math.sqrt(8.5)),
            "--graph", str(graph_file), "-t", "1",
        )
        assert proc.returncode == 0
        assert (
            "threshold 1: pairs >= 3 (excess/t 5.5), edges >= 1 (excess/(C(G) t) 5.5)"
            in proc.stdout.splitlines()
        )

    def test_graph_and_no_graph_conflict_on_both_paths(self, demo_dir, tmp_path):
        graph_file = tmp_path / "g.json"
        graph_file.write_text(json.dumps({"edges": [[0, 1], [1, 2]]}))
        both = ("--graph", str(graph_file), "--no-graph")
        for source in (("--weights", "1,1,1"), (str(demo_dir / "counterexample.json"),)):
            proc = run_cli("certify", *source, "--beta", "2.5", *both)
            assert proc.returncode == 2
            assert "not allowed with argument" in proc.stderr

    def test_instance_with_violating_graph_exits_one(self, demo_dir):
        # the report's text on stdout, its worst violation on stderr, whatever beta is
        stdout = (RENDER_DIR / "counterexample.certify.txt").read_text(encoding="utf-8")
        for beta in ((), ("--beta", "2")):
            proc = run_cli("certify", str(demo_dir / "counterexample.json"), *beta)
            assert proc.returncode == 1
            assert proc.stdout == stdout
            assert proc.stderr == (
                "error: edge domination fails at 1 non-edge(s); "
                "worst at pair (1, 3): lhs 2 > rhs 0\n"
            )


class TestOutsideNumbers:
    """Finite inputs whose derived values overflow end in a named error and
    exit 1: no traceback, and no inf, nan or Infinity on stdout."""

    @pytest.mark.parametrize(
        "args",
        [
            ("certify", "--weights", "1,1", "--beta", "1e200"),
            ("certify", "--weights", "1e5,1", "--beta", "2", "--phi-threshold", "1e300"),
            ("certify", "--weights", "1e200,1", "--beta", "2"),
            ("certify", "--weights", "1e5,1e5", "--beta", "2", "--phi-threshold", "1e300",
             "--output", "json"),
            ("certify", "--weights", "1,1", "--beta", "2", "-t", "1e-320"),
            ("certify", "--weights", "1,1", "--beta", "2", "-t", "inf", "--output", "json"),
            ("bound", "WEIGHTS_FILE"),
            ("certify", "WEIGHTS_FILE"),
            ("certify", "WEIGHTS_FILE", "--beta", "2"),
            ("exact", "WEIGHTS_FILE"),
            ("certify", "--weights", "0,0", "--beta", "2", "--phi-threshold", "1"),
            ("certify", "--weights", "1e-200,1e-200", "--beta", "2", "--phi-threshold", "1"),
        ],
    )
    def test_refused_by_name(self, tmp_path, args):
        path = instance_file(tmp_path, build_demo("two-spin")[0], weights=[1e200, 1.0])
        proc = run_cli(*(path if a == "WEIGHTS_FILE" else a for a in args))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")
        assert not any(word in proc.stdout.lower() for word in ("inf", "nan"))

    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_operator_entries_whose_gram_product_overflows(self, demo_dir, tmp_path, where):
        # finite entries whose a* a overflows: one named error line, no numpy warning
        doc = json.loads((demo_dir / "demo-star-5.json").read_text())
        doc["x"][0][where[0]][where[1]] = [1e200, 0.0]
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("bound", str(path))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            "error: x operator 1 of 5: entries too large: "
            "||a||_F^2 or ||a - a*||_F^2 overflows\n"
        )

    def test_infinite_threshold_in_text_certifies_no_pair(self):
        # refused in text as under --output json: no report holds an inf
        proc = run_cli("certify", "--weights", "1,1", "--beta", "2", "-t", "inf")
        assert proc.returncode == 1
        assert proc.stderr == "error: threshold must be positive and finite, got inf\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "flags",
        [("-t", "inf"), ("--threshold=-inf",), ("--phi-threshold", "inf"), ("--phi-threshold=-inf",)],
    )
    def test_formats_agree_on_refused_certificate_input(self, flags):
        args = ("certify", "--weights", "1,1", "--beta", "2", *flags)
        text, as_json = run_cli(*args), run_cli(*args, "--output", "json")
        assert text.returncode == as_json.returncode == 1
        assert text.stdout == as_json.stdout == ""
        assert text.stderr == as_json.stderr


class TestDemo:
    def test_writes_file_and_reports(self, tmp_path):
        proc = run_cli("demo", "clifford", "--m", "3", "--dir", str(tmp_path))
        assert proc.returncode == 0
        assert (tmp_path / "demo-clifford-3.json").exists()
        assert "wrote" in proc.stderr
        assert parse_kv(proc.stdout)["complete_bound"] == "9"

    def test_counterexample_demo_exits_zero(self, tmp_path):
        proc = run_cli("demo", "counterexample", "--dir", str(tmp_path))
        assert proc.returncode == 0
        assert "VIOLATED" in proc.stdout

    def test_m_flag_usage_errors(self, tmp_path):
        assert run_cli("demo", "clifford", "--dir", str(tmp_path)).returncode == 2
        assert (
            run_cli("demo", "chsh", "--m", "3", "--dir", str(tmp_path)).returncode == 2
        )

    def test_unknown_demo_rejected(self):
        assert run_cli("demo", "nonsense").returncode == 2


class TestSweep:
    def test_small_sweep_passes(self):
        proc = run_cli("sweep", "--trials", "25", "--seed", "9")
        assert proc.returncode == 0
        assert parse_kv(proc.stdout)["violations"] == "0"

    def test_deterministic_output(self):
        args = ("sweep", "--trials", "25", "--seed", "123", "--output", "json")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_csv_has_one_row_per_trial(self):
        proc = run_cli("sweep", "--trials", "12", "--seed", "4", "--output", "csv")
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert len(rows) == 12
        assert all(int(r["violations"]) == 0 for r in rows)

    def test_text_leaves_a_missing_ratio_blank(self):
        # one trial that fails domination: no sparse ratio, printed as padding only
        proc = run_cli("sweep", "--trials", "1", "--seed", "0")
        assert proc.returncode == 0
        assert "domination_satisfied_trials: 0" in proc.stdout.splitlines()
        assert "max_sparse_ratio:            " in proc.stdout.splitlines()

    def test_max_m_below_two_exits_one(self):
        proc = run_cli("sweep", "--trials", "2", "--max-m", "1")
        assert proc.returncode == 1
        assert proc.stderr == "error: max_m must be at least 2\n"

    def test_bad_kind_exits_one(self):
        proc = run_cli("sweep", "--trials", "2", "--kinds", "haar")
        assert proc.returncode == 1

    def test_violations_exit_four(self, monkeypatch, capsys):
        # a complete bound halved below the exact value makes every trial
        # report a violation, exercising the dedicated exit code
        real = sweep.build_report

        def halved(*args, **kwargs):
            report = real(*args, **kwargs)
            return dataclasses.replace(report, complete_bound=report.exact_norm_squared / 2)

        monkeypatch.setattr(sweep, "build_report", halved)
        assert cli.main(["sweep", "--trials", "3", "--seed", "2"]) == 4
        assert "exceeds complete bound" in capsys.readouterr().out


class TestRepeatedMain:
    """main builds its parser once per process; a second call must not see
    anything of the first."""

    @pytest.mark.parametrize(
        "first, second",
        [
            (
                ("sweep", "--trials", "2", "--max-m", "3", "--output", "json"),
                ("sweep", "--trials", "2", "--output", "json"),
            ),
            (("bound", "{star}", "--no-graph"), ("bound", "{star}")),
        ],
        ids=["sweep", "bound"],
    )
    def test_second_call_equals_a_fresh_process(self, demo_dir, capsys, first, second):
        star = str(demo_dir / "demo-star-5.json")
        first, second = ([a.format(star=star) for a in argv] for argv in (first, second))
        cli.main(first)
        capsys.readouterr()
        code = cli.main(second)
        alone = run_cli(*second)
        assert (code, capsys.readouterr().out) == (alone.returncode, alone.stdout)

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()


def long_options(parser):
    return {s for a in parser._actions for s in a.option_strings if s.startswith("--")} - {"--help"}


def test_option_inventory():
    # every knob added or removed shows up here as an edit
    parser = cli.build_parser()
    (commands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    graph, output = {"--graph", "--no-graph"}, {"--output"}
    assert long_options(parser) == {"--tol", "--dim-cap"}
    assert {name: long_options(p) for name, p in commands.items()} == {
        "bound": graph | output,
        "exact": output,
        "check-domination": graph | output | {"--unweighted"},
        "certify": graph | output | {"--weights", "--beta", "--threshold", "--phi-threshold"},
        "demo": output | {"--m", "--dir"},
        "sweep": output | {"--trials", "--seed", "--max-m", "--max-dim", "--kinds", "--graph-mode"},
    }


class TestTolerance:
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "-1e-300"])
    def test_non_finite_or_negative_tol_is_a_usage_error(self, tmp_path, tol):
        # rejected before any work: the demo writes no file
        proc = run_cli(f"--tol={tol}", "demo", "chsh", "--dir", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "argument --tol: must be finite and non-negative" in proc.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [["bound", "INSTANCE"], ["sweep", "--trials", "2"]])
    def test_nan_tol_rejected_on_bound_and_sweep(self, demo_dir, command):
        argv = [str(demo_dir / "demo-chsh.json") if a == "INSTANCE" else a for a in command]
        proc = run_cli("--tol", "nan", *argv)
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_zero_tol_accepted(self, demo_dir):
        proc = run_cli("--tol", "0", "bound", str(demo_dir / "demo-chsh.json"))
        assert proc.returncode == 0


class TestDimCap:
    @pytest.mark.parametrize("cap", ["0", "-5"])
    @pytest.mark.parametrize(
        "command",
        [["bound", "INSTANCE"], ["sweep", "--trials", "2"], ["demo", "chsh", "--dir", "OUT"]],
        ids=["bound", "sweep", "demo"],
    )
    def test_cap_below_one_is_a_usage_error(self, demo_dir, tmp_path, cap, command):
        # rejected before any work: the demo writes no file
        subs = {"INSTANCE": str(demo_dir / "demo-chsh.json"), "OUT": str(tmp_path)}
        proc = run_cli("--dim-cap", cap, *[subs.get(a, a) for a in command])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"argument --dim-cap: must be at least 1, got {cap}" in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_cap_one_accepted(self, demo_dir):
        proc = run_cli(
            "--dim-cap", "1", "bound", str(demo_dir / "demo-chsh.json"), "--output", "json"
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["exact_norm_squared"] is None
