"""Byte-for-byte pins of the text, JSON and CSV renderings.

For every golden demo, ``tests/golden/render`` holds the stdout of
``demo`` (text and JSON), of ``bound`` (text, JSON and CSV, with the
embedded graph and with ``--no-graph``), of ``exact`` (text and JSON) and
of ``certify`` (computed beta in text and JSON, and a supplied beta with
thresholds and the phi-threshold variant) on the instance file the demo
writes; for the goldens whose demo embeds a graph, also of
``check-domination`` (text, JSON and ``--unweighted``). They are named
``<golden stem>.<case>.<txt|csv>``. The ``complete-*`` cases run
``check-domination`` (text, JSON and ``--unweighted``) and
``certify --beta 2.5`` (text and JSON) on the ``heisenberg`` demo with
``--graph`` naming a complete-graph file: a graph with no non-edge.
Beside them, ``sweep.<txt|csv>`` and
``sweep-json.txt`` pin ``sweep --trials 20 --seed 42``. The three gate
sweeps are pinned the same way: ``gate-sweep`` pins ``sweep --trials 500
--seed 42``, ``gate-sweep-complete`` the same with ``--graph-mode
complete``, and ``gate-sweep-m9-dim5`` the same with ``--max-m 9
--max-dim 5``, each as ``<name>.txt``, ``<name>-json.txt`` and
``<name>-csv.csv``. Finally,
``chsh.instance-file.txt`` pins the instance file ``demo chsh --dir``
writes, so a change of its layout fails a test. No pin is
``*.json`` (JSON renderings are stored as ``.txt``) so that nothing
globbing the report goldens picks them up.

The pinned values depend on the LAPACK build numpy uses; CSV cells carry full
precision. To regenerate after an intended output change, run
``PYTHONPATH=src:tests python tests/test_render.py``."""

import json
from pathlib import Path

import pytest

from tensorbound import cli, complete_graph
from tensorbound.instance_io import graph_to_json

GOLDEN_DIR = Path(__file__).parent / "golden"
RENDER_DIR = GOLDEN_DIR / "render"
STEMS = sorted(p.stem for p in GOLDEN_DIR.glob("*.json"))

SWEEP_ARGS = ("--trials", "20", "--seed", "42")
GATE_SWEEP_ARGS = ("--trials", "500", "--seed", "42")
# ``render`` writes the complete graph on the demo's m to COMPLETE_FILE
COMPLETE_FILE = "complete-graph.json"
COMPLETE_ARGS = ("--graph", COMPLETE_FILE)
COMPLETE_STEM = "heisenberg"


def _sweep_cases(name: str, args: tuple) -> dict:
    """A sweep's text, JSON and CSV cases, named ``name``, ``name-json``
    and ``name-csv``."""
    return {
        name: ("sweep", args, "txt"),
        f"{name}-json": ("sweep", (*args, "--output", "json"), "txt"),
        f"{name}-csv": ("sweep", (*args, "--output", "csv"), "csv"),
    }


# case name -> (command, extra arguments, file suffix)
CASES = {
    "demo": ("demo", (), "txt"),
    "demo-json": ("demo", ("--output", "json"), "txt"),
    "bound": ("bound", (), "txt"),
    "bound-json": ("bound", ("--output", "json"), "txt"),
    "bound-csv": ("bound", ("--output", "csv"), "csv"),
    "bound-no-graph": ("bound", ("--no-graph",), "txt"),
    "bound-no-graph-csv": ("bound", ("--no-graph", "--output", "csv"), "csv"),
    "exact": ("exact", (), "txt"),
    "exact-json": ("exact", ("--output", "json"), "txt"),
    "check-domination": ("check-domination", (), "txt"),
    "check-domination-json": ("check-domination", ("--output", "json"), "txt"),
    "check-domination-unweighted": ("check-domination", ("--unweighted",), "txt"),
    "certify": ("certify", (), "txt"),
    "certify-json": ("certify", ("--output", "json"), "txt"),
    "certify-counts": (
        "certify",
        ("--beta", "2.5", "-t", "0.5", "-t", "2", "--phi-threshold", "1"),
        "txt",
    ),
    "complete-check-domination": ("check-domination", COMPLETE_ARGS, "txt"),
    "complete-check-domination-json": (
        "check-domination",
        (*COMPLETE_ARGS, "--output", "json"),
        "txt",
    ),
    "complete-check-domination-unweighted": (
        "check-domination",
        (*COMPLETE_ARGS, "--unweighted"),
        "txt",
    ),
    "complete-certify": ("certify", (*COMPLETE_ARGS, "--beta", "2.5"), "txt"),
    "complete-certify-json": (
        "certify",
        (*COMPLETE_ARGS, "--beta", "2.5", "--output", "json"),
        "txt",
    ),
    **_sweep_cases("sweep", SWEEP_ARGS),
    **_sweep_cases("gate-sweep", GATE_SWEEP_ARGS),
    **_sweep_cases("gate-sweep-complete", (*GATE_SWEEP_ARGS, "--graph-mode", "complete")),
    **_sweep_cases("gate-sweep-m9-dim5", (*GATE_SWEEP_ARGS, "--max-m", "9", "--max-dim", "5")),
}


def _golden(stem: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{stem}.json").read_text())


# goldens whose demo embeds a graph, the only ones check-domination accepts
GRAPH_STEMS = [s for s in STEMS if _golden(s)["report"].get("domination") is not None]


def _stems(case: str) -> list:
    """The goldens a case runs on; None for a sweep, which reads no file."""
    command, extra, _ = CASES[case]
    if command == "sweep":
        return [None]
    if COMPLETE_FILE in extra:
        return [COMPLETE_STEM]
    return GRAPH_STEMS if command == "check-domination" else STEMS


PINS = [(stem, case) for case in CASES for stem in _stems(case)]
INSTANCE_PIN = RENDER_DIR / "chsh.instance-file.txt"


def _demo_argv(stem: str, directory: Path) -> list[str]:
    golden = _golden(stem)
    argv = ["demo", golden["demo"], "--dir", str(directory)]
    if golden["m_arg"] is not None:
        argv += ["--m", str(golden["m_arg"])]
    return argv


def render(stem, case: str, directory: Path, capture) -> str:
    """stdout of one case; ``capture()`` returns what was printed since
    its last call."""
    command, extra, _ = CASES[case]
    if command == "sweep":
        cli.main([command, *extra])
        return capture()
    cli.main([*_demo_argv(stem, directory), *(extra if command == "demo" else ())])
    demo_out = capture()
    if command == "demo":
        return demo_out
    (path,) = directory.glob("*.json")
    if COMPLETE_FILE in extra:
        m = _golden(stem)["report"]["m"]
        graph = directory / COMPLETE_FILE
        graph.write_text(json.dumps(graph_to_json(complete_graph(m))), encoding="utf-8")
        extra = tuple(str(graph) if a == COMPLETE_FILE else a for a in extra)
    cli.main([command, str(path), *extra])
    return capture()


def expected_path(stem, case: str) -> Path:
    name = case if stem is None else f"{stem}.{case}"
    return RENDER_DIR / f"{name}.{CASES[case][2]}"


def test_every_golden_and_case_is_pinned():
    pinned = {p.name for p in RENDER_DIR.iterdir()}
    wanted = {expected_path(s, c).name for s, c in PINS}
    assert pinned == wanted | {INSTANCE_PIN.name}


@pytest.mark.parametrize(
    "stem, case", PINS, ids=[c if s is None else f"{s}-{c}" for s, c in PINS]
)
def test_rendering_is_byte_identical(stem, case, tmp_path, capsys):
    out = render(stem, case, tmp_path, lambda: capsys.readouterr().out)
    assert out == expected_path(stem, case).read_text(encoding="utf-8")


def written_instance_file(directory: Path) -> bytes:
    cli.main(_demo_argv("chsh", directory))
    (path,) = directory.glob("*.json")
    return path.read_bytes()


def test_written_instance_file_is_byte_identical(tmp_path, capsys):
    assert written_instance_file(tmp_path) == INSTANCE_PIN.read_bytes()


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    RENDER_DIR.mkdir(exist_ok=True)
    for stem, case in PINS:
        with tempfile.TemporaryDirectory() as tmp:
            buf = io.StringIO()

            def capture():
                text = buf.getvalue()
                buf.seek(0)
                buf.truncate()
                return text

            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                out = render(stem, case, Path(tmp), capture)
        expected_path(stem, case).write_text(out, encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()):
            INSTANCE_PIN.write_bytes(written_instance_file(Path(tmp)))
