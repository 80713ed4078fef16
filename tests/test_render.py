"""Byte-for-byte pins of the text and CSV renderings.

For every golden demo, ``tests/golden/render`` holds the stdout of
``demo`` (text), of ``bound`` (text and CSV, with the embedded graph
and with ``--no-graph``) and of ``certify`` (computed beta in text and
JSON, and a supplied beta with thresholds and the phi-threshold variant)
on the instance file the demo writes. The files are named
``<golden stem>.<case>.<txt|csv>``; they are not ``*.json`` (the JSON
rendering is stored as ``.txt``) so that nothing globbing the report
goldens picks them up.

The pinned values depend on the LAPACK build numpy uses; CSV cells carry full
precision. To regenerate after an intended output change, run
``PYTHONPATH=src:tests python tests/test_render.py``.
"""

import json
from pathlib import Path

import pytest

from tensorbound import cli

GOLDEN_DIR = Path(__file__).parent / "golden"
RENDER_DIR = GOLDEN_DIR / "render"
STEMS = sorted(p.stem for p in GOLDEN_DIR.glob("*.json"))

# case name -> (command, extra arguments, file suffix)
CASES = {
    "demo": ("demo", (), "txt"),
    "bound": ("bound", (), "txt"),
    "bound-csv": ("bound", ("--output", "csv"), "csv"),
    "bound-no-graph": ("bound", ("--no-graph",), "txt"),
    "bound-no-graph-csv": ("bound", ("--no-graph", "--output", "csv"), "csv"),
    "certify": ("certify", (), "txt"),
    "certify-json": ("certify", ("--output", "json"), "txt"),
    "certify-counts": (
        "certify",
        ("--beta", "2.5", "-t", "0.5", "-t", "2", "--phi-threshold", "1", "--c-max", "1"),
        "txt",
    ),
}


def _demo_argv(stem: str, directory: Path) -> list[str]:
    golden = json.loads((GOLDEN_DIR / f"{stem}.json").read_text())
    argv = ["demo", golden["demo"], "--dir", str(directory)]
    if golden["m_arg"] is not None:
        argv += ["--m", str(golden["m_arg"])]
    return argv


def render(stem: str, case: str, directory: Path, capture) -> str:
    """stdout of one case; ``capture()`` returns what was printed since
    its last call."""
    cli.main(_demo_argv(stem, directory))
    demo_out = capture()
    if case == "demo":
        return demo_out
    (path,) = directory.glob("*.json")
    command, extra, _ = CASES[case]
    cli.main([command, str(path), *extra])
    return capture()


def expected_path(stem: str, case: str) -> Path:
    return RENDER_DIR / f"{stem}.{case}.{CASES[case][2]}"


def test_every_golden_and_case_is_pinned():
    pinned = {p.name for p in RENDER_DIR.iterdir()}
    wanted = {expected_path(s, c).name for s in STEMS for c in CASES}
    assert pinned == wanted


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("stem", STEMS)
def test_rendering_is_byte_identical(stem, case, tmp_path, capsys):
    out = render(stem, case, tmp_path, lambda: capsys.readouterr().out)
    assert out == expected_path(stem, case).read_text(encoding="utf-8")


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    RENDER_DIR.mkdir(exist_ok=True)
    for stem in STEMS:
        for case in CASES:
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
