import gc
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorbound import (
    TensorSumInstance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    pauli,
    save_instance,
)
from tensorbound import instance_io
from tensorbound.demos import build_demo
from tensorbound.graphs import InteractionGraph
from tensorbound.instance_io import (
    SCHEMA_VERSION,
    graph_from_json,
    load_graph,
    matrix_from_json,
    matrix_to_json,
)


def chsh_dict():
    z = pauli("z")
    x = pauli("x")
    b0 = (z + x) / math.sqrt(2)
    b1 = (z - x) / math.sqrt(2)
    inst = TensorSumInstance([z, z, x, x], [b0, b1, b0, -b1])
    return instance_to_dict(inst)


class TestRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        mats = []
        for _ in range(3):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            a = (a + a.conj().T) / 2
            mats.append(a / (np.linalg.norm(a, 2) * 1.25))
        inst = TensorSumInstance(mats, mats, [0.1, -2.5, 1 / 3])
        graph = InteractionGraph(3, [(1, 2), (2, 3)])
        path = tmp_path / "inst.json"
        save_instance(path, inst, graph)
        loaded, loaded_graph = load_instance(path)
        assert np.array_equal(inst.x, loaded.x)
        assert np.array_equal(inst.y, loaded.y)
        assert np.array_equal(inst.weights, loaded.weights)
        assert loaded_graph.edges == graph.edges

    def test_serialize_parse_semantic_identity(self):
        doc = chsh_dict()
        inst, graph = instance_from_dict(doc)
        assert instance_to_dict(inst, graph) == doc

    def test_file_is_plain_json_with_schema(self, tmp_path):
        inst = TensorSumInstance([pauli("z")], [pauli("x")])
        path = tmp_path / "i.json"
        save_instance(path, inst)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["dim_h"] == 2 and doc["dim_k"] == 2
        assert doc["x"][0] == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]

    def test_graph_edges_are_zero_based_in_file(self, tmp_path):
        inst, _ = instance_from_dict(chsh_dict())
        graph = InteractionGraph(4, [(1, 4), (2, 3)])
        path = tmp_path / "g.json"
        save_instance(path, inst, graph)
        doc = json.loads(path.read_text())
        assert doc["graph"]["edges"] == [[0, 3], [1, 2]]
        _, parsed = load_instance(path)
        assert parsed.edges == ((1, 4), (2, 3))


def extreme_instance():
    """Signed zeros, a subnormal and 17-digit values in operators and weights."""
    a = np.array(
        [[-0.0, 5e-324 + 1j / 3], [5e-324 - 1j / 3, 0.30000000000000004]], dtype=complex
    )
    b = np.diag([0.12345678901234568, -0.0]).astype(complex)
    weights = [1.2345678901234567e-300, -0.1, 6.02214076e23]
    return TensorSumInstance([a, b, a], [b, a, pauli("z")], weights), InteractionGraph(
        3, [(1, 3)]
    )


def same_bits(a: TensorSumInstance, b: TensorSumInstance) -> bool:
    return all(
        np.asarray(getattr(a, f)).tobytes() == np.asarray(getattr(b, f)).tobytes()
        for f in ("x", "y", "weights")
    )


class TestWriterLayout:
    def test_one_compact_line_per_top_level_key(self, tmp_path):
        inst, graph = extreme_instance()
        path = tmp_path / "i.json"
        save_instance(path, inst, graph)
        doc = instance_to_dict(inst, graph)
        entries = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items()]
        expected = ["{", *(e + "," for e in entries[:-1]), entries[-1], "}"]
        assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"
        assert len(expected) == len(doc) + 2 == 9

    def test_file_parses_to_the_instance_dict(self, tmp_path):
        inst, graph = extreme_instance()
        path = tmp_path / "i.json"
        save_instance(path, inst, graph)
        doc = instance_to_dict(inst, graph)
        assert json.loads(path.read_text()) == doc
        # repr of every float, so -0.0 and every last bit are compared too
        assert json.dumps(json.loads(path.read_text())) == json.dumps(doc)

    def test_extreme_values_round_trip_bitwise(self, tmp_path):
        inst, graph = extreme_instance()
        path = tmp_path / "i.json"
        save_instance(path, inst, graph)
        loaded, loaded_graph = load_instance(path)
        assert same_bits(loaded, inst)
        assert math.copysign(1.0, loaded.x[0, 0, 0].real) == -1.0
        assert loaded.x[0, 0, 1].real == 5e-324
        assert loaded_graph.edges == graph.edges

    @pytest.mark.parametrize(
        "value", [-0.0, 5e-324, 1.7976931348623157e308, -2.2250738585072014e-308, 0.1 + 0.2]
    )
    def test_writer_keeps_every_float_bit(self, value, tmp_path, monkeypatch):
        # no instance can hold the largest float (as a weight it overflows 4 m (sum |c|)^2),
        # so the writer is handed a document directly
        doc = {"schema_version": SCHEMA_VERSION, "weights": [value, -value]}
        monkeypatch.setattr(instance_io, "_layout", lambda inst, graph: doc)
        path = tmp_path / "w.json"
        save_instance(path, None)
        written = json.loads(path.read_text())["weights"]
        assert np.array(written).tobytes() == np.array([value, -value]).tobytes()

    def test_indented_files_load_unchanged(self, tmp_path):
        inst, graph = extreme_instance()
        old = tmp_path / "indented.json"
        old.write_text(json.dumps(instance_to_dict(inst, graph), indent=2) + "\n")
        new = tmp_path / "compact.json"
        save_instance(new, inst, graph)
        assert old.read_text() != new.read_text()
        (a, ga), (b, gb) = load_instance(old), load_instance(new)
        assert same_bits(a, b) and same_bits(a, inst)
        assert ga.edges == gb.edges == graph.edges


def old_composition(inst, graph=None) -> str:
    """The file as the writer composed it whole before it streamed."""
    doc = instance_to_dict(inst, graph)
    return "{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items()) + "\n}\n"


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees while ``fn()`` runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def stacks(seed: int, m: int, dim_h: int, dim_k: int):
    rng = np.random.default_rng(seed)
    x, y = ([hermitian_contraction(rng, d) for _ in range(m)] for d in (dim_h, dim_k))
    return x, y


def hermitian_contraction(rng, d: int) -> np.ndarray:
    """A Hermitian contraction with full-precision entries."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a = a + a.conj().T
    return a / (1.25 * np.linalg.norm(a, 2))


class TestStreamingWriter:
    """save_instance writes one matrix at a time and the same bytes as
    json.dumps of the whole document, one top-level key per line."""

    @pytest.mark.parametrize(
        "case", ["m1", "no-graph", "default-weights", "graph", "extreme"]
    )
    def test_bytes_match_the_whole_document(self, case, tmp_path):
        if case == "extreme":
            inst, graph = extreme_instance()
        else:
            x, y = stacks(24, 1 if case == "m1" else 4, 3, 5)
            weights = None if case == "default-weights" else [0.5, -1 / 3, 2.0, 1e-17][: len(x)]
            inst = TensorSumInstance(x, y, weights)
            graph = InteractionGraph(4, [(1, 2), (4, 3)]) if case == "graph" else None
        path = tmp_path / "i.json"
        save_instance(path, inst, graph)
        assert path.read_bytes() == old_composition(inst, graph).encode("utf-8")

    def test_extra_memory_is_below_the_file_size(self, tmp_path):
        x, y = stacks(25, 6, 64, 64)
        inst = TensorSumInstance(x, y, np.linspace(-1, 1, 6))
        graph = InteractionGraph(6, [(1, 2), (2, 3), (5, 6)])
        path = tmp_path / "wide.json"
        peak = traced_peak(lambda: save_instance(path, inst, graph))
        size = path.stat().st_size
        assert peak < size
        # building the whole document and its text first needs several copies
        old_peak = traced_peak(lambda: old_composition(inst, graph).encode("utf-8"))
        assert old_peak > 4 * size

    def test_extra_memory_is_about_a_row(self, tmp_path):
        x, y = stacks(25, 6, 64, 64)
        path = tmp_path / "wide.json"
        inst = TensorSumInstance(x, y)
        # each row's lists and text, not a whole matrix's (0.53x the file)
        assert traced_peak(lambda: save_instance(path, inst)) < 0.05 * path.stat().st_size


def whole_document(path):
    """json.loads of the file's whole text, refused as the reader refuses it."""
    text = path.read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc


def whole_document_load(path):
    """The reader as it was: json.loads of the whole text, then instance_from_dict."""
    return instance_from_dict(whole_document(path))


def outcome(read, path):
    """The bits of what ``read(path)`` returns, or the type and message it raises."""
    try:
        inst, graph = read(path)
    except ValueError as exc:
        return type(exc), str(exc)
    fields = (np.asarray(getattr(inst, f)).tobytes() for f in ("x", "y", "weights"))
    return tuple(fields), graph and graph.edges


def chsh_text(bad_x: int | None = None, **changes) -> str:
    """chsh_dict as compact JSON text, with ``changes`` to its keys and a
    one-part entry at x[bad_x][0][1] if ``bad_x`` is given."""
    doc = {**chsh_dict(), **changes}
    if bad_x is not None:
        doc["x"][bad_x][0][1] = [1.0]
    return json.dumps(doc)


def chsh_with_x0(rows) -> str:
    """chsh_text with ``rows`` in place of the matrix x[0]."""
    return chsh_text(x=[rows, *chsh_dict()["x"][1:]])


def odd_whitespace(text: str) -> str:
    """``text`` with JSON's four whitespace characters around every token."""
    for token in ",:[]{}":
        text = text.replace(token, f"\r{token}\n\t ")
    return f" \n{text}\t"


GOLDEN = Path(__file__).parent / "golden"
CHSH = chsh_text()
STREAM_CASES = {
    "extreme": json.dumps(instance_to_dict(*extreme_instance())),
    "indent-2": json.dumps(instance_to_dict(*extreme_instance()), indent=2),
    "stacks-before-dims": json.dumps(dict(reversed(chsh_dict().items()))),
    "duplicate-keys": f'{{"x": 0, "dim_h": 3, "weights": [2.0], {CHSH[1:-1]}, "weights": null}}',
    "second-dim_h-after-x": CHSH[:-1] + ', "dim_h": 3}',
    "odd-whitespace": odd_whitespace(CHSH),
    "syntax-error-after-bad-matrix": chsh_text(bad_x=0)[:-1] + ', "z": [1,,2]}',
    "schema-with-bad-matrix": chsh_text(bad_x=0, schema_version="tensorbound/99"),
    "bad-entry-in-x1": chsh_text(bad_x=1),
    "trailing-data": CHSH + " {}",
    "exponents-first": '{"z": 0.5, "w": 1e-3, "v": 2.5E+2, ' + CHSH[1:],
    "top-level-array": f"[{CHSH}]",
    "nan-entry": CHSH.replace("1.0", "NaN", 1),
    "past-the-digit-limit": CHSH.replace('"weights": [', f'"weights": [{"7" * 5001}, ', 1),
    "x0-empty": chsh_with_x0([]),
    "x0-zero": chsh_with_x0(0),
    "x0-string": chsh_with_x0("ab"),
    "x0-two-rows-of-three-pairs": chsh_with_x0([[[1.0, 0.0]] * 3] * 2),
    "x-empty": chsh_text(x=[]),
    "missing-colon": '{"z" 10, ' + CHSH[1:],
    "y-before-a-later-dim_k": json.dumps(
        {k: v for k, v in chsh_dict().items() if k != "dim_k"} | {"dim_k": 2}
    ),
}
GRAPH = '{"edges": [[0, 1], [1, 2]]}'
GRAPH_CASES = {
    "duplicate-keys": '{"edges": [[0, 0]], "m": 4, "edges": [[0, 1], [1, 2]], "m": 3}',
    "trailing-data": GRAPH + " {}",
    "top-level-array": f"[{GRAPH}]",
    "with-an-x-matrix": '{"edges": [[0, 1]], "x": [[[[1.0, 0.0]]], [[0, 1]]]}',
}


class TestStreamingReader:
    """load_instance decodes and converts one matrix at a time, and returns
    or refuses exactly what instance_from_dict(json.loads(text)) does."""

    @pytest.mark.parametrize("stem", sorted(p.stem for p in GOLDEN.glob("*.json")))
    def test_golden_demos_load_bitwise(self, stem, tmp_path):
        golden = json.loads((GOLDEN / f"{stem}.json").read_text())
        path = tmp_path / "demo.json"
        save_instance(path, *build_demo(golden["demo"], golden["m_arg"]))
        streamed = outcome(load_instance, path)
        assert streamed == outcome(whole_document_load, path) and streamed[0] is not ValueError

    @pytest.mark.parametrize("case", list(STREAM_CASES))
    def test_same_instance_or_refusal(self, case, tmp_path):
        path = tmp_path / "case.json"
        path.write_text(STREAM_CASES[case])
        assert outcome(load_instance, path) == outcome(whole_document_load, path)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("second-dim_h-after-x", "x[0]: expected 3 rows, got 2"),
            ("syntax-error-after-bad-matrix", "not valid JSON: Expecting value"),
            ("schema-with-bad-matrix", "unsupported schema_version 'tensorbound/99'"),
            ("bad-entry-in-x1", "x[1][0][1]: each entry must be a two-element [re, im] array"),
            ("trailing-data", "not valid JSON: Extra data"),
            ("top-level-array", "instance file must hold a JSON object"),
            ("nan-entry", "x[0][0][0]: entries must be finite"),
            ("past-the-digit-limit", "not valid JSON: Exceeds the limit (4300 digits)"),
            ("x-empty", "x must be a nonempty array of matrices"),
            ("missing-colon", "not valid JSON: Expecting ':' delimiter"),
        ],
    )
    def test_refusals_pinned(self, case, message, tmp_path):
        path = tmp_path / "case.json"
        path.write_text(STREAM_CASES[case])
        with pytest.raises(ValueError) as err:
            load_instance(path)
        assert type(err.value) is ValueError and message in str(err.value)

    def test_extra_memory_is_about_the_text(self, tmp_path):
        x, y = stacks(26, 6, 64, 64)
        path = tmp_path / "wide.json"
        save_instance(path, TensorSumInstance(x, y), InteractionGraph(6, [(1, 2), (3, 4)]))
        size = path.stat().st_size
        # the file's bytes and its text, and one matrix's lists at a time
        assert traced_peak(lambda: load_instance(path)) < 2.5 * size
        # the whole document of [re, im] lists besides the text
        assert traced_peak(lambda: whole_document_load(path)) > 3.5 * size

    def test_extra_memory_is_about_the_text_with_stacks_before_dims(self, tmp_path):
        x, y = stacks(26, 6, 64, 64)
        doc = instance_to_dict(TensorSumInstance(x, y), InteractionGraph(6, [(1, 2), (3, 4)]))
        path = tmp_path / "reversed.json"
        path.write_text(json.dumps(dict(reversed(doc.items()))))
        # every matrix is converted as it is decoded, whatever precedes it
        assert traced_peak(lambda: load_instance(path)) < 2.5 * path.stat().st_size

    def test_extra_memory_does_not_grow_with_the_file(self, tmp_path):
        peaks, sizes = [], []
        for m in (6, 24):
            path = tmp_path / f"wide-{m}.json"
            save_instance(path, TensorSumInstance(*stacks(26, m, 64, 64)))
            peaks.append(traced_peak(lambda: instance_io._read_json(path)))
            sizes.append(path.stat().st_size)
        # the 36 more 64 x 64 matrices, converted; the window stays as it was
        # (the file's bytes and text would add twice the 6.8 MB more of file)
        arrays = 2 * 18 * 64 * 64 * 16
        assert peaks[1] - peaks[0] < arrays + 0.1 * (sizes[1] - sizes[0])

    @pytest.mark.parametrize("case", list(GRAPH_CASES))
    def test_load_graph_matches_the_whole_document(self, case, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(GRAPH_CASES[case])

        def edges(read):
            try:
                return read().edges
            except ValueError as exc:
                return type(exc), str(exc)

        expected = edges(lambda: graph_from_json(whole_document(path), 3))
        assert edges(lambda: load_graph(path, 3)) == expected


def larger_than(chars: int) -> str:
    """A one-term instance file whose x matrix takes more than ``chars`` characters."""
    dim = 2 + math.isqrt(chars // 30)  # every [re, im] pair takes over 30
    x, y = stacks(27, 1, dim, 2)
    text = json.dumps(instance_to_dict(TensorSumInstance(x, y)))
    assert len(json.dumps(matrix_to_json(x[0]))) > chars
    return text


def walks(path) -> bool:
    """Whether _walk reads the file itself, not leaving it to json.loads."""
    with path.open(encoding="utf-8") as f:
        try:
            instance_io._walk(f)
        except ValueError:
            return False
    return True


def holds_an_object(path) -> bool:
    try:
        return isinstance(json.loads(path.read_text(encoding="utf-8")), dict)
    except ValueError:
        return False


class TestReaderWindow:
    """Windows far below a value's length give what json.loads of the whole
    text does: a value cut at the window's edge is decoded again, never
    taken short."""

    # for CHSH-sized files: a 1-character window over a 6 MB file takes minutes
    @pytest.fixture(params=[1, 7, 64])
    def window(self, request, monkeypatch):
        monkeypatch.setattr(instance_io, "_WINDOW", request.param)
        return request.param

    @pytest.mark.parametrize("case", list(STREAM_CASES))
    def test_same_instance_or_refusal(self, case, window, tmp_path):
        path = tmp_path / "case.json"
        path.write_text(STREAM_CASES[case])
        assert outcome(load_instance, path) == outcome(whole_document_load, path)
        assert walks(path) == holds_an_object(path)

    @pytest.mark.parametrize("stem", sorted(p.stem for p in GOLDEN.glob("*.json")))
    def test_golden_demos_load_bitwise(self, stem, window, tmp_path):
        golden = json.loads((GOLDEN / f"{stem}.json").read_text())
        path = tmp_path / "demo.json"
        save_instance(path, *build_demo(golden["demo"], golden["m_arg"]))
        streamed = outcome(load_instance, path)
        assert streamed == outcome(whole_document_load, path) and streamed[0] is not ValueError
        assert walks(path)

    @pytest.mark.parametrize("window", [1, 7, 64, instance_io._WINDOW], indirect=True)
    def test_matrix_larger_than_the_window(self, window, tmp_path):
        path = tmp_path / "large.json"
        path.write_text(larger_than(window))
        streamed = outcome(load_instance, path)
        assert streamed == outcome(whole_document_load, path) and streamed[0] is not ValueError
        assert walks(path)

    @pytest.mark.parametrize("window", [1, 7, 64, instance_io._WINDOW], indirect=True)
    def test_not_utf8_past_the_window_names_its_file_position(self, window, tmp_path):
        path = tmp_path / "late.json"
        text = CHSH if window < len(CHSH) else larger_than(window)
        path.write_bytes(text[:-1].encode() + b', "name": "\xe9"}')
        with pytest.raises(UnicodeDecodeError) as exc:
            path.read_text(encoding="utf-8")
        assert exc.value.start > window
        with pytest.raises(ValueError) as err:
            load_instance(path)
        assert str(err.value) == f"{path}: not valid UTF-8: {exc.value}"

    def test_each_matrix_after_the_first_is_decoded_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(instance_io, "_WINDOW", 64)
        path = tmp_path / "i.json"
        save_instance(path, TensorSumInstance(*stacks(28, 3, 8, 8)))
        calls = []
        raw_decode = json.JSONDecoder.raw_decode

        def recording(self, s, idx=0):
            try:
                value, end = raw_decode(self, s, idx)
            except ValueError:
                calls.append("failed")
                raise
            calls.append("matrix" if isinstance(value, list) and len(value) == 8 else "other")
            return value, end

        monkeypatch.setattr(json.JSONDecoder, "raw_decode", recording)
        load_instance(path)
        # the first matrix overruns the 64-character window and is decoded
        # again in a doubled one; the window then holds twice each matrix
        first = calls.index("matrix")
        assert "failed" in calls[:first] and "failed" not in calls[first:]
        assert calls.count("matrix") == 6


class TestValidationErrors:
    def test_wrong_schema_version(self):
        doc = chsh_dict()
        doc["schema_version"] = "tensorbound/99"
        with pytest.raises(ValueError, match="schema_version"):
            instance_from_dict(doc)

    def test_missing_rows_named(self):
        doc = chsh_dict()
        doc["x"][1] = doc["x"][1][:1]
        with pytest.raises(ValueError, match=r"x\[1\]"):
            instance_from_dict(doc)

    def test_bad_entry_named(self):
        doc = chsh_dict()
        doc["y"][0][1][1] = [1.0]
        with pytest.raises(ValueError, match=r"y\[0\]\[1\]\[1\]"):
            instance_from_dict(doc)

    def test_non_finite_entry_rejected(self):
        doc = chsh_dict()
        doc["x"][0][0][0] = [float("inf"), 0.0]
        with pytest.raises(ValueError, match="finite"):
            instance_from_dict(doc)

    # 10**400 is a valid JSON integer that no float can hold
    @pytest.mark.parametrize("cell", [[10**400, 0.0], [0.0, -(10**400)]])
    def test_oversized_integer_entry_named(self, cell):
        doc = chsh_dict()
        doc["x"][0][0][0] = cell
        message = r"x\[0\]\[0\]\[0\]: entries must be finite"
        with pytest.raises(ValueError, match=message):
            instance_from_dict(doc)

    def test_oversized_integer_weight_rejected(self):
        doc = chsh_dict()
        doc["weights"] = [1.0, 10**400, 1.0, 1.0]
        with pytest.raises(ValueError, match="weights must be finite reals"):
            instance_from_dict(doc)
        with pytest.raises(ValueError, match="weights must be finite reals"):
            TensorSumInstance([pauli("z")], [pauli("z")], [-(10**400)])

    def test_weights_length_checked(self):
        doc = chsh_dict()
        doc["weights"] = [1.0, 2.0]
        with pytest.raises(ValueError, match="weights"):
            instance_from_dict(doc)

    def test_graph_index_out_of_range(self):
        doc = chsh_dict()
        doc["graph"] = {"edges": [[0, 4]]}
        with pytest.raises(ValueError, match="out of range"):
            instance_from_dict(doc)

    def test_graph_m_mismatch(self):
        doc = chsh_dict()
        doc["graph"] = {"m": 5, "edges": []}
        with pytest.raises(ValueError, match="m=5"):
            instance_from_dict(doc)

    def test_contraction_failure_surfaces_from_instance(self):
        doc = chsh_dict()
        doc["x"][0] = [[[3.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [3.0, 0.0]]]
        with pytest.raises(ValueError, match="contraction"):
            instance_from_dict(doc)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            (None, [], "instance file must hold a JSON object"),
            ("dim_h", 0, "dim_h must be a positive integer, got 0"),
            ("dim_h", True, "dim_h must be a positive integer, got True"),
            ("x", [], "x must be a nonempty array of matrices"),
            ("y", [], "y must be an array of 4 matrices to match x"),
            ("weights", [1.0, True, 1.0, 1.0], "weights must be numbers"),
            ("graph", [[0, 1]], "graph must be an object with an 'edges' array"),
            ("graph", {"edges": {"0": 1}}, "graph.edges must be an array of [i, j] pairs"),
        ],
    )
    def test_document_refusals_pinned(self, key, value, message):
        doc = value if key is None else {**chsh_dict(), key: value}
        with pytest.raises(ValueError) as err:
            instance_from_dict(doc)
        assert str(err.value) == message

    def test_not_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_instance(path)

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff" + json.dumps(chsh_dict()).encode())
        with pytest.raises(ValueError) as err:
            load_instance(path)
        assert str(err.value).startswith(f"{path}: not valid UTF-8: 'utf-8' codec can't decode")

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_instance(tmp_path / "absent.json")


class TestMatrixParsing:
    def rows(self, dim=5):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rows = json.loads(json.dumps(matrix_to_json(a)))
        rows[0][0] = [-0.0, 0.0]
        rows[1][2] = [3, -7]  # JSON integers are numbers too
        rows[2][3] = (0.25, -0.5)
        return rows

    def test_matches_entry_by_entry_conversion(self):
        rows = self.rows()
        expected = np.array([[complex(*cell) for cell in row] for row in rows])
        parsed = matrix_from_json(rows, 5, "x[0]")
        assert parsed.dtype == complex and parsed.shape == (5, 5)
        assert parsed.tobytes() == expected.tobytes()  # bit-exact, -0.0 included
        assert math.copysign(1.0, parsed[0, 0].real) == -1.0

    @pytest.mark.parametrize(
        "cell, message",
        [
            ([True, 0.0], "two-element"),
            (["1", 0.0], "two-element"),
            ([1.0, 2.0, 3.0], "two-element"),
            ([float("nan"), 0.0], "finite"),
            ([1.0], "two-element"),
            ([0.0, None], "two-element"),
            ([0.0, 10**400], "finite"),  # an integer past the float range
        ],
    )
    def test_bad_entry_located_in_large_matrix(self, cell, message):
        rows = self.rows(dim=40)
        rows[17][23] = cell
        with pytest.raises(ValueError, match=rf"x\[2\]\[17\]\[23\]: .*{message}"):
            matrix_from_json(rows, 40, "x[2]")

    def test_short_row_located(self):
        rows = self.rows()
        rows[3] = rows[3][:4]
        with pytest.raises(ValueError, match=r"x\[0\]: row 3 must have 5 entries"):
            matrix_from_json(rows, 5, "x[0]")

    @pytest.mark.parametrize("row", [5, "text", None, {"a": 1}])
    def test_row_that_is_not_a_list_located(self, row):
        rows = self.rows()
        rows[3] = row  # len() of the rows before their types are checked would raise TypeError
        with pytest.raises(ValueError, match=r"x\[0\]: row 3 must have 5 entries"):
            matrix_from_json(rows, 5, "x[0]")

    @pytest.mark.parametrize("view", ["contiguous", "strided", "transposed"])
    def test_writer_matches_entry_by_entry_floats(self, view):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        a[0, :4] = [-0.0, complex(0.0, -0.0), 5e-324 - 2.2e-310j, -1.7e300 + 9.9e299j]
        a = {"contiguous": a, "strided": a[::2, ::2], "transposed": a.T}[view]
        expected = [[[float(v.real), float(v.imag)] for v in row] for row in a]
        written = matrix_to_json(a)
        assert json.dumps(written) == json.dumps(expected)  # repr of every part, -0.0 included
        assert matrix_from_json(written, len(a), "x[0]").tobytes() == np.array(a).tobytes()

    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda dim: st.lists(
                st.lists(
                    st.lists(
                        st.one_of(
                            st.floats(allow_nan=False, allow_infinity=False),
                            st.integers(min_value=-(2**1023), max_value=2**1023),
                        ),
                        min_size=2,
                        max_size=2,
                    ),
                    min_size=dim,
                    max_size=dim,
                ),
                min_size=dim,
                max_size=dim,
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_conversion_matches_python_floats_bitwise(self, rows):
        dim = len(rows)
        expected = np.array(
            [[complex(float(re), float(im)) for re, im in row] for row in rows], dtype=complex
        )
        assert matrix_from_json(rows, dim, "x[0]").tobytes() == expected.tobytes()

    def test_number_subclasses_still_accepted(self):
        rows = self.rows()
        rows[4][4] = [np.float64(0.5), 1.0]
        assert matrix_from_json(rows, 5, "x[0]")[4, 4] == 0.5 + 1.0j


def _read_good_instance(path):
    path.write_text(json.dumps(chsh_dict()))
    load_instance(path)


def _read_invalid_json(path):
    path.write_text("{nope")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_instance(path)


def _read_schema_refusal(path):
    doc = chsh_dict()
    doc["schema_version"] = "tensorbound/99"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="schema_version"):
        load_instance(path)


def _read_graph(path):
    path.write_text(json.dumps({"edges": [[0, 1]]}))
    load_graph(path, 2)


class TestCollectorState:
    """_read_json pauses the cyclic collector while json decodes and the
    reader converts, and leaves it as the caller had it, whatever the file
    holds."""

    @pytest.fixture
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "read",
        [_read_good_instance, _read_invalid_json, _read_schema_refusal, _read_graph],
        ids=["good-instance", "invalid-json", "schema-refusal", "load-graph"],
    )
    def test_state_is_restored(self, tmp_path, restore_collector, read, enabled):
        if enabled:
            gc.enable()
        else:
            gc.disable()
        read(tmp_path / "file.json")
        assert gc.isenabled() is enabled

    def test_collector_is_paused_while_decoding(self, tmp_path, monkeypatch, restore_collector):
        seen = []
        raw_decode, convert = json.JSONDecoder.raw_decode, instance_io.matrix_from_json

        def recording(call, name):
            def wrapped(*args):
                if name == "decode" or isinstance(args[0], list):  # not a pass-through
                    seen.append((name, gc.isenabled()))
                return call(*args)

            return wrapped

        monkeypatch.setattr(json.JSONDecoder, "raw_decode", recording(raw_decode, "decode"))
        monkeypatch.setattr(instance_io, "matrix_from_json", recording(convert, "convert"))
        gc.enable()
        _read_good_instance(tmp_path / "file.json")
        # 6 keys and 4 values decoded whole; 8 matrices decoded, each converted
        # (instance_from_dict passes the 8 through after the collector is restored)
        assert sorted(set(seen)) == [("convert", False), ("decode", False)]
        assert [name for name, _ in seen].count("convert") == 8
        assert len(seen) == 6 + 4 + 2 * 8
        assert gc.isenabled()


class TestStandaloneGraph:
    def test_load_graph(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"edges": [[0, 1], [1, 2]]}))
        g = load_graph(path, 3)
        assert g.edges == ((1, 2), (2, 3))

    def test_load_graph_bad_pair(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"edges": [[0, 1, 2]]}))
        with pytest.raises(ValueError, match=r"edges\[0\]"):
            load_graph(path, 3)

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([[1, 1]], "graph.edges[0] = [1, 1] is a self-loop, which is not allowed"),
            ([[0, 1], [1, 0]], "graph.edges[1] = [1, 0] duplicates graph.edges[0]"),
            ([[0, 2], [0, 1], [0, 2]], "graph.edges[2] = [0, 2] duplicates graph.edges[0]"),
            # the first faulty edge in file order is the one named
            ([[0, 1], [2, 2], [0, 9]], "graph.edges[1] = [2, 2] is a self-loop, which is not allowed"),
        ],
    )
    def test_load_graph_names_the_edge_as_the_file_writes_it(self, tmp_path, edges, message):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"edges": edges}))
        with pytest.raises(ValueError) as err:
            load_graph(path, 3)
        assert str(err.value) == message

    def test_load_graph_not_json(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text("{nope")
        with pytest.raises(ValueError) as err:
            load_graph(path, 3)
        assert str(err.value).startswith(f"{path}: not valid JSON: Expecting property name")

    def test_load_graph_not_utf8(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_bytes(b'{"edges": [[0, 1]], "name": "\xe9"}')
        with pytest.raises(ValueError) as err:
            load_graph(path, 3)
        assert str(err.value).startswith(f"{path}: not valid UTF-8: ")
