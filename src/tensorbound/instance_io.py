"""Instance file interchange: JSON, schema version "tensorbound/1".

Complex entries are two-element arrays [re, im]; matrices are row-major
arrays of rows. Indices in files are 0-based (graph edges included),
unlike reports, which are 1-based. Floats are written with Python's
shortest round-tripping representation, so serialize(parse(f)) preserves
every value bit-exactly. Files hold one unindented top-level key per line,
so json writes them with its C encoder; indented files load unchanged.
The writer writes one row at a time, and the reader reads through a
window of text whose size does not depend on the file's: neither holds the
whole text or a whole document of lists. The reader converts each x and y
matrix at its own size as it decodes it, in any key order, and
instance_from_dict checks it against the dimensions.
"""

from __future__ import annotations

import gc
import json
from contextlib import suppress
from itertools import chain
from pathlib import Path

import numpy as np

from .bounds import TensorSumInstance
from .graphs import InteractionGraph

SCHEMA_VERSION = "tensorbound/1"


def _only(values, kinds) -> bool:
    """Whether every value is an instance of ``kinds`` and none is a bool
    (the number rule: int or float, subclasses too, never bool)."""
    return all(issubclass(t, kinds) and not issubclass(t, bool) for t in set(map(type, values)))


def _entry_from_json(cell, where: str) -> None:
    """Raise the refusal of a cell that is not a finite [re, im] pair."""
    if not isinstance(cell, (list, tuple)) or len(cell) != 2 or not _only(cell, (int, float)):
        raise ValueError(f"{where}: each entry must be a two-element [re, im] array, got {cell!r}")
    try:
        re, im = float(cell[0]), float(cell[1])
    except OverflowError:  # an integer beyond the float range
        re = im = np.inf
    if not (np.isfinite(re) and np.isfinite(im)):
        raise ValueError(f"{where}: entries must be finite, got {cell!r}")


def matrix_from_json(rows, dim: int, where: str) -> np.ndarray:
    """``rows``, ``dim`` lists of ``dim`` [re, im] pairs, as a complex matrix.

    The pairs go through one numpy conversion. When a row or pair is
    malformed or not finite, a per-entry scan finds and raises the refusal
    of the first bad row or entry. A matrix this function returned passes
    through once its row count is checked to be ``dim``.
    """
    sized = isinstance(rows, (list, np.ndarray))
    if not sized or len(rows) != dim:
        raise ValueError(
            f"{where}: expected {dim} rows, got {len(rows) if sized else type(rows).__name__}"
        )
    if isinstance(rows, np.ndarray):
        return rows
    if _only(rows, list) and set(map(len, rows)) == {dim}:
        cells = list(chain.from_iterable(rows))
        # types are checked before lengths are taken and parts iterated
        pairs = _only(cells, (list, tuple)) and set(map(len, cells)) == {2}
        if pairs and _only(chain.from_iterable(cells), (int, float)):
            with suppress(OverflowError):  # an int past the float range
                parts = np.fromiter(chain.from_iterable(cells), float, 2 * dim * dim)
                if np.isfinite(parts).all():
                    # Consecutive (re, im) parts are one complex entry each.
                    return parts.view(complex).reshape(dim, dim)
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"{where}: row {r} must have {dim} entries")
        for c, cell in enumerate(row):
            _entry_from_json(cell, f"{where}[{r}][{c}]")


def matrix_to_json(a: np.ndarray) -> list:
    """Rows of [re, im] pairs: tolist of a float view gives each part exactly."""
    a = np.ascontiguousarray(a, dtype=complex)
    return a.view(float).reshape(*a.shape, 2).tolist()


def _positive_int(value, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


def graph_from_json(obj, m: int) -> InteractionGraph:
    """Graph object {"edges": [[i, j], ...]} with 0-based vertex indices.

    Each refusal names the edge as the file writes it, ``graph.edges[k]``.
    """
    if not isinstance(obj, dict):
        raise ValueError("graph must be an object with an 'edges' array")
    if "m" in obj and obj["m"] != m:
        raise ValueError(f"graph declares m={obj['m']} but the instance has m={m}")
    edges_raw = obj.get("edges")
    if not isinstance(edges_raw, list):
        raise ValueError("graph.edges must be an array of [i, j] pairs")
    first = {}  # each edge {i, j}, as (min, max), at the index of its first occurrence
    for k, pair in enumerate(edges_raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
        ):
            raise ValueError(f"graph.edges[{k}]: expected a pair of integers, got {pair!r}")
        i, j = pair
        where = f"graph.edges[{k}] = [{i}, {j}]"
        if not (0 <= i < m and 0 <= j < m):
            raise ValueError(f"{where} out of range for m={m} (0-based)")
        if i == j:
            raise ValueError(f"{where} is a self-loop, which is not allowed")
        key = (min(i, j), max(i, j))
        if key in first:
            raise ValueError(f"{where} duplicates graph.edges[{first[key]}]")
        first[key] = k
    return InteractionGraph(m, [(i + 1, j + 1) for i, j in first])


def graph_to_json(g: InteractionGraph) -> dict:
    return {"edges": [[i - 1, j - 1] for i, j in g.edges]}


def instance_from_dict(doc) -> tuple[TensorSumInstance, InteractionGraph | None]:
    if not isinstance(doc, dict):
        raise ValueError("instance file must hold a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION!r}")
    dim_h = _positive_int(doc.get("dim_h"), "dim_h")
    dim_k = _positive_int(doc.get("dim_k"), "dim_k")
    x_raw = doc.get("x")
    y_raw = doc.get("y")
    if not isinstance(x_raw, list) or not x_raw:
        raise ValueError("x must be a nonempty array of matrices")
    if not isinstance(y_raw, list) or len(y_raw) != len(x_raw):
        raise ValueError(f"y must be an array of {len(x_raw)} matrices to match x")
    m = len(x_raw)
    x = [matrix_from_json(rows, dim_h, f"x[{k}]") for k, rows in enumerate(x_raw)]
    y = [matrix_from_json(rows, dim_k, f"y[{k}]") for k, rows in enumerate(y_raw)]
    weights = doc.get("weights")
    if weights is not None:
        if not isinstance(weights, list) or len(weights) != m:
            raise ValueError(f"weights must be an array of {m} numbers")
        if not _only(weights, (int, float)):
            raise ValueError("weights must be numbers")
    inst = TensorSumInstance(x, y, weights)
    graph = None
    if doc.get("graph") is not None:
        graph = graph_from_json(doc["graph"], m)
    return inst, graph


def _layout(inst: TensorSumInstance, graph: InteractionGraph | None) -> dict:
    """The file's top-level keys in file order, with x and y as the stacks."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "dim_h": inst.dim_h,
        "dim_k": inst.dim_k,
        "x": inst.x,
        "y": inst.y,
        "weights": inst.weights.tolist(),
    }
    if graph is not None:
        doc["graph"] = graph_to_json(graph)
    return doc


def instance_to_dict(
    inst: TensorSumInstance, graph: InteractionGraph | None = None
) -> dict:
    return {
        k: [matrix_to_json(a) for a in v] if isinstance(v, np.ndarray) else v
        for k, v in _layout(inst, graph).items()
    }


_WINDOW = 1 << 20  # characters of text the reader holds, or twice a matrix's


def _walk(f):
    """The JSON object in the text file ``f``, its keys and values each
    decoded by json's C scanner, and each x or y matrix converted at its own
    row count before the next is decoded; one that fails, or is empty or not
    a list, stays as json decoded it, for instance_from_dict's checks.

    The text is read through a window that holds the file from the value
    being decoded on: at least _WINDOW characters, and before each matrix
    twice the last matrix's text, so that each matrix of a file the writer
    made is decoded once. A value is taken only if the file has ended or
    more than two characters of the window follow it (a number cut off at
    the edge decodes short, and may end up to two characters before it);
    otherwise the window doubles and the value is decoded again. Raises
    ValueError, for _read_json to read the text whole, if the text is not a
    JSON object or not UTF-8.
    """
    decode, space = json.JSONDecoder().raw_decode, json.decoder.WHITESPACE
    text, base, eof, last = "", 0, False, 0  # the window starts at position base
    doc = {}

    def fill(i: int, size: int) -> int:  # the window's index of i, with size characters from i
        nonlocal text, base, eof
        have = base + len(text) - i
        if have < size and not eof:
            want = max(_WINDOW, size) - have
            more = f.read(want)
            text, base, eof = text[i - base :] + more, i, len(more) < want
        return i - base

    def at(i: int, char: str) -> bool:
        return text.startswith(char, i - base)

    def value(i: int):  # the value at i and the position past it
        while True:
            j = fill(i, 1)
            try:
                obj, end = decode(text, j)
                if end + 2 < len(text) or eof:  # "1.", "1e" or "1e-" at the edge goes on
                    return obj, base + end
            except ValueError:
                if eof:
                    raise
            fill(i, 2 * (len(text) - j))

    def skip(i: int, char: str = "") -> int:  # past ``char`` at i and the whitespace after
        if not at(i, char):
            raise ValueError(f"expected {char!r} at {i}")
        i += len(char)
        while True:  # whitespace may run on past the window
            j = fill(i, 1)
            i = base + space.match(text, j).end()
            if i < base + len(text) or eof:
                return i

    def members(i: int, close: str, member) -> int:  # past the container opening at i
        i = skip(i + 1)
        if at(i, close):
            return i + 1
        while not at(i := skip(member(i)), close):
            i = skip(i, ",")
        return i + 1

    def member(i: int) -> int:
        if not at(i, '"'):  # a key is a string; raw_decode would take any value
            raise ValueError(f"expected a key at {i}")
        key, i = value(i)
        i = skip(skip(i), ":")
        if key not in ("x", "y") or not at(i, "["):
            doc[key], i = value(i)
            return i
        doc[key] = stack = []

        def matrix(j: int) -> int:
            nonlocal last
            fill(j, 2 * last)
            rows, end = value(j)
            last = end - j
            if isinstance(rows, list) and rows:
                with suppress(ValueError):
                    rows = matrix_from_json(rows, len(rows), key)
            stack.append(rows)
            return end

        return members(i, "]", matrix)

    i = skip(0)
    if not at(i, "{") or skip(members(i, "}", member)) != base + len(text):
        raise ValueError("not one JSON object")
    return doc


def _read_json(path):
    """_walk of the file, with the cyclic collector paused: the many small
    [re, im] lists that decoding builds would set off passes that rescan
    them, and it makes no cycles, so reference counting frees all. A file
    _walk refuses is read whole and given to json.loads, so every refusal,
    and the UTF-8 error's byte position, is that of the whole text."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        with suppress(ValueError), Path(path).open(encoding="utf-8") as f:
            return _walk(f)
        try:
            return json.loads(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not valid UTF-8: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    finally:
        if collecting:
            gc.enable()


def load_instance(path) -> tuple[TensorSumInstance, InteractionGraph | None]:
    """The instance in the file, read through a window of its text and
    decoded and converted one matrix at a time (_walk) in any key order:
    besides the converted matrices, the peak holds the window and one
    matrix's lists, not the file's text. Refusals are those of
    instance_from_dict(json.loads(text))."""
    return instance_from_dict(_read_json(path))


def save_instance(
    path, inst: TensorSumInstance, graph: InteractionGraph | None = None
) -> None:
    """One compact top-level key per line, written one matrix row at a time.

    Each value is ``json.dumps`` of it (json uses its C encoder only without
    indent), and a stack is written as the list of its matrices, each the
    list of its rows, so the file holds the bytes of ``json.dumps`` of
    ``instance_to_dict``'s values. Only one row's lists and text are held at
    once, not a matrix's or the whole document's.
    """
    with Path(path).open("w", encoding="utf-8") as f:
        sep = "{\n"
        for key, value in _layout(inst, graph).items():
            f.write(f"{sep}  {json.dumps(key)}: ")
            if isinstance(value, np.ndarray):
                for k, a in enumerate(value):
                    f.write(", [" if k else "[[")
                    for r, row in enumerate(a):
                        f.write((", " if r else "") + json.dumps(matrix_to_json(row)))
                    f.write("]")
                f.write("]")
            else:
                f.write(json.dumps(value))
            sep = ",\n"
        f.write("\n}\n")


def load_graph(path, m: int) -> InteractionGraph:
    """Standalone graph file: {"edges": [[i, j], ...]}, 0-based."""
    return graph_from_json(_read_json(path), m)
