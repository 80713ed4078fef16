"""Reference values and output checks, computed outside the timed region.

References use plain numpy and share no code with tensorbound: phi from
batched SVDs of the commutators and anticommutators, the tensor sum from
its own assembly, its norm from an SVD and its spectrum from ``eigvalsh``.
The demo instances behind ``tests/golden`` are checked against the
golden reports. Tolerances scale with the weights they guard.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads

REL_TOL = 1e-9
GOLDEN_TOL = 1e-9  # absolute, as in the golden tests
# The program's edge-domination rule: a non-edge violates when lhs > rhs + DOM_TOL.
DOM_TOL = 1e-12
# Sweeps and `bound` accept exact^2 up to the bound plus this slack (--tol).
BOUND_SLACK = 1e-8
# Largest assembled dimension whose norm is also taken by SVD; at 2048 the
# SVD takes 6 s, so there the norm comes from the eigenvalues alone.
SVD_MAX_DIM = 1024


# ---------------------------------------------------------------------------
# references


def top_singular_values(stack: np.ndarray) -> np.ndarray:
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def phi_matrix(x, y) -> np.ndarray:
    """phi_ij for all pairs from SVD norms of [x_i,x_j], {x_i,x_j}, ..."""
    m = len(x)
    out = np.zeros((m, m))
    if m < 2:
        return out
    iu = np.triu_indices(m, 1)
    norms = []
    for ops in (np.stack(x), np.stack(y)):
        a, b = ops[iu[0]], ops[iu[1]]
        ab, ba = a @ b, b @ a
        norms.append((top_singular_values(ab - ba), top_singular_values(ab + ba)))
    (cx, ax), (cy, ay) = norms
    out[iu] = 0.5 * (cx * cy + ax * ay)
    return out + out.T


def assemble(x, y, weights) -> np.ndarray:
    """B = sum_i c_i x_i (x) y_i, with index (a, c) for row a of x and c of y."""
    xs, ys = np.stack(x), np.stack(y)
    t = np.tensordot(np.asarray(weights)[:, None, None] * xs, ys, axes=(0, 0))
    n = xs.shape[1] * ys.shape[1]
    return t.transpose(0, 2, 1, 3).reshape(n, n)


@dataclass
class Reference:
    m: int
    dim_h: int
    dim_k: int
    sum_c2: float
    sum_abs_c: float
    total_phi: float
    complete: float
    edges: frozenset | None = None  # 1-based pairs
    graph_constant: float | None = None
    edge_phi: float | None = None
    sparse: float | None = None
    dom_checks: dict | None = None  # 1-based non-edge -> (lhs, rhs)
    dom_satisfied: bool | None = None  # None: a non-edge sits on the tolerance
    svd_norm: float | None = None
    eigenvalues: np.ndarray | None = None

    @property
    def norm(self) -> float:
        """||B||: the SVD norm where taken, which must agree with the eigenvalues."""
        from_eig = float(np.max(np.abs(self.eigenvalues)))
        if self.svd_norm is None:
            return from_eig
        if abs(self.svd_norm - from_eig) > self.eig_tol:
            raise CheckFailure(f"reference SVD norm {self.svd_norm!r} != eigenvalue norm {from_eig!r}")
        return self.svd_norm

    @property
    def tol(self) -> float:
        """Slack for values built from phi sums, which grow with m sum c_i^2."""
        return REL_TOL * self.m * max(1.0, self.sum_c2)

    @property
    def eig_tol(self) -> float:
        """Slack for eigenvalues, which are bounded by sum |c_i|."""
        return REL_TOL * max(1.0, self.sum_abs_c)


def reference(x, y, weights, edges=None, exact=False) -> Reference:
    """All reference values of one instance; ``edges`` are 0-based pairs."""
    w = np.asarray(weights, dtype=float)
    m = len(x)
    phi = phi_matrix(x, y)
    wphi = np.abs(np.outer(w, w)) * phi
    iu = np.triu_indices(m, 1)
    sum_c2 = float(np.sum(w ** 2))
    total = float(np.sum(wphi[iu]))
    ref = Reference(
        m=m, dim_h=x[0].shape[0], dim_k=y[0].shape[0], sum_c2=sum_c2,
        sum_abs_c=float(np.sum(np.abs(w))), total_phi=total, complete=sum_c2 + total,
    )
    if edges is not None:
        _graph_reference(ref, wphi, edges)
    if exact:
        b = assemble(x, y, w)
        ref.eigenvalues = np.linalg.eigvalsh(b)
        if b.shape[0] <= SVD_MAX_DIM:
            ref.svd_norm = float(top_singular_values(b))
    return ref


def _graph_reference(ref: Reference, wphi: np.ndarray, edges) -> None:
    m = ref.m
    nbrs = [set() for _ in range(m)]
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    ref.edges = frozenset((i + 1, j + 1) for i, j in edges)
    degree = min(len(s) for s in nbrs)
    ref.graph_constant = 2.0 * (m - 1) / degree - 1.0 if degree else None
    ref.edge_phi = float(sum(wphi[i, j] for i, j in edges))
    avg = [sum(wphi[i, k] for k in s) / len(s) if s else 0.0 for i, s in enumerate(nbrs)]
    ref.dom_checks = {}
    satisfied, ambiguous = True, False
    for i in range(m):
        for j in range(i + 1, m):
            if j in nbrs[i]:
                continue
            lhs, rhs = float(wphi[i, j]), avg[i] + avg[j]
            ref.dom_checks[(i + 1, j + 1)] = (lhs, rhs)
            margin = rhs + DOM_TOL - lhs
            ambiguous |= abs(margin) <= ref.tol
            satisfied &= margin >= 0
    ref.dom_satisfied = None if ambiguous else satisfied
    if satisfied and ref.graph_constant is not None:
        ref.sparse = ref.sum_c2 + ref.graph_constant * ref.edge_phi


def read_instance(path: Path):
    """(x, y, weights, 0-based edges) from a tensorbound/1 file."""
    doc = json.loads(path.read_text(encoding="utf-8"))

    def mats(key):
        a = np.asarray(doc[key], dtype=float)
        return list(a[..., 0] + 1j * a[..., 1])

    x, y = mats("x"), mats("y")
    weights = doc.get("weights") or [1.0] * len(x)
    graph = doc.get("graph")
    edges = None if graph is None else [tuple(e) for e in graph["edges"]]
    return x, y, weights, edges


# ---------------------------------------------------------------------------
# output parsing

_KV = re.compile(r"^([a-z_]+):\s*(.*)$")
_NON_EDGE = re.compile(
    r"non-edge \((\d+),(\d+)\): lhs (\S+)\s+rhs (\S+)\s+slack (\S+)\s+\[(\w+)\]"
)
_TEXT_ALIASES = {
    "aggregate_all_pairs_lower_bound": "aggregate_all_pairs",
    "aggregate_edges_lower_bound": "aggregate_edges",
}


def _scalar(text: str):
    if text in ("true", "false"):
        return text == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


@dataclass
class Parsed:
    fields: dict
    dom_satisfied: bool | None = None
    dom_checks: dict | None = None  # 1-based pair -> (lhs, rhs, violated)
    eigenvalues: list | None = None


def parse(stdout: str, fmt: str) -> Parsed:
    if fmt == "json":
        doc = json.loads(stdout)
        dom = doc.get("domination") if isinstance(doc.get("domination"), dict) else None
        if "checks" in doc:
            dom = doc
        fields = {k: v for k, v in doc.items() if not isinstance(v, (dict, list))}
        parsed = Parsed(fields=fields, eigenvalues=doc.get("eigenvalues"))
        if dom is not None:
            violated = {tuple(c["pair"]) for c in dom["violations"]}
            parsed.dom_satisfied = dom["satisfied"]
            parsed.dom_checks = {
                tuple(c["pair"]): (c["lhs"], c["rhs"], tuple(c["pair"]) in violated)
                for c in dom["checks"]
            }
        return parsed
    parsed = Parsed(fields={})
    for line in stdout.splitlines():
        if line.startswith("edge domination ("):
            parsed.dom_satisfied = "VIOLATED" not in line
            parsed.dom_checks = {}
        elif (hit := _NON_EDGE.search(line)) and parsed.dom_checks is not None:
            i, j, lhs, rhs, _, status = hit.groups()
            parsed.dom_checks[(int(i), int(j))] = (float(lhs), float(rhs), status == "violated")
        elif hit := _KV.match(line):
            key, value = hit.groups()
            if key == "eigenvalues":
                parsed.eigenvalues = [float(v) for v in value.split(", ")]
            else:
                parsed.fields[_TEXT_ALIASES.get(key, key)] = _scalar(value)
    return parsed


# ---------------------------------------------------------------------------
# checks: each returns None when the output is correct, else the reason


class CheckFailure(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailure(what)


def _close(parsed: Parsed, key: str, expected, tol: float) -> None:
    got = parsed.fields.get(key)
    _require(isinstance(got, (int, float)) and not isinstance(got, bool),
             f"{key}: expected a number, got {got!r}")
    _require(math.isfinite(got) and abs(got - expected) <= tol,
             f"{key}: {got!r} differs from reference {expected!r} by more than {tol:.3g}")


def _absent(parsed: Parsed, key: str) -> None:
    _require(parsed.fields.get(key) is None, f"{key}: expected none, got {parsed.fields.get(key)!r}")


class Checker:
    """Checks every operation's output against independent references.

    Built after the worker has exited: it regenerates the workload's
    instances from the seed, confirms the files the program wrote hold
    exactly those values, and reads the demo files written by ``demo``.
    """

    def __init__(self, workload: str, seed: int, scale: str, root: Path, work: Path):
        self.ops = {op.key: op for op in workloads.cycle(workload, seed, scale, work, root)}
        self.dim_cap = workloads.dim_cap(scale, workload)
        self.refs: dict[str, Reference] = {}
        self.goldens = workloads.goldens(root) if workload == "sweep-small" else {}
        self.setup_errors: list[str] = []
        exact = workload == "exact-dense"
        for spec in workloads.instances(workload, seed, scale):
            self._verify_file(work / spec.filename, spec)
            self.refs[spec.name] = reference(spec.x, spec.y, spec.weights, spec.edges, exact)
        for op in self.ops.values():
            if op.command == "demo" and op.target not in self.refs:
                path = work / workloads.DEMO_DIR / f"{op.target}.json"
                if path.exists():
                    x, y, w, edges = read_instance(path)
                    self.refs[op.target] = reference(x, y, w, edges, exact=True)

    def _verify_file(self, path: Path, spec) -> None:
        try:
            x, y, w, edges = read_instance(path)
        except (OSError, ValueError, KeyError) as exc:
            self.setup_errors.append(f"{path.name}: unreadable: {exc}")
            return
        same = (
            all(np.array_equal(a, b) for a, b in zip(x, spec.x))
            and all(np.array_equal(a, b) for a, b in zip(y, spec.y))
            and np.array_equal(np.asarray(w), spec.weights)
            and (edges is None) == (spec.edges is None)
            and (edges is None or sorted(edges) == sorted(spec.edges))
            and len(x) == spec.m
        )
        if not same:
            self.setup_errors.append(f"{path.name}: written values differ from the generated instance")

    def tally(self, outputs: dict) -> tuple[int, int, list[str]]:
        """(attempted, failed, reasons) over a worker's outputs, given as
        {key: [[exit code, stdout, count], ...]}."""
        attempted = failed = 0
        reasons = list(self.setup_errors)
        for key, seen in outputs.items():
            for code, stdout, count in seen:
                attempted += count
                reason = self.check(key, code, stdout)
                if reason is not None:
                    failed += count
                    reasons.append(reason)
        return attempted, failed, reasons

    def check(self, key: str, code, stdout: str) -> str | None:
        op = self.ops.get(key)
        if op is None:
            return f"unknown operation {key}"
        if isinstance(code, str):
            return code
        try:
            if op.command == "sweep":
                self._sweep(op, code, stdout)
            elif op.target in self.goldens:
                self._golden(op, code, stdout)
            else:
                self._generated(op, code, stdout)
        except CheckFailure as exc:
            return f"{key}: {exc}"
        except (ValueError, KeyError, TypeError) as exc:
            return f"{key}: unparseable output: {exc!r}"
        return None

    # -- sweep-small --------------------------------------------------------

    def _sweep(self, op, code, stdout) -> None:
        _require(code == 0, f"exit {code}, expected 0")
        doc = json.loads(stdout)
        trials = int(op.argv[op.argv.index("--trials") + 1])
        _require(doc["trials"] == trials and doc["seed"] == int(op.target), "trials or seed differ")
        _require(doc["violations"] == [], f"violations {doc['violations']}")
        for ratio in ("max_complete_ratio", "max_sparse_ratio"):
            value = doc[ratio]
            _require(value is None or value <= 1.0 + 1e-6, f"{ratio} {value} exceeds 1")

    def _golden(self, op, code, stdout) -> None:
        golden = self.goldens[op.target]["report"]
        dom = golden.get("domination")
        fails = dom is not None and not dom["satisfied"]
        expected_code = 1 if fails else 0
        _require(code == expected_code, f"exit {code}, expected {expected_code}")
        parsed = parse(stdout, "text" if op.command == "certify" and fails else op.fmt)
        if op.command == "bound":
            for key, value in golden.items():
                if key == "domination":
                    self._golden_domination(parsed, dom)
                elif value is None:
                    _absent(parsed, key)
                elif isinstance(value, float):
                    _close(parsed, key, value, GOLDEN_TOL)
                else:
                    _require(parsed.fields.get(key) == value, f"{key}: {parsed.fields.get(key)!r} != {value!r}")
        elif op.command == "check-domination" or fails:
            self._golden_domination(parsed, dom)
        else:  # certify, beta computed
            beta = parsed.fields.get("beta")
            _close(parsed, "beta", golden["exact_lambda_max"], GOLDEN_TOL)
            _require(parsed.fields.get("beta_source") == "computed", "beta_source")
            self._certificate(parsed, beta, golden["sum_c_squared"], golden.get("graph_constant"), GOLDEN_TOL)

    def _golden_domination(self, parsed: Parsed, dom) -> None:
        _require(parsed.dom_satisfied == dom["satisfied"], f"domination satisfied {parsed.dom_satisfied}")
        pinned = {tuple(v["pair"]): v for v in dom.get("violations", [])}
        got = {p for p, (_, _, bad) in parsed.dom_checks.items() if bad}
        if "violations" in dom:
            _require(got == set(pinned), f"violations at {sorted(got)}, expected {sorted(pinned)}")
        for pair, v in pinned.items():
            lhs, rhs, _ = parsed.dom_checks[pair]
            _require(abs(lhs - v["lhs"]) <= GOLDEN_TOL and abs(rhs - v["rhs"]) <= GOLDEN_TOL,
                     f"non-edge {pair}: lhs/rhs differ from the golden")

    @staticmethod
    def _certificate(parsed: Parsed, beta, sum_c2, graph_constant, tol) -> None:
        _close(parsed, "sum_c_squared", sum_c2, tol)
        excess = max(0.0, beta ** 2 - sum_c2)
        _close(parsed, "excess", excess, tol)
        _close(parsed, "aggregate_all_pairs", excess, tol)
        if graph_constant is None:
            _absent(parsed, "graph_constant")
        else:
            _close(parsed, "graph_constant", graph_constant, tol)
            _close(parsed, "aggregate_edges", excess / graph_constant, tol)
            _require(parsed.fields.get("domination") == "verified", "domination not verified")

    # -- exact-dense and wide-files ------------------------------------------

    def _generated(self, op, code, stdout) -> None:
        ref = self.refs.get(op.target)
        _require(ref is not None, f"no reference for {op.target} (file not written?)")
        fails = ref.edges is not None and ref.dom_satisfied is False
        can_fail = ref.edges is not None and ref.dom_satisfied is not True
        if op.command in ("exact", "demo"):
            expected = {0}
        else:
            expected = {0, 1} if can_fail and not fails else {1 if fails else 0}
        _require(code in expected, f"exit {code}, expected {sorted(expected)}")
        dom_failed = code == 1
        parsed = parse(stdout, "text" if op.command == "certify" and dom_failed else op.fmt)
        if op.command == "exact":
            self._exact(parsed, ref)
        elif op.command in ("bound", "demo"):
            self._bound(parsed, ref)
        elif op.command == "check-domination":
            self._domination(parsed, ref)
        elif dom_failed:  # certify refused: domination fails
            _require(parsed.dom_satisfied is False, "certify exited 1 without a domination failure")
        else:
            beta = parsed.fields.get("beta")
            if "--beta" in op.argv:
                _close(parsed, "beta", float(op.argv[op.argv.index("--beta") + 1]), 0.0)
                _require(parsed.fields.get("beta_source") == "supplied", "beta_source")
            else:
                _close(parsed, "beta", float(ref.eigenvalues[-1]), ref.eig_tol)
                _require(parsed.fields.get("beta_source") == "computed", "beta_source")
            self._certificate(parsed, beta, ref.sum_c2, ref.graph_constant, ref.tol)

    def _exact(self, parsed: Parsed, ref: Reference) -> None:
        eig = parsed.eigenvalues
        _require(eig is not None and len(eig) == len(ref.eigenvalues), "eigenvalue count")
        err = float(np.max(np.abs(np.asarray(eig) - ref.eigenvalues)))
        _require(err <= ref.eig_tol, f"eigenvalues differ from reference by {err:.3g}")
        _close(parsed, "spectral_norm", ref.norm, ref.eig_tol)
        _close(parsed, "lambda_max", float(ref.eigenvalues[-1]), ref.eig_tol)
        _close(parsed, "lambda_min", float(ref.eigenvalues[0]), ref.eig_tol)
        _require(parsed.fields["spectral_norm"] ** 2 <= ref.complete + BOUND_SLACK,
                 "exact norm exceeds the complete bound")

    def _bound(self, parsed: Parsed, ref: Reference) -> None:
        for key, value in (("m", ref.m), ("dim_h", ref.dim_h), ("dim_k", ref.dim_k)):
            _require(parsed.fields.get(key) == value, f"{key}: {parsed.fields.get(key)!r} != {value}")
        _close(parsed, "sum_c_squared", ref.sum_c2, ref.tol)
        _close(parsed, "total_phi_sum", ref.total_phi, ref.tol)
        _close(parsed, "complete_bound", ref.complete, ref.tol)
        bounds = [parsed.fields["complete_bound"]]
        if ref.edges is not None:
            _close(parsed, "edge_phi_sum", ref.edge_phi, ref.tol)
            if ref.graph_constant is not None:
                _close(parsed, "graph_constant", ref.graph_constant, ref.tol)
            if ref.dom_satisfied is not None:
                _require(parsed.dom_satisfied == ref.dom_satisfied, "domination outcome")
            if parsed.dom_satisfied and ref.sparse is not None:
                _close(parsed, "sparse_bound", ref.sparse, ref.tol)
                bounds.append(parsed.fields["sparse_bound"])
            elif not parsed.dom_satisfied:
                _absent(parsed, "sparse_bound")
        exact = parsed.fields.get("exact_norm_squared")
        if ref.dim_h * ref.dim_k <= self.dim_cap:
            _close(parsed, "exact_norm_squared", ref.norm ** 2, 2 * ref.eig_tol * max(1.0, ref.norm))
            _close(parsed, "exact_lambda_max", float(ref.eigenvalues[-1]), ref.eig_tol)
        if exact is not None:
            _require(all(exact <= b + BOUND_SLACK for b in bounds), "exact norm^2 exceeds a bound")

    def _domination(self, parsed: Parsed, ref: Reference) -> None:
        if ref.dom_satisfied is not None:
            _require(parsed.dom_satisfied == ref.dom_satisfied, "domination outcome")
        _require(set(parsed.dom_checks) == set(ref.dom_checks), "non-edge set differs")
        for pair, (lhs, rhs) in ref.dom_checks.items():
            got_lhs, got_rhs, _ = parsed.dom_checks[pair]
            _require(abs(got_lhs - lhs) <= ref.tol and abs(got_rhs - rhs) <= ref.tol,
                     f"non-edge {pair}: lhs/rhs differ from reference")
