"""Command-line front end.

Subcommands: bound, exact, check-domination, certify, demo, sweep.
Reports go to stdout, diagnostics to stderr. Exit codes: 0 success,
1 validation or precondition failure, 2 usage error, 3 I/O error,
4 sweep violation.

Instance files are JSON (schema "tensorbound/1") with 0-based indices;
all human-readable and JSON report output uses 1-based pair indices.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from .bounds import (
    BoundReport,
    DominationError,
    DominationReport,
    build_report,
    check_domination,
    exact_reference,
    exceeded_bounds,
    extreme_spectrum,
)
from .certificates import CertificateReport, build_certificate_report
from .demos import DEMO_NAMES, PARAMETRIC, build_demo, default_filename
from .graphs import InteractionGraph
from .instance_io import load_graph, load_instance, save_instance
from .linalg import DEFAULT_DIM_CAP, SpectralSummary
from .sweep import GRAPH_MODES, SweepConfig, SweepResult, TrialResult, run_sweep

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SWEEP_VIOLATION = 4


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _kv_lines(items) -> str:
    width = max(len(k) for k, _ in items)
    return "\n".join(f"{k + ':':<{width + 2}}{_fmt(v)}" for k, v in items)


# ---------------------------------------------------------------------------
# report -> dict (JSON) and text renderers


def report_to_dict(rep) -> dict:
    """JSON form of a report dataclass: its fields in declaration order,
    with nested reports, tuples, arrays and dicts encoded recursively. The
    report dataclasses declare their fields in JSON key order, so their
    declarations are the report schema."""
    return {f.name: _jsonable(getattr(rep, f.name)) for f in fields(rep)}


def _jsonable(v):
    if is_dataclass(v):
        return report_to_dict(v)
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, tuple):
        return [_jsonable(x) for x in v]
    return v


def bound_report_to_dict(rep: BoundReport) -> dict:
    """A BoundReport as JSON, led by the marker of its 1-based pairs."""
    return {"indexing": "1-based", **report_to_dict(rep)}


def domination_text(rep: DominationReport) -> str:
    mode = "weighted" if rep.weighted else "unweighted"
    if rep.satisfied:
        head = f"edge domination ({mode}): satisfied ({len(rep.checks)} non-edge(s) checked)"
    else:
        head = (
            f"edge domination ({mode}): VIOLATED at "
            f"{len(rep.violations)} of {len(rep.checks)} non-edge(s)"
        )
    lines = [head]
    for c in rep.checks:
        status = "violated" if c in rep.violations else "ok"
        lines.append(
            f"  non-edge ({c.pair[0]},{c.pair[1]}): lhs {_fmt(c.lhs)}  "
            f"rhs {_fmt(c.rhs)}  slack {_fmt(c.slack)}  [{status}]"
        )
    return "\n".join(lines)


# BoundReport's scalar fields in declaration order: the CSV header and the
# text rows (text skips None values and adds exact_norm).
BOUND_CSV_FIELDS = tuple(
    f.name for f in fields(BoundReport) if f.name not in ("domination", "provenance")
)


def bound_report_text(rep: BoundReport) -> str:
    items = []
    for name in BOUND_CSV_FIELDS:
        value = getattr(rep, name)
        if value is not None:
            items.append((name, value))
            if name == "exact_norm_squared":
                items.append(("exact_norm", value ** 0.5))
    out = [_kv_lines(items)]
    if rep.domination is not None:
        out.append(domination_text(rep.domination))
    return "\n".join(out)


def _csv_table(header, rows) -> str:
    """A header and rows of values as CSV, without the final newline. The
    csv module writes None as an empty cell and floats at full precision."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def bound_report_csv(rep: BoundReport) -> str:
    return _csv_table(BOUND_CSV_FIELDS, [[getattr(rep, k) for k in BOUND_CSV_FIELDS]])


def spectral_text(s: SpectralSummary) -> str:
    return _kv_lines(
        [
            ("eigenvalues", ", ".join(_fmt(float(v)) for v in s.eigenvalues)),
            ("lambda_min", s.lambda_min),
            ("lambda_max", s.lambda_max),
            ("spectral_norm", s.spectral_norm),
            ("norm_squared", s.spectral_norm ** 2),
        ]
    )


def certificate_text(rep: CertificateReport) -> str:
    items = [
        ("beta", rep.beta),
        ("beta_source", rep.beta_source),
        ("sum_c_squared", rep.sum_c_squared),
        ("excess", rep.excess),
        ("aggregate_all_pairs_lower_bound", rep.aggregate_all_pairs),
    ]
    if rep.graph_constant is not None:
        items.append(("graph_constant", rep.graph_constant))
        items.append(("aggregate_edges_lower_bound", rep.aggregate_edges))
        items.append(("domination", rep.domination))
    lines = [_kv_lines(items)]
    for c in rep.counting:
        entry = (
            f"threshold {_fmt(c.threshold)}: pairs >= {c.pairs} "
            f"(excess/t {_fmt(c.pairs_raw)})"
        )
        if c.edges is not None:
            entry += f", edges >= {c.edges} (excess/(C(G) t) {_fmt(c.edges_raw)})"
        lines.append(entry)
    if rep.phi_threshold_variant is not None:
        v = rep.phi_threshold_variant
        entry = (
            f"phi >= {_fmt(v.phi_threshold)} with |c| <= {_fmt(v.c_max)} "
            f"(effective threshold {_fmt(v.effective_threshold)}): pairs >= {v.pairs}"
        )
        if v.edges is not None:
            entry += f", edges >= {v.edges}"
        lines.append(entry)
    return "\n".join(lines)


def sweep_text(result: SweepResult) -> str:
    s = result.summary()
    items = [
        ("trials", s["trials"]),
        ("seed", s["seed"]),
        ("rng", s["rng"]),
        ("graph_mode", s["graph_mode"]),
        ("kinds", ",".join(s["kinds"])),
        ("violations", len(s["violations"])),
        ("domination_satisfied_trials", s["domination_satisfied_trials"]),
        ("max_complete_ratio", s["max_complete_ratio"]),
        ("max_sparse_ratio", s["max_sparse_ratio"]),
        ("min_gap", s["min_gap"]),
        ("mean_gap", s["mean_gap"]),
        ("max_gap", s["max_gap"]),
    ]
    lines = [_kv_lines(items)]
    lines.extend(s["violations"])
    return "\n".join(lines)


def sweep_csv(result: SweepResult) -> str:
    """One row per trial: the TrialResult fields, violations as a count."""
    names = [f.name for f in fields(TrialResult)]
    return _csv_table(
        names,
        ([len(t.violations) if n == "violations" else getattr(t, n) for n in names]
         for t in result.trials),
    )


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, allow_nan=False))  # inf or NaN: ValueError, exit 1


def _print_report(output: str, report, to_text, to_json, to_csv=None) -> None:
    """Print ``report`` as ``--output`` asks, with the given renderers."""
    if output == "json":
        _emit_json(to_json(report))
    else:
        print((to_csv if output == "csv" else to_text)(report))


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_weights(text: str) -> list[float]:
    try:
        return [float(p) for p in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse weights from {text!r}") from None


def _parse_kinds(text: str) -> tuple[str, ...]:
    return tuple(text.replace(",", " ").split())


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorbound",
        description=(
            "Norm bounds and noncommutativity certificates for weighted "
            "bipartite tensor sums of self-adjoint contractions."
        ),
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=1e-8,
        help="relative slack when comparing exact norms against bounds: a bound b "
        "is exceeded when the exact value is above b + tol * b (default 1e-8)",
    )
    parser.add_argument(
        "--dim-cap",
        type=int,
        default=DEFAULT_DIM_CAP,
        help="largest product dimension whose exact norm is computed (default 4096)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, formats=("text", "json")):
        p.add_argument("--output", choices=formats, default="text")

    def add_graph_opts(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument(
            "--graph", metavar="FILE", help="JSON graph file overriding the embedded graph"
        )
        group.add_argument(
            "--no-graph", action="store_true", help="ignore any embedded graph"
        )

    p_bound = sub.add_parser("bound", help="compute every applicable bound for an instance")
    p_bound.add_argument("instance")
    add_graph_opts(p_bound)
    add_output(p_bound, ("text", "json", "csv"))

    p_exact = sub.add_parser("exact", help="assemble the tensor sum and diagonalize it")
    p_exact.add_argument("instance")
    add_output(p_exact)

    p_dom = sub.add_parser("check-domination", help="evaluate edge domination for every non-edge")
    p_dom.add_argument("instance")
    add_graph_opts(p_dom)
    p_dom.add_argument(
        "--unweighted",
        action="store_true",
        help="compare plain phi values instead of |c_i c_j| weighted ones",
    )
    add_output(p_dom)

    p_cert = sub.add_parser(
        "certify", help="turn an observed correlation value into noncommutativity certificates"
    )
    p_cert.add_argument("instance", nargs="?")
    p_cert.add_argument(
        "--weights", type=_parse_weights, help="comma-separated weights, replaces an instance file"
    )
    p_cert.add_argument("--beta", type=float, help="observed value (computed from the instance if omitted)")
    p_cert.add_argument(
        "--threshold",
        "-t",
        type=float,
        action="append",
        default=[],
        help="weighted-mass threshold for pair counting (repeatable)",
    )
    p_cert.add_argument("--phi-threshold", type=float, help="threshold on plain phi values")
    p_cert.add_argument("--c-max", type=float, help="certified bound on |c_i|, required with --phi-threshold")
    add_graph_opts(p_cert)
    add_output(p_cert)

    p_demo = sub.add_parser("demo", help="write a canonical instance file and report on it")
    p_demo.add_argument("name", choices=DEMO_NAMES)
    p_demo.add_argument("--m", type=int, help="size for the parametric demos (clifford, star, chain)")
    p_demo.add_argument("--dir", default=".", help="directory for the instance file (default .)")
    add_output(p_demo, ("text", "json"))

    p_sweep = sub.add_parser(
        "sweep", help="randomized verification sweep of the bounds", argument_default=argparse.SUPPRESS
    )
    p_sweep.add_argument("--trials", type=int, default=500)
    p_sweep.add_argument("--seed", type=int, default=42)
    p_sweep.add_argument("--max-m", type=int)
    p_sweep.add_argument("--max-dim", type=int)
    p_sweep.add_argument("--kinds", type=_parse_kinds, help="comma-separated ensemble kinds to mix")
    p_sweep.add_argument("--graph-mode", choices=GRAPH_MODES)
    add_output(p_sweep, ("text", "json", "csv"))

    return parser


def _resolve_graph(args, embedded: InteractionGraph | None, m: int):
    if args.no_graph:
        return None
    if args.graph:
        return load_graph(args.graph, m)
    return embedded


# ---------------------------------------------------------------------------
# subcommands


def cmd_bound(args, parser) -> int:
    inst, embedded = load_instance(args.instance)
    graph = _resolve_graph(args, embedded, inst.m)
    report = build_report(inst, graph, dim_cap=args.dim_cap)
    _print_report(args.output, report, bound_report_text, bound_report_to_dict, bound_report_csv)

    exceeded = exceeded_bounds(report, args.tol)
    for name, value in exceeded:
        print(
            f"error: exact norm^2 {report.exact_norm_squared!r} exceeds the "
            f"{name} {value!r}; this indicates a bug",
            file=sys.stderr,
        )
    if exceeded:
        return EXIT_VALIDATION
    if graph is not None and report.sparse_bound is None:
        if report.domination is not None and not report.domination.satisfied:
            print(
                "error: edge domination fails, graph-restricted bound not proven",
                file=sys.stderr,
            )
        else:
            print(
                "error: graph has an isolated vertex, connectivity factor undefined",
                file=sys.stderr,
            )
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_exact(args, parser) -> int:
    inst, _ = load_instance(args.instance)
    summary = exact_reference(inst, dim_cap=args.dim_cap)
    _print_report(args.output, summary, spectral_text, report_to_dict)
    return EXIT_OK


def cmd_check_domination(args, parser) -> int:
    inst, embedded = load_instance(args.instance)
    graph = _resolve_graph(args, embedded, inst.m)
    if graph is None:
        parser.error("check-domination needs a graph (embedded or --graph FILE)")
    report = check_domination(inst, graph, weighted=not args.unweighted)
    _print_report(args.output, report, domination_text, report_to_dict)
    return EXIT_OK if report.satisfied else EXIT_VALIDATION


def cmd_certify(args, parser) -> int:
    if (args.instance is None) == (args.weights is None):
        parser.error("provide exactly one of an instance file or --weights")
    if args.phi_threshold is not None and args.c_max is None:
        parser.error("--phi-threshold requires --c-max")

    inst = None
    if args.instance is not None:
        inst, embedded = load_instance(args.instance)
        graph = _resolve_graph(args, embedded, inst.m)
    else:
        if args.beta is None:
            parser.error("--beta is required with --weights")
        graph = _resolve_graph(args, None, len(args.weights))
    if args.beta is None:
        beta = extreme_spectrum(inst, dim_cap=args.dim_cap).lambda_max
        beta_source = "computed"
    else:
        beta = args.beta
        beta_source = "supplied"

    report = build_certificate_report(
        beta,
        weights=args.weights if inst is None else None,
        instance=inst,
        g=graph,
        thresholds=args.threshold,
        phi_threshold=args.phi_threshold,
        c_max=args.c_max,
        beta_source=beta_source,
    )
    _print_report(args.output, report, certificate_text, report_to_dict)
    return EXIT_OK


def cmd_demo(args, parser) -> int:
    if args.name in PARAMETRIC and args.m is None:
        parser.error(f"demo {args.name!r} requires --m")
    if args.name not in PARAMETRIC and args.m is not None:
        parser.error(f"demo {args.name!r} does not take --m")
    inst, graph = build_demo(args.name, args.m)
    path = Path(args.dir) / default_filename(args.name, args.m)
    save_instance(path, inst, graph)
    print(f"wrote {path}", file=sys.stderr)
    report = build_report(inst, graph, dim_cap=args.dim_cap)
    _print_report(args.output, report, bound_report_text, bound_report_to_dict)
    return EXIT_OK


def cmd_sweep(args, parser) -> int:
    # a sweep option not given is absent from args, so SweepConfig's default applies
    given = vars(args)
    config = SweepConfig(**{f.name: given[f.name] for f in fields(SweepConfig) if f.name in given})
    result = run_sweep(config)
    _print_report(args.output, result, sweep_text, SweepResult.summary, sweep_csv)
    return EXIT_OK if result.passed else EXIT_SWEEP_VIOLATION


COMMANDS = {
    "bound": cmd_bound,
    "exact": cmd_exact,
    "check-domination": cmd_check_domination,
    "certify": cmd_certify,
    "demo": cmd_demo,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 0 <= args.tol < np.inf:  # NaN, inf or a negative slack would void the bound self-check
        parser.error(f"argument --tol: must be finite and non-negative, got {args.tol!r}")
    if args.dim_cap < 1:  # a cap below 1 skips every exact value and so the self-check
        parser.error(f"argument --dim-cap: must be at least 1, got {args.dim_cap!r}")
    try:
        return COMMANDS[args.command](args, parser)
    except DominationError as exc:
        print(domination_text(exc.report))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
