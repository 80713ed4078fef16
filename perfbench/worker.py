"""Workload process: set up, then drive tensorbound.cli.main in a closed loop.

Run by ``run.py``; one process per set-up sample. Set-up imports
tensorbound from the checkout's ``src``, writes the workload's instance
files with the program's own writer, and warms up every subcommand. The
process then prints ``READY`` and, unless ``--setup-only`` is given, runs
whole operation cycles until ``--seconds`` have passed. Each operation is
one ``cli.main(argv)`` call with stdout and stderr captured; the next one
starts only after it returns. The last stdout line is a JSON record of
latencies, exit codes, the distinct outputs of each operation, resource
use and, in the traced run, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from tensorbound import cli  # noqa: E402
from tensorbound.bounds import TensorSumInstance  # noqa: E402
from tensorbound.graphs import InteractionGraph  # noqa: E402
from tensorbound.instance_io import save_instance  # noqa: E402

_PROBE_MATRIX = np.random.default_rng(0).standard_normal((160, 160))
_PROBE_MATRIX = _PROBE_MATRIX + _PROBE_MATRIX.T


# A probe between operations at most this often, so that each operation's
# probe describes the machine's speed while it ran.
PROBE_INTERVAL_S = 1.0


def probe_ms() -> float:
    """Fixed CPU work (a Python loop and small eigensolves), median of 3, in ms."""
    times = []
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        for _ in range(5):
            np.linalg.eigvalsh(_PROBE_MATRIX)
        times.append((perf_counter() - start) * 1e3)
    return sorted(times)[1]


def run_op(argv) -> tuple[int | str, str]:
    """One CLI invocation: (exit code, or "raised: ..." if it raised; stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 0
        except Exception as exc:  # counted as a failed operation
            code = f"raised: {exc!r}"
    return code, out.getvalue()


def write_inputs(workload: str, seed: int, scale: str, work: Path) -> None:
    """Write the workload's instance files with tensorbound's own writer."""
    (work / workloads.DEMO_DIR).mkdir(parents=True, exist_ok=True)
    for spec in workloads.instances(workload, seed, scale):
        inst = TensorSumInstance(spec.x, spec.y, spec.weights)
        graph = None
        if spec.edges is not None:
            graph = InteractionGraph(spec.m, [(i + 1, j + 1) for i, j in spec.edges])
        save_instance(work / spec.filename, inst, graph)
    if workload == "sweep-small":
        for golden in workloads.goldens(ROOT).values():
            argv = ["demo", golden["demo"], "--dir", str(work)]
            if golden["m_arg"] is not None:
                argv += ["--m", str(golden["m_arg"])]
            code, _ = run_op(argv)
            if code != 0:
                raise RuntimeError(f"set-up failed: {' '.join(argv)} exited {code}")


WARMUP = (
    ("demo", "counterexample", "--dir", "{warm}"),
    ("bound", "{warm}/counterexample.json", "--no-graph", "--output", "json"),
    ("bound", "{warm}/counterexample.json"),
    ("exact", "{warm}/counterexample.json"),
    ("check-domination", "{warm}/counterexample.json", "--output", "json"),
    ("certify", "{warm}/counterexample.json", "--no-graph"),
    ("sweep", "--trials", "1", "--seed", "0"),
)


def warm_up(work: Path) -> None:
    """Run every subcommand once on a small instance so lazy loading is done."""
    warm = work / "warmup"
    warm.mkdir(parents=True, exist_ok=True)
    for argv in WARMUP:
        run_op([a.replace("{warm}", str(warm)) for a in argv])


class Outputs:
    """Distinct (exit code, stdout) pairs per operation key, with counts."""

    def __init__(self):
        self.by_key: dict[str, dict[tuple, int]] = {}

    def add(self, key: str, code, stdout: str) -> None:
        seen = self.by_key.setdefault(key, {})
        seen[(code, stdout)] = seen.get((code, stdout), 0) + 1

    def to_json(self) -> dict:
        return {
            key: [[code, stdout, n] for (code, stdout), n in seen.items()]
            for key, seen in self.by_key.items()
        }


def cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def timed_loop(ops, seconds: float, outputs: Outputs) -> dict:
    """Whole cycles until ``seconds`` have passed. Per operation: wall time,
    process CPU time, and the machine-speed probe around it, the mean of
    the probes just before and just after it. The probe runs between
    operations whenever PROBE_INTERVAL_S has passed since the last one."""
    probes = [probe_ms()]
    records = []
    cycles = 0
    start = last_probe = perf_counter()
    while cycles == 0 or perf_counter() - start < seconds:
        for op in ops:
            cpu0 = cpu_s()
            t0 = perf_counter()
            code, stdout = run_op(op.argv)
            wall = perf_counter() - t0
            records.append((wall, cpu_s() - cpu0, len(probes) - 1))
            outputs.add(op.key, code, stdout)
            if perf_counter() - last_probe >= PROBE_INTERVAL_S:
                probes.append(probe_ms())
                last_probe = perf_counter()
        cycles += 1
    probes.append(probe_ms())
    return {
        "ops": [[wall, cpu, (probes[i] + probes[i + 1]) / 2] for wall, cpu, i in records],
        "cycles": cycles,
        "probes_ms": probes,
    }


def traced_loop(ops, seconds: float, outputs: Outputs, workload: str, spans_path: Path) -> dict:
    """Each operation runs once untraced and once traced, in alternating
    order, so the overhead ratio compares the same work under the same
    machine conditions."""
    tracer = spans.Tracer()
    plain = traced = 0.0
    cycles = 0
    n = 0
    start = perf_counter()
    while cycles == 0 or perf_counter() - start < seconds:
        for op in ops:
            for with_trace in ((False, True) if n % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.op = n
                    tracer.install()
                    t0 = perf_counter()
                    code, stdout = tracer.wrap(f"op.{op.command}", run_op)(op.argv)
                    traced += perf_counter() - t0
                    tracer.uninstall()
                    tracer.fold(keep=cycles == 0)
                else:
                    t0 = perf_counter()
                    code, stdout = run_op(op.argv)
                    plain += perf_counter() - t0
                outputs.add(op.key, code, stdout)
            n += 1
        cycles += 1
    stats = tracer.stats()
    metrics = spans.layer_metrics(stats, cycles)
    metrics[spans.OVERHEAD_METRIC] = traced / plain
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    return {
        "cycles": cycles,
        "layers": metrics,
        "zero_layers": spans.zero_layers(metrics, workload),
        "above_cap_reports": stats.get("bounds.build_report.above_cap", 0.0),
        "exact_skipped_reports": stats.get("bounds.build_report.exact_skipped", 0.0),
        "spans_written": len(tracer.kept),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"tensorbound imported from {cli.__file__}, not from {ROOT / 'src'}")
    write_inputs(args.workload, args.seed, args.scale, args.work)
    warm_up(args.work)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    ops = workloads.cycle(args.workload, args.seed, args.scale, args.work, ROOT)
    outputs = Outputs()
    if args.trace:
        before = probe_ms()
        result = traced_loop(ops, args.seconds, outputs, args.workload, args.spans)
        result["probes_ms"] = [before, probe_ms()]
    else:
        result = timed_loop(ops, args.seconds, outputs)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["ops_per_cycle"] = len(ops)
    result["outputs"] = outputs.to_json()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
