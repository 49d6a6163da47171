"""Closed-loop benchmark of augmi: one client, one op at a time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload slam-d150 --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload, each in its own process.  With
``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
every cycle of ops runs once untraced and once traced, and the metrics are
the per-layer ones, including the tracing overhead.  Every
metric, with its unit and sample count, is also printed above that line and
written with the machine facts to ``perfbench/out/``.

The gated latencies are normalized to the machine's current speed: a fixed
reference kernel, outside augmi, is timed between blocks of ops, and each
op's time is scaled by ``REFERENCE_NOMINAL_S`` over the reference time around
it.  The raw wall-clock figures are printed and saved next to them.

The package is imported from ``src/`` of the checkout and nowhere else; a
checkout without it exits with status 2.  Failed correctness checks exit
with status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("slam-d150", "chain-1e4", "plan-h3")
SETUP_REPEATS = 3
# The end-to-end metrics BENCHMARK.json gates: the ones every workload has.
GATED = ("setup_s", "norm_ops_per_s", "norm_op_p50_ms", "peak_rss_mb")
# The reference kernel runs after at least this much op time.
REFERENCE_EVERY_S = 0.25
# What the reference kernel takes on the machine of NOTES.md's baseline when
# it runs at its quiet speed; a normalized time reads as ms on that machine.
REFERENCE_NOMINAL_S = 0.012
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = (
    "import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import augmi; print(time.perf_counter() - start)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: small inputs, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def cap_threads() -> int:
    """Cap BLAS at one thread, before numpy loads.

    The program is single-threaded apart from BLAS, and a second BLAS thread
    on a shared host makes ops stall and their times spread (NOTES.md).
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return 1


def import_augmi() -> bool:
    """Import augmi from the checkout's ``src``; False when it is not there."""
    package = SRC / "augmi"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no augmi package at {package}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import augmi

    if Path(augmi.__file__).resolve().parent != package.resolve():
        print(f"perfbench: augmi imported from {augmi.__file__}, not {package}", file=sys.stderr)
        return False
    return True


def machine_facts(threads: int) -> dict:
    import numpy
    import scipy

    def blas(config):
        info = config.get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": threads,
    }


class Reference:
    """A fixed kernel outside augmi whose time tracks the machine's speed.

    On a shared host the CPU speed drifts by tens of percent over minutes,
    and every op slows with it.  The kernel mixes what augmi's ops spend
    their time on: an interpreted loop, small-matrix linear algebra, a
    medium matrix product and a large elementwise exp.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        small = rng.standard_normal((6, 6))
        self.small = small @ small.T + 6.0 * np.eye(6)
        self.medium = rng.standard_normal((100, 100))
        self.large = rng.standard_normal(200_000)
        self.np = np

    def __call__(self) -> float:
        """Seconds the kernel takes now."""
        np = self.np
        start = time.perf_counter()
        total = 0
        for k in range(50_000):
            total += k * k
        for _ in range(300):
            np.linalg.cholesky(self.small)
            np.linalg.solve(self.small, self.small[0])
        for _ in range(20):
            self.medium @ self.medium
        x = self.large.copy()
        for _ in range(5):
            np.exp(x, out=x)
            np.negative(x, out=x)
        return time.perf_counter() - start


class Phase:
    """Durations (ns) of ops 0, 1, ... as a timed phase ran them, and failures.

    ``slowdowns`` holds, per op, the reference time around it over
    ``REFERENCE_NOMINAL_S``.
    """

    def __init__(self):
        self.durations: list[int] = []
        self.slowdowns: list[float] = []
        self.failures: list[str] = []

    def normalized(self) -> list[float]:
        """Op durations (ns) as they would be at the reference's nominal speed."""
        return [d / s for d, s in zip(self.durations, self.slowdowns)]


def run_op(workload, i, results, failures):
    try:
        out = workload.op(i)
        if not math.isfinite(out[0]):
            raise ValueError(f"non-finite estimate {out[0]!r}")
    except Exception as exc:  # noqa: BLE001 - an op failure is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        failures.append(f"op {i}: {exc!r}")
        out = None
    if i < workload.verify_ops:
        results.setdefault(i, out)


def run_cycle(workload, first, results, phase, recorder=None):
    for i in range(first, first + workload.cycle):
        if recorder is not None:
            recorder.op = i
        start = time.perf_counter_ns()
        run_op(workload, i, results, phase.failures)
        phase.durations.append(time.perf_counter_ns() - start)
    if recorder is not None:
        recorder.op = -1


def timed_phase(workload, seconds, results, recorder=None) -> tuple[Phase, Phase]:
    """Run ops 0, 1, ... in whole cycles until ``seconds`` have passed.

    Cycles run in blocks of at least ``REFERENCE_EVERY_S``, and the reference
    kernel runs before and after each block; an op's slowdown is the mean of
    the two over the nominal.  With a recorder every cycle runs twice,
    untraced and then traced, so the two runs of an op see the same inputs
    and nearly the same machine state.
    """
    plain, traced = Phase(), Phase()
    reference = Reference()
    reference()  # warm-up
    deadline = time.perf_counter() + seconds
    first = 0
    before = reference()
    while first == 0 or time.perf_counter() < deadline:
        starts = (len(plain.durations), len(traced.durations))
        block_end = min(time.perf_counter() + REFERENCE_EVERY_S, deadline)
        while True:
            run_cycle(workload, first, results, plain)
            if recorder is not None:
                recorder.install()
                run_cycle(workload, first, results, traced, recorder)
                recorder.restore()
            first += workload.cycle
            if time.perf_counter() >= block_end:
                break
        after = reference()
        slowdown = (before + after) / (2.0 * REFERENCE_NOMINAL_S)
        for phase, start in zip((plain, traced), starts):
            phase.slowdowns.extend([slowdown] * (len(phase.durations) - start))
        before = after
    return plain, traced


def kind_medians_ms(workload, durations) -> dict:
    """Median duration (ms) and count of each op kind, by latency metric name."""
    medians = {}
    for tag, name in workload.latency.items():
        mine = [d for i, d in enumerate(durations) if workload.tag(i) == tag]
        medians[name] = (statistics.median(mine) / 1e6, "ms", len(mine))
    return medians


def timing_metrics(workload, phase: Phase) -> dict:
    """End-to-end metrics of a timed phase: name -> (value, unit, n)."""
    n = len(phase.durations)
    metrics = {}
    for prefix, durations in (("", phase.durations), ("norm_", phase.normalized())):
        medians = kind_medians_ms(workload, durations)
        metrics[f"{prefix}ops_per_s"] = (n / (sum(durations) / 1e9), "1/s", n)
        # One latency every workload has: the median of each op kind, averaged
        # over the kinds, so that each kind counts alike however many ran.
        metrics[f"{prefix}op_p50_ms"] = (statistics.fmean(m[0] for m in medians.values()), "ms", n)
    metrics["slowdown_p50"] = (statistics.median(phase.slowdowns), "ratio", n)
    metrics.update(kind_medians_ms(workload, phase.durations))
    if n >= 1000:  # ten samples beyond the 99th percentile
        metrics["op_p99_ms"] = (statistics.quantiles(phase.durations, n=100)[98] / 1e6, "ms", n)
    metrics["failed_ratio"] = (len(phase.failures) / n, "ratio", n)
    return metrics


def set_up(cls, args):
    """Build the workload SETUP_REPEATS times and time a fresh import as often.

    The import runs in a child process, the only way to repeat it; building
    covers scenario generation and warm-up.  Returns the last workload built
    and the two lists of times in seconds.
    """
    import_s, build_s = [], []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        import_s.append(float(probe.stdout))
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = cls(args.seed, args.size, OUT)
        build_s.append(time.perf_counter() - start)
    return workload, import_s, build_s


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    threads = cap_threads()
    if not import_augmi():
        return 2
    import spans
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    recorder = spans.SpanRecorder() if args.trace else None
    if recorder is not None:
        recorder.install()

    workload, import_s, build_s = set_up(cls, args)
    setup_s = statistics.median(import_s) + statistics.median(build_s)

    if recorder is not None:
        recorder.restore()
    results: dict[int, object] = {}
    phase, traced = timed_phase(workload, args.seconds / (2 if recorder else 1), results, recorder)
    phases = [phase, traced]
    if recorder is not None:
        overhead_pct = 100.0 * (sum(traced.durations) / sum(phase.durations) - 1.0)
        recorder.install()

    OUT.mkdir(parents=True, exist_ok=True)
    extra_failures: list[str] = []
    for i in range(workload.verify_ops):
        if i not in results:
            run_op(workload, i, results, extra_failures)
    verdict = workload.verify([results[i] for i in range(workload.verify_ops)])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    e2e = {
        "setup_s": (setup_s, "s", SETUP_REPEATS),
        **timing_metrics(workload, phase),
        **verdict.quality,
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    facts = machine_facts(threads)
    failures = [f for p in phases for f in p.failures] + extra_failures
    correct = all(verdict.checks.values()) and not failures
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "machine": facts,
        "end_to_end": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in e2e.items()},
        "set_up": {"import_s": import_s, "build_s": build_s},
        "op_ms": [d / 1e6 for d in phase.durations],
        "slowdowns": phase.slowdowns,
        "checks": verdict.checks, "verification": verdict.values, "failures": failures,
    }

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"size={args.size}")
    print("# " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, (value, unit, n) in e2e.items():
        print(f"{name:24s} {value:14.6g} {unit:6s} n={n}")
    for name, ok in verdict.checks.items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for name, value in verdict.values.items():
        if not isinstance(value, (list, dict)):
            print(f"value {name} = {value!r}")

    if recorder is None:
        metric_units = {name: e2e[name][1] for name in GATED}
        metrics = {name: e2e[name][0] for name in GATED}
    else:
        recorder.restore()
        metric_units = dict(spans.PER_LAYER)
        metrics = spans.layer_metrics(recorder.spans, len(traced.durations), overhead_pct)
        for name, value in metrics.items():
            print(f"{name:28s} {value:14.6g} {metric_units[name]}")
        recorder.write(OUT / f"spans-{args.workload}-{args.size}-seed{args.seed}.jsonl")
        report["per_layer"] = metrics
    result_path = OUT / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(p.durations) for p in phases),
        "failed": sum(len(p.failures) for p in phases),
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in metric_units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
