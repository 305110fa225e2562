"""scamp benchmark: end-to-end timings, or per-layer timings from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload analytic-figures --seed 1 --seconds 12 --trace 0

Workloads are listed in BENCHMARK.json and described in perfbench/README.md.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced replay and writes its spans to ``.perfbench_out/``.
Every pass is checked; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``, and the line
before it is the full run record (machine, seeds, every metric, failures).
"""

from __future__ import annotations

import os
import sys

# Pin native thread pools before numpy is imported anywhere, so the only
# extra threads are the Monte Carlo workers a workload asks for.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

SETUP_INTERPRETERS = 10
MIN_PASSES = 3
END_TO_END_UNITS = {
    "setup_s": "s",
    "dataset_s": "s",
    "point_ms_p50": "ms",
    "point_ms_p90": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class SetupTimer:
    """Wall time of fresh interpreters that import scamp.cli, as every CLI call pays."""

    def __init__(self):
        self.command = [sys.executable, "-c", "import scamp.cli"]
        self.env = child_env()
        self.samples: list[float] = []
        subprocess.run(self.command, env=self.env, check=True)  # writes bytecode caches, untimed

    def sample(self) -> None:
        start = time.perf_counter()
        subprocess.run(self.command, env=self.env, check=True)
        self.samples.append(time.perf_counter() - start)


def read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def machine_record() -> dict:
    import numpy as np

    model = ""
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = read_text(os.path.join(index, "level"))
        kind = read_text(os.path.join(index, "type"))
        size = read_text(os.path.join(index, "size"))
        if level and size:
            caches[f"L{level}{'d' if kind == 'Data' else 'i' if kind == 'Instruction' else ''}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model or platform.processor() or platform.machine(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "thread_pins": {var: os.environ[var] for var in THREAD_VARS},
    }


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0]


def run_untraced(w, seconds: float, setup: SetupTimer, ledger) -> tuple[dict, dict]:
    """Passes alternating with point rounds; interpreter starts spread over the run."""
    ledger.add(w.run_pass())  # warm-up: checked and counted, not timed
    pass_s = []
    call_best: list[float] = []  # best seconds per CLI call of a pass, in pass order
    point_best: list[float] = []  # best seconds per grid point, in grid order
    bitexact = 0
    start = time.perf_counter()
    last = 0.0
    while time.perf_counter() - start + last <= seconds or len(pass_s) < MIN_PASSES:
        began = time.perf_counter()
        outcome = w.run_pass()
        ledger.add(outcome)
        pass_s.append(outcome.seconds)
        call_best = list(map(min, call_best, outcome.call_seconds)) if call_best else outcome.call_seconds
        bitexact = outcome.bitexact_points
        samples = w.point_round()
        for o in samples:
            ledger.add(o)
        times = [o.seconds for o in samples]
        point_best = list(map(min, point_best, times)) if point_best else times
        last = time.perf_counter() - began
        due = min(SETUP_INTERPRETERS, SETUP_INTERPRETERS * (time.perf_counter() - start) / seconds)
        while len(setup.samples) < due:
            setup.sample()
    while len(setup.samples) < SETUP_INTERPRETERS:
        setup.sample()
    # read before the once-per-run checks, whose worker threads are not the workload's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ledger.add(w.final_check())
    # best of the repeats of each identical call, summed over the pass; see README
    dataset_s = sum(call_best)
    point_ms = [t * 1e3 for t in point_best]
    metrics = {
        "setup_s": statistics.median(setup.samples),
        "dataset_s": dataset_s,
        "point_ms_p50": statistics.median(point_ms),
        "point_ms_p90": p90(point_ms),
        "work_per_s": w.work_per_pass() / dataset_s,
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "passes": len(pass_s),
        "grid_points": len(point_ms),
        "work_unit": w.work_unit,
        ("mc_pulses_per_s" if w.work_unit == "pulses" else "points_per_s"): metrics["work_per_s"],
        "call_best_s": call_best,
        "best_pass_s": min(pass_s),
        "median_pass_s": statistics.median(pass_s),
        "analytic.bitexact_points": bitexact,
        "pass_s": pass_s,
        "setup_samples_s": setup.samples,
    }
    if hasattr(w, "fidelity_bias"):
        extra["montecarlo.fidelity_bias"] = {f"N{n}": b for n, b in w.fidelity_bias().items()}
    return metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "scamp", "__init__.py")):
        print(f"perfbench: no scamp package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup = None if args.trace else SetupTimer()
    ledger = workloads.Ledger()
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT)
    try:
        w = workloads.WORKLOADS[args.workload](args.seed, tmpdir, workloads.Reference())
        if args.trace:
            spans = os.path.join(OUT_ROOT, f"spans-{args.workload}-seed{args.seed}.json")
            metrics, extra = tracing.run(w, args.seconds, spans, ledger)
            units = tracing.PER_LAYER_UNITS
        else:
            metrics, extra = run_untraced(w, args.seconds, setup, ledger)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    attempted, failed, failures = ledger.attempted, ledger.failed, ledger.failures
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "mc_seed": getattr(w, "mc_seed", None),
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine_record(),
        "failed_fraction": failed / attempted,
        "failures": failures,
        **extra,
        **result,
    }
    for name, unit in units.items():
        print(f"{args.workload:>17} {name:<42} {metrics[name]:>14.6g} {unit}", file=sys.stderr)
    print(f"{args.workload:>17} {'failed_fraction':<42} {failed / attempted:>14.6g} "
          f"({failed}/{attempted})", file=sys.stderr)
    for msg in failures[:5]:
        print(f"FAILED: {msg}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
