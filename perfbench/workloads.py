"""The benchmark's workloads.

Each workload turns the benchmark seed into its inputs, runs one timed pass
through the package's public entry points, times single grid points, and
checks every output it produces.  The program only sees the generated
specs and argument lists.  Grids are spelled out here rather than read from
``scamp.params``, so a change to the program's defaults shows up as a
failed check instead of silently changing the workload.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from scamp import cli, montecarlo, params, sweep

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference", "analytic.csv")

# Analytic output columns checked against the reference.  The tolerance is
# for values that are meant to agree; equal 17-digit text is counted
# separately as bit-exact.
ANALYTIC_COLUMNS = (
    "fidelity",
    "correct_state_fraction",
    "success_probability",
    "success_rate_per_s",
    "visibility_unconditioned",
    "visibility_d0_silent",
    "visibility_conditioned",
)
REL_TOL = 1e-9
ABS_TOL = 1e-15
MC_SIGMAS = 5.0
# one-sided normal tail beyond MC_SIGMAS sigma
MC_TAIL = 0.5 * math.erfc(MC_SIGMAS / math.sqrt(2.0))

FIG3_GRID = tuple(round(0.1 * i, 10) for i in range(1, 30))
FIG4_GRID = tuple(round(0.02 * i, 10) for i in range(1, 146))
FIGURES = {"fig3a": (2, FIG3_GRID), "fig3b": (2, FIG3_GRID), "fig3c": (4, FIG3_GRID),
           "fig3d": (8, FIG3_GRID), "fig4": (2, FIG4_GRID)}
SWEEP_N = (2, 4, 8)

MC_SWEEP_GRID = FIG3_GRID[2::3]  # 0.3, 0.6, ..., 2.7
MC_SWEEP_PULSES = 1 << 17  # two full chunks of the default chunk size
MC_CHECK_WORKERS = 2


def reference_points() -> set[tuple[int, float]]:
    """Every (n_states, alpha_sq) point any workload checks."""
    points = {(n, a) for n in SWEEP_N for a in FIG3_GRID}
    points |= {(n, a) for n, grid in FIGURES.values() for a in grid}
    return points


def nospan(name, **counts):
    return contextlib.nullcontext()


def fmt17(value: float) -> str:
    return format(value, ".17g")


def mc_seed(seed: int, index: int) -> int:
    """A Monte Carlo master seed derived from ``seed`` and an index."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class Reference:
    """Analytic columns per (n_states, alpha_sq), as 17-digit text."""

    def __init__(self, path: str = REFERENCE_PATH):
        self.rows: dict[tuple[int, float], dict[str, str]] = {}
        with open(path, newline="") as fh:
            for record in csv.DictReader(fh):
                key = (int(record.pop("n_states")), float(record.pop("alpha_sq")))
                self.rows[key] = record

    def compare(self, n_states: int, alpha_sq: float, values: dict) -> tuple[list[str], bool]:
        """Check the analytic columns present in ``values``; return (failures, bit-exact)."""
        ref = self.rows.get((n_states, alpha_sq))
        if ref is None:
            return [f"no reference for N={n_states} alpha_sq={alpha_sq}"], False
        failures = []
        exact = True
        for column in ANALYTIC_COLUMNS:
            if column not in values:
                continue
            text = values[column] if isinstance(values[column], str) else fmt17(values[column])
            if text == ref[column]:
                continue
            exact = False
            if not math.isclose(float(text), float(ref[column]), rel_tol=REL_TOL, abs_tol=ABS_TOL):
                failures.append(
                    f"N={n_states} alpha_sq={alpha_sq} {column}: {text} vs reference {ref[column]}"
                )
        return failures, exact


def binomial_tail(k: int, n: int, p: float) -> float:
    """P(X >= k) if k lies above n*p, else P(X <= k), for X ~ Binomial(n, p)."""
    if p <= 0.0 or p >= 1.0:
        return 1.0 if k == round(n * p) else 0.0
    log_pmf = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
               + k * math.log(p) + (n - k) * math.log1p(-p))
    term = math.exp(log_pmf)
    total = 0.0
    i = k
    up = k > n * p
    # from k outwards the terms only shrink, so stop once they no longer count
    while term > total * 1e-17 and 0 <= i <= n:
        total += term
        if up:
            term *= (n - i) / (i + 1) * p / (1.0 - p)
            i += 1
        else:
            term *= i / (n - i + 1) * (1.0 - p) / p
            i -= 1
    return total


def binomial_failures(label: str, k: int, n: int, p: float) -> list[str]:
    """k successes out of n must lie no further out than MC_SIGMAS binomial sigma of p.

    Judged by the exact binomial tail against the normal tail beyond
    MC_SIGMAS sigma.  For large counts this is the usual sigma test; for
    rare outcomes (a fraction near 1 over a few thousand accepted pulses
    expects well under one miss) it keeps the same false-alarm rate, where
    the normal approximation would flag 3 misses against an expected 0.3.
    """
    tail = binomial_tail(k, n, p)
    if tail >= MC_TAIL:
        return []
    sigma = math.sqrt(p * (1.0 - p) / n)
    return [f"{label}: {k}/{n} = {k / n:.6g} vs analytic {p:.6g} "
            f"(sigma {sigma:.3g}, exact tail {tail:.3g} < {MC_TAIL:.3g})"]


def mc_row_failures(row: dict, where: str) -> list[str]:
    """Monte Carlo columns of one sweep row against its analytic columns."""
    n = int(row["mc_n_pulses"])
    accepted = round(float(row["mc_success_probability"]) * n)
    failures = binomial_failures(f"{where} success_probability", accepted, n,
                                 float(row["success_probability"]))
    if accepted > 0:
        correct = round(float(row["mc_correct_state_fraction"]) * accepted)
        failures += binomial_failures(f"{where} correct_state_fraction", correct, accepted,
                                      float(row["correct_state_fraction"]))
    return failures


@dataclass
class Outcome:
    """Timed result of one pass or point sample plus its checks."""

    seconds: float
    ops: int
    failures: list[str] = field(default_factory=list)
    call_seconds: list[float] = field(default_factory=list)  # per CLI call of a pass
    bitexact_points: int = 0
    failed: int = 0  # operations with at least one failure


@dataclass
class Ledger:
    """Operations attempted and failed over a run, with the first failure messages.

    Outcomes are folded in and dropped, so the benchmark's own memory does
    not grow with the number of passes a run fits in.
    """

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, outcome: Outcome) -> None:
        self.attempted += outcome.ops
        self.failed += outcome.failed
        self.failures += outcome.failures[:20 - len(self.failures)]


@dataclass(frozen=True)
class CliOp:
    """One in-process ``cli.main`` call and the rows its CSV must hold."""

    argv: tuple[str, ...]
    output: str | None
    points: tuple[tuple[int, float], ...]


def call_cli(argv) -> tuple[int, str | None]:
    """Run cli.main; return (exit code, error text).  Stdout is discarded."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), f"exit {exc.code}"
    except Exception as exc:  # an exception is a failed operation, not a crashed run
        return 1, f"{type(exc).__name__}: {exc}"
    return code, None


def row_failures(reference: Reference, rows: list[dict], points, where: str,
                 montecarlo_columns: bool) -> tuple[list[str], int]:
    """Check rows (text or float cells) against their expected grid points."""
    if len(rows) != len(points):
        return [f"{where}: {len(rows)} rows, expected {len(points)}"], 0
    failures = []
    exact = 0
    for row, (n_states, alpha_sq) in zip(rows, points):
        if "n_states" in row and int(row["n_states"]) != n_states:
            failures.append(f"{where}: row n_states {row['n_states']} != {n_states}")
            continue
        if float(row["alpha_sq"]) != alpha_sq:
            failures.append(f"{where}: row alpha_sq {row['alpha_sq']} != {alpha_sq}")
            continue
        bad, is_exact = reference.compare(n_states, alpha_sq, row)
        failures += bad
        exact += is_exact
        if montecarlo_columns:
            failures += mc_row_failures(row, f"{where} N={n_states} alpha_sq={alpha_sq}")
    return failures, exact


class Workload:
    """Common base: CLI passes, one-point samples and their checks."""

    name = ""
    work_unit = "points"

    def __init__(self, seed: int, tmpdir: str, reference: Reference):
        self.tmpdir = tmpdir
        self.reference = reference
        self.rng = np.random.default_rng(seed)
        self.cli_ops: list[CliOp] = []
        self.first_outputs: dict[str, str] = {}
        self.last_rows: dict[str, list[dict]] = {}

    # -- passes ---------------------------------------------------------
    def run_pass(self, tracer=None) -> Outcome:
        """Time the CLI calls of one pass back to back, each on its own, then check them."""
        span = tracer.span if tracer else nospan
        results = []
        call_seconds = []
        for op in self.cli_ops:
            start = time.perf_counter()
            with span("cli.main"):
                results.append(call_cli(op.argv))
            call_seconds.append(time.perf_counter() - start)
        out = Outcome(seconds=sum(call_seconds), ops=len(self.cli_ops),
                      call_seconds=call_seconds)
        for op, (code, error) in zip(self.cli_ops, results):
            where = " ".join(op.argv[:3])
            if code != 0 or error:
                bad, exact = [f"{where}: exit {code} {error or ''}".strip()], 0
            elif op.output is not None:
                bad, exact = self.check_csv(op, where)
            else:
                bad, exact = [], 0
            out.failures += bad
            out.failed += bool(bad)
            out.bitexact_points += exact
        return out

    def check_csv(self, op: CliOp, where: str) -> tuple[list[str], int]:
        try:
            with open(op.output) as fh:
                text = fh.read()
        except OSError as exc:
            return [f"{where}: cannot read output: {exc}"], 0
        # every pass of a run sees the same inputs, so outputs must repeat exactly
        first = self.first_outputs.setdefault(op.output, text)
        failures = [] if text == first else [f"{where}: output differs from the first pass"]
        rows = list(csv.DictReader(io.StringIO(text)))
        self.last_rows[op.output] = rows
        bad, exact = row_failures(self.reference, rows, op.points, where,
                                  montecarlo_columns="mc_n_pulses" in text.partition("\n")[0])
        return failures + bad, exact

    def work_per_pass(self) -> int:
        return sum(len(op.points) for op in self.cli_ops)

    def final_check(self) -> Outcome:
        """Checks made once per run, after the timed passes; none by default."""
        return Outcome(seconds=0.0, ops=0)

    # -- one-point samples ------------------------------------------------
    def point_specs(self) -> list[tuple[int, float, sweep.SweepSpec]]:
        return []

    def point_round(self) -> list[Outcome]:
        """Time ``sweep.run_sweep`` once per grid point, in seeded random order.

        Outcomes are returned in grid order, so round r's j-th outcome is
        always the same point.
        """
        specs = self.point_specs()
        outcomes: list[Outcome] = [None] * len(specs)
        for i in self.rng.permutation(len(specs)):
            n_states, alpha_sq, spec = specs[i]
            start = time.perf_counter()
            try:
                rows = sweep.run_sweep(spec, workers=1).rows
            except Exception as exc:  # counted as a failed operation
                outcomes[i] = Outcome(time.perf_counter() - start, 1,
                                      [f"point N={n_states} alpha_sq={alpha_sq}: {exc!r}"], failed=1)
                continue
            out = Outcome(seconds=time.perf_counter() - start, ops=1)
            out.failures, out.bitexact_points = row_failures(
                self.reference, rows, [(n_states, alpha_sq)], "point",
                montecarlo_columns=spec.wants_montecarlo())
            out.failed = int(bool(out.failures))
            outcomes[i] = out
        return outcomes


class AnalyticFigures(Workload):
    """selfcheck, the default sweep and every figure, through cli.main."""

    name = "analytic-figures"

    def __init__(self, seed, tmpdir, reference):
        super().__init__(seed, tmpdir, reference)
        path = os.path.join(tmpdir, "sweep.csv")
        self.cli_ops = [
            CliOp(("selfcheck",), None, ()),
            CliOp(("sweep", "--output", path), path,
                  tuple((n, a) for n in SWEEP_N for a in FIG3_GRID)),
        ]
        for fig, (n_states, grid) in FIGURES.items():
            path = os.path.join(tmpdir, f"{fig}.csv")
            self.cli_ops.append(CliOp(("figure", "--id", fig, "--output", path), path,
                                      tuple((n_states, a) for a in grid)))

    def point_specs(self):
        return [(n, a, sweep.SweepSpec(alpha_sq_grid=(a,), n_states_list=(n,)))
                for op in self.cli_ops for n, a in op.points]


class McSweep(Workload):
    """``scamp sweep --mode both --workers 1`` over a 3 x 9 grid, one call per point.

    One call per point keeps each timed unit short (about 15 ms), so the
    best of its repeats is steady on a host whose speed varies: in runs
    alternating both forms, the summed best calls moved 4% between runs
    and the best single call over the grid (about 0.4 s) 17%.
    """

    name = "mc-sweep"
    work_unit = "pulses"

    def __init__(self, seed, tmpdir, reference):
        super().__init__(seed, tmpdir, reference)
        self.mc_seed = mc_seed(seed, 1)
        self.points = tuple((n, a) for n in SWEEP_N for a in MC_SWEEP_GRID)
        # each point its own master seed, so points draw independent streams
        self.point_seeds = [mc_seed(self.mc_seed, i) for i in range(len(self.points))]
        for i, ((n_states, alpha_sq), point_seed) in enumerate(zip(self.points, self.point_seeds)):
            config = os.path.join(tmpdir, f"mc{i}.ini")
            with open(config, "w") as fh:
                fh.write("[sweep]\n")
                fh.write(f"alpha_sq = {fmt17(alpha_sq)}\n")
                fh.write(f"n_states = {n_states}\n")
                fh.write(f"n_pulses = {MC_SWEEP_PULSES}\n")
            path = os.path.join(tmpdir, f"mc{i}.csv")
            self.cli_ops.append(CliOp(
                ("sweep", "--config", config, "--mode", "both", "--workers", "1",
                 "--seed", str(point_seed), "--output", path),
                path, ((n_states, alpha_sq),)))

    def work_per_pass(self) -> int:
        return len(self.points) * MC_SWEEP_PULSES

    def final_check(self) -> Outcome:
        """Every grid point at 1 and MC_CHECK_WORKERS workers, once per run, untimed."""
        out = Outcome(seconds=0.0, ops=0)
        for (n_states, alpha_sq), point_seed in zip(self.points, self.point_seeds):
            bad = self.worker_failures(n_states, alpha_sq, point_seed)
            out.ops += 1
            out.failed += bool(bad)
            out.failures += bad
        return out

    def worker_failures(self, n_states: int, alpha_sq: float, master_seed: int) -> list[str]:
        """Tallies at 1 and MC_CHECK_WORKERS workers must be bit-identical (criterion 11)."""
        cfg = params.default_amplifier(alpha_sq, n_states)
        bank = params.default_detector_bank()
        run = montecarlo.RunSpec(amplifier=cfg, detectors=bank,
                                 analysis=params.default_analysis(cfg, detector=bank.da),
                                 n_pulses=MC_SWEEP_PULSES, master_seed=master_seed)
        try:
            serial, parallel = (montecarlo.simulate_run(run, workers=w)
                                for w in (1, MC_CHECK_WORKERS))
            if np.array_equal(serial.counts, parallel.counts):
                return []
        except Exception as exc:  # counted as a failed operation
            return [f"worker check N={n_states} alpha_sq={alpha_sq}: {exc!r}"]
        return [f"worker check N={n_states} alpha_sq={alpha_sq}: tally at "
                f"{MC_CHECK_WORKERS} workers differs from the 1-worker tally"]

    def point_specs(self):
        """The same one-point sweeps as the CLI calls, through ``sweep.run_sweep``."""
        return [(n, a, sweep.SweepSpec(alpha_sq_grid=(a,), n_states_list=(n,), mode="both",
                                       n_pulses=MC_SWEEP_PULSES, seed=point_seed))
                for (n, a), point_seed in zip(self.points, self.point_seeds)]

    def fidelity_bias(self) -> dict[int, float]:
        """Mean |mc_fidelity - fidelity| per N over the last pass's rows.

        A known defect: the two-class estimator behind ``mc_fidelity``
        assumes wrong-guess outputs are vacuum, which holds only at N = 2.
        Reported, never gated.
        """
        rows = [row for op in self.cli_ops for row in self.last_rows.get(op.output, [])]
        bias = {}
        for n in SWEEP_N:
            gaps = [abs(float(r["mc_fidelity"]) - float(r["fidelity"]))
                    for r in rows if int(r["n_states"]) == n]
            gaps = [g for g in gaps if math.isfinite(g)]
            bias[n] = sum(gaps) / len(gaps) if gaps else 0.0
        return bias


WORKLOADS = {w.name: w for w in (AnalyticFigures, McSweep)}
