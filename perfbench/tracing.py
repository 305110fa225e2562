"""Traced replay of a workload pass and the per-layer metrics it yields.

Spans are recorded from the benchmark's own code around calls into each
module's public functions; the package itself is not instrumented.  One
traced pass has three stages, all checked or compared:

1. entry: the workload's own pass, with a span around each ``cli.main`` call;
2. module: the module-level calls the entry makes, each untraced inside
   (``selfcheck.run_selfcheck``, ``sweep.run_sweep``/``reproduce_figure``,
   ``sweep.write_dataset``);
3. replay: the per-point sequence of public calls ``sweep`` makes, one span
   per call, with the work each call did recorded on its span.

Layer busy time is the self time of that layer's spans.  The replay of the
rows is compared with the untraced module stage for the same rows: the
difference is the tracing overhead, and rows that do not match bit for bit
are counted (a program change can make the replay stale; it is reported,
not gated).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from scamp import montecarlo, params, sweep
from scamp.amplifier import Conditioning, figures_of_merit, output_mixture
from scamp.analysis import estimate_fidelity, estimate_pulse_numbers, visibility
from scamp.errors import InsufficientSignalError
from scamp.selfcheck import run_selfcheck

import workloads as wl

VISIBILITY_COLUMNS = (
    (Conditioning.NONE, "visibility_unconditioned"),
    (Conditioning.D0_SILENT, "visibility_d0_silent"),
    (Conditioning.D0_SILENT_D1_FIRES, "visibility_conditioned"),
)
# spans of the replay stage that stand for a call the entry makes itself
REPLAYED_LAYERS = (
    "params.build",
    "amplifier.figures_of_merit",
    "amplifier.output_mixture",
    "analysis.visibility",
    "analysis.estimator",
    "montecarlo.branch_tables",
    "montecarlo.simulate_chunk",
    "montecarlo.merge",
    "montecarlo.projection",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans nest by call order on one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.pass_id, counts)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                        "pass": s.pass_id, **s.counts} for s in self.spans], fh)


# -- replay of the calls sweep makes ---------------------------------------

def replay_analytic_row(tr: Tracer, spec: sweep.SweepSpec, n_states: int, alpha_sq: float) -> dict:
    d0, d1 = spec.detectors.d0, spec.detectors.d1
    with tr.span("params.build"):
        cfg = params.default_amplifier(
            alpha_sq, n_states,
            comparison_reflectivity=spec.comparison_reflectivity,
            subtraction_transmission=spec.subtraction_transmission,
        )
    with tr.span("amplifier.figures_of_merit", n_states=n_states, branches=n_states * n_states):
        fom = figures_of_merit(cfg, d0, d1)
    with tr.span("params.build"):
        analysis = params.default_analysis(cfg, detector=spec.detectors.da, epsilon=spec.epsilon,
                                           phase_points=spec.phase_points)
    row = {
        "n_states": n_states,
        "alpha_sq": alpha_sq,
        "fidelity": fom.fidelity,
        "correct_state_fraction": fom.correct_state_fraction,
        "success_probability": fom.success_probability,
        "success_rate_per_s": fom.success_probability * spec.prf,
    }
    for condition, column in VISIBILITY_COLUMNS:
        with tr.span("amplifier.output_mixture"):
            mixture = output_mixture(cfg, d0, d1, 0, condition)
        with tr.span("analysis.visibility",
                     phase_evals=spec.phase_points * len(mixture.components)):
            row[column] = visibility(mixture, analysis)
    return row


def replay_simulate_run(tr: Tracer, run: montecarlo.RunSpec) -> montecarlo.TallyTable:
    """The serial path of ``simulate_run``: tables, then chunk by chunk."""
    chunk = montecarlo.DEFAULT_CHUNK_SIZE
    with tr.span("montecarlo.branch_tables"):
        tables = montecarlo.branch_tables(run)
    total = montecarlo.TallyTable.empty(run.phase_schedule, run.amplifier.n_states())
    for c in range((run.n_pulses + chunk - 1) // chunk):
        with tr.span("montecarlo.simulate_chunk", pulses=min(chunk, run.n_pulses - c * chunk)):
            part = montecarlo.simulate_chunk(run, c, chunk, tables)
        with tr.span("montecarlo.merge"):
            total = total.merged(part)
    return total


def project(tr: Tracer, tally: montecarlo.TallyTable):
    accept = Conditioning.D0_SILENT_D1_FIRES
    with tr.span("montecarlo.projection", pulses=tally.n_pulses, cells=tally.counts.size,
                 tally_bytes=tally.counts.nbytes) as s:
        n_correct, n_wrong = montecarlo.conditioned_class_totals(tally, accept)
        counts = montecarlo.conditioned_counts(tally, accept)
        s.counts["accepted"] = n_correct + n_wrong
    return n_correct, n_wrong, counts


def point_seed(master_seed: int, point_index: int) -> int:
    """The per-point Monte Carlo seed sweep derives (mirrors its private helper)."""
    state = np.random.SeedSequence(entropy=master_seed, spawn_key=(point_index,))
    return int(state.generate_state(1, np.uint64)[0])


def replay_montecarlo_columns(tr: Tracer, spec: sweep.SweepSpec, n_states: int,
                              alpha_sq: float, seed: int) -> dict:
    with tr.span("params.build"):
        cfg = params.default_amplifier(
            alpha_sq, n_states,
            comparison_reflectivity=spec.comparison_reflectivity,
            subtraction_transmission=spec.subtraction_transmission,
        )
        analysis = params.default_analysis(cfg, detector=spec.detectors.da, epsilon=spec.epsilon,
                                           phase_points=spec.phase_points)
    run = montecarlo.RunSpec(amplifier=cfg, detectors=spec.detectors, analysis=analysis,
                             n_pulses=spec.n_pulses, master_seed=seed)
    tally = replay_simulate_run(tr, run)
    n_correct, n_wrong, counts = project(tr, tally)
    accepted = n_correct + n_wrong
    out = {
        "mc_success_probability": accepted / spec.n_pulses,
        "mc_correct_state_fraction": n_correct / accepted if accepted else math.nan,
    }
    g2a2 = analysis.ref_mean_photons()
    with tr.span("analysis.estimator"):
        try:
            n_sig, n_vac = estimate_pulse_numbers(counts, g2a2, analysis.detector.eta_l(),
                                                  vacuum_denominator="per-port")
            out["mc_fidelity"] = estimate_fidelity(n_sig, n_vac, g2a2, vacuum_overlap="standard")
        except InsufficientSignalError:
            out["mc_fidelity"] = math.nan
    return out


def same(a, b) -> bool:
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


def replay_dataset(tr: Tracer, spec: sweep.SweepSpec, rows: list[dict]) -> int:
    """Replay every row of an untraced dataset; return the rows that differ."""
    mismatched = 0
    index = 0
    for n_states in spec.n_states_list:
        for alpha_sq in spec.alpha_sq_grid:
            with tr.span("sweep.row"):
                row = replay_analytic_row(tr, spec, n_states, alpha_sq)
                if spec.wants_montecarlo():
                    row.update(replay_montecarlo_columns(
                        tr, spec, n_states, alpha_sq, point_seed(spec.seed, index)))
            expected = rows[index] if index < len(rows) else {}
            if not expected or not all(same(row[c], expected[c]) for c in expected if c in row):
                mismatched += 1
            index += 1
    return mismatched + max(0, len(rows) - index)


# -- traced passes per workload ----------------------------------------------

@dataclass
class TracedPass:
    outcome: wl.Outcome
    untraced_s: float   # module-stage time for the rows the replay recomputes
    replay_s: float     # traced replay time for the same rows
    mismatched_rows: int
    extra: dict = field(default_factory=dict)


def _module_sweep(tr: Tracer, path: str, build):
    with tr.span("sweep.run_sweep") as s:
        dataset = build()
    with tr.span("sweep.serialize") as ser:
        sweep.write_dataset(dataset, path, "csv")
    ser.counts["bytes"] = os.path.getsize(path)
    return dataset, s.seconds


def traced_cli_pass(tr: Tracer, w: wl.Workload, specs: list[tuple[sweep.SweepSpec, object]]) -> TracedPass:
    """Entry = the CLI calls; module = selfcheck/run_sweep/write_dataset; replay = rows."""
    outcome = w.run_pass(tr)
    if any(op.argv[0] == "selfcheck" for op in w.cli_ops):
        with tr.span("selfcheck.run"):
            run_selfcheck(verbose_print=lambda *args: None)
    modules = []
    untraced = 0.0
    for i, (spec, build) in enumerate(specs):
        dataset, seconds = _module_sweep(tr, os.path.join(w.tmpdir, f"module{i}.csv"), build)
        modules.append((spec, dataset))
        untraced += seconds
    mismatched = 0
    with tr.span("replay") as replay:
        for spec, dataset in modules:
            mismatched += replay_dataset(tr, spec, dataset.rows)
    return TracedPass(outcome, untraced, replay.seconds, mismatched)


def traced_pass(tr: Tracer, w: wl.Workload) -> TracedPass:
    if isinstance(w, wl.AnalyticFigures):
        default = sweep.SweepSpec(alpha_sq_grid=wl.FIG3_GRID, n_states_list=wl.SWEEP_N)
        specs = [(default, lambda: sweep.run_sweep(default))]
        for fig, (n_states, grid) in wl.FIGURES.items():
            spec = sweep.SweepSpec(alpha_sq_grid=grid, n_states_list=(n_states,))
            specs.append((spec, lambda fig=fig: sweep.reproduce_figure(fig)))
        return traced_cli_pass(tr, w, specs)
    if isinstance(w, wl.McSweep):
        specs = [(spec, lambda spec=spec: sweep.run_sweep(spec, workers=1))
                 for _, _, spec in w.point_specs()]
        traced = traced_cli_pass(tr, w, specs)
        traced.extra["fidelity_bias"] = w.fidelity_bias()
        return traced
    raise ValueError(f"no traced pass for workload {w.name!r}")


# -- per-layer metrics ---------------------------------------------------------

PER_LAYER_UNITS = {
    "amplifier.figures_of_merit.s": "s",
    "amplifier.figures_of_merit.calls": "count",
    "amplifier.ns_per_branch": "ns",
    **{f"amplifier.figures_of_merit.ms.N{n}": "ms" for n in wl.SWEEP_N},
    "amplifier.output_mixture.s": "s",
    "analysis.visibility.s": "s",
    "analysis.visibility.calls": "count",
    "analysis.visibility.us_per_phase_eval": "us",
    "analysis.estimator.s": "s",
    "montecarlo.branch_tables.s": "s",
    "montecarlo.simulate_chunk.s": "s",
    "montecarlo.chunks": "count",
    "montecarlo.ns_per_pulse": "ns",
    "montecarlo.merge.s": "s",
    "montecarlo.tally_bytes": "B",
    "montecarlo.pulses_per_cell": "count",
    "montecarlo.projection.s": "s",
    "montecarlo.accepted_fraction": "ratio",
    **{f"montecarlo.fidelity_bias.N{n}": "1" for n in wl.SWEEP_N},
    "params.build.s": "s",
    "sweep.run_sweep.s": "s",
    "sweep.serialize.s": "s",
    "sweep.csv_bytes": "B",
    "cli.main.s": "s",
    "selfcheck.run.s": "s",
    "sweep.self_s": "s",
    "analytic.bitexact_points": "count",
    "trace.overhead_s": "s",
    "trace.replay_mismatch_rows": "count",
}


def pass_metrics(tr: Tracer, traced: TracedPass, pass_id: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass; 0 where the workload skips a layer."""
    own = tr.self_times()
    spans = [(s, t) for s, t in zip(tr.spans, own) if s.pass_id == pass_id]

    def busy(name):
        return sum(t for s, t in spans if s.name == name)

    def calls(name):
        return [s for s, _ in spans if s.name == name]

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in calls(name))

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    m = {}
    fom = calls("amplifier.figures_of_merit")
    m["amplifier.figures_of_merit.s"] = busy("amplifier.figures_of_merit")
    m["amplifier.figures_of_merit.calls"] = len(fom)
    m["amplifier.ns_per_branch"] = ratio(m["amplifier.figures_of_merit.s"],
                                         total("amplifier.figures_of_merit", "branches"), 1e9)
    for n in wl.SWEEP_N:
        at_n = [s.seconds for s in fom if s.counts["n_states"] == n]
        m[f"amplifier.figures_of_merit.ms.N{n}"] = ratio(sum(at_n), len(at_n), 1e3)
    m["amplifier.output_mixture.s"] = busy("amplifier.output_mixture")
    m["analysis.visibility.s"] = busy("analysis.visibility")
    m["analysis.visibility.calls"] = len(calls("analysis.visibility"))
    m["analysis.visibility.us_per_phase_eval"] = ratio(
        m["analysis.visibility.s"], total("analysis.visibility", "phase_evals"), 1e6)
    m["analysis.estimator.s"] = busy("analysis.estimator")
    m["montecarlo.branch_tables.s"] = busy("montecarlo.branch_tables")
    m["montecarlo.simulate_chunk.s"] = busy("montecarlo.simulate_chunk")
    m["montecarlo.chunks"] = len(calls("montecarlo.simulate_chunk"))
    m["montecarlo.ns_per_pulse"] = ratio(m["montecarlo.simulate_chunk.s"],
                                         total("montecarlo.simulate_chunk", "pulses"), 1e9)
    m["montecarlo.merge.s"] = busy("montecarlo.merge")
    projections = calls("montecarlo.projection")
    m["montecarlo.tally_bytes"] = max((s.counts["tally_bytes"] for s in projections), default=0)
    m["montecarlo.pulses_per_cell"] = ratio(total("montecarlo.projection", "pulses"),
                                            total("montecarlo.projection", "cells"))
    m["montecarlo.projection.s"] = busy("montecarlo.projection")
    m["montecarlo.accepted_fraction"] = ratio(total("montecarlo.projection", "accepted"),
                                              total("montecarlo.projection", "pulses"))
    bias = traced.extra.get("fidelity_bias", {})
    for n in wl.SWEEP_N:
        m[f"montecarlo.fidelity_bias.N{n}"] = bias.get(n, 0.0)
    m["params.build.s"] = busy("params.build")
    m["sweep.run_sweep.s"] = busy("sweep.run_sweep")
    m["sweep.serialize.s"] = busy("sweep.serialize")
    m["sweep.csv_bytes"] = total("sweep.serialize", "bytes")
    m["cli.main.s"] = busy("cli.main")
    m["selfcheck.run.s"] = busy("selfcheck.run")
    # inferred: what the entry spent outside every layer span replayed for it
    m["sweep.self_s"] = (m["cli.main.s"] - sum(busy(name) for name in REPLAYED_LAYERS)
                         - m["sweep.serialize.s"] - m["selfcheck.run.s"])
    m["analytic.bitexact_points"] = traced.outcome.bitexact_points
    m["trace.overhead_s"] = traced.replay_s - traced.untraced_s
    m["trace.replay_mismatch_rows"] = traced.mismatched_rows
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: float(statistics.median(p[name] for p in per_pass)) for name in PER_LAYER_UNITS}


def run(w: wl.Workload, seconds: float, spans_path: str, ledger: wl.Ledger) -> tuple[dict, dict]:
    """Traced passes for as long as another fits in ``seconds``; spans written at the end."""
    ledger.add(w.run_pass())  # warm-up, untraced
    tracer = Tracer()
    per_pass = []
    start = time.perf_counter()
    last = 0.0
    while not per_pass or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        tracer.pass_id = len(per_pass)
        traced = traced_pass(tracer, w)
        ledger.add(traced.outcome)
        per_pass.append(pass_metrics(tracer, traced, tracer.pass_id))
        last = time.perf_counter() - began
    ledger.add(w.final_check())
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write(spans_path)
    return median_metrics(per_pass), {"passes": len(per_pass), "spans": spans_path}
