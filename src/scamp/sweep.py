"""Parameter sweeps, figure-reproduction datasets and their serialization.

A sweep evaluates the analytic model (and optionally the Monte Carlo) on a
grid of (state-set size, input mean photon number) points and emits one row
per point with fixed, documented columns.  Each point builds one branch
table: the analytic columns and, in a Monte Carlo mode, the tally's cell
probabilities both read it, and its three visibilities share one reference
scan.  Figure datasets are column projections of the same rows; they are
model curves only, never measured points.  CSV carries the rows; JSON carries
{"spec": ..., "rows": ...}.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from . import params
from .amplifier import AmplifierConfig, BranchTable, Conditioning, branch_table
from .analysis import (
    MAX_COUNT,
    AnalysisConfig,
    CountTable,
    estimate_fidelity,
    estimate_pulse_numbers,
    visibilities,
)
from .errors import ConfigError, InsufficientSignalError
from .montecarlo import (
    DetectorBank,
    RunSpec,
    _class_projection,
    _simulate_run,
    standard_error,
)

MODES = ("analytic", "montecarlo", "both")
FORMATS = ("csv", "json")

BASE_COLUMNS = (
    "n_states",
    "alpha_sq",
    "fidelity",
    "correct_state_fraction",
    "success_probability",
    "success_rate_per_s",
    "visibility_unconditioned",
    "visibility_d0_silent",
    "visibility_conditioned",
)
MC_COLUMNS = (
    "mc_success_probability",
    "mc_success_probability_se",
    "mc_correct_state_fraction",
    "mc_correct_state_fraction_se",
    "mc_fidelity",
    "mc_fidelity_se",
    "mc_n_pulses",
    "mc_seed",
)
INT_COLUMNS = {"n_states", "mc_n_pulses", "mc_seed"}
# so that every tally count, and so every CountTable field, is exact as a float
_MAX_PULSES = MAX_COUNT
# Checked before anything is allocated, these keep every array of a point under
# 8 MiB: the Monte Carlo tally (one phase bin, N*N*16 int64 cells) is 8 MiB at
# N = 256, the reference scan 1 MiB (complex128) at 65536 phase points.
MAX_N_STATES = 256
MAX_PHASE_POINTS = 1 << 16

FIGURE_COLUMNS = {
    "fig3a": ("alpha_sq", "visibility_unconditioned", "visibility_d0_silent", "visibility_conditioned"),
    "fig3b": ("alpha_sq", "correct_state_fraction", "fidelity"),
    "fig3c": ("alpha_sq", "correct_state_fraction", "fidelity"),
    "fig3d": ("alpha_sq", "correct_state_fraction", "fidelity"),
    "fig4": ("alpha_sq", "success_rate_per_s"),
}
FIGURE_N_STATES = {"fig3a": 2, "fig3b": 2, "fig3c": 4, "fig3d": 8, "fig4": 2}


@dataclass(frozen=True)
class SweepSpec:
    """Grid, mode and physics parameters of one sweep."""

    alpha_sq_grid: tuple[float, ...]
    n_states_list: tuple[int, ...]
    mode: str = "analytic"
    output_path: str | None = None
    output_format: str = "csv"
    comparison_reflectivity: float = params.COMPARISON_REFLECTIVITY
    subtraction_transmission: float = params.SUBTRACTION_TRANSMISSION
    detectors: DetectorBank = field(default_factory=params.default_detector_bank)
    prf: float = params.PULSE_REPETITION_HZ
    epsilon: float | None = None
    phase_points: int = 256
    n_pulses: int = 1_000_000
    seed: int = 12345

    def __post_init__(self):
        # numbers are stored as Python float and int, so the echo is plain JSON
        for name in ("comparison_reflectivity", "subtraction_transmission", "prf"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if self.epsilon is not None:
            object.__setattr__(self, "epsilon", _real("epsilon", self.epsilon))
        for name in ("phase_points", "n_pulses", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(self, "alpha_sq_grid", tuple(_real("alpha_sq", a) for a in self.alpha_sq_grid))
        object.__setattr__(self, "n_states_list", tuple(_integer("n_states", n) for n in self.n_states_list))
        if len(self.alpha_sq_grid) == 0:
            raise ConfigError("alpha_sq_grid must be non-empty")
        if not all(math.isfinite(a) and a >= 0.0 for a in self.alpha_sq_grid):
            raise ConfigError("alpha_sq values must be finite and >= 0")
        if list(self.alpha_sq_grid) != sorted(set(self.alpha_sq_grid)):
            raise ConfigError("alpha_sq values must be distinct and sorted")
        if len(self.n_states_list) == 0:
            raise ConfigError("n_states_list must be non-empty")
        if not all(1 <= n <= MAX_N_STATES for n in self.n_states_list):
            raise ConfigError(f"n_states values must lie in [1, {MAX_N_STATES}]")
        if len(set(self.n_states_list)) != len(self.n_states_list):
            raise ConfigError("n_states values must be distinct")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.output_format not in FORMATS:
            raise ConfigError(f"output_format must be one of {FORMATS}, got {self.output_format!r}")
        if self.wants_montecarlo():
            if not (1 <= self.n_pulses <= _MAX_PULSES):
                raise ConfigError(f"n_pulses must lie in [1, {_MAX_PULSES}] for a montecarlo sweep")
            for name in ("da", "db"):
                if getattr(self.detectors, name).eta_l() == 0.0:
                    raise ConfigError(f"detector.{name} has zero efficiency x loss: the montecarlo"
                                      " estimator needs analyzer detectors that can see light")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (0.0 < self.comparison_reflectivity < 1.0):
            raise ConfigError(
                f"comparison_reflectivity must lie in (0, 1), got {self.comparison_reflectivity}"
            )
        if not (0.0 < self.subtraction_transmission <= 1.0):
            raise ConfigError(
                f"subtraction_transmission must lie in (0, 1], got {self.subtraction_transmission}"
            )
        if self.epsilon is not None and not (0.0 <= self.epsilon < 1.0):
            raise ConfigError(f"epsilon must be auto or lie in [0, 1), got {self.epsilon}")
        if not (8 <= self.phase_points <= MAX_PHASE_POINTS):
            raise ConfigError(
                f"phase_points must lie in [8, {MAX_PHASE_POINTS}], got {self.phase_points}"
            )
        if not (math.isfinite(self.prf) and self.prf > 0.0):
            raise ConfigError(f"prf must be finite and > 0, got {self.prf}")

    def wants_montecarlo(self) -> bool:
        return self.mode in ("montecarlo", "both")

    def columns(self) -> tuple[str, ...]:
        return BASE_COLUMNS + MC_COLUMNS if self.wants_montecarlo() else BASE_COLUMNS

    def echo(self) -> dict:
        """The spec as JSON-ready plain values, laid out as ``dataclasses.asdict`` would."""
        d = _field_values(self)
        d["alpha_sq_grid"] = list(self.alpha_sq_grid)
        d["n_states_list"] = list(self.n_states_list)
        bank = _field_values(self.detectors)
        d["detectors"] = {name: _field_values(det) for name, det in bank.items()}
        return d


def _integer(name: str, value) -> int:
    """``value`` as an int; a bool, or a value ``operator.index`` refuses, is a ConfigError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value) -> float:
    """``value`` as a float; a bool, or a value that is not a real number, is a ConfigError."""
    # the float test first: it is the common case, and an ABC check is slower
    if isinstance(value, float) or (isinstance(value, numbers.Real) and not isinstance(value, bool)):
        return float(value)
    raise ConfigError(f"{name} must be a real number, got {value!r}")


def _field_values(obj) -> dict:
    """Field name -> value of one dataclass instance, without asdict's deep copy."""
    return {name: getattr(obj, name) for name in obj.__dataclass_fields__}


@dataclass(frozen=True)
class Dataset:
    """Echoed configuration plus one record per grid point, in grid order."""

    spec: dict
    rows: list[dict]


def _point_seed(master_seed: int, point_index: int) -> int:
    state = np.random.SeedSequence(entropy=master_seed, spawn_key=(point_index,))
    return int(state.generate_state(1, np.uint64)[0])


def _analytic_columns(spec: SweepSpec, table: BranchTable, analysis_cfg: AnalysisConfig) -> dict:
    fom = table.figures_of_merit()
    row = {
        "fidelity": fom.fidelity,
        "correct_state_fraction": fom.correct_state_fraction,
        "success_probability": fom.success_probability,
        "success_rate_per_s": fom.success_probability * spec.prf,
    }
    # the analyzer sees input 0; its three conditioned mixtures share components
    weight_sets = [table.accepted(0, cond)[1] for cond in Conditioning]
    names = ("visibility_unconditioned", "visibility_d0_silent", "visibility_conditioned")
    row.update(zip(names, visibilities(table.output[0], weight_sets, analysis_cfg)))
    return row


def _montecarlo_columns(
    spec: SweepSpec,
    cfg: AmplifierConfig,
    table: BranchTable,
    analysis_cfg: AnalysisConfig,
    seed: int,
    workers: int,
) -> dict:
    run = RunSpec(
        amplifier=cfg,
        detectors=spec.detectors,
        analysis=analysis_cfg,
        n_pulses=spec.n_pulses,
        master_seed=seed,
    )
    tally = _simulate_run(run, table, workers)
    (n_correct, n_wrong), counts = _class_projection(tally, Conditioning.D0_SILENT_D1_FIRES)
    accepted = n_correct + n_wrong
    out = {
        "mc_success_probability": accepted / spec.n_pulses,
        "mc_success_probability_se": standard_error(accepted, spec.n_pulses),
        "mc_n_pulses": spec.n_pulses,
        "mc_seed": seed,
    }
    if accepted > 0:
        out["mc_correct_state_fraction"] = n_correct / accepted
        out["mc_correct_state_fraction_se"] = standard_error(n_correct, accepted)
    else:
        out["mc_correct_state_fraction"] = math.nan
        out["mc_correct_state_fraction_se"] = math.nan
    g2a2 = analysis_cfg.ref_mean_photons()
    eta_l = analysis_cfg.detector.eta_l()
    try:
        n_sig, n_vac = estimate_pulse_numbers(counts, g2a2, eta_l, vacuum_denominator="per-port")
        fid = estimate_fidelity(n_sig, n_vac, g2a2, vacuum_overlap="standard")
        # F is affine in the class split, so its error is the binomial error
        # of that split scaled by (1 - vacuum overlap)
        out["mc_fidelity"] = fid
        out["mc_fidelity_se"] = (1.0 - math.exp(-g2a2)) * out["mc_correct_state_fraction_se"]
    except InsufficientSignalError:
        out["mc_fidelity"] = math.nan
        out["mc_fidelity_se"] = math.nan
    return out


def run_sweep(spec: SweepSpec, workers: int = 1) -> Dataset:
    """Evaluate the sweep grid; rows are ordered by grid position."""
    rows = []
    point_index = 0
    for n_states in spec.n_states_list:
        for alpha_sq in spec.alpha_sq_grid:
            cfg = params.default_amplifier(
                alpha_sq,
                n_states,
                comparison_reflectivity=spec.comparison_reflectivity,
                subtraction_transmission=spec.subtraction_transmission,
            )
            analysis_cfg = params.default_analysis(
                cfg, detector=spec.detectors.da, epsilon=spec.epsilon, phase_points=spec.phase_points
            )
            table = branch_table(cfg, spec.detectors.d0, spec.detectors.d1)
            row = {"n_states": n_states, "alpha_sq": alpha_sq}
            row.update(_analytic_columns(spec, table, analysis_cfg))
            if spec.wants_montecarlo():
                seed = _point_seed(spec.seed, point_index)
                row.update(_montecarlo_columns(spec, cfg, table, analysis_cfg, seed, workers))
            rows.append({c: row[c] for c in spec.columns()})
            point_index += 1
    return Dataset(spec=spec.echo(), rows=rows)


def reproduce_figure(figure_id: str, **fields) -> Dataset:
    """Model-curve dataset for one of the known figure layouts.

    A figure is an analytic sweep of one state-set size, projected onto the
    figure's columns.  ``fields`` are further SweepSpec fields (splitters,
    detectors, prf, epsilon, phase_points, ...).  The figure fixes
    ``n_states_list`` and the analytic mode, so setting ``n_states_list``, or
    a ``mode`` other than "analytic", raises ConfigError.  Without
    ``alpha_sq_grid`` the figure's own grid is used.  The rows are model
    curves; no measured points are produced or implied.
    """
    if figure_id not in FIGURE_COLUMNS:
        raise ConfigError(
            f"unknown figure id {figure_id!r}; expected one of {sorted(FIGURE_COLUMNS)}"
        )
    if "n_states_list" in fields:
        raise ConfigError(f"{figure_id} fixes n_states = {FIGURE_N_STATES[figure_id]}; do not set it")
    mode = fields.pop("mode", "analytic")
    if mode != "analytic":
        raise ConfigError(f"figures are analytic model curves; mode must be analytic, got {mode!r}")
    fields.setdefault(
        "alpha_sq_grid",
        params.FIG4_ALPHA_SQ_GRID if figure_id == "fig4" else params.FIG3_ALPHA_SQ_GRID,
    )
    spec = SweepSpec(n_states_list=(FIGURE_N_STATES[figure_id],), **fields)
    dataset = run_sweep(spec)
    columns = FIGURE_COLUMNS[figure_id]
    rows = [{c: row[c] for c in columns} for row in dataset.rows]
    spec_echo = dataset.spec
    spec_echo["figure_id"] = figure_id
    spec_echo["data"] = "model-curves"
    return Dataset(spec=spec_echo, rows=rows)


def run_estimator(
    counts: CountTable,
    g2a2: float,
    eta_l: float,
    vacuum_denominator: str = "doubled",
) -> dict:
    """Full estimator report: class pulse numbers, weights, both fidelities."""
    n_sig, n_vac = estimate_pulse_numbers(counts, g2a2, eta_l, vacuum_denominator)
    total = n_sig + n_vac
    if total <= 0.0:
        raise InsufficientSignalError("estimated pulse numbers are both zero")
    return {
        "n_sig": n_sig,
        "n_vac": n_vac,
        "p_sig": n_sig / total,
        "p_vac": n_vac / total,
        "fidelity_standard": estimate_fidelity(n_sig, n_vac, g2a2, "standard"),
        "fidelity_doubled": estimate_fidelity(n_sig, n_vac, g2a2, "doubled"),
        "g2a2": g2a2,
        "eta_l": eta_l,
        "vacuum_denominator": vacuum_denominator,
    }


# ---------------------------------------------------------------------------
# serialization


def fmt17(value) -> str:
    """Floats with 17 significant digits (lossless text round trip)."""
    return format(value, ".17g")


def _cell(column: str, value) -> str:
    if column in INT_COLUMNS:
        return str(int(value))
    return fmt17(float(value))


def dataset_to_csv(dataset: Dataset) -> str:
    if not dataset.rows:
        raise ValueError("dataset has no rows")
    columns = list(dataset.rows[0].keys())
    lines = [",".join(columns)]
    for row in dataset.rows:
        lines.append(",".join(_cell(c, row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def dataset_to_json(dataset: Dataset) -> str:
    return json.dumps({"spec": dataset.spec, "rows": dataset.rows}, indent=2) + "\n"


def write_dataset(dataset: Dataset, path: str, output_format: str) -> None:
    if output_format == "csv":
        text = dataset_to_csv(dataset)
    elif output_format == "json":
        text = dataset_to_json(dataset)
    else:
        raise ConfigError(f"output format must be one of {FORMATS}, got {output_format!r}")
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write dataset to {path!r}: {exc}") from exc


def read_csv_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for record in reader:
            row = {}
            for column, text in record.items():
                row[column] = int(text) if column in INT_COLUMNS else float(text)
            rows.append(row)
    return rows


def read_json_dataset(path: str) -> Dataset:
    with open(path) as fh:
        payload = json.load(fh)
    return Dataset(spec=payload["spec"], rows=payload["rows"])


def write_count_table(counts: CountTable, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(counts.to_dict(), fh, indent=2)
        fh.write("\n")


def read_count_table(path: str) -> CountTable:
    """Count table from a JSON object or a one-row CSV file.

    An unreadable file, or content that is not a usable count table, raises
    ConfigError.
    """
    try:
        return _read_count_table(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _read_count_table(path: str) -> CountTable:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read count table from {path!r}: {exc}") from exc
    try:
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("count table JSON must be an object")
        return CountTable.from_dict(payload)
    except json.JSONDecodeError:
        pass
    # CSV fallback: one header row plus one data row
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) != 2:
        raise ValueError(f"count table file {path!r} is neither JSON nor single-row CSV")
    header = [h.strip() for h in lines[0].split(",")]
    values = [v.strip() for v in lines[1].split(",")]
    if len(header) != len(values):
        raise ValueError(f"count table CSV in {path!r} has mismatched header and row")
    return CountTable.from_dict(dict(zip(header, values)))
