"""Parameter sweeps, figure-reproduction datasets and their serialization.

A sweep evaluates the analytic model (and, in ``both`` mode, the Monte Carlo)
on a grid of (state-set size, input mean photon number) points and emits one
row per point with fixed, documented columns.  Each point builds one branch
table, input 0's N branches, and computes only the columns it emits from
it: the visibility columns share one scan of detector DA against the table's
target ``table.target``, and the Monte Carlo columns are drawn by
``montecarlo`` from the table against that same target.  No column reads
the analyzer imperfection epsilon, so a sweep never derives it.  Figure
datasets hold a few columns of the same rows; they are model curves only,
never measured points.  A :class:`Dataset` holds the rows and the
:class:`SweepSpec` they are computed from; CSV carries the rows alone, and
only JSON builds the spec echo (:meth:`Dataset.echo`), as {"spec": ...,
"rows": ...}.  The Monte Carlo module is imported by the first Monte Carlo
row.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from collections.abc import Callable
from dataclasses import dataclass, field

from . import params
from .amplifier import BranchTable, Conditioning, branch_table
from .analysis import (
    MAX_COUNT,
    CountTable,
    estimate_fidelity,
    estimate_pulse_numbers,
    visibilities,
)
from .detectors import DetectorBank
from .errors import ConfigError, InsufficientSignalError, check_workers

MODES = ("analytic", "both")
FORMATS = ("csv", "json")

_VISIBILITY_COLUMNS = ("visibility_unconditioned", "visibility_d0_silent", "visibility_conditioned")
BASE_COLUMNS = (
    "n_states",
    "alpha_sq",
    "fidelity",
    "correct_state_fraction",
    "success_probability",
    "success_rate_per_s",
) + _VISIBILITY_COLUMNS
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
# Checked before anything is allocated, these bound a point's memory: its branch
# table holds input 0's N branches (about 70 KiB of Python objects at N = 256),
# its Monte Carlo draw N*16 guess-offset cells (32 KiB of int64 at N = 256), and
# the reference scan 1 MiB (complex128) at 65536 phase points.
MAX_N_STATES = 256
MAX_PHASE_POINTS = 1 << 16

# figure id -> (the state-set size it fixes, its columns)
FIGURE_LAYOUTS = {
    "fig3a": (2, ("alpha_sq",) + _VISIBILITY_COLUMNS),
    "fig3b": (2, ("alpha_sq", "correct_state_fraction", "fidelity")),
    "fig3c": (4, ("alpha_sq", "correct_state_fraction", "fidelity")),
    "fig3d": (8, ("alpha_sq", "correct_state_fraction", "fidelity")),
    "fig4": (2, ("alpha_sq", "success_rate_per_s")),
}


@dataclass(frozen=True)
class SweepSpec:
    """Grid, mode and physics parameters of one sweep."""

    alpha_sq_grid: tuple[float, ...]
    n_states_list: tuple[int, ...]
    mode: str = "analytic"
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
        # |out| and |ref| are at most (t2/r1)*alpha, so the analyzer's |out +/- ref|^2 is
        # at most 4*(t2^2/r1^2)*alpha^2; that bound, doubled for rounding, must be finite
        peak = 2.0 * math.sqrt(self.subtraction_transmission) / math.sqrt(self.comparison_reflectivity)
        peak *= math.sqrt(self.alpha_sq_grid[-1])
        if not math.isfinite(2.0 * peak * peak):
            raise ConfigError(
                "the analyzer intensity 4*(t2^2/r1^2)*alpha_sq overflows at comparison_reflectivity"
                f" {self.comparison_reflectivity}, subtraction_transmission"
                f" {self.subtraction_transmission} and alpha_sq {self.alpha_sq_grid[-1]}"
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
        return self.mode == "both"

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
    """The spec the rows are computed from plus one record per grid point, in
    grid order; a figure's dataset also names its figure."""

    spec: SweepSpec
    rows: list[dict]
    figure_id: str | None = None

    def echo(self) -> dict:
        """The spec as JSON-ready plain values (:meth:`SweepSpec.echo`); a
        figure's also names the figure and labels its rows model curves."""
        echo = self.spec.echo()
        if self.figure_id is not None:
            echo["figure_id"] = self.figure_id
            echo["data"] = "model-curves"
        return echo


def _analytic_columns(spec: SweepSpec, table: BranchTable, columns: frozenset[str]) -> dict:
    """The analytic values of a point, computing the fidelity sum and the
    visibility scan only when ``columns`` holds one of their columns.  The
    heralded weights are summed and normalized once, and a point that can
    never herald is an error whatever its columns are."""
    p_success, weights = table.accepted()
    row = {}
    if "fidelity" in columns or "correct_state_fraction" in columns:
        fom = table.figures(p_success, weights)
        row["fidelity"] = fom.fidelity
        row["correct_state_fraction"] = fom.correct_state_fraction
    row["success_probability"] = p_success
    row["success_rate_per_s"] = p_success * spec.prf
    if not columns.isdisjoint(_VISIBILITY_COLUMNS):
        # DA scans input 0's target; the three conditioned mixtures share components
        weight_sets = [table.accepted(cond)[1] for cond in (Conditioning.NONE, Conditioning.D0_SILENT)]
        weight_sets.append(weights)
        scan = visibilities(table.output, weight_sets, table.target, spec.detectors.da, spec.phase_points)
        row.update(zip(_VISIBILITY_COLUMNS, scan))
    return row


def _montecarlo_columns(spec: SweepSpec, table: BranchTable, point_index: int) -> dict:
    """The Monte Carlo values of grid point ``point_index``, all from one draw
    over the N*16 guess-offset cells of input 0 (offset 0 is the correct
    class), built from ``table`` against its target output."""
    from .montecarlo import _offset_draw, _offset_fidelity, _point_seed, standard_error

    seed = _point_seed(spec.seed, point_index)
    by_offset, clicks = _offset_draw(
        table, spec.detectors, table.target, spec.n_pulses, seed, Conditioning.D0_SILENT_D1_FIRES
    )
    by_offset = by_offset.tolist()
    n_correct = by_offset[0][0]
    accepted = sum(row[0] for row in by_offset)
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
    try:
        out["mc_fidelity"], out["mc_fidelity_se"] = _offset_fidelity(table, by_offset, clicks.tolist())
    except InsufficientSignalError:
        out["mc_fidelity"] = math.nan
        out["mc_fidelity_se"] = math.nan
    return out


def run_sweep(spec: SweepSpec, workers: int = 1) -> Dataset:
    """Evaluate the sweep grid; rows are ordered by grid position.

    Each row holds ``spec.columns()``.  :func:`reproduce_figure` builds its
    rows the same way with fewer columns, and computes only those.
    ``workers`` is the Monte Carlo worker count of :func:`check_workers`.
    """
    check_workers(workers)
    return Dataset(spec, _rows(spec, spec.columns()))


def _rows(spec: SweepSpec, columns: tuple[str, ...]) -> list[dict]:
    """One row of ``columns`` per grid point, in grid order."""
    wanted = frozenset(columns)
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
            table = branch_table(cfg, spec.detectors.d0, spec.detectors.d1)
            row = {"n_states": n_states, "alpha_sq": alpha_sq}
            row.update(_analytic_columns(spec, table, wanted))
            if spec.wants_montecarlo():
                row.update(_montecarlo_columns(spec, table, point_index))
            rows.append({c: row[c] for c in columns})
            point_index += 1
    return rows


def reproduce_figure(figure_id: str, **fields) -> Dataset:
    """Model-curve dataset for one of the known figure layouts.

    A figure is an analytic sweep of one state-set size that computes only
    the figure's columns: fig3b-d skip the visibility scans, and fig4 also
    skips the fidelity sum.  A point that can never herald still raises
    NeverHeraldedError, as in a full sweep.  ``fields`` are further
    SweepSpec fields (splitters, detectors, prf, epsilon, phase_points, ...).  The figure fixes
    ``n_states_list`` and the analytic mode, so setting ``n_states_list``, or
    a ``mode`` other than "analytic", raises ConfigError.  Without
    ``alpha_sq_grid`` the figure's own grid is used.  The rows are model
    curves; no measured points are produced or implied.
    """
    if figure_id not in FIGURE_LAYOUTS:
        raise ConfigError(
            f"unknown figure id {figure_id!r}; expected one of {sorted(FIGURE_LAYOUTS)}"
        )
    n_states, columns = FIGURE_LAYOUTS[figure_id]
    if "n_states_list" in fields:
        raise ConfigError(f"{figure_id} fixes n_states = {n_states}; do not set it")
    mode = fields.pop("mode", "analytic")
    if mode != "analytic":
        raise ConfigError(f"figures are analytic model curves; mode must be analytic, got {mode!r}")
    fields.setdefault(
        "alpha_sq_grid",
        params.FIG4_ALPHA_SQ_GRID if figure_id == "fig4" else params.FIG3_ALPHA_SQ_GRID,
    )
    spec = SweepSpec(n_states_list=(n_states,), **fields)
    return Dataset(spec, _rows(spec, columns), figure_id)


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


def _json_cell(value):
    """A non-finite float as None, so it is written as JSON ``null``."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def dataset_to_json(dataset: Dataset) -> str:
    """RFC 8259 JSON: a NaN or infinite cell is written as ``null``."""
    rows = [{c: _json_cell(v) for c, v in row.items()} for row in dataset.rows]
    return json.dumps({"spec": dataset.echo(), "rows": rows}, indent=2, allow_nan=False) + "\n"


def serializer(output_format: str) -> Callable[[Dataset], str]:
    """The function that writes a dataset as ``output_format`` text, for
    stdout and files alike; a format not in FORMATS is a ConfigError."""
    if output_format == "csv":
        return dataset_to_csv
    if output_format == "json":
        return dataset_to_json
    raise ConfigError(f"output format must be one of {FORMATS}, got {output_format!r}")


def write_text(path: str, text: str, what: str) -> None:
    """Write ``text`` to ``path``; an OSError says what was written where."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path!r}: {exc}") from exc


def write_dataset(dataset: Dataset, path: str, output_format: str) -> None:
    write_text(path, serializer(output_format)(dataset), "dataset")


def write_count_table(counts: CountTable, path: str) -> None:
    write_text(path, json.dumps(counts.to_dict(), indent=2) + "\n", "count table")


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
