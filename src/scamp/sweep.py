"""Parameter sweeps, figure-reproduction datasets and their serialization.

A sweep evaluates the analytic model (and, in ``both`` mode, the Monte
Carlo) on a grid of (state-set size, input mean photon number) points and
emits one row per point with fixed, documented columns.  A sweep builds one
``amplifier.BranchKernel`` per state-set size, from the spec's splitters and
detectors D0/D1; a point supplies only its base amplitude sqrt(alpha_sq) and
gets its branch table, input 0's N branches, from the kernel.  It computes
only the columns it emits from the table: the visibility columns scan
detector DA against the table's target ``table.target``, and the Monte Carlo
columns, in ``MC_COLUMNS`` order, are ``montecarlo.point_estimates``: one
draw over the (1, N, 16) (bin, offset, pattern) cells of the table against
that target.  The sweep reads no tally itself.
Each point is finished in one pass, in grid order: its branch table, its
analytic columns and its Monte Carlo draw, so no table outlives its point.
The visibility scan takes a block of points at a time, holding only their
rows, outputs, targets and mixture weights: as many whole points as fit in
``analysis._SCAN_BLOCK_CELLS`` = 2^12 (point, component, phase) cells,
whose scan peaks at about 330 KiB, or one point that is larger.  Every value
is the one the point gets when swept alone.  The first failing point in grid
order raises first: the points before it are drawn, and the scan of a
validated spec raises nothing.  No column reads the analyzer imperfection
epsilon, so a sweep never derives it.  Figure datasets hold a few columns of
the same rows; they are model curves only, never measured points.  A
:class:`Dataset` holds the rows and the :class:`SweepSpec` they are
computed from; CSV carries the rows alone, and only JSON builds the spec
echo (:meth:`Dataset.echo`), as {"spec": ..., "rows": ...}.  Only a Monte
Carlo sweep imports ``montecarlo``, as it starts.
"""

from __future__ import annotations

import json
import math
import operator
import os
import stat
from collections.abc import Callable
from dataclasses import dataclass, field

from . import params
from .amplifier import BranchKernel, BranchTable, Conditioning, _splitter_amplitudes
from .analysis import (
    MAX_COUNT,
    MAX_PHASE_POINTS,  # the sweep's bound too, importable from here
    PHASE_POINTS,
    CountTable,
    estimate_fidelity,
    estimate_pulse_numbers,
    scan_block_points,
    visibilities,
)
from .detectors import DetectorBank
from .errors import ConfigError, InsufficientSignalError, as_integer, checked

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
_PULSES = (as_integer, 1, MAX_COUNT, f"lie in [1, {MAX_COUNT}] for a montecarlo sweep")
# Checked before anything is allocated, these bound a point's memory: its branch
# table holds input 0's N branches (about 70 KiB of Python objects at N = 256),
# its Monte Carlo draw N*16 guess-offset cells (32 KiB of int64 at N = 256), and
# the reference scan 1 MiB (complex128) at analysis.MAX_PHASE_POINTS.
MAX_N_STATES = 256
_N_STATES = (as_integer, 1, MAX_N_STATES, f"lie in [1, {MAX_N_STATES}]")

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
        for name in ("comparison_reflectivity", "subtraction_transmission", "prf", "seed"):
            object.__setattr__(self, name, checked(name, getattr(self, name)))
        if self.epsilon is not None:  # None is auto
            object.__setattr__(self, "epsilon", checked("epsilon", self.epsilon))
        object.__setattr__(self, "n_pulses", as_integer("n_pulses", self.n_pulses))
        object.__setattr__(self, "phase_points", checked("phase_points", self.phase_points, PHASE_POINTS))
        grid, sizes = self.alpha_sq_grid, self.n_states_list
        object.__setattr__(self, "alpha_sq_grid", tuple(checked("alpha_sq", a) for a in grid))
        object.__setattr__(self, "n_states_list", tuple(checked("n_states", n, _N_STATES) for n in sizes))
        if len(self.alpha_sq_grid) == 0:
            raise ConfigError("alpha_sq_grid must be non-empty")
        if list(self.alpha_sq_grid) != sorted(set(self.alpha_sq_grid)):
            raise ConfigError("alpha_sq values must be distinct and sorted")
        if len(self.n_states_list) == 0:
            raise ConfigError("n_states_list must be non-empty")
        if len(set(self.n_states_list)) != len(self.n_states_list):
            raise ConfigError("n_states values must be distinct")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.wants_montecarlo():
            checked("n_pulses", self.n_pulses, _PULSES)
            for name in ("da", "db"):
                if getattr(self.detectors, name).eta_l() == 0.0:
                    raise ConfigError(f"detector.{name} has zero efficiency x loss: the montecarlo"
                                      " estimator needs analyzer detectors that can see light")
        # |out| and |ref| are at most (t2/r1)*alpha, so the analyzer's |out +/- ref|^2 is
        # at most 4*(t2^2/r1^2)*alpha^2; that bound, doubled for rounding, must be finite
        r1, _, t2, _ = _splitter_amplitudes(self.comparison_reflectivity, self.subtraction_transmission)
        peak = 2.0 * t2 / r1 * math.sqrt(self.alpha_sq_grid[-1])
        if not math.isfinite(2.0 * peak * peak):
            raise ConfigError(
                "the analyzer intensity 4*(t2^2/r1^2)*alpha_sq overflows at comparison_reflectivity"
                f" {self.comparison_reflectivity}, subtraction_transmission"
                f" {self.subtraction_transmission} and alpha_sq {self.alpha_sq_grid[-1]}"
            )

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


def _analytic_point(spec: SweepSpec, n_states: int, alpha_sq: float, kernel: BranchKernel,
                    columns: frozenset[str], scanned: bool) -> tuple[BranchTable, dict, list[list[float]] | None]:
    """The branch table of a point, from its size's ``kernel`` at the point's
    base amplitude, and its analytic values, computing the fidelity sum only
    when ``columns`` holds one of its columns, and, when ``scanned``, the
    weights of the three mixtures its visibility scan reads; its visibilities
    are None until the scan.  The heralded weights are summed and normalized
    once, and a point that can never herald is an error whatever its columns are."""
    table = kernel.row(complex(math.sqrt(alpha_sq)))
    p_success, weights = table.accepted()
    row = {"n_states": n_states, "alpha_sq": alpha_sq}
    if "fidelity" in columns or "correct_state_fraction" in columns:
        fom = table.figures(p_success, weights)
        row["fidelity"] = fom.fidelity
        row["correct_state_fraction"] = fom.correct_state_fraction
    row["success_probability"] = p_success
    row["success_rate_per_s"] = p_success * spec.prf
    if not scanned:
        return table, row, None
    row.update(dict.fromkeys(_VISIBILITY_COLUMNS))
    # the three conditioned mixtures share input 0's components
    unconditioned, silent = table.accepted(Conditioning.NONE)[1], table.accepted(Conditioning.D0_SILENT)[1]
    return table, row, [unconditioned, silent, weights]


def run_sweep(spec: SweepSpec, workers: int = 1) -> Dataset:
    """Evaluate the sweep grid; rows are ordered by grid position.

    Each row holds ``spec.columns()``.  :func:`reproduce_figure` builds its
    rows the same way with fewer columns, and computes only those.
    ``workers`` is the Monte Carlo worker count, checked to be an integer >= 1.
    """
    checked("workers", workers)
    return Dataset(spec, _rows(spec, spec.columns()))


def _rows(spec: SweepSpec, columns: tuple[str, ...]) -> list[dict]:
    """One row of ``columns`` per grid point, in grid order.

    Each state-set size builds one branch kernel, and each point passes it
    only its base amplitude.  A point is finished in one pass: its table and
    analytic columns are built and its Monte Carlo columns drawn, so no table
    outlives its point.  Its row, outputs, target and mixture weights wait in
    a scan block; one :func:`visibilities` call fills the block's rows when it
    holds :func:`analysis.scan_block_points` points, or at the end of the
    size's grid.  A failing point raises at once, and it is the first failing
    point in grid order: the points before it have been drawn, and the scan
    raises nothing for a validated spec, which keeps the analyzer intensity
    finite.
    """
    wanted = frozenset(columns)
    scanned = not wanted.isdisjoint(_VISIBILITY_COLUMNS)
    montecarlo = spec.wants_montecarlo()
    if montecarlo:
        from .montecarlo import point_estimates
    grid = spec.alpha_sq_grid
    rows, block = [], []
    for n_states in spec.n_states_list:
        # the spec has checked the splitters and every alpha^2
        kernel = BranchKernel(spec.comparison_reflectivity, spec.subtraction_transmission, n_states,
                              spec.detectors.d0, spec.detectors.d1)
        step = scan_block_points(n_states, spec.phase_points)
        for alpha_sq in grid:
            table, row, weights = _analytic_point(spec, n_states, alpha_sq, kernel, wanted, scanned)
            if montecarlo:
                # the point's index in the grid seeds its draw
                row.update(zip(MC_COLUMNS, point_estimates(table, spec.detectors, spec.n_pulses,
                                                           spec.seed, len(rows))))
            rows.append(row)
            if not scanned:
                continue
            block.append((row, table.output, weights, table.target))
            # the grid is sorted, so its last value ends the size's last block
            if len(block) == step or alpha_sq == grid[-1]:
                queued, outputs, weight_sets, targets = zip(*block)
                values = iter(visibilities(outputs, weight_sets, targets, spec.detectors.da, spec.phase_points))
                for queued_row in queued:
                    # zip ends on the columns, so each row takes the next three values
                    queued_row.update(zip(_VISIBILITY_COLUMNS, values))
                block.clear()
    # a sweep's rows are built in column order; a figure's hold more values
    return rows if columns == spec.columns() else [{c: row[c] for c in columns} for row in rows]


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


def dataset_to_csv(dataset: Dataset) -> str:
    """One header line and one line per row: integer columns (INT_COLUMNS) as
    ``%d``, every other cell as ``%.17g``, the text of :func:`fmt17`."""
    if not dataset.rows:
        raise ValueError("dataset has no rows")
    columns = list(dataset.rows[0])
    line = ",".join("%d" if c in INT_COLUMNS else "%.17g" for c in columns)
    # one column gives a bare value, which % takes as its one argument
    cells = operator.itemgetter(*columns)
    lines = [",".join(columns)]
    lines += [line % cells(row) for row in dataset.rows]
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


# no O_TRUNC: write_text rewrites an existing file in place, then cuts it
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def write_text(path: str, text: str, what: str) -> None:
    """Write ``text`` to ``path``; an OSError says what was written where.

    The path is opened as ``open(path, "w")`` opens it (through a symlink,
    mode 0o666 less the umask, same encoding and newlines), except that an
    existing file is not truncated first: the text overwrites it in place,
    and a regular file is then cut to the written length.  Truncating a
    file that holds data to zero bytes costs more than writing a small
    file, and on ext4 it also starts writeback at close.  A device or FIFO
    is written, never cut.  If the write or the cut fails, the file is cut
    to zero bytes (as far as that works) before the error propagates, so
    it never holds new text followed by old.
    """
    try:
        fd = os.open(path, _WRITE_FLAGS, 0o666)
        try:
            with open(fd, "w", closefd=False) as fh:
                fh.write(text)
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    fh.truncate()
        except BaseException:
            try:
                os.ftruncate(fd, 0)
            except OSError:
                pass
            raise
        finally:
            os.close(fd)
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
