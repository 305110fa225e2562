"""Stochastic simulation of the full experiment, tallied per cell.

Each pulse draws an input state and a guess state, clicks at the heralding
detectors D0/D1 from the branch amplitudes, and clicks at DA/DB after the
branch output meets the analysis interferometer (test state phase-locked to
the input, plus the scheduled scan phase).  Counts are tallied per (phase
bin, input, guess, 4-bit click pattern).

The cell law is written once, in :func:`_cell_probabilities`: a cell's
probability is ((q_k/M * f0) * f1) * (fa * fb), the guess prior q_k over M
input rows times the (silent, fired) click factors of D0, D1, DA and DB,
written into a fresh C-order (P, M, N, 16) array with each phase bin
normalised.  Two draws feed it, each one ``Generator.multinomial`` call per
phase bin from one stream seeded by a seed alone, so its cost does not
depend on the number of pulses (pulse i falls in bin i mod P):

- ``simulate_run`` draws the full tally over every row of the point's
  branch table, against the analyzer reference rotated by each input
  phase and scan phase (:func:`_click_factors`).  The result is
  bit-identical for a given master seed whatever worker count is asked for
  (the count is checked, but changes neither the output nor the speed).
- A sweep point draws over the N*16 (offset, pattern) cells of input 0
  (:func:`_offset_draw`), fed straight from row 0 of the table against its
  target output, with M = P = 1.  Under a uniform guess prior a cell
  depends on (input m, guess k) only through the offset d = (k - m) mod N:
  rotating input and guess together rotates every field, and the reference
  rotates with the input.  So these cells carry the full draw's
  distribution summed over inputs by offset (the aggregation property of
  the multinomial), which is all a sweep column reads;
  :func:`_offset_fidelity` estimates the output fidelity from them.  The
  point's stream is two ``SeedSequence`` steps, both here: the sweep's
  master seed and the point's grid index give the point's seed
  (:func:`_point_seed`, printed as its ``mc_seed``), and that seed alone
  seeds the draw, so a row's ``mc_seed`` reproduces its counts.

A tally is projected by one integer matrix product.  ``simulate_chunk`` is
the pulse-by-pulse sampler the tally stands for: chunk c of a fixed chunk
size draws from its own stream derived from (master_seed, c), and chunk
tallies merge by addition.  Tests compare the multinomial draw against it;
only it reads the cumulative guess distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplifier import AmplifierConfig, BranchTable, Conditioning, branch_table
from .analysis import (
    AnalysisConfig,
    CountTable,
    estimate_class_pulse_numbers,
    fringe_visibility,
    port_click,
)
from .coherent import overlap_sq
from .detectors import DetectorBank
from .errors import InsufficientSignalError, check_workers

DEFAULT_CHUNK_SIZE = 1 << 16

# click-pattern bit layout, most significant first
_BIT_D0 = 8
_BIT_D1 = 4
_BIT_DA = 2
_BIT_DB = 1
_N_PATTERNS = 16
# "detector X fired" over the 16 patterns
_FIRED = {
    name: (np.arange(_N_PATTERNS) & bit) != 0
    for name, bit in (("d0", _BIT_D0), ("d1", _BIT_D1), ("da", _BIT_DA), ("db", _BIT_DB))
}
# per conditioning, the (16, 4) 0/1 matrix that projects pattern counts onto
# (accepted, accepted with DA fired, accepted with DB fired, accepted with both fired)
_PROJECTION = {
    c: np.stack(
        [acc, acc & _FIRED["da"], acc & _FIRED["db"], acc & _FIRED["da"] & _FIRED["db"]], axis=1
    ).astype(np.int64)
    for c, acc in (
        (Conditioning.NONE, np.ones(_N_PATTERNS, dtype=bool)),
        (Conditioning.D0_SILENT, ~_FIRED["d0"]),
        (Conditioning.D0_SILENT_D1_FIRES, ~_FIRED["d0"] & _FIRED["d1"]),
    )
}


@dataclass(frozen=True)
class RunSpec:
    """Everything one stochastic run needs, including its master seed."""

    amplifier: AmplifierConfig
    detectors: DetectorBank
    analysis: AnalysisConfig
    n_pulses: int
    master_seed: int
    phase_schedule: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if self.n_pulses < 1:
            raise ValueError(f"n_pulses must be >= 1, got {self.n_pulses}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be a nonnegative integer, got {self.master_seed}")
        if len(self.phase_schedule) == 0:
            raise ValueError("phase_schedule must contain at least one phase")


@dataclass(frozen=True)
class TallyTable:
    """Event counts per (phase bin, input, guess, D0/D1/DA/DB click pattern).

    Merging two tables is field-wise addition, so chunked simulation reduces
    to a sum in any order.
    """

    counts: np.ndarray  # int64, shape (n_phases, N, N, 16)
    phases: tuple[float, ...]
    n_states: int

    def __post_init__(self):
        expected = (len(self.phases), self.n_states, self.n_states, _N_PATTERNS)
        if self.counts.shape != expected:
            raise ValueError(f"counts shape {self.counts.shape} != {expected}")

    @property
    def n_pulses(self) -> int:
        return int(self.counts.sum())

    def merged(self, other: "TallyTable") -> "TallyTable":
        if self.phases != other.phases or self.n_states != other.n_states:
            raise ValueError("cannot merge tallies with different layouts")
        return TallyTable(self.counts + other.counts, self.phases, self.n_states)

    @classmethod
    def empty(cls, phases: tuple[float, ...], n_states: int) -> "TallyTable":
        shape = (len(phases), n_states, n_states, _N_PATTERNS)
        return cls(np.zeros(shape, dtype=np.int64), phases, n_states)


def phase_scan(n_points: int) -> tuple[float, ...]:
    """Uniform scan schedule over [0, 2*pi) for visibility runs."""
    if n_points < 2:
        raise ValueError(f"a phase scan needs >= 2 points, got {n_points}")
    return tuple(2.0 * math.pi * j / n_points for j in range(n_points))


def branch_tables(spec: RunSpec) -> tuple[np.ndarray, np.ndarray]:
    """Precompute all per-branch click probabilities for a run.

    D0/D1 clicks and outputs come from the amplifier's branch table.  The
    analyzer reference for input m is the configured reference rotated by the
    input phase 2*pi*m/N (the test state is a copy of that pulse's expected
    amplified state) and by each scheduled scan phase.  Returns the (silent,
    fired) click factors of :func:`_click_factors`.
    """
    return _click_factors(spec, branch_table(spec.amplifier, spec.detectors.d0, spec.detectors.d1))


def _click_factors(spec: RunSpec, table: BranchTable) -> tuple[np.ndarray, np.ndarray]:
    """(silent, fired) click factors of every row of ``table`` against the
    rotated references of :func:`branch_tables`; see :func:`_factor_pairs`."""
    rows, n = len(table.target), len(table.prior)
    z_ref = spec.analysis.reference_amplitude
    input_phases = np.exp(2j * np.pi * np.arange(rows) / n)
    scan = np.exp(1j * np.asarray(spec.phase_schedule))
    # reference per (phase bin, input): outer product of the two phase factors
    ref = (z_ref * scan[:, None] * input_phases[None, :])[:, :, None]
    return _factor_pairs(table.d0_click, table.d1_click, np.array(table.output, dtype=complex), ref,
                         spec.detectors, (len(scan), rows, n))


def _factor_pairs(
    d0_click, d1_click, out, ref, detectors: DetectorBank, shape: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """(silent, fired) click factors by pattern bit value along the last axis:
    D0/D1 (2, M, N, 2) from their (M, N) click probabilities, and DA/DB
    (2, P, M, N, 2) from the outputs ``out`` against the analyzer reference
    ``ref``, broadcast to ``shape`` = (P, M, N)."""
    heralds = np.empty((2,) + shape[1:] + (2,))
    heralds[..., 1] = d0_click, d1_click
    analyzer = np.empty((2,) + shape + (2,))
    analyzer[0, ..., 1] = port_click(out, ref, detectors.da, "A")
    analyzer[1, ..., 1] = port_click(out, ref, detectors.db, "B")
    for factors in (heralds, analyzer):
        np.subtract(1.0, factors[..., 1], out=factors[..., 0])
    return heralds, analyzer


def _cell_probabilities(prior, heralds: np.ndarray, analyzer: np.ndarray) -> np.ndarray:
    """Probability of each (input, guess, click pattern) cell, per phase bin: the cell law.

    The prior (1/M)*q_k of an (input m, guess k) pair over M input rows, times
    the independent D0/D1/DA/DB click factors of each pattern
    (:func:`_factor_pairs`), as ((q_k/M * f0) * f1) * (fa * fb), shape
    (P, M, N, 16), with every bin normalised to sum to one.
    """
    (f0, f1), (fa, fb) = heralds, analyzer
    shape = fa.shape[:3]
    # q_k/M broadcasts over the inputs m
    weights = np.asarray(prior, dtype=float) / shape[1]
    herald_cells = weights[:, None, None] * f0[:, :, :, None] * f1[:, :, None, :]
    analyzer_cells = fa[..., :, None] * fb[..., None, :]
    # a fresh C-order array: each bin's sum then adds in one order for every caller
    cells = np.empty(shape + (_N_PATTERNS,))
    np.multiply(herald_cells[:, :, :, :, None, None], analyzer_cells[:, :, :, None, None, :, :],
                out=cells.reshape(shape + (2, 2, 2, 2)))
    cells /= cells.sum(axis=(1, 2, 3), keepdims=True)
    return cells


def simulate_chunk(
    spec: RunSpec,
    chunk_index: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    tables: tuple[np.ndarray, np.ndarray] | None = None,
) -> TallyTable:
    """Simulate one chunk of pulses with its own derived random stream.

    ``tables`` are the run's :func:`branch_tables`, built here if not given.
    """
    start = chunk_index * chunk_size
    count = min(chunk_size, spec.n_pulses - start)
    if count <= 0:
        return TallyTable.empty(spec.phase_schedule, spec.amplifier.n_states())
    if tables is None:
        tables = branch_tables(spec)
    # the fired planes of the D0/D1 and DA/DB click factors
    (p0, p1), (pa, pb) = (f[..., 1] for f in tables)
    n = spec.amplifier.n_states()
    n_phases = len(spec.phase_schedule)
    ss = np.random.SeedSequence(entropy=spec.master_seed, spawn_key=(chunk_index,))
    rng = np.random.Generator(np.random.PCG64(ss))

    inputs = rng.integers(0, n, size=count)
    guess_cdf = np.cumsum(np.asarray(spec.amplifier.guess_distribution))
    guess_cdf[-1] = 1.0
    guesses = np.searchsorted(guess_cdf, rng.random(count), side="right")
    u0 = rng.random(count)
    u1 = rng.random(count)
    ua = rng.random(count)
    ub = rng.random(count)

    j = (start + np.arange(count)) % n_phases
    d0 = u0 < p0[inputs, guesses]
    d1 = u1 < p1[inputs, guesses]
    da = ua < pa[j, inputs, guesses]
    db = ub < pb[j, inputs, guesses]
    pattern = (
        d0.astype(np.int64) * _BIT_D0
        + d1.astype(np.int64) * _BIT_D1
        + da.astype(np.int64) * _BIT_DA
        + db.astype(np.int64) * _BIT_DB
    )
    flat = ((j * n + inputs) * n + guesses) * _N_PATTERNS + pattern
    counts = np.bincount(flat, minlength=n_phases * n * n * _N_PATTERNS)
    counts = counts.reshape(n_phases, n, n, _N_PATTERNS).astype(np.int64)
    return TallyTable(counts, spec.phase_schedule, n)


def simulate_run(spec: RunSpec, workers: int = 1) -> TallyTable:
    """Simulate the full run; deterministic for a fixed master seed.

    Draws each phase bin's tally as one multinomial sample over its cells,
    from a stream seeded by the master seed alone.  ``workers`` is checked
    (:func:`errors.check_workers`) and kept for callers; the draw is one
    stream, so any worker count gives the same tally in the same time.
    """
    check_workers(workers)
    table = branch_table(spec.amplifier, spec.detectors.d0, spec.detectors.d1)
    cells = _cell_probabilities(table.prior, *_click_factors(spec, table))
    counts = _draw(spec.n_pulses, spec.master_seed, cells)
    return TallyTable(counts, spec.phase_schedule, spec.amplifier.n_states())


def _draw(n_pulses: int, seed: int, cells: np.ndarray) -> np.ndarray:
    """``n_pulses`` drawn over ``cells`` (:func:`_cell_probabilities`, no guess
    CDF), int64 of their shape: one multinomial call per phase bin, in bin order,
    from one stream seeded by ``seed`` alone."""
    n_phases = len(cells)
    # pulse i falls in phase bin i mod P
    per_bin = [n_pulses // n_phases + (j < n_pulses % n_phases) for j in range(n_phases)]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    # the same stream as one call over the (P, cells) array, without its broadcasting
    counts = np.concatenate([rng.multinomial(n, p) for n, p in zip(per_bin, cells.reshape(n_phases, -1))])
    return counts.astype(np.int64, copy=False).reshape(cells.shape)


def _point_seed(master_seed: int, point_index: int) -> int:
    """The seed of sweep point ``point_index``: the first 64-bit word of the
    ``SeedSequence`` spawned from ``master_seed`` at that index."""
    state = np.random.SeedSequence(entropy=master_seed, spawn_key=(point_index,))
    return int(state.generate_state(1, np.uint64)[0])


def _offset_cells(
    table: BranchTable, detectors: DetectorBank, z_ref: complex
) -> tuple[np.ndarray, np.ndarray]:
    """The (1, 1, N, 16) cells of input 0 under the table's uniform prior, and
    the (N, 2) rows (p_A, p_B) at which offset d's output ``table.output[0][d]``
    fires DA and DB against the reference ``z_ref`` (input and scan phase 1)."""
    if len(set(table.prior)) > 1:
        raise ValueError("the guess-offset draw needs a uniform guess prior")
    out = np.array(table.output[0])
    heralds, analyzer = _factor_pairs([table.d0_click[0]], [table.d1_click[0]], out, z_ref,
                                      detectors, (1, 1, len(out)))
    return _cell_probabilities(table.prior, heralds, analyzer), analyzer[:, 0, 0, :, 1].T


def _offset_draw(table: BranchTable, detectors: DetectorBank, z_ref: complex, n_pulses: int,
                 seed: int, condition) -> tuple[np.ndarray, np.ndarray]:
    """Accepted pulses per guess offset d = (guess - input) mod N, int64 (N, 4)
    rows of (accepted, with DA fired, with DB fired, with both fired), drawn
    over :func:`_offset_cells` by one multinomial call seeded by ``seed``, and
    those cells' (p_A, p_B) rows.  The counts have the distribution of the
    full draw's counts summed by offset (see the module docstring)."""
    cells, clicks = _offset_cells(table, detectors, z_ref)
    return _draw(n_pulses, seed, cells)[0, 0] @ _PROJECTION[Conditioning(condition)], clicks


def _offset_fidelity(table: BranchTable, by_offset, clicks) -> tuple[float, float]:
    """Estimated output fidelity and its standard error from per-offset counts.

    ``by_offset`` and ``clicks`` are the rows of :func:`_offset_draw`: offset d
    counts (accepted, n_A, n_B, n_AB), and its output ``table.output[0][d]``
    fires DA with p_A,d and DB with p_B,d, so its pulse number is
    N_d = (n_A,d + n_B,d) / (p_A,d + p_B,d) (:func:`estimate_class_pulse_numbers`), and

        F = sum_d o_d*N_d / sum_d N_d,    o_d = |<output d|target 0>|^2.

    The standard error is the delta-method one: Var(n_A + n_B) is
    n_A + n_B + 2*n_AB, and the multinomial covariances between offsets
    cancel at the estimate.  Raises InsufficientSignalError when an offset
    class is unobservable or no pulse is attributed to any class.
    """
    outputs, target = table.output[0], table.target[0]
    pulses = estimate_class_pulse_numbers([(n_a, n_b) for _, n_a, n_b, _ in by_offset], clicks)
    total = math.fsum(pulses)
    if not total > 0.0:
        raise InsufficientSignalError("no pulses attributed to any offset class")
    overlaps = [overlap_sq(z, target) for z in outputs]
    fidelity = math.fsum(o * n for o, n in zip(overlaps, pulses)) / total
    variance = math.fsum(
        (o - fidelity) ** 2 * (n_a + n_b + 2 * n_ab) / (p_a + p_b) ** 2
        for o, (_, n_a, n_b, n_ab), (p_a, p_b) in zip(overlaps, by_offset, clicks)
    )
    return fidelity, math.sqrt(variance) / total


def conditioned_counts(t: TallyTable, condition) -> CountTable:
    """Project a tally onto a count table under the requested conditioning.

    "sig" counts come from correct-guess pulses, "vac" counts from
    wrong-guess pulses.  For the two-state set the wrong branch output is
    exactly vacuum; for larger sets the wrong-guess outputs are not, so the
    two-class estimator reads such counts with a bias.  The sweep's
    ``mc_fidelity`` estimates per guess offset instead (:func:`_offset_fidelity`).
    """
    return _class_projection(t, condition)[1]


def conditioned_class_totals(t: TallyTable, condition) -> tuple[int, int]:
    """Accepted pulse counts in the (correct, wrong) guess classes."""
    return _class_projection(t, condition)[0]


def _class_projection(t: TallyTable, condition) -> tuple[tuple[int, int], CountTable]:
    """:func:`conditioned_class_totals` and :func:`conditioned_counts`, projected once."""
    per_pair = t.counts.sum(axis=0) @ _PROJECTION[Conditioning(condition)]
    correct = per_pair.trace()  # guess == input
    wrong = per_pair.sum(axis=(0, 1)) - correct
    (acc_c, a_c, b_c, _), (acc_w, a_w, b_w, _) = correct.tolist(), wrong.tolist()
    counts = CountTable(n_A_sig=float(a_c), n_B_sig=float(b_c), n_A_vac=float(a_w), n_B_vac=float(b_w))
    return (acc_c, acc_w), counts


def mc_visibility(t: TallyTable, condition) -> float:
    """Visibility of the conditioned DA count rate across the phase schedule."""
    by_phase = t.counts.sum(axis=(1, 2))
    per_phase_pulses = by_phase.sum(axis=1).astype(float)
    if np.any(per_phase_pulses == 0):
        raise ValueError("phase schedule has empty bins; run more pulses")
    n_a = (by_phase @ _PROJECTION[Conditioning(condition)])[:, 1]
    return fringe_visibility((n_a / per_phase_pulses)[None])[0]


def standard_error(k: int, n: int) -> float:
    """Binomial standard error sqrt(p*(1-p)/n) of a count k out of n."""
    if n < 1:
        raise ValueError(f"total must be >= 1, got {n}")
    if not (0 <= k <= n):
        raise ValueError(f"count {k} outside [0, {n}]")
    p = k / n
    return math.sqrt(p * (1.0 - p) / n)
