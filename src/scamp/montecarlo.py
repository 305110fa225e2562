"""Stochastic simulation of the full experiment, tallied per guess offset.

Each pulse draws an input state and a guess state, each uniformly from the
N states of the set, clicks at the heralding detectors D0/D1 from the branch
amplitudes, and clicks at DA/DB after the branch output meets the analysis
interferometer (test state phase-locked to the input, plus the scheduled
scan phase).  The set is symmetric, so every click probability depends on
(input m, guess k) only through the guess offset d = (k - m) mod N (see
``amplifier``: input m's branch at guess k is input 0's at offset d, its
reference rotating with the input).  Counts are tallied per (phase bin,
offset, 4-bit click pattern), shape (P, N, 16); offset 0 is the correct
guess, and only this module reads that layout.

There is one draw, :func:`_offset_draw`: input 0's (silent, fired) click
factors against the analyzer reference at each of P phases
(:func:`_factor_pairs`), the cell law written once
(:func:`_cell_probabilities`: the guess prior 1/N times the D0, D1, DA and
DB factors, ((1/N * f0) * f1) * (fa * fb), each phase bin normalised), and
one ``Generator.multinomial`` call per bin from one stream seeded by a seed
alone (:func:`_draw`), so its cost does not depend on the number of pulses
(pulse i falls in bin i mod P).  By the aggregation property of the
multinomial, its counts have the distribution of a draw over all N*N
(input, guess) pairs summed by offset.

- ``simulate_run`` draws against the run's reference at each scheduled scan
  phase, seeded by the master seed, so the tally is bit-identical for a
  given master seed whatever worker count is asked for (the count is
  checked, but changes neither the output nor the speed).
- A sweep point draws against its target output in one bin, and reads each
  offset's DA/DB click probabilities from the same factors;
  :func:`point_estimates` turns the draw into the point's Monte Carlo
  columns, and :func:`_offset_fidelity` estimates the output fidelity.  The
  sweep's master seed and the point's grid index give the point's seed
  (:func:`_point_seed`, printed as its ``mc_seed``), and that seed alone
  seeds the draw, so a row's ``mc_seed`` reproduces its counts.

A tally is projected by one integer matrix product.  ``simulate_chunk`` is
the pulse-by-pulse sampler the tally stands for: it draws (input, guess)
per pulse and tallies the pulse at its offset; chunk c of a fixed chunk
size draws from its own stream derived from (master_seed, c), and chunk
tallies merge by addition.  Tests compare the multinomial draw against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplifier import AmplifierConfig, BranchTable, Conditioning, branch_table
from .analysis import (
    MAX_PHASE_POINTS,
    AnalysisConfig,
    CountTable,
    estimate_class_pulse_numbers,
    fringe_visibility,
    port_click,
)
from .detectors import DetectorBank
from .errors import ConfigError, InsufficientSignalError, as_integer, checked

DEFAULT_CHUNK_SIZE = 1 << 16
# the draw counts pulses in int64
_PULSES = (as_integer, 1, (1 << 63) - 1, "lie in [1, 2^63 - 1]")
# a scan's schedule is no longer than the analytic scan's
_SCAN_POINTS = (as_integer, 2, MAX_PHASE_POINTS, f"lie in [2, {MAX_PHASE_POINTS}]")

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
        object.__setattr__(self, "n_pulses", checked("n_pulses", self.n_pulses, _PULSES))
        object.__setattr__(self, "master_seed", checked("master_seed", self.master_seed))
        if len(self.phase_schedule) == 0:
            raise ConfigError("phase_schedule must contain at least one phase")
        # a tuple of floats, so that the spec hashes and its tallies merge with any equal schedule
        phases = tuple(checked("phase_schedule entry", phase) for phase in self.phase_schedule)
        object.__setattr__(self, "phase_schedule", phases)


@dataclass(frozen=True)
class TallyTable:
    """Event counts per (phase bin, guess offset, D0/D1/DA/DB click pattern).

    Merging two tables is field-wise addition, so chunked simulation reduces
    to a sum in any order.
    """

    counts: np.ndarray  # int64, shape (n_phases, N, 16)
    phases: tuple[float, ...]
    n_states: int

    def __post_init__(self):
        # a tuple of floats, as RunSpec stores its schedule, so that equal layouts merge
        object.__setattr__(self, "phases", tuple(map(float, self.phases)))
        expected = (len(self.phases), self.n_states, _N_PATTERNS)
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
        shape = (len(phases), n_states, _N_PATTERNS)
        return cls(np.zeros(shape, dtype=np.int64), phases, n_states)


def phase_scan(n_points: int) -> tuple[float, ...]:
    """Uniform visibility scan schedule of ``n_points`` in [2, MAX_PHASE_POINTS] phases over [0, 2*pi)."""
    n_points = checked("n_points", n_points, _SCAN_POINTS)
    return tuple(2.0 * math.pi * j / n_points for j in range(n_points))


def branch_tables(spec: RunSpec) -> tuple[np.ndarray, np.ndarray]:
    """Precompute all per-branch click probabilities for a run.

    The (silent, fired) click factors of :func:`_factor_pairs`: those of
    the amplifier's branch table of input 0, indexed by guess offset,
    against the analyzer reference at each scheduled scan phase.
    """
    table = branch_table(spec.amplifier, spec.detectors.d0, spec.detectors.d1)
    return _factor_pairs(table, _scan_references(spec), spec.detectors)


def _scan_references(spec: RunSpec) -> np.ndarray:
    """The run's analyzer reference at each scheduled scan phase."""
    return spec.analysis.reference_amplitude * np.exp(1j * np.asarray(spec.phase_schedule))


def _factor_pairs(table: BranchTable, refs, detectors: DetectorBank) -> tuple[np.ndarray, np.ndarray]:
    """(silent, fired) click factors of the N branches of ``table`` by pattern
    bit value along the last axis: D0/D1 (2, N, 2) from their click
    probabilities, and DA/DB (2, P, N, 2) from the outputs against each of
    the P analyzer references ``refs``."""
    n = len(table.output)
    refs = np.asarray(refs, dtype=complex).reshape(-1, 1)
    heralds = np.empty((2, n, 2))
    heralds[..., 1] = table.d0_click, table.d1_click
    out = np.array(table.output)
    analyzer = np.empty((2, len(refs), n, 2))
    analyzer[0, ..., 1] = port_click(out, refs, detectors.da, "A")
    analyzer[1, ..., 1] = port_click(out, refs, detectors.db, "B")
    for factors in (heralds, analyzer):
        np.subtract(1.0, factors[..., 1], out=factors[..., 0])
    return heralds, analyzer


def _cell_probabilities(heralds: np.ndarray, analyzer: np.ndarray) -> np.ndarray:
    """Probability of each (guess offset, click pattern) cell, per phase bin: the cell law.

    The uniform guess prior 1/N times the independent D0/D1/DA/DB click
    factors of each pattern (:func:`_factor_pairs`), as
    ((1/N * f0) * f1) * (fa * fb), shape (P, N, 16), with every bin
    normalised to sum to one.
    """
    (f0, f1), (fa, fb) = heralds, analyzer
    shape = fa.shape[:2]
    herald_cells = 1.0 / shape[1] * f0[:, :, None] * f1[:, None, :]
    analyzer_cells = fa[..., :, None] * fb[..., None, :]
    # a fresh C-order array: each bin's sum then adds in one order for every caller
    cells = np.empty(shape + (_N_PATTERNS,))
    np.multiply(herald_cells[:, :, :, None, None], analyzer_cells[:, :, None, None, :, :],
                out=cells.reshape(shape + (2, 2, 2, 2)))
    cells /= cells.sum(axis=(1, 2), keepdims=True)
    return cells


def simulate_chunk(
    spec: RunSpec,
    chunk_index: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    tables: tuple[np.ndarray, np.ndarray] | None = None,
) -> TallyTable:
    """Simulate one chunk of pulses with its own derived random stream.

    ``tables`` are the run's :func:`branch_tables`, built here if not given.
    A chunk past the run's last pulse is an empty tally.
    """
    chunk_index, chunk_size = checked("chunk_index", chunk_index), checked("chunk_size", chunk_size)
    start = chunk_index * chunk_size
    count = min(chunk_size, spec.n_pulses - start)
    if count <= 0:
        return TallyTable.empty(spec.phase_schedule, spec.amplifier.n_states())
    if tables is None:
        tables = branch_tables(spec)
    # the fired planes of the D0/D1 and DA/DB click factors, by guess offset
    (p0, p1), (pa, pb) = (f[..., 1] for f in tables)
    n = spec.amplifier.n_states()
    n_phases = len(spec.phase_schedule)
    ss = np.random.SeedSequence(entropy=spec.master_seed, spawn_key=(chunk_index,))
    rng = np.random.Generator(np.random.PCG64(ss))

    inputs = rng.integers(0, n, size=count)
    guesses = rng.integers(0, n, size=count)
    u0 = rng.random(count)
    u1 = rng.random(count)
    ua = rng.random(count)
    ub = rng.random(count)

    j = (start + np.arange(count)) % n_phases
    offsets = (guesses - inputs) % n
    d0 = u0 < p0[offsets]
    d1 = u1 < p1[offsets]
    da = ua < pa[j, offsets]
    db = ub < pb[j, offsets]
    pattern = (
        d0.astype(np.int64) * _BIT_D0
        + d1.astype(np.int64) * _BIT_D1
        + da.astype(np.int64) * _BIT_DA
        + db.astype(np.int64) * _BIT_DB
    )
    flat = (j * n + offsets) * _N_PATTERNS + pattern
    counts = np.bincount(flat, minlength=n_phases * n * _N_PATTERNS)
    counts = counts.reshape(n_phases, n, _N_PATTERNS).astype(np.int64)
    return TallyTable(counts, spec.phase_schedule, n)


def simulate_run(spec: RunSpec, workers: int = 1) -> TallyTable:
    """Simulate the full run; deterministic for a fixed master seed.

    Draws each phase bin's tally as one multinomial sample over its cells,
    from a stream seeded by the master seed alone (:func:`_offset_draw`).
    ``workers`` is checked (an integer >= 1) and kept for callers; the draw
    is one stream, so any worker count gives the same tally in the same time.
    """
    checked("workers", workers)
    table = branch_table(spec.amplifier, spec.detectors.d0, spec.detectors.d1)
    counts, _ = _offset_draw(table, spec.detectors, _scan_references(spec), spec.n_pulses, spec.master_seed)
    return TallyTable(counts, spec.phase_schedule, spec.amplifier.n_states())


def _offset_draw(table: BranchTable, detectors: DetectorBank, refs, n_pulses: int,
                 seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The one Monte Carlo draw: ``n_pulses`` over the (P, N, 16) guess-offset
    cells (:func:`_cell_probabilities`) against each of the P analyzer
    references ``refs``, seeded by ``seed`` (:func:`_draw`).

    Returns the int64 counts, and the (2, P, N) probabilities with which
    offset d's output ``table.output[d]`` fires DA and DB against each
    reference, read from the same click factors.
    """
    heralds, analyzer = _factor_pairs(table, refs, detectors)
    return _draw(n_pulses, seed, _cell_probabilities(heralds, analyzer)), analyzer[..., 1]


def _draw(n_pulses: int, seed: int, cells: np.ndarray) -> np.ndarray:
    """``n_pulses`` drawn over ``cells`` (:func:`_cell_probabilities`), int64
    of their shape: one multinomial call per phase bin, in bin order,
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


def point_estimates(table: BranchTable, detectors: DetectorBank, n_pulses: int, master_seed: int,
                    point_index: int) -> tuple:
    """Sweep point ``point_index``'s values in ``sweep.MC_COLUMNS`` order, from one draw over
    ``table``'s offset cells against its target seeded by :func:`_point_seed`: under D0 silent and
    D1 fires, success probability, correct (offset 0) fraction and fidelity (:func:`_offset_fidelity`),
    each with its standard error (NaN without signal), then ``n_pulses`` and the seed."""
    seed = _point_seed(master_seed, point_index)
    counts, clicks = _offset_draw(table, detectors, table.target, n_pulses, seed)
    by_offset = (counts[0] @ _PROJECTION[Conditioning.D0_SILENT_D1_FIRES]).tolist()
    n_correct = by_offset[0][0]
    accepted = sum(row[0] for row in by_offset)
    fraction = fidelity = (math.nan, math.nan)
    if accepted > 0:
        fraction = n_correct / accepted, standard_error(n_correct, accepted)
    try:
        fidelity = _offset_fidelity(table, by_offset, clicks[:, 0].T.tolist())
    except InsufficientSignalError:
        pass
    return (accepted / n_pulses, standard_error(accepted, n_pulses), *fraction, *fidelity, n_pulses, seed)


def _offset_fidelity(table: BranchTable, by_offset, clicks) -> tuple[float, float]:
    """Estimated output fidelity and its standard error from per-offset counts.

    ``by_offset`` and ``clicks`` are rows of one bin of :func:`_offset_draw`:
    offset d counts (accepted, n_A, n_B, n_AB) under the sweep's
    conditioning, and its output ``table.output[d]`` fires DA with p_A,d
    and DB with p_B,d, so its pulse number is
    N_d = (n_A,d + n_B,d) / (p_A,d + p_B,d) (:func:`estimate_class_pulse_numbers`), and

        F = sum_d o_d*N_d / sum_d N_d,    o_d = ``table.overlap[d]``.

    The standard error is the delta-method one: Var(n_A + n_B) is
    n_A + n_B + 2*n_AB, and the multinomial covariances between offsets
    cancel at the estimate.  Raises InsufficientSignalError when an offset
    class is unobservable or no pulse is attributed to any class.
    """
    pulses = estimate_class_pulse_numbers([(n_a, n_b) for _, n_a, n_b, _ in by_offset], clicks)
    total = math.fsum(pulses)
    if not total > 0.0:
        raise InsufficientSignalError("no pulses attributed to any offset class")
    fidelity = math.fsum(o * n for o, n in zip(table.overlap, pulses)) / total
    variance = math.fsum(
        (o - fidelity) ** 2 * (n_a + n_b + 2 * n_ab) / (p_a + p_b) ** 2
        for o, (_, n_a, n_b, n_ab), (p_a, p_b) in zip(table.overlap, by_offset, clicks)
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
    per_offset = t.counts.sum(axis=0) @ _PROJECTION[Conditioning(condition)]
    correct, wrong = per_offset[0], per_offset[1:].sum(axis=0)
    (acc_c, a_c, b_c, _), (acc_w, a_w, b_w, _) = correct.tolist(), wrong.tolist()
    counts = CountTable(n_A_sig=float(a_c), n_B_sig=float(b_c), n_A_vac=float(a_w), n_B_vac=float(b_w))
    return (acc_c, acc_w), counts


def mc_visibility(t: TallyTable, condition) -> float:
    """Visibility of the conditioned DA count rate across the phase schedule."""
    by_phase = t.counts.sum(axis=1)
    per_phase_pulses = by_phase.sum(axis=1).astype(float)
    if np.any(per_phase_pulses == 0):
        raise ValueError("phase schedule has empty bins; run more pulses")
    n_a = (by_phase @ _PROJECTION[Conditioning(condition)])[:, 1]
    return fringe_visibility((n_a / per_phase_pulses)[None])[0]


def standard_error(k: int, n: int) -> float:
    """Binomial standard error sqrt(p*(1-p)/n) of a count k out of n."""
    k, n = checked("count", k), checked("total", n)
    if k > n:
        raise ConfigError(f"count {k} outside [0, {n}]")
    p = k / n
    return math.sqrt(p * (1.0 - p) / n)
