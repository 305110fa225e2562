"""Stochastic simulation of the full experiment, tallied per cell.

Each pulse draws an input state and a guess state, clicks at the heralding
detectors D0/D1 from the branch amplitudes, and clicks at DA/DB after the
branch output meets the analysis interferometer (test state phase-locked to
the input, plus the scheduled scan phase).  Counts are tallied per (phase
bin, input, guess, 4-bit click pattern).

Pulse i falls in phase bin i mod P, and within a bin the pulses are i.i.d.
over the N*N*16 cells, so the tally of each bin is exactly multinomial.
``simulate_run`` therefore draws the whole tally in one
``Generator.multinomial`` call over the (P, N, N, 16) cell probabilities,
seeded from the master seed alone: its cost does not depend on the number
of pulses, and the result is bit-identical for a given master seed whatever
worker count is asked for (the count is checked, but changes neither the
output nor the speed).  The cell probabilities are a few whole-array
products straight from the point's branch table, and a tally is projected
by one integer matrix product.

``simulate_chunk`` is the pulse-by-pulse sampler the tally stands for: chunk
c of a fixed chunk size draws from its own stream derived from
(master_seed, c), and chunk tallies merge by addition.  Tests compare the
multinomial draw against it; only it reads the cumulative guess distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplifier import AmplifierConfig, BranchTable, Conditioning, branch_table
from .analysis import AnalysisConfig, CountTable, fringe_visibility, port_click
from .detectors import DetectorBank

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
# per conditioning, the (16, 3) 0/1 matrix that projects pattern counts onto
# (accepted, accepted with DA fired, accepted with DB fired)
_PROJECTION = {
    c: np.stack([acc, acc & _FIRED["da"], acc & _FIRED["db"]], axis=1).astype(np.int64)
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
    """(silent, fired) click factors of D0/D1, (2, N, N, 2), and DA/DB, (2, P, N, N, 2),
    by pattern bit value along the last axis; see :func:`branch_tables`."""
    n = len(table.target)
    out = np.array(table.output, dtype=complex)[None, :, :]
    z_ref = spec.analysis.reference_amplitude
    input_phases = np.exp(2j * np.pi * np.arange(n) / n)
    scan = np.exp(1j * np.asarray(spec.phase_schedule))
    # reference per (phase bin, input): outer product of the two phase factors
    ref = (z_ref * scan[:, None] * input_phases[None, :])[:, :, None]
    heralds = np.empty((2, n, n, 2))
    heralds[..., 1] = table.d0_click, table.d1_click
    analyzer = np.empty((2, len(scan), n, n, 2))
    analyzer[0, ..., 1] = port_click(out, ref, spec.detectors.da, "A")
    analyzer[1, ..., 1] = port_click(out, ref, spec.detectors.db, "B")
    for factors in (heralds, analyzer):
        np.subtract(1.0, factors[..., 1], out=factors[..., 0])
    return heralds, analyzer


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


def _cell_probabilities(spec: RunSpec, table: BranchTable) -> np.ndarray:
    """Probability of each (input, guess, click pattern) cell, per phase bin.

    Built from the point's branch table: the prior (1/N)*q_k of an (input m,
    guess k) pair times the independent D0/D1/DA/DB click factors of each
    pattern, shape (P, N, N, 16), with every bin normalised to sum to one.
    """
    n = len(table.target)
    (f0, f1), (fa, fb) = _click_factors(spec, table)
    # q_k/N broadcasts over the inputs m
    prior = np.asarray(table.prior, dtype=float) / n
    heralds = prior[:, None, None] * f0[:, :, :, None] * f1[:, :, None, :]
    analyzer = fa[..., :, None] * fb[..., None, :]
    cells = np.empty((len(spec.phase_schedule), n, n, _N_PATTERNS))
    np.multiply(heralds[:, :, :, :, None, None], analyzer[:, :, :, None, None, :, :],
                out=cells.reshape(analyzer.shape[:3] + (2, 2, 2, 2)))
    cells /= cells.sum(axis=(1, 2, 3), keepdims=True)
    return cells


def simulate_run(spec: RunSpec, workers: int = 1) -> TallyTable:
    """Simulate the full run; deterministic for a fixed master seed.

    Draws each phase bin's tally as one multinomial sample over its cells,
    from a stream seeded by the master seed alone.  ``workers`` is checked
    and kept for callers; the draw is a single call, so any worker count
    gives the same tally in the same time.
    """
    table = branch_table(spec.amplifier, spec.detectors.d0, spec.detectors.d1)
    return _simulate_run(spec, table, workers)


def _simulate_run(spec: RunSpec, table: BranchTable, workers: int) -> TallyTable:
    """:func:`simulate_run` with cell probabilities built from ``table`` alone (no guess CDF)."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n, n_phases = spec.amplifier.n_states(), len(spec.phase_schedule)
    pvals = _cell_probabilities(spec, table).reshape(n_phases, -1)
    # pulse i falls in phase bin i mod P
    per_bin = [spec.n_pulses // n_phases + (j < spec.n_pulses % n_phases) for j in range(n_phases)]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.master_seed)))
    counts = rng.multinomial(per_bin, pvals).astype(np.int64, copy=False)
    return TallyTable(counts.reshape(-1, n, n, _N_PATTERNS), spec.phase_schedule, n)


def conditioned_counts(t: TallyTable, condition) -> CountTable:
    """Project a tally onto a count table under the requested conditioning.

    "sig" counts come from correct-guess pulses, "vac" counts from
    wrong-guess pulses (for the two-state set the wrong branch output is
    exactly vacuum; for larger sets this is the binary attribution the
    two-class estimator assumes).
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
    (acc_c, a_c, b_c), (acc_w, a_w, b_w) = correct.tolist(), wrong.tolist()
    counts = CountTable(n_A_sig=float(a_c), n_B_sig=float(b_c), n_A_vac=float(a_w), n_B_vac=float(b_w))
    return (acc_c, acc_w), counts


def counts_by_offset(t: TallyTable, condition) -> list[tuple[int, int, int]]:
    """Per guess-offset (n_A, n_B, accepted pulses) records.

    Offset d = (guess - input) mod N indexes the N possible output classes
    of the symmetric set; feed these to the multi-class pulse estimator.
    """
    per_pair = t.counts.sum(axis=0) @ _PROJECTION[Conditioning(condition)]
    n = t.n_states
    m, d = np.arange(n)[:, None], np.arange(n)
    # [m, d] picks input m's guess (m + d) mod N, so the sum over m groups by offset
    by_offset = per_pair[m, (m + d) % n].sum(axis=0)
    return [(n_a, n_b, accepted) for accepted, n_a, n_b in by_offset.tolist()]


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
