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
output nor the speed).

``simulate_chunk`` is the pulse-by-pulse sampler the tally stands for: chunk
c of a fixed chunk size draws from its own stream derived from
(master_seed, c), and chunk tallies merge by addition.  Tests compare the
multinomial draw against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplifier import AmplifierConfig, BranchTable, Conditioning, branch_table
from .analysis import AnalysisConfig, CountTable, fringe_visibility, port_click
from .detectors import DetectorModel

DEFAULT_CHUNK_SIZE = 1 << 16

# click-pattern bit layout, most significant first
_BIT_D0 = 8
_BIT_D1 = 4
_BIT_DA = 2
_BIT_DB = 1
_N_PATTERNS = 16
# "detector X fired" over the 16 patterns, and the patterns each conditioning accepts
_FIRED = {
    name: (np.arange(_N_PATTERNS) & bit) != 0
    for name, bit in (("d0", _BIT_D0), ("d1", _BIT_D1), ("da", _BIT_DA), ("db", _BIT_DB))
}
_ACCEPTED = {
    Conditioning.NONE: np.ones(_N_PATTERNS, dtype=bool),
    Conditioning.D0_SILENT: ~_FIRED["d0"],
    Conditioning.D0_SILENT_D1_FIRES: ~_FIRED["d0"] & _FIRED["d1"],
}


@dataclass(frozen=True)
class DetectorBank:
    """One detector model per physical detector."""

    d0: DetectorModel
    d1: DetectorModel
    da: DetectorModel
    db: DetectorModel

    @classmethod
    def uniform(cls, det: DetectorModel) -> "DetectorBank":
        return cls(d0=det, d1=det, da=det, db=det)


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


def chunk_rng(master_seed: int, chunk_index: int) -> np.random.Generator:
    """Independent, reproducible random stream for one chunk."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.PCG64(ss))


def phase_scan(n_points: int) -> tuple[float, ...]:
    """Uniform scan schedule over [0, 2*pi) for visibility runs."""
    if n_points < 2:
        raise ValueError(f"a phase scan needs >= 2 points, got {n_points}")
    return tuple(2.0 * math.pi * j / n_points for j in range(n_points))


@dataclass(frozen=True)
class _BranchTables:
    """Per-(input, guess) click probabilities and per-phase analyzer tables."""

    p0: np.ndarray        # (N, N) D0 click probability
    p1: np.ndarray        # (N, N) D1 click probability
    pa: np.ndarray        # (P, N, N) DA click probability
    pb: np.ndarray        # (P, N, N) DB click probability
    guess_cdf: np.ndarray  # (N,) cumulative guess distribution


def branch_tables(spec: RunSpec) -> _BranchTables:
    """Precompute all per-branch click probabilities for a run.

    D0/D1 clicks and outputs come from the amplifier's branch table.  The
    analyzer reference for input m is the configured reference rotated by the
    input phase 2*pi*m/N (the test state is a copy of that pulse's expected
    amplified state) and by each scheduled scan phase.
    """
    return _tables_of(spec, branch_table(spec.amplifier, spec.detectors.d0, spec.detectors.d1))


def _tables_of(spec: RunSpec, table: BranchTable) -> _BranchTables:
    """:func:`branch_tables` from the branch table of ``spec``'s device."""
    cfg = spec.amplifier
    n = cfg.n_states()
    out = np.array(table.output, dtype=complex)[None, :, :]
    z_ref = spec.analysis.reference_amplitude
    input_phases = np.exp(2j * np.pi * np.arange(n) / n)
    scan = np.exp(1j * np.asarray(spec.phase_schedule))
    # reference per (phase bin, input): outer product of the two phase factors
    ref = (z_ref * scan[:, None] * input_phases[None, :])[:, :, None]
    cdf = np.cumsum(np.asarray(cfg.guess_distribution))
    cdf[-1] = 1.0
    return _BranchTables(
        p0=np.array(table.d0_click),
        p1=np.array(table.d1_click),
        pa=port_click(out, ref, spec.detectors.da, "A"),
        pb=port_click(out, ref, spec.detectors.db, "B"),
        guess_cdf=cdf,
    )


def simulate_chunk(
    spec: RunSpec,
    chunk_index: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    tables: _BranchTables | None = None,
) -> TallyTable:
    """Simulate one chunk of pulses with its own derived random stream."""
    start = chunk_index * chunk_size
    count = min(chunk_size, spec.n_pulses - start)
    if count <= 0:
        return TallyTable.empty(spec.phase_schedule, spec.amplifier.n_states())
    if tables is None:
        tables = branch_tables(spec)
    n = spec.amplifier.n_states()
    n_phases = len(spec.phase_schedule)
    rng = chunk_rng(spec.master_seed, chunk_index)

    inputs = rng.integers(0, n, size=count)
    guesses = np.searchsorted(tables.guess_cdf, rng.random(count), side="right")
    u0 = rng.random(count)
    u1 = rng.random(count)
    ua = rng.random(count)
    ub = rng.random(count)

    j = (start + np.arange(count)) % n_phases
    d0 = u0 < tables.p0[inputs, guesses]
    d1 = u1 < tables.p1[inputs, guesses]
    da = ua < tables.pa[j, inputs, guesses]
    db = ub < tables.pb[j, inputs, guesses]
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


def _cell_probabilities(spec: RunSpec, tables: _BranchTables) -> np.ndarray:
    """Probability of each (input, guess, click pattern) cell, per phase bin.

    The prior (1/N)*q_k of an (input m, guess k) pair times the independent
    D0/D1/DA/DB click factors of each pattern, shape (P, N, N, 16), with
    every bin normalised to sum to one.
    """
    n = spec.amplifier.n_states()
    q = np.asarray(spec.amplifier.guess_distribution, dtype=float)
    prior = np.broadcast_to(q / n, (n, n))

    def fire(p):
        # last axis: (silent, fired), matching the pattern bit value
        return np.stack([1.0 - p, p], axis=-1)

    f0, f1, fa, fb = fire(tables.p0), fire(tables.p1), fire(tables.pa), fire(tables.pb)
    heralds = prior[:, :, None, None] * f0[:, :, :, None] * f1[:, :, None, :]
    analyzer = fa[..., :, None] * fb[..., None, :]
    cells = heralds[None, :, :, :, :, None, None] * analyzer[:, :, :, None, None, :, :]
    cells = cells.reshape(len(spec.phase_schedule), n, n, _N_PATTERNS)
    cells /= cells.sum(axis=(1, 2, 3), keepdims=True)
    return cells


def _pulses_per_bin(n_pulses: int, n_phases: int) -> np.ndarray:
    """Pulses falling in each phase bin when pulse i goes to bin i mod P."""
    per_bin = np.full(n_phases, n_pulses // n_phases, dtype=np.int64)
    per_bin[: n_pulses % n_phases] += 1
    return per_bin


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
    """:func:`simulate_run` from the branch table of ``spec``'s device."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n = spec.amplifier.n_states()
    cells = _cell_probabilities(spec, _tables_of(spec, table))
    pvals = cells.reshape(len(spec.phase_schedule), -1)
    per_bin = _pulses_per_bin(spec.n_pulses, len(spec.phase_schedule))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.master_seed)))
    counts = rng.multinomial(per_bin, pvals).astype(np.int64, copy=False)
    return TallyTable(counts.reshape(-1, n, n, _N_PATTERNS), spec.phase_schedule, n)


def _analyzer_counts(t: TallyTable, condition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accepted pulses, and accepted pulses with DA / DB fired, per (phase bin, input, guess)."""
    mask = _ACCEPTED[Conditioning(condition)]
    return tuple(
        t.counts[:, :, :, sel].sum(axis=3)
        for sel in (mask, mask & _FIRED["da"], mask & _FIRED["db"])
    )


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
    (acc_c, acc_w), (a_c, a_w), (b_c, b_w) = map(_class_split, _analyzer_counts(t, condition))
    counts = CountTable(n_A_sig=float(a_c), n_B_sig=float(b_c), n_A_vac=float(a_w), n_B_vac=float(b_w))
    return (acc_c, acc_w), counts


def _class_split(counts: np.ndarray) -> tuple[int, int]:
    """(correct-guess, wrong-guess) totals of counts per (phase bin, input, guess)."""
    per_pair = counts.sum(axis=0)
    correct = int(np.trace(per_pair))
    return correct, int(per_pair.sum()) - correct


def counts_by_offset(t: TallyTable, condition) -> list[tuple[int, int, int]]:
    """Per guess-offset (n_A, n_B, accepted pulses) records.

    Offset d = (guess - input) mod N indexes the N possible output classes
    of the symmetric set; feed these to the multi-class pulse estimator.
    """
    accepted, n_a, n_b = _analyzer_counts(t, condition)
    m_idx, k_idx = np.indices((t.n_states, t.n_states))
    offsets = (k_idx - m_idx) % t.n_states
    return [
        (int(n_a[:, sel].sum()), int(n_b[:, sel].sum()), int(accepted[:, sel].sum()))
        for sel in (offsets == d for d in range(t.n_states))
    ]


def detector_marginals(t: TallyTable) -> dict[str, float]:
    """Fraction of pulses on which each detector fired."""
    by_pattern = t.counts.sum(axis=(0, 1, 2))
    return {name: float(by_pattern[fired].sum()) / t.n_pulses for name, fired in _FIRED.items()}


def mc_visibility(t: TallyTable, condition) -> float:
    """Visibility of the conditioned DA count rate across the phase schedule."""
    per_phase_pulses = t.counts.sum(axis=(1, 2, 3)).astype(float)
    if np.any(per_phase_pulses == 0):
        raise ValueError("phase schedule has empty bins; run more pulses")
    _, n_a, _ = _analyzer_counts(t, condition)
    return fringe_visibility((n_a.sum(axis=(1, 2)) / per_phase_pulses)[None])[0]


def standard_error(k: int, n: int) -> float:
    """Binomial standard error sqrt(p*(1-p)/n) of a count k out of n."""
    if n < 1:
        raise ValueError(f"total must be >= 1, got {n}")
    if not (0 <= k <= n):
        raise ValueError(f"count {k} outside [0, {n}]")
    p = k / n
    return math.sqrt(p * (1.0 - p) / n)
