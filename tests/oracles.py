"""Reference implementations the tests compare the package against.

The amplifier applies its two splitters inline (``scamp.amplifier``); the
two-port beamsplitter here is the textbook form its branch amplitudes are
checked against.  ``branch_table`` below is the earlier build of the
amplifier's branch table, one row of per-branch lists at a time with the
click law applied per row by ``click_probabilities``; the package's one-pass
build must equal it bit for bit.  ``expected_tally`` is the mean of a Monte
Carlo run's tally, and ``expected_offset_draw`` the mean of a sweep point's
per-offset counts: the exact contract between the two models.
"""

from typing import NamedTuple

import numpy as np

from scamp.amplifier import AmplifierConfig, BranchTable, Conditioning
from scamp.detectors import DetectorModel, click_law
from scamp.montecarlo import (
    _PROJECTION,
    RunSpec,
    TallyTable,
    _cell_probabilities,
    _click_factors,
    _input0,
)

UNITARITY_TOL = 1e-12


def beamsplitter(a: complex, b: complex, t: float, r: float) -> tuple[complex, complex]:
    """Two-port beamsplitter with real amplitude transmission t and reflection r.

    Convention (the package's):

        retained = r*a + t*b
        monitor  = t*a - r*b

    so a guess b = (t/r)*a interferes destructively into the monitor port and
    the retained port carries a/r.  Returns (retained, monitor).
    """
    if not (0.0 <= t <= 1.0 and 0.0 <= r <= 1.0):
        raise ValueError(f"beamsplitter amplitudes must lie in [0, 1], got t={t}, r={r}")
    if abs(t * t + r * r - 1.0) > UNITARITY_TOL:
        raise ValueError(f"non-unitary beamsplitter: t^2 + r^2 = {t * t + r * r!r}")
    return r * a + t * b, t * a - r * b


def click_probabilities(mean_photons: list[float], det: DetectorModel) -> list[float]:
    """The detector's click probability of each mean photon number, by its one click law."""
    return list(map(click_law(det), mean_photons))


# Conditioning levels in the order a branch row lists its weights.  Rows hold a
# tuple, not a dict, because hashing an Enum member runs Python code.
_LEVELS = tuple(Conditioning)


class _BranchRow(NamedTuple):
    """Row m of a :class:`BranchTable`: input m against every guess k."""

    target: complex
    output: list[complex]
    d0_mean: list[float]
    d1_mean: list[float]
    d0_click: list[float]
    d1_click: list[float]
    weights: tuple[list[float], ...]  # one list per level of _LEVELS


def _guess_parts(cfg: AmplifierConfig) -> tuple[list[complex], list[complex]]:
    """The input states, and each one's guess contribution (t1^2/r1)*state to the retained port."""
    members = [cfg.input_set.state(m) for m in range(cfg.n_states())]
    r1, t1 = cfg.comparison_r1, cfg.comparison_t1
    return members, [(t1 * t1 / r1) * z for z in members]


def _branch_row(
    cfg: AmplifierConfig,
    det0: DetectorModel,
    det1: DetectorModel,
    members: list[complex],
    guess_part: list[complex],
    m: int,
) -> _BranchRow:
    """Every branch of input m, the one derivation behind :func:`branch_table`.

    Monitor = t1*input - r1*guess and retained = r1*input + t1*guess, with the
    guess scaled by t1/r1 so a correct guess nulls the monitor port; that
    branch is evaluated in closed form to keep the null and the gain law exact.
    """
    r1, t1 = cfg.comparison_r1, cfg.comparison_t1
    r2, t2 = cfg.subtraction_r2, cfg.subtraction_t2
    target = cfg.target_amplitude(m)
    z_in = members[m]
    # guess = (t1/r1)*member: d0 = t1*(in - member), retained = r1*in + (t1^2/r1)*member
    input_part = r1 * z_in
    output, d0_mean, d1_mean = [], [], []
    for k, z_member in enumerate(members):
        if k == m:
            n0 = 0.0
            retained = z_in / r1
            out = target
        else:
            d0 = t1 * (z_in - z_member)
            n0 = d0.real * d0.real + d0.imag * d0.imag
            retained = input_part + guess_part[k]
            out = complex(t2 * retained.real, t2 * retained.imag)
        tap_re, tap_im = r2 * retained.real, r2 * retained.imag
        output.append(out)
        d0_mean.append(n0)
        d1_mean.append(tap_re * tap_re + tap_im * tap_im)
    d0_click = click_probabilities(d0_mean, det0)
    d1_click = click_probabilities(d1_mean, det1)
    prior = cfg.guess_distribution
    silent = [q * (1.0 - p0) for q, p0 in zip(prior, d0_click)]
    heralded = [w * p1 for w, p1 in zip(silent, d1_click)]
    weights = (list(prior), silent, heralded)
    return _BranchRow(target, output, d0_mean, d1_mean, d0_click, d1_click, weights)


def branch_table(cfg: AmplifierConfig, det0: DetectorModel, det1: DetectorModel) -> BranchTable:
    """All N^2 (input, guess) branches of the device, each derived once."""
    members, guess_part = _guess_parts(cfg)
    rows = [_branch_row(cfg, det0, det1, members, guess_part, m) for m in range(len(members))]
    target, output, d0_mean, d1_mean, d0_click, d1_click, weights = map(list, zip(*rows))
    return BranchTable(
        cfg.guess_distribution, target, output, d0_mean, d1_mean, d0_click, d1_click,
        {c: list(level) for c, level in zip(_LEVELS, zip(*weights))},
    )


def _expected_cells(run: RunSpec, table: BranchTable, factors=None) -> np.ndarray:
    """Each phase bin's cell probabilities over ``table`` times the pulses that
    fall in that bin (pulse i falls in bin i mod P), in float."""
    n_phases = len(run.phase_schedule)
    per_bin = [run.n_pulses // n_phases + (j < run.n_pulses % n_phases) for j in range(n_phases)]
    cells = _cell_probabilities(run, table, factors)
    return cells * np.asarray(per_bin, dtype=float)[:, None, None, None]


def expected_tally(run: RunSpec, table: BranchTable) -> TallyTable:
    """The mean tally of ``run``, in float."""
    return TallyTable(_expected_cells(run, table), run.phase_schedule, len(table.target))


def expected_offset_draw(run: RunSpec, table: BranchTable, condition) -> tuple[list, list]:
    """The mean of ``montecarlo._offset_draw(run, table, condition)``, in float:
    per guess offset, (accepted, with DA fired, with DB fired, with both fired),
    and the (p_A, p_B) rows it returns, as lists."""
    row0 = _input0(table)
    factors = _click_factors(run, row0)
    cells = _expected_cells(run, row0, factors)
    by_offset = cells.sum(axis=(0, 1)) @ _PROJECTION[Conditioning(condition)]
    return by_offset.tolist(), factors[1][:, 0, 0, :, 1].T.tolist()
