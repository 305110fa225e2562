"""Reference implementations the tests compare the package against.

The amplifier applies its two splitters inline (``scamp.amplifier``); the
two-port beamsplitter here is the textbook form its branch amplitudes are
checked against.  ``branch_table`` below is the earlier build of all N^2
(input, guess) branches, one row of per-branch lists at a time with the
click law applied per row by ``click_probabilities``, and ``NRowTable`` its
figures averaged over the N input rows.  The package builds input 0's row
alone: its one-pass build of any input must equal the row here bit for bit,
and its figures must equal the N-row averages up to rounding.  Likewise
``click_factors`` and ``cell_probabilities`` are the earlier Monte Carlo
cell build over all N*N (input, guess) pairs, one 7-axis broadcast over a
table's rows against references rotated by the input and scan phases.  The
package draws over input 0's cells by guess offset, one phase bin at a time:
its cell law (``program_cells`` stacks it by bin) must equal the oracle's
input-0 row bit for bit, and its cells must equal the oracle's full cells
summed by offset up to the rounding of the rotated references.
``expected_tally`` is the mean of a Monte Carlo run's tally,
``expected_offset_draw`` the mean of a sweep point's per-offset counts, and
``counts_by_offset`` a tally's per-offset records: the exact contract
between the two models.  ``visibilities_mp`` evaluates a sweep point's
visibility columns in 40-digit arithmetic from the device alone.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from scamp.amplifier import AmplifierConfig, BranchTable, Conditioning, FiguresOfMerit
from scamp.analysis import port_click
from scamp.coherent import overlap_sq
from scamp.detectors import DetectorBank, DetectorModel, click_law
from scamp.montecarlo import (
    _N_PATTERNS,
    _PROJECTION,
    RunSpec,
    TallyTable,
    _cell_probabilities,
    branch_tables,
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
    """Row m of an :class:`NRowTable`: input m against every guess k."""

    target: complex
    output: list[complex]
    d0_mean: list[float]
    d1_mean: list[float]
    d0_click: list[float]
    d1_click: list[float]
    weights: tuple[list[float], ...]  # one list per level of _LEVELS


def splitter_amplitudes(cfg: AmplifierConfig) -> tuple[float, float, float, float]:
    """(r1, t1, t2, r2) of the device: the square roots of r1^2, 1 - r1^2, t2^2 and 1 - t2^2."""
    reflectivity, transmission = cfg.comparison_reflectivity, cfg.subtraction_transmission
    return (math.sqrt(reflectivity), math.sqrt(1.0 - reflectivity), math.sqrt(transmission),
            math.sqrt(1.0 - transmission))


def _guess_parts(cfg: AmplifierConfig) -> tuple[list[complex], list[complex]]:
    """The input states, and each one's guess contribution (t1^2/r1)*state to the retained port."""
    members = [cfg.input_set.state(m) for m in range(cfg.n_states())]
    r1, t1, _, _ = splitter_amplitudes(cfg)
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
    r1, t1, t2, r2 = splitter_amplitudes(cfg)
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
    q = 1.0 / len(members)
    silent = [q * (1.0 - p0) for p0 in d0_click]
    heralded = [w * p1 for w, p1 in zip(silent, d1_click)]
    weights = ([q] * len(members), silent, heralded)
    return _BranchRow(target, output, d0_mean, d1_mean, d0_click, d1_click, weights)


@dataclass(frozen=True)
class NRowTable:
    """Every (input m, guess k) branch of one device: fields are lists indexed [m][k]."""

    prior: tuple[float, ...]
    target: list[complex]  # ideal output t2/r1 * input m
    output: list[list[complex]]
    d0_mean: list[list[float]]
    d1_mean: list[list[float]]
    d0_click: list[list[float]]
    d1_click: list[list[float]]
    weights: dict[Conditioning, list[list[float]]]

    def row(self, m: int) -> BranchTable:
        """Row m as the package lays out one input's branches."""
        target, output = self.target[m], self.output[m]
        return BranchTable(target, output, [overlap_sq(z, target) for z in output],
                           self.d0_mean[m], self.d1_mean[m], self.d0_click[m], self.d1_click[m],
                           {c: rows[m] for c, rows in self.weights.items()})

    def figures(self, conditioning: Conditioning = Conditioning.D0_SILENT_D1_FIRES) -> FiguresOfMerit:
        """Fidelity, correct-state fraction and success probability averaged
        over the N input rows, each row summed and normalized by one fsum."""
        fidelity_sum = fraction_sum = success = 0.0
        for m, (row, outputs, target) in enumerate(zip(self.weights[conditioning], self.output, self.target)):
            total = math.fsum(row)
            weights = [w / total for w in row]
            success += total
            fidelity_sum += math.fsum(w * overlap_sq(z, target) for w, z in zip(weights, outputs))
            fraction_sum += weights[m]
        n = len(self.target)
        return FiguresOfMerit(fidelity_sum / n, fraction_sum / n, success / n)


def branch_table(cfg: AmplifierConfig, det0: DetectorModel, det1: DetectorModel) -> NRowTable:
    """All N^2 (input, guess) branches of the device, each derived once."""
    members, guess_part = _guess_parts(cfg)
    rows = [_branch_row(cfg, det0, det1, members, guess_part, m) for m in range(len(members))]
    target, output, d0_mean, d1_mean, d0_click, d1_click, weights = map(list, zip(*rows))
    return NRowTable(
        (1.0 / len(members),) * len(members), target, output, d0_mean, d1_mean, d0_click, d1_click,
        {c: list(level) for c, level in zip(_LEVELS, zip(*weights))},
    )


def click_factors(spec: RunSpec, table: NRowTable) -> tuple[np.ndarray, np.ndarray]:
    """(silent, fired) click factors of D0/D1, (2, M, N, 2), and DA/DB, (2, P, M, N, 2),
    by pattern bit value along the last axis, for the M rows of ``table`` (inputs
    0..M-1) against its N guesses, with input m's analyzer reference rotated by its
    phase 2*pi*m/N (the earlier full draw's factors)."""
    rows, n = len(table.target), len(table.prior)
    out = np.array(table.output, dtype=complex)[None, :, :]
    z_ref = spec.analysis.reference_amplitude
    input_phases = np.exp(2j * np.pi * np.arange(rows) / n)
    scan = np.exp(1j * np.asarray(spec.phase_schedule))
    # reference per (phase bin, input): outer product of the two phase factors
    ref = (z_ref * scan[:, None] * input_phases[None, :])[:, :, None]
    heralds = np.empty((2, rows, n, 2))
    heralds[..., 1] = table.d0_click, table.d1_click
    analyzer = np.empty((2, len(scan), rows, n, 2))
    analyzer[0, ..., 1] = port_click(out, ref, spec.detectors.da, "A")
    analyzer[1, ..., 1] = port_click(out, ref, spec.detectors.db, "B")
    for factors in (heralds, analyzer):
        np.subtract(1.0, factors[..., 1], out=factors[..., 0])
    return heralds, analyzer


def cell_probabilities(
    spec: RunSpec, table: NRowTable, factors: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """Probability of each (input, guess, click pattern) cell, per phase bin.

    Built from the point's branch table, or from its first M rows: the prior
    (1/M)*q_k of an (input m, guess k) pair times the independent D0/D1/DA/DB
    click factors of each pattern, shape (P, M, N, 16), with every bin
    normalised to sum to one.  Row 0 alone (:func:`input0`) gives the N*16
    guess-offset cells.  ``factors`` are the table's :func:`click_factors`,
    built here if not given.
    """
    rows, n = len(table.target), len(table.prior)
    (f0, f1), (fa, fb) = click_factors(spec, table) if factors is None else factors
    # q_k/M broadcasts over the inputs m
    prior = np.asarray(table.prior, dtype=float) / rows
    heralds = prior[:, None, None] * f0[:, :, :, None] * f1[:, :, None, :]
    analyzer = fa[..., :, None] * fb[..., None, :]
    cells = np.empty((len(spec.phase_schedule), rows, n, _N_PATTERNS))
    np.multiply(heralds[:, :, :, :, None, None], analyzer[:, :, :, None, None, :, :],
                out=cells.reshape(analyzer.shape[:3] + (2, 2, 2, 2)))
    cells /= cells.sum(axis=(1, 2, 3), keepdims=True)
    return cells


def input0(table: NRowTable) -> NRowTable:
    """Row 0 of ``table`` as a one-row table; its row lists are the table's own, not copies."""
    weights = {c: rows[:1] for c, rows in table.weights.items()}
    return NRowTable(table.prior, table.target[:1], table.output[:1], table.d0_mean[:1],
                       table.d1_mean[:1], table.d0_click[:1], table.d1_click[:1], weights)


def counts_by_offset(t: TallyTable, condition) -> list[tuple[int, int, int]]:
    """Per guess-offset (n_A, n_B, accepted pulses) records.

    Offset d = (guess - input) mod N indexes the N possible output classes
    of the symmetric set; feed these to the multi-class pulse estimator.
    """
    by_offset = t.counts.sum(axis=0) @ _PROJECTION[Conditioning(condition)]
    return [(n_a, n_b, accepted) for accepted, n_a, n_b, _ in by_offset.tolist()]


def expected_tally(run: RunSpec) -> TallyTable:
    """The mean tally of ``run``, in float: the program's cells of each phase
    bin times the pulses that fall in that bin (pulse i falls in bin i mod P)."""
    n_phases = len(run.phase_schedule)
    per_bin = [run.n_pulses // n_phases + (j < run.n_pulses % n_phases) for j in range(n_phases)]
    return TallyTable(program_cells(run) * np.asarray(per_bin, dtype=float)[:, None, None],
                      run.phase_schedule, run.amplifier.n_states())


def program_cells(run: RunSpec) -> np.ndarray:
    """The package's cell law at each phase bin of ``run``, stacked (P, N, 16):
    each bin's (4, N, 2) factors are the D0/D1 factors of the run's
    ``branch_tables`` and that bin's DA/DB factors."""
    heralds, analyzer = branch_tables(run)
    return np.stack([_cell_probabilities(np.concatenate([heralds, factors])) for factors in analyzer.swapaxes(0, 1)])


def expected_offset_draw(run: RunSpec, condition) -> tuple[list, list]:
    """The mean per-offset counts of the one-bin ``run``, in float, as a sweep
    point projects them: per guess offset, (accepted, with DA fired, with DB
    fired, with both fired), and the (p_A, p_B) rows it reads, as lists."""
    by_offset = expected_tally(run).counts[0] @ _PROJECTION[Conditioning(condition)]
    return by_offset.tolist(), branch_tables(run)[1][:, 0, :, 1].T.tolist()


def visibilities_mp(cfg: AmplifierConfig, detectors: DetectorBank, phase_points: int,
                    dps: int = 40) -> list[float]:
    """A sweep point's three visibility columns (unconditioned, D0 silent, D0
    silent and D1 fires) in ``dps``-digit mpmath, from the device alone: the
    exact members alpha*exp(2*pi*i*k/N), input 0's N branches, and DA's click
    curve against the target on the exact grid 2*pi*j/P."""
    import mpmath

    with mpmath.workdps(dps):
        n = cfg.n_states()
        r1_sq, t2_sq = mpmath.mpf(cfg.comparison_reflectivity), mpmath.mpf(cfg.subtraction_transmission)
        r1, t1 = mpmath.sqrt(r1_sq), mpmath.sqrt(1 - r1_sq)
        t2, r2 = mpmath.sqrt(t2_sq), mpmath.sqrt(1 - t2_sq)

        def click(det: DetectorModel, mean):
            return 1 - (1 - mpmath.mpf(det.dark_prob_per_gate)) * mpmath.exp(-mpmath.mpf(det.eta_l()) * mean)

        alpha = mpmath.mpc(cfg.input_set.base_amplitude)
        members = [alpha * mpmath.expjpi(mpmath.mpf(2 * k) / n) for k in range(n)]
        outputs, silent, heralded = [], [], []
        for z in members:
            retained = r1 * alpha + t1 * t1 / r1 * z
            outputs.append(t2 * retained)
            silent.append(1 - click(detectors.d0, abs(t1 * (alpha - z)) ** 2))
            heralded.append(silent[-1] * click(detectors.d1, abs(r2 * retained) ** 2))
        target = t2 / r1 * alpha
        refs = [target * mpmath.expjpi(mpmath.mpf(2 * j) / phase_points) for j in range(phase_points)]
        result = []
        for weights in ([1] * n, silent, heralded):
            curve = [
                mpmath.fsum(w * click(detectors.da, abs(out + ref) ** 2 / 2) for w, out in zip(weights, outputs))
                / mpmath.fsum(weights)
                for ref in refs
            ]
            hi, lo = max(curve), min(curve)
            result.append(float((hi - lo) / (hi + lo)) if hi > 0 else 0.0)
        return result
