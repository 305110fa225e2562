"""The state comparison amplifier.

An input coherent state drawn from a phase-symmetric set is interfered with
a randomly chosen guess state at the comparison beamsplitter (r1, t1).  The
monitor port feeds detector D0; a correct guess interferes destructively
there and sends everything to the retained port.  A second, highly
transmitting beamsplitter (t2, r2) taps a small fraction to detector D1
(photon subtraction).  A pulse is accepted when D0 stays silent and D1
fires; acceptance both vetoes wrong guesses (via D0) and favors the
brighter retained field of correct guesses (via D1).  The nominal amplitude
gain of an accepted pulse is t2/r1.

Every figure below, and the Monte Carlo, reads one :class:`BranchTable` of
the N^2 (input, guess) branches.  It is built in one pass per input row:
each branch is evaluated completely (D0/D1 mean photons and clicks, output,
silent and heralded weights) and every value is appended to its column.  The
arithmetic is scalar Python (math.exp, math.fsum, the click law of
:func:`detectors.click_law`), so its numbers do not depend on vectorized
math paths.
"""

from __future__ import annotations

import cmath
import enum
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from .coherent import Mixture, overlap_sq
from .detectors import DetectorModel, click_law
from .errors import NeverHeraldedError


@dataclass(frozen=True)
class StateSet:
    """N coherent states alpha * exp(2*pi*i*m/N), m = 0..N-1, on a circle."""

    base_amplitude: complex
    n_states: int

    def __post_init__(self):
        object.__setattr__(self, "base_amplitude", complex(self.base_amplitude))
        if not cmath.isfinite(self.base_amplitude):
            raise ValueError(f"base_amplitude must be finite, got {self.base_amplitude}")
        if self.n_states < 1:
            raise ValueError(f"n_states must be >= 1, got {self.n_states}")

    def state(self, m: int) -> complex:
        # reduce the index first so state(m + N) == state(m) exactly
        m = m % self.n_states
        if m == 0:
            return self.base_amplitude
        theta = 2.0 * math.pi * m / self.n_states
        return self.base_amplitude * cmath.exp(1j * theta)


class Conditioning(enum.Enum):
    """Which heralding pattern an output is accepted on."""

    NONE = "none"
    D0_SILENT = "d0_silent"
    D0_SILENT_D1_FIRES = "d0_silent_and_d1_fires"


@dataclass(frozen=True)
class AmplifierConfig:
    """Splitter intensities and input state set.

    ``comparison_reflectivity`` is r1^2 and ``subtraction_transmission`` is
    t2^2; the four amplitudes are derived from them once, so both splitters
    are unitary by construction.  The guess set is the input set scaled by
    t1/r1, which generalizes the destructive-interference condition beyond
    the 50/50 comparison splitter (at 50/50 the guess and input sets
    coincide), and each guess is drawn with probability 1/N.
    """

    comparison_reflectivity: float
    subtraction_transmission: float
    input_set: StateSet
    comparison_r1: float = field(init=False, repr=False, compare=False)
    comparison_t1: float = field(init=False, repr=False, compare=False)
    subtraction_t2: float = field(init=False, repr=False, compare=False)
    subtraction_r2: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # every check is written so that a NaN fails it
        reflectivity, transmission = self.comparison_reflectivity, self.subtraction_transmission
        if not (0.0 < reflectivity < 1.0):
            raise ValueError(f"comparison_reflectivity must lie in (0, 1), got {reflectivity}")
        if not (0.0 < transmission <= 1.0):
            raise ValueError(f"subtraction_transmission must lie in (0, 1], got {transmission}")
        object.__setattr__(self, "comparison_r1", math.sqrt(reflectivity))
        object.__setattr__(self, "comparison_t1", math.sqrt(1.0 - reflectivity))
        object.__setattr__(self, "subtraction_t2", math.sqrt(transmission))
        object.__setattr__(self, "subtraction_r2", math.sqrt(1.0 - transmission))

    def n_states(self) -> int:
        return self.input_set.n_states

    def nominal_gain(self) -> float:
        return self.subtraction_t2 / self.comparison_r1

    def target_amplitude(self, m: int) -> complex:
        """Ideal amplified output for input m."""
        z, gain = self.input_set.state(m), self.nominal_gain()
        return complex(gain * z.real, gain * z.imag)


@dataclass(frozen=True)
class FiguresOfMerit:
    fidelity: float
    correct_state_fraction: float
    success_probability: float


@dataclass(frozen=True)
class BranchTable:
    """Every (input m, guess k) branch of one device behind detectors D0/D1.

    Branch fields are lists indexed [m][k]: D0/D1 mean photon numbers and
    click probabilities, complex output amplitudes, and per conditioning the
    probability that guess k is drawn and passes, given input m.
    """

    prior: tuple[float, ...]
    target: list[complex]  # ideal output t2/r1 * input m
    output: list[list[complex]]
    d0_mean: list[list[float]]
    d1_mean: list[list[float]]
    d0_click: list[list[float]]
    d1_click: list[list[float]]
    weights: dict[Conditioning, list[list[float]]]

    def accepted(
        self, m: int, conditioning: Conditioning = Conditioning.D0_SILENT_D1_FIRES
    ) -> tuple[float, list[float]]:
        """Acceptance probability of input m and the normalized weights of its outputs."""
        return _accepted(self.weights[conditioning][m], m, conditioning)

    def accepted_rows(
        self, conditioning: Conditioning = Conditioning.D0_SILENT_D1_FIRES
    ) -> tuple[float, list[list[float]]]:
        """Per-pulse acceptance probability and every input's normalized
        weights, from one fsum per row; NeverHeraldedError names the first
        input that no branch can pass."""
        success, rows = 0.0, []
        for m, row in enumerate(self.weights[conditioning]):
            total, weights = _accepted(row, m, conditioning)
            success += total
            rows.append(weights)
        return success / len(rows), rows

    def figures(self, success_probability: float, weights: list[list[float]]) -> FiguresOfMerit:
        """The figures of merit of one :meth:`accepted_rows` result."""
        fidelity_sum = fraction_sum = 0.0
        for m, (row, outputs, target) in enumerate(zip(weights, self.output, self.target)):
            fidelity_sum += math.fsum(w * overlap_sq(z, target) for w, z in zip(row, outputs))
            fraction_sum += row[m]
        n = len(self.target)
        return FiguresOfMerit(fidelity_sum / n, fraction_sum / n, success_probability)

    def success_probability(
        self, conditioning: Conditioning = Conditioning.D0_SILENT_D1_FIRES
    ) -> float:
        """Per-pulse acceptance probability, averaged over a uniform input prior.

        Well defined even when no branch can herald (returns 0), unlike the
        conditioned output state itself.
        """
        total = 0.0
        for row in self.weights[conditioning]:
            total += math.fsum(row)
        return total / len(self.target)


def _accepted(
    weights: list[float], m: int, conditioning: Conditioning
) -> tuple[float, list[float]]:
    """Total and normalized acceptance weights of input m's branches; the
    total must be > 0, so a NaN total is refused too."""
    total = math.fsum(weights)
    if not total > 0.0:
        raise NeverHeraldedError(
            f"no branch of input {m} can pass conditioning {conditioning.value}"
        )
    return total, [w / total for w in weights]


def _branch_rows(
    cfg: AmplifierConfig, det0: DetectorModel, det1: DetectorModel, inputs: Iterable[int]
) -> BranchTable:
    """The rows of the device's :class:`BranchTable` for ``inputs``, in that
    order: the one derivation of a branch.

    Monitor = t1*input - r1*guess and retained = r1*input + t1*guess, with the
    guess scaled by t1/r1 so a correct guess nulls the monitor port; that
    branch is evaluated in closed form to keep the null and the gain law exact.
    One pass over a row evaluates each branch completely and appends every
    value to its column.
    """
    r1, t1 = cfg.comparison_r1, cfg.comparison_t1
    r2, t2 = cfg.subtraction_r2, cfg.subtraction_t2
    n = cfg.n_states()
    q = 1.0 / n  # every guess is drawn with the same probability
    prior = (q,) * n
    members = [cfg.input_set.state(k) for k in range(n)]
    # guess k = (t1/r1)*member k puts (t1^2/r1)*member k into the retained port
    guesses = []
    for z in members:
        part = (t1 * t1 / r1) * z
        guesses.append((z.real, z.imag, part.real, part.imag))
    click0, click1 = click_law(det0), click_law(det1)
    target, output, d0_mean, d1_mean, d0_click, d1_click = [], [], [], [], [], []
    unconditioned, silent, heralded = [], [], []
    for m in inputs:
        z_in = members[m]
        in_re, in_im = z_in.real, z_in.imag
        input_part = r1 * z_in
        part_re, part_im = input_part.real, input_part.imag
        target_m = cfg.target_amplitude(m)
        out_row, n0_row, n1_row, p0_row, p1_row, silent_row, heralded_row = [], [], [], [], [], [], []
        for k, (z_re, z_im, guess_re, guess_im) in enumerate(guesses):
            if k == m:
                n0 = 0.0
                retained = z_in / r1
                ret_re, ret_im = retained.real, retained.imag
                out = target_m
            else:
                # monitor field t1*(input - member) in real arithmetic: for
                # finite amplitudes, the complex product's squared modulus
                d0_re, d0_im = t1 * (in_re - z_re), t1 * (in_im - z_im)
                n0 = d0_re * d0_re + d0_im * d0_im
                ret_re, ret_im = part_re + guess_re, part_im + guess_im
                out = complex(t2 * ret_re, t2 * ret_im)
            tap_re, tap_im = r2 * ret_re, r2 * ret_im
            n1 = tap_re * tap_re + tap_im * tap_im
            p0, p1 = click0(n0), click1(n1)
            w = q * (1.0 - p0)
            out_row.append(out)
            n0_row.append(n0)
            n1_row.append(n1)
            p0_row.append(p0)
            p1_row.append(p1)
            silent_row.append(w)
            heralded_row.append(w * p1)
        target.append(target_m)
        output.append(out_row)
        d0_mean.append(n0_row)
        d1_mean.append(n1_row)
        d0_click.append(p0_row)
        d1_click.append(p1_row)
        unconditioned.append(list(prior))
        silent.append(silent_row)
        heralded.append(heralded_row)
    weights = {
        Conditioning.NONE: unconditioned,
        Conditioning.D0_SILENT: silent,
        Conditioning.D0_SILENT_D1_FIRES: heralded,
    }
    return BranchTable(prior, target, output, d0_mean, d1_mean, d0_click, d1_click, weights)


def branch_table(cfg: AmplifierConfig, det0: DetectorModel, det1: DetectorModel) -> BranchTable:
    """All N^2 (input, guess) branches of the device, built one input row at a
    time in scalar arithmetic; see :func:`_branch_rows`."""
    return _branch_rows(cfg, det0, det1, range(cfg.n_states()))


def output_mixture(
    cfg: AmplifierConfig,
    det0: DetectorModel,
    det1: DetectorModel,
    input_index: int,
    conditioning: Conditioning = Conditioning.D0_SILENT_D1_FIRES,
) -> Mixture:
    """Conditioned output state for one input, as a normalized coherent mixture.

    Only row ``input_index`` of the branch table is derived.  Components with
    exactly zero acceptance weight are dropped (e.g. the dead wrong branch of
    the two-state set under ideal detectors).
    """
    if not (0 <= input_index < cfg.n_states()):
        raise IndexError(f"input index {input_index} out of range for {cfg.n_states()} states")
    row = _branch_rows(cfg, det0, det1, (input_index,))
    _, weights = _accepted(row.weights[conditioning][0], input_index, conditioning)
    return Mixture(tuple((w, z) for w, z in zip(weights, row.output[0]) if w > 0.0))


def figures_of_merit(
    cfg: AmplifierConfig,
    det0: DetectorModel,
    det1: DetectorModel,
    conditioning: Conditioning = Conditioning.D0_SILENT_D1_FIRES,
) -> FiguresOfMerit:
    """Fidelity, correct-state fraction and success probability, averaged
    over a uniform prior on the input states.

    fidelity: overlap of the conditioned output mixture with the ideal
    amplified input.  correct_state_fraction: accepted-weight share of the
    guess == input branch.  success_probability: total acceptance
    probability per pulse (before normalization).
    """
    table = branch_table(cfg, det0, det1)
    return table.figures(*table.accepted_rows(conditioning))


def success_rate(
    cfg: AmplifierConfig,
    det0: DetectorModel,
    det1: DetectorModel,
    prf: float,
    conditioning: Conditioning = Conditioning.D0_SILENT_D1_FIRES,
) -> float:
    """Accepted pulses per second at pulse repetition frequency `prf`; 0 when
    no branch can herald (see :meth:`BranchTable.success_probability`)."""
    if prf <= 0.0:
        raise ValueError(f"pulse repetition frequency must be > 0, got {prf}")
    return branch_table(cfg, det0, det1).success_probability(conditioning) * prf
