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
the N^2 (input, guess) branches.  It is built with scalar Python arithmetic
(math.exp, math.fsum), so its numbers do not depend on vectorized math paths.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .coherent import CoherentAmplitude, Mixture
from .detectors import DetectorModel, click_probabilities
from .errors import NeverHeraldedError

UNITARITY_TOL = 1e-12
DISTRIBUTION_TOL = 1e-12


@dataclass(frozen=True)
class StateSet:
    """N coherent states alpha * exp(2*pi*i*m/N), m = 0..N-1, on a circle."""

    base_amplitude: CoherentAmplitude
    n_states: int

    def __post_init__(self):
        if self.n_states < 1:
            raise ValueError(f"n_states must be >= 1, got {self.n_states}")

    def state(self, m: int) -> CoherentAmplitude:
        # reduce the index first so state(m + N) == state(m) exactly
        m = m % self.n_states
        if m == 0:
            return self.base_amplitude
        return self.base_amplitude.rotated(2.0 * math.pi * m / self.n_states)

    def mean_photon_number(self) -> float:
        return self.base_amplitude.mean_photon_number()


class Conditioning(enum.Enum):
    """Which heralding pattern an output is accepted on."""

    NONE = "none"
    D0_SILENT = "d0_silent"
    D0_SILENT_D1_FIRES = "d0_silent_and_d1_fires"


@dataclass(frozen=True)
class AmplifierConfig:
    """Beamsplitter amplitudes, input state set and guess distribution.

    The guess set is the input set scaled by t1/r1, which generalizes the
    destructive-interference condition beyond the 50/50 comparison splitter
    (at 50/50 the guess and input sets coincide).
    """

    comparison_r1: float
    comparison_t1: float
    subtraction_t2: float
    subtraction_r2: float
    input_set: StateSet
    guess_distribution: tuple[float, ...] = ()

    def __post_init__(self):
        if abs(self.comparison_r1**2 + self.comparison_t1**2 - 1.0) > UNITARITY_TOL:
            raise ValueError("comparison beamsplitter is not unitary: r1^2 + t1^2 != 1")
        if abs(self.subtraction_t2**2 + self.subtraction_r2**2 - 1.0) > UNITARITY_TOL:
            raise ValueError("subtraction beamsplitter is not unitary: t2^2 + r2^2 != 1")
        if self.comparison_r1 <= 0.0 or self.subtraction_t2 <= 0.0:
            raise ValueError("comparison_r1 and subtraction_t2 must be > 0 (gain t2/r1 > 0)")
        n = self.input_set.n_states
        if len(self.guess_distribution) == 0:
            object.__setattr__(self, "guess_distribution", (1.0 / n,) * n)
        if len(self.guess_distribution) != n:
            raise ValueError(
                f"guess_distribution has {len(self.guess_distribution)} entries for {n} states"
            )
        if any(p < 0.0 for p in self.guess_distribution):
            raise ValueError("guess probabilities must be >= 0")
        if abs(math.fsum(self.guess_distribution) - 1.0) > DISTRIBUTION_TOL:
            raise ValueError("guess_distribution must sum to 1")

    @classmethod
    def from_intensities(
        cls,
        comparison_reflectivity: float,
        subtraction_transmission: float,
        input_set: StateSet,
        guess_distribution: tuple[float, ...] = (),
    ) -> "AmplifierConfig":
        """Build from intensity parameters; amplitude pairs are unitary by construction."""
        if not (0.0 < comparison_reflectivity < 1.0):
            raise ValueError("comparison reflectivity must lie in (0, 1)")
        if not (0.0 < subtraction_transmission <= 1.0):
            raise ValueError("subtraction transmission must lie in (0, 1]")
        return cls(
            comparison_r1=math.sqrt(comparison_reflectivity),
            comparison_t1=math.sqrt(1.0 - comparison_reflectivity),
            subtraction_t2=math.sqrt(subtraction_transmission),
            subtraction_r2=math.sqrt(1.0 - subtraction_transmission),
            input_set=input_set,
            guess_distribution=guess_distribution,
        )

    def n_states(self) -> int:
        return self.input_set.n_states

    def nominal_gain(self) -> float:
        return self.subtraction_t2 / self.comparison_r1

    def target_amplitude(self, m: int) -> CoherentAmplitude:
        """Ideal amplified output for input m."""
        return self.input_set.state(m).scaled(self.nominal_gain())


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
        weights = self.weights[conditioning][m]
        total = math.fsum(weights)
        if total <= 0.0:
            raise NeverHeraldedError(
                f"no branch of input {m} can pass conditioning {conditioning.value}"
            )
        return total, [w / total for w in weights]

    def figures_of_merit(
        self, conditioning: Conditioning = Conditioning.D0_SILENT_D1_FIRES
    ) -> FiguresOfMerit:
        """See :func:`figures_of_merit`."""
        fidelity_sum = fraction_sum = 0.0
        for m, (outputs, target) in enumerate(zip(self.output, self.target)):
            _, weights = self.accepted(m, conditioning)
            fidelity_sum += math.fsum(w * _overlap_sq(z, target) for w, z in zip(weights, outputs))
            fraction_sum += weights[m]
        n = len(self.target)
        return FiguresOfMerit(fidelity_sum / n, fraction_sum / n, self.success_probability(conditioning))

    def success_probability(
        self, conditioning: Conditioning = Conditioning.D0_SILENT_D1_FIRES
    ) -> float:
        """See :func:`success_probability`."""
        total = 0.0
        for row in self.weights[conditioning]:
            total += math.fsum(row)
        return total / len(self.target)


def _overlap_sq(a: complex, b: complex) -> float:
    """coherent.overlap_sq of two complex amplitudes."""
    dr = a.real - b.real
    di = a.imag - b.imag
    return math.exp(-(dr * dr + di * di))


def branch_table(cfg: AmplifierConfig, det0: DetectorModel, det1: DetectorModel) -> BranchTable:
    """All N^2 (input, guess) branches of the device, each derived once.

    Monitor = t1*input - r1*guess and retained = r1*input + t1*guess, with the
    guess scaled by t1/r1 so a correct guess nulls the monitor port; that
    branch is evaluated in closed form to keep the null and the gain law exact.
    """
    n = cfg.n_states()
    r1, t1 = cfg.comparison_r1, cfg.comparison_t1
    r2, t2 = cfg.subtraction_r2, cfg.subtraction_t2
    states = [cfg.input_set.state(m) for m in range(n)]
    gain = cfg.nominal_gain()
    target = [complex(gain * s.re, gain * s.im) for s in states]
    members = [s.to_complex() for s in states]
    # guess = (t1/r1)*member: d0 = t1*(in - member), retained = r1*in + (t1^2/r1)*member
    input_part = [r1 * z for z in members]
    guess_part = [(t1 * t1 / r1) * z for z in members]
    output, d0_mean, d1_mean = ([[0.0] * n for _ in range(n)] for _ in range(3))
    for m, z_in in enumerate(members):
        for k, z_member in enumerate(members):
            if k == m:
                n0 = 0.0
                retained = z_in / r1
                out = target[m]
            else:
                d0 = t1 * (z_in - z_member)
                n0 = d0.real * d0.real + d0.imag * d0.imag
                retained = input_part[m] + guess_part[k]
                out = complex(t2 * retained.real, t2 * retained.imag)
            tap_re, tap_im = r2 * retained.real, r2 * retained.imag
            output[m][k] = out
            d0_mean[m][k] = n0
            d1_mean[m][k] = tap_re * tap_re + tap_im * tap_im
    d0_click = [click_probabilities(row, det0) for row in d0_mean]
    d1_click = [click_probabilities(row, det1) for row in d1_mean]
    prior = cfg.guess_distribution
    silent = [[q * (1.0 - p0) for q, p0 in zip(prior, row)] for row in d0_click]
    return BranchTable(prior, target, output, d0_mean, d1_mean, d0_click, d1_click, {
        Conditioning.NONE: [list(prior) for _ in range(n)],
        Conditioning.D0_SILENT: silent,
        Conditioning.D0_SILENT_D1_FIRES: [
            [w * p1 for w, p1 in zip(ws, row)] for ws, row in zip(silent, d1_click)
        ],
    })


def output_mixture(
    cfg: AmplifierConfig,
    det0: DetectorModel,
    det1: DetectorModel,
    input_index: int,
    conditioning: Conditioning = Conditioning.D0_SILENT_D1_FIRES,
) -> Mixture:
    """Conditioned output state for one input, as a normalized coherent mixture.

    Components with exactly zero acceptance weight are dropped (e.g. the dead
    wrong branch of the two-state set under ideal detectors).
    """
    if not (0 <= input_index < cfg.n_states()):
        raise IndexError(f"input index {input_index} out of range for {cfg.n_states()} states")
    table = branch_table(cfg, det0, det1)
    _, weights = table.accepted(input_index, conditioning)
    outputs = table.output[input_index]
    return Mixture(
        tuple((w, CoherentAmplitude(z.real, z.imag)) for w, z in zip(weights, outputs) if w > 0.0)
    )


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
    return branch_table(cfg, det0, det1).figures_of_merit(conditioning)


def success_probability(
    cfg: AmplifierConfig,
    det0: DetectorModel,
    det1: DetectorModel,
    conditioning: Conditioning = Conditioning.D0_SILENT_D1_FIRES,
) -> float:
    """Per-pulse acceptance probability, averaged over a uniform input prior.

    Well defined even when no branch can herald (returns 0), unlike the
    conditioned output state itself.
    """
    return branch_table(cfg, det0, det1).success_probability(conditioning)


def success_rate(
    cfg: AmplifierConfig,
    det0: DetectorModel,
    det1: DetectorModel,
    prf: float,
    conditioning: Conditioning = Conditioning.D0_SILENT_D1_FIRES,
) -> float:
    """Accepted pulses per second at pulse repetition frequency `prf`."""
    if prf <= 0.0:
        raise ValueError(f"pulse repetition frequency must be > 0, got {prf}")
    return success_probability(cfg, det0, det1, conditioning) * prf
