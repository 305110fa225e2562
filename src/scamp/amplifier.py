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

import cmath
import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

from .coherent import Mixture, overlap_sq
from .detectors import DetectorModel, click_probabilities
from .errors import NeverHeraldedError

UNITARITY_TOL = 1e-12
DISTRIBUTION_TOL = 1e-12


@dataclass(frozen=True)
class StateSet:
    """N coherent states alpha * exp(2*pi*i*m/N), m = 0..N-1, on a circle."""

    base_amplitude: complex
    n_states: int

    def __post_init__(self):
        object.__setattr__(self, "base_amplitude", complex(self.base_amplitude))
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

    def heralded_totals(
        self, conditioning: Conditioning = Conditioning.D0_SILENT_D1_FIRES
    ) -> list[float]:
        """Acceptance probability of each input; NeverHeraldedError names the
        first input that no branch can pass."""
        rows = self.weights[conditioning]
        return [_heralded_total(row, m, conditioning) for m, row in enumerate(rows)]

    def figures_of_merit(
        self, conditioning: Conditioning = Conditioning.D0_SILENT_D1_FIRES
    ) -> FiguresOfMerit:
        """See :func:`figures_of_merit`."""
        fidelity_sum = fraction_sum = 0.0
        for m, (outputs, target) in enumerate(zip(self.output, self.target)):
            _, weights = self.accepted(m, conditioning)
            fidelity_sum += math.fsum(w * overlap_sq(z, target) for w, z in zip(weights, outputs))
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


def _heralded_total(weights: list[float], m: int, conditioning: Conditioning) -> float:
    """Total acceptance weight of input m's branches, which must be > 0."""
    total = math.fsum(weights)
    if total <= 0.0:
        raise NeverHeraldedError(
            f"no branch of input {m} can pass conditioning {conditioning.value}"
        )
    return total


def _accepted(
    weights: list[float], m: int, conditioning: Conditioning
) -> tuple[float, list[float]]:
    """Total and normalized acceptance weights of input m's branches."""
    total = _heralded_total(weights, m, conditioning)
    return total, [w / total for w in weights]


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
    row = _branch_row(cfg, det0, det1, *_guess_parts(cfg), input_index)
    _, weights = _accepted(row.weights[_LEVELS.index(conditioning)], input_index, conditioning)
    return Mixture(tuple((w, z) for w, z in zip(weights, row.output) if w > 0.0))


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
