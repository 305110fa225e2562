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

The guess is drawn uniformly, so the device is symmetric under a rotation
of the circle: rotating input m and guess k together by one step rotates
every field, leaving every photon number, click and weight, and every
overlap with the rotated target, as it was.  A branch therefore depends on
(m, k) only through the guess offset d = (k - m) mod N, and input 0's N
branches stand for all N^2.  Every figure below, the visibility scan and the
Monte Carlo read one :class:`BranchTable` of input 0, indexed by d; the
figures of merit averaged over a uniform input are input 0's.

A table is built by a :class:`BranchKernel` in two parts.  The kernel holds
what does not depend on the base amplitude, built once per (state-set size,
splitters, D0/D1): r1, t1, r2, t2, the guess scale t1^2/r1, the gain t2/r1,
the N unit turns, the two click laws and the uniform prior.  A point
supplies only its base amplitude, and :meth:`BranchKernel.row` evaluates
each branch completely in one pass (D0/D1 mean photons and clicks, output,
its overlap with the target, silent and heralded weights), appending every
value to its column.  :func:`branch_table`, :func:`output_mixture`, the
Monte Carlo and a sweep (one kernel per state-set size) all call it.  The
arithmetic is scalar Python (math.exp, math.fsum, the click law of
:func:`detectors.click_law`), so its numbers do not depend on vectorized
math paths.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from .coherent import Mixture, overlap_sq
from .detectors import DetectorModel, click_law
from .errors import ConfigError, NeverHeraldedError, as_complex, as_integer, checked


@dataclass(frozen=True)
class StateSet:
    """N coherent states alpha * exp(2*pi*i*m/N), m = 0..N-1, on a circle."""

    base_amplitude: complex
    n_states: int

    def __post_init__(self):
        object.__setattr__(self, "base_amplitude", as_complex("base_amplitude", self.base_amplitude))
        object.__setattr__(self, "n_states", checked("n_states", self.n_states))

    def state(self, m: int) -> complex:
        """Member m: the base amplitude times :func:`turn` (m mod N, N)."""
        return self.base_amplitude * turn(as_integer("m", m) % self.n_states, self.n_states)


@functools.lru_cache(maxsize=1024)
def turn(j: int, n: int) -> complex:
    """exp(2*pi*i*j/n), 0 <= j < n: every state-set member and scan phase.  With
    4*j = q*n + r, q quarter turns (swaps and negations) of cos and sin taken at
    angles up to pi/4, so exactly (indices mod n) turn(j + n/2) == -turn(j), a
    quarter turn multiplies by 1j, and turn(n - j) == turn(j).conjugate()."""
    quarters, r = divmod(4 * j, n)
    theta = 0.5 * math.pi * min(r, n - r) / n
    c, s = math.cos(theta), math.sin(theta)
    if 2 * r == n:  # cos(pi/4) and sin(pi/4) differ in their last bit
        s = c
    elif 2 * r > n:
        c, s = s, c
    for _ in range(quarters):
        c, s = -s, c
    return complex(c, s)


class Conditioning(enum.Enum):
    """Which heralding pattern an output is accepted on.

    ``Conditioning(x)`` is the one reading of a conditioning argument: it
    returns a member as is, and the member whose value ``x`` is; anything
    else is a ConfigError.  Every function that takes a conditioning reads
    it this way; :func:`_accepted`, which a sweep calls three times per
    point, only when its lookup by member misses.
    """

    NONE = "none"
    D0_SILENT = "d0_silent"
    D0_SILENT_D1_FIRES = "d0_silent_and_d1_fires"

    @classmethod
    def _missing_(cls, value):
        raise ConfigError(f"conditioning must be one of {[c.value for c in cls]}, got {value!r}")


def _splitter_amplitudes(reflectivity: float, transmission: float) -> tuple[float, float, float, float]:
    """(r1, t1, t2, r2) of the comparison splitter of intensity reflectivity
    r1^2 and the subtraction splitter of intensity transmission t2^2."""
    return (math.sqrt(reflectivity), math.sqrt(1.0 - reflectivity), math.sqrt(transmission),
            math.sqrt(1.0 - transmission))


@dataclass(frozen=True)
class AmplifierConfig:
    """Splitter intensities and input state set.

    ``comparison_reflectivity`` is r1^2 and ``subtraction_transmission`` is
    t2^2; :func:`_splitter_amplitudes` derives the four amplitudes from them,
    so both splitters are unitary by construction.  The guess set is the
    input set scaled by t1/r1, which generalizes the destructive-interference
    condition beyond the 50/50 comparison splitter (at 50/50 the guess and
    input sets coincide), and each guess is drawn with probability 1/N.
    """

    comparison_reflectivity: float
    subtraction_transmission: float
    input_set: StateSet

    def __post_init__(self):
        for name in ("comparison_reflectivity", "subtraction_transmission"):
            object.__setattr__(self, name, checked(name, getattr(self, name)))

    def n_states(self) -> int:
        return self.input_set.n_states

    def nominal_gain(self) -> float:
        r1, _, t2, _ = _splitter_amplitudes(self.comparison_reflectivity, self.subtraction_transmission)
        return t2 / r1

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
    """The N branches of one input m of a device behind detectors D0/D1.

    Branch fields are lists indexed by guess k: D0/D1 mean photon numbers and
    click probabilities, complex output amplitudes, their squared overlaps
    with the target, and per conditioning the probability that guess k is
    drawn and passes, given input m.  :func:`branch_table` builds input 0,
    whose guess k is the guess offset d = (k - m) mod N that labels every
    input's branches (see the module docstring); the methods read such a
    table, whose offset 0 is the correct guess.
    """

    target: complex  # ideal output t2/r1 * input m
    output: list[complex]
    overlap: list[float]  # |<output k|target>|^2
    d0_mean: list[float]
    d1_mean: list[float]
    d0_click: list[float]
    d1_click: list[float]
    weights: dict[Conditioning, list[float]]

    def accepted(
        self, conditioning: Conditioning = Conditioning.D0_SILENT_D1_FIRES
    ) -> tuple[float, list[float]]:
        """Per-pulse acceptance probability and the normalized weights of the
        outputs, from one fsum; NeverHeraldedError when no branch can pass."""
        return _accepted(self.weights, 0, conditioning)

    def figures(self, success_probability: float, weights: list[float]) -> FiguresOfMerit:
        """The figures of merit of one :meth:`accepted` result."""
        fidelity = math.fsum(w * o for w, o in zip(weights, self.overlap))
        return FiguresOfMerit(fidelity, weights[0], success_probability)

    def success_probability(
        self, conditioning: Conditioning = Conditioning.D0_SILENT_D1_FIRES
    ) -> float:
        """Per-pulse acceptance probability.

        Well defined even when no branch can herald (returns 0), unlike the
        conditioned output state itself.
        """
        return math.fsum(self.weights[Conditioning(conditioning)])


def _accepted(
    by_conditioning: dict[Conditioning, list[float]], m: int, conditioning: Conditioning
) -> tuple[float, list[float]]:
    """Total and normalized acceptance weights of input m's branches under
    ``conditioning``, a member or its value; the total must be > 0, so a NaN
    total is refused too."""
    try:  # a member costs one lookup
        weights = by_conditioning[conditioning]
    except (KeyError, TypeError):
        conditioning = Conditioning(conditioning)
        weights = by_conditioning[conditioning]
    total = math.fsum(weights)
    if not total > 0.0:
        raise NeverHeraldedError(
            f"no branch of input {m} can pass conditioning {conditioning.value}"
        )
    return total, [w / total for w in weights]


class BranchKernel:
    """What every branch row of one device shares, whatever its base amplitude.

    Built once per (splitters, state-set size, D0/D1), from values that
    :class:`AmplifierConfig` or a sweep's spec has checked: r1, t1, r2, t2
    (:func:`_splitter_amplitudes`), the guess scale t1^2/r1, the nominal gain
    t2/r1, the N unit turns ``turn(k, N)``, the click laws of D0 and D1 and
    the uniform guess prior 1/N.  :meth:`row` takes the one value a
    point adds, its base amplitude, and derives input m's branches; it is the
    one branch loop of the package.
    """

    __slots__ = ("n_states", "r1", "t1", "r2", "t2", "guess_scale", "gain", "turns", "click0",
                 "click1", "prior")

    def __init__(self, comparison_reflectivity: float, subtraction_transmission: float, n_states: int,
                 det0: DetectorModel, det1: DetectorModel):
        r1, t1, t2, r2 = _splitter_amplitudes(comparison_reflectivity, subtraction_transmission)
        self.r1, self.t1, self.r2, self.t2 = r1, t1, r2, t2
        # guess k = (t1/r1)*member k puts (t1^2/r1)*member k into the retained port
        self.guess_scale = t1 * t1 / r1
        self.gain = t2 / r1  # AmplifierConfig.nominal_gain
        self.n_states = n_states
        self.turns = [turn(k, n_states) for k in range(n_states)]
        self.click0, self.click1 = click_law(det0), click_law(det1)
        self.prior = 1.0 / n_states  # every guess is drawn with the same probability

    def row(self, base: complex, m: int = 0) -> BranchTable:
        """The :class:`BranchTable` of input m, 0 <= m < N, of the state set
        with complex base amplitude ``base``: the one derivation of a branch.

        Member k is ``base * turn(k, N)``, as :meth:`StateSet.state` computes
        it, and the target is the gain times member m.  Monitor =
        t1*input - r1*guess and retained = r1*input + t1*guess, with the guess
        scaled by t1/r1 so a correct guess nulls the monitor port; that branch
        is evaluated in closed form to keep the null and the gain law exact.
        One pass evaluates each branch completely and appends every value to
        its column.
        """
        r1, t1, r2, t2 = self.r1, self.t1, self.r2, self.t2
        n, q, turns, guess_scale = self.n_states, self.prior, self.turns, self.guess_scale
        click0, click1 = self.click0, self.click1
        z_in = base * turns[m]
        in_re, in_im = z_in.real, z_in.imag
        input_part = r1 * z_in
        part_re, part_im = input_part.real, input_part.imag
        gain = self.gain
        target = complex(gain * in_re, gain * in_im)
        output, overlap, d0_mean, d1_mean, d0_click, d1_click, silent, heralded = [], [], [], [], [], [], [], []
        for k in range(n):
            if k == m:
                n0 = 0.0
                retained = z_in / r1
                ret_re, ret_im = retained.real, retained.imag
                out = target
            else:
                z = base * turns[k]
                # monitor field t1*(input - member) in real arithmetic: for
                # finite amplitudes, the complex product's squared modulus
                d0_re, d0_im = t1 * (in_re - z.real), t1 * (in_im - z.imag)
                n0 = d0_re * d0_re + d0_im * d0_im
                guess_part = guess_scale * z
                ret_re, ret_im = part_re + guess_part.real, part_im + guess_part.imag
                out = complex(t2 * ret_re, t2 * ret_im)
            tap_re, tap_im = r2 * ret_re, r2 * ret_im
            n1 = tap_re * tap_re + tap_im * tap_im
            p0, p1 = click0(n0), click1(n1)
            w = q * (1.0 - p0)
            output.append(out)
            overlap.append(overlap_sq(out, target))
            d0_mean.append(n0)
            d1_mean.append(n1)
            d0_click.append(p0)
            d1_click.append(p1)
            silent.append(w)
            heralded.append(w * p1)
        weights = {
            Conditioning.NONE: [q] * n,
            Conditioning.D0_SILENT: silent,
            Conditioning.D0_SILENT_D1_FIRES: heralded,
        }
        return BranchTable(target, output, overlap, d0_mean, d1_mean, d0_click, d1_click, weights)


def _branch_row(cfg: AmplifierConfig, det0: DetectorModel, det1: DetectorModel, m: int) -> BranchTable:
    """The :class:`BranchTable` of input m of ``cfg``: the :class:`BranchKernel`
    of its device at its base amplitude."""
    kernel = BranchKernel(cfg.comparison_reflectivity, cfg.subtraction_transmission, cfg.n_states(),
                          det0, det1)
    return kernel.row(cfg.input_set.base_amplitude, m)


def branch_table(cfg: AmplifierConfig, det0: DetectorModel, det1: DetectorModel) -> BranchTable:
    """The N branches of input 0, indexed by guess offset, in scalar
    arithmetic: the :class:`BranchKernel` of the device, which a sweep builds
    once per state-set size, at the one value a point supplies, its base
    amplitude.  Every figure reads them alone."""
    return _branch_row(cfg, det0, det1, 0)


def output_mixture(
    cfg: AmplifierConfig,
    det0: DetectorModel,
    det1: DetectorModel,
    input_index: int,
    conditioning: Conditioning = Conditioning.D0_SILENT_D1_FIRES,
) -> Mixture:
    """Conditioned output state for one input, as a normalized coherent mixture.

    The branches of input ``input_index``, an integer in [0, N - 1], are
    derived in guess order, as :func:`branch_table` derives input 0's.
    Components with exactly zero acceptance weight are dropped (e.g. the
    dead wrong branch of the two-state set under ideal detectors).
    """
    last = cfg.n_states() - 1
    input_index = checked("input_index", input_index, (as_integer, 0, last, f"lie in [0, {last}]"))
    row = _branch_row(cfg, det0, det1, input_index)
    _, weights = _accepted(row.weights, input_index, conditioning)
    return Mixture(tuple((w, z) for w, z in zip(weights, row.output) if w > 0.0))


def figures_of_merit(
    cfg: AmplifierConfig,
    det0: DetectorModel,
    det1: DetectorModel,
    conditioning: Conditioning = Conditioning.D0_SILENT_D1_FIRES,
) -> FiguresOfMerit:
    """Fidelity, correct-state fraction and success probability, averaged
    over a uniform prior on the input states: input 0's, by the symmetry of
    the module docstring.

    fidelity: overlap of the conditioned output mixture with the ideal
    amplified input.  correct_state_fraction: accepted-weight share of the
    guess == input branch.  success_probability: total acceptance
    probability per pulse (before normalization).
    """
    table = branch_table(cfg, det0, det1)
    return table.figures(*table.accepted(conditioning))


def success_rate(
    cfg: AmplifierConfig,
    det0: DetectorModel,
    det1: DetectorModel,
    prf: float,
    conditioning: Conditioning = Conditioning.D0_SILENT_D1_FIRES,
) -> float:
    """Accepted pulses per second at pulse repetition frequency `prf`; 0 when
    no branch can herald (see :meth:`BranchTable.success_probability`)."""
    prf = checked("prf", prf)
    return branch_table(cfg, det0, det1).success_probability(conditioning) * prf
