"""Analysis interferometer: visibility, count probabilities and estimators.

The amplifier output is mixed with a phase-adjustable test copy of the
expected amplified state at a 50/50 beamsplitter feeding detectors A and B.
Port A sees |out + ref|^2/2 photons and port B |out - ref|^2/2; that one
port law (:func:`port_click`) gives the visibility scan, the Monte Carlo's
DA/DB clicks (and so the click probabilities its class-pulse estimate reads)
and the click patterns of every output but the reference itself, which is
modelled with the imperfection epsilon.
At the analysis phase all light from a perfect output exits at A; a vacuum
output splits evenly.  Counting clicks at A and B over many pulses lets the
pulse numbers behind each output class, and from them the output density
operator and its fidelity, be estimated without knowing epsilon (it cancels
in the signal-class inversion).

Two bookkeeping conventions circulate for the estimator's exponents, and
they are mutually inconsistent, so both are kept as explicit switches
rather than silently reconciled, each a table of exponent factors
(:data:`VACUUM_DENOMINATORS`, :data:`VACUUM_OVERLAPS`): the vacuum-class
denominator of the pulse-number estimator (``vacuum_denominator``:
"doubled" reuses the signal-class exponent, "per-port" uses the per-port
mean photon number the click law actually implies) and the vacuum-overlap
exponent of the fidelity estimate (``vacuum_overlap``: "standard" is
exp(-g2a2), "doubled" is exp(-2*g2a2)).

numpy is imported by the functions that compute with arrays, on their first
call, so the estimators and the configuration types load without it.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .amplifier import turn
from .coherent import Mixture, mean_photons
from .detectors import DetectorModel
from .errors import (ConfigError, InsufficientSignalError, InvalidEpsilonError, as_complex, as_integer,
                     as_real, checked)

if TYPE_CHECKING:
    import numpy as np

EXPONENT_GUARD = 1e-12
AMPLITUDE_MATCH_TOL = 1e-9
# every integer up to 2^53 is exact as a float; a count table holds no larger
# count, so the estimators' pulse numbers, weights and fidelities stay finite
MAX_COUNT = 1 << 53
# the scan's reference alone takes 1 MiB (complex128) at this many phases
MAX_PHASE_POINTS = 1 << 16
# the row of errors.checked for phase_points, the sweep's too
PHASE_POINTS = (as_integer, 8, MAX_PHASE_POINTS, f"lie in [8, {MAX_PHASE_POINTS}]")
# convention -> its factor of eta_l*g2a2 in the vacuum class's click exponent,
# and convention -> its factor of g2a2 in the vacuum overlap's exponent
VACUUM_DENOMINATORS = {"doubled": -2.0, "per-port": -0.5}
VACUUM_OVERLAPS = {"standard": -1.0, "doubled": -2.0}
DEFAULT_VACUUM_DENOMINATOR = "doubled"


@dataclass(frozen=True)
class AnalysisConfig:
    """Reference (test) state, imperfection epsilon, detector and phase grid."""

    reference_amplitude: complex
    epsilon: float = 0.0
    detector: DetectorModel = DetectorModel.ideal()
    phase_points: int = 256

    def __post_init__(self):
        reference = as_complex("reference_amplitude", self.reference_amplitude)
        object.__setattr__(self, "reference_amplitude", reference)
        object.__setattr__(self, "epsilon", checked("epsilon", self.epsilon))
        object.__setattr__(self, "phase_points", checked("phase_points", self.phase_points, PHASE_POINTS))

    def ref_mean_photons(self) -> float:
        return mean_photons(self.reference_amplitude)


@dataclass(frozen=True)
class CountTable:
    """Click counts at detectors A and B, split by attributed output class.

    "sig" rows come from pulses whose output should be the amplified state,
    "vac" rows from pulses attributed to the vacuum class.  Fields lie in
    [0, MAX_COUNT]; the Monte Carlo writes integers, analytic expectations may
    be fractional.  An integer count stays an int, so one above MAX_COUNT
    is refused, not rounded into range; any other count is stored as a float.
    """

    n_A_sig: float
    n_B_sig: float
    n_A_vac: float
    n_B_vac: float

    def __post_init__(self):
        for name in ("n_A_sig", "n_B_sig", "n_A_vac", "n_B_vac"):
            object.__setattr__(self, name, checked(name, getattr(self, name), _COUNT))

    def to_dict(self) -> dict:
        return {
            "n_A_sig": self.n_A_sig,
            "n_B_sig": self.n_B_sig,
            "n_A_vac": self.n_A_vac,
            "n_B_vac": self.n_B_vac,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CountTable":
        """Read the four counts from numbers or numeric strings (JSON or CSV
        cells), a string that spells an integer as that int, exactly.

        A missing field, a string that is not a number, or a value the
        constructor refuses (null, bool, list, object, a count above 2^53)
        raises ValueError.
        """
        try:
            values = {name: d[name] for name in ("n_A_sig", "n_B_sig", "n_A_vac", "n_B_vac")}
        except KeyError as exc:
            raise ValueError(f"count table is missing field {exc.args[0]!r}") from exc
        return cls(**{name: _count_cell(name, value) for name, value in values.items()})


def _count_cell(name: str, value):
    """A numeric string as the number it spells, an integer one as an exact int;
    any other value as it is, for CountTable to check."""
    if not isinstance(value, str):
        return value
    for number in (int, float):
        with contextlib.suppress(ValueError):
            return number(value)
    raise ConfigError(f"{name} must be a real number, got {value!r}")


def _as_count(name: str, value) -> int | float:
    """An integer count as an exact int (a bool is none), any other count as_real."""
    # the float test first: it is the common case, and an ABC check is slower
    if isinstance(value, (float, bool)) or not isinstance(value, numbers.Integral):
        return as_real(name, value)
    return as_integer(name, value)


_COUNT = (_as_count, 0, MAX_COUNT, "lie in [0, 2^53]")


@dataclass(frozen=True)
class CountProbabilities:
    """Joint click pattern probabilities at (A, B) for one pulse."""

    p10: float
    p01: float
    p11: float
    p00: float


def port_click(out, ref, det: DetectorModel, port: str) -> np.ndarray:
    """Click probability of analyzer port ``port`` ("A" or "B"), elementwise.

    Port A sees the coherent field (out + ref)/sqrt(2), port B (out - ref)/sqrt(2);
    ``out`` and ``ref`` are complex amplitudes that broadcast against each other.
    """
    import numpy as np

    if port not in ("A", "B"):
        raise ValueError(f"analyzer port must be 'A' or 'B', got {port!r}")
    field = out + ref if port == "A" else out - ref
    p = np.empty_like(field, dtype=float)
    eta_l = det.eta_l()
    if eta_l == 0.0:
        # a blind port fires on dark counts alone (detectors.click_law), so a field
        # whose |field|^2 overflows makes no 0 * inf; a finite field gives these bits too
        p.fill(1.0 - (1.0 - det.dark_prob_per_gate))
        return p
    # 1 - (1 - d)*exp(-eta*l*(|field|^2/2)) in place in one buffer (0-d for scalars); halving
    # eta*l is exact, so the folded scale rounds every element as that unfolded law does
    np.abs(field, out=p)
    np.square(p, out=p)
    np.multiply(p, -0.5 * eta_l, out=p)
    np.exp(p, out=p)
    np.multiply(p, 1.0 - det.dark_prob_per_gate, out=p)
    return np.subtract(1.0, p, out=p)


def count_probabilities(output: complex, cfg: AnalysisConfig) -> CountProbabilities:
    """Click pattern probabilities for one output state behind the analyzer.

    An output matching the reference is handled with the phenomenological
    imperfection epsilon: the B-click marginal equals epsilon and the
    A-click marginal is 1 - (1 + eps)*exp(-2*eta*l*g2a2).  Any other output
    (including vacuum) is treated physically: the two ports see independent
    coherent fields (output +/- reference)/sqrt(2), clicking by :func:`port_click`.
    """
    output, eta_l = as_complex("output", output), cfg.detector.eta_l()
    z_ref = cfg.reference_amplitude
    if abs(output - z_ref) <= AMPLITUDE_MATCH_TOL:
        e2 = math.exp(-2.0 * eta_l * cfg.ref_mean_photons())
        p10 = 1.0 - e2 - cfg.epsilon
        if p10 < 0.0:
            raise InvalidEpsilonError(
                f"epsilon {cfg.epsilon} exceeds the bright-port click probability {1.0 - e2}"
            )
        p01 = cfg.epsilon * e2
        p11 = cfg.epsilon * (1.0 - e2)
    else:
        import numpy as np

        with np.errstate(over="ignore"):  # a port whose |field|^2 overflows clicks surely
            pa = float(port_click(output, z_ref, cfg.detector, "A"))
            pb = float(port_click(output, z_ref, cfg.detector, "B"))
        p10 = pa * (1.0 - pb)
        p01 = pb * (1.0 - pa)
        p11 = pa * pb
    return CountProbabilities(p10=p10, p01=p01, p11=p11, p00=1.0 - p10 - p01 - p11)


def visibility(m: Mixture, cfg: AnalysisConfig) -> float:
    """Interferometric visibility of a mixture against the reference state.

    Scans the reference phase over ``phase_points`` uniform points on
    [0, 2*pi), computes the detector-A click probability of the mixture at
    each phase, and returns (max - min) / (max + min).  The click
    nonlinearity makes extrema of mixtures sit away from the pure-state
    positions, hence the dense scan instead of a closed form.  It is a scan
    block of one point (:func:`visibilities`).
    """
    if not m.is_normalized():
        raise ValueError("mixture must be normalized")
    return visibilities([m.amplitudes()], [[m.weights()]], [cfg.reference_amplitude], cfg.detector,
                        cfg.phase_points)[0]


@functools.lru_cache(maxsize=1)
def _unit_scan(phase_points: int) -> np.ndarray:
    """The ``phase_points`` turns of the uniform scan grid (:func:`amplifier.turn`,
    as the state-set members), kept for the last size asked for.  The grid
    bypasses turn's cache, which holds the members' turns and would keep none
    of them past a large grid."""
    import numpy as np

    scan = np.fromiter((turn.__wrapped__(j, phase_points) for j in range(phase_points)), complex, phase_points)
    scan.flags.writeable = False
    return scan


# A scan block of whole points spans at most this many (point, component,
# phase) cells, and a full one peaks at about 330 KiB; blocks of 2^13 to 2^15
# cells were no faster and raised a benchmark's peak RSS by 0.2 to 1.5 MB.
_SCAN_BLOCK_CELLS = 1 << 12
# A point larger than a block is scanned alone, in phase ranges of at most
# this many (component, phase) cells: 768 KiB of products for three weight
# sets.  Ranges of 2^12 cells made a point of 256 components and 65536 phases
# half as slow again.
_SCAN_RANGE_CELLS = 1 << 15


def scan_block_points(components: int, phase_points: int) -> int:
    """How many points of ``components`` components one :func:`visibilities`
    block takes: as many as fit in _SCAN_BLOCK_CELLS cells, and at least one."""
    return max(1, _SCAN_BLOCK_CELLS // (components * phase_points))


def visibilities(amplitudes: list[list[complex]], weight_sets: list[list[list[float]]],
                 references: list[complex], detector: DetectorModel, phase_points: int) -> list[float]:
    """:func:`visibility` of a block of points, each several normalized
    mixtures of its own components, against its own reference scanned over
    ``phase_points`` phases at port A's ``detector``.

    Point b has components ``amplitudes[b]``, reference ``references[b]``
    and mixtures ``weight_sets[b]``: ``weight_sets[b][j][i]`` is the weight of
    ``amplitudes[b][i]`` in its mixture j.  Every point has as many
    components and mixtures as the others.  The visibilities come point by
    point, mixture by mixture.  A block's mixtures share one reference scan
    per point, one :func:`port_click` call and one reduction.  A block of more
    than _SCAN_RANGE_CELLS (point, component, phase) cells has its phase axis
    cut into the fewest near-equal ranges (widths differ by at most one
    phase) that each hold at most that many cells and at least two phases,
    with one call and one reduction per range.  Besides the curves themselves
    (one float per mixture and phase), memory is O(range).
    """
    import numpy as np

    unit = _unit_scan(phase_points)
    # (point, mixture, component, phase) axes; one point's reference scales the
    # grid as a scalar: the same products as an outer product, at less cost
    z_ref = references[0] * unit if len(references) == 1 else np.multiply.outer(references, unit)[:, None, None]
    amplitudes = np.asarray(amplitudes, dtype=complex)[:, None, :, None]
    weights = np.asarray(weight_sets, dtype=float)[..., None]
    # a range one phase wide would be reduced pairwise, not in list order, so
    # every range keeps at least two phases, whatever the component count
    ranges = -(-phase_points // max(1, _SCAN_RANGE_CELLS // amplitudes.size))
    ranges = min(ranges, phase_points // 2)
    curves = np.empty(weights.shape[:2] + (phase_points,))
    for i in range(ranges):
        start, stop = phase_points * i // ranges, phase_points * (i + 1) // ranges
        click = port_click(amplitudes, z_ref[..., start:stop], detector, "A")
        # reducing over a non-contiguous axis adds the components one after
        # another, in list order (pinned bit for bit by a test)
        np.add.reduce(weights * click, axis=2, out=curves[..., start:stop])
    return fringe_visibility(curves.reshape(-1, phase_points))


def fringe_visibility(rates: np.ndarray) -> list[float]:
    """(max - min) / (max + min) of each click-rate curve along the last axis.

    A curve that never clicks has visibility 0.
    """
    his, los = rates.max(axis=-1).tolist(), rates.min(axis=-1).tolist()
    return [0.0 if hi <= 0.0 else (hi - lo) / (hi + lo) for hi, lo in zip(his, los)]


def expected_counts(
    n_sig_pulses: float,
    n_vac_pulses: float,
    g2a2: float,
    eta_l: float,
    epsilon: float = 0.0,
    vacuum_denominator: str = DEFAULT_VACUUM_DENOMINATOR,
) -> CountTable:
    """Expected count table for known class pulse numbers (forward model).

    Signal class:  n_B = eps * N_sig,
                   n_A = [1 - (1 + eps) * exp(-2*eta_l*g2a2)] * N_sig.
    Vacuum class:  both ports equal; "doubled" uses the signal-class
    exponent [1 - exp(-2*eta_l*g2a2)], "per-port" uses the per-port click
    probability [1 - exp(-eta_l*g2a2/2)].

    This is the exact inverse of :func:`estimate_pulse_numbers` under the
    same ``vacuum_denominator``.
    """
    n_sig_pulses, n_vac_pulses = checked("n_sig_pulses", n_sig_pulses), checked("n_vac_pulses", n_vac_pulses)
    g2a2, eta_l, epsilon = checked("g2a2", g2a2), checked("eta_l", eta_l), checked("epsilon", epsilon)
    e2 = math.exp(-2.0 * eta_l * g2a2)
    n_a_sig = (1.0 - (1.0 + epsilon) * e2) * n_sig_pulses
    if n_a_sig < 0.0:
        raise InvalidEpsilonError(
            f"epsilon {epsilon} too large for exponent {eta_l * g2a2}: negative A counts"
        )
    vac_click = _vacuum_click_probability(g2a2, eta_l, vacuum_denominator)
    return CountTable(
        n_A_sig=n_a_sig,
        n_B_sig=epsilon * n_sig_pulses,
        n_A_vac=vac_click * n_vac_pulses,
        n_B_vac=vac_click * n_vac_pulses,
    )


def _vacuum_click_probability(g2a2: float, eta_l: float, vacuum_denominator: str) -> float:
    factor = _factor(VACUUM_DENOMINATORS, "vacuum_denominator", vacuum_denominator)
    return 1.0 - math.exp(factor * eta_l * g2a2)


def _factor(table: dict, name: str, convention) -> float:
    """The exponent factor of ``convention`` in ``table``; any other value is a ConfigError."""
    try:
        return table[convention]
    except (KeyError, TypeError):
        raise ConfigError(f"{name} must be one of {tuple(table)}, got {convention!r}") from None


def estimate_pulse_numbers(
    counts: CountTable,
    g2a2: float,
    eta_l: float,
    vacuum_denominator: str = DEFAULT_VACUUM_DENOMINATOR,
) -> tuple[float, float]:
    """Estimate (N_sig, N_vac) class pulse numbers from a count table.

        N_sig = [n_A_sig + n_B_sig * exp(-2*eta_l*g2a2)] / [1 - exp(-2*eta_l*g2a2)]
        N_vac = (n_A_vac + n_B_vac) / (2 * vacuum click probability)

    The interferometer imperfection epsilon cancels in N_sig, so it is not
    an input.  The two vacuum conventions are mutually inconsistent by
    construction (see module docstring); "per-port" is the one consistent
    with the click law used everywhere else and is validated against the
    Monte Carlo oracle.
    """
    eta_l, g2a2 = checked("eta_l", eta_l), checked("g2a2", g2a2)
    if g2a2 * eta_l < EXPONENT_GUARD:
        raise InsufficientSignalError(
            f"exponent eta_l*g2a2 = {g2a2 * eta_l} too small: estimator undefined"
        )
    e2 = math.exp(-2.0 * eta_l * g2a2)
    n_sig = (counts.n_A_sig + counts.n_B_sig * e2) / (1.0 - e2)
    vac_click = _vacuum_click_probability(g2a2, eta_l, vacuum_denominator)
    n_vac = (counts.n_A_vac + counts.n_B_vac) / (2.0 * vac_click)
    return n_sig, n_vac


def estimate_fidelity(
    n_sig: float,
    n_vac: float,
    g2a2: float,
    vacuum_overlap: str = "standard",
) -> float:
    """Fidelity of the two-component reconstructed state with the reference.

    F = N_sig/(N_sig + N_vac) + c * N_vac/(N_sig + N_vac) with the vacuum
    overlap c = exp(-g2a2) ("standard" coherent-state rule) or
    c = exp(-2*g2a2) ("doubled").
    """
    n_sig, n_vac, g2a2 = checked("n_sig", n_sig), checked("n_vac", n_vac), checked("g2a2", g2a2)
    total = n_sig + n_vac
    if total <= 0.0:
        raise InsufficientSignalError("no pulses attributed to either class")
    c = math.exp(_factor(VACUUM_OVERLAPS, "vacuum_overlap", vacuum_overlap) * g2a2)
    return n_sig / total + c * n_vac / total


def estimate_class_pulse_numbers(
    class_counts: list[tuple[float, float]],
    class_click_probabilities: list[tuple[float, float]],
) -> list[float]:
    """Pulse numbers for an arbitrary set of known output classes.

    Generalization of the two-class estimator to state sets with more than
    two possible outputs: class j clicks at ports A and B with known
    probabilities (p_A, p_B), e.g. from the port law (:func:`port_click`,
    dark counts included, each port with its own detector), so with counts
    (n_A, n_B) its pulse number is (n_A + n_B) / (p_A + p_B).  The
    imperfection epsilon is not used.  Assumes the output is confined to the
    listed classes; a class with p_A + p_B below the exponent guard is
    unobservable and raises InsufficientSignalError.  A count outside
    [0, 2^53] or a probability outside [0, 1] is a ConfigError; the sweep
    reads its own draw through the unchecked :func:`_class_pulse_numbers`.
    Each argument is read once, an iterator as its items; anything but an
    iterable of pairs is a ConfigError.
    """
    counts = _pairs("class_counts", class_counts)
    probabilities = _pairs("class_click_probabilities", class_click_probabilities)
    if len(counts) != len(probabilities):
        raise ConfigError("class_counts and class_click_probabilities must have equal length")
    counts = [(checked("n_A", n_a, _COUNT), checked("n_B", n_b, _COUNT)) for n_a, n_b in counts]
    probabilities = [(checked("p_A", p_a), checked("p_B", p_b)) for p_a, p_b in probabilities]
    return _class_pulse_numbers(counts, probabilities)


def _pairs(name: str, rows) -> list[tuple]:
    """``rows`` as a list of pairs; a non-iterable, or a row that is not a pair, is a ConfigError."""
    try:
        return [(a, b) for a, b in rows]
    except (TypeError, ValueError) as error:
        raise ConfigError(f"{name} must be an iterable of pairs ({error})") from None


def _class_pulse_numbers(class_counts, class_click_probabilities) -> list[float]:
    """:func:`estimate_class_pulse_numbers` without the input checks, for a
    Monte Carlo draw's own counts and click probabilities."""
    seen = [p_a + p_b for p_a, p_b in class_click_probabilities]
    # written so that a NaN probability fails too
    if not all(p >= EXPONENT_GUARD for p in seen):
        raise InsufficientSignalError(
            "a class never clicks at A or B: its pulse number is unobservable"
        )
    return [(n_a + n_b) / p for (n_a, n_b), p in zip(class_counts, seen)]
