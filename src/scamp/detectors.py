"""Threshold (click / no-click) photodetector model.

Detection of coherent light with efficiency eta behind a transmission l is
Poissonian, so the no-click probability is exp(-eta*l*nbar).  Dark counts
are folded in as an independent per-gate Bernoulli event:

    P(click) = 1 - (1 - d) * exp(-eta * l * nbar)

which reduces to the plain exponential law at d = 0.  Dead time,
afterpulsing and timing jitter are not modeled; gating enters only through
the per-gate dark probability and retention factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class DetectorModel:
    """Gated threshold detector.

    efficiency         quantum efficiency eta
    loss_transmission  transmission l of optics in front of the detector
    dark_prob_per_gate probability d of a background count within one gate
    """

    efficiency: float
    loss_transmission: float = 1.0
    dark_prob_per_gate: float = 0.0

    def __post_init__(self):
        for name in ("efficiency", "loss_transmission", "dark_prob_per_gate"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {value}")

    @classmethod
    def ideal(cls) -> "DetectorModel":
        return cls(efficiency=1.0, loss_transmission=1.0, dark_prob_per_gate=0.0)

    def eta_l(self) -> float:
        return self.efficiency * self.loss_transmission


def click_probability(mean_photons: float, det: DetectorModel) -> float:
    """Probability that the detector fires in a gate seeing `mean_photons`.

    Monotone nondecreasing in the mean photon number and -> 1 as it grows.
    """
    if mean_photons < 0.0:
        raise ValueError(f"mean photon number must be >= 0, got {mean_photons}")
    return click_probabilities([mean_photons], det)[0]


def click_probabilities(mean_photons: list[float], det: DetectorModel) -> list[float]:
    """:func:`click_probability` for many gates, without the range check."""
    keep = 1.0 - det.dark_prob_per_gate
    eta_l = det.eta_l()
    return [1.0 - keep * math.exp(-eta_l * n) for n in mean_photons]


def dark_prob_from_rate(
    background_rate: float,
    gate_width: float,
    gate_retention: float = 1.0,
) -> float:
    """Per-gate dark probability from a background count rate.

    Plain window arithmetic: rate * gate_width * gate_retention, clamped to
    [0, 1].  Two usages cover the common bookkeeping conventions:

      - gate_width = detector window (e.g. 4 ns), retention = 1: probability
        of a raw background event inside one gate;
      - gate_width = pulse period (e.g. 1 us at 1 MHz), retention = fraction
        of background surviving software gating: effective per-pulse dark
        probability after time filtering.
    """
    if background_rate < 0.0:
        raise ValueError(f"background rate must be >= 0, got {background_rate}")
    if gate_width <= 0.0:
        raise ValueError(f"gate width must be > 0, got {gate_width}")
    if not (0.0 <= gate_retention <= 1.0):
        raise ValueError(f"gate retention must lie in [0, 1], got {gate_retention}")
    return min(1.0, background_rate * gate_width * gate_retention)
