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
from collections.abc import Callable
from dataclasses import dataclass

from .errors import checked


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
            object.__setattr__(self, name, checked(name, getattr(self, name)))

    @classmethod
    def ideal(cls) -> "DetectorModel":
        return cls(efficiency=1.0, loss_transmission=1.0, dark_prob_per_gate=0.0)

    def eta_l(self) -> float:
        return self.efficiency * self.loss_transmission


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


def click_probability(mean_photons: float, det: DetectorModel) -> float:
    """Probability that the detector fires in a gate seeing `mean_photons` (finite, >= 0).

    Monotone nondecreasing in the mean photon number and -> 1 as it grows.
    """
    return click_law(det)(checked("mean_photons", mean_photons))


def click_law(det: DetectorModel) -> Callable[[float], float]:
    """The detector's click probability as a function of the mean photon
    number, without the range check: the one place the law is written.

    A blind detector (eta*l = 0) fires on dark counts alone, whatever the
    mean photon number, so an infinite one does not make 0 * inf a NaN.
    """
    keep = 1.0 - det.dark_prob_per_gate
    eta_l = det.eta_l()
    if eta_l == 0.0:
        dark = 1.0 - keep
        return lambda mean_photons: dark
    exp = math.exp

    def click(mean_photons: float) -> float:
        return 1.0 - keep * exp(-eta_l * mean_photons)

    return click
