"""Coherent-amplitude algebra: mean photon numbers, overlaps and coherent mixtures.

Every state handled by the simulator is a coherent state or a classical
mixture of coherent states, so a Python ``complex`` amplitude (plus weights)
is a complete description; the vacuum is ``0j``.  Mean photon numbers are
computed from the components as re*re + im*im (:func:`mean_photons`), never
as abs(z)**2, which rounds differently, so every printed value stays
bit-stable.  Beamsplitters map coherent inputs to coherent outputs, which
keeps the whole forward model in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, as_complex, checked

NORMALIZATION_TOL = 1e-12


def mean_photons(z: complex) -> float:
    """Mean photon number |z|^2 of the coherent state with amplitude z."""
    return z.real * z.real + z.imag * z.imag


def overlap_sq(a: complex, b: complex) -> float:
    """Squared overlap |<a|b>|^2 = exp(-|a-b|^2) of two coherent states.

    Symmetric, in (0, 1], and equal to 1 iff a == b.
    """
    dr = a.real - b.real
    di = a.imag - b.imag
    return math.exp(-(dr * dr + di * di))


@dataclass(frozen=True)
class Mixture:
    """Weighted mixture of coherent components (weight, complex amplitude).

    Weights are finite floats >= 0, amplitudes finite complexes, and there is at least one.
    Most operations require a normalized mixture (weights summing to 1).
    """

    components: tuple[tuple[float, complex], ...]

    def __post_init__(self):
        if len(self.components) == 0:
            raise ConfigError("mixture must contain at least one component")
        components = tuple((checked("weight", w), as_complex("amplitude", a)) for w, a in self.components)
        object.__setattr__(self, "components", components)

    @classmethod
    def single(cls, amplitude: complex) -> "Mixture":
        return cls(((1.0, amplitude),))

    def total_weight(self) -> float:
        return math.fsum(w for w, _ in self.components)

    def is_normalized(self, tol: float = NORMALIZATION_TOL) -> bool:
        return abs(self.total_weight() - 1.0) <= tol

    def weights(self) -> tuple[float, ...]:
        return tuple(w for w, _ in self.components)

    def amplitudes(self) -> tuple[complex, ...]:
        return tuple(a for _, a in self.components)


def mixture_fidelity(m: Mixture, target: complex) -> float:
    """Fidelity <target| rho |target> of a normalized coherent mixture.

    Sum of weight * overlap_sq(component, target); lies in [0, 1] and equals 1
    iff every nonzero-weight component equals the target.
    """
    target = as_complex("target", target)
    if not m.is_normalized():
        raise ValueError(f"mixture is not normalized: total weight {m.total_weight()!r}")
    return math.fsum(w * overlap_sq(a, target) for w, a in m.components)
