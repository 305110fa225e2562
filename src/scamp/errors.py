"""Exception types shared across the package, and the one check of every bounded input.

A bounded input has one row: the function that reads its type, the closed
interval [low, high] it must lie in (an open bound is the next float inward)
and the words that state it.  :data:`PARAMETERS` holds the rows by name (a
module keeps the row of a bound it sets for its own reason), and
:func:`checked` is the one range check.  A wrong type (a bool is no number),
a NaN or a value outside the interval is a ConfigError, which is a ValueError.
"""

import math
import numbers
import operator


class NeverHeraldedError(RuntimeError):
    """No branch of the amplifier can produce the heralding pattern."""


class InsufficientSignalError(ValueError):
    """Estimator inputs carry no usable signal (zero counts or vanishing exponent)."""


class InvalidEpsilonError(ValueError):
    """Interferometer imperfection too large for the given reference intensity."""


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


def as_integer(name: str, value) -> int:
    """``value`` as an int; a bool, or a value ``operator.index`` refuses, is a ConfigError."""
    if type(value) is int:  # the common case, which a bool is not; the tests below are slower
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def as_real(name: str, value) -> float:
    """``value`` as a float (infinite past the largest one); a bool or a non-real is a ConfigError."""
    # the float test first: it is the common case, and an ABC check is slower
    if isinstance(value, float) or (isinstance(value, numbers.Real) and not isinstance(value, bool)):
        try:
            return float(value)
        except OverflowError:  # e.g. 10**400, which no interval holds
            return math.inf if value > 0 else -math.inf
    raise ConfigError(f"{name} must be a real number, got {value!r}")


def as_complex(name: str, value) -> complex:
    """``value`` as a finite complex; a bool, a non-number or a non-finite value is a ConfigError."""
    if isinstance(value, numbers.Complex) and not isinstance(value, bool):
        z = complex(as_real(name, value.real), as_real(name, value.imag))
        if math.isfinite(z.real) and math.isfinite(z.imag):
            return z
    raise ConfigError(f"{name} must be a finite complex number, got {value!r}")


_ABOVE_0 = math.nextafter(0.0, 1.0)
_BELOW_1 = math.nextafter(1.0, 0.0)
_MAX = math.nextafter(math.inf, 0.0)

# parameter -> (type, low, high, interval in words): the one definition of each
PARAMETERS = {
    **dict.fromkeys(("efficiency", "loss_transmission", "dark_prob_per_gate", "optical_loss", "visibility"),
                    (as_real, 0.0, 1.0, "lie in [0, 1]")),
    "comparison_reflectivity": (as_real, _ABOVE_0, _BELOW_1, "lie in (0, 1)"),
    "subtraction_transmission": (as_real, _ABOVE_0, 1.0, "lie in (0, 1]"),
    "eta_l": (as_real, _ABOVE_0, 1.0, "lie in (0, 1]"),
    "epsilon": (as_real, 0.0, _BELOW_1, "lie in [0, 1)"),
    **dict.fromkeys(("g2a2", "prf"), (as_real, _ABOVE_0, _MAX, "be finite and > 0")),
    **dict.fromkeys(("alpha_sq", "n_sig_pulses", "n_vac_pulses", "weight", "mean_photons"),
                    (as_real, 0.0, _MAX, "be finite and >= 0")),
    # so that the estimator's n_sig + n_vac is finite
    **dict.fromkeys(("n_sig", "n_vac"), (as_real, 0.0, _MAX / 2, "be >= 0 and at most half the largest float")),
    "phase_schedule entry": (as_real, -_MAX, _MAX, "be finite"),
    **dict.fromkeys(("n_states", "workers", "chunk_size", "total"), (as_integer, 1, math.inf, "be >= 1")),
    **dict.fromkeys(("seed", "master_seed", "chunk_index", "count"), (as_integer, 0, math.inf, "be >= 0")),
}


def checked(name: str, value, row: tuple | None = None):
    """``value`` read by the type of parameter ``name`` and checked against the
    interval of its :data:`PARAMETERS` row, or of ``row``; a NaN fails."""
    read, low, high, interval = PARAMETERS[name] if row is None else row
    value = read(name, value)
    if low <= value <= high:
        return value
    raise ConfigError(f"{name} must {interval}, got {value}")
