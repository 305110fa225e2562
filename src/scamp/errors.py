"""Exception types shared across the package, the one integer check and the worker-count check."""

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
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def check_workers(workers: int) -> None:
    """A Monte Carlo worker count must be an integer >= 1, or it is a ConfigError.

    The count changes neither output nor speed: each run is one multinomial
    draw.  ``sweep.run_sweep`` and ``montecarlo.simulate_run`` check it on entry.
    """
    if as_integer("workers", workers) < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
