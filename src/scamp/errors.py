"""Exception types shared across the package, and the one worker-count check."""


class NeverHeraldedError(RuntimeError):
    """No branch of the amplifier can produce the heralding pattern."""


class InsufficientSignalError(ValueError):
    """Estimator inputs carry no usable signal (zero counts or vanishing exponent)."""


class InvalidEpsilonError(ValueError):
    """Interferometer imperfection too large for the given reference intensity."""


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


def check_workers(workers: int) -> None:
    """A Monte Carlo worker count must be >= 1, or it is a ConfigError.

    The count changes neither output nor speed: each run is one multinomial
    draw.  ``sweep.run_sweep`` and ``montecarlo.simulate_run`` check it on entry.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
