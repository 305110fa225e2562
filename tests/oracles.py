"""Reference implementations the tests compare the package against.

The amplifier applies its two splitters inline (``scamp.amplifier``); the
two-port beamsplitter here is the textbook form its branch amplitudes are
checked against.
"""

UNITARITY_TOL = 1e-12


def beamsplitter(a: complex, b: complex, t: float, r: float) -> tuple[complex, complex]:
    """Two-port beamsplitter with real amplitude transmission t and reflection r.

    Convention (the package's):

        retained = r*a + t*b
        monitor  = t*a - r*b

    so a guess b = (t/r)*a interferes destructively into the monitor port and
    the retained port carries a/r.  Returns (retained, monitor).
    """
    if not (0.0 <= t <= 1.0 and 0.0 <= r <= 1.0):
        raise ValueError(f"beamsplitter amplitudes must lie in [0, 1], got t={t}, r={r}")
    if abs(t * t + r * r - 1.0) > UNITARITY_TOL:
        raise ValueError(f"non-unitary beamsplitter: t^2 + r^2 = {t * t + r * r!r}")
    return r * a + t * b, t * a - r * b
