"""Fast built-in sanity checks behind the `scamp selfcheck` subcommand.

A trimmed version of the acceptance thresholds that runs in well under a
second: exact algebraic identities, the ideal-detector limits and the
frozen-parameter bands.  The full statistical suite lives in the test
directory; this is the in-the-field smoke test.
"""

from __future__ import annotations

import math

import numpy as np

from . import params
from .amplifier import Conditioning, figures_of_merit, output_mixture
from .analysis import (
    count_probabilities,
    estimate_pulse_numbers,
    expected_counts,
    visibility,
)
from .coherent import overlap_sq
from .detectors import DetectorModel, click_probability


def _check_gain_law() -> tuple[bool, str]:
    cfg = params.default_amplifier(0.5, 2)
    g2 = cfg.nominal_gain() ** 2
    return abs(g2 - 1.8) < 1e-12, f"g^2 = {g2!r}"


def _check_ideal_cleaning() -> tuple[bool, str]:
    ideal = DetectorModel.ideal()
    worst = 0.0
    for alpha_sq in (0.05, 0.5, 1.0):
        fom = figures_of_merit(params.default_amplifier(alpha_sq, 2), ideal, ideal)
        worst = max(worst, abs(fom.fidelity - 1.0), abs(fom.correct_state_fraction - 1.0))
    return worst < 1e-12, f"max deviation {worst:.2e}"


def _check_unconditioned_fractions() -> tuple[bool, str]:
    det = params.default_detector()
    fractions = []
    for n in (2, 4, 8):
        fom = figures_of_merit(
            params.default_amplifier(0.5, n), det, det, Conditioning.NONE
        )
        fractions.append(fom.correct_state_fraction)
    ok = fractions == [0.5, 0.25, 0.125]
    return ok, f"fractions {fractions}"


def _check_vacuum_benchmark() -> tuple[bool, str]:
    target = complex(math.sqrt(2.0 * 0.25))
    f = overlap_sq(0j, target)
    return abs(f - math.exp(-0.5)) < 1e-12 and f > 0.6, f"vacuum fidelity {f:.6f}"


def _check_estimator_round_trip() -> tuple[bool, str]:
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(0.05, 2.0)
        eps_cap = min(0.2, math.expm1(2.0 * x) * 0.999)
        eps = rng.uniform(0.0, eps_cap)
        n_sig = rng.uniform(10.0, 1e6)
        n_vac = rng.uniform(10.0, 1e6)
        counts = expected_counts(n_sig, n_vac, g2a2=x, eta_l=1.0, epsilon=eps)
        est_sig, est_vac = estimate_pulse_numbers(counts, g2a2=x, eta_l=1.0)
        worst = max(worst, abs(est_sig / n_sig - 1.0), abs(est_vac / n_vac - 1.0))
    return worst < 1e-9, f"max relative error {worst:.2e}"


def _check_click_law_reduction() -> tuple[bool, str]:
    # at d = 0 the detector law must reproduce the analyzer's bright-port term
    det = DetectorModel(efficiency=0.405, loss_transmission=1.0, dark_prob_per_gate=0.0)
    g2a2 = 0.9
    cfg = params.default_analysis(params.default_amplifier(0.5, 2), detector=det, epsilon=0.0)
    probs = count_probabilities(cfg.reference_amplitude, cfg)
    direct = click_probability(2.0 * g2a2, det)
    return abs(probs.p10 - direct) < 1e-12, f"P10 {probs.p10!r} vs click law {direct!r}"


def _check_success_rate_band() -> tuple[bool, str]:
    det = params.default_detector()
    cfg = params.default_amplifier(params.FIG4_ALPHA_SQ, 2)
    rate = figures_of_merit(cfg, det, det).success_probability * params.PULSE_REPETITION_HZ
    return 13_000.0 <= rate <= 39_000.0, f"rate {rate:.0f} / s"


def _check_conditioned_visibility() -> tuple[bool, str]:
    ideal = DetectorModel.ideal()
    cfg = params.default_amplifier(0.5, 2)
    mixture = output_mixture(cfg, ideal, ideal, 0, Conditioning.D0_SILENT_D1_FIRES)
    v = visibility(mixture, params.default_analysis(cfg, detector=ideal, epsilon=0.0))
    return v > 0.99, f"conditioned visibility {v:.6f}"


CHECKS = (
    ("gain-law", _check_gain_law),
    ("ideal-two-state-cleaning", _check_ideal_cleaning),
    ("unconditioned-fractions", _check_unconditioned_fractions),
    ("vacuum-benchmark", _check_vacuum_benchmark),
    ("estimator-round-trip", _check_estimator_round_trip),
    ("click-law-reduction", _check_click_law_reduction),
    ("success-rate-band", _check_success_rate_band),
    ("conditioned-visibility", _check_conditioned_visibility),
)


def run_selfcheck(verbose_print=print) -> bool:
    """Run every check, print one line each, return overall pass."""
    all_ok = True
    for name, fn in CHECKS:
        ok, detail = fn()
        all_ok &= ok
        verbose_print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    verbose_print(f"selfcheck {'passed' if all_ok else 'FAILED'}")
    return all_ok
