"""Acceptance thresholds for the whole package, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with `pytest -s`)
and then asserts, so a red criterion still reports its measured values.
Tolerances are pinned here, not computed elsewhere.
"""

import math
import time

import numpy as np
import pytest

from scamp.amplifier import (
    Conditioning,
    branch_table,
    figures_of_merit,
    output_mixture,
    success_rate,
)
from scamp.analysis import (
    AnalysisConfig,
    estimate_pulse_numbers,
    expected_counts,
    visibility,
)
from scamp.coherent import overlap_sq
from scamp.detectors import DetectorModel, click_probability
from scamp.montecarlo import (
    DetectorBank,
    RunSpec,
    conditioned_class_totals,
    conditioned_counts,
    simulate_run,
)
from scamp import params

IDEAL = DetectorModel.ideal()

# Reference operating benchmarks of the modeled device: (n_states, alpha_sq,
# fidelity low, fidelity high).  Bands with high < 1 are two-sided targets.
FIDELITY_BENCHMARKS = (
    (2, 0.5, 0.98, 1.0),
    (2, 0.3, 0.975, 1.0),
    (4, 0.5, 0.80, 1.0),
    (4, 0.3, 0.87, 0.93),
    (4, 0.25, 0.87, 0.93),
    (8, 0.21, 0.87, 0.93),
)
# the operating point of the device's quoted conditioned fractions
FIG3_MIDRANGE_ALPHA_SQ = 1.5


def report(criterion, ok, detail, elapsed=None):
    # a wall time differs from run to run, so only a failing line prints it
    if not ok and elapsed is not None:
        detail += f" ({elapsed:.3f} s)"
    print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_gain_law():
    cfg = params.default_amplifier(0.5, 2)
    g_sq = cfg.nominal_gain() ** 2
    report(1, abs(g_sq - 1.8) < 1e-12, f"g^2 = {g_sq!r} (target 1.8, tol 1e-12)")


def test_criterion_02_ideal_two_state_cleaning():
    started = time.perf_counter()
    worst = 0.0
    for i in range(1, 21):
        alpha_sq = 0.05 * i
        fom = figures_of_merit(params.default_amplifier(alpha_sq, 2), IDEAL, IDEAL)
        worst = max(worst, abs(fom.fidelity - 1.0), abs(fom.correct_state_fraction - 1.0))
    elapsed = time.perf_counter() - started
    report(2, worst < 1e-12 and elapsed < 1.0, f"max deviation {worst:.2e} over 20 grid points",
           elapsed)


def test_criterion_03_vacuum_benchmark():
    target = complex(math.sqrt(2.0 * 0.25))
    f = overlap_sq(0j, target)
    ok = abs(f - math.exp(-0.5)) < 1e-12 and f > 0.6
    report(3, ok, f"vacuum fidelity {f:.6f} (exp(-0.5) ~ 0.6065 > 0.6)")


def test_criterion_04_unconditioned_fractions():
    det = params.default_detector()
    fractions = [
        figures_of_merit(params.default_amplifier(0.5, n), det, det, Conditioning.NONE
                         ).correct_state_fraction
        for n in (2, 4, 8)
    ]
    ok = fractions == [0.5, 0.25, 0.125]
    report(4, ok, f"unconditioned fractions {fractions} (exact 1/N)")


def fit_optical_loss(lo=0.3, hi=1.0, steps=71):
    """Fit the free optical-loss parameter against the fidelity benchmarks.

    Grid scan over [lo, hi]; primary objective is zero violation of all
    benchmark bands, tie-broken by least squares to the centers of the
    two-sided bands.  Deterministic; the result is frozen as
    params.FROZEN_OPTICAL_LOSS.
    """
    best_key = None
    best_loss = lo
    for loss in params.linspace(lo, hi, steps):
        det = params.default_detector(loss)
        violation = 0.0
        sse = 0.0
        for n_states, alpha_sq, f_lo, f_hi in FIDELITY_BENCHMARKS:
            f = figures_of_merit(params.default_amplifier(alpha_sq, n_states), det, det).fidelity
            violation += max(0.0, f_lo - f) ** 2 + max(0.0, f - f_hi) ** 2
            if f_hi < 1.0:
                sse += (f - 0.5 * (f_lo + f_hi)) ** 2
        key = (violation, sse)
        if best_key is None or key < best_key:
            best_key = key
            best_loss = loss
    return best_loss


def test_criterion_05_fidelity_bands_with_frozen_loss():
    fitted = fit_optical_loss()
    det = params.default_detector(fitted)
    results = []
    ok = fitted == params.FROZEN_OPTICAL_LOSS
    for n_states, alpha_sq, lo, hi in FIDELITY_BENCHMARKS:
        f = figures_of_merit(params.default_amplifier(alpha_sq, n_states), det, det).fidelity
        ok &= lo <= f <= hi
        results.append(f"N={n_states}@{alpha_sq}: {f:.4f} in [{lo},{hi}]")
    report(5, ok, f"loss fitted and frozen at {fitted}; " + "; ".join(results))


def test_criterion_06_conditioned_fractions_at_midrange():
    det = params.default_detector()
    a2 = FIG3_MIDRANGE_ALPHA_SQ
    frac = {
        n: figures_of_merit(params.default_amplifier(a2, n), det, det).correct_state_fraction
        for n in (2, 4, 8)
    }
    ok = frac[2] > 0.95 and frac[4] > 0.60 and 0.25 <= frac[8] <= 0.35
    report(
        6,
        ok,
        f"at alpha^2 = {a2}: N=2 {frac[2]:.4f} (>0.95), N=4 {frac[4]:.4f} (>0.60), "
        f"N=8 {frac[8]:.4f} (in [0.25, 0.35])",
    )


def test_criterion_07_success_rate_band():
    cfg = params.default_amplifier(0.94, 2)
    det = params.default_detector()
    rate = success_rate(cfg, det, det, params.PULSE_REPETITION_HZ)
    unfitted = DetectorModel(efficiency=params.DETECTION_EFFICIENCY)
    upper = success_rate(cfg, unfitted, unfitted, params.PULSE_REPETITION_HZ)
    ok = 13_000.0 <= rate <= 39_000.0 and upper >= 26_000.0
    report(
        7,
        ok,
        f"frozen-parameter rate {rate:.0f}/s in [13k, 39k]; "
        f"unfitted-loss bound {upper:.0f}/s >= 26k",
    )


def test_criterion_08_visibility_ordering():
    det = params.default_detector()
    ordered = True
    for alpha_sq in params.FIG3_ALPHA_SQ_GRID:
        cfg = params.default_amplifier(alpha_sq, 2)
        ana = params.default_analysis(cfg)
        v = [
            visibility(output_mixture(cfg, det, det, 0, c), ana)
            for c in (Conditioning.NONE, Conditioning.D0_SILENT, Conditioning.D0_SILENT_D1_FIRES)
        ]
        ordered &= v[2] >= v[1] >= v[0]
    ideal_min = 1.0
    for alpha_sq in (a for a in params.FIG3_ALPHA_SQ_GRID if a >= 0.1):
        cfg = params.default_amplifier(alpha_sq, 2)
        ana = AnalysisConfig(reference_amplitude=cfg.target_amplitude(0), detector=IDEAL)
        m = output_mixture(cfg, IDEAL, IDEAL, 0, Conditioning.D0_SILENT_D1_FIRES)
        ideal_min = min(ideal_min, visibility(m, ana))
    ok = ordered and ideal_min >= 0.99
    report(
        8,
        ok,
        f"conditioning ordering holds on all {len(params.FIG3_ALPHA_SQ_GRID)} grid points; "
        f"ideal conditioned visibility min {ideal_min:.6f} >= 0.99",
    )


def test_criterion_09_estimator_round_trip():
    rng = np.random.default_rng(20240811)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        g2a2 = rng.uniform(0.05, 3.0)
        eta_l = rng.uniform(0.1, 1.0)
        cap = min(0.2, 0.999 * math.expm1(2.0 * eta_l * g2a2))
        eps = rng.uniform(0.0, cap)
        n_sig = rng.uniform(1.0, 1e7)
        n_vac = rng.uniform(1.0, 1e7)
        counts = expected_counts(n_sig, n_vac, g2a2, eta_l, eps)
        est_sig, est_vac = estimate_pulse_numbers(counts, g2a2, eta_l)
        worst = max(worst, abs(est_sig / n_sig - 1.0), abs(est_vac / n_vac - 1.0))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-9 and elapsed < 1.0
    report(9, ok, f"200 random tuples, max relative error {worst:.2e}", elapsed)


def _analytic_predictions(spec: RunSpec):
    """Per-pulse probabilities for the conditioned record, composed
    independently of the sampling code path."""
    cfg = spec.amplifier
    n = cfg.n_states()
    det0, det1, deta, detb = (
        spec.detectors.d0, spec.detectors.d1, spec.detectors.da, spec.detectors.db,
    )
    z_ref = spec.analysis.reference_amplitude
    # only the branch geometry is read from the table; every click and
    # weight is composed here from the detector law
    table = branch_table(cfg, det0, det1)
    p = {"d0": 0.0, "d1": 0.0, "cond": 0.0, "cond_correct": 0.0,
         "a_sig": 0.0, "b_sig": 0.0, "a_vac": 0.0, "b_vac": 0.0}
    for m in range(n):
        ref_m = z_ref * np.exp(2j * np.pi * m / n)
        for k in range(n):
            w = table.prior[k] / n
            p0 = click_probability(table.d0_mean[m][k], det0)
            p1 = click_probability(table.d1_mean[m][k], det1)
            z_out = table.output[m][k]
            pa = click_probability(0.5 * abs(z_out + ref_m) ** 2, deta)
            pb = click_probability(0.5 * abs(z_out - ref_m) ** 2, detb)
            p["d0"] += w * p0
            p["d1"] += w * p1
            accept = w * (1.0 - p0) * p1
            p["cond"] += accept
            key = "sig" if k == m else "vac"
            if key == "sig":
                p["cond_correct"] += accept
            p[f"a_{key}"] += accept * pa
            p[f"b_{key}"] += accept * pb
    return p


def test_criterion_10_montecarlo_analytic_equivalence():
    started = time.perf_counter()
    n_pulses = 1_000_000
    failures = []
    for n_states in (2, 4, 8):
        for alpha_sq in (0.01, 0.1, 0.5, 1.0):
            cfg = params.default_amplifier(alpha_sq, n_states)
            det = params.default_detector()
            spec = RunSpec(
                amplifier=cfg,
                detectors=DetectorBank.uniform(det),
                analysis=params.default_analysis(cfg, epsilon=0.0),
                n_pulses=n_pulses,
                master_seed=1_000 * n_states + int(alpha_sq * 100),
            )
            tally = simulate_run(spec, workers=1)
            pred = _analytic_predictions(spec)

            def check(name, k, prob, n=n_pulses):
                sigma = math.sqrt(prob * (1.0 - prob) / n)
                if abs(k / n - prob) >= 5.0 * sigma:
                    failures.append(
                        f"N={n_states} a2={alpha_sq} {name}: {k / n:.3e} vs {prob:.3e}"
                    )

            marg = tally.counts.sum(axis=(0, 1, 2))
            bits = np.arange(16)
            check("P(D0)", int(marg[(bits & 8) != 0].sum()), pred["d0"])
            check("P(D1)", int(marg[(bits & 4) != 0].sum()), pred["d1"])
            n_correct, n_wrong = conditioned_class_totals(tally, Conditioning.D0_SILENT_D1_FIRES)
            accepted = n_correct + n_wrong
            check("P(accept)", accepted, pred["cond"])
            if accepted > 0:
                check("fraction", n_correct, pred["cond_correct"] / pred["cond"], n=accepted)
            counts = conditioned_counts(tally, Conditioning.D0_SILENT_D1_FIRES)
            check("rate A|sig", counts.n_A_sig, pred["a_sig"])
            check("rate B|sig", counts.n_B_sig, pred["b_sig"])
            check("rate A|vac", counts.n_A_vac, pred["a_vac"])
            check("rate B|vac", counts.n_B_vac, pred["b_vac"])
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 120.0
    report(
        10,
        ok,
        "12 grid points x 1e6 pulses, all statistics within 5 sigma"
        + ("" if not failures else f"; failures: {failures}"),
        elapsed,
    )


def test_criterion_11_worker_determinism():
    cfg = params.default_amplifier(0.5, 4)
    det = params.default_detector()
    spec = RunSpec(
        amplifier=cfg,
        detectors=DetectorBank.uniform(det),
        analysis=params.default_analysis(cfg),
        n_pulses=300_000,
        master_seed=271828,
    )
    tallies = [simulate_run(spec, workers=w).counts for w in (1, 2, 5)]
    ok = all(np.array_equal(tallies[0], t) for t in tallies[1:])
    report(11, ok, "bit-identical tallies for workers in {1, 2, 5} at equal master seed")
