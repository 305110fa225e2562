import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from scamp.amplifier import Conditioning, branch_table, figures_of_merit
from scamp.analysis import (
    AnalysisConfig,
    estimate_class_pulse_numbers,
    estimate_pulse_numbers,
    fringe_visibility,
)
from scamp.detectors import DetectorModel, click_probability
from scamp.montecarlo import (
    DEFAULT_CHUNK_SIZE,
    DetectorBank,
    RunSpec,
    TallyTable,
    conditioned_class_totals,
    conditioned_counts,
    counts_by_offset,
    detector_marginals,
    mc_visibility,
    phase_scan,
    simulate_chunk,
    simulate_run,
    standard_error,
)
from scamp import params

IDEAL = DetectorModel.ideal()


def mask_sums(counts, condition):
    """Accepted pulses, and accepted with DA / DB fired, per (phase bin, input, guess),
    summed over boolean pattern masks (bits: D0 = 8, D1 = 4, DA = 2, DB = 1)."""
    pattern = np.arange(16)
    d0, d1, da, db = ((pattern & bit) != 0 for bit in (8, 4, 2, 1))
    accepted = {
        Conditioning.NONE: np.ones(16, dtype=bool),
        Conditioning.D0_SILENT: ~d0,
        Conditioning.D0_SILENT_D1_FIRES: ~d0 & d1,
    }[condition]
    return tuple(counts[..., sel].sum(axis=3) for sel in (accepted, accepted & da, accepted & db))


def pulse_oracle(spec, chunk_size=DEFAULT_CHUNK_SIZE):
    """Pulse-by-pulse tally: every chunk of simulate_chunk, merged in order."""
    total = TallyTable.empty(spec.phase_schedule, spec.amplifier.n_states())
    for c in range((spec.n_pulses + chunk_size - 1) // chunk_size):
        total = total.merged(simulate_chunk(spec, c, chunk_size))
    return total


def cyclic_split(n_pulses, n_phases):
    """Pulses per phase bin when pulse i goes to bin i mod n_phases."""
    return np.bincount(np.arange(n_pulses) % n_phases, minlength=n_phases)


def make_spec(alpha_sq, n_states, n_pulses, seed, detector=None, phase_schedule=(0.0,), epsilon=0.0):
    det = params.default_detector() if detector is None else detector
    cfg = params.default_amplifier(alpha_sq, n_states)
    ana = AnalysisConfig(
        reference_amplitude=cfg.target_amplitude(0),
        epsilon=epsilon,
        detector=det,
        phase_points=max(8, len(phase_schedule)),
    )
    return RunSpec(
        amplifier=cfg,
        detectors=DetectorBank.uniform(det),
        analysis=ana,
        n_pulses=n_pulses,
        master_seed=seed,
        phase_schedule=phase_schedule,
    )


class TestRunSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_spec(0.5, 2, 0, 1)
        with pytest.raises(ValueError):
            make_spec(0.5, 2, 10, -3)
        with pytest.raises(ValueError):
            make_spec(0.5, 2, 10, 1, phase_schedule=())


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        spec = make_spec(0.5, 4, 200_000, 99)
        a = simulate_run(spec)
        b = simulate_run(spec)
        assert np.array_equal(a.counts, b.counts)

    def test_different_seeds_differ(self):
        a = simulate_run(make_spec(0.5, 4, 100_000, 1))
        b = simulate_run(make_spec(0.5, 4, 100_000, 2))
        assert not np.array_equal(a.counts, b.counts)

    def test_worker_count_does_not_change_result(self):
        spec = make_spec(0.94, 2, 300_000, 4242)
        single = simulate_run(spec, workers=1)
        quad = simulate_run(spec, workers=4)
        assert np.array_equal(single.counts, quad.counts)

    def test_chunked_merge_matches_one_shot(self):
        # the pulse-level oracle: chunk tallies merge to the same table in any order
        spec = make_spec(0.3, 4, 150_000, 7)
        chunk_size = 1 << 14
        total = TallyTable.empty(spec.phase_schedule, spec.amplifier.n_states())
        n_chunks = (spec.n_pulses + chunk_size - 1) // chunk_size
        for c in reversed(range(n_chunks)):
            total = total.merged(simulate_chunk(spec, c, chunk_size))
        one_shot = pulse_oracle(spec, chunk_size)
        assert np.array_equal(total.counts, one_shot.counts)
        assert one_shot.n_pulses == spec.n_pulses

    def test_counts_sum_to_pulses(self):
        spec = make_spec(0.5, 8, 123_457, 3)
        assert simulate_run(spec).n_pulses == 123_457

    def test_billion_pulse_run_is_exact_and_fast(self):
        # the draw costs O(cells), not O(pulses); pulse by pulse this is minutes
        spec = make_spec(0.5, 8, 1_000_000_000, 11, phase_schedule=phase_scan(256))
        started = time.perf_counter()
        tally = simulate_run(spec)
        elapsed = time.perf_counter() - started
        assert tally.n_pulses == 1_000_000_000
        assert np.array_equal(tally.counts.sum(axis=(1, 2, 3)), np.full(256, 3_906_250))
        assert elapsed < 5.0


class TestSamplerAgreement:
    """The per-bin multinomial draw against the pulse-by-pulse oracle."""

    @pytest.mark.parametrize(
        "n_states, alpha_sq, seed, guesses",
        [(2, 0.94, 101, None), (4, 0.5, 202, None), (4, 0.5, 303, (0.4, 0.3, 0.2, 0.1))],
    )
    def test_chi_square_cell_by_cell(self, n_states, alpha_sq, seed, guesses):
        phases = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)
        spec = make_spec(alpha_sq, n_states, 400_000, seed, phase_schedule=phases)
        if guesses is not None:
            spec = replace(spec, amplifier=replace(spec.amplifier, guess_distribution=guesses))
        fast = simulate_run(spec).counts.reshape(len(phases), -1)
        slow = pulse_oracle(spec).counts.reshape(len(phases), -1)
        # two-sample homogeneity test; both tallies have the same per-bin
        # totals, so each bin loses one degree of freedom
        stat = 0.0
        dof = 0
        for a, b in zip(fast, slow):
            expected = 0.5 * (a + b)
            big = expected >= 5.0
            groups = [(int(x), int(y)) for x, y in zip(a[big], b[big])]
            pooled = (int(a[~big].sum()), int(b[~big].sum()))
            if sum(pooled) > 0:
                groups.append(pooled)
            stat += sum((x - y) ** 2 / (x + y) for x, y in groups)
            dof += len(groups) - 1
        assert dof >= 8
        # five standard deviations of a chi-square with dof degrees of freedom
        assert stat < dof + 5.0 * math.sqrt(2.0 * dof), f"chi2 = {stat:.1f} on {dof} dof"

    def test_per_bin_totals_follow_the_cyclic_split(self):
        for n_pulses, n_phases in ((3, 4), (100_001, 4), (1_000, 7), (65_537, 16)):
            phases = tuple(float(j) for j in range(n_phases))
            tally = simulate_run(make_spec(0.5, 2, n_pulses, 9, phase_schedule=phases))
            assert np.array_equal(tally.counts.sum(axis=(1, 2, 3)), cyclic_split(n_pulses, n_phases))
            oracle = pulse_oracle(make_spec(0.5, 2, n_pulses, 9, phase_schedule=phases))
            assert np.array_equal(oracle.counts.sum(axis=(1, 2, 3)), cyclic_split(n_pulses, n_phases))


class TestConditionedProjections:
    def test_synthetic_tally_projection(self):
        # hand-built tally: 2 states, one phase bin, known click patterns
        counts = np.zeros((1, 2, 2, 16), dtype=np.int64)
        # bits: d0=8, d1=4, da=2, db=1
        counts[0, 0, 0, 4 | 2] = 5      # accepted, correct, A fired
        counts[0, 0, 0, 4 | 1] = 3      # accepted, correct, B fired
        counts[0, 0, 0, 4 | 2 | 1] = 2  # accepted, correct, both fired
        counts[0, 0, 1, 4 | 2] = 7      # accepted, wrong, A fired
        counts[0, 0, 0, 8 | 4 | 2] = 11  # d0 fired: excluded by conditioning
        counts[0, 1, 1, 0] = 13          # accepted-correct requires d1: excluded
        t = TallyTable(counts, (0.0,), 2)
        ct = conditioned_counts(t, Conditioning.D0_SILENT_D1_FIRES)
        assert (ct.n_A_sig, ct.n_B_sig, ct.n_A_vac, ct.n_B_vac) == (7.0, 5.0, 7.0, 0.0)
        n_correct, n_wrong = conditioned_class_totals(t, Conditioning.D0_SILENT_D1_FIRES)
        assert (n_correct, n_wrong) == (10, 7)
        # unconditioned totals see every pattern
        none_correct, none_wrong = conditioned_class_totals(t, Conditioning.NONE)
        assert none_correct == 5 + 3 + 2 + 11 + 13
        assert none_wrong == 7

    @given(st.integers(1, 4), st.integers(1, 8), st.sampled_from(list(Conditioning)), st.data())
    def test_projection_equals_per_mask_sums(self, n_phases, n_states, condition, data):
        shape = (n_phases, n_states, n_states, 16)
        counts = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 1 << 40)))
        t = TallyTable(counts, phase_scan(8)[:n_phases], n_states)
        accepted, n_a, n_b = mask_sums(counts, condition)
        correct = np.eye(n_states, dtype=bool)

        def split(x):  # (correct-guess, wrong-guess) totals
            per_pair = x.sum(axis=0)
            return int(per_pair[correct].sum()), int(per_pair[~correct].sum())

        assert conditioned_class_totals(t, condition) == split(accepted)
        (a_sig, a_vac), (b_sig, b_vac) = split(n_a), split(n_b)
        ct = conditioned_counts(t, condition)
        assert (ct.n_A_sig, ct.n_B_sig, ct.n_A_vac, ct.n_B_vac) == (a_sig, b_sig, a_vac, b_vac)
        m_idx, k_idx = np.indices((n_states, n_states))
        offsets = (k_idx - m_idx) % n_states
        assert counts_by_offset(t, condition) == [
            (int(n_a[:, sel].sum()), int(n_b[:, sel].sum()), int(accepted[:, sel].sum()))
            for sel in (offsets == d for d in range(n_states))
        ]
        per_phase = counts.sum(axis=(1, 2, 3)).astype(float)
        if np.any(per_phase == 0):
            with pytest.raises(ValueError, match="empty bins"):
                mc_visibility(t, condition)
        else:
            expected = fringe_visibility((n_a.sum(axis=(1, 2)) / per_phase)[None])[0]
            assert mc_visibility(t, condition) == expected

    def test_condition_accepts_strings(self):
        t = TallyTable.empty((0.0,), 2)
        for name in ("none", "d0_silent", "d0_silent_and_d1_fires"):
            conditioned_counts(t, name)

    def test_ideal_two_state_only_correct_guesses_accepted(self):
        spec = make_spec(0.5, 2, 500_000, 21, detector=IDEAL)
        tally = simulate_run(spec)
        n_correct, n_wrong = conditioned_class_totals(tally, Conditioning.D0_SILENT_D1_FIRES)
        assert n_wrong == 0
        assert n_correct > 0
        ct = conditioned_counts(tally, Conditioning.D0_SILENT_D1_FIRES)
        assert ct.n_A_vac == 0.0 and ct.n_B_vac == 0.0

    def test_dark_device_never_clicks(self):
        spec = make_spec(0.0, 2, 50_000, 17, detector=IDEAL)
        tally = simulate_run(spec)
        assert tally.counts[:, :, :, 1:].sum() == 0
        assert conditioned_class_totals(tally, Conditioning.D0_SILENT_D1_FIRES) == (0, 0)


class TestAgainstAnalyticModel:
    def test_conditioned_rate_at_quoted_operating_point(self):
        spec = make_spec(0.94, 2, 1_000_000, 2024)
        tally = simulate_run(spec)
        accepted = sum(conditioned_class_totals(tally, Conditioning.D0_SILENT_D1_FIRES))
        det = params.default_detector()
        p = figures_of_merit(spec.amplifier, det, det).success_probability
        sigma = math.sqrt(p * (1.0 - p) / spec.n_pulses)
        assert abs(accepted / spec.n_pulses - p) < 5.0 * sigma

    def test_detector_marginals(self):
        spec = make_spec(0.5, 4, 400_000, 31)
        tally = simulate_run(spec)
        marg = detector_marginals(tally)
        det = params.default_detector()
        cfg = spec.amplifier
        table = branch_table(cfg, det, det)
        p0 = p1 = 0.0
        for m in range(4):
            for k in range(4):
                w = table.prior[k] / 4
                p0 += w * click_probability(table.d0_mean[m][k], det)
                p1 += w * click_probability(table.d1_mean[m][k], det)
        for name, p in (("d0", p0), ("d1", p1)):
            sigma = math.sqrt(p * (1.0 - p) / spec.n_pulses)
            assert abs(marg[name] - p) < 5.0 * sigma


class TestEstimatorOracle:
    def test_unconditioned_two_state_pulse_recovery(self):
        # For N = 2 the wrong branch output is exactly vacuum, so the binary
        # attribution is exact at every conditioning level; use none.
        spec = make_spec(0.94, 2, 1_000_000, 555)
        tally = simulate_run(spec)
        counts = conditioned_counts(tally, Conditioning.NONE)
        true_sig, true_vac = conditioned_class_totals(tally, Conditioning.NONE)
        g2a2 = spec.analysis.ref_mean_photons()
        eta_l = spec.analysis.detector.eta_l()
        n_sig, n_vac = estimate_pulse_numbers(counts, g2a2, eta_l, vacuum_denominator="per-port")
        # delta-method errors of the two inversions
        e2 = math.exp(-2.0 * eta_l * g2a2)
        p_a = 1.0 - e2
        var_sig = true_sig * p_a * (1.0 - p_a) / (1.0 - e2) ** 2
        assert abs(n_sig - true_sig) < 5.0 * math.sqrt(var_sig) + 5.0  # + dark-count slack
        p_vac = 1.0 - math.exp(-0.5 * eta_l * g2a2)
        var_vac = 2.0 * true_vac * p_vac * (1.0 - p_vac) / (2.0 * p_vac) ** 2
        assert abs(n_vac - true_vac) < 5.0 * math.sqrt(var_vac) + 5.0

    def test_four_state_class_estimator(self):
        spec = make_spec(0.8, 4, 1_000_000, 808)
        tally = simulate_run(spec)
        records = counts_by_offset(tally, Conditioning.NONE)
        cfg = spec.amplifier
        # output amplitude of offset d in the frame of input 0
        amps = branch_table(cfg, IDEAL, IDEAL).output[0]
        estimated = estimate_class_pulse_numbers(
            [(n_a, n_b) for n_a, n_b, _ in records], amps, spec.analysis
        )
        for est, (n_a, n_b, true_n) in zip(estimated, records):
            # crude but conservative error bound:
            # sigma(N) <= sqrt(n_a + n_b) / (p_a + p_b), and p_a + p_b >= the
            # estimator's own ratio (n_a + n_b)/est
            if n_a + n_b == 0:
                continue
            sigma = math.sqrt(n_a + n_b) * est / (n_a + n_b)
            assert abs(est - true_n) < 5.0 * sigma + 5.0


class TestPhaseSchedules:
    def test_visibility_of_conditioned_ideal_output(self):
        spec = make_spec(0.9, 2, 400_000, 99, detector=IDEAL, phase_schedule=phase_scan(16))
        tally = simulate_run(spec)
        assert mc_visibility(tally, Conditioning.D0_SILENT_D1_FIRES) == pytest.approx(1.0, abs=1e-12)
        assert mc_visibility(tally, Conditioning.NONE) < 0.9

    def test_phase_bins_cycle_evenly(self):
        phases = (0.0, 1.0, 2.0, 3.0)
        spec = make_spec(0.5, 2, 100_000, 9, phase_schedule=phases)
        tally = simulate_run(spec)
        per_bin = tally.counts.sum(axis=(1, 2, 3))
        assert per_bin.sum() == 100_000
        assert per_bin.max() - per_bin.min() <= 1  # cyclic assignment


class TestStandardError:
    def test_degenerate_counts(self):
        assert standard_error(0, 100) == 0.0
        assert standard_error(100, 100) == 0.0

    def test_half_split(self):
        assert standard_error(500, 1000) == pytest.approx(0.015811388300841896, abs=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            standard_error(5, 0)
        with pytest.raises(ValueError):
            standard_error(11, 10)


class TestTallyTable:
    def test_merge_rejects_mismatched_layouts(self):
        a = TallyTable.empty((0.0,), 2)
        b = TallyTable.empty((0.0, 1.0), 2)
        with pytest.raises(ValueError):
            a.merged(b)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TallyTable(np.zeros((1, 2, 3, 16), dtype=np.int64), (0.0,), 2)
