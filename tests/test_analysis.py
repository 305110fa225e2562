import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from scamp.analysis import (
    DEFAULT_VACUUM_DENOMINATOR,
    VACUUM_DENOMINATORS,
    VACUUM_OVERLAPS,
    AnalysisConfig,
    CountTable,
    _class_pulse_numbers,
    _unit_scan,
    count_probabilities,
    estimate_class_pulse_numbers,
    estimate_fidelity,
    estimate_pulse_numbers,
    expected_counts,
    port_click,
    visibilities,
    visibility,
)
from scamp.amplifier import Conditioning, StateSet, output_mixture, turn
from scamp.coherent import Mixture, mixture_fidelity
from scamp.detectors import DetectorModel, click_probability
from scamp.errors import ConfigError, InsufficientSignalError, InvalidEpsilonError
from scamp import params


def analyzer(g2a2, eta=0.405, loss=1.0, epsilon=0.0, phase_points=256, dark=0.0):
    return AnalysisConfig(
        reference_amplitude=complex(math.sqrt(g2a2)),
        epsilon=epsilon,
        detector=DetectorModel(efficiency=eta, loss_transmission=loss, dark_prob_per_gate=dark),
        phase_points=phase_points,
    )


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            analyzer(0.9, epsilon=1.0)
        with pytest.raises(ValueError):
            analyzer(0.9, phase_points=4)

    @pytest.mark.parametrize("phase_points", [8.5, True, 65537])
    def test_phase_points_is_checked_as_the_sweep_checks_it(self, phase_points):
        # 8.5 failed inside visibility with a TypeError, and no count was too large
        with pytest.raises(ValueError, match="phase_points must"):
            analyzer(0.9, phase_points=phase_points)


class TestCountProbabilities:
    def test_signal_row_without_imperfection(self):
        cfg = analyzer(0.9)  # eta*l*g2a2 = 0.3645, doubled exponent 0.729
        p = count_probabilities(cfg.reference_amplitude, cfg)
        assert p.p10 == pytest.approx(0.517608859884874, abs=1e-15)
        assert p.p01 == 0.0 and p.p11 == 0.0
        assert p.p00 == pytest.approx(1.0 - p.p10, abs=1e-15)

    def test_signal_row_imperfection_marginals(self):
        cfg = analyzer(0.9, epsilon=0.05)
        p = count_probabilities(cfg.reference_amplitude, cfg)
        e2 = math.exp(-2 * 0.405 * 0.9)
        assert p.p10 == pytest.approx(1.0 - e2 - 0.05, abs=1e-15)
        assert p.p01 == pytest.approx(0.05 * e2, abs=1e-15)
        assert p.p11 == pytest.approx(0.05 * (1.0 - e2), abs=1e-15)
        # B-click marginal is exactly epsilon
        assert p.p01 + p.p11 == pytest.approx(0.05, abs=1e-15)

    def test_vacuum_row(self):
        cfg = analyzer(1.8)  # eta*l*g2a2 = 0.729, per-port exponent 0.3645
        p = count_probabilities(0j, cfg)
        expected = 0.2121526958773375
        assert p.p10 == pytest.approx(expected, abs=1e-15)
        assert p.p01 == pytest.approx(expected, abs=1e-15)
        half = 1.0 - math.exp(-0.3645)
        assert p.p11 == pytest.approx(half * half, abs=1e-15)

    def test_vacuum_marginals_include_dark_counts(self):
        cfg = analyzer(1.8, dark=0.02)
        p = count_probabilities(0j, cfg)
        expected = click_probability(cfg.ref_mean_photons() / 2.0, cfg.detector)
        assert p.p10 + p.p11 == pytest.approx(expected, abs=1e-15)
        assert p.p01 + p.p11 == pytest.approx(expected, abs=1e-15)
        assert expected > 0.02 + 1e-3 > click_probability(0.0, cfg.detector)

    def test_rows_are_probability_tables(self):
        cfg = analyzer(1.3, epsilon=0.08)
        for out in (cfg.reference_amplitude, 0j, complex(0.4, 0.2)):
            p = count_probabilities(out, cfg)
            for value in (p.p10, p.p01, p.p11, p.p00):
                assert 0.0 <= value <= 1.0
            assert p.p10 + p.p01 + p.p11 + p.p00 == pytest.approx(1.0, abs=1e-14)

    def test_degenerate_reference(self):
        cfg = analyzer(0.0, epsilon=0.0)
        p = count_probabilities(0j, cfg)
        assert (p.p10, p.p01, p.p11, p.p00) == (0.0, 0.0, 0.0, 1.0)
        with pytest.raises(InvalidEpsilonError):
            count_probabilities(0j, analyzer(0.0, epsilon=0.01))

    def test_epsilon_too_large_flagged(self):
        with pytest.raises(InvalidEpsilonError):
            count_probabilities(analyzer(0.01, epsilon=0.5).reference_amplitude, analyzer(0.01, epsilon=0.5))


class TestPortClick:
    def test_ports_follow_the_click_law(self):
        # bit for bit against 1 - (1 - d)*exp(-eta*l*(|field|^2/2)), written out
        rng = np.random.default_rng(3)
        scales = 10.0 ** rng.uniform(-8, 1.5, size=64)
        outs = scales * np.exp(2j * np.pi * rng.random(64))
        refs = np.array([1.0, -0.5j, 0.0, 0.3 + 0.4j, 1e-160, 7.0 - 2.0j])
        cases = [
            (outs, refs[3]),                   # array against a scalar
            (outs[:, None], refs[None, :]),    # broadcast to (64, 6)
            (outs.reshape(1, 8, 8), refs[:, None, None]),
            (0.3 + 0.4j, 1.0 - 0.5j),          # Python complex scalars
            (complex(outs[5]), refs),
        ]
        for det in (
            DetectorModel(efficiency=0.6, loss_transmission=0.9, dark_prob_per_gate=0.01),
            DetectorModel(efficiency=0.405, loss_transmission=0.965),
            DetectorModel.ideal(),
        ):
            keep, eta_l = 1.0 - det.dark_prob_per_gate, det.eta_l()
            for out, ref in cases:
                for port, field in (("A", out + ref), ("B", out - ref)):
                    expected = 1.0 - keep * np.exp(-eta_l * (0.5 * np.abs(field) ** 2))
                    got = port_click(out, ref, det, port)
                    assert np.shape(got) == np.shape(expected)
                    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
        with pytest.raises(ValueError, match="port"):
            port_click(0.3 + 0.4j, refs, det, "a")


def dense_scan_curve(m, cfg):
    """The port-A curve of the visibility scan written out in full: a fresh grid
    of the state set's turns, one pass."""
    # named, so numpy cannot reuse a large temporary in place as unit * reference:
    # its complex multiply is not bit-commutative, and the program multiplies
    # reference * unit
    unit = np.array([turn(j, cfg.phase_points) for j in range(cfg.phase_points)])
    z_ref = cfg.reference_amplitude * unit
    p_a = np.zeros(cfg.phase_points)
    eta_l = cfg.detector.eta_l()
    dark = cfg.detector.dark_prob_per_gate
    for w, a in m.components:
        n_a = 0.5 * np.abs(a + z_ref) ** 2
        p_a += w * (1.0 - (1.0 - dark) * np.exp(-eta_l * n_a))
    return p_a


def dense_scan_visibility(m, cfg):
    p_a = dense_scan_curve(m, cfg)
    hi, lo = float(p_a.max()), float(p_a.min())
    return 0.0 if hi <= 0.0 else (hi - lo) / (hi + lo)


class TestScanGrid:
    @pytest.mark.parametrize("phase_points", [8, 9, 12, 64, 255, 256, 4096])
    def test_grid_is_the_state_set_turns(self, phase_points):
        scan = _unit_scan(phase_points)
        members = [StateSet(1.0, phase_points).state(j) for j in range(phase_points)]
        assert scan.tobytes() == np.array(members).tobytes()
        grid = scan.tolist()
        assert grid[0] == 1.0
        for j in range(1, phase_points):
            assert grid[phase_points - j] == grid[j].conjugate()
        if phase_points % 2 == 0:
            half = phase_points // 2
            assert grid[half] == -1.0
            assert all(grid[j + half] == -grid[j] for j in range(half))
        if phase_points % 4 == 0:
            quarter = phase_points // 4
            assert grid[quarter] == 1j
            assert all(grid[j + quarter] == 1j * grid[j] for j in range(3 * quarter))

    def test_large_grid_keeps_the_cached_member_turns(self):
        # the grid is built without turn's cache, so a 65536-point build evicts no member turn
        turn(3, 8)
        before = turn.cache_info()
        _unit_scan.__wrapped__(65536)
        assert turn.cache_info() == before
        turn(3, 8)
        after = turn.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


class TestVisibility:
    def test_shared_scan_is_bit_identical_to_dense_scan(self):
        # (points, components, phase_points): a block's points each have their
        # own components and reference, and each range's reduction must add a
        # point's components in list order.  Blocks of whole points: 8 x 2 x 256,
        # 4 x 4 x 256 and 2 x 8 x 256 (2^12 cells each), 3 x 5 x 9.  One point
        # cut into phase ranges: 17 x 65536 takes 35 near-equal ranges, 17 x
        # 8193 five and 17 x 16385 nine.  Cut at full width (2^15 cells), 17 x
        # 1928, 129 x 255 and 256 x 257 would each leave a one-phase tail, which
        # a reduction sums pairwise.  At 40000 x 9 no two-phase range fits in
        # 2^15 cells, so the range count is capped at phase_points // 2.  3 x 17
        # x 8193 cuts a block of several points into 13 ranges.  Each reference
        # is turned so that the point's first curve peaks on the last grid phase.
        cases = [(1, 5, 256), (2, 5, 9), (8, 2, 256), (4, 4, 256), (2, 8, 256), (3, 5, 9), (5, 5, 64),
                 (1, 1, 256), (1, 17, 65536), (1, 256, 256), (1, 256, 1024), *[(1, 17, 8193)] * 6,
                 *[(1, 17, 16385)] * 6, (1, 17, 1928), (1, 129, 255), (1, 256, 257), (1, 40000, 9),
                 (3, 17, 8193)]
        rng = np.random.default_rng(17)
        for points, k, phase_points in cases:
            detector = DetectorModel(efficiency=0.405, dark_prob_per_gate=1e-3)
            amplitudes, weight_sets, references, expected = [], [], [], []
            for _ in range(points):
                cfg = analyzer(float(rng.uniform(0.1, 2.0)), phase_points=phase_points, dark=1e-3)
                point_amplitudes = [complex(*rng.normal(size=2)) for _ in range(k)]
                point_weights = []
                for _ in range(3):
                    raw = rng.uniform(size=k) * (rng.uniform(size=k) > 0.3)
                    raw[0] = 0.5
                    point_weights.append([float(w) for w in raw / raw.sum()])
                assert k < 5 or any(0.0 in ws for ws in point_weights)
                mixtures = [Mixture(tuple(zip(ws, point_amplitudes))) for ws in point_weights]
                peak = int(np.argmax(dense_scan_curve(mixtures[0], cfg)))
                rotation = cmath.exp(2j * math.pi * (peak + 1) / phase_points)
                cfg = replace(cfg, reference_amplitude=cfg.reference_amplitude * rotation)
                assert cfg.detector == detector
                assert np.argmax(dense_scan_curve(mixtures[0], cfg)) == phase_points - 1
                for m in mixtures:
                    value = dense_scan_visibility(m, cfg)
                    assert value == visibility(m, cfg)
                    expected.append(value)
                amplitudes.append(point_amplitudes)
                weight_sets.append(point_weights)
                references.append(cfg.reference_amplitude)
            block = visibilities(amplitudes, weight_sets, references, detector, phase_points)
            assert block == expected

    def test_pure_matched_output(self):
        cfg = analyzer(0.9, eta=1.0)
        assert visibility(Mixture.single(cfg.reference_amplitude), cfg) == 1.0

    def test_half_turn_nulls_a_bright_reference(self):
        # an even grid reads phase pi as exactly -1, so no field is left at the
        # null of a reference of 1e32 photons
        cfg = analyzer(1e32, eta=1.0)
        assert visibility(Mixture.single(cfg.reference_amplitude), cfg) == 1.0

    def test_vacuum_output_is_phase_blind(self):
        cfg = analyzer(0.9)
        assert visibility(Mixture.single(0j), cfg) == pytest.approx(0.0, abs=1e-12)

    def test_dark_device_returns_zero(self):
        cfg = analyzer(0.0)
        assert visibility(Mixture.single(0j), cfg) == 0.0

    def test_ideal_conditioned_two_state_output(self):
        ideal = DetectorModel.ideal()
        for alpha_sq in (0.05, 0.4, 1.0):
            cfg = params.default_amplifier(alpha_sq, 2)
            m = output_mixture(cfg, ideal, ideal, 0, Conditioning.D0_SILENT_D1_FIRES)
            ana = AnalysisConfig(reference_amplitude=cfg.target_amplitude(0), detector=ideal)
            assert visibility(m, ana) == pytest.approx(1.0, abs=1e-12)

    def test_nonincreasing_in_vacuum_weight(self):
        cfg = analyzer(0.9)
        values = []
        for w_vac in np.linspace(0.0, 0.9, 10):
            m = Mixture(((1.0 - w_vac, cfg.reference_amplitude), (w_vac, 0j)))
            values.append(visibility(m, cfg))
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_invariant_under_common_rotation(self):
        ref = complex(math.sqrt(0.9))
        m = Mixture(((0.8, ref), (0.2, 0.3 * ref)))
        base = visibility(m, analyzer(0.9))
        theta = 1.234
        m_rot = Mixture(tuple((w, a * cmath.exp(1j * theta)) for w, a in m.components))
        cfg_rot = AnalysisConfig(
            reference_amplitude=ref * cmath.exp(1j * theta),
            detector=DetectorModel(efficiency=0.405),
        )
        assert visibility(m_rot, cfg_rot) == pytest.approx(base, abs=1e-9)

    def test_requires_normalized_mixture(self):
        with pytest.raises(ValueError):
            visibility(Mixture(((0.5, 0j),)), analyzer(0.9))


class TestPulseNumberEstimation:
    def test_algebraic_round_trip_at_published_point(self):
        counts = expected_counts(900.0, 100.0, g2a2=0.9, eta_l=0.405, epsilon=0.05)
        n_sig, n_vac = estimate_pulse_numbers(counts, g2a2=0.9, eta_l=0.405)
        assert n_sig == pytest.approx(900.0, abs=1e-9)
        assert n_vac == pytest.approx(100.0, abs=1e-9)

    @pytest.mark.parametrize("vacuum_denominator", ["doubled", "per-port"])
    def test_round_trip_over_validity_region(self, vacuum_denominator):
        for x in (0.01, 0.05, 0.5, 2.0, 5.0):  # x = eta_l * g2a2
            eps_cap = min(0.2, 0.999 * math.expm1(2.0 * x))
            for eps in (0.0, 0.5 * eps_cap, eps_cap):
                counts = expected_counts(
                    1234.5, 678.9, g2a2=x, eta_l=1.0, epsilon=eps,
                    vacuum_denominator=vacuum_denominator,
                )
                n_sig, n_vac = estimate_pulse_numbers(
                    counts, g2a2=x, eta_l=1.0, vacuum_denominator=vacuum_denominator
                )
                assert n_sig == pytest.approx(1234.5, rel=1e-9)
                assert n_vac == pytest.approx(678.9, rel=1e-9)

    def test_imperfection_cancels_in_signal_estimate(self):
        for eps in (0.0, 0.03, 0.1, 0.2):
            counts = expected_counts(5000.0, 0.0, g2a2=1.0, eta_l=0.4, epsilon=eps)
            n_sig, _ = estimate_pulse_numbers(counts, g2a2=1.0, eta_l=0.4)
            assert n_sig == pytest.approx(5000.0, rel=1e-12)

    def test_forward_rejects_oversized_imperfection(self):
        with pytest.raises(InvalidEpsilonError):
            expected_counts(100.0, 0.0, g2a2=0.01, eta_l=1.0, epsilon=0.2)

    def test_conventions_disagree_on_vacuum(self):
        counts = CountTable(0.0, 0.0, 100.0, 100.0)
        _, n_doubled = estimate_pulse_numbers(counts, g2a2=0.9, eta_l=0.405, vacuum_denominator="doubled")
        _, n_perport = estimate_pulse_numbers(counts, g2a2=0.9, eta_l=0.405, vacuum_denominator="per-port")
        assert n_perport > n_doubled  # per-port click probability is smaller

    def test_zero_vacuum_counts(self):
        counts = expected_counts(900.0, 0.0, g2a2=0.9, eta_l=0.405)
        _, n_vac = estimate_pulse_numbers(counts, g2a2=0.9, eta_l=0.405)
        assert n_vac == 0.0

    def test_insufficient_signal_guard(self):
        counts = CountTable(10.0, 0.0, 0.0, 0.0)
        with pytest.raises(InsufficientSignalError):
            estimate_pulse_numbers(counts, g2a2=1e-13, eta_l=1.0)

    @pytest.mark.parametrize("convention", ["half", "Doubled", None, ["doubled"]])
    def test_rejects_unknown_convention(self, convention):
        counts = CountTable(1.0, 1.0, 1.0, 1.0)
        message = r"vacuum_denominator must be one of \('doubled', 'per-port'\), got "
        with pytest.raises(ConfigError, match=message):
            estimate_pulse_numbers(counts, 0.9, 0.405, vacuum_denominator=convention)
        with pytest.raises(ConfigError, match=message):
            expected_counts(1.0, 1.0, 0.9, 0.405, vacuum_denominator=convention)

    @pytest.mark.parametrize("g2a2, eta_l", [(0.9, 0.405), (1.69, 0.39), (3.7, 0.3908)])
    def test_table_factors_round_as_the_written_exponents(self, g2a2, eta_l):
        # each table factor multiplies eta_l first, as the written exponent did
        counts = CountTable(0.0, 0.0, 1.0, 0.0)
        for convention, exponent in (("doubled", -2.0 * eta_l * g2a2), ("per-port", -0.5 * eta_l * g2a2)):
            _, n_vac = estimate_pulse_numbers(counts, g2a2, eta_l, vacuum_denominator=convention)
            assert n_vac == 1.0 / (2.0 * (1.0 - math.exp(exponent)))
        assert VACUUM_DENOMINATORS == {"doubled": -2.0, "per-port": -0.5}
        assert DEFAULT_VACUUM_DENOMINATOR in VACUUM_DENOMINATORS


class TestFidelityEstimate:
    def test_pure_signal(self):
        assert estimate_fidelity(1000.0, 0.0, g2a2=0.9) == 1.0

    def test_doubled_exponent_convention(self):
        f = estimate_fidelity(900.0, 100.0, g2a2=0.9, vacuum_overlap="doubled")
        assert f == pytest.approx(0.9165298888221587, abs=1e-15)

    def test_standard_convention(self):
        f = estimate_fidelity(900.0, 100.0, g2a2=0.9, vacuum_overlap="standard")
        assert f == pytest.approx(0.9406569659740599, abs=1e-15)

    def test_matches_mixture_fidelity_of_reconstruction(self):
        ref = complex(math.sqrt(0.9))
        m = Mixture(((0.9, ref), (0.1, 0j)))
        assert estimate_fidelity(900.0, 100.0, g2a2=0.9) == pytest.approx(
            mixture_fidelity(m, ref), abs=1e-14
        )

    def test_insufficient_signal(self):
        with pytest.raises(InsufficientSignalError):
            estimate_fidelity(0.0, 0.0, g2a2=0.9)

    def test_rejects_unknown_convention(self):
        with pytest.raises(ConfigError, match=r"vacuum_overlap must be one of \('standard', 'doubled'\)"):
            estimate_fidelity(1.0, 1.0, 0.9, vacuum_overlap="squared")

    @pytest.mark.parametrize("g2a2", [0.04, 0.9, 1.69, 7.3])
    def test_table_factors_round_as_the_written_exponents(self, g2a2):
        # -1.0 * g2a2 is exactly -g2a2, so the standard overlap is exp(-g2a2) bit for bit
        assert VACUUM_OVERLAPS == {"standard": -1.0, "doubled": -2.0}
        for convention, overlap in (("standard", math.exp(-g2a2)), ("doubled", math.exp(-2.0 * g2a2))):
            assert estimate_fidelity(0.0, 1.0, g2a2, vacuum_overlap=convention) == overlap


class TestClassPulseEstimator:
    @staticmethod
    def recover(dark):
        # four known output amplitudes, counts generated from the click law
        cfg = analyzer(0.9, eta=0.39, dark=dark)
        ref = cfg.reference_amplitude
        amps = [ref, 0.5 * ref, ref * cmath.exp(1j * math.pi / 2), 0j]
        true_numbers = [4000.0, 300.0, 20.0, 700.0]
        counts = []
        for n_j, amp in zip(true_numbers, amps):
            p_a = 1.0 - (1.0 - dark) * math.exp(-0.39 * 0.5 * abs(amp + ref) ** 2)
            p_b = 1.0 - (1.0 - dark) * math.exp(-0.39 * 0.5 * abs(amp - ref) ** 2)
            counts.append((n_j * p_a, n_j * p_b))
        clicks = [
            (float(port_click(amp, ref, cfg.detector, "A")), float(port_click(amp, ref, cfg.detector, "B")))
            for amp in amps
        ]
        estimated = estimate_class_pulse_numbers(counts, clicks)
        assert estimated == pytest.approx(true_numbers, rel=1e-12)

    def test_recovers_synthetic_class_counts(self):
        self.recover(dark=0.0)

    def test_recovers_class_counts_with_dark_counts(self):
        self.recover(dark=0.02)

    def test_rejects_unobservable_class(self):
        with pytest.raises(InsufficientSignalError):
            estimate_class_pulse_numbers([(1.0, 1.0)], [(0.0, 0.0)])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigError, match="must have equal length"):
            estimate_class_pulse_numbers([(1.0, 1.0)], [])

    @pytest.mark.parametrize("counts, clicks, message", [
        ([(math.nan, 1.0), (-5.0, 1.0)], [(0.5, 0.5)] * 2, r"n_A must lie in \[0, 2\^53\], got nan"),
        ([(1.0, -5.0)], [(0.5, 0.5)], r"n_B must lie in \[0, 2\^53\], got -5.0"),
        ([(1.0, 2**53 + 1)], [(0.5, 0.5)], r"n_B must lie in \[0, 2\^53\]"),
        ([("3", 1.0)], [(0.5, 0.5)], "n_A must be a real number, got '3'"),
        ([(1.0, True)], [(0.5, 0.5)], "n_B must be a real number, got True"),
        ([(1.0, 1.0)], [(5.0, 0.5)], r"p_A must lie in \[0, 1\], got 5.0"),
        ([(1.0, 1.0)], [(0.5, math.nan)], r"p_B must lie in \[0, 1\], got nan"),
        ([(1.0, 1.0)], [(0.5, "0.5")], "p_B must be a real number"),
    ])
    def test_rejects_bad_counts_and_probabilities(self, counts, clicks, message):
        with pytest.raises(ConfigError, match=message):
            estimate_class_pulse_numbers(counts, clicks)

    def test_checked_estimate_equals_the_kernel(self):
        counts, clicks = [(900, 10), (40.5, 40)], [(0.75, 0.01), (0.2, 0.25)]
        assert estimate_class_pulse_numbers(counts, clicks) == _class_pulse_numbers(counts, clicks)
        assert estimate_class_pulse_numbers(counts, clicks) == [910 / 0.76, 80.5 / 0.45]
