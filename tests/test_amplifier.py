import cmath
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scamp.amplifier import (
    AmplifierConfig,
    Conditioning,
    StateSet,
    _branch_row,
    branch_table,
    figures_of_merit,
    output_mixture,
    success_rate,
)
from scamp.analysis import visibility
from scamp.coherent import mean_photons, mixture_fidelity
from scamp.detectors import DetectorBank, DetectorModel
from scamp.errors import ConfigError, NeverHeraldedError
from scamp.sweep import SweepSpec, run_sweep
from scamp import params

import oracles
from oracles import beamsplitter, click_probabilities

IDEAL = DetectorModel.ideal()


def make_config(alpha_sq, n_states, r1_sq=0.5, t2_sq=0.9):
    return AmplifierConfig(r1_sq, t2_sq, StateSet(complex(math.sqrt(alpha_sq)), n_states))


# ---------------------------------------------------------------------------
# independent oracle: raw complex arithmetic over all N^2 (input, guess) pairs


def oracle_figures(n, alpha_sq, r1_sq, t2_sq, det0, det1, conditioning):
    r1, t1 = math.sqrt(r1_sq), math.sqrt(1.0 - r1_sq)
    t2, r2 = math.sqrt(t2_sq), math.sqrt(1.0 - t2_sq)
    alpha = math.sqrt(alpha_sq)

    def click(nbar, det):
        return 1.0 - (1.0 - det.dark_prob_per_gate) * math.exp(
            -det.efficiency * det.loss_transmission * nbar
        )

    fid_sum = frac_sum = succ_sum = 0.0
    for m in range(n):
        z_in = alpha * cmath.exp(2j * math.pi * m / n)
        target = (t2 / r1) * z_in
        weights, overlaps = [], []
        for k in range(n):
            z_guess = (t1 / r1) * alpha * cmath.exp(2j * math.pi * k / n)
            z_d0 = t1 * z_in - r1 * z_guess
            z_ret = r1 * z_in + t1 * z_guess
            w = 1.0 / n
            if conditioning in (Conditioning.D0_SILENT, Conditioning.D0_SILENT_D1_FIRES):
                w *= 1.0 - click(abs(z_d0) ** 2, det0)
            if conditioning is Conditioning.D0_SILENT_D1_FIRES:
                w *= click(abs(r2 * z_ret) ** 2, det1)
            weights.append(w)
            overlaps.append(math.exp(-abs(t2 * z_ret - target) ** 2))
        total = sum(weights)
        fid_sum += sum(w * o for w, o in zip(weights, overlaps)) / total
        frac_sum += weights[m] / total
        succ_sum += total
    return fid_sum / n, frac_sum / n, succ_sum / n


class TestGainLaw:
    def test_published_operating_point(self):
        cfg = make_config(0.5, 2)
        assert abs(cfg.nominal_gain() ** 2 - 1.8) < 1e-12

    def test_unit_gain_device(self):
        cfg = make_config(0.5, 2, r1_sq=0.5, t2_sq=0.5)
        assert cfg.nominal_gain() == pytest.approx(1.0, abs=1e-15)

    def test_low_reflectivity_boosts_gain(self):
        cfg = make_config(0.5, 2, r1_sq=0.2, t2_sq=0.9)
        assert cfg.nominal_gain() ** 2 == pytest.approx(4.5, abs=1e-12)


class TestStateSet:
    def test_exact_periodicity(self):
        s = StateSet(complex(0.7, 0.3), 8)
        for m in range(8):
            assert s.state(m + 8) == s.state(m)

    def test_turns_are_exact(self):
        # half and quarter turns are swaps and negations, bit for bit, for any
        # base amplitude; the mirror image is the conjugate for a real one
        for n in range(1, 257):
            real, tilted = StateSet(complex(math.sqrt(0.37)), n), StateSet(complex(0.7, 0.3), n)
            for m in range(n):
                for s in (real, tilted):
                    z = s.state(m)
                    if n % 2 == 0:
                        assert s.state(m + n // 2) == -z
                    if n % 4 == 0:
                        assert s.state(m + n // 4) == complex(-z.imag, z.real)
                assert real.state(n - m) == real.state(m).conjugate()

    def test_members_are_the_exact_rotations_to_an_ulp(self):
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(40):
            for n in range(1, 257):
                unit = StateSet(1.0, n)
                for m in range(n):
                    exact = mpmath.expjpi(mpmath.mpf(2 * m) / n)
                    worst = max(worst, float(abs(mpmath.mpc(unit.state(m)) - exact)))
        # 2.08e-16 at N = 203, m = 129; a base amplitude adds the rounding of one product
        assert worst <= 2.2e-16

    def test_half_turn_cancels_the_target_at_any_gain(self):
        # gain t2/r1 = 6.6e64: member 4 of 8 is exactly -alpha; a half turn off
        # in its last bit would leave 2.77e6j of this branch output plus the target
        cfg = make_config(1.16e-85, 8, r1_sq=2.27e-130, t2_sq=1.0)
        table = branch_table(cfg, params.default_detector(), params.default_detector())
        assert table.output[4] + table.target == 0j

    def test_members_share_mean_photon_number(self):
        s = StateSet(complex(math.sqrt(0.37)), 8)
        for m in range(8):
            assert mean_photons(s.state(m)) == pytest.approx(0.37, rel=1e-12)

    def test_rejects_empty_set(self):
        with pytest.raises(ValueError):
            StateSet(0j, 0)

    def test_rejects_nan_amplitude(self):
        with pytest.raises(ValueError):
            StateSet(complex(math.nan), 2)

    def test_rejects_infinite_amplitude(self):
        with pytest.raises(ValueError):
            StateSet(complex(math.inf), 2)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "r1_sq, t2_sq",
        [
            pytest.param(math.nan, 0.9, id="R=nan"),
            pytest.param(0.0, 0.9, id="R=0"),
            pytest.param(1.0, 0.9, id="R=1"),
            pytest.param(0.5, math.nan, id="T=nan"),
            pytest.param(0.5, 0.0, id="T=0"),
            pytest.param(0.5, 1.5, id="T=1.5"),
        ],
    )
    def test_rejects_bad_intensities(self, r1_sq, t2_sq):
        with pytest.raises(ValueError, match="must lie in"):
            AmplifierConfig(r1_sq, t2_sq, StateSet(complex(1.0), 2))


open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
detector_models = st.builds(
    DetectorModel,
    efficiency=st.floats(0.0, 1.0),
    loss_transmission=st.floats(0.0, 1.0),
    dark_prob_per_gate=st.floats(0.0, 0.1),
)


@st.composite
def devices(draw):
    """N states on any circle, any splitters and unlike D0/D1 detectors with
    dark counts."""
    n = draw(st.integers(1, 9))
    return {
        "n": n,
        "alpha_sq": draw(st.floats(0.0, 4.0)),
        "phase": draw(st.floats(0.0, 2.0 * math.pi)),
        "r1_sq": draw(open_unit),
        "t2_sq": draw(open_unit),
        "det0": draw(detector_models),
        "det1": draw(detector_models),
    }


class TestOnePassTable:
    """The one-pass row against the N-row build it replaced (``oracles``)."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(devices())
    def test_equals_row_list_build(self, d):
        alpha = cmath.rect(math.sqrt(d["alpha_sq"]), d["phase"])
        cfg = AmplifierConfig(d["r1_sq"], d["t2_sq"], StateSet(alpha, d["n"]))
        det0, det1 = d["det0"], d["det1"]
        oracle = oracles.branch_table(cfg, det0, det1)
        # repr is exact for floats, tells 0.0 from -0.0 and shows a NaN
        assert repr(branch_table(cfg, det0, det1)) == repr(oracle.row(0))
        # every input's row, as output_mixture builds it
        for m in range(d["n"]):
            row = _branch_row(cfg, det0, det1, m)
            assert repr(row) == repr(oracle.row(m))
            assert repr(row.d0_click) == repr(click_probabilities(row.d0_mean, det0))
            assert repr(row.d1_click) == repr(click_probabilities(row.d1_mean, det1))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(devices())
    def test_figures_are_the_n_row_averages(self, d):
        # every input row is a rotation of row 0, so row 0's figures are the
        # averages over the N rows, up to the rounding of each row's members.  The
        # click law 1 - (1 - d)*exp(-x) also rounds each weight q*(1 - p0)*p1 by
        # about q*2^-53 absolute, so a figure of total weight P moves by up to
        # about 2^-52/P relative where D1 rarely fires
        alpha = cmath.rect(math.sqrt(d["alpha_sq"]), d["phase"])
        cfg = AmplifierConfig(d["r1_sq"], d["t2_sq"], StateSet(alpha, d["n"]))
        det0, det1 = d["det0"], d["det1"]
        table = branch_table(cfg, det0, det1)
        oracle = oracles.branch_table(cfg, det0, det1)
        for cond in Conditioning:
            if not math.fsum(oracle.weights[cond][0]) > 0.0:
                with pytest.raises(NeverHeraldedError, match="no branch of input 0"):
                    table.accepted(cond)
                assert table.success_probability(cond) == 0.0
                continue
            fom = table.figures(*table.accepted(cond))
            assert table.success_probability(cond) == fom.success_probability
            expected = oracle.figures(cond)
            rel = 4e-15 + 2.0**-52 / fom.success_probability
            for name in ("fidelity", "correct_state_fraction", "success_probability"):
                assert getattr(fom, name) == pytest.approx(getattr(expected, name), rel=rel, abs=0.0), name

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(devices())
    @example({"n": 2, "alpha_sq": 1.0, "phase": 0.0, "r1_sq": 1e-310,
              "t2_sq": 0.9, "det0": IDEAL, "det1": IDEAL})
    def test_sweep_visibilities_are_the_output_mixtures(self, d):
        analyzer = params.default_detector()
        fields = dict(
            alpha_sq_grid=(d["alpha_sq"],),
            n_states_list=(d["n"],),
            comparison_reflectivity=d["r1_sq"],
            subtraction_transmission=d["t2_sq"],
            detectors=DetectorBank(d["det0"], d["det1"], analyzer, analyzer),
            epsilon=0.0,
        )
        # a sweep refuses a device whose analyzer intensity bound 4*(t2^2/r1^2)*alpha^2,
        # doubled for rounding, overflows (r1^2 below about 1e-300)
        if d["alpha_sq"] > 0.0 and (
            math.log(8.0) + math.log(d["t2_sq"]) + math.log(d["alpha_sq"]) - math.log(d["r1_sq"])
            > math.log(sys.float_info.max)
        ):
            with pytest.raises(ConfigError, match="overflows"):
                SweepSpec(**fields)
            return
        spec = SweepSpec(**fields)
        cfg = params.default_amplifier(d["alpha_sq"], d["n"], d["r1_sq"], d["t2_sq"])
        analysis_cfg = params.default_analysis(
            cfg, detector=analyzer, epsilon=0.0, phase_points=spec.phase_points
        )
        try:
            mixtures = [output_mixture(cfg, d["det0"], d["det1"], 0, cond) for cond in Conditioning]
        except NeverHeraldedError:
            with pytest.raises(NeverHeraldedError):
                run_sweep(spec)
            return
        expected = [visibility(mixture, analysis_cfg) for mixture in mixtures]
        row = run_sweep(spec).rows[0]
        columns = ("visibility_unconditioned", "visibility_d0_silent", "visibility_conditioned")
        assert repr([row[c] for c in columns]) == repr(expected)


class TestEnumerateBranches:
    """The (input, guess) branches as the branch table lays them out."""

    def test_correct_guess_two_states(self):
        cfg = make_config(0.5, 2)
        table = branch_table(cfg, IDEAL, IDEAL)
        assert table.d0_mean[0] == 0.0
        assert table.output[0] == cfg.target_amplitude(0)
        assert table.overlap[0] == 1.0
        # retained carries both pulses: r2^2 * 2 alpha^2 at the tap
        assert table.d1_mean[0] == pytest.approx(0.1 * 2 * 0.5, rel=1e-12)

    def test_wrong_guess_two_states(self):
        table = branch_table(make_config(0.5, 2), IDEAL, IDEAL)
        assert table.d0_mean[1] == pytest.approx(2 * 0.5, rel=1e-12)
        assert abs(table.output[1]) < 1e-15

    def test_neighbor_guess_four_states(self):
        table = branch_table(make_config(0.5, 4), IDEAL, IDEAL)
        assert table.d0_mean[1] == pytest.approx(0.5, rel=1e-12)
        assert mean_photons(table.output[1]) == pytest.approx(0.9 * 0.5, rel=1e-12)

    def test_correct_branch_exact_for_uneven_splitter(self):
        # the destructive-interference null and the gain law must be exact, at every input
        cfg = make_config(0.37, 4, r1_sq=0.21)
        for m in range(4):
            row = _branch_row(cfg, IDEAL, IDEAL, m)
            assert row.d0_mean[m] == 0.0
            assert row.output[m] == cfg.target_amplitude(m)
            assert row.target == cfg.target_amplitude(m)
            assert row.overlap[m] == 1.0

    def test_branch_count_and_priors(self):
        cfg = make_config(0.5, 8)
        table = branch_table(cfg, IDEAL, IDEAL)
        assert table.target == cfg.target_amplitude(0)
        for field in (table.output, table.overlap, table.d0_mean, table.d1_mean, table.d0_click,
                      table.d1_click):
            assert len(field) == 8
        for cond in Conditioning:
            assert len(table.weights[cond]) == 8
        assert table.weights[Conditioning.NONE] == [0.125] * 8

    def test_rejects_out_of_range_input(self):
        # an index outside [0, N - 1] was an IndexError; a ConfigError is a ValueError
        with pytest.raises(ConfigError, match=r"input_index must lie in \[0, 1\], got 2"):
            output_mixture(make_config(0.5, 2), IDEAL, IDEAL, 2)

    def test_branch_amplitudes_match_beamsplitter_op(self):
        cfg = make_config(0.41, 4, r1_sq=0.33)
        r1, t1, t2, r2 = oracles.splitter_amplitudes(cfg)
        for m in range(4):
            row = _branch_row(cfg, IDEAL, IDEAL, m)
            for k in range(4):
                retained, monitor = beamsplitter(
                    cfg.input_set.state(m), (t1 / r1) * cfg.input_set.state(k), t1, r1
                )
                assert row.d0_mean[k] == pytest.approx(mean_photons(monitor), abs=1e-12)
                assert row.d1_mean[k] == pytest.approx(mean_photons(r2 * retained), abs=1e-12)
                assert row.output[k] == pytest.approx(t2 * retained, abs=1e-12)


class TestAcceptanceWeight:
    """Per-branch acceptance weights of the table at each conditioning level."""

    def test_ideal_correct_branch(self):
        table = branch_table(make_config(0.5, 2), IDEAL, IDEAL)
        w = table.weights[Conditioning.D0_SILENT_D1_FIRES][0]
        assert w == pytest.approx(0.04758129098202024, abs=1e-15)

    def test_ideal_wrong_branch_is_dead(self):
        table = branch_table(make_config(0.5, 2), IDEAL, IDEAL)
        assert table.weights[Conditioning.D0_SILENT_D1_FIRES][1] == 0.0

    def test_dark_counts_resurrect_the_dead_branch(self):
        eta, dark = 0.405, 1e-3
        det0 = DetectorModel(efficiency=eta)
        det1 = DetectorModel(efficiency=eta, dark_prob_per_gate=dark)
        table = branch_table(make_config(0.5, 2), det0, det1)
        w = table.weights[Conditioning.D0_SILENT_D1_FIRES][1]
        assert w == pytest.approx(0.5 * math.exp(-eta * 1.0) * dark, rel=1e-12)

    def test_conditioning_levels(self):
        table = branch_table(make_config(0.5, 2), IDEAL, IDEAL)
        assert table.weights[Conditioning.NONE][1] == 0.5
        expected = 0.5 * math.exp(-1.0)
        assert table.weights[Conditioning.D0_SILENT][1] == pytest.approx(expected, rel=1e-12)

    def test_nan_acceptance_total_is_never_heralded(self):
        table = branch_table(make_config(0.5, 2), IDEAL, IDEAL)
        weights = {**table.weights, Conditioning.D0_SILENT_D1_FIRES: [0.1, math.nan]}
        with pytest.raises(NeverHeraldedError, match="no branch of input 0"):
            replace(table, weights=weights).accepted()


class TestOutputMixture:
    def test_ideal_two_state_single_component(self):
        cfg = make_config(0.5, 2)
        m = output_mixture(cfg, IDEAL, IDEAL, 0)
        assert m.components == ((1.0, cfg.target_amplitude(0)),)

    def test_never_heralded(self):
        cfg = make_config(0.0, 2)
        with pytest.raises(NeverHeraldedError):
            output_mixture(cfg, IDEAL, IDEAL, 0)

    def test_vacuum_input_with_dark_counts(self):
        cfg = make_config(0.0, 4)
        det = DetectorModel(efficiency=0.405, dark_prob_per_gate=1e-4)
        m = output_mixture(cfg, det, det, 0)
        assert all(mean_photons(a) == 0.0 for a in m.amplitudes())
        assert mixture_fidelity(m, cfg.target_amplitude(0)) == 1.0

    @pytest.mark.parametrize("n", [2, 5, 64])
    def test_is_row_of_branch_table(self, n):
        det0 = DetectorModel(efficiency=0.405, loss_transmission=0.8, dark_prob_per_gate=1e-5)
        det1 = DetectorModel(efficiency=0.31, loss_transmission=0.9, dark_prob_per_gate=3e-6)
        cfg = AmplifierConfig(0.3, 0.9, StateSet(complex(math.sqrt(0.6)), n))
        oracle = oracles.branch_table(cfg, det0, det1)
        assert repr(branch_table(cfg, det0, det1)) == repr(oracle.row(0))
        for cond in Conditioning:
            for m in range(n):
                row = oracle.row(m)
                _, weights = row.accepted(cond)
                expected = tuple((w, z) for w, z in zip(weights, row.output) if w > 0.0)
                # repr is exact for floats and also tells 0.0 from -0.0
                mixture = output_mixture(cfg, det0, det1, m, cond)
                assert repr(mixture.components) == repr(expected)

    def test_four_state_mixture_against_brute_force(self):
        cfg = make_config(0.5, 4)
        m = output_mixture(cfg, IDEAL, IDEAL, 0)
        # oracle: exhaustive enumeration with raw complex arithmetic
        alpha, h = math.sqrt(0.5), math.sqrt(0.5)
        t2, r2 = math.sqrt(0.9), math.sqrt(0.1)
        raw = []
        for k in range(4):
            z_guess = alpha * cmath.exp(2j * math.pi * k / 4)
            z_d0 = h * (alpha - z_guess)
            z_ret = h * alpha + h * z_guess
            w = 0.25 * math.exp(-abs(z_d0) ** 2) * (1.0 - math.exp(-abs(r2 * z_ret) ** 2))
            raw.append((w, t2 * z_ret))
        total = sum(w for w, _ in raw)
        expected = [(w / total, z) for w, z in raw if w > 0.0]
        assert len(m.components) == len(expected) == 3  # opposite guess is dead
        for (w, a), (we, ze) in zip(m.components, expected):
            assert w == pytest.approx(we, rel=1e-12)
            assert a == pytest.approx(ze, rel=1e-12)
        assert m.components[0][0] > 0.5  # dominated by the amplified target


class TestFiguresOfMerit:
    def test_ideal_two_state_cleaning_is_exact(self):
        for alpha_sq in (0.05, 0.3, 1.0):
            fom = figures_of_merit(make_config(alpha_sq, 2), IDEAL, IDEAL)
            assert fom.fidelity == 1.0
            assert fom.correct_state_fraction == 1.0

    def test_unconditioned_fraction_is_prior(self):
        det = params.default_detector()
        for n, expected in ((2, 0.5), (4, 0.25), (8, 0.125)):
            fom = figures_of_merit(make_config(0.5, n), det, det, Conditioning.NONE)
            assert fom.correct_state_fraction == expected

    def test_realistic_four_state_fidelity(self):
        det = params.default_detector()
        fom = figures_of_merit(make_config(0.5, 4), det, det)
        assert fom.fidelity > 0.8

    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("alpha_sq", [0.07, 0.5, 1.3])
    @pytest.mark.parametrize("r1_sq", [0.5, 0.3])
    def test_brute_force_equivalence(self, n, alpha_sq, r1_sq):
        det0 = DetectorModel(efficiency=0.405, loss_transmission=0.8, dark_prob_per_gate=1e-5)
        det1 = DetectorModel(efficiency=0.31, loss_transmission=0.9, dark_prob_per_gate=3e-6)
        cfg = make_config(alpha_sq, n, r1_sq=r1_sq)
        for cond in Conditioning:
            fom = figures_of_merit(cfg, det0, det1, cond)
            fid, frac, succ = oracle_figures(n, alpha_sq, r1_sq, 0.9, det0, det1, cond)
            assert fom.fidelity == pytest.approx(fid, abs=1e-12)
            assert fom.correct_state_fraction == pytest.approx(frac, abs=1e-12)
            assert fom.success_probability == pytest.approx(succ, abs=1e-12)

    def test_phase_covariance(self):
        det = params.default_detector()
        rng = np.random.default_rng(11)
        for n in (2, 4, 8):
            base = figures_of_merit(make_config(0.4, n), det, det)
            for theta in rng.uniform(0.0, 2.0 * math.pi, size=4):
                alpha = cmath.rect(math.sqrt(0.4), theta)
                cfg = AmplifierConfig(0.5, 0.9, StateSet(alpha, n))
                rot = figures_of_merit(cfg, det, det)
                assert rot.fidelity == pytest.approx(base.fidelity, abs=1e-12)
                assert rot.correct_state_fraction == pytest.approx(
                    base.correct_state_fraction, abs=1e-12
                )
                assert rot.success_probability == pytest.approx(
                    base.success_probability, abs=1e-12
                )

    def test_fraction_never_below_prior(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.choice([2, 4, 8]))
            cfg = make_config(float(rng.uniform(0.01, 2.5)), n)
            det0 = DetectorModel(0.405, float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.0, 1e-3)))
            det1 = DetectorModel(0.405, float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.0, 1e-3)))
            cond = rng.choice(list(Conditioning))
            fom = figures_of_merit(cfg, det0, det1, cond)
            assert fom.correct_state_fraction >= 1.0 / n - 1e-12

    def test_monotone_cleaning(self):
        det = params.default_detector()
        for n in (2, 4, 8):
            for alpha_sq in params.FIG3_ALPHA_SQ_GRID:
                cfg = make_config(alpha_sq, n)
                f_none = figures_of_merit(cfg, det, det, Conditioning.NONE).fidelity
                f_d0 = figures_of_merit(cfg, det, det, Conditioning.D0_SILENT).fidelity
                f_full = figures_of_merit(cfg, det, det).fidelity
                assert f_full >= f_d0 - 1e-15
                assert f_d0 >= f_none - 1e-15


class TestSuccessRate:
    def test_scales_with_prf(self):
        det = params.default_detector()
        cfg = make_config(0.94, 2)
        p = branch_table(cfg, det, det).success_probability()
        assert success_rate(cfg, det, det, 1e6) == pytest.approx(p * 1e6, rel=1e-15)

    def test_quoted_rate_arithmetic(self):
        # probability 0.026 at 1 MHz is 26k accepted pulses per second
        assert 0.026 * 1e6 == 26_000.0

    def test_success_probability_is_the_figures_of_merit_value(self):
        # both read one fsum of input 0's weights; a plain running sum differs in the last bit
        det = params.default_detector()
        for n in (2, 3, 4, 5, 8, 16, 33):
            for alpha_sq in np.linspace(0.05, 2.9, 40):
                cfg = params.default_amplifier(float(alpha_sq), n)
                table = branch_table(cfg, det, det)
                for cond in Conditioning:
                    fom = figures_of_merit(cfg, det, det, cond)
                    assert table.success_probability(cond) == fom.success_probability

    def test_dead_device_rate_is_zero(self):
        cfg = make_config(0.0, 2)
        assert success_rate(cfg, IDEAL, IDEAL, 1e6) == 0.0

    def test_ideal_loss_upper_bound(self):
        det = DetectorModel(efficiency=0.405)
        cfg = make_config(0.94, 2)
        rate = success_rate(cfg, det, det, 1e6)
        assert rate == pytest.approx(36656.76931358058, rel=1e-12)

    def test_rejects_bad_prf(self):
        with pytest.raises(ValueError):
            success_rate(make_config(0.5, 2), IDEAL, IDEAL, 0.0)
