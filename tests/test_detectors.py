import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scamp.analysis import AnalysisConfig, count_probabilities
from scamp.detectors import DetectorModel, click_law, click_probability
from scamp.errors import ConfigError
from scamp import params

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestClickProbability:
    def test_dark_port(self):
        det = DetectorModel(efficiency=0.5)
        assert click_probability(0.0, det) == 0.0

    def test_dark_counts_only(self):
        det = DetectorModel(efficiency=0.5, dark_prob_per_gate=0.1)
        assert click_probability(0.0, det) == pytest.approx(0.1, abs=1e-15)

    def test_methods_efficiency_one_photon(self):
        det = DetectorModel(efficiency=0.405)
        assert click_probability(1.0, det) == pytest.approx(0.3330231891415256, abs=1e-15)

    def test_is_the_written_law(self):
        det = DetectorModel(efficiency=0.405, loss_transmission=0.9, dark_prob_per_gate=1e-4)
        means = [0.0, 1e-9, 0.37, 2.5, 40.0]
        direct = [1.0 - (1.0 - 1e-4) * math.exp(-(0.405 * 0.9) * n) for n in means]
        assert [click_probability(n, det) for n in means] == direct

    @pytest.mark.parametrize("det", [
        DetectorModel(efficiency=0.0),
        DetectorModel(efficiency=0.0, dark_prob_per_gate=0.3),
        DetectorModel(efficiency=0.7, loss_transmission=0.0, dark_prob_per_gate=1e-4),
    ])
    def test_blind_detector_fires_on_dark_counts_alone(self, det):
        # the same bits as the exponential law at every finite mean, and no
        # NaN from 0 * inf at an overflowed one
        dark = 1.0 - (1.0 - det.dark_prob_per_gate) * math.exp(-det.eta_l() * 1.0)
        click = click_law(det)
        assert [click(n) for n in (0.0, 1.0, 1e300, math.inf)] == [dark] * 4

    def test_rejects_negative_mean(self):
        with pytest.raises(ValueError):
            click_probability(-1e-9, DetectorModel.ideal())

    def test_reads_the_mean_as_a_finite_real(self):
        # a NaN mean was read as a NaN probability
        ideal = DetectorModel.ideal()
        for mean in (math.nan, math.inf, True, np.bool_(False), "0.5", None, 1j):
            with pytest.raises(ConfigError, match="^mean_photons must "):
                click_probability(mean, ideal)
        assert click_probability(np.float32(0.5), ideal) == click_probability(0.5, ideal)

    def test_saturates_at_one(self):
        det = DetectorModel(efficiency=0.405, loss_transmission=0.7)
        assert click_probability(1e6, det) == pytest.approx(1.0, abs=1e-12)

    @given(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_loss_lumping_is_equivalent(self, n, eta, loss):
        # attenuating the field then detecting == detecting with eta*l
        lumped = DetectorModel(efficiency=eta * loss)
        split = DetectorModel(efficiency=eta, loss_transmission=loss)
        attenuated = DetectorModel(efficiency=eta)
        p_split = click_probability(n, split)
        assert math.isclose(p_split, click_probability(n, lumped), rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(p_split, click_probability(loss * n, attenuated), rel_tol=1e-12, abs_tol=1e-15)

    def test_monotone_in_everything(self):
        grid = np.linspace(0.0, 3.0, 7)
        base = dict(efficiency=0.4, loss_transmission=0.8, dark_prob_per_gate=0.01)
        p_n = [click_probability(n, DetectorModel(**base)) for n in grid]
        assert all(b >= a for a, b in zip(p_n, p_n[1:]))
        for key in base:
            values = []
            for x in np.linspace(0.05, 0.95, 7):
                values.append(click_probability(1.0, DetectorModel(**{**base, key: x})))
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_reduces_to_analyzer_bright_port_term(self):
        # d = 0, l = 1: identical, term for term, to the analyzer's signal row
        det = DetectorModel(efficiency=0.405)
        ref = complex(math.sqrt(0.9))
        cfg = AnalysisConfig(reference_amplitude=ref, epsilon=0.0, detector=det)
        assert count_probabilities(ref, cfg).p10 == click_probability(2.0 * 0.9, det)


class TestDetectorModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorModel(efficiency=1.2)
        with pytest.raises(ValueError):
            DetectorModel(efficiency=0.5, dark_prob_per_gate=-0.1)

    def test_ideal(self):
        det = DetectorModel.ideal()
        assert det.eta_l() == 1.0 and det.dark_prob_per_gate == 0.0


def test_default_dark_prob_is_post_gating_budget():
    # 296 cps of background, 3% of it surviving gating, per pulse at 1 MHz
    assert params.DARK_PROB_PER_GATE == pytest.approx(8.88e-6, rel=1e-15)
