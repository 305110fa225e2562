import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scamp import params
from scamp.amplifier import StateSet
from scamp.coherent import Mixture, mean_photons, mixture_fidelity, overlap_sq
from scamp.errors import ConfigError

from oracles import beamsplitter

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
amplitudes = st.builds(complex, finite, finite)


class TestCoherentAmplitude:
    """Amplitudes are Python complex numbers; the vacuum is 0j."""

    def test_mean_photon_number(self):
        assert mean_photons(3 + 4j) == 25.0
        assert mean_photons(0j) == 0.0

    def test_from_mean_photons(self):
        a = params.default_amplifier(0.25, 2).input_set.state(0)
        assert a == complex(0.5)
        assert math.isclose(mean_photons(a), 0.25, rel_tol=1e-15)
        with pytest.raises(ValueError, match="alpha_sq must be finite and >= 0"):
            params.default_amplifier(-0.1, 2)

    @given(amplitudes, st.integers(1, 64), st.integers(0, 64))
    def test_rotation_preserves_mean_photons(self, a, n, m):
        rotated = StateSet(a, n).state(m)
        assert math.isclose(mean_photons(rotated), mean_photons(a), rel_tol=1e-12, abs_tol=1e-12)


class TestOverlap:
    def test_identical_states(self):
        assert overlap_sq(0j, 0j) == 1.0
        a = complex(1.3, -0.2)
        assert overlap_sq(a, a) == 1.0

    def test_vacuum_against_unit_amplitude(self):
        assert overlap_sq(0j, complex(1.0)) == pytest.approx(
            0.36787944117144233, abs=1e-15
        )

    def test_vacuum_benchmark_two_fold_gain(self):
        # alpha^2 = 0.25 amplified by g^2 = 2: vacuum still overlaps > 0.6
        target = complex(math.sqrt(2.0 * 0.25))
        f = overlap_sq(0j, target)
        assert f == pytest.approx(0.6065306597126334, abs=1e-15)
        assert f > 0.6

    @given(amplitudes, amplitudes)
    def test_symmetric_and_bounded(self, a, b):
        f = overlap_sq(a, b)
        assert f == overlap_sq(b, a)
        assert 0.0 < f <= 1.0

    @given(amplitudes, amplitudes, st.floats(min_value=-7.0, max_value=7.0, allow_nan=False))
    def test_invariant_under_common_rotation(self, a, b, theta):
        assert math.isclose(
            overlap_sq(a * cmath.exp(1j * theta), b * cmath.exp(1j * theta)),
            overlap_sq(a, b),
            rel_tol=1e-12,
            abs_tol=1e-12,
        )


class TestBeamsplitter:
    def test_even_split_of_single_input(self):
        halves = math.sqrt(0.5)
        retained, monitor = beamsplitter(complex(1.0), 0j, halves, halves)
        assert monitor.real == pytest.approx(halves, abs=1e-15)
        assert retained.real == pytest.approx(halves, abs=1e-15)

    def test_matched_guess_interferes_destructively(self):
        # guess (t/r)*a nulls the monitor port and leaves a/r retained
        t, r = math.sqrt(0.3), math.sqrt(0.7)
        a = complex(0.8, 0.1)
        guess = (t / r) * a
        retained, monitor = beamsplitter(a, guess, t, r)
        assert abs(monitor) < 1e-15
        assert retained == pytest.approx(a / r, abs=1e-12)

    def test_opposite_inputs_at_even_splitter(self):
        # the wrong-guess branch of the two-state set
        halves = math.sqrt(0.5)
        a = complex(0.6)
        retained, monitor = beamsplitter(a, -a, halves, halves)
        assert monitor == pytest.approx(math.sqrt(2.0) * 0.6, abs=1e-12)
        assert abs(retained) < 1e-15

    def test_rejects_non_unitary_pair(self):
        with pytest.raises(ValueError):
            beamsplitter(0j, 0j, 0.9, 0.5)
        with pytest.raises(ValueError):
            beamsplitter(0j, 0j, -0.6, 0.8)

    @given(amplitudes, amplitudes, st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_energy_conservation(self, a, b, t_sq):
        t, r = math.sqrt(t_sq), math.sqrt(1.0 - t_sq)
        retained, monitor = beamsplitter(a, b, t, r)
        before = mean_photons(a) + mean_photons(b)
        after = mean_photons(retained) + mean_photons(monitor)
        assert math.isclose(before, after, rel_tol=1e-12, abs_tol=1e-12)


class TestMixture:
    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            Mixture(())
        with pytest.raises(ValueError):
            Mixture(((-0.1, 0j), (1.1, 0j)))

    def test_reads_weights_and_amplitudes_as_numbers(self):
        # a NaN amplitude was stored, and the scan and the fidelity returned nan;
        # a bool weight was read as 1
        for weight, amplitude in ((1.0, complex(math.nan, 0)), (1.0, complex(0, math.inf)), (True, 0.5),
                                  (np.bool_(True), 0.5), (1.0, True), (1.0, "0.5"), (None, 0.5)):
            with pytest.raises(ConfigError):
                Mixture(((weight, amplitude),))
        with pytest.raises(ConfigError, match="target must be a finite complex number"):
            mixture_fidelity(Mixture.single(0.5), complex(math.nan, 0))
        m = Mixture([(np.float64(0.25), np.complex64(1j)), (Fraction(3, 4), 2)])
        assert m.components == ((0.25, 1j), (0.75, 2 + 0j))
        assert [type(v) for pair in m.components for v in pair] == [float, complex] * 2

    def test_normalization(self):
        assert not Mixture(((2.0, 0j), (2.0, complex(1.0)))).is_normalized()
        m = Mixture(((0.5, 0j), (0.5, complex(1.0))))
        assert m.is_normalized()
        assert m.total_weight() == 1.0

    def test_fidelity_of_pure_target(self):
        target = complex(1.2, 0.3)
        assert mixture_fidelity(Mixture.single(target), target) == 1.0

    def test_fidelity_with_vacuum_admixture(self):
        # 0.9 on the target (g^2 alpha^2 = 0.9) plus 0.1 vacuum
        target = complex(math.sqrt(0.9))
        m = Mixture(((0.9, target), (0.1, 0j)))
        assert mixture_fidelity(m, target) == pytest.approx(0.9406569659740599, abs=1e-15)

    def test_fidelity_of_opposite_phase_pair(self):
        target = complex(math.sqrt(0.9))
        m = Mixture(((0.5, target), (0.5, -target)))
        # |g a - (-g a)|^2 = 4 g^2 a^2 = 3.6
        assert mixture_fidelity(m, target) == pytest.approx(0.5136618612236463, abs=1e-14)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            mixture_fidelity(Mixture(((0.7, 0j),)), 0j)

    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        amplitudes,
        amplitudes,
        amplitudes,
    )
    def test_affine_in_weights(self, lam, a1, a2, target):
        m1 = Mixture.single(a1)
        m2 = Mixture.single(a2)
        blended = Mixture(((lam, a1), (1.0 - lam, a2)))
        expected = lam * mixture_fidelity(m1, target) + (1.0 - lam) * mixture_fidelity(m2, target)
        assert math.isclose(mixture_fidelity(blended, target), expected, rel_tol=1e-12, abs_tol=1e-12)
