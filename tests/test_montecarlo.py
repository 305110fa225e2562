import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from scamp.amplifier import Conditioning, branch_table, figures_of_merit
from scamp.analysis import (
    AnalysisConfig,
    estimate_class_pulse_numbers,
    estimate_pulse_numbers,
    fringe_visibility,
    port_click,
)
from scamp.detectors import DetectorModel
from scamp.montecarlo import (
    DEFAULT_CHUNK_SIZE,
    DetectorBank,
    RunSpec,
    TallyTable,
    _PROJECTION,
    _bin_draw,
    _cell_probabilities,
    _class_projection,
    _offset_fidelity,
    branch_tables,
    conditioned_class_totals,
    conditioned_counts,
    mc_visibility,
    phase_scan,
    simulate_chunk,
    simulate_run,
    standard_error,
)
from scamp import params
from scamp.errors import ConfigError
from scamp.sweep import SweepSpec, run_sweep

import oracles

IDEAL = DetectorModel.ideal()


def mask_sums(counts, condition):
    """Accepted pulses, and accepted with DA / DB fired, per (phase bin, guess offset),
    summed over boolean pattern masks (bits: D0 = 8, D1 = 4, DA = 2, DB = 1)."""
    pattern = np.arange(16)
    d0, d1, da, db = ((pattern & bit) != 0 for bit in (8, 4, 2, 1))
    accepted = {
        Conditioning.NONE: np.ones(16, dtype=bool),
        Conditioning.D0_SILENT: ~d0,
        Conditioning.D0_SILENT_D1_FIRES: ~d0 & d1,
    }[condition]
    return tuple(counts[..., sel].sum(axis=2) for sel in (accepted, accepted & da, accepted & db))


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
        # a non-finite phase would reach the draw as NaN cell probabilities
        for phase in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"phase_schedule entry must be finite, got {phase}"):
                make_spec(0.5, 2, 10, 1, phase_schedule=(0.0, phase))

    def test_pulse_count_is_bounded_by_the_draws_int64(self):
        # numpy's multinomial takes an int64 count: 2^63 would fail inside the draw
        for n_pulses in (1 << 63, 1 << 64):
            with pytest.raises(ValueError, match=r"n_pulses must lie in \[1, 2\^63 - 1\]"):
                make_spec(0.5, 4, n_pulses, 1)
        for n_pulses in (1 << 60, (1 << 63) - 1):
            assert simulate_run(make_spec(0.5, 4, n_pulses, 1)).n_pulses == n_pulses

    def test_pulse_count_and_seed_must_be_integers(self):
        # a fractional count was rounded up by the draw, and a fractional seed failed inside numpy
        for field, value in (("n_pulses", 2.5), ("n_pulses", 1000.7), ("n_pulses", True),
                             ("master_seed", 1.5), ("master_seed", False), ("master_seed", "7")):
            fields = {"n_pulses": 10, "master_seed": 1, field: value}
            with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
                make_spec(0.5, 2, fields["n_pulses"], fields["master_seed"])
        spec = make_spec(0.5, 2, np.int64(10), np.uint64(7))
        assert type(spec.n_pulses) is int and type(spec.master_seed) is int
        assert simulate_run(spec).n_pulses == 10

    def test_phase_schedule_is_a_tuple_of_floats(self):
        # a list schedule made the spec unhashable, and its tally unmergeable with a tuple layout
        spec = make_spec(0.5, 2, 100, 1, phase_schedule=[0, np.float32(1.0)])
        assert spec.phase_schedule == (0.0, 1.0)
        assert all(type(phase) is float for phase in spec.phase_schedule)
        hash(spec)
        tally = simulate_run(spec)
        assert tally.phases == (0.0, 1.0)
        assert TallyTable.empty((0.0, 1.0), 2).merged(tally).n_pulses == 100

    def test_phase_must_be_a_real_number(self):
        for phase in ("a", 1j, None, True):
            with pytest.raises(ValueError, match=f"phase_schedule entry must be a real number, got {phase!r}"):
                make_spec(0.5, 2, 10, 1, phase_schedule=(0.0, phase))
        make_spec(0.5, 2, 10, 1, phase_schedule=(0, np.float32(0.5), np.float64(1.0)))


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

    def test_chunk_arguments_are_validated(self):
        spec = make_spec(0.5, 2, 100, 1)
        for chunk_index, chunk_size, name in ((0, 0, "chunk_size"), (0, -5, "chunk_size"),
                                              (-1, 100, "chunk_index")):
            with pytest.raises(ValueError, match=name):
                simulate_chunk(spec, chunk_index, chunk_size)
        # a chunk past the last pulse is empty, so a caller may round the chunk count up
        assert simulate_chunk(spec, 1, 100).n_pulses == 0

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
        assert np.array_equal(tally.counts.sum(axis=(1, 2)), np.full(256, 3_906_250))
        assert elapsed < 5.0


class TestSamplerAgreement:
    """The per-bin multinomial draw against the pulse-by-pulse oracle, which
    draws (input, guess) per pulse and tallies it at its guess offset."""

    # stable ids: their trailing None is the guess prior, which is uniform
    @pytest.mark.parametrize(
        "n_states, alpha_sq, seed",
        [pytest.param(2, 0.94, 101, id="2-0.94-101-None"), pytest.param(4, 0.5, 202, id="4-0.5-202-None")],
    )
    def test_chi_square_cell_by_cell(self, n_states, alpha_sq, seed):
        phases = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)
        spec = make_spec(alpha_sq, n_states, 400_000, seed, phase_schedule=phases)
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
            assert np.array_equal(tally.counts.sum(axis=(1, 2)), cyclic_split(n_pulses, n_phases))
            oracle = pulse_oracle(make_spec(0.5, 2, n_pulses, 9, phase_schedule=phases))
            assert np.array_equal(oracle.counts.sum(axis=(1, 2)), cyclic_split(n_pulses, n_phases))


class TestConditionedProjections:
    def test_synthetic_tally_projection(self):
        # hand-built tally: 2 states, one phase bin, known click patterns
        counts = np.zeros((1, 2, 16), dtype=np.int64)
        # bits: d0=8, d1=4, da=2, db=1; offset 0 is the correct guess
        counts[0, 0, 4 | 2] = 5      # accepted, correct, A fired
        counts[0, 0, 4 | 1] = 3      # accepted, correct, B fired
        counts[0, 0, 4 | 2 | 1] = 2  # accepted, correct, both fired
        counts[0, 1, 4 | 2] = 7      # accepted, wrong, A fired
        counts[0, 0, 8 | 4 | 2] = 11  # d0 fired: excluded by conditioning
        counts[0, 0, 0] = 13          # accepted-correct requires d1: excluded
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
        shape = (n_phases, n_states, 16)
        counts = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 1 << 40)))
        t = TallyTable(counts, phase_scan(8)[:n_phases], n_states)
        accepted, n_a, n_b = mask_sums(counts, condition)

        def split(x):  # (correct-guess, wrong-guess) totals: offset 0 against the rest
            per_offset = x.sum(axis=0)
            return int(per_offset[0]), int(per_offset[1:].sum())

        assert conditioned_class_totals(t, condition) == split(accepted)
        (a_sig, a_vac), (b_sig, b_vac) = split(n_a), split(n_b)
        ct = conditioned_counts(t, condition)
        assert (ct.n_A_sig, ct.n_B_sig, ct.n_A_vac, ct.n_B_vac) == (a_sig, b_sig, a_vac, b_vac)
        assert oracles.counts_by_offset(t, condition) == [
            (int(n_a[..., d].sum()), int(n_b[..., d].sum()), int(accepted[..., d].sum()))
            for d in range(n_states)
        ]
        per_phase = counts.sum(axis=(1, 2)).astype(float)
        if np.any(per_phase == 0):
            with pytest.raises(ValueError, match="empty bins"):
                mc_visibility(t, condition)
        else:
            expected = fringe_visibility((n_a.sum(axis=1) / per_phase)[None])[0]
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
        assert tally.counts[:, :, 1:].sum() == 0
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


sweep_intensities = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
seeing_detectors = st.builds(
    DetectorModel,
    efficiency=st.floats(0.0, 1.0),
    loss_transmission=st.floats(0.0, 1.0),
    dark_prob_per_gate=st.floats(1e-6, 0.1),
)


def sweep_point(n, r1_sq, t2_sq, alpha_sq, dets):
    """(config, branch table, run) of one sweep point with detectors ``dets``
    (D0, D1, DA, DB); a point the sweep refuses is skipped."""
    try:
        spec = SweepSpec((alpha_sq,), (n,), "both", r1_sq, t2_sq, DetectorBank(*dets), epsilon=0.0)
    except ConfigError:
        # past the analyzer's overflow bound, which the sweep refuses
        assume(False)
    cfg = params.default_amplifier(alpha_sq, n, r1_sq, t2_sq)
    analysis = params.default_analysis(cfg, detector=dets[2], epsilon=0.0)
    table = branch_table(cfg, dets[0], dets[1])
    return cfg, table, RunSpec(cfg, spec.detectors, analysis, n_pulses=10**6, master_seed=0)


class TestRowSeed:
    def test_a_rows_mc_seed_reproduces_its_draw(self):
        # a sweep point's draw is the one-bin simulate_run tally of its mc_seed
        spec = SweepSpec((0.5, 0.94, 1.3, 2.7), (2, 3, 4, 8), "both", n_pulses=200_003)
        for row in run_sweep(spec).rows:
            cfg = params.default_amplifier(row["alpha_sq"], row["n_states"], spec.comparison_reflectivity,
                                           spec.subtraction_transmission)
            run = RunSpec(cfg, spec.detectors, params.default_analysis(cfg, detector=spec.detectors.da),
                          spec.n_pulses, master_seed=row["mc_seed"])
            correct, wrong = conditioned_class_totals(simulate_run(run), Conditioning.D0_SILENT_D1_FIRES)
            accepted = correct + wrong
            # k/n is exact to the count for any count below 2^53, so equal quotients are equal counts
            assert accepted / spec.n_pulses == row["mc_success_probability"]
            assert correct / accepted == row["mc_correct_state_fraction"]
            assert round(row["mc_success_probability"] * spec.n_pulses) == accepted


sweep_points = dict(
    n=st.integers(1, 9),
    r1_sq=sweep_intensities,
    t2_sq=st.one_of(sweep_intensities, st.just(1.0)),
    alpha_sq=st.floats(0.0, 4.0),
    dets=st.tuples(*[seeing_detectors] * 4),
)


class TestExpectedTally:
    """The mean tally of a run against the analytic model, exactly (``oracles.expected_tally``)."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(**sweep_points)
    def test_projects_onto_the_analytic_columns(self, n, r1_sq, t2_sq, alpha_sq, dets):
        cfg, table, run = sweep_point(n, r1_sq, t2_sq, alpha_sq, dets)
        (n_correct, n_wrong), counts = _class_projection(
            oracles.expected_tally(run), Conditioning.D0_SILENT_D1_FIRES
        )
        p_success, weights = table.accepted()
        fom = table.figures(p_success, weights)
        assert (n_correct + n_wrong) / run.n_pulses == pytest.approx(p_success, rel=1e-12)
        assert n_correct / (n_correct + n_wrong) == pytest.approx(fom.correct_state_fraction, rel=1e-12)
        # every input's correct class is input 0's, whose output is the reference bit
        # for bit: port B sees no field, and DB fires on its dark counts alone
        target = cfg.target_amplitude(0)
        a_rate = float(port_click(target, target, dets[2], "A"))
        assert counts.n_A_sig / n_correct == pytest.approx(a_rate, rel=1e-12)
        dark = float(port_click(target, target, dets[3], "B"))
        assert counts.n_B_sig / n_correct == pytest.approx(dark, rel=1e-12)
        # the sweep's estimator on its exact mean per-offset counts is the analytic fidelity
        by_offset, clicks = oracles.expected_offset_draw(run, Conditioning.D0_SILENT_D1_FIRES)
        fidelity, _ = _offset_fidelity(table, by_offset, clicks)
        assert fidelity == pytest.approx(fom.fidelity, rel=1e-12)


def resolvable(fields, delta: float, det: DetectorModel, scale: float) -> bool:
    """Whether the click probability p of ``det`` at mean photon number
    scale*|f|^2, and 1 - p, each move by at most 1e-13 of themselves when a
    field f moves by ``delta``."""
    magnitude = np.abs(np.asarray(fields))
    lo, hi = (1.0 - (1.0 - det.dark_prob_per_gate) * np.exp(-det.eta_l() * scale * np.maximum(magnitude + s, 0.0) ** 2)
              for s in (-delta, delta))
    return bool(np.all(hi - lo <= 1e-13 * np.minimum(lo, 1.0 - hi)))


scan_phases = st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=3).map(tuple)


def per_bin_draw(seed, n_pulses, cells):
    """One multinomial call per phase bin over ``cells`` (P, ...), in bin order,
    from one stream seeded by ``seed``, pulse i falling in bin i mod P."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    n_phases = len(cells)
    per_bin = [n_pulses // n_phases + (j < n_pulses % n_phases) for j in range(n_phases)]
    return np.reshape([rng.multinomial(k, p.ravel()) for k, p in zip(per_bin, cells)], cells.shape)


class TestCellLawOracle:
    """The one bin draw against the earlier 7-axis build over all N*N (input,
    guess) pairs (``oracles.cell_probabilities``): its factors, cell law and
    draw bit for bit against the oracle's input-0 row, and its cells against
    the oracle's full cells, with references rotated by the input, summed by
    guess offset up to the rounding of those references."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(**sweep_points, phases=scan_phases, data=st.data())
    def test_cells_equal_the_oracle_bit_for_bit(self, n, r1_sq, t2_sq, alpha_sq, dets, phases, data):
        cfg, table, run = sweep_point(n, r1_sq, t2_sq, alpha_sq, dets)
        row0 = oracles.input0(oracles.branch_table(cfg, dets[0], dets[1]))
        # a run at P scan phases: layout, products and per-bin sums as the oracle's row 0
        full = replace(run, phase_schedule=phases)
        factors = branch_tables(full)
        old_factors = oracles.click_factors(full, row0)
        # the oracle's one input row is its axis 1 of D0/D1 and axis 2 of DA/DB
        assert np.array_equal(factors[0], old_factors[0][:, 0])
        assert np.array_equal(factors[1], old_factors[1][:, :, 0])
        # the cell law of one bin's (4, N, 2) factors, bin by bin
        cells = _cell_probabilities(np.concatenate([factors[0], factors[1][:, 0]]))
        assert cells.shape == (n, 16) and cells.flags.c_contiguous
        expected = oracles.cell_probabilities(full, row0, old_factors)[:, 0]
        assert np.array_equal(oracles.program_cells(full), expected)
        # and the run's draw is the one seeded multinomial per bin over them
        seed, pulses = data.draw(st.integers(0, 2**64 - 1)), data.draw(st.integers(1, 10**9))
        drawn = simulate_run(replace(full, n_pulses=pulses, master_seed=seed)).counts
        assert np.array_equal(drawn, per_bin_draw(seed, pulses, expected))
        # the sweep point's draw goes through the same function, in one bin
        # against the target, and reads its (p_A, p_B) rows from those factors
        old_factors = oracles.click_factors(run, row0)
        rng = np.random.Generator(np.random.PCG64(seed))
        counts, point_factors = _bin_draw(table, run.detectors, table.target, pulses, rng)
        old_cells = oracles.cell_probabilities(run, row0, old_factors)[:, 0]
        assert np.array_equal(counts, per_bin_draw(seed, pulses, old_cells)[0])
        assert np.array_equal(point_factors, np.concatenate([old_factors[0][:, 0], old_factors[1][:, 0, 0]]))

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(**sweep_points, phases=scan_phases)
    def test_cells_are_the_full_cells_summed_by_offset(self, n, r1_sq, t2_sq, alpha_sq, dets, phases):
        cfg, table, run = sweep_point(n, r1_sq, t2_sq, alpha_sq, dets)
        full = replace(run, phase_schedule=phases)
        cells = oracles.program_cells(full)
        assert cells.shape == (len(phases), n, 16)
        all_pairs = oracles.cell_probabilities(full, oracles.branch_table(cfg, dets[0], dets[1]))
        m, d = np.arange(n)[:, None], np.arange(n)
        # [m, d] picks input m's guess (m + d) mod N, so the sum over m groups by offset
        by_offset = all_pairs[:, m, (m + d) % n].sum(axis=1)
        # the oracle's input m rounds its members and its rotated reference on its
        # own, so each field is known to a few ulps of the device's largest
        # amplitude, |alpha|/r1 at D0/D1 and |target| at DA/DB.  Where that moves a
        # fired factor p or a silent factor 1 - p by more than 1e-13 of it (a large
        # gain t2/r1, or a near-cancelling field), the oracle is that much less exact
        target = cfg.target_amplitude(0)
        delta = 2.0**-50 * abs(target) / oracles.splitter_amplitudes(cfg)[2]
        refs = target * np.exp(1j * np.asarray(phases))[:, None]
        out = np.array(table.output)
        if (resolvable(np.sqrt(table.d0_mean), delta, dets[0], 1.0)
                and resolvable(np.sqrt(table.d1_mean), delta, dets[1], 1.0)
                and resolvable(out + refs, 2.0**-50 * abs(target), dets[2], 0.5)
                and resolvable(out - refs, 2.0**-50 * abs(target), dets[3], 0.5)):
            np.testing.assert_allclose(cells, by_offset, rtol=1e-12, atol=0.0)


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
        records = oracles.counts_by_offset(tally, Conditioning.NONE)
        cfg, ana = spec.amplifier, spec.analysis
        # output amplitude of offset d in the frame of input 0
        amps = branch_table(cfg, IDEAL, IDEAL).output
        clicks = [
            (float(port_click(z, ana.reference_amplitude, spec.detectors.da, "A")),
             float(port_click(z, ana.reference_amplitude, spec.detectors.db, "B")))
            for z in amps
        ]
        estimated = estimate_class_pulse_numbers([(n_a, n_b) for n_a, n_b, _ in records], clicks)
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
        per_bin = tally.counts.sum(axis=(1, 2))
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
        with pytest.raises(ConfigError, match="cannot merge tallies with different layouts"):
            a.merged(b)

    @pytest.mark.parametrize("count", [math.nan, -3, -0.5, math.inf, -math.inf])
    def test_refuses_counts_that_are_not_finite_and_non_negative(self, count):
        # NaN counts made mc_visibility nan, and -3 counts gave n_pulses -192
        counts = np.ones((1, 2, 16), dtype=type(count))
        counts[0, 1, 5] = count
        with pytest.raises(ConfigError, match="tally counts must be finite and >= 0"):
            TallyTable(counts, (0.0,), 2)

    @pytest.mark.parametrize("counts", [np.full((1, 2, 16), "1"), np.ones((1, 2, 16), dtype=bool),
                                        np.ones((1, 2, 16), dtype=complex), [[[1] * 16] * 2]])
    def test_refuses_counts_that_are_not_a_real_array(self, counts):
        # a string array ended in numpy's UFuncTypeError and a list in an AttributeError
        with pytest.raises(ConfigError, match="tally counts must be a numpy array of integers or floats"):
            TallyTable(counts, (0.0,), 2)

    def test_keeps_fractional_counts(self):
        # the exact mean tally (tests/oracles.expected_tally) is fractional
        tally = TallyTable(np.full((1, 2, 16), 0.25), (0.0,), 2)
        assert tally.n_pulses == 8

    def test_phases_are_a_tuple_of_floats(self):
        # a list of phases, or an integer phase, once made a layout no equal tally merged with
        tally = TallyTable(np.ones((2, 2, 16), dtype=np.int64), [0.0, 1], 2)
        assert tally.phases == (0.0, 1.0) and [type(p) for p in tally.phases] == [float, float]
        assert tally.merged(TallyTable.empty((0.0, 1.0), 2)).n_pulses == 64
        one = TallyTable(np.zeros((1, 2, 16), dtype=np.int64), [0.0], 2)
        assert one.merged(TallyTable.empty((0.0,), 2)).phases == (0.0,)

    def test_shape_validation(self):
        with pytest.raises(ConfigError, match="counts shape"):
            TallyTable(np.zeros((1, 1, 3, 16), dtype=np.int64), (0.0,), 2)
        # an (input, guess) layout is not a tally, which is indexed by guess offset
        with pytest.raises(ConfigError, match="counts shape"):
            TallyTable(np.zeros((1, 2, 2, 16), dtype=np.int64), (0.0,), 2)
        # nor is the (input 0, guess offset) layout with its size-1 input axis
        with pytest.raises(ConfigError, match="counts shape"):
            TallyTable(np.zeros((1, 1, 2, 16), dtype=np.int64), (0.0,), 2)
        assert TallyTable(np.zeros((1, 2, 16), dtype=np.int64), (0.0,), 2).counts.ndim == 3

    def test_tally_holds_n_times_16_cells_per_phase_bin(self):
        # by guess offset: 131 072 B here, where an (input, guess) tally held 8 388 608 B
        tally = simulate_run(make_spec(0.5, 64, 1_000, 5, phase_schedule=phase_scan(16)))
        assert tally.counts.shape == (16, 64, 16)
        assert tally.counts.nbytes == 16 * 64 * 16 * 8
