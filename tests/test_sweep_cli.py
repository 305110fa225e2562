import csv
import json
import math
import os
import re
import subprocess
import struct
import sys
import tracemalloc
import weakref
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import scamp.cli as cli
from scamp.analysis import (
    DEFAULT_VACUUM_DENOMINATOR,
    VACUUM_DENOMINATORS,
    CountTable,
    scan_block_points,
    visibility,
)
from scamp.coherent import mixture_fidelity
from scamp.errors import ConfigError, InsufficientSignalError, NeverHeraldedError
from scamp.montecarlo import (
    DetectorBank,
    RunSpec,
    conditioned_class_totals,
    conditioned_counts,
    simulate_run,
)
from scamp.amplifier import Conditioning, branch_table, output_mixture
from scamp.detectors import DetectorModel
from scamp.sweep import (
    BASE_COLUMNS,
    FIGURE_LAYOUTS,
    FORMATS,
    WRITERS,
    Dataset,
    INT_COLUMNS,
    MAX_N_STATES,
    MAX_PHASE_POINTS,
    MC_COLUMNS,
    SweepSpec,
    dataset_to_csv,
    dataset_to_json,
    fmt17,
    reproduce_figure,
    run_estimator,
    run_sweep,
    serializer,
    write_count_table,
    write_dataset,
)
from scamp import params

import oracles


def read_csv_rows(path: str) -> list[dict]:
    """The rows of a dataset CSV file, with each cell read back as int or float."""
    with open(path, newline="") as fh:
        return [
            {c: int(text) if c in INT_COLUMNS else float(text) for c, text in record.items()}
            for record in csv.DictReader(fh)
        ]


def read_json_dataset(path: str) -> tuple[dict, list[dict]]:
    """The spec echo and the rows a JSON dataset file holds, with ``null`` in a
    float column read as NaN."""
    with open(path) as fh:
        payload = json.load(fh)
    rows = [
        {c: math.nan if v is None and c not in INT_COLUMNS else v for c, v in row.items()}
        for row in payload["rows"]
    ]
    return payload["spec"], rows


class TestSweepSpecValidation:
    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigError):
            SweepSpec(alpha_sq_grid=(), n_states_list=(2,))

    def test_rejects_unsorted_or_duplicate_grid(self):
        with pytest.raises(ConfigError):
            SweepSpec(alpha_sq_grid=(0.5, 0.1), n_states_list=(2,))
        with pytest.raises(ConfigError):
            SweepSpec(alpha_sq_grid=(0.1, 0.1), n_states_list=(2,))

    def test_rejects_duplicate_n_states(self):
        with pytest.raises(ConfigError, match="distinct"):
            SweepSpec(alpha_sq_grid=(0.1,), n_states_list=(2, 4, 2))

    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigError):
            SweepSpec(alpha_sq_grid=(0.1,), n_states_list=(2,), mode="exact")

    def test_rejects_empty_montecarlo_run(self):
        with pytest.raises(ConfigError):
            SweepSpec(alpha_sq_grid=(0.1,), n_states_list=(2,), mode="both", n_pulses=0)

    def test_pulse_bound_keeps_every_count_exact(self):
        # 2^53 pulses: every tally count, and so every CountTable field, is an exact float
        spec = SweepSpec(alpha_sq_grid=(0.5,), n_states_list=(2,), mode="both", n_pulses=1 << 53)
        (row,) = run_sweep(spec).rows
        assert row["mc_n_pulses"] == 1 << 53
        assert all(math.isfinite(row[c]) for c in MC_COLUMNS)

    def test_analytic_mode_ignores_n_pulses(self):
        SweepSpec(alpha_sq_grid=(0.1,), n_states_list=(2,), mode="analytic", n_pulses=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
    def test_rejects_non_finite_or_negative_alpha_sq(self, bad):
        with pytest.raises(ConfigError):
            SweepSpec(alpha_sq_grid=(bad,), n_states_list=(2,))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_prf(self, bad):
        with pytest.raises(ConfigError):
            SweepSpec(alpha_sq_grid=(0.5,), n_states_list=(2,), prf=bad)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("seed", -1),
            ("epsilon", math.nan),
            ("epsilon", 1.0),
            ("phase_points", 7),
            ("comparison_reflectivity", 1.0),
            ("subtraction_transmission", math.nan),
            ("n_pulses", 1 << 63),
            ("n_pulses", (1 << 53) + 1),
        ],
    )
    def test_rejects_out_of_range_fields(self, field, bad):
        with pytest.raises(ConfigError):
            SweepSpec(alpha_sq_grid=(0.5,), n_states_list=(2,), mode="both", **{field: bad})

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("phase_points", 8.5),
            ("phase_points", 256.0),
            ("n_pulses", 1e6),
            ("seed", 1.5),
            ("seed", True),
            ("n_states_list", (2.7,)),
            ("n_states_list", (True,)),
            ("alpha_sq_grid", ("0.5",)),
            ("prf", "1e6"),
            ("comparison_reflectivity", "0.5"),
            ("subtraction_transmission", "0.9"),
            ("epsilon", "0.1"),
        ],
    )
    def test_rejects_non_integer_or_non_real_fields(self, field, bad):
        fields = {"alpha_sq_grid": (0.5,), "n_states_list": (2,), field: bad}
        with pytest.raises(ConfigError, match="must be (an integer|a real number)"):
            SweepSpec(mode="both", **fields)

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        spec = SweepSpec(alpha_sq_grid=(np.float32(0.5),), n_states_list=(np.int64(2),),
                         seed=np.uint32(7), phase_points=np.int16(64), prf=np.float32(2e6),
                         epsilon=np.float16(0.25))
        numbers = (spec.n_states_list[0], spec.seed, spec.phase_points,
                   spec.alpha_sq_grid[0], spec.prf, spec.epsilon)
        assert [type(v) for v in numbers] == [int] * 3 + [float] * 3
        assert json.loads(dataset_to_json(run_sweep(spec)))["spec"]["prf"] == 2e6

    @pytest.mark.parametrize(
        "field, bound",
        [("n_states_list", MAX_N_STATES), ("phase_points", MAX_PHASE_POINTS)],
    )
    def test_size_bounds(self, field, bound):
        def spec(value):
            value = (value,) if field == "n_states_list" else value
            fields = {"alpha_sq_grid": (0.5,), "n_states_list": (2,), field: value}
            return SweepSpec(mode="both", **fields)

        spec(bound)  # construction only: the bound itself is accepted
        for bad in (bound + 1, 99999999999999999999):
            with pytest.raises(ConfigError, match="must lie in"):
                spec(bad)

    def test_point_at_both_bounds_keeps_its_memory_budget(self):
        # the scan's curves, blocks and reference (about 3.3 MiB), the draw's N*16
        # offset cells (32 KiB) and the branch table of 256 branches that the
        # analytic columns and the Monte Carlo share: a 3.7-MiB traced peak
        spec = SweepSpec(alpha_sq_grid=(1.0,), n_states_list=(MAX_N_STATES,),
                         phase_points=MAX_PHASE_POINTS, mode="both", n_pulses=1000)
        tracemalloc.start()
        try:
            run_sweep(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 << 20, f"traced peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("mode", ["analytic", "both"])
    def test_long_grid_holds_one_block_at_a_time(self, mode):
        # at N = 256 and 8 phase points a scan block takes two points; held at
        # once, the 128 points' branch tables (about 73 KiB each) would take 9.3 MiB.
        # In both modes a point's table is dropped once the point is drawn
        grid = tuple(0.01 * (i + 1) for i in range(128))
        spec = SweepSpec(alpha_sq_grid=grid, n_states_list=(MAX_N_STATES,), phase_points=8, mode=mode,
                         n_pulses=1000)
        assert scan_block_points(MAX_N_STATES, 8) == 2
        tracemalloc.start()
        try:
            rows = run_sweep(spec).rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == len(grid)
        assert peak <= 6 << 20, f"traced peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("name", ["da", "db"])
    def test_rejects_blind_analyzer_for_montecarlo(self, name):
        bank = replace(params.default_detector_bank(), **{name: DetectorModel(efficiency=0.0)})
        with pytest.raises(ConfigError, match=f"detector.{name}"):
            SweepSpec(alpha_sq_grid=(0.5,), n_states_list=(2,), mode="both", detectors=bank)
        SweepSpec(alpha_sq_grid=(0.5,), n_states_list=(2,), mode="analytic", detectors=bank)


class TestRunSweep:
    def test_rows_ordered_by_grid_position(self):
        spec = SweepSpec(alpha_sq_grid=(0.1, 0.5), n_states_list=(2, 4))
        ds = run_sweep(spec)
        assert [(r["n_states"], r["alpha_sq"]) for r in ds.rows] == [
            (2, 0.1), (2, 0.5), (4, 0.1), (4, 0.5),
        ]

    def test_analytic_output_is_bit_identical(self):
        spec = SweepSpec(alpha_sq_grid=(0.1, 0.3, 0.9), n_states_list=(2, 8))
        a, b = run_sweep(spec), run_sweep(spec)
        assert a.rows == b.rows
        assert dataset_to_csv(a) == dataset_to_csv(b)

    def test_conditioned_visibility_monotone_toward_one(self):
        grid = (0.01, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0)
        ds = run_sweep(SweepSpec(alpha_sq_grid=grid, n_states_list=(2,)))
        vis = [r["visibility_conditioned"] for r in ds.rows]
        assert all(b >= a - 1e-12 for a, b in zip(vis, vis[1:]))
        assert vis[-1] > 0.999

    def test_fraction_ordering_across_state_sets(self):
        ds = run_sweep(SweepSpec(alpha_sq_grid=(0.5,), n_states_list=(2, 4, 8)))
        f2, f4, f8 = (r["correct_state_fraction"] for r in ds.rows)
        assert f2 > f4 > f8

    def test_montecarlo_columns_and_seed_determinism(self):
        spec = SweepSpec(
            alpha_sq_grid=(0.5, 0.94),
            n_states_list=(2,),
            mode="both",
            n_pulses=50_000,
            seed=77,
        )
        a, b = run_sweep(spec), run_sweep(spec)
        assert a.rows == b.rows
        row = a.rows[0]
        for column in (
            "mc_success_probability",
            "mc_success_probability_se",
            "mc_correct_state_fraction",
            "mc_correct_state_fraction_se",
            "mc_fidelity",
            "mc_fidelity_se",
        ):
            assert column in row
        p, se = row["mc_success_probability"], row["mc_success_probability_se"]
        assert abs(p - row["success_probability"]) < 5.0 * se

    def test_montecarlo_respects_worker_count(self):
        spec = SweepSpec(
            alpha_sq_grid=(0.5,), n_states_list=(2,), mode="both", n_pulses=150_000, seed=5
        )
        assert run_sweep(spec, workers=1).rows == run_sweep(spec, workers=3).rows

    @pytest.mark.parametrize("mode", ["analytic", "both"])
    def test_rejects_worker_count_below_one(self, mode):
        spec = SweepSpec(alpha_sq_grid=(0.5,), n_states_list=(2,), mode=mode, n_pulses=1000)
        with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
            run_sweep(spec, workers=0)

    @pytest.mark.parametrize("workers", [1.5, True, "2", None])
    def test_rejects_worker_count_that_is_not_an_integer(self, workers):
        # 1.5 and True ran as if valid, and "2" failed with a bare TypeError
        spec = SweepSpec(alpha_sq_grid=(0.5,), n_states_list=(2,), mode="both", n_pulses=1000)
        cfg = params.default_amplifier(0.5, 2)
        run = RunSpec(cfg, spec.detectors, params.default_analysis(cfg), n_pulses=1000, master_seed=1)
        for call in (lambda: run_sweep(spec, workers=workers), lambda: simulate_run(run, workers=workers)):
            with pytest.raises(ConfigError, match=f"^workers must be an integer, got {re.escape(repr(workers))}$"):
                call()


class TestRowsDoNotDependOnNeighbours:
    """A grid point's row is the row of the same point swept alone, bit for bit
    in every column, wherever the point falls in its scan block."""

    GRID = tuple(0.05 + 0.25 * i for i in range(11))

    # At 256 phases a block takes 8 points at N = 2 (the last block of 11 holds
    # 3), 2 at N = 8 (the last holds 1) and one point at N = 64, which exceeds a
    # block; at 2049 phases every point exceeds one, and N = 64 cuts its phases
    # into ranges.  (8, 2) checks the Monte Carlo point index across sizes.
    @pytest.mark.parametrize("mode", ["analytic", "both"])
    @pytest.mark.parametrize("phase_points", [256, 2049])
    @pytest.mark.parametrize("n_states_list", [(2,), (8,), (64,), (8, 2)])
    def test_grid_rows_are_the_one_point_rows(self, monkeypatch, n_states_list, phase_points, mode):
        import scamp.montecarlo as montecarlo

        fields = dict(phase_points=phase_points, mode=mode, n_pulses=2000, seed=7)
        steps = {2: 8, 8: 2, 64: 1} if phase_points == 256 else {2: 1, 8: 1, 64: 1}
        assert all(scan_block_points(n, phase_points) == steps[n] for n in n_states_list)
        rows = run_sweep(SweepSpec(alpha_sq_grid=self.GRID, n_states_list=n_states_list, **fields)).rows
        points = [(n, a) for n in n_states_list for a in self.GRID]
        assert [(r["n_states"], r["alpha_sq"]) for r in rows] == points
        point_seed = montecarlo._point_seed
        for index, ((n_states, alpha_sq), row) in enumerate(zip(points, rows)):
            # a point swept alone draws with the seed of its index in the grid
            monkeypatch.setattr(montecarlo, "_point_seed", lambda seed, _, i=index: point_seed(seed, i))
            alone = run_sweep(SweepSpec(alpha_sq_grid=(alpha_sq,), n_states_list=(n_states,), **fields)).rows
            assert repr(alone) == repr([row])

    def test_failing_point_raises_after_the_points_before_it(self, monkeypatch):
        # the first failing point in grid order raises, even when a later point
        # of the same block fails while its tables are built
        import scamp.montecarlo as montecarlo
        import scamp.sweep as sweep_module

        spec = SweepSpec(alpha_sq_grid=(0.1, 0.2, 0.3), n_states_list=(2,), mode="both", n_pulses=100)
        assert scan_block_points(2, spec.phase_points) >= 3
        built = sweep_module._analytic_point
        drawn = []

        def analytic_point(spec, n_states, alpha_sq, *args):
            if alpha_sq == 0.3:
                raise ValueError("third point")
            return built(spec, n_states, alpha_sq, *args)

        def point_estimates(table, detectors, n_pulses, master_seed, point_index):
            drawn.append(point_index)
            raise ValueError(f"draw of point {point_index}")

        monkeypatch.setattr(sweep_module, "_analytic_point", analytic_point)
        monkeypatch.setattr(montecarlo, "point_estimates", point_estimates)
        with pytest.raises(ValueError, match="draw of point 0"):
            run_sweep(spec)
        assert drawn == [0]
        with pytest.raises(ValueError, match="third point"):
            run_sweep(replace(spec, mode="analytic"))

    def test_no_table_outlives_its_point(self, monkeypatch):
        # eight points at N = 2 are one scan block, which holds only their rows,
        # outputs, targets and mixture weights: each table is gone before the next
        # point draws
        import scamp.montecarlo as montecarlo

        spec = SweepSpec(alpha_sq_grid=tuple(0.1 * (i + 1) for i in range(8)), n_states_list=(2,),
                         mode="both", n_pulses=100)
        assert scan_block_points(2, spec.phase_points) == 8
        draw, tables, alive = montecarlo.point_estimates, [], []

        def point_estimates(table, *args):
            alive.append(sum(ref() is not None for ref in tables))
            tables.append(weakref.ref(table))
            return draw(table, *args)

        monkeypatch.setattr(montecarlo, "point_estimates", point_estimates)
        rows = run_sweep(spec).rows
        assert alive == [0] * 8
        assert [tuple(row) for row in rows] == [spec.columns()] * 8
        assert all(isinstance(row[c], float) for row in rows for c in BASE_COLUMNS[2:])


@st.composite
def _devices(draw):
    """Splitters, D0/D1, state-set sizes and a sorted grid of several alpha^2 values."""
    dark = st.one_of(st.just(0.0), st.floats(1e-6, 0.2))
    herald = st.builds(DetectorModel, efficiency=st.floats(0.0, 1.0), dark_prob_per_gate=dark)
    return {
        "r1_sq": draw(st.floats(0.01, 0.99)),
        "t2_sq": draw(st.floats(0.01, 1.0)),
        "d0": draw(herald),
        "d1": draw(herald),
        "sizes": tuple(draw(st.lists(st.sampled_from((1, 2, 3, 5, 16, 64)), min_size=1, max_size=3,
                                     unique=True))),
        "grid": tuple(sorted(draw(st.sets(st.floats(0.01, 4.0), min_size=2, max_size=8)))),
    }


class TestKernelPerSize:
    """A sweep builds one branch kernel per state-set size and gives each grid
    point only its base amplitude; every value is the one of the point's own
    device built from scratch."""

    def test_setup_is_done_once_per_size(self, monkeypatch):
        import scamp.amplifier as amplifier

        built = {"click_law": 0, "default_amplifier": 0}

        def counted(name, function):
            def call(*args, **kwargs):
                built[name] += 1
                return function(*args, **kwargs)
            return call

        monkeypatch.setattr(amplifier, "click_law", counted("click_law", amplifier.click_law))
        monkeypatch.setattr(params, "default_amplifier", counted("default_amplifier", params.default_amplifier))
        rows = run_sweep(SweepSpec(alpha_sq_grid=params.FIG3_ALPHA_SQ_GRID, n_states_list=(2, 4, 8))).rows
        assert len(rows) == 3 * 29
        # one kernel, with its two click laws, per state-set size, and a point
        # supplies only its base amplitude, not a device
        assert built == {"click_law": 6, "default_amplifier": 0}

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_devices())
    def test_rows_are_the_branch_tables_of_each_point(self, d):
        analyzer = params.default_detector()
        spec = SweepSpec(
            alpha_sq_grid=d["grid"],
            n_states_list=d["sizes"],
            comparison_reflectivity=d["r1_sq"],
            subtraction_transmission=d["t2_sq"],
            detectors=DetectorBank(d["d0"], d["d1"], analyzer, analyzer),
        )
        expected = []
        try:
            for n_states in spec.n_states_list:
                for alpha_sq in spec.alpha_sq_grid:
                    cfg = params.default_amplifier(alpha_sq, n_states, d["r1_sq"], d["t2_sq"])
                    table = branch_table(cfg, d["d0"], d["d1"])
                    p_success, weights = table.accepted()
                    fom = table.figures(p_success, weights)
                    analysis = params.default_analysis(cfg, detector=analyzer, epsilon=0.0,
                                                       phase_points=spec.phase_points)
                    expected.append({
                        "n_states": n_states,
                        "alpha_sq": alpha_sq,
                        "fidelity": fom.fidelity,
                        "correct_state_fraction": fom.correct_state_fraction,
                        "success_probability": p_success,
                        "success_rate_per_s": p_success * spec.prf,
                        **{column: visibility(output_mixture(cfg, d["d0"], d["d1"], 0, condition), analysis)
                           for column, condition in zip(_VISIBILITY_COLUMNS, Conditioning)},
                    })
        except NeverHeraldedError:
            # a point that can never herald fails the sweep too
            with pytest.raises(NeverHeraldedError):
                run_sweep(spec)
            return
        # repr is exact for floats, tells 0.0 from -0.0 and shows a NaN
        assert repr(run_sweep(spec).rows) == repr(expected)


class TestMonteCarloErrorBars:
    """Reported standard errors against the scatter over an ensemble of seeds."""

    N_SEEDS = 200
    ALL = ("mc_success_probability", "mc_correct_state_fraction", "mc_fidelity")

    @pytest.mark.parametrize(
        "n_states, alpha_sq, n_pulses, columns",
        [
            # mc_fidelity is not checked here: about 2 wrong-class pulses are expected,
            # a fifth of the seeds see no wrong-class click, and on those the plug-in
            # SE is 0, so the scatter reads about 1.4 of the mean SE; 10^8 pulses below
            pytest.param(2, 0.94, 1_000_000, ALL[:2], id="2-0.94"),
            pytest.param(2, 0.94, 100_000_000, ALL, id="2-0.94-1e8"),
            pytest.param(4, 0.5, 1_000_000, ALL, id="4-0.5"),
            pytest.param(8, 0.5, 1_000_000, ALL, id="8-0.5"),
        ],
    )
    def test_seed_scatter_matches_reported_se(self, n_states, alpha_sq, n_pulses, columns):
        rows = [
            run_sweep(
                SweepSpec(
                    alpha_sq_grid=(alpha_sq,),
                    n_states_list=(n_states,),
                    mode="both",
                    n_pulses=n_pulses,
                    seed=seed,
                )
            ).rows[0]
            for seed in range(self.N_SEEDS)
        ]
        # (k-1) s^2 / se^2 is chi-square with k-1 degrees of freedom; bound it
        # at four standard normal deviates by the Wilson-Hilferty approximation
        k = self.N_SEEDS - 1
        lo, hi = (
            math.sqrt((1.0 - 2.0 / (9 * k) + z * math.sqrt(2.0 / (9 * k))) ** 3)
            for z in (-4.0, 4.0)
        )
        for column in columns:
            values = np.array([r[column] for r in rows])
            se = np.mean([r[column + "_se"] for r in rows])
            ratio = values.std(ddof=1) / se
            assert lo < ratio < hi, f"{column}: scatter / SE = {ratio:.3f}, band ({lo:.3f}, {hi:.3f})"


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        spec = SweepSpec(alpha_sq_grid=(0.1, 0.9), n_states_list=(2, 4))
        ds = run_sweep(spec)
        path = str(tmp_path / "rows.csv")
        write_dataset(ds, path, "csv")
        rows = read_csv_rows(path)
        assert rows == ds.rows

    def test_json_round_trip(self, tmp_path):
        spec = SweepSpec(
            alpha_sq_grid=(0.5,), n_states_list=(2,), mode="both", n_pulses=20_000
        )
        ds = run_sweep(spec)
        path = str(tmp_path / "rows.json")
        write_dataset(ds, path, "json")
        echo, rows = read_json_dataset(path)
        assert rows == ds.rows
        assert echo == ds.echo()
        assert echo["n_pulses"] == 20_000

    def test_json_writes_non_finite_cells_as_null(self, tmp_path):
        # ten pulses at alpha_sq = 0.01 herald none: no class split, no estimate
        spec = SweepSpec(alpha_sq_grid=(0.01,), n_states_list=(2,), mode="both", n_pulses=10)
        ds = run_sweep(spec)
        nan_columns = [c for c, v in ds.rows[0].items() if isinstance(v, float) and math.isnan(v)]
        assert nan_columns == ["mc_correct_state_fraction", "mc_correct_state_fraction_se",
                               "mc_fidelity", "mc_fidelity_se"]

        def reject(token):
            raise AssertionError(f"{token} is not RFC 8259 JSON")

        row = json.loads(dataset_to_json(ds), parse_constant=reject)["rows"][0]
        assert [c for c, v in row.items() if v is None] == nan_columns
        assert dataset_to_csv(ds).splitlines()[1].count(",nan") == 4
        path = str(tmp_path / "rows.json")
        write_dataset(ds, path, "json")
        back = read_json_dataset(path)[1][0]
        assert list(back) == list(ds.rows[0])
        for column, value in ds.rows[0].items():
            if column in nan_columns:
                assert math.isnan(back[column])
            else:
                assert back[column] == value

    @staticmethod
    def cell_by_cell_csv(dataset):
        """The CSV text written one cell at a time: str(int) or fmt17(float)."""
        columns = list(dataset.rows[0])
        lines = [",".join(columns)]
        for row in dataset.rows:
            lines.append(",".join(str(int(row[c])) if c in INT_COLUMNS else fmt17(float(row[c]))
                                  for c in columns))
        return "\n".join(lines) + "\n"

    def test_csv_cells_are_the_fmt17_text(self):
        spec = SweepSpec(alpha_sq_grid=(0.5,), n_states_list=(2,))
        edge = Dataset(spec, [
            {"n_states": 2, "fidelity": v, "mc_seed": 2**64 - 1}
            for v in (math.nan, -0.0, 0.0, 1.0000000000000001e+300, math.inf, -math.inf, 5e-324, 0.1, 3)
        ])
        datasets = [
            edge,
            Dataset(spec, [{"alpha_sq": v} for v in (math.nan, -0.0, 1.0000000000000001e+300)]),
            run_sweep(SweepSpec(alpha_sq_grid=params.FIG3_ALPHA_SQ_GRID, n_states_list=(2, 4, 8))),
            reproduce_figure("fig4"),
            run_sweep(SweepSpec(alpha_sq_grid=(0.01, 0.5), n_states_list=(2,), mode="both", n_pulses=10)),
        ]
        for dataset in datasets:
            assert dataset_to_csv(dataset) == self.cell_by_cell_csv(dataset)
        assert dataset_to_csv(edge).splitlines()[1:4] == [
            "2,nan,18446744073709551615", "2,-0,18446744073709551615", "2,0,18446744073709551615"]
        assert dataset_to_csv(datasets[1]).splitlines()[1:] == ["nan", "-0", "1.0000000000000001e+300"]

    def test_formats_are_the_writer_table(self):
        assert FORMATS == tuple(WRITERS) == ("csv", "json")
        assert [serializer(f) for f in FORMATS] == [dataset_to_csv, dataset_to_json]
        for bad in ("CSV", "", None, ["csv"]):
            with pytest.raises(ConfigError, match="output format must be one of"):
                serializer(bad)

    def test_write_rejects_unknown_format(self, tmp_path):
        ds = run_sweep(SweepSpec(alpha_sq_grid=(0.1,), n_states_list=(2,)))
        path = tmp_path / "rows.xml"
        with pytest.raises(ConfigError, match="output format must be one of"):
            write_dataset(ds, str(path), "xml")
        assert not path.exists()

    def test_write_failure_carries_path(self, tmp_path):
        ds = run_sweep(SweepSpec(alpha_sq_grid=(0.1,), n_states_list=(2,)))
        with pytest.raises(OSError, match="cannot write dataset to .*no/such/dir"):
            write_dataset(ds, str(tmp_path / "no/such/dir/x.csv"), "csv")
        with pytest.raises(OSError, match="cannot write count table to .*no/such/dir"):
            write_count_table(CountTable(1.0, 2.0, 3.0, 4.0), str(tmp_path / "no/such/dir/counts.json"))

    @staticmethod
    def sweep_stdout(capsys) -> str:
        assert run_cli(["sweep"]) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("old_length", [lambda n: 3 * n, lambda n: 7, lambda n: n],
                             ids=["longer", "shorter", "equal"])
    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, capsys, old_length):
        # an existing file is overwritten in place and cut to the new length
        expected = self.sweep_stdout(capsys)
        path = tmp_path / "rows.csv"
        path.write_text("x" * old_length(len(expected)))
        assert run_cli(["sweep", "--output", str(path)]) == 0
        assert path.read_text() == expected

    def test_rewrite_goes_through_a_symlink(self, tmp_path, capsys):
        expected = self.sweep_stdout(capsys)
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("stale row\n" * 1000)
        link.symlink_to(target)
        assert run_cli(["sweep", "--output", str(link)]) == 0
        assert link.is_symlink() and target.read_text() == expected

    def test_new_file_has_the_mode_of_open_w(self, tmp_path, capsys):
        mask = os.umask(0o027)
        try:
            open(tmp_path / "sibling.csv", "w").close()
            assert run_cli(["sweep", "--output", str(tmp_path / "rows.csv")]) == 0
        finally:
            os.umask(mask)
        assert (tmp_path / "rows.csv").stat().st_mode == (tmp_path / "sibling.csv").stat().st_mode

    def test_dev_null_is_written_and_not_cut(self, capsys):
        assert run_cli(["sweep", "--output", os.devnull]) == 0
        assert capsys.readouterr().out == f"wrote 87 rows to {os.devnull}\n"

    @pytest.mark.parametrize("kind", ["directory", "read-only file"])
    def test_unwritable_path_exits_3_naming_it(self, tmp_path, capsys, kind):
        path = tmp_path / "rows.csv"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_text("old\n")
            path.chmod(0o444)
            if os.access(path, os.W_OK):
                pytest.skip("this user may write a read-only file")
        ds = run_sweep(SweepSpec(alpha_sq_grid=(0.1,), n_states_list=(2,)))
        with pytest.raises(OSError, match=f"^cannot write dataset to {re.escape(repr(str(path)))}: "):
            write_dataset(ds, str(path), "csv")
        end, _, err = _outcome(capsys, ["sweep", "--output", str(path)])
        assert end == ("return", 3)
        assert err.startswith(f"runtime error: cannot write dataset to {str(path)!r}: ")
        assert kind == "directory" or path.read_text() == "old\n"

    def test_a_failed_write_leaves_no_stale_rows(self, tmp_path):
        # past the file-size limit the write fails part way (EFBIG), after its
        # first 100 bytes overwrote the old ones: the file is cut to zero bytes
        pytest.importorskip("resource")
        path = tmp_path / "rows.csv"
        path.write_text("stale row\n" * 50)
        probe = ("import resource, signal, sys\n"
                 "from scamp.sweep import write_text\n"
                 "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
                 "resource.setrlimit(resource.RLIMIT_FSIZE, (100, 100))\n"
                 "try:\n"
                 "    write_text(sys.argv[1], 'new row\\n' * 1000, 'dataset')\n"
                 "except OSError as exc:\n"
                 "    print(exc)\n")
        proc = subprocess.run([sys.executable, "-c", probe, str(path)], capture_output=True, text=True,
                              env=_subprocess_env(), check=True)
        assert proc.stdout.startswith(f"cannot write dataset to {str(path)!r}: ")
        assert path.read_bytes() == b""

    def test_estimate_report_and_count_table_rewrite_a_longer_file(self, tmp_path, capsys):
        counts, fresh, report = tmp_path / "counts.json", tmp_path / "fresh.json", tmp_path / "report.json"
        counts.write_text("stale\n" * 1000)
        write_count_table(CountTable(900.0, 10.0, 40.0, 40.0), str(counts))
        assert counts.read_text() == json.dumps(CountTable(900.0, 10.0, 40.0, 40.0).to_dict(), indent=2) + "\n"
        estimate = ["estimate", "--counts", str(counts), "--g2a2", "0.9", "--output"]
        assert run_cli([*estimate, str(fresh)]) == 0
        report.write_text("stale\n" * 1000)
        assert run_cli([*estimate, str(report)]) == 0
        assert report.read_text() == fresh.read_text()

    def test_no_output_is_opened_with_o_trunc(self, tmp_path, capsys, monkeypatch):
        # the rewrite's gain cannot be timed here: each output is opened once, by
        # os.open, and never with O_TRUNC, so an existing file is not truncated first
        opened = []
        real_open = os.open

        def recording_open(path, flags, *args, **kwargs):
            opened.append((str(path), flags))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        counts, report, rows = (str(tmp_path / name) for name in ("counts.json", "report.json", "rows.csv"))
        write_count_table(CountTable(900.0, 10.0, 40.0, 40.0), counts)
        assert run_cli(["estimate", "--counts", counts, "--g2a2", "0.9", "--output", report]) == 0
        assert run_cli(["sweep", "--output", rows]) == 0
        assert run_cli(["figure", "--id", "fig4", "--output", rows]) == 0
        assert [path for path, _ in opened] == [counts, report, rows, rows]
        assert not any(flags & os.O_TRUNC for _, flags in opened)

    @pytest.mark.parametrize("fields", [
        {},
        {
            "detectors": DetectorBank(
                d0=DetectorModel(0.5, dark_prob_per_gate=0.001),
                d1=DetectorModel(0.6, dark_prob_per_gate=0.02),
                da=DetectorModel(0.7, 0.9, 0.005),
                db=DetectorModel(0.3, 0.8, 0.01),
            ),
            "epsilon": 0.01,
            "mode": "both",
        },
    ])
    def test_spec_echo_is_the_asdict_layout(self, fields):
        spec = SweepSpec(alpha_sq_grid=(0.5, 1.0), n_states_list=(2, 4), **fields)
        expected = asdict(spec)
        expected["alpha_sq_grid"] = list(spec.alpha_sq_grid)
        expected["n_states_list"] = list(spec.n_states_list)
        echo = spec.echo()
        assert echo == expected
        assert json.dumps(echo, indent=2) == json.dumps(expected, indent=2)
        # each echo is a fresh copy: editing one does not reach the next
        echo["detectors"]["da"]["efficiency"] = -1.0
        assert spec.echo() == expected

    def test_count_table_round_trip(self, tmp_path):
        from scamp.sweep import read_count_table

        counts = CountTable(10.0, 2.0, 3.0, 4.0)
        path = str(tmp_path / "counts.json")
        write_count_table(counts, path)
        assert read_count_table(path) == counts
        csv_path = tmp_path / "counts.csv"
        csv_path.write_text("n_A_sig,n_B_sig,n_A_vac,n_B_vac\n10,2,3,4\n")
        assert read_count_table(str(csv_path)) == counts


class TestReproduceFigure:
    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigError):
            reproduce_figure("fig5")

    @pytest.mark.parametrize("fields", [{"n_states_list": (2,)}, {"mode": "both"},
                                        {"mode": "montecarlo"}])
    def test_rejects_fields_the_figure_fixes(self, fields):
        with pytest.raises(ConfigError):
            reproduce_figure("fig3b", alpha_sq_grid=(0.5,), **fields)

    def test_rejects_non_integer_phase_points(self):
        with pytest.raises(ConfigError, match="phase_points must be an integer"):
            reproduce_figure("fig3a", phase_points=8.5)

    def test_takes_sweep_fields(self):
        base = reproduce_figure("fig4", alpha_sq_grid=(0.94,))
        ds = reproduce_figure("fig4", alpha_sq_grid=(0.94,), mode="analytic", prf=2e6)
        assert ds.rows[0]["success_rate_per_s"] == 2.0 * base.rows[0]["success_rate_per_s"]
        assert ds.spec.prf == 2e6
        assert ds.echo()["prf"] == 2e6

    def test_fig3a_ideal_conditioned_curve_is_unity(self):
        ideal = DetectorBank.uniform(DetectorModel.ideal())
        ds = reproduce_figure("fig3a", detectors=ideal, alpha_sq_grid=(0.1, 0.5, 1.0, 2.0))
        for row in ds.rows:
            assert row["visibility_conditioned"] == pytest.approx(1.0, abs=1e-9)

    def test_fig3b_fidelity_band(self):
        ds = reproduce_figure("fig3b", alpha_sq_grid=(0.5,))
        assert ds.rows[0]["fidelity"] >= 0.98

    @pytest.mark.parametrize("figure_id", sorted(FIGURE_LAYOUTS))
    def test_default_grid_is_the_layout_grid(self, figure_id):
        n_states, grid, columns = FIGURE_LAYOUTS[figure_id]
        ds = reproduce_figure(figure_id)
        assert (ds.spec.n_states_list, ds.spec.alpha_sq_grid) == ((n_states,), grid)
        assert [list(row) for row in ds.rows] == [list(columns)] * len(grid)

    def test_fig4_rate_near_quoted_value(self):
        # the default success-rate grid contains the quoted operating point
        ds = reproduce_figure("fig4")
        row = next(r for r in ds.rows if r["alpha_sq"] == 0.94)
        assert 13_000.0 <= row["success_rate_per_s"] <= 39_000.0

    def test_dataset_is_labeled_model_curves(self):
        ds = reproduce_figure("fig4", alpha_sq_grid=(0.5,))
        assert ds.figure_id == "fig4"
        echo = ds.echo()
        assert echo == {**ds.spec.echo(), "figure_id": "fig4", "data": "model-curves"}
        assert list(echo)[-2:] == ["figure_id", "data"]
        assert list(ds.rows[0].keys()) == ["alpha_sq", "success_rate_per_s"]


class TestRunEstimator:
    def test_report_contains_both_conventions(self):
        counts = CountTable(500.0, 1.0, 40.0, 42.0)
        report = run_estimator(counts, g2a2=1.69, eta_l=0.39)
        assert set(report) >= {
            "n_sig", "n_vac", "p_sig", "p_vac", "fidelity_standard", "fidelity_doubled",
        }
        assert report["fidelity_doubled"] <= report["fidelity_standard"]
        assert report["p_sig"] + report["p_vac"] == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_counts_flagged(self):
        with pytest.raises(InsufficientSignalError):
            run_estimator(CountTable(0.0, 0.0, 0.0, 0.0), g2a2=0.9, eta_l=0.4)

    @pytest.mark.parametrize("counts, weights", [
        (CountTable(500.0, 1.0, 40.0, 42.0), None),
        (CountTable(0.0, 0.0, 40.0, 42.0), (0.0, 1.0)),
    ])
    def test_weights_are_the_class_split(self, counts, weights):
        # P(sig) and P(vac) are the two weights of the reconstructed density operator
        report = run_estimator(counts, g2a2=1.69, eta_l=0.39, vacuum_denominator="per-port")
        total = report["n_sig"] + report["n_vac"]
        assert report["p_sig"] == report["n_sig"] / total
        assert report["p_vac"] == report["n_vac"] / total
        if weights is not None:
            assert (report["p_sig"], report["p_vac"]) == weights


def run_cli(args):
    return cli.main(args)


class TestCli:
    def test_selfcheck_passes(self, capsys):
        assert run_cli(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_sweep_with_config_and_output(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text(
            "[sweep]\n"
            "alpha_sq = 0.1,0.5\n"
            "n_states = 2,4\n"
            "mode = analytic\n"
            "[output]\n"
            f"path = {tmp_path / 'out.csv'}\n"
            "format = csv\n"
        )
        assert run_cli(["sweep", "--config", str(config)]) == 0
        rows = read_csv_rows(str(tmp_path / "out.csv"))
        assert len(rows) == 4
        assert rows[0]["n_states"] == 2

    def test_sweep_rejects_unknown_key(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[sweep]\nalpha_q = 0.1\n")
        assert run_cli(["sweep", "--config", str(config)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_sweep_rejects_unknown_section(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[detector.dx]\nefficiency = 0.4\n")
        assert run_cli(["sweep", "--config", str(config)]) == 2

    @pytest.mark.parametrize("command", [["sweep"], ["figure", "--id", "fig3b"]], ids=["sweep", "figure"])
    @pytest.mark.parametrize("text", [
        # alone, configparser lists no section, so nothing was checked or read
        "[DEFAULT]\nefficiency = 0.01\nalpha_sq = 99\n",
        # beside a section, its key was inherited by that section
        "[DEFAULT]\nefficiency = 0.01\n[detector.d0]\nloss = 0.5\n",
    ], ids=["alone", "inherited"])
    def test_rejects_default_section_with_keys(self, tmp_path, capsys, command, text):
        config = tmp_path / "default.ini"
        config.write_text(text)
        assert run_cli(command + ["--config", str(config)]) == 2
        assert "unknown config section [DEFAULT]" in capsys.readouterr().err

    def test_no_config_file_builds_no_parser(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a ConfigParser was built without a config file")

        monkeypatch.setattr(cli.configparser, "ConfigParser", refuse)
        assert cli.load_sweep_config(None) == {}

    @pytest.mark.parametrize(
        "text", ["[sweep]\nseed = 1\nseed = 2\n", "seed = 1\n", "[sweep\n", "[output]\npath = 50%\n"]
    )
    def test_sweep_rejects_malformed_config_file(self, tmp_path, capsys, text):
        config = tmp_path / "bad.ini"
        config.write_text(text)
        assert run_cli(["sweep", "--config", str(config)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_sweep_rejects_missing_config_file(self, capsys):
        assert run_cli(["sweep", "--config", "/no/such/file.ini"]) == 2

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_sweep_worker_flag_validated(self, workers, capsys):
        args = ["sweep", "--mode", "both", "--workers", workers]
        assert run_cli(args) == 2
        assert capsys.readouterr().err == f"config error: workers must be >= 1, got {workers}\n"

    @pytest.mark.parametrize("lines", ["alpha_sq = nan", "alpha_sq = 0.5\nprf = nan"])
    def test_sweep_rejects_nan_config_values(self, tmp_path, capsys, lines):
        config = tmp_path / "nan.ini"
        config.write_text(f"[sweep]\nn_states = 2\n{lines}\n")
        assert run_cli(["sweep", "--config", str(config)]) == 2
        assert "config error" in capsys.readouterr().err

    @staticmethod
    def assert_one_line_config_error(capsys):
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("section, key", [("detector.da", "efficiency"), ("detector.db", "loss")])
    def test_sweep_rejects_blind_analyzer_in_montecarlo_mode(self, tmp_path, capsys, section, key):
        config = tmp_path / "blind.ini"
        config.write_text(
            f"[sweep]\nalpha_sq = 0.5\nn_states = 2\nn_pulses = 1000\n[{section}]\n{key} = 0\n"
        )
        assert run_cli(["sweep", "--config", str(config), "--mode", "both"]) == 2
        self.assert_one_line_config_error(capsys)
        assert run_cli(["sweep", "--config", str(config), "--mode", "analytic"]) == 0

    @pytest.mark.parametrize("key", ["n_states", "phase_points"])
    def test_sweep_rejects_huge_sizes(self, tmp_path, capsys, key):
        config = tmp_path / "huge.ini"
        config.write_text(f"[sweep]\nalpha_sq = 0.5\n{key} = 99999999999999999999\n")
        assert run_cli(["sweep", "--config", str(config)]) == 2
        self.assert_one_line_config_error(capsys)

    def test_sweep_rejects_duplicate_n_states(self, tmp_path, capsys):
        config = tmp_path / "dup.ini"
        config.write_text("[sweep]\nalpha_sq = 0.5\nn_states = 2,2,2\n")
        assert run_cli(["sweep", "--config", str(config)]) == 2
        self.assert_one_line_config_error(capsys)

    def test_figure_rejects_huge_phase_points(self, tmp_path, capsys):
        config = tmp_path / "huge.ini"
        config.write_text("[sweep]\nphase_points = 99999999999999999999\n")
        assert run_cli(["figure", "--id", "fig3a", "--config", str(config)]) == 2
        self.assert_one_line_config_error(capsys)

    def test_figure_loss_conflicts_with_detector_blocks(self, tmp_path, capsys):
        config = tmp_path / "det.ini"
        config.write_text("[detector.da]\ndark_prob = 0.01\n")
        args = ["figure", "--id", "fig4", "--alpha-sq", "0.94", "--loss", "0.5"]
        assert run_cli(args + ["--config", str(config)]) == 2
        self.assert_one_line_config_error(capsys)
        assert run_cli(args) == 0
        assert capsys.readouterr().out != ""

    @pytest.mark.parametrize("loss", ["1.03", "2", "-0.1", "nan"])
    def test_figure_loss_is_a_transmission(self, capsys, loss):
        # only the optical loss itself tells the user which value to change
        assert run_cli(["figure", "--id", "fig4", "--alpha-sq", "0.94", "--loss", loss]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: optical_loss must lie in [0, 1], got {float(loss)}\n"

    def test_figure_flags_override_config_grid_and_output(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "fig.ini"
        config.write_text("[sweep]\nalpha_sq = 0.3,0.5\n[output]\npath = cfg.csv\nformat = csv\n")
        assert run_cli(["figure", "--id", "fig3b", "--config", str(config)]) == 0
        assert [r["alpha_sq"] for r in read_csv_rows("cfg.csv")] == [0.3, 0.5]
        assert run_cli(["figure", "--id", "fig3b", "--config", str(config), "--alpha-sq", "0.7",
                        "--output", "flag.json", "--format", "json"]) == 0
        assert [r["alpha_sq"] for r in read_json_dataset("flag.json")[1]] == [0.7]
        # an empty grid is an error, not a request for the default grid
        assert run_cli(["figure", "--id", "fig3b", "--alpha-sq", ""]) == 2

    @pytest.mark.parametrize("command", [["sweep"], ["figure", "--id", "fig3b"]], ids=["sweep", "figure"])
    def test_bad_config_format_is_rejected_before_any_row(self, tmp_path, capsys, monkeypatch, command):
        def no_rows(*args, **kwargs):
            raise AssertionError("rows computed for a format that cannot be written")

        monkeypatch.setattr(cli, "run_sweep", no_rows)
        monkeypatch.setattr(cli, "reproduce_figure", no_rows)
        config = tmp_path / "xml.ini"
        config.write_text("[output]\nformat = xml\n")
        assert _outcome(capsys, command + ["--config", str(config)]) == (
            ("return", 2), "", "config error: output format must be one of ('csv', 'json'), got 'xml'\n"
        )

    @pytest.mark.parametrize("command, extra", [
        (["sweep"], set()),
        (["figure", "--id", "fig4"], {"figure_id", "data"}),
    ], ids=["sweep", "figure"])
    def test_json_spec_holds_what_the_rows_are_computed_from(self, tmp_path, capsys, command, extra):
        config = tmp_path / "json.ini"
        config.write_text("[sweep]\nalpha_sq = 0.5\n[output]\nformat = json\n")
        assert run_cli(command + ["--config", str(config)]) == 0
        spec = json.loads(capsys.readouterr().out)["spec"]
        assert set(spec) == {f.name for f in fields(SweepSpec)} | extra
        assert [key for key in spec if key.startswith("output")] == []

    def test_figure_writes_parseable_csv(self, tmp_path):
        out = str(tmp_path / "fig.csv")
        code = run_cli(["figure", "--id", "fig3b", "--alpha-sq", "0.3,0.5", "--output", out])
        assert code == 0
        rows = read_csv_rows(out)
        assert [r["alpha_sq"] for r in rows] == [0.3, 0.5]

    def test_figure_json_spec_echo(self, tmp_path):
        out = str(tmp_path / "fig.json")
        assert run_cli(["figure", "--id", "fig4", "--alpha-sq", "0.94", "--output", out,
                        "--format", "json"]) == 0
        echo, _ = read_json_dataset(out)
        assert echo["figure_id"] == "fig4"

    @pytest.mark.parametrize(
        "figure_id, config, alpha_sq",
        [("fig3b", "[detector.d1]\ndark_prob = 0\n", "0")],
        ids=["never-heralded"],
    )
    def test_figure_runtime_failure_exits_3(self, tmp_path, capsys, figure_id, config, alpha_sq):
        path = tmp_path / "fig.ini"
        path.write_text(config)
        assert run_cli(["figure", "--id", figure_id, "--config", str(path), "--alpha-sq", alpha_sq]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("figure_id", ["fig3b", "fig3c", "fig3d", "fig4"])
    def test_figure_without_visibility_ignores_auto_epsilon(self, capsys, figure_id):
        # an auto epsilon rounds to 1 at alpha_sq = 800, but no column of these figures reads it
        end, out, err = _outcome(capsys, ["figure", "--id", figure_id, "--alpha-sq", "800"])
        assert (end, err) == (("return", 0), "")
        [row] = csv.DictReader(out.splitlines())
        assert all(math.isfinite(float(value)) for value in row.values())

    @pytest.mark.parametrize("command", sorted(FIGURE_LAYOUTS) + ["analytic", "both"])
    def test_no_command_builds_an_analyzer(self, monkeypatch, command):
        # no column reads epsilon, so neither a figure nor a sweep derives one:
        # an auto epsilon at alpha_sq = 800 would round to 1
        def no_analyzer(*args, **kwargs):
            raise AssertionError("analyzer built")

        monkeypatch.setattr(params, "default_analysis", no_analyzer)
        if command in FIGURE_LAYOUTS:
            dataset = reproduce_figure(command, alpha_sq_grid=(0.5, 800.0))
        else:
            spec = SweepSpec(alpha_sq_grid=(0.5, 800.0), n_states_list=(2, 8), mode=command, n_pulses=4096)
            dataset = run_sweep(spec)
        assert len(dataset.rows) > 1

    def test_montecarlo_is_not_a_mode(self, tmp_path, capsys):
        end, out, err = _outcome(capsys, ["sweep", "--mode", "montecarlo"])
        assert (end, out) == (("exit", 2), "")
        assert err.startswith("usage: scamp sweep") and "invalid choice: 'montecarlo'" in err
        config = tmp_path / "mc.ini"
        config.write_text("[sweep]\nmode = montecarlo\n")
        assert _outcome(capsys, ["sweep", "--config", str(config)]) == (
            ("return", 2), "", "config error: mode must be one of ('analytic', 'both'), got 'montecarlo'\n"
        )

    @pytest.mark.parametrize("figure_id", sorted(FIGURE_LAYOUTS))
    def test_figure_that_never_heralds_exits_3_whatever_its_columns(self, tmp_path, capsys, figure_id):
        # fig4 computes neither the fidelity loop nor the visibility scan, and
        # must still refuse a point where no branch can herald
        path = tmp_path / "dark_free.ini"
        path.write_text("[detector.d0]\ndark_prob = 0\n[detector.d1]\ndark_prob = 0\n")
        args = ["figure", "--id", figure_id, "--config", str(path), "--alpha-sq", "0,0.5"]
        assert _outcome(capsys, args) == (
            ("return", 3),
            "",
            "runtime error: no branch of input 0 can pass conditioning d0_silent_and_d1_fires\n",
        )

    def test_blind_subtraction_detector_never_heralds(self, tmp_path, capsys):
        # at r1^2 = 5e-324 the retained field overflows, and a blind D1 must
        # still never fire rather than print NaN cells from 0 * inf
        config = tmp_path / "blind_d1.ini"
        config.write_text(
            "[amplifier]\ncomparison_reflectivity = 5e-324\nsubtraction_transmission = 1e-300\n"
            "[detector.d1]\nefficiency = 0\ndark_prob = 0\n"
            "[sweep]\nalpha_sq = 1\nn_states = 2\nepsilon = 0\n"
        )
        assert _outcome(capsys, ["sweep", "--config", str(config)]) == (
            ("return", 3),
            "",
            "runtime error: no branch of input 0 can pass conditioning d0_silent_and_d1_fires\n",
        )

    @pytest.mark.parametrize("reflectivity", ["1e-310", "5e-324"])
    def test_sweep_rejects_overflowing_analyzer_intensity(self, tmp_path, capsys, reflectivity):
        # the gain t2/r1 is about 1e155 or more, so 4*(t2^2/r1^2)*alpha^2 overflows a float
        config = tmp_path / "tiny_r1.ini"
        config.write_text(
            f"[amplifier]\ncomparison_reflectivity = {reflectivity}\n"
            "[sweep]\nalpha_sq = 1\nn_states = 2\nepsilon = 0\n"
        )
        end, out, err = _outcome(capsys, ["sweep", "--config", str(config)])
        assert (end, out) == (("return", 2), "")
        assert err.startswith("config error: the analyzer intensity") and err.count("\n") == 1

    def test_figure_unknown_id(self, capsys):
        assert run_cli(["figure", "--id", "fig7"]) == 2

    def test_figure_honors_config_detector_blocks(self, tmp_path):
        config = tmp_path / "ideal.ini"
        config.write_text(
            "[detector.d0]\nefficiency = 1.0\nloss = 1.0\ndark_prob = 0.0\n"
            "[detector.d1]\nefficiency = 1.0\nloss = 1.0\ndark_prob = 0.0\n"
            "[detector.da]\nefficiency = 1.0\nloss = 1.0\ndark_prob = 0.0\n"
            "[detector.db]\nefficiency = 1.0\nloss = 1.0\ndark_prob = 0.0\n"
        )
        out = str(tmp_path / "fig3a.csv")
        assert run_cli(["figure", "--id", "fig3a", "--config", str(config),
                        "--alpha-sq", "0.5,1.0", "--output", out]) == 0
        for row in read_csv_rows(out):
            assert row["visibility_conditioned"] == pytest.approx(1.0, abs=1e-9)

    def test_estimate_end_to_end_against_analytic_mixture(self, tmp_path, capsys):
        # seeded run, unconditioned two-state output: half amplified, half vacuum
        det = params.default_detector()
        cfg = params.default_amplifier(0.94, 2)
        ana = params.default_analysis(cfg, epsilon=0.0)
        spec = RunSpec(
            amplifier=cfg,
            detectors=DetectorBank.uniform(det),
            analysis=ana,
            n_pulses=1_000_000,
            master_seed=31415,
        )
        tally = simulate_run(spec)
        counts = conditioned_counts(tally, Conditioning.NONE)
        path = str(tmp_path / "counts.json")
        write_count_table(counts, path)
        g2a2 = ana.ref_mean_photons()
        eta_l = det.eta_l()
        assert run_cli([
            "estimate", "--counts", path,
            "--g2a2", f"{g2a2!r}", "--eta-l", f"{eta_l!r}",
            "--vacuum-denominator", "per-port",
            "--output", str(tmp_path / "report.json"),
        ]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        mixture = output_mixture(cfg, det, det, 0, Conditioning.NONE)
        f_true = mixture_fidelity(mixture, ana.reference_amplitude)
        # 5 sigma via the delta method on the two class inversions
        n_sig, n_vac = conditioned_class_totals(tally, Conditioning.NONE)
        e2 = math.exp(-2.0 * eta_l * g2a2)
        var_sig = n_sig * (1.0 - e2) * e2 / (1.0 - e2) ** 2
        p_vac = 1.0 - math.exp(-0.5 * eta_l * g2a2)
        var_vac = n_vac * (1.0 - p_vac) / (2.0 * p_vac)
        total = n_sig + n_vac
        var_p = (n_vac**2 * var_sig + n_sig**2 * var_vac) / total**4
        sigma_f = (1.0 - math.exp(-g2a2)) * math.sqrt(var_p)
        assert abs(report["fidelity_standard"] - f_true) < 5.0 * sigma_f

    def test_estimate_write_failure_exits_3_naming_the_path(self, tmp_path, capsys):
        counts = str(tmp_path / "counts.json")
        write_count_table(CountTable(900.0, 10.0, 40.0, 40.0), counts)
        report = str(tmp_path / "no/such/dir/report.json")
        end, _, err = _outcome(capsys, ["estimate", "--counts", counts, "--g2a2", "0.9", "--output", report])
        assert end == ("return", 3)
        assert err.startswith(f"runtime error: cannot write estimate report to {report!r}") and err.count("\n") == 1

    def test_estimate_zero_counts_is_runtime_error(self, tmp_path, capsys):
        path = str(tmp_path / "zero.json")
        write_count_table(CountTable(0.0, 0.0, 0.0, 0.0), path)
        assert run_cli(["estimate", "--counts", path, "--g2a2", "0.9"]) == 3
        assert "runtime error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--g2a2", "nan"), ("--g2a2", "inf"), ("--g2a2", "0"), ("--g2a2", "-1"),
        ("--eta-l", "nan"), ("--eta-l", "0"), ("--eta-l", "-0.5"), ("--eta-l", "1.5"),
    ])
    def test_estimate_rejects_bad_arguments(self, tmp_path, capsys, flag, value):
        path = str(tmp_path / "counts.json")
        write_count_table(CountTable(900.0, 10.0, 40.0, 40.0), path)
        # the last occurrence of a flag wins
        args = ["estimate", "--counts", path, "--g2a2", "0.9", "--eta-l", "0.39", flag, value]
        assert run_cli(args) == 2
        self.assert_one_line_config_error(capsys)

    @pytest.mark.parametrize("grid", [
        f"0.1:2.9:{cli.MAX_ALPHA_SQ_POINTS + 1}",
        "0.1:2.9:99999999999999999999",
        pytest.param(",".join(["0.5"] * (cli.MAX_ALPHA_SQ_POINTS + 1)),
                     id=f"{cli.MAX_ALPHA_SQ_POINTS + 1}-values"),
    ])
    def test_rejects_oversized_alpha_sq_grid(self, tmp_path, capsys, grid):
        config = tmp_path / "huge.ini"
        config.write_text(f"[sweep]\nalpha_sq = {grid}\n")
        assert run_cli(["sweep", "--config", str(config)]) == 2
        self.assert_one_line_config_error(capsys)
        assert run_cli(["figure", "--id", "fig3a", "--alpha-sq", grid]) == 2
        self.assert_one_line_config_error(capsys)

    def test_estimate_missing_counts_file(self, tmp_path, capsys):
        path = str(tmp_path / "no" / "such.json")
        assert run_cli(["estimate", "--counts", path, "--g2a2", "0.9"]) == 2
        self.assert_one_line_config_error(capsys)

    def test_estimate_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert run_cli(["estimate", "--counts", str(path), "--g2a2", "0.9"]) == 2

    @pytest.mark.parametrize(
        "value",
        [None, True, False, [1], {"n": 1}, "abc", ""],
        ids=["null", "true", "false", "list", "object", "word", "empty"],
    )
    def test_estimate_rejects_non_numeric_count(self, tmp_path, capsys, value):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({"n_A_sig": value, "n_B_sig": 1, "n_A_vac": 1, "n_B_vac": 1}))
        assert run_cli(["estimate", "--counts", str(path), "--g2a2", "0.9"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: n_A_sig must be a real number") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "value", [1e308, "1e308", 2**53 + 1, float(2**53 + 2), pytest.param(10**300, id="10**300"),
                  pytest.param(10**400, id="10**400")]
    )
    def test_estimate_rejects_counts_above_two_to_the_53(self, tmp_path, capsys, value):
        # above 2^53 a float holds no exact count, and 1e308 drove the estimate to inf/nan
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({name: value for name in ("n_A_sig", "n_B_sig", "n_A_vac", "n_B_vac")}))
        assert run_cli(["estimate", "--counts", str(path), "--g2a2", "0.9", "--eta-l", "0.39"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: n_A_sig must lie in [0, 2^53]") and err.count("\n") == 1

    @pytest.mark.parametrize("g2a2, eta_l", [("0.9", "0.39"), ("1.0000001e-12", "1")])
    def test_estimate_at_the_count_bound_is_finite(self, tmp_path, g2a2, eta_l):
        path = str(tmp_path / "counts.json")
        write_count_table(CountTable(2.0**53, 2.0**53, 2.0**53, 2.0**53), path)
        report_path = tmp_path / "report.json"
        for denominator in ("doubled", "per-port"):
            assert run_cli(["estimate", "--counts", path, "--g2a2", g2a2, "--eta-l", eta_l,
                            "--vacuum-denominator", denominator, "--output", str(report_path)]) == 0
            report = json.loads(report_path.read_text())
            assert all(math.isfinite(v) for v in report.values() if isinstance(v, float))


def _outcome(capsys, args):
    """How one cli.main call ends, with everything it printed.

    A return and argparse's SystemExit stay apart, so a usage error (which
    exits) is not mistaken for a ConfigError (which returns 2).
    """
    try:
        end = ("return", cli.main(list(args)))
    except SystemExit as exc:
        end = ("exit", exc.code)
    out, err = capsys.readouterr()
    return end, out, err


def _alone(capsys, args):
    """The outcome of a call made with a newly built parser, as in a fresh process."""
    cli._parser.cache_clear()
    return _outcome(capsys, args)


def _small_inputs(tmp_path):
    """A four-point sweep config and a count table, for calls cheap enough to repeat."""
    config = tmp_path / "small.ini"
    config.write_text("[sweep]\nalpha_sq = 0.3,0.9\nn_states = 2,4\nn_pulses = 50000\n")
    counts = str(tmp_path / "counts.json")
    write_count_table(CountTable(900.0, 10.0, 40.0, 40.0), counts)
    return str(config), counts


def _subprocess_env() -> dict:
    """This environment, with this scamp first on the path and UTF-8 output."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": "utf-8"}


class TestParserTables:
    """The parser reads its choices, defaults and help from the library's tables."""

    @staticmethod
    def action(parser, command, dest):
        sub = next(a for a in parser._actions if a.dest == "command").choices[command]
        return next(a for a in sub._actions if a.dest == dest)

    def test_vacuum_denominator_choices_are_the_table(self):
        action = self.action(cli.build_parser(), "estimate", "vacuum_denominator")
        assert tuple(action.choices) == tuple(VACUUM_DENOMINATORS)
        assert action.default == DEFAULT_VACUUM_DENOMINATOR in VACUUM_DENOMINATORS

    def test_eta_l_default_is_the_default_detector(self, monkeypatch):
        action = self.action(cli.build_parser(), "estimate", "eta_l")
        assert action.default == params.default_detector().eta_l() == 0.405 * 0.965
        # a new default detector reaches the flag's default
        monkeypatch.setattr(params, "default_detector", lambda: DetectorModel(0.5, 0.25))
        assert self.action(cli.build_parser(), "estimate", "eta_l").default == 0.125

    def test_figure_id_help_lists_every_layout(self):
        assert self.action(cli.build_parser(), "figure", "id").help == " | ".join(FIGURE_LAYOUTS)


class TestParserReuse:
    """cli.main builds its parser once per process and reuses it for every call."""

    def test_reuse_leaks_nothing_between_calls(self, tmp_path, capsys):
        _, counts = _small_inputs(tmp_path)
        calls = [
            ["sweep", "--seed", "5", "--mode", "both", "--format", "json"],
            ["sweep"],
            ["sweep", "--mode", "bogus"],
            ["estimate", "--counts", counts, "--g2a2", "0.9"],
            ["sweep"],
        ]
        cli._parser.cache_clear()
        in_sequence = [_outcome(capsys, args) for args in calls]
        assert cli._parser.cache_info().misses == 1
        assert in_sequence == [_alone(capsys, args) for args in calls]

        end, out, err = in_sequence[1]
        assert end == ("return", 0) and err == ""
        assert out.splitlines()[0] == ",".join(BASE_COLUMNS)
        end, out, err = in_sequence[2]
        assert end == ("exit", 2) and out == ""
        assert err.startswith("usage: scamp sweep") and "invalid choice: 'bogus'" in err
        # the flags of one call are unset in the next
        parser = cli._parser()
        parser.parse_args(calls[0])
        args = parser.parse_args(["sweep"])
        assert (args.seed, args.mode, args.format) == (None, None, None)

    def test_one_parser_per_process(self, tmp_path, monkeypatch, capsys):
        config, counts = _small_inputs(tmp_path)
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        assert cli.main(["sweep", "--config", config]) == 0
        assert cli.main(["estimate", "--counts", counts, "--g2a2", "0.9"]) == 0
        assert cli.main(["sweep", "--config", config, "--mode", "both", "--seed", "3"]) == 0
        capsys.readouterr()
        assert len(built) == 1
        assert cli._parser() is cli._parser()
        # build_parser() itself still returns a new parser each time
        assert build() is not build()

    def test_in_process_call_equals_fresh_process(self, tmp_path, capsys):
        config, counts = _small_inputs(tmp_path)
        calls = [
            ["sweep", "--config", config],
            ["sweep", "--config", config, "--format", "json"],
            ["sweep", "--config", config, "--mode", "both", "--seed", "11"],
            ["sweep", "--config", config, "--mode", "both", "--seed", "11", "--format", "json"],
            ["figure", "--id", "fig3a"],
            ["figure", "--id", "fig3b"],
            ["figure", "--id", "fig4"],
            ["selfcheck"],
            ["estimate", "--counts", counts, "--g2a2", "0.9"],
        ]

        def fresh(args):
            proc = subprocess.run([sys.executable, "-m", "scamp.cli", *args],
                                  capture_output=True, env=_subprocess_env(), check=False)
            return ("return", proc.returncode), proc.stdout.decode(), proc.stderr.decode()

        forward = [_outcome(capsys, args) for args in calls]
        backward = [_outcome(capsys, args) for args in reversed(calls)][::-1]
        assert [end for end, _, _ in forward] == [("return", 0)] * len(calls)
        assert forward[calls.index(["selfcheck"])][1].splitlines()[-1] == "selfcheck passed"
        for args, a, b in zip(calls, forward, backward):
            expected = fresh(args)
            assert a == expected, args
            assert b == expected, args

    def test_parser_is_not_built_at_import(self):
        probe = "import scamp.cli as cli; print(cli._parser.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=_subprocess_env(), check=True)
        assert proc.stdout == "0\n"


_floats = st.floats(allow_nan=True, allow_infinity=True).map(repr)
_ints = st.integers(min_value=-3, max_value=1 << 64).map(str)
_junk = st.sampled_from(["", "abc", "1e", "0x10", "auto"])
# above the size bounds, so rejected before anything is allocated
_oversized = st.sampled_from(["257", "65537", "99999999999999999999"])
_oversized_count = st.sampled_from([cli.MAX_ALPHA_SQ_POINTS + 1, 1_000_000, 10**20])
# the least and the largest subnormal, and 1 - ulp
_TINY = ("5e-324", repr(math.nextafter(sys.float_info.min, 0.0)))
_BELOW_ONE = repr(math.nextafter(1.0, 0.0))
_unit_interval = st.one_of(
    st.sampled_from(["0", *_TINY, _BELOW_ONE, "1"]), st.floats(min_value=0.0, max_value=1.0).map(repr)
)
# about the largest alpha_sq at which SweepSpec's analyzer bound, the intensity
# 4*(t2^2/r1^2)*alpha_sq doubled, is finite at the default splitters; the values
# drawn around it fall on both sides of the bound
_ALPHA_SQ_EDGE = sys.float_info.max / (8.0 * params.SUBTRACTION_TRANSMISSION / params.COMPARISON_REFLECTIVITY)
_near_alpha_sq_edge = st.sampled_from(
    [repr(_ALPHA_SQ_EDGE * f) for f in (0.999, 1.0, 1.001)]
    + [repr(math.nextafter(_ALPHA_SQ_EDGE, d)) for d in (0.0, math.inf)]
)
# a valid base config; each example overrides up to three of its values.
# Sizes stay bounded: the grid, n_states and phase_points set a point's work,
# so up to 256 states are drawn at few pulses and 8 phase points.
_BASE_CONFIG = {
    ("sweep", "alpha_sq"): "0.5",
    ("sweep", "n_states"): "2",
    ("sweep", "n_pulses"): "1000",
    ("sweep", "phase_points"): "8",
}
_FUZZ_VALUES = {
    ("sweep", "alpha_sq"): st.one_of(
        st.lists(_floats, min_size=1, max_size=3).map(",".join),
        st.tuples(_floats, _floats, st.one_of(st.integers(-1, 3), _oversized_count)).map(
            lambda t: f"{t[0]}:{t[1]}:{t[2]}"
        ),
        st.sampled_from(_TINY),
        _near_alpha_sq_edge,
        _junk,
    ),
    ("sweep", "n_states"): st.one_of(
        st.lists(st.integers(-1, 8), min_size=1, max_size=3).map(lambda ns: ",".join(map(str, ns))),
        st.sampled_from(["255", "256", "1,256"]),
        _oversized,
        _junk,
    ),
    # "montecarlo" and "exact" are not modes
    ("sweep", "mode"): st.sampled_from(["analytic", "montecarlo", "both", "exact"]),
    ("sweep", "n_pulses"): st.one_of(_ints, _floats, _junk),
    ("sweep", "seed"): st.one_of(_ints, _junk),
    ("sweep", "prf"): st.one_of(st.sampled_from(_TINY), _floats, _junk),
    ("sweep", "epsilon"): st.one_of(st.sampled_from(_TINY + (_BELOW_ONE,)), _floats, _junk),
    ("sweep", "phase_points"): st.one_of(st.integers(-2, 64).map(str), _oversized, _junk),
    ("amplifier", "comparison_reflectivity"): st.one_of(_unit_interval, _floats, _junk),
    ("amplifier", "subtraction_transmission"): st.one_of(_unit_interval, _floats, _junk),
    **{
        (section, key): st.one_of(_unit_interval, _floats, _junk)
        for section in cli._DETECTOR_SECTIONS
        for key in ("efficiency", "loss", "dark_prob")
    },
    ("output", "format"): st.sampled_from(["csv", "json", "xml", ""]),
}
_overrides = st.lists(st.sampled_from(sorted(_FUZZ_VALUES)), max_size=3, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({k: _FUZZ_VALUES[k] for k in keys})
)


def test_fuzz_draws_every_config_key():
    # the output path is left out: the fuzz writes its rows to stdout
    schema = {(section, key) for section, keys in cli._SCHEMA.items() for key in keys}
    assert set(_FUZZ_VALUES) == schema - {("output", "path")}


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    overrides=_overrides,
    mode=st.sampled_from([None, "analytic", "both"]),
    workers=st.one_of(st.none(), st.integers(-3, 4)),
)
@example(overrides={("sweep", "alpha_sq"): "nan"}, mode=None, workers=None)
@example(overrides={("sweep", "prf"): "nan"}, mode=None, workers=None)
@example(overrides={}, mode="both", workers=0)
@example(overrides={("detector.da", "efficiency"): "0"}, mode="both", workers=None)
@example(overrides={("sweep", "phase_points"): "99999999999999999999"}, mode=None, workers=None)
@example(overrides={("sweep", "alpha_sq"): "0.1:2.9:1000000"}, mode=None, workers=None)
@example(overrides={("sweep", "n_states"): "2,2,2"}, mode="both", workers=None)
@example(overrides={("sweep", "n_states"): "256"}, mode="both", workers=None)
@example(overrides={("sweep", "mode"): "montecarlo"}, mode=None, workers=None)
@example(overrides={("sweep", "alpha_sq"): repr(_ALPHA_SQ_EDGE), ("sweep", "epsilon"): "0"},
         mode=None, workers=None)
@example(overrides={("detector.d0", "dark_prob"): _BELOW_ONE, ("detector.d1", "efficiency"): "0"},
         mode="both", workers=None)
@example(overrides={("amplifier", "comparison_reflectivity"): "1e-310", ("sweep", "epsilon"): "0"},
         mode=None, workers=None)
@example(overrides={("amplifier", "comparison_reflectivity"): "5e-324", ("sweep", "epsilon"): "0"},
         mode="both", workers=None)
def test_sweep_exit_code_is_documented(tmp_path, capsys, overrides, mode, workers):
    values = {**_BASE_CONFIG, **overrides}
    args = ["sweep", "--config", _write_config(tmp_path / "fuzz.ini", values)]
    if mode is not None:
        args += ["--mode", mode]
    if workers is not None:
        args += ["--workers", str(workers)]
    _assert_documented_exit(capsys, args, BASE_COLUMNS)
    # every figure on the same draws, less the keys a figure fixes
    figure_config = _write_config(
        tmp_path / "fuzz-figure.ini", {k: v for k, v in values.items() if k not in _FIGURE_REJECTS}
    )
    for figure_id, (_, _, columns) in sorted(FIGURE_LAYOUTS.items()):
        _assert_documented_exit(capsys, ["figure", "--id", figure_id, "--config", figure_config], columns)


def _assert_documented_exit(capsys, args, columns):
    """``cli.main(args)`` exits 0, 2 or 3; a clean exit prints nothing on
    stderr, and rows whose ``columns`` are finite, with visibilities in [0, 1]."""
    code = run_cli(args)
    assert code in (0, 2, 3)
    out, err = capsys.readouterr()
    if code == 0:
        assert err == ""
        rows = json.loads(out)["rows"] if out.startswith("{") else list(csv.DictReader(out.splitlines()))
        assert rows
        for row in rows:
            assert all(row[c] is not None and math.isfinite(float(row[c])) for c in columns), (args, row)
            assert all(0.0 <= float(row[c]) <= 1.0 for c in columns if c.startswith("visibility_"))


# The visibility scan grid and the state-set members are the same exact turns
# (amplifier.turn), so a reference that the correct branch should cancel is nulled
# however bright it is, up to the analyzer-overflow bound; and no column reads
# the (auto) epsilon, which rounds to 1 above alpha_sq of about 800.
_SCAN_COMMANDS = {
    "fig3a": (["figure", "--id", "fig3a"], ""),
    "analytic": (["sweep", "--mode", "analytic"], "n_states = 2\n"),
    "both": (["sweep", "--mode", "both"], "n_states = 2\n"),
}
_SCAN_ROWS_AT_1E15 = {
    "fig3a": "1000000000000000,0.33332938667834877,0.99998224015770742,0.99998224015770742",
    "analytic": "2,1000000000000000,1,1,0.49999556000000001,499995.56,"
                "0.33332938667834877,0.99998224015770742,0.99998224015770742",
    "both": "2,1000000000000000,1,1,0.49999556000000001,499995.56,"
            "0.33332938667834877,0.99998224015770742,0.99998224015770742,"
            "0.499,0.015811356678033673,1,0,1,0,1000,13729193726644583001",
}
_VISIBILITY_COLUMNS = ("visibility_unconditioned", "visibility_d0_silent", "visibility_conditioned")


def _bright_outcome(tmp_path, capsys, command, alpha_sq):
    args, extra = _SCAN_COMMANDS.get(command, (["figure", "--id", command], ""))
    config = tmp_path / "bright.ini"
    config.write_text(f"[sweep]\nn_pulses = 1000\nalpha_sq = {alpha_sq}\n{extra}")
    return _outcome(capsys, args + ["--config", str(config)])


@pytest.mark.parametrize("command", sorted(_SCAN_COMMANDS))
@pytest.mark.parametrize("alpha_sq", ["800", "1e32", repr(_ALPHA_SQ_EDGE)])
def test_bright_point_prints_its_visibilities(tmp_path, capsys, command, alpha_sq):
    end, out, err = _bright_outcome(tmp_path, capsys, command, alpha_sq)
    assert (end, err) == (("return", 0), "")
    [row] = csv.DictReader(out.splitlines())
    assert all(0.0 <= float(row[c]) <= 1.0 for c in _VISIBILITY_COLUMNS)


@pytest.mark.parametrize("command", sorted(_SCAN_COMMANDS))
def test_scan_below_its_bound_prints_the_same_rows(tmp_path, capsys, command):
    end, out, err = _bright_outcome(tmp_path, capsys, command, "1e15")
    assert (end, err) == (("return", 0), "")
    assert out.splitlines()[1:] == [_SCAN_ROWS_AT_1E15[command]]


@pytest.mark.parametrize("n_states", [2, 8])
@pytest.mark.parametrize("alpha_sq", [1e15, 1e32])
def test_bright_visibilities_match_a_40_digit_scan(alpha_sq, n_states):
    pytest.importorskip("mpmath")
    spec = SweepSpec(alpha_sq_grid=(alpha_sq,), n_states_list=(n_states,))
    [row] = run_sweep(spec).rows
    expected = oracles.visibilities_mp(params.default_amplifier(alpha_sq, n_states), spec.detectors,
                                       spec.phase_points)
    assert [row[c] for c in _VISIBILITY_COLUMNS] == pytest.approx(expected, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("figure_id", ["fig3b", "fig3c", "fig3d", "fig4"])
def test_figure_without_visibility_is_not_refused_by_the_scan(tmp_path, capsys, figure_id):
    end, out, err = _bright_outcome(tmp_path, capsys, figure_id, "1e32")
    assert (end, err) == (("return", 0), "")
    [row] = csv.DictReader(out.splitlines())
    assert all(math.isfinite(float(value)) for value in row.values())


def test_half_turn_at_a_large_gain_prints_its_rows(tmp_path, capsys):
    # gain t2/r1 = 6.6e64 makes the reference 5.1e44 photons; the half-turn
    # member's branch cancels it exactly, where a half turn off in its last bit
    # would leave 2.77e6j of field
    config = tmp_path / "gain.ini"
    config.write_text(
        "[amplifier]\ncomparison_reflectivity = 2.27e-130\nsubtraction_transmission = 1\n"
        "[sweep]\nn_states = 8\nalpha_sq = 1.16e-85\nn_pulses = 1000\n"
    )
    end, out, err = _outcome(capsys, ["sweep", "--mode", "both", "--config", str(config)])
    assert (end, err) == (("return", 0), "")
    [row] = csv.DictReader(out.splitlines())
    assert all(0.0 <= float(row[c]) <= 1.0 for c in _VISIBILITY_COLUMNS)


# Every config key must reach an output.  _LIVE_BASE is a valid sweep config;
# _LIVE_VALUES holds another valid value for each key, and setting any one of
# them must change the sweep CSV.  The table must cover cli._SCHEMA exactly,
# so a key added without a visible effect fails here.
_LIVE_BASE = {
    ("amplifier", "comparison_reflectivity"): "0.3",
    ("sweep", "mode"): "both",
    ("sweep", "n_pulses"): "4096",
    ("sweep", "alpha_sq"): "0.5,1.0",
    ("sweep", "n_states"): "2,4",
}
_LIVE_VALUES = {
    ("amplifier", "comparison_reflectivity"): "0.4",
    ("amplifier", "subtraction_transmission"): "0.8",
    ("sweep", "alpha_sq"): "0.5,1.5",
    ("sweep", "n_states"): "2,3",
    ("sweep", "mode"): "analytic",
    ("sweep", "n_pulses"): "8192",
    ("sweep", "seed"): "7",
    ("sweep", "prf"): "2e6",
    ("sweep", "phase_points"): "8",
    **{
        (section, key): value
        for section in cli._DETECTOR_SECTIONS
        for key, value in (("efficiency", "0.6"), ("loss", "0.7"), ("dark_prob", "0.01"))
    },
}
_LIVE_EXEMPT = {
    # epsilon enters no column yet: the analyzer's reference imperfection only
    # has its range checked, and the Monte Carlo does not model it
    ("sweep", "epsilon"),
    # where and how the rows are written, checked by the output tests
    ("output", "path"),
    ("output", "format"),
}
# a figure fixes its state-set size and the analytic mode
_FIGURE_REJECTS = {("sweep", "n_states"), ("sweep", "mode")}


def _write_config(path, values):
    sections: dict = {}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    path.write_text("".join(f"[{s}]\n" + "".join(lines) for s, lines in sections.items()))
    return str(path)


def _cli_text(tmp_path, args, values):
    config = _write_config(tmp_path / "live.ini", values)
    out = tmp_path / "live.out"
    code = run_cli(args + ["--config", config, "--output", str(out)])
    return code, out.read_text() if code == 0 else None


def test_every_config_key_is_live(tmp_path, capsys):
    schema = {(section, key) for section, keys in cli._SCHEMA.items() for key in keys}
    assert set(_LIVE_VALUES) | _LIVE_EXEMPT == schema

    figure_base = {k: v for k, v in _LIVE_BASE.items() if k not in _FIGURE_REJECTS}
    figure_ids = sorted(FIGURE_LAYOUTS)

    def figures(values):
        return [_cli_text(tmp_path, ["figure", "--id", fig], values) for fig in figure_ids]

    sweep = ["sweep"]
    analytic = ["sweep", "--mode", "analytic"]
    base = {"sweep": _cli_text(tmp_path, sweep, _LIVE_BASE),
            "analytic": _cli_text(tmp_path, analytic, _LIVE_BASE),
            "figures": figures(figure_base)}
    assert [code for code, _ in [base["sweep"], base["analytic"], *base["figures"]]] == [0] * 7
    dead = []
    for item, value in sorted(_LIVE_VALUES.items()):
        changed = {**_LIVE_BASE, item: value}
        code, text = _cli_text(tmp_path, sweep, changed)
        if code != 0 or text == base["sweep"][1]:
            dead.append(("sweep", item, code))
        if item in _FIGURE_REJECTS:
            # the baseline value is valid for a sweep, but a figure fixes it
            codes = [code for code, _ in figures({**figure_base, item: _LIVE_BASE[item]})]
            if codes != [2] * len(figure_ids):
                dead.append(("figure", item, codes))
            continue
        # a figure reacts to a key exactly when the analytic sweep does
        analytic_moved = _cli_text(tmp_path, analytic, changed) != base["analytic"]
        figure_results = figures({**figure_base, item: value})
        if any(code != 0 for code, _ in figure_results):
            dead.append(("figure", item, [code for code, _ in figure_results]))
        elif (figure_results != base["figures"]) != analytic_moved:
            dead.append(("figure", item, f"analytic sweep moved: {analytic_moved}"))
    capsys.readouterr()
    assert dead == []


# The figure twin of the sweep fuzz: the same draws, but the figure fixes
# n_states and the mode, plus --alpha-sq (with alpha_sq = 0, a D1 that has no
# dark counts never heralds).  A figure is an analytic sweep of one state-set
# size, so it must end as that sweep ends.
_FIGURE_FUZZ_VALUES = {item: values for item, values in _FUZZ_VALUES.items() if item not in _FIGURE_REJECTS}
_figure_overrides = st.lists(
    st.sampled_from(sorted(_FIGURE_FUZZ_VALUES)), max_size=3, unique=True
).flatmap(lambda keys: st.fixed_dictionaries({k: _FIGURE_FUZZ_VALUES[k] for k in keys}))


@settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    figure_id=st.sampled_from(sorted(FIGURE_LAYOUTS)),
    overrides=_figure_overrides,
    alpha_sq=st.one_of(st.none(), st.sampled_from(["0", "800"]), _FUZZ_VALUES[("sweep", "alpha_sq")]),
)
@example(figure_id="fig3b", overrides={("detector.d1", "dark_prob"): "0"}, alpha_sq="0")
@example(figure_id="fig3b", overrides={}, alpha_sq="800")
def test_figure_exit_code_matches_analytic_sweep(tmp_path, capsys, figure_id, overrides, alpha_sq):
    values = {k: v for k, v in _BASE_CONFIG.items() if k not in _FIGURE_REJECTS}
    values.update(overrides)
    args = ["figure", "--id", figure_id, "--config", _write_config(tmp_path / "fig.ini", values)]
    if alpha_sq is not None:
        args.append(f"--alpha-sq={alpha_sq}")
    code = run_cli(args)
    assert code in (0, 2, 3)
    values[("sweep", "n_states")] = str(FIGURE_LAYOUTS[figure_id][0])
    if alpha_sq is not None:
        # --alpha-sq replaces the config's grid, but the figure still reads the
        # whole config, so a config alpha_sq that does not parse exits 2
        try:
            cli._parse_alpha_grid(values.get(("sweep", "alpha_sq"), "0"))
        except ValueError:
            assert code == 2
            return
        values[("sweep", "alpha_sq")] = alpha_sq
    capsys.readouterr()
    sweep = ["sweep", "--mode", "analytic", "--config", _write_config(tmp_path / "sweep.ini", values)]
    assert run_cli(sweep) == code
    capsys.readouterr()


def test_readme_config_example_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    (tmp_path / "run.ini").write_text(block)
    monkeypatch.chdir(tmp_path)
    assert run_cli(["sweep", "--config", "run.ini"]) == 0
    assert len(read_csv_rows("sweep.csv")) == 87


def _bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _linspace_args(draw):
    start = draw(_finite)
    stop = draw(st.one_of(
        _finite,  # any span, descending ones and overflowing ones included
        st.just(start),
        st.integers(-64, 64).map(lambda k: start + k * math.ulp(start)),  # a few ulps wide
        st.floats(-1e-300, 1e-300).map(lambda d: start + d),
    ))
    count = draw(st.one_of(st.just(1), st.integers(1, 64), st.integers(1, cli.MAX_ALPHA_SQ_POINTS)))
    return start, stop, count


@settings(max_examples=400, derandomize=True, deadline=None)
@given(args=_linspace_args())
@example(args=(0.1, 2.9, 29))
@example(args=(0.5, 0.5, 1))
@example(args=(0.5, 0.5, 7))
@example(args=(2.9, -0.1, 29))
@example(args=(-3.0, -1.0, 5))
@example(args=(5e-324, 2e-323, 100))
@example(args=(-1e308, 1e308, 3))
@example(args=(0.0, 1.0, cli.MAX_ALPHA_SQ_POINTS))
def test_linspace_equals_numpy_bit_for_bit(args):
    with np.errstate(all="ignore"):  # an overflowing span warns in numpy only
        expected = np.linspace(*args).tolist()
    assert _bits(params.linspace(*args)) == _bits(expected)


def test_alpha_grid_range_is_unchanged():
    grid = cli._parse_alpha_grid("0.1:2.9:29")
    assert _bits(grid) == _bits(np.linspace(0.1, 2.9, 29).tolist())
    assert all(type(a) is float for a in grid)
