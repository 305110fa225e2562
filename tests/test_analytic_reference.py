"""The analytic sweep columns reproduce the committed reference to the bit.

``tests/data/analytic_reference.csv`` holds every point the benchmark
workloads evaluate, written with 17 significant digits, so equal text means
bit-identical floats.  The analytic model must keep producing exactly these
values across refactors.  After an intended change, regenerate it with

    PYTHONPATH=src python tests/test_analytic_reference.py

which prints, per column, how many values moved and the largest relative
move, and say in the change which values moved and why.

The benchmark checks its passes against its own copy of the points,
``perfbench/reference/analytic.csv``, written by an earlier build that
averaged the figures over all N input rows.  The figures of input 0 alone
differ from those averages only by rounding, so every value here must lie
within 4e-15 relative of the benchmark's.
"""

import csv
import os
import sys

import pytest

from scamp import sweep

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "data", "analytic_reference.csv")
BENCHMARK_REFERENCE = os.path.join(HERE, os.pardir, "perfbench", "reference", "analytic.csv")
COLUMNS = (
    "fidelity",
    "correct_state_fraction",
    "success_probability",
    "success_rate_per_s",
    "visibility_unconditioned",
    "visibility_d0_silent",
    "visibility_conditioned",
)


def read(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == ("n_states", "alpha_sq") + COLUMNS
        return list(reader)


def reference_text(points) -> str:
    """The reference file's text at the (n_states, alpha_sq text) ``points``,
    one sweep per state-set size."""
    by_n_states: dict[int, list[str]] = {}
    for n_states, alpha_sq in points:
        by_n_states.setdefault(n_states, []).append(alpha_sq)
    lines = [",".join(("n_states", "alpha_sq") + COLUMNS)]
    for n_states, grid in sorted(by_n_states.items()):
        grid.sort(key=float)
        spec = sweep.SweepSpec(alpha_sq_grid=tuple(map(float, grid)), n_states_list=(n_states,))
        for alpha_sq, row in zip(grid, sweep.run_sweep(spec).rows):
            assert sweep.fmt17(row["alpha_sq"]) == alpha_sq
            lines.append(",".join([str(n_states), alpha_sq] + [sweep.fmt17(row[c]) for c in COLUMNS]))
    return "\n".join(lines) + "\n"


def test_analytic_columns_match_reference_text():
    reference = read(REFERENCE)
    assert reference
    with open(REFERENCE, newline="") as fh:
        expected = fh.read().splitlines()
    actual = reference_text((int(r["n_states"]), r["alpha_sq"]) for r in reference).splitlines()
    assert len(actual) == len(expected)
    mismatches = [f"{a} != {e}" for a, e in zip(actual, expected) if a != e]
    assert not mismatches, "\n".join(mismatches[:10])


def test_reference_is_the_benchmark_reference_up_to_rounding():
    reference, benchmark = read(REFERENCE), read(BENCHMARK_REFERENCE)
    assert [(r["n_states"], r["alpha_sq"]) for r in reference] == [
        (r["n_states"], r["alpha_sq"]) for r in benchmark
    ]
    for ours, theirs in zip(reference, benchmark):
        for column in COLUMNS:
            assert float(ours[column]) == pytest.approx(float(theirs[column]), rel=4e-15, abs=0.0), (
                f"N={ours['n_states']} alpha_sq={ours['alpha_sq']} {column}"
            )


if __name__ == "__main__":
    from reference_moves import move_table

    points = [(int(r["n_states"]), r["alpha_sq"]) for r in read(BENCHMARK_REFERENCE)]
    text = reference_text(points)
    with open(REFERENCE) as fh:
        previous = fh.read()
    with open(REFERENCE, "w") as fh:
        fh.write(text)
    sys.stdout.write(f"wrote {len(points)} points to {REFERENCE}\n" + move_table(previous, text))
