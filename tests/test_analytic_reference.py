"""The analytic sweep columns reproduce the committed reference to the bit.

``perfbench/reference/analytic.csv`` holds every point the benchmark
workloads evaluate, written with 17 significant digits, so equal text means
bit-identical floats.  The analytic model must keep producing exactly these
values across refactors.
"""

import csv
import os

from scamp import sweep

REFERENCE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "reference", "analytic.csv"
)
COLUMNS = (
    "fidelity",
    "correct_state_fraction",
    "success_probability",
    "success_rate_per_s",
    "visibility_unconditioned",
    "visibility_d0_silent",
    "visibility_conditioned",
)


def test_analytic_columns_match_reference_text():
    with open(REFERENCE, newline="") as fh:
        reader = csv.DictReader(fh)
        assert tuple(reader.fieldnames) == ("n_states", "alpha_sq") + COLUMNS
        reference = list(reader)
    assert reference
    by_n_states: dict[int, list[dict]] = {}
    for ref in reference:
        by_n_states.setdefault(int(ref["n_states"]), []).append(ref)
    checked = 0
    mismatches = []
    for n_states, refs in sorted(by_n_states.items()):
        refs.sort(key=lambda ref: float(ref["alpha_sq"]))
        grid = tuple(float(ref["alpha_sq"]) for ref in refs)
        spec = sweep.SweepSpec(alpha_sq_grid=grid, n_states_list=(n_states,))
        for ref, row in zip(refs, sweep.run_sweep(spec).rows):
            assert sweep.fmt17(row["alpha_sq"]) == ref["alpha_sq"]
            for column in COLUMNS:
                if sweep.fmt17(row[column]) != ref[column]:
                    mismatches.append(
                        f"N={n_states} alpha_sq={ref['alpha_sq']} {column}: "
                        f"{sweep.fmt17(row[column])} != {ref[column]}"
                    )
            checked += 1
    assert checked == len(reference)
    assert not mismatches, "\n".join(mismatches[:10])
