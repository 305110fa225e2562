"""Write the analytic reference the benchmark checks every pass against.

Run from the repository root, at the commit whose analytic output is the
reference (the commit the benchmark was defined on):

    python3 perfbench/make_reference.py

It evaluates every (n_states, alpha_sq) point any workload computes with
``sweep.run_sweep`` at the default parameters and writes the analytic
columns as 17-significant-digit text to ``perfbench/reference/analytic.csv``.
Equal text means bit-identical floats, so the benchmark can count
bit-exact points as well as check them against its tolerance.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from scamp import sweep  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    columns = ("n_states", "alpha_sq") + workloads.ANALYTIC_COLUMNS
    lines = [",".join(columns)]
    for n_states, alpha_sq in sorted(workloads.reference_points()):
        spec = sweep.SweepSpec(alpha_sq_grid=(alpha_sq,), n_states_list=(n_states,))
        row = sweep.run_sweep(spec).rows[0]
        lines.append(",".join([str(n_states), sweep.fmt17(alpha_sq)]
                              + [sweep.fmt17(row[c]) for c in workloads.ANALYTIC_COLUMNS]))
    with open(workloads.REFERENCE_PATH, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} points to {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
