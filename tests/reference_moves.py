"""The move table a regeneration prints: what changed in a committed CSV reference.

``python tests/test_analytic_reference.py`` and ``python
tests/test_montecarlo_reference.py`` print it for the file they overwrite, so
a change that moves pinned values can report them per column.
"""

import csv
import io
import math


def move_table(old: str, new: str) -> str:
    """Per column of two CSV texts with the same header and row count, the
    number of cells whose text changed and the largest relative move among
    them (inf where the old value was 0), one line per column that moved."""
    old_rows = list(csv.reader(io.StringIO(old)))
    new_rows = list(csv.reader(io.StringIO(new)))
    if not old_rows or old_rows[0] != new_rows[0] or len(old_rows) != len(new_rows):
        return "header or row count changed: no per-column moves\n"
    lines = []
    for j, column in enumerate(new_rows[0]):
        moved = [(float(a[j]), float(b[j])) for a, b in zip(old_rows[1:], new_rows[1:]) if a[j] != b[j]]
        if moved:
            largest = max(abs(b - a) / abs(a) if a else math.inf for a, b in moved)
            lines.append(f"{column}: {len(moved)} of {len(new_rows) - 1} values moved,"
                         f" largest relative move {largest:.3g}")
    return "\n".join(lines or ["no value moved"]) + "\n"
