"""Which entry points import numpy, checked in fresh interpreters.

numpy is imported only by code that computes with arrays: the analytic
visibility scan, the Monte Carlo and selfcheck.  ``import scamp``, the
estimator, the figures without a visibility column and a rejected config run
without it; the Monte Carlo names of the package load on first use.  The
benchmark's modules import every package name they use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_CLI_PROBE = """
import json, sys
import scamp.cli
code = scamp.cli.main({argv!r})
print(json.dumps({{"code": code, "numpy": "numpy" in sys.modules}}))
"""


def _fresh(code: str, cwd) -> object:
    """Run ``code`` in a new interpreter and decode the JSON of its last stdout line."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, cwd=cwd, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["scamp", "scamp.cli"])
def test_import_leaves_numpy_unloaded(tmp_path, module):
    probe = f"import json, sys, {module}; print(json.dumps('numpy' in sys.modules))"
    assert _fresh(probe, tmp_path) is False


@pytest.mark.parametrize("argv, code, numpy", [
    (["figure", "--id", "fig3b"], 0, False),
    (["figure", "--id", "fig3c"], 0, False),
    (["figure", "--id", "fig3d"], 0, False),
    (["figure", "--id", "fig4"], 0, False),
    (["estimate", "--counts", "counts.json", "--g2a2", "0.9"], 0, False),
    (["sweep", "--config", "missing.ini"], 2, False),
    # the visibility scan computes with numpy, so the probe does see it load
    (["figure", "--id", "fig3a"], 0, True),
])
def test_command_loads_numpy_only_to_compute_with_it(tmp_path, argv, code, numpy):
    counts = {"n_A_sig": 900, "n_B_sig": 10, "n_A_vac": 40, "n_B_vac": 40}
    (tmp_path / "counts.json").write_text(json.dumps(counts))
    assert _fresh(_CLI_PROBE.format(argv=argv), tmp_path) == {"code": code, "numpy": numpy}


def test_every_public_name_resolves(tmp_path):
    probe = """
import json, sys, scamp
listed = set(dir(scamp))
print(json.dumps({
    "unlisted": [name for name in scamp.__all__ if name not in listed],
    "resolved": all(getattr(scamp, name) is not None for name in scamp.__all__),
    "one_bank": scamp.DetectorBank is scamp.montecarlo.DetectorBank,
    "numpy": "numpy" in sys.modules,
}))
"""
    # resolving the Monte Carlo names imports scamp.montecarlo, and numpy with it
    assert _fresh(probe, tmp_path) == {"unlisted": [], "resolved": True, "one_bank": True, "numpy": True}


def test_benchmark_modules_import(tmp_path):
    # perfbench/run.py imports tracing and workloads on every run, and they import
    # package names by name: a package change that drops one fails here
    perfbench = str(SRC.parent / "perfbench")
    probe = (f"import json, sys; sys.path.insert(0, {perfbench!r}); import tracing, workloads; "
             "print(json.dumps(True))")
    assert _fresh(probe, tmp_path) is True


_BENCHMARK_CALLS = """
import json, math, sys
sys.path.insert(0, {perfbench!r})
import tracing, workloads
from scamp import sweep
spec = sweep.SweepSpec(alpha_sq_grid=(0.5,), n_states_list=(2,), mode="both", n_pulses=4096)
tracer = tracing.Tracer()
columns = {{**tracing.replay_analytic_row(tracer, spec, 2, 0.5),
            **tracing.replay_montecarlo_columns(tracer, spec, 2, 0.5, 7)}}
mc_sweep = workloads.McSweep(1, {tmpdir!r}, workloads.Reference())
print(json.dumps({{"finite": all(map(math.isfinite, columns.values())), "columns": len(columns),
                  "worker_failures": mc_sweep.worker_failures(2, 0.5, 7)}}))
"""


def test_benchmark_calls_run(tmp_path):
    # the calls perfbench makes at run time: one analytic row and the Monte Carlo
    # columns of its traced replay, and its worker check; whether the replay matches
    # the sweep bit for bit is the benchmark's own report, not checked here
    probe = _BENCHMARK_CALLS.format(perfbench=str(SRC.parent / "perfbench"), tmpdir=str(tmp_path))
    assert _fresh(probe, tmp_path) == {"finite": True, "columns": 12, "worker_failures": []}


def test_unknown_name_is_an_attribute_error():
    import scamp

    with pytest.raises(AttributeError, match="no attribute 'simulate'"):
        scamp.simulate
