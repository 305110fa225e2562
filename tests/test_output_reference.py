"""Every printed output reproduces its committed reference byte for byte.

A refactor that promises unchanged output is held to it here: the five
``figure`` CSVs, an analytic ``sweep --format json`` (which pins the spec
echo), a ``--mode both`` JSON sweep of a non-default config, ``estimate`` on
a fixed count table (stdout and the ``--output`` report), the ``selfcheck``
lines, the ``--help`` texts of ``sweep``, ``figure`` and ``estimate`` (a fresh
process at ``COLUMNS=80``), and each demo's stdout and the files it writes,
run from a temporary directory.  The demos run with matplotlib hidden, so their text does not
depend on whether it is installed.  No CSV output builds the JSON spec
echo.  The files live in ``tests/data/outputs``; after an intended change,
regenerate them with

    PYTHONPATH=src python tests/test_output_reference.py

and say in the change which files moved and why.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import scamp.cli as cli
from scamp import params
from scamp.sweep import Dataset, SweepSpec, dataset_to_csv
from test_montecarlo_reference import REFERENCE as MC_REFERENCE, sweep_csv

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_DIR = ROOT / "tests" / "data" / "outputs"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FIGURE_IDS = ("fig3a", "fig3b", "fig3c", "fig3d", "fig4")
COUNTS = '{"n_A_sig": 900, "n_B_sig": 10, "n_A_vac": 40, "n_B_vac": 40}\n'
# r1^2 = 0.3, unlike analyzer detectors with dark counts, N in {2, 3, 4, 8}, 64 phase points
CONFIG = """\
[amplifier]
comparison_reflectivity = 0.3
[detector.da]
efficiency = 0.6
loss = 0.9
dark_prob = 0.004
[detector.db]
efficiency = 0.3
loss = 0.8
dark_prob = 0.02
[sweep]
alpha_sq = 0.3,0.9,1.7
n_states = 2,3,4,8
phase_points = 64
n_pulses = 4096
seed = 3
"""
# a demo run as a script, with ``import matplotlib`` failing as when it is not installed
_DEMO_RUNNER = (
    "import runpy, sys; sys.modules['matplotlib'] = None; sys.argv = sys.argv[1:];"
    " runpy.run_path(sys.argv[0], run_name='__main__')"
)


@contextlib.contextmanager
def _inside(directory):
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def _cli(argv) -> bytes:
    """The stdout of an in-process ``cli.main(argv)`` that exits 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, argv
    return out.getvalue().encode()


def _figure(figure_id):
    return lambda workdir: {f"figure_{figure_id}.csv": _cli(["figure", "--id", figure_id])}


def _sweeps(workdir):
    (workdir / "run.ini").write_text(CONFIG)
    return {
        "sweep_analytic.json": _cli(["sweep", "--format", "json"]),
        "sweep_both_config.json": _cli(["sweep", "--config", "run.ini", "--mode", "both", "--format", "json"]),
    }


def _estimate(workdir):
    (workdir / "counts.json").write_text(COUNTS)
    doubled = _cli(["estimate", "--counts", "counts.json", "--g2a2", "0.9", "--eta-l", "0.39"])
    per_port = _cli(["estimate", "--counts", "counts.json", "--g2a2", "1.69", "--eta-l", "0.39",
                     "--vacuum-denominator", "per-port", "--output", "report.json"])
    return {"estimate.txt": doubled + per_port, "estimate_report.json": (workdir / "report.json").read_bytes()}


def _selfcheck(workdir):
    return {"selfcheck.txt": _cli(["selfcheck"])}


def _env(**extra) -> dict:
    src = str(ROOT / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            **extra}


def _help(workdir):
    # argparse wraps its help text to the terminal width, which it reads from COLUMNS
    return {
        f"help_{command}.txt": subprocess.run([sys.executable, "-m", "scamp.cli", command, "--help"],
                                              env=_env(COLUMNS="80"), capture_output=True,
                                              check=True).stdout
        for command in ("sweep", "figure", "estimate")
    }


def _demo(script):
    def run(workdir):
        proc = subprocess.run([sys.executable, "-c", _DEMO_RUNNER, str(script)], cwd=workdir, env=_env(),
                              capture_output=True, check=True)
        outputs = {f"demo_{script.stem}.txt": proc.stdout}
        written = workdir / "demo_output"
        if written.is_dir():
            for path in sorted(written.iterdir()):
                outputs[f"demo_{script.stem}_{path.name}"] = path.read_bytes()
        return outputs

    return run


CASES = {
    **{f"figure-{figure_id}": _figure(figure_id) for figure_id in FIGURE_IDS},
    "sweep": _sweeps,
    "estimate": _estimate,
    "selfcheck": _selfcheck,
    "help": _help,
    **{f"demo-{script.stem}": _demo(script) for script in DEMOS},
}


def outputs(case: str, workdir: Path) -> dict[str, bytes]:
    """File name -> the bytes case ``case`` prints or writes, run inside ``workdir``."""
    with _inside(workdir):
        return CASES[case](workdir)


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_reference(case, tmp_path, capsys):
    for name, data in outputs(case, tmp_path).items():
        assert data == (REFERENCE_DIR / name).read_bytes(), name
    capsys.readouterr()


def test_csv_output_never_builds_the_spec_echo(tmp_path, capsys, monkeypatch):
    # only JSON prints the echo, so every CSV output keeps its pinned bytes
    # without it; the default sweep's CSV is the rows of its JSON pin
    default_spec = SweepSpec(params.FIG3_ALPHA_SQ_GRID, (2, 4, 8))
    pinned_rows = json.loads((REFERENCE_DIR / "sweep_analytic.json").read_text())["rows"]
    pinned_sweep_csv = dataset_to_csv(Dataset(default_spec, pinned_rows)).encode()

    def refuse(self):
        raise AssertionError("a CSV output built the spec echo")

    monkeypatch.setattr(SweepSpec, "echo", refuse)
    assert _cli(["sweep"]) == pinned_sweep_csv
    assert sweep_csv(str(tmp_path)) == Path(MC_REFERENCE).read_bytes()
    for figure_id in FIGURE_IDS:
        assert _cli(["figure", "--id", figure_id]) == (REFERENCE_DIR / f"figure_{figure_id}.csv").read_bytes()
    capsys.readouterr()


if __name__ == "__main__":
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as directory:
            for name, data in outputs(case, Path(directory)).items():
                (REFERENCE_DIR / name).write_bytes(data)
                sys.stdout.write(f"wrote {REFERENCE_DIR / name}\n")
