"""The Monte Carlo output reproduces its committed reference byte for byte.

Two things are pinned: the ``scamp sweep --mode both`` CSV of a small grid
(``tests/data/mc_sweep_reference.csv``) and the sha256 of one 8-phase-bin
``simulate_run`` tally with unlike analyzer detectors and dark counts.  Both
pin the cell probabilities of the model and also numpy's
``Generator.multinomial`` stream (PCG64 seeded by the master seed), so a
numpy release that changes that stream fails them with no change to scamp.
After an intended change, regenerate the data with

    PYTHONPATH=src python tests/test_montecarlo_reference.py

which rewrites the CSV, prints per column how many values moved and the
largest relative move, and prints the tally hash to put in ``TALLY_SHA256``.
"""

import hashlib
import os
import sys
import tempfile

import scamp.cli as cli
from scamp import params
from scamp.detectors import DetectorModel
from scamp.montecarlo import DetectorBank, RunSpec, phase_scan, simulate_run

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "mc_sweep_reference.csv")
SWEEP_CONFIG = """\
[sweep]
alpha_sq = 0.3,0.94,1.7
n_states = 2,4,8
n_pulses = 131072
seed = 2024
"""
TALLY_SHA256 = "8449fc006bac9ac9f74a1f1bf282fe32be223bfe6ca1c8712e5ec9ddeeca6094"


def sweep_csv(directory: str) -> bytes:
    config = os.path.join(directory, "mc.ini")
    output = os.path.join(directory, "mc.csv")
    with open(config, "w") as fh:
        fh.write(SWEEP_CONFIG)
    assert cli.main(["sweep", "--config", config, "--mode", "both", "--output", output]) == 0
    with open(output, "rb") as fh:
        return fh.read()


def tally_sha256() -> str:
    cfg = params.default_amplifier(0.7, 4)
    da = DetectorModel(efficiency=0.5, loss_transmission=0.9, dark_prob_per_gate=0.01)
    db = DetectorModel(efficiency=0.3, loss_transmission=0.8, dark_prob_per_gate=0.02)
    herald = params.default_detector()
    spec = RunSpec(
        amplifier=cfg,
        detectors=DetectorBank(d0=herald, d1=herald, da=da, db=db),
        analysis=params.default_analysis(cfg, detector=da),
        n_pulses=1_000_003,
        master_seed=77,
        phase_schedule=phase_scan(8),
    )
    counts = simulate_run(spec).counts
    assert counts.shape == (8, 4, 16)
    return hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest()


def test_montecarlo_sweep_csv_matches_reference(tmp_path, capsys):
    with open(REFERENCE, "rb") as fh:
        reference = fh.read()
    assert sweep_csv(str(tmp_path)) == reference
    capsys.readouterr()


def test_montecarlo_tally_matches_reference_hash():
    assert tally_sha256() == TALLY_SHA256


if __name__ == "__main__":
    from reference_moves import move_table

    with tempfile.TemporaryDirectory() as directory:
        data = sweep_csv(directory)
    with open(REFERENCE, "rb") as fh:
        previous = fh.read()
    with open(REFERENCE, "wb") as fh:
        fh.write(data)
    sys.stdout.write(move_table(previous.decode(), data.decode()) + f"TALLY_SHA256 = {tally_sha256()!r}\n")
