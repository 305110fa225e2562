#!/usr/bin/env python3
"""Walk through the amplifier branch by branch.

Builds the 50/50-comparison, 90:10-subtraction device for the four-state
input set, prints every (input, guess) branch of its branch table with the
detector mean photon numbers and acceptance weight, and shows how heralding on "comparison detector
silent AND subtraction detector fires" cleans the output state.
"""

from scamp import (
    Conditioning,
    DetectorModel,
    branch_table,
    figures_of_merit,
    mixture_fidelity,
    output_mixture,
    params,
)

ALPHA_SQ = 0.5
N_STATES = 4


def main():
    cfg = params.default_amplifier(ALPHA_SQ, N_STATES)
    det = params.default_detector()
    ideal = DetectorModel.ideal()

    print(f"input set: {N_STATES} coherent states with |alpha|^2 = {ALPHA_SQ}")
    print(f"nominal amplitude gain g = t2/r1 = {cfg.nominal_gain():.4f}"
          f"  (photon-number gain g^2 = {cfg.nominal_gain()**2:.4f})")
    print()

    print("branches for input state m = 0 (realistic detectors):")
    print(f"{'guess':>5} {'|d0|^2':>9} {'|d1|^2':>9} {'|out|^2':>9} {'accept w':>12}")
    table = branch_table(cfg, det, det)
    accepted = table.weights[Conditioning.D0_SILENT_D1_FIRES]
    for k in range(N_STATES):
        print(
            f"{k:>5}"
            f" {table.d0_mean[k]:>9.4f}"
            f" {table.d1_mean[k]:>9.4f}"
            f" {abs(table.output[k]) ** 2:>9.4f}"
            f" {accepted[k]:>12.6f}"
        )
    print("(a correct guess sends nothing to the comparison port;"
          " the opposite guess sends nothing onward)")
    print()

    target = cfg.target_amplitude(0)
    for label, cond in (
        ("no conditioning", Conditioning.NONE),
        ("comparison only", Conditioning.D0_SILENT),
        ("comparison + subtraction", Conditioning.D0_SILENT_D1_FIRES),
    ):
        m = output_mixture(cfg, det, det, 0, cond)
        print(f"{label:>26}: fidelity to amplified target = "
              f"{mixture_fidelity(m, target):.4f}")
    print()

    fom = figures_of_merit(cfg, det, det)
    print("averaged over inputs (realistic detectors):")
    print(f"  fidelity               {fom.fidelity:.4f}")
    print(f"  correct-state fraction {fom.correct_state_fraction:.4f}  (prior would be {1/N_STATES})")
    print(f"  success probability    {fom.success_probability:.5f} per pulse")

    fom_ideal = figures_of_merit(params.default_amplifier(ALPHA_SQ, 2), ideal, ideal)
    print()
    print("two-state set with ideal detectors: fidelity "
          f"{fom_ideal.fidelity}, fraction {fom_ideal.correct_state_fraction}"
          " (a single subtraction stage removes the wrong state entirely)")


if __name__ == "__main__":
    main()
