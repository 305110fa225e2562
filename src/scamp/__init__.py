"""Simulator and analysis toolkit for a coherent-state comparison amplifier.

The device interferes an unknown coherent state from a known phase-symmetric
set with a guessed set member at a comparison beamsplitter, taps the
retained beam onto a photon-subtraction detector, and accepts the output
when the comparison detector stays silent while the subtraction detector
fires.  This package computes the conditioned output state and its figures
of merit both in closed form and by seeded Monte Carlo, and implements the
count-based estimator that reconstructs the output fidelity from
interferometric click records.

The Monte Carlo names (``simulate_run``, ``RunSpec``, ...) are looked up
through the module ``__getattr__``: the first one used imports
``scamp.montecarlo`` and numpy with it, so ``import scamp`` alone does not.
"""

import importlib

from .coherent import Mixture, mean_photons, mixture_fidelity, overlap_sq
from .detectors import DetectorBank, DetectorModel, click_probability
from .amplifier import (
    AmplifierConfig,
    BranchTable,
    Conditioning,
    FiguresOfMerit,
    StateSet,
    branch_table,
    figures_of_merit,
    output_mixture,
    success_rate,
)
from .analysis import (
    AnalysisConfig,
    CountProbabilities,
    CountTable,
    count_probabilities,
    estimate_class_pulse_numbers,
    estimate_fidelity,
    estimate_pulse_numbers,
    expected_counts,
    visibility,
)
from .sweep import Dataset, SweepSpec, reproduce_figure, run_estimator, run_sweep
from .errors import (
    ConfigError,
    InsufficientSignalError,
    InvalidEpsilonError,
    NeverHeraldedError,
)
from . import params

__version__ = "0.1.0"

__all__ = [
    "AmplifierConfig",
    "AnalysisConfig",
    "BranchTable",
    "ConfigError",
    "Conditioning",
    "CountProbabilities",
    "CountTable",
    "Dataset",
    "DetectorBank",
    "DetectorModel",
    "FiguresOfMerit",
    "InsufficientSignalError",
    "InvalidEpsilonError",
    "Mixture",
    "NeverHeraldedError",
    "RunSpec",
    "StateSet",
    "SweepSpec",
    "TallyTable",
    "branch_table",
    "click_probability",
    "conditioned_class_totals",
    "conditioned_counts",
    "count_probabilities",
    "estimate_class_pulse_numbers",
    "estimate_fidelity",
    "estimate_pulse_numbers",
    "expected_counts",
    "figures_of_merit",
    "mc_visibility",
    "mean_photons",
    "mixture_fidelity",
    "output_mixture",
    "overlap_sq",
    "params",
    "phase_scan",
    "reproduce_figure",
    "run_estimator",
    "run_sweep",
    "simulate_run",
    "standard_error",
    "success_rate",
    "visibility",
]

# the listed names not bound above are the Monte Carlo's, loaded on first use
_MONTECARLO_NAMES = frozenset(__all__).difference(globals())


def __getattr__(name):
    if name == "montecarlo" or name in _MONTECARLO_NAMES:
        montecarlo = importlib.import_module(".montecarlo", __name__)
        return montecarlo if name == "montecarlo" else getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _MONTECARLO_NAMES)
