"""One check per parameter: every public constructor and function that takes a
number refuses a bad one with a ValueError (a ConfigError), never a TypeError
or a silent NaN, and each parameter's interval is the one row of
``errors.PARAMETERS`` (or the row its one caller passes)."""

import cmath
import dataclasses
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scamp import cli, params
from scamp.amplifier import (
    AmplifierConfig,
    Conditioning,
    StateSet,
    branch_table,
    figures_of_merit,
    output_mixture,
    success_rate,
)
from scamp.analysis import (
    AnalysisConfig,
    CountTable,
    count_probabilities,
    estimate_fidelity,
    estimate_pulse_numbers,
    expected_counts,
    visibility,
)
from scamp.coherent import Mixture, mixture_fidelity
from scamp.detectors import DetectorBank, DetectorModel, click_probability
from scamp.errors import PARAMETERS, ConfigError, InsufficientSignalError, checked
from scamp.montecarlo import (
    RunSpec,
    conditioned_class_totals,
    conditioned_counts,
    mc_visibility,
    phase_scan,
    simulate_chunk,
    simulate_run,
    standard_error,
)
from scamp.sweep import SweepSpec, write_count_table

_DET = params.default_detector()
_CFG = params.default_amplifier(0.5, 2)
_RUN = RunSpec(_CFG, DetectorBank.uniform(_DET), params.default_analysis(_CFG, _DET), 100, 1)
# arguments that are complex amplitudes, so that a complex value is a good one
AMPLITUDES = {"base_amplitude", "reference_amplitude", "amplitude", "target", "output"}


def _mixture(weight, amplitude):
    return Mixture(((weight, amplitude),))


def _count_cells(**cells):
    return CountTable.from_dict(cells)


# name -> (callable, non-numeric arguments, numeric arguments, arguments that are tuples of numbers)
CALLS = {
    "SweepSpec": (SweepSpec, {"mode": "both"},
                  {"comparison_reflectivity": 0.5, "subtraction_transmission": 0.9, "prf": 1e6,
                   "epsilon": 0.1, "phase_points": 16, "n_pulses": 1000, "seed": 1},
                  {"alpha_sq_grid": 0.5, "n_states_list": 2}),
    "AmplifierConfig": (AmplifierConfig, {"input_set": StateSet(1.0, 2)},
                        {"comparison_reflectivity": 0.5, "subtraction_transmission": 0.9}, {}),
    "StateSet": (StateSet, {}, {"base_amplitude": 1.0, "n_states": 2}, {}),
    "DetectorModel": (DetectorModel, {},
                      {"efficiency": 0.4, "loss_transmission": 0.9, "dark_prob_per_gate": 1e-5}, {}),
    "AnalysisConfig": (AnalysisConfig, {},
                       {"reference_amplitude": 1.0, "epsilon": 0.1, "phase_points": 16}, {}),
    "RunSpec": (RunSpec, {"amplifier": _CFG, "detectors": DetectorBank.uniform(_DET),
                          "analysis": params.default_analysis(_CFG, _DET)},
                {"n_pulses": 100, "master_seed": 1}, {"phase_schedule": 0.0}),
    "CountTable": (CountTable, {}, {"n_A_sig": 9.0, "n_B_sig": 1.0, "n_A_vac": 4.0, "n_B_vac": 4.0}, {}),
    "default_detector": (params.default_detector, {}, {"optical_loss": 0.5}, {}),
    "default_amplifier": (params.default_amplifier, {},
                          {"alpha_sq": 0.5, "n_states": 2, "comparison_reflectivity": 0.5,
                           "subtraction_transmission": 0.9}, {}),
    "success_rate": (success_rate, {"cfg": _CFG, "det0": _DET, "det1": _DET}, {"prf": 1e6}, {}),
    "estimate_pulse_numbers": (estimate_pulse_numbers, {"counts": CountTable(900.0, 10.0, 40.0, 40.0)},
                               {"g2a2": 0.9, "eta_l": 0.39}, {}),
    "estimate_fidelity": (estimate_fidelity, {}, {"n_sig": 900.0, "n_vac": 100.0, "g2a2": 0.9}, {}),
    "expected_counts": (expected_counts, {},
                        {"n_sig_pulses": 900.0, "n_vac_pulses": 100.0, "g2a2": 0.9, "eta_l": 0.39,
                         "epsilon": 0.05}, {}),
    "standard_error": (standard_error, {}, {"k": 5, "n": 10}, {}),
    "Mixture": (_mixture, {}, {"weight": 1.0, "amplitude": 0.5}, {}),
    "mixture_fidelity": (mixture_fidelity, {"m": _mixture(1.0, 0.5)}, {"target": 0.5}, {}),
    "click_probability": (click_probability, {"det": _DET}, {"mean_photons": 0.5}, {}),
    "CountTable.from_dict": (_count_cells, {}, {"n_A_sig": 9, "n_B_sig": 1, "n_A_vac": 4, "n_B_vac": 4}, {}),
    "count_probabilities": (count_probabilities, {"cfg": AnalysisConfig(1.0, epsilon=0.1)}, {"output": 0.5}, {}),
    "output_mixture": (output_mixture, {"cfg": _CFG, "det0": _DET, "det1": _DET}, {"input_index": 1}, {}),
    "StateSet.state": (StateSet(1.0, 4).state, {}, {"m": 3}, {}),
    "target_amplitude": (_CFG.target_amplitude, {}, {"m": 1}, {}),
    "phase_scan": (phase_scan, {}, {"n_points": 8}, {}),
    "simulate_chunk": (simulate_chunk, {"spec": _RUN}, {"chunk_index": 0, "chunk_size": 64}, {}),
}
ARGUMENTS = [(name, arg) for name, (_, _, numeric, tuples) in CALLS.items() for arg in [*numeric, *tuples]]

# nan, +-inf, a bool, a numeric string, None and a complex, in the spellings a caller may use
BAD = [math.nan, math.inf, -math.inf, True, False, "0.5", None, 1j, np.float64("nan"), np.bool_(True),
       np.complex128(1j), Fraction(10**400), [0.5]]
VALUES = st.one_of(st.sampled_from(BAD), st.floats(), st.integers(-(2**70), 2**70), st.sampled_from(
    [0, 1, 2, 0.5, 1.0, np.float32(0.5), np.int64(2), Fraction(1, 2), 1e-300, 5e-324, 1e300]))


def _finite(value) -> bool:
    """Every number in ``value`` (nested dataclasses, tuples and dicts included) is finite."""
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, (float, complex)):
        return cmath.isfinite(value)
    return True


def _call(name, arg, value):
    function, fixed, numeric, tuples = CALLS[name]
    kwargs = {**fixed, **numeric, **{key: (entry,) for key, entry in tuples.items()}}
    kwargs[arg] = (value,) if arg in tuples else value
    return function(**kwargs)


@pytest.mark.parametrize("name, arg", ARGUMENTS)
def test_valid_arguments_give_finite_results(name, arg):
    assert _finite(_call(name, arg, {**CALLS[name][2], **CALLS[name][3]}[arg]))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(ARGUMENTS), VALUES)
# |output + reference|^2 overflows: port A clicks surely, with no overflow warning
@example(("count_probabilities", "output"), 1.3407807929942597e154)
def test_a_bad_number_is_a_value_error_never_a_type_error_or_nan(argument, value):
    name, arg = argument
    try:
        result = _call(name, arg, value)
    except ValueError:
        return
    assert _finite(result), (name, arg, value, result)


@pytest.mark.parametrize("name, arg", ARGUMENTS)
@pytest.mark.parametrize("value", BAD, ids=repr)
def test_every_bad_value_is_refused(name, arg, value):
    # an amplitude is a complex number, a sweep's epsilon None is "auto", and a
    # count read from a file may be a numeric string
    if ((arg in AMPLITUDES and isinstance(value, complex))
            or (name, arg, value) == ("SweepSpec", "epsilon", None)
            or (name, value) == ("CountTable.from_dict", "0.5")):
        assert _finite(_call(name, arg, value))
        return
    with pytest.raises(ValueError):
        _call(name, arg, value)


def test_the_library_keeps_its_insufficient_signal_errors():
    with pytest.raises(InsufficientSignalError):
        estimate_pulse_numbers(CountTable(1.0, 1.0, 1.0, 1.0), g2a2=1e-13, eta_l=1.0)
    with pytest.raises(InsufficientSignalError):
        estimate_fidelity(0.0, 0.0, g2a2=0.9)


def test_analysis_config_checks_its_reference_and_epsilon():
    # the reference was not checked, so the scan returned nan; a string epsilon was a TypeError
    mixture = Mixture(((1.0, 0.5 + 0j),))
    for reference in (complex(math.nan, 0), complex(0, math.inf), "0.5", None, True):
        with pytest.raises(ConfigError, match="reference_amplitude must be a finite complex number"):
            visibility(mixture, AnalysisConfig(reference))
    with pytest.raises(ConfigError, match="epsilon must be a real number, got '0.1'"):
        AnalysisConfig(1.0, epsilon="0.1")
    assert type(AnalysisConfig(np.float32(1.0)).reference_amplitude) is complex


def test_standard_error_takes_integers_only():
    # 1.5 of 3 returned 0.2887, and True was read as a count of 1
    for k, n in ((1.5, 3), (True, 3), (1, 3.0), (1, False), ("1", 3), (None, 3)):
        with pytest.raises(ConfigError, match="must be an integer"):
            standard_error(k, n)
    assert standard_error(np.int64(1), np.uint32(4)) == standard_error(1, 4) == math.sqrt(0.75 / 16)


def test_count_table_keeps_integer_counts_exact():
    # 2^53 + 1 would round to 2^53 as a float, into range
    with pytest.raises(ConfigError, match=r"n_A_sig must lie in \[0, 2\^53\], got 9007199254740993"):
        CountTable(2**53 + 1, 0, 0, 0)
    with pytest.raises(ConfigError, match="n_B_vac"):
        CountTable(0, 0, 0, np.uint64(2**53 + 1))
    table = CountTable(np.int64(5), np.float32(1.5), 2**53, 0.0)
    assert [type(v) for v in table.to_dict().values()] == [int, float, int, float]


@pytest.mark.parametrize("spelling", ["json number", "json string", "csv cell"])
def test_a_count_above_2_53_is_refused_in_every_spelling(tmp_path, capsys, spelling):
    # a numeric string was read as a float, so 2^53 + 1 rounded to 2^53, into range
    path = tmp_path / "counts"
    cells = {"n_A_sig": 2**53 + 1, "n_B_sig": 10, "n_A_vac": 40, "n_B_vac": 40}
    if spelling == "csv cell":
        path.write_text(",".join(cells) + "\n" + ",".join(map(str, cells.values())) + "\n")
    else:
        path.write_text(json.dumps({k: str(v) if spelling == "json string" else v for k, v in cells.items()}))
    assert cli.main(["estimate", "--counts", str(path), "--g2a2", "0.9"]) == 2
    assert capsys.readouterr().err == (
        "config error: n_A_sig must lie in [0, 2^53], got 9007199254740993\n")


def test_a_count_cell_reads_an_integer_exactly_and_any_other_number_as_a_float():
    table = CountTable.from_dict({"n_A_sig": "900.5", "n_B_sig": "1e3", "n_A_vac": "9007199254740992",
                                  "n_B_vac": " 40 "})
    assert table.to_dict() == {"n_A_sig": 900.5, "n_B_sig": 1000.0, "n_A_vac": 2**53, "n_B_vac": 40}
    assert [type(v) for v in table.to_dict().values()] == [float, float, int, int]
    with pytest.raises(ConfigError, match="n_A_sig must be a real number, got 'many'"):
        CountTable.from_dict({"n_A_sig": "many", "n_B_sig": 0, "n_A_vac": 0, "n_B_vac": 0})


def test_estimate_fidelity_keeps_the_sum_of_its_pulse_numbers_finite():
    # 1e308 + 1e308 overflowed, and the fidelity read 0.0 where about 0.70 is right
    with pytest.raises(ConfigError, match="^n_sig must be >= 0 and at most half the largest float, got 1e"):
        estimate_fidelity(1e308, 1e308, 0.9)
    half = PARAMETERS["n_vac"][2]
    assert half + half == sys.float_info.max
    assert estimate_fidelity(half, half, 0.9) == 0.5 + math.exp(-0.9) * half / sys.float_info.max


def test_numbers_are_stored_as_python_numbers():
    det = DetectorModel(np.float32(0.5), Fraction(1, 2), 0)
    cfg = AmplifierConfig(np.float64(0.5), np.float32(0.75), StateSet(np.complex64(1 + 1j), np.int16(4)))
    stored = [det.efficiency, det.loss_transmission, det.dark_prob_per_gate,
              cfg.comparison_reflectivity, cfg.subtraction_transmission]
    assert [type(v) for v in stored] == [float] * 5 and det.loss_transmission == 0.5
    assert type(cfg.input_set.base_amplitude) is complex and type(cfg.n_states()) is int


@pytest.mark.parametrize("name, open_low, open_high", [
    ("comparison_reflectivity", 0.0, 1.0),
    ("subtraction_transmission", 0.0, None),
    ("epsilon", None, 1.0),
    ("eta_l", 0.0, None),
    ("g2a2", 0.0, math.inf),
    ("prf", 0.0, math.inf),
    ("alpha_sq", None, math.inf),
])
def test_open_bounds_refuse_the_bound_and_keep_the_next_float(name, open_low, open_high):
    # an open bound is stored as the next float inward: the bound itself fails, its neighbour passes
    for bound, inward in ((open_low, math.inf), (open_high, -math.inf)):
        if bound is not None:
            with pytest.raises(ConfigError, match=f"^{name} must "):
                checked(name, bound)
            assert checked(name, math.nextafter(bound, inward)) == math.nextafter(bound, inward)
    # an integer too large for a float reads as infinite, which no real interval holds
    with pytest.raises(ConfigError, match=f"^{name} must .*, got -?inf$"):
        checked(name, 10**400 if open_high is not None else -(10**400))


@pytest.mark.parametrize("flag", ["--g2a2", "--eta-l"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "True", "None", "1j", "0", "0.5"])
def test_estimate_flags_are_checked_by_the_library(tmp_path, capsys, flag, value):
    counts = str(tmp_path / "counts.json")
    write_count_table(CountTable(900.0, 10.0, 40.0, 40.0), counts)
    report = tmp_path / "report.json"
    try:
        code = cli.main(["estimate", "--counts", counts, "--g2a2", "0.9", flag, value,
                         "--output", str(report)])
    except SystemExit as exc:  # argparse refuses a flag that is not a float
        code = exc.code
    err = capsys.readouterr().err
    if value == "0.5":
        assert code == 0 and all(map(_finite, json.loads(report.read_text()).values()))
    elif err.startswith("config error:"):
        key = flag.lstrip("-").replace("-", "_")
        assert code == 2 and err.startswith(f"config error: {key} must {PARAMETERS[key][3]}, got ")
    else:  # argparse's usage error
        assert code == 2 and err.startswith("usage: scamp estimate")


_TABLE = branch_table(_CFG, _DET, _DET)
_TALLY = simulate_run(dataclasses.replace(_RUN, n_pulses=4000, phase_schedule=(0.0, math.pi)))
# every function that takes a conditioning, called with one
CONDITIONED = {
    "figures_of_merit": lambda c: figures_of_merit(_CFG, _DET, _DET, c),
    "success_rate": lambda c: success_rate(_CFG, _DET, _DET, 1e6, c),
    "output_mixture": lambda c: output_mixture(_CFG, _DET, _DET, 1, c),
    "BranchTable.accepted": _TABLE.accepted,
    "BranchTable.success_probability": _TABLE.success_probability,
    "conditioned_counts": lambda c: conditioned_counts(_TALLY, c),
    "conditioned_class_totals": lambda c: conditioned_class_totals(_TALLY, c),
    "mc_visibility": lambda c: mc_visibility(_TALLY, c),
}


@pytest.mark.parametrize("name", CONDITIONED)
@pytest.mark.parametrize("conditioning", Conditioning)
def test_a_conditioning_is_a_member_or_its_value(name, conditioning):
    # figures_of_merit took only a member, and ended in a bare KeyError on its value
    call = CONDITIONED[name]
    result = call(conditioning)
    assert _finite(result) and call(conditioning.value) == result
    for bad in ("bogus", conditioning.name, None, True, ["none"]):
        with pytest.raises(ConfigError, match=re.escape(
                "conditioning must be one of ['none', 'd0_silent', 'd0_silent_and_d1_fires'], got ")):
            call(bad)
