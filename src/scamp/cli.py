"""Command-line front end: sweep, estimate, figure and selfcheck.

Physics parameters come from a flat INI-style config file (sections
``amplifier``, ``detector.d0`` .. ``detector.db``, ``sweep``, ``output``)
plus command-line overrides; unknown keys or sections are errors, since a
silently ignored typo in a physics parameter is the costliest failure mode;
so is a ``[DEFAULT]`` section that holds a key.
``sweep`` and ``figure`` read the config the same way, and every key reaches
the model; a figure is an analytic sweep of one state-set size, so it
rejects ``n_states`` and any non-analytic ``mode``.  Each key is one
``_SCHEMA`` row naming the field it sets and the parser of its text.  No
environment variable is read.  numpy is imported only by the commands that
compute with arrays (an analytic visibility scan, the Monte Carlo, selfcheck),
on first use.

Exit codes: 0 success, 2 configuration error, 3 runtime error,
4 selfcheck threshold failure.  :func:`main` is the only place that turns
an exception into an exit code, by one rule for every command: ConfigError
(a bad config file, flag or count table) exits 2; NeverHeraldedError,
InsufficientSignalError, InvalidEpsilonError and OSError exit 3.  Input
errors are raised as ConfigError where the input is read.  Any other
exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import sys
from dataclasses import replace

from . import params
from .analysis import DEFAULT_VACUUM_DENOMINATOR, VACUUM_DENOMINATORS
from .errors import ConfigError, InsufficientSignalError, InvalidEpsilonError, NeverHeraldedError
from .sweep import (
    FIGURE_LAYOUTS,
    FORMATS,
    MODES,
    Dataset,
    SweepSpec,
    read_count_table,
    reproduce_figure,
    run_estimator,
    run_sweep,
    serializer,
    write_dataset,
    write_text,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_SELFCHECK = 4

# Most alpha_sq points one grid may hold, checked before the grid is built: the
# figure grids have 29, and every point costs a full analytic row.
MAX_ALPHA_SQ_POINTS = 4096


def _parse_alpha_grid(text: str) -> tuple[float, ...]:
    """Either a comma list ("0.1,0.5,1") or start:stop:count ("0.1:2.9:29")."""
    text = text.strip()
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) != 3:
            raise ConfigError(f"alpha_sq range must be start:stop:count, got {text!r}")
        start, stop, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
        if not (1 <= count <= MAX_ALPHA_SQ_POINTS):
            raise ConfigError(f"alpha_sq count must lie in [1, {MAX_ALPHA_SQ_POINTS}], got {count}")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ConfigError(f"alpha_sq range bounds must be finite, got {text!r}")
        return tuple(params.linspace(start, stop, count))
    pieces = text.split(",")
    if len(pieces) > MAX_ALPHA_SQ_POINTS:
        raise ConfigError(f"alpha_sq list has more than {MAX_ALPHA_SQ_POINTS} values")
    return tuple(float(piece) for piece in pieces)


# section -> config key -> (the SweepSpec or DetectorModel field it sets, its parser);
# the [output] keys set the destination that _destination resolves instead
_DETECTOR_SECTIONS = ("detector.d0", "detector.d1", "detector.da", "detector.db")
_DETECTOR_KEYS = {
    "efficiency": ("efficiency", float),
    "loss": ("loss_transmission", float),
    "dark_prob": ("dark_prob_per_gate", float),
}
_SCHEMA = {
    "amplifier": {
        "comparison_reflectivity": ("comparison_reflectivity", float),
        "subtraction_transmission": ("subtraction_transmission", float),
    },
    **{section: _DETECTOR_KEYS for section in _DETECTOR_SECTIONS},
    "sweep": {
        "alpha_sq": ("alpha_sq_grid", _parse_alpha_grid),
        "n_states": ("n_states_list", lambda text: tuple(int(n) for n in text.split(","))),
        "mode": ("mode", str),
        "n_pulses": ("n_pulses", int),
        "seed": ("seed", int),
        "prf": ("prf", float),
        "phase_points": ("phase_points", int),
        "epsilon": ("epsilon", lambda text: None if text == "auto" else float(text)),
    },
    "output": {"path": ("output_path", str), "format": ("output_format", str)},
}


def _parsed(parse, *args, **kwargs):
    """``parse(*args, **kwargs)``, with a value it rejects reported as a ConfigError."""
    try:
        return parse(*args, **kwargs)
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(str(exc)) from exc


def _section_fields(section, keys: dict) -> dict:
    """Field -> parsed value of each key set in one config section."""
    return {field: parse(section[key]) for key, (field, parse) in keys.items() if key in section}


def load_sweep_config(path: str | None) -> dict:
    """Read and validate the config file into keyword arguments for SweepSpec,
    plus ``output_path``/``output_format`` from [output] (see :func:`_destination`).
    Without a file there is nothing to read, and no parser is built."""
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(str(exc)) from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    # configparser lists no [DEFAULT] section but copies its keys into every other one
    if parser.defaults():
        raise ConfigError(f"unknown config section [{parser.default_section}]")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    kwargs: dict = {}
    detectors = {}
    for section, keys in _SCHEMA.items():
        if not parser.has_section(section):
            continue
        values = _parsed(_section_fields, parser[section], keys)
        if section in _DETECTOR_SECTIONS:
            name = section.split(".", 1)[1]
            detectors[name] = _parsed(replace, params.default_detector(), **values)
        else:
            kwargs.update(values)
    if detectors:
        kwargs["detectors"] = replace(params.default_detector_bank(), **detectors)
    return kwargs


def _destination(config: dict, args) -> tuple[str | None, str]:
    """Where the rows go and in which format: ``--output``/``--format`` over the
    config's [output] values, which leave ``config`` so that it holds SweepSpec
    fields only.  A bad format is rejected here, before any row is computed."""
    path = config.pop("output_path", None)
    output_format = config.pop("output_format", "csv")
    if args.output is not None:
        path = args.output
    if args.format is not None:
        output_format = args.format
    serializer(output_format)
    return path, output_format


def _emit(dataset: Dataset, path: str | None, output_format: str) -> None:
    if path is None:
        sys.stdout.write(serializer(output_format)(dataset))
    else:
        write_dataset(dataset, path, output_format)
        print(f"wrote {len(dataset.rows)} rows to {path}")


def _cmd_sweep(args) -> int:
    kwargs = load_sweep_config(args.config)
    path, output_format = _destination(kwargs, args)
    overrides = {"mode": args.mode, "seed": args.seed}
    kwargs.update((key, value) for key, value in overrides.items() if value is not None)
    kwargs.setdefault("alpha_sq_grid", params.FIG3_ALPHA_SQ_GRID)
    kwargs.setdefault("n_states_list", (2, 4, 8))
    dataset = run_sweep(SweepSpec(**kwargs), workers=args.workers)
    _emit(dataset, path, output_format)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    # run_estimator checks g2a2 and eta_l: a bad --g2a2 or --eta-l is a ConfigError
    report = run_estimator(
        read_count_table(args.counts),
        g2a2=args.g2a2,
        eta_l=args.eta_l,
        vacuum_denominator=args.vacuum_denominator,
    )
    print(f"signal pulses      N_sig = {report['n_sig']:.6f}")
    print(f"vacuum pulses      N_vac = {report['n_vac']:.6f}  ({args.vacuum_denominator} denominator)")
    print(f"signal weight      P(sig) = {report['p_sig']:.9f}")
    print(f"vacuum weight      P(vac) = {report['p_vac']:.9f}")
    print(f"fidelity (standard vacuum overlap) = {report['fidelity_standard']:.9f}")
    print(f"fidelity (doubled vacuum overlap)  = {report['fidelity_doubled']:.9f}")
    if args.output is not None:
        write_text(args.output, json.dumps(report, indent=2) + "\n", "estimate report")
        print(f"wrote report to {args.output}")
    return EXIT_OK


def _cmd_figure(args) -> int:
    kwargs = load_sweep_config(args.config)
    path, output_format = _destination(kwargs, args)
    if args.alpha_sq is not None:
        kwargs["alpha_sq_grid"] = _parsed(_parse_alpha_grid, args.alpha_sq)
    if args.loss is not None:
        if "detectors" in kwargs:
            raise ConfigError("--loss builds the default detectors; it cannot be combined"
                              " with [detector.*] sections in the config")
        kwargs["detectors"] = _parsed(params.default_detector_bank, args.loss)
    _emit(reproduce_figure(args.id, **kwargs), path, output_format)
    return EXIT_OK


def _cmd_selfcheck(args) -> int:
    from .selfcheck import run_selfcheck

    return EXIT_OK if run_selfcheck() else EXIT_SELFCHECK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scamp",
        description="Coherent-state comparison amplifier: sweeps, estimators and figure datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="evaluate a (n_states, alpha_sq) grid")
    p_sweep.add_argument("--config", help="INI config file")
    p_sweep.add_argument("--mode", choices=MODES)
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--output", help="output path (default: stdout)")
    p_sweep.add_argument("--format", choices=FORMATS)
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="Monte Carlo worker count >= 1, checked but without effect on output or speed"
        " (default: 1)",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_est = sub.add_parser("estimate", help="estimate output fidelity from a count table")
    p_est.add_argument("--counts", required=True, help="count table file (JSON or single-row CSV)")
    p_est.add_argument("--g2a2", type=float, required=True, help="reference mean photon number")
    p_est.add_argument(
        "--eta-l",
        type=float,
        default=params.default_detector().eta_l(),
        help="detection efficiency times transmission at the analyzers",
    )
    p_est.add_argument(
        "--vacuum-denominator",
        choices=tuple(VACUUM_DENOMINATORS),
        default=DEFAULT_VACUUM_DENOMINATOR,
        help="vacuum-class inversion convention",
    )
    p_est.add_argument("--output", help="also write the report as JSON")
    p_est.set_defaults(func=_cmd_estimate)

    p_fig = sub.add_parser("figure", help="emit a model-curve dataset for a known figure layout")
    p_fig.add_argument("--id", required=True, help=" | ".join(FIGURE_LAYOUTS))
    p_fig.add_argument("--config", help="INI config file, read as by sweep (no n_states or mode)")
    p_fig.add_argument(
        "--loss",
        type=float,
        help="optical loss of the default detectors; only without [detector.*] sections",
    )
    p_fig.add_argument("--alpha-sq", help="grid override: comma list or start:stop:count")
    p_fig.add_argument("--output", help="output path (default: stdout)")
    p_fig.add_argument("--format", choices=FORMATS)
    p_fig.set_defaults(func=_cmd_figure)

    p_check = sub.add_parser("selfcheck", help="run the built-in sanity thresholds")
    p_check.set_defaults(func=_cmd_selfcheck)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first :func:`main` call.

    Reuse is safe: ``parse_args`` leaves the parser as it was and fills a
    fresh namespace, and argparse looks up ``sys.stdout``, ``sys.stderr`` and
    the terminal width only when it prints.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    # ConfigError and two of the runtime types are ValueErrors, but no other
    # ValueError is caught: any other exception is a bug and keeps its traceback
    except (NeverHeraldedError, InsufficientSignalError, InvalidEpsilonError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
