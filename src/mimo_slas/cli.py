"""Command-line front end for the simulation lab.

Commands::

    mimo-slas ber-snr       BER vs SNR sweep (defaults: 32x32, 0:5:40 dB,
                            all detectors, search on and off, 100 steps)
    mimo-slas ber-antennas  BER vs paired antenna count at fixed SNR
    mimo-slas ber-rho       BER vs selectivity factor (search always on)
    mimo-slas trace         mean likelihood/BER per step (step 0 = initializer)
    mimo-slas flops         cost-model reconciliation table
    mimo-slas selfcheck     randomized property suite; exit 1 on any failure

Shared conventions:

* Every setting is keyed by its ``ExperimentConfig`` field name
  (``--snr-list``/``--snr`` set ``snr_db``, ``--steps`` sets ``n_f``,
  ``--n-list`` sets ``nt``, ``--seed`` sets ``master_seed``, ...) and is
  resolved in one place, lowest layer first: the command's ``DEFAULTS``, a
  ``--config FILE`` JSON object of config fields, the ``MIMO_SLAS_SEED``
  environment variable (the seed only), a ``--preset figN`` grid, explicit
  flags.  ``flops`` and ``selfcheck`` take no ``--config``.
* ``ber-rho`` and ``trace`` always run the search; ``ber-antennas`` and
  ``ber-rho`` pair ``nr`` with ``nt``.  BER sweeps and traces both run the
  grid of one ``ExperimentConfig``, so any config axis may be a scalar or a
  list.
* List-valued flags accept ``a,b,c`` and inclusive ranges ``start:step:stop``;
  ``--snr-list -10:5:0`` and ``--snr -1e1`` may take a space or ``=``.
* ``--jobs N`` parallelizes trials without changing any output byte; N must
  be positive and is capped at the CPU count.
* Output is CSV (with a ``# schema_version=1`` comment line) to ``--out`` or
  stdout; ``--format json`` mirrors the same rows as a JSON document.

Exit codes: 0 success, 1 selfcheck property failure, 2 usage error.

:func:`main` first moves every object alive (the imported modules, chiefly
numpy's) into the collector's permanent generation (``gc.freeze``).
Neither the pool workers, which fork from this process, nor the final
collection at interpreter exit then scan that heap again; atexit hooks
still run.  Freezing before the parser is built, rather than after the
arguments are parsed, also measured about 0.7 MiB less peak memory in the
workers of a 128x128 trace.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import math
import os
import re
import sys

from .channel import SnrSpec
from .complexity import CostKind, flops_closed_form, reconcile
from .detectors import DetectorKind, detect
from .linalg import FlopCounter, SingularMatrixError
from .montecarlo import (MAX_GRID_POINTS, ExperimentConfig, PointSpec, _start, check_distinct,
                         draw, run_sweep, run_trace)
from .selfcheck import run_selfcheck
from .slas import run

SCHEMA_VERSION = 1

_POW2 = [1, 2, 4, 8, 16, 32, 64, 128, 256]
_TABLE_N = [1, 2, 4, 16, 32, 64, 128, 256]
_RHO_GRID = [x / 100 for x in range(80, 121, 5)]

_BER_DEFAULTS = {"rho": 1.0, "n_f": 100, "max_trials": 100_000, "min_bit_errors": 5,
                 "master_seed": 0}
# Each command's built-in settings, keyed by ExperimentConfig fields for the
# BER commands and trace.  A command's keys are also the only settings its
# flags may set.
DEFAULTS: dict[str, dict] = {
    "ber-snr": {**_BER_DEFAULTS, "nt": 32, "nr": 32,
                "snr_db": [float(s) for s in range(0, 41, 5)],
                "detector": "all", "las_enabled": "both"},
    "ber-antennas": {**_BER_DEFAULTS, "nt": _TABLE_N, "snr_db": 15.0, "detector": "all",
                     "las_enabled": "both", "n_f": 256},
    "ber-rho": {**_BER_DEFAULTS, "nt": [32], "snr_db": [10.0], "detector": "mf",
                "rho": _RHO_GRID},
    "trace": {"nt": 128, "nr": 128, "snr_db": [5.0, 10.0, 20.0], "rho": [1.0],
              "detector": "mf", "n_f": 128, "max_trials": 50, "master_seed": 0},
    "flops": {"nt": _POW2, "n_f": _POW2, "master_seed": 0},
    "selfcheck": {"instances": 1000, "inject_fault": "none", "master_seed": 0},
}
_LAS_AXIS = {"on": (True,), "off": (False,), "both": (False, True)}


def _preset(command: str, **changes) -> tuple[str, dict]:
    """A figure's grid: every setting of ``command``'s DEFAULTS but the seed
    and a BER sweep's stop rule, updated with what the figure changes.  (A
    trace's ``max_trials`` is its trial count, so a trace preset pins it.)"""
    free = ({"master_seed", "max_trials", "min_bit_errors"} if command.startswith("ber-")
            else {"master_seed"})
    return command, {k: v for k, v in DEFAULTS[command].items() if k not in free} | changes


# Named experiment grids; they sit above a --config file and below explicit
# flags, so a config can set only what a preset leaves free.
PRESETS: dict[str, tuple[str, dict]] = {
    "fig1": _preset("ber-snr"),
    "fig2": _preset("ber-antennas"),
    "fig3": _preset("trace"),
    "fig4": _preset("ber-rho", rho=[x / 10 for x in range(7, 14)], n_f=96),
    "fig5": _preset("trace", nt=64, nr=64, snr_db=[10.0, 20.0, 30.0, 40.0], n_f=320),
    "fig6": _preset("trace", nt=64, nr=64, snr_db=[15.0],
                    rho=[x / 10 for x in range(8, 14)], n_f=256),
    "fig7": _preset("ber-rho", nt=[16, 32, 64, 128], n_f=256),
    "fig8": _preset("ber-rho", snr_db=[0.0, 5.0, 10.0]),
    "fig9": _preset("flops"),
}


def _parse_number_list(text: str, kind):
    """Parse 'a,b,c' or inclusive 'start:step:stop' into a non-empty list of
    numbers.

    With ``kind=int`` every value must be integral; 1.7 is rejected, not
    truncated.  A range's bounds and step must be finite, and a range of more
    than ``MAX_GRID_POINTS`` values, longer than any grid's axis, is
    rejected before it is expanded.
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range syntax is start:step:stop, got {text!r}")
        start, step, stop = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, step, stop))):
            raise ValueError(f"range bounds and step must be finite, got {text!r}")
        if step <= 0:
            raise ValueError(f"range step must be positive, got {step}")
        values = []
        k = 0
        while True:
            v = round(start + k * step, 10)
            if v > stop + 1e-9:
                break
            if len(values) == MAX_GRID_POINTS:
                raise ValueError(f"range {text!r} has more than {MAX_GRID_POINTS} values")
            values.append(v)
            k += 1
    else:
        values = [float(p) for p in text.split(",") if p]
    if not values:
        raise ValueError(f"expected at least one value, got {text!r}")
    if kind is int:
        bad = [v for v in values if not v.is_integer()]
        if bad:
            raise ValueError(f"expected integers, got {bad[0]:g} in {text!r}")
    return [kind(v) for v in values]


def _list_arg(kind):
    """An argparse type for a list of ``kind`` values."""
    def parse(text: str) -> list:
        # argparse shows an ArgumentTypeError's own message, not "invalid <type> value"
        try:
            return _parse_number_list(text, kind)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _jobs(text: str) -> int:
    """A positive worker count, capped at the machine's CPU count."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return min(int(text), os.cpu_count() or 1)


def _attach_negative_lists(argv: list[str]) -> list[str]:
    """``--snr-list -10:5:0`` -> ``--snr-list=-10:5:0``, and ``--snr -1e1`` ->
    ``--snr=-1e1``, which argparse would otherwise read as options."""
    out: list[str] = []
    for token in argv:
        if out[-1:] in (["--snr"], ["--snr-list"]) and re.match(r"-[\d.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _fmt(x: float) -> str:
    return f"{x:g}"


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must contain a JSON object")
    return data


def _settings(args, parser) -> dict:
    """The command's settings, each layer overriding the one before:
    DEFAULTS, --config, MIMO_SLAS_SEED, --preset, explicit flags."""
    command, preset = args.command, getattr(args, "preset", None)
    if preset is not None and PRESETS[preset][0] != command:
        parser.error(f"preset {preset!r} belongs to command {PRESETS[preset][0]!r}")
    settings = dict(DEFAULTS[command])
    settings.update(_load_config(getattr(args, "config", None)))
    env = os.environ.get("MIMO_SLAS_SEED")
    if env is not None and args.master_seed is None:
        try:
            settings["master_seed"] = int(env)
        except ValueError:
            raise ValueError(f"MIMO_SLAS_SEED must be an integer, got {env!r}") from None
    if preset is not None:
        settings.update(PRESETS[preset][1])
    settings.update({key: value for key, value in vars(args).items()
                     if key in DEFAULTS[command] and value is not None})
    if command in ("ber-rho", "trace"):
        # a selectivity sweep or a step trace is meaningless without the search
        settings["las_enabled"] = True
    if command in ("ber-antennas", "ber-rho"):
        settings["nr"] = settings["nt"]
    if settings.get("detector") == "all":
        settings["detector"] = tuple(DetectorKind)
    las = settings.get("las_enabled")
    if isinstance(las, str):
        if las not in _LAS_AXIS:
            raise ValueError(f"las_enabled must be on, off, both or booleans, got {las!r}")
        settings["las_enabled"] = _LAS_AXIS[las]
    return settings


def _check_out(path: str) -> None:
    """Refuse an ``--out`` path that cannot be written, before any trial runs."""
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        problem = "it is a directory"
    elif not os.path.isdir(directory):
        problem = f"directory {directory!r} does not exist"
    elif not os.access(path if os.path.exists(path) else directory, os.W_OK):
        problem = "permission denied"
    else:
        return
    raise ValueError(f"cannot write --out {path!r}: {problem}")


def _write_rows(args, rows) -> None:
    """Write the rows to ``--out`` (then say so on stdout) or to stdout.

    The CSV header is the first row's keys (an empty table has none), so
    CSV and JSON carry the same fields in the same order.
    """
    if args.format == "json":
        text = json.dumps({"schema_version": SCHEMA_VERSION, "rows": rows}, indent=2) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# schema_version={SCHEMA_VERSION}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows([rows[0]] if rows else [])
        writer.writerows(row.values() for row in rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"{args.command}: wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(text)


def _trial_cost(p: PointSpec) -> tuple[int, int, int]:
    """Instrumented flops of trial 0 of cell ``p``: its detection (the
    paper's explicit-filter price), then with the search on its start as the
    sweep forms it (:func:`_start`, charged what ``precompute`` charges) and
    its search, as a block of one row.  Raises :class:`SingularMatrixError`
    when trial 0's channel is numerically singular for the detector.
    """
    inst = draw(p.master_seed, p.nt, p.nr, p.snr_db, 0)
    counters = [FlopCounter() for _ in range(3)]
    detect(p.detector, inst.h, inst.y, SnrSpec(p.snr_db), counters[0])
    if p.las_enabled:
        _, b0, ws, _ = _start(p, inst.h[None], inst.y[None], counters[1])
        run(ws, b0, [p.rho], p.n_f, counter=counters[2])
    return tuple(c.total for c in counters)


def _ber_rows(experiment: str, results) -> list[dict]:
    rows = []
    for bp in results:
        p = bp.point
        model = flops_closed_form(CostKind(p.detector.value), p.nt, p.nr)
        if p.las_enabled:
            model += flops_closed_form(CostKind.LAS, p.nt, p.nr, p.n_f)
        try:
            # the sweep counted a singular trial 0 as aborted and flagged the cell
            measured = sum(_trial_cost(p))
        except SingularMatrixError:
            measured = ""
        rows.append(
            {
                "experiment": experiment,
                "nt": p.nt,
                "nr": p.nr,
                "snr_db": _fmt(p.snr_db),
                "detector": p.detector.value,
                "las": "on" if p.las_enabled else "off",
                "rho": _fmt(p.rho) if p.las_enabled else "",
                "n_f": p.n_f if p.las_enabled else "",
                "trials": bp.trials_run,
                "bit_errors": bp.bit_errors,
                "ber": f"{bp.ber:.5e}",
                "flops_model": model,
                "flops_measured": measured,
                "flagged": "true" if bp.flagged else "false",
            }
        )
    return rows


def cmd_ber(args, parser) -> int:
    """ber-snr, ber-antennas and ber-rho: one sweep over the resolved grid."""
    results = run_sweep(ExperimentConfig.from_mapping(_settings(args, parser)),
                        n_jobs=args.jobs)
    _write_rows(args, _ber_rows(args.command, results))
    return 0


def cmd_trace(args, parser) -> int:
    cfg = ExperimentConfig.from_mapping(_settings(args, parser))
    rows = []
    for p in cfg.points():
        agg = run_trace(p, n_jobs=args.jobs)
        for step in range(p.n_f + 1):
            rows.append(
                {
                    "experiment": "trace",
                    "nt": p.nt,
                    "nr": p.nr,
                    "snr_db": _fmt(p.snr_db),
                    "detector": p.detector.value,
                    "rho": _fmt(p.rho),
                    "n_f": p.n_f,
                    "trials": agg.trials,
                    "step": step,
                    "mean_likelihood": f"{agg.mean_likelihood[step]:.8e}",
                    "mean_ber": f"{agg.mean_ber[step]:.5e}",
                }
            )
    _write_rows(args, rows)
    return 0


def _flops_row(report) -> dict:
    return {
        "nt": report.nt,
        "nr": report.nr,
        "n_f": report.n_f if report.n_f is not None else "",
        "detector": report.kind.value,
        "mode": "incremental" if report.kind is CostKind.LAS else "",
        "flops_model": report.model_flops,
        "flops_measured": report.measured_flops,
        "relative_error": f"{report.relative_error:.6g}",
        "verdict": report.verdict,
        "notes": report.notes,
    }


def cmd_flops(args, parser) -> int:
    settings = _settings(args, parser)
    for name in ("nt", "n_f"):
        check_distinct(name, settings[name])
    seed = settings["master_seed"]
    rows = []
    for n in settings["nt"]:
        for p in ExperimentConfig(nt=n, nr=n, snr_db=10.0, detector=tuple(DetectorKind),
                                  las_enabled=False, master_seed=seed).points():
            detection, _, _ = _trial_cost(p)
            rows.append(_flops_row(reconcile(CostKind(p.detector.value), n, n, detection)))
        for n_f in settings["n_f"]:
            [p] = ExperimentConfig(nt=n, nr=n, snr_db=10.0, n_f=n_f, master_seed=seed).points()
            _, pre, search = _trial_cost(p)
            report = reconcile(
                CostKind.LAS, n, n, search, n_f=n_f,
                extra_note=f"workspace precompute (counted separately)={pre}",
            )
            rows.append(_flops_row(report))
    _write_rows(args, rows)
    return 0


def cmd_selfcheck(args, parser) -> int:
    settings = _settings(args, parser)
    fault = settings["inject_fault"]
    return run_selfcheck(seed=settings["master_seed"], instances=settings["instances"],
                         inject_fault=None if fault == "none" else fault)


_DETECTORS = [kind.value for kind in DetectorKind]
# Every flag: the setting (or, for the last five, the option) it sets, and
# its argparse keywords.  A setting flag defaults to None, "not given".
_FLAGS: dict[str, tuple[str, dict]] = {
    "--nt": ("nt", {"type": int}),
    "--nr": ("nr", {"type": int}),
    "--n-list": ("nt", {"type": _list_arg(int), "metavar": "LIST"}),
    "--snr": ("snr_db", {"type": float, "metavar": "SNR"}),
    "--snr-list": ("snr_db", {"type": _list_arg(float), "metavar": "LIST"}),
    "--rho": ("rho", {"type": float}),
    "--rho-list": ("rho", {"type": _list_arg(float), "metavar": "LIST"}),
    "--detector": ("detector", {"choices": _DETECTORS}),
    "--las": ("las_enabled", {"choices": ["on", "off", "both"]}),
    "--steps": ("n_f", {"type": int, "metavar": "STEPS",
                        "help": "search steps (antenna visits)"}),
    "--steps-list": ("n_f", {"type": _list_arg(int), "metavar": "LIST"}),
    "--trials": ("max_trials", {"type": int, "metavar": "TRIALS",
                                "help": "max trials per cell"}),
    "--min-errors": ("min_bit_errors", {
        "type": int, "metavar": "MIN_ERRORS",
        "help": "stop a cell early once this many bit errors accumulate"}),
    "--instances": ("instances", {"type": int}),
    "--inject-fault": ("inject_fault", {
        "choices": ["none", "grad-sign"],
        "help": "run the search on a workspace with H_real negated, while the "
                "replay stays exact, to prove the suite catches it"}),
    "--seed": ("master_seed", {"type": int, "metavar": "SEED", "help": "master seed"}),
    "--jobs": ("jobs", {"type": _jobs, "default": 1,
                        "help": "worker processes (at most the CPU count)"}),
    "--out": ("out", {"help": "output path (default stdout)"}),
    "--format": ("format", {"choices": ["csv", "json"], "default": "csv"}),
    "--config": ("config", {"help": "JSON experiment config"}),
    "--preset": ("preset", {"choices": sorted(PRESETS)}),
}
_ANY_DETECTOR = ("--detector", {"choices": [*_DETECTORS, "all"]})
_RUN_FLAGS = ["--seed", "--jobs", "--out", "--format", "--config", "--preset"]
_BER_FLAGS = [*_RUN_FLAGS, "--trials", "--min-errors"]
# command: (help, function, flags in order; a (flag, keywords) pair overrides
# the flag's keywords for that command)
COMMANDS = {
    "ber-snr": ("BER vs SNR sweep", cmd_ber,
                ["--nt", "--nr", "--snr-list", _ANY_DETECTOR, "--las", "--rho", "--steps",
                 *_BER_FLAGS]),
    "ber-antennas": ("BER vs paired antenna count", cmd_ber,
                     ["--n-list", "--snr", _ANY_DETECTOR, "--las", "--rho", "--steps",
                      *_BER_FLAGS]),
    "ber-rho": ("BER vs selectivity factor", cmd_ber,
                ["--n-list", "--snr-list", "--rho-list", "--detector", "--steps",
                 *_BER_FLAGS]),
    "trace": ("mean likelihood/BER per search step", cmd_trace,
              ["--nt", "--nr", "--snr-list", "--rho-list", "--detector", "--steps",
               "--trials", *_RUN_FLAGS]),
    "flops": ("cost-model reconciliation", cmd_flops,
              ["--n-list", "--steps-list", "--seed", "--out", "--format", "--preset"]),
    "selfcheck": ("randomized property suite", cmd_selfcheck,
                  ["--instances", "--seed", "--inject-fault"]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimo-slas",
        description="Massive-MIMO uplink detection experiments: linear detectors "
        "plus selective-threshold sequential likelihood ascent search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, func, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag in flags:
            flag, override = (flag, {}) if isinstance(flag, str) else flag
            dest, keywords = _FLAGS[flag]
            p.add_argument(flag, dest=dest, **{"default": None, **keywords, **override})
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    gc.freeze()
    parser = build_parser()
    args = parser.parse_args(_attach_negative_lists(sys.argv[1:] if argv is None else argv))
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        return args.func(args, parser)
    except (ValueError, OSError) as exc:
        parser.exit(2, f"mimo-slas: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
