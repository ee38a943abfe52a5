"""Command-line front end for the simulation lab.

Commands::

    mimo-slas ber-snr       BER vs SNR sweep (defaults: 32x32, 0:5:40 dB,
                            all detectors, search on and off, 100 steps)
    mimo-slas ber-antennas  BER vs paired antenna count at fixed SNR
    mimo-slas ber-rho       BER vs selectivity factor (search always on)
    mimo-slas trace         mean likelihood/BER per step (step 0 = initializer)
    mimo-slas flops         cost-model reconciliation table (optionally timed)
    mimo-slas selfcheck     randomized property suite; exit 1 on any failure

Shared conventions:

* ``--seed`` beats the ``MIMO_SLAS_SEED`` environment variable, which beats a
  ``--config`` JSON value, which beats the built-in default 0.
* ``--preset figN`` loads a named experiment grid; explicit flags override
  preset values field by field.
* ``--config FILE`` reads a JSON object with experiment-config keys
  (nt, nr, snr_db, rho, detector, las_enabled, n_f, max_trials,
  min_bit_errors, master_seed); explicit flags and presets override it.
* List-valued flags accept ``a,b,c`` and inclusive ranges ``start:step:stop``;
  ``--snr-list -10:5:0`` may be written with a space or with ``=``.
* ``--jobs N`` parallelizes trials without changing any output byte; N must
  be positive and is capped at the CPU count.
* Output is CSV (with a ``# schema_version=1`` comment line) to ``--out`` or
  stdout; ``--format json`` mirrors the same rows as a JSON document.

Exit codes: 0 success, 1 selfcheck property failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys

from .channel import SnrSpec
from .complexity import CostKind, benchmark, flops_closed_form, reconcile
from .detectors import DetectorKind, detect, mf, slice_bpsk
from .linalg import FlopCounter, SingularMatrixError
from .montecarlo import (
    ExperimentConfig,
    PointSpec,
    check_snr_keys,
    draw,
    run_sweep,
    run_trace,
)
from .selfcheck import run_selfcheck
from .slas import full_recompute_step_flops, precompute, run

SCHEMA_VERSION = 1

BER_COLUMNS = [
    "experiment",
    "nt",
    "nr",
    "snr_db",
    "detector",
    "las",
    "rho",
    "n_f",
    "trials",
    "bit_errors",
    "ber",
    "flops_model",
    "flops_measured",
    "flagged",
]
TRACE_COLUMNS = [
    "experiment",
    "nt",
    "nr",
    "snr_db",
    "detector",
    "rho",
    "n_f",
    "trials",
    "step",
    "mean_likelihood",
    "mean_ber",
]
FLOPS_COLUMNS = [
    "nt",
    "nr",
    "n_f",
    "detector",
    "mode",
    "flops_model",
    "flops_measured",
    "relative_error",
    "verdict",
    "notes",
]
BENCH_COLUMNS = ["median_s", "p10_s", "p90_s"]

_POW2 = [1, 2, 4, 8, 16, 32, 64, 128, 256]
_TABLE_N = [1, 2, 4, 16, 32, 64, 128, 256]
_RHO_GRID = [x / 100 for x in range(80, 121, 5)]

# Named experiment grids; values fill in for flags the user did not pass.
PRESETS: dict[str, tuple[str, dict]] = {
    "fig1": ("ber-snr", {}),
    "fig2": ("ber-antennas", {}),
    "fig3": (
        "trace",
        {"nt": 128, "nr": 128, "snr_list": [5.0, 10.0, 20.0], "rho_list": [1.0],
         "steps": 128, "trials": 50, "detector": "mf"},
    ),
    "fig4": (
        "ber-rho",
        {"n_list": [32], "snr_list": [10.0],
         "rho_list": [x / 10 for x in range(7, 14)], "steps": 96, "detector": "mf"},
    ),
    "fig5": (
        "trace",
        {"nt": 64, "nr": 64, "snr_list": [10.0, 20.0, 30.0, 40.0],
         "rho_list": [1.0], "steps": 320, "trials": 50, "detector": "mf"},
    ),
    "fig6": (
        "trace",
        {"nt": 64, "nr": 64, "snr_list": [15.0],
         "rho_list": [x / 10 for x in range(8, 14)], "steps": 256, "trials": 50,
         "detector": "mf"},
    ),
    "fig7": (
        "ber-rho",
        {"n_list": [16, 32, 64, 128], "snr_list": [10.0], "rho_list": _RHO_GRID,
         "steps": 256, "detector": "mf"},
    ),
    "fig8": (
        "ber-rho",
        {"n_list": [32], "snr_list": [0.0, 5.0, 10.0], "rho_list": _RHO_GRID,
         "steps": 100, "detector": "mf"},
    ),
    "fig9": ("flops", {}),
    "fig10": ("flops", {"benchmark": True}),
}


def _parse_number_list(text: str, kind):
    """Parse 'a,b,c' or inclusive 'start:step:stop' into a list of numbers.

    With ``kind=int`` every value must be integral; 1.7 is rejected, not
    truncated.
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range syntax is start:step:stop, got {text!r}")
        start, step, stop = (float(p) for p in parts)
        if step <= 0:
            raise ValueError(f"range step must be positive, got {step}")
        values = []
        k = 0
        while True:
            v = round(start + k * step, 10)
            if v > stop + 1e-9:
                break
            values.append(v)
            k += 1
    else:
        values = [float(p) for p in text.split(",") if p]
    if kind is int:
        bad = [v for v in values if not v.is_integer()]
        if bad:
            raise ValueError(f"expected integers, got {bad[0]:g} in {text!r}")
    return [kind(v) for v in values]


def _list_arg(text: str, kind) -> list:
    # argparse shows an ArgumentTypeError's own message, not "invalid <type> value"
    try:
        return _parse_number_list(text, kind)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_list(text: str) -> list[int]:
    return _list_arg(text, int)


def _float_list(text: str) -> list[float]:
    return _list_arg(text, float)


def _jobs(text: str) -> int:
    """A positive worker count, capped at the machine's CPU count."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return min(int(text), os.cpu_count() or 1)


def _attach_negative_lists(argv: list[str]) -> list[str]:
    """``--snr-list -10:5:0`` -> ``--snr-list=-10:5:0``, which argparse would
    otherwise read as an option."""
    out: list[str] = []
    for token in argv:
        if out[-1:] == ["--snr-list"] and re.match(r"-[\d.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _detectors(choice: str) -> tuple[DetectorKind, ...]:
    if choice == "all":
        return (DetectorKind.MF, DetectorKind.ZF, DetectorKind.MMSE)
    return (DetectorKind(choice),)


def _las_axis(choice: str) -> tuple[bool, ...]:
    return {"on": (True,), "off": (False,), "both": (False, True)}[choice]


def _fmt(x: float) -> str:
    return f"{x:g}"


def _resolve_seed(flag_value, config_value) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("MIMO_SLAS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"MIMO_SLAS_SEED must be an integer, got {env!r}")
    if config_value is not None:
        return int(config_value)
    return 0


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must contain a JSON object")
    ExperimentConfig.check_keys(data)
    return data


def _preset_values(args, parser, command: str) -> dict:
    if getattr(args, "preset", None) is None:
        return {}
    preset_command, values = PRESETS[args.preset]
    if preset_command != command:
        parser.error(
            f"preset {args.preset!r} belongs to command {preset_command!r}"
        )
    return values


def _setting(args, preset: dict, config: dict, name: str, default, config_key=None, adapt=None):
    """Layered lookup: explicit flag > preset > config file > default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in preset:
        return preset[name]
    if config_key is not None and config_key in config:
        raw = config[config_key]
        return adapt(raw) if adapt else raw
    return default


def _write_rows(columns, rows, out_path: str | None, fmt: str) -> None:
    if fmt == "json":
        payload = json.dumps(
            {"schema_version": SCHEMA_VERSION, "rows": rows}, indent=2
        )
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        else:
            sys.stdout.write(payload + "\n")
        return
    buf = io.StringIO()
    buf.write(f"# schema_version={SCHEMA_VERSION}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[c] for c in columns])
    text = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _measured_detection_flops(point: PointSpec) -> int | None:
    """Instrumented cost of one representative detection (trial index 0).

    ``None`` when trial 0's channel is numerically singular for the detector;
    the sweep counted such trials as aborted and flagged the cell.
    """
    inst = draw(point.master_seed, point.nt, point.nr, point.snr_db, 0)
    counter = FlopCounter()
    try:
        soft = detect(point.detector, inst.h, inst.y, SnrSpec(point.snr_db), counter)
    except SingularMatrixError:
        return None
    if point.las_enabled:
        ws = precompute(inst.h, inst.y, counter)
        run(ws, slice_bpsk(soft), point.rho, point.n_f, counter=counter)
    return counter.total


def _ber_rows(experiment: str, results) -> list[dict]:
    rows = []
    for bp in results:
        p = bp.point
        model = flops_closed_form(CostKind(p.detector.value), p.nt, p.nr).flops
        if p.las_enabled:
            model += flops_closed_form(CostKind.LAS, p.nt, p.nr, p.n_f).flops
        measured = _measured_detection_flops(p)
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
                "flops_measured": "" if measured is None else measured,
                "flagged": "true" if bp.flagged else "false",
            }
        )
    return rows


def _add_common(sub, trials_flag=True):
    sub.add_argument("--seed", type=int, default=None, help="master seed")
    sub.add_argument("--jobs", type=_jobs, default=1,
                     help="worker processes (at most the CPU count)")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=["csv", "json"], default="csv")
    sub.add_argument("--config", default=None, help="JSON experiment config")
    sub.add_argument("--preset", choices=sorted(PRESETS), default=None)
    if trials_flag:
        sub.add_argument("--trials", type=int, default=None, help="max trials per cell")
        sub.add_argument(
            "--min-errors", type=int, default=None,
            help="stop a cell early once this many bit errors accumulate",
        )


def _run_ber_command(args, parser, experiment: str, grid: dict) -> int:
    config = _load_config(args.config)
    seed = _resolve_seed(args.seed, config.get("master_seed"))
    cfg = ExperimentConfig(
        nt=grid["nt"],
        nr=grid["nr"],
        snr_db=grid["snr_db"],
        rho=grid["rho"],
        detector=grid["detector"],
        las_enabled=grid["las"],
        n_f=grid["steps"],
        max_trials=grid["trials"],
        min_bit_errors=grid["min_errors"],
        master_seed=seed,
    )
    results = run_sweep(cfg, n_jobs=args.jobs)
    _write_rows(BER_COLUMNS, _ber_rows(experiment, results), args.out, args.format)
    if args.out:
        print(f"{experiment}: wrote {len(results)} rows to {args.out}")
    return 0


def cmd_ber_snr(args, parser) -> int:
    preset = _preset_values(args, parser, "ber-snr")
    config = _load_config(args.config)
    las_adapt = lambda v: {True: "on", False: "off"}.get(v, "both") if not isinstance(v, str) else v
    grid = {
        "nt": _setting(args, preset, config, "nt", 32, "nt"),
        "nr": _setting(args, preset, config, "nr", 32, "nr"),
        "snr_db": _setting(
            args, preset, config, "snr_list", [float(s) for s in range(0, 41, 5)], "snr_db"
        ),
        "detector": _detectors(_setting(args, preset, config, "detector", "all", "detector")),
        "las": _las_axis(las_adapt(_setting(args, preset, config, "las", "both", "las_enabled"))),
        "rho": _setting(args, preset, config, "rho", 1.0, "rho"),
        "steps": _setting(args, preset, config, "steps", 100, "n_f"),
        "trials": _setting(args, preset, config, "trials", 100_000, "max_trials"),
        "min_errors": _setting(args, preset, config, "min_errors", 5, "min_bit_errors"),
    }
    return _run_ber_command(args, parser, "ber-snr", grid)


def cmd_ber_antennas(args, parser) -> int:
    preset = _preset_values(args, parser, "ber-antennas")
    config = _load_config(args.config)
    n_list = _setting(args, preset, config, "n_list", list(_TABLE_N), "nt")
    las_adapt = lambda v: {True: "on", False: "off"}.get(v, "both") if not isinstance(v, str) else v
    grid = {
        "nt": n_list,
        "nr": n_list,
        "snr_db": [_setting(args, preset, config, "snr", 15.0, "snr_db")],
        "detector": _detectors(_setting(args, preset, config, "detector", "all", "detector")),
        "las": _las_axis(las_adapt(_setting(args, preset, config, "las", "both", "las_enabled"))),
        "rho": _setting(args, preset, config, "rho", 1.0, "rho"),
        "steps": _setting(args, preset, config, "steps", 256, "n_f"),
        "trials": _setting(args, preset, config, "trials", 100_000, "max_trials"),
        "min_errors": _setting(args, preset, config, "min_errors", 5, "min_bit_errors"),
    }
    return _run_ber_command(args, parser, "ber-antennas", grid)


def cmd_ber_rho(args, parser) -> int:
    preset = _preset_values(args, parser, "ber-rho")
    config = _load_config(args.config)
    n_list = _setting(args, preset, config, "n_list", [32], "nt")
    grid = {
        "nt": n_list,
        "nr": n_list,
        "snr_db": _setting(args, preset, config, "snr_list", [10.0], "snr_db"),
        "detector": _detectors(_setting(args, preset, config, "detector", "mf", "detector")),
        "las": (True,),  # a selectivity sweep is meaningless without the search
        "rho": _setting(args, preset, config, "rho_list", list(_RHO_GRID), "rho"),
        "steps": _setting(args, preset, config, "steps", 100, "n_f"),
        "trials": _setting(args, preset, config, "trials", 100_000, "max_trials"),
        "min_errors": _setting(args, preset, config, "min_errors", 5, "min_bit_errors"),
    }
    return _run_ber_command(args, parser, "ber-rho", grid)


def cmd_trace(args, parser) -> int:
    preset = _preset_values(args, parser, "trace")
    config = _load_config(args.config)
    seed = _resolve_seed(args.seed, config.get("master_seed"))
    nt = _setting(args, preset, config, "nt", 128, "nt")
    nr = _setting(args, preset, config, "nr", 128, "nr")
    snr_list = _setting(args, preset, config, "snr_list", [5.0, 10.0, 20.0], "snr_db")
    rho_list = _setting(args, preset, config, "rho_list", [1.0], "rho")
    detector = DetectorKind(_setting(args, preset, config, "detector", "mf", "detector"))
    steps = _setting(args, preset, config, "steps", 128, "n_f")
    trials = _setting(args, preset, config, "trials", 50, "max_trials")
    check_snr_keys(snr_list)
    rows = []
    for snr_db in snr_list:
        for rho in rho_list:
            point = PointSpec(
                nt=nt,
                nr=nr,
                snr_db=snr_db,
                detector=detector,
                las_enabled=True,
                rho=rho,
                n_f=steps,
                max_trials=trials,
                min_bit_errors=1,
                master_seed=seed,
            )
            agg = run_trace(point, trials, n_jobs=args.jobs)
            for step in range(steps + 1):
                rows.append(
                    {
                        "experiment": "trace",
                        "nt": nt,
                        "nr": nr,
                        "snr_db": _fmt(snr_db),
                        "detector": detector.value,
                        "rho": _fmt(rho),
                        "n_f": steps,
                        "trials": trials,
                        "step": step,
                        "mean_likelihood": f"{agg.mean_likelihood[step]:.8e}",
                        "mean_ber": f"{agg.mean_ber[step]:.5e}",
                    }
                )
    _write_rows(TRACE_COLUMNS, rows, args.out, args.format)
    if args.out:
        print(f"trace: wrote {len(rows)} rows to {args.out}")
    return 0


def _flops_row(report, bench=None) -> dict:
    row = {
        "nt": report.nt,
        "nr": report.nr,
        "n_f": report.n_f if report.n_f is not None else "",
        "detector": report.kind.value,
        "mode": "",
        "flops_model": report.model_flops,
        "flops_measured": report.measured_flops,
        "relative_error": f"{report.relative_error:.6g}",
        "verdict": report.verdict,
        "notes": report.notes,
    }
    if bench is not None:
        row.update(
            {
                "median_s": f"{bench.median_s:.6e}",
                "p10_s": f"{bench.p10_s:.6e}",
                "p90_s": f"{bench.p90_s:.6e}",
            }
        )
    return row


def cmd_flops(args, parser) -> int:
    preset = _preset_values(args, parser, "flops")
    seed = _resolve_seed(args.seed, None)
    n_list = _setting(args, preset, {}, "n_list", list(_POW2))
    steps_list = _setting(args, preset, {}, "steps_list", list(_POW2))
    do_bench = bool(_setting(args, preset, {}, "benchmark", False))
    reps = _setting(args, preset, {}, "reps", 11)
    snr = SnrSpec(10.0)
    rows = []
    columns = FLOPS_COLUMNS + (BENCH_COLUMNS if do_bench else [])
    for n in n_list:
        inst = draw(seed, n, n, snr.snr_db, 0)
        for kind in (CostKind.MF, CostKind.ZF, CostKind.MMSE):
            counter = FlopCounter()
            detect(DetectorKind(kind.value), inst.h, inst.y, snr, counter)
            bench = (
                benchmark(kind, n, n, repetitions=reps, seed=seed) if do_bench else None
            )
            rows.append(_flops_row(reconcile(kind, n, n, counter), bench))
        b0 = slice_bpsk(mf(inst.h, inst.y))
        for n_f in steps_list:
            pre_counter = FlopCounter()
            ws = precompute(inst.h, inst.y, pre_counter)
            counter = FlopCounter()
            run(ws, b0, 1.0, n_f, counter=counter)
            bench = (
                benchmark(CostKind.LAS, n, n, n_f=n_f, repetitions=reps, seed=seed)
                if do_bench
                else None
            )
            # the full-recompute row is priced by the per-step model, not measured
            priced = (("full-recompute", full_recompute_step_flops(n) * n_f),
                      ("incremental", counter))
            for mode, measured in priced:
                report = reconcile(
                    CostKind.LAS, n, n, measured, n_f=n_f,
                    extra_note=f"workspace precompute (counted separately)={pre_counter.total}",
                )
                row = _flops_row(report, bench)
                row["mode"] = mode
                rows.append(row)
    _write_rows(columns, rows, args.out, args.format)
    if args.out:
        print(f"flops: wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_selfcheck(args, parser) -> int:
    seed = _resolve_seed(args.seed, None)
    fault = None if args.inject_fault == "none" else args.inject_fault
    return run_selfcheck(seed=seed, instances=args.instances, inject_fault=fault)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimo-slas",
        description="Massive-MIMO uplink detection experiments: linear detectors "
        "plus selective-threshold sequential likelihood ascent search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ber-snr", help="BER vs SNR sweep")
    p.add_argument("--nt", type=int, default=None)
    p.add_argument("--nr", type=int, default=None)
    p.add_argument("--snr-list", type=_float_list, default=None, metavar="LIST")
    p.add_argument("--detector", choices=["mf", "zf", "mmse", "all"], default=None)
    p.add_argument("--las", choices=["on", "off", "both"], default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--steps", type=int, default=None, help="search steps (antenna visits)")
    _add_common(p)
    p.set_defaults(func=cmd_ber_snr)

    p = sub.add_parser("ber-antennas", help="BER vs paired antenna count")
    p.add_argument("--n-list", type=_int_list, default=None, metavar="LIST")
    p.add_argument("--snr", type=float, default=None)
    p.add_argument("--detector", choices=["mf", "zf", "mmse", "all"], default=None)
    p.add_argument("--las", choices=["on", "off", "both"], default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_ber_antennas)

    p = sub.add_parser("ber-rho", help="BER vs selectivity factor")
    p.add_argument("--n-list", type=_int_list, default=None, metavar="LIST")
    p.add_argument("--snr-list", type=_float_list, default=None, metavar="LIST")
    p.add_argument("--rho-list", type=_float_list, default=None, metavar="LIST")
    p.add_argument("--detector", choices=["mf", "zf", "mmse"], default=None)
    p.add_argument("--steps", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_ber_rho)

    p = sub.add_parser("trace", help="mean likelihood/BER per search step")
    p.add_argument("--nt", type=int, default=None)
    p.add_argument("--nr", type=int, default=None)
    p.add_argument("--snr-list", type=_float_list, default=None, metavar="LIST")
    p.add_argument("--rho-list", type=_float_list, default=None, metavar="LIST")
    p.add_argument("--detector", choices=["mf", "zf", "mmse"], default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    _add_common(p, trials_flag=False)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("flops", help="cost-model reconciliation (and timing)")
    p.add_argument("--n-list", type=_int_list, default=None, metavar="LIST")
    p.add_argument("--steps-list", type=_int_list, default=None, metavar="LIST")
    p.add_argument("--benchmark", action="store_true", default=None,
                   help="add wall-clock timing columns")
    p.add_argument("--reps", type=int, default=None, help="timing repetitions (>= 5)")
    _add_common(p, trials_flag=False)
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("selfcheck", help="randomized property suite")
    p.add_argument("--instances", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--inject-fault", choices=["none", "grad-sign"], default="none",
        help="deliberately corrupt the replay to prove the suite catches it",
    )
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_lists(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args, parser)
    except (ValueError, OSError) as exc:
        parser.exit(2, f"mimo-slas: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
