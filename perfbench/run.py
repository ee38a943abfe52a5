#!/usr/bin/env python3
"""Benchmark of the mimo-slas lab: Monte-Carlo workloads run through its CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each invocation of the CLI runs in a fresh process (``launch.py``) on the
package under ``src/`` of this checkout.  The run repeats invocations, with
master seeds ``1000 * N + i``, for about S seconds (at least
``MIN_INVOCATIONS``), then checks every output against an independent
reference (``checks.py``) and prints one JSON object as its last line.

``--trace 0`` reports the end-to-end metrics, medians over the invocations of
times scaled by the machine's slowdown (``reference_seconds``).
``--trace 1`` runs rounds of three invocations instead: untraced and traced
on one process, then counted at the workload's own ``--jobs``, and reports
the per-layer metrics from the spans of the traced ones.  See README.md.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
# One BLAS thread per process, so that two workers use no more threads than
# two cores.  Set before numpy is first imported, here and in the children.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

MIN_INVOCATIONS = 5
RHO_GRID = (0.8, 0.85, 0.9, 0.95, 1.0, 1.05, 1.1, 1.15, 1.2)


@dataclass(frozen=True)
class Workload:
    command: str
    nt: int
    snr_db: float
    detector: str
    rhos: tuple[float, ...]
    n_f: int
    trials: int  # trial cap of each BER cell, or trials of each trace cell
    min_errors: int
    jobs: int

    def cli_args(self, master_seed: int) -> list[str]:
        shared = [f"--snr-list={self.snr_db:g}", "--detector", self.detector,
                  "--steps", str(self.n_f), "--trials", str(self.trials),
                  "--seed", str(master_seed)]
        rhos = ",".join(f"{r:g}" for r in self.rhos)
        if self.command == "ber-rho":
            return ["ber-rho", "--n-list", str(self.nt), "--rho-list", rhos,
                    "--min-errors", str(self.min_errors)] + shared
        size = ["--nt", str(self.nt), "--nr", str(self.nt)]
        if self.command == "ber-snr":
            return ["ber-snr", *size, "--las", "on", "--rho", rhos,
                    "--min-errors", str(self.min_errors)] + shared
        return ["trace", *size, "--rho-list", rhos] + shared

    def points(self, master_seed: int):
        from mimo_slas.detectors import DetectorKind
        from mimo_slas.montecarlo import PointSpec

        return [PointSpec(nt=self.nt, nr=self.nt, snr_db=self.snr_db,
                          detector=DetectorKind(self.detector), las_enabled=True,
                          rho=rho, n_f=self.n_f, max_trials=self.trials,
                          min_bit_errors=self.min_errors, master_seed=master_seed)
                for rho in self.rhos]


WORKLOADS = {
    # The paper's selectivity experiment (acceptance criterion 5): nine paired
    # cells, each run to a bit-error count over a two-process pool.
    "rho-sweep": Workload("ber-rho", nt=32, snr_db=10.0, detector="mf", rhos=RHO_GRID,
                          n_f=90, trials=100_000, min_errors=25, jobs=2),
    # MMSE dominated by the Gauss-Jordan inverse; a fixed trial count (the
    # floor is every bit wrong, so it never stops early), one process.
    "mmse-128": Workload("ber-snr", nt=128, snr_db=-10.0, detector="mmse", rhos=(1.0,),
                         n_f=128, trials=100, min_errors=100 * 128, jobs=1),
    # Criterion 7's cell: every step recorded, four 512-trial chunks, two processes.
    "trace-128": Workload("trace", nt=128, snr_db=10.0, detector="mf", rhos=(1.0,),
                          n_f=384, trials=2048, min_errors=1, jobs=2),
}

END_TO_END_UNITS = {"setup_s": "s", "trials_per_s": "trials/s",
                    "cpu_ms_per_trial": "ms/trial", "peak_rss_mib": "MiB"}
# Other tenants of the host slow its CPUs by up to 1.8x for minutes at a time,
# and slow interpreted Python and numpy alike (over every 35 s window
# measured, the ratio of their slowdowns stayed within 1.02-1.13).  Each time
# is therefore divided by the slowdown of a fixed reference timed around it:
# times are seconds at the speed at which the reference takes REFERENCE_S.
REFERENCE_S = 0.5
REFERENCE_LOOP = 2_500_000
REFERENCE_PRODUCTS = 30_000


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


@dataclass
class Invocation:
    master_seed: int
    jobs: int
    traced: bool
    trial_calls: int | None
    launched: float
    exited: float
    cpu_s: float
    peak_rss_mib: float
    stamps: dict
    output: str
    spans: Path | None
    slowdown: float = 1.0  # the reference's time around this invocation / REFERENCE_S

    @functools.cached_property
    def rows(self) -> list[dict]:
        lines = [ln for ln in self.output.splitlines() if not ln.startswith("#")]
        return list(csv.DictReader(lines))

    @property
    def trials(self) -> int:
        rows = self.rows
        if "step" in rows[0]:  # a trace repeats its trial count on every step row
            return sum(int(r["trials"]) for r in rows if r["step"] == "0")
        return sum(int(r["trials"]) for r in rows)

    @property
    def setup_s(self) -> float:
        return self.stamps["first_call"] - self.launched

    @property
    def wall_s(self) -> float:
        return self.exited - self.launched

    @property
    def trials_per_s(self) -> float:
        return self.trials / (self.wall_s - self.setup_s)

    @property
    def cpu_ms_per_trial(self) -> float:
        return 1e3 * self.cpu_s / self.trials

    @property
    def sweep_trials_per_s(self) -> float:
        """Throughput between the first call into the sweep and its last return."""
        return self.trials / (self.stamps["last_return"] - self.stamps["first_call"])

    @property
    def output_ms(self) -> float:
        return 1e3 * (self.exited - self.stamps["last_return"])


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_THREADS)
    env.pop("MIMO_SLAS_SEED", None)
    return env


def invoke(workload: Workload, master_seed: int, jobs: int, workdir: Path,
           mode: str = "plain") -> Invocation:
    """Run the CLI once in a fresh process and collect its timings."""
    tag = f"{len(list(workdir.glob('*.csv')))}-{mode}"
    out, stamps, log = (workdir / f"{tag}.{ext}" for ext in ("csv", "json", "log"))
    spans = workdir / f"{tag}.npz" if mode == "traced" else None
    calls = workdir / f"{tag}.calls"
    options = {"plain": [], "traced": ["--spans", str(spans)],
               "counted": ["--count-trials", str(calls)]}
    argv = [sys.executable, str(BENCH_DIR / "launch.py"), str(stamps), *options[mode], "--",
            *workload.cli_args(master_seed), "--jobs", str(jobs), "--out", str(out)]
    with open(log, "w", encoding="utf-8") as log_fh:
        launched = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log_fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchmarkError(f"{' '.join(argv[4:])} exited {proc.returncode}:\n"
                             f"{log.read_text(encoding='utf-8')[-2000:]}")
    return Invocation(master_seed=master_seed, jobs=jobs, traced=mode == "traced",
                      trial_calls=calls.stat().st_size if mode == "counted" else None,
                      launched=launched, exited=exited,
                      cpu_s=usage.ru_utime + usage.ru_stime,
                      peak_rss_mib=usage.ru_maxrss / 1024.0,  # Linux reports KiB
                      stamps=json.loads(stamps.read_text(encoding="utf-8")),
                      output=out.read_text(encoding="utf-8"), spans=spans)


def _reference_work() -> None:
    """A fixed mix of interpreted Python and 128x128 numpy products."""
    import numpy as np

    a = np.linspace(-1.0, 1.0, 128 * 128).reshape(128, 128)
    x = np.ones(128)
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    for _ in range(REFERENCE_PRODUCTS):
        x = a @ x
        x /= np.abs(x).max()


def reference_seconds(processes: int) -> float:
    """Wall time of the reference run at once in ``processes`` processes.

    The workload's pool runs on as many cores as its ``--jobs``, so the
    reference is timed on as many.
    """
    start = time.monotonic()
    children = []
    for _ in range(processes - 1):
        pid = os.fork()
        if pid == 0:
            try:
                _reference_work()
            finally:
                os._exit(0)
        children.append(pid)
    _reference_work()
    for pid in children:
        os.waitpid(pid, 0)
    return time.monotonic() - start


def measure(workload: Workload, seed: int, seconds: float, workdir: Path, trace: bool):
    """Invocations (or trace rounds) until ``seconds`` would be exceeded.

    The reference is timed before the first invocation and after each one;
    an invocation's slowdown is the mean of the two around it over
    ``REFERENCE_S``.
    """
    # Warm the page and bytecode caches once, as any earlier use of the CLI would.
    subprocess.run([sys.executable, "-c", "import mimo_slas.cli"], cwd=ROOT, env=child_env(),
                   check=True)
    _reference_work()  # numpy's first import and allocation are not timed
    invocations = []
    start = time.monotonic()
    before = reference_seconds(workload.jobs)
    rounds = 0
    while True:
        master_seed = 1000 * seed + rounds
        if trace:
            batch = [invoke(workload, master_seed, 1, workdir),
                     invoke(workload, master_seed, 1, workdir, "traced"),
                     invoke(workload, master_seed, workload.jobs, workdir, "counted")]
        else:
            batch = [invoke(workload, master_seed, workload.jobs, workdir)]
        after = reference_seconds(workload.jobs)
        for inv in batch:
            inv.slowdown = (before + after) / 2 / REFERENCE_S
        invocations += batch
        before = after
        rounds += 1
        elapsed = time.monotonic() - start
        if (trace or rounds >= MIN_INVOCATIONS) and elapsed * (rounds + 1) / rounds > seconds:
            return invocations


def end_to_end(invocations) -> dict:
    """Medians over the invocations, each time scaled by its slowdown."""
    def median(value):
        return statistics.median(value(inv) for inv in invocations)

    return {
        "setup_s": median(lambda inv: inv.setup_s / inv.slowdown),
        "trials_per_s": median(lambda inv: inv.trials_per_s * inv.slowdown),
        "cpu_ms_per_trial": median(lambda inv: inv.cpu_ms_per_trial / inv.slowdown),
        "peak_rss_mib": median(lambda inv: inv.peak_rss_mib),
    }


def per_layer(workload: Workload, invocations) -> dict:
    """Per-layer metrics from the spans of the traced invocations."""
    from mimo_slas.channel import SnrSpec
    from mimo_slas.detectors import mf, mmse
    from mimo_slas.linalg import FlopCounter
    from tracer import SpanTable

    import checks

    traced = [inv for inv in invocations if inv.traced]
    counted = [inv for inv in invocations if inv.trial_calls is not None]
    untraced = [inv for inv in invocations if not inv.traced and inv.trial_calls is None]
    tables = [SpanTable(str(inv.spans)) for inv in traced]

    def total(*names, in_trial=True):
        return sum(t.total_ns(*names, in_trial=in_trial) for t in tables)

    def calls(*names, in_trial=True):
        return sum(t.calls(*names, in_trial=in_trial) for t in tables)

    linear = ("detectors.mf", "detectors.zf", "detectors.mmse")
    n = calls("montecarlo.trial", in_trial=False)
    steps, flips = sum(t.summed_counts("slas.run") for t in tables)
    inverts = calls("linalg.gauss_invert", in_trial=None)
    point = workload.points(traced[0].master_seed)[0]
    inst = checks.rebuild(point, 0)
    counter = FlopCounter()
    if workload.detector == "mf":
        mf(inst.h, inst.y, counter)
    else:
        mmse(inst.h, inst.y, SnrSpec(point.snr_db), counter)
    # Saving the spans delays a traced command's exit, so the overhead is taken
    # over the sweep alone, and the output time from the untraced invocations.
    untraced_tps = statistics.median(inv.sweep_trials_per_s for inv in untraced)
    traced_tps = statistics.median(inv.sweep_trials_per_s for inv in traced)
    trials_counted = sum(inv.trials for inv in counted)
    trial_calls = sum(inv.trial_calls for inv in counted)
    if trial_calls < trials_counted:
        raise BenchmarkError(f"counted {trial_calls} trial calls for {trials_counted} trials: "
                             "the pool's workers did not inherit the counter")
    return {
        "montecarlo.seed_us": total("montecarlo.trial_rng") / n / 1e3,
        "montecarlo.trial_self_us": sum(t.self_ns("montecarlo.trial") for t in tables) / n / 1e3,
        "montecarlo.useful_ratio": trials_counted / trial_calls,
        "montecarlo.aggregate_ms": (total("montecarlo.run_sweep", "montecarlo.run_trace",
                                          in_trial=False)
                                    - total("montecarlo.trial", in_trial=False)) / len(tables) / 1e6,
        "channel.draw_us": total("channel.sample_channel", "channel.sample_bpsk",
                                 "channel.assemble") / n / 1e3,
        "detectors.detect_us": total(*linear, "detectors.slice_bpsk") / n / 1e3,
        "linalg.gauss_invert_us": (total("linalg.gauss_invert", in_trial=None) / inverts / 1e3
                                   if inverts else 0.0),
        "detectors.mflops_per_s": counter.total * calls(*linear) / (total(*linear) / 1e9) / 1e6,
        "slas.precompute_us": total("slas.precompute") / n / 1e3,
        "slas.run_us": total("slas.run") / n / 1e3,
        "slas.step_ns": total("slas.run") / steps,
        "slas.flips_per_trial": flips / n,
        "slas.flip_ratio": flips / steps,
        "cli.output_ms": statistics.median(inv.output_ms for inv in untraced),
        "tracing.overhead_pct": 100.0 * (untraced_tps - traced_tps) / untraced_tps,
    }


LAYER_UNITS = {
    "montecarlo.seed_us": "us/trial", "montecarlo.trial_self_us": "us/trial",
    "montecarlo.useful_ratio": "ratio", "montecarlo.aggregate_ms": "ms/run",
    "channel.draw_us": "us/trial", "detectors.detect_us": "us/trial",
    "linalg.gauss_invert_us": "us/call", "detectors.mflops_per_s": "Mflop/s",
    "slas.precompute_us": "us/trial", "slas.run_us": "us/trial", "slas.step_ns": "ns/step",
    "slas.flips_per_trial": "count", "slas.flip_ratio": "ratio", "cli.output_ms": "ms/run",
    "tracing.overhead_pct": "%",
}


def check(workload: Workload, seed: int, invocations) -> list[str]:
    """Every correctness check of the run; returns the failures."""
    import numpy as np

    import checks

    failures = []
    by_seed: dict[int, Invocation] = {}
    for inv in invocations:
        first = by_seed.setdefault(inv.master_seed, inv)
        if inv.output != first.output:  # the seed contract: same bytes at any --jobs
            failures.append(f"seed {inv.master_seed}: output at --jobs {inv.jobs} differs "
                            f"from --jobs {first.jobs}")
        if inv.stamps["trials"] != inv.trials:
            failures.append(f"seed {inv.master_seed}: sweep returned {inv.stamps['trials']} "
                            f"trials, output lists {inv.trials}")
    rng = np.random.default_rng(seed)
    tally = checks.Tally()
    pooled = {rho: [0, 0] for rho in workload.rhos}
    for master_seed, inv in by_seed.items():
        points, rows = workload.points(master_seed), inv.rows
        if workload.command == "trace":
            point = points[0]
            likelihood = np.array([float(r["mean_likelihood"]) for r in rows])
            ber = np.array([float(r["mean_ber"]) for r in rows])
            if len(rows) != point.n_f + 1 or inv.trials != workload.trials:
                failures.append(f"seed {master_seed}: {len(rows)} steps, {inv.trials} trials")
                continue
            failures += checks.check_trace_curve(point.nt, likelihood, ber)
            failures += checks.compare_trials(point, checks.sample_indices(rng, inv.trials),
                                              tally, with_trace=True)
            continue
        fixed = workload.command == "ber-snr"  # a fixed trial count, no stop rule
        failures += checks.check_ber_rows(points, rows, fixed_trials=fixed)
        for point, row in zip(points, rows):
            trials, errors = int(row["trials"]), int(row["bit_errors"])
            pooled[point.rho][0] += errors
            pooled[point.rho][1] += trials * point.nt
            failures += checks.compare_trials(point, checks.sample_indices(rng, trials),
                                              tally)
            if not fixed:
                failures += checks.check_stop_rule(point, trials, errors, tally)
            elif master_seed == invocations[0].master_seed:
                failures += _check_every_trial(point, trials, errors)
    if workload.command == "ber-rho":
        failures += checks.check_selectivity({r: e / b for r, (e, b) in pooled.items()})
    print(f"correctness: {len(by_seed)} distinct outputs; {tally.describe()}")
    return failures


def _check_every_trial(point, trials: int, errors: int) -> list[str]:
    """A fixed-count cell: the total over all trials, and the search's gain."""
    import checks

    refs = [checks.reference_trial(point, i) for i in range(trials)]
    near = sum(r["near"] for r in refs)
    ref_errors = sum(r["errors"] for r in refs)
    linear_errors = sum(r["linear_errors"] for r in refs)
    failures = []
    if abs(ref_errors - errors) > point.nt * near:
        failures.append(f"seed {point.master_seed}: {errors} bit errors, reference "
                        f"{ref_errors} ({near} trials near a boundary)")
    if not errors < linear_errors:
        failures.append(f"seed {point.master_seed}: search left {errors} errors, "
                        f"{point.detector.value} alone {linear_errors}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "mimo_slas" / "cli.py").is_file():
        print(f"run.py: no package source at {SRC / 'mimo_slas'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        invocations = measure(workload, args.seed, args.seconds, workdir, bool(args.trace))
        if args.trace:
            metrics, units = per_layer(workload, invocations), LAYER_UNITS
        else:
            metrics, units = end_to_end(invocations), END_TO_END_UNITS
        failures = check(workload, args.seed, invocations)
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(inv.trials for inv in invocations)
    failed = sum(inv.stamps["aborted"] for inv in invocations)
    print(f"{args.workload}: {len(invocations)} invocations, seed {args.seed}, "
          f"{attempted} trials attempted, {failed} failed")
    slowdowns = [inv.slowdown for inv in invocations]
    print(f"  slowdown against the reference: median {statistics.median(slowdowns):.3f}, "
          f"range {min(slowdowns):.3f}-{max(slowdowns):.3f}")
    unscaled = ", ".join(f"{name} {statistics.median(getattr(inv, name) for inv in invocations):.6g}"
                         for name in ("wall_s", "cpu_s", "setup_s", "trials_per_s"))
    print(f"  unscaled medians: {unscaled}")
    for key, value in metrics.items():
        print(f"  {key:28s} {value:14.6g} {units[key]}")
    for failure in failures:
        print(f"FAIL {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
