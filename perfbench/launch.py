"""Run one ``mimo-slas`` command in this process and record when it ran.

Usage::

    python3 launch.py STAMPS [--spans FILE | --count-trials FILE] -- CLI_ARGS...

The command runs through ``mimo_slas.cli.main``, the console script's entry
point.  The only hook in an untraced run is a thin wrapper on the
``run_sweep``/``run_trace`` names the CLI calls: it notes the monotonic time
of the first call and of the last return, and the trials each sweep ran and
aborted.  These go to the JSON file STAMPS when the command returns.

``--spans FILE`` also wraps every public function on the path of a trial
(see ``tracer.LAYERS``) and saves the spans to FILE.  ``--count-trials FILE``
counts ``montecarlo.trial`` calls in this process and in every worker it
forks: each call appends one byte to FILE, whose size is the count.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


def _parse(argv):
    if "--" not in argv:
        sys.exit("usage: launch.py STAMPS [--spans FILE | --count-trials FILE] -- CLI_ARGS...")
    split = argv.index("--")
    head, cli_args = argv[:split], argv[split + 1:]
    stamps, options = head[0], head[1:]

    def value(flag):
        return options[options.index(flag) + 1] if flag in options else None

    return stamps, value("--spans"), value("--count-trials"), cli_args


def _count_calls(module, name, path):
    """Append one byte to ``path`` per call; O_APPEND keeps workers' writes whole."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    original = getattr(module, name)

    @functools.wraps(original)
    def counted(*args, **kwargs):
        os.write(fd, b".")
        return original(*args, **kwargs)

    setattr(module, name, counted)


def main(argv) -> int:
    stamps_path, spans_path, count_path, cli_args = _parse(argv)
    from mimo_slas import cli, montecarlo

    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    if count_path is not None:
        _count_calls(montecarlo, "trial", count_path)

    stamps = {"first_call": None, "last_return": None, "trials": 0, "aborted": 0}

    def stamped(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            if stamps["first_call"] is None:
                stamps["first_call"] = time.monotonic()
            result = fn(*args, **kwargs)
            stamps["last_return"] = time.monotonic()
            if isinstance(result, list):  # run_sweep: one BerPoint per cell
                stamps["trials"] += sum(p.trials_run for p in result)
                stamps["aborted"] += sum(p.aborted_trials for p in result)
            else:  # run_trace: one TraceAggregate
                stamps["trials"] += result.trials
            return result

        return call

    cli.run_sweep = stamped(cli.run_sweep)
    cli.run_trace = stamped(cli.run_trace)
    try:
        code = cli.main(cli_args)
    finally:
        with open(stamps_path, "w", encoding="utf-8") as fh:
            json.dump(stamps, fh)
        if tracer is not None:
            tracer.save(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
