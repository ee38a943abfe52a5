"""Span recording around the package's public functions, installed from outside.

A :class:`Tracer` replaces each named function, in every loaded
``mimo_slas`` module that holds a reference to it, by a wrapper that records
one span per call: (name, start ns, end ns, parent span).  Spans stay in
memory and are written once, at the end, with :meth:`Tracer.save`.

Nothing in the package is edited: the wrappers go in after import, so calls
that the package makes between its own modules (``montecarlo.trial`` calling
``detectors.mf``, ``cli`` calling ``montecarlo.run_sweep``) are recorded too.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# Public functions on the path of a trial, by layer (module).  ``oracle``,
# ``selfcheck`` and ``complexity`` are not on that path; the ``cli`` layer is
# timed from the launcher's stamps instead (see ``cli.output_ms``).
LAYERS = {
    "montecarlo": ("trial_rng", "trial", "run_point", "run_sweep", "run_trace"),
    "channel": ("sample_channel", "sample_bpsk", "assemble"),
    "detectors": ("mf", "zf", "mmse", "slice_bpsk"),
    "linalg": ("gauss_invert",),
    "slas": ("precompute", "run"),
}


def _search_counts(result):
    """(steps, flips) of one ``slas.run`` call, from the trace it returns."""
    trace = result[1]
    return trace.steps_run, trace.flips


# Counts recorded at a layer boundary, taken from the call's return value.
COUNTS = {"slas.run": _search_counts}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.counts: dict[int, tuple] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if count is not None:
                counts[index] = count(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in ``LAYERS`` wherever the package refers to it."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "mimo_slas"]
        for layer, functions in LAYERS.items():
            module = sys.modules[f"mimo_slas.{layer}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrapped = self.wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def save(self, path: str) -> None:
        """Write the spans; call it after the outermost traced call returned."""
        table = np.array(self.spans, dtype=np.int64).reshape(-1, 4)
        count_index = np.array(sorted(self.counts), dtype=np.int64)
        count_values = np.array(
            [self.counts[i] for i in count_index], dtype=np.int64
        ).reshape(-1, 2)
        np.savez(
            path,
            names=np.array(self.names),
            spans=table,
            count_index=count_index,
            count_values=count_values,
        )


class SpanTable:
    """Recorded spans of one process, with the sums the layer metrics need."""

    def __init__(self, path: str):
        with np.load(path) as data:
            self.names = [str(n) for n in data["names"]]
            spans = data["spans"]
            count_index = data["count_index"]
            count_values = data["count_values"]
        self.name_id = spans[:, 0]
        self.duration = spans[:, 2] - spans[:, 1]
        self.parent = spans[:, 3]
        self.counts = dict(zip(count_index.tolist(), map(tuple, count_values.tolist())))
        self._ids = {n: i for i, n in enumerate(self.names)}
        # A span is "in a trial" when some ancestor is a montecarlo.trial span.
        trial_id = self._ids["montecarlo.trial"]
        in_trial = np.zeros(len(spans), dtype=bool)
        for i in range(len(spans)):
            p = self.parent[i]
            if p >= 0:
                in_trial[i] = in_trial[p] or self.name_id[p] == trial_id
        self.in_trial = in_trial

    def select(self, *names: str, in_trial: bool | None = None) -> np.ndarray:
        mask = np.isin(self.name_id, [self._ids[n] for n in names])
        if in_trial is not None:
            mask &= self.in_trial == in_trial
        return mask

    def calls(self, *names: str, in_trial: bool | None = None) -> int:
        return int(self.select(*names, in_trial=in_trial).sum())

    def total_ns(self, *names: str, in_trial: bool | None = None) -> int:
        return int(self.duration[self.select(*names, in_trial=in_trial)].sum())

    def self_ns(self, name: str) -> int:
        """Time in ``name`` spans minus the time of their direct children."""
        mask = self.select(name)
        own = np.flatnonzero(mask)
        children = np.isin(self.parent, own)
        return int(self.duration[mask].sum() - self.duration[children].sum())

    def summed_counts(self, name: str) -> np.ndarray:
        """Sum of the counts recorded on ``name`` spans inside trials."""
        rows = np.flatnonzero(self.select(name, in_trial=True))
        values = [self.counts[i] for i in rows.tolist()]
        return np.array(values, dtype=np.int64).reshape(-1, 2).sum(axis=0)
