"""Randomized property suite that replays the search kernel behind every BER.

Instance i is trial i of its (nt, nt, snr) cell under the seed contract,
drawn by :func:`mimo_slas.montecarlo.draw` and started as every trial is,
with nt = nr, snr and the detector taken round robin (see :func:`_instance`).
So its search is byte for byte the trace of ``montecarlo.trial`` at rho = 1
and n_f = 64 nt on that trial (README "Reproducibility").

The instances of each antenna count run as one block of
:func:`mimo_slas.slas.run` at selectivity factor 1, as the Monte-Carlo
trials do, and each instance's row of the block is walked with direct
recomputation only (``gradient_full``, ``likelihood``) up to the first full
silent pass.  Checks per instance:

* monotone    — the recomputed likelihood never drops across a recorded flip,
* improves    — the final likelihood is >= the initializer's,
* fixed-point — a silent pass is reached, nothing flips after it, and no
                single flip improves the final bits (local optimum),
* gradient    — each recorded flip equals the threshold rule on the
                recomputed gradient; recorded likelihoods and the final
                incremental gradient match recomputation to 1e-9,
* ml-bound    — the final likelihood never exceeds the exhaustive ML value.

``inject_fault="grad-sign"`` runs the kernel on a workspace whose ``H_real``
is negated, so its gradient and every rank-one update are wrong, while the
replay keeps the true workspace and stays exact; the gradient check must then
fail (the CLI exits 1).  This keeps the suite itself testable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detectors import DetectorKind
from .montecarlo import PointSpec, _start, draw
from .oracle import is_local_optimum, ml_bruteforce
from .slas import SlasTrace, SlasWorkspace, gradient_full, likelihood, run

__all__ = ["CheckCounts", "run_selfcheck", "CHECK_NAMES"]

CHECK_NAMES = ("monotone", "improves", "fixed-point", "gradient", "ml-bound")

_NT_AXIS = (2, 4, 8)
_SNR_AXIS = (0.0, 10.0, 20.0)
_DETECTOR_AXIS = (DetectorKind.MF, DetectorKind.ZF, DetectorKind.MMSE)
_TOL = 1e-9


@dataclass
class CheckCounts:
    passed: int = 0
    failed: int = 0
    first_failure: int | None = None

    def record(self, ok: bool, instance: int) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = instance


def _instance(instance: int, seed: int):
    """Workspace and initial decision of one instance: the start
    (``montecarlo._start``, which every Monte-Carlo trial takes) of trial
    ``instance`` of its (nt, nt, snr) cell.  The key leaves out the
    detector; the instances of one (nt, snr) still have distinct indices."""
    nt = _NT_AXIS[instance % 3]
    point = PointSpec(nt=nt, nr=nt, snr_db=_SNR_AXIS[(instance // 3) % 3],
                      detector=_DETECTOR_AXIS[(instance // 9) % 3], las_enabled=True,
                      rho=1.0, n_f=64 * nt, max_trials=1, min_bit_errors=1, master_seed=seed)
    inst = draw(seed, nt, nt, point.snr_db, instance)
    _, b0, ws, singular = _start(point, inst.h[None], inst.y[None])
    if singular:
        raise singular[0]
    return SlasWorkspace(ws.y_eff[0], ws.h_real[0]), b0[0]


def _traces(cases: list, fault: str | None) -> list[SlasTrace]:
    """Each instance's trace at rho = 1 over 64 passes, from one block of the
    kernel per antenna count."""
    traces = [None] * len(cases)
    sign = -1.0 if fault == "grad-sign" else 1.0
    for k, nt in enumerate(_NT_AXIS[:len(cases)]):
        index = range(k, len(cases), 3)  # instance i has nt _NT_AXIS[i % 3]
        stacked = SlasWorkspace(
            y_eff=np.stack([cases[i][0].y_eff for i in index]),
            h_real=sign * np.stack([cases[i][0].h_real for i in index]),
        )
        b0 = np.stack([cases[i][1] for i in index])
        _, block = run(stacked, b0, [1.0], 64 * nt)
        for row, i in enumerate(index):
            traces[i] = block.row(row)
    return traces


def _check_instance(
    instance: int, ws, b0, trace: SlasTrace, results: dict[str, CheckCounts]
) -> None:
    nt, zeta = ws.nt, ws.zeta_base
    b = b0.copy()
    initial = previous = likelihood(ws, b)
    monotone_ok = gradient_ok = True
    silent = 0
    for k, fired in enumerate(trace.flipped):
        j = k % nt
        g = gradient_full(ws, b)
        gradient_ok &= fired == (g[j] > zeta[j] if b[j] == -1.0 else g[j] < -zeta[j])
        if fired:
            b[j] = -b[j]
        current = likelihood(ws, b)
        gradient_ok &= abs(trace.likelihood[k] - current) <= _TOL
        monotone_ok &= current >= previous - _TOL
        previous = current
        silent = 0 if fired else silent + 1
        if silent >= nt:
            break
    converged = (
        silent >= nt
        and not trace.flipped[k + 1:].any()
        and np.array_equal(b, trace.final_bits)
    )

    final_bits = trace.final_bits
    gradient_ok &= np.max(np.abs(trace.final_gradient - gradient_full(ws, final_bits))) <= _TOL
    final = likelihood(ws, final_bits)
    ml = ml_bruteforce(ws)
    results["monotone"].record(monotone_ok, instance)
    results["improves"].record(final >= initial - _TOL, instance)
    results["fixed-point"].record(
        converged and is_local_optimum(ws, final_bits), instance
    )
    results["gradient"].record(gradient_ok, instance)
    results["ml-bound"].record(final <= ml.lambda_star + _TOL, instance)


def run_selfcheck(
    seed: int = 0,
    instances: int = 1000,
    inject_fault: str | None = None,
) -> int:
    """Run the suite; returns 0 when every check passes on every instance."""
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    if seed < 0:
        raise ValueError(f"master_seed must be >= 0, got {seed}")
    if inject_fault not in (None, "grad-sign"):
        raise ValueError(f"unknown fault: {inject_fault!r}")
    results = {name: CheckCounts() for name in CHECK_NAMES}
    cases = [_instance(instance, seed) for instance in range(instances)]
    for instance, trace in enumerate(_traces(cases, inject_fault)):
        _check_instance(instance, *cases[instance], trace, results)

    print(
        f"selfcheck: {instances} instances, master seed {seed}"
        + (f", injected fault: {inject_fault}" if inject_fault else "")
    )
    print(f"  {'check':<14} {'pass':>6} {'fail':>6}  first-failing-instance")
    failures = 0
    for name in CHECK_NAMES:
        c = results[name]
        failures += c.failed
        where = "" if c.first_failure is None else str(c.first_failure)
        print(f"  {name:<14} {c.passed:>6} {c.failed:>6}  {where}")
    print("selfcheck: " + ("PASS" if failures == 0 else "FAIL"))
    return 0 if failures == 0 else 1
