"""Correctness checks that recompute results apart from the program.

Inputs of a trial are rebuilt with the program's ``trial_rng`` and channel
functions, which define the seed contract.  Everything after the draw is
recomputed here with plain numpy, from the definitions in the README and the
``slas`` module docstring rather than from the program's code:

* likelihood ``L(b) = ||y||^2 - ||y - H b||^2``; its gradient is
  ``g(b) = 2 Re(H^H y) - 2 Re(H^H H) b``;
* the search visits antenna ``k % nt`` at step ``k`` and flips a -1 bit when
  ``g_j > rho * zeta_j`` and a +1 bit when ``g_j < -rho * zeta_j``, with
  ``zeta_j = 2 ||h_j||^2``; here ``g_j`` is recomputed from scratch at every
  step instead of being updated after each flip;
* MF is ``H^H y``; MMSE is ``solve(H^H H + n0 I, H^H y)``; the slicer maps
  ``Re >= 0`` to +1.

Rounding may legitimately differ between the two computations.  A trial is
"near a boundary" when some step's gradient lies within ``THRESHOLD_TOL *
zeta_j`` of its threshold, or some soft value lies within ``TIE_TOL`` (relative
to the largest) of the slicer's tie.  Only such trials may disagree with the
program; they are counted and reported, never compared.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import numpy as np

from mimo_slas.channel import SnrSpec, assemble, sample_bpsk, sample_channel
from mimo_slas.detectors import DetectorKind
from mimo_slas.montecarlo import PointSpec, trial, trial_rng

THRESHOLD_TOL = 1e-9
TIE_TOL = 1e-9
LIKELIHOOD_RTOL = 1e-9
SAMPLES_PER_CELL = 4


def rebuild(point: PointSpec, index: int):
    """Inputs of trial ``index`` of ``point``, drawn the way the program draws them."""
    rng = trial_rng(point.master_seed, point.nt, point.nr, point.snr_db, index)
    snr = SnrSpec(point.snr_db)
    h = sample_channel(point.nt, point.nr, rng)
    b_true = sample_bpsk(point.nt, snr.es, rng)
    return assemble(h, b_true, snr, rng)


def linear_reference(point: PointSpec, h, y, n0: float):
    hh = h.conj().T
    if point.detector is DetectorKind.MF:
        return hh @ y
    reg = n0 if point.detector is DetectorKind.MMSE else 0.0  # ZF is MMSE with n0 = 0
    return np.linalg.solve(hh @ h + reg * np.eye(point.nt), hh @ y)


def search_reference(h, y, b0, rho: float, n_f: int):
    """Search with the gradient recomputed from scratch; returns (bits, near)."""
    hh = h.conj().T
    y_eff = 2.0 * (hh @ y).real
    h_real = 2.0 * (hh @ h).real
    zeta = 2.0 * np.sum(np.abs(h) ** 2, axis=0)
    b = b0.copy()
    near = False
    nt = b.shape[0]
    for k in range(n_f):
        j = k % nt
        g_j = y_eff[j] - h_real[j] @ b
        threshold = rho * zeta[j]
        margin = g_j - threshold if b[j] < 0 else -threshold - g_j
        near |= abs(margin) <= THRESHOLD_TOL * zeta[j]
        if margin > 0:
            b[j] = -b[j]
    return b, near


def reference_trial(point: PointSpec, index: int):
    """Independent result of one trial.

    Returns a dict with the bit errors of the linear detector alone and after
    the search, the final likelihood and the near flag.
    """
    inst = rebuild(point, index)
    soft = linear_reference(point, inst.h, inst.y, inst.n0).real
    near = bool(np.any(np.abs(soft) <= TIE_TOL * np.max(np.abs(soft))))
    b0 = np.where(soft >= 0.0, 1.0, -1.0)
    bits = b0
    if point.las_enabled:
        bits, near_search = search_reference(inst.h, inst.y, b0, point.rho, point.n_f)
        near |= near_search
    residual = inst.y - inst.h @ bits
    return {
        "linear_errors": int(np.sum(b0 != inst.b_true)),
        "errors": int(np.sum(bits != inst.b_true)),
        "likelihood": float(np.vdot(inst.y, inst.y).real - np.vdot(residual, residual).real),
        "near": near,
    }


class Tally:
    """Counts of what the sampled comparisons did, for the report."""

    def __init__(self):
        self.compared = 0
        self.near = 0

    def describe(self) -> str:
        return (f"{self.compared} trials compared with the independent reference, "
                f"{self.near} skipped near a threshold or slicer tie")


def compare_trials(point: PointSpec, indices, tally: Tally, with_trace=False) -> list[str]:
    """Program's ``trial`` against the reference on the given trial indices."""
    failures = []
    for i in indices:
        ref = reference_trial(point, i)
        if ref["near"]:
            tally.near += 1
            continue
        tally.compared += 1
        errors, trace = trial(point, i, record_trace=with_trace)
        if errors != ref["errors"]:
            failures.append(f"{_cell(point)} trial {i}: program {errors} bit errors, "
                            f"reference {ref['errors']}")
        if with_trace:
            final = trace.likelihood[-1] if trace.steps_run else trace.initial_likelihood
            if not np.isclose(final, ref["likelihood"], rtol=LIKELIHOOD_RTOL, atol=0.0):
                failures.append(f"{_cell(point)} trial {i}: final likelihood {final!r}, "
                                f"reference ||y||^2 - ||y - H b||^2 = {ref['likelihood']!r}")
            if trace.initial_bit_errors != ref["linear_errors"]:
                failures.append(f"{_cell(point)} trial {i}: step-0 errors "
                                f"{trace.initial_bit_errors}, reference {ref['linear_errors']}")
    return failures


def sample_indices(rng: np.random.Generator, trials: int, k: int = SAMPLES_PER_CELL):
    return sorted(rng.choice(trials, size=min(k, trials), replace=False).tolist())


def _cell(point: PointSpec) -> str:
    return (f"[{point.nt}x{point.nr} {point.snr_db:g} dB {point.detector.value} "
            f"rho={point.rho:g} seed={point.master_seed}]")


def check_ber_rows(points, rows, fixed_trials: bool) -> list[str]:
    """Row-level consistency of a BER table against the cells it describes."""
    failures = []
    if len(rows) != len(points):
        return [f"expected {len(points)} rows, got {len(rows)}"]
    for point, row in zip(points, rows):
        trials, errors = int(row["trials"]), int(row["bit_errors"])
        if float(row["rho"]) != point.rho:
            failures.append(f"{_cell(point)}: row is for rho={row['rho']}")
        expected_ber = errors / (trials * point.nt)
        if not np.isclose(float(row["ber"]), expected_ber, rtol=1e-5, atol=0.0):
            failures.append(f"{_cell(point)}: ber {row['ber']} != {expected_ber:.6e}")
        if fixed_trials:
            if trials != point.max_trials:
                failures.append(f"{_cell(point)}: ran {trials} trials, expected {point.max_trials}")
        elif row["flagged"] != "false" or errors < point.min_bit_errors:
            failures.append(f"{_cell(point)}: flagged={row['flagged']} with {errors} "
                            f"errors, floor {point.min_bit_errors}")
    return failures


def check_stop_rule(point: PointSpec, trials: int, errors: int, tally: Tally) -> list[str]:
    """The cell stopped on the trial that first reached the error floor."""
    last = reference_trial(point, trials - 1)
    if last["near"]:
        tally.near += 1
        return []
    before = errors - last["errors"]
    if last["errors"] == 0 or before >= point.min_bit_errors:
        return [f"{_cell(point)}: stopped after trial {trials - 1} with {errors} errors, "
                f"{before} before it; floor {point.min_bit_errors}"]
    return []


def check_selectivity(bers: dict[float, float]) -> list[str]:
    """The paper's claims: some rho < 1 beats rho = 1, which beats rho = 1.2."""
    best = min(bers[r] for r in (0.8, 0.85, 0.9, 0.95))
    if best < bers[1.0] < bers[1.2]:
        return []
    return [f"selectivity: best BER over rho 0.8..0.95 {best:.4e}, "
            f"rho=1 {bers[1.0]:.4e}, rho=1.2 {bers[1.2]:.4e}; expected strictly increasing"]


def check_trace_curve(nt: int, likelihood: np.ndarray, ber: np.ndarray) -> list[str]:
    """Criterion-7 properties of a rho = 1 convergence trace."""
    failures = []
    drops = np.flatnonzero(np.diff(likelihood) < 0)
    if drops.size:
        failures.append(f"trace: mean likelihood decreases after step {drops[0]}")
    share = (likelihood[40] - likelihood[0]) / (likelihood[nt] - likelihood[0])
    if abs(share - 40 / nt) > 0.06:
        failures.append(f"trace: first-pass share at step 40 is {share:.4f}, "
                        f"expected {40 / nt:.4f} +- 0.06")
    if not ber[-1] < ber[0]:
        failures.append(f"trace: final mean BER {ber[-1]:.4e} not below step 0 {ber[0]:.4e}")
    return failures
