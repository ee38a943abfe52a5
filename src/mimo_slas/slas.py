"""Sequential likelihood ascent search with a selective flip threshold.

Starting from a linear detector's hard decision, the search visits transmit
antennas in a fixed circular order (antenna ``k % nt`` at step ``k``) and
flips the visited bit when the likelihood gradient at that coordinate clears
a per-antenna threshold scaled by the selectivity factor ``rho``:

* flip a -1 bit when ``g_j >  rho * zeta_j``,
* flip a +1 bit when ``g_j < -rho * zeta_j``,

with ``zeta_j = |(H_real)_jj|`` and strict inequalities (a boundary hit does
not flip).  ``rho = 1`` is the classical ascent rule and guarantees the
likelihood never decreases; ``rho < 1`` flips more eagerly and trades
monotonicity for a lower error floor.

Workspace quantities (real-valued reduction of the complex model):

* ``y_eff   = 2 * Re(H^H y)``  (elementwise equal to ``H^H y + conj(H^H y)``),
* ``H_eff   = H^H H`` (formed by :func:`precompute`, not kept),
* ``H_real  = 2 * Re(H_eff)``,
* likelihood ``L(b) = b^T y_eff - b^T Re(H_eff) b``,
* gradient   ``g(b) = y_eff - H_real b``.

On an accepted flip of bit j the likelihood changes by exactly
``-2*b_j*g_j - 2*(H_real)_jj`` (pre-flip values), which equals
``2*(|g_j| - zeta_j)`` whenever the flip rule fired; the gradient update is
the rank-one correction ``g += 2*b_j*(H_real column j)`` using the pre-flip
bit.  :func:`run` is the only implementation of the rule and of both
incremental updates; the standalone ``likelihood``/``gradient_full``
recomputations exist so that tests and :mod:`mimo_slas.selfcheck` can replay
its trace step by step against direct evaluation.

Antenna indices are 0-based everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detectors import HardDecision
from .linalg import (
    FlopCounter,
    hermitian_transpose,
    mat_mul,
    mat_vec,
    mat_vec_flops,
    real_part_scaled,
)

__all__ = [
    "SlasWorkspace",
    "SlasTrace",
    "precompute",
    "likelihood",
    "gradient_full",
    "run",
    "full_recompute_step_flops",
]


@dataclass(frozen=True)
class SlasWorkspace:
    """Receiver-side quantities shared by every step of a search."""

    y_eff: np.ndarray    # (nt,) real
    h_real: np.ndarray   # (nt, nt) real, symmetric
    zeta_base: np.ndarray  # (nt,) real, |diag(h_real)|

    @property
    def nt(self) -> int:
        return self.y_eff.shape[0]


@dataclass
class SlasTrace:
    """Per-step record of a search plus entry/exit summaries.

    ``antenna[k]``, ``likelihood[k]``, ``flipped[k]`` describe the state
    after step k (0-based); ``bit_errors`` is populated only when the true
    payload was supplied.  ``steps_run`` is always ``n_f``.
    ``final_gradient`` is the incrementally maintained gradient at exit.
    """

    antenna: np.ndarray
    likelihood: np.ndarray
    flipped: np.ndarray
    bit_errors: np.ndarray | None
    final_bits: np.ndarray
    initial_likelihood: float
    initial_bit_errors: int | None
    flips: int
    steps_run: int
    converged: bool
    final_gradient: np.ndarray


def precompute(
    h: np.ndarray, y: np.ndarray, counter: FlopCounter | None = None
) -> SlasWorkspace:
    """Build the search workspace from the channel estimate and observation."""
    hh = hermitian_transpose(h)
    h_eff = mat_mul(hh, h, counter)
    hy = mat_vec(hh, y, counter)
    if counter is not None:
        counter.charge(multiplications=hy.shape[0])  # scaling Re(H^H y) by 2
    y_eff = 2.0 * hy.real
    h_real = real_part_scaled(h_eff, 2.0, counter)
    zeta_base = np.abs(np.diag(h_real))
    return SlasWorkspace(y_eff=y_eff, h_real=h_real, zeta_base=zeta_base)


def likelihood(ws: SlasWorkspace, b: np.ndarray) -> float:
    """L(b) = b^T y_eff - b^T Re(H_eff) b, evaluated directly."""
    b = np.asarray(b, dtype=np.float64)
    return float(b @ ws.y_eff - 0.5 * (b @ (ws.h_real @ b)))


def gradient_full(
    ws: SlasWorkspace, b: np.ndarray, counter: FlopCounter | None = None
) -> np.ndarray:
    """g = y_eff - H_real b recomputed from scratch (2*nt^2 real flops)."""
    b = np.asarray(b, dtype=np.float64)
    nt = ws.nt
    if counter is not None:
        # real mat-vec: nt^2 mults + nt*(nt-1) adds, then nt subtractions
        counter.charge(additions=nt * nt, multiplications=nt * nt)
    return ws.y_eff - ws.h_real @ b


def full_recompute_step_flops(nt: int) -> int:
    """Model cost of one step if the gradient were recomputed from scratch
    at complex rates: one mat-vec (8*nt^2 - 2*nt) plus one vector
    subtraction (2*nt) = exactly 8*nt^2."""
    adds, mults = mat_vec_flops(nt, nt)
    return adds + mults + 2 * nt


def run(
    ws: SlasWorkspace,
    b0: HardDecision,
    rho: float,
    n_f: int,
    b_true: np.ndarray | None = None,
    counter: FlopCounter | None = None,
) -> tuple[HardDecision, SlasTrace]:
    """Run n_f sequential steps from the initial decision ``b0``.

    Args:
        ws: precomputed workspace.
        b0: initial hard decision (the linear detector's output).
        rho: selectivity factor; the threshold is rho * zeta.
        n_f: number of steps (antenna visits); 0 is allowed.
        b_true: optional true payload (+-1); enables bit-error tracking.
        counter: optional flop counter, charged what the run does: the
            initial gradient 2*nt^2, the thresholds nt, and 2*nt + 1 per
            accepted flip.

    Returns:
        (final hard decision, trace).
    """
    if n_f < 0:
        raise ValueError(f"n_f must be >= 0, got {n_f}")
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    nt = ws.nt
    b = np.asarray(b0.bits, dtype=np.float64).copy()
    if b.shape != (nt,):
        raise ValueError(f"b0 has shape {b.shape}, workspace expects ({nt},)")

    g = ws.y_eff - ws.h_real @ b
    lam = 0.5 * float(b @ ws.y_eff + b @ g)
    thresholds = (rho * ws.zeta_base).tolist()

    err: int | None = None
    truth: list | None = None
    if b_true is not None:
        truth_array = np.asarray(b_true, dtype=np.float64)
        err = int(np.count_nonzero(b != truth_array))
        truth = truth_array.tolist()

    # The loop steps on Python floats: the same IEEE operations, in the same
    # order, as on numpy scalars, at a fraction of the per-step overhead.
    # The likelihood and error count change only on a flip, so only flips
    # are recorded; the per-step arrays are expanded from them at the end.
    h_real = ws.h_real
    diag = h_real.diagonal().tolist()
    bits = b.tolist()
    grad = g.tolist()
    initial_lam = lam
    initial_err = err
    flip_steps: list[int] = []
    lams = [lam]
    errs = [err]
    for k in range(n_f):
        j = k % nt
        bj = bits[j]
        gj = grad[j]
        if gj > thresholds[j] if bj == -1.0 else gj < -thresholds[j]:
            lam += -2.0 * bj * gj - 2.0 * diag[j]
            g += (2.0 * bj) * h_real[j]
            grad = g.tolist()
            bits[j] = b[j] = -bj
            if err is not None:
                err += 1 if -bj != truth[j] else -1
            flip_steps.append(k)
            lams.append(lam)
            errs.append(err)
    flips = len(flip_steps)
    silent = n_f - flip_steps[-1] - 1 if flips else n_f  # steps since the last flip
    flipped = np.zeros(n_f, dtype=bool)
    flipped[flip_steps] = True
    done = flipped.cumsum()  # flips up to and including each step

    if counter is not None:
        counter.charge(additions=nt * nt, multiplications=nt * nt)  # initial gradient
        counter.charge(multiplications=nt)  # thresholds rho * zeta
        counter.charge(additions=flips * nt, multiplications=flips * (nt + 1))

    trace = SlasTrace(
        antenna=np.arange(n_f, dtype=np.int32) % nt,
        likelihood=np.array(lams, dtype=np.float64)[done],
        flipped=flipped,
        bit_errors=None if err is None else np.array(errs, dtype=np.int32)[done],
        final_bits=b,
        initial_likelihood=initial_lam,
        initial_bit_errors=initial_err,
        flips=flips,
        steps_run=n_f,
        converged=silent >= nt,
        final_gradient=g,
    )
    return HardDecision(bits=b), trace
