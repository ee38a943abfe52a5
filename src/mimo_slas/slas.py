"""Sequential likelihood ascent search with a selective flip threshold.

Starting from a linear detector's +-1 decision, the search visits transmit
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
* ``H_eff   = H^H H``, of which the search reads only the real part and
  which is not kept,
* ``H_real  = 2 * Re(H_eff)``, whose diagonal gives the thresholds
  ``zeta`` (derived by :class:`SlasWorkspace`, which stores only ``y_eff``
  and ``H_real``).  :func:`precompute` forms it from the channel as
  ``2 S^T S`` over the real stack ``S = [Re H; Im H]``
  (:func:`~mimo_slas.linalg.gram_real`), never the complex ``H_eff``;
  :func:`workspace` takes a complex ``H_eff`` that a ZF or MMSE detector
  has already formed,
* likelihood ``L(b) = b^T y_eff - b^T Re(H_eff) b``,
* gradient   ``g(b) = y_eff - H_real b``.

On an accepted flip of bit j the likelihood gains exactly
``-2*b_j*g_j - 2*(H_real)_jj`` (pre-flip values), which equals
``2*(|g_j| - zeta_j)`` whenever the flip rule fired; the gradient update is
the rank-one correction ``g += 2*b_j*(H_real column j)`` using the pre-flip
bit.  A flip is recorded by its gain and by whether the new bit is wrong; a
row's likelihood and bit errors are running sums of those records.
:func:`run` is the only implementation of the rule and of both incremental
updates; the standalone ``likelihood``/``gradient_full`` evaluate states
directly, for tests, :mod:`mimo_slas.selfcheck` and :mod:`mimo_slas.oracle`.

:func:`run` searches a block of rows at once: T trials stacked along a
leading axis of the workspace, each searched at R values of rho.  Every
row's bits, gradient and gains go through the same IEEE operations, in the
same order, as a search run alone, so a row's record is byte for byte
that of a block of one row, which is what a single search is.  The block
skips the steps on which no row can flip (see :func:`_search`) and records
only flips; :meth:`SlasBlock.paths` expands a range of rows into their
per-step paths, and :meth:`SlasBlock.row` one row into its
:class:`SlasTrace`.

Antenna indices are 0-based everywhere.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .detectors import mf
from .linalg import FlopCounter, gram_real

__all__ = [
    "SlasWorkspace",
    "SlasTrace",
    "SlasBlock",
    "precompute",
    "workspace",
    "likelihood",
    "gradient_full",
    "check_steps",
    "run",
]


@dataclass(frozen=True)
class SlasWorkspace:
    """Receiver-side quantities shared by every step of a search.  A block of
    trials stacks them along a leading trial axis; the flip thresholds
    ``zeta_base`` are derived from ``h_real``."""

    y_eff: np.ndarray    # (nt,) real, or (trials, nt)
    h_real: np.ndarray   # (nt, nt) real, symmetric, or (trials, nt, nt)

    @property
    def nt(self) -> int:
        return self.y_eff.shape[-1]

    @property
    def zeta_base(self) -> np.ndarray:
        """``|diag(h_real)|``: (nt,) real, or (trials, nt)."""
        return np.abs(np.diagonal(self.h_real, axis1=-2, axis2=-1))


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


@dataclass(frozen=True)
class SlasBlock:
    """Record of a block of searches; row ``t * R + c`` is trial t searched at
    the c-th of R rho values.

    Only flips are recorded.  Record q is a flip of row ``flip_row[q]`` at
    step ``flip_step[q]`` that adds ``flip_gain[q]`` to the row's likelihood
    and leaves the new bit wrong if ``flip_wrong[q]`` (None without a true
    payload); row i's records are ``offsets[i]:offsets[i+1]``, in step
    order.  ``flips`` and ``steps_run`` are totals over the rows.
    :meth:`paths` expands a range of rows into their per-step paths in one
    pass, as running sums of the records from the rows' initial values, and
    :meth:`row` is that of one row, as its :class:`SlasTrace`.
    """

    n_f: int
    final_bits: np.ndarray          # (rows, nt)
    final_gradient: np.ndarray      # (rows, nt)
    initial_likelihood: np.ndarray  # (rows,)
    initial_bit_errors: np.ndarray | None  # (rows,)
    flip_row: np.ndarray
    flip_step: np.ndarray
    flip_gain: np.ndarray
    flip_wrong: np.ndarray | None
    offsets: np.ndarray             # (rows + 1,)

    @property
    def flips(self) -> int:
        return int(self.flip_row.size)

    @property
    def steps_run(self) -> int:
        return self.final_bits.shape[0] * self.n_f

    def paths(self, first: int, stop: int):
        """Rows [first, stop)'s per-step paths, from their flip records in one
        pass: ``(flipped, likelihood, bit_errors)``, with ``flipped[r, k]``
        whether step k flipped, and ``likelihood`` and ``bit_errors`` (int32,
        None without a true payload) of shape (rows, n_f + 1), column 0 the
        initial value and column k + 1 the value after step k.

        A row's likelihood is the running sum of its gains from its initial
        value, taken left to right (``cumsum`` along the padded rows), as
        the loop's ``lam += gain``; its bit errors add one for each flip to a
        wrong bit and subtract one for each other flip.
        """
        n_f, rows = self.n_f, stop - first
        lo, hi = self.offsets[first], self.offsets[stop]
        owner = self.flip_row[lo:hi]
        nth = np.arange(lo, hi) - self.offsets[owner]  # each record's place in its row
        row = owner - first
        steps = self.flip_step[lo:hi]
        flipped = np.zeros((rows, n_f), dtype=bool)
        flipped[row, steps] = True
        done = np.zeros((rows, n_f + 1), dtype=np.int64)  # flips up to each column
        np.cumsum(flipped, axis=1, out=done[:, 1:])
        width = int(np.diff(self.offsets[first:stop + 1]).max(initial=0)) + 1
        gains = np.zeros((rows, width))  # the padding past a row's flips is never read
        gains[:, 0] = self.initial_likelihood[first:stop]
        gains[row, nth + 1] = self.flip_gain[lo:hi]
        likelihood = np.take_along_axis(np.cumsum(gains, axis=1), done, axis=1)
        errs = None
        if self.initial_bit_errors is not None:
            errs = np.zeros((rows, n_f + 1), dtype=np.int32)
            errs[:, 0] = self.initial_bit_errors[first:stop]
            errs[row, steps + 1] = np.where(self.flip_wrong[lo:hi], 1, -1)
            np.cumsum(errs, axis=1, dtype=np.int32, out=errs)
        return flipped, likelihood, errs

    def row(self, i: int) -> SlasTrace:
        """The per-step trace of row ``i``: :meth:`paths` of that row."""
        n_f, nt = self.n_f, self.final_bits.shape[1]
        (flipped,), (lams,), errs = self.paths(i, i + 1)
        last = self.offsets[i + 1]
        flips = int(last - self.offsets[i])
        # steps since the last flip
        silent = n_f - int(self.flip_step[last - 1]) - 1 if flips else n_f
        return SlasTrace(
            antenna=np.arange(n_f, dtype=np.int32) % nt,
            likelihood=lams[1:],
            flipped=flipped,
            bit_errors=None if errs is None else errs[0, 1:],
            final_bits=self.final_bits[i],
            initial_likelihood=float(self.initial_likelihood[i]),
            initial_bit_errors=None if errs is None else int(self.initial_bit_errors[i]),
            flips=flips,
            steps_run=n_f,
            converged=silent >= nt,
            final_gradient=self.final_gradient[i],
        )


def precompute(
    h: np.ndarray, y: np.ndarray, counter: FlopCounter | None = None
) -> SlasWorkspace:
    """Build the search workspace from the channel estimate and observation,
    or the stacked workspaces of a stack of them (leading trial axis):
    :func:`workspace` of ``Re(H^H H)``, one real product
    (:func:`~mimo_slas.linalg.gram_real`), and the matched filter ``H^H y``.
    It charges what :func:`workspace` of the complex ``H^H H`` would."""
    return workspace(gram_real(h, counter), mf(h, y, counter), counter)


def workspace(
    gram: np.ndarray, z: np.ndarray, counter: FlopCounter | None = None
) -> SlasWorkspace:
    """The search workspace from ``H_eff = H^H H`` (or its real part) and
    ``z = H^H y``, or the stacked workspaces of stacks of them;
    :func:`precompute` after its two products."""
    if counter is not None:
        counter.charge(z.size + gram.size)  # scaling both real parts by 2
    return SlasWorkspace(y_eff=2.0 * z.real, h_real=2.0 * gram.real)


def likelihood(ws: SlasWorkspace, b: np.ndarray) -> float | np.ndarray:
    """L(b) = b^T y_eff - b^T Re(H_eff) b, evaluated directly over the last
    axis as ``b y_eff - 1/2 sum((b H_real) * b)``: a float for one vector,
    an array of one value per row for a stack of them."""
    b = np.asarray(b, dtype=np.float64)
    lam = b @ ws.y_eff - 0.5 * np.sum((b @ ws.h_real) * b, axis=-1)
    return float(lam) if lam.ndim == 0 else lam


def gradient_full(ws: SlasWorkspace, b: np.ndarray) -> np.ndarray:
    """g = y_eff - H_real b recomputed from scratch."""
    b = np.asarray(b, dtype=np.float64)
    return ws.y_eff - ws.h_real @ b


def check_steps(n_f: int) -> None:
    """Refuse a step count outside [0, 2**62): :func:`_search` adds a wait
    of up to ``n_f + 1`` steps to a step below ``n_f``, in int64."""
    if not 0 <= n_f < 2**62:
        raise ValueError(f"n_f must be >= 0 and below 2**62, got {n_f}")


def run(
    ws: SlasWorkspace,
    b0: np.ndarray,
    rho: float | Sequence[float],
    n_f: int,
    b_true: np.ndarray | None = None,
    counter: FlopCounter | None = None,
) -> tuple[np.ndarray, SlasTrace | SlasBlock]:
    """Run n_f sequential steps from the initial decision ``b0``, for one
    search or for a block of them.

    A block stacks T trials along a leading axis of the workspace, ``b0`` and
    ``b_true`` and gives ``rho`` as a sequence of R values; its rows are the
    T*R (trial, rho) pairs, trial-major (see :class:`SlasBlock`).  A 1-D
    workspace with a scalar ``rho`` is a block of one row.

    Args:
        ws: precomputed workspace, one trial or a stack of trials.
        b0: initial +-1 bits (the linear detector's sliced output).
        rho: selectivity factor; the threshold is rho * zeta.
        n_f: number of steps (antenna visits), 0 <= n_f < 2**62.
        b_true: optional true payload (+-1); enables bit-error tracking.
        counter: optional flop counter, charged what each row does: the
            initial gradient 2*nt^2, the thresholds nt, and 2*nt + 1 per
            accepted flip.

    Returns:
        (final bits, :class:`SlasTrace`) for a single search;
        (final bits of shape (rows, nt), :class:`SlasBlock`) for a block.
    """
    check_steps(n_f)
    rhos = np.asarray(rho, dtype=np.float64)
    if not np.all(rhos >= 0):  # NaN fails the comparison too
        raise ValueError(f"rho must be >= 0, got {rho}")
    bits = np.asarray(b0, dtype=np.float64)
    if bits.shape != ws.y_eff.shape:
        raise ValueError(f"b0 has shape {bits.shape}, workspace expects {ws.y_eff.shape}")
    single = bits.ndim == 1 and rhos.ndim == 0
    y_eff = ws.y_eff.reshape(-1, ws.nt)
    h_real = ws.h_real.reshape(-1, ws.nt, ws.nt)
    bits = bits.reshape(y_eff.shape)
    rhos = rhos.reshape(-1)
    block = _search(y_eff, h_real, ws.zeta_base.reshape(y_eff.shape), bits, rhos, n_f,
                    None if b_true is None
                    else np.asarray(b_true, dtype=np.float64).reshape(y_eff.shape))

    if counter is not None:
        nt, rows = ws.nt, block.final_bits.shape[0]
        counter.charge(rows * (2 * nt * nt + nt) + block.flips * (2 * nt + 1))

    if single:
        trace = block.row(0)
        return trace.final_bits, trace
    return block.final_bits, block


@functools.lru_cache(maxsize=8)
def _visits_after(nt: int) -> np.ndarray:
    """``after[j, k]``: steps from a visit of antenna j to the next visit of k."""
    visit = np.arange(nt)
    after = (visit[None, :] - visit[:, None] - 1) % nt + 1
    after.flags.writeable = False
    return after


def _search(y_eff, h_real, zeta, bits, rhos, n_f, truth) -> SlasBlock:
    """The flip rule and both incremental updates over every row of a block.

    Between two flips a row's state is frozen, so its next flip is the first
    antenna, in visiting order after its last flip, whose test fires on that
    state.  Each round moves every row still searching to its next flip, or
    retires it when nothing fires or the next firing visit is past n_f, and
    applies the flips with one set of numpy operations over the rows.  Each
    row performs the IEEE operations of the step-by-step loop, in its order:

    * the test ``g_j > rho * zeta_j`` for b_j = -1, ``g_j < -rho * zeta_j``
      for b_j = +1, here as ``b_j * g_j < -(rho * zeta_j)``;
    * the gain ``(-2 * b_j) * g_j - 2 * (H_real)_jj``, here as
      ``-((2 * b_j) * g_j + 2 * (H_real)_jj)``, the same roundings negated
      (round to nearest is symmetric), recorded; :meth:`SlasBlock.paths`
      adds it to the likelihood as the loop's ``lam += gain``;
    * ``g += (2 * b_j) * (H_real row j)``, with the pre-flip bit.
    """
    trials, nt = y_eff.shape
    cells = rhos.size
    n_rows = trials * cells
    # Stacked matmul runs the per-trial BLAS call on each slice, so the start
    # is bit for bit a lone search's (einsum would sum in another order).
    g0 = y_eff - (h_real @ bits[:, :, None])[:, :, 0]
    row_bits = bits[:, None, :]
    lam0 = 0.5 * (row_bits @ y_eff[:, :, None] + row_bits @ g0[:, :, None])[:, 0, 0]
    trial_of = np.repeat(np.arange(trials), cells)
    b = bits[trial_of]
    g = g0[trial_of]
    initial_lam = lam0[trial_of]
    with np.errstate(over="ignore"):  # a huge rho's infinite threshold never flips
        below = -(rhos[None, :, None] * zeta[:, None, :]).reshape(n_rows, nt)
    h_rows = h_real.reshape(-1, nt)  # row t * nt + j is row j of trial t's H_real
    diag2 = 2.0 * np.diagonal(h_real, axis1=1, axis2=2).reshape(-1)

    # The searching rows' state, compacted; a row that retires writes back
    # its bits and gradient.  ``last`` is the antenna of each row's last flip
    # (nt - 1 at step -1, so that the first visit is antenna 0 at step 0),
    # and ``first`` the index of each row's entry 0 in the flattened state.
    after = _visits_after(nt)
    live = np.arange(n_rows) if n_f else np.arange(0)
    base, step, last = trial_of * nt, np.full(n_rows, -1), np.full(n_rows, nt - 1)
    b_, g_, below_ = b.copy(), g.copy(), below
    first = live * nt
    records = []  # per round: (rows, steps, pre-flip bits, likelihood gains)
    while live.size:
        wait = np.where(b_ * g_ < below_, after.take(last, axis=0), n_f + 1)
        j = wait.argmin(axis=1)
        step = step + wait.take(first + j)
        going = step < n_f
        if not going.all():
            stay, gone = np.flatnonzero(going), ~going
            b[live[gone]], g[live[gone]] = b_[gone], g_[gone]
            live, base, step, j, b_, g_, below_ = (
                x[stay] for x in (live, base, step, j, b_, g_, below_))
            first = np.arange(0, live.size * nt, nt)
            if not live.size:
                break
        at = first + j
        row = base + j
        bj = b_.take(at)
        twice_bj = 2.0 * bj
        gain = -(twice_bj * g_.take(at) + diag2.take(row))
        g_ += twice_bj[:, None] * h_rows.take(row, axis=0)
        np.put(b_, at, -bj)
        last = j
        records.append((live, step, bj, gain))

    if records:
        flip_row, flip_step, flip_bit, flip_gain = map(np.concatenate, zip(*records))
        order = np.argsort(flip_row, kind="stable")  # rounds are in step order within a row
        flip_row, flip_step, flip_bit, flip_gain = (
            x[order] for x in (flip_row, flip_step, flip_bit, flip_gain))
    else:
        flip_row = flip_step = np.zeros(0, dtype=np.int64)
        flip_bit = flip_gain = np.zeros(0)
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(flip_row, minlength=n_rows), out=offsets[1:])
    initial_err = wrong = None
    if truth is not None:
        initial_err = np.count_nonzero(bits != truth, axis=1)[trial_of]
        wrong = -flip_bit != truth[trial_of[flip_row], flip_step % nt]
    return SlasBlock(
        n_f=n_f,
        final_bits=b,
        final_gradient=g,
        initial_likelihood=initial_lam,
        initial_bit_errors=initial_err,
        flip_row=flip_row,
        flip_step=flip_step,
        flip_gain=flip_gain,
        flip_wrong=wrong,
        offsets=offsets,
    )
