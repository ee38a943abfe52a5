"""Linear uplink detectors: matched filter, zero forcing, and MMSE.

All three are functions of the Gram matrix ``G = H^H H`` and the
matched-filter output ``z = H^H y``: MF returns ``z``, ZF solves ``G x = z``
and MMSE solves ``(G + (n0/es) I) x = z``.  :func:`equalize` is the one
switch over the three (one solve by
:func:`~mimo_slas.linalg.hermitian_solve`, which adds the regularization
``n0/es`` and skips its Cholesky check where that shift proves the check
passes).  :func:`detect` takes the channel and the observation, forms ``z``
by :func:`mf` and, for ZF and MMSE, ``G``, calls :func:`equalize`, charges
the instrumented real-flop cost to the caller's
:class:`~mimo_slas.linalg.FlopCounter`, when one is passed, and returns the
complex soft values as an array; :func:`zf` and :func:`mmse` are
:func:`detect` of their kind, and :func:`slice_bpsk` turns the soft values
into the +-1 array the search starts from.

ZF and MMSE never form the filter matrix ``W = G^-1 H^H``, but they are
charged as if they did: the Gram product, the regularization (MMSE), the
inversion lump, the ``(nt x nt)(nt x nr)`` product that forms ``W`` and the
``nt x nr`` application to ``y``, which costs what the matched filter does.
That explicit-``W`` order, deliberately not the cheaper "invert, then
multiply the matched-filter vector" one, is the cost model of the paper, so
the instrumented totals line up with the closed-form cost models in
:mod:`mimo_slas.complexity`.

A call that raises :class:`~mimo_slas.linalg.SingularMatrixError` has
charged the matched filter and the Gram product but nothing after them;
every caller that catches the error (``cli._ber_rows``, around
``cli._trial_cost``) discards its counter.  ``montecarlo._start``, the one
start of every trial, forms a stack's ``G`` and ``z`` once, for detection
and for the search workspace, and calls :func:`equalize` with the row
count ``nr`` that the skip's rounding bound needs.
"""

from __future__ import annotations

import enum

import numpy as np

from .channel import SnrSpec
from .linalg import (
    FlopCounter,
    gauss_invert_flops,
    hermitian_solve,
    hermitian_transpose,
    mat_mul,
    mat_mul_flops,
    mat_vec,
)

__all__ = ["DetectorKind", "mf", "zf", "mmse", "detect", "equalize", "slice_bpsk"]


class DetectorKind(str, enum.Enum):
    MF = "mf"
    ZF = "zf"
    MMSE = "mmse"


def mf(h: np.ndarray, y: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
    """Matched filter H^H y; with a leading trial axis on ``h`` and ``y``, one
    stacked product that equals the per-trial ones bit for bit."""
    return mat_vec(hermitian_transpose(h), y, counter)


def zf(h: np.ndarray, y: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
    """Zero forcing G^-1 (H^H y) with G = H^H H, charged as (G^-1 H^H) y.

    Propagates :class:`~mimo_slas.linalg.SingularMatrixError` when the Gram
    matrix is numerically singular (e.g. nt > nr).
    """
    return detect(DetectorKind.ZF, h, y, None, counter)


def mmse(
    h: np.ndarray, y: np.ndarray, snr: SnrSpec, counter: FlopCounter | None = None
) -> np.ndarray:
    """MMSE (G + (n0/es) I)^-1 (H^H y), charged as ((G + (n0/es) I)^-1 H^H) y.

    Regularizing the Gram diagonal charges 4*nt flops: a real scalar times
    the complex identity diagonal (2*nt) and the complex diagonal add (2*nt).
    With n0 = 0 this degrades to ZF exactly.
    """
    return detect(DetectorKind.MMSE, h, y, snr, counter)


def detect(
    kind: DetectorKind, h: np.ndarray, y: np.ndarray, snr: SnrSpec | None,
    counter: FlopCounter | None = None,
) -> np.ndarray:
    """The linear detector ``kind`` applied to ``y`` (``snr`` is read by MMSE only).

    Forms ``z`` by :func:`mf`, looked up by module global name on every call
    so that a wrapper installed on it after import sees the call, and for ZF
    and MMSE the Gram matrix, then charges the explicit filter of the cost
    model once :func:`equalize` has succeeded (see the module docstring).
    """
    z = mf(h, y, counter)
    if kind == DetectorKind.MF:
        return z
    nr, nt = np.shape(h)
    soft = equalize(kind, mat_mul(hermitian_transpose(h), h, counter), z, snr, nr)
    if counter is not None:
        regularize = 4 * nt if kind == DetectorKind.MMSE else 0
        counter.charge(regularize + gauss_invert_flops(nt) + mat_mul_flops(nt, nr, nt))
    return soft


def equalize(
    kind: DetectorKind, gram: np.ndarray, z: np.ndarray, snr: SnrSpec | None,
    rows: int | None = None,
) -> np.ndarray:
    """The soft values of detector ``kind`` from the Gram matrix ``G = H^H H``
    and the matched-filter output ``z = H^H y`` (``snr`` is read by MMSE only).

    MF returns ``z`` itself, and takes stacks.  ZF returns ``G^-1 z`` and
    MMSE ``(G + (n0/es) I)^-1 z``, each by one
    :func:`~mimo_slas.linalg.hermitian_solve` of a single trial, which raises
    :class:`~mimo_slas.linalg.SingularMatrixError` for a numerically singular
    matrix.  ``rows``, the row count ``nr`` of ``H`` when ``gram`` is the
    computed product ``H^H H``, lets MMSE skip the Cholesky check where its
    regularization proves that the check passes; it changes no result.
    Charges nothing: :func:`detect` prices the filter.
    """
    if kind == DetectorKind.MF:
        return z
    if kind == DetectorKind.MMSE:
        return hermitian_solve(gram, z, snr.n0 / snr.es, rows)
    if kind == DetectorKind.ZF:
        return hermitian_solve(gram, z)
    raise ValueError(f"unknown detector: {kind!r}")


def slice_bpsk(soft: np.ndarray) -> np.ndarray:
    """Sign slicer on the real part: +-1.0 entries, the tie Re == 0 maps to +1."""
    return np.where(np.real(soft) >= 0.0, 1.0, -1.0)
