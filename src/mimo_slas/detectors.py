"""Linear uplink detectors: matched filter, zero forcing, and MMSE.

All three charge their instrumented real-flop cost to the caller's
:class:`~mimo_slas.linalg.FlopCounter`, when one is passed, and return the
complex soft values as an array; :func:`slice_bpsk` turns them into the +-1
array the search starts from.  ZF and MMSE still form the explicit filter
matrix ``W = G^-1 H^H``, now by solving ``G W = H^H``
(:func:`~mimo_slas.linalg.hermitian_solve`) rather than by inverting ``G``,
and then apply it to ``y``.  The solve is charged the inversion lump plus
the product with ``H^H`` — the explicit-``W`` order, deliberately not the
cheaper "invert, then multiply the matched-filter vector" one — so the
instrumented totals line up with the closed-form cost models in
:mod:`mimo_slas.complexity`.

A detector that raises :class:`~mimo_slas.linalg.SingularMatrixError` may
already have charged the Gram product to the counter.  Of the callers that
catch the error, ``cli._measured_detection_flops`` discards its counter and
``montecarlo._block`` passes none.
"""

from __future__ import annotations

import enum

import numpy as np

from .channel import SnrSpec
from .linalg import FlopCounter, hermitian_solve, hermitian_transpose, mat_mul, mat_vec

__all__ = ["DetectorKind", "mf", "zf", "mmse", "detect", "slice_bpsk"]


class DetectorKind(str, enum.Enum):
    MF = "mf"
    ZF = "zf"
    MMSE = "mmse"


def mf(h: np.ndarray, y: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
    """Matched filter H^H y; with a leading trial axis on ``h`` and ``y``, one
    stacked product that equals the per-trial ones bit for bit."""
    return mat_vec(hermitian_transpose(h), y, counter)


def zf(h: np.ndarray, y: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
    """Zero forcing (G^-1 H^H) y with G = H^H H.

    Propagates :class:`~mimo_slas.linalg.SingularMatrixError` when the Gram
    matrix is numerically singular (e.g. nt > nr).
    """
    hh = hermitian_transpose(h)
    gram = mat_mul(hh, h, counter)
    filt = hermitian_solve(gram, hh, counter)
    return mat_vec(filt, y, counter)


def mmse(
    h: np.ndarray, y: np.ndarray, snr: SnrSpec, counter: FlopCounter | None = None
) -> np.ndarray:
    """MMSE filter ((G + (n0/es) I)^-1 H^H) y.

    Regularizing the Gram diagonal charges 2*nt multiplications (real scalar
    times the complex identity diagonal) plus 2*nt additions (complex
    diagonal add).  With n0 = 0 this degrades to ZF exactly.
    """
    hh = hermitian_transpose(h)
    gram = mat_mul(hh, h, counter)
    nt = gram.shape[0]
    reg = gram.copy()
    reg[np.diag_indices(nt)] += snr.n0 / snr.es
    if counter is not None:
        counter.charge(additions=2 * nt, multiplications=2 * nt)
    filt = hermitian_solve(reg, hh, counter)
    return mat_vec(filt, y, counter)


def detect(
    kind: DetectorKind, h: np.ndarray, y: np.ndarray, snr: SnrSpec,
    counter: FlopCounter | None = None,
) -> np.ndarray:
    """The linear detector ``kind`` applied to ``y`` (``snr`` is read by MMSE only).

    Looks ``mf``/``zf``/``mmse`` up by module global name on every call, so a
    wrapper installed on them after import sees every dispatched call.
    """
    if kind == DetectorKind.MF:
        return mf(h, y, counter)
    if kind == DetectorKind.ZF:
        return zf(h, y, counter)
    if kind == DetectorKind.MMSE:
        return mmse(h, y, snr, counter)
    raise ValueError(f"unknown detector: {kind!r}")


def slice_bpsk(soft: np.ndarray) -> np.ndarray:
    """Sign slicer on the real part: +-1.0 entries, the tie Re == 0 maps to +1."""
    return np.where(np.real(soft) >= 0.0, 1.0, -1.0)
