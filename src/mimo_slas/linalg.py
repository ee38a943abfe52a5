"""Dense complex linear algebra with per-operation flop instrumentation.

Matrices are 2-D ``numpy.ndarray`` (complex128), vectors 1-D.
:func:`hermitian_transpose`, :func:`mat_mul` and :func:`mat_vec` also take
stacks of them along leading axes: numpy's ``matmul`` then calls the same
BLAS routine once per slice, so each slice of the result is bit for bit the
product of that slice alone.  Every product charges a deterministic
number of real floating-point operations (per slice) to the one total of an
optional :class:`FlopCounter` under the convention

* one real addition or multiplication  = 1 flop,
* one complex addition                 = 2 flops,
* one complex multiplication           = 6 flops (4 mul + 2 add),
* data movement (transpose, conjugation, real-part extraction) = 0 flops.

A matrix product (m x p)(p x n) therefore charges ``8*m*n*p - 2*m*n`` flops:
a complex multiplication per term and a complex addition per term but the
first of each entry (:func:`mat_mul_flops`).  :func:`gram_real` forms only
``Re(H^H H)``, as one real product, yet charges the complex product
``H^H H``: the charge is the paper's price of the quantity, not of the
arithmetic that forms it.  Matrix inversion is charged the
textbook lump cost ``ceil(2/3 * n^3)`` (:func:`gauss_invert_flops`, which the
detectors charge) so that instrumented totals line up with the closed-form
detector cost models in :mod:`mimo_slas.complexity`.

The ZF and MMSE soft values ``(G + shift I)^-1 z`` are computed by
:func:`hermitian_solve` through numpy's LAPACK (a Cholesky check, then a
solve for the one vector ``z``), with no filter matrix formed.  It forms the
MMSE regularization ``G + shift I`` itself, and skips the check when the
shift provably passes it.  It charges nothing: the detectors
price the explicit filter of the paper's cost model (see
:mod:`mimo_slas.detectors`).  :func:`gauss_invert`, Gauss-Jordan elimination
with partial pivoting, is the reference the tests compare against and the
path that decides, and reports, a numerically singular matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FlopCounter",
    "DimensionMismatchError",
    "SingularMatrixError",
    "hermitian_transpose",
    "mat_mul",
    "mat_vec",
    "gram_real",
    "gauss_invert",
    "hermitian_solve",
    "mat_mul_flops",
    "mat_vec_flops",
    "gauss_invert_flops",
]


# Smallest pivot magnitude ``gauss_invert`` accepts.
_PIVOT_TOL = 1e-12


class DimensionMismatchError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class SingularMatrixError(ValueError):
    """Gauss elimination met a pivot below tolerance.

    ``column`` is the 0-based pivot column at which elimination failed.
    """

    def __init__(self, column: int, magnitude: float):
        self.column = column
        self.magnitude = magnitude
        super().__init__(
            f"matrix is numerically singular: pivot column {column} has "
            f"magnitude {magnitude:.3e} < {_PIVOT_TOL:g} after partial pivoting"
        )

    def __reduce__(self):
        # the default rebuilds from ``args`` (the message alone), which
        # ``__init__`` rejects: a worker's error would then break the pool
        return type(self), (self.column, self.magnitude)


@dataclass
class FlopCounter:
    """Running total of the real flops charged to it; it never decreases."""

    total: int = 0

    def charge(self, flops: int) -> None:
        if flops < 0:
            raise ValueError(f"flop charges must be non-negative, got {flops}")
        self.total += flops


def _as_matrix(a: np.ndarray, name: str, stacked: bool = False) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 and not (stacked and a.ndim > 2):
        raise DimensionMismatchError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def _as_vectors(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 1:
        raise DimensionMismatchError(f"{name} must be 1-D or a stack, got shape {a.shape}")
    return a


def _slices(*leading: tuple[int, ...]) -> int:
    """Number of products in a stacked call with these leading shapes."""
    return math.prod(np.broadcast_shapes(*leading))


def mat_mul_flops(m: int, n: int, p: int) -> int:
    """Flops charged for an (m x p)(p x n) product: 6*m*n*p plus 2*m*n*(p-1)."""
    return 8 * m * n * p - 2 * m * n


def mat_vec_flops(m: int, p: int) -> int:
    """Flops charged for an (m x p) matrix-vector product."""
    return mat_mul_flops(m, 1, p)


def gauss_invert_flops(n: int) -> int:
    """Lump charge ceil(2*n^3/3) for inverting an n x n matrix."""
    return (2 * n**3 + 2) // 3


def hermitian_transpose(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack.  Free:
    pure data movement."""
    return _as_matrix(a, "a", stacked=True).conj().swapaxes(-1, -2)


def mat_mul(a: np.ndarray, b: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
    """Complex matrix product, or stacked products, charging
    :func:`mat_mul_flops` per product."""
    a = _as_matrix(a, "a", stacked=True)
    b = _as_matrix(b, "b", stacked=True)
    (m, p), (q, n) = a.shape[-2:], b.shape[-2:]
    if p != q:
        raise DimensionMismatchError(f"cannot multiply {m}x{p} by {q}x{n}")
    if counter is not None:
        counter.charge(_slices(a.shape[:-2], b.shape[:-2]) * mat_mul_flops(m, n, p))
    return a @ b


def mat_vec(a: np.ndarray, x: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
    """Complex matrix-vector product, or stacked products, charging
    :func:`mat_vec_flops` per product."""
    a = _as_matrix(a, "a", stacked=True)
    x = _as_vectors(x, "x")
    (m, p), q = a.shape[-2:], x.shape[-1]
    if p != q:
        raise DimensionMismatchError(f"cannot apply {m}x{p} matrix to length-{q} vector")
    if counter is not None:
        counter.charge(_slices(a.shape[:-2], x.shape[:-1]) * mat_vec_flops(m, p))
    return a @ x if x.ndim == 1 else (a @ x[..., None])[..., 0]


def gram_real(h: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
    """``Re(H^H H)`` of an (nr x nt) matrix, or of each matrix of a stack, as
    the one real product ``S^T S`` of the stack ``S = [Re H; Im H]`` (2nr x
    nt), charging :func:`mat_mul_flops` of the complex ``H^H H`` per matrix.

    numpy's ``matmul`` sees both operands read one buffer and calls BLAS's
    symmetric rank-k update, then copies the triangle it formed: the result
    is exactly symmetric, and each slice of a stack is bit for bit the
    product of that slice alone.  It differs from the real part of
    :func:`mat_mul`'s complex product by rounding only.
    """
    h = _as_matrix(h, "h", stacked=True)
    nr, nt = h.shape[-2:]
    if counter is not None:
        counter.charge(_slices(h.shape[:-2]) * mat_mul_flops(nt, nt, nr))
    s = np.concatenate((h.real, h.imag), axis=-2)
    return s.swapaxes(-1, -2) @ s


def gauss_invert(a: np.ndarray) -> np.ndarray:
    """Explicit inverse by Gauss-Jordan elimination with partial pivoting;
    uncharged (callers charge :func:`gauss_invert_flops`).  Raises
    :class:`SingularMatrixError` naming the pivot column when the best
    available pivot magnitude falls below ``_PIVOT_TOL``.
    """
    a = _as_matrix(a, "a")
    n, m = a.shape
    if n != m:
        raise DimensionMismatchError(f"cannot invert non-square {n}x{m} matrix")
    aug = np.hstack([a.astype(np.complex128, copy=True), np.eye(n, dtype=np.complex128)])
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(aug[col:, col])))
        pivot_mag = float(np.abs(aug[pivot_row, col]))
        if pivot_mag < _PIVOT_TOL:
            raise SingularMatrixError(col, pivot_mag)
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        aug[col] = aug[col] / aug[col, col]
        factors = aug[:, col].copy()
        factors[col] = 0.0
        aug -= np.outer(factors, aug[col])
    return np.ascontiguousarray(aug[:, n:])


# Squared Cholesky pivots can exceed the Gauss-Jordan pivots that decide
# singularity, so a matrix whose squared pivots come within this factor of
# ``_PIVOT_TOL`` is left to ``gauss_invert`` to decide.
_CHOLESKY_MARGIN = 1e4

# The multiple of the rounding bound of ``_check_is_proven`` by which a shift
# must clear the Cholesky floor before the check is skipped: it covers the
# constants of the complex-arithmetic bounds, which are taken loosely.
_ROUNDING_SAFETY = 10.0


def _check_is_proven(a: np.ndarray, shift: float, rows: int | None) -> bool:
    """Whether the Cholesky check of ``a + shift I`` is certain to pass, when
    ``a`` is the computed Gram matrix ``fl(H^H H)`` of an ``rows x n`` matrix
    ``H`` (and is not yet shifted).  The Gram product's rounding grows with
    its inner dimension ``rows``, which ``a`` itself does not reveal.

    Write ``u = 2^-53``, ``gamma_k = k u / (1 - k u)``, ``m = rows``,
    ``s = shift`` and ``tau = Re trace(a)``.  The exact ``H^H H + s I`` has no
    eigenvalue below ``s``.  Each step below moves the matrix whose
    Cholesky factor the check computes by at most the stated 2-norm
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002):

    * the Gram product, §3.5 with the complex inner products of §3.6:
      ``|a - H^H H| <= sqrt2 gamma_{m+2} |H|^T |H|``, whose 2-norm is at most
      ``sqrt2 gamma_{m+2} ||H||_F^2``, and ``||H||_F^2 <= tau / (1 - sqrt2
      gamma_{m+2})`` because the diagonal sums non-negative terms;
    * adding ``s`` to the diagonal: ``u (tau + s)``;
    * the factorization, Thm 10.3 for complex data: the computed ``R`` has
      ``R^H R = A + dA`` with ``|dA| <= sqrt2 gamma_{n+2} |R^H| |R|``, so
      ``||dA||_2 <= sqrt2 gamma_{n+2} trace(R^H R) <= sqrt2 gamma_{n+2}
      (1 + u) (tau + n s) / (1 - sqrt2 gamma_{n+2})``.  (LAPACK reads the
      lower triangle and the real part of the diagonal, and the Gram error
      bound holds for that Hermitian matrix too.)

    The sum is at most ``rho = 2 gamma_{m+n+4} (tau + n s)``.  Every squared
    pivot ``|R_kk|^2`` is a pivot of the exact Cholesky factorization of
    ``R^H R``, so it is at least that matrix's smallest eigenvalue, which is
    at least ``s - rho``; with that positive the factorization also runs to completion (a
    failing step would be a non-positive pivot of the same perturbed
    matrix).  When ``s >= _CHOLESKY_MARGIN * _PIVOT_TOL + _ROUNDING_SAFETY *
    rho`` every squared pivot, also as computed by the check (3 more
    roundings), is at least ``_CHOLESKY_MARGIN * _PIVOT_TOL``: the check
    passes.  A matrix or shift that is not finite, an unknown ``rows`` or a
    smaller shift (ZF's is 0) proves nothing, and the check runs.
    """
    if rows is None or not 0 < shift < math.inf or not np.isfinite(a.sum()):
        return False
    n = a.shape[0]
    ku = (rows + n + 4) * float(np.finfo(np.float64).eps) / 2
    rho = 2 * ku / (1 - ku) * (float(np.trace(a).real) + n * shift)
    return shift >= _CHOLESKY_MARGIN * _PIVOT_TOL + _ROUNDING_SAFETY * rho


def hermitian_solve(
    a: np.ndarray, b: np.ndarray, shift: float = 0.0, rows: int | None = None
) -> np.ndarray:
    """``(a + shift I)^-1 b`` for a Hermitian positive semi-definite ``a`` (a
    Gram matrix ``H^H H``), a shift ``>= 0`` and a vector or matrix ``b``;
    uncharged.  ``rows`` is the number of rows of ``H`` when ``a`` is the
    computed product ``H^H H`` itself, and ``None`` otherwise.

    A Cholesky factorization checks that ``a + shift I`` is positive definite
    with every squared pivot ``|L_kk|^2`` at least ``_CHOLESKY_MARGIN *
    _PIVOT_TOL``; ``np.linalg.solve`` then forms the result.  A matrix that
    fails the check goes to :func:`gauss_invert`, which raises
    :class:`SingularMatrixError` naming the pivot column, or returns the
    inverse that is then multiplied by ``b``.  Near the tolerance it is
    therefore ``gauss_invert`` that decides, and reports, singularity, and
    the verdict does not depend on ``b``.  The check is skipped when the
    shift alone proves that it passes (see :func:`_check_is_proven`): the
    result is then the same ``np.linalg.solve`` of the same matrix.
    """
    a = _as_matrix(a, "a")
    b = np.asarray(b, dtype=np.complex128)
    n, m = a.shape
    if n != m:
        raise DimensionMismatchError(f"cannot invert non-square {n}x{m} matrix")
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise DimensionMismatchError(
            f"cannot solve a {n}x{n} system for right-hand sides of shape {b.shape}"
        )
    proven = _check_is_proven(a, shift, rows)
    if shift:
        a = a.copy()
        a[np.diag_indices(n)] += shift
    if not proven:
        try:
            pivots = np.abs(np.diagonal(np.linalg.cholesky(a))) ** 2
        except np.linalg.LinAlgError:
            pivots = None
        if pivots is None or np.any(pivots < _CHOLESKY_MARGIN * _PIVOT_TOL):
            return gauss_invert(a) @ b
    return np.linalg.solve(a, b)

