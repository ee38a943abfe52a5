"""Closed-form detector cost models and their reconciliation with counts.

Closed forms (real flops; ``ceil23(n) = ceil(2*n^3/3)`` is the inversion lump):

* MF:    8*nt*nr - 2*nt
* ZF:    ceil23(nt) + 16*nt^2*nr - 4*nt^2 + 8*nt*nr - 2*nt
* MMSE:  ZF + 4*nt
* LAS:   8*nt^2*n_f      (search steps only; workspace precompute excluded)

The ZF/MMSE quadratic terms assume nt == nr (the models collapse the exact
cross terms -2*nt^2 - 2*nt*nr to -4*nt^2); instrumented counts from
:mod:`mimo_slas.detectors` match the models exactly on square systems and
stay within a few percent otherwise.  The LAS model prices a full gradient
recomputation every step, one complex mat-vec (8*nt^2 - 2*nt) plus one
vector subtraction (2*nt).  :func:`mimo_slas.slas.run` updates the gradient
incrementally and charges what it does, which measures well below the model;
the ``flops`` table's one search row per (nt, n_f), ``mode = incremental``,
reports both, and :func:`reconcile` says so in its notes rather than hiding
the gap.  The models import nothing but :mod:`mimo_slas.linalg`'s flop
conventions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .linalg import FlopCounter, gauss_invert_flops, mat_mul_flops, mat_vec_flops

__all__ = [
    "CostKind",
    "ReconciliationReport",
    "flops_closed_form",
    "reconcile",
]


class CostKind(str, enum.Enum):
    MF = "mf"
    ZF = "zf"
    MMSE = "mmse"
    LAS = "las"


@dataclass(frozen=True)
class ReconciliationReport:
    kind: CostKind
    nt: int
    nr: int
    n_f: int | None
    model_flops: int
    measured_flops: int
    relative_error: float
    verdict: str  # EXACT | WITHIN_TOL | DIVERGENT
    notes: str


def flops_closed_form(
    kind: CostKind | str, nt: int, nr: int, n_f: int | None = None
) -> int:
    """Exact integer evaluation of the closed-form cost models, in real flops."""
    kind = CostKind(kind)
    if nt < 1 or nr < 1:
        raise ValueError(f"antenna counts must be >= 1, got nt={nt} nr={nr}")
    if kind is CostKind.MF:
        flops = 8 * nt * nr - 2 * nt
    elif kind is CostKind.ZF:
        flops = gauss_invert_flops(nt) + 16 * nt**2 * nr - 4 * nt**2 + 8 * nt * nr - 2 * nt
    elif kind is CostKind.MMSE:
        flops = flops_closed_form(CostKind.ZF, nt, nr) + 4 * nt
    else:
        if n_f is None or n_f < 0:
            raise ValueError(f"search cost model needs n_f >= 0, got {n_f}")
        flops = 8 * nt**2 * n_f
    return flops


def _decomposition(kind: CostKind, nt: int, nr: int, n_f: int | None) -> str:
    if kind is CostKind.MF:
        return f"matched_filter={mat_vec_flops(nt, nr)}"
    if kind in (CostKind.ZF, CostKind.MMSE):
        parts = [
            f"gram={mat_mul_flops(nt, nt, nr)}",
            f"invert={gauss_invert_flops(nt)}",
            f"filter_matrix={mat_mul_flops(nt, nr, nt)}",
            f"apply={mat_vec_flops(nt, nr)}",
        ]
        if kind is CostKind.MMSE:
            parts.insert(2, f"regularize={4 * nt}")
        parts.append(
            f"model_minus_measured={2 * nt * (nr - nt)} "
            f"(model folds -2nt^2-2nt*nr into -4nt^2, exact when nt == nr)"
        )
        return " ".join(parts)
    return (
        f"per_step_full_recompute={8 * nt**2} steps={n_f}; "
        f"model excludes workspace precompute"
    )


def reconcile(
    kind: CostKind | str,
    nt: int,
    nr: int,
    measured: FlopCounter | int,
    n_f: int | None = None,
    extra_note: str = "",
) -> ReconciliationReport:
    """Compare an instrumented count against the closed-form model.

    Verdicts: EXACT iff measured == model; WITHIN_TOL iff the relative error
    is <= 10%; DIVERGENT otherwise.  A model of 0 gives a relative error of
    inf against any other count.  Notes always carry the term-by-term
    decomposition so discrepancies are inspectable.
    """
    kind = CostKind(kind)
    model = flops_closed_form(kind, nt, nr, n_f)
    measured_total = measured.total if isinstance(measured, FlopCounter) else int(measured)
    rel = abs(measured_total - model) / model if model else (math.inf if measured_total else 0.0)
    if measured_total == model:
        verdict = "EXACT"
    elif rel <= 0.10:
        verdict = "WITHIN_TOL"
    else:
        verdict = "DIVERGENT"
    notes = _decomposition(kind, nt, nr, n_f)
    if kind is CostKind.LAS and measured_total < model:
        notes += (
            "; incremental gradient updates measure below the full-recompute model"
        )
    if extra_note:
        notes += f"; {extra_note}"
    return ReconciliationReport(
        kind=kind,
        nt=nt,
        nr=nr,
        n_f=n_f if kind is CostKind.LAS else None,
        model_flops=model,
        measured_flops=measured_total,
        relative_error=rel,
        verdict=verdict,
        notes=notes,
    )

