"""Exhaustive maximum-likelihood reference and local-optimality checks.

Small-system ground truth for validating the sequential search: brute-force
maximization of the same likelihood over all 2^nt BPSK vectors, and a literal
"no single flip improves it" test.  The brute force walks the Gray code with
the search's own incremental likelihood and gradient updates, and only the
reported ``lambda_star`` is recomputed directly at the winner; the
local-optimality test recomputes the likelihood of every candidate directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .slas import SlasWorkspace, likelihood

__all__ = ["MlResult", "ml_bruteforce", "is_local_optimum", "MAX_BRUTEFORCE_NT"]

MAX_BRUTEFORCE_NT = 20


@dataclass(frozen=True)
class MlResult:
    b_star: np.ndarray
    lambda_star: float


def _lex_smaller(a: np.ndarray, b: np.ndarray) -> bool:
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return False


def ml_bruteforce(ws: SlasWorkspace) -> MlResult:
    """Maximize the likelihood over all 2^nt BPSK vectors.

    Gray-code enumeration with O(nt) incremental updates per candidate;
    exact ties break toward the lexicographically smallest vector (-1 before
    +1).  The reported ``lambda_star`` is recomputed directly at the winner.
    Guarded to nt <= 20.
    """
    nt = ws.nt
    if nt > MAX_BRUTEFORCE_NT:
        raise ValueError(
            f"brute-force search is limited to nt <= {MAX_BRUTEFORCE_NT}, got {nt}"
        )
    b = -np.ones(nt)
    g = ws.y_eff - ws.h_real @ b
    lam = 0.5 * float(b @ ws.y_eff + b @ g)
    best_b = b.copy()
    best_lam = lam
    h_real = ws.h_real
    for k in range(1, 2**nt):
        j = (k & -k).bit_length() - 1  # Gray code: flip the lowest set bit of k
        old = b[j]
        lam += -2.0 * old * g[j] - 2.0 * h_real[j, j]
        g += (2.0 * old) * h_real[j]
        b[j] = -old
        if lam > best_lam or (lam == best_lam and _lex_smaller(b, best_b)):
            best_lam = lam
            best_b = b.copy()
    return MlResult(b_star=best_b, lambda_star=likelihood(ws, best_b))


def is_local_optimum(ws: SlasWorkspace, b: np.ndarray) -> bool:
    """True iff no single-bit flip raises the likelihood by more than 1e-9.

    Evaluates each flipped candidate by direct recomputation (no shared
    incremental identity with the search).
    """
    b = np.asarray(b, dtype=np.float64)
    base = likelihood(ws, b)
    for j in range(b.shape[0]):
        candidate = b.copy()
        candidate[j] = -candidate[j]
        if likelihood(ws, candidate) > base + 1e-9:
            return False
    return True
