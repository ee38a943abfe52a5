"""Exhaustive maximum-likelihood reference and local-optimality checks.

Small-system ground truth for validating the sequential search: brute-force
maximization of the same likelihood over all 2^nt BPSK vectors, and a literal
"no single flip improves it" test.  Both evaluate the likelihood of every
candidate directly, with :func:`~mimo_slas.slas.likelihood` over a stack of
candidates, sharing no incremental update with the search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .slas import SlasWorkspace, likelihood

__all__ = ["MlResult", "ml_bruteforce", "is_local_optimum", "MAX_BRUTEFORCE_NT"]

MAX_BRUTEFORCE_NT = 20

# Candidates evaluated at once by the brute force.
_SLICE = 1 << 14


@dataclass(frozen=True)
class MlResult:
    b_star: np.ndarray
    lambda_star: float


def ml_bruteforce(ws: SlasWorkspace) -> MlResult:
    """Maximize the likelihood over all 2^nt BPSK vectors.

    The vectors are enumerated in lexicographic order (-1 before +1), in
    slices of ``_SLICE``, and each is evaluated directly.  Exact ties break
    toward the lexicographically smallest vector: a slice keeps its first
    maximum, and a later slice wins only with a larger value.  The reported
    ``lambda_star`` is :func:`~mimo_slas.slas.likelihood` at the winner.
    Guarded to nt <= 20.
    """
    nt = ws.nt
    if nt > MAX_BRUTEFORCE_NT:
        raise ValueError(f"brute-force search is limited to nt <= {MAX_BRUTEFORCE_NT}, got {nt}")
    plus = 1 << np.arange(nt - 1, -1, -1)  # bit of the index that sets entry j to +1
    best_b, best_lam = None, -np.inf
    for start in range(0, 2**nt, _SLICE):
        index = np.arange(start, min(start + _SLICE, 2**nt))
        b = np.where(index[:, None] & plus, 1.0, -1.0)
        lam = likelihood(ws, b)
        i = int(np.argmax(lam))
        if best_b is None or lam[i] > best_lam:
            best_b, best_lam = b[i], lam[i]
    return MlResult(b_star=best_b, lambda_star=likelihood(ws, best_b))


def is_local_optimum(ws: SlasWorkspace, b: np.ndarray) -> bool:
    """True iff no single-bit flip raises the likelihood by more than 1e-9.

    Evaluates each flipped candidate by direct recomputation (no shared
    incremental identity with the search).
    """
    b = np.asarray(b, dtype=np.float64)
    flipped = b * (1.0 - 2.0 * np.eye(b.shape[0]))  # row j is b with bit j flipped
    return bool(np.all(likelihood(ws, flipped) <= likelihood(ws, b) + 1e-9))
