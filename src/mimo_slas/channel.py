"""Rayleigh flat-fading channel sampling and BPSK payloads.

Conventions (documented once, used everywhere):

* ``H`` has shape ``(nr, nt)`` with i.i.d. CN(0, 1) entries — each real and
  imaginary part is N(0, 1/2), so ``E[|h|^2] == 1``.
* BPSK symbols are real ``+-sqrt(es)`` with ``es = 1.0`` throughout.
* ``snr_db`` means ``Es/N0`` per receive antenna: ``n0 = es * 10**(-snr_db/10)``.
  There is no array-gain normalization.  ``snr_db = inf`` gives the noiseless
  surrogate ``n0 = 0``.
* Noise is CN(0, n0) per receive entry (N(0, n0/2) per real dimension).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "SnrSpec",
    "ChannelInstance",
    "sample_channel",
    "sample_bpsk",
    "assemble",
    "hardening_metric",
]


@dataclass(frozen=True)
class SnrSpec:
    """Signal-to-noise operating point: snr_db = 10*log10(es/n0)."""

    snr_db: float
    es: ClassVar[float] = 1.0

    @property
    def n0(self) -> float:
        """The noise power; a ValueError below about -3082 dB, where it
        exceeds every float."""
        try:
            return self.es * 10.0 ** (-self.snr_db / 10.0)
        except OverflowError:
            raise ValueError(f"snr_db = {self.snr_db!r} has no finite noise power") from None


@dataclass(frozen=True)
class ChannelInstance:
    """One simulated uplink use: y = H b + n."""

    h: np.ndarray        # (nr, nt) complex
    b_true: np.ndarray   # (nt,) real, entries +-sqrt(es)
    noise: np.ndarray    # (nr,) complex
    y: np.ndarray        # (nr,) complex
    n0: float
    es: float

    @property
    def nt(self) -> int:
        return self.h.shape[1]

    @property
    def nr(self) -> int:
        return self.h.shape[0]


def sample_channel(nt: int, nr: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an (nr, nt) i.i.d. CN(0,1) matrix.

    Draw order is fixed (real block, then imaginary block) so a given
    generator state always yields the same matrix.
    """
    if nt < 1 or nr < 1:
        raise ValueError(f"antenna counts must be >= 1, got nt={nt} nr={nr}")
    re = rng.standard_normal((nr, nt))
    im = rng.standard_normal((nr, nt))
    return math.sqrt(0.5) * (re + 1j * im)


def sample_bpsk(nt: int, es: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform +-sqrt(es) payload of length nt (real-valued)."""
    if nt < 1:
        raise ValueError(f"nt must be >= 1, got {nt}")
    bits = rng.integers(0, 2, size=nt)
    return math.sqrt(es) * (2.0 * bits - 1.0)


def assemble(
    h: np.ndarray, b_true: np.ndarray, snr: SnrSpec, rng: np.random.Generator
) -> ChannelInstance:
    """Form y = H b + n with CN(0, n0) noise per receive entry."""
    h = np.asarray(h, dtype=np.complex128)
    b_true = np.asarray(b_true, dtype=np.float64)
    if h.ndim != 2 or b_true.ndim != 1 or h.shape[1] != b_true.shape[0]:
        raise ValueError(
            f"shape mismatch: h is {h.shape}, b_true is {b_true.shape}"
        )
    nr = h.shape[0]
    scale = math.sqrt(snr.n0 / 2.0)
    noise = scale * (rng.standard_normal(nr) + 1j * rng.standard_normal(nr))
    y = h @ b_true + noise
    return ChannelInstance(h=h, b_true=b_true, noise=noise, y=y, n0=snr.n0, es=snr.es)


def hardening_metric(h: np.ndarray) -> np.ndarray:
    """Per-receive-antenna normalized row energy, ||h_k||^2 / nt.

    Returns a length-nr real vector whose spread shrinks as nt grows
    (channel hardening).
    """
    h = np.asarray(h)
    if h.ndim != 2:
        raise ValueError(f"h must be 2-D, got shape {h.shape}")
    nt = h.shape[1]
    return (np.abs(h) ** 2).sum(axis=1) / nt
