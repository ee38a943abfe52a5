"""Deterministic Monte-Carlo BER and convergence-trace experiments.

Reproducibility contract: every trial's randomness derives from
``SeedSequence((master_seed, nt, nr, snr_key, trial_index))`` and nothing
else, so a trial is a pure function of the seed and its index.  Worker count
and chunking never enter the derivation: results are byte-identical at any
``n_jobs``.  Because the random inputs (payload, channel, noise) do not
depend on the detector chain, cells differing only in detector/rho/n_f/las
share channel realizations exactly — detector comparisons and rho sweeps are
paired, and a trace's step-0 statistics equal the corresponding search-off
BER cell.

Stopping rule: a point runs trials in index order until the cumulative bit
errors reach ``min_bit_errors`` or ``max_trials`` is exhausted; a point that
exhausts the cap below the error floor is flagged, not hidden.

Block draw: :func:`draw`, that is :func:`trial_rng` and the ``channel``
samplers with one generator per trial, is the reference of the contract.
:func:`_draws` reproduces it for a block of consecutive trials: it reads
SeedSequence's pool after the key's four integers from numpy (once per key),
runs SeedSequence's hash of the trial index vectorised over the indices and
PCG64's seeding on Python ints, sets the result on one reused generator and
makes each trial's three draws in the reference's order, into buffers of
the sub-block.  The payload is read from raw 64-bit words:
numpy's ``integers(0, 2)`` takes Lemire's bounded path with a rejection
threshold of 0, so each bit is the top bit of a 32-bit draw, and PCG64
hands out a raw word's low half first, so the bits are bit 31, then bit 63,
of ``ceil(nt/2)`` raw words.  H and the noise are written in place as
``sqrt(1/2)`` and ``sqrt(n0/2)`` times their normals, into the real and
imaginary views of H and of y: the reference's products except
where a normal is exactly 0.0, which the ziggurat gives with probability
about 2**-52 and which can then differ only in the sign of a zero.
``TestBlockDraw`` in ``tests/test_montecarlo.py`` pins the generator states
and the inputs bit for bit against the reference (its keys include nt 1
and 3, so an odd payload's unused half word is covered), and the stacked
detection, workspace and search start (for ZF and MMSE, through the shared
``H^H H`` and ``H^H y``) against per-trial calls;
``tools/reference_outputs.sh`` and acceptance criterion 9 pin the outputs.

Heap: a process that runs trials holds glibc's heap (see :func:`_hold_heap`),
so that the buffers of one block are not given back to the system and
faulted in again by the next.  No output depends on it.

Execution: cells that differ only in rho form a group and run over shared
chunks of consecutive trial indices, the unit of the process pool and of the
stop scan.  A trace's chunks hold at most ``_TRACE_BYTES`` (256 KiB) of
likelihood rows, or one row, in whole blocks where a block fits, and never
more than ``_CHUNK`` trials (:func:`_trace_trials`).  A sweep's chunks hold
``_CHUNK`` until each active cell has an error, then are sized from the
cells' running error rates within ``[_MIN_CHUNK, _CHUNK]``, so that the
chunks in flight past the slowest cell's stop stay short; the stop scan
stops on the exact trial, so no chunk boundary reaches an output.  A chunk
runs in blocks of consecutive trials.  The trials of a block are drawn and
started (:func:`_start`) once, in index order, for all the group's cells,
in sub-blocks of at most ``_DRAW_BYTES`` (256 KiB) of complex channel, and
one :func:`~mimo_slas.slas.run` call searches every (trial, cell) row of
the block.  A block's trial count comes from one byte
budget, ``_BLOCK_BYTES`` (1 MiB: about 60 trials of nine cells at 32x32,
seven trials at 128x128); a block never crosses a chunk, and no output
depends on either size.  :func:`trial` stays the unit of work: every counted
(cell, trial) pair is one call, given the chunk (``_Chunk``) that holds the
block it reads, and the block is computed by the first call that needs it,
inside that call.  Sweeps and traces run their chunks through one loop,
:func:`_in_order`, which starts a process pool only when ``n_jobs > 1`` and
there is more than one chunk, and then keeps one chunk queued behind the
``n_jobs`` running ones.  A sweep feeds it every group's chunks in turn,
after loading ``numpy.random`` (with each group's seed prefix) in its own
process, which the pool's workers inherit at fork; a trace chunk writes
each block's rows in one pass over its flip records, and the trace sums
each chunk into running totals as it arrives.
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass, fields, replace
from itertools import chain, islice

import numpy as np

from .channel import ChannelInstance, SnrSpec, assemble, sample_bpsk, sample_channel
from .detectors import DetectorKind, equalize, mf, slice_bpsk
from .linalg import FlopCounter, SingularMatrixError, hermitian_transpose, mat_mul
from .slas import SlasBlock, SlasTrace, SlasWorkspace, check_steps, precompute, run, workspace

__all__ = [
    "PointSpec",
    "ExperimentConfig",
    "BerPoint",
    "TraceAggregate",
    "trial_rng",
    "check_distinct",
    "check_snr_keys",
    "draw",
    "trial",
    "run_point",
    "run_sweep",
    "run_trace",
    "MAX_GRID_POINTS",
]

MAX_GRID_POINTS = 10_000
_CHUNK = 512
# The shortest chunk of a sweep sized from its error rates (see _chunk_trials):
# about one block of nine cells at 32x32
_MIN_CHUNK = 64
# What one block of searches may hold: its trials' stacked H_real and the
# state of its (trial, rho) rows (see _trial_bytes).
_BLOCK_BYTES = 1 << 20
# What one sub-block of the draw and of detection may hold of complex channel
# (see _draws): 16 trials at 32x32, one at 128x128.
_DRAW_BYTES = 1 << 18
# What one trace chunk's likelihood rows may hold (see _trace_trials): 84
# trials at n_f = 384, and _CHUNK for every n_f <= 63.
_TRACE_BYTES = 1 << 18
# glibc's mallopt parameters (malloc.h) and the values a trial process sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_MMAP_THRESHOLD = 32 << 20
_HEAP_TRIM_THRESHOLD = 64 << 20


@dataclass(frozen=True)
class PointSpec:
    """One fully-specified simulation cell."""

    nt: int
    nr: int
    snr_db: float
    detector: DetectorKind
    las_enabled: bool
    rho: float
    n_f: int
    max_trials: int
    min_bit_errors: int
    master_seed: int


@dataclass(frozen=True)
class BerPoint:
    """Aggregated result for one cell."""

    point: PointSpec
    trials_run: int
    bits_sent: int
    bit_errors: int
    ber: float
    flagged: bool
    aborted_trials: int = 0


@dataclass(frozen=True)
class TraceAggregate:
    """Mean likelihood/BER trajectories; index 0 is the initializer."""

    point: PointSpec
    trials: int  # trials averaged: every one of the point's max_trials
    mean_likelihood: np.ndarray  # length n_f + 1
    mean_ber: np.ndarray         # length n_f + 1


def _normalize(value, kind) -> tuple:
    if isinstance(value, (list, tuple, np.ndarray)):
        return tuple(kind(v) for v in value)
    return (kind(value),)


def _integer(name: str):
    """Checker for an integer field: integral numbers pass as int, anything
    else (a fraction, a string, a bool) is a ValueError naming the value."""
    def check(value) -> int:
        if isinstance(value, numbers.Integral) and not isinstance(value, (bool, np.bool_)):
            return int(value)
        if isinstance(value, (float, np.floating)) and float(value).is_integer():
            return int(value)
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return check


def _real(name: str):
    """Checker for a float axis entry: a real number that is not NaN passes as
    float, -0.0 as 0.0 (one cell, one spelling); anything else (a string, a
    bool, NaN) is a ValueError naming it."""
    def check(value) -> float:
        if (isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
                and not math.isnan(value)):
            return float(value) + 0.0  # -0.0 + 0.0 is 0.0
        raise ValueError(f"{name} entries must be real numbers (not NaN), got {value!r}")
    return check


def _rho(value) -> float:
    rho = _real("rho")(value)
    if not 0.0 <= rho < math.inf:
        raise ValueError(f"rho entries must be finite and >= 0, got {value!r}")
    return rho


def _flag(value) -> bool:
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise ValueError(f"las_enabled entries must be true or false, got {value!r}")


def _detector(value) -> DetectorKind:
    try:
        return DetectorKind(value)
    except ValueError:
        raise ValueError(f"detector entries must be mf, zf or mmse, got {value!r}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep description.  nt/nr are zipped (paired antenna counts); the
    snr/detector/las/rho axes form a cartesian grid, capped at
    ``MAX_GRID_POINTS`` cells.  No axis, and no (nt, nr) pair, may repeat a
    value.  When the search is off the rho axis collapses to its first value
    (rho is meaningless without the search)."""

    nt: tuple[int, ...]
    nr: tuple[int, ...]
    snr_db: tuple[float, ...]
    rho: tuple[float, ...] = (1.0,)
    detector: tuple[DetectorKind, ...] = (DetectorKind.MF,)
    las_enabled: tuple[bool, ...] = (True,)
    n_f: int = 100
    max_trials: int = 100_000
    min_bit_errors: int = 5
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "nt", _normalize(self.nt, _integer("nt")))
        object.__setattr__(self, "nr", _normalize(self.nr, _integer("nr")))
        object.__setattr__(self, "snr_db", _normalize(self.snr_db, _real("snr_db")))
        object.__setattr__(self, "rho", _normalize(self.rho, _rho))
        object.__setattr__(self, "detector", _normalize(self.detector, _detector))
        object.__setattr__(self, "las_enabled", _normalize(self.las_enabled, _flag))
        for name in ("n_f", "max_trials", "min_bit_errors", "master_seed"):
            object.__setattr__(self, name, _integer(name)(getattr(self, name)))
        for name in ("nt", "nr", "snr_db", "rho", "detector", "las_enabled"):
            if not getattr(self, name):
                raise ValueError(f"{name} must have at least one value")
        if len(self.nt) != len(self.nr):
            raise ValueError(
                f"nt and nr lists are zipped and must have equal length, "
                f"got {len(self.nt)} and {len(self.nr)}"
            )
        if any(n < 1 for n in self.nt + self.nr):
            raise ValueError("antenna counts must be >= 1")
        for name, axis in (("(nt, nr)", tuple(zip(self.nt, self.nr))), ("snr_db", self.snr_db),
                           ("rho", self.rho), ("detector", self.detector),
                           ("las_enabled", self.las_enabled)):
            check_distinct(name, axis)
        check_steps(self.n_f)
        if self.max_trials < 1:
            raise ValueError(f"max_trials must be >= 1, got {self.max_trials}")
        if self.min_bit_errors < 1:
            raise ValueError(f"min_bit_errors must be >= 1, got {self.min_bit_errors}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        check_snr_keys(self.snr_db)
        if self.grid_size() > MAX_GRID_POINTS:
            raise ValueError(
                f"sweep grid has {self.grid_size()} points, "
                f"refusing more than {MAX_GRID_POINTS}"
            )

    def grid_size(self) -> int:
        per_las = sum(len(self.rho) if las else 1 for las in self.las_enabled)
        return len(self.nt) * len(self.snr_db) * len(self.detector) * per_las

    def points(self) -> list[PointSpec]:
        out = []
        for nt, nr in zip(self.nt, self.nr):
            for snr in self.snr_db:
                for det in self.detector:
                    for las in self.las_enabled:
                        rho_axis = self.rho if las else (self.rho[0],)
                        for rho in rho_axis:
                            out.append(
                                PointSpec(
                                    nt=nt,
                                    nr=nr,
                                    snr_db=snr,
                                    detector=det,
                                    las_enabled=las,
                                    rho=rho,
                                    n_f=self.n_f,
                                    max_trials=self.max_trials,
                                    min_bit_errors=self.min_bit_errors,
                                    master_seed=self.master_seed,
                                )
                            )
        return out

    @classmethod
    def from_mapping(cls, data: dict) -> "ExperimentConfig":
        """Build from a JSON-style mapping; scalar axes are accepted and keys
        that are not config fields are rejected."""
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def _encode_snr(snr_db: float) -> int:
    """Non-negative integer key for an snr value (milli-dB, sign folded in).

    A finite value needs a milli-dB magnitude below 2**39, so that its key
    stays below the noiseless key ``1 << 40``, and a finite noise power."""
    if math.isnan(snr_db):
        raise ValueError(f"snr_db = {snr_db!r} is not a number")
    if math.isinf(snr_db):
        if snr_db > 0:
            return 1 << 40
        raise ValueError("snr_db = -inf is not a valid operating point")
    if not abs(snr_db * 1000) < 2**39 - 0.5:  # what rounds to 2**39 is too large
        raise ValueError(f"snr_db = {snr_db!r} is too large for a milli-dB seed key")
    SnrSpec(snr_db).n0  # raises where the noise power overflows
    milli = round(snr_db * 1000)
    return (abs(milli) << 1) | (1 if milli < 0 else 0)


def check_distinct(name: str, axis) -> None:
    """Reject a value that ``axis`` holds more than once: its cells would run
    again and write their rows twice.  The values must be hashable."""
    seen = set()
    for v in axis:
        if v in seen:
            shown = v.value if isinstance(v, DetectorKind) else v
            raise ValueError(f"{name} has the value {shown!r} more than once")
        seen.add(v)


def check_snr_keys(snr_list) -> None:
    """Reject two different snr values with one (milli-dB) seed key: they
    would silently draw the same channels."""
    seen: dict[int, float] = {}
    for snr_db in snr_list:
        other = seen.setdefault(_encode_snr(snr_db), snr_db)
        if other != snr_db:
            raise ValueError(f"snr values {other!r} and {snr_db!r} dB share one seed key "
                             f"(keys are milli-dB); keep them at least 0.001 dB apart")


def trial_rng(
    master_seed: int, nt: int, nr: int, snr_db: float, trial_index: int
) -> np.random.Generator:
    """Per-trial generator; the key deliberately excludes detector/rho/n_f.

    With :func:`~mimo_slas.channel.sample_channel`,
    :func:`~mimo_slas.channel.sample_bpsk` and
    :func:`~mimo_slas.channel.assemble` it is the reference of the seed
    contract, which :func:`draw` makes and :func:`_draws` reproduces a block
    at a time.
    """
    seq = np.random.SeedSequence(
        (master_seed, nt, nr, _encode_snr(snr_db), trial_index)
    )
    return np.random.default_rng(seq)


# SeedSequence's hash (numpy/random/bit_generator.pyx: hashmix, mix,
# generate_state) on 32-bit words, and PCG64's 128-bit seeding step.
_M32 = 0xFFFF_FFFF
_M128 = (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list[int]:
    """``n`` as SeedSequence reads an integer: 32-bit words, low word first."""
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _chain(hc: int, mult: int, count: int) -> list[int]:
    """``count + 1`` successive hash constants from ``hc``: each hash call
    reads one and multiplies it by ``mult`` for the next."""
    out = [hc]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return out


def _hash(value, before, after):
    """``hashmix`` with hash constant ``before`` (and ``after``, the next one),
    elementwise on uint32 arrays."""
    value = (value ^ before) * after & _M32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's ``mix`` of pool word ``x`` with hashed word ``y``."""
    value = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return value ^ value >> 16


@functools.lru_cache(maxsize=16)
def _seed_prefix(key: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """SeedSequence's pool after the words of ``key``, read from numpy, and
    the hash constant that follows it: the pool took four hashes, twelve to
    mix and four per word after the fourth.  A key of four integers has at
    least four words (the pool's size), so a trial index that follows is
    absorbed word by word."""
    # first, as it raises on a negative integer, on which _words never returns
    pool = tuple(np.random.SeedSequence(key).pool.tolist())
    words = sum(len(_words(v)) for v in key)
    return pool, _INIT_A * pow(_MULT_A, 16 + 4 * (words - 4), 1 << 32) & _M32


def _trial_states(key: tuple[int, ...], start: int, stop: int) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of ``default_rng(SeedSequence(key + (i,)))`` for
    each i in [start, stop), vectorised over i."""
    prefix, hc = _seed_prefix(key)
    out = []
    while start < stop:
        n_words = len(_words(start))
        end = min(stop, 1 << 32 * n_words)  # indices with as many words
        pool = np.repeat(np.array(prefix, dtype=np.uint32)[:, None], end - start, axis=1)
        chain = hc
        for shift in range(0, 32 * n_words, 32):
            word = np.array([i >> shift & _M32 for i in range(start, end)], dtype=np.uint32)
            c = np.array(_chain(chain, _MULT_A, 4), dtype=np.uint32)[:, None]
            pool = _mix(pool, _hash(word, c[:-1], c[1:]))  # one hash per pool word
            chain = int(c[-1, 0])
        # generate_state(4, uint64): eight hashed pool words, paired low word first
        c = np.array(_chain(_INIT_B, _MULT_B, 8), dtype=np.uint32)[:, None]
        state = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], c[:-1], c[1:]).astype(np.uint64)
        seed_hi, seed_lo, inc_hi, inc_lo = (state[0::2] | state[1::2] << 32).tolist()
        for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
            # pcg64_set_seed: inc = 2 * initseq + 1, then two steps with the initstate added
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
            out.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128, inc))
        start = end
    return out


def _draws(master_seed: int, nt: int, nr: int, snr_db: float, start: int, stop: int):
    """The inputs of trials [start, stop), in sub-blocks of consecutive trials.

    Yields ``(first trial, h, b_true, y)`` with the arrays stacked along a
    leading trial axis, new arrays for every sub-block.  A sub-block holds
    at most ``_DRAW_BYTES`` of complex channel.  Each trial's generator is
    set to the state that :func:`trial_rng` gives it (with no buffered
    32-bit word) and draws what ``sample_channel``, ``sample_bpsk`` and
    ``assemble`` draw, in their order: the 2*nr*nt normals of H's real and
    imaginary blocks, the ``ceil(nt/2)`` raw words that ``integers(0, 2,
    nt)`` reads, whose bits 31 and 63 are its payload bits in turn, and the
    2*nr normals of the noise, into buffers of the sub-block.  H is written
    in place, ``np.multiply(z[:, 0], sqrt(1/2), out=h.real)`` and likewise
    for the imaginary part, the payload with ``sample_bpsk``'s formula, and
    y as one stacked product to whose real and imaginary parts the scaled
    noise normals are added in place, so every trial's inputs are bit for
    bit :func:`draw`'s (up to the sign of a zero where a normal is exactly
    0.0; see the module docstring).
    """
    if nt < 1 or nr < 1:
        raise ValueError(f"antenna counts must be >= 1, got nt={nt} nr={nr}")
    # SeedSequence's error; _words would never end on a negative integer
    for name, value in (("master_seed", master_seed), ("trial index", start)):
        if value < 0:
            raise ValueError(f"expected non-negative integer, got {name} {value}")
    snr = SnrSpec(snr_db)
    states = _trial_states((master_seed, nt, nr, _encode_snr(snr_db)), start, stop)
    bitgen = np.random.PCG64(0)  # set to each trial's state in turn
    rng = np.random.Generator(bitgen)
    size = max(1, _DRAW_BYTES // (16 * nr * nt))
    h_scale, noise_scale = math.sqrt(0.5), math.sqrt(snr.n0 / 2.0)
    for lo in range(0, stop - start, size):
        chunk = states[lo:lo + size]
        n = len(chunk)
        z = np.empty((n, 2, nr, nt))
        words = np.empty((n, (nt + 1) // 2), dtype=np.uint64)
        e = np.empty((n, 2, nr))
        for k, (state, inc) in enumerate(chunk):
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            rng.standard_normal(out=z[k])
            words[k] = bitgen.random_raw(words.shape[1])
            rng.standard_normal(out=e[k])
        h = np.empty((n, nr, nt), dtype=np.complex128)
        np.multiply(z[:, 0], h_scale, out=h.real)
        np.multiply(z[:, 1], h_scale, out=h.imag)
        bits = (words[:, :, None] >> np.array([31, 63], dtype=np.uint64) & 1).reshape(n, -1)
        b_true = math.sqrt(snr.es) * (2.0 * bits[:, :nt] - 1.0)
        y = (h @ b_true[:, :, None])[:, :, 0]
        y.real += noise_scale * e[:, 0]
        y.imag += noise_scale * e[:, 1]
        # Freed before the yield: held across it, the normals would add a
        # sub-block of them (256 KiB at 128x128) to the caller's peak memory
        del z, e
        yield start + lo, h, b_true, y


def draw(
    master_seed: int, nt: int, nr: int, snr_db: float, trial_index: int
) -> ChannelInstance:
    """One trial's channel, payload, noise and observation, from its seed key:
    the reference of the seed contract, which :func:`_draws` reproduces a
    block at a time."""
    rng = trial_rng(master_seed, nt, nr, snr_db, trial_index)
    snr = SnrSpec(snr_db)
    return assemble(sample_channel(nt, nr, rng), sample_bpsk(nt, snr.es, rng), snr, rng)


class _Chunk:
    """Trials [start, stop) of cells that differ only in rho, as one chunk
    runs them; it holds the outcomes (see :func:`_block`) of one block."""

    def __init__(self, cells, start: int, stop: int):
        self.cells, self.stop = tuple(cells), stop
        self.row = {c: r for r, c in enumerate(self.cells)}  # each cell's row of errors
        self.first = self.end = start  # the held block's trials [first, end)
        self.outcomes = None


def trial(
    point: PointSpec, trial_index: int, record_trace: bool = False, *,
    chunk: _Chunk | None = None,
) -> tuple[int, SlasTrace | None]:
    """Run one trial; returns (bit errors, optional search trace).

    Pure in (master_seed, trial_index) for fixed cell parameters.  When the
    search runs at rho >= 1 the ascent property (the likelihood never drops
    from one step to the next) is asserted on every trial.  A numerically
    singular channel raises :class:`~mimo_slas.linalg.SingularMatrixError`.

    Trials run in blocks held by a chunk: the first call for a trial past
    the held block drops it and computes the block that starts there, for
    every cell of the chunk.  ``_ber_chunk`` and ``_trace_chunk`` pass
    theirs; without one the trial is a chunk of one.  An outcome is the
    same in every block.
    """
    if chunk is None:
        chunk = _Chunk((point,), trial_index, trial_index + 1)
    if not chunk.first <= trial_index < chunk.end:
        chunk.outcomes = None  # so that two blocks are never held at once
        chunk.first = trial_index
        chunk.end = min(chunk.stop, trial_index + _block_trials(chunk.cells))
        chunk.outcomes = _block(chunk.cells, chunk.first, chunk.end)
    errors, singular, block, searched = chunk.outcomes
    cell, k = chunk.row[point], trial_index - chunk.first
    count = int(errors[cell, k])
    if count < 0:
        raise singular[k].with_traceback(None)
    return count, (block.row(int(searched[k]) * len(chunk.cells) + cell)
                   if record_trace and block is not None else None)


@functools.cache
def _hold_heap() -> None:
    """Keep the freed blocks of this process in glibc's heap, once per process.

    By default glibc serves each array above a sliding threshold (128 KiB at
    first) with its own ``mmap`` and hands the top of the heap back to the
    system once more than that lies free, so every block of trials faulted
    its buffers in again (about 65 minor page faults per 128x128 trial).
    With ``M_MMAP_THRESHOLD`` at 32 MiB and ``M_TRIM_THRESHOLD`` at 64 MiB
    the buffers of one block are reused by the next.  Where the C library
    has no ``mallopt`` nothing is set; no output depends on either setting.
    Called at the top of every chunk, so that it runs in each process that
    runs trials, pool workers included.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _HEAP_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _HEAP_TRIM_THRESHOLD)


def _trial_bytes(nt: int, cells: int) -> int:
    """Bytes a block holds per trial: its H_real and, per row, the search's
    bits, gradient, thresholds and visit schedule."""
    return 8 * nt * (nt + 4 * cells)


def _block_trials(cells: tuple[PointSpec, ...]) -> int:
    return max(1, _BLOCK_BYTES // _trial_bytes(cells[0].nt, len(cells)))


def _start(p: PointSpec, h: np.ndarray, y: np.ndarray, counter: FlopCounter | None = None):
    """How a stack of draws of cell ``p`` starts: ``(kept, decisions,
    workspace, singular)``, the offsets of the trials that are not singular,
    their +-1 decisions and stacked workspace (None with the search off),
    and ``{offset: SingularMatrixError}`` of the others.  ``counter`` is
    charged the products and the scaling: what ``precompute`` charges.

    MF slices ``y_eff`` of :func:`~mimo_slas.slas.precompute` (search on) or
    ``H^H y`` (search off).  ZF and MMSE form the stack's ``z = H^H y`` and
    ``G = H^H H`` once and read them for detection (:func:`equalize`, a
    trial at a time, so each singularity verdict is the trial's own) and the
    workspace (:func:`~mimo_slas.slas.workspace`)."""
    if p.detector is DetectorKind.MF:
        if not p.las_enabled:
            return range(len(h)), slice_bpsk(mf(h, y)), None, {}
        # y_eff = 2 Re(H^H y) keeps the sign of every entry of Re z,
        # -0 included, so it slices as the matched filter does
        ws = precompute(h, y, counter)
        return range(len(h)), slice_bpsk(ws.y_eff), ws, {}
    snr = SnrSpec(p.snr_db)
    z, gram = mf(h, y, counter), mat_mul(hermitian_transpose(h), h, counter)
    kept, decisions, singular = [], [], {}
    for k in range(len(h)):
        try:
            decisions.append(slice_bpsk(equalize(p.detector, gram[k], z[k], snr, p.nr)))
            kept.append(k)
        except SingularMatrixError as exc:
            singular[k] = exc
    if len(kept) < len(h):
        gram, z = gram[kept], z[kept]
    ws = workspace(gram, z, counter) if p.las_enabled and kept else None
    return kept, np.array(decisions), ws, singular


def _block(cells: tuple[PointSpec, ...], start: int, stop: int):
    """Outcomes of trials [start, stop) of cells that differ only in rho:
    ``(errors, singular, block, searched)``, each cell's (row) bit errors in
    each trial (column), -1 where it is aborted; ``{offset:
    SingularMatrixError}``; the search's :class:`SlasBlock` (None if nothing
    was searched); and each trial's index among the searched ones (-1 if
    none), so trial ``start + k`` of cell c is row ``searched[k] *
    len(cells) + c``.  Each sub-block of :func:`_draws` starts once, by
    :func:`_start`, for all the cells (a singular trial is aborted in every
    cell), and one :func:`run` searches every (trial, cell) row."""
    p, n = cells[0], stop - start
    errors, searched = np.full((len(cells), n), -1), np.full(n, -1)
    singular, count = {}, 0  # count: the trials searched so far
    if p.las_enabled:
        y_eff, bits, truth = (np.empty((n, p.nt)) for _ in range(3))
        h_real = np.empty((n, p.nt, p.nt))
    for first, h, b_true, y in _draws(p.master_seed, p.nt, p.nr, p.snr_db, start, stop):
        kept, decisions, ws, lost = _start(p, h, y)
        singular.update((first - start + k, exc) for k, exc in lost.items())
        if not kept:
            continue
        offsets, b_true = np.asarray(kept) + (first - start), b_true[kept]
        if ws is None:
            errors[:, offsets] = np.count_nonzero(decisions != b_true, axis=1)
            continue
        rows = slice(count, count + len(kept))
        y_eff[rows], h_real[rows] = ws.y_eff, ws.h_real
        bits[rows], truth[rows] = decisions, b_true
        searched[offsets] = np.arange(rows.start, rows.stop)
        count = rows.stop
    block = None
    if count:
        ws = SlasWorkspace(y_eff=y_eff[:count], h_real=h_real[:count])
        final, block = run(ws, bits[:count], [c.rho for c in cells], p.n_f, b_true=truth[:count])
        columns = np.flatnonzero(searched >= 0)  # offsets of the searched trials, in order
        _check_ascent(block, cells, start + columns)
        wrong = final != np.repeat(truth[:count], len(cells), axis=0)
        errors[:, columns] = np.count_nonzero(wrong, axis=1).reshape(count, len(cells)).T
    return errors, singular, block, searched


def _check_ascent(block: SlasBlock, cells: tuple[PointSpec, ...], trials: np.ndarray) -> None:
    """At rho >= 1 no flip may lower a row's likelihood: raise naming the
    first record (in trial, then cell order) whose gain is below -1e-9."""
    ascent = np.array([c.rho >= 1.0 for c in cells])
    if not ascent.any():
        return
    rows = block.flip_row
    dips = np.flatnonzero((block.flip_gain < -1e-9) & ascent[rows % len(cells)])
    if dips.size:
        q = dips[0]
        cell, index = cells[rows[q] % len(cells)], trials[rows[q] // len(cells)]
        raise AssertionError(
            f"likelihood decreased at rho={cell.rho} "
            f"(seed={cell.master_seed}, trial={index}, step {block.flip_step[q]}): "
            f"the flip gained {block.flip_gain[q]}"
        )


def _ber_chunk(points: list[PointSpec], start: int, stop: int) -> np.ndarray:
    """Error counts of each cell (rows) for trials [start, stop) (columns),
    index-major so that the cells share each trial's inputs; -1 marks an
    aborted trial."""
    _hold_heap()
    out = np.empty((len(points), stop - start), dtype=np.int64)
    chunk = _Chunk(points, start, stop)
    for i in range(start, stop):
        for row, point in enumerate(points):
            try:
                out[row, i - start] = trial(point, i, chunk=chunk)[0]
            except SingularMatrixError:
                out[row, i - start] = -1
    return out


def _scan(counts, state):
    """Feed one chunk into the running (errors, aborted, trials) totals, in
    trial order, up to the trial whose errors reach the floor.

    Returns True when the stop condition fired inside this chunk.
    """
    aborted = counts < 0
    errors = state["errors"] + np.cumsum(np.where(aborted, 0, counts))
    fired = int(np.searchsorted(errors, state["floor"]))  # first trial at the floor
    taken = min(fired + 1, len(counts))
    state["trials"] += taken
    state["aborted"] += int(np.count_nonzero(aborted[:taken]))
    state["errors"] = int(errors[taken - 1])
    return fired < len(counts)


def _finish(point: PointSpec, state: dict) -> BerPoint:
    trials, aborted, errors = state["trials"], state["aborted"], state["errors"]
    bits = (trials - aborted) * point.nt
    return BerPoint(point=point, trials_run=trials, bits_sent=bits, bit_errors=errors,
                    ber=errors / bits if bits else math.nan, aborted_trials=aborted,
                    flagged=errors < point.min_bit_errors or aborted > 0)


def _chunk_trials(states: list[dict], start: int, n_jobs: int) -> int:
    """Trials of a sweep's next chunk, which starts at ``start``.

    ``_CHUNK`` until every active cell (``states``) has an error.  Then the
    trials still needed are estimated from the running rates, as the most,
    over the cells, of ``trials * floor / errors - start``, and shared over
    the ``n_jobs + 1`` chunks a pool keeps in flight, within ``[_MIN_CHUNK,
    _CHUNK]``: the chunks queued past the slowest cell's stop stay short, and
    no chunk is too short for its blocks to vectorise.
    """
    if any(s["errors"] == 0 for s in states):
        return _CHUNK
    need = max(s["trials"] * s["floor"] / s["errors"] for s in states) - start
    return min(_CHUNK, max(_MIN_CHUNK, math.ceil(need / (n_jobs + 1))))


def _in_order(run, chunks, n_jobs: int):
    """Yield ``(args, run(*args))`` for each ``args`` of ``chunks``, in order.

    In a pool at most ``n_jobs + 1`` chunks are in flight: one queued behind
    the running ones, so that a worker which finishes a chunk starts the next
    at once, not when the caller has read the result before it.  The next
    chunk is read only when a slot is free.  A pool starts only when
    ``n_jobs > 1`` and there is more than one chunk; otherwise each chunk runs
    in process as it is read, and none is read ahead.  On
    exit queued chunks are cancelled and the pool is waited for, running
    chunks included: a pool left running races the interpreter's exit hook
    on its wakeup pipe ("Bad file descriptor", or an exception ignored in
    ``threading``), and that hook would wait for the running chunks anyway.
    """
    chunks = iter(chunks)
    first = list(islice(chunks, min(n_jobs, 2)))
    chunks = chain(first, chunks)
    if len(first) < 2:
        for args in chunks:
            yield args, run(*args)
        return
    executor = ProcessPoolExecutor(max_workers=n_jobs)
    pending: deque = deque()  # (args, future), in chunk order
    try:
        while True:
            for args in islice(chunks, n_jobs + 1 - len(pending)):
                pending.append((args, executor.submit(run, *args)))
            if not pending:
                break
            args, future = pending.popleft()
            yield args, future.result()
    finally:
        executor.shutdown(wait=True, cancel_futures=True)


def _run_cells(points: list[PointSpec], n_jobs: int) -> list[BerPoint]:
    """Run distinct cells to their stopping conditions; results in the given order.

    Cells that differ only in rho form a group and share chunks of trial
    indices, contiguous from trial 0.  Each chunk lists the group's cells
    still active when it is read, and is ``_CHUNK`` trials long until each of
    them has an error; then it is sized from their running error rates (see
    :func:`_chunk_trials`).  Every cell scans its own row in index order and
    leaves the group when its stop fires or its trials reach the cap, so it
    stops on the same trial at any worker count, in any group and with any
    chunk sizes.  No result is read after every cell has stopped.

    Each group's seed prefix is derived before the first chunk, so that a
    pool's workers inherit ``numpy.random`` loaded, and the prefix cached,
    from this process when they fork, and the caller finds it loaded after
    the sweep.
    """
    groups: dict[PointSpec, list[PointSpec]] = {}
    for point in points:
        groups.setdefault(replace(point, rho=0.0), []).append(point)
    for p in groups:
        _seed_prefix((p.master_seed, p.nt, p.nr, _encode_snr(p.snr_db)))
    states = {p: {"errors": 0, "aborted": 0, "trials": 0, "floor": p.min_bit_errors}
              for p in points}
    stopped: set[PointSpec] = set()

    def chunks():
        for group in groups.values():
            start, max_trials = 0, group[0].max_trials
            while start < max_trials:
                active = [p for p in group if p not in stopped]
                if not active:
                    break
                stop = min(start + _chunk_trials([states[p] for p in active], start, n_jobs),
                           max_trials)
                yield active, start, stop
                start = stop

    with closing(_in_order(_ber_chunk, chunks(), n_jobs)) as results:
        for (cells, _, _), counts in results:
            for row, p in zip(counts, cells):
                if p not in stopped and (_scan(row, states[p])
                                         or states[p]["trials"] == p.max_trials):
                    stopped.add(p)
            if len(stopped) == len(points):
                break
    return [_finish(p, states[p]) for p in points]


def run_point(point: PointSpec, n_jobs: int = 1) -> BerPoint:
    """Run one cell to its stopping condition.

    ``n_jobs > 1`` distributes chunks of trials over processes; the stop scan
    reads the trials in index order and stops on the same one whatever the
    chunk boundaries, so the aggregate is identical to the sequential run.
    """
    return _run_cells([point], n_jobs)[0]


def run_sweep(cfg: ExperimentConfig, n_jobs: int = 1) -> list[BerPoint]:
    """Run every cell of the sweep grid, in grid order.

    Cells that differ only in rho run as one group over shared trials (see
    :func:`trial`); each result equals that of :func:`run_point` on its cell.
    """
    return _run_cells(cfg.points(), n_jobs)


def _trace_trials(point: PointSpec) -> int:
    """Trials of a trace chunk: ``_CHUNK``, unless fewer rows of ``n_f + 1``
    floats fit in ``_TRACE_BYTES``; then as many as fit, at least one,
    rounded down to whole blocks where a block fits, so that the budget
    cuts no block short."""
    trials = max(1, _TRACE_BYTES // (8 * (point.n_f + 1)))
    if trials >= _CHUNK:
        return _CHUNK
    block = _block_trials((point,))
    return trials // block * block if block <= trials else trials


def _trace_chunk(point: PointSpec, start: int, stop: int):
    """Trials [start, stop)'s likelihood rows (trials x (n_f + 1)) and the
    per-step sums of their bit errors.

    Each trial is one :func:`trial` call; after the last trial of a block
    the block's rows are written in one pass over its flip records
    (:meth:`~mimo_slas.slas.SlasBlock.paths`).  A singular trial raises in
    its call, so a block that reaches its last trial searched every one of
    its trials, and trial ``first + k`` is its row k."""
    _hold_heap()
    lams = np.empty((stop - start, point.n_f + 1), dtype=np.float64)
    err_sum = np.zeros(point.n_f + 1, dtype=np.int64)
    chunk = _Chunk((point,), start, stop)
    for i in range(start, stop):
        trial(point, i, chunk=chunk)
        if i + 1 == chunk.end:
            _, _, block, _ = chunk.outcomes
            _, rows, errs = block.paths(0, chunk.end - chunk.first)
            lams[chunk.first - start:chunk.end - start] = rows
            err_sum += errs.sum(axis=0)
    return lams, err_sum


def run_trace(point: PointSpec, n_jobs: int = 1) -> TraceAggregate:
    """Average likelihood/BER trajectories over all ``max_trials`` trials of
    the cell; a trace has no error floor, so ``min_bit_errors`` is not read.

    Chunks of at most ``_TRACE_BYTES`` of likelihood rows (or one row; see
    :func:`_trace_trials`) run with at most ``n_jobs + 1`` in flight (in
    process for one job or one chunk), and each is summed into running
    totals in chunk order as it arrives, so memory does not grow with the
    trial count.  A worker returns its rows, not their sum: float addition
    is not associative, so the rows are added here, in trial order.  Unlike
    a sweep, a trace does not load ``numpy.random`` before its pool starts:
    its own process never draws, and the module would add to its peak
    memory.  numpy adds the rows of a matrix of two or more columns one at a
    time, so the running likelihood sum equals the sum of all the rows bit
    for bit; a single column (``n_f = 0``) it adds pairwise, so those rows
    are kept (8 bytes a trial) and summed once.  Bit errors are integer
    sums, exact in any order.
    """
    if not point.las_enabled:
        raise ValueError("trace experiments require the search to be enabled")
    trials = point.max_trials
    if trials < 1:  # a PointSpec built by hand is not validated
        raise ValueError(f"max_trials must be >= 1, got {trials}")
    size = _trace_trials(point)
    chunks = ((point, start, min(start + size, trials)) for start in range(0, trials, size))
    held: list = []  # likelihood rows not yet summed, in trial order
    err_sum = 0
    for _, (lams, errs) in _in_order(_trace_chunk, chunks, n_jobs):
        held.append(lams)
        if point.n_f:
            held = [np.add.reduce(np.vstack(held), axis=0, keepdims=True)]
        err_sum = err_sum + errs
    return TraceAggregate(
        point=point,
        trials=trials,
        mean_likelihood=np.add.reduce(np.vstack(held), axis=0) / trials,
        mean_ber=err_sum / trials / point.nt,
    )
