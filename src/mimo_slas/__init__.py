"""Massive-MIMO uplink detection lab.

Linear detectors (matched filter, zero forcing, MMSE), a selective-threshold
sequential likelihood ascent search that refines their hard decisions, exact
flop-cost models, and a deterministic Monte-Carlo engine for BER,
threshold-optimization, and convergence experiments.
"""

from .channel import ChannelInstance, SnrSpec, assemble, hardening_metric, sample_bpsk, sample_channel
from .complexity import CostKind, ReconciliationReport, flops_closed_form, reconcile
from .detectors import DetectorKind, detect, mf, mmse, slice_bpsk, zf
from .linalg import (
    DimensionMismatchError,
    FlopCounter,
    SingularMatrixError,
    gauss_invert,
    hermitian_solve,
    hermitian_transpose,
    mat_mul,
    mat_vec,
)
from .montecarlo import (
    BerPoint,
    ExperimentConfig,
    PointSpec,
    TraceAggregate,
    draw,
    run_point,
    run_sweep,
    run_trace,
    trial,
    trial_rng,
)
from .oracle import MlResult, is_local_optimum, ml_bruteforce
from .selfcheck import CHECK_NAMES, run_selfcheck
from .slas import SlasTrace, SlasWorkspace, gradient_full, likelihood, precompute, run

__version__ = "0.1.0"
