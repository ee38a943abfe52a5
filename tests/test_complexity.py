"""Cost-model tests: frozen closed-form values, reconciliation verdicts,
and end-to-end agreement with instrumented detector runs."""

import math

import numpy as np
import pytest

from mimo_slas.channel import SnrSpec, assemble, sample_bpsk, sample_channel
from mimo_slas.complexity import CostKind, flops_closed_form, reconcile
from mimo_slas.detectors import mf, mmse, slice_bpsk, zf
from mimo_slas.linalg import FlopCounter
from mimo_slas.slas import precompute, run

# matched filter at nt == nr, from 8*n^2 - 2*n
MF_SQUARE_TABLE = {1: 6, 2: 28, 16: 2016, 64: 32640, 256: 523776}


def _instance(nt, nr, seed, snr_db=10.0):
    rng = np.random.default_rng(seed)
    h = sample_channel(nt, nr, rng)
    b = sample_bpsk(nt, 1.0, rng)
    return assemble(h, b, SnrSpec(snr_db), rng)


@pytest.mark.parametrize("n,expected", sorted(MF_SQUARE_TABLE.items()))
def test_mf_closed_form_frozen_values(n, expected):
    assert flops_closed_form(CostKind.MF, n, n) == expected


def test_zf_closed_form_structure():
    # ceil(2*32^3/3) + 16*32^3 - 4*32^2 + 8*32^2 - 2*32
    assert flops_closed_form(CostKind.ZF, 32, 32) == 21846 + 524288 - 4096 + 8192 - 64


@pytest.mark.parametrize("nt", [1, 2, 16, 64, 256])
def test_mmse_model_is_zf_plus_4nt(nt):
    zf_flops = flops_closed_form(CostKind.ZF, nt, nt)
    mmse_flops = flops_closed_form(CostKind.MMSE, nt, nt)
    assert mmse_flops - zf_flops == 4 * nt


def test_search_model_frozen_value():
    assert flops_closed_form(CostKind.LAS, 32, 32, n_f=96) == 8 * 32 * 32 * 96


def test_search_model_requires_n_f():
    with pytest.raises(ValueError):
        flops_closed_form(CostKind.LAS, 8, 8)


def test_kind_accepts_strings():
    assert flops_closed_form("mf", 4, 4) == flops_closed_form(CostKind.MF, 4, 4)


@pytest.mark.parametrize("n", [1, 2, 16, 64])
def test_mf_reconciles_exactly(n):
    inst = _instance(n, n, n)
    counter = FlopCounter()
    mf(inst.h, inst.y, counter)
    report = reconcile(CostKind.MF, n, n, counter.total)
    assert report.verdict == "EXACT"
    assert report.relative_error == 0.0


@pytest.mark.parametrize("n", [2, 16, 64])
def test_zf_and_mmse_reconcile_exactly_on_square_systems(n):
    inst = _instance(n, n, 1000 + n)
    zf_count, mmse_count = FlopCounter(), FlopCounter()
    zf(inst.h, inst.y, zf_count)
    mmse(inst.h, inst.y, SnrSpec(10.0), mmse_count)
    report_zf = reconcile(CostKind.ZF, n, n, zf_count.total)
    report_mmse = reconcile(CostKind.MMSE, n, n, mmse_count.total)
    assert report_zf.verdict == "EXACT"
    assert report_mmse.verdict == "EXACT"


def test_zf_reconciles_within_tolerance_on_tall_systems():
    nt, nr = 16, 24
    inst = _instance(nt, nr, 3)
    counter = FlopCounter()
    zf(inst.h, inst.y, counter)
    report = reconcile(CostKind.ZF, nt, nr, counter.total)
    assert report.verdict == "WITHIN_TOL"
    assert 0.0 < report.relative_error <= 0.10
    assert "model_minus_measured" in report.notes


def test_search_incremental_mode_reports_divergence_with_note():
    nt = 32
    inst = _instance(nt, nt, 5)
    ws = precompute(inst.h, inst.y)
    b0 = slice_bpsk(mf(inst.h, inst.y))
    counter = FlopCounter()
    run(ws, b0, rho=1.0, n_f=96, counter=counter)
    report = reconcile(CostKind.LAS, nt, nt, counter, n_f=96)
    assert report.verdict == "DIVERGENT"
    assert report.measured_flops < report.model_flops
    assert "incremental" in report.notes


def test_reconcile_accepts_raw_integers_and_counters():
    model = flops_closed_form(CostKind.MF, 8, 8)
    counter = FlopCounter()
    counter.charge(model)
    assert reconcile(CostKind.MF, 8, 8, counter).verdict == "EXACT"
    assert reconcile(CostKind.MF, 8, 8, model).verdict == "EXACT"
    assert reconcile(CostKind.MF, 8, 8, int(model * 1.05)).verdict == "WITHIN_TOL"
    assert reconcile(CostKind.MF, 8, 8, int(model * 1.5)).verdict == "DIVERGENT"


def test_zero_model_reads_inf_unless_the_count_is_zero():
    # the search model is 0 at n_f = 0, while the search still forms its start
    report = reconcile(CostKind.LAS, 2, 2, 10, n_f=0)
    assert (report.model_flops, report.relative_error, report.verdict) == (0, math.inf,
                                                                           "DIVERGENT")
    report = reconcile(CostKind.LAS, 2, 2, 0, n_f=0)
    assert (report.relative_error, report.verdict) == (0.0, "EXACT")


def test_extra_note_is_appended():
    report = reconcile(CostKind.MF, 4, 4, 120, extra_note="includes warmup")
    assert report.notes.endswith("includes warmup")

