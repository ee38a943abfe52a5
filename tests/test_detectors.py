"""Linear detector tests: values against hand-rolled references, and
instrumented costs against the closed-form models."""

import math

import numpy as np
import pytest

from mimo_slas.channel import SnrSpec, sample_bpsk, sample_channel
from mimo_slas import detectors, linalg
from mimo_slas.complexity import CostKind, flops_closed_form
from mimo_slas.detectors import (
    DetectorKind,
    detect,
    equalize,
    mf,
    mmse,
    slice_bpsk,
    zf,
)
from mimo_slas.linalg import (
    FlopCounter,
    SingularMatrixError,
    gauss_invert,
    gauss_invert_flops,
    hermitian_solve,
    hermitian_transpose,
    mat_mul,
    mat_vec,
)
from mimo_slas.montecarlo import PointSpec, draw, run_point


def _instance(nt, nr, seed):
    rng = np.random.default_rng(seed)
    h = sample_channel(nt, nr, rng)
    b = sample_bpsk(nt, 1.0, rng)
    y = h @ b
    return h, b, y


def test_mf_is_conjugate_transpose_times_y():
    h, _, y = _instance(4, 6, 0)
    est = mf(h, y)
    np.testing.assert_allclose(est, h.conj().T @ y, rtol=1e-12)


def test_zf_inverts_noiseless_square_channel():
    h, b, y = _instance(8, 8, 1)
    est = zf(h, y)
    np.testing.assert_allclose(est.real, b, atol=1e-8)
    np.testing.assert_allclose(est.imag, np.zeros_like(b), atol=1e-8)


def test_zf_matches_numpy_pseudoinverse_solution():
    h, _, y = _instance(5, 9, 2)
    est = zf(h, y)
    ref = np.linalg.solve(h.conj().T @ h, h.conj().T @ y)
    np.testing.assert_allclose(est, ref, rtol=1e-9)


def test_zf_underdetermined_raises_singular():
    h, _, y = _instance(6, 3, 3)  # nt > nr: Gram is rank deficient
    with pytest.raises(SingularMatrixError):
        zf(h, y)


def test_mmse_matches_direct_regularized_solve():
    h, _, y = _instance(6, 10, 4)
    snr = SnrSpec(snr_db=10.0)
    est = mmse(h, y, snr)
    g = h.conj().T @ h + (snr.n0 / snr.es) * np.eye(6)
    ref = np.linalg.solve(g, h.conj().T @ y)
    np.testing.assert_allclose(est, ref, rtol=1e-9)


def _ill_conditioned_square(n, cond, seed):
    """n x n channel with singular values spread geometrically over ``cond``."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    h = u @ np.diag(np.geomspace(1.0, 1.0 / cond, n)) @ v.conj().T
    b = sample_bpsk(n, 1.0, rng)
    return h, h @ b + 0.01 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


@pytest.mark.parametrize("n,cond", [(2, 1e3), (8, 1e3), (32, 1e3), (16, 1e4)])
def test_zf_and_mmse_match_numpy_solve_on_ill_conditioned_square_channels(n, cond):
    # Two backward-stable solves of G x = H^H y differ by up to about
    # cond(G) * eps relative to the largest value; cond(G) = cond(H)^2.
    h, y = _ill_conditioned_square(n, cond, n)
    hh = h.conj().T
    tol = 100 * cond**2 * np.finfo(float).eps
    est = zf(h, y)
    ref = np.linalg.solve(hh @ h, hh @ y)
    np.testing.assert_allclose(est, ref, rtol=0, atol=tol * np.max(np.abs(ref)))
    snr = SnrSpec(snr_db=30.0)
    est = mmse(h, y, snr)
    ref = np.linalg.solve(hh @ h + (snr.n0 / snr.es) * np.eye(n), hh @ y)
    np.testing.assert_allclose(est, ref, rtol=0, atol=tol * np.max(np.abs(ref)))


@pytest.mark.parametrize("kind,snr_db", [(DetectorKind.ZF, 10.0), (DetectorKind.MMSE, 120.0)])
def test_zf_and_mmse_match_numpy_solve_where_only_gauss_jordan_accepts_the_gram(
        kind, snr_db, monkeypatch):
    # cond(H) = 1e5: the Gram matrix's smallest eigenvalue, 1e-10, fails the
    # Cholesky check (squared pivots >= 1e-8) but passes Gauss-Jordan's pivot
    # tolerance 1e-12, so the soft values are gauss_invert(G) @ z.  MMSE's
    # shift at 120 dB, 1e-12, leaves the matrix as ill-conditioned.
    inverted = []
    invert = linalg.gauss_invert
    monkeypatch.setattr(linalg, "gauss_invert", lambda a: inverted.append(1) or invert(a))
    snr = SnrSpec(snr_db)
    for seed in range(3):  # smallest squared Cholesky pivots 5e-10, 1e-10, 1e-10
        h, y = _ill_conditioned_square(4, 1e5, seed)
        hh = h.conj().T
        a = hh @ h
        if kind is DetectorKind.MMSE:
            a[np.diag_indices(4)] += snr.n0 / snr.es
        ref = np.linalg.solve(a, hh @ y)
        tol = 100 * np.linalg.cond(a) * np.finfo(float).eps
        np.testing.assert_allclose(detect(kind, h, y, snr), ref, rtol=0,
                                   atol=tol * np.max(np.abs(ref)), err_msg=str(seed))
    assert len(inverted) == 3


def _outcome(fn):
    """(result, None) or (None, SingularMatrixError) of one call."""
    try:
        return fn(), None
    except SingularMatrixError as exc:
        return None, exc


def test_mmse_is_singular_exactly_when_gauss_invert_is():
    """MMSE over nt in 1..8 and nr in {nt-1, nt, nt+1}, through ``equalize``
    and ``mmse``, which pass the regularization to ``hermitian_solve``: the
    same trials raise as for ``gauss_invert`` of the regularized Gram
    matrix, with the same column and message.  At 10 to 60 dB the shift
    proves the Cholesky check, which is skipped; at 120 and 140 dB it puts
    the rank-deficient matrices near the pivot tolerance 1e-12."""
    raised = 0
    for nt in range(1, 9):
        for nr in (nt - 1, nt, nt + 1):
            if nr < 1:
                continue
            for seed in range(8):
                h, _, y = _instance(nt, nr, (nt, nr, seed))
                hh = h.conj().T
                gram, z = hh @ h, hh @ y
                for snr_db in (10.0, 40.0, 60.0, 120.0, 140.0):
                    snr = SnrSpec(snr_db)
                    g = gram.copy()
                    g[np.diag_indices(nt)] += snr.n0 / snr.es
                    _, expected = _outcome(lambda: gauss_invert(g))
                    for got_from in (lambda: equalize(DetectorKind.MMSE, gram, z, snr, nr),
                                     lambda: mmse(h, y, snr)):
                        _, got = _outcome(got_from)
                        case = f"nt={nt} nr={nr} seed={seed} snr_db={snr_db}"
                        assert (got is None) == (expected is None), case
                        if expected is not None:
                            raised += 1
                            assert got.column == expected.column, case
                            assert str(got) == str(expected), case
    # 55 of the 56 rank-deficient (nr = nt - 1) matrices at 140 dB, each
    # through both calls
    assert raised == 2 * 55


def test_mmse_skips_the_check_its_regularization_proves(cholesky_calls):
    h, _, y = _instance(32, 32, 44)
    mmse(h, y, SnrSpec(-10.0))
    assert not cholesky_calls
    zf(h, y)
    assert len(cholesky_calls) == 1
    cholesky_calls.clear()
    point = PointSpec(nt=32, nr=32, snr_db=-10.0, detector=DetectorKind.MMSE,
                      las_enabled=True, rho=1.0, n_f=8, max_trials=4, min_bit_errors=1,
                      master_seed=3)
    run_point(point)
    assert not cholesky_calls


def test_mmse_with_zero_noise_equals_zf():
    h, _, y = _instance(8, 8, 5)
    est_zf = zf(h, y)
    est_mmse = mmse(h, y, SnrSpec(math.inf))
    np.testing.assert_array_equal(est_mmse, est_zf)


@pytest.mark.parametrize("nt,nr", [(2, 2), (8, 8), (32, 32), (4, 9)])
def test_mf_instrumented_cost_matches_model(nt, nr):
    h, _, y = _instance(nt, nr, nt * 100 + nr)
    counter = FlopCounter()
    mf(h, y, counter)
    assert counter.total == flops_closed_form(CostKind.MF, nt, nr)


@pytest.mark.parametrize("nt,nr", [(2, 2), (8, 8), (32, 32)])
def test_zf_instrumented_cost_matches_model_square(nt, nr):
    h, _, y = _instance(nt, nr, nt * 101 + nr)
    counter = FlopCounter()
    zf(h, y, counter)
    assert counter.total == flops_closed_form(CostKind.ZF, nt, nr)


def test_zf_rectangular_cost_gap_is_filter_apply_tradeoff():
    # model assumes nt == nr; for nr > nt the measured filter chain is
    # cheaper by exactly 2*nt*(nr - nt) real additions
    nt, nr = 4, 9
    h, _, y = _instance(nt, nr, 6)
    counter = FlopCounter()
    zf(h, y, counter)
    model = flops_closed_form(CostKind.ZF, nt, nr)
    assert model - counter.total == 2 * nt * (nr - nt)


@pytest.mark.parametrize("nt,nr", [(2, 2), (8, 8), (32, 32)])
def test_mmse_costs_4nt_more_than_zf(nt, nr):
    h, _, y = _instance(nt, nr, nt * 102 + nr)
    zf_count, mmse_count = FlopCounter(), FlopCounter()
    zf(h, y, zf_count)
    mmse(h, y, SnrSpec(snr_db=10.0), mmse_count)
    assert mmse_count.total - zf_count.total == 4 * nt
    assert mmse_count.total == flops_closed_form(CostKind.MMSE, nt, nr)


@pytest.mark.parametrize("nt,nr", [(1, 1), (2, 2), (8, 8), (4, 9), (32, 32)])
def test_zf_and_mmse_charge_the_explicit_filter(nt, nr):
    # the solve for H^H y is charged as forming W = G^-1 H^H and applying it
    h, _, y = _instance(nt, nr, nt * 103 + nr)
    snr = SnrSpec(snr_db=10.0)
    for kind in (DetectorKind.ZF, DetectorKind.MMSE):
        counter, model = FlopCounter(), FlopCounter()
        detect(kind, h, y, snr, counter)
        hh = hermitian_transpose(h)
        gram = mat_mul(hh, h, model)
        if kind is DetectorKind.MMSE:
            model.charge(4 * nt)
            gram = gram + (snr.n0 / snr.es) * np.eye(nt)
        model.charge(gauss_invert_flops(nt))
        mat_vec(mat_mul(gauss_invert(gram), hh, model), y, model)
        assert counter == model, kind


@pytest.mark.parametrize("kind,nt,nr,snr_db", [
    (DetectorKind.ZF, 8, 8, 0.0), (DetectorKind.ZF, 32, 32, 10.0),
    (DetectorKind.MMSE, 16, 24, 5.0), (DetectorKind.MMSE, 32, 32, -10.0),
])
def test_solving_for_the_matched_filter_output_agrees_with_the_explicit_filter(
        kind, nt, nr, snr_db):
    # the soft values move at rounding level only, and no decision changes
    snr = SnrSpec(snr_db)
    worst = 0.0
    for i in range(200):
        inst = draw(14, nt, nr, snr_db, i)
        hh = hermitian_transpose(inst.h)
        gram = hh @ inst.h
        if kind is DetectorKind.MMSE:
            gram[np.diag_indices(nt)] += snr.n0 / snr.es
        explicit = hermitian_solve(gram, hh) @ inst.y
        got = detect(kind, inst.h, inst.y, snr)
        worst = max(worst, np.max(np.abs(got - explicit)) / np.max(np.abs(explicit.real)))
        np.testing.assert_array_equal(slice_bpsk(got), slice_bpsk(explicit), err_msg=str(i))
    assert worst <= 1e-9


def test_equalize_is_the_detectors_on_the_gram_matrix_and_matched_filter_output():
    h, _, y = _instance(6, 8, 43)
    snr = SnrSpec(10.0)
    hh = hermitian_transpose(h)
    gram, z = hh @ h, hh @ y
    for kind in DetectorKind:
        assert equalize(kind, gram, z, snr).tobytes() == detect(kind, h, y, snr).tobytes()
    with pytest.raises(ValueError):
        equalize("las", gram, z, snr)


def test_external_counter_accumulates_across_calls():
    h, _, y = _instance(4, 4, 7)
    c, mf_count, zf_count = FlopCounter(), FlopCounter(), FlopCounter()
    mf(h, y, c)
    zf(h, y, c)
    mf(h, y, mf_count)
    zf(h, y, zf_count)
    assert c.total == mf_count.total + zf_count.total


def test_slicer_signs_and_tie():
    est = np.array([0.3 + 9j, -0.2 + 9j, 0.0 - 1j, -0.0 + 1j])
    hard = slice_bpsk(est)
    assert hard.dtype == np.float64
    np.testing.assert_array_equal(hard, [1.0, -1.0, 1.0, 1.0])


def test_slicer_accepts_plain_arrays():
    hard = slice_bpsk(np.array([-3.0, 5.0]))
    np.testing.assert_array_equal(hard, [-1.0, 1.0])


def test_detector_kind_round_trips_from_string():
    assert DetectorKind("mf") is DetectorKind.MF
    assert DetectorKind("zf") is DetectorKind.ZF
    assert DetectorKind("mmse") is DetectorKind.MMSE


@pytest.mark.parametrize("kind", list(DetectorKind))
def test_detect_dispatches_to_the_named_detector(kind):
    h, _, y = _instance(6, 8, 40)
    snr = SnrSpec(10.0)
    expected_count = FlopCounter()
    expected = {DetectorKind.MF: lambda: mf(h, y, expected_count),
                DetectorKind.ZF: lambda: zf(h, y, expected_count),
                DetectorKind.MMSE: lambda: mmse(h, y, snr, expected_count)}[kind]()
    counter = FlopCounter()
    got = detect(kind, h, y, snr, counter)
    np.testing.assert_array_equal(got, expected)
    assert counter.total == expected_count.total


def test_detect_calls_the_detectors_by_module_name(monkeypatch):
    # a wrapper installed on the module after import, as a tracer does, sees the call
    calls = []
    real = detectors.mf
    monkeypatch.setattr(detectors, "mf", lambda *args: calls.append(args) or real(*args))
    h, _, y = _instance(2, 2, 42)
    detect(DetectorKind.MF, h, y, SnrSpec(10.0))
    assert len(calls) == 1


def test_detect_rejects_unknown_kind():
    h, _, y = _instance(2, 2, 41)
    with pytest.raises(ValueError):
        detect("las", h, y, SnrSpec(10.0))
