"""Tests for the instrumented linear-algebra kernel."""

import pickle

import numpy as np
import pytest

from mimo_slas.channel import SnrSpec, sample_channel
from mimo_slas.linalg import (
    _CHOLESKY_MARGIN,
    _PIVOT_TOL,
    DimensionMismatchError,
    FlopCounter,
    SingularMatrixError,
    gauss_invert,
    gauss_invert_flops,
    hermitian_solve,
    hermitian_transpose,
    mat_mul,
    mat_mul_flops,
    mat_vec,
    mat_vec_flops,
)


def _reference_matmul(a, b):
    """Triple-loop product, kept deliberately independent of numpy's @."""
    m, p = a.shape
    p2, n = b.shape
    assert p == p2
    out = np.zeros((m, n), dtype=complex)
    for i in range(m):
        for j in range(n):
            acc = 0.0 + 0.0j
            for k in range(p):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


class TestFlopCounter:
    def test_starts_at_zero(self):
        c = FlopCounter()
        assert c.total == 0

    def test_charge_accumulates(self):
        c = FlopCounter()
        c.charge(8)
        c.charge(2)
        assert c.total == 10

    def test_negative_charge_rejected(self):
        c = FlopCounter()
        with pytest.raises(ValueError):
            c.charge(-1)
        with pytest.raises(ValueError):
            c.charge(-4)
        assert c.total == 0


class TestFlopFormulas:
    @pytest.mark.parametrize(
        "m,n,p",
        [(1, 1, 1), (2, 3, 4), (8, 8, 8), (5, 1, 7)],
    )
    def test_mat_mul_formula(self, m, n, p):
        # 6*m*n*p multiplication flops plus 2*m*n*(p-1) addition flops
        assert mat_mul_flops(m, n, p) == 6 * m * n * p + 2 * m * n * (p - 1)

    def test_mat_vec_is_mat_mul_with_single_column(self):
        assert mat_vec_flops(9, 4) == mat_mul_flops(9, 1, 4)

    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 6), (3, 18), (4, 43)])
    def test_gauss_invert_lump(self, n, expected):
        # ceil(2 n^3 / 3)
        assert gauss_invert_flops(n) == expected


class TestMatMul:
    def test_matches_reference(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        b = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        c = FlopCounter()
        got = mat_mul(a, b, c)
        np.testing.assert_allclose(got, _reference_matmul(a, b), rtol=1e-12)

    def test_identity_times_matrix_charge(self):
        # 2x2 identity times 2x2: 6*2*2*2 = 48 mults, 2*2*2*(2-1) = 8 adds.
        c = FlopCounter()
        mat_mul(np.eye(2, dtype=complex), np.ones((2, 2), dtype=complex), c)
        assert c.total == 56

    def test_dimension_mismatch(self):
        c = FlopCounter()
        with pytest.raises(DimensionMismatchError):
            mat_mul(np.ones((2, 3)), np.ones((2, 3)), c)

    def test_vector_rejected_where_matrix_expected(self):
        c = FlopCounter()
        with pytest.raises(DimensionMismatchError):
            mat_mul(np.ones((2, 2)), np.ones(2), c)


class TestMatVec:
    def test_matches_reference(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c = FlopCounter()
        got = mat_vec(a, v, c)
        np.testing.assert_allclose(got, _reference_matmul(a, v[:, None])[:, 0], rtol=1e-12)
        assert c.total == mat_vec_flops(5, 4)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mat_vec(np.ones((3, 2)), np.ones(3), FlopCounter())


class TestHermitianTranspose:
    def test_is_conjugate_transpose(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        got = hermitian_transpose(a)
        np.testing.assert_array_equal(got, a.conj().T)


class TestGaussInvert:
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_matches_numpy_inverse(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = a + n * np.eye(n)  # keep well conditioned
        inv = gauss_invert(a)
        np.testing.assert_allclose(inv, np.linalg.inv(a), rtol=1e-9, atol=1e-9)

    def test_pivoting_handles_zero_leading_entry(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        inv = gauss_invert(a)
        np.testing.assert_allclose(inv, a, atol=1e-14)  # permutation is self-inverse

    def test_singular_raises_with_column_info(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        with pytest.raises(SingularMatrixError) as exc_info:
            gauss_invert(a)
        assert exc_info.value.column in (0, 1)
        assert "pivot column" in str(exc_info.value)

    def test_singular_error_survives_pickling(self):
        # a worker process's error reaches the parent pickled
        a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        with pytest.raises(SingularMatrixError) as exc_info:
            gauss_invert(a)
        sent = exc_info.value
        received = pickle.loads(pickle.dumps(sent))
        assert type(received) is SingularMatrixError
        assert (received.column, received.magnitude) == (sent.column, sent.magnitude)
        assert str(received) == str(sent)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            gauss_invert(np.ones((2, 3)))


def _hermitian_pd(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return x.conj().T @ x + n * np.eye(n)


def _outcome(fn):
    """(result, None) or (None, SingularMatrixError) of one call."""
    try:
        return fn(), None
    except SingularMatrixError as exc:
        return None, exc


class TestHermitianSolve:
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 128])
    def test_matches_gauss_invert_product(self, n):
        a = _hermitian_pd(n, 100 + n)
        rng = np.random.default_rng(200 + n)
        b = rng.standard_normal((n, n + 3)) + 1j * rng.standard_normal((n, n + 3))
        inverse = gauss_invert(a)
        np.testing.assert_allclose(hermitian_solve(a, b), inverse @ b, rtol=1e-9)
        # a vector right-hand side, as ZF and MMSE pass it
        np.testing.assert_allclose(hermitian_solve(a, b[:, 0]), inverse @ b[:, 0], rtol=1e-9)

    def test_indefinite_matrix_falls_back_to_gauss_jordan(self):
        # Hermitian and invertible but not positive definite: Cholesky
        # fails, and the result is the Gauss-Jordan inverse times b.
        a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        b = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], dtype=complex)
        np.testing.assert_array_equal(hermitian_solve(a, b), gauss_invert(a) @ b)
        np.testing.assert_array_equal(hermitian_solve(a, b[:, 1]), gauss_invert(a) @ b[:, 1])

    def test_singular_exactly_when_gauss_invert_is(self):
        """Gram and MMSE-regularised Gram matrices over nt in 1..8 and
        nr in {nt-1, nt, nt+1}: the same matrices raise, with the same
        column and message.  At 120 and 140 dB the regularisation puts the
        rank-deficient matrices near the pivot tolerance 1e-12."""
        raised = 0
        for nt in range(1, 9):
            for nr in (nt - 1, nt, nt + 1):
                if nr < 1:
                    continue
                for seed in range(8):
                    h = sample_channel(nt, nr, np.random.default_rng((nt, nr, seed)))
                    gram = h.conj().T @ h
                    for snr_db in (None, 10.0, 40.0, 120.0, 140.0):
                        g = gram.copy()
                        if snr_db is not None:
                            snr = SnrSpec(snr_db)
                            g[np.diag_indices(nt)] += snr.n0 / snr.es
                        _, expected = _outcome(lambda: gauss_invert(g))
                        # the filter's right-hand sides H^H, and the matched-filter
                        # output z = H^H y (here y = H 1) that ZF and MMSE solve for
                        for b in (h.conj().T, h.conj().T @ h.sum(axis=1)):
                            _, got = _outcome(lambda: hermitian_solve(g, b))
                            case = f"nt={nt} nr={nr} seed={seed} snr_db={snr_db} b={b.shape}"
                            assert (got is None) == (expected is None), case
                            if expected is not None:
                                raised += 1
                                assert got.column == expected.column, case
                                assert str(got) == str(expected), case
        # every unregularised Gram with nr = nt - 1 is rank deficient
        assert raised >= 2 * 7 * 8

    def test_skipped_check_would_have_passed(self, cholesky_calls):
        """Gram matrices of nr x nt channels, nt over 1..128 and nr in
        {nt-1, nt, nt+1}, scaled by 1e-6, 1 and 1e3, with shifts on a log
        grid from below to above the rounding bound: wherever the Cholesky
        check is skipped, it passes on the same matrix, and the result is the
        checked path's bit for bit.

        Random channels round far below the worst case that the bound
        covers, so a check that passes does not show the bound is safe.  The
        test also requires that no shift within ``(nt + nr) eps trace(G)``
        of the floor, the order of the Gram product's worst-case rounding,
        is ever trusted."""
        floor = _CHOLESKY_MARGIN * _PIVOT_TOL
        eps = np.finfo(float).eps
        for nt in (1, 2, 3, 4, 5, 7, 8, 12, 16, 23, 32, 47, 64, 91, 127, 128):
            for nr in (nt - 1, nt, nt + 1):
                if nr < 1:
                    continue
                rng = np.random.default_rng((nt, nr))
                for scale in (1e-6, 1.0, 1e3):
                    h = scale * sample_channel(nt, nr, rng)
                    gram = mat_mul(hermitian_transpose(h), h)
                    z = mat_vec(hermitian_transpose(h), h.sum(axis=1))
                    rounding = (nt + nr) * eps * np.trace(gram).real
                    for k in np.arange(-8.0, 2.5, 0.5):
                        shift = floor + (floor + rounding) * 10**k
                        case = f"nt={nt} nr={nr} scale={scale} k={k}"
                        cholesky_calls.clear()
                        got = hermitian_solve(gram, z, shift, nr)
                        skip = not cholesky_calls
                        if not skip:
                            continue
                        assert shift - floor >= rounding, case
                        a = gram.copy()
                        a[np.diag_indices(nt)] += shift
                        pivots = np.abs(np.diagonal(np.linalg.cholesky(a))) ** 2
                        assert np.all(pivots >= floor), case
                        assert got.tobytes() == hermitian_solve(a, z).tobytes(), case
                    # the top of the grid is past the bound for every matrix
                    assert skip, case

    def test_check_runs_unless_a_finite_shift_and_the_row_count_prove_it(self, cholesky_calls):
        h = sample_channel(4, 6, np.random.default_rng(3))
        gram = h.conj().T @ h
        z = h.conj().T @ h.sum(axis=1)
        for shift, rows in ((10.0, None), (0.0, 6), (1e-9, 6), (-10.0, 6), (np.inf, 6)):
            cholesky_calls.clear()
            hermitian_solve(gram, z, shift, rows)
            assert cholesky_calls, (shift, rows)
        bad = gram.copy()
        bad[0, 1] = np.nan
        cholesky_calls.clear()
        hermitian_solve(bad, z, 10.0, 6)
        assert cholesky_calls
        cholesky_calls.clear()
        hermitian_solve(gram, z, 10.0, 6)
        assert not cholesky_calls

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hermitian_solve(np.ones((2, 3)), np.ones((2, 1)))
        with pytest.raises(DimensionMismatchError):
            hermitian_solve(np.eye(3), np.ones((2, 1)))
        with pytest.raises(DimensionMismatchError):
            hermitian_solve(np.eye(3), np.ones(2))

