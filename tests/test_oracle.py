"""Brute-force reference tests.

The sliced enumerator is itself checked against an even dumber oracle:
itertools.product over all sign vectors with the likelihood evaluated one
vector at a time, also with slices small enough that the enumeration spans
several of them.
"""

import itertools

import numpy as np
import pytest

from mimo_slas import oracle
from mimo_slas.channel import sample_bpsk, sample_channel
from mimo_slas.detectors import mf, slice_bpsk
from mimo_slas.oracle import MAX_BRUTEFORCE_NT, is_local_optimum, ml_bruteforce
from mimo_slas.slas import SlasWorkspace, likelihood, precompute, run


def _setup(nt, nr, seed, snr_db=8.0):
    rng = np.random.default_rng(seed)
    h = sample_channel(nt, nr, rng)
    b_true = sample_bpsk(nt, 1.0, rng)
    n0 = 10.0 ** (-snr_db / 10.0)
    y = h @ b_true + np.sqrt(n0 / 2) * (
        rng.standard_normal(nr) + 1j * rng.standard_normal(nr)
    )
    return precompute(h, y), b_true, slice_bpsk(mf(h, y))


def _naive_argmax(ws):
    best_b, best_lam = None, -np.inf
    for signs in itertools.product((-1.0, 1.0), repeat=ws.nt):
        lam = likelihood(ws, np.array(signs))
        if lam > best_lam:
            best_b, best_lam = np.array(signs), lam
    return best_b, best_lam


@pytest.mark.parametrize("seed", range(6))
def test_matches_naive_enumeration(seed):
    ws, _, _ = _setup(6, 6, seed)
    result = ml_bruteforce(ws)
    naive_b, naive_lam = _naive_argmax(ws)
    assert result.lambda_star == pytest.approx(naive_lam, rel=1e-9)
    np.testing.assert_array_equal(result.b_star, naive_b)


@pytest.mark.parametrize("slice_size", [4, 5])
@pytest.mark.parametrize("seed", range(3))
def test_matches_naive_enumeration_across_slices(seed, slice_size, monkeypatch):
    # 2^6 vectors: 16 slices of 4, or 13 of 5 with a short last one
    monkeypatch.setattr(oracle, "_SLICE", slice_size)
    ws, _, _ = _setup(6, 6, seed)
    result = ml_bruteforce(ws)
    naive_b, naive_lam = _naive_argmax(ws)
    assert result.lambda_star == pytest.approx(naive_lam, rel=1e-9)
    np.testing.assert_array_equal(result.b_star, naive_b)


def test_recovers_payload_at_high_snr():
    ws, b_true, _ = _setup(8, 12, 42, snr_db=30.0)
    result = ml_bruteforce(ws)
    np.testing.assert_array_equal(result.b_star, b_true)


def test_lambda_star_is_consistent():
    ws, _, _ = _setup(5, 5, 7)
    result = ml_bruteforce(ws)
    assert result.lambda_star == pytest.approx(likelihood(ws, result.b_star), rel=1e-12)


def test_tie_breaks_lexicographically_smallest():
    # y = 0 makes Lambda(b) == Lambda(-b): every maximizer comes in a +- pair
    ws = precompute(
        np.array([[1.0 + 0j, 0.0], [0.0, 1.0 + 0j]]), np.zeros(2, dtype=complex)
    )
    result = ml_bruteforce(ws)
    mirrored = likelihood(ws, -result.b_star)
    assert result.lambda_star == pytest.approx(mirrored)
    # of the tied pair {b, -b}, the reported one must be the lex-smaller
    assert result.b_star[0] == -1.0


def test_tie_across_slices_goes_to_the_first(monkeypatch):
    # y = 0 again, and negative couplings make the all -1 vector (index 0, in
    # the first slice) and the all +1 vector (index 15, in the last) the
    # tied maximizers of 2^4 vectors in slices of 4
    monkeypatch.setattr(oracle, "_SLICE", 4)
    nt = 4
    ws = SlasWorkspace(y_eff=np.zeros(nt), h_real=2.4 * np.eye(nt) - 0.4 * np.ones((nt, nt)))
    result = ml_bruteforce(ws)
    np.testing.assert_array_equal(result.b_star, -np.ones(nt))
    assert likelihood(ws, np.ones(nt)) == result.lambda_star


def test_guard_rejects_large_systems():
    nt = MAX_BRUTEFORCE_NT + 1
    ws = SlasWorkspace(y_eff=np.zeros(nt), h_real=2 * np.eye(nt))
    with pytest.raises(ValueError):
        ml_bruteforce(ws)


class TestIsLocalOptimum:
    def test_ml_point_is_always_locally_optimal(self):
        for seed in range(4):
            ws, _, _ = _setup(6, 6, 100 + seed)
            result = ml_bruteforce(ws)
            assert is_local_optimum(ws, result.b_star)

    def test_detects_improvable_point(self):
        # nt=1, h=1, y=1: Lambda(-1) = -3 < Lambda(+1) = 1
        ws = precompute(np.array([[1.0 + 0j]]), np.array([1.0 + 0j]))
        assert not is_local_optimum(ws, np.array([-1.0]))
        assert is_local_optimum(ws, np.array([1.0]))

    def test_agrees_with_flipping_one_bit_at_a_time(self):
        ws, _, _ = _setup(6, 6, 400)
        verdicts = set()
        for signs in itertools.product((-1.0, 1.0), repeat=6):
            b = np.array(signs)
            base = likelihood(ws, b)
            expected = True
            for j in range(6):
                candidate = b.copy()
                candidate[j] = -candidate[j]
                expected &= likelihood(ws, candidate) <= base + 1e-9
            assert is_local_optimum(ws, b) == expected, signs
            verdicts.add(expected)
        assert verdicts == {True, False}

    def test_converged_search_lands_on_local_optimum(self):
        converged_seen = 0
        for seed in range(4):
            ws, _, b0 = _setup(8, 8, 200 + seed)
            hd, trace = run(ws, b0, rho=1.0, n_f=256)
            if trace.converged:
                converged_seen += 1
                assert is_local_optimum(ws, hd)
        assert converged_seen > 0

    def test_search_never_beats_exhaustive_maximum(self):
        for seed in range(6):
            ws, _, _ = _setup(7, 7, 300 + seed, snr_db=5.0)
            b0 = slice_bpsk(np.ones(7))
            hd, trace = run(ws, b0, rho=1.0, n_f=140)
            result = ml_bruteforce(ws)
            final = likelihood(ws, hd)
            assert final <= result.lambda_star + 1e-9
