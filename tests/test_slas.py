"""Search-kernel tests.

The oracles here recompute everything the slow way: likelihoods via the
quadratic form written out with explicit loops, gradients from scratch,
and per-flip deltas as differences of two full likelihood evaluations.
The incremental kernel must agree with all of them to float precision.
"""

import hashlib

import numpy as np
import pytest

from mimo_slas.channel import sample_bpsk, sample_channel
from mimo_slas.detectors import mf, slice_bpsk
from mimo_slas.linalg import FlopCounter, hermitian_transpose, mat_mul
from mimo_slas.slas import (
    SlasWorkspace,
    gradient_full,
    likelihood,
    precompute,
    run,
    workspace,
)

RNG_STREAM = 2026


def _likelihood_loops(ws, h, b):
    """b^T y_eff - b^T Re(H_eff) b with explicit summation, H_eff = H^H H."""
    h_eff = h.conj().T @ h
    nt = ws.nt
    total = 0.0
    for i in range(nt):
        total += b[i] * ws.y_eff[i]
    quad = 0.0
    for i in range(nt):
        for j in range(nt):
            quad += b[i] * h_eff[i, j].real * b[j]
    return total - quad


def _random_setup(nt, nr, seed, snr_db=None):
    rng = np.random.default_rng(seed)
    h = sample_channel(nt, nr, rng)
    b_true = sample_bpsk(nt, 1.0, rng)
    y = h @ b_true
    if snr_db is not None:
        n0 = 10.0 ** (-snr_db / 10.0)
        y = y + np.sqrt(n0 / 2) * (rng.standard_normal(nr) + 1j * rng.standard_normal(nr))
    ws = precompute(h, y)
    b0 = slice_bpsk(mf(h, y))
    return ws, b0, b_true


class TestWorkspace:
    def test_quantities_match_definitions(self):
        ws, _, _ = _random_setup(5, 8, 0)
        rng = np.random.default_rng(0)
        h = sample_channel(5, 8, rng)
        b_true = sample_bpsk(5, 1.0, rng)
        y = h @ b_true
        h_eff = h.conj().T @ h
        np.testing.assert_allclose(ws.h_real, (h_eff + h_eff.conj()).real, rtol=1e-12)
        np.testing.assert_allclose(ws.y_eff, 2 * (h.conj().T @ y).real, rtol=1e-12)
        np.testing.assert_allclose(ws.h_real, 2 * (h.conj().T @ h).real, rtol=1e-12)
        np.testing.assert_allclose(ws.zeta_base, np.abs(np.diag(ws.h_real)), rtol=1e-15)
        assert ws.nt == 5

    def test_workspace_values_and_charge(self):
        # the real parts are scaled by 2 into float64, one multiplication per entry
        gram = np.array([[1 + 2j, 3 - 4j], [0 + 1j, -2 + 0j]])
        c = FlopCounter()
        ws = workspace(gram, np.array([0.5 - 1j, -1 + 3j]), c)
        np.testing.assert_array_equal(ws.h_real, np.array([[2.0, 6.0], [0.0, -4.0]]))
        np.testing.assert_array_equal(ws.y_eff, np.array([1.0, -2.0]))
        assert ws.h_real.dtype == ws.y_eff.dtype == np.float64
        assert c.total == 4 + 2

    def test_precompute_flop_charge(self):
        nt, nr = 6, 9
        ws, _, _ = _random_setup(nt, nr, 1)
        c = FlopCounter()
        rng = np.random.default_rng(1)
        h = sample_channel(nt, nr, rng)
        y = h @ sample_bpsk(nt, 1.0, rng)
        precompute(h, y, c)
        # gram product + matched filter + the two real rescalings
        expected = (
            (6 * nt * nt * nr + 2 * nt * nt * (nr - 1))
            + (6 * nt * nr + 2 * nt * (nr - 1))
            + nt
            + nt * nt
        )
        assert c.total == expected


def _stacked_inputs(nt, nr, seed, trials=5):
    rng = np.random.default_rng(seed)
    h = np.stack([sample_channel(nt, nr, rng) for _ in range(trials)])
    y = np.stack([h[k] @ sample_bpsk(nt, 1.0, rng) for k in range(trials)])
    return h, y


SHAPES = [(nt, nt) for nt in (1, 2, 3, 31, 128)] + [(2, 4), (4, 2), (12, 8)]


class TestPrecomputeRealGram:
    """precompute forms H_real as the one real product 2 S^T S over
    S = [Re H; Im H], never the complex Gram matrix."""

    @pytest.mark.parametrize("nr,nt", SHAPES)
    def test_h_real_is_exactly_symmetric(self, nr, nt):
        h, y = _stacked_inputs(nt, nr, 40 + nr + nt)
        ws = precompute(h, y)
        assert ws.h_real.tobytes() == ws.h_real.swapaxes(-1, -2).copy().tobytes()

    @pytest.mark.parametrize("nr,nt", SHAPES)
    def test_stack_equals_per_trial_calls(self, nr, nt):
        h, y = _stacked_inputs(nt, nr, 50 + nr + nt)
        ws = precompute(h, y)
        for k in range(len(h)):
            one = precompute(h[k], y[k])
            assert ws.h_real[k].tobytes() == one.h_real.tobytes(), k
            assert ws.y_eff[k].tobytes() == one.y_eff.tobytes(), k

    @pytest.mark.parametrize("nr,nt", SHAPES)
    def test_h_real_is_twice_the_real_part_of_the_complex_gram(self, nr, nt):
        # the two products round differently: within 8 ulp of the largest entry
        h, y = _stacked_inputs(nt, nr, 60 + nr + nt)
        ws = precompute(h, y)
        want = 2.0 * mat_mul(hermitian_transpose(h), h).real
        for k in range(len(h)):
            ulp = np.spacing(np.max(np.abs(want[k])))
            assert np.max(np.abs(ws.h_real[k] - want[k])) <= 8 * ulp, k


def test_precompute_bytes_are_pinned():
    """precompute's y_eff and H_real, at nt 1, 4 and 32, hash to the value
    of the real product 2 S^T S; a change of how H_real is formed moves it."""
    digest = hashlib.sha256()
    for nt in (1, 4, 32):
        rng = np.random.default_rng(8000 + nt)
        h = sample_channel(nt, nt, rng)
        noise = rng.standard_normal(nt) + 1j * rng.standard_normal(nt)
        y = h @ sample_bpsk(nt, 1.0, rng) + np.sqrt(0.5) * noise
        ws = precompute(h, y)
        for a in (ws.y_eff, ws.h_real):
            digest.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
    assert digest.hexdigest() == (
        "e5c54b23f19ecde0cbd14f308478d244a1f70a630b7d833259a1f29b85d044fb"
    )


class TestLikelihoodAndGradient:
    @pytest.mark.parametrize("seed", range(5))
    def test_likelihood_matches_loop_oracle(self, seed):
        ws, b0, _ = _random_setup(6, 6, seed)
        h = sample_channel(6, 6, np.random.default_rng(seed))  # _random_setup's channel
        assert likelihood(ws, b0) == pytest.approx(
            _likelihood_loops(ws, h, b0), rel=1e-12
        )

    def test_gradient_matches_loop_oracle(self):
        ws, b0, _ = _random_setup(7, 7, 10)
        g = gradient_full(ws, b0)
        for j in range(ws.nt):
            expected = ws.y_eff[j] - sum(
                ws.h_real[j, k] * b0[k] for k in range(ws.nt)
            )
            assert g[j] == pytest.approx(expected, rel=1e-12)


class TestScalarWorkedExample:
    """nt = nr = 1, h = [[1]], y = [1]: everything is checkable by hand."""

    def _ws(self):
        return precompute(np.array([[1.0 + 0j]]), np.array([1.0 + 0j]))

    def test_hand_values(self):
        ws = self._ws()
        assert ws.y_eff[0] == pytest.approx(2.0)
        assert ws.h_real[0, 0] == pytest.approx(2.0)
        assert likelihood(ws, np.array([1.0])) == pytest.approx(1.0)
        assert likelihood(ws, np.array([-1.0])) == pytest.approx(-3.0)

    def test_flip_from_minus_one_fires_and_delta_is_exact(self):
        ws = self._ws()
        assert gradient_full(ws, np.array([-1.0]))[0] == pytest.approx(4.0)
        hd, trace = run(ws, np.array([-1.0]), rho=1.0, n_f=1)
        assert trace.flipped[0]
        assert hd[0] == 1.0
        assert trace.initial_likelihood == pytest.approx(-3.0)
        assert trace.likelihood[0] == pytest.approx(1.0)  # -3 + 4
        assert trace.final_gradient[0] == pytest.approx(0.0)

    def test_settled_bit_does_not_fire(self):
        ws = self._ws()
        hd, trace = run(ws, np.array([1.0]), rho=1.0, n_f=1)
        assert not trace.flipped[0]
        assert hd[0] == 1.0

    def test_boundary_equality_does_not_fire(self):
        # make g land exactly on rho * zeta: y = 0 gives g(-1) = 2 = zeta
        ws = precompute(np.array([[1.0 + 0j]]), np.array([0.0 + 0j]))
        assert gradient_full(ws, np.array([-1.0]))[0] == pytest.approx(2.0)
        assert ws.zeta_base[0] == pytest.approx(2.0)
        hd, trace = run(ws, np.array([-1.0]), rho=1.0, n_f=1)
        assert not trace.flipped[0]
        assert hd[0] == -1.0


class TestFlipMechanics:
    @pytest.mark.parametrize("seed", range(8))
    def test_delta_matches_two_full_evaluations(self, seed):
        # starting from the negated decision makes every run flip many bits
        ws, b0, _ = _random_setup(8, 8, 100 + seed, snr_db=6.0)
        start = -b0
        hd, trace = run(ws, start, rho=1.0, n_f=4 * ws.nt)
        assert trace.flips >= 4
        b = start.copy()
        before = likelihood(ws, b)
        assert trace.initial_likelihood == pytest.approx(before, rel=1e-9, abs=1e-9)
        for k in np.flatnonzero(trace.flipped):
            j = k % ws.nt
            b[j] = -b[j]
            after = likelihood(ws, b)
            previous = trace.likelihood[k - 1] if k else trace.initial_likelihood
            assert trace.likelihood[k] - previous == pytest.approx(
                after - before, rel=1e-9, abs=1e-9
            )
            before = after
        np.testing.assert_array_equal(hd, b)
        np.testing.assert_allclose(
            trace.final_gradient, gradient_full(ws, b), rtol=1e-9, atol=1e-9
        )


class TestRun:
    def test_visits_antennas_circularly(self):
        ws, b0, _ = _random_setup(4, 4, 20, snr_db=10.0)
        _, trace = run(ws, b0, rho=1.0, n_f=10)
        np.testing.assert_array_equal(trace.antenna, np.arange(10) % 4)
        assert trace.steps_run == 10

    def test_initial_likelihood_and_trace_agree_with_direct_recompute(self):
        ws, b0, b_true = _random_setup(6, 6, 21, snr_db=8.0)
        _, trace = run(ws, b0, rho=1.0, n_f=18, b_true=b_true)
        assert trace.initial_likelihood == pytest.approx(likelihood(ws, b0))

        # replay the trace with direct recomputation only
        b = b0.copy()
        for k in range(trace.steps_run):
            j = k % ws.nt
            g = gradient_full(ws, b)
            fired = g[j] > ws.zeta_base[j] if b[j] == -1.0 else g[j] < -ws.zeta_base[j]
            assert fired == bool(trace.flipped[k])
            if fired:
                b[j] = -b[j]
            assert trace.likelihood[k] == pytest.approx(
                likelihood(ws, b), rel=1e-9, abs=1e-9
            )
            assert trace.bit_errors[k] == int(np.sum(b != b_true))
        np.testing.assert_array_equal(trace.final_bits, b)
        np.testing.assert_allclose(
            trace.final_gradient, gradient_full(ws, b), rtol=1e-9, atol=1e-9
        )

    def test_monotone_no_selectivity(self):
        ws, b0, _ = _random_setup(16, 16, 22, snr_db=5.0)
        _, trace = run(ws, b0, rho=1.0, n_f=64)
        lam = np.concatenate([[trace.initial_likelihood], trace.likelihood])
        assert np.all(np.diff(lam) >= -1e-9)

    def test_final_state_after_convergence_is_fixed(self):
        ws, b0, _ = _random_setup(8, 8, 23, snr_db=10.0)
        hd_long, trace_long = run(ws, b0, rho=1.0, n_f=200)
        assert trace_long.converged
        # one more full pass changes nothing
        hd_again, _ = run(ws, hd_long.copy(), rho=1.0, n_f=8)
        np.testing.assert_array_equal(hd_again, hd_long)

    def test_does_not_mutate_input_decision(self):
        ws, b0, _ = _random_setup(6, 6, 25, snr_db=0.0)
        before = b0.copy()
        run(ws, b0, rho=1.0, n_f=30)
        np.testing.assert_array_equal(b0, before)

    def test_zero_steps(self):
        ws, b0, _ = _random_setup(4, 4, 26)
        hd, trace = run(ws, b0, rho=1.0, n_f=0)
        np.testing.assert_array_equal(hd, b0)
        assert trace.steps_run == 0
        assert trace.flips == 0
        assert not trace.converged
        assert len(trace.likelihood) == 0

    def test_selective_threshold_flips_more_eagerly(self):
        # rho < 1 lowers the bar, so the flip set at rho=0.8 contains the
        # rho=1 flip set on the first pass of any shared trajectory prefix;
        # just check the aggregate count is at least as large
        ws, b0, _ = _random_setup(16, 16, 28, snr_db=8.0)
        _, trace_sel = run(ws, b0, rho=0.8, n_f=16)
        _, trace_cls = run(ws, b0, rho=1.0, n_f=16)
        assert trace_sel.flips >= trace_cls.flips

    def test_rejects_bad_arguments(self):
        ws, b0, _ = _random_setup(4, 4, 29)
        with pytest.raises(ValueError):
            run(ws, b0, rho=1.0, n_f=-1)
        with pytest.raises(ValueError):
            run(ws, b0, rho=-0.5, n_f=4)
        with pytest.raises(ValueError):
            run(ws, np.ones(5), rho=1.0, n_f=4)

    def test_step_count_stays_in_int64(self):
        # the search adds a wait of up to n_f + 1 steps to a step below n_f:
        # 2**62 - 1 steps run (to the fixed point a short search reaches),
        # 2**62 once overflowed and are refused, naming n_f
        ws, b0, _ = _random_setup(4, 4, 31, snr_db=0.0)
        ws = SlasWorkspace(y_eff=ws.y_eff[None], h_real=ws.h_real[None])
        final, block = run(ws, b0[None], [1.0], 2**62 - 1)
        short, short_block = run(ws, b0[None], [1.0], 400)
        assert final.tobytes() == short.tobytes()
        assert block.flip_step.tolist() == short_block.flip_step.tolist() == [0, 1, 4]
        with pytest.raises(ValueError, match=r"n_f must be >= 0 and below 2\*\*62, got "
                                             + str(2**62)):
            run(ws, b0[None], [1.0], 2**62)

    @pytest.mark.parametrize("rho", [float("nan"), [1.0, float("nan")]])
    def test_rejects_nan_rho(self, rho):
        # NaN fails every flip test, so the search would silently never move
        ws, b0, _ = _random_setup(4, 4, 29)
        with pytest.raises(ValueError, match="rho must be >= 0"):
            run(ws, b0, rho=rho, n_f=4)


def test_trace_bytes_are_pinned():
    """Every field of run's trace, over rho, nt and n_f, hashes to the value
    the numpy-scalar kernel produced; the search loop may get faster, but no
    output byte may move.  The workspace is built from the complex Gram
    product, so that the digest pins run alone; test_precompute_bytes_are_pinned
    pins precompute's real product."""
    digest = hashlib.sha256()
    for nt in (1, 4, 32):
        rng = np.random.default_rng(7000 + nt)
        h = sample_channel(nt, nt, rng)
        b_true = sample_bpsk(nt, 1.0, rng)
        noise = rng.standard_normal(nt) + 1j * rng.standard_normal(nt)
        y = h @ b_true + np.sqrt(0.5) * noise
        ws = workspace(mat_mul(hermitian_transpose(h), h), mf(h, y))
        b0 = slice_bpsk(mf(h, y))
        for rho in (0.0, 0.5, 0.8, 1.0, 1.2):
            for n_f in (0, 3, 90):
                hd, tr = run(ws, b0, rho, n_f, b_true=b_true)
                for a in (tr.antenna, tr.likelihood, tr.flipped, tr.bit_errors,
                          tr.final_bits, tr.final_gradient, hd):
                    digest.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
                digest.update(repr((float(tr.initial_likelihood).hex(), tr.initial_bit_errors,
                                    tr.flips, tr.steps_run, tr.converged)).encode())
    assert digest.hexdigest() == (
        "8b1f37e2b3f9eb4a0367636e690a02db0ac984170f7d38a69cf97752f63c68e7"
    )


@pytest.mark.parametrize("nt", [1, 5, 32])
@pytest.mark.parametrize("with_truth", [True, False])
def test_block_rows_equal_blocks_of_one(nt, with_truth):
    """Row t * R + c of a block of T trials and R rho values is trial t
    searched alone at rho[c]: every trace field, as bytes, and the flop
    charge is the sum of the rows'."""
    rhos = [0.0, 0.8, 1.0, 1.2]
    setups = [_random_setup(nt, nt, 300 + 7 * nt + t, snr_db=6.0) for t in range(7)]
    stacked = SlasWorkspace(*(np.stack([getattr(s[0], f) for s in setups])
                              for f in ("y_eff", "h_real")))
    truth = np.stack([s[2] for s in setups]) if with_truth else None
    block_counter, row_counter = FlopCounter(), FlopCounter()
    hd, block = run(stacked, np.stack([s[1] for s in setups]), rhos,
                    3 * nt, b_true=truth, counter=block_counter)
    assert hd.shape == (len(setups) * len(rhos), nt)
    flips = 0
    for t, (ws, b0, b_true) in enumerate(setups):
        for c, rho in enumerate(rhos):
            alone_hd, alone = run(ws, b0, rho, 3 * nt, b_true=b_true if with_truth else None,
                                  counter=row_counter)
            row = block.row(t * len(rhos) + c)
            for field in ("antenna", "likelihood", "flipped", "bit_errors", "final_bits",
                          "final_gradient"):
                a, b = getattr(alone, field), getattr(row, field)
                if a is None:
                    assert b is None
                    continue
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field
            for field in ("initial_likelihood", "initial_bit_errors", "flips", "steps_run",
                          "converged"):
                a, b = getattr(alone, field), getattr(row, field)
                assert (type(a), a) == (type(b), b), field
            assert hd[t * len(rhos) + c].tobytes() == alone_hd.tobytes()
            flips += alone.flips
    assert block.flips == flips
    assert block.steps_run == len(setups) * len(rhos) * 3 * nt
    assert vars(block_counter) == vars(row_counter)


class TestRunFlopAccounting:
    def test_incremental_mode_charges_actual_work(self):
        nt = 8
        ws, b0, _ = _random_setup(nt, nt, 31, snr_db=10.0)
        c = FlopCounter()
        _, trace = run(ws, b0, rho=1.0, n_f=24, counter=c)
        assert c.total == 2 * nt * nt + nt + trace.flips * (2 * nt + 1)


def test_block_records_each_flip_by_what_it_changes():
    """Each record against direct evaluation: its gain is the likelihood after
    the flip less the likelihood before, a row at rho >= 1 never loses (while
    rho < 1 does), ``flip_wrong`` says whether the new bit is wrong, and a
    row's paths are running sums of its records."""
    nt, rhos = 8, [0.5, 0.8, 1.0, 1.2]
    setups = [_random_setup(nt, nt, 500 + t, snr_db=4.0) for t in range(6)]
    stacked = SlasWorkspace(*(np.stack([getattr(s[0], f) for s in setups])
                              for f in ("y_eff", "h_real")))
    truth = np.stack([s[2] for s in setups])
    start = -np.stack([s[1] for s in setups])  # the negated decisions flip often
    _, block = run(stacked, start, rhos, 4 * nt, b_true=truth)
    losses = 0
    for i in range(len(setups) * len(rhos)):
        t, rho = i // len(rhos), rhos[i % len(rhos)]
        ws, b = setups[t][0], start[t].copy()
        first, last = block.offsets[i], block.offsets[i + 1]
        for q in range(first, last):
            j = block.flip_step[q] % nt
            before = likelihood(ws, b)
            b[j] = -b[j]
            assert block.flip_gain[q] == pytest.approx(likelihood(ws, b) - before, rel=1e-9)
            assert block.flip_wrong[q] == (b[j] != truth[t, j])
            assert rho < 1.0 or block.flip_gain[q] >= 0.0
            losses += block.flip_gain[q] < 0.0
        np.testing.assert_array_equal(b, block.final_bits[i])
        trace = block.row(i)
        done = np.cumsum(trace.flipped)
        lams = np.cumsum(np.concatenate(([block.initial_likelihood[i]],
                                         block.flip_gain[first:last])))
        errs = np.cumsum(np.concatenate(([block.initial_bit_errors[i]],
                                         np.where(block.flip_wrong[first:last], 1, -1))))
        assert trace.likelihood.tobytes() == lams[done].tobytes()
        np.testing.assert_array_equal(trace.bit_errors, errs[done])
    assert block.flips > 50 and losses > 0
