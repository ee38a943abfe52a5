"""Monte-Carlo harness tests: seed discipline, worker-count invariance,
stopping behavior, and the sweep grid."""

import ctypes
import math
import platform
import re
import resource
import subprocess
import sys
import tracemalloc
import weakref
from concurrent.futures import Future
from contextlib import closing
from dataclasses import replace

import numpy as np
import pytest

from mimo_slas import montecarlo
from mimo_slas.channel import SnrSpec, assemble, sample_bpsk, sample_channel
from mimo_slas.detectors import DetectorKind, detect, mf, slice_bpsk
from mimo_slas.linalg import SingularMatrixError, hermitian_transpose, mat_mul
from mimo_slas.montecarlo import (
    MAX_GRID_POINTS,
    BerPoint,
    ExperimentConfig,
    PointSpec,
    check_snr_keys,
    draw,
    run_point,
    run_sweep,
    run_trace,
    trial,
    trial_rng,
)
from mimo_slas.slas import precompute, run, workspace


def _point(**overrides) -> PointSpec:
    base = dict(
        nt=4,
        nr=4,
        snr_db=4.0,
        detector=DetectorKind.MF,
        las_enabled=True,
        rho=1.0,
        n_f=12,
        max_trials=600,
        min_bit_errors=10**9,  # run every trial unless a test lowers it
        master_seed=0,
    )
    base.update(overrides)
    return PointSpec(**base)


def _forbid_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)


class TestTrialRng:
    def test_same_key_same_stream(self):
        a = trial_rng(0, 4, 4, 10.0, 7).standard_normal(5)
        b = trial_rng(0, 4, 4, 10.0, 7).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(master_seed=1),
            dict(trial_index=8),
            dict(nt=5),
            dict(nr=5),
            dict(snr_db=10.001),
            dict(snr_db=-10.0),
        ],
    )
    def test_any_key_field_changes_stream(self, kwargs):
        base = dict(master_seed=0, nt=4, nr=4, snr_db=10.0, trial_index=7)
        draw_base = trial_rng(**base).standard_normal(5)
        base.update(kwargs)
        draw_other = trial_rng(**base).standard_normal(5)
        assert not np.array_equal(draw_base, draw_other)

    def test_noiseless_key_is_valid(self):
        trial_rng(0, 4, 4, np.inf, 0).standard_normal(1)

    def test_negative_infinity_rejected(self):
        with pytest.raises(ValueError):
            trial_rng(0, 4, 4, -np.inf, 0)

    @pytest.mark.parametrize("snr_db", [1e306, -1e306, 1.7976931348623157e308])
    def test_snr_without_a_milli_db_key_is_rejected(self, snr_db):
        message = f"snr_db = {snr_db!r} is too large for a milli-dB seed key"
        with pytest.raises(ValueError, match=re.escape(message)):
            trial_rng(0, 4, 4, snr_db, 0)
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(nt=4, nr=4, snr_db=snr_db)
        trial_rng(0, 4, 4, 549755813.887, 0).standard_normal(1)  # its key still exists

    def test_finite_snr_keys_stay_below_the_noiseless_key(self):
        # 549755813.888 dB is 2**39 milli-dB, whose key was inf's, 1 << 40
        for snr_db in (549755813.888, -549755813.888):
            message = f"snr_db = {snr_db!r} is too large for a milli-dB seed key"
            with pytest.raises(ValueError, match=re.escape(message)):
                trial_rng(0, 4, 4, snr_db, 0)
        with pytest.raises(ValueError, match=re.escape("snr_db = 549755813.888 is too large")):
            ExperimentConfig(nt=4, nr=4, snr_db=[549755813.888, math.inf])
        assert montecarlo._encode_snr(549755813.887) == (1 << 40) - 2
        assert montecarlo._encode_snr(math.inf) == 1 << 40

    @pytest.mark.parametrize("snr_db", [-3083.0, -4000.0, -549755813.887])
    def test_snr_without_a_noise_power_is_rejected(self, snr_db):
        # 10 ** (-snr_db / 10) overflows: SnrSpec.n0 once raised OverflowError
        message = f"snr_db = {snr_db!r} has no finite noise power"
        with pytest.raises(ValueError, match=re.escape(message)):
            SnrSpec(snr_db).n0
        with pytest.raises(ValueError, match=re.escape(message)):
            trial_rng(0, 4, 4, snr_db, 0)
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(nt=4, nr=4, snr_db=snr_db)
        assert math.isfinite(SnrSpec(-3082.0).n0)
        trial_rng(0, 4, 4, -3082.0, 0).standard_normal(1)

    def test_nan_snr_is_not_a_number(self):
        # a library call reaches the key with NaN; it was reported as too large
        message = "snr_db = nan is not a number"
        with pytest.raises(ValueError, match=message):
            trial_rng(0, 4, 4, math.nan, 0)
        with pytest.raises(ValueError, match=message):
            draw(0, 4, 4, math.nan, 0)
        with pytest.raises(ValueError, match=message):
            trial(_point(snr_db=math.nan), 0)

    def test_snr_values_sharing_a_key_are_rejected(self):
        with pytest.raises(ValueError, match="share one seed key"):
            check_snr_keys([10.0, 10.0004])
        with pytest.raises(ValueError, match="share one seed key"):
            ExperimentConfig(nt=4, nr=4, snr_db=[0.0, 10.0, 10.0004])
        check_snr_keys([10.0, 10.0, 10.001, -10.0])  # repeats and distinct keys pass


class TestDraw:
    def test_draw_is_the_trial_input(self):
        p = _point(las_enabled=False)
        for idx in range(5):
            inst = draw(p.master_seed, p.nt, p.nr, p.snr_db, idx)
            again = draw(p.master_seed, p.nt, p.nr, p.snr_db, idx)
            np.testing.assert_array_equal(inst.y, again.y)
            bits = slice_bpsk(mf(inst.h, inst.y))
            assert trial(p, idx)[0] == int(np.sum(bits != inst.b_true))

    @pytest.mark.parametrize("seed,index", [(-1, 0), (0, -1)])
    def test_negative_seed_or_index_is_rejected_as_by_trial_rng(self, seed, index):
        # the block draw must fail as the reference does, not loop on the key
        with pytest.raises(ValueError) as reference:
            trial_rng(seed, 2, 2, 10.0, index)
        with pytest.raises(ValueError, match=re.escape(str(reference.value))):
            draw(seed, 2, 2, 10.0, index)
        with pytest.raises(ValueError, match=re.escape(str(reference.value))):
            next(montecarlo._draws(seed, 2, 2, 10.0, index, index + 1))


def _reference_draw(master_seed, nt, nr, snr_db, index):
    """A trial's inputs as the seed contract defines them."""
    rng = trial_rng(master_seed, nt, nr, snr_db, index)
    snr = SnrSpec(snr_db)
    return assemble(sample_channel(nt, nr, rng), sample_bpsk(nt, snr.es, rng), snr, rng)


class TestBlockDraw:
    """The block draw reproduces the seed contract bit for bit, and the stacked
    products that follow it equal the per-trial ones."""

    # (master_seed, nt, nr, snr_db): a master seed of two words, the inf key
    # (1 << 40, two words), negative milli-dB keys and nr != nt
    KEYS = [(0, 1, 1, 10.0), (0, 4, 6, -5.0), (2**32 + 7, 32, 32, 10.0),
            (3, 128, 128, math.inf), (2**40, 4, 4, math.inf), (9, 3, 2, -12.345)]

    @pytest.mark.parametrize("key", KEYS)
    @pytest.mark.parametrize("start", [0, 2**32 - 3, 2**64 - 2])
    def test_seeding_equals_seed_sequence(self, key, start):
        master_seed, nt, nr, snr_db = key
        seed_key = (master_seed, nt, nr, montecarlo._encode_snr(snr_db))
        states = montecarlo._trial_states(seed_key, start, start + 6)
        for i, (state, inc) in zip(range(start, start + 6), states):
            expected = trial_rng(master_seed, nt, nr, snr_db, i).bit_generator.state
            got = np.random.PCG64(0)
            got.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
            assert got.state == expected, (key, i)

    @pytest.mark.parametrize("key", KEYS)
    def test_block_draw_equals_the_reference_draw(self, key, monkeypatch):
        master_seed, nt, nr, snr_db = key
        # sub-blocks of three trials, so that a block has several
        monkeypatch.setattr(montecarlo, "_DRAW_BYTES", 3 * 16 * nr * nt)
        sizes = []
        for first, *arrays in montecarlo._draws(master_seed, nt, nr, snr_db, 5, 13):
            sizes.append(len(arrays[0]))
            for k in range(len(arrays[0])):
                ref = _reference_draw(master_seed, nt, nr, snr_db, first + k)
                for got, want in zip(arrays, (ref.h, ref.b_true, ref.y)):
                    assert got[k].tobytes() == want.tobytes(), (key, first + k)
        assert sizes == [3, 3, 2]
        inst = draw(master_seed, nt, nr, snr_db, 11)
        ref = _reference_draw(master_seed, nt, nr, snr_db, 11)
        assert (inst.n0, inst.es) == (ref.n0, ref.es)
        for got, want in [(inst.h, ref.h), (inst.b_true, ref.b_true), (inst.y, ref.y)]:
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("las", [False, True])
    def test_trial_index_of_two_words(self, las):
        p = _point(master_seed=2**33, las_enabled=las, rho=0.9)
        for i in (2**32 - 1, 2**32, 2**32 + 5):
            ref = _reference_draw(p.master_seed, p.nt, p.nr, p.snr_db, i)
            bits = slice_bpsk(mf(ref.h, ref.y))
            if las:
                bits, _ = run(precompute(ref.h, ref.y), bits, p.rho, p.n_f)
            assert trial(p, i)[0] == int(np.count_nonzero(bits != ref.b_true)), i

    @pytest.mark.parametrize("nt", [1, 4, 32, 128])
    def test_stacked_products_equal_per_trial_products(self, nt):
        # equal only because numpy's matmul calls BLAS once per slice of a stack
        _, h, b_true, y = next(montecarlo._draws(1, nt, nt, 0.0, 0, 5))
        snr = SnrSpec(0.0)
        soft = detect(DetectorKind.MF, h, y, snr)
        gram = mat_mul(hermitian_transpose(h), h)
        ws = precompute(h, y)
        b0 = slice_bpsk(soft)
        final, block = run(ws, b0, [1.0], 0)
        for k in range(len(h)):
            assert soft[k].tobytes() == detect(DetectorKind.MF, h[k], y[k], snr).tobytes()
            assert gram[k].tobytes() == mat_mul(hermitian_transpose(h[k]), h[k]).tobytes()
            one = precompute(h[k], y[k])
            for got, want in [(ws.y_eff[k], one.y_eff), (ws.h_real[k], one.h_real),
                              (ws.zeta_base[k], one.zeta_base)]:
                assert got.tobytes() == want.tobytes()
            _, trace = run(one, b0[k], 1.0, 0)
            assert block.final_gradient[k].tobytes() == trace.final_gradient.tobytes()
            assert block.initial_likelihood[k] == trace.initial_likelihood
            # the gradient start against its definition, computed per trial
            g = one.y_eff - one.h_real @ b0[k]
            assert trace.final_gradient.tobytes() == g.tobytes()
            assert trace.initial_likelihood == 0.5 * float(b0[k] @ one.y_eff + b0[k] @ g)

    @pytest.mark.parametrize("kind", [DetectorKind.MF, DetectorKind.ZF, DetectorKind.MMSE])
    @pytest.mark.parametrize("nt", [32, 128])
    def test_shared_gram_and_matched_filter_equal_per_trial_calls(self, kind, nt, monkeypatch):
        # ZF and MMSE detection and the workspace read one Gram matrix and one
        # H^H y per trial, formed as stacks: the same bytes as per-trial calls.
        # MF's workspace is stacked precompute, its real product included
        p = _point(nt=nt, nr=nt, snr_db=-10.0 if kind is DetectorKind.MMSE else 10.0,
                   detector=kind, n_f=nt)
        stop = 20 if nt == 32 else 2  # two sub-blocks of 16 and 4, or two of one
        searched = []
        real_run = montecarlo.run

        def spy(ws, bits, *args, **kwargs):
            searched.append((ws, bits))
            return real_run(ws, bits, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "run", spy)
        montecarlo._block((p,), 0, stop)
        [(ws, bits)] = searched
        snr = SnrSpec(p.snr_db)
        inputs = [arrays for _, *arrays in
                  montecarlo._draws(p.master_seed, nt, nt, p.snr_db, 0, stop)]
        h = np.concatenate([arrays[0] for arrays in inputs])
        y = np.concatenate([arrays[2] for arrays in inputs])
        assert len(inputs) == 2 and len(h) == len(bits) == stop
        for k in range(stop):
            if kind is DetectorKind.MF:
                one = precompute(h[k], y[k])
            else:
                one = workspace(mat_mul(hermitian_transpose(h[k]), h[k]), mf(h[k], y[k]))
            for got, want in [(ws.y_eff[k], one.y_eff), (ws.h_real[k], one.h_real),
                              (ws.zeta_base[k], one.zeta_base)]:
                assert got.tobytes() == want.tobytes(), k
            assert bits[k].tobytes() == slice_bpsk(detect(kind, h[k], y[k], snr)).tobytes(), k

    @staticmethod
    def _lose_a_column(monkeypatch, bad):
        """Make trial ``bad``'s channel lose its first column, in every draw."""
        real_draws = montecarlo._draws

        def draws(*args):
            for first, h, b_true, y in real_draws(*args):
                if first <= bad < first + len(h):
                    h = h.copy()
                    h[bad - first, :, 0] = 0.0
                yield first, h, b_true, y

        monkeypatch.setattr(montecarlo, "_draws", draws)
        return draws

    def test_singular_trial_among_regular_ones(self, monkeypatch):
        # one trial of a 2x2 ZF sub-block loses a channel column: it alone is
        # aborted, in every cell, and the others keep their per-trial outcome
        bad = 5
        draws = self._lose_a_column(monkeypatch, bad)
        cells = tuple(_point(nt=2, nr=2, detector=DetectorKind.ZF, rho=rho, snr_db=4.0)
                      for rho in (0.8, 1.0))
        p = cells[0]
        errors, singular, _, searched = montecarlo._block(cells, 0, 12)
        [(_, h, b_true, y)] = list(draws(p.master_seed, 2, 2, p.snr_db, 0, 12))
        snr = SnrSpec(p.snr_db)
        with pytest.raises(SingularMatrixError):
            detect(DetectorKind.ZF, h[bad], y[bad], snr)
        assert list(singular) == [bad] and isinstance(singular[bad], SingularMatrixError)
        assert searched.tolist() == [0, 1, 2, 3, 4, -1, 5, 6, 7, 8, 9, 10]
        for c, cell in enumerate(cells):
            assert errors[c, bad] == -1
            for k in set(range(12)) - {bad}:
                b0 = slice_bpsk(detect(DetectorKind.ZF, h[k], y[k], snr))
                final, _ = run(precompute(h[k], y[k]), b0, cell.rho, cell.n_f)
                expected = int(np.count_nonzero(final != b_true[k]))
                assert errors[c, k] == expected, (cell.rho, k)
        cfg = ExperimentConfig(nt=2, nr=2, snr_db=4.0, detector="zf", rho=[0.8, 1.0],
                               n_f=12, max_trials=12, min_bit_errors=10**9)
        for result in run_sweep(cfg):
            assert result.aborted_trials == 1
            assert result.trials_run == 12

    def test_a_chunk_gives_every_trial_its_standalone_outcome(self, monkeypatch):
        # a ZF chunk of three rho cells in blocks of five trials, the first
        # block holding a singular trial: each (cell, trial) read from the
        # chunk is the trial run alone, so no block row is read for another
        # trial past the aborted one
        bad = 2
        self._lose_a_column(monkeypatch, bad)
        cells = tuple(_point(nt=2, nr=2, detector=DetectorKind.ZF, rho=rho, snr_db=4.0)
                      for rho in (0.5, 1.0, 1.5))
        monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", 5 * montecarlo._trial_bytes(2, 3))
        blocks = []
        real_block = montecarlo._block

        def spy(cells, start, stop):
            if len(cells) == 3:
                blocks.append((start, stop))
            return real_block(cells, start, stop)

        monkeypatch.setattr(montecarlo, "_block", spy)

        def outcome(p, i, record_trace, **chunk):
            try:
                errors, tr = trial(p, i, record_trace, **chunk)
            except SingularMatrixError as exc:
                return "singular", str(exc)
            if tr is None:
                return errors, None
            return errors, (tr.initial_likelihood, tr.likelihood.tobytes(),
                            tr.bit_errors.tobytes())

        for record_trace in (False, True):
            blocks.clear()
            chunk = montecarlo._Chunk(cells, 0, 12)
            for i in range(12):
                for p in cells:
                    alone = outcome(p, i, record_trace)
                    assert outcome(p, i, record_trace, chunk=chunk) == alone, (p.rho, i)
                    assert (alone[0] == "singular") == (i == bad)
            assert blocks == [(0, 5), (5, 10), (10, 12)]


class TestTrial:
    def test_pure_in_index(self):
        p = _point()
        assert trial(p, 3)[0] == trial(p, 3)[0]

    def test_trace_only_when_requested(self):
        p = _point()
        errors, no_trace = trial(p, 0)
        errors2, tr = trial(p, 0, record_trace=True)
        assert no_trace is None
        assert errors == errors2
        assert tr.steps_run == p.n_f
        assert tr.bit_errors is not None
        assert tr.bit_errors[-1] == errors

    def test_search_cells_share_channel_with_linear_cells(self):
        """The per-trial RNG key excludes the detector chain, so the search
        trial's initializer statistics equal the plain detector trial."""
        p_las = _point()
        p_lin = _point(las_enabled=False)
        for idx in range(5):
            _, tr = trial(p_las, idx, record_trace=True)
            lin_errors, _ = trial(p_lin, idx)
            assert tr.initial_bit_errors == lin_errors

    def test_likelihood_dip_inside_a_run_is_caught(self, monkeypatch):
        # a kernel whose likelihood drops at one flip and recovers by the last
        # keeps final >= initial; trial 1 of this cell flips three times
        real_run = montecarlo.run

        def dipping_run(*args, **kwargs):
            decision, block = real_run(*args, **kwargs)
            gain = block.flip_gain.copy()
            gain[0] = -100.0
            return decision, replace(block, flip_gain=gain)

        monkeypatch.setattr(montecarlo, "run", dipping_run)
        with pytest.raises(AssertionError,
                           match=r"likelihood decreased at rho=1.0 \(seed=0, trial=1, step \d+\)"):
            trial(_point(), 1)

    def test_zero_steps_equals_search_off(self):
        p_zero = _point(n_f=0)
        p_off = _point(las_enabled=False)
        for idx in range(5):
            assert trial(p_zero, idx)[0] == trial(p_off, idx)[0]


class TestRunPoint:
    def test_runs_all_trials_when_floor_unreachable(self):
        p = _point(max_trials=100)
        result = run_point(p)
        assert result.trials_run == 100
        assert result.bits_sent == 400
        assert result.flagged  # floor unreached is flagged
        assert result.ber == result.bit_errors / result.bits_sent

    def test_early_stop_at_error_floor(self):
        p = _point(snr_db=0.0, min_bit_errors=20, max_trials=600)
        result = run_point(p)
        assert result.bit_errors >= 20
        assert result.trials_run < 600
        assert not result.flagged

    def test_matches_sum_of_trials(self):
        p = _point(max_trials=50)
        result = run_point(p)
        expected = sum(trial(p, i)[0] for i in range(50))
        assert result.bit_errors == expected

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_worker_count_never_changes_results(self, n_jobs):
        p = _point(snr_db=2.0, max_trials=1200, min_bit_errors=150)
        sequential = run_point(p, n_jobs=1)
        parallel = run_point(p, n_jobs=n_jobs)
        assert sequential == parallel

    def test_a_single_chunk_starts_no_pool(self, monkeypatch):
        p = _point(max_trials=300)
        _forbid_pool(monkeypatch)
        assert run_point(p, n_jobs=2) == run_point(p, n_jobs=1)

    def test_singular_detector_trials_are_aborted_and_flagged(self):
        # nt > nr makes the Gram matrix singular on every draw
        p = _point(nt=4, nr=2, detector=DetectorKind.ZF, las_enabled=False,
                   max_trials=20)
        result = run_point(p)
        assert result.aborted_trials == 20
        assert result.bits_sent == 0
        assert np.isnan(result.ber)
        assert result.flagged


class TestExperimentConfig:
    def test_scalars_become_single_element_axes(self):
        cfg = ExperimentConfig(nt=4, nr=4, snr_db=10.0)
        assert cfg.nt == (4,)
        assert cfg.snr_db == (10.0,)
        assert cfg.grid_size() == 1

    def test_antenna_lists_are_zipped_not_crossed(self):
        cfg = ExperimentConfig(nt=[4, 8], nr=[6, 12], snr_db=[0.0, 10.0])
        points = cfg.points()
        assert cfg.grid_size() == len(points) == 4
        assert {(p.nt, p.nr) for p in points} == {(4, 6), (8, 12)}

    def test_mismatched_antenna_lists_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(nt=[4, 8], nr=[6], snr_db=0.0)

    def test_rho_axis_collapses_when_search_off(self):
        cfg = ExperimentConfig(
            nt=4, nr=4, snr_db=0.0, rho=[0.8, 0.9, 1.0], las_enabled=[True, False]
        )
        assert cfg.grid_size() == 4
        off = [p for p in cfg.points() if not p.las_enabled]
        assert len(off) == 1
        assert off[0].rho == 0.8

    def test_grid_cap_enforced(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                nt=4, nr=4, snr_db=list(np.linspace(0, 30, MAX_GRID_POINTS + 1))
            )

    def test_repeated_values_are_found_in_linear_time(self):
        # each value was once compared with every earlier one, n^2 / 2 calls
        calls = 0

        class Value:
            def __init__(self, v):
                self.v = v

            def __hash__(self):
                return hash(self.v)

            def __eq__(self, other):
                nonlocal calls
                calls += 1
                return self.v == other.v

        axis = tuple(Value(v) for v in range(2000))
        montecarlo.check_distinct("axis", axis)
        assert calls <= len(axis)
        with pytest.raises(ValueError, match="more than once"):
            montecarlo.check_distinct("axis", axis + (Value(7),))

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_mapping({"nt": 4, "nr": 4, "snr_db": 0.0, "snr": 5})

    def test_from_mapping_round_trip(self):
        cfg = ExperimentConfig.from_mapping(
            {"nt": [4], "nr": [4], "snr_db": [0.0, 5.0], "detector": ["mf", "zf"],
             "max_trials": 10, "min_bit_errors": 1}
        )
        assert cfg.detector == (DetectorKind.MF, DetectorKind.ZF)
        assert cfg.grid_size() == 4

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ExperimentConfig(nt=0, nr=4, snr_db=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(nt=4, nr=4, snr_db=0.0, n_f=-1)
        with pytest.raises(ValueError):
            ExperimentConfig(nt=4, nr=4, snr_db=0.0, max_trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig(nt=4, nr=4, snr_db=0.0, master_seed=-1)


    @pytest.mark.parametrize("field,value", [
        ("nt", 4.5), ("nr", [4, 4.5]), ("n_f", 2.5), ("max_trials", 20.5),
        ("min_bit_errors", 1.5), ("master_seed", 0.5), ("nt", "4"), ("n_f", True),
        ("max_trials", None),
    ])
    def test_counts_must_be_integers(self, field, value):
        kwargs = dict(nt=[4, 4], nr=[4, 4], snr_db=0.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got ")):
            ExperimentConfig(**kwargs)

    def test_integral_values_become_ints(self):
        cfg = ExperimentConfig(nt=4.0, nr=[np.int64(4)], snr_db=0.0, n_f=np.float64(8.0),
                               max_trials=20.0, min_bit_errors=np.int32(3), master_seed=1.0)
        values = (cfg.nt[0], cfg.nr[0], cfg.n_f, cfg.max_trials, cfg.min_bit_errors,
                  cfg.master_seed)
        assert values == (4, 4, 8, 20, 3, 1)
        assert all(type(v) is int for v in values)

    # a bool or a string once passed through float(): snr_db=True ran at 1 dB
    # and rho='0.9' or False ran as 0.9 and 0; NaN ran an MF row labelled rho=nan
    @pytest.mark.parametrize("field,value", [
        ("snr_db", True), ("snr_db", ["10"]), ("snr_db", math.nan), ("snr_db", [None]),
        ("rho", ["0.9"]), ("rho", [0.9, False]), ("rho", np.bool_(True)), ("rho", math.nan),
    ])
    def test_float_axes_must_be_real_numbers(self, field, value):
        kwargs = dict(nt=4, nr=4, snr_db=10.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=re.escape(f"{field} entries must be real numbers")):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.inf, -0.1, [1.0, -math.inf]])
    def test_rho_must_be_finite_and_non_negative(self, value):
        with pytest.raises(ValueError, match="rho entries must be finite and >= 0"):
            ExperimentConfig(nt=4, nr=4, snr_db=10.0, rho=value)

    def test_float_axes_accept_numbers_and_the_noiseless_point(self):
        cfg = ExperimentConfig(nt=4, nr=4, snr_db=[10, np.float32(0.5), math.inf],
                               rho=[0, np.float64(0.9), 1])
        assert cfg.snr_db == (10.0, 0.5, math.inf)
        assert cfg.rho == (0.0, 0.9, 1.0)
        assert all(type(v) is float for v in cfg.snr_db + cfg.rho)

    def test_negative_zero_is_zero(self):
        # -0.0 == 0.0, so both spellings are one cell with one seed key; the
        # config keeps the one spelling its rows print
        cfg = ExperimentConfig(nt=4, nr=4, snr_db=[-0.0, np.float64(-0.0) + 5],
                               rho=[np.float32(-0.0), 1])
        assert [math.copysign(1.0, v) for v in cfg.snr_db + cfg.rho] == [1.0] * 4
        assert repr(cfg) == repr(ExperimentConfig(nt=4, nr=4, snr_db=[0, 5], rho=[0, 1]))

    @pytest.mark.parametrize("field", ["nt", "nr", "snr_db", "rho", "detector", "las_enabled"])
    def test_empty_axes_are_rejected(self, field):
        kwargs = dict(nt=4, nr=4, snr_db=10.0)
        kwargs[field] = []
        with pytest.raises(ValueError, match=f"{field} must have at least one value"):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("field,values,shown", [
        ("snr_db", [5, 0, 5.0], "5.0"), ("rho", [1, 0.9, 1.0], "1.0"),
        ("detector", ["mf", "zf", DetectorKind.MF], "'mf'"),
        ("las_enabled", [True, False, True], "True"),
    ])
    def test_repeated_axis_values_are_rejected(self, field, values, shown):
        kwargs = dict(nt=4, nr=4, snr_db=10.0)
        kwargs[field] = values
        with pytest.raises(ValueError, match=re.escape(f"{field} has the value {shown} more")):
            ExperimentConfig(**kwargs)

    def test_antenna_pairs_not_counts_must_differ(self):
        # nt and nr may each repeat a count, as long as no (nt, nr) pair repeats
        assert ExperimentConfig(nt=[4, 8], nr=[1, 1], snr_db=5.0).grid_size() == 2
        assert ExperimentConfig(nt=[4, 4], nr=[4, 6], snr_db=5.0).grid_size() == 2
        with pytest.raises(ValueError, match=re.escape("(nt, nr) has the value (4, 6) more")):
            ExperimentConfig(nt=[4, 8, 4], nr=[6, 6, 6], snr_db=5.0)

    @pytest.mark.parametrize("value,shown", [("MF", "'MF'"), (["mf", 3], "3"), ([None], "None")])
    def test_detector_entries_must_be_detector_names(self, value, shown):
        message = f"detector entries must be mf, zf or mmse, got {shown}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig(nt=4, nr=4, snr_db=0.0, detector=value)

    @pytest.mark.parametrize("value", ["off", ["off"], [True, "on"], 1, [0], None])
    def test_las_entries_must_be_bools(self, value):
        with pytest.raises(ValueError, match="las_enabled entries must be true or false"):
            ExperimentConfig(nt=4, nr=4, snr_db=0.0, las_enabled=value)
        assert ExperimentConfig(nt=4, nr=4, snr_db=0.0,
                                las_enabled=[np.bool_(False), True]).las_enabled == (False, True)


class TestRunSweep:
    def test_results_follow_grid_order(self):
        cfg = ExperimentConfig(
            nt=4, nr=4, snr_db=[0.0, 4.0], detector=["mf", "zf"],
            max_trials=30, min_bit_errors=10**9,
        )
        results = run_sweep(cfg)
        assert [r.point for r in results] == cfg.points()
        assert all(isinstance(r, BerPoint) for r in results)

    def test_sweep_parallel_equals_sequential(self):
        cfg = ExperimentConfig(
            nt=4, nr=4, snr_db=[0.0, 4.0], max_trials=200, min_bit_errors=10**9
        )
        assert run_sweep(cfg, n_jobs=1) == run_sweep(cfg, n_jobs=2)


class TestRhoGroups:
    """Cells that differ only in rho run as one group over shared trials."""

    # per 1000 trials: ~1040 errors at rho 0, 20 at 0.5, 24 at 1, 8 at 1.5 and
    # 118 at 100, so the cells stop in different chunks or not at all
    GRID = dict(nt=4, nr=6, snr_db=10.0, rho=[0.0, 0.5, 1.0, 1.5, 100.0], n_f=8,
                max_trials=1500, min_bit_errors=25, master_seed=0)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_fused_sweep_equals_per_cell_runs(self, n_jobs):
        cfg = ExperimentConfig(**self.GRID)
        fused = run_sweep(cfg, n_jobs=n_jobs)
        assert fused == [run_point(p) for p in cfg.points()]
        chunk = montecarlo._CHUNK
        assert [(r.trials_run - 1) // chunk for r in fused] == [0, 2, 1, 2, 0]
        assert [r.flagged for r in fused] == [False, False, False, True, False]
        assert fused[3].trials_run == cfg.max_trials

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_groups_stopping_in_different_chunks_equal_per_cell_runs(self, n_jobs):
        # three SNR groups, each stopping before its trial cap: a group's
        # chunks are read while the previous group's are still in flight
        cfg = ExperimentConfig(nt=4, nr=6, snr_db=[10.0, 8.0, 12.0],
                               rho=[0.0, 0.5, 1.0, 100.0], n_f=8, max_trials=2500,
                               min_bit_errors=25, master_seed=0)
        results = run_sweep(cfg, n_jobs=n_jobs)
        assert results == [run_point(p) for p in cfg.points()]
        chunk = montecarlo._CHUNK
        assert ([(r.trials_run - 1) // chunk for r in results]
                == [0, 2, 1, 0, 0, 3, 0, 0, 0, 2, 1, 0])
        assert not any(r.flagged for r in results)

    def test_each_cell_stops_on_the_trial_that_reaches_its_floor(self):
        cfg = ExperimentConfig(**self.GRID)
        for result in run_sweep(cfg):
            p = result.point
            errors = np.cumsum([trial(p, i)[0] for i in range(p.max_trials)])
            reached = np.flatnonzero(errors >= p.min_bit_errors)
            stop = int(reached[0]) + 1 if reached.size else p.max_trials
            assert result.trials_run == stop
            assert result.bit_errors == errors[stop - 1]

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_all_aborted_group(self, n_jobs):
        # ZF with nt > nr: every Gram matrix is singular, every trial aborts
        cfg = ExperimentConfig(nt=4, nr=2, snr_db=10.0, detector="zf", rho=[0.9, 1.0],
                               n_f=8, max_trials=300, min_bit_errors=5)
        results = run_sweep(cfg, n_jobs=n_jobs)
        assert results == [run_point(p) for p in cfg.points()]
        for r in results:
            assert (r.trials_run, r.aborted_trials, r.bit_errors) == (300, 300, 0)
            assert r.flagged and np.isnan(r.ber)

    def test_trial_never_reads_stale_inputs(self):
        def outcome(point, index):
            errors, trace = trial(point, index, record_trace=True)
            if trace is None:
                return errors, None
            return errors, trace.initial_likelihood, trace.likelihood.tobytes()

        p = (_point(snr_db=4.0, rho=0.9), 3)
        others = [
            (p[0], 4),
            (replace(p[0], rho=1.0), 3),
            (replace(p[0], snr_db=8.0), 3),
            (replace(p[0], detector=DetectorKind.MMSE), 3),
            (replace(p[0], nr=6), 3),
            (replace(p[0], master_seed=1), 3),
            (replace(p[0], las_enabled=False), 3),
        ]
        for before, after in [(p, o) for o in others] + [(o, p) for o in others]:
            expected = outcome(*after)
            outcome(*before)
            assert outcome(*after) == expected, (before, after)

    def test_no_chunk_is_read_after_a_capped_cell_and_a_floored_one_stop(self, monkeypatch):
        # two groups (their floors differ): the first runs to its trial cap,
        # the second reaches its floor in its first chunk; at two jobs that
        # group's second chunk is in flight by then, and it is not read
        capped = _point(las_enabled=False, max_trials=2 * montecarlo._CHUNK)
        floored = replace(capped, snr_db=0.0, min_bit_errors=5)
        real_in_order = montecarlo._in_order

        def last_read(n_jobs):
            read = []

            def spy(run, chunks, jobs):
                with closing(real_in_order(run, chunks, jobs)) as results:
                    for (cells, start, stop), counts in results:
                        read.append((tuple(cells), start, stop))
                        yield (cells, start, stop), counts

            monkeypatch.setattr(montecarlo, "_in_order", spy)
            results = montecarlo._run_cells([capped, floored], n_jobs)
            assert results[0].trials_run == capped.max_trials
            assert results[1].trials_run < montecarlo._CHUNK
            return results, read[-1]

        sequential, last = last_read(1)
        assert last == ((floored,), 0, montecarlo._CHUNK)
        assert last_read(2) == (sequential, last)

    def test_singular_trials_are_drawn_once_per_group(self, monkeypatch):
        # ZF with nt > nr: every trial aborts, and each is drawn once, not once per cell
        draws = []
        real_draws = montecarlo._draws

        def counted(*args):
            draws.extend(range(*args[-2:]))  # the block draw's [start, stop)
            return real_draws(*args)

        monkeypatch.setattr(montecarlo, "_draws", counted)
        rhos = [0.8, 0.85, 0.9, 0.95, 1.0, 1.05, 1.1, 1.15, 1.2]
        cfg = ExperimentConfig(nt=4, nr=2, snr_db=10, detector="zf", rho=rhos, n_f=8,
                               max_trials=600)
        results = run_sweep(cfg, n_jobs=1)
        assert [r.aborted_trials for r in results] == [600] * 9
        assert sorted(draws) == list(range(600))

    def test_each_block_is_computed_once_and_chunks_keep_none(self, monkeypatch):
        # a block is dropped before the next is computed, and a chunk keeps
        # none once it returns
        p = _point(max_trials=20)
        monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", 7 * montecarlo._trial_bytes(p.nt, 1))
        computed, held = [], []
        real_block = montecarlo._block

        def spy(cells, start, stop):
            assert all(ref() is None for ref in held), "two blocks are held"
            computed.append((start, stop))
            outcomes = real_block(cells, start, stop)
            held.append(weakref.ref(outcomes[2]))
            return outcomes

        monkeypatch.setattr(montecarlo, "_block", spy)
        run_point(p)
        assert computed == [(0, 7), (7, 14), (14, 20)]
        assert all(ref() is None for ref in held)
        computed.clear()
        run_trace(replace(p, max_trials=4))
        assert computed == [(0, 4)]
        assert all(ref() is None for ref in held)


def _scan_loop(counts, state):
    """The stop scan as a loop over trials: the reference of ``_scan``."""
    for value in counts:
        state["trials"] += 1
        if value < 0:
            state["aborted"] += 1
        else:
            state["errors"] += int(value)
        if state["errors"] >= state["floor"]:
            return True
    return False


class _InlineExecutor:
    """A process pool's stand-in that runs each chunk as it is submitted, in
    process, and counts the chunks submitted and not yet read."""

    def __init__(self, max_workers):
        self.max_workers, self.unread, self.most_unread = max_workers, 0, 0

    def submit(self, fn, *args):
        future = _ReadCounted(self)
        future.set_result(fn(*args))
        self.unread += 1
        self.most_unread = max(self.most_unread, self.unread)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _ReadCounted(Future):
    def __init__(self, executor):
        super().__init__()
        self.executor = executor

    def result(self, timeout=None):
        self.executor.unread -= 1
        return super().result(timeout)


class TestScheduler:
    """How a sweep's chunks are cut, queued and scanned; no output depends on it."""

    # three groups, each with cells that stop after 23 to 1,607 trials
    GROUPS = dict(nt=4, nr=6, snr_db=[10.0, 8.0, 12.0], rho=[0.0, 0.5, 1.0, 100.0], n_f=8,
                  max_trials=2500, min_bit_errors=25, master_seed=0)

    @staticmethod
    def _state(errors=0, aborted=0, trials=0, floor=25):
        return {"errors": errors, "aborted": aborted, "trials": trials, "floor": floor}

    @pytest.mark.parametrize("counts,state,trials", [
        ([25, 0, 0], dict(), 1),                  # stop on the chunk's first trial
        ([0, -1, 1, 3], dict(errors=21), 4),      # ... on its last
        ([-1, 4, -1, 2], dict(errors=21), 2),     # aborted trials around the stop
        ([-1, -1, 0, 1], dict(errors=3), 4),      # no stop
        ([7], dict(errors=24, aborted=2, trials=90, floor=30), 1),
    ])
    def test_scan_stops_on_the_trial_the_loop_stops_on(self, counts, state, trials):
        expected, got = self._state(**state), self._state(**state)
        fired = _scan_loop(counts, expected)
        assert montecarlo._scan(np.array(counts), got) is fired
        assert got == expected
        assert got["trials"] - state.get("trials", 0) == trials

    def test_scan_equals_the_loop_on_random_rows(self):
        rng = np.random.default_rng(7)
        fired_at = set()
        for _ in range(2000):
            n, floor = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            counts = rng.integers(-1, 4, n) * (rng.random(n) < 0.6)
            counts[rng.random(n) < 0.15] = -1
            start = dict(errors=int(rng.integers(0, floor)), aborted=int(rng.integers(0, 5)),
                         trials=int(rng.integers(5, 50)), floor=floor)
            expected, got = dict(start), dict(start)
            fired = _scan_loop(counts, expected)
            assert montecarlo._scan(counts, got) is fired
            assert got == expected, (counts.tolist(), start)
            if fired:
                fired_at.add(got["trials"] - start["trials"] - 1 == n - 1)
        assert fired_at == {False, True}  # stops inside chunks and on their last trial

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_chunks_are_contiguous_and_sized_within_bounds(self, n_jobs, monkeypatch):
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", _InlineExecutor)
        read = []
        real_chunk = montecarlo._ber_chunk

        def spy(points, start, stop):
            read.append((points[0].snr_db, start, stop))
            return real_chunk(points, start, stop)

        monkeypatch.setattr(montecarlo, "_ber_chunk", spy)
        cfg = ExperimentConfig(**self.GROUPS)
        run_sweep(cfg, n_jobs=n_jobs)
        low, high = montecarlo._MIN_CHUNK, montecarlo._CHUNK
        for snr in cfg.snr_db:
            chunks = [(start, stop) for s, start, stop in read if s == snr]
            assert [start for start, _ in chunks] == [0] + [stop for _, stop in chunks[:-1]]
            assert chunks[0][1] == min(high, cfg.max_trials)
            for start, stop in chunks[1:]:
                assert low <= stop - start <= high or stop == cfg.max_trials, (snr, start, stop)
        assert min(stop - start for _, start, stop in read) < high  # sized from the rates

    def test_chunk_trials_share_the_trials_still_needed(self):
        state = self._state
        assert montecarlo._chunk_trials([state(5, trials=100), state(0, trials=100)], 100, 2) \
            == montecarlo._CHUNK  # a cell without an error
        # the slowest cell needs 600 * 25 / 5 - 600 = 2,400 more trials: over 3 chunks, capped
        assert montecarlo._chunk_trials([state(5, trials=600), state(20, trials=600)], 600, 2) \
            == montecarlo._CHUNK
        # 840 * 25 / 20 - 1,000 = 50 more trials: raised to the minimum
        assert montecarlo._chunk_trials([state(20, trials=840)], 1000, 2) == montecarlo._MIN_CHUNK
        # 600 * 25 / 10 - 1,000 = 500 more trials over 3 chunks
        assert montecarlo._chunk_trials([state(10, trials=600)], 1000, 2) == 167

    def test_a_multi_group_sweep_is_identical_at_one_two_and_three_jobs(self):
        cfg = ExperimentConfig(nt=4, nr=6, snr_db=[10.0, 6.0], rho=[0.5, 1.0, 1.5], n_f=8,
                               max_trials=3000, min_bit_errors=40, master_seed=1)
        results = [run_sweep(cfg, n_jobs=n_jobs) for n_jobs in (1, 2, 3)]
        assert results[0] == results[1] == results[2]
        assert [r.trials_run for r in results[0]] == [2517, 787, 3000, 1597, 1289, 2434]

    @pytest.mark.parametrize("n_jobs", [2, 3])
    def test_a_pool_queues_one_chunk_ahead_and_inherits_the_seed_prefixes(self, n_jobs,
                                                                          monkeypatch):
        montecarlo._seed_prefix.cache_clear()
        built = []
        cfg = ExperimentConfig(**self.GROUPS)
        keys = [(cfg.master_seed, cfg.nt[0], cfg.nr[0], montecarlo._encode_snr(snr))
                for snr in cfg.snr_db]

        def build(max_workers):
            # every group's prefix is already cached when the pool is built
            hits = montecarlo._seed_prefix.cache_info().hits
            for key in keys:
                montecarlo._seed_prefix(key)
            assert montecarlo._seed_prefix.cache_info().hits == hits + len(keys)
            built.append(_InlineExecutor(max_workers))
            return built[-1]

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", build)
        assert run_sweep(cfg, n_jobs=n_jobs) == run_sweep(cfg, n_jobs=1)
        (pool,) = built
        assert pool.most_unread == n_jobs + 1

    def test_a_trace_leaves_numpy_random_unloaded_in_its_own_process(self, package_env):
        # a trace's process never draws: loading numpy.random there would add
        # to its peak memory; a sweep's loads it for its workers to inherit
        code = (
            "import sys\n"
            "from mimo_slas.montecarlo import ExperimentConfig, run_sweep, run_trace\n"
            "cfg = ExperimentConfig(nt=2, nr=2, snr_db=10.0, n_f=4, max_trials=600)\n"
            "run_trace(cfg.points()[0], n_jobs=2)\n"
            "print('numpy.random' in sys.modules)\n"
            "run_sweep(cfg, n_jobs=2)\n"
            "print('numpy.random' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=package_env, check=True, timeout=120)
        assert proc.stdout.split() == ["False", "True"]


class TestBlocks:
    """Trials run in blocks sized by ``montecarlo._BLOCK_BYTES``; no output
    depends on the size."""

    # (sweep grid, trials of the trace of its last cell), per nt
    CASES = {
        4: (dict(nt=4, nr=6, snr_db=10.0, rho=[0.0, 0.5, 1.0, 1.5, 100.0], n_f=8,
                 max_trials=1500, min_bit_errors=25), 100),
        32: (dict(nt=32, nr=32, snr_db=10.0, rho=[0.8, 0.9, 1.0, 1.2], n_f=90,
                  max_trials=600, min_bit_errors=12), 40),
        128: (dict(nt=128, nr=128, snr_db=10.0, rho=[0.9, 1.0], n_f=384, max_trials=12,
                   min_bit_errors=10**9), 12),
    }

    @pytest.mark.parametrize("nt", [4, 32, 128])
    def test_outputs_do_not_depend_on_the_block_size(self, nt, monkeypatch):
        grid, trace_trials = self.CASES[nt]
        cfg = ExperimentConfig(**grid)
        last = cfg.points()[-1]

        def outputs(block_trials):
            def budget(cells):
                if block_trials is not None:
                    monkeypatch.setattr(montecarlo, "_BLOCK_BYTES",
                                        block_trials * montecarlo._trial_bytes(nt, cells))
            budget(len(grid["rho"]))
            sweep = run_sweep(cfg)
            budget(1)
            agg = run_trace(replace(last, max_trials=trace_trials))
            return sweep, agg.mean_likelihood.tobytes(), agg.mean_ber.tobytes()

        default = outputs(None)
        assert outputs(1) == default
        assert outputs(7) == default


def _glibc_mallopt() -> bool:
    """Whether this process's C library is glibc and exposes ``mallopt``."""
    try:
        return platform.libc_ver()[0] == "glibc" and hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


class TestHeap:
    """A process that runs trials holds glibc's heap, so blocks do not fault
    their buffers in again; where ``mallopt`` is missing nothing is set."""

    @pytest.mark.skipif(not _glibc_mallopt(), reason="needs glibc's mallopt")
    def test_a_warm_trace_chunk_takes_no_page_faults(self):
        # criterion 7's 128x128 MF cell: 14 trials are two blocks of seven.
        # The warm-up chunk of four blocks lets the heap reach its high-water
        # mark before the count starts.
        p = _point(nt=128, nr=128, snr_db=10.0, n_f=384, max_trials=42)
        assert montecarlo._block_trials((p,)) == 7
        montecarlo._trace_chunk(p, 0, 28)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        montecarlo._trace_chunk(p, 28, 42)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 14, f"{faults / 14:.1f} minor page faults per trial"

    @pytest.mark.parametrize("lookup", ["no library", "no mallopt"])
    def test_a_missing_mallopt_is_skipped_quietly(self, lookup, monkeypatch):
        p = _point(nt=32, nr=32, snr_db=4.0, n_f=64, max_trials=40)
        expected = montecarlo._ber_chunk([p], 0, 40)
        looked_up = []

        def cdll(name, *args, **kwargs):
            looked_up.append(name)
            if lookup == "no library":
                raise OSError("no C library")
            return object()  # a library without mallopt

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        montecarlo._hold_heap.cache_clear()
        try:
            assert montecarlo._hold_heap() is None
            assert looked_up == [None]
            assert montecarlo._ber_chunk([p], 0, 40).tolist() == expected.tolist()
        finally:
            montecarlo._hold_heap.cache_clear()


class TestRunTrace:
    def test_shapes_and_initial_column(self):
        p = _point(n_f=10, snr_db=2.0, max_trials=32)
        agg = run_trace(p)
        assert agg.trials == 32
        assert agg.mean_likelihood.shape == (11,)
        assert agg.mean_ber.shape == (11,)
        # column 0 is the linear initializer; its mean BER must match the
        # search-off cell over the same trial indices
        off = run_point(_point(las_enabled=False, snr_db=2.0, max_trials=32))
        assert agg.mean_ber[0] == pytest.approx(off.ber, rel=1e-12)

    def test_mean_likelihood_monotone_at_unit_rho(self):
        p = _point(n_f=16, snr_db=6.0, max_trials=16)
        agg = run_trace(p)
        assert np.all(np.diff(agg.mean_likelihood) >= -1e-9)

    def test_parallel_equals_sequential(self):
        p = _point(n_f=8, max_trials=40)
        a = run_trace(p, n_jobs=1)
        b = run_trace(p, n_jobs=2)
        np.testing.assert_array_equal(a.mean_likelihood, b.mean_likelihood)
        np.testing.assert_array_equal(a.mean_ber, b.mean_ber)

    @pytest.mark.parametrize("n_f", [8, 0])
    def test_pooled_chunks_equal_sequential_and_the_mean_over_trials(self, n_f, monkeypatch):
        # seven chunks, the last of four trials, so the pool runs and sums
        # across chunk boundaries; n_f = 0 leaves a single column to average
        monkeypatch.setattr(montecarlo, "_CHUNK", 16)
        p = _point(n_f=n_f, max_trials=100)
        traces = [trial(p, i, record_trace=True)[1] for i in range(100)]
        lams = np.mean([np.concatenate(([t.initial_likelihood], t.likelihood))
                        for t in traces], axis=0)
        bers = np.mean([np.concatenate(([t.initial_bit_errors], t.bit_errors))
                        for t in traces], axis=0) / p.nt
        for n_jobs in (1, 2):
            agg = run_trace(p, n_jobs=n_jobs)
            assert agg.mean_likelihood.tobytes() == lams.tobytes(), n_jobs
            assert agg.mean_ber.tobytes() == bers.tobytes(), n_jobs

    def test_memory_does_not_grow_with_trials(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK", 64)
        p = _point(n_f=256)

        def peak(trials):
            tracemalloc.start()
            try:
                run_trace(replace(p, max_trials=trials), n_jobs=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(16 * 64) <= 1.25 * peak(4 * 64)

    def test_a_single_chunk_starts_no_pool(self, monkeypatch):
        p = _point(n_f=8, max_trials=300)
        _forbid_pool(monkeypatch)
        a = run_trace(p, n_jobs=1)
        b = run_trace(p, n_jobs=2)
        assert a.mean_likelihood.tobytes() == b.mean_likelihood.tobytes()
        assert a.mean_ber.tobytes() == b.mean_ber.tobytes()

    @pytest.mark.parametrize("nt", [1, 4, 32, 128])
    @pytest.mark.parametrize("n_f", [0, 1, 63, 64, 200, 384, 5000, 10**6])
    def test_a_chunk_holds_whole_blocks_of_rows_within_the_budget(self, nt, n_f):
        p = _point(nt=nt, nr=nt, n_f=n_f)
        trials, block = montecarlo._trace_trials(p), montecarlo._block_trials((p,))
        assert 1 <= trials <= montecarlo._CHUNK
        if n_f <= 63:
            assert trials == montecarlo._CHUNK
        if trials < montecarlo._CHUNK:  # cut by the budget
            assert trials == 1 or trials * 8 * (n_f + 1) <= montecarlo._TRACE_BYTES
            assert trials < block or trials % block == 0
            assert trials + block > montecarlo._TRACE_BYTES // (8 * (n_f + 1))
        if (nt, n_f) == (128, 384):  # criterion 7's cell: twelve blocks of seven
            assert (trials, block) == (84, 7)

    def test_outputs_do_not_depend_on_the_trace_budget(self, monkeypatch):
        # criterion 7's cell, in three chunks at the default budget (84
        # trials), 26 of one block (7) and 36 of five trials, under a block
        p = _point(nt=128, nr=128, snr_db=10.0, n_f=384, max_trials=180)
        traces = [trial(p, i, record_trace=True)[1] for i in range(p.max_trials)]
        lams = np.add.reduce([np.concatenate(([t.initial_likelihood], t.likelihood))
                              for t in traces], axis=0) / p.max_trials
        bers = np.mean([np.concatenate(([t.initial_bit_errors], t.bit_errors))
                        for t in traces], axis=0) / p.nt
        row = 8 * (p.n_f + 1)
        for budget, chunk in ((montecarlo._TRACE_BYTES, 84), (7 * row, 7), (5 * row + 3, 5)):
            monkeypatch.setattr(montecarlo, "_TRACE_BYTES", budget)
            assert montecarlo._trace_trials(p) == chunk
            for n_jobs in (1, 2):
                agg = run_trace(p, n_jobs=n_jobs)
                assert agg.mean_likelihood.tobytes() == lams.tobytes(), (chunk, n_jobs)
                assert agg.mean_ber.tobytes() == bers.tobytes(), (chunk, n_jobs)

    def test_a_trace_chunk_calls_trial_once_per_trial(self, monkeypatch):
        # each trial is one call (perfbench counts and times them), though the
        # rows are written a block at a time
        p = _point(nt=32, nr=32, n_f=90, max_trials=300)
        monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", 7 * montecarlo._trial_bytes(32, 1))
        expected = montecarlo._trace_chunk(p, 3, 40)
        called = []

        def spy(point, index, *args, **kwargs):
            called.append(index)
            return trial(point, index, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "trial", spy)
        lams, errs = montecarlo._trace_chunk(p, 3, 40)
        assert called == list(range(3, 40))
        assert lams.tobytes() == expected[0].tobytes()
        assert errs.tobytes() == expected[1].tobytes()

    def test_requires_search_enabled(self):
        with pytest.raises(ValueError):
            run_trace(_point(las_enabled=False, max_trials=4))

    def test_requires_positive_trials(self):
        with pytest.raises(ValueError):
            run_trace(_point(max_trials=0))
