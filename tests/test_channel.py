"""Channel, symbol, and noise generation tests.

Moment checks use wide tolerances so they stay deterministic at the
frozen seeds while still catching scale bugs (a factor of sqrt(2) in the
variance shows up orders of magnitude beyond the thresholds here).
"""

import math

import numpy as np
import pytest

from mimo_slas.channel import (
    ChannelInstance,
    SnrSpec,
    assemble,
    hardening_metric,
    sample_bpsk,
    sample_channel,
)


def test_snr_spec_n0_values():
    assert SnrSpec(snr_db=0.0).n0 == pytest.approx(1.0)
    assert SnrSpec(snr_db=10.0).n0 == pytest.approx(0.1)
    assert SnrSpec(snr_db=20.0).n0 == pytest.approx(0.01)
    assert SnrSpec(snr_db=-10.0).n0 == pytest.approx(10.0)


def test_noiseless_spec():
    spec = SnrSpec(math.inf)
    assert spec.snr_db == np.inf
    assert spec.n0 == 0.0


def test_channel_entry_moments():
    rng = np.random.default_rng(42)
    h = sample_channel(64, 64, rng)
    assert h.shape == (64, 64)
    assert h.dtype == np.complex128
    # unit variance per complex entry, split evenly across real/imag
    assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.03)
    assert np.var(h.real) == pytest.approx(0.5, abs=0.03)
    assert np.var(h.imag) == pytest.approx(0.5, abs=0.03)
    assert abs(np.mean(h)) < 0.02


def test_channel_shape_is_receive_by_transmit():
    rng = np.random.default_rng(0)
    h = sample_channel(4, 7, rng)
    assert h.shape == (7, 4)


def test_bpsk_symbols():
    rng = np.random.default_rng(1)
    b = sample_bpsk(1000, 1.0, rng)
    assert b.dtype == np.float64
    assert set(np.unique(b)) == {-1.0, 1.0}
    # both symbols should appear in force
    assert 400 < np.sum(b > 0) < 600


def test_bpsk_energy_scaling():
    rng = np.random.default_rng(2)
    b = sample_bpsk(16, 4.0, rng)
    assert set(np.unique(np.abs(b))) == {2.0}


def test_assemble_noiseless_is_exact_product():
    rng = np.random.default_rng(3)
    h = sample_channel(8, 12, rng)
    b = sample_bpsk(8, 1.0, rng)
    inst = assemble(h, b, SnrSpec(math.inf), rng)
    np.testing.assert_allclose(inst.y, h @ b, rtol=1e-14)
    np.testing.assert_array_equal(inst.noise, np.zeros(12, dtype=complex))
    assert inst.n0 == 0.0


def test_assemble_records_inputs_and_dims():
    rng = np.random.default_rng(4)
    h = sample_channel(4, 6, rng)
    b = sample_bpsk(4, 1.0, rng)
    inst = assemble(h, b, SnrSpec(snr_db=10.0), rng)
    assert isinstance(inst, ChannelInstance)
    assert inst.nt == 4
    assert inst.nr == 6
    assert inst.es == 1.0
    np.testing.assert_array_equal(inst.h, h)
    np.testing.assert_array_equal(inst.b_true, b)
    np.testing.assert_allclose(inst.y, h @ b + inst.noise, rtol=1e-14)


def test_noise_variance_matches_n0():
    rng = np.random.default_rng(5)
    nr = 40_000
    h = np.zeros((nr, 1), dtype=complex)
    b = np.ones(1)
    inst = assemble(h, b, SnrSpec(snr_db=10.0), rng)
    # var per complex sample = N0, split across real/imag
    assert np.mean(np.abs(inst.noise) ** 2) == pytest.approx(0.1, rel=0.05)
    assert np.var(inst.noise.real) == pytest.approx(0.05, rel=0.08)


def test_dimension_mismatch_rejected():
    rng = np.random.default_rng(6)
    h = sample_channel(4, 6, rng)
    with pytest.raises(ValueError):
        assemble(h, np.ones(5), SnrSpec(snr_db=0.0), rng)


def test_generation_is_reproducible():
    h1 = sample_channel(8, 8, np.random.default_rng(99))
    h2 = sample_channel(8, 8, np.random.default_rng(99))
    np.testing.assert_array_equal(h1, h2)


def test_hardening_metric_mean_near_one():
    rng = np.random.default_rng(7)
    h = sample_channel(32, 64, rng)
    m = hardening_metric(h)
    assert m.shape == (64,)
    assert np.mean(m) == pytest.approx(1.0, abs=0.1)


def test_hardening_metric_concentrates_with_width():
    """Row-norm spread shrinks as the transmit count grows."""
    rng = np.random.default_rng(8)
    spreads = []
    for nt in (4, 64):
        rows = np.concatenate(
            [hardening_metric(sample_channel(nt, 64, rng)) for _ in range(30)]
        )
        spreads.append(np.std(rows))
    assert spreads[1] < 0.5 * spreads[0]
