"""The property suite's instances are trials of their cells."""

import numpy as np

from mimo_slas.detectors import DetectorKind
from mimo_slas.montecarlo import PointSpec, trial
from mimo_slas.selfcheck import _instance, _traces


def test_instance_i_is_trial_i_of_its_cell():
    """Instance i's search is byte for byte the trace of trial i of its
    (nt, nt, snr) cell at rho = 1 over 64 passes, for every cell."""
    seed, n = 5, 54
    cases = [_instance(i, seed) for i in range(n)]
    for i, got in enumerate(_traces(cases, None)):
        nt = (2, 4, 8)[i % 3]
        point = PointSpec(
            nt=nt, nr=nt, snr_db=(0.0, 10.0, 20.0)[(i // 3) % 3],
            detector=(DetectorKind.MF, DetectorKind.ZF, DetectorKind.MMSE)[(i // 9) % 3],
            las_enabled=True, rho=1.0, n_f=64 * nt, max_trials=n, min_bit_errors=1,
            master_seed=seed,
        )
        want = trial(point, i, record_trace=True)[1]
        for field in ("likelihood", "flipped", "final_bits", "final_gradient"):
            assert np.asarray(getattr(got, field)).tobytes() == \
                np.asarray(getattr(want, field)).tobytes(), (i, field)
        assert got.initial_likelihood == want.initial_likelihood, i
