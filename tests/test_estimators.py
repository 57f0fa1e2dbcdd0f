import warnings

import numpy as np
import pytest

from mtsfm_cpm import (GisrOptimizer, MtsfmSmoother, barker_code, fit_fourier,
                       min_harmonics, mtsfm_phase)


def test_smoother_fit_sets_attributes(mseq63_code):
    sm = MtsfmSmoother(harmonics=32, pulse_length=63.0).fit(mseq63_code.phases)
    assert sm.n_chips_ == 63
    assert sm.min_harmonics_ == 32
    assert sm.params_.K == 32
    expected = fit_fourier(mseq63_code, 63.0, 32)
    assert np.array_equal(sm.params_.alpha, expected.alpha)
    assert np.array_equal(sm.params_.beta, expected.beta)


def test_smoother_defaults_to_bound_and_chip_seconds():
    phases = barker_code(13).phases
    sm = MtsfmSmoother().fit(phases)
    assert sm.params_.K == min_harmonics(13)
    assert sm.params_.T == 13.0


def test_smoother_warns_below_bound():
    with pytest.warns(UserWarning, match="bound"):
        MtsfmSmoother(harmonics=3).fit(barker_code(13).phases)


def test_smoother_rejects_invalid_harmonics_without_warning(mseq63_code):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="K must be"):
            MtsfmSmoother(harmonics=0).fit(barker_code(13).phases)
    # a failed refit leaves the earlier fit whole
    sm = MtsfmSmoother().fit(barker_code(13).phases)
    with pytest.raises(ValueError, match="K must be"):
        sm.set_params(harmonics=0).fit(mseq63_code.phases)
    assert (sm.n_chips_, sm.min_harmonics_, sm.params_.K) == (13, 7, 7)


def test_smoother_predict_matches_phase_model(mseq63_code):
    sm = MtsfmSmoother(harmonics=32, pulse_length=63.0).fit(mseq63_code.phases)
    t = np.linspace(-31.5, 31.5, 17)
    assert np.array_equal(sm.predict(t), mtsfm_phase(sm.params_, t))


def test_smoother_synthesize_density(mseq63_code):
    sm = MtsfmSmoother(harmonics=32, pulse_length=63.0).fit(mseq63_code.phases)
    assert sm.synthesize().n_samples == 63 * 32
    assert sm.synthesize(4096).n_samples == 4096


def test_smoother_requires_fit():
    with pytest.raises(RuntimeError):
        MtsfmSmoother().predict(0.0)


def test_optimizer_estimator_runs(barker13_fit_params):
    opt = GisrOptimizer(max_iterations=3, n_samples=13 * 16)
    opt.fit(barker13_fit_params)
    assert opt.result_.final_gisr_db <= opt.result_.initial_gisr_db
    assert opt.params_.K == barker13_fit_params.K
    assert opt.score() == -opt.result_.final_gisr_db


@pytest.fixture(scope="module")
def barker13_fit_params():
    return fit_fourier(barker_code(13), 13.0, 7)


def test_get_set_params_round_trip():
    opt = GisrOptimizer(p=6, delta=0.2)
    params = opt.get_params()
    assert params["p"] == 6 and params["delta"] == 0.2
    opt.set_params(p=12)
    assert opt.p == 12
    with pytest.raises(ValueError):
        opt.set_params(bogus=1)


def test_sklearn_clone_compatibility():
    base = pytest.importorskip("sklearn.base")
    sm = base.clone(MtsfmSmoother(harmonics=8, pulse_length=2.0))
    assert sm.get_params() == {"harmonics": 8, "pulse_length": 2.0}
    opt = base.clone(GisrOptimizer(p=4, max_iterations=7))
    assert opt.p == 4 and opt.max_iterations == 7
