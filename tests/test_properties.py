"""Property tests over random inputs (need hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mtsfm_cpm import (OptimizerConfig, barker_code, beta2_band,  # noqa: E402
                       closed_form_rms_bandwidth, fit_fourier, gradient,
                       project_to_band)
from mtsfm_cpm.optimizer import BAND_SLACK  # noqa: E402
from conftest import fd_gradient  # noqa: E402

BARKER13_FIT = fit_fourier(barker_code(13), 13.0, 7)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([0.05, 0.3, 1.0]),
       p=st.sampled_from([2, 4, 10]))
def test_gradient_matches_fd_on_random_coefficients(seed, scale, p):
    rng = np.random.default_rng(seed)
    vec = BARKER13_FIT.coefficient_vector()
    params = BARKER13_FIT.with_coefficients(vec + scale * rng.normal(size=vec.size))
    cfg = OptimizerConfig(p=p, n_samples=13 * 16)
    g = gradient(params, cfg)
    g_fd = fd_gradient(params, cfg, 1e-6)
    assert np.linalg.norm(g - g_fd) <= 1e-7 * np.linalg.norm(g_fd)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), log_scale=st.floats(-3.0, 3.0),
       delta=st.floats(1e-3, 0.9))
def test_project_to_band_idempotent_within_slack(seed, log_scale, delta):
    rng = np.random.default_rng(seed)
    vec = BARKER13_FIT.coefficient_vector()
    params = BARKER13_FIT.with_coefficients(
        np.exp(log_scale) * (vec + 0.3 * rng.normal(size=vec.size)))
    ref = closed_form_rms_bandwidth(BARKER13_FIT)
    lo, hi = beta2_band(ref, delta)
    once = project_to_band(params, (lo, hi))
    assert project_to_band(once, (lo, hi)) is once
    b2 = closed_form_rms_bandwidth(once)
    assert max(0.0, lo - b2, b2 - hi) / ref <= BAND_SLACK
