"""Property tests over random inputs (need hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mtsfm_cpm import (MtsfmParams, OptimizerConfig, PhaseCode,  # noqa: E402
                       SamplingConfig, acf, barker_code, beta2_band,
                       closed_form_rms_bandwidth, compute_metrics, fit_fourier,
                       gradient, objective, project_to_band, synthesize_mtsfm,
                       synthesize_pc)
from mtsfm_cpm.mtsfm import _phase_samples  # noqa: E402
from mtsfm_cpm.optimizer import BAND_SLACK  # noqa: E402
from conftest import fd_gradient, two_sided_objective_and_gradient  # noqa: E402

BARKER13_FIT = fit_fourier(barker_code(13), 13.0, 7)


def random_params(seed, scale, a0=None):
    """BARKER13_FIT with normal noise of the given scale on its coefficients."""
    rng = np.random.default_rng(seed)
    vec = BARKER13_FIT.coefficient_vector() + scale * rng.normal(size=2 * BARKER13_FIT.K)
    return MtsfmParams(BARKER13_FIT.a0 if a0 is None else a0,
                       vec[:BARKER13_FIT.K], vec[BARKER13_FIT.K:], BARKER13_FIT.T)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([0.05, 0.3, 1.0]),
       p=st.sampled_from([2, 4, 10]))
def test_gradient_matches_fd_on_random_coefficients(seed, scale, p):
    params = random_params(seed, scale)
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


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([0.05, 0.3, 1.0, 3.0]),
       p=st.sampled_from([2, 4, 10]))
def test_evaluation_matches_two_sided_oracle_on_random_coefficients(seed, scale, p):
    params = random_params(seed, scale)
    n = 13 * 16
    cfg = OptimizerConfig(p=p, n_samples=n)
    f_ref, g_ref = two_sided_objective_and_gradient(
        params.coefficient_vector(), params.a0, params.T, params.K, p, n)
    assert objective(params, cfg) == pytest.approx(f_ref, rel=1e-12)
    g = gradient(params, cfg)
    assert np.linalg.norm(g - g_ref) <= 1e-12 * np.linalg.norm(g_ref)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), mtsfm=st.booleans(), n=st.integers(2, 40))
def test_acf_is_hermitian(seed, mtsfm, n):
    rng = np.random.default_rng(seed)
    code = PhaseCode(rng.uniform(-np.pi, np.pi, n))
    w = (synthesize_mtsfm(fit_fourier(code, float(n), n), 8 * n) if mtsfm
         else synthesize_pc(code, SamplingConfig(float(n), samples_per_chip=8)))
    a = acf(w)
    assert np.array_equal(a.lags[::-1], -a.lags)
    assert np.max(np.abs(a.values[::-1] - np.conj(a.values))) <= 1e-12


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([0.05, 1.0, 30.0]),
       oversample=st.integers(4, 64))
def test_synthesis_has_unit_energy(seed, scale, oversample):
    params = random_params(seed, scale)
    n = oversample * params.K
    w = synthesize_mtsfm(params, n)
    assert abs(w.energy - 1.0) <= 1e-12
    # the cos/sin pass computes the complex exponential's bits
    phi = _phase_samples(params.a0, params.alpha, params.beta, n)
    assert np.array_equal(w.samples, np.exp(1j * phi) / np.sqrt(params.T))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([0.05, 0.3, 1.0]),
       a0=st.floats(-20.0, 20.0))
def test_evaluation_and_metrics_invariant_to_a0(seed, scale, a0):
    base, shifted = random_params(seed, scale), random_params(seed, scale, a0)
    cfg = OptimizerConfig(p=10, n_samples=13 * 16)
    assert objective(shifted, cfg) == pytest.approx(objective(base, cfg), rel=1e-12)
    g, g_shifted = gradient(base, cfg), gradient(shifted, cfg)
    assert np.linalg.norm(g_shifted - g) <= 1e-12 * np.linalg.norm(g)
    rep = compute_metrics(synthesize_mtsfm(base, 13 * 16), 2.0)
    rep_shifted = compute_metrics(synthesize_mtsfm(shifted, 13 * 16), 2.0)
    assert rep_shifted.degenerate == rep.degenerate
    assert rep_shifted.sc == pytest.approx(rep.sc, abs=1e-12)
    assert rep_shifted.beta_rms == pytest.approx(rep.beta_rms, rel=1e-9)
    for name in ("delta_tau", "mainlobe_area", "psl_db", "isr_db", "gisr_db"):
        value, value_shifted = getattr(rep, name), getattr(rep_shifted, name)
        if value is None:  # a degenerate mainlobe has no sidelobe metrics
            assert value_shifted is None
        else:
            assert value_shifted == pytest.approx(value, rel=1e-9, abs=1e-9)
