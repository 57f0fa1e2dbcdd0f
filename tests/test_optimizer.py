import math

import numpy as np
import pytest

from mtsfm_cpm import (DegenerateMainlobe, MtsfmParams, OptimizerConfig, acf,
                       barker_code, beta2_band, closed_form_rms_bandwidth,
                       fit_fourier, gisr, gradient, isr, objective, optimize,
                       project_to_band, synthesize_mtsfm, trace_csv)
from mtsfm_cpm.optimizer import BAND_SLACK, _objective_and_gradient, _run
from conftest import fd_gradient, two_sided_objective_and_gradient, weak_tones


@pytest.fixture(scope="module")
def barker13_fit():
    return fit_fourier(barker_code(13), 13.0, 7)


@pytest.fixture(scope="module")
def small_cfg():
    return OptimizerConfig(max_iterations=4, n_samples=13 * 16)


def test_config_validation():
    for p in (1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="p must be >= 2"):
            OptimizerConfig(p=p)
    for name in ("max_iterations", "log_every", "n_samples"):
        for value in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match=name):
                OptimizerConfig(**{name: value})
    with pytest.raises(ValueError):
        OptimizerConfig(delta=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(delta=1.5)
    for tol in (float("nan"), float("inf"), -1e-8):
        with pytest.raises(ValueError, match="objective_tolerance"):
            OptimizerConfig(objective_tolerance=tol)
    assert OptimizerConfig(objective_tolerance=0.0).objective_tolerance == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", [700, 2000, 10 ** 4])
@pytest.mark.parametrize("case", ["mseq63", "barker13"])
def test_large_p_is_finite(mseq63_fit32, barker13_fit, case, p):
    # unscaled, |R|^p of these sidelobes underflows to 0 at each p
    params, n = (mseq63_fit32, 2016) if case == "mseq63" else (barker13_fit, 208)
    cfg = OptimizerConfig(p=p, n_samples=n, max_iterations=3)
    assert math.isfinite(objective(params, cfg))
    assert np.all(np.isfinite(gradient(params, cfg)))
    res = optimize(params, cfg)
    assert math.isfinite(res.final_gisr_db) and res.final_gisr_db < res.initial_gisr_db


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p, iterations", [(400, 6), (300, 45)])
def test_optimize_at_large_p_descends(mseq63_fit32, p, iterations):
    # within these iterations the unscaled sidelobe integral turns subnormal,
    # and its reciprocal in the gradient overflows
    cfg = OptimizerConfig(p=p, n_samples=2016, max_iterations=iterations)
    res = optimize(mseq63_fit32, cfg)
    assert res.termination_reason == "max_iterations"
    assert all(math.isfinite(r.objective_db) and math.isfinite(r.grad_norm)
               for r in res.trace)
    assert res.final_gisr_db < res.initial_gisr_db


@pytest.mark.parametrize("fn", [objective, gradient, optimize])
def test_degenerate_start_raises(fn):
    params = weak_tones()
    assert acf(synthesize_mtsfm(params, 64)).degenerate
    with pytest.raises(DegenerateMainlobe, match="no interior null"):
        fn(params, OptimizerConfig(max_iterations=2, n_samples=64))


@pytest.mark.parametrize("p", [2, 10])
def test_objective_p2_matches_isr_report(mseq63_fit32, p):
    cfg = OptimizerConfig(p=p, n_samples=2016)
    value = objective(mseq63_fit32, cfg)
    a = acf(synthesize_mtsfm(mseq63_fit32, 2016))
    assert value == pytest.approx(10 ** (gisr(a, p) / 10), rel=1e-12)


def test_objective_p10_bracketed_by_isr_and_psl(mseq63_fit32):
    from mtsfm_cpm import psl
    cfg = OptimizerConfig(p=10, n_samples=2016)
    value_db = 10 * math.log10(objective(mseq63_fit32, cfg))
    a = acf(synthesize_mtsfm(mseq63_fit32, 2016))
    assert psl(a) - 1.5 <= value_db <= isr(a) + 1.5


def test_gradient_taylor_consistency(barker13_fit, small_cfg):
    g = gradient(barker13_fit, small_cfg)
    assert g.shape == (2 * barker13_fit.K,)
    f0 = objective(barker13_fit, small_cfg)
    h = 5e-5
    vec = barker13_fit.coefficient_vector()
    # check the few largest-derivative coordinates, where the relative
    # comparison is well conditioned
    for j in np.argsort(-np.abs(g))[:4]:
        vp = vec.copy()
        vp[j] += h
        fp = objective(barker13_fit.with_coefficients(vp), small_cfg)
        assert (fp - f0) == pytest.approx(h * g[j], rel=0.05)


@pytest.mark.parametrize("case,p", [("mseq63", 2), ("mseq63", 10), ("barker13", 10),
                                    ("mseq63", 700), ("barker13", 700),
                                    ("mseq63", 2000), ("barker13", 2000)])
def test_gradient_matches_fd_oracle(mseq63_fit32, barker13_fit, case, p):
    params, n = (mseq63_fit32, 2016) if case == "mseq63" else (barker13_fit, 208)
    cfg = OptimizerConfig(p=p, n_samples=n)
    g = gradient(params, cfg)
    g_fd = fd_gradient(params, cfg, 1e-6)
    assert np.linalg.norm(g - g_fd) <= 1e-7 * np.linalg.norm(g_fd)


@pytest.mark.parametrize("case,p", [("mseq63", 2), ("mseq63", 10), ("barker13", 10),
                                    ("mseq63", 100), ("barker13", 100)])
def test_evaluation_matches_two_sided_oracle(mseq63_fit32, barker13_fit, case, p):
    params, n = {"mseq63": (mseq63_fit32, 2016), "barker13": (barker13_fit, 208)}[case]
    cfg = OptimizerConfig(p=p, n_samples=n)
    f_ref, g_ref = two_sided_objective_and_gradient(
        params.coefficient_vector(), params.a0, params.T, params.K, p, n)
    assert objective(params, cfg) == pytest.approx(f_ref, rel=1e-12)
    g = gradient(params, cfg)
    assert np.linalg.norm(g - g_ref) <= 1e-12 * np.linalg.norm(g_ref)


def test_trace_grad_norm_is_gradient_norm(barker13_fit, small_cfg):
    res = optimize(barker13_fit, small_cfg)
    assert res.trace[0].grad_norm == pytest.approx(
        np.linalg.norm(gradient(barker13_fit, small_cfg)), rel=1e-12)
    assert res.trace[-1].accepted  # the last record is the returned iterate
    # the run scores every iterate on its starting mainlobe region
    _, g = _objective_and_gradient(res.params.coefficient_vector(),
                                   _run(barker13_fit, small_cfg))
    assert res.trace[-1].grad_norm == pytest.approx(np.linalg.norm(g), rel=1e-12)


def test_final_gisr_is_the_result_metric(mseq63_fit32):
    cfg = OptimizerConfig(max_iterations=15, n_samples=2016)
    res = optimize(mseq63_fit32, cfg)
    assert res.final_gisr_db < res.initial_gisr_db
    assert res.final_gisr_db == gisr(acf(synthesize_mtsfm(res.params, 2016)), cfg.p)


def test_project_in_band_is_noop(mseq63_fit32):
    b2 = closed_form_rms_bandwidth(mseq63_fit32)
    band = beta2_band(b2, 0.1)
    assert project_to_band(mseq63_fit32, band) is mseq63_fit32


def test_project_scales_onto_edge(mseq63_fit32):
    b2 = closed_form_rms_bandwidth(mseq63_fit32)
    band = (b2 / 4, b2 / 2)  # current value sits above the band
    projected = project_to_band(mseq63_fit32, band)
    assert np.allclose(projected.alpha, mseq63_fit32.alpha / math.sqrt(2))
    assert closed_form_rms_bandwidth(projected) == pytest.approx(b2 / 2, rel=1e-12)


def test_project_idempotent_bit_for_bit(mseq63_fit32):
    b2 = closed_form_rms_bandwidth(mseq63_fit32)
    band = (1.5 * b2, 2.0 * b2)
    once = project_to_band(mseq63_fit32, band)
    twice = project_to_band(once, band)
    assert twice is once
    assert np.array_equal(twice.alpha, once.alpha)
    assert np.array_equal(twice.beta, once.beta)


def test_project_just_above_band_lands_within_slack(mseq63_fit32):
    # hi * (1 + 0.95e-12) is 1.045e-12 above hi relative to the reference:
    # outside the slack, so it must be projected, not passed through
    ref = closed_form_rms_bandwidth(mseq63_fit32)
    lo, hi = beta2_band(ref, 0.1)
    above = mseq63_fit32.with_coefficients(
        mseq63_fit32.coefficient_vector() * math.sqrt(hi * (1 + 0.95e-12) / ref))
    b2 = closed_form_rms_bandwidth(project_to_band(above, (lo, hi)))
    assert (b2 - hi) / ref <= BAND_SLACK


def test_project_rejects_all_zero():
    params = MtsfmParams(0.0, np.zeros(3), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        project_to_band(params, (1.0, 2.0))


def test_optimize_zero_iterations_is_noop(barker13_fit):
    cfg = OptimizerConfig(max_iterations=0, n_samples=13 * 16)
    res = optimize(barker13_fit, cfg)
    assert res.final_gisr_db == res.initial_gisr_db
    assert np.array_equal(res.params.alpha, barker13_fit.alpha)
    assert np.array_equal(res.params.beta, barker13_fit.beta)
    assert len(res.trace) == 1 and res.trace[0].iteration == 0


def test_optimize_rejects_all_zero():
    params = MtsfmParams(0.0, np.zeros(3), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        optimize(params, OptimizerConfig(max_iterations=1, n_samples=64))


def test_optimize_improves_and_stays_feasible(barker13_fit, small_cfg):
    res = optimize(barker13_fit, small_cfg)
    assert res.final_gisr_db <= res.initial_gisr_db
    lo, hi = beta2_band(res.initial_beta2, small_cfg.delta)
    assert lo * (1 - 1e-12) <= res.final_beta2 <= hi * (1 + 1e-12)
    for record in res.trace:
        assert record.constraint_residual <= BAND_SLACK
    objectives = [r.objective_db for r in res.trace]
    assert all(b <= a for a, b in zip(objectives, objectives[1:]))


def test_optimize_trace_within_band_slack(barker13_fit):
    # this run steps onto the upper band edge from just outside it
    res = optimize(barker13_fit, OptimizerConfig(max_iterations=60))
    assert len(res.trace) > 1
    assert max(r.constraint_residual for r in res.trace) <= BAND_SLACK
    # the trace records the squared bandwidth of the iterate that is returned
    assert res.trace[-1].beta2_rel * res.initial_beta2 == pytest.approx(
        res.final_beta2, rel=1e-15)


def test_optimize_rejects_samples_below_floor(barker13_fit):
    cfg = OptimizerConfig(max_iterations=1, n_samples=4 * barker13_fit.K - 1)
    with pytest.raises(ValueError, match=f"need >= {4 * barker13_fit.K}"):
        optimize(barker13_fit, cfg)


def test_optimize_deterministic(barker13_fit, small_cfg):
    res1 = optimize(barker13_fit, small_cfg)
    res2 = optimize(barker13_fit, small_cfg)
    assert trace_csv(res1.trace) == trace_csv(res2.trace)
    assert np.array_equal(res1.params.alpha, res2.params.alpha)


def test_log_every_strides_trace(barker13_fit):
    dense = optimize(barker13_fit, OptimizerConfig(max_iterations=6, n_samples=208))
    sparse = optimize(barker13_fit,
                      OptimizerConfig(max_iterations=6, n_samples=208, log_every=3))
    assert len(sparse.trace) < len(dense.trace)
    recorded = {r.iteration for r in sparse.trace}
    assert 0 in recorded and 6 in recorded  # endpoints always kept
    assert sparse.final_gisr_db == dense.final_gisr_db  # logging is passive


def test_trace_csv_shape(barker13_fit, small_cfg):
    res = optimize(barker13_fit, small_cfg)
    lines = trace_csv(res.trace).strip().split("\n")
    assert lines[0] == "iter,objective_db,beta2_rel,step_size,grad_norm,accepted"
    assert len(lines) == len(res.trace) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and first[5] in ("0", "1")


def test_result_json_embeds_params(barker13_fit, small_cfg):
    import json
    res = optimize(barker13_fit, small_cfg)
    obj = json.loads(res.to_json())
    assert set(obj["params"]) == {"T", "a0", "alpha", "beta"}
    assert obj["termination_reason"] in ("max_iterations", "converged", "step_underflow")
