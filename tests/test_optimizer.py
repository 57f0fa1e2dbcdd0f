import dataclasses
import math

import numpy as np
import pytest

from mtsfm_cpm import (DegenerateMainlobe, MtsfmParams, OptimizerConfig, acf,
                       barker_code, fit_fourier, generate_msequence, gisr, gradient,
                       isr, objective, optimize, psl, spectral_compactness, spectrum,
                       synthesize_mtsfm, trace_csv)
import mtsfm_cpm.metrics as metrics
import mtsfm_cpm.optimizer as opt
from mtsfm_cpm.mtsfm import _beta2_weights
from mtsfm_cpm.optimizer import (BAND_SLACK, GTOL, MIN_STEP, STEP_SHRINK, _active_edge,
                                 _evaluate, _project, _start, _tangent)
from conftest import (MSEQ63_BAND, MSEQ63_SEED, MSEQ63_T, MSEQ63_TAPS,
                      closed_form_beta2, fd_gradient, fft_calls,
                      two_sided_objective_and_gradient, underflowing_tones, weak_tones)


@pytest.fixture(scope="module")
def barker13_fit():
    return fit_fourier(barker_code(13), 13.0, 7)


@pytest.fixture(scope="module")
def small_cfg():
    return OptimizerConfig(max_iterations=4, n_samples=13 * 16)


def band_of(beta2_ref, delta):
    """The squared-bandwidth band optimize() holds a run to."""
    return (1 - delta) * beta2_ref, (1 + delta) * beta2_ref


def project(params, band):
    """optimizer._project on the coefficient vector of params."""
    return _project(params.coefficient_vector(), band, _beta2_weights(params.K, params.T))


def test_config_validation():
    for p in (1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="p must be >= 2"):
            OptimizerConfig(p=p)
    for name in ("max_iterations", "n_samples"):
        for value in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match=name):
                OptimizerConfig(**{name: value})
    with pytest.raises(ValueError):
        OptimizerConfig(delta=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(delta=1.5)


def test_integral_float_counts_run_as_ints(barker13_fit):
    cfg = OptimizerConfig(max_iterations=3.0, n_samples=208.0)
    assert type(cfg.max_iterations) is int and type(cfg.n_samples) is int
    floats = optimize(barker13_fit, cfg)
    ints = optimize(barker13_fit, OptimizerConfig(max_iterations=3, n_samples=208))
    assert trace_csv(floats.trace) == trace_csv(ints.trace)
    assert floats.to_json() == ints.to_json()


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
    _, g, _ = _evaluate(res.params.coefficient_vector(), _start(barker13_fit, small_cfg)[0])
    assert res.trace[-1].grad_norm == pytest.approx(np.linalg.norm(g), rel=1e-12)


def test_final_gisr_is_the_result_metric(mseq63_fit32, barker13_fit, monkeypatch):
    def assert_is_metric(res, params, cfg):
        n = cfg.resolve_n_samples(params.K)
        assert res.final_gisr_db == gisr(acf(synthesize_mtsfm(res.params, n)), cfg.p)

    cfg = OptimizerConfig(max_iterations=15, n_samples=2016)
    res = optimize(mseq63_fit32, cfg)
    assert res.final_gisr_db < res.initial_gisr_db
    assert_is_metric(res, mseq63_fit32, cfg)
    # no step: the start's own evaluation
    cfg = OptimizerConfig(max_iterations=0, n_samples=2016)
    res = optimize(mseq63_fit32, cfg)
    assert res.final_gisr_db == res.initial_gisr_db
    assert_is_metric(res, mseq63_fit32, cfg)
    # a converged criterion-4 run at the defaults
    code = generate_msequence(6, 0b1100000, 62)
    c4 = fit_fourier(code, 63.0, 32)
    cfg = OptimizerConfig(p=10, delta=0.1)
    res = optimize(c4, cfg)
    assert res.converged
    assert_is_metric(res, c4, cfg)
    # step_underflow: every trial after the 9th evaluation fails, so the last
    # evaluation is a rejected trial and the result is the iterate before it
    evaluate, n_evals = opt._evaluate, [0]

    def failing_late(vec, run):
        f, g, mag = evaluate(vec, run)
        n_evals[0] += 1
        return (f + 1.0 if n_evals[0] >= 9 else f), g, mag

    monkeypatch.setattr(opt, "_evaluate", failing_late)
    cfg = OptimizerConfig(n_samples=208)
    res = optimize(barker13_fit, cfg)
    assert res.termination_reason == "step_underflow"
    assert res.trace[-1].iteration > 1 and not res.trace[-1].accepted
    assert not np.array_equal(res.params.alpha, barker13_fit.alpha)
    assert_is_metric(res, barker13_fit, cfg)


def test_each_iterate_is_correlated_once(mseq63_fit32, barker13_fit, monkeypatch):
    calls = []
    fft = metrics._correlation_fft

    def counting(u):
        calls.append(u.size)
        return fft(u)

    monkeypatch.setattr(metrics, "_correlation_fft", counting)
    monkeypatch.setattr(opt, "_correlation_fft", counting)
    for params, cfg in ((mseq63_fit32, OptimizerConfig(max_iterations=15, n_samples=2016)),
                        (barker13_fit, OptimizerConfig(n_samples=208)),
                        (barker13_fit, OptimizerConfig(max_iterations=0, n_samples=208))):
        calls.clear()
        res = optimize(params, cfg)
        assert len(calls) == res.n_evaluations
        for fn in (objective, gradient):
            calls.clear()
            fn(params, cfg)
            assert len(calls) == 1


@pytest.mark.parametrize("case", ["mseq63", "barker13", "barker13-p2"])
def test_run_regions_match_the_acf_scan(mseq63_fit32, barker13_fit, case):
    params, cfg = {"mseq63": (mseq63_fit32, OptimizerConfig(n_samples=2016)),
                   "barker13": (barker13_fit, OptimizerConfig(n_samples=208)),
                   "barker13-p2": (barker13_fit, OptimizerConfig(p=2))}[case]
    n = cfg.resolve_n_samples(params.K)
    a = acf(synthesize_mtsfm(params, n))
    expected = metrics._regions(a.lags[n:], a.first_null)
    for (support, weights), (slow_support, slow_weights) in zip(_start(params, cfg)[0].regions,
                                                                expected):
        assert support == slow_support
        assert np.array_equal(weights, slow_weights)


def test_project_in_band_is_noop(mseq63_fit32):
    b2 = closed_form_beta2(mseq63_fit32)
    vec = mseq63_fit32.coefficient_vector()
    projected, b2p = _project(vec, band_of(b2, 0.1), _beta2_weights(mseq63_fit32.K,
                                                                     mseq63_fit32.T))
    assert projected is vec and b2p == b2


def test_project_scales_onto_edge(mseq63_fit32):
    b2 = closed_form_beta2(mseq63_fit32)
    band = (b2 / 4, b2 / 2)  # current value sits above the band
    projected, b2p = project(mseq63_fit32, band)
    assert np.allclose(projected, mseq63_fit32.coefficient_vector() / math.sqrt(2))
    assert b2p == pytest.approx(b2 / 2, rel=1e-12)
    assert b2p == closed_form_beta2(mseq63_fit32.with_coefficients(projected))


def test_project_idempotent_bit_for_bit(mseq63_fit32):
    b2 = closed_form_beta2(mseq63_fit32)
    band = (1.5 * b2, 2.0 * b2)
    once, b2_once = project(mseq63_fit32, band)
    twice, b2_twice = _project(once, band, _beta2_weights(mseq63_fit32.K, mseq63_fit32.T))
    assert twice is once and b2_twice == b2_once


def test_project_just_above_band_lands_within_slack(mseq63_fit32):
    # hi * (1 + 0.95e-12) is 1.045e-12 above hi relative to the reference:
    # outside the slack, so it must be projected, not passed through
    ref = closed_form_beta2(mseq63_fit32)
    lo, hi = band_of(ref, 0.1)
    above = mseq63_fit32.with_coefficients(
        mseq63_fit32.coefficient_vector() * math.sqrt(hi * (1 + 0.95e-12) / ref))
    projected, b2 = project(above, (lo, hi))
    assert not np.array_equal(projected, above.coefficient_vector())
    assert (b2 - hi) / ref <= BAND_SLACK


def test_project_rejects_all_zero():
    params = MtsfmParams(0.0, np.zeros(3), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        project(params, (1.0, 2.0))


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
    lo, hi = band_of(res.initial_beta2, small_cfg.delta)
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
    assert res.trace[0].constraint_residual == 0.0  # the band's midpoint is inside it
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


def test_trace_csv_shape(barker13_fit, small_cfg):
    res = optimize(barker13_fit, small_cfg)
    lines = trace_csv(res.trace).strip().split("\n")
    assert lines[0] == ("iter,objective_db,beta2_rel,step_size,grad_norm,"
                        "tangent_grad_norm,accepted")
    assert len(lines) == len(res.trace) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and first[-1] in ("0", "1")
    assert float(first[5]) == res.trace[0].tangent_grad_norm


def test_result_json_embeds_params(barker13_fit, small_cfg):
    import json
    res = optimize(barker13_fit, small_cfg)
    obj = json.loads(res.to_json())
    assert set(obj["params"]) == {"T", "a0", "alpha", "beta"}
    assert obj["termination_reason"] in ("max_iterations", "converged", "step_underflow")


def test_result_json_of_params_with_numpy_scalars(barker13_fit, small_cfg):
    import json
    params = MtsfmParams(np.float32(barker13_fit.a0), barker13_fit.alpha, barker13_fit.beta,
                         np.int64(13))
    obj = json.loads(optimize(params, small_cfg).to_json())
    assert obj["params"]["T"] == 13 and obj["params"]["a0"] == float(np.float32(params.a0))


def test_converged_is_stationary_on_the_band(barker13_fit):
    cfg = OptimizerConfig(n_samples=208)
    res = optimize(barker13_fit, cfg)
    assert res.converged and res.termination_reason == "converged"
    run = _start(barker13_fit, cfg)[0]
    band = band_of(res.initial_beta2, cfg.delta)
    weights = _beta2_weights(barker13_fit.K, barker13_fit.T)

    def tangent_norm(vec, b2):
        _, g, _ = _evaluate(vec, run)
        normal = _active_edge(vec, g, b2, band, res.initial_beta2, weights)
        return np.linalg.norm(_tangent(g, normal))

    start = tangent_norm(barker13_fit.coefficient_vector(), res.initial_beta2)
    end = tangent_norm(res.params.coefficient_vector(), res.final_beta2)
    assert end <= GTOL * start
    # the run ends held by the upper edge, where the full gradient is not small
    assert res.final_beta2 == pytest.approx(res.initial_beta2 * (1 + cfg.delta), rel=1e-9)
    assert end < 0.1 * res.trace[-1].grad_norm
    # the trace shows the norms the stop test read
    assert res.trace[0].tangent_grad_norm == pytest.approx(start, rel=1e-15)
    assert res.trace[-1].tangent_grad_norm == pytest.approx(end, rel=1e-15)


def test_trace_shows_why_a_run_converged(barker13_fit):
    res = optimize(barker13_fit, OptimizerConfig(n_samples=208))
    first, last = res.trace[0], res.trace[-1]
    assert res.converged
    assert last.tangent_grad_norm <= GTOL * first.tangent_grad_norm
    assert last.grad_norm > GTOL * first.grad_norm  # the full norm would not have stopped
    assert all(r.tangent_grad_norm <= r.grad_norm * (1 + 1e-15) for r in res.trace)


def test_memory_is_kept_across_edge_changes(barker13_fit, monkeypatch):
    edges, memory = [], []
    active_edge, direction = opt._active_edge, opt._lbfgs_direction

    def edge_spy(x, g, b2, band, beta2_ref, weights):
        normal = active_edge(x, g, b2, band, beta2_ref, weights)
        lo, hi = band
        edges.append(None if normal is None else
                     "upper" if abs(b2 - hi) < abs(b2 - lo) else "lower")
        return normal

    monkeypatch.setattr(opt, "_active_edge", edge_spy)
    monkeypatch.setattr(opt, "_lbfgs_direction",
                        lambda g_t, mem: memory.append(len(mem)) or direction(g_t, mem))
    res = optimize(barker13_fit, OptimizerConfig(n_samples=208))
    # edges[i] is the edge holding iterate i, memory[i] the memory the
    # direction from iterate i was built with
    assert len(edges) == len(memory) + 1 == len(res.trace)
    changes = [i for i in range(1, len(memory)) if edges[i] != edges[i - 1]]
    assert changes and edges[0] is None and edges[-1] == "upper"
    assert all(memory[i] > 0 for i in changes)
    assert max(memory) == opt.MEMORY


def optimize_mseq63(state, vec=None):
    """The optimize() result and the PSL and SC of its waveform for the
    criterion-4 problem (K=32, L=2016, default p, delta and cap) from register
    state `state`, started from vec in place of the fit's coefficients if given."""
    init = fit_fourier(generate_msequence(6, MSEQ63_TAPS, state), MSEQ63_T, 32)
    if vec is not None:
        init = init.with_coefficients(vec)
    res = optimize(init, OptimizerConfig(n_samples=2016))
    w = synthesize_mtsfm(res.params, 2016)
    return res, psl(acf(w)), spectral_compactness(spectrum(w), MSEQ63_BAND)


def test_the_mseq63_problem_set_converges():
    for state in range(2, 63, 5):
        res, psl_db, _ = optimize_mseq63(state)
        assert res.converged, state
        assert res.n_evaluations < 150, state
        assert psl_db <= -27.0, state


def test_the_mseq255_problem_converges():
    # mseq255 (built-in taps, register state 1), K=128, L=8160, at the
    # defaults: no workload runs a code this long, so the evaluation count
    # that a change to the L-BFGS memory rule moves is held here
    init = fit_fourier(generate_msequence(8, None, 1), 255.0, 128)
    res = optimize(init, OptimizerConfig(n_samples=8160))
    assert res.converged
    assert res.n_evaluations < 150
    assert psl(acf(synthesize_mtsfm(res.params, 8160))) <= -33.0


def test_the_readme_result_does_not_hinge_on_the_last_ulp():
    # the start and five one-ULP nudges of single coefficients land on the
    # same result to the precision README's table prints
    start = fit_fourier(generate_msequence(6, MSEQ63_TAPS, MSEQ63_SEED), MSEQ63_T, 32)
    vecs = [start.coefficient_vector()]
    for j in (0, 5, 17, 33, 50):
        vec = vecs[0].copy()
        vec[j] = np.nextafter(vec[j], np.inf)
        vecs.append(vec)
    psl_db, sc = np.array([optimize_mseq63(MSEQ63_SEED, vec)[1:] for vec in vecs]).T
    assert np.ptp(psl_db) < 0.005
    assert np.ptp(sc) < 5e-5


def search_trials():
    """The trials of one failed line search: t = 1, 1/2, ... down to MIN_STEP."""
    trials, t = 1, 1.0
    while t * STEP_SHRINK >= MIN_STEP:
        t, trials = t * STEP_SHRINK, trials + 1
    return trials


def test_failed_search_with_memory_retries_along_tangent_gradient(barker13_fit,
                                                                  monkeypatch):
    trials = search_trials()
    memory, poisoned = [], [0]
    direction, evaluate = opt._lbfgs_direction, opt._evaluate

    def spy_direction(g_t, mem):
        if len(mem) >= 3 and max(memory, default=0) < 3:
            poisoned[0] = trials  # fail the first search built on 3 pairs
        memory.append(len(mem))
        return direction(g_t, mem)

    def failing(vec, run):
        f, g, mag = evaluate(vec, run)
        if poisoned[0]:
            poisoned[0] -= 1
            return f + 1.0, g, mag  # every trial along the L-BFGS direction fails
        return f, g, mag

    monkeypatch.setattr(opt, "_lbfgs_direction", spy_direction)
    monkeypatch.setattr(opt, "_evaluate", failing)
    res = optimize(barker13_fit, OptimizerConfig(n_samples=208, max_iterations=12))
    k = next(i for i, m in enumerate(memory) if m >= 3)  # the failed search
    assert all(r.accepted for r in res.trace)  # the retry along -g_t succeeded
    assert res.termination_reason == "max_iterations"
    assert memory[k + 1] <= 1  # built from the retry's pair alone
    assert res.n_evaluations >= 1 + 12 + trials


def test_trace_ends_with_the_returned_iterate_off_stride(barker13_fit):
    cfg = OptimizerConfig(n_samples=208)
    res = optimize(barker13_fit, cfg)
    last = res.trace[-1]
    assert res.converged
    # one record per iteration, 0 (the start) to the last
    assert [r.iteration for r in res.trace] == list(range(last.iteration + 1))
    f, g, _ = _evaluate(res.params.coefficient_vector(), _start(barker13_fit, cfg)[0])
    assert last.objective_db == 10 * math.log10(f)
    assert last.grad_norm == pytest.approx(np.linalg.norm(g), rel=1e-12)
    assert last.beta2_rel * res.initial_beta2 == pytest.approx(res.final_beta2, rel=1e-15)
    # a record's step is the one its iterate was accepted at: 1, 1/2, 1/4, ...
    assert all(r.accepted and r.step_size in STEP_SHRINK ** np.arange(40)
               for r in res.trace[1:])


# the transforms of one evaluation at the criterion-4 size (K=32, L=2016):
# the synthesis irfft, the correlation FFT and the real FFT of its power,
# then the gradient's lag kernel irfft, its ifft correlation and the
# synthesis adjoint's rfft
EVALUATION_FFTS = [("irfft", (2016,)), ("fft", (4096,)), ("rfft", (4096,)),
                   ("irfft", (4096,)), ("ifft", (4096,)), ("rfft", (2016,))]


def test_one_evaluation_makes_six_transforms(mseq63_fit32, monkeypatch):
    run = _start(mseq63_fit32, OptimizerConfig(n_samples=2016))[0]
    calls = fft_calls(monkeypatch)
    _evaluate(mseq63_fit32.coefficient_vector(), run)
    assert calls == EVALUATION_FFTS


def test_optimize_makes_six_transforms_per_evaluation(mseq63_fit32, monkeypatch):
    # the criterion-4 run: the start's evaluation is the first, and the result
    # is scored on the |R| of the evaluation that accepted it
    calls = fft_calls(monkeypatch)
    res = optimize(mseq63_fit32, OptimizerConfig(n_samples=2016))
    assert res.converged
    assert calls == EVALUATION_FFTS * res.n_evaluations


def on_toy_objective(monkeypatch, params, f_and_g):
    """Make optimize() from params minimize f_and_g(x) -> (f, g) over the
    coefficient vector x in place of the sidelobe ratio. Every evaluation
    reports the start's own |R|, which the result is scored on. Returns the
    (x, f) of each evaluation, the start's first."""
    seen, start_mag = [], []

    def toy(x, mag):
        f, g = f_and_g(x)
        seen.append((x, f))
        return f, g, mag

    def score(c, run):
        start_mag.append(c.magnitudes)
        return toy(params.coefficient_vector(), c.magnitudes)

    monkeypatch.setattr(opt, "_score", score)
    monkeypatch.setattr(opt, "_evaluate", lambda x, run: toy(x, start_mag[0]))
    return seen


TOY_CFG = OptimizerConfig(delta=0.5, n_samples=208)  # every toy iterate is inside the band


def test_armijo_rejects_a_too_small_decrease(barker13_fit, monkeypatch):
    # f = 1 + a |x - m|^2 with a = 0.99995: the first trial, x - g, lands at
    # (1 - 2a)(x - m) from m, which lowers f by 4 a^2 (1 - a) |x - m|^2, less
    # than ARMIJO times g.(x - cand) = |g|^2 = 4 a^2 |x - m|^2
    x0 = barker13_fit.coefficient_vector()
    m, a = x0 + 0.01 * np.eye(x0.size)[0], 0.99995
    seen = on_toy_objective(monkeypatch, barker13_fit,
                            lambda x: (1 + a * ((x - m) @ (x - m)), 2 * a * (x - m)))
    res = optimize(barker13_fit, dataclasses.replace(TOY_CFG, max_iterations=1))
    (_, f0), (_, f1) = seen[:2]
    assert f1 < f0  # the first trial lowers f, by too little
    assert res.trace[1].accepted and res.trace[1].step_size == STEP_SHRINK


def test_memory_refuses_a_pair_without_positive_curvature(barker13_fit, monkeypatch):
    # f = 10 - |x - m|^2 with x0 - m = v: the first trial, t = 1 along -g = 2v,
    # is accepted with s = 2v and y = g(x0 + 2v) - g(x0) = -4v, so s.y < 0
    x0 = barker13_fit.coefficient_vector()
    m = x0 - 0.01 * np.eye(x0.size)[0]
    seen = on_toy_objective(monkeypatch, barker13_fit,
                            lambda x: (10 - (x - m) @ (x - m), -2 * (x - m)))
    memories, direction = [], opt._lbfgs_direction

    def spy(g_t, memory):
        memories.append(list(memory))
        return direction(g_t, memory)

    monkeypatch.setattr(opt, "_lbfgs_direction", spy)
    res = optimize(barker13_fit, dataclasses.replace(TOY_CFG, max_iterations=2))
    s, y = seen[1][0] - x0, -2 * (seen[1][0] - m) + 2 * (x0 - m)
    assert res.trace[1].accepted and res.trace[1].step_size == 1.0 and s @ y < 0
    assert memories[1] == []  # the second direction is built from no pair


def test_a_flat_objective_ends_after_one_search(barker13_fit, monkeypatch):
    # f = 1 and g = 0: every trial meets the Armijo test, with equality, but
    # none lowers f, so the search fails; with no memory it is not retried
    on_toy_objective(monkeypatch, barker13_fit, lambda x: (1.0, np.zeros(x.size)))
    res = optimize(barker13_fit, TOY_CFG)
    assert res.termination_reason == "step_underflow" and not res.trace[-1].accepted
    assert np.array_equal(res.params.coefficient_vector(), barker13_fit.coefficient_vector())
    assert res.n_evaluations == 1 + search_trials()


def test_an_objective_of_zero_reads_the_db_floor(barker13_fit, monkeypatch):
    # J underflows to 0 when the sidelobe sum's peak term does, at p above
    # about 1e17; a trace record then reads the -3000 dB floor, not a math
    # domain error. Here every point but the start scores 0.
    x0 = barker13_fit.coefficient_vector()
    on_toy_objective(monkeypatch, barker13_fit,
                     lambda x: (float(np.array_equal(x, x0)), np.full(x.size, 0.01)))
    res = optimize(barker13_fit, dataclasses.replace(TOY_CFG, max_iterations=1))
    assert res.trace[1].accepted and res.trace[1].objective_db == -3000.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_optimize_rejects_an_overflowing_bandwidth():
    # finite coefficients whose squared RMS bandwidth overflows to inf
    with pytest.raises(ValueError, match="bandwidth overflows"):
        optimize(MtsfmParams(0.0, [1e154], [1e154], 1.0), OptimizerConfig(max_iterations=2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_tiny_pulse_length_is_rejected_before_any_synthesis(monkeypatch):
    # (2 pi k / T)^2 overflows: optimize names the band before _start runs,
    # and objective and gradient, which need no band, compute no weights
    params, cfg = MtsfmParams(0.0, [0.1], [0.1], 1e-160), OptimizerConfig(max_iterations=2)
    for fn in (objective, gradient):
        with pytest.raises(DegenerateMainlobe):
            fn(params, cfg)
    monkeypatch.setattr(opt, "_start", lambda *a: pytest.fail("the start was synthesized"))
    with pytest.raises(ValueError, match="bandwidth overflows"):
        optimize(params, cfg)
    with pytest.raises(ValueError, match="all-zero coefficients"):
        optimize(MtsfmParams(0.0, [0.0], [0.0], 1.0), cfg)


@pytest.mark.parametrize("fn", ["gisr", "objective", "gradient", "optimize"])
def test_a_p_whose_power_sum_underflows_raises_naming_it(fn):
    params, p = underflowing_tones(), 10 ** 20
    cfg = OptimizerConfig(p=p)
    call = {"gisr": lambda: gisr(acf(synthesize_mtsfm(params, 128)), p),
            "objective": lambda: objective(params, cfg),
            "gradient": lambda: gradient(params, cfg),
            "optimize": lambda: optimize(params, cfg)}[fn]
    with pytest.raises(ValueError, match=f"^p = {p} is too large"):
        call()
    # at p = 10^18 the peak term, about e^-111, does not underflow
    assert gisr(acf(synthesize_mtsfm(params, 128)), 10 ** 18) < 0
