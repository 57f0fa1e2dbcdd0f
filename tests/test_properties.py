"""Property tests over random inputs (need hypothesis)."""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from mtsfm_cpm import (MtsfmParams, OptimizerConfig, PhaseCode,  # noqa: E402
                       SamplingConfig, acf, ambiguity, barker_code,
                       closed_form_rms_bandwidth, compute_metrics, dump_phase_code,
                       fit_fourier, gradient, mtsfm_phase, objective,
                       synthesize_mtsfm, synthesize_pc, time_grid)
from mtsfm_cpm.cli import main  # noqa: E402
from mtsfm_cpm.metrics import _next_pow2  # noqa: E402
from mtsfm_cpm.mtsfm import _beta2_weights, _phase_samples  # noqa: E402
from mtsfm_cpm.optimizer import BAND_SLACK, _project  # noqa: E402
from conftest import (dense_fit, fd_gradient, per_row_ambiguity,  # noqa: E402
                      two_sided_objective_and_gradient)

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
    lo, hi = (1 - delta) * ref, (1 + delta) * ref
    weights = _beta2_weights(params.K, params.T)
    once, b2 = _project(params.coefficient_vector(), (lo, hi), weights)
    assert _project(once, (lo, hi), weights)[0] is once
    assert b2 == closed_form_rms_bandwidth(params.with_coefficients(once))
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


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), mtsfm=st.booleans(), n=st.integers(2, 24),
       n_doppler=st.integers(1, 6), n_negated=st.integers(0, 6))
def test_ambiguity_conjugate_symmetry_on_random_grids(seed, mtsfm, n, n_doppler,
                                                      n_negated):
    rng = np.random.default_rng(seed)
    code = PhaseCode(rng.uniform(-np.pi, np.pi, n))
    w = (synthesize_mtsfm(fit_fourier(code, float(n), n), 8 * n) if mtsfm
         else synthesize_pc(code, SamplingConfig(float(n), samples_per_chip=8)))
    nus = rng.uniform(-2.0, 2.0, n_doppler)
    grid = rng.permutation(np.concatenate([nus, -nus[:n_negated], [0.0]]))
    rows = ambiguity(w, grid)
    oracle = per_row_ambiguity(w, grid)
    assert np.max(np.abs(rows - oracle)) <= 1e-12
    # chi(-tau, -nu) = conj(chi(tau, nu)), on rows correlated one by one
    negated = per_row_ambiguity(w, -grid)
    assert np.max(np.abs(negated - np.conj(oracle[:, ::-1]))) <= 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), mtsfm=st.booleans(), n=st.integers(2, 24),
       bins=st.lists(st.integers(-40, 40), min_size=1, max_size=8),
       fractions=st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 0.875]),
                          min_size=1, max_size=3))
def test_ambiguity_on_shared_fractional_shifts(seed, mtsfm, n, bins, fractions):
    rng = np.random.default_rng(seed)
    code = PhaseCode(rng.uniform(-np.pi, np.pi, n))
    w = (synthesize_mtsfm(fit_fourier(code, float(n), n), 8 * n) if mtsfm
         else synthesize_pc(code, SamplingConfig(float(n), samples_per_chip=8)))
    # T n_fft / (2L) = n_fft / 16 bins per Hz, a power of two, so each row's
    # shift d is exact: whole bins plus one of a few fractions shared by rows
    bins_per_hz = w.T * _next_pow2(2 * w.n_samples) / (2 * w.n_samples)
    shifts = np.array(bins) + np.resize(fractions, len(bins))
    grid = np.concatenate([shifts, -shifts[:2], [0.0]]) / bins_per_hz
    rows = ambiguity(w, grid)
    assert np.max(np.abs(rows - per_row_ambiguity(w, grid))) <= 1e-12
    assert np.array_equal(rows[-1], acf(w).values)
    for i in range(len(bins), len(bins) + min(2, len(bins))):  # the -shifts rows
        if grid[i] != 0:  # mirrored from the first row at -grid[i]
            j = int(np.flatnonzero(grid == -grid[i])[0])
            assert np.array_equal(rows[i], np.conj(rows[j][::-1]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 200), K=st.integers(1, 300),
       T=st.floats(0.1, 100.0))
def test_fit_matches_dense_oracle_on_random_codes(seed, n, K, T):
    phases = np.random.default_rng(seed).uniform(-np.pi, np.pi, n)
    params = fit_fourier(PhaseCode(phases), T, K)
    oracle = dense_fit(phases, T, K)
    assert params.a0 == oracle.a0 and params.T == oracle.T
    assert np.max(np.abs(params.alpha - oracle.alpha)) <= 1e-12
    assert np.max(np.abs(params.beta - oracle.beta)) <= 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), K=st.integers(1, 64),
       oversample=st.integers(4, 16), T=st.floats(0.1, 100.0),
       scale=st.sampled_from([0.05, 1.0, 30.0]))
def test_horner_phase_matches_fft_phase_on_the_grid(seed, K, oversample, T, scale):
    rng = np.random.default_rng(seed)
    params = MtsfmParams(rng.uniform(-np.pi, np.pi), scale * rng.normal(size=K),
                         scale * rng.normal(size=K), T)
    n = oversample * K
    grid_phase = _phase_samples(params.a0, params.alpha, params.beta, n)
    # a0 / 2 is added last on both sides, so it enters the bound at face value
    bound = 1e-12 * (abs(params.a0) / 2 + np.sum(np.hypot(params.alpha, params.beta)))
    assert np.max(np.abs(mtsfm_phase(params, time_grid(n, T)) - grid_phase)) <= bound


# Each flag is a pair (values that must succeed, values that may fail); ""
# leaves the flag out.
_P = (["", "--p 2", "--p 10", "--p 400", "--p 700"], ["--p 1", "--p abc"])
_DELTA = (["", "--delta 0.2"], ["--delta 2"])
_DELTA_F = (["", "--delta-f 4"], ["--delta-f -1"])
_SAMPLES = (["", "--samples 448"], ["--samples 0", "--samples 27"])
_ITERATIONS = ([f"--max-iterations {n}" for n in range(5)], [])
_EXPORT = (["", "--export spectrum,acf,waveform,waveform-raw,phase"], ["--export phase,bogus"])
_GLOBAL = [(["", "--zero-pad 1"], ["--zero-pad 0"]), (["", "--format csv"], [])]
_COMMANDS = [
    ("gen-code barker", [(["--length 13"], ["--length 6"])]),
    ("gen-code mseq", [(["--degree 6"], ["--degree 1"]),
                       (["", "--seed 5"], ["--seed -1", "--seed 64"])]),
    ("fit {code}", [(["", "-K 7", "-K 3"], ["-K 0"])]),
    ("metrics {code}", [_P, _DELTA_F, _EXPORT]),
    ("metrics {params}", [_P, _DELTA_F, _SAMPLES, _EXPORT]),
    ("optimize {params}", [_P, _DELTA, _DELTA_F, _SAMPLES, _ITERATIONS]),
    ("reproduce mseq63", [_P, _DELTA, _ITERATIONS]),
]


@st.composite
def _argv(draw):
    """(argv, must_succeed): a command with succeeding values for its flags,
    half the time with one of them swapped for a value that may fail."""
    command, flags = draw(st.sampled_from(_COMMANDS))
    flags = _GLOBAL + flags
    picks = [draw(st.sampled_from(good)) for good, _ in flags]
    swap = draw(st.booleans())
    if swap:
        i = draw(st.sampled_from([i for i, (_, bad) in enumerate(flags) if bad]))
        picks[i] = draw(st.sampled_from(flags[i][1]))
    return " ".join(picks[:2] + [command] + picks[2:]).split(), not swap


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_argv())
@example(case=(["reproduce", "mseq63", "--p", "700"], True))
@example(case=(["reproduce", "mseq63", "--p", "400", "--max-iterations", "4"], True))
def test_cli_succeeds_or_fails_whole(case):
    """Any documented command either exits 0, or exits 1 with one error line,
    nothing on stdout and no file in its out-dir; with only succeeding flag
    values it exits 0."""
    argv, must_succeed = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        code, params, out_dir = tmp / "barker13.txt", tmp / "barker13_k7.json", tmp / "out"
        with code.open("w") as fh:
            dump_phase_code(barker_code(13), fh)
        params.write_text(BARKER13_FIT.to_json())
        argv = [a.format(code=code, params=params) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(["--out-dir", str(out_dir)] + argv)
        errors = [ln for ln in err.getvalue().splitlines() if ln.startswith("error: ")]
        if status == 0:
            assert not errors
        else:
            assert not must_succeed, err.getvalue()
            assert status == 1 and out.getvalue() == ""
            assert len(errors) == 1 and err.getvalue().endswith(errors[0] + "\n")
            assert not out_dir.exists() or not any(out_dir.rglob("*"))
