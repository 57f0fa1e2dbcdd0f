import json
import tracemalloc

import numpy as np
import pytest

from mtsfm_cpm import (MtsfmParams, PhaseCode, compute_metrics, fit_fourier,
                       generate_msequence, min_harmonics, mtsfm_modulation,
                       mtsfm_phase, rms_bandwidth_spectral, spectral_compactness,
                       spectrum, synthesize_mtsfm)
from mtsfm_cpm.mtsfm import _beta2_weights
from mtsfm_cpm.waveform import _time_grid
from conftest import (MSEQ63_BAND, MSEQ63_T, closed_form_beta2, dense_fit,
                      dense_modulation, dense_phase)


def make_params(a0=0.0, alpha=(1.0,), beta=None, T=1.0):
    alpha = np.asarray(alpha, dtype=float)
    beta = np.zeros_like(alpha) if beta is None else np.asarray(beta, dtype=float)
    return MtsfmParams(a0, alpha, beta, T)


# --------------------------------------------------------------------------
# harmonic-count bound
# --------------------------------------------------------------------------

@pytest.mark.parametrize("n,expected", [(63, 32), (65, 33), (1, 1), (2, 1), (3, 2)])
def test_min_harmonics(n, expected):
    assert min_harmonics(n) == expected


def test_min_harmonics_rejects_zero():
    with pytest.raises(ValueError):
        min_harmonics(0)


# --------------------------------------------------------------------------
# fitting
# --------------------------------------------------------------------------

def test_fit_constant_code():
    c = 1.234
    params = fit_fourier(PhaseCode([c] * 5), T=2.0, K=6)
    assert params.a0 == pytest.approx(2 * c, abs=1e-12)
    assert np.max(np.abs(params.alpha)) < 1e-12
    assert np.max(np.abs(params.beta)) < 1e-12


def test_fit_step_code_analytic():
    # centered step of height pi: a0 = pi, alpha_k = 2/k for odd k, beta = 0
    params = fit_fourier(PhaseCode([0.0, np.pi]), T=3.0, K=9)
    assert params.a0 == pytest.approx(np.pi, abs=1e-12)
    k = np.arange(1, 10)
    expected = np.where(k % 2 == 1, 2.0 / k, 0.0)
    assert np.allclose(params.alpha, expected, atol=1e-12)
    assert np.max(np.abs(params.beta)) < 1e-12


def test_fit_converges_pointwise(mseq63_code):
    # sup error away from chip boundaries shrinks as K grows
    T, n = MSEQ63_T, mseq63_code.n
    t = _time_grid(n * 64, T)
    tb = T / n
    boundaries = -T / 2 + np.arange(1, n) * tb
    mask = np.ones(t.size, bool)
    for b in boundaries:
        mask &= np.abs(t - b) > tb / 4
    target = np.repeat(mseq63_code.phases, 64)
    errs = []
    for K in (n, 2 * n, 4 * n):
        params = fit_fourier(mseq63_code, T, K)
        errs.append(np.max(np.abs(mtsfm_phase(params, t) - target)[mask]))
    assert errs[0] > errs[1] > errs[2]


def test_fit_recovers_fourier_input():
    # phase sampled from a Fourier-form waveform, refit as piecewise data
    rng = np.random.default_rng(7)
    params = make_params(a0=0.7, alpha=rng.normal(0, 1, 3), beta=rng.normal(0, 1, 3))
    phi = mtsfm_phase(params, _time_grid(4096, params.T))
    refit = fit_fourier(phi, params.T, 3)
    assert abs(refit.a0 - params.a0) < 1e-6
    assert np.max(np.abs(refit.alpha - params.alpha)) < 1e-6
    assert np.max(np.abs(refit.beta - params.beta)) < 1e-6


@pytest.mark.parametrize("n, K", [(1, 5), (2, 9), (13, 7), (65, 33), (65, 65),
                                  (63, 2000), (1023, 512)])
def test_fft_fit_matches_dense_oracle(n, K):
    rng = np.random.default_rng(n * 10000 + K)
    code = PhaseCode(rng.uniform(-np.pi, np.pi, n))
    params = fit_fourier(code, 2.0, K)
    oracle = dense_fit(code.phases, 2.0, K)
    assert params.a0 == oracle.a0
    assert np.max(np.abs(params.alpha - oracle.alpha)) <= 1e-12
    assert np.max(np.abs(params.beta - oracle.beta)) <= 1e-12


def test_fft_fit_matches_dense_oracle_plain_array():
    rng = np.random.default_rng(4096)
    phases = np.cumsum(rng.normal(0, 0.1, 4096))
    params = fit_fourier(phases, 5.0, 300)
    oracle = dense_fit(phases, 5.0, 300)
    assert params.a0 == oracle.a0
    assert np.max(np.abs(params.alpha - oracle.alpha)) <= 1e-12
    assert np.max(np.abs(params.beta - oracle.beta)) <= 1e-12


def test_bessel_inequality(mseq63_code):
    phases = mseq63_code.phases
    variance = np.mean(phases ** 2) - np.mean(phases) ** 2
    partials = []
    for K in (5, 32, 200, 2000):
        params = fit_fourier(mseq63_code, MSEQ63_T, K)
        partials.append(np.sum((params.alpha ** 2 + params.beta ** 2) / 2))
        assert partials[-1] <= variance + 1e-12
    assert partials == sorted(partials)
    assert variance - partials[-1] < 0.01 * variance


# --------------------------------------------------------------------------
# phase and modulation evaluation
# --------------------------------------------------------------------------

def test_phase_zero_params():
    params = make_params(alpha=[0.0, 0.0])
    t = np.linspace(-0.5, 0.5, 11)
    assert np.all(mtsfm_phase(params, t) == 0.0)


def test_phase_single_tone():
    params = make_params(alpha=[1.0], T=4.0)
    assert mtsfm_phase(params, 1.0) == pytest.approx(1.0)  # sin(pi/2)


def test_phase_step_partial_sum_far_from_jump():
    params = fit_fourier(PhaseCode([0.0, np.pi]), T=1.0, K=33)
    assert abs(mtsfm_phase(params, -0.25)) < 0.05


def test_phase_rejects_outside_pulse():
    params = make_params(alpha=[0.3, 0.1])
    for fn in (mtsfm_phase, mtsfm_modulation):
        for t in (0.51, -0.51, [0.0, 0.75], np.nan, [0.0, np.inf], -np.inf):
            with pytest.raises(ValueError, match="time"):
                fn(params, t)


def test_modulation_zero_and_single_tone():
    assert mtsfm_modulation(make_params(alpha=[0.0]), 0.3) == 0.0
    a, T = 0.8, 2.0
    params = make_params(alpha=[a], T=T)
    assert mtsfm_modulation(params, 0.0) == pytest.approx(a / T)
    t = np.linspace(-T / 2, T / 2, 7)
    assert np.allclose(mtsfm_modulation(params, t), a / T * np.cos(2 * np.pi * t / T))


@pytest.mark.parametrize("K", [1, 2, 7, 32, 512, 2000])
@pytest.mark.parametrize("T", [1.0, 3.0, 63.0])
def test_phase_and_modulation_match_dense_oracles(K, T):
    rng = np.random.default_rng(K * 100 + int(T))
    params = MtsfmParams(rng.normal(), rng.normal(size=K), rng.normal(size=K), T)
    magnitude = np.hypot(params.alpha, params.beta)
    phase_scale = np.sum(magnitude)
    modulation_scale = np.sum(np.arange(1, K + 1) * magnitude) / T
    t = np.concatenate([[-T / 2, T / 2, 0.0], rng.uniform(-T / 2, T / 2, 200)])
    for times in (t, t[:1], -T / 2, T / 2, 0.3 * T, np.float64(-0.2 * T),
                  np.array(0.1 * T)):
        for fn, oracle, scale in ((mtsfm_phase, dense_phase, phase_scale),
                                  (mtsfm_modulation, dense_modulation, modulation_scale)):
            got = fn(params, times)
            if np.ndim(times):
                assert isinstance(got, np.ndarray) and got.shape == np.shape(times)
            else:
                assert type(got) is float
            assert np.max(np.abs(got - oracle(params, times))) <= 1e-12 * scale


def test_phase_and_modulation_memory_is_linear_in_times():
    # the degree-10 m-sequence fit: K = 512 harmonics on 32 * 1023 times,
    # where one dense len(t) x K float matrix alone takes 128 MiB
    code = generate_msequence(10)
    params = fit_fourier(code, float(code.n), min_harmonics(code.n))
    t = _time_grid(32 * code.n, params.T)
    assert (params.K, t.size) == (512, 32736)
    for fn in (mtsfm_phase, mtsfm_modulation):
        tracemalloc.start()
        try:
            fn(params, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20, (fn.__name__, peak)


def test_modulation_integrates_to_phase():
    quad = pytest.importorskip("scipy.integrate").quad
    rng = np.random.default_rng(3)
    params = make_params(a0=0.4, alpha=rng.normal(0, 0.5, 8), beta=rng.normal(0, 0.5, 8))
    T = params.T
    t_end = 0.31 * T
    integral, _ = quad(lambda u: mtsfm_modulation(params, u), -T / 2, t_end, limit=400)
    reconstructed = 2 * np.pi * integral + mtsfm_phase(params, -T / 2)
    assert abs(reconstructed - mtsfm_phase(params, t_end)) < 1e-6


# --------------------------------------------------------------------------
# synthesis
# --------------------------------------------------------------------------

def test_synthesize_zero_params_is_triangle_downstream():
    from mtsfm_cpm import acf
    params = make_params(alpha=np.zeros(4))
    w = synthesize_mtsfm(params, 64)
    assert np.all(w.samples == w.samples[0])
    a = acf(w)
    assert a.degenerate


def test_synthesize_rejects_undersampling():
    params = make_params(alpha=np.zeros(16))
    with pytest.raises(ValueError, match=str(4 * 16)):
        synthesize_mtsfm(params, 63)
    for n in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="n_samples"):
            synthesize_mtsfm(params, n)


def test_synthesize_energy_and_modulus(mseq63_fit32):
    w = synthesize_mtsfm(mseq63_fit32, 2016)
    assert abs(w.energy - 1.0) < 1e-12
    mags = np.abs(w.samples)
    assert np.max(np.abs(mags - mags[0])) < 1e-12 * mags[0]


def dense_basis(K, L):
    """sin/cos matrices of the harmonics on the L-point midpoint grid."""
    ang = 2 * np.pi * np.outer(_time_grid(L, 1.0), np.arange(1, K + 1))
    return np.sin(ang), np.cos(ang)


@pytest.mark.parametrize("K,L", [(1, 4), (7, 28), (7, 29), (32, 2016),
                                 (33, 2145), (64, 256)])
def test_fft_synthesis_matches_dense_basis(K, L):
    from mtsfm_cpm.mtsfm import _phase_adjoint, _phase_samples
    rng = np.random.default_rng(K * 1000 + L)
    params = MtsfmParams(0.7, rng.normal(size=K), rng.normal(size=K), 3.0)
    sin_b, cos_b = dense_basis(K, L)
    dense = params.a0 / 2 + sin_b @ params.alpha + cos_b @ params.beta
    phi = _phase_samples(params.a0, params.alpha, params.beta, L)
    assert np.max(np.abs(phi - dense)) <= 1e-12
    w = synthesize_mtsfm(params, L)
    assert np.max(np.abs(w.samples - np.exp(1j * dense) / np.sqrt(3.0))) <= 1e-12
    # the adjoint is the transposed dense basis
    dphi = rng.normal(size=L)
    adjoint = np.concatenate([sin_b.T @ dphi, cos_b.T @ dphi])
    assert np.max(np.abs(_phase_adjoint(dphi, K) - adjoint)) <= 1e-12 * np.max(np.abs(adjoint))


# --------------------------------------------------------------------------
# closed-form RMS bandwidth
# --------------------------------------------------------------------------

def test_beta2_zero_and_single_term():
    assert closed_form_beta2(make_params(alpha=[0.0, 0.0])) == 0.0
    a, T = 1.3, 2.0
    assert closed_form_beta2(make_params(alpha=[a], T=T)) == pytest.approx(
        (2 * np.pi / T) ** 2 * a ** 2 / 2)


def test_beta2_invariances():
    rng = np.random.default_rng(11)
    alpha, beta = rng.normal(0, 1, 6), rng.normal(0, 1, 6)
    base = closed_form_beta2(make_params(alpha=alpha, beta=beta))
    flipped = closed_form_beta2(make_params(alpha=-alpha, beta=beta))
    swapped = closed_form_beta2(make_params(alpha=beta, beta=alpha))
    assert flipped == base
    assert swapped == base


def test_beta2_matches_spectral(mseq63_fit32):
    # line-aligned spectrum (no padding) removes pulse-edge leakage
    w = synthesize_mtsfm(mseq63_fit32, 2016)
    beta2_spec = rms_bandwidth_spectral(spectrum(w, zero_pad_factor=1)) ** 2
    beta2_cf = closed_form_beta2(mseq63_fit32)
    assert beta2_spec == pytest.approx(beta2_cf, rel=0.02)


def test_beta2_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    params = make_params(alpha=rng.normal(0, 1, 5), beta=rng.normal(0, 1, 5), T=3.0)
    vec = params.coefficient_vector()
    grad = 2 * _beta2_weights(params.K, params.T) * vec
    # the function is exactly quadratic, so central differences carry no
    # truncation error and a large step keeps roundoff small
    h = 1e-3
    for j in range(vec.size):
        vp, vm = vec.copy(), vec.copy()
        vp[j] += h
        vm[j] -= h
        fd = (closed_form_beta2(params.with_coefficients(vp))
              - closed_form_beta2(params.with_coefficients(vm))) / (2 * h)
        assert fd == pytest.approx(grad[j], rel=1e-8, abs=1e-10)


# --------------------------------------------------------------------------
# invariances and serialization
# --------------------------------------------------------------------------

def test_a0_has_no_metric_effect(mseq63_fit32):
    reports = []
    for a0 in (0.0, 1.0, np.pi):
        params = MtsfmParams(a0, mseq63_fit32.alpha, mseq63_fit32.beta, mseq63_fit32.T)
        w = synthesize_mtsfm(params, 2016)
        reports.append(compute_metrics(w, MSEQ63_BAND))
    ref = reports[0]
    for rep in reports[1:]:
        assert rep.sc == pytest.approx(ref.sc, abs=1e-12)
        assert rep.psl_db == pytest.approx(ref.psl_db, abs=1e-9)
        assert rep.isr_db == pytest.approx(ref.isr_db, abs=1e-9)
        assert rep.beta_rms == pytest.approx(ref.beta_rms, abs=1e-9)


def test_sc_improves_with_smoothing(mseq63_pc, mseq63_fit32, mseq63_fit64):
    sc_pc = spectral_compactness(spectrum(mseq63_pc), MSEQ63_BAND)
    sc32 = spectral_compactness(spectrum(synthesize_mtsfm(mseq63_fit32, 2016)), MSEQ63_BAND)
    sc64 = spectral_compactness(spectrum(synthesize_mtsfm(mseq63_fit64, 2016)), MSEQ63_BAND)
    assert sc32 > sc64 > sc_pc


def test_json_round_trip_bit_exact():
    rng = np.random.default_rng(13)
    params = make_params(a0=np.pi, alpha=rng.normal(0, 1, 4), beta=rng.normal(0, 1, 4),
                         T=0.1234567890123456789)
    back = MtsfmParams.from_json(params.to_json())
    assert back.a0 == params.a0 and back.T == params.T
    assert np.array_equal(back.alpha, params.alpha)
    assert np.array_equal(back.beta, params.beta)
    keys = set(json.loads(params.to_json()))
    assert keys == {"T", "a0", "alpha", "beta"}


def test_numpy_scalars_are_stored_as_python_numbers():
    params = MtsfmParams(np.int64(1), [0.1], [0.1], np.int64(2))
    assert type(params.a0) is int and type(params.T) is int
    assert json.loads(params.to_json()) == {"T": 2, "a0": 1, "alpha": [0.1], "beta": [0.1]}
    params = MtsfmParams(np.float32(0.1), [0.1], [0.1], np.float64(63.0))
    assert type(params.a0) is float and params.a0 == float(np.float32(0.1))
    assert type(params.T) is float and params.T == 63.0
    assert MtsfmParams.from_json(params.to_json()).a0 == params.a0
    # a Python int stays an int, so "T": 63 is still written as 63
    assert '"T": 63,' in MtsfmParams(0.0, [0.1], [0.1], 63).to_json()


def test_params_validation():
    with pytest.raises(ValueError):
        MtsfmParams(0.0, np.array([1.0]), np.array([1.0, 2.0]), 1.0)
    with pytest.raises(ValueError):
        MtsfmParams(np.inf, np.array([1.0]), np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        MtsfmParams(0.0, np.array([1.0]), np.array([1.0]), -1.0)
    # a0 and T are real scalars: a list, an array or a bool is rejected by name
    for a0, T, name in (([1.0], 1.0, "a0"), (np.array(1.0), 1.0, "a0"),
                        (True, 1.0, "a0"), (0.0, [1.0], "T"), (0.0, True, "T")):
        with pytest.raises(ValueError, match=f"^{name} has the wrong type"):
            MtsfmParams(a0, np.array([1.0]), np.array([1.0]), T)
    with pytest.raises(ValueError, match="^a0 must be finite"):  # not a TypeError
        MtsfmParams(10 ** 400, np.array([1.0]), np.array([1.0]), 1.0)
    # in a vector, too, an int too large for a float is not finite: not an OverflowError
    for make, name in ((lambda: MtsfmParams(0.0, [10 ** 400], [0.0], 1.0), "alpha"),
                       (lambda: MtsfmParams(0.0, [0.0], [-10 ** 400], 1.0), "beta"),
                       (lambda: PhaseCode([10 ** 400]), "phases"),
                       (lambda: fit_fourier([0.0, 10 ** 400], 1.0, 1), "code")):
        with pytest.raises(ValueError, match=f"^{name} must be finite everywhere"):
            make()
    # a finite vector whose synthesized phase overflows: twice the phase bound is inf
    for alpha, beta in (([1e308], [0.0]), ([0.5e308], [0.4e308]), ([0.3e308] * 2, [0.3e308] * 2)):
        with pytest.raises(ValueError, match="^alpha and beta are too large"):
            MtsfmParams(1.0, alpha, beta, 63.0)
    MtsfmParams(1.0, [0.8e308], [0.0], 63.0)  # twice the bound is 1.6e308
    with pytest.raises(ValueError, match="^alpha must be one-dimensional"):
        MtsfmParams(0.0, np.ones((2, 2)), np.ones(4), 1.0)
    with pytest.raises(ValueError, match="^code must be one-dimensional"):
        fit_fourier(np.ones((2, 3)), 1.0, 1)
    with pytest.raises(ValueError, match="^expected 4 coefficients, got shape"):
        MtsfmParams(0.0, np.ones(2), np.ones(2), 1.0).with_coefficients(np.ones(5))
