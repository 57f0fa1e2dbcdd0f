"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one PASS line on success (run with -s or look at captured
output). Criterion 5 needs the transcribed 65-chip polyphase Barker code in
data/polyphase_barker_n65.txt and is skipped with an explicit report when the
file is absent.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

import mtsfm_cpm as m
from mtsfm_cpm.mtsfm import _beta2_weights
from mtsfm_cpm.optimizer import _project
from conftest import MSEQ63_BAND, MSEQ63_SEED, MSEQ63_T, closed_form_beta2

POLY65_FILE = Path(__file__).resolve().parents[1] / "data" / "polyphase_barker_n65.txt"
DEGREE6_PRIMITIVE = (0b1000010, 0b1011010, 0b1100000, 0b1100110, 0b1101100, 0b1110010)


def ok(criterion, text):
    print(f"PASS criterion {criterion}: {text}")


def reference_sc_set(taps):
    code = m.generate_msequence(6, taps, MSEQ63_SEED)
    pc = m.synthesize_pc(code, m.SamplingConfig(MSEQ63_T))
    sc = {"pc": m.spectral_compactness(m.spectrum(pc), MSEQ63_BAND)}
    for K in (32, 64):
        w = m.synthesize_mtsfm(m.fit_fourier(code, MSEQ63_T, K), 63 * 32)
        sc[K] = m.spectral_compactness(m.spectrum(w), MSEQ63_BAND)
    return sc


def test_criterion_1_harmonic_bound():
    assert m.min_harmonics(63) == 32
    assert m.min_harmonics(65) == 33
    ok(1, "min_harmonics(63)=32, min_harmonics(65)=33")


def test_criterion_2_spectral_compactness_regression():
    start = time.perf_counter()
    for taps in DEGREE6_PRIMITIVE:
        sc = reference_sc_set(taps)
        assert sc["pc"] == pytest.approx(0.9027, abs=0.010), f"taps 0b{taps:b}"
        assert sc[64] == pytest.approx(0.9151, abs=0.015), f"taps 0b{taps:b}"
        assert sc[32] == pytest.approx(0.9885, abs=0.015), f"taps 0b{taps:b}"
        assert sc[32] > sc[64] > sc["pc"], f"taps 0b{taps:b}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    ok(2, f"SC(PC)/SC(K=64)/SC(K=32) in band with strict ordering for all "
          f"{len(DEGREE6_PRIMITIVE)} degree-6 primitive polynomials "
          f"[{elapsed:.1f} s]")


def test_criterion_3_sidelobe_regression(mseq63_pc, mseq63_wave32):
    start = time.perf_counter()
    a_pc = m.acf(mseq63_pc)
    isr_pc, psl_pc = m.isr(a_pc), m.psl(a_pc)
    a_32 = m.acf(mseq63_wave32)
    isr_32, psl_32 = m.isr(a_32), m.psl(a_32)
    elapsed = time.perf_counter() - start
    assert isr_pc == pytest.approx(-3.99, abs=1.5)
    assert psl_pc == pytest.approx(-15.91, abs=1.5)
    assert isr_32 == pytest.approx(-1.43, abs=1.5)
    assert psl_32 == pytest.approx(-10.73, abs=1.5)
    assert elapsed < 10.0
    ok(3, f"PC ISR={isr_pc:.2f}, PSL={psl_pc:.2f}; K=32 ISR={isr_32:.2f}, "
          f"PSL={psl_32:.2f} dB [{elapsed:.1f} s]")


@pytest.fixture(scope="module")
def optimized63(mseq63_fit32):
    cfg = m.OptimizerConfig(p=10, delta=0.1, max_iterations=400, n_samples=63 * 32)
    start = time.perf_counter()
    result = m.optimize(mseq63_fit32, cfg)
    elapsed = time.perf_counter() - start
    return cfg, result, elapsed


def test_criterion_4_optimization(mseq63_fit32, optimized63):
    cfg, result, elapsed = optimized63
    w_init = m.synthesize_mtsfm(mseq63_fit32, 63 * 32)
    w_opt = m.synthesize_mtsfm(result.params, 63 * 32)
    psl_init = m.psl(m.acf(w_init))
    psl_opt = m.psl(m.acf(w_opt))
    sc_opt = m.spectral_compactness(m.spectrum(w_opt), MSEQ63_BAND)
    assert psl_opt <= psl_init - 8.0
    assert sc_opt >= 0.96
    for record in result.trace:
        assert record.constraint_residual <= 1e-12
    assert elapsed < 600.0
    ok(4, f"PSL {psl_init:.2f} -> {psl_opt:.2f} dB (improvement "
          f"{psl_init - psl_opt:.2f} dB), SC={sc_opt:.4f}, "
          f"{len(result.trace)} feasible trace records [{elapsed:.0f} s]")


def test_criterion_4_converges_on_the_band(optimized63):
    # the L-BFGS stop is stationarity on the band, reached inside the cap
    _, result, _ = optimized63
    w_opt = m.synthesize_mtsfm(result.params, 63 * 32)
    assert result.converged and result.termination_reason == "converged"
    assert m.psl(m.acf(w_opt)) <= -27.0
    assert result.n_evaluations < 401


def test_mainlobe_preserved_by_constraint(mseq63_fit32, optimized63):
    # empirical envelope implied by pinning the squared RMS bandwidth
    _, result, _ = optimized63
    dtau_init = m.acf(m.synthesize_mtsfm(mseq63_fit32, 63 * 32)).first_null
    dtau_opt = m.acf(m.synthesize_mtsfm(result.params, 63 * 32)).first_null
    assert abs(dtau_opt - dtau_init) / dtau_init <= 0.25


def test_optimized_waveform_matches_reported_values(optimized63):
    _, result, _ = optimized63
    w = m.synthesize_mtsfm(result.params, 63 * 32)
    assert m.spectral_compactness(m.spectrum(w), MSEQ63_BAND) == pytest.approx(
        0.9813, abs=0.015)
    assert m.psl(m.acf(w)) <= -20.0


def test_criterion_5_polyphase_tradeoff():
    if not POLY65_FILE.exists():
        pytest.skip(
            f"criterion 5 skipped: {POLY65_FILE} is absent. Transcribe the "
            "65-chip polyphase Barker code into that file (one radian value "
            "per line) to enable this check; see data/README.md.")
    code = m.load_phase_code(POLY65_FILE)
    assert code.n == 65
    T = float(code.n)
    band = 2.0 * code.n / T
    n_samples = code.n * 32
    cfg = m.OptimizerConfig(p=10, delta=0.1, max_iterations=400, n_samples=n_samples)
    results = {}
    for K in (33, 65):
        res = m.optimize(m.fit_fourier(code, T, K), cfg)
        w = m.synthesize_mtsfm(res.params, n_samples)
        results[K] = (m.psl(m.acf(w)), m.spectral_compactness(m.spectrum(w), band))
    psl33, sc33 = results[33]
    psl65, sc65 = results[65]
    assert psl65 < psl33
    assert sc33 > sc65
    assert sc65 == pytest.approx(0.834, abs=0.03)
    ok(5, f"optimized K=65 PSL {psl65:.2f} < K=33 PSL {psl33:.2f} dB; "
          f"SC(K=33)={sc33:.4f} > SC(K=65)={sc65:.4f}")


def test_criterion_6_oracle_equivalences(mseq63_code, mseq63_pc, barker13_wave):
    # FFT-based ACF against the O(L^2) time-domain sum, up to the stated size
    dense = m.synthesize_pc(mseq63_code, m.SamplingConfig(MSEQ63_T, samples_per_chip=65))
    for w in (barker13_wave, mseq63_pc, dense):
        assert w.n_samples <= 4096
        s = w.samples
        L = s.size
        direct = np.zeros(2 * L + 1, dtype=complex)
        for lag in range(-(L - 1), L):
            if lag >= 0:
                direct[lag + L] = np.sum(s[lag:] * np.conj(s[: L - lag]))
            else:
                direct[lag + L] = np.sum(s[: L + lag] * np.conj(s[-lag:]))
        direct /= w.sample_rate
        dev = np.max(np.abs(m.acf(w).values - direct))
        assert dev < 1e-9

    # closed-form squared RMS bandwidth against the spectral moment
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(5):
        params = m.MtsfmParams(0.0, rng.normal(0, 1, 32), rng.normal(0, 1, 32), 1.0)
        w = m.synthesize_mtsfm(params, 4096)
        spec2 = m.rms_bandwidth_spectral(m.spectrum(w, zero_pad_factor=1)) ** 2
        closed = closed_form_beta2(params)
        worst = max(worst, abs(spec2 - closed) / closed)
    assert worst < 0.02

    psl13 = m.psl(m.acf(barker13_wave))
    assert psl13 == pytest.approx(-22.28, abs=0.1)
    ok(6, f"ACF oracle dev < 1e-9; beta^2 closed-vs-spectral worst "
          f"{worst:.2%}; Barker-13 PSL {psl13:.2f} dB")


def test_criterion_7_invariant_suite(mseq63_code, mseq63_pc, mseq63_fit32,
                                     mseq63_wave32, barker13_wave):
    # unit energy
    for w in (mseq63_pc, mseq63_wave32, barker13_wave):
        assert abs(w.energy - 1.0) <= 1e-12
    # Parseval
    for w in (mseq63_pc, mseq63_wave32):
        sp = m.spectrum(w)
        assert abs(np.sum(sp.psd) * sp.df - 1.0) <= 1e-9
    # ACF symmetry and peak
    for w in (mseq63_pc, mseq63_wave32):
        a = m.acf(w)
        assert np.max(np.abs(a.magnitudes - a.magnitudes[::-1])) <= 1e-9
        assert abs(a.magnitudes[a.lags.size // 2] - 1.0) <= 1e-9
    # p = 2 ratio is the plain integrated ratio, same code path
    for w in (mseq63_pc, barker13_wave):
        a = m.acf(w)
        assert m.gisr(a, 2) == m.isr(a)
    # constant-term and global-phase invariance
    base = m.compute_metrics(mseq63_wave32, MSEQ63_BAND)
    for a0 in (1.0, np.pi):
        params = m.MtsfmParams(a0, mseq63_fit32.alpha, mseq63_fit32.beta, MSEQ63_T)
        rep = m.compute_metrics(m.synthesize_mtsfm(params, 63 * 32), MSEQ63_BAND)
        assert rep.sc == pytest.approx(base.sc, abs=1e-12)
        assert rep.psl_db == pytest.approx(base.psl_db, abs=1e-9)
        assert rep.isr_db == pytest.approx(base.isr_db, abs=1e-9)
    shifted = m.PhaseCode(mseq63_code.phases + 1.23)
    rep = m.compute_metrics(m.synthesize_pc(shifted, m.SamplingConfig(MSEQ63_T)),
                            MSEQ63_BAND)
    base_pc = m.compute_metrics(mseq63_pc, MSEQ63_BAND)
    assert rep.psl_db == pytest.approx(base_pc.psl_db, abs=1e-9)
    assert rep.sc == pytest.approx(base_pc.sc, abs=1e-12)
    # optimizer determinism: byte-identical traces
    small = m.OptimizerConfig(max_iterations=4, n_samples=13 * 16)
    init = m.fit_fourier(m.barker_code(13), 13.0, 7)
    t1 = m.trace_csv(m.optimize(init, small).trace)
    t2 = m.trace_csv(m.optimize(init, small).trace)
    assert t1.encode() == t2.encode()
    # projection idempotence, bit for bit
    b2 = closed_form_beta2(mseq63_fit32)
    band = (1.5 * b2, 2.0 * b2)
    weights = _beta2_weights(mseq63_fit32.K, mseq63_fit32.T)
    once, _ = _project(mseq63_fit32.coefficient_vector(), band, weights)
    twice, _ = _project(once, band, weights)
    assert np.array_equal(once, twice)
    # gradient Taylor check at h = 5e-5
    g = m.gradient(init, small)
    f0 = m.objective(init, small)
    h = 5e-5
    vec = init.coefficient_vector()
    for j in np.argsort(-np.abs(g))[:3]:
        probe = vec.copy()
        probe[j] += h
        fp = m.objective(init.with_coefficients(probe), small)
        assert (fp - f0) == pytest.approx(h * g[j], rel=0.05)
    ok(7, "energy/Parseval/symmetry/R(0) bounds, exact p=2 identity, phase "
          "invariances, deterministic traces, idempotent projection, "
          "gradient Taylor check")


def test_criterion_8_degenerate_handling():
    T = 1.0
    L = 1024
    w = m.SampledWaveform(np.ones(L, dtype=complex) / math.sqrt(T), T)
    a = m.acf(w)
    assert a.degenerate and a.first_null == a.lags[-1]
    triangle = 1 - np.abs(a.lags) / T
    assert np.max(np.abs(a.magnitudes - triangle)) < 1e-6
    forced = dataclasses.replace(a, null=T)
    area = m.mainlobe_area(forced)
    assert area == pytest.approx(2 * T / 3, abs=1e-6)
    rep = m.compute_metrics(w, 8.0)
    assert rep.degenerate and rep.psl_db is None
    ok(8, f"degenerate flag set, triangle ACF within 1e-6, mainlobe integral "
          f"{area:.8f} = 2T/3 within 1e-6")
