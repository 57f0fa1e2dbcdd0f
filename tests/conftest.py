import math

import numpy as np
import pytest

from mtsfm_cpm import (MtsfmParams, SamplingConfig, barker_code,
                       closed_form_rms_bandwidth, closed_form_rms_bandwidth_gradient,
                       fit_fourier, generate_msequence, objective, synthesize_mtsfm,
                       synthesize_pc, time_grid)
from mtsfm_cpm.metrics import _band_weights, _correlation_fft, _cross_correlation
from mtsfm_cpm.mtsfm import _phase_adjoint, _phase_samples

# Reference configuration for the 63-chip worked example: this particular
# register/seed pair lands on the regression values the suite pins down.
MSEQ63_TAPS = 0b1100000
MSEQ63_SEED = 62
MSEQ63_T = 63.0
MSEQ63_BAND = 2.0  # null-to-null width of the chip envelope, 2/t_b with t_b = 1 s


@pytest.fixture(scope="session")
def mseq63_code():
    return generate_msequence(6, MSEQ63_TAPS, MSEQ63_SEED)


@pytest.fixture(scope="session")
def mseq63_pc(mseq63_code):
    return synthesize_pc(mseq63_code, SamplingConfig(MSEQ63_T))


@pytest.fixture(scope="session")
def mseq63_fit32(mseq63_code):
    return fit_fourier(mseq63_code, MSEQ63_T, 32)


@pytest.fixture(scope="session")
def mseq63_fit64(mseq63_code):
    return fit_fourier(mseq63_code, MSEQ63_T, 64)


@pytest.fixture(scope="session")
def mseq63_wave32(mseq63_fit32):
    return synthesize_mtsfm(mseq63_fit32, 63 * 32)


@pytest.fixture(scope="session")
def barker13_wave():
    return synthesize_pc(barker_code(13), SamplingConfig(13.0))


def fd_gradient(params, cfg, h):
    """Central finite-difference gradient of objective() over the 2K
    coefficients: the oracle for the analytic gradient."""
    vec = params.coefficient_vector()
    g = np.zeros(vec.size)
    for j in range(vec.size):
        vp = vec.copy(); vp[j] += h
        vm = vec.copy(); vm[j] -= h
        g[j] = (objective(params.with_coefficients(vp), cfg)
                - objective(params.with_coefficients(vm), cfg)) / (2 * h)
    return g


def dense_fit(phases, T, K):
    """Per-chip antiderivative fit from dense K x (N+1) cos/sin matrices of
    the chip edges: the oracle for the FFT fit in fit_fourier."""
    phases = np.asarray(phases, dtype=float)
    n = phases.size
    k = np.arange(1, K + 1, dtype=float)
    ang = 2 * np.pi * np.outer(k, -0.5 + np.arange(n + 1) / n)
    cos_e, sin_e = np.cos(ang), np.sin(ang)
    alpha = ((cos_e[:, :-1] - cos_e[:, 1:]) @ phases) / (np.pi * k)
    beta = ((sin_e[:, 1:] - sin_e[:, :-1]) @ phases) / (np.pi * k)
    return MtsfmParams(2.0 * float(np.mean(phases)), alpha, beta, T)


def _dense_angles(params, t):
    """2 pi k t / T as a dense len(t) x K matrix, plus the harmonic numbers k."""
    k = np.arange(1, params.K + 1, dtype=float)
    return 2 * np.pi * np.outer(np.atleast_1d(np.asarray(t, dtype=float)), k) / params.T, k


def dense_phase(params, t):
    """The Fourier-series phase from dense len(t) x K sin/cos matrices: the
    oracle for the Horner evaluation in mtsfm_phase."""
    ang, _ = _dense_angles(params, t)
    out = params.a0 / 2 + np.sin(ang) @ params.alpha + np.cos(ang) @ params.beta
    return out if np.ndim(t) else float(out[0])


def dense_modulation(params, t):
    """The instantaneous frequency from dense len(t) x K sin/cos matrices:
    the oracle for the Horner evaluation in mtsfm_modulation."""
    ang, k = _dense_angles(params, t)
    out = (np.cos(ang) @ (k * params.alpha) - np.sin(ang) @ (k * params.beta)) / params.T
    return out if np.ndim(t) else float(out[0])


def per_row_ambiguity(w, doppler_grid):
    """Every ambiguity row correlated on its own, none mirrored: the oracle
    for the mirrored rows of ambiguity()."""
    L = w.n_samples
    t = time_grid(L, w.T)
    rows = []
    for nu in np.asarray(doppler_grid, dtype=float):
        kernel = np.exp(1j * np.pi * nu * t)
        rows.append(_cross_correlation(_correlation_fft(w.samples * kernel),
                                       _correlation_fft(w.samples / kernel), L,
                                       w.sample_rate))
    return np.array(rows)


def _two_sided_null_vertex(lags, magnitudes):
    """First strict local minimum of |R| for tau > 0 on the whole lag grid,
    scanned lag by lag: (index, refined tau, dtau/d|R| at the 3 neighbours)."""
    center = lags.size // 2
    for i in range(center + 1, lags.size - 1):
        y0, y1, y2 = magnitudes[i - 1], magnitudes[i], magnitudes[i + 1]
        if y1 < y0 and y1 < y2:
            step = lags[i] - lags[i - 1]
            denom = y0 - 2 * y1 + y2
            offset = 0.5 * (y0 - y2) / denom if denom > 0 else 0.0
            dtau = np.zeros(3)
            if denom > 0 and abs(offset) < 1.0:
                dtau = step * np.array([y2 - y1, y0 - y2, y1 - y0]) / denom ** 2
            offset = float(np.clip(offset, -1.0, 1.0))
            return i, float(lags[i] + offset * step), dtau
    return None


def two_sided_objective_and_gradient(vec, a0, T, K, p, n_samples):
    """Sidelobe ratio and its gradient scored on all 2L+1 lags, with the
    complex exponential synthesis and the complex inverse FFT of the lag
    kernel: the oracle for optimizer._objective_and_gradient."""
    alpha, beta = vec[:K], vec[K:]
    samples = np.exp(1j * _phase_samples(a0, alpha, beta, n_samples)) / math.sqrt(T)
    sample_rate = n_samples / T
    spec = _correlation_fft(samples)
    values = _cross_correlation(spec, spec, n_samples, sample_rate)
    lags = np.concatenate([[-T], np.arange(-(n_samples - 1), n_samples) / sample_rate, [T]])
    mag = np.abs(values)
    vertex = _two_sided_null_vertex(lags, mag)
    if vertex is None:
        params = MtsfmParams(a0, alpha, beta, T)
        scale = (T / (2 * np.pi)) ** 2
        return (1e3 - scale * closed_form_rms_bandwidth(params),
                -scale * closed_form_rms_bandwidth_gradient(params))
    i, dtau, d_tau = vertex
    magp = mag ** p
    w_num = _band_weights(lags, dtau, float(lags[-1]))
    w_den = _band_weights(lags, 0.0, dtau)
    num = float(w_num @ magp)
    den = float(w_den @ magp)
    ratio = (num / den) ** (2.0 / p)
    d_power = ratio * (w_num / num - w_den / den) * mag ** (p - 2)
    at_null = float(np.interp(dtau, lags, magp))
    d_ratio_tau = -(2.0 / p) * ratio * at_null * (1 / num + 1 / den)
    near = mag[i - 1:i + 2]
    d_power[i - 1:i + 2] += np.divide(d_ratio_tau * d_tau, 2 * near,
                                      out=np.zeros(3), where=near > 0)
    lag0 = n_samples
    q = 2 * d_power[lag0:lag0 + n_samples] * np.conj(values[lag0:lag0 + n_samples])
    kernel = 2 * spec.size * np.fft.ifft(q, spec.size).real
    corr = np.fft.ifft(spec * kernel)[:n_samples]
    dphi = np.imag(np.conj(samples) * corr) / sample_rate
    return ratio, _phase_adjoint(dphi, K)
