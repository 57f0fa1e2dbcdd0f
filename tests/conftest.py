import cmath
import math

import numpy as np
import pytest

from mtsfm_cpm import (MtsfmParams, SamplingConfig, barker_code, fit_fourier,
                       generate_msequence, synthesize_mtsfm, synthesize_pc)
from mtsfm_cpm.metrics import (MetricsReport, _acf_spectral, _autocorrelation, _band_weights,
                               _conj_autocorrelation, _correlation_fft, _lag_window, _next_pow2,
                               _shift_spectra, acf, gisr, isr)
from mtsfm_cpm.mtsfm import _beta2, _beta2_weights, _phase_adjoint, _phase_samples
from mtsfm_cpm.optimizer import _evaluate, _start
from mtsfm_cpm.waveform import _time_grid

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
def mseq511_pc():
    """L = 16352 samples, correlation FFT size 32768."""
    return synthesize_pc(generate_msequence(9), SamplingConfig(511.0))


@pytest.fixture(scope="session")
def barker13_wave():
    return synthesize_pc(barker_code(13), SamplingConfig(13.0))


def fft_calls(monkeypatch):
    """Record every np.fft fft, ifft, rfft and irfft call as (kind, shape):
    the shape of the input with its last axis, the one transformed, replaced
    by the size n when it is given."""
    calls = []

    def counting(kind, fn):
        def counted(a, n=None, *args, **kwargs):
            calls.append((kind, np.shape(a)[:-1] + (np.shape(a)[-1] if n is None else n,)))
            return fn(a, n, *args, **kwargs)
        return counted

    for kind in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, kind, counting(kind, getattr(np.fft, kind)))
    return calls


def weak_tones():
    """A weak two-tone phase keeps the ACF a monotone triangle: no interior null."""
    return MtsfmParams(0.0, np.array([0.05, 0.0, 0.0, 0.0]),
                       np.array([0.0, 0.02, 0.0, 0.0]), 2.0)


def underflowing_tones():
    """Two tones whose sidelobe peak m reads m (1 / m) = 1 - 2^-53, so at
    p = 10^20 the sidelobe power sum scaled by m underflows to 0."""
    return MtsfmParams(0.0, np.array([0.26841707970891465, 0.35867194917034445]),
                       np.array([1.3224574697668332, -0.013914668524093734]), 1.0)


def closed_form_beta2(params):
    """The squared RMS bandwidth of params from its coefficients, as the
    optimizer's band constraint computes it."""
    return _beta2(params.coefficient_vector(), _beta2_weights(params.K, params.T))


def fd_gradient(params, cfg, h):
    """Central finite-difference gradient over the 2K coefficients of the
    sidelobe ratio on params' own mainlobe region, held fixed as an
    optimize() run holds it: the oracle for the analytic gradient."""
    run = _start(params, cfg)[0]
    vec = params.coefficient_vector()
    g = np.zeros(vec.size)
    for j in range(vec.size):
        vp = vec.copy(); vp[j] += h
        vm = vec.copy(); vm[j] -= h
        g[j] = (_evaluate(vp, run)[0] - _evaluate(vm, run)[0]) / (2 * h)
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


def _cross_correlation(fu, fv, L, sample_rate):
    """Lag-domain cross correlation sum_n u[n+m] conj(v[n]) / f_s from the
    _correlation_fft spectra of u and v by one complex inverse FFT, lags
    -(L-1)..(L-1), with exact zeros appended at lags -L and +L: the
    complex-path oracle for metrics._autocorrelation."""
    return _lag_window(np.fft.ifft(fu * np.conj(fv)), L, 1.0 / sample_rate,
                       np.empty(2 * L + 1, dtype=complex))


def complex_acf(w):
    """acf(w).values by the complex path: the oracle for metrics.acf."""
    spec = _correlation_fft(w.samples)
    return _cross_correlation(spec, spec, w.n_samples, w.sample_rate)


def per_row_ambiguity(w, doppler_grid):
    """Every ambiguity row correlated on its own from its own modulated
    samples, none mirrored and none spectrum-shifted: the oracle for
    ambiguity()."""
    L = w.n_samples
    t = _time_grid(L, w.T)
    rows = []
    for nu in np.asarray(doppler_grid, dtype=float):
        kernel = np.exp(1j * np.pi * nu * t)
        rows.append(_cross_correlation(_correlation_fft(w.samples * kernel),
                                       _correlation_fft(w.samples / kernel), L,
                                       w.sample_rate))
    return np.array(rows)


def row_at_a_time_ambiguity(w, doppler_grid):
    """ambiguity() with each correlated row inverse-transformed on its own:
    the product of np.roll copies of its class's spectra, one np.fft.ifft,
    then _lag_window. Negated rows are mirrored and the nu = 0 row
    autocorrelated as ambiguity() does, and a repeated row is correlated
    again: the oracle for its sliced products and batched inverse FFT."""
    grid = np.asarray(doppler_grid, dtype=float)
    L = w.n_samples
    n_fft = _next_pow2(2 * L)
    t0 = float(_time_grid(L, w.T)[0])
    rows = np.empty((grid.size, 2 * L + 1), dtype=complex)
    first = {}
    for k, nu in enumerate(grid.tolist()):
        if nu != 0 and -nu in first:
            rows[k] = np.conj(rows[first[-nu]][::-1])
        else:
            d = nu * (w.T * n_fft / (2 * L))
            i = math.floor(d)
            fu, fvc = (s[:n_fft] for s in _shift_spectra(w.samples, d - i, n_fft))
            if nu == 0:
                rows[k] = _autocorrelation(np.conj(_conj_autocorrelation(fu, L, w.sample_rate)))
            else:
                _lag_window(np.fft.ifft(np.roll(fu, i) * np.roll(fvc, -i)), L,
                            cmath.exp(2j * math.pi * nu * t0) / w.sample_rate, rows[k])
        first.setdefault(nu, k)
    return rows


def _two_sided_null(lags, magnitudes):
    """First strict local minimum of |R| for tau > 0 on the whole lag grid,
    scanned lag by lag and refined parabolically."""
    center = lags.size // 2
    for i in range(center + 1, lags.size - 1):
        y0, y1, y2 = magnitudes[i - 1], magnitudes[i], magnitudes[i + 1]
        if y1 < y0 and y1 < y2:
            denom = y0 - 2 * y1 + y2
            offset = 0.5 * (y0 - y2) / denom if denom > 0 else 0.0
            return float(lags[i] + np.clip(offset, -1.0, 1.0) * (lags[i] - lags[i - 1]))
    raise AssertionError("the oracle needs an ACF with an interior null")


def two_sided_objective_and_gradient(vec, a0, T, K, p, n_samples):
    """Sidelobe ratio on the waveform's own mainlobe region, and its gradient
    with that region held fixed, scored on all 2L+1 lags, with the complex
    exponential synthesis and the complex inverse FFT of the lag kernel:
    the oracle for optimizer._evaluate."""
    alpha, beta = vec[:K], vec[K:]
    samples = np.exp(1j * _phase_samples(a0, alpha, beta, n_samples)) / math.sqrt(T)
    sample_rate = n_samples / T
    spec = _correlation_fft(samples)
    values = _cross_correlation(spec, spec, n_samples, sample_rate)
    lags = np.concatenate([[-T], np.arange(-(n_samples - 1), n_samples) / sample_rate, [T]])
    mag = np.abs(values)
    dtau = _two_sided_null(lags, mag)
    magp = mag ** p
    w_num = _band_weights(lags, dtau, float(lags[-1]))
    w_den = _band_weights(lags, 0.0, dtau)
    num = float(w_num @ magp)
    den = float(w_den @ magp)
    ratio = (num / den) ** (2.0 / p)
    d_power = ratio * (w_num / num - w_den / den) * mag ** (p - 2)
    lag0 = n_samples
    q = 2 * d_power[lag0:lag0 + n_samples] * np.conj(values[lag0:lag0 + n_samples])
    kernel = 2 * spec.size * np.fft.ifft(q, spec.size).real
    corr = np.fft.ifft(spec * kernel)[:n_samples]
    dphi = np.imag(np.conj(samples) * corr) / sample_rate
    return ratio, _phase_adjoint(dphi, K)


def two_sided_report(w, delta_f, p=10, zero_pad_factor=4):
    """The report composed from the two-sided acf(w): its first_null, isr and
    gisr, the PSL as the largest |R| over every lag >= the null and the
    mainlobe area as the trapezoid integral of |R|^2 over the whole lag grid
    from -null to +null, with SC and the RMS bandwidth from _acf_spectral of
    acf(w).values at the lags >= 0: the oracle for compute_metrics, which
    builds no two-sided ACF."""
    a = acf(w)
    L = w.n_samples
    n = L * zero_pad_factor
    df = 1.0 / (n * (1.0 / w.sample_rate))
    span = 2 * ((n - n // 2 - 1) * df)
    band = min(delta_f, span)
    sc, beta = _acf_spectral(a.values[L:], n, w.sample_rate, df, band / 2)
    if a.degenerate:
        sidelobes = (None,) * 5
    else:
        dtau = a.first_null
        area = float(_band_weights(a.lags, -dtau, dtau) @ a.magnitudes ** 2)
        peak = 20 * math.log10(float(a.magnitudes[a.lags >= dtau].max()))
        sidelobes = (dtau, area, peak, isr(a), gisr(a, p))
    return MetricsReport(min(max(sc, 0.0), 1.0), band, beta, *sidelobes,
                         p=p, sc_clamped=delta_f > span)


def spectrum_csv_oracle(sp):
    """A row-by-row f-string loop: the oracle for metrics.spectrum_csv."""
    lines = ["f_hz,psd"]
    for f, v in zip(sp.freqs.tolist(), sp.psd.tolist()):
        lines.append(f"{f!r},{v!r}")
    return "\n".join(lines) + "\n"


def acf_csv_oracle(a):
    """A row-by-row f-string loop: the oracle for metrics.acf_csv."""
    lines = ["tau_s,abs_r,arg_r"]
    for tau, v in zip(a.lags.tolist(), a.values.tolist()):
        lines.append(f"{tau!r},{abs(v)!r},{math.atan2(v.imag, v.real)!r}")
    return "\n".join(lines) + "\n"


def waveform_csv_oracle(w):
    """A row-by-row f-string loop: the oracle for waveform.waveform_csv."""
    lines = ["t,re,im"]
    for t, s in zip(w.times.tolist(), w.samples.tolist()):
        lines.append(f"{t!r},{s.real!r},{s.imag!r}")
    return "\n".join(lines) + "\n"


def phase_csv_oracle(times, phases):
    """A row-by-row f-string loop: the oracle for cli._phase_csv."""
    lines = ["t_s,phase_rad"]
    for t, p in zip(times.tolist(), np.asarray(phases).tolist()):
        lines.append(f"{t!r},{p!r}")
    return "\n".join(lines) + "\n"
