import numpy as np
import pytest

from mtsfm_cpm import (MtsfmParams, SamplingConfig, barker_code, fit_fourier,
                       generate_msequence, objective, synthesize_mtsfm,
                       synthesize_pc, time_grid)
from mtsfm_cpm.metrics import _correlation_fft, _cross_correlation

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
