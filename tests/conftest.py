import numpy as np
import pytest

from mtsfm_cpm import (SamplingConfig, barker_code, fit_fourier,
                       generate_msequence, objective, synthesize_mtsfm,
                       synthesize_pc)

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
