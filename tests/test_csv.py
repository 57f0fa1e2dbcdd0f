"""The CSV writers against their row-by-row f-string oracles, byte for byte,
with the grid-column cache cold and warm."""

import math

import numpy as np
import pytest

from mtsfm_cpm import (AcfResult, SampledWaveform, SamplingConfig, Spectrum, acf,
                       acf_csv, pc_phase, spectrum, spectrum_csv, synthesize_pc,
                       waveform_csv)
from mtsfm_cpm.cli import _mtsfm_waveform, _phase_csv
from mtsfm_cpm.metrics import _mirrored_text
from mtsfm_cpm.waveform import _grid_text

from conftest import (MSEQ63_T, acf_csv_oracle, phase_csv_oracle,
                      spectrum_csv_oracle, waveform_csv_oracle)


def lines(text):
    """The lines of a CSV text with their newlines: equal lists mean equal
    texts, and a mismatch is reported by its first differing line."""
    return text.splitlines(keepends=True)


def writer_cases(w, phase):
    """(writer text, oracle text) thunks for the four writers on one waveform."""
    sp, a = spectrum(w), acf(w)
    return [(lambda: spectrum_csv(sp), lambda: spectrum_csv_oracle(sp)),
            (lambda: acf_csv(a), lambda: acf_csv_oracle(a)),
            (lambda: waveform_csv(w), lambda: waveform_csv_oracle(w)),
            (lambda: _phase_csv(w.times, phase), lambda: phase_csv_oracle(w.times, phase))]


@pytest.fixture(params=["pc", "k32", "degenerate"])
def waveform_and_phase(request, mseq63_code, mseq63_pc, mseq63_fit32):
    if request.param == "pc":
        return mseq63_pc, pc_phase(mseq63_code, MSEQ63_T, mseq63_pc.times)
    if request.param == "k32":
        return _mtsfm_waveform(mseq63_fit32, 63 * 32)
    L = 1024
    return SampledWaveform(np.ones(L, dtype=complex), 1.0, float(L)), np.zeros(L)


def test_writers_match_oracles_cold_and_warm(waveform_and_phase):
    for writer, oracle in writer_cases(*waveform_and_phase):
        expected = lines(oracle())
        _grid_text.cache_clear()
        assert lines(writer()) == expected  # cold
        misses = _grid_text.cache_info().misses
        assert lines(writer()) == expected  # warm
        assert _grid_text.cache_info().misses == misses


def test_equal_size_grids_of_different_pulse_length_do_not_share_a_column(mseq63_code):
    waves = [synthesize_pc(mseq63_code, SamplingConfig(T)) for T in (63.0, 31.5)]
    assert waves[0].n_samples == waves[1].n_samples
    _grid_text.cache_clear()
    for w in waves:  # the second pulse runs with the first one's columns cached
        for writer, oracle in writer_cases(w, pc_phase(mseq63_code, w.T, w.times)):
            assert lines(writer()) == lines(oracle())
    assert _grid_text.cache_info().hits > 0


def test_negative_zero_and_nan_round_trip():
    # -0.0 and 0.0 differ in their bytes, so each grid gets its own column
    grids = [np.array([0.0, math.nan, 1.0]), np.array([-0.0, math.nan, 1.0])]
    data = np.array([-0.0, math.nan, 0.0])
    _grid_text.cache_clear()
    for grid in grids:
        assert _phase_csv(grid, data) == phase_csv_oracle(grid, data)
        sp = Spectrum(grid, data, 0.0)
        assert spectrum_csv(sp) == spectrum_csv_oracle(sp)
        a = AcfResult(grid, np.array([complex(-0.0, -0.0), complex(math.nan, 0.0), 1.0]),
                      1.0, False)
        assert acf_csv(a) == acf_csv_oracle(a)
    assert _phase_csv(grids[1], data).split("\n")[1] == "-0.0,-0.0"
    assert _grid_text.cache_info().misses == 2
    w = SampledWaveform(np.array([complex(1.0, -0.0), complex(-1.0, 0.0)]), 1.0, 2.0)
    assert waveform_csv(w) == waveform_csv_oracle(w)
    assert ",-0.0\n" in waveform_csv(w)


def mirrored_pairs_acf(center):
    """A user-built AcfResult that is not Hermitian: each first-half value
    against its mirror has |R| or arg or both equal, negated or not, with
    signed zeros and NaN; center (None for an even length) sits between."""
    pairs = [(complex(1.0, -0.0), complex(1.0, 0.0)),  # arg -0.0 against 0.0
             (complex(1.0, 0.0), complex(1.0, 0.0)),  # arg 0.0 is not -0.0
             (complex(-1.0, -0.0), complex(-1.0, 0.0)),  # arg -pi against pi
             (1j, complex(1.0, 0.0)),  # |R| equal, arg not negated
             (complex(0.5, 0.25), complex(0.5, 0.25)),  # |R| equal, arg not negated
             (complex(3.0, -4.0), complex(4.0, 3.0)),  # |R| equal, arg not negated
             (complex(-0.0, -0.0), complex(0.0, 0.0)),  # arg -pi against 0.0
             (complex(0.0, -0.0), complex(0.0, 0.0)),  # arg -0.0 against 0.0
             (complex(math.nan, 0.0), complex(math.nan, 0.0)),
             (complex(math.nan, math.nan), complex(math.nan, -math.nan)),
             (complex(math.inf, -1.0), complex(math.inf, 1.0)),
             (complex(0.1, -0.2), complex(0.1, 0.2 + 2 ** -55))]  # arg off by an ULP
    head = [u for u, _ in pairs]
    tail = [v for _, v in pairs][::-1]
    values = np.array(head + ([] if center is None else [center]) + tail)
    lags = np.arange(values.size) - values.size // 2
    return AcfResult(lags.astype(float), values, 1.0, False)


@pytest.mark.parametrize("center", [1.0, complex(1.0, -0.0), None],
                         ids=["odd", "odd-negative-zero-arg", "even"])
def test_acf_csv_of_an_acf_that_is_not_hermitian(center):
    a = mirrored_pairs_acf(center)
    assert lines(acf_csv(a)) == lines(acf_csv_oracle(a))


def test_acf_csv_of_random_and_perturbed_values(mseq63_wave32):
    rng = np.random.default_rng(5)
    values = np.array([1, 1j]) @ rng.normal(size=(2, 33))
    a = AcfResult(np.linspace(-1.0, 1.0, 33), values, 0.5, False)
    assert lines(acf_csv(a)) == lines(acf_csv_oracle(a))
    b = acf(mseq63_wave32)
    v = b.values.copy()
    v[5] = np.nextafter(v[5].real, 2.0) + 1j * v[5].imag
    v[7] = v[7].real + 1j * np.nextafter(v[7].imag, 2.0)
    v[9] = -v[9]
    c = AcfResult(b.lags, v, b.first_null, b.degenerate)
    assert lines(acf_csv(c)) == lines(acf_csv_oracle(c))


def test_mirrored_text_formats_nan_on_its_own():
    # math.atan2 returns one NaN whatever its input, so a NaN whose mirror is
    # its negation comes only from another caller; repr(-nan) is "nan" too
    x = [math.nan, -0.0, 1.5, 0.0, -math.nan]
    assert _mirrored_text(x, True) == list(map(repr, x))
    assert _mirrored_text(x, False) == list(map(repr, x))
