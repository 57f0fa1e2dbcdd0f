"""The CSV writers against their row-by-row f-string oracles, byte for byte,
with the grid-column cache cold and warm."""

import math
import types

import numpy as np
import pytest

from mtsfm_cpm import (OptimizerConfig, SampledWaveform, SamplingConfig,
                       Spectrum, acf, acf_csv, optimize, pc_phase, spectrum,
                       spectrum_csv, synthesize_mtsfm, synthesize_pc, waveform_csv)
import mtsfm_cpm.metrics as metrics
from mtsfm_cpm.cli import _phase_csv
from mtsfm_cpm.mtsfm import _synthesize_with_phase
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
        return _synthesize_with_phase(mseq63_fit32, 63 * 32)
    L = 1024
    return SampledWaveform(np.ones(L, dtype=complex), 1.0), np.zeros(L)


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
        sp = Spectrum(grid, data)
        assert spectrum_csv(sp) == spectrum_csv_oracle(sp)
    assert _phase_csv(grids[1], data).split("\n")[1] == "-0.0,-0.0"
    assert _grid_text.cache_info().misses == 2
    w = SampledWaveform(np.array([complex(1.0, -0.0), complex(-1.0, 0.0)]), 1.0)
    assert waveform_csv(w) == waveform_csv_oracle(w)
    assert ",-0.0\n" in waveform_csv(w)


@pytest.mark.parametrize("case", ["pc", "k32", "optimized", "barker13"])
def test_acf_csv_reuses_mirrored_text(case, mseq63_pc, mseq63_wave32, mseq63_fit32,
                                      barker13_wave, monkeypatch):
    # the guard against a libm whose atan2 is not odd in y, or whose hypot is
    # not even: a mirrored row's text is that of formatting its own value
    if case == "optimized":
        cfg = OptimizerConfig(max_iterations=15, n_samples=2016)
        w = synthesize_mtsfm(optimize(mseq63_fit32, cfg).params, 2016)
    else:
        w = {"pc": mseq63_pc, "k32": mseq63_wave32, "barker13": barker13_wave}[case]
    a = acf(w)
    expected = lines(acf_csv_oracle(a))
    calls = []
    counting = types.SimpleNamespace(atan2=lambda y, x: calls.append(1) or math.atan2(y, x))
    monkeypatch.setattr(metrics, "math", counting)
    assert lines(acf_csv(a)) == expected
    # arg R is taken on the L + 1 lags >= 0, and at lag -T, whose exact
    # zero is not the conjugate (0, -0.0) of the zero at lag T
    assert len(calls) == a.values.size // 2 + 2
