import numpy as np
import pytest

from mtsfm_cpm import (PhaseCode, SampledWaveform, SamplingConfig, acf,
                       pc_phase, spectrum, synthesize_pc, time_grid,
                       waveform_csv, waveform_raw_bytes)


def test_sampling_config_validation():
    SamplingConfig(1.0)
    with pytest.raises(ValueError):
        SamplingConfig(0.0)
    with pytest.raises(ValueError):
        SamplingConfig(1.0, samples_per_chip=4)


def test_time_grid_midpoints():
    t = time_grid(8, 2.0)
    assert t[0] == pytest.approx(-1.0 + 0.125)
    assert np.allclose(np.diff(t), 0.25)
    assert t[-1] == pytest.approx(1.0 - 0.125)


def test_pc_phase_two_chips():
    code = PhaseCode([0.0, np.pi])
    assert pc_phase(code, 2.0, -0.5) == 0.0
    assert pc_phase(code, 2.0, +0.5) == np.pi
    # a chip boundary belongs to the later chip
    assert pc_phase(code, 2.0, 0.0) == np.pi
    # the final chip includes its right endpoint
    assert pc_phase(code, 2.0, 1.0) == np.pi
    with pytest.raises(ValueError):
        pc_phase(code, 2.0, 1.5)


def test_pc_phase_right_continuous_at_boundaries():
    code = PhaseCode([0.0, 1.0, 2.0, 3.0])
    T = 4.0
    for i in range(1, 4):
        boundary = -T / 2 + i * 1.0
        after = pc_phase(code, T, boundary + 1e-9)
        assert pc_phase(code, T, boundary) == after


def test_synthesize_single_chip():
    w = synthesize_pc(PhaseCode([0.0]), SamplingConfig(1.0, samples_per_chip=16))
    assert w.n_samples == 16
    assert np.allclose(w.samples, 1.0)
    assert abs(w.energy - 1.0) < 1e-12


def test_synthesize_constant_modulus_and_energy(barker13_wave):
    mags = np.abs(barker13_wave.samples)
    assert np.max(np.abs(mags - 1 / np.sqrt(13.0))) < 1e-12 / np.sqrt(13.0)
    assert abs(barker13_wave.energy - 1.0) < 1e-12


def test_global_phase_offset_leaves_metrics_unchanged(mseq63_code):
    cfg = SamplingConfig(63.0)
    w = synthesize_pc(mseq63_code, cfg)
    shifted = PhaseCode(mseq63_code.phases + 0.7)
    w2 = synthesize_pc(shifted, cfg)
    assert np.max(np.abs(np.abs(acf(w2).values) - np.abs(acf(w).values))) < 1e-12
    assert np.max(np.abs(spectrum(w2).psd - spectrum(w).psd)) < 1e-12


def test_sampled_waveform_rejects_wrong_energy():
    with pytest.raises(ValueError, match="energy"):
        SampledWaveform(2.0 * np.ones(8), T=1.0, sample_rate=8.0)


def test_sampled_waveform_rejects_a_sample_rate_off_n_over_t(barker13_wave):
    w = barker13_wave
    rate = w.n_samples / w.T
    # twice the rate would halve every lag and frequency spacing of the metrics
    for bad in (2 * rate, rate * (1 + 1e-11), rate * (1 - 1e-11)):
        with pytest.raises(ValueError, match="sample_rate"):
            SampledWaveform(w.samples * np.sqrt(bad / rate), w.T, bad)
    for ok in (rate * (1 + 1e-13), rate * (1 - 1e-13)):
        assert SampledWaveform(w.samples, w.T, ok).sample_rate == ok


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)])
def test_sampled_waveform_rejects_non_finite_samples(bad):
    # an energy of nan compares False against any tolerance
    with pytest.raises(ValueError, match="energy"):
        SampledWaveform([bad, bad], 1.0, 2.0)
    with pytest.raises(ValueError, match="energy"):
        SampledWaveform([bad, 1.0], 1.0, 2.0)
    with pytest.raises(ValueError, match="energy"):
        SampledWaveform.from_samples([bad, 1.0], 1.0)


def test_from_samples_normalizes():
    w = SampledWaveform.from_samples(3.7 * np.ones(8), T=1.0)
    assert abs(w.energy - 1.0) < 1e-12


def test_waveform_csv_round_trip(barker13_wave):
    text = waveform_csv(barker13_wave)
    lines = text.strip().split("\n")
    assert lines[0] == "t,re,im"
    t, re, im = (np.array(v) for v in zip(
        *[[float(x) for x in ln.split(",")] for ln in lines[1:]]))
    assert np.array_equal(re + 1j * im, barker13_wave.samples)
    assert np.array_equal(t, barker13_wave.times)


def test_waveform_raw_little_endian(barker13_wave):
    raw = np.frombuffer(waveform_raw_bytes(barker13_wave), dtype="<f8")
    assert np.array_equal(raw[0::2] + 1j * raw[1::2], barker13_wave.samples)
