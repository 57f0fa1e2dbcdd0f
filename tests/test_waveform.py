import numpy as np
import pytest

from mtsfm_cpm import (PhaseCode, SampledWaveform, SamplingConfig, acf,
                       barker_code, fit_fourier, generate_msequence, pc_phase, spectrum,
                       synthesize_pc, waveform_csv, waveform_raw_bytes)
from mtsfm_cpm.waveform import _time_grid


def test_sampling_config_validation():
    SamplingConfig(1.0)
    with pytest.raises(ValueError):
        SamplingConfig(0.0)
    with pytest.raises(ValueError):
        SamplingConfig(1.0, samples_per_chip=4)


@pytest.mark.parametrize("samples", [np.ones((2, 2)) / np.sqrt(2.0), np.ones(1)],
                         ids=["2-d", "one-sample"])
def test_waveform_rejects_samples_of_the_wrong_shape(samples):
    with pytest.raises(ValueError, match="^samples must be a 1-D array with at least 2"):
        SampledWaveform(samples, 1.0)


def test_synthesize_pc_needs_a_sampling_config():
    with pytest.raises(TypeError, match="^cfg must be a SamplingConfig"):
        synthesize_pc(barker_code(13), 13.0)


@pytest.mark.parametrize("T, message", [
    (True, "T has the wrong type"), ([13.0], "T has the wrong type"),
    (np.array(13.0), "T has the wrong type"), (10 ** 400, "T must be positive and finite"),
], ids=["bool", "list", "array", "huge-int"])
def test_pulse_length_must_be_a_positive_real_scalar(T, message):
    # a bool once passed as T = 1 and a list failed on '<=' without a name
    builds = (lambda: SamplingConfig(T),
              lambda: SampledWaveform(np.ones(13) / np.sqrt(13.0), T),
              lambda: fit_fourier(barker_code(13), T, 7))
    for build in builds:
        with pytest.raises(ValueError, match=f"^{message}"):
            build()


def test_time_grid_midpoints():
    t = _time_grid(8, 2.0)
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_pc_phase_rejects_a_pulse_whose_chip_positions_overflow():
    # (t + T/2) * n overflows to inf at t = T/2 before the division by T
    code = barker_code(13)
    with pytest.raises(ValueError, match=r"^T=2e\+307 is too large for 13 chips"):
        pc_phase(code, 2e307, [0.0, 1e307])
    # T = 1e307 keeps every position finite, and each chip where it was
    t = np.array([-0.5, -0.5 + 1 / 13, 0.0, 0.5]) * 1e307
    assert pc_phase(code, 1e307, t).tolist() == code.phases[[0, 1, 6, 12]].tolist()


def test_synthesize_single_chip():
    w = synthesize_pc(PhaseCode([0.0]), SamplingConfig(1.0, samples_per_chip=16))
    assert w.n_samples == 16
    assert np.allclose(w.samples, 1.0)
    assert abs(w.energy - 1.0) < 1e-12


@pytest.mark.parametrize("T", [63.0, 13.0, 1.0, 511.0, 0.37])
@pytest.mark.parametrize("code", [6, 7, 9, "random"])
def test_synthesize_pc_is_the_complex_exponential_bit_for_bit(code, T):
    code = (PhaseCode(np.random.default_rng(3).uniform(-50, 50, 40)) if code == "random"
            else generate_msequence(code))
    cfg = SamplingConfig(T)
    oracle = np.exp(1j * np.repeat(code.phases, cfg.samples_per_chip)) / np.sqrt(T)
    assert synthesize_pc(code, cfg).samples.tobytes() == oracle.tobytes()


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
        SampledWaveform(2.0 * np.ones(8), T=1.0)




@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan)])
def test_sampled_waveform_rejects_non_finite_samples(bad):
    # an energy of nan compares False against any tolerance
    with pytest.raises(ValueError, match="energy"):
        SampledWaveform([bad, bad], 1.0)
    with pytest.raises(ValueError, match="energy"):
        SampledWaveform([bad, 1.0], 1.0)


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
