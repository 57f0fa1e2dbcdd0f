import dataclasses
import math
import warnings

import numpy as np
import pytest

from mtsfm_cpm import (AcfResult, DegenerateMainlobe, MtsfmParams, OptimizerConfig,
                       PhaseCode, SampledWaveform, SamplingConfig, Spectrum, acf, ambiguity,
                       barker_code, compute_metrics, fit_fourier, generate_msequence,
                       gisr, isr, mainlobe_area, min_harmonics, psl,
                       rms_bandwidth_spectral, spectral_compactness, spectrum,
                       synthesize_mtsfm, synthesize_pc)
from mtsfm_cpm.metrics import (_acf_spectral, _conj_autocorrelation, _correlation_fft,
                               _next_pow2, _shift_spectra, _shifted_product)
from mtsfm_cpm.waveform import _time_grid, _unit_samples
from conftest import (MSEQ63_BAND, MSEQ63_T, closed_form_beta2, complex_acf, fft_calls,
                      per_row_ambiguity, row_at_a_time_ambiguity,
                      two_sided_report)


def rect_pulse(L=1024, T=1.0):
    return SampledWaveform(np.ones(L, dtype=complex) / np.sqrt(T), T)


# --------------------------------------------------------------------------
# spectrum
# --------------------------------------------------------------------------

def test_spectrum_parseval_and_centroid_for_rect():
    w = rect_pulse()
    sp = spectrum(w, zero_pad_factor=4)
    assert np.sum(sp.psd) * sp.df == pytest.approx(1.0, abs=1e-9)
    assert abs(sp.centroid) < 1e-9
    assert sp.freqs[np.argmax(sp.psd)] == pytest.approx(0.0, abs=sp.df)


@pytest.mark.parametrize("pad", [1, 2, 4, 8])
def test_spectrum_parseval_various(mseq63_pc, pad):
    sp = spectrum(mseq63_pc, zero_pad_factor=pad)
    assert np.sum(sp.psd) * sp.df == pytest.approx(1.0, abs=1e-9)
    assert sp.freqs.size == mseq63_pc.n_samples * pad


@pytest.mark.parametrize("pad", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n_samples", [2016, 2017], ids=["even", "odd"])
def test_spectrum_matches_the_fftshift_oracle(mseq63_fit32, n_samples, pad):
    # the fftshift layout: n_fft rows in increasing frequency, 0 Hz at row
    # n_fft // 2, unit energy; an odd n_samples makes n_fft odd at pads 1, 3 and 5
    w = synthesize_mtsfm(mseq63_fit32, n_samples)
    sp = spectrum(w, zero_pad_factor=pad)
    n = n_samples * pad
    assert sp.freqs.size == sp.psd.size == n
    assert np.all(np.diff(sp.freqs) > 0)
    assert sp.freqs[n // 2] == 0.0
    assert abs(np.sum(sp.psd) * sp.df - 1) <= 1e-9


def test_spectrum_rejects_bad_zero_pad(barker13_wave):
    for pad in (0, 1.5, float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="zero_pad_factor"):
            spectrum(barker13_wave, pad)


def test_spectrum_dc_bin_matches_direct_integral(barker13_wave):
    w = barker13_wave
    sp = spectrum(w, zero_pad_factor=4)
    # direct evaluation of the Fourier integral at f = 0
    oracle = abs(np.sum(w.samples) / w.sample_rate) ** 2
    dc = sp.psd[np.argmin(np.abs(sp.freqs))]
    assert dc == pytest.approx(oracle, rel=1e-12)
    # closed form: chips sum coherently at DC
    signs_sum = np.sum(np.exp(1j * barker_code(13).phases))
    tb = w.T / 13
    assert dc == pytest.approx(abs(signs_sum) ** 2 * tb ** 2 / w.T, rel=1e-12)


def test_spectrum_rect_is_sinc_squared():
    w = rect_pulse(L=512, T=2.0)
    sp = spectrum(w, zero_pad_factor=8)
    inner = np.abs(sp.freqs) < 20 / w.T
    expected = w.T * np.sinc(sp.freqs[inner] * w.T) ** 2
    assert np.max(np.abs(sp.psd[inner] - expected)) < 1e-3 * w.T


# --------------------------------------------------------------------------
# spectral compactness
# --------------------------------------------------------------------------

def test_sc_full_span_captures_everything(mseq63_pc):
    sp = spectrum(mseq63_pc)
    full = spectral_compactness(sp, 2 * sp.freqs[-1])
    assert full > 0.999


def test_sc_monotone_in_band(mseq63_pc):
    sp = spectrum(mseq63_pc)
    widths = np.linspace(0.2, 30.0, 25)
    values = [spectral_compactness(sp, w) for w in widths]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_sc_clamps_with_warning(mseq63_pc):
    sp = spectrum(mseq63_pc)
    with pytest.warns(RuntimeWarning, match="clamp"):
        val = spectral_compactness(sp, 1e9)
    assert 0.999 < val <= 1.0


def test_report_flags_a_clamped_band(mseq63_pc):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = compute_metrics(mseq63_pc, delta_f=1e9)
    assert rep.sc_clamped
    assert rep.delta_f == 2 * float(spectrum(mseq63_pc).freqs[-1])  # the analysis span
    assert not compute_metrics(mseq63_pc, delta_f=MSEQ63_BAND).sc_clamped


def test_sc_rejects_nonpositive_band(mseq63_pc):
    with pytest.raises(ValueError):
        spectral_compactness(spectrum(mseq63_pc), 0.0)


# --------------------------------------------------------------------------
# acf
# --------------------------------------------------------------------------

def test_acf_triangle_for_rect():
    w = rect_pulse(L=1024, T=1.0)
    a = acf(w)
    triangle = 1 - np.abs(a.lags) / w.T
    assert np.max(np.abs(a.magnitudes - triangle)) < 1e-6
    assert a.degenerate


def test_acf_peak_and_symmetry(mseq63_pc, barker13_wave):
    for w in (mseq63_pc, barker13_wave):
        a = acf(w)
        center = a.lags.size // 2
        assert a.lags[center] == 0.0
        assert abs(a.magnitudes[center] - 1.0) < 1e-9
        assert np.max(np.abs(a.magnitudes - a.magnitudes[::-1])) < 1e-9
        assert a.lags[0] == -w.T and a.lags[-1] == w.T


def test_acf_magnitudes_stored_once_read_only(mseq63_pc):
    a = acf(mseq63_pc)
    assert a.magnitudes is a.magnitudes
    assert np.array_equal(a.magnitudes, np.abs(a.values))
    assert not a.magnitudes.flags.writeable
    # the constructor still takes (lags, values, first_null, degenerate)
    b = AcfResult(a.lags, a.values, a.first_null, a.degenerate)
    assert np.array_equal(b.magnitudes, a.magnitudes)


@pytest.mark.parametrize("make, fields", [
    (lambda w: w, ("samples",)),
    (spectrum, ("freqs", "psd")),
    (acf, ("lags", "values")),
], ids=["SampledWaveform", "Spectrum", "AcfResult"])
def test_arrays_are_private_read_only_copies(mseq63_pc, make, fields):
    source = make(mseq63_pc)
    arrays = {name: getattr(source, name).copy() for name in fields}
    views = [arr[:] for arr in arrays.values()]  # taken before construction
    made = dataclasses.replace(source, **arrays)
    for view in views:
        view[0] = 5
    for arr in arrays.values():
        assert arr.flags.writeable
    for f in dataclasses.fields(source):
        assert np.array_equal(getattr(made, f.name), getattr(source, f.name)), f.name
    for name in fields:
        assert not getattr(made, name).flags.writeable
    if fields == ("samples",):
        assert made.energy == source.energy


def test_conj_autocorrelation_leaves_its_spectrum_unchanged(mseq63_pc):
    spec = _correlation_fft(mseq63_pc.samples)
    before = spec.tobytes()
    _conj_autocorrelation(spec, mseq63_pc.n_samples, mseq63_pc.sample_rate)
    assert spec.tobytes() == before


def test_acf_takes_magnitudes_once(mseq63_pc, monkeypatch):
    a = acf(mseq63_pc)
    calls = []

    def counting_abs(x, *args, **kwargs):
        calls.append(np.shape(x))
        return np.absolute(x, *args, **kwargs)

    monkeypatch.setattr(np, "abs", counting_abs)
    b = AcfResult(a.lags, a.values, a.first_null, a.degenerate)
    assert calls == [a.values.shape]  # |values|, once, at construction
    assert np.array_equal(b.magnitudes, a.magnitudes)
    # |conj z| = |z| bit for bit, so |R| is still the mirror of its lags >= 0
    L = mseq63_pc.n_samples
    assert np.array_equal(a.magnitudes[:L], a.magnitudes[:L:-1])


def direct_acf(w):
    """O(L^2) time-domain correlation oracle: r[m] = sum_n s[n+m] conj(s[n]) / f_s."""
    s = w.samples
    L = s.size
    out = np.zeros(2 * L + 1, dtype=complex)
    for m in range(-(L - 1), L):
        if m >= 0:
            out[m + L] = np.sum(s[m:] * np.conj(s[: L - m]))
        else:
            out[m + L] = np.sum(s[: L + m] * np.conj(s[-m:]))
    return out / w.sample_rate


@pytest.mark.parametrize("build", [
    lambda: synthesize_pc(barker_code(13), SamplingConfig(13.0)),
    lambda: synthesize_pc(
        PhaseCode(np.random.default_rng(42).uniform(-np.pi, np.pi, 32)),
        SamplingConfig(32.0, samples_per_chip=16)),
])
def test_acf_matches_direct_correlation(build):
    w = build()
    assert w.n_samples <= 4096
    a = acf(w)
    assert np.max(np.abs(a.values - direct_acf(w))) < 1e-9


def test_acf_mseq_matches_direct(mseq63_pc):
    a = acf(mseq63_pc)
    assert np.max(np.abs(a.values - direct_acf(mseq63_pc))) < 1e-9


@pytest.mark.parametrize("wave", ["barker13_wave", "mseq63_wave32", "mseq511_pc"])
def test_acf_is_hermitian_bit_for_bit(request, wave):
    v = acf(request.getfixturevalue(wave)).values
    L = v.size // 2
    assert v[1:L][::-1].tobytes() == np.conj(v[L + 1:2 * L]).tobytes()
    assert v[L].imag == 0.0 and math.copysign(1.0, v[L].imag) == 1.0
    assert v[[0, -1]].tobytes() == np.zeros(2, dtype=complex).tobytes()


@pytest.mark.parametrize("wave", ["barker13_wave", "mseq63_wave32", "mseq511_pc"])
def test_acf_matches_complex_oracle(request, wave):
    w = request.getfixturevalue(wave)
    assert np.max(np.abs(acf(w).values - complex_acf(w))) <= 1e-14


# --------------------------------------------------------------------------
# ambiguity
# --------------------------------------------------------------------------

@pytest.mark.parametrize("wave", [
    "barker13_wave",
    "mseq511_pc",  # the largest L: FFT size 32768
], ids=["barker13", "mseq511"])
def test_ambiguity_zero_doppler_row_is_acf(request, wave):
    w = request.getfixturevalue(wave)
    rows = ambiguity(w, [0.0])
    a = acf(w)
    assert np.array_equal(rows[0], a.values)
    center = rows.shape[1] // 2
    assert abs(rows[0][center] - 1.0) < 1e-9


@pytest.mark.parametrize("grid", [
    np.linspace(-0.5, 0.5, 9),
    [-0.3, 0.1, 0.25, 0.3, 0.7, -0.1, -0.25],
    [-0.0, 0.0, 0.2, -0.2, 0.0],
    [0.2, 0.2, -0.2, -0.2, 0.0, 0.2],
], ids=["symmetric", "asymmetric", "negative-zero", "repeated"])
@pytest.mark.parametrize("wave", ["barker13_wave", "mseq63_wave32"])
def test_ambiguity_matches_per_row_oracle(request, wave, grid):
    w = request.getfixturevalue(wave)
    grid = np.asarray(grid, dtype=float)
    rows = ambiguity(w, grid)
    # each class's batched inverse FFT changes no bit of a row
    assert np.array_equal(rows, row_at_a_time_ambiguity(w, grid))
    oracle = per_row_ambiguity(w, grid)
    assert np.max(np.abs(rows - oracle)) <= 1e-12
    mirrored = 0
    for i, nu in enumerate(grid):
        earlier = np.flatnonzero(grid[:i] == -nu)
        if nu != 0 and earlier.size:
            # mirrored from the first earlier -nu row
            assert np.array_equal(rows[i], np.conj(rows[earlier[0]][::-1]))
            mirrored += 1
    # the nu = 0 row is held to the bound above too: it is acf()'s real-FFT
    # autocorrelation (test_ambiguity_zero_doppler_row_is_acf), not the
    # oracle's complex path
    assert mirrored > 0


def test_ambiguity_copies_a_repeated_doppler_row(barker13_wave, monkeypatch):
    ifft, calls = np.fft.ifft, []

    def counted(*args, **kwargs):
        calls.append(1)
        return ifft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counted)
    rows = ambiguity(barker13_wave, [0.2, 0.2])
    assert len(calls) == 1
    assert np.array_equal(rows[1], rows[0])


def _class_sizes(w, grid):
    """Sorted row counts of the fractional spectral shifts f = d - floor(d)
    of a grid, d = nu T n_fft / (2L) bins."""
    L = w.n_samples
    d = np.asarray(grid) * (w.T * _next_pow2(2 * L) / (2 * L))
    return sorted(np.unique(d - np.floor(d), return_counts=True)[1].tolist())


@pytest.mark.parametrize("wave, grid, sizes", [
    # the analyze-sweep grid: 64 bins per Hz, so every row is a whole 2k bins
    ("mseq63_wave32", np.linspace(-0.5, 0.5, 33), [33]),
    # L = 16352, FFT size 32768: 512 bins per Hz, every row a whole 4k bins
    ("mseq511_pc", np.arange(-6, 7) / 128, [13]),
    # in bins: on-bin rows (nu = 0 and a mirrored pair among them), f = 1/2
    # three times, f = 1/4 twice, and two off-bin singletons
    ("mseq63_wave32", np.array([16, -8, 3.5, -2.5, 7.5, 1.25, -6.75, 19.2, -10.88, 0,
                                -16]) / 64, [1, 1, 2, 3, 4]),
], ids=["analyze-sweep-grid", "mseq511-on-bin", "mixed-classes"])
def test_ambiguity_shift_classes_match_per_row_oracle(request, wave, grid, sizes):
    w = request.getfixturevalue(wave)
    assert _class_sizes(w, grid) == sizes
    rows = ambiguity(w, grid)
    assert np.array_equal(rows, row_at_a_time_ambiguity(w, grid))
    assert np.max(np.abs(rows - per_row_ambiguity(w, grid))) <= 1e-12
    assert np.array_equal(rows[np.flatnonzero(grid == 0.0)[0]], acf(w).values)


def test_ambiguity_inverse_transforms_a_class_in_one_call(mseq63_wave32, monkeypatch):
    ifft, calls = np.fft.ifft, []

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return ifft(a, *args, **kwargs)

    # the analyze-sweep grid: one on-bin class of 33 rows, 16 of them
    # correlated (nu = 0 is acf()'s autocorrelation, the rest are mirrored)
    monkeypatch.setattr(np.fft, "ifft", counted)
    ambiguity(mseq63_wave32, np.linspace(-0.5, 0.5, 33))
    assert calls == [(16, _next_pow2(2 * mseq63_wave32.n_samples))]


def test_shifted_product_is_the_rolled_product():
    rng = np.random.default_rng(3)
    n = 16
    fu, fvc = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    for i in (0, 1, -1, 5, -7, n // 2, n, -n - 3, 3 * n + 5):
        out = _shifted_product(fu, fvc, i, np.empty(n, dtype=complex))
        assert np.array_equal(out, np.roll(fu, i) * np.roll(fvc, -i)), i


@pytest.mark.parametrize("f", [0.25, 0.5, 0.88])
def test_shift_spectra_ramp_is_the_cos_sin_fill(mseq63_wave32, f):
    # the oracle ramp fills e^{jx} as cos x + j sin x, in place
    s = mseq63_wave32.samples
    n_fft = _next_pow2(2 * s.size)
    x = (2 * np.pi * f / n_fft) * np.arange(s.size)
    ramp = np.empty(x.size, dtype=complex)
    np.cos(x, out=ramp.real)
    np.sin(x, out=ramp.imag)
    fu, fvc = _shift_spectra(s, f, n_fft)
    assert np.array_equal(fu, _correlation_fft(s * ramp))
    assert np.array_equal(fvc, np.conj(_correlation_fft(s * ramp.conj())))


def test_ambiguity_rejects_a_grid_that_is_not_1d(barker13_wave):
    for grid in ([[0.1, 0.2]], np.zeros((2, 3)), 0.1):
        with pytest.raises(ValueError, match="1-D"):
            ambiguity(barker13_wave, grid)
    assert ambiguity(barker13_wave, []).shape == (0, 2 * barker13_wave.n_samples + 1)


def test_ambiguity_volume_is_unity():
    w = rect_pulse(L=256, T=1.0)
    nus = np.linspace(-16.0, 16.0, 257)
    rows = ambiguity(w, nus)
    dtau = 1.0 / w.sample_rate
    dnu = nus[1] - nus[0]
    volume = np.sum(np.abs(rows) ** 2) * dtau * dnu
    assert volume == pytest.approx(1.0, abs=0.02)


def test_ambiguity_rejects_nonfinite_grid(barker13_wave):
    # 1e308 Hz is finite, but its shift in spectral bins overflows
    for grid in ([0.0, np.inf], [np.nan], [0.0, 1e308]):
        with pytest.raises(ValueError, match="finite"):
            ambiguity(barker13_wave, grid)


# --------------------------------------------------------------------------
# first null and mainlobe
# --------------------------------------------------------------------------

def test_first_null_degenerate_for_rect():
    a = acf(rect_pulse())
    assert a.degenerate and a.first_null == a.lags[-1]


def test_first_null_near_chip_for_pc(mseq63_pc, barker13_wave):
    tb = MSEQ63_T / 63
    assert acf(mseq63_pc).first_null == pytest.approx(tb, rel=0.15)
    assert acf(barker13_wave).first_null == pytest.approx(1.0, rel=0.15)


def test_mainlobe_area_triangle_with_forced_null():
    w = rect_pulse(L=2048, T=1.0)
    a = dataclasses.replace(acf(w), first_null=w.T, degenerate=False)
    assert mainlobe_area(a) == pytest.approx(2 * w.T / 3, abs=1e-6)


def test_mainlobe_area_matches_quadrature_oracle(barker13_wave):
    a = acf(barker13_wave)
    area = mainlobe_area(a)
    # independent trapezoid: every native node inside the band plus the edges
    dtau = a.first_null
    inner = a.lags[(a.lags > -dtau) & (a.lags < dtau)]
    grid = np.concatenate([[-dtau], inner, [dtau]])
    oracle = np.trapezoid(np.interp(grid, a.lags, a.magnitudes ** 2), grid)
    assert area == pytest.approx(oracle, abs=1e-9)


def test_mainlobe_area_tracks_rms_bandwidth(mseq63_fit32):
    w = synthesize_mtsfm(mseq63_fit32, 2016)
    a = acf(w)
    beta_rms = math.sqrt(closed_form_beta2(mseq63_fit32))
    assert mainlobe_area(a) == pytest.approx(np.pi / (2 * beta_rms), rel=0.30)


def test_degenerate_errors():
    a = acf(rect_pulse())
    for fn in (mainlobe_area, psl, isr):
        with pytest.raises(DegenerateMainlobe):
            fn(a)


# --------------------------------------------------------------------------
# rms bandwidth (spectral path)
# --------------------------------------------------------------------------

def test_rms_bandwidth_single_tone_matches_closed_form():
    params = MtsfmParams(0.0, np.array([1.0]), np.array([0.0]), 1.0)
    w = synthesize_mtsfm(params, 512)
    got = rms_bandwidth_spectral(spectrum(w, zero_pad_factor=1))
    want = math.sqrt(closed_form_beta2(params))
    assert got == pytest.approx(want, rel=0.02)


def test_rms_bandwidth_is_centroid_relative():
    params = MtsfmParams(0.0, np.array([1.0]), np.array([0.0]), 1.0)
    w = synthesize_mtsfm(params, 512)
    sp = spectrum(w, zero_pad_factor=1)
    # shift by an exact number of bins: same spread about a moved centroid
    shift = 5.0 / w.T
    shifted = SampledWaveform(w.samples * np.exp(2j * np.pi * shift * w.times), w.T)
    sp2 = spectrum(shifted, zero_pad_factor=1)
    assert sp2.centroid == pytest.approx(sp.centroid + shift, abs=1e-9)
    assert rms_bandwidth_spectral(sp2) == pytest.approx(
        rms_bandwidth_spectral(sp), rel=1e-9)
    # a hand-built Spectrum takes its centroid from freqs and psd, so moving
    # the psd by whole bins moves the centroid and keeps the spread
    moved = np.zeros_like(sp.psd)
    moved[5:] = sp.psd[:-5]
    sp3 = Spectrum(sp.freqs, moved)
    assert sp3.centroid == pytest.approx(sp.centroid + 5 * sp.df, abs=1e-9)
    assert rms_bandwidth_spectral(sp3) == pytest.approx(
        rms_bandwidth_spectral(sp), rel=1e-9)


# --------------------------------------------------------------------------
# sidelobe ratios
# --------------------------------------------------------------------------

def test_barker13_psl(barker13_wave):
    assert psl(acf(barker13_wave)) == pytest.approx(20 * math.log10(1 / 13), abs=0.1)


def test_isr_triangle_with_forced_null():
    w = rect_pulse(L=4096, T=1.0)
    a = dataclasses.replace(acf(w), first_null=0.5, degenerate=False)
    assert isr(a) == pytest.approx(10 * math.log10(1 / 7), abs=1e-3)


def test_gisr_p2_is_isr(mseq63_pc, barker13_wave):
    for w in (mseq63_pc, barker13_wave):
        a = acf(w)
        assert gisr(a, 2) == isr(a)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gisr_approaches_psl(mseq63_wave32, barker13_wave):
    # the p-norm falls towards the max norm from above; the gap at p = 10^4
    # is pinned
    for w, gap in ((mseq63_wave32, 6.02e-4), (barker13_wave, 2.158e-3)):
        a = acf(w)
        values = [gisr(a, p) for p in (64, 700, 2000, 10 ** 4, 10 ** 5)]
        assert values[0] == pytest.approx(psl(a), abs=1.5)
        assert all(b > c for b, c in zip(values, values[1:]))
        assert values[-1] > psl(a)
        assert values[3] - psl(a) == pytest.approx(gap, abs=1e-6)


def test_gisr_nonincreasing_in_p(mseq63_pc, barker13_wave):
    for w in (mseq63_pc, barker13_wave):
        a = acf(w)
        values = [gisr(a, p) for p in (2, 4, 10, 64)]
        assert all(b <= a_ + 1e-12 for a_, b in zip(values, values[1:]))


def test_replaced_acf_takes_magnitudes_of_its_own_values(barker13_wave):
    a = acf(barker13_wave)
    scaled = dataclasses.replace(a, values=0.5 * a.values)
    assert np.array_equal(scaled.magnitudes, 0.5 * a.magnitudes)


def test_gisr_scale_invariant(barker13_wave):
    a = acf(barker13_wave)
    scaled = dataclasses.replace(a, values=0.5 * a.values)
    assert gisr(scaled, 10) == pytest.approx(gisr(a, 10), abs=1e-12)


def test_gisr_rejects_small_p(barker13_wave):
    with pytest.raises(ValueError):
        gisr(acf(barker13_wave), 1)


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------

def test_compute_metrics_regular(mseq63_pc):
    rep = compute_metrics(mseq63_pc, MSEQ63_BAND)
    assert not rep.degenerate
    assert 0 <= rep.sc <= 1
    assert rep.psl_db < 0
    assert rep.gisr_db is not None and rep.p == 10
    assert '"psl_db"' in rep.to_json() and '"sc_fraction"' in rep.to_json()


def test_compute_metrics_finds_sidelobe_regions_once(mseq63_wave32, monkeypatch):
    import mtsfm_cpm.metrics as metrics
    calls = []
    scan = metrics._regions
    monkeypatch.setattr(metrics, "_regions",
                        lambda lags, tau: calls.append(tau) or scan(lags, tau))
    rep = compute_metrics(mseq63_wave32, MSEQ63_BAND, p=7)
    assert len(calls) == 1
    monkeypatch.undo()
    a = acf(mseq63_wave32)
    assert (rep.isr_db, rep.gisr_db) == (isr(a), gisr(a, 7))  # bit for bit


@pytest.fixture(scope="module")
def oracle_waveforms():
    waves = {"barker13-x9": synthesize_pc(barker_code(13), SamplingConfig(13.0, 9)),
             "unmodulated": rect_pulse()}
    # off centre, so the first moment (the sums over Im R) shows in beta
    w = waves["barker13-x9"]
    waves["barker13-x9-offset"] = SampledWaveform(
        w.samples * np.exp(2j * np.pi * 0.37 * w.times), w.T)
    for degree in (6, 7):
        code = generate_msequence(degree)
        T = float(code.n)
        waves[f"d{degree}-pc"] = synthesize_pc(code, SamplingConfig(T))
        fit = fit_fourier(code, T, min_harmonics(code.n))
        waves[f"d{degree}-mtsfm"] = synthesize_mtsfm(fit, code.n * 32)
    return waves


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("zero_pad", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", ["barker13-x9", "barker13-x9-offset", "unmodulated",
                                  "d6-pc", "d6-mtsfm", "d7-pc", "d7-mtsfm"])
def test_report_takes_sc_and_beta_of_the_spectrum_from_the_acf(oracle_waveforms, name,
                                                               zero_pad):
    # barker13 at 9 samples/chip has odd n at zero_pad 1, 3 and 5, and at
    # zero_pad 1 every n is below 2L - 1, where the spectrum folds the ACF
    w = oracle_waveforms[name]
    sp = spectrum(w, zero_pad)
    span = 2 * float(sp.freqs[-1])
    beta = rms_bandwidth_spectral(sp)
    for band in (2.0, 0.3 * sp.df, span, 2 * span):
        rep = compute_metrics(w, band, zero_pad_factor=zero_pad)
        assert rep.delta_f == min(band, span)
        assert rep.sc_clamped == (band > span)
        assert abs(rep.sc - spectral_compactness(sp, rep.delta_f)) <= 1e-13
        if name == "unmodulated" and zero_pad == 1:
            # all the energy sits in bin 0, so beta is 0: the ACF path's
            # central moment is a difference of terms of order f_s^2, and is
            # 0 to within their rounding
            assert beta == 0.0
            assert (rep.beta_rms / (2 * np.pi * w.sample_rate)) ** 2 <= 1e-15
        else:
            assert rep.beta_rms == pytest.approx(beta, rel=1e-10, abs=0)


def test_compute_metrics_takes_no_zero_padded_fft(mseq63_wave32, monkeypatch):
    sizes = []
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda a, n=None, *args, **kwargs:
                        sizes.append(n) or fft(a, n, *args, **kwargs))
    for zero_pad in (1, 4):
        compute_metrics(mseq63_wave32, MSEQ63_BAND, zero_pad_factor=zero_pad)
    assert sizes == [_next_pow2(2 * mseq63_wave32.n_samples)] * 2


@pytest.fixture(scope="module")
def report_waveforms(mseq63_code, mseq63_pc, mseq63_fit32, mseq63_fit64):
    waves = {"mseq63-pc": mseq63_pc, "mseq63-k32": synthesize_mtsfm(mseq63_fit32, 63 * 32),
             "mseq63-k64": synthesize_mtsfm(mseq63_fit64, 63 * 32),
             "barker13-x9": synthesize_pc(barker_code(13), SamplingConfig(13.0, 9)),
             "unmodulated": rect_pulse(),
             "two-samples": SampledWaveform(np.array([1.0, 1j]), 1.0)}
    for K in range(8, 65):
        waves[f"sweep-k{K}"] = synthesize_mtsfm(fit_fourier(mseq63_code, MSEQ63_T, K), 63 * 32)
    for degree in (7, 8, 9, 10):
        code = generate_msequence(degree)
        fit = fit_fourier(code, float(code.n), min_harmonics(code.n))
        waves[f"d{degree}"] = synthesize_mtsfm(fit, code.n * 32)
    return waves


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_report_equals_the_two_sided_acf_oracle(report_waveforms):
    # every field bit for bit, but the mainlobe area, which is twice the
    # tau >= 0 integral instead of the integral over the whole lag grid
    cases, degenerate = 0, set()
    for name, w in report_waveforms.items():
        pads = (1, 2, 3, 4, 5) if name in ("barker13-x9", "unmodulated", "two-samples") else (4,)
        ps = (10,) if name.startswith("sweep") else (2, 10, 50)
        for zero_pad in pads:
            span = 2 * float(spectrum(w, zero_pad).freqs[-1])
            for p in ps:
                for band in (MSEQ63_BAND, 2 * span + 1.0):  # the second is clamped
                    rep = compute_metrics(w, band, p, zero_pad)
                    want = two_sided_report(w, band, p, zero_pad)
                    assert rep.sc_clamped == (band > span)
                    assert (repr(dataclasses.replace(rep, mainlobe_area=None))  # -0.0 too
                            == repr(dataclasses.replace(want, mainlobe_area=None)))
                    if want.degenerate:
                        assert rep.mainlobe_area is None
                    else:
                        assert abs(rep.mainlobe_area - want.mainlobe_area) <= (
                            1e-15 * want.mainlobe_area), (name, zero_pad, p)
                    cases += 1
                    degenerate.add((name, want.degenerate))
    assert cases == 2 * (3 * 3 + 3 * 5 * 3 + 57 + 4 * 3)
    assert ("unmodulated", True) in degenerate and ("mseq63-pc", False) in degenerate


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_public_metrics_of_acf_equal_the_report(report_waveforms):
    # the public metrics and the report share one tau >= 0 implementation
    for name, w in report_waveforms.items():
        rep, a = compute_metrics(w, MSEQ63_BAND, 7), acf(w)
        assert rep.degenerate == a.degenerate, name
        if a.degenerate:
            continue
        public = (a.first_null, mainlobe_area(a), psl(a), isr(a), gisr(a, 7))
        fields = (rep.delta_tau, rep.mainlobe_area, rep.psl_db, rep.isr_db, rep.gisr_db)
        assert [v.hex() for v in public] == [v.hex() for v in fields], name


def test_compute_metrics_builds_no_two_sided_acf(mseq63_wave32, monkeypatch):
    import mtsfm_cpm.metrics as metrics

    def refuse(*args, **kwargs):
        raise AssertionError("a two-sided ACF was built for a report")

    monkeypatch.setattr(metrics, "_autocorrelation", refuse)
    for w in (mseq63_wave32, rect_pulse()):
        compute_metrics(w, MSEQ63_BAND)


def test_compute_metrics_degenerate():
    rep = compute_metrics(rect_pulse(), 8.0)
    assert rep.degenerate
    assert rep.psl_db is None and rep.isr_db is None and rep.gisr_db is None
    assert rep.sc > 0.9


@pytest.mark.parametrize("build", [rect_pulse, lambda: synthesize_pc(barker_code(13),
                                                                     SamplingConfig(13.0))],
                         ids=["degenerate", "regular"])
def test_compute_metrics_rejects_p_below_2(build):
    for p in (1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="p must be >= 2"):
            compute_metrics(build(), 8.0, p=p)
        with pytest.raises(ValueError, match="p must be >= 2"):
            gisr(acf(build()), p)


@pytest.mark.parametrize("build, message", [
    (lambda w: compute_metrics(w, 2.0, zero_pad_factor=True), "zero_pad_factor"),
    (lambda w: compute_metrics(w, 2.0, zero_pad_factor="4"), "zero_pad_factor"),
    (lambda w: compute_metrics(w, 2.0, p=np.array([10.0])), "p"),
    (lambda w: OptimizerConfig(max_iterations=True), "max_iterations"),
    (lambda w: fit_fourier(barker_code(13), 13.0, True), "K"),
    (lambda w: OptimizerConfig(delta="0.5"), "delta"),
    (lambda w: OptimizerConfig(delta=[0.1]), "delta"),
    (lambda w: OptimizerConfig(delta=np.array([0.1])), "delta"),
], ids=["bool-zero-pad", "str-zero-pad", "array-p", "bool-max-iterations", "bool-K",
        "str-delta", "list-delta", "array-delta"])
def test_integer_and_p_arguments_must_be_real_scalars(barker13_wave, build, message):
    # a bool once passed as 1, and a string or an array raised a TypeError
    # that named no field
    with pytest.raises(ValueError, match=f"^{message} has the wrong type"):
        build(barker13_wave)


def test_an_int_too_large_for_a_float_is_not_a_count(barker13_wave):
    # math.isfinite of such an int raised an OverflowError that named no field
    with pytest.raises(ValueError, match="^zero_pad_factor must be an integer >= 1"):
        compute_metrics(barker13_wave, 2.0, zero_pad_factor=10 ** 400)
    a = acf(barker13_wave)
    for build in (lambda: OptimizerConfig(p=10 ** 400),
                  lambda: compute_metrics(barker13_wave, 2.0, p=10 ** 400),
                  lambda: gisr(a, 10 ** 400)):
        with pytest.raises(ValueError, match="^p must be >= 2 and finite"):
            build()


def test_integral_floats_stay_accepted(barker13_wave):
    assert (compute_metrics(barker13_wave, 2.0, p=10.0, zero_pad_factor=4.0)
            == compute_metrics(barker13_wave, 2.0, p=10, zero_pad_factor=4))
    assert OptimizerConfig(max_iterations=3.0).max_iterations == 3
    assert fit_fourier(barker_code(13), 13.0, 7.0).K == 7


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_p_is_finite(barker13_wave):
    # Barker-13 sidelobes are at most 1/13: unscaled, |R|^700 underflows
    for p in (700, 2000, 10 ** 4):
        assert math.isfinite(compute_metrics(barker13_wave, 2.0, p=p).gisr_db)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_random_code_invariants(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    code = PhaseCode(rng.uniform(-np.pi, np.pi, n))
    w = synthesize_pc(code, SamplingConfig(float(n), samples_per_chip=16))
    assert abs(w.energy - 1.0) <= 1e-12
    sp = spectrum(w)
    assert np.sum(sp.psd) * sp.df == pytest.approx(1.0, abs=1e-9)
    a = acf(w)
    assert np.max(np.abs(a.magnitudes - a.magnitudes[::-1])) <= 1e-9
    assert abs(a.magnitudes[a.lags.size // 2] - 1.0) <= 1e-9
    assert 0.0 <= spectral_compactness(sp, 2.0) <= 1.0
    if not a.degenerate:
        assert gisr(a, 2) == isr(a)
        assert psl(a) <= 1e-9


def test_metrics_invariant_under_time_reversal(mseq63_pc):
    rep = compute_metrics(mseq63_pc, MSEQ63_BAND)
    reversed_w = SampledWaveform(mseq63_pc.samples[::-1], mseq63_pc.T)
    rep_r = compute_metrics(reversed_w, MSEQ63_BAND)
    assert rep_r.sc == pytest.approx(rep.sc, abs=1e-9)
    assert rep_r.psl_db == pytest.approx(rep.psl_db, abs=1e-9)
    assert rep_r.isr_db == pytest.approx(rep.isr_db, abs=1e-9)
    assert rep_r.beta_rms == pytest.approx(rep.beta_rms, rel=1e-9)


# --------------------------------------------------------------------------
# exact values and guards that only these inputs reach, and the FFT work
# --------------------------------------------------------------------------

def test_half_acf_is_exactly_zero_at_lag_T(barker13_wave):
    # lag T has no overlap, but the real FFT of the power reads rounding there
    L = barker13_wave.n_samples
    spec = _correlation_fft(barker13_wave.samples)
    assert np.fft.rfft(np.square(spec.real) + np.square(spec.imag))[L] != 0
    assert _conj_autocorrelation(spec, L, barker13_wave.sample_rate)[L] == 0


def test_acf_lags_end_at_T_bit_for_bit():
    # for L = 416 samples over T = 2.9 s, L / (L / T) is not T
    w = synthesize_pc(barker_code(13), SamplingConfig(2.9))
    assert w.n_samples / w.sample_rate != 2.9
    a = acf(w)
    assert a.lags[-1] == 2.9 and a.lags[0] == -2.9


def test_psl_reads_the_first_lag_past_the_null():
    # the samples (1, j, 1) have |R| = 1, 0, 1/3, 0 on the lags 0, 1, 2, 3 = T:
    # the null's vertex is a quarter lag past lag 1, and the one sidelobe is
    # at lag 2, the first lag past it
    w = SampledWaveform(np.array([1, 1j, 1]) / np.sqrt(3.0), 3.0)
    a = acf(w)
    assert a.first_null == pytest.approx(1.25)
    assert psl(a) == compute_metrics(w, 0.5).psl_db == pytest.approx(20 * math.log10(1 / 3))


def test_band_fractions_are_clamped_to_0_1():
    # on the harmonic lines of 6 samples over T = 3 s, the band sums round past
    # [0, 1]: to 1 + 4e-16 for the unmodulated pulse, whose energy is all in
    # the DC line, and by the ACF path to -1e-16 for a tone on line 2, outside
    # a band of 1/2 Hz
    t = _time_grid(6, 3.0)
    flat, tone = (SampledWaveform(_unit_samples(2 * np.pi * k * t / 3.0, 3.0), 3.0)
                  for k in (0, 2))
    assert spectral_compactness(spectrum(flat, 1), 5 / 6) == 1.0
    assert compute_metrics(flat, 5 / 6, zero_pad_factor=1).sc == 1.0
    assert compute_metrics(tone, 0.5, zero_pad_factor=1).sc == 0.0


def test_negative_second_moment_reads_zero_bandwidth():
    # a central second moment that sums below 0 reads an RMS bandwidth of 0,
    # not a math domain error: here from a spectrum with negative power, and
    # on a 4-point grid from the ACF half conj(R) = (1, 0.9), which no two
    # samples have (theirs has |R(1)| <= R(0) / 2)
    assert rms_bandwidth_spectral(Spectrum(np.array([-1.0, 0.0, 1.0]),
                                           np.array([-1.0, 3.0, -1.0]))) == 0.0
    assert _acf_spectral(np.array([1.0, 0.9, 0.0], complex), 4, 1.0, 0.25, 0.25)[1] == 0.0


def test_compute_metrics_fft_work(mseq63_pc, monkeypatch):
    # one correlation FFT and one real FFT of its power at next_pow2(2L) = 4096,
    # and none at the padded spectrum's size, 4L = 8064
    calls = fft_calls(monkeypatch)
    compute_metrics(mseq63_pc, MSEQ63_BAND)
    assert calls == [("fft", (4096,)), ("rfft", (4096,))]


def test_ambiguity_fft_work(barker13_wave, monkeypatch):
    # L = 416 and n_fft = 1024, so nu shifts the spectrum by d = 16 nu bins.
    # The class f = 0 takes one FFT of the samples, which the nu = 0 row's
    # real FFT of the power shares; the class f = 1/2 takes two FFTs of the
    # modulated samples. Each class inverse-transforms its shifted rows in one
    # batch. A -nu row mirrored from its +nu row makes no transform.
    n = 1024
    expected = [("fft", (n,)), ("rfft", (n,)), ("ifft", (2, n)),
                ("fft", (n,)), ("fft", (n,)), ("ifft", (1, n))]
    calls = fft_calls(monkeypatch)
    ambiguity(barker13_wave, [0.0, 1 / 16, 1 / 8, 1 / 32])
    assert calls == expected
    calls.clear()
    ambiguity(barker13_wave, [0.0, 1 / 16, -1 / 16, 1 / 8, 1 / 32, -1 / 32])
    assert calls == expected
