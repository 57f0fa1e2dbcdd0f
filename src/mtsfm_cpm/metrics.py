"""Waveform quality metrics: spectrum, band energy fraction, autocorrelation,
ambiguity surface, mainlobe geometry, RMS bandwidth, and the sidelobe ratios
(PSL, ISR, and the p-norm generalization of ISR).

Conventions: PSL is 20*log10 of a magnitude ratio; ISR and its p-norm
generalization are 10*log10 of energy ratios.
"""

import cmath
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._validation import check_int_at_least, check_p, check_positive, read_only_copy
from .waveform import _csv, _text_csv, _unit_samples

__all__ = [
    "DegenerateMainlobe",
    "Spectrum",
    "AcfResult",
    "MetricsReport",
    "spectrum",
    "spectral_compactness",
    "acf",
    "ambiguity",
    "mainlobe_area",
    "rms_bandwidth_spectral",
    "psl",
    "isr",
    "gisr",
    "compute_metrics",
    "spectrum_csv",
    "acf_csv",
]


class DegenerateMainlobe(ValueError):
    """Raised when a metric needs an ACF null but the ACF has none."""


def _next_pow2(n):
    return 1 << (int(n) - 1).bit_length()


def _band_weights(x, lo, hi):
    """Weights w with w @ y the trapezoidal integral of y(x) over [lo, hi].

    The band edges are interpolated linearly between their neighbouring
    samples, so each edge weight is split over two entries. x must be
    increasing; the band is clamped to the span of x.
    """
    w = np.zeros(x.size)
    lo, hi = max(lo, float(x[0])), min(hi, float(x[-1]))
    if hi <= lo:
        return w
    i0 = int(x.searchsorted(lo, "right"))
    i1 = int(x.searchsorted(hi, "left"))
    edges = np.empty(i1 - i0 + 2)
    edges[0], edges[1:-1], edges[-1] = lo, x[i0:i1], hi
    half = edges[1:] - edges[:-1]
    half /= 2
    np.add(half[:-1], half[1:], out=w[i0:i1])
    for edge, weight in ((lo, float(half[0])), (hi, float(half[-1]))):
        j = min(max(int(x.searchsorted(edge, "right")) - 1, 0), x.size - 2)
        xj, xj1 = x[j:j + 2].tolist()
        t = (edge - xj) / (xj1 - xj)
        w[j] += weight * (1 - t)
        w[j + 1] += weight * t
    return w


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spectrum:
    """DC-centered energy spectral density with unit total energy."""

    freqs: np.ndarray
    psd: np.ndarray

    def __post_init__(self):
        for name in ("freqs", "psd"):
            object.__setattr__(self, name, read_only_copy(getattr(self, name)))

    @property
    def df(self):
        return float(self.freqs[1] - self.freqs[0])

    @property
    def centroid(self):
        """Mean frequency, sum(freqs * psd) / sum(psd)."""
        return float(np.sum(self.freqs * self.psd) / np.sum(self.psd))


def spectrum(w, zero_pad_factor=4):
    """Discrete spectrum of the zero-padded samples, scaled so sum(psd)*df = 1.

    The frequency axis has length n_samples * zero_pad_factor. With
    zero_pad_factor=1 the grid coincides with the waveform's harmonic lines
    k/T, which suppresses pulse-edge leakage in moment computations; larger
    factors resolve the continuous spectral envelope between lines.
    """
    zero_pad_factor = check_int_at_least("zero_pad_factor", zero_pad_factor, 1)
    n = w.n_samples * zero_pad_factor
    x = np.fft.fft(w.samples, n) * (1.0 / w.sample_rate)
    psd = np.fft.fftshift(np.abs(x) ** 2)
    freqs = np.fft.fftshift(np.fft.fftfreq(n, 1.0 / w.sample_rate))
    return Spectrum(freqs, psd)


def spectral_compactness(sp, delta_f):
    """Fraction of waveform energy inside the centered band of width delta_f.

    Trapezoidal sum with linear interpolation at the band edges. A band wider
    than the analysis span is clamped to it with a warning.
    """
    check_positive("delta_f", delta_f)
    span = 2 * float(sp.freqs[-1])
    if delta_f > span:
        warnings.warn(
            f"delta_f={delta_f} exceeds the analysis span {span}; clamping",
            RuntimeWarning, stacklevel=2)
        delta_f = span
    frac = float(_band_weights(sp.freqs, -delta_f / 2, delta_f / 2) @ sp.psd)
    return min(max(frac, 0.0), 1.0)


def rms_bandwidth_spectral(sp):
    """RMS bandwidth in rad/s: second spectral moment about the centroid.

    For waveforms with discontinuities (pulse edges, phase-coded chips) this
    value grows with the analysis span; it is reported at the spectrum's own
    span. For coefficient-level agreement with the closed form of
    the Fourier-phase model, compute the spectrum with zero_pad_factor=1 so
    the grid sits on the harmonic lines.
    """
    df = sp.df
    second = float(np.sum((sp.freqs - sp.centroid) ** 2 * sp.psd) * df)
    return 2 * np.pi * math.sqrt(max(second, 0.0))


# ---------------------------------------------------------------------------
# autocorrelation and ambiguity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AcfResult:
    """Aperiodic autocorrelation over lags [-T, T], normalized so R(0) = 1;
    magnitudes is |values|, taken once at construction."""

    lags: np.ndarray
    values: np.ndarray
    first_null: float
    degenerate: bool
    magnitudes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = read_only_copy(self.values, complex)
        for name, arr in (("lags", read_only_copy(self.lags)), ("values", values),
                          ("magnitudes", read_only_copy(np.abs(values)))):
            object.__setattr__(self, name, arr)


def _correlation_fft(u):
    """FFT of u at the correlation size _next_pow2(2L), which is exact at
    every native lag; more padding would not change the correlation."""
    return np.fft.fft(u, _next_pow2(2 * u.size))


def _conj_autocorrelation(spec, L, sample_rate):
    """conj(R) at the lags 0..L-1, then the exact zero at lag T, from the
    _correlation_fft spectrum S of samples of length L, where
    R[m] = sum_n s[n+m] conj(s[n]) / f_s. S is only read.

    R is the inverse transform of the real energy spectrum
    |S|^2 = S.real^2 + S.imag^2, so conj(R) is its forward real FFT: one
    rfft instead of a complex ifft of S conj(S). The scaling is an in-place
    multiply by 1 / (n_fft f_s) of the L lags kept; numpy runs
    complex-by-real division through its slower complex division loop. The
    result is a view of the rfft's own output."""
    power = np.square(spec.real)
    power += np.square(spec.imag)
    h = np.fft.rfft(power)[:L + 1]
    h[:L] *= 1.0 / (spec.size * sample_rate)
    h[L] = 0.0
    return h


def _autocorrelation(h):
    """The autocorrelation R from its conjugate half h, conj(R) at the lags
    0..L (_conj_autocorrelation): lags -(L-1)..(L-1) with exact zeros at
    lags -L and +L. R(-m) = conj(R(m)) bit for bit: the negative lags are
    the mirror of the lags > 0, and R(0) has imaginary part +0.0."""
    L = h.size - 1
    out = np.empty(2 * L + 1, dtype=complex)
    np.conj(h, out=out[L:])
    out[L] = h[0].real  # conj would make its imaginary part -0.0
    out[0] = out[-1] = 0.0
    out[1:L] = h[L - 1:0:-1]
    return out


def _lag_window(cc, L, scale, out):
    """out = scale times the lags -(L-1)..(L-1) of a circular correlation cc
    of length >= 2L, with exact zeros at lags -L and +L."""
    out[0] = out[-1] = 0.0
    np.multiply(cc[-(L - 1):], scale, out=out[1:L])
    np.multiply(cc[:L], scale, out=out[L:2 * L])
    return out


def _lag_grid(L, sample_rate, T):
    """The lags >= 0 of the native lag grid of L samples: 0, 1/f_s ..
    (L-1)/f_s, then T. acf() mirrors them for the lags < 0."""
    lags = np.arange(L + 1) / sample_rate
    lags[L] = T
    return lags


def acf(w):
    """Autocorrelation of a sampled waveform at its native lag spacing 1/f_s.

    Computed by frequency-domain correlation at FFT size _next_pow2(2L), which
    makes the circular correlation exactly aperiodic; more padding would not
    change the values. Unit input energy makes R(0) = 1. For a time-limited
    pulse the symmetric-lag form R(tau) = integral of s(t - tau/2) s*(t + tau/2)
    equals the one-sided-lag correlation computed here up to conjugation, so
    all magnitude-based metrics agree.

    R is the inverse transform of the real energy spectrum |S|^2, so it is
    exactly Hermitian: R(-tau) = conj(R(tau)) bit for bit, and R(0) is real
    with imaginary part +0.0. R and the first null are those of _half_acf at
    tau >= 0, mirrored to the lags < 0.
    """
    return _acf_of(_half_acf(w))


def _acf_of(half):
    """The acf() result from a _half_acf: conj(R) and its lags at tau >= 0,
    mirrored to the lags < 0. half is only read, so the caller may also
    score it (_metrics_report) and correlate the samples once."""
    r_conj, half_lags, _, tau = half
    lags = np.concatenate((-half_lags[:0:-1], half_lags))  # -(m / f_s) is (-m) / f_s bit for bit
    return AcfResult(lags, _autocorrelation(r_conj), float(lags[-1]) if tau is None else tau,
                     tau is None)


def _half_acf(w):
    """(conj(R), lags, |R|, first null or None) of w at the lags 0..L, the
    half of the ACF that acf() mirrors and compute_metrics scores: one
    correlation (_conj_autocorrelation), |R| once, and its _null_vertex scan."""
    L = w.n_samples
    r_conj = _conj_autocorrelation(_correlation_fft(w.samples), L, w.sample_rate)
    lags, mag = _lag_grid(L, w.sample_rate, w.T), np.abs(r_conj)
    return r_conj, lags, mag, _null_vertex(lags, mag)


def _shift_spectra(samples, f, n_fft):
    """The n_fft-point spectra U and conj(V) of samples times
    e^{+j 2 pi f n / n_fft} and times e^{-j 2 pi f n / n_fft}: the plain
    spectrum shifted by -f and by +f bins. At f = 0 both are that spectrum."""
    if f == 0:
        fu = fv = _correlation_fft(samples)
    else:
        ramp = _unit_samples((2 * np.pi * f / n_fft) * np.arange(samples.size), 1.0)
        fu, fv = _correlation_fft(samples * ramp), _correlation_fft(samples * ramp.conj())
    return fu, np.conj(fv)


def _shifted_product(fu, fvc, i, out):
    """out[m] = fu[m - i] * fvc[m + i], indices mod the common length: the
    product np.roll(fu, i) * np.roll(fvc, -i), as at most three contiguous
    products of slices with no copy. With the two np.roll copies per row,
    off-bin grids ran slower than modulating each row's samples directly
    (BENCH_12.json)."""
    n = out.size
    ru, rv = i % n, -i % n
    cuts = sorted({0, ru, rv, n})
    for a, b in zip(cuts, cuts[1:]):
        np.multiply(fu[(a - ru) % n:][:b - a], fvc[(a - rv) % n:][:b - a], out=out[a:b])
    return out


def ambiguity(w, doppler_grid):
    """Matched-filter response over (lag, Doppler): one row per Doppler shift.

    Row nu is the cross correlation of s(t) e^{+j pi nu t} with
    s(t) e^{-j pi nu t}; doppler_grid must be 1-D (it may be empty).

    On the midpoint grid t_n = t_0 + n/f_s the modulation shifts the
    correlation spectrum S of s by d = nu T n_fft / (2L) bins, +d for the
    first factor and -d for the second. With d = i + f, i = floor(d), row nu
    is e^{j 2 pi nu t_0} ifft(U_f[m - i] conj(V_f[m + i])) / f_s, where U_f and
    V_f are the spectra of s e^{+-j 2 pi f n / n_fft}. Rows with the same
    fractional part f share U_f and V_f, computed once per class and one
    class at a time; the f = 0 class uses S itself, so on-bin rows need no
    forward FFT of their own. The products of a class's rows are written into
    one (rows x n_fft) block and inverse-transformed by one batched FFT, so
    a class holds O(rows x n_fft) memory. The nu = 0 row is acf()'s own
    autocorrelation of S, so it matches acf() bit for bit.

    The surface obeys chi(-tau, -nu) = conj(chi(tau, nu)), and the lag axis
    is symmetric, so a row whose exact negation -nu (nu != 0) occurs earlier
    is mirrored from the first such row as conj(row[::-1]) and not
    correlated. Every other row is correlated, a repeated nu too: it joins
    its class's batched inverse FFT, which gives it the same bits.
    """
    doppler_grid = np.asarray(doppler_grid, dtype=float)
    if doppler_grid.ndim != 1:
        raise ValueError(f"doppler_grid must be 1-D, not of shape {doppler_grid.shape}")
    L = w.n_samples
    n_fft = _next_pow2(2 * L)
    with np.errstate(over="ignore"):  # an overflow is the error below
        shifts = doppler_grid * (w.T * n_fft / (2 * L))  # d of each row, in bins
    if not np.all(np.isfinite(shifts)):
        raise ValueError("doppler_grid must be finite, and so must its spectral shifts")
    t0 = float(w.times[0])
    rows = np.empty((doppler_grid.size, 2 * L + 1), dtype=complex)
    first, mirrors, classes = {}, [], {}  # classes: f -> [(row, i, nu)]
    for k, (nu, d) in enumerate(zip(doppler_grid.tolist(), shifts.tolist())):
        if nu != 0 and -nu in first:
            mirrors.append((k, first[-nu]))
        else:
            i = math.floor(d)
            classes.setdefault(d - i, []).append((k, i, nu))
        first.setdefault(nu, k)
    for f, members in classes.items():  # one class alive at a time: O(rows x n_fft)
        fu, fvc = _shift_spectra(w.samples, f, n_fft)
        shifted = []
        for k, i, nu in members:
            if nu == 0:
                rows[k] = _autocorrelation(_conj_autocorrelation(fu, L, w.sample_rate))
            else:
                shifted.append((k, i, nu))
        if shifted:
            block = np.empty((len(shifted), n_fft), dtype=complex)
            for product, (_, i, _) in zip(block, shifted):
                _shifted_product(fu, fvc, i, product)
            for cc, (k, _, nu) in zip(np.fft.ifft(block, axis=-1), shifted):
                _lag_window(cc, L, cmath.exp(2j * math.pi * nu * t0) / w.sample_rate, rows[k])
    for k, j in mirrors:  # row j < k is filled by now
        np.conj(rows[j][::-1], out=rows[k])
    return rows


# ---------------------------------------------------------------------------
# mainlobe geometry
# ---------------------------------------------------------------------------

def _null_vertex(lags, magnitudes):
    """First strict local minimum of |R| for tau > 0, refined parabolically.

    lags and magnitudes hold the lags >= 0 only (|R| is even). Returns the
    refined null location, or None when no interior minimum exists, e.g.
    the pure triangle of an unmodulated pulse.
    """
    inner = magnitudes[1:-1]
    is_min = (inner < magnitudes[:-2]) & (inner < magnitudes[2:])
    i = int(is_min.argmax())  # the first True, if any
    if not is_min[i]:
        return None
    y0, y1, y2 = magnitudes[i:i + 3].tolist()
    t0, t1 = lags[i:i + 2].tolist()
    # y1 < y0, y2: the computed y0 - 2 y1 + y2 > 0 and the offset is below 1/2
    return t1 + 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2) * (t1 - t0)


_NO_NULL = "ACF has no interior null; mainlobe/sidelobe metrics are undefined"


def _require_null(a):
    """(lags, |R|, first null) of an AcfResult at tau >= 0, where the public
    metrics read it (|R| is even); DegenerateMainlobe when it has no null."""
    if a.degenerate:
        raise DegenerateMainlobe(_NO_NULL)
    L = a.lags.size // 2
    return a.lags[L:], a.magnitudes[L:], a.first_null


def _regions(lags, tau):
    """The sidelobe region [tau, T] and the mainlobe region [0, tau] of |R|
    on the lags >= 0, each as (support, weights): its trapezoid weights on
    the slice of lags from its first to its last non-zero weight. tau is
    the first null; None, as _null_vertex finds it on an ACF without one,
    raises DegenerateMainlobe."""
    if tau is None:
        raise DegenerateMainlobe(_NO_NULL)
    w_den = _band_weights(lags, 0.0, tau)
    w_num = _band_weights(lags, 0.0, float(lags[-1]))
    w_num -= w_den
    return _on_support(w_num), _on_support(w_den)


def _mainlobe_area(regions, mag):
    """mainlobe_area from the _regions of |R| on the lags >= 0: twice the
    mainlobe's integral of |R|^2 over [0, first null], as |R| is even."""
    main, w_main = regions[1]
    return 2 * float(w_main @ np.square(mag[main]))


def _psl_db(lags, mag, tau):
    """psl from |R| on the lags >= 0: the largest |R| at lags >= tau."""
    return 20 * math.log10(float(mag[int(lags.searchsorted(tau)):].max()))


def mainlobe_area(a):
    """Integral of |R|^2 over the mainlobe [-first_null, +first_null]: twice
    the trapezoid integral over [0, first_null] on the lags >= 0, as |R| is
    even. A compute_metrics report's mainlobe_area is this, bit for bit."""
    lags, mag, tau = _require_null(a)
    return _mainlobe_area(_regions(lags, tau), mag)


def psl(a):
    """Peak sidelobe level in dB: largest |R| at lags beyond the first null,
    read on the lags >= 0 (|R| is even), as compute_metrics reads it."""
    return _psl_db(*_require_null(a))


def _on_support(w):
    nz = w != 0
    support = slice(int(nz.argmax()), w.size - int(nz[::-1].argmax()))
    return support, w[support]


def _scaled_power_sum(w, mag, p):
    """(m, w @ (mag / m)^p, w (mag / m)^(p-2)) with m = max(mag): each term
    of the sum is at most its weight, and the one at the peak equals it."""
    m = float(mag.max())
    x = mag * (1.0 / m)
    wx_p2 = x ** (p - 2)
    wx_p2 *= w
    x *= x
    return m, float(wx_p2 @ x), wx_p2


def _sidelobe_ratio(regions, mag, p, with_gradient=False):
    """Linear p-norm sidelobe ratio J = (N / D)^(2/p), N = w_num @ |R|^p and
    D = w_den @ |R|^p, shared by gisr() and the optimizer objective.

    mag holds |R| on the lags >= 0 only and regions are its _regions on
    those lags: |R| is even, so both integrals over the whole grid are
    twice those over tau >= 0 and the ratio is the same.

    Each sum is scaled by the peak |R| on its own region's support:
    J = (m_s / m_0)^2 (N~ / D~)^(2/p) with N~ = w_num @ (|R| / m_s)^p and
    D~ = w_den @ (|R| / m_0)^p, m_s the largest sidelobe |R| and m_0 the
    largest mainlobe |R|, |R(0)|. Each power is taken on its own support
    only, where it is at most 1, and N~ and D~ are at least the weight at
    their peak, so every finite p >= 2 is defined: nothing overflows or
    underflows. m_s > 0 because the first null is a strict local minimum of
    |R|, refined to within half a lag, so the next lag lies in the sidelobe
    support with |R| above the null's.

    with_gradient also returns dJ/d|R|^2 at every lag >= 0 with the regions
    held fixed, J (w_num / N - w_den / D) |R|^(p-2) in the same scaling:
    J (w_num (|R| / m_s)^(p-2) / (m_s^2 N~) - w_den (|R| / m_0)^(p-2) / (m_0^2 D~)).
    """
    (side, w_num), (main, w_den) = regions
    m_s, num, w_num_p2 = _scaled_power_sum(w_num, mag[side], p)
    m_0, den, w_den_p2 = _scaled_power_sum(w_den, mag[main], p)
    ratio = (m_s / m_0) ** 2 * (num / den) ** (2.0 / p)
    if not with_gradient:
        return ratio
    d_power = np.zeros(mag.size)
    np.multiply(w_num_p2, ratio / (m_s * m_s * num), out=d_power[side])
    d_power[main] -= w_den_p2 * (ratio / (m_0 * m_0 * den))
    return ratio, d_power


def gisr(a, p):
    """Sidelobe-to-mainlobe ratio of the p-norm of |R|, in dB.

    10*log10( [int_null^T |R|^p / int_0^null |R|^p]^(2/p) ); p = 2 is the
    standard integrated sidelobe ratio, and as p grows the ratio tends to
    the PSL. Each integral is taken scaled by its own region's peak |R|
    (the sidelobe peak m_s > 0, and |R(0)|), so it neither overflows nor
    underflows and every finite p >= 2 is defined; see _sidelobe_ratio.
    """
    check_p(p)
    lags, mag, tau = _require_null(a)
    return _gisr_db(_regions(lags, tau), mag, p)


def _gisr_db(regions, mag, p):
    """gisr of |R| on the lags >= 0 on its _regions, found by the caller,
    so that a report scores ISR and GISR on one scan of them."""
    return 10 * math.log10(_sidelobe_ratio(regions, mag, p))


def isr(a):
    """Integrated sidelobe ratio in dB (the p = 2 case of gisr)."""
    return gisr(a, 2)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricsReport:
    """Full metric suite for one waveform at a stated band and p."""

    sc: float
    delta_f: float
    beta_rms: float
    degenerate: bool
    delta_tau: float | None
    mainlobe_area: float | None
    psl_db: float | None
    isr_db: float | None
    gisr_db: float | None
    p: int
    sc_clamped: bool = False

    def _fields(self):
        """The report's unit-suffixed keys and values, as to_json writes them."""
        return {
            "sc_fraction": self.sc,
            "delta_f_hz": self.delta_f,
            "beta_rms_rad_s": self.beta_rms,
            "degenerate": self.degenerate,
            "delta_tau_s": self.delta_tau,
            "mainlobe_area": self.mainlobe_area,
            "psl_db": self.psl_db,
            "isr_db": self.isr_db,
            "gisr_db": self.gisr_db,
            "p": self.p,
            "sc_clamped": self.sc_clamped,
        }

    def to_json(self, extra=None):
        obj = self._fields()
        if extra:
            obj.update(extra)
        return json.dumps(obj, indent=2)


def compute_metrics(w, delta_f, p=10, zero_pad_factor=4):
    """Evaluate the whole metric suite for one waveform.

    zero_pad_factor sets the spectrum's analysis grid only; the ACF is exact
    at its native lags without padding. The report reads the _half_acf that
    acf() mirrors, at tau >= 0, with the code the public psl, isr, gisr and
    mainlobe_area run there, so its fields equal theirs bit for bit. SC and
    the RMS bandwidth are those of spectrum(w, zero_pad_factor), but are
    taken from the same R: no spectrum is formed. A degenerate mainlobe (no
    ACF null) is reported, not raised: the sidelobe fields come back as None
    with the degenerate flag set.
    """
    zero_pad_factor = check_int_at_least("zero_pad_factor", zero_pad_factor, 1)
    return _metrics_report(w, _half_acf(w), delta_f, p, zero_pad_factor)


def _metrics_report(w, half, delta_f, p, zero_pad_factor):
    """The compute_metrics report of w from its _half_acf: conj(R), the lags
    0..L, |R| there and the first null.

    The sidelobe and mainlobe regions are scanned once (_regions): ISR,
    GISR(p) and the _mainlobe_area are scored on them, and PSL is _psl_db,
    the helpers the public psl, isr, gisr and mainlobe_area call on acf(w)
    at tau >= 0: every field equals theirs, and first_null, bit for bit.
    half is only read: the CLI's ACF export mirrors the same half (_acf_of).

    A band wider than the analysis span is clamped to it and flagged in
    sc_clamped instead of warning. p is checked whether or not the ACF is
    degenerate, so a bad p never yields a report.
    """
    check_p(p)
    n = w.n_samples * zero_pad_factor
    df = 1.0 / (n * (1.0 / w.sample_rate))  # spectrum()'s bin spacing, bit for bit
    span = 2 * ((n - n // 2 - 1) * df)  # 2 * spectrum().freqs[-1]
    band = min(check_positive("delta_f", delta_f), span)
    r_conj, lags, mag, tau = half
    in_band, beta_rms = _acf_spectral(r_conj, n, w.sample_rate, df, band / 2)
    if tau is None:
        sidelobes = (None,) * 5
    else:
        regions = _regions(lags, tau)
        sidelobes = (tau, _mainlobe_area(regions, mag), _psl_db(lags, mag, tau),
                     _gisr_db(regions, mag, 2), _gisr_db(regions, mag, p))
    return MetricsReport(min(max(in_band, 0.0), 1.0), band, beta_rms, tau is None,
                         *sidelobes, p=p, sc_clamped=delta_f > span)


def _sine_sums(x, ks, n):
    """sum_m x[m-1] sin(pi k m / n) over m = 1..x.size, for each integer k in
    ks. With m = B a + c, B = ceil(sqrt(x.size + 1)), sin(alpha_a + beta_c)
    splits the sum over c into one (2 len(ks) x B) @ (B x B) product of the
    tables of beta_c = pi k c / n with x laid out as a B x B grid, and the
    sum over a into dots with the tables of alpha_a = pi k B a / n. So the
    sines and cosines taken are 4 B len(ks), not len(ks) x.size, and every
    angle is reduced mod 2n in integers before it is scaled."""
    B = math.isqrt(x.size) + 1
    grid = np.zeros(B * B)
    grid[1:x.size + 1] = x
    a = np.arange(B)
    ks = ks[:, None]
    fine = (np.pi / n) * (ks * a % (2 * n))
    coarse = (np.pi / n) * (ks * B % (2 * n) * a % (2 * n))
    by_c = np.concatenate([np.cos(fine), np.sin(fine)]) @ grid.reshape(B, B).T
    return np.sum(np.sin(coarse) * by_c[:ks.size] + np.cos(coarse) * by_c[ks.size:], axis=1)


def _acf_spectral(r_conj, n, sample_rate, df, hi):
    """spectral_compactness over [-hi, hi] and rms_bandwidth_spectral of the
    n-point spectrum, taken from conj(R) at the lags 0..L (L <= n) of the
    samples that spectrum transforms, without forming it.

    By Wiener-Khinchin the spectrum's bin j, j = -h..n-h-1 with h = n // 2,
    is psd_j = (1/f_s) sum_{|m|<L} R[m] z^(jm), z = e^{-2 pi i / n}, which
    holds at every n >= L, folding included. So a real weighting v of the
    bins sums to sum_j v_j psd_j = (v^_0 R[0] + 2 sum_{m>=1} Re(R[m] v^_m)) / f_s
    with v^_m = sum_j v_j z^(jm), and each kernel v^ needed is closed-form in
    theta = pi m / n, with s = (-1)^m:
      v = j:   v^ = (n s / 2)(-1 + i cot theta) for even n, i n s / (2 sin theta) for odd n;
      v = j^2: v^ = n s / (2 sin^2 theta) for even n, n s cos theta / (2 sin^2 theta) for odd n;
      v = the band weights w, symmetric about bin 0: by Abel summation over
        the Dirichlet kernels D_j = sin((2j+1) theta) / sin theta, D_j(0) = 2j+1,
        v^ = (w_0 - df) + (df - w_{b+1}) D_b + sum_{j>b} (w_j - w_{j+1}) D_j
        when bins 1..b weigh df, as every bin two bins or more inside the
        band does.
    The weights w_j of bins j > b are _band_weights' on [-hi, hi], taken on
    the bins from b up alone; bin 0 weighs df unless b = 0. The RMS bandwidth
    is the central second moment (M2 - M1^2 / M0) df of the moments
    M_k = df^k sum_j j^k psd_j, with M0 = n R[0] / f_s. The arithmetic over
    the lags is real: complex division there cost as much as the FFT it
    replaces at L = 2016. Im R is -r_conj.imag, so the sums over it change
    sign, which is exact; R at lag L is 0 and is left out. The kernels are
    formed in place: sin theta becomes 1 / sin theta, then s / sin theta,
    and cos theta its product with g or Im R.
    """
    L = r_conj.size - 1
    h = n // 2
    top = n - h - 1
    r0 = float(r_conj[0].real)
    re, im = r_conj.real[1:L], r_conj.imag[1:L]  # Re R, -Im R
    theta = np.arange(1, L) * (np.pi / n)
    cos = np.cos(theta)
    inv_sin = np.sin(theta, out=theta)
    np.divide(1.0, inv_sin, out=inv_sin)
    g = re * inv_sin
    # the band
    q = int(hi / df)
    b, last = max(q - 2, 0), min(q + 2, top)
    x = np.arange(b, last + 1) * df
    w = _band_weights(x, x[0], hi)  # bins b+1..last as on the whole grid
    centre = 2 * float(w[0]) - df if b == 0 else 0.0  # w_0 - df
    steps = w.copy()  # w_j - w_{j+1}, with df for w_b and 0 past last
    steps[0] = df
    steps[:-1] -= w[1:]
    ks = np.arange(2 * b + 1, 2 * last + 2, 2)
    band = centre * r0 + float(steps @ ks) * r0  # v^_0 R[0]
    band += 2 * (centre * float(re.sum()) + float(steps @ _sine_sums(g, ks, n)))
    # the moments: the sign s = (-1)^m rides on s / sin theta, made in place
    inv_sin_s = inv_sin
    inv_sin_s[::2] *= -1  # m = 1, 3, ...
    if n % 2:
        sum_j = n * float(im @ inv_sin_s)
        sum_j2 = n * float(np.multiply(g, cos, out=cos) @ inv_sin_s)
    else:
        sum_j = -n * (float(re[1::2].sum()) - float(re[::2].sum())
                      - float(np.multiply(im, cos, out=cos) @ inv_sin_s))
        sum_j2 = n * float(g @ inv_sin_s)
    sum_j += r0 * ((top * (top + 1) - h * (h + 1)) // 2)  # sum of j over the bins
    sum_j2 += r0 * ((top * (top + 1) * (2 * top + 1) + h * (h + 1) * (2 * h + 1)) // 6)
    m0 = n * r0 / sample_rate
    m1 = df * sum_j / sample_rate
    m2 = df * df * sum_j2 / sample_rate
    second = (m2 - m1 * m1 / m0) * df
    return band / sample_rate, 2 * np.pi * math.sqrt(max(second, 0.0))


def spectrum_csv(sp):
    """CSV text with header ``f_hz,psd``."""
    return _csv("f_hz,psd", sp.freqs, sp.psd.tolist())


def acf_csv(a):
    """CSV text with header ``tau_s,abs_r,arg_r``.

    acf() results are Hermitian, so each mirrored pair of rows is formatted
    once: a row in the first half whose value is the conjugate of its mirror
    row's value bit for bit (sign of zero included, NaN never) takes the
    mirror's |R| text and its arg text with the sign flipped, and neither
    value is computed. That relies on abs being even and math.atan2 odd in
    the imaginary part bit for bit, as IEEE 754 requires of hypot and atan2
    (a test holds this platform to it). Every other row is formatted on its
    own, so the text is that of formatting each value, whatever a holds.
    |R| and arg R are Python's abs and math.atan2: numpy's change last bits.
    """
    v = a.values
    half = v.size // 2
    head = np.ascontiguousarray(v[:half])
    mirror = np.conj(v[::-1][:half])
    same = (head.view(np.int64).reshape(-1, 2) == mirror.view(np.int64).reshape(-1, 2))
    own = np.flatnonzero(~same.all(axis=1) | np.isnan(head)).tolist()
    mag = list(map(repr, map(abs, v[half:].tolist())))
    arg = list(map(repr, map(math.atan2, v.imag[half:].tolist(), v.real[half:].tolist())))
    head_mag = mag[::-1][:half]
    head_arg = [t[1:] if t[0] == "-" else "-" + t for t in arg[::-1][:half]]
    for i, z in zip(own, v[own].tolist()):
        head_mag[i], head_arg[i] = repr(abs(z)), repr(math.atan2(z.imag, z.real))
    return _text_csv("tau_s,abs_r,arg_r", a.lags, head_mag + mag, head_arg + arg)
