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
from dataclasses import InitVar, dataclass, field

import numpy as np

from ._validation import check_int_at_least, check_p, check_positive
from .waveform import _csv, _text_csv, time_grid

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
    first, last = x[[0, -1]].tolist()
    lo, hi = max(lo, first), min(hi, last)
    if hi <= lo:
        return w
    i0 = int(x.searchsorted(lo, "right"))
    i1 = int(x.searchsorted(hi, "left"))
    edges = np.concatenate(([lo], x[i0:i1], [hi]))
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


def _band_integral(x, y, lo, hi):
    """Trapezoidal integral of y(x) over [lo, hi], interpolating at the edges."""
    return float(_band_weights(x, lo, hi) @ y)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spectrum:
    """DC-centered energy spectral density with unit total energy."""

    freqs: np.ndarray
    psd: np.ndarray
    centroid: float

    def __post_init__(self):
        for name in ("freqs", "psd"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def df(self):
        return float(self.freqs[1] - self.freqs[0])


def spectrum(w, zero_pad_factor=4):
    """Discrete spectrum of the zero-padded samples, scaled so sum(psd)*df = 1.

    The frequency axis has length n_samples * zero_pad_factor. With
    zero_pad_factor=1 the grid coincides with the waveform's harmonic lines
    k/T, which suppresses pulse-edge leakage in moment computations; larger
    factors resolve the continuous spectral envelope between lines.

    The spectrum is built in fftshift order in place: |X| of the two halves
    of the FFT goes straight into psd, which is then squared, and freqs is
    fftshift(fftfreq(n_fft, 1/f_s)) bit for bit, odd n_fft included. The
    centroid's freqs * psd is formed in the FFT's own buffer, which is dead
    by then.
    """
    zero_pad_factor = check_int_at_least("zero_pad_factor", zero_pad_factor, 1)
    n = w.n_samples * zero_pad_factor
    h = n // 2
    x = np.fft.fft(w.samples, n)
    x *= 1.0 / w.sample_rate
    psd = np.empty(n)
    np.abs(x[n - h:], out=psd[:h])
    np.abs(x[:n - h], out=psd[h:])
    psd *= psd
    freqs = np.arange(-h, n - h) * (1.0 / (n * (1.0 / w.sample_rate)))
    moment = np.multiply(freqs, psd, out=x.view(float)[:n])
    centroid = float(np.sum(moment) / np.sum(psd))
    return Spectrum(freqs, psd, centroid)


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
    frac = _band_integral(sp.freqs, sp.psd, -delta_f / 2, delta_f / 2)
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
    """Aperiodic autocorrelation over lags [-T, T], normalized so R(0) = 1.

    magnitudes is always |values|. acf() hands in the |R| it scanned the
    first null on through the private _magnitudes, so each call takes |R|
    once; dataclasses.replace() does not pass it on, so a replaced object
    takes |values| anew.
    """

    lags: np.ndarray
    values: np.ndarray
    first_null: float
    degenerate: bool
    magnitudes: np.ndarray = field(init=False, repr=False, compare=False)
    _magnitudes: InitVar[np.ndarray | None] = None

    def __post_init__(self, _magnitudes):
        values = np.asarray(self.values, dtype=complex)
        magnitudes = np.abs(values) if _magnitudes is None else _magnitudes
        for name, arr in (("lags", np.asarray(self.lags, dtype=float)),
                          ("values", values), ("magnitudes", magnitudes)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _correlation_fft(u):
    """FFT of u at the correlation size _next_pow2(2L), which is exact at
    every native lag; more padding would not change the correlation."""
    return np.fft.fft(u, _next_pow2(2 * u.size))


def _conj_autocorrelation(spec, L, sample_rate):
    """conj(R) at the lags 0..L-1, then the exact zero at lag T, from the
    _correlation_fft spectrum S of samples of length L, where
    R[m] = sum_n s[n+m] conj(s[n]) / f_s.

    R is the inverse transform of the real energy spectrum |S|^2, so conj(R)
    is its forward real FFT: one rfft of S.real^2 + S.imag^2 instead of a
    complex ifft of S conj(S). The scaling is a multiply by 1 / (n_fft f_s)
    of the L lags kept; numpy runs complex-by-real division through its
    slower complex division loop."""
    power = spec.real * spec.real
    power += spec.imag * spec.imag
    h = np.empty(L + 1, dtype=complex)
    np.multiply(np.fft.rfft(power)[:L], 1.0 / (spec.size * sample_rate), out=h[:L])
    h[L] = 0.0
    return h


def _autocorrelation(spec, L, sample_rate):
    """The autocorrelation R of samples of length L from their
    _correlation_fft spectrum, lags -(L-1)..(L-1) with exact zeros at lags
    -L and +L. R(-m) = conj(R(m)) bit for bit: the negative lags are the
    mirror of the lags > 0, and R(0) has imaginary part +0.0."""
    h = _conj_autocorrelation(spec, L, sample_rate)
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
    """The native lag grid -T, -(L-1)/f_s .. (L-1)/f_s, T of L samples; its
    last L + 1 entries are the lags >= 0."""
    return np.concatenate([[-T], np.arange(-(L - 1), L) / sample_rate, [T]])


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
    with imaginary part +0.0.
    """
    L = w.n_samples
    lags = _lag_grid(L, w.sample_rate, w.T)
    spec = _correlation_fft(w.samples)
    values = _autocorrelation(spec, L, w.sample_rate)
    magnitudes = np.abs(values)
    tau = _null_vertex(lags[L:], magnitudes[L:])
    return AcfResult(lags, values, float(lags[-1]) if tau is None else tau, tau is None,
                     _magnitudes=magnitudes)


def _shift_spectra(samples, f, n_fft):
    """The n_fft-point spectra U and conj(V) of samples times
    e^{+j 2 pi f n / n_fft} and times e^{-j 2 pi f n / n_fft}: the plain
    spectrum shifted by -f and by +f bins. At f = 0 both are that spectrum."""
    if f == 0:
        fu = fv = _correlation_fft(samples)
    else:
        # e^{j x} as cos x + j sin x: numpy's complex exp is slower
        x = (2 * np.pi * f / n_fft) * np.arange(samples.size)
        ramp = np.empty(x.size, dtype=complex)
        np.cos(x, out=ramp.real)
        np.sin(x, out=ramp.imag)
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

    A row whose exact value nu occurs earlier in the grid is copied from the
    first such row. The surface obeys chi(-tau, -nu) = conj(chi(tau, nu)),
    and the lag axis is symmetric, so a row whose exact negation -nu
    (nu != 0) occurs earlier is mirrored from the first such row as
    conj(row[::-1]). Neither is correlated.
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
    t0 = float(time_grid(L, w.T)[0])
    rows = np.empty((doppler_grid.size, 2 * L + 1), dtype=complex)
    first, copies, classes = {}, [], {}  # classes: f -> [(row, i, nu)]
    for k, (nu, d) in enumerate(zip(doppler_grid.tolist(), shifts.tolist())):
        if nu in first:
            copies.append((k, first[nu], False))
        elif nu != 0 and -nu in first:
            copies.append((k, first[-nu], True))
        else:
            i = math.floor(d)
            classes.setdefault(d - i, []).append((k, i, nu))
        first.setdefault(nu, k)
    for f, members in classes.items():  # one class alive at a time: O(rows x n_fft)
        fu, fvc = _shift_spectra(w.samples, f, n_fft)
        shifted = []
        for k, i, nu in members:
            if nu == 0:
                rows[k] = _autocorrelation(fu, L, w.sample_rate)
            else:
                shifted.append((k, i, nu))
        if not shifted:
            continue
        block = np.empty((len(shifted), n_fft), dtype=complex)
        for product, (_, i, _) in zip(block, shifted):
            _shifted_product(fu, fvc, i, product)
        for cc, (k, _, nu) in zip(np.fft.ifft(block, axis=-1), shifted):
            _lag_window(cc, L, cmath.exp(2j * math.pi * nu * t0) / w.sample_rate, rows[k])
    for k, j, mirrored in copies:  # row j < k is filled by now
        if mirrored:
            np.conj(rows[j][::-1], out=rows[k])
        else:
            rows[k] = rows[j]
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
    denom = y0 - 2 * y1 + y2
    offset = 0.5 * (y0 - y2) / denom if denom > 0 else 0.0
    return t1 + min(max(offset, -1.0), 1.0) * (t1 - t0)


_NO_NULL = "ACF has no interior null; mainlobe/sidelobe metrics are undefined"


def _require_null(a):
    if a.degenerate:
        raise DegenerateMainlobe(_NO_NULL)
    return a.first_null


def mainlobe_area(a):
    """Integral of |R|^2 over the mainlobe [-first_null, +first_null]."""
    dtau = _require_null(a)
    return _band_integral(a.lags, a.magnitudes ** 2, -dtau, dtau)


def psl(a):
    """Peak sidelobe level in dB: largest |R| at lags beyond the first null."""
    dtau = _require_null(a)
    side = a.magnitudes[a.lags >= dtau]
    return 20 * math.log10(float(side.max()))


def _sidelobe_weights(a):
    """The sidelobe region [first null, T] and the mainlobe region
    [0, first null] of an ACF over its lags >= 0, each as (support, weights):
    its trapezoid weights on the slice of lags from its first to its last
    non-zero weight. Raises DegenerateMainlobe when the ACF has no null."""
    return _regions(a.lags[a.lags.size // 2:], _require_null(a))


def _null_regions(lags, magnitudes):
    """_sidelobe_weights from |R| on the lags >= 0 alone, its first null
    scanned here as acf() scans it: the regions of an ACF that was never
    built as an AcfResult."""
    tau = _null_vertex(lags, magnitudes)
    if tau is None:
        raise DegenerateMainlobe(_NO_NULL)
    return _regions(lags, tau)


def _regions(lags, tau):
    w_den = _band_weights(lags, 0.0, tau)
    w_num = _band_weights(lags, 0.0, float(lags[-1])) - w_den
    return _on_support(w_num), _on_support(w_den)


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

    mag holds |R| on the lags >= 0 only and regions are the _sidelobe_weights
    of those lags: |R| is even, so both integrals over the whole grid are
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
    return _gisr_db(_sidelobe_weights(a), a.magnitudes[a.lags.size // 2:], p)


def _gisr_db(regions, mag, p):
    """gisr of |R| on the lags >= 0 on its _sidelobe_weights regions, found
    by the caller, so that a report scores ISR and GISR on one scan of them."""
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

    def to_json(self, extra=None):
        obj = {
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
        if extra:
            obj.update(extra)
        return json.dumps(obj, indent=2)


def compute_metrics(w, delta_f, p=10, zero_pad_factor=4):
    """Evaluate the whole metric suite for one waveform.

    zero_pad_factor sets the spectrum's analysis grid only; the ACF is exact
    at its native lags without padding. A degenerate mainlobe (no ACF null)
    is reported, not raised: the sidelobe fields come back as None with the
    degenerate flag set.
    """
    return _metrics_report(spectrum(w, zero_pad_factor), acf(w), delta_f, p)


def _metrics_report(sp, a, delta_f, p):
    """The compute_metrics report from an already computed spectrum and ACF.

    A band wider than the analysis span is clamped to it and flagged in
    sc_clamped instead of warning. p is checked whether or not the ACF is
    degenerate, so a bad p never yields a report.
    """
    check_p(p)
    span = 2 * float(sp.freqs[-1])
    band = min(check_positive("delta_f", delta_f), span)
    if a.degenerate:
        sidelobes = (None,) * 5
    else:
        regions, mag = _sidelobe_weights(a), a.magnitudes[a.lags.size // 2:]
        sidelobes = (a.first_null, mainlobe_area(a), psl(a),
                     _gisr_db(regions, mag, 2), _gisr_db(regions, mag, p))
    return MetricsReport(spectral_compactness(sp, band), band,
                         rms_bandwidth_spectral(sp), a.degenerate, *sidelobes,
                         p=p, sc_clamped=delta_f > span)


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
