"""Waveform quality metrics: spectrum, band energy fraction, autocorrelation,
ambiguity surface, mainlobe geometry, RMS bandwidth, and the sidelobe ratios
(PSL, ISR, and the p-norm generalization of ISR).

Conventions: PSL is 20*log10 of a magnitude ratio; ISR and its p-norm
generalization are 10*log10 of energy ratios.
"""

import json
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._validation import check_int_at_least, check_p, check_positive
from .waveform import time_grid

__all__ = [
    "DegenerateMainlobe",
    "Spectrum",
    "AcfResult",
    "FirstNull",
    "MetricsReport",
    "spectrum",
    "spectral_compactness",
    "acf",
    "ambiguity",
    "first_null",
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
    """
    zero_pad_factor = check_int_at_least("zero_pad_factor", zero_pad_factor, 1)
    n_fft = w.n_samples * zero_pad_factor
    x = np.fft.fft(w.samples, n_fft) / w.sample_rate
    psd = np.fft.fftshift(np.abs(x) ** 2)
    freqs = np.fft.fftshift(np.fft.fftfreq(n_fft, d=1.0 / w.sample_rate))
    centroid = float(np.sum(freqs * psd) / np.sum(psd))
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
    """Aperiodic autocorrelation over lags [-T, T], normalized so R(0) = 1."""

    lags: np.ndarray
    values: np.ndarray
    first_null: float
    degenerate: bool
    magnitudes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        for name, arr in (("lags", np.asarray(self.lags, dtype=float)),
                          ("values", values), ("magnitudes", np.abs(values))):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


class FirstNull(NamedTuple):
    tau: float
    degenerate: bool


def _correlation_fft(u):
    """FFT of u at the correlation size _next_pow2(2L), which is exact at
    every native lag; more padding would not change the correlation."""
    return np.fft.fft(u, _next_pow2(2 * u.size))


def _cross_correlation(fu, fv, L, sample_rate):
    """Lag-domain cross correlation sum_n u[n+m] conj(v[n]) / f_s from the
    _correlation_fft spectra of u and v, lags -(L-1)..(L-1), with exact zeros
    appended at lags -L and +L. The scaling is a multiply by 1 / f_s: numpy
    runs complex-by-real division through its slower complex division loop,
    and gives the same bits."""
    cc = np.fft.ifft(fu * np.conj(fv)) * (1.0 / sample_rate)
    return np.concatenate([[0.0], cc[-(L - 1):], cc[:L], [0.0]])


def _lag_grid(L, sample_rate, T):
    """The native lag grid -T, -(L-1)/f_s .. (L-1)/f_s, T of L samples; its
    last L + 1 entries are the lags >= 0."""
    return np.concatenate([[-T], np.arange(-(L - 1), L) / sample_rate, [T]])


def _autocorrelation(spec, L, sample_rate, lags):
    """(values, magnitudes, vertex) of the autocorrelation of L samples with
    _correlation_fft spectrum spec: values on the whole _lag_grid, |R| on its
    lags >= 0 (``lags``, the last L + 1 entries) and the _null_vertex of
    those, scanned once here for every consumer.
    """
    values = _cross_correlation(spec, spec, L, sample_rate)
    magnitudes = np.abs(values[L:])
    return values, magnitudes, _null_vertex(lags, magnitudes)


def acf(w):
    """Autocorrelation of a sampled waveform at its native lag spacing 1/f_s.

    Computed by frequency-domain correlation at FFT size _next_pow2(2L), which
    makes the circular correlation exactly aperiodic; more padding would not
    change the values. Unit input energy makes R(0) = 1. For a time-limited
    pulse the symmetric-lag form R(tau) = integral of s(t - tau/2) s*(t + tau/2)
    equals the one-sided-lag correlation computed here up to conjugation, so
    all magnitude-based metrics agree.
    """
    L = w.n_samples
    lags = _lag_grid(L, w.sample_rate, w.T)
    values, _, vertex = _autocorrelation(_correlation_fft(w.samples), L, w.sample_rate,
                                         lags[L:])
    first_null = float(lags[-1]) if vertex is None else vertex[1]
    return AcfResult(lags, values, first_null, vertex is None)


def ambiguity(w, doppler_grid):
    """Matched-filter response over (lag, Doppler): one row per Doppler shift.

    Row nu is the cross correlation of s(t) e^{+j pi nu t} with
    s(t) e^{-j pi nu t}, which reduces to the plain autocorrelation at nu = 0
    (same code path, so the nu = 0 row matches acf() bit for bit).

    The surface obeys chi(-tau, -nu) = conj(chi(tau, nu)), and the lag axis
    is symmetric, so a row whose exact negation -nu (nu != 0) occurs earlier
    in the grid is mirrored from the first such row as conj(row[::-1])
    instead of being correlated. Every other row, nu = 0 included, is
    correlated directly.
    """
    doppler_grid = np.atleast_1d(np.asarray(doppler_grid, dtype=float))
    if doppler_grid.size and not np.all(np.isfinite(doppler_grid)):
        raise ValueError("doppler_grid must be finite")
    L = w.n_samples
    t = time_grid(L, w.T)
    rows = np.empty((doppler_grid.size, 2 * L + 1), dtype=complex)
    first = {}  # Doppler value -> index of its first row
    for i, nu in enumerate(doppler_grid.tolist()):
        j = first.get(-nu) if nu != 0 else None
        if j is not None:
            rows[i] = np.conj(rows[j][::-1])
        else:
            kernel = np.exp(1j * np.pi * nu * t)
            rows[i] = _cross_correlation(_correlation_fft(w.samples * kernel),
                                         _correlation_fft(w.samples / kernel), L,
                                         w.sample_rate)
        first.setdefault(nu, i)
    return rows


# ---------------------------------------------------------------------------
# mainlobe geometry
# ---------------------------------------------------------------------------

def _null_vertex(lags, magnitudes):
    """First strict local minimum of |R| for tau > 0, refined parabolically.

    lags and magnitudes hold the lags >= 0 only (|R| is even). Returns
    (i, tau, dtau): the index of the minimum in those arrays, the refined
    null location, and the derivative of tau over magnitudes[i-1:i+2] as a
    3-tuple (zero where the refinement is clipped). None when no interior
    minimum exists, e.g. the pure triangle of an unmodulated pulse.
    """
    inner = magnitudes[1:-1]
    is_min = (inner < magnitudes[:-2]) & (inner < magnitudes[2:])
    i = int(is_min.argmax())  # the first True, if any
    if not is_min[i]:
        return None
    i += 1
    y0, y1, y2 = magnitudes[i - 1:i + 2].tolist()
    t0, t1 = lags[i - 1:i + 1].tolist()
    step = t1 - t0
    denom = y0 - 2 * y1 + y2
    offset = 0.5 * (y0 - y2) / denom if denom > 0 else 0.0
    dtau = (0.0, 0.0, 0.0)
    if denom > 0 and abs(offset) < 1.0:
        dtau = tuple(step * d / denom ** 2 for d in (y2 - y1, y0 - y2, y1 - y0))
    offset = min(max(offset, -1.0), 1.0)
    return i, t1 + offset * step, dtau


def first_null(a):
    """The first ACF null for tau > 0, as located when the ACF was computed;
    degenerate (tau = T) when none exists."""
    return FirstNull(a.first_null, a.degenerate)


def _require_null(a):
    if a.degenerate:
        raise DegenerateMainlobe(
            "ACF has no interior null; mainlobe/sidelobe metrics are undefined")
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


def _sidelobe_ratio(lags, trapezoid, mag, dtau, p, vertex=None):
    """Linear p-norm sidelobe ratio J = (N / D)^(2/p), N = int_dtau^T |R|^p and
    D = int_0^dtau |R|^p, shared by gisr() and the optimizer objective.

    lags and mag hold the lags >= 0 only: |R| is even, so both integrals
    over the whole grid are twice those over tau >= 0 and the ratio is the
    same. trapezoid is _band_weights(lags, 0, lags[-1]), the weights of the
    whole grid; the weights of N are those less the weights of D, which
    differ from zero only up to the null. N and D are weighted sums of
    |R|^p, so given the _null_vertex of mag (whose tau is dtau) this also
    returns dJ/d|R|^2 at every lag >= 0: J (w_N / N - w_D / D) |R|^(p-2)
    with the null held fixed, plus the term of the null moving. That term is
    small at large p, where |R(dtau)|^p is near zero, but not at p = 2.
    An N that underflows to 0 (low sidelobes at a large p) raises ValueError;
    with the gradient, so does one so small that J / N or 1 / N overflows.
    """
    mag_p2 = mag ** (p - 2)
    magp = mag_p2 * (mag * mag)
    w_den = _band_weights(lags, 0.0, dtau)
    w_num = trapezoid - w_den
    num = float(w_num @ magp)
    den = float(w_den @ magp)
    ratio = (num / den) ** (2.0 / p)
    if num == 0.0 or (vertex is not None and not math.isfinite((ratio + 1.0) / num)):
        raise ValueError(f"the sidelobe integral of |R|^p underflows to 0 at p={p}; "
                         "use a smaller p")
    if vertex is None:
        return ratio
    d_power = (w_num * (ratio / num) - w_den * (ratio / den)) * mag_p2
    i, _, d_tau = vertex
    # dN/dtau = -|R(tau)|^p and dD/dtau = |R(tau)|^p, linearly interpolated
    at_null = float(np.interp(dtau, lags, magp))
    d_ratio_tau = -(2.0 / p) * ratio * at_null * (1 / num + 1 / den)
    for j, (y, d) in enumerate(zip(mag[i - 1:i + 2].tolist(), d_tau), start=i - 1):
        if y > 0:
            d_power[j] += d_ratio_tau * d / (2 * y)
    return ratio, d_power


def gisr(a, p):
    """Sidelobe-to-mainlobe ratio of the p-norm of |R|, in dB.

    10*log10( [int_null^T |R|^p / int_0^null |R|^p]^(2/p) ); p = 2 is the
    standard integrated sidelobe ratio, large p approaches the PSL.
    """
    check_p(p)
    dtau = _require_null(a)
    L = a.lags.size // 2
    lags = a.lags[L:]
    trapezoid = _band_weights(lags, 0.0, float(lags[-1]))
    return 10 * math.log10(_sidelobe_ratio(lags, trapezoid, a.magnitudes[L:], dtau, p))


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
    sidelobes = ((None,) * 5 if a.degenerate else
                 (a.first_null, mainlobe_area(a), psl(a), isr(a), gisr(a, p)))
    return MetricsReport(spectral_compactness(sp, band), band,
                         rms_bandwidth_spectral(sp), a.degenerate, *sidelobes,
                         p=p, sc_clamped=delta_f > span)


def spectrum_csv(sp):
    """CSV text with header ``f_hz,psd``."""
    lines = ["f_hz,psd"]
    for f, v in zip(sp.freqs.tolist(), sp.psd.tolist()):
        lines.append(f"{f!r},{v!r}")
    return "\n".join(lines) + "\n"


def acf_csv(a):
    """CSV text with header ``tau_s,abs_r,arg_r``."""
    lines = ["tau_s,abs_r,arg_r"]
    for tau, v in zip(a.lags.tolist(), a.values.tolist()):
        lines.append(f"{tau!r},{abs(v)!r},{math.atan2(v.imag, v.real)!r}")
    return "\n".join(lines) + "\n"
