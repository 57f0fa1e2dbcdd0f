"""Sampled baseband waveforms and phase-coded pulse synthesis.

All waveforms live on a uniform midpoint time grid over [-T/2, T/2] and are
normalized to unit energy, matching the 1/sqrt(T) amplitude of the
constant-modulus pulse model.

Each export format has one writer here: _csv writes every per-sample CSV
(the waveform, spectrum, ACF and phase exports) and _json every JSON document
(params, metrics reports, optimize results and reproduce's summary).
"""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from ._validation import check_in_pulse, check_int_at_least, check_positive, read_only_copy

__all__ = [
    "DEFAULT_SAMPLES_PER_CHIP",
    "SamplingConfig",
    "SampledWaveform",
    "pc_phase",
    "synthesize_pc",
    "waveform_csv",
    "waveform_raw_bytes",
]

DEFAULT_SAMPLES_PER_CHIP = 32
_MIN_SAMPLES_PER_CHIP = 8


@dataclass(frozen=True)
class SamplingConfig:
    """Sampling choices for pulse synthesis: pulse length and chip density.

    samples_per_chip below 8 is rejected: the band-fraction metrics then pick
    up visible aliasing error. Spectral zero padding is an argument of
    spectrum(), not a sampling choice.
    """

    T: float
    samples_per_chip: int = DEFAULT_SAMPLES_PER_CHIP

    def __post_init__(self):
        check_positive("T", self.T)
        check_int_at_least("samples_per_chip", self.samples_per_chip, _MIN_SAMPLES_PER_CHIP)


@dataclass(frozen=True)
class SampledWaveform:
    """Unit-energy complex baseband samples on a midpoint grid over [-T/2, T/2].

    sample_rate is n_samples / T: the metrics take their lag and frequency
    spacing from it.
    """

    samples: np.ndarray
    T: float

    def __post_init__(self):
        samples = read_only_copy(self.samples, complex)
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("samples must be a 1-D array with at least 2 entries")
        object.__setattr__(self, "samples", samples)
        check_positive("T", self.T)
        if not abs(self.energy - 1.0) <= 1e-9:  # nan or inf samples fail too
            raise ValueError(f"waveform energy {self.energy} is not 1 within 1e-9")

    @property
    def n_samples(self):
        return self.samples.size

    @property
    def sample_rate(self):
        return self.samples.size / self.T

    @property
    def energy(self):
        return float(np.sum(np.abs(self.samples) ** 2) / self.sample_rate)

    @property
    def times(self):
        return _time_grid(self.n_samples, self.T)


def _time_grid(n_samples, T):
    """Midpoint sample times: t_n = -T/2 + (n + 1/2) / f_s with f_s = n_samples / T."""
    return -T / 2 + (np.arange(n_samples) + 0.5) * (T / n_samples)


def pc_phase(code, T, t):
    """Piecewise-constant instantaneous phase of a phase-coded pulse.

    Chip i (1-based) occupies [-T/2 + (i-1)*t_b, -T/2 + i*t_b); a time landing
    exactly on a chip boundary belongs to the later chip, except that the
    final chip includes its right endpoint t = +T/2.

    Parameters
    ----------
    code : PhaseCode
    T : float
        Pulse length in seconds.
    t : float or array_like
        Time(s) in [-T/2, T/2]; values outside the pulse are rejected, and so
        is a T so large that a chip position (t + T/2) * n overflows.
    """
    check_positive("T", T)
    t_arr = check_in_pulse(t, T)
    n = code.n
    with np.errstate(over="ignore"):  # an overflow is the error below
        position = (t_arr + T / 2) * n
    if not np.all(np.isfinite(position)):
        raise ValueError(f"T={T} is too large for {n} chips: a chip position overflows")
    idx = np.floor(position / T).astype(int)
    idx = np.minimum(idx, n - 1)  # right endpoint of the final chip
    out = code.phases[idx]
    return out if np.ndim(t) else float(out)


def synthesize_pc(code, cfg):
    """Synthesize the unit-energy phase-coded pulse on a midpoint grid.

    Midpoint sampling never lands on a chip boundary, so the synthesized
    samples are insensitive to the boundary tie-break rule.
    """
    if not isinstance(cfg, SamplingConfig):
        raise TypeError("cfg must be a SamplingConfig")
    samples = _unit_samples(np.repeat(code.phases, cfg.samples_per_chip), cfg.T)
    return SampledWaveform(samples, cfg.T)


def _unit_samples(phi, T):
    """exp(j phi) / sqrt(T) by one cos and one sin pass into one complex
    buffer, then a multiply by 1 / sqrt(T). np.exp(1j * phi) / sqrt(T) does
    the same arithmetic (the exponential of a zero real part is cos + j sin,
    and numpy divides complex by real as a multiply by the reciprocal), so
    both give the same samples bit for bit. With T = 1 the multiply is by
    1.0, so this is also the package's plain e^{j phi}: ambiguity()'s
    off-bin spectral-shift ramp is built with it."""
    out = np.empty(phi.size, dtype=complex)
    np.cos(phi, out=out.real)
    np.sin(phi, out=out.imag)
    parts = out.view(float)
    parts *= 1.0 / math.sqrt(T)
    return out


def waveform_csv(w):
    """CSV text with header ``t,re,im``."""
    return _csv("t,re,im", w.times, map(repr, w.samples.real.tolist()),
                map(repr, w.samples.imag.tolist()))


@functools.lru_cache(maxsize=4)
def _grid_text(key):
    return "\n".join(map(repr, np.frombuffer(key).tolist()))


def _csv(header, grid, *columns):
    """CSV text: a header line, then one row per grid entry holding the
    grid value's repr and the text of each column, one str per row, each
    row ending in a newline.

    The waveform variants of one command share their sampling grid, so a grid
    column (frequencies, lags or times) is formatted once and cached by its
    bytes. The cache keeps one joined string per grid, split on use: a cached
    list of per-value str objects is faster, but its thousands of small
    objects pin allocator arenas and raise the peak RSS.
    """
    grid_text = _grid_text(np.ascontiguousarray(grid, float).tobytes()).split("\n")
    return "\n".join([header, *map(",".join, zip(grid_text, *columns)), ""])


def _json(fields, extra=None):
    """A JSON document indented by 2: the keys of fields, then those of extra."""
    return json.dumps({**fields, **(extra or {})}, indent=2)


def waveform_raw_bytes(w):
    """Raw interleaved little-endian float64 pairs (re, im)."""
    return w.samples.astype("<c16").tobytes()
