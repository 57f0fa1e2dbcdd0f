"""Sampled baseband waveforms and phase-coded pulse synthesis.

All waveforms live on a uniform midpoint time grid over [-T/2, T/2] and are
normalized to unit energy, matching the 1/sqrt(T) amplitude of the
constant-modulus pulse model.
"""

from dataclasses import dataclass

import numpy as np

from ._validation import check_in_pulse, check_int_at_least, check_positive

__all__ = [
    "DEFAULT_SAMPLES_PER_CHIP",
    "MIN_SAMPLES_PER_CHIP",
    "SamplingConfig",
    "SampledWaveform",
    "time_grid",
    "pc_phase",
    "synthesize_pc",
    "waveform_csv",
    "waveform_raw_bytes",
]

DEFAULT_SAMPLES_PER_CHIP = 32
MIN_SAMPLES_PER_CHIP = 8


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
        check_int_at_least("samples_per_chip", self.samples_per_chip, MIN_SAMPLES_PER_CHIP)


@dataclass(frozen=True)
class SampledWaveform:
    """Unit-energy complex baseband samples on a midpoint grid over [-T/2, T/2]."""

    samples: np.ndarray
    T: float
    sample_rate: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("samples must be a 1-D array with at least 2 entries")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        check_positive("T", self.T)
        check_positive("sample_rate", self.sample_rate)
        if not abs(self.energy - 1.0) <= 1e-9:  # nan or inf samples fail too
            raise ValueError(f"waveform energy {self.energy} is not 1 within 1e-9")

    @property
    def n_samples(self):
        return self.samples.size

    @property
    def energy(self):
        return float(np.sum(np.abs(self.samples) ** 2) / self.sample_rate)

    @property
    def times(self):
        return time_grid(self.n_samples, self.T)

    @classmethod
    def from_samples(cls, samples, T):
        """Build a waveform from raw samples, rescaling to unit energy."""
        samples = np.asarray(samples, dtype=complex)
        fs = samples.size / T
        e = np.sum(np.abs(samples) ** 2) / fs
        if not 0 < e < np.inf:  # all-zero, nan or inf samples
            raise ValueError(f"cannot normalize samples of energy {e} to unit energy")
        return cls(samples / np.sqrt(e), T, fs)


def time_grid(n_samples, T):
    """Midpoint sample times: t_n = -T/2 + (n + 1/2) / f_s with f_s = n_samples / T."""
    n_samples = check_int_at_least("n_samples", n_samples, 2)
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
        Time(s) in [-T/2, T/2]; values outside the pulse are rejected.
    """
    check_positive("T", T)
    t_arr = check_in_pulse(t, T)
    n = code.n
    idx = np.floor((t_arr + T / 2) * n / T).astype(int)
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
    n = code.n
    samples = np.exp(1j * np.repeat(code.phases, cfg.samples_per_chip)) / np.sqrt(cfg.T)
    return SampledWaveform(samples, cfg.T, n * cfg.samples_per_chip / cfg.T)


def waveform_csv(w):
    """CSV text with header ``t,re,im``."""
    lines = ["t,re,im"]
    for t, s in zip(w.times.tolist(), w.samples.tolist()):
        lines.append(f"{t!r},{s.real!r},{s.imag!r}")
    return "\n".join(lines) + "\n"


def waveform_raw_bytes(w):
    """Raw interleaved little-endian float64 pairs (re, im)."""
    inter = np.empty(2 * w.n_samples, dtype="<f8")
    inter[0::2] = w.samples.real
    inter[1::2] = w.samples.imag
    return inter.tobytes()
