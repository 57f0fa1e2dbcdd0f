"""Multi-tone sinusoidal FM phase model.

The instantaneous phase is a truncated Fourier series over the pulse,

    phi(t) = a0/2 + sum_k alpha_k sin(2 pi k t / T) + beta_k cos(2 pi k t / T),

so the phase is infinitely differentiable. Fitting this series to a
phase-coded pulse smooths the inter-chip jumps; the coefficients then double
as the free variables of the sidelobe optimizer.
"""

import functools
import json
from dataclasses import dataclass

import numpy as np

from ._validation import (_finite, as_float_vector, check_in_pulse, check_int_at_least,
                          check_positive, check_real)
from .codes import PhaseCode
from .waveform import SampledWaveform, _unit_samples

__all__ = [
    "MtsfmParams",
    "min_harmonics",
    "fit_fourier",
    "mtsfm_phase",
    "mtsfm_modulation",
    "synthesize_mtsfm",
]


@dataclass(frozen=True)
class MtsfmParams:
    """Fourier phase coefficients of one waveform.

    ``alpha`` holds the K sine coefficients, ``beta`` the K cosine
    coefficients, ``a0`` the constant term (the constant phase is a0/2).
    """

    a0: float
    alpha: np.ndarray
    beta: np.ndarray
    T: float

    def __post_init__(self):
        alpha = as_float_vector(self.alpha, "alpha")
        beta = as_float_vector(self.beta, "beta")
        if alpha.size != beta.size:
            raise ValueError(f"alpha and beta must have equal length, "
                             f"got {alpha.size} and {beta.size}")
        if not _finite(check_real("a0", self.a0)):
            raise ValueError("a0 must be finite")
        check_positive("T", self.T)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def K(self):
        return self.alpha.size

    def coefficient_vector(self):
        """All 2K free coefficients as one vector: alpha then beta."""
        return np.concatenate([self.alpha, self.beta])

    def with_coefficients(self, vector):
        """Copy of these params with the 2K coefficients replaced."""
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (2 * self.K,):
            raise ValueError(f"expected {2 * self.K} coefficients, got shape {vector.shape}")
        return MtsfmParams(self.a0, vector[: self.K], vector[self.K:], self.T)

    def to_json(self, extra=None):
        """Serialize as {"T", "a0", "alpha", "beta"}; round-trips bit-exactly."""
        obj = {"T": self.T, "a0": self.a0,
               "alpha": self.alpha.tolist(), "beta": self.beta.tolist()}
        if extra:
            obj.update(extra)
        return json.dumps(obj, indent=2)

    @classmethod
    def from_json(cls, text):
        """Parse {"T", "a0", "alpha", "beta"}; malformed input raises ValueError."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("params JSON must be an object at the top level, "
                             f"got {type(obj).__name__}")
        for key in ("T", "a0", "alpha", "beta"):
            if key not in obj:
                raise ValueError(f"params JSON is missing the key {key!r}")
        for key in ("alpha", "beta"):  # np.array would read true as 1.0 and "1.5" as 1.5
            if not isinstance(obj[key], list):
                raise ValueError(f"params JSON {key} must be a list, got {obj[key]!r}")
            bad = [v for v in obj[key] if isinstance(v, bool) or not isinstance(v, (int, float))]
            if bad:
                raise ValueError(f"params JSON {key} entries must be numbers, got {bad[0]!r}")
        return cls(a0=obj["a0"], alpha=obj["alpha"], beta=obj["beta"], T=obj["T"])


def min_harmonics(n_chips):
    """Smallest harmonic count that can still track inter-chip transitions.

    The fastest phase transition between chips of duration t_b needs a
    harmonic of frequency at least 1/(2 t_b) = N/(2T), hence ceil(N/2).
    """
    n_chips = check_int_at_least("n_chips", n_chips, 1)
    return (n_chips + 1) // 2


def fit_fourier(code, T, K):
    """Fit the truncated Fourier series to a piecewise-constant phase.

    Because the input phase is constant on each chip, every coefficient
    integral has an exact per-chip antiderivative; no quadrature is involved.
    The chip edges -T/2 + iT/N are uniform, so summation by parts turns the
    per-chip sums into one length-N DFT of the circular phase jumps
    d_i = phi_i - phi_{i-1 mod N}: with F = fft(d),
    alpha_k = (-1)^k Re F[k mod N] / (pi k) and
    beta_k = (-1)^k Im F[k mod N] / (pi k).

    Parameters
    ----------
    code : PhaseCode or array_like
        Chip phases in radians; a plain array is treated as one phase value
        per equal-length chip.
    T : float
        Pulse length in seconds.
    K : int
        Harmonic count, K >= 1.

    Returns
    -------
    MtsfmParams
    """
    phases = code.phases if isinstance(code, PhaseCode) else as_float_vector(code, "code")
    check_positive("T", T)
    K = check_int_at_least("K", K, 1)
    k = np.arange(1, K + 1)
    jumps = np.fft.fft(phases - np.roll(phases, 1))[k % phases.size]
    scale = np.where(k % 2, -1.0, 1.0) / (np.pi * k)
    alpha = scale * jumps.real
    beta = scale * jumps.imag
    a0 = 2.0 * float(np.mean(phases))
    return MtsfmParams(a0, alpha, beta, T)


@functools.lru_cache(maxsize=16)
def _phase_rotation(K, n_samples):
    """e^{j 2 pi k t_0 / T} for k = 1..K, with t_0 = -T/2 + T/(2L) the first
    midpoint, computed as (-1)^k e^{j pi k / L} to keep the angle small.
    Read-only and cached: an optimization run evaluates at one (K, L), twice
    per evaluation, and the K entries are small."""
    k = np.arange(1, K + 1)
    rotation = np.where(k % 2, -1.0, 1.0) * np.exp(1j * np.pi * k / n_samples)
    rotation.flags.writeable = False
    return rotation


def _phase_samples(a0, alpha, beta, n_samples):
    """The Fourier-series phase on the L-point midpoint grid, by one inverse FFT.

    With X_k = (beta_k - j alpha_k) e^{j 2 pi k t_0 / T}, the phase is
    a0/2 + Re sum_k X_k e^{j 2 pi k n / L} = a0/2 + (L/2) irfft(X, L). This
    needs K < L/2, so L below a 4K floor (2x oversampling of the highest
    harmonic) is rejected. (beta, -alpha) is written into the spectrum and
    the scale and offset are applied in place, with no temporaries.
    """
    K = alpha.size
    if n_samples < 4 * K:
        raise ValueError(
            f"n_samples={n_samples} too small for K={K} harmonics; need >= {4 * K}")
    spec = np.zeros(n_samples // 2 + 1, dtype=complex)
    x = spec[1:K + 1]
    x.real = beta
    np.negative(alpha, out=x.imag)
    x *= _phase_rotation(K, n_samples)
    phi = np.fft.irfft(spec, n_samples)
    phi *= n_samples / 2
    phi += a0 / 2
    return phi


def _phase_adjoint(dphi, K):
    """Adjoint of _phase_samples: maps dJ/dphi on the grid to dJ/d(alpha, beta).

    dJ/dalpha_k = sum_n dphi[n] sin(theta_kn) and dJ/dbeta_k =
    sum_n dphi[n] cos(theta_kn) are the imaginary and real parts of
    conj(rfft(dphi)[k]) e^{j 2 pi k t_0 / T}.
    """
    y = np.conj(np.fft.rfft(dphi)[1:K + 1]) * _phase_rotation(K, dphi.size)
    return np.concatenate([y.imag, y.real])


def _fourier_sum(c, t, T):
    """Re sum_k c_k e^{j 2 pi k t / T} over k = 1..K at time(s) t within the pulse.

    Horner's rule on z = e^{j 2 pi t / T}: K steps over c_K..c_1, one last
    multiply by z, then the real part. Memory is O(len(t)), whatever K; the
    time grid of synthesis is served by _phase_samples instead. A scalar t
    gives a Python float, an array t an array.
    """
    t_arr = check_in_pulse(t, T)
    z = np.exp(2j * np.pi / T * t_arr)
    # acc starts as a numpy scalar: for scalar t every step stays scalar
    # arithmetic; for array t the first *= makes it an array, updated in place
    acc = c[-1]
    for ck in c[-2::-1].tolist():
        acc *= z
        acc += ck
    acc *= z
    return acc.real if np.ndim(t) else float(acc.real)


def mtsfm_phase(params, t):
    """Evaluate the Fourier-series phase at time(s) t within the pulse."""
    return params.a0 / 2 + _fourier_sum(params.beta - 1j * params.alpha, t, params.T)


def mtsfm_modulation(params, t):
    """Instantaneous frequency (Hz) at time(s) t: the exact phase derivative / 2 pi."""
    k = np.arange(1, params.K + 1)
    return _fourier_sum(k * (params.alpha + 1j * params.beta), t, params.T) / params.T


def synthesize_mtsfm(params, n_samples):
    """Synthesize the unit-energy constant-modulus waveform at the given density.

    Rejects sample counts below 4K, which would undersample the highest
    phase harmonic.
    """
    return _synthesize_with_phase(params, n_samples)[0]


def _synthesize_with_phase(params, n_samples):
    """synthesize_mtsfm's waveform and the grid phase it is built from, by
    one _phase_samples."""
    n_samples = check_int_at_least("n_samples", n_samples, 2)
    phi = _phase_samples(params.a0, params.alpha, params.beta, n_samples)
    return SampledWaveform(_unit_samples(phi, params.T), params.T), phi


def _beta2_weights(K, T):
    """Weights w with w @ vec**2 the squared RMS bandwidth of the coefficient
    vector vec = (alpha, beta): (2 pi k / T)^2 / 2 on both halves."""
    w = (2 * np.pi * np.arange(1, K + 1) / T) ** 2 / 2
    return np.concatenate([w, w])


def _beta2(vec, weights):
    """Squared RMS bandwidth in (rad/s)^2 of a coefficient vector, given
    _beta2_weights: (2 pi / T)^2 sum_k k^2 (alpha_k^2 + beta_k^2) / 2, exact,
    with no sampling; a0 does not enter."""
    return float(weights @ (vec * vec))
