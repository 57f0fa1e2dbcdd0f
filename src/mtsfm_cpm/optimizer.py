"""Sidelobe-ratio minimization over the Fourier phase coefficients.

Minimizes the p-norm sidelobe-to-mainlobe ratio of the autocorrelation
(linear scale) subject to keeping the squared RMS bandwidth within a
(1 +/- delta) band around its initial value. Because the closed-form squared
RMS bandwidth is homogeneous of degree 2 in the coefficients, the band
constraint admits an exact radial projection, so a projected gradient descent
with a backtracking line search replaces any general-purpose constrained
solver. The search is fully deterministic.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from ._validation import check_int_at_least
from .metrics import _autocorrelation, _correlation_fft, _sidelobe_ratio
from .mtsfm import (MtsfmParams, _phase_adjoint, _phase_samples,
                    closed_form_rms_bandwidth, closed_form_rms_bandwidth_gradient)

__all__ = [
    "OptimizerConfig",
    "TraceRecord",
    "OptimizationResult",
    "objective",
    "gradient",
    "beta2_band",
    "project_to_band",
    "optimize",
    "trace_csv",
]

# Slack on the band edges, relative to the band's midpoint; projection lands
# on an edge only to machine precision, so exact membership tests would
# oscillate.
BAND_SLACK = 1e-12

# Backtracking line search: the step grows geometrically after an accepted
# move, shrinks on rejection, and the run stops when it underflows. PATIENCE
# is the iteration window of the objective_tolerance convergence test.
INITIAL_STEP = 0.1
STEP_GROWTH = 1.5
MAX_STEP = 1.0
STEP_SHRINK = 0.5
MIN_STEP = 1e-12
ARMIJO = 1e-4
PATIENCE = 25


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the constrained descent.

    ``n_samples`` is the synthesis density per objective evaluation
    (None picks 64 samples per harmonic).
    """

    p: int = 10
    delta: float = 0.1
    max_iterations: int = 400
    objective_tolerance: float = 1e-8
    n_samples: int | None = None
    log_every: int = 1

    def __post_init__(self):
        if not self.p >= 2:
            raise ValueError(f"p must be >= 2, got {self.p}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not (math.isfinite(self.objective_tolerance) and self.objective_tolerance >= 0):
            raise ValueError("objective_tolerance must be finite and >= 0, "
                             f"got {self.objective_tolerance}")
        check_int_at_least("max_iterations", self.max_iterations, 0)
        check_int_at_least("log_every", self.log_every, 1)
        if self.n_samples is not None:
            check_int_at_least("n_samples", self.n_samples, 2)

    def resolve_n_samples(self, K):
        return self.n_samples if self.n_samples is not None else 64 * K


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    objective_db: float
    beta2_rel: float
    constraint_residual: float
    step_size: float
    grad_norm: float
    accepted: bool


@dataclass(frozen=True)
class OptimizationResult:
    params: MtsfmParams
    initial_gisr_db: float
    final_gisr_db: float
    initial_beta2: float
    final_beta2: float
    trace: tuple
    converged: bool
    termination_reason: str
    n_evaluations: int

    def to_json(self, extra=None):
        obj = {
            "initial_gisr_db": self.initial_gisr_db,
            "final_gisr_db": self.final_gisr_db,
            "initial_beta2": self.initial_beta2,
            "final_beta2": self.final_beta2,
            "converged": self.converged,
            "termination_reason": self.termination_reason,
            "n_evaluations": self.n_evaluations,
            "n_trace_records": len(self.trace),
            "params": json.loads(self.params.to_json()),
        }
        if extra:
            obj.update(extra)
        return json.dumps(obj, indent=2)


def _objective_and_gradient(vec, a0, T, K, p, n_samples):
    """Linear-scale sidelobe ratio J of the waveform built from a coefficient
    vector, and its exact gradient over the 2K coefficients.

    With q[m] = 2 dJ/d|R[m]|^2 conj(R[m]) for lags m = 0..L-1 (from
    metrics._sidelobe_ratio, first-null movement included), the phase
    gradient is dJ/dphi[n] = Im(conj(s[n]) sum_m h[m] s[n+m]) / f_s, where
    h[m] = q[m] + conj(q[-m]) is Hermitian; the lag sum is one FFT
    correlation with the real spectrum 2 n_fft Re(ifft(q)), reusing the
    spectrum of s. The coefficient gradient is the adjoint of the FFT
    synthesis.

    A degenerate mainlobe returns a large penalty that decreases as the
    bandwidth re-opens, with its exact gradient, keeping line searches total.
    """
    alpha, beta = vec[:K], vec[K:]
    samples = np.exp(1j * _phase_samples(a0, alpha, beta, n_samples)) / math.sqrt(T)
    sample_rate = n_samples / T
    spec = _correlation_fft(samples)
    lags, values, mag, vertex = _autocorrelation(spec, n_samples, sample_rate, T)
    if vertex is None:
        params = MtsfmParams(a0, alpha, beta, T)
        scale = (T / (2 * np.pi)) ** 2
        return (1e3 - scale * closed_form_rms_bandwidth(params),
                -scale * closed_form_rms_bandwidth_gradient(params))
    ratio, d_power = _sidelobe_ratio(lags, mag, vertex[1], p, vertex)
    lag0 = n_samples  # index of lag 0 in values
    q = 2 * d_power[lag0:lag0 + n_samples] * np.conj(values[lag0:lag0 + n_samples])
    kernel = 2 * spec.size * np.fft.ifft(q, spec.size).real
    corr = np.fft.ifft(spec * kernel)[:n_samples]
    dphi = np.imag(np.conj(samples) * corr) / sample_rate
    return ratio, _phase_adjoint(dphi, K)


def _args(params, cfg):
    return (params.a0, params.T, params.K, cfg.p, cfg.resolve_n_samples(params.K))


def objective(params, cfg):
    """Linear-scale sidelobe ratio at cfg.p for one parameter set.

    Deterministic for fixed inputs; see the dB-domain metrics module for
    the reporting form.
    """
    return _objective_and_gradient(params.coefficient_vector(), *_args(params, cfg))[0]


def gradient(params, cfg):
    """Exact gradient of objective() over the 2K coefficients.

    The constant term a0 is excluded: every metric is invariant to it.
    """
    return _objective_and_gradient(params.coefficient_vector(), *_args(params, cfg))[1]


def beta2_band(beta2_ref, delta):
    """The allowed squared-RMS-bandwidth interval around a reference value."""
    return (1 - delta) * beta2_ref, (1 + delta) * beta2_ref


def _band_residual(b2, band):
    """How far b2 lies outside the band, relative to the band's midpoint
    (the reference value beta2_band was built from); 0 inside the band."""
    lo, hi = band
    return max(0.0, lo - b2, b2 - hi) / ((lo + hi) / 2)


def project_to_band(params, band):
    """Scale the coefficients onto the squared-bandwidth band if outside it.

    The squared bandwidth is homogeneous of degree 2 in the coefficients, so
    scaling by sqrt(edge / value) lands on the nearest edge to machine
    precision. Input whose residual outside the band, relative to the band's
    midpoint, is at most BAND_SLACK is returned unchanged; so is every
    projected result, which makes the projection idempotent bit for bit.
    """
    lo, hi = band
    b2 = closed_form_rms_bandwidth(params)
    if b2 == 0.0:
        raise ValueError("cannot project all-zero coefficients onto a positive band")
    if _band_residual(b2, band) <= BAND_SLACK:
        return params
    edge = lo if b2 < lo else hi
    scale = math.sqrt(edge / b2)
    return params.with_coefficients(params.coefficient_vector() * scale)


def _db(x):
    return 10 * math.log10(max(x, 1e-300))


def optimize(initial, cfg):
    """Projected gradient descent from the given initialization.

    Steps along the negative analytic gradient, projects onto the
    bandwidth band, and accepts on sufficient decrease. Every recorded
    iterate is feasible: its constraint_residual is at most BAND_SLACK.
    Terminates on the iteration cap, on a relative objective decrease
    below cfg.objective_tolerance across PATIENCE iterations, or on step
    underflow. Returns the last iterate: a step is accepted only if it
    strictly lowers the objective, so the last iterate is also the best
    one seen. Two runs with identical inputs produce identical traces.

    ``n_evaluations`` counts objective evaluations; each returns the
    gradient with the objective, so one line-search trial is one evaluation.
    A trace record's ``grad_norm`` is the gradient norm at the iterate it
    records.
    """
    beta2_ref = closed_form_rms_bandwidth(initial)
    if beta2_ref == 0.0:
        raise ValueError("initialization has all-zero coefficients; "
                         "the bandwidth band is empty and cannot be projected onto")
    band = beta2_band(beta2_ref, cfg.delta)
    args = _args(initial, cfg)

    x = initial.coefficient_vector()
    f, g = _objective_and_gradient(x, *args)
    n_evals = 1
    step = INITIAL_STEP

    def record(it, b2, step_size, accepted):
        return TraceRecord(it, _db(f), b2 / beta2_ref, _band_residual(b2, band),
                           step_size, float(np.linalg.norm(g)), accepted)

    trace = [record(0, beta2_ref, 0.0, True)]
    reason = "max_iterations"
    history = [f]

    for it in range(1, cfg.max_iterations + 1):
        accepted = False
        while step >= MIN_STEP:
            cand = project_to_band(initial.with_coefficients(x - step * g),
                                   band).coefficient_vector()
            fc, gc = _objective_and_gradient(cand, *args)
            n_evals += 1
            if fc < f and fc <= f - ARMIJO * float(np.dot(g, x - cand)):
                x, f, g = cand, fc, gc
                accepted = True
                step = min(step * STEP_GROWTH, MAX_STEP)
                break
            step *= STEP_SHRINK
        history.append(f)

        if it % cfg.log_every == 0 or not accepted or it == cfg.max_iterations:
            b2_now = closed_form_rms_bandwidth(initial.with_coefficients(x))
            trace.append(record(it, b2_now, step, accepted))

        if not accepted:
            reason = "step_underflow"
            break
        if (cfg.objective_tolerance > 0 and len(history) > PATIENCE):
            prev = history[-1 - PATIENCE]
            if (prev - f) <= cfg.objective_tolerance * max(prev, 1e-300):
                reason = "converged"
                break

    final_params = initial.with_coefficients(x)
    return OptimizationResult(
        params=final_params,
        initial_gisr_db=_db(history[0]),
        final_gisr_db=_db(f),
        initial_beta2=beta2_ref,
        final_beta2=closed_form_rms_bandwidth(final_params),
        trace=tuple(trace),
        converged=reason == "converged",
        termination_reason=reason,
        n_evaluations=n_evals,
    )


def trace_csv(trace):
    """CSV text with header
    ``iter,objective_db,beta2_rel,step_size,grad_norm,accepted``."""
    lines = ["iter,objective_db,beta2_rel,step_size,grad_norm,accepted"]
    for r in trace:
        lines.append(f"{r.iteration},{r.objective_db!r},{r.beta2_rel!r},"
                     f"{r.step_size!r},{r.grad_norm!r},{int(r.accepted)}")
    return "\n".join(lines) + "\n"
