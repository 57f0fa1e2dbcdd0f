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
from typing import NamedTuple

import numpy as np

from ._validation import check_int_at_least, check_p
from .metrics import (_correlation_fft, _cross_correlation, _sidelobe_ratio,
                      _sidelobe_weights, acf, gisr)
from .mtsfm import (MtsfmParams, _beta2, _beta2_weights, _phase_adjoint,
                    _phase_samples, _unit_samples, synthesize_mtsfm)

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
        check_p(self.p)
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


class _Run(NamedTuple):
    """The constants of one optimization run that every evaluation needs."""

    a0: float
    T: float
    K: int
    p: int
    n_samples: int
    w_num: np.ndarray  # sidelobe-region weights on the lags >= 0
    w_den: np.ndarray  # mainlobe-region weights on the lags >= 0
    weights: np.ndarray  # _beta2_weights of the coefficient vector


def _run(params, cfg):
    """The _Run of optimizing params under cfg: its mainlobe region is fixed
    at the first ACF null of the waveform params synthesize, found once here
    (DegenerateMainlobe when that ACF has none)."""
    n = cfg.resolve_n_samples(params.K)
    return _Run(params.a0, params.T, params.K, cfg.p, n,
                *_sidelobe_weights(acf(synthesize_mtsfm(params, n))),
                _beta2_weights(params.K, params.T))


def _objective_and_gradient(vec, run):
    """Linear-scale sidelobe ratio J of the waveform built from a coefficient
    vector, scored on the run's fixed mainlobe and sidelobe regions, and its
    exact gradient over the 2K coefficients.

    The sidelobe ratio is scored on lags >= 0 only, since |R| is even. With
    q[m] = 2 dJ/d|R[m]|^2 conj(R[m]) for lags m = 0..L-1 (from
    metrics._sidelobe_ratio), the phase gradient is
    dJ/dphi[n] = Im(conj(s[n]) sum_m h[m] s[n+m]) / f_s, where
    h[m] = q[m] + conj(q[-m]) is Hermitian; the lag sum is one FFT
    correlation with the real spectrum 2 n_fft Re(ifft(q)), reusing the
    spectrum of s. q lives on lags below n_fft / 2, so that spectrum is
    n_fft irfft(q) = 2 n_fft irfft(q / 2) except for the lag-0 term, which
    irfft counts once where Re(ifft) counts it twice. That term only adds a
    real constant c to the spectrum, and Im(conj(s[n]) c s[n]) = 0 (|R(0)|
    is the energy whatever the phase), so one inverse real FFT gives the
    phase gradient. The coefficient gradient is the adjoint of the FFT
    synthesis.
    """
    K, L, T = run.K, run.n_samples, run.T
    samples = _unit_samples(_phase_samples(run.a0, vec[:K], vec[K:], L), T)
    sample_rate = L / T
    spec = _correlation_fft(samples)
    values = _cross_correlation(spec, spec, L, sample_rate)
    ratio, d_power = _sidelobe_ratio(run.w_num, run.w_den, np.abs(values[L:]), run.p,
                                     with_gradient=True)
    n_fft = spec.size
    kernel = np.fft.irfft(d_power[:L] * np.conj(values[L:2 * L]), n_fft) * (2 * n_fft)
    corr = np.fft.ifft(spec * kernel)[:L]
    dphi = np.imag(np.conj(samples) * corr) / sample_rate
    return ratio, _phase_adjoint(dphi, K)


def objective(params, cfg):
    """Linear-scale sidelobe ratio at cfg.p for one parameter set, scored on
    its own first ACF null: 10**(gisr / 10) of the waveform it synthesizes.

    Deterministic for fixed inputs; see the dB-domain metrics module for
    the reporting form. Raises DegenerateMainlobe when that ACF has no null.
    """
    return _objective_and_gradient(params.coefficient_vector(), _run(params, cfg))[0]


def gradient(params, cfg):
    """Exact gradient over the 2K coefficients of the sidelobe ratio with its
    mainlobe region held fixed at params' own first ACF null.

    The null does not move with the coefficients here, as it does not
    within an optimize() run. The constant term a0 is excluded: every metric
    is invariant to it.
    """
    return _objective_and_gradient(params.coefficient_vector(), _run(params, cfg))[1]


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
    vec = params.coefficient_vector()
    projected, _ = _project(vec, band, _beta2_weights(params.K, params.T))
    return params if projected is vec else params.with_coefficients(projected)


def _project(vec, band, weights):
    """project_to_band on a coefficient vector: (vector, its squared
    bandwidth), the vector itself when it is within the slack."""
    b2 = _beta2(vec, weights)
    if b2 == 0.0:
        raise ValueError("cannot project all-zero coefficients onto a positive band")
    if _band_residual(b2, band) <= BAND_SLACK:
        return vec, b2
    lo, hi = band
    projected = vec * math.sqrt((lo if b2 < lo else hi) / b2)
    return projected, _beta2(projected, weights)


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

    Every evaluation scores the sidelobe ratio on one mainlobe region,
    [0, first ACF null of the initialization]; the bandwidth band is what
    holds the mainlobe width. An initialization whose ACF has no null
    raises DegenerateMainlobe. final_gisr_db is the gisr metric of the
    result, scanned at its own null.

    ``n_evaluations`` counts objective evaluations; each returns the
    gradient with the objective, so one line-search trial is one evaluation.
    A trace record's ``grad_norm`` is the gradient norm at the iterate it
    records.

    The loop works on the coefficient vector: line-search trials are
    projected as vectors, a trace record takes the squared bandwidth the
    projection computed for its iterate, and the result's MtsfmParams is
    built once, at the end.
    """
    x = initial.coefficient_vector()
    if not x.any():
        raise ValueError("initialization has all-zero coefficients; "
                         "the bandwidth band is empty and cannot be projected onto")
    run = _run(initial, cfg)
    beta2_ref = b2 = _beta2(x, run.weights)
    band = beta2_band(beta2_ref, cfg.delta)
    f, g = _objective_and_gradient(x, run)
    n_evals = 1
    step = INITIAL_STEP

    def record(it, step_size, accepted):
        return TraceRecord(it, _db(f), b2 / beta2_ref, _band_residual(b2, band),
                           step_size, math.sqrt(g @ g), accepted)

    trace = [record(0, 0.0, True)]
    reason = "max_iterations"
    history = [f]

    for it in range(1, cfg.max_iterations + 1):
        accepted = False
        while step >= MIN_STEP:
            cand, b2c = _project(x - step * g, band, run.weights)
            fc, gc = _objective_and_gradient(cand, run)
            n_evals += 1
            if fc < f and fc <= f - ARMIJO * float(np.dot(g, x - cand)):
                x, f, g, b2 = cand, fc, gc, b2c
                accepted = True
                step = min(step * STEP_GROWTH, MAX_STEP)
                break
            step *= STEP_SHRINK
        history.append(f)

        if it % cfg.log_every == 0 or not accepted or it == cfg.max_iterations:
            trace.append(record(it, step, accepted))

        if not accepted:
            reason = "step_underflow"
            break
        if (cfg.objective_tolerance > 0 and len(history) > PATIENCE):
            prev = history[-1 - PATIENCE]
            if (prev - f) <= cfg.objective_tolerance * max(prev, 1e-300):
                reason = "converged"
                break

    params = initial.with_coefficients(x)
    return OptimizationResult(
        params=params,
        initial_gisr_db=_db(history[0]),
        final_gisr_db=gisr(acf(synthesize_mtsfm(params, run.n_samples)), cfg.p),
        initial_beta2=beta2_ref,
        final_beta2=b2,
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
