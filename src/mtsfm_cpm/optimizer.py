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

from ._validation import check_int_at_least, check_positive
from .metrics import _autocorrelation, _sidelobe_ratio
from .mtsfm import MtsfmParams, _harmonic_basis, closed_form_rms_bandwidth

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

# Relative slack on the band edges; projection lands on an edge only to
# machine precision, so exact membership tests would oscillate.
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
    (None picks 64 samples per harmonic); ``fd_step`` is the central
    finite-difference step of the gradient.
    """

    p: int = 10
    delta: float = 0.1
    max_iterations: int = 400
    objective_tolerance: float = 1e-8
    fd_step: float = 1e-4
    n_samples: int | None = None
    log_every: int = 1

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"p must be >= 2, got {self.p}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        check_positive("fd_step", self.fd_step)
        check_int_at_least("max_iterations", self.max_iterations, 0)
        check_int_at_least("log_every", self.log_every, 1)
        if self.n_samples is not None:
            check_int_at_least("n_samples", self.n_samples, 2)

    def resolve_n_samples(self, K):
        n = self.n_samples if self.n_samples is not None else 64 * K
        if n < 4 * K:
            raise ValueError(
                f"n_samples={n} undersamples K={K} harmonics; need >= {4 * K}")
        return n


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    objective_db: float
    beta2_rel: float
    constraint_residual: float
    step_size: float
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


def _objective_vec(vec, a0, T, K, p, n_samples):
    """Linear-scale sidelobe ratio of the waveform built from a coefficient vector.

    A degenerate mainlobe returns a large penalty that decreases as the
    bandwidth re-opens, keeping line searches total.
    """
    sin_b, cos_b = _harmonic_basis(K, n_samples)
    phi = a0 / 2 + sin_b @ vec[:K] + cos_b @ vec[K:]
    samples = np.exp(1j * phi) / math.sqrt(T)
    lags, values, dtau, degen = _autocorrelation(samples, n_samples / T, T)
    if degen:
        beta2 = closed_form_rms_bandwidth(MtsfmParams(a0, vec[:K], vec[K:], T))
        return 1e3 - (T / (2 * np.pi)) ** 2 * beta2
    return _sidelobe_ratio(lags, np.abs(values), dtau, p)


def objective(params, cfg):
    """Linear-scale sidelobe ratio at cfg.p for one parameter set.

    Deterministic for fixed inputs; see the dB-domain metrics module for
    the reporting form.
    """
    n = cfg.resolve_n_samples(params.K)
    return _objective_vec(params.coefficient_vector(), params.a0, params.T,
                          params.K, cfg.p, n)


def _fd_gradient(vec, args, h):
    """Central finite-difference gradient of _objective_vec(vec, *args).

    A non-finite probe falls back to one-sided differencing on that
    coordinate. Returns the gradient and the number of objective evaluations.
    """
    g = np.zeros(vec.size)
    n_evals = 0
    f_center = None
    for j in range(vec.size):
        vp = vec.copy(); vp[j] += h
        vm = vec.copy(); vm[j] -= h
        fp = _objective_vec(vp, *args)
        fm = _objective_vec(vm, *args)
        n_evals += 2
        if np.isfinite(fp) and np.isfinite(fm):
            g[j] = (fp - fm) / (2 * h)
            continue
        if f_center is None:
            f_center = _objective_vec(vec, *args)
            n_evals += 1
        if np.isfinite(fp):
            g[j] = (fp - f_center) / h
        elif np.isfinite(fm):
            g[j] = (f_center - fm) / h
        else:
            g[j] = 0.0
    return g, n_evals


def gradient(params, cfg):
    """Central finite-difference gradient over the 2K coefficients.

    The constant term a0 is excluded: every metric is invariant to it. A
    non-finite probe falls back to one-sided differencing on that coordinate.
    """
    n = cfg.resolve_n_samples(params.K)
    args = (params.a0, params.T, params.K, cfg.p, n)
    return _fd_gradient(params.coefficient_vector(), args, cfg.fd_step)[0]


def beta2_band(beta2_ref, delta):
    """The allowed squared-RMS-bandwidth interval around a reference value."""
    return (1 - delta) * beta2_ref, (1 + delta) * beta2_ref


def project_to_band(params, band):
    """Scale the coefficients onto the squared-bandwidth band if outside it.

    The squared bandwidth is homogeneous of degree 2 in the coefficients, so
    scaling by sqrt(edge / value) lands exactly on the nearest edge. In-band
    input (within a 1e-12 relative slack) is returned unchanged, which makes
    the projection idempotent bit for bit.
    """
    lo, hi = band
    b2 = closed_form_rms_bandwidth(params)
    if b2 == 0.0:
        raise ValueError("cannot project all-zero coefficients onto a positive band")
    if lo * (1 - BAND_SLACK) <= b2 <= hi * (1 + BAND_SLACK):
        return params
    edge = lo if b2 < lo else hi
    scale = math.sqrt(edge / b2)
    return params.with_coefficients(params.coefficient_vector() * scale)


def _db(x):
    return 10 * math.log10(max(x, 1e-300))


def optimize(initial, cfg):
    """Projected gradient descent from the given initialization.

    Steps along the negative finite-difference gradient, projects onto the
    bandwidth band, and accepts on sufficient decrease. Every recorded
    iterate is feasible. Terminates on the iteration cap, on a relative
    best-objective decrease below cfg.objective_tolerance across PATIENCE
    iterations, or on step underflow. Returns the best iterate
    seen; two runs with identical inputs produce identical traces.
    """
    beta2_ref = closed_form_rms_bandwidth(initial)
    if beta2_ref == 0.0:
        raise ValueError("initialization has all-zero coefficients; "
                         "the bandwidth band is empty and cannot be projected onto")
    band = beta2_band(beta2_ref, cfg.delta)
    n = cfg.resolve_n_samples(initial.K)
    args = (initial.a0, initial.T, initial.K, cfg.p, n)

    x = initial.coefficient_vector()
    f = _objective_vec(x, *args)
    n_evals = 1
    best_f, best_x = f, x.copy()
    step = INITIAL_STEP

    def residual(b2):
        return max(0.0, (band[0] - b2) / beta2_ref, (b2 - band[1]) / beta2_ref)

    def record(it, b2, step_size, accepted):
        return TraceRecord(it, _db(best_f), b2 / beta2_ref, residual(b2),
                           step_size, accepted)

    trace = [record(0, beta2_ref, 0.0, True)]
    reason = "max_iterations"
    converged = False
    history = [best_f]

    for it in range(1, cfg.max_iterations + 1):
        g, probes = _fd_gradient(x, args, cfg.fd_step)
        n_evals += probes

        accepted = False
        while step >= MIN_STEP:
            cand = project_to_band(initial.with_coefficients(x - step * g),
                                   band).coefficient_vector()
            fc = _objective_vec(cand, *args)
            n_evals += 1
            if fc < f and fc <= f - ARMIJO * float(np.dot(g, x - cand)):
                x, f = cand, fc
                accepted = True
                step = min(step * STEP_GROWTH, MAX_STEP)
                break
            step *= STEP_SHRINK

        if f < best_f:
            best_f, best_x = f, x.copy()
        history.append(best_f)

        if it % cfg.log_every == 0 or not accepted or it == cfg.max_iterations:
            b2_now = closed_form_rms_bandwidth(initial.with_coefficients(x))
            trace.append(record(it, b2_now, step, accepted))

        if not accepted:
            reason = "step_underflow"
            break
        if (cfg.objective_tolerance > 0 and len(history) > PATIENCE):
            prev = history[-1 - PATIENCE]
            if (prev - best_f) <= cfg.objective_tolerance * max(prev, 1e-300):
                reason = "converged"
                converged = True
                break

    final_params = initial.with_coefficients(best_x)
    final_b2 = closed_form_rms_bandwidth(final_params)
    return OptimizationResult(
        params=final_params,
        initial_gisr_db=_db(history[0]),
        final_gisr_db=_db(best_f),
        initial_beta2=beta2_ref,
        final_beta2=final_b2,
        trace=tuple(trace),
        converged=converged,
        termination_reason=reason,
        n_evaluations=n_evals,
    )


def trace_csv(trace):
    """CSV text with header ``iter,objective_db,beta2_rel,step_size,accepted``."""
    lines = ["iter,objective_db,beta2_rel,step_size,accepted"]
    for r in trace:
        lines.append(f"{r.iteration},{r.objective_db!r},{r.beta2_rel!r},"
                     f"{r.step_size!r},{int(r.accepted)}")
    return "\n".join(lines) + "\n"
