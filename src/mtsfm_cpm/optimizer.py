"""Sidelobe-ratio minimization over the Fourier phase coefficients.

Minimizes the p-norm sidelobe-to-mainlobe ratio of the autocorrelation
(linear scale) subject to keeping the squared RMS bandwidth within a
(1 +/- delta) band around its initial value. Because the closed-form squared
RMS bandwidth is homogeneous of degree 2 in the coefficients, the band
constraint admits an exact radial projection. The search is L-BFGS on the
tangent plane of the band edge that holds the iterate, with that projection
as the retraction (Nocedal & Wright, Numerical Optimization, ch. 7 and 16),
so no general-purpose constrained solver is needed. It stops when it is
stationary on the band, and it is fully deterministic.
"""

import json
import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._validation import check_int_at_least, check_p, check_real
from .metrics import (_conj_autocorrelation, _correlation_fft, _gisr_db, _lag_grid,
                      _null_vertex, _regions, _sidelobe_ratio)
from .mtsfm import MtsfmParams, _beta2, _beta2_weights, _phase_adjoint, _phase_samples
from .waveform import _unit_samples

__all__ = [
    "OptimizerConfig",
    "TraceRecord",
    "OptimizationResult",
    "objective",
    "gradient",
    "optimize",
    "trace_csv",
]

# Slack on the band edges, relative to the band's midpoint; projection lands
# on an edge only to machine precision, so exact membership tests would
# oscillate.
BAND_SLACK = 1e-12

# An edge holds the iterate when its squared bandwidth is within EDGE_TOL of
# the edge, relative to the reference value, and -g points out of the band.
EDGE_TOL = 1e-9

# L-BFGS with MEMORY correction pairs and a backtracking Armijo line search
# from t = 1; the run has converged when the tangent gradient norm falls to
# GTOL times its value at the start.
MEMORY = 8
GTOL = 1e-3
ARMIJO = 1e-4
STEP_SHRINK = 0.5
MIN_STEP = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the constrained descent.

    ``n_samples`` is the synthesis density per objective evaluation
    (None picks 64 samples per harmonic).
    """

    p: int = 10
    delta: float = 0.1
    max_iterations: int = 400
    n_samples: int | None = None

    def __post_init__(self):
        check_p(self.p)
        if not 0 < check_real("delta", self.delta) < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        # store the int the check returns, so an integral float like 3.0 works
        object.__setattr__(self, "max_iterations",
                           check_int_at_least("max_iterations", self.max_iterations, 0))
        if self.n_samples is not None:
            object.__setattr__(self, "n_samples",
                               check_int_at_least("n_samples", self.n_samples, 2))

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
    tangent_grad_norm: float
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
    lags: np.ndarray  # the lags >= 0 of the native lag grid, as acf() builds them
    regions: tuple  # metrics._regions: sidelobe, mainlobe weights on those lags
    weights: np.ndarray  # _beta2_weights of the coefficient vector


class _Correlation(NamedTuple):
    """One synthesized and correlated coefficient vector: its samples s, their
    _correlation_fft spectrum S, and conj(R) and |R| on the lags 0..L."""

    samples: np.ndarray
    spec: np.ndarray
    r_conj: np.ndarray
    magnitudes: np.ndarray


def _correlate(vec, run):
    """The _Correlation of the waveform built from a coefficient vector: one
    synthesis and one forward correlation FFT."""
    L = run.n_samples
    samples = _unit_samples(_phase_samples(run.a0, vec[:run.K], vec[run.K:], L), run.T)
    spec = _correlation_fft(samples)
    r_conj = _conj_autocorrelation(spec, L, L / run.T)
    return _Correlation(samples, spec, r_conj, np.abs(r_conj))


def _start(params, cfg):
    """The _Run of optimizing params under cfg, and the _Correlation of
    params it was found from: the mainlobe region is fixed at the first null
    of that |R| (DegenerateMainlobe when it has none), so the start is
    synthesized and correlated once for the region and its first evaluation."""
    n, T = cfg.resolve_n_samples(params.K), params.T
    run = _Run(params.a0, T, params.K, cfg.p, n, _lag_grid(n, n / T, T), None,
               _beta2_weights(params.K, T))
    c = _correlate(params.coefficient_vector(), run)
    return run._replace(regions=_regions(run.lags, _null_vertex(run.lags, c.magnitudes))), c


def _score(c, run):
    """(J, g, |R|) of a _Correlation: the linear-scale sidelobe ratio J,
    scored on the run's fixed mainlobe and sidelobe regions, its exact
    gradient g over the 2K coefficients, and |R| on the lags 0..L. Its
    samples and spectrum are overwritten, so a _Correlation is scored once.

    The sidelobe ratio is scored on lags >= 0 only, since |R| is even, from
    conj(R) there (metrics._conj_autocorrelation). With
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

    The scale 2 n_fft is a power of two, so it is exact to fold it into
    dJ/d|R|^2 before the transform, and the real spectrum multiplies the
    real and imaginary parts of S in place.
    """
    L = run.n_samples
    ratio, d_power = _sidelobe_ratio(run.regions, c.magnitudes, run.p, with_gradient=True)
    spec = c.spec
    q = d_power[:L]
    q *= 2 * spec.size
    kernel = np.fft.irfft(q * c.r_conj[:L], spec.size)
    spec.real *= kernel
    spec.imag *= kernel
    corr = np.fft.ifft(spec)[:L]
    s = c.samples
    np.conjugate(s, out=s)
    s *= corr
    return ratio, _phase_adjoint(s.imag / (L / run.T), run.K), c.magnitudes


def _evaluate(vec, run):
    """(J, g, |R|) of a coefficient vector (_score): every objective
    evaluation of optimize() after the first, which is the start's own."""
    return _score(_correlate(vec, run), run)


def objective(params, cfg):
    """Linear-scale sidelobe ratio at cfg.p for one parameter set, scored on
    its own first ACF null: 10**(gisr / 10) of the waveform it synthesizes,
    which is synthesized and correlated once.

    Deterministic for fixed inputs; see the dB-domain metrics module for
    the reporting form. Raises DegenerateMainlobe when that ACF has no null.
    """
    run, c = _start(params, cfg)
    return _sidelobe_ratio(run.regions, c.magnitudes, run.p)


def gradient(params, cfg):
    """Exact gradient over the 2K coefficients of the sidelobe ratio with its
    mainlobe region held fixed at params' own first ACF null.

    The null does not move with the coefficients here, as it does not
    within an optimize() run, and params is synthesized and correlated once.
    The constant term a0 is excluded: every metric is invariant to it.
    """
    run, c = _start(params, cfg)
    return _score(c, run)[1]


def _band_residual(b2, band):
    """How far b2 lies outside the band, relative to the band's midpoint
    (the reference value the band was built from); 0 inside the band."""
    lo, hi = band
    return max(0.0, lo - b2, b2 - hi) / ((lo + hi) / 2)


def _project(vec, band, weights):
    """Scale a coefficient vector onto the squared-bandwidth band if outside
    it: (vector, its squared bandwidth), given its _beta2_weights.

    The squared bandwidth is homogeneous of degree 2 in the coefficients, so
    scaling by sqrt(edge / value) lands on the nearest edge to machine
    precision. A vector whose residual outside the band, relative to the
    band's midpoint, is at most BAND_SLACK is returned itself; so is every
    projected result, which makes the projection idempotent bit for bit.
    """
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


def _active_edge(x, g, b2, band, beta2_ref, weights):
    """The unit normal W x / |W x| of the band edge that holds the iterate x:
    when b2 is within EDGE_TOL of an edge and -g points out of the band
    there; None otherwise."""
    lo, hi = band
    # the outward normal is W x on the upper edge and -W x on the lower one
    if abs(b2 - hi) <= EDGE_TOL * beta2_ref:
        outward = 1.0
    elif abs(b2 - lo) <= EDGE_TOL * beta2_ref:
        outward = -1.0
    else:
        return None
    normal = weights * x
    if outward * float(g @ normal) >= 0:  # -g points into the band
        return None
    return normal / math.sqrt(normal @ normal)


def _tangent(v, normal):
    """v projected onto the plane with the given unit normal (v if None)."""
    return v if normal is None else v - float(v @ normal) * normal


def _lbfgs_direction(g_t, memory):
    """-H g_t, with H the L-BFGS inverse Hessian of the (s, y, 1 / s.y)
    pairs in memory, oldest first: the two-loop recursion (Nocedal & Wright,
    Algorithm 7.4) with H0 = (s.y / y.y) I from the newest pair."""
    q = -g_t
    alphas = []
    for s, y, rho in reversed(memory):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    if memory:
        _, y, rho = memory[-1]
        q *= 1.0 / (rho * float(y @ y))
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        q += (a - rho * float(y @ q)) * s
    return q


def optimize(initial, cfg):
    """L-BFGS on the bandwidth band from the given initialization.

    Each iteration tries t = 1, 1/2, ... down to MIN_STEP along the L-BFGS
    direction of the tangent gradient g_t, projects each trial onto the band
    and accepts the first with a strict, Armijo-sufficient decrease. On an
    edge that holds the iterate (_active_edge), g_t and the direction are
    projected onto the edge's tangent plane; elsewhere g_t is the gradient.
    Every accepted step offers its (s, y) pair to the memory, which admits
    it only when s.y > 0. The memory is cleared only when a line search
    fails while memory is held; that search is then retried once along -g_t.

    Terminates as "converged" when |g_t| <= GTOL |g_t(start)|, as
    "step_underflow" when a line search along -g_t fails, or at the
    iteration cap. Returns the last iterate: a step is accepted only if it
    strictly lowers the objective, so the last iterate is also the best one
    seen. Every recorded iterate is feasible: its constraint_residual is at
    most BAND_SLACK. The trace records every iteration, 0 (the start) to
    the last, so it ends with the returned iterate. A record's
    step_size is the t its iterate was accepted at (the last t tried when
    none was), its grad_norm is the full |g| and its tangent_grad_norm the
    |g_t| the stop test reads. Two runs with identical inputs produce
    identical traces.

    Every evaluation scores the sidelobe ratio on one mainlobe region,
    [0, first ACF null of the initialization]. The band holds the half-power
    (-3 dB) width, not that null, which moves out by 11-45% over the 13-state
    mseq63 problem set. An initialization whose ACF has no null raises
    DegenerateMainlobe. final_gisr_db is the result's gisr at its own null.

    ``n_evaluations`` counts objective evaluations; each returns the
    gradient with the objective, so one line-search trial is one evaluation.
    Each evaluated iterate is synthesized and correlated exactly once: the
    start's null scan reads the first evaluation's |R| (_start), and
    final_gisr_db reads the |R| of the evaluation that accepted the result,
    bit for bit the |R| of acf() on the result's waveform.

    The loop works on the coefficient vector: line-search trials are
    projected as vectors, a trace record takes the squared bandwidth the
    projection computed for its iterate, and the result's MtsfmParams is
    built once, at the end.
    """
    x = initial.coefficient_vector()
    if not x.any():
        raise ValueError("initialization has all-zero coefficients; "
                         "the bandwidth band is empty and cannot be projected onto")
    run, start = _start(initial, cfg)
    beta2_ref = b2 = _beta2(x, run.weights)
    band = ((1 - cfg.delta) * beta2_ref, (1 + cfg.delta) * beta2_ref)
    f, g, mag = _score(start, run)
    n_evals = 1
    normal = _active_edge(x, g, b2, band, beta2_ref, run.weights)
    g_t = _tangent(g, normal)
    g_t_norm = math.sqrt(g_t @ g_t)
    g_t_stop = GTOL * g_t_norm
    memory = deque(maxlen=MEMORY)

    def line_search(d):
        """(t, accepted (x, b2, f, g, |R|) or None) of a backtracking search along d."""
        nonlocal n_evals
        t = 1.0
        while True:
            cand, b2c = _project(x + t * d, band, run.weights)
            fc, gc, magc = _evaluate(cand, run)
            n_evals += 1
            if fc < f and fc <= f + ARMIJO * float(g @ (cand - x)):
                return t, (cand, b2c, fc, gc, magc)
            if t * STEP_SHRINK < MIN_STEP:
                return t, None
            t *= STEP_SHRINK

    def record(it, step_size, accepted):
        return TraceRecord(it, _db(f), b2 / beta2_ref, _band_residual(b2, band),
                           step_size, math.sqrt(g @ g), g_t_norm, accepted)

    trace = [record(0, 0.0, True)]
    reason = None

    for it in range(1, cfg.max_iterations + 1):
        step, new = line_search(_tangent(_lbfgs_direction(g_t, memory), normal))
        if new is None and memory:
            memory.clear()
            step, new = line_search(-g_t)
        if new is None:
            reason = "step_underflow"
        else:
            x_new, b2, f, g, mag = new
            normal = _active_edge(x_new, g, b2, band, beta2_ref, run.weights)
            g_t_new = _tangent(g, normal)
            s, y = x_new - x, g_t_new - g_t
            sy = float(s @ y)
            if sy > 0:  # a pair without positive curvature would make H indefinite
                memory.append((s, y, 1.0 / sy))
            x, g_t = x_new, g_t_new
            g_t_norm = math.sqrt(g_t @ g_t)
            if g_t_norm <= g_t_stop:
                reason = "converged"

        trace.append(record(it, step, new is not None))
        if reason:
            break

    return OptimizationResult(
        params=initial.with_coefficients(x),
        initial_gisr_db=trace[0].objective_db,
        final_gisr_db=_gisr_db(_regions(run.lags, _null_vertex(run.lags, mag)), mag, cfg.p),
        initial_beta2=beta2_ref,
        final_beta2=b2,
        trace=tuple(trace),
        converged=reason == "converged",
        termination_reason=reason or "max_iterations",
        n_evaluations=n_evals,
    )


def trace_csv(trace):
    """CSV text with header
    ``iter,objective_db,beta2_rel,step_size,grad_norm,tangent_grad_norm,accepted``.
    constraint_residual has no column, as it is at most BAND_SLACK by construction."""
    lines = ["iter,objective_db,beta2_rel,step_size,grad_norm,tangent_grad_norm,accepted"]
    for r in trace:
        lines.append(f"{r.iteration},{r.objective_db!r},{r.beta2_rel!r},{r.step_size!r},"
                     f"{r.grad_norm!r},{r.tangent_grad_norm!r},{int(r.accepted)}")
    return "\n".join(lines) + "\n"
