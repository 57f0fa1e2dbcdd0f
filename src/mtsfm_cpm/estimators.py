"""Estimator-style front ends for the two fit-shaped stages.

Both classes follow scikit-learn conventions (constructor stores
hyperparameters verbatim, ``fit`` learns trailing-underscore attributes and
returns self, ``get_params``/``set_params`` round-trip), so they work with
``sklearn.base.clone`` without this package importing scikit-learn.
"""

import inspect
import warnings

from ._validation import as_float_vector
from .mtsfm import fit_fourier, min_harmonics, mtsfm_modulation, mtsfm_phase, synthesize_mtsfm
from .optimizer import OptimizerConfig, optimize
from .waveform import DEFAULT_SAMPLES_PER_CHIP

__all__ = ["MtsfmSmoother", "GisrOptimizer"]


class _ParamsMixin:
    """get_params/set_params over the constructor signature."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [p for p in sig.parameters if p != "self"]

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self


class MtsfmSmoother(_ParamsMixin):
    """Fit a truncated Fourier series to a phase code's instantaneous phase.

    Parameters
    ----------
    harmonics : int or None
        Harmonic count K; None picks the adequacy bound ceil(N/2). A value
        below the bound is allowed with a warning.
    pulse_length : float or None
        Pulse length in seconds; None uses one second per chip.

    Attributes (after fit)
    ----------------------
    params_ : MtsfmParams
    n_chips_ : int
    min_harmonics_ : int
    """

    def __init__(self, harmonics=None, pulse_length=None):
        self.harmonics = harmonics
        self.pulse_length = pulse_length

    def fit(self, X, y=None):
        """Fit to chip phases X (radians, shape (n_chips,))."""
        phases = as_float_vector(getattr(X, "phases", X), "X")
        n_chips = phases.size
        bound = min_harmonics(n_chips)
        K = self.harmonics if self.harmonics is not None else bound
        T = self.pulse_length if self.pulse_length is not None else float(n_chips)
        # fit before warning or storing, so an invalid K neither warns nor
        # leaves a half-updated estimator
        params = fit_fourier(phases, T, K)
        if K < bound:
            warnings.warn(
                f"harmonics={K} is below the adequacy bound {bound} "
                f"for {n_chips} chips; inter-chip transitions may be lost",
                UserWarning, stacklevel=2)
        self.n_chips_, self.min_harmonics_, self.params_ = n_chips, bound, params
        return self

    def _check_fitted(self):
        if not hasattr(self, "params_"):
            raise RuntimeError("this MtsfmSmoother instance is not fitted yet")

    def predict(self, t):
        """Smoothed instantaneous phase at time(s) t."""
        self._check_fitted()
        return mtsfm_phase(self.params_, t)

    def modulation(self, t):
        """Instantaneous frequency (Hz) at time(s) t."""
        self._check_fitted()
        return mtsfm_modulation(self.params_, t)

    def synthesize(self, n_samples=None):
        """Unit-energy waveform from the fitted phase; default density is
        DEFAULT_SAMPLES_PER_CHIP samples per chip."""
        self._check_fitted()
        if n_samples is None:
            n_samples = max(DEFAULT_SAMPLES_PER_CHIP * self.n_chips_, 4 * self.params_.K)
        return synthesize_mtsfm(self.params_, n_samples)


class GisrOptimizer(_ParamsMixin):
    """Minimize the p-norm sidelobe ratio under the RMS-bandwidth band constraint.

    The constructor mirrors OptimizerConfig's fields (p, delta,
    max_iterations, n_samples); ``fit`` takes an MtsfmParams
    initialization (for instance MtsfmSmoother().fit(code).params_) and runs
    the L-BFGS of ``optimize`` from it.

    Attributes (after fit)
    ----------------------
    result_ : OptimizationResult, whose trace has one record per iteration
    params_ : MtsfmParams, the last (and best) feasible iterate
    converged_ : bool, True when the run stopped stationary on the band: its
        tangent gradient norm fell to optimizer.GTOL times the starting one
    """

    def __init__(self, p=OptimizerConfig.p, delta=OptimizerConfig.delta,
                 max_iterations=OptimizerConfig.max_iterations,
                 n_samples=OptimizerConfig.n_samples):
        self.p = p
        self.delta = delta
        self.max_iterations = max_iterations
        self.n_samples = n_samples

    def fit(self, X, y=None):
        """Run the descent from the initialization X (an MtsfmParams)."""
        self.result_ = optimize(X, OptimizerConfig(**self.get_params()))
        self.params_ = self.result_.params
        self.converged_ = self.result_.converged
        return self

    def score(self, X=None, y=None):
        """Negative final sidelobe ratio in dB (larger is better)."""
        if not hasattr(self, "result_"):
            raise RuntimeError("this GisrOptimizer instance is not fitted yet")
        return -self.result_.final_gisr_db
