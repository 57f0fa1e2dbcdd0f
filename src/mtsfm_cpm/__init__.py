"""Spectrally compact continuous-phase versions of phase-coded waveforms.

The toolkit converts a phase-coded pulse into a multi-tone sinusoidal FM
waveform by fitting a truncated Fourier series to its instantaneous phase,
then re-optimizes the Fourier coefficients to recover low autocorrelation
sidelobes while an RMS-bandwidth band constraint preserves the mainlobe.
"""

from .codes import (BARKER_LENGTHS, PRIMITIVE_TAPS, PhaseCode, barker_code,
                    dump_phase_code, generate_msequence, load_phase_code)
from .estimators import GisrOptimizer, MtsfmSmoother
from .metrics import (AcfResult, DegenerateMainlobe, MetricsReport, Spectrum,
                      acf, acf_csv, ambiguity, compute_metrics, gisr, isr,
                      mainlobe_area, psl, rms_bandwidth_spectral,
                      spectral_compactness, spectrum, spectrum_csv)
from .mtsfm import (MtsfmParams, closed_form_rms_bandwidth, fit_fourier,
                    min_harmonics, min_samples, mtsfm_modulation, mtsfm_phase,
                    synthesize_mtsfm)
from .optimizer import (OptimizationResult, OptimizerConfig, TraceRecord,
                        gradient, objective, optimize, trace_csv)
from .waveform import (DEFAULT_SAMPLES_PER_CHIP, MIN_SAMPLES_PER_CHIP,
                       SampledWaveform, SamplingConfig, pc_phase,
                       synthesize_pc, time_grid, waveform_csv,
                       waveform_raw_bytes)

__version__ = "0.1.0"

__all__ = [
    "PhaseCode", "PRIMITIVE_TAPS", "BARKER_LENGTHS", "generate_msequence",
    "barker_code", "load_phase_code", "dump_phase_code",
    "SamplingConfig", "SampledWaveform", "time_grid", "pc_phase",
    "synthesize_pc", "waveform_csv", "waveform_raw_bytes",
    "DEFAULT_SAMPLES_PER_CHIP", "MIN_SAMPLES_PER_CHIP",
    "MtsfmParams", "min_harmonics", "min_samples", "fit_fourier",
    "mtsfm_phase", "mtsfm_modulation", "synthesize_mtsfm",
    "closed_form_rms_bandwidth",
    "Spectrum", "AcfResult", "MetricsReport", "DegenerateMainlobe",
    "spectrum", "spectral_compactness", "acf", "ambiguity",
    "mainlobe_area", "rms_bandwidth_spectral", "psl", "isr", "gisr",
    "compute_metrics", "spectrum_csv", "acf_csv",
    "OptimizerConfig", "OptimizationResult", "TraceRecord", "objective",
    "gradient", "optimize", "trace_csv",
    "MtsfmSmoother", "GisrOptimizer",
    "__version__",
]
