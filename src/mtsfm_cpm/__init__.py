"""Spectrally compact continuous-phase versions of phase-coded waveforms.

The toolkit converts a phase-coded pulse into a multi-tone sinusoidal FM
waveform by fitting a truncated Fourier series to its instantaneous phase,
then re-optimizes the Fourier coefficients to recover low autocorrelation
sidelobes while an RMS-bandwidth band constraint preserves the mainlobe.

Each public name is listed once, in the ``__all__`` of the module that
defines it; the package re-exports their union.
"""

from . import codes, metrics, mtsfm, optimizer, waveform
from . import estimators  # noqa: F401  (empty; perfbench's spans.LAYERS reads it)
from .codes import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .mtsfm import *  # noqa: F401,F403
from .optimizer import *  # noqa: F401,F403
from .waveform import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*codes.__all__, *waveform.__all__, *mtsfm.__all__, *metrics.__all__,
           *optimizer.__all__, "__version__"]
