"""Phase-code generation and I/O.

A phase code is an ordered list of chip phases in radians. Binary codes use
the values {0, pi} so that the code plugs directly into the phase-modulated
signal model used everywhere else in this package.
"""

import io
import math
from dataclasses import dataclass

import numpy as np

from ._validation import as_float_vector, check_int_at_least

__all__ = [
    "PhaseCode",
    "PRIMITIVE_TAPS",
    "BARKER_LENGTHS",
    "generate_msequence",
    "barker_code",
    "load_phase_code",
    "dump_phase_code",
]


@dataclass(frozen=True)
class PhaseCode:
    """An ordered set of chip phases (radians) plus a free-form label."""

    phases: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "phases", as_float_vector(self.phases, "phases"))

    def __len__(self):
        return self.phases.size

    @property
    def n(self):
        return self.phases.size


# Default maximal-length tap masks per register degree. Bit k of a mask is
# the x^k coefficient of the feedback polynomial (x^0 is implicit), so
# 0b1100000 is x^6 + x^5 + 1. Each entry is verified maximal by the test
# suite; callers may pass any other primitive mask.
PRIMITIVE_TAPS = {
    2: 0b110,
    3: 0b1010,
    4: 0b10010,
    5: 0b100100,
    6: 0b1100000,
    7: 0b10000010,
    8: 0b100011100,
    9: 0b1000010000,
    10: 0b10000001000,
    11: 0b100000000100,
    12: 0b1000001010010,
    13: 0b10000000011010,
    14: 0b100000000101010,
    15: 0b1000000000000010,
    16: 0b10000000000101100,
}


def generate_msequence(degree, taps=None, seed=1):
    """Generate a binary m-sequence phase code from a Galois LFSR.

    Parameters
    ----------
    degree : int
        Register length, 2..16. The code length is 2**degree - 1.
    taps : int, optional
        Feedback polynomial mask; bit k is the x^k coefficient and x^0 is
        implicit. Defaults to the built-in table entry for ``degree``. It must
        be non-negative with x^degree its highest set bit (ValueError). Primitivity
        is not verified here: a non-primitive mask of the right degree yields
        a shorter-period sequence and is the caller's responsibility.
    seed : int
        Initial register state, 1..2**degree - 1.

    Returns
    -------
    PhaseCode
        Binary code with phases in {0, pi}; register bit 1 maps to pi.
    """
    degree = check_int_at_least("degree", degree, 2)
    if degree > 16:
        raise ValueError(f"degree must be in [2, 16], got {degree}")
    taps = PRIMITIVE_TAPS[degree] if taps is None else check_int_at_least("taps", taps, -math.inf)
    if taps >> degree != 1:  # a negative mask shifts to -1 or less
        raise ValueError(f"taps must have x^{degree} as their highest term "
                         f"(bit {degree} set, no higher bit, not negative), got {taps:#b}")
    n_states = (1 << degree) - 1
    state = seed = check_int_at_least("seed", seed, -math.inf)
    if not 0 < seed <= n_states:
        raise ValueError("seed must be a positive register state below "
                         f"2**{degree}, got {seed}")
    toggle = taps >> 1
    bits = np.empty(n_states, dtype=np.int8)
    for i in range(n_states):
        bit = state & 1
        bits[i] = bit
        state >>= 1
        if bit:
            state ^= toggle
    phases = np.pi * bits.astype(float)
    return PhaseCode(phases, label=f"mseq{n_states}-taps0b{taps:b}-seed{seed}")


# Canonical binary Barker codes as +/- chip signs. For the two lengths with
# more than one accepted variant (2 and 4), the [+,-] and [+,+,-,+] forms
# are used.
_BARKER_SIGNS = {
    2: (1, -1),
    3: (1, 1, -1),
    4: (1, 1, -1, 1),
    5: (1, 1, 1, -1, 1),
    7: (1, 1, 1, -1, -1, 1, -1),
    11: (1, 1, 1, -1, -1, -1, 1, -1, -1, 1, -1),
    13: (1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1),
}

BARKER_LENGTHS = tuple(sorted(_BARKER_SIGNS))


def barker_code(length):
    """Return the canonical binary Barker code of the given length as {0, pi} phases."""
    length = check_int_at_least("length", length, -math.inf)
    if length not in _BARKER_SIGNS:
        raise ValueError(
            f"no Barker code of length {length}; supported lengths: {list(BARKER_LENGTHS)}")
    signs = np.array(_BARKER_SIGNS[length], dtype=float)
    phases = np.where(signs > 0, 0.0, np.pi)
    return PhaseCode(phases, label=f"barker{length}")


def load_phase_code(source, label=""):
    """Read a phase code from text: one radian value per line.

    Lines starting with '#' and blank lines are ignored. ``source`` may be a
    file path or an open text stream.

    Raises
    ------
    ValueError
        On an empty input, a non-numeric line, or a non-finite value; the
        message names the offending 1-based line number.
    """
    if hasattr(source, "read"):
        stream = source
        close = False
    else:
        stream = io.open(source, "r", encoding="utf-8")
        close = True
    try:
        values = []
        for lineno, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = float(line)
            except ValueError:
                raise ValueError(f"line {lineno}: not a number: {line!r}") from None
            if not np.isfinite(value):
                raise ValueError(f"line {lineno}: non-finite value: {line!r}")
            values.append(value)
    finally:
        if close:
            stream.close()
    if not values:
        raise ValueError("empty phase-code input: no values found")
    return PhaseCode(np.array(values), label=label)


def dump_phase_code(code, destination):
    """Write a phase code in the one-value-per-line text format."""
    text = "".join(f"{p!r}\n" for p in code.phases.tolist())
    if code.label:
        text = f"# {code.label}\n" + text
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with io.open(destination, "w", encoding="utf-8") as fh:
            fh.write(text)
