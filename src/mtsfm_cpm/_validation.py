"""Small input-validation helpers shared across the package."""

import math
import numbers

import numpy as np


def read_only_copy(values, dtype=float):
    """values copied into a new read-only array of dtype: the caller's array
    stays writable, and no view of it can write into the copy."""
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def as_float_vector(values, name):
    """A read_only_copy as a 1-D float64 array, with at least one entry, all
    of them finite."""
    arr = read_only_copy(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must contain at least one value")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite everywhere")
    return arr


def check_real(name, value):
    """Require a real scalar: a bool, a list or an array is rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} has the wrong type: need a real number, got {value!r}")
    return value


def _finite(value):
    """math.isfinite that reads an int too large for a float as not finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def check_positive(name, value):
    """Require a real scalar (see check_real) that is positive and finite as
    a float: an int too large for a float is not."""
    if not (_finite(check_real(name, value)) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def check_int_at_least(name, value, minimum):
    """Require a real scalar (see check_real) with an integral value >= minimum,
    such as 4 or 4.0, that is finite as a float, and return it as an int.
    A minimum of -math.inf checks the type alone and leaves the range, and
    its message, to the caller."""
    # finiteness first: int() of inf or nan raises without naming the value
    if not (_finite(check_real(name, value)) and int(value) == value and value >= minimum):
        bound = f" >= {minimum}" if minimum > -math.inf else ""
        raise ValueError(f"{name} must be an integer{bound}, got {value}")
    return int(value)


def check_p(p):
    """Require a real scalar (see check_real) sidelobe-norm exponent p >= 2
    that is finite as a float (nan, inf and an int too large for a float fail)."""
    if not (_finite(check_real("p", p)) and p >= 2):
        raise ValueError(f"p must be >= 2 and finite, got {p}")
    return p


def check_in_pulse(t, T):
    """Require every time in t to be finite and within [-T/2, T/2]."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("time values must be finite")
    if np.any(t < -T / 2) or np.any(t > T / 2):
        raise ValueError(f"time outside the pulse [-{T / 2}, {T / 2}]")
    return t
