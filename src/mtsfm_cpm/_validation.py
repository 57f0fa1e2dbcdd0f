"""Small input-validation helpers shared across the package."""

import math

import numpy as np


def as_float_vector(values, name):
    """Copy to a 1-D float64 array and require at least one finite entry."""
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must contain at least one value")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite everywhere")
    return arr


def check_positive(name, value):
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def check_int_at_least(name, value, minimum):
    # finiteness first: int() of inf or nan raises without naming the value
    if not (math.isfinite(value) and int(value) == value and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value}")
    return int(value)


def check_in_pulse(t, T):
    """Require every time in t to be finite and within [-T/2, T/2]."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("time values must be finite")
    if np.any(t < -T / 2) or np.any(t > T / 2):
        raise ValueError(f"time outside the pulse [-{T / 2}, {T / 2}]")
    return t
