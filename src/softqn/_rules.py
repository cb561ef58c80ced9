"""The four rules of a scalar parameter, checked where the value is made.  Each
raises ValueError "<name> must ..., got <value>" on a value that breaks it."""

import math

import numpy as np


def positive(name, value):
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def nonnegative(name, value):
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")


def open_unit(name, value):
    if not 0 < value < 1:
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


def count(name, value, least=None):
    """An integer (numpy's included, bool not), of at least ``least`` if given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
