"""Per-sample classification hardness functions and batch evaluation.

A hardness function scores how badly a probabilistic prediction fits a known
binary label; larger is harder. All three built-ins are decomposable: the
hardness of a set is the sum over its samples.
"""
from __future__ import annotations

import numpy as np

from .core import _check_unit_interval, _labels

__all__ = [
    "absolute_error",
    "squared_error",
    "cross_entropy",
    "HARDNESS_FUNCTIONS",
    "resolve_hardness",
]

CROSS_ENTROPY_EPS = 1e-12


def _checked(p, y):
    p = np.asarray(p, dtype=np.float64)
    _check_unit_interval(p, "probabilities")
    return p, _labels(y)


def _shaped(values):
    return float(values) if values.ndim == 0 else values


def absolute_error(p, y):
    """|p - y|, bounded to [0, 1]. The default hardness."""
    p, y = _checked(p, y)
    return _shaped(np.abs(p - y))


def squared_error(p, y):
    """(p - y)^2, bounded to [0, 1]."""
    p, y = _checked(p, y)
    return _shaped((p - y) ** 2)


def cross_entropy(p, y):
    """-y*log(p) - (1-y)*log(1-p), with p clamped away from {0, 1}.

    Unbounded above; the clamp keeps the value finite at the endpoints.
    """
    p, y = _checked(p, y)
    p = np.clip(p, CROSS_ENTROPY_EPS, 1.0 - CROSS_ENTROPY_EPS)
    return _shaped(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


HARDNESS_FUNCTIONS = {
    "absolute": absolute_error,
    "squared": squared_error,
    "cross-entropy": cross_entropy,
}


def resolve_hardness(spec):
    """Map a HARDNESS_FUNCTIONS name (or pass a callable through) to a hardness function."""
    if callable(spec):
        return spec
    try:
        return HARDNESS_FUNCTIONS[spec]
    except KeyError:
        valid = " | ".join(sorted(HARDNESS_FUNCTIONS))
        raise ValueError(f"unknown hardness function {spec!r}; valid: {valid}") from None

