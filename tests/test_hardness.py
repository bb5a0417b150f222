"""Hardness functions: formulas, monotonicity, resolution."""
import math

import numpy as np
import pytest

from selfpaced.hardness import (
    HARDNESS_FUNCTIONS,
    absolute_error,
    cross_entropy,
    resolve_hardness,
    squared_error,
)


def test_absolute_error_values():
    assert absolute_error(0.3, 0) == pytest.approx(0.3, abs=1e-15)
    assert absolute_error(0.3, 1) == pytest.approx(0.7, abs=1e-15)
    assert absolute_error(0.0, 0) == 0.0
    assert absolute_error(1.0, 0) == 1.0
    out = absolute_error(np.array([0.1, 0.9]), np.array([0, 1]))
    assert np.allclose(out, [0.1, 0.1], atol=1e-15)


def test_squared_error_values():
    assert squared_error(0.3, 0) == pytest.approx(0.09, abs=1e-15)
    assert squared_error(0.3, 1) == pytest.approx(0.49, abs=1e-15)
    assert squared_error(np.array([0.5]), np.array([1]))[0] == pytest.approx(0.25)


def test_cross_entropy_values():
    # -(y ln p + (1-y) ln(1-p)), probabilities clipped at 1e-12.
    assert cross_entropy(0.5, 1) == pytest.approx(math.log(2), abs=1e-15)
    assert cross_entropy(0.5, 0) == pytest.approx(0.6931471805599453, abs=1e-15)
    assert cross_entropy(0.9, 1) == pytest.approx(-math.log(0.9), abs=1e-15)
    # Saturated scores are clamped to 1 - 1e-12 before the log, so the result
    # is -ln(1e-12) up to float cancellation in computing 1 - p.
    assert cross_entropy(1.0, 0) == pytest.approx(27.631021115928547, rel=1e-5)
    assert cross_entropy(0.0, 1) == pytest.approx(27.631021115928547, rel=1e-5)
    assert math.isfinite(cross_entropy(1.0, 0))
    assert cross_entropy(1.0, 1) == pytest.approx(0.0, abs=1e-9)


def test_scalar_in_scalar_out():
    for fn in HARDNESS_FUNCTIONS.values():
        value = fn(0.25, 0)
        assert np.ndim(value) == 0
        array = fn(np.array([0.25, 0.75]), 0)
        assert array.shape == (2,)


def test_hardness_monotone_in_score():
    # For a majority sample (y=0) hardness rises with the score; for a
    # minority sample (y=1) it falls.
    grid = np.linspace(0.001, 0.999, 101)
    for fn in HARDNESS_FUNCTIONS.values():
        up = fn(grid, np.zeros_like(grid))
        down = fn(grid, np.ones_like(grid))
        assert np.all(np.diff(up) > 0)
        assert np.all(np.diff(down) < 0)


def test_hardness_input_validation():
    for fn in HARDNESS_FUNCTIONS.values():
        with pytest.raises(ValueError):
            fn(1.5, 0)
        with pytest.raises(ValueError):
            fn(-0.1, 1)
        with pytest.raises(ValueError):
            fn(float("nan"), 0)
        with pytest.raises(ValueError):
            fn(0.5, 2)


def test_absolute_error_leaves_its_inputs_and_matches_the_plain_expression():
    gen = np.random.default_rng(4)
    p = np.concatenate([gen.random(1000), [0.0, -0.0, 1.0, 5e-324]])
    y = np.concatenate([gen.integers(0, 2, 1000), [0, 1, 1, 0]])
    p_before, y_before = p.copy(), y.copy()
    out = absolute_error(p, y)
    assert out.tobytes() == np.abs(p - y.astype(np.float64)).tobytes()
    assert not np.shares_memory(out, p)
    assert p.tobytes() == p_before.tobytes() and y.tobytes() == y_before.tobytes()
    assert absolute_error(-0.0, 1) == 1.0 and type(absolute_error(0.25, 0)) is float


def test_resolve_hardness_identifiers():
    assert resolve_hardness("absolute") is absolute_error
    assert resolve_hardness("squared") is squared_error
    assert resolve_hardness("cross-entropy") is cross_entropy


def test_resolve_hardness_callable_passthrough():
    def custom(p, y):
        return np.abs(np.asarray(p) - np.asarray(y)) ** 3

    assert resolve_hardness(custom) is custom


def test_resolve_hardness_unknown():
    with pytest.raises(ValueError, match="unknown hardness function 'gini'"):
        resolve_hardness("gini")
    with pytest.raises(ValueError, match="absolute | cross-entropy | squared"):
        resolve_hardness("nope")



@pytest.mark.parametrize("name", ["absolute_error", "squared_error", "cross_entropy"])
def test_resolve_hardness_refuses_function_names(name):
    # A setting has one spelling: the HARDNESS_FUNCTIONS key, or a callable.
    with pytest.raises(ValueError, match=f"unknown hardness function '{name}'"):
        resolve_hardness(name)
