"""Hand-computed cases for the benchmark's oracles.

Run with `python3 -m pytest -q perfbench`.
"""
import math

import pytest

from oracles import average_precision, bayes_posterior


def test_average_precision_distinct_scores():
    # Ranked labels 1, 0, 1, 0: the positives are met at ranks 1 and 3.
    ap = average_precision([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.1])
    assert ap == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3), abs=1e-15)


def test_average_precision_groups_tied_scores():
    # The tie at 0.5 is one group: one positive, precision 2/3 at its end.
    ap = average_precision([1, 1, 0, 0], [0.9, 0.5, 0.5, 0.1])
    assert ap == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3), abs=1e-15)


def test_average_precision_all_tied_is_prevalence():
    assert average_precision([1, 0, 0, 0], [0.5] * 4) == pytest.approx(0.25, abs=1e-15)


def test_average_precision_perfect_ranking():
    assert average_precision([0, 1, 0, 1], [0.2, 0.8, 0.1, 0.7]) == 1.0


def test_average_precision_rejects_one_class():
    with pytest.raises(ValueError):
        average_precision([1, 1], [0.3, 0.4])


def test_bayes_posterior_equidistant_point_is_the_prior():
    # (0.5, 0.5) is equally far from all four centres of a 2x2 board.
    p = bayes_posterior([[0.5, 0.5]], 0.1, n_minority=1, n_majority=3, grid_size=2)
    assert p[0] == pytest.approx(0.25, abs=1e-15)


def test_bayes_posterior_at_a_minority_centre():
    # 2x2 board, equal priors, point (0, 1): squared distances 0 and 2 to the
    # class-1 centres (0, 1) and (1, 0); 1 and 1 to the class-0 centres.
    p = bayes_posterior([[0.0, 1.0]], 0.1, n_minority=5, n_majority=5, grid_size=2)
    class1 = 1.0 + math.exp(-2 / 0.2)
    class0 = 2.0 * math.exp(-1 / 0.2)
    assert p[0] == pytest.approx(class1 / (class1 + class0), rel=1e-12)


def test_bayes_posterior_weighs_the_priors():
    # Same point with a 1:9 prior: odds shrink by a factor of 9.
    p = bayes_posterior([[0.0, 1.0]], 0.1, n_minority=1, n_majority=9, grid_size=2)
    odds = (1.0 + math.exp(-2 / 0.2)) / (2.0 * math.exp(-1 / 0.2)) / 9.0
    assert p[0] == pytest.approx(odds / (1.0 + odds), rel=1e-12)
