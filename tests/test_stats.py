"""Statistical helpers: the one-sided Mann-Whitney wrapper."""

from __future__ import annotations

import random

import pytest

from repro.analysis.stats import mann_whitney_greater


class TestMannWhitney:
    def test_identical_samples_not_significant(self):
        sample = [float(i) for i in range(50)]
        result = mann_whitney_greater(sample, list(sample))
        assert not result.significant()

    def test_shifted_samples_significant(self):
        rng = random.Random(0)
        a = [rng.gauss(3, 1) for _ in range(200)]
        b = [rng.gauss(0, 1) for _ in range(200)]
        result = mann_whitney_greater(a, b)
        assert result.significant(alpha=0.001)
        assert not mann_whitney_greater(b, a).significant()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_greater([], [1.0])
        with pytest.raises(ValueError):
            mann_whitney_greater([1.0], [])

    def test_complete_separation_is_the_largest_statistic(self):
        low = [float(i) for i in range(10)]
        high = [float(i) for i in range(100, 110)]
        result = mann_whitney_greater(high, low)
        # U counts the pairs with a > b: every one of the 10 x 10 here.
        assert result.statistic == 100.0
        assert result.significant(alpha=0.001)
        assert mann_whitney_greater(low, high).statistic == 0.0

    def test_significance_threshold_is_strict(self):
        result = mann_whitney_greater([2.0, 3.0], [1.0, 0.0])
        assert 0.0 < result.p_value <= 1.0
        assert not result.significant(alpha=result.p_value)
        assert result.significant(alpha=result.p_value + 1e-9)
