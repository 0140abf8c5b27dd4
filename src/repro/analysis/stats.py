"""Statistical significance helpers for the distributional claims.

The paper states its Fig 7 tail contrasts qualitatively; this helper lets
the benches back them with a one-sided Mann-Whitney U test (scipy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from scipy import stats


@dataclass(frozen=True)
class KsResult:
    """A two-sample test result: statistic and p-value."""

    statistic: float
    p_value: float

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha


def mann_whitney_greater(a: Sequence[float], b: Sequence[float]) -> KsResult:
    """One-sided Mann-Whitney U test: is ``a`` stochastically greater than
    ``b``?"""
    if not a or not b:
        raise ValueError("both samples must be non-empty")
    result = stats.mannwhitneyu(list(a), list(b), alternative="greater")
    return KsResult(statistic=float(result.statistic), p_value=float(result.pvalue))
