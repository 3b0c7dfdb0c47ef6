"""Partial-order reduction baseline: stubborn/persistent sets (paper §2.3).

Stands in for "SPIN extended with the Partial-Order Package" in the
reproduction of Table 1.
"""

from repro.stubborn.explorer import analyze, explore_reduced

__all__ = ["analyze", "explore_reduced"]
