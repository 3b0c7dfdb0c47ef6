"""Families of transition sets: the GPN marking representation.

:class:`BddFamily` values built by a :class:`BddContext`; see
:mod:`repro.families.bddfam`.
"""

from repro.families.bddfam import BddContext, BddFamily

__all__ = ["BddFamily", "BddContext"]
