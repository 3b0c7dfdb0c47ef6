"""Exact P- and T-invariant bases via Farkas / Fourier–Motzkin elimination.

A **P-invariant** is a non-negative place weighting ``y`` with
``Σ_p y(p)·C[t][p] = 0`` for every transition ``t``: the weighted token
count ``y·m`` is conserved by every firing.  A **T-invariant** is a
non-negative transition counting ``x`` with zero net effect on every
place: any firing sequence whose Parikh vector is ``x`` returns to the
marking it started from.

Both are computed by the classical Farkas algorithm: start from
``[A | I]`` and eliminate the ``A`` columns one at a time, replacing the
rows by (a) the rows already zero in that column and (b) every positive
combination of a positive-entry row with a negative-entry row.  Positive
combinations of the identity seed rows stay non-negative, so what survives
elimination is exactly a generating set of the non-negative solution cone.

Arithmetic is exact throughout — no floats, no numpy.  Every working row
is kept as the smallest integral vector of its ray (integer combinations
of integer rows re-reduced by their gcd), which is the classical
all-integer variant of rational Fourier–Motzkin, so the public weights
are plain non-negative ``int`` tuples with gcd 1.  Support sets are
tracked as int bitmasks so the minimal-support pruning — the step that
dominates on invariant-rich nets — costs two machine-int ops per
comparison, and it is incremental: each column only checks the rows it
creates, never the rows it inherits (see :func:`_prune_new_rows`).

The intermediate row count can blow up combinatorially on adversarial
inputs, so the elimination carries a row cap; a basis computed under a hit
cap is flagged ``capped`` (incomplete — callers must not conclude from the
*absence* of an invariant) and its surviving rays are still genuine
invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from repro.net.petrinet import PetriNet
from repro.static.matrix import IncidenceMatrix, incidence

__all__ = [
    "Invariant",
    "InvariantBasis",
    "p_invariants",
    "t_invariants",
    "farkas",
]

#: Default bound on intermediate rows during elimination.  Generous for
#: the benchmark families (their structured nets stay in the thousands);
#: a net that exceeds it gets a ``capped`` (incomplete) basis instead of
#: an exponential computation.
DEFAULT_MAX_ROWS = 20_000


@dataclass(frozen=True)
class Invariant:
    """One non-negative integral invariant vector.

    ``weights`` is indexed by place (P-invariants) or transition
    (T-invariants): non-negative integers with gcd 1.
    """

    weights: tuple[int, ...]

    @cached_property
    def support(self) -> frozenset[int]:
        """Indices with a non-zero weight (computed once, then stored)."""
        return frozenset(i for i, w in enumerate(self.weights) if w)

    def value(self, marking: frozenset[int]) -> int:
        """The conserved quantity ``y·m`` of a safe-net marking."""
        return sum(self.weights[p] for p in marking)

    def describe(self, names: tuple[str, ...]) -> str:
        """Human-readable ``2*a + b + c`` rendering."""
        terms: list[str] = []
        for i in sorted(self.support):
            weight = self.weights[i]
            if weight == 1:
                terms.append(names[i])
            else:
                terms.append(f"{weight}*{names[i]}")
        return " + ".join(terms)


@dataclass(frozen=True)
class InvariantBasis:
    """A generating set of minimal-support non-negative invariants.

    ``capped`` is True when the elimination hit its row budget: the listed
    invariants are still valid, but the basis may be incomplete and
    non-coverage conclusions are unsound.
    """

    kind: str  # "P" or "T"
    invariants: tuple[Invariant, ...]
    capped: bool

    def __len__(self) -> int:
        return len(self.invariants)

    def covering(self, index: int) -> list[Invariant]:
        """The invariants whose support contains ``index``."""
        return [inv for inv in self.invariants if index in inv.support]


#: One elimination row: (constraint residual, seed vector, seed-support
#: bitmask).  Residual entries may be negative; seed entries never are,
#: so the support mask of a positive combination is exactly the union.
_Row = tuple[tuple[int, ...], tuple[int, ...], int]


def _reduce(row: list[int]) -> tuple[int, ...]:
    """Scale an integral ray down to gcd 1 (sign-preserving)."""
    g = gcd(*row)
    if g > 1:
        return tuple(entry // g for entry in row)
    return tuple(row)


def _prune_new_rows(zero: list[_Row], new: list[_Row]) -> list[_Row]:
    """Minimal-support pruning of one column's rows, done incrementally.

    The result is the support-minimal subset of ``zero + new``, ordered by
    a stable sort on support size: scanning in that order, a row is kept
    unless a kept row's support is contained in its own (equal supports
    keep the first representative — minimal-support rays are unique up to
    scale, so a duplicated support is never minimal anyway).

    Only ``new`` needs checking.  The ``zero`` rows were the previous
    column's minimal set, already sorted and pairwise incomparable, and
    no new row can dominate one: a new row's support contains its
    positive parent's, itself a previous-column row other than the zero
    row.  A zero row's support that is contained in a new row's is
    either strictly smaller or equal and listed first, so it precedes
    the new row in the scan either way.
    """
    if not new:
        return zero
    # A kept mask can only be a subset of ``mask`` if its lowest set bit
    # is one of ``mask``'s bits, so bucketing kept masks by lowest bit
    # lets each candidate scan only the buckets of its own support.
    by_low_bit: dict[int, list[int]] = {}
    for _, _, mask in zero:
        by_low_bit.setdefault(mask & -mask, []).append(mask)
    kept: list[_Row] = []
    for row in sorted(new, key=lambda row: row[2].bit_count()):
        mask = row[2]
        dominated = False
        remaining = mask
        while remaining and not dominated:
            low = remaining & -remaining
            for kept_mask in by_low_bit.get(low, ()):
                if kept_mask & mask == kept_mask:
                    dominated = True
                    break
            remaining ^= low
        if dominated:
            continue
        kept.append(row)
        by_low_bit.setdefault(mask & -mask, []).append(mask)
    return sorted(zero + kept, key=lambda row: row[2].bit_count())


def farkas(
    matrix: list[list[int]], *, max_rows: int = DEFAULT_MAX_ROWS
) -> tuple[list[tuple[int, ...]], bool]:
    """Non-negative solutions of ``matrix · y = 0`` (columns of unknowns).

    ``matrix`` is a list of constraint rows, each of length ``n`` (one
    entry per unknown).  Returns ``(rays, capped)``: support-minimal
    integral rays (gcd 1) spanning the solution cone, and whether the row
    budget was hit (making the answer possibly incomplete).
    """
    if not matrix:
        return [], False
    n = len(matrix[0])
    num_constraints = len(matrix)
    rows: list[_Row] = []
    for unknown in range(n):
        residual = tuple(constraint[unknown] for constraint in matrix)
        seed = tuple(1 if i == unknown else 0 for i in range(n))
        rows.append((residual, seed, 1 << unknown))

    capped = False
    for c in range(num_constraints):
        zero: list[_Row] = []
        positive: list[_Row] = []
        negative: list[_Row] = []
        for row in rows:
            entry = row[0][c]
            if entry == 0:
                zero.append(row)
            elif entry > 0:
                positive.append(row)
            else:
                negative.append(row)
        new: list[_Row] = []
        seen: set[tuple[int, ...]] = {seed for _, seed, _ in zero}
        overflow = False
        for residual_p, seed_p, mask_p in positive:
            alpha = residual_p[c]
            for residual_n, seed_n, mask_n in negative:
                beta = -residual_n[c]
                # The residual is a fixed linear image of the seed, so
                # reducing them *jointly* keeps the pair consistent and
                # makes the seed a valid dedup key.
                joint = [
                    beta * rp + alpha * rn
                    for rp, rn in zip(residual_p, residual_n)
                ]
                joint += [
                    beta * sp + alpha * sn
                    for sp, sn in zip(seed_p, seed_n)
                ]
                norm = _reduce(joint)
                norm_seed = norm[num_constraints:]
                if norm_seed in seen:
                    continue
                seen.add(norm_seed)
                new.append(
                    (norm[:num_constraints], norm_seed, mask_p | mask_n)
                )
                if len(zero) + len(new) > max_rows:
                    overflow = True
                    break
            if overflow:
                break
        rows = _prune_new_rows(zero, new)
        if overflow:
            capped = True
            # Keep only the rows that already satisfy the remaining
            # constraints: they are genuine invariants even under the cap.
            rows = [
                row
                for row in rows
                if all(row[0][k] == 0 for k in range(c + 1, num_constraints))
            ]
            break
    # Every surviving row has a zero residual: each column up to the last
    # processed one was eliminated, and a capped run dropped the rest.
    return [seed for _, seed, _ in rows], capped


def p_invariants(
    net: PetriNet,
    *,
    matrix: IncidenceMatrix | None = None,
    max_rows: int = DEFAULT_MAX_ROWS,
) -> InvariantBasis:
    """Minimal-support non-negative P-invariant basis of ``net``.

    Constraint system: one row per transition, unknowns are the place
    weights — ``Σ_p y(p)·C[t][p] = 0`` for every ``t``.
    """
    mat = matrix if matrix is not None else incidence(net)
    # Without transitions every weighting is invariant: one all-zero row
    # makes the elimination return the unit rays instead of nothing.
    constraints = [
        list(mat.effect[t]) for t in range(mat.num_transitions)
    ] or [[0] * mat.num_places]
    rays, capped = farkas(constraints, max_rows=max_rows)
    return InvariantBasis(
        kind="P",
        invariants=tuple(Invariant(weights=ray) for ray in rays),
        capped=capped,
    )


def t_invariants(
    net: PetriNet,
    *,
    matrix: IncidenceMatrix | None = None,
    max_rows: int = DEFAULT_MAX_ROWS,
) -> InvariantBasis:
    """Minimal-support non-negative T-invariant basis of ``net``.

    Constraint system: one row per place, unknowns are the transition
    counts — ``Σ_t x(t)·C[t][p] = 0`` for every ``p``.
    """
    mat = matrix if matrix is not None else incidence(net)
    constraints = [
        [mat.effect[t][p] for t in range(mat.num_transitions)]
        for p in range(mat.num_places)
    ]
    rays, capped = farkas(constraints, max_rows=max_rows)
    return InvariantBasis(
        kind="T",
        invariants=tuple(Invariant(weights=ray) for ray in rays),
        capped=capped,
    )
