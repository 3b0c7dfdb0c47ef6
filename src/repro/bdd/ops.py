"""Higher-order BDD operations: quantification, relational product,
literal substitution, model counting and enumeration, variable renaming.

These are free functions over a :class:`~repro.bdd.manager.BddManager`;
each keeps its own memo cache keyed by the operand nodes (caches are scoped
to the call, which is simpler than invalidation).  The symbolic engine's
hot loop calls :func:`substitute` once per transition per frontier; its
walk stops below the transition's deepest literal, so a call costs the
frontier's nodes above that level rather than the whole diagram.
``relprod`` and ``rename`` serve the monolithic-relation ablation.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.bdd.manager import ONE, ZERO, BddManager

__all__ = [
    "exists",
    "forall",
    "relprod",
    "rename",
    "substitute",
    "restrict",
    "satcount",
    "any_model",
    "iter_models",
]


def restrict(mgr: BddManager, f: int, level: int, value: bool) -> int:
    """Cofactor: fix the variable at ``level`` to ``value``."""
    cache: dict[int, int] = {}

    def walk(node: int) -> int:
        if node <= ONE or mgr.level(node) > level:
            return node
        hit = cache.get(node)
        if hit is not None:
            return hit
        if mgr.level(node) == level:
            result = mgr.high(node) if value else mgr.low(node)
        else:
            result = mgr.ite(
                mgr.var(mgr.level(node)),
                walk(mgr.high(node)),
                walk(mgr.low(node)),
            )
        cache[node] = result
        return result

    return walk(f)


def exists(mgr: BddManager, f: int, levels: Sequence[int] | frozenset[int]) -> int:
    """Existential quantification over the given variable levels."""
    level_set = frozenset(levels)
    if not level_set:
        return f
    cache: dict[int, int] = {}

    def walk(node: int) -> int:
        if node <= ONE:
            return node
        hit = cache.get(node)
        if hit is not None:
            return hit
        level = mgr.level(node)
        lo = walk(mgr.low(node))
        hi = walk(mgr.high(node))
        if level in level_set:
            result = mgr.or_(lo, hi)
        else:
            result = mgr.ite(mgr.var(level), hi, lo)
        cache[node] = result
        return result

    return walk(f)


def forall(mgr: BddManager, f: int, levels: Sequence[int] | frozenset[int]) -> int:
    """Universal quantification over the given variable levels."""
    return mgr.not_(exists(mgr, mgr.not_(f), levels))


def relprod(
    mgr: BddManager,
    f: int,
    g: int,
    levels: Sequence[int] | frozenset[int],
) -> int:
    """Relational product ``∃ levels . f ∧ g`` without building ``f ∧ g``.

    Image computation with a full current/next relation; quantifies
    variables as soon as the recursion passes them, which keeps
    intermediate results small (the classic and-exists optimization).
    """
    level_set = frozenset(levels)
    cache: dict[tuple[int, int], int] = {}

    def walk(a: int, b: int) -> int:
        if a == ZERO or b == ZERO:
            return ZERO
        if a == ONE and b == ONE:
            return ONE
        if a == ONE and not level_set:
            return b
        key = (a, b) if a <= b else (b, a)
        hit = cache.get(key)
        if hit is not None:
            return hit
        top = min(mgr.level(a), mgr.level(b))
        a_lo, a_hi = _cofactors(mgr, a, top)
        b_lo, b_hi = _cofactors(mgr, b, top)
        lo = walk(a_lo, b_lo)
        if top in level_set:
            if lo == ONE:
                result = ONE
            else:
                hi = walk(a_hi, b_hi)
                result = mgr.or_(lo, hi)
        else:
            hi = walk(a_hi, b_hi)
            result = mgr.ite(mgr.var(top), hi, lo)
        cache[key] = result
        return result

    return walk(f, g)


#: Nodes :func:`substitute` builds between two calls of its ``check``.
CHECK_STRIDE = 1024


def substitute(
    mgr: BddManager,
    f: int,
    literals: Sequence[tuple[int, bool, bool]],
    *,
    check: Callable[[], None] | None = None,
) -> int:
    """Cofactor and reassign a few variables of ``f`` in one walk.

    ``literals`` are ``(level, need, put)`` triples sorted by strictly
    increasing level.  For each one, ``need`` selects the cofactor
    ``f|level=need`` and ``put`` fixes the variable to ``put`` in the
    result.  Every other variable keeps its value.  In formulas, with
    ``L`` the literal levels::

        substitute(f) = (∃L. f ∧ ⋀ level=need) ∧ ⋀ level=put

    On a safe net this is the image of a marking set under one transition
    (see :class:`~repro.symbolic.encoding.SymbolicNet`), the same function
    ``rename(relprod(f, rel, current), next→current)`` computes over the
    transition's full current/next relation.

    ``check`` (a deadline test that raises once time is up) is called
    after every :data:`CHECK_STRIDE` result nodes, so one large image
    cannot run far past a time budget; counting nodes keeps clock reads
    off the per-node path.
    """
    lits = tuple(literals)
    if any(a[0] >= b[0] for a, b in zip(lits, lits[1:])):
        raise ValueError("substitute literals must have increasing levels")
    count = len(lits)
    # The manager's node arrays, read directly as its own hot loops do:
    # the saved accessor calls pay for the deadline countdown.
    var, lo, hi, mk = mgr._var, mgr._lo, mgr._hi, mgr.mk
    # One memo per literal index: a node reached with different literals
    # still pending has different images.
    caches: list[dict[int, int]] = [{} for _ in lits]
    countdown = CHECK_STRIDE

    def walk(node: int, index: int) -> int:
        nonlocal countdown
        # ``index`` is the first literal not yet applied on this path.
        if index == count or node == ZERO:
            return node
        cache = caches[index]
        hit = cache.get(node)
        if hit is not None:
            return hit
        top = var[node]
        at, need, put = lits[index]
        if top < at:
            result = mk(top, walk(lo[node], index), walk(hi[node], index))
        else:
            below = node if top > at else (hi[node] if need else lo[node])
            rest = walk(below, index + 1)
            result = mk(at, ZERO, rest) if put else mk(at, rest, ZERO)
        cache[node] = result
        if check is not None:
            countdown -= 1
            if not countdown:
                countdown = CHECK_STRIDE
                check()
        return result

    return walk(f, 0)


def _cofactors(mgr: BddManager, node: int, level: int) -> tuple[int, int]:
    if node > ONE and mgr.level(node) == level:
        return mgr.low(node), mgr.high(node)
    return node, node


def rename(mgr: BddManager, f: int, mapping: dict[int, int]) -> int:
    """Substitute variables: level ``k`` becomes level ``mapping[k]``.

    Requires the renaming to be *monotone* on the function's support
    (order-preserving), which holds for the interleaved current/next
    variable scheme used by the symbolic engine; violations raise
    ``ValueError`` rather than silently producing an unordered diagram.
    """
    support = sorted(mgr.support(f))
    mapped = [mapping.get(level, level) for level in support]
    if mapped != sorted(mapped):
        raise ValueError("rename mapping must preserve the variable order")
    cache: dict[int, int] = {}

    def walk(node: int) -> int:
        if node <= ONE:
            return node
        hit = cache.get(node)
        if hit is not None:
            return hit
        level = mapping.get(mgr.level(node), mgr.level(node))
        result = mgr.ite(mgr.var(level), walk(mgr.high(node)), walk(mgr.low(node)))
        cache[node] = result
        return result

    return walk(f)


def satcount(mgr: BddManager, f: int, num_vars: int | None = None) -> int:
    """Number of satisfying assignments over ``num_vars`` variables.

    ``num_vars`` defaults to the manager's declared variable count; it must
    cover the function's support.
    """
    if num_vars is None:
        num_vars = mgr.num_vars
    support = mgr.support(f)
    if support and max(support) >= num_vars:
        raise ValueError("num_vars does not cover the function's support")
    cache: dict[int, int] = {}

    def walk(node: int) -> int:
        # Count over the variables strictly below this node's level is
        # normalized at the call sites via level gaps.
        if node == ZERO:
            return 0
        if node == ONE:
            return 1
        hit = cache.get(node)
        if hit is not None:
            return hit
        lo, hi = mgr.low(node), mgr.high(node)
        lo_count = walk(lo) << _gap(mgr, node, lo, num_vars)
        hi_count = walk(hi) << _gap(mgr, node, hi, num_vars)
        result = lo_count + hi_count
        cache[node] = result
        return result

    total = walk(f)
    # Normalize for variables above the root.
    root_level = num_vars if f <= ONE else mgr.level(f)
    return total << root_level


def _gap(mgr: BddManager, parent: int, child: int, num_vars: int) -> int:
    child_level = num_vars if child <= ONE else mgr.level(child)
    return child_level - mgr.level(parent) - 1


def any_model(
    mgr: BddManager, f: int, care_levels: Sequence[int] = ()
) -> dict[int, bool] | None:
    """One satisfying assignment, or ``None`` for the zero function.

    Variables in ``care_levels`` that the function does not constrain are
    returned as ``False`` so callers get a total assignment.
    """
    if f == ZERO:
        return None
    model: dict[int, bool] = {level: False for level in care_levels}
    node = f
    while node > ONE:
        if mgr.low(node) != ZERO:
            model[mgr.level(node)] = False
            node = mgr.low(node)
        else:
            model[mgr.level(node)] = True
            node = mgr.high(node)
    return model


def iter_models(
    mgr: BddManager,
    f: int,
    care_levels: Sequence[int],
    *,
    limit: int | None = None,
) -> Iterator[dict[int, bool]]:
    """Enumerate satisfying assignments, total over ``care_levels``.

    Free variables are expanded to both values, so the enumeration size can
    be exponential; pass ``limit`` to cap it.
    """
    care = sorted(set(care_levels) | set(mgr.support(f)))
    emitted = 0

    def recurse(node: int, index: int, partial: dict[int, bool]) -> Iterator[dict[int, bool]]:
        nonlocal emitted
        if node == ZERO:
            return
        if index == len(care):
            emitted += 1
            yield dict(partial)
            return
        level = care[index]
        node_level = mgr.level(node) if node > ONE else None
        for value in (False, True):
            if limit is not None and emitted >= limit:
                return
            if node_level == level:
                child = mgr.high(node) if value else mgr.low(node)
            else:
                child = node
            partial[level] = value
            yield from recurse(child, index + 1, partial)
        del partial[level]

    yield from recurse(f, 0, {})
