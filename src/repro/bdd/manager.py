"""A from-scratch ROBDD (reduced ordered binary decision diagram) engine.

Implements Bryant's classic algorithms [2]: hash-consed nodes in a unique
table and memoized recursive operators over it.  The binary connectives
the callers lean on — ``and_``, ``or_`` and ``diff`` — are dedicated
applies, each with its own computed table keyed on the two operands
(commutative ones in normalized order) and with the terminal cases
short-cut before any probe.  ``ite`` (if-then-else) backs the rest:
``not_``, ``xor``, ``iff`` and ``implies``.  The engine backs both the
symbolic reachability baseline (the paper's "SMV" column) and the
compact :class:`~repro.families.bddfam.BddFamily` representation of GPN
scenario families.

Design notes
------------
* Nodes are integers.  ``0`` and ``1`` are the terminals; internal nodes
  live in parallel arrays ``_var/_lo/_hi`` (struct-of-arrays keeps Python
  object overhead down versus per-node objects).
* No complement edges and no garbage collection: managers are created per
  analysis run and dropped wholesale, which keeps the implementation honest
  and the peak-size statistics meaningful.  The computed tables live as
  long as the manager.
* ``ite_calls``/``ite_hits`` count the probes and hits of all four
  computed tables (the name predates the dedicated applies).
* Variables are integer *levels*; smaller level = nearer the root.  Naming
  is layered on top (see :mod:`repro.bdd.ordering` and the users).
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = ["BddManager", "ZERO", "ONE"]

ZERO = 0
ONE = 1

#: Sentinel level for terminals; greater than any real variable level.
_TERMINAL_LEVEL = 1 << 60


class BddManager:
    """Unique-table manager; all BDD operations go through one instance.

    Node handles are only meaningful within their manager.  Typical usage::

        mgr = BddManager()
        x, y = mgr.var(0), mgr.var(1)
        f = mgr.and_(x, mgr.not_(y))
        mgr.evaluate(f, {0: True, 1: False})   # -> True
    """

    def __init__(self) -> None:
        # Terminals occupy ids 0 and 1.
        self._var: list[int] = [_TERMINAL_LEVEL, _TERMINAL_LEVEL]
        self._lo: list[int] = [0, 1]
        self._hi: list[int] = [0, 1]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        self._and_cache: dict[tuple[int, int], int] = {}
        self._or_cache: dict[tuple[int, int], int] = {}
        self._diff_cache: dict[tuple[int, int], int] = {}
        self._num_vars = 0
        # Computed-table statistics: every probe of the ``ite``, ``and_``,
        # ``or_`` and ``diff`` tables counts (terminal cases never probe).
        self.ite_calls = 0
        self.ite_hits = 0

    # ------------------------------------------------------------------
    # Node plumbing
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Total nodes ever created (including the two terminals)."""
        return len(self._var)

    @property
    def num_vars(self) -> int:
        """Number of declared variable levels."""
        return self._num_vars

    @property
    def cache_hit_ratio(self) -> float:
        """Hit ratio over all computed-table probes (0.0 before any)."""
        if not self.ite_calls:
            return 0.0
        return self.ite_hits / self.ite_calls

    def stats(self) -> dict[str, float]:
        """Manager counters for the observability layer."""
        return {
            "nodes": self.num_nodes,
            "vars": self.num_vars,
            "ite_calls": self.ite_calls,
            "ite_hits": self.ite_hits,
            "cache_hit_ratio": round(self.cache_hit_ratio, 4),
        }

    def level(self, node: int) -> int:
        """Variable level of ``node`` (terminals report a huge sentinel)."""
        return self._var[node]

    def low(self, node: int) -> int:
        """Else-branch child."""
        return self._lo[node]

    def high(self, node: int) -> int:
        """Then-branch child."""
        return self._hi[node]

    def mk(self, level: int, lo: int, hi: int) -> int:
        """Hash-consed node constructor with the reduction rule.

        Returns the node ``level ? hi : lo``.  The caller keeps the
        diagram ordered: both children must be terminals or sit at levels
        greater than ``level``.  Building a diagram bottom-up with ``mk``
        yields the same node ids as composing it with ``ite``.
        """
        if lo == hi:
            return lo
        key = (level, lo, hi)
        node = self._unique.get(key)
        if node is None:
            node = len(self._var)
            self._var.append(level)
            self._lo.append(lo)
            self._hi.append(hi)
            self._unique[key] = node
        return node

    def declare(self, count: int) -> None:
        """Ensure at least ``count`` variable levels exist."""
        if count > self._num_vars:
            self._num_vars = count

    def var(self, level: int) -> int:
        """The function of a single positive literal at ``level``."""
        if level < 0:
            raise ValueError("variable level must be non-negative")
        self.declare(level + 1)
        return self.mk(level, ZERO, ONE)

    def nvar(self, level: int) -> int:
        """The function of a single negative literal at ``level``."""
        if level < 0:
            raise ValueError("variable level must be non-negative")
        self.declare(level + 1)
        return self.mk(level, ONE, ZERO)

    # ------------------------------------------------------------------
    # Memoized connectives: ite and the dedicated binary applies
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """``if f then g else h`` (backs ``not_``, ``xor``, ``iff``, ``implies``)."""
        # Terminal short-circuits.
        if f == ONE:
            return g
        if f == ZERO:
            return h
        if g == h:
            return g
        if g == ONE and h == ZERO:
            return f
        key = (f, g, h)
        self.ite_calls += 1
        cached = self._ite_cache.get(key)
        if cached is not None:
            self.ite_hits += 1
            return cached

        top = min(self._var[f], self._var[g], self._var[h])
        f_lo, f_hi = self._cofactors(f, top)
        g_lo, g_hi = self._cofactors(g, top)
        h_lo, h_hi = self._cofactors(h, top)
        lo = self.ite(f_lo, g_lo, h_lo)
        hi = self.ite(f_hi, g_hi, h_hi)
        result = self.mk(top, lo, hi)
        self._ite_cache[key] = result
        return result

    def _cofactors(self, node: int, level: int) -> tuple[int, int]:
        """(f|var=0, f|var=1) for the variable at ``level``."""
        if self._var[node] == level:
            return self._lo[node], self._hi[node]
        return node, node

    # The three applies below spell out the same recursion on purpose: a
    # shared helper taking the operator made GPO's searches about a third
    # slower (one more call and a bound-method lookup per step).
    def and_(self, f: int, g: int) -> int:
        """Conjunction."""
        if f == ZERO or g == ZERO:
            return ZERO
        if f == ONE or f == g:
            return g
        if g == ONE:
            return f
        if f > g:
            f, g = g, f
        key = (f, g)
        self.ite_calls += 1
        cached = self._and_cache.get(key)
        if cached is not None:
            self.ite_hits += 1
            return cached
        var, lo, hi = self._var, self._lo, self._hi
        f_level, g_level = var[f], var[g]
        if f_level == g_level:
            result = self.mk(
                f_level, self.and_(lo[f], lo[g]), self.and_(hi[f], hi[g])
            )
        elif f_level < g_level:
            result = self.mk(f_level, self.and_(lo[f], g), self.and_(hi[f], g))
        else:
            result = self.mk(g_level, self.and_(f, lo[g]), self.and_(f, hi[g]))
        self._and_cache[key] = result
        return result

    def or_(self, f: int, g: int) -> int:
        """Disjunction."""
        if f == ONE or g == ONE:
            return ONE
        if f == ZERO or f == g:
            return g
        if g == ZERO:
            return f
        if f > g:
            f, g = g, f
        key = (f, g)
        self.ite_calls += 1
        cached = self._or_cache.get(key)
        if cached is not None:
            self.ite_hits += 1
            return cached
        var, lo, hi = self._var, self._lo, self._hi
        f_level, g_level = var[f], var[g]
        if f_level == g_level:
            result = self.mk(
                f_level, self.or_(lo[f], lo[g]), self.or_(hi[f], hi[g])
            )
        elif f_level < g_level:
            result = self.mk(f_level, self.or_(lo[f], g), self.or_(hi[f], g))
        else:
            result = self.mk(g_level, self.or_(f, lo[g]), self.or_(f, hi[g]))
        self._or_cache[key] = result
        return result

    def diff(self, f: int, g: int) -> int:
        """Difference ``f ∧ ¬g`` (set minus on characteristic functions)."""
        if f == ZERO or g == ONE or f == g:
            return ZERO
        if g == ZERO:
            return f
        key = (f, g)
        self.ite_calls += 1
        cached = self._diff_cache.get(key)
        if cached is not None:
            self.ite_hits += 1
            return cached
        var, lo, hi = self._var, self._lo, self._hi
        f_level, g_level = var[f], var[g]
        if f_level == g_level:
            result = self.mk(
                f_level, self.diff(lo[f], lo[g]), self.diff(hi[f], hi[g])
            )
        elif f_level < g_level:
            result = self.mk(f_level, self.diff(lo[f], g), self.diff(hi[f], g))
        else:
            result = self.mk(g_level, self.diff(f, lo[g]), self.diff(f, hi[g]))
        self._diff_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Derived operations
    # ------------------------------------------------------------------
    def not_(self, f: int) -> int:
        """Negation."""
        return self.ite(f, ZERO, ONE)

    def xor(self, f: int, g: int) -> int:
        """Exclusive or."""
        return self.ite(f, self.ite(g, ZERO, ONE), g)

    def implies(self, f: int, g: int) -> int:
        """Implication ``f -> g``."""
        return self.ite(f, g, ONE)

    def iff(self, f: int, g: int) -> int:
        """Equivalence."""
        return self.ite(f, g, self.ite(g, ZERO, ONE))

    def and_all(self, nodes: Iterable[int]) -> int:
        """Conjunction of many functions (balanced reduction would be
        faster in pathological cases; linear is fine at our sizes)."""
        acc = ONE
        for node in nodes:
            acc = self.and_(acc, node)
            if acc == ZERO:
                return ZERO
        return acc

    def or_all(self, nodes: Iterable[int]) -> int:
        """Disjunction of many functions."""
        acc = ZERO
        for node in nodes:
            acc = self.or_(acc, node)
            if acc == ONE:
                return ONE
        return acc

    # ------------------------------------------------------------------
    # Evaluation / inspection
    # ------------------------------------------------------------------
    def evaluate(self, f: int, assignment: dict[int, bool]) -> bool:
        """Evaluate under a (total, for f's support) level->bool map."""
        node = f
        while node > ONE:
            level = self._var[node]
            try:
                value = assignment[level]
            except KeyError:
                raise KeyError(
                    f"assignment missing variable level {level}"
                ) from None
            node = self._hi[node] if value else self._lo[node]
        return node == ONE

    def support(self, f: int) -> frozenset[int]:
        """Levels the function actually depends on."""
        seen: set[int] = set()
        levels: set[int] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= ONE or node in seen:
                continue
            seen.add(node)
            levels.add(self._var[node])
            stack.append(self._lo[node])
            stack.append(self._hi[node])
        return frozenset(levels)

    def count_nodes(self, *roots: int) -> int:
        """Number of distinct internal nodes reachable from ``roots``.

        This is the "BDD size" metric of Table 1 (terminals excluded).
        """
        seen: set[int] = set()
        stack = list(roots)
        while stack:
            node = stack.pop()
            if node <= ONE or node in seen:
                continue
            seen.add(node)
            stack.append(self._lo[node])
            stack.append(self._hi[node])
        return len(seen)

    def iter_nodes(self, f: int) -> Iterator[tuple[int, int, int, int]]:
        """Yield reachable internal nodes as ``(id, level, lo, hi)``."""
        seen: set[int] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= ONE or node in seen:
                continue
            seen.add(node)
            yield (node, self._var[node], self._lo[node], self._hi[node])
            stack.append(self._lo[node])
            stack.append(self._hi[node])

    def to_expr_string(self, f: int, names: dict[int, str] | None = None) -> str:
        """Debug rendering as nested ite-expressions (small BDDs only)."""
        if f == ZERO:
            return "false"
        if f == ONE:
            return "true"
        name = (
            names.get(self._var[f], f"x{self._var[f]}")
            if names
            else f"x{self._var[f]}"
        )
        return (
            f"ite({name}, {self.to_expr_string(self._hi[f], names)}, "
            f"{self.to_expr_string(self._lo[f], names)})"
        )
