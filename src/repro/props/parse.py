"""Text parser for the property language.

The grammar (both levels share the connectives ``!`` > ``&`` > ``|``,
tightest first; parentheses group)::

    property  := pterm ('|' pterm)*
    pterm     := pfactor ('&' pfactor)*
    pfactor   := '!' pfactor | '(' property ')' | patom
    patom     := 'deadlock' | 'true' | 'false' | 'safe'
               | 'reachable' '(' predicate ')'
               | 'invariant' '(' predicate ')'

    predicate := term ('|' term)*
    term      := factor ('&' factor)*
    factor    := '!' factor | '(' predicate ')' | atom
    atom      := 'true' | 'false' | 'safe'
               | PLACE | PLACE ('<=' | '>=' | '=' | '==') INT

``safe`` at the property level is sugar for ``invariant(safe)``.  Place
names follow the net formats: letters, digits, ``_``, ``.``, ``'`` and
``-`` (transitions like ``takeR'0`` motivated the apostrophe); the six
keywords are reserved.  Parsing and :meth:`~repro.props.ast.Property.text`
round-trip exactly — the hypothesis suite holds them to it.
"""

from __future__ import annotations

import re

from repro.props.ast import (
    And,
    Bottom,
    Bound,
    Deadlock,
    Invariant,
    Marked,
    Not,
    Or,
    Predicate,
    PropAnd,
    PropFalse,
    PropNot,
    PropOr,
    Property,
    PropertyError,
    PropTrue,
    Reachable,
    Safe,
    Top,
)

__all__ = ["parse_predicate", "parse_property"]

_KEYWORDS = frozenset(
    {"deadlock", "reachable", "invariant", "safe", "true", "false"}
)

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<op><=|>=|==|=)"
    r"|(?P<punct>[()&|!])"
    r"|(?P<int>\d+(?![A-Za-z_.'\-]))"
    r"|(?P<ident>[A-Za-z0-9_][A-Za-z0-9_.'\-]*)"
    r")"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None or match.end() == match.start():
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise PropertyError(
                f"cannot tokenize property at {rest[:20]!r}"
            )
        pos = match.end()
        for kind in ("op", "punct", "int", "ident"):
            value = match.group(kind)
            if value is not None:
                tokens.append((kind, value))
                break
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token plumbing -------------------------------------------------
    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise PropertyError(
                f"unexpected end of property in {self.text!r}"
            )
        self.pos += 1
        return token

    def expect(self, value: str) -> None:
        token = self.peek()
        if token is None or token[1] != value:
            got = token[1] if token is not None else "end of input"
            raise PropertyError(
                f"expected {value!r}, got {got!r} in {self.text!r}"
            )
        self.pos += 1

    def done(self) -> None:
        token = self.peek()
        if token is not None:
            raise PropertyError(
                f"trailing input {token[1]!r} in {self.text!r}"
            )

    # -- property level -------------------------------------------------
    def property_(self) -> Property:
        operands = [self.pterm()]
        while (token := self.peek()) is not None and token[1] == "|":
            self.take()
            operands.append(self.pterm())
        return operands[0] if len(operands) == 1 else PropOr(tuple(operands))

    def pterm(self) -> Property:
        operands = [self.pfactor()]
        while (token := self.peek()) is not None and token[1] == "&":
            self.take()
            operands.append(self.pfactor())
        return operands[0] if len(operands) == 1 else PropAnd(tuple(operands))

    def pfactor(self) -> Property:
        token = self.peek()
        if token is not None and token[1] == "!":
            self.take()
            return PropNot(self.pfactor())
        if token is not None and token[1] == "(":
            self.take()
            inner = self.property_()
            self.expect(")")
            return inner
        return self.patom()

    def patom(self) -> Property:
        kind, value = self.take()
        if kind != "ident":
            raise PropertyError(
                f"expected a property atom, got {value!r} in {self.text!r}"
            )
        if value == "deadlock":
            return Deadlock()
        if value == "true":
            return PropTrue()
        if value == "false":
            return PropFalse()
        if value == "safe":
            return Invariant(Safe())
        if value in ("reachable", "invariant"):
            self.expect("(")
            pred = self.predicate()
            self.expect(")")
            return Reachable(pred) if value == "reachable" else Invariant(pred)
        raise PropertyError(
            f"unknown property atom {value!r} in {self.text!r} "
            "(expected deadlock, reachable(...), invariant(...), safe, "
            "true or false)"
        )

    # -- predicate level ------------------------------------------------
    def predicate(self) -> Predicate:
        operands = [self.term()]
        while (token := self.peek()) is not None and token[1] == "|":
            self.take()
            operands.append(self.term())
        return operands[0] if len(operands) == 1 else Or(tuple(operands))

    def term(self) -> Predicate:
        operands = [self.factor()]
        while (token := self.peek()) is not None and token[1] == "&":
            self.take()
            operands.append(self.factor())
        return operands[0] if len(operands) == 1 else And(tuple(operands))

    def factor(self) -> Predicate:
        token = self.peek()
        if token is not None and token[1] == "!":
            self.take()
            return Not(self.factor())
        if token is not None and token[1] == "(":
            self.take()
            inner = self.predicate()
            self.expect(")")
            return inner
        return self.atom()

    def atom(self) -> Predicate:
        kind, value = self.take()
        if kind not in ("ident", "int"):
            raise PropertyError(
                f"expected a place or constant, got {value!r} in {self.text!r}"
            )
        if value == "true":
            return Top()
        if value == "false":
            return Bottom()
        if value == "safe":
            return Safe()
        if value in _KEYWORDS:
            raise PropertyError(
                f"keyword {value!r} cannot be used as a place name"
            )
        token = self.peek()
        if token is not None and token[0] == "op":
            op = self.take()[1]
            op = "=" if op == "==" else op
            kind, bound = self.take()
            if kind != "int":
                raise PropertyError(
                    f"expected an integer bound after {value!r} {op}, "
                    f"got {bound!r}"
                )
            return Bound(place=value, op=op, k=int(bound))
        return Marked(place=value)


def _check_safe_placement(prop: Property) -> None:
    """``safe`` is only decidable as the whole body of ``invariant``."""

    def bad_pred(pred: Predicate, *, allow_top_level: bool) -> bool:
        if isinstance(pred, Safe):
            return not allow_top_level
        if isinstance(pred, Not):
            return bad_pred(pred.operand, allow_top_level=False)
        if isinstance(pred, (And, Or)):
            return any(
                bad_pred(op, allow_top_level=False) for op in pred.operands
            )
        return False

    def walk(node: Property) -> None:
        if isinstance(node, Invariant):
            if bad_pred(node.pred, allow_top_level=True):
                raise PropertyError(
                    "'safe' may only appear as the entire predicate of "
                    "invariant(safe)"
                )
        elif isinstance(node, Reachable):
            if bad_pred(node.pred, allow_top_level=False):
                raise PropertyError(
                    "'safe' is not allowed inside reachable(...); "
                    "use invariant(safe)"
                )
        elif isinstance(node, PropNot):
            walk(node.operand)
        elif isinstance(node, (PropAnd, PropOr)):
            for operand in node.operands:
                walk(operand)

    walk(prop)


def parse_property(text: str) -> Property:
    """Parse ``text`` into a :class:`~repro.props.ast.Property`.

    Raises :class:`~repro.props.ast.PropertyError` on malformed input.
    """
    if not text or not text.strip():
        raise PropertyError("empty property")
    parser = _Parser(text)
    prop = parser.property_()
    parser.done()
    _check_safe_placement(prop)
    return prop


def parse_predicate(text: str) -> Predicate:
    """Parse ``text`` as a bare marking predicate (no property wrapper)."""
    if not text or not text.strip():
        raise PropertyError("empty predicate")
    parser = _Parser(text)
    pred = parser.predicate()
    parser.done()
    if _contains_safe(pred):
        raise PropertyError(
            "'safe' may only appear as the predicate of invariant(safe)"
        )
    return pred


def _contains_safe(pred: Predicate) -> bool:
    if isinstance(pred, Safe):
        return True
    if isinstance(pred, Not):
        return _contains_safe(pred.operand)
    if isinstance(pred, (And, Or)):
        return any(_contains_safe(op) for op in pred.operands)
    return False
