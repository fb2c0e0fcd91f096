"""Finite linear combinations of canonical words with exact coefficients.

Both algebras of the engine -- graded operator words (`algebra`) and BV
fiber/jet polynomials (`bv`) -- are finite sums  sum_w c_w w  with
`ScalarExpr` coefficients, keyed by canonical word tuples.  This module
holds their one linear structure; the subclasses add only word semantics
(products, parity, printing).

A zero coefficient is never stored, so equality is dictionary equality.
Loops accumulate in place on a plain dict through `add_term` and
`add_into` and wrap it once at the end; `acc = acc + x` would copy the
whole dict on every step.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .scalars import ScalarExpr

_MINUS_ONE = ScalarExpr.rational(-1)


def add_term(acc: dict, key, c: ScalarExpr) -> None:
    """acc[key] += c in place; a cancelled or zero entry is dropped."""
    old = acc.get(key)
    if old is None:
        if not c.is_zero():
            acc[key] = c
        return
    s = old + c
    if s.is_zero():
        del acc[key]
    else:
        acc[key] = s


def add_into(acc: dict, terms: Mapping) -> None:
    """Add every (key, coefficient) of ``terms`` into ``acc`` in place."""
    for key, c in terms.items():
        add_term(acc, key, c)


class LinearCombination:
    """Immutable finite sum of words (tuples) with nonzero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, ScalarExpr] | None = None):
        clean = {w: c for w, c in (terms or {}).items() if not c.is_zero()}
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _wrap(cls, terms: dict):
        """Adopt a dict that already holds no zero coefficient."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", terms)
        return out

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls):
        return cls._wrap({})

    @classmethod
    def unit(cls, coeff: ScalarExpr | None = None):
        """coeff (default 1) times the empty word."""
        return cls({(): coeff if coeff is not None else ScalarExpr.one()})

    @classmethod
    def sum(cls, parts: Iterable["LinearCombination"]):
        acc: dict = {}
        for p in parts:
            add_into(acc, p.terms)
        return cls._wrap(acc)

    def __add__(self, other):
        acc = dict(self.terms)
        add_into(acc, other.terms)
        return self._wrap(acc)

    def __sub__(self, other):
        return self + other.scale(_MINUS_ONE)

    def __neg__(self):
        return self.scale(_MINUS_ONE)

    def scale(self, s: ScalarExpr):
        return type(self)({w: c * s for w, c in self.terms.items()})

    def map_coeff(self, fn):
        return type(self)({w: fn(c) for w, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((w, hash(c)) for w, c in self.terms.items()))

    @property
    def n_terms(self) -> int:
        return len(self.terms)
