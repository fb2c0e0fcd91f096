"""Finite linear combinations of canonical words with exact coefficients.

Both algebras of the engine -- graded operator words (`algebra`) and BV
fiber/jet polynomials (`bv`) -- are finite sums  sum_w c_w w  with
`ScalarExpr` coefficients, keyed by canonical word tuples.  This module
holds their one linear structure and their one Z2-graded word rule:
canonical order, Koszul signs and (for operator words) Wick contractions
all come from `canonical_terms`, and `merge_splice` is the same rule
for a canonical word spliced into a canonical word (the fiber layer's
derivations), without the re-sort.  A letter provides only `sort_key()`,
which must be injective, and `parity` (0 or 1); both letter classes
derive from `Letter`, which interns them.  `Letter` and
`LinearCombination` derive from `scalars.Frozen`, the base of the
engine's immutable values.

A zero coefficient is never stored, so equality is dictionary equality.
Loops accumulate in place on a plain dict through `add_term` and
`add_into` and wrap it once at the end; `acc = acc + x` would copy the
whole dict on every step.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Mapping

from .scalars import Frozen, ScalarExpr

_MINUS_ONE = ScalarExpr.rational(-1)


class Letter(Frozen):
    """Base of the interned word letters (`algebra.OpGen`, `bv.FiberCoord`).

    Letters are hash-consed (Filliatre and Conchon, "Type-safe modular
    hash-consing", 2006): a subclass's ``__new__`` returns the one object
    per (class, field values) from its table.  So equality and hash both
    come from identity (``object.__eq__`` and ``object.__hash__``), and
    hashing a word tuple, the fiber and operator layers' hot path, stays
    in C.  The parity and the sort key are stored.  A subclass names its
    field values in ``__match_args__``, which are also its slots; a copy
    or an unpickled letter goes back through the table.
    """

    __slots__ = ("_key", "parity")

    # a letter comes whole from ``__new__``: no Python-level constructor,
    # and no field-wise equality, which would take word hashing out of C
    __init__ = object.__init__
    __eq__, __hash__ = object.__eq__, object.__hash__

    @classmethod
    def _interned(cls, table: dict, values: tuple, parity: int, sort_key: tuple):
        """Build ``cls(*values)``, already validated, and enter it in
        ``table`` under ``(cls, *values)``."""
        self = object.__new__(cls)
        for name, v in zip(cls.__match_args__, values):
            object.__setattr__(self, name, v)
        object.__setattr__(self, "_key", sort_key)
        object.__setattr__(self, "parity", parity)
        table[(cls, *values)] = self
        return self

    def sort_key(self) -> tuple:
        return self._key


def add_term(acc: dict, key, c: ScalarExpr) -> None:
    """acc[key] += c in place; a cancelled or zero entry is dropped."""
    old = acc.get(key)
    if old is None:
        if c.terms:
            acc[key] = c
        return
    s = old + c
    if s.terms:
        acc[key] = s
    else:
        del acc[key]


def add_into(acc: dict, terms: Mapping) -> None:
    """Add every (key, coefficient) of ``terms`` into ``acc`` in place."""
    for key, c in terms.items():
        add_term(acc, key, c)


def canonical_terms(word: tuple, contract=None) -> list:
    """The word in canonical order, as a list of (factor, canonical word).

    The word is insertion-sorted on keys computed once, resolving the
    leftmost inversion first; each swap of two odd letters flips the sign
    of the factor.  With a ``contract(left, right)`` callback, an inverted
    pair whose contraction is not None first branches into the word
    without the pair, weighted by the contraction (Wick's rule); that
    branch's terms come before the swapped word's.  A sorted word that
    repeats an odd letter is zero and yields no term.  The factor is an
    int, since a contraction is an integer sign.
    """
    out: list = []
    _insertion_sort(list(word), [g.sort_key() for g in word], 1, 1,
                    contract, out)
    return out


def _insertion_sort(w: list, keys: list, start: int, factor, contract,
                    out: list) -> None:
    """Sort w[start:] into the sorted prefix w[:start]; append to out."""
    for i in range(start, len(w)):
        j = i
        while j and keys[j - 1] > keys[j]:
            left, right = w[j - 1], w[j]
            if contract is not None:
                c = contract(left, right)
                if c is not None:
                    # w without the pair keeps a sorted prefix of length i - 1
                    _insertion_sort(w[:j - 1] + w[j + 1:],
                                    keys[:j - 1] + keys[j + 1:], i - 1,
                                    factor * c, contract, out)
            if left.parity and right.parity:
                factor = -factor
            w[j - 1], w[j] = right, left
            keys[j - 1], keys[j] = keys[j], keys[j - 1]
            j -= 1
    for k in range(len(w) - 1):
        if keys[k] == keys[k + 1] and w[k].parity:
            return
    out.append((factor, tuple(w)))


def merge_splice(rem: tuple, keys: list, j: int, u: tuple):
    """(sign, word) of the canonical word ``rem[:j] + u + rem[j:]``, or None
    when it is zero: for canonical ``rem`` and ``u`` this equals the one
    term of ``canonical_terms(rem[:j] + u + rem[j:])``.  ``keys`` are the
    sort keys of ``rem``.

    Each letter of u is inserted into the remainder by bisection, left of
    an equal key.  The letters of u keep their order, so the only odd
    swaps are those of an odd letter x of u with the odd remainder letters
    it crosses: head letters rem[:j] with a larger key and tail letters
    rem[j:] with a smaller one.  An odd letter already in the remainder
    makes the word zero.
    """
    if len(u) == 1:
        x = u[0]
        p = bisect_left(keys, x._key)
        if not x.parity:
            return 1, rem[:p] + u + rem[p:]
        if p < len(keys) and keys[p] == x._key:
            return None
        odd = 0
        for g in (rem[p:j] if p < j else rem[j:p]):
            odd ^= g.parity
        return (-1 if odd else 1), rem[:p] + u + rem[p:]
    odd = 0
    lo = 0
    out: list = []
    for x in u:
        k = x._key
        p = bisect_left(keys, k, lo)
        if x.parity:
            if p < len(keys) and keys[p] == k:
                return None
            for g in (rem[p:j] if p < j else rem[j:p]):
                odd ^= g.parity
        out += rem[lo:p]
        out.append(x)
        lo = p
    out += rem[lo:]
    return (-1 if odd else 1), tuple(out)


class LinearCombination(Frozen):
    """Immutable finite sum of words (tuples) with nonzero coefficients."""

    __slots__ = __match_args__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, ScalarExpr] | None = None):
        clean = {w: c for w, c in (terms or {}).items() if not c.is_zero()}
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _wrap(cls, terms: dict):
        """Adopt a dict that already holds no zero coefficient."""
        out = object.__new__(cls)
        object.__setattr__(out, "terms", terms)
        return out

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

    def __hash__(self):
        # the terms are a dict: hash them as a set of (word, hash) pairs
        return hash(frozenset((w, hash(c)) for w, c in self.terms.items()))

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def product(self, other, contract=None):
        """Sum over word pairs of c1 c2 canonical_terms(w1 + w2, contract)."""
        acc: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                terms = canonical_terms(w1 + w2, contract)
                if terms:
                    c12 = c1 * c2
                    for f, w in terms:
                        add_term(acc, w, c12 if f > 0 else -c12)
        return self._wrap(acc)

    def parity(self) -> str:
        """'even', 'odd' or 'mixed' by total letter parity; zero is even."""
        seen = {sum(g.parity for g in w) % 2 for w in self.terms}
        if len(seen) > 1:
            return "mixed"
        return "odd" if seen == {1} else "even"

    def __iter__(self):
        """(word, coefficient) pairs, words in lexicographic key order."""
        return iter(sorted(self.terms.items(),
                           key=lambda wc: tuple(g.sort_key() for g in wc[0])))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({c!r})·{'·'.join(map(repr, w)) if w else '1'}"
                          for w, c in self)
