"""Exact scalar coefficients for the graded-operator engine.

A :class:`ScalarExpr` is a finite sum of terms

    coefficient * (formal symbols) * (plane-wave phase)

where the coefficient is a Gaussian rational (complex number with rational
real and imaginary parts).  All arithmetic is exact: no floats enter until
:func:`evaluate` is called.  Every expression is normalised on construction,
so two expressions are mathematically equal in the supported fragment iff
their term dictionaries compare equal.  Momentum deltas need no factor of
their own: a contraction of two generators compares their mode ids, and
the lattice spatial delta is a sum of phases (``fields.delta_lattice``).

Symbols come in four flavours, encoded in the term key:

``('sym', name)``
    a plain named symbol such as the gauge parameter ``xi`` or the mass
    ``m``.
``('rad', d)``
    the square root of the squarefree integer ``d > 1``; pairs reduce to
    the integer ``d``.
``('wgt', r)``
    the mode weight ``(2*sqrt(r))**-1/2`` for a non-square rational
    ``r = m**2 + |p|**2``; its square reduces to ``sqrt(1/r)/2``.
``('kw', m, r)``
    the spinor-boost prefactor ``(2*m*(sqrt(r)+m))**-1/2``; its square
    reduces to ``(sqrt(r)-m) / (2*m*(r-m**2))``.

The last two exist so that half-integer powers never require a general
radical engine: whenever two field factors meet in a bracket or an
integrated density, the weights pair up and the squares collapse to exact
rationals (possibly times a single ``rad``).

Phases are kept unevaluated.  The exponent of a phase is ``i`` times a
formal linear expression in time symbols, spatial vector symbols and a
constant, with coefficients in Q + Q*sqrt(d) (on-shell energies are
generally irrational).  Equality of phases is syntactic on this exponent.

Constants are hash-consed, like the term keys.  The module keeps one
expression per constant value, in a table keyed by its reduced triple:
``gaussian``, ``rational``, ``one`` and ``zero`` return it, and so does
every operation of this module whose result is a constant; a result that
cancels is the one zero expression.  Almost every coefficient of the fiber
layer is such a constant.  Each interned constant carries two memo tables
of its own, its sums and its products with other interned constants, keyed
by the other operand's ``id``, so ``ScalarExpr`` ``+`` and ``*`` of two
constants met before are one dict lookup and hash no triple.
``GaussianRational`` ``+``, ``-`` and ``*`` are memoized in two tables
keyed by the pair of operand triples, so a repeated one takes no gcd.  The
tables have no size bound: they hold only the distinct constants, sums and
products a process meets, and the coefficients of a finite lattice and a
fixed Lie algebra are few.  A default ``verify`` of all eight suites
leaves 243 constants, 476 products and 385 sums of triples, and 879
product and 581 sum entries in the constants' own tables (a pair is
entered under both operands); the same run with the su3 algebra leaves
255, 528, 463, 980 and 752.

Rationals inside term keys are canonical (``_rat``): a phase's x-vector
components and ``qsum`` coefficients, the arguments of the ``wgt`` and
``kw`` symbols, and ``ModeIndex.momentum`` are ``int`` when integral and
``Fraction`` otherwise, whichever type they were built from.  Since
``2 == Fraction(2)`` with equal hashes and order, this changes no key,
interning or term order; it only spares ``Fraction`` hashing and gcd
arithmetic, so a lattice of integer momenta hashes almost no
``Fraction`` at all.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

Rational = Union[int, Fraction]


class ScalarError(Exception):
    pass


class UnboundSymbolError(ScalarError):
    """A formal symbol had no numeric binding during evaluation."""


class NonIntegrablePhaseError(ScalarError):
    """A spatial integral met a phase in a foreign position variable."""


def _frac(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _rat(x: Rational) -> Rational:
    """The canonical form of a rational in a term key or a mode: an ``int``
    when integral, else a ``Fraction``."""
    if type(x) is int:
        return x
    x = _frac(x)
    return x.numerator if x.denominator == 1 else x


def _squarefree(n: int) -> tuple[int, int]:
    """Return (a, d) with n = a*a*d and d squarefree, for n > 0."""
    a, d = 1, 1
    i = 2
    while i * i <= n:
        if n % i == 0:
            cnt = 0
            while n % i == 0:
                n //= i
                cnt += 1
            a *= i ** (cnt // 2)
            if cnt % 2:
                d *= i
        i += 1
    return a, d * n


def canonical_sqrt(q: Rational) -> tuple[Fraction, int]:
    """Write sqrt(q) = c*sqrt(d) with d squarefree; q must be >= 0."""
    q = _frac(q)
    if q < 0:
        raise ScalarError(f"square root of negative rational {q}")
    if q == 0:
        return Fraction(0), 1
    a, d = _squarefree(q.numerator * q.denominator)
    return Fraction(a, q.denominator), d


class Frozen:
    """Base of the engine's immutable values.  The one rule: assignment and
    deletion of an attribute raise, and a copy or an unpickled value goes
    back through the constructor, or through the intern table where the
    class hash-conses its values.  A subclass names its constructor's
    arguments, in order, in ``__match_args__``, from which ``__reduce__``
    rebuilds it; an interned class overrides ``__reduce__`` to return the
    interned value.  A constructor sets its fields with
    ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)


class GaussianRational(Frozen):
    """Complex number with exact rational real and imaginary parts.

    Stored as one integer triple ``(a, b, den)`` meaning ``(a + b*i)/den``,
    with ``den > 0`` and ``gcd(a, b, den) = 1``.  Each value has exactly one
    triple, so equality is triple equality.  A sum or product takes one gcd
    the first time its pair of operand triples is met, and none after.
    """

    __slots__ = ("_t",)

    def __init__(self, re: Rational = 0, im: Rational = 0):
        if type(re) is int and type(im) is int:
            t = (re, im, 1)
        else:
            re, im = _frac(re), _frac(im)
            p, q = re.denominator, im.denominator
            den = p // math.gcd(p, q) * q
            t = (re.numerator * (den // p), im.numerator * (den // q), den)
        object.__setattr__(self, "_t", t)

    def __reduce__(self):
        # the triple is reduced already: the copy skips the constructor's gcd
        return _adopt, (self._t,)

    @property
    def re(self) -> Fraction:
        return Fraction(self._t[0], self._t[2])

    @property
    def im(self) -> Fraction:
        return Fraction(self._t[1], self._t[2])

    def __add__(self, other) -> "GaussianRational":
        try:
            t = other._t
        except AttributeError:
            t = _triple(other)
            if t is None:
                return NotImplemented
        key = (self._t, t)
        s = _CONST_SUM.get(key)
        if s is None:
            s = _memo(_CONST_SUM, key, _triple_sum(*key))
        return s

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianRational":
        try:
            a2, b2, d2 = other._t
        except AttributeError:
            t = _triple(other)
            if t is None:
                return NotImplemented
            a2, b2, d2 = t
        key = (self._t, (-a2, -b2, d2))
        s = _CONST_SUM.get(key)
        if s is None:
            s = _memo(_CONST_SUM, key, _triple_sum(*key))
        return s

    def __mul__(self, other) -> "GaussianRational":
        t = other._t if type(other) is GaussianRational else _triple(other)
        if t is None:
            return NotImplemented
        key = (self._t, t)
        p = _CONST_PRODUCT.get(key)
        if p is None:
            p = _memo(_CONST_PRODUCT, key, _triple_product(*key))
        return p

    __rmul__ = __mul__

    def __truediv__(self, other) -> "GaussianRational":
        t = _triple(other)
        if t is None:
            return NotImplemented
        a2, b2, d2 = t
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        a1, b1, d1 = self._t
        # (a1 + b1*i)/d1 * d2*(a2 - b2*i)/n
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, d1 * n)

    def __neg__(self) -> "GaussianRational":
        a, b, den = self._t
        return _adopt((-a, -b, den))

    def conjugate(self) -> "GaussianRational":
        a, b, den = self._t
        return _adopt((a, -b, den))

    def is_zero(self) -> bool:
        return self._t[0] == 0 and self._t[1] == 0

    def __eq__(self, other) -> bool:
        t = _triple(other)
        if t is None:
            return NotImplemented
        return self._t == t

    def __hash__(self):
        a, b, den = self._t
        if b:
            return hash(self._t)
        # a real value hashes like the equal int or Fraction
        return hash(a if den == 1 else Fraction(a, den))

    def __complex__(self) -> complex:
        a, b, den = self._t
        return complex(a / den, b / den)

    def __repr__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"({re}{sign}{abs(im)}i)"


def _adopt(t: tuple) -> GaussianRational:
    """Wrap a triple that is already reduced."""
    out = object.__new__(GaussianRational)
    object.__setattr__(out, "_t", t)
    return out


def _reduced(a: int, b: int, den: int) -> GaussianRational:
    """(a + b*i)/den for integers with den > 0, reduced by one gcd."""
    g = math.gcd(a, b, den)
    if g != 1:
        a, b, den = a // g, b // g, den // g
    return _adopt((a, b, den))


def _triple_sum(t1: tuple, t2: tuple) -> GaussianRational:
    """The sum of two reduced triples, by one gcd."""
    a1, b1, d1 = t1
    a2, b2, d2 = t2
    if d1 == d2:
        return _reduced(a1 + a2, b1 + b2, d1)
    return _reduced(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def _triple_product(t1: tuple, t2: tuple) -> GaussianRational:
    """The product of two reduced triples, by one gcd."""
    a1, b1, d1 = t1
    a2, b2, d2 = t2
    return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)


# Memo tables of `GaussianRational` arithmetic, keyed by the pair of
# operand triples.  They hold every sum and product of two values the
# process has formed, as the value object of the interned constant.
_CONST_SUM: dict[tuple, GaussianRational] = {}
_CONST_PRODUCT: dict[tuple, GaussianRational] = {}


def _memo(table: dict, key: tuple, value: GaussianRational) -> GaussianRational:
    """Enter ``value``, the sum or product of the triples in ``key``, as the
    value object of its interned expression."""
    v = table[key] = _constant(value._t).terms.get(_CONST, GR_ZERO)
    return v


def _triple(x) -> tuple | None:
    """The reduced triple of a GaussianRational, int or Fraction."""
    if isinstance(x, GaussianRational):
        return x._t
    if isinstance(x, int):
        return (x, 0, 1)
    if isinstance(x, Fraction):
        return (x.numerator, 0, x.denominator)
    return None


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


# --- linear combinations over Q of sqrt(d), used in phase exponents ---

QSum = tuple  # tuple[(d: int, c: Rational)], sorted by d, c != 0, c canonical


def qsum(pairs: Iterable[tuple[int, Rational]]) -> QSum:
    acc: dict[int, Rational] = {}
    for d, c in pairs:
        acc[d] = acc.get(d, 0) + _rat(c)
    return tuple(sorted((d, _rat(c)) for d, c in acc.items() if c != 0))


def qsum_add(a: QSum, b: QSum) -> QSum:
    return qsum(list(a) + list(b))


def qsum_neg(a: QSum) -> QSum:
    return tuple((d, -c) for d, c in a)


def qsum_scale(a: QSum, s: Rational) -> QSum:
    s = _rat(s)
    if s == 0:
        return ()
    return tuple((d, _rat(c * s)) for d, c in a)


def qsum_float(a: QSum) -> float:
    return sum(float(c) * math.sqrt(d) for d, c in a)


def qsum_sqrt(q: Rational) -> QSum:
    """sqrt(q) as a QSum (exact)."""
    c, d = canonical_sqrt(q)
    return qsum([(d, c)])


# --- term keys ---------------------------------------------------------

# A term key is the pair (syms, phase):
# syms:    tuple of ((kind, ...), exponent) sorted
# phase:   tuple of ((key, value)) sorted,
#          key = ('c',) | ('t', name) | ('x', name)
#          value = QSum for 'c'/'t', a triple of rationals for 'x';
#          every rational in canonical form (`_rat`)

Term = tuple


class _Key(tuple):
    """A hash-consed term key (Filliâtre and Conchon, "Type-safe modular
    hash-consing", 2006).  :func:`_intern` keeps one object per distinct
    ``(syms, phase)``, so dict lookups of interned keys succeed on
    identity, and the hash is the plain tuple's hash, computed once: without
    the cache every lookup rehashes the Fractions nested in the phase and
    weight symbols."""

    def __new__(cls, t: tuple) -> "_Key":
        self = tuple.__new__(cls, t)
        self._h = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._h

    def __reduce__(self):
        # a copied or unpickled key is the interned one, its hash recomputed
        return _intern, (tuple(self),)


# The key of a pure coefficient, the only key of every rational constant,
# stays a plain tuple: its C-level hash of two empty tuples is cheaper
# than the Python-level call that returns a cached hash.
_CONST: Term = ((), ())
_KEYS: dict[Term, Term] = {_CONST: _CONST}


def _intern(t: tuple) -> Term:
    """The one key object equal to the term key ``t``; every key this
    module builds passes through here."""
    k = _KEYS.get(t)
    if k is None:
        k = _Key(t)
        _KEYS[k] = k
    return k


def sym_key(name: str) -> tuple:
    return ("sym", name)


def _phase_normal(entries: Iterable[tuple]) -> tuple:
    acc: dict = {}
    for key, val in entries:
        if key[0] == "x":
            cur = acc.get(key, (0, 0, 0))
            acc[key] = tuple(_rat(a + b) for a, b in zip(cur, val))
        else:
            acc[key] = qsum_add(acc.get(key, ()), val)
    out = []
    for key, val in acc.items():
        if key[0] == "x":
            if any(v != 0 for v in val):
                out.append((key, val))
        elif val:
            out.append((key, val))
    return tuple(sorted(out))


def _phase_mul(p1: tuple, p2: tuple) -> tuple:
    if not p1:
        return p2
    if not p2:
        return p1
    return _phase_normal(list(p1) + list(p2))


def _phase_neg(p: tuple) -> tuple:
    out = []
    for key, val in p:
        if key[0] == "x":
            out.append((key, tuple(-v for v in val)))
        else:
            out.append((key, qsum_neg(val)))
    return tuple(sorted(out))


def _square_value(key: tuple) -> "ScalarExpr":
    """The exact value of symbol**2 for the reducible symbol kinds."""
    kind = key[0]
    if kind == "wgt":
        r = key[1]
        # (2*sqrt(r))**-1 = sqrt(1/r)/2
        c, d = canonical_sqrt(Fraction(1) / r)
        return ScalarExpr.radical(d) * ScalarExpr.rational(c / 2)
    if kind == "kw":
        m, r = key[1], key[2]
        # 1/(2m(sqrt(r)+m)) = (sqrt(r)-m) / (2m(r-m**2))
        den = 2 * m * (r - m * m)
        c, d = canonical_sqrt(r)
        return (ScalarExpr.radical(d) * ScalarExpr.rational(c) - ScalarExpr.rational(m)) * ScalarExpr.rational(Fraction(1) / den)
    raise ScalarError(f"symbol {key} has no defined square")


class ScalarExpr(Frozen):
    """Canonical-form exact scalar expression."""

    __slots__ = ("terms",)

    # The memo tables of an interned constant (`_Constant`); every other
    # expression has none.
    _sums = None
    _products = None

    def __init__(self, terms: Mapping[Term, GaussianRational] | None = None, _raw=False):
        """``_raw=True`` adopts ``terms``: a fresh dict already in canonical form."""
        if terms is None:
            object.__setattr__(self, "terms", {})
        elif _raw:
            object.__setattr__(self, "terms", terms)
        else:
            object.__setattr__(self, "terms", _normalize(terms))

    def __reduce__(self):
        # a copied or unpickled constant is the interned one
        return _wrap, (dict(self.terms),)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "ScalarExpr":
        return _ZERO

    @staticmethod
    def one() -> "ScalarExpr":
        return _ONE

    @staticmethod
    def rational(x: Rational) -> "ScalarExpr":
        if type(x) is int:
            return _constant((x, 0, 1))
        f = _frac(x)
        return _constant((f.numerator, 0, f.denominator))

    @staticmethod
    def gaussian(c: GaussianRational | Rational) -> "ScalarExpr":
        """The constant c, a GaussianRational, int or Fraction."""
        t = _triple(c)
        if t is None:
            raise TypeError("expected GaussianRational, int or Fraction, "
                            f"got {type(c).__name__}")
        return _constant(t)

    @staticmethod
    def i() -> "ScalarExpr":
        return _I

    @staticmethod
    def symbol(name: str) -> "ScalarExpr":
        return _monomial(((sym_key(name), 1),), ())

    @staticmethod
    def radical(d: int) -> "ScalarExpr":
        """sqrt(d) for a squarefree integer d >= 1."""
        if d == 1:
            return _ONE
        return _monomial(((("rad", d), 1),), ())

    @staticmethod
    def sqrt_rational(q: Rational) -> "ScalarExpr":
        """Exact sqrt of a nonnegative rational."""
        c, d = canonical_sqrt(q)
        if c == 0:
            return _ZERO
        return ScalarExpr.radical(d) * ScalarExpr.rational(c)

    @staticmethod
    def energy(r: Rational) -> "ScalarExpr":
        """sqrt(r) where r = m**2 + |p|**2; exact, rational when possible."""
        return ScalarExpr.sqrt_rational(r)

    @staticmethod
    def mode_weight(r: Rational) -> "ScalarExpr":
        """(2*E)**-1/2 with E = sqrt(r): the per-mode field weight."""
        r = _frac(r)
        if r <= 0:
            raise ScalarError("mode weight needs positive energy squared")
        c, d = canonical_sqrt(r)
        if d == 1:
            return ScalarExpr.sqrt_rational(Fraction(1) / (2 * c))
        return _monomial(((("wgt", _rat(r)), 1),), ())

    @staticmethod
    def boost_weight(m: Rational, r: Rational) -> "ScalarExpr":
        """(2*m*(E+m))**-1/2 with E = sqrt(r): the spinor boost prefactor."""
        m, r = _frac(m), _frac(r)
        c, d = canonical_sqrt(r)
        if d == 1:
            return ScalarExpr.sqrt_rational(Fraction(1) / (2 * m * (c + m)))
        return _monomial(((("kw", _rat(m), _rat(r)), 1),), ())

    @staticmethod
    def phase(entries: Iterable[tuple]) -> "ScalarExpr":
        """exp(i * (linear form)) from (key, value) entries."""
        return _monomial((), _phase_normal(entries))

    @staticmethod
    def sum(parts: Iterable["ScalarExpr"]) -> "ScalarExpr":
        """The sum of ``parts``, accumulated in place on one dict."""
        acc: dict[Term, GaussianRational] = {}
        for part in parts:
            _add_into(acc, part.terms)
        return _wrap(acc)

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "ScalarExpr") -> "ScalarExpr":
        sums = self._sums
        if sums is not None:
            s = sums.get(id(other))
            if s is not None:
                return s
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        st, ot = self.terms, other.terms
        if not st:
            s = other
        elif not ot:
            s = self
        else:
            acc = dict(st)
            _add_into(acc, ot)
            s = _wrap(acc)
        if sums is not None and other._sums is not None:
            sums[id(other)] = other._sums[id(self)] = s
        return s

    def __sub__(self, other: "ScalarExpr") -> "ScalarExpr":
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "ScalarExpr":
        st = self.terms
        if len(st) == 1 and _CONST in st:
            a, b, den = st[_CONST]._t
            return _constant((-a, -b, den))
        return _wrap({t: -c for t, c in st.items()})

    def __mul__(self, other) -> "ScalarExpr":
        products = self._products
        if products is not None:
            p = products.get(id(other))
            if p is not None:
                return p
        # A constant factor scales the coefficients of the other operand.
        if not isinstance(other, ScalarExpr):
            if isinstance(other, (int, Fraction, GaussianRational)):
                return _scaled(self, other)
            return NotImplemented
        st, ot = self.terms, other.terms
        if len(ot) == 1 and _CONST in ot:
            p = _scaled(self, ot[_CONST])
        elif len(st) == 1 and _CONST in st:
            p = _scaled(other, st[_CONST])
        else:
            # Merge coefficients on the raw product key first, then expand
            # each raw key last-first: the order in which _normalize visits
            # them, so the terms come out in the same order.
            raw: dict[Term, GaussianRational] = {}
            for k1, c1 in st.items():
                for k2, c2 in ot.items():
                    key = _PRODUCT.get((k1, k2))
                    if key is None:
                        key = _memo_product(k1, k2)
                    c = c1 * c2
                    prev = raw.get(key)
                    raw[key] = c if prev is None else prev + c
            out: dict[Term, GaussianRational] = {}
            for key, c in reversed(raw.items()):
                if c.is_zero():
                    continue
                for term, f in _EXPANSION[key]:
                    cf = c if f is GR_ONE else c * f
                    prev = out.get(term)
                    s = cf if prev is None else prev + cf
                    if s.is_zero():
                        del out[term]
                    else:
                        out[term] = s
            return _wrap(out)
        if products is not None and other._products is not None:
            products[id(other)] = other._products[id(self)] = p
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ScalarExpr":
        if n < 0:
            raise ScalarError("negative powers are not supported")
        out = _ONE
        for _ in range(n):
            out = out * self
        return out

    def conjugate(self) -> "ScalarExpr":
        """Complex conjugation; formal symbols are treated as real."""
        acc: dict[Term, GaussianRational] = {}
        for (s, p), c in self.terms.items():
            acc[_intern((s, _phase_neg(p)))] = c.conjugate()
        return _wrap(acc)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    # -- calculus on phases and symbols ----------------------------------

    def d_dt(self, tname: str) -> "ScalarExpr":
        """Derivative along the time symbol (phases only)."""
        acc: dict[Term, GaussianRational] = {}
        tkey = ("t", tname)
        for key, c in self.terms.items():
            coeff = dict(key[1]).get(tkey)
            if not coeff:
                continue
            # multiply by i * (sum of c_d * sqrt(d))
            factor = ScalarExpr(
                {(((("rad", dd), 1),) if dd != 1 else (), ()):
                 GaussianRational(0, cc) for dd, cc in coeff})
            _add_into(acc, (ScalarExpr({key: c}, _raw=True) * factor).terms)
        return _wrap(acc)

    def d_dx(self, xname: str, j: int) -> "ScalarExpr":
        """Derivative along component j of the spatial symbol (phases only)."""
        acc: dict[Term, GaussianRational] = {}
        xkey = ("x", xname)
        for key, c in self.terms.items():
            vec = dict(key[1]).get(xkey)
            if vec is None or vec[j] == 0:
                continue
            acc[key] = c * GaussianRational(0, vec[j])  # keys stay distinct
        return _wrap(acc)

    def partial_symbol(self, name: str) -> "ScalarExpr":
        """d/d(name) for a plain named symbol."""
        key = sym_key(name)
        acc: dict[Term, GaussianRational] = {}
        for (s, p), c in self.terms.items():
            sdict = dict(s)
            e = sdict.get(key, 0)
            if not e:
                continue
            if e == 1:
                del sdict[key]
            else:
                sdict[key] = e - 1
            term = _intern((tuple(sorted(sdict.items())), p))
            prev = acc.get(term, GR_ZERO)
            acc[term] = prev + c * e
        return _wrap(acc)

    def translate_space(self, xname: str, shift_name: str) -> "ScalarExpr":
        """Substitute x -> x + a, with a the named shift vector symbol."""
        acc: dict[Term, GaussianRational] = {}
        for key, c in self.terms.items():
            s, p = key
            vec = dict(p).get(("x", xname))
            if vec is None:
                acc[key] = acc.get(key, GR_ZERO) + c
                continue
            newp = _phase_normal(list(p) + [(("x", shift_name), vec)])
            t = _intern((s, newp))
            acc[t] = acc.get(t, GR_ZERO) + c
        return _wrap(acc)

    def spatial_integrate(self, xname: str) -> "ScalarExpr":
        """Integrate over the spatial symbol: lattice plane waves are
        orthonormal, so a term survives iff its x-coefficient vanishes.
        A surviving phase on any other position raises."""
        acc: dict[Term, GaussianRational] = {}
        for key, c in self.terms.items():
            pd = dict(key[1])
            if ("x", xname) in pd:
                continue
            for pkey in pd:
                if pkey[0] == "x":
                    raise NonIntegrablePhaseError(
                        f"phase depends on foreign position {pkey[1]!r}")
            acc[key] = acc.get(key, GR_ZERO) + c
        return _wrap(acc)

    def by_position(self, xname: str) -> dict:
        """The terms grouped by their x-vector on the spatial symbol
        ``xname`` (None for a term without one), as {vector: ScalarExpr};
        groups and their terms keep the order of ``self``."""
        xkey = ("x", xname)
        groups: dict = {}
        for key, c in self.terms.items():
            v = None
            for pkey, val in key[1]:
                if pkey == xkey:
                    v = val
                    break
            g = groups.get(v)
            if g is None:
                groups[v] = {key: c}
            else:
                g[key] = c
        if len(groups) == 1:
            return {v: self}
        return {v: _wrap(g) for v, g in groups.items()}

    def has_time_dependence(self) -> bool:
        for (_, p) in self.terms:
            for key, _ in p:
                if key[0] == "t":
                    return True
        return False

    # -- numeric evaluation ----------------------------------------------

    def evaluate(self, bindings: Mapping | None = None) -> complex:
        bindings = bindings or {}
        total = 0j
        for (s, p), c in self.terms.items():
            val = complex(c)
            for key, e in s:
                kind = key[0]
                if kind == "rad":
                    base = math.sqrt(key[1])
                elif kind == "wgt":
                    base = (2.0 * math.sqrt(key[1])) ** -0.5
                elif kind == "kw":
                    m, r = float(key[1]), float(key[2])
                    base = (2.0 * m * (math.sqrt(r) + m)) ** -0.5
                else:
                    name = key[1]
                    if name not in bindings:
                        raise UnboundSymbolError(f"no binding for symbol {name!r}")
                    base = bindings[name]
                val *= base ** e
            theta = 0.0
            for key, v in p:
                if key[0] == "c":
                    theta += qsum_float(v)
                elif key[0] == "t":
                    if key[1] not in bindings:
                        raise UnboundSymbolError(f"no binding for time {key[1]!r}")
                    theta += qsum_float(v) * float(bindings[key[1]])
                else:
                    if key[1] not in bindings:
                        raise UnboundSymbolError(f"no binding for position {key[1]!r}")
                    xv = bindings[key[1]]
                    theta += sum(float(a) * float(b) for a, b in zip(v, xv))
            total += val * cmath.exp(1j * theta)
        return total

    # -- display -----------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (s, p), c in sorted(self.terms.items()):
            bits = [repr(c)]
            for key, e in s:
                bits.append(_sym_str(key) + (f"^{e}" if e != 1 else ""))
            if p:
                bits.append(_phase_str(p))
            parts.append("·".join(bits))
        return " + ".join(parts)


def _add_into(acc: dict, terms: Mapping[Term, GaussianRational]) -> None:
    """acc += terms in place; a cancelled entry is dropped."""
    for t, c in terms.items():
        prev = acc.get(t)
        if prev is None:
            acc[t] = c
            continue
        s = prev + c
        if s.is_zero():
            del acc[t]
        else:
            acc[t] = s


def _scaled(e: ScalarExpr, k) -> ScalarExpr:
    """e times the constant k.  A nonzero constant keeps every term key
    canonical and every coefficient nonzero, so no _normalize is needed."""
    kt = k._t if type(k) is GaussianRational else _triple(k)
    if kt == _ZERO_T:
        return _ZERO
    if kt == _ONE_T:
        return e
    return _wrap({t: c * k for t, c in e.terms.items()})


def _wrap(terms: dict) -> ScalarExpr:
    """Adopt ``terms``, a fresh dict in canonical form; a constant or zero
    result is the interned expression."""
    if len(terms) < 2:
        if not terms:
            return _ZERO
        c = terms.get(_CONST)
        if c is not None:
            return _constant(c._t)
    return ScalarExpr(terms, _raw=True)


class _Constant(ScalarExpr):
    """An interned constant, with its memo tables of sums and products with
    other interned constants, keyed by the other operand's ``id``.  An id
    names one constant for the life of the process, since ``_CONSTANTS``
    keeps every interned constant alive."""

    __slots__ = ("_sums", "_products")

    def __init__(self, terms: dict):
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_sums", {})
        object.__setattr__(self, "_products", {})


def _constant(t: tuple) -> ScalarExpr:
    """The one expression of the constant with the reduced triple ``t``."""
    e = _CONSTANTS.get(t)
    if e is None:
        e = _CONSTANTS[t] = _Constant({_CONST: _adopt(t)})
    return e


def _monomial(syms: tuple, phase: tuple) -> ScalarExpr:
    """The one-term expression 1 * syms * phase (already canonical)."""
    return _wrap({_intern((syms, phase)): GR_ONE})


# The memoized monomial product.  A finite lattice has few distinct
# monomials, so the same key pairs meet again and again.
_PRODUCT: dict[tuple[Term, Term], Term] = {}  # (k1, k2) -> raw product key
_EXPANSION: dict[Term, tuple] = {}  # raw key -> _normalize({raw: 1}) items


def _raw_product(k1: Term, k2: Term) -> Term:
    """The key of the product of two monomials before :func:`_normalize`:
    symbol exponents added, phases merged."""
    (s1, p1), (s2, p2) = k1, k2
    syms: dict = {}
    for k, e in s1 + s2:
        syms[k] = syms.get(k, 0) + e
    return _intern((
        tuple(sorted((k, e) for k, e in syms.items() if e)),
        _phase_mul(p1, p2),
    ))


def _memo_product(k1: Term, k2: Term) -> Term:
    """Record the raw product key of ``k1 * k2`` and, once per raw key, its
    normalized expansion ``((key, factor), ...)``: normalization is linear
    in the coefficient, so ``c * raw`` expands to ``c * factor`` per key,
    in this order."""
    raw = _PRODUCT[k1, k2] = _raw_product(k1, k2)
    if raw not in _EXPANSION:
        _EXPANSION[raw] = tuple(_normalize({raw: GR_ONE}).items())
    return raw


def _normalize(raw: Mapping[Term, GaussianRational]) -> dict:
    out: dict[Term, GaussianRational] = {}
    work = list(raw.items())
    while work:
        (syms, phase), coeff = work.pop()
        if coeff is None or coeff.is_zero():
            continue
        mult: ScalarExpr | None = None
        keep_s = []
        for key, e in syms:
            kind = key[0]
            if kind == "rad" and e >= 2:
                coeff = coeff * key[1] ** (e // 2)
                e = e % 2
            elif kind in ("wgt", "kw") and e >= 2:
                sq = _square_value(key) ** (e // 2)
                mult = sq if mult is None else mult * sq
                e = e % 2
            if e:
                keep_s.append((key, e))
        term = _intern((tuple(sorted(keep_s)), phase))
        if mult is not None:
            work.extend((ScalarExpr({term: coeff}, _raw=True) * mult).terms.items())
            continue
        prev = out.get(term)
        s = coeff if prev is None else prev + coeff
        if s.is_zero():
            out.pop(term, None)
        else:
            out[term] = s
    return out


def _sym_str(key: tuple) -> str:
    kind = key[0]
    if kind == "sym":
        return key[1]
    if kind == "rad":
        return f"√{key[1]}"
    if kind == "wgt":
        return f"(2E[{key[1]}])^-½"
    if kind == "kw":
        return f"(2·{key[1]}·(E[{key[2]}]+{key[1]}))^-½"
    return str(key)


def _phase_str(p: tuple) -> str:
    bits = []
    for key, v in p:
        if key[0] == "c":
            bits.append(_qsum_str(v))
        elif key[0] == "t":
            bits.append(f"({_qsum_str(v)})·{key[1]}")
        else:
            bits.append(f"({v[0]},{v[1]},{v[2]})·{key[1]}")
    return "e^{i[" + " + ".join(bits) + "]}"


def _qsum_str(v: QSum) -> str:
    return " + ".join(str(c) if d == 1 else f"{c}√{d}" for d, c in v) or "0"


_ZERO_T, _ONE_T = GR_ZERO._t, GR_ONE._t
_ZERO = _Constant({})
_CONSTANTS: dict[tuple, ScalarExpr] = {_ZERO_T: _ZERO}  # triple -> expr
_ONE = _constant(_ONE_T)
_I = _constant(GR_I._t)


class ModeIndex(Frozen):
    """One lattice mode: small id plus exact covariant spatial momentum."""

    __slots__ = __match_args__ = ("id", "momentum")

    def __init__(self, mid: int, momentum):
        object.__setattr__(self, "id", mid)
        object.__setattr__(self, "momentum", tuple(_rat(x) for x in momentum))

    def __eq__(self, other):
        if not isinstance(other, ModeIndex):
            return NotImplemented
        return self.id == other.id and self.momentum == other.momentum

    def __hash__(self):
        return hash((self.id, self.momentum))
