"""Z2-graded algebra of elementary absorption/emission generators.

Words of generators are kept in Koszul-canonical order: every emission
stands left of every absorption, and inside each block generators are
sorted by (sector, mode, index position, internal index).  Reordering a
pair of odd generators costs a sign; under the *physical* rule, moving an
absorption past a matching emission additionally produces the contraction
(the super-bracket value), while the *modified* rule drops it.  Normal
ordering is exactly the modified-rule rewrite.

Generator species and index position together select one of the four
elementary operators of a complex sector:

    (absorb, upper)  particle absorption        a^alpha
    (emit,   lower)  particle emission          a+_alpha
    (absorb, lower)  anti-particle absorption   a_alpha
    (emit,   upper)  anti-particle emission     a+^alpha

Only complementary pairs inside one sector contract; for a real sector
(gauge, Nakanishi-Lautrup) particle and anti-particle coincide and any
absorption/emission pair of the sector contracts, with the spacetime
metric as weight in the gauge case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .linear import LinearCombination, add_term
from .scalars import ScalarExpr

ABSORB = "absorb"
EMIT = "emit"
UPPER = "upper"
LOWER = "lower"

#: metric signature (+,-,-,-) used for the gauge-sector contraction weight
METRIC_DIAG = (Fraction(1), Fraction(-1), Fraction(-1), Fraction(-1))

#: sector id -> (parity, is_real)
SECTORS = {
    "scalar": (0, False),
    "fermion": (1, False),
    "dirac_particle": (1, False),
    "dirac_antiparticle": (1, False),
    "gauge": (0, True),
    "ghost": (1, False),
    "antighost": (1, False),
    "nl": (0, True),
}


class AlgebraError(Exception):
    pass


class MixedParityError(AlgebraError):
    """A super-bracket operand did not have definite parity."""


@dataclass(frozen=True, slots=True, order=True)
class OpGen:
    """One elementary generator, identified by species, index position,
    sector, lattice mode id and internal index tuple."""

    species: str
    position: str
    sector: str
    mode: int
    internal: tuple

    def __post_init__(self):
        if self.species not in (ABSORB, EMIT):
            raise AlgebraError(f"bad species {self.species!r}")
        if self.position not in (UPPER, LOWER):
            raise AlgebraError(f"bad index position {self.position!r}")
        if self.sector not in SECTORS:
            raise AlgebraError(f"unknown sector {self.sector!r}")

    @property
    def parity(self) -> int:
        return SECTORS[self.sector][0]

    def sort_key(self) -> tuple:
        # emissions first, then absorptions; blocks sorted by slot labels
        return (0 if self.species == EMIT else 1,
                self.sector, self.mode, self.position, self.internal)

    def __repr__(self) -> str:
        dag = "+" if self.species == EMIT else ""
        pos = "^" if self.position == UPPER else "_"
        return f"a{dag}{pos}({self.sector},p{self.mode},{self.internal})"


def _contraction(g1: OpGen, g2: OpGen) -> ScalarExpr | None:
    """Super-bracket value of an adjacent (absorb, emit) pair, or None."""
    if g1.species != ABSORB or g2.species != EMIT:
        return None
    if g1.sector != g2.sector or g1.mode != g2.mode:
        return None
    real = SECTORS[g1.sector][1]
    if not real and g1.position == g2.position:
        return None  # same index type: particle against anti-particle slot
    if g1.sector == "gauge":
        # weight g_{lambda mu} delta^{IJ}; the metric is diagonal
        lam1, i1 = g1.internal
        lam2, i2 = g2.internal
        if lam1 != lam2 or i1 != i2:
            return None
        return ScalarExpr.rational(METRIC_DIAG[lam1])
    if g1.internal != g2.internal:
        return None
    return ScalarExpr.one()


class GradedExpr(LinearCombination):
    """Finite sum of canonical words with exact scalar coefficients."""

    __slots__ = ()

    @classmethod
    def of(cls, gen: OpGen, coeff: ScalarExpr | None = None) -> "GradedExpr":
        return cls({(gen,): coeff if coeff is not None else ScalarExpr.one()})

    def __iter__(self) -> Iterator[tuple[tuple, ScalarExpr]]:
        return iter(sorted(self.terms.items(), key=lambda wc: tuple(g.sort_key() for g in wc[0])))

    def scalar_part(self) -> ScalarExpr:
        """Coefficient of the empty word (the identity operator)."""
        return self.terms.get((), ScalarExpr.zero())

    def operator_part(self) -> "GradedExpr":
        return GradedExpr({w: c for w, c in self.terms.items() if w})

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w, c in self:
            ws = "·".join(repr(g) for g in w) if w else "1"
            bits.append(f"({c!r})·{ws}")
        return " + ".join(bits)


def parity_of(e: GradedExpr) -> str:
    """'even', 'odd' or 'mixed' (zero counts as even)."""
    seen = set()
    for w in e.terms:
        seen.add(sum(g.parity for g in w) % 2)
    if not seen:
        return "even"
    if len(seen) > 1:
        return "mixed"
    return "even" if seen.pop() == 0 else "odd"


def _normalize_word(word: tuple, rule: str) -> list[tuple[ScalarExpr, tuple]]:
    """Rewrite a word into canonical order.

    Returns a list of (coefficient multiplier, canonical word).  Under the
    physical rule crossing a matching absorption/emission pair adds the
    contraction term; under the modified rule it does not.
    """
    out: list[tuple[ScalarExpr, tuple]] = []
    stack: list[tuple[ScalarExpr, tuple]] = [(ScalarExpr.one(), word)]
    while stack:
        coeff, w = stack.pop()
        pos = _first_inversion(w)
        if pos is None:
            if _has_odd_square(w):
                continue
            out.append((coeff, w))
            continue
        g1, g2 = w[pos], w[pos + 1]
        sign = -1 if (g1.parity and g2.parity) else 1
        swapped = w[:pos] + (g2, g1) + w[pos + 2:]
        stack.append((coeff * sign if sign < 0 else coeff, swapped))
        if rule == "physical":
            c = _contraction(g1, g2)
            if c is not None:
                stack.append((coeff * c, w[:pos] + w[pos + 2:]))
    return out


def _first_inversion(w: tuple) -> int | None:
    for i in range(len(w) - 1):
        if w[i].sort_key() > w[i + 1].sort_key():
            return i
    return None


def _has_odd_square(w: tuple) -> bool:
    for i in range(len(w) - 1):
        if w[i] == w[i + 1] and w[i].parity:
            return True
    return False


def koszul_product(a: GradedExpr, b: GradedExpr, rule: str = "physical") -> GradedExpr:
    """Product in the graded algebra with normal reordering."""
    if rule not in ("physical", "modified"):
        raise AlgebraError(f"unknown product rule {rule!r}")
    acc: dict[tuple, ScalarExpr] = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            c12 = c1 * c2
            for mult, w in _normalize_word(w1 + w2, rule):
                add_term(acc, w, c12 * mult)
    return GradedExpr(acc)


def normal_order(e: GradedExpr) -> GradedExpr:
    """Pure reordering under the modified rule; idempotent."""
    acc: dict[tuple, ScalarExpr] = {}
    for w, c in e.terms.items():
        for mult, nw in _normalize_word(w, "modified"):
            add_term(acc, nw, c * mult)
    return GradedExpr(acc)


def super_bracket(a: GradedExpr, b: GradedExpr) -> GradedExpr:
    """[[X, Y]] = XY - (-1)^{|X||Y|} YX, physical rule."""
    pa, pb = parity_of(a), parity_of(b)
    if "mixed" in (pa, pb):
        raise MixedParityError("super-bracket needs definite-parity operands")
    sign = -1 if (pa == "odd" and pb == "odd") else 1
    ab = koszul_product(a, b, "physical")
    ba = koszul_product(b, a, "physical")
    return ab - ba if sign > 0 else ab + ba
