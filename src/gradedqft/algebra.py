"""Z2-graded algebra of elementary absorption/emission generators.

Words of generators are kept in Koszul-canonical order: every emission
stands left of every absorption, and inside each block generators are
sorted by (sector, mode, index position, internal index).  Reordering a
pair of odd generators costs a sign; under the *physical* rule, moving an
absorption past a matching emission additionally produces the contraction
(the super-bracket value, `_contraction`), while the *modified* rule drops
it.  Normal ordering is exactly the modified-rule rewrite.  The rewrite
itself is `linear.canonical_terms`; this module supplies the letters and
the contraction.

The super-bracket is not two full products.  It is the Leibniz rule on
both operands: a word pair's bracket is a signed sum over its letter
pairs, each letter bracket set between the rest of the two words.  A
letter bracket is computed once per process by the word rule, the
canonical terms of x y merged with those of -+ y x, where the
uncontracted words cancel; almost every letter bracket is zero, and the
coefficients c1 c2 are multiplied only when one survives.

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

from .gammas import METRIC
from .linear import Letter, LinearCombination, add_term, canonical_terms
from .scalars import ScalarExpr

ABSORB = "absorb"
EMIT = "emit"
UPPER = "upper"
LOWER = "lower"

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


_GENS: dict = {}


class OpGen(Letter):
    """One elementary generator, identified by species, index position,
    sector, lattice mode id and internal index tuple; interned, one
    object per field values."""

    __slots__ = __match_args__ = ("species", "position", "sector", "mode",
                                  "internal")

    def __new__(cls, species: str, position: str, sector: str, mode: int,
                internal: tuple):
        g = _GENS.get((cls, species, position, sector, mode, internal))
        if g is not None:
            return g
        if species not in (ABSORB, EMIT):
            raise AlgebraError(f"bad species {species!r}")
        if position not in (UPPER, LOWER):
            raise AlgebraError(f"bad index position {position!r}")
        if sector not in SECTORS:
            raise AlgebraError(f"unknown sector {sector!r}")
        # emissions first, then absorptions; blocks sorted by slot labels
        key = (0 if species == EMIT else 1, sector, mode, position, internal)
        return cls._interned(_GENS, (species, position, sector, mode, internal),
                             SECTORS[sector][0], key)

    def __repr__(self) -> str:
        dag = "+" if self.species == EMIT else ""
        pos = "^" if self.position == UPPER else "_"
        return f"a{dag}{pos}({self.sector},p{self.mode},{self.internal})"


def _contraction(g1: OpGen, g2: OpGen) -> int | None:
    """Super-bracket sign of an adjacent (absorb, emit) pair, or None."""
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
        return int(METRIC[lam1])
    if g1.internal != g2.internal:
        return None
    return 1


class GradedExpr(LinearCombination):
    """Finite sum of canonical words with exact scalar coefficients."""

    __slots__ = ()

    @classmethod
    def of(cls, gen: OpGen, coeff: ScalarExpr | None = None) -> "GradedExpr":
        return cls({(gen,): coeff if coeff is not None else ScalarExpr.one()})

    def scalar_part(self) -> ScalarExpr:
        """Coefficient of the empty word (the identity operator)."""
        return self.terms.get((), ScalarExpr.zero())

    def operator_part(self) -> "GradedExpr":
        return GradedExpr({w: c for w, c in self.terms.items() if w})


#: 'even', 'odd' or 'mixed' (zero counts as even)
parity_of = GradedExpr.parity


def koszul_product(a: GradedExpr, b: GradedExpr, rule: str = "physical") -> GradedExpr:
    """Product in the graded algebra with normal reordering."""
    if rule not in ("physical", "modified"):
        raise AlgebraError(f"unknown product rule {rule!r}")
    return a.product(b, _contraction if rule == "physical" else None)


def normal_order(e: GradedExpr) -> GradedExpr:
    """Pure reordering under the modified rule; idempotent."""
    acc: dict[tuple, ScalarExpr] = {}
    for w, c in e.terms.items():
        for mult, nw in canonical_terms(w):
            add_term(acc, nw, c * mult)
    return GradedExpr._wrap(acc)


def super_bracket(a: GradedExpr, b: GradedExpr) -> GradedExpr:
    """[[X, Y]] = XY - (-1)^{|X||Y|} YX, physical rule, by the Leibniz rule.

    For each (w1, c1) of X and (w2, c2) of Y, with x_i = w1[i] and
    y_j = w2[j],

        [[w1, w2]] = sum_{i,j} (-1)^{|Y||w1[i+1:]| + |x_i||w2[:j]|}
                     w1[:i] w2[:j] [[x_i, y_j]] w2[j+1:] w1[i+1:],

    each word brought to canonical order by `canonical_terms`.  The
    letter brackets come from `_letter_bracket`; almost all of them are
    zero, and c1 c2 is multiplied only when one survives.
    """
    pa, pb = parity_of(a), parity_of(b)
    if "mixed" in (pa, pb):
        raise MixedParityError("super-bracket needs definite-parity operands")
    odd_x, odd_y = pa == "odd", pb == "odd"
    acc: dict[tuple, ScalarExpr] = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            c12 = None
            tail = odd_x  # parity of w1[i+1:]
            for i, x in enumerate(w1):
                tail ^= x.parity
                head = 0  # parity of w2[:j]
                for j, y in enumerate(w2):
                    br = _LETTER_BRACKETS.get((x, y))
                    if br is None:
                        br = _letter_bracket(x, y)
                    if br:
                        if c12 is None:
                            c12 = c1 * c2
                        sign = -1 if (odd_y and tail) ^ (x.parity and head) else 1
                        left, right = w1[:i] + w2[:j], w2[j + 1:] + w1[i + 1:]
                        for f, u in br:
                            f = f * sign
                            for g, w in canonical_terms(left + u + right,
                                                        _contraction):
                                add_term(acc, w, c12 * (g * f))
                    head ^= y.parity
    return GradedExpr._wrap(acc)


#: (x, y) -> the nonzero terms (factor, canonical word) of [[x, y]]
_LETTER_BRACKETS: dict = {}


def _letter_bracket(x: OpGen, y: OpGen) -> tuple:
    """[[x, y]] by the word rule, entered in `_LETTER_BRACKETS`.

    The canonical terms of x y and of -(-1)^{|x||y|} y x are summed by
    canonical word.  The uncontracted words cancel there as integer signs,
    so a wrong Koszul sign leaves them standing as a non-central bracket.
    """
    merged: dict = {}
    _merge(merged, canonical_terms((x, y), _contraction), 1)
    _merge(merged, canonical_terms((y, x), _contraction),
           1 if x.parity and y.parity else -1)
    br = tuple((f, w) for w, f in merged.items() if f)
    _LETTER_BRACKETS[(x, y)] = br
    return br


def _merge(merged: dict, terms: list, weight: int) -> None:
    """merged[w] += weight * f for each (f, w) of ``terms``, in integers."""
    for f, w in terms:
        f = f * weight
        old = merged.get(w)
        merged[w] = f if old is None else old + f
