"""Fiber-polynomial algebra with antifields, BV operations and BRST.

Coordinates are graded classical fiber/jet symbols: for every field
coordinate y there is an antifield coordinate with inverted parity, and
jet labels up to second order.  Polynomials are kept Koszul-canonical
by `linear.canonical_terms` (words sorted, odd squares killed, signs
folded into the coefficients), so equality is dictionary equality.

Graded derivative conventions:

    left:   D_i (y_k1 ... y_kr) = sum_j delta_{i,kj}
            (-1)^{|i| (|k1|+...+|k_{j-1}|)} y_k1 ... ^y_kj ... y_kr
    right:  f D~_i = (-1)^{|i||f|} D_i f   (per homogeneous term)

Every derivative comes from `gradient`, one pass over the letters of f
that returns the derivatives by all coordinates of f at once.  The total
derivative d_H and the vertical derivations (BRST, ghost number) are
graded derivations given by their values on letters, and one loop,
`_splice`, applies them all.

The BV Laplacian is Delta f = sum_i D_i Dtilde^i f over field/antifield
pairs, and the antibracket is

    {f, g} = <f|1*|g> - (-1)^{(|f|+1)(|g|+1)} <g|1*|f>,
    <f|1*|g> = sum_i (f Dtilde<-^i) (D->_i g).

The induced canonical pairing comes out as {y, ytilde} = +1; the sign is
not postulated but pinned by the product identities the tests enforce.

The BRST derivation S acts on base coordinates by the gauge-theory table
(S psi = l_I omega^I psi, S psibar = psibar l_I omega^I, S A = covariant
gradient of omega, S omega = (1/2) c omega omega, S omegabar = n,
S n = 0), on jets by total-derivative prolongation, and kills antifield
coordinates.  Consistency (S^2 = 0, gauge invariance of the matter+gauge
Lagrangian) fixes the remaining component conventions:

    grad_lam psi = psi_{,lam} - A^I_lam l_I psi
    F^I_{lam nu} = A^I_{nu,lam} - A^I_{lam,nu} - c^I_{JH} A^J_lam A^H_nu

The Euler operator is one sum over the sorted jets J of b present in l,
E_b(l) = sum_J (-1)^{|J|} d_J D^J_b l, so a Lagrangian's order is read
off its own jets.  One routine splits a variation,
v(l) = sum_b v(b) E_b(l) + d_lam B^lam, each jet J giving B^{J_i} a 1/|J|
share at each position i; Noether currents are J = B - N.  Gauge fixing
substitutes ctilde = E_c(Psi) of the gauge fermion Psi:
L_ghost = sum_c S(c) E_c(Psi) = S Psi - d_lam B^lam.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

from .gammas import GAMMA, METRIC
from .lie import LieData, constant_entries
from .linear import (Letter, LinearCombination, add_into, add_term,
                     canonical_terms, merge_splice)
from .scalars import Frozen, ScalarExpr

F = Fraction
_ONE = ScalarExpr.one()
#: the gauge parameter and the fermion mass, formal symbols throughout
XI = ScalarExpr.symbol("xi")
MASS = ScalarExpr.symbol("m")


class BVError(Exception):
    pass


class JetOrderError(BVError):
    pass


class NotASymmetryError(BVError):
    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


SECTOR_PARITY = {"psi": 1, "psibar": 1, "A": 0, "omega": 1, "omegabar": 1, "n": 0}


_COORDS: dict = {}


class FiberCoord(Letter):
    """A fiber/jet coordinate, interned: one object per field values:
    sector, kind ('field' | 'anti'), idx and jet (sorted spacetime
    indices, length <= 2)."""

    __slots__ = __match_args__ = ("sector", "kind", "idx", "jet")

    def __new__(cls, sector: str, kind: str, idx: tuple, jet: tuple):
        c = _COORDS.get((cls, sector, kind, idx, jet))
        if c is not None:
            return c
        if sector not in SECTOR_PARITY:
            raise BVError(f"unknown sector {sector!r}")
        if kind not in ("field", "anti"):
            raise BVError(f"bad coordinate kind {kind!r}")
        if len(jet) > 2:
            raise JetOrderError("jet order is capped at 2")
        if tuple(sorted(jet)) != jet:
            raise BVError("jet multi-index must be sorted")
        p = SECTOR_PARITY[sector]
        values = (sector, kind, idx, jet)
        return cls._interned(_COORDS, values, p if kind == "field" else 1 - p, values)

    def partner(self) -> "FiberCoord":
        return FiberCoord(self.sector, "anti" if self.kind == "field" else "field",
                          self.idx, self.jet)

    def lift(self, lam: int) -> "FiberCoord":
        return FiberCoord(self.sector, self.kind, self.idx,
                          tuple(sorted(self.jet + (lam,))))

    def __repr__(self) -> str:
        tilde = "~" if self.kind == "anti" else ""
        jets = ("," + "".join(str(j) for j in self.jet)) if self.jet else ""
        return f"{self.sector}{tilde}{list(self.idx)}{jets}"


class FiberPoly(LinearCombination):
    """Polynomial in graded fiber coordinates with exact coefficients."""

    __slots__ = ()

    __mul__ = LinearCombination.product

    @classmethod
    def coord(cls, c: FiberCoord, coeff: ScalarExpr | None = None) -> "FiberPoly":
        return cls({(c,): coeff if coeff is not None else ScalarExpr.one()})

    @classmethod
    def word(cls, coords: Sequence[FiberCoord],
             coeff: ScalarExpr | None = None) -> "FiberPoly":
        c = coeff if coeff is not None else ScalarExpr.one()
        # the factors are the signs 1 and -1: no contraction is given
        return cls({w: c if f > 0 else -c for f, w in canonical_terms(tuple(coords))})

    def partial_symbol(self, name: str) -> "FiberPoly":
        return FiberPoly({w: c.partial_symbol(name) for w, c in self.terms.items()})


def gradient(f: FiberPoly, right: bool = False) -> dict:
    """{c: D_c f} (or {c: f D~_c} when ``right``) for every coordinate c of
    f, keyed in order of first appearance; one pass over the letters."""
    acc: dict = {}
    for w, c in f.terms.items():
        # the right derivative adds the whole-term sign (-1)^{|i||w|}
        pref = sum(x.parity for x in w) if right else 0
        for j, cj in enumerate(w):
            p_i = cj.parity
            add_term(acc.setdefault(cj, {}), w[:j] + w[j + 1:],
                     -c if (p_i and pref % 2) else c)
            pref += p_i
    return {cj: FiberPoly._wrap(d) for cj, d in acc.items()}


def left_deriv(f: FiberPoly, coord: FiberCoord) -> FiberPoly:
    return gradient(f).get(coord, FiberPoly.zero())


def bv_laplacian(f: FiberPoly) -> FiberPoly:
    """Delta f = sum_i D_i Dtilde^i f, over the antifields Dtilde^i of f."""
    return FiberPoly.sum(left_deriv(d, c.partner())
                         for c, d in gradient(f).items() if c.kind == "anti")


def _half_pairing(f_right: dict, g_left: dict) -> FiberPoly:
    """<f|1*|g> from the right gradient of f and the left gradient of g."""
    acc: dict = {}
    for c, df in f_right.items():
        if c.kind == "anti" and (dg := g_left.get(c.partner())) is not None:
            add_into(acc, (df * dg).terms)
    return FiberPoly._wrap(acc)


def bv_bracket(f: FiberPoly, g: FiberPoly) -> FiberPoly:
    """The antibracket; operands must be Z2-homogeneous."""
    pf, pg = f.parity(), g.parity()
    if "mixed" in (pf, pg):
        raise BVError("antibracket needs definite-parity operands")
    first = _half_pairing(gradient(f, right=True), gradient(g))
    second = _half_pairing(gradient(g, right=True), gradient(f))
    sgn = (-1) ** (((pf == "odd") + 1) * ((pg == "odd") + 1))
    return first - second.scale(ScalarExpr.rational(sgn))


def _splice(f: FiberPoly, parity: int, table) -> FiberPoly:
    """The graded derivation of parity ``parity`` whose value on a letter x
    has the canonical words and coefficients ``table(x)``, applied to f.

    On a word w each (u, c_u) of table(w[j]) merges into the canonical
    remainder of w (`linear.merge_splice`); c_w, negated by the merge sign
    and the prefix sign (-1)^{parity |w[:j]|}, times c_u is added to the
    word.  Both signs of c_w are formed once per word, and a c_u that is
    the interned one is not multiplied."""
    acc: dict = {}
    for w, c in f.terms.items():
        keys = [g._key for g in w]
        signed = (c, -c)
        flip = False  # (-1)^{parity |w[:j]|} = -1
        for j, cj in enumerate(w):
            terms = table(cj)
            if terms:
                rem, rkeys = w[:j] + w[j + 1:], keys[:j] + keys[j + 1:]
                for u, cu in terms:
                    term = merge_splice(rem, rkeys, j, u)
                    if term is not None:
                        sign, nw = term
                        cc = signed[(sign < 0) != flip]
                        add_term(acc, nw, cc if cu is _ONE else cc * cu)
            if parity and cj.parity:
                flip = not flip
    return FiberPoly._wrap(acc)


def horizontal_diff(f: FiberPoly, lam: int) -> FiberPoly:
    """Total spacetime derivative via jet prolongation (even derivation)."""
    return _splice(f, 0, lambda c: (((c.lift(lam),), _ONE),))


class VerticalDerivation:
    """Graded derivation determined by components on base field
    coordinates, prolonged to jets, zero on antifields.

    The components are read-only, so the prolonged value on each
    coordinate is computed once per derivation (`on_coord`); applying the
    derivation splices those values into the words of f (`_splice`)."""

    def __init__(self, components: Mapping[FiberCoord, FiberPoly], parity: int):
        if parity not in (0, 1):
            raise BVError(f"derivation parity must be 0 or 1, not {parity!r}")
        for key, comp in components.items():
            if not (isinstance(key, FiberCoord) and key.kind == "field"
                    and not key.jet):
                raise BVError(f"derivation component keyed by {key!r}: "
                              "components act on jet-free field coordinates")
            want = "odd" if (key.parity + parity) % 2 else "even"
            if not comp.is_zero() and comp.parity() != want:
                raise BVError(f"component on {key!r} is {comp.parity()}, "
                              f"a parity-{parity} derivation needs {want}")
        self.components = MappingProxyType(dict(components))
        self.parity = parity
        self._on: dict = {}

    def on_coord(self, c: FiberCoord) -> FiberPoly:
        comp = self._on.get(c)
        if comp is None:
            comp = self.components.get(FiberCoord(c.sector, c.kind, c.idx, ()))
            if comp is None or c.kind == "anti":
                comp = FiberPoly.zero()
            else:
                for lam in c.jet:
                    comp = horizontal_diff(comp, lam)
            self._on[c] = comp
        return comp

    def __call__(self, f: FiberPoly) -> FiberPoly:
        return _splice(f, self.parity, lambda c: self.on_coord(c).terms.items())


# --- the gauge theory ------------------------------------------------------

class TheorySpec(Frozen):
    """Field content of the essential gauge theory over a Lie datum."""

    __slots__ = __match_args__ = ("lie",)

    def __init__(self, lie: LieData):
        object.__setattr__(self, "lie", lie)

    @property
    def n_f(self) -> int:
        return self.lie.dim_f

    @property
    def d_lie(self) -> int:
        return self.lie.dim

    # coordinate helpers
    def psi(self, al: int, i: int, jet=()) -> FiberCoord:
        return FiberCoord("psi", "field", (al, i), tuple(jet))

    def psibar(self, al: int, i: int, jet=()) -> FiberCoord:
        return FiberCoord("psibar", "field", (al, i), tuple(jet))

    def a_gauge(self, li: int, lam: int, jet=()) -> FiberCoord:
        return FiberCoord("A", "field", (li, lam), tuple(jet))

    def omega(self, li: int, jet=()) -> FiberCoord:
        return FiberCoord("omega", "field", (li,), tuple(jet))

    def omegabar(self, li: int, jet=()) -> FiberCoord:
        return FiberCoord("omegabar", "field", (li,), tuple(jet))

    def nl(self, li: int, jet=()) -> FiberCoord:
        return FiberCoord("n", "field", (li,), tuple(jet))

    def gen_entry(self, li: int, i: int, j: int) -> ScalarExpr:
        return ScalarExpr.gaussian(self.lie.generators[li][i][j])

    def all_base_coords(self) -> list:
        out = []
        for al in range(4):
            for i in range(self.n_f):
                out.append(self.psi(al, i))
                out.append(self.psibar(al, i))
        for li in range(self.d_lie):
            for lam in range(4):
                out.append(self.a_gauge(li, lam))
            out.append(self.omega(li))
            out.append(self.omegabar(li))
            out.append(self.nl(li))
        return out


def _generator_entries(theory: TheorySpec, i: int, transposed: bool = False):
    """(li, j, e) over the nonzero entries e = (l_li)_{ij}, or (l_li)_{ji}."""
    for li in range(theory.d_lie):
        for j in range(theory.n_f):
            e = theory.gen_entry(li, j, i) if transposed else theory.gen_entry(li, i, j)
            if not e.is_zero():
                yield li, j, e


def brst_components(theory: TheorySpec) -> dict:
    """The BRST component table over the structure constants of
    ``theory.lie``."""
    comp: dict[FiberCoord, FiberPoly] = {}
    for al in range(4):
        for i in range(theory.n_f):
            comp[theory.psi(al, i)] = FiberPoly.sum(
                FiberPoly.word((theory.omega(li), theory.psi(al, j)), e)
                for li, j, e in _generator_entries(theory, i))
            comp[theory.psibar(al, i)] = FiberPoly.sum(
                FiberPoly.word((theory.psibar(al, j), theory.omega(li)), e)
                for li, j, e in _generator_entries(theory, i, transposed=True))
    for li in range(theory.d_lie):
        for lam in range(4):
            comp[theory.a_gauge(li, lam)] = covariant_domega(theory, li, lam)
        comp[theory.omega(li)] = FiberPoly.sum(
            FiberPoly.word((theory.omega(jj), theory.omega(hh)),
                           ScalarExpr.rational(F(c) / 2))
            for jj, hh, c in constant_entries(theory.lie.constants, li))
        comp[theory.omegabar(li)] = FiberPoly.coord(theory.nl(li))
        comp[theory.nl(li)] = FiberPoly.zero()
    return comp


def brst_operator(theory: TheorySpec) -> VerticalDerivation:
    return VerticalDerivation(brst_components(theory), parity=1)


def ghost_number_derivation(theory: TheorySpec) -> VerticalDerivation:
    """omega -> omega, omegabar -> -omegabar (even derivation)."""
    comp = {}
    for li in range(theory.d_lie):
        comp[theory.omega(li)] = FiberPoly.coord(theory.omega(li))
        comp[theory.omegabar(li)] = FiberPoly.coord(
            theory.omegabar(li), ScalarExpr.rational(-1))
    return VerticalDerivation(comp, parity=0)


# --- Lagrangians ------------------------------------------------------------

def covariant_dpsi(theory: TheorySpec, al: int, i: int, lam: int) -> FiberPoly:
    return FiberPoly.coord(theory.psi(al, i, (lam,))) + FiberPoly.sum(
        FiberPoly.word((theory.a_gauge(li, lam), theory.psi(al, j)), -e)
        for li, j, e in _generator_entries(theory, i))


def covariant_dpsibar(theory: TheorySpec, al: int, i: int, lam: int) -> FiberPoly:
    return FiberPoly.coord(theory.psibar(al, i, (lam,))) + FiberPoly.sum(
        FiberPoly.word((theory.a_gauge(li, lam), theory.psibar(al, j)), e)
        for li, j, e in _generator_entries(theory, i, transposed=True))


def covariant_domega(theory: TheorySpec, li: int, lam: int) -> FiberPoly:
    return FiberPoly.coord(theory.omega(li, (lam,))) + FiberPoly.sum(
        FiberPoly.word((theory.omega(jj), theory.a_gauge(hh, lam)),
                       ScalarExpr.rational(c))
        for jj, hh, c in constant_entries(theory.lie.constants, li))


def field_strength(theory: TheorySpec, li: int, lam: int, nu: int) -> FiberPoly:
    return FiberPoly.coord(theory.a_gauge(li, nu, (lam,))) - \
        FiberPoly.coord(theory.a_gauge(li, lam, (nu,))) + FiberPoly.sum(
            FiberPoly.word((theory.a_gauge(jj, lam), theory.a_gauge(hh, nu)),
                           ScalarExpr.rational(-c))
            for jj, hh, c in constant_entries(theory.lie.constants, li))


def lagrangian_matter(theory: TheorySpec) -> FiberPoly:
    """(i/2)(psibar gamma grad psi - grad psibar gamma psi) - m psibar psi."""
    half_i = ScalarExpr.i() * ScalarExpr.rational(F(1, 2))
    acc: dict = {}
    for al in range(4):
        for be in range(4):
            for lam in range(4):
                g = GAMMA[lam].rows[al][be]
                if g.is_zero():
                    continue
                gs = half_i * g
                for i in range(theory.n_f):
                    add_into(acc, (FiberPoly.coord(theory.psibar(al, i)) *
                                   covariant_dpsi(theory, be, i, lam)).scale(gs).terms)
                    add_into(acc, (covariant_dpsibar(theory, al, i, lam) *
                                   FiberPoly.coord(theory.psi(be, i))).scale(-gs).terms)
            if al == be:
                for i in range(theory.n_f):
                    add_into(acc, FiberPoly.word(
                        (theory.psibar(al, i), theory.psi(be, i)), -MASS).terms)
    return FiberPoly._wrap(acc)


def lagrangian_gauge(theory: TheorySpec) -> FiberPoly:
    """-(1/4) F^I_{lam nu} F_I^{lam nu} = -(1/2) sum_{lam < nu}, F being
    antisymmetric in lam and nu."""
    acc: dict = {}
    for li in range(theory.d_lie):
        for lam in range(4):
            for nu in range(lam + 1, 4):
                f1 = field_strength(theory, li, lam, nu)
                add_into(acc, (f1 * f1).scale(
                    ScalarExpr.rational(F(-1, 2) * METRIC[lam] * METRIC[nu])).terms)
    return FiberPoly._wrap(acc)


def gauge_fix_f(theory: TheorySpec, li: int) -> FiberPoly:
    """f^I = d_lam (g^{lam mu} A^I_mu) in orthonormal flat coordinates."""
    return FiberPoly.sum(
        FiberPoly.coord(theory.a_gauge(li, lam, (lam,)),
                        ScalarExpr.rational(METRIC[lam]))
        for lam in range(4))


def _antighost_partner(theory: TheorySpec, li: int) -> FiberPoly:
    """f^I + (xi/2) n^I, the factor of omegabar_I in the gauge fermion."""
    return gauge_fix_f(theory, li) + FiberPoly.coord(
        theory.nl(li), XI * ScalarExpr.rational(F(1, 2)))


def lagrangian_ghost(theory: TheorySpec) -> FiberPoly:
    """g^{lam mu} omegabar_{I,lam} grad_mu omega^I + n_I (f^I + xi/2 n^I)."""
    acc: dict = {}
    for li in range(theory.d_lie):
        for lam in range(4):
            add_into(acc, (FiberPoly.coord(theory.omegabar(li, (lam,))) *
                           covariant_domega(theory, li, lam)).scale(
                               ScalarExpr.rational(METRIC[lam])).terms)
        add_into(acc, (FiberPoly.coord(theory.nl(li)) *
                       _antighost_partner(theory, li)).terms)
    return FiberPoly._wrap(acc)


# --- variational calculus ---------------------------------------------------

_HALF = ScalarExpr.rational(F(1, 2))


def _jets(grad: dict) -> dict:
    """grad = gradient(l) grouped by base coordinate: {b: [(J, D^J_b l)]}
    over the sorted jets J of b present in l."""
    out: dict = {}
    for c, d in grad.items():
        out.setdefault(FiberCoord(c.sector, c.kind, c.idx, ()), []).append((c.jet, d))
    return out


def _euler_lagrange(jets) -> FiberPoly:
    """E_b(l) = sum_J (-d)_J D^J_b l over the jets [(J, D^J_b l)] of b."""
    acc: dict = {}
    for jet, d in jets:
        for lam in jet:
            d = horizontal_diff(d, lam)
        add_into(acc, (-d if len(jet) % 2 else d).terms)
    return FiberPoly._wrap(acc)


def _first_variation(v: VerticalDerivation, lagr: FiberPoly) -> tuple:
    """The Euler part and the boundary forms B^lam of
    v(l) = sum_b v(b) E_b(l) + d_lam B^lam, over the jet-free field
    coordinates b of l with v(b) != 0.  Each jet J of b gives B^{J_i} a
    1/|J| share at each position i: v(b) D^J_b l at |J| = 1, and
    (d_mu v(b)) D^J_b l - v(b) d_mu D^J_b l at |J| = 2, mu the other index."""
    boundary: list = [{} for _ in range(4)]
    euler: dict = {}
    for b, jets in _jets(gradient(lagr)).items():
        if b.kind != "field" or (comp := v.on_coord(b)).is_zero():
            continue
        for jet, d in jets:
            if len(jet) == 1:
                add_into(boundary[jet[0]], (comp * d).terms)
            elif jet:  # |J| = 2, the jet cap
                for lam, mu in (jet, jet[::-1]):
                    share = (horizontal_diff(comp, mu) * d
                             - comp * horizontal_diff(d, mu))
                    add_into(boundary[lam], share.scale(_HALF).terms)
        add_into(euler, (comp * _euler_lagrange(jets)).terms)
    return FiberPoly._wrap(euler), [FiberPoly._wrap(acc) for acc in boundary]


def noether_current(v: VerticalDerivation, lagr: FiberPoly,
                    n_forms: Sequence[FiberPoly] | None = None) -> list:
    """Conserved current components J^lam = B^lam - N^lam of the vertical
    symmetry v, with B^lam the boundary forms of its first variation.

    Requires delta[v] L = d_lam N^lam (exactly); raises otherwise with the
    residual attached.  The off-shell conservation identity
    d_lam J^lam + sum_i v^i E_i(l) = delta[v] L - d_lam N^lam = 0 holds by
    construction and is re-checked.
    """
    n_forms = list(n_forms) if n_forms is not None else \
        [FiberPoly.zero() for _ in range(4)]
    varied = v(lagr)
    dh_n = FiberPoly.sum(horizontal_diff(n_forms[lam], lam) for lam in range(4))
    resid = varied - dh_n
    if not resid.is_zero():
        raise NotASymmetryError("delta[v] L is not the stated horizontal "
                                "differential", resid)
    euler, boundary = _first_variation(v, lagr)
    currents = [b - n for b, n in zip(boundary, n_forms)]
    div = FiberPoly.sum(horizontal_diff(currents[lam], lam) for lam in range(4))
    if not (div + euler).is_zero():
        raise BVError("internal error: Noether conservation identity failed")
    return currents


# --- gauge fixing by antifield substitution ---------------------------------

def gauge_fermion(theory: TheorySpec) -> FiberPoly:
    """Psi = omegabar_I (f^I + xi/2 n^I), the odd gauge-fixing fermion."""
    return FiberPoly.sum(FiberPoly.coord(theory.omegabar(li)) *
                         _antighost_partner(theory, li)
                         for li in range(theory.d_lie))


class GhostDecomposition(Frozen):
    """L_ghost = S K + d_H M: the Lagrangian, S K, M^lam (lam = 0..3),
    d_H M and the residual of the equation."""

    __slots__ = __match_args__ = ("lagrangian", "s_k", "m", "dh_m", "residual")

    def __init__(self, lagrangian: FiberPoly, s_k: FiberPoly, m: tuple,
                 dh_m: FiberPoly, residual: FiberPoly):
        object.__setattr__(self, "lagrangian", lagrangian)
        object.__setattr__(self, "s_k", s_k)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "dh_m", dh_m)
        object.__setattr__(self, "residual", residual)


def ghost_lagrangian_decompose(theory: TheorySpec,
                               s: VerticalDerivation | None = None) -> GhostDecomposition:
    """L_ghost = sum_c S(c) ctilde, each antifield replaced by E_c(Psi), and
    L_ghost = S K + d_H M with K = Psi and M^lam = -B^lam, all from the
    first variation S(Psi) = L_ghost + d_lam B^lam.  ``s`` is the BRST
    operator of ``theory``, built here when not given."""
    if s is None:
        s = brst_operator(theory)
    k = gauge_fermion(theory)
    lagr, boundary = _first_variation(s, k)
    m = tuple(-b for b in boundary)
    s_k = s(k)
    dh_m = FiberPoly.sum(horizontal_diff(m_lam, lam) for lam, m_lam in enumerate(m))
    return GhostDecomposition(lagr, s_k, m, dh_m, lagr - (s_k + dh_m))
