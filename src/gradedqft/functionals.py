"""Normal-ordered quadratic functionals of the free fields.

Each builder assembles a density from field components and their formal
derivatives at one symbolic point, multiplies under the modified rule
(products of coincident field components are normal-ordered), integrates
the spatial symbol away via lattice plane-wave orthogonality, and
compares the reduction against the closed number-operator form.

Orthogonality, integral d^3x e^{i<p-q,x>} = delta_pq, keeps a term of the
density iff its x-vector vanishes, and a product term's x-vector is the
sum of its factors'.  So `_integral` never forms the whole density: it
indexes the field's words by the x-vector of each coefficient term and
multiplies only the pairs whose x-vectors cancel, O(M) of the O(M^2)
word pairs for M modes.  The products still go through
`canonical_terms` and the sum still passes through `spatial_integral`,
so a phase in a foreign position still raises.  Each word of a field
carries one plane wave, so a word pair is kept or dropped whole, and the
result equals the spatial integral of the whole density word for word
and term for term, in the same order; ``density_product`` in
``tests/test_functionals.py`` forms that density, as the reference.

The reductions are sensitive to every sign in the conjugate-field
prescription; a flipped anti-particle absorption term breaks them, which
is exactly what the negative controls exercise.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    ABSORB,
    EMIT,
    LOWER,
    UPPER,
    GradedExpr,
    OpGen,
    normal_order,
)
from .fields import (
    FieldExpr,
    FieldPoint,
    ModeLattice,
    conjugate_field,
    field,
)
from .gammas import GAMMA, METRIC
from .linear import add_into, add_term, canonical_terms
from .scalars import Frozen, ScalarExpr

F = Fraction
_I = ScalarExpr.i()


class FunctionalError(Exception):
    pass


class FunctionalResult(Frozen):
    __slots__ = __match_args__ = ("name", "reduced", "target")

    def __init__(self, name: str, reduced: GradedExpr, target: GradedExpr):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "reduced", reduced)
        object.__setattr__(self, "target", target)

    @property
    def residual(self) -> GradedExpr:
        return self.reduced - self.target

    @property
    def time_independent(self) -> bool:
        return not any(c.has_time_dependence() for c in self.reduced.terms.values())


def spatial_integral(density: GradedExpr, x: FieldPoint) -> GradedExpr:
    """Integrate the density over the spatial symbol of x and re-order."""
    if not isinstance(x.x, str):
        raise FunctionalError("spatial integral needs a symbolic position")
    out = density.map_coeff(lambda c: c.spatial_integrate(x.x))
    return normal_order(out)


# --- closed-form targets -------------------------------------------------

def _number_sum(lattice: ModeLattice, first: tuple, second: tuple, slots,
                coeff, second_sign: int = 1) -> GradedExpr:
    """sum_p coeff(p) (N_first + second_sign N_second), summed over the
    internal slots.  ``first``/``second`` are (operator sector, index
    position of the emission); N is the number operator a+ a of one slot."""
    acc: dict = {}
    for mode in lattice.modes:
        c = coeff(mode)
        c2 = c if second_sign == 1 else -c
        for a in slots:
            for (sector, pos), cc in ((first, c), (second, c2)):
                back = LOWER if pos == UPPER else UPPER
                add_term(acc, (OpGen(EMIT, pos, sector, mode.id, (a,)),
                               OpGen(ABSORB, back, sector, mode.id, (a,))), cc)
    return GradedExpr(acc)


def scalar_h_target(lattice: ModeLattice, sector: str = "scalar") -> GradedExpr:
    """(1/2) sum_p E (a+^b a_b + a+_b a^b)."""
    return _number_sum(
        lattice, (sector, UPPER), (sector, LOWER), lattice.internal_range(sector),
        lambda mode: lattice.energy(sector, mode) * ScalarExpr.rational(F(1, 2)))


_DIRAC_PAIR = (("dirac_particle", LOWER), ("dirac_antiparticle", UPPER))


def dirac_charge_target(lattice: ModeLattice) -> GradedExpr:
    """sum_p (1/2m)(a+_A a^A - c+^A c_A)."""
    inv2m = ScalarExpr.rational(F(1, 2) / lattice.mass("dirac"))
    return _number_sum(lattice, *_DIRAC_PAIR, range(2), lambda mode: inv2m,
                       second_sign=-1)


def dirac_momentum_target(lattice: ModeLattice, lam: int) -> GradedExpr:
    """sum_p (p_lam/2m)(a+_A a^A + c+^A c_A)."""
    inv2m = ScalarExpr.rational(F(1, 2) / lattice.mass("dirac"))
    return _number_sum(lattice, *_DIRAC_PAIR, range(2),
                       lambda mode: lattice.p_lambda("dirac", mode, lam) * inv2m)


def ghost_momentum_target(lattice: ModeLattice, lam: int) -> GradedExpr:
    """sum_p p_lam (k+^I k_I + g+_I g^I)."""
    return _number_sum(lattice, ("antighost", UPPER), ("ghost", LOWER),
                       range(lattice.lie_dim),
                       lambda mode: lattice.p_lambda("ghost", mode, lam))


def fp_charge_target(lattice: ModeLattice, lam: int) -> GradedExpr:
    """i g^{lam mu} sum_p (p_mu / E)(g+_I g^I - k+^I k_I).

    The ghost-number grading forces the relative minus sign between the
    two quanta; the 4-momentum, by contrast, weighs both with +1.
    """
    g = ScalarExpr.rational(METRIC[lam])
    # p_lam / E = p_lam * 2 * (2E)^{-1}
    return _number_sum(
        lattice, ("ghost", LOWER), ("antighost", UPPER), range(lattice.lie_dim),
        lambda mode: _I * g * lattice.p_lambda("ghost", mode, lam) *
        lattice.inv_two_energy("ghost", mode) * ScalarExpr.rational(2),
        second_sign=-1)


# --- functional builders ---------------------------------------------------
#
# A functional is a list of rows (w, a, mu, b, nu) over one sector; a row
# stands for the term  integral of  w d_mu phibar_a d_nu phi_b,  where the
# weight w is a ScalarExpr or a rational and None in place of mu or nu
# means no derivative.

_HALF_I = ScalarExpr.rational(F(1, 2)) * _I


def _opposite(v):
    """The x-vector that cancels ``v``; a phase-free term pairs with one."""
    return None if v is None else tuple(-a for a in v)


def _x_index(phi: FieldExpr, xname: str) -> dict:
    """The words of ``phi`` indexed by x-vector: {v: [(word, part), ...]},
    ``part`` the terms of the word's coefficient with x-vector v."""
    index: dict = {}
    for w, c in phi.expr.terms.items():
        for v, part in c.by_position(xname).items():
            index.setdefault(v, []).append((w, part))
    return index


def _matched_product(bar: FieldExpr, phi_index: dict, xname: str) -> GradedExpr:
    """The terms of the density bar phi (the modified-rule product) that
    survive the spatial integral: only coefficient terms whose x-vectors
    cancel are multiplied, word pairs in the order the full product takes
    them."""
    acc: dict = {}
    for w1, c1 in bar.expr.terms.items():
        for v, c1v in c1.by_position(xname).items():
            for w2, c2 in phi_index.get(_opposite(v), ()):
                terms = canonical_terms(w1 + w2)
                if terms:
                    c12 = c1v * c2
                    for f, w in terms:
                        add_term(acc, w, c12 if f > 0 else -c12)
    return GradedExpr._wrap(acc)


def _integral(lattice: ModeLattice, sector: str, rows) -> GradedExpr:
    """Spatial integral of the rows' density, normal-ordered.  Rows with
    the same fields are merged first, so each product is taken once, and
    each derived field is indexed once per call and built once per
    lattice (in the lattice's memo).  Plane waves are orthonormal on the
    lattice, so of each product only the word pairs whose x-vectors
    cancel are formed (`_matched_product`); `spatial_integral` then drops
    nothing but still rejects a foreign position."""
    x = FieldPoint.make("t", "x")
    weights: dict = {}
    for w, a, mu, b, nu in rows:
        if not isinstance(w, ScalarExpr):
            w = ScalarExpr.rational(w)
        add_term(weights, (a, mu, b, nu), w)

    def part(make, c, lam) -> FieldExpr:
        f = make(sector, c, x, lattice)
        if lam is None:
            return f
        return FieldExpr(lattice._cached(
            ("deriv", make.__name__, sector, c, x, lam), lambda: f.deriv(lam).expr),
            f.sector, f.component, f.point, f.lattice)

    indexed: dict = {}
    dens: dict = {}
    for (a, mu, b, nu), w in weights.items():
        if (b, nu) not in indexed:
            indexed[b, nu] = _x_index(part(field, b, nu), x.x)
        prod = _matched_product(part(conjugate_field, a, mu), indexed[b, nu], x.x)
        add_into(dens, prod.scale(w).terms)
    return spatial_integral(GradedExpr(dens), x)


def _diagonal(lattice: ModeLattice, sector: str, w, mu, nu) -> list:
    """Rows w d_mu phibar_a d_nu phi_a, one per internal index a."""
    return [(w, a, mu, a, nu) for a in lattice.internal_range(sector)]


def _gamma_rows(lam: int, w: ScalarExpr, mu, nu) -> list:
    """Rows w gamma^lam_{al be} d_mu psibar_al d_nu psi_be."""
    return [(w * GAMMA[lam][al, be], al, mu, be, nu)
            for al in range(4) for be in range(4)]


def dirac_charge(lattice: ModeLattice) -> FunctionalResult:
    """Spatial integral of psibar gamma^0 psi."""
    red = _integral(lattice, "dirac", _gamma_rows(0, ScalarExpr.one(), None, None))
    return FunctionalResult("dirac_charge", red, dirac_charge_target(lattice))


def four_momentum(sector: str, lam: int, lattice: ModeLattice) -> FunctionalResult:
    if sector == "dirac":
        # (i/2)(psibar gamma0 d_lam psi - d_lam psibar gamma0 psi)
        rows = _gamma_rows(0, -_HALF_I, lam, None) + \
            _gamma_rows(0, _HALF_I, None, lam)
        target = dirac_momentum_target(lattice, lam)
    elif sector == "ghost":
        # d0 omegabar d_lam omega + d_lam omegabar d0 omega
        #   - d^0_lam g^{mu nu} d_mu omegabar d_nu omega
        rows = _diagonal(lattice, "ghost", 1, 0, lam) + \
            _diagonal(lattice, "ghost", 1, lam, 0)
        if lam == 0:
            rows += [row for nu in range(4)
                     for row in _diagonal(lattice, "ghost", -METRIC[nu], nu, nu)]
        target = ghost_momentum_target(lattice, lam)
    else:
        raise FunctionalError(f"no 4-momentum builder for sector {sector!r}")
    return FunctionalResult(f"{sector}_momentum[{lam}]",
                            _integral(lattice, sector, rows), target)


def scalar_h_pieces(lattice: ModeLattice, sector: str = "scalar"):
    """The three density pieces of the generic free Hamiltonian,
    spatially integrated but not summed: time, gradient, mass."""
    m = lattice.mass(sector)
    return tuple(_integral(lattice, sector, rows) for rows in (
        _diagonal(lattice, sector, F(1, 2), 0, 0),
        [row for i in range(1, 4)
         for row in _diagonal(lattice, sector, F(-METRIC[i], 2), i, i)],
        _diagonal(lattice, sector, m * m / 2, None, None)))


def free_hamiltonian(sector: str, lattice: ModeLattice) -> FunctionalResult:
    if sector in ("scalar", "fermion"):
        t_p, g_p, m_p = scalar_h_pieces(lattice, sector)
        return FunctionalResult(f"{sector}_hamiltonian", t_p + g_p + m_p,
                                scalar_h_target(lattice, sector))
    if sector == "dirac":
        # (i/2)(d_i psibar gamma^i psi - psibar gamma^i d_i psi) + m psibar psi
        rows = [row for i in range(1, 4) for row in
                _gamma_rows(i, _HALF_I, i, None) + _gamma_rows(i, -_HALF_I, None, i)]
        rows += _diagonal(lattice, "dirac", lattice.mass("dirac"), None, None)
        return FunctionalResult("dirac_hamiltonian", _integral(lattice, "dirac", rows),
                                dirac_momentum_target(lattice, 0))
    if sector == "ghost":
        # the ghost Hamiltonian density is the 4-momentum density at lam = 0
        p0 = four_momentum("ghost", 0, lattice)
        return FunctionalResult("ghost_hamiltonian", p0.reduced, p0.target)
    raise FunctionalError(f"no free Hamiltonian for sector {sector!r}")


def fp_current_integral(lam: int, lattice: ModeLattice) -> FunctionalResult:
    """g^{lam mu} integral of (d_mu omegabar_I omega^I - omegabar_I d_mu omega^I)."""
    g = METRIC[lam]
    rows = _diagonal(lattice, "ghost", g, lam, None) + \
        _diagonal(lattice, "ghost", -g, None, lam)
    return FunctionalResult(f"fp_current[{lam}]", _integral(lattice, "ghost", rows),
                            fp_charge_target(lattice, lam))
