"""Normal-ordered quadratic functionals of the free fields.

Each builder assembles a density from field components and their formal
derivatives at one symbolic point, multiplies under the modified rule
(products of coincident field components are normal-ordered), integrates
the spatial symbol away via lattice plane-wave orthogonality, and
compares the reduction against the closed number-operator form.

The reductions are sensitive to every sign in the conjugate-field
prescription; a flipped anti-particle absorption term breaks them, which
is exactly what the negative controls exercise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    ABSORB,
    EMIT,
    LOWER,
    UPPER,
    GradedExpr,
    OpGen,
    koszul_product,
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
from .linear import add_into, add_term
from .scalars import ScalarExpr

F = Fraction
_I = ScalarExpr.i()


class FunctionalError(Exception):
    pass


@dataclass(frozen=True)
class FunctionalResult:
    name: str
    reduced: GradedExpr
    target: GradedExpr

    @property
    def residual(self) -> GradedExpr:
        return self.reduced - self.target

    @property
    def match(self) -> bool:
        return self.residual.is_zero()

    @property
    def time_independent(self) -> bool:
        return not any(c.has_time_dependence() for c in self.reduced.terms.values())


def density_product(*factors: FieldExpr) -> GradedExpr:
    """Product of field components at a common point, modified rule."""
    point = factors[0].point
    for f in factors[1:]:
        if f.point != point:
            raise FunctionalError("density factors must share one point")
    acc = factors[0].expr
    for f in factors[1:]:
        acc = koszul_product(acc, f.expr, "modified")
    return acc


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

def _point() -> FieldPoint:
    return FieldPoint.make("t", "x")


def dirac_charge(lattice: ModeLattice) -> FunctionalResult:
    """Spatial integral of psibar gamma^0 psi."""
    x = _point()
    psi = [field("dirac", a, x, lattice) for a in range(4)]
    psib = [conjugate_field("dirac", a, x, lattice) for a in range(4)]
    dens: dict = {}
    for al in range(4):
        for be in range(4):
            g = GAMMA[0].rows[al][be]
            if g.is_zero():
                continue
            add_into(dens, density_product(psib[al], psi[be]).scale(g).terms)
    red = spatial_integral(GradedExpr(dens), x)
    return FunctionalResult("dirac_charge", red, dirac_charge_target(lattice))


def four_momentum(sector: str, lam: int, lattice: ModeLattice) -> FunctionalResult:
    x = _point()
    dens: dict = {}
    if sector == "dirac":
        psi = [field("dirac", a, x, lattice) for a in range(4)]
        psib = [conjugate_field("dirac", a, x, lattice) for a in range(4)]
        for al in range(4):
            for be in range(4):
                g = GAMMA[0].rows[al][be]
                if g.is_zero():
                    continue
                add_into(dens, density_product(psib[al].deriv(lam), psi[be]).scale(
                    -(ScalarExpr.rational(F(1, 2)) * _I * g)).terms)
                add_into(dens, density_product(psib[al], psi[be].deriv(lam)).scale(
                    ScalarExpr.rational(F(1, 2)) * _I * g).terms)
        red = spatial_integral(GradedExpr(dens), x)
        return FunctionalResult(f"dirac_momentum[{lam}]", red,
                                dirac_momentum_target(lattice, lam))
    if sector == "ghost":
        for li in range(lattice.lie_dim):
            omb = conjugate_field("ghost", li, x, lattice)
            om = field("ghost", li, x, lattice)
            add_into(dens, density_product(omb.deriv(0), om.deriv(lam)).terms)
            add_into(dens, density_product(omb.deriv(lam), om.deriv(0)).terms)
            if lam == 0:
                for nu in range(4):
                    add_into(dens, density_product(
                        omb.deriv(nu), om.deriv(nu)).scale(
                            ScalarExpr.rational(-METRIC[nu])).terms)
        red = spatial_integral(GradedExpr(dens), x)
        return FunctionalResult(f"ghost_momentum[{lam}]", red,
                                ghost_momentum_target(lattice, lam))
    raise FunctionalError(f"no 4-momentum builder for sector {sector!r}")


def scalar_h_pieces(lattice: ModeLattice, sector: str = "scalar"):
    """The three density pieces of the generic free Hamiltonian,
    spatially integrated but not summed: time, gradient, mass."""
    x = _point()
    half = ScalarExpr.rational(F(1, 2))
    m = lattice.mass(sector)
    t_piece: dict = {}
    g_piece: dict = {}
    m_piece: dict = {}
    for a in lattice.internal_range(sector):
        fb = conjugate_field(sector, a, x, lattice)
        ff = field(sector, a, x, lattice)
        add_into(t_piece, density_product(fb.deriv(0), ff.deriv(0)).scale(half).terms)
        for i in range(1, 4):
            add_into(g_piece, density_product(fb.deriv(i), ff.deriv(i)).scale(
                half * ScalarExpr.rational(-METRIC[i])).terms)
        add_into(m_piece, density_product(fb, ff).scale(
            half * ScalarExpr.rational(m * m)).terms)
    return tuple(spatial_integral(GradedExpr(piece), x)
                 for piece in (t_piece, g_piece, m_piece))


def free_hamiltonian(sector: str, lattice: ModeLattice) -> FunctionalResult:
    x = _point()
    if sector in ("scalar", "fermion"):
        t_p, g_p, m_p = scalar_h_pieces(lattice, sector)
        red = t_p + g_p + m_p
        return FunctionalResult(f"{sector}_hamiltonian", red,
                                scalar_h_target(lattice, sector))
    dens: dict = {}
    if sector == "dirac":
        psi = [field("dirac", a, x, lattice) for a in range(4)]
        psib = [conjugate_field("dirac", a, x, lattice) for a in range(4)]
        m = lattice.mass("dirac")
        for al in range(4):
            for be in range(4):
                for i in range(1, 4):
                    g = GAMMA[i].rows[al][be]
                    if g.is_zero():
                        continue
                    gs = g * _I * ScalarExpr.rational(F(1, 2))
                    add_into(dens, density_product(
                        psib[al].deriv(i), psi[be]).scale(gs).terms)
                    add_into(dens, density_product(
                        psib[al], psi[be].deriv(i)).scale(-gs).terms)
                if al == be:
                    add_into(dens, density_product(psib[al], psi[be]).scale(
                        ScalarExpr.rational(m)).terms)
        red = spatial_integral(GradedExpr(dens), x)
        return FunctionalResult("dirac_hamiltonian", red,
                                dirac_momentum_target(lattice, 0))
    if sector == "ghost":
        for li in range(lattice.lie_dim):
            omb = conjugate_field("ghost", li, x, lattice)
            om = field("ghost", li, x, lattice)
            add_into(dens, density_product(omb.deriv(0), om.deriv(0)).terms)
            for i in range(1, 4):
                add_into(dens, density_product(omb.deriv(i), om.deriv(i)).scale(
                    ScalarExpr.rational(-METRIC[i])).terms)
        red = spatial_integral(GradedExpr(dens), x)
        return FunctionalResult("ghost_hamiltonian", red,
                                ghost_momentum_target(lattice, 0))
    raise FunctionalError(f"no free Hamiltonian for sector {sector!r}")


def fp_current_integral(lam: int, lattice: ModeLattice) -> FunctionalResult:
    """g^{lam mu} integral of (d_mu omegabar_I omega^I - omegabar_I d_mu omega^I)."""
    x = _point()
    g = ScalarExpr.rational(METRIC[lam])
    dens: dict = {}
    for li in range(lattice.lie_dim):
        omb = conjugate_field("ghost", li, x, lattice)
        om = field("ghost", li, x, lattice)
        add_into(dens, density_product(omb.deriv(lam), om).scale(g).terms)
        add_into(dens, density_product(omb, om.deriv(lam)).scale(-g).terms)
    red = spatial_integral(GradedExpr(dens), x)
    return FunctionalResult(f"fp_current[{lam}]", red,
                            fp_charge_target(lattice, lam))
