"""Mode-lattice free quantum fields and their super-commutators.

Conventions, fixed once for the whole engine:

* metric (+,-,-,-); a lattice mode stores the covariant spatial momentum
  components, so p_lambda = (E, p1, p2, p3) literally and
  <p, x> = E t + p . x.
* a field at x = (t, x) is a sum over lattice modes of

      w_p * dressing * ( e^{-i<p,x>} absorption + e^{+i<p,x>} emission )

  with w_p = (2 E)^{-1/2}; absorption operators always ride the
  e^{-i<p,x>} phase.
* the conjugate field carries emission of particles and -/+ absorption
  of anti-particles: plus sign for bosons, minus for fermions.  For the
  Dirac sector the dressing is the inverse boost, for ghosts the minus
  sign lands on the anti-ghost absorption term.

Propagator mode sums:

    D+-(y) = +- sum_p (2 E)^{-1} e^{-+ i <p,y>}
    D+-_{,lam}(y) = -i sum_p (2 E)^{-1} p_lam e^{-+ i <p,y>}

Equal-time identities cancel term-by-term only when the lattice is
closed under p -> -p; the report functions check that up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra import (
    ABSORB,
    EMIT,
    LOWER,
    UPPER,
    GradedExpr,
    OpGen,
    koszul_product,
    super_bracket,
)
from .gammas import GAMMA, METRIC
from .linear import add_into, add_term
from .scalars import (
    GaussianRational,
    ModeIndex,
    ScalarExpr,
    qsum_scale,
    qsum_sqrt,
)

F = Fraction


class FieldError(Exception):
    pass


class LatticeError(FieldError):
    pass


class RealSectorError(FieldError):
    """The sector is real: it has no independent conjugate field."""


#: field sectors and their statistics (0 even, 1 odd)
FIELD_SECTORS = {"scalar": 0, "fermion": 1, "dirac": 1, "gauge": 0, "ghost": 1}

#: field sector -> operator sectors used by its expansion
_MASSLESS = ("gauge", "ghost")


@dataclass(frozen=True)
class ModeLattice:
    """Finite momentum lattice with per-sector masses and internal sizes."""

    modes: tuple
    masses: dict
    scalar_dim: int = 2
    lie_dim: int = 1

    @staticmethod
    def make(momenta: Iterable, masses: dict | None = None,
             scalar_dim: int = 2, lie_dim: int = 1) -> "ModeLattice":
        modes = tuple(ModeIndex.make(i, m) for i, m in enumerate(momenta))
        seen = set()
        for m in modes:
            if m.momentum in seen:
                raise LatticeError(f"duplicate lattice momentum {m.momentum}")
            seen.add(m.momentum)
        mm = {"scalar": F(1), "fermion": F(1), "dirac": F(1),
              "gauge": F(0), "ghost": F(0)}
        mm.update({k: F(v) for k, v in (masses or {}).items()})
        for sec in ("gauge", "ghost"):
            if mm[sec] != 0:
                raise LatticeError(f"{sec} sector must be massless")
        for sec in ("scalar", "fermion", "dirac"):
            if mm[sec] <= 0:
                raise LatticeError(f"{sec} sector needs a positive mass")
        return ModeLattice(modes, mm, scalar_dim, lie_dim)

    def mass(self, fsector: str) -> Fraction:
        return self.masses[fsector]

    def energy_sq(self, fsector: str, mode: ModeIndex) -> Fraction:
        esq = self.mass(fsector) ** 2 + sum(x * x for x in mode.momentum)
        if esq == 0:
            raise LatticeError(
                f"zero mode is not allowed in massless sector {fsector!r}")
        return esq

    def energy(self, fsector: str, mode: ModeIndex) -> ScalarExpr:
        return ScalarExpr.energy(self.energy_sq(fsector, mode))

    def weight(self, fsector: str, mode: ModeIndex) -> ScalarExpr:
        """(2 E)^{-1/2}."""
        return ScalarExpr.mode_weight(self.energy_sq(fsector, mode))

    def inv_two_energy(self, fsector: str, mode: ModeIndex) -> ScalarExpr:
        """(2 E)^{-1} = weight squared."""
        w = self.weight(fsector, mode)
        return w * w

    def p_lambda(self, fsector: str, mode: ModeIndex, lam: int) -> ScalarExpr:
        """Covariant p_lambda as an exact scalar."""
        if lam == 0:
            return self.energy(fsector, mode)
        return ScalarExpr.rational(mode.momentum[lam - 1])

    def negate(self, mode: ModeIndex) -> ModeIndex | None:
        target = tuple(-x for x in mode.momentum)
        for m in self.modes:
            if m.momentum == target:
                return m
        return None

    @property
    def is_symmetric(self) -> bool:
        return all(self.negate(m) is not None for m in self.modes)

    def require_symmetric(self, what: str):
        if not self.is_symmetric:
            raise LatticeError(
                f"{what} needs a lattice closed under p -> -p")

    def internal_range(self, fsector: str) -> range:
        if fsector in ("scalar", "fermion"):
            return range(self.scalar_dim)
        if fsector == "dirac":
            return range(4)
        if fsector == "ghost":
            return range(self.lie_dim)
        raise FieldError(f"no single internal range for sector {fsector!r}")


@dataclass(frozen=True)
class FieldPoint:
    """Spacetime point: symbolic (names) or concrete (rationals)."""

    t: object  # str or Fraction
    x: object  # str or (Fraction, Fraction, Fraction)

    @staticmethod
    def make(t, x) -> "FieldPoint":
        if not isinstance(t, str):
            t = F(t)
        if not isinstance(x, str):
            x = tuple(F(v) for v in x)
        return FieldPoint(t, x)


def _plane_wave(sign: int, esq: Fraction, momentum, point: FieldPoint,
                factor: Fraction = F(1)) -> list:
    """Phase entries of exp(sign * (-i) * factor * <p, x>)."""
    s = -sign * factor
    entries = []
    e_q = qsum_scale(qsum_sqrt(esq), s)
    if isinstance(point.t, str):
        entries.append((("t", point.t), e_q))
    else:
        entries.append((("c",), qsum_scale(e_q, point.t)))
    if isinstance(point.x, str):
        entries.append((("x", point.x), tuple(s * p for p in momentum)))
    else:
        dot = sum(p * xv for p, xv in zip(momentum, point.x))
        entries.append((("c",), ((1, s * dot),) if dot else ()))
    return entries


def plane_phase(sign: int, esq: Fraction, momentum,
                points: Sequence[tuple]) -> ScalarExpr:
    """exp(-+ i <p, sum_j c_j x_j>) for a formal combination of points."""
    entries = []
    for c, pt in points:
        entries.extend(_plane_wave(sign, esq, momentum, pt, F(c)))
    return ScalarExpr.phase(entries)


@dataclass(frozen=True)
class FieldExpr:
    """A field component: operator-valued sum with phase coefficients."""

    expr: GradedExpr
    sector: str
    component: object
    point: FieldPoint
    lattice: ModeLattice

    def __add__(self, other: "FieldExpr") -> "FieldExpr":
        if self.lattice is not other.lattice:
            raise LatticeError("cannot combine fields from different lattices")
        return FieldExpr(self.expr + other.expr, self.sector, self.component,
                         self.point, self.lattice)

    def scale(self, s: ScalarExpr) -> "FieldExpr":
        return FieldExpr(self.expr.scale(s), self.sector, self.component,
                         self.point, self.lattice)

    def __neg__(self) -> "FieldExpr":
        return self.scale(ScalarExpr.rational(-1))

    def translate(self, shift_name: str) -> "FieldExpr":
        """Shift the spatial argument by a formal vector symbol."""
        if not isinstance(self.point.x, str):
            raise FieldError("translation needs a symbolic position")
        xn = self.point.x
        return FieldExpr(self.expr.map_coeff(lambda c: c.translate_space(xn, shift_name)),
                         self.sector, self.component, self.point, self.lattice)

    def deriv(self, lam: int) -> "FieldExpr":
        """Formal d/dx^lambda acting on the phases."""
        if lam == 0:
            if not isinstance(self.point.t, str):
                raise FieldError("time derivative needs a symbolic time")
            fn = lambda c: c.d_dt(self.point.t)
        else:
            if not isinstance(self.point.x, str):
                raise FieldError("space derivative needs a symbolic position")
            fn = lambda c: c.d_dx(self.point.x, lam - 1)
        return FieldExpr(self.expr.map_coeff(fn), self.sector, self.component,
                         self.point, self.lattice)


# --- elementary generators per sector -----------------------------------

def gen_absorb_up(sector: str, mode: ModeIndex, idx: tuple) -> OpGen:
    return OpGen(ABSORB, UPPER, sector, mode.id, idx)


def gen_absorb_dn(sector: str, mode: ModeIndex, idx: tuple) -> OpGen:
    return OpGen(ABSORB, LOWER, sector, mode.id, idx)


def gen_emit_up(sector: str, mode: ModeIndex, idx: tuple) -> OpGen:
    return OpGen(EMIT, UPPER, sector, mode.id, idx)


def gen_emit_dn(sector: str, mode: ModeIndex, idx: tuple) -> OpGen:
    return OpGen(EMIT, LOWER, sector, mode.id, idx)


# --- Dirac dressing ------------------------------------------------------

def dirac_dressing(lattice: ModeLattice, mode: ModeIndex):
    """(K, Kinv) as 4x4 ScalarExpr matrices, exact for any momentum.

    K = kw * ((m+E) 1 + p_i gamma^i gamma^0), Kinv = gamma^0 K gamma^0.
    """
    m = lattice.mass("dirac")
    esq = lattice.energy_sq("dirac", mode)
    kw = ScalarExpr.boost_weight(m, esq)
    e = ScalarExpr.energy(esq)
    me = e + ScalarExpr.rational(m)
    sg = [[GaussianRational(0)] * 4 for _ in range(4)]
    for i in range(3):
        if mode.momentum[i]:
            blk = GAMMA[i + 1] @ GAMMA[0]
            for a in range(4):
                for b in range(4):
                    sg[a][b] = sg[a][b] + blk.rows[a][b] * mode.momentum[i]
    k = [[ScalarExpr.zero()] * 4 for _ in range(4)]
    kinv = [[ScalarExpr.zero()] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(4):
            diag = me if a == b else ScalarExpr.zero()
            off = ScalarExpr.gaussian(sg[a][b])
            k[a][b] = kw * (diag + off)
            kinv[a][b] = kw * (diag - off)
    return k, kinv


# --- field constructors ---------------------------------------------------

def _generic_expansions(s: str) -> dict:
    """Table entries of a generic sector s; its operator sector is s too."""
    # anti-particle absorption in the conjugate: +1 for bosons, -1 for fermions
    odd = -1 if FIELD_SECTORS[s] else 1
    return {
        ("field", s): ((ABSORB, UPPER, s, +1, 1, None), (EMIT, UPPER, s, -1, 1, None)),
        ("conjugate", s): ((ABSORB, LOWER, s, +1, odd, None),
                           (EMIT, LOWER, s, -1, 1, None)),
        ("star", s): ((EMIT, UPPER, s, +1, 1, None), (ABSORB, UPPER, s, -1, 1, None)),
        ("conj_C", s): ((ABSORB, LOWER, s, -1, 1, None), (EMIT, LOWER, s, +1, 1, None)),
        ("conj_C_star", s): ((EMIT, LOWER, s, -1, 1, None),
                             (ABSORB, LOWER, s, +1, 1, None)),
    }


#: (constructor, field sector) -> rows of the expansion over one lattice
#: mode: (species, index position, operator sector, phase sign, sign,
#: dressing).  Phase sign +1 is e^{-i<p,x>}, -1 its conjugate.  A Dirac
#: row repeats over the two spin slots s with coefficient k[al][s + o]
#: (dressing ("k", o)) or kinv[s + o][al] (("kinv", o)); every other row
#: keeps the component's own internal index.
_EXPANSIONS = {
    **_generic_expansions("scalar"),
    **_generic_expansions("fermion"),
    ("field", "dirac"): (
        (ABSORB, UPPER, "dirac_particle", +1, 1, ("k", 0)),
        (EMIT, UPPER, "dirac_antiparticle", -1, 1, ("k", 2))),
    ("field", "gauge"): ((ABSORB, UPPER, "gauge", +1, 1, None),
                         (EMIT, UPPER, "gauge", -1, 1, None)),
    ("field", "ghost"): ((ABSORB, UPPER, "ghost", +1, 1, None),
                         (EMIT, UPPER, "antighost", -1, 1, None)),
    ("conjugate", "dirac"): (
        (ABSORB, LOWER, "dirac_antiparticle", +1, -1, ("kinv", 2)),
        (EMIT, LOWER, "dirac_particle", -1, 1, ("kinv", 0))),
    ("conjugate", "ghost"): ((ABSORB, LOWER, "antighost", +1, -1, None),
                             (EMIT, LOWER, "ghost", -1, 1, None)),
}


def _expand(kind: str, sector: str, component, x: FieldPoint,
            lattice: ModeLattice) -> FieldExpr:
    """Mode sum of one table entry; the caller has vetted ``sector``."""
    rows = _EXPANSIONS[(kind, sector)]
    if sector == "gauge":
        lam, li = component
        internal = (lam, li)
    else:
        internal = (int(component),)
    dirac = sector == "dirac"
    acc: dict = {}
    for mode in lattice.modes:
        w = lattice.weight(sector, mode)
        esq = lattice.energy_sq(sector, mode)
        phase = {sign: plane_phase(sign, esq, mode.momentum, [(1, x)])
                 for sign in (+1, -1)}
        k, kinv = dirac_dressing(lattice, mode) if dirac else (None, None)
        for slot in (range(2) if dirac else (None,)):
            for species, position, op_sector, ph, sign, dressing in rows:
                if dressing is None:
                    coeff, idx = w * phase[ph], internal
                else:
                    mat, off = dressing
                    al = internal[0]
                    entry = k[al][slot + off] if mat == "k" else kinv[slot + off][al]
                    coeff, idx = entry * w * phase[ph], (slot,)
                if sign != 1:
                    coeff = coeff * ScalarExpr.rational(sign)
                add_term(acc, (OpGen(species, position, op_sector, mode.id, idx),),
                         coeff)
    return FieldExpr(GradedExpr(acc), sector, component, x, lattice)


def field(sector: str, component, x: FieldPoint, lattice: ModeLattice) -> FieldExpr:
    """The free field component at x (particle absorption plus
    anti-particle emission)."""
    if ("field", sector) not in _EXPANSIONS:
        raise FieldError(f"unknown field sector {sector!r}")
    return _expand("field", sector, component, x, lattice)


def conjugate_field(sector: str, component, x: FieldPoint,
                    lattice: ModeLattice) -> FieldExpr:
    """The conjugate free field: particle emission and anti-particle
    absorption, the latter with +1 for bosons and -1 for fermions."""
    if sector in ("gauge", "nl"):
        raise RealSectorError(f"sector {sector!r} is real; no conjugate field")
    if ("conjugate", sector) not in _EXPANSIONS:
        raise FieldError(f"unknown field sector {sector!r}")
    return _expand("conjugate", sector, component, x, lattice)


def star_field(sector: str, component, x: FieldPoint, lattice: ModeLattice) -> FieldExpr:
    """Operator transpose of the field: emissions ride the absorption
    phase and vice versa (generic sectors only)."""
    if ("star", sector) not in _EXPANSIONS:
        raise FieldError("star_field is defined for the generic sectors")
    return _expand("star", sector, component, x, lattice)


def conj_C_field(sector: str, component, x: FieldPoint, lattice: ModeLattice,
                 star: bool = False) -> FieldExpr:
    """Plain complex conjugate of the field (and its transpose when
    ``star``): lowered-index operators with observer-dependent phases."""
    kind = "conj_C_star" if star else "conj_C"
    if (kind, sector) not in _EXPANSIONS:
        raise FieldError("conj_C_field is defined for the generic sectors")
    return _expand(kind, sector, component, x, lattice)


def species_phase_consistent(f: FieldExpr) -> bool:
    """Invariant of linear field expressions: absorption operators ride
    e^{-i<p,x>} (negative on-shell time frequency) and emissions the
    conjugate phase.  Checkable whenever the time argument is symbolic."""
    if not isinstance(f.point.t, str):
        return True
    key = ("t", f.point.t)
    for word, coeff in f.expr.terms.items():
        if len(word) != 1:
            return False  # not a linear field expression
        want = 1 if word[0].species == EMIT else -1
        for (_, _, phase) in coeff.terms:
            freq = dict(phase).get(key)
            if not freq:
                return False
            # radicands are positive, so each coefficient sign is the sign
            # of its sqrt term; all must match the species
            if any((1 if c > 0 else -1) != want for _, c in freq):
                return False
    return True


# --- super-commutators and propagators -----------------------------------

def field_supercommutator(f: FieldExpr, g: FieldExpr) -> ScalarExpr:
    """Super-bracket of two field components; central, so a ScalarExpr."""
    if f.lattice is not g.lattice:
        raise LatticeError("fields live on different lattices")
    br = super_bracket(f.expr, g.expr)
    op = br.operator_part()
    if not op.is_zero():
        raise FieldError("field super-commutator is not central")
    return br.scalar_part()


def propagator_D(sign: int, points: Sequence[tuple], lattice: ModeLattice,
                 fsector: str, deriv: int | None = None) -> ScalarExpr:
    """D+ (sign=+1) or D- (sign=-1) mode sum at a formal point combination;
    ``deriv`` inserts the -i p_lambda factor of the derivative."""
    if sign not in (1, -1):
        raise FieldError("propagator sign must be +1 or -1")

    def mode_term(mode) -> ScalarExpr:
        esq = lattice.energy_sq(fsector, mode)
        term = lattice.inv_two_energy(fsector, mode) * \
            plane_phase(sign, esq, mode.momentum, points)
        if deriv is None:
            return term * ScalarExpr.rational(sign)
        return term * ScalarExpr.gaussian(GaussianRational(0, -1)) * \
            lattice.p_lambda(fsector, mode, deriv)

    return ScalarExpr.sum(mode_term(mode) for mode in lattice.modes)


def propagator_D_total(points, lattice, fsector, deriv=None) -> ScalarExpr:
    return propagator_D(+1, points, lattice, fsector, deriv) + \
        propagator_D(-1, points, lattice, fsector, deriv)


def delta_lattice(points: Sequence[tuple], lattice: ModeLattice) -> ScalarExpr:
    """sum_p e^{i p . (sum_j c_j x_j)} -- the lattice spatial delta."""

    def mode_phase(mode) -> ScalarExpr:
        entries = []
        for c, pt in points:
            if isinstance(pt.x, str):
                entries.append((("x", pt.x), tuple(F(c) * p for p in mode.momentum)))
            else:
                dot = sum(p * xv for p, xv in zip(mode.momentum, pt.x)) * F(c)
                entries.append((("c",), ((1, dot),) if dot else ()))
        return ScalarExpr.phase(entries)

    return ScalarExpr.sum(mode_phase(mode) for mode in lattice.modes)


# --- equal-time suite -----------------------------------------------------

@dataclass(frozen=True)
class IdentityCheck:
    name: str
    anchor: str
    ok: bool
    residual_terms: int
    note: str = ""


def _check(name, anchor, computed, target, note="") -> IdentityCheck:
    if isinstance(computed, GradedExpr) or isinstance(target, GradedExpr):
        comp = computed if isinstance(computed, GradedExpr) else GradedExpr.unit(computed)
        targ = target if isinstance(target, GradedExpr) else GradedExpr.unit(target)
        resid = comp - targ
        return IdentityCheck(name, anchor, resid.is_zero(), resid.n_terms, note)
    resid = computed - target
    return IdentityCheck(name, anchor, resid.is_zero(), resid.n_terms, note)


def equal_time_report(lattice: ModeLattice, constants=None,
                      sectors=("scalar", "dirac", "gauge", "ghost")) -> list:
    """Check the canonical equal-time super-commutators sector by sector.

    ``constants`` are the gauge structure constants (nested Fractions);
    when omitted the abelian limit is used for the composite momenta.
    """
    lattice.require_symmetric("the equal-time suite")
    t = "t"
    x = FieldPoint.make(t, "x")
    y = FieldPoint.make(t, "y")
    xy = [(1, x), (-1, y)]
    checks: list[IdentityCheck] = []
    i_ = ScalarExpr.i()
    dlat = delta_lattice(xy, lattice)

    if "scalar" not in sectors:
        phi = []
    else:
        phi = [field("scalar", a, x, lattice)
               for a in lattice.internal_range("scalar")]
    phib = [conjugate_field("scalar", a, y, lattice)
            for a in lattice.internal_range("scalar")] if phi else []
    for a in (lattice.internal_range("scalar") if phi else ()):
        for b in lattice.internal_range("scalar"):
            d_ab = ScalarExpr.one() if a == b else ScalarExpr.zero()
            checks.append(_check(
                f"scalar.eqt.comm[{a}{b}]",
                "[phi^a(x), phibar_b(y)] = 0 at x0=y0",
                field_supercommutator(phi[a], phib[b]), ScalarExpr.zero()))
            checks.append(_check(
                f"scalar.eqt.dt_left[{a}{b}]",
                "[d0 phi^a(x), phibar_b(y)] = -i d^a_b dlat(x-y)",
                field_supercommutator(phi[a].deriv(0), phib[b]),
                -(i_ * d_ab * dlat)))
            checks.append(_check(
                f"scalar.eqt.dt_right[{a}{b}]",
                "[phi^a(x), d0 phibar_b(y)] = +i d^a_b dlat(x-y)",
                field_supercommutator(phi[a], phib[b].deriv(0)),
                i_ * d_ab * dlat))
            checks.append(_check(
                f"scalar.eqt.pi[{a}{b}]",
                "[phi^a(x), Pi_b(y)] = (i/2) d^a_b dlat(x-y), Pi = (1/2) d0 phibar",
                field_supercommutator(phi[a], phib[b].deriv(0).scale(
                    ScalarExpr.rational(F(1, 2)))),
                i_ * d_ab * dlat * ScalarExpr.rational(F(1, 2))))
            checks.append(_check(
                f"scalar.eqt.phiphi[{a}{b}]",
                "[phi^a(x), phi^b(y)] = 0",
                field_supercommutator(phi[a], field("scalar", b, y, lattice)),
                ScalarExpr.zero()))
            checks.append(_check(
                f"scalar.eqt.pipi[{a}{b}]",
                "[Pi_a(x), Pi_b(y)] = 0 at x0=y0",
                field_supercommutator(
                    conjugate_field("scalar", a, x, lattice).deriv(0),
                    phib[b].deriv(0)),
                ScalarExpr.zero()))

    # Dirac sector, with the sqrt(2m) rescaling absorbed
    m = lattice.mass("dirac")
    scale = ScalarExpr.sqrt_rational(2 * m)
    dirac_range = range(4) if "dirac" in sectors else range(0)
    psi = [field("dirac", al, y, lattice).scale(scale) for al in dirac_range]
    psib = [conjugate_field("dirac", al, x, lattice).scale(scale)
            for al in dirac_range]
    for al in dirac_range:
        for be in range(4):
            # Pi_al = i (psibar gamma0)_al
            pi_al = GradedExpr.sum(
                psib[rho].expr.scale(i_ * ScalarExpr.gaussian(g0))
                for rho, g0 in enumerate(GAMMA[0].column(al)) if not g0.is_zero())
            br = super_bracket(pi_al, psi[be].expr)
            d_ab = ScalarExpr.one() if al == be else ScalarExpr.zero()
            checks.append(_check(
                f"dirac.eqt.pi_psi[{al}{be}]",
                "{Pi_a(x), psi^b(y)} = i d^b_a dlat(x-y), Pi = i (psibar gamma0)",
                br, GradedExpr.unit(i_ * d_ab * dlat)))
    # {psibar_a(x), (gamma0 psi)^b(y)} = (1/2m) d^b_a dlat with unscaled fields
    psiu = [field("dirac", al, y, lattice) for al in dirac_range]
    psibu = [conjugate_field("dirac", al, x, lattice) for al in dirac_range]
    for al in dirac_range:
        for be in range(4):
            g0psi = GradedExpr.sum(
                psiu[rho].expr.scale(ScalarExpr.gaussian(g0))
                for rho, g0 in enumerate(GAMMA[0].rows[be]) if not g0.is_zero())
            br = super_bracket(psibu[al].expr, g0psi)
            d_ab = ScalarExpr.rational(F(1, 2) / m) if al == be else ScalarExpr.zero()
            checks.append(_check(
                f"dirac.eqt.bar_g0psi[{al}{be}]",
                "{psibar_a(x), (gamma0 psi)^b(y)} = (1/2m) d^b_a dlat(x-y)",
                br, GradedExpr.unit(d_ab * dlat)))

    # gauge sector, Feynman gauge
    if "gauge" in sectors:
        checks.extend(gauge_equal_time_checks(lattice, constants))

    # ghost sector
    ghost_range = range(lattice.lie_dim) if "ghost" in sectors else range(0)
    for li in ghost_range:
        for lj in range(lattice.lie_dim):
            om = field("ghost", lj, y, lattice)
            omb = conjugate_field("ghost", li, x, lattice)
            d_ij = ScalarExpr.one() if li == lj else ScalarExpr.zero()
            checks.append(_check(
                f"ghost.eqt.dbar_om[{li}{lj}]",
                "{d0 omegabar_J(x), omega^I(y)} = i d^I_J dlat(x-y)",
                field_supercommutator(omb.deriv(0), om), i_ * d_ij * dlat))
            checks.append(_check(
                f"ghost.eqt.dom_bar[{li}{lj}]",
                "{d0 omega^I(x), omegabar_J(y)} = -i d^I_J dlat(x-y)",
                field_supercommutator(
                    field("ghost", lj, x, lattice).deriv(0),
                    conjugate_field("ghost", li, y, lattice)),
                -(i_ * d_ij * dlat)))
            checks.append(_check(
                f"ghost.eqt.bar_om[{li}{lj}]",
                "{omegabar_I(x), omega^J(y)} = 0 at x0=y0",
                field_supercommutator(omb, om), ScalarExpr.zero()))
            checks.append(_check(
                f"ghost.eqt.bar_A0[{li}{lj}]",
                "{omegabar_I(x), A^J_0(y)} = 0",
                field_supercommutator(omb, field("gauge", (0, lj), y, lattice)),
                ScalarExpr.zero()))
            # {omega^I(x), Pi_J(y)} with Pi_J[omega] = d0 omegabar_J
            checks.append(_check(
                f"ghost.eqt.om_pi[{li}{lj}]",
                "{omega^I(x), Pi_J(y)} = i d^I_J dlat(x-y), Pi_J = d0 omegabar_J",
                field_supercommutator(
                    field("ghost", li, x, lattice),
                    conjugate_field("ghost", lj, y, lattice).deriv(0)),
                i_ * d_ij * dlat))
    # {omegabar_J(x), Pi^I(y)} with the full covariant momentum
    if "ghost" in sectors:
        checks.extend(ghost_momentum_checks(lattice, constants))
    return checks


def gauge_equal_time_checks(lattice: ModeLattice, constants=None) -> list:
    """[A, Pi] in Feynman gauge, with the quadratic momentum terms kept."""
    lattice.require_symmetric("the gauge equal-time suite")
    t = "t"
    x = FieldPoint.make(t, "x")
    y = FieldPoint.make(t, "y")
    dlat = delta_lattice([(1, x), (-1, y)], lattice)
    i_ = ScalarExpr.i()
    checks = []
    a_at = {}
    for lam in range(4):
        for li in range(lattice.lie_dim):
            a_at[(lam, li, "y")] = field("gauge", (lam, li), y, lattice)
            a_at[(lam, li, "x")] = field("gauge", (lam, li), x, lattice)

    def pi_up(mu: int, lj: int) -> GradedExpr:
        # g^{mu nu}(-A_{J nu,0} + A_{J 0,nu} - c_{JKH} A^K_nu A^H_0)
        #   - g^{mu 0} g^{nu rho} A^J_{nu,rho}
        # the metric is diagonal: only nu = mu contributes to g^{mu nu}
        gmn = METRIC[mu]
        acc = dict(a_at[(mu, lj, "y")].deriv(0).expr.scale(
            ScalarExpr.rational(-gmn)).terms)
        add_into(acc, a_at[(0, lj, "y")].deriv(mu).expr.scale(
            ScalarExpr.rational(gmn)).terms)
        if constants is not None:
            d = len(constants)
            for kk in range(d):
                for hh in range(d):
                    c = constants[lj][kk][hh]
                    if c == 0:
                        continue
                    prod = koszul_product(
                        a_at[(mu, kk, "y")].expr, a_at[(0, hh, "y")].expr,
                        "modified")
                    add_into(acc, prod.scale(ScalarExpr.rational(-gmn * c)).terms)
        if mu == 0:
            for nu in range(4):
                add_into(acc, a_at[(nu, lj, "y")].deriv(nu).expr.scale(
                    ScalarExpr.rational(-METRIC[nu])).terms)
        return GradedExpr(acc)

    for lam in range(4):
        for mu in range(4):
            for li in range(lattice.lie_dim):
                for lj in range(lattice.lie_dim):
                    br = super_bracket(a_at[(lam, li, "x")].expr, pi_up(mu, lj))
                    want = -(i_ * dlat) if (lam == mu and li == lj) else ScalarExpr.zero()
                    checks.append(_check(
                        f"gauge.eqt.A_pi[{lam}{mu}{li}{lj}]",
                        "[A^I_lam(x), Pi^mu_J(y)] = -i d^mu_lam d^I_J dlat(x-y), xi=1",
                        br, GradedExpr.unit(want)))
    # [A, A] = 0 at equal times (one representative pair per index choice)
    for lam in range(4):
        for mu in range(lam, 4):
            br = super_bracket(a_at[(lam, 0, "x")].expr, a_at[(mu, 0, "y")].expr)
            checks.append(_check(
                f"gauge.eqt.A_A[{lam}{mu}]",
                "[A^I_lam(x), A^J_mu(y)] = 0 at x0=y0",
                br, GradedExpr.zero()))
    return checks


def ghost_momentum_checks(lattice: ModeLattice, constants=None) -> list:
    """{omegabar_J(x), Pi^I(y)} = i d^I_J dlat with
    Pi^I = -(d0 omega^I + c^I_KH omega^K A^H_0)."""
    lattice.require_symmetric("the ghost momentum suite")
    t = "t"
    x = FieldPoint.make(t, "x")
    y = FieldPoint.make(t, "y")
    dlat = delta_lattice([(1, x), (-1, y)], lattice)
    i_ = ScalarExpr.i()
    checks = []
    for li in range(lattice.lie_dim):
        for lj in range(lattice.lie_dim):
            acc = dict(field("ghost", li, y, lattice).deriv(0).expr.scale(
                ScalarExpr.rational(-1)).terms)
            if constants is not None:
                d = len(constants)
                for kk in range(d):
                    for hh in range(d):
                        c = constants[li][kk][hh]
                        if c == 0:
                            continue
                        prod = koszul_product(
                            field("ghost", kk, y, lattice).expr,
                            field("gauge", (0, hh), y, lattice).expr,
                            "modified")
                        add_into(acc, prod.scale(ScalarExpr.rational(-c)).terms)
            pi = GradedExpr(acc)
            omb = conjugate_field("ghost", lj, x, lattice)
            br = super_bracket(omb.expr, pi)
            want = (i_ * dlat) if li == lj else ScalarExpr.zero()
            checks.append(_check(
                f"ghost.eqt.bar_pi[{lj}{li}]",
                "{omegabar_J(x), Pi^I(y)} = i d^I_J dlat(x-y)",
                br, GradedExpr.unit(want)))
    return checks
