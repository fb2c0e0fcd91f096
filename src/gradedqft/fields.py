"""Mode-lattice free quantum fields, their conjugates and propagators.

Conventions, fixed once for the whole engine:

* metric (+,-,-,-); a lattice mode stores the covariant spatial momentum
  components, so p_lambda = (E, p1, p2, p3) literally and
  <p, x> = E t + p . x.
* a field at x = (t, x) is a sum over lattice modes of

      w_p * dressing * ( e^{-i<p,x>} absorption + e^{+i<p,x>} emission )

  with w_p = (2 E)^{-1/2}; absorption operators always ride the
  e^{-i<p,x>} phase.  Only these field rows are written out, one pair
  per sector; the Dirac field is dressed with the boost K(p) of
  ``gammas.boost`` (exact for every momentum), the same K the dirac
  identities check.
* every other constructor follows from the field rows by two row maps:
  the transpose swaps absorption and emission (``star_field``), the
  plain conjugate lowers the index and conjugates the phase
  (``conj_C_field``), and both give ``conj_C_field(star=True)``.
* the conjugate field is both maps with the absorption row first, that
  row's sign multiplied by (-1)^parity, and the dressing K mapped to
  K^-1 = gamma^0 K+ gamma^0: particle emission and +/- anti-particle
  absorption, plus for bosons and minus for fermions (for ghosts the
  minus lands on the anti-ghost absorption).  The real gauge field has
  no conjugate.

Propagator mode sums:

    D+-(y) = +- sum_p (2 E)^{-1} e^{-+ i <p,y>}
    D+-_{,lam}(y) = -i sum_p (2 E)^{-1} p_lam e^{-+ i <p,y>}

Equal-time identities cancel term-by-term only when the lattice is
closed under p -> -p; the report functions check that up front.  The
gauge and ghost momenta are not written out: each is read off the fiber
Lagrangians of ``bv`` as Pi_c = (-1)^{|c|} L D~_{c,0}, the textbook right
derivative by the velocity, and mapped to field operators by one
dictionary (A^K_nu -> gauge field (nu, K), omega^I -> ghost, omegabar_I
-> its conjugate, n^I -> -f^I in Feynman gauge; words -> modified
products).  The scalar and Dirac momenta stay written out.

Everything built from the lattice alone -- the per-mode rows (E^2, E,
w_p, (2 E)^{-1}), the Dirac dressings, the field expansions and the
propagator mode sums -- is built once per lattice, on first use, and
shared as an immutable value by every later caller.  A plane wave
depends only on its arguments, so it is built once per process.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from . import bv
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
from .gammas import GAMMA, METRIC, OnShellMomentum, boost
from .linear import add_term
from .scalars import (
    Frozen,
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


class ModeRow(Frozen):
    """Everything one lattice mode contributes in one sector, as exact
    values: E^2, E, the field weight w = (2 E)^{-1/2} and (2 E)^{-1} = w^2."""

    __slots__ = __match_args__ = ("energy_sq", "energy", "weight",
                                  "inv_two_energy")

    def __init__(self, energy_sq: Fraction, energy: ScalarExpr,
                 weight: ScalarExpr, inv_two_energy: ScalarExpr):
        object.__setattr__(self, "energy_sq", energy_sq)
        object.__setattr__(self, "energy", energy)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "inv_two_energy", inv_two_energy)


#: the largest numerator x denominator of a mode's E^2 that a lattice
#: accepts: the exact square roots of E^2 factor that product by trial
#: division, about 0.2 s at this size
MAX_ENERGY_SQ_SIZE = 10 ** 12

#: the largest scalar_dim that a lattice accepts: the scalar and fermion
#: checks grow about as its square, and `verify` of every suite but
#: `oracle` on the default lattice takes about 6 s at this size on two CPUs
MAX_SCALAR_DIM = 64


def _energy_sq(mass: Fraction, mode: ModeIndex) -> Fraction:
    return mass ** 2 + sum(x * x for x in mode.momentum)


def _mode_row(lattice: "ModeLattice", fsector: str, mode: ModeIndex) -> ModeRow:
    esq = _energy_sq(lattice.mass(fsector), mode)
    if esq == 0:
        raise LatticeError(
            f"zero mode is not allowed in massless sector {fsector!r}")
    w = ScalarExpr.mode_weight(esq)
    return ModeRow(esq, ScalarExpr.energy(esq), w, w * w)


class ModeLattice(Frozen):
    """Finite momentum lattice with per-sector masses and internal sizes.

    The lattice never changes (``masses`` is a read-only mapping), so what
    is derived from it alone -- mode rows, Dirac dressings, field
    expansions and propagator sums -- is built on first use and kept in a
    private memo that lives and dies with the lattice.  A build that raises
    stores nothing, so a bad request raises again every time.  No memo
    value refers back to the lattice (the memo keeps a field's operator
    expression, not the ``FieldExpr``), so a lattice that nobody holds is
    freed at once rather than by the cycle collector.  Equality, copies and
    pickles read the four defining values, never the memo.
    """

    __match_args__ = ("modes", "masses", "scalar_dim", "lie_dim")

    def __init__(self, modes: tuple, masses: Mapping, scalar_dim: int = 2,
                 lie_dim: int = 1):
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "masses", MappingProxyType(dict(masses)))
        object.__setattr__(self, "scalar_dim", scalar_dim)
        object.__setattr__(self, "lie_dim", lie_dim)
        object.__setattr__(self, "_memo", {})

    def __eq__(self, other):
        if type(other) is not ModeLattice:
            return NotImplemented
        return (self.modes, self.masses, self.scalar_dim, self.lie_dim) == \
            (other.modes, other.masses, other.scalar_dim, other.lie_dim)

    def __reduce__(self):
        # a copy rebuilds the read-only masses from a plain dict
        return ModeLattice, (self.modes, dict(self.masses), self.scalar_dim,
                             self.lie_dim)

    @staticmethod
    def make(momenta: Iterable, masses: Mapping | None = None,
             scalar_dim: int = 2, lie_dim: int = 1) -> "ModeLattice":
        if scalar_dim > MAX_SCALAR_DIM:
            raise LatticeError(f"scalar_dim = {scalar_dim} exceeds "
                               f"{MAX_SCALAR_DIM}, the largest a lattice accepts")
        modes = tuple(ModeIndex(i, m) for i, m in enumerate(momenta))
        seen = set()
        for m in modes:
            if len(m.momentum) != 3:
                raise LatticeError(f"momentum ({', '.join(map(str, m.momentum))}) "
                                   "needs 3 components")
            if m.momentum in seen:
                raise LatticeError(f"duplicate lattice momentum {m.momentum}")
            seen.add(m.momentum)
        mm = {"scalar": F(1), "fermion": F(1), "dirac": F(1),
              "gauge": F(0), "ghost": F(0)}
        for k, v in (masses or {}).items():
            if k not in mm:
                raise LatticeError(f"unknown mass sector {k!r} (have {sorted(mm)})")
            mm[k] = F(v)
        for sec in ("gauge", "ghost"):
            if mm[sec] != 0:
                raise LatticeError(f"{sec} sector must be massless")
        for sec in ("scalar", "fermion", "dirac"):
            if mm[sec] <= 0:
                raise LatticeError(f"{sec} sector needs a positive mass")
        for m in modes:
            for sec, mass in mm.items():
                esq = _energy_sq(mass, m)
                if esq.numerator * esq.denominator > MAX_ENERGY_SQ_SIZE:
                    raise LatticeError(
                        f"momentum ({', '.join(map(str, m.momentum))}) gives the "
                        f"{sec} sector E^2 = {esq}, whose numerator times "
                        f"denominator exceeds {MAX_ENERGY_SQ_SIZE}")
        return ModeLattice(modes, mm, scalar_dim, lie_dim)

    def _cached(self, key: tuple, build: Callable[[], object]):
        """The memo entry for ``key``, built by ``build()`` on first use."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    def mass(self, fsector: str) -> Fraction:
        return self.masses[fsector]

    def row(self, fsector: str, mode: ModeIndex) -> ModeRow:
        return self._cached(("row", fsector, mode),
                           lambda: _mode_row(self, fsector, mode))

    def energy_sq(self, fsector: str, mode: ModeIndex) -> Fraction:
        return self.row(fsector, mode).energy_sq

    def energy(self, fsector: str, mode: ModeIndex) -> ScalarExpr:
        return self.row(fsector, mode).energy

    def inv_two_energy(self, fsector: str, mode: ModeIndex) -> ScalarExpr:
        """(2 E)^{-1} = weight squared."""
        return self.row(fsector, mode).inv_two_energy

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


class FieldPoint(Frozen):
    """Spacetime point: symbolic (names) or concrete (rationals).  ``t`` is
    a str or a Fraction, ``x`` a str or (Fraction, Fraction, Fraction).
    Points key the lattice memos and the phase table, so the hash of the
    values is taken once."""

    __match_args__ = ("t", "x")
    __slots__ = __match_args__ + ("_hash",)

    def __init__(self, t, x):
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "_hash", hash((t, x)))

    def __eq__(self, other):
        if type(other) is not FieldPoint:
            return NotImplemented
        return self.t == other.t and self.x == other.x

    def __hash__(self):
        return self._hash

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


#: (sign, esq, momentum, points) -> plane_phase, shared by every lattice
_PHASES: dict = {}


def plane_phase(sign: int, esq: Fraction, momentum,
                points: Sequence[tuple]) -> ScalarExpr:
    """exp(-+ i <p, sum_j c_j x_j>) for a formal combination of points;
    built once per process for each argument tuple."""
    key = (sign, esq, tuple(momentum), tuple(points))
    phase = _PHASES.get(key)
    if phase is None:
        entries = []
        for c, pt in points:
            entries.extend(_plane_wave(sign, esq, momentum, pt, F(c)))
        phase = _PHASES[key] = ScalarExpr.phase(entries)
    return phase


class FieldExpr(Frozen):
    """A field component: operator-valued sum with phase coefficients."""

    __slots__ = __match_args__ = ("expr", "sector", "component", "point",
                                  "lattice")

    def __init__(self, expr: GradedExpr, sector: str, component,
                 point: FieldPoint, lattice: ModeLattice):
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "sector", sector)
        object.__setattr__(self, "component", component)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "lattice", lattice)

    def __eq__(self, other):
        if type(other) is not FieldExpr:
            return NotImplemented
        return (self.expr, self.sector, self.component, self.point,
                self.lattice) == (other.expr, other.sector, other.component,
                                  other.point, other.lattice)

    def translate(self, shift_name: str) -> "FieldExpr":
        """Shift the spatial argument by a formal vector symbol."""
        if not isinstance(self.point.x, str):
            raise FieldError("translation needs a symbolic position")
        xn = self.point.x
        return FieldExpr(self.expr.map_coeff(lambda c: c.translate_space(xn, shift_name)),
                         self.sector, self.component, self.point, self.lattice)

    def deriv(self, lam: int) -> "FieldExpr":
        """Formal d/dx^lambda acting on the phases."""
        if lam not in range(4):
            raise FieldError(f"derivative index {lam!r} is outside 0..3")
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


# --- Dirac dressing ------------------------------------------------------

def dirac_dressing(lattice: ModeLattice, mode: ModeIndex):
    """(K, Kinv) = ``gammas.boost`` of the mode, built once per lattice and mode."""
    return lattice._cached(("dressing", mode), lambda: boost(
        OnShellMomentum.make(mode.momentum, lattice.mass("dirac"))))


# --- field constructors ---------------------------------------------------

#: sector -> rows of its field over one lattice mode: (species, index
#: position, operator sector, phase sign, sign, dressing).  Phase sign +1 is
#: e^{-i<p,x>}, -1 its conjugate.  A Dirac row repeats over the two spin
#: slots s with coefficient k[al, s + o] (dressing ("k", o)) or
#: kinv[s + o, al] (("kinv", o)); every other row keeps the component's own
#: internal index.  Every other constructor follows from these rows.
_FIELD_ROWS = {
    "scalar": ((ABSORB, UPPER, "scalar", +1, 1, None),
               (EMIT, UPPER, "scalar", -1, 1, None)),
    "fermion": ((ABSORB, UPPER, "fermion", +1, 1, None),
                (EMIT, UPPER, "fermion", -1, 1, None)),
    "dirac": ((ABSORB, UPPER, "dirac_particle", +1, 1, ("k", 0)),
              (EMIT, UPPER, "dirac_antiparticle", -1, 1, ("k", 2))),
    "gauge": ((ABSORB, UPPER, "gauge", +1, 1, None),
              (EMIT, UPPER, "gauge", -1, 1, None)),
    "ghost": ((ABSORB, UPPER, "ghost", +1, 1, None),
              (EMIT, UPPER, "antighost", -1, 1, None)),
}


def _transpose(rows: tuple) -> tuple:
    """Operator transpose: absorption and emission trade places."""
    return tuple((EMIT if sp == ABSORB else ABSORB, *rest) for sp, *rest in rows)


def _plain_conjugate(rows: tuple) -> tuple:
    """Plain complex conjugate: lowered index, conjugated phase."""
    return tuple((sp, LOWER, op, -ph, *rest) for sp, _, op, ph, *rest in rows)


def _conjugate(rows: tuple, parity: int) -> tuple:
    """The conjugate field, both maps: absorption row first, its sign
    (-1)^parity, and the dressing K -> K^-1."""
    both = sorted(_transpose(_plain_conjugate(rows)), key=lambda r: r[0] != ABSORB)
    return tuple((sp, pos, op, ph, sign * (-1) ** parity if sp == ABSORB else sign,
                  None if dressing is None else ("kinv", dressing[1]))
                 for sp, pos, op, ph, sign, dressing in both)


#: (constructor, field sector) -> rows, all derived from ``_FIELD_ROWS``:
#: star, conj_C and conj_C_star (the two maps and both) for the generic
#: sectors, and the conjugate for every sector but the real gauge field.
_EXPANSIONS = {}
for _s, _rows in _FIELD_ROWS.items():
    _EXPANSIONS["field", _s] = _rows
    if _s in ("scalar", "fermion"):
        _EXPANSIONS["star", _s] = _transpose(_rows)
        _EXPANSIONS["conj_C", _s] = _plain_conjugate(_rows)
        _EXPANSIONS["conj_C_star", _s] = _transpose(_plain_conjugate(_rows))
    if _s != "gauge":
        _EXPANSIONS["conjugate", _s] = _conjugate(_rows, FIELD_SECTORS[_s])


def _expand(kind: str, sector: str, component, x: FieldPoint,
            lattice: ModeLattice) -> FieldExpr:
    """Mode sum of one table entry, a FieldError when the table holds none.
    The operator expression is built once per lattice for each (kind,
    sector, internal index, point) and shared by every FieldExpr."""
    if (kind, sector) not in _EXPANSIONS:
        raise FieldError(f"no {kind} expansion for sector {sector!r}")
    if sector == "gauge":
        lam, li = component
        internal = (lam, li)
        inside = lam in range(4) and li in range(lattice.lie_dim)
    else:
        internal = (int(component),)
        inside = internal[0] in lattice.internal_range(sector)
    if not inside:
        raise FieldError(f"component {component!r} is outside the {sector} sector")
    expr = lattice._cached(("expand", kind, sector, internal, x),
                           lambda: _mode_sum(kind, sector, internal, x, lattice))
    return FieldExpr(expr, sector, component, x, lattice)


def _mode_sum(kind: str, sector: str, internal: tuple, x: FieldPoint,
              lattice: ModeLattice) -> GradedExpr:
    rows = _EXPANSIONS[(kind, sector)]
    dirac = sector == "dirac"
    acc: dict = {}
    for mode in lattice.modes:
        row = lattice.row(sector, mode)
        w = row.weight
        phase = {sign: plane_phase(sign, row.energy_sq, mode.momentum, [(1, x)])
                 for sign in (+1, -1)}
        k, kinv = dirac_dressing(lattice, mode) if dirac else (None, None)
        for slot in (range(2) if dirac else (None,)):
            for species, position, op_sector, ph, sign, dressing in rows:
                if dressing is None:
                    coeff, idx = w * phase[ph], internal
                else:
                    mat, off = dressing
                    al = internal[0]
                    entry = k[al, slot + off] if mat == "k" else kinv[slot + off, al]
                    coeff, idx = entry * w * phase[ph], (slot,)
                if sign != 1:
                    coeff = coeff * ScalarExpr.rational(sign)
                add_term(acc, (OpGen(species, position, op_sector, mode.id, idx),),
                         coeff)
    return GradedExpr(acc)


def field(sector: str, component, x: FieldPoint, lattice: ModeLattice) -> FieldExpr:
    """The free field component at x (particle absorption plus
    anti-particle emission)."""
    return _expand("field", sector, component, x, lattice)


def conjugate_field(sector: str, component, x: FieldPoint,
                    lattice: ModeLattice) -> FieldExpr:
    """The conjugate free field: particle emission and anti-particle
    absorption, the latter with +1 for bosons and -1 for fermions."""
    if sector in ("gauge", "nl"):
        raise RealSectorError(f"sector {sector!r} is real; no conjugate field")
    return _expand("conjugate", sector, component, x, lattice)


def star_field(sector: str, component, x: FieldPoint, lattice: ModeLattice) -> FieldExpr:
    """Operator transpose of the field: emissions ride the absorption
    phase and vice versa (generic sectors only)."""
    return _expand("star", sector, component, x, lattice)


def conj_C_field(sector: str, component, x: FieldPoint, lattice: ModeLattice,
                 star: bool = False) -> FieldExpr:
    """Plain complex conjugate of the field (and its transpose when
    ``star``): lowered-index operators with observer-dependent phases."""
    return _expand("conj_C_star" if star else "conj_C", sector, component, x, lattice)


# --- propagators ---------------------------------------------------------

def propagator_D(sign: int, points: Sequence[tuple], lattice: ModeLattice,
                 fsector: str, deriv: int | None = None) -> ScalarExpr:
    """D+ (sign=+1) or D- (sign=-1) mode sum at a formal point combination;
    ``deriv`` inserts the -i p_lambda factor of the derivative.  Built once
    per lattice for each (sign, points, sector, deriv)."""
    if sign not in (1, -1):
        raise FieldError("propagator sign must be +1 or -1")
    points = tuple((c, pt) for c, pt in points)
    return lattice._cached(
        ("propagator", sign, points, fsector, deriv),
        lambda: _propagator_sum(sign, points, lattice, fsector, deriv))


def _propagator_sum(sign: int, points: tuple, lattice: ModeLattice,
                    fsector: str, deriv: int | None) -> ScalarExpr:
    def mode_term(mode) -> ScalarExpr:
        row = lattice.row(fsector, mode)
        term = row.inv_two_energy * \
            plane_phase(sign, row.energy_sq, mode.momentum, points)
        if deriv is None:
            return term * ScalarExpr.rational(sign)
        return term * ScalarExpr.gaussian(GaussianRational(0, -1)) * \
            lattice.p_lambda(fsector, mode, deriv)

    return ScalarExpr.sum(mode_term(mode) for mode in lattice.modes)


def propagator_D_total(points, lattice, fsector, deriv=None) -> ScalarExpr:
    return propagator_D(+1, points, lattice, fsector, deriv) + \
        propagator_D(-1, points, lattice, fsector, deriv)


def delta_lattice(points: Sequence[tuple], lattice: ModeLattice) -> ScalarExpr:
    """sum_p e^{i p . (sum_j c_j x_j)} -- the lattice spatial delta: the
    conjugate plane wave at zero energy, which has no time phase."""
    return ScalarExpr.sum(plane_phase(-1, F(0), mode.momentum, points)
                          for mode in lattice.modes)


# --- equal-time suite -----------------------------------------------------

class IdentityCheck(Frozen):
    __slots__ = __match_args__ = ("name", "anchor", "ok", "residual_terms")

    def __init__(self, name: str, anchor: str, ok: bool, residual_terms: int):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "residual_terms", residual_terms)


def _frame(lattice: ModeLattice):
    """Equal-time points x, y and the lattice delta dlat(x - y); the
    lattice must be closed under p -> -p."""
    lattice.require_symmetric("the equal-time suite")
    x = FieldPoint.make("t", "x")
    y = FieldPoint.make("t", "y")
    return x, y, delta_lattice([(1, x), (-1, y)], lattice)


#: fiber sector -> (constructor, field sector) of its field operator
_FIBER_FIELDS = {"A": (field, "gauge"), "omega": (field, "ghost"),
                 "omegabar": (conjugate_field, "ghost")}


def _fiber_letter(c: bv.FiberCoord, y: FieldPoint, lattice: ModeLattice) -> GradedExpr:
    """The field operator of the fiber coordinate c at y: A^K_nu is the
    gauge field (nu, K), omega^I the ghost and omegabar_I its conjugate,
    each differentiated along the jet of c.  n^I is -f^I =
    -g^{lam lam} A^I_{lam,lam}: Feynman gauge eliminates n = -f / xi at
    xi = 1."""
    if c.sector == "n" and c.kind == "field":
        return GradedExpr.sum(
            _fiber_letter(bv.FiberCoord("A", "field", (c.idx[0], lam), c.jet).lift(lam),
                          y, lattice).scale(ScalarExpr.rational(-METRIC[lam]))
            for lam in range(4))
    if c.sector not in _FIBER_FIELDS or c.kind != "field":
        raise FieldError(f"fiber coordinate {c!r} has no field operator")
    make, sector = _FIBER_FIELDS[c.sector]
    comp = c.idx[::-1] if c.sector == "A" else c.idx[0]
    return reduce(FieldExpr.deriv, c.jet, make(sector, comp, y, lattice)).expr


def _momentum_rule(lagr: bv.FiberPoly, y: FieldPoint,
                   lattice: ModeLattice) -> Callable[[bv.FiberCoord], GradedExpr]:
    """The momentum Pi_c = (-1)^{|c|} L D~_{c,0} of each fiber coordinate c
    in the Lagrangian L, at y: the textbook right derivative by the
    velocity of c, which is (-1)^{|c|} times `bv.gradient`'s.  A word of
    the derivative maps to the modified product of its letters' fields."""
    grad = bv.gradient(lagr, right=True)
    letter = cache(lambda g: _fiber_letter(g, y, lattice))

    def momentum(c: bv.FiberCoord) -> GradedExpr:
        d = grad.get(c.lift(0), bv.FiberPoly.zero())
        return GradedExpr.sum(
            reduce(lambda p, g: koszul_product(p, letter(g), "modified"), w[1:],
                   letter(w[0]).scale(k))
            for w, k in (-d if c.parity else d).terms.items())

    return momentum


def _square(indices: range, pair: Callable) -> list:
    """The cases (label "ij", left, right, i == j) of every index pair, with
    the operator sums (left, right) = pair(i, j)."""
    return [(f"{i}{j}", *pair(i, j), i == j) for i in indices for j in indices]


def _ops(make: Callable, sector: str, indices, point: FieldPoint,
         lattice: ModeLattice, lam: int | None = None) -> list:
    """Operator sums of the components make(sector, i, point) for i in
    indices, each under d_lam unless lam is None."""
    comps = (make(sector, i, point, lattice) for i in indices)
    return [(f if lam is None else f.deriv(lam)).expr for f in comps]


def _pair_checks(sector: str, rows, dlat: ScalarExpr) -> list:
    """One check per row (tag, anchor, cases, weight) and case (label,
    left, right, diagonal): the super-bracket of the operator sums left
    and right must be ``weight * dlat(x - y)`` on the diagonal and zero
    elsewhere, or zero everywhere when the weight is None."""
    checks = []
    for tag, anchor, cases, weight in rows:
        for label, left, right, diagonal in cases:
            want = weight * dlat if weight is not None and diagonal \
                else ScalarExpr.zero()
            resid = super_bracket(left, right) - GradedExpr.unit(want)
            checks.append(IdentityCheck(f"{sector}.eqt.{tag}[{label}]", anchor,
                                        resid.is_zero(), resid.n_terms))
    return checks


def _scalar_checks(lattice: ModeLattice, theory: bv.TheorySpec) -> list:
    """[phi, phibar], [phi, phi], [Pi, Pi] and the time derivatives."""
    x, y, dlat = _frame(lattice)
    ab = lattice.internal_range("scalar")
    i_ = ScalarExpr.i()
    phi = _ops(field, "scalar", ab, x, lattice)
    phi_y = _ops(field, "scalar", ab, y, lattice)
    phib = _ops(conjugate_field, "scalar", ab, y, lattice)
    dphi = _ops(field, "scalar", ab, x, lattice, 0)
    dphib = _ops(conjugate_field, "scalar", ab, y, lattice, 0)
    dphib_x = _ops(conjugate_field, "scalar", ab, x, lattice, 0)
    pi = [f.scale(ScalarExpr.rational(F(1, 2))) for f in dphib]
    return _pair_checks("scalar", (
        ("comm", "[phi^a(x), phibar_b(y)] = 0 at x0=y0",
         _square(ab, lambda a, b: (phi[a], phib[b])), None),
        ("dt_left", "[d0 phi^a(x), phibar_b(y)] = -i d^a_b dlat(x-y)",
         _square(ab, lambda a, b: (dphi[a], phib[b])), -i_),
        ("dt_right", "[phi^a(x), d0 phibar_b(y)] = +i d^a_b dlat(x-y)",
         _square(ab, lambda a, b: (phi[a], dphib[b])), i_),
        ("pi", "[phi^a(x), Pi_b(y)] = (i/2) d^a_b dlat(x-y), Pi = (1/2) d0 phibar",
         _square(ab, lambda a, b: (phi[a], pi[b])), i_ * ScalarExpr.rational(F(1, 2))),
        ("phiphi", "[phi^a(x), phi^b(y)] = 0",
         _square(ab, lambda a, b: (phi[a], phi_y[b])), None),
        ("pipi", "[Pi_a(x), Pi_b(y)] = 0 at x0=y0",
         _square(ab, lambda a, b: (dphib_x[a], dphib[b])), None),
    ), dlat)


def _dirac_checks(lattice: ModeLattice, theory: bv.TheorySpec) -> list:
    """Pi = i (psibar gamma0) on sqrt(2m)-rescaled fields, and
    {psibar, gamma0 psi} = (1/2m) d dlat on the unscaled ones."""
    x, y, dlat = _frame(lattice)
    i_ = ScalarExpr.i()
    m = lattice.mass("dirac")
    scale = ScalarExpr.sqrt_rational(2 * m)
    spins = range(4)
    psi = _ops(field, "dirac", spins, y, lattice)
    psib = _ops(conjugate_field, "dirac", spins, x, lattice)
    psi_s = [f.scale(scale) for f in psi]
    # Pi_al = i sqrt(2m) psibar_rho gamma0^rho_al and (gamma0 psi)^be
    pi = [GradedExpr.sum(psib[rho].scale(i_ * scale * GAMMA[0][rho, al])
                         for rho in spins) for al in spins]
    g0psi = [GradedExpr.sum(psi[rho].scale(GAMMA[0][be, rho]) for rho in spins)
             for be in spins]
    return _pair_checks("dirac", (
        ("pi_psi", "{Pi_a(x), psi^b(y)} = i d^b_a dlat(x-y), Pi = i (psibar gamma0)",
         _square(spins, lambda a, b: (pi[a], psi_s[b])), i_),
        ("bar_g0psi", "{psibar_a(x), (gamma0 psi)^b(y)} = (1/2m) d^b_a dlat(x-y)",
         _square(spins, lambda a, b: (psib[a], g0psi[b])),
         ScalarExpr.rational(F(1, 2) / m)),
    ), dlat)


def gauge_equal_time_checks(lattice: ModeLattice, theory: bv.TheorySpec) -> list:
    """[A, Pi] in Feynman gauge, Pi^mu_J the momentum of A^J_mu in
    L_gauge + L_ghost with its quadratic terms kept."""
    x, y, dlat = _frame(lattice)
    lie = range(lattice.lie_dim)
    a_x = [[field("gauge", (lam, li), x, lattice).expr for li in lie]
           for lam in range(4)]
    a_y = [field("gauge", (mu, 0), y, lattice).expr for mu in range(4)]
    momentum = _momentum_rule(
        bv.lagrangian_gauge(theory) + bv.lagrangian_ghost(theory), y, lattice)
    pi = [[momentum(theory.a_gauge(lj, mu)) for lj in lie] for mu in range(4)]
    return _pair_checks("gauge", (
        ("A_pi", "[A^I_lam(x), Pi^mu_J(y)] = -i d^mu_lam d^I_J dlat(x-y), xi=1",
         [(f"{lam}{mu}{li}{lj}", a_x[lam][li], pi[mu][lj], (lam, li) == (mu, lj))
          for lam in range(4) for mu in range(4) for li in lie for lj in lie],
         -ScalarExpr.i()),
        # one representative pair per index choice
        ("A_A", "[A^I_lam(x), A^J_mu(y)] = 0 at x0=y0",
         [(f"{lam}{mu}", a_x[lam][0], a_y[mu], False)
          for lam in range(4) for mu in range(lam, 4)], None),
    ), dlat)


def ghost_momentum_checks(lattice: ModeLattice, theory: bv.TheorySpec) -> list:
    """The ghost pairs, with Pi_J = d0 omegabar_J and the covariant
    Pi^I = -(d0 omega^I + c^I_KH omega^K A^H_0) the momenta of omega^J and
    omegabar_I in L_ghost."""
    x, y, dlat = _frame(lattice)
    lie = range(lattice.lie_dim)
    i_ = ScalarExpr.i()
    momentum = _momentum_rule(bv.lagrangian_ghost(theory), y, lattice)
    pi_om = [momentum(theory.omega(li)) for li in lie]
    pi_bar = [momentum(theory.omegabar(li)) for li in lie]
    om_x = _ops(field, "ghost", lie, x, lattice)
    om_y = _ops(field, "ghost", lie, y, lattice)
    dom_x = _ops(field, "ghost", lie, x, lattice, 0)
    omb_x = _ops(conjugate_field, "ghost", lie, x, lattice)
    domb_x = _ops(conjugate_field, "ghost", lie, x, lattice, 0)
    omb_y = _ops(conjugate_field, "ghost", lie, y, lattice)
    a0_y = [field("gauge", (0, li), y, lattice).expr for li in lie]
    # the labels name the omegabar index first
    return _pair_checks("ghost", (
        ("dbar_om", "{d0 omegabar_J(x), omega^I(y)} = i d^I_J dlat(x-y)",
         _square(lie, lambda i, j: (domb_x[i], om_y[j])), i_),
        ("dom_bar", "{d0 omega^I(x), omegabar_J(y)} = -i d^I_J dlat(x-y)",
         _square(lie, lambda i, j: (dom_x[j], omb_y[i])), -i_),
        ("bar_om", "{omegabar_I(x), omega^J(y)} = 0 at x0=y0",
         _square(lie, lambda i, j: (omb_x[i], om_y[j])), None),
        ("bar_A0", "{omegabar_I(x), A^J_0(y)} = 0",
         _square(lie, lambda i, j: (omb_x[i], a0_y[j])), None),
        ("om_pi", "{omega^I(x), Pi_J(y)} = i d^I_J dlat(x-y), Pi_J = d0 omegabar_J",
         _square(lie, lambda i, j: (om_x[i], pi_om[j])), i_),
        ("bar_pi", "{omegabar_J(x), Pi^I(y)} = i d^I_J dlat(x-y)",
         _square(lie, lambda j, i: (omb_x[j], pi_bar[i])), i_),
    ), dlat)


#: sector -> builder of its equal-time checks, in report order
_SECTOR_CHECKS = {
    "scalar": _scalar_checks,
    "dirac": _dirac_checks,
    "gauge": gauge_equal_time_checks,
    "ghost": ghost_momentum_checks,
}


def equal_time_report(lattice: ModeLattice, theory: bv.TheorySpec,
                      sectors=("scalar", "dirac", "gauge", "ghost")) -> list:
    """Check the canonical equal-time super-commutators sector by sector.

    The gauge and ghost momenta are read off the fiber Lagrangians of
    ``theory``, whose Lie dimension must be the lattice's.  A name in
    ``sectors`` without equal-time checks is a FieldError.
    """
    if theory.d_lie != lattice.lie_dim:
        raise FieldError(f"the theory's Lie dimension {theory.d_lie} is not "
                         f"the lattice's {lattice.lie_dim}")
    for sector in sectors:
        if sector not in _SECTOR_CHECKS:
            raise FieldError(f"no equal-time checks for sector {sector!r}")
    return [check for sector, build in _SECTOR_CHECKS.items()
            if sector in sectors for check in build(lattice, theory)]
