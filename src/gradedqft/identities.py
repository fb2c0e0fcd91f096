"""Registry of named verification identities, grouped into suites.

Each identity owns a formula anchor (the statement being checked, in
plain unicode math), runs against a prepared context and reports pass or
fail with a residual: the number of surviving symbolic terms for exact
checks, a max-abs float for the oracle checks and ``dirac.boost_unitary``,
or a short note for the boolean checks (the negative controls and
``dirac.boost_rest``).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable

from . import algebra as alg
from . import bv
from . import functionals as fn
from . import lie as lie_mod
from . import oracle as orc
from .algebra import ABSORB, EMIT, LOWER, UPPER, GradedExpr, OpGen
from .fields import (
    FieldPoint,
    ModeLattice,
    conj_C_field,
    conjugate_field,
    delta_lattice,
    dirac_dressing,
    equal_time_report,
    field,
    propagator_D,
    propagator_D_total,
    star_field,
)
from .gammas import GAMMA, METRIC, OnShellMomentum, SpinMatrix, anticommutator, \
    boost, boost_K_float, gamma, shell_projector
from .linear import add_into
from .scalars import GaussianRational, ScalarExpr

F = Fraction

SUITES = ("algebra", "propagators", "equal_time", "functionals", "dirac",
          "bv", "brst", "oracle")


class CheckResult:
    def __init__(self, status: str, residual: str):
        self.status = status  # "pass" | "fail"
        self.residual = residual

    @staticmethod
    def exact(n_residual_terms: int) -> "CheckResult":
        return CheckResult("pass" if n_residual_terms == 0 else "fail",
                           f"{n_residual_terms} terms")

    @staticmethod
    def numeric(value: float, tol: float = 1e-12) -> "CheckResult":
        return CheckResult("pass" if value <= tol else "fail", f"{value:.3e}")

    @staticmethod
    def boolean(ok: bool, note: str = "") -> "CheckResult":
        return CheckResult("pass" if ok else "fail", note or ("0" if ok else "1"))


class Identity:
    def __init__(self, name: str, suite: str, anchor: str,
                 run: Callable[["RunContext"], CheckResult]):
        self.name = name
        self.suite = suite
        self.anchor = anchor
        self.run = run


class RunContext:
    def __init__(self, lattice: ModeLattice, lattice_nozero: ModeLattice,
                 lattice_prop: ModeLattice, theory: bv.TheorySpec, seed: int,
                 oracle_n_max: int, oracle_cap: int,
                 corrupt_constant: tuple | None):
        self.lattice = lattice                # configured base lattice (massive ok)
        self.lattice_nozero = lattice_nozero  # symmetric, no zero mode (massless ok)
        self.lattice_prop = lattice_prop      # propagator lattice (cube by default)
        self.theory = theory
        self.seed = seed
        self.oracle_n_max = oracle_n_max
        self.oracle_cap = oracle_cap
        self.corrupt_constant = corrupt_constant
        # the theory over the configured constants: ``theory`` itself unless
        # ``corrupt_constant`` is set
        self.configured = theory if corrupt_constant is None else \
            bv.TheorySpec(lie_mod.corrupted(theory.lie, corrupt_constant))
        # Built on first use and kept for this run only: a new context
        # starts empty, so no operator built before a kernel is patched can
        # serve a run after it.
        self._brst: dict = {}

    def rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.seed}:{tag}")

    def preset_theory(self, name: str) -> bv.TheorySpec:
        """The gauge theory over the Lie preset ``name``."""
        return bv.TheorySpec(lie_mod.PRESETS[name]())

    def brst(self, theory: bv.TheorySpec) -> bv.VerticalDerivation:
        """The BRST operator of ``theory``, one per Lie datum, so that its
        memo of prolonged values serves every identity of the run.  The
        operator depends on nothing else; the key is the datum's identity,
        and the entry keeps the datum alive."""
        entry = self._brst.get(id(theory.lie))
        if entry is None:
            entry = self._brst[id(theory.lie)] = (theory.lie,
                                                  bv.brst_operator(theory))
        return entry[1]

    def oracle_spaces(self) -> dict:
        """The Fock spaces of the oracle suite, by name, built anew on
        each call; an `oracle.OracleError` if one is past ``oracle_cap``."""
        lat, n, cap = self.lattice_nozero, self.oracle_n_max, self.oracle_cap
        make = orc.OracleSpace.make
        return {
            "fermion": make(lat, ("fermion",), n, cap),
            "scalar": make(lat, ("scalar",), n, cap, scalar_dim=1),
            "dirac": make(lat, ("dirac_particle", "dirac_antiparticle"), n, cap),
            "ghost": make(lat, ("ghost", "antighost"), n, cap, lie_dim=1),
            "fermion_ghost": make(lat, ("fermion", "ghost", "antighost"), n, cap,
                                  scalar_dim=1, lie_dim=1),
            "one_mode": make(_one_mode_lattice(), ("scalar",), n, cap),
        }


# -------------------------------------------------------------------------
# suite: algebra
# -------------------------------------------------------------------------

def _gen(species, pos, sector, mode, idx):
    return GradedExpr.of(OpGen(species, pos, sector, mode, (idx,)))


def _alg_pairs(ctx: RunContext, sector: str) -> CheckResult:
    bad = 0
    modes = range(len(ctx.lattice.modes))
    for p, q, a, b in itertools.product(modes, modes, range(2), range(2)):
        want = GradedExpr.unit() if (p == q and a == b) else GradedExpr.zero()
        br = alg.super_bracket(_gen(ABSORB, UPPER, sector, p, a),
                               _gen(EMIT, LOWER, sector, q, b))
        bad += (br - want).n_terms
        br2 = alg.super_bracket(_gen(ABSORB, LOWER, sector, p, a),
                                _gen(EMIT, UPPER, sector, q, b))
        bad += (br2 - want).n_terms
    return CheckResult.exact(bad)


def _alg_vanishing(ctx: RunContext, sector: str) -> CheckResult:
    bad = 0
    modes = range(len(ctx.lattice.modes))
    ops = [(ABSORB, UPPER), (ABSORB, LOWER), (EMIT, UPPER), (EMIT, LOWER)]
    for (s1, p1), (s2, p2) in itertools.product(ops, ops):
        contract = (s1, s2) in ((ABSORB, EMIT), (EMIT, ABSORB)) and p1 != p2
        if contract:
            continue  # the delta-valued pairs, checked separately
        for p, q, a, b in itertools.product(modes, modes, range(2), range(2)):
            br = alg.super_bracket(_gen(s1, p1, sector, p, a),
                                   _gen(s2, p2, sector, q, b))
            bad += br.n_terms
    return CheckResult.exact(bad)


def _random_letter(rng: random.Random, sectors: list, n_internal: int) -> OpGen:
    """A random generator on mode 0 or 1.  Scalar and fermion letters draw
    their index position; a ghost absorbs with an upper index and an
    antighost with a lower one.  The internal index is drawn only when
    there is more than one: ``randrange(1)`` would still consume bits and
    shift every later draw of the stream."""
    sector = rng.choice(sectors)
    species = rng.choice([ABSORB, EMIT])
    if sector in ("ghost", "antighost"):
        pos = UPPER if (species == ABSORB) == (sector == "ghost") else LOWER
    else:
        pos = rng.choice([UPPER, LOWER])
    mode = rng.randrange(2)
    return OpGen(species, pos, sector, mode,
                 (rng.randrange(n_internal) if n_internal > 1 else 0,))


def _alg_jacobi(ctx: RunContext) -> CheckResult:
    rng = ctx.rng("jacobi")
    bad = 0
    checked = 0
    while checked < 40:
        words = []
        for _ in range(3):
            gens = [_random_letter(rng, ["scalar", "fermion", "ghost", "antighost"], 2)
                    for _ in range(rng.randint(1, 3))]
            e = GradedExpr.unit()
            for g in gens:
                e = alg.koszul_product(e, GradedExpr.of(g), "physical")
            words.append(e)
        x, y, z = words
        if any(w.is_zero() for w in words):
            continue
        if "mixed" in (alg.parity_of(x), alg.parity_of(y), alg.parity_of(z)):
            continue
        sign = -1 if alg.parity_of(x) == alg.parity_of(y) == "odd" else 1
        lhs = alg.super_bracket(x, alg.super_bracket(y, z))
        rhs = alg.super_bracket(alg.super_bracket(x, y), z) + \
            alg.super_bracket(y, alg.super_bracket(x, z)).scale(
                ScalarExpr.rational(sign))
        bad += (lhs - rhs).n_terms
        checked += 1
    for x, y in _leibniz_cases():
        xy, yx = alg.koszul_product(x, y), alg.koszul_product(y, x)
        odd = alg.parity_of(x) == alg.parity_of(y) == "odd"
        bad += (alg.super_bracket(x, y) - (xy + yx if odd else xy - yx)).n_terms
    return CheckResult.exact(bad)


def _leibniz_cases() -> list:
    """Fixed operand pairs whose bracket crosses an odd prefix or an odd
    tail, checked against the two-product bracket XY - (-1)^{|X||Y|} YX:
    [[psi, chi psi+]] = -chi passes psi over the odd prefix chi, and
    [[psi+ omega, psi]] = -omega passes psi over the odd tail omega.  psi
    and psi+ contract; chi and omega contract with neither.  The Jacobi
    identity still holds with either sign of the Leibniz rule dropped, so
    without these cases the check sees neither."""
    psi = GradedExpr.of(OpGen(ABSORB, UPPER, "fermion", 1, (0,)))
    psid = OpGen(EMIT, LOWER, "fermion", 1, (0,))
    chi = OpGen(EMIT, LOWER, "fermion", 0, (0,))
    omega = OpGen(ABSORB, UPPER, "ghost", 0, (0,))
    one = ScalarExpr.one()
    return [(psi, GradedExpr({(chi, psid): one})),
            (GradedExpr({(psid, omega): one}), psi)]


def _alg_normal_idempotent(ctx: RunContext) -> CheckResult:
    rng = ctx.rng("normal")
    bad = 0
    for _ in range(60):
        gens = []
        for _ in range(3):
            sector = rng.choice(["scalar", "fermion"])
            gens.append(OpGen(rng.choice([ABSORB, EMIT]),
                              rng.choice([UPPER, LOWER]), sector,
                              rng.randrange(2), (rng.randrange(2),)))
        raw = GradedExpr({tuple(gens): ScalarExpr.one()})
        once = alg.normal_order(raw)
        bad += (alg.normal_order(once) - once).n_terms
    return CheckResult.exact(bad)


def algebra_suite() -> list:
    out = []
    for sector in ("scalar", "fermion"):
        out.append(Identity(
            f"algebra.pairs.{sector}", "algebra",
            "[[a^a(p), a+_b(q)]] = [[a_b(p), a+^a(q)]] = d^a_b d_pq",
            lambda ctx, s=sector: _alg_pairs(ctx, s)))
        out.append(Identity(
            f"algebra.vanishing.{sector}", "algebra",
            "all same-species and same-index-type super-brackets vanish",
            lambda ctx, s=sector: _alg_vanishing(ctx, s)))
    out.append(Identity(
        "algebra.jacobi", "algebra",
        "[[X,[[Y,Z]]]] = [[[[X,Y]],Z]] + (-1)^{|X||Y|}[[Y,[[X,Z]]]]",
        _alg_jacobi))
    out.append(Identity(
        "algebra.normal_idempotent", "algebra",
        "normal_order(normal_order(e)) = normal_order(e)",
        _alg_normal_idempotent))
    return out


# -------------------------------------------------------------------------
# suite: propagators
# -------------------------------------------------------------------------

def propagator_suite() -> list:
    x0 = FieldPoint.make(0, "x")
    xt = FieldPoint.make("t", "x")

    def zero_time(ctx):
        d = propagator_D_total([(1, x0)], ctx.lattice_prop, "scalar")
        return CheckResult.exact(d.n_terms)

    def reflection(ctx):
        d = propagator_D(+1, [(-1, xt)], ctx.lattice_prop, "scalar") + \
            propagator_D(-1, [(1, xt)], ctx.lattice_prop, "scalar")
        return CheckResult.exact(d.n_terms)

    def time_derivative(ctx):
        want = ScalarExpr.rational(F(-1, 2)) * ScalarExpr.i() * \
            delta_lattice([(1, x0)], ctx.lattice_prop)
        bad = 0
        for sign in (+1, -1):
            got = propagator_D(sign, [(1, x0)], ctx.lattice_prop, "scalar", deriv=0)
            bad += (got - want).n_terms
        return CheckResult.exact(bad)

    def mode_count(ctx):
        origin = FieldPoint.make(0, (0, 0, 0))
        n = len(ctx.lattice_prop.modes)
        want = ScalarExpr.gaussian(GaussianRational(0, F(-n, 2)))
        bad = 0
        for sign in (+1, -1):
            got = propagator_D(sign, [(1, origin)], ctx.lattice_prop,
                               "scalar", deriv=0)
            bad += (got - want).n_terms
        return CheckResult.exact(bad)

    return [
        Identity("prop.zero_time", "propagators",
                 "D(0, x) = D+(0,x) + D-(0,x) = 0", zero_time),
        Identity("prop.reflection", "propagators",
                 "D+(-x) = -D-(x)", reflection),
        Identity("prop.time_derivative", "propagators",
                 "D+-_{,0}(0, x) = -(i/2) dlat(x)", time_derivative),
        Identity("prop.mode_count", "propagators",
                 "D+-_{,0}(0, 0) = -(i/2) * (number of modes)", mode_count),
    ]


# -------------------------------------------------------------------------
# suite: equal_time (delegates to the field-level report)
# -------------------------------------------------------------------------

_EQT_ANCHORS = {
    "scalar": "[phi, Pi] = (i/2) d dlat; [d0 phi, phibar] = -i d dlat; "
              "[phi, phibar] = [phi, phi] = [Pi, Pi] = 0 at x0 = y0",
    "dirac": "{Pi_a, psi^b} = i d^b_a dlat with Pi = i psibar gamma0; "
             "{psibar, gamma0 psi} = (1/2m) d dlat",
    "gauge": "[A^I_lam, Pi^mu_J] = -i d^mu_lam d^I_J dlat at xi = 1; "
             "[A, A] = 0 at x0 = y0",
    "ghost": "{d0 omegabar_J, omega^I} = i d^I_J dlat; {omega, Pi} and "
             "{omegabar, Pi} pairs; {omegabar, omega} = 0 at x0 = y0",
}


def equal_time_suite() -> list:
    def run_report(ctx, sector):
        checks = equal_time_report(ctx.lattice_nozero, ctx.configured,
                                   sectors=(sector,))
        return CheckResult.exact(sum(c.residual_terms for c in checks))

    return [Identity(
        f"equal_time.{sector}", "equal_time", anchor,
        lambda ctx, s=sector: run_report(ctx, s))
        for sector, anchor in _EQT_ANCHORS.items()]


# -------------------------------------------------------------------------
# suite: field table (part of functionals' lattice world but its own ids)
# -------------------------------------------------------------------------

def _table_identity(ctx, sector):
    lat = ctx.lattice_nozero
    x = FieldPoint.make("t", "x")
    y = FieldPoint.make("t2", "y")
    xy = [(1, x), (-1, y)]
    xpy = [(1, x), (1, y)]
    zero, one = ScalarExpr.zero(), ScalarExpr.one()
    sgn = ScalarExpr.rational(1 if sector == "scalar" else -1)

    def d(f, lam):
        return f if lam is None else f.deriv(lam)

    def prop(points, s_minus, lam, flip=False):
        """(D+ + s_minus D-)_{,lam} at points, negated when ``flip``."""
        got = propagator_D(+1, points, lat, sector, deriv=lam) + \
            s_minus * propagator_D(-1, points, lat, sector, deriv=lam)
        return -got if flip else got

    bad = 0
    for a in lat.internal_range(sector):
        for b in lat.internal_range(sector):
            d_ab = one if a == b else zero
            f = field(sector, a, x, lat)
            fb = conjugate_field(sector, b, y, lat)
            g = field(sector, b, y, lat)
            gs = star_field(sector, b, y, lat)
            fs = star_field(sector, a, x, lat)
            cphi = conj_C_field(sector, b, y, lat)
            cphis = conj_C_field(sector, b, y, lat, star=True)
            for lam in (None, *range(4)):
                # d/dy of a function of x - y is minus d/dx
                dy = lam is not None
                rows = [(f, d(g, lam), zero), (f, d(gs, lam), zero),
                        (fs, d(gs, lam), zero),
                        (f, d(fb, lam), d_ab * prop(xy, one, lam, dy)),
                        (f, d(cphi, lam), d_ab * prop(xpy, sgn, lam)),
                        (f, d(cphis, lam), d_ab * prop(xy, sgn, lam, dy))]
                if dy:
                    rows.append((f.deriv(lam), fb, d_ab * prop(xy, one, lam)))
                for left, right, want in rows:
                    br = alg.super_bracket(left.expr, right.expr)
                    bad += (br - GradedExpr.unit(want)).n_terms
    return CheckResult.exact(bad)


def _table_translation(ctx):
    lat = ctx.lattice_nozero
    x = FieldPoint.make("t", "x")
    y = FieldPoint.make("t2", "y")
    f = field("scalar", 0, x, lat)
    fb = conjugate_field("scalar", 0, y, lat)
    before = alg.super_bracket(f.expr, fb.expr)
    after = alg.super_bracket(f.translate("a").expr, fb.translate("a").expr)
    return CheckResult.exact((before - after).n_terms)


def table_suite() -> list:
    out = []
    for sector in ("scalar", "fermion"):
        out.append(Identity(
            f"table.supercommutators.{sector}", "equal_time",
            "[[phi, phibar]] = d D(x-x'); C-variants with +- and x+x'; "
            "all same-type brackets vanish",
            lambda ctx, s=sector: _table_identity(ctx, s)))
    out.append(Identity(
        "table.translation_invariance", "equal_time",
        "[[phi(x+a), phibar(x'+a)]] = [[phi(x), phibar(x')]]",
        _table_translation))
    return out


# -------------------------------------------------------------------------
# suite: dirac
# -------------------------------------------------------------------------

def _dressed_dirac_ops(mode, k, kinv, al: int, be: int) -> tuple:
    """(a+_al, a^be, c_al, c+^be) of one lattice mode, summed over the two
    spin slots and dressed with the boost K (Kinv on the lowered side)."""
    def dressed(species, pos, sector, coeff):
        return GradedExpr({(OpGen(species, pos, sector, mode.id, (aa,)),): coeff(aa)
                           for aa in range(2)})
    return (dressed(EMIT, LOWER, "dirac_particle", lambda aa: kinv[aa, al]),
            dressed(ABSORB, UPPER, "dirac_particle", lambda aa: k[be, aa]),
            dressed(ABSORB, LOWER, "dirac_antiparticle", lambda aa: kinv[aa + 2, al]),
            dressed(EMIT, UPPER, "dirac_antiparticle", lambda aa: k[be, aa + 2]))


def dirac_suite() -> list:
    def clifford(ctx):
        bad = 0
        for lam, mu in itertools.product(range(4), range(4)):
            want = SpinMatrix.identity().scale(2 * METRIC[lam]) if lam == mu \
                else SpinMatrix.zero()
            if anticommutator(gamma(lam), gamma(mu)) != want:
                bad += 1
        return CheckResult.exact(bad)

    def boost_unitary(ctx):
        rng = ctx.rng("boost")
        worst = 0.0
        for _ in range(20):
            spatial = tuple(F(rng.randint(-3, 3), rng.randint(1, 4))
                            for _ in range(3))
            mass = F(rng.randint(1, 5), rng.randint(1, 3))
            p = OnShellMomentum.make(spatial, mass)
            k = boost_K_float(p)
            g0 = GAMMA[0].to_complex()

            def mul(a, b):
                return [[sum(a[i][l] * b[l][j] for l in range(4))
                         for j in range(4)] for i in range(4)]

            kd = [[k[j][i].conjugate() for j in range(4)] for i in range(4)]
            prod = mul(mul(mul(g0, kd), g0), k)
            for i in range(4):
                for j in range(4):
                    want = 1.0 if i == j else 0.0
                    worst = max(worst, abs(prod[i][j] - want))
        return CheckResult.numeric(worst)

    def boost_rest(ctx):
        k, _ = boost(OnShellMomentum.make((0, 0, 0), F(2)))
        ok = k == SpinMatrix.identity()
        return CheckResult.boolean(ok)

    def projectors(ctx):
        bad = 0
        for spatial, mass in [((4, 0, 0), F(3)), ((0, 3, 0), F(4)),
                              ((0, 0, 12), F(5))]:
            p = OnShellMomentum.make(spatial, mass)
            pp, pm = shell_projector(p, +1), shell_projector(p, -1)
            if pp @ pp != pp or pm @ pm != pm:
                bad += 1
            if pp @ pm != SpinMatrix.zero():
                bad += 1
            if pp + pm != SpinMatrix.identity():
                bad += 1
            if pp.trace() != ScalarExpr.rational(2):
                bad += 1
        return CheckResult.exact(bad)

    def mode_brackets(ctx):
        lat = ctx.lattice_nozero
        bad = 0
        for mode in lat.modes:
            k, kinv = dirac_dressing(lat, mode)
            p = OnShellMomentum.make(mode.momentum, lat.mass("dirac"))
            pi_p = shell_projector(p, +1)
            pi_m = shell_projector(p, -1)
            for al in range(4):
                for be in range(4):
                    adag, a_up, c_dn, cdag = _dressed_dirac_ops(
                        mode, k, kinv, al, be)
                    br = alg.super_bracket(adag, a_up)
                    bad += (br - GradedExpr.unit(pi_p[be, al])).n_terms
                    br2 = alg.super_bracket(c_dn, cdag)
                    bad += (br2 - GradedExpr.unit(pi_m[be, al])).n_terms
                    bad += alg.super_bracket(adag, cdag).n_terms
                    bad += alg.super_bracket(c_dn, a_up).n_terms
        return CheckResult.exact(bad)

    def field_anticommutator(ctx):
        lat = ctx.lattice_nozero
        x = FieldPoint.make("t", "x")
        y = FieldPoint.make("t2", "y")
        xy = [(1, x), (-1, y)]
        m = lat.mass("dirac")
        d_tot = propagator_D_total(xy, lat, "dirac")
        d_der = [propagator_D_total(xy, lat, "dirac", deriv=lam)
                 for lam in range(4)]
        bad = 0
        for al in range(4):
            for be in range(4):
                got = alg.super_bracket(conjugate_field("dirac", al, x, lat).expr,
                                        field("dirac", be, y, lat).expr)
                want = ScalarExpr.zero()
                if al == be:
                    want = want + ScalarExpr.rational(-m) * d_tot
                for lam in range(4):
                    g = GAMMA[lam].rows[be][al]
                    if not g.is_zero():
                        want = want + ScalarExpr.i() * g * d_der[lam]
                want = want * ScalarExpr.rational(F(1, 2) / m)
                bad += (got - GradedExpr.unit(want)).n_terms
        return CheckResult.exact(bad)

    def frames(ctx):
        bad = 0
        for spatial, mass in [((4, 0, 0), F(3)), ((3, 0, 4), F(12))]:
            p = OnShellMomentum.make(spatial, mass)
            k, _ = boost(p)
            pp, pm = shell_projector(p, +1), shell_projector(p, -1)
            for j in range(4):
                col = k.column(j)
                if (pp if j < 2 else pm).apply(col) != col:
                    bad += 1
        return CheckResult.exact(bad)

    return [
        Identity("dirac.clifford", "dirac",
                 "{gamma^l, gamma^m} = 2 g^{lm} 1 (all pairs)", clifford),
        Identity("dirac.boost_rest", "dirac", "K(0) = 1", boost_rest),
        Identity("dirac.boost_unitary", "dirac",
                 "(g0 K+ g0) K = 1 to 1e-12, 20 random momenta", boost_unitary),
        Identity("dirac.projectors", "dirac",
                 "P+-^2 = P+-, P+ P- = 0, P+ + P- = 1, tr P+- = 2", projectors),
        Identity("dirac.mode_brackets", "dirac",
                 "{a+_a(p), a^b(q)} = (1/2m)(m + p.gamma) d_pq; "
                 "{c_a(p), c+^b(q)} = (1/2m)(m - p.gamma) d_pq", mode_brackets),
        Identity("dirac.field_anticommutator", "dirac",
                 "{psibar_a(x), psi^b(y)} = (1/2m)((-m + i gamma.d) D(x-y))^b_a",
                 field_anticommutator),
        Identity("dirac.frames", "dirac",
                 "P+ u_A = u_A, P- v_B = v_B", frames),
    ]


# -------------------------------------------------------------------------
# suite: functionals
# -------------------------------------------------------------------------

def functionals_suite() -> list:
    def run_fn(maker):
        def inner(ctx):
            res = maker(ctx)
            bad = res.residual.n_terms
            if not res.time_independent:
                bad += 1
            return CheckResult.exact(bad)
        return inner

    out = [
        Identity("functional.dirac_charge", "functionals",
                 "Int psibar g0 psi = Sum (1/2m)(a+_A a^A - c+^A c_A)",
                 run_fn(lambda ctx: fn.dirac_charge(ctx.lattice))),
        Identity("functional.scalar_hamiltonian", "functionals",
                 "H_free = (1/2) Sum E (a+^b a_b + a+_b a^b)",
                 run_fn(lambda ctx: fn.free_hamiltonian("scalar", ctx.lattice))),
        Identity("functional.fermion_hamiltonian", "functionals",
                 "H_free has the same form for fermi statistics",
                 run_fn(lambda ctx: fn.free_hamiltonian("fermion", ctx.lattice))),
        Identity("functional.dirac_hamiltonian", "functionals",
                 "H_free[psi] = Sum (E/2m)(a+_A a^A + c+^A c_A)",
                 run_fn(lambda ctx: fn.free_hamiltonian("dirac", ctx.lattice))),
        Identity("functional.ghost_hamiltonian", "functionals",
                 "H_free[omega] = Sum E (k+^I k_I + g+_I g^I)",
                 run_fn(lambda ctx: fn.free_hamiltonian("ghost", ctx.lattice_nozero))),
    ]
    for lam in range(4):
        out.append(Identity(
            f"functional.dirac_momentum.{lam}", "functionals",
            "P_l = Sum (p_l/2m)(a+_A a^A + c+^A c_A)",
            run_fn(lambda ctx, l=lam: fn.four_momentum("dirac", l, ctx.lattice))))
        out.append(Identity(
            f"functional.ghost_momentum.{lam}", "functionals",
            "P_l = Sum p_l (k+^I k_I + g+_I g^I)",
            run_fn(lambda ctx, l=lam: fn.four_momentum("ghost", l, ctx.lattice_nozero))))
    out.append(Identity(
        "functional.fp_charge", "functionals",
        "Int J^0_FP = i Sum (g+_I g^I - k+^I k_I)",
        run_fn(lambda ctx: fn.fp_current_integral(0, ctx.lattice_nozero))))

    def fp_spatial(ctx):
        lat = ModeLattice.make([(1, 0, 0), (0, 2, 0)],
                               lie_dim=ctx.lattice.lie_dim)
        bad = 0
        for lam in range(4):
            res = fn.fp_current_integral(lam, lat)
            bad += res.residual.n_terms
        return CheckResult.exact(bad)

    out.append(Identity(
        "functional.fp_current_spatial", "functionals",
        "Int J^l_FP = i g^{lm} Sum (p_m/E)(g+ g - k+ k) on pair-free lattices",
        fp_spatial))
    return out


# -------------------------------------------------------------------------
# suite: bv
# -------------------------------------------------------------------------

def _bv_coords():
    y0 = bv.FiberCoord("A", "field", (0, 0), ())
    y1 = bv.FiberCoord("A", "field", (1, 0), ())
    t0 = bv.FiberCoord("omega", "field", (0,), ())
    t1 = bv.FiberCoord("omega", "field", (1,), ())
    base = [y0, y1, t0, t1]
    return base + [c.partner() for c in base]


def _bv_random(rng, coords, deg=4, nterms=3, bound=3):
    acc: dict = {}
    for _ in range(rng.randint(1, nterms)):
        k = rng.randint(0, deg)
        w = tuple(rng.choice(coords) for _ in range(k))
        add_into(acc, bv.FiberPoly.word(
            w, ScalarExpr.rational(rng.randint(-bound, bound))).terms)
    return bv.FiberPoly(acc)


def _bv_homog(rng, coords, deg=4):
    while True:
        f = _bv_random(rng, coords, deg)
        if f.parity() != "mixed" and not f.is_zero():
            return f


def bv_suite() -> list:
    def lap_sq(ctx):
        rng = ctx.rng("bv.lap")
        coords = _bv_coords()
        bad = 0
        for _ in range(200):
            f = _bv_random(rng, coords)
            bad += bv.bv_laplacian(bv.bv_laplacian(f)).n_terms
        return CheckResult.exact(bad)

    def lap_product(ctx):
        rng = ctx.rng("bv.prod")
        coords = _bv_coords()
        bad = 0
        for _ in range(200):
            f = _bv_homog(rng, coords)
            g = _bv_homog(rng, coords)
            sf = ScalarExpr.rational(-1 if f.parity() == "odd" else 1)
            lhs = bv.bv_laplacian(f * g)
            rhs = bv.bv_laplacian(f) * g + bv.bv_bracket(f, g).scale(sf) + \
                (f * bv.bv_laplacian(g)).scale(sf)
            bad += (lhs - rhs).n_terms
        return CheckResult.exact(bad)

    def antider(ctx):
        rng = ctx.rng("bv.antider")
        coords = _bv_coords()
        bad = 0
        for _ in range(200):
            f = _bv_homog(rng, coords, 3)
            g = _bv_homog(rng, coords, 2)
            h = _bv_homog(rng, coords, 2)
            pf = 1 if f.parity() == "odd" else 0
            pg = 1 if g.parity() == "odd" else 0
            sgn = ScalarExpr.rational((-1) ** ((pf + 1) * pg))
            lhs = bv.bv_bracket(f, g * h)
            rhs = bv.bv_bracket(f, g) * h + (g * bv.bv_bracket(f, h)).scale(sgn)
            bad += (lhs - rhs).n_terms
        return CheckResult.exact(bad)

    def canonical_pairs(ctx):
        y = bv.FiberCoord("A", "field", (0, 0), ())
        th = bv.FiberCoord("omega", "field", (0,), ())
        bad = 0
        bad += (bv.bv_bracket(bv.FiberPoly.coord(y),
                              bv.FiberPoly.coord(y.partner())) -
                bv.FiberPoly.unit()).n_terms
        bad += (bv.bv_bracket(bv.FiberPoly.coord(th),
                              bv.FiberPoly.coord(th.partner())) +
                bv.FiberPoly.unit()).n_terms
        return CheckResult.exact(bad)

    def grades(ctx):
        rng = ctx.rng("bv.grades")
        coords = _bv_coords()
        bad = 0
        for _ in range(60):
            f = _bv_homog(rng, coords, 3)
            g = _bv_homog(rng, coords, 3)
            pf = 1 if f.parity() == "odd" else 0
            pg = 1 if g.parity() == "odd" else 0
            br = bv.bv_bracket(f, g)
            if not br.is_zero() and br.parity() != \
                    ("odd" if (pf + pg + 1) % 2 else "even"):
                bad += 1
            lap = bv.bv_laplacian(f)
            if not lap.is_zero() and lap.parity() != \
                    ("odd" if (pf + 1) % 2 else "even"):
                bad += 1
        return CheckResult.exact(bad)

    return [
        Identity("bv.laplacian_nilpotent", "bv", "Delta^2 = 0 (200 random)",
                 lap_sq),
        Identity("bv.laplacian_product", "bv",
                 "Delta(fg) = Delta(f) g + (-1)^|f| {f,g} + (-1)^|f| f Delta(g)",
                 lap_product),
        Identity("bv.bracket_antiderivation", "bv",
                 "{f, gh} = {f,g} h + (-1)^{(|f|+1)|g|} g {f,h}", antider),
        Identity("bv.canonical_pairs", "bv",
                 "{y, ytilde} = 1 (even y); {th, thtilde} = -1 (odd th)",
                 canonical_pairs),
        Identity("bv.grades", "bv",
                 "|Delta f| = |f|+1, |{f,g}| = |f|+|g|+1 (mod 2)", grades),
    ]


# -------------------------------------------------------------------------
# suite: brst
# -------------------------------------------------------------------------

def brst_suite() -> list:
    def s_sq_generators(ctx):
        bad = 0
        for name in lie_mod.PRESETS:
            th = ctx.preset_theory(name)
            s = ctx.brst(th)
            for c in th.all_base_coords():
                bad += s(s(bv.FiberPoly.coord(c))).n_terms
        return CheckResult.exact(bad)

    def s_sq_random(ctx):
        bad = 0
        for name in lie_mod.PRESETS:
            th = ctx.preset_theory(name)
            s = ctx.brst(th)
            coords = th.all_base_coords()
            coords = coords + [c.lift(1) for c in coords[: len(coords) // 2]]
            rng = ctx.rng(f"brst.{name}")
            for _ in range(100):
                f = _bv_random(rng, coords, deg=3, bound=2)
                bad += s(s(f)).n_terms
        return CheckResult.exact(bad)

    def matter_gauge_invariance(ctx):
        th = ctx.theory
        s = ctx.brst(ctx.configured)
        l0 = bv.lagrangian_matter(th) + bv.lagrangian_gauge(th)
        return CheckResult.exact(s(l0).n_terms)

    def ghost_decomposition(ctx):
        th = ctx.configured
        dec = bv.ghost_lagrangian_decompose(th, ctx.brst(th))
        bad = dec.residual.n_terms
        bad += dec.residual.partial_symbol("xi").n_terms
        bad += (dec.lagrangian - bv.lagrangian_ghost(th)).n_terms
        return CheckResult.exact(bad)

    def abelian_decomposition(ctx):
        th = ctx.preset_theory("u1")
        dec = bv.ghost_lagrangian_decompose(th, ctx.brst(th))
        bad = dec.residual.n_terms
        bad += (dec.lagrangian - bv.lagrangian_ghost(th)).n_terms
        return CheckResult.exact(bad)

    def negative_control(ctx):
        th = bv.TheorySpec(lie_mod.corrupted(lie_mod.su2(), (0, 0, 1)))
        s_bad = bv.brst_operator(th)
        broken = any(not s_bad(s_bad(bv.FiberPoly.coord(th.omega(li)))).is_zero()
                     for li in range(3))
        return CheckResult.boolean(broken, "corruption detected" if broken
                                   else "corruption NOT detected")

    def d_commutes(ctx):
        th = ctx.theory
        s = ctx.brst(th)
        bad = 0
        for c in (th.psi(0, 0), th.a_gauge(0, 1), th.omega(0),
                  th.omegabar(0), th.nl(0)):
            f = bv.FiberPoly.coord(c)
            for lam in range(4):
                bad += (bv.horizontal_diff(s(f), lam)
                        - s(bv.horizontal_diff(f, lam))).n_terms
        return CheckResult.exact(bad)

    def fp_noether(ctx):
        th = ctx.theory
        v = bv.ghost_number_derivation(th)
        currents = bv.noether_current(v, bv.lagrangian_ghost(th))
        bad = 0
        for lam in range(4):
            g = ScalarExpr.rational(METRIC[lam])
            want: dict = {}
            for li in range(th.d_lie):
                add_into(want, (bv.FiberPoly.coord(th.omegabar(li, (lam,))) *
                                bv.FiberPoly.coord(th.omega(li))).scale(g).terms)
                add_into(want, (bv.FiberPoly.coord(th.omegabar(li)) *
                                bv.covariant_domega(th, li, lam)).scale(-g).terms)
            bad += (currents[lam] - bv.FiberPoly(want)).n_terms
        return CheckResult.exact(bad)

    def current_equivalence(ctx):
        th = ctx.theory
        s = ctx.brst(th)
        dec = bv.ghost_lagrangian_decompose(th, s)
        l0 = bv.lagrangian_matter(th) + bv.lagrangian_gauge(th)
        j1 = bv.noether_current(s, l0 + dec.lagrangian,
                                [s(m) for m in dec.m])
        j2 = bv.noether_current(s, l0 + dec.s_k)
        bad = sum((a - b).n_terms for a, b in zip(j1, j2))
        return CheckResult.exact(bad)

    return [
        Identity("brst.nilpotent_generators", "brst",
                 "S^2 = 0 on all generators (u1, su2, su3)", s_sq_generators),
        Identity("brst.nilpotent_random", "brst",
                 "S^2 = 0 on 100 random polynomials per algebra", s_sq_random),
        Identity("brst.matter_gauge_invariance", "brst",
                 "S(L_matter + L_gauge) = 0", matter_gauge_invariance),
        Identity("brst.ghost_decomposition", "brst",
                 "L_ghost = S K + d_H M (and d/dxi of the residual)",
                 ghost_decomposition),
        Identity("brst.ghost_decomposition_abelian", "brst",
                 "L_ghost = S K + d_H M for u(1)", abelian_decomposition),
        Identity("brst.negative_control", "brst",
                 "one corrupted structure constant breaks S^2(omega) = 0",
                 negative_control),
        Identity("brst.jet_prolongation", "brst",
                 "d_lam S = S d_lam on generators", d_commutes),
        Identity("brst.fp_noether_current", "brst",
                 "ghost-number symmetry current = g^{lm}(omegabar_{,m} omega "
                 "- omegabar grad_m omega)", fp_noether),
        Identity("brst.current_equivalence", "brst",
                 "L0 + Lghost (order 1) and L0 + S K (order 2) share one "
                 "BRST current", current_equivalence),
    ]


# -------------------------------------------------------------------------
# suite: oracle
# -------------------------------------------------------------------------

_BIND = {"t": 0.37, "t2": -0.11, "x": (0.2, -0.4, 0.15), "y": (-0.3, 0.05, 0.5)}


def _one_mode_lattice() -> ModeLattice:
    """The one-mode scalar lattice of ``oracle.functionals``."""
    return ModeLattice.make([(4, 0, 0)], {"scalar": 3}, scalar_dim=1)


def oracle_suite() -> list:
    def brackets(ctx):
        sp = ctx.oracle_spaces()
        worst = 0.0
        for p, a, b in itertools.product(range(2), range(2), range(2)):
            x = alg.super_bracket(_gen(ABSORB, UPPER, "fermion", p, a),
                                  _gen(EMIT, LOWER, "fermion", p, b))
            want = GradedExpr.unit() if a == b else GradedExpr.zero()
            worst = max(worst, orc.residual(x, want, sp["fermion"], _BIND))
        for p in range(2):
            x = alg.super_bracket(_gen(ABSORB, UPPER, "scalar", p, 0),
                                  _gen(EMIT, LOWER, "scalar", p, 0))
            worst = max(worst, orc.residual(x, GradedExpr.unit(), sp["scalar"],
                                            _BIND))
        return CheckResult.numeric(worst)

    def homomorphism(ctx):
        sp = ctx.oracle_spaces()["fermion_ghost"]
        rng = ctx.rng("oracle.hom")
        worst = 0.0
        for _ in range(25):
            words = []
            for _ in range(2):
                gens = [_random_letter(rng, ["fermion", "ghost", "antighost"], 1)
                        for _ in range(rng.randint(1, 3))]
                words.append(GradedExpr({tuple(gens): ScalarExpr.one()}))
            worst = max(worst, orc.product_residual(words[0], words[1], sp,
                                                    _BIND))
        return CheckResult.numeric(worst)

    def table(ctx):
        lat, spf = ctx.lattice_nozero, ctx.oracle_spaces()["fermion"]
        x = FieldPoint.make("t", "x")
        y = FieldPoint.make("t2", "y")
        f = field("fermion", 0, x, lat)
        fb = conjugate_field("fermion", 0, y, lat)
        br = alg.super_bracket(f.expr, fb.expr)
        target = GradedExpr.unit(propagator_D_total([(1, x), (-1, y)], lat,
                                                    "fermion"))
        return CheckResult.numeric(orc.residual(br, target, spf, _BIND))

    def dirac_ops(ctx):
        lat, spd = ctx.lattice_nozero, ctx.oracle_spaces()["dirac"]
        worst = 0.0
        for mode in lat.modes:
            k, kinv = dirac_dressing(lat, mode)
            p = OnShellMomentum.make(mode.momentum, lat.mass("dirac"))
            pi_p = shell_projector(p, +1)
            for al in range(4):
                for be in range(4):
                    adag, a_up, _, _ = _dressed_dirac_ops(mode, k, kinv, al, be)
                    br = alg.super_bracket(adag, a_up)
                    worst = max(worst, orc.residual(
                        br, GradedExpr.unit(pi_p[be, al]), spd, _BIND))
        return CheckResult.numeric(worst)

    def functionals_oracle(ctx):
        lat, sp = ctx.lattice_nozero, ctx.oracle_spaces()
        spd, spg = sp["dirac"], sp["ghost"]
        worst = 0.0
        res = fn.dirac_charge(lat)
        worst = max(worst, orc.residual(res.reduced, res.target, spd, _BIND))
        for lam in range(4):
            res = fn.four_momentum("dirac", lam, lat)
            worst = max(worst, orc.residual(res.reduced, res.target, spd, _BIND))
        # ghost reductions on a one-generator lattice matching the space
        lat_g = ModeLattice.make([m.momentum for m in lat.modes], lat.masses,
                                 scalar_dim=lat.scalar_dim, lie_dim=1)
        res = fn.free_hamiltonian("ghost", lat_g)
        worst = max(worst, orc.residual(res.reduced, res.target, spg, _BIND))
        res = fn.fp_current_integral(0, lat_g)
        worst = max(worst, orc.residual(res.reduced, res.target, spg, _BIND))
        res = fn.free_hamiltonian("scalar", _one_mode_lattice())
        worst = max(worst, orc.residual(res.reduced, res.target, sp["one_mode"],
                                        _BIND))
        return CheckResult.numeric(worst)

    def negative_control(ctx):
        lat, spf = ctx.lattice_nozero, ctx.oracle_spaces()["fermion"]
        x = FieldPoint.make("t", "x")
        y = FieldPoint.make("t2", "y")
        f = field("fermion", 0, x, lat)
        fb_wrong = conj_C_field("fermion", 0, y, lat, star=True)
        target = GradedExpr.unit(propagator_D_total([(1, x), (-1, y)], lat,
                                                    "fermion"))
        bad = orc.residual(alg.super_bracket(f.expr, fb_wrong.expr), target,
                           spf, _BIND)
        return CheckResult.boolean(bad >= 0.1, f"{bad:.3e}")

    return [
        Identity("oracle.brackets", "oracle",
                 "elementary super-brackets match their matrices (<= 1e-12)",
                 brackets),
        Identity("oracle.homomorphism", "oracle",
                 "represent(a *phys* b) = represent(a) represent(b)",
                 homomorphism),
        Identity("oracle.table", "oracle",
                 "{phi, phibar} - D(x-y) = 0 on the truncated Fock space",
                 table),
        Identity("oracle.dirac", "oracle",
                 "dressed mode anticommutators match shell projectors",
                 dirac_ops),
        Identity("oracle.functionals", "oracle",
                 "reduced functionals match their targets numerically",
                 functionals_oracle),
        Identity("oracle.negative_control", "oracle",
                 "flipping the conjugate-field sign leaves residual >= 0.1",
                 negative_control),
    ]


def all_identities() -> list:
    out = []
    out += algebra_suite()
    out += propagator_suite()
    out += table_suite()
    out += equal_time_suite()
    out += functionals_suite()
    out += dirac_suite()
    out += bv_suite()
    out += brst_suite()
    out += oracle_suite()
    return out
