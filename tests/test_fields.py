from fractions import Fraction

import pytest

from gradedqft import bv, fields
from gradedqft.algebra import (
    ABSORB,
    EMIT,
    LOWER,
    UPPER,
    GradedExpr,
    OpGen,
    koszul_product,
    super_bracket,
)
from gradedqft.cli import load_config, run_verify
from gradedqft.fields import (
    FieldError,
    FieldPoint,
    LatticeError,
    ModeLattice,
    RealSectorError,
    conj_C_field,
    conjugate_field,
    delta_lattice,
    equal_time_report,
    field,
    propagator_D,
    propagator_D_total,
    star_field,
)
from gradedqft.gammas import OnShellMomentum, shell_projector
from gradedqft.lie import LieData, su2, su3, u1
from gradedqft.scalars import ScalarExpr

F = Fraction
I_ = ScalarExpr.i()
ONE = ScalarExpr.one()
ZERO = ScalarExpr.zero()


def sym_lattice(masses=None, scalar_dim=2, lie_dim=1):
    return ModeLattice.make(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)],
        masses or {"scalar": 1, "fermion": 1, "dirac": 1},
        scalar_dim=scalar_dim, lie_dim=lie_dim)


def one_mode_lattice(**kw):
    return ModeLattice.make([(3, 0, 0)], kw.pop("masses", None) or
                            {"scalar": 4, "fermion": 4, "dirac": 4}, **kw)


X = FieldPoint.make("t", "x")
Y = FieldPoint.make("t2", "y")
XY = [(1, X), (-1, Y)]
XpY = [(1, X), (1, Y)]


def field_supercommutator(f, g) -> ScalarExpr:
    """Super-bracket of two field components on one lattice, which must be
    central: its scalar value."""
    br = super_bracket(f, g)
    assert br.operator_part().is_zero()
    return br.scalar_part()


def test_lattice_validation():
    with pytest.raises(LatticeError):
        ModeLattice.make([(1, 0, 0), (1, 0, 0)])
    with pytest.raises(LatticeError):
        ModeLattice.make([(1, 0, 0)], {"ghost": 1})
    with pytest.raises(LatticeError):
        ModeLattice.make([(1, 0, 0)], {"scalar": 0})
    lat = ModeLattice.make([(0, 0, 0)])
    with pytest.raises(LatticeError):
        lat.energy("ghost", lat.modes[0])


def test_lattice_bounds_the_size_of_each_energy_squared():
    """E^2 with numerator times denominator at 10^12 is accepted; one past
    it, in any sector, from a momentum or from a mass, is rejected."""
    big = 10 ** 6
    assert fields.MAX_ENERGY_SQ_SIZE == big * big
    heavy = {"scalar": big, "fermion": big, "dirac": big}
    ModeLattice.make([(0, 0, 0)], heavy)  # matter E^2 = 10^12
    with pytest.raises(LatticeError, match="scalar sector E.2 = 1000000000001"):
        ModeLattice.make([(big, 0, 0)])
    with pytest.raises(LatticeError, match="exceeds 1000000000000"):
        ModeLattice.make([(1, 0, 0)], heavy)
    with pytest.raises(LatticeError, match="dirac sector"):
        ModeLattice.make([(0, 0, 0)], {"dirac": Fraction(1, big + 1)})


def test_lattice_bounds_the_scalar_dim():
    assert fields.MAX_SCALAR_DIM == 64
    lat = ModeLattice.make([(1, 0, 0)], scalar_dim=64)
    assert lat.internal_range("scalar") == range(64)
    with pytest.raises(LatticeError, match="^scalar_dim = 65 exceeds 64"):
        ModeLattice.make([(1, 0, 0)], scalar_dim=65)


def test_ghost_field_single_mode_shape():
    lat = ModeLattice.make([(1, 0, 0)], lie_dim=2)
    om = field("ghost", 1, X, lat)
    w = lat.row("ghost", lat.modes[0]).weight
    esq = lat.energy_sq("ghost", lat.modes[0])
    from gradedqft.fields import plane_phase
    want = GradedExpr.of(OpGen(ABSORB, UPPER, "ghost", 0, (1,)),
                         w * plane_phase(+1, esq, lat.modes[0].momentum, [(1, X)])) + \
        GradedExpr.of(OpGen(EMIT, UPPER, "antighost", 0, (1,)),
                      w * plane_phase(-1, esq, lat.modes[0].momentum, [(1, X)]))
    assert om == want


def test_antighost_field_has_minus_absorption():
    lat = ModeLattice.make([(1, 0, 0)], lie_dim=1)
    omb = conjugate_field("ghost", 0, X, lat)
    w = lat.row("ghost", lat.modes[0]).weight
    esq = lat.energy_sq("ghost", lat.modes[0])
    from gradedqft.fields import plane_phase
    want = GradedExpr.of(OpGen(ABSORB, LOWER, "antighost", 0, (0,)),
                         -(w * plane_phase(+1, esq, lat.modes[0].momentum, [(1, X)]))) + \
        GradedExpr.of(OpGen(EMIT, LOWER, "ghost", 0, (0,)),
                      w * plane_phase(-1, esq, lat.modes[0].momentum, [(1, X)]))
    assert omb == want


def test_scalar_field_at_origin_phases_collapse():
    lat = one_mode_lattice()
    origin = FieldPoint.make(0, (0, 0, 0))
    f = field("scalar", 0, origin, lat)
    w = lat.row("scalar", lat.modes[0]).weight
    want = GradedExpr.of(OpGen(ABSORB, UPPER, "scalar", 0, (0,)), w) + \
        GradedExpr.of(OpGen(EMIT, UPPER, "scalar", 0, (0,)), w)
    assert f == want


def test_real_sector_has_no_conjugate():
    lat = one_mode_lattice()
    with pytest.raises(RealSectorError):
        conjugate_field("gauge", (0, 0), X, lat)


_COMPONENTS = {"scalar": 1, "fermion": 0, "dirac": 3, "gauge": (2, 1),
               "ghost": 1, "nl": 0, "bogus": 0}
_CONSTRUCTORS = {
    "field": field,
    "conjugate_field": conjugate_field,
    "star_field": star_field,
    "conj_C_field": conj_C_field,
    "conj_C_field(star)": lambda *a: conj_C_field(*a, star=True),
}
_BUILDS = {
    "field": {"scalar", "fermion", "dirac", "gauge", "ghost"},
    "conjugate_field": {"scalar", "fermion", "dirac", "ghost"},
    "star_field": {"scalar", "fermion"},
    "conj_C_field": {"scalar", "fermion"},
    "conj_C_field(star)": {"scalar", "fermion"},
}


@pytest.mark.parametrize("ctor", sorted(_CONSTRUCTORS))
@pytest.mark.parametrize("sector", sorted(_COMPONENTS))
def test_constructor_table_builds_or_raises(ctor, sector):
    lat = sym_lattice(lie_dim=2)
    make = _CONSTRUCTORS[ctor]
    if sector in _BUILDS[ctor]:
        f = make(sector, _COMPONENTS[sector], X, lat)
        # one absorption and one emission slot per mode (Dirac: per spin slot)
        per_mode = 4 if sector == "dirac" else 2
        assert f.n_terms <= per_mode * len(lat.modes)
        assert {w[0].species for w in f.terms} == {ABSORB, EMIT}
        return
    if ctor == "conjugate_field" and sector in ("gauge", "nl"):
        with pytest.raises(RealSectorError):
            make(sector, _COMPONENTS[sector], X, lat)
        return
    with pytest.raises(FieldError) as info:
        make(sector, _COMPONENTS[sector], X, lat)
    assert type(info.value) is FieldError


#: what flipping the rule's (-1)^parity on every conjugate fails
_PARITY_SIGN_KILLS = {
    "dirac.field_anticommutator",
    "equal_time.scalar", "equal_time.dirac", "equal_time.ghost",
    "functional.scalar_hamiltonian", "functional.fermion_hamiltonian",
    "functional.dirac_hamiltonian", "functional.ghost_hamiltonian",
    "functional.dirac_charge",
    "functional.dirac_momentum.0", "functional.dirac_momentum.1",
    "functional.ghost_momentum.0", "functional.ghost_momentum.1",
    "functional.fp_charge", "functional.fp_current_spatial",
    "oracle.table", "oracle.functionals",
    "table.supercommutators.scalar", "table.supercommutators.fermion",
}


def test_flipping_the_conjugation_sign_fails_its_identities(monkeypatch):
    """Negative control for the conjugation rule: negate the absorption
    row of every derived conjugate and exactly these identities fail."""
    for (kind, sector), rows in list(fields._EXPANSIONS.items()):
        if kind == "conjugate":
            monkeypatch.setitem(fields._EXPANSIONS, (kind, sector), tuple(
                (sp, pos, op, ph, -sign if sp == ABSORB else sign, dressing)
                for sp, pos, op, ph, sign, dressing in rows))
    report = run_verify(load_config(None))
    failed = {e["identity"] for e in report["identities"] if e["status"] != "pass"}
    assert failed == _PARITY_SIGN_KILLS


def test_boson_conjugate_equals_C_star():
    lat = sym_lattice()
    for a in range(2):
        assert conjugate_field("scalar", a, X, lat) == \
            conj_C_field("scalar", a, X, lat, star=True)


def test_fermion_conjugate_differs_from_C_star_by_absorption_sign():
    lat = sym_lattice()
    bar = conjugate_field("fermion", 0, X, lat)
    cstar = conj_C_field("fermion", 0, X, lat, star=True)
    diff = bar - cstar
    # difference is exactly twice the absorption part, with a minus sign
    for word, _ in diff.terms.items():
        assert len(word) == 1 and word[0].species == ABSORB
    assert (bar + cstar).n_terms < bar.n_terms + cstar.n_terms


@pytest.mark.parametrize("sector,pm", [("scalar", 1), ("fermion", -1)])
def test_table_vanishing_entries(sector, pm):
    lat = sym_lattice()
    f = field(sector, 0, X, lat)
    g = field(sector, 1, Y, lat)
    gs = star_field(sector, 1, Y, lat)
    fs = star_field(sector, 0, X, lat)
    assert field_supercommutator(f, g).is_zero()
    assert field_supercommutator(f, gs).is_zero()
    assert field_supercommutator(fs, gs).is_zero()
    for lam in range(4):
        gs_lam = star_field(sector, 1, Y, lat, (lam,))
        assert field_supercommutator(f, field(sector, 1, Y, lat, (lam,))).is_zero()
        assert field_supercommutator(f, gs_lam).is_zero()
        assert field_supercommutator(fs, gs_lam).is_zero()


@pytest.mark.parametrize("sector,pm", [("scalar", 1), ("fermion", -1)])
def test_table_D_valued_entries(sector, pm):
    lat = sym_lattice()
    sgn = ScalarExpr.rational(pm)
    for a in range(2):
        for b in range(2):
            d_ab = ONE if a == b else ZERO
            f = field(sector, a, X, lat)
            fbar = conjugate_field(sector, b, Y, lat)
            cphi = conj_C_field(sector, b, Y, lat, star=False)
            cphis = conj_C_field(sector, b, Y, lat, star=True)

            dp_m = propagator_D(+1, XY, lat, sector)
            dm_m = propagator_D(-1, XY, lat, sector)
            dp_p = propagator_D(+1, XpY, lat, sector)
            dm_p = propagator_D(-1, XpY, lat, sector)

            assert field_supercommutator(f, fbar) == d_ab * (dp_m + dm_m)
            assert field_supercommutator(f, cphi) == d_ab * (dp_p + sgn * dm_p)
            assert field_supercommutator(f, cphis) == d_ab * (dp_m + sgn * dm_m)
            for lam in range(4):
                dpl_m = propagator_D(+1, XY, lat, sector, deriv=lam)
                dml_m = propagator_D(-1, XY, lat, sector, deriv=lam)
                dpl_p = propagator_D(+1, XpY, lat, sector, deriv=lam)
                dml_p = propagator_D(-1, XpY, lat, sector, deriv=lam)
                jet = (lam,)
                assert field_supercommutator(
                    f, conj_C_field(sector, b, Y, lat, star=False, jet=jet)) == \
                    d_ab * (dpl_p + sgn * dml_p)
                assert field_supercommutator(
                    f, conj_C_field(sector, b, Y, lat, star=True, jet=jet)) == \
                    d_ab * (-dpl_m - sgn * dml_m)
                assert field_supercommutator(
                    f, conjugate_field(sector, b, Y, lat, jet)) == \
                    d_ab * (-(dpl_m + dml_m))
                assert field_supercommutator(field(sector, a, X, lat, jet), fbar) == \
                    d_ab * (dpl_m + dml_m)


def translated(e: GradedExpr, point: FieldPoint) -> GradedExpr:
    """The operator sum e of a field at point, with the spatial argument
    moved by the formal vector a."""
    return e.map_coeff(lambda c: c.translate_space(point.x, "a"))


def test_commutators_depend_on_difference_only():
    lat = sym_lattice()
    f = field("scalar", 0, X, lat)
    fbar = conjugate_field("scalar", 0, Y, lat)
    before = field_supercommutator(f, fbar)
    after = field_supercommutator(translated(f, X), translated(fbar, Y))
    assert before == after
    # the x+x' family is observer-dependent: translation does not cancel
    cphi = conj_C_field("scalar", 0, Y, lat)
    moved = field_supercommutator(translated(f, X), translated(cphi, Y))
    assert moved != field_supercommutator(f, cphi)


def test_propagator_zero_time_relations():
    lat = ModeLattice.make(
        [(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)],
        {"scalar": 2})
    x0 = FieldPoint.make(0, "x")
    # D(0, x) = 0 by exact term cancellation
    assert propagator_D_total([(1, x0)], lat, "scalar").is_zero()
    # D+(-x) = -D-(x) termwise, any lattice
    xt = FieldPoint.make("t", "x")
    assert propagator_D(+1, [(-1, xt)], lat, "scalar") == \
        -propagator_D(-1, [(1, xt)], lat, "scalar")
    # D+-_{,0}(0, x) = -(i/2) delta_lattice(x)
    want = ScalarExpr.rational(F(-1, 2)) * I_ * delta_lattice([(1, x0)], lat)
    assert propagator_D(+1, [(1, x0)], lat, "scalar", deriv=0) == want
    assert propagator_D(-1, [(1, x0)], lat, "scalar", deriv=0) == want


def test_propagator_derivative_at_zero_counts_modes():
    lat = ModeLattice.make(
        [(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)],
        {"scalar": 2})
    origin = FieldPoint.make(0, (0, 0, 0))
    val = propagator_D(+1, [(1, origin)], lat, "scalar", deriv=0)
    n = len(lat.modes)
    assert val == ScalarExpr.gaussian(__import__("gradedqft.scalars", fromlist=["GaussianRational"]).GaussianRational(0, F(-n, 2)))


def test_dirac_mode_brackets_reproduce_shell_projectors():
    # {a+_al(p), a^be(q)} = Pi+(p)^be_al delta_pq, and the c-pair gives Pi-
    for momentum, mass in [((4, 0, 0), F(3)), ((1, 0, 0), F(1)), ((1, 2, 2), F(2))]:
        lat = ModeLattice.make([momentum, tuple(-x for x in momentum)],
                               {"dirac": mass})
        from gradedqft.fields import dirac_dressing
        k, kinv = dirac_dressing(lat, lat.modes[0])
        k2, _ = dirac_dressing(lat, lat.modes[1])
        p = OnShellMomentum.make(momentum, mass)
        pi_plus = shell_projector(p, +1)
        pi_minus = shell_projector(p, -1)
        for al in range(4):
            for be in range(4):
                adag = GradedExpr.zero()
                a_up = GradedExpr.zero()
                c_dn = GradedExpr.zero()
                cdag = GradedExpr.zero()
                for aa in range(2):
                    adag = adag + GradedExpr.of(
                        OpGen(EMIT, LOWER, "dirac_particle", 0, (aa,)), kinv[aa, al])
                    a_up = a_up + GradedExpr.of(
                        OpGen(ABSORB, UPPER, "dirac_particle", 0, (aa,)), k[be, aa])
                    c_dn = c_dn + GradedExpr.of(
                        OpGen(ABSORB, LOWER, "dirac_antiparticle", 0, (aa,)),
                        kinv[aa + 2, al])
                    cdag = cdag + GradedExpr.of(
                        OpGen(EMIT, UPPER, "dirac_antiparticle", 0, (aa,)),
                        k[be, aa + 2])
                br = super_bracket(adag, a_up)
                assert br.scalar_part() == pi_plus[be, al]
                assert br.operator_part().is_zero()
                br2 = super_bracket(c_dn, cdag)
                assert br2.scalar_part() == pi_minus[be, al]
                # mixed pairs vanish
                assert super_bracket(adag, cdag).is_zero()
                assert super_bracket(c_dn, a_up).is_zero()


def test_dirac_field_supercommutator_matches_D_form():
    # {psibar_al(x), psi^be(y)} = (1/2m)((-m + i gamma d)D(x-y))^be_al
    lat = ModeLattice.make([(4, 0, 0), (-4, 0, 0)], {"dirac": 3})
    m = lat.mass("dirac")
    from gradedqft.gammas import GAMMA
    d_tot = propagator_D_total(XY, lat, "dirac")
    d_der = [propagator_D_total(XY, lat, "dirac", deriv=lam) for lam in range(4)]
    for al in range(4):
        for be in range(4):
            psb = conjugate_field("dirac", al, X, lat)
            ps = field("dirac", be, Y, lat)
            got = field_supercommutator(psb, ps)
            want = ScalarExpr.zero()
            if al == be:
                want = want + ScalarExpr.rational(-m) * d_tot
            for lam in range(4):
                g = GAMMA[lam].rows[be][al]
                if not g.is_zero():
                    want = want + I_ * g * d_der[lam]
            want = want * ScalarExpr.rational(F(1, 2) / m)
            assert got == want


def test_dirac_vanishing_pairs_at_field_level():
    lat = ModeLattice.make([(4, 0, 0), (-4, 0, 0)], {"dirac": 3})
    assert field_supercommutator(field("dirac", 0, X, lat),
                                 field("dirac", 1, Y, lat)).is_zero()
    assert field_supercommutator(conjugate_field("dirac", 2, X, lat),
                                 conjugate_field("dirac", 3, Y, lat)).is_zero()


def test_gauge_field_commutator_carries_metric():
    lat = sym_lattice()
    for lam in range(4):
        for mu in range(4):
            a1 = field("gauge", (lam, 0), X, lat)
            a2 = field("gauge", (mu, 0), Y, lat)
            got = field_supercommutator(a1, a2)
            if lam != mu:
                assert got.is_zero()
            else:
                gmm = F(1) if lam == 0 else F(-1)
                want = ScalarExpr.rational(gmm) * propagator_D_total(XY, lat, "gauge")
                assert got == want


def test_equal_time_report_all_pass():
    lat = sym_lattice(lie_dim=1)
    checks = equal_time_report(lat, bv.TheorySpec(u1()))
    assert checks and all(c.ok for c in checks)


def test_equal_time_report_with_su2_composites():
    lat = ModeLattice.make([(1, 0, 0), (-1, 0, 0)],
                           {"scalar": 1, "fermion": 1, "dirac": 1},
                           scalar_dim=1, lie_dim=3)
    checks = equal_time_report(lat, bv.TheorySpec(su2()))
    assert checks and all(c.ok for c in checks)


def _equal_time_inventory(d: int) -> set:
    """Names of every equal-time check for scalar_dim 2 and Lie dimension d."""
    pairs = [f"{i}{j}" for i in range(2) for j in range(2)]
    spins = [f"{al}{be}" for al in range(4) for be in range(4)]
    lie = [f"{i}{j}" for i in range(d) for j in range(d)]
    names = {f"scalar.eqt.{tag}[{ab}]" for ab in pairs
             for tag in ("comm", "dt_left", "dt_right", "pi", "phiphi", "pipi")}
    names |= {f"dirac.eqt.{tag}[{ab}]" for ab in spins
              for tag in ("pi_psi", "bar_g0psi")}
    names |= {f"gauge.eqt.A_pi[{lm}{ij}]" for lm in spins for ij in lie}
    names |= {f"gauge.eqt.A_A[{lam}{mu}]" for lam in range(4)
              for mu in range(lam, 4)}
    names |= {f"ghost.eqt.{tag}[{ij}]" for ij in lie
              for tag in ("dbar_om", "dom_bar", "bar_om", "bar_A0", "om_pi",
                          "bar_pi")}
    return names


def _abelian_su2():
    """su2 with every structure constant zero: the abelian limit."""
    lie = su2()
    zeros = tuple(tuple(tuple(F(0) for _ in row) for row in plane)
                  for plane in lie.constants)
    return LieData(lie.dim_f, lie.generators, zeros, lie.metric_h)


@pytest.mark.parametrize("lie,count", [
    (su2(), 264), (_abelian_su2(), 264), (u1(), 88)],
    ids=["su2", "abelian-limit", "u1"])
def test_equal_time_check_inventory(lie, count):
    lat = ModeLattice.make([(1, 0, 0), (-1, 0, 0)], scalar_dim=2, lie_dim=lie.dim)
    checks = equal_time_report(lat, bv.TheorySpec(lie))
    names = [c.name for c in checks]
    assert len(names) == count == len(set(names))
    assert set(names) == _equal_time_inventory(lie.dim)
    assert all(c.ok and c.residual_terms == 0 for c in checks)


def test_equal_time_report_rejects_an_unknown_sector():
    with pytest.raises(FieldError, match="'gauges'"):
        equal_time_report(sym_lattice(), bv.TheorySpec(u1()),
                          sectors=("scalar", "gauges"))


@pytest.mark.parametrize("lie_dim,lie", [(1, su2()), (3, u1())],
                         ids=["su2-on-1", "u1-on-3"])
def test_equal_time_report_rejects_mismatched_lie_dimensions(lie_dim, lie):
    lat = ModeLattice.make([(1, 0, 0), (-1, 0, 0)], lie_dim=lie_dim)
    with pytest.raises(FieldError,
                       match=f"dimension {lie.dim} is not the lattice's {lie_dim}"):
        equal_time_report(lat, bv.TheorySpec(lie))


def _reference_momenta(lat: ModeLattice, constants, y: FieldPoint) -> tuple:
    """The gauge and ghost momenta written out by hand, without the fiber
    layer: Pi^mu_J = g^{mu mu}(A^J_{0,mu} - A^J_{mu,0} - c_{JKH} A^K_mu A^H_0)
    - g^{mu 0} g^{nu nu} A^J_{nu,nu},
    Pi^I = -(omega^I_{,0} + c_{IKH} omega^K A^H_0) and Pi_J = omegabar_{J,0},
    the products under the modified rule."""
    lie = range(lat.lie_dim)
    g = (1, -1, -1, -1)
    a = [[field("gauge", (mu, k), y, lat) for k in lie] for mu in range(4)]
    om = [field("ghost", k, y, lat) for k in lie]

    def d_a(mu, lj, lam):  # A^lj_{mu,lam}
        return field("gauge", (mu, lj), y, lat, (lam,))

    def composite(li, left):  # c_{li K H} left^K A^H_0
        return GradedExpr.sum(
            koszul_product(left[kk], a[0][hh], "modified")
            .scale(ScalarExpr.rational(constants[li][kk][hh]))
            for kk in lie for hh in lie if constants[li][kk][hh])

    gauge = {}
    for mu in range(4):
        for lj in lie:
            pi = (d_a(0, lj, mu) - d_a(mu, lj, 0)
                  - composite(lj, a[mu])).scale(ScalarExpr.rational(g[mu]))
            if mu == 0:
                pi = pi - GradedExpr.sum(d_a(nu, lj, nu).scale(
                    ScalarExpr.rational(g[nu])) for nu in range(4))
            gauge[mu, lj] = pi
    pi_bar = [-(field("ghost", li, y, lat, (0,)) + composite(li, om)) for li in lie]
    pi_om = [conjugate_field("ghost", lj, y, lat, (0,)) for lj in lie]
    return gauge, pi_bar, pi_om


def _momentum_mismatch(lie) -> int:
    """Surviving terms of the momenta read off L_gauge + L_ghost (gauge)
    and L_ghost (ghost) minus the hand-written ones, over every mu, I, J."""
    lat = ModeLattice.make([(1, 0, 0), (-1, 0, 0)], lie_dim=lie.dim)
    th = bv.TheorySpec(lie)
    y = FieldPoint.make("t", "y")
    gauge, pi_bar, pi_om = _reference_momenta(lat, lie.constants, y)
    assert all(not p.is_zero() for p in [*gauge.values(), *pi_bar, *pi_om])
    both = fields._momentum_rule(bv.lagrangian_gauge(th) + bv.lagrangian_ghost(th),
                                 y, lat)
    ghost = fields._momentum_rule(bv.lagrangian_ghost(th), y, lat)
    return sum((both(th.a_gauge(lj, mu)) - want).n_terms
               for (mu, lj), want in gauge.items()) + \
        sum((ghost(th.omegabar(li)) - pi_bar[li]).n_terms
            + (ghost(th.omega(li)) - pi_om[li]).n_terms for li in range(lie.dim))


@pytest.mark.parametrize("lie", [u1(), su2(), su3()], ids=["u1", "su2", "su3"])
def test_momenta_from_the_lagrangians_match_the_hand_written_ones(lie):
    assert _momentum_mismatch(lie) == 0


def _mutated_verify(monkeypatch, module, name, honest, mutated, suites) -> dict:
    """The report of ``suites`` on the default config with ``honest``
    replaced by ``mutated`` in the source of module.name."""
    import inspect

    source = inspect.getsource(getattr(module, name))
    assert source.count(honest) == 1
    namespace = dict(vars(module))
    exec(source.replace(honest, mutated), namespace)
    monkeypatch.setattr(module, name, namespace[name])
    return run_verify(load_config(None), suites)


@pytest.mark.parametrize("name,honest,mutated,kills", [
    ("_fiber_letter", "-METRIC[lam]", "METRIC[lam]", {("equal_time.gauge", "3 terms")}),
    ("_momentum_rule", "-d if c.parity else d", "d", {("equal_time.ghost", "6 terms")}),
], ids=["n_is_plus_f", "textbook_sign_dropped"])
def test_momentum_convention_mutation_fails_equal_time(monkeypatch, name, honest,
                                                       mutated, kills):
    """Mutation rows: n^I mapped to +f^I, or the momentum without its
    (-1)^{|c|}, fails exactly one equal-time identity and the reference."""
    report = _mutated_verify(monkeypatch, fields, name, honest, mutated, ["equal_time"])
    failed = {(e["identity"], e["residual"])
              for e in report["identities"] if e["status"] != "pass"}
    assert failed == kills
    assert _momentum_mismatch(su2()) > 0


def test_field_strength_composite_has_one_source(monkeypatch):
    """Mutation row: the structure-constant term of `bv.field_strength`
    negated fails the matter+gauge invariance and the BRST current, and
    the gauge momenta read off L_gauge change with it; the equal-time
    identities still pass, since the composite drops out at x0 = y0."""
    report = _mutated_verify(monkeypatch, bv, "field_strength",
                             "ScalarExpr.rational(-c)", "ScalarExpr.rational(c)",
                             ["bv", "brst", "equal_time"])
    status = {e["identity"]: (e["status"], e["residual"]) for e in report["identities"]}
    failed = {k: v for k, v in status.items() if v[0] != "pass"}
    assert failed.keys() == {"brst.matter_gauge_invariance", "brst.current_equivalence"}
    assert failed["brst.matter_gauge_invariance"] == ("fail", "288 terms")
    assert failed["brst.current_equivalence"][0] == "error"
    assert "NotASymmetryError" in failed["brst.current_equivalence"][1]
    assert all(status[f"equal_time.{s}"][0] == "pass"
               for s in ("scalar", "dirac", "gauge", "ghost"))
    assert _momentum_mismatch(su2()) > 0


def _flip_energy_sign(monkeypatch):
    """`_plane_wave` with the sign of its energy term flipped."""
    import inspect

    honest = "qsum_scale(qsum_sqrt(esq), s)"
    source = inspect.getsource(fields._plane_wave)
    assert source.count(honest) == 1
    namespace = dict(vars(fields))
    exec(source.replace(honest, "qsum_scale(qsum_sqrt(esq), -s)"), namespace)
    monkeypatch.setattr(fields, "_plane_wave", namespace["_plane_wave"])


def _negate_metric(monkeypatch):
    """`gammas.METRIC` negated in every module of the package that binds it."""
    import importlib
    import pkgutil

    import gradedqft
    from gradedqft import gammas

    honest = gammas.METRIC
    flipped = tuple(-g for g in honest)
    binders = []
    for info in pkgutil.iter_modules(gradedqft.__path__):
        module = importlib.import_module(f"gradedqft.{info.name}")
        if getattr(module, "METRIC", None) is honest:
            monkeypatch.setattr(module, "METRIC", flipped)
            binders.append(info.name)
    assert binders == ["algebra", "bv", "fields", "functionals", "gammas",
                       "identities", "oracle"]


def _swap_boost(monkeypatch):
    """`gammas.boost` returning (K^-1, K), where every caller binds it."""
    from gradedqft import gammas, identities

    honest = gammas.boost

    def swapped(p):
        k, kinv = honest(p)
        return kinv, k

    for module in (gammas, fields, identities):
        assert module.boost is honest
        monkeypatch.setattr(module, "boost", swapped)


#: the default-config identities that fail under each convention flip
_ENERGY_SIGN_KILLS = {
    "equal_time.gauge", "equal_time.ghost", "equal_time.scalar",
    "functional.dirac_momentum.0", "functional.fp_charge",
    "functional.fp_current_spatial", "functional.ghost_momentum.1",
    "oracle.functionals",
    "table.supercommutators.fermion", "table.supercommutators.scalar",
}
_SIGNATURE_KILLS = {
    "dirac.clifford", "equal_time.gauge", "equal_time.ghost",
    "functional.fermion_hamiltonian", "functional.ghost_hamiltonian",
    "functional.ghost_momentum.0", "functional.scalar_hamiltonian",
    "oracle.functionals",
}
_BOOST_SWAP_KILLS = {
    "dirac.field_anticommutator", "dirac.frames", "dirac.mode_brackets",
    "functional.dirac_hamiltonian", "oracle.dirac",
}


@pytest.mark.parametrize("flip,kills", [
    (_flip_energy_sign, _ENERGY_SIGN_KILLS),
    (_negate_metric, _SIGNATURE_KILLS),
    (_swap_boost, _BOOST_SWAP_KILLS),
], ids=["energy_sign", "signature", "boost_swap"])
def test_convention_flip_fails_the_pinned_identities(monkeypatch, flip, kills):
    """Mutation rows: the plane wave's energy sign flipped, the metric
    signature negated, or K swapped with K^-1 in the Dirac dressing fails
    exactly the identities above in the default `verify`, starting from
    empty phase and letter-bracket tables."""
    from gradedqft import algebra

    monkeypatch.setattr(fields, "_PHASES", {})
    monkeypatch.setattr(algebra, "_LETTER_BRACKETS", {})
    flip(monkeypatch)
    report = run_verify(load_config(None))
    failed = {e["identity"] for e in report["identities"] if e["status"] != "pass"}
    assert len(report["identities"]) == 59
    assert failed == kills


def test_equal_time_requires_symmetric_lattice():
    lat = ModeLattice.make([(1, 0, 0), (0, 1, 0)])
    with pytest.raises(LatticeError):
        equal_time_report(lat, bv.TheorySpec(u1()))


def species_phase_consistent(f: GradedExpr) -> bool:
    """Invariant of linear field expressions at the symbolic point X:
    absorption operators ride e^{-i<p,x>} (negative on-shell time
    frequency) and emissions the conjugate phase."""
    key = ("t", X.t)
    for word, coeff in f.terms.items():
        if len(word) != 1:
            return False  # not a linear field expression
        want = 1 if word[0].species == EMIT else -1
        for (_, phase) in coeff.terms:
            freq = dict(phase).get(key)
            if not freq:
                return False
            # radicands are positive, so each coefficient sign is the sign
            # of its sqrt term; all must match the species
            if any((1 if c > 0 else -1) != want for _, c in freq):
                return False
    return True


def test_species_phase_pairing_invariant():
    lat = sym_lattice(lie_dim=2)
    fields = [
        (field, "scalar", 0), (field, "fermion", 1), (field, "dirac", 2),
        (field, "gauge", (1, 0)), (field, "ghost", 1),
        (conjugate_field, "scalar", 0), (conjugate_field, "fermion", 1),
        (conjugate_field, "dirac", 3), (conjugate_field, "ghost", 0),
    ]
    for make, sector, component in fields:
        assert species_phase_consistent(make(sector, component, X, lat))
        for lam in range(4):
            assert species_phase_consistent(make(sector, component, X, lat, (lam,)))
    # the operator transpose deliberately breaks the pairing
    assert not species_phase_consistent(star_field("scalar", 0, X, lat))


def test_species_phase_pairing_invariant_gauge_indices():
    lat = sym_lattice(lie_dim=2)
    for lam in range(4):
        for li in range(2):
            f = field("gauge", (lam, li), X, lat)
            assert f.n_terms == 2 * len(lat.modes)
            assert species_phase_consistent(f)
            for nu in range(4):
                assert species_phase_consistent(field("gauge", (lam, li), X, lat, (nu,)))
