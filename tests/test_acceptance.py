"""Acceptance gate: ten criteria, each timed and printed as one line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
summary lines; every criterion asserts its own tolerance and budget.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from gradedqft import algebra as alg
from gradedqft import bv
from gradedqft import functionals as fn
from gradedqft import lie as lie_mod
from gradedqft import oracle as orc
from gradedqft.algebra import ABSORB, EMIT, LOWER, UPPER, GradedExpr, OpGen
from gradedqft.cli import context_from_config, load_config, render_report, run_verify
from gradedqft.fields import (
    FieldPoint,
    ModeLattice,
    conj_C_field,
    conjugate_field,
    delta_lattice,
    equal_time_report,
    field,
    propagator_D,
    propagator_D_total,
)
from gradedqft.gammas import OnShellMomentum, SpinMatrix, boost, shell_projector
from gradedqft.scalars import GaussianRational, ScalarExpr

F = Fraction


def field_supercommutator(f, g) -> ScalarExpr:
    """Super-bracket of two field components on one lattice, which must be
    central: its scalar value."""
    assert f.lattice is g.lattice
    br = alg.super_bracket(f.expr, g.expr)
    assert br.operator_part().is_zero()
    return br.scalar_part()


def default_context():
    """The run context of the default config."""
    return context_from_config(load_config(None))


class Budget:
    def __init__(self, number, label, seconds):
        self.number, self.label, self.seconds = number, label, seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number:>2} [{status}] {self.label}: "
              f"{dt:.2f}s (budget {self.seconds}s)")
        if exc_type is None:
            assert dt < self.seconds, f"criterion {self.number} over budget"
        return False


def test_criterion_01_elementary_algebra():
    with Budget(1, "elementary super-commutators, 3 modes x dim 2", 5):
        lat = ModeLattice.make([(0, 0, 0), (1, 0, 0), (0, 2, 0)])
        modes = range(3)
        for sector in ("scalar", "fermion"):
            for p, q, a, b in itertools.product(modes, modes, range(2), range(2)):
                want = GradedExpr.unit() if (p == q and a == b) else GradedExpr.zero()
                pairs = [
                    ((ABSORB, UPPER), (EMIT, LOWER), want),
                    ((ABSORB, LOWER), (EMIT, UPPER), want),
                    # the eight vanishing families
                    ((ABSORB, UPPER), (ABSORB, UPPER), GradedExpr.zero()),
                    ((ABSORB, LOWER), (ABSORB, LOWER), GradedExpr.zero()),
                    ((EMIT, UPPER), (EMIT, UPPER), GradedExpr.zero()),
                    ((EMIT, LOWER), (EMIT, LOWER), GradedExpr.zero()),
                    ((ABSORB, UPPER), (ABSORB, LOWER), GradedExpr.zero()),
                    ((EMIT, UPPER), (EMIT, LOWER), GradedExpr.zero()),
                    ((ABSORB, LOWER), (EMIT, LOWER), GradedExpr.zero()),
                    ((ABSORB, UPPER), (EMIT, UPPER), GradedExpr.zero()),
                ]
                for (s1, p1), (s2, p2), target in pairs:
                    br = alg.super_bracket(
                        GradedExpr.of(OpGen(s1, p1, sector, p, (a,))),
                        GradedExpr.of(OpGen(s2, p2, sector, q, (b,))))
                    assert br == target


def test_criterion_02_propagators_27_modes():
    with Budget(2, "lattice propagator identities, 27 modes", 10):
        lat = ModeLattice.make(
            [(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1)
             for k in (-1, 0, 1)], {"scalar": 2})
        x0 = FieldPoint.make(0, "x")
        xt = FieldPoint.make("t", "x")
        assert propagator_D_total([(1, x0)], lat, "scalar").is_zero()
        assert (propagator_D(+1, [(-1, xt)], lat, "scalar") +
                propagator_D(-1, [(1, xt)], lat, "scalar")).is_zero()
        want = ScalarExpr.rational(F(-1, 2)) * ScalarExpr.i() * \
            delta_lattice([(1, x0)], lat)
        for sign in (+1, -1):
            assert propagator_D(sign, [(1, x0)], lat, "scalar", deriv=0) == want
        # and the mode count at coincident points
        origin = FieldPoint.make(0, (0, 0, 0))
        val = propagator_D(+1, [(1, origin)], lat, "scalar", deriv=0)
        assert val == ScalarExpr.gaussian(GaussianRational(0, F(-27, 2)))


def test_criterion_03_field_supercommutator_table():
    with Budget(3, "field super-commutator table, both statistics", 30):
        from gradedqft.identities import _table_identity, _table_translation
        ctx = default_context()
        for sector in ("scalar", "fermion"):
            assert _table_identity(ctx, sector).status == "pass"
        assert _table_translation(ctx).status == "pass"
        # equal-time reductions of the generic sector
        lat = ctx.lattice_nozero
        x = FieldPoint.make("t", "x")
        y = FieldPoint.make("t", "y")
        dlat = delta_lattice([(1, x), (-1, y)], lat)
        i_ = ScalarExpr.i()
        f = field("scalar", 0, x, lat)
        fb = conjugate_field("scalar", 0, y, lat)
        assert field_supercommutator(f, fb).is_zero()
        assert field_supercommutator(f.deriv(0), fb) == -(i_ * dlat)
        assert field_supercommutator(f, fb.deriv(0)) == i_ * dlat


def test_criterion_04_dirac_suite():
    with Budget(4, "Dirac boosts, projectors, anticommutators", 30):
        from gradedqft.identities import dirac_suite
        ctx = default_context()
        # engineered rational momenta for the exact operator identities
        ctx.lattice_nozero = ModeLattice.make(
            [(4, 0, 0), (-4, 0, 0)], {"scalar": 3, "fermion": 3, "dirac": 3})
        for ident in dirac_suite():
            res = ident.run(ctx)
            assert res.status == "pass", (ident.name, res.residual)
        k, _ = boost(OnShellMomentum.make((0, 0, 0), F(5)))
        assert k == SpinMatrix.identity()
        p = OnShellMomentum.make((4, 0, 0), F(3))
        pp, pm = shell_projector(p, +1), shell_projector(p, -1)
        assert pp @ pp == pp and pp @ pm == SpinMatrix.zero()


def test_criterion_05_functional_reductions():
    with Budget(5, "functional reductions to number-operator form", 60):
        lat3 = ModeLattice.make([(0, 0, 0), (4, 0, 0), (-4, 0, 0)],
                                {"scalar": 3, "fermion": 3, "dirac": 3},
                                scalar_dim=2, lie_dim=2)
        lat2 = ModeLattice.make([(1, 0, 0), (-1, 0, 0)],
                                {"scalar": 1, "fermion": 1, "dirac": 1},
                                lie_dim=2)
        lat1 = ModeLattice.make([(4, 0, 0)], {"scalar": 3, "fermion": 3,
                                              "dirac": 3}, lie_dim=2)
        res = fn.dirac_charge(lat3)
        assert res.residual.is_zero() and res.time_independent
        for lam in range(4):
            assert fn.four_momentum("dirac", lam, lat3).residual.is_zero()
            assert fn.four_momentum("ghost", lam, lat2).residual.is_zero()
        for sector, lat in (("scalar", lat3), ("dirac", lat3), ("ghost", lat2)):
            res = fn.free_hamiltonian(sector, lat)
            assert res.residual.is_zero() and res.time_independent, sector
        # the scalar H closed form, verbatim shape on one mode:
        # (1/2) E (a+^b a_b + a+_b a^b) per internal component
        res1 = fn.free_hamiltonian("scalar", lat1)
        assert res1.residual.is_zero()
        half_e = ScalarExpr.rational(F(5, 2))
        for b in range(2):
            w1 = (OpGen(EMIT, UPPER, "scalar", 0, (b,)),
                  OpGen(ABSORB, LOWER, "scalar", 0, (b,)))
            w2 = (OpGen(EMIT, LOWER, "scalar", 0, (b,)),
                  OpGen(ABSORB, UPPER, "scalar", 0, (b,)))
            assert res1.reduced.terms[w1] == half_e
            assert res1.reduced.terms[w2] == half_e
        assert fn.fp_current_integral(0, lat2).residual.is_zero()
        latnp = ModeLattice.make([(1, 0, 0), (0, 2, 0)], lie_dim=2)
        for lam in range(4):
            assert fn.fp_current_integral(lam, latnp).residual.is_zero()


def test_criterion_06_canonical_rules():
    with Budget(6, "equal-time canonical rules, all sectors, xi = 1", 30):
        lat = ModeLattice.make([(1, 0, 0), (-1, 0, 0)],
                               {"scalar": 1, "fermion": 1, "dirac": 1},
                               scalar_dim=1, lie_dim=3)
        checks = equal_time_report(lat, bv.TheorySpec(lie_mod.su2()))
        bad = [c for c in checks if not c.ok]
        assert not bad, bad
        assert any(c.name.startswith("dirac.eqt.pi_psi") for c in checks)
        assert any(c.name.startswith("gauge.eqt.A_pi") for c in checks)
        assert any(c.name.startswith("ghost.eqt.bar_pi") for c in checks)


def test_criterion_07_bv_identities():
    with Budget(7, "BV Laplacian and antibracket identities, 200+ random", 30):
        y0 = bv.FiberCoord("A", "field", (0, 0), ())
        y1 = bv.FiberCoord("A", "field", (1, 0), ())
        th0 = bv.FiberCoord("omega", "field", (0,), ())
        coords = [y0, y1, th0, y0.partner(), y1.partner(), th0.partner()]
        rng = random.Random(20240816)

        def rand_poly(deg=4):
            acc = bv.FiberPoly.zero()
            for _ in range(rng.randint(1, 3)):
                k = rng.randint(0, deg)
                w = tuple(rng.choice(coords) for _ in range(k))
                acc = acc + bv.FiberPoly.word(
                    w, ScalarExpr.rational(rng.randint(-3, 3)))
            return acc

        def homog(deg=4):
            while True:
                f = rand_poly(deg)
                if f.parity() != "mixed" and not f.is_zero():
                    return f

        for _ in range(220):
            f = rand_poly()
            assert bv.bv_laplacian(bv.bv_laplacian(f)).is_zero()
        for _ in range(220):
            f, g = homog(), homog()
            sf = ScalarExpr.rational(-1 if f.parity() == "odd" else 1)
            lhs = bv.bv_laplacian(f * g)
            rhs = bv.bv_laplacian(f) * g + bv.bv_bracket(f, g).scale(sf) + \
                (f * bv.bv_laplacian(g)).scale(sf)
            assert lhs == rhs
        for _ in range(220):
            f, g, h = homog(3), homog(2), homog(2)
            pf = 1 if f.parity() == "odd" else 0
            pg = 1 if g.parity() == "odd" else 0
            sgn = ScalarExpr.rational((-1) ** ((pf + 1) * pg))
            assert bv.bv_bracket(f, g * h) == \
                bv.bv_bracket(f, g) * h + (g * bv.bv_bracket(f, h)).scale(sgn)


def test_criterion_08_brst_suite():
    with Budget(8, "BRST nilpotency, invariance, decomposition", 60):
        rng = random.Random(20240817)
        for maker in (lie_mod.u1, lie_mod.su2, lie_mod.su3):
            th = bv.TheorySpec(maker())
            s = bv.brst_operator(th)
            for c in th.all_base_coords():
                assert s(s(bv.FiberPoly.coord(c))).is_zero()
            coords = th.all_base_coords()
            coords = coords + [c.lift(0) for c in coords[: len(coords) // 2]]
            for _ in range(100):
                f = bv.FiberPoly.zero()
                for _ in range(rng.randint(1, 3)):
                    k = rng.randint(0, 3)
                    w = tuple(rng.choice(coords) for _ in range(k))
                    f = f + bv.FiberPoly.word(
                        w, ScalarExpr.rational(rng.randint(-2, 2)))
                assert s(s(f)).is_zero()
            dec = bv.ghost_lagrangian_decompose(th)
            assert dec.residual.is_zero()
        th2 = bv.TheorySpec(lie_mod.su2())
        s2 = bv.brst_operator(th2)
        l0 = bv.lagrangian_matter(th2) + bv.lagrangian_gauge(th2)
        assert s2(l0).is_zero()
        # negative control
        bad = [[[x for x in row] for row in plane]
               for plane in th2.lie.constants]
        bad[0][0][1] += 1
        bad[0][1][0] -= 1
        s_bad = bv.brst_operator(bv.TheorySpec(lie_mod.LieData(
            th2.lie.dim_f, th2.lie.generators,
            tuple(tuple(tuple(r) for r in p) for p in bad),
            th2.lie.metric_g, th2.lie.metric_h)))
        assert any(not s_bad(s_bad(bv.FiberPoly.coord(th2.omega(i)))).is_zero()
                   for i in range(3))


def test_criterion_09_oracle_cross_checks():
    with Budget(9, "Fock-oracle cross-checks, dim <= 1024, 1e-12", 120):
        from gradedqft.identities import oracle_suite
        ctx = default_context()
        for ident in oracle_suite():
            res = ident.run(ctx)
            assert res.status == "pass", (ident.name, res.residual)
        # spot dimension check: the spaces in use stay within the cap
        lat = ctx.lattice_nozero
        spd = orc.OracleSpace.make(
            lat, sectors=("dirac_particle", "dirac_antiparticle"), cap=1024)
        assert spd.dimension <= 1024


def test_criterion_10_determinism(monkeypatch):
    import gradedqft.cli as cli
    monkeypatch.setattr(cli, "_worker_count", lambda jobs: 1)
    with Budget(10, "byte-identical reports for fixed config and seed", 60):
        cfg = load_config(None)
        cfg["lattice"]["momenta"] = [[1, 0, 0], [-1, 0, 0]]
        cfg["theory"]["lie"] = "u1"
        suites = ["algebra", "propagators", "bv"]
        r1 = render_report(run_verify(cfg, suites=suites), "json")
        r2 = render_report(run_verify(cfg, suites=suites), "json")
        assert r1.encode() == r2.encode()
        data = json.loads(r1)
        assert data["failed"] == 0
        assert data["seed"] == cfg["run"]["seed"]
