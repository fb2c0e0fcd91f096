from fractions import Fraction

import pytest

from gradedqft.algebra import ABSORB, EMIT, LOWER, UPPER, GradedExpr, OpGen
from gradedqft.fields import FieldPoint, ModeLattice, conjugate_field, field
from gradedqft.functionals import (
    FunctionalError,
    density_product,
    dirac_charge,
    four_momentum,
    fp_current_integral,
    free_hamiltonian,
    scalar_h_pieces,
    spatial_integral,
)
from gradedqft.scalars import ScalarExpr

F = Fraction


def lat_sym(**kw):
    masses = kw.pop("masses", {"scalar": 1, "fermion": 1, "dirac": 1})
    return ModeLattice.make([(0, 0, 0), (1, 0, 0), (-1, 0, 0)], masses, **kw)


def lat_nozero(**kw):
    masses = kw.pop("masses", {"scalar": 1, "fermion": 1, "dirac": 1})
    return ModeLattice.make([(1, 0, 0), (-1, 0, 0)], masses, **kw)


def lat_pyth(**kw):
    masses = kw.pop("masses", {"scalar": 3, "fermion": 3, "dirac": 3})
    return ModeLattice.make([(0, 0, 0), (4, 0, 0), (-4, 0, 0)], masses, **kw)


def test_plane_wave_orthogonality():
    x = FieldPoint.make("t", "x")
    lat = lat_nozero()
    f = field("scalar", 0, x, lat)
    g = field("scalar", 0, x, lat)
    prod = density_product(f, g)
    out = spatial_integral(prod, x)
    # a term survives iff its total plane-wave momentum vanishes
    # (emission contributes +p, absorption -p)
    assert out.n_terms
    for word, c in out.terms.items():
        assert len(word) == 2
        total = (F(0),) * 3
        for gen in word:
            sgn = 1 if gen.species == "emit" else -1
            total = tuple(t + sgn * pi for t, pi in
                          zip(total, lat.modes[gen.mode].momentum))
        assert total == (F(0),) * 3


def test_integrated_bilinear_single_mode():
    # integral of phibar_a phi^a on one nonzero mode, boson:
    # (2E)^{-1} (a+_a a^a + a+^a a_a), anti-normal pair reordered with +
    lat = ModeLattice.make([(4, 0, 0)], {"scalar": 3}, scalar_dim=1)
    x = FieldPoint.make("t", "x")
    dens = density_product(conjugate_field("scalar", 0, x, lat),
                           field("scalar", 0, x, lat))
    out = spatial_integral(dens, x)
    inv2e = ScalarExpr.rational(F(1, 10))
    want = GradedExpr({
        (OpGen(EMIT, LOWER, "scalar", 0, (0,)),
         OpGen(ABSORB, UPPER, "scalar", 0, (0,))): inv2e,
        (OpGen(EMIT, UPPER, "scalar", 0, (0,)),
         OpGen(ABSORB, LOWER, "scalar", 0, (0,))): inv2e,
    })
    assert out == want


def test_nonintegrable_density_flagged():
    lat = lat_nozero()
    x = FieldPoint.make("t", "x")
    y = FieldPoint.make("t", "y")
    bad = density_product(field("scalar", 0, x, lat))
    from gradedqft.scalars import NonIntegrablePhaseError
    with pytest.raises(NonIntegrablePhaseError):
        spatial_integral(bad, y)
    with pytest.raises(FunctionalError):
        density_product(field("scalar", 0, x, lat), field("scalar", 0, y, lat))


@pytest.mark.parametrize("make_lat", [lat_sym, lat_pyth])
def test_scalar_hamiltonian_reduces(make_lat):
    lat = make_lat()
    res = free_hamiltonian("scalar", lat)
    assert res.match, res.residual
    assert res.time_independent
    assert res.reduced.scalar_part().is_zero()  # zero vacuum expectation


def test_scalar_hamiltonian_fermi_statistics():
    # same closed form for a fermionic generic field: the conjugate-field
    # minus sign and the odd reordering sign compensate
    res = free_hamiltonian("fermion", lat_sym())
    assert res.match, res.residual
    assert res.time_independent


def test_scalar_h_cross_terms_cancel_between_pieces():
    lat = lat_sym(scalar_dim=1)
    t_p, g_p, m_p = scalar_h_pieces(lat)

    def has_pair_terms(e):
        return any(
            len(w) == 2 and w[0].species == w[1].species for w in e.terms)

    # each piece alone carries aa / a+a+ terms; the sum does not
    assert has_pair_terms(t_p)
    assert has_pair_terms(g_p)
    assert has_pair_terms(m_p)
    assert not has_pair_terms(t_p + g_p + m_p)


@pytest.mark.parametrize("make_lat", [lat_sym, lat_pyth])
def test_dirac_charge_reduces(make_lat):
    res = dirac_charge(make_lat())
    assert res.match, res.residual
    assert res.time_independent
    assert res.reduced.scalar_part().is_zero()  # zero vacuum expectation


@pytest.mark.parametrize("lam", [0, 1, 2, 3])
def test_dirac_momentum_reduces(lam):
    res = four_momentum("dirac", lam, lat_pyth())
    assert res.match, res.residual
    assert res.time_independent


@pytest.mark.parametrize("lam", [0, 1, 2, 3])
def test_ghost_momentum_reduces(lam):
    res = four_momentum("ghost", lam, lat_nozero(lie_dim=2))
    assert res.match, res.residual
    assert res.time_independent


@pytest.mark.parametrize("sector, make_lat", [
    ("dirac", lat_pyth),
    ("ghost", lambda: lat_nozero(lie_dim=2)),
], ids=["dirac", "ghost"])
def test_dirac_hamiltonian_equals_momentum_zero(sector, make_lat):
    lat = make_lat()
    h = free_hamiltonian(sector, lat)
    p0 = four_momentum(sector, 0, lat)
    assert h.match and p0.match
    assert h.reduced == p0.reduced


def test_ghost_hamiltonian_reduces():
    res = free_hamiltonian("ghost", lat_nozero(lie_dim=3))
    assert res.match, res.residual


def test_fp_charge_reduces_on_symmetric_lattice():
    res = fp_current_integral(0, lat_nozero(lie_dim=2))
    assert res.match, res.residual
    assert res.time_independent
    assert res.reduced.scalar_part().is_zero()  # zero vacuum expectation


@pytest.mark.parametrize("lam", [0, 1, 2, 3])
def test_fp_current_integral_reduces_without_momentum_pairs(lam):
    # closed quadratic form holds exactly when no p/-p pair is present
    res = fp_current_integral(lam, ModeLattice.make([(1, 0, 0), (0, 2, 0)],
                                                    lie_dim=2))
    assert res.match, res.residual
    assert res.time_independent


def test_fp_spatial_cross_terms_on_symmetric_lattice():
    # with both p and -p on the lattice, the spatial current integrals keep
    # oscillating creation-creation / annihilation-annihilation pairs; only
    # the charge (lam = 0) is free of them
    res = fp_current_integral(1, lat_nozero(lie_dim=1))
    assert not res.match
    for word, c in res.residual.terms.items():
        assert len(word) == 2
        assert word[0].species == word[1].species
        assert c.has_time_dependence()


def test_fp_charge_counts_ghost_number():
    # lambda = 0 on one mode: i (g+ g - k+ k); the anti-ghost quanta enter
    # with the opposite sign to the 4-momentum case
    lat = ModeLattice.make([(1, 0, 0), (-1, 0, 0)], lie_dim=1)
    res = fp_current_integral(0, lat)
    assert res.match
    i_ = ScalarExpr.i()
    for mode in lat.modes:
        gplus = (OpGen(EMIT, LOWER, "ghost", mode.id, (0,)),
                 OpGen(ABSORB, UPPER, "ghost", mode.id, (0,)))
        kplus = (OpGen(EMIT, UPPER, "antighost", mode.id, (0,)),
                 OpGen(ABSORB, LOWER, "antighost", mode.id, (0,)))
        assert res.reduced.terms[gplus] == i_
        assert res.reduced.terms[kplus] == -i_


def test_fp_spatial_component_single_mode():
    # single mode (q,0,0): J^1 integral = -i (q/E)(g+ g - k+ k)
    lat = ModeLattice.make([(2, 0, 0)], lie_dim=1)
    res = fp_current_integral(1, lat)
    assert res.match
    gplus = (OpGen(EMIT, LOWER, "ghost", 0, (0,)),
             OpGen(ABSORB, UPPER, "ghost", 0, (0,)))
    assert res.reduced.terms[gplus] == -(ScalarExpr.i())  # q/E = 1 here


def test_negative_control_wrong_conjugate_sign_breaks_dirac_momentum():
    # rebuild the Dirac momentum with +c instead of -c in psibar: the
    # anti-particle branch flips and the reduction must fail
    lat = ModeLattice.make([(4, 0, 0), (-4, 0, 0)], {"dirac": 3})
    x = FieldPoint.make("t", "x")
    from gradedqft.fields import dirac_dressing, plane_phase
    from gradedqft.functionals import dirac_momentum_target
    from gradedqft.gammas import GAMMA

    def psibar_wrong(al):
        expr = GradedExpr.zero()
        for mode in lat.modes:
            w = lat.weight("dirac", mode)
            esq = lat.energy_sq("dirac", mode)
            _, kinv = dirac_dressing(lat, mode)
            ph_m = plane_phase(+1, esq, mode.momentum, [(1, x)])
            ph_p = plane_phase(-1, esq, mode.momentum, [(1, x)])
            for aa in range(2):
                expr = expr + GradedExpr.of(
                    OpGen(ABSORB, LOWER, "dirac_antiparticle", mode.id, (aa,)),
                    kinv[aa + 2, al] * w * ph_m)  # sign flipped here
                expr = expr + GradedExpr.of(
                    OpGen(EMIT, LOWER, "dirac_particle", mode.id, (aa,)),
                    kinv[aa, al] * w * ph_p)
        from gradedqft.fields import FieldExpr
        return FieldExpr(expr, "dirac", al, x, lat)

    i_ = ScalarExpr.i()
    dens = GradedExpr.zero()
    for al in range(4):
        for be in range(4):
            g = GAMMA[0].rows[al][be]
            if g.is_zero():
                continue
            pb = psibar_wrong(al)
            ps = field("dirac", be, x, lat)
            dens = dens + density_product(pb.deriv(0), ps).scale(
                -(ScalarExpr.rational(F(1, 2)) * i_ * g))
            dens = dens + density_product(pb, ps.deriv(0)).scale(
                ScalarExpr.rational(F(1, 2)) * i_ * g)
    red = spatial_integral(dens, x)
    assert red != dirac_momentum_target(lat, 0)


# --- the matched product against the full density product ----------------

def _reference_integral(lattice, sector, rows):
    """`functionals._integral` by the full density product: every word pair
    of the two fields is multiplied, and `spatial_integral` drops the
    terms whose phase survives."""
    from gradedqft.linear import add_into, add_term

    x = FieldPoint.make("t", "x")
    weights = {}
    for w, a, mu, b, nu in rows:
        if not isinstance(w, ScalarExpr):
            w = ScalarExpr.rational(w)
        add_term(weights, (a, mu, b, nu), w)

    def part(make, c, lam):
        f = make(sector, c, x, lattice)
        return f if lam is None else f.deriv(lam)

    dens = {}
    for (a, mu, b, nu), w in weights.items():
        prod = density_product(part(conjugate_field, a, mu), part(field, b, nu))
        add_into(dens, prod.scale(w).terms)
    return spatial_integral(GradedExpr(dens), x)


def _every_builder(lat, lat_ghost):
    """name -> reduced operator, for every functional builder; the ghost
    sector, massless, runs on the lattice without its zero mode."""
    out = {"dirac_charge": dirac_charge(lat).reduced}
    for lam in range(4):
        out[f"dirac_momentum[{lam}]"] = four_momentum("dirac", lam, lat).reduced
        out[f"ghost_momentum[{lam}]"] = four_momentum("ghost", lam, lat_ghost).reduced
        out[f"fp_current[{lam}]"] = fp_current_integral(lam, lat_ghost).reduced
    for sector in ("scalar", "fermion"):
        for name, piece in zip("tgm", scalar_h_pieces(lat, sector)):
            out[f"{sector}_h_piece_{name}"] = piece
    for sector in ("scalar", "fermion", "dirac"):
        out[f"{sector}_hamiltonian"] = free_hamiltonian(sector, lat).reduced
    out["ghost_hamiltonian"] = free_hamiltonian("ghost", lat_ghost).reduced
    return out


def _items(e):
    """The terms of e, and of each coefficient, in their stored order."""
    return [(w, list(c.terms.items())) for w, c in e.terms.items()]


_HALF, _THIRD = F(1, 2), F(1, 3)


@pytest.mark.parametrize("momenta, masses", [
    ([(0, 0, 0), (1, 0, 0), (-1, 0, 0)], {}),
    ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)], {}),
    ([(0, 0, 0), (_HALF, 0, 0), (-_HALF, 0, 0), (0, _THIRD, 0), (0, -_THIRD, 0)],
     {"scalar": F(3, 2), "dirac": 2}),
], ids=["default", "lattice4", "fractional"])
def test_matched_product_is_the_full_density_reduction(monkeypatch, momenta, masses):
    """Every builder gives the same operator, word for word and term for
    term in the same order, whether `_integral` forms only the pairs whose
    x-vectors cancel or the whole density first.  The default lattice has
    the non-square energy sqrt(2); the fractional one a scalar mass of
    3/2 and the energies sqrt(5/2) and sqrt(37)/6."""
    import gradedqft.functionals as functionals

    lat = ModeLattice.make(momenta, masses, scalar_dim=2, lie_dim=2)
    lat_ghost = ModeLattice.make([p for p in momenta if any(p)], masses,
                                 scalar_dim=2, lie_dim=2)
    matched = _every_builder(lat, lat_ghost)
    monkeypatch.setattr(functionals, "_integral", _reference_integral)
    full = _every_builder(lat, lat_ghost)
    assert matched.keys() == full.keys()
    for name in full:
        assert _items(matched[name]) == _items(full[name]), name
    assert sum(e.n_terms for e in full.values()) > 0


def test_matched_product_still_rejects_a_foreign_position():
    """The matched terms still pass through `spatial_integral`: the zero
    mode of the field at x, phase-free in x, meets the terms of a field at
    y that carry a phase in y, and the integral over x raises."""
    import gradedqft.functionals as functionals
    from gradedqft.scalars import NonIntegrablePhaseError

    lat = lat_sym()
    x, y = FieldPoint.make("t", "x"), FieldPoint.make("t", "y")
    bar = conjugate_field("scalar", 0, x, lat)
    index = functionals._x_index(field("scalar", 0, y, lat), "x")
    prod = functionals._matched_product(bar, index, "x")
    assert prod.n_terms
    with pytest.raises(NonIntegrablePhaseError):
        spatial_integral(prod, x)


#: the default-config identities that fail when `_matched_product` pairs
#: each x-vector with itself instead of its opposite: only the zero mode's
#: phase-free terms still meet, so every reduction on a lattice with a
#: nonzero momentum comes out wrong
_MATCH_KILLS = {
    "functional.dirac_charge", "functional.dirac_hamiltonian",
    "functional.dirac_momentum.0", "functional.dirac_momentum.1",
    "functional.fermion_hamiltonian", "functional.fp_charge",
    "functional.fp_current_spatial", "functional.ghost_hamiltonian",
    "functional.ghost_momentum.0", "functional.ghost_momentum.1",
    "functional.scalar_hamiltonian", "oracle.functionals",
}


def test_unmatched_lookup_fails_the_functional_identities(monkeypatch):
    """Mutation row: the lookup of the opposite x-vector replaced by the
    same vector fails exactly the identities above in the default
    `verify`."""
    import inspect

    import gradedqft.functionals as functionals
    from gradedqft.cli import load_config, run_verify

    honest = "phi_index.get(_opposite(v), ())"
    source = inspect.getsource(functionals._matched_product)
    assert source.count(honest) == 1
    namespace = dict(vars(functionals))
    exec(source.replace(honest, "phi_index.get(v, ())"), namespace)
    monkeypatch.setattr(functionals, "_matched_product",
                        namespace["_matched_product"])
    report = run_verify(load_config(None))
    failed = {e["identity"] for e in report["identities"] if e["status"] != "pass"}
    assert len(report["identities"]) == 59
    assert failed == _MATCH_KILLS


def test_the_functionals_suite_derives_each_field_once(monkeypatch):
    """Counts work, not time: over the functionals suite each derived
    field -- (lattice, sector, component, field or conjugate, lambda) -- is
    built once, in its lattice's memo, though many functionals share it."""
    from collections import Counter

    from gradedqft import cli, fields

    monkeypatch.setattr(cli, "_worker_count", lambda jobs: 1)
    built, alive = Counter(), []
    honest = fields.FieldExpr.deriv

    def counted(self, lam):
        # a field's expression is its lattice's memo entry, one object per
        # (lattice, sector, component, field or conjugate)
        alive.append(self.expr)  # keeps every id distinct
        built[id(self.expr), lam] += 1
        return honest(self, lam)

    monkeypatch.setattr(fields.FieldExpr, "deriv", counted)
    report = cli.run_verify(cli.load_config(None), ["functionals"])
    assert report["passed"] > 0 and report["failed"] == 0
    assert built and max(built.values()) == 1
