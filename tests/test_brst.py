import random
from fractions import Fraction

import pytest

from gradedqft.bv import (
    FiberCoord,
    FiberPoly,
    NotASymmetryError,
    TheorySpec,
    brst_operator,
    _euler_lagrange,
    _first_variation,
    _jets,
    covariant_domega,
    ghost_lagrangian_decompose,
    ghost_number_derivation,
    gradient,
    horizontal_diff,
    lagrangian_gauge,
    lagrangian_ghost,
    lagrangian_matter,
    noether_current,
)
from gradedqft.gammas import METRIC
from gradedqft.lie import LieData, su2, su3, u1
from gradedqft.linear import add_into
from gradedqft.scalars import _CONST, ScalarExpr

F = Fraction

THEORIES = {
    "u1": TheorySpec(u1()),
    "su2": TheorySpec(su2()),
    "su3": TheorySpec(su3()),
}


def theory(name):
    return THEORIES[name]


def m_reference(th):
    """M^lam = g^{lam mu} omegabar_I grad_mu omega^I, written out by hand."""
    return [FiberPoly.sum((FiberPoly.coord(th.omegabar(li)) *
                           covariant_domega(th, li, lam)).scale(
                               ScalarExpr.rational(METRIC[lam]))
                          for li in range(th.d_lie))
            for lam in range(4)]


def test_brst_on_ghost_is_half_c_omega_omega():
    th = theory("su2")
    s = brst_operator(th)
    got = s(FiberPoly.coord(th.omega(0)))
    want = FiberPoly.word((th.omega(1), th.omega(2)))  # (1/2) eps: two terms merge
    assert got == want


def test_brst_on_antighost_and_nl():
    th = theory("su2")
    s = brst_operator(th)
    assert s(FiberPoly.coord(th.omegabar(1))) == FiberPoly.coord(th.nl(1))
    assert s(FiberPoly.coord(th.nl(1))).is_zero()
    assert s(s(FiberPoly.coord(th.omegabar(1)))).is_zero()


def test_brst_on_gauge_field_is_covariant_gradient():
    th = theory("su2")
    s = brst_operator(th)
    for li in range(3):
        for lam in range(4):
            assert s(FiberPoly.coord(th.a_gauge(li, lam))) == \
                covariant_domega(th, li, lam)


def test_brst_kills_antifields():
    th = theory("su2")
    s = brst_operator(th)
    anti = FiberPoly.coord(th.omega(0).partner())
    assert s(anti).is_zero()


@pytest.mark.parametrize("name", ["u1", "su2", "su3"])
def test_brst_squares_to_zero_on_generators(name):
    th = theory(name)
    s = brst_operator(th)
    for c in th.all_base_coords():
        assert s(s(FiberPoly.coord(c))).is_zero(), c
    # and on first jets
    for c in (th.psi(0, 0, (1,)), th.a_gauge(0, 2, (0,)), th.omega(0, (3,))):
        assert s(s(FiberPoly.coord(c))).is_zero(), c


@pytest.mark.parametrize("name", ["u1", "su2", "su3"])
def test_brst_squares_to_zero_on_random_polynomials(name):
    th = theory(name)
    s = brst_operator(th)
    coords = th.all_base_coords()
    coords = coords + [c.lift(1) for c in coords[: len(coords) // 2]]
    rng = random.Random(hash(name) % 10 ** 6)
    for _ in range(100):
        f = FiberPoly.zero()
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(0, 3)
            w = tuple(rng.choice(coords) for _ in range(k))
            f = f + FiberPoly.word(w, ScalarExpr.rational(rng.randint(-2, 2)))
        assert s(s(f)).is_zero()


def test_brst_grade_raises_parity():
    th = theory("su2")
    s = brst_operator(th)
    for c in (th.psi(1, 0), th.a_gauge(0, 1), th.omega(2), th.omegabar(0)):
        f = FiberPoly.coord(c)
        sf = s(f)
        if sf.is_zero():
            continue
        assert sf.parity() != f.parity()


@pytest.mark.parametrize("name", ["su2", "su3"])
def test_negative_control_corrupted_constant_breaks_nilpotency(name):
    th = theory(name)
    bad = [[[x for x in row] for row in plane] for plane in th.lie.constants]
    bad[0][0][1] = bad[0][0][1] + 1
    bad[0][1][0] = bad[0][1][0] - 1  # keep index antisymmetry: the damage is Jacobi
    s_bad = brst_operator(TheorySpec(LieData(
        th.lie.dim_f, th.lie.generators,
        tuple(tuple(tuple(r) for r in p) for p in bad),
        th.lie.metric_g, th.lie.metric_h)))
    broken = any(
        not s_bad(s_bad(FiberPoly.coord(th.omega(li)))).is_zero()
        for li in range(th.d_lie))
    assert broken
    # the matter sector detects the same corruption through [l, l] = c l
    assert not s_bad(s_bad(FiberPoly.coord(th.psi(0, 0)))).is_zero()


@pytest.mark.parametrize("name", ["u1", "su2"])
def test_matter_gauge_lagrangian_is_brst_invariant(name):
    th = theory(name)
    s = brst_operator(th)
    l0 = lagrangian_matter(th) + lagrangian_gauge(th)
    assert s(l0).is_zero()


def test_horizontal_diff_commutes_with_brst():
    th = theory("su2")
    s = brst_operator(th)
    for c in (th.psi(0, 1), th.a_gauge(1, 2), th.omega(0), th.omegabar(2),
              th.nl(1)):
        f = FiberPoly.coord(c)
        for lam in range(4):
            assert horizontal_diff(s(f), lam) == s(horizontal_diff(f, lam))


@pytest.mark.parametrize("name", ["u1", "su2", "su3"])
def test_ghost_lagrangian_decomposition(name):
    th = theory(name)
    dec = ghost_lagrangian_decompose(th)
    assert dec.residual.is_zero(), dec.residual
    # xi-derivative of the residual is identically zero as well
    assert dec.residual.partial_symbol("xi").is_zero()
    assert not dec.s_k.is_zero()
    assert not dec.dh_m.is_zero()


@pytest.mark.parametrize("name", ["u1", "su2", "su3"])
def test_ghost_lagrangian_is_the_decomposed_form(name):
    th = theory(name)
    dec = ghost_lagrangian_decompose(th)
    assert dec.lagrangian == lagrangian_ghost(th)


@pytest.mark.parametrize("name", ["u1", "su2", "su3"])
def test_decomposition_m_is_the_ghost_boundary_form(name):
    # M^lam = -B^lam of the first variation of the gauge fermion
    th = theory(name)
    assert list(ghost_lagrangian_decompose(th).m) == m_reference(th)


@pytest.mark.parametrize("identity", ["brst.ghost_decomposition",
                                      "brst.ghost_decomposition_abelian"])
def test_ghost_decomposition_identity_checks_the_written_lagrangian(monkeypatch,
                                                                     identity):
    from gradedqft import bv, cli, identities
    ident = next(i for i in identities.brst_suite() if i.name == identity)
    ctx = cli.context_from_config(cli.load_config(None))
    assert ident.run(ctx).status == "pass"
    written = bv.lagrangian_ghost

    def one_term_short(th):
        terms = dict(written(th).terms)
        del terms[next(iter(terms))]
        return FiberPoly(terms)

    monkeypatch.setattr(bv, "lagrangian_ghost", one_term_short)
    result = ident.run(ctx)
    assert (result.status, result.residual) == ("fail", "1 terms")


def test_fp_symmetry_current_is_faddeev_popov():
    th = theory("su2")
    v = ghost_number_derivation(th)
    # ghost kinetic sector of the Lagrangian (covariant derivative kept)
    lk = FiberPoly.zero()
    for li in range(th.d_lie):
        for lam in range(4):
            lk = lk + (FiberPoly.coord(th.omegabar(li, (lam,))) *
                       covariant_domega(th, li, lam)).scale(
                           ScalarExpr.rational(METRIC[lam]))
    currents = noether_current(v, lk)
    for lam in range(4):
        want = FiberPoly.zero()
        for li in range(th.d_lie):
            want = want + (FiberPoly.coord(th.omegabar(li, (lam,))) *
                           FiberPoly.coord(th.omega(li))).scale(
                               ScalarExpr.rational(METRIC[lam]))
            want = want - (FiberPoly.coord(th.omegabar(li)) *
                           covariant_domega(th, li, lam)).scale(
                               ScalarExpr.rational(METRIC[lam]))
        assert currents[lam] == want


def test_not_a_symmetry_reports_residual():
    th = theory("u1")
    v = ghost_number_derivation(th)
    # a lone antighost bilinear carries ghost number -2: not a symmetry
    bad_l = FiberPoly.coord(th.omegabar(0)) * FiberPoly.coord(th.omegabar(0, (1,)))
    with pytest.raises(NotASymmetryError) as exc:
        noether_current(v, bad_l)
    assert exc.value.residual is not None and not exc.value.residual.is_zero()


def test_adding_dh_m_preserves_current():
    # v = ghost number, L = free ghost kinetic term, M = the ghost form:
    # delta[v] M = 0, so the order-2 current of L + d_H M equals the
    # order-1 current of L
    th = theory("su2")
    v = ghost_number_derivation(th)
    lk = FiberPoly.zero()
    for li in range(th.d_lie):
        for lam in range(4):
            lk = lk + (FiberPoly.coord(th.omegabar(li, (lam,))) *
                       covariant_domega(th, li, lam)).scale(
                           ScalarExpr.rational(METRIC[lam]))
    m_forms = m_reference(th)
    l2 = lk
    for lam in range(4):
        l2 = l2 + horizontal_diff(m_forms[lam], lam)
    j1 = noether_current(v, lk)
    n2 = [v(m_forms[lam]) for lam in range(4)]
    j2 = noether_current(v, l2, n2)
    for lam in range(4):
        assert j1[lam] == j2[lam]


def test_brst_currents_of_equivalent_lagrangians_agree():
    # L = L0 + Lghost (first order, N = S M) and L' = L0 + S K
    # (second order, N = 0) yield the same BRST current
    th = theory("su2")
    s = brst_operator(th)
    dec = ghost_lagrangian_decompose(th)
    l0 = lagrangian_matter(th) + lagrangian_gauge(th)
    l_full = l0 + dec.lagrangian
    m_forms = m_reference(th)
    n_forms = [s(m) for m in m_forms]
    j1 = noether_current(s, l_full, n_forms)
    l_prime = l0 + dec.s_k
    j2 = noether_current(s, l_prime)
    for lam in range(4):
        assert j1[lam] == j2[lam]


def euler_lagrange(lagr: FiberPoly, base: FiberCoord) -> FiberPoly:
    """E_b(l) = sum_J (-1)^{|J|} d_J D^J_b l over the jets J of the jet-free
    coordinate b in l."""
    return _euler_lagrange(_jets(gradient(lagr)).get(base, ()))


def test_euler_lagrange_of_nl_field_gives_gauge_condition():
    # E_{n_I}(L_ghost) = f^I + xi n^I: the auxiliary field equation
    th = theory("u1")
    e = euler_lagrange(lagrangian_ghost(th), th.nl(0))
    from gradedqft.bv import gauge_fix_f
    want = gauge_fix_f(th, 0) + FiberPoly.coord(th.nl(0), ScalarExpr.symbol("xi"))
    assert e == want


_HALF = ScalarExpr.rational(F(1, 2))


def _reference_jet_deriv(grad, base, jet):
    """D^jet_base l with the symmetric-pair weight 1/2 for distinct
    second-order labels: the order-driven code the sum over sorted jets
    replaced, kept as a reference."""
    out = grad.get(FiberCoord(base.sector, base.kind, base.idx, tuple(sorted(jet))))
    if out is None:
        return FiberPoly.zero()
    return out.scale(_HALF) if len(jet) == 2 and jet[0] != jet[1] else out


def _reference_euler_lagrange(grad, base, order):
    acc = dict(grad.get(base, FiberPoly.zero()).terms)
    for lam in range(4):
        add_into(acc, (-horizontal_diff(_reference_jet_deriv(grad, base, (lam,)),
                                        lam)).terms)
    if order >= 2:
        for lam in range(4):
            for mu in range(4):
                term = _reference_jet_deriv(grad, base, (lam, mu))
                if not term.is_zero():
                    add_into(acc, horizontal_diff(horizontal_diff(term, mu), lam).terms)
    return FiberPoly._wrap(acc)


def _reference_first_variation(v, lagr, order):
    grad = gradient(lagr)
    bases = dict.fromkeys(FiberCoord(c.sector, c.kind, c.idx, ())
                          for c in grad if c.kind == "field")
    comps = {b: comp for b in bases if not (comp := v.on_coord(b)).is_zero()}
    boundary = []
    for lam in range(4):
        acc: dict = {}
        for b, comp in comps.items():
            add_into(acc, (comp * _reference_jet_deriv(grad, b, (lam,))).terms)
            if order == 2:
                for mu in range(4):
                    second = _reference_jet_deriv(grad, b, (lam, mu))
                    if not second.is_zero():
                        add_into(acc, (horizontal_diff(comp, mu) * second -
                                       comp * horizontal_diff(second, mu)).terms)
        boundary.append(FiberPoly._wrap(acc))
    euler = FiberPoly.sum(comp * _reference_euler_lagrange(grad, b, order)
                          for b, comp in comps.items())
    return euler, boundary


def _ghost_kinetic(th):
    """g^{lam lam} omegabar_{I,lam} grad_lam omega^I."""
    return FiberPoly.sum((FiberPoly.coord(th.omegabar(li, (lam,))) *
                          covariant_domega(th, li, lam)).scale(
                              ScalarExpr.rational(METRIC[lam]))
                         for li in range(th.d_lie) for lam in range(4))


@pytest.mark.parametrize("name", ["u1", "su2", "su3"])
def test_first_variation_equals_the_order_driven_reference(name):
    """The sum over the Lagrangian's own sorted jets gives the Euler part,
    every B^lam and every E_b of the order-driven reference, on first- and
    second-order Lagrangians, under the BRST and ghost-number derivations."""
    th = theory(name)
    s, v = brst_operator(th), ghost_number_derivation(th)
    l0 = lagrangian_matter(th) + lagrangian_gauge(th)
    lk = _ghost_kinetic(th)
    m = m_reference(th)
    cases = [
        (s, lagrangian_ghost(th), 1),
        (s, l0 + lagrangian_ghost(th), 1),
        (s, l0 + ghost_lagrangian_decompose(th, s).s_k, 2),
        (v, lk, 1),
        (v, lk + FiberPoly.sum(horizontal_diff(m[lam], lam) for lam in range(4)), 2),
    ]
    for deriv, lagr, order in cases:
        grad = gradient(lagr)
        assert max(len(c.jet) for c in grad) == order
        euler, boundary = _first_variation(deriv, lagr)
        want_euler, want_boundary = _reference_first_variation(deriv, lagr, order)
        assert euler == want_euler and not euler.is_zero()
        assert boundary == want_boundary and not any(b.is_zero() for b in boundary)
        for b, jets in _jets(grad).items():
            assert _euler_lagrange(jets) == _reference_euler_lagrange(grad, b, order)


#: the one identity that fails when a mutation below enters the boundary
#: forms of the second-order jets, and how
_SECOND_ORDER_KILLS = {("brst.current_equivalence", "error",
                        "BVError: internal error: Noether conservation "
                        "identity failed")}


@pytest.mark.parametrize("honest,mutated", [
    ("share.scale(_HALF)", "share"),
    ("- comp * horizontal_diff(d, mu)", "+ comp * horizontal_diff(d, mu)"),
], ids=["half_share_dropped", "inner_sign_flipped"])
def test_second_order_boundary_mutation_fails_current_equivalence(monkeypatch,
                                                                  honest, mutated):
    """Mutation rows: `bv._first_variation` without the 1/2 share of a
    second-order jet, or with the sign of v(b) d_mu D^J_b l flipped, breaks
    the conservation identity of the second-order BRST current, and only
    `brst.current_equivalence` sees it in the bv and brst suites."""
    import inspect

    from gradedqft import bv
    from gradedqft.cli import load_config, run_verify

    source = inspect.getsource(bv._first_variation)
    assert source.count(honest) == 1
    namespace = dict(vars(bv))
    exec(source.replace(honest, mutated), namespace)
    monkeypatch.setattr(bv, "_first_variation", namespace["_first_variation"])
    report = run_verify(load_config(None), ["bv", "brst"])
    failed = {(e["identity"], e["status"], e["residual"])
              for e in report["identities"] if e["status"] != "pass"}
    assert len(report["identities"]) == 14
    assert failed == _SECOND_ORDER_KILLS


def _crossing_signs(rem, j, u):
    """The signs of the odd swaps that splicing u at rem[j] makes with the
    head rem[:j] and with the tail rem[j:], counted pair by pair."""
    odd_u = [x.sort_key() for x in u if x.parity]
    head = sum(g.sort_key() > k for g in rem[:j] if g.parity for k in odd_u)
    tail = sum(g.sort_key() < k for g in rem[j:] if g.parity for k in odd_u)
    return (-1) ** head, (-1) ** tail


@pytest.mark.parametrize("dropped", ["both", "head", "tail"])
def test_a_splice_sign_blind_merge_breaks_nilpotency(monkeypatch, dropped):
    from gradedqft import bv
    honest = bv.merge_splice

    def blind(rem, keys, j, u):
        term = honest(rem, keys, j, u)
        if term is None:
            return None
        sign, word = term
        head, tail = _crossing_signs(rem, j, u)
        assert head * tail == sign
        return sign * {"both": sign, "head": head, "tail": tail}[dropped], word

    th = theory("su2")
    s = brst_operator(th)
    assert sum(s(s(FiberPoly.coord(c))).n_terms for c in th.all_base_coords()) == 0
    monkeypatch.setattr(bv, "merge_splice", blind)
    s = brst_operator(th)
    assert sum(s(s(FiberPoly.coord(c))).n_terms for c in th.all_base_coords()) > 0


def test_negative_control_leaves_the_shared_su2_preset_intact():
    from gradedqft import cli, identities, lie
    control = next(i for i in identities.brst_suite()
                   if i.name == "brst.negative_control")
    ctx = cli.context_from_config(cli.load_config(None))
    assert control.run(ctx).status == "pass"
    assert lie.su2().constants == lie.su2.__wrapped__().constants


def test_run_verify_builds_each_preset_once(monkeypatch):
    from gradedqft import cli, lie
    monkeypatch.setattr(cli, "_worker_count", lambda jobs: 1)
    built = []
    honest = lie.LieData.from_generators
    monkeypatch.setattr(lie.LieData, "from_generators", staticmethod(
        lambda gens: built.append(len(gens)) or honest(gens)))
    for preset in (lie.u1, lie.su2, lie.su3):
        preset.cache_clear()
    report = cli.run_verify(cli.load_config(None), ["bv", "brst"])
    assert report["failed"] == 0
    # one build each of u1 (1 generator), su2 (3) and su3 (8)
    assert sorted(built) == [1, 3, 8]


def test_run_verify_builds_one_brst_operator_per_lie_datum(monkeypatch):
    """The run context holds one BRST operator per Lie datum: the default
    theory shares the su2 preset's, and a new run builds anew."""
    from gradedqft import bv, cli, lie
    monkeypatch.setattr(cli, "_worker_count", lambda jobs: 1)
    built = []
    honest = bv.brst_operator
    presets = [maker() for maker in lie.PRESETS.values()]
    monkeypatch.setattr(bv, "brst_operator", lambda th: built.append(
        (th.lie.dim, th.lie in presets)) or honest(th))
    report = cli.run_verify(cli.load_config(None), ["bv", "brst"])
    assert report["failed"] == 0
    # u1, su2 and su3, and the negative control's corrupted su2
    assert sorted(built) == [(1, True), (3, False), (3, True), (8, True)]
    ctx, other = (cli.context_from_config(cli.load_config(None)) for _ in range(2))
    s = ctx.brst(ctx.theory)
    assert ctx.brst(ctx.preset_theory("su2")) is s
    assert ctx.brst(ctx.configured) is s
    assert other.brst(other.theory) is not s


def test_a_corrupted_config_builds_its_brst_operator_once(monkeypatch):
    """theory.corrupt_constant is applied once per run context, so the brst
    identities that use the configured constants share one operator: each
    (Lie dimension, constants) gets one build."""
    from collections import Counter

    from gradedqft import bv, cli
    monkeypatch.setattr(cli, "_worker_count", lambda jobs: 1)
    built = Counter()
    honest = bv.brst_operator
    monkeypatch.setattr(bv, "brst_operator", lambda th: built.update(
        [(th.lie.dim, th.lie.constants)]) or honest(th))
    cfg = cli.load_config(None)
    cfg["theory"]["corrupt_constant"] = [1, 2, 0]
    report = cli.run_verify(cfg, ["brst"])
    assert report["failed"] > 0
    # u1, su2 and su3, the negative control's corrupted su2 and the
    # configured one
    assert len(built) == 5 and max(built.values()) == 1


def test_a_corrupted_context_keeps_its_clean_and_corrupted_su2_apart(monkeypatch):
    """Under theory.corrupt_constant one context holds two su2 operators,
    keyed by two Lie data: each is built once, and only the corrupted one
    breaks S^2(omega) = 0."""
    from collections import Counter

    from gradedqft import bv, cli
    built = Counter()
    honest = bv.brst_operator
    monkeypatch.setattr(bv, "brst_operator", lambda th: built.update(
        [id(th.lie)]) or honest(th))
    cfg = cli.load_config(None)
    cfg["theory"]["corrupt_constant"] = [0, 0, 1]
    ctx = cli.context_from_config(cfg)
    clean, bad = ctx.brst(ctx.theory), ctx.brst(ctx.configured)
    assert bad is not clean
    assert ctx.brst(ctx.theory) is clean and ctx.brst(ctx.configured) is bad
    assert ctx.brst(ctx.preset_theory("su2")) is clean
    assert sorted(built.values()) == [1, 1]
    th = ctx.theory

    def s_squared_on_omega(s):
        return sum(s(s(FiberPoly.coord(th.omega(li)))).n_terms for li in range(3))

    assert s_squared_on_omega(clean) == 0
    assert s_squared_on_omega(bad) > 0


def test_every_constant_coefficient_of_s_is_the_interned_constant():
    th = theory("su2")
    s = brst_operator(th)
    images = [s(FiberPoly.coord(c)) for c in th.all_base_coords()]
    images.append(s(FiberPoly.word((th.omega(0), th.omegabar(1)))))
    constants = [c for img in images for c in img.terms.values()
                 if list(c.terms) == [_CONST]]
    assert len(constants) == 90 + 2  # the base coordinates, then the word
    for c in constants:
        (g,) = c.terms.values()
        assert c is ScalarExpr.gaussian(g)
