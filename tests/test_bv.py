import random
from fractions import Fraction

import pytest

from gradedqft.bv import (
    SECTOR_PARITY,
    BVError,
    FiberCoord,
    FiberPoly,
    JetOrderError,
    bv_bracket,
    bv_laplacian,
    gradient,
    horizontal_diff,
    left_deriv,
)
from gradedqft.linear import add_into, add_term, canonical_terms
from gradedqft.scalars import ScalarExpr

F = Fraction
ONE = ScalarExpr.one()


def even_y(i=0, jet=()):
    return FiberCoord("A", "field", (i, 0), tuple(jet))


def odd_th(i=0, jet=()):
    return FiberCoord("omega", "field", (i,), tuple(jet))


def anti_of(c):
    return c.partner()


def right_deriv(f, coord):
    return gradient(f, right=True).get(coord, FiberPoly.zero())


def P(*coords):
    return FiberPoly.word(tuple(coords))


def test_coordinate_parities():
    assert even_y().parity == 0
    assert odd_th().parity == 1
    assert anti_of(even_y()).parity == 1
    assert anti_of(odd_th()).parity == 0


def test_word_normalisation_kills_odd_squares():
    th = odd_th()
    assert FiberPoly.word((th, th)).is_zero()
    y = even_y()
    assert not FiberPoly.word((y, y)).is_zero()


def test_graded_commutativity():
    th, et = odd_th(0), odd_th(1)
    assert P(th, et) == -P(et, th)
    y = even_y()
    assert P(y, th) == P(th, y)


def test_left_derivative_examples():
    y = even_y()
    th, et = odd_th(0), odd_th(1)
    # D_y (y^2) = 2 y
    assert left_deriv(P(y, y), y) == FiberPoly.coord(y, ScalarExpr.rational(2))
    # D_th (th et) = et ; D_et (th et) = -th
    assert left_deriv(P(th, et), th) == FiberPoly.coord(et)
    assert left_deriv(P(th, et), et) == -FiberPoly.coord(th)


def test_right_vs_left_derivative_sign():
    th, et = odd_th(0), odd_th(1)
    y = even_y()
    for f in (P(th), P(th, et), P(y, th), P(th, et) * P(y)):
        for c in (th, et, y):
            pf = f.parity()
            sgn = -1 if (c.parity and pf == "odd") else 1
            assert right_deriv(f, c) == left_deriv(f, c).scale(
                ScalarExpr.rational(sgn))


def test_left_derivatives_supercommute():
    rng = random.Random(5)
    coords = [even_y(0), even_y(1), odd_th(0), odd_th(1),
              anti_of(even_y(0)), anti_of(odd_th(0))]
    for _ in range(60):
        f = _random_poly(rng, coords, deg=4)
        for a in coords[:3]:
            for b in coords[:3]:
                sgn = -1 if (a.parity and b.parity) else 1
                lhs = left_deriv(left_deriv(f, a), b)
                rhs = left_deriv(left_deriv(f, b), a).scale(ScalarExpr.rational(sgn))
                assert lhs == rhs


def test_graded_leibniz_left():
    rng = random.Random(6)
    coords = [even_y(0), odd_th(0), odd_th(1), anti_of(even_y(0))]
    for _ in range(60):
        f = _random_poly(rng, coords, deg=2)
        g = _random_poly(rng, coords, deg=2)
        if f.parity() == "mixed":
            continue
        pf = 1 if f.parity() == "odd" else 0
        for c in coords:
            sgn = -1 if (c.parity and pf) else 1
            lhs = left_deriv(f * g, c)
            rhs = left_deriv(f, c) * g + (f * left_deriv(g, c)).scale(
                ScalarExpr.rational(sgn))
            assert lhs == rhs


def test_laplacian_degree_examples():
    y = even_y()
    yt = anti_of(y)
    assert bv_laplacian(FiberPoly.unit()).is_zero()
    assert bv_laplacian(P(y, y)).is_zero()
    assert bv_laplacian(P(y, yt)) == FiberPoly.unit()


def test_canonical_pairs():
    y, th = even_y(), odd_th()
    yt, tht = anti_of(y), anti_of(th)
    assert bv_bracket(P(y), P(yt)) == FiberPoly.unit()
    assert bv_bracket(P(th), P(tht)) == -FiberPoly.unit()
    assert bv_bracket(P(y), P(even_y(1)).partner() if False else P(anti_of(even_y(1)))).is_zero()
    assert bv_bracket(P(y), P(even_y(1))).is_zero()


def _random_poly(rng, coords, deg=4, nterms=3):
    acc = FiberPoly.zero()
    for _ in range(rng.randint(1, nterms)):
        k = rng.randint(0, deg)
        word = tuple(rng.choice(coords) for _ in range(k))
        coeff = ScalarExpr.rational(rng.randint(-3, 3))
        if rng.random() < 0.3:
            coeff = coeff * ScalarExpr.i()
        acc = acc + FiberPoly.word(word, coeff)
    return acc


def _homogeneous(rng, coords, deg=4):
    while True:
        f = _random_poly(rng, coords, deg)
        if f.parity() != "mixed" and not f.is_zero():
            return f


_COORDS = [
    even_y(0), even_y(1), odd_th(0), odd_th(1),
    anti_of(even_y(0)), anti_of(even_y(1)), anti_of(odd_th(0)),
    anti_of(odd_th(1)),
]


def test_laplacian_squares_to_zero_randomised():
    rng = random.Random(20240812)
    for _ in range(200):
        f = _random_poly(rng, _COORDS, deg=4)
        assert bv_laplacian(bv_laplacian(f)).is_zero()


def test_laplacian_product_identity_randomised():
    rng = random.Random(20240813)
    for _ in range(200):
        f = _homogeneous(rng, _COORDS)
        g = _homogeneous(rng, _COORDS)
        sf = ScalarExpr.rational(-1 if f.parity() == "odd" else 1)
        lhs = bv_laplacian(f * g)
        rhs = bv_laplacian(f) * g + bv_bracket(f, g).scale(sf) + \
            (f * bv_laplacian(g)).scale(sf)
        assert lhs == rhs


def test_bracket_antiderivation_randomised():
    # ad_f = {f, _} is an anti-derivation of grade |f|+1:
    # {f, g h} = {f, g} h + (-1)^{(|f|+1)|g|} g {f, h}
    rng = random.Random(20240814)
    for _ in range(200):
        f = _homogeneous(rng, _COORDS, deg=3)
        g = _homogeneous(rng, _COORDS, deg=2)
        h = _homogeneous(rng, _COORDS, deg=2)
        pf = 1 if f.parity() == "odd" else 0
        pg = 1 if g.parity() == "odd" else 0
        sgn = ScalarExpr.rational((-1) ** ((pf + 1) * pg))
        lhs = bv_bracket(f, g * h)
        rhs = bv_bracket(f, g) * h + (g * bv_bracket(f, h)).scale(sgn)
        assert lhs == rhs


def test_bracket_grade_bookkeeping():
    rng = random.Random(20240815)
    for _ in range(80):
        f = _homogeneous(rng, _COORDS, deg=3)
        g = _homogeneous(rng, _COORDS, deg=3)
        pf = 1 if f.parity() == "odd" else 0
        pg = 1 if g.parity() == "odd" else 0
        br = bv_bracket(f, g)
        if not br.is_zero():
            assert br.parity() == ("odd" if (pf + pg + 1) % 2 else "even")
        lap = bv_laplacian(f)
        if not lap.is_zero():
            assert lap.parity() == ("odd" if (pf + 1) % 2 else "even")


def test_bracket_rejects_mixed_parity():
    mixed = P(even_y()) + P(odd_th())
    with pytest.raises(BVError):
        bv_bracket(mixed, P(even_y()))


def test_horizontal_diff():
    y = even_y()
    th = odd_th(0)
    et = odd_th(1)
    assert horizontal_diff(P(y), 2) == P(even_y(0, (2,)))
    # graded Leibniz on an odd pair (d is even: no signs)
    got = horizontal_diff(P(th, et), 1)
    want = P(odd_th(0, (1,)), et) + P(th, odd_th(1, (1,)))
    assert got == want
    # commutation of total derivatives
    f = P(y, th) + P(et, y)
    assert horizontal_diff(horizontal_diff(f, 0), 3) == \
        horizontal_diff(horizontal_diff(f, 3), 0)


def test_jet_order_cap():
    c = even_y(0, (1, 2))
    with pytest.raises(JetOrderError):
        c.lift(0)


def partial_deriv(f, coord):
    """The shorthand derivative d_i = (-1)^{|i|} (f <-D_i), the convention
    of the BV module; the other normalisation in the literature is the
    left derivative D_i f."""
    out = right_deriv(f, coord)
    return -out if coord.parity else out


def test_partial_derivative_convention_switch():
    th, et = odd_th(0), odd_th(1)
    y = even_y()
    rng = random.Random(17)
    coords = [y, th, et, anti_of(y)]
    for _ in range(40):
        f = _random_poly(rng, coords, deg=3)
        pf = f.parity()
        for c in coords:
            # the two conventions agree on even coordinates and differ by
            # (-1)^{|f|+1} on odd ones
            if c.parity == 0:
                assert partial_deriv(f, c) == left_deriv(f, c)
            elif pf != "mixed":
                sign = 1 if pf == "odd" else -1
                assert partial_deriv(f, c) == left_deriv(f, c).scale(
                    ScalarExpr.rational(sign))


def _reference_derivative(f: FiberPoly, coord: FiberCoord, right: bool) -> FiberPoly:
    """The one-coordinate scan that `gradient` replaced, kept as a reference."""
    acc: dict = {}
    p_i = coord.parity
    for w, c in f.terms.items():
        # the right derivative adds the whole-term sign (-1)^{|i||w|}
        pref = sum(x.parity for x in w) if right else 0
        for j, cj in enumerate(w):
            if cj == coord:
                sign = -1 if (p_i and pref % 2) else 1
                add_term(acc, w[:j] + w[j + 1:], c * sign)
            pref += cj.parity
    return FiberPoly._wrap(acc)


def test_gradient_matches_the_one_coordinate_scan():
    rng = random.Random(20261018)
    coords = _COORDS + [even_y(0, (1,)), odd_th(1, (0, 2))]
    absent = [even_y(5), odd_th(5), anti_of(even_y(5)), even_y(0, (3,))]
    repeats = 0
    for _ in range(150):
        f = _random_poly(rng, coords, deg=5, nterms=4)
        letters = list(dict.fromkeys(x for w in f.terms for x in w))
        repeats += any(w.count(x) > 1 for w in f.terms for x in w)
        for right in (False, True):
            grad = gradient(f, right=right)
            assert list(grad) == letters
            for c in coords + absent:
                want = _reference_derivative(f, c, right)
                got = grad.get(c)
                if c not in letters:
                    assert got is None and want.is_zero()
                    continue
                assert got == want
                assert list(got.terms) == list(want.terms)
                deriv = right_deriv if right else left_deriv
                assert deriv(f, c) == want
    assert repeats > 10  # words with a repeated (even) letter


_HASH_SEED_SCRIPT = """
import random
from gradedqft import bv, lie
from gradedqft.scalars import ScalarExpr

def terms(p):
    return [(repr(w), repr(c)) for w, c in p.terms.items()]

rng = random.Random(3)
th = bv.TheorySpec.make(lie.su2())
coords = th.all_base_coords()[:6]
coords = coords + [c.partner() for c in coords]

def poly():
    return bv.FiberPoly.sum(
        bv.FiberPoly.word(tuple(rng.choice(coords) for _ in range(3)),
                          ScalarExpr.rational(rng.randint(1, 3)))
        for _ in range(3))

for _ in range(10):
    f, g = poly(), poly()
    if "mixed" not in (f.parity(), g.parity()):
        print('B', terms(bv.bv_bracket(f, g)))
    print('L', terms(bv.bv_laplacian(f * g)))
# the currents of a first-order Lagrangian and of a second-order one
v = bv.ghost_number_derivation(th)
lagr = bv.lagrangian_ghost(th)
m = bv.ghost_lagrangian_decompose(th).m
lagr2 = lagr + bv.FiberPoly.sum(bv.horizontal_diff(m[lam], lam) for lam in range(4))
for l, n_forms in ((lagr, None), (lagr2, [v(x) for x in m])):
    for cur in bv.noether_current(v, l, n_forms):
        print('N', terms(cur))
"""


def test_bv_term_order_does_not_depend_on_the_hash_seed():
    import os
    import subprocess
    import sys

    import gradedqft
    src = os.path.dirname(os.path.dirname(os.path.abspath(gradedqft.__file__)))
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _HASH_SEED_SCRIPT], env=env,
                             capture_output=True, check=True)
        outs.append(run.stdout)
    assert outs[0].count(b"\n") >= 8 and outs[0] == outs[1]


def _reference_derivation(v, f: FiberPoly) -> FiberPoly:
    """The word-product derivation the splice replaced, with the component
    on every letter recomputed on each call, kept as a reference."""
    def on_coord(c):
        if c.kind == "anti":
            return FiberPoly.zero()
        base = FiberCoord(c.sector, c.kind, c.idx, ())
        comp = v.components.get(base)
        if comp is None:
            return FiberPoly.zero()
        for lam in c.jet:
            comp = horizontal_diff(comp, lam)
        return comp

    acc: dict = {}
    for w, c in f.terms.items():
        pref = 0
        for j, cj in enumerate(w):
            comp = on_coord(cj)
            if not comp.is_zero():
                sign = -1 if (v.parity and pref % 2) else 1
                piece = FiberPoly.word(w[:j], c * sign) * comp * \
                    FiberPoly.word(w[j + 1:])
                add_into(acc, piece.terms)
            pref += cj.parity
    return FiberPoly(acc)


def _jet_alphabet(rng, bases):
    """Each base coordinate with its antifield, a first-order jet and, but
    for A (S A already holds a first-order jet), a second-order jet."""
    out = []
    for b in bases:
        first = b.lift(rng.randrange(4))
        out += [b, b.partner(), first]
        if b.sector != "A":
            out.append(first.lift(rng.randrange(4)))
    return out


@pytest.mark.parametrize("derivation", ["brst", "ghost_number"])
@pytest.mark.parametrize("lie_name", ["u1", "su2", "su3"])
def test_spliced_derivation_matches_the_word_products(lie_name, derivation):
    from gradedqft import lie
    from gradedqft.bv import TheorySpec, brst_operator, ghost_number_derivation
    th = TheorySpec.make(lie.PRESETS[lie_name]())
    v = brst_operator(th) if derivation == "brst" else ghost_number_derivation(th)
    rng = random.Random(f"{lie_name}-{derivation}")
    acting = list(v.components)
    others = th.all_base_coords()
    nonzero = 0
    for _ in range(60):
        bases = rng.sample(acting, min(3, len(acting))) + rng.sample(others, 2)
        f = _random_poly(rng, _jet_alphabet(rng, bases), deg=4, nterms=4)
        want = _reference_derivation(v, f)
        got = v(f)
        assert got.terms == want.terms
        assert list(got.terms) == list(want.terms)
        assert v(f).terms == want.terms  # the memo on coordinates stays valid
        nonzero += not want.is_zero()
    assert nonzero >= 30


def test_fiber_coords_are_interned():
    import copy
    import pickle

    fields = ("psi", "field", (1, 0), (0, 2))
    c = FiberCoord(*fields)
    assert FiberCoord(*fields) is c
    assert FiberCoord(sector="psi", kind="field", idx=(1, 0), jet=(0, 2)) is c
    # equality and hash come from identity
    assert hash(c) == object.__hash__(c) and c.sort_key() == fields
    assert copy.deepcopy(c) is c and pickle.loads(pickle.dumps(c)) is c
    for sector, p in SECTOR_PARITY.items():
        assert FiberCoord(sector, "field", (0,), ()).parity == p
        assert FiberCoord(sector, "anti", (0,), ()).parity == 1 - p
    assert c.partner() is FiberCoord("psi", "anti", (1, 0), (0, 2))
    assert c.partner().partner() is c
    assert even_y().lift(3).lift(1) is even_y(0, (1, 3))
    assert odd_th(0, (2,)).lift(0) is FiberCoord("omega", "field", (0,), (0, 2))


@pytest.mark.parametrize("fields,error", [
    (("phi", "field", (0,), ()), "unknown sector"),
    (("A", "dual", (0,), ()), "bad coordinate kind"),
    (("A", "field", (0, 0), (0, 1, 2)), "capped at 2"),
    (("A", "field", (0, 0), (2, 1)), "must be sorted"),
], ids=["sector", "kind", "jet-order", "unsorted-jet"])
def test_rejected_fiber_coords_are_not_interned(fields, error):
    from gradedqft import bv
    before = dict(bv._COORDS)
    for _ in range(2):
        with pytest.raises(BVError, match=error):
            FiberCoord(*fields)
    assert bv._COORDS == before
    assert (FiberCoord, *fields) not in bv._COORDS


def test_derivation_components_are_read_only():
    from types import MappingProxyType

    from gradedqft.bv import VerticalDerivation
    th = odd_th()
    comps = {th: P(th, odd_th(1))}
    v = VerticalDerivation(comps, parity=1)
    assert isinstance(v.components, MappingProxyType)
    with pytest.raises(TypeError):
        v.components[th] = FiberPoly.zero()
    comps[th] = FiberPoly.zero()  # the derivation keeps its own copy
    assert v.on_coord(th) == P(th, odd_th(1))
    assert v.on_coord(th.lift(0)) == horizontal_diff(P(th, odd_th(1)), 0)


@pytest.mark.parametrize("parity", [5, -1, 2])
def test_derivation_rejects_a_parity_other_than_0_or_1(parity):
    from gradedqft.bv import VerticalDerivation
    with pytest.raises(BVError, match="parity must be 0 or 1"):
        VerticalDerivation({odd_th(): P(odd_th(1), even_y())}, parity=parity)


@pytest.mark.parametrize("key", [odd_th(0, (0,)), anti_of(even_y())],
                         ids=["jet", "antifield"])
def test_derivation_rejects_a_key_that_is_not_a_base_field(key):
    from gradedqft.bv import VerticalDerivation
    # the component has the right parity, so only the key is at fault
    comp = P(even_y(1)) if key.parity else P(odd_th(1))
    with pytest.raises(BVError, match="jet-free field coordinates"):
        VerticalDerivation({key: comp}, parity=1)


@pytest.mark.parametrize("comp,parity", [
    (P(odd_th()), 1),                         # omega -> omega, odd derivation
    (P(even_y()), 0),                         # omega -> A, even derivation
    (P(odd_th(1)) + P(odd_th(1), odd_th(2)), 1),  # a mixed component
], ids=["same-parity", "even-derivation", "mixed"])
def test_derivation_rejects_a_component_of_the_wrong_parity(comp, parity):
    from gradedqft.bv import VerticalDerivation
    with pytest.raises(BVError, match="needs"):
        VerticalDerivation({odd_th(): comp}, parity=parity)


def test_a_warm_derivation_calls_no_sort(monkeypatch):
    from gradedqft import bv, lie
    th = bv.TheorySpec.make(lie.su2())
    s = bv.brst_operator(th)
    coords = th.all_base_coords()
    alphabet = _jet_alphabet(random.Random(4), coords[::5])
    f = _random_poly(random.Random(3), alphabet, deg=4, nterms=6)
    g = _random_poly(random.Random(5), [c for c in alphabet if len(c.jet) < 2],
                     deg=4, nterms=6)
    first, dg = s(f), horizontal_diff(g, 2)
    assert not first.is_zero() and not dg.is_zero()
    calls = []
    honest = bv.canonical_terms
    monkeypatch.setattr(bv, "canonical_terms",
                        lambda *a, **k: calls.append(a) or honest(*a, **k))
    assert s(f) == first
    assert horizontal_diff(g, 2) == dg
    assert calls == []


def _reference_horizontal_diff(f: FiberPoly, lam: int) -> FiberPoly:
    """The jet prolongation that re-sorts every lifted word, kept as a
    reference for the spliced one."""
    acc: dict = {}
    for w, c in f.terms.items():
        for j, cj in enumerate(w):
            for sign, nw in canonical_terms(w[:j] + (cj.lift(lam),) + w[j + 1:]):
                add_term(acc, nw, c * sign)
    return FiberPoly(acc)


@pytest.mark.parametrize("lie_name", ["u1", "su2"])
def test_horizontal_diff_matches_the_sorted_prolongation(lie_name):
    from gradedqft import lie
    from gradedqft.bv import TheorySpec
    th = TheorySpec.make(lie.PRESETS[lie_name]())
    coords = th.all_base_coords()
    rng = random.Random(f"dh-{lie_name}")
    nonzero = odd = second = 0
    for _ in range(80):
        alphabet = []
        for b in rng.sample(coords, 4):
            lift = rng.randrange(4)
            alphabet += [b, b.partner(), b.lift(lift), b.partner().lift(lift)]
        f = _random_poly(rng, alphabet, deg=4, nterms=4)
        lam = rng.randrange(4)
        got, want = horizontal_diff(f, lam), _reference_horizontal_diff(f, lam)
        assert list(got.terms.items()) == list(want.terms.items())
        nonzero += not got.is_zero()
        odd += any(x.parity for w in got.terms for x in w)
        # a lifted first-order jet is a second-order one
        second += any(len(x.jet) == 2 for w in got.terms for x in w)
    assert nonzero >= 40 and odd >= 20 and second >= 20


def test_the_fiber_layer_hands_no_int_to_scalar_scaling(monkeypatch):
    """The word rule's signs are applied by negation and the total
    derivative's table holds the interned one, so on bv+brst the
    constant-scaling route of `ScalarExpr.__mul__` never sees an int."""
    from gradedqft import cli, scalars
    from gradedqft.cli import load_config, run_verify
    from gradedqft.scalars import GaussianRational

    monkeypatch.setattr(cli, "_worker_count", lambda jobs: 1)
    seen = []
    honest = scalars._scaled
    monkeypatch.setattr(scalars, "_scaled",
                        lambda e, k: seen.append(type(k)) or honest(e, k))
    assert run_verify(load_config(None), ["bv", "brst"])["failed"] == 0
    assert seen and set(seen) == {GaussianRational}


#: (function, honest text, mutated text) -> the bv+brst identities it fails
_FIBER_SIGN_KILLS = {
    # the Koszul sign of the graded derivative, (-1)^{|i| |w[:j]|} (left)
    # and (-1)^{|i| (|w| + |w[:j]|)} (right), dropped
    ("gradient", "-c if (p_i and pref % 2) else c", "c"): {
        "brst.current_equivalence", "brst.fp_noether_current",
        "bv.bracket_antiderivation", "bv.canonical_pairs",
        "bv.laplacian_nilpotent", "bv.laplacian_product"},
    # the right derivative's whole-term sign (-1)^{|i||w|} alone, dropped
    ("gradient", "sum(x.parity for x in w) if right else 0", "0"): {
        "bv.bracket_antiderivation", "bv.canonical_pairs",
        "bv.laplacian_product"},
    # the pairing sign -(-1)^{(|f|+1)(|g|+1)} of the antibracket, flipped
    ("bv_bracket", "sgn = (", "sgn = -("): {
        "bv.canonical_pairs", "bv.laplacian_product"},
}


@pytest.mark.parametrize("mutation", list(_FIBER_SIGN_KILLS),
                         ids=["derivative", "right", "pairing"])
def test_fiber_sign_mutation_fails_the_same_identities(monkeypatch, mutation):
    """Mutation rows: each sign of the fiber layer's derivatives and
    antibracket, mutated as above, fails exactly its identities on the bv
    and brst suites."""
    import inspect

    from gradedqft import bv
    from gradedqft.cli import load_config, run_verify

    name, honest, mutated = mutation
    source = inspect.getsource(getattr(bv, name))
    assert source.count(honest) == 1
    namespace = dict(vars(bv))
    exec(source.replace(honest, mutated), namespace)
    monkeypatch.setattr(bv, name, namespace[name])
    report = run_verify(load_config(None), ["bv", "brst"])
    failed = {e["identity"] for e in report["identities"] if e["status"] != "pass"}
    assert len(report["identities"]) == 14
    assert failed == _FIBER_SIGN_KILLS[mutation]
