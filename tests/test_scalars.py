import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from gradedqft.scalars import (
    GaussianRational,
    NonIntegrablePhaseError,
    ScalarExpr,
    canonical_sqrt,
    qsum,
    qsum_sqrt,
    _CONST,
    _phase_mul,
    _scaled,
)

F = Fraction
ONE = ScalarExpr.one()
ZERO = ScalarExpr.zero()


def rat(x):
    return ScalarExpr.rational(F(x))


def qsum_rat(c):
    return qsum([(1, c)])


def test_gaussian_rational_arithmetic():
    a = GaussianRational(F(1, 2), F(3))
    b = GaussianRational(F(2), F(-1))
    assert a + b == GaussianRational(F(5, 2), F(2))
    assert a * b == GaussianRational(F(4), F(11, 2))
    assert (a / b) * b == a
    assert a.conjugate().conjugate() == a


def test_rational_addition():
    assert rat(2) + rat(3) == rat(5)


def test_cancellation_gives_empty_expression():
    x = ScalarExpr.symbol("x")
    assert (x + (-x)).is_zero()
    assert x - x == ZERO


def test_canonical_sqrt_extracts_squares():
    assert canonical_sqrt(F(4)) == (F(2), 1)
    assert canonical_sqrt(F(12)) == (F(2), 3)
    assert canonical_sqrt(F(9, 2)) == (F(3, 2), 2)
    assert ScalarExpr.sqrt_rational(F(1, 4)) == rat(F(1, 2))


def test_radical_squares_to_rational():
    r3 = ScalarExpr.sqrt_rational(3)
    assert r3 * r3 == rat(3)
    assert r3 * r3 * r3 == rat(3) * r3


def test_mode_weight_square_is_leray_factor():
    # rational energy: weight collapses to an ordinary radical
    w = ScalarExpr.mode_weight(F(25))  # E = 5
    assert w * w == rat(F(1, 10))
    # irrational energy: the square reduces to sqrt(1/r)/2
    w2 = ScalarExpr.mode_weight(F(2))  # E = sqrt(2)
    assert w2 * w2 == rat(F(1, 4)) * ScalarExpr.sqrt_rational(2)
    assert (w2 * w2) * (w2 * w2) == rat(F(1, 8))


def test_boost_weight_square():
    m, r = F(1), F(2)  # E = sqrt(2), irrational
    k = ScalarExpr.boost_weight(m, r)
    expected = (ScalarExpr.sqrt_rational(2) - ONE) * rat(F(1, 2))
    assert k * k == expected
    # rational case collapses immediately: m=3, |p|^2=16, E=5 -> 1/sqrt(48)
    k2 = ScalarExpr.boost_weight(F(3), F(25))
    assert k2 * k2 == rat(F(1, 48))


def test_phase_composition_and_conjugation():
    p = ScalarExpr.phase([(("t", "t"), qsum_rat(-5)), (("x", "x"), (F(1), F(0), F(0)))])
    q = ScalarExpr.phase([(("t", "t"), qsum_rat(5)), (("x", "x"), (F(-1), F(0), F(0)))])
    assert p * q == ONE
    assert p.conjugate() == q


def test_phase_energy_coefficients_cancel_exactly():
    e = qsum_sqrt(F(2))
    p = ScalarExpr.phase([(("t", "t"), e)])
    q = ScalarExpr.phase([(("t", "t"), tuple((d, -c) for d, c in e))])
    assert p * q == ONE


def test_time_derivative_squares_to_energy_squared():
    # d/dt e^{-iEt} = -iE e^{-iEt}; twice gives -E^2 = -2 for E = sqrt(2)
    e = qsum_sqrt(F(2))
    p = ScalarExpr.phase([(("t", "t"), tuple((d, -c) for d, c in e))])
    d1 = p.d_dt("t")
    d2 = d1.d_dt("t")
    assert d2 == rat(-2) * p


def test_spatial_derivative():
    p = ScalarExpr.phase([(("x", "x"), (F(3), F(0), F(-1)))])
    assert p.d_dx("x", 0) == ScalarExpr.gaussian(GaussianRational(0, 3)) * p
    assert p.d_dx("x", 1).is_zero()
    assert p.d_dx("x", 2) == ScalarExpr.gaussian(GaussianRational(0, -1)) * p


def _random_expr(rng, depth=3):
    atoms = [
        rat(rng.randint(-3, 3)),
        ScalarExpr.symbol(rng.choice("abc")),
        ScalarExpr.i(),
        ScalarExpr.sqrt_rational(rng.choice([2, 3, 5])),
        ScalarExpr.symbol("d" + rng.choice("pq") + rng.choice("qr")),
        ScalarExpr.phase([(("t", "t"), qsum_rat(rng.randint(-2, 2)))]),
        ScalarExpr.mode_weight(F(rng.choice([2, 3, 25]))),
    ]
    e = rng.choice(atoms)
    for _ in range(depth):
        op = rng.random()
        other = rng.choice(atoms)
        e = e + other if op < 0.5 else e * other
    return e


def test_ring_axioms_randomised():
    rng = random.Random(20240811)
    for _ in range(200):
        a, b, c = (_random_expr(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * ONE == a
        assert (a * ZERO).is_zero()


def test_conjugation_is_involutive_and_multiplicative():
    rng = random.Random(7)
    for _ in range(50):
        a, b = _random_expr(rng), _random_expr(rng)
        assert a.conjugate().conjugate() == a
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_spatial_integration_orthogonality():
    p = ScalarExpr.phase([(("x", "x"), (F(1), F(2), F(0)))])
    assert p.spatial_integrate("x").is_zero()
    q = ScalarExpr.phase([(("t", "t"), qsum_rat(1))])
    assert q.spatial_integrate("x") == q
    with pytest.raises(NonIntegrablePhaseError):
        ScalarExpr.phase([(("x", "y"), (F(1), F(0), F(0)))]).spatial_integrate("x")


def test_evaluate_numeric():
    e = rat(F(1, 2)) * ScalarExpr.sqrt_rational(2) * ScalarExpr.phase(
        [(("t", "t"), qsum_rat(-1))])
    v = e.evaluate({"t": 0.5})
    import cmath
    assert abs(v - 0.5 * 2 ** 0.5 * cmath.exp(-0.5j)) < 1e-14


def test_partial_symbol():
    xi = ScalarExpr.symbol("xi")
    e = rat(3) * xi * xi + rat(2) * xi + ONE
    assert e.partial_symbol("xi") == rat(6) * xi + rat(2)


# --- integer-backed GaussianRational against a (Fraction, Fraction) reference

FAST = settings(derandomize=True, max_examples=120, deadline=None)

rationals = st.one_of(
    st.sampled_from([F(0), F(1), F(-1)]),
    st.integers(-50, 50).map(F),
    st.fractions(max_denominator=10 ** 30),
)
gaussians = st.builds(GaussianRational, rationals, rationals)


def _ref_repr(re, im):
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"({re}{'+' if im > 0 else '-'}{abs(im)}i)"


def _assert_matches(g, re, im):
    a, b, den = g._t
    assert den > 0 and gcd(a, b, den) == 1
    assert (g.re, g.im) == (re, im)
    assert repr(g) == _ref_repr(re, im)
    assert g == GaussianRational(re, im)
    assert hash(g) == hash(GaussianRational(re, im))
    if im == 0:
        assert g == re and hash(g) == hash(re)
    else:
        assert g != re


@FAST
@given(gaussians, gaussians)
def test_gaussian_rational_matches_fraction_reference(x, y):
    a, b, c, d = x.re, x.im, y.re, y.im
    _assert_matches(x, a, b)
    _assert_matches(x + y, a + c, b + d)
    _assert_matches(x - y, a - c, b - d)
    _assert_matches(x * y, a * c - b * d, a * d + b * c)
    _assert_matches(-x, -a, -b)
    _assert_matches(x.conjugate(), a, -b)
    assert (x == y) == ((a, b) == (c, d))
    assert x.is_zero() == (a == 0 and b == 0)
    assert complex(x) == complex(float(a), float(b))
    n = c * c + d * d
    if n:
        _assert_matches(x / y, (a * c + b * d) / n, (b * c - a * d) / n)
    else:
        with pytest.raises(ZeroDivisionError, match="zero GaussianRational"):
            x / y


@FAST
@given(gaussians, rationals)
def test_gaussian_rational_mixes_with_int_and_fraction(x, r):
    a, b = x.re, x.im
    scalars = [r] + ([r.numerator] if r.denominator == 1 else [])
    for k in scalars:
        _assert_matches(x * k, a * k, b * k)
        _assert_matches(k * x, a * k, b * k)
        if k:
            _assert_matches(x / k, a / k, b / k)


@FAST
@given(gaussians, rationals)
def test_gaussian_rational_sums_with_int_and_fraction(x, r):
    a, b = x.re, x.im
    scalars = [r] + ([r.numerator] if r.denominator == 1 else [])
    for k in scalars:
        _assert_matches(x + k, a + k, b)
        _assert_matches(k + x, a + k, b)
        _assert_matches(x - k, a - k, b)


def test_gaussian_rational_sum_of_an_int():
    one = GaussianRational(1)
    assert (one + 1)._t == (1 + one)._t == (2, 0, 1)
    assert (one - 1)._t == (0, 0, 1)
    assert (GaussianRational(0, 1) + F(1, 2))._t == (1, 2, 2)


@pytest.mark.parametrize("other", ["x", 0.5, None, ScalarExpr.one()])
def test_gaussian_rational_sum_rejects_other_operands(other):
    one = GaussianRational(1)
    for op in (lambda: one + other, lambda: other + one,
               lambda: one - other, lambda: other - one):
        with pytest.raises(TypeError):
            op()


def test_gaussian_rational_eq_hash_contract():
    assert len({GaussianRational(2), 2}) == 1
    assert len({GaussianRational(F(1, 2)), F(1, 2), GaussianRational(F(2, 4))}) == 1
    assert {GaussianRational(0): "z"}[0] == "z"
    assert GaussianRational(0, 1) != 0 and GaussianRational(1, 1) != 1
    assert GaussianRational(F(3, 6), F(-2, 4))._t == (1, -1, 2)
    assert repr(GaussianRational(F(-1, 3), F(-2, 3))) == "(-1/3-2/3i)"


@pytest.mark.parametrize("zero", [0, F(0), GaussianRational(0)])
def test_gaussian_rational_division_by_zero_message(zero):
    with pytest.raises(ZeroDivisionError, match="^division by zero GaussianRational$"):
        GaussianRational(1, 2) / zero


# --- constant-operand fast paths of ScalarExpr.__mul__ ------------------

_ATOMS = [
    ScalarExpr.symbol("a"),
    ScalarExpr.symbol("f_q"),
    ScalarExpr.sqrt_rational(2),               # ('rad', 2)
    ScalarExpr.sqrt_rational(3),
    ScalarExpr.mode_weight(F(2)),              # ('wgt', 2)
    ScalarExpr.boost_weight(F(1), F(2)),       # ('kw', 1, 2)
    ScalarExpr.symbol("d_pq"),
    ScalarExpr.symbol("d_q1"),
    ScalarExpr.phase([(("t", "t"), qsum_sqrt(F(2)))]),
    ScalarExpr.phase([(("x", "x"), (F(1), F(-1, 2), F(0)))]),
]

_terms = st.tuples(gaussians, st.lists(st.sampled_from(_ATOMS), max_size=3))
multi_term = st.lists(_terms, min_size=2, max_size=4).map(
    lambda ts: ScalarExpr.sum(_product([ScalarExpr.gaussian(c)] + atoms) for c, atoms in ts)
).filter(lambda e: e.n_terms >= 2)


def _product(factors):
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


def _constant_forms(k):
    """k as every operand type the fast paths accept."""
    forms = [k, ScalarExpr.gaussian(k)]
    if k.im == 0:
        forms.append(k.re)
        if k.re.denominator == 1:
            forms.append(k.re.numerator)
    return forms


@FAST
@given(multi_term, st.one_of(st.sampled_from([GaussianRational(0), GaussianRational(1)]), gaussians))
def test_constant_fast_paths_equal_general_product(e, k):
    # (K + z) * e - z * e takes the general double loop on every product,
    # since no operand is a one-term constant; z is a fresh symbol.
    z = ScalarExpr.symbol("z_fresh")
    general = (ScalarExpr.gaussian(k) + z) * e - z * e
    for form in _constant_forms(k):
        for prod in (e * form, form * e):
            assert prod == general
            assert ScalarExpr(dict(prod.terms)).terms == prod.terms  # canonical
    if k.is_zero():
        assert (e * k).is_zero() and (k * e).is_zero()
    if k == 1:
        assert e * k == e == k * e


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.lists(multi_term, max_size=3))
def test_sum_equals_repeated_addition(parts):
    parts = parts + [-p for p in parts[:1]]  # include a full cancellation
    folded = ZERO
    for p in parts:
        folded = folded + p
    assert ScalarExpr.sum(parts) == folded
    assert list(ScalarExpr.sum(parts).terms) == list(folded.terms)  # same order


# --- memoized monomial product against the direct product it replaces ----

def _ref_mul(a, b):
    """ScalarExpr product without interned keys or the product memo: each
    key pair builds its raw key (_phase_mul), the raw dict is normalized."""
    if len(b.terms) == 1 and _CONST in b.terms:
        return _scaled(a, b.terms[_CONST])
    if len(a.terms) == 1 and _CONST in a.terms:
        return _scaled(b, a.terms[_CONST])
    raw = {}
    for (s1, p1), c1 in a.terms.items():
        for (s2, p2), c2 in b.terms.items():
            syms = {}
            for k, e in list(s1) + list(s2):
                syms[k] = syms.get(k, 0) + e
            term = (
                tuple(sorted((k, e) for k, e in syms.items() if e)),
                _phase_mul(p1, p2),
            )
            c = c1 * c2
            prev = raw.get(term)
            raw[term] = c if prev is None else prev + c
    return ScalarExpr(_ref_normalize(raw), _raw=True)


def _ref_square_value(key):
    if key[0] == "wgt":
        c, d = canonical_sqrt(F(1) / key[1])
        return _ref_mul(ScalarExpr.radical(d), rat(c / 2))
    m, r = key[1], key[2]
    c, d = canonical_sqrt(r)
    return _ref_mul(_ref_mul(ScalarExpr.radical(d), rat(c)) - rat(m),
                    rat(F(1) / (2 * m * (r - m * m))))


def _ref_normalize(raw):
    out = {}
    work = list(raw.items())
    while work:
        (syms, phase), coeff = work.pop()
        if coeff is None or coeff.is_zero():
            continue
        mult = None
        keep_s = []
        for key, e in syms:
            kind = key[0]
            if kind == "rad" and e >= 2:
                coeff = coeff * key[1] ** (e // 2)
                e = e % 2
            elif kind in ("wgt", "kw") and e >= 2:
                sq = ONE
                for _ in range(e // 2):
                    sq = _ref_mul(sq, _ref_square_value(key))
                mult = sq if mult is None else _ref_mul(mult, sq)
                e = e % 2
            if e:
                keep_s.append((key, e))
        term = (tuple(sorted(keep_s)), phase)
        if mult is not None:
            for (s2, p2), c2 in _ref_mul(ScalarExpr({term: coeff}, _raw=True), mult).terms.items():
                work.append(((s2, p2), c2))
            continue
        prev = out.get(term)
        s = coeff if prev is None else prev + coeff
        if s.is_zero():
            out.pop(term, None)
        else:
            out[term] = s
    return out


_W = ScalarExpr.mode_weight(F(2))          # w**2 = sqrt(2)/4
_K = ScalarExpr.boost_weight(F(1), F(2))   # k**2 = (sqrt(2) - 1)/2
_R2 = ScalarExpr.sqrt_rational(2)
_X, _Y = ScalarExpr.symbol("x"), ScalarExpr.symbol("y")

# unit-size coefficients, so that products of repeated atoms cancel
_units = st.sampled_from([GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1),
                          GaussianRational(F(1, 4)), GaussianRational(F(-1, 2))])
_monomials = st.tuples(st.one_of(_units, gaussians),
                       st.lists(st.sampled_from(_ATOMS + [_W, _K]), max_size=3))
weighted = st.lists(_monomials, min_size=1, max_size=4).map(
    lambda ts: ScalarExpr.sum(_product([ScalarExpr.gaussian(c)] + atoms) for c, atoms in ts))

_CANCELLING = [
    # w**2 expands onto sqrt(2)/4 and cancels the sqrt(2) term after expansion
    (_W + ONE, _W - rat(F(1, 4)) * _R2),
    # the cross terms cancel on the raw key before any expansion
    (_K + _X, _K - _X),
    (_W * _K + _X * _W, _W * _K - _X * _W),
    (_K * ScalarExpr.symbol("d_pq") + _W, _K * _W - _R2),
    # the constant cancels (1 * -2 against sqrt(2)**2), then k**2 adds -1/2
    # back: the re-added term moves to the end
    (_K + _R2 + ONE, _K + _R2 - rat(2)),
]


def _check_against_reference(a, b):
    prod = a * b
    assert list(prod.terms.items()) == list(_ref_mul(a, b).terms.items())  # same order
    for key in prod.terms:
        assert hash(key) == hash(tuple(key))
        (same,) = ScalarExpr({tuple(key): GaussianRational(1)}).terms
        assert same is key


@pytest.mark.parametrize("a,b", _CANCELLING, ids=range(len(_CANCELLING)))
def test_memoized_product_cancellations_match_reference(a, b):
    _check_against_reference(a, b)
    _check_against_reference(b, a)
    _check_against_reference(a, a)


@FAST
@given(weighted, weighted)
def test_memoized_product_matches_reference(a, b):
    _check_against_reference(a, b)
    _check_against_reference(a * b, a)


def test_equal_term_keys_are_one_object():
    p = ScalarExpr.phase([(("t", "t"), qsum_sqrt(F(2))), (("x", "x"), (F(1), F(0), F(-1, 2)))])
    f_q = ScalarExpr.symbol("f_q")
    xi = ScalarExpr.symbol("xi")
    routes = [
        (_X * _Y, _Y * _X),
        (p, p.conjugate().conjugate()),
        (p * p, ScalarExpr.phase([(("t", "t"), qsum_sqrt(F(8))),
                                  (("x", "x"), (F(2), F(0), F(-1)))])),
        (_W * _W * _X, _X * _R2),
        (_W * _W * _W * _W, rat(F(1, 8))),  # the constant key
        (f_q * _X, _X * f_q),
        ((f_q * xi).partial_symbol("xi"), f_q),
        ((xi * xi * p).partial_symbol("xi"), xi * p),
        (p.d_dt("t"), _R2 * p),
        (p.translate_space("x", "a"),
         p * ScalarExpr.phase([(("x", "a"), (F(1), F(0), F(-1, 2)))])),
        ((p * ScalarExpr.phase([(("x", "x"), (F(-1), F(0), F(1, 2)))])).spatial_integrate("x"),
         ScalarExpr.phase([(("t", "t"), qsum_sqrt(F(2)))])),
    ]
    for x, y in routes:
        kx, ky = list(x.terms), list(y.terms)
        assert kx == ky
        assert all(k1 is k2 for k1, k2 in zip(kx, ky))
        assert all(hash(k) == hash(tuple(k)) for k in kx)
    # a plain tuple finds an interned key, and a rebuilt expression reuses it
    (key,) = (p * _X).terms
    assert (p * _X).terms[tuple(key)] == GaussianRational(1)
    (again,) = ScalarExpr({tuple(key): GaussianRational(3)}).terms
    assert again is key


# --- interned constants and their memo tables ----------------------------

# The triple arithmetic of GaussianRational before its sums and products
# were memoized, verbatim: the reference the memo tables must reproduce.
def _ref_reduced(a, b, den):
    g = gcd(a, b, den)
    if g != 1:
        a, b, den = a // g, b // g, den // g
    return (a, b, den)


def _ref_add(t1, t2):
    a1, b1, d1 = t1
    a2, b2, d2 = t2
    if d1 == d2:
        return _ref_reduced(a1 + a2, b1 + b2, d1)
    return _ref_reduced(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def _ref_sub(t1, t2):
    a1, b1, d1 = t1
    a2, b2, d2 = t2
    if d1 == d2:
        return _ref_reduced(a1 - a2, b1 - b2, d1)
    return _ref_reduced(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)


def _ref_triple_mul(t1, t2):
    a1, b1, d1 = t1
    a2, b2, d2 = t2
    return _ref_reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)


def _ref_neg(t):
    a, b, den = t
    return (-a, -b, den)


def _ref_triple(x):
    if isinstance(x, GaussianRational):
        return x._t
    if isinstance(x, int):
        return (x, 0, 1)
    return (x.numerator, 0, x.denominator)


def _assert_interned(e, t):
    """e is the one constant expression of the reduced triple t."""
    if t[0] == t[1] == 0:
        assert e is ScalarExpr.zero()
        return
    assert list(e.terms) == [_CONST] and e.terms[_CONST]._t == t
    assert e is ScalarExpr.gaussian(GaussianRational(F(t[0], t[2]), F(t[1], t[2])))


# few values, so that pairs meet again and the tables are hit, not only filled
_small = st.sampled_from([0, 1, -1, 2, F(1, 2), F(-2, 3), GaussianRational(0, 1),
                          GaussianRational(1, -1), GaussianRational(F(1, 2), F(1, 3))])
constants = st.one_of(_small, st.integers(-6, 6), rationals, gaussians)


@FAST
@given(constants, constants)
def test_constant_tables_match_unmemoized_arithmetic(x, y):
    tx, ty = _ref_triple(x), _ref_triple(y)
    X, Y = ScalarExpr.gaussian(x), ScalarExpr.gaussian(y)
    _assert_interned(X, tx)
    _assert_interned(X + Y, _ref_add(tx, ty))
    _assert_interned(X - Y, _ref_sub(tx, ty))
    _assert_interned(X * Y, _ref_triple_mul(tx, ty))
    _assert_interned(-X, _ref_neg(tx))
    _assert_interned(X * y, _ref_triple_mul(tx, ty))
    _assert_interned(y * X, _ref_triple_mul(ty, tx))
    _assert_interned(X - X, (0, 0, 1))
    _assert_interned(X + -X, (0, 0, 1))
    gx = GaussianRational(F(tx[0], tx[2]), F(tx[1], tx[2]))
    gy = GaussianRational(F(ty[0], ty[2]), F(ty[1], ty[2]))
    assert (gx + gy)._t == _ref_add(tx, ty)
    assert (gx - gy)._t == _ref_sub(tx, ty)
    assert (gx * gy)._t == (gx * y)._t == (y * gx)._t == _ref_triple_mul(tx, ty)


def test_equal_constants_built_by_different_routes_are_one_object():
    routes = [
        (ScalarExpr.rational(F(2, 4)), ScalarExpr.rational(F(1, 2))),
        (ScalarExpr.gaussian(2), ScalarExpr.rational(2)),
        (ScalarExpr.gaussian(GaussianRational(F(6, 3))), ScalarExpr.rational(2)),
        (ScalarExpr.rational(1), ONE),
        (rat(F(1, 3)) * 3, ONE),
        (rat(F(1, 3)) + rat(F(2, 3)), ONE),
        (-rat(-1), ONE),
        (ScalarExpr.i() * ScalarExpr.i(), rat(-1)),
        (_R2 * _R2, rat(2)),                      # a general product
        ((_X + ONE) - _X, ONE),                   # a general sum
        (_W * _W * _W * _W, rat(F(1, 8))),
        (ScalarExpr.sum([rat(1), rat(F(1, 2))]), rat(F(3, 2))),
        (ScalarExpr.phase([]), ONE),
        ((_X * 2).partial_symbol("x"), rat(2)),
        (rat(F(1, 2)).conjugate(), rat(F(1, 2))),
        (ScalarExpr.rational(0), ZERO),
        (ScalarExpr.gaussian(GaussianRational(0)), ZERO),
        (rat(5) - rat(5), ZERO),
        (_X - _X, ZERO),
        (_R2 * 0, ZERO),
    ]
    for got, want in routes:
        assert got is want, (got, want)


def test_gaussian_takes_numbers_and_rejects_other_operands():
    assert ScalarExpr.gaussian(2) is ScalarExpr.rational(2)
    assert ScalarExpr.gaussian(F(-1, 3)) is ScalarExpr.rational(F(-1, 3))
    for bad in (0.5, "1", None, ONE):
        with pytest.raises(TypeError, match="GaussianRational, int or Fraction"):
            ScalarExpr.gaussian(bad)


@pytest.mark.parametrize("other", [1, F(1, 2), GaussianRational(1), 0.5, "x"])
def test_sum_and_difference_reject_foreign_operands(other):
    two = ScalarExpr.rational(2)
    with pytest.raises(TypeError, match="unsupported operand"):
        two + other
    with pytest.raises(TypeError, match="unsupported operand"):
        two - other


def test_warm_brst_derivation_makes_no_gcd_reduction(monkeypatch):
    from gradedqft import scalars
    from gradedqft.bv import FiberPoly, TheorySpec, brst_operator
    from gradedqft.lie import su2

    th = TheorySpec(su2())
    s = brst_operator(th)
    f = (FiberPoly.word((th.omega(0), th.a_gauge(1, 2)), rat(3))
         + FiberPoly.word((th.psi(0, 1), th.omegabar(2, (1,)), th.omega(1)), rat(F(-1, 2)))
         + FiberPoly.word((th.a_gauge(2, 0, (3,)), th.psibar(1, 0)), rat(2)))
    cold = s(f), s(s(f))
    assert not cold[0].is_zero() and cold[1].is_zero()
    calls = []
    reduced = scalars._reduced

    def counted(*args):
        calls.append(args)
        return reduced(*args)

    monkeypatch.setattr(scalars, "_reduced", counted)
    assert (s(f), s(s(f))) == cold
    assert calls == []


def test_constant_arithmetic_is_one_lookup_to_the_interned_result(monkeypatch):
    """Constant `*` and `+` equal the `GaussianRational` result and return
    the interned expression; once a pair of nonzero operand triples is in
    the memo table, the operation builds no constant and takes no gcd."""
    from gradedqft import scalars

    rng = random.Random(24)

    def gaussian():
        den = rng.randint(1, 6)
        return GaussianRational(F(rng.randint(-6, 6), den), F(rng.randint(-3, 3), den))

    pairs = [(gaussian(), gaussian()) for _ in range(200)]
    for gx, gy in pairs:
        x, y = ScalarExpr.gaussian(gx), ScalarExpr.gaussian(gy)
        assert x * y is ScalarExpr.gaussian(gx * gy)
        assert x + y is ScalarExpr.gaussian(gx + gy)
    calls = []

    def counted(name):
        honest = getattr(scalars, name)
        monkeypatch.setattr(scalars, name, lambda *a: calls.append(name) or honest(*a))

    for name in ("_constant", "_reduced", "_scaled", "_wrap"):
        counted(name)
    for gx, gy in pairs:
        x, y = ScalarExpr.gaussian(gx), ScalarExpr.gaussian(gy)
        if x.terms and y.terms:
            calls.clear()
            x * y, x + y
            assert calls == []


def test_constant_memo_tables_are_keyed_by_interned_operands():
    """Each interned constant memoizes its sums and products with other
    interned constants by their id, in both operands' tables; an equal
    constant that is not interned gets the interned result but no entry."""
    two, three = ScalarExpr.rational(2), ScalarExpr.rational(3)
    loose = ScalarExpr({_CONST: GaussianRational(2)})
    assert loose == two and loose is not two
    assert three * loose is three * two is ScalarExpr.rational(6)
    assert loose + three is three + two is ScalarExpr.rational(5)
    assert three._products[id(two)] is two._products[id(three)] is ScalarExpr.rational(6)
    assert three._sums[id(two)] is two._sums[id(three)] is ScalarExpr.rational(5)
    assert id(loose) not in three._products and id(loose) not in three._sums
    assert loose._products is None and loose._sums is None
    zero = ScalarExpr.zero()
    assert zero + three is three and three * zero is zero


@pytest.mark.parametrize("n", [0, 1, -1, 7, -12, 10 ** 30, True, False])
def test_rational_of_an_int_is_the_rational_of_its_fraction(n):
    e = ScalarExpr.rational(n)
    assert e is ScalarExpr.rational(F(n)) is ScalarExpr.gaussian(F(n))
    assert all(type(x) is int for c in e.terms.values() for x in c._t)


def _phase_entries(e):
    (key,) = e.terms
    return key, dict(key[1])


def test_term_key_rationals_are_canonical():
    """A rational in a term key or a mode is an int when integral and a
    Fraction otherwise, whatever type it was built from; both routes
    intern to the one key."""
    from gradedqft.scalars import ModeIndex

    by_fraction = ScalarExpr.phase([(("t", "t"), qsum([(1, F(4, 2)), (2, F(1, 2))])),
                                    (("x", "x"), (F(2), F(1, 2), F(-6, 3)))])
    by_int = ScalarExpr.phase([(("t", "t"), qsum([(1, 2), (2, F(1, 2))])),
                               (("x", "x"), (2, F(1, 2), -2))])
    (k1, p1), (k2, _) = _phase_entries(by_fraction), _phase_entries(by_int)
    assert k1 is k2
    assert [type(v) for v in p1[("x", "x")]] == [int, Fraction, int]
    assert [type(c) for _, c in p1[("t", "t")]] == [int, Fraction]
    # a product whose components become integral drops the Fraction
    half = ScalarExpr.phase([(("x", "x"), (F(1, 2), F(1, 3), 0))])
    _, p = _phase_entries(half * half * half * half * half * half)
    assert p[("x", "x")] == (3, 2, 0)
    assert all(type(v) is int for v in p[("x", "x")])
    # qsum scaling, as the plane waves use it
    assert all(type(c) is int for _, c in qsum_sqrt(F(4)) + qsum_rat(F(6, 3)))

    m_frac, m_int = ModeIndex(0, (F(2), F(0), F(1, 3))), ModeIndex(0, (2, 0, F(1, 3)))
    assert m_frac == m_int and hash(m_frac) == hash(m_int)
    assert [type(x) for x in m_frac.momentum] == [int, int, Fraction]
    assert [str(x) for x in m_frac.momentum] == [str(x) for x in m_int.momentum] \
        == ['2', '0', '1/3']

    # the weight symbols' rationals too
    for a, b in ((ScalarExpr.mode_weight(F(2)), ScalarExpr.mode_weight(2)),
                 (ScalarExpr.boost_weight(F(1), F(2)), ScalarExpr.boost_weight(1, 2))):
        (ka,), (kb,) = a.terms, b.terms
        assert ka is kb
        ((sym, _),) = ka[0]
        assert all(type(v) is int for v in sym[1:])


def test_by_position_groups_terms_by_their_x_vector():
    """`by_position` splits an expression by the x-vector of each term on
    one spatial symbol, None for the terms without one; the groups sum to
    the expression, and a one-group expression is its own group."""
    px = ScalarExpr.phase([(("x", "x"), (1, 0, F(1, 2)))])
    mx = ScalarExpr.phase([(("x", "x"), (-1, 0, F(-1, 2))),
                           (("t", "t"), qsum_sqrt(2))])
    py = ScalarExpr.phase([(("x", "y"), (1, 0, 0))])
    three = rat(3)
    e = px + mx * rat(2) + three + py + px * _X
    groups = e.by_position("x")
    assert list(groups) == [(1, 0, F(1, 2)), (-1, 0, F(-1, 2)), None]
    assert groups[(1, 0, F(1, 2))] == px + px * _X
    assert groups[(-1, 0, F(-1, 2))] == mx * rat(2)
    assert groups[None] == three + py
    assert ScalarExpr.sum(groups.values()) == e
    assert three.by_position("x") == {None: three}
    assert three.by_position("x")[None] is three
    assert px.by_position("y") == {None: px}
    # a constant group is the interned constant
    assert (px + three).by_position("x")[None] is three
