"""The shared linear-combination core behind GradedExpr and FiberPoly."""

import random
from fractions import Fraction

import pytest

from gradedqft.algebra import ABSORB, EMIT, LOWER, UPPER, GradedExpr, OpGen
from gradedqft.bv import FiberCoord, FiberPoly
from gradedqft.linear import LinearCombination, add_into, add_term
from gradedqft.scalars import ScalarExpr

F = Fraction
Q = ScalarExpr.rational

WORDS = [(), ("a",), ("b",), ("a", "b"), ("b", "c"), ("c",)]
CLASSES = [GradedExpr, FiberPoly]


def test_add_term_drops_cancelled_and_zero_coefficients():
    acc = {}
    add_term(acc, ("a",), Q(2))
    add_term(acc, ("b",), Q(0))
    assert acc == {("a",): Q(2)}
    add_term(acc, ("a",), Q(-2))
    assert acc == {}
    add_term(acc, ("a",), Q(F(1, 3)))
    add_term(acc, ("a",), Q(F(1, 3)))
    assert acc == {("a",): Q(F(2, 3))}


def test_add_into_and_sum_never_store_zero():
    acc = {("a",): Q(1), ("b",): Q(5)}
    add_into(acc, {("a",): Q(-1), ("c",): Q(0), ("b",): Q(1)})
    assert acc == {("b",): Q(6)}
    for cls in CLASSES:
        total = cls.sum([cls({("a",): Q(1), ("b",): Q(2)}),
                         cls({("a",): Q(-1)}), cls({("b",): Q(-2)})])
        assert total.is_zero() and total.terms == {}
        mixed = cls.sum([cls({("a",): Q(1)}), cls({("a",): Q(-1), ("c",): Q(3)})])
        assert mixed.terms == {("c",): Q(3)}
        assert all(not c.is_zero() for c in mixed.terms.values())


@pytest.mark.parametrize("cls", CLASSES)
def test_empty_sum_is_zero(cls):
    z = cls.sum([])
    assert type(z) is cls
    assert z.is_zero() and z.n_terms == 0
    assert z == cls.zero()


@pytest.mark.parametrize("cls", CLASSES)
def test_constructor_cleans_zero_coefficients(cls):
    e = cls({("a",): Q(0), ("b",): Q(3)})
    assert e.terms == {("b",): Q(3)}
    assert cls.unit().terms == {(): ScalarExpr.one()}


def test_same_terms_in_both_algebras_compare_unequal():
    terms = {("a",): Q(1), (): Q(2)}
    g, f = GradedExpr(terms), FiberPoly(terms)
    assert g.terms == f.terms
    assert g != f and f != g
    assert not (g == f) and not (f == g)
    assert GradedExpr.zero() != FiberPoly.zero()


@pytest.mark.parametrize("cls", CLASSES)
def test_immutable_and_hashable(cls):
    e = cls({("a",): Q(1)})
    with pytest.raises(AttributeError):
        e.terms = {}
    with pytest.raises(AttributeError):
        e.other = 1
    same = cls({("a",): Q(1)})
    assert hash(e) == hash(same) and e == same
    assert len({e, same, cls.zero()}) == 2
    # operations return new objects and leave their operands alone
    _ = e + same
    _ = -e
    assert e.terms == {("a",): Q(1)}


@pytest.mark.parametrize("cls", CLASSES)
def test_subclasses_inherit_the_linear_methods(cls):
    assert issubclass(cls, LinearCombination)
    for name in ("__init__", "__add__", "__sub__", "__neg__", "scale",
                 "map_coeff", "is_zero", "__eq__", "__hash__", "n_terms",
                 "zero", "sum"):
        assert name not in vars(cls), name


def _random_terms(rng):
    return {w: F(rng.randint(-3, 3), rng.randint(1, 3))
            for w in rng.sample(WORDS, rng.randint(0, len(WORDS)))}


def _as_expr(cls, ref):
    return cls({w: Q(c) for w, c in ref.items()})


def _clean(ref):
    return {w: c for w, c in ref.items() if c != 0}


@pytest.mark.parametrize("cls", CLASSES)
def test_linear_ops_match_dict_of_fractions(cls):
    rng = random.Random(2015)
    for _ in range(200):
        ra, rb = _random_terms(rng), _random_terms(rng)
        s = F(rng.randint(-2, 2), rng.randint(1, 2))
        a, b = _as_expr(cls, ra), _as_expr(cls, rb)
        keys = set(ra) | set(rb)
        want_add = _clean({w: ra.get(w, 0) + rb.get(w, 0) for w in keys})
        want_sub = _clean({w: ra.get(w, 0) - rb.get(w, 0) for w in keys})
        assert a + b == _as_expr(cls, want_add)
        assert (a + b).terms == {w: Q(c) for w, c in want_add.items()}
        assert a - b == _as_expr(cls, want_sub)
        assert -a == _as_expr(cls, _clean({w: -c for w, c in ra.items()}))
        assert a.scale(Q(s)) == _as_expr(cls, _clean({w: c * s for w, c in ra.items()}))
        assert cls.sum([a, b, -a]) == b
        assert (a - a).is_zero()


def test_real_words_round_trip():
    g = GradedExpr.of(OpGen(ABSORB, UPPER, "scalar", 0, (0,)))
    h = GradedExpr.of(OpGen(EMIT, LOWER, "scalar", 0, (0,)), Q(2))
    assert GradedExpr.sum([g, h, -g]) == h
    y = FiberCoord("A", "field", (0, 0), ())
    assert FiberPoly.sum([FiberPoly.coord(y)] * 3) == FiberPoly.coord(y, Q(3))
