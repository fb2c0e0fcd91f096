"""The shared linear-combination core behind GradedExpr and FiberPoly."""

import random
from fractions import Fraction
from typing import NamedTuple

import pytest

from gradedqft.algebra import ABSORB, EMIT, LOWER, UPPER, GradedExpr, OpGen, \
    _contraction, koszul_product
from gradedqft.bv import SECTOR_PARITY, FiberCoord, FiberPoly
from gradedqft.linear import LinearCombination, add_into, add_term, canonical_terms, \
    merge_splice
from gradedqft.scalars import ScalarExpr

F = Fraction
Q = ScalarExpr.rational

WORDS = [(), ("a",), ("b",), ("a", "b"), ("b", "c"), ("c",)]
CLASSES = [GradedExpr, FiberPoly]


@pytest.mark.parametrize("cls", [OpGen, FiberCoord])
def test_letters_compare_and_hash_by_identity(cls):
    """Letters are interned, so equality and hash are the object's own."""
    assert cls.__hash__ is object.__hash__ and cls.__eq__ is object.__eq__


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


# --- the canonicaliser against the two sorters it replaced ------------------
#
# Verbatim copies of the earlier operator-word (`_normalize_word` with its
# helpers) and fiber-word (`_sort_word`) sorters.  `canonical_terms` must give
# the same (factor, word) list in the same order: term order reaches the
# floating-point sums of the oracle and so the report bytes.

def _normalize_word(word: tuple, rule: str) -> list[tuple[ScalarExpr, tuple]]:
    """Rewrite a word into canonical order.

    Returns a list of (coefficient multiplier, canonical word).  Under the
    physical rule crossing a matching absorption/emission pair adds the
    contraction term; under the modified rule it does not.
    """
    out: list[tuple[ScalarExpr, tuple]] = []
    stack: list[tuple[ScalarExpr, tuple]] = [(ScalarExpr.one(), word)]
    while stack:
        coeff, w = stack.pop()
        pos = _first_inversion(w)
        if pos is None:
            if _has_odd_square(w):
                continue
            out.append((coeff, w))
            continue
        g1, g2 = w[pos], w[pos + 1]
        sign = -1 if (g1.parity and g2.parity) else 1
        swapped = w[:pos] + (g2, g1) + w[pos + 2:]
        stack.append((coeff * sign if sign < 0 else coeff, swapped))
        if rule == "physical":
            c = _contraction(g1, g2)
            if c is not None:
                stack.append((coeff * c, w[:pos] + w[pos + 2:]))
    return out


def _first_inversion(w: tuple) -> int | None:
    for i in range(len(w) - 1):
        if w[i].sort_key() > w[i + 1].sort_key():
            return i
    return None


def _has_odd_square(w: tuple) -> bool:
    for i in range(len(w) - 1):
        if w[i] == w[i + 1] and w[i].parity:
            return True
    return False


def _sort_word(word: tuple):
    """(sign, canonical word) or None when an odd coordinate repeats."""
    w = list(word)
    sign = 1
    # insertion sort, counting odd-odd transpositions
    for i in range(1, len(w)):
        j = i
        while j > 0 and w[j - 1] > w[j]:
            if w[j - 1].parity and w[j].parity:
                sign = -sign
            w[j - 1], w[j] = w[j], w[j - 1]
            j -= 1
    for a, b in zip(w, w[1:]):
        if a == b and a.parity:
            return None
    return sign, tuple(w)


class _OrderedCoord(NamedTuple):
    """A fiber coordinate ordered by its field tuple (sector, kind, idx,
    jet), the order `_sort_word` sorts by."""

    sector: str
    kind: str
    idx: tuple
    jet: tuple

    @property
    def parity(self) -> int:
        return FiberCoord(*self).parity


def _as_scalar(f):
    return ScalarExpr.one() * f


def _random_opgen(rng):
    sector = rng.choice(["scalar", "fermion", "gauge", "ghost", "nl",
                         "dirac_particle"])
    internal = (rng.randrange(4), rng.randrange(2)) if sector == "gauge" \
        else (rng.randrange(2),)
    return OpGen(rng.choice([ABSORB, EMIT]), rng.choice([UPPER, LOWER]),
                 sector, rng.randrange(2), internal)


def _with_partner(g):
    return g, OpGen(EMIT if g.species == ABSORB else ABSORB,
                    LOWER if g.position == UPPER else UPPER,
                    g.sector, g.mode, g.internal)


def _random_coord(rng):
    return FiberCoord(rng.choice(list(SECTOR_PARITY)),
                      rng.choice(["field", "anti"]), (rng.randrange(2),),
                      rng.choice([(), (0,), (0, 1), (1, 1)]))


@pytest.mark.parametrize("rule", ["physical", "modified"])
def test_canonical_terms_match_operator_reference(rule):
    rng = random.Random(7)
    contract = _contraction if rule == "physical" else None
    seen = {"branched": 0, "killed": 0, "metric": 0}
    for _ in range(400):
        # a small alphabet of letters and their contraction partners makes
        # repeated letters and contracting pairs common
        alphabet = [g for _ in range(rng.randint(1, 3))
                    for g in _with_partner(_random_opgen(rng))]
        word = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        want = _normalize_word(word, rule)
        got = canonical_terms(word, contract)
        assert [(_as_scalar(f), w) for f, w in got] == want, word
        seen["branched"] += len(want) > 1
        seen["killed"] += not want
        seen["metric"] += any(g.sector == "gauge" for g in word) and len(want) > 1
    assert seen["killed"]
    if rule == "physical":
        assert seen["branched"] and seen["metric"]


def test_canonical_terms_match_fiber_reference():
    rng = random.Random(11)
    killed = signed = 0
    for _ in range(400):
        alphabet = [_random_coord(rng) for _ in range(rng.randint(1, 5))]
        word = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        ref = _sort_word(tuple(_OrderedCoord(c.sector, c.kind, c.idx, c.jet)
                               for c in word))
        want = [] if ref is None else \
            [(ref[0], tuple(FiberCoord(c.sector, c.kind, c.idx, c.jet)
                            for c in ref[1]))]
        assert canonical_terms(word) == want, word
        killed += ref is None
        signed += ref is not None and ref[0] < 0
    assert killed and signed


def test_products_keep_the_reference_term_order():
    rng = random.Random(23)
    for _ in range(60):
        gens = [_random_opgen(rng) for _ in range(3)]
        a, b = (GradedExpr({tuple(rng.choice(gens) for _ in range(rng.randint(0, 3))):
                            Q(rng.randint(1, 3)) for _ in range(3)})
                for _ in range(2))
        want: dict = {}
        for w1, c1 in a.terms.items():
            for w2, c2 in b.terms.items():
                for mult, w in _normalize_word(w1 + w2, "physical"):
                    add_term(want, w, c1 * c2 * mult)
        assert list(koszul_product(a, b).terms.items()) == list(want.items())


def _canonical_word(rng, alphabet, max_len):
    """A random canonical word over ``alphabet`` (odd squares redrawn)."""
    while True:
        terms = canonical_terms(tuple(rng.choice(alphabet)
                                      for _ in range(rng.randint(0, max_len))))
        if terms:
            return terms[0][1]


def test_merge_splice_equals_the_sorted_splice():
    rng = random.Random(12)
    seen = {"zero": 0, "minus": 0, "head": 0, "tail": 0, "even_repeat": 0}
    for _ in range(2000):
        # a small jet/antifield alphabet: letters of u often recur in the
        # remainder, odd ones (zero) and even ones (a repeated letter)
        alphabet = [_random_coord(rng) for _ in range(rng.randint(1, 6))]
        rem = _canonical_word(rng, alphabet, 5)
        u = _canonical_word(rng, alphabet, 3)
        j = rng.randint(0, len(rem))
        head, tail = rem[:j], rem[j:]
        got = merge_splice(rem, [g.sort_key() for g in rem], j, u)
        want = canonical_terms(head + u + tail)
        assert ([] if got is None else [got]) == want, (head, u, tail)
        if got is None:
            seen["zero"] += 1
            continue
        sign, word = got
        seen["minus"] += sign < 0
        odd_u = [x.sort_key() for x in u if x.parity]
        seen["head"] += any(g.parity and g.sort_key() > k
                            for g in head for k in odd_u)
        seen["tail"] += any(g.parity and g.sort_key() < k
                            for g in tail for k in odd_u)
        seen["even_repeat"] += len(set(word)) < len(word)
    assert all(seen.values()), seen


def test_frozen_values_copy_through_their_constructor_and_stay_frozen():
    """A copied or unpickled value is rebuilt from its constructor's
    arguments, or is the interned value, so it holds equal values (a
    point's stored hash included); no attribute can be assigned or
    deleted."""
    import copy
    import pickle

    from gradedqft.bv import TheorySpec
    from gradedqft.fields import FieldPoint, ModeLattice, field
    from gradedqft.gammas import OnShellMomentum, boost
    from gradedqft.lie import su2
    from gradedqft.oracle import OracleSpace
    from gradedqft.scalars import GaussianRational, ModeIndex

    lat = ModeLattice.make([(1, 0, 0), (-1, 0, 0)])
    x = FieldPoint.make("t", (1, F(1, 2), 0))
    f = field("scalar", 0, FieldPoint.make("t", "x"), lat)
    th = TheorySpec(su2())
    values = [su2(), th, x, OnShellMomentum.make((1, 0, 0), 2),
              lat.row("scalar", lat.modes[0]), OracleSpace.make(lat, n_max=1).slots[0],
              f, FiberPoly.coord(th.omega(1), ScalarExpr.symbol("xi")),
              boost(OnShellMomentum.make((1, 2, 0), 1))[0],
              ModeIndex(3, (F(1, 2), 0, -1)), next(iter(f.terms.values())),
              Q(F(2, 3)), GaussianRational(F(1, 2), 3), lat]
    for value in values:
        # an interned value's one field is its slot
        names = getattr(value, "__match_args__", None) or \
            (("_t",) if isinstance(value, GaussianRational) else ("terms",))
        for dup in (copy.copy, copy.deepcopy,
                    lambda v: pickle.loads(pickle.dumps(v))):
            twin = dup(value)
            assert type(twin) is type(value)
            for name in names:
                assert getattr(twin, name) == getattr(value, name), name
            if type(value).__eq__ is not object.__eq__:
                assert twin == value
        name = names[0]
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    assert pickle.loads(pickle.dumps(x)) == x and hash(copy.copy(x)) == hash(x)
    assert copy.deepcopy(Q(F(2, 3))) is Q(F(2, 3))
    f = field("scalar", 0, x, lat)
    assert copy.copy(f) == f and copy.copy(lat) == lat


def _frozen_sample(name: str):
    """One value of the `Frozen` class ``name``."""
    from gradedqft import bv, fields, functionals, gammas, lie, oracle, scalars

    lat = fields.ModeLattice.make([(1, 0, 0), (-1, 0, 0)])
    return {
        "ModeLattice": lambda: lat,
        "OracleSpace": lambda: oracle.OracleSpace.make(lat, n_max=1),
        "FieldPoint": lambda: fields.FieldPoint.make(1, (0, F(1, 2), 0)),
        "SpinMatrix": lambda: gammas.GAMMA[2],
        "ModeIndex": lambda: scalars.ModeIndex(3, (F(1, 2), 0, -1)),
        "GradedExpr": lambda: GradedExpr.of(OpGen(EMIT, UPPER, "gauge", 1, (2, 0))),
        "OpGen": lambda: OpGen(ABSORB, LOWER, "ghost", 0, (1,)),
        "FiberCoord": lambda: FiberCoord("A", "field", (0, 1), (2,)),
        "TheorySpec": lambda: bv.TheorySpec(lie.u1()),
        "GhostDecomposition":
            lambda: bv.ghost_lagrangian_decompose(bv.TheorySpec(lie.u1())),
        "ModeRow": lambda: lat.row("scalar", lat.modes[0]),
        "IdentityCheck": lambda: fields.IdentityCheck("name", "anchor", True, 0),
        "FunctionalResult": lambda: functionals.free_hamiltonian("scalar", lat),
        "OnShellMomentum": lambda: gammas.OnShellMomentum.make((1, 2, 0), 1),
        "LieData": lie.su2,
        "Slot": lambda: oracle.OracleSpace.make(lat, n_max=1).slots[0],
    }[name]()


@pytest.mark.parametrize("name", [
    "TheorySpec", "GhostDecomposition", "ModeRow", "IdentityCheck",
    "FunctionalResult", "OnShellMomentum", "LieData", "Slot"])
def test_base_frozen_constructor_stores_its_values_in_order(name):
    """The classes without a constructor of their own: a wrong count of
    values raises TypeError, the values land under ``__match_args__`` in
    order, a copy, deep copy or pickle holds equal fields, and no field can
    be assigned."""
    import copy
    import pickle

    value = _frozen_sample(name)
    cls = type(value)
    assert cls.__name__ == name and "__init__" not in vars(cls)
    fields = tuple(getattr(value, n) for n in cls.__match_args__)
    for wrong in (fields[:-1], fields + (None,)):
        with pytest.raises(TypeError, match=rf"^{name}\(.*\) got {len(wrong)} values$"):
            cls(*wrong)
    rebuilt = cls(*fields)
    assert all(getattr(rebuilt, n) is v for n, v in zip(cls.__match_args__, fields))
    for dup in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        twin = dup(value)
        assert type(twin) is cls
        assert tuple(getattr(twin, n) for n in cls.__match_args__) == fields
    for n in cls.__match_args__:
        with pytest.raises(AttributeError):
            setattr(value, n, None)


#: the classes whose values hold a dict, so that ``hash`` raises
_UNHASHABLE = {"ModeLattice", "OracleSpace"}


@pytest.mark.parametrize("name", [
    "TheorySpec", "GhostDecomposition", "ModeRow", "IdentityCheck",
    "FunctionalResult", "OnShellMomentum", "LieData", "Slot", "ModeLattice",
    "OracleSpace", "FieldPoint", "SpinMatrix", "ModeIndex", "GradedExpr",
    "OpGen", "FiberCoord"])
def test_frozen_values_compare_and_hash_by_their_fields(name):
    """A copy, deep copy or pickle of a value equals it and, where the value
    is hashable, hashes alike; a value of another class with the same
    fields is unequal; a lattice and an oracle space have no hash; letters
    compare by identity."""
    import copy
    import pickle

    from gradedqft.linear import Letter
    from gradedqft.scalars import Frozen

    value = _frozen_sample(name)
    cls = type(value)
    assert cls.__name__ == name
    twins = [dup(value) for dup in (copy.copy, copy.deepcopy,
                                    lambda v: pickle.loads(pickle.dumps(v)))]
    for twin in twins:
        assert twin == value and not twin != value
    if isinstance(value, Letter):
        # a second object with the same fields is another letter
        stray = object.__new__(cls)
        for n in cls.__match_args__ + ("_key", "parity"):
            object.__setattr__(stray, n, getattr(value, n))
        assert stray != value and all(twin is value for twin in twins)
    elif name in _UNHASHABLE:
        assert cls.__hash__ is None
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        assert {hash(twin) for twin in twins} == {hash(value)}
    fields = tuple(getattr(value, n) for n in cls.__match_args__)
    other = type(name, (Frozen,), {"__match_args__": cls.__match_args__})(*fields)
    assert other != value and value != other and not other == value
