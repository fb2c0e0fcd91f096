import itertools
import random
from fractions import Fraction

import pytest

from gradedqft.algebra import (
    ABSORB,
    EMIT,
    LOWER,
    UPPER,
    GradedExpr,
    MixedParityError,
    OpGen,
    koszul_product,
    normal_order,
    parity_of,
    super_bracket,
)
from gradedqft.fields import FieldPoint, ModeLattice, conjugate_field, field
from gradedqft.scalars import GaussianRational, ScalarExpr, qsum

F = Fraction
ONE = ScalarExpr.one()


def absorb_up(sector, mode, idx):
    return GradedExpr.of(OpGen(ABSORB, UPPER, sector, mode, (idx,)))


def absorb_dn(sector, mode, idx):
    return GradedExpr.of(OpGen(ABSORB, LOWER, sector, mode, (idx,)))


def emit_up(sector, mode, idx):
    return GradedExpr.of(OpGen(EMIT, UPPER, sector, mode, (idx,)))


def emit_dn(sector, mode, idx):
    return GradedExpr.of(OpGen(EMIT, LOWER, sector, mode, (idx,)))


@pytest.mark.parametrize("sector", ["scalar", "fermion"])
def test_particle_pair_contracts_to_delta(sector):
    for p, q in itertools.product(range(3), range(3)):
        for a, b in itertools.product(range(2), range(2)):
            br = super_bracket(absorb_up(sector, p, a), emit_dn(sector, q, b))
            if p == q and a == b:
                assert br == GradedExpr.unit()
            else:
                assert br.is_zero()


@pytest.mark.parametrize("sector", ["scalar", "fermion"])
def test_antiparticle_pair_contracts_to_delta(sector):
    br = super_bracket(absorb_dn(sector, 1, 0), emit_up(sector, 1, 0))
    assert br == GradedExpr.unit()


@pytest.mark.parametrize("sector", ["scalar", "fermion"])
def test_cross_family_brackets_vanish(sector):
    # same index position on both operators: particle vs anti-particle slot
    assert super_bracket(absorb_dn(sector, 0, 1), emit_dn(sector, 0, 1)).is_zero()
    assert super_bracket(absorb_up(sector, 0, 1), emit_up(sector, 0, 1)).is_zero()


@pytest.mark.parametrize("sector", ["scalar", "fermion"])
def test_same_species_brackets_vanish(sector):
    gens = [absorb_up(sector, 0, 0), absorb_dn(sector, 1, 1),
            emit_up(sector, 0, 0), emit_dn(sector, 1, 1)]
    for a, b in itertools.product(gens[:2], gens[:2]):
        assert super_bracket(a, b).is_zero()
    for a, b in itertools.product(gens[2:], gens[2:]):
        assert super_bracket(a, b).is_zero()


def test_cross_sector_brackets_vanish():
    assert super_bracket(absorb_up("ghost", 0, 0), emit_dn("antighost", 0, 0)).is_zero()
    assert super_bracket(absorb_up("scalar", 0, 0), emit_dn("fermion", 0, 0)).is_zero()


def test_gauge_contraction_carries_metric():
    for lam in range(4):
        a = GradedExpr.of(OpGen(ABSORB, UPPER, "gauge", 0, (lam, 0)))
        c = GradedExpr.of(OpGen(EMIT, UPPER, "gauge", 0, (lam, 0)))
        br = super_bracket(a, c)
        want = GradedExpr.unit(ScalarExpr.rational(1 if lam == 0 else -1))
        assert br == want
    # distinct spacetime indices are metric-orthogonal
    a = GradedExpr.of(OpGen(ABSORB, UPPER, "gauge", 0, (0, 0)))
    c = GradedExpr.of(OpGen(EMIT, UPPER, "gauge", 0, (1, 0)))
    assert super_bracket(a, c).is_zero()


def test_already_normal_word_unchanged():
    w = koszul_product(emit_dn("scalar", 0, 1), absorb_up("scalar", 1, 1), "physical")
    assert list(w.terms) == [(OpGen(EMIT, LOWER, "scalar", 0, (1,)),
                              OpGen(ABSORB, UPPER, "scalar", 1, (1,)))]
    assert koszul_product(emit_dn("scalar", 0, 1), absorb_up("scalar", 1, 1), "modified") == w


@pytest.mark.parametrize("sector,sign", [("scalar", 1), ("fermion", -1)])
def test_modified_rule_is_pure_reordering(sector, sign):
    prod = koszul_product(absorb_up(sector, 0, 0), emit_dn(sector, 1, 1), "modified")
    flipped = koszul_product(emit_dn(sector, 1, 1), absorb_up(sector, 0, 0), "modified")
    assert prod == flipped.scale(ScalarExpr.rational(sign))
    assert prod.n_terms == 1


def test_physical_rule_adds_contraction_for_bosons():
    prod = koszul_product(absorb_up("scalar", 0, 0), emit_dn("scalar", 0, 0), "physical")
    reordered = koszul_product(emit_dn("scalar", 0, 0), absorb_up("scalar", 0, 0), "physical")
    assert prod == reordered + GradedExpr.unit()


def test_physical_rule_adds_contraction_for_fermions():
    prod = koszul_product(absorb_up("fermion", 0, 0), emit_dn("fermion", 0, 0), "physical")
    reordered = koszul_product(emit_dn("fermion", 0, 0), absorb_up("fermion", 0, 0), "physical")
    assert prod == -reordered + GradedExpr.unit()


def test_normal_order_examples():
    e = koszul_product(absorb_up("fermion", 0, 0), emit_dn("fermion", 0, 0), "modified")
    # a a+ -> -a+ a for fermions, contraction dropped
    assert e == -koszul_product(emit_dn("fermion", 0, 0), absorb_up("fermion", 0, 0), "modified")
    assert normal_order(e) == e  # idempotent


def test_fermionic_square_is_zero():
    sq = koszul_product(absorb_up("fermion", 0, 0), absorb_up("fermion", 0, 0), "physical")
    assert sq.is_zero()
    sq2 = normal_order(koszul_product(emit_dn("ghost", 2, 1), emit_dn("ghost", 2, 1), "modified"))
    assert sq2.is_zero()


def test_bosonic_square_is_not_zero():
    sq = koszul_product(emit_dn("scalar", 0, 0), emit_dn("scalar", 0, 0), "physical")
    assert sq.n_terms == 1


def test_parity_of():
    assert parity_of(emit_dn("ghost", 0, 1)) == "odd"
    assert parity_of(koszul_product(emit_dn("ghost", 0, 1), absorb_up("ghost", 0, 1))) == "even"
    assert parity_of(emit_dn("ghost", 0, 1) + emit_dn("gauge", 0, 1)) == "mixed"
    assert parity_of(GradedExpr.zero()) == "even"


def test_super_bracket_rejects_mixed_parity():
    mixed = emit_dn("ghost", 0, 1) + GradedExpr.of(OpGen(EMIT, UPPER, "gauge", 0, (1, 1)))
    with pytest.raises(MixedParityError):
        super_bracket(mixed, emit_dn("ghost", 0, 0))


def _random_word(rng, length):
    gens = []
    for _ in range(length):
        sector = rng.choice(["scalar", "fermion", "ghost", "antighost"])
        species = rng.choice([ABSORB, EMIT])
        if sector in ("scalar", "fermion"):
            pos = rng.choice([UPPER, LOWER])
        elif sector == "ghost":
            pos = UPPER if species == ABSORB else LOWER
        else:
            pos = LOWER if species == ABSORB else UPPER
        gens.append(OpGen(species, pos, sector, rng.randrange(2), (rng.randrange(2),)))
    return gens


def _as_expr(gens, rule="physical"):
    e = GradedExpr.unit()
    for g in gens:
        e = koszul_product(e, GradedExpr.of(g), rule)
    return e


def test_koszul_exchange_without_contracting_pairs():
    # definite-parity monomials built from emissions only never contract
    rng = random.Random(11)
    for _ in range(60):
        w1 = [g for g in _random_word(rng, 2)]
        w2 = [g for g in _random_word(rng, 2)]
        w1 = [OpGen(EMIT, g.position if g.sector != "ghost" else LOWER, g.sector, g.mode, g.internal) for g in w1]
        w2 = [OpGen(EMIT, g.position if g.sector != "ghost" else LOWER, g.sector, g.mode, g.internal) for g in w2]
        a, b = _as_expr(w1), _as_expr(w2)
        if a.is_zero() or b.is_zero():
            continue
        pa, pb = parity_of(a), parity_of(b)
        sign = -1 if (pa == "odd" and pb == "odd") else 1
        assert koszul_product(a, b) == koszul_product(b, a).scale(ScalarExpr.rational(sign))


def test_super_antisymmetry_randomised():
    rng = random.Random(12)
    for _ in range(80):
        a = _as_expr(_random_word(rng, rng.randint(1, 2)))
        b = _as_expr(_random_word(rng, rng.randint(1, 2)))
        if a.is_zero() or b.is_zero():
            continue
        if "mixed" in (parity_of(a), parity_of(b)):
            continue
        sign = -1 if parity_of(a) == parity_of(b) == "odd" else 1
        assert super_bracket(a, b) == super_bracket(b, a).scale(ScalarExpr.rational(-sign))


def test_graded_jacobi_randomised():
    rng = random.Random(13)
    checked = 0
    while checked < 40:
        x = _as_expr(_random_word(rng, rng.randint(1, 3)))
        y = _as_expr(_random_word(rng, rng.randint(1, 2)))
        z = _as_expr(_random_word(rng, rng.randint(1, 2)))
        if any(e.is_zero() for e in (x, y, z)):
            continue
        px, py = parity_of(x), parity_of(y)
        if "mixed" in (px, py, parity_of(z)):
            continue
        lhs = super_bracket(x, super_bracket(y, z))
        sign = -1 if px == py == "odd" else 1
        rhs = super_bracket(super_bracket(x, y), z) + \
            super_bracket(y, super_bracket(x, z)).scale(ScalarExpr.rational(sign))
        assert lhs == rhs
        checked += 1


def test_normal_order_involution_randomised():
    rng = random.Random(14)
    for _ in range(60):
        e = _as_expr(_random_word(rng, 3), "modified")
        assert normal_order(e) == e
        raw = GradedExpr({tuple(_random_word(rng, 3)): ONE})
        assert normal_order(normal_order(raw)) == normal_order(raw)


def test_generators_are_interned():
    import copy
    import pickle

    from gradedqft.algebra import SECTORS
    fields = (EMIT, UPPER, "gauge", 1, (2, 0))
    g = OpGen(*fields)
    assert OpGen(*fields) is g
    assert OpGen(species=EMIT, position=UPPER, sector="gauge", mode=1,
                 internal=(2, 0)) is g
    # equality and hash come from identity
    assert hash(g) == object.__hash__(g)
    assert g.sort_key() == (0, "gauge", 1, UPPER, (2, 0))
    assert OpGen(ABSORB, UPPER, "gauge", 1, (2, 0)).sort_key()[0] == 1
    assert copy.deepcopy(g) is g and pickle.loads(pickle.dumps(g)) is g
    for sector, (p, _real) in SECTORS.items():
        assert OpGen(ABSORB, LOWER, sector, 0, (0,)).parity == p


def test_constants_are_interned_through_copies():
    """Copies and unpickled scalars are usable values: a constant comes back
    as the interned expression, a term key as the interned key."""
    import copy
    import pickle

    from gradedqft.scalars import _KEYS

    c = ScalarExpr.gaussian(GaussianRational(F(2, 3), -1))
    for e in (c, ScalarExpr.zero(), ScalarExpr.one()):
        assert copy.copy(e) is e and copy.deepcopy(e) is e
        assert pickle.loads(pickle.dumps(e)) is e
    g = GaussianRational(F(-1, 2), 3)
    x = ScalarExpr.symbol("x") * c + ScalarExpr.radical(2)
    for dup in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        assert dup(g) == g and dup(g)._t == g._t
        y = dup(x)
        assert y == x and all(k is _KEYS[k] for k in y.terms)
        assert y * c == x * c


@pytest.mark.parametrize("fields,error", [
    (("absorbs", UPPER, "scalar", 0, (0,)), "bad species"),
    ((EMIT, "middle", "scalar", 0, (0,)), "bad index position"),
    ((EMIT, UPPER, "scalr", 0, (0,)), "unknown sector"),
], ids=["species", "position", "sector"])
def test_rejected_generators_are_not_interned(fields, error):
    from gradedqft import algebra
    before = dict(algebra._GENS)
    for _ in range(2):
        with pytest.raises(algebra.AlgebraError, match=error):
            OpGen(*fields)
    assert algebra._GENS == before
    assert (OpGen, *fields) not in algebra._GENS


# --- the Leibniz-rule bracket against the two-product formula ----------

def _two_product_bracket(a, b):
    """[[X, Y]] from two full products, XY - (-1)^{|X||Y|} YX: the
    reference `super_bracket` must equal exactly."""
    pa, pb = parity_of(a), parity_of(b)
    if "mixed" in (pa, pb):
        raise MixedParityError("super-bracket needs definite-parity operands")
    sign = -1 if (pa == "odd" and pb == "odd") else 1
    ab = koszul_product(a, b, "physical")
    ba = koszul_product(b, a, "physical")
    return ab - ba if sign > 0 else ab + ba


#: (sector, mode, internal, absorption position, emission position): a
#: small pool of slots, so that words meet their contraction partners and
#: repeat odd letters often; gauge letters carry the metric weight.
_SLOTS = [
    ("scalar", 0, (0,), UPPER, LOWER),
    ("scalar", 0, (0,), LOWER, UPPER),
    ("fermion", 0, (0,), UPPER, LOWER),
    ("fermion", 1, (1,), LOWER, UPPER),
    ("ghost", 0, (1,), UPPER, LOWER),
    ("antighost", 0, (1,), LOWER, UPPER),
    ("gauge", 0, (0, 1), UPPER, UPPER),
    ("gauge", 1, (2, 1), UPPER, UPPER),
]


def _random_letter(rng):
    sector, mode, internal, absorb, emit = rng.choice(_SLOTS)
    if rng.random() < 0.5:
        return OpGen(ABSORB, absorb, sector, mode, internal)
    return OpGen(EMIT, emit, sector, mode, internal)


def _random_coeff(rng):
    """A Gaussian rational times a plane-wave phase, plus sometimes a
    second such term."""
    def term():
        c = ScalarExpr.gaussian(GaussianRational(F(rng.randint(-3, 3), rng.randint(1, 4)),
                                                 F(rng.randint(-3, 3), rng.randint(1, 4))))
        if c.is_zero():
            c = ScalarExpr.rational(F(1, 2))
        ph = ScalarExpr.phase([(("t", "t"), qsum([(1, F(rng.randint(-2, 2), 3))])),
                               (("x", "x"), (F(rng.randint(-1, 1)), F(0), F(0)))])
        return c * ph
    return term() + term() if rng.random() < 0.3 else term()


def _random_operand(rng, parity):
    """1-3 words of 1-3 letters, each of the given parity; a word may
    repeat one of its odd letters."""
    terms = {}
    while len(terms) < rng.randint(1, 3):
        word = [_random_letter(rng) for _ in range(rng.randint(1, 3))]
        odd = [g for g in word if g.parity]
        if odd and rng.random() < 0.25:
            word.insert(rng.randrange(len(word) + 1), rng.choice(odd))
        if len(word) <= 3 and sum(g.parity for g in word) % 2 == parity:
            terms[tuple(word)] = _random_coeff(rng)
    e = GradedExpr(terms)
    return normal_order(e) if rng.random() < 0.5 else e


def test_leibniz_bracket_equals_two_products_randomised():
    rng = random.Random(21)
    nonzero = 0
    for _ in range(300):
        a = _random_operand(rng, rng.randrange(2))
        b = _random_operand(rng, rng.randrange(2))
        br = super_bracket(a, b)
        assert br == _two_product_bracket(a, b)
        nonzero += not br.is_zero()
    # uncontracted words always cancel, so a nonzero bracket is one in
    # which contractions survived
    assert nonzero > 60


def test_leibniz_bracket_on_repeated_odd_letters():
    psi = OpGen(ABSORB, UPPER, "fermion", 0, (0,))
    psid = OpGen(EMIT, LOWER, "fermion", 0, (0,))
    ghost = OpGen(EMIT, LOWER, "ghost", 1, (1,))
    half = ScalarExpr.rational(F(1, 2))
    for a, b in [
        (GradedExpr({(psi,): ONE}), GradedExpr({(psi, psid, psi): half})),
        (GradedExpr({(psi, ghost): ONE}), GradedExpr({(ghost, psid): ONE})),
        (GradedExpr({(psid,): ONE}), GradedExpr({(psi, psid): ONE, (ghost, ghost): ONE})),
    ]:
        assert super_bracket(a, b) == _two_product_bracket(a, b)


def test_leibniz_bracket_equals_two_products_on_fields():
    lat = ModeLattice.make([(1, 0, 0), (-1, 0, 0)], lie_dim=2)
    x, y = FieldPoint.make("t", "x"), FieldPoint.make("t2", "y")
    ops = [field("scalar", 0, x, lat).expr, conjugate_field("scalar", 0, y, lat).expr,
           field("scalar", 0, x, lat).deriv(0).expr]
    ops += [field("dirac", al, x, lat).expr for al in (0, 3)]
    ops += [conjugate_field("dirac", al, y, lat).expr for al in (0, 2)]
    ops += [field("ghost", 1, x, lat).expr, conjugate_field("ghost", 1, y, lat).expr,
            conjugate_field("ghost", 0, y, lat).expr]
    ops += [field("gauge", (lam, 1), y, lat).expr for lam in (0, 2)]
    ops += [field("gauge", (2, 1), x, lat).deriv(1).expr]
    # quadratic composites under the modified rule, as the equal-time
    # momenta build them: one even, one odd
    ops += [koszul_product(field("gauge", (2, 0), x, lat).expr,
                           field("gauge", (0, 1), x, lat).deriv(0).expr, "modified"),
            koszul_product(field("ghost", 0, x, lat).expr,
                           field("gauge", (0, 1), x, lat).expr, "modified")]
    nonzero = 0
    for a in ops:
        for b in ops:
            br = super_bracket(a, b)
            assert br == _two_product_bracket(a, b)
            nonzero += not br.is_zero()
    assert nonzero >= 15


def test_sign_blind_word_rule_shows_in_the_bracket(monkeypatch):
    """Negative control: with every minus sign dropped from the integer
    factors of the word rule, the uncontracted words of a+ a and a a+ no
    longer cancel, so {a, a+} picks up a non-central term."""
    from gradedqft import algebra

    a, adag = absorb_up("fermion", 0, 0), emit_dn("fermion", 0, 0)
    assert super_bracket(a, adag) == GradedExpr.unit()
    honest = algebra.canonical_terms

    def sign_blind(*args, **kwargs):
        return [(abs(f) if type(f) is int else f, w)
                for f, w in honest(*args, **kwargs)]

    # the letter table already holds {a, a+}: start from an empty one
    monkeypatch.setattr(algebra, "_LETTER_BRACKETS", {})
    monkeypatch.setattr(algebra, "canonical_terms", sign_blind)
    br = super_bracket(a, adag)
    assert br != GradedExpr.unit()
    assert not br.operator_part().is_zero()


# --- the two signs of the Leibniz rule, by hand ---------------------------

# psi and psi+ contract; chi and omega are odd letters that contract with
# neither.  Both words below are canonical.
_PSI = OpGen(ABSORB, UPPER, "fermion", 1, (0,))
_PSID = OpGen(EMIT, LOWER, "fermion", 1, (0,))
_CHI = OpGen(EMIT, LOWER, "fermion", 0, (0,))
_OMEGA = OpGen(ABSORB, UPPER, "ghost", 0, (0,))


def test_leibniz_prefix_sign():
    """[[psi, chi psi+]] = [[psi, chi]] psi+ - chi [[psi, psi+]] = -chi: the
    letter psi crosses the odd prefix chi, (-1)^{|x||w2[:j]|}."""
    word = GradedExpr({(_CHI, _PSID): ONE})
    assert super_bracket(GradedExpr.of(_PSI), word) == -GradedExpr.of(_CHI)


def test_leibniz_tail_sign():
    """[[psi+ omega, psi]] = psi+ [[omega, psi]] - [[psi+, psi]] omega =
    -omega: psi crosses the odd tail omega, (-1)^{|Y||w1[i+1:]|}."""
    word = GradedExpr({(_PSID, _OMEGA): ONE})
    assert super_bracket(word, GradedExpr.of(_PSI)) == -GradedExpr.of(_OMEGA)


@pytest.mark.parametrize("kept", ["(odd_y and tail)", "(x.parity and head)"],
                         ids=["prefix", "tail"])
def test_leibniz_sign_drop_fails_jacobi(monkeypatch, kept):
    """Mutation rows: `super_bracket` without its prefix sign (keeping only
    the tail sign) or without its tail sign (keeping only the prefix sign)
    fails exactly `algebra.jacobi` in the default `verify`, through its
    fixed two-product cases; the Jacobi identity itself holds under
    either drop."""
    import inspect

    from gradedqft import algebra
    from gradedqft.cli import load_config, run_verify

    both = "(odd_y and tail) ^ (x.parity and head)"
    source = inspect.getsource(algebra.super_bracket)
    assert source.count(both) == 1
    namespace = dict(vars(algebra))
    exec(source.replace(both, kept), namespace)
    monkeypatch.setattr(algebra, "super_bracket", namespace["super_bracket"])
    report = run_verify(load_config(None))
    failed = {e["identity"] for e in report["identities"] if e["status"] != "pass"}
    assert len(report["identities"]) == 59
    assert failed == {"algebra.jacobi"}


#: the default-config identities that fail when a swap of two odd letters
#: no longer flips the sign of the word rule's factor
_SWAP_SIGN_KILLS = {
    "algebra.pairs.fermion", "algebra.vanishing.fermion",
    "brst.current_equivalence", "brst.fp_noether_current",
    "brst.ghost_decomposition", "brst.ghost_decomposition_abelian",
    "brst.matter_gauge_invariance", "brst.negative_control",
    "brst.nilpotent_generators", "brst.nilpotent_random",
    "bv.bracket_antiderivation", "bv.laplacian_product",
    "dirac.field_anticommutator", "dirac.mode_brackets",
    "equal_time.dirac", "equal_time.ghost",
    "functional.dirac_charge", "functional.dirac_hamiltonian",
    "functional.dirac_momentum.0", "functional.dirac_momentum.1",
    "functional.fermion_hamiltonian", "functional.fp_charge",
    "functional.fp_current_spatial", "functional.ghost_hamiltonian",
    "functional.ghost_momentum.0", "functional.ghost_momentum.1",
    "oracle.brackets", "oracle.dirac", "oracle.functionals",
    "oracle.homomorphism", "oracle.table", "table.supercommutators.fermion",
}


def test_koszul_swap_sign_flip_fails_the_same_identities(monkeypatch):
    """Mutation row: the word rule with the odd-odd swap sign dropped fails
    exactly the 32 identities above in the default `verify`, starting from
    an empty letter table."""
    import inspect

    from gradedqft import algebra, linear
    from gradedqft.cli import load_config, run_verify

    flip = "            if left.parity and right.parity:\n" \
           "                factor = -factor\n"
    source = inspect.getsource(linear._insertion_sort)
    assert flip in source
    namespace = dict(vars(linear))
    exec(source.replace(flip, ""), namespace)
    monkeypatch.setattr(linear, "_insertion_sort", namespace["_insertion_sort"])
    monkeypatch.setattr(algebra, "_LETTER_BRACKETS", {})
    report = run_verify(load_config(None))
    failed = {e["identity"] for e in report["identities"] if e["status"] != "pass"}
    assert len(report["identities"]) == 59
    assert failed == _SWAP_SIGN_KILLS


#: the bv+brst identities that fail when `bv._splice` drops one of its signs
_SPLICE_SIGN_KILLS = {
    "brst.current_equivalence", "brst.matter_gauge_invariance",
    "brst.nilpotent_generators", "brst.nilpotent_random",
}


@pytest.mark.parametrize("kept", ["sign < 0", "flip"], ids=["prefix", "merge"])
def test_splice_sign_drop_fails_the_same_identities(monkeypatch, kept):
    """Mutation rows: `bv._splice` without its prefix sign (keeping only the
    merge sign) or without its merge sign (keeping only the prefix sign)
    fails exactly the four identities above on the bv and brst suites."""
    import inspect

    from gradedqft import bv
    from gradedqft.cli import load_config, run_verify

    both = "(sign < 0) != flip"
    source = inspect.getsource(bv._splice)
    assert source.count(both) == 1
    namespace = dict(vars(bv))
    exec(source.replace(both, kept), namespace)
    monkeypatch.setattr(bv, "_splice", namespace["_splice"])
    report = run_verify(load_config(None), ["bv", "brst"])
    failed = {e["identity"] for e in report["identities"] if e["status"] != "pass"}
    assert len(report["identities"]) == 14
    assert failed == _SPLICE_SIGN_KILLS


_SWAP_FLIP = "            if left.parity and right.parity:\n" \
             "                factor = -factor\n"


@pytest.mark.parametrize("module,name,honest,mutated,kills", [
    ("bv", "_splice", "(sign < 0) != flip", "sign < 0", _SPLICE_SIGN_KILLS),
    ("linear", "_insertion_sort", _SWAP_FLIP, "",
     {k for k in _SWAP_SIGN_KILLS if k.split(".")[0] in ("bv", "brst")}),
], ids=["splice_prefix", "swap_sign"])
def test_run_scoped_caches_do_not_hide_a_mutation(monkeypatch, module, name,
                                                   honest, mutated, kills):
    """A clean bv+brst run first, then in the same process the kernel
    mutated (`bv._splice` without its prefix sign, or the word rule without
    its swap sign): the mutated run still fails exactly the identities it
    fails from a cold start, so nothing the clean run built serves it."""
    import importlib
    import inspect

    import gradedqft.cli as cli
    from gradedqft.cli import load_config, run_verify

    monkeypatch.setattr(cli, "_worker_count", lambda jobs: 1)
    assert run_verify(load_config(None), ["bv", "brst"])["failed"] == 0
    mod = importlib.import_module(f"gradedqft.{module}")
    source = inspect.getsource(getattr(mod, name))
    assert source.count(honest) == 1
    namespace = dict(vars(mod))
    exec(source.replace(honest, mutated), namespace)
    monkeypatch.setattr(mod, name, namespace[name])
    report = run_verify(load_config(None), ["bv", "brst"])
    failed = {e["identity"] for e in report["identities"] if e["status"] != "pass"}
    assert failed == kills
