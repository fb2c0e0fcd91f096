import json
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import gradedqft
from gradedqft.algebra import (
    ABSORB,
    EMIT,
    LOWER,
    UPPER,
    GradedExpr,
    OpGen,
    koszul_product,
    normal_order,
    super_bracket,
)
from gradedqft.cli import context_from_config, load_config
from gradedqft.fields import FieldPoint, ModeLattice, conjugate_field, field, \
    propagator_D_total
from gradedqft.functionals import dirac_charge, four_momentum, free_hamiltonian
from gradedqft.identities import oracle_suite
from gradedqft.oracle import (
    OracleError,
    OracleSpace,
    _climb,
    _entries,
    _evaluated,
    _safe_digits,
    _safe_keys,
    product_residual,
    residual,
    slot_key,
)
from gradedqft.scalars import GaussianRational, ScalarExpr

F = Fraction

BIND = {"t": 0.37, "t2": -0.11, "x": (0.2, -0.4, 0.15), "y": (-0.3, 0.05, 0.5)}


def lat2(**kw):
    masses = kw.pop("masses", {"scalar": 1, "fermion": 1, "dirac": 1})
    return ModeLattice.make([(1, 0, 0), (-1, 0, 0)], masses, **kw)


def _oracle_matrix(e, space: OracleSpace) -> np.ndarray:
    """The oracle's summed entries of ``e`` scattered into a dense matrix."""
    entries = _entries(_evaluated(e, None), space)
    total = np.zeros(space.dimension ** 2, dtype=np.complex128)
    total[list(entries)] = list(entries.values())
    return total.reshape(space.dimension, space.dimension)


def occupations(space: OracleSpace) -> np.ndarray:
    """(dimension, n_slots) occupation table from the slot strides: state
    c holds (c // stride_j) % dim_j quanta in slot j."""
    states = np.arange(space.dimension)[:, None]
    strides = np.array(space.strides)
    dims = np.array([s.dim for s in space.slots])
    return states // strides % dims


def _safe_mask(space: OracleSpace, climb) -> np.ndarray:
    """Full-mask reference: the states whose bosonic occupations stay
    within the cutoff after raising ``climb`` quanta in every slot, or
    ``climb[j]`` quanta in slot j when ``climb`` is one count per slot."""
    bosonic = [j for j, s in enumerate(space.slots) if not s.fermionic]
    limit = space.n_max - np.broadcast_to(climb, (len(space.slots),))[bosonic]
    return np.all(occupations(space)[:, bosonic] <= limit, axis=1)


def _compared_mask(space: OracleSpace, climb) -> np.ndarray:
    """Full-mask reference of the compared states: a per-slot climb of at
    least one quantum; an empty safe subspace is an OracleError."""
    mask = _safe_mask(space, np.maximum(climb, 1))
    if not mask.any():
        raise OracleError("the safe subspace is empty")
    return mask


def _masked_max_abs(m: np.ndarray, mask: np.ndarray) -> float:
    """Max of the scalar ``abs`` over the entries of ``m`` whose row and
    column lie in ``mask``; numpy's vectorised complex abs can differ from
    it in the last bit."""
    return max(map(abs, m[np.ix_(mask, mask)].ravel().tolist()))


def _generator_matrix(space: OracleSpace, gen: OpGen) -> np.ndarray:
    """The oracle's dense matrix of one elementary generator."""
    return _oracle_matrix(GradedExpr.of(gen), space)


def test_fermionic_car_exact():
    lat = lat2()
    sp = OracleSpace.make(lat, sectors=("fermion",), n_max=0)
    c = _generator_matrix(sp, OpGen(ABSORB, UPPER, "fermion", 0, (0,)))
    cd = _generator_matrix(sp, OpGen(EMIT, LOWER, "fermion", 0, (0,)))
    anti = c @ cd + cd @ c
    assert np.array_equal(anti, np.eye(sp.dimension))
    # squares vanish identically
    assert not np.any(c @ c)
    assert not np.any(cd @ cd)


def test_cross_slot_anticommutator_vanishes_exactly():
    lat = lat2()
    sp = OracleSpace.make(lat, sectors=("fermion",))
    c1 = _generator_matrix(sp, OpGen(ABSORB, UPPER, "fermion", 0, (0,)))
    c2d = _generator_matrix(sp, OpGen(EMIT, LOWER, "fermion", 1, (1,)))
    assert not np.any(c1 @ c2d + c2d @ c1)


def test_bosonic_truncation_defect():
    lat = ModeLattice.make([(1, 0, 0)], scalar_dim=1)
    sp = OracleSpace.make(lat, sectors=("scalar",), n_max=3)
    a = _generator_matrix(sp, OpGen(ABSORB, UPPER, "scalar", 0, (0,)))
    ad = _generator_matrix(sp, OpGen(EMIT, LOWER, "scalar", 0, (0,)))
    comm = a @ ad - ad @ a
    # identity on occupations 0..2 of the particle slot; the deviation
    # from the identity at the top state is -(n_max+1)
    occ = occupations(sp)
    part = sp.index[("scalar", 0, "p", (0,))]
    for state in range(sp.dimension):
        want = 1.0 if occ[state, part] < 3 else 1.0 - (3 + 1)
        assert comm[state, state] == want


def test_gauge_slots_carry_metric_weight():
    lat = ModeLattice.make([(1, 0, 0)], lie_dim=1)
    sp = OracleSpace.make(lat, sectors=("gauge",), n_max=1)
    for lam in range(4):
        b = _generator_matrix(sp, OpGen(ABSORB, UPPER, "gauge", 0, (lam, 0)))
        bd = _generator_matrix(sp, OpGen(EMIT, UPPER, "gauge", 0, (lam, 0)))
        comm = b @ bd - bd @ b
        mask = _safe_mask(sp, 1)
        eta = 1.0 if lam == 0 else -1.0
        sub = comm[np.ix_(mask, mask)]
        assert np.allclose(sub, eta * np.eye(sub.shape[0]))


def test_dimension_cap():
    lat = ModeLattice.make([(i, 0, 0) for i in range(1, 8)], scalar_dim=2)
    with pytest.raises(OracleError):
        OracleSpace.make(lat, sectors=("scalar",), n_max=3, cap=1024)


def test_missing_slot():
    lat = lat2()
    sp = OracleSpace.make(lat, sectors=("fermion",))
    with pytest.raises(OracleError):
        sp.monomial(OpGen(ABSORB, UPPER, "ghost", 0, (0,)))


def _random_word(rng, sectors, n_int=2, modes=2, length=3):
    gens = []
    for _ in range(length):
        sector = rng.choice(sectors)
        species = rng.choice([ABSORB, EMIT])
        if sector in ("scalar", "fermion"):
            pos = rng.choice([UPPER, LOWER])
        elif sector == "ghost":
            pos = UPPER if species == ABSORB else LOWER
        elif sector == "antighost":
            pos = LOWER if species == ABSORB else UPPER
        gens.append(OpGen(species, pos, sector, rng.randrange(modes),
                          (rng.randrange(n_int),)))
    return GradedExpr({tuple(gens): ScalarExpr.one()})


def test_homomorphism_physical_product_randomised():
    rng = random.Random(77)
    lat = lat2(scalar_dim=1)
    sp = OracleSpace.make(lat, sectors=("fermion", "ghost", "antighost"))
    spb = OracleSpace.make(lat, sectors=("scalar",), n_max=3)
    for _ in range(40):
        a = _random_word(rng, ["fermion", "ghost", "antighost"], n_int=1,
                         length=rng.randint(1, 3))
        b = _random_word(rng, ["fermion", "ghost", "antighost"], n_int=1,
                         length=rng.randint(1, 3))
        assert product_residual(a, b, sp) < 1e-12
    for _ in range(25):
        a = _random_word(rng, ["scalar"], n_int=1, length=rng.randint(1, 3))
        b = _random_word(rng, ["scalar"], n_int=1, length=rng.randint(1, 3))
        assert product_residual(a, b, spb) < 1e-12


def test_normal_order_matches_on_fermions_without_contractions():
    # emission-only words have no contracting pairs: modified == physical
    rng = random.Random(78)
    lat = lat2()
    sp = OracleSpace.make(lat, sectors=("fermion",))
    for _ in range(30):
        w = _random_word(rng, ["fermion"], length=3)
        gens = tuple(OpGen(EMIT, g.position, g.sector, g.mode, g.internal)
                     for g in next(iter(w.terms)))
        raw = GradedExpr({gens: ScalarExpr.one()})
        assert residual(normal_order(raw), raw, sp) < 1e-12


def test_elementary_brackets_cross_checked():
    lat = lat2()
    sp = OracleSpace.make(lat, sectors=("fermion",))
    a = GradedExpr.of(OpGen(ABSORB, UPPER, "fermion", 0, (0,)))
    ad = GradedExpr.of(OpGen(EMIT, LOWER, "fermion", 0, (0,)))
    br = super_bracket(a, ad)
    assert residual(br, GradedExpr.unit(), sp) < 1e-15


def test_field_table_identity_numerically():
    lat = lat2()
    sp = OracleSpace.make(lat, sectors=("fermion",))
    x = FieldPoint.make("t", "x")
    y = FieldPoint.make("t2", "y")
    f = field("fermion", 0, x, lat)
    fb = conjugate_field("fermion", 0, y, lat)
    br = super_bracket(f, fb)
    target = GradedExpr.unit(propagator_D_total([(1, x), (-1, y)], lat, "fermion"))
    assert residual(br, target, sp, BIND) < 1e-12


def test_scalar_hamiltonian_spectrum():
    # one bosonic mode (E = 5), internal dim 1, truncation 3: the reduced
    # H is occupation-diagonal with E/2 per quantum (the generic-sector
    # Lagrangian carries the 1/2 normalisation verbatim)
    lat = ModeLattice.make([(4, 0, 0)], {"scalar": 3}, scalar_dim=1)
    sp = OracleSpace.make(lat, sectors=("scalar",), n_max=3)
    res = free_hamiltonian("scalar", lat)
    assert res.residual.is_zero()
    m = _dense_represent(res.reduced, sp, BIND)
    assert np.max(np.abs(m - m.conj().T)) < 1e-12
    evals = np.sort(np.linalg.eigvalsh(m).real)
    occ = occupations(sp)
    want = np.sort(2.5 * occ.sum(axis=1))
    assert np.allclose(evals, want)


def test_dirac_charge_spectrum():
    lat = ModeLattice.make([(4, 0, 0)], {"dirac": 3})
    sp = OracleSpace.make(lat, sectors=("dirac_particle", "dirac_antiparticle"))
    res = dirac_charge(lat)
    assert res.residual.is_zero()
    m = _dense_represent(res.reduced, sp, BIND)
    assert np.max(np.abs(m - m.conj().T)) < 1e-12
    evals = np.sort(np.linalg.eigvalsh(m).real)
    occ = occupations(sp)
    part = [i for i, s in enumerate(sp.slots) if s.key[0] == "dirac_particle"]
    anti = [i for i, s in enumerate(sp.slots) if s.key[0] == "dirac_antiparticle"]
    want = np.sort((occ[:, part].sum(axis=1) - occ[:, anti].sum(axis=1)) / 6.0)
    assert np.allclose(evals, want)


def test_functional_reductions_cross_checked_numerically():
    lat = lat2(masses={"scalar": 1, "fermion": 1, "dirac": 1})
    spd = OracleSpace.make(lat, sectors=("dirac_particle", "dirac_antiparticle"))
    for lam in range(4):
        res = four_momentum("dirac", lam, lat)
        assert residual(res.reduced, res.target, spd, BIND) < 1e-12
    spg = OracleSpace.make(lat, sectors=("ghost", "antighost"))
    res = free_hamiltonian("ghost", lat)
    assert residual(res.reduced, res.target, spg, BIND) < 1e-12


def test_negative_control_sign_flip_has_large_residual():
    # flip the anti-particle absorption sign in the conjugate fermion field
    lat = lat2()
    sp = OracleSpace.make(lat, sectors=("fermion",))
    x = FieldPoint.make("t", "x")
    y = FieldPoint.make("t2", "y")
    f = field("fermion", 0, x, lat)
    fb = conjugate_field("fermion", 0, y, lat)
    # wrong conjugate: + on the absorption term
    from gradedqft.fields import conj_C_field
    fb_wrong = conj_C_field("fermion", 0, y, lat, star=True)
    target = GradedExpr.unit(propagator_D_total([(1, x), (-1, y)], lat, "fermion"))
    ok = residual(super_bracket(f, fb), target, sp, BIND)
    bad = residual(super_bracket(f, fb_wrong), target, sp, BIND)
    assert ok < 1e-12
    assert bad > 0.1


# --- the monomial oracle against the Kronecker construction ---------------

def _kron_build_operator(space: OracleSpace, gen: OpGen) -> np.ndarray:
    """Kronecker-factor matrix of one elementary generator; its entries
    are real."""
    key = slot_key(gen)
    if key not in space.index:
        raise OracleError(f"generator {gen!r} has no slot in this space")
    j = space.index[key]
    mats = []
    for i, s in enumerate(space.slots):
        if i == j:
            d = s.dim
            m = np.zeros((d, d))
            if gen.species == EMIT:
                for n in range(d - 1):
                    m[n + 1, n] = 1.0
            else:
                for n in range(d - 1):
                    m[n, n + 1] = (n + 1) * s.eta
            mats.append(m)
        elif s.fermionic and i < j and space.slots[j].fermionic:
            mats.append(np.diag([1.0, -1.0]))
        else:
            mats.append(np.eye(s.dim))
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _slot_generators(space):
    """Every elementary generator that has a slot in ``space``."""
    out = []
    for s in space.slots:
        sector, mode, _, internal = s.key
        for species in (ABSORB, EMIT):
            for pos in (UPPER, LOWER):
                g = OpGen(species, pos, sector, mode, internal)
                if slot_key(g) == s.key:
                    out.append(g)
    return out


_ONE_MODE = [(1, 0, 0)]

_REFERENCE_SPACES = {
    "scalar": lambda: OracleSpace.make(
        ModeLattice.make(_ONE_MODE, scalar_dim=2), sectors=("scalar",), n_max=3),
    "fermion": lambda: OracleSpace.make(lat2(), sectors=("fermion",)),
    "dirac": lambda: OracleSpace.make(
        lat2(), sectors=("dirac_particle", "dirac_antiparticle")),
    "ghost": lambda: OracleSpace.make(
        lat2(lie_dim=2), sectors=("ghost", "antighost")),
    "gauge": lambda: OracleSpace.make(
        ModeLattice.make(_ONE_MODE, lie_dim=1), sectors=("gauge",), n_max=1),
    # fermionic slots sort before the bosonic ones: scalar generators must
    # carry no Jordan-Wigner string across them
    "scalar+fermion": lambda: OracleSpace.make(
        lat2(scalar_dim=1), sectors=("scalar", "fermion"), n_max=2),
    # gauge slots sort before the ghost slots: the ghosts' string must skip
    # the bosonic occupations
    "gauge+ghost": lambda: OracleSpace.make(
        ModeLattice.make(_ONE_MODE, lie_dim=1), sectors=("gauge", "ghost"),
        n_max=1),
}


@pytest.mark.parametrize("name", sorted(_REFERENCE_SPACES))
def test_build_operator_matches_kronecker_reference(name):
    # column c of the generator holds weights[c] in row rows[c], and
    # nothing else
    sp = _REFERENCE_SPACES[name]()
    gens = _slot_generators(sp)
    assert len(gens) >= 2 * len(sp.slots)
    cols = np.arange(sp.dimension)
    for g in gens:
        rows, weights = map(np.asarray, sp.monomial(g))
        kron = _kron_build_operator(sp, g)
        assert np.array_equal(kron[rows, cols], weights), g
        kron[rows, cols] = 0
        assert not np.any(kron), g


def _dense_represent(e: GradedExpr, space: OracleSpace,
                     bindings=None) -> np.ndarray:
    """Each word as the left-to-right product of its reference matrices."""
    total = np.zeros((space.dimension, space.dimension), dtype=np.complex128)
    for word, coeff in e.terms.items():
        mats = [_kron_build_operator(space, g) for g in word]
        m = reduce(np.matmul, mats) if mats else np.eye(space.dimension)
        total += complex(coeff.evaluate(bindings)) * m
    return total


def test_represent_matches_dense_products_exactly():
    rng = random.Random(79)
    sectors = ["fermion", "ghost", "antighost", "scalar"]
    sp = OracleSpace.make(ModeLattice.make(_ONE_MODE, scalar_dim=1),
                          sectors=tuple(sectors), n_max=3)
    for _ in range(12):
        e = GradedExpr.zero()
        for _ in range(rng.randint(1, 4)):
            c = GaussianRational(F(rng.randint(-9, 9), rng.randint(1, 9)),
                                 F(rng.randint(-9, 9), rng.randint(1, 9)))
            w = _random_word(rng, sectors, n_int=1, modes=1,
                             length=rng.randint(0, 4))
            e = e + w.scale(ScalarExpr.gaussian(c))
        assert np.array_equal(_oracle_matrix(e, sp), _dense_represent(e, sp))


def test_empty_safe_subspace_is_an_error_not_a_pass():
    sp = OracleSpace.make(ModeLattice.make(_ONE_MODE, scalar_dim=1),
                          sectors=("scalar",), n_max=1)
    ad = OpGen(EMIT, LOWER, "scalar", 0, (0,))
    two = GradedExpr({(ad, ad): ScalarExpr.one()})
    assert not _safe_mask(sp, 2).any()
    with pytest.raises(OracleError, match="climbs 2 quanta.*n_max=1"):
        residual(two, two, sp)
    with pytest.raises(OracleError, match="climbs 2 quanta.*n_max=1"):
        product_residual(GradedExpr.of(ad), GradedExpr.of(ad), sp)


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_digit_safe_test_is_the_full_mask(n_max):
    # the oracle tests each key's row and column digit by digit; the
    # reference masks the occupation table, which is the mixed-radix count
    rng = random.Random(700 + n_max)
    sp = _mixed_space(n_max)
    dims = [s.dim for s in sp.slots]
    assert np.array_equal(occupations(sp),
                          np.indices(dims).reshape(len(dims), -1).T)
    keys = range(sp.dimension ** 2)
    compared = 0
    for _ in range(12):
        climb = [rng.randint(0, n_max + 1) for _ in sp.slots]
        try:
            mask = _compared_mask(sp, climb)
        except OracleError:
            with pytest.raises(OracleError, match=f"n_max={n_max}"):
                _safe_digits(sp, climb)
            continue
        want = np.flatnonzero(np.outer(mask, mask))
        assert np.array_equal(_safe_keys(keys, _safe_digits(sp, climb)), want)
        compared += 1
    assert compared >= 4


def test_climb_is_counted_per_slot():
    # one emission into each of four slots climbs one quantum per slot, so
    # the states below the cutoff everywhere are compared and a sign shows
    sp = OracleSpace.make(lat2(scalar_dim=1), sectors=("scalar",), n_max=3)
    word = tuple(OpGen(EMIT, pos, "scalar", mode, (0,))
                 for mode in range(2) for pos in (UPPER, LOWER))
    assert len({slot_key(g) for g in word}) == 4
    e = GradedExpr({word: ScalarExpr.one()})
    assert residual(e, -e, sp) == 2.0


# --- the sparse residuals against their dense references -----------------

def _dense_residual(symbolic, reference, space, bindings=None) -> float:
    """Max-abs entry of the dense matrix difference on the safe subspace."""
    m1 = _dense_represent(symbolic, space, bindings)
    m2 = _dense_represent(reference, space, bindings)
    mask = _compared_mask(space, np.maximum(_climb(symbolic, space),
                                            _climb(reference, space)))
    return _masked_max_abs(m1 - m2, mask)


def _dense_product_residual(a, b, space) -> float:
    """The dense a *phys* b against the dense product of the factors."""
    prod = koszul_product(a, b, "physical")
    mask = _compared_mask(space, np.add(_climb(a, space), _climb(b, space)))
    diff = _dense_represent(prod, space) - \
        _dense_represent(a, space) @ _dense_represent(b, space)
    return _masked_max_abs(diff, mask)


_MIXED = ["fermion", "ghost", "antighost", "scalar"]


def _mixed_space(n_max):
    return OracleSpace.make(ModeLattice.make(_ONE_MODE, scalar_dim=1),
                            sectors=tuple(_MIXED), n_max=n_max)


def _random_expr(rng, max_terms=4, max_length=4):
    e = GradedExpr.zero()
    for _ in range(rng.randint(1, max_terms)):
        c = GaussianRational(F(rng.randint(-9, 9), rng.randint(1, 9)),
                             F(rng.randint(-9, 9), rng.randint(1, 9)))
        w = _random_word(rng, _MIXED, n_int=1, modes=1,
                         length=rng.randint(0, max_length))
        e = e + w.scale(ScalarExpr.gaussian(c))
    return e


def _same_or_same_error(sparse, dense):
    """Both calls return the same float, or both raise OracleError."""
    try:
        want = dense()
    except OracleError:
        with pytest.raises(OracleError):
            sparse()
        return None
    return sparse(), want


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_sparse_residual_is_the_dense_residual_bit_for_bit(n_max):
    rng = random.Random(800 + n_max)
    sp = _mixed_space(n_max)
    compared = 0
    for _ in range(40):
        a = _random_expr(rng)
        b = _random_expr(rng) if rng.random() < 0.7 else a + _random_expr(rng)
        for x, y in ((a, b), (a, a), (a, GradedExpr.zero()),
                     (GradedExpr.zero(), b)):
            got = _same_or_same_error(lambda: residual(x, y, sp),
                                      lambda: _dense_residual(x, y, sp))
            if got is not None:
                assert got[0] == got[1]
                compared += 1
    assert compared >= 100


def test_zero_reference_counts_one_sided_entries_against_zero():
    sp = _mixed_space(2)
    e = _random_expr(random.Random(81))
    assert residual(e, GradedExpr.zero(), sp) > 0
    assert residual(e, GradedExpr.zero(), sp) == _dense_residual(
        e, GradedExpr.zero(), sp)
    assert residual(GradedExpr.zero(), e, sp) == residual(e, GradedExpr.zero(), sp)
    assert residual(GradedExpr.zero(), GradedExpr.zero(), sp) == 0.0


def test_difference_outside_the_safe_subspace_is_not_compared():
    # a a+ - a+ a differs from 1 only at the top occupation, which the
    # safe subspace of a one-quantum climb excludes
    sp = OracleSpace.make(ModeLattice.make(_ONE_MODE, scalar_dim=1),
                          sectors=("scalar",), n_max=2)
    a = OpGen(ABSORB, UPPER, "scalar", 0, (0,))
    ad = OpGen(EMIT, LOWER, "scalar", 0, (0,))
    comm = GradedExpr({(a, ad): ScalarExpr.one(), (ad, a): -ScalarExpr.one()})
    unit = GradedExpr.unit()
    assert np.any(_dense_represent(comm, sp) != _dense_represent(unit, sp))
    assert residual(comm, unit, sp) == 0.0
    assert _dense_residual(comm, unit, sp) == 0.0


@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_product_residual_matches_the_matmul_reference(n_max):
    rng = random.Random(900 + n_max)
    sp = _mixed_space(n_max)
    compared = 0
    for _ in range(20):
        a = _random_expr(rng, max_terms=3, max_length=3)
        b = _random_expr(rng, max_terms=3, max_length=3)
        got = _same_or_same_error(lambda: product_residual(a, b, sp),
                                  lambda: _dense_product_residual(a, b, sp))
        if got is not None:
            assert abs(got[0] - got[1]) <= 1e-12
            compared += 1
    assert compared >= 10


def test_product_residual_of_single_words_equals_the_matmul_reference():
    # the shape oracle.homomorphism checks: one word per factor, unit weight
    rng = random.Random(83)
    spaces = [_mixed_space(n_max) for n_max in (1, 2, 3)]
    compared = 0
    for _ in range(60):
        sp = rng.choice(spaces)
        a = _random_word(rng, _MIXED, n_int=1, modes=1, length=rng.randint(1, 3))
        b = _random_word(rng, _MIXED, n_int=1, modes=1, length=rng.randint(1, 3))
        got = _same_or_same_error(lambda: product_residual(a, b, sp),
                                  lambda: _dense_product_residual(a, b, sp))
        if got is not None:
            assert got[0] == got[1]
            compared += 1
    assert compared >= 30


# --- the oracle suite past the default truncation ------------------------

def _oracle_results(n_max):
    cfg = load_config(None)
    cfg["oracle"]["n_max"] = n_max
    cfg["oracle"]["cap"] = (n_max + 1) ** 4
    ctx = context_from_config(cfg)
    return {i.name: i.run(ctx) for i in oracle_suite()}


def test_deep_oracle_passes_in_little_memory():
    shallow = _oracle_results(3)
    tracemalloc.start()
    try:
        deep = _oracle_results(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(deep) == 6
    assert all(r.status == "pass" for r in deep.values())
    assert {k: r.residual for k, r in deep.items()} == \
        {k: r.residual for k, r in shallow.items()}
    assert peak < 50 * 2 ** 20


# The child reads its peak from VmHWM: on Linux, ru_maxrss survives
# exec, so a child of this (large) test process would report the
# parent's high-water mark instead of its own.
_CHILD = """
import json, sys
from gradedqft.cli import context_from_config, load_config
from gradedqft.identities import oracle_suite
n_max = int(sys.argv[1])
cfg = load_config(None)
cfg["oracle"]["n_max"] = n_max
cfg["oracle"]["cap"] = (n_max + 1) ** 4
ctx = context_from_config(cfg)
statuses = {i.name: i.run(ctx).status for i in oracle_suite()}
print(json.dumps({
    "statuses": statuses,
    "peak_rss_mb": next(int(line.split()[1]) for line in open("/proc/self/status")
                        if line.startswith("VmHWM:")) / 1024,
}))
"""


def _in_child(script, *args):
    """Run ``script`` in a fresh interpreter on this checkout's package and
    parse the JSON it prints."""
    src = str(Path(gradedqft.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script, *args],
                         env={"PYTHONPATH": src}, capture_output=True,
                         text=True, check=True, timeout=120)
    return json.loads(out.stdout)


def _oracle_in_child(n_max):
    """Run the oracle suite in a fresh interpreter; its statuses and peak
    RSS."""
    return _in_child(_CHILD, str(n_max))


def test_oracle_at_n_max_15_stays_under_100_mb():
    child = _oracle_in_child(15)
    assert len(child["statuses"]) == 6
    assert set(child["statuses"].values()) == {"pass"}
    assert child["peak_rss_mb"] < 100


_NUMPY_FREE_CHILD = """
import json, sys
import gradedqft.cli as cli
from gradedqft.cli import load_config, run_verify
cli._worker_count = lambda jobs: 1  # every identity runs in this process
full = run_verify(load_config(None))
cfg = load_config(None)
cfg["oracle"]["n_max"] = 3
oracle = run_verify(cfg, ["oracle"])
print(json.dumps({
    "passed": [full["passed"], oracle["passed"]],
    "failed": [full["failed"], oracle["failed"]],
    "imported": [m for m in ("numpy", "scipy") if m in sys.modules],
}))
"""


def test_engine_imports_neither_numpy_nor_scipy():
    # the default verify and the oracle suite run on the standard library
    child = _in_child(_NUMPY_FREE_CHILD)
    assert child["passed"] == [59, 6] and child["failed"] == [0, 0]
    assert child["imported"] == []


def test_each_space_builds_a_generator_monomial_once(monkeypatch):
    from collections import Counter

    import gradedqft.cli as cli
    import gradedqft.oracle as orc
    from gradedqft.cli import run_verify

    monkeypatch.setattr(cli, "_worker_count", lambda jobs: 1)
    builds, spaces = Counter(), []
    build = orc._monomial

    def counted(space, gen):
        spaces.append(space)  # keeps every id distinct
        builds[id(space), gen] += 1
        return build(space, gen)

    monkeypatch.setattr(orc, "_monomial", counted)
    report = run_verify(load_config(None), ["oracle"])
    assert report["passed"] == 6 and report["failed"] == 0
    assert builds and max(builds.values()) == 1
    for space in spaces:
        for rows, weights in space._monomials.values():
            assert isinstance(rows, memoryview) and rows.readonly
            assert isinstance(weights, memoryview) and weights.readonly
            assert (rows.format, weights.format) == ("q", "d")
            assert len(rows) == len(weights) == space.dimension


def test_an_oracle_run_builds_each_space_once(monkeypatch):
    """Counts work, not time: the context builds its six oracle spaces on
    the first call and hands out the same dict after it, so a one-worker
    oracle run makes each space once and every identity reads its
    monomials."""
    from gradedqft import cli
    from gradedqft.cli import context_from_config, load_config, run_verify

    monkeypatch.setattr(cli, "_worker_count", lambda jobs: 1)
    made = []
    honest = OracleSpace.make

    def counted(*args, **kwargs):
        made.append(args[1])
        return honest(*args, **kwargs)

    monkeypatch.setattr(OracleSpace, "make", staticmethod(counted))
    report = run_verify(load_config(None), ["oracle"])
    assert report["passed"] == 6 and report["failed"] == 0
    assert len(made) == 6
    ctx = context_from_config(load_config(None))
    spaces = ctx.oracle_spaces()
    assert ctx.oracle_spaces() is spaces and len(made) == 12
    assert spaces["scalar"].lattice is spaces["ghost"].lattice is \
        spaces["fermion_ghost"].lattice
    assert spaces["fermion"].lattice is ctx.lattice_nozero
