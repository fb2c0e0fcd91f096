import random
from fractions import Fraction
from typing import Sequence

import pytest

from gradedqft.lie import (
    LieData,
    LieError,
    NonClosureError,
    _dagger,
    _mul,
    _solve_exact,
    commutator,
    structure_constants,
    su2,
    su3,
    u1,
)
from gradedqft.scalars import GaussianRational

F = Fraction


# --- exact checks on Lie data, used by the tests below only ---------------

def jacobi_residual(constants) -> Fraction:
    """Max |sum_L (c^I_JL c^L_HK + c^I_HL c^L_KJ + c^I_KL c^L_JH)|."""
    d = len(constants)
    worst = F(0)
    for i in range(d):
        for j in range(d):
            for h in range(d):
                for k in range(d):
                    s = F(0)
                    for l in range(d):
                        s += (constants[i][j][l] * constants[l][h][k]
                              + constants[i][h][l] * constants[l][k][j]
                              + constants[i][k][l] * constants[l][j][h])
                    worst = max(worst, abs(s))
    return worst


def antisymmetry_residual(constants) -> Fraction:
    d = len(constants)
    worst = F(0)
    for i in range(d):
        for j in range(d):
            for h in range(d):
                worst = max(worst, abs(constants[i][j][h] + constants[i][h][j]))
    return worst


def total_antisymmetry_residual(lowered) -> Fraction:
    """Residual of full antisymmetry of the lowered constants."""
    d = len(lowered)
    worst = F(0)
    for i in range(d):
        for j in range(d):
            for h in range(d):
                worst = max(worst,
                            abs(lowered[i][j][h] + lowered[j][i][h]),
                            abs(lowered[i][j][h] + lowered[i][h][j]))
    return worst


def _inverse(sym: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    n = len(sym)
    aug = [list(map(F, sym[i])) + [F(1) if j == i else F(0) for j in range(n)]
           for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        d = aug[c][c]
        aug[c] = [x / d for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def lower_first_index(constants, h_metric) -> tuple:
    """c_IJH = H_II' c^I'_JH."""
    d = len(constants)
    return tuple(tuple(tuple(sum((h_metric[i][ip] * constants[ip][j][h]
                                  for ip in range(d)), start=F(0))
                             for h in range(d)) for j in range(d))
                 for i in range(d))


def raise_first_index(lowered, h_metric) -> tuple:
    return lower_first_index(lowered, _inverse(h_metric))


def signature(sym: Sequence[Sequence[Fraction]]) -> tuple[int, int]:
    """(positive, negative) inertia of a rational symmetric matrix,
    by exact Lagrange congruence reduction."""
    a = [list(map(F, row)) for row in sym]
    n = len(a)
    pos = neg = 0
    idx = list(range(n))
    while idx:
        piv = next((i for i in idx if a[i][i] != 0), None)
        if piv is None:
            pair = next(((i, j) for i in idx for j in idx
                         if j != i and a[i][j] != 0), None)
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            piv = i
        d = a[piv][piv]
        if d > 0:
            pos += 1
        else:
            neg += 1
        idx.remove(piv)
        for i in idx:
            f = a[i][piv] / d
            if f:
                for k in range(n):
                    a[i][k] -= f * a[piv][k]
                for k in range(n):
                    a[k][i] -= f * a[k][piv]
    return pos, neg


def unitary_basis(n: int) -> list:
    """Anti-Hermitian basis of all of u(n): n^2 matrices."""
    i = GaussianRational(0, 1)
    zero = GaussianRational(0)
    gens = []
    for k in range(n):
        m = [[zero] * n for _ in range(n)]
        m[k][k] = i
        gens.append(m)
    for a in range(n):
        for b in range(a + 1, n):
            m = [[zero] * n for _ in range(n)]
            m[a][b] = GaussianRational(1)
            m[b][a] = GaussianRational(-1)
            gens.append(m)
            m2 = [[zero] * n for _ in range(n)]
            m2[a][b] = i
            m2[b][a] = i
            gens.append(m2)
    return gens


def _eps(i, j, k):
    perm = (i, j, k)
    if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        return F(1)
    if perm in ((0, 2, 1), (2, 1, 0), (1, 0, 2)):
        return F(-1)
    return F(0)


def test_su2_constants_are_epsilon():
    d = su2()
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert d.constants[i][j][k] == _eps(i, j, k)


def test_u1_is_abelian():
    d = u1()
    assert d.constants == (((F(0),),),)
    assert jacobi_residual(d.constants) == 0


def test_su2_trace_metric_is_half_identity():
    d = su2()
    g_m, _ = _full_product_metrics(d.generators)
    for i in range(3):
        for j in range(3):
            assert d.metric_h[i][j] == (F(1, 2) if i == j else 0)
            assert g_m[i][j] == (F(-1, 2) if i == j else 0)


def test_su3_closure_and_identities():
    d = su3()
    assert d.dim == 8
    assert antisymmetry_residual(d.constants) == 0
    assert jacobi_residual(d.constants) == 0
    # sample values in the rescaled basis: the su(2) block keeps epsilon
    assert d.constants[2][0][1] == 1
    # [l_4, l_5] = (1/2) l_3 + (1/2) l_8' and [l_8', l_4] = (3/2) l_5
    assert d.constants[7][3][4] == F(1, 2)
    assert d.constants[4][7][3] == F(3, 2)


def test_su2_jacobi_and_negative_control():
    d = su2()
    assert jacobi_residual(d.constants) == 0
    bad = [[[x for x in row] for row in plane] for plane in d.constants]
    bad[0][1][2] = -bad[0][1][2]  # flip one entry
    assert jacobi_residual(tuple(tuple(tuple(r) for r in p) for p in bad)) > 0


def test_non_closure_detection():
    # sigma_1 alone does not close with sigma_2 missing from the basis
    i = GaussianRational(0, 1)
    g1 = [[0, i], [i, 0]]
    g3 = [[i, 0], [0, GaussianRational(0, -1)]]
    with pytest.raises(NonClosureError):
        structure_constants([g1, g3])


def _reference_constants(generators) -> tuple:
    """c^I_JH by one exact solve per pair (J, H): the real and imaginary
    parts of sum_I c^I l_I = [l_J, l_H] as a rational system, eliminated
    on its own."""
    d = len(generators)

    def parts(m):
        return [p for row in m for x in row for p in (x.re, x.im)]

    cols = [parts(g) for g in generators]
    out = [[[F(0)] * d for _ in range(d)] for _ in range(d)]
    for jj in range(d):
        for hh in range(d):
            rhs = parts(commutator(generators[jj], generators[hh]))
            aug = [[col[i] for col in cols] + [rhs[i]] for i in range(len(rhs))]
            row = 0
            pivots = []
            for c in range(d):
                piv = next((i for i in range(row, len(aug)) if aug[i][c] != 0), None)
                if piv is None:
                    continue
                aug[row], aug[piv] = aug[piv], aug[row]
                aug[row] = [x / aug[row][c] for x in aug[row]]
                for i in range(len(aug)):
                    if i != row and aug[i][c] != 0:
                        f = aug[i][c]
                        aug[i] = [x - f * y for x, y in zip(aug[i], aug[row])]
                pivots.append(c)
                row += 1
            assert all(r[d] == 0 for r in aug[row:]), (jj, hh)
            for i, c in enumerate(pivots):
                out[c][jj][hh] = aug[i][d]
    return tuple(tuple(tuple(r) for r in plane) for plane in out)


@pytest.mark.parametrize("preset", [u1, su2, su3], ids=["u1", "su2", "su3"])
def test_one_elimination_matches_the_per_pair_solve(preset):
    gens = preset().generators
    assert structure_constants(gens) == _reference_constants(gens) == preset().constants


def _full_solve_constants(gens) -> tuple:
    """c^I_JH with every commutator [l_J, l_H], J and H in any order,
    solved for in one elimination."""
    d = len(gens)
    cols = [[x for row in g for x in row] for g in gens]
    pairs = [(jj, hh) for jj in range(d) for hh in range(d)]
    rhss = [[x for row in commutator(gens[jj], gens[hh]) for x in row]
            for jj, hh in pairs]
    out = [[[F(0)] * d for _ in range(d)] for _ in range(d)]
    for (jj, hh), sol in zip(pairs, _solve_exact(cols, rhss)):
        assert sol is not None, (jj, hh)
        for ii, c in enumerate(sol):
            assert c.im == 0
            out[ii][jj][hh] = c.re
    return tuple(tuple(tuple(r) for r in plane) for plane in out)


def _full_product_metrics(gens) -> tuple:
    """(G, H) from full matrix products: Re Tr(l_I l_J) and Tr(l_I+ l_J)."""
    def trace(m):
        return sum((m[i][i] for i in range(len(m))), start=GaussianRational(0))
    g_m = tuple(tuple(trace(_mul(a, b)).re for b in gens) for a in gens)
    h_m = tuple(tuple(trace(_mul(_dagger(a), b)) for b in gens) for a in gens)
    return g_m, h_m


def _reference_lie_data(gens) -> LieData:
    """The data from the full routines; on an anti-Hermitian basis
    Tr(l_I+ l_J) is real and equals -Re Tr(l_I l_J)."""
    g_m, h_m = _full_product_metrics(gens)
    for g_row, h_row in zip(g_m, h_m):
        for g, h in zip(g_row, h_row):
            assert h.im == 0 and h.re == -g
    return LieData(len(gens[0]), gens, _full_solve_constants(gens),
                   tuple(tuple(h.re for h in row) for row in h_m))


@pytest.mark.parametrize("preset", [u1, su2, su3], ids=["u1", "su2", "su3"])
def test_presets_match_the_full_solve_and_full_product_routines(preset):
    data = preset()
    assert data == _reference_lie_data(data.generators)


_RNG = random.Random(5)


@pytest.mark.parametrize("mix", [
    [[F(_RNG.randint(-3, 3), _RNG.randint(1, 3)) for _ in range(3)] for _ in range(3)],
    # non-orthonormal: the two brst identities fail on it while every Lie
    # index is contracted with delta
    [[1, 1, 0], [0, 2, 1], [1, 0, 1]],
], ids=["random", "integer"])
def test_a_rational_su2_basis_matches_the_full_routines(mix):
    """l'_I = mix_IJ l_J over su2: the data match the full routines, the
    metric is not diagonal and the constants are not epsilon."""
    base = su2().generators
    gens = tuple(
        tuple(tuple(sum((GaussianRational(w) * g[r][c] for w, g in zip(row, base)),
                        start=GaussianRational(0)) for c in range(2))
              for r in range(2))
        for row in mix)
    data = LieData.from_generators(gens)  # raises unless the mix is invertible
    assert data == _reference_lie_data(gens)
    assert any(data.metric_h[i][j] for i in range(3) for j in range(3) if i != j)
    assert {abs(c) for plane in data.constants for row in plane for c in row} - {0, 1}


def test_solve_exact_answers_each_right_hand_side():
    from gradedqft.lie import _solve_exact
    one, i = GaussianRational(1), GaussianRational(0, 1)
    zero = GaussianRational(0)
    cols = [[one, zero, zero], [zero, one, zero]]
    sols = _solve_exact(cols, [[i, one, zero], [zero, zero, one], [one, i, zero]])
    assert sols == [[i, one], None, [one, i]]


def test_metric_cross_block_orthogonality_and_signature():
    # G on (L, iL) for n=2: off-blocks vanish, signature is (4, 4)
    base = unitary_basis(2)
    ibase = [[[GaussianRational(0, 1) * x for x in row] for row in m] for m in base]
    g, _ = _full_product_metrics(base + ibase)
    d = len(base)
    for a in range(d):
        for b in range(d):
            assert g[a][d + b] == 0
    assert signature(g) == (4, 4)


def test_lower_raise_involutive_and_total_antisymmetry():
    for data in (su2(), su3()):
        low = lower_first_index(data.constants, data.metric_h)
        assert total_antisymmetry_residual(low) == 0
        back = raise_first_index(low, data.metric_h)
        assert back == data.constants


def test_from_generators_requires_anti_hermitian():
    with pytest.raises(Exception):
        LieData.from_generators([[[1, 0], [0, 1]]])


def test_signature_handles_zero_diagonal():
    # [[0,1],[1,0]] has eigenvalues +1, -1
    assert signature([[F(0), F(1)], [F(1), F(0)]]) == (1, 1)
    assert signature([[F(2)]]) == (1, 0)
    assert signature([[F(0)]]) == (0, 0)


_SU2 = su2().generators


@pytest.mark.parametrize("gens,match", [
    ([[[0]]], "l_0 is zero"),
    ([_SU2[0], _SU2[1], _SU2[1]], "l_2 is a combination"),
    ([_SU2[0], _SU2[1], _SU2[2],
      tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(_SU2[0], _SU2[2]))],
     "l_3 is a combination"),
], ids=["zero", "duplicate", "sum"])
def test_from_generators_requires_independent_generators(gens, match):
    with pytest.raises(LieError, match=match):
        LieData.from_generators(gens)


def test_from_generators_rejects_an_empty_basis():
    with pytest.raises(LieError, match="at least one generator"):
        LieData.from_generators([])


def test_presets_pass_the_rank_check():
    for preset in (u1, su2, su3):
        data = preset()
        assert LieData.from_generators(data.generators) == data


def _frozen_all_the_way_down(value) -> bool:
    if isinstance(value, tuple):
        return all(_frozen_all_the_way_down(v) for v in value)
    return isinstance(value, (int, Fraction, GaussianRational))


def test_presets_are_built_once_and_shared_immutable():
    from gradedqft.lie import PRESETS
    for name, preset in PRESETS.items():
        data = preset()
        assert preset() is data and PRESETS[name] is preset
        for field in ("dim_f", "generators", "constants", "metric_h"):
            value = getattr(data, field)
            assert isinstance(value, tuple) or field == "dim_f"
            assert _frozen_all_the_way_down(value), field
            with pytest.raises(AttributeError):
                setattr(data, field, ())
            assert getattr(data, field) is value
    assert su3() is su3()
