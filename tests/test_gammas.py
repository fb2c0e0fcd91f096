import itertools
import random
from fractions import Fraction

import pytest

from gradedqft.gammas import (
    GAMMA,
    METRIC,
    MasslessMomentumError,
    OnShellMomentum,
    SpinMatrix,
    anticommutator,
    boost,
    boost_K_float,
    gamma,
    shell_projector,
    slash,
)
from gradedqft.scalars import ScalarExpr, canonical_sqrt

F = Fraction
IDENT = SpinMatrix.identity()
ZERO = SpinMatrix.zero()


def dagger(m: SpinMatrix) -> SpinMatrix:
    """The conjugate transpose."""
    return SpinMatrix([[m.rows[j][i].conjugate() for j in range(4)]
                       for i in range(4)])

# engineered rational-energy momenta: (spatial, mass, energy)
PYTHAGOREAN = [
    ((F(4), F(0), F(0)), F(3), F(5)),
    ((F(0), F(3), F(0)), F(4), F(5)),
    ((F(3, 4), F(0), F(0)), F(1), F(5, 4)),
    ((F(0), F(0), F(12)), F(5), F(13)),
]


def _random_momenta(seed: int, n: int) -> list:
    """n seeded rational momenta, drawn as dirac.boost_unitary draws them."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        spatial = tuple(F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(3))
        out.append(OnShellMomentum.make(spatial, F(rng.randint(1, 5), rng.randint(1, 3))))
    return out


RANDOM = _random_momenta(99, 20)
MOMENTA = [OnShellMomentum.make(s, m) for s, m, _ in PYTHAGOREAN] + RANDOM


def _mul(a, b):
    return [[sum(a[i][l] * b[l][j] for l in range(4)) for j in range(4)]
            for i in range(4)]


def test_the_random_draws_have_irrational_energies():
    # so the exact properties below run past the rational-energy momenta
    assert all(canonical_sqrt(p.energy_sq)[1] != 1 for p in RANDOM)


def test_clifford_relations_all_pairs():
    for lam, mu in itertools.product(range(4), range(4)):
        want = IDENT.scale(2 * METRIC[lam]) if lam == mu else ZERO
        assert anticommutator(gamma(lam), gamma(mu)) == want


def test_gamma_hermiticity():
    assert dagger(gamma(0)) == gamma(0)
    for i in (1, 2, 3):
        assert dagger(gamma(i)) == gamma(i).scale(-1)


def test_gamma_index_range():
    with pytest.raises(Exception):
        gamma(4)


def test_rational_energy_is_a_rational_scalar():
    for spatial, mass, energy in PYTHAGOREAN:
        p = OnShellMomentum.make(spatial, mass)
        assert p.energy_scalar() == ScalarExpr.rational(energy)


def test_slash_squares_to_mass_squared():
    for p in MOMENTA:
        s = slash(p)
        assert s @ s == IDENT.scale(p.mass * p.mass)


def test_boost_at_rest_is_identity():
    k, kinv = boost(OnShellMomentum.make((0, 0, 0), F(7, 2)))
    assert k == IDENT and kinv == IDENT


def test_boost_rejects_massless():
    p = OnShellMomentum.make((1, 0, 0), 0)
    with pytest.raises(MasslessMomentumError):
        boost(p)
    with pytest.raises(MasslessMomentumError):
        boost_K_float(p)
    with pytest.raises(MasslessMomentumError):
        shell_projector(p, +1)


def test_boost_inverse_is_dirac_adjoint():
    for p in MOMENTA:
        k, kinv = boost(p)
        assert kinv @ k == IDENT
        assert GAMMA[0] @ dagger(k) @ GAMMA[0] == kinv


def test_boost_is_isometry_of_signature_form():
    # Gbar K = K^{-dagger} Gbar with Gbar = gamma0, i.e. K+ gamma0 K = gamma0
    for p in MOMENTA:
        k, _ = boost(p)
        assert dagger(k) @ GAMMA[0] @ k == GAMMA[0]


def test_boost_signature_unitarity_numeric_random():
    g0 = GAMMA[0].to_complex()
    for p in RANDOM:
        k = boost_K_float(p)
        # adj = gamma0 K+ gamma0; check adj @ K = 1 to 1e-12
        kd = [[k[j][i].conjugate() for j in range(4)] for i in range(4)]
        prod = _mul(_mul(_mul(g0, kd), g0), k)
        for i in range(4):
            for j in range(4):
                want = 1.0 if i == j else 0.0
                assert abs(prod[i][j] - want) < 1e-12


def test_float_boost_agrees_with_the_exact_boost():
    for p in RANDOM:
        exact = boost(p)[0].to_complex()
        approx = boost_K_float(p)
        for i in range(4):
            for j in range(4):
                assert abs(exact[i][j] - approx[i][j]) < 1e-12


def _projector_properties(p) -> None:
    pp, pm = shell_projector(p, +1), shell_projector(p, -1)
    assert pp @ pp == pp
    assert pm @ pm == pm
    assert pp @ pm == ZERO
    assert pp + pm == IDENT
    assert pp.trace() == ScalarExpr.rational(2)
    assert pm.trace() == ScalarExpr.rational(2)


def test_shell_projectors_properties():
    for p in MOMENTA:
        _projector_properties(p)


def test_shell_projectors_random_momenta():
    rng = random.Random(31)
    for _ in range(10):
        spatial = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
        _projector_properties(OnShellMomentum.make(spatial, F(rng.randint(1, 4))))


def test_rest_frame_projectors():
    p = OnShellMomentum.make((0, 0, 0), F(2))
    assert shell_projector(p, +1) == SpinMatrix.diagonal([1, 1, 0, 0])
    assert shell_projector(p, -1) == SpinMatrix.diagonal([0, 0, 1, 1])


def test_boost_conjugates_gamma0_to_slash():
    # K gamma0 K^-1 = slash(p)/m drives the projector dressing
    for p in MOMENTA:
        k, kinv = boost(p)
        assert k @ GAMMA[0] @ kinv == slash(p).scale(1 / p.mass)


def test_boost_columns_span_shell_subspaces():
    for p in MOMENTA:
        k, _ = boost(p)
        pp, pm = shell_projector(p, +1), shell_projector(p, -1)
        zero = (ScalarExpr.zero(),) * 4
        for j in range(4):
            col = k.column(j)
            keep, kill = (pp, pm) if j < 2 else (pm, pp)
            assert keep.apply(col) == col
            assert kill.apply(col) == zero


def test_boost_columns_at_rest():
    # at p = 0 the columns of K are the rest basis itself
    k, _ = boost(OnShellMomentum.make((0, 0, 0), F(1)))
    for j in range(4):
        assert k.column(j) == IDENT.column(j)


def test_a_swapped_boost_fails_the_dirac_frames(monkeypatch):
    """The fields and the dirac identities read one K: a boost that returns
    (K^-1, K) must break the frames as well as the field brackets."""
    import sys

    from gradedqft import cli, gammas, identities

    honest = gammas.boost

    def swapped(p):
        k, kinv = honest(p)
        return kinv, k

    patched = []
    for name, module in list(sys.modules.items()):
        if name.startswith("gradedqft") and getattr(module, "boost", None) is honest:
            monkeypatch.setattr(module, "boost", swapped)
            patched.append(name)
    assert {"gradedqft.gammas", "gradedqft.fields", "gradedqft.identities"} <= set(patched)
    ctx = cli.context_from_config(cli.load_config(None))  # no cached dressing
    failed = {i.name for i in identities.dirac_suite()
              if i.run(ctx).status != "pass"}
    assert failed == {"dirac.field_anticommutator", "dirac.frames",
                      "dirac.mode_brackets"}
