"""Dirac gamma-matrix algebra in a fixed standard representation.

Metric signature is (+,-,-,-).  gamma^0 is diagonal (1,1,-1,-1), the
spatial gammas are the off-diagonal Pauli blocks, so all entries are
Gaussian rationals and Clifford relations hold exactly.

A :class:`SpinMatrix` holds exact ``ScalarExpr`` entries, so one path
serves every on-shell momentum, rational energy or not.  With
E = sqrt(m^2 + |p|^2):

    slash(p) = p_lambda gamma^lambda,
    K(p)     = kw ((m + E) 1 + p_i gamma^i gamma^0),   kw = (2 m (E + m))^-1/2,
    K^-1(p)  = gamma^0 K+ gamma^0 = kw ((m + E) 1 - p_i gamma^i gamma^0),
    P+-(p)   = (m 1 +- slash(p)) / 2m.

``boost`` returns (K, K^-1): the fields dress their Dirac modes with it
and the dirac identities check it.  K is an isometry of the
signature-(2,2) Hermitian form gamma^0, not of the Euclidean one.
``boost_K_float`` is the one float K, for the 1e-12 unitarity check.

On-shell spatial momenta are stored as covariant components, so
p_lambda = (E, p1, p2, p3) literally and slash(p) = p_lambda gamma^lambda.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .scalars import GR_I, GR_ONE, GR_ZERO, Frozen, ScalarExpr

F = Fraction


class GammaError(Exception):
    pass


class MasslessMomentumError(GammaError):
    """The requested construction is singular at zero mass."""


def _scalar(x) -> ScalarExpr:
    return x if isinstance(x, ScalarExpr) else ScalarExpr.gaussian(x)


class SpinMatrix(Frozen):
    """4x4 matrix over exact scalars (GaussianRational, int and Fraction
    entries are coerced to ``ScalarExpr``); ``m[i, j]`` is an entry."""

    __slots__ = __match_args__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise GammaError("SpinMatrix must be 4x4")
        object.__setattr__(self, "rows",
                           tuple(tuple(_scalar(x) for x in r) for r in rows))

    @staticmethod
    def zero() -> "SpinMatrix":
        return SpinMatrix([[0] * 4 for _ in range(4)])

    @staticmethod
    def identity() -> "SpinMatrix":
        return SpinMatrix([[1 if i == j else 0 for j in range(4)] for i in range(4)])

    @staticmethod
    def diagonal(d: Sequence) -> "SpinMatrix":
        return SpinMatrix([[d[i] if i == j else 0 for j in range(4)] for i in range(4)])

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __add__(self, other: "SpinMatrix") -> "SpinMatrix":
        return SpinMatrix([[a + b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "SpinMatrix") -> "SpinMatrix":
        return SpinMatrix([[a - b for a, b in zip(r1, r2)]
                           for r1, r2 in zip(self.rows, other.rows)])

    def scale(self, s) -> "SpinMatrix":
        """s times each entry, with s multiplying from the left."""
        return SpinMatrix([[s * a for a in r] for r in self.rows])

    def __matmul__(self, other: "SpinMatrix") -> "SpinMatrix":
        return SpinMatrix([[ScalarExpr.sum(self.rows[i][k] * other.rows[k][j]
                                           for k in range(4))
                            for j in range(4)] for i in range(4)])

    def trace(self) -> ScalarExpr:
        return ScalarExpr.sum(self.rows[i][i] for i in range(4))

    def column(self, j: int) -> tuple:
        return tuple(self.rows[i][j] for i in range(4))

    def apply(self, v: Sequence[ScalarExpr]) -> tuple:
        return tuple(ScalarExpr.sum(self.rows[i][k] * v[k] for k in range(4))
                     for i in range(4))

    def to_complex(self) -> list[list[complex]]:
        return [[x.evaluate() for x in r] for r in self.rows]


_PAULI = (
    ((GR_ZERO, GR_ONE), (GR_ONE, GR_ZERO)),
    ((GR_ZERO, -GR_I), (GR_I, GR_ZERO)),
    ((GR_ONE, GR_ZERO), (GR_ZERO, -GR_ONE)),
)


def _gamma_spatial(i: int) -> SpinMatrix:
    s = _PAULI[i - 1]
    rows = [[GR_ZERO] * 4 for _ in range(4)]
    for a in range(2):
        for b in range(2):
            rows[a][2 + b] = s[a][b]
            rows[2 + a][b] = -s[a][b]
    return SpinMatrix(rows)


GAMMA = (
    SpinMatrix.diagonal([1, 1, -1, -1]),
    _gamma_spatial(1),
    _gamma_spatial(2),
    _gamma_spatial(3),
)

#: metric signature (+,-,-,-), the one copy every layer reads
METRIC = (F(1), F(-1), F(-1), F(-1))


def gamma(lam: int) -> SpinMatrix:
    """gamma^lambda in the fixed standard representation."""
    if not 0 <= lam <= 3:
        raise GammaError(f"gamma index {lam} out of range")
    return GAMMA[lam]


def anticommutator(a: SpinMatrix, b: SpinMatrix) -> SpinMatrix:
    return a @ b + b @ a


class OnShellMomentum(Frozen):
    """Covariant spatial momentum components with mass and the on-shell
    energy squared; the energy itself is the exact ``energy_scalar``."""

    __slots__ = __match_args__ = ("spatial", "mass", "energy_sq")

    @staticmethod
    def make(spatial, mass) -> "OnShellMomentum":
        spatial = tuple(F(x) for x in spatial)
        mass = F(mass)
        if mass < 0:
            raise GammaError("mass must be nonnegative")
        esq = mass * mass + sum(x * x for x in spatial)
        return OnShellMomentum(spatial, mass, esq)

    @property
    def energy_float(self) -> float:
        return float(self.energy_sq) ** 0.5

    def energy_scalar(self) -> ScalarExpr:
        return ScalarExpr.energy(self.energy_sq)


def _require_mass(p: OnShellMomentum, what: str) -> None:
    if p.mass == 0:
        raise MasslessMomentumError(f"{what}: singular at zero mass")


def slash_spatial(p: OnShellMomentum) -> SpinMatrix:
    """p_i gamma^i (spatial part of the slash)."""
    m = SpinMatrix.zero()
    for i in range(3):
        if p.spatial[i]:
            m = m + GAMMA[i + 1].scale(p.spatial[i])
    return m


def slash(p: OnShellMomentum) -> SpinMatrix:
    """p_lambda gamma^lambda, exact for any on-shell energy."""
    return GAMMA[0].scale(p.energy_scalar()) + slash_spatial(p)


def boost(p: OnShellMomentum) -> tuple[SpinMatrix, SpinMatrix]:
    """(K, K^-1) of the momentum, exact for any on-shell energy."""
    _require_mass(p, "boost matrix")
    kw = ScalarExpr.boost_weight(p.mass, p.energy_sq)
    diag = SpinMatrix.identity().scale(p.energy_scalar() + ScalarExpr.rational(p.mass))
    sg = slash_spatial(p) @ GAMMA[0]
    return (diag + sg).scale(kw), (diag - sg).scale(kw)


def boost_K_float(p: OnShellMomentum) -> list[list[complex]]:
    """K(p) in floats: the one float path, for ``dirac.boost_unitary``."""
    _require_mass(p, "boost matrix")
    e, m = p.energy_float, float(p.mass)
    pref = (2.0 * m * (e + m)) ** -0.5
    sg = (slash_spatial(p) @ GAMMA[0]).to_complex()
    return [[pref * ((m + e if i == j else 0.0) + sg[i][j]) for j in range(4)]
            for i in range(4)]


def shell_projector(p: OnShellMomentum, sign: int) -> SpinMatrix:
    """(m 1 + sign slash(p)) / 2m, exact for any on-shell energy."""
    _require_mass(p, "shell projector")
    ident, s = SpinMatrix.identity().scale(p.mass), slash(p)
    half = ScalarExpr.rational(F(1, 2) / p.mass)
    return (ident + s if sign > 0 else ident - s).scale(half)
