"""Dirac gamma-matrix algebra in a fixed standard representation.

Metric signature is (+,-,-,-).  gamma^0 is diagonal (1,1,-1,-1), the
spatial gammas are the off-diagonal Pauli blocks, so all entries are
Gaussian rationals and Clifford relations hold exactly.

The boost K(p) that dresses the Dirac modes factors as

    K(p) = M(p) / sqrt(D),   D = 2 m (E + m),
    M(p) = (m + E) 1 + p_i gamma^i gamma^0,

with E = sqrt(m^2 + |p|^2).  ``boost_parts`` returns (D, M) so callers can
keep the prefactor exact; ``boost_K`` assembles the matrix and falls back
to floats when sqrt(D) is irrational.  The inverse is the Dirac adjoint
K^-1 = gamma^0 K+ gamma^0 (K is an isometry of the signature-(2,2)
Hermitian form, not of the Euclidean one).

On-shell spatial momenta are stored as covariant components, so
p_lambda = (E, p1, p2, p3) literally and slash(p) = p_lambda gamma^lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .scalars import GR_I, GR_ONE, GR_ZERO, GaussianRational, ScalarExpr, canonical_sqrt

F = Fraction


class GammaError(Exception):
    pass


class MasslessMomentumError(GammaError):
    """The requested construction is singular at zero mass."""


def _gr(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(F(x))


class SpinMatrix:
    """4x4 matrix over Gaussian rationals."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise GammaError("SpinMatrix must be 4x4")
        object.__setattr__(self, "rows", tuple(tuple(_gr(x) for x in r) for r in rows))

    def __setattr__(self, *a):
        raise AttributeError("SpinMatrix is immutable")

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

    def __neg__(self) -> "SpinMatrix":
        return SpinMatrix([[-a for a in r] for r in self.rows])

    def scale(self, s) -> "SpinMatrix":
        s = _gr(s) if not isinstance(s, (int, Fraction)) else s
        return SpinMatrix([[a * s for a in r] for r in self.rows])

    def __matmul__(self, other: "SpinMatrix") -> "SpinMatrix":
        rows = []
        for i in range(4):
            row = []
            for j in range(4):
                acc = GR_ZERO
                for k in range(4):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            rows.append(row)
        return SpinMatrix(rows)

    def dagger(self) -> "SpinMatrix":
        return SpinMatrix([[self.rows[j][i].conjugate() for j in range(4)]
                           for i in range(4)])

    def trace(self) -> GaussianRational:
        t = GR_ZERO
        for i in range(4):
            t = t + self.rows[i][i]
        return t

    def column(self, j: int) -> tuple:
        return tuple(self.rows[i][j] for i in range(4))

    def apply(self, v: Sequence[GaussianRational]) -> tuple:
        return tuple(sum((self.rows[i][k] * v[k] for k in range(4)),
                         start=GR_ZERO) for i in range(4))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpinMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def to_complex(self) -> list[list[complex]]:
        return [[complex(x) for x in r] for r in self.rows]

    def __repr__(self) -> str:
        return "SpinMatrix(" + "; ".join(
            " ".join(repr(x) for x in r) for r in self.rows) + ")"


_I = GR_I
_PAULI = (
    ((GR_ZERO, GR_ONE), (GR_ONE, GR_ZERO)),
    ((GR_ZERO, -_I), (_I, GR_ZERO)),
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


def dirac_adjoint(m: SpinMatrix) -> SpinMatrix:
    """Adjoint with respect to the signature-(2,2) form: gamma^0 m+ gamma^0."""
    return GAMMA[0] @ m.dagger() @ GAMMA[0]


@dataclass(frozen=True, slots=True)
class OnShellMomentum:
    """Covariant spatial momentum components with mass and on-shell energy.

    ``energy`` is exact (a Fraction) when m^2+|p|^2 is a perfect rational
    square, else it is carried as the squared value with exact radical
    arithmetic happening downstream.
    """

    spatial: tuple
    mass: Fraction
    energy_sq: Fraction

    @staticmethod
    def make(spatial, mass) -> "OnShellMomentum":
        spatial = tuple(F(x) for x in spatial)
        mass = F(mass)
        if mass < 0:
            raise GammaError("mass must be nonnegative")
        esq = mass * mass + sum(x * x for x in spatial)
        return OnShellMomentum(spatial, mass, esq)

    @property
    def energy_exact(self) -> Fraction | None:
        c, d = canonical_sqrt(self.energy_sq)
        return c if d == 1 else None

    @property
    def energy_float(self) -> float:
        return float(self.energy_sq) ** 0.5

    def energy_scalar(self) -> ScalarExpr:
        return ScalarExpr.energy(self.energy_sq)


def slash_spatial(p: OnShellMomentum) -> SpinMatrix:
    """p_i gamma^i (spatial part of the slash)."""
    m = SpinMatrix.zero()
    for i in range(3):
        if p.spatial[i]:
            m = m + GAMMA[i + 1].scale(p.spatial[i])
    return m


def slash(p: OnShellMomentum) -> SpinMatrix:
    """p_lambda gamma^lambda; requires a rational on-shell energy."""
    e = p.energy_exact
    if e is None:
        raise GammaError("slash needs a rational on-shell energy; "
                         "use the symbolic field layer otherwise")
    return GAMMA[0].scale(e) + slash_spatial(p)


def boost_parts(p: OnShellMomentum) -> tuple[Fraction | None, SpinMatrix]:
    """(D, M) with K = M / sqrt(D); D is None when the energy is irrational
    (callers then use ScalarExpr.boost_weight with the energy square)."""
    if p.mass == 0:
        raise MasslessMomentumError("boost matrix is singular at zero mass")
    e = p.energy_exact
    if e is None:
        return None, None
    d = 2 * p.mass * (e + p.mass)
    m = SpinMatrix.identity().scale(p.mass + e) + slash_spatial(p) @ GAMMA[0]
    return d, m


def boost_K(p: OnShellMomentum) -> SpinMatrix | list[list[complex]]:
    """The momentum dressing K(p).

    Exact SpinMatrix when sqrt(2m(E+m)) is rational; otherwise a complex
    float matrix (tolerance 1e-12 checks apply downstream).
    """
    if p.mass == 0:
        raise MasslessMomentumError("boost matrix is singular at zero mass")
    e = p.energy_exact
    if e is not None:
        d, m = boost_parts(p)
        c, rad = canonical_sqrt(F(1) / d)
        if rad == 1:
            return m.scale(c)
    return boost_K_float(p)


def boost_K_float(p: OnShellMomentum) -> list[list[complex]]:
    if p.mass == 0:
        raise MasslessMomentumError("boost matrix is singular at zero mass")
    e = p.energy_float
    m = float(p.mass)
    pref = (2.0 * m * (e + m)) ** -0.5
    base = SpinMatrix.identity().scale(F(1))
    mat = [[complex(x) * (m + e) for x in r] for r in base.rows]
    sg = (slash_spatial(p) @ GAMMA[0]).to_complex()
    return [[pref * (mat[i][j] + sg[i][j]) for j in range(4)] for i in range(4)]


def boost_K_inverse_parts(p: OnShellMomentum) -> tuple[Fraction | None, SpinMatrix]:
    """(D, M') with K^-1 = M'/sqrt(D); M' = gamma^0 M gamma^0."""
    d, m = boost_parts(p)
    if m is None:
        return None, None
    return d, GAMMA[0] @ m @ GAMMA[0]


def shell_projectors(p: OnShellMomentum) -> tuple[SpinMatrix, SpinMatrix]:
    """(m 1 +/- slash(p)) / 2m, exact; rational energy required."""
    if p.mass == 0:
        raise MasslessMomentumError("shell projectors are singular at zero mass")
    s = slash(p)
    half = F(1, 2) / p.mass
    ident = SpinMatrix.identity().scale(p.mass)
    return ((ident + s).scale(half), (ident - s).scale(half))


def shell_projectors_float(p: OnShellMomentum) -> tuple[list, list]:
    """Float projectors for momenta with irrational on-shell energy."""
    if p.mass == 0:
        raise MasslessMomentumError("shell projectors are singular at zero mass")
    e = p.energy_float
    sl = [[complex(x) for x in r] for r in slash_spatial(p).rows]
    for i in range(4):
        sl[i][i] += e * complex(GAMMA[0].rows[i][i])
    m = float(p.mass)
    plus = [[((m if i == j else 0.0) + sl[i][j]) / (2 * m) for j in range(4)]
            for i in range(4)]
    minus = [[((m if i == j else 0.0) - sl[i][j]) / (2 * m) for j in range(4)]
             for i in range(4)]
    return plus, minus


@dataclass(frozen=True, slots=True)
class DiracFrame:
    """Columns of K(p) applied to the rest frame basis: u spans the
    positive shell, v the negative one.  Columns carry the common
    1/sqrt(radicand) prefactor separately to stay exact."""

    radicand: Fraction
    u: tuple  # two 4-component columns
    v: tuple


def dirac_frame(p: OnShellMomentum) -> DiracFrame:
    d, m = boost_parts(p)
    if m is None:
        raise GammaError("dirac_frame needs a rational on-shell energy")
    return DiracFrame(d, (m.column(0), m.column(1)), (m.column(2), m.column(3)))


def slash_symbolic(p: OnShellMomentum) -> list[list[ScalarExpr]]:
    """p_lambda gamma^lambda with the energy kept as an exact radical."""
    e = p.energy_scalar()
    out = [[ScalarExpr.zero() for _ in range(4)] for _ in range(4)]
    sp = slash_spatial(p)
    for i in range(4):
        for j in range(4):
            out[i][j] = e * ScalarExpr.gaussian(GAMMA[0].rows[i][j]) + \
                ScalarExpr.gaussian(sp.rows[i][j])
    return out


def shell_projector_symbolic(p: OnShellMomentum, sign: int) -> list[list[ScalarExpr]]:
    """(m 1 + sign * slash(p)) / 2m as exact scalar entries, any energy."""
    if p.mass == 0:
        raise MasslessMomentumError("shell projectors are singular at zero mass")
    sl = slash_symbolic(p)
    half = ScalarExpr.rational(F(1, 2) / p.mass)
    out = []
    for i in range(4):
        row = []
        for j in range(4):
            diag = ScalarExpr.rational(p.mass) if i == j else ScalarExpr.zero()
            entry = (diag + (sl[i][j] if sign > 0 else -sl[i][j])) * half
            row.append(entry)
        out.append(row)
    return out
