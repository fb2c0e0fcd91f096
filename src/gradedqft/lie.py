"""Internal Lie-algebra data for the gauge sector.

Generators are anti-Hermitian n x n matrices over Gaussian rationals.
``structure_constants`` expands commutators exactly in the given basis
(raising a non-closure error when the expansion has a residual), and
``trace_metric`` computes the one trace form H(X,Y) = Tr(X+ Y) exactly.
On an anti-Hermitian basis H is real, symmetric and positive definite,
and Re Tr(XY) = -H(X,Y), so no second form is stored.  No index is
lowered: the engine contracts every Lie index with delta.

Presets: u(1), su(2) with l_I = -(i/2) sigma_I (structure constants are
the Levi-Civita epsilon), and su(3) in a rescaled Gell-Mann basis whose
eighth generator is -(i/2) diag(1,1,-2); the rescaling keeps every matrix
entry and every structure constant rational, which the exact kernel needs.
`LieData` is frozen and made of tuples, so each preset is built once per
process, on first use, and shared.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Sequence

from .scalars import GR_ZERO, Frozen, GaussianRational

F = Fraction


class LieError(Exception):
    pass


class NonClosureError(LieError):
    """Commutators left the span of the supplied generators."""


Matrix = tuple  # tuple of row-tuples of GaussianRational


def _mat(rows) -> Matrix:
    out = []
    for r in rows:
        row = []
        for x in r:
            if isinstance(x, GaussianRational):
                row.append(x)
            elif isinstance(x, complex):
                row.append(GaussianRational(F(x.real), F(x.imag)))
            else:
                row.append(GaussianRational(F(x)))
        out.append(tuple(row))
    return tuple(out)


def _mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)), start=GR_ZERO)
                       for j in range(n)) for i in range(n))


def _sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _dagger(a: Matrix) -> Matrix:
    n = len(a)
    return tuple(tuple(a[j][i].conjugate() for j in range(n)) for i in range(n))


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return _sub(_mul(a, b), _mul(b, a))


def is_anti_hermitian(a: Matrix) -> bool:
    return _dagger(a) == tuple(tuple(-x for x in r) for r in a)


def _solve_exact(cols: list[list[GaussianRational]],
                 rhss: list[list[GaussianRational]]) -> list:
    """Solve sum_j c_j cols[j] = rhs exactly for every rhs of ``rhss`` by one
    elimination; per rhs, the coefficients or None when there are none."""
    m, k = len(rhss[0]), len(cols)
    aug = [[cols[j][i] for j in range(k)] + [rhs[i] for rhs in rhss]
           for i in range(m)]
    pivots = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, m) if not aug[i][c].is_zero()), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = aug[r][c]
        aug[r] = [x / inv for x in aug[r]]
        for i in range(m):
            if i != r and not aug[i][c].is_zero():
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    out = []
    for col in range(k, k + len(rhss)):
        # inconsistency: a zero row with nonzero rhs
        if any(not aug[i][col].is_zero() for i in range(r, m)):
            out.append(None)
            continue
        sol = [GR_ZERO] * k
        for i, c in enumerate(pivots):
            sol[c] = aug[i][col]
        out.append(sol)
    return out


class LieData(Frozen):
    """Generator basis with derived structure constants and trace form:
    ``constants`` c[I][J][H] and ``metric_h`` Tr(l_I+ l_J) (positive
    definite), both as Fractions.  Two data are equal when all four values
    are."""

    __slots__ = __match_args__ = ("dim_f", "generators", "constants",
                                  "metric_h")

    @property
    def dim(self) -> int:
        return len(self.generators)

    @staticmethod
    def from_generators(generators) -> "LieData":
        gens = tuple(_mat(g) for g in generators)
        if not gens:
            raise LieError("at least one generator is required")
        n = len(gens[0])
        for g in gens:
            if not is_anti_hermitian(g):
                raise LieError("generators must be anti-Hermitian")
        # exact rank check: a generator in the span of the ones before it
        # (for the first one: zero) leaves the structure constants not
        # unique and the trace metric singular
        cols = [[x for r in g for x in r] for g in gens]
        for k in range(len(cols)):
            if _solve_exact(cols[:k], [cols[k]])[0] is not None:
                why = "l_0 is zero" if k == 0 else \
                    f"l_{k} is a combination of the generators before it"
                raise LieError(f"generators must be linearly independent: {why}")
        return LieData(n, gens, structure_constants(gens), trace_metric(gens))


def structure_constants(generators: Sequence[Matrix]) -> tuple:
    """Exact expansion coefficients of [l_J, l_H] in the basis, every
    commutator with J < H solved for in one elimination; the rest follow
    from [l_J, l_J] = 0 and [l_H, l_J] = -[l_J, l_H]."""
    gens = [(_mat(g) if not isinstance(g, tuple) else g) for g in generators]
    d = len(gens)
    cols = [[x for row in g for x in row] for g in gens]
    pairs = [(jj, hh) for jj in range(d) for hh in range(jj + 1, d)]
    rhss = [[x for row in commutator(gens[jj], gens[hh]) for x in row]
            for jj, hh in pairs]
    out = [[[F(0)] * d for _ in range(d)] for _ in range(d)]
    for (jj, hh), sol in zip(pairs, _solve_exact(cols, rhss) if pairs else ()):
        if sol is None:
            raise NonClosureError(
                f"[l_{jj}, l_{hh}] is outside the span of the basis")
        for ii, c in enumerate(sol):
            if c.im != 0:
                raise NonClosureError("structure constants must be real")
            out[ii][jj][hh] = c.re
            out[ii][hh][jj] = -c.re
    return tuple(tuple(tuple(r) for r in plane) for plane in out)


def constant_entries(constants, li: int):
    """(jj, hh, c) over the nonzero structure constants c = c^li_{jj hh}."""
    d = len(constants)
    for jj in range(d):
        for hh in range(d):
            if constants[li][jj][hh]:
                yield jj, hh, constants[li][jj][hh]


def corrupted(lie: LieData, at: tuple) -> LieData:
    """``lie`` with +1 added to c[i][j][h] and -1 to c[i][h][j],
    at = (i, j, h): the index antisymmetry survives, so the damage shows
    only in identities that need the true constants."""
    i, j, h = at
    bad = [[list(row) for row in plane] for plane in lie.constants]
    bad[i][j][h] += 1
    bad[i][h][j] -= 1
    return LieData(lie.dim_f, lie.generators,
                   tuple(tuple(tuple(row) for row in plane) for plane in bad),
                   lie.metric_h)


def trace_metric(generators: Sequence[Matrix]) -> tuple:
    """H_IJ = Tr(l_I+ l_J) = sum conj(l_I rc) (l_J rc) as Fractions: real,
    because ``LieData.from_generators`` admits only anti-Hermitian bases."""
    flat = [[x for row in g for x in row] for g in generators]
    return tuple(tuple(_dot(a, b).re for b in flat)
                 for a in ([x.conjugate() for x in f] for f in flat))


def _dot(a: list, b: list) -> GaussianRational:
    t = GR_ZERO
    for x, y in zip(a, b):
        t = t + x * y
    return t


# --- presets -----------------------------------------------------------

_I = GaussianRational(0, 1)
_MI2 = GaussianRational(0, F(-1, 2))


@functools.cache
def u1() -> LieData:
    return LieData.from_generators([[[_I]]])


@functools.cache
def su2() -> LieData:
    sigma = (
        ((0, 1), (1, 0)),
        ((0, GaussianRational(0, -1)), (GaussianRational(0, 1), 0)),
        ((1, 0), (0, -1)),
    )
    gens = [[[_MI2 * GaussianRational(F(x)) if isinstance(x, int) else _MI2 * x
              for x in row] for row in s] for s in sigma]
    return LieData.from_generators(gens)


@functools.cache
def su3() -> LieData:
    i = GaussianRational(0, 1)
    lam = [
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, -i, 0], [i, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 0, -i], [0, 0, 0], [i, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[0, 0, 0], [0, 0, -i], [0, i, 0]],
        # rescaled eighth direction: sqrt(3) * lambda_8, kept rational
        [[1, 0, 0], [0, 1, 0], [0, 0, -2]],
    ]
    gens = []
    for m in lam:
        gens.append([[_MI2 * (x if isinstance(x, GaussianRational)
                              else GaussianRational(F(x))) for x in row]
                     for row in m])
    return LieData.from_generators(gens)


PRESETS = {"u1": u1, "su2": su2, "su3": su3}
