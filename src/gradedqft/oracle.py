"""Truncated Fock-space oracle: explicit matrices for the generators.

Every (sector, mode, ladder family, internal index) combination occupies
one slot, and a basis state is one occupation per slot.  Fermionic slots
are 2-dimensional and carry a Jordan-Wigner sign over the preceding
fermionic slots, so the matrix algebra reproduces the Koszul signs of the
symbolic kernel by construction.  Bosonic slots hold occupations
0..n_max with unnormalised ladders (emission weight 1, absorption weight
n, times the metric weight eta for gauge slots), which keeps every matrix
entry an exact small integer; states whose occupation can climb past the
cutoff are masked out of comparisons.

A generator sends each basis state to at most one other, so it is held
as a monomial matrix ``(rows, weights)``: column c maps to row rows[c]
with factor weights[c], which is 0 where the ladder leaves the truncated
space.  A word is composed in O(dim) per letter, and an expression is
kept as its nonzero entries: int64 keys ``row * dim + col`` with summed
complex values.  Residuals compare two such entry sets on the safe
subspace, so memory grows as dim x slots, never dim^2, and no dense
matrix is ever built.  Nothing here uses the symbolic canonicaliser;
only the symbolic side of `product_residual` calls `koszul_product`,
while its other side composes every word pair of the two factors.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import ABSORB, EMIT, SECTORS, UPPER, GradedExpr, OpGen
from .fields import ModeLattice
from .gammas import METRIC


class OracleError(Exception):
    pass


def _family(gen: OpGen) -> str:
    if SECTORS[gen.sector][1]:  # real sector: one family
        return "p"
    part = (gen.species == ABSORB) == (gen.position == UPPER)
    return "p" if part else "a"


def slot_key(gen: OpGen) -> tuple:
    return (gen.sector, gen.mode, _family(gen), gen.internal)


@dataclass(frozen=True)
class Slot:
    key: tuple
    fermionic: bool
    dim: int
    eta: int  # contraction weight of the slot (gauge: g_{lam lam})


@dataclass(frozen=True)
class OracleSpace:
    slots: tuple
    index: dict
    dimension: int
    n_max: int

    @staticmethod
    def make(lattice: ModeLattice, sectors=("scalar",), n_max: int = 3,
             cap: int = 4096, scalar_dim: int | None = None,
             lie_dim: int | None = None) -> "OracleSpace":
        """Enumerate slots for the requested operator sectors."""
        sdim = scalar_dim if scalar_dim is not None else lattice.scalar_dim
        ldim = lie_dim if lie_dim is not None else lattice.lie_dim
        keys: list[tuple[tuple, bool, int]] = []
        for sector in sectors:
            parity, real = SECTORS[sector]
            fermionic = parity == 1
            for mode in lattice.modes:
                if sector in ("scalar", "fermion"):
                    for a in range(sdim):
                        for fam in ("p", "a"):
                            keys.append(((sector, mode.id, fam, (a,)), fermionic, 1))
                elif sector in ("dirac_particle", "dirac_antiparticle"):
                    fam = "p" if sector == "dirac_particle" else "a"
                    for a in range(2):
                        keys.append(((sector, mode.id, fam, (a,)), True, 1))
                elif sector == "ghost":
                    for li in range(ldim):
                        keys.append(((sector, mode.id, "p", (li,)), True, 1))
                elif sector == "antighost":
                    for li in range(ldim):
                        keys.append(((sector, mode.id, "a", (li,)), True, 1))
                elif sector == "gauge":
                    for lam in range(4):
                        for li in range(ldim):
                            keys.append(((sector, mode.id, "p", (lam, li)), False,
                                         int(METRIC[lam])))
                else:
                    raise OracleError(f"sector {sector!r} has no oracle slots")
        keys.sort(key=lambda k: k[0])
        slots = tuple(Slot(k, f, 2 if f else n_max + 1, eta)
                      for k, f, eta in keys)
        dim = 1
        for s in slots:
            dim *= s.dim
        if dim > cap:
            raise OracleError(f"oracle dimension {dim} exceeds cap {cap}")
        index = {s.key: i for i, s in enumerate(slots)}
        return OracleSpace(slots, index, dim, n_max)

    @cached_property
    def _occupations(self) -> np.ndarray:
        occ = np.zeros((self.dimension, len(self.slots)), dtype=np.int64)
        reps = self.dimension
        for j, s in enumerate(self.slots):
            reps //= s.dim
            pattern = np.repeat(np.arange(s.dim), reps)
            occ[:, j] = np.tile(pattern, self.dimension // (s.dim * reps))
        occ.flags.writeable = False
        return occ

    def occupations(self) -> np.ndarray:
        """(dimension, n_slots) occupation table, slot 0 most significant;
        built once per space and read-only."""
        return self._occupations

    @cached_property
    def _monomials(self) -> dict:
        return {}

    def monomial(self, gen: OpGen) -> tuple:
        """The monomial form ``(rows, weights)`` of one generator (see
        `_monomial`); built once per space and read-only."""
        m = self._monomials.get(gen)
        if m is None:
            m = self._monomials[gen] = _monomial(self, gen)
        return m

    def safe_mask(self, climb=1) -> np.ndarray:
        """States whose bosonic occupations stay within the cutoff after
        raising ``climb`` quanta in every slot, or ``climb[j]`` quanta in
        slot j when ``climb`` is one count per slot."""
        bosonic = [j for j, s in enumerate(self.slots) if not s.fermionic]
        limit = self.n_max - np.broadcast_to(climb, (len(self.slots),))[bosonic]
        return np.all(self.occupations()[:, bosonic] <= limit, axis=1)


def _monomial(space: OracleSpace, gen: OpGen) -> tuple:
    """(rows, weights) of one elementary generator: column c maps to row
    rows[c] with factor weights[c]."""
    key = slot_key(gen)
    if key not in space.index:
        raise OracleError(f"generator {gen!r} has no slot in this space")
    j = space.index[key]
    s = space.slots[j]
    occ = space.occupations()
    n = occ[:, j]
    stride = math.prod(t.dim for t in space.slots[j + 1:])
    cols = np.arange(space.dimension)
    if gen.species == EMIT:
        live = n < s.dim - 1
        rows = np.where(live, cols + stride, cols)
        weights = live.astype(np.float64)
    else:
        rows = np.where(n > 0, cols - stride, cols)
        weights = (n * s.eta).astype(np.float64)
    if s.fermionic:
        earlier = [i for i, t in enumerate(space.slots[:j]) if t.fermionic]
        weights *= 1 - 2 * (occ[:, earlier].sum(axis=1) & 1)
    rows.flags.writeable = weights.flags.writeable = False
    return rows, weights


def _entries(terms, space: OracleSpace) -> tuple:
    """Nonzero entries of sum_i c_i M(word_i) over ``terms``, an iterable
    of (word, complex c) pairs: sorted unique int64 keys ``row * dim +
    col`` and their complex values.

    Each word is composed right to left on the monomial forms of its
    letters.  Entries are summed in word order, so every value is
    accumulated exactly as a dense ``total[rows, cols] += ...`` would."""
    dim = space.dimension
    cols = np.arange(dim)
    keys = [np.zeros(0, dtype=np.int64)]
    values = [np.zeros(0, dtype=np.complex128)]
    for word, c in terms:
        rows, w = cols, np.ones(dim)
        for g in reversed(word):
            gr, gw = space.monomial(g)
            w = w * gw[rows]
            rows = gr[rows]
        nz = np.flatnonzero(w)
        keys.append(rows[nz] * dim + nz)
        values.append(c * w[nz])
    uniq, slot = np.unique(np.concatenate(keys), return_inverse=True)
    total = np.zeros(len(uniq), dtype=np.complex128)
    np.add.at(total, slot, np.concatenate(values))
    return uniq, total


def _evaluated(e: GradedExpr, bindings) -> list:
    """The (word, complex coefficient) pairs of ``e``."""
    return [(word, complex(coeff.evaluate(bindings)))
            for word, coeff in e.terms.items()]


def _climb(e: GradedExpr, space: OracleSpace) -> np.ndarray:
    """Per slot, the most bosonic quanta one word of ``e`` emits into it:
    no intermediate state of that word climbs higher."""
    worst = np.zeros(len(space.slots), dtype=np.int64)
    for word in e.terms:
        emitted = Counter(slot_key(g) for g in word
                          if g.species == EMIT and SECTORS[g.sector][0] == 0)
        for key, k in emitted.items():
            j = space.index[key]
            worst[j] = max(worst[j], k)
    return worst


def _compared_mask(space: OracleSpace, climb: np.ndarray) -> np.ndarray:
    """Safe states for a per-slot climb of at least one quantum; an empty
    safe subspace compares nothing, which is an error, not a pass."""
    climb = np.maximum(climb, 1)
    mask = space.safe_mask(climb)
    if not mask.any():
        raise OracleError(f"a word climbs {int(climb.max())} quanta into one "
                          f"slot with n_max={space.n_max}: the safe subspace "
                          "is empty and nothing would be compared")
    return mask


def _max_abs_difference(first: tuple, second: tuple, mask: np.ndarray,
                        dim: int) -> float:
    """Max-abs entry of the difference of two entry sets, over the keys
    whose row and column both lie in ``mask``; a key held by one side only
    counts against zero, and 0.0 when no key survives the mask."""
    def kept(keys, values):
        keep = mask[keys // dim] & mask[keys % dim]
        return keys[keep], values[keep]
    k1, v1 = kept(*first)
    k2, v2 = kept(*second)
    keys = np.union1d(k1, k2)
    diff = np.zeros(len(keys), dtype=np.complex128)
    diff[np.searchsorted(keys, k1)] = v1
    diff[np.searchsorted(keys, k2)] -= v2
    return float(np.max(np.abs(diff), initial=0.0))


def residual(symbolic: GradedExpr, reference: GradedExpr,
             space: OracleSpace, bindings=None) -> float:
    """Max-abs entry of the operator difference on the safe subspace."""
    first = _entries(_evaluated(symbolic, bindings), space)
    second = _entries(_evaluated(reference, bindings), space)
    mask = _compared_mask(space, np.maximum(_climb(symbolic, space),
                                            _climb(reference, space)))
    return _max_abs_difference(first, second, mask, space.dimension)


def product_residual(a: GradedExpr, b: GradedExpr, space: OracleSpace,
                     bindings=None) -> float:
    """Homomorphism defect: the entries of a *phys* b against the
    composition of every word pair (wa, wb) of ``a`` and ``b``."""
    from .algebra import koszul_product
    prod = koszul_product(a, b, "physical")
    right = _evaluated(b, bindings)
    pairs = [(wa + wb, ca * cb) for wa, ca in _evaluated(a, bindings)
             for wb, cb in right]
    composed = _entries(pairs, space)
    symbolic = _entries(_evaluated(prod, bindings), space)
    mask = _compared_mask(space, _climb(a, space) + _climb(b, space))
    return _max_abs_difference(symbolic, composed, mask, space.dimension)
