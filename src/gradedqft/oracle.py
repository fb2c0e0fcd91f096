"""Truncated Fock-space oracle: explicit matrices for the generators.

Every (sector, mode, ladder family, internal index) combination occupies
one slot, and a basis state is one occupation per slot: a mixed-radix
number, slot 0 most significant, so the occupation of slot j in state c
is ``(c // stride_j) % dim_j``.  Fermionic slots are 2-dimensional and
carry a Jordan-Wigner sign over the preceding fermionic slots, so the
matrix algebra reproduces the Koszul signs of the symbolic kernel by
construction.  Bosonic slots hold occupations 0..n_max with unnormalised
ladders (emission weight 1, absorption weight n, times the metric weight
eta for gauge slots), which keeps every matrix entry an exact small
integer; states whose occupation can climb past the cutoff are left out
of comparisons.

A generator sends each basis state to at most one other, so it is held
as a monomial matrix ``(rows, weights)``: column c maps to row rows[c]
with factor weights[c], which is 0 where the ladder leaves the truncated
space.  A word is composed in O(dim) per letter, over the columns that
its letters have not yet sent to zero, and an expression is kept as its
nonzero entries: a dict from the key ``row * dim + col`` to the summed
complex value.  Residuals compare two such entry sets on the safe
subspace, tested digit by digit on each key, so memory grows as dim x
slots, never dim^2, and no dense matrix is ever built.  Nothing here
uses the symbolic canonicaliser; only the symbolic side of
`product_residual` calls `koszul_product`, while its other side composes
every word pair of the two factors.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import repeat

from .algebra import ABSORB, EMIT, SECTORS, UPPER, GradedExpr, OpGen, koszul_product
from .fields import ModeLattice
from .gammas import METRIC
from .scalars import Frozen


class OracleError(Exception):
    pass


def _family(gen: OpGen) -> str:
    if SECTORS[gen.sector][1]:  # real sector: one family
        return "p"
    part = (gen.species == ABSORB) == (gen.position == UPPER)
    return "p" if part else "a"


def slot_key(gen: OpGen) -> tuple:
    return (gen.sector, gen.mode, _family(gen), gen.internal)


class Slot(Frozen):
    """One mode slot: its key, statistics, dimension and contraction
    weight eta (gauge: g_{lam lam})."""

    __slots__ = __match_args__ = ("key", "fermionic", "dim", "eta")


class OracleSpace(Frozen):
    """The truncated Fock space of some slots of a lattice: state c holds
    (c // strides[j]) % slots[j].dim quanta in slot j."""

    __match_args__ = ("lattice", "slots", "index", "dimension", "n_max", "strides")
    __slots__ = __match_args__ + ("_monomials",)
    __hash__ = None  # the index is a dict

    def __init__(self, *values):
        super().__init__(*values)
        object.__setattr__(self, "_monomials", {})

    @staticmethod
    def make(lattice: ModeLattice, sectors=("scalar",), n_max: int = 3,
             cap: int = 4096) -> "OracleSpace":
        """Enumerate the lattice's slots for the requested operator sectors."""
        sdim, ldim = lattice.scalar_dim, lattice.lie_dim
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
        strides, dim = [], 1
        for s in reversed(slots):
            strides.append(dim)
            dim *= s.dim
        if dim > cap:
            raise OracleError(f"oracle dimension {dim} exceeds cap {cap}")
        index = {s.key: i for i, s in enumerate(slots)}
        return OracleSpace(lattice, slots, index, dim, n_max,
                           tuple(reversed(strides)))

    def monomial(self, gen: OpGen) -> tuple:
        """The monomial form ``(rows, weights)`` of one generator (see
        `_monomial`); built once per space and read-only."""
        m = self._monomials.get(gen)
        if m is None:
            m = self._monomials[gen] = _monomial(self, gen)
        return m


def _monomial(space: OracleSpace, gen: OpGen) -> tuple:
    """(rows, weights) of one elementary generator: column c maps to row
    rows[c] with factor weights[c]; read-only views of int64 and float64
    arrays."""
    key = slot_key(gen)
    if key not in space.index:
        raise OracleError(f"generator {gen!r} has no slot in this space")
    j = space.index[key]
    s, stride = space.slots[j], space.strides[j]
    # per occupation n of slot j: the row shift and the ladder factor
    if gen.species == EMIT:
        ladder = [(stride, 1.0)] * (s.dim - 1) + [(0, 0.0)]
    else:
        ladder = [(0, 0.0)] + [(-stride, float(n * s.eta))
                               for n in range(1, s.dim)]
    # the Jordan-Wigner sign of each joint occupation of the slots before j
    signs = [1.0]
    for t in space.slots[:j]:
        flip = s.fermionic and t.fermionic
        signs = [-sign if flip and n else sign
                 for sign in signs for n in range(t.dim)]
    rows, weights = array("q"), array("d")
    for sign in signs:
        for shift, w in ladder:  # the next `stride` columns share n and sign
            start = len(rows) + shift
            rows.extend(range(start, start + stride))
            weights.extend(array("d", [sign * w]) * stride)
    return memoryview(rows).toreadonly(), memoryview(weights).toreadonly()


def _entries(terms, space: OracleSpace) -> dict:
    """Nonzero entries of sum_i c_i M(word_i) over ``terms``, an iterable
    of (word, complex c) pairs: ``{row * dim + col: value}``.

    Each word is composed right to left on the monomial forms of its
    letters, over its live columns only: a zero weight stays zero, so
    dropping it early is exact.  A word holds each key at most once, and
    values are summed in word order, so every value is accumulated as a
    dense ``total[rows, cols] += ...`` would."""
    dim = space.dimension
    total = {}
    for word, c in terms:
        live = zip(range(dim), range(dim), repeat(1.0))
        for g in reversed(word):
            rows, weights = space.monomial(g)
            live = [(col, rows[r], w * x) for col, r, w in live
                    if (x := weights[r])]
        new = {r * dim + col: c * w for col, r, w in live}
        for key in new.keys() & total.keys():
            new[key] = total[key] + new[key]
        total.update(new)
    return total


def _evaluated(e: GradedExpr, bindings) -> list:
    """The (word, complex coefficient) pairs of ``e``."""
    return [(word, complex(coeff.evaluate(bindings)))
            for word, coeff in e.terms.items()]


def _climb(e: GradedExpr, space: OracleSpace) -> list:
    """Per slot, the most bosonic quanta one word of ``e`` emits into it:
    no intermediate state of that word climbs higher."""
    worst = [0] * len(space.slots)
    for word in e.terms:
        emitted = Counter(slot_key(g) for g in word
                          if g.species == EMIT and SECTORS[g.sector][0] == 0)
        for key, k in emitted.items():
            j = space.index[key]
            worst[j] = max(worst[j], k)
    return worst


def _safe_digits(space: OracleSpace, climb) -> list:
    """The safe subspace for a per-slot climb of at least one quantum, as
    digit tests ``(stride, dim, limit)`` on an entry key: its row and its
    column each hold at most n_max - climb quanta in every bosonic slot.
    The safe subspace is empty exactly when one limit is negative (else
    the state with no quanta is safe); it compares nothing, which is an
    error, not a pass."""
    climb = [max(k, 1) for k in climb]
    row = space.dimension  # the row's digits sit above the column's
    tests = []
    for s, stride, k in zip(space.slots, space.strides, climb):
        if not s.fermionic:
            tests += [(stride * row, s.dim, space.n_max - k),
                      (stride, s.dim, space.n_max - k)]
    if any(limit < 0 for _, _, limit in tests):
        raise OracleError(f"a word climbs {max(climb)} quanta into one "
                          f"slot with n_max={space.n_max}: the safe subspace "
                          "is empty and nothing would be compared")
    return tests


def _safe_keys(keys, tests):
    """Those of the entry ``keys`` that pass every digit test of
    `_safe_digits`."""
    for stride, dim, limit in tests:
        keys = [k for k in keys if k // stride % dim <= limit]
    return keys


def _max_abs_difference(first: dict, second: dict, tests: list) -> float:
    """Max-abs entry of the difference of two entry sets, over the keys
    whose row and column are both safe; a key held by one side only
    counts against zero, and 0.0 when no key is safe."""
    # an entry equal on both sides differs by 0: skip it before the test
    changed = {key for key, _ in first.items() ^ second.items()}
    keys = _safe_keys(changed, tests)
    return max((abs(first.get(k, 0j) - second.get(k, 0j)) for k in keys),
               default=0.0)


def residual(symbolic: GradedExpr, reference: GradedExpr,
             space: OracleSpace, bindings=None) -> float:
    """Max-abs entry of the operator difference on the safe subspace."""
    tests = _safe_digits(space, map(max, _climb(symbolic, space),
                                    _climb(reference, space)))
    first = _entries(_evaluated(symbolic, bindings), space)
    second = _entries(_evaluated(reference, bindings), space)
    return _max_abs_difference(first, second, tests)


def product_residual(a: GradedExpr, b: GradedExpr, space: OracleSpace,
                     bindings=None) -> float:
    """Homomorphism defect: the entries of a *phys* b against the
    composition of every word pair (wa, wb) of ``a`` and ``b``."""
    tests = _safe_digits(space, map(sum, zip(_climb(a, space),
                                             _climb(b, space))))
    prod = koszul_product(a, b, "physical")
    right = _evaluated(b, bindings)
    pairs = [(wa + wb, ca * cb) for wa, ca in _evaluated(a, bindings)
             for wb, cb in right]
    composed = _entries(pairs, space)
    symbolic = _entries(_evaluated(prod, bindings), space)
    return _max_abs_difference(symbolic, composed, tests)
