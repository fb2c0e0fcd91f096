"""Truncated Fock-space oracle: explicit matrices for the generators.

Every (sector, mode, ladder family, internal index) combination occupies
one slot.  Fermionic slots are 2-dimensional with Jordan-Wigner strings
over the preceding fermionic slots, so the matrix algebra reproduces the
Koszul signs of the symbolic kernel by construction.  Bosonic slots hold
occupations 0..n_max with unnormalised ladders (creation entries 1,
annihilation entries n, and the metric weight eta for gauge slots), which
keeps every matrix entry an exact small integer; states whose occupation
can climb past the cutoff are masked out of comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import ABSORB, EMIT, SECTORS, UPPER, GradedExpr, OpGen
from .fields import ModeLattice
from .gammas import METRIC

F = Fraction


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

    def occupations(self) -> np.ndarray:
        """(dimension, n_slots) occupation table, slot 0 most significant."""
        occ = np.zeros((self.dimension, len(self.slots)), dtype=np.int64)
        reps = self.dimension
        for j, s in enumerate(self.slots):
            reps //= s.dim
            pattern = np.repeat(np.arange(s.dim), reps)
            occ[:, j] = np.tile(pattern, self.dimension // (s.dim * reps))
        return occ

    def safe_mask(self, climb: int = 1) -> np.ndarray:
        """States whose bosonic occupations stay below cutoff after
        raising at most ``climb`` quanta per slot."""
        occ = self.occupations()
        mask = np.ones(self.dimension, dtype=bool)
        for j, s in enumerate(self.slots):
            if not s.fermionic:
                mask &= occ[:, j] <= self.n_max - climb
        return mask


def build_operator(space: OracleSpace, gen: OpGen) -> np.ndarray:
    """Kronecker-factor matrix of one elementary generator."""
    key = slot_key(gen)
    if key not in space.index:
        raise OracleError(f"generator {gen!r} has no slot in this space")
    j = space.index[key]
    mats = []
    for i, s in enumerate(space.slots):
        if i == j:
            d = s.dim
            m = np.zeros((d, d), dtype=np.complex128)
            if gen.species == EMIT:
                for n in range(d - 1):
                    m[n + 1, n] = 1.0
            else:
                for n in range(d - 1):
                    m[n, n + 1] = (n + 1) * s.eta
            mats.append(m)
        elif s.fermionic and i < j and space.slots[j].fermionic:
            mats.append(np.diag([1.0, -1.0]).astype(np.complex128))
        else:
            mats.append(np.eye(s.dim, dtype=np.complex128))
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def represent(e: GradedExpr, space: OracleSpace, bindings=None) -> np.ndarray:
    """Matrix of a graded expression; coefficients must evaluate."""
    total = np.zeros((space.dimension, space.dimension), dtype=np.complex128)
    cache: dict[OpGen, np.ndarray] = {}
    for word, coeff in e.terms.items():
        m = np.eye(space.dimension, dtype=np.complex128)
        for g in word:
            if g not in cache:
                cache[g] = build_operator(space, g)
            m = m @ cache[g]
        total += complex(coeff.evaluate(bindings)) * m
    return total


def _climb(e: GradedExpr) -> int:
    worst = 0
    for word in e.terms:
        c = sum(1 for g in word
                if g.species == EMIT and SECTORS[g.sector][0] == 0)
        worst = max(worst, c)
    return worst


def residual(symbolic: GradedExpr, reference: GradedExpr,
             space: OracleSpace, bindings=None) -> float:
    """Max-abs entry of the matrix difference on the safe subspace."""
    mask = space.safe_mask(max(_climb(symbolic), _climb(reference), 1))
    m1 = represent(symbolic, space, bindings)
    m2 = represent(reference, space, bindings)
    diff = (m1 - m2)[np.ix_(mask, mask)]
    return float(np.max(np.abs(diff))) if diff.size else 0.0


def product_residual(a: GradedExpr, b: GradedExpr, space: OracleSpace,
                     bindings=None) -> float:
    """Homomorphism defect: represent(a *phys* b) vs matrix product."""
    from .algebra import koszul_product
    prod = koszul_product(a, b, "physical")
    climb = max(_climb(a) + _climb(b), 1)
    mask = space.safe_mask(climb)
    lhs = represent(prod, space, bindings)
    rhs = represent(a, space, bindings) @ represent(b, space, bindings)
    diff = (lhs - rhs)[np.ix_(mask, mask)]
    return float(np.max(np.abs(diff))) if diff.size else 0.0
