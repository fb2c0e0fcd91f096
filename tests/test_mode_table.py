"""The per-lattice mode table: mode rows, Dirac dressings, field expansions
and propagator sums are built once per lattice and are the same values a
fresh lattice builds."""

import gc
import pickle
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from gradedqft import fields
from gradedqft.cli import load_config, run_verify
from gradedqft.fields import (
    FieldError,
    FieldPoint,
    LatticeError,
    ModeLattice,
    conj_C_field,
    conjugate_field,
    dirac_dressing,
    field,
    propagator_D,
    star_field,
)
from gradedqft.gammas import SpinMatrix

F = Fraction

_MOMENTA = [(1, 0, 0), (-1, 0, 0), (0, 2, -1), (0, -2, 1)]
_MASSES = {"scalar": 2, "fermion": 1, "dirac": F(3, 2)}
_COMPONENTS = {"scalar": 1, "fermion": 0, "dirac": 3, "gauge": (2, 1), "ghost": 1}
_POINTS = {
    "symbolic": FieldPoint.make("t", "x"),
    "concrete": FieldPoint.make(F(1, 2), (1, 0, F(-1, 3))),
}


def lattice(momenta=_MOMENTA):
    return ModeLattice.make(momenta, _MASSES, scalar_dim=2, lie_dim=2)


@pytest.mark.parametrize("point", sorted(_POINTS))
@pytest.mark.parametrize("kind,sector", sorted(fields._EXPANSIONS))
def test_memoised_expansion_equals_a_fresh_build(kind, sector, point):
    lat, x = lattice(), _POINTS[point]
    component = _COMPONENTS[sector]
    first = fields._expand(kind, sector, component, x, lat)
    again = fields._expand(kind, sector, component, x, lat)
    fresh = fields._expand(kind, sector, component, x, lattice())
    assert again is first
    assert again == fresh and not fresh.is_zero()


def test_field_and_star_field_at_one_point_differ():
    lat, x = lattice(), _POINTS["symbolic"]
    f = field("scalar", 0, x, lat)
    s = star_field("scalar", 0, x, lat)
    assert f != s
    assert field("scalar", 0, x, lat) is f
    assert star_field("scalar", 0, x, lat) is s


def test_repeated_requests_return_the_identical_value():
    lat, x = lattice(), _POINTS["symbolic"]
    assert field("dirac", 2, x, lat) is field("dirac", 2, x, lat)
    mode = lat.modes[2]
    assert dirac_dressing(lat, mode) is dirac_dressing(lat, mode)
    pts = [(1, x), (-1, FieldPoint.make("t2", "y"))]
    assert propagator_D(1, pts, lat, "ghost", deriv=2) is \
        propagator_D(1, tuple(pts), lat, "ghost", deriv=2)
    assert propagator_D(1, pts, lat, "ghost") != propagator_D(-1, pts, lat, "ghost")


#: the four constructors, each on a sector it builds
_JET_FIELDS = {
    "field": lambda x, lat, jet: field("gauge", (2, 1), x, lat, jet),
    "conjugate_field": lambda x, lat, jet: conjugate_field("dirac", 3, x, lat, jet),
    "star_field": lambda x, lat, jet: star_field("scalar", 1, x, lat, jet),
    "conj_C_field": lambda x, lat, jet: conj_C_field("fermion", 0, x, lat, True, jet),
}


@pytest.mark.parametrize("ctor", sorted(_JET_FIELDS))
def test_a_jet_is_built_once_in_any_order(ctor):
    lat, x = lattice(), _POINTS["symbolic"]
    make = _JET_FIELDS[ctor]
    assert make(x, lat, (1, 0)) is make(x, lat, (0, 1))
    assert make(x, lat, (3, 0, 3)) is make(x, lat, (3, 3, 0))
    assert make(x, lat, (1, 0)) is not make(x, lat, (1,))


@pytest.mark.parametrize("ctor", sorted(_JET_FIELDS))
def test_a_one_index_jet_is_the_derivative_of_each_coefficient(ctor):
    lat, x = lattice(), _POINTS["symbolic"]
    make = _JET_FIELDS[ctor]
    plain = make(x, lat, ())
    assert make(x, lat, (0,)) == plain.map_coeff(lambda c: c.d_dt("t"))
    for i in range(3):
        want = plain.map_coeff(lambda c: c.d_dx("x", i))
        assert make(x, lat, (i + 1,)) == want and not want.is_zero()


@pytest.mark.parametrize("jet,point,message", [
    ((4,), "symbolic", "derivative index 4 is outside 0..3"),
    ((0, -1), "symbolic", "derivative index -1 is outside 0..3"),
    (("t",), "symbolic", "derivative index 't' is outside 0..3"),
    ((0,), "concrete", "time derivative needs a symbolic time"),
    ((2,), "concrete", "space derivative needs a symbolic position"),
])
def test_a_bad_jet_raises_on_every_call(jet, point, message):
    lat, x = lattice(), _POINTS[point]
    for make in _JET_FIELDS.values():
        for _ in range(2):
            with pytest.raises(FieldError) as info:
                make(x, lat, jet)
            assert str(info.value) == message


def test_dressing_is_immutable():
    lat = lattice()
    for m in dirac_dressing(lat, lat.modes[2]):
        assert isinstance(m, SpinMatrix)
        assert isinstance(m.rows, tuple) and all(isinstance(r, tuple) for r in m.rows)
        with pytest.raises(AttributeError):
            m.rows = ()


def test_gauge_component_as_a_list_shares_the_tuple_entry():
    lat, x = lattice(), _POINTS["symbolic"]
    from_list = field("gauge", [2, 1], x, lat)
    assert from_list is field("gauge", (2, 1), x, lat)


@pytest.mark.parametrize("sector,component", [
    ("scalar", 2), ("dirac", 4), ("ghost", 2), ("gauge", (4, 0)), ("gauge", [0, 2]),
])
def test_out_of_range_component_raises_on_every_call(sector, component):
    lat, x = lattice(), _POINTS["symbolic"]
    for _ in range(2):
        with pytest.raises(FieldError, match="outside"):
            field(sector, component, x, lat)


def test_zero_mode_in_a_massless_sector_raises_on_every_call():
    lat = lattice([(0, 0, 0), (1, 0, 0)])
    zero = lat.modes[0]
    for _ in range(2):
        with pytest.raises(LatticeError, match="zero mode"):
            lat.energy_sq("ghost", zero)
        with pytest.raises(LatticeError, match="zero mode"):
            field("ghost", 0, _POINTS["symbolic"], lat)
        with pytest.raises(LatticeError, match="zero mode"):
            propagator_D(1, [(1, _POINTS["symbolic"])], lat, "gauge")
    # the massive sectors of the same lattice still build
    assert lat.energy_sq("scalar", zero) == 4


def test_equal_lattices_stay_equal_after_one_is_used():
    used, fresh = lattice(), lattice()
    field("dirac", 0, _POINTS["symbolic"], used)
    propagator_D(-1, [(1, _POINTS["concrete"])], used, "scalar", deriv=0)
    assert used == fresh and pickle.dumps(used) == pickle.dumps(fresh)


def test_a_used_lattice_is_freed_without_the_cycle_collector():
    lat, x = lattice(), _POINTS["symbolic"]
    field("dirac", 1, x, lat)
    field("gauge", (0, 1), x, lat)
    propagator_D(1, [(1, x)], lat, "ghost", deriv=1)
    ref = weakref.ref(lat)
    gc.disable()
    try:
        del lat
        assert ref() is None
    finally:
        gc.enable()


def test_masses_are_read_only():
    lat = lattice()
    with pytest.raises(TypeError):
        lat.masses["scalar"] = F(5)
    assert lat.mass("scalar") == 2
    rebuilt = ModeLattice.make([m.momentum for m in lat.modes], lat.masses,
                               scalar_dim=lat.scalar_dim, lie_dim=1)
    assert dict(rebuilt.masses) == dict(lat.masses)
    # a mapping handed to the constructor is copied, not adopted
    masses = dict(lat.masses)
    direct = ModeLattice(lat.modes, masses)
    masses["scalar"] = F(7)
    assert direct.mass("scalar") == 2


def test_dirac_and_functionals_build_each_mode_datum_once(monkeypatch):
    """Counts work, not time: one boost per (lattice, mode) and one mode
    row per (lattice, sector, mode) over a whole verify run."""
    from gradedqft import cli, identities
    monkeypatch.setattr(cli, "_worker_count", lambda jobs: 1)
    boosts, rows, alive, building = Counter(), Counter(), [], []
    dressing, build_boost = fields.dirac_dressing, fields.boost
    build_row = fields._mode_row

    def tracked_dressing(lat, mode):
        alive.append(lat)  # keeps id(lat) unique for the whole run
        building.append((id(lat), mode))
        try:
            return dressing(lat, mode)
        finally:
            building.pop()

    def counted_boost(p):
        boosts[building[-1]] += 1
        return build_boost(p)

    def counted_row(lat, fsector, mode):
        alive.append(lat)
        rows[id(lat), fsector, mode] += 1
        return build_row(lat, fsector, mode)

    for module in (fields, identities):
        monkeypatch.setattr(module, "dirac_dressing", tracked_dressing)
    monkeypatch.setattr(fields, "boost", counted_boost)
    monkeypatch.setattr(fields, "_mode_row", counted_row)
    report = run_verify(load_config(None), ["dirac", "functionals"])
    assert report["failed"] == 0
    assert boosts and max(boosts.values()) == 1
    assert rows and max(rows.values()) == 1
