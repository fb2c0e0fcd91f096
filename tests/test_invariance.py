"""Metamorphic rows: a change of the lattice that the physics does not see
leaves every verdict of `verify` as it was.

A reordering of the lattice momenta and a quarter turn of the lattice
about e3 relabel the modes, so every status and every exact or boolean
residual must stay the same.  A float residual is summed in another
order, so it is compared only against its tolerance.
"""

import json
import pathlib
import re

import pytest

from gradedqft.cli import load_config, run_verify

DATA = pathlib.Path(__file__).parent / "data"

#: a float residual as `CheckResult` renders it
_FLOAT = re.compile(r"^\d\.\d{3}e[+-]\d\d$")


def _within_tolerance(name: str, residual: str) -> bool:
    """The float residual of ``name`` against its bound: the negative
    control must stay at or above its floor, every other check at or
    below 1e-12."""
    value = float(residual)
    return value >= 0.1 if name == "oracle.negative_control" else value <= 1e-12


def _assert_same_verdicts(first: list, second: list) -> None:
    assert [e["identity"] for e in first] == [e["identity"] for e in second]
    for a, b in zip(first, second):
        assert a["status"] == b["status"], a["identity"]
        if _FLOAT.match(a["residual"]):
            assert _FLOAT.match(b["residual"]), a["identity"]
            assert _within_tolerance(a["identity"], a["residual"])
            assert _within_tolerance(b["identity"], b["residual"])
        else:
            assert a["residual"] == b["residual"], a["identity"]


@pytest.mark.parametrize("momenta", [
    [[1, 0, 0], [-1, 0, 0], [0, 0, 0]],
    [[-1, 0, 0], [0, 0, 0], [1, 0, 0]],
], ids=["zero-last", "rotated"])
def test_reordered_default_momenta_keep_every_verdict(momenta):
    cfg = load_config(None)
    assert cfg["lattice"]["momenta"] == [[0, 0, 0], [1, 0, 0], [-1, 0, 0]]
    before = run_verify(cfg)["identities"]
    cfg["lattice"]["momenta"] = momenta
    after = run_verify(cfg)["identities"]
    assert len(after) == 59
    _assert_same_verdicts(before, after)


def test_a_quarter_turn_of_lattice4_reproduces_its_golden_report():
    """The 4-mode lattice {+-e1, +-e2} turned by (x, y, z) -> (-y, x, z):
    every status and residual of `verify_lattice4.json`."""
    cfg = load_config(str(DATA / "lattice4.ini"))
    momenta = cfg["lattice"]["momenta"]
    assert momenta == [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]
    cfg["lattice"]["momenta"] = [[-y, x, z] for x, y, z in momenta]
    turned = run_verify(cfg)["identities"]
    golden = json.loads((DATA / "verify_lattice4.json").read_text())["identities"]
    assert len(turned) == 53

    def verdicts(entries):
        return [(e["identity"], e["status"], e["residual"]) for e in entries]

    assert verdicts(turned) == verdicts(golden)
