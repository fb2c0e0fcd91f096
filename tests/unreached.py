"""List the functions of ``src/gradedqft`` that no entry point runs.

    PYTHONPATH=src python tests/unreached.py

A ``sys.settrace`` "call" hook records every code object that starts
while the command line runs in this process:

* ``verify`` on the default config (seeds 7, 11 and 23 as JSON, seed 7
  as text), on ``tests/data/lattice4.ini``, ``lattice_frac.ini``,
  ``corrupt.ini`` and ``su3.ini``, and on a custom-Lie JSON config;
* the README's ``eval`` examples and one example of every other
  function of the ``eval`` grammar;
* ``list-identities`` and ``dump-lattice``;
* the two oversize configs and ``lattice4.ini`` with ``--suite oracle``
  (oracle spaces past ``oracle.cap``), which stop with exit status 2.

The process pins itself to one CPU first, so ``verify`` runs every
identity here and forks no untraced worker.  Every other function of
the package is a candidate for deletion, or for a move into the tests
that use it.  The script prints them and exits 1, unless each appears
in ``KEPT`` below with the reason it stays; a ``KEPT`` entry that no
longer names an unreached function fails too, so the list stays exact.
The whole run takes about 14 s on a 2-vCPU host (Python 3.11).  It is
not a ``test_*`` module, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile
import types

DATA = pathlib.Path(__file__).resolve().parent / "data"

#: unreached functions that stay in ``src/``, by qualified name, each
#: with the reason
KEPT = {
    "cli._child": "runs only in a forked verify worker, which a run "
                  "pinned to one CPU never starts",
    "lie.lower_first_index": "the su3 metric's lowered constants: waits for "
                             "the Lie metric through both layers",
    "scalars.ScalarExpr.partial_symbol": "waits for the one check-level "
                                         "result core",
    "scalars.ScalarExpr.conjugate": "the exact boost check gamma0 K+ gamma0 "
                                    "K = 1 that replaces the float one "
                                    "needs it",
    "scalars._phase_neg": "ScalarExpr.conjugate's phase map",
    "scalars.qsum_neg": "ScalarExpr.conjugate's exponent map",
    "scalars.Frozen.__setattr__": "the immutability protocol (assignment "
                                  "and deletion raise), pinned by tests",
    "scalars.Frozen.__reduce__": "the copy and pickle protocol, pinned by "
                                 "tests",
    "scalars.GaussianRational.__reduce__": "a copy or unpickled value is "
                                           "rebuilt from its reduced triple",
    "scalars.ScalarExpr.__reduce__": "a copy or unpickled constant is the "
                                     "interned one",
    "scalars._Key.__reduce__": "a copy or unpickled term key is the "
                               "interned one",
    "fields.ModeLattice.__reduce__": "the copy and pickle protocol of a "
                                     "lattice, whose masses are read-only",
    # value equality and hashing that tier-1 ==, dicts and sets need
    "fields.ModeLattice.__eq__": "tests compare copied lattices",
    "fields.FieldExpr.__eq__": "tests compare fields and their copies",
    "lie.LieData.__eq__": "tests compare Lie data with copies and with the "
                          "reference routines",
    "linear.LinearCombination.__eq__": "tests compare operator and fiber "
                                       "expressions",
    "linear.LinearCombination.__hash__": "tests put expressions in a set",
    "scalars.ScalarExpr.__hash__": "LinearCombination.__hash__ hashes "
                                   "each coefficient",
    "scalars.GaussianRational.__hash__": "tests pin that a real value hashes "
                                         "as the equal int or Fraction",
    "scalars.ModeIndex.__eq__": "tests compare copied lattices and modes",
}

#: generators of so(3), real antisymmetric and so anti-Hermitian: a
#: custom theory.lie that a JSON config can hold
_SO3 = [[[0, 0, 0], [0, 0, -1], [0, 1, 0]],
        [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
        [[0, -1, 0], [1, 0, 0], [0, 0, 0]]]


def _runs(tmp: str) -> list:
    """(argv, expected exit status) of every command-line run."""
    custom = os.path.join(tmp, "so3.json")
    with open(custom, "w") as fh:
        json.dump({"theory": {"lie": _SO3},
                   "run": {"suites": ["equal_time", "bv", "brst"]}}, fh)
    runs = [(["verify", "--seed", s], 0) for s in ("7", "11", "23")]
    runs += [
        (["verify", "--format", "text", "--output",
          os.path.join(tmp, "report.txt")], 0),
        (["verify", "--config", str(DATA / "lattice4.ini")], 0),
        (["verify", "--config", str(DATA / "lattice_frac.ini")], 0),
        (["verify", "--config", str(DATA / "corrupt.ini")], 1),
        (["verify", "--config", str(DATA / "su3.ini")], 1),
        (["verify", "--config", custom], 0),
        (["verify", "--config", str(DATA / "lattice_huge.ini")], 2),
        (["verify", "--config", str(DATA / "scalar_dim_huge.ini")], 2),
        (["verify", "--config", str(DATA / "lattice4.ini"), "--suite",
          "oracle"], 2),
        (["list-identities"], 0),
        (["dump-lattice"], 0),
        (["dump-lattice", "--config", str(DATA / "lattice4.ini")], 0),
    ]
    exprs = [
        "scomm(field(ghost,I,x), conj(ghost,I,y))",
        "S(omega, I)",
        "S(A, J, 2)",
        "scomm(field(scalar,0,x), deriv(conj(scalar,0,y), 0))",
        "scomm(field(dirac,1,x), conj(dirac,2,z))",
        "scomm(field(gauge,0,x), field(gauge,0,y))",
        "normal(prod(absorb(p,0), emit(q,1)))",
        "pprod(absorb(p,0), emit(p,0))",
    ]
    runs += [(["eval", e], 0) for e in exprs]
    runs.append((["eval", "--config", str(DATA / "corrupt.ini"), "S(omega, 0)"], 0))
    runs.append((["eval", "scomm(field(ghost,I,x)"], 2))
    return runs


def _functions(path: str, module: str) -> dict:
    """{(first line, name): qualified name} of every function in the
    source file: class bodies, lambdas and comprehensions left out."""
    with open(path) as fh:
        top = compile(fh.read(), path, "exec")
    out = {}

    def walk(code: types.CodeType, prefix: str) -> None:
        for c in code.co_consts:
            if not isinstance(c, types.CodeType) or c.co_name.startswith("<"):
                continue
            qual = f"{prefix}.{c.co_name}"
            if c.co_flags & 2:  # CO_NEWLOCALS: a function, not a class body
                out[(c.co_firstlineno, c.co_name)] = qual
                walk(c, qual + ".<locals>")
            else:
                walk(c, qual)

    walk(top, module)
    return out


def main() -> int:
    # one CPU: `verify` runs every identity in this process, traced
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    seen: set = set()

    def hook(frame, event, arg):
        seen.add(frame.f_code)

    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(hook)
        try:
            from gradedqft.cli import main as cli_main
            statuses = []
            for argv, want in _runs(tmp):
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    statuses.append((argv, cli_main(argv), want))
        finally:
            sys.settrace(None)
    wrong = [(argv, got, want) for argv, got, want in statuses if got != want]
    for argv, got, want in wrong:
        print(f"{' '.join(argv)}: exit status {got}, expected {want}")
    if wrong:
        return 1

    ran = {(c.co_filename, c.co_firstlineno, c.co_name) for c in seen}
    total, unreached = 0, {}
    package = pathlib.Path(sys.modules["gradedqft"].__file__).parent
    for path in sorted(map(str, package.glob("*.py"))):
        funcs = _functions(path, pathlib.Path(path).stem)
        total += len(funcs)
        for (line, fname), qual in sorted(funcs.items()):
            if (path, line, fname) not in ran:
                unreached[qual] = f"{path}:{line}"
    found = [q for q in unreached if q not in KEPT]
    stale = sorted(set(KEPT) - set(unreached))
    for qual in found:
        print(f"unreached: {qual}  ({unreached[qual]})")
    for qual in stale:
        print(f"KEPT entry {qual} names no unreached function")
    print(f"{len(unreached)} of {total} functions unreached, "
          f"{len(unreached) - len(found)} of them kept")
    return 1 if found or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
