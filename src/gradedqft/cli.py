"""Command-line driver: config ingestion, verification suites, expression
evaluation and machine-readable reports.

Verbs:

    verify           run the selected suites, write a JSON/text report
    eval             evaluate a mini-grammar expression symbolically
    list-identities  print every registered identity with its anchor
    dump-lattice     print the configured lattices with modes and energies

Reports are deterministic for a fixed (config, seed): entries are sorted
and the per-entry "millis" field stays null unless --timings is given
(wall-clock noise would break byte-identical reruns); they do not depend
on how many forked workers, one per available CPU, ran the identities
(`_run_all`).  The exit status is 0 iff every selected check passed; a
`verify` that selects no suite stops with status 2, since it would check
nothing, and so does one whose oracle spaces exceed oracle.cap.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from fractions import Fraction

from . import bv
from . import lie as lie_mod
from .fields import FieldError, FieldPoint, LatticeError, ModeLattice, \
    conjugate_field, field, propagator_D, propagator_D_total
from .algebra import ABSORB, EMIT, LOWER, UPPER, GradedExpr, OpGen, \
    koszul_product, normal_order, super_bracket
from .identities import RunContext, SUITES, all_identities
from .linear import add_term
from .oracle import OracleError
from .scalars import GaussianRational, ScalarExpr

F = Fraction


class ConfigError(Exception):
    pass


class EvalError(Exception):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"column {pos}: {msg}")
        self.msg = msg
        self.pos = pos


DEFAULT_CONFIG = {
    "run": {"seed": 7, "suites": list(SUITES)},
    "theory": {"lie": "su2", "corrupt_constant": None},
    "lattice": {
        "momenta": [[0, 0, 0], [1, 0, 0], [-1, 0, 0]],
        "masses": {"scalar": 1, "fermion": 1, "dirac": 1},
        "scalar_dim": 2,
        "propagator_momenta": "cube",
    },
    "oracle": {"n_max": 3, "cap": 1024},
}


def _literal(text: str):
    import ast  # INI values only: not on the library's import path
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text.strip()


def load_config(path: str | None) -> dict:
    """Read an INI-style (nested tables) or JSON config file."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path is None:
        return cfg
    if path.endswith(".json"):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
        except OSError as exc:
            raise ConfigError(str(exc))
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: the top level must be a table of "
                              f"sections, got {data!r}")
        for section, table in data.items():
            if section not in cfg:
                raise ConfigError(f"unknown config section {section!r}")
            if not isinstance(table, dict):
                raise ConfigError(f"section {section!r} must be a table")
            for key, value in table.items():
                _set_known(cfg, section, key, value)
        return cfg
    import configparser  # INI files only: not on the library's import path
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(str(exc))
    except OSError as exc:
        raise ConfigError(str(exc))
    for section in parser.sections():
        if section not in cfg:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            _set_known(cfg, section, key, _literal(raw))
    return cfg


def _set_known(cfg: dict, section: str, key: str, value) -> None:
    if key not in cfg[section]:
        raise ConfigError(f"unknown key {key!r} in section [{section}] "
                          f"(have {sorted(cfg[section])})")
    cfg[section][key] = value


def _number(value, what: str) -> Fraction:
    """A config number as an exact rational; a float means the decimal it
    prints as (0.1 is 1/10, not the nearest binary fraction)."""
    if isinstance(value, bool):  # F(True) == 1
        raise ConfigError(f"{what}: expected a number, got {value!r}")
    try:
        return F(repr(value)) if isinstance(value, float) else F(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ConfigError(f"{what}: expected a number, got {value!r}") from None


def _integer(value, what: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{what} must be >= {minimum}, got {value}")
    return value


def _momenta(value, what: str) -> list:
    if not (isinstance(value, (list, tuple))
            and all(isinstance(m, (list, tuple)) for m in value)):
        raise ConfigError(f"{what} must be a list of momentum lists, "
                          f"got {value!r}")
    return [tuple(_number(x, what) for x in m) for m in value]


def _corruption(value, dim: int) -> tuple:
    """theory.corrupt_constant (i, j, h), checked against the Lie algebra:
    j == h would add and remove +1 at the same entry and corrupt nothing."""
    if not (isinstance(value, (list, tuple)) and len(value) == 3
            and all(isinstance(x, int) and not isinstance(x, bool)
                    and 0 <= x < dim for x in value)):
        raise ConfigError("theory.corrupt_constant must be three indices "
                          f"[i, j, h] in range({dim}), got {value!r}")
    if value[1] == value[2]:
        raise ConfigError("theory.corrupt_constant [i, j, h] needs j != h, "
                          f"got {value!r}")
    return tuple(value)


def _lattice(momenta, masses, scalar_dim: int, lie_dim: int, what: str):
    try:
        return ModeLattice.make(momenta, masses, scalar_dim=scalar_dim,
                                lie_dim=lie_dim)
    except LatticeError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _custom_lie(value) -> lie_mod.LieData:
    """theory.lie given as generators: a non-empty list of equal-size square
    matrices of numbers (complex entries allowed)."""
    what = "theory.lie"
    if not (isinstance(value, (list, tuple)) and value
            and isinstance(value[0], (list, tuple)) and value[0]):
        raise ConfigError(f"{what} must be a preset name or a non-empty list of "
                          f"square matrices, got {value!r}")
    n = len(value[0])
    gens = []
    for g in value:
        if not (isinstance(g, (list, tuple)) and len(g) == n and all(
                isinstance(r, (list, tuple)) and len(r) == n for r in g)):
            raise ConfigError(f"{what} must hold square matrices of one size, "
                              f"got {g!r}")
        gens.append([[_gaussian(x, what) for x in r] for r in g])
    try:
        return lie_mod.LieData.from_generators(gens)
    except lie_mod.LieError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def _gaussian(value, what: str) -> GaussianRational:
    if isinstance(value, complex):
        return GaussianRational(_number(value.real, what), _number(value.imag, what))
    return GaussianRational(_number(value, what))


def _cube():
    return [(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1)
            for k in (-1, 0, 1)]


def context_from_config(cfg: dict) -> RunContext:
    theory_cfg = cfg["theory"]
    name = theory_cfg["lie"]
    if isinstance(name, str):
        if name not in lie_mod.PRESETS:
            raise ConfigError(f"unknown Lie preset {name!r} "
                              f"(have {sorted(lie_mod.PRESETS)})")
        data = lie_mod.PRESETS[name]()
    else:
        data = _custom_lie(name)
    lat_cfg = cfg["lattice"]
    momenta = _momenta(lat_cfg["momenta"], "lattice.momenta")
    if not isinstance(lat_cfg["masses"], dict):
        raise ConfigError("lattice.masses must be a table of sector masses, "
                          f"got {lat_cfg['masses']!r}")
    masses = {k: _number(v, f"lattice.masses[{k!r}]")
              for k, v in lat_cfg["masses"].items()}
    scalar_dim = _integer(lat_cfg["scalar_dim"], "lattice.scalar_dim", 1)
    lattice = _lattice(momenta, masses, scalar_dim, data.dim, "lattice")
    nz = [m for m in momenta if any(x != 0 for x in m)]
    for m in nz:
        neg = tuple(-x for x in m)
        if neg not in nz:
            nz.append(neg)
    if not nz:
        raise ConfigError("lattice needs at least one nonzero momentum")
    lattice_nozero = _lattice(nz, masses, scalar_dim, data.dim, "lattice")
    pm = lat_cfg["propagator_momenta"]
    if isinstance(pm, str) and pm != "cube":
        raise ConfigError('lattice.propagator_momenta must be "cube" or a list '
                          f"of momentum lists, got {pm!r}")
    prop_momenta = _cube() if pm == "cube" else \
        _momenta(pm, "lattice.propagator_momenta")
    if not prop_momenta:
        # an empty sum would make every propagator identity compare 0 with 0
        raise ConfigError("lattice.propagator_momenta needs at least one momentum")
    lattice_prop = _lattice(prop_momenta, masses, scalar_dim, data.dim,
                            "lattice.propagator_momenta")
    if not lattice_prop.is_symmetric:
        # the propagator identities pair each mode with its negative
        raise ConfigError("lattice.propagator_momenta must be closed under "
                          "p -> -p")
    corrupt = theory_cfg["corrupt_constant"]
    orc_cfg = cfg["oracle"]
    return RunContext(
        lattice=lattice, lattice_nozero=lattice_nozero, lattice_prop=lattice_prop,
        theory=bv.TheorySpec(data),
        seed=_integer(cfg["run"]["seed"], "run.seed"),
        oracle_n_max=_integer(orc_cfg["n_max"], "oracle.n_max", 1),
        oracle_cap=_integer(orc_cfg["cap"], "oracle.cap", 1),
        corrupt_constant=None if corrupt is None
        else _corruption(corrupt, data.dim))


def _run_one(ident, ctx: RunContext, timings: bool) -> dict:
    """The report entry of one identity."""
    t0 = time.perf_counter()
    try:
        result = ident.run(ctx)
        status, residual = result.status, result.residual
    except Exception as exc:  # a suite failure is reported, not thrown
        status, residual = "error", f"{type(exc).__name__}: {exc}"
    return {
        "identity": ident.name, "anchor": ident.anchor,
        "status": status, "residual": residual,
        "millis": round((time.perf_counter() - t0) * 1000.0, 3)
        if timings else None,
    }


def _worker_count(jobs: int) -> int:
    """Processes to run ``jobs`` identities on: one per CPU this process
    may run on, at most one per identity, and this process alone where
    ``fork`` is missing or unsafe (another thread may hold a lock)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count()
    return max(1, min(cpus or 1, jobs))


#: bytes of one task record: the index of an identity in the chosen list
_RECORD = 4


def _run_all(chosen: list, ctx: RunContext, timings: bool) -> list:
    """The entries of the ``chosen`` identities, one each, in no order.

    `_worker_count` processes share the work: this one and forked
    children.  The indices of all identities go into one pipe before the
    first fork; every worker then reads the next index and runs that
    identity until the pipe is empty, so a long identity holds up only its
    own worker.  A child sends its entries back as JSON on a pipe of its
    own and leaves through ``os._exit``.  Each identity draws only from
    its own ``ctx.rng(tag)``, so the entries do not depend on which worker
    ran what.  Every child is reaped on every path; if this process
    leaves on an exception, it kills its children first."""
    tasks, feed = os.pipe()  # a few hundred bytes, well inside its buffer
    os.write(feed, b"".join(i.to_bytes(_RECORD, "big") for i in range(len(chosen))))
    os.close(feed)

    def drain() -> list:
        entries = []
        while record := os.read(tasks, _RECORD):
            entries.append(_run_one(chosen[int.from_bytes(record, "big")], ctx,
                                    timings))
        return entries

    children = []  # (pid, the read end of its result pipe)
    try:
        for _ in range(_worker_count(len(chosen)) - 1):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(drain, w)
            os.close(w)
            children.append((pid, open(r, "rb")))
        entries = drain()
        while children:
            pid, results = children[-1]
            data = results.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop()
            results.close()
            if code != 0:
                raise RuntimeError(f"verify worker {pid} exited with status {code}")
            try:
                entries += json.loads(data)
            except ValueError:
                raise RuntimeError(f"verify worker {pid} exited with status "
                                   f"{code} but sent malformed entries") from None
    except BaseException:
        import signal  # not at module level: it would add to every start-up
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(tasks)
        for pid, results in children:
            os.waitpid(pid, 0)
            results.close()
    if sorted(e["identity"] for e in entries) != sorted(i.name for i in chosen):
        raise RuntimeError("the verify workers did not report every chosen "
                           "identity exactly once")
    return entries


def _child(drain, out: int) -> None:
    """A forked worker's whole life: run ``drain()``, write its entries to
    the pipe ``out`` and leave without the parent's exit handlers or
    buffered output; a worker that fails exits with status 1."""
    status = 1
    try:
        entries = drain()
        with open(out, "wb") as fh:
            fh.write(json.dumps(entries).encode())
        status = 0
    except BaseException:  # reported by the exit status, never re-raised
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(status)


def run_verify(cfg: dict, suites=None, timings: bool = False) -> dict:
    """Execute the selected suites and assemble the report document."""
    ctx = context_from_config(cfg)
    if suites is None:
        suites = cfg["run"]["suites"]
        if not isinstance(suites, (list, tuple)):
            raise ConfigError("run.suites must be a list of suite names, "
                              f"got {suites!r}")
    suites = list(suites)
    for s in suites:
        if s not in SUITES:
            raise ConfigError(f"unknown suite {s!r} (have {SUITES})")
    selected = [s for s in SUITES if s in suites]  # a repeated name counts once
    if not selected:
        raise ConfigError("nothing to verify: no suite is selected")
    if "oracle" in selected:
        try:
            ctx.oracle_spaces()
        except OracleError as exc:
            raise ConfigError(
                f"{exc} (oracle.cap = {ctx.oracle_cap}, oracle.n_max = "
                f"{ctx.oracle_n_max}): raise oracle.cap or leave \"oracle\" "
                "out of run.suites") from None
    chosen = [ident for ident in all_identities() if ident.suite in selected]
    entries = _run_all(chosen, ctx, timings)
    entries.sort(key=lambda e: e["identity"])
    report = {
        "seed": ctx.seed,
        "suites": sorted(selected),
        "identities": entries,
        "passed": sum(1 for e in entries if e["status"] == "pass"),
        "failed": sum(1 for e in entries if e["status"] != "pass"),
    }
    return report


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    lines = [f"seed {report['seed']}  suites {' '.join(report['suites'])}"]
    for e in report["identities"]:
        mark = "ok  " if e["status"] == "pass" else "FAIL"
        lines.append(f"[{mark}] {e['identity']:<36} residual {e['residual']}")
        lines.append(f"       {e['anchor']}")
    lines.append(f"passed {report['passed']}, failed {report['failed']}")
    return "\n".join(lines) + "\n"


# --- mini expression grammar -------------------------------------------------

class _Tok:
    def __init__(self, kind, text, pos):
        self.kind, self.text, self.pos = kind, text, pos


def _tokenize(src: str):
    toks = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "(),":
            toks.append(_Tok(ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < len(src)
                            and src[i + 1].isdigit()):
            j = i + 1
            while j < len(src) and (src[j].isdigit() or src[j] == "/"):
                j += 1
            toks.append(_Tok("num", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Tok("name", src[i:j], i))
            i = j
            continue
        raise EvalError(f"unexpected character {ch!r}", i)
    toks.append(_Tok("end", "", len(src)))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def next(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t.kind != kind:
            raise EvalError(f"expected {kind!r}, found {t.text or 'end'!r}",
                            t.pos)
        return t

    def parse(self):
        node = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise EvalError(f"trailing input {t.text!r}", t.pos)
        return node

    def expr(self):
        t = self.next()
        if t.kind == "num":
            return ("num", t.text, t.pos)
        if t.kind != "name":
            raise EvalError(f"expected a name or number, found "
                            f"{t.text or 'end'!r}", t.pos)
        if self.peek().kind != "(":
            return ("name", t.text, t.pos)
        self.next()
        args = []
        if self.peek().kind != ")":
            args.append(self.expr())
            while self.peek().kind == ",":
                self.next()
                args.append(self.expr())
        self.expect(")")
        return ("call", t.text, t.pos, args)


_INDEX_NAMES = {"I": 0, "J": 1, "H": 2, "a": 0, "b": 1, "c": 2, "alpha": 0,
                "beta": 1}
_POINTS = {"x": ("t", "x"), "y": ("t2", "y"), "z": ("t3", "z")}
_MODES = {"p": 0, "q": 1, "r": 2}

#: S(...) coordinate -> (TheorySpec method, index bounds from the theory);
#: omitted trailing indices are 0
_S_COORDS = {
    "omega": ("omega", lambda th: (th.d_lie,)),
    "omegabar": ("omegabar", lambda th: (th.d_lie,)),
    "n": ("nl", lambda th: (th.d_lie,)),
    "A": ("a_gauge", lambda th: (th.d_lie, 4)),
    "psi": ("psi", lambda th: (4, th.n_f)),
    "psibar": ("psibar", lambda th: (4, th.n_f)),
}


#: the calls that `Evaluator.field` builds
_FIELD_CALLS = ("field", "conj", "deriv")


def _need(fname: str, pos: int, args: list, n: int) -> None:
    if len(args) != n:
        raise EvalError(f"{fname} takes {n} argument(s), got {len(args)}", pos)


class Evaluator:
    """Evaluate mini-grammar expressions against the configured context."""

    def __init__(self, ctx: RunContext):
        self.ctx = ctx

    def number(self, node) -> Fraction:
        try:
            return Fraction(node[1])
        except ZeroDivisionError:
            raise EvalError(f"division by zero in {node[1]!r}", node[2]) from None
        except ValueError:
            raise EvalError(f"malformed number {node[1]!r}", node[2]) from None

    def point(self, node):
        kind, text, pos = node[:3]
        if kind == "name" and text in _POINTS:
            return FieldPoint.make(*_POINTS[text])
        raise EvalError(f"expected a point name (x, y, z), found {text!r}", pos)

    def integer(self, node, names: dict, noun: str, bound: int | None) -> int:
        """An integer literal or a name from ``names``; when ``bound`` is
        given it must lie in 0..bound-1."""
        kind, text, pos = node[:3]
        if kind == "num" and (value := self.number(node)).denominator == 1:
            value = int(value)
        elif kind == "name" and text in names:
            value = names[text]
        else:
            raise EvalError(f"{text!r} is not a valid {noun}", pos)
        if bound is not None and value not in range(bound):
            raise EvalError(f"{noun} {value} is outside 0..{bound - 1}", pos)
        return value

    def index(self, node, bound: int | None = None) -> int:
        return self.integer(node, _INDEX_NAMES, "index", bound)

    def mode(self, node):
        # the fields are built on the zero-free lattice, and a contraction
        # compares mode ids: the mode names refer to that lattice too
        modes = self.ctx.lattice_nozero.modes
        return modes[self.integer(node, _MODES, "mode", len(modes))]

    def sector(self, node):
        kind, text, pos = node[:3]
        if kind == "name" and text in ("scalar", "fermion", "dirac", "ghost",
                                       "gauge"):
            return text
        raise EvalError(f"unknown sector {text!r}", pos)

    def operator(self, node) -> GradedExpr:
        """Evaluate ``node`` to an operator expression."""
        value = self.eval(node)
        if not isinstance(value, GradedExpr):
            raise EvalError("expected an operator expression", node[2])
        return value

    def eval(self, node):
        kind = node[0]
        if kind == "num":
            return ScalarExpr.rational(self.number(node))
        if kind == "name":
            raise EvalError(f"unknown identifier {node[1]!r}", node[2])
        _, fname, pos, args = node
        if fname in _FIELD_CALLS:
            return self.field(node)[0]
        return self.call(fname, pos, args)

    def field(self, node) -> tuple:
        """The ``field``, ``conj`` or ``deriv`` call ``node`` as (operator
        sum, (make, sector, component, point, jet)), the second the
        arguments of its constructor; a ``deriv`` adds its index to the jet
        of its field.  A FieldError points at the call that raised it."""
        _, fname, pos, args = node
        _need(fname, pos, args, 2 if fname == "deriv" else 3)
        if fname != "deriv":
            sec, idx = self.sector(args[0]), self.index(args[1])
            spec = (field if fname == "field" else conjugate_field, sec,
                    (0, idx) if sec == "gauge" else idx, self.point(args[2]), ())
        elif args[0][0] == "call" and args[0][1] in _FIELD_CALLS:
            *spec, jet = self.field(args[0])[1]
            spec = (*spec, jet + (self.index(args[1]),))
        else:
            self.eval(args[0])  # an error of the operand comes first
            raise EvalError("deriv needs a field", args[0][2])
        make, sec, comp, x, jet = spec
        try:
            return make(sec, comp, x, self.ctx.lattice_nozero, jet), spec
        except FieldError as exc:
            raise EvalError(str(exc), pos) from None

    def call(self, fname: str, pos: int, args: list):
        def need(n):
            _need(fname, pos, args, n)

        if fname == "scomm":
            need(2)
            return super_bracket(self.operator(args[0]), self.operator(args[1]))
        if fname in ("absorb", "emit"):
            usage = f"{fname}(mode, index) builds a scalar-sector generator"
            try:
                need(2)
                mode = self.mode(args[0])
                idx = self.index(args[1], self.ctx.lattice_nozero.scalar_dim)
            except EvalError as exc:
                raise EvalError(f"{exc.msg}; {usage}", exc.pos) from None
            species = ABSORB if fname == "absorb" else EMIT
            posn = UPPER if fname == "absorb" else LOWER
            return GradedExpr.of(OpGen(species, posn, "scalar", mode.id, (idx,)))
        if fname == "prod":
            # formal composition: reordering happens under normal(...) or
            # pprod(...) (the physical-rule product)
            need(2)
            ea, eb = self.operator(args[0]), self.operator(args[1])
            acc = {}
            for w1, c1 in ea.terms.items():
                for w2, c2 in eb.terms.items():
                    add_term(acc, w1 + w2, c1 * c2)
            return GradedExpr(acc)
        if fname == "pprod":
            need(2)
            return koszul_product(self.operator(args[0]), self.operator(args[1]),
                                  "physical")
        if fname == "normal":
            need(1)
            return normal_order(self.operator(args[0]))
        if fname == "S":
            if not args:
                raise EvalError("S needs a coordinate", pos)
            th = self.ctx.configured
            cname = args[0][1]
            if args[0][0] != "name" or cname not in _S_COORDS:
                raise EvalError(f"unknown coordinate {cname!r}", args[0][2])
            method, bounds = _S_COORDS[cname]
            sizes = bounds(th)
            if len(args) - 1 > len(sizes):
                raise EvalError(f"S({cname}, ...) takes at most {len(sizes)} "
                                f"index(es)", args[len(sizes) + 1][2])
            idx = [self.index(a, n) for a, n in zip(args[1:], sizes)]
            idx += [0] * (len(sizes) - len(idx))
            s = self.ctx.brst(th)
            return s(bv.FiberPoly.coord(getattr(th, method)(*idx)))
        raise EvalError(f"unknown function {fname!r}", pos)


def _d_basis_render(value: ScalarExpr, ctx: RunContext) -> str | None:
    """Try to recognise the scalar as a known propagator combination."""
    lat = ctx.lattice_nozero
    x = FieldPoint.make(*_POINTS["x"])
    y = FieldPoint.make(*_POINTS["y"])
    xy = [(1, x), (-1, y)]
    xpy = [(1, x), (1, y)]
    for sector in ("scalar", "fermion", "ghost"):
        cands = {
            "D+(x-y) + D-(x-y)": propagator_D_total(xy, lat, sector),
            "D+(x-y) - D-(x-y)":
                propagator_D(1, xy, lat, sector) - propagator_D(-1, xy, lat, sector),
            "D+(x+y) + D-(x+y)": propagator_D_total(xpy, lat, sector),
            "D+(x+y) - D-(x+y)":
                propagator_D(1, xpy, lat, sector) - propagator_D(-1, xpy, lat, sector),
        }
        for name, cand in cands.items():
            if value == cand:
                return f"{name}   [{sector} shell]"
            if value == -cand:
                return f"-({name})   [{sector} shell]"
    return None


def eval_expr(cfg: dict, text: str) -> str:
    ctx = context_from_config(cfg)
    node = _Parser(text).parse()
    value = Evaluator(ctx).eval(node)
    lines = [repr(value)]
    if isinstance(value, GradedExpr):
        sc = value.scalar_part()
        if value.operator_part().is_zero() and not sc.is_zero():
            match = _d_basis_render(sc, ctx)
            if match:
                lines.append(f"  = {match}")
    elif isinstance(value, ScalarExpr):
        match = _d_basis_render(value, ctx)
        if match:
            lines.append(f"  = {match}")
    return "\n".join(lines)


# --- entry point ---------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    import argparse  # the command line only: not on the library's import path
    ap = argparse.ArgumentParser(
        prog="gradedqft",
        description="Verify graded free-field, BV and BRST identities on a "
                    "momentum lattice.")
    sub = ap.add_subparsers(dest="verb", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="INI or JSON configuration file")
    common.add_argument("--seed", type=int, help="override the run seed")

    v = sub.add_parser("verify", parents=[common],
                       help="run verification suites")
    v.add_argument("--suite", action="append", choices=SUITES,
                   help="restrict to a suite (repeatable)")
    v.add_argument("--format", choices=("json", "text"), default="json")
    v.add_argument("--output", metavar="PATH", help="write the report here")
    v.add_argument("--timings", action="store_true",
                   help="record wall-clock millis (breaks byte determinism)")

    e = sub.add_parser("eval", parents=[common],
                       help="evaluate a mini-grammar expression")
    e.add_argument("expr", help="e.g. 'scomm(field(ghost,I,x), conj(ghost,J,y))'")

    sub.add_parser("list-identities", parents=[common],
                   help="print all identities and anchors")
    sub.add_parser("dump-lattice", parents=[common],
                   help="print configured lattices")
    return ap


def _run(ns) -> int:
    """Run the verb of the parsed command line; the exit status."""
    cfg = load_config(ns.config)
    if ns.seed is not None:
        cfg["run"]["seed"] = ns.seed
    if ns.verb == "verify":
        report = run_verify(cfg, ns.suite, ns.timings)
        text = render_report(report, ns.format)
        if ns.output:
            with open(ns.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0 if report["failed"] == 0 else 1
    if ns.verb == "eval":
        sys.stdout.write(eval_expr(cfg, ns.expr) + "\n")
    elif ns.verb == "list-identities":
        for ident in all_identities():
            sys.stdout.write(f"{ident.suite:<12} {ident.name:<36} "
                             f"{ident.anchor}\n")
    elif ns.verb == "dump-lattice":
        ctx = context_from_config(cfg)
        for name, lat in (("base", ctx.lattice),
                          ("nozero", ctx.lattice_nozero),
                          ("propagator", ctx.lattice_prop)):
            sys.stdout.write(f"[{name}] {len(lat.modes)} modes, masses "
                             f"{ {k: str(v) for k, v in lat.masses.items()} }\n")
            for m in lat.modes:
                sys.stdout.write(
                    f"  p{m.id} = {tuple(str(x) for x in m.momentum)}  "
                    f"E_scalar^2 = {lat.energy_sq('scalar', m)}\n")
    return 0


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        status = _run(ns)
        sys.stdout.flush()  # a reader that left shows here, inside the try
    except (ConfigError, EvalError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BrokenPipeError:
        # the reader closed the pipe (`| head`): as the Python signal docs
        # advise, send what is left to devnull so that the flush at exit
        # fails no more, and exit with status 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
