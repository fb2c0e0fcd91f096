"""Per-layer tracing for the verify benchmark, installed from outside the engine.

The tracer wraps public names of gradedqft's modules (one module is one
layer) after the package is imported.  Private helpers are never touched,
so refactoring them cannot break the benchmark.  Each wrapper calls the
original and returns its result untouched.

Spans are not stored one by one: `ScalarExpr.__mul__` alone runs about
200k times per workload.  A span stack gives each span its self time
(inclusive time minus the time of traced child spans), and every span is
folded at once into a table keyed by (label, phase), where the phase is
the identity being run, or one of `<setup>`, `<verify>` and `<report>`
outside the identities.  The table is written out once, at the end.
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
import time

SETUP, VERIFY, REPORT = "<setup>", "<verify>", "<report>"

SUITES = ("algebra", "propagators", "equal_time", "functionals", "dirac",
          "bv", "brst", "oracle")

HEAVY_IDENTITIES = (
    "equal_time.gauge", "equal_time.dirac", "equal_time.ghost",
    "table.supercommutators.scalar", "table.supercommutators.fermion",
    "dirac.field_anticommutator", "bv.bracket_antiderivation",
    "brst.nilpotent_random", "brst.current_equivalence",
    "brst.nilpotent_generators", "brst.matter_gauge_invariance",
    "oracle.homomorphism", "oracle.functionals")


# --- work counts: each returns (a, b) from the call's arguments and result --

def _terms_out(args, kwargs, out):
    return len(out.terms), 0


def _operand_and_result_terms(args, kwargs, out):
    return len(args[0].terms) + len(args[1].terms), len(out.terms)


def _word_pairs_and_terms_out(args, kwargs, out):
    return len(args[0].terms) * len(args[1].terms), len(out.terms)


def _matmuls_and_flops(args, kwargs, out):
    # represent() multiplies one n x n complex matrix per generator of each
    # word; a complex multiply-add is 8 real flops.
    expr = args[0]
    space = args[1] if len(args) > 1 else kwargs["space"]
    matmuls = sum(len(word) for word in expr.terms)
    return matmuls, matmuls * 8 * space.dimension ** 3


# (label, module, dotted attribute, work count).  Several attributes may
# share a label; the label's first component names the layer.
NAMED = (
    ("scalars.mul", "scalars", "ScalarExpr.__mul__", _terms_out),
    ("scalars.add", "scalars", "ScalarExpr.__add__", _operand_and_result_terms),
    ("scalars.neg", "scalars", "ScalarExpr.__neg__", None),
    ("scalars.evaluate", "scalars", "ScalarExpr.evaluate", None),
    ("algebra.koszul_product", "algebra", "koszul_product",
     _word_pairs_and_terms_out),
    ("algebra.super_bracket", "algebra", "super_bracket", None),
    ("algebra.normal_order", "algebra", "normal_order", None),
    ("algebra.add", "algebra", "GradedExpr.__add__", None),
    ("fields.construct", "fields", "field", None),
    ("fields.construct", "fields", "conjugate_field", None),
    ("fields.construct", "fields", "star_field", None),
    ("fields.construct", "fields", "conj_C_field", None),
    ("fields.supercommutator", "fields", "field_supercommutator", None),
    ("fields.propagator", "fields", "propagator_D", None),
    ("fields.propagator", "fields", "propagator_D_total", None),
    ("fields.propagator", "fields", "delta_lattice", None),
    ("fields.equal_time", "fields", "equal_time_report", None),
    ("fields.equal_time", "fields", "gauge_equal_time_checks", None),
    ("fields.equal_time", "fields", "ghost_momentum_checks", None),
    ("bv.mul", "bv", "FiberPoly.__mul__", _word_pairs_and_terms_out),
    ("bv.add", "bv", "FiberPoly.__add__", None),
    ("bv.left_deriv", "bv", "left_deriv", None),
    ("bv.horizontal_diff", "bv", "horizontal_diff", None),
    ("bv.derivation", "bv", "VerticalDerivation.__call__", None),
    ("bv.laplacian", "bv", "bv_laplacian", None),
    ("bv.bracket", "bv", "bv_bracket", None),
    ("oracle.represent", "oracle", "represent", _matmuls_and_flops),
    ("oracle.build_operator", "oracle", "build_operator", None),
    ("oracle.residual", "oracle", "residual", None),
    ("oracle.residual", "oracle", "product_residual", None),
    ("cli.context_from_config", "cli", "context_from_config", None),
    ("cli.render_report", "cli", "render_report", None),
)

# Modules whose remaining public module-level functions are wrapped too,
# each under the label "<module>.<function>".
WHOLE_MODULES = ("functionals", "gammas", "lie", "bv", "oracle")


class Tracer:
    """Span stack and aggregate table; one per traced interpreter."""

    def __init__(self):
        self.phase = SETUP
        self.table: dict[tuple, list] = {}   # (label, phase) -> record
        self.suite_of: dict[str, str] = {}
        self.missing: list[str] = []
        self.gc_collections = 0
        self.gc_s = 0.0
        self._stack = [[0.0]]
        self._gc_t0 = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public names of every imported gradedqft module."""
        import gradedqft.cli  # noqa: F401  (imports every layer)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "gradedqft" or n.startswith("gradedqft.")]
        done = set()
        for label, modname, attr, work in NAMED:
            owner, name, orig = _resolve(f"gradedqft.{modname}", attr)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self._span(orig, label, work)
            done.update((orig, wrapped))
            if inspect.isclass(owner):
                setattr(owner, name, wrapped)
                if name == "__mul__" and owner.__dict__.get("__rmul__") is orig:
                    owner.__rmul__ = wrapped
            else:
                _rebind(modules, orig, wrapped)
        for modname in WHOLE_MODULES:
            mod = sys.modules[f"gradedqft.{modname}"]
            for name, obj in sorted(vars(mod).items()):
                if (inspect.isfunction(obj) and obj not in done
                        and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    _rebind(modules, obj,
                            self._span(obj, f"{modname}.{name}", None))
        self._wrap_identities(modules)

    def _wrap_identities(self, modules) -> None:
        _, _, orig_all = _resolve("gradedqft.identities", "all_identities")
        tracer = self

        def all_identities():
            idents = orig_all()
            for ident in idents:
                tracer.suite_of[ident.name] = ident.suite
                ident.run = tracer._identity_run(ident.run, ident.name)
            return idents

        _rebind(modules, orig_all, all_identities)

    def _identity_run(self, run, name):
        span = self._span(run, "identities.run", None)

        def traced(ctx):
            prev, self.phase = self.phase, name
            try:
                return span(ctx)
            finally:
                self.phase = prev
        return traced

    def _span(self, orig, label, work):
        stack, table, clock, tracer = self._stack, self.table, \
            time.perf_counter, self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                key = (label, tracer.phase)
                rec = table.get(key)
                if rec is None:
                    rec = table[key] = [0, 0.0, 0.0, 0, 0]
                rec[0] += 1
                rec[1] += dur - frame[0]
                rec[2] += dur
            if work is not None:
                a, b = work(args, kwargs, out)
                rec[3] += a
                rec[4] += b
            return out
        return traced

    # -- garbage collector ---------------------------------------------------

    def gc_on(self) -> None:
        gc.callbacks.append(self._on_gc)

    def gc_off(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        elif self._gc_t0 is not None:
            self.gc_s += time.perf_counter() - self._gc_t0
            self.gc_collections += 1
            self._gc_t0 = None

    def dump(self) -> dict:
        return {"table": [[label, phase, *rec]
                          for (label, phase), rec in sorted(self.table.items())],
                "suite_of": self.suite_of, "missing": self.missing,
                "gc": [self.gc_collections, self.gc_s]}


def _resolve(modname: str, dotted: str):
    """(owner, attribute name, object), or (owner, name, None) if absent."""
    owner = sys.modules.get(modname)
    *path, name = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return owner, name, getattr(owner, name, None)


def _rebind(modules, orig, wrapped) -> None:
    """Point every module-level binding of `orig` (also inside module-level
    dicts such as lie.PRESETS) at `wrapped`."""
    for mod in modules:
        ns = vars(mod)
        for key, value in list(ns.items()):
            if value is orig:
                ns[key] = wrapped
            elif type(value) is dict:
                for k, v in value.items():
                    if v is orig:
                        value[k] = wrapped


# --- metrics from one dumped trace ----------------------------------------

COUNT, TIME = "count", "time"


def layer_metrics(dump: dict, verify_s: float, errors: int) -> dict:
    """Per-layer metrics of one traced run: name -> (value, unit, kind).

    Layer figures cover the traced run_verify call only.  The self times of
    all layers plus `unattributed.self_s` (run_verify's own code outside
    any span, and the wrapper cost there) add up to `trace.verify_s`.
    """
    agg: dict[str, list] = {}
    incl: dict[tuple, float] = {}
    for label, phase, calls, self_s, incl_s, a, b in dump["table"]:
        incl[(label, phase)] = incl.get((label, phase), 0.0) + incl_s
        if phase in (SETUP, REPORT):
            continue
        rec = agg.setdefault(label, [0, 0.0, 0, 0])
        rec[0] += calls
        rec[1] += self_s
        rec[2] += a
        rec[3] += b

    def rec(label):
        return agg.get(label, [0, 0.0, 0, 0])

    def layer(name):
        return [r for label, r in agg.items() if label.split(".")[0] == name]

    out = {}

    def put(name, value, unit, kind):
        out[name] = (value, unit, kind)

    def calls_self(label, with_calls=True):
        r = rec(label)
        if with_calls:
            put(f"{label}.calls", r[0], "count", COUNT)
        put(f"{label}.self_s", r[1], "s", TIME)

    def layer_self(name):
        put(f"{name}.self_s", sum(r[1] for r in layer(name)), "s", TIME)

    calls_self("scalars.mul")
    put("scalars.mul.terms_out", rec("scalars.mul")[2], "count", COUNT)
    calls_self("scalars.add")
    a, b = rec("scalars.add")[2:4]
    put("scalars.add.kept_ratio", b / a if a else 0.0, "ratio", COUNT)
    calls_self("scalars.neg")
    calls_self("scalars.evaluate")
    layer_self("scalars")

    calls_self("algebra.koszul_product")
    put("algebra.koszul_product.word_pairs", rec("algebra.koszul_product")[2],
        "count", COUNT)
    put("algebra.koszul_product.terms_out", rec("algebra.koszul_product")[3],
        "count", COUNT)
    calls_self("algebra.super_bracket")
    calls_self("algebra.normal_order")
    layer_self("algebra")

    calls_self("fields.construct")
    calls_self("fields.supercommutator")
    calls_self("fields.propagator")
    calls_self("fields.equal_time", with_calls=False)
    layer_self("fields")

    for name in ("functionals", "gammas"):
        put(f"{name}.calls", sum(r[0] for r in layer(name)), "count", COUNT)
        layer_self(name)
    layer_self("lie")

    calls_self("bv.mul")
    put("bv.mul.word_pairs", rec("bv.mul")[2], "count", COUNT)
    put("bv.mul.terms_out", rec("bv.mul")[3], "count", COUNT)
    for label in ("bv.add", "bv.left_deriv", "bv.horizontal_diff",
                  "bv.derivation", "bv.laplacian", "bv.bracket"):
        calls_self(label)
    layer_self("bv")

    calls_self("oracle.represent")
    put("oracle.represent.matmuls", rec("oracle.represent")[2], "count", COUNT)
    put("oracle.represent.flops_computed", rec("oracle.represent")[3],
        "flop", COUNT)
    calls_self("oracle.build_operator")
    calls_self("oracle.residual", with_calls=False)
    layer_self("oracle")

    ident_s = {name: incl.get(("identities.run", name), 0.0)
               for name in dump["suite_of"]}
    for suite in SUITES:
        put(f"identities.{suite}.s",
            sum(s for name, s in ident_s.items()
                if dump["suite_of"][name] == suite), "s", TIME)
    for name in HEAVY_IDENTITIES:
        put(f"identities.{name}.s", ident_s.get(name, 0.0), "s", TIME)
    put("identities.errors", errors, "count", COUNT)
    layer_self("identities")

    put("cli.context_from_config.s",
        incl.get(("cli.context_from_config", SETUP), 0.0), "s", TIME)
    put("cli.render_report.s", incl.get(("cli.render_report", REPORT), 0.0),
        "s", TIME)
    layer_self("cli")
    put("gc.collections", dump["gc"][0], "count", COUNT)
    put("gc.s", dump["gc"][1], "s", TIME)

    attributed = sum(r[1] for r in agg.values())
    put("unattributed.self_s", verify_s - attributed, "s", TIME)
    put("trace.verify_s", verify_s, "s", TIME)
    return out
