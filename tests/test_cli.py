import json
import pathlib
import re

import pytest

from gradedqft.cli import (
    ConfigError,
    EvalError,
    context_from_config,
    eval_expr,
    load_config,
    main,
    render_report,
    run_verify,
)


def fast_cfg():
    cfg = load_config(None)
    cfg["lattice"]["momenta"] = [[1, 0, 0], [-1, 0, 0]]
    cfg["lattice"]["propagator_momenta"] = [[1, 0, 0], [-1, 0, 0], [0, 2, 0],
                                            [0, -2, 0]]
    cfg["theory"]["lie"] = "u1"
    return cfg


def test_default_config_loads():
    cfg = load_config(None)
    ctx = context_from_config(cfg)
    assert len(ctx.lattice.modes) == 3
    assert len(ctx.lattice_prop.modes) == 27
    assert ctx.theory.lie.dim == 3  # su2 default


def test_config_ini_roundtrip(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("""
[run]
seed = 123
suites = ["algebra", "bv"]

[theory]
lie = "u1"

[lattice]
momenta = [[2, 0, 0], [-2, 0, 0]]
masses = {"scalar": 2, "fermion": 1, "dirac": 3}
""")
    cfg = load_config(str(p))
    assert cfg["run"]["seed"] == 123
    ctx = context_from_config(cfg)
    assert ctx.theory.lie.dim == 1
    assert str(ctx.lattice.modes[0].momentum[0]) == "2"


def test_config_json(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"run": {"seed": 9}, "theory": {"lie": "u1"}}))
    cfg = load_config(str(p))
    assert cfg["run"]["seed"] == 9


def test_config_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{ not json")
    with pytest.raises(ConfigError) as exc:
        load_config(str(p))
    assert ":" in str(exc.value)  # line/position carried
    q = tmp_path / "bad.ini"
    q.write_text("[nosuch]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(q))
    cfg = load_config(None)
    cfg["theory"]["lie"] = "e8"
    with pytest.raises(ConfigError):
        context_from_config(cfg)


def test_verify_selected_suites_pass():
    cfg = fast_cfg()
    report = run_verify(cfg, suites=["algebra", "propagators"])
    assert report["failed"] == 0
    assert report["passed"] > 0
    names = [e["identity"] for e in report["identities"]]
    assert names == sorted(names)
    assert all(e["anchor"] for e in report["identities"])
    assert all(e["millis"] is None for e in report["identities"])


@pytest.mark.parametrize("configured,suites", [
    ([], None),
    (["algebra"], []),
], ids=["empty-config", "empty-argument"])
def test_run_verify_rejects_an_empty_selection(monkeypatch, configured, suites):
    import gradedqft.cli as cli
    cfg = fast_cfg()
    cfg["run"]["suites"] = configured
    monkeypatch.setattr(cli, "all_identities", lambda: pytest.fail("ran identities"))
    with pytest.raises(ConfigError, match="^nothing to verify: no suite is selected"):
        run_verify(cfg, suites)


def test_verify_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        run_verify(fast_cfg(), suites=["nonsense"])


def test_reports_are_byte_identical(monkeypatch):
    import gradedqft.cli as cli
    monkeypatch.setattr(cli, "_worker_count", lambda jobs: 1)
    cfg = fast_cfg()
    r1 = render_report(run_verify(cfg, suites=["algebra", "bv"]), "json")
    r2 = render_report(run_verify(cfg, suites=["algebra", "bv"]), "json")
    assert r1 == r2
    cfg["run"]["seed"] = 8
    r3 = render_report(run_verify(cfg, suites=["algebra", "bv"]), "json")
    assert r1 != r3  # the seed is recorded in the report


def test_a_suite_named_twice_is_run_and_reported_once(tmp_path, capsys):
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    assert main(["verify", "--suite", "bv", "--output", str(once)]) == 0
    assert main(["verify", "--suite", "bv", "--suite", "bv",
                 "--output", str(twice)]) == 0
    assert twice.read_bytes() == once.read_bytes()
    config = tmp_path / "run.ini"
    config.write_text('[run]\nsuites = ["bv", "bv"]\n')
    assert main(["verify", "--config", str(config), "--output", str(twice)]) == 0
    assert twice.read_bytes() == once.read_bytes()
    report = json.loads(once.read_text())
    assert report["suites"] == ["bv"] and report["passed"] == 5


def test_eval_s_reads_the_corrupted_constants(capsys):
    # corrupt.ini adds +1 at c^0_{01}: S(omega^0) gains omega[0]·omega[1]
    corrupt = str(pathlib.Path(__file__).parent / "data" / "corrupt.ini")
    assert main(["eval", "S(omega, 0)"]) == 0
    assert capsys.readouterr().out == "(1)·omega[1]·omega[2]\n"
    assert main(["eval", "--config", corrupt, "S(omega, 0)"]) == 0
    assert capsys.readouterr().out == \
        "(1)·omega[0]·omega[1] + (1)·omega[1]·omega[2]\n"


def test_corrupted_constants_fail_brst_only():
    cfg = fast_cfg()
    cfg["theory"]["lie"] = "su2"
    cfg["theory"]["corrupt_constant"] = [0, 0, 1]
    report = run_verify(cfg, suites=["brst", "algebra", "bv"])
    by_suite = {}
    for e in report["identities"]:
        suite = e["identity"].split(".")[0]
        by_suite.setdefault(suite, []).append(e["status"])
    assert "fail" in by_suite["brst"]
    assert all(s == "pass" for s in by_suite["algebra"])
    assert all(s == "pass" for s in by_suite["bv"])


@pytest.mark.parametrize("sector,suite,identity", [
    ("scalar", "equal_time", "equal_time.scalar"),
    ("scalar", "equal_time", "table.supercommutators.scalar"),
    ("dirac", "dirac", "dirac.field_anticommutator"),
])
def test_a_non_central_equal_time_bracket_fails_with_a_term_count(
        monkeypatch, sector, suite, identity):
    """A field that carries one extra fermion generator brackets to an
    operator, not a number: the identity must fail and count the
    surviving terms, not stop with an error."""
    from gradedqft import fields, identities
    from gradedqft.algebra import EMIT, UPPER, GradedExpr, OpGen, koszul_product
    extra = GradedExpr.of(OpGen(EMIT, UPPER, "fermion", 0, (0,)))
    plain = fields.field

    def carrying(sector_, component, x, lattice):
        f = plain(sector_, component, x, lattice)
        if sector_ != sector:
            return f
        return fields.FieldExpr(koszul_product(f.expr, extra), f.sector,
                                f.component, f.point, f.lattice)

    monkeypatch.setattr(fields, "field", carrying)
    monkeypatch.setattr(identities, "field", carrying)
    report = run_verify(fast_cfg(), suites=[suite])
    entry = {e["identity"]: e for e in report["identities"]}[identity]
    assert entry["status"] == "fail"
    count, unit = entry["residual"].split()
    assert unit == "terms" and int(count) > 0


def test_a_raising_identity_is_reported_as_an_error(monkeypatch):
    from gradedqft import cli
    from gradedqft.identities import CheckResult, Identity
    monkeypatch.setattr(cli, "_worker_count", lambda jobs: 1)
    ran = []

    def boom(ctx):
        ran.append("boom")
        raise ValueError("no such mode")

    def fine(ctx):
        ran.append("fine")
        return CheckResult.exact(0)

    monkeypatch.setattr(cli, "all_identities", lambda: [
        Identity("algebra.z_boom", "algebra", "raises", boom),
        Identity("algebra.a_fine", "algebra", "holds", fine),
    ])
    report = run_verify(fast_cfg(), suites=["algebra"], timings=True)
    assert ran == ["boom", "fine"]  # the identity after the error still runs
    fine_entry, boom_entry = report["identities"]
    assert boom_entry["identity"] == "algebra.z_boom"
    assert boom_entry["status"] == "error"
    assert boom_entry["residual"] == "ValueError: no such mode"
    assert boom_entry["anchor"] == "raises"
    assert isinstance(boom_entry["millis"], float)
    assert fine_entry["status"] == "pass" and fine_entry["residual"] == "0 terms"
    assert (report["passed"], report["failed"]) == (1, 1)


def test_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["verify", "--suite", "algebra", "--output", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["failed"] == 0
    rc = main(["eval", "scomm(field(ghost,0,x), conj(ghost,0,y))"])
    assert rc == 0
    assert "D+(x-y) + D-(x-y)" in capsys.readouterr().out
    rc = main(["eval", "field(ghost, 0, "])
    assert rc == 2
    err = capsys.readouterr().err
    assert "column" in err


def test_eval_examples():
    cfg = fast_cfg()
    # delta-diagonal ghost bracket lands in the D basis
    txt = eval_expr(cfg, "scomm(field(ghost,I,x), conj(ghost,I,y))")
    assert "D+(x-y) + D-(x-y)" in txt
    # off-diagonal internal indices vanish (needs lie_dim > 1)
    cfg2 = fast_cfg()
    cfg2["theory"]["lie"] = "su2"
    assert eval_expr(cfg2, "scomm(field(ghost,I,x), conj(ghost,J,y))") == "0"
    # normal ordering drops the contraction term
    txt = eval_expr(cfg, "normal(prod(absorb(p,1), emit(p,1)))")
    assert "a+" in txt and "1 +" not in txt
    # the physical product keeps it
    txt = eval_expr(cfg, "pprod(absorb(p,1), emit(p,1))")
    assert "(1)·1" in txt
    # BRST of the ghost for su2: (1/2) eps omega omega
    txt = eval_expr(cfg2, "S(omega, I)")
    assert "omega[1]·omega[2]" in txt


def test_absorb_and_emit_build_scalar_sector_generators():
    # absorb(mode, index) and emit(mode, index): the physical product of an
    # absorption and an emission on different modes has no contraction
    txt = eval_expr(fast_cfg(), "normal(pprod(absorb(p,0), emit(q,1)))")
    assert txt == "(1)·a+_(scalar,p1,(1,))·a^(scalar,p0,(0,))"


def test_absorb_and_emit_modes_are_the_zero_free_lattice_modes(capsys):
    # the fields are built on the zero-free lattice: a contraction with
    # absorb(q, 0) carries the momentum that dump-lattice prints for q there
    assert main(["dump-lattice"]) == 0
    dump = capsys.readouterr().out
    nozero = dump.split("[nozero]")[1].split("[propagator]")[0]
    momenta = re.findall(r"p(\d+) = \((.*)\)", nozero)
    assert len(momenta) == 2
    for name, (mode, momentum) in zip("pq", momenta):
        assert int(mode) == "pq".index(name)
        k = ",".join(c.strip(" '") for c in momentum.split(","))
        assert main(["eval", f"scomm(absorb({name},0), conj(scalar,0,y))"]) == 0
        assert f"({k})·y]" in capsys.readouterr().out
    # one configured momentum: the zero-free lattice adds its negative as q
    cfg = fast_cfg()
    cfg["lattice"]["momenta"] = [[1, 0, 0]]
    txt = eval_expr(cfg, "scomm(absorb(q,0), conj(scalar,0,y))")
    assert "(-1,0,0)·y]" in txt


def test_eval_error_positions():
    cfg = fast_cfg()
    with pytest.raises(EvalError) as exc:
        eval_expr(cfg, "scomm(field(ghost,0,x), nonsense(1))")
    assert "column 24" in str(exc.value)
    with pytest.raises(EvalError):
        eval_expr(cfg, "field(ghost, 0, x) trailing")
    with pytest.raises(EvalError):
        eval_expr(cfg, "field(badsector, 0, x)")


def test_list_identities_and_dump_lattice(capsys):
    assert main(["list-identities"]) == 0
    out = capsys.readouterr().out
    assert "brst.nilpotent_generators" in out
    assert main(["dump-lattice"]) == 0
    out = capsys.readouterr().out
    assert "propagator" in out and "27 modes" in out


def test_custom_generator_config():
    # a bespoke one-generator algebra supplied inline: i * diag(1, -1)
    cfg = fast_cfg()
    cfg["theory"]["lie"] = [[[1j, 0], [0, -1j]]]
    ctx = context_from_config(cfg)
    assert ctx.theory.lie.dim == 1 and ctx.theory.lie.dim_f == 2
    report = run_verify(cfg, suites=["brst"])
    assert report["failed"] == 0


@pytest.mark.parametrize("suffix,text", [
    (".ini", "[run]\nsed = 9\n"),
    (".json", json.dumps({"run": {"sed": 9}})),
    (".json", json.dumps({"oracle": {"n_max": 3, "capp": 8}})),
    (".ini", "[oracle]\nenabled = false\n"),
    (".json", json.dumps({"oracle": {"enabled": False}})),
], ids=["ini", "json", "json-oracle", "ini-oracle-enabled", "json-oracle-enabled"])
def test_unknown_key_in_known_section_rejected(tmp_path, suffix, text):
    p = tmp_path / f"typo{suffix}"
    p.write_text(text)
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(str(p))


@pytest.mark.parametrize("section,key,value,match", [
    ("lattice", "masses", {"scalar": "abc", "fermion": 1, "dirac": 1},
     "masses"),
    ("lattice", "momenta", [["x", 0, 0], [1, 0, 0]], "momenta"),
    ("lattice", "momenta", [1, 2], "momenta"),
    ("lattice", "propagator_momenta", [[1, 0, "q"]], "propagator_momenta"),
    ("oracle", "n_max", -1, "n_max"),
    ("oracle", "n_max", 0, "n_max"),
    ("oracle", "cap", 0, "cap"),
    ("oracle", "n_max", "3", "n_max"),
    ("theory", "corrupt_constant", [0, 1, 1], "j != h"),
    ("theory", "corrupt_constant", [-1, 0, 1], "range"),
    ("theory", "corrupt_constant", [5, 0, 1], "range"),
    ("theory", "corrupt_constant", [0, 1], "range"),
    ("lattice", "scalar_dim", 0, "scalar_dim"),
    ("run", "seed", "abc", "seed"),
    ("lattice", "masses", [1, 2], "lattice.masses must be a table"),
    ("lattice", "masses", 5, "lattice.masses must be a table"),
    ("lattice", "momenta", "abc", "lattice.momenta must be a list"),
    ("lattice", "propagator_momenta", "cubes",
     'lattice.propagator_momenta must be "cube" or a list'),
], ids=["mass-nonnumeric", "momentum-nonnumeric", "momentum-not-a-list",
        "propagator-momentum-nonnumeric", "n_max-negative", "n_max-zero",
        "cap-zero", "n_max-string", "corrupt-j-equals-h", "corrupt-negative",
        "corrupt-out-of-range", "corrupt-two-indices", "scalar_dim-zero",
        "seed-nonnumeric", "masses-a-list", "masses-a-number",
        "momenta-a-string", "propagator-momenta-a-misspelt-cube"])
def test_bad_config_value_rejected(section, key, value, match):
    cfg = load_config(None)
    cfg[section][key] = value
    with pytest.raises(ConfigError, match=match):
        context_from_config(cfg)


def test_corrupt_constant_checked_against_the_lie_algebra():
    cfg = fast_cfg()  # u1: one generator, so only index 0 exists
    cfg["theory"]["corrupt_constant"] = [0, 0, 1]
    with pytest.raises(ConfigError, match="range\\(1\\)"):
        context_from_config(cfg)
    cfg["theory"]["lie"] = "su2"
    assert context_from_config(cfg).corrupt_constant == (0, 0, 1)


def test_bad_config_exits_2_without_traceback(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"oracle": {"n_max": -1}}))
    assert main(["verify", "--suite", "algebra", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "n_max" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name,text,match", [
    ("top.json", "[1, 2]", "the top level must be a table of sections"),
    ("masses.json", json.dumps({"lattice": {"masses": [1, 2]}}),
     "lattice.masses must be a table"),
    ("masses.ini", "[lattice]\nmasses = 5\n", "lattice.masses must be a table"),
    ("suites.json", json.dumps({"run": {"suites": 5}}),
     "run.suites must be a list of suite names"),
    ("suites.ini", "[run]\nsuites = brst\n",
     "run.suites must be a list of suite names"),
    ("propagator.ini", '[lattice]\npropagator_momenta = "cubes"\n',
     'lattice.propagator_momenta must be "cube" or a list'),
], ids=["json-top-level-a-list", "json-masses-a-list", "ini-masses-a-number",
        "json-suites-a-number", "ini-suites-a-bare-name",
        "ini-propagator-momenta-a-misspelt-cube"])
def test_malformed_config_exits_2_saying_what_the_key_must_be(
        tmp_path, capsys, name, text, match):
    p = tmp_path / name
    p.write_text(text)
    assert main(["verify", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and match in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [[], 0, ""], ids=["empty-list", "zero", "empty-string"])
def test_falsy_corrupt_constant_is_rejected(value):
    cfg = load_config(None)
    cfg["theory"]["corrupt_constant"] = value
    with pytest.raises(ConfigError, match="corrupt_constant"):
        context_from_config(cfg)


_BAD_LATTICES = {
    "duplicate-momentum": ("momenta = [[1, 0, 0], [1, 0, 0]]", "duplicate"),
    "duplicate-propagator-momentum":
        ("propagator_momenta = [[0, 1, 0], [0, 1, 0]]", "propagator_momenta"),
    "open-propagator-momenta":
        ("propagator_momenta = [[1, 0, 0]]",
         "lattice.propagator_momenta must be closed under p -> -p"),
    "zero-scalar-mass":
        ('masses = {"scalar": 0, "fermion": 1, "dirac": 1}', "positive mass"),
    "negative-dirac-mass":
        ('masses = {"scalar": 1, "fermion": 1, "dirac": -1}', "positive mass"),
    "massive-gauge": ('masses = {"gauge": 1}', "gauge sector must be massless"),
    "massive-ghost": ('masses = {"ghost": 2}', "ghost sector must be massless"),
    "mass-key-typo": ('masses = {"scalr": 2}', "unknown mass sector 'scalr'"),
    "two-vector-momentum": ("momenta = [[1, 0]]", "needs 3 components"),
    "four-vector-momenta": ("momenta = [[1, 0, 0, 4], [-1, 0, 0, 4]]",
                            "needs 3 components"),
}


@pytest.mark.parametrize("verb", [["verify", "--suite", "algebra"], ["dump-lattice"]],
                         ids=["verify", "dump-lattice"])
@pytest.mark.parametrize("case", sorted(_BAD_LATTICES))
def test_bad_lattice_exits_2_without_traceback(tmp_path, capsys, verb, case):
    line, match = _BAD_LATTICES[case]
    p = tmp_path / "lattice.ini"
    p.write_text(f"[lattice]\n{line}\n")
    assert main(verb + ["--config", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: lattice") and match in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


# bad eval expressions, each with the column of the offending call or index
_BAD_EVALS = {
    "conj-of-real-gauge": ("conj(gauge,0,y)", 0, "is real"),
    "dirac-component": ("field(dirac,7,x)", 0, "outside the dirac sector"),
    "deriv-index-9": ("deriv(field(scalar,0,x),9)", 0, "derivative index 9"),
    "pprod-scalar-operand": ("pprod(absorb(p,0), 2)", 19, "operator"),
    "normal-scalar-operand": ("normal(3)", 7, "operator"),
    "scalar-component": ("field(scalar,5,x)", 0, "outside the scalar sector"),
    "ghost-component": ("field(ghost,9,x)", 0, "outside the ghost sector"),
    "deriv-index-negative": ("deriv(field(scalar,0,x),-1)", 0,
                             "derivative index -1"),
    "S-lie-index": ("S(omega, 7)", 9, "outside 0..2"),
    "two-slashes": ("1/2/3", 0, "malformed number '1/2/3'"),
    "trailing-slash": ("3/", 0, "malformed number '3/'"),
    "two-slashes-in-index": ("field(scalar,1/2/3,x)", 13, "malformed number"),
    "absorb-mode-off-the-zero-free-lattice": ("absorb(r,0)", 7,
                                              "mode 2 is outside 0..1"),
    "absorb-sector-as-mode": ("normal(pprod(absorb(fermion,p), emit(fermion,q)))",
                              20, "'fermion' is not a valid mode; absorb(mode, "
                              "index) builds a scalar-sector generator"),
}


@pytest.mark.parametrize("case", sorted(_BAD_EVALS))
def test_bad_eval_exits_2_without_traceback(capsys, case):
    text, column, match = _BAD_EVALS[case]
    assert main(["eval", text]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: column {column}: ")
    assert match in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_report_bytes_do_not_depend_on_the_hash_seed():
    import os
    import subprocess
    import sys

    import gradedqft
    src = os.path.dirname(os.path.dirname(os.path.abspath(gradedqft.__file__)))
    cmd = [sys.executable, "-m", "gradedqft.cli", "verify", "--suite", "algebra",
           "--suite", "bv", "--suite", "equal_time", "--format", "json"]
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(cmd, env=env, capture_output=True, check=True)
        outs.append(run.stdout)
    assert outs[0] and outs[0] == outs[1]


def test_brst_report_bytes_do_not_depend_on_the_hash_seed():
    import os
    import subprocess
    import sys

    import gradedqft
    src = os.path.dirname(os.path.dirname(os.path.abspath(gradedqft.__file__)))
    cmd = [sys.executable, "-m", "gradedqft.cli", "verify", "--suite", "brst",
           "--format", "json"]
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(cmd, env=env, capture_output=True, check=True)
        outs.append(run.stdout)
    assert outs[0] and outs[0] == outs[1]


@pytest.mark.parametrize("seed,hash_seed", [(7, "0"), (11, "1"), (23, "0")])
def test_default_report_matches_the_golden_file(seed, hash_seed):
    # tests/data/verify_seed{N}.json hold the default `verify --seed N
    # --format json` report; a change that alters the report on purpose
    # regenerates them with PYTHONHASHSEED=0
    import os
    import subprocess
    import sys

    import gradedqft
    src = os.path.dirname(os.path.dirname(os.path.abspath(gradedqft.__file__)))
    golden = pathlib.Path(__file__).parent / "data" / f"verify_seed{seed}.json"
    cmd = [sys.executable, "-m", "gradedqft", "verify", "--seed", str(seed),
           "--format", "json"]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    run = subprocess.run(cmd, env=env, capture_output=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == golden.read_bytes()


def test_lattice4_report_matches_the_golden_file():
    # tests/data/verify_lattice4.json holds `verify --config
    # tests/data/lattice4.ini --format json`: the 4-mode lattice
    # {+-e1, +-e2}, every suite but oracle, 53 identities
    import os
    import subprocess
    import sys

    import gradedqft
    src = os.path.dirname(os.path.dirname(os.path.abspath(gradedqft.__file__)))
    data = pathlib.Path(__file__).parent / "data"
    cmd = [sys.executable, "-m", "gradedqft", "verify", "--config",
           str(data / "lattice4.ini"), "--format", "json"]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
    run = subprocess.run(cmd, env=env, capture_output=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (data / "verify_lattice4.json").read_bytes()


def test_fractional_lattice_report_matches_the_golden_file():
    # tests/data/verify_lattice_frac.json holds `verify --config
    # tests/data/lattice_frac.ini --format json`: momenta 0, +-(1/2,0,0)
    # and +-(0,1/3,0), scalar mass 3/2, Dirac mass 2, no oracle suite; it
    # pins the Fraction path of the scalar layer, 53 identities
    import os
    import subprocess
    import sys

    import gradedqft
    src = os.path.dirname(os.path.dirname(os.path.abspath(gradedqft.__file__)))
    data = pathlib.Path(__file__).parent / "data"
    cmd = [sys.executable, "-m", "gradedqft", "verify", "--config",
           str(data / "lattice_frac.ini"), "--format", "json"]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
    run = subprocess.run(cmd, env=env, capture_output=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (data / "verify_lattice_frac.json").read_bytes()
    report = json.loads(run.stdout)
    assert report["failed"] == 0 and len(report["identities"]) == 53


def test_verify_passes_with_one_scalar_component(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[lattice]\nscalar_dim = 1\n")
    out = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfg), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["failed"] == 0 and report["passed"] == len(report["identities"])
    assert all(e["status"] == "pass" for e in report["identities"])


# custom theory.lie values that must stop with ConfigError: (value, message)
_BAD_LIES = {
    "not-anti-hermitian": ([[[1]]], "anti-Hermitian"),
    "nilpotent-generator": ([[[0, 1], [0, 0]]], "anti-Hermitian"),
    "a-number": (5, "preset name or a non-empty list"),
    "empty-list": ([], "preset name or a non-empty list"),
    "not-square": ([[[0, 1]]], "square matrices"),
    "sizes-differ": ([[[0, 1], [-1, 0]], [[0]]], "square matrices of one size"),
    "entry-not-a-number": ([[["a"]]], "expected a number"),
    "boolean-entry": ([[[False]]], "expected a number, got False"),
    "zero-generator": ([[[0]]], "linearly independent: l_0 is zero"),
    # the real su2 generator -(i/2) sigma_2, twice
    "duplicated-su2-generator": ([[[0, -0.5], [0.5, 0]]] * 2,
                                 "linearly independent: l_1 is a combination"),
}


@pytest.mark.parametrize("verb", [["verify", "--suite", "algebra"], ["dump-lattice"]],
                         ids=["verify", "dump-lattice"])
@pytest.mark.parametrize("case", sorted(_BAD_LIES))
def test_bad_custom_lie_exits_2_without_traceback(tmp_path, capsys, verb, case):
    value, match = _BAD_LIES[case]
    p = tmp_path / "lie.json"
    p.write_text(json.dumps({"theory": {"lie": value}}))
    assert main(verb + ["--config", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: theory.lie") and match in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


# JSON booleans where a number belongs (Fraction(True) == 1): (config, where)
_BOOLEAN_NUMBERS = {
    "scalar-mass": ({"lattice": {"masses": {"scalar": True}}},
                    "lattice.masses['scalar']"),
    "momentum-component": ({"lattice": {"momenta": [[1, 0, False], [-1, 0, 0]]}},
                           "lattice.momenta"),
    "propagator-momentum": ({"lattice": {"propagator_momenta": [[True, 0, 0]]}},
                            "lattice.propagator_momenta"),
}


@pytest.mark.parametrize("verb", [["verify", "--suite", "algebra"], ["dump-lattice"]],
                         ids=["verify", "dump-lattice"])
@pytest.mark.parametrize("case", sorted(_BOOLEAN_NUMBERS))
def test_boolean_number_exits_2_without_traceback(tmp_path, capsys, verb, case):
    cfg, where = _BOOLEAN_NUMBERS[case]
    p = tmp_path / "bool.json"
    p.write_text(json.dumps(cfg))
    assert main(verb + ["--config", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {where}: expected a number, got ")
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("suffix,text", [
    (".ini", "[lattice]\npropagator_momenta = []\n"),
    (".json", json.dumps({"lattice": {"propagator_momenta": []}})),
], ids=["ini", "json"])
def test_empty_propagator_lattice_exits_2(tmp_path, capsys, suffix, text):
    # an empty mode sum would let every propagator identity compare 0 with 0
    p = tmp_path / f"empty{suffix}"
    p.write_text(text)
    assert main(["verify", "--suite", "propagators", "--config", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: lattice.propagator_momenta")
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("text", ["[run]\nsuites = []\n"], ids=["empty-suites"])
def test_verify_selecting_nothing_exits_2(tmp_path, capsys, text):
    # a run that checks no identity must not report success
    p = tmp_path / "run.ini"
    p.write_text(text)
    assert main(["verify", "--config", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: nothing to verify: no suite is "
                                   "selected")
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("argv,text", [
    (["--config", str(pathlib.Path(__file__).parent / "data" / "lattice4.ini"),
      "--suite", "oracle"], None),
    ([], "[oracle]\nn_max = 1000000\n"),
    ([], "[lattice]\nscalar_dim = 3\n"),
], ids=["lattice4", "n_max", "scalar_dim"])
def test_oracle_space_past_the_cap_exits_2(monkeypatch, tmp_path, capsys, argv,
                                           text):
    # the oracle spaces are built and checked before any identity runs
    import gradedqft.cli as cli
    monkeypatch.setattr(cli, "all_identities", lambda: pytest.fail("ran identities"))
    if text is not None:
        p = tmp_path / "run.ini"
        p.write_text(text)
        argv = ["--config", str(p)]
    assert main(["verify"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "oracle.cap" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_python_dash_m_runs_the_command_line():
    import os
    import subprocess
    import sys

    import gradedqft
    src = os.path.dirname(os.path.dirname(os.path.abspath(gradedqft.__file__)))
    run = subprocess.run([sys.executable, "-m", "gradedqft", "list-identities"],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "brst.nilpotent_random" in run.stdout


@pytest.mark.parametrize("fmt", ["json", "ini"])
def test_float_momenta_read_as_their_decimals(tmp_path, fmt):
    """A float in a config is the decimal it prints as: momenta +-0.1 are
    +-1/10, not binary fractions with denominator 2^55 whose energies
    would be factored by trial division.  `verify --suite functionals`
    finishes within seconds and passes."""
    import os
    import subprocess
    import sys
    from fractions import Fraction

    import gradedqft
    momenta = "[[0.1, 0, 0], [-0.1, 0, 0]]"
    if fmt == "json":
        p = tmp_path / "run.json"
        p.write_text('{"lattice": {"momenta": %s, "masses": '
                     '{"scalar": 1.5, "fermion": 1, "dirac": 1}}}' % momenta)
    else:
        p = tmp_path / "run.ini"
        p.write_text(f"[lattice]\nmomenta = {momenta}\n"
                     'masses = {"scalar": 1.5, "fermion": 1, "dirac": 1}\n')
    ctx = context_from_config(load_config(str(p)))
    assert [m.momentum for m in ctx.lattice.modes] == \
        [(Fraction(1, 10), 0, 0), (Fraction(-1, 10), 0, 0)]
    assert ctx.lattice.mass("scalar") == Fraction(3, 2)
    src = os.path.dirname(os.path.dirname(os.path.abspath(gradedqft.__file__)))
    cmd = [sys.executable, "-m", "gradedqft", "verify", "--suite", "functionals",
           "--config", str(p), "--format", "json"]
    run = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, timeout=60)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["failed"] == 0 and report["passed"] == len(report["identities"]) > 0


@pytest.mark.parametrize("fmt", ["json", "ini"])
def test_huge_denominator_momenta_exit_2_at_once(tmp_path, fmt):
    """Momenta +-(1/1000000007, 0, 0) give E^2 a numerator times
    denominator near 10^36, which the exact square root would factor by
    trial division without end: the lattice rejects them, and
    `verify --suite functionals` exits 2 within seconds."""
    import os
    import subprocess
    import sys

    import gradedqft
    momenta = '[["1/1000000007", 0, 0], ["-1/1000000007", 0, 0]]'
    if fmt == "json":
        p = tmp_path / "run.json"
        p.write_text('{"lattice": {"momenta": %s}}' % momenta)
    else:
        p = tmp_path / "run.ini"
        p.write_text(f"[lattice]\nmomenta = {momenta}\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(gradedqft.__file__)))
    cmd = [sys.executable, "-m", "gradedqft", "verify", "--suite", "functionals",
           "--config", str(p)]
    run = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=30)
    assert run.returncode == 2
    assert run.stderr.startswith("error: lattice: momentum (1/1000000007, 0, 0)")
    assert "Traceback" not in run.stderr and run.stdout == ""


def test_huge_scalar_dim_exits_2_at_once():
    """tests/data/scalar_dim_huge.ini sets lattice.scalar_dim = 10^6, past
    fields.MAX_SCALAR_DIM: `verify` exits 2 within seconds, naming the
    key, where it used to run for longer than anyone waits."""
    import os
    import subprocess
    import sys

    import gradedqft
    src = os.path.dirname(os.path.dirname(os.path.abspath(gradedqft.__file__)))
    config = pathlib.Path(__file__).parent / "data" / "scalar_dim_huge.ini"
    cmd = [sys.executable, "-m", "gradedqft", "verify", "--config", str(config)]
    run = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=30)
    assert run.returncode == 2
    assert run.stderr == ("error: lattice: scalar_dim = 1000000 exceeds 64, "
                          "the largest a lattice accepts\n")
    assert run.stdout == ""


def test_a_closed_pipe_ends_the_output_without_a_traceback(tmp_path):
    """A reader that leaves early (`dump-lattice | head -1`) ends the run
    with exit status 1 and nothing on stderr.  The lattice's 1331 modes
    print some 100 kB, more than a pipe holds, so the writer is still
    writing when the reader closes its end."""
    import os
    import subprocess
    import sys

    import gradedqft
    src = os.path.dirname(os.path.dirname(os.path.abspath(gradedqft.__file__)))
    r = range(-5, 6)
    config = tmp_path / "big.json"
    config.write_text(json.dumps(
        {"lattice": {"momenta": [[i, j, k] for i in r for j in r for k in r]}}))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gradedqft", "dump-lattice", "--config", str(config)],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first.startswith(b"[base] 1331 modes")
    assert b"Traceback" not in err and err == b""
