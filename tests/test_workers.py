"""The forked workers of `run_verify`: the same report bytes for any worker
count, every child reaped, a child's failure raised, never dropped."""

import os
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gradedqft
from gradedqft import cli
from gradedqft.cli import context_from_config, load_config, render_report, run_verify
from gradedqft.identities import CheckResult, Identity, all_identities

from test_algebra import _SPLICE_SIGN_KILLS

GOLDEN = Path(__file__).parent / "data" / "verify_seed7.json"


def workers(monkeypatch, n: int) -> None:
    monkeypatch.setattr(cli, "_worker_count", lambda jobs: n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_any_worker_count_renders_the_golden_bytes(monkeypatch, n):
    workers(monkeypatch, n)
    assert render_report(run_verify(load_config(None)), "json") == GOLDEN.read_text()


def test_no_child_outlives_run_verify(monkeypatch):
    workers(monkeypatch, 3)
    assert run_verify(load_config(None), ["algebra", "bv"])["failed"] == 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_worker_count_follows_the_cpus_and_the_identities():
    n = cli._worker_count(1000)
    assert n >= 1 and n <= (os.cpu_count() or 1)
    assert cli._worker_count(1) == 1


def test_an_error_in_a_child_is_the_serial_error_entry(monkeypatch):
    """Two raising identities over two workers, one run by each: this
    process, holding one, waits until a child has taken the other."""
    parent = os.getpid()
    r, w = os.pipe()
    handoff = False

    def boom(ctx):
        if os.getpid() != parent:
            os.write(w, b"x")
        elif handoff:  # leave the other identity to a child
            select.select([r], [], [], 10)
        raise ValueError("no such mode")

    monkeypatch.setattr(cli, "all_identities", lambda: [
        Identity(f"algebra.boom_{k}", "algebra", "raises", boom) for k in "ab"])
    try:
        workers(monkeypatch, 1)
        serial = run_verify(load_config(None), ["algebra"])
        workers(monkeypatch, 2)
        handoff = True
        parallel = run_verify(load_config(None), ["algebra"])
        assert os.read(r, 1) == b"x"  # a child ran one of them
    finally:
        os.close(r)
        os.close(w)
    assert parallel == serial
    assert [(e["status"], e["residual"]) for e in serial["identities"]] == \
        [("error", "ValueError: no such mode")] * 2


def test_an_interrupt_kills_and_reaps_the_children(monkeypatch):
    """This process, interrupted while a child is still busy, kills the
    child rather than waiting for it, and reaps it."""
    parent = os.getpid()
    r, w = os.pipe()

    def run(ctx):
        if os.getpid() != parent:
            os.write(w, b"x")
            time.sleep(60)
            return CheckResult.exact(0)
        select.select([r], [], [], 10)  # until a child is busy
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "all_identities", lambda: [
        Identity(f"algebra.stop_{k}", "algebra", "stops", run) for k in "ab"])
    workers(monkeypatch, 2)
    t0 = time.monotonic()
    try:
        with pytest.raises(KeyboardInterrupt):
            run_verify(load_config(None), ["algebra"])
    finally:
        os.close(r)
        os.close(w)
    assert time.monotonic() - t0 < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_CRASHING_CHILD = """
import json
import os
import select
import sys
from gradedqft import cli
from gradedqft.identities import CheckResult, Identity

parent = os.getpid()
r, w = os.pipe()


def run(ctx):
    if os.getpid() != parent:
        os.write(w, b"x")
        if sys.argv[1] == "exit":
            os._exit(3)
        json.dumps = lambda entries: "not json"  # in the child only
    else:
        select.select([r], [], [], 10)  # leave the other identity to a child
    return CheckResult.exact(0)


cli.all_identities = lambda: [
    Identity(f"algebra.crash_{k}", "algebra", "exits", run) for k in "ab"]
cli._worker_count = lambda jobs: 2
try:
    cli.run_verify(cli.load_config(None), ["algebra"])
except RuntimeError as exc:
    print(exc)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


@pytest.mark.parametrize("action,error", [
    ("exit", " exited with status 3"),
    ("garble", " exited with status 0 but sent malformed entries"),
])
def test_a_failed_child_raises_with_its_exit_status(action, error):
    """A child that exits with status 3 (os._exit in an identity), or that
    sends entries that are not JSON, fails the run; run in a fresh
    interpreter under a timeout, so a hang fails the test."""
    src = str(Path(gradedqft.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _CRASHING_CHILD, action],
                         env={"PYTHONPATH": src}, capture_output=True,
                         text=True, check=True, timeout=60)
    lines = out.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("verify worker ")
    assert lines[0].endswith(error)
    assert lines[1] == "no child left"


def test_the_splice_sign_mutation_is_seen_with_three_workers(monkeypatch):
    import inspect

    from gradedqft import bv

    workers(monkeypatch, 3)
    source = inspect.getsource(bv._splice)
    assert source.count("(sign < 0) != flip") == 1
    namespace = dict(vars(bv))
    exec(source.replace("(sign < 0) != flip", "sign < 0"), namespace)
    monkeypatch.setattr(bv, "_splice", namespace["_splice"])
    report = run_verify(load_config(None), ["bv", "brst"])
    failed = {e["identity"] for e in report["identities"] if e["status"] != "pass"}
    assert len(report["identities"]) == 14
    assert failed == _SPLICE_SIGN_KILLS


def test_each_identity_alone_gives_its_entry_in_the_full_report():
    """History independence, which lets any worker run any identity: each
    identity on a fresh context gives the status and residual of its
    entry in the seed-7 report."""
    import json

    golden = {e["identity"]: (e["status"], e["residual"])
              for e in json.loads(GOLDEN.read_text())["identities"]}
    alone = {}
    for ident in all_identities():
        entry = cli._run_one(ident, context_from_config(load_config(None)), False)
        alone[ident.name] = (entry["status"], entry["residual"])
    assert len(alone) == 59
    assert alone == golden
