"""Benchmark of `gradedqft verify` on the default config.

    python3 bench/run.py [--workload fields|brst|oracle|all] [--seed N]
                         [--seconds S] [--trace 0|1] [--out PATH]

Every sample is a fresh interpreter (bench/child.py), started one at a
time, that drives the engine through its public API with timings off.
With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json;
with `--trace 1` it reports the per-layer metrics from two traced
interpreters, alternated with two untraced ones.  Every run checks the
verdicts: the expected identity count, every status `pass`, and a
byte-identical report across the run's interpreters.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import COUNT, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# workload -> (suites, identities attempted).  Together the workloads
# partition the eight suites, so their sum is the full default verify.
WORKLOADS = {
    "fields": (("algebra", "propagators", "equal_time", "functionals",
                "dirac"), 39),
    "brst": (("bv", "brst"), 14),
    "oracle": (("oracle",), 6),
}

TRACED_SAMPLES = 2

# Pinned for every interpreter: bv._pairs_for iterates a set, so the hash
# seed fixes the traced counts; one BLAS thread keeps the oracle's matmuls
# off the second core.  PYTHONDONTWRITEBYTECODE is dropped so that, as for
# an installed package, setup loads bytecode the warm-up interpreter wrote.
PINNED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def spawn(mode: str, seed: int, suites) -> dict:
    """Run one child interpreter to the end and return its results.

    `setup_s` runs from the start of the process to its `ready` line.
    """
    env = dict(os.environ, **PINNED_ENV)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(seed),
           ",".join(suites)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          text=True) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
    wall_s = time.perf_counter() - t0
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"{mode} interpreter exited with {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1])
    result.update(setup_s=setup_s, wall_s=wall_s)
    return result


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def check_verdicts(runs, expected: int) -> dict:
    """Verdict counts over every verify interpreter of one workload."""
    attempted = failed = 0
    for r in runs:
        statuses = r["statuses"]
        attempted += max(expected, len(statuses))
        failed += sum(1 for s in statuses.values() if s != "pass")
        failed += max(0, expected - len(statuses))
    identical = len({r["report_sha256"] for r in runs}) == 1
    return {"attempted": attempted, "failed": failed,
            "reports_identical": identical,
            "correct": failed == 0 and identical and all(
                len(r["statuses"]) == expected for r in runs)}


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced run: for `seconds`, alternate a setup-only interpreter and
    a verify interpreter, so setup samples spread over the whole window.
    No round is started that would end after the window."""
    suites, expected = WORKLOADS[workload]
    env = spawn("env", seed, suites)  # also fills the bytecode cache
    setups, runs, rounds = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setups.append(spawn("setup", seed, suites)["setup_s"])
        runs.append(spawn("verify", seed, suites))
        setups.append(runs[-1]["setup_s"])
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break
    verdicts = check_verdicts(runs, expected)
    samples = {"verify_s": [r["verify_s"] for r in runs],
               "setup_s": setups,
               "peak_rss_mb": [r["peak_rss_mb"] for r in runs]}
    metrics = {name: {"value": statistics.median(v), "unit": unit}
               for (name, unit), v in zip(
                   (("verify_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")),
                   samples.values())}
    ratio = verdicts["failed"] / verdicts["attempted"]
    metrics["pass_ratio"] = {"value": 1.0 - ratio, "unit": "ratio"}
    return {"env": env, "verdicts": verdicts, "samples": samples,
            "failed_ratio": ratio, "metrics": metrics}


def measure_traced(workload: str, seed: int) -> dict:
    """Traced run: untraced and traced interpreters alternate, two of
    each; the traced counts must repeat exactly, and the overhead compares
    medians taken over the same stretch of time."""
    suites, expected = WORKLOADS[workload]
    env = spawn("env", seed, suites)
    base, traced = [], []
    for _ in range(TRACED_SAMPLES):
        base.append(spawn("verify", seed, suites))
        traced.append(spawn("trace", seed, suites))
    verdicts = check_verdicts(base + traced, expected)
    per_run = [layer_metrics(
        t["trace"], t["verify_s"],
        sum(1 for s in t["statuses"].values() if s == "error"))
        for t in traced]
    metrics, unrepeated = {}, []
    for name, (_, unit, kind) in per_run[0].items():
        values = [m[name][0] for m in per_run]
        if kind == COUNT and len(set(values)) == 1:
            value = values[0]
        else:
            if kind == COUNT:
                unrepeated.append(name)
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    untraced_s = statistics.median(r["verify_s"] for r in base)
    overhead = metrics["trace.verify_s"]["value"] - untraced_s
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    per_identity = {}
    for label, phase, calls, self_s, *_ in traced[0]["trace"]["table"]:
        per_identity.setdefault(phase, {})[label] = {"calls": calls,
                                                     "self_s": self_s}
    return {"env": env, "verdicts": verdicts, "unrepeated_counts": unrepeated,
            "missing_names": traced[0]["trace"]["missing"],
            "untraced_verify_s": untraced_s, "metrics": metrics,
            "per_identity": per_identity}


def environment(seed: int, child_env: dict) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    return {"python": child_env["python"], "numpy": child_env["numpy"],
            "blas": child_env["blas"], "nproc": os.cpu_count(),
            "blas_threads": PINNED_ENV["OPENBLAS_NUM_THREADS"],
            "pythonhashseed": PINNED_ENV["PYTHONHASHSEED"],
            "commit": commit or "unknown", "seed": seed}


def summary_lines(workload: str, res: dict, traced: bool) -> list[str]:
    suites, expected = WORKLOADS[workload]
    v = res["verdicts"]
    lines = [f"{workload}: suites {','.join(suites)}; "
             f"{v['attempted'] // expected} interpreter(s) of {expected} "
             f"identities, {v['attempted'] - v['failed']}/{v['attempted']} "
             f"verdicts pass, reports "
             f"{'identical' if v['reports_identical'] else 'DIFFER'}"]
    if traced:
        if res["unrepeated_counts"]:
            lines.append("  counts that did not repeat (reported as medians): "
                         + ", ".join(res["unrepeated_counts"]))
        if res["missing_names"]:
            lines.append("  names not found, so not traced: "
                         + ", ".join(res["missing_names"]))
        for name, m in res["metrics"].items():
            lines.append(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
        return lines
    for name, values in res["samples"].items():
        q1, med, q3 = quartiles(values)
        lines.append(f"  {name:<13} {med:>10.4f} {res['metrics'][name]['unit']:<3}"
                     f" median of {len(values)}, quartiles {q1:.4f} .. {q3:.4f}")
    lines.append(f"  failed_ratio  {res['failed_ratio']:>10.4f} ratio"
                 f" ({v['failed']} of {v['attempted']} verdicts not pass)")
    lines.append(f"  pass_ratio    {res['metrics']['pass_ratio']['value']:>10.4f}"
                 f" ratio")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=44.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", metavar="PATH",
                    help="write the full record (environment, samples, "
                         "per-identity trace) as JSON for bench/compare.py")
    ns = ap.parse_args(argv)
    names = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
    results = {}
    try:
        for w in names:
            results[w] = (measure_traced(w, ns.seed) if ns.trace
                          else measure(w, ns.seed, ns.seconds))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment(ns.seed, results[names[0]]["env"])
    print("environment " + json.dumps(env, sort_keys=True))
    for w in names:
        print("\n".join(summary_lines(w, results[w], bool(ns.trace))))
    if ns.out:
        record = {"environment": env, "trace": ns.trace,
                  "seconds": ns.seconds, "workloads": results}
        Path(ns.out).parent.mkdir(parents=True, exist_ok=True)
        Path(ns.out).write_text(json.dumps(record, indent=1, sort_keys=True))
    prefix = (lambda w: "") if len(names) == 1 else (lambda w: f"{w}.")
    verdicts = [results[w]["verdicts"] for w in names]
    line = {
        "correct": all(v["correct"] for v in verdicts),
        "attempted": sum(v["attempted"] for v in verdicts),
        "failed": sum(v["failed"] for v in verdicts),
        "metrics": {prefix(w) + name: m for w in names
                    for name, m in results[w]["metrics"].items()},
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
