"""One fresh interpreter of the verify benchmark.

    python3 bench/child.py MODE SEED SUITES

MODE is `env`, `setup`, `verify` or `trace`; SUITES is comma-separated.
The engine is driven only through its public API: `load_config`,
`context_from_config`, `run_verify` and `render_report` from
`gradedqft.cli`, with timings off.  The child prints `ready` once its
context is built, then one JSON line with its results.  run.py starts it
with PYTHONPATH pointing at the checkout's `src/` and the environment
pinned (hash seed, BLAS threads).
"""

from __future__ import annotations

import hashlib
import json
import platform
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(mode: str, seed: int, suites: list[str]) -> dict:
    from gradedqft import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"gradedqft imported from {cli.__file__}, not {SRC}")
    tracer = None
    if mode == "trace":
        from tracing import REPORT, VERIFY, Tracer
        tracer = Tracer()
        tracer.install()
    cfg = cli.load_config(None)
    cfg["run"]["seed"] = seed
    cli.context_from_config(cfg)
    print("ready", flush=True)
    if mode == "env":
        return environment()
    if mode == "setup":
        return {}

    if tracer:
        tracer.phase = VERIFY
        tracer.gc_on()
    t0 = time.perf_counter()
    report = cli.run_verify(cfg, suites, timings=False)
    verify_s = time.perf_counter() - t0
    if tracer:
        tracer.gc_off()
        tracer.phase = REPORT
    text = cli.render_report(report, "json")
    out = {
        "verify_s": verify_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "statuses": {e["identity"]: e["status"] for e in report["identities"]},
    }
    if tracer:
        out["trace"] = tracer.dump()
    return out


if __name__ == "__main__":
    result = main(sys.argv[1], int(sys.argv[2]), sys.argv[3].split(","))
    print(json.dumps(result))
