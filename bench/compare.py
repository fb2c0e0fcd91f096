"""Compare two records written by `bench/run.py --out`, metric by metric.

    python3 bench/compare.py BASE.json NEW.json

For every workload and metric found in both records it prints both values
and the relative change.  End-to-end metrics also get a verdict against
their bound in BENCHMARK.json: a change worse than the bound, in the
metric's `better` direction, is a regression.  The exit status is 1 if any
metric regressed, else 0.  Environment fields that differ between the two
records are listed first, because such a comparison is not like for like.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def verdict(rule: dict, change: float | None) -> str:
    if "bound" not in rule or change is None:
        return ""
    worse_by = change if rule["better"] == "lower" else -change
    return "REGRESSION" if worse_by > rule["bound"] else "within bound"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    env_a, env_b = base["environment"], new["environment"]
    for key in sorted(set(env_a) | set(env_b)):
        if env_a.get(key) != env_b.get(key):
            print(f"environment {key}: {env_a.get(key)} -> {env_b.get(key)}")
    regressions = 0
    print(f"{'workload':<8} {'metric':<44} {'unit':<6} {'base':>14} "
          f"{'new':>14} {'change':>8}")
    for w in sorted(set(base["workloads"]) & set(new["workloads"])):
        ma = base["workloads"][w]["metrics"]
        mb = new["workloads"][w]["metrics"]
        for name in ma:
            if name not in mb:
                continue
            a, b = ma[name]["value"], mb[name]["value"]
            change = (b - a) / a if a else None
            v = verdict(rules.get(name, {}), change)
            regressions += v == "REGRESSION"
            shown = f"{change:+.1%}" if change is not None else "-"
            print(f"{w:<8} {name:<44} {ma[name]['unit']:<6} {a:>14.6g} "
                  f"{b:>14.6g} {shown:>8} {v}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
