"""Compare two result sets of the benchmark, such as a parent commit and a change.

    python3 perfbench/compare.py PARENT CHANGE

Each side is a results directory written by ``run.py``/``suite.py`` (one
``<workload>-seed<n>.json`` record per run) or a baseline file written by
``suite.py --baseline``.  Runs are paired by workload and seed.  For every
workload and metric the report gives each side's median and quartiles, the
change's win share over the pairs, and a verdict:

- ``better``: the change wins at least 90% of the pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  spread;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound (without a bound: the change loses at least 90% of
  the pairs and the medians differ by more than the parent's spread);
- ``unresolved``: the parent's own spread is wider than the bound and not
  every change run beats every parent run, or the metric has no bound and
  none of the above holds;
- ``unchanged``: every pair ties, or none of the above holds.

End-to-end metrics take their direction and bound from BENCHMARK.json.  Every
other metric in the run records is compared too, without a bound; rates
(``*_per_s``) and ``id_r2`` count higher as better, all others lower.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WIN_SHARE = 0.9


def _better(name: str) -> str:
    return "higher" if "per_s" in name or name.endswith("r2") else "lower"


def metric_specs(runs=None):
    """name -> (better, bound or None): the end-to-end metrics of
    BENCHMARK.json first, then every other metric found in ``runs``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    for by_seed in (runs or {}).values():
        for metrics in by_seed.values():
            for name in sorted(metrics):
                out.setdefault(name, (_better(name), None))
    return out


def load(path) -> dict:
    """{workload: {seed: {metric: value}}} from a results dir or baseline file."""
    path = Path(path)
    if path.is_file():
        return {w: {int(s): m for s, m in runs.items()}
                for w, runs in json.loads(path.read_text())["runs"].items()}
    out: dict = {}
    for rec_path in sorted(path.glob("*-seed*.json")):
        if rec_path.stem.endswith("-traced"):
            continue
        rec = json.loads(rec_path.read_text())
        out.setdefault(rec["workload"], {})[rec["seed"]] = {
            k: v["value"] for k, v in rec["metrics"].items()}
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Verdict and win share of paired runs; see the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    share = wins / len(pairs)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (cm - pm)
    spread = p3 - p1
    if wins == losses == 0:
        return "unchanged", share
    if share >= WIN_SHARE and gain > spread:
        return "better", share
    if bound is None:
        if losses / len(pairs) >= WIN_SHARE and -gain > spread:
            return "worse", share
        return "unresolved", share
    if -gain > bound * abs(pm):
        return "worse", share
    if spread > bound * abs(pm) and not (
            min(sign * c for c in change) > max(sign * p for p in parent)):
        return "unresolved", share
    return "unchanged", share


def compare(parent: dict, change: dict):
    specs = metric_specs(parent)
    rows = []
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        for name, (better, bound) in specs.items():
            seeds_m = [s for s in seeds if name in parent[workload][s]
                       and name in change[workload][s]]
            if not seeds_m:
                continue
            p = [parent[workload][s][name] for s in seeds_m]
            c = [change[workload][s][name] for s in seeds_m]
            result, share = verdict(p, c, better, bound)
            rows.append((workload, name, len(seeds_m), quartiles(p),
                         quartiles(c), share, result))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    print(f"{'workload':18} {'metric':22} {'n':>2}  "
          f"{'parent median [q1, q3]':34} {'change median [q1, q3]':34} {'wins':>5}  verdict")
    for workload, name, n, (p1, pm, p3), (c1, cm, c3), share, result in rows:
        print(f"{workload:18} {name:22} {n:2d}  "
              f"{pm:10.4g} [{p1:9.4g}, {p3:9.4g}]  {cm:10.4g} [{c1:9.4g}, {c3:9.4g}]  "
              f"{share:5.0%}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
