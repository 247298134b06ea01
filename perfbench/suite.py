"""Run every benchmark workload over a range of seeds and summarise the runs.

    python3 perfbench/suite.py --seeds 1-10 --out .bench_results/mine
    python3 perfbench/suite.py --seeds 11 --trace          # one traced run each

Each (workload, seed) is one ``run.py`` invocation, run one after another,
for every workload in BENCHMARK.json.
The summary prints, per workload, every metric by name and unit with its
median, quartiles and quartile spread as a share of the median; an
end-to-end metric whose spread reaches a third of its bound is flagged.
``--baseline FILE`` also writes the per-seed values, the output digests and
(with ``--trace``) the per-layer table of the first seed to FILE, the form
``compare.py`` and ``workload.py`` read.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import load, metric_specs, quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(results: Path):
    runs = load(results)
    specs = metric_specs(runs)
    units = {}
    for path in results.glob("*-seed*.json"):
        units.update((k, v["unit"]) for k, v in json.loads(path.read_text())["metrics"].items())
    for workload, by_seed in sorted(runs.items()):
        print(f"\n{workload}: {len(by_seed)} runs, seeds {sorted(by_seed)}")
        names = sorted({n for m in by_seed.values() for n in m})
        for name in names:
            values = [m[name] for m in by_seed.values() if name in m]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            _, bound = specs[name]
            flag = ""
            if bound is not None and spread >= bound / 3:
                flag = f"  <-- spread over a third of bound {bound}"
            print(f"  {name:24} {med:12.6g} {units[name]:7} [{q1:.6g}, {q3:.6g}] "
                  f"spread {spread:6.2%}{flag}")


def write_baseline(results: Path, path: Path):
    records = [json.loads(p.read_text()) for p in sorted(results.glob("*-seed*.json"))]
    plain = [r for r in records if not r["trace"]]
    traced = [r for r in records if r["trace"]]
    baseline = {
        "env": plain[0]["env"] if plain else None,
        "runs": {w: {str(s): m for s, m in seeds.items()}
                 for w, seeds in load(results).items()},
        "outputs_sha256": {},
        "per_layer": {},
    }
    for r in plain:
        baseline["outputs_sha256"].setdefault(r["workload"], {})[str(r["seed"])] = (
            r["outputs"]["sha256"])
    for r in sorted(traced, key=lambda r: r["seed"], reverse=True):
        baseline["per_layer"][r["workload"]] = {
            "seed": r["seed"], **{k: v["value"] for k, v in sorted(r["layers"].items())}}
    path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="11", help="e.g. 1-10 or 3,5,11")
    p.add_argument("--trace", action="store_true", help="pass --trace 1 to run.py")
    p.add_argument("--out", default=str(ROOT / ".bench_results" / "suite"))
    p.add_argument("--baseline", help="also write a baseline file here")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = Path(args.out)
    for seed in _seeds(args.seeds):
        for workload in (w["name"] for w in spec["workloads"]):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]),
                   "--trace", "1" if args.trace else "0", "--results", str(out)]
            cmd[0] = sys.executable
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed {seed}: exit {proc.returncode} {last[0][:160]}",
                  flush=True)
    summarise(out)
    if args.baseline:
        write_baseline(out, Path(args.baseline))
    return 0


if __name__ == "__main__":
    sys.exit(main())
