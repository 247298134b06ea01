"""pkwbench benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload forest-matrix --seed 11 --seconds 10 --trace 0

Run from anywhere; the program is built from ``src/`` next to this
directory.  The launcher pins BLAS to one thread, pins itself and its
children to the first of at most two CPUs it may use (the geometry
workload's ``--jobs`` stages widen to both), and starts a CPU-speed probe
(``probe.py``) on each of those CPUs.  It measures set-up several times in
fresh interpreters, then runs the workload once in a fresh interpreter
(``workload.py``).  The gated timings are in reference seconds: each timed
interval scaled by the probes' readings over it, so that the host's speed
drift cancels out.  With ``--trace 1`` it also runs the workload traced and
prints the per-layer metrics instead of the end-to-end ones; the tracing
overhead is the traced run's wall time minus the untraced one's.

Every workload does a fixed amount of work; ``--seconds`` is recorded, not
used.  Every metric is printed as ``name value unit`` and the last line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The run
records (and the traced run's spans) are kept under ``--results``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 8  # plus the measured run's own set-up
MAX_JOBS = 2
RUN_LIMIT_S = 170.0  # every run must end within 180 s


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _child_env() -> dict:
    # One BLAS thread: the network's matrices are too small for a second
    # thread to shorten the fit, and its wake-ups spread the timings.
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _spawn(args, cpus, work: Path, tag: str, deadline: float, extra=()):
    """Run workload.py once in a fresh interpreter; return its record."""
    workspace = work / tag
    record = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--cpus", ",".join(map(str, cpus)),
           "--workspace", str(workspace), "--record", str(record), *extra]
    start = time.monotonic()
    # stdout of the CLI goes to our stderr, so the last stdout line stays ours
    proc = subprocess.run([*cmd, "--start", repr(start)], env=_child_env(),
                          stdout=sys.stderr, timeout=max(1.0, deadline - time.time()))
    shutil.rmtree(workspace, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(record.read_text())


def _measure(args, cpus, work: Path, deadline: float):
    """Set-up runs and the untraced run, with a speed probe on every CPU.

    Returns the run record with ``setup_s`` (median of the set-ups),
    ``bench_ref_s`` and ``train_ref_s`` (sums of the bench and the train
    intervals) in reference seconds.
    """
    probes = []
    try:
        for cpu in cpus:
            out = work / f"probe{cpu}.json"
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "probe.py"), "--cpu", str(cpu), "--out", str(out)],
                env=_child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            probes.append((cpu, proc, out))
            if proc.stdout.readline().strip() != "ready":
                raise RuntimeError(f"speed probe on CPU {cpu} did not start")
        setups = [_spawn(args, cpus, work, f"setup{k}", deadline, ["--setup-only"])
                  for k in range(SETUP_RUNS)]
        record = _spawn(args, cpus, work, "run", deadline)
    finally:
        for _, proc, _ in probes:
            proc.stdin.close()
        for _, proc, _ in probes:
            proc.wait(timeout=10)
    samples = {cpu: json.loads(out.read_text()) for cpu, _, out in probes}

    def ref_s(intervals):
        return [reference_seconds(start, end, [s for c in on for s in samples[c]])
                for start, end, on in intervals]

    setups.append(record)
    record["setup_wall_s"] = [r["setup_s"] for r in setups]
    record["setup_ref_s"] = [ref_s(r["intervals"]["setup"])[0] for r in setups]
    metrics = record["metrics"]
    metrics["setup_s"]["value"] = statistics.median(record["setup_ref_s"])
    record["ref_s"] = {name: ref_s(record["intervals"][name]) for name in ("bench", "train")}
    metrics["bench_ref_s"] = {"value": sum(record["ref_s"]["bench"]), "unit": "s"}
    metrics["train_ref_s"] = {"value": sum(record["ref_s"]["train"]), "unit": "s"}
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="recorded only: every workload does a fixed amount of work")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=str(ROOT / ".bench_results" / "latest"),
                   help="directory that keeps the run records")
    args = p.parse_args(argv)

    deadline = time.time() + RUN_LIMIT_S
    if not (ROOT / "src" / "pkwbench" / "cli.py").exists():
        print(f"no pkwbench source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = _spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    cpus = sorted(os.sched_getaffinity(0))[:MAX_JOBS]
    os.sched_setaffinity(0, cpus[:1])
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        record = _measure(args, cpus, work, deadline)
        record["seconds"] = args.seconds
        name = f"{args.workload}-seed{args.seed}"
        if args.trace:
            spans = results / f"{name}-spans.csv.gz"
            traced = _spawn(args, cpus, work, "traced", deadline,
                            ["--trace", "--spans", str(spans)])
            traced["layers"]["trace.overhead_s"] = {
                "value": traced["wall_s"] - record["wall_s"], "unit": "s"}
            (results / f"{name}-traced.json").write_text(json.dumps(traced, indent=1))
        (results / f"{name}.json").write_text(json.dumps(record, indent=1))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        wanted, source = spec["per_layer"], traced["layers"]
        correct = record["correct"] and traced["correct"]
    else:
        wanted, source = spec["end_to_end"], record["metrics"]
        correct = record["correct"]
    for name, m in sorted(record["metrics"].items()):
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    if args.trace:
        for name, m in sorted(source.items()):
            print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} checks {json.dumps(record['checks'], sort_keys=True)}")
    print(f"{args.workload} failed_ids {json.dumps(record['failed_ids'], sort_keys=True)}")
    print(f"{args.workload} outputs {json.dumps(record['outputs'], sort_keys=True)}")
    metrics = {m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
