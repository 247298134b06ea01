"""CPU-speed probe: time a fixed chunk of work on one CPU, 40 times a second.

    python3 perfbench/probe.py --cpu 0 --out probe0.json

The host the benchmark was built on is a shared VM whose CPU speed drifts
by up to 1.7x over seconds to minutes, with the program unchanged.  The probe
pins itself to ``--cpu``, runs a ~0.4 ms chunk of interpreter and small-numpy
work (the kind of work the program does), sleeps ``PERIOD_S`` and repeats
until its standard input closes; it prints ``ready`` after its first chunk.  It then writes ``[[mid, duration], ...]``
(``time.monotonic`` seconds, the same clock in every process) to ``--out``.
``reference_seconds`` turns a wall-clock interval into reference seconds: the
time the interval would have taken had every chunk inside it taken
``REF_CHUNK_S``.  It costs the measured process about 1.5% of its CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import sys
import time

import numpy as np

PERIOD_S = 0.025
CHUNK_ITERS = 25
# Nominal chunk time: about the chunk's fastest steady time on the build host,
# so reference seconds read close to wall seconds on an idle host.
REF_CHUNK_S = 3.5e-4
# An interval shorter than the probe period borrows its nearest samples.
MIN_SAMPLES = 3


def chunk(a, b):
    s = 0.0
    for _ in range(CHUNK_ITERS):
        order = np.argsort(a, kind="stable")
        s += float(np.cumsum(a[order])[-1])
        s += float((b @ b)[0, 0])
        s += sum(i * i for i in range(20))
    return s


def reference_seconds(start, end, samples):
    """Wall interval ``[start, end]`` in reference seconds.

    ``samples`` are ``(mid, duration)`` pairs from the probes on the CPUs the
    interval ran on.  Work done per second is proportional to 1/duration, so
    the interval is scaled by the time-mean of ``REF_CHUNK_S / duration``.
    """
    if not samples:
        raise RuntimeError("no probe samples")
    inside = [d for t, d in samples if start <= t <= end]
    if len(inside) < MIN_SAMPLES:
        mid = 0.5 * (start + end)
        inside = [d for _, d in sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]]
    return (end - start) * REF_CHUNK_S * sum(1.0 / d for d in inside) / len(inside)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--cpu", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    os.sched_setaffinity(0, {args.cpu})
    rng = np.random.default_rng(0)
    a = rng.random(64)
    b = rng.random((16, 16))
    samples = []
    first = True
    while True:
        t0 = time.monotonic()
        chunk(a, b)
        t1 = time.monotonic()
        samples.append((0.5 * (t0 + t1), t1 - t0))
        if first:
            print("ready", flush=True)
            first = False
        # standard input becomes readable only at EOF: the launcher is done
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break
    with open(args.out, "w") as fh:
        json.dump(samples, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
