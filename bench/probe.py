"""Speed probe: how fast one vCPU runs at each moment of a benchmark run.

    python3 bench/probe.py --cpu N --period S --out FILE

Pins itself to CPU ``N``. Every ``--period`` seconds it wakes, times a
fixed kernel of small FFTs and keeps ``(monotonic time, kernel seconds)``.
It prints ``ready`` once it is warm. It stops when its standard input
reaches end of file (the parent closed it or exited), writes the samples to
``--out`` as JSON and exits with 0.

On a shared host each vCPU switches between a fast and a slow state (about
1.9x apart, lasting from seconds to minutes, independently on each vCPU),
so the same work can take very different wall times. ``speed.py`` uses the
samples to convert a measured interval into seconds at a fixed nominal
speed. The probe and the process it watches share the CPU, so the kernel
is kept short (about 0.5 ms per sample).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import sys
import time

REPEATS = 3  # a sample is the fastest of this many back-to-back kernels


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--period", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})

    import numpy as np
    import scipy.fft

    a = np.random.default_rng(0).standard_normal((64, 128)).view(np.complex128)

    def kernel() -> float:
        t0 = time.perf_counter()
        for _ in range(2):
            scipy.fft.ifft2(scipy.fft.fft2(a, workers=1) * a, workers=1)
        return time.perf_counter() - t0

    for _ in range(50):
        kernel()
    print("ready", flush=True)
    samples = []
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], args.period)
        if ready and not sys.stdin.buffer.read1(4096):
            break
        t = time.monotonic()
        samples.append((t, min(kernel() for _ in range(REPEATS))))
    with open(args.out, "w") as fh:
        json.dump({"cpu": args.cpu, "period": args.period, "samples": samples}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
