"""Host-speed reference: a fixed kernel timed on the benchmark's own CPU
while the workload runs.

The shared hosts this benchmark runs on change speed by half again and at
times by more than twice, in stretches that last from seconds to minutes,
with wall time equal to CPU time and no steal time to show for it; the two
vCPUs of one machine drift apart (see NOTES.md, Machine noise). So the runner
pins itself, and with it every command it starts, to one CPU, and runs this
file as a sampler process on the same CPU: every ``INTERVAL_S`` it runs
``kernel()`` once and records its thread CPU time, which leaves out the time
the workload holds the CPU. Each timed stretch (a set-up, an operation, or a
part of one: a pipeline command, a sweep episode) is then scaled by
``NOMINAL_S`` over the median kernel time of the samples taken during it:
seconds at the speed the kernel has when it takes ``NOMINAL_S``. The kernel never calls the program, so a
change to the program moves the scaled times as it moves the raw ones; raw
seconds stay in the detail line. The sampler takes about 5% of the CPU.

    python3 perfbench/speed.py <cpu>

samples until its standard input closes, then prints the samples as JSON.

The kernel mixes what the workloads spend their time on: interpreter work
with floats, dicts and ``repr`` (env bookkeeping, CSV writing), batch-of-four
matrix products with ``tanh`` (the MLP), and passes over long vectors (the
indicators).
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# Median kernel time (seconds) on the machine in NOTES.md.
NOMINAL_S = 0.005
INTERVAL_S = 0.1
MIN_SAMPLES = 3  # a stretch with fewer samples uses the nearest ones
STOP_TIMEOUT_S = 30

_rng = np.random.default_rng(20_240_709)
_X = _rng.standard_normal((4, 301))
_W = _rng.standard_normal((301, 64))
_SERIES = _rng.standard_normal(20_000)
_VALUES = _rng.standard_normal(300).tolist()


def kernel() -> float:
    """About 5 ms on the machine in NOTES.md, a quarter in each part."""
    acc, table, chars = 0.0, {}, 0
    for _ in range(20):
        for i, v in enumerate(_VALUES):
            acc += v * 0.5 - acc * 1e-3
            table[i & 63] = acc
    for _ in range(5):
        chars += len(",".join(repr(v) for v in _VALUES))
    for _ in range(150):
        acc += float(np.tanh(_X @ _W)[0, 0])
    for _ in range(12):
        acc += float(np.cumsum(np.abs(np.diff(_SERIES)))[-1])
    return acc + chars


def bench_cpu() -> int:
    """The CPU the benchmark and its sampler share: the last one allowed."""
    return max(os.sched_getaffinity(0))


class Sampler:
    """The sampler process, started on ``cpu``; ``stop()`` ends it and keeps
    its samples as (start, end, kernel CPU seconds) rows."""

    def __init__(self, cpu: int):
        self.samples = []
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), str(cpu)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline() != "ready\n":
            self.stop()
            raise RuntimeError("speed sampler did not start")

    def stop(self) -> None:
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        try:
            out, _ = proc.communicate(input="", timeout=STOP_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if proc.returncode == 0 and out.strip():
            self.samples = [tuple(row) for row in json.loads(out)]

    def factor(self, t0: float, t1: float) -> float:
        """``NOMINAL_S`` over the median kernel time of the samples taken
        between ``t0`` and ``t1``, or of the ``MIN_SAMPLES`` nearest."""
        if not self.samples:
            raise RuntimeError("no speed samples")
        mid = [((start + end) / 2, cpu) for start, end, cpu in self.samples]
        inside = [cpu for m, cpu in mid if t0 <= m <= t1]
        if len(inside) < MIN_SAMPLES:
            centre = (t0 + t1) / 2
            inside = [cpu for _, cpu in sorted(mid, key=lambda row: abs(row[0] - centre))[:MIN_SAMPLES]]
        return NOMINAL_S / statistics.median(inside)

    def summary(self) -> dict:
        values = [cpu for _, _, cpu in self.samples]
        if not values:
            return {"samples": 0}
        return {"nominal_s": NOMINAL_S, "interval_s": INTERVAL_S, "samples": len(values),
                "median_s": statistics.median(values), "min_s": min(values), "max_s": max(values)}


def sample_until_stdin_closes() -> list:
    kernel()
    print("ready", flush=True)
    rows = []
    while True:
        began, cpu = time.perf_counter(), time.thread_time()
        kernel()
        rows.append((began, time.perf_counter(), time.thread_time() - cpu))
        if select.select([sys.stdin], [], [], INTERVAL_S)[0]:
            return rows


if __name__ == "__main__":
    os.sched_setaffinity(0, {int(sys.argv[1])})
    print(json.dumps(sample_until_stdin_closes()))
