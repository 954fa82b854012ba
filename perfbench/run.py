"""Seeded benchmark for tradelab: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload pipeline-paper --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with nothing wrapped. Every
time and every rate is scaled to the host's speed, measured by a fixed kernel
that a sampler process times on the same CPU while the workload runs
(``speed.py``): the shared hosts this runs on change speed by half again or
more for seconds to minutes at a time. The run, the commands it starts and
the sampler are pinned to one CPU. The detail line has the raw figures too.
``--trace 1`` runs the workload untraced, then once more with spans around
every layer's public functions, and reports the per-layer metrics plus the
tracing overhead (traced minus untraced). Every run checks its outputs
(accounting invariants of every episode log, artifact sha256 digests against
``golden/``) and prints one detail line, then the result line:

    {"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}

Work files go to ``.perfbench/`` at the checkout root; the detail record of
each run is kept under ``.perfbench/results/`` and the spans of each traced
run under ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
END_TO_END = (("op_s", "s", "lower"), ("env_steps_per_s", "1/s", "higher"),
              ("setup_s", "s", "lower"), ("peak_rss_mb", "MB", "lower"))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread unless the caller asked for more, never above nproc.
    The MLP matrices are tiny, and a fixed thread count keeps runs steady on
    a shared machine. Takes effect only if numpy is not imported yet; child
    processes inherit it."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        asked = os.environ.get(var, "")
        os.environ[var] = str(min(int(asked), nproc)) if asked.isdigit() and int(asked) > 0 else "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["pipeline-paper", "train-wide", "backtest-sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["paper", "tiny"], default="paper",
                        help="tiny sizes exist for the benchmark's self-tests")
    parser.add_argument("--record-golden", action="store_true",
                        help="store this run's artifact digests as the golden ones for its seed")
    return parser.parse_args(argv)


def summarize(values, better: str) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it
    (on the slow side), with the sample count."""
    import numpy as np

    out = {"median": statistics.median(values), "min": min(values), "max": max(values),
           "samples": len(values), "tail": None}
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (100.0 - pct) / 100.0 >= 10:
            q = pct if better == "lower" else 100.0 - pct
            out["tail"] = {"percentile": pct, "value": float(np.percentile(values, q))}
            break
    return out


def machine_info() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        **git_info(),
    }


def git_info() -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)

    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return {"git_commit": None, "git_dirty": None}
        status = git("status", "--porcelain", "--untracked-files=no")
        return {"git_commit": git("rev-parse", "HEAD").stdout.strip(), "git_dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        return {"git_commit": None, "git_dirty": None}


def failure(message: str, elapsed: float = 0.0):
    from workloads import OpResult

    return OpResult(elapsed, [], 1, problems=[message])


def run_op(workload, **kwargs):
    """One closed-loop operation; an exception is a failure, not a crash."""
    began = time.perf_counter()
    try:
        result = workload.op(**kwargs)
    except Exception as exc:  # the run must still report what it attempted
        result = failure(f"op raised {exc!r}", time.perf_counter() - began)
    result.window = (began, time.perf_counter())
    return result


def at_speed(result, sampler) -> dict:
    """An operation's figures at the reference speed, stretch by stretch
    where the operation has them, else as a whole."""
    if result.parts:
        op_s, rates, stages = result.figures([(t1 - t0) * sampler.factor(t0, t1) for t0, t1 in result.parts])
        return {"op_s": op_s, "rates": rates, "stages": stages}
    return scaled(result, sampler.factor(*result.window))


def scaled(result, factor: float) -> dict:
    """An operation's figures at the reference speed: seconds times the
    factor, rates divided by it."""
    return {
        "op_s": result.op_s * factor,
        "rates": [rate / factor for rate in result.rates],
        "stages": {k: v / factor if k.endswith("_per_s") else v * factor for k, v in result.stages.items()},
    }


def split_digests(digests: dict, prefix: str) -> dict:
    return {k: v for k, v in digests.items() if k.startswith(prefix)}


def check_digests(results: list, final, golden: dict | None) -> None:
    """Every op of a group writes the same artifacts: compare each op's with
    the group's golden digests, or with the group's first op when this seed
    has none recorded."""
    import checks

    firsts = {}
    for r in results:
        reference = split_digests(golden, r.group) if golden is not None else firsts.setdefault(r.group, r.digests)
        r.problems += checks.compare_digests(r.digests, reference)
    if final is not None and golden is not None:
        final.problems += checks.compare_digests(final.digests, {
            k: v for k, v in golden.items() if not k.startswith("op/")})


def tally(ops: list) -> tuple:
    """(attempted, failed, problems): an operation with any problem is one failure."""
    attempted = sum(r.attempted for r in ops)
    failed = sum(min(len(r.problems), r.attempted) for r in ops)
    return attempted, failed, [p for r in ops for p in r.problems]


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    # a terminated run still stops and waits for the command it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "tradelab" / "__init__.py").is_file():
        print(f"error: no tradelab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import tradelab

    if Path(tradelab.__file__).resolve().parent != ROOT / "src" / "tradelab":
        print(f"error: imported tradelab from {tradelab.__file__}, not this checkout", file=sys.stderr)
        return 2
    import checks
    import speed
    import tracing
    from workloads import WORKLOADS

    work = ROOT / ".perfbench" / f"{args.workload}-{args.scale}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](ROOT, work, args.seed, args.scale)

    cpu = speed.bench_cpu()
    os.sched_setaffinity(0, {cpu})  # the commands a pipeline starts inherit it
    sampler = speed.Sampler(cpu)
    try:
        setups = []  # (start, end)
        for _ in range(1 if args.trace or args.record_golden else SETUP_REPEATS):
            began = time.perf_counter()
            workload.setup()
            setups.append((began, time.perf_counter()))

        golden = None if args.record_golden else checks.golden_entry(args.workload, args.scale, args.seed)
        results = []
        deadline = time.perf_counter() + args.seconds
        while True:
            results.append(run_op(workload))
            if time.perf_counter() >= deadline and len(results) >= workload.min_ops:
                break
        try:
            final = workload.finish()
        except Exception as exc:  # a failed final check is counted like any other failure
            final = failure(f"final check raised {exc!r}")

        check_digests(results, final, golden)

        traced_run = trace_once(workload, ROOT / ".perfbench" / "traces" / work.name, results) if args.trace else None
        peak = [peak_rss_mb(workload.in_process)]  # before the sampler ends and counts as a waited-for child
    finally:
        sampler.stop()

    per_layer, results_traced = None, []
    if traced_run is not None:
        per_layer, traced, missing = traced_metrics(*traced_run, results, sampler)
        results_traced.append(traced)

    attempted, failed, problems = tally(results + results_traced + ([final] if final is not None else []))

    per_op = [at_speed(r, sampler) for r in results]
    samples = {
        "op_s": [s["op_s"] for s in per_op],
        "env_steps_per_s": [rate for s in per_op for rate in s["rates"]],
        "setup_s": [(t1 - t0) * sampler.factor(t0, t1) for t0, t1 in setups],
        "peak_rss_mb": peak,
    }
    raw_samples = {
        "op_s": [r.op_s for r in results],
        "env_steps_per_s": [rate for r in results for rate in r.rates],
        "setup_s": [t1 - t0 for t0, t1 in setups],
        "peak_rss_mb": peak,
    }
    end_to_end, end_to_end_raw = ({name: {"unit": unit, **summarize(values[name] or [0.0], better)}
                                   for name, unit, better in END_TO_END} for values in (samples, raw_samples))
    stages = stage_summaries([s["stages"] for s in per_op])
    stages_raw = stage_summaries([r.stages for r in results])

    if args.record_golden and not problems:
        digests = {k: v for r in reversed(results) for k, v in r.digests.items()}  # each group's first op
        digests.update(final.digests if final is not None else {})
        checks.record_golden(args.workload, args.scale, args.seed, digests)

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "machine": machine_info(), "properties": workload.properties(),
        "ops": len(results), "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted if attempted else 0.0,
        "failures": problems[:20],
        "golden": "recording" if args.record_golden else ("compared with golden/" if golden is not None
                                                          else "no golden digests for this seed; ops compared with the first op"),
        "end_to_end": end_to_end, "stages": stages, "speed": {"cpu": cpu, **sampler.summary()},
        "end_to_end_raw": end_to_end_raw, "stages_raw": stages_raw,
    }
    if per_layer is not None:
        detail["per_layer"] = per_layer
        detail["properties"]["build_features_calls_per_traced_op"] = per_layer["indicators.build_features_calls"]
        detail["trace_missing"] = missing
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-{args.scale}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        units = dict((name, unit) for name, unit in tracing.per_layer_names())
        metrics = {name: {"value": per_layer[name], "unit": units[name]} for name in units}
    else:
        metrics = {name: {"value": end_to_end[name]["median"], "unit": unit} for name, unit, _ in END_TO_END}
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def stage_summaries(per_op: list) -> dict:
    out = {}
    for key in sorted({k for stages in per_op for k in stages}):
        unit = "1/s" if key.endswith("_per_s") else "s"
        values = [stages[key] for stages in per_op if key in stages]
        out[key] = {"unit": unit, **summarize(values, "higher" if unit == "1/s" else "lower")}
    return out


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def trace_once(workload, trace_dir: Path, untraced: list):
    """One traced operation (in-process workloads: set-up included) after the
    untraced loop. Spans are written to ``trace_dir`` once it has ended.
    Returns the traced op's result and its span summary."""
    import checks
    import tracing

    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    summary = tracing.Summary()
    if workload.in_process:
        tracer = tracing.Tracer(run_id=1)
        tracer.install()
        began = time.perf_counter()
        try:
            workload.setup()
            traced = run_op(workload)
        finally:
            wall = time.perf_counter() - began
            tracer.uninstall()
        tracer.dump(trace_dir / "spans.json")
        summary.add(tracer.arrays(), wall)
    else:
        traced = run_op(workload, trace_dir=trace_dir, summary=summary)
    # tracing must not change, add or remove a single artifact
    traced.problems += [f"traced run: {p}" for p in checks.compare_digests(
        split_digests(traced.digests, "op/"), split_digests(untraced[0].digests, "op/"))]
    return traced, summary


def traced_metrics(traced, summary, untraced: list, sampler):
    """The per-layer metrics, the traced op's result and the traced names
    the program no longer has. The overheads compare figures scaled to the
    reference speed."""
    traced_at_speed = at_speed(traced, sampler)
    untraced = [at_speed(r, sampler) for r in untraced]
    rates = [rate for r in untraced for rate in r["rates"]]
    overhead_rate = (statistics.median(rates) - statistics.median(traced_at_speed["rates"])
                     if rates and traced_at_speed["rates"] else 0.0)
    overhead_op = traced_at_speed["op_s"] - statistics.median(r["op_s"] for r in untraced)
    return summary.metrics(overhead_op, overhead_rate), traced, sorted(summary.missing)


if __name__ == "__main__":
    sys.exit(main())
