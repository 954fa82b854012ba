"""Self-tests for the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

Tiny-scale runs only: each takes a few seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
            "--seconds", "0.01", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_declared_metric_with_its_unit(workload, trace):
    result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_declared_per_layer_metrics_match_the_tracer():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.per_layer_names()
    assert [m["name"] for m in SPEC["end_to_end"]] == [name for name, _, _ in run.END_TO_END]


def test_tampered_artifact_is_caught_and_counted_as_a_failure(tmp_path):
    sweep = workloads.BacktestSweep(ROOT, tmp_path, seed=0, scale="tiny")
    sweep.setup()
    first, second = sweep.op(), sweep.op()
    run.check_digests([first, second], None, None)
    assert run.tally([first, second])[1] == 0

    chart = sorted((tmp_path / "sweep").rglob("holdings.svg"))[0]
    data = bytearray(chart.read_bytes())
    data[len(data) // 2] ^= 0x01
    chart.write_bytes(bytes(data))
    second.digests = {f"op/{p}": d for p, d in checks.digest_tree(tmp_path / "sweep").items()}
    second.problems = []
    run.check_digests([first, second], None, None)
    attempted, failed, problems = run.tally([first, second])
    assert failed == 1 and attempted == 2 * (len(sweep.episodes()) + 1)
    assert len(problems) == 1 and chart.name in problems[0]


def test_broken_log_invariant_is_reported(tmp_path):
    sweep = workloads.BacktestSweep(ROOT, tmp_path, seed=0, scale="tiny")
    sweep.setup()
    log = workloads.trading.run_episode(workloads.policies.make_baseline("random"),
                                        workloads.trading.EnvConfig(), sweep.features, sweep.window, seed=0)
    assert checks.log_problems(log, workloads.HMAX, "ok") == []
    cash = log.cash.copy()
    cash[3] = -1.0
    bad = workloads.trading.EpisodeLog(log.timestamps, log.actions, log.holdings, cash, log.portfolio_value,
                                       log.rewards * 1.5, log.agent_label)
    problems = checks.log_problems(bad, workloads.HMAX, "bad")
    assert any("negative cash" in p for p in problems) and any("sum to" in p for p in problems)


def test_input_generator_is_byte_deterministic_per_seed(tmp_path):
    def generate(seed: int, name: str) -> dict:
        paths = inputs.write_market(inputs.make_market(seed, 3, 300, 0.01), tmp_path / name)
        return {key: path.read_bytes() for key, path in paths.items()}

    first, again, other = generate(5, "a"), generate(5, "b"), generate(6, "c")
    assert first == again
    assert first != other
    market = inputs.make_market(5, 3, 300, 0.01)
    assert market.keep[0].all() and 0.0 < market.dropped_fraction < 0.05


def test_traced_self_times_account_for_the_wall_time(tmp_path):
    train = workloads.TrainWide(ROOT, tmp_path, seed=0, scale="tiny")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        began = time.perf_counter()
        train.setup()
        result = train.op()
        wall = time.perf_counter() - began
    finally:
        tracer.uninstall()
    assert not hasattr(workloads.trading.TradingEnv.step, "__wrapped__")
    assert result.problems == [] and tracer.missing == []
    summary = tracing.Summary()
    summary.add(tracer.arrays(), wall)
    metrics = summary.metrics(0.0, 0.0)
    accounted = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    accounted += metrics["trace.bookkeeping_s"] + metrics["trace.untraced_s"]
    assert accounted == pytest.approx(wall, rel=1e-9)
    assert metrics["env.step_calls"] == workloads.SIZES["train-wide"]["tiny"]["budget"]
    assert metrics["indicators.build_features_calls"] == 1
    assert all(metrics[f"{layer}.self_s"] >= 0 for layer in tracing.LAYERS)


def test_sampler_runs_until_stopped_and_scales_by_the_samples_inside_a_stretch():
    sampler = speed.Sampler(speed.bench_cpu())
    time.sleep(0.5)
    sampler.stop()
    assert sampler.proc is None and len(sampler.samples) >= 3
    assert all(start < end and cpu > 0 for start, end, cpu in sampler.samples)

    sampler.samples = [(t, t + 0.01, 0.010 if 10 <= t < 20 else 0.005) for t in range(30)]
    assert sampler.factor(10.0, 19.0) == pytest.approx(speed.NOMINAL_S / 0.010)
    assert sampler.factor(25.0, 25.001) == pytest.approx(speed.NOMINAL_S / 0.005)  # the three nearest
    result = workloads.OpResult(2.0, [100.0], 1, {"a_s": 1.0, "b_per_s": 50.0})
    assert run.scaled(result, 0.5) == {"op_s": 1.0, "rates": [200.0], "stages": {"a_s": 0.5, "b_per_s": 100.0}}


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "train-wide", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
