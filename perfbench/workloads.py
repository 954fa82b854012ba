"""The three closed-loop workloads, one client each.

Each workload has ``setup()`` (repeated by the runner to time it), ``op()``
(one closed-loop operation; returns timings, artifact digests and problems
found) and ``finish()`` (checks made once after the timed loop). The program
only ever sees the inputs generated from the workload seed.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import tradelab.agents.a2c as a2c
import tradelab.agents.policies as policies
import tradelab.env as trading
from tradelab import analytics, indicators, marketdata, svgchart

import checks
import inputs
import tracing

PIPELINE_COMMANDS = (
    ("ingest", []),
    ("features", []),
    ("simulate", ["--agent", "buy-and-hold"]),
    ("train", []),
    ("simulate", ["--agent", "out/a2c.ckpt"]),
    ("analyze", ["out/log_buy-and-hold.csv", "out/log_a2c.csv"]),
    ("report", ["out/report_a2c"]),
)
UNTRACED_ENTRY = ["-c", "from tradelab.cli import entrypoint; entrypoint()"]
COMMAND_TIMEOUT_S = 150
BASELINES = ("hold", "random", "buy-and-hold", "momentum")
HMAX = 100
TRAIN_SEEDS = 4  # train-wide cycles its a2c_train calls through this many training seeds

# Sizes per scale. "paper" is what the benchmark measures; "tiny" exists for
# the benchmark's own self-tests.
SIZES = {
    "pipeline-paper": {
        "paper": dict(tickers=30, bars=3500, drop=0.01, turb=252, split=0.8, budget=20_000),
        "tiny": dict(tickers=3, bars=400, drop=0.01, turb=40, split=0.8, budget=200),
    },
    "train-wide": {
        "paper": dict(tickers=30, bars=3500, drop=0.01, turb=252, split=0.8, budget=4_000),
        "tiny": dict(tickers=3, bars=400, drop=0.01, turb=40, split=0.8, budget=400),
    },
    "backtest-sweep": {
        "paper": dict(tickers=8, bars=2000, drop=0.01, turb=252, budget=5_000, episode_seeds=2),
        "tiny": dict(tickers=3, bars=400, drop=0.01, turb=40, budget=200, episode_seeds=1),
    },
}
CAPITALS = ((1_000_000.0, "1m"), (50_000.0, "50k"))


@dataclass
class OpResult:
    op_s: float
    rates: list  # env steps per second, one sample per timed stepping stretch
    attempted: int
    stages: dict = field(default_factory=dict)  # stage name -> seconds or rate
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    group: str = "op/"  # the digests are compared with the reference ones under this prefix
    window: tuple = ()  # perf_counter start and end of the operation, set by the runner
    # the timed stretches (start, end) and the function that turns their
    # durations into (op_s, rates, stages), for an operation the runner
    # should scale stretch by stretch rather than as a whole
    parts: list = field(default_factory=list)
    figures: Callable | None = None


def _split_index(timestamps: np.ndarray, market: inputs.Market, frac: float) -> int:
    boundary = market.timestamps[int(round(frac * len(market.timestamps)))]
    return int(np.searchsorted(timestamps, boundary, side="left"))


class Pipeline:
    """The seven CLI commands, each in its own child process, in user order."""

    name = "pipeline-paper"
    in_process = False
    min_ops = 1

    def __init__(self, root: Path, work: Path, seed: int, scale: str = "paper"):
        self.work, self.seed, self.size = work, seed, SIZES[self.name][scale]
        self.child_env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        self.market = None
        self.clipped = []

    def setup(self) -> None:
        """Generate the input files and config, and warm the interpreter's
        bytecode and file caches with one import of the CLI."""
        s = self.size
        market = inputs.make_market(self.seed, s["tickers"], s["bars"], s["drop"])
        shutil.rmtree(self.work / "inputs", ignore_errors=True)
        inputs.write_market(market, self.work / "inputs")
        split = inputs.iso_stamps(market.timestamps[[int(round(s["split"] * s["bars"]))]])[0]
        config = {
            "data": {t: f"inputs/{t}.csv" for t in market.tickers},
            "aux": {"vix": "inputs/vix.csv"},
            "tickers": list(market.tickers),
            "split": split,
            "align": "forward-fill",
            "indicators": {"turb_window": s["turb"]},
            "env": {"initial_capital": 1_000_000, "hmax": HMAX, "cost_rate": 0.001},
            "a2c": {"total_timesteps": s["budget"], "n_envs": 4, "n_steps": 5, "seed": self.seed},
            "seed": self.seed,
        }
        (self.work / "run.json").write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
        subprocess.run([sys.executable, "-c", "import tradelab.cli"], env=self.child_env, cwd=self.work,
                       check=True, timeout=COMMAND_TIMEOUT_S)
        self.market = market

    def properties(self) -> dict:
        s = self.size
        return {
            "tickers": s["tickers"], "bars": s["bars"], "obs_width": 1 + 10 * s["tickers"],
            "dropped_bar_fraction": self.market.dropped_fraction, "train_budget_steps": s["budget"],
            "turb_window": s["turb"], "split_fraction": s["split"], "align": "forward-fill",
            "env.cash_clipped_step_ratio": float(np.mean(self.clipped)) if self.clipped else None,
        }

    def op(self, trace_dir: Path | None = None, summary: tracing.Summary | None = None) -> OpResult:
        """Run the pipeline once; with ``trace_dir`` each command goes through
        the tracing shim and its spans are folded into ``summary``."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        parts, problems = [], []
        for k, (command, extra) in enumerate(PIPELINE_COMMANDS):
            args = [command, "--config", "run.json", "--out", "out", *extra]
            spans = None
            if trace_dir is None:
                argv = [sys.executable, *UNTRACED_ENTRY, *args]
            else:
                spans = trace_dir / f"{k}-{command}.json"
                argv = [sys.executable, str(Path(__file__).with_name("shim.py")), str(spans), repr(time.monotonic()), str(k), *args]
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(argv, env=self.child_env, cwd=self.work, capture_output=True, text=True,
                                      timeout=COMMAND_TIMEOUT_S)
                code, err = proc.returncode, proc.stderr
            except subprocess.TimeoutExpired:
                code, err = "timeout", ""
            parts.append((t0, time.perf_counter()))
            if code != 0:
                problems.append(f"{command} exited {code}: {err.strip()[-300:]}")
            elif spans is not None:
                doc = tracing.load_dump(spans)
                summary.add(doc, parts[-1][1] - t0, command=command, process_start=doc["entry"] - doc["spawn"])

        digests = {f"op/{path}": d for path, d in checks.digest_tree(out).items()} if out.exists() else {}
        steps, self.clipped = self.size["budget"], []
        for label in ("buy-and-hold", "a2c"):
            path = out / f"log_{label}.csv"
            try:
                log = trading.load_episode_log(path)
            except (OSError, ValueError, trading.EnvError) as exc:
                problems.append(f"log {path.name}: {exc!r}")
                continue
            problems += checks.log_problems(log, HMAX, path.name)
            steps += log.n_timestamps - 1
            self.clipped.append(checks.cash_clipped_steps(log, HMAX) / (log.n_timestamps - 1))

        def figures(walls):
            ingest, features, simulate1, train, simulate2, analyze, report = walls
            op_s = sum(walls)
            stages = {
                "pipeline_s": op_s, "ingest_s": ingest, "features_s": features, "simulate_s": simulate1 + simulate2,
                "train_s": train, "analyze_report_s": analyze + report,
            }
            return op_s, [steps / (simulate1 + train + simulate2)], stages

        op_s, rates, stages = figures([t1 - t0 for t0, t1 in parts])
        return OpResult(op_s, rates, len(PIPELINE_COMMANDS), stages, digests, problems, parts=parts, figures=figures)

    def finish(self) -> OpResult | None:
        return None


class _InProcess:
    """Shared set-up for the in-process workloads: an aligned, feature-built
    panel made from the generated market without touching CSV files."""

    in_process = True
    min_ops = 1

    def __init__(self, root: Path, work: Path, seed: int, scale: str = "paper"):
        self.work, self.seed, self.size = work, seed, SIZES[self.name][scale]
        self.market = self.features = self.policy = self.checkpoint = None

    def build_features(self):
        # drop the previous set-up's state first, so repeated set-ups do not
        # stack their memory into the reported peak
        self.market = self.features = self.policy = self.checkpoint = None
        gc.collect()
        s = self.size
        market = inputs.make_market(self.seed, s["tickers"], s["bars"], s["drop"])
        series = []
        for j, ticker in enumerate(market.tickers):
            kept = market.keep[:, j]
            series.append(marketdata.BarSeries(
                ticker=ticker, timestamps=market.timestamps[kept], open=market.open[kept, j],
                high=market.high[kept, j], low=market.low[kept, j], close=market.close[kept, j],
                volume=market.volume[kept, j]))
        aux = [marketdata.AuxSeries(name="vix", timestamps=market.timestamps, values=market.vix)]
        panel = marketdata.align_panel(series, aux=aux, fill="forward-fill")
        cfg = indicators.IndicatorConfig(turb_window=s["turb"])
        self.market = market
        self.features = indicators.build_features(panel, cfg)
        return self.features

    def base_properties(self) -> dict:
        s = self.size
        return {
            "tickers": s["tickers"], "bars": s["bars"], "obs_width": 1 + 10 * s["tickers"],
            "dropped_bar_fraction": self.market.dropped_fraction, "turb_window": s["turb"],
            "align": "forward-fill",
        }

    def a2c_config(self, budget: int, seed: int | None = None):
        return a2c.A2CConfig(total_timesteps=budget, n_envs=4, n_steps=5, seed=self.seed if seed is None else seed,
                             hidden_sizes=(64, 64))


class TrainWide(_InProcess):
    """In-process ``a2c_train`` at N=30 (obs 301): env stepping plus MLP
    forward/backward is the whole timed region. Operation k trains with seed
    ``seed + 1000 * (k % TRAIN_SEEDS)``, so a run's median does not rest on
    one initial policy: the policy decides how many buys each step makes."""

    name = "train-wide"
    min_ops = TRAIN_SEEDS

    def setup(self) -> None:
        features = self.build_features()
        split = _split_index(features.timestamps, self.market, self.size["split"])
        self.window = trading.Window(features.warmup, split)
        self.test_window = trading.Window(split, features.n_timestamps)
        self.env_cfg = trading.EnvConfig(initial_capital=1_000_000.0, hmax=HMAX, cost_rate=0.001)
        self.clipped = None
        self.ops_done = 0

    def properties(self) -> dict:
        return {
            **self.base_properties(), "train_budget_steps": self.size["budget"], "n_envs": 4, "n_steps": 5,
            "hidden_sizes": [64, 64], "train_window_steps": self.window.steps,
            "train_seeds": [self.seed + 1000 * j for j in range(TRAIN_SEEDS)],
            "env.cash_clipped_step_ratio": self.clipped,
        }

    def op(self) -> OpResult:
        j = self.ops_done % TRAIN_SEEDS
        self.ops_done += 1
        cfg = self.a2c_config(self.size["budget"], seed=self.seed + 1000 * j)
        features, window, env_cfg = self.features, self.window, self.env_cfg
        trading_env = trading.TradingEnv
        began = time.perf_counter()
        policy, stats = a2c.a2c_train(cfg, lambda: trading_env(env_cfg, features, window))
        op_s = time.perf_counter() - began

        problems = []
        expected_updates = -(-cfg.total_timesteps // (cfg.n_envs * cfg.n_steps))
        if stats.updates != expected_updates or policy.steps_trained != expected_updates * cfg.n_envs * cfg.n_steps:
            problems.append(f"a2c_train ran {stats.updates} updates / {policy.steps_trained} steps")
        series = np.array([stats.policy_losses, stats.value_losses, stats.entropies, stats.grad_norms])
        if not (np.isfinite(series).all() and np.isfinite(stats.episode_rewards).all()):
            problems.append("a2c_train produced non-finite statistics")
        ckpt = self.work / "a2c.ckpt"
        a2c.save_checkpoint(policy, ckpt)
        group = f"op/{j}/"
        digests = {
            f"{group}a2c.ckpt": checks.sha256_hex(ckpt.read_bytes()),
            f"{group}train_stats": checks.sha256_hex(series.tobytes() + np.array(stats.episode_rewards).tobytes()),
        }
        if j == 0:
            self.policy = policy
        rate = policy.steps_trained / op_s
        return OpResult(op_s, [rate], 1, {"train_env_steps_per_s": rate}, digests, problems, group=group)

    def finish(self) -> OpResult:
        """Roll the last policy trained with the first seed over the test
        window once and check its log."""
        directory = self.work / "eval"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        log = trading.run_episode(self.policy, self.env_cfg, self.features, self.test_window, seed=self.seed)
        path = directory / "log_a2c.csv"
        trading.save_episode_log(log, path)
        back = trading.load_episode_log(path)
        self.clipped = checks.cash_clipped_steps(back, HMAX) / (back.n_timestamps - 1)
        digests = {f"final/{p}": d for p, d in checks.digest_tree(directory).items()}
        return OpResult(0.0, [], 1, {}, digests, checks.log_problems(back, HMAX, path.name))


class BacktestSweep(_InProcess):
    """Single-env episodes for four baselines and one A2C checkpoint at two
    capital levels, each log written, read back, profiled, reported and charted."""

    name = "backtest-sweep"

    def setup(self) -> None:
        features = self.build_features()
        self.window = trading.Window(features.warmup, features.n_timestamps)
        cfg = trading.EnvConfig(initial_capital=1_000_000.0, hmax=HMAX, cost_rate=0.001)
        trained, _ = a2c.a2c_train(self.a2c_config(self.size["budget"]),
                                        lambda: trading.TradingEnv(cfg, features, self.window))
        directory = self.work / "setup"
        directory.mkdir(parents=True, exist_ok=True)
        a2c.save_checkpoint(trained, directory / "a2c.ckpt")
        self.checkpoint = a2c.load_checkpoint(directory / "a2c.ckpt")
        self.setup_digests = {f"setup/{p}": d for p, d in checks.digest_tree(directory).items()}
        self.clipped = {}

    def episodes(self) -> list:
        return [(capital, tag, k, name) for capital, tag in CAPITALS for k in range(self.size["episode_seeds"])
                for name in (*BASELINES, "a2c")]

    def properties(self) -> dict:
        return {
            **self.base_properties(), "episode_steps": self.window.steps, "episodes_per_sweep": len(self.episodes()),
            "initial_capitals": [c for c, _ in CAPITALS], "episode_seeds": self.size["episode_seeds"],
            "checkpoint_budget_steps": self.size["budget"],
            "env.cash_clipped_step_ratio": self.clipped,
        }

    def render_charts(self, report, directory: Path) -> None:
        """The three charts ``tradelab report`` renders from a saved report."""
        t = report.timestamps.astype(np.float64)
        charts = {
            "cumulative_reward.svg": svgchart.render_line_chart(
                [(report.agent_label, t[1:], report.cumulative_reward)],
                title=f"Cumulative reward: {report.agent_label}"),
            "integral_holding.svg": svgchart.render_bar_chart(
                [str(i) for i in range(report.integral_holding.shape[0])], report.integral_holding,
                title=f"Integral holding (share-steps): {report.agent_label}"),
            "holdings.svg": svgchart.render_line_chart(
                [(f"hold_{i}", t, report.holdings_matrix[:, i]) for i in range(report.holdings_matrix.shape[1])],
                title=f"Holdings over time: {report.agent_label}"),
        }
        for name, svg in charts.items():
            (directory / name).write_text(svg)

    def op(self) -> OpResult:
        directory = self.work / "sweep"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        parts, steps, reports, problems = [], [], [], []  # parts: run, analysis of each episode, then the table
        clipped = {}
        for capital, tag, k, name in self.episodes():
            cfg = trading.EnvConfig(initial_capital=capital, hmax=HMAX, cost_rate=0.001)
            policy = self.checkpoint if name == "a2c" else policies.make_baseline(name)
            policy.label = f"{name}-{tag}-s{k}"
            t0 = time.perf_counter()
            log = trading.run_episode(policy, cfg, self.features, self.window, seed=k)
            t1 = time.perf_counter()
            path = directory / f"log_{policy.label}.csv"
            trading.save_episode_log(log, path)
            back = trading.load_episode_log(path)
            report = analytics.behavior_profile(back)
            target = directory / f"report_{policy.label}"
            analytics.save_report(report, target)
            self.render_charts(analytics.load_report(target), target)
            parts += [(t0, t1), (t1, time.perf_counter())]
            steps.append(log.n_timestamps - 1)
            reports.append(report)
            problems += checks.log_problems(back, HMAX, path.name)
            clipped.setdefault(tag, []).append(checks.cash_clipped_steps(back, HMAX) / (back.n_timestamps - 1))
        t0 = time.perf_counter()
        analytics.write_comparison_csv(analytics.compare_profiles(reports), directory / "comparison.csv")
        parts.append((t0, time.perf_counter()))
        self.clipped = {tag: float(np.mean(v)) for tag, v in clipped.items()}
        digests = {f"op/{p}": d for p, d in checks.digest_tree(directory).items()}
        episodes = len(reports)  # the result keeps ``figures``, so it must not hold on to the reports

        def figures(times):
            runs, analyses = times[0:-1:2], times[1:-1:2] + times[-1:]
            run_s, analyze_s = sum(runs), sum(analyses)
            stages = {"backtest_steps_per_s": sum(steps) / run_s, "analyze_logs_per_s": episodes / analyze_s}
            return run_s + analyze_s, [n / t for n, t in zip(steps, runs)], stages

        op_s, rates, stages = figures([t1 - t0 for t0, t1 in parts])
        return OpResult(op_s, rates, episodes + 1, stages, digests, problems, parts=parts, figures=figures)

    def finish(self) -> OpResult:
        return OpResult(0.0, [], 0, {}, dict(self.setup_digests), [])


WORKLOADS = {w.name: w for w in (Pipeline, TrainWide, BacktestSweep)}
