"""Command-line pipeline: ingest -> features -> simulate/train -> analyze -> report.

One JSON config file describes a run (data files, tickers, split, indicator/
environment/trainer settings, output directory, seed); each command takes
flags only for the fields it reads (--out everywhere, --tickers where the
panel is read, --seed and --split where episodes run). Every command writes
deterministic artifacts, so re-running over unchanged inputs reproduces
outputs byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .agents.a2c import A2CConfig, a2c_train, load_checkpoint, save_checkpoint
from .agents.policies import BASELINE_POLICIES, make_baseline
from .analytics import (TRADER_THRESHOLD, behavior_profile, compare_profiles, load_report, save_report,
                        write_comparison_csv)
from .config import ConfigError, check_fields, decode_config
from .env import EnvConfig, TradingEnv, Window, load_episode_log, observation_size, run_episode, save_episode_log
from .errors import TradeLabError
from .indicators import IndicatorConfig, build_features, write_features_csv
from .marketdata import (
    ALIGN_MODES,
    align_panel,
    load_bars,
    load_panel,
    load_series,
    parse_timestamp,
    save_panel,
    sidecar_path,
    write_csv_columns,
    write_panel_csv,
)
from .svgchart import render_bar_chart, render_line_chart

__all__ = ["RunConfig", "main", "entrypoint"]

@dataclass
class RunConfig:
    """Everything one run needs; flag overrides win over the config file."""

    data: dict[str, str] = field(default_factory=dict)  # ticker -> OHLCV csv path
    aux: dict[str, str] = field(default_factory=dict)  # name -> csv path
    tickers: list[str] = field(default_factory=list)
    split: str | None = None  # ISO date; boundary bar falls on the test side
    align: str = "intersect"
    indicators: IndicatorConfig = field(default_factory=IndicatorConfig)
    env: EnvConfig = field(default_factory=EnvConfig)
    a2c: A2CConfig = field(default_factory=A2CConfig)
    out: str = "out"
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.align not in ALIGN_MODES:
            raise ValueError(f"align must be one of {ALIGN_MODES}, got {self.align!r}")
        if self.split is not None:
            try:
                parse_timestamp(self.split)
            except ValueError as exc:
                raise ValueError(f"split: {exc}") from None
        if not self.tickers:
            self.tickers = sorted(self.data)
        missing = [t for t in self.tickers if t not in self.data]
        if missing:
            raise ValueError(f"tickers without a data path: {missing}")

    @classmethod
    def load(cls, path, overrides: dict) -> "RunConfig":
        """Read the JSON config (optional) and fold flag overrides on top.

        Paths in the file resolve against its directory once every field has
        been checked; paths given as flags resolve against the working directory.
        """
        cfg = cls() if path is None else cls._read(Path(path))
        return dataclasses.replace(cfg, **{key: value for key, value in overrides.items() if value is not None})

    @classmethod
    def _read(cls, path: Path) -> "RunConfig":
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
            cfg = decode_config(cls, raw, None)
            if "seed" in raw.get("a2c", {}) and cfg.a2c.seed != cfg.seed:  # train seeds A2C with the run's seed
                raise ConfigError(f"config field a2c.seed is {cfg.a2c.seed}, but the run's seed is {cfg.seed}")
        except (ConfigError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
            raise ConfigError(f"{exc} in {path}") from None
        base = path.parent
        return dataclasses.replace(
            cfg,
            data={ticker: str(base / p) for ticker, p in cfg.data.items()},
            aux={name: str(base / p) for name, p in cfg.aux.items()},
            out=str(base / cfg.out) if "out" in raw else cfg.out,
        )

    @property
    def out_dir(self) -> Path:
        path = Path(self.out)
        path.mkdir(parents=True, exist_ok=True)
        return path

    @property
    def panel_path(self) -> Path:
        return self.out_dir / "panel.bin"


def _load_cached_panel(cfg: RunConfig):
    if not cfg.panel_path.exists():
        raise TradeLabError(f"no cached panel at {cfg.panel_path}; run `ingest` first")
    built = cfg.panel_path.stat().st_mtime_ns
    for source in [*(cfg.data[ticker] for ticker in cfg.tickers), *cfg.aux.values()]:
        if os.stat(source).st_mtime_ns > built:
            raise TradeLabError(f"input {source} changed after the cached panel {cfg.panel_path} "
                                f"was written; rerun ingest")
    panel = load_panel(cfg.panel_path)
    if panel.tickers != tuple(cfg.tickers):
        raise TradeLabError(f"cached panel {cfg.panel_path} holds tickers {list(panel.tickers)}, "
                            f"but the run asks for {list(cfg.tickers)}; rerun ingest")
    return panel


def _build_features(cfg: RunConfig):
    return build_features(_load_cached_panel(cfg), cfg.indicators,
                          with_turbulence=cfg.env.turbulence_gate is not None)


def _windows(cfg: RunConfig, features) -> dict:
    """Full/train/test windows over the feature panel's time axis."""
    t = features.timestamps.shape[0]
    windows = {"full": Window(features.warmup, t)}
    if cfg.split is not None:
        boundary = parse_timestamp(cfg.split)
        idx = int(np.searchsorted(features.timestamps, boundary, side="left"))
        if features.warmup + 1 < idx < t - 1:
            windows["train"] = Window(features.warmup, idx)
            windows["test"] = Window(idx, t)
        else:
            raise TradeLabError(
                f"split {cfg.split} leaves no usable train/test windows "
                f"(boundary index {idx}, warmup {features.warmup}, length {t})"
            )
    return windows


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_ingest(cfg: RunConfig) -> int:
    if not cfg.data:
        raise TradeLabError("no data files configured; supply --config with a data map")
    cfg.panel_path.unlink(missing_ok=True)  # a failed ingest leaves no panel for later commands
    series = [load_bars(cfg.data[ticker], ticker=ticker) for ticker in cfg.tickers]
    aux_series = [load_series(path, name) for name, path in sorted(cfg.aux.items())]
    panel = align_panel(series, aux=aux_series, fill=cfg.align)
    save_panel(panel, cfg.panel_path)
    write_panel_csv(panel, cfg.out_dir / "panel.csv")
    print(f"panel: {panel.timestamps.shape[0]} rows x {len(panel.tickers)} tickers -> {cfg.panel_path}")
    return 0


def cmd_features(cfg: RunConfig) -> int:
    features = _build_features(cfg)
    out = cfg.out_dir / "features.csv"
    write_features_csv(features, out)
    print(f"features: warmup index {features.warmup}, {features.features.shape[0]} rows -> {out}")
    return 0


def _check_label(label: str, source) -> None:
    """An agent label becomes part of a file name under out/, so it must not
    hold a path separator or NUL, and the file-system encoding must encode it
    (under an ASCII locale, 'Zürich' names no file); ``source`` is the file
    the label came from. Commands check it before they make any directory."""
    if any(c in label for c in "/\\\0"):
        raise TradeLabError(f"agent label {label!r} from {source} contains '/', '\\' or NUL, "
                            "so it cannot name a file under the output directory")
    try:
        os.fsencode(label)
    except UnicodeEncodeError:
        raise TradeLabError(f"agent label {label!r} from {source} cannot be encoded in the file-system encoding "
                            f"({sys.getfilesystemencoding()}), so it cannot name a file under the output "
                            "directory") from None


def _resolve_agent(name: str, n_tickers: int):
    """The policy ``name`` stands for: a baseline, or a checkpoint whose
    observation width fits ``n_tickers``."""
    if name in BASELINE_POLICIES:
        return make_baseline(name)
    candidate = Path(name)
    if candidate.exists():
        policy = load_checkpoint(candidate)
        width = observation_size(n_tickers)
        if policy.normalizer.dim != width:
            raise TradeLabError(
                f"checkpoint {candidate} takes {policy.normalizer.dim}-wide observations, "
                f"but the run's {n_tickers} tickers give {width}-wide ones"
            )
        return policy
    raise TradeLabError(
        f"unknown agent {name!r}; valid baselines: {', '.join(sorted(BASELINE_POLICIES))}, "
        "or pass a checkpoint path"
    )


def cmd_simulate(cfg: RunConfig, agent: str, window_name: str | None) -> int:
    # the agent first: the cached panel holds exactly cfg.tickers, and the features take longest
    policy = _resolve_agent(agent, len(cfg.tickers))
    _check_label(policy.label, agent)
    # without a split only "full" exists; with one, _windows makes all three or raises
    if window_name is None:
        window_name = "full" if cfg.split is None else "test"
    elif cfg.split is None and window_name != "full":
        raise TradeLabError(f"window {window_name!r} unavailable; choose from ['full']")
    features = _build_features(cfg)
    log = run_episode(policy, cfg.env, features, _windows(cfg, features)[window_name], seed=cfg.seed)
    out = cfg.out_dir / f"log_{log.agent_label}.csv"
    save_episode_log(log, out)
    print(
        f"{log.agent_label}: {log.n_timestamps - 1} steps on {window_name}, "
        f"final value {log.portfolio_value[-1]:.2f} -> {out}"
    )
    return 0


def cmd_train(cfg: RunConfig, timesteps: int | None) -> int:
    a2c_cfg = dataclasses.replace(cfg.a2c, seed=cfg.seed,
                                  total_timesteps=cfg.a2c.total_timesteps if timesteps is None else timesteps)
    features = _build_features(cfg)
    windows = _windows(cfg, features)
    window = windows.get("train", windows["full"])

    policy, stats = a2c_train(a2c_cfg, lambda: TradingEnv(cfg.env, features, window))
    ckpt = cfg.out_dir / "a2c.ckpt"
    save_checkpoint(policy, ckpt)

    curves = (stats.policy_losses, stats.value_losses, stats.entropies, stats.grad_norms)
    write_csv_columns(cfg.out_dir / "train_stats.csv", ["update", "policy_loss", "value_loss", "entropy", "grad_norm"],
                      [np.arange(stats.updates), *map(np.array, curves)])
    write_csv_columns(cfg.out_dir / "episode_rewards.csv", ["episode", "reward"],
                      [np.arange(len(stats.episode_rewards)), np.array(stats.episode_rewards, dtype=np.float64)])

    print(
        f"trained {policy.steps_trained} timesteps: {len(stats.episode_rewards)} finished episodes "
        f"of {window.steps} steps, {stats.updates} updates -> {ckpt}"
    )
    return 0


def cmd_analyze(cfg: RunConfig, log_paths: list) -> int:
    logs = [load_episode_log(path) for path in log_paths]
    for path, log in zip(log_paths, logs):
        sidecar = sidecar_path(path)
        _check_label(log.agent_label, sidecar if sidecar.exists() else path)
    reports = [behavior_profile(log) for log in logs]
    table = compare_profiles(reports) if len(reports) >= 2 else None  # fails before anything is written
    for report in reports:
        target = cfg.out_dir / f"report_{report.agent_label}"
        save_report(report, target)
        side = "trader" if report.is_trader else "holder"
        print(
            f"{report.agent_label}: trader_score={report.trader_score:.4f} "
            f"({side} by the {TRADER_THRESHOLD} convention) -> {target}"
        )
    if table is not None:
        out = cfg.out_dir / "comparison.csv"
        write_comparison_csv(table, out)
        print(f"comparison over {len(reports)} agents -> {out}")
    return 0


def cmd_report(cfg: RunConfig, report_dir: str) -> int:
    report = load_report(report_dir)
    target = Path(report_dir)
    t = report.timestamps.astype(np.float64)
    charts = {
        "cumulative_reward.svg": render_line_chart(
            [(report.agent_label, t[1:], report.cumulative_reward)],
            title=f"Cumulative reward: {report.agent_label}",
        ),
        "integral_holding.svg": render_bar_chart(
            [str(i) for i in range(report.integral_holding.shape[0])],
            report.integral_holding,
            title=f"Integral holding (share-steps): {report.agent_label}",
        ),
        "holdings.svg": render_line_chart(
            [
                (f"hold_{i}", t, report.holdings_matrix[:, i])
                for i in range(report.holdings_matrix.shape[1])
            ],
            title=f"Holdings over time: {report.agent_label}",
        ),
    }
    for name, svg in charts.items():
        (target / name).write_text(svg, encoding="utf-8")
    print(f"rendered {len(charts)} charts -> {target}")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

# the run-config fields a flag can override, beside --out, and the commands that read them
RUN_FLAGS = {
    "tickers": (dict(type=lambda text: text.split(","), help="comma-separated ticker subset (overrides config)"),
                ("ingest", "features", "simulate", "train")),
    "seed": (dict(type=int, help="run seed (overrides config)"), ("simulate", "train")),
    "split": (dict(help="ISO date train/test boundary (overrides config)"), ("simulate", "train")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tradelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON run-config path")
        p.add_argument("--out", help="output directory (overrides config)")
        for flag, (options, commands) in RUN_FLAGS.items():
            if name in commands:
                p.add_argument(f"--{flag}", **options)
        return p

    command("ingest", "validate and align raw OHLCV files into a panel cache")
    command("features", "compute indicator features over the cached panel")

    p = command("simulate", "roll one agent over a window and write its episode log")
    p.add_argument("--agent", required=True, help="baseline name or checkpoint path")
    p.add_argument("--window", choices=["full", "train", "test"], help="which window to simulate")

    p = command("train", "train the actor-critic agent and write a checkpoint")
    p.add_argument("--timesteps", type=int, help="override total training timesteps")

    p = command("analyze", "compute behavior reports for one or more logs")
    p.add_argument("logs", nargs="+", help="episode-log CSV paths")

    p = command("report", "render SVG charts from a saved behavior report")
    p.add_argument("report_dir", help="directory holding report.json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config, {key: getattr(args, key, None) for key in ("out", *RUN_FLAGS)})
        if args.command == "ingest":
            return cmd_ingest(cfg)
        if args.command == "features":
            return cmd_features(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.agent, args.window)
        if args.command == "train":
            return cmd_train(cfg, args.timesteps)
        if args.command == "analyze":
            return cmd_analyze(cfg, args.logs)
        return cmd_report(cfg, args.report_dir)  # argparse admits no seventh command
    except (TradeLabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
