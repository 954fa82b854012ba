"""Hourly OHLCV trading simulation, indicators, training, and behavior analytics."""

from .agents.a2c import A2CConfig, MlpPolicy, a2c_train, load_checkpoint, save_checkpoint
from .agents.policies import BASELINE_POLICIES, make_baseline
from .analytics import (
    BehaviorReport,
    behavior_profile,
    compare_profiles,
    load_report,
    save_report,
)
from .env import (
    EnvConfig,
    EpisodeLog,
    TradingEnv,
    Window,
    load_episode_log,
    observation_size,
    run_episode,
    save_episode_log,
)
from .errors import TradeLabError
from .indicators import FEATURE_NAMES, FeaturePanel, IndicatorConfig, build_features
from .marketdata import (
    BarSeries,
    MarketPanel,
    align_panel,
    load_bars,
    load_panel,
    load_series,
    save_panel,
)

__version__ = "0.1.0"

__all__ = [
    "A2CConfig",
    "BASELINE_POLICIES",
    "BarSeries",
    "BehaviorReport",
    "EnvConfig",
    "EpisodeLog",
    "FEATURE_NAMES",
    "FeaturePanel",
    "IndicatorConfig",
    "MarketPanel",
    "MlpPolicy",
    "TradeLabError",
    "TradingEnv",
    "Window",
    "a2c_train",
    "align_panel",
    "behavior_profile",
    "build_features",
    "compare_profiles",
    "load_bars",
    "load_checkpoint",
    "load_episode_log",
    "load_panel",
    "load_report",
    "load_series",
    "make_baseline",
    "observation_size",
    "run_episode",
    "save_checkpoint",
    "save_episode_log",
    "save_panel",
    "save_report",
    "__version__",
]
