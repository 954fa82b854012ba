"""Shared synthetic-data builders for the test suite.

Everything is seeded and pure numpy so the generated panels are identical
across runs and platforms.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
import pytest

from tradelab.indicators import FEATURE_NAMES, FeaturePanel, IndicatorConfig, build_features
from tradelab.marketdata import AuxSeries, BarSeries, MarketPanel, align_panel

HOUR = 3600

# fast warmup (16 bars) for tests that do not exercise the default windows
SMALL_INDICATORS = IndicatorConfig(
    rsi_period=8,
    cci_period=8,
    dx_period=8,
    sma_short=8,
    sma_long=16,
    macd_fast=5,
    macd_slow=10,
    macd_signal=4,
    boll_period=6,
    turb_window=None,
)


def hourly_axis(start: int, count: int, step: int = HOUR) -> np.ndarray:
    return start + step * np.arange(count, dtype=np.int64)


def make_walk_series(
    ticker: str,
    timestamps: np.ndarray,
    rng: np.random.Generator,
    start_price: float = 100.0,
    drift: float = 0.0,
    vol: float = 0.01,
) -> BarSeries:
    """Random-walk OHLCV series that satisfies every bar invariant."""
    count = len(timestamps)
    steps = rng.normal(drift, vol, size=count)
    closes = start_price * np.exp(np.cumsum(steps))
    opens = np.concatenate([[start_price], closes[:-1]])
    spread = np.abs(rng.normal(0.0, 0.003, size=count)) + 1e-6
    high = np.maximum(opens, closes) * (1.0 + spread)
    low = np.minimum(opens, closes) * (1.0 - spread)
    volume = rng.integers(1_000, 50_000, size=count).astype(float)
    return BarSeries(
        ticker=ticker,
        timestamps=np.asarray(timestamps, dtype=np.int64),
        open=opens,
        high=high,
        low=low,
        close=closes,
        volume=volume,
    )


def make_panel(
    tickers,
    count: int,
    seed: int = 0,
    start: int = 1_646_380_800,  # 2022-03-04T08:00:00Z
    start_price: float = 100.0,
    vol: float = 0.01,
    drift: float = 0.0,
    with_vix: bool = True,
) -> MarketPanel:
    rng = np.random.default_rng(seed)
    timestamps = hourly_axis(start, count)
    series = [
        make_walk_series(t, timestamps, rng, start_price=start_price * (1 + 0.1 * j), vol=vol, drift=drift)
        for j, t in enumerate(tickers)
    ]
    aux = []
    if with_vix:
        vix = 15.0 + np.abs(np.cumsum(rng.normal(0, 0.3, size=count)))
        aux.append(AuxSeries(name="vix", timestamps=timestamps, values=vix))
    return align_panel(series, aux=aux, fill="intersect")


def make_features(
    tickers,
    count: int,
    seed: int = 0,
    vol: float = 0.01,
    drift: float = 0.0,
    turb_window: int | None = None,
    with_vix: bool = False,
) -> FeaturePanel:
    """Feature panel over a seeded random-walk market, warmup 16."""
    from dataclasses import replace

    panel = make_panel(tickers, count, seed=seed, vol=vol, drift=drift, with_vix=with_vix)
    return build_features(panel, replace(SMALL_INDICATORS, turb_window=turb_window))


def flat_features(closes, turbulence=None, start: int = 1_646_380_800) -> FeaturePanel:
    """Hand-built panel with zero features everywhere, for scripted scenarios.

    `closes` is (T, N); `turbulence` is an optional (values, defined) pair.
    """
    closes = np.asarray(closes, dtype=np.float64)
    t, n = closes.shape
    return FeaturePanel(
        timestamps=hourly_axis(start, t),
        tickers=tuple(f"S{j}" for j in range(n)),
        features=np.zeros((t, n, len(FEATURE_NAMES))),
        closes=closes,
        warmup=0,
        turbulence=turbulence,
        config=SMALL_INDICATORS,
    )


def turbulent_features(seed: int, tickers: int = 5) -> FeaturePanel:
    """Five tickers (or ``tickers``) over 90 bars with a seeded turbulence
    series that is undefined on every seventh index, for gate tests."""
    features = make_features([chr(ord("A") + j) for j in range(tickers)], 90, seed=seed, vol=0.02)
    turb = np.abs(np.random.default_rng(seed).normal(0.0, 10.0, features.n_timestamps))
    defined = np.arange(features.n_timestamps) % 7 != 0
    return flat_features(features.closes, turbulence=(turb, defined))


def write_bars_csv(path: Path, series: BarSeries) -> None:
    from tradelab.marketdata import format_timestamp

    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["timestamp", "open", "high", "low", "close", "volume"])
        for i in range(len(series)):
            writer.writerow([
                format_timestamp(series.timestamps[i]),
                repr(float(series.open[i])),
                repr(float(series.high[i])),
                repr(float(series.low[i])),
                repr(float(series.close[i])),
                repr(float(series.volume[i])),
            ])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240301)
