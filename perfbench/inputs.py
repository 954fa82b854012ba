"""Seeded synthetic market inputs: per-ticker OHLCV CSVs plus a VIX-style aux file.

Everything is drawn from one ``numpy.random.default_rng(seed)`` stream and
written with ``repr`` floats, so the same seed always gives byte-identical
files. About ``drop_frac`` of each ticker's bars are removed at random (never
the first bar), so ``forward-fill`` alignment has gaps to fill.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

START = 1_646_380_800  # 2022-03-04T08:00:00Z
HOUR = 3600


@dataclass(frozen=True)
class Market:
    tickers: tuple
    timestamps: np.ndarray  # int64 (T,), the full hourly axis
    open: np.ndarray  # (T, N)
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray
    keep: np.ndarray  # bool (T, N): False where the bar is dropped from the CSV
    vix: np.ndarray  # (T,)

    @property
    def dropped_fraction(self) -> float:
        return float(1.0 - self.keep.mean())


def make_market(seed: int, n_tickers: int, n_bars: int, drop_frac: float) -> Market:
    """One market factor plus idiosyncratic noise, so the return covariance
    the turbulence index inverts is realistic and well conditioned."""
    rng = np.random.default_rng(seed)
    tickers = tuple(f"T{j:02d}" for j in range(n_tickers))
    start_price = np.exp(rng.uniform(np.log(20.0), np.log(400.0), size=n_tickers))
    beta = rng.uniform(0.5, 1.5, size=n_tickers)
    idio_vol = rng.uniform(0.004, 0.012, size=n_tickers)
    market = rng.normal(0.0, 0.004, size=n_bars)
    steps = market[:, None] * beta + rng.normal(0.0, 1.0, size=(n_bars, n_tickers)) * idio_vol
    close = start_price * np.exp(np.cumsum(steps, axis=0))
    gap = 1.0 + rng.normal(0.0, 0.001, size=(n_bars, n_tickers))
    open_ = np.vstack([start_price[None, :], close[:-1]]) * gap
    high = np.maximum(open_, close) * (1.0 + np.abs(rng.normal(0.0, 0.002, size=(n_bars, n_tickers))))
    low = np.minimum(open_, close) * (1.0 - np.abs(rng.normal(0.0, 0.002, size=(n_bars, n_tickers))))
    volume = rng.integers(1_000, 80_000, size=(n_bars, n_tickers)).astype(np.float64)
    keep = rng.random((n_bars, n_tickers)) >= drop_frac
    keep[0] = True  # every ticker starts on the first hour, so the panel keeps its length
    vix = 15.0 + np.abs(np.cumsum(rng.normal(0.0, 0.3, size=n_bars)))
    timestamps = START + HOUR * np.arange(n_bars, dtype=np.int64)
    return Market(tickers, timestamps, open_, high, low, close, volume, keep, vix)


def iso_stamps(timestamps: np.ndarray) -> list:
    text = np.datetime_as_string(np.asarray(timestamps, dtype="datetime64[s]"), unit="s")
    return [f"{s}Z" for s in text.tolist()]


def write_market(market: Market, directory: Path) -> dict:
    """Write ``<ticker>.csv`` per ticker and ``vix.csv``; returns name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    stamps = iso_stamps(market.timestamps)
    paths = {}
    for j, ticker in enumerate(market.tickers):
        rows = ["timestamp,open,high,low,close,volume"]
        columns = [market.open[:, j], market.high[:, j], market.low[:, j], market.close[:, j], market.volume[:, j]]
        values = zip(*(col.tolist() for col in columns))
        for stamp, keep, (o, h, l, c, v) in zip(stamps, market.keep[:, j].tolist(), values):
            if keep:
                rows.append(f"{stamp},{o!r},{h!r},{l!r},{c!r},{v!r}")
        path = directory / f"{ticker}.csv"
        path.write_text("\n".join(rows) + "\n")
        paths[ticker] = path
    vix_rows = ["timestamp,value"] + [f"{s},{v!r}" for s, v in zip(stamps, market.vix.tolist())]
    paths["vix"] = directory / "vix.csv"
    paths["vix"].write_text("\n".join(vix_rows) + "\n")
    return paths
