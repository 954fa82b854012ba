"""Indicator formulas checked against independent brute-force oracles.

Each oracle below re-derives the quantity with plain Python loops over
slices, independent of the vectorized implementations.
"""

from __future__ import annotations

import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import hourly_axis, make_panel, make_walk_series
from tradelab.indicators import (
    FEATURE_NAMES,
    FeaturePanel,
    IndicatorConfig,
    IndicatorError,
    InsufficientHistory,
    bollinger,
    build_features,
    cci,
    dx,
    ema,
    macd,
    rsi,
    sma,
    turbulence,
    write_features_csv,
)
from tradelab.marketdata import AuxSeries, BarSeries, align_panel

T0 = 1_646_380_800


def _series(rng, t=200, start=100.0, vol=0.02):
    return start * np.exp(np.cumsum(rng.normal(0, vol, size=t)))


# ---------------------------------------------------------------------------
# sma / ema / macd
# ---------------------------------------------------------------------------

def test_sma_constant():
    values, defined = sma(np.full(20, 5.0), 3)
    assert np.all(values[defined] == 5.0)
    assert not defined[:3].any() and defined[3:].all()
    assert np.isnan(values[:3]).all()


def test_sma_hand_value():
    values, _ = sma(np.array([1.0, 2.0, 3.0, 4.0]), 3)
    assert values[3] == 2.0  # mean of {1,2,3}: the window stops before i


def test_sma_oracle(rng):
    x = _series(rng, 200)
    values, defined = sma(x, 30)
    for i in range(200):
        if i < 30:
            assert not defined[i]
        else:
            expected = sum(x[i - 30 : i]) / 30
            assert abs(values[i] - expected) <= 1e-12


def test_sma_window_too_large():
    with pytest.raises(InsufficientHistory):
        sma(np.ones(5), 5)


def test_ema_constant():
    values, defined = ema(np.full(30, 7.5), 10)
    assert np.allclose(values[defined], 7.5)
    assert defined[9] and not defined[8]


def test_ema_n1_identity(rng):
    x = _series(rng, 50)
    values, defined = ema(x, 1)
    assert defined.all()
    assert np.array_equal(values, x)


def test_ema_recursion_oracle(rng):
    x = _series(rng, 120)
    n = 12
    values, defined = ema(x, n)
    alpha = 2.0 / (n + 1)
    state = sum(x[:n]) / n
    assert abs(values[n - 1] - state) <= 1e-12
    for i in range(n, 120):
        state = alpha * x[i] + (1 - alpha) * state
        assert abs(values[i] - state) <= 1e-12


def test_macd_constant_is_zero():
    values, defined = macd(np.full(60, 42.0))
    assert np.allclose(values[defined], 0.0, atol=1e-12)


def test_macd_positive_on_ramp():
    values, defined = macd(np.linspace(10, 100, 120))
    assert np.all(values[defined] > 0)


def test_macd_composition_oracle(rng):
    x = _series(rng, 150)
    cfg = IndicatorConfig()
    values, defined = macd(x, cfg)
    fast, d_fast = ema(x, cfg.macd_fast)
    slow, d_slow = ema(x, cfg.macd_slow)
    assert np.array_equal(defined, d_fast & d_slow)
    assert np.all(np.abs(values[defined] - (fast - slow)[defined]) <= 1e-12)


# ---------------------------------------------------------------------------
# bollinger
# ---------------------------------------------------------------------------

def test_bollinger_constant():
    ub, lb, defined = bollinger(np.full(40, 9.0))
    assert np.all(ub[defined] == 9.0)
    assert np.all(lb[defined] == 9.0)


def test_bollinger_k_zero(rng):
    x = _series(rng, 60)
    cfg = IndicatorConfig(boll_k=0.0)
    ub, lb, defined = bollinger(x, cfg)
    assert np.array_equal(ub[defined], lb[defined])


def test_bollinger_oracle(rng):
    x = _series(rng, 150)
    cfg = IndicatorConfig(boll_period=20, boll_k=2.0)
    ub, lb, defined = bollinger(x, cfg)
    for i in range(150):
        if i < 19:
            assert not defined[i]
            continue
        window = x[i - 19 : i + 1]
        mid = sum(window) / 20
        var = sum((w - mid) ** 2 for w in window) / 20
        sd = math.sqrt(var)
        assert abs(ub[i] - (mid + 2 * sd)) <= 1e-9
        assert abs(lb[i] - (mid - 2 * sd)) <= 1e-9


def test_bollinger_band_order_fuzz(rng):
    x = _series(rng, 500).reshape(100, 5)
    ub, lb, defined = bollinger(np.abs(x) + 1.0, IndicatorConfig(boll_period=7, boll_k=1.5))
    assert np.all(ub[defined] >= lb[defined])


# ---------------------------------------------------------------------------
# rsi
# ---------------------------------------------------------------------------

def test_rsi_monotone_degenerate():
    up, d = rsi(np.arange(1.0, 40.0), 14)
    assert np.all(up[d] == 100.0)
    down, d = rsi(np.arange(40.0, 1.0, -1.0), 14)
    assert np.all(down[d] == 0.0)
    flat, d = rsi(np.full(40, 3.0), 14)
    assert np.all(flat[d] == 50.0)


def test_rsi_formula_oracle(rng):
    x = _series(rng, 100)
    n = 30
    values, defined = rsi(x, n)
    for i in range(100):
        if i < n:
            assert not defined[i]
            continue
        diffs = [x[j] - x[j - 1] for j in range(i - n + 1, i + 1)]
        avg_gain = sum(max(dd, 0.0) for dd in diffs) / n
        avg_loss = sum(max(-dd, 0.0) for dd in diffs) / n
        expected = 100.0 - 100.0 / (1.0 + avg_gain / avg_loss) if avg_loss > 0 else 100.0
        assert abs(values[i] - expected) <= 1e-9


def test_rsi_bounds_fuzz(rng):
    # 10^4 independent random columns
    x = np.abs(rng.normal(50, 20, size=(40, 10_000))) + 1e-3
    values, defined = rsi(x, 7)
    block = values[defined]
    assert np.all((block >= 0.0) & (block <= 100.0))


def test_rsi_shift_invariance(rng):
    x = _series(rng, 80)
    a, _ = rsi(x, 14)
    b, defined = rsi(x + 123.456, 14)
    assert np.allclose(a[defined], b[defined], atol=1e-6)


# ---------------------------------------------------------------------------
# cci
# ---------------------------------------------------------------------------

def test_cci_constant_is_zero():
    h = np.full(30, 11.0)
    l = np.full(30, 9.0)
    c = np.full(30, 10.0)
    values, defined = cci(h, l, c, 5)
    assert np.all(values[defined] == 0.0)


def test_cci_hand_value():
    # typical prices {10, 10, 10, 13}: SMA 10.75, MeanDev 1.125,
    # CCI = 2.25 / (0.015 * 1.125) = 400/3
    h = np.array([10.0, 10.0, 10.0, 13.0])
    values, defined = cci(h, h, h, 4)
    assert defined[3]
    assert abs(values[3] - 400.0 / 3.0) <= 1e-9


def test_cci_formula_oracle(rng):
    t = 120
    base = _series(rng, t)
    spread = np.abs(rng.normal(0, 0.4, size=t)) + 0.1
    h, l = base + spread, base - spread
    c = base + rng.uniform(-1, 1, size=t) * spread * 0.5
    n = 20
    values, defined = cci(h, l, c, n)
    tp = [(h[i] + l[i] + c[i]) / 3 for i in range(t)]
    for i in range(t):
        if i < n - 1:
            assert not defined[i]
            continue
        window = tp[i - n + 1 : i + 1]
        mean_tp = sum(window) / n
        mean_dev = sum(abs(w - mean_tp) for w in window) / n
        expected = (tp[i] - mean_tp) / (0.015 * mean_dev) if mean_dev > 0 else 0.0
        assert abs(values[i] - expected) <= 1e-9


# ---------------------------------------------------------------------------
# dx
# ---------------------------------------------------------------------------

def test_dx_rising_market_is_100():
    t = 40
    h = np.linspace(10, 30, t)
    l = h - 2.0
    c = h - 1.0
    values, defined = dx(h, l, c, 10)
    assert not defined[:10].any()
    assert np.all(values[defined] == 100.0)


def test_dx_balanced_zigzag_is_zero_at_seed():
    # +DM and -DM terms alternate 1,0,1,0 / 0,1,0,1: equal sums over the
    # first window, so the seeded smoothed values tie exactly
    n = 4
    highs = [10.0, 11.0, 10.0, 11.0, 10.0, 11.0]
    lows = [5.0, 6.0, 5.0, 6.0, 5.0, 6.0]
    closes = [8.0] * 6
    values, defined = dx(np.array(highs), np.array(lows), np.array(closes), n)
    assert defined[n]
    assert values[n] == 0.0


def test_dx_formula_oracle(rng):
    t = 150
    base = _series(rng, t, vol=0.03)
    spread = np.abs(rng.normal(0, 0.5, size=t)) + 0.2
    h, l = base + spread, base - spread
    c = base
    n = 14
    values, defined = dx(h, l, c, n)

    dm_p, dm_m, tr = [], [], []
    for i in range(1, t):
        up = h[i] - h[i - 1]
        down = l[i - 1] - l[i]
        dm_p.append(up if (up > down and up > 0) else 0.0)
        dm_m.append(down if (down > up and down > 0) else 0.0)
        tr.append(max(h[i] - l[i], abs(h[i] - c[i - 1]), abs(l[i] - c[i - 1])))

    s_p, s_m, s_t = sum(dm_p[:n]), sum(dm_m[:n]), sum(tr[:n])
    for i in range(n, t):
        if i > n:
            k = i - 1  # term index of bar i
            s_p = s_p * (1 - 1 / n) + dm_p[k]
            s_m = s_m * (1 - 1 / n) + dm_m[k]
            s_t = s_t * (1 - 1 / n) + tr[k]
        di_p = 100 * s_p / s_t if s_t > 0 else 0.0
        di_m = 100 * s_m / s_t if s_t > 0 else 0.0
        expected = 100 * abs(di_p - di_m) / (di_p + di_m) if di_p + di_m > 0 else 0.0
        assert abs(values[i] - expected) <= 1e-9, i
    assert not defined[:n].any()


def test_dx_bounds_fuzz(rng):
    cols = 2_000
    t = 30
    base = 50 + np.cumsum(rng.normal(0, 1, size=(t, cols)), axis=0) * 0.1
    spread = np.abs(rng.normal(0, 0.5, size=(t, cols))) + 0.05
    values, defined = dx(base + spread, base - spread, base, 6)
    block = values[defined]
    assert np.all((block >= 0.0) & (block <= 100.0 + 1e-9))


# ---------------------------------------------------------------------------
# scale / shift properties
# ---------------------------------------------------------------------------

def test_scale_equivariance(rng):
    x = _series(rng, 120)
    lam = 3.7
    for op in (lambda v: sma(v, 10)[0], lambda v: ema(v, 10)[0], lambda v: macd(v)[0]):
        a, b = op(x), op(lam * x)
        mask = ~np.isnan(a)
        assert np.allclose(lam * a[mask], b[mask], rtol=1e-9)
    ub1, lb1, d = bollinger(x)
    ub2, lb2, _ = bollinger(lam * x)
    assert np.allclose(lam * ub1[d], ub2[d], rtol=1e-9)
    assert np.allclose(lam * lb1[d], lb2[d], rtol=1e-9)
    r1, d = rsi(x, 14)
    r2, _ = rsi(lam * x, 14)
    assert np.allclose(r1[d], r2[d], atol=1e-6)


def test_dx_scale_invariance(rng):
    t = 100
    base = _series(rng, t)
    spread = np.abs(rng.normal(0, 0.3, size=t)) + 0.1
    h, l, c = base + spread, base - spread, base
    lam = 0.25
    a, d = dx(h, l, c, 10)
    b, _ = dx(lam * h, lam * l, lam * c, 10)
    assert np.allclose(a[d], b[d], atol=1e-6)


def test_shift_invariance_of_band_width(rng):
    x = _series(rng, 90)
    ub1, lb1, d = bollinger(x)
    ub2, lb2, _ = bollinger(x + 500.0)
    assert np.allclose(ub1[d] - lb1[d], ub2[d] - lb2[d], atol=1e-6)


# ---------------------------------------------------------------------------
# turbulence
# ---------------------------------------------------------------------------

def _return_panel(returns: np.ndarray, tickers=None):
    """Panel whose close-to-close returns equal `returns` exactly."""
    t1, n = returns.shape
    closes = np.empty((t1 + 1, n))
    closes[0] = 100.0
    for k in range(t1):
        closes[k + 1] = closes[k] * (1.0 + returns[k])
    timestamps = hourly_axis(T0, t1 + 1)
    series = []
    for j in range(n):
        c = closes[:, j]
        series.append(
            BarSeries(
                ticker=tickers[j] if tickers else f"S{j}",
                timestamps=timestamps,
                open=c,
                high=c * 1.0001,
                low=c * 0.9999,
                close=c,
                volume=np.ones(t1 + 1),
            )
        )
    return align_panel(series, fill="intersect")


def test_turbulence_zero_at_trailing_mean(rng):
    window, n = 12, 3
    trailing = rng.normal(0, 0.01, size=(window, n))
    returns = np.vstack([trailing, trailing.mean(axis=0)])
    panel = _return_panel(returns)
    values, defined = turbulence(panel, window)
    assert defined[window + 1] and not defined[window]
    assert abs(values[window + 1]) <= 1e-12


def test_turbulence_identity_covariance_unit_distance(rng):
    # whiten a random block so its sample covariance is the identity, then
    # deviate by one basis vector: the distance must be 1 (scale cancels)
    window, n = 40, 4
    raw = rng.normal(0, 1, size=(window, n))
    centered = raw - raw.mean(axis=0)
    chol = np.linalg.cholesky(np.cov(centered, rowvar=False, ddof=1))
    white = centered @ np.linalg.inv(chol).T
    scale = 1e-3  # keep prices positive; Mahalanobis is scale-free
    basis = np.zeros(n)
    basis[0] = 1.0
    returns = np.vstack([white, white.mean(axis=0) + basis]) * scale
    panel = _return_panel(returns)
    values, defined = turbulence(panel, window)
    assert defined[window + 1]
    assert abs(values[window + 1] - 1.0) <= 1e-6


def test_turbulence_solve_oracle(rng):
    panel = make_panel(["A", "B", "C"], 80, seed=5, with_vix=False)
    window = 20
    values, defined = turbulence(panel, window)
    closes = panel.close
    returns = closes[1:] / closes[:-1] - 1.0
    for t in range(panel.n_timestamps):
        if t < window + 1:
            assert not defined[t]
            continue
        trailing = returns[t - window - 1 : t - 1]
        mu = trailing.mean(axis=0)
        sigma = np.cov(trailing, rowvar=False, ddof=1)
        dev = returns[t - 1] - mu
        expected = float(dev @ np.linalg.solve(sigma, dev))
        assert abs(values[t] - expected) <= 1e-6 * max(1.0, abs(expected))


def test_turbulence_permutation_invariance(rng):
    panel = make_panel(["A", "B", "C", "D"], 70, seed=9, with_vix=False)
    perm = [2, 0, 3, 1]
    shuffled = align_panel(
        [
            BarSeries(
                ticker=panel.tickers[j],
                timestamps=panel.timestamps,
                open=panel.open[:, j],
                high=panel.high[:, j],
                low=panel.low[:, j],
                close=panel.close[:, j],
                volume=panel.volume[:, j],
            )
            for j in perm
        ],
        fill="intersect",
    )
    a, d = turbulence(panel, 15)
    b, _ = turbulence(shuffled, 15)
    assert np.allclose(a[d], b[d], atol=1e-8)


def test_turbulence_singular_covariance():
    # flat prices give a zero return covariance with zero trace, so the
    # trace-scaled bump cannot rescue it
    timestamps = hourly_axis(T0, 40)
    c = np.full(40, 100.0)
    series = [
        BarSeries(
            ticker=name, timestamps=timestamps, open=c, high=c * 1.001, low=c * 0.999, close=c, volume=np.ones(40)
        )
        for name in ("A", "B")
    ]
    panel = align_panel(series, fill="intersect")
    with pytest.raises(IndicatorError, match="singular at index 11 even after regularization"):
        turbulence(panel, 10)


def test_turbulence_regularization_rescues_correlated_pair(rng):
    # two perfectly correlated tickers are rank deficient but have positive
    # trace; the eps*I bump makes the solve well defined and finite
    timestamps = hourly_axis(T0, 40)
    c = 100 * np.exp(np.cumsum(rng.normal(0, 0.01, size=40)))
    series = [
        BarSeries(
            ticker=name, timestamps=timestamps, open=closes, high=closes * 1.001, low=closes * 0.999, close=closes, volume=np.ones(40)
        )
        for name, closes in (("A", c), ("B", 2 * c))
    ]
    panel = align_panel(series, fill="intersect")
    values, defined = turbulence(panel, 10)
    assert np.isfinite(values[defined]).all()
    assert np.all(values[defined] >= 0)


def test_turbulence_window_validation(rng):
    panel = make_panel(["A", "B"], 30, seed=1, with_vix=False)
    with pytest.raises(ValueError):
        turbulence(panel, 2)  # must exceed ticker count
    with pytest.raises(InsufficientHistory):
        turbulence(panel, 29)


# ---------------------------------------------------------------------------
# build_features
# ---------------------------------------------------------------------------

SMALL_CFG = IndicatorConfig(
    rsi_period=8,
    cci_period=8,
    dx_period=8,
    sma_short=8,
    sma_long=16,
    macd_fast=5,
    macd_slow=10,
    macd_signal=4,
    boll_period=6,
    turb_window=10,
)


def test_build_features_shape(rng):
    panel = make_panel(["AAA", "BBB"], 60, seed=3)
    fp = build_features(panel, SMALL_CFG)
    assert fp.features.shape == (60, 2, 8)
    assert fp.closes.shape == (60, 2)
    assert fp.tickers == ("AAA", "BBB")


def test_build_features_240_values_for_30_tickers(rng):
    tickers = [f"T{i:02d}" for i in range(30)]
    panel = make_panel(tickers, 80, seed=4, with_vix=False)
    fp = build_features(panel, IndicatorConfig(
        rsi_period=8, cci_period=8, dx_period=8, sma_short=8, sma_long=16,
        macd_fast=5, macd_slow=10, boll_period=6, turb_window=40,
    ))
    assert fp.features.shape[1] * fp.features.shape[2] == 240


def test_build_features_matches_standalone_ops(rng):
    panel = make_panel(["AAA", "BBB", "CCC"], 70, seed=8)
    cfg = SMALL_CFG
    fp = build_features(panel, cfg)
    for j in range(3):
        h, l, c = panel.high[:, j], panel.low[:, j], panel.close[:, j]
        expected = {
            "macd": macd(c, cfg)[0],
            "boll_ub": bollinger(c, cfg)[0],
            "boll_lb": bollinger(c, cfg)[1],
            "rsi": rsi(c, cfg.rsi_period)[0],
            "cci": cci(h, l, c, cfg.cci_period)[0],
            "dx": dx(h, l, c, cfg.dx_period)[0],
            "sma_short": sma(c, cfg.sma_short)[0],
            "sma_long": sma(c, cfg.sma_long)[0],
        }
        for k, name in enumerate(FEATURE_NAMES):
            got = fp.features[:, j, k]
            want = expected[name]
            mask = ~np.isnan(want)
            assert np.array_equal(got[mask], want[mask]), name
            assert np.isnan(got[~mask]).all(), name


def test_build_features_matches_standalone_ops_across_blocks():
    """13 tickers with the default config run bollinger and cci in blocks of
    5, 5 and 3; every column of every feature is still bit for bit the
    standalone 1-D call for its ticker, NaN warmup included."""
    panel = make_panel([f"T{j:02d}" for j in range(13)], 300, seed=11)
    cfg = IndicatorConfig()
    fp = build_features(panel, cfg)
    for j in range(panel.n_tickers):
        h, l, c = panel.high[:, j], panel.low[:, j], panel.close[:, j]
        expected = (macd(c, cfg)[0], *bollinger(c, cfg)[:2], rsi(c, cfg.rsi_period)[0],
                    cci(h, l, c, cfg.cci_period)[0], dx(h, l, c, cfg.dx_period)[0], sma(c, cfg.sma_short)[0],
                    sma(c, cfg.sma_long)[0])
        for k, name in enumerate(FEATURE_NAMES):
            assert np.array_equal(fp.features[:, j, k], expected[k], equal_nan=True), (name, panel.tickers[j])


def test_build_features_bounds_its_window_temporaries():
    """At paper scale (30 tickers x 3,500 bars) the build peaks well below
    the 50 MB that one cci call over all 30 tickers alone would hold: the
    windowed ops (bollinger, rsi, cci, sma) run on a ticker-major copy of three
    tickers at a time, so their (T, M, n) window temporaries stay below dx's,
    the peak, beside the 6.7 MB feature block that FeaturePanel keeps rather
    than copies, and no copy of the whole panel is made (10.4 MB measured;
    12.9 MB with ticker-major copies of the whole high, low and close)."""
    panel = make_panel([f"T{j:02d}" for j in range(30)], 3500, seed=2)
    tracemalloc.start()
    try:
        build_features(panel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11.0e6, peak


def test_dx_bounds_its_temporaries():
    """dx over the paper-scale panel's own C-order matrices (30 x 3,500), as
    build_features passes them, holds one (T-1, 3, M) array of smoothed sums,
    2.5 MB, and at most one (T, M) float temporary of 0.84 MB at a time: the
    +DM and -DM terms are built in their rows of the sums, and the DIs and DX
    overwrite the sums (3.64 MB measured; 4.5 MB with the terms built in arrays
    of their own)."""
    panel = make_panel([f"T{j:02d}" for j in range(30)], 3500, seed=2)
    tracemalloc.start()
    try:
        dx(panel.high, panel.low, panel.close, IndicatorConfig().dx_period)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.0e6, peak



BLOCK_OPS = {
    "sma": lambda h, l, c, cfg: sma(c, cfg.sma_long)[0],
    "ema": lambda h, l, c, cfg: ema(c, cfg.macd_slow)[0],
    "macd": lambda h, l, c, cfg: macd(c, cfg)[0],
    "bollinger": lambda h, l, c, cfg: np.stack(bollinger(c, cfg)[:2]),
    "rsi": lambda h, l, c, cfg: rsi(c, cfg.rsi_period)[0],
    "cci": lambda h, l, c, cfg: cci(h, l, c, cfg.cci_period)[0],
    "dx": lambda h, l, c, cfg: dx(h, l, c, cfg.dx_period)[0],
}


@pytest.mark.parametrize("op, layout", [*((op, "ticker-major") for op in BLOCK_OPS),
                                        *((op, "C-order") for op in ("ema", "macd", "dx"))])
def test_ticker_major_block_matches_per_ticker_calls(op, layout):
    """An op over a ticker-major (T, M) block, each ticker's column
    contiguous, gives each column bit for bit what a per-ticker 1-D call
    gives, NaN warmup included. The recurrences (ema, macd, dx) do so over the
    panel's own C-order block too: they sum each column's seed alone. A
    windowed op sums each window along an axis whose stride decides how numpy
    adds it up (pairwise where contiguous, row by row elsewhere), so
    build_features hands the windowed ops ticker-major copies. The walk moves
    5% a bar: at 1%, dx's seeds (sums of price differences, each a multiple of
    the price's ulp) come out exact in any order, and no layout shows."""
    panel = make_panel([f"T{j:02d}" for j in range(12)], 600, seed=5, vol=0.05)
    fn, cfg = BLOCK_OPS[op], IndicatorConfig()
    prices = [getattr(panel, name) for name in ("high", "low", "close")]
    block = fn(*(np.ascontiguousarray(x.T).T if layout == "ticker-major" else x for x in prices), cfg)
    for j in range(panel.n_tickers):
        single = fn(panel.high[:, j], panel.low[:, j], panel.close[:, j], cfg)
        assert np.array_equal(block[..., j], single, equal_nan=True), (op, panel.tickers[j])

def test_build_features_warmup(rng):
    panel = make_panel(["AAA", "BBB"], 60, seed=3)
    fp = build_features(panel, SMALL_CFG)
    assert fp.warmup == 16  # sma_long dominates
    assert np.isnan(fp.features[: fp.warmup]).any(axis=(1, 2)).all()
    assert np.isfinite(fp.features[fp.warmup :]).all()


def test_build_features_turbulence_on_request(rng):
    panel = make_panel(["AAA", "BBB"], 60, seed=3, with_vix=True)
    cfg = replace_turb(SMALL_CFG, 30)  # defined from 31, after the features' 16
    fp = build_features(panel, cfg, with_turbulence=True)
    want_values, want_defined = turbulence(panel, 30)
    assert np.array_equal(fp.turbulence[0], want_values, equal_nan=True)
    assert np.array_equal(fp.turbulence[1], want_defined)
    assert fp.warmup == 31
    plain = build_features(panel, cfg)
    assert plain.turbulence is None and plain.warmup == 16
    assert np.array_equal(plain.features, fp.features, equal_nan=True)


def test_build_features_skips_turbulence_unless_asked(rng, monkeypatch):
    import tradelab.indicators

    def boom(*args):
        raise AssertionError("turbulence computed without a request")

    monkeypatch.setattr(tradelab.indicators, "turbulence", boom)
    assert build_features(make_panel(["AAA", "BBB"], 60, seed=3), SMALL_CFG).turbulence is None
    # nor is its window checked: 30 bars leave no turbulence index for a 40-bar window, which only a request reads
    short = make_panel(["AAA", "BBB"], 30, seed=3)
    assert build_features(short, replace_turb(SMALL_CFG, 40)).warmup == 16
    monkeypatch.undo()
    with pytest.raises(InsufficientHistory, match="turbulence window 40"):
        build_features(short, replace_turb(SMALL_CFG, 40), with_turbulence=True)


def test_macd_fast_must_be_below_slow():
    with pytest.raises(ValueError, match="macd_fast must be smaller than macd_slow"):
        IndicatorConfig(macd_fast=26, macd_slow=26)


def test_ops_refuse_a_three_dimensional_input():
    with pytest.raises(ValueError, match=r"expected a \(T,\) or \(T, M\) array, got shape \(20, 2, 2\)"):
        sma(np.ones((20, 2, 2)), 3)


@pytest.mark.parametrize("op", [lambda x: sma(x, 0), lambda x: ema(x, 0), lambda x: rsi(x, -1),
                                lambda x: cci(x, x, x, 0), lambda x: dx(x, x, x, 0)],
                         ids=["sma", "ema", "rsi", "cci", "dx"])
def test_ops_refuse_a_window_below_one(op):
    with pytest.raises(ValueError, match="window must be >= 1"):
        op(np.ones(20))


def _macd_must_not_run(monkeypatch):
    import tradelab.indicators

    def boom(*args):
        raise AssertionError("an indicator ran before turbulence")

    monkeypatch.setattr(tradelab.indicators, "macd", boom)


@pytest.mark.parametrize("turb_window, vol, error, message", [
    (3, 0.01, ValueError, "must exceed the ticker count"),
    (2, 0.01, ValueError, "must exceed the ticker count"),
    (59, 0.01, InsufficientHistory, "turbulence window 59 leaves no defined index"),
    (10, 0.0, IndicatorError, "return covariance is singular"),
], ids=["at-ticker-count", "below-ticker-count", "too-long", "singular"])
def test_build_features_checks_turbulence_before_any_indicator(monkeypatch, turb_window, vol, error, message):
    _macd_must_not_run(monkeypatch)
    panel = make_panel(["AAA", "BBB", "CCC"], 60, seed=3, vol=vol)  # vol 0: every close the same
    with pytest.raises(error, match=message):
        build_features(panel, replace_turb(SMALL_CFG, turb_window), with_turbulence=True)


# each builds without turbulence; with it, the window refuses the panel
UNGATED_PANELS = {
    "short-for-the-default-window": (3, 200, IndicatorConfig(), InsufficientHistory,
                                     "turbulence window 252 leaves no defined index in a series of length 200"),
    "window-within-the-ticker-count": (12, 100, IndicatorConfig(turb_window=10), ValueError,
                                       r"turbulence window \(10\) must exceed the ticker count \(12\)"),
}


@pytest.mark.parametrize("case", list(UNGATED_PANELS))
def test_build_features_window_binds_only_with_turbulence(monkeypatch, case):
    n, t, cfg, error, message = UNGATED_PANELS[case]
    panel = make_panel([f"T{j:02d}" for j in range(n)], t, seed=3)
    fp = build_features(panel, cfg)
    assert fp.turbulence is None and fp.warmup == 60  # sma_long
    _macd_must_not_run(monkeypatch)
    with pytest.raises(error, match=message):
        build_features(panel, cfg, with_turbulence=True)


@pytest.mark.parametrize("turb_window, vol, error, message", [
    (2, 0.01, ValueError, "must exceed the ticker count"),
    (4, 0.0, IndicatorError, "return covariance is singular"),
], ids=["window", "singular"])
def test_build_features_reports_the_turbulence_fault_of_two(turb_window, vol, error, message):
    # 12 bars are too few for SMALL_CFG's indicators, and turbulence fails first
    panel = make_panel(["AAA", "BBB", "CCC"], 12, seed=3, vol=vol)
    with pytest.raises(error, match=message):
        build_features(panel, replace_turb(SMALL_CFG, turb_window), with_turbulence=True)


def test_build_features_insufficient_history(rng):
    panel = make_panel(["AAA", "BBB"], 12, seed=3)
    with pytest.raises(InsufficientHistory):
        build_features(panel, SMALL_CFG)


def test_build_features_turbulence_optional(rng):
    panel = make_panel(["AAA", "BBB"], 25, seed=3)
    assert build_features(panel, SMALL_CFG).turbulence is None
    # the request is the one switch: the window is always a number
    with pytest.raises(ValueError, match="turb_window must be int, got None"):
        replace_turb(SMALL_CFG, None)
    with pytest.raises(ValueError, match="turb_window must be >= 2"):
        replace_turb(SMALL_CFG, 1)


def test_write_features_csv_round_trip(tmp_path, rng):
    panel = make_panel(["AAA", "BBB"], 40, seed=6)
    fp = build_features(panel, replace_turb(SMALL_CFG, 12))
    path = tmp_path / "features.csv"
    write_features_csv(fp, path)

    with path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["timestamp", "ticker", *FEATURE_NAMES]
    assert len(rows) == 1 + 40 * 2
    for idx, row in enumerate(rows[1:]):
        t, j = divmod(idx, 2)
        assert row[1] == fp.tickers[j]
        for k in range(8):
            got = float(row[2 + k])
            want = fp.features[t, j, k]
            assert (math.isnan(got) and math.isnan(want)) or got == want

    sidecar = json.loads((tmp_path / "features.csv.json").read_text())
    assert sidecar["warmup"] == fp.warmup
    assert sidecar["feature_names"] == list(FEATURE_NAMES)
    assert sidecar["config"]["rsi_period"] == SMALL_CFG.rsi_period


def replace_turb(cfg, window):
    from dataclasses import replace

    return replace(cfg, turb_window=window)


def test_feature_panel_leaves_the_callers_arrays_writable():
    t, n = 6, 2
    given = {
        "timestamps": hourly_axis(T0, t),
        "features": np.zeros((t, n, len(FEATURE_NAMES))),
        "closes": np.full((t, n), 10.0),
    }
    turb = (np.zeros(t), np.ones(t, dtype=bool))
    fp = FeaturePanel(tickers=("AAA", "BBB"), warmup=0, turbulence=turb, **given)
    for name, arr in [*given.items(), ("turbulence values", turb[0]), ("turbulence mask", turb[1])]:
        assert arr.flags.writeable, name
    for arr in (fp.timestamps, fp.features, fp.closes, *fp.turbulence):
        assert not arr.flags.writeable
    given["timestamps"][0] += 1  # the panel holds its own copy
    assert fp.timestamps[0] == T0


@pytest.mark.parametrize("field, value", [("timestamps", [T0, T0 + 3600.7]), ("timestamps", [T0, np.nan]),
                                          ("turbulence", [0.0, 0.5])], ids=["fraction", "nan", "fractional-mask"])
def test_feature_panel_refuses_a_conversion_that_changes_a_value(field, value):
    t, n = 2, 1
    given = {"timestamps": hourly_axis(T0, t), "features": np.zeros((t, n, len(FEATURE_NAMES))),
             "closes": np.full((t, n), 10.0), "turbulence": None}
    if field == "turbulence":
        given["turbulence"] = (np.zeros(t), np.array(value))
    else:
        given[field] = np.array(value)
    name = "turbulence_defined" if field == "turbulence" else field
    with pytest.raises(ValueError, match=f"field '{name}' holds values that"):
        FeaturePanel(tickers=("AAA",), warmup=0, **given)
