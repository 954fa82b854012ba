"""Technical-indicator suite and assembly of the per-ticker 8-feature block.

Every indicator returns ``(values, defined)`` where ``values`` is float64 with
NaN outside the defined region and ``defined`` is a boolean mask over the time
axis. Masks are explicit; downstream code must never rely on sentinel values.

Window conventions differ by indicator and are part of the contract:
``sma`` is strictly trailing (the window ends one bar BEFORE the current
index), while Bollinger and CCI windows include the current bar.

Operations accept a 1-D series ``(T,)`` or a 2-D batch ``(T, M)`` of
independent columns; the mask depends only on T, never on the data. A series
too short for a window to define any index raises InsufficientHistory, from
an operation and from ``build_features`` alike. ``build_features`` makes one
call per indicator across all tickers, on ticker-major copies (bit for bit the
per-ticker 1-D call); ``bollinger`` and ``cci`` run in column blocks that bound
their (T, M, n) window temporaries. A recurrence (``ema``, ``dx``'s Wilder sums)
is one in-place row update per bar; the rest runs over the whole block, bit for bit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import check_fields
from .errors import TradeLabError
from .marketdata import MarketPanel, _freeze, _frozen, write_long_csv, write_sidecar

__all__ = [
    "FEATURE_NAMES",
    "IndicatorConfig",
    "FeaturePanel",
    "IndicatorError",
    "InsufficientHistory",
    "sma",
    "ema",
    "macd",
    "bollinger",
    "rsi",
    "cci",
    "dx",
    "turbulence",
    "build_features",
    "write_features_csv",
]

# Fixed feature order; the state encoding depends on it.
FEATURE_NAMES = ("macd", "boll_ub", "boll_lb", "rsi", "cci", "dx", "sma_short", "sma_long")


class IndicatorError(TradeLabError):
    pass


class InsufficientHistory(IndicatorError):
    """The series is too short for a window to define any index."""


@dataclass(frozen=True)
class IndicatorConfig:
    """Window lengths and parameters for the 8-feature block plus turbulence.

    ``turb_window`` is the turbulence index's trailing window. Turbulence is
    computed only when ``env.turbulence_gate`` is set, and a gate with None is an error.
    """

    rsi_period: int = 30
    cci_period: int = 30
    dx_period: int = 30
    sma_short: int = 30
    sma_long: int = 60
    macd_fast: int = 12
    macd_slow: int = 26
    macd_signal: int = 9  # no feature reads it; it stays in the config written beside features.csv
    boll_period: int = 20
    boll_k: float = 2.0
    turb_window: int | None = 252

    def __post_init__(self):
        check_fields(self)
        for name in ("rsi_period", "cci_period", "dx_period", "sma_short", "sma_long", "macd_fast", "macd_slow",
                     "macd_signal", "boll_period"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.macd_fast >= self.macd_slow:
            raise ValueError("macd_fast must be smaller than macd_slow")
        if self.boll_k < 0:
            raise ValueError("boll_k must be non-negative")
        if self.turb_window is not None and self.turb_window < 2:
            raise ValueError("turb_window must be >= 2 or None")


# ---------------------------------------------------------------------------
# shape plumbing
# ---------------------------------------------------------------------------

def _as_columns(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        return arr[:, None], True
    if arr.ndim == 2:
        return arr, False
    raise ValueError(f"expected a (T,) or (T, M) array, got shape {arr.shape}")


def _restore(values: np.ndarray, squeeze: bool) -> np.ndarray:
    return values[:, 0] if squeeze else values


def _blank(shape) -> np.ndarray:
    return np.full(shape, np.nan)


def _check_window(n: int, t: int, first_defined: int, name: str) -> np.ndarray:
    """The ``defined`` mask of a length-``t`` series, True from ``first_defined`` on."""
    if n < 1:
        raise ValueError(f"{name} window must be >= 1, got {n}")
    if first_defined >= t:
        raise InsufficientHistory(f"{name} window {n} leaves no defined index in a series of length {t}")
    return np.arange(t) >= first_defined


# ---------------------------------------------------------------------------
# moving averages
# ---------------------------------------------------------------------------

def sma(closes, n: int):
    """Strictly trailing n-bar mean: out[i] = mean(closes[i-n .. i-1]), i >= n."""
    x, squeeze = _as_columns(closes)
    t = x.shape[0]
    defined = _check_window(n, t, n, "sma")
    out = _blank(x.shape)
    windows = sliding_window_view(x, n, axis=0)  # window s covers s .. s+n-1
    out[n:] = windows[: t - n].mean(axis=-1)
    return _restore(out, squeeze), defined


def ema(closes, n: int):
    """SMA-seeded exponential mean, alpha = 2/(n+1), defined from index n-1:
    ``alpha * x`` over the whole block, then one in-place row update per bar."""
    x, squeeze = _as_columns(closes)
    t = x.shape[0]
    defined = _check_window(n, t, n - 1, "ema")
    alpha = 2.0 / (n + 1)
    beta = 1.0 - alpha
    out = alpha * x
    out[: n - 1] = np.nan
    out[n - 1] = x[:n].mean(axis=0)
    for i in range(n, t):
        out[i] += beta * out[i - 1]
    return _restore(out, squeeze), defined


def macd(closes, cfg: IndicatorConfig = IndicatorConfig()):
    """EMA(fast) - EMA(slow); defined where the slow EMA is."""
    fast, d_fast = ema(closes, cfg.macd_fast)
    slow, d_slow = ema(closes, cfg.macd_slow)
    return np.subtract(fast, slow, out=fast), d_fast & d_slow


def bollinger(closes, cfg: IndicatorConfig = IndicatorConfig()):
    """Bands mid +- k*sigma over a window INCLUDING the current bar.

    sigma is the population standard deviation. Returns (ub, lb, defined).
    """
    x, squeeze = _as_columns(closes)
    t = x.shape[0]
    n = cfg.boll_period
    defined = _check_window(n, t, n - 1, "bollinger")
    windows = sliding_window_view(x, n, axis=0)  # ends at index s+n-1
    mid = windows.mean(axis=-1)
    # two-pass variance; a cumsum-of-squares shortcut cancels catastrophically
    dev = windows - mid[..., None]
    width = np.square(dev, out=dev).mean(axis=-1)  # the variance, then k * sigma in place
    del dev
    np.multiply(cfg.boll_k, np.sqrt(width, out=width), out=width)
    ub = _blank(x.shape)
    lb = _blank(x.shape)
    np.add(mid, width, out=ub[n - 1 :])
    np.subtract(mid, width, out=lb[n - 1 :])
    return _restore(ub, squeeze), _restore(lb, squeeze), defined


# ---------------------------------------------------------------------------
# oscillators
# ---------------------------------------------------------------------------

def rsi(closes, n: int):
    """Relative strength over the last n close-to-close moves, in [0, 100].

    Degenerate windows follow the standard conventions: all-gain 100,
    all-loss 0, flat 50.
    """
    x, squeeze = _as_columns(closes)
    t = x.shape[0]
    defined = _check_window(n, t, n, "rsi")
    gains = np.diff(x, axis=0)
    losses = np.negative(gains)
    np.copyto(losses, 0.0, where=~(gains < 0))
    np.copyto(gains, 0.0, where=~(gains > 0))
    avg_gain = sliding_window_view(gains, n, axis=0).mean(axis=-1)
    avg_loss = sliding_window_view(losses, n, axis=0).mean(axis=-1)
    del gains, losses
    denom = np.add(avg_gain, avg_loss, out=avg_loss)
    flat = ~(denom > 0)
    np.copyto(denom, 1.0, where=flat)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.divide(avg_gain, denom, out=avg_gain)
    np.copyto(ratio, 0.5, where=flat)
    out = _blank(x.shape)
    np.multiply(100.0, ratio, out=out[n:])
    return _restore(out, squeeze), defined


def cci(high, low, close, n: int):
    """Commodity channel index with the window including the current bar.

    A zero mean deviation (flat window) maps to 0.
    """
    h, squeeze = _as_columns(high)
    l, _ = _as_columns(low)
    c, _ = _as_columns(close)
    t = h.shape[0]
    defined = _check_window(n, t, n - 1, "cci")
    tp = np.add(h, l)
    tp += c
    tp /= 3.0
    windows = sliding_window_view(tp, n, axis=0)
    mean_tp = windows.mean(axis=-1)
    dev = windows - mean_tp[..., None]
    mean_dev = np.abs(dev, out=dev).mean(axis=-1)
    del dev
    flat = ~(mean_dev > 0)
    out = _blank(h.shape)
    raw = out[n - 1 :]
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(np.subtract(tp[n - 1 :], mean_tp, out=raw), np.multiply(0.015, mean_dev, out=mean_dev), out=raw)
    np.copyto(raw, 0.0, where=flat)
    return _restore(out, squeeze), defined


def dx(high, low, close, n: int):
    """Directional movement index in [0, 100] with Wilder smoothing of period n.

    The smoothed +DM, -DM and TR sums start as the plain sum of the first n one-bar
    terms and step S <- current + S*(1 - 1/n), one in-place (3, M) row update per bar;
    the DIs and DX then run over the whole block. A zero +DI + -DI maps to 0.
    """
    h, squeeze = _as_columns(high)
    l, _ = _as_columns(low)
    c, _ = _as_columns(close)
    t = h.shape[0]
    defined = _check_window(n, t, n, "dx")
    sums = np.empty((t - 1, 3, h.shape[1]))  # row k: the +DM, -DM and TR terms of bar k+1
    # TR = max(h - l, max(|h - c_prev|, |l - c_prev|)), built in its row of sums
    tr, term = sums[:, 2], np.subtract(l[1:], c[:-1])
    np.abs(np.subtract(h[1:], c[:-1], out=tr), out=tr)
    np.maximum(tr, np.abs(term, out=term), out=tr)
    np.maximum(np.subtract(h[1:], l[1:], out=term), tr, out=tr)
    del term
    up, down = h[1:] - h[:-1], l[:-1] - l[1:]
    sums[:, :2] = 0.0
    np.copyto(sums[:, 0], up, where=(up > down) & (up > 0))
    np.copyto(sums[:, 1], down, where=(down > up) & (down > 0))
    # numpy sums time pairwise where it is contiguous (ticker-major, 1-D) and row by row elsewhere
    sums[n - 1] = (np.asfortranarray(sums[:n]) if up.flags.f_contiguous else sums[:n]).sum(axis=0)
    del up, down
    decay = 1.0 - 1.0 / n
    for k in range(n, t - 1):
        sums[k] += sums[k - 1] * decay
    # the DIs, their total and DX overwrite the smoothed sums they are made from
    s_plus, s_minus, s_tr = sums[n - 1 :].transpose(1, 0, 2)
    flat = ~(s_tr > 0)
    np.copyto(s_tr, 1.0, where=flat)
    for di in (s_plus, s_minus):
        with np.errstate(invalid="ignore", divide="ignore"):
            np.divide(np.multiply(100.0, di, out=di), s_tr, out=di)
        np.copyto(di, 0.0, where=flat)
    total = np.add(s_plus, s_minus, out=s_tr)
    empty = ~(total > 0)
    np.copyto(total, 1.0, where=empty)
    # ratio first: |a-b|/(a+b) <= 1 exactly, so DX stays within [0, 100]
    ratio = np.divide(np.abs(np.subtract(s_plus, s_minus, out=s_plus), out=s_plus), total, out=s_plus)
    out = _blank(h.shape)
    np.multiply(100.0, ratio, out=out[n:])
    np.copyto(out[n:], 0.0, where=empty)
    return _restore(out, squeeze), defined


# ---------------------------------------------------------------------------
# turbulence
# ---------------------------------------------------------------------------

def _check_turbulence_window(window: int, n_tickers: int, t_len: int) -> np.ndarray:
    if window <= n_tickers:
        raise ValueError(f"turbulence window ({window}) must exceed the ticker count ({n_tickers})")
    return _check_window(window, t_len, window + 1, "turbulence")


def turbulence(panel: MarketPanel, window: int):
    """Mahalanobis distance of each return vector from its trailing window.

    d[t] = (r_t - mu) Sigma^-1 (r_t - mu)^T with mu/Sigma the mean and sample
    covariance of the `window` return vectors strictly before t. Undefined for
    t < window + 1. Sigma gets an eps*I bump when the Cholesky factorization
    fails; if it still fails the data is degenerate and IndicatorError is
    raised.
    """
    n_tickers = panel.n_tickers
    t_len = panel.n_timestamps
    defined = _check_turbulence_window(window, n_tickers, t_len)

    closes = panel.close
    returns = closes[1:] / closes[:-1] - 1.0  # returns[k] belongs to t = k+1
    values = np.full(t_len, np.nan)
    for t in range(window + 1, t_len):
        trailing = returns[t - window - 1 : t - 1]
        mu = trailing.mean(axis=0)
        sigma = np.atleast_2d(np.cov(trailing, rowvar=False, ddof=1))
        dev = returns[t - 1] - mu
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            eps = 1e-8 * np.trace(sigma) / n_tickers
            try:
                chol = np.linalg.cholesky(sigma + eps * np.eye(n_tickers))
            except np.linalg.LinAlgError:
                raise IndicatorError(f"return covariance is singular at index {t} even after regularization") from None
        z = np.linalg.solve(chol, dev)
        values[t] = float(z @ z)
    return values, defined


# ---------------------------------------------------------------------------
# feature assembly
# ---------------------------------------------------------------------------

_WINDOW_BLOCK = 5  # tickers per bollinger/cci call in build_features

@dataclass(frozen=True)
class FeaturePanel:
    """Per-timestamp, per-ticker indicator block, plus turbulence when asked for.

    ``features`` is (T, N, 8) in FEATURE_NAMES order, NaN where an indicator
    is not yet defined. ``closes`` carries the aligned close matrix so a
    feature panel is a self-contained input for simulation. ``turbulence`` is
    None or the ``(values, defined)`` pair of ``turbulence()``, each (T,).
    ``warmup`` is the first index where all 8 features, and turbulence when
    present, are defined for every ticker.
    """

    timestamps: np.ndarray  # int64 (T,)
    tickers: tuple[str, ...]
    features: np.ndarray  # float64 (T, N, 8)
    closes: np.ndarray  # float64 (T, N)
    warmup: int
    turbulence: tuple[np.ndarray, np.ndarray] | None = None
    config: IndicatorConfig = field(default_factory=IndicatorConfig)

    def __post_init__(self):
        object.__setattr__(self, "tickers", tuple(self.tickers))
        _freeze(self, np.int64, (np.size(self.timestamps),), "timestamps")
        t, n = self.n_timestamps, self.n_tickers
        _freeze(self, np.float64, (t, n, len(FEATURE_NAMES)), "features")
        _freeze(self, np.float64, (t, n), "closes")
        if self.turbulence is not None:
            values, defined = self.turbulence
            object.__setattr__(self, "turbulence", (_frozen(values, np.float64, (t,), "turbulence"),
                                                    _frozen(defined, bool, (t,), "turbulence_defined")))

    @property
    def n_timestamps(self) -> int:
        return int(self.timestamps.shape[0])

    @property
    def n_tickers(self) -> int:
        return len(self.tickers)


def build_features(panel: MarketPanel, cfg: IndicatorConfig = IndicatorConfig(),
                   with_turbulence: bool = False) -> FeaturePanel:
    """Compute the 8-feature block for every ticker, and the turbulence
    series when ``with_turbulence`` is set (the CLI sets it exactly when
    ``env.turbulence_gate`` is set); ``warmup`` then covers turbulence too,
    and ``cfg.turb_window`` None raises IndicatorError.

    Each indicator is one call across all tickers on ticker-major copies of
    high, low and close, bit for bit the per-ticker 1-D call; ``bollinger`` and
    ``cci`` run in column blocks of ``_WINDOW_BLOCK`` to bound their temporaries.

    Raises InsufficientHistory when the panel is shorter than the longest
    configured warmup, the turbulence window included whenever it is set.
    The turbulence window and the gate are checked before any indicator runs,
    so a config with a turbulence fault and another one reports the turbulence one.
    """
    t_len, n = panel.close.shape
    if cfg.turb_window is not None:
        _check_turbulence_window(cfg.turb_window, n, t_len)
    elif with_turbulence:
        raise IndicatorError("the turbulence gate needs indicators.turb_window, which is null")
    h, l, c = (np.ascontiguousarray(x.T).T for x in (panel.high, panel.low, panel.close))
    blocks = [slice(a, a + _WINDOW_BLOCK) for a in range(0, n, _WINDOW_BLOCK)]
    features = np.empty((t_len, n, len(FEATURE_NAMES)))
    # calls in FEATURE_NAMES order, so of several too-short windows the first in that order is reported
    features[..., 0], d_macd = macd(c, cfg)
    for b in blocks:
        features[:, b, 1], features[:, b, 2], d_boll = bollinger(c[:, b], cfg)
    features[..., 3], d_rsi = rsi(c, cfg.rsi_period)
    for b in blocks:
        features[:, b, 4], d_cci = cci(h[:, b], l[:, b], c[:, b], cfg.cci_period)
    features[..., 5], d_dx = dx(h, l, c, cfg.dx_period)
    features[..., 6], d_s = sma(c, cfg.sma_short)
    features[..., 7], d_l = sma(c, cfg.sma_long)
    ready = d_macd & d_boll & d_rsi & d_cci & d_dx & d_s & d_l
    turb = None
    if with_turbulence:
        turb = turbulence(panel, cfg.turb_window)
        ready = ready & turb[1]
    for arr in (features, *(turb or ())):  # read-only, so FeaturePanel keeps them rather than copying
        arr.setflags(write=False)

    return FeaturePanel(
        timestamps=panel.timestamps,
        tickers=panel.tickers,
        features=features,
        closes=panel.close,
        warmup=int(np.argmax(ready)),
        turbulence=turb,
        config=cfg,
    )


def write_features_csv(fp: FeaturePanel, path) -> None:
    """Write the long-format feature CSV plus a `<path>.json` sidecar.

    The sidecar records the indicator config, warmup index, feature order,
    and ticker order. Undefined cells serialize as `nan`.
    """
    write_long_csv(path, fp.timestamps, fp.tickers, {name: fp.features[:, :, k] for k, name in enumerate(FEATURE_NAMES)})
    write_sidecar(path, {
        "config": asdict(fp.config),
        "warmup": fp.warmup,
        "feature_names": list(FEATURE_NAMES),
        "tickers": list(fp.tickers),
    })
