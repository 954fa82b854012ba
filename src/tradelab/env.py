"""Portfolio trading environment over a feature panel window.

The observation is ``[cash] ++ prices (N) ++ shares (N) ++ features (8N,
ticker-major)``, length 1 + 2N + 8N (301 in the 30-ticker reference
configuration). One episode is one full pass over a window of the panel.

Logs follow a pre-trade convention: row t records the state an agent saw at
timestamp t, so the holdings bought at step t appear first in row t+1, the
first row always shows the initial capital, and the unscaled rewards
telescope to portfolio_value[last] - portfolio_value[first] exactly.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import TradeLabError
from .indicators import FEATURE_NAMES, FeaturePanel
from .marketdata import format_timestamp, parse_timestamp

__all__ = [
    "EnvConfig",
    "Window",
    "PortfolioState",
    "StepOutcome",
    "EpisodeLog",
    "TradingEnv",
    "EnvError",
    "WindowBeforeWarmup",
    "StepAfterDone",
    "MalformedLog",
    "encode_state",
    "observation_size",
    "reset",
    "step",
    "run_episode",
    "save_episode_log",
    "load_episode_log",
]


class EnvError(TradeLabError):
    pass


class WindowBeforeWarmup(EnvError):
    pass


class StepAfterDone(EnvError):
    pass


class MalformedLog(EnvError):
    pass


@dataclass(frozen=True)
class EnvConfig:
    """Trading rules: capital, per-step trade cap, costs, reward scaling."""

    initial_capital: float = 1_000_000.0
    hmax: int = 100
    cost_rate: float = 0.001
    reward_scale: float = 1.0
    turbulence_gate: float | None = None  # off by default

    def __post_init__(self):
        if self.initial_capital <= 0:
            raise ValueError("initial_capital must be positive")
        if self.hmax < 1 or int(self.hmax) != self.hmax:
            raise ValueError("hmax must be an integer >= 1")
        if not (0.0 <= self.cost_rate <= 0.1):
            raise ValueError("cost_rate must lie in [0, 0.1]")
        if self.reward_scale <= 0:
            raise ValueError("reward_scale must be positive")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Window:
    """Half-open index range [start, stop) into a feature panel."""

    start: int
    stop: int

    def __post_init__(self):
        if self.stop - self.start < 2:
            raise ValueError("a window needs at least two timestamps (one step)")

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def steps(self) -> int:
        return self.stop - self.start - 1


@dataclass(frozen=True)
class PortfolioState:
    """Cash, integer share counts, and the closes at the current index."""

    t: int
    cash: float
    shares: np.ndarray  # int64 (N,)
    prices: np.ndarray  # float64 (N,)

    def __post_init__(self):
        shares = np.array(self.shares, dtype=np.int64)
        prices = np.array(self.prices, dtype=np.float64)
        shares.setflags(write=False)
        prices.setflags(write=False)
        object.__setattr__(self, "shares", shares)
        object.__setattr__(self, "prices", prices)

    @property
    def portfolio_value(self) -> float:
        return float(self.cash + self.shares @ self.prices)


@dataclass(frozen=True)
class StepOutcome:
    observation: np.ndarray
    reward: float
    done: bool
    info: dict


def observation_size(n_tickers: int) -> int:
    return 1 + 2 * n_tickers + len(FEATURE_NAMES) * n_tickers


def encode_state(state: PortfolioState, features: FeaturePanel) -> np.ndarray:
    """[cash] ++ prices ++ shares ++ per-ticker feature rows, fixed order."""
    block = features.features[state.t]  # (N, 8), rows are tickers
    return np.concatenate(
        [[state.cash], state.prices, state.shares.astype(np.float64), block.reshape(-1)]
    )


def _check_window(features: FeaturePanel, window: Window) -> None:
    if window.start < features.warmup:
        raise WindowBeforeWarmup(
            f"window starts at {window.start} but features are defined from {features.warmup}"
        )
    if window.stop > features.n_timestamps:
        raise ValueError(f"window stops at {window.stop} beyond panel length {features.n_timestamps}")


def reset(cfg: EnvConfig, features: FeaturePanel, window: Window) -> tuple[PortfolioState, np.ndarray]:
    """Fresh state at the window start: full cash, zero shares."""
    _check_window(features, window)
    n = features.n_tickers
    state = PortfolioState(
        t=window.start,
        cash=float(cfg.initial_capital),
        shares=np.zeros(n, dtype=np.int64),
        prices=features.closes[window.start],
    )
    return state, encode_state(state, features)


def step(
    state: PortfolioState,
    action,
    cfg: EnvConfig,
    features: FeaturePanel,
    window: Window,
) -> tuple[PortfolioState, StepOutcome]:
    """Execute one trading step: sells, then cash-clipped buys, then advance.

    The reward compares the new portfolio value (new prices, fees paid)
    against the pre-trade value at the old prices, scaled by reward_scale.
    """
    if state.t >= window.stop - 1:
        raise StepAfterDone(f"episode already finished at index {state.t}")
    a = np.asarray(action, dtype=np.float64)
    if a.shape != state.shares.shape:
        raise ValueError(f"action shape {a.shape}, expected {state.shares.shape}")
    if not np.isfinite(a).all():
        raise ValueError("action contains non-finite components")
    a = np.clip(a, -1.0, 1.0)
    desired = np.rint(a * cfg.hmax).astype(np.int64)

    gated = False
    if cfg.turbulence_gate is not None:
        turb = features.aux.get("turbulence")
        turb_defined = features.aux_defined.get("turbulence")
        if turb is not None and turb_defined is not None and turb_defined[state.t]:
            if turb[state.t] > cfg.turbulence_gate:
                desired = -state.shares  # liquidate everything, buy nothing
                gated = True

    prices = state.prices
    cash = float(state.cash)
    shares = state.shares.copy()
    value_before = float(cash + shares @ prices)

    traded = np.zeros_like(shares)
    fees = np.zeros(len(shares))

    # sells first, each clipped to current holdings
    sell_qty = np.minimum(-np.minimum(desired, 0), shares)
    proceeds = sell_qty * prices
    cash += float(proceeds.sum() * (1.0 - cfg.cost_rate))
    fees += proceeds * cfg.cost_rate
    shares -= sell_qty
    traded -= sell_qty

    # buys in ascending ticker index, clipped to remaining cash
    for i in np.nonzero(desired > 0)[0]:
        unit = prices[i] * (1.0 + cfg.cost_rate)
        qty = min(int(desired[i]), int(math.floor(cash / unit)))
        while qty > 0 and qty * unit > cash:  # guard against float overdraw
            qty -= 1
        if qty <= 0:
            continue
        cost = qty * unit
        cash -= cost
        shares[i] += qty
        traded[i] += qty
        fees[i] += qty * prices[i] * cfg.cost_rate

    t_new = state.t + 1
    new_prices = features.closes[t_new]
    new_state = PortfolioState(t=t_new, cash=cash, shares=shares, prices=new_prices)
    reward = cfg.reward_scale * (new_state.portfolio_value - value_before)
    done = t_new == window.stop - 1
    outcome = StepOutcome(
        observation=encode_state(new_state, features),
        reward=float(reward),
        done=done,
        info={"traded": traded, "fees": fees, "gated": gated},
    )
    return new_state, outcome


class TradingEnv:
    """Stateful wrapper around the functional reset/step core."""

    def __init__(self, cfg: EnvConfig, features: FeaturePanel, window: Window):
        _check_window(features, window)
        self.cfg = cfg
        self.features = features
        self.window = window
        self._state: PortfolioState | None = None

    @property
    def n_tickers(self) -> int:
        return self.features.n_tickers

    @property
    def observation_size(self) -> int:
        return observation_size(self.n_tickers)

    @property
    def state(self) -> PortfolioState:
        if self._state is None:
            raise EnvError("environment not reset yet")
        return self._state

    def reset(self) -> np.ndarray:
        self._state, observation = reset(self.cfg, self.features, self.window)
        return observation

    def step(self, action) -> StepOutcome:
        self._state, outcome = step(self.state, action, self.cfg, self.features, self.window)
        return outcome


@dataclass(frozen=True)
class EpisodeLog:
    """Pre-trade per-timestamp record of one episode.

    ``rewards`` holds UNSCALED portfolio-value deltas (length T-1); the final
    ``actions`` row is zero because no step leaves the terminal state.
    """

    timestamps: np.ndarray  # int64 (T,)
    actions: np.ndarray  # float64 (T, N)
    holdings: np.ndarray  # int64 (T, N)
    cash: np.ndarray  # float64 (T,)
    portfolio_value: np.ndarray  # float64 (T,)
    rewards: np.ndarray  # float64 (T-1,)
    agent_label: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        casts = {
            "timestamps": np.int64,
            "actions": np.float64,
            "holdings": np.int64,
            "cash": np.float64,
            "portfolio_value": np.float64,
            "rewards": np.float64,
        }
        for name, dtype in casts.items():
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        t = self.timestamps.shape[0]
        if t < 2:
            raise MalformedLog("a log needs at least two rows")
        n = self.actions.shape[1] if self.actions.ndim == 2 else -1
        if self.actions.shape != (t, n) or self.holdings.shape != (t, n):
            raise MalformedLog("actions/holdings must both be (T, N)")
        if self.cash.shape != (t,) or self.portfolio_value.shape != (t,):
            raise MalformedLog("cash/portfolio_value must be length T")
        if self.rewards.shape != (t - 1,):
            raise MalformedLog(f"rewards must have length {t - 1}, got {self.rewards.shape}")

    @property
    def n_timestamps(self) -> int:
        return int(self.timestamps.shape[0])

    @property
    def n_tickers(self) -> int:
        return int(self.actions.shape[1])


def run_episode(policy, cfg: EnvConfig, features: FeaturePanel, window: Window, seed: int = 0) -> EpisodeLog:
    """Roll one policy over the whole window and log every timestamp.

    The policy contract is ``act(observation, rng) -> action`` plus a
    ``label`` attribute; the rng is seeded here so identical inputs give a
    bit-identical log.
    """
    rng = np.random.default_rng(seed)
    env = TradingEnv(cfg, features, window)
    observation = env.reset()
    n = env.n_tickers
    length = len(window)

    timestamps = features.timestamps[window.start : window.stop]
    actions = np.zeros((length, n))
    holdings = np.zeros((length, n), dtype=np.int64)
    cash = np.zeros(length)
    values = np.zeros(length)
    rewards = np.zeros(length - 1)

    state = env.state
    holdings[0] = state.shares
    cash[0] = state.cash
    values[0] = state.portfolio_value
    for k in range(length - 1):
        action = np.clip(np.asarray(policy.act(observation, rng), dtype=np.float64), -1.0, 1.0)
        actions[k] = action
        outcome = env.step(action)
        state = env.state
        observation = outcome.observation
        holdings[k + 1] = state.shares
        cash[k + 1] = state.cash
        values[k + 1] = state.portfolio_value
        # the unscaled reward IS the value delta, recorded exactly
        rewards[k] = values[k + 1] - values[k]
    if not outcome.done:
        raise EnvError("window walk ended before the done flag")

    return EpisodeLog(
        timestamps=timestamps,
        actions=actions,
        holdings=holdings,
        cash=cash,
        portfolio_value=values,
        rewards=rewards,
        agent_label=getattr(policy, "label", type(policy).__name__),
        meta={
            "config": cfg.to_dict(),
            "window": [window.start, window.stop],
            # a Generator can stand in for the seed; only ints serialize
            "seed": int(seed) if isinstance(seed, (int, np.integer)) else None,
        },
    )


# ---------------------------------------------------------------------------
# serialization: CSV + JSON sidecar; also the ingestion format for traces
# produced by external agents
# ---------------------------------------------------------------------------

def save_episode_log(log: EpisodeLog, path) -> None:
    """Write `t,timestamp,cash,portfolio_value,reward,action_*,hold_*` rows.

    The terminal row carries reward 0.0 (no step leaves it). A `<path>.json`
    sidecar stores agent_label and the run metadata.
    """
    path = Path(path)
    n = log.n_tickers
    header = (
        ["t", "timestamp", "cash", "portfolio_value", "reward"]
        + [f"action_{i}" for i in range(n)]
        + [f"hold_{i}" for i in range(n)]
    )
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for t in range(log.n_timestamps):
            reward = log.rewards[t] if t < log.n_timestamps - 1 else 0.0
            writer.writerow(
                [
                    t,
                    format_timestamp(log.timestamps[t]),
                    repr(float(log.cash[t])),
                    repr(float(log.portfolio_value[t])),
                    repr(float(reward)),
                ]
                + [repr(float(a)) for a in log.actions[t]]
                + [int(h) for h in log.holdings[t]]
            )
    sidecar = {"agent_label": log.agent_label, "meta": log.meta}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


def load_episode_log(path) -> EpisodeLog:
    """Read a log written by save_episode_log or by an external agent.

    A missing sidecar is fine (the file stem becomes the agent label), which
    keeps the format open to traces from agents trained elsewhere.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    if len(rows) < 3:
        raise MalformedLog(f"log needs a header and at least two rows: {path}")
    header = rows[0]
    required = ["t", "timestamp", "cash", "portfolio_value", "reward"]
    if header[: len(required)] != required:
        raise MalformedLog(f"unexpected header {header[:5]} in {path}")
    action_cols = [i for i, name in enumerate(header) if name.startswith("action_")]
    hold_cols = [i for i, name in enumerate(header) if name.startswith("hold_")]
    if not action_cols or len(action_cols) != len(hold_cols):
        raise MalformedLog(f"action_*/hold_* columns missing or unbalanced in {path}")

    body = rows[1:]
    try:
        timestamps = np.array([parse_timestamp(r[1]) for r in body], dtype=np.int64)
        cash = np.array([float(r[2]) for r in body])
        values = np.array([float(r[3]) for r in body])
        rewards = np.array([float(r[4]) for r in body[:-1]])
        actions = np.array([[float(r[i]) for i in action_cols] for r in body])
        holdings = np.array([[int(float(r[i])) for i in hold_cols] for r in body], dtype=np.int64)
    except (ValueError, IndexError) as exc:
        raise MalformedLog(f"unparsable log row in {path}: {exc}") from None

    agent_label = path.stem
    meta: dict = {}
    sidecar = Path(str(path) + ".json")
    if sidecar.exists():
        data = json.loads(sidecar.read_text())
        agent_label = data.get("agent_label", agent_label)
        meta = data.get("meta", {})
    return EpisodeLog(
        timestamps=timestamps,
        actions=actions,
        holdings=holdings,
        cash=cash,
        portfolio_value=values,
        rewards=rewards,
        agent_label=agent_label,
        meta=meta,
    )
