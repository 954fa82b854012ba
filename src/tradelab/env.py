"""Portfolio trading environment over a feature panel window.

The observation is ``[cash] ++ prices (N) ++ shares (N) ++ features (8N,
ticker-major)``, length 1 + 2N + 8N (301 in the 30-ticker reference
configuration). One episode is one full pass over a window of the panel.

``TradingEnv`` is one core over E >= 1 lockstep copies of an episode: cash
(E,), integer shares (E, N) and one time index, so every copy sees the same
prices, features and turbulence gate. Buys fill in ascending ticker order
within each copy, clipped to that copy's cash. Observations are (E, D),
actions (E, N) and rewards (E,) for every E: ``run_episode`` rolls one policy
as ``copies=1`` (the default) and ``a2c_train`` steps its workers as
``copies=n_envs``, one ``step`` call per rollout step.

A one-copy step, as ``run_episode`` takes, clips, rounds and sells one cell
at a time in Python numbers; a batch of copies, as ``a2c_train`` steps, does
it with whole-array numpy calls over (E, N). Each numpy call costs about a
microsecond whatever its size, so one copy of 30 tickers steps faster cell
by cell unless nearly every cell trades, and a batch faster in arrays. Both
paths sum a copy's sale proceeds with one numpy reduction, whose pairwise
order fixes the bits, and share the buy fill, the settlement and the
observation, so they give the same bits; ``tests/test_hot_path_bits.py``
pins each against its reference step, ``RefTradingEnv``.

A one-copy step that trades nothing (it sells nothing and fills no buy: zero
actions, sells of empty positions, buys dearer than the cash left, a gated
step with nothing held) returns the previous state's read-only cash and
shares: equal values, possibly the same objects. It reads no prices, and runs
the buy pass only if a cell asks to buy. In the backtest-sweep benchmark (8
tickers) 57% of steps trade nothing at seed 11, 60% at seed 29 and 63% at
seed 37.

Logs follow a pre-trade convention: row t records the state an agent saw at
timestamp t, so the holdings bought at step t appear first in row t+1, the
first row always shows the initial capital, and the unscaled rewards
telescope to portfolio_value[last] - portfolio_value[first] exactly.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .binfile import write_file
from .config import check_fields
from .errors import TradeLabError
from .indicators import FEATURE_NAMES, FeaturePanel
from .marketdata import (
    _STAMP_YEARS,
    _ButLast,
    _freeze,
    _increasing,
    parse_floats,
    parse_timestamps,
    read_csv_columns,
    sidecar_path,
    sidecar_text,
    write_csv_columns,
)

__all__ = [
    "EnvConfig",
    "Window",
    "EnvState",
    "StepOutcome",
    "EpisodeLog",
    "TradingEnv",
    "EnvError",
    "MalformedLog",
    "observation_size",
    "split_observation",
    "run_episode",
    "save_episode_log",
    "load_episode_log",
]


class EnvError(TradeLabError):
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
        check_fields(self)
        if self.initial_capital <= 0:
            raise ValueError("initial_capital must be positive")
        if not 1 <= self.hmax <= 2**53:  # up to 2**53, rint(action * hmax) is an exact int64 for |action| <= 1
            raise ValueError(f"hmax must lie in [1, 2**53], got {self.hmax}")
        if not (0.0 <= self.cost_rate <= 0.1):
            raise ValueError("cost_rate must lie in [0, 0.1]")
        if self.reward_scale <= 0:
            raise ValueError("reward_scale must be positive")


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


class EnvState(NamedTuple):
    """The state after the last reset or step: cash and portfolio_value (E,),
    shares (E, N). The arrays are read-only and never change after they are
    returned; a step that trades nothing may hand on its predecessor's cash
    and shares."""

    t: int
    cash: np.ndarray
    shares: np.ndarray
    portfolio_value: np.ndarray


class StepOutcome(NamedTuple):
    """The (E, D) observations after a step, the (E,) scaled rewards, and
    whether the episode is over (the copies share one clock)."""

    observation: np.ndarray
    reward: np.ndarray
    done: bool


def observation_size(n_tickers: int) -> int:
    return 1 + 2 * n_tickers + len(FEATURE_NAMES) * n_tickers


@functools.cache
def _layout(n: int) -> tuple[slice, slice, slice]:
    """The prices, shares and features slices of an observation over n tickers; cash is index 0."""
    return slice(1, 1 + n), slice(1 + n, 1 + 2 * n), slice(1 + 2 * n, observation_size(n))


def split_observation(observation) -> tuple:
    """The cash, prices (N,), shares (N,) and (N, 8) feature block of a (D,)
    observation, as views; a length that fits no ticker count raises ValueError."""
    obs = np.asarray(observation)
    n, rem = divmod(obs.size - 1, 2 + len(FEATURE_NAMES))
    if obs.ndim != 1 or rem != 0 or n < 1:
        raise ValueError(f"observation shape {obs.shape} does not match the layout")
    prices, shares, features = _layout(n)
    return obs[0], obs[prices], obs[shares], obs[features].reshape(n, len(FEATURE_NAMES))


def _fill_buys(units: list, left: list, orders: list) -> None:
    """Overwrite each order with its fill: the buys of each copy fill in
    ascending ticker order, each clipped to the copy's remaining cash
    ``left[e]``, which is left holding the cash after the buys; a sell or a
    zero order fills 0.

    Python floats do the same IEEE operations, in the same order, as numpy
    scalars. A ticker dearer than the cash left buys 0 and leaves the cash as
    it is, exactly as floor(have / unit) would: for 0 < have < unit the
    quotient rounds below 1.0.
    """
    for e, row in enumerate(orders):
        have = left[e]
        for i, want in enumerate(row):
            if want > 0:
                unit = units[i]
                if unit <= have:
                    qty = math.floor(have / unit)
                    if qty >= want:
                        qty = want
                    while qty > 0 and qty * unit > have:  # guard against float overdraw
                        qty -= 1
                    have = have - qty * unit
                    row[i] = qty
                    continue
            row[i] = 0
        left[e] = have


class TradingEnv:
    """E lockstep copies of one episode over a window of the feature panel.

    ``step`` executes one trading step in every copy: it clips each action
    component to [-1, 1] (±inf included; NaN is refused), then sells, then
    buys within cash, then advances; each trades at most ``hmax`` shares per
    ticker. The one exception is a step gated by turbulence, which sells every
    position whole and buys nothing, as FinRL's environment does. Buys fill
    row by row, in ascending ticker order within each copy, and a ticker whose
    unit cost (price times 1 + cost_rate, taken once per window) is above the
    copy's remaining cash buys 0. The reward compares the new portfolio value
    (new prices, fees paid) against the pre-trade value at the old prices,
    scaled by reward_scale.
    """

    def __init__(self, cfg: EnvConfig, features: FeaturePanel, window: Window, copies: int = 1):
        if window.start < features.warmup:
            raise EnvError(f"window starts at {window.start} but features are defined from {features.warmup}")
        if window.stop > features.n_timestamps:
            raise ValueError(f"window stops at {window.stop} beyond panel length {features.n_timestamps}")
        if int(copies) != copies or copies < 1:
            raise ValueError(f"copies must be an integer >= 1, got {copies!r}")
        self.cfg, self.features, self.window = cfg, features, window
        self.copies = int(copies)
        self.n_tickers = features.n_tickers
        self.observation_size = observation_size(self.n_tickers)
        self._layout = _layout(self.n_tickers)
        # per timestamp: whether the turbulence gate liquidates every position
        if cfg.turbulence_gate is None:
            self._gate = [False] * features.n_timestamps
        elif features.turbulence is None:
            raise EnvError("turbulence_gate is set but the features carry no turbulence series")
        else:
            turb, defined = features.turbulence
            self._gate = (defined & (turb > cfg.turbulence_gate)).tolist()
        # each ticker's unit cost (price plus cost_rate) at every timestamp of the window
        self._units = features.closes[window.start : window.stop] * (1.0 + cfg.cost_rate)
        self._state: EnvState | None = None

    @property
    def state(self) -> EnvState:
        if self._state is None:
            raise EnvError("environment not reset yet")
        return self._state

    def reset(self) -> np.ndarray:
        """Fresh copies at the window start: full cash, zero shares."""
        self._settle(self.window.start, np.full(self.copies, float(self.cfg.initial_capital)),
                     np.zeros((self.copies, self.n_tickers), dtype=np.int64))
        return self._observe()

    def step(self, action) -> StepOutcome:
        """``action`` is (E, N), one row per copy. Each component is clipped
        to [-1, 1] first, so ±inf saturates to ±1; a NaN component raises
        ValueError."""
        before = self.state
        t = before.t
        if t >= self.window.stop - 1:
            raise EnvError(f"episode already finished at index {t}")
        a = np.asarray(action, dtype=np.float64)
        if a.shape != before.shares.shape:
            raise ValueError(f"action shape {a.shape}, expected {before.shares.shape}")
        trade = self._trade_cells if self.copies == 1 else self._trade_arrays
        values = self._settle(t + 1, *trade(t, a, before))
        reward = values - before.portfolio_value
        if self.cfg.reward_scale != 1.0:  # x * 1.0 is x
            reward *= self.cfg.reward_scale
        return StepOutcome(self._observe(), reward, t + 1 == self.window.stop - 1)

    # Both trade methods return the new cash (E,) and shares (E, N), bit for bit
    # the same (the one-copy one hands on before's arrays when nothing trades),
    # and share _fill_buys; only the orders and sells differ.

    def _trade_cells(self, t: int, a: np.ndarray, before: EnvState) -> tuple[np.ndarray, np.ndarray]:
        """One copy's orders and sells, one cell at a time in Python numbers:
        clip, then ``round`` (half to even, as ``np.rint``). The proceeds are
        summed by the numpy reduction of ``_trade_arrays``, whose pairwise
        order the bits depend on. Prices are read at the first sale and unit
        costs only when a cell asks to buy, and a step that sells nothing and
        fills no buy returns ``before``'s own cash and shares."""
        hmax, gated = self.cfg.hmax, self._gate[t]
        orders, held = a[0].tolist(), before.shares[0].tolist()
        proceeds, buying, prices = [0.0] * len(orders), False, None
        for i, x in enumerate(orders):
            if x >= 1.0:
                want = hmax
            elif x <= -1.0:
                want = -hmax
            elif x == x:
                want = round(x * hmax)
            else:  # NaN fails every comparison
                raise ValueError("action contains NaN components")
            if gated:
                want = -held[i]  # liquidate everything, buy nothing
            orders[i] = want
            if want > 0:
                buying = True
            elif want < 0 and held[i]:  # sell, clipped to the holding
                q = min(-want, held[i])
                held[i] -= q
                if prices is None:
                    prices = self.features.closes[t].tolist()
                proceeds[i] = q * prices[i]
        left = before.cash.tolist()
        if prices is not None:  # something sold; else cash + 0.0 is cash
            left[0] += float(np.add.reduce(proceeds)) * (1.0 - self.cfg.cost_rate)
        bought = False
        if buying:
            _fill_buys(self._units[t - self.window.start].tolist(), left, [orders])
            bought = any(orders)
        if prices is None and not bought:  # nothing sold and no buy filled: the state stands
            return before.cash, before.shares
        if bought:
            held = [h + q for h, q in zip(held, orders)]
        return np.array(left), np.array([held], dtype=np.int64)

    def _trade_arrays(self, t: int, a: np.ndarray, before: EnvState) -> tuple[np.ndarray, np.ndarray]:
        """Orders and sells as whole-array operations over (E, N), in place
        in the arrays this step has made."""
        shares = before.shares
        clipped = np.maximum(a, -1.0)  # np.clip, at less call overhead; NaN stays NaN
        np.minimum(clipped, 1.0, out=clipped)
        if math.isnan(np.add.reduce(clipped, axis=None)):  # else finite: every component lies in [-1, 1]
            raise ValueError("action contains NaN components")
        if self._gate[t]:
            desired = -shares  # liquidate everything, buy nothing
        else:
            clipped *= self.cfg.hmax
            desired = np.rint(clipped, out=clipped).astype(np.int64)
        sold = np.minimum(desired, 0)  # each sell clipped to the holding
        np.negative(sold, out=sold)
        np.minimum(sold, shares, out=sold)
        cash = before.cash + np.add.reduce(sold * self.features.closes[t], axis=1) * (1.0 - self.cfg.cost_rate)
        left, fills = cash.tolist(), desired.tolist()
        _fill_buys(self._units[t - self.window.start].tolist(), left, fills)
        held = np.subtract(shares, sold, out=sold)
        held += np.array(fills, dtype=np.int64)
        return np.array(left), held

    def _settle(self, t: int, cash: np.ndarray, shares: np.ndarray) -> np.ndarray:
        """Make the state at index ``t`` the current one and return its values.
        ``np.vecdot`` takes one dot product per copy, so each value is
        bit-equal to ``cash[e] + shares[e] @ prices``."""
        values = cash + np.vecdot(shares, self.features.closes[t])
        for arr in (cash, shares, values):
            arr.setflags(write=False)
        self._state = EnvState(t, cash, shares, values)
        return values

    def _observe(self) -> np.ndarray:
        t, cash, shares, _ = self._state
        prices, held, block = self._layout
        obs = np.empty((shares.shape[0], self.observation_size))
        obs[:, 0] = cash
        obs[:, prices] = self.features.closes[t]
        obs[:, held] = shares
        obs[:, block] = self.features.features[t].reshape(-1)
        return obs


@dataclass(frozen=True)
class EpisodeLog:
    """Pre-trade per-timestamp record of one episode.

    ``rewards`` holds UNSCALED portfolio-value deltas (length T-1); the final
    ``actions`` row is zero because no step leaves the terminal state.
    The label is a string, timestamps strictly increase within UTC years 1-9999 (the
    years a saved log can spell), holdings are never negative, and cash, values and
    rewards are finite; a fault names the column and the row it has in the saved log (t + 2).
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
        _freeze(self, np.int64, None, "timestamps", "holdings")
        _freeze(self, np.float64, None, "actions", "cash", "portfolio_value", "rewards")
        if not isinstance(self.agent_label, str):
            raise MalformedLog(f"agent_label must be a string, got {self.agent_label!r}")
        t = self.timestamps.shape[0]
        if t < 2:
            raise MalformedLog("a log needs at least two rows")
        n = self.actions.shape[1] if self.actions.ndim == 2 else -1
        if n < 1 or self.actions.shape != (t, n) or self.holdings.shape != (t, n):
            raise MalformedLog("actions/holdings must both be (T, N), with at least one ticker")
        if self.cash.shape != (t,) or self.portfolio_value.shape != (t,):
            raise MalformedLog("cash/portfolio_value must be length T")
        if self.rewards.shape != (t - 1,):
            raise MalformedLog(f"rewards must have length {t - 1}, got {self.rewards.shape}")
        ordered = _increasing(self.timestamps)
        inside = (self.timestamps >= _STAMP_YEARS[0]) & (self.timestamps < _STAMP_YEARS[1])
        money = {"cash": self.cash, "portfolio_value": self.portfolio_value,
                 "reward": np.append(self.rewards, 0.0)}  # the terminal row has no reward
        ok = ordered & inside & (self.holdings >= 0).all(axis=1)
        for values in money.values():
            ok &= np.isfinite(values)
        if not ok.all():  # the first faulty row: by its holding, else its timestamp, cash, value, reward
            i = int(np.argmin(ok))
            if (self.holdings[i] < 0).any():
                j = int(np.argmax(self.holdings[i] < 0))
                raise MalformedLog(f"negative holding {self.holdings[i, j]}", column=f"hold_{j}", row=i + 2)
            if not inside[i]:
                raise MalformedLog("timestamp outside UTC years 1-9999", column="timestamp", row=i + 2)
            if not ordered[i]:
                raise MalformedLog("timestamp not strictly increasing", column="timestamp", row=i + 2)
            column, values = next((c, v) for c, v in money.items() if not math.isfinite(v[i]))
            raise MalformedLog(f"non-finite {column} {float(values[i])!r}", column=column, row=i + 2)

    @property
    def n_timestamps(self) -> int:
        return int(self.timestamps.shape[0])

    @property
    def n_tickers(self) -> int:
        return int(self.actions.shape[1])


def run_episode(policy, cfg: EnvConfig, features: FeaturePanel, window: Window, seed: int = 0) -> EpisodeLog:
    """Roll one policy over the whole window and log every timestamp.

    The policy contract is ``act(observation (D,), rng) -> action (N,)`` plus
    a ``label`` attribute; the rng is seeded here so identical inputs give a
    bit-identical log. The env is one copy, so row 0 of its batch is the episode.
    The log records each action as the env takes it: clipped to [-1, 1], ±inf
    included. An action of the wrong shape or with a NaN component raises
    ValueError naming the policy, the step index and the shapes.
    """
    rng = np.random.default_rng(seed)
    env = TradingEnv(cfg, features, window)
    observation = env.reset()[0]
    n = env.n_tickers
    length = len(window)
    label = getattr(policy, "label", type(policy).__name__)

    actions = np.zeros((length, n))
    holdings = np.zeros((length, n), dtype=np.int64)
    cash = np.zeros(length)
    values = np.zeros(length)
    action = None
    try:
        for k in range(length):
            state = env.state
            cash[k], holdings[k], values[k] = state.cash[0], state.shares[0], state.portfolio_value[0]
            if k == length - 1:
                break
            action = policy.act(observation, rng)
            actions[k] = action  # as returned: step clips what it takes, and the log is clipped once below
            observation = env.step(actions[k : k + 1]).observation[0]
    except ValueError as exc:
        raise ValueError(f"policy {label!r} at step {k}: last action of shape {np.shape(action)}, "
                         f"expected ({n},): {exc}") from exc
    np.minimum(np.maximum(actions, -1.0, out=actions), 1.0, out=actions)  # np.clip in place
    rewards = np.diff(values)  # the unscaled reward IS the value delta, recorded exactly
    for arr in (actions, holdings, cash, values, rewards):  # read-only, so EpisodeLog keeps them rather than copying
        arr.setflags(write=False)

    return EpisodeLog(
        timestamps=features.timestamps[window.start : window.stop],
        actions=actions,
        holdings=holdings,
        cash=cash,
        portfolio_value=values,
        rewards=rewards,
        agent_label=label,
        meta={
            "config": asdict(cfg),
            "window": [window.start, window.stop],
            # a Generator can stand in for the seed; only ints serialize
            "seed": int(seed) if isinstance(seed, (int, np.integer)) else None,
        },
    )


# ---------------------------------------------------------------------------
# serialization: CSV + JSON sidecar; also the ingestion format for traces
# produced by external agents
# ---------------------------------------------------------------------------

# the fixed columns that open every episode log, before action_* and hold_*
_LOG_COLUMNS = ("t", "timestamp", "cash", "portfolio_value", "reward")


def save_episode_log(log: EpisodeLog, path) -> None:
    """Write `t,timestamp,cash,portfolio_value,reward,action_*,hold_*` rows.

    The terminal row carries reward 0.0 (no step leaves it). A `<path>.json`
    sidecar stores agent_label and the run metadata. It is renamed into place
    before the CSV, so a save that stops between the two leaves no CSV that
    would load under its file stem's label.
    """
    path = Path(path)
    sidecar = sidecar_text({"agent_label": log.agent_label, "meta": log.meta})
    n = log.n_tickers
    header = [*_LOG_COLUMNS, *(f"action_{i}" for i in range(n)), *(f"hold_{i}" for i in range(n))]
    write_file(sidecar_path(path), [sidecar])
    write_csv_columns(path, header, [np.arange(log.n_timestamps), log.timestamps.view("datetime64[s]"), log.cash,
                                     log.portfolio_value, np.append(log.rewards, 0.0), *log.actions.T, *log.holdings.T])


def _share_counts(cells) -> np.ndarray:
    values = parse_floats(cells)
    whole = (np.abs(values) < 2.0**63) & (np.floor(values) == values)  # False for NaN and ±inf
    if not whole.all():
        raise ValueError(f"{cells[int(np.argmin(whole))]!r} is not a whole number of shares")
    return values.astype(np.int64)


def _indexed_columns(header: list[str], prefix: str, path) -> list[int]:
    """The positions of the header's ``<prefix><i>`` columns in the order of
    ``i``, which must be ASCII digits; the indices must be 0..n-1, each once."""
    found: dict[int, int] = {}
    for j, name in enumerate(header):
        if name.startswith(prefix):
            suffix = name[len(prefix):]
            if not (suffix.isascii() and suffix.isdigit()):
                raise MalformedLog("column index is not an integer", path=path, row=1, column=name)
            if int(suffix) in found:
                raise MalformedLog(f"column index {int(suffix)} repeats", path=path, row=1, column=name)
            found[int(suffix)] = j
    for i, j in found.items():
        if i >= len(found):
            raise MalformedLog(f"column index {i} is outside 0..{len(found) - 1}", path=path, row=1, column=header[j])
    return [found[i] for i in range(len(found))]


def load_episode_log(path) -> EpisodeLog:
    """Read a log written by save_episode_log or by an external agent.

    A missing sidecar is fine (the file stem becomes the agent label), which
    keeps the format open to traces from agents trained elsewhere. Holdings
    must be whole numbers of shares ("3.0" reads as 3).
    """
    path = Path(path)
    parsers = [parse_timestamps, parse_floats, parse_floats, _ButLast(parse_floats)]  # the terminal reward is no step

    def pick(header: list[str]) -> list[int]:
        if tuple(header[: len(_LOG_COLUMNS)]) != _LOG_COLUMNS:
            raise MalformedLog(f"unexpected header {header[: len(_LOG_COLUMNS)]}", path=path, row=1)
        actions, holds = _indexed_columns(header, "action_", path), _indexed_columns(header, "hold_", path)
        if not actions or len(actions) != len(holds):
            raise MalformedLog("action_*/hold_* columns missing or unbalanced", path=path, row=1)
        parsers.extend([parse_floats] * len(actions) + [_share_counts] * len(holds))
        return [*range(1, len(_LOG_COLUMNS)), *actions, *holds]  # every column but t

    arrays, fault = read_csv_columns(path, MalformedLog, pick, parsers)
    if fault is not None:
        raise fault
    timestamps, cash, values, rewards = arrays[:4]
    n = (len(arrays) - 4) // 2
    # each stacked block replaces its columns before the next is stacked
    actions = np.column_stack(arrays[4 : 4 + n])
    del arrays[4 : 4 + n]
    holdings = np.column_stack(arrays[4:])
    del arrays
    for arr in (timestamps, actions, holdings, cash, values, rewards):  # read-only, so EpisodeLog keeps them
        arr.setflags(write=False)

    agent_label = path.stem
    meta: dict = {}
    sidecar = sidecar_path(path)
    if sidecar.exists():
        try:
            data = json.loads(sidecar.read_text(encoding="utf-8"))
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise MalformedLog(f"sidecar {sidecar} is not JSON: {exc}") from None
        if not isinstance(data, dict) or not isinstance(data.get("agent_label", ""), str) \
                or not isinstance(data.get("meta", {}), dict):
            raise MalformedLog(f"sidecar {sidecar} must be a JSON object with a string agent_label "
                               f"and an object meta, got {data!r}")
        agent_label = data.get("agent_label", agent_label)
        meta = data.get("meta", {})
    try:
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
    except MalformedLog as exc:
        raise MalformedLog(exc.reason, path=path, row=exc.row, column=exc.column) from None
