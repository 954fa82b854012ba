"""Trading-environment accounting, checked against hand-built oracles."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from conftest import flat_features, make_features, turbulent_features
from tradelab import env as env_module
from tradelab.env import (
    EnvConfig,
    EnvError,
    EpisodeLog,
    MalformedLog,
    TradingEnv,
    Window,
    load_episode_log,
    observation_size,
    run_episode,
    save_episode_log,
    split_observation,
)


class _Hold:
    label = "hold"

    def act(self, observation, rng):
        n = (len(observation) - 1) // 10
        return np.zeros(n)


class _BuyOnce:
    label = "buy-once"

    def __init__(self):
        self.fired = False

    def act(self, observation, rng):
        n = (len(observation) - 1) // 10
        if self.fired:
            return np.zeros(n)
        self.fired = True
        return np.ones(n)


class _Random:
    label = "random"

    def act(self, observation, rng):
        n = (len(observation) - 1) // 10
        return rng.uniform(-1.0, 1.0, size=n)


# ---------------------------------------------------------------------------
# reset / encode
# ---------------------------------------------------------------------------

def test_observation_is_301_dimensional_for_30_tickers():
    features = make_features([f"T{i:02d}" for i in range(30)], 40, seed=2)
    observation = TradingEnv(EnvConfig(), features, Window(16, 40)).reset()
    assert observation_size(30) == 301
    assert observation.shape == (1, 301)  # one copy by default


def test_split_observation_roundtrip():
    for n in (1, 2, 30):
        observation = np.arange(observation_size(n), dtype=np.float64)
        cash, prices, shares, block = split_observation(observation)
        assert cash == 0.0
        assert np.array_equal(prices, np.arange(1, 1 + n)) and np.array_equal(shares, np.arange(1 + n, 1 + 2 * n))
        assert np.array_equal(block, np.arange(1 + 2 * n, 1 + 10 * n).reshape(n, 8))


@pytest.mark.parametrize("observation", [np.zeros(12), np.zeros(1), np.zeros((2, 11))], ids=["12", "1", "2-d"])
def test_split_observation_rejects_bad_layout(observation):
    with pytest.raises(ValueError, match="does not match the layout"):
        split_observation(observation)


def test_split_observation_reads_what_the_env_observes():
    features = make_features(["A", "B", "C"], 30, seed=4)
    env = TradingEnv(EnvConfig(), features, Window(16, 30))
    env.reset()
    observation = env.step(np.full((1, 3), 0.5)).observation[0]
    cash, prices, shares, block = split_observation(observation)
    assert cash == env.state.cash[0] and np.array_equal(shares, env.state.shares[0])
    assert np.array_equal(prices, features.closes[17]) and np.array_equal(block, features.features[17])


def test_reset_initial_state():
    features = make_features(["A", "B"], 30, seed=1)
    cfg = EnvConfig()
    env = TradingEnv(cfg, features, Window(16, 30))
    observation = env.reset()
    state = env.state
    assert np.array_equal(state.cash, [1_000_000.0]) and np.array_equal(state.portfolio_value, [1_000_000.0])
    assert np.array_equal(state.shares, np.zeros((1, 2), dtype=np.int64))
    assert observation[0, 0] == 1_000_000.0
    assert state.t == 16


def test_reset_is_deterministic():
    features = make_features(["A", "B"], 30, seed=1)
    first = TradingEnv(EnvConfig(), features, Window(16, 30)).reset()
    second = TradingEnv(EnvConfig(), features, Window(16, 30)).reset()
    assert np.array_equal(first, second)


def test_reset_before_warmup_rejected():
    features = make_features(["A", "B"], 30, seed=1)
    with pytest.raises(EnvError, match="window starts at 10 but features are defined from"):
        TradingEnv(EnvConfig(), features, Window(10, 30)).reset()


def test_window_past_the_panel_rejected():
    features = make_features(["A", "B"], 30, seed=1)
    with pytest.raises(ValueError, match="window stops at 31 beyond panel length 30"):
        TradingEnv(EnvConfig(), features, Window(16, 31))


def test_window_needs_two_rows():
    with pytest.raises(ValueError):
        Window(5, 6)


def test_encode_layout_small():
    features = flat_features(np.array([[10.0, 20.0], [11.0, 19.0]]))
    cfg = EnvConfig(initial_capital=500.0)
    (observation,) = TradingEnv(cfg, features, Window(0, 2)).reset()
    assert observation.shape == (21,)  # 1 + 2*2 + 8*2
    assert observation[0] == 500.0
    assert list(observation[1:3]) == [10.0, 20.0]
    assert list(observation[3:5]) == [0.0, 0.0]
    assert np.array_equal(observation[5:], features.features[0].reshape(-1))


def test_encode_shares_slice_tracks_state():
    features = make_features(["A", "B", "C"], 40, seed=3)
    env = TradingEnv(EnvConfig(hmax=10), features, Window(16, 40))
    observation = env.reset()
    rng = np.random.default_rng(0)
    n = 3
    for _ in range(10):
        outcome = env.step(rng.uniform(-1, 1, size=(1, n)))
        observation = outcome.observation
        assert np.array_equal(observation[:, 1 + n : 1 + 2 * n], env.state.shares.astype(float))
        assert np.array_equal(observation[:, 0], env.state.cash)


# ---------------------------------------------------------------------------
# step accounting
# ---------------------------------------------------------------------------

def test_hand_accounting_oracle():
    # prices (10, 20) -> (11, 19), buy 10 shares of each at 0.1% cost:
    #   spend 10*10*1.001 + 10*20*1.001 = 300.3, fees 0.1 + 0.2 = 0.3
    #   V_old = 1000, V_new = 699.7 + 10*11 + 10*19 = 999.7, reward = -0.3
    features = flat_features(np.array([[10.0, 20.0], [11.0, 19.0]]))
    cfg = EnvConfig(initial_capital=1000.0, hmax=10, cost_rate=0.001)
    env = TradingEnv(cfg, features, Window(0, 2))
    env.reset()
    outcome = env.step(np.array([[1.0, 1.0]]))
    state = env.state
    assert np.array_equal(state.shares, [[10, 10]])
    assert abs(state.cash[0] - 699.7) <= 1e-12
    assert abs((1000.0 - state.cash[0]) - (10 * 10.0 + 10 * 20.0) - 0.3) <= 1e-12  # the fees
    assert outcome.reward.shape == (1,) and abs(outcome.reward[0] - (-0.3)) <= 1e-12
    assert outcome.done


def test_hold_action_keeps_cash_and_pays_nothing():
    features = flat_features(np.array([[10.0, 20.0], [11.0, 19.0], [12.0, 18.0]]))
    cfg = EnvConfig(initial_capital=1000.0, hmax=10)
    env = TradingEnv(cfg, features, Window(0, 3))
    env.reset()
    env.step(np.array([[1.0, 0.0]]))  # 10 shares of ticker 0 at price 10
    cash_before = env.state.cash
    outcome = env.step(np.zeros((1, 2)))
    assert np.array_equal(env.state.cash, cash_before)
    # reward = shares . delta-price = 10 * (12 - 11)
    assert abs(outcome.reward[0] - 10.0) <= 1e-9


def test_sell_clips_to_holdings():
    features = flat_features(np.array([[10.0, 20.0], [11.0, 19.0], [12.0, 18.0]]))
    cfg = EnvConfig(initial_capital=1000.0, hmax=50, cost_rate=0.0)
    env = TradingEnv(cfg, features, Window(0, 3))
    env.reset()
    env.step(np.array([[0.1, 0.0]]))  # buy 5 of ticker 0
    assert np.array_equal(env.state.shares, [[5, 0]])
    env.step(np.array([[-1.0, -1.0]]))  # try to sell 50 of each
    assert np.array_equal(env.state.shares, [[0, 0]])
    assert np.array_equal(env.state.cash, [1005.0])  # 1000 - 5 * 10 + 5 * 11: the 5 held, no more


def test_buy_clips_to_cash():
    features = flat_features(np.array([[100.0], [100.0]]))
    cfg = EnvConfig(initial_capital=550.0, hmax=100, cost_rate=0.0)
    env = TradingEnv(cfg, features, Window(0, 2))
    env.reset()
    env.step(np.array([[1.0]]))
    state = env.state
    assert np.array_equal(state.shares, [[5]])  # floor(550 / 100)
    assert abs(state.cash[0] - 50.0) <= 1e-12


def test_buys_fill_in_ascending_ticker_order():
    features = flat_features(np.array([[100.0, 100.0], [100.0, 100.0]]))
    cfg = EnvConfig(initial_capital=350.0, hmax=3, cost_rate=0.0)
    env = TradingEnv(cfg, features, Window(0, 2))
    env.reset()
    env.step(np.array([[1.0, 1.0]]))
    state = env.state
    assert state.shares.tolist() == [[3, 0]]  # ticker 0 exhausts the cash first
    assert abs(state.cash[0] - 50.0) <= 1e-12


def test_hmax_at_its_bound_buys_within_cash():
    # EnvConfig refuses hmax above 2**53; at the bound rint(action * hmax) is an
    # exact int64, so a full buy step raises no overflow warning (warnings are errors)
    features = flat_features(np.array([[100.0, 100.0], [100.0, 100.0]]))
    env = TradingEnv(EnvConfig(initial_capital=350.0, hmax=2**53, cost_rate=0.0), features, Window(0, 2))
    env.reset()
    env.step(np.array([[1.0, 1.0]]))
    assert env.state.shares.tolist() == [[3, 0]]
    assert env.state.cash.tolist() == [50.0]


def test_step_after_done():
    features = flat_features(np.array([[10.0], [11.0]]))
    cfg = EnvConfig()
    env = TradingEnv(cfg, features, Window(0, 2))
    env.reset()
    env.step(np.zeros((1, 1)))
    with pytest.raises(EnvError, match="episode already finished at index 1"):
        env.step(np.zeros((1, 1)))


def test_invalid_actions_rejected():
    features = flat_features(np.array([[10.0, 20.0], [11.0, 19.0]]))
    cfg = EnvConfig()
    env = TradingEnv(cfg, features, Window(0, 2))
    env.reset()
    with pytest.raises(ValueError):
        env.step(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        env.step(np.zeros((1, 3)))
    with pytest.raises(ValueError):  # one copy still takes an (E, N) action
        env.step(np.zeros(2))


def test_action_components_clamped():
    features = flat_features(np.array([[10.0], [10.0]]))
    cfg = EnvConfig(initial_capital=10_000.0, hmax=10, cost_rate=0.0)
    env = TradingEnv(cfg, features, Window(0, 2))
    env.reset()
    env.step(np.array([[25.0]]))
    state = env.state
    assert np.array_equal(state.shares, [[10]])  # clamped to +1 before scaling by hmax


@pytest.mark.parametrize("copies", [1, 4])
@pytest.mark.parametrize("gate", [None, 12.0], ids=["ungated", "gated"])
def test_infinite_components_saturate_to_unit_ones(gate, copies):
    """A step clips each component first, so ±inf leaves exactly the state,
    reward and observation that ±1 in its place leaves."""
    features = turbulent_features(23)
    window = Window(16, 60)
    cfg = EnvConfig(initial_capital=50_000.0, hmax=40, reward_scale=1e-3, turbulence_gate=gate)
    infinite_env, unit_env = (TradingEnv(cfg, features, window, copies=copies) for _ in range(2))
    assert np.array_equal(infinite_env.reset(), unit_env.reset())
    turb, defined = features.turbulence
    rng = np.random.default_rng(12)
    gated_steps = bought = 0
    for _ in range(window.steps):
        unit = rng.uniform(-1.0, 1.0, size=(copies, 5))
        saturated = rng.random((copies, 5)) < 0.4
        unit[saturated] = np.sign(unit[saturated])
        infinite = np.where(saturated, np.copysign(np.inf, unit), unit)
        t, before = infinite_env.state.t, infinite_env.state.shares
        got, expected = infinite_env.step(infinite), unit_env.step(unit)
        assert np.array_equal(got.observation, expected.observation)
        assert np.array_equal(got.reward, expected.reward) and got.done == expected.done
        for field, a, b in zip(infinite_env.state._fields, infinite_env.state, unit_env.state):
            assert np.array_equal(a, b), field
        gated_steps += bool(gate is not None and defined[t] and turb[t] > gate)
        bought += int((infinite_env.state.shares > before).sum())
    assert (gated_steps > 0) == (gate is not None) and bought > 0


@pytest.mark.parametrize("copies", [1, 4])
def test_nan_in_any_component_is_refused(copies):
    features = make_features(["A", "B", "C"], 40, seed=3)
    env = TradingEnv(EnvConfig(), features, Window(16, 40), copies=copies)
    env.reset()
    before = env.state
    for e in range(copies):
        for i in range(3):
            action = np.tile([np.inf, -np.inf, 0.5], (copies, 1))  # ±inf alone would saturate
            action[e, i] = np.nan
            with pytest.raises(ValueError, match="NaN"):
                env.step(action)
            assert env.state is before


@pytest.mark.parametrize("offset", range(7))
def test_unit_costs_on_a_window_past_index_zero(offset):
    """Buys at window step ``offset`` pay that timestamp's close times
    (1 + cost_rate), bit for bit as the product taken at the step gives it."""
    closes = np.random.default_rng(21).uniform(5.0, 500.0, size=(12, 3))
    cfg = EnvConfig(initial_capital=40_000.0, hmax=200, cost_rate=0.0013)
    window = Window(4, 12)
    env = TradingEnv(cfg, flat_features(closes), window)
    env.reset()
    for _ in range(offset):
        env.step(np.zeros((1, 3)))  # trade nothing, so the cash stays the capital
    t = env.state.t
    env.step(np.ones((1, 3)))
    have, fills = cfg.initial_capital, []
    for unit in (closes[t] * (1.0 + cfg.cost_rate)).tolist():
        qty = min(math.floor(have / unit), cfg.hmax)
        while qty > 0 and qty * unit > have:
            qty -= 1
        have = have - qty * unit
        fills.append(qty)
    assert env.state.shares.tolist() == [fills] and env.state.cash.tolist() == [have]
    assert 0 < sum(fills) < 3 * cfg.hmax  # cash binds


def test_accounting_identity_fuzz():
    # 10^4 random steps: cash and shares stay non-negative, the recomputed
    # value matches, and position changes respect hmax
    features = make_features(["A", "B", "C", "D", "E"], 120, seed=11, vol=0.02)
    cfg = EnvConfig(initial_capital=50_000.0, hmax=20, cost_rate=0.001)
    window = Window(16, 117)
    master = np.random.default_rng(99)
    total_steps = 0
    for episode in range(100):
        env = TradingEnv(cfg, features, window)
        env.reset()
        rng = np.random.default_rng(master.integers(1 << 60))
        prev_shares = env.state.shares[0]
        for _ in range(window.steps):
            env.step(rng.uniform(-1, 1, size=(1, 5)))
            t, (cash,), (shares,), (value,) = env.state  # the one copy's row
            assert cash >= 0.0
            assert np.all(shares >= 0)
            assert np.all(np.abs(shares - prev_shares) <= cfg.hmax)
            recomputed = cash + float(shares @ features.closes[t])
            assert abs(recomputed - value) <= 1e-6 * max(1.0, abs(recomputed))
            prev_shares = shares
            total_steps += 1
    assert total_steps == 10_000


# ---------------------------------------------------------------------------
# batched core: E lockstep copies
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "capital, gate",
    [(1_000_000.0, None), (50_000.0, None), (50_000.0, 12.0)],
    ids=["1m", "50k-cash-binds", "50k-gated"],
)
def test_batched_env_equals_single_envs_bit_for_bit(capital, gate):
    features = turbulent_features(21)
    window = Window(16, 60)
    cfg = EnvConfig(initial_capital=capital, hmax=40, cost_rate=0.001, reward_scale=1e-3, turbulence_gate=gate)
    batched = TradingEnv(cfg, features, window, copies=4)
    singles = [TradingEnv(cfg, features, window) for _ in range(4)]  # one copy each
    turb, defined = features.turbulence
    rng = np.random.default_rng(7)
    observations = batched.reset()
    assert observations.shape == (4, observation_size(5))
    for e, env in enumerate(singles):
        assert np.array_equal(observations[e : e + 1], env.reset())
    gated_steps = clipped_buys = 0
    for _ in range(2 * window.steps + 5):  # through done, a reset and part of a second episode
        actions = rng.uniform(-1.2, 1.2, size=(4, 5))
        before = batched.state
        outcome = batched.step(actions)
        state = batched.state
        assert outcome.reward.shape == (4,) and outcome.observation.shape == (4, observation_size(5))
        if gate is not None and defined[before.t] and turb[before.t] > gate:  # the gate liquidates
            gated_steps += 1
            assert not state.shares.any()
        desired = np.rint(np.clip(actions, -1.0, 1.0) * cfg.hmax)
        clipped_buys += np.sum((desired > 0) & (state.shares - before.shares < desired))
        for e, env in enumerate(singles):
            single = env.step(actions[e : e + 1])
            assert np.array_equal(outcome.observation[e : e + 1], single.observation)
            assert np.array_equal(outcome.reward[e : e + 1], single.reward)
            assert outcome.done == single.done
            assert np.array_equal(state.cash[e : e + 1], env.state.cash)
            assert np.array_equal(state.shares[e : e + 1], env.state.shares)
            assert np.array_equal(state.portfolio_value[e : e + 1], env.state.portfolio_value)
        if outcome.done:
            observations = batched.reset()
            for e, env in enumerate(singles):
                assert np.array_equal(observations[e : e + 1], env.reset())
    assert (gated_steps > 0) == (gate is not None)
    assert clipped_buys > 0 or capital == 1_000_000.0


def _accounting_fuzz(features, cfg: EnvConfig, window: Window) -> list[int]:
    """25 episodes of random actions over 4 copies: cash and shares stay
    non-negative, a step the turbulence gate liquidates ends with no shares,
    every other step moves at most hmax shares per ticker, and every copy's
    rewards telescope to V_T - V_0. Returns the largest one-ticker sale of
    each gated step."""
    env = TradingEnv(cfg, features, window, copies=4)
    gated = np.zeros(features.n_timestamps, dtype=bool)
    if cfg.turbulence_gate is not None:
        turb, defined = features.turbulence
        gated = defined & (turb > cfg.turbulence_gate)
    master = np.random.default_rng(98)
    gated_sales = []
    for episode in range(25):
        env.reset()
        v0 = env.state.portfolio_value
        rng = np.random.default_rng(master.integers(1 << 60))
        rewards = []
        for _ in range(window.steps):
            t, before = env.state.t, env.state.shares
            outcome = env.step(rng.uniform(-1, 1, size=(4, features.n_tickers)))
            state = env.state
            assert np.all(state.cash >= 0.0)
            assert np.all(state.shares >= 0)
            if gated[t]:
                assert not state.shares.any()
                gated_sales.append(int(before.max()))
            else:
                assert np.all(np.abs(state.shares - before) <= cfg.hmax)
            rewards.append(outcome.reward)
        assert outcome.done
        totals = np.array([math.fsum(column) for column in np.array(rewards).T])
        assert np.allclose(totals, state.portfolio_value - v0, rtol=0.0, atol=1e-9 * cfg.initial_capital)
    return gated_sales


def test_batched_accounting_fuzz():
    features = make_features(["A", "B", "C", "D", "E"], 120, seed=11, vol=0.02)
    cfg = EnvConfig(initial_capital=50_000.0, hmax=20, cost_rate=0.001)
    assert _accounting_fuzz(features, cfg, Window(16, 117)) == []


def test_gated_accounting_fuzz():
    # the gate liquidates whole positions, the one exception to the hmax bound
    features = turbulent_features(11)
    cfg = EnvConfig(initial_capital=50_000.0, hmax=20, cost_rate=0.001, turbulence_gate=12.0)
    gated_sales = _accounting_fuzz(features, cfg, Window(16, 87))
    assert len(gated_sales) > 100 and max(gated_sales) > cfg.hmax


def test_state_arrays_are_never_mutated_by_later_steps():
    features = make_features(["A", "B", "C"], 40, seed=3)
    env = TradingEnv(EnvConfig(hmax=10), features, Window(16, 40), copies=2)
    env.reset()
    env.step(np.ones((2, 3)))
    held = env.state
    snapshot = [np.array(x, copy=True) for x in held[1:]]
    env.step(-np.ones((2, 3)))
    for kept, copy in zip(held[1:], snapshot):
        assert np.array_equal(kept, copy)
        assert not kept.flags.writeable
    assert np.all(env.state.shares == 0)


def test_batched_env_checks_copies_and_action_shape():
    features = make_features(["A", "B"], 30, seed=1)
    for bad in (0, -1, 1.5):
        with pytest.raises(ValueError):
            TradingEnv(EnvConfig(), features, Window(16, 30), copies=bad)
    env = TradingEnv(EnvConfig(), features, Window(16, 30), copies=3)
    with pytest.raises(EnvError):
        env.step(np.zeros((3, 2)))
    assert env.reset().shape == (3, observation_size(2))
    with pytest.raises(ValueError):
        env.step(np.zeros(2))
    one = TradingEnv(EnvConfig(), features, Window(16, 30), copies=1)
    assert one.reset().shape == (1, observation_size(2))
    assert one.step(np.zeros((1, 2))).reward.shape == (1,)


# ---------------------------------------------------------------------------
# turbulence gate
# ---------------------------------------------------------------------------

def _gated_features():
    closes = np.array([[10.0, 20.0], [11.0, 19.0], [12.0, 18.0], [13.0, 17.0]])
    turb_values = np.array([0.0, 50.0, 0.0, 0.0])
    turb_defined = np.array([True, True, True, True])
    return flat_features(closes, turbulence=(turb_values, turb_defined))


def test_turbulence_gate_liquidates():
    features = _gated_features()
    cfg = EnvConfig(initial_capital=1000.0, hmax=10, cost_rate=0.0, turbulence_gate=25.0)
    env = TradingEnv(cfg, features, Window(0, 4))
    env.reset()
    env.step(np.array([[1.0, 1.0]]))  # accumulate at calm t=0
    held = env.state.shares
    assert held.sum() > 0
    cash = env.state.cash[0]
    env.step(np.array([[1.0, 1.0]]))  # t=1 is turbulent: sell all, buy nothing
    assert np.all(env.state.shares == 0)
    assert env.state.cash[0] == cash + float(held[0] @ features.closes[1])  # cost_rate 0


def test_turbulence_gate_respects_threshold_and_mask():
    closes = np.array([[10.0], [11.0], [12.0]])
    undefined = flat_features(closes, turbulence=(np.array([np.nan, 99.0, 0.0]), np.array([False, False, True])))
    cfg = EnvConfig(initial_capital=1000.0, hmax=5, cost_rate=0.0, turbulence_gate=10.0)
    env = TradingEnv(cfg, undefined, Window(0, 3))
    env.reset()
    env.step(np.array([[1.0]]))  # undefined turbulence: trade normally
    assert np.array_equal(env.state.shares, [[5]])
    env.step(np.array([[1.0]]))  # defined but below threshold
    assert np.array_equal(env.state.shares, [[10]])


def test_gate_off_by_default():
    features = _gated_features()
    cfg = EnvConfig(initial_capital=1000.0, hmax=10, cost_rate=0.0)
    env = TradingEnv(cfg, features, Window(0, 4))
    env.reset()
    env.step(np.array([[1.0, 1.0]]))
    held = env.state.shares
    env.step(np.array([[0.0, 0.0]]))  # t=1 would be gated: nothing is sold
    assert held.sum() > 0 and np.array_equal(env.state.shares, held)


def test_gate_without_turbulence_is_refused():
    closes = np.array([[10.0, 20.0]] * 3)
    cfg = EnvConfig(initial_capital=1000.0, hmax=10, cost_rate=0.0, turbulence_gate=25.0)
    with pytest.raises(EnvError, match="no turbulence"):
        TradingEnv(cfg, flat_features(closes), Window(0, 3))


# ---------------------------------------------------------------------------
# cost identities
# ---------------------------------------------------------------------------

def test_round_trip_free_of_cost_is_neutral():
    closes = np.array([[10.0, 20.0]] * 3)
    features = flat_features(closes)
    cfg = EnvConfig(initial_capital=1000.0, hmax=10, cost_rate=0.0)
    env = TradingEnv(cfg, features, Window(0, 3))
    env.reset()
    v0 = env.state.portfolio_value
    env.step(np.array([[1.0, 1.0]]))
    env.step(np.array([[-1.0, -1.0]]))
    assert np.array_equal(env.state.portfolio_value, v0)
    assert np.array_equal(env.state.cash, [1000.0])


def test_round_trip_cost_is_two_sided():
    closes = np.array([[10.0, 20.0]] * 3)
    features = flat_features(closes)
    rate = 0.002
    cfg = EnvConfig(initial_capital=10_000.0, hmax=10, cost_rate=rate)
    env = TradingEnv(cfg, features, Window(0, 3))
    env.reset()
    v0 = env.state.portfolio_value[0]
    env.step(np.array([[1.0, 1.0]]))
    qty = env.state.shares[0]
    env.step(np.array([[-1.0, -1.0]]))
    expected_loss = float(2 * rate * (qty @ closes[0]))
    assert abs((v0 - env.state.portfolio_value[0]) - expected_loss) <= 1e-9


# ---------------------------------------------------------------------------
# run_episode
# ---------------------------------------------------------------------------

def test_do_nothing_episode_keeps_value_flat():
    features = make_features(["A", "B"], 60, seed=4)
    log = run_episode(_Hold(), EnvConfig(), features, Window(16, 60), seed=0)
    assert np.all(log.portfolio_value == 1_000_000.0)
    assert np.all(log.rewards == 0.0)
    assert np.all(log.holdings == 0)
    assert log.agent_label == "hold"


def test_buy_and_hold_doubling_market_closed_form():
    # price path rises linearly to exactly double; ample cash buys hmax of
    # each ticker at t0, so V_end = cash_after + hmax * 2 p0 summed
    t, n = 12, 3
    p0 = np.array([10.0, 20.0, 40.0])
    closes = np.linspace(p0, 2 * p0, t)
    features = flat_features(closes)
    cfg = EnvConfig(initial_capital=100_000.0, hmax=50, cost_rate=0.0)
    log = run_episode(_BuyOnce(), cfg, features, Window(0, t), seed=0)
    spent = float(50 * p0.sum())
    expected_end = (100_000.0 - spent) + float(50 * (2 * p0).sum())
    assert np.all(log.holdings[0] == 0)
    assert np.all(log.holdings[1:] == 50)
    assert abs(log.portfolio_value[-1] - expected_end) <= 1e-9
    assert abs(log.cash[-1] - (100_000.0 - spent)) <= 1e-9


def test_episode_log_shapes_and_conventions():
    features = make_features(["A", "B"], 50, seed=5)
    window = Window(16, 50)
    log = run_episode(_Random(), EnvConfig(hmax=10), features, window, seed=3)
    assert log.n_timestamps == len(window) == 34
    assert log.actions.shape == (34, 2)
    assert log.rewards.shape == (33,)
    assert np.all(log.actions[-1] == 0.0)
    assert log.portfolio_value[0] == 1_000_000.0
    assert np.array_equal(log.timestamps, features.timestamps[16:50])


def test_reward_telescoping_exact():
    features = make_features(["A", "B", "C"], 80, seed=6, vol=0.02)
    cfg = EnvConfig(reward_scale=1e-4, hmax=25)
    log = run_episode(_Random(), cfg, features, Window(16, 80), seed=8)
    assert log.rewards.sum() == pytest.approx(log.portfolio_value[-1] - log.portfolio_value[0], rel=1e-12)


def test_portfolio_value_recomputable_from_panel():
    features = make_features(["A", "B"], 60, seed=7)
    window = Window(16, 60)
    log = run_episode(_Random(), EnvConfig(hmax=15), features, window, seed=5)
    closes = features.closes[window.start : window.stop]
    recomputed = log.cash + np.sum(log.holdings * closes, axis=1)
    assert np.allclose(recomputed, log.portfolio_value, rtol=1e-12)


class _Faulty:
    """Holds, except at step ``at``, where it returns ``action``."""

    label = "faulty"

    def __init__(self, at, action):
        self.at, self.action, self.calls = at, action, 0

    def act(self, observation, rng):
        self.calls += 1
        return self.action if self.calls - 1 == self.at else np.zeros(2)


@pytest.mark.parametrize(
    "action, detail",
    [(np.zeros(3), "could not broadcast"), (np.array([0.5, np.nan]), "NaN")],
    ids=["wrong-shape", "nan"],
)
def test_run_episode_names_the_policy_at_fault(action, detail):
    features = make_features(["A", "B"], 40, seed=2)
    with pytest.raises(ValueError) as caught:
        run_episode(_Faulty(3, action), EnvConfig(), features, Window(16, 40))
    message = str(caught.value)
    assert message.startswith(f"policy 'faulty' at step 3: last action of shape {action.shape}, expected (2,)")
    assert detail in message


def test_run_episode_determinism():
    features = make_features(["A", "B", "C"], 70, seed=8)
    cfg = EnvConfig(hmax=30)
    a = run_episode(_Random(), cfg, features, Window(16, 70), seed=42)
    b = run_episode(_Random(), cfg, features, Window(16, 70), seed=42)
    for name in ("timestamps", "actions", "holdings", "cash", "portfolio_value", "rewards"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    features = make_features(["A", "B"], 50, seed=9)
    log = run_episode(_Random(), EnvConfig(hmax=10), features, Window(16, 50), seed=1)
    path = tmp_path / "episode.csv"
    save_episode_log(log, path)
    loaded = load_episode_log(path)
    for name in ("timestamps", "actions", "holdings", "cash", "portfolio_value", "rewards"):
        assert np.array_equal(getattr(loaded, name), getattr(log, name)), name
    assert loaded.agent_label == log.agent_label
    assert loaded.meta == log.meta

    second = tmp_path / "copy.csv"
    save_episode_log(loaded, second)
    assert path.read_bytes() == second.read_bytes()


GOOD_LOG = (
    "t,timestamp,cash,portfolio_value,reward,action_0,hold_0\n"
    "0,2022-03-04T08:00:00Z,1000.0,1000.0,-10.0,1.0,0\n"
    "1,2022-03-04T09:00:00Z,500.0,990.0,0.0,0.0,49\n"
)


def test_load_external_trace_without_sidecar(tmp_path):
    path = tmp_path / "external_agent.csv"
    path.write_text(GOOD_LOG)
    log = load_episode_log(path)
    assert log.agent_label == "external_agent"
    assert log.holdings[1, 0] == 49
    assert log.rewards[0] == -10.0
    assert log.meta == {}


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,timestamp,cash\n0,2022-03-04T08:00:00Z,1\n1,2022-03-04T09:00:00Z,1\n")
    with pytest.raises(MalformedLog):
        load_episode_log(path)

    path2 = tmp_path / "short.csv"
    path2.write_text("t,timestamp,cash,portfolio_value,reward,action_0,hold_0\n0,2022-03-04T08:00:00Z,1,1,0,0,0\n")
    with pytest.raises(MalformedLog):
        load_episode_log(path2)


@pytest.mark.parametrize(
    "old, new, names",
    [
        (",0.0,49\n", ",0.0,inf\n", ["'hold_0'", "row 3", "'inf'"]),
        (",0.0,49\n", ",0.0,3.5\n", ["'hold_0'", "row 3", "'3.5'"]),
        (",1.0,0\n", ",1.0,nan\n", ["'hold_0'", "row 2", "'nan'"]),
        (",1.0,0\n", ",1.0,1e19\n", ["'hold_0'", "row 2", "'1e19'"]),
        (",500.0,", ",five hundred,", ["'cash'", "row 3", "five hundred"]),
        (",-10.0,", ",,", ["'reward'", "row 2"]),
        ("T09:00:00Z", "T25:00:00Z", ["'timestamp'", "row 3", "T25:00:00Z"]),
        ("0,2022-03-04T08:00:00Z", "0,99999999999999999999", ["'timestamp'", "row 2"]),
        (",0.0,49\n", ",0.0\n", ["row 3", "has 6 cells", "needs 7"]),
    ],
    ids=["hold-inf", "hold-fraction", "hold-nan", "hold-beyond-int64", "cash-text", "reward-empty",
         "hour-25", "stamp-beyond-int64", "short-row"],
)
def test_load_rejects_bad_cells_naming_column_and_row(tmp_path, old, new, names):
    path = tmp_path / "external.csv"
    assert old in GOOD_LOG
    path.write_text(GOOD_LOG.replace(old, new))
    with pytest.raises(MalformedLog) as caught:
        load_episode_log(path)
    assert str(path) in str(caught.value)
    for name in names:
        assert name in str(caught.value)


@pytest.mark.parametrize(
    "edits, names",
    [
        ([(",1.0,0\n", ",1.0,-5\n"), ("T09:00:00Z", "T07:00:00Z")], ["negative holding -5", "'hold_0'", "row 2"]),
        ([(",0.0,49\n", ",0.0,-1\n")], ["negative holding -1", "'hold_0'", "row 3"]),
        ([("T09:00:00Z", "T07:00:00Z")], ["not strictly increasing", "'timestamp'", "row 3"]),
        ([("T09:00:00Z", "T08:00:00Z")], ["not strictly increasing", "'timestamp'", "row 3"]),
    ],
    ids=["both-faults", "negative-holding", "stamp-earlier", "stamp-repeated"],
)
def test_load_rejects_negative_holdings_and_unordered_stamps(tmp_path, edits, names):
    text = GOOD_LOG
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "external.csv"
    path.write_text(text)
    with pytest.raises(MalformedLog) as caught:
        load_episode_log(path)
    assert str(path) in str(caught.value)
    for name in names:
        assert name in str(caught.value)


@pytest.mark.parametrize(
    "timestamps, holdings, column, row",
    [
        ([0, 3600, 7200], [[0, 1], [2, -1], [0, 0]], "hold_1", 3),
        ([0, 3600, 3600], [[0, 1], [2, 1], [0, 0]], "timestamp", 4),
        ([0, -1, 7200], [[0, 0], [0, 0], [-3, 0]], "timestamp", 3),
    ],
)
def test_episode_log_rejects_negative_holdings_and_unordered_stamps(timestamps, holdings, column, row):
    with pytest.raises(MalformedLog) as caught:
        EpisodeLog(
            timestamps=np.array(timestamps),
            actions=np.zeros((3, 2)),
            holdings=np.array(holdings),
            cash=np.ones(3),
            portfolio_value=np.ones(3),
            rewards=np.zeros(2),
            agent_label="x",
        )
    assert (caught.value.column, caught.value.row) == (column, row)
    assert str(caught.value).endswith(f"(column {column!r}, row {row})")


@pytest.mark.parametrize(
    "columns, column, row, reason",
    [
        ({"cash": [100.0, -50.0, np.nan]}, "cash", 4, "non-finite cash nan"),
        ({"cash": [100.0, 100.0, np.inf]}, "cash", 4, "non-finite cash inf"),
        ({"cash": [100.0, -np.inf, 0.0]}, "cash", 3, "non-finite cash -inf"),
        ({"portfolio_value": [100.0, np.nan, 100.0]}, "portfolio_value", 3, "non-finite portfolio_value nan"),
        ({"rewards": [np.inf, 5.0]}, "reward", 2, "non-finite reward inf"),
        ({"rewards": [0.0, np.nan], "portfolio_value": [100.0, np.inf, 100.0]}, "portfolio_value", 3,
         "non-finite portfolio_value inf"),
        ({"cash": [100.0, 100.0, -np.inf], "portfolio_value": [100.0, 100.0, np.nan]}, "cash", 4,
         "non-finite cash -inf"),
        ({"cash": [100.0, np.nan, 0.0], "holdings": [[0], [0], [-2]]}, "cash", 3, "non-finite cash nan"),
        ({"cash": [100.0, np.nan, 0.0], "holdings": [[0], [-2], [0]]}, "hold_0", 3, "negative holding -2"),
    ],
    ids=["roadmap-crafted", "inf", "minus-inf", "value-nan", "reward-inf", "value-before-reward",
         "cash-before-value", "earliest-row-first", "holding-before-cash"],
)
def test_episode_log_refuses_cash_values_and_rewards_that_cannot_be(columns, column, row, reason):
    """Cash, values and rewards must be finite; the first faulty row is
    reported, by its first faulty column: holding, timestamp, cash, value,
    reward."""
    fields = {"timestamps": np.array([0, 3600, 7200]), "actions": np.zeros((3, 1)), "holdings": np.zeros((3, 1)),
              "cash": np.full(3, 100.0), "portfolio_value": np.full(3, 100.0), "rewards": np.zeros(2)}
    fields.update((name, np.array(value)) for name, value in columns.items())
    with pytest.raises(MalformedLog) as caught:
        EpisodeLog(agent_label="x", **fields)
    assert (caught.value.reason, caught.value.column, caught.value.row) == (reason, column, row)
    EpisodeLog(agent_label="x", **{**fields, "cash": np.array([0.0, -0.0, 5e-324]), "holdings": np.zeros((3, 1)),
                                   "portfolio_value": np.ones(3), "rewards": np.zeros(2)})  # zero cash is fine


def test_load_refuses_the_crafted_nan_cash_log(tmp_path):
    """The log of a negative, then NaN, cash beside a flat value and rewards
    that do not add up is refused when read, naming cash and its saved row.
    A negative cash alone is still accepted: the benchmark's own self-test
    builds such a log to see its checks flag it."""
    path = tmp_path / "crafted.csv"
    path.write_text("t,timestamp,cash,portfolio_value,reward,action_0,hold_0\n"
                    "0,2022-03-04T08:00:00Z,100.0,100.0,1e6,0.0,0\n"
                    "1,2022-03-04T09:00:00Z,-50.0,100.0,5.0,0.0,0\n"
                    "2,2022-03-04T10:00:00Z,nan,100.0,0.0,0.0,0\n")
    with pytest.raises(MalformedLog) as caught:
        load_episode_log(path)
    assert str(caught.value) == f"non-finite cash nan ({path}, column 'cash', row 4)"


@pytest.mark.parametrize("field, value", [("timestamps", [0, 3600.7]), ("holdings", [[0.0], [1.5]]),
                                          ("holdings", [[0.0], [np.nan]])], ids=["fraction-stamp", "fraction-share",
                                                                                 "nan-share"])
def test_episode_log_refuses_a_conversion_that_changes_a_value(field, value):
    """3600.7 would be stored as 3600 and 1.5 shares as 1; whole floats still convert."""
    columns = {"timestamps": [0.0, 3600.0], "holdings": [[0.0], [2.0]]}
    log = EpisodeLog(actions=np.zeros((2, 1)), cash=np.ones(2), portfolio_value=np.ones(2), rewards=np.zeros(1),
                     agent_label="x", **{name: np.array(v) for name, v in columns.items()})
    assert log.timestamps.tolist() == [0, 3600] and log.holdings.tolist() == [[0], [2]]
    columns[field] = value
    with pytest.raises(ValueError, match=f"field '{field}' holds values that int64 cannot hold exactly"):
        EpisodeLog(actions=np.zeros((2, 1)), cash=np.ones(2), portfolio_value=np.ones(2), rewards=np.zeros(1),
                   agent_label="x", **{name: np.array(v) for name, v in columns.items()})


def test_load_rejects_non_utf8_log(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(GOOD_LOG.replace("1000.0,1000.0", "1000.0,1000.0\xe9").encode("latin-1"))
    with pytest.raises(MalformedLog) as caught:
        load_episode_log(path)
    assert str(path) in str(caught.value)


def test_load_reads_whole_float_holdings(tmp_path):
    path = tmp_path / "external.csv"
    path.write_text(GOOD_LOG.replace(",0.0,49\n", ",0.0,49.0\n").replace(",1.0,0\n", ",1.0,-0.0\n"))
    assert load_episode_log(path).holdings[:, 0].tolist() == [0, 49]


LOG_ARRAYS = ("timestamps", "actions", "holdings", "cash", "portfolio_value", "rewards")


def _long_log(path, t=20_000, n=8):
    """Save a seeded t-row, n-ticker log at ``path``; returns its arrays' size in bytes."""
    rng = np.random.default_rng(0)
    save_episode_log(EpisodeLog(
        timestamps=1_646_380_800 + 3600 * np.arange(t), actions=rng.uniform(-1.0, 1.0, (t, n)),
        holdings=rng.integers(0, 500, (t, n)), cash=rng.uniform(0.0, 1e6, t),
        portfolio_value=rng.uniform(1e5, 2e6, t), rewards=rng.standard_normal(t - 1) * 100.0, agent_label="long",
    ), path)
    return 8 * (t * (2 * n + 4) - 1)


def _traced_load(path):
    """The loaded log, and tracemalloc's (kept, peak) bytes over the load."""
    tracemalloc.start()
    try:
        log = load_episode_log(path)
        return log, tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_load_holds_a_block_of_text_not_the_file(tmp_path):
    """A 20,000-row, 8-ticker log loads within three times the size of its
    arrays: the reader keeps a block of rows as text at a time, and the parsed
    arrays, where a reader of the whole file held about eleven times it."""
    size = _long_log(tmp_path / "long.csv")
    log, (_, peak) = _traced_load(tmp_path / "long.csv")
    assert size == 3_199_992 == sum(getattr(log, name).nbytes for name in LOG_ARRAYS)
    assert peak < 3 * size, peak


def test_load_holds_one_copy_of_its_arrays(tmp_path, monkeypatch):
    """The log keeps the arrays the loader built, and each column's blocks and
    each block of action or holding columns are let go as they are joined: the
    peak is about 0.4 array sizes above the kept log. Copying the arrays into
    the log, beside the ones built, made it about 1.1."""
    size = _long_log(tmp_path / "long.csv")
    given = {}

    def capture(**fields):
        given.update(fields)
        return EpisodeLog(**fields)

    monkeypatch.setattr(env_module, "EpisodeLog", capture)
    log, (kept, peak) = _traced_load(tmp_path / "long.csv")
    assert all(getattr(log, name) is given[name] for name in LOG_ARRAYS)
    assert kept >= size and peak - kept < 0.75 * size, (peak - kept) / size


def test_load_places_log_columns_by_their_index(tmp_path):
    path = tmp_path / "external.csv"
    path.write_text(
        "t,timestamp,cash,portfolio_value,reward,action_1,action_0,hold_1,hold_0\n"
        "0,2022-03-04T08:00:00Z,1000.0,1000.0,-10.0,0.25,0.5,0,5\n"
        "1,2022-03-04T09:00:00Z,500.0,990.0,0.0,0.0,0.0,0,5\n"
        "2,2022-03-04T10:00:00Z,500.0,990.0,0.0,0.0,0.0,3,5\n"
    )
    log = load_episode_log(path)
    assert log.holdings[:, 0].tolist() == [5, 5, 5] and log.holdings[:, 1].tolist() == [0, 0, 3]
    assert log.actions[0].tolist() == [0.5, 0.25]


@pytest.mark.parametrize(
    "columns, column, reason",
    [
        ("action_0,action_x,hold_0,hold_1", "action_x", "column index is not an integer"),
        ("action_0,action_-1,hold_0,hold_1", "action_-1", "column index is not an integer"),
        ("action_0,action_1,hold_0,hold_١", "hold_١", "column index is not an integer"),
        ("action_0,action_00,hold_0,hold_1", "action_00", "column index 0 repeats"),
        ("action_0,action_1,hold_1,hold_1", "hold_1", "column index 1 repeats"),
        ("action_0,action_2,hold_0,hold_1", "action_2", "column index 2 is outside 0..1"),
        ("action_1,action_2,hold_1,hold_2", "action_2", "column index 2 is outside 0..1"),
    ],
    ids=["letter", "negative", "arabic-digit", "zero-padded-repeat", "repeat", "gap", "from-one"],
)
def test_load_refuses_log_columns_not_indexed_0_to_n(tmp_path, columns, column, reason):
    path = tmp_path / "external.csv"
    path.write_text(f"t,timestamp,cash,portfolio_value,reward,{columns}\n"
                    "0,2022-03-04T08:00:00Z,1,1,0,0,0,0,0\n1,2022-03-04T09:00:00Z,1,1,0,0,0,0,0\n", encoding="utf-8")
    with pytest.raises(MalformedLog) as caught:
        load_episode_log(path)
    assert (caught.value.reason, caught.value.column, caught.value.row) == (reason, column, 1)


@pytest.mark.parametrize(
    "sidecar, names",
    [
        ("[1]", ["JSON object", "[1]"]),
        ('"hold"', ["JSON object", "'hold'"]),
        ('{"agent_label": 7}', ["string agent_label", "7"]),
        ('{"agent_label": "x", "meta": [1]}', ["object meta", "[1]"]),
        ("{oops", ["not JSON"]),
        (b"\xff\xfe{}", ["not JSON"]),
    ],
    ids=["list", "string", "label-number", "meta-list", "not-json", "not-utf8"],
)
def test_load_rejects_malformed_sidecar(tmp_path, sidecar, names):
    features = make_features(["A", "B"], 40, seed=9)
    path = tmp_path / "episode.csv"
    save_episode_log(run_episode(_Hold(), EnvConfig(), features, Window(16, 40)), path)
    side = tmp_path / "episode.csv.json"
    side.write_bytes(sidecar if isinstance(sidecar, bytes) else sidecar.encode())
    with pytest.raises(MalformedLog) as caught:
        load_episode_log(path)
    assert str(side) in str(caught.value)
    for name in names:
        assert name in str(caught.value)


def test_episode_log_validates_shapes():
    with pytest.raises(MalformedLog):
        EpisodeLog(
            timestamps=np.array([0, 3600]),
            actions=np.zeros((2, 2)),
            holdings=np.zeros((2, 2), dtype=np.int64),
            cash=np.array([1.0, 1.0]),
            portfolio_value=np.array([1.0, 1.0]),
            rewards=np.zeros(2),  # must be T-1 = 1
            agent_label="x",
        )


def test_run_episode_refuses_a_label_that_is_not_a_string():
    class Numbered(_Hold):
        label = 5

    features = make_features(["A", "B"], 40, seed=9)
    with pytest.raises(MalformedLog, match="agent_label must be a string, got 5"):
        run_episode(Numbered(), EnvConfig(), features, Window(16, 40))


@pytest.mark.parametrize("field", ["cash", "portfolio_value"])
def test_episode_log_refuses_a_value_column_off_the_axis(field):
    columns = {"cash": np.ones(2), "portfolio_value": np.ones(2), field: np.ones(3)}
    with pytest.raises(MalformedLog, match="cash/portfolio_value must be length T"):
        EpisodeLog(timestamps=np.array([0, 3600]), actions=np.zeros((2, 2)),
                   holdings=np.zeros((2, 2), dtype=np.int64), rewards=np.zeros(1), agent_label="x", **columns)


def test_episode_log_refuses_zero_tickers():
    with pytest.raises(MalformedLog, match="at least one ticker"):
        EpisodeLog(
            timestamps=np.array([0, 3600]),
            actions=np.zeros((2, 0)),
            holdings=np.zeros((2, 0), dtype=np.int64),
            cash=np.array([1.0, 1.0]),
            portfolio_value=np.array([1.0, 1.0]),
            rewards=np.zeros(1),
            agent_label="x",
        )
