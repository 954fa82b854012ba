"""Acceptance gates: ten structural and statistical checks, one test each.

Every test prints a single `criterion N: PASS (...)` line, re-derives its
expected values through an independent route (brute-force formula oracles,
finite differences, closed-form arithmetic), and enforces its runtime budget.
Criterion 9 is a non-binding sanity echo: it prints its observation but only
asserts well-formedness.
"""

import time
import xml.etree.ElementTree as ET
from dataclasses import asdict

import numpy as np
import pytest

from conftest import SMALL_INDICATORS, flat_features, hourly_axis, make_features, make_panel, write_bars_csv
from tradelab.agents.a2c import (
    A2CConfig,
    RolloutBatch,
    a2c_loss_and_grad,
    a2c_train,
    gaussian_entropy,
    gaussian_log_density,
)
from tradelab.agents.mlp import MlpParams, init_mlp, mlp_forward
from tradelab.agents.policies import BuyAndHoldPolicy, HoldPolicy, RandomPolicy
from tradelab.analytics import behavior_profile, compare_profiles, diversity_stats, trade_stats
from tradelab.cli import main as cli_main
from tradelab.env import EnvConfig, EpisodeLog, TradingEnv, Window, observation_size, run_episode
from tradelab.indicators import bollinger, cci, dx, macd, rsi, sma, turbulence


def _verdict(criterion: int, started: float, budget: float, message: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {criterion} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"
    print(f"criterion {criterion}: PASS ({elapsed:.2f}s) - {message}")


# ---------------------------------------------------------------------------
# 1. state-vector contract
# ---------------------------------------------------------------------------

def test_criterion_01_state_vector_is_301():
    started = time.perf_counter()
    tickers = [f"T{i:02d}" for i in range(30)]
    feats = make_features(tickers, 40, seed=11)
    env = TradingEnv(EnvConfig(), feats, Window(feats.warmup, 40))
    batch = env.reset()

    assert observation_size(30) == 1 + 30 + 30 + 240 == 301
    assert batch.shape == (1, 301)  # one copy, one row
    obs = batch[0]
    # decomposition: [cash][30 prices][30 holdings][30*8 features]
    assert obs[0] == 1_000_000.0
    assert np.array_equal(obs[1:31], feats.closes[feats.warmup])
    assert np.array_equal(obs[31:61], np.zeros(30))
    assert np.array_equal(obs[61:], feats.features[feats.warmup].reshape(-1))
    _verdict(1, started, 1.0, "observation decomposes 1+30+30+240 = 301 on a 30-ticker panel")


# ---------------------------------------------------------------------------
# 2. episode arithmetic
# ---------------------------------------------------------------------------

def test_criterion_02_100k_steps_make_33_episodes():
    started = time.perf_counter()
    closes = np.full((3031, 30), 100.0)
    feats = flat_features(closes)
    window = Window(0, 3031)
    assert window.steps == 3030

    env = TradingEnv(EnvConfig(), feats, window)
    env.reset()
    hold = np.zeros((1, 30))
    completed = 0
    for _ in range(100_000):
        outcome = env.step(hold)
        if outcome.done:
            completed += 1
            env.reset()
    assert completed == 33
    assert 100_000 // window.steps == 33
    _verdict(2, started, 60.0, "100,000 do-nothing steps over a 3031-bar window complete exactly 33 episodes")


# ---------------------------------------------------------------------------
# 3. initial conditions
# ---------------------------------------------------------------------------

def test_criterion_03_reset_capital_and_shares():
    started = time.perf_counter()
    feats = make_features(["AA", "BB", "CC"], 60, seed=2)
    env = TradingEnv(EnvConfig(), feats, Window(feats.warmup, 60))
    obs = env.reset()
    state = env.state
    assert np.array_equal(state.cash, [1_000_000.0])
    assert np.array_equal(state.shares, np.zeros((1, 3), dtype=np.int64))
    assert np.array_equal(state.portfolio_value, [1_000_000.0])
    assert obs[0, 0] == 1_000_000.0
    _verdict(3, started, 10.0, "reset holds exactly 1,000,000 cash and zero shares")


# ---------------------------------------------------------------------------
# 4. indicator oracle suite
# ---------------------------------------------------------------------------

def _walk(rng, t):
    return 80.0 * np.exp(np.cumsum(rng.normal(0.0, 0.02, size=t)))


def _oracle_sma(closes, n):
    out = np.full(len(closes), np.nan)
    for i in range(n, len(closes)):
        out[i] = sum(closes[i - n : i]) / n  # trailing window, excludes i
    return out


def _oracle_ema(closes, n):
    out = np.full(len(closes), np.nan)
    out[n - 1] = sum(closes[:n]) / n
    alpha = 2.0 / (n + 1.0)
    for i in range(n, len(closes)):
        out[i] = alpha * closes[i] + (1.0 - alpha) * out[i - 1]
    return out


def _oracle_bollinger(closes, n, k):
    ub = np.full(len(closes), np.nan)
    lb = np.full(len(closes), np.nan)
    for i in range(n - 1, len(closes)):
        win = closes[i - n + 1 : i + 1]
        m = sum(win) / n
        sd = (sum((x - m) ** 2 for x in win) / n) ** 0.5
        ub[i] = m + k * sd
        lb[i] = m - k * sd
    return ub, lb


def _oracle_rsi(closes, n):
    out = np.full(len(closes), np.nan)
    for i in range(n, len(closes)):
        diffs = [closes[j] - closes[j - 1] for j in range(i - n + 1, i + 1)]
        gains = sum(d for d in diffs if d > 0)
        losses = sum(-d for d in diffs if d < 0)
        out[i] = 100.0 * gains / (gains + losses) if gains + losses > 0 else 50.0
    return out


def _oracle_cci(high, low, close, n):
    tp = [(h + l + c) / 3.0 for h, l, c in zip(high, low, close)]
    out = np.full(len(close), np.nan)
    for i in range(n - 1, len(close)):
        win = tp[i - n + 1 : i + 1]
        m = sum(win) / n
        md = sum(abs(x - m) for x in win) / n
        out[i] = (tp[i] - m) / (0.015 * md) if md > 0 else 0.0
    return out


def _oracle_dx(high, low, close, n):
    t = len(close)
    plus_dm, minus_dm, tr = [0.0], [0.0], [0.0]
    for i in range(1, t):
        up = high[i] - high[i - 1]
        down = low[i - 1] - low[i]
        plus_dm.append(up if (up > down and up > 0) else 0.0)
        minus_dm.append(down if (down > up and down > 0) else 0.0)
        tr.append(max(high[i] - low[i], abs(high[i] - close[i - 1]), abs(low[i] - close[i - 1])))
    out = np.full(t, np.nan)
    s_plus = s_minus = s_tr = 0.0
    for i in range(1, t):
        if i <= n:
            s_plus += plus_dm[i]
            s_minus += minus_dm[i]
            s_tr += tr[i]
        else:
            s_plus = s_plus * (1 - 1 / n) + plus_dm[i]
            s_minus = s_minus * (1 - 1 / n) + minus_dm[i]
            s_tr = s_tr * (1 - 1 / n) + tr[i]
        if i >= n:
            if s_tr == 0:
                out[i] = 0.0
                continue
            di_plus = 100.0 * s_plus / s_tr
            di_minus = 100.0 * s_minus / s_tr
            total = di_plus + di_minus
            out[i] = 100.0 * abs(di_plus - di_minus) / total if total > 0 else 0.0
    return out


def _oracle_turbulence(closes, window):
    t, n = closes.shape
    returns = closes[1:] / closes[:-1] - 1.0
    out = np.full(t, np.nan)
    for i in range(window + 1, t):
        trailing = returns[i - window - 1 : i - 1]
        mu = trailing.mean(axis=0)
        sigma = np.cov(trailing, rowvar=False, ddof=1)
        dev = returns[i - 1] - mu
        out[i] = float(dev @ np.linalg.inv(np.atleast_2d(sigma)) @ dev)
    return out


def _assert_close_where_defined(values, defined, oracle, tol):
    assert np.all(np.isnan(values[~defined]))
    assert np.max(np.abs(values[defined] - oracle[defined])) <= tol


def test_criterion_04_indicator_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    for _ in range(100):
        t = int(rng.integers(70, 130))
        close = _walk(rng, t)
        spread = np.abs(rng.normal(0.0, 0.01, size=t)) * close
        high = close + spread
        low = close - spread

        for n in (30, 60):
            values, defined = sma(close, n)
            if defined.any():
                _assert_close_where_defined(values, defined, _oracle_sma(close, n), 1e-9)

        values, defined = macd(close)
        oracle = _oracle_ema(close, 12) - _oracle_ema(close, 26)
        _assert_close_where_defined(values, defined, oracle, 1e-9)

        ub, lb, defined = bollinger(close)
        oracle_ub, oracle_lb = _oracle_bollinger(close, 20, 2.0)
        _assert_close_where_defined(ub, defined, oracle_ub, 1e-9)
        _assert_close_where_defined(lb, defined, oracle_lb, 1e-9)

        values, defined = rsi(close, 30)
        _assert_close_where_defined(values, defined, _oracle_rsi(close, 30), 1e-9)

        values, defined = cci(high, low, close, 30)
        _assert_close_where_defined(values, defined, _oracle_cci(high, low, close, 30), 1e-9)

        values, defined = dx(high, low, close, 30)
        _assert_close_where_defined(values, defined, _oracle_dx(high, low, close, 30), 1e-9)

    # turbulence against a direct matrix-inverse Mahalanobis, relative 1e-6
    for trial in range(100):
        panel = make_panel(["AA", "BB", "CC"], 40, seed=500 + trial)
        values, defined = turbulence(panel, 8)
        oracle = _oracle_turbulence(panel.close, 8)
        mask = defined & ~np.isnan(oracle)
        rel = np.abs(values[mask] - oracle[mask]) / np.maximum(np.abs(oracle[mask]), 1e-12)
        assert rel.max() <= 1e-6

    # bounds fuzz: 10^4 random columns in one shot for each bounded indicator
    fuzz = np.random.default_rng(405)
    t = 40
    closes = 50.0 * np.exp(np.cumsum(fuzz.normal(0, 0.05, size=(t, 10_000)), axis=0))
    values, _ = rsi(closes, 8)
    assert np.all((values[8:] >= 0.0) & (values[8:] <= 100.0))
    spread = np.abs(fuzz.normal(0, 0.02, size=closes.shape)) * closes
    dx_values, dx_defined = dx(closes + spread, closes - spread, closes, 8)
    dx_block = dx_values[8:]
    assert np.all((dx_block >= 0.0) & (dx_block <= 100.0))
    _verdict(4, started, 30.0, "six indicators match formula oracles on 100 series; RSI/DX bounded on 10^4 fuzz columns")


# ---------------------------------------------------------------------------
# 5. accounting invariants
# ---------------------------------------------------------------------------

def test_criterion_05_accounting_invariants():
    started = time.perf_counter()
    feats = make_features(["AA", "BB", "CC", "DD", "EE"], 140, seed=55, vol=0.01)
    window = Window(feats.warmup, 140)
    cfg = EnvConfig()
    rng = np.random.default_rng(551)

    steps_checked = 0
    episode = 0
    while steps_checked < 10_000:
        env = TradingEnv(cfg, feats, window)
        env.reset()
        value_start = env.state.portfolio_value[0]
        reward_sum = 0.0
        done = False
        while not done and steps_checked < 10_000:
            before = env.state.shares[0]
            value_before = env.state.portfolio_value[0]
            outcome = env.step(rng.uniform(-1.0, 1.0, size=(1, 5)))
            t, (cash,), (shares,), (value,) = env.state  # the one copy's row
            done = outcome.done
            steps_checked += 1
            reward_sum += outcome.reward[0]

            assert cash >= 0.0
            assert np.all(shares >= 0)
            assert np.all(np.abs(shares - before) <= cfg.hmax)
            recomputed = cash + float(shares @ feats.closes[t])
            assert recomputed == pytest.approx(value, rel=1e-6)
            assert outcome.reward[0] == pytest.approx(value - value_before, rel=1e-6, abs=1e-6)
        if done:
            assert reward_sum == pytest.approx(env.state.portfolio_value[0] - value_start, rel=1e-6, abs=1e-3)
        episode += 1
    assert steps_checked == 10_000
    _verdict(5, started, 60.0, f"cash/shares/value invariants held across 10,000 random-action steps ({episode} episodes)")


# ---------------------------------------------------------------------------
# 6. gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_06_gradients_match_finite_differences():
    started = time.perf_counter()
    cfg = A2CConfig()
    for seed in range(20):
        rng = np.random.default_rng(6000 + seed)
        sizes = (
            int(rng.integers(3, 7)),
            int(rng.integers(5, 10)),
            int(rng.integers(5, 10)),
            int(rng.integers(1, 4)),
        )
        params = init_mlp(sizes, rng)
        b = int(rng.integers(2, 6))
        obs = rng.standard_normal((b, sizes[0]))
        mean, log_std, values, _ = mlp_forward(params, obs)
        actions = mean + np.exp(log_std) * rng.standard_normal(mean.shape)
        returns = rng.standard_normal(b)
        batch = RolloutBatch(observations=obs, actions=actions, returns=returns)
        advantages = returns - values  # detached: held constant through the FD

        _, _, _, analytic, _ = a2c_loss_and_grad(params, batch, cfg, MlpParams.zeros(sizes))

        def loss_at(vec):
            p = MlpParams(vec, sizes)
            m, s, v, _ = mlp_forward(p, obs)
            logp = gaussian_log_density(actions, m, s)
            policy = -(advantages * logp).mean()
            value = ((returns - v) ** 2).mean()
            return policy + cfg.value_coef * value - cfg.entropy_coef * gaussian_entropy(s)

        base = params.vector.copy()
        eps = 1e-5
        fd = np.empty_like(base)
        for i in range(base.size):
            up, dn = base.copy(), base.copy()
            up[i] += eps
            dn[i] -= eps
            fd[i] = (loss_at(up) - loss_at(dn)) / (2.0 * eps)
        rel = np.abs(fd - analytic) / np.maximum(1.0, np.maximum(np.abs(fd), np.abs(analytic)))
        assert rel.max() <= 1e-4, f"net {seed}: max relative gradient error {rel.max():.2e}"
    _verdict(6, started, 60.0, "analytic loss gradients match central differences (eps=1e-5) on 20 random networks")


# ---------------------------------------------------------------------------
# 7. desk-scale learning signal
# ---------------------------------------------------------------------------

def test_criterion_07_a2c_beats_random_on_uptrend():
    started = time.perf_counter()
    t_axis = np.arange(460)
    closes = np.column_stack([50.0 * 1.002**t_axis, np.full(460, 80.0)])
    feats = flat_features(closes)
    train_window, test_window = Window(0, 400), Window(400, 460)
    env_cfg = EnvConfig(reward_scale=1e-4)

    def test_reward(policy, seed):
        log = run_episode(policy, env_cfg, feats, test_window, seed=seed)
        return float(log.portfolio_value[-1] - log.portfolio_value[0])

    a2c_scores, random_scores = [], []
    for seed in range(20):
        cfg = A2CConfig(total_timesteps=8000, n_envs=4, n_steps=5, seed=seed, hidden_sizes=(16, 16))
        policy, _ = a2c_train(cfg, lambda: TradingEnv(env_cfg, feats, train_window))
        a2c_scores.append(test_reward(policy, seed))
        random_scores.append(test_reward(RandomPolicy(), seed))

    a2c_scores = np.array(a2c_scores)
    random_scores = np.array(random_scores)
    margin = a2c_scores.mean() - random_scores.mean()
    pooled_se = np.sqrt(a2c_scores.var(ddof=1) / 20 + random_scores.var(ddof=1) / 20)
    assert margin > 2.0 * pooled_se, (
        f"margin {margin:.1f} did not clear 2x pooled SE {2 * pooled_se:.1f} "
        f"(a2c mean {a2c_scores.mean():.1f}, random mean {random_scores.mean():.1f})"
    )
    _verdict(7, started, 600.0, f"A2C test reward beats random by {margin / pooled_se:.1f}x pooled SE over 20 seeds")


# ---------------------------------------------------------------------------
# 8. behavior analytics oracle suite
# ---------------------------------------------------------------------------

def _random_log(rng, t, n):
    start = rng.integers(0, 5, size=(1, n))
    steps = rng.integers(-3, 4, size=(t - 1, n))
    steps[rng.random((t - 1, n)) < 0.4] = 0
    holdings = np.maximum(np.cumsum(np.vstack([start, steps]), axis=0), 0)
    return EpisodeLog(
        timestamps=hourly_axis(1_646_380_800, t),
        actions=rng.uniform(-1, 1, size=(t, n)),
        holdings=holdings,
        cash=rng.uniform(0, 1e6, size=t),
        portfolio_value=rng.uniform(1e5, 2e6, size=t),
        rewards=rng.standard_normal(t - 1),
        agent_label="fuzz",
    )


def test_criterion_08_analytics_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(808)
    for _ in range(100):
        t = int(rng.integers(2, 70))
        n = int(rng.integers(1, 7))
        log = _random_log(rng, t, n)
        holdings = np.asarray(log.holdings)

        stats = trade_stats(holdings)
        report = behavior_profile(log)
        changed_pairs = 0
        runs = []
        for i in range(n):
            col = holdings[:, i]
            count = sum(1 for k in range(t - 1) if col[k + 1] != col[k])
            turnover = sum(abs(int(col[k + 1]) - int(col[k])) for k in range(t - 1))
            assert stats.trade_count[i] == count
            assert stats.total_turnover[i] == turnover
            assert stats.max_shares_held[i] == col.max()
            changed_pairs += count
            length = 1
            for k in range(1, t):
                if col[k] == col[k - 1]:
                    length += 1
                else:
                    runs.append(length)
                    length = 1
            runs.append(length)
        stationary = 1.0 - changed_pairs / ((t - 1) * n)
        assert abs(stats.stationarity_fraction - stationary) <= 1e-12
        assert abs(stats.mean_holding_run - sum(runs) / len(runs)) <= 1e-12
        assert abs(report.trader_score - changed_pairs / ((t - 1) * n)) <= 1e-12

        held = [sum(int(holdings[k, i]) for k in range(t)) for i in range(n)]
        assert np.array_equal(report.integral_holding, held)
        d = diversity_stats(holdings)
        total = sum(held)
        if total == 0:
            assert d.hhi is None
        else:
            hhi = sum((h / total) ** 2 for h in held)
            assert abs(d.hhi - hhi) <= 1e-12
            assert 1 / n - 1e-12 <= d.hhi <= 1 + 1e-12

    # pinned degenerate facts
    feats = make_features(["AA", "BB"], 60, seed=88)
    hold_log = run_episode(HoldPolicy(), EnvConfig(), feats, Window(feats.warmup, 60), seed=0)
    assert behavior_profile(hold_log).trader_score == 0.0

    single = np.zeros((10, 4), dtype=np.int64)
    single[:, 1] = 9
    assert diversity_stats(single).hhi == 1.0
    uniform = np.full((6, 30), 3, dtype=np.int64)
    assert abs(diversity_stats(uniform).hhi - 1 / 30) <= 1e-12
    _verdict(8, started, 30.0, "analytics match brute-force oracles on 100 random logs; degenerate facts pinned")


# ---------------------------------------------------------------------------
# 9. qualitative echo (non-binding)
# ---------------------------------------------------------------------------

class _ZigZag:
    """Alternates full buy and full sell every step: a maximal trader."""

    label = "zigzag"
    stateful = True

    def __init__(self):
        self._sign = 1.0

    def act(self, observation, rng):
        n = (len(observation) - 1) // 10
        self._sign = -self._sign
        return np.full(n, self._sign)


def test_criterion_09_holder_vs_trader_echo():
    started = time.perf_counter()
    feats = make_features(["AA", "BB"], 100, seed=9)
    window = Window(feats.warmup, 100)
    bnh = behavior_profile(run_episode(BuyAndHoldPolicy(), EnvConfig(), feats, window, seed=0))
    zig = behavior_profile(run_episode(_ZigZag(), EnvConfig(), feats, window, seed=0))
    table = compare_profiles([bnh, zig])

    # non-binding: report the direction, assert only well-formedness
    assert 0.0 <= bnh.trader_score <= 1.0 and 0.0 <= zig.trader_score <= 1.0
    holder_like = (
        bnh.trader_score < zig.trader_score
        and bnh.trade_stats.mean_holding_run > zig.trade_stats.mean_holding_run
    )
    echo = "echo holds" if holder_like else "echo did NOT hold (non-binding)"
    print(
        f"criterion 9 (non-binding): buy-and-hold trader_score={bnh.trader_score:.4f}, "
        f"mean run {bnh.trade_stats.mean_holding_run:.1f} vs zigzag "
        f"trader_score={zig.trader_score:.4f}, mean run {zig.trade_stats.mean_holding_run:.1f} - {echo}"
    )
    assert table.labels == (bnh.agent_label, zig.agent_label)  # table built without error
    _verdict(9, started, 60.0, f"holder-vs-trader comparison computed ({echo})")


# ---------------------------------------------------------------------------
# 10. determinism end to end
# ---------------------------------------------------------------------------

def _run_pipeline(workspace, out_dir):
    config = str(workspace / "config.json")
    base = ["--config", config, "--out", str(out_dir)]
    assert cli_main(["ingest", *base]) == 0
    assert cli_main(["features", *base]) == 0
    assert cli_main(["simulate", *base, "--agent", "random"]) == 0
    assert cli_main(["train", *base, "--timesteps", "200"]) == 0
    assert cli_main(["simulate", *base, "--agent", str(out_dir / "a2c.ckpt")]) == 0
    assert cli_main(["analyze", *base, str(out_dir / "log_random.csv"), str(out_dir / "log_a2c.csv")]) == 0
    assert cli_main(["report", *base, str(out_dir / "report_a2c")]) == 0


def test_criterion_10_byte_identical_reruns(tmp_path):
    started = time.perf_counter()
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    timestamps = hourly_axis(1_646_380_800, 120)
    from conftest import make_walk_series

    for i, ticker in enumerate(("AA", "BB")):
        series = make_walk_series(ticker, timestamps, np.random.default_rng(70 + i), start_price=90.0)
        write_bars_csv(data_dir / f"{ticker.lower()}.csv", series)
    config = {
        "data": {"AA": "data/aa.csv", "BB": "data/bb.csv"},
        "align": "intersect",
        "indicators": asdict(SMALL_INDICATORS),
        "a2c": {"total_timesteps": 200, "n_envs": 2, "n_steps": 5, "hidden_sizes": [16, 16]},
        "seed": 12,
    }
    import json

    (tmp_path / "config.json").write_text(json.dumps(config))

    out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
    _run_pipeline(tmp_path, out_a)
    _run_pipeline(tmp_path, out_b)

    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b and len(files_a) >= 15
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), f"{rel} differs between reruns"
    # SVGs are also structurally valid
    for svg in (out_a / "report_a2c").glob("*.svg"):
        ET.fromstring(svg.read_text())
    _verdict(10, started, 120.0, f"two full pipeline runs produced {len(files_a)} byte-identical artifacts")
