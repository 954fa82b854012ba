"""Bit pins for the A2C training hot path and the indicator recurrences.

Each reference below is the arithmetic the package used before its numpy
calls and temporaries were cut: the RMSProp tail of ``a2c_update``,
``ObsNormalizer.update``/``normalize``, the Gaussian helpers, the MLP forward
and backward passes, the batched ``TradingEnv.step`` (one copy, cell by
cell, and batches, in arrays; steps that trade nothing and sales of two and
three terms included), the ``run_episode`` and ``a2c_train`` loops, the
bar-at-a-time ``ema`` and ``dx`` loops, and the whole-block ``bollinger``,
``rsi`` and ``cci`` expressions. The references allocate a fresh array for
every result; the package writes into buffers it
owns (``a2c_update`` steps the parameters and the ``RmsPropState`` in place,
``mlp_backward`` fills a given ``MlpParams``, ``dx`` smooths its terms in
place, and the window indicators compute in their own temporaries), and must
reproduce each of them exactly (``np.array_equal``,
``==`` and ``tobytes()``, never a tolerance). Both sides run on the same numpy
and BLAS, so these pins hold on any machine, unlike artifact digests.
"""

import dataclasses
import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import flat_features, make_features, make_panel, turbulent_features
from tradelab import env as env_module
from tradelab import indicators, marketdata
from tradelab.agents.a2c import (
    A2CConfig,
    ObsNormalizer,
    RmsPropState,
    RolloutBatch,
    a2c_loss_and_grad,
    a2c_train,
    a2c_update,
    gaussian_entropy,
    gaussian_log_density,
    load_checkpoint,
    save_checkpoint,
)
from tradelab.agents.mlp import MlpParams, init_mlp, mlp_backward, mlp_forward, mlp_mean, mlp_value
from tradelab.agents.policies import BASELINE_POLICIES
from tradelab.analytics import behavior_profile
from tradelab.env import EnvConfig, EpisodeLog, TradingEnv, Window, run_episode, split_observation
from tradelab.indicators import FeaturePanel, IndicatorConfig, bollinger, cci, dx, ema, macd, rsi

LOG_2PI = float(np.log(2.0 * np.pi))


# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------

class RefObsNormalizer:
    def __init__(self, dim):
        self.dim = dim
        self.count = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros(dim)

    def update(self, batch):
        batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        nb = batch.shape[0]
        if nb == 0:
            return
        b_mean = batch.mean(axis=0)
        b_m2 = ((batch - b_mean) ** 2).sum(axis=0)
        delta = b_mean - self.mean
        total = self.count + nb
        self.mean = self.mean + delta * (nb / total)
        self.m2 = self.m2 + b_m2 + delta**2 * (self.count * nb / total)
        self.count = total

    def _sd(self):
        if self.count < 2:
            return np.ones(self.dim)
        return np.sqrt(self.m2 / self.count + 1e-8)

    def normalize(self, x):
        return (np.asarray(x, dtype=np.float64) - self.mean) / self._sd()


def ref_gaussian_log_density(actions, mean, log_std):
    z = (actions - mean) / np.exp(log_std)
    return -0.5 * np.sum(z**2 + LOG_2PI, axis=1) - np.sum(log_std)


def ref_gaussian_entropy(log_std):
    return float(np.sum(0.5 * (LOG_2PI + 1.0) + log_std))


def ref_mlp_forward(params, observation):
    x = np.asarray(observation, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    h1 = np.tanh(x @ params.w1 + params.b1)
    h2 = np.tanh(h1 @ params.w2 + params.b2)
    mean = np.tanh(h2 @ params.w_mean + params.b_mean)
    value = (h2 @ params.w_value + params.b_value)[:, 0]
    cache = {"x": x, "h1": h1, "h2": h2, "mean": mean}
    if single:
        return mean[0], params.log_std.copy(), float(value[0]), cache
    return mean, params.log_std.copy(), value, cache


def ref_mlp_backward(params, cache, d_mean, d_value, d_log_std):
    x, h1, h2, mean = cache["x"], cache["h1"], cache["h2"], cache["mean"]
    d_value = np.asarray(d_value, dtype=np.float64).reshape(-1, 1)
    g = MlpParams(np.empty_like(params.vector), params.sizes)
    dz_mean = d_mean * (1.0 - mean**2)
    np.matmul(h2.T, dz_mean, out=g.w_mean)
    np.sum(dz_mean, axis=0, out=g.b_mean)
    np.matmul(h2.T, d_value, out=g.w_value)
    np.sum(d_value, axis=0, out=g.b_value)
    d_h2 = dz_mean @ params.w_mean.T + d_value @ params.w_value.T
    dz2 = d_h2 * (1.0 - h2**2)
    np.matmul(h1.T, dz2, out=g.w2)
    np.sum(dz2, axis=0, out=g.b2)
    d_h1 = dz2 @ params.w2.T
    dz1 = d_h1 * (1.0 - h1**2)
    np.matmul(x.T, dz1, out=g.w1)
    np.sum(dz1, axis=0, out=g.b1)
    g.log_std[...] = d_log_std
    return g


def ref_loss_and_grad(params, batch, cfg):
    obs, actions, returns = batch.observations, batch.actions, batch.returns
    b = obs.shape[0]
    mean, log_std, values, cache = ref_mlp_forward(params, obs)
    sigma2 = np.exp(2.0 * log_std)
    advantages = returns - values
    log_probs = ref_gaussian_log_density(actions, mean, log_std)
    entropy = ref_gaussian_entropy(log_std)
    policy_loss = float(-(advantages * log_probs).mean())
    value_loss = float(((returns - values) ** 2).mean())
    d_mean = -(advantages[:, None] * (actions - mean) / sigma2) / b
    d_value = 2.0 * cfg.value_coef * (values - returns) / b
    z2 = ((actions - mean) ** 2) / sigma2
    d_log_std = -(advantages[:, None] * (z2 - 1.0)).sum(axis=0) / b - cfg.entropy_coef
    g = ref_mlp_backward(params, cache, d_mean, d_value, d_log_std).vector
    return policy_loss, value_loss, entropy, g


def ref_rmsprop_tail(params, g, cfg, opt_state, grad_norm=None):
    if grad_norm is None:
        grad_norm = float(np.linalg.norm(g))
    if grad_norm > cfg.max_grad_norm:
        g = g * (cfg.max_grad_norm / grad_norm)
    if opt_state is None:
        opt_state = np.zeros_like(g)
    opt_state = cfg.rms_decay * opt_state + (1.0 - cfg.rms_decay) * g**2
    vector = params.vector - cfg.lr * g / (np.sqrt(opt_state) + cfg.rms_eps)
    return MlpParams(vector, params.sizes), opt_state, grad_norm


def ref_a2c_update(params, batch, cfg, opt_state):
    policy_loss, value_loss, entropy, g = ref_loss_and_grad(params, batch, cfg)
    new_params, opt_state, grad_norm = ref_rmsprop_tail(params, g, cfg, opt_state)
    return new_params, opt_state, (policy_loss, value_loss, entropy, grad_norm)


class RefTradingEnv(TradingEnv):
    """TradingEnv whose reset, step, settle and observe are the reference
    bodies, over their own state fields."""

    def reset(self):
        self._t = self.window.start
        copies = 1 if self.copies is None else self.copies
        self._settle(np.full(copies, float(self.cfg.initial_capital)),
                     np.zeros((copies, self.n_tickers), dtype=np.int64))
        return self._observe()

    def step(self, action):
        t = self._t
        cfg, shares = self.cfg, self._shares
        a = np.asarray(action, dtype=np.float64)
        gated = self._gate[t]
        if gated:
            desired = -shares
        else:
            clipped = np.minimum(np.maximum(a, -1.0), 1.0)
            desired = np.rint(clipped * cfg.hmax).astype(np.int64).reshape(shares.shape)
        prices = self.features.closes[t]
        sold = np.minimum(-np.minimum(desired, 0), shares)
        proceeds = sold * prices
        cash = self._cash + proceeds.sum(axis=1) * (1.0 - cfg.cost_rate)
        fees = proceeds * cfg.cost_rate
        shares = shares - sold
        bought = np.zeros(shares.shape, dtype=np.int64)
        copy_ids, tickers = np.nonzero(desired > 0)
        if copy_ids.size:
            left = cash.tolist()
            units = (prices * (1.0 + cfg.cost_rate)).tolist()
            fills = desired[copy_ids, tickers].tolist()
            for k, (e, i) in enumerate(zip(copy_ids.tolist(), tickers.tolist())):
                unit, have = units[i], left[e]
                qty = math.floor(have / unit)
                if qty >= fills[k]:
                    qty = fills[k]
                while qty > 0 and qty * unit > have:
                    qty -= 1
                left[e] = have - qty * unit
                fills[k] = qty
            bought[copy_ids, tickers] = fills
            cash = np.array(left)
            shares += bought
            fees += bought * prices * cfg.cost_rate
        value_before = self._values
        self._t = t + 1
        self._settle(cash, shares)
        reward = cfg.reward_scale * (self._values - value_before)
        done = self._t == self.window.stop - 1
        observation = self._observe()
        traded = bought - sold
        if self.copies is None:
            reward, traded, fees = float(reward[0]), traded[0], fees[0]
        return observation, reward, done, {"traded": traded, "fees": fees, "gated": gated}

    def _settle(self, cash, shares):
        prices = self.features.closes[self._t]
        values = cash + (shares[:, None, :] @ prices[:, None])[:, 0, 0]
        self._cash, self._shares, self._values = cash, shares, values

    def _observe(self):
        n, t = self.features.n_tickers, self._t
        obs = np.empty((self._shares.shape[0], 1 + 10 * n))
        obs[:, 0] = self._cash
        obs[:, 1 : 1 + n] = self.features.closes[t]
        obs[:, 1 + n : 1 + 2 * n] = self._shares
        obs[:, 1 + 2 * n :] = self.features.features[t].reshape(-1)
        return obs if self.copies is not None else obs[0]


class RefSingleEnv(RefTradingEnv):
    """``RefTradingEnv(copies=None)``: the single env as it was, one row of state
    with an unbatched observation and a float reward. The live env spells it
    ``copies=1`` and no longer takes ``copies=None``."""

    def __init__(self, cfg, features, window):
        super().__init__(cfg, features, window, copies=1)
        self.copies = None


def ref_run_episode(policy, cfg, features, window, seed=0):
    """The episode loop that clipped each action row in place before it
    stepped, over the reference single env; returns the logged arrays."""
    rng = np.random.default_rng(seed)
    env = RefSingleEnv(cfg, features, window)
    observation = env.reset()
    n, length = features.n_tickers, len(window)
    actions = np.zeros((length, n))
    holdings = np.zeros((length, n), dtype=np.int64)
    cash = np.zeros(length)
    values = np.zeros(length)
    for k in range(length):
        cash[k], holdings[k], values[k] = env._cash[0], env._shares[0], env._values[0]
        if k == length - 1:
            break
        row = actions[k]
        row[...] = policy.act(observation, rng)
        np.minimum(np.maximum(row, -1.0, out=row), 1.0, out=row)
        observation = env.step(actions[k : k + 1])[0]
    return {"actions": actions, "holdings": holdings, "cash": cash,
            "portfolio_value": values, "rewards": np.diff(values)}


def ref_a2c_train(cfg, features, env_cfg, window):
    rng = np.random.default_rng(cfg.seed)
    env = RefTradingEnv(env_cfg, features, window, copies=cfg.n_envs)
    obs_dim, n_actions = 1 + 10 * features.n_tickers, features.n_tickers
    params = init_mlp((obs_dim, *cfg.hidden_sizes, n_actions), rng)
    normalizer = RefObsNormalizer(obs_dim)
    opt_state = None
    curves, episode_rewards = [], []
    raw_obs = env.reset()
    normalizer.update(raw_obs)
    episode_return = np.zeros(cfg.n_envs)
    steps_done = 0
    while steps_done < cfg.total_timesteps:
        obs_buf = np.empty((cfg.n_steps, cfg.n_envs, obs_dim))
        act_buf = np.empty((cfg.n_steps, cfg.n_envs, n_actions))
        rew_buf = np.empty((cfg.n_steps, cfg.n_envs))
        done_buf = np.empty((cfg.n_steps, cfg.n_envs))
        for k in range(cfg.n_steps):
            norm_obs = normalizer.normalize(raw_obs)
            mean, log_std, _, _ = ref_mlp_forward(params, norm_obs)
            raw_actions = mean + np.exp(log_std) * rng.standard_normal(mean.shape)
            obs_buf[k] = norm_obs
            act_buf[k] = raw_actions
            raw_obs, reward, done, _ = env.step(raw_actions)
            rew_buf[k] = reward
            done_buf[k] = float(done)
            episode_return += reward
            if done:
                episode_rewards.extend(episode_return.tolist())
                episode_return[:] = 0.0
                raw_obs = env.reset()
            normalizer.update(raw_obs)
            steps_done += cfg.n_envs
        _, _, bootstrap, _ = ref_mlp_forward(params, normalizer.normalize(raw_obs))
        returns = np.empty((cfg.n_steps, cfg.n_envs))
        running = bootstrap
        for k in reversed(range(cfg.n_steps)):
            running = rew_buf[k] + cfg.gamma * running * (1.0 - done_buf[k])
            returns[k] = running
        batch = RolloutBatch(obs_buf.reshape(-1, obs_dim), act_buf.reshape(-1, n_actions), returns.reshape(-1))
        params, opt_state, curve = ref_a2c_update(params, batch, cfg, opt_state)
        curves.append(curve)
    return params, [list(c) for c in zip(*curves)], episode_rewards, normalizer


# ---------------------------------------------------------------------------
# the update rule
# ---------------------------------------------------------------------------

def seeded_batch(seed, sizes=(12, 16, 16, 3), b=20, scale=1.0):
    rng = np.random.default_rng(seed)
    params = init_mlp(sizes, rng)
    obs = rng.standard_normal((b, sizes[0]))
    mean, log_std, _, _ = mlp_forward(params, obs)
    actions = mean + np.exp(log_std) * rng.standard_normal((b, sizes[-1]))
    return params, RolloutBatch(obs, actions, scale * rng.standard_normal(b))


def assert_update_matches(params, batch, cfg, opt_state, ref_state):
    """Steps ``params`` and ``opt_state`` in place and checks them against the
    reference step from the same parameters and the accumulator ``ref_state``;
    returns the reference accumulator and the update statistics."""
    ref_new, ref_acc, ref_stats = ref_a2c_update(params, batch, cfg, ref_state)
    batch_before = [a.copy() for a in (batch.observations, batch.actions, batch.returns)]
    stats = a2c_update(params, batch, cfg, opt_state)
    assert np.array_equal(params.vector, ref_new.vector)
    assert np.array_equal(opt_state.accumulator, ref_acc)
    assert (stats.policy_loss, stats.value_loss, stats.entropy, stats.grad_norm) == ref_stats
    assert all(np.array_equal(a, b) for a, b in
               zip((batch.observations, batch.actions, batch.returns), batch_before))  # the batch is only read
    return ref_acc, stats


@pytest.mark.parametrize("clipped", [True, False], ids=["clipped", "unclipped"])
def test_first_and_second_update_match_reference(clipped):
    cfg = A2CConfig(max_grad_norm=0.5 if clipped else 1e9)
    params, batch = seeded_batch(1, scale=50.0)
    opt_state = RmsPropState.zeros(params.sizes)
    acc, stats = assert_update_matches(params, batch, cfg, opt_state, None)
    assert (stats.grad_norm > cfg.max_grad_norm) == clipped
    _, batch2 = seeded_batch(2, scale=50.0)
    acc2, _ = assert_update_matches(params, batch2, cfg, opt_state, acc)  # folds the first accumulator in
    assert not np.array_equal(acc2, acc)


def test_gaussian_helpers_match_reference():
    rng = np.random.default_rng(3)
    mean = rng.standard_normal((7, 4))
    log_std = rng.standard_normal(4) * 0.4
    actions = mean + rng.standard_normal((7, 4))
    assert np.array_equal(gaussian_log_density(actions, mean, log_std),
                          ref_gaussian_log_density(actions, mean, log_std))
    assert gaussian_entropy(log_std) == ref_gaussian_entropy(log_std)


@pytest.mark.parametrize("rows", [None, 1, 4, 20])
def test_mlp_passes_match_reference(rows):
    rng = np.random.default_rng(4)
    params = init_mlp((11, 8, 6, 3), rng)
    params.b1[...] = rng.standard_normal(8)  # init leaves the biases at zero
    params.b_mean[...] = rng.standard_normal(3)
    obs = rng.standard_normal(11 if rows is None else (rows, 11))
    # None: the reference's single (D,) path against the live batch of one, as MlpPolicy.act runs it
    mean, log_std, value, cache = mlp_forward(params, obs[None] if rows is None else obs)
    ref_mean, ref_log_std, ref_value, ref_cache = ref_mlp_forward(params, obs)
    if rows is None:
        mean, value = mean[0], float(value[0])
    assert np.array_equal(mean, ref_mean) and np.array_equal(log_std, ref_log_std)
    assert np.array_equal(value, ref_value)
    b = 1 if rows is None else rows
    d_mean, d_value, d_log_std = rng.standard_normal((b, 3)), rng.standard_normal(b), rng.standard_normal(3)
    g = mlp_backward(params, cache, d_mean, d_value, d_log_std, MlpParams.zeros(params.sizes))
    assert np.array_equal(g.vector, ref_mlp_backward(params, ref_cache, d_mean, d_value, d_log_std).vector)


@pytest.mark.parametrize("rows", [1, 4, 20])
def test_single_heads_match_reference(rows):
    """The rollout's mean-only and the bootstrap's value-only passes give the
    reference forward's heads bit for bit."""
    rng = np.random.default_rng(12)
    params = init_mlp((11, 8, 6, 3), rng)
    params.vector[...] = rng.standard_normal(params.vector.size)  # every bias and weight non-zero
    obs = rng.standard_normal((rows, 11)) * 3.0
    ref_mean, _, ref_value, _ = ref_mlp_forward(params, obs)
    assert mlp_mean(params, obs).tobytes() == ref_mean.tobytes()
    assert mlp_value(params, obs).tobytes() == ref_value.tobytes()


def test_overflowing_squared_norm_of_a_finite_gradient_steps_along_it():
    """Every gradient component is finite, but the b2 components, near 1e200,
    overflow g.dot(g): the update takes the norm scaled by the largest
    component, m * sqrt((g/m).(g/m)), where np.linalg.norm gives inf, and
    clips the gradient to a step of norm max_grad_norm along it, without a
    warning (an error under the test settings)."""
    params, batch = seeded_batch(6)
    for name in ("w1", "b1", "w2", "b2"):
        getattr(params, name)[...] = 0.0  # h1 = h2 = 0, so the value is b_value and the loss stays small
    params.w_value[...] = 1e200  # d_h2 = d_value * 1e200 reaches b2's gradient, and nothing else
    cfg = A2CConfig()
    with np.errstate(over="ignore"):  # the reference's dot product warns of its overflow
        _, _, _, g = ref_loss_and_grad(params, batch, cfg)
        assert np.isfinite(g).all() and np.abs(g).max() > 1e199 and g.dot(g) == np.inf
        assert np.linalg.norm(g) == np.inf
    largest = np.abs(g).max()
    norm = float(largest * np.sqrt((g / largest).dot(g / largest)))
    want, want_acc, _ = ref_rmsprop_tail(params, g, cfg, None, grad_norm=norm)
    *_, live_g, live_norm = a2c_loss_and_grad(params, batch, cfg, MlpParams.zeros(params.sizes))
    assert live_norm == norm and np.array_equal(live_g, g)  # the public function returns the norm the clip uses
    opt_state = RmsPropState.zeros(params.sizes)
    start = params.vector.copy()
    stats = a2c_update(params, batch, cfg, opt_state)
    assert stats.grad_norm == norm and largest <= norm < np.inf
    assert np.array_equal(params.vector, want.vector) and np.array_equal(opt_state.accumulator, want_acc)
    clipped = g * (cfg.max_grad_norm / norm)
    assert np.linalg.norm(clipped) == pytest.approx(cfg.max_grad_norm, rel=1e-12)
    step = start - params.vector
    assert np.count_nonzero(step) == np.count_nonzero(g) > 0  # a step wherever the gradient is non-zero
    assert (np.sign(step) == np.sign(g)).all()  # down the gradient


# ---------------------------------------------------------------------------
# observation normalizer
# ---------------------------------------------------------------------------

def test_normalizer_matches_reference_across_batches():
    rng = np.random.default_rng(5)
    live, ref = ObsNormalizer(6), RefObsNormalizer(6)
    probe = rng.standard_normal((4, 6)) * 30.0
    assert np.array_equal(live.normalize(probe), ref.normalize(probe))  # count 0: unit scale
    for batch in [(rng.standard_normal(6) * 9.0 + 3.0)[None],  # one row: count 1, still unit scale
                  rng.standard_normal((4, 6)) * 50.0,
                  rng.standard_normal((1, 6)),
                  rng.standard_normal((3, 6)) * 4.0 + 1.0,  # 1/3 is inexact, unlike 1/4
                  rng.standard_normal((0, 6)),
                  rng.standard_normal((4, 6)) * 1e-3 - 7.0]:
        held = live.mean, live.m2, live.mean.copy(), live.m2.copy()
        live.update(batch)
        ref.update(batch)
        # update replaces the statistics: arrays a checkpoint or a frozen policy holds keep their values
        assert np.array_equal(held[0], held[2]) and np.array_equal(held[1], held[3])
        assert live.count == ref.count
        assert np.array_equal(live.mean, ref.mean) and np.array_equal(live.m2, ref.m2)
        assert np.array_equal(live.normalize(probe), ref.normalize(probe))
        assert np.array_equal(live.normalize(probe[0]), ref.normalize(probe[0]))
        buf = np.full_like(probe, np.nan)  # the rollout's form: the result written into a given row
        assert live.normalize(probe, out=buf) is buf and buf.tobytes() == live.normalize(probe).tobytes()


def test_restored_normalizer_normalizes_like_the_live_one(tmp_path):
    cfg = A2CConfig(total_timesteps=200, n_envs=2, n_steps=5, seed=3, hidden_sizes=(8, 8))
    features = make_features(["AA", "BB"], 120, seed=9)
    policy, _ = a2c_train(cfg, lambda: TradingEnv(EnvConfig(), features, Window(features.warmup, 60)))
    save_checkpoint(policy, tmp_path / "a2c.ckpt")
    restored = load_checkpoint(tmp_path / "a2c.ckpt").normalizer
    probe = TradingEnv(EnvConfig(), features, Window(features.warmup, 60), copies=3).reset()
    assert np.array_equal(restored.normalize(probe), policy.normalizer.normalize(probe))
    ref = RefObsNormalizer(restored.dim)
    ref.mean, ref.m2, ref.count = restored.mean, restored.m2, restored.count
    assert np.array_equal(restored.normalize(probe), ref.normalize(probe))


# ---------------------------------------------------------------------------
# environment step
# ---------------------------------------------------------------------------

# (tickers, copies), named by the path the step takes: one copy trades cell by
# cell, a batch in arrays; copies None is the reference single env against the live copies=1
STEP_SIZES = {"one-copy-5": (5, None), "batch-4x5": (5, 4), "batch-2x8": (8, 2), "one-copy-17": (17, None)}
FILL_SIZES = {"one-copy-3": (3, 1), "batch-4x3": (3, 4), "batch-4x4": (4, 4), "one-copy-17": (17, 1)}


@pytest.mark.parametrize("tickers, copies", STEP_SIZES.values(), ids=STEP_SIZES.keys())
@pytest.mark.parametrize(
    "capital, gate",
    [(1_000_000.0, None), (50_000.0, None), (50_000.0, 12.0)],
    ids=["1m", "50k-cash-binds", "50k-gated"],
)
def test_env_step_matches_reference(capital, gate, tickers, copies):
    features = turbulent_features(23, tickers)
    window = Window(16, 60)
    cfg = EnvConfig(initial_capital=capital, hmax=40, cost_rate=0.001, reward_scale=1e-3, turbulence_gate=gate)
    if copies is None:
        live, ref, rows = TradingEnv(cfg, features, window, copies=1), RefSingleEnv(cfg, features, window), 0
    else:
        live, ref, rows = TradingEnv(cfg, features, window, copies=copies), \
            RefTradingEnv(cfg, features, window, copies=copies), slice(None)
    rng = np.random.default_rng(8)
    assert np.array_equal(live.reset()[rows], ref.reset())
    shape = (tickers,) if copies is None else (copies, tickers)
    gated_steps = clipped_buys = 0
    for _ in range(2 * window.steps + 5):  # through done, a reset and part of a second episode
        actions = rng.uniform(-1.2, 1.2, size=shape)
        before = live.state.shares
        outcome = live.step(actions.reshape(-1, tickers))
        observation, reward, done, info = ref.step(actions)
        assert outcome._fields == ("observation", "reward", "done")
        assert np.array_equal(outcome.observation[rows], observation)
        assert np.array_equal(outcome.reward[rows], reward) and outcome.done == done
        assert np.array_equal((live.state.shares - before)[rows], info["traded"])
        assert np.array_equal(live.state.cash, ref._cash) and np.array_equal(live.state.portfolio_value, ref._values)
        gated_steps += info["gated"]
        desired = np.rint(np.clip(actions, -1.0, 1.0) * cfg.hmax)
        clipped_buys += np.sum((desired > 0) & (info["traded"] < desired))
        if done:
            assert np.array_equal(live.reset()[rows], ref.reset())
    assert (gated_steps > 0) == (gate is not None)
    assert (clipped_buys > 0) == (capital == 50_000.0)


def overdraw_case(seed=0):
    """A seeded (close, cash) pair, at the default cost rate, where
    floor(cash / unit) * unit > cash, so the overdraw guard takes a share back."""
    rng = np.random.default_rng(seed)
    while True:
        close = float(rng.uniform(5.0, 500.0))
        unit = close * (1.0 + 0.001)
        have = float(np.nextafter(int(rng.integers(2, 150)) * unit, 0.0))
        if math.floor(have / unit) * unit > have:
            return close, have


@pytest.mark.parametrize("tickers, copies", FILL_SIZES.values(), ids=FILL_SIZES.keys())
@pytest.mark.parametrize("case", ["exact-multiple", "just-short", "overdraw"])
def test_buy_fill_at_cash_boundaries_matches_reference(case, tickers, copies):
    close, capital = overdraw_case() if case == "overdraw" else (123.45, None)
    unit = close * (1.0 + 0.001)
    if case == "exact-multiple":
        capital = 7 * unit
    elif case == "just-short":
        capital = float(np.nextafter(unit, 0.0))
    closes = np.full((3, tickers), 50.0)
    closes[0, 0] = close
    cfg = EnvConfig(initial_capital=capital, hmax=200)
    live, ref = (cls(cfg, flat_features(closes), Window(0, 3), copies=copies) for cls in (TradingEnv, RefTradingEnv))
    live.reset()
    ref.reset()
    action = np.zeros((copies, tickers))
    action[:, 0] = 1.0  # ticker 0 at hmax, which cash caps below 200
    live.step(action)
    ref.step(action)
    assert np.array_equal(live.state.cash, ref._cash) and np.array_equal(live.state.shares, ref._shares)
    assert np.array_equal(live.state.portfolio_value, ref._values)
    bought, cash = live.state.shares[:, 0], live.state.cash
    expected = {"exact-multiple": 7, "just-short": 0, "overdraw": math.floor(capital / unit) - 1}[case]
    assert (bought == expected).all() and (cash >= 0.0).all()
    if case == "just-short":
        assert (cash == capital).all()


@pytest.mark.parametrize("tickers, copies", [STEP_SIZES["batch-2x8"], STEP_SIZES["one-copy-17"]],
                         ids=["batch-2x8", "one-copy-17"])
def test_step_refuses_nan_and_clips_infinities_on_both_paths(tickers, copies):
    """A NaN in any cell raises and leaves the state as it was; ±inf trades
    exactly as ±1 does in the reference step."""
    copies = copies or 1
    features = turbulent_features(23, tickers)
    window = Window(16, 60)
    cfg = EnvConfig(initial_capital=50_000.0, hmax=40, reward_scale=1e-3)
    live, ref = TradingEnv(cfg, features, window, copies=copies), RefTradingEnv(cfg, features, window, copies=copies)
    assert np.array_equal(live.reset(), ref.reset())
    rng = np.random.default_rng(14)
    for _ in range(window.steps):
        unit = rng.uniform(-1.0, 1.0, size=(copies, tickers))
        saturated = rng.random(unit.shape) < 0.4
        unit[saturated] = np.sign(unit[saturated])
        infinite = np.where(saturated, np.copysign(np.inf, unit), unit)
        before = live.state
        for cell in rng.choice(unit.size, size=3, replace=False):
            poisoned = infinite.copy()
            poisoned.flat[cell] = np.nan
            with pytest.raises(ValueError, match="NaN"):
                live.step(poisoned)
            assert live.state is before
        outcome = live.step(infinite)
        observation, reward, _, _ = ref.step(unit)
        assert np.array_equal(outcome.observation, observation) and np.array_equal(outcome.reward, reward)
        assert np.array_equal(live.state.cash, ref._cash) and np.array_equal(live.state.shares, ref._shares)


def assert_state_matches_reference(live, ref):
    """Every state field of ``live`` is bit for bit the reference's."""
    state = live.state
    assert state.t == ref._t
    for got, want in ((state.cash, ref._cash), (state.shares, ref._shares), (state.portfolio_value, ref._values)):
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def snapshot(state):
    return [state.t, *(arr.tobytes() for arr in state[1:])]


def scripted_closes(steps, tickers):
    """(steps + 1, tickers) closes near 100 + 55j, each ticker 1% about its
    base, so ticker 0 is the cheapest at every index and no two tickers cross."""
    t, j = np.arange(steps + 1)[:, None], np.arange(tickers)[None, :]
    return (100.0 + 55.0 * j + 0.37 * j * j) * (1.0 + 0.01 * np.sin(0.7 * t + j))


# each step of the script, and whether it trades: the quiet ones sell nothing and fill no buy
SCRIPT = ["zeros", "sell-empty", "gated-empty", "buy", "zeros", "dear-buy", "sell-empty", "mixed",
          "gated", "gated-empty", "buy", "dear-buy", "zeros", "mixed", "sell-empty"]
QUIET = {"zeros", "sell-empty", "gated-empty", "dear-buy"}
QUIET_SIZES = {"one-copy-8": (8, 1), "batch-2x8": (8, 2), "one-copy-16": (16, 1), "one-copy-17": (17, 1)}


@pytest.mark.parametrize("tickers, copies", QUIET_SIZES.values(), ids=QUIET_SIZES.keys())
@pytest.mark.parametrize("scale", [1.0, 2.5])
def test_quiet_steps_hand_on_the_state_and_match_reference(tickers, copies, scale):
    """A script that mixes trading steps with steps that trade nothing: zero
    actions, sells of empty positions, buys of tickers dearer than the cash
    left and a gated step with nothing held. Every step gives the reference's
    bits; a quiet step of one copy hands on the previous state's own
    read-only cash and shares, and no step changes an earlier state."""
    gated = [kind.startswith("gated") for kind in SCRIPT] + [False]
    turbulence = (np.where(gated, 20.0, 0.0), np.ones(len(gated), dtype=bool))
    features = flat_features(scripted_closes(len(SCRIPT), tickers), turbulence=turbulence)
    window = Window(0, len(SCRIPT) + 1)
    cfg = EnvConfig(initial_capital=50_000.0, hmax=40, cost_rate=0.001, reward_scale=scale, turbulence_gate=12.0)
    live, ref = TradingEnv(cfg, features, window, copies=copies), RefTradingEnv(cfg, features, window, copies=copies)
    assert live.reset().tobytes() == ref.reset().tobytes()
    rng = np.random.default_rng(19)
    history = []
    for kind in SCRIPT:
        before = live.state
        held, cash = before.shares, before.cash
        units = features.closes[before.t] * (1.0 + cfg.cost_rate)
        action = {
            "zeros": lambda: np.zeros(held.shape),
            "sell-empty": lambda: np.where(held == 0, -1.0, 0.0),
            "gated-empty": lambda: rng.uniform(-1.0, 1.0, held.shape),
            "buy": lambda: rng.uniform(0.8, 1.0, held.shape),
            "dear-buy": lambda: np.where(units[None, :] > cash[:, None], 1.0, 0.0),
            "gated": lambda: rng.uniform(-1.0, 1.0, held.shape),
            "mixed": lambda: rng.uniform(-1.0, 1.0, held.shape),
        }[kind]()
        if kind in ("sell-empty", "dear-buy"):
            assert (action != 0.0).any(), kind  # the script reaches the case it names
        if kind == "gated-empty":
            assert not held.any()
        outcome = live.step(action)
        observation, reward, done, info = ref.step(action)
        assert outcome.observation.tobytes() == observation.tobytes()
        assert outcome.reward.tobytes() == reward.tobytes() and outcome.done == done
        assert_state_matches_reference(live, ref)
        after = live.state
        assert (kind in QUIET) == (not info["traded"].any() and np.array_equal(after.cash, cash)), kind
        if kind in QUIET and copies == 1:
            assert after.cash is cash and after.shares is held, kind
        else:
            assert after.cash is not cash and after.shares is not held, kind
        assert not (after.cash.flags.writeable or after.shares.flags.writeable
                    or after.portfolio_value.flags.writeable)
        history.append((before, snapshot(before)))
        assert all(snapshot(state) == kept for state, kept in history)  # no earlier state changed


SALES = {"two": (0, 5), "three": (0, 4, 5)}


@pytest.mark.parametrize("tickers, copies", [(8, 1), (8, 2), (16, 1)], ids=["8-cells", "16-cells", "16-tickers"])
@pytest.mark.parametrize("sales", SALES)
def test_sale_proceeds_of_two_and_three_terms_match_reference(sales, tickers, copies):
    """One share of each sold ticker, bought at 1.0 and sold at 0.1, 0.2 and
    0.3 times 2**20 at cost rate 0: the three-term total rounds differently in
    numpy's pairwise order, a + (b + c), than left to right, so the cash
    shows which one summed it. A second copy sells the two-term set."""
    closes = np.ones((3, tickers))
    closes[1, [0, 4, 5]] = np.array([0.1, 0.2, 0.3]) * 2.0**20
    cfg = EnvConfig(initial_capital=8.0, hmax=1, cost_rate=0.0)
    live, ref = (cls(cfg, flat_features(closes), Window(0, 3), copies=copies) for cls in (TradingEnv, RefTradingEnv))
    live.reset()
    ref.reset()
    picks = [SALES[sales]] + [SALES["two"]] * (copies - 1)
    action = np.zeros((copies, tickers))
    for row, sold in zip(action, picks):
        row[list(sold)] = 1.0
    for step in (action, -action):  # buy one share of each, then sell it
        live.step(step)
        ref.step(step)
        assert_state_matches_reference(live, ref)
    terms = closes[1, list(SALES[sales])].tolist()
    assert live.state.cash[0] == 8.0 - len(terms) + math.fsum(terms)  # the exact sum rounds to numpy's
    if sales == "three":
        a, b, c = terms
        assert a + (b + c) != (a + b) + c  # so a left-to-right sum would not match the reference
        assert live.state.cash[0] != 5.0 + ((a + b) + c)


# ---------------------------------------------------------------------------
# the episode loop
# ---------------------------------------------------------------------------

class WildPolicy:
    """Uniform components in [-3, 3], about a quarter of them replaced by ±inf."""

    label = "wild"

    def act(self, observation, rng):
        n = split_observation(observation)[1].size
        action = rng.uniform(-3.0, 3.0, size=n)
        infinite = rng.random(n) < 0.25
        action[infinite] = np.copysign(np.inf, action[infinite])
        return action


def _trained_policy(features, window):
    cfg = A2CConfig(total_timesteps=200, n_envs=2, n_steps=5, seed=3, hidden_sizes=(8, 8))
    policy, _ = a2c_train(cfg, lambda: TradingEnv(EnvConfig(), features, window))
    return policy


@pytest.mark.parametrize("capital, gate", [(1_000_000.0, None), (50_000.0, None), (50_000.0, 12.0)],
                         ids=["1m", "50k", "50k-gated"])
@pytest.mark.parametrize("agent", [*BASELINE_POLICIES, "mlp", "wild"])
def test_run_episode_matches_reference_loop(agent, capital, gate):
    features = make_features(["A", "B", "C", "D", "E"], 120, seed=13, vol=0.02)
    window = Window(features.warmup, 120)
    if agent == "mlp":
        policy = _trained_policy(features, window)
    else:
        policy = WildPolicy() if agent == "wild" else BASELINE_POLICIES[agent]()
    if gate is not None:  # the seeded series of conftest's turbulent_features, undefined on every seventh index
        turb = np.abs(np.random.default_rng(13).normal(0.0, 10.0, features.n_timestamps))
        features = dataclasses.replace(features, turbulence=(turb, np.arange(features.n_timestamps) % 7 != 0))
    cfg = EnvConfig(initial_capital=capital, hmax=40, cost_rate=0.001, turbulence_gate=gate)
    log = run_episode(policy, cfg, features, window, seed=6)
    ref = ref_run_episode(policy, cfg, features, window, seed=6)
    for name, expected in ref.items():
        assert np.array_equal(getattr(log, name), expected), name
    if gate is not None:  # each gated step left nothing held
        turb, defined = features.turbulence
        gated = (defined & (turb > gate))[window.start : window.stop - 1]
        assert gated.any() and not log.holdings[1:][gated].any()
    if agent == "wild":  # the reference saw out-of-range and infinite components, and clipped them
        assert np.abs(ref["actions"]).max() == 1.0 and (np.abs(ref["actions"]) == 1.0).mean() > 0.25


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

def assert_train_matches_reference(tickers, n_envs, total_timesteps=600):
    features = make_features(["AA", "BB", "CC", "DD", "EE", "FF"][:tickers], 160, seed=7)
    window = Window(features.warmup, 60)  # 43 steps, so each worker finishes several episodes
    env_cfg = EnvConfig(initial_capital=50_000.0)
    cfg = A2CConfig(total_timesteps=total_timesteps, n_envs=n_envs, n_steps=5, seed=11, hidden_sizes=(16, 16))
    policy, stats = a2c_train(cfg, lambda: TradingEnv(env_cfg, features, window))
    params, curves, episode_rewards, normalizer = ref_a2c_train(cfg, features, env_cfg, window)
    assert np.array_equal(policy.params.vector, params.vector)
    assert [stats.policy_losses, stats.value_losses, stats.entropies, stats.grad_norms] == curves
    assert stats.episode_rewards == episode_rewards
    assert len(episode_rewards) == n_envs * (total_timesteps // n_envs // window.steps)
    assert np.array_equal(policy.normalizer.mean, normalizer.mean)
    assert np.array_equal(policy.normalizer.m2, normalizer.m2)
    assert policy.normalizer.count == normalizer.count


def test_a2c_train_matches_reference_loop():
    assert_train_matches_reference(3, 3)


def test_a2c_train_on_the_array_path_matches_reference_loop():
    assert_train_matches_reference(6, 4, total_timesteps=800)


# ---------------------------------------------------------------------------
# the indicator recurrences
# ---------------------------------------------------------------------------

def _columns(x):
    return (x, False) if x.ndim == 2 else (x[:, None], True)


def ref_ema(closes, n):
    x, squeeze = _columns(closes)
    out = np.full(x.shape, np.nan)
    alpha = 2.0 / (n + 1)
    out[n - 1] = x[:n].mean(axis=0)
    for i in range(n, x.shape[0]):
        out[i] = alpha * x[i] + (1.0 - alpha) * out[i - 1]
    return out[:, 0] if squeeze else out


def ref_dx(high, low, close, n):
    (h, squeeze), (l, _), (c, _) = _columns(high), _columns(low), _columns(close)
    up = h[1:] - h[:-1]
    down = l[:-1] - l[1:]
    dm_plus = np.where((up > down) & (up > 0), up, 0.0)
    dm_minus = np.where((down > up) & (down > 0), down, 0.0)
    prev_close = c[:-1]
    tr = np.maximum(h[1:] - l[1:], np.maximum(np.abs(h[1:] - prev_close), np.abs(l[1:] - prev_close)))
    out = np.full(h.shape, np.nan)
    s_plus = dm_plus[:n].sum(axis=0)
    s_minus = dm_minus[:n].sum(axis=0)
    s_tr = tr[:n].sum(axis=0)
    decay = 1.0 - 1.0 / n
    for k in range(n - 1, h.shape[0] - 1):  # term k belongs to bar index k+1
        if k >= n:
            s_plus = s_plus * decay + dm_plus[k]
            s_minus = s_minus * decay + dm_minus[k]
            s_tr = s_tr * decay + tr[k]
        with np.errstate(invalid="ignore", divide="ignore"):
            di_plus = np.where(s_tr > 0, 100.0 * s_plus / np.where(s_tr > 0, s_tr, 1.0), 0.0)
            di_minus = np.where(s_tr > 0, 100.0 * s_minus / np.where(s_tr > 0, s_tr, 1.0), 0.0)
        total = di_plus + di_minus
        ratio = np.abs(di_plus - di_minus) / np.where(total > 0, total, 1.0)
        out[k + 1] = np.where(total > 0, 100.0 * ratio, 0.0)
    return out[:, 0] if squeeze else out


PRICE_LAYOUTS = ["1-D", "ticker-major", "C-order"]


def price_inputs(layout, high, low, close):
    """(high, low, close) as each caller passes them: per-ticker 1-D columns
    (strided views, and one contiguous copy), the ticker-major block that
    build_features passes, or the panel's own C-order block."""
    prices = (high, low, close)
    if layout == "1-D":
        views = [tuple(x[:, j] for x in prices) for j in range(high.shape[1])]
        return views + [tuple(np.ascontiguousarray(x) for x in views[0])]
    if layout == "ticker-major":
        return [tuple(np.ascontiguousarray(x.T).T for x in prices)]
    return [tuple(np.ascontiguousarray(x) for x in prices)]


def _window(n, t):
    cfg = IndicatorConfig()
    return {"default dx": cfg.dx_period, "default ema": cfg.macd_slow, "t-1": t - 1}.get(n, n)


PANEL = make_panel([f"T{j:02d}" for j in range(5)], 300, seed=13)


@pytest.mark.parametrize("layout", PRICE_LAYOUTS)
@pytest.mark.parametrize("n", [1, 2, "default dx", "t-1"])
def test_dx_matches_reference_loop(layout, n):
    n = _window(n, PANEL.n_timestamps)
    for h, l, c in price_inputs(layout, PANEL.high, PANEL.low, PANEL.close):
        values, defined = dx(h, l, c, n)
        assert values.shape == h.shape and np.array_equal(defined, np.arange(h.shape[0]) >= n)
        assert values.tobytes() == ref_dx(h, l, c, n).tobytes()


@pytest.mark.parametrize("layout", PRICE_LAYOUTS)
@pytest.mark.parametrize("n", [1, 2, "default ema", "t-1"])
def test_ema_matches_reference_loop(layout, n):
    n = _window(n, PANEL.n_timestamps)
    for _, _, c in price_inputs(layout, PANEL.high, PANEL.low, PANEL.close):
        values, defined = ema(c, n)
        assert values.shape == c.shape and np.array_equal(defined, np.arange(c.shape[0]) >= n - 1)
        assert values.tobytes() == ref_ema(c, n).tobytes()


@pytest.mark.parametrize("layout", PRICE_LAYOUTS)
def test_macd_matches_reference_loop(layout):
    cfg = IndicatorConfig()
    for _, _, c in price_inputs(layout, PANEL.high, PANEL.low, PANEL.close):
        want = ref_ema(c, cfg.macd_fast) - ref_ema(c, cfg.macd_slow)
        assert macd(c, cfg)[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("layout", PRICE_LAYOUTS)
def test_dx_on_flat_bars_matches_reference_loop(layout):
    """Every TR sum is 0 on flat bars, so both DIs and DX map to 0."""
    flat = np.tile([50.0, 7.25, 1e3], (80, 1))
    for h, l, c in price_inputs(layout, flat, flat, flat):
        for n in (1, 2, 30):
            values = dx(h, l, c, n)[0]
            assert values.tobytes() == ref_dx(h, l, c, n).tobytes()
            assert np.all(values[n:] == 0.0)


def test_dx_zigzag_tie_matches_reference_loop():
    h = np.array([10.0, 11.0, 10.0, 11.0, 10.0, 11.0])
    l, c = h - 5.0, np.full(6, 8.0)
    values = dx(h, l, c, 4)[0]
    assert values.tobytes() == ref_dx(h, l, c, 4).tobytes()
    assert values[4] == 0.0


def ref_bollinger(closes, cfg):
    x, squeeze = _columns(closes)
    n = cfg.boll_period
    windows = sliding_window_view(x, n, axis=0)
    mid = windows.mean(axis=-1)
    sigma = np.sqrt(((windows - mid[..., None]) ** 2).mean(axis=-1))
    ub, lb = np.full(x.shape, np.nan), np.full(x.shape, np.nan)
    ub[n - 1 :] = mid + cfg.boll_k * sigma
    lb[n - 1 :] = mid - cfg.boll_k * sigma
    return (ub[:, 0], lb[:, 0]) if squeeze else (ub, lb)


def ref_rsi(closes, n):
    x, squeeze = _columns(closes)
    diffs = np.diff(x, axis=0)
    gains = np.where(diffs > 0, diffs, 0.0)
    losses = np.where(diffs < 0, -diffs, 0.0)
    avg_gain = sliding_window_view(gains, n, axis=0).mean(axis=-1)
    avg_loss = sliding_window_view(losses, n, axis=0).mean(axis=-1)
    denom = avg_gain + avg_loss
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(denom > 0, avg_gain / np.where(denom > 0, denom, 1.0), 0.5)
    out = np.full(x.shape, np.nan)
    out[n:] = 100.0 * ratio
    return out[:, 0] if squeeze else out


def ref_cci(high, low, close, n):
    (h, squeeze), (l, _), (c, _) = _columns(high), _columns(low), _columns(close)
    tp = (h + l + c) / 3.0
    windows = sliding_window_view(tp, n, axis=0)
    mean_tp = windows.mean(axis=-1)
    mean_dev = np.abs(windows - mean_tp[..., None]).mean(axis=-1)
    current = tp[n - 1 :]
    with np.errstate(invalid="ignore", divide="ignore"):
        raw = (current - mean_tp) / (0.015 * mean_dev)
    out = np.full(h.shape, np.nan)
    out[n - 1 :] = np.where(mean_dev > 0, raw, 0.0)
    return out[:, 0] if squeeze else out


def _edge_prices(t=70):
    """(high, low, close), each (t, 6): a flat bar, a steady rise, a steady
    fall, signed zeros (every move +0.0 or -0.0), a walk, and a walk with one
    NaN close, whose windows the masks must treat as the references do."""
    steps = np.arange(t, dtype=np.float64)
    zeros = np.where(steps % 2 == 0, 0.0, -0.0)
    walk = 100.0 + np.cumsum(np.random.default_rng(7).normal(0.0, 1.0, t))
    gap = walk.copy()
    gap[t // 2] = np.nan
    close = np.column_stack([np.full(t, 50.0), 10.0 + steps, 200.0 - steps, zeros, walk, gap])
    spread = np.array([0.0, 0.5, 0.5, 0.0, 0.75, 0.75])
    return close + spread, close - spread, close


EDGE = _edge_prices()


@pytest.mark.parametrize("layout", PRICE_LAYOUTS)
@pytest.mark.parametrize("prices", ["walk", "edge"])
@pytest.mark.parametrize("n", [1, 2, "default"])
def test_window_indicators_match_reference_expressions(layout, prices, n):
    """bollinger, rsi, cci, macd and dx, as build_features and a per-ticker
    caller pass their prices, bit for bit the expressions that allocate a
    fresh array per result, NaN and signed zeros included."""
    high, low, close = (PANEL.high, PANEL.low, PANEL.close) if prices == "walk" else EDGE
    default = IndicatorConfig()
    cfg = default if n == "default" else IndicatorConfig(boll_period=n, macd_fast=n, macd_slow=n + 1)
    period = {"rsi": default.rsi_period, "cci": default.cci_period, "dx": default.dx_period}
    for h, l, c in price_inputs(layout, high, low, close):
        got_ub, got_lb, _ = bollinger(c, cfg)
        want_ub, want_lb = ref_bollinger(c, cfg)
        assert got_ub.tobytes() == want_ub.tobytes() and got_lb.tobytes() == want_lb.tobytes()
        want_macd = ref_ema(c, cfg.macd_fast) - ref_ema(c, cfg.macd_slow)
        assert macd(c, cfg)[0].tobytes() == want_macd.tobytes()
        for name in ("rsi", "cci", "dx"):
            k = period[name] if n == "default" else n
            got = rsi(c, k)[0] if name == "rsi" else getattr(indicators, name)(h, l, c, k)[0]
            want = ref_rsi(c, k) if name == "rsi" else {"cci": ref_cci, "dx": ref_dx}[name](h, l, c, k)
            assert got.tobytes() == want.tobytes(), (name, k)


def test_records_keep_the_arrays_the_package_just_built(monkeypatch):
    """align_panel, build_features and run_episode hand their records arrays
    that are read-only and own their memory, and each record keeps them: the
    feature block is the build's own array, and the feature panel's closes are
    the market panel's."""
    built = {}

    def capture(cls):
        def make(**fields):
            built[cls.__name__] = fields
            return cls(**fields)
        return make

    monkeypatch.setattr(marketdata, "MarketPanel", capture(marketdata.MarketPanel))
    monkeypatch.setattr(indicators, "FeaturePanel", capture(FeaturePanel))
    fp = make_features(["A", "B", "C"], 120, seed=4)
    panel = built["MarketPanel"]
    assert fp.features is built["FeaturePanel"]["features"]
    assert fp.closes is panel["close"] and np.shares_memory(fp.closes, panel["close"])
    assert fp.timestamps is panel["timestamps"]
    assert not fp.features.flags.writeable and not fp.closes.flags.writeable

    monkeypatch.setattr(env_module, "EpisodeLog", capture(EpisodeLog))
    log = run_episode(BASELINE_POLICIES["random"](), EnvConfig(), fp, Window(fp.warmup, fp.n_timestamps))
    given = built["EpisodeLog"]
    for name in ("actions", "holdings", "cash", "portfolio_value", "rewards"):
        assert getattr(log, name) is given[name], name
    report = behavior_profile(log)
    assert report.timestamps is log.timestamps and report.holdings_matrix is log.holdings


@pytest.mark.parametrize("source", ["writable", "read-only view"])
def test_records_copy_what_a_caller_can_still_change(source):
    """A writable array, or a read-only view of memory that something else
    owns, is copied: writing the caller's array later leaves the record as it
    was built."""
    t, n = 6, 2
    closes = 100.0 + np.arange(t * n, dtype=np.float64).reshape(t, n)
    owner = closes.copy()
    given = owner if source == "writable" else owner[:]
    if source != "writable":
        given.setflags(write=False)
    fp = FeaturePanel(timestamps=np.arange(t) * 3600, tickers=("A", "B"), features=np.zeros((t, n, 8)),
                      closes=given, warmup=0)
    assert fp.closes is not given and not np.shares_memory(fp.closes, owner)
    owner[:] = -1.0
    assert fp.closes.tobytes() == closes.tobytes()
