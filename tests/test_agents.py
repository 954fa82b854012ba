"""Agent tests: baseline policies, MLP forward/backward against finite
differences, the actor-critic update rule, observation normalization,
training determinism, and checkpoint round trips."""

import json

import numpy as np
import pytest

from conftest import make_features
from tradelab.agents import (
    A2CConfig,
    BASELINE_POLICIES,
    BuyAndHoldPolicy,
    HoldPolicy,
    MlpParams,
    MlpPolicy,
    MomentumPolicy,
    NonFiniteLoss,
    ObsNormalizer,
    RandomPolicy,
    RolloutBatch,
    ShapeMismatch,
    a2c_train,
    a2c_update,
    init_mlp,
    load_checkpoint,
    make_baseline,
    mlp_backward,
    mlp_forward,
    save_checkpoint,
)
from tradelab.agents.a2c import CHECKPOINT_MAGIC, gaussian_entropy, gaussian_log_density
from tradelab.agents.policies import n_tickers_of
from tradelab.binfile import MalformedFile, write_frame
from tradelab.env import EnvConfig, TradingEnv, Window, run_episode
from tradelab.errors import TradeLabError

LOG_2PI = np.log(2.0 * np.pi)


def obs_of(n, rng=None, cash=1e6):
    """A syntactically valid observation for n tickers."""
    size = 1 + 10 * n
    if rng is None:
        return np.zeros(size)
    out = rng.uniform(0.0, 100.0, size=size)
    out[0] = cash
    return out


# ---------------------------------------------------------------------------
# baseline policies
# ---------------------------------------------------------------------------

class TestBaselinePolicies:
    def test_n_tickers_roundtrip(self):
        for n in (1, 2, 30):
            assert n_tickers_of(obs_of(n)) == n

    def test_n_tickers_rejects_bad_layout(self):
        with pytest.raises(ValueError):
            n_tickers_of(np.zeros(12))

    def test_hold_is_all_zeros(self):
        a = HoldPolicy().act(obs_of(5), np.random.default_rng(0))
        assert a.shape == (5,)
        assert np.array_equal(a, np.zeros(5))

    def test_random_bounds_and_mean(self, rng):
        # 100k draws: the sample mean of U(-1,1) has sd ~ 0.0009 here, so
        # |mean| < 0.02 is a 20-sigma bound
        obs = obs_of(4)
        policy = RandomPolicy()
        draws = np.concatenate([policy.act(obs, rng) for _ in range(25_000)])
        assert draws.size == 100_000
        assert np.all(draws >= -1.0) and np.all(draws <= 1.0)
        assert abs(draws.mean()) < 0.02

    def test_buy_and_hold_fires_once(self, rng):
        # buys while the observed holdings are all zero, holds once any shows
        policy = BuyAndHoldPolicy()
        obs = obs_of(3)
        assert np.array_equal(policy.act(obs, rng), np.ones(3))
        held = obs.copy()
        held[1 + 3 + 2] = 7  # shares of the last ticker
        assert np.array_equal(policy.act(held, rng), np.zeros(3))
        assert np.array_equal(policy.act(held, rng), np.zeros(3))
        assert np.array_equal(policy.act(obs, rng), np.ones(3))

    def test_buy_and_hold_instance_reused_across_episodes(self):
        features = make_features(["A", "B", "C"], 60, seed=4)
        policy = BuyAndHoldPolicy()
        first, second = (run_episode(policy, EnvConfig(), features, Window(16, 60), seed=0) for _ in range(2))
        assert first.holdings[1].all()
        for name in ("actions", "holdings", "cash", "portfolio_value", "rewards"):
            assert np.array_equal(getattr(first, name), getattr(second, name)), name

    def test_momentum_reads_crossover(self, rng):
        n = 3
        obs = obs_of(n)
        block = obs[1 + 2 * n :].reshape(n, 8)
        block[0, 6], block[0, 7] = 5.0, 3.0  # short above long: buy
        block[1, 6], block[1, 7] = 1.0, 4.0  # short below long: sell
        block[2, 6], block[2, 7] = 2.0, 2.0  # tie: hold
        a = MomentumPolicy().act(obs, rng)
        assert np.array_equal(a, [1.0, -1.0, 0.0])

    def test_all_policies_stay_in_bounds(self, rng):
        obs = obs_of(6, rng)
        for name in BASELINE_POLICIES:
            policy = make_baseline(name)
            for _ in range(5):
                a = policy.act(obs, rng)
                assert a.shape == (6,)
                assert np.all(a >= -1.0) and np.all(a <= 1.0)

    def test_make_baseline_unknown_name(self):
        with pytest.raises(KeyError):
            make_baseline("warren-buffett")

    def test_momentum_runs_an_episode(self, rng):
        feats = make_features(["AA", "BB"], 120, seed=11, drift=0.003)
        window = Window(feats.warmup, 120)
        log = run_episode(MomentumPolicy(), EnvConfig(), feats, window, rng)
        assert log.actions.shape[1] == 2
        assert np.all(np.abs(log.actions) <= 1.0)


# ---------------------------------------------------------------------------
# MLP forward
# ---------------------------------------------------------------------------

class TestMlpForward:
    def test_zero_params_zero_outputs(self):
        sizes = (4, 8, 8, 2)
        total = init_mlp(sizes, np.random.default_rng(0)).vector.size
        params = MlpParams(np.zeros(total), sizes)
        mean, log_std, value, _ = mlp_forward(params, np.ones(4))
        assert np.array_equal(mean, np.zeros(2))
        assert np.array_equal(log_std, np.zeros(2))
        assert value == 0.0

    def test_forward_recomputation(self, rng):
        params = init_mlp((5, 7, 6, 3), rng)
        x = rng.standard_normal((4, 5))
        mean, log_std, value, _ = mlp_forward(params, x)
        h1 = np.tanh(x @ params.w1 + params.b1)
        h2 = np.tanh(h1 @ params.w2 + params.b2)
        assert np.array_equal(mean, np.tanh(h2 @ params.w_mean + params.b_mean))
        assert np.array_equal(value, (h2 @ params.w_value + params.b_value)[:, 0])
        assert np.array_equal(log_std, params.log_std)

    def test_single_matches_batch_row(self, rng):
        params = init_mlp((5, 7, 6, 3), rng)
        x = rng.standard_normal((4, 5))
        mean_b, _, value_b, _ = mlp_forward(params, x)
        for i in range(4):
            mean_s, _, value_s, _ = mlp_forward(params, x[i])
            np.testing.assert_allclose(mean_s, mean_b[i], rtol=0, atol=1e-12)
            np.testing.assert_allclose(value_s, value_b[i], rtol=0, atol=1e-12)

    def test_mean_is_squashed(self, rng):
        params = init_mlp((5, 7, 6, 3), rng)
        mean, _, _, _ = mlp_forward(params, 1e6 * np.ones(5))
        assert np.all(np.abs(mean) <= 1.0)

    def test_shape_mismatch(self, rng):
        params = init_mlp((5, 7, 6, 3), rng)
        with pytest.raises(ShapeMismatch):
            mlp_forward(params, np.zeros(4))
        with pytest.raises(ShapeMismatch):
            mlp_forward(params, np.zeros((2, 2, 5)))

    def test_log_std_is_a_copy(self, rng):
        params = init_mlp((5, 7, 6, 3), rng)
        _, log_std, _, _ = mlp_forward(params, np.zeros(5))
        log_std[:] = 99.0
        assert np.array_equal(params.log_std, np.zeros(3))

    def test_init_shapes_and_scaling(self, rng):
        params = init_mlp((10, 64, 64, 4), rng)
        assert params.w1.shape == (10, 64)
        assert params.w2.shape == (64, 64)
        assert params.w_mean.shape == (64, 4)
        assert params.w_value.shape == (64, 1)
        assert np.array_equal(params.log_std, np.zeros(4))
        assert np.array_equal(params.b1, np.zeros(64))
        # mean head starts near-deterministic relative to the value head
        assert np.abs(params.w_mean).max() < np.abs(params.w_value).max()

    def test_init_deterministic(self):
        a = init_mlp((6, 8, 8, 2), np.random.default_rng(42))
        b = init_mlp((6, 8, 8, 2), np.random.default_rng(42))
        assert np.array_equal(a.vector, b.vector)

    def test_vector_roundtrip(self, rng):
        params = init_mlp((6, 8, 8, 2), rng)
        vec = params.vector.copy()
        back = MlpParams(vec, params.sizes)
        assert np.array_equal(back.vector, vec)
        with pytest.raises(ShapeMismatch):
            MlpParams(vec[:-1], params.sizes)


# ---------------------------------------------------------------------------
# MLP backward
# ---------------------------------------------------------------------------

def fd_gradient(params, x, c_mean, c_value, c_log_std, eps=1e-5):
    """Central finite differences of L = sum(c_m*mean) + sum(c_v*value)
    + sum(c_s*log_std) with respect to the flat parameter vector."""
    sizes = params.sizes
    base = params.vector.copy()

    def loss(vec):
        m, s, v, _ = mlp_forward(MlpParams(vec, sizes), x)
        return float(np.sum(c_mean * m) + np.sum(c_value * v) + np.sum(c_log_std * s))

    grad = np.empty_like(base)
    for i in range(base.size):
        up, dn = base.copy(), base.copy()
        up[i] += eps
        dn[i] -= eps
        grad[i] = (loss(up) - loss(dn)) / (2.0 * eps)
    return grad


def analytic_gradient(params, x, c_mean, c_value, c_log_std):
    _, _, _, cache = mlp_forward(params, x)
    return mlp_backward(params, cache, c_mean, c_value, c_log_std).vector


class TestMlpBackward:
    def test_zero_upstream_zero_grads(self, rng):
        params = init_mlp((4, 6, 5, 2), rng)
        x = rng.standard_normal((3, 4))
        _, _, _, cache = mlp_forward(params, x)
        grads = mlp_backward(params, cache, np.zeros((3, 2)), np.zeros(3), np.zeros(2))
        assert np.array_equal(grads.vector, np.zeros(params.vector.size))

    def test_matches_finite_differences(self):
        # acceptance runs the 20-network version of this check
        for seed in range(4):
            rng = np.random.default_rng(1000 + seed)
            params = init_mlp((4, 8, 8, 2), rng)
            x = rng.standard_normal((3, 4))
            c_mean = rng.standard_normal((3, 2))
            c_value = rng.standard_normal(3)
            c_log_std = rng.standard_normal(2)
            g_fd = fd_gradient(params, x, c_mean, c_value, c_log_std)
            g_an = analytic_gradient(params, x, c_mean, c_value, c_log_std)
            rel = np.abs(g_fd - g_an) / np.maximum(1.0, np.maximum(np.abs(g_fd), np.abs(g_an)))
            assert rel.max() <= 1e-4

    def test_head_isolation(self, rng):
        params = init_mlp((4, 6, 5, 2), rng)
        x = rng.standard_normal((3, 4))
        _, _, _, cache = mlp_forward(params, x)
        only_mean = mlp_backward(params, cache, rng.standard_normal((3, 2)), np.zeros(3), np.zeros(2))
        assert np.array_equal(only_mean.w_value, np.zeros((5, 1)))
        assert np.array_equal(only_mean.b_value, np.zeros(1))
        assert np.abs(only_mean.w_mean).max() > 0
        only_value = mlp_backward(params, cache, np.zeros((3, 2)), rng.standard_normal(3), np.zeros(2))
        assert np.array_equal(only_value.w_mean, np.zeros((5, 2)))
        assert np.array_equal(only_value.b_mean, np.zeros(2))
        assert np.abs(only_value.w_value).max() > 0

    def test_batch_additivity(self, rng):
        # the gradient of a summed loss is the sum of per-sample gradients
        params = init_mlp((4, 6, 5, 2), rng)
        x = rng.standard_normal((2, 4))
        c_mean = rng.standard_normal((2, 2))
        c_value = rng.standard_normal(2)
        c_s = np.zeros(2)
        whole = analytic_gradient(params, x, c_mean, c_value, c_s)
        parts = sum(
            analytic_gradient(params, x[i : i + 1], c_mean[i : i + 1], c_value[i : i + 1], c_s)
            for i in range(2)
        )
        np.testing.assert_allclose(whole, parts, rtol=1e-12, atol=1e-12)

    def test_log_std_passthrough(self, rng):
        params = init_mlp((4, 6, 5, 2), rng)
        x = rng.standard_normal((3, 4))
        _, _, _, cache = mlp_forward(params, x)
        d_log_std = rng.standard_normal(2)
        grads = mlp_backward(params, cache, np.zeros((3, 2)), np.zeros(3), d_log_std)
        assert np.array_equal(grads.log_std, d_log_std)

    def test_upstream_shape_check(self, rng):
        params = init_mlp((4, 6, 5, 2), rng)
        x = rng.standard_normal((3, 4))
        _, _, _, cache = mlp_forward(params, x)
        with pytest.raises(ShapeMismatch):
            mlp_backward(params, cache, np.zeros((2, 2)), np.zeros(3), np.zeros(2))


# ---------------------------------------------------------------------------
# observation normalizer
# ---------------------------------------------------------------------------

class TestObsNormalizer:
    def test_welford_matches_two_pass(self, rng):
        norm = ObsNormalizer(5)
        chunks = [rng.standard_normal((n, 5)) * 3.0 + 7.0 for n in (1, 4, 17, 2, 30)]
        for chunk in chunks:
            norm.update(chunk)
        stacked = np.vstack(chunks)
        np.testing.assert_allclose(norm.mean, stacked.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(norm.m2 / norm.count, stacked.var(axis=0), rtol=1e-12)
        assert norm.count == stacked.shape[0]

    def test_no_clipping(self, rng):
        # outliers pass through linearly no matter how extreme
        norm = ObsNormalizer(2)
        norm.update(rng.standard_normal((100, 2)))
        z = norm.normalize(np.array([1e9, -1e9]))
        assert np.abs(z).min() > 1e6

    def test_unit_scale_before_two_samples(self):
        norm = ObsNormalizer(3)
        norm.update(np.array([[2.0, 4.0, 6.0]]))
        np.testing.assert_allclose(norm.normalize(np.array([3.0, 5.0, 7.0])), np.ones(3))

    def test_freeze_blocks_updates(self, rng):
        norm = ObsNormalizer(3)
        norm.update(rng.standard_normal((10, 3)))
        norm.freeze()
        with pytest.raises(TradeLabError):
            norm.update(rng.standard_normal((5, 3)))
        # normalize still works after freezing
        norm.normalize(np.zeros(3))

    def test_single_row_updates_stream(self, rng):
        a, b = ObsNormalizer(3), ObsNormalizer(3)
        rows = rng.standard_normal((25, 3))
        for row in rows:
            a.update(row)
        b.update(rows)
        np.testing.assert_allclose(a.mean, b.mean, rtol=1e-12)
        np.testing.assert_allclose(a.m2, b.m2, rtol=1e-9)


# ---------------------------------------------------------------------------
# the update rule
# ---------------------------------------------------------------------------

def random_batch(rng, params, b=6):
    d = params.w1.shape[0]
    n = params.log_std.size
    obs = rng.standard_normal((b, d))
    mean, log_std, _, _ = mlp_forward(params, obs)
    actions = mean + np.exp(log_std) * rng.standard_normal((b, n))
    returns = rng.standard_normal(b)
    return RolloutBatch(observations=obs, actions=actions, returns=returns)


def detached_loss(vec, sizes, batch, cfg, advantages):
    """The objective the update differentiates: advantages held constant."""
    params = MlpParams(vec, sizes)
    mean, log_std, values, _ = mlp_forward(params, batch.observations)
    logp = gaussian_log_density(batch.actions, mean, log_std)
    policy = -(advantages * logp).mean()
    value = ((batch.returns - values) ** 2).mean()
    entropy = gaussian_entropy(log_std)
    return policy + cfg.value_coef * value - cfg.entropy_coef * entropy


class TestA2CUpdate:
    def test_entropy_closed_form(self, rng):
        log_std = rng.standard_normal(4)
        # per-dimension closed form of differential entropy: 0.5 ln(2 pi e s^2)
        expected = sum(0.5 * np.log(2.0 * np.pi * np.e * np.exp(2.0 * s)) for s in log_std)
        assert abs(gaussian_entropy(log_std) - expected) < 1e-12

    def test_log_density_matches_elementwise_pdf(self, rng):
        mean = rng.standard_normal((5, 3))
        log_std = rng.standard_normal(3) * 0.3
        actions = mean + rng.standard_normal((5, 3))
        sd = np.exp(log_std)
        pdf = np.exp(-((actions - mean) ** 2) / (2 * sd**2)) / (sd * np.sqrt(2 * np.pi))
        np.testing.assert_allclose(
            gaussian_log_density(actions, mean, log_std), np.log(pdf).sum(axis=1), rtol=1e-12
        )

    def test_gradient_matches_finite_differences(self):
        cfg = A2CConfig(lr=1e-3, max_grad_norm=1e9)
        for seed in range(3):
            rng = np.random.default_rng(2000 + seed)
            params = init_mlp((4, 8, 8, 2), rng)
            batch = random_batch(rng, params)
            sizes = params.sizes
            base = params.vector.copy()

            _, _, values, _ = mlp_forward(params, batch.observations)
            advantages = batch.returns - values

            eps = 1e-5
            g_fd = np.empty_like(base)
            for i in range(base.size):
                up, dn = base.copy(), base.copy()
                up[i] += eps
                dn[i] -= eps
                g_fd[i] = (
                    detached_loss(up, sizes, batch, cfg, advantages)
                    - detached_loss(dn, sizes, batch, cfg, advantages)
                ) / (2 * eps)

            # recover the analytic gradient from the first RMSProp step:
            # s = (1-decay) g^2, delta = -lr g / (sqrt(s) + eps_rms)
            new_params, _, stats = a2c_update(params, batch, cfg)
            delta = new_params.vector - base
            scale = np.sqrt((1.0 - cfg.rms_decay) * g_fd**2) + cfg.rms_eps
            predicted = -cfg.lr * g_fd / scale
            rel = np.abs(delta - predicted) / np.maximum(1.0, np.maximum(np.abs(delta), np.abs(predicted)))
            assert rel.max() <= 1e-4
            np.testing.assert_allclose(stats.grad_norm, np.linalg.norm(g_fd), rtol=1e-4)

    def test_zero_advantage_update_ignores_actions(self, rng):
        # returns == values makes every advantage zero, so the policy term
        # vanishes and the update cannot depend on which actions were drawn
        cfg = A2CConfig()
        params = init_mlp((4, 8, 8, 2), rng)
        obs = rng.standard_normal((5, 4))
        _, log_std, values, _ = mlp_forward(params, obs)
        batch_a = RolloutBatch(obs, rng.standard_normal((5, 2)), values.copy())
        batch_b = RolloutBatch(obs, rng.standard_normal((5, 2)), values.copy())
        out_a, _, stats_a = a2c_update(params, batch_a, cfg)
        out_b, _, stats_b = a2c_update(params, batch_b, cfg)
        assert np.array_equal(out_a.vector, out_b.vector)
        assert stats_a.policy_loss == 0.0
        assert stats_a.value_loss == 0.0

    def test_rmsprop_step_arithmetic(self, rng):
        # second update must fold the first accumulator in: s1 = d s0 + (1-d) g^2
        cfg = A2CConfig(max_grad_norm=1e9)
        params = init_mlp((4, 6, 6, 2), rng)
        batch = random_batch(rng, params)
        p0 = params.vector.copy()
        new1, opt1, _ = a2c_update(params, batch, cfg)
        # recover g from the first step and check the accumulator matches
        delta = new1.vector - p0
        g = -delta * (np.sqrt(opt1) + cfg.rms_eps) / cfg.lr
        np.testing.assert_allclose(opt1, (1 - cfg.rms_decay) * g**2, rtol=1e-9, atol=1e-300)

    def test_grad_clipping_records_preclip_norm(self, rng):
        cfg = A2CConfig(max_grad_norm=0.5)
        params = init_mlp((4, 8, 8, 2), rng)
        batch = random_batch(rng, params)
        huge = RolloutBatch(batch.observations, batch.actions, batch.returns * 1e6)
        _, _, stats = a2c_update(params, huge, cfg)
        assert stats.grad_norm > cfg.max_grad_norm

    def test_nonfinite_loss_raises_with_index(self, rng):
        params = init_mlp((4, 6, 6, 2), rng)
        batch = random_batch(rng, params)
        bad = RolloutBatch(batch.observations, batch.actions, np.full_like(batch.returns, np.inf))
        with pytest.raises(NonFiniteLoss, match="update 7"):
            a2c_update(params, bad, A2CConfig(), update_index=7)

    def test_input_params_untouched(self, rng):
        params = init_mlp((4, 6, 6, 2), rng)
        before = params.vector.copy()
        a2c_update(params, random_batch(rng, params), A2CConfig())
        assert np.array_equal(params.vector, before)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def small_setup(total_timesteps=400, n_envs=2, seed=5):
    feats = make_features(["AA", "BB"], 160, seed=7)
    window = Window(feats.warmup, 60)
    cfg_env = EnvConfig()
    factory = lambda: TradingEnv(cfg_env, feats, window)
    cfg = A2CConfig(total_timesteps=total_timesteps, n_envs=n_envs, n_steps=5, seed=seed)
    return cfg, factory, window


class TestTraining:
    def test_deterministic_rerun(self):
        cfg, factory, _ = small_setup()
        policy_a, stats_a = a2c_train(cfg, factory)
        policy_b, stats_b = a2c_train(cfg, factory)
        assert np.array_equal(policy_a.params.vector, policy_b.params.vector)
        assert stats_a.policy_losses == stats_b.policy_losses
        assert stats_a.value_losses == stats_b.value_losses
        assert stats_a.entropies == stats_b.entropies
        assert stats_a.grad_norms == stats_b.grad_norms
        assert stats_a.episode_rewards == stats_b.episode_rewards
        assert np.array_equal(policy_a.normalizer.mean, policy_b.normalizer.mean)

    def test_seed_changes_outcome(self):
        cfg, factory, _ = small_setup(seed=5)
        cfg2, _, _ = small_setup(seed=6)
        policy_a, _ = a2c_train(cfg, factory)
        policy_b, _ = a2c_train(cfg2, factory)
        assert not np.array_equal(policy_a.params.vector, policy_b.params.vector)

    def test_episode_accounting(self):
        cfg, factory, window = small_setup(total_timesteps=400, n_envs=2)
        _, stats = a2c_train(cfg, factory)
        assert stats.episode_steps == window.steps
        assert stats.episodes == 400 // window.steps
        # each of the 2 workers runs 200 steps and completes floor(200/steps)
        assert len(stats.episode_rewards) == 2 * (200 // window.steps)
        assert stats.total_timesteps == 400
        assert stats.updates == 400 // (cfg.n_envs * cfg.n_steps)

    def test_policy_contract(self):
        cfg, factory, _ = small_setup()
        policy, _ = a2c_train(cfg, factory)
        assert policy.label == "a2c"
        assert policy.normalizer.frozen
        assert policy.steps_trained == cfg.total_timesteps
        obs = factory().reset()
        a1 = policy.act(obs, np.random.default_rng(0))
        a2 = policy.act(obs, np.random.default_rng(99))
        assert np.array_equal(a1, a2)  # deterministic head ignores the rng
        assert np.all(np.abs(a1) <= 1.0)

    def test_runs_episodes_in_env(self, rng):
        cfg, factory, window = small_setup()
        policy, _ = a2c_train(cfg, factory)
        feats = make_features(["AA", "BB"], 160, seed=7)
        log = run_episode(policy, EnvConfig(), feats, window, rng)
        assert log.portfolio_value[0] == pytest.approx(1_000_000.0)
        assert np.isfinite(log.portfolio_value).all()


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg, factory, _ = small_setup()
        policy, _ = a2c_train(cfg, factory)
        path = tmp_path / "policy.ckpt"
        save_checkpoint(policy, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.params.vector, policy.params.vector)
        assert np.array_equal(loaded.normalizer.mean, policy.normalizer.mean)
        assert np.array_equal(loaded.normalizer.m2, policy.normalizer.m2)
        assert loaded.normalizer.count == policy.normalizer.count
        assert loaded.normalizer.frozen
        assert loaded.label == policy.label
        assert loaded.steps_trained == policy.steps_trained
        assert loaded.config == policy.config
        obs = factory().reset()
        assert np.array_equal(
            loaded.act(obs, np.random.default_rng(0)), policy.act(obs, np.random.default_rng(0))
        )

    def test_save_is_byte_identical(self, tmp_path):
        cfg, factory, _ = small_setup()
        policy, _ = a2c_train(cfg, factory)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(policy, a)
        save_checkpoint(policy, b)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b'{"format": "something-else"}\n' + b"\x00" * 64)
        with pytest.raises(TradeLabError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope.ckpt")

    @pytest.mark.parametrize("key", ["label", "steps_trained", "config"])
    def test_header_without_a_saved_field_fails_closed(self, tmp_path, rng, key):
        policy = MlpPolicy(init_mlp((4, 6, 6, 2), rng), ObsNormalizer(4), config=A2CConfig(), steps_trained=20)
        path = tmp_path / "policy.ckpt"
        save_checkpoint(policy, path)
        header = json.loads(path.read_bytes().partition(b"\n")[0])
        del header["format"], header[key]
        write_frame(path, CHECKPOINT_MAGIC, header,
                    [policy.params.vector, policy.normalizer.mean, policy.normalizer.m2])
        with pytest.raises(MalformedFile, match=f"header lacks field '{key}'") as caught:
            load_checkpoint(path)
        assert str(path) in str(caught.value)

    def test_rejects_nonfinite_params(self, tmp_path, rng):
        params = init_mlp((4, 6, 6, 2), rng)
        vec = params.vector.copy()
        vec[3] = np.nan
        bad = MlpPolicy(MlpParams(vec, params.sizes), ObsNormalizer(4))
        path = tmp_path / "bad.ckpt"
        save_checkpoint(bad, path)
        with pytest.raises(TradeLabError, match="non-finite"):
            load_checkpoint(path)
