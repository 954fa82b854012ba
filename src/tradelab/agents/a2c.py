"""Synchronous advantage actor-critic over vectorized trading environments.

The policy is a diagonal Gaussian around a tanh-squashed MLP mean with a
state-independent log-std vector. Samples are clamped to [-1, 1] after
drawing; the log-density in the gradient uses the pre-clamp sample, a known
small bias accepted for simplicity. Updates are plain n-step advantage
policy gradients with an RMSProp-style adaptive step on the flat parameter
vector ``MlpParams.vector``, and everything is driven by one seeded
generator, so a (seed, config, data) triple fixes the whole parameter
trajectory bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass, field

import numpy as np

from ..binfile import read_frame, write_frame
from ..config import decode_config
from ..env import TradingEnv
from ..errors import TradeLabError
from .mlp import MlpParams, init_mlp, mlp_backward, mlp_forward

__all__ = [
    "A2CConfig",
    "ObsNormalizer",
    "RolloutBatch",
    "UpdateStats",
    "TrainStats",
    "MlpPolicy",
    "NonFiniteLoss",
    "a2c_loss_and_grad",
    "a2c_update",
    "a2c_train",
    "save_checkpoint",
    "load_checkpoint",
]

LOG_2PI = float(np.log(2.0 * np.pi))
CHECKPOINT_MAGIC = "tradelab-checkpoint-v1"


class NonFiniteLoss(TradeLabError):
    pass


@dataclass(frozen=True)
class A2CConfig:
    n_steps: int = 5
    gamma: float = 0.99
    lr: float = 7e-4
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    max_grad_norm: float = 0.5
    total_timesteps: int = 100_000
    n_envs: int = 4
    seed: int = 0
    hidden_sizes: tuple[int, int] = (64, 64)
    rms_decay: float = 0.99
    rms_eps: float = 1e-5

    def __post_init__(self):
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError("gamma must lie in [0, 1]")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.n_steps < 1 or self.n_envs < 1 or self.total_timesteps < 1:
            raise ValueError("n_steps, n_envs, and total_timesteps must be >= 1")
        if self.value_coef < 0 or self.entropy_coef < 0:
            raise ValueError("loss coefficients must be non-negative")
        if self.max_grad_norm <= 0:
            raise ValueError("max_grad_norm must be positive")
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if len(self.hidden_sizes) != 2:
            raise ValueError(f"hidden_sizes must hold two layer widths, got {list(self.hidden_sizes)}")

    def to_dict(self) -> dict:
        return asdict(self)


class ObsNormalizer:
    """Running per-feature standardization (Welford), freezable for eval.

    The map is purely affine, x -> (x - mean) / sd; no clipping is applied.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.count = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros(dim)
        self.frozen = False

    def update(self, batch: np.ndarray) -> None:
        if self.frozen:
            raise TradeLabError("normalizer is frozen; no further updates allowed")
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

    def _sd(self) -> np.ndarray:
        if self.count < 2:
            return np.ones(self.dim)
        return np.sqrt(self.m2 / self.count + 1e-8)

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self._sd()

    def freeze(self) -> None:
        self.frozen = True


@dataclass(frozen=True)
class RolloutBatch:
    """Flattened n_steps x n_envs transitions with bootstrapped returns.

    ``actions`` are the pre-clamp Gaussian samples (the density the gradient
    needs); ``observations`` are already normalized.
    """

    observations: np.ndarray  # (B, D)
    actions: np.ndarray  # (B, N)
    returns: np.ndarray  # (B,)


@dataclass(frozen=True)
class UpdateStats:
    policy_loss: float
    value_loss: float
    entropy: float
    grad_norm: float


@dataclass
class TrainStats:
    """Per-update curves plus episode accounting.

    ``episodes`` is the aggregate arithmetic total_timesteps // episode_steps
    (the budget in complete passes); ``episode_rewards`` lists the scaled
    return of every episode a worker actually finished, which can differ
    from ``episodes`` when the budget does not divide evenly across workers.
    """

    policy_losses: list = field(default_factory=list)
    value_losses: list = field(default_factory=list)
    entropies: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    episode_rewards: list = field(default_factory=list)
    episodes: int = 0
    episode_steps: int = 0
    total_timesteps: int = 0

    @property
    def updates(self) -> int:
        return len(self.policy_losses)


def gaussian_log_density(actions: np.ndarray, mean: np.ndarray, log_std: np.ndarray) -> np.ndarray:
    """Per-sample log pi(a | s) of the diagonal Gaussian, closed form."""
    z = (actions - mean) / np.exp(log_std)
    return -0.5 * np.sum(z**2 + LOG_2PI, axis=1) - np.sum(log_std)


def gaussian_entropy(log_std: np.ndarray) -> float:
    """H = sum_i (0.5 ln(2 pi e) + log_std_i), exact."""
    return float(np.sum(0.5 * (LOG_2PI + 1.0) + log_std))


def a2c_loss_and_grad(
    params: MlpParams,
    batch: RolloutBatch,
    cfg: A2CConfig,
    update_index: int = 0,
) -> tuple[float, float, float, np.ndarray]:
    """Loss components and the exact pre-clip gradient of
    loss = -E[log pi * A] + c_v E[(R-V)^2] - c_e H.

    Advantages are detached (R - V treated as a constant weight), so the
    gradient matches finite differences of that loss with A held fixed.
    Returns (policy_loss, value_loss, entropy, flat_gradient).
    """
    obs = batch.observations
    actions = batch.actions
    returns = batch.returns
    b = obs.shape[0]

    mean, log_std, values, cache = mlp_forward(params, obs)
    sigma2 = np.exp(2.0 * log_std)
    advantages = returns - values

    log_probs = gaussian_log_density(actions, mean, log_std)
    entropy = gaussian_entropy(log_std)
    policy_loss = float(-(advantages * log_probs).mean())
    value_loss = float(((returns - values) ** 2).mean())
    loss = policy_loss + cfg.value_coef * value_loss - cfg.entropy_coef * entropy
    if not np.isfinite(loss):
        raise NonFiniteLoss(
            f"update {update_index}: non-finite loss (policy={policy_loss!r}, "
            f"value={value_loss!r}, entropy={entropy!r})"
        )

    # closed-form head gradients; advantage weights are constants here
    d_mean = -(advantages[:, None] * (actions - mean) / sigma2) / b
    d_value = 2.0 * cfg.value_coef * (values - returns) / b
    z2 = ((actions - mean) ** 2) / sigma2
    d_log_std = -(advantages[:, None] * (z2 - 1.0)).sum(axis=0) / b - cfg.entropy_coef

    g = mlp_backward(params, cache, d_mean, d_value, d_log_std).vector
    if not np.isfinite(g).all():
        raise NonFiniteLoss(f"update {update_index}: non-finite gradient")
    return policy_loss, value_loss, entropy, g


def a2c_update(
    params: MlpParams,
    batch: RolloutBatch,
    cfg: A2CConfig,
    opt_state: np.ndarray | None = None,
    update_index: int = 0,
) -> tuple[MlpParams, np.ndarray, UpdateStats]:
    """One clipped RMSProp step on the actor-critic loss. Returns the new
    parameters, the optimizer accumulator, and the update statistics."""
    policy_loss, value_loss, entropy, g = a2c_loss_and_grad(params, batch, cfg, update_index)
    grad_norm = float(np.linalg.norm(g))
    if grad_norm > cfg.max_grad_norm:
        g = g * (cfg.max_grad_norm / grad_norm)

    if opt_state is None:
        opt_state = np.zeros_like(g)
    opt_state = cfg.rms_decay * opt_state + (1.0 - cfg.rms_decay) * g**2
    new_params = MlpParams(params.vector - cfg.lr * g / (np.sqrt(opt_state) + cfg.rms_eps), params.sizes)
    stats = UpdateStats(policy_loss=policy_loss, value_loss=value_loss, entropy=entropy, grad_norm=grad_norm)
    return new_params, opt_state, stats


class MlpPolicy:
    """Trained policy: frozen normalizer + parameters. It acts with the
    policy mean, so the rng goes unused."""

    def __init__(self, params: MlpParams, normalizer: ObsNormalizer, label: str = "a2c",
                 config: A2CConfig | None = None, steps_trained: int = 0):
        self.params = params
        self.normalizer = normalizer
        self.label = label
        self.config = config
        self.steps_trained = steps_trained

    def act(self, observation, rng: np.random.Generator) -> np.ndarray:
        mean, _, _, _ = mlp_forward(self.params, self.normalizer.normalize(observation))
        return mean


def a2c_train(cfg: A2CConfig, env_factory) -> tuple[MlpPolicy, TrainStats]:
    """Train over n_envs lockstep copies of the factory's environment.

    The factory's environment supplies the env config, features and window,
    so every worker shares them and rollouts differ only through action
    sampling. One TradingEnv with ``copies=n_envs`` steps all workers in one
    call per rollout step. Normalizer statistics adapt during training and
    freeze into the returned policy.
    """
    rng = np.random.default_rng(cfg.seed)
    template = env_factory()
    env = TradingEnv(template.cfg, template.features, template.window, copies=cfg.n_envs)
    obs_dim = env.observation_size
    n_actions = env.n_tickers
    episode_steps = env.window.steps

    params = init_mlp((obs_dim, *cfg.hidden_sizes, n_actions), rng)
    normalizer = ObsNormalizer(obs_dim)
    opt_state: np.ndarray | None = None
    stats = TrainStats(
        episodes=cfg.total_timesteps // episode_steps,
        episode_steps=episode_steps,
        total_timesteps=cfg.total_timesteps,
    )

    raw_obs = env.reset()
    normalizer.update(raw_obs)
    episode_return = np.zeros(cfg.n_envs)

    steps_done = 0
    update_index = 0
    while steps_done < cfg.total_timesteps:
        obs_buf = np.empty((cfg.n_steps, cfg.n_envs, obs_dim))
        act_buf = np.empty((cfg.n_steps, cfg.n_envs, n_actions))
        rew_buf = np.empty((cfg.n_steps, cfg.n_envs))
        done_buf = np.empty((cfg.n_steps, cfg.n_envs))

        for k in range(cfg.n_steps):
            norm_obs = normalizer.normalize(raw_obs)
            mean, log_std, _, _ = mlp_forward(params, norm_obs)
            raw_actions = mean + np.exp(log_std) * rng.standard_normal(mean.shape)

            obs_buf[k] = norm_obs
            act_buf[k] = raw_actions
            outcome = env.step(raw_actions)  # the env clamps each component to [-1, 1]
            rew_buf[k] = outcome.reward
            done_buf[k] = float(outcome.done)
            episode_return += outcome.reward
            raw_obs = outcome.observation
            if outcome.done:  # the copies share one clock, so they finish together
                stats.episode_rewards.extend(episode_return.tolist())
                episode_return[:] = 0.0
                raw_obs = env.reset()
            normalizer.update(raw_obs)
            steps_done += cfg.n_envs

        _, _, bootstrap, _ = mlp_forward(params, normalizer.normalize(raw_obs))
        returns = np.empty((cfg.n_steps, cfg.n_envs))
        running = bootstrap
        for k in reversed(range(cfg.n_steps)):
            running = rew_buf[k] + cfg.gamma * running * (1.0 - done_buf[k])
            returns[k] = running

        batch = RolloutBatch(
            observations=obs_buf.reshape(-1, obs_dim),
            actions=act_buf.reshape(-1, n_actions),
            returns=returns.reshape(-1),
        )
        params, opt_state, ustats = a2c_update(params, batch, cfg, opt_state, update_index)
        stats.policy_losses.append(ustats.policy_loss)
        stats.value_losses.append(ustats.value_loss)
        stats.entropies.append(ustats.entropy)
        stats.grad_norms.append(ustats.grad_norm)
        update_index += 1

    normalizer.freeze()
    policy = MlpPolicy(params, normalizer, label="a2c", config=cfg, steps_trained=steps_done)
    return policy, stats


# ---------------------------------------------------------------------------
# checkpoints: a binfile frame whose payload is
# [flat params ++ normalizer mean ++ normalizer m2]
# ---------------------------------------------------------------------------

def save_checkpoint(policy: MlpPolicy, path) -> None:
    params_vec = policy.params.vector
    header = {
        "sizes": list(policy.params.sizes),
        "param_count": int(params_vec.size),
        "normalizer_count": int(policy.normalizer.count),
        "obs_dim": int(policy.normalizer.dim),
        "label": policy.label,
        "steps_trained": int(policy.steps_trained),
        "config": None if policy.config is None else policy.config.to_dict(),
    }
    write_frame(path, CHECKPOINT_MAGIC, header, [params_vec, policy.normalizer.mean, policy.normalizer.m2])


def load_checkpoint(path) -> MlpPolicy:
    def decode(header, take):
        params = MlpParams(take("<f8", header["param_count"]).copy(), header["sizes"])
        if not params.all_finite():
            raise TradeLabError("checkpoint contains non-finite parameters")
        normalizer = ObsNormalizer(header["obs_dim"])
        normalizer.mean = take("<f8", normalizer.dim).copy()
        normalizer.m2 = take("<f8", normalizer.dim).copy()
        normalizer.count = operator.index(header["normalizer_count"])
        normalizer.freeze()
        config = header["config"]
        return MlpPolicy(
            params,
            normalizer,
            label=header["label"],
            config=None if config is None else decode_config(A2CConfig, config, "checkpoint a2c"),
            steps_trained=operator.index(header["steps_trained"]),
        )

    return read_frame(path, CHECKPOINT_MAGIC, decode)
