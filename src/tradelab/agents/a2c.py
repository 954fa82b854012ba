"""Synchronous advantage actor-critic over vectorized trading environments.

The policy is a diagonal Gaussian around a tanh-squashed MLP mean with a
state-independent log-std vector. Samples are clamped to [-1, 1] after
drawing; the log-density in the gradient uses the pre-clamp sample, a known
small bias accepted for simplicity. Updates are plain n-step advantage
policy gradients with an RMSProp-style adaptive step on the flat parameter
vector ``MlpParams.vector``, and everything is driven by one seeded
generator, so a (seed, config, data) triple fixes the whole parameter
trajectory bit for bit.

The training step owns its buffers: ``a2c_update`` steps the parameters and
the ``RmsPropState`` it is given in place, clipping with the gradient norm
``a2c_loss_and_grad`` returns, and ``mlp_backward`` writes the gradient into
the state's ``grad``. The rollout calls the checked ``ObsNormalizer.update``
and ``normalize`` a library caller does, the latter writing straight into the
step's buffer row (``out=``); it computes only the policy mean per step and
only the value for the bootstrap, and runs the n-step returns on Python
floats. Each of these is the IEEE operation of the allocating form, on the
same operands, in the same order (additions commuted, which IEEE addition
allows).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ..binfile import read_frame, write_frame
from ..config import check_fields, decode_config
from ..env import TradingEnv
from ..errors import TradeLabError
from .mlp import MlpParams, ShapeMismatch, init_mlp, mlp_backward, mlp_forward, mlp_mean, mlp_value

__all__ = [
    "A2CConfig",
    "ObsNormalizer",
    "RolloutBatch",
    "RmsPropState",
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
        check_fields(self)
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
        if not (0.0 <= self.rms_decay < 1.0):
            raise ValueError("rms_decay must lie in [0, 1)")
        if not self.rms_eps > 0:
            raise ValueError("rms_eps must be positive")
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        if len(self.hidden_sizes) != 2 or min(self.hidden_sizes) < 1:
            raise ValueError(f"hidden_sizes must hold two layer widths >= 1, got {list(self.hidden_sizes)}")


class ObsNormalizer:
    """Running per-feature standardization (Welford), freezable for eval.

    The map is purely affine, x -> (x - mean) / sd; no clipping is applied.
    ``sd`` is derived when the statistics change; ``update`` takes a (B, dim)
    batch, ``normalize`` any array whose last axis is ``dim`` wide, and other
    shapes raise ShapeMismatch.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.frozen = False
        self._set_stats(np.zeros(dim), np.zeros(dim), 0)

    def _set_stats(self, mean: np.ndarray, m2: np.ndarray, count: int) -> None:
        """The one way the statistics change; it derives ``sd`` from them.

        It keeps ``mean`` and ``m2`` without writing into them, and ``update``
        replaces them with new arrays, so a checkpoint's or a frozen policy's
        statistics never change under their holder."""
        self.mean, self.m2, self.count = mean, m2, count
        if count < 2:
            self.sd = np.ones(self.dim)
        else:
            self.sd = m2 / count
            self.sd += 1e-8
            np.sqrt(self.sd, out=self.sd)

    def update(self, batch: np.ndarray) -> None:
        if self.frozen:
            raise TradeLabError("normalizer is frozen; no further updates allowed")
        batch = np.asarray(batch, dtype=np.float64)
        if batch.shape[1:] != (self.dim,):
            raise ShapeMismatch(f"batch shape {batch.shape} does not match normalizer width {self.dim}")
        nb = batch.shape[0]
        if not nb:
            return
        delta = np.add.reduce(batch, axis=0)
        delta /= nb  # the batch mean, as batch.mean(axis=0) computes it
        squares = batch - delta
        np.square(squares, out=squares)
        m2 = np.add.reduce(squares, axis=0)
        delta -= self.mean
        total = self.count + nb
        mean = delta * (nb / total)
        mean += self.mean
        m2 += self.m2
        np.square(delta, out=delta)
        delta *= self.count * nb / total
        m2 += delta
        self._set_stats(mean, m2, total)

    def normalize(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``(x - mean) / sd``, written into ``out`` if given, as numpy's ``out=``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1:] != (self.dim,):
            raise ShapeMismatch(f"observation shape {x.shape} does not match normalizer width {self.dim}")
        z = np.subtract(x, self.mean, out=out)
        z /= self.sd
        return z

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
class RmsPropState:
    """The buffers one training run's updates overwrite: the RMSProp
    accumulator, the gradient ``mlp_backward`` writes, and one scratch vector,
    each the length of ``MlpParams.vector``."""

    accumulator: np.ndarray
    grad: MlpParams
    scratch: np.ndarray

    @classmethod
    def zeros(cls, sizes) -> "RmsPropState":
        """The state before the first update: a zero accumulator."""
        grad = MlpParams.zeros(sizes)
        return cls(np.zeros_like(grad.vector), grad, np.zeros_like(grad.vector))


@dataclass(frozen=True)
class UpdateStats:
    policy_loss: float
    value_loss: float
    entropy: float
    grad_norm: float


@dataclass
class TrainStats:
    """Per-update curves, and the scaled return of every episode a worker
    finished."""

    policy_losses: list = field(default_factory=list)
    value_losses: list = field(default_factory=list)
    entropies: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    episode_rewards: list = field(default_factory=list)

    @property
    def updates(self) -> int:
        return len(self.policy_losses)


def gaussian_log_density(actions: np.ndarray, mean: np.ndarray, log_std: np.ndarray) -> np.ndarray:
    """Per-sample log pi(a | s) of the diagonal Gaussian, closed form."""
    z = (actions - mean) / np.exp(log_std)
    return -0.5 * np.add.reduce(z**2 + LOG_2PI, axis=1) - np.add.reduce(log_std)


def gaussian_entropy(log_std: np.ndarray) -> float:
    """H = sum_i (0.5 ln(2 pi e) + log_std_i), exact."""
    return float(np.add.reduce(0.5 * (LOG_2PI + 1.0) + log_std))


def a2c_loss_and_grad(
    params: MlpParams,
    batch: RolloutBatch,
    cfg: A2CConfig,
    grad: MlpParams,
    update_index: int = 0,
) -> tuple[float, float, float, np.ndarray, float]:
    """Loss components and the exact pre-clip gradient of
    loss = -E[log pi * A] + c_v E[(R-V)^2] - c_e H.

    Advantages are detached (R - V treated as a constant weight), so the
    gradient matches finite differences of that loss with A held fixed.
    The gradient is written into ``grad``. Returns (policy_loss, value_loss,
    entropy, flat_gradient, grad_norm): the flat gradient is ``grad.vector``
    and ``grad_norm`` its Euclidean norm, the one ``a2c_update`` clips with.
    """
    obs = batch.observations
    actions = batch.actions
    returns = batch.returns
    b = obs.shape[0]

    mean, log_std, values, cache = mlp_forward(params, obs)
    sigma2 = np.exp(2.0 * log_std)
    advantages = returns - values
    diff = actions - mean

    log_probs = gaussian_log_density(actions, mean, log_std)
    entropy = gaussian_entropy(log_std)
    # np.add.reduce(x) / b is what x.mean() computes, without its wrapper
    policy_loss = float(-(np.add.reduce(advantages * log_probs) / b))
    value_loss = float(np.add.reduce(advantages**2) / b)
    loss = policy_loss + cfg.value_coef * value_loss - cfg.entropy_coef * entropy
    if not math.isfinite(loss):
        raise NonFiniteLoss(
            f"update {update_index}: non-finite loss (policy={policy_loss!r}, "
            f"value={value_loss!r}, entropy={entropy!r})"
        )

    # closed-form head gradients; advantage weights are constants here
    weights = advantages[:, None]
    d_mean = -(weights * diff / sigma2) / b
    d_value = 2.0 * cfg.value_coef * (values - returns) / b
    z2 = (diff**2) / sigma2
    d_log_std = -np.add.reduce(weights * (z2 - 1.0), axis=0) / b - cfg.entropy_coef

    g = mlp_backward(params, cache, d_mean, d_value, d_log_std, grad).vector
    with np.errstate(over="ignore"):  # an all-finite gradient can overflow its sum of squares
        squared_norm = g.dot(g)
    if math.isfinite(squared_norm):
        return policy_loss, value_loss, entropy, g, math.sqrt(squared_norm)  # what np.linalg.norm computes
    # a sum of squares is finite only if every term is, so the vector is scanned only when it is not
    if not np.logical_and.reduce(np.isfinite(g)):
        raise NonFiniteLoss(f"update {update_index}: non-finite gradient")
    largest = float(np.max(np.abs(g)))  # the sum overflowed: scale by the largest component first
    scaled = g / largest
    return policy_loss, value_loss, entropy, g, largest * math.sqrt(scaled.dot(scaled))


def a2c_update(
    params: MlpParams,
    batch: RolloutBatch,
    cfg: A2CConfig,
    opt_state: RmsPropState,
    update_index: int = 0,
) -> UpdateStats:
    """One clipped RMSProp step on the actor-critic loss, in place: it steps
    ``params.vector`` and ``opt_state`` and returns the update statistics.
    ``batch`` is only read. A loss or gradient that is not finite raises
    NonFiniteLoss before ``params`` or the accumulator is written; a finite
    gradient whose squared norm overflows is still clipped along itself."""
    policy_loss, value_loss, entropy, g, grad_norm = a2c_loss_and_grad(
        params, batch, cfg, opt_state.grad, update_index)
    if grad_norm > cfg.max_grad_norm:
        g *= cfg.max_grad_norm / grad_norm
    # acc = decay * acc + (1 - decay) * g**2, then params -= (lr * g) / (sqrt(acc) + eps); the first
    # update's zero accumulator adds an exact 0.0, so it starts from (1 - decay) * g**2
    acc, scratch = opt_state.accumulator, opt_state.scratch
    np.square(g, out=scratch)
    scratch *= 1.0 - cfg.rms_decay
    acc *= cfg.rms_decay
    acc += scratch
    np.sqrt(acc, out=scratch)
    scratch += cfg.rms_eps
    g *= cfg.lr
    g /= scratch
    params.vector -= g
    return UpdateStats(policy_loss=policy_loss, value_loss=value_loss, entropy=entropy, grad_norm=grad_norm)


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
        """The (N,) policy mean for one (D,) observation, run as a batch of one."""
        x = self.normalizer.normalize(observation)
        if x.ndim != 1:
            raise ShapeMismatch(f"observation shape {x.shape} is not one ({self.normalizer.dim},) observation")
        return mlp_mean(self.params, x[None])[0]


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
    steps_per_update = cfg.n_steps * cfg.n_envs

    params = init_mlp((obs_dim, *cfg.hidden_sizes, n_actions), rng)
    normalizer = ObsNormalizer(obs_dim)
    opt_state = RmsPropState.zeros(params.sizes)
    stats = TrainStats()

    raw_obs = env.reset()
    normalizer.update(raw_obs)
    episode_return = [0.0] * cfg.n_envs
    # one set of rollout buffers, refilled by every rollout; batch views them, and each step
    # normalizes its observations straight into its row
    obs_buf = np.empty((cfg.n_steps, cfg.n_envs, obs_dim))
    act_buf = np.empty((cfg.n_steps, cfg.n_envs, n_actions))
    returns = np.empty((cfg.n_steps, cfg.n_envs))
    batch = RolloutBatch(obs_buf.reshape(-1, obs_dim), act_buf.reshape(-1, n_actions), returns.reshape(-1))
    obs_rows, act_rows = list(obs_buf), list(act_buf)
    last_obs = np.empty((cfg.n_envs, obs_dim))
    rewards = [None] * cfg.n_steps  # per step, the copies' rewards as Python floats
    not_done = [1.0] * cfg.n_steps

    while stats.updates * steps_per_update < cfg.total_timesteps:
        rng.standard_normal(out=act_buf)  # one draw per rollout gives the same stream as one per step
        act_buf *= np.exp(params.log_std)  # log_std changes only in the update
        for k in range(cfg.n_steps):
            obs, act = obs_rows[k], act_rows[k]
            act += mlp_mean(params, normalizer.normalize(raw_obs, out=obs))  # the pre-clamp sample mean + std * noise
            outcome = env.step(act)  # the env clips each component to [-1, 1], ±inf too; NaN raises
            rewards[k] = reward = outcome.reward.tolist()
            not_done[k] = 1.0 - float(outcome.done)
            episode_return = [total + r for total, r in zip(episode_return, reward)]
            raw_obs = outcome.observation
            if outcome.done:  # the copies share one clock, so they finish together
                stats.episode_rewards.extend(episode_return)
                episode_return = [0.0] * cfg.n_envs
                raw_obs = env.reset()
            normalizer.update(raw_obs)

        # the n-step returns in Python floats: the IEEE operations of the array recursion, in its order
        running = mlp_value(params, normalizer.normalize(raw_obs, out=last_obs)).tolist()
        rows = [None] * cfg.n_steps
        for k in reversed(range(cfg.n_steps)):
            keep = not_done[k]
            running = rows[k] = [r + cfg.gamma * x * keep for r, x in zip(rewards[k], running)]
        returns[...] = rows

        ustats = a2c_update(params, batch, cfg, opt_state, stats.updates)
        stats.policy_losses.append(ustats.policy_loss)
        stats.value_losses.append(ustats.value_loss)
        stats.entropies.append(ustats.entropy)
        stats.grad_norms.append(ustats.grad_norm)

    normalizer.freeze()
    policy = MlpPolicy(params, normalizer, label="a2c", config=cfg,
                       steps_trained=stats.updates * steps_per_update)
    return policy, stats


# ---------------------------------------------------------------------------
# checkpoints: a binfile frame whose payload is
# [flat params ++ normalizer mean ++ normalizer m2]
# ---------------------------------------------------------------------------

def save_checkpoint(policy: MlpPolicy, path) -> None:
    if not isinstance(policy.label, str):  # load_checkpoint refuses it, so no such file is written
        raise TradeLabError(f"policy label must be a string, got {policy.label!r}")
    params_vec = policy.params.vector
    header = {
        "sizes": list(policy.params.sizes),
        "param_count": int(params_vec.size),
        "normalizer_count": int(policy.normalizer.count),
        "obs_dim": int(policy.normalizer.dim),
        "label": policy.label,
        "steps_trained": int(policy.steps_trained),
        "config": None if policy.config is None else asdict(policy.config),
    }
    write_frame(path, CHECKPOINT_MAGIC, header, [params_vec, policy.normalizer.mean, policy.normalizer.m2])


def load_checkpoint(path) -> MlpPolicy:
    def decode(header, take):
        def count(name):  # a JSON integer >= 0; true and false are not counts
            if type(header[name]) is not int or header[name] < 0:
                raise ValueError(f"field {name!r} must be an integer >= 0, got {header[name]!r}")
            return header[name]

        sizes = header["sizes"]
        if not (isinstance(sizes, list) and len(sizes) == 4 and all(type(s) is int and s >= 1 for s in sizes)):
            raise ValueError(f"field 'sizes' must list four integers >= 1, got {sizes!r}")
        params = MlpParams(take("<f8", count("param_count")).copy(), sizes)
        if not np.isfinite(params.vector).all():
            raise TradeLabError("checkpoint contains non-finite parameters")
        if count("obs_dim") != params.sizes[0]:
            raise ValueError(f"field 'obs_dim' is {header['obs_dim']}, but field 'sizes' starts with {params.sizes[0]}")
        if not isinstance(header["label"], str):
            raise ValueError(f"field 'label' must be a string, got {header['label']!r}")
        normalizer = ObsNormalizer(header["obs_dim"])
        mean, m2 = take("<f8", normalizer.dim).copy(), take("<f8", normalizer.dim).copy()
        if not (np.isfinite(mean).all() and np.isfinite(m2).all() and (m2 >= 0.0).all()):
            raise TradeLabError("checkpoint normalizer statistics must be finite, with m2 >= 0")
        normalizer._set_stats(mean, m2, count("normalizer_count"))
        normalizer.freeze()
        config = header["config"]
        return MlpPolicy(
            params,
            normalizer,
            label=header["label"],
            config=None if config is None else decode_config(A2CConfig, config, "checkpoint a2c"),
            steps_trained=count("steps_trained"),
        )

    return read_frame(path, CHECKPOINT_MAGIC, decode)
