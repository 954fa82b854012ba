"""Two-hidden-layer tanh network with a squashed policy head and value head.

The policy mean passes through tanh so it always lies in (-1, 1); the
per-action log standard deviation is a free parameter vector independent of
the state; the value head is linear. Forward returns a cache of layer
activations which backward consumes, so gradients are exact reverse-mode.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..errors import TradeLabError

__all__ = [
    "ShapeMismatch",
    "MlpParams",
    "init_mlp",
    "mlp_forward",
    "mlp_backward",
    "params_to_vector",
    "vector_to_params",
]


class ShapeMismatch(TradeLabError):
    pass


@dataclass(frozen=True)
class MlpParams:
    """All learnable arrays. sizes = (obs_dim, hidden1, hidden2, n_actions)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w_mean: np.ndarray
    b_mean: np.ndarray
    w_value: np.ndarray
    b_value: np.ndarray
    log_std: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            arr = np.asarray(getattr(self, f.name), dtype=np.float64)
            object.__setattr__(self, f.name, arr)
        d, h1 = self.w1.shape
        h2 = self.w2.shape[1]
        n = self.w_mean.shape[1]
        chain = (
            self.b1.shape == (h1,)
            and self.w2.shape == (h1, h2)
            and self.b2.shape == (h2,)
            and self.w_mean.shape == (h2, n)
            and self.b_mean.shape == (n,)
            and self.w_value.shape == (h2, 1)
            and self.b_value.shape == (1,)
            and self.log_std.shape == (n,)
        )
        if not chain:
            raise ShapeMismatch("parameter shapes do not chain")

    def all_finite(self) -> bool:
        return all(np.isfinite(getattr(self, f.name)).all() for f in fields(self))

    @property
    def sizes(self) -> tuple[int, int, int, int]:
        return (self.w1.shape[0], self.w1.shape[1], self.w2.shape[1], self.w_mean.shape[1])


def init_mlp(sizes, rng: np.random.Generator) -> MlpParams:
    """Fan-in scaled init; the mean head starts near zero so early actions
    are centered and exploration comes from the unit initial sigma."""
    d, h1, h2, n = sizes
    scale = lambda fan_in: 1.0 / np.sqrt(fan_in)
    return MlpParams(
        w1=rng.standard_normal((d, h1)) * scale(d),
        b1=np.zeros(h1),
        w2=rng.standard_normal((h1, h2)) * scale(h1),
        b2=np.zeros(h2),
        w_mean=rng.standard_normal((h2, n)) * (0.01 * scale(h2)),
        b_mean=np.zeros(n),
        w_value=rng.standard_normal((h2, 1)) * scale(h2),
        b_value=np.zeros(1),
        log_std=np.zeros(n),
    )


def mlp_forward(params: MlpParams, observation):
    """Returns (mean, log_std, value, cache) for a (D,) or (B, D) input.

    mean is tanh-squashed; value is the raw linear head output. The cache
    holds the activations backward needs.
    """
    x = np.asarray(observation, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != params.w1.shape[0]:
        raise ShapeMismatch(f"observation shape {np.shape(observation)} does not match input size {params.w1.shape[0]}")
    h1 = np.tanh(x @ params.w1 + params.b1)
    h2 = np.tanh(h1 @ params.w2 + params.b2)
    mean = np.tanh(h2 @ params.w_mean + params.b_mean)
    value = (h2 @ params.w_value + params.b_value)[:, 0]
    cache = {"x": x, "h1": h1, "h2": h2, "mean": mean}
    if single:
        return mean[0], params.log_std.copy(), float(value[0]), cache
    return mean, params.log_std.copy(), value, cache


def mlp_backward(params: MlpParams, cache: dict, d_mean, d_value, d_log_std) -> MlpParams:
    """Exact gradients of a scalar loss given its derivatives at the heads.

    d_mean is dL/d(mean) AFTER the tanh squash, shape (B, N); d_value is
    dL/d(value), shape (B,); d_log_std is the (N,) parameter gradient
    accumulated outside (log_std bypasses the trunk entirely). Returns an
    MlpParams holding the gradient for each parameter.
    """
    x, h1, h2, mean = cache["x"], cache["h1"], cache["h2"], cache["mean"]
    d_mean = np.asarray(d_mean, dtype=np.float64)
    d_value = np.asarray(d_value, dtype=np.float64)
    if d_mean.ndim == 1:
        d_mean = d_mean[None, :]
    d_value = d_value.reshape(-1, 1)
    if d_mean.shape != mean.shape or d_value.shape[0] != h2.shape[0]:
        raise ShapeMismatch("upstream gradient shapes do not match the cached forward pass")

    dz_mean = d_mean * (1.0 - mean**2)  # back through the tanh squash
    g_w_mean = h2.T @ dz_mean
    g_b_mean = dz_mean.sum(axis=0)
    g_w_value = h2.T @ d_value
    g_b_value = d_value.sum(axis=0)

    d_h2 = dz_mean @ params.w_mean.T + d_value @ params.w_value.T
    dz2 = d_h2 * (1.0 - h2**2)
    g_w2 = h1.T @ dz2
    g_b2 = dz2.sum(axis=0)

    d_h1 = dz2 @ params.w2.T
    dz1 = d_h1 * (1.0 - h1**2)
    g_w1 = x.T @ dz1
    g_b1 = dz1.sum(axis=0)

    return MlpParams(
        w1=g_w1,
        b1=g_b1,
        w2=g_w2,
        b2=g_b2,
        w_mean=g_w_mean,
        b_mean=g_b_mean,
        w_value=g_w_value,
        b_value=g_b_value,
        log_std=np.asarray(d_log_std, dtype=np.float64),
    )


def params_to_vector(params: MlpParams) -> np.ndarray:
    return np.concatenate([np.asarray(getattr(params, f.name)).ravel() for f in fields(MlpParams)])


def vector_to_params(vector: np.ndarray, sizes) -> MlpParams:
    d, h1, h2, n = sizes
    shapes = {
        "w1": (d, h1),
        "b1": (h1,),
        "w2": (h1, h2),
        "b2": (h2,),
        "w_mean": (h2, n),
        "b_mean": (n,),
        "w_value": (h2, 1),
        "b_value": (1,),
        "log_std": (n,),
    }
    total = sum(int(np.prod(s)) for s in shapes.values())
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (total,):
        raise ShapeMismatch(f"flat vector has length {vector.shape}, expected ({total},)")
    out = {}
    offset = 0
    for name, shape in shapes.items():
        size = int(np.prod(shape))
        out[name] = vector[offset : offset + size].reshape(shape)
        offset += size
    return MlpParams(**out)
