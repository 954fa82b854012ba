"""Two-hidden-layer tanh network with a squashed policy head and value head.

The policy mean passes through tanh so it always lies in (-1, 1); the
per-action log standard deviation is a free parameter vector independent of
the state; the value head is linear. Both passes take a (B, D) batch of
observations; a single observation is a batch of one. Forward returns a cache
of layer activations which backward consumes, so gradients are exact
reverse-mode.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import TradeLabError

__all__ = [
    "ShapeMismatch",
    "MlpParams",
    "init_mlp",
    "mlp_forward",
    "mlp_mean",
    "mlp_value",
    "mlp_backward",
]


class ShapeMismatch(TradeLabError):
    pass


_NAMES = ("w1", "b1", "w2", "b2", "w_mean", "b_mean", "w_value", "b_value", "log_std")


def _layout(sizes: tuple) -> tuple:
    """(total length, (name, start, stop, shape) per parameter in _NAMES order)
    for a tuple of int sizes."""
    d, h1, h2, n = sizes
    shapes = [(d, h1), (h1,), (h1, h2), (h2,), (h2, n), (n,), (h2, 1), (1,), (n,)]
    entries, offset = [], 0
    for name, shape in zip(_NAMES, shapes):
        stop = offset + math.prod(shape)
        entries.append((name, offset, stop, shape))
        offset = stop
    return offset, tuple(entries)


class MlpParams:
    """All learnable arrays w1, b1, w2, b2, w_mean, b_mean, w_value, b_value
    and log_std, in that order, as views into one flat float64 ``vector``.
    sizes = (obs_dim, hidden1, hidden2, n_actions).

    The views alias ``vector``: writing one writes the other, and no copy is
    made when ``vector`` already is a contiguous float64 array.
    """

    def __init__(self, vector, sizes):
        self.sizes = tuple(map(int, sizes))
        total, entries = _layout(self.sizes)
        vector = np.ascontiguousarray(vector, dtype=np.float64)
        if vector.shape != (total,):
            raise ShapeMismatch(f"flat vector has length {vector.shape}, expected ({total},)")
        self.vector = vector
        for name, start, stop, shape in entries:
            setattr(self, name, vector[start:stop].reshape(shape))

    @classmethod
    def zeros(cls, sizes) -> "MlpParams":
        return cls(np.zeros(_layout(tuple(map(int, sizes)))[0]), sizes)


def init_mlp(sizes, rng: np.random.Generator) -> MlpParams:
    """Fan-in scaled init; the mean head starts near zero so early actions
    are centered and exploration comes from the unit initial sigma."""
    d, h1, h2, n = sizes
    scale = lambda fan_in: 1.0 / np.sqrt(fan_in)
    params = MlpParams.zeros(sizes)
    params.w1[...] = rng.standard_normal((d, h1)) * scale(d)
    params.w2[...] = rng.standard_normal((h1, h2)) * scale(h1)
    params.w_mean[...] = rng.standard_normal((h2, n)) * (0.01 * scale(h2))
    params.w_value[...] = rng.standard_normal((h2, 1)) * scale(h2)
    return params


def _trunk(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two tanh hidden layers of a (B, D) float64 batch."""
    h1 = x @ params.w1
    h1 += params.b1
    np.tanh(h1, out=h1)
    h2 = h1 @ params.w2
    h2 += params.b2
    np.tanh(h2, out=h2)
    return h1, h2


def _mean_head(params: MlpParams, h2: np.ndarray) -> np.ndarray:
    mean = h2 @ params.w_mean
    mean += params.b_mean
    np.tanh(mean, out=mean)
    return mean


def _value_head(params: MlpParams, h2: np.ndarray) -> np.ndarray:
    value = h2 @ params.w_value
    value += params.b_value
    return value[:, 0]


def mlp_mean(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """The (B, N) policy mean alone, bit for bit the mean of ``mlp_forward``.
    ``x`` must already be a (B, D) float64 array: nothing is checked."""
    return _mean_head(params, _trunk(params, x)[1])


def mlp_value(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """The (B,) value alone, bit for bit the value of ``mlp_forward``.
    ``x`` must already be a (B, D) float64 array: nothing is checked."""
    return _value_head(params, _trunk(params, x)[1])


def mlp_forward(params: MlpParams, observation):
    """Returns (mean (B, N), log_std (N,), value (B,), cache) for a (B, D) batch.

    mean is tanh-squashed; value is the raw linear head output. The cache
    holds the activations backward needs. This is the checked pass, which
    the update runs; ``mlp_mean`` and ``mlp_value`` compute one head each.
    """
    x = np.asarray(observation, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.w1.shape[0]:
        raise ShapeMismatch(f"observation shape {np.shape(observation)} does not match input size {params.w1.shape[0]}")
    h1, h2 = _trunk(params, x)
    mean = _mean_head(params, h2)
    cache = {"x": x, "h1": h1, "h2": h2, "mean": mean}
    return mean, params.log_std.copy(), _value_head(params, h2), cache


def mlp_backward(params: MlpParams, cache: dict, d_mean, d_value, d_log_std, grad: MlpParams) -> MlpParams:
    """Exact gradients of a scalar loss given its derivatives at the heads.

    d_mean is dL/d(mean) AFTER the tanh squash, shape (B, N); d_value is
    dL/d(value), shape (B,); d_log_std is the (N,) parameter gradient
    accumulated outside (log_std bypasses the trunk entirely). Every entry of
    ``grad``, an MlpParams of the same sizes, is overwritten with the gradient
    of its parameter; ``grad`` is returned.
    """
    x, h1, h2, mean = cache["x"], cache["h1"], cache["h2"], cache["mean"]
    d_mean = np.asarray(d_mean, dtype=np.float64)
    d_value = np.asarray(d_value, dtype=np.float64).reshape(-1, 1)
    d_log_std = np.asarray(d_log_std, dtype=np.float64)
    if (d_mean.shape != mean.shape or d_value.shape[0] != h2.shape[0] or d_log_std.shape != params.log_std.shape
            or grad.sizes != params.sizes):
        raise ShapeMismatch("upstream gradient shapes or the gradient's sizes do not match the cached forward pass")

    dz_mean = d_mean * (1.0 - mean**2)  # back through the tanh squash
    np.matmul(h2.T, dz_mean, out=grad.w_mean)
    np.add.reduce(dz_mean, axis=0, out=grad.b_mean)
    np.matmul(h2.T, d_value, out=grad.w_value)
    np.add.reduce(d_value, axis=0, out=grad.b_value)

    d_h2 = dz_mean @ params.w_mean.T + d_value @ params.w_value.T
    dz2 = d_h2 * (1.0 - h2**2)
    np.matmul(h1.T, dz2, out=grad.w2)
    np.add.reduce(dz2, axis=0, out=grad.b2)

    d_h1 = dz2 @ params.w2.T
    dz1 = d_h1 * (1.0 - h1**2)
    np.matmul(x.T, dz1, out=grad.w1)
    np.add.reduce(dz1, axis=0, out=grad.b1)
    grad.log_std[...] = d_log_std
    return grad

