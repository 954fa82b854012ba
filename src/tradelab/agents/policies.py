"""Deterministic baseline policies over the shared observation layout.

A policy is anything with ``act(observation, rng) -> action`` returning
components in [-1, 1] plus a ``label`` string. The observation layout is
``[cash] ++ prices(N) ++ shares(N) ++ features(8N)``, so N recovers as
``(len(observation) - 1) // 10``.
"""

from __future__ import annotations

import numpy as np

from ..indicators import FEATURE_NAMES

__all__ = [
    "act_random",
    "act_hold",
    "HoldPolicy",
    "RandomPolicy",
    "BuyAndHoldPolicy",
    "MomentumPolicy",
    "BASELINE_POLICIES",
    "make_baseline",
]

_SMA_SHORT = FEATURE_NAMES.index("sma_short")
_SMA_LONG = FEATURE_NAMES.index("sma_long")


def n_tickers_of(observation) -> int:
    n, rem = divmod(len(observation) - 1, 2 + len(FEATURE_NAMES))
    if rem != 0 or n < 1:
        raise ValueError(f"observation length {len(observation)} does not match the layout")
    return n


def act_random(observation, rng: np.random.Generator) -> np.ndarray:
    """I.i.d. uniform action components in [-1, 1]."""
    return rng.uniform(-1.0, 1.0, size=n_tickers_of(observation))


def act_hold(observation) -> np.ndarray:
    """The all-zero action: trade nothing."""
    return np.zeros(n_tickers_of(observation))


class HoldPolicy:
    label = "hold"

    def act(self, observation, rng) -> np.ndarray:
        return act_hold(observation)


class RandomPolicy:
    label = "random"

    def act(self, observation, rng) -> np.ndarray:
        return act_random(observation, rng)


class BuyAndHoldPolicy:
    """Max buy across all tickers while the observed holdings are all zero,
    as at the start of every episode, then hold. The decision reads only the
    observation, so one instance serves any number of episodes."""

    label = "buy-and-hold"

    def act(self, observation, rng) -> np.ndarray:
        n = n_tickers_of(observation)
        holdings = np.asarray(observation)[1 + n : 1 + 2 * n]
        return np.zeros(n) if holdings.any() else np.ones(n)


class MomentumPolicy:
    """Trailing-mean crossover: long while the short mean is above the long.

    Reads the sma_short/sma_long slots of the in-observation feature block;
    equal means hold.
    """

    label = "momentum"

    def act(self, observation, rng) -> np.ndarray:
        n = n_tickers_of(observation)
        block = np.asarray(observation)[1 + 2 * n :].reshape(n, len(FEATURE_NAMES))
        return np.sign(block[:, _SMA_SHORT] - block[:, _SMA_LONG])


BASELINE_POLICIES = {
    "hold": HoldPolicy,
    "random": RandomPolicy,
    "buy-and-hold": BuyAndHoldPolicy,
    "momentum": MomentumPolicy,
}


def make_baseline(name: str):
    """Instantiate a baseline policy by label; raises KeyError if unknown."""
    return BASELINE_POLICIES[name]()
