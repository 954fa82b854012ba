"""Deterministic baseline policies over the shared observation layout.

A policy is anything with ``act(observation, rng) -> action`` returning
components in [-1, 1] plus a ``label`` string. Each policy reads the
observation through ``env.split_observation``, which owns its layout.
"""

from __future__ import annotations

import numpy as np

from ..env import split_observation
from ..indicators import FEATURE_NAMES

__all__ = [
    "HoldPolicy",
    "RandomPolicy",
    "BuyAndHoldPolicy",
    "MomentumPolicy",
    "BASELINE_POLICIES",
    "make_baseline",
]

_SMA_SHORT = FEATURE_NAMES.index("sma_short")
_SMA_LONG = FEATURE_NAMES.index("sma_long")


class HoldPolicy:
    """The all-zero action: trade nothing."""

    label = "hold"

    def act(self, observation, rng) -> np.ndarray:
        return np.zeros(split_observation(observation)[1].size)


class RandomPolicy:
    """I.i.d. uniform action components in [-1, 1]."""

    label = "random"

    def act(self, observation, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-1.0, 1.0, size=split_observation(observation)[1].size)


class BuyAndHoldPolicy:
    """Max buy across all tickers while the observed holdings are all zero,
    as at the start of every episode, then hold. The decision reads only the
    observation, so one instance serves any number of episodes."""

    label = "buy-and-hold"

    def act(self, observation, rng) -> np.ndarray:
        _, _, holdings, _ = split_observation(observation)
        return np.zeros(holdings.size) if holdings.any() else np.ones(holdings.size)


class MomentumPolicy:
    """Trailing-mean crossover: long while the short mean is above the long.

    Reads the sma_short/sma_long slots of the in-observation feature block;
    equal means hold.
    """

    label = "momentum"

    def act(self, observation, rng) -> np.ndarray:
        _, _, _, block = split_observation(observation)
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
