"""Policy contract, deterministic baselines, and the actor-critic trainer."""

from .a2c import (
    A2CConfig,
    MlpPolicy,
    NonFiniteLoss,
    ObsNormalizer,
    RolloutBatch,
    TrainStats,
    UpdateStats,
    a2c_loss_and_grad,
    a2c_train,
    a2c_update,
    load_checkpoint,
    save_checkpoint,
)
from .mlp import (
    MlpParams,
    ShapeMismatch,
    init_mlp,
    mlp_backward,
    mlp_forward,
)
from .policies import (
    BASELINE_POLICIES,
    BuyAndHoldPolicy,
    HoldPolicy,
    MomentumPolicy,
    RandomPolicy,
    make_baseline,
)

__all__ = [
    "A2CConfig",
    "MlpPolicy",
    "NonFiniteLoss",
    "ObsNormalizer",
    "RolloutBatch",
    "TrainStats",
    "UpdateStats",
    "a2c_loss_and_grad",
    "a2c_train",
    "a2c_update",
    "load_checkpoint",
    "save_checkpoint",
    "MlpParams",
    "ShapeMismatch",
    "init_mlp",
    "mlp_backward",
    "mlp_forward",
    "BASELINE_POLICIES",
    "BuyAndHoldPolicy",
    "HoldPolicy",
    "MomentumPolicy",
    "RandomPolicy",
    "make_baseline",
]
