"""Policy contract, deterministic baselines, and the actor-critic trainer.

The names live in the modules that define them: ``a2c`` (the trainer, its
config and checkpoints), ``mlp`` (the network) and ``policies`` (the
baselines)."""
