"""Interactive recommendation simulator and benchmark suite.

Episodes replay logged explicit ratings user by user; the agent keeps a
low-dimensional collaborative-filtering state updated online and learns a
Q-network over it, compared against random, popularity, impact, online-MF,
LinUCB and raw-state DQN policies under a shared offline protocol.
"""

from .agent import ReplayMemory, TrainConfig, Transition, train_cfrl
from .dataset import RatingDataset, Split, dataset_stats, load_ratings, make_splits
from .env import InteractiveEnv, TaskMode
from .evaluate import benchmark, evaluate_policy, paired_t_test
from .mf import MfModel, init_user_state, online_update, predict, pretrain

__all__ = [
    "InteractiveEnv",
    "MfModel",
    "RatingDataset",
    "ReplayMemory",
    "Split",
    "TaskMode",
    "TrainConfig",
    "Transition",
    "benchmark",
    "dataset_stats",
    "evaluate_policy",
    "init_user_state",
    "load_ratings",
    "make_splits",
    "online_update",
    "paired_t_test",
    "predict",
    "pretrain",
    "train_cfrl",
]

__version__ = "0.1.0"
