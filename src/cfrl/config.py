"""Run configuration: one INI file drives ingestion, training and evaluation.

Flags override file values; every command writes the fully resolved config
next to its outputs so a run is reproducible from that file plus the raw
dataset. All randomness flows from the single [run] seed through labeled
sub-seeds (see seeding.derive_seed).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
from pathlib import Path

from .agent import TrainConfig
from .env import TaskMode
from .methods import METHODS
from .persist import atomic_text

_TASK_NAMES = {
    "task1": TaskMode.TASK_I,
    "task2": TaskMode.TASK_II,
}


def task_mode(name: str) -> TaskMode:
    try:
        return _TASK_NAMES[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown task {name!r}; expected one of {sorted(_TASK_NAMES)}") from None


@dataclass
class RunConfig:
    # [run]
    seed: int = 0
    out: str = "runs/latest"
    # [data]
    data_path: str = ""
    data_format: str = "tab"
    dataset_name: str = "dataset"
    # [split]
    split_count: int = 10
    test_fraction: float = 0.1
    min_ratings: int = 100
    # [mf]
    mf_dim: int = 16
    mf_reg: float = 0.01
    mf_lr: float = 0.01
    mf_epochs: int = 30
    # [agent]
    episodes: int = 20000
    horizon: int = 40
    gamma: float = 0.9
    epsilon: float = 0.1
    q_lr: float = 0.001
    sync_period: int = 500
    batch_size: int = 32
    replay_capacity: int = 100000
    hidden: tuple = (64,)
    activation: str = "tanh"
    task: str = "task1"
    checkpoint_every: int = 0
    # [eval]
    eval_tasks: tuple = ("task1", "task2")
    methods: tuple = tuple(METHODS)
    linucb_alpha: float = 1.0
    jobs: int = 1

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            episodes=self.episodes,
            horizon=self.horizon,
            gamma=self.gamma,
            epsilon=self.epsilon,
            q_lr=self.q_lr,
            sync_period=self.sync_period,
            batch_size=self.batch_size,
            replay_capacity=self.replay_capacity,
            hidden_sizes=tuple(self.hidden),
            activation=self.activation,
            task=task_mode(self.task),
            seed=self.seed,
        )


# section -> {file key: dataclass field}
_LAYOUT = {
    "run": {"seed": "seed", "out": "out"},
    "data": {"path": "data_path", "format": "data_format", "name": "dataset_name"},
    "split": {
        "count": "split_count",
        "test_fraction": "test_fraction",
        "min_ratings": "min_ratings",
    },
    "mf": {"dim": "mf_dim", "reg": "mf_reg", "lr": "mf_lr", "epochs": "mf_epochs"},
    "agent": {
        "episodes": "episodes",
        "horizon": "horizon",
        "gamma": "gamma",
        "epsilon": "epsilon",
        "q_lr": "q_lr",
        "sync_period": "sync_period",
        "batch_size": "batch_size",
        "replay_capacity": "replay_capacity",
        "hidden": "hidden",
        "activation": "activation",
        "task": "task",
        "checkpoint_every": "checkpoint_every",
    },
    "eval": {
        "tasks": "eval_tasks",
        "methods": "methods",
        "linucb_alpha": "linucb_alpha",
        "jobs": "jobs",
    },
}

_TUPLE_FIELDS = {"hidden", "eval_tasks", "methods"}


def _parse_value(field_name: str, text: str, py_type):
    text = text.strip()
    if field_name == "hidden":
        return tuple(int(x) for x in text.split(",") if x.strip())
    if field_name in _TUPLE_FIELDS:
        return tuple(x.strip() for x in text.split(",") if x.strip())
    if py_type is int:
        return int(text)
    if py_type is float:
        return float(text)
    return text


def load_config(path) -> RunConfig:
    """Read an INI config; unknown keys are an error, missing keys default.
    A file that is not valid INI, or a value that does not parse, raises a
    ValueError naming the file (and the key)."""
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            message = " ".join(str(exc).split())   # configparser's spans several lines
            raise ValueError(f"{path}: not a valid INI config: {message}") from None
    cfg = RunConfig()
    types = {f.name: type(getattr(cfg, f.name)) for f in fields(cfg)}
    for section in parser.sections():
        if section not in _LAYOUT:
            raise ValueError(f"{path}: unknown config section [{section}]")
        for key, text in parser.items(section):
            if key not in _LAYOUT[section]:
                raise ValueError(f"{path}: unknown key {key!r} in section [{section}]")
            field_name = _LAYOUT[section][key]
            try:
                setattr(cfg, field_name, _parse_value(field_name, text, types[field_name]))
            except ValueError as exc:
                raise ValueError(f"{path}: [{section}] {key}: {exc}") from None
    return cfg


def dump_config(cfg: RunConfig) -> str:
    lines = []
    for section, mapping in _LAYOUT.items():
        lines.append(f"[{section}]")
        for key, field_name in mapping.items():
            value = getattr(cfg, field_name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def write_resolved(cfg: RunConfig, out_dir) -> Path:
    """Record the effective configuration next to the run's outputs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "config.resolved.ini"
    with atomic_text(path) as fh:
        fh.write(dump_config(cfg))
    return path
