"""Run configuration: one INI file drives ingestion, training and evaluation.

RunConfig is the one place that states a run's settings and their defaults.
Its `[split]`, `[mf]` and `[agent]` sections are the dataclasses their readers
take: a dataset.SplitConfig (make_splits), an mf.MfConfig (mf.pretrain) and an
agent.TrainConfig (the learners), whose own defaults stand except for the
episode budget; each is checked by its `validate` when the file loads. Every
layer below reads its settings from the RunConfig it is given. Flags override
file values; every command writes the fully resolved config next to its
outputs so a run is reproducible from that file plus the raw dataset. All
randomness flows from the single [run] seed through labeled sub-seeds (see
seeding.derive_seed).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .agent import TrainConfig
from .dataset import SplitConfig
from .env import TaskMode
from .methods import METHODS
from .mf import MfConfig
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
    split: SplitConfig = field(default_factory=SplitConfig)
    mf: MfConfig = field(default_factory=MfConfig)
    # [agent]: its seed is the [run] seed (train_config), or one derived from it per grid cell
    agent: TrainConfig = field(default_factory=lambda: TrainConfig(episodes=20000))
    checkpoint_every: int = 0   # read by `cfrl train` alone
    # [eval]
    eval_tasks: tuple = (TaskMode.TASK_I, TaskMode.TASK_II)
    methods: tuple = tuple(METHODS)
    linucb_alpha: float = 1.0
    jobs: int = 1

    def train_config(self) -> TrainConfig:
        return replace(self.agent, seed=self.seed)


# section -> {file key: RunConfig field, or <section>.<field> of its dataclass}
_LAYOUT = {
    "run": {"seed": "seed", "out": "out"},
    "data": {"path": "data_path", "format": "data_format", "name": "dataset_name"},
    "split": {f.name: f"split.{f.name}" for f in fields(SplitConfig)},
    "mf": {f.name: f"mf.{f.name}" for f in fields(MfConfig)},
    "agent": {
        "episodes": "agent.episodes",
        "horizon": "agent.horizon",
        "gamma": "agent.gamma",
        "epsilon": "agent.epsilon",
        "q_lr": "agent.q_lr",
        "sync_period": "agent.sync_period",
        "batch_size": "agent.batch_size",
        "replay_capacity": "agent.replay_capacity",
        "hidden": "agent.hidden_sizes",
        "activation": "agent.activation",
        "task": "agent.task",
        "checkpoint_every": "checkpoint_every",
    },
    "eval": {
        "tasks": "eval_tasks",
        "methods": "methods",
        "linucb_alpha": "linucb_alpha",
        "jobs": "jobs",
    },
}


def _owner(cfg: RunConfig, path: str) -> tuple:
    """(object, attribute) that a _LAYOUT field path names in `cfg`."""
    head, _, name = path.rpartition(".")
    return (getattr(cfg, head) if head else cfg), name


def _parse_value(text: str, like):
    """`text` read as a value of the type of `like`, the field's default; a
    tuple's items are comma-separated, and a task is parsed by task_mode."""
    text = text.strip()
    if isinstance(like, tuple):
        return tuple(_parse_value(x, like[0]) for x in text.split(",") if x.strip())
    if isinstance(like, TaskMode):
        return task_mode(text)
    return type(like)(text)


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return str(value.value if isinstance(value, TaskMode) else value)


def load_config(path) -> RunConfig:
    """Read an INI config; unknown keys are an error, missing keys default.
    A file that is not valid INI, a value that does not parse (an unknown
    task name among them) or a [split], [mf] or [agent] section that its
    dataclass's `validate` refuses raises a ValueError naming the file (and
    the section and key), and so does a [DEFAULT] section, which
    configparser would otherwise merge into every section."""
    # no header names the empty section, so [DEFAULT] reads as an unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            message = " ".join(str(exc).split())   # configparser's spans several lines
            raise ValueError(f"{path}: not a valid INI config: {message}") from None
    cfg = RunConfig()
    for section in parser.sections():
        if section not in _LAYOUT:
            raise ValueError(f"{path}: unknown config section [{section}]")
        for key, text in parser.items(section):
            if key not in _LAYOUT[section]:
                raise ValueError(f"{path}: unknown key {key!r} in section [{section}]")
            owner, name = _owner(cfg, _LAYOUT[section][key])
            try:
                setattr(owner, name, _parse_value(text, getattr(owner, name)))
            except ValueError as exc:
                raise ValueError(f"{path}: [{section}] {key}: {exc}") from None
    for section in ("split", "mf", "agent"):
        try:
            getattr(cfg, section).validate()
        except ValueError as exc:   # its message starts with the field's name
            raise ValueError(f"{path}: [{section}] {exc}") from None
    return cfg


def dump_config(cfg: RunConfig) -> str:
    lines = []
    for section, mapping in _LAYOUT.items():
        lines.append(f"[{section}]")
        for key, path in mapping.items():
            lines.append(f"{key} = {_format_value(getattr(*_owner(cfg, path)))}")
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
