"""Run configuration: one INI file drives ingestion, training and evaluation.

RunConfig is the one place that states a run's settings, their defaults and
their domains. Its `[split]`, `[mf]` and `[agent]` sections are the
dataclasses their readers take: a dataset.SplitConfig (make_splits), an
mf.MfConfig (mf.pretrain) and an agent.TrainConfig (the learners), whose own
defaults stand except for the episode budget. RunConfig.validate checks them
all; a refusal names the INI key, or the flag, of the value it refuses.
Every layer below reads its settings from the RunConfig it is given.
Flags override file values; every command writes the fully resolved config
next to its outputs so a run is reproducible from that file plus the raw
dataset. All randomness flows from the single [run] seed through labeled
sub-seeds (see seeding.derive_seed).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .agent import TrainConfig
from .dataset import FORMAT_SEPARATORS, SplitConfig
from .env import TaskMode
from .errors import ValidationError
from .methods import METHODS
from .mf import MfConfig
from .persist import atomic_text


def task_mode(name: str) -> TaskMode:
    try:
        return TaskMode(name.strip().lower())
    except ValueError:
        expected = sorted(task.value for task in TaskMode)
        raise ValueError(f"unknown task {name!r}; expected one of {expected}") from None


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

    def validate(self) -> None:
        """Refuse a value outside its domain, each section's by its dataclass's
        `validate`: a ValueError (ValidationError for an unknown method) whose
        message starts with the field's _LAYOUT path, such as `agent.hidden_sizes`."""
        for section in ("split", "mf", "agent"):
            try:
                getattr(self, section).validate()
            except ValueError as exc:   # its message starts with the field's name
                raise ValueError(f"{section}.{exc}") from None
        if self.data_format not in FORMAT_SEPARATORS:
            raise ValueError(f"data_format must be one of {sorted(FORMAT_SEPARATORS)}, "
                             f"got {self.data_format!r}")
        if not self.methods:
            raise ValueError("methods is empty: no methods requested")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValidationError(f"methods has unknown methods {unknown}; "
                                  f"known: {tuple(METHODS)}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, not {self.jobs}")
        if not (math.isfinite(self.linucb_alpha) and self.linucb_alpha >= 0):
            raise ValueError(f"linucb_alpha must be finite and >= 0, got {self.linucb_alpha}")


def reworded(exc: Exception, names: dict) -> Exception:
    """A RunConfig.validate refusal, of the same type, whose message names
    the refused field as `names` does (by its _LAYOUT path)."""
    field_path, _, rest = str(exc).partition(" ")
    return type(exc)(f"{names.get(field_path, field_path)} {rest}")


# section -> {file key: RunConfig field, or <section>.<field> of its dataclass}
_LAYOUT = {
    "run": {"seed": "seed", "out": "out"},
    "data": {"path": "data_path", "format": "data_format", "name": "dataset_name"},
    "split": {f.name: f"split.{f.name}" for f in fields(SplitConfig)},
    "mf": {f.name: f"mf.{f.name}" for f in fields(MfConfig)},
    "agent": {
        **{("hidden" if f.name == "hidden_sizes" else f.name): f"agent.{f.name}"
           for f in fields(TrainConfig) if f.name != "seed"},   # the seed is [run]'s
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
    task name among them) or a value that RunConfig.validate refuses raises
    a ValueError (a ValidationError for an unknown method) naming the file
    (and the section and key), and so does a [DEFAULT] section, which
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
    try:
        cfg.validate()
    except (ValueError, ValidationError) as exc:
        raise reworded(exc, {field_path: f"{path}: [{section}] {key}"
                             for section, keys in _LAYOUT.items()
                             for key, field_path in keys.items()}) from None
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
