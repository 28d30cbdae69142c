"""Pipeline configuration and its flat key=value file format.

The file serialization is canonical (fixed key order, shortest float
repr), so serialize -> parse -> serialize is a fixed point and config
files diff cleanly. Command-line flags override file values.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError
from .grouping import GroupingConfig

_INPUT_MODES = ("features", "images")


def parse_bool(raw: str) -> bool:
    """true/1/yes or false/0/no, any case; ValueError otherwise."""
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(raw)


@dataclass
class PipelineConfig:
    window: float = 30.0
    min_group: int = 5
    max_group: int = 35
    max_bbox_side: float = 90.0
    k: float = 2.0
    search_margin: float = 30.0
    max_features: int = 7000
    fast_threshold: int = 5
    input_mode: str = "features"
    output_dir: str = "out"
    timing: bool = True
    seed: int = 42

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        try:
            self.grouping_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not 0 < self.k < math.inf:
            raise ConfigError("k must be positive and finite")
        if not 0 < self.search_margin < math.inf:
            raise ConfigError("search_margin must be positive and finite")
        if self.max_features < 1:
            raise ConfigError("max_features must be >= 1")
        if self.fast_threshold < 1:
            raise ConfigError("fast_threshold must be >= 1")
        if self.input_mode not in _INPUT_MODES:
            raise ConfigError(f"input_mode must be one of {_INPUT_MODES}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    def grouping_config(self) -> GroupingConfig:
        return GroupingConfig(window=self.window, min_group=self.min_group,
                              max_group=self.max_group, max_bbox_side=self.max_bbox_side,
                              rng_seed=self.seed)

    def to_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            lines.append(f"{f.name}={text}")
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())

    @classmethod
    def from_text(cls, text: str) -> "PipelineConfig":
        fields = {f.name: f for f in dataclasses.fields(cls)}
        values: dict = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in fields:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            ftype = fields[key].type
            try:
                if ftype == "bool":
                    values[key] = parse_bool(raw)
                elif ftype == "int":
                    values[key] = int(raw)
                elif ftype == "float":
                    values[key] = float(raw)
                else:
                    values[key] = raw
            except ValueError:
                raise ConfigError(f"line {lineno}: bad value {raw!r} for {key}") from None
        return cls(**values)

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        try:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        return cls.from_text(text)

    def replace(self, **overrides) -> "PipelineConfig":
        return dataclasses.replace(self, **overrides)
