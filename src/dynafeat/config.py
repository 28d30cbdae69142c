"""Pipeline configuration and the flat key=value file format.

The file serialization is canonical (fixed key order, shortest float
repr), so serialize -> parse -> serialize is a fixed point and config
files diff cleanly. Command-line flags override file values. The same
key=value reader parses pipeline and synthetic-scene config files.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

from ._kernels import MAX_FAST_THRESHOLD
from .errors import ConfigError, decode_error_line
from .frontend import DEFAULT_DESCRIPTOR_SEED, DEFAULT_FAST_THRESHOLD, DEFAULT_MAX_FEATURES
from .stats import DEFAULT_K, support_threshold

_INPUT_MODES = ("features", "images")
DEFAULT_SEARCH_MARGIN = 30.0   # px added to each half side of a search region


def parse_bool(raw: str) -> bool:
    """true/1/yes or false/0/no, any case; ValueError otherwise."""
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(raw)


# field type name -> converter of a raw value; ValueError marks a bad value
_CONVERTERS = {"bool": parse_bool, "int": int, "float": float, "str": str}
# field type name -> the values a field takes (bool only for bool fields)
_VALUE_TYPES = {"bool": bool, "int": numbers.Integral, "float": numbers.Real, "str": str}


def parse_key_values(text: str, converters: dict) -> dict:
    """Parse ``key=value`` lines, skipping blanks and ``#`` comments.

    ``converters`` maps each known key to the callable that converts its
    raw value. Unknown keys, lines without ``=`` and values the converter
    rejects raise ConfigError with the line number.
    """
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
        if key not in converters:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = converters[key](raw)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value {raw!r} for {key}") from None
    return values


def read_key_values(path, converters: dict) -> dict:
    """parse_key_values over a file; an unreadable or non-ASCII file is a ConfigError."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path}: line {decode_error_line(exc)}: "
                          "non-ASCII byte") from None
    return parse_key_values(text, converters)


@dataclass
class PipelineConfig:
    window: float = 30.0           # side of the grouping neighbor square, px
    min_group: int = 5
    max_group: int = 35
    max_bbox_side: float = 90.0
    k: float = DEFAULT_K
    search_margin: float = DEFAULT_SEARCH_MARGIN
    max_features: int = DEFAULT_MAX_FEATURES
    fast_threshold: int = DEFAULT_FAST_THRESHOLD
    input_mode: str = "features"
    output_dir: str = "out"
    timing: bool = True
    seed: int = DEFAULT_DESCRIPTOR_SEED

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _VALUE_TYPES[f.type]) \
                    or (isinstance(value, bool) and f.type != "bool"):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            if f.type != "bool":  # builtin type, so to_text writes what load reads
                setattr(self, f.name, _CONVERTERS[f.type](value))
        # chained comparisons are false for nan, so nan fails each check
        if not 0 < self.window < math.inf:
            raise ConfigError("window must be positive and finite")
        if not 0 < self.min_group <= self.max_group:
            raise ConfigError("need 0 < min_group <= max_group")
        if not self.window <= self.max_bbox_side < math.inf:
            raise ConfigError("max_bbox_side must be finite and at least one window")
        if not 0 < self.k < math.inf:
            raise ConfigError("k must be positive and finite")
        # a score is at most n_eff <= max_group, and score > tau accepts
        if support_threshold(self.max_group, self.k) >= self.max_group:
            raise ConfigError("k * sqrt(max_group) >= max_group: no pair can be accepted")
        if not 0 < self.search_margin < math.inf:
            raise ConfigError("search_margin must be positive and finite")
        if self.max_features < 1:
            raise ConfigError("max_features must be >= 1")
        if not 1 <= self.fast_threshold <= MAX_FAST_THRESHOLD:
            # on 8-bit pixels a larger threshold detects nothing
            raise ConfigError(f"fast_threshold must be in 1..{MAX_FAST_THRESHOLD}")
        if self.input_mode not in _INPUT_MODES:
            raise ConfigError(f"input_mode must be one of {_INPUT_MODES}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

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
    def load(cls, path) -> "PipelineConfig":
        return cls(**read_key_values(path, CONFIG_CONVERTERS))

    def replace(self, **overrides) -> "PipelineConfig":
        return dataclasses.replace(self, **overrides)


# key -> converter of every PipelineConfig field (annotations are type names)
CONFIG_CONVERTERS = {f.name: _CONVERTERS[f.type] for f in dataclasses.fields(PipelineConfig)}
