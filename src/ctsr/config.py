"""Flat `key = value` run configuration files.

One option per line, `#` starts a comment, keys are snake_case.  Parsing
validates everything at once so a bad file reports every problem in a
single pass instead of one error per run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .model import ModelConfig


class ConfigError(ValueError):
    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("config errors: " + "; ".join(self.problems))


def parse_config_file(path) -> dict[str, str]:
    text = Path(path).read_text(encoding="utf-8")
    values: dict[str, str] = {}
    problems = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, val = (part.strip() for part in line.split("=", 1))
        if not key:
            problems.append(f"line {lineno}: empty key")
        elif key in values:
            problems.append(f"line {lineno}: duplicate key {key!r}")
        else:
            values[key] = val
    if problems:
        raise ConfigError(problems)
    return values


def _parse_int(raw: str, key: str, problems: list[str]) -> int:
    try:
        return int(raw)
    except ValueError:
        problems.append(f"{key}: expected an integer, got {raw!r}")
        return 0


def _parse_float(raw: str, key: str, problems: list[str]) -> float:
    try:
        return float(raw)
    except ValueError:
        problems.append(f"{key}: expected a number, got {raw!r}")
        return 0.0


def _parse_ints(raw: str, key: str, problems: list[str]) -> tuple[int, ...]:
    try:
        return tuple(int(v.strip()) for v in raw.split(",") if v.strip())
    except ValueError:
        problems.append(f"{key}: expected comma-separated integers, got {raw!r}")
        return ()


def _parse_filter_configs(raw: str, key: str, problems: list[str]) -> list[tuple[int, ...]]:
    configs = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if chunk:
            configs.append(_parse_ints(chunk, key, problems))
    return configs


# a model key's parser is picked by the type of its ModelConfig default
_PARSERS = {int: _parse_int, float: _parse_float, tuple: _parse_ints}


@dataclass
class RunConfig:
    data_dir: str
    out_dir: str
    model: ModelConfig
    val_pair_cap: int = 0
    # grid-search candidates; empty lists fall back to the base model value
    grid_feature_depths: list[int] = None
    grid_conv_layers: list[int] = None
    grid_filter_configs: list[tuple[int, ...]] = None
    grid_kernels: list[int] = None
    grid_epochs: int = 0  # 0: grid.default_epoch_budget


def load_run_config(path, *, grid: bool = False) -> RunConfig:
    """Validate a train/gridsearch config file; raises ConfigError listing
    every unknown key, missing key, bad value, and model-invariant violation."""
    values = parse_config_file(path)
    problems: list[str] = []
    model_fields = fields(ModelConfig)
    known = {"data_dir", "out_dir"} | {f.name for f in model_fields}
    if grid:
        known |= {f.name for f in fields(RunConfig) if f.name.startswith("grid_")}
    else:
        known.add("val_pair_cap")
    for key in sorted(values):
        if key not in known:
            problems.append(f"unknown key {key!r}")
    for req in ("data_dir", "out_dir"):
        if not values.get(req):
            problems.append(f"missing required key {req!r}")

    def get(key: str) -> str:
        return values.get(key, "")

    value_problems: list[str] = []
    model = ModelConfig(**{
        f.name: _PARSERS[type(f.default)](values[f.name], f.name, value_problems)
        for f in model_fields
        if f.name in values
    })
    problems.extend(value_problems)
    if not value_problems:
        # values parsed; report every model-invariant violation too
        problems.extend(model.problems())
    cfg = RunConfig(
        data_dir=values.get("data_dir", ""),
        out_dir=values.get("out_dir", ""),
        model=model,
    )
    if grid:
        cfg.grid_feature_depths = list(
            _parse_ints(get("grid_feature_depths"), "grid_feature_depths", problems)
        ) or [model.feature_depth]
        cfg.grid_conv_layers = list(
            _parse_ints(get("grid_conv_layers"), "grid_conv_layers", problems)
        ) or [model.conv_layers]
        cfg.grid_filter_configs = _parse_filter_configs(
            get("grid_filter_configs"), "grid_filter_configs", problems
        ) or [model.filters]
        cfg.grid_kernels = list(
            _parse_ints(get("grid_kernels"), "grid_kernels", problems)
        ) or [model.kernel]
        cfg.grid_epochs = _parse_int(values.get("grid_epochs", "0"), "grid_epochs", problems)
        if cfg.grid_epochs < 0:
            problems.append(f"grid_epochs: must be >= 0, got {cfg.grid_epochs}")
    else:
        cfg.val_pair_cap = _parse_int(values.get("val_pair_cap", "0"), "val_pair_cap", problems)
        if cfg.val_pair_cap < 0:
            problems.append(f"val_pair_cap: must be >= 0, got {cfg.val_pair_cap}")
    if problems:
        raise ConfigError(problems)
    return cfg
