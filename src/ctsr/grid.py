"""Hyperparameter grid search over (n, l, f, k) combinations.

Each combination trains with a shortened epoch budget (default 20% of the
base config's epochs) and is ranked by final validation PSNR, descending,
with ties broken by the canonical config serialization.  A failing
combination is recorded and skipped rather than aborting the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

from .model import ModelConfig, train
from .pipeline import make_pairs
from .volume import Volume


@dataclass
class GridSpace:
    feature_depths: list[int]
    conv_layers: list[int]
    filter_configs: list[tuple[int, ...]]
    kernels: list[int]

    def __post_init__(self):
        self.filter_configs = [tuple(f) for f in self.filter_configs]
        if not (self.feature_depths and self.conv_layers and self.filter_configs
                and self.kernels):
            raise ValueError("every grid dimension needs at least one candidate")

    def combinations(self, base: ModelConfig) -> list[ModelConfig]:
        """Cartesian product; every combination must be a valid ModelConfig."""
        configs = []
        for n, l, f, k in product(
            self.feature_depths, self.conv_layers, self.filter_configs, self.kernels
        ):
            cfg = replace(base, feature_depth=n, conv_layers=l, filters=f, kernel=k)
            problems = cfg.problems()
            if problems:
                raise ValueError(
                    f"grid combination {cfg.key()} is invalid: " + "; ".join(problems)
                )
            configs.append(cfg)
        return configs


@dataclass
class GridResult:
    config: ModelConfig
    val_psnr: float | None  # None when the run failed
    error: str | None = None


def grid_search(
    space: GridSpace,
    base_cfg: ModelConfig,
    train_volumes: list[tuple[str, Volume]],
    val_volumes: list[tuple[str, Volume]],
    epoch_budget: int | None = None,
    skip_keys: set[str] | None = None,
    on_result=None,
) -> list[GridResult]:
    """Train every combination and rank by validation PSNR.

    Volumes are (scan_id, volume) pairs; training pairs are rebuilt per
    combination because the window depth n changes the dataset.  Keys in
    ``skip_keys`` (e.g. from a resume journal) are not re-run and are not
    part of the returned ranking; ``on_result`` is invoked with each
    GridResult as soon as its run finishes (for journaling).
    """
    budget = epoch_budget if epoch_budget is not None else max(1, base_cfg.epochs // 5)
    combos = space.combinations(base_cfg)
    pair_cache: dict[tuple, tuple[list, list]] = {}
    results = []
    for cfg in combos:
        if skip_keys and cfg.key() in skip_keys:
            continue
        run_cfg = replace(cfg, epochs=budget)
        try:
            cache_key = (run_cfg.feature_depth, run_cfg.scale, run_cfg.patch_hw)
            if cache_key not in pair_cache:
                tp = [p for sid, v in train_volumes for p in make_pairs(v, run_cfg, sid)]
                vp = [p for sid, v in val_volumes for p in make_pairs(v, run_cfg, sid)]
                pair_cache[cache_key] = (tp, vp)
            train_pairs, val_pairs = pair_cache[cache_key]
            _, report = train(run_cfg, train_pairs, val_pairs)
            result = GridResult(cfg, report.val_psnrs[-1])
        except Exception as err:  # noqa: BLE001 - one bad combo must not kill the sweep
            result = GridResult(cfg, None, f"{type(err).__name__}: {err}")
        results.append(result)
        if on_result is not None:
            on_result(result)
    return rank_results(results)


def rank_key(config_key: str, val_psnr: float | None) -> tuple:
    """Sort key of the ranking: successful runs by PSNR descending, ties by
    config key, then failed runs (PSNR None) by config key."""
    if val_psnr is None:
        return (1, 0.0, config_key)
    return (0, -val_psnr, config_key)


def rank_results(results: list[GridResult]) -> list[GridResult]:
    """Successful runs by PSNR descending (ties by config key), failures last."""
    return sorted(results, key=lambda r: rank_key(r.config.key(), r.val_psnr))
