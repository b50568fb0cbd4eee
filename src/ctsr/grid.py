"""Hyperparameter grid search over (n, l, f, k) combinations.

Each combination trains with the caller's epoch budget (a config asks for
20% of the base config's epochs by default) and is ranked by final
validation PSNR, descending, with ties broken by the canonical config
serialization.  A combination fails for one of two reasons, and is then
recorded as failed and ranked last:

* its volumes cannot be paired: ``make_pairs`` raises a ValueError for a
  window deeper or a patch larger than a volume;
* its training diverges: ``train`` raises a `NonFiniteError`.

Any other exception, a bare ValueError from ``train`` included, is a defect:
it aborts the sweep, and the combination is not recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

from .model import ModelConfig, train
from .pipeline import make_pairs
from .tensor import NonFiniteError
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
        """Cartesian product; every combination must be a valid ModelConfig,
        and no two may share a key, which would train and rank it twice."""
        configs = {}
        for n, l, f, k in product(
            self.feature_depths, self.conv_layers, self.filter_configs, self.kernels
        ):
            cfg = replace(base, feature_depth=n, conv_layers=l, filters=f, kernel=k)
            problems = cfg.problems()
            if problems:
                raise ValueError(
                    f"grid combination {cfg.key()} is invalid: " + "; ".join(problems)
                )
            if cfg.key() in configs:
                raise ValueError(f"grid combination {cfg.key()} is repeated")
            configs[cfg.key()] = cfg
        return list(configs.values())


def default_epoch_budget(base_cfg: ModelConfig) -> int:
    """Epochs a combination trains by default: 20% of the base config's,
    at least one."""
    return max(1, base_cfg.epochs // 5)


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
    *,
    epoch_budget: int,
    done: dict[str, tuple[float | None, str]] | None = None,
    on_result=None,
) -> list[GridResult]:
    """Train every combination and rank by validation PSNR.

    Volumes are (scan_id, volume) pairs; training pairs are rebuilt per
    window depth n, which changes the dataset.  A combination whose key is
    in ``done`` (a resume journal: key -> (PSNR or None, error)) is not
    re-run; its journaled result is ranked with the fresh ones.
    ``on_result`` is invoked with each fresh GridResult as soon as its run
    finishes (for journaling).
    """
    done = done or {}
    pair_cache: dict[tuple, tuple[list, list]] = {}
    results = []
    for cfg in space.combinations(base_cfg):
        if cfg.key() in done:
            psnr, error = done[cfg.key()]
            results.append(GridResult(cfg, psnr, error or None))
            continue
        run_cfg = replace(cfg, epochs=epoch_budget)
        cache_key = (run_cfg.feature_depth, run_cfg.scale, run_cfg.patch_hw)
        try:
            if cache_key not in pair_cache:
                tp = [p for sid, v in train_volumes for p in make_pairs(v, run_cfg, sid)]
                vp = [p for sid, v in val_volumes for p in make_pairs(v, run_cfg, sid)]
                pair_cache[cache_key] = (tp, vp)
        except ValueError as err:  # its volumes cannot be paired
            result = GridResult(cfg, None, f"{type(err).__name__}: {err}")
        else:
            try:
                _, report = train(run_cfg, *pair_cache[cache_key])
                result = GridResult(cfg, report.val_psnrs[-1])
            except NonFiniteError as err:  # its training diverged
                result = GridResult(cfg, None, f"{type(err).__name__}: {err}")
        results.append(result)
        if on_result is not None:
            on_result(result)
    return rank_results(results)


def rank_results(results: list[GridResult]) -> list[GridResult]:
    """Successful runs by PSNR descending (ties by config key), failures last."""
    return sorted(results, key=lambda r: (r.val_psnr is None, -(r.val_psnr or 0.0),
                                          r.config.key()))
