"""The four workloads of the ctsr benchmark.

Every input volume comes from ``pipeline.gen_synthetic``.  The volumes are
generated in a child process and reach this process as ``.svol`` bytes, the
way a user's files would, so that the generator's temporaries do not count
toward this process's peak RSS.

The volumes a workload times are seeded from the workload seed.  Quality is
measured on a fixed fold, generated from FOLD_SEED whatever the workload
seed, and the model seed is the config's: the PSNR of one synthetic volume
to the next varies by 8-13%, and that of a network after a few SGD steps
from one initialisation to the next by far more, which would drown the
change that quality_db is there to catch.

A workload offers:

* ``setup()``: the work a user pays before the first useful step;
* ``warm_up()``: one short call through the measured path; infer-slice and
  eval-baseline measure their quality on the fixed fold here;
* ``work()``: one measured round, the only part that is timed;
* ``check(out)``: correctness checks on that round's output, returning a
  ``Round``.

``ops_per_round`` is the number of operations (train steps, grid combos or
output slices) one round attempts; a round that raises fails all of them.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ctsr import grid, metrics, model, pipeline, resample, volume
from ctsr.model import ModelConfig
from ctsr.tensor import Rng, Tensor, derive_seed
from ctsr.volume import Volume

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "infer_paper.ckpt"
CHECKPOINT_INFO = HERE / "infer_paper.json"

FOLD_SEED = 20180718

# the 3DECNN configuration of the paper; epochs=1 makes one model.train call
# one pass over the round's pairs
PAPER = ModelConfig(
    feature_depth=5,
    conv_layers=3,
    filters=(64, 64, 32, 32, 1),
    kernel=3,
    scale=3,
    batch_size=16,
    patch_hw=32,
    epochs=1,
)


@dataclass
class Round:
    items: int  # training pairs or output slices the round produced
    attempted: int
    failed: int
    quality_db: float


def generate_inputs(workload: str, seed: int, smoke: bool) -> dict[str, Volume]:
    """Seeded input volumes of a workload, generated by a child process
    (``python3 -m workloads``, the ``__main__`` block below)."""
    proc = subprocess.run(
        [sys.executable, "-m", "workloads", workload, str(seed), "smoke" if smoke else "full"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(HERE.parent / "src")])),
        capture_output=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"input generation failed:\n{proc.stderr.decode()}")
    # the child is this file, so its pickle is trusted
    blobs = pickle.loads(proc.stdout)
    return {name: volume.deserialize_volume(b) for name, b in blobs.items()}


def _spheres(seed: int, tag: int, dims) -> Volume:
    return pipeline.gen_synthetic("spheres", dims, derive_seed(seed, tag))


def _spread(items: list, count: int) -> list:
    """``count`` items evenly spaced over the list, so every slice is sampled."""
    idx = np.unique(np.linspace(0, len(items) - 1, count).astype(int))
    return [items[i] for i in idx]


def _all_finite(values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


class TrainPaper:
    """``model.train`` at the paper config on 32x32 LR patches, batch 16:
    seeded training pairs, validation on the fixed fold."""

    def __init__(self, seed: int, smoke: bool = False):
        self.cfg = replace(PAPER, patch_hw=8 if smoke else PAPER.patch_hw)
        self.n_train, self.n_val = (16, 4) if smoke else (48, 16)
        self.ops_per_round = math.ceil(self.n_train / self.cfg.batch_size)
        self.vols = generate_inputs("train-paper", seed, smoke)
        self._checksum = None

    @staticmethod
    def volumes(seed: int, smoke: bool) -> dict[str, Volume]:
        dims = (16, 48, 48) if smoke else (16, 192, 192)
        return {"train": _spheres(seed, 1, dims), "val": _spheres(FOLD_SEED, 2, dims)}

    def setup(self) -> None:
        tp = pipeline.make_pairs(self.vols["train"], self.cfg, "train")
        vp = pipeline.make_pairs(self.vols["val"], self.cfg, "val")
        model.build_model(self.cfg, Rng(self.cfg.seed))
        self.train_pairs = _spread(tp, self.n_train)
        self.val_pairs = _spread(vp, self.n_val)

    def warm_up(self) -> None:
        model.train(self.cfg, self.train_pairs[: self.cfg.batch_size], self.val_pairs[:2])

    def work(self):
        return model.train(self.cfg, self.train_pairs, self.val_pairs)

    def check(self, out) -> Round:
        params, report = out
        # reruns of one config must give the same parameters bit for bit
        if self._checksum is None:
            self._checksum = params.checksum()
        ok = (
            _all_finite(report.train_losses + report.val_psnrs)
            and params.checksum() == self._checksum
        )
        failed = 0 if ok else self.ops_per_round
        return Round(len(self.train_pairs), self.ops_per_round, failed, report.val_psnrs[-1])


class InferSlice:
    """``model.infer_volume`` at the default tile, 170x170 -> 510x510 slices,
    with the checkpoint committed next to this file."""

    DEPTH = 5

    def __init__(self, seed: int, smoke: bool = False):
        vols = generate_inputs("infer-slice", seed, smoke)
        self.hr = vols["hr"]
        self.lr_bytes = volume.serialize_volume(vols["lr"])
        self.expected_checksum = json.loads(CHECKPOINT_INFO.read_text())["checksum"]
        self.fold_hr, self.fold_lr = vols["fold_hr"], vols["fold_lr"]
        self.ops_per_round = self.DEPTH

    @classmethod
    def volumes(cls, seed: int, smoke: bool) -> dict[str, Volume]:
        def pair(seed, dims):
            hr = _spheres(seed, 3, dims)
            d0 = (dims[0] - cls.DEPTH) // 2
            hr = Volume(Tensor(hr.data.data[d0 : d0 + cls.DEPTH]), hr.spacing)
            return hr, resample.downsample_axial(hr, PAPER.scale)

        hr, lr = pair(seed, (16, 48, 48) if smoke else (16, 510, 510))
        fold_hr, fold_lr = pair(FOLD_SEED, (16, 48, 48) if smoke else (16, 192, 192))
        return {"hr": hr, "lr": lr, "fold_hr": fold_hr, "fold_lr": fold_lr}

    def setup(self) -> None:
        params = model.load_checkpoint(CHECKPOINT)
        if params.checksum() != self.expected_checksum:
            raise ValueError(
                f"{CHECKPOINT.name}: parameter checksum {params.checksum()} != "
                f"recorded {self.expected_checksum}"
            )
        self.params = params
        self.lr = volume.deserialize_volume(self.lr_bytes)

    def warm_up(self) -> None:
        sr = model.infer_volume(self.params, self.fold_lr)
        self.quality_db = metrics.psnr(sr.data, self.fold_hr.data, 1.0)

    def work(self):
        return model.infer_volume(self.params, self.lr)

    def check(self, sr: Volume) -> Round:
        out = sr.data.data
        ok = (
            out.shape == self.hr.shape
            and bool(np.isfinite(out).all())
            and float(out.min()) >= 0.0
            and float(out.max()) <= 1.0
        )
        failed = 0 if ok else self.ops_per_round
        return Round(out.shape[0], self.ops_per_round, failed, self.quality_db)


class EvalBaseline:
    """The path of ``simulate`` plus ``evaluate``: an ``.svol`` round trip,
    ``downsample_axial``, ``bicubic_upsample``, per-slice PSNR and SSIM of two
    reconstructions, and paired t-tests between them."""

    def __init__(self, seed: int, smoke: bool = False):
        vols = generate_inputs("eval-baseline", seed, smoke)
        self.hr_bytes = volume.serialize_volume(vols["hr"])
        self.fold_hr = vols["fold_hr"]
        self.ops_per_round = vols["hr"].shape[0]

    @staticmethod
    def volumes(seed: int, smoke: bool) -> dict[str, Volume]:
        return {
            "hr": _spheres(seed, 4, (16, 48, 48) if smoke else (16, 510, 510)),
            "fold_hr": _spheres(FOLD_SEED, 4, (16, 48, 48) if smoke else (16, 192, 192)),
        }

    def setup(self) -> None:
        self.hr = volume.deserialize_volume(self.hr_bytes)

    def warm_up(self) -> None:
        scores, _ = self._evaluate(self.fold_hr)
        self.quality_db = metrics.aggregate(scores["bicubic"]).psnr_mean

    def work(self):
        return self._evaluate(self.hr)

    @staticmethod
    def _evaluate(hr: Volume):
        r = PAPER.scale
        lr = resample.downsample_axial(hr, r)
        lr = volume.deserialize_volume(volume.serialize_volume(lr))
        bicubic = resample.bicubic_upsample(lr, r)
        bicubic = volume.deserialize_volume(volume.serialize_volume(bicubic)).data.data
        # second reconstruction for the t-test: pixel replication
        nearest = np.repeat(np.repeat(lr.data.data, r, axis=1), r, axis=2)
        scores = {}
        for name, rec in (("bicubic", bicubic), ("nearest", nearest)):
            scores[name] = [
                metrics.SliceSample(
                    str(i),
                    metrics.psnr(Tensor(rec[i]), Tensor(hr_slice), 1.0),
                    metrics.ssim(Tensor(rec[i]), Tensor(hr_slice)),
                )
                for i, hr_slice in enumerate(hr.data.data)
            ]
        ttests = [
            metrics.paired_t_test(
                [getattr(s, field) for s in scores["bicubic"]],
                [getattr(s, field) for s in scores["nearest"]],
            )
            for field in ("psnr", "ssim")
        ]
        return scores, ttests

    def check(self, out) -> Round:
        scores, ttests = out
        samples = scores["bicubic"] + scores["nearest"]
        ok = (
            all(len(s) == self.hr.shape[0] for s in scores.values())
            and _all_finite([s.psnr for s in samples])
            and all(-1.0 <= s.ssim <= 1.0 for s in samples)
            and all(0.0 <= t.p_value <= 1.0 and math.isfinite(t.mean_diff) for t in ttests)
        )
        failed = 0 if ok else self.ops_per_round
        return Round(self.hr.shape[0], self.ops_per_round, failed, self.quality_db)


class GridSweep:
    """``grid.grid_search`` with a one-epoch budget over a small non-paper
    space: r=2 so the deconv trim runs, k in {3, 5}, and narrow filters that
    take the few-output-channel conv path.  Seeded training volumes,
    validation on the fixed fold."""

    SPACE = grid.GridSpace(
        feature_depths=[3, 5],
        conv_layers=[2],
        filter_configs=[(16, 4, 4, 1), (8, 8, 4, 1)],
        kernels=[3, 5],
    )

    def __init__(self, seed: int, smoke: bool = False):
        self.base = ModelConfig(
            feature_depth=3,
            conv_layers=2,
            filters=(16, 4, 4, 1),
            kernel=3,
            scale=2,
            batch_size=16,
            patch_hw=8 if smoke else 32,
            epochs=1,
        )
        self.combos = self.SPACE.combinations(self.base)
        self.ops_per_round = len(self.combos)
        vols = generate_inputs("grid-sweep", seed, smoke)
        self.train_vols = [(n, v) for n, v in vols.items() if n.startswith("train")]
        self.val_vols = [(n, v) for n, v in vols.items() if n.startswith("val")]
        self._ranking = None

    @staticmethod
    def volumes(seed: int, smoke: bool) -> dict[str, Volume]:
        dims = (16, 32, 32) if smoke else (16, 96, 96)
        return {"train0": _spheres(seed, 5, dims), "val0": _spheres(FOLD_SEED, 7, dims)}

    def setup(self) -> None:
        self.pair_counts = {}
        for n in self.SPACE.feature_depths:
            cfg = replace(self.base, feature_depth=n)
            for sid, v in self.train_vols + self.val_vols:
                pairs = pipeline.make_pairs(v, cfg, sid)
                if sid.startswith("train"):
                    self.pair_counts[n] = self.pair_counts.get(n, 0) + len(pairs)
        for cfg in self.combos:
            model.build_model(cfg, Rng(cfg.seed))

    def warm_up(self) -> None:
        self.work()

    def work(self):
        return grid.grid_search(
            self.SPACE, self.base, self.train_vols, self.val_vols, epoch_budget=1
        )

    def check(self, results) -> Round:
        ranking = [(r.config.key(), r.val_psnr) for r in results]
        psnrs = [p for _, p in ranking]
        # reruns of one sweep must rank the same combos with the same PSNRs
        if self._ranking is None:
            self._ranking = ranking
        ok = (
            len(results) == len(self.combos)
            and _all_finite(psnrs)
            and psnrs == sorted(psnrs, reverse=True)
            and ranking == self._ranking
        )
        failed = 0 if ok else self.ops_per_round
        items = sum(self.pair_counts[cfg.feature_depth] for cfg in self.combos)
        return Round(items, self.ops_per_round, failed, psnrs[0] if ok else math.nan)


WORKLOADS = {
    "train-paper": TrainPaper,
    "infer-slice": InferSlice,
    "eval-baseline": EvalBaseline,
    "grid-sweep": GridSweep,
}


if __name__ == "__main__":
    name, seed, size = sys.argv[1:]
    vols = WORKLOADS[name].volumes(int(seed), size == "smoke")
    sys.stdout.buffer.write(pickle.dumps({n: volume.serialize_volume(v) for n, v in vols.items()}))
