import tracemalloc

import numpy as np
import pytest

from ctsr import pipeline
from ctsr.model import ModelConfig
from ctsr.pipeline import (
    FoldAssignment,
    TrainingPair,
    gen_synthetic,
    make_pairs,
    split_folds,
)
from ctsr.resample import center_crop_to_multiple, downsample_axial
from ctsr.tensor import Rng, Tensor, uniform_init
from ctsr.volume import Volume


class TestFolds:
    def test_eight_scans_equal_folds(self):
        ids = [f"s{i}" for i in range(8)]
        fa = split_folds(ids, seed=0)
        sizes = [len(fa.ids_in(k)) for k in range(4)]
        assert sizes == [2, 2, 2, 2]

    def test_nine_scans_sizes_differ_by_at_most_one(self):
        fa = split_folds([f"s{i}" for i in range(9)], seed=1)
        sizes = sorted(len(fa.ids_in(k)) for k in range(4))
        assert sizes == [2, 2, 2, 3]

    def test_partition(self):
        ids = [f"scan{i:02d}" for i in range(11)]
        fa = split_folds(ids, seed=3)
        seen = [sid for k in range(4) for sid in fa.ids_in(k)]
        assert sorted(seen) == sorted(ids)
        assert len(seen) == len(set(seen))

    def test_deterministic(self):
        ids = [f"s{i}" for i in range(10)]
        assert split_folds(ids, 42).folds == split_folds(ids, 42).folds
        assert split_folds(ids, 42).folds != split_folds(ids, 43).folds

    def test_roles(self):
        fa = FoldAssignment({"a": 0, "b": 1, "c": 2, "d": 3})
        assert fa.train_ids() == ["a", "b"]
        assert fa.val_ids() == ["c"]
        assert fa.test_ids() == ["d"]

    def test_too_few_or_duplicate(self):
        with pytest.raises(ValueError):
            split_folds(["a", "b", "c"], 0)
        with pytest.raises(ValueError):
            split_folds(["a", "b", "c", "a"], 0)


def _cfg(**kw):
    base = dict(
        feature_depth=5, conv_layers=1, filters=(4, 4, 1), kernel=3,
        scale=3, patch_hw=8, seed=0,
    )
    base.update(kw)
    return ModelConfig(**base)


class TestMakePairs:
    def test_single_depth_window(self):
        vol = Volume(Tensor(uniform_init([5, 24, 24], 0, 1, Rng(2))))
        pairs = make_pairs(vol, _cfg(), "scan0")
        assert len(pairs) == 1
        assert pairs[0].provenance == ("scan0", 2, (0, 0))

    def test_single_patch_grid(self):
        # LR slices 8x8 with patch 8 -> one patch per depth window
        vol = Volume(Tensor(uniform_init([7, 24, 24], 0, 1, Rng(3))))
        pairs = make_pairs(vol, _cfg(), "s")
        assert len(pairs) == 3  # depth windows centered at 2, 3, 4

    def test_shapes_and_alignment(self):
        cfg = _cfg(patch_hw=8)
        vol = Volume(Tensor(uniform_init([9, 48, 48], 0, 1, Rng(4))))
        pairs = make_pairs(vol, cfg, "s")
        for p in pairs:
            assert p.lr_patch.shape == (1, 5, 8, 8)
            assert p.hr_slice.shape == (1, 1, 24, 24)
            assert p.lr_patch.dtype == p.hr_slice.dtype == np.float32
        # HR patch is the co-located crop of the center slice
        first = pairs[0]
        scan, c, (oy, ox) = first.provenance
        expected = vol.data.data[c, 3 * oy : 3 * (oy + 8), 3 * ox : 3 * (ox + 8)]
        assert np.array_equal(first.hr_slice[0, 0], expected)

    def test_pairs_are_read_only_views_with_the_values_of_the_crops(self, monkeypatch):
        # 50 x 50 at r = 3 is center-cropped to 48 x 48 from offset 1
        lr_volumes = []

        def spy(volume, r):
            lr_volumes.append(downsample_axial(volume, r))
            return lr_volumes[-1]

        monkeypatch.setattr(pipeline, "downsample_axial", spy)
        vol = Volume(Tensor(uniform_init([9, 50, 50], 0, 1, Rng(9))))
        pairs = make_pairs(vol, _cfg(patch_hw=8), "s")
        assert len(pairs) == 45  # 5 depth windows x 3 x 3 origins
        (lr,) = lr_volumes
        want_lr = downsample_axial(vol, 3).data.data
        want_hr = center_crop_to_multiple(vol, 3).data.data
        for p in pairs:
            _, c, (oy, ox) = p.provenance
            assert np.shares_memory(p.lr_patch, lr.data.data)
            assert np.shares_memory(p.hr_slice, vol.data.data)
            assert np.array_equal(
                p.lr_patch[0], want_lr[c - 2 : c + 3, oy : oy + 8, ox : ox + 8]
            )
            assert np.array_equal(
                p.hr_slice[0, 0], want_hr[c, 3 * oy : 3 * (oy + 8), 3 * ox : 3 * (ox + 8)]
            )
            for view in (p.lr_patch, p.hr_slice):
                with pytest.raises(ValueError, match="read-only"):
                    view[...] = 0.0
        assert vol.data.data.flags.writeable

    def test_held_memory_does_not_grow_with_the_pair_count(self):
        # the paper config: copied, each pair held 57 KiB; as views, the pairs
        # hold the 256 KiB LR volume and a few hundred bytes of objects each
        cfg = ModelConfig(
            feature_depth=5, conv_layers=3, filters=(64, 64, 32, 32, 1), kernel=3,
            scale=3, patch_hw=32,
        )
        vol = gen_synthetic("spheres", (16, 192, 192), seed=1)
        tracemalloc.start()
        try:
            pairs = make_pairs(vol, cfg, "s")
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pairs) == 108
        lr_bytes = 16 * 64 * 64 * 4
        assert held < lr_bytes + 2048 * len(pairs), f"held {held / 2**10:.0f} KiB"

    def test_provenance_unique(self):
        vol = Volume(Tensor(uniform_init([9, 48, 48], 0, 1, Rng(5))))
        pairs = make_pairs(vol, _cfg(), "s")
        seen = [p.provenance for p in pairs]
        assert len(seen) == len(set(seen))

    def test_patch_stride_is_half_patch(self):
        cfg = _cfg(patch_hw=8)
        vol = Volume(Tensor(uniform_init([5, 72, 72], 0, 1, Rng(6))))
        pairs = make_pairs(vol, cfg, "s")
        origins = sorted({p.provenance[2] for p in pairs})
        ys = sorted({oy for oy, _ in origins})
        assert ys == [0, 4, 8, 12, 16]  # LR extent 24, patch 8, stride 4

    def test_too_thin_volume(self):
        vol = Volume(Tensor(uniform_init([3, 24, 24], 0, 1, Rng(7))))
        with pytest.raises(ValueError, match="depth"):
            make_pairs(vol, _cfg(), "s")

    def test_too_small_in_plane(self):
        vol = Volume(Tensor(uniform_init([5, 12, 12], 0, 1, Rng(8))))
        with pytest.raises(ValueError, match="patch"):
            make_pairs(vol, _cfg(patch_hw=16), "s")


class TestSynthetic:
    @pytest.mark.parametrize("kind", ["spheres", "ramps", "shepp-logan"])
    def test_reproducible(self, kind):
        a = gen_synthetic(kind, (16, 20, 24), seed=5)
        b = gen_synthetic(kind, (16, 20, 24), seed=5)
        assert np.array_equal(a.data.data, b.data.data)
        c = gen_synthetic(kind, (16, 20, 24), seed=6)
        assert not np.array_equal(a.data.data, c.data.data)

    @pytest.mark.parametrize("kind", ["spheres", "ramps", "shepp-logan"])
    def test_normalized_range(self, kind):
        vol = gen_synthetic(kind, (16, 16, 16), seed=1)
        assert vol.data.data.min() >= 0.0
        assert vol.data.data.max() <= 1.0

    def test_spheres_have_gradient_energy(self):
        vol = gen_synthetic("spheres", (16, 32, 32), seed=2)
        grad = np.diff(vol.data.data.astype(np.float64), axis=1)
        assert np.abs(grad).sum() > 1.0

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            gen_synthetic("spheres", (8, 32, 32), seed=0)
        with pytest.raises(ValueError):
            gen_synthetic("cubes", (16, 16, 16), seed=0)
