import tracemalloc
import zlib

import numpy as np
import pytest

from ctsr import resample
from ctsr.pipeline import gen_synthetic
from ctsr.resample import (
    bicubic_upsample,
    center_crop_slices,
    center_crop_to_multiple,
    cubic_kernel,
    downsample_axial,
)
from ctsr.tensor import Rng, Tensor, uniform_init
from ctsr.volume import Volume

from oracles import nearest_upsample_plane


def _count_resamples(monkeypatch):
    calls = []
    real = resample._resample_planes

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(resample, "_resample_planes", counting)
    return calls


def _ramp_volume(d=4, h=48, w=48):
    z, y, x = np.mgrid[0:d, 0:h, 0:w].astype(np.float64)
    data = 0.1 + 0.3 * y / h + 0.4 * x / w + 0.01 * z
    return Volume(Tensor(data), (1.0, 1.0, 1.0))


class TestKernel:
    def test_interpolating_property(self):
        # weight 1 at distance 0, weight 0 at integer distances
        assert cubic_kernel(np.array([0.0]))[0] == 1.0
        assert cubic_kernel(np.array([1.0]))[0] == 0.0
        assert cubic_kernel(np.array([2.0]))[0] == 0.0
        assert cubic_kernel(np.array([2.5]))[0] == 0.0

    def test_partition_of_unity(self):
        for frac in (0.0, 0.25, 0.5, 0.9):
            taps = np.array([frac + 1.0, frac, 1.0 - frac, 2.0 - frac])
            assert cubic_kernel(taps).sum() == pytest.approx(1.0, abs=1e-12)


class TestDownsample:
    def test_constant_stays_constant(self):
        vol = Volume(Tensor(np.full((4, 12, 12), 0.37, dtype=np.float32)))
        out = downsample_axial(vol, 3)
        assert out.shape == (4, 4, 4)
        assert np.allclose(out.data.data, 0.37, atol=1e-7)

    def test_shape_and_spacing(self):
        vol = Volume(Tensor(np.zeros((5, 48, 48), dtype=np.float32)), (2.0, 0.5, 0.5))
        out = downsample_axial(vol, 3)
        assert out.shape == (5, 16, 16)
        assert out.spacing == (2.0, 1.5, 1.5)

    def test_r1_forbidden(self):
        vol = _ramp_volume()
        with pytest.raises(ValueError):
            downsample_axial(vol, 1)

    def test_output_spacing_checked_before_resampling(self, monkeypatch):
        # dy * r overflows to inf
        calls = _count_resamples(monkeypatch)
        vol = Volume(_ramp_volume().data, (1.0, 1e308, 1e308))
        with pytest.raises(ValueError, match="spacing"):
            downsample_axial(vol, 2)
        assert calls == []

    def test_nondivisible_extent_center_cropped(self):
        vol = Volume(Tensor(np.zeros((2, 50, 49), dtype=np.float32)))
        out = downsample_axial(vol, 3)
        assert out.shape == (2, 16, 16)

    def test_crop_view_gives_the_bits_of_the_cropped_copy(self):
        vol = Volume(Tensor(uniform_init([3, 50, 49], 0, 1, Rng(4))))
        want = downsample_axial(center_crop_to_multiple(vol, 3), 3).data.data
        assert np.array_equal(downsample_axial(vol, 3).data.data, want)

    def test_bicubic_equals_bilinear_on_ramp(self):
        # at r=3 the sample points are grid-aligned, where both kernels are
        # exactly interpolating, so a linear ramp reproduces exactly
        vol = _ramp_volume()
        out = downsample_axial(vol, 3).data.data.astype(np.float64)
        src = vol.data.data
        idx = np.arange(16) * 3 + 1  # (i + 0.5)*3 - 0.5
        bilinear = src[:, idx][:, :, idx]
        assert np.abs(out - bilinear).max() <= 1e-6

    def test_deterministic(self):
        vol = Volume(Tensor(uniform_init([3, 24, 24], 0, 1, Rng(5))))
        a = downsample_axial(vol, 2).data.data
        b = downsample_axial(vol, 2).data.data
        assert np.array_equal(a, b)


class TestUpsample:
    def test_constant_slice(self):
        vol = Volume(Tensor(np.full((2, 8, 8), 0.42, dtype=np.float32)))
        out = bicubic_upsample(vol, 3)
        assert out.shape == (2, 24, 24)
        assert np.allclose(out.data.data, 0.42, atol=1e-7)

    def test_affine_ramp_exact_in_interior(self):
        vol = _ramp_volume(d=2, h=16, w=16)
        out = bicubic_upsample(vol, 2).data.data.astype(np.float64)
        # expected affine values at fine-grid coordinates
        yy = (np.arange(32) + 0.5) / 2 - 0.5
        xx = (np.arange(32) + 0.5) / 2 - 0.5
        expect = 0.1 + 0.3 * yy[:, None] / 16 + 0.4 * xx[None, :] / 16
        # the clamp at the borders breaks affineness; check the interior
        inner = slice(4, -4)
        for d in range(2):
            got = out[d, inner, inner]
            want = expect[inner, inner] + 0.01 * d
            assert np.abs(got - want).max() <= 1e-6

    def test_spacing_shrinks(self):
        vol = Volume(Tensor(np.zeros((2, 8, 8), dtype=np.float32)), (2.0, 1.2, 1.2))
        out = bicubic_upsample(vol, 2)
        assert out.spacing == (2.0, 0.6, 0.6)

    def test_r1_forbidden(self):
        with pytest.raises(ValueError):
            bicubic_upsample(_ramp_volume(), 1)

    def test_output_spacing_checked_before_resampling(self, monkeypatch):
        # dy / r underflows to zero
        calls = _count_resamples(monkeypatch)
        vol = Volume(_ramp_volume().data, (5e-324, 5e-324, 5e-324))
        with pytest.raises(ValueError, match="spacing"):
            bicubic_upsample(vol, 2)
        assert calls == []

    def test_down_then_up_restores_extents(self):
        vol = Volume(Tensor(uniform_init([3, 48, 48], 0, 1, Rng(6))))
        round_trip = bicubic_upsample(downsample_axial(vol, 3), 3)
        assert round_trip.shape == vol.shape

    def test_bicubic_beats_nearest_on_smooth_data(self):
        # smooth structured slice: bicubic restoration should win clearly
        y, x = np.mgrid[0:48, 0:48].astype(np.float64)
        img = 0.5 + 0.3 * np.sin(2 * np.pi * y / 24) * np.cos(2 * np.pi * x / 16)
        vol = Volume(Tensor(np.tile(img, (2, 1, 1))))
        lr = downsample_axial(vol, 3)
        up = bicubic_upsample(lr, 3).data.data[0].astype(np.float64)
        nn = nearest_upsample_plane(lr.data.data[0].astype(np.float64), 3)
        mse_cubic = np.mean((up - img) ** 2)
        mse_nn = np.mean((nn - img) ** 2)
        assert mse_cubic < mse_nn


class TestSliceIndependence:
    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("resize", [downsample_axial, bicubic_upsample])
    def test_volume_equals_its_slices_resampled_alone(self, resize, r):
        vol = Volume(Tensor(uniform_init([7, 143, 145], 0, 1, Rng(8))))
        slices = [
            resize(Volume(Tensor(vol.data.data[i : i + 1])), r).data.data
            for i in range(vol.shape[0])
        ]
        assert np.array_equal(resize(vol, r).data.data, np.concatenate(slices))

    def test_peak_memory_below_output_plus_five_float64_planes(self):
        # 8 x 170 x 170 -> 8 x 510 x 510: the float32 output is 7.9 MiB and one
        # float64 output plane 2.0 MiB; a slice's row and column passes hold a
        # few such planes at a time
        vol = Volume(Tensor(uniform_init([8, 170, 170], 0, 1, Rng(9))))
        bound = 8 * 510 * 510 * 4 + 5 * 510 * 510 * 8
        tracemalloc.start()
        try:
            bicubic_upsample(vol, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, f"traced peak {peak / 2**20:.2f} MiB"

    def test_downsample_peak_memory_below_the_input_when_cropped(self):
        # 32 x 172 x 172 at r = 3 crops to 171 x 171: a cropped copy alone
        # would be 3.7 MiB of the input's 3.8 MiB; the crop is a view, so only
        # the 0.4 MiB output and a few float64 planes are allocated
        vol = Volume(Tensor(uniform_init([32, 172, 172], 0, 1, Rng(10))))
        tracemalloc.start()
        try:
            downsample_axial(vol, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < vol.data.data.nbytes, f"traced peak {peak / 2**20:.2f} MiB"


class TestPinnedBits:
    # CRC32 of the float32 output bytes on the golden spheres volume
    CRCS = {
        (downsample_axial, 2): 1024786300,
        (downsample_axial, 3): 2671543776,
        (bicubic_upsample, 2): 2796709299,
        (bicubic_upsample, 3): 4283229591,
    }

    @pytest.mark.parametrize("resize, r", list(CRCS))
    def test_golden_volume_crc(self, resize, r):
        vol = gen_synthetic("spheres", (16, 48, 48), seed=5)
        out = resize(vol, r).data.data
        assert out.dtype == np.float32
        assert zlib.crc32(np.ascontiguousarray(out).tobytes()) == self.CRCS[resize, r]


class TestCenterCrop:
    def test_no_crop_when_divisible(self):
        vol = Volume(Tensor(uniform_init([2, 12, 12], 0, 1, Rng(7))))
        assert center_crop_to_multiple(vol, 3) is vol

    def test_crops_symmetrically(self):
        data = np.arange(8 * 7, dtype=np.float32).reshape(1, 8, 7)
        out = center_crop_to_multiple(Volume(Tensor(data)), 3)
        assert out.shape == (1, 6, 6)
        # offsets: y0 = (8-6)//2 = 1, x0 = (7-6)//2 = 0
        assert np.array_equal(out.data.data[0], data[0, 1:7, 0:6])

    def test_too_small_rejected(self):
        vol = Volume(Tensor(np.zeros((1, 2, 2), dtype=np.float32)))
        with pytest.raises(ValueError):
            center_crop_to_multiple(vol, 3)
        with pytest.raises(ValueError):
            center_crop_slices(vol.shape, 3)

    def test_slices_are_the_crop(self):
        assert center_crop_slices((1, 8, 7), 3) == (slice(1, 7), slice(0, 6))
        assert center_crop_slices((4, 12, 12), 3) == (slice(0, 12), slice(0, 12))
