import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctsr import metrics
from ctsr.model import ModelConfig, build_model, infer_volume
from ctsr.pipeline import gen_synthetic, make_pairs
from ctsr.resample import bicubic_upsample, downsample_axial
from ctsr.tensor import Rng, Tensor, uniform_init
from ctsr.volume import (
    Volume,
    VolumeFormatError,
    deserialize_volume,
    load_volume,
    save_volume,
    serialize_volume,
    svol_parts,
)


def _random_volume(rng, dims=(3, 4, 5), spacing=(2.5, 0.7031, 0.7031)):
    return Volume(Tensor(uniform_init(list(dims), 0, 1, rng)), spacing)


class TestRoundTrip:
    def test_save_load_bit_identical(self, tmp_path):
        vol = _random_volume(Rng(1))
        path = tmp_path / "vol.svol"
        save_volume(vol, path)
        back = load_volume(path)
        assert back.spacing == vol.spacing
        assert np.array_equal(back.data.data, vol.data.data)

    def test_many_randomized_roundtrips(self):
        rng = Rng(2)
        for trial in range(50):
            dims = tuple(1 + int(v % 6) for v in rng.next_u64(3))
            spacing = tuple(0.1 + 5.0 * f for f in rng.next_floats(3))
            vol = Volume(Tensor(uniform_init(list(dims), 0, 1, rng)), spacing)
            back = deserialize_volume(serialize_volume(vol))
            assert back.spacing == vol.spacing
            assert np.array_equal(back.data.data, vol.data.data)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.tuples(*[st.floats(min_value=5e-324, allow_infinity=False)] * 3))
    @example((5e-324, 1.7976931348623157e308, 1.0))
    @example((1.7976931348623157e308, 5e-324, 5e-324))
    def test_finite_positive_spacing_round_trips_exactly(self, spacing):
        vol = Volume(Tensor(np.zeros((1, 1, 1), np.float32)), spacing)
        assert deserialize_volume(serialize_volume(vol)).spacing == spacing

    def test_serialization_is_deterministic(self):
        a = serialize_volume(_random_volume(Rng(3)))
        b = serialize_volume(_random_volume(Rng(3)))
        assert a == b


class TestFormatErrors:
    def test_truncated_payload(self):
        buf = serialize_volume(_random_volume(Rng(4)))
        with pytest.raises(VolumeFormatError, match="payload"):
            deserialize_volume(buf[:-7])

    def test_bad_magic(self):
        with pytest.raises(VolumeFormatError, match="magic"):
            deserialize_volume(b"SVOL 9\ndims 1 1 1\nspacing 1 1 1\ndtype f32le\n\n" + b"\0" * 4)

    def test_zero_dims(self):
        buf = b"SVOL 1\ndims 0 4 4\nspacing 1.0 1.0 1.0\ndtype f32le\n\n"
        with pytest.raises(VolumeFormatError, match="dims"):
            deserialize_volume(buf)

    def test_dims_overflow(self):
        big = 2**40
        buf = f"SVOL 1\ndims {big} {big} {big}\nspacing 1.0 1.0 1.0\ndtype f32le\n\n".encode()
        with pytest.raises(VolumeFormatError, match="overflow"):
            deserialize_volume(buf)

    def test_wrong_dtype(self):
        buf = b"SVOL 1\ndims 1 1 1\nspacing 1.0 1.0 1.0\ndtype f64le\n\n" + b"\0" * 8
        with pytest.raises(VolumeFormatError, match="dtype"):
            deserialize_volume(buf)

    def test_missing_header_line(self):
        with pytest.raises(VolumeFormatError, match="truncated header"):
            deserialize_volume(b"SVOL 1\ndims 1 1 1\n")

    def test_garbage_spacing(self):
        buf = b"SVOL 1\ndims 1 1 1\nspacing a b c\ndtype f32le\n\n" + b"\0" * 4
        with pytest.raises(VolumeFormatError, match="spacing"):
            deserialize_volume(buf)

    def test_nonpositive_spacing(self):
        buf = b"SVOL 1\ndims 1 1 1\nspacing 0.0 1.0 1.0\ndtype f32le\n\n" + b"\0" * 4
        with pytest.raises(VolumeFormatError, match="spacing"):
            deserialize_volume(buf)

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_spacing(self, value):
        buf = f"SVOL 1\ndims 1 1 1\nspacing 1.0 {value} 1.0\ndtype f32le\n\n".encode()
        with pytest.raises(VolumeFormatError, match="spacing"):
            deserialize_volume(buf + b"\0" * 4)


class TestVolumeType:
    def test_requires_3d(self):
        with pytest.raises(ValueError, match="D, H, W"):
            Volume(Tensor(np.zeros((4, 4), dtype=np.float32)))

    def test_requires_positive_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            Volume(Tensor(np.zeros((2, 2, 2), dtype=np.float32)), (1.0, -1.0, 1.0))

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_requires_finite_spacing(self, value):
        with pytest.raises(ValueError, match="spacing"):
            Volume(Tensor(np.zeros((2, 2, 2), dtype=np.float32)), (1.0, value, 1.0))


class TestPayloadCopies:
    # 16x128x128 float32, 1 MiB
    @staticmethod
    def _volume():
        return Volume(Tensor(uniform_init([16, 128, 128], 0, 1, Rng(9))))

    def test_round_trip_holds_one_payload_copy(self):
        # serializing allocates the output bytes; deserializing views them and
        # allocates only Tensor's finiteness mask, a quarter of the payload
        vol = self._volume()
        payload = vol.data.data.nbytes
        tracemalloc.start()
        try:
            buf = serialize_volume(vol)
            _, ser_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            back = deserialize_volume(buf)
            _, de_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert buf == serialize_volume(back)
        assert np.shares_memory(back.data.data, np.frombuffer(buf, np.uint8))
        de_peak -= start
        assert ser_peak < 1.5 * payload, f"serialize traced {ser_peak / 2**20:.2f} MiB"
        assert de_peak < 0.5 * payload, f"deserialize traced {de_peak / 2**20:.2f} MiB"

    def test_save_streams_the_payload(self, tmp_path):
        # the header, then the array's own buffer: no joined copy
        vol = self._volume()
        payload = vol.data.data.nbytes
        path = tmp_path / "vol.svol"
        tracemalloc.start()
        try:
            save_volume(vol, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * payload, f"save traced {peak / 2**20:.2f} MiB"
        assert path.read_bytes() == serialize_volume(vol)


class TestReadOnlyData:
    def test_a_bytes_backed_volume_refuses_writes(self):
        back = deserialize_volume(serialize_volume(_random_volume(Rng(10))))
        with pytest.raises(ValueError, match="read-only"):
            back.data.data[0, 0, 0] = np.nan

    @pytest.mark.parametrize(
        "wrap", [bytearray, lambda b: memoryview(bytearray(b))], ids=["bytearray", "memoryview"]
    )
    def test_a_writable_buffer_is_copied_once(self, wrap):
        # a view of it would let its owner write a NaN after the finiteness check
        vol = _random_volume(Rng(11))
        owned = wrap(serialize_volume(vol))
        back = deserialize_volume(owned)
        assert not back.data.data.flags.writeable
        assert not np.shares_memory(back.data.data, np.frombuffer(owned, np.uint8))
        owned[-4:] = np.float32(np.nan).tobytes()
        assert np.array_equal(back.data.data, vol.data.data)


_TINY = ModelConfig(feature_depth=3, conv_layers=1, filters=(3, 3, 1), kernel=3, scale=2,
                    patch_hw=8)


class TestViewsThroughThePipeline:
    """The payload starts right after the header, whose length varies with
    the spacing, so a volume read from bytes may be an unaligned view; every
    consumer gives the same bits on it as on a writable, aligned copy."""

    @pytest.mark.parametrize(
        "spacing, aligned",
        [((2.5, 0.75, 0.75), True), ((1.0, 1.0, 1.0), False)],
        ids=["aligned", "unaligned"],
    )
    def test_same_bits_as_a_writable_aligned_copy(self, spacing, aligned):
        vol = Volume(gen_synthetic("spheres", (16, 24, 24), seed=3).data, spacing)
        header, _ = svol_parts(vol)
        assert (len(header) % 4 == 0) == aligned
        view = deserialize_volume(serialize_volume(vol))
        data = view.data.data
        assert data.flags.aligned == aligned and not data.flags.writeable
        copy = Volume(Tensor(np.array(data)), spacing)
        assert copy.data.data.flags.aligned and copy.data.data.flags.writeable

        def bits(v):
            return v.data.data.tobytes()

        def pair_bits(v):
            return [(p.lr_patch.tobytes(), p.hr_slice.tobytes()) for p in make_pairs(v, _TINY)]

        for resample in (downsample_axial, bicubic_upsample):
            assert bits(resample(view, 2)) == bits(resample(copy, 2))
        params = build_model(_TINY, Rng(0))
        assert bits(infer_volume(params, view)) == bits(infer_volume(params, copy))
        pairs = pair_bits(view)
        assert pairs and pairs == pair_bits(copy)
        ref = bicubic_upsample(downsample_axial(copy, 2), 2).data.data
        for i in range(data.shape[0]):
            a, b, r = Tensor(data[i]), Tensor(copy.data.data[i]), Tensor(ref[i])
            assert metrics.psnr(a, r, 1.0) == metrics.psnr(b, r, 1.0)
            assert metrics.ssim(r, a) == metrics.ssim(r, b)
