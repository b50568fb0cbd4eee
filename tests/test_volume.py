import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctsr.tensor import Rng, Tensor, uniform_init
from ctsr.volume import (
    Volume,
    VolumeFormatError,
    deserialize_volume,
    load_volume,
    save_volume,
    serialize_volume,
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
    def test_round_trip_holds_one_payload_copy(self):
        # 16x128x128 float32, 1 MiB: serializing allocates the output bytes
        # and deserializing the volume's own array plus Tensor's finiteness
        # mask (a quarter of the payload); neither makes a second copy
        vol = Volume(Tensor(uniform_init([16, 128, 128], 0, 1, Rng(9))))
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
        de_peak -= start
        assert ser_peak < 1.5 * payload, f"serialize traced {ser_peak / 2**20:.2f} MiB"
        assert de_peak < 1.5 * payload, f"deserialize traced {de_peak / 2**20:.2f} MiB"
