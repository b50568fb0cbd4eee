"""The .svol volume container: a 3D scalar field with voxel spacing.

Format (little-endian, row-major, W fastest):

    SVOL 1\n
    dims D H W\n
    spacing dz dy dx\n
    dtype f32le\n
    \n
    <D*H*W float32 values>

Spacing values are written with repr(), which round-trips float64 exactly,
so save followed by load reproduces a volume bit for bit.

Neither end copies the payload.  A volume read from a buffer is a read-only
view of the payload where it lies, so a file costs one payload in memory;
a writable buffer (a ``bytearray``, a writable ``memoryview``) is copied
once into ``bytes`` first, so that no one can write into a volume after its
finiteness check.  The payload starts right after the header, whose length
varies, so the view may be unaligned; numpy reads it as it is.  A write
streams the header and then the array's own buffer, with no joined copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, validate_shape


class VolumeFormatError(ValueError):
    """Malformed header, truncated payload, or invalid dimensions."""


def check_spacing(spacing) -> tuple[float, float, float]:
    """``spacing`` as three floats; a ValueError unless each is positive and
    finite."""
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != 3 or not all(0 < s < math.inf for s in spacing):
        raise ValueError(f"spacing must be three positive finite values, got {spacing}")
    return spacing


def upsampled_spacing(spacing, r: int) -> tuple[float, float, float]:
    """``check_spacing`` of (dz, dy / r, dx / r): slices enlarged r times."""
    dz, dy, dx = spacing
    return check_spacing((dz, dy / r, dx / r))


@dataclass
class Volume:
    """Normalized intensities [D, H, W] plus mm-per-voxel spacing (dz, dy, dx)."""

    data: Tensor
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if len(self.data.shape) != 3:
            raise ValueError(f"volume data must be [D, H, W], got shape {self.data.shape}")
        self.spacing = check_spacing(self.spacing)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


def svol_parts(volume: Volume) -> tuple[bytes, np.ndarray]:
    """The header of ``volume``'s .svol file and its payload, the volume's
    own float32 array (no copy on a little-endian machine), to be written
    one after the other."""
    d, h, w = volume.shape
    dz, dy, dx = volume.spacing
    header = (
        f"SVOL 1\n"
        f"dims {d} {h} {w}\n"
        f"spacing {dz!r} {dy!r} {dx!r}\n"
        f"dtype f32le\n"
        f"\n"
    )
    return header.encode("ascii"), volume.data.data.astype("<f4", copy=False)


def serialize_volume(volume: Volume) -> bytes:
    """The .svol file of ``volume`` as one ``bytes``, for in-memory callers;
    ``save_volume`` writes the same bytes without joining them."""
    return b"".join(svol_parts(volume))


def save_volume(volume: Volume, path) -> None:
    """Write ``volume`` to ``path``: the header, then the array's buffer."""
    with open(path, "wb") as fh:
        for part in svol_parts(volume):
            fh.write(part)


def load_volume(path) -> Volume:
    """The volume in the file at ``path``, a read-only view into the one
    ``bytes`` that holds the whole file."""
    with open(path, "rb") as fh:
        return deserialize_volume(fh.read())


def _header_fields(line: bytes, name: str, count: int, lineno: int) -> list[str]:
    try:
        parts = line.decode("ascii").split()
    except UnicodeDecodeError as err:
        raise VolumeFormatError(f"header line {lineno} is not ASCII") from err
    if len(parts) != count + 1 or parts[0] != name:
        raise VolumeFormatError(
            f"header line {lineno}: expected '{name}' with {count} values, got {line!r}"
        )
    return parts[1:]


def deserialize_volume(buf: bytes) -> Volume:
    """The volume in ``buf``: its data is a read-only, possibly unaligned
    view of the payload in ``buf``, with no copy.  A writable ``buf`` is
    copied once into ``bytes`` and that copy is viewed, so that the caller
    cannot change the volume after its finiteness check."""
    if not memoryview(buf).readonly:
        buf = bytes(buf)
    lines, off = [], 0
    for _ in range(5):
        end = buf.find(b"\n", off)
        if end < 0:
            raise VolumeFormatError("truncated header (expected 5 header lines)")
        lines.append(buf[off:end])
        off = end + 1
    if lines[0] != b"SVOL 1":
        raise VolumeFormatError(f"bad magic line {lines[0]!r} (expected 'SVOL 1')")
    dims_s = _header_fields(lines[1], "dims", 3, 2)
    try:
        dims = tuple(int(v) for v in dims_s)
    except ValueError as err:
        raise VolumeFormatError(f"non-integer dims {dims_s}") from err
    try:
        validate_shape(dims)
    except ValueError as err:
        raise VolumeFormatError(f"bad dims {dims_s}: {err}") from err
    spacing_s = _header_fields(lines[2], "spacing", 3, 3)
    try:
        spacing = check_spacing(spacing_s)
    except ValueError as err:
        raise VolumeFormatError(f"bad spacing {spacing_s}: {err}") from err
    (dtype_s,) = _header_fields(lines[3], "dtype", 1, 4)
    if dtype_s != "f32le":
        raise VolumeFormatError(f"unsupported dtype {dtype_s!r} (only f32le)")
    if lines[4] != b"":
        raise VolumeFormatError("missing blank line between header and payload")
    expected = dims[0] * dims[1] * dims[2] * 4
    if len(buf) - off != expected:
        raise VolumeFormatError(
            f"payload is {len(buf) - off} bytes, expected {expected} for dims {dims}"
        )
    data = np.frombuffer(buf, dtype="<f4", offset=off).reshape(dims)
    data.flags.writeable = False
    return Volume(Tensor(data), spacing)
