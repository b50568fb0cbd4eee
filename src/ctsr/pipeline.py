"""Fold splitting, training-pair extraction, and synthetic volume generation
for desk-scale experiments.  Training pairs are float32 arrays copied out of
a ``Volume``, whose data was checked finite when it was built."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelConfig
from .resample import center_crop_to_multiple, downsample_axial
from .tensor import Rng, Tensor, derive_seed
from .volume import Volume

TRAIN_FOLDS = (0, 1)
VAL_FOLD = 2
TEST_FOLD = 3

_TAG_FOLD = 11
_TAG_SYNTH = 12

SYNTHETIC_KINDS = ("spheres", "ramps", "shepp-logan")


@dataclass
class FoldAssignment:
    """scan_id -> fold index; folds 0 and 1 train, 2 validates, 3 tests."""

    folds: dict[str, int]

    def ids_in(self, *fold_indices: int) -> list[str]:
        want = set(fold_indices)
        return [sid for sid, f in self.folds.items() if f in want]

    def train_ids(self) -> list[str]:
        return self.ids_in(*TRAIN_FOLDS)

    def val_ids(self) -> list[str]:
        return self.ids_in(VAL_FOLD)

    def test_ids(self) -> list[str]:
        return self.ids_in(TEST_FOLD)


def split_folds(scan_ids: list[str], seed: int) -> FoldAssignment:
    """Seeded shuffle then round-robin into four near-equal folds."""
    ids = list(scan_ids)
    if len(ids) < 4:
        raise ValueError(f"need at least 4 scans to split, got {len(ids)}")
    if len(set(ids)) != len(ids):
        raise ValueError("scan ids must be unique")
    Rng(derive_seed(seed, _TAG_FOLD)).shuffle(ids)
    return FoldAssignment({sid: i % 4 for i, sid in enumerate(ids)})


@dataclass
class TrainingPair:
    lr_patch: np.ndarray  # float32 [1, n, patch, patch]
    hr_slice: np.ndarray  # float32 [1, 1, patch*r, patch*r]
    provenance: tuple[str, int, tuple[int, int]]  # (scan, slice, patch origin)


def make_pairs(volume_hr: Volume, cfg: ModelConfig, scan_id: str = "") -> list[TrainingPair]:
    """Pair n-slice LR windows with their center HR slice, as in-plane
    patches of cfg.patch_hw with stride patch_hw/2 (interior depth windows
    only).  The HR target is the co-located r-scaled crop."""
    n, r, patch = cfg.feature_depth, cfg.scale, cfg.patch_hw
    cropped = center_crop_to_multiple(volume_hr, r)
    depth, h, w = cropped.shape
    if depth < n:
        raise ValueError(f"volume depth {depth} < window depth {n}")
    lr = downsample_axial(cropped, r)
    hl, wl = lr.shape[1], lr.shape[2]
    if hl < patch or wl < patch:
        raise ValueError(
            f"LR extent {hl}x{wl} too small for one {patch}x{patch} patch"
        )
    stride = max(1, patch // 2)
    oys = range(0, hl - patch + 1, stride)
    oxs = range(0, wl - patch + 1, stride)
    half = n // 2
    lr_data = lr.data.data
    hr_data = cropped.data.data
    pairs = []
    for c in range(half, depth - half):
        window = lr_data[c - half : c + half + 1]
        for oy in oys:
            for ox in oxs:
                lp = window[None, :, oy : oy + patch, ox : ox + patch]
                hp = hr_data[
                    None,
                    None,
                    c,
                    r * oy : r * (oy + patch),
                    r * ox : r * (ox + patch),
                ]
                pairs.append(TrainingPair(lp.copy(), hp.copy(), (scan_id, c, (oy, ox))))
    return pairs


def _grids(dims: tuple[int, int, int]):
    d, h, w = dims
    z = np.linspace(0.0, 1.0, d)[:, None, None]
    y = np.linspace(0.0, 1.0, h)[None, :, None]
    x = np.linspace(0.0, 1.0, w)[None, None, :]
    return z, y, x


def _ellipsoid_mask(z, y, x, center, radii) -> np.ndarray:
    cz, cy, cx = center
    rz, ry, rx = radii
    return ((z - cz) / rz) ** 2 + ((y - cy) / ry) ** 2 + ((x - cx) / rx) ** 2 <= 1.0


def _minmax_01(field: np.ndarray) -> np.ndarray:
    lo, hi = float(field.min()), float(field.max())
    if hi <= lo:
        return np.zeros_like(field)
    return (field - lo) / (hi - lo)


def gen_synthetic(kind: str, dims: tuple[int, int, int], seed: int) -> Volume:
    """Reproducible structured test volumes, normalized to [0, 1].

    "spheres": random ellipsoids with sharp boundaries over a smooth ramp
    background; "ramps": a pure affine intensity field; "shepp-logan": a
    head-phantom-like arrangement of nested ellipsoids with seeded jitter.
    """
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}, pick one of {SYNTHETIC_KINDS}")
    dims = tuple(int(v) for v in dims)
    if len(dims) != 3 or min(dims) < 16:
        raise ValueError(f"dims must be three extents >= 16, got {dims}")
    rng = Rng(derive_seed(seed, _TAG_SYNTH))
    z, y, x = _grids(dims)
    if kind == "ramps":
        c = rng.next_floats(4)
        field = 0.1 + 0.3 * c[0] + (0.2 + 0.6 * c[1]) * z + (0.2 + 0.6 * c[2]) * y \
            + (0.2 + 0.6 * c[3]) * x
        field = field + np.zeros(dims)
    elif kind == "spheres":
        c = rng.next_floats(4)
        field = 0.3 + 0.15 * (2 * c[0] - 1) * z + 0.15 * (2 * c[1] - 1) * y \
            + 0.15 * (2 * c[2] - 1) * x
        field = field + np.zeros(dims)
        # dense mix of mostly-small ellipsoids so sharp boundaries cover the
        # volume instead of a few isolated blobs
        count = 80 + int(c[3] * 41)
        draws = rng.next_floats(count * 8).reshape(count, 8)
        for row in draws:
            center = 0.08 + 0.84 * row[0:3]
            radii = 0.025 + 0.14 * (row[3:6] ** 2) * np.array([1.0, 0.9, 0.9])
            delta = (0.15 + 0.35 * row[6]) * (1.0 if row[7] < 0.5 else -1.0)
            field = field + delta * _ellipsoid_mask(z, y, x, center, radii)
    else:  # shepp-logan
        j = 0.02 * (2 * rng.next_floats(12) - 1)
        field = np.full(dims, 0.05)
        outer = _ellipsoid_mask(z, y, x, (0.5 + j[0], 0.5 + j[1], 0.5 + j[2]),
                                (0.46, 0.42, 0.40))
        inner = _ellipsoid_mask(z, y, x, (0.5 + j[0], 0.5 + j[1], 0.5 + j[2]),
                                (0.42, 0.37, 0.35))
        field = field + 0.9 * outer - 0.2 * inner
        left = _ellipsoid_mask(z, y, x, (0.5 + j[3], 0.45 + j[4], 0.38 + j[5]),
                               (0.25, 0.18, 0.10))
        right = _ellipsoid_mask(z, y, x, (0.5 + j[6], 0.45 + j[7], 0.62 + j[8]),
                                (0.25, 0.18, 0.10))
        field = field - 0.25 * left - 0.25 * right
        blob = _ellipsoid_mask(z, y, x, (0.55 + j[9], 0.65 + j[10], 0.5 + j[11]),
                               (0.08, 0.06, 0.06))
        field = field + 0.45 * blob
    return Volume(Tensor(_minmax_01(np.ascontiguousarray(field))), (2.5, 0.7, 0.7))
