"""Model assembly, training, inference, and checkpoint I/O.

The layer stack is ``l`` 3D convolutions, one transposed convolution that
upsamples in-plane by the scale factor, and a final convolution that
collapses the remaining depth into a single output slice.  ReLU follows
every layer except the last.

Depth handling: convolutions never pad the depth axis; each uses a kernel
depth of min(k, remaining depth), so an n-slice window shrinks toward one
slice as it moves through the stack, and the final convolution uses kernel
depth equal to whatever depth remains.  Height/width are same-padded
(p = (k-1)/2, k odd) so only the transposed convolution changes the
in-plane extents.

The transposed convolution uses padding (k-s)//2 when k >= s; any leftover
off-by-one (k-s odd) is trimmed from the bottom/right, and a kernel smaller
than the stride is compensated by appending zero rows/columns, so the
in-plane output is exactly input*s for every legal configuration.

Weights, biases, training pairs and ``forward``'s input and output are plain
float32 arrays, checked finite where values enter: volumes, checkpoints,
weight initialization, and each layer output and gradient.
"""

from __future__ import annotations

import math
import struct
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import metrics, ops
from .ops import ConvGeometry, sgd_step
# not called here; benchmarks/tracing.py wraps them (see TestTracingContract)
from .ops import conv3d_forward, deconv3d_forward  # noqa: F401
from .tensor import NonFiniteError, Rng, Tensor, derive_seed, uniform_init
from .volume import Volume

CHECKPOINT_MAGIC = b"3DECNN\0"
CHECKPOINT_VERSION = 1

# child-stream tags for the run seed
_TAG_INIT = 1
_TAG_SHUFFLE = 2


@dataclass
class ModelConfig:
    """Hyperparameters: window depth n, conv count l, channel plan f, kernel k."""

    feature_depth: int = 5
    conv_layers: int = 3
    filters: tuple[int, ...] = (64, 64, 32, 32, 1)
    kernel: int = 3
    scale: int = 3
    lr: float = 1e-3
    seed: int = 0
    epochs: int = 30
    batch_size: int = 16
    patch_hw: int = 32

    def __post_init__(self):
        self.filters = tuple(int(f) for f in self.filters)

    def problems(self) -> list[str]:
        """All invariant violations, empty when the config is valid."""
        out = []
        if self.feature_depth < 1 or self.feature_depth % 2 == 0:
            out.append(f"feature_depth must be odd and >= 1, got {self.feature_depth}")
        if self.conv_layers < 1:
            out.append(f"conv_layers must be >= 1, got {self.conv_layers}")
        if len(self.filters) != self.conv_layers + 2:
            out.append(
                f"filters must list conv_layers + 2 = {self.conv_layers + 2} entries, "
                f"got {len(self.filters)}"
            )
        if any(f < 1 for f in self.filters):
            out.append(f"all filter counts must be >= 1, got {self.filters}")
        if self.filters and self.filters[-1] != 1:
            out.append(f"final filter count must be 1, got {self.filters[-1]}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            out.append(f"kernel must be odd and >= 1, got {self.kernel}")
        if self.scale < 2:
            out.append(f"scale must be >= 2, got {self.scale}")
        if not np.isfinite(self.lr) or self.lr < 0:
            out.append(f"lr must be finite and >= 0, got {self.lr}")
        if self.epochs < 1:
            out.append(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            out.append(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patch_hw < 1:
            out.append(f"patch_hw must be >= 1, got {self.patch_hw}")
        if not 0 <= self.seed < 2**64:
            out.append(f"seed must fit in 64 bits, got {self.seed}")
        return out

    def validate(self) -> None:
        problems = self.problems()
        if problems:
            raise ValueError("invalid model config: " + "; ".join(problems))

    def key(self) -> str:
        """Canonical serialization, used for ranking tie-breaks and journals."""
        f = ",".join(str(x) for x in self.filters)
        return (
            f"n={self.feature_depth};l={self.conv_layers};f=({f});k={self.kernel};"
            f"r={self.scale}"
        )


@dataclass
class Layer:
    kind: str  # "conv" | "deconv"
    weights: np.ndarray  # float32, owned and updated in place by sgd_step
    bias: np.ndarray  # float32 [C_out]
    geom: ConvGeometry
    # rows/cols removed from the bottom/right after a deconv (negative: zero
    # rows/cols appended instead) so the in-plane output is exactly input*s
    trim_hw: tuple[int, int] = (0, 0)


@dataclass
class ModelParams:
    config: ModelConfig
    layers: list[Layer]

    def checksum(self) -> int:
        crc = 0
        for layer in self.layers:
            crc = zlib.crc32(layer.weights.tobytes(), crc)
            crc = zlib.crc32(layer.bias.tobytes(), crc)
        return crc


@dataclass
class TrainReport:
    """Per-epoch curves; wall times are measurement metadata and excluded
    from determinism comparisons."""

    train_losses: list[float] = field(default_factory=list)
    val_psnrs: list[float] = field(default_factory=list)
    wall_times: list[float] = field(default_factory=list)
    params_checksum: int = 0


def _layer_plan(cfg: ModelConfig) -> list[tuple[str, ConvGeometry, tuple[int, int]]]:
    """Deterministic stack structure implied by a config."""
    cfg.validate()
    k, r = cfg.kernel, cfg.scale
    same = (k - 1) // 2
    plan = []
    depth = cfg.feature_depth
    c_in = 1
    for i in range(cfg.conv_layers):
        kd = min(k, depth)
        geom = ConvGeometry(c_in, cfg.filters[i], (kd, k, k), 1, (0, same, same))
        plan.append(("conv", geom, (0, 0)))
        depth = depth - kd + 1
        c_in = cfg.filters[i]
    # transposed conv: upsample H,W by r, keep depth
    p_hw = max(0, (k - r) // 2)
    excess = k - r - 2 * p_hw  # 1 when k-r is odd, negative when k < r
    geom = ConvGeometry(c_in, cfg.filters[cfg.conv_layers], (1, k, k), (1, r, r), (0, p_hw, p_hw))
    plan.append(("deconv", geom, (excess, excess)))
    c_in = cfg.filters[cfg.conv_layers]
    # final smoothing conv collapses the remaining depth into one slice
    geom = ConvGeometry(c_in, cfg.filters[-1], (depth, k, k), 1, (0, same, same))
    plan.append(("conv", geom, (0, 0)))
    return plan


def build_model(cfg: ModelConfig, rng: Rng) -> ModelParams:
    """Initialize the stack: weights uniform in +/- sqrt(6/fan_in) with
    fan_in = C_in*k1*k2*k3 (He-uniform), biases zero.

    The sqrt(6) factor keeps activation magnitudes roughly constant through
    the ReLU stack; a plain 1/sqrt(fan_in) bound shrinks activations ~2.4x
    per layer, which leaves plain SGD at small learning rates stuck at a
    mean predictor on desk-scale epoch budgets.
    """
    layers = []
    for kind, geom, trim in _layer_plan(cfg):
        k1, k2, k3 = geom.kernel
        if kind == "conv":
            wshape = [geom.out_channels, geom.in_channels, k1, k2, k3]
        else:
            wshape = [geom.in_channels, geom.out_channels, k1, k2, k3]
        bound = np.sqrt(6.0 / (geom.in_channels * k1 * k2 * k3))
        weights = uniform_init(wshape, -bound, bound, rng)
        bias = np.zeros(geom.out_channels, dtype=np.float32)
        layers.append(Layer(kind, weights, bias, geom, trim))
    return ModelParams(cfg, layers)


def _check_patch(params: ModelParams, patch: np.ndarray) -> None:
    n = params.config.feature_depth
    if patch.ndim != 4 or patch.shape[0] != 1 or patch.shape[1] != n:
        raise ValueError(
            f"patch shape {patch.shape} incompatible with model (expected [1, {n}, h, w])"
        )


def _apply_trim(z: np.ndarray, trim: tuple[int, int]) -> np.ndarray:
    """The deconv trim of a [C, B, D, H, W] array: rows/cols cut from the
    bottom/right (negative: zero rows/cols appended)."""
    th, tw = trim
    if th == 0 and tw == 0:
        return z
    if th > 0:
        z = z[:, :, :, :-th, :]
    elif th < 0:
        z = np.pad(z, ((0, 0), (0, 0), (0, 0), (0, -th), (0, 0)))
    if tw > 0:
        z = z[:, :, :, :, :-tw]
    elif tw < 0:
        z = np.pad(z, ((0, 0), (0, 0), (0, 0), (0, 0), (0, -tw)))
    return z


def _undo_trim(g: np.ndarray, trim: tuple[int, int]) -> np.ndarray:
    return _apply_trim(g, (-trim[0], -trim[1]))


def _forward_batch(params: ModelParams, xs: np.ndarray, keep_caches: bool):
    """Forward over a [C=1, B, n, h, w] batch, the one driver of the stack.

    The engine computes in float64 and each layer's output is stored in the
    dtype of ``xs``: training and validation pass float64, and ``forward``
    passes its float32 patch, so inference rounds to float32 after every
    layer.  A layer whose stored output is not finite raises
    NonFiniteError naming it (ReLU would turn a -inf into a silent zero).

    With ``keep_caches`` it also returns, per layer, all the backward reads:
    the layer's input and float64 weights.  The next layer's input is the
    ReLU mask, positive exactly where the pre-activation is.
    """
    caches = []
    h = xs
    last = len(params.layers) - 1
    for i, layer in enumerate(params.layers):
        w64 = layer.weights.astype(np.float64)
        b64 = layer.bias.astype(np.float64)
        if layer.kind == "conv":
            z = ops._conv_fwd_b(h, w64, b64, layer.geom)
        else:
            z = _apply_trim(ops._deconv_fwd_b(h, w64, b64, layer.geom), layer.trim_hw)
        with np.errstate(over="ignore"):  # a value beyond float32 fails the check below
            z = z.astype(xs.dtype, copy=False)
        if not np.isfinite(z).all():
            raise NonFiniteError(f"non-finite output in layer {i}")
        if keep_caches:
            caches.append((h, w64))
        h = np.maximum(z, 0.0) if i < last else z
    return h, caches


def forward(params: ModelParams, lr_patch: np.ndarray) -> np.ndarray:
    """Super-resolve one window [1, n, h, w] of low-res slices into a single
    float32 slice [1, 1, h*scale, w*scale].  The input is cast to float32
    and must be finite there; every layer's output is rounded to float32."""
    with np.errstate(over="ignore"):  # a value beyond float32 fails the check below
        x = np.asarray(lr_patch, np.float32)
    _check_patch(params, x)
    if not np.isfinite(x).all():
        raise NonFiniteError("non-finite input patch")
    out, _ = _forward_batch(params, x[:, None], keep_caches=False)
    return out[:, 0]


def _backward_batch(params: ModelParams, caches, d_out: np.ndarray):
    """Batched adjoint of _forward_batch; returns per-layer (d_w, d_b) in f64."""
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.layers)
    g = d_out
    for i in reversed(range(len(params.layers))):
        layer = params.layers[i]
        x_in, w64 = caches[i]
        if i + 1 < len(caches):  # the next layer's input is this one's ReLU mask
            g = np.where(caches[i + 1][0] > 0, g, 0.0)
        need_dx = i > 0
        if layer.kind == "conv":
            d_w, d_b, d_x = ops._conv_bwd_b(x_in, w64, layer.geom, g, need_dx)
        else:
            g = _undo_trim(g, layer.trim_hw)
            d_w, d_b, d_x = ops._deconv_bwd_b(x_in, w64, layer.geom, g, need_dx)
        grads[i] = (d_w, d_b)
        g = d_x
    return grads


def _pair_sq_sums(diff: np.ndarray) -> list[float]:
    """Exact squared-error sum of each pair in a [C, B, ...] batch difference."""
    sq = diff * diff
    try:
        sums = [math.fsum(sq[:, j].ravel().tolist()) for j in range(sq.shape[1])]
    except OverflowError as err:
        raise NonFiniteError("non-finite loss") from err
    if not all(math.isfinite(v) for v in sums):
        raise NonFiniteError("non-finite loss")
    return sums


def train(cfg: ModelConfig, train_pairs, val_pairs) -> tuple[ModelParams, TrainReport]:
    """SGD over shuffled mini-batches of (LR window, HR slice) pairs.

    The batch loss is the mean squared error over every element in the
    batch; a zero learning rate runs the full loop without updating, which
    is useful for baseline loss measurement.  The reported epoch loss is the
    mean squared error over every element of the epoch: each pair's squared
    errors are summed with math.fsum, and the per-pair sums again with
    math.fsum, so it does not depend on the shuffle or the batch split.
    Raises NonFiniteError with epoch/batch coordinates if the loss diverges.
    """
    cfg.validate()
    train_pairs = list(train_pairs)
    val_pairs = list(val_pairs)
    if not train_pairs or not val_pairs:
        raise ValueError("training and validation datasets must be non-empty")
    params = build_model(cfg, Rng(derive_seed(cfg.seed, _TAG_INIT)))
    for p in train_pairs + val_pairs:
        _check_patch(params, p.lr_patch)
    shuffle_rng = Rng(derive_seed(cfg.seed, _TAG_SHUFFLE))
    report = TrainReport()
    order = list(range(len(train_pairs)))
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        shuffle_rng.shuffle(order)
        pair_sq: list[float] = []
        elem_count = 0
        for b0 in range(0, len(order), cfg.batch_size):
            batch_no = b0 // cfg.batch_size
            batch = [train_pairs[i] for i in order[b0 : b0 + cfg.batch_size]]
            # [B, 1, ...] stacked then moved to channel-major batch layout
            xs = np.stack([p.lr_patch for p in batch]).transpose(1, 0, 2, 3, 4)
            ys = np.stack([p.hr_slice for p in batch]).transpose(1, 0, 2, 3, 4)
            xs = xs.astype(np.float64)
            try:
                out, caches = _forward_batch(params, xs, keep_caches=cfg.lr > 0)
                diff = out - ys
                pair_sq.extend(_pair_sq_sums(diff))
                if cfg.lr > 0:
                    d_out = (2.0 / diff.size) * diff
                    sgd_step(params, _backward_batch(params, caches, d_out), cfg.lr)
                caches = None  # free this batch's activations before the next forward
            except NonFiniteError as err:
                raise NonFiniteError(
                    f"training diverged at epoch {epoch}, batch {batch_no}: {err}"
                ) from err
            elem_count += diff.size
        try:
            report.train_losses.append(math.fsum(pair_sq) / elem_count)
        except OverflowError as err:
            raise NonFiniteError(
                f"training diverged at epoch {epoch}: loss sum overflows"
            ) from err
        report.val_psnrs.append(_validation_psnr(params, val_pairs))
        report.wall_times.append(time.perf_counter() - t0)
    report.params_checksum = params.checksum()
    return params, report


def _validation_psnr(params: ModelParams, val_pairs, chunk_size: int = 16) -> float:
    vals = []
    for i in range(0, len(val_pairs), chunk_size):
        chunk = val_pairs[i : i + chunk_size]
        xs = np.stack([p.lr_patch for p in chunk]).transpose(1, 0, 2, 3, 4)
        out, _ = _forward_batch(params, xs.astype(np.float64), keep_caches=False)
        for j, pair in enumerate(chunk):
            p = metrics.psnr(Tensor(out[:, j]), Tensor(pair.hr_slice), 1.0)
            if np.isfinite(p):
                vals.append(p)
    return float(np.mean(vals)) if vals else float("inf")


def _tile_origins(extent: int, tile: int, stride: int) -> list[int]:
    if tile >= extent:
        return [0]
    origins = list(range(0, extent - tile + 1, stride))
    if origins[-1] != extent - tile:
        origins.append(extent - tile)
    return origins


def infer_volume(
    params: ModelParams, lr_volume: Volume, tile_hw: int | None = None
) -> Volume:
    """Super-resolve every slice of a volume.

    Each output slice is reconstructed from the n-slice window centered on
    it (edge windows replicate the first/last slice).  Slices are processed
    as overlapping in-plane tiles (tile_hw, stride tile_hw/2) and overlaps
    are blended by uniform averaging; output intensities are clipped to
    [0, 1].
    """
    cfg = params.config
    n, r = cfg.feature_depth, cfg.scale
    vol = lr_volume.data.data
    depth, h, w = vol.shape
    if depth < n:
        raise ValueError(f"volume depth {depth} < window depth {n}")
    tile = min(tile_hw or cfg.patch_hw, h, w)
    stride = max(1, tile // 2)
    half = n // 2
    out = np.zeros((depth, h * r, w * r), dtype=np.float64)
    weight = np.zeros((h * r, w * r), dtype=np.float64)
    oys = _tile_origins(h, tile, stride)
    oxs = _tile_origins(w, tile, stride)
    for oy in oys:
        for ox in oxs:
            weight[oy * r : (oy + tile) * r, ox * r : (ox + tile) * r] += 1.0
    for c in range(depth):
        idx = np.clip(np.arange(c - half, c + half + 1), 0, depth - 1)
        window = vol[idx]
        for oy in oys:
            for ox in oxs:
                sr = forward(params, window[None, :, oy : oy + tile, ox : ox + tile])
                out[c, oy * r : (oy + tile) * r, ox * r : (ox + tile) * r] += sr[0, 0]
        out[c] /= weight
    dz, dy, dx = lr_volume.spacing
    return Volume(Tensor(np.clip(out, 0.0, 1.0)), (dz, dy / r, dx / r))


def _pack_tensor(a: np.ndarray) -> bytes:
    head = struct.pack("<B", a.ndim) + struct.pack(f"<{a.ndim}I", *a.shape)
    return head + a.astype("<f4").tobytes()


def _read(fmt: str, buf: bytes, off: int, what: str) -> tuple[tuple, int]:
    """Unpack ``fmt`` at ``off``; a buffer too short for it is a ValueError
    naming ``what`` was being read."""
    size = struct.calcsize(fmt)
    if off + size > len(buf):
        raise ValueError(f"checkpoint truncated in {what}")
    return struct.unpack_from(fmt, buf, off), off + size


def _unpack_tensor(buf: bytes, off: int) -> tuple[np.ndarray, int]:
    """A packed array as a new float32 array; NaN or Inf raises NonFiniteError."""
    (ndim,), off = _read("<B", buf, off, "tensor header")
    shape, off = _read(f"<{ndim}I", buf, off, "tensor shape")
    count = math.prod(shape)
    if off + 4 * count > len(buf):
        raise ValueError("checkpoint truncated in tensor payload")
    data = np.frombuffer(buf, dtype="<f4", count=count, offset=off).reshape(shape)
    if not np.isfinite(data).all():
        raise NonFiniteError("checkpoint tensor contains NaN or Inf")
    return data.astype(np.float32), off + 4 * count


def serialize_params(params: ModelParams) -> bytes:
    """Checkpoint layout: magic, u32 version, config block, u32 layer count,
    then per-layer weight and bias tensors (u8 ndim, u32 dims, f32le data)."""
    cfg = params.config
    out = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    out.append(
        struct.pack(
            "<7I",
            cfg.feature_depth,
            cfg.conv_layers,
            cfg.kernel,
            cfg.scale,
            cfg.epochs,
            cfg.batch_size,
            cfg.patch_hw,
        )
    )
    out.append(struct.pack("<Qd", cfg.seed, cfg.lr))
    out.append(struct.pack(f"<I{len(cfg.filters)}I", len(cfg.filters), *cfg.filters))
    out.append(struct.pack("<I", len(params.layers)))
    for layer in params.layers:
        out.append(_pack_tensor(layer.weights))
        out.append(_pack_tensor(layer.bias))
    return b"".join(out)


def deserialize_params(buf: bytes) -> ModelParams:
    """Parse a checkpoint; a malformed, truncated or over-long buffer raises
    ValueError, and a NaN or Inf parameter NonFiniteError (a ValueError)."""
    if buf[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise ValueError("not a model checkpoint (bad magic)")
    (version,), off = _read("<I", buf, len(CHECKPOINT_MAGIC), "version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    (n, l, k, r, epochs, batch, patch), off = _read("<7I", buf, off, "config")
    (seed, lr), off = _read("<Qd", buf, off, "config")
    (nf,), off = _read("<I", buf, off, "filter count")
    filters, off = _read(f"<{nf}I", buf, off, "filters")
    cfg = ModelConfig(n, l, filters, k, r, lr, seed, epochs, batch, patch)
    (n_layers,), off = _read("<I", buf, off, "layer count")
    plan = _layer_plan(cfg)
    if n_layers != len(plan):
        raise ValueError(f"checkpoint has {n_layers} layers, config implies {len(plan)}")
    layers = []
    for kind, geom, trim in plan:
        weights, off = _unpack_tensor(buf, off)
        bias, off = _unpack_tensor(buf, off)
        k1, k2, k3 = geom.kernel
        if kind == "conv":
            expect = (geom.out_channels, geom.in_channels, k1, k2, k3)
        else:
            expect = (geom.in_channels, geom.out_channels, k1, k2, k3)
        if weights.shape != expect or bias.shape != (geom.out_channels,):
            raise ValueError(
                f"checkpoint tensor shapes {weights.shape}/{bias.shape} do not match "
                f"the config's layer plan {expect}"
            )
        layers.append(Layer(kind, weights, bias, geom, trim))
    if off != len(buf):
        raise ValueError(f"{len(buf) - off} trailing bytes after checkpoint payload")
    return ModelParams(cfg, layers)


def save_checkpoint(params: ModelParams, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_params(params))


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        return deserialize_params(fh.read())
