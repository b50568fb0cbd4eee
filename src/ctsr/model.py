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

The transposed convolution writes exactly input*s in-plane.

Weights, biases, training pairs, activations and gradients are plain
float32 arrays: training, validation and inference run one float32 path.
Values are checked finite where they enter: volumes, checkpoints, weight
initialization, and each layer output and gradient.
"""

from __future__ import annotations

import math
import os
import struct
import time
import zlib
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import metrics, ops
from .ops import ConvGeometry
# not called here; benchmarks/tracing.py wraps them (see TestTracingContract)
from .ops import conv3d_forward, deconv3d_forward  # noqa: F401
from .tensor import NonFiniteError, Rng, Tensor, derive_seed, uniform_init
from .volume import Volume, upsampled_spacing

CHECKPOINT_MAGIC = b"3DECNN\0"
CHECKPOINT_VERSION = 1
# A checkpoint's config block: these ModelConfig fields, in this order, packed
# as _CONFIG_FORMAT, then the filters as a u32 count and that many u32s.
_CONFIG_FIELDS = (
    "feature_depth", "conv_layers", "kernel", "scale", "epochs", "batch_size", "patch_hw",
    "seed", "lr",
)
_CONFIG_FORMAT = "<7IQd"
# the block's u32 fields (besides the filters) and the largest value a u32
# holds: ModelConfig.problems() rejects a config the block cannot store
_U32_FIELDS = _CONFIG_FIELDS[:7]
_U32_MAX = 2 ** (8 * struct.calcsize("<I")) - 1

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
        for name in _U32_FIELDS:
            if getattr(self, name) > _U32_MAX:
                out.append(
                    f"{name} must be <= {_U32_MAX} (a u32 in the checkpoint), "
                    f"got {getattr(self, name)}"
                )
        if any(f > _U32_MAX for f in self.filters):
            out.append(
                f"filter counts must be <= {_U32_MAX} (u32s in the checkpoint), "
                f"got {self.filters}"
            )
        if not out:  # every geometry of the plan is valid: size its float32 parameters
            need = 4 * sum(math.prod(g.weight_shape(kind == "deconv")) + g.out_channels
                           for kind, g, _ in _layer_plan(self))
            have = physical_memory_bytes()
            if need > have:
                out.append(
                    f"kernel {self.kernel} and filters {self.filters} make {need} bytes of "
                    f"parameters, more than the {have} bytes of physical memory"
                )
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
    # rows/cols by which a deconv's in-plane output falls short of its
    # textbook extents (negative: reaches beyond them), so that it is
    # exactly input*s
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


def physical_memory_bytes() -> int:
    """This machine's physical memory: no allocation larger can succeed."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _layer_plan(cfg: ModelConfig) -> list[tuple[str, ConvGeometry, tuple[int, int]]]:
    """The stack structure of a config: (kind, geometry, in-plane trim) per
    layer.  It takes a valid config and does not check it; ``problems``
    calls it only once every other check has passed."""
    k, r = cfg.kernel, cfg.scale
    same = (0, (k - 1) // 2, (k - 1) // 2)
    plan = []
    depth = cfg.feature_depth
    c_in = 1
    for i in range(cfg.conv_layers):
        kd = min(k, depth)
        plan.append(("conv", ConvGeometry(c_in, cfg.filters[i], (kd, k, k), 1, same), (0, 0)))
        depth = depth - kd + 1
        c_in = cfg.filters[i]
    # transposed conv: upsample H,W by r, keep depth
    p_hw = max(0, (k - r) // 2)
    excess = k - r - 2 * p_hw  # 1 when k-r is odd, negative when k < r
    geom = ConvGeometry(c_in, cfg.filters[cfg.conv_layers], (1, k, k), (1, r, r), (0, p_hw, p_hw))
    plan.append(("deconv", geom, (excess, excess)))
    c_in = cfg.filters[cfg.conv_layers]
    # final smoothing conv collapses the remaining depth into one slice
    plan.append(("conv", ConvGeometry(c_in, cfg.filters[-1], (depth, k, k), 1, same), (0, 0)))
    return plan


def build_model(cfg: ModelConfig, rng: Rng) -> ModelParams:
    """Initialize the stack: weights uniform in +/- sqrt(6/fan_in) with
    fan_in = C_in*k1*k2*k3 (He-uniform), biases zero.

    The sqrt(6) factor keeps activation magnitudes roughly constant through
    the ReLU stack; a plain 1/sqrt(fan_in) bound shrinks activations ~2.4x
    per layer, which leaves plain SGD at small learning rates stuck at a
    mean predictor on desk-scale epoch budgets.
    """
    cfg.validate()
    layers = []
    for kind, geom, trim in _layer_plan(cfg):
        bound = np.sqrt(6.0 / (geom.in_channels * math.prod(geom.kernel)))
        weights = uniform_init(geom.weight_shape(kind == "deconv"), -bound, bound, rng)
        bias = np.zeros(geom.out_channels, dtype=np.float32)
        layers.append(Layer(kind, weights, bias, geom, trim))
    return ModelParams(cfg, layers)


def _check_patch(params: ModelParams, patch: np.ndarray, stacked: bool = False) -> None:
    """A window [1, n, h, w] for the model's depth n, or with ``stacked`` a
    stack [B, n, h, w] of B >= 1 windows; anything else is a ValueError."""
    n = params.config.feature_depth
    windows_ok = patch.ndim == 4 and (patch.shape[0] >= 1 if stacked else patch.shape[0] == 1)
    if not windows_ok or patch.shape[1] != n:
        lead = "B" if stacked else "1"
        raise ValueError(
            f"patch shape {patch.shape} incompatible with model (expected [{lead}, {n}, h, w])"
        )


def _forward_batch(params: ModelParams, xs: np.ndarray, keep_caches: bool):
    """Forward over a [C=1, B, n, h, w] batch, the one driver of the stack.

    Every layer computes in the dtype of ``xs``.  Training, validation and
    ``forward`` all pass float32, the parameters' dtype, so a sample's
    output is the same bits in any batch and in inference; for a float64
    ``xs`` (the finite-difference tests) numpy promotes the float32
    parameters inside the engine's GEMMs.  A layer whose output is not
    finite raises NonFiniteError naming it (ReLU would turn a -inf into a
    silent zero).

    With ``keep_caches`` it also returns each layer's input, all that the
    backward reads besides the parameters.  The next layer's input is the
    ReLU mask, positive exactly where the pre-activation is.  ReLU runs in
    place on each layer's output, so no layer holds a pre-activation copy.
    """
    caches = []
    h = xs
    last = len(params.layers) - 1
    for i, layer in enumerate(params.layers):
        w, b = layer.weights, layer.bias
        # a value beyond the dtype fails the check below; the engine's pool
        # threads run in copies of this context, so the errstate holds there
        with np.errstate(over="ignore", invalid="ignore"):
            if layer.kind == "conv":
                z = ops._conv_fwd_b(h, w, b, layer.geom)
            else:
                d, oh, ow = layer.geom.deconv_output_shape(h.shape[2:])
                th, tw = layer.trim_hw
                z = ops._deconv_fwd_b(h, w, b, layer.geom, (d, oh - th, ow - tw))
        if not np.isfinite(z).all():
            raise NonFiniteError(f"non-finite output in layer {i}")
        if keep_caches:
            caches.append(h)
        h = np.maximum(z, 0.0, out=z) if i < last else z
    return h, caches


def forward(params: ModelParams, lr_patch: np.ndarray) -> np.ndarray:
    """Super-resolve a stack of B windows [B, n, h, w] of low-res slices
    into B float32 slices [B, 1, h*scale, w*scale].  The input is cast to
    float32 and must be finite there; the stack runs as one
    ``_forward_batch`` of B samples, in float32, so each slice is the bits
    that the window gives alone and that training's validation computes for
    it.  Each layer runs one pool task per window; on fewer windows than
    CPUs the engine also splits each wide conv's output rows into blocks
    (``ops._gather_pass``), so even one large window uses every CPU."""
    with np.errstate(over="ignore"):  # a value beyond float32 fails the check below
        x = np.asarray(lr_patch, np.float32)
    _check_patch(params, x, stacked=True)
    if not np.isfinite(x).all():
        raise NonFiniteError("non-finite input patch")
    out, _ = _forward_batch(params, x[None], keep_caches=False)
    return out[0]


def _backward_batch(params: ModelParams, caches, d_out: np.ndarray):
    """Batched adjoint of _forward_batch; returns per-layer (d_w, d_b) in the
    batch's dtype.

    It consumes ``caches``: each entry is set to None once its layer input
    has been read for the last time (as the layer's input, then as the ReLU
    mask of the layer below), so the activations are freed as the pass goes
    down the stack.  The mask is applied to the gradient in place.  As in
    the forward, overflow raises no warning: a gradient that is not finite
    fails ``sgd_step``'s check, which names the layer.
    """
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.layers)
    g = d_out
    with np.errstate(over="ignore", invalid="ignore"):
        for i in reversed(range(len(params.layers))):
            layer, x_in = params.layers[i], caches[i]
            if i + 1 < len(caches):  # the next layer's input is this one's ReLU mask
                np.copyto(g, 0.0, where=caches[i + 1] <= 0)
                caches[i + 1] = None
            bwd_b = ops._conv_bwd_b if layer.kind == "conv" else ops._deconv_bwd_b
            d_w, d_b, g = bwd_b(x_in, layer.weights, layer.geom, g, i > 0)
            grads[i] = (d_w, d_b)
    caches[0] = None
    return grads


def _pair_sq_sums(diff: np.ndarray) -> list[float]:
    """Exact squared-error sum of each pair in a [C, B, ...] batch difference.

    The squares are taken in float64, where the product of two float32
    values is exact and cannot overflow, so the sums do not depend on the
    order of the pairs and a large error is not mistaken for divergence."""
    sq = np.square(diff, dtype=np.float64)
    try:
        sums = [math.fsum(sq[:, j].ravel().tolist()) for j in range(sq.shape[1])]
    except OverflowError as err:
        raise NonFiniteError("non-finite loss") from err
    if not all(math.isfinite(v) for v in sums):
        raise NonFiniteError("non-finite loss")
    return sums


def _channel_major(arrays) -> np.ndarray:
    """Same-shaped [C, D, H, W] arrays in channel-major batch layout
    [C, B, D, H, W]: stacked as [B, C, ...], then a transposed view."""
    return np.stack(arrays).transpose(1, 0, 2, 3, 4)


def sgd_step(params: ModelParams, grads, lr: float) -> None:
    """In-place w -= lr*dw, b -= lr*db over every layer of ``params``.

    The float32 ``weights`` and ``bias`` of each of ``params.layers`` are
    updated in place; ``grads`` is the matching sequence of (d_w, d_b)
    arrays.  Every layer's gradients are cast to float32, the parameters'
    dtype, and its stepped values computed and checked before the first
    write, so a gradient or step that is not finite in float32 aborts with
    the offending layer named and leaves every parameter unchanged.
    """
    if not np.isfinite(lr) or lr <= 0:
        raise ValueError(f"learning rate must be finite and > 0, got {lr}")
    layers = list(params.layers)
    grads = list(grads)
    if len(layers) != len(grads):
        raise ValueError(f"{len(grads)} gradient sets for {len(layers)} layers")
    f32lr = np.float32(lr)
    stepped = []
    for idx, (layer, (d_w, d_b)) in enumerate(zip(layers, grads)):
        d_w, d_b = np.asarray(d_w), np.asarray(d_b)
        if d_w.shape != layer.weights.shape or d_b.shape != layer.bias.shape:
            raise ValueError(
                f"layer {idx}: gradient shapes {d_w.shape}/{d_b.shape} "
                f"do not match parameters {layer.weights.shape}/{layer.bias.shape}"
            )
        # a gradient or a step beyond float32 fails the check below
        with np.errstate(over="ignore", invalid="ignore"):
            w = layer.weights - f32lr * d_w.astype(np.float32, copy=False)
            b = layer.bias - f32lr * d_b.astype(np.float32, copy=False)
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise NonFiniteError(f"non-finite update in layer {idx}")
        stepped.append((layer, w, b))
    for layer, w, b in stepped:
        layer.weights[...] = w
        layer.bias[...] = b


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
            xs = _channel_major([p.lr_patch for p in batch])
            ys = _channel_major([p.hr_slice for p in batch])
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
    return params, report


def _validation_psnr(params: ModelParams, val_pairs) -> float:
    vals = []
    step = params.config.batch_size
    for i in range(0, len(val_pairs), step):
        chunk = val_pairs[i : i + step]
        xs = _channel_major([p.lr_patch for p in chunk])
        out, _ = _forward_batch(params, xs, keep_caches=False)
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
    [0, 1].  A slice's tiles go through ``forward`` in stacks of one tile
    per CPU, in row-major order, so that each layer runs one pool task per
    tile; a tile's output is the same bits in any stack, and the overlaps
    are summed in the same order.
    ``tile_hw`` None is the patch size; a tile below one or an invalid
    output spacing raises ValueError before any slice is computed.
    """
    cfg = params.config
    n, r = cfg.feature_depth, cfg.scale
    vol = lr_volume.data.data
    depth, h, w = vol.shape
    if depth < n:
        raise ValueError(f"volume depth {depth} < window depth {n}")
    if tile_hw is not None and tile_hw < 1:
        raise ValueError(f"tile_hw must be >= 1, got {tile_hw}")
    spacing = upsampled_spacing(lr_volume.spacing, r)
    tile = min(cfg.patch_hw if tile_hw is None else tile_hw, h, w)
    stride = max(1, tile // 2)
    half = n // 2
    out = np.empty((depth, h * r, w * r), dtype=np.float32)
    acc = np.empty((h * r, w * r), dtype=np.float64)
    weight = np.zeros((h * r, w * r), dtype=np.float64)
    origins = list(product(_tile_origins(h, tile, stride), _tile_origins(w, tile, stride)))
    for oy, ox in origins:
        weight[oy * r : (oy + tile) * r, ox * r : (ox + tile) * r] += 1.0
    for c in range(depth):
        idx = np.clip(np.arange(c - half, c + half + 1), 0, depth - 1)
        window = vol[idx]
        acc.fill(0.0)
        for s0 in range(0, len(origins), ops._CPUS):
            stack = origins[s0 : s0 + ops._CPUS]
            sr = forward(params, np.stack([window[:, oy : oy + tile, ox : ox + tile]
                                           for oy, ox in stack]))
            for (oy, ox), tile_sr in zip(stack, sr):
                acc[oy * r : (oy + tile) * r, ox * r : (ox + tile) * r] += tile_sr[0]
        acc /= weight
        out[c] = np.clip(acc, 0.0, 1.0, out=acc)
    return Volume(Tensor(out), spacing)


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
    out.append(struct.pack(_CONFIG_FORMAT, *(getattr(cfg, name) for name in _CONFIG_FIELDS)))
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
    values, off = _read(_CONFIG_FORMAT, buf, off, "config")
    (nf,), off = _read("<I", buf, off, "filter count")
    filters, off = _read(f"<{nf}I", buf, off, "filters")
    cfg = ModelConfig(filters=filters, **dict(zip(_CONFIG_FIELDS, values)))
    (n_layers,), off = _read("<I", buf, off, "layer count")
    cfg.validate()
    plan = _layer_plan(cfg)
    if n_layers != len(plan):
        raise ValueError(f"checkpoint has {n_layers} layers, config implies {len(plan)}")
    layers = []
    for kind, geom, trim in plan:
        weights, off = _unpack_tensor(buf, off)
        bias, off = _unpack_tensor(buf, off)
        expect = geom.weight_shape(kind == "deconv")
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
