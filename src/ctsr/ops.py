"""The network's convolution engine: forward and backward passes.

One engine computes every convolution and transposed convolution, on
arrays in channel-major batch layout [C, B, D, H, W], in the dtype of the
arrays it is given.  The model drives it directly for training,
validation and inference, all in float32, the parameters' dtype.  The
public ops ``conv3d_forward`` and ``deconv3d_forward`` are forward-only
wrappers that take float32 [C, D, H, W] arrays, run the engine with B = 1
in float64 and cast the result back to float32.

Two primitives, each one pass over the samples with one GEMM per sample
over all kernel taps, serve every layer: the im2col gather pass
(``_gather_pass``), which copies sample n's columns cols_n and takes
W @ cols_n, the weight gradient term G_n @ cols_n^T or both, and its
adjoint W^T @ G_n, whose tap rows are added onto their windows of the
sample's grid (``_conv_adjoint``).  No column matrix of a batch is built,
and no sample's forward or input gradient depends on another sample.

* Transposed conv: by definition the adjoint of the conv with the same
  kernel, stride and padding and swapped channels (Dumoulin & Visin,
  arXiv:1603.07285), whose weight block [C_out', C_in', k1, k2, k3] is the
  transposed conv's [C_in, C_out, k1, k2, k3] in the same memory.  Its
  forward is that conv's input gradient and its backward that conv's
  forward and weight gradient, so <conv(x), y> == <x, deconv(y)> for zero
  bias holds by construction.  The caller picks its output extents, a
  free choice over the fixed adjoint (ibid.): taps that reach past them
  are cropped at the bottom/right, and outputs that no tap reaches hold
  the bias.
* Conv with more than ``_DIRECT_MAX_COUT`` output channels, a stride above
  one or padding of at least the kernel ("wide"): the forward is the
  gather, d_w sums G_n @ cols_n^T and d_x is the adjoint.
* Other convs ("narrow": the final few-channel conv at the upsampled
  resolution): a stride-1 conv is the transposed conv of the same kernel
  flipped on every spatial axis, with the channels swapped and padding
  k - 1 - p (ibid.), so it runs as that transposed conv.  Its gathers then
  read the few-channel output gradient, whose columns are small, never the
  wide input.

Per-sample loops on a thread pool.  The two primitives run one task per
sample, and ``_each_sample`` runs their loop on a module thread pool, made
on first use, with up to min(CPUs, tasks) tasks at once, when there is more
than one task and each task's whole scratch matrix (the gather's K x N
columns, or the rows x N of W^T @ G_n) has at least ``_POOL_MIN_ELEMENTS``
= 2^18 elements; otherwise on the calling thread.  Much of a wide layer's
time is numpy's single-threaded, memory-bound gather and tap scatter, which
a second BLAS thread does not speed up and a second task does, so the
package defaults BLAS to one thread (``ctsr/__init__.py``).  Below the
cutoff the hand-off, and the narrow layers' per-tap Python loop contending
for the GIL, cost the narrow layers more than they save; only the paper's
L0 would gain, 2 ms a call.  Milliseconds per call on float32 arrays, the
engine's dtype, at B = 16, 32x32 patches, one BLAS thread, 2 vCPUs
(medians of 15 calls, serial -> pooled, measured before the forward gather
went in row chunks; "zero" pools every loop):

    layer                   per-task matrix    forward          backward
    paper L1 conv 64->64    1728 x 1024        106 -> 64        208 -> 126
    paper L2 conv 64->32     576 x 1024         21 -> 14         53 -> 32
    paper L3 deconv 32->32   288 x 1024         25 -> 16         23 -> 15
    grid L1 conv 16->4 k=3   108 x 3072         14 -> 11         15 -> 9
    paper L0 conv 1->64       27 x 3072   zero:  8 -> 6    zero:  9 -> 7
    grid narrow conv k=5     100 x 1024   zero:  7 -> 10   zero:  5 -> 4
    grid narrow conv 4->1      9 x 4096   zero:  2 -> 4    zero:  1 -> 3

Row chunks.  A float32 forward gather (a pass without d_w) never builds a
task's whole K x N columns: it gathers whole output rows at a time, as many
as fit in ``_GATHER_CHUNK_ELEMENTS`` = 2^18 elements (1 MB, half of a 2 MB
L2 cache), and multiplies them by W while they are still in cache.  At a
32x32 tile the paper's L1 takes 4 rows (1728 x 128) and L2 14 rows
(576 x 448).  Whole -> chunked, pooled, one BLAS thread, 2 vCPUs (medians
of 41 and 15 calls): L1 forward 7.6 -> 6.3 ms at B = 2 and 56 -> 46 ms at
B = 16; L2 2.1 -> 2.0 and 11.3 -> 10.9 ms.  The per-task scratch is one
chunk, so a stack of B tiles costs B chunks, not B whole column matrices,
which lets ``model.infer_volume`` run a slice's tiles one per CPU at a lower
peak RSS than one tile at a time.  The d_w passes keep whole columns:
chunking them would regroup d_w's sum.

Row blocks at B < CPUs.  A float32 forward gather on fewer samples than
CPUs (a lone inference tile, or a slice's last, short stack of tiles)
splits each sample's output rows into up to CPUs // B blocks, one task
each, when a block's whole columns reach the cutoff.  A block of whole rows
is a contiguous column range of cols_n, and its task writes W @ those
columns into its slice of out, chunk by chunk.  A sample of several chunks
splits between chunks, so its GEMMs are the same chunks at any B and any
block count; only a sample of one chunk, below the cutoff unless the cutoff
is lowered, splits inside it.  Every other pass keeps one task per sample:
a d_w pass split by columns would regroup d_w's sum over them, the
adjoint's tap windows overlap between positions, and a split of W's rows
would pack the whole column matrix once per part.

The pooled results are the serial ones bit for bit: each sample's GEMM
keeps its operands and shape (a GEMM element can depend on the extent of
the other operand), each task writes only its own slices, and d_w is
summed from zero in sample order on the calling thread.  Chunks and row
blocks change a GEMM's column extent, so they keep its bits only where the
column tiles of OpenBLAS's sgemm round alike, which is found by test, not
by 16-column alignment.  Row blocks did in every whole-row split of the
paper's layers and in 296 of 296 float32 whole-row splits above the cutoff
(K 27 to 1728, C_out 5 to 64, rows of 16 to 170 columns), but not in 126
of the same splits in float64, so float64 passes never split or chunk.
Chunks of the 2^18 rule keep the paper's whole-column bits at B = 1 and 2
(``TestChunkedGather``, ``TestBatchedInference``); 1-row L2 chunks do not,
and nor did 5-row L1 chunks counted from each row block's start, which
moved 2913 outputs of the benchmark's inference fold by up to 2.2e-7.
Each task in flight beyond the first costs one more scratch array,
allocated by the caller, all in one block, so that no worker thread's
malloc arena keeps it and glibc keeps the block's pages from call to
call: at the paper's L1 a 0.9 MB chunk (1728 x 128 float32) in the
forward, and the whole 7 MB (1728 x 1024) in the d_w pass and the adjoint.
"""

from __future__ import annotations

import contextvars
import math
import os
import queue
from dataclasses import dataclass
from itertools import product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _as_triple(v, name: str) -> tuple[int, int, int]:
    if isinstance(v, (int, np.integer)):
        t = (int(v),) * 3
    else:
        t = tuple(int(x) for x in v)
    if len(t) != 3:
        raise ValueError(f"{name} must be an int or a 3-tuple, got {v!r}")
    return t


@dataclass(frozen=True)
class ConvGeometry:
    """Channel counts, kernel extents, per-axis stride and zero-padding.

    ``stride`` and ``padding`` accept a single int (isotropic) or a 3-tuple
    ordered (depth, height, width), like ``kernel``.
    """

    in_channels: int
    out_channels: int
    kernel: tuple[int, int, int]
    stride: tuple[int, int, int] = (1, 1, 1)
    padding: tuple[int, int, int] = (0, 0, 0)

    def __post_init__(self):
        object.__setattr__(self, "kernel", _as_triple(self.kernel, "kernel"))
        object.__setattr__(self, "stride", _as_triple(self.stride, "stride"))
        object.__setattr__(self, "padding", _as_triple(self.padding, "padding"))
        if self.in_channels < 1 or self.out_channels < 1:
            raise ValueError("channel counts must be >= 1")
        if min(self.kernel) < 1:
            raise ValueError(f"kernel extents must be >= 1, got {self.kernel}")
        if min(self.stride) < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if min(self.padding) < 0:
            raise ValueError(f"padding must be >= 0, got {self.padding}")

    def weight_shape(self, transposed: bool) -> tuple[int, ...]:
        """The weight block's shape: [C_out, C_in, k1, k2, k3] for a conv,
        [C_in, C_out, k1, k2, k3] for a transposed conv."""
        channels = (self.in_channels, self.out_channels)
        return (channels if transposed else channels[::-1]) + self.kernel

    def conv_output_shape(self, spatial: tuple[int, int, int]) -> tuple[int, int, int]:
        return self._output_shape("conv", spatial, lambda n, k, s, p: (n + 2 * p - k) // s + 1)

    def deconv_output_shape(self, spatial: tuple[int, int, int]) -> tuple[int, int, int]:
        return self._output_shape("deconv", spatial, lambda n, k, s, p: (n - 1) * s + k - 2 * p)

    def _output_shape(self, kind: str, spatial, extent) -> tuple[int, int, int]:
        """Per axis, ``extent(input, kernel, stride, padding)``: the conv and
        transposed-conv extents of Dumoulin & Visin (arXiv:1603.07285).  An
        extent below one is a ValueError naming the axis."""
        out = []
        for ax, (n, k, s, p) in enumerate(zip(spatial, self.kernel, self.stride, self.padding)):
            o = extent(n, k, s, p)
            if o < 1:
                raise ValueError(
                    f"{kind} output extent {o} on axis {ax} "
                    f"(input {n}, kernel {k}, stride {s}, padding {p})"
                )
            out.append(o)
        return tuple(out)


def _check_conv_args(x, weights, bias, geom: ConvGeometry, transposed: bool):
    if x.ndim != 4:
        raise ValueError(f"input must be [C, D, H, W], got shape {x.shape}")
    expect_w = geom.weight_shape(transposed)
    if weights.shape != expect_w:
        raise ValueError(f"weights shape {weights.shape} != expected {expect_w}")
    if x.shape[0] != geom.in_channels:
        raise ValueError(f"input has {x.shape[0]} channels, geometry says {geom.in_channels}")
    if bias.shape != (geom.out_channels,):
        raise ValueError(f"bias shape {bias.shape} != ({geom.out_channels},)")


# ---------------------------------------------------------------------------
# The engine.
#
# Arrays are in channel-major batch layout [C, B, D, H, W], so that a whole
# mini-batch shares each call, and every array the engine makes has the dtype
# of its input: the model passes float32, the public ops further down float64
# at B = 1.
# ---------------------------------------------------------------------------


def _window(tap, stride, n_positions):
    """Per axis, the slice of a padded grid that kernel tap ``tap`` reads
    for every one of ``n_positions`` outputs."""
    return tuple(slice(t, t + s * n, s) for t, s, n in zip(tap, stride, n_positions))


# A per-sample loop whose whole scratch matrix (a gather's columns, or the rows
# of W^T @ G_n) has fewer elements than this runs on the calling thread; see the
# module docstring for the measurements behind it.
_POOL_MIN_ELEMENTS = 1 << 18
# A float32 forward gather fills and multiplies its columns in chunks of whole
# output rows of at most this many scratch elements (1 MB, half of a 2 MB L2
# cache): the pool's cutoff, under a name of its own so that a test that moves
# the cutoff to compare pooled with serial bits leaves the chunks as they are.
_GATHER_CHUNK_ELEMENTS = _POOL_MIN_ELEMENTS
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = None  # made on first use, so that a process that never pools starts no thread


def _forget_pool():
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_forget_pool)  # a forked child has no pool threads


def _pools(n_tasks: int, task_elements: int) -> bool:
    """Whether ``_each_sample`` runs ``n_tasks`` tasks, each with a scratch
    matrix of ``task_elements`` elements in all, on the pool."""
    return min(_CPUS, n_tasks) > 1 and task_elements >= _POOL_MIN_ELEMENTS


def _each_sample(task, n_tasks: int, task_elements: int, scratch_shape, dtype):
    """The results of ``task(n, scratch)`` for n = 0 .. n_tasks - 1, in
    task order, where scratch is an array of ``scratch_shape`` and
    ``dtype`` that the task may overwrite.

    A task writes only its own slices of the output.  ``task_elements`` is
    the size of a task's whole scratch matrix, which the task may fill
    through ``scratch`` one part at a time.  With one task, one CPU or
    ``task_elements`` below ``_POOL_MIN_ELEMENTS`` the tasks run here, one
    after another; otherwise on the module's thread pool, at most
    min(CPUs, n_tasks) at once.  The scratch arrays, one per task in
    flight, are allocated here in one block, so no worker thread allocates
    a large array and glibc keeps the block's pages between calls rather
    than returning and faulting in each array.
    An exception in a task is raised here, with its own type.  A pooled
    task runs in its own copy of the caller's context, so numpy's
    ``errstate``, which is context-local, holds for it as it does here.
    """
    workers = min(_CPUS, n_tasks)
    if not _pools(n_tasks, task_elements):
        scratch = np.empty(scratch_shape, dtype)
        return (task(n, scratch) for n in range(n_tasks))
    global _pool
    if _pool is None:
        # imported here: concurrent.futures loads logging, 0.7 MB of RSS that
        # a process which never pools (evaluation, small-tile inference) need not pay
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(_CPUS, thread_name_prefix="ctsr-ops")
    free = queue.SimpleQueue()
    for scratch in np.empty((workers,) + tuple(scratch_shape), dtype):
        free.put(scratch)

    def run(n):
        scratch = free.get()
        try:
            return task(n, scratch)
        finally:
            free.put(scratch)

    # one context per task: two threads cannot enter the same context at once
    contexts = [contextvars.copy_context() for _ in range(n_tasks)]
    return _pool.map(lambda ctx, n: ctx.run(run, n), contexts, range(n_tasks))


# A conv with few output channels (the final smoothing conv) skips im2col of
# its input: that column matrix would be k1*k2*k3 times the input, which is
# largest at the upsampled resolution.
_DIRECT_MAX_COUT = 4


def _narrow(geom: ConvGeometry) -> bool:
    """Whether the conv runs as the transposed conv of its flipped kernel:
    few output channels, stride one, and padding below the kernel so that
    the flipped conv's padding k - 1 - p is not negative."""
    return (
        geom.out_channels <= _DIRECT_MAX_COUT
        and geom.stride == (1, 1, 1)
        and all(p < k for p, k in zip(geom.padding, geom.kernel))
    )


def _flipped(geom: ConvGeometry, w):
    """(conv B, B's weight block) where B's adjoint is the stride-1 conv
    ``geom``: channels swapped, padding k - 1 - p, and the kernel flipped on
    every spatial axis (Dumoulin & Visin, arXiv:1603.07285)."""
    pad = tuple(k - 1 - p for k, p in zip(geom.kernel, geom.padding))
    conv = ConvGeometry(geom.out_channels, geom.in_channels, geom.kernel, 1, pad)
    return conv, np.flip(w, axis=(2, 3, 4)).swapaxes(0, 1)


def _gather_pass(xs, geom: ConvGeometry, out_sp, w=None, other=None):
    """(out, d_w) from one im2col gather of xs [C_in, B, *in_sp] for the
    conv ``geom`` with output extents out_sp.

    Per sample n, cols_n [C_in*k1*k2*k3, N] holds the sample's columns, rows
    in (c, i, j, k) order to match a reshaped weight block and columns
    row-major over the output grid; one sliding-window view of the padded
    batch serves every sample.  out [C_out, B, *out_sp] holds W @ cols_n for
    the weight block w, and d_w, shaped like a weight block of ``geom``, the
    sum of other_n @ cols_n^T over samples for other [C_out, B, *out_sp];
    each is None when its operand is.

    A float32 pass without ``other`` (the forward) fills and multiplies
    each sample's columns in chunks of whole output rows, along its first
    axis with extent above one: each chunk has as many rows as fit in
    ``_GATHER_CHUNK_ELEMENTS`` scratch elements, at least one.  The axes
    before that one have extent one, so a chunk is a contiguous column
    range of cols_n, and W @ it goes into its slice of out while the chunk
    is in cache.  On fewer samples than CPUs such a pass also splits each
    sample's rows into up to CPUs // B blocks, one task each, when a
    block's whole columns reach the pool's cutoff.  The blocks are runs of
    whole chunks when the sample has several, so every chunk, and with it
    every GEMM, is the same at any B; a sample of one chunk splits its rows.
    Every other pass takes a sample's whole columns in one task.
    """
    if any(geom.padding):
        xs = np.pad(xs, ((0, 0), (0, 0)) + tuple((p, p) for p in geom.padding))
    win = sliding_window_view(xs, geom.kernel, axis=(2, 3, 4))
    win = win[(slice(None),) * 2 + _window((0, 0, 0), geom.stride, out_sp)]
    win = win.transpose(0, 1, 5, 6, 7, 2, 3, 4)
    c_out, n_samples = geom.out_channels, xs.shape[1]
    k_rows = xs.shape[0] * math.prod(geom.kernel)
    ax = next((a for a, e in enumerate(out_sp) if e > 1), 0)
    rows, row_cols = out_sp[ax], math.prod(out_sp[ax + 1 :])
    chunked = other is None and xs.dtype == np.float32
    chunk = max(1, min(rows, _GATHER_CHUNK_ELEMENTS // (k_rows * row_cols))) if chunked else rows
    n_chunks = -(-rows // chunk)
    cuts, block_rows = [0, rows], rows
    if chunked and n_samples < _CPUS:
        # blocks of whole chunks, or of rows when the sample is one chunk
        step, units = (chunk, n_chunks) if n_chunks > 1 else (1, rows)
        split = min(_CPUS // n_samples, units)
        widest = min(rows, step * -(-units // split))
        if _pools(n_samples * split, k_rows * widest * row_cols):
            cuts = [min(rows, step * (units * i // split)) for i in range(split + 1)]
            block_rows = widest
    blocks = len(cuts) - 1
    out = None if w is None else np.empty((c_out, n_samples) + tuple(out_sp), xs.dtype)
    out_cols = None if w is None else out.reshape(c_out, n_samples, -1)
    wm = None if w is None else w.reshape(c_out, -1)

    def task(t, scratch):
        n, part = divmod(t, blocks)
        for r0 in range(cuts[part], cuts[part + 1], chunk):
            r1 = min(r0 + chunk, cuts[part + 1])
            src = win[:, n][(slice(None),) * (4 + ax) + (slice(r0, r1),)]
            cols = scratch.reshape(-1)[: src.size].reshape(k_rows, -1)
            np.copyto(cols.reshape(src.shape), src)
            if w is not None:
                np.matmul(wm, cols, out=out_cols[:, n, r0 * row_cols : r1 * row_cols])
        return None if other is None else other[:, n].reshape(c_out, -1) @ cols.T

    task_elements = k_rows * block_rows * row_cols
    scratch_shape = (k_rows, min(chunk, block_rows) * row_cols)
    d_w = None if other is None else np.zeros((c_out, k_rows), xs.dtype)
    for d_w_n in _each_sample(task, n_samples * blocks, task_elements, scratch_shape, xs.dtype):
        if d_w is not None:
            d_w += d_w_n
    return out, None if d_w is None else d_w.reshape(geom.weight_shape(False))


def _conv_adjoint(g, w, geom: ConvGeometry, in_sp, seed=None):
    """The adjoint of the conv ``geom`` applied to g [C_out, B, *out_sp]: its
    input gradient [C_in, B, *in_sp], which is the transposed conv of g.

    Per sample n, W^T @ G_n gives each tap's rows, added onto the tap's
    window of the sample's padded grid, which on each axis reaches
    max(n + 2p, (o - 1)s + k).  The sum starts from ``seed[c]`` for channel
    c (zero when None), so input rows that no window reads keep that value.
    The result is a C-contiguous array: the padding, and the taps' rows past
    in_sp, are cropped off by a copy.
    """
    c_out, c_in = geom.out_channels, geom.in_channels
    out_sp = g.shape[2:]
    shape = (c_in, g.shape[1]) + tuple(
        max(n + 2 * p, (o - 1) * s + k)
        for n, p, o, s, k in zip(in_sp, geom.padding, out_sp, geom.stride, geom.kernel)
    )
    if seed is None:
        d_pad = np.zeros(shape, g.dtype)
    else:
        d_pad = np.full(shape, seed.reshape(c_in, 1, 1, 1, 1), g.dtype)
    wt = w.reshape(c_out, -1).T
    windows = [(slice(None),) + _window(tap, geom.stride, out_sp)
               for tap in product(*(range(k) for k in geom.kernel))]

    def scatter(n, d_cols):
        np.matmul(wt, g[:, n].reshape(c_out, -1), out=d_cols)
        d_cols = d_cols.reshape((c_in, len(windows)) + out_sp)
        d_pad_n = d_pad[:, n]
        for t, window in enumerate(windows):
            d_pad_n[window] += d_cols[:, t]

    scratch_shape = (c_in * len(windows), math.prod(out_sp))
    for _ in _each_sample(scatter, g.shape[1], math.prod(scratch_shape), scratch_shape, g.dtype):
        pass
    crop = (slice(None),) * 2 + _window(geom.padding, (1, 1, 1), in_sp)
    return np.ascontiguousarray(d_pad[crop])


def _conv_fwd_b(xs, w, b, geom: ConvGeometry):
    """out [C_out, B, *out_sp] of the conv of xs [C_in, B, *in_sp]: the sum
    over taps and input channels, then the bias.  Wide layers take W @ cols_n
    per sample; narrow layers the adjoint of ``_flipped(geom)``."""
    out_sp = geom.conv_output_shape(xs.shape[2:])
    if _narrow(geom):
        conv, wb = _flipped(geom, w)
        out = _conv_adjoint(xs, wb, conv, out_sp)
    else:
        out, _ = _gather_pass(xs, geom, out_sp, w=w)
    out += b[:, None, None, None, None]
    return out


def _conv_bwd_b(xs, w, geom: ConvGeometry, g, need_dx: bool):
    """(d_w, d_b, d_xs) of _conv_fwd_b for input xs and output gradient
    g [C_out, B, *out_sp]; d_xs is None unless ``need_dx``.

    Wide layers sum d_w = G_n @ cols_n^T over samples n and take d_xs from
    ``_conv_adjoint``.  A narrow layer is the adjoint of ``_flipped(geom)``,
    so its d_xs is that conv of g and its d_w, flipped back, that conv's
    weight gradient, both from one gather of g's few-channel columns."""
    d_b = g.reshape(geom.out_channels, -1).sum(axis=1)
    if _narrow(geom):
        conv, wb = _flipped(geom, w)
        d_xs, d_wb = _gather_pass(g, conv, xs.shape[2:], wb if need_dx else None, xs)
        return np.flip(d_wb.swapaxes(0, 1), axis=(2, 3, 4)), d_b, d_xs
    _, d_w = _gather_pass(xs, geom, g.shape[2:], other=g)
    d_xs = _conv_adjoint(g, w, geom, xs.shape[2:]) if need_dx else None
    return d_w, d_b, d_xs


def _transposed(geom: ConvGeometry) -> ConvGeometry:
    """The conv whose adjoint is the transposed conv of ``geom``: the same
    kernel, stride and padding, the channels swapped."""
    c_in, c_out = geom.out_channels, geom.in_channels
    return ConvGeometry(c_in, c_out, geom.kernel, geom.stride, geom.padding)


def _deconv_fwd_b(xs, w, b, geom: ConvGeometry, out_sp):
    """Transposed conv of xs [C_in, B, *in_sp] with output extents out_sp:
    the adjoint of the conv ``_transposed(geom)`` applied to xs, summed from
    the bias.  Taps that reach past out_sp are cropped, and outputs that no
    tap reaches hold the bias."""
    return _conv_adjoint(xs, w, _transposed(geom), out_sp, seed=b)


def _deconv_bwd_b(xs, w, geom: ConvGeometry, g, need_dx: bool):
    """(d_w, d_b, d_xs) of _deconv_fwd_b for input xs and output gradient g:
    the forward and weight gradient of the conv ``_transposed(geom)`` for
    input g, from one gather of g's columns.  A g cropped short of the
    taps' reach is first zero-padded back to it, the crop's adjoint."""
    reach = geom.deconv_output_shape(xs.shape[2:])
    short = [(0, max(t - n, 0)) for t, n in zip(reach, g.shape[2:])]
    if any(after for _, after in short):
        g = np.pad(g, [(0, 0), (0, 0)] + short)
    d_xs, d_w = _gather_pass(g, _transposed(geom), xs.shape[2:], w if need_dx else None, xs)
    return d_w, g.reshape(geom.out_channels, -1).sum(axis=1), d_xs


# ---------------------------------------------------------------------------
# Public per-sample forward ops: the engine at B = 1 in float64, on
# [C, D, H, W] float32 arrays.  The model does not call them; they are the
# float64 reference that the oracle tests compare with.
# ---------------------------------------------------------------------------


def conv3d_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray, geom: ConvGeometry):
    """out[co, n, h, w] = bias[co] + sum_{ci,i,j,k} W[co,ci,i,j,k] *
    padded_x[ci, s1*n + i, s2*h + j, s3*w + k]."""
    _check_conv_args(x, weights, bias, geom, transposed=False)
    x64, w64, b64 = (a.astype(np.float64) for a in (x, weights, bias))
    return _conv_fwd_b(x64[:, None], w64, b64, geom)[:, 0].astype(np.float32)


def deconv3d_forward(x: np.ndarray, weights: np.ndarray, bias: np.ndarray, geom: ConvGeometry):
    """Transposed convolution: input voxel (n, h, w) deposits value * W into
    the output block starting at (s1*n - p1, s2*h - p2, s3*w - p3); overlaps sum."""
    _check_conv_args(x, weights, bias, geom, transposed=True)
    x64, w64, b64 = (a.astype(np.float64) for a in (x, weights, bias))
    out_sp = geom.deconv_output_shape(x.shape[1:])
    return _deconv_fwd_b(x64[:, None], w64, b64, geom, out_sp)[:, 0].astype(np.float32)
