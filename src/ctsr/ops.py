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
on first use, with up to min(CPUs, B) tasks at once, when there is more
than one task and each task's whole scratch matrix (the gather's K x N
columns, or the rows x N of W^T @ G_n) has at least ``_POOL_MIN_ELEMENTS``
= 2^18 elements; otherwise on the calling thread.  Below the cutoff the
hand-off, and the narrow layers' per-tap Python loop contending for the
GIL, cost more than a second task saves.  Much of a wide layer's time is
numpy's single-threaded, memory-bound gather and tap scatter, which a
second BLAS thread does not speed up and a second task does, so the
package defaults BLAS to one thread (``ctsr/__init__.py``).

A pool task never pools: ``_each_task`` marks each pooled task in a context
variable, and inside one ``_pools`` says no, so the task's engine loops run
on its own thread rather than queue behind it, which would deadlock once
every worker waited so.  A tile task of ``model.infer_volume`` thus runs its
B = 1 forward on its own thread, in the chunks it has anywhere else.

Row chunks.  A forward gather (a pass without d_w) never builds a sample's
whole K x N columns: it gathers whole output rows at a time, as many as fit
in ``_GATHER_CHUNK_ELEMENTS`` = 2^18 elements (1 MB of float32, half of a
2 MB L2 cache), and multiplies them by W while they are still in cache.

Channel chunks.  A row chunk would split d_w's sum over positions, so a d_w
pass (a gather without W) chunks cols_n by whole input channels instead: it
gathers as many channels' rows as fit in ``_GATHER_CHUNK_ELEMENTS`` and
multiplies them into their columns of d_w, each element of which still sums
over every position in one GEMM.  The adjoint takes W^T @ G_n in the same
chunks of W^T's rows and adds each chunk's taps before the next, so each
input element gets its taps in the same order.  A pass with both W and d_w
(the backward of the deconv and of a narrow conv) keeps whole columns: its
W @ cols_n sums over every row.

In-place input gradients.  With ``need_dx`` a layer's backward writes d_xs
into the memory of its input xs, whose last use it is (the memory sharing
of Chen et al., arXiv:1604.06174): the wide conv's adjoint copies its crop
into xs, and a pass with both W and d_w takes each sample's d_w term from
xs before it writes W @ cols_n over it.

The pooled results are the serial ones bit for bit, and a sample's results
do not depend on B or on the CPU count: each sample's GEMMs keep their
operands and shapes (a GEMM element can depend on the extent of the other
operand), each task writes only its own slices, and d_w is summed from zero
in sample order on the calling thread.  Row chunks change a GEMM's column
extent, and channel chunks its other free extent, so they keep its bits
only where OpenBLAS's sgemm tiles round alike, which is found by test
(``TestChunkedGather``, ``TestChunkedBackward``, ``TestBatchedInference``),
not by a rule.  The scratch arrays of the tasks in flight are allocated by
the caller, all in one block, so that no worker thread's malloc arena keeps
them and glibc keeps the block's pages from call to call.
"""

from __future__ import annotations

import contextvars
import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
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
# of W^T @ G_n) has fewer elements than this runs on the calling thread.
_POOL_MIN_ELEMENTS = 1 << 18
# A forward gather fills and multiplies its columns in chunks of whole output
# rows of at most this many scratch elements (1 MB of float32, half of a 2 MB
# L2 cache): the pool's cutoff, under its own name so that a test that moves
# the cutoff to compare pooled with serial bits leaves the chunks as they are.
_GATHER_CHUNK_ELEMENTS = _POOL_MIN_ELEMENTS
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = None  # made on first use, so that a process that never pools starts no thread


def _forget_pool():
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_forget_pool)  # a forked child has no pool threads


_in_pool_task = contextvars.ContextVar("ctsr_in_pool_task", default=False)


def _pools(n_tasks: int, task_elements: float) -> bool:
    """Whether ``n_tasks`` tasks, each with a scratch matrix of
    ``task_elements`` elements in all, run on the pool: never in a pool
    task, whose waiting on tasks queued behind it could deadlock."""
    cleared = task_elements >= _POOL_MIN_ELEMENTS
    return min(_CPUS, n_tasks) > 1 and cleared and not _in_pool_task.get()


def _each_task(task, n_tasks: int):
    """The results of ``task(n)`` for n = 0 .. n_tasks - 1, in task order:
    on the module's thread pool, made on first use, at most min(CPUs,
    n_tasks) at once, when ``_pools`` allows it with no cutoff; otherwise
    here, one after another.  An exception in a task is raised here, with
    its own type.  A pooled task runs in its own copy of the caller's
    context, marked as a pool task, so numpy's ``errstate``, which is
    context-local, holds for it as it does here.
    """
    if not _pools(n_tasks, math.inf):
        return map(task, range(n_tasks))
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(_CPUS, thread_name_prefix="ctsr-ops")

    def run(n):
        _in_pool_task.set(True)
        return task(n)

    # one context per task: two threads cannot enter the same context at once
    contexts = [contextvars.copy_context() for _ in range(n_tasks)]
    return _pool.map(lambda ctx, n: ctx.run(run, n), contexts, range(n_tasks))


def _each_sample(task, n_tasks: int, task_elements: int, scratch_shape, dtype):
    """The results of ``task(n, scratch)`` for n = 0 .. n_tasks - 1, in
    task order, where scratch is an array of ``scratch_shape`` and
    ``dtype`` that the task may overwrite.

    A task writes only its own slices of the output.  ``task_elements`` is
    the size of a task's whole scratch matrix, which the task may fill
    through ``scratch`` one part at a time.  The tasks run here, one after
    another, with one task, one CPU, ``task_elements`` below
    ``_POOL_MIN_ELEMENTS`` or inside a pool task; otherwise ``_each_task``
    runs them on the pool.  The scratch arrays, one per task in flight, are
    allocated here in one block, so no worker thread allocates a large
    array and glibc keeps the block's pages between calls rather than
    returning and faulting in each array.
    """
    if not _pools(n_tasks, task_elements):
        scratch = np.empty(scratch_shape, dtype)
        return (task(n, scratch) for n in range(n_tasks))
    free = queue.SimpleQueue()
    for scratch in np.empty((min(_CPUS, n_tasks),) + tuple(scratch_shape), dtype):
        free.put(scratch)

    def run(n):
        scratch = free.get()
        try:
            return task(n, scratch)
        finally:
            free.put(scratch)

    return _each_task(run, n_tasks)


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
    each is None when its operand is.  A pass with both overwrites other
    with out (a copy of other when other is not C-contiguous): each task
    takes sample n's other_n @ cols_n^T before it writes out[:, n].

    A pass without ``other`` (the forward) fills and multiplies each
    sample's columns in chunks of whole output rows, along its first axis
    with extent above one: each chunk has as many rows as fit in
    ``_GATHER_CHUNK_ELEMENTS`` scratch elements, at least one.  The axes
    before that one have extent one, so a chunk is a contiguous column
    range of cols_n, and W @ it goes into its slice of out while the chunk
    is in cache.  A pass without ``w`` (a d_w pass) fills and multiplies
    cols_n in chunks of whole input channels, as many as fit in
    ``_GATHER_CHUNK_ELEMENTS``, at least one: a chunk is a run of whole rows
    of cols_n, so each d_w element still sums over every position in one
    GEMM.  A pass with both operands takes a sample's whole columns at
    once.  Every pass runs one ``_each_sample`` task per sample.
    """
    if w is not None and other is not None:
        other = np.ascontiguousarray(other)
    if any(geom.padding):
        xs = np.pad(xs, ((0, 0), (0, 0)) + tuple((p, p) for p in geom.padding))
    win = sliding_window_view(xs, geom.kernel, axis=(2, 3, 4))
    win = win[(slice(None),) * 2 + _window((0, 0, 0), geom.stride, out_sp)]
    win = win.transpose(0, 1, 5, 6, 7, 2, 3, 4)
    (c_in, n_samples), c_out = xs.shape[:2], geom.out_channels
    taps = math.prod(geom.kernel)
    k_rows, n_cols = c_in * taps, math.prod(out_sp)
    ax = next((a for a, e in enumerate(out_sp) if e > 1), 0)
    rows, row_cols = out_sp[ax], math.prod(out_sp[ax + 1 :])
    chunk = max(1, min(rows, _GATHER_CHUNK_ELEMENTS // (k_rows * row_cols)))
    chans = c_in
    if w is None:
        chans = max(1, min(c_in, _GATHER_CHUNK_ELEMENTS // (taps * n_cols)))
    out = out_cols = wm = None
    if w is not None:
        out = np.empty((c_out, n_samples) + tuple(out_sp), xs.dtype) if other is None else other
        out_cols = out.reshape(c_out, n_samples, -1)
        wm = w.reshape(c_out, -1)

    def fill(src, scratch):
        cols = scratch.reshape(-1)[: src.size].reshape(len(src) * taps, -1)
        np.copyto(cols.reshape(src.shape), src)
        return cols

    def task(n, scratch):
        if other is None:
            for r0 in range(0, rows, chunk):
                r1 = min(r0 + chunk, rows)
                cols = fill(win[:, n][(slice(None),) * (4 + ax) + (slice(r0, r1),)], scratch)
                np.matmul(wm, cols, out=out_cols[:, n, r0 * row_cols : r1 * row_cols])
            return None
        other_n = other[:, n].reshape(c_out, -1)
        d_w_n = np.empty((c_out, k_rows), xs.dtype)
        for c0 in range(0, c_in, chans):
            cols = fill(win[c0 : c0 + chans, n], scratch)
            np.matmul(other_n, cols.T, out=d_w_n[:, c0 * taps : c0 * taps + len(cols)])
        if w is not None:  # out is other, whose term for d_w is taken
            np.matmul(wm, cols, out=out_cols[:, n])
        return d_w_n

    scratch_shape = (k_rows, chunk * row_cols) if other is None else (chans * taps, n_cols)
    d_w = None if other is None else np.zeros((c_out, k_rows), xs.dtype)
    for d_w_n in _each_sample(task, n_samples, k_rows * n_cols, scratch_shape, xs.dtype):
        if d_w is not None:
            d_w += d_w_n
    return out, None if d_w is None else d_w.reshape(geom.weight_shape(False))


def _conv_adjoint(g, w, geom: ConvGeometry, in_sp, seed=None, out=None):
    """The adjoint of the conv ``geom`` applied to g [C_out, B, *out_sp]: its
    input gradient [C_in, B, *in_sp], which is the transposed conv of g.

    Per sample n, W^T @ G_n gives each tap's rows, added onto the tap's
    window of the sample's padded grid, which on each axis reaches
    max(n + 2p, (o - 1)s + k).  The sum starts from ``seed[c]`` for channel
    c (zero when None), so input rows that no window reads keep that value.
    W^T @ G_n and its adds go in chunks of whole input channels, as many as
    fit in ``_GATHER_CHUNK_ELEMENTS`` rows x N, at least one: a chunk is a
    run of whole rows of W^T, so each input element gets its taps in the
    same order.  The result is cropped off the padding and the taps'
    rows past in_sp by a copy, into ``out`` when it is given (an array of
    the result's shape, which is returned), else into a C-contiguous array.
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
    taps, n_cols = len(windows), math.prod(out_sp)
    chans = max(1, min(c_in, _GATHER_CHUNK_ELEMENTS // (taps * n_cols)))

    def scatter(n, scratch):
        g_n = g[:, n].reshape(c_out, -1)
        for c0 in range(0, c_in, chans):
            d_pad_c = d_pad[c0 : c0 + chans, n]
            d_cols = scratch[: len(d_pad_c) * taps]
            np.matmul(wt[c0 * taps : c0 * taps + len(d_cols)], g_n, out=d_cols)
            d_cols = d_cols.reshape((len(d_pad_c), taps) + out_sp)
            for t, window in enumerate(windows):
                d_pad_c[window] += d_cols[:, t]

    task_elements = c_in * taps * n_cols
    for _ in _each_sample(scatter, g.shape[1], task_elements, (chans * taps, n_cols), g.dtype):
        pass
    crop = d_pad[(slice(None),) * 2 + _window(geom.padding, (1, 1, 1), in_sp)]
    if out is None:
        return np.ascontiguousarray(crop)
    np.copyto(out, crop)
    return out


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

    With ``need_dx`` the backward consumes xs: d_xs is returned in xs's
    memory (a narrow layer's in a copy when xs is not C-contiguous), so xs
    must not be read again; without it, xs is unchanged.  xs and g share a
    dtype.

    Wide layers sum d_w = G_n @ cols_n^T over samples n and take d_xs from
    ``_conv_adjoint``, which copies its crop into xs.  A narrow layer is
    the adjoint of ``_flipped(geom)``, so its d_xs is that conv of g and its
    d_w, flipped back, that conv's weight gradient, both from one gather of
    g's few-channel columns."""
    d_b = g.reshape(geom.out_channels, -1).sum(axis=1)
    if _narrow(geom):
        conv, wb = _flipped(geom, w)
        d_xs, d_wb = _gather_pass(g, conv, xs.shape[2:], wb if need_dx else None, xs)
        return np.flip(d_wb.swapaxes(0, 1), axis=(2, 3, 4)), d_b, d_xs
    _, d_w = _gather_pass(xs, geom, g.shape[2:], other=g)
    d_xs = _conv_adjoint(g, w, geom, xs.shape[2:], out=xs) if need_dx else None
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
    taps' reach is first zero-padded back to it, the crop's adjoint.  As in
    ``_conv_bwd_b``, with ``need_dx`` d_xs is written into xs's memory."""
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
