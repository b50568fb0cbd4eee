"""Span tracing for the benchmark's traced run.

``instrument(tracer)`` replaces functions of the ctsr modules, at the names
their callers look them up by, with wrappers that record a span around each
call: its name, start, end and parent, and from those its self time.  The
sources are untouched and every original is put back on exit.

Calls into ``ops`` are attributed to a network layer L0..L4, the layer's
position in the layer plan, by their ``ConvGeometry``.  The plan is the one
of the config that the enclosing ``model.train`` or ``model.infer_volume``
call runs.  Their FLOPs are computed from the geometry, not from how an
implementation reaches the result, so a faster algorithm shows as a higher
GFLOP/s.

``Tracer.unit_metrics`` reduces the spans of one unit (set-up plus one
round) to the per-layer metrics of ``PER_LAYER``.  A ``_s`` metric is the
busy time of a span name, children included; a ``.self_s`` metric leaves
out the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from ctsr import grid, metrics, model, ops, pipeline, resample, volume

LAYERS = 5

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    [
        (f"ops.L{i}.{d}_{kind}", unit, better)
        for i in range(LAYERS)
        for d in ("fwd", "bwd")
        for kind, unit, better in (("s", "s", "lower"), ("gflops", "GFLOP/s", "higher"))
    ]
    + [
        ("ops.gemm_peak_gflops", "GFLOP/s", "higher"),
        ("model.forward_batch_s", "s", "lower"),
        ("model.backward_batch_s", "s", "lower"),
        ("model.sgd_step_s", "s", "lower"),
        ("model.validation_s", "s", "lower"),
        ("model.train.self_s", "s", "lower"),
        ("model.forward_s", "s", "lower"),
        ("model.infer.self_s", "s", "lower"),
        ("model.infer.useful_ratio", "ratio", "higher"),
        ("model.load_checkpoint_s", "s", "lower"),
        ("pipeline.make_pairs_s", "s", "lower"),
        ("pipeline.pairs", "count", "higher"),
        ("volume.deserialize_s", "s", "lower"),
        ("volume.serialize_s", "s", "lower"),
        ("volume.bytes", "bytes", "lower"),
        ("resample.downsample_s", "s", "lower"),
        ("resample.bicubic_s", "s", "lower"),
        ("metrics.psnr_s", "s", "lower"),
        ("metrics.ssim_s", "s", "lower"),
        ("metrics.ttest_s", "s", "lower"),
        ("grid.combos", "count", "higher"),
        ("grid.pair_cache_hit_ratio", "ratio", "higher"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.ops_model_self_s", "s", "lower"),
    ]
)

# span names whose busy time is reported as "<name>_s"
_BUSY = (
    "model.forward_batch",
    "model.backward_batch",
    "model.sgd_step",
    "model.validation",
    "model.forward",
    "model.load_checkpoint",
    "pipeline.make_pairs",
    "volume.deserialize",
    "volume.serialize",
    "resample.downsample",
    "resample.bicubic",
    "metrics.psnr",
    "metrics.ssim",
    "metrics.ttest",
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Spans and counters of one unit, kept in memory."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.plan: dict = {}
        self.pairs_built = False
        self._open: list[int] = []

    def wrap(self, fn, name, enter=None, leave=None):
        """``fn`` recording a span per call.  ``name`` is a string or a
        function of the bound arguments; ``enter(args)`` runs before the call
        and ``leave(span, args, result)`` after it."""
        sig = inspect.signature(fn)
        needs_args = callable(name) or enter or leave

        def traced(*a, **kw):
            args = sig.bind(*a, **kw).arguments if needs_args else None
            if enter:
                enter(args)
            parent = self._open[-1] if self._open else None
            span = Span(name(args) if callable(name) else name, time.perf_counter(), parent)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*a, **kw)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.end - span.start
            if leave:
                leave(span, args, result)
            return result

        return traced

    # -- layer attribution -------------------------------------------------

    def set_plan(self, cfg) -> None:
        plan = model._layer_plan(cfg)
        self.plan = {geom: i for i, (_, geom, _) in enumerate(plan)}
        if len(self.plan) != len(plan):
            raise ValueError(f"{cfg.key()}: repeated layer geometries, cannot attribute ops")

    def layer(self, geom) -> str:
        i = self.plan.get(geom)
        return "ops.unplanned" if i is None else f"ops.L{i}"

    # -- reduction -----------------------------------------------------------

    def by_name(self) -> dict[str, list]:
        """[calls, busy seconds, self seconds] per span name."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            row = out[s.name]
            row[0] += 1
            row[1] += s.end - s.start
            row[2] += s.self_s
        return out

    def unit_metrics(self) -> dict[str, float]:
        spans = self.by_name()  # a name that never ran reads [0, 0.0, 0.0]
        c = self.counts
        out = {}
        for i in range(LAYERS):
            for d in ("fwd", "bwd"):
                name = f"ops.L{i}.{d}"
                busy = spans[name][1]
                out[f"{name}_s"] = busy
                out[f"{name}_gflops"] = c[f"{name}.flops"] / busy / 1e9 if busy else 0.0
        for name in _BUSY:
            out[f"{name}_s"] = spans[name][1]
        out["model.train.self_s"] = spans["model.train"][2]
        out["model.infer.self_s"] = spans["model.infer"][2]
        out["model.infer.useful_ratio"] = (
            c["infer.out_px"] / c["forward.out_px"] if c["forward.out_px"] else 0.0
        )
        out["pipeline.pairs"] = c["pairs"]
        out["volume.bytes"] = c["svol.bytes"]
        out["grid.combos"] = c["grid.combos"]
        out["grid.pair_cache_hit_ratio"] = (
            1.0 - c["grid.misses"] / c["grid.combos"] if c["grid.combos"] else 0.0
        )
        out["trace.ops_model_self_s"] = sum(
            row[2] for name, row in spans.items() if name.startswith(("ops.", "model."))
        )
        return out


def _macs(geom, batch: int, positions) -> int:
    """Multiply-adds of one pass: every weight meets every position once."""
    k1, k2, k3 = geom.kernel
    return geom.in_channels * geom.out_channels * k1 * k2 * k3 * batch * math.prod(positions)


def _patches(t: Tracer):
    """(module, attribute, wrapper) for every traced call site."""

    def add_flops(fn):
        def leave(span, args, _result):
            t.counts[span.name + ".flops"] += fn(args)

        return leave

    def fwd_name(args):
        return t.layer(args["geom"]) + ".fwd"

    def bwd_name(args):
        return t.layer(args["geom"]) + ".bwd"

    def conv_fwd_b(a):
        out_sp = a["geom"].conv_output_shape(a["xs"].shape[2:])
        return 2 * _macs(a["geom"], a["xs"].shape[1], out_sp)

    def conv_bwd_b(a):
        g = a["g"]
        return 2 * _macs(a["geom"], g.shape[1], g.shape[2:]) * (1 + bool(a["need_dx"]))

    def deconv_fwd_b(a):
        return 2 * _macs(a["geom"], a["xs"].shape[1], a["xs"].shape[2:])

    def deconv_bwd_b(a):
        xs = a["xs"]
        return 2 * _macs(a["geom"], xs.shape[1], xs.shape[2:]) * (1 + bool(a["need_dx"]))

    def conv_fwd(a):
        return 2 * _macs(a["geom"], 1, a["geom"].conv_output_shape(a["x"].shape[1:]))

    def deconv_fwd(a):
        return 2 * _macs(a["geom"], 1, a["x"].shape[1:])

    def plan_from_cfg(a):
        t.set_plan(a["cfg"])

    def plan_from_params(a):
        t.set_plan(a["params"].config)

    def count(key, fn):
        def leave(_span, args, result):
            t.counts[key] += fn(args, result)

        return leave

    def grid_enter(_a):
        t.pairs_built = False

    def pairs_built(span, args, result):
        t.counts["pairs"] += len(result)
        t.pairs_built = True

    def grid_train(a):
        # a combo whose pairs had to be built since the previous combo missed
        # grid_search's pair cache
        t.counts["grid.combos"] += 1
        t.counts["grid.misses"] += t.pairs_built
        t.pairs_built = False
        t.set_plan(a["cfg"])

    w = t.wrap
    return [
        (ops, "_conv_fwd_b", w(ops._conv_fwd_b, fwd_name, leave=add_flops(conv_fwd_b))),
        (ops, "_conv_bwd_b", w(ops._conv_bwd_b, bwd_name, leave=add_flops(conv_bwd_b))),
        (ops, "_deconv_fwd_b", w(ops._deconv_fwd_b, fwd_name, leave=add_flops(deconv_fwd_b))),
        (ops, "_deconv_bwd_b", w(ops._deconv_bwd_b, bwd_name, leave=add_flops(deconv_bwd_b))),
        (model, "conv3d_forward", w(model.conv3d_forward, fwd_name, leave=add_flops(conv_fwd))),
        (
            model,
            "deconv3d_forward",
            w(model.deconv3d_forward, fwd_name, leave=add_flops(deconv_fwd)),
        ),
        (
            model,
            "forward",
            w(model.forward, "model.forward", leave=count("forward.out_px", lambda a, r: r.size)),
        ),
        (model, "_forward_batch", w(model._forward_batch, "model.forward_batch")),
        (model, "_backward_batch", w(model._backward_batch, "model.backward_batch")),
        (model, "sgd_step", w(model.sgd_step, "model.sgd_step")),
        (model, "_validation_psnr", w(model._validation_psnr, "model.validation")),
        (model, "train", w(model.train, "model.train", enter=plan_from_cfg)),
        (
            model,
            "infer_volume",
            w(
                model.infer_volume,
                "model.infer",
                enter=plan_from_params,
                leave=count("infer.out_px", lambda a, r: r.data.size),
            ),
        ),
        (model, "load_checkpoint", w(model.load_checkpoint, "model.load_checkpoint")),
        (grid, "grid_search", w(grid.grid_search, "grid.grid_search", enter=grid_enter)),
        (grid, "train", w(grid.train, "model.train", enter=grid_train)),
        (grid, "make_pairs", w(grid.make_pairs, "pipeline.make_pairs", leave=pairs_built)),
        (
            pipeline,
            "make_pairs",
            w(pipeline.make_pairs, "pipeline.make_pairs", leave=count("pairs", lambda a, r: len(r))),
        ),
        (pipeline, "downsample_axial", w(pipeline.downsample_axial, "resample.downsample")),
        (resample, "downsample_axial", w(resample.downsample_axial, "resample.downsample")),
        (resample, "bicubic_upsample", w(resample.bicubic_upsample, "resample.bicubic")),
        (metrics, "psnr", w(metrics.psnr, "metrics.psnr")),
        (metrics, "ssim", w(metrics.ssim, "metrics.ssim")),
        (metrics, "paired_t_test", w(metrics.paired_t_test, "metrics.ttest")),
        (
            volume,
            "serialize_volume",
            w(
                volume.serialize_volume,
                "volume.serialize",
                leave=count("svol.bytes", lambda a, r: len(r)),
            ),
        ),
        (
            volume,
            "deserialize_volume",
            w(
                volume.deserialize_volume,
                "volume.deserialize",
                leave=count("svol.bytes", lambda a, r: len(a["buf"])),
            ),
        ),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace every call site of ``_patches`` while the block runs."""
    patches = _patches(tracer)
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, wrapper in patches:
            setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, original in originals:
            setattr(mod, attr, original)


def gemm_peak_gflops(n: int = 512, reps: int = 7) -> float:
    """Best float64 GEMM rate of ``reps`` n x n products, as a reference for
    the ops layers' GFLOP/s."""
    rng = np.random.default_rng(0)
    a, b = rng.random((n, n)), rng.random((n, n))
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n**3 / best / 1e9
