import dataclasses
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctsr import model, ops
from ctsr.model import (
    ModelConfig,
    _backward_batch,
    _forward_batch,
    _layer_plan,
    _validation_psnr,
    build_model,
    deserialize_params,
    forward,
    infer_volume,
    load_checkpoint,
    save_checkpoint,
    serialize_params,
    train,
)
from ctsr.ops import _conv_bwd_b, _conv_fwd_b, _deconv_bwd_b, _deconv_fwd_b
from ctsr.pipeline import TrainingPair, gen_synthetic, make_pairs
from ctsr.tensor import NonFiniteError, Rng, Tensor, uniform_init
from ctsr.volume import Volume

from oracles import central_difference


PAPER_CFG = dict(
    feature_depth=5, conv_layers=3, filters=(64, 64, 32, 32, 1), kernel=3, scale=3
)

TINY_CFG = dict(
    feature_depth=3, conv_layers=1, filters=(2, 2, 1), kernel=3, scale=2,
    patch_hw=6, batch_size=2, epochs=2, seed=11,
)


@st.composite
def small_configs(draw):
    """A valid config with a small layer plan and any value the checkpoint
    stores in its other fields."""
    layers = draw(st.integers(1, 2))
    u32 = st.integers(1, model._U32_MAX)
    return ModelConfig(
        feature_depth=draw(st.sampled_from((1, 3, 5))),
        conv_layers=layers,
        filters=(*draw(st.lists(st.integers(1, 3), min_size=layers + 1, max_size=layers + 1)), 1),
        kernel=draw(st.sampled_from((1, 3, 5))),
        scale=draw(st.integers(2, 4)),
        lr=draw(st.floats(min_value=0.0, allow_infinity=False)),
        seed=draw(st.integers(0, 2**64 - 1)),
        epochs=draw(u32),
        batch_size=draw(u32),
        patch_hw=draw(u32),
    )


class TestModelConfig:
    def test_paper_final_config_is_valid(self):
        assert ModelConfig(**PAPER_CFG).problems() == []

    def test_minimal_config_is_valid(self):
        cfg = ModelConfig(feature_depth=1, conv_layers=1, filters=(1, 1, 1), kernel=1, scale=2)
        assert cfg.problems() == []

    def test_all_violations_reported_together(self):
        cfg = ModelConfig(
            feature_depth=4, conv_layers=0, filters=(2,), kernel=2, scale=1,
            lr=-1, epochs=0, batch_size=0, patch_hw=0,
        )
        problems = cfg.problems()
        for word in ("feature_depth", "conv_layers", "filters", "kernel", "scale",
                     "lr", "epochs", "batch_size", "patch_hw"):
            assert any(word in p for p in problems)

    def test_final_filter_must_be_one(self):
        cfg = ModelConfig(conv_layers=1, filters=(4, 4, 2))
        assert any("final filter" in p for p in cfg.problems())

    def test_key_serialization(self):
        key = ModelConfig(**PAPER_CFG).key()
        assert key == "n=5;l=3;f=(64,64,32,32,1);k=3;r=3"

    @pytest.mark.parametrize("name", [
        "feature_depth", "conv_layers", "kernel", "scale", "epochs", "batch_size", "patch_hw",
        "filters",
    ])
    def test_value_beyond_the_checkpoints_u32_is_a_problem(self, name):
        # 2**32 + 1 is odd, so a window depth or kernel breaks only the bound
        big = 2**32 + 1
        value = (big, 2, 1) if name == "filters" else big
        cfg = ModelConfig(**dict(TINY_CFG, **{name: value}))
        word = "filter counts" if name == "filters" else name
        assert any(p.startswith(word) and f"<= {2**32 - 1}" in p for p in cfg.problems())

    def test_values_at_the_u32_bound_are_valid_and_stored(self):
        top = 2**32 - 1
        for kwargs in ({"feature_depth": top}, {"kernel": top},
                       {"conv_layers": 1, "filters": (top, 4, 1)}):
            # a u32 stores each of them; only their weights outgrow memory
            problems = ModelConfig(**kwargs).problems()
            assert len(problems) == 1 and "physical memory" in problems[0], problems
        cfg = ModelConfig(**dict(TINY_CFG, scale=top, epochs=top, batch_size=top, patch_hw=top))
        assert cfg.problems() == []
        assert deserialize_params(serialize_params(build_model(cfg, Rng(0)))).config == cfg


class TestBuildModel:
    def test_paper_stack_channels(self):
        params = build_model(ModelConfig(**PAPER_CFG), Rng(0))
        kinds = [l.kind for l in params.layers]
        assert kinds == ["conv", "conv", "conv", "deconv", "conv"]
        chans = [(l.geom.in_channels, l.geom.out_channels) for l in params.layers]
        assert chans == [(1, 64), (64, 64), (64, 32), (32, 32), (32, 1)]
        deconv = params.layers[3]
        assert deconv.geom.stride == (1, 3, 3)

    def test_depth_consumed_to_single_slice(self):
        # n=5 through two k-depth-3 convs -> 1; remaining layers keep depth 1
        plan = _layer_plan(ModelConfig(**PAPER_CFG))
        depths = [g.kernel[0] for _, g, _ in plan]
        assert depths == [3, 3, 1, 1, 1]

    def test_minimal_stack_builds(self):
        cfg = ModelConfig(feature_depth=1, conv_layers=1, filters=(1, 1, 1), kernel=1, scale=2)
        params = build_model(cfg, Rng(0))
        assert len(params.layers) == 3

    def test_same_seed_same_checksum(self):
        cfg = ModelConfig(**PAPER_CFG)
        a = build_model(cfg, Rng(123))
        b = build_model(cfg, Rng(123))
        assert a.checksum() == b.checksum()
        c = build_model(cfg, Rng(124))
        assert a.checksum() != c.checksum()

    def test_init_respects_fan_in_bound(self):
        params = build_model(ModelConfig(**PAPER_CFG), Rng(5))
        for layer in params.layers:
            k1, k2, k3 = layer.geom.kernel
            bound = np.sqrt(6.0 / (layer.geom.in_channels * k1 * k2 * k3))
            assert np.abs(layer.weights).max() < bound
            # scaling actually matters: most draws should exceed the naive
            # 1/sqrt(fan_in) bound
            assert np.abs(layer.weights).max() > bound / np.sqrt(6.0)
            assert layer.bias.dtype == np.float32 and np.all(layer.bias == 0.0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="invalid model config"):
            build_model(ModelConfig(feature_depth=2), Rng(0))


class TestForward:
    @pytest.mark.parametrize("kernel, scale", [(1, 2), (3, 4), (3, 5)])
    def test_kernel_below_scale_deconv_of_zero_is_its_bias(self, kernel, scale):
        # every deconv output that no kernel tap reaches holds the bias, the
        # rows and columns appended for a kernel below the scale included
        params = build_model(ModelConfig(**dict(TINY_CFG, kernel=kernel, scale=scale)), Rng(4))
        conv, deconv = params.layers[0], params.layers[1]
        assert deconv.kind == "deconv" and min(deconv.trim_hw) < 0
        conv.weights[...] = 0.0
        deconv.bias[...] = (0.5, 0.25)
        xs = uniform_init([1, 2, 3, 5, 5], 0, 1, Rng(5))
        _, caches = _forward_batch(params, xs, keep_caches=True)
        # the last layer's input is the deconv's output after its ReLU
        out = caches[-1]
        assert out.shape[3:] == (5 * scale, 5 * scale)
        assert np.array_equal(out, np.broadcast_to(deconv.bias.reshape(2, 1, 1, 1, 1), out.shape))

    def test_output_shape_grid(self):
        for n in (1, 3, 5):
            for l in (1, 2):
                for k in (1, 3):
                    for r in (2, 3):
                        for hw in (6, 9):
                            filters = tuple([2] * l + [2, 1])
                            cfg = ModelConfig(
                                feature_depth=n, conv_layers=l, filters=filters,
                                kernel=k, scale=r,
                            )
                            if cfg.problems():
                                continue
                            params = build_model(cfg, Rng(1))
                            x = uniform_init([1, n, hw, hw], 0, 1, Rng(2))
                            out = forward(params, x)
                            assert out.shape == (1, 1, hw * r, hw * r), cfg.key()

    def test_zero_input_gives_bias_response(self):
        cfg = ModelConfig(**PAPER_CFG)
        params = build_model(cfg, Rng(3))
        zero = np.zeros((1, 5, 8, 8), dtype=np.float32)
        out = forward(params, zero)
        # biases start at zero, so a zero input propagates to exactly zero
        assert np.all(out == 0.0)

    def test_validation_batch_equals_forward_bit_for_bit(self, monkeypatch):
        # one float32 path: validation's batch of 16 gives each sample the
        # bits that inference gives it alone
        cfg = ModelConfig(**PAPER_CFG)
        params = build_model(cfg, Rng(4))
        pairs = _tiny_pairs(cfg.batch_size, Rng(5), cfg)
        outputs = []

        def spy(params, xs, keep_caches):
            result = _forward_batch(params, xs, keep_caches)
            outputs.append(result[0])
            return result

        monkeypatch.setattr(model, "_forward_batch", spy)
        _validation_psnr(params, pairs)
        (out,) = outputs
        assert out.shape[1] == 16
        for n, pair in enumerate(pairs):
            assert np.array_equal(forward(params, pair.lr_patch), out[:, n]), n

    def test_float32_engine_matches_float64_at_the_paper_geometry(self):
        # Each layer of the paper stack on the same float32-representable
        # input, weights and output gradient, computed in float32 and in
        # float64.  Over six such draws (model seeds 40-45) the largest
        # difference, relative to the largest float64 magnitude, was 5.2e-7
        # (forward), 6.6e-7 (d_w), 1.1e-6 (d_b) and 8.0e-7 (d_x); the whole
        # stack's output differed by at most 6.2e-7 absolute.  The bounds
        # leave a margin of at least 3.5x.
        params = build_model(ModelConfig(**PAPER_CFG), Rng(40))
        rng = Rng(41)
        xs = uniform_init([1, 4, 5, 32, 32], 0, 1, rng)
        out32, _ = _forward_batch(params, xs, keep_caches=False)
        out64, _ = _forward_batch(params, xs.astype(np.float64), keep_caches=False)
        assert np.abs(out32 - out64).max() <= 3e-6

        def rel(got, ref):
            return np.abs(got - ref).max() / np.abs(ref).max()

        h = xs
        for i, layer in enumerate(params.layers):
            if layer.kind == "conv":
                fwd_b, bwd_b, extents = _conv_fwd_b, _conv_bwd_b, ()
            else:
                # k = r: the textbook extents are input x r
                fwd_b, bwd_b = _deconv_fwd_b, _deconv_bwd_b
                extents = (layer.geom.deconv_output_shape(h.shape[2:]),)
            w, b = layer.weights, layer.bias
            out = fwd_b(h, w, b, layer.geom, *extents)
            g = uniform_init(list(out.shape), -1, 1, rng)
            got = (out,) + bwd_b(h, w, layer.geom, g, True)
            f64 = [a.astype(np.float64) for a in (h, w, b, g)]
            ref = (fwd_b(*f64[:3], layer.geom, *extents),) + bwd_b(
                *f64[:2], layer.geom, f64[3], True
            )
            for name, a, r in zip(("forward", "d_w", "d_b", "d_x"), got, ref):
                assert a.dtype == np.float32 and r.dtype == np.float64
                assert rel(a, r) <= 4e-6, (i, name)
            h = np.maximum(out, 0)

    def test_float64_input_is_cast_to_float32(self):
        params = build_model(ModelConfig(**PAPER_CFG), Rng(6))
        x = uniform_init([1, 5, 9, 9], 0, 1, Rng(7))
        out = forward(params, x.astype(np.float64))
        assert out.dtype == np.float32
        assert np.array_equal(out, forward(params, x))

    def test_wrong_depth_rejected(self):
        params = build_model(ModelConfig(**PAPER_CFG), Rng(0))
        with pytest.raises(ValueError, match="incompatible"):
            forward(params, uniform_init([1, 3, 8, 8], 0, 1, Rng(1)))

    @pytest.mark.parametrize("batch", [2, 3])
    def test_stack_equals_separate_windows(self, batch, monkeypatch):
        """A stack [B, n, h, w] gives each window the bits of its own
        [1, n, h, w] call.  With two CPUs, B = 2 and B = 3 run one task per
        window and B = 1 two row blocks per wide conv, and the paper's L1
        and L2 gathers go in the same row chunks in each."""
        monkeypatch.setattr(ops, "_CPUS", 2)
        params = build_model(ModelConfig(**PAPER_CFG), Rng(9))
        x = uniform_init([batch, 5, 32, 32], 0, 1, Rng(10))
        out = forward(params, x)
        assert out.shape == (batch, 1, 96, 96) and out.dtype == np.float32
        for n in range(batch):
            assert np.array_equal(out[n : n + 1], forward(params, x[n : n + 1])), n

    @pytest.mark.parametrize("shape", [(5, 8, 8), (1, 1, 5, 8, 8), (2, 3, 8, 8), (0, 5, 8, 8)],
                             ids=["rank 3", "rank 5", "depth 3", "no window"])
    def test_wrong_stack_rejected(self, shape):
        params = build_model(ModelConfig(**PAPER_CFG), Rng(0))
        with pytest.raises(ValueError, match=r"incompatible .*expected \[B, 5, h, w\]"):
            forward(params, np.zeros(shape, np.float32))

    def test_non_finite_input_is_named(self):
        # NaN, and a float64 value beyond float32, are the input's fault,
        # not the first layer's
        params = build_model(ModelConfig(**TINY_CFG), Rng(8))
        for bad in (np.nan, 1e39):
            x = np.zeros((1, 3, 6, 6))
            x[0, 1, 2, 3] = bad
            with pytest.raises(NonFiniteError, match="non-finite input patch"):
                forward(params, x)


def _tiny_pairs(count, rng, cfg):
    pairs = []
    r, n, p = cfg.scale, cfg.feature_depth, cfg.patch_hw
    for i in range(count):
        pairs.append(
            TrainingPair(
                uniform_init([1, n, p, p], 0, 1, rng),
                uniform_init([1, 1, p * r, p * r], 0, 1, rng),
                ("t", i, (0, 0)),
            )
        )
    return pairs


def _pre_activation(layer, h):
    """A layer's output before its ReLU, recomputed from its cached input."""
    if layer.kind == "conv":
        return _conv_fwd_b(h, layer.weights, layer.bias, layer.geom)
    d, oh, ow = layer.geom.deconv_output_shape(h.shape[2:])
    th, tw = layer.trim_hw
    return _deconv_fwd_b(h, layer.weights, layer.bias, layer.geom, (d, oh - th, ow - tw))


def _check_composite_gradient(cfg_kwargs, dtype, eps, tol, bias_range=(-0.1, 0.1)):
    """The batched backward of the whole stack in float64 against central
    differences of the loss, for every layer's weights and bias held in
    ``dtype``, with step ``eps`` and relative tolerance ``tol``; the biases
    are drawn from ``bias_range``.  Every layer's gradient must be nonzero,
    so that no dead layer passes unchecked."""
    cfg = ModelConfig(**cfg_kwargs)
    params = build_model(cfg, Rng(21))
    for layer in params.layers:
        layer.weights = layer.weights.astype(dtype)
    rng = Rng(22)
    hw = cfg.patch_hw
    x = uniform_init([1, cfg.feature_depth, hw, hw], 0, 1, rng)
    y = uniform_init([1, 1, hw * cfg.scale, hw * cfg.scale], 0, 1, rng)
    # zero biases leave most deconv pre-activations exactly on the ReLU
    # kink, where central differences do not measure the derivative
    for layer in params.layers:
        layer.bias = uniform_init(layer.bias.shape, *bias_range, rng).astype(dtype)

    xs = x[:, None].astype(np.float64)
    ys = y[:, None]
    out, caches = _forward_batch(params, xs, keep_caches=True)
    margin = min(
        np.abs(_pre_activation(layer, h)).min()
        for layer, h in zip(params.layers[:-1], caches)
    )
    assert margin > 2 * eps, f"evaluation point within {margin} of a ReLU kink"
    diff = out - ys
    grads = _backward_batch(params, caches, (2.0 / diff.size) * diff)

    def loss_with(layer_idx, which, values):
        saved = getattr(params.layers[layer_idx], which)
        setattr(params.layers[layer_idx], which, values.astype(dtype))
        try:
            out2, _ = _forward_batch(params, xs, keep_caches=False)
            return float(np.mean((out2 - ys) ** 2))
        finally:
            setattr(params.layers[layer_idx], which, saved)

    for idx, layer in enumerate(params.layers):
        for which, got in zip(("weights", "bias"), grads[idx]):
            base = getattr(layer, which).astype(np.float64)
            fd = central_difference(
                lambda v, i=idx, w=which: loss_with(i, w, v), base, eps
            )
            assert np.abs(fd).max() > 0, (idx, which)
            scale = max(np.abs(fd).max(), 1e-3)
            assert np.abs(got - fd).max() / scale <= tol, (idx, which)


class TestEndToEndGradient:
    def test_composite_gradient_matches_finite_differences(self):
        _check_composite_gradient(TINY_CFG, np.float32, 1e-3, 1e-3)

    # A kernel smaller than the scale: the deconv output is short by r - k
    # rows and columns, which the model appends as zeros and crops from the
    # gradient (trim k - r).  Float64 parameters allow a step small enough
    # to stay clear of every ReLU kink on the larger upsampled output, and
    # positive biases keep a unit of every layer alive.
    @pytest.mark.parametrize("kernel, scale", [(1, 2), (1, 3), (3, 4), (3, 5)])
    def test_kernel_below_scale_matches_finite_differences(self, kernel, scale):
        cfg = dict(TINY_CFG, kernel=kernel, scale=scale)
        _check_composite_gradient(cfg, np.float64, 1e-6, 1e-6, bias_range=(0.05, 0.25))


class TestTrain:
    def test_lr_zero_keeps_params_and_reports_initial_loss(self):
        cfg = ModelConfig(**{**TINY_CFG, "lr": 0.0, "epochs": 2})
        rng = Rng(30)
        pairs = _tiny_pairs(5, rng, cfg)
        params, report = train(cfg, pairs, pairs[:2])
        params2, report2 = train(cfg, pairs, pairs[:2])
        assert params.checksum() == params2.checksum()
        assert report.train_losses[0] == report.train_losses[1]

    def test_lr_zero_is_noop_on_parameters(self):
        cfg = ModelConfig(**{**TINY_CFG, "lr": 0.0, "epochs": 1})
        rng = Rng(31)
        pairs = _tiny_pairs(4, rng, cfg)
        params, _ = train(cfg, pairs, pairs[:1])
        from ctsr.model import _TAG_INIT
        from ctsr.tensor import derive_seed
        untouched = build_model(cfg, Rng(derive_seed(cfg.seed, _TAG_INIT)))
        assert params.checksum() == untouched.checksum()

    def test_single_step_decreases_loss_for_small_lr(self):
        # one pair, one batch per epoch: epoch-1 loss is measured right
        # after the single epoch-0 step
        rng = Rng(32)
        for trial in range(3):
            cfg = ModelConfig(**{**TINY_CFG, "lr": 1e-5, "epochs": 2, "batch_size": 1,
                                 "seed": trial})
            pair = _tiny_pairs(1, rng, cfg)
            _, report = train(cfg, pair, pair)
            assert report.train_losses[1] < report.train_losses[0]

    def test_overfits_small_dataset(self):
        # 4 structured pairs from a synthetic volume, 200 epochs at the
        # default learning rate
        vol = gen_synthetic("spheres", (16, 16, 16), seed=3)
        cfg = ModelConfig(
            feature_depth=3, conv_layers=1, filters=(8, 8, 1), kernel=3, scale=2,
            patch_hw=8, epochs=200, lr=1e-3, batch_size=1, seed=12,
        )
        pairs = make_pairs(vol, cfg, "ov")[:4]
        assert len(pairs) == 4
        _, report = train(cfg, pairs, pairs)
        assert report.train_losses[-1] < 0.1 * report.train_losses[0]

    def test_deterministic_rerun(self):
        cfg = ModelConfig(**TINY_CFG)
        rng = Rng(34)
        pairs = _tiny_pairs(6, rng, cfg)
        p1, r1 = train(cfg, pairs, pairs[:2])
        p2, r2 = train(cfg, pairs, pairs[:2])
        assert p1.checksum() == p2.checksum()
        assert r1.train_losses == r2.train_losses
        assert r1.val_psnrs == r2.val_psnrs
        assert serialize_params(p1) == serialize_params(p2)

    def test_validation_psnr_does_not_depend_on_the_batch_size(self):
        # validation runs in batches of cfg.batch_size; 7 pairs make ragged
        # last batches at 3 and 4
        pairs = _tiny_pairs(7, Rng(37), ModelConfig(**TINY_CFG))
        psnrs = set()
        for batch_size in (1, 3, 4, 16):
            cfg = ModelConfig(**{**TINY_CFG, "batch_size": batch_size})
            psnrs.add(_validation_psnr(build_model(cfg, Rng(38)), pairs))
        assert len(psnrs) == 1

    def test_empty_dataset_rejected(self):
        cfg = ModelConfig(**TINY_CFG)
        with pytest.raises(ValueError, match="non-empty"):
            train(cfg, [], [])

    def test_peak_memory_below_one_l1_column_matrix(self):
        # The paper config at 8x8 patches, two batches of 16.  One batch's L1
        # im2col matrix is 6.75 MiB of float32; the training step keeps only
        # each layer's input, so no column matrix of a whole batch, nor the
        # previous batch's activations, is ever held.  ReLU and its backward
        # mask work in place, and the backward drops each layer's input once
        # it has read it, so the whole step stays below that one matrix.
        cfg = ModelConfig(**PAPER_CFG, patch_hw=8, batch_size=16, epochs=1)
        pairs = _tiny_pairs(32, Rng(36), cfg)
        geom = _layer_plan(cfg)[1][1]  # 64 -> 64 channels on a depth-3 input
        columns = cfg.batch_size * math.prod(geom.conv_output_shape((3, 8, 8)))
        l1_cols_bytes = 4 * geom.in_channels * math.prod(geom.kernel) * columns
        tracemalloc.start()
        try:
            train(cfg, pairs, pairs[:16])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < l1_cols_bytes, f"traced peak {peak / 2**20:.2f} MiB"

    def test_divergence_reports_coordinates(self):
        cfg = ModelConfig(**{**TINY_CFG, "lr": 1e12, "epochs": 3})
        rng = Rng(35)
        pairs = _tiny_pairs(4, rng, cfg)
        with pytest.raises(NonFiniteError, match=r"epoch \d+, batch \d+"):
            train(cfg, pairs, pairs[:1])


class TestInferVolume:
    def _trained_params(self):
        cfg = ModelConfig(
            feature_depth=3, conv_layers=1, filters=(3, 3, 1), kernel=3, scale=2,
            patch_hw=8, epochs=1, batch_size=4, seed=9,
        )
        return build_model(cfg, Rng(50)), cfg

    def test_constant_volume_gives_constant_output(self):
        # A stride-r deconv with random weights maps a constant input to an
        # r-periodic pattern (checkerboard artifacts), and the zero-padded
        # "same" convs change the border, so an in-plane constant output is
        # not promised.  What holds: with edge slices replicated every depth
        # window is the same, so every output slice is the same, and away
        # from the border the output is exactly r-periodic.  One tile covers
        # this 8x8 slice, so no seam averaging enters.
        params, cfg = self._trained_params()
        vol = Volume(Tensor(np.full((6, 8, 8), 0.5, dtype=np.float32)))
        out = infer_volume(params, vol)
        assert out.shape == (6, 16, 16)
        data = out.data.data
        for i in range(1, out.shape[0]):
            assert np.array_equal(data[i], data[0])
        r, margin = cfg.scale, 4  # margin: border reach of this layer plan
        inner = data[0, margin:-margin, margin:-margin]
        assert np.array_equal(inner[r:, :], inner[:-r, :])
        assert np.array_equal(inner[:, r:], inner[:, :-r])

    def test_tiling_with_whole_slice_matches_single_forward(self):
        params, cfg = self._trained_params()
        rng = Rng(51)
        vol = Volume(Tensor(uniform_init([5, 8, 8], 0, 1, rng)))
        out = infer_volume(params, vol, tile_hw=8)
        window = vol.data.data[[0, 1, 2]][None]
        direct = forward(params, window)
        direct_clipped = np.clip(direct[0, 0].astype(np.float64), 0.0, 1.0)
        assert np.abs(out.data.data[1] - direct_clipped).max() <= 1e-6

    def test_overlapping_tiles_agree_with_whole_slice_in_interior(self):
        params, cfg = self._trained_params()
        rng = Rng(52)
        vol = Volume(Tensor(uniform_init([3, 16, 16], 0, 1, rng)))
        tiled = infer_volume(params, vol, tile_hw=12)
        whole = infer_volume(params, vol, tile_hw=16)
        r = cfg.scale
        # interior voxels whose receptive fields never touch a tile border
        inner = slice(8 * r, 8 * r + 2 * r)
        got = tiled.data.data[1, inner, inner]
        want = whole.data.data[1, inner, inner]
        assert np.abs(got - want).max() <= 1e-5

    def test_edge_windows_clamp_replicate(self):
        params, cfg = self._trained_params()
        rng = Rng(53)
        vol = Volume(Tensor(uniform_init([4, 8, 8], 0, 1, rng)))
        out = infer_volume(params, vol)
        assert out.shape[0] == 4  # slice count preserved

    def test_non_finite_layer_output_is_an_error(self):
        # the deconv output (about -1e41) overflows float32; ReLU would turn
        # the -inf into zeros and the slice would come out silently black
        params = build_model(ModelConfig(**TINY_CFG), Rng(56))
        for idx, value in ((0, 1e20), (1, -1e20)):
            shape = params.layers[idx].weights.shape
            params.layers[idx].weights = np.full(shape, value, dtype=np.float32)
        vol = Volume(Tensor(np.ones((3, 6, 6), dtype=np.float32)))
        with pytest.raises(NonFiniteError, match="layer 1"):
            infer_volume(params, vol)

    def test_overflow_on_the_pool_is_an_error_not_a_warning(self, monkeypatch):
        # the same overflow as above in a batch of two with every per-sample
        # loop on the engine's pool: the layer's errstate must hold in the
        # pool's threads too, or the overflow escapes as a RuntimeWarning
        monkeypatch.setattr(ops, "_POOL_MIN_ELEMENTS", 0)
        monkeypatch.setattr(ops, "_CPUS", max(ops._CPUS, 2))
        monkeypatch.setattr(ops, "_pool", None)
        params = build_model(ModelConfig(**TINY_CFG), Rng(56))
        for idx, value in ((0, 1e20), (1, -1e20)):
            shape = params.layers[idx].weights.shape
            params.layers[idx].weights = np.full(shape, value, dtype=np.float32)
        xs = np.ones((1, 2, 3, 6, 6), dtype=np.float32)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteError, match="layer 1"):
                    _forward_batch(params, xs, keep_caches=False)
            assert ops._pool is not None  # the layers ran on the pool
        finally:
            if ops._pool is not None:
                ops._pool.shutdown()

    def test_volume_thinner_than_window_rejected(self):
        params, cfg = self._trained_params()
        vol = Volume(Tensor(uniform_init([2, 8, 8], 0, 1, Rng(54))))
        with pytest.raises(ValueError, match="depth"):
            infer_volume(params, vol)

    def _count_forwards(self, monkeypatch):
        calls = []
        real_forward = model.forward

        def counting_forward(*args):
            calls.append(None)
            return real_forward(*args)

        monkeypatch.setattr(model, "forward", counting_forward)
        return calls

    def test_output_spacing_checked_before_any_tile(self, monkeypatch):
        # dy / r underflows to zero, a spacing no volume may hold
        params, cfg = self._trained_params()
        calls = self._count_forwards(monkeypatch)
        data = uniform_init([8, 64, 64], 0, 1, Rng(57))
        vol = Volume(Tensor(data), (5e-324, 5e-324, 5e-324))
        with pytest.raises(ValueError, match="spacing"):
            infer_volume(params, vol)
        assert calls == []

    @pytest.mark.parametrize("tile", [0, -5])
    def test_non_positive_tile_rejected_before_any_tile(self, monkeypatch, tile):
        params, cfg = self._trained_params()
        calls = self._count_forwards(monkeypatch)
        vol = Volume(Tensor(uniform_init([3, 16, 16], 0, 1, Rng(58))))
        with pytest.raises(ValueError, match=f"tile_hw must be >= 1, got {tile}"):
            infer_volume(params, vol, tile_hw=tile)
        assert calls == []

    def test_spacing_refined_in_plane(self):
        params, cfg = self._trained_params()
        vol = Volume(Tensor(uniform_init([4, 8, 8], 0, 1, Rng(55))), (2.5, 1.4, 1.4))
        out = infer_volume(params, vol)
        assert out.spacing == (2.5, 0.7, 0.7)


def _one_tile_at_a_time(params, vol, tile):
    """``infer_volume``'s output, its tiles run through ``forward`` one at a
    time and averaged in the same order."""
    n, r = params.config.feature_depth, params.config.scale
    data = vol.data.data
    depth, h, w = data.shape
    origins = [(oy, ox) for oy in model._tile_origins(h, tile, tile // 2)
               for ox in model._tile_origins(w, tile, tile // 2)]
    out = np.empty((depth, h * r, w * r), np.float32)
    for c in range(depth):
        window = data[np.clip(np.arange(c - n // 2, c + n // 2 + 1), 0, depth - 1)]
        acc, weight = np.zeros((2, h * r, w * r))
        for oy, ox in origins:
            sr = forward(params, window[None, :, oy : oy + tile, ox : ox + tile])
            acc[oy * r : (oy + tile) * r, ox * r : (ox + tile) * r] += sr[0, 0]
            weight[oy * r : (oy + tile) * r, ox * r : (ox + tile) * r] += 1.0
        out[c] = np.clip(acc / weight, 0.0, 1.0)
    return out


class TestBatchedInference:
    def test_stacks_give_the_bits_of_one_tile_at_a_time(self, monkeypatch):
        """The benchmark's paper checkpoint on a 5x64x64 volume: 9 tiles per
        slice go through ``forward`` in stacks of 2, 2, 2, 2 and 1 on two
        CPUs, and the output is, bit for bit, that of one tile at a time
        with whole-column gathers (each L1 and L2 sample in two row blocks,
        as before the gathers went in chunks).  The chunk rule must keep
        every GEMM's bits: 5-row L1 chunks counted from each row block's
        start, so that a short stack's tiles get other GEMMs than a full
        stack's, move outputs here."""
        monkeypatch.setattr(ops, "_CPUS", 2)
        blob = (Path(__file__).parents[1] / "benchmarks" / "infer_paper.ckpt").read_bytes()
        params = deserialize_params(blob)
        vol = gen_synthetic("spheres", (16, 64, 64), seed=21)
        vol = Volume(Tensor(vol.data.data[:5]), vol.spacing)
        stacks = []
        real_forward = model.forward

        def spy(params, lr_patch):
            stacks.append(len(lr_patch))
            return real_forward(params, lr_patch)

        monkeypatch.setattr(model, "forward", spy)
        got = infer_volume(params, vol).data.data
        assert stacks == [2, 2, 2, 2, 1] * 5
        monkeypatch.setattr(ops, "_GATHER_CHUNK_ELEMENTS", math.inf)
        want = _one_tile_at_a_time(params, vol, params.config.patch_hw)
        assert np.array_equal(got, want), int((got != want).sum())


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        cfg = ModelConfig(**PAPER_CFG)
        params = build_model(cfg, Rng(60))
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        assert loaded.checksum() == params.checksum()
        for a, b in zip(loaded.layers, params.layers):
            assert a.kind == b.kind and a.geom == b.geom and a.trim_hw == b.trim_hw
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)

    def test_every_config_field_round_trips(self):
        cfg = ModelConfig(feature_depth=3, conv_layers=2, filters=(5, 6, 7, 1), kernel=5,
                          scale=4, lr=0.25, seed=2**63 + 5, epochs=7, batch_size=3,
                          patch_hw=9)
        for f in dataclasses.fields(ModelConfig):
            assert getattr(cfg, f.name) != f.default, f.name
        back = deserialize_params(serialize_params(build_model(cfg, Rng(66))))
        assert back.config == cfg

    def test_config_block_stores_every_config_field(self):
        # a field added to ModelConfig fails here until the format stores it
        stored = set(model._CONFIG_FIELDS) | {"filters"}
        assert stored == {f.name for f in dataclasses.fields(ModelConfig)}

    def test_shipped_checkpoint_bytes_round_trip(self):
        # the benchmark's checkpoint, written by an earlier version of the
        # writer: it loads to its recorded checksum and is rewritten byte
        # for byte
        blob = (Path(__file__).parents[1] / "benchmarks" / "infer_paper.ckpt").read_bytes()
        params = deserialize_params(blob)
        assert params.checksum() == 1761374163
        assert serialize_params(params) == blob

    def test_serialization_deterministic(self):
        params = build_model(ModelConfig(**TINY_CFG), Rng(61))
        assert serialize_params(params) == serialize_params(params)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(cfg=small_configs())
    def test_valid_configs_round_trip(self, cfg):
        params = build_model(cfg, Rng(62))
        blob = serialize_params(params)
        back = deserialize_params(blob)
        assert back.config == cfg
        assert back.checksum() == params.checksum()
        assert serialize_params(back) == blob

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            deserialize_params(b"NOTMAGIC" + b"\0" * 64)

    def test_truncation(self):
        params = build_model(ModelConfig(**TINY_CFG), Rng(63))
        blob = serialize_params(params)
        with pytest.raises(ValueError, match="truncated"):
            deserialize_params(blob[:-5])

    def test_every_proper_prefix_is_value_error(self):
        blob = serialize_params(build_model(ModelConfig(**TINY_CFG), Rng(65)))
        for end in range(len(blob)):
            with pytest.raises(ValueError, match="truncated|magic"):
                deserialize_params(blob[:end])

    def test_trailing_garbage(self):
        params = build_model(ModelConfig(**TINY_CFG), Rng(64))
        with pytest.raises(ValueError, match="trailing"):
            deserialize_params(serialize_params(params) + b"\0")
