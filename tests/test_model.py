import math
import tracemalloc

import numpy as np
import pytest

from ctsr.model import (
    ModelConfig,
    _apply_trim,
    _backward_batch,
    _forward_batch,
    _layer_plan,
    build_model,
    deserialize_params,
    forward,
    infer_volume,
    load_checkpoint,
    save_checkpoint,
    serialize_params,
    train,
)
from ctsr.ops import _conv_fwd_b, _deconv_fwd_b, conv3d_forward, deconv3d_forward
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

    def test_matches_manual_composition(self):
        cfg = ModelConfig(**PAPER_CFG)
        params = build_model(cfg, Rng(4))
        x = uniform_init([1, 5, 10, 10], 0, 1, Rng(5))
        h = x
        for i, layer in enumerate(params.layers):
            if layer.kind == "conv":
                h = conv3d_forward(h, layer.weights, layer.bias, layer.geom)
            else:
                h = deconv3d_forward(h, layer.weights, layer.bias, layer.geom)
            if i < len(params.layers) - 1:
                h = np.maximum(h, np.float32(0))
        out = forward(params, x)
        assert out.dtype == h.dtype == np.float32 and np.array_equal(out, h)

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


def _pre_activation(layer, h, w64):
    """A layer's output before its ReLU, recomputed from its cached input."""
    b64 = layer.bias.astype(np.float64)
    if layer.kind == "conv":
        return _conv_fwd_b(h, w64, b64, layer.geom)
    return _apply_trim(_deconv_fwd_b(h, w64, b64, layer.geom), layer.trim_hw)


class TestEndToEndGradient:
    def test_composite_gradient_matches_finite_differences(self):
        cfg = ModelConfig(**TINY_CFG)
        params = build_model(cfg, Rng(21))
        rng = Rng(22)
        x = uniform_init([1, 3, 6, 6], 0, 1, rng)
        y = uniform_init([1, 1, 12, 12], 0, 1, rng)
        # zero biases leave most deconv pre-activations exactly on the ReLU
        # kink, where central differences do not measure the derivative
        for layer in params.layers:
            layer.bias = uniform_init(layer.bias.shape, -0.1, 0.1, rng)
        eps = 1e-3

        xs = x[:, None].astype(np.float64)
        ys = y[:, None]
        out, caches = _forward_batch(params, xs, keep_caches=True)
        margin = min(
            np.abs(_pre_activation(layer, h, w64)).min()
            for layer, (h, w64) in zip(params.layers[:-1], caches)
        )
        assert margin > 2 * eps, f"evaluation point within {margin} of a ReLU kink"
        diff = out - ys
        grads = _backward_batch(params, caches, (2.0 / diff.size) * diff)

        def loss_with(layer_idx, which, values):
            saved = getattr(params.layers[layer_idx], which)
            setattr(params.layers[layer_idx], which, values.astype(np.float32))
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
                scale = max(np.abs(fd).max(), 1e-3)
                assert np.abs(got - fd).max() / scale <= 1e-3, (idx, which)


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
        assert r1.params_checksum == r2.params_checksum
        assert serialize_params(p1) == serialize_params(p2)

    def test_empty_dataset_rejected(self):
        cfg = ModelConfig(**TINY_CFG)
        with pytest.raises(ValueError, match="non-empty"):
            train(cfg, [], [])

    def test_peak_memory_below_two_l1_column_matrices(self):
        # The paper config at 8x8 patches, two batches of 16.  One batch's L1
        # im2col matrix is 13.5 MiB of float64; the training step keeps only
        # each layer's input, so no column matrix of a whole batch, nor the
        # previous batch's activations, is ever held.
        cfg = ModelConfig(**PAPER_CFG, patch_hw=8, batch_size=16, epochs=1)
        pairs = _tiny_pairs(32, Rng(36), cfg)
        geom = _layer_plan(cfg)[1][1]  # 64 -> 64 channels on a depth-3 input
        columns = cfg.batch_size * math.prod(geom.conv_output_shape((3, 8, 8)))
        l1_cols_bytes = 8 * geom.in_channels * math.prod(geom.kernel) * columns
        tracemalloc.start()
        try:
            train(cfg, pairs, pairs[:16])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * l1_cols_bytes, f"traced peak {peak / 2**20:.1f} MiB"

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

    def test_volume_thinner_than_window_rejected(self):
        params, cfg = self._trained_params()
        vol = Volume(Tensor(uniform_init([2, 8, 8], 0, 1, Rng(54))))
        with pytest.raises(ValueError, match="depth"):
            infer_volume(params, vol)

    def test_spacing_refined_in_plane(self):
        params, cfg = self._trained_params()
        vol = Volume(Tensor(uniform_init([4, 8, 8], 0, 1, Rng(55))), (2.5, 1.4, 1.4))
        out = infer_volume(params, vol)
        assert out.spacing == (2.5, 0.7, 0.7)


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

    def test_serialization_deterministic(self):
        params = build_model(ModelConfig(**TINY_CFG), Rng(61))
        assert serialize_params(params) == serialize_params(params)

    def test_many_randomized_roundtrips(self):
        rng = Rng(62)
        for trial in range(20):
            u = rng.next_u64(4)
            cfg = ModelConfig(
                feature_depth=(1, 3, 5)[int(u[0] % 3)],
                conv_layers=1 + int(u[1] % 2),
                filters=tuple([1 + int(u[2] % 3)] * (1 + int(u[1] % 2)) + [2, 1]),
                kernel=(1, 3)[int(u[3] % 2)],
                scale=2 + int(u[0] % 2),
                seed=int(u[2]),
            )
            if cfg.problems():
                continue
            params = build_model(cfg, Rng(trial))
            blob = serialize_params(params)
            back = deserialize_params(blob)
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
