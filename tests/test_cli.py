import ast
import csv
import dataclasses
import math
import os
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctsr import cli, grid, metrics, model, pipeline
from ctsr.cli import (
    EXIT_INTERNAL,
    JOURNAL_HEADER,
    _csv_text,
    _journal_settings,
    _read_journal,
    _write_journal,
    main,
)
from ctsr.config import RunConfig, load_run_config
from ctsr.grid import GridSpace
from ctsr.model import (
    ModelConfig,
    build_model,
    deserialize_params,
    infer_volume,
    load_checkpoint,
    serialize_params,
)
from ctsr.pipeline import gen_synthetic, make_pairs, split_folds
from ctsr.resample import bicubic_upsample, downsample_axial
from ctsr.tensor import NonFiniteError, Rng, Tensor
from ctsr.volume import Volume, load_volume, save_volume, serialize_volume


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """Six tiny synthetic HR volumes on disk."""
    d = tmp_path_factory.mktemp("hr")
    for i in range(6):
        save_volume(gen_synthetic("spheres", (16, 24, 24), seed=i), d / f"scan{i}.svol")
    return d


def _train_config(tmp_path, hr_dir, **overrides):
    opts = {
        "data_dir": str(hr_dir),
        "out_dir": str(tmp_path / "run"),
        "feature_depth": 3,
        "conv_layers": 1,
        "filters": "3,3,1",
        "kernel": 3,
        "scale": 2,
        "lr": "1e-3",
        "seed": 5,
        "epochs": 2,
        "batch_size": 4,
        "patch_hw": 8,
    }
    opts.update(overrides)
    path = tmp_path / "run.cfg"
    path.write_text(
        "# test run\n" + "\n".join(f"{k} = {v}" for k, v in opts.items()) + "\n"
    )
    return path, tmp_path / "run"


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestSimulate:
    def test_three_inputs_three_outputs_plus_manifest(self, tmp_path, data_dir):
        out = tmp_path / "lr"
        assert main(["simulate", str(data_dir), "--out", str(out), "--scale", "2"]) == 0
        lr_files = sorted(out.glob("*_lr.svol"))
        assert len(lr_files) == 6
        manifest = (out / "manifest.csv").read_text().splitlines()
        assert manifest[0] == "scan_id,hr_path,lr_path,scale"
        assert len(manifest) == 7
        vol = load_volume(lr_files[0])
        assert vol.shape == (16, 12, 12)
        # the streamed header and payload are serialize_volume's bytes
        want = downsample_axial(load_volume(data_dir / "scan0.svol"), 2)
        assert lr_files[0].read_bytes() == serialize_volume(want)

    def test_empty_dir_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        code = main(["simulate", str(empty), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "no volumes found" in capsys.readouterr().err

    def test_scale_below_two_is_config_error_before_any_file_is_read(self, tmp_path,
                                                                      capsys):
        code = main(["simulate", str(tmp_path / "gone"), "--out", str(tmp_path / "o"),
                     "--scale", "1"])
        assert code == 2
        assert "--scale must be >= 2, got 1" in capsys.readouterr().err

    def test_volume_too_small_for_the_scale_is_data_error_naming_it(self, tmp_path, capsys):
        hr_dir = tmp_path / "hr"
        hr_dir.mkdir()
        save_volume(Volume(Tensor(np.full((2, 2, 2), 0.5, np.float32))), hr_dir / "tiny.svol")
        code = main(["simulate", str(hr_dir), "--out", str(tmp_path / "o"), "--scale", "3"])
        assert code == 3
        err = capsys.readouterr().err
        assert str(hr_dir / "tiny.svol") in err
        assert "in-plane extents 2x2 too small for factor 3" in err
        assert not (tmp_path / "o" / "manifest.csv").exists()

    def test_spacing_that_overflows_at_the_scale_is_data_error_naming_it(self, tmp_path,
                                                                          capsys):
        # 1e308 x 2 is inf, which no .svol reader accepts; the volume read
        # before it leaves no output behind
        hr_dir = tmp_path / "hr"
        hr_dir.mkdir()
        data = Tensor(np.full((2, 4, 4), 0.5, np.float32))
        save_volume(Volume(data), hr_dir / "a.svol")
        save_volume(Volume(data, (2.5, 1e308, 1e308)), hr_dir / "b.svol")
        out = tmp_path / "o"
        code = main(["simulate", str(hr_dir), "--out", str(out), "--scale", "2"])
        assert code == 3
        err = capsys.readouterr().err
        assert str(hr_dir / "b.svol") in err and "(2.5, inf, inf)" in err
        assert list(out.iterdir()) == []

    def test_rerun_is_byte_identical(self, tmp_path, data_dir):
        out = tmp_path / "lr2"
        main(["simulate", str(data_dir), "--out", str(out), "--scale", "2"])
        first = {f.name: f.read_bytes() for f in out.iterdir()}
        main(["simulate", str(data_dir), "--out", str(out), "--scale", "2"])
        second = {f.name: f.read_bytes() for f in out.iterdir()}
        assert first == second


class TestTrain:
    def test_end_to_end_checkpoint_loadable(self, tmp_path, data_dir, capsys):
        cfg_path, run_dir = _train_config(tmp_path, data_dir)
        assert main(["train", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "final validation PSNR" in out
        params = load_checkpoint(run_dir / "model.ckpt")
        assert params.config.feature_depth == 3
        report = (run_dir / "train_report.csv").read_text().splitlines()
        assert report[0] == "epoch,train_loss,val_psnr,wall_time_s"
        assert len(report) == 3

    def test_lr_zero_flat_loss(self, tmp_path, data_dir):
        cfg_path, run_dir = _train_config(tmp_path, data_dir, lr="0")
        assert main(["train", "--config", str(cfg_path)]) == 0
        rows = _read_csv(run_dir / "train_report.csv")[1:]
        losses = [row[1] for row in rows]
        assert losses[0] == losses[1]

    def test_missing_data_dir_no_partial_checkpoint(self, tmp_path, data_dir):
        cfg_path, run_dir = _train_config(tmp_path, data_dir, data_dir=str(tmp_path / "gone"))
        assert main(["train", "--config", str(cfg_path)]) == 3
        assert not (run_dir / "model.ckpt").exists()

    def test_config_errors_enumerated_all_at_once(self, tmp_path, data_dir, capsys):
        cfg_path, _ = _train_config(
            tmp_path, data_dir, kernel=4, scale=1, filters="3,3,7", bogus_key=1
        )
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "bogus_key" in err
        # the unknown key is fatal on its own pass; fix it and the model
        # invariant violations must all be listed together
        cfg_path2, _ = _train_config(tmp_path, data_dir, kernel=4, scale=1, filters="3,3,7")
        assert main(["train", "--config", str(cfg_path2)]) == 2
        err2 = capsys.readouterr().err
        assert "kernel" in err2 and "scale" in err2 and "final filter" in err2

    @pytest.mark.parametrize("shape, overrides, message", [
        ((3, 24, 24), {"feature_depth": 5}, "volume depth 3 < window depth 5"),
        ((16, 24, 24), {"patch_hw": 16}, "LR extent 12x12 too small for one 16x16 patch"),
    ], ids=["too-thin", "too-small"])
    def test_volume_that_cannot_be_paired_is_data_error_naming_it(self, tmp_path, capsys,
                                                                   shape, overrides, message):
        hr_dir = tmp_path / "hr"
        hr_dir.mkdir()
        rng = np.random.default_rng(3)
        paths = [hr_dir / f"scan{i}.svol" for i in range(4)]
        for path in paths:
            save_volume(Volume(Tensor(rng.random(shape, dtype=np.float32))), path)
        cfg_path, run_dir = _train_config(tmp_path, hr_dir, **overrides)
        assert main(["train", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert message in err
        assert any(f"volume {path} cannot be paired" in err for path in paths), err
        assert not (run_dir / "model.ckpt").exists()

    def test_seed_and_out_flags_match_the_config(self, tmp_path, data_dir):
        cfg_path, run_dir = _train_config(tmp_path, data_dir, epochs=1)
        flagged = tmp_path / "flagged"
        assert main(["train", "--config", str(cfg_path), "--seed", "6",
                     "--out", str(flagged)]) == 0
        assert not run_dir.exists()
        (tmp_path / "w").mkdir()
        written, written_dir = _train_config(tmp_path / "w", data_dir, epochs=1, seed=6)
        assert main(["train", "--config", str(written)]) == 0
        assert (flagged / "model.ckpt").read_bytes() == (written_dir / "model.ckpt").read_bytes()
        assert main(["train", "--config", str(cfg_path)]) == 0  # seed 5
        assert (run_dir / "model.ckpt").read_bytes() != (flagged / "model.ckpt").read_bytes()

    def test_val_pair_cap_hands_train_evenly_spread_pairs(self, tmp_path, data_dir,
                                                         monkeypatch):
        cfg_path, _ = _train_config(tmp_path, data_dir, epochs=1, val_pair_cap=4)
        seen = []
        real_train = model.train

        def spy(cfg, train_pairs, val_pairs):
            seen.append(val_pairs)
            return real_train(cfg, train_pairs, val_pairs)

        monkeypatch.setattr(model, "train", spy)
        assert main(["train", "--config", str(cfg_path)]) == 0
        run = load_run_config(cfg_path)
        ids = sorted(p.stem for p in data_dir.glob("*.svol"))
        every = [
            pair
            for sid in split_folds(ids, 5).val_ids()
            for pair in make_pairs(load_volume(data_dir / f"{sid}.svol"), run.model, sid)
        ]
        last = len(every) - 1
        assert last > 3
        expected = [every[i * last // 3].provenance for i in range(4)]
        assert [pair.provenance for pair in seen[0]] == expected

    def test_too_few_volumes_is_data_error_naming_the_directory(self, tmp_path, capsys):
        hr_dir = tmp_path / "hr"
        hr_dir.mkdir()
        for i in range(3):
            save_volume(gen_synthetic("spheres", (16, 24, 24), seed=i), hr_dir / f"s{i}.svol")
        cfg_path, run_dir = _train_config(tmp_path, hr_dir)
        assert main(["train", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert "need at least 4 volumes" in err and str(hr_dir) in err
        assert not run_dir.exists()

    def test_value_beyond_the_checkpoint_is_config_error_before_pairing(self, tmp_path,
                                                                       data_dir, capsys,
                                                                       monkeypatch):
        # the checkpoint stores batch_size as a u32
        built = []
        monkeypatch.setattr(pipeline, "make_pairs", lambda *args: built.append(args))
        cfg_path, run_dir = _train_config(tmp_path, data_dir, batch_size=2**32)
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert f"batch_size must be <= {2**32 - 1}" in capsys.readouterr().err
        assert built == [] and not run_dir.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("verb", ["train", "gridsearch"])
    def test_seed_flag_outside_64_bits_is_config_error(self, tmp_path, data_dir, capsys,
                                                       verb, seed):
        cfg_path, run_dir = _train_config(tmp_path, data_dir)
        assert main([verb, "--config", str(cfg_path), "--seed", str(seed)]) == 2
        assert f"seed must fit in 64 bits, got {seed}" in capsys.readouterr().err
        assert not run_dir.exists()

    @pytest.mark.parametrize("fold, code", [("test", 0), ("train", 3)])
    def test_only_the_train_and_val_folds_are_read(self, tmp_path, data_dir, capsys,
                                                   fold, code):
        hr = tmp_path / "hr"
        hr.mkdir()
        for path in data_dir.glob("*.svol"):
            (hr / path.name).write_bytes(path.read_bytes())
        folds = split_folds(sorted(p.stem for p in hr.glob("*.svol")), 5)
        damaged = hr / f"{getattr(folds, f'{fold}_ids')()[0]}.svol"
        damaged.write_bytes(damaged.read_bytes()[:-1])
        cfg_path, _ = _train_config(tmp_path, hr, epochs=1)
        assert main(["train", "--config", str(cfg_path)]) == code
        if code:
            err = capsys.readouterr().err
            assert "bad volume file" in err and str(damaged) in err


class TestInferEvaluate:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory, data_dir):
        tmp = tmp_path_factory.mktemp("train")
        cfg_path, run_dir = _train_config(tmp, data_dir, epochs=1)
        assert main(["train", "--config", str(cfg_path)]) == 0
        return run_dir / "model.ckpt"

    def test_infer_shapes_and_determinism(self, tmp_path, data_dir, trained):
        lr_dir = tmp_path / "lr"
        main(["simulate", str(data_dir), "--out", str(lr_dir), "--scale", "2"])
        lr_path = sorted(lr_dir.glob("*_lr.svol"))[0]
        out1 = tmp_path / "sr1.svol"
        out2 = tmp_path / "sr2.svol"
        assert main(["infer", str(trained), str(lr_path), "--out", str(out1)]) == 0
        assert main(["infer", str(trained), str(lr_path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        sr = load_volume(out1)
        assert sr.shape == (16, 24, 24)
        want = infer_volume(load_checkpoint(trained), load_volume(lr_path))
        assert out1.read_bytes() == serialize_volume(want)

    def test_infer_incompatible_volume(self, tmp_path, trained, capsys):
        thin = gen_synthetic("spheres", (16, 24, 24), seed=9)
        thin2 = Volume(Tensor(thin.data.data[:2]), thin.spacing)
        path = tmp_path / "thin.svol"
        save_volume(thin2, path)
        assert main(["infer", str(trained), str(path), "--out", str(tmp_path / "x.svol")]) == 3
        err = capsys.readouterr().err
        assert "depth" in err and str(path) in err

    def test_infer_spacing_that_underflows_is_data_error_before_the_network(
        self, tmp_path, trained, capsys, monkeypatch
    ):
        # 5e-324 / 2 is 0.0, which no volume accepts
        calls = []
        monkeypatch.setattr(model, "infer_volume", lambda *a, **kw: calls.append(a))
        lr_path = tmp_path / "lr.svol"
        data = Tensor(np.full((3, 8, 8), 0.5, np.float32))
        save_volume(Volume(data, (2.5, 5e-324, 5e-324)), lr_path)
        out = tmp_path / "sr.svol"
        assert main(["infer", str(trained), str(lr_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert str(lr_path) in err and "(2.5, 0.0, 0.0)" in err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("tile", ["0", "-5"])
    def test_infer_nonpositive_tile_is_config_error(self, tmp_path, data_dir, trained, capsys,
                                                    tile):
        lr_path = sorted(data_dir.glob("*.svol"))[0]
        out = tmp_path / "sr.svol"
        assert main(["infer", str(trained), str(lr_path), "--out", str(out), "--tile", tile]) == 2
        assert f"--tile must be >= 1, got {tile}" in capsys.readouterr().err
        assert not out.exists()

    def test_infer_truncated_checkpoint_is_data_error(self, tmp_path, capsys):
        ckpt = tmp_path / "short.ckpt"
        ckpt.write_bytes(b"3DECNN\0" + struct.pack("<I", 1))  # magic + version only
        assert ckpt.stat().st_size == 11
        lr_path = tmp_path / "lr.svol"
        save_volume(gen_synthetic("spheres", (16, 16, 16), seed=1), lr_path)
        code = main(["infer", str(ckpt), str(lr_path), "--out", str(tmp_path / "sr.svol")])
        assert code == 3
        err = capsys.readouterr().err
        assert str(ckpt) in err and "truncated" in err
        assert not (tmp_path / "sr.svol").exists()

    def test_infer_nan_checkpoint_is_data_error(self, tmp_path, capsys):
        cfg = ModelConfig(feature_depth=3, conv_layers=1, filters=(3, 3, 1), kernel=3, scale=2)
        blob = serialize_params(build_model(cfg, Rng(0)))
        # the last float32 of the payload is the final layer's bias
        blob = blob[:-4] + np.float32(np.nan).tobytes()
        with pytest.raises(NonFiniteError):
            deserialize_params(blob)
        ckpt = tmp_path / "nan.ckpt"
        ckpt.write_bytes(blob)
        lr_path = tmp_path / "lr.svol"
        save_volume(gen_synthetic("spheres", (16, 16, 16), seed=1), lr_path)
        code = main(["infer", str(ckpt), str(lr_path), "--out", str(tmp_path / "sr.svol")])
        assert code == 3
        assert str(ckpt) in capsys.readouterr().err
        assert not (tmp_path / "sr.svol").exists()

    def test_infer_scale_beyond_memory_is_data_error(self, tmp_path, capsys):
        # the deconv's weight shape does not depend on the scale, so the
        # checkpoint loads; its 3x8x8 input would make a 6 TiB output
        cfg = ModelConfig(feature_depth=3, conv_layers=1, filters=(3, 3, 1), kernel=3,
                          scale=65538)
        ckpt = tmp_path / "huge.ckpt"
        ckpt.write_bytes(serialize_params(build_model(cfg, Rng(0))))
        assert load_checkpoint(ckpt).config.scale == 65538
        lr_path = tmp_path / "lr.svol"
        save_volume(Volume(Tensor(np.full((3, 8, 8), 0.5, np.float32))), lr_path)
        out = tmp_path / "sr.svol"
        assert main(["infer", str(ckpt), str(lr_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert str(ckpt) in err and "scale 65538" in err and "(3, 524304, 524304)" in err
        assert not out.exists()

    @pytest.mark.parametrize("spare, code", [(-1, 3), (0, 0)])
    def test_infer_output_must_fit_in_memory(self, tmp_path, data_dir, trained, capsys,
                                             monkeypatch, spare, code):
        # a 16x12x12 volume at scale 2 makes a 16x24x24 float32 output
        need = 4 * 16 * 24 * 24
        real_sysconf = os.sysconf
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": need + spare}
        monkeypatch.setattr(
            os, "sysconf", lambda name: pages[name] if name in pages else real_sysconf(name)
        )
        lr_dir = tmp_path / "lr"
        main(["simulate", str(data_dir), "--out", str(lr_dir), "--scale", "2"])
        lr_path = sorted(lr_dir.glob("*_lr.svol"))[0]
        out = tmp_path / "sr.svol"
        assert main(["infer", str(trained), str(lr_path), "--out", str(out)]) == code
        assert out.exists() == (code == 0)
        if code:
            assert "physical memory" in capsys.readouterr().err

    def test_evaluate_reports(self, tmp_path, data_dir, trained, capsys):
        lr_dir = tmp_path / "lr"
        main(["simulate", str(data_dir), "--out", str(lr_dir), "--scale", "2"])
        lr_path = sorted(lr_dir.glob("*_lr.svol"))[0]
        hr_path = sorted(data_dir.glob("*.svol"))[0]
        sr_path = tmp_path / "sr.svol"
        main(["infer", str(trained), str(lr_path), "--out", str(sr_path)])
        # bicubic baseline on the same LR volume
        bic = bicubic_upsample(load_volume(lr_path), 2)
        bic_path = tmp_path / "bic.svol"
        save_volume(bic, bic_path)
        out_dir = tmp_path / "report"
        code = main([
            "evaluate", "--hr", str(hr_path),
            "--method", f"sr={sr_path}", "--method", f"bicubic={bic_path}",
            "--out", str(out_dir),
        ])
        assert code == 0
        metrics_rows = _read_csv(out_dir / "metrics.csv")
        assert metrics_rows[0] == ["slice_id", "method", "psnr_db", "ssim"]
        assert len(metrics_rows) == 1 + 2 * 16  # two methods x 16 slices
        # every PSNR field reads back bit for bit as the value metrics.psnr gave
        hr = load_volume(hr_path).data.data
        psnrs = {}
        for name, path in (("sr", sr_path), ("bicubic", bic_path)):
            vol = load_volume(path).data.data
            psnrs[name] = [metrics.psnr(Tensor(vol[i]), Tensor(hr[i]), 1.0) for i in range(16)]
        for slice_id, method, psnr_db, _ in metrics_rows[1:]:
            assert float(psnr_db) == psnrs[method][int(slice_id)]
        tt_rows = _read_csv(out_dir / "ttests.csv")
        assert tt_rows[0] == ["method_a", "method_b", "metric", "mean_diff", "t", "df",
                              "p_two_sided"]
        assert len(tt_rows) == 3  # psnr + ssim rows for the one pair
        psnr_row = tt_rows[1]
        assert psnr_row[:3] == ["sr", "bicubic", "psnr"]
        assert int(psnr_row[5]) == 15  # df = slices - 1
        expected = metrics.paired_t_test(psnrs["sr"], psnrs["bicubic"])
        assert float(psnr_row[3]) == expected.mean_diff
        assert float(psnr_row[6]) == expected.p_value

    def test_evaluate_self_comparison_excludes_inf(self, tmp_path, data_dir, capsys):
        hr_path = sorted(data_dir.glob("*.svol"))[0]
        out_dir = tmp_path / "selfreport"
        code = main([
            "evaluate", "--hr", str(hr_path),
            "--method", f"self={hr_path}", "--method", f"again={hr_path}",
            "--out", str(out_dir),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "excluded" in stdout
        rows = _read_csv(out_dir / "metrics.csv")[1:]
        assert all(row[2] == "inf" for row in rows)

    def test_evaluate_repeated_method_name_is_config_error(self, tmp_path, data_dir, capsys):
        hr_path, other = sorted(data_dir.glob("*.svol"))[:2]
        out_dir = tmp_path / "report"
        code = main([
            "evaluate", "--hr", str(hr_path),
            "--method", f"a={hr_path}", "--method", f"a={other}",
            "--out", str(out_dir),
        ])
        assert code == 2
        assert "--method name 'a' is given more than once" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_evaluate_one_slice_volume_is_data_error(self, tmp_path, capsys):
        one = gen_synthetic("spheres", (16, 24, 24), seed=4)
        hr_path, m_path = tmp_path / "a.svol", tmp_path / "b.svol"
        save_volume(Volume(Tensor(one.data.data[:1]), one.spacing), hr_path)
        save_volume(Volume(Tensor(one.data.data[1:2]), one.spacing), m_path)
        out_dir = tmp_path / "rep"
        code = main([
            "evaluate", "--hr", str(hr_path),
            "--method", f"m={m_path}", "--method", f"n={m_path}",
            "--out", str(out_dir),
        ])
        assert code == 3
        captured = capsys.readouterr()
        assert str(hr_path) in captured.err
        assert captured.out == "" and not out_dir.exists()
        # one method takes no t-test, so one slice is enough
        assert main(["evaluate", "--hr", str(hr_path), "--method", f"m={m_path}",
                     "--out", str(out_dir)]) == 0

    def test_evaluate_slices_smaller_than_ssim_window_is_data_error(self, tmp_path, capsys):
        hr_path = tmp_path / "tiny.svol"
        save_volume(Volume(Tensor(np.full((3, 4, 5), 0.5, np.float32))), hr_path)
        out_dir = tmp_path / "rep"
        code = main(["evaluate", "--hr", str(hr_path), "--method", f"m={hr_path}",
                     "--out", str(out_dir)])
        assert code == 3
        captured = capsys.readouterr()
        assert str(hr_path) in captured.err and "4x5" in captured.err
        assert captured.out == "" and not out_dir.exists()

    def test_evaluate_dimension_mismatch(self, tmp_path, data_dir, capsys):
        hr_path = sorted(data_dir.glob("*.svol"))[0]
        small = gen_synthetic("spheres", (16, 16, 16), seed=3)
        small_path = tmp_path / "small.svol"
        save_volume(small, small_path)
        code = main([
            "evaluate", "--hr", str(hr_path), "--method", f"m={small_path}",
            "--out", str(tmp_path / "rep"),
        ])
        assert code == 3
        assert str(small_path) in capsys.readouterr().err

    def test_evaluate_nan_volume_is_data_error(self, tmp_path, data_dir, capsys):
        hr_path = sorted(data_dir.glob("*.svol"))[0]
        nan_path = tmp_path / "nan.svol"
        # one NaN voxel: the last float32 of the payload
        nan_path.write_bytes(hr_path.read_bytes()[:-4] + np.float32(np.nan).tobytes())
        code = main([
            "evaluate", "--hr", str(hr_path), "--method", f"m={nan_path}",
            "--out", str(tmp_path / "rep"),
        ])
        assert code == 3
        assert str(nan_path) in capsys.readouterr().err

    def test_evaluate_truncated_volume_is_data_error(self, tmp_path, data_dir, capsys):
        hr_path = sorted(data_dir.glob("*.svol"))[0]
        short_path = tmp_path / "short.svol"
        short_path.write_bytes(hr_path.read_bytes()[:-1])
        code = main([
            "evaluate", "--hr", str(hr_path), "--method", f"m={short_path}",
            "--out", str(tmp_path / "rep"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert str(short_path) in err and "payload" in err


class TestCsvReports:
    def test_every_csv_round_trips(self, tmp_path, data_dir):
        # a comma in the directory, a comma and a quote in the method names
        out = tmp_path / "lr,out"
        assert main(["simulate", str(data_dir), "--out", str(out), "--scale", "2"]) == 0
        hr_paths = sorted(data_dir.glob("*.svol"))
        lr_path = out / "scan0_lr.svol"
        bic_path = out / "bic.svol"
        bic_path.write_bytes(serialize_volume(bicubic_upsample(load_volume(lr_path), 2)))
        names = ["a,b", 'q"uote']
        assert main([
            "evaluate", "--hr", str(hr_paths[0]),
            "--method", f"{names[0]}={bic_path}", "--method", f"{names[1]}={hr_paths[1]}",
            "--out", str(out),
        ]) == 0
        reports = {path.name: _read_csv(path) for path in out.glob("*.csv")}
        assert sorted(reports) == ["manifest.csv", "metrics.csv", "ttests.csv"]
        for rows in reports.values():
            assert all(len(row) == len(rows[0]) for row in rows)
        manifest = reports["manifest.csv"][1:]
        assert [row[1] for row in manifest] == [str(p) for p in hr_paths]
        assert [row[2] for row in manifest] == [str(out / f"{p.stem}_lr.svol") for p in hr_paths]
        assert {row[1] for row in reports["metrics.csv"][1:]} == set(names)
        assert [row[:3] for row in reports["ttests.csv"][1:]] == [
            [*names, "psnr"], [*names, "ssim"]
        ]


class TestConfig:
    def test_defaults_are_model_config(self, tmp_path):
        path = tmp_path / "min.cfg"
        path.write_text(f"data_dir = {tmp_path}\nout_dir = {tmp_path / 'run'}\n")
        assert load_run_config(path).model == ModelConfig()

    @pytest.mark.parametrize("verb", ["train", "gridsearch"])
    def test_non_utf8_config_is_config_error_naming_it(self, tmp_path, data_dir, capsys, verb):
        cfg_path, run_dir = _train_config(tmp_path, data_dir)
        cfg_path.write_bytes(b"\xe4" + cfg_path.read_bytes())
        assert main([verb, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert str(cfg_path) in err and "UTF-8" in err
        assert not run_dir.exists()

    @pytest.mark.parametrize("kernel", [65537, 2147483649])
    def test_unallocatable_weights_are_config_error(self, tmp_path, data_dir, capsys,
                                                    monkeypatch, kernel):
        """A layer plan whose parameters exceed physical memory is a config
        problem, found before any weight is allocated: 65537 would fail in
        numpy's allocator, 2147483649 in its index range."""

        def allocate(*args):
            raise AssertionError("weights allocated")

        monkeypatch.setattr(model, "uniform_init", allocate)
        cfg_path, run_dir = _train_config(tmp_path, data_dir, kernel=kernel, feature_depth=5,
                                          conv_layers=3, filters="64,64,32,32,1")
        assert main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"kernel {kernel}" in err and "physical memory" in err
        assert not run_dir.exists()

    def test_val_pair_cap_is_unknown_in_grid_mode(self, tmp_path, data_dir, capsys):
        cfg_path, run_dir = _train_config(tmp_path, data_dir, val_pair_cap=4)
        with open(cfg_path, "a") as fh:
            fh.write("grid_kernels = 3\ngrid_epochs = 1\n")
        assert main(["gridsearch", "--config", str(cfg_path)]) == 2
        assert "unknown key 'val_pair_cap'" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_negative_grid_epochs_is_config_error(self, tmp_path, data_dir, capsys):
        cfg_path, run_dir = _train_config(tmp_path, data_dir)
        with open(cfg_path, "a") as fh:
            fh.write("grid_kernels = 3\ngrid_epochs = -3\n")
        assert main(["gridsearch", "--config", str(cfg_path)]) == 2
        assert "grid_epochs: must be >= 0, got -3" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_invalid_combination_is_listed_with_the_other_problems(self, tmp_path, data_dir,
                                                                   capsys):
        cfg_path, run_dir = _train_config(tmp_path, data_dir)
        with open(cfg_path, "a") as fh:
            fh.write("grid_kernels = 2,3\ngrid_epochs = -3\n")
        assert main(["gridsearch", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "grid combination n=3;l=1;f=(3,3,1);k=2;r=2 is invalid" in err
        assert "grid_epochs: must be >= 0, got -3" in err
        assert not run_dir.exists()

    def test_hash_is_a_comment_only_at_the_start_of_a_line(self, tmp_path, data_dir, capsys):
        """A `#` inside a value is kept, so the config names the directory
        it says; a comment after a number makes it no number (exit 2)."""
        hashed = tmp_path / "scans#2"
        cfg_path, _ = _train_config(tmp_path, hashed)
        with open(cfg_path, "a") as fh:
            fh.write("   # an indented comment\n")
        assert load_run_config(cfg_path).data_dir == str(hashed)
        cfg_path, run_dir = _train_config(tmp_path, data_dir, lr="0.001 # note")
        assert main(["train", "--config", str(cfg_path)]) == 2
        assert "lr: expected a number, got '0.001 # note'" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_repeated_combination_is_config_error(self, tmp_path, data_dir, capsys):
        """A candidate listed twice would train and rank its combination
        twice, and a resume would journal it twice."""
        cfg_path, run_dir = _train_config(tmp_path, data_dir)
        with open(cfg_path, "a") as fh:
            fh.write("grid_kernels = 3,5,3\ngrid_epochs = 1\n")
        assert main(["gridsearch", "--config", str(cfg_path)]) == 2
        assert "grid combination n=3;l=1;f=(3,3,1);k=3;r=2 is repeated" in capsys.readouterr().err
        assert not run_dir.exists()


class TestGridsearch:
    def test_singleton_space_one_row(self, tmp_path, data_dir):
        cfg_path, run_dir = _train_config(tmp_path, data_dir, epochs=2)
        with open(cfg_path, "a") as fh:
            fh.write("grid_kernels = 3\ngrid_epochs = 1\n")
        assert main(["gridsearch", "--config", str(cfg_path)]) == 0
        lines = (run_dir / "gridsearch_results.csv").read_text().splitlines()
        assert lines[0] == "rank,config,val_psnr,error"
        assert len(lines) == 2
        assert lines[1].startswith("1,")

    def test_kernel_sweep_three_ranked_rows(self, tmp_path, data_dir):
        cfg_path, run_dir = _train_config(tmp_path, data_dir, epochs=2, patch_hw=8)
        with open(cfg_path, "a") as fh:
            fh.write("grid_kernels = 1,3,5\ngrid_epochs = 1\n")
        assert main(["gridsearch", "--config", str(cfg_path)]) == 0
        rows = _read_csv(run_dir / "gridsearch_results.csv")[1:]
        assert len(rows) == 3
        ranks = [int(row[0]) for row in rows]
        assert ranks == [1, 2, 3]
        assert sorted(row[1] for row in rows) == [
            f"n=3;l=1;f=(3,3,1);k={k};r=2" for k in (1, 3, 5)
        ]
        psnrs = [float(row[2]) for row in rows]
        assert psnrs == sorted(psnrs, reverse=True)

    def test_resume_skips_completed(self, tmp_path, data_dir, capsys):
        cfg_path, run_dir = _train_config(tmp_path, data_dir, epochs=2)
        with open(cfg_path, "a") as fh:
            fh.write("grid_kernels = 1,3\ngrid_epochs = 1\n")
        assert main(["gridsearch", "--config", str(cfg_path)]) == 0
        journal = (run_dir / "gridsearch_journal.csv").read_text()
        assert len(journal.splitlines()) == 3
        capsys.readouterr()
        # rerun: both combos already journaled, nothing retrained
        assert main(["gridsearch", "--config", str(cfg_path)]) == 0
        assert "resuming: 2 combination(s)" in capsys.readouterr().out
        assert (run_dir / "gridsearch_journal.csv").read_text() == journal
        lines = (run_dir / "gridsearch_results.csv").read_text().splitlines()[1:]
        assert len(lines) == 2


    def test_failed_combination_error_round_trips(self, tmp_path, data_dir, monkeypatch):
        cfg_path, run_dir = _train_config(tmp_path, data_dir, epochs=2)
        with open(cfg_path, "a") as fh:
            fh.write("grid_kernels = 1,3\ngrid_epochs = 1\n")
        message = "training diverged at epoch 0, batch 2: loss, then\nmore"
        real_train = grid.train

        def failing_train(cfg, train_pairs, val_pairs):
            if cfg.kernel == 1:
                raise NonFiniteError(message)
            return real_train(cfg, train_pairs, val_pairs)

        monkeypatch.setattr(grid, "train", failing_train)
        assert main(["gridsearch", "--config", str(cfg_path)]) == 0
        failed_key = "n=3;l=1;f=(3,3,1);k=1;r=2"
        error = f"NonFiniteError: {message}"
        journal = _read_csv(run_dir / "gridsearch_journal.csv")
        settings = _journal_settings(load_run_config(cfg_path, grid=True).model, 1)
        assert [failed_key, settings, "", error] in journal
        results = _read_csv(run_dir / "gridsearch_results.csv")
        assert results[-1] == ["", failed_key, "", error]
        # resumed from the journal alone, the failure is reported unchanged
        monkeypatch.setattr(grid, "train", real_train)
        first = (run_dir / "gridsearch_results.csv").read_bytes()
        assert main(["gridsearch", "--config", str(cfg_path)]) == 0
        assert (run_dir / "gridsearch_results.csv").read_bytes() == first

    @pytest.mark.parametrize("row", [
        "n=3;l=1;f=(3,3,1);k=1;r=2,12.5,",  # unquoted key, as older versions wrote
        '"n=3;l=1;f=(3,3,1);k=1;r=2",twelve,',  # no settings, as older versions wrote
        '"n=3;l=1;f=(3,3,1);k=1;r=2",{settings},twelve,',
    ])
    def test_bad_journal_row_is_data_error(self, tmp_path, data_dir, capsys, row):
        cfg_path, run_dir = _train_config(tmp_path, data_dir, epochs=2)
        with open(cfg_path, "a") as fh:
            fh.write("grid_kernels = 1,3\ngrid_epochs = 1\n")
        run_dir.mkdir()
        journal_path = run_dir / "gridsearch_journal.csv"
        settings = _journal_settings(load_run_config(cfg_path, grid=True).model, 1)
        row = row.replace("{settings}", settings)
        journal_path.write_text(f"{','.join(JOURNAL_HEADER)}\n{row}\n", encoding="utf-8")
        assert main(["gridsearch", "--config", str(cfg_path)]) == 3
        assert str(journal_path) in capsys.readouterr().err
        assert not (run_dir / "gridsearch_results.csv").exists()

    @staticmethod
    def _journaled_sweep(tmp_path, data_dir, psnr_k1, psnr_k3):
        """A k = 1,3 sweep whose journal already holds both combinations,
        k=1 on line 2 and k=3 on line 3, with these PSNR fields."""
        cfg_path, run_dir = _train_config(tmp_path, data_dir, epochs=2)
        with open(cfg_path, "a") as fh:
            fh.write("grid_kernels = 1,3\ngrid_epochs = 1\n")
        run_dir.mkdir()
        settings = _journal_settings(load_run_config(cfg_path, grid=True).model, 1)
        rows = [JOURNAL_HEADER] + [
            [f"n=3;l=1;f=(3,3,1);k={k};r=2", settings, psnr, ""]
            for k, psnr in ((1, psnr_k1), (3, psnr_k3))
        ]
        journal_path = run_dir / "gridsearch_journal.csv"
        journal_path.write_text(_csv_text(rows), encoding="utf-8", newline="")
        return cfg_path, run_dir, journal_path

    @pytest.mark.parametrize("psnr", ["nan", "-inf", "NaN"])
    def test_journal_psnr_nan_or_minus_inf_is_data_error(self, tmp_path, data_dir, capsys,
                                                         psnr):
        # a run's validation PSNR is a finite mean or +inf, never NaN or -inf,
        # and a NaN would rank first
        cfg_path, run_dir, journal_path = self._journaled_sweep(
            tmp_path, data_dir, "12.5", psnr
        )
        assert main(["gridsearch", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert str(journal_path) in err and "line 3" in err
        assert not (run_dir / "gridsearch_results.csv").exists()

    def test_journal_psnr_plus_inf_ranks_first(self, tmp_path, data_dir):
        # +inf is the PSNR of a zero validation error
        cfg_path, run_dir, _ = self._journaled_sweep(tmp_path, data_dir, "12.5", "inf")
        assert main(["gridsearch", "--config", str(cfg_path)]) == 0
        rows = _read_csv(run_dir / "gridsearch_results.csv")[1:]
        assert [row[1:3] for row in rows] == [
            ["n=3;l=1;f=(3,3,1);k=3;r=2", "inf"],
            ["n=3;l=1;f=(3,3,1);k=1;r=2", "12.5"],
        ]


    def test_resume_ranks_only_this_space(self, tmp_path, data_dir):
        cfg_path, run_dir = _train_config(tmp_path, data_dir, epochs=2)
        base = cfg_path.read_text()
        cfg_path.write_text(base + "grid_kernels = 1\ngrid_epochs = 1\n")
        assert main(["gridsearch", "--config", str(cfg_path)]) == 0
        cfg_path.write_text(base + "grid_kernels = 3\ngrid_epochs = 1\n")
        assert main(["gridsearch", "--config", str(cfg_path)]) == 0
        rows = _read_csv(run_dir / "gridsearch_results.csv")[1:]
        assert [row[1] for row in rows] == ["n=3;l=1;f=(3,3,1);k=3;r=2"]
        # the k=1 row stays in the journal for a later sweep that includes it
        assert len(_read_csv(run_dir / "gridsearch_journal.csv")) == 3

    @pytest.mark.parametrize("setting", [
        "lr = 0.5", "seed = 6", "batch_size = 2", "patch_hw = 6", "grid_epochs = 2",
    ])
    def test_resume_under_other_settings_is_data_error(self, tmp_path, data_dir, capsys,
                                                       setting):
        cfg_path, run_dir = _train_config(tmp_path, data_dir, epochs=2)
        base = cfg_path.read_text()
        cfg_path.write_text(base + "grid_kernels = 1\ngrid_epochs = 1\n")
        assert main(["gridsearch", "--config", str(cfg_path)]) == 0
        key = setting.split(" = ")[0]
        changed = [line for line in base.splitlines() if not line.startswith(key + " ")]
        grid_epochs = "" if key == "grid_epochs" else "grid_epochs = 1\n"
        cfg_path.write_text(
            "\n".join(changed) + f"\n{setting}\ngrid_kernels = 3\n{grid_epochs}"
        )
        capsys.readouterr()
        assert main(["gridsearch", "--config", str(cfg_path)]) == 3
        assert str(run_dir / "gridsearch_journal.csv") in capsys.readouterr().err
        assert len(_read_csv(run_dir / "gridsearch_journal.csv")) == 2  # nothing trained

    def test_journal_identity_covers_every_setting_but_epochs(self):
        """A journaled result is reused for a combination with the same key
        and settings, so every field that a result depends on must change
        one of them; epochs is replaced by the sweep's budget."""
        def identity(cfg, budget=1):
            return cfg.key(), _journal_settings(cfg, budget)

        base = ModelConfig()
        other_value = {int: lambda v: v + 2, float: lambda v: 2 * v + 1,
                       tuple: lambda v: v + (1,)}
        for f in dataclasses.fields(ModelConfig):
            value = getattr(base, f.name)
            cfg = dataclasses.replace(base, **{f.name: other_value[type(value)](value)})
            assert (identity(cfg) == identity(base)) == (f.name == "epochs"), f.name
        assert identity(base, 2) != identity(base, 1)

    def test_resume_journal_without_final_newline(self, tmp_path, data_dir):
        cfg_path, run_dir = _train_config(tmp_path, data_dir, epochs=2)
        with open(cfg_path, "a") as fh:
            fh.write("grid_kernels = 3\ngrid_epochs = 1\n")
        run_dir.mkdir()
        journal_path = run_dir / "gridsearch_journal.csv"
        settings = _journal_settings(load_run_config(cfg_path, grid=True).model, 1)
        k1 = ["n=3;l=1;f=(3,3,1);k=1;r=2", settings, "12.5", ""]
        journal_path.write_text(_csv_text([JOURNAL_HEADER, k1]).rstrip("\n"), encoding="utf-8")
        assert main(["gridsearch", "--config", str(cfg_path)]) == 0
        journal = _read_csv(journal_path)
        assert journal[:2] == [JOURNAL_HEADER, k1]
        assert [row[0] for row in journal[2:]] == ["n=3;l=1;f=(3,3,1);k=3;r=2"]

    def test_resume_keeps_the_bytes_of_the_old_rows(self, tmp_path, data_dir):
        cfg_path, run_dir = _train_config(tmp_path, data_dir, epochs=2)
        base = cfg_path.read_text()
        journal_path = run_dir / "gridsearch_journal.csv"
        cfg_path.write_text(base + "grid_kernels = 1\ngrid_epochs = 1\n")
        assert main(["gridsearch", "--config", str(cfg_path)]) == 0
        old = journal_path.read_bytes()
        cfg_path.write_text(base + "grid_kernels = 1,3,5\ngrid_epochs = 1\n")
        assert main(["gridsearch", "--config", str(cfg_path)]) == 0
        assert journal_path.read_bytes().startswith(old)
        assert [row[0] for row in _read_csv(journal_path)[1:]] == [
            f"n=3;l=1;f=(3,3,1);k={k};r=2" for k in (1, 3, 5)
        ]

    def test_failed_journal_write_keeps_the_last_complete_journal(self, tmp_path, data_dir,
                                                                  monkeypatch, capsys):
        # the journal is written when the sweep starts and after each result;
        # the write after the second result fails
        cfg_path, run_dir = _train_config(tmp_path, data_dir, epochs=2)
        with open(cfg_path, "a") as fh:
            fh.write("grid_kernels = 1,3,5\ngrid_epochs = 1\n")
        journal_path = run_dir / "gridsearch_journal.csv"
        written = []
        real_write = cli._atomic_write

        def failing_write(path, data):
            if path == journal_path:
                if len(written) == 2:
                    raise OSError(28, "No space left on device", str(path))
                written.append(data)
            real_write(path, data)

        monkeypatch.setattr(cli, "_atomic_write", failing_write)
        assert main(["gridsearch", "--config", str(cfg_path)]) == 3
        assert "No space left on device" in capsys.readouterr().err
        assert journal_path.read_bytes() == written[1]
        assert [row[0] for row in _read_csv(journal_path)] == [
            JOURNAL_HEADER[0], "n=3;l=1;f=(3,3,1);k=1;r=2"
        ]
        assert sorted(p.name for p in run_dir.iterdir()) == ["gridsearch_journal.csv"]

    def test_results_file_ranks_like_rank_results(self, tmp_path, data_dir):
        # every combination already journaled, so the results file is ranked
        # from the journal alone: ok, tied and failed rows in scrambled order
        cfg_path, run_dir = _train_config(tmp_path, data_dir, epochs=2)
        with open(cfg_path, "a") as fh:
            fh.write("grid_feature_depths = 1,3\ngrid_kernels = 1,3,5\ngrid_epochs = 1\n")
        run = load_run_config(cfg_path, grid=True)
        configs = run.grid.combinations(run.model)
        outcomes = [(20.0, ""), (None, "RuntimeError: a"), (25.5, ""), (20.0, ""),
                    (None, "ValueError: b"), (11.25, "")]
        run_dir.mkdir()
        settings = _journal_settings(run.model, 1)
        journal = [JOURNAL_HEADER] + [
            [cfg.key(), settings, "" if psnr is None else repr(psnr), err]
            for cfg, (psnr, err) in zip(configs, outcomes)
        ]
        with open(run_dir / "gridsearch_journal.csv", "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(journal)
        assert main(["gridsearch", "--config", str(cfg_path)]) == 0
        rows = _read_csv(run_dir / "gridsearch_results.csv")[1:]
        ranked = grid.rank_results(
            [grid.GridResult(cfg, psnr, err) for cfg, (psnr, err) in zip(configs, outcomes)]
        )
        assert [row[1] for row in rows] == [r.config.key() for r in ranked]
        assert [row[0] for row in rows] == ["1", "2", "3", "4", "", ""]
        assert [row[2] for row in rows[:4]] == ["25.5", "20.0", "20.0", "11.25"]
        assert rows[1][1] < rows[2][1]  # the tie goes to the smaller key

    def test_unexpected_error_propagates_and_is_retried(self, tmp_path, data_dir,
                                                        monkeypatch, capsys):
        # only a ValueError fails a combination; anything else is a defect
        # that stops the sweep with the internal-error exit and leaves no
        # journal row, so a resume retries it
        cfg_path, run_dir = _train_config(tmp_path, data_dir, epochs=2)
        with open(cfg_path, "a") as fh:
            fh.write("grid_kernels = 1,3\ngrid_epochs = 1\n")
        real_train = grid.train

        def broken_train(cfg, train_pairs, val_pairs):
            raise TypeError("a defect")

        monkeypatch.setattr(grid, "train", broken_train)
        capsys.readouterr()
        assert main(["gridsearch", "--config", str(cfg_path)]) == EXIT_INTERNAL == 1
        assert capsys.readouterr().err == "error: internal error (TypeError): a defect\n"
        assert _read_csv(run_dir / "gridsearch_journal.csv") == [JOURNAL_HEADER]
        assert not (run_dir / "gridsearch_results.csv").exists()
        monkeypatch.setattr(grid, "train", real_train)
        assert main(["gridsearch", "--config", str(cfg_path)]) == 0
        assert len(_read_csv(run_dir / "gridsearch_journal.csv")) == 3

    @pytest.mark.parametrize("errors, code", [
        (("NonFiniteError: no", "NonFiniteError: no"), 4),
        (("ValueError: volume depth 16 < window depth 17", "NonFiniteError: no"), 3),
    ])
    def test_nothing_trained_is_an_error(self, tmp_path, data_dir, capsys, monkeypatch,
                                         errors, code):
        # every training diverges; with code 3 the n=17 combination fails
        # before it, because a 16-slice volume has no 17-slice window
        cfg_path, run_dir = _train_config(tmp_path, data_dir, epochs=2)
        space = "grid_kernels = 1,3" if code == 4 else "grid_feature_depths = 3,17"
        with open(cfg_path, "a") as fh:
            fh.write(f"{space}\ngrid_epochs = 1\n")

        def failing_train(cfg, train_pairs, val_pairs):
            raise NonFiniteError("no")

        monkeypatch.setattr(grid, "train", failing_train)
        assert main(["gridsearch", "--config", str(cfg_path)]) == code
        results = run_dir / "gridsearch_results.csv"
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(results) in err
        rows = _read_csv(results)[1:]
        assert [row[3] for row in rows] == list(errors)
        # resumed from the journal alone, the outcome is the same
        assert main(["gridsearch", "--config", str(cfg_path)]) == code


# journal text: the characters a key, a setting or an error text may hold
# that CSV must quote or that the key syntax uses
_JOURNAL_TEXT = st.text(st.sampled_from('ak1.,;()="\' \n\r'), max_size=10)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    entries=st.dictionaries(
        _JOURNAL_TEXT,
        st.tuples(
            st.one_of(st.none(), st.just(math.inf),
                      st.floats(allow_nan=False, allow_infinity=False)),
            _JOURNAL_TEXT,
        ),
        max_size=4,
    ),
    settings_text=_JOURNAL_TEXT,
)
def test_journal_round_trips(tmp_path_factory, entries, settings_text):
    path = tmp_path_factory.mktemp("journal") / "gridsearch_journal.csv"
    _write_journal(path, entries, settings_text)
    assert _read_journal(path, settings_text) == entries


# a config value that is a path: printable ASCII, `#` and `=` as often as
# the rest, and no blank at either end, which the reader strips
_CONFIG_PATH = st.text(
    st.one_of(st.sampled_from("#="), st.characters(min_codepoint=0x20, max_codepoint=0x7E)),
    min_size=1, max_size=20,
).filter(lambda text: text == text.strip())
_ODD = st.sampled_from((1, 3, 5, 7))
_U32 = st.integers(1, model._U32_MAX)


@st.composite
def _filters(draw, layers):
    return (*draw(st.lists(st.integers(1, 64), min_size=layers + 1, max_size=layers + 1)), 1)


@st.composite
def _run_configs(draw):
    """(config file text, grid mode, the RunConfig it holds): every
    ModelConfig field, and val_pair_cap or every grid key, valid."""
    layers = draw(st.integers(1, 3))
    model_cfg = ModelConfig(
        feature_depth=draw(_ODD), conv_layers=layers, filters=draw(_filters(layers)),
        kernel=draw(_ODD), scale=draw(st.integers(2, 4)),
        lr=draw(st.floats(min_value=0.0, allow_infinity=False)),
        seed=draw(st.integers(0, 2**64 - 1)), epochs=draw(_U32),
        batch_size=draw(_U32), patch_hw=draw(_U32),
    )
    want = RunConfig(draw(_CONFIG_PATH), draw(_CONFIG_PATH), model_cfg)
    options = {"data_dir": want.data_dir, "out_dir": want.out_dir}
    for f in dataclasses.fields(ModelConfig):
        value = getattr(model_cfg, f.name)
        options[f.name] = ",".join(map(str, value)) if f.name == "filters" else repr(value)
    grid_mode = draw(st.booleans())
    if not grid_mode:
        want.val_pair_cap = draw(st.integers(0, model._U32_MAX))
        options["val_pair_cap"] = want.val_pair_cap
    else:
        # an empty candidate list is the base model's value, so the filter
        # configs may be empty only where the base's conv count holds
        grid_layers = draw(st.lists(st.integers(1, 3), max_size=1))
        space = [
            draw(st.lists(_ODD, unique=True, max_size=3)),
            grid_layers,
            draw(st.lists(_filters(grid_layers[0] if grid_layers else layers), unique=True,
                          min_size=len(grid_layers), max_size=3)),
            draw(st.lists(_ODD, unique=True, max_size=3)),
        ]
        options["grid_feature_depths"] = ",".join(map(str, space[0]))
        options["grid_conv_layers"] = ",".join(map(str, space[1]))
        options["grid_filter_configs"] = ";".join(",".join(map(str, f)) for f in space[2])
        options["grid_kernels"] = ",".join(map(str, space[3]))
        base = [[model_cfg.feature_depth], [layers], [model_cfg.filters], [model_cfg.kernel]]
        want.grid = GridSpace(*(got or fallback for got, fallback in zip(space, base)))
        epochs = draw(st.integers(0, 1000))
        options["grid_epochs"] = epochs
        want.grid_epochs = epochs or grid.default_epoch_budget(model_cfg)
    text = "  # a comment\n" + "".join(f"{k} = {v}\n" for k, v in options.items())
    return text, grid_mode, want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_run_configs())
def test_valid_config_round_trips(tmp_path_factory, case):
    text, grid_mode, want = case
    path = tmp_path_factory.mktemp("config") / "run.cfg"
    path.write_text(text, encoding="utf-8")
    assert load_run_config(path, grid=grid_mode) == want


def test_atomic_write_leaves_the_old_file_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "report.csv"
    path.write_bytes(b"old\n")

    def failing_replace(src, dst):
        raise OSError(28, "No space left on device", str(dst))

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    with pytest.raises(OSError):
        cli._atomic_write(path, b"new\n")
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]


def test_atomic_write_failing_after_its_first_part_leaves_the_old_file(tmp_path):
    # a volume is written as its header, then its payload
    path = tmp_path / "lr.svol"
    path.write_bytes(b"old\n")
    with pytest.raises(TypeError):
        cli._atomic_write(path, b"SVOL 1\n", object())
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["lr.svol"]


class TestOneCsvWriter:
    """``cli.py`` writes every CSV file, the grid journal included, as a
    whole through ``_csv_text``: no file is opened for appending, and no
    other function makes a csv writer."""

    TREE = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))

    def test_no_file_is_opened_for_appending(self):
        modes = []
        for node in ast.walk(self.TREE):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                positional = node.args[1:2]  # open(file, mode)
            elif isinstance(func, ast.Attribute) and func.attr == "open":
                positional = node.args[:1]  # Path.open(mode)
            else:
                continue
            modes += positional + [kw.value for kw in node.keywords if kw.arg == "mode"]
        assert all(isinstance(m, ast.Constant) and "a" not in m.value for m in modes)
        assert not any(isinstance(node, ast.Attribute) and node.attr == "O_APPEND"
                       for node in ast.walk(self.TREE))

    def test_csv_writer_is_made_only_in_csv_text(self):
        def writers(tree):
            return [
                node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in ("writer", "DictWriter")
                and isinstance(node.value, ast.Name) and node.value.id == "csv"
            ]

        (csv_text,) = [node for node in ast.walk(self.TREE)
                       if isinstance(node, ast.FunctionDef) and node.name == "_csv_text"]
        assert len(writers(csv_text)) == 1
        assert len(writers(self.TREE)) == 1
        assert not any(isinstance(node, ast.ImportFrom) and node.module == "csv"
                       for node in ast.walk(self.TREE))


def test_csv_text_quotes_a_bare_carriage_return(tmp_path):
    # a reader ends a row at an unquoted "\r"
    rows = [["a\rb", "c\r\nd", "e"], [], [""], ["x,y", 'q"u', None, 1.5]]
    text = _csv_text(rows)
    assert text == '"a\rb","c\r\nd",e\n\n""\n"x,y","q""u",,1.5\n'
    path = tmp_path / "rows.csv"
    cli._write_csv(path, rows)
    assert _read_csv(path) == [["a\rb", "c\r\nd", "e"], [], [""], ["x,y", 'q"u', "", "1.5"]]


class TestExitCodes:
    # a function that each command's work calls: the .svol header and
    # payload, training, inference, SSIM and grid search's training
    WORK = {
        "simulate": (cli, "svol_parts"),
        "train": (model, "train"),
        "infer": (model, "infer_volume"),
        "evaluate": (metrics, "ssim"),
        "gridsearch": (grid, "train"),
    }

    @pytest.mark.parametrize("verb", list(WORK))
    def test_bare_value_error_is_an_internal_error(self, tmp_path, data_dir, capsys,
                                                  monkeypatch, verb):
        """Only the exception types that the CLI documents map to exit codes
        2-4; a bare ValueError inside a command's work is a defect."""
        cfg_path, run_dir = _train_config(tmp_path, data_dir, epochs=1)
        with open(cfg_path, "a") as fh:
            fh.write("grid_kernels = 1,3\ngrid_epochs = 1\n" if verb == "gridsearch" else "")
        ckpt = tmp_path / "model.ckpt"
        cfg = ModelConfig(feature_depth=3, conv_layers=1, filters=(3, 3, 1), kernel=3, scale=2)
        ckpt.write_bytes(serialize_params(build_model(cfg, Rng(0))))
        hr = sorted(data_dir.glob("*.svol"))
        out = tmp_path / "out"
        argv = {
            "simulate": ["simulate", str(data_dir), "--out", str(out), "--scale", "2"],
            "train": ["train", "--config", str(cfg_path)],
            "infer": ["infer", str(ckpt), str(hr[0]), "--out", str(out / "sr.svol")],
            "evaluate": ["evaluate", "--hr", str(hr[0]), "--method", f"m={hr[1]}",
                         "--out", str(out)],
            "gridsearch": ["gridsearch", "--config", str(cfg_path)],
        }[verb]

        def broken(*args, **kwargs):
            raise ValueError("a defect")

        monkeypatch.setattr(*self.WORK[verb], broken)
        assert main(argv) == EXIT_INTERNAL
        assert capsys.readouterr().err == "error: internal error (ValueError): a defect\n"
        if verb == "gridsearch":
            assert _read_csv(run_dir / "gridsearch_journal.csv") == [JOURNAL_HEADER]
            assert not (run_dir / "gridsearch_results.csv").exists()


class TestCliSurface:
    def test_unknown_flag_fatal(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "x", "--nope"])
        assert exc.value.code == 2

    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for verb in ("simulate", "train", "infer", "evaluate", "gridsearch"):
            assert verb in out

    @pytest.mark.parametrize("verb", ["simulate", "train", "infer", "evaluate", "gridsearch"])
    def test_per_command_help(self, verb, capsys):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--help"])
        assert exc.value.code == 0
