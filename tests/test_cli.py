import csv
import struct

import numpy as np
import pytest

from ctsr import grid, metrics
from ctsr.cli import JOURNAL_HEADER, _csv_text, _journal_settings, main
from ctsr.config import load_run_config
from ctsr.model import (
    ModelConfig,
    build_model,
    deserialize_params,
    load_checkpoint,
    serialize_params,
)
from ctsr.pipeline import gen_synthetic
from ctsr.resample import bicubic_upsample
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

    def test_empty_dir_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        code = main(["simulate", str(empty), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "no volumes found" in capsys.readouterr().err

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

    def test_infer_incompatible_volume(self, tmp_path, trained, capsys):
        thin = gen_synthetic("spheres", (16, 24, 24), seed=9)
        thin2 = Volume(Tensor(thin.data.data[:2]), thin.spacing)
        path = tmp_path / "thin.svol"
        save_volume(thin2, path)
        assert main(["infer", str(trained), str(path), "--out", str(tmp_path / "x.svol")]) == 3
        assert "depth" in capsys.readouterr().err

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
                raise RuntimeError(message)
            return real_train(cfg, train_pairs, val_pairs)

        monkeypatch.setattr(grid, "train", failing_train)
        assert main(["gridsearch", "--config", str(cfg_path)]) == 0
        failed_key = "n=3;l=1;f=(3,3,1);k=1;r=2"
        error = f"RuntimeError: {message}"
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

    def test_results_file_ranks_like_rank_results(self, tmp_path, data_dir):
        # every combination already journaled, so the results file is ranked
        # from the journal alone: ok, tied and failed rows in scrambled order
        cfg_path, run_dir = _train_config(tmp_path, data_dir, epochs=2)
        with open(cfg_path, "a") as fh:
            fh.write("grid_feature_depths = 1,3\ngrid_kernels = 1,3,5\ngrid_epochs = 1\n")
        run = load_run_config(cfg_path, grid=True)
        space = grid.GridSpace(run.grid_feature_depths, run.grid_conv_layers,
                               run.grid_filter_configs, run.grid_kernels)
        configs = space.combinations(run.model)
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
