"""Command-line entry point: simulate, train, infer, evaluate, gridsearch.

Every command is deterministic given its config and seed, writes outputs
atomically (temp file + rename), and uses distinct exit codes: 0 success,
2 config error, 3 data error (any missing or unreadable input file, named in
the message), 4 numeric failure.  Every CSV report is written by one writer
(`_write_csv`, RFC 4180 quoting), and every input file is read through one
reader (`_read_input`).
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

from . import grid, metrics, model, pipeline, resample
from .config import ConfigError, RunConfig, load_run_config
from .tensor import NonFiniteError, Tensor
from .volume import Volume, load_volume, serialize_volume

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class DataError(ValueError):
    """Missing or inconsistent input data."""


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write(path, text.encode("utf-8"))


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _write_csv(path: Path, rows) -> None:
    _atomic_write_text(path, _csv_text(rows))


def _read_input(path: Path, load, what: str):
    """``load(path)``; a missing file or a ValueError from ``load`` (a bad
    format, a non-finite value) is a DataError naming the path."""
    if not path.is_file():
        raise DataError(f"{what} not found: {path}")
    try:
        return load(path)
    except ValueError as err:
        raise DataError(f"bad {what} {path}: {err}") from err


def _load_svol(path: Path) -> Volume:
    return _read_input(path, load_volume, "volume file")


def _scan_dir(data_dir: Path) -> list[tuple[str, Path]]:
    if not data_dir.is_dir():
        raise DataError(f"data directory not found: {data_dir}")
    files = sorted(data_dir.glob("*.svol"))
    if not files:
        raise DataError(f"no volumes found in {data_dir} (expected *.svol)")
    return [(f.stem, f) for f in files]


def cmd_simulate(args) -> int:
    scans = _scan_dir(Path(args.in_dir))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        rows = [["scan_id", "hr_path", "lr_path", "scale"]]
        for scan_id, hr_path in scans:
            vol = _load_svol(hr_path)
            lr = resample.downsample_axial(vol, args.scale)
            lr_path = out_dir / f"{scan_id}_lr.svol"
            _atomic_write(lr_path, serialize_volume(lr))
            written.append(lr_path)
            rows.append([scan_id, hr_path, lr_path, args.scale])
        manifest = out_dir / "manifest.csv"
        _write_csv(manifest, rows)
        written.append(manifest)
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    print(f"simulated {len(scans)} low-resolution volumes into {out_dir}")
    return EXIT_OK


def _split_volumes(run: RunConfig):
    scans = _scan_dir(Path(run.data_dir))
    if len(scans) < 4:
        raise DataError(f"need at least 4 volumes for fold splitting, got {len(scans)}")
    by_id = dict(scans)
    folds = pipeline.split_folds([sid for sid, _ in scans], run.model.seed)
    load = lambda ids: [(sid, _load_svol(by_id[sid])) for sid in ids]
    return load(folds.train_ids()), load(folds.val_ids()), load(folds.test_ids())


def _build_pairs(volumes, cfg) -> list:
    pairs = []
    for sid, vol in volumes:
        pairs.extend(pipeline.make_pairs(vol, cfg, sid))
    return pairs


def _cap_pairs(pairs: list, cap: int) -> list:
    if cap <= 0 or cap >= len(pairs):
        return pairs
    idx = np.unique(np.linspace(0, len(pairs) - 1, cap).astype(int))
    return [pairs[i] for i in idx]


def cmd_train(args) -> int:
    run = load_run_config(args.config)
    if args.seed is not None:
        run.model.seed = args.seed
    if args.out is not None:
        run.out_dir = args.out
    train_vols, val_vols, _ = _split_volumes(run)
    train_pairs = _build_pairs(train_vols, run.model)
    val_pairs = _cap_pairs(_build_pairs(val_vols, run.model), run.val_pair_cap)
    if not train_pairs or not val_pairs:
        raise DataError("could not extract any training/validation pairs")
    params, report = model.train(run.model, train_pairs, val_pairs)
    out_dir = Path(run.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_dir / "model.ckpt", model.serialize_params(params))
    rows = [["epoch", "train_loss", "val_psnr", "wall_time_s"]]
    for i, (loss, psnr, wt) in enumerate(
        zip(report.train_losses, report.val_psnrs, report.wall_times)
    ):
        rows.append([i, loss, psnr, f"{wt:.3f}"])
    _write_csv(out_dir / "train_report.csv", rows)
    print(f"final validation PSNR: {report.val_psnrs[-1]:.4f} dB")
    print(f"checkpoint: {out_dir / 'model.ckpt'}")
    return EXIT_OK


def cmd_infer(args) -> int:
    if args.tile is not None and args.tile < 1:
        raise ConfigError([f"--tile must be >= 1, got {args.tile}"])
    params = _read_input(Path(args.checkpoint), model.load_checkpoint, "checkpoint")
    vol = _load_svol(Path(args.lr_volume))
    n = params.config.feature_depth
    if vol.shape[0] < n:
        raise DataError(
            f"volume {vol.shape} incompatible with model: depth {vol.shape[0]} < "
            f"window depth {n}"
        )
    sr = model.infer_volume(params, vol, tile_hw=args.tile)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(out, serialize_volume(sr))
    print(f"super-resolved {vol.shape} -> {sr.shape}: {out}")
    return EXIT_OK


def _slice_metrics(method: str, vol: Volume, hr: Volume):
    rows = []
    samples = []
    for i in range(hr.shape[0]):
        a = Tensor(vol.data.data[i])
        b = Tensor(hr.data.data[i])
        p = metrics.psnr(a, b, 1.0)
        s = metrics.ssim(a, b)
        slice_id = f"{i:04d}"
        rows.append([slice_id, method, p, s])
        samples.append(metrics.SliceSample(slice_id, p, s))
    return rows, samples


def cmd_evaluate(args) -> int:
    hr = _load_svol(Path(args.hr))
    methods = []
    for spec_str in args.method:
        if "=" not in spec_str:
            raise ConfigError([f"--method expects name=path, got {spec_str!r}"])
        name, path = spec_str.split("=", 1)
        if name in (n for n, _ in methods):
            raise ConfigError([f"--method name {name!r} is given more than once"])
        methods.append((name, _load_svol(Path(path))))
    if not methods:
        raise ConfigError(["at least one --method is required"])
    for name, vol in methods:
        if vol.shape != hr.shape:
            raise DataError(
                f"method {name!r} volume {vol.shape} does not match HR {hr.shape}"
            )
    if len(methods) > 1 and hr.shape[0] < 2:
        raise DataError(
            f"HR volume {args.hr} has {hr.shape[0]} slice; comparing methods "
            f"takes a paired t-test over at least 2 slices"
        )
    metric_rows = [["slice_id", "method", "psnr_db", "ssim"]]
    per_method = {}
    for name, vol in methods:
        rows, samples = _slice_metrics(name, vol, hr)
        metric_rows.extend(rows)
        per_method[name] = samples
        agg = metrics.aggregate(samples)
        note = (
            f" ({agg.psnr_excluded} identical slice(s) excluded from PSNR)"
            if agg.psnr_excluded
            else ""
        )
        print(
            f"{name}: PSNR {agg.psnr_mean:.4f} +/- {agg.psnr_sd:.4f} dB, "
            f"SSIM {agg.ssim_mean:.4f} +/- {agg.ssim_sd:.4f}{note}"
        )
    ttest_rows = [["method_a", "method_b", "metric", "mean_diff", "t", "df", "p_two_sided"]]
    for (name_a, _), (name_b, _) in combinations(methods, 2):
        sa, sb = per_method[name_a], per_method[name_b]
        finite = [
            (a.psnr, b.psnr)
            for a, b in zip(sa, sb)
            if math.isfinite(a.psnr) and math.isfinite(b.psnr)
        ]
        dropped = len(sa) - len(finite)
        if dropped:
            print(f"warning: {dropped} slice pair(s) with infinite PSNR excluded "
                  f"from the {name_a} vs {name_b} t-test")
        tests = []
        if len(finite) >= 2:
            tests.append(("psnr", metrics.paired_t_test(*zip(*finite))))
        tests.append(
            ("ssim", metrics.paired_t_test([s.ssim for s in sa], [s.ssim for s in sb]))
        )
        ttest_rows.extend(
            [name_a, name_b, metric, r.mean_diff, r.t_statistic, r.degrees_of_freedom, r.p_value]
            for metric, r in tests
        )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "metrics.csv", metric_rows)
    _write_csv(out_dir / "ttests.csv", ttest_rows)
    print(f"wrote {out_dir / 'metrics.csv'} and {out_dir / 'ttests.csv'}")
    return EXIT_OK


JOURNAL_HEADER = ["config", "settings", "val_psnr", "error"]


def _journal_settings(cfg: model.ModelConfig, budget: int) -> str:
    """The training settings a grid result depends on besides its config
    key: every row of a journal is trained under the same ones."""
    return (
        f"lr={cfg.lr!r};seed={cfg.seed};batch_size={cfg.batch_size};"
        f"patch_hw={cfg.patch_hw};epochs={budget}"
    )


def _read_journal(path: Path, settings: str) -> dict[str, tuple[float | None, str]]:
    """Completed combinations from a grid journal: key -> (PSNR or None, error).

    The journal is CSV with the config key quoted (keys contain commas).  A
    row that is not four fields with a float or empty PSNR, or that was
    trained under other settings than ``settings``, raises DataError.
    """
    entries: dict[str, tuple[float | None, str]] = {}
    if not path.is_file():
        return entries
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"bad grid journal {path}: {exc}") from exc
    if rows and rows[0] != JOURNAL_HEADER:
        raise DataError(f"bad grid journal {path}: header {rows[0]!r}")
    for lineno, row in enumerate(rows[1:], 2):
        try:
            key, row_settings, psnr_s, err = row
            entries[key] = (float(psnr_s) if psnr_s else None, err)
        except ValueError as exc:
            raise DataError(f"bad grid journal {path}, line {lineno}: {row!r}") from exc
        if row_settings != settings:
            raise DataError(
                f"grid journal {path}, line {lineno}: trained with {row_settings!r}, "
                f"not this run's {settings!r}; resume it with its own settings or "
                f"choose another out_dir"
            )
    return entries


def cmd_gridsearch(args) -> int:
    run = load_run_config(args.config, grid=True)
    if args.seed is not None:
        run.model.seed = args.seed
    if args.out is not None:
        run.out_dir = args.out
    space = grid.GridSpace(
        run.grid_feature_depths,
        run.grid_conv_layers,
        run.grid_filter_configs,
        run.grid_kernels,
    )
    try:
        keys = {cfg.key() for cfg in space.combinations(run.model)}
    except ValueError as err:
        raise ConfigError([str(err)]) from err
    budget = run.grid_epochs or grid.default_epoch_budget(run.model)
    settings = _journal_settings(run.model, budget)
    train_vols, val_vols, _ = _split_volumes(run)
    out_dir = Path(run.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    journal_path = out_dir / "gridsearch_journal.csv"
    journal = _read_journal(journal_path, settings)
    done = keys & set(journal)
    if done:
        print(f"resuming: {len(done)} combination(s) already in {journal_path}")
    if not journal_path.is_file() or journal_path.stat().st_size == 0:
        journal_path.write_text(_csv_text([JOURNAL_HEADER]), encoding="utf-8", newline="")
    elif not journal_path.read_bytes().endswith(b"\n"):
        with open(journal_path, "a", newline="", encoding="utf-8") as fh:
            fh.write("\n")  # a new row must not extend the last one

    def journal_append(result: grid.GridResult) -> None:
        # the csv module writes a float with repr and None as an empty field
        row = [result.config.key(), settings, result.val_psnr, result.error or ""]
        with open(journal_path, "a", newline="", encoding="utf-8") as fh:
            fh.write(_csv_text([row]))
            fh.flush()

    grid.grid_search(
        space,
        run.model,
        train_vols,
        val_vols,
        epoch_budget=budget,
        skip_keys=set(journal),
        on_result=journal_append,
    )
    # the journal holds every combination of this space, resumed or fresh,
    # and may hold others from an earlier sweep, which are not ranked
    merged = sorted(
        (
            (key, psnr, err)
            for key, (psnr, err) in _read_journal(journal_path, settings).items()
            if key in keys
        ),
        key=lambda m: grid.rank_key(m[0], m[1]),
    )
    ok = [m for m in merged if m[1] is not None]
    failed = [m for m in merged if m[1] is None]
    rows = [["rank", "config", "val_psnr", "error"]]
    rows.extend([rank, key, psnr, err] for rank, (key, psnr, err) in enumerate(ok, 1))
    rows.extend(["", key, "", err] for key, _, err in failed)
    _write_csv(out_dir / "gridsearch_results.csv", rows)
    for rank, (key, psnr, _) in enumerate(ok[:5], 1):
        print(f"#{rank}  {key}  val PSNR {psnr:.4f} dB")
    print(f"wrote {out_dir / 'gridsearch_results.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctsr",
        description="Volumetric CT super-resolution: simulate LR data, train the "
        "conv/deconv network, infer, and evaluate against the bicubic baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="downsample HR volumes into LR + manifest")
    p.add_argument("in_dir", help="directory of high-resolution .svol files")
    p.add_argument("--out", required=True, help="output directory for LR volumes")
    p.add_argument("--scale", type=int, default=3, help="downsampling factor (default 3)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="override the config out_dir")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="super-resolve an LR volume with a checkpoint")
    p.add_argument("checkpoint", help="model checkpoint from train")
    p.add_argument("lr_volume", help="low-resolution .svol to enhance")
    p.add_argument("--out", required=True, help="output .svol path")
    p.add_argument("--tile", type=int, default=None,
                   help="in-plane tile size (default: training patch size)")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("evaluate", help="per-slice PSNR/SSIM and paired t-tests")
    p.add_argument("--hr", required=True, help="ground-truth .svol")
    p.add_argument("--method", action="append", default=[],
                   help="name=path of a reconstruction to score (repeatable)")
    p.add_argument("--out", required=True, help="output directory for the CSV reports")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gridsearch", help="rank hyperparameter combinations")
    p.add_argument("--config", required=True, help="config file with grid_* candidates")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="override the config out_dir")
    p.set_defaults(func=cmd_gridsearch)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except NonFiniteError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
