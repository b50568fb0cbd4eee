"""Command-line entry point: simulate, train, infer, evaluate, gridsearch.

Every command is deterministic given its config and seed and writes outputs
atomically (temp file + rename).  The type of the exception that ends a
command alone decides its exit code:

* 0: success;
* 2: ``ConfigError``, a bad config file, option or flag;
* 3: ``DataError`` or ``OSError``, a missing, unreadable or inconsistent
  input file, named in the message;
* 4: ``NonFiniteError``, a numeric failure such as diverged training;
* 1: anything else, a defect in the program, reported in one line as
  ``error: internal error (<type>): <message>``.  A bare ``ValueError`` is
  such a defect: every user input that can fail is checked and raised as
  one of the types above.

Every CSV file is written by one writer (`_write_csv`, RFC 4180 quoting),
the grid journal too: it is written when a sweep starts and rewritten whole,
atomically, after each grid combination.  Volumes and checkpoints are read
through one reader (`_read_input`); the config file
(`config.parse_config_file`) and the grid journal (`_read_journal`) have
readers of their own, which raise the same types.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import grid, metrics, model, pipeline, resample
from .config import ConfigError, RunConfig, load_run_config
from .tensor import NonFiniteError, Tensor
from .volume import Volume, load_volume, svol_parts, upsampled_spacing

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class DataError(ValueError):
    """Missing or inconsistent input data."""


def _atomic_write(path: Path, *parts) -> None:
    """``path`` holds the buffers ``parts`` one after the other, written in
    turn with no joined copy, or what it held before if the write fails."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _csv_text(rows) -> str:
    # the writer ends a row in "\r\n", so that it also quotes a field holding
    # a bare "\r", where a reader would end the row; the text ends it in "\n"
    lines = []
    sink = SimpleNamespace(write=lambda line: lines.append(line[:-2] + "\n"))
    csv.writer(sink, lineterminator="\r\n").writerows(rows)
    return "".join(lines)


def _write_csv(path: Path, rows) -> None:
    _atomic_write(path, _csv_text(rows).encode("utf-8"))


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
    if args.scale < 2:
        raise ConfigError([f"--scale must be >= 2, got {args.scale}"])
    scans = _scan_dir(Path(args.in_dir))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        rows = [["scan_id", "hr_path", "lr_path", "scale"]]
        for scan_id, hr_path in scans:
            vol = _load_svol(hr_path)
            try:
                lr = resample.downsample_axial(vol, args.scale)
            except ValueError as err:
                raise DataError(f"volume {hr_path} cannot be downsampled: {err}") from err
            lr_path = out_dir / f"{scan_id}_lr.svol"
            _atomic_write(lr_path, *svol_parts(lr))
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


def _load_run(args, *, grid: bool = False) -> tuple[RunConfig, list, list]:
    """The config with ``--seed`` and ``--out`` applied, and its train and
    validation folds as (scan_id, volume) pairs; the test fold is not read."""
    run = load_run_config(
        args.config, grid=grid, overrides={"seed": args.seed, "out_dir": args.out}
    )
    scans = _scan_dir(Path(run.data_dir))
    if len(scans) < 4:
        raise DataError(
            f"need at least 4 volumes in {run.data_dir} for fold splitting, got {len(scans)}"
        )
    by_id = dict(scans)
    folds = pipeline.split_folds([sid for sid, _ in scans], run.model.seed)
    load = lambda ids: [(sid, _load_svol(by_id[sid])) for sid in ids]
    return run, load(folds.train_ids()), load(folds.val_ids())


def _build_pairs(volumes, cfg, data_dir: Path) -> list:
    """The training pairs of (scan_id, volume) pairs read from ``data_dir``;
    a volume too thin or too small for ``cfg`` is a DataError naming it."""
    pairs = []
    for sid, vol in volumes:
        try:
            pairs.extend(pipeline.make_pairs(vol, cfg, sid))
        except ValueError as err:
            path = data_dir / f"{sid}.svol"
            raise DataError(f"volume {path} cannot be paired: {err}") from err
    return pairs


def _cap_pairs(pairs: list, cap: int) -> list:
    if cap <= 0 or cap >= len(pairs):
        return pairs
    idx = np.unique(np.linspace(0, len(pairs) - 1, cap).astype(int))
    return [pairs[i] for i in idx]


def cmd_train(args) -> int:
    run, train_vols, val_vols = _load_run(args)
    data_dir = Path(run.data_dir)
    train_pairs = _build_pairs(train_vols, run.model, data_dir)
    val_pairs = _cap_pairs(_build_pairs(val_vols, run.model, data_dir), run.val_pair_cap)
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
            f"volume {args.lr_volume} {vol.shape} incompatible with model: depth "
            f"{vol.shape[0]} < window depth {n}"
        )
    r = params.config.scale
    out_shape = (vol.shape[0], vol.shape[1] * r, vol.shape[2] * r)
    # infer_volume's float32 output, the one copy of it that the command
    # holds: the write streams that array to the file
    need = 4 * math.prod(out_shape)
    have = model.physical_memory_bytes()
    if need > have:
        raise DataError(
            f"checkpoint {args.checkpoint}: scale {r} makes a {out_shape} output of "
            f"{need} bytes, more than the {have} bytes of physical memory"
        )
    try:
        upsampled_spacing(vol.spacing, r)  # infer_volume's output spacing
    except ValueError as err:
        raise DataError(f"volume {args.lr_volume} at scale {r} has an output {err}") from err
    sr = model.infer_volume(params, vol, tile_hw=args.tile)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(out, *svol_parts(sr))
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
    if min(hr.shape[1:]) < metrics.SSIM_WINDOW:
        raise DataError(
            f"HR volume {args.hr} has {hr.shape[1]}x{hr.shape[2]} slices; SSIM takes "
            f"slices of at least {metrics.SSIM_WINDOW}x{metrics.SSIM_WINDOW}"
        )
    methods = []
    for spec_str in args.method:
        if "=" not in spec_str:
            raise ConfigError([f"--method expects name=path, got {spec_str!r}"])
        name, path = spec_str.split("=", 1)
        if name in (n for n, _ in methods):
            raise ConfigError([f"--method name {name!r} is given more than once"])
        vol = _load_svol(Path(path))
        if vol.shape != hr.shape:
            raise DataError(
                f"method {name!r} volume {path} {vol.shape} does not match HR "
                f"{args.hr} {hr.shape}"
            )
        methods.append((name, vol))
    if not methods:
        raise ConfigError(["at least one --method is required"])
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
    row that is not four fields with an empty PSNR or one that a run writes
    (a finite mean or +inf, never NaN or -inf), or that was trained under
    other settings than ``settings``, raises DataError.
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
            psnr = float(psnr_s) if psnr_s else None
            if psnr is not None and not psnr > -math.inf:  # NaN or -inf
                raise ValueError(psnr_s)
            entries[key] = (psnr, err)
        except ValueError as exc:
            raise DataError(f"bad grid journal {path}, line {lineno}: {row!r}") from exc
        if row_settings != settings:
            raise DataError(
                f"grid journal {path}, line {lineno}: trained with {row_settings!r}, "
                f"not this run's {settings!r}; resume it with its own settings or "
                f"choose another out_dir"
            )
    return entries


def _write_journal(path: Path, entries: dict, settings: str) -> None:
    """``_read_journal``'s entries under ``settings`` as a journal; the csv
    module writes a float with repr and None as an empty field."""
    rows = [[key, settings, psnr, err] for key, (psnr, err) in entries.items()]
    _write_csv(path, [JOURNAL_HEADER, *rows])


def cmd_gridsearch(args) -> int:
    run, train_vols, val_vols = _load_run(args, grid=True)
    settings = _journal_settings(run.model, run.grid_epochs)
    out_dir = Path(run.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    journal_path = out_dir / "gridsearch_journal.csv"
    # may hold combinations of an earlier sweep, which are neither rerun nor ranked
    journal = _read_journal(journal_path, settings)
    resumed = sum(cfg.key() in journal for cfg in run.grid.combinations(run.model))
    if resumed:
        print(f"resuming: {resumed} combination(s) already in {journal_path}")
    _write_journal(journal_path, journal, settings)

    def journal_result(result: grid.GridResult) -> None:
        journal[result.config.key()] = (result.val_psnr, result.error or "")
        _write_journal(journal_path, journal, settings)

    ranked = grid.grid_search(
        run.grid,
        run.model,
        train_vols,
        val_vols,
        epoch_budget=run.grid_epochs,
        done=dict(journal),
        on_result=journal_result,
    )
    ok = [r for r in ranked if r.val_psnr is not None]
    rows = [["rank", "config", "val_psnr", "error"]]
    rows.extend([rank, r.config.key(), r.val_psnr, r.error] for rank, r in enumerate(ok, 1))
    rows.extend(["", r.config.key(), "", r.error] for r in ranked[len(ok):])
    results_path = out_dir / "gridsearch_results.csv"
    _write_csv(results_path, rows)
    if not ok:
        diverged = all((r.error or "").startswith("NonFiniteError:") for r in ranked)
        raise (NonFiniteError if diverged else DataError)(
            f"no combination trained; the failures are in {results_path}"
        )
    for rank, r in enumerate(ok[:5], 1):
        print(f"#{rank}  {r.config.key()}  val PSNR {r.val_psnr:.4f} dB")
    print(f"wrote {results_path}")
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
    except Exception as err:
        print(f"error: internal error ({type(err).__name__}): {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
