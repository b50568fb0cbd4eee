"""Run one workload of the ctsr benchmark and print its metrics as JSON.

    python3 benchmarks/run.py --workload train-paper --seed 0 --seconds 25 --trace 0

Run it from the root of a source checkout: it imports ``ctsr`` from ``src/``
and exits with code 2 when that is missing.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it records
the environment and the per-round figures.

With ``--trace 0`` the run sets up several times, warms up, then times rounds
of the workload for ``--seconds`` and reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced units (set-up plus one round)
for ``--seconds`` and reports the per-layer metrics of ``tracing.PER_LAYER``.
``--size smoke`` runs the same workloads at tiny sizes (see test_smoke.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

DEFAULT_SEED = 0
SETUP_REPS = 8  # per round
BLAS_THREADS = 1

END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("quality_db", "dB"),
    ("peak_rss_mb", "MB"),
]

# (seed, quality_db) at full size; another value fails the run.  infer-slice
# and eval-baseline measure quality on the fixed fold alone, so their values
# hold for every seed (None); train-paper and grid-sweep train on seeded
# volumes, so theirs hold for DEFAULT_SEED.  The tolerance admits
# summation-order noise only.
PINNED_QUALITY_DB = {
    "train-paper": (DEFAULT_SEED, 9.038612672713569),
    "infer-slice": (None, 12.630336888330476),
    "eval-baseline": (None, 35.492936476976155),
    "grid-sweep": (DEFAULT_SEED, 10.72165102790931),
}
PINNED_TOLERANCE_DB = 1e-6


def bootstrap() -> None:
    """Pin BLAS to one thread, then make ``src/`` importable.  Must run
    before numpy is imported.

    One thread, not one per CPU: on a 2-vCPU machine, the five-seed spread
    of grid-sweep (then at 16x16 patches) was 13% with two BLAS threads and
    6% with one, and a second thread bought train-paper about 10%."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "ctsr" / "__init__.py").is_file():
        print(f"error: no ctsr sources at {SRC}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
    }


def _run_round(w, totals: dict):
    """One timed round; returns (seconds, Round).  A round that raises fails
    every operation it attempted."""
    from workloads import Round

    t0 = time.perf_counter()
    try:
        out = w.work()
    except Exception:  # noqa: BLE001 - a failed round is counted, not fatal
        traceback.print_exc()
        out = None
    dt = time.perf_counter() - t0
    if out is None:
        r = Round(0, w.ops_per_round, w.ops_per_round, float("nan"))
    else:
        r = w.check(out)
    totals["attempted"] += r.attempted
    totals["failed"] += r.failed
    return dt, r


def _median(values) -> float:
    values = [v for v in values if v == v]  # drop NaN
    return statistics.median(values) if values else 0.0


def measure(w, args, totals: dict, details: dict) -> dict:
    w.setup()
    w.warm_up()
    setup_times, rates, qualities = [], [], []
    start = time.perf_counter()
    dt = 0.0
    # stop when another round would overrun --seconds by more than half a round
    while not rates or time.perf_counter() - start + dt / 2 <= args.seconds:
        # set-ups of a millisecond or so follow the machine's load from one
        # moment to the next; sampling them before every round, across the
        # whole run, steadies their median
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            w.setup()
            setup_times.append(time.perf_counter() - t0)
        dt, r = _run_round(w, totals)
        rates.append(r.items / dt)
        qualities.append(r.quality_db)
    quality = _median(qualities)
    pinned_seed, pinned = PINNED_QUALITY_DB[args.workload]
    if args.size == "full" and pinned_seed in (None, args.seed):
        if not abs(quality - pinned) <= PINNED_TOLERANCE_DB:
            print(f"quality_db {quality!r} != pinned {pinned!r}", file=sys.stderr)
            totals["failed"] = totals["attempted"]
    details.update(setup_s=setup_times, items_per_s=rates, quality_db=qualities)
    return {
        "setup_s": _median(setup_times),
        "items_per_s": _median(rates),
        "quality_db": quality,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(w, args, totals: dict, details: dict) -> dict:
    import tracing

    gemm = tracing.gemm_peak_gflops()
    tracer = tracing.Tracer()
    w.setup()
    w.warm_up()
    untraced, traced, units = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + (untraced[-1] + traced[-1]) / 2 <= args.seconds:
        t0 = time.perf_counter()
        w.setup()
        _run_round(w, totals)
        untraced.append(time.perf_counter() - t0)
        tracer.reset()
        with tracing.instrument(tracer):
            t0 = time.perf_counter()
            w.setup()
            _run_round(w, totals)
            traced.append(time.perf_counter() - t0)
        units.append(tracer.unit_metrics())
    details.update(untraced_s=untraced, traced_s=traced, last_unit_spans=tracer.by_name())
    out = {name: _median(u[name] for u in units) for name in units[0]}
    out["ops.gemm_peak_gflops"] = gemm
    out["trace.wall_s"] = _median(untraced)
    out["trace.overhead_s"] = _median(traced) - _median(untraced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    bootstrap()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of {list(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload](args.seed, smoke=args.size == "smoke")
    totals = {"attempted": 0, "failed": 0}
    details: dict = {}
    if args.trace:
        values = measure_traced(w, args, totals, details)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        values = measure(w, args, totals, details)
        units = dict(END_TO_END)
    totals["error_rate"] = totals["failed"] / totals["attempted"]
    print(json.dumps({"env": environment(args), "totals": totals, "rounds": details}))
    print(
        json.dumps(
            {
                "correct": totals["failed"] == 0,
                "attempted": totals["attempted"],
                "failed": totals["failed"],
                "metrics": {
                    name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
