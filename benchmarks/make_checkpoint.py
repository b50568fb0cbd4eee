"""Regenerate infer_paper.ckpt, the model of the infer-slice workload.

    python3 benchmarks/make_checkpoint.py

It trains the paper config through the train-paper workload's code path
(its seeded volumes, its pairs and ``model.train``) for EPOCHS epochs, then
writes the checkpoint and infer_paper.json, which records the seed, the
epoch count, the parameter checksum the benchmark verifies on load, and
this command.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

from run import bootstrap

SEED = 0
EPOCHS = 12
COMMAND = "python3 benchmarks/make_checkpoint.py"


def main() -> int:
    bootstrap()
    from ctsr import model
    from workloads import CHECKPOINT, CHECKPOINT_INFO, TrainPaper

    w = TrainPaper(SEED)
    w.setup()
    params, report = model.train(replace(w.cfg, epochs=EPOCHS), w.train_pairs, w.val_pairs)
    model.save_checkpoint(params, CHECKPOINT)
    info = {
        "seed": SEED,
        "epochs": EPOCHS,
        "checksum": params.checksum(),
        "val_psnr_db": report.val_psnrs[-1],
        "command": COMMAND,
    }
    CHECKPOINT_INFO.write_text(json.dumps(info, indent=2) + "\n")
    print(json.dumps(info))
    return 0


if __name__ == "__main__":
    sys.exit(main())
