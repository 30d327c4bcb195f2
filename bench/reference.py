#!/usr/bin/env python3
"""Reference run of the command line pipeline on a fixed small config.

    python3 bench/reference.py

Runs ``ris-lab gen-data``, ``train`` and ``benchmark`` through cli.main
in a temporary directory inside the checkout, then prints the report's
``primary_sha256``, the mean rates and the two paper gates. The config
is fixed here (seed 0), so the hash and the rates repeat exactly; the
per-sample times and the speed gate do not.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

import run  # sets the BLAS thread count before numpy is imported

run.import_program()

from ris_lab import cli  # noqa: E402
from ris_lab.config import RunConfig, save_config  # noqa: E402
from ris_lab.policy import TrainConfig  # noqa: E402

TRAIN_SAMPLES = 1000
TEST_SAMPLES = 20
EPOCHS = 5


def main():
    # Default (relative) output paths, run inside a scratch directory, so
    # the config and therefore primary_sha256 do not depend on where the
    # checkout lives.
    cfg = RunConfig(train_samples=TRAIN_SAMPLES, test_samples=TEST_SAMPLES,
                    train=TrainConfig(epochs=EPOCHS))
    os.makedirs(run.WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=run.WORK_DIR)
    home = os.getcwd()
    try:
        os.chdir(work)
        save_config("run.json", cfg)
        for command in ("gen-data", "train", "benchmark"):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([command, "--config", "run.json"])
            if code != 0:
                print(f"ris-lab {command} exited {code}", file=sys.stderr)
                return 1
        with open(cfg.report_path) as fh:
            report = json.load(fh)
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
        if run.WORK_DIR.is_dir() and not any(run.WORK_DIR.iterdir()):
            run.WORK_DIR.rmdir()

    rates = report["primary"]["mean_rates"]
    times = report["timing"]["per_sample_seconds"]
    print(f"config: {TRAIN_SAMPLES} train samples, {TEST_SAMPLES} test "
          f"samples, {EPOCHS} epochs, flagship dimensions, seed 0")
    print(f"primary_sha256: {report['primary_sha256']}")
    print("mean rates: " + ", ".join(f"{m} {v:.6f}" for m, v in rates.items()))
    print(f"dnn/ao-50 rate ratio: {rates['dnn'] / rates['ao-50']:.4f} "
          f"(floor {cli.RATIO_FLOOR})")
    print("per-sample seconds: " + ", ".join(
        f"{m} {v:.6g}" for m, v in times.items()))
    print(f"ao-25/dnn speedup: {times['ao-25'] / times['dnn']:.0f}x "
          f"(floor {cli.SPEEDUP_FLOOR:.0f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
