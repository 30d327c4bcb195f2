#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload solve --seed 0 --seconds 30 --trace 0

Run from anywhere; the library is imported from the ``src`` directory
next to this one. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the run records spans around the
library's public functions and the metrics are per layer, per item.
See README.md in this directory for what each workload and metric means.
"""

from __future__ import annotations

import os

# One BLAS thread: a single closed-loop client, steady on a shared machine.
# Set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_out"

# name -> unit; every run prints all of them with --trace 0
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fast_us_p50": "us",
    "slow_ms_p50": "ms",
    "quality": "score",
}

_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def per_layer_units(layer_names):
    """name -> unit of every per-layer metric, in output order."""
    units = {}
    for layer in layer_names:
        units[f"{layer}.calls"] = "calls/item"
        units[f"{layer}.self_ms"] = "ms/item"
    units["baseline.evals_per_iteration"] = "evals/iter"
    units["io.bytes_written"] = "B/item"
    units["run.wall_ms"] = "ms/item"
    units["run.untraced_ms"] = "ms/item"
    return units


def import_program():
    """Import ris_lab from this checkout's src, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import ris_lab
    except ImportError as exc:
        raise SystemExit(f"error: cannot import ris_lab from {SRC}: {exc}")
    where = Path(ris_lab.__file__).resolve().parent.parent
    if where != SRC:
        raise SystemExit(f"error: ris_lab was imported from {where}, "
                         f"not from {SRC}")


def tail(values):
    """(percentile, value) for the highest percentile with at least ten
    samples beyond it, or None below forty samples."""
    n = len(values)
    if n < 40:
        return None
    for q in _TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10.0:
            return q, float(np.percentile(values, q))
    return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"BLAS {blas.get('name')} {blas.get('version')} "
            f"({BLAS_THREADS} thread), nproc {os.cpu_count()}")


def end_to_end(out):
    def median(values, scale):
        return statistics.median(values) * scale if values else None

    return {
        "setup_s": median(out.setup_s, 1.0),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fast_us_p50": median(out.fast_s, 1e6),
        "slow_ms_p50": median(out.slow_s, 1e3),
        "quality": out.quality,
    }


def per_layer(out, tracer):
    items = max(out.items, 1)
    totals = tracer.layer_totals()
    values = {}
    traced_s = 0.0
    for layer, (calls, self_s) in totals.items():
        values[f"{layer}.calls"] = calls / items
        values[f"{layer}.self_ms"] = self_s * 1e3 / items
        traced_s += self_s
    evals = tracer.nested_calls("transmit.weighted_sum_rate",
                                "baseline.ao_optimize")
    values["baseline.evals_per_iteration"] = (
        evals / out.ao_outer_iterations if out.ao_outer_iterations else 0.0)
    values["io.bytes_written"] = tracer.bytes_written / items
    values["run.wall_ms"] = out.wall_s * 1e3 / items
    values["run.untraced_ms"] = (out.wall_s - traced_s) * 1e3 / items
    return values


def report_lines(args, out, e2e):
    lines = [f"workload {args.workload}  seed {args.seed}  "
             f"seconds {args.seconds}  trace {args.trace}",
             f"environment: {environment()}",
             f"items: {out.items} {out.item}s in {out.wall_s:.1f} s; "
             f"operations {out.attempted} attempted, {out.failed} failed"]
    for label, values, scale, unit in (
            (out.fast_label, out.fast_s, 1e6, "us"),
            (out.slow_label, out.slow_s, 1e3, "ms"),
            *((name, v, 1e3, "ms") for name, v in out.extra_s.items())):
        if not values:
            continue
        text = (f"{label}: p50 {statistics.median(values) * scale:.4g} {unit}"
                f" over {len(values)} {out.item}s")
        t = tail(values)
        if t is not None:
            text += f", p{t[0]:g} {t[1] * scale:.4g} {unit}"
        lines.append(text)
    lines.append("set-up: " + ", ".join(f"{s:.3f}" for s in out.setup_s)
                 + " s")
    lines.append("figures: " + ", ".join(
        f"{k} {v!r}" for k, v in out.figures.items()))
    if "rate_dnn" in out.figures and out.fast_s and out.slow_s:
        ratio = out.figures["rate_dnn"] / out.figures["rate_ao50"]
        speedup = statistics.median(out.slow_s) / statistics.median(out.fast_s)
        lines.append(f"paper gates (reference only): dnn/ao-50 rate "
                     f"{ratio:.4f} (floor 0.85), ao-25/dnn time "
                     f"{speedup:.0f}x (floor 100x)")
    lines.append("end to end: " + ", ".join(
        f"{k} {v:.6g} {END_TO_END[k]}" for k, v in e2e.items()
        if v is not None))
    lines.append(f"correct: {out.consistent}")
    lines += [f"problem: {p}" for p in out.problems]
    return lines


def main(argv=None):
    import_program()
    import workloads
    from tracer import LAYER_NAMES, Tracer

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="input seed (default 0)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measured time per run (default 30)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1 records per-layer spans (default 0)")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    run = workloads.WORKLOADS[args.workload]
    if tracer is not None:
        tracer.install()
    try:
        out = run(args.seed, args.seconds, workloads.Sizes(),
                  tracer, str(WORK_DIR))
    finally:
        if tracer is not None:
            tracer.uninstall()
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    e2e = end_to_end(out)
    print("\n".join(report_lines(args, out, e2e)))
    if tracer is None:
        values, units = e2e, END_TO_END
    else:
        values, units = per_layer(out, tracer), per_layer_units(LAYER_NAMES)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(str(path))
        print(f"spans: {len(tracer.spans)} -> {path}")
        for name, value in values.items():
            print(f"  {name:44s} {value:14.6g} {units[name]}")
    result = {
        "correct": out.consistent,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
