"""Command line harness tying the pipeline together.

Five operations: draw a scene file to a grayscale frame, pick the serving
surface for a scene (from the image chain or from ground truth), generate
seeded channel datasets, train the policy network, and benchmark the
trained network against the iterative optimizer. Every command takes a
JSON run configuration; outputs that do not involve wall clocks are
byte-identical across replays with the same config and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import baseline, fileio, policy
from .config import RunConfig, config_hash, load_config
from .datagen import write_dataset
from .geometry import link_table, load_scene, select_ris
from .scenes import random_scene
from .transmit import load_dataset
from .vision import recover_scene, render_top_view, save_raster

RATIO_FLOOR = 0.85     # advertised quality floor: learned policy over ao-50
SPEEDUP_FLOOR = 100.0  # advertised speed margin: ao-25 time over dnn time
_TIMING_REPS = 5       # warm repetitions; the median rep is reported
_AO_STREAM = 2         # per-sample seed tag, disjoint from dataset roles


# --- benchmark report ----------------------------------------------------

@dataclass(frozen=True)
class BenchmarkReport:
    """Mean objective and per-sample wall clock for each method."""

    mean_rates: dict
    per_sample_seconds: dict
    samples: int
    config_sha256: str

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("sample count must be positive")
        if set(self.mean_rates) != set(self.per_sample_seconds):
            raise ValueError("rate and timing tables must cover the same methods")
        if any(t <= 0.0 for t in self.per_sample_seconds.values()):
            raise ValueError("per-sample times must be positive")

    @property
    def methods(self):
        return list(self.mean_rates)


def report_to_dict(report: BenchmarkReport) -> dict:
    """Split the report into a deterministic part and the wall clocks.

    The primary section depends only on config and seeds, so replays can
    be compared byte for byte (its canonical hash is stored alongside);
    timings live in their own section and never enter the hash.
    """
    primary = {
        "config_sha256": report.config_sha256,
        "samples": report.samples,
        "mean_rates": {m: report.mean_rates[m] for m in report.methods},
        "ratio_dnn_over_ao50":
            report.mean_rates["dnn"] / report.mean_rates["ao-50"],
    }
    canon = json.dumps(primary, sort_keys=True, separators=(",", ":"))
    return {
        "primary": primary,
        "primary_sha256": hashlib.sha256(canon.encode("ascii")).hexdigest(),
        "timing": {
            "per_sample_seconds":
                {m: report.per_sample_seconds[m] for m in report.methods},
            "dnn_timing_reps": _TIMING_REPS,
        },
    }


def format_table(report: BenchmarkReport) -> str:
    """Aligned text table: method, mean rate, per-sample seconds."""
    rows = [("method", "mean rate", "per sample [s]")]
    for m in report.methods:
        rows.append((m, f"{report.mean_rates[m]:.4f}",
                     f"{report.per_sample_seconds[m]:.6f}"))
    widths = [max(len(r[c]) for r in rows) for c in range(3)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


# --- shared plumbing -----------------------------------------------------

def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(
            cfg, seed=args.seed,
            train=dataclasses.replace(cfg.train, seed=args.seed),
            ao=dataclasses.replace(cfg.ao, seed=args.seed))
    return cfg


def _check_dims(label, got, want):
    if tuple(got) != tuple(want):
        raise ValueError(f"{label} dimensions {tuple(got)} do not match "
                         f"the configured {tuple(want)}")


def _vision_select(scene, resolution, half_extent):
    """Full image chain: render, detect, recover, then the geometric rule."""
    raster = render_top_view(scene, resolution, half_extent)
    recovered = recover_scene(raster, scene.ris_positions, scene.kappa)
    return select_ris(recovered)


def _write_json(path, doc) -> None:
    fileio.write_files((path, fileio.json_text(doc)))


# --- commands ------------------------------------------------------------

def cmd_render(args) -> None:
    scene = load_scene(args.scene)
    raster = render_top_view(scene, args.resolution, args.half_extent)
    out = args.out or "view.pgm"
    save_raster(out, raster)
    print(f"rendered {raster.width}x{raster.height} at "
          f"{raster.meters_per_pixel:.4f} m/px -> {out}")


def cmd_select_ris(args) -> None:
    if (args.scene is None) == (args.agreement is None):
        raise ValueError("pass exactly one of --scene FILE or --agreement N")
    if args.agreement is not None:
        _agreement_run(args)
        return

    scene = load_scene(args.scene)
    if args.via == "vision":
        raster = render_top_view(scene, args.resolution, args.half_extent)
        analyzed = recover_scene(raster, scene.ris_positions, scene.kappa)
    else:
        analyzed = scene
    links = link_table(analyzed)
    chosen = links.selected
    metrics = links.cascade
    print(f"selected surface {chosen} (via {args.via})")
    print("surface  cascade pathloss")
    for l, m in enumerate(metrics):
        mark = "  <- selected" if l == chosen else ""
        print(f"{l:>7}  {m:16.6f}{mark}")
    if args.out:
        _write_json(args.out, {"selected": chosen, "via": args.via,
                               "cascade_pathloss": metrics})


def _agreement_run(args) -> None:
    """Draw random scenes and compare the image chain with ground truth."""
    if args.agreement < 1:
        raise ValueError("--agreement needs at least one scene")
    cfg = _load_run_config(args)
    rng = np.random.default_rng(cfg.seed)
    half = args.half_extent or cfg.scene.region + 1.0
    agree, detail = 0, []
    for i in range(args.agreement):
        scene = random_scene(cfg.scene, rng)
        truth = select_ris(scene)
        seen = _vision_select(scene, args.resolution, half)
        if truth == seen:
            agree += 1
        else:
            detail.append({"scene": i, "geometry": truth, "vision": seen})
    rate = agree / args.agreement
    print(f"agreement: {agree}/{args.agreement} = {rate:.3f}")
    if args.out:
        _write_json(args.out, {"scenes": args.agreement, "agree": agree,
                               "rate": rate,
                               "mismatches": [d["scene"] for d in detail],
                               "mismatch_detail": detail})


def cmd_gen_data(args) -> None:
    cfg = _load_run_config(args)
    roles = ("train", "test") if args.role == "both" else (args.role,)
    if args.out and len(roles) > 1:
        raise ValueError("--out needs a single --role, not both")
    for role in roles:
        default = cfg.dataset_path if role == "train" else cfg.test_dataset_path
        path = args.out or default
        meta = write_dataset(path, cfg, role)
        count = cfg.train_samples if role == "train" else cfg.test_samples
        print(f"{role}: {count} samples -> {path} "
              f"(rho0 {meta['rho0']:.6g}, ratio "
              f"{meta['empirical_ratio_db']:.2f} dB, "
              f"target {meta['target_ratio_db']:.2f} dB)")


def cmd_train(args) -> None:
    cfg = _load_run_config(args)
    batch, _ = load_dataset(cfg.dataset_path)
    sysc = cfg.system
    _check_dims("dataset", (batch.K, batch.N, batch.NT),
                (sysc.users, sysc.elements, sysc.antennas))
    started = time.perf_counter()
    params, losses = policy.train(cfg.train, batch)
    elapsed = time.perf_counter() - started
    out = args.out or cfg.checkpoint_path
    # no wall clocks in the sidecar: replays must be byte-identical
    policy.save_params(out, params, meta={
        "loss_log": [float(v) for v in losses],
        "config_sha256": config_hash(cfg),
        "dataset": str(cfg.dataset_path),
    })
    final = losses[-1] if losses else float("nan")
    print(f"trained {cfg.train.epochs} epochs on {len(batch)} samples "
          f"in {elapsed:.1f}s (final loss {final:.4f}) -> {out}")


def cmd_benchmark(args) -> None:
    cfg = _load_run_config(args)
    params, _ = policy.load_params(cfg.checkpoint_path)
    batch, _ = load_dataset(cfg.test_dataset_path)
    sysc = cfg.system
    want = (sysc.users, sysc.elements, sysc.antennas)
    _check_dims("checkpoint", params.dims, want)
    _check_dims("test dataset", (batch.K, batch.N, batch.NT), want)

    count = len(batch)
    sets = [batch.sample(i) for i in range(count)]

    def run_dnn():
        return [float(cs.user_weight @ policy.infer(params, cs).rates)
                for cs in sets]

    dnn_vals = run_dnn()  # warm pass; also the reported objectives
    reps = []
    for _ in range(_TIMING_REPS):
        t0 = time.perf_counter()
        run_dnn()
        reps.append(time.perf_counter() - t0)
    dnn_time = statistics.median(reps) / count

    mean_rates = {"dnn": float(np.mean(dnn_vals))}
    per_sample = {"dnn": dnn_time}
    for label, iters in (("ao-25", 25), ("ao-50", 50)):
        t0 = time.perf_counter()
        vals = []
        for i, cs in enumerate(sets):
            acfg = dataclasses.replace(cfg.ao, iterations=iters,
                                       seed=(cfg.ao.seed, _AO_STREAM, i))
            _, _, trace = baseline.ao_optimize(cs, acfg)
            vals.append(trace[-1])
        per_sample[label] = (time.perf_counter() - t0) / count
        mean_rates[label] = float(np.mean(vals))

    report = BenchmarkReport(mean_rates=mean_rates,
                             per_sample_seconds=per_sample,
                             samples=count, config_sha256=config_hash(cfg))
    out = args.out or cfg.report_path
    _write_json(out, report_to_dict(report))

    print(format_table(report))
    ratio = mean_rates["dnn"] / mean_rates["ao-50"]
    verdict = "ok" if ratio >= RATIO_FLOOR else "below floor"
    print(f"dnn/ao-50 rate ratio: {ratio:.4f} "
          f"(floor {RATIO_FLOOR}: {verdict})")
    speedup = per_sample["ao-25"] / per_sample["dnn"]
    verdict = "ok" if speedup >= SPEEDUP_FLOOR else "below floor"
    print(f"ao-25/dnn per-sample speedup: {speedup:.0f}x "
          f"(floor {SPEEDUP_FLOOR:.0f}x: {verdict})")
    print(f"report -> {out}")


# --- argument parsing ----------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ris-lab",
        description="surface selection, dataset generation, policy "
                    "training and benchmarking for the downlink pipeline")
    ap.add_argument("-v", "--verbose", dest="log_level", action="store_const",
                    const="INFO",
                    help="log progress (per-epoch training loss) on stderr; "
                         "same as --log-level INFO")
    ap.add_argument("--log-level", dest="log_level",
                    choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                    help="stderr logging threshold (default WARNING); "
                         "stdout and written files do not depend on it")
    ap.set_defaults(log_level="WARNING")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", metavar="FILE",
                       help="JSON run configuration (defaults when omitted)")
        p.add_argument("--seed", type=int, default=None,
                       help="override every seed in the configuration")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="output path (default taken from the config)")

    def imaging(p):
        p.add_argument("--resolution", type=int, default=512,
                       help="rendered frame width in pixels")
        p.add_argument("--half-extent", type=float, default=None,
                       help="half side of the mapped square in meters "
                            "(defaults to fit the content)")

    p = sub.add_parser("render", help="draw a scene file to a grayscale frame")
    common(p)
    imaging(p)
    p.add_argument("--scene", metavar="FILE", required=True,
                   help="scene JSON document")

    p = sub.add_parser("select-ris",
                       help="pick the serving surface for a scene")
    common(p)
    imaging(p)
    p.add_argument("--scene", metavar="FILE",
                   help="scene JSON document")
    p.add_argument("--via", choices=("vision", "geometry"), default="vision",
                   help="image chain or ground-truth geometry")
    p.add_argument("--agreement", type=int, metavar="N",
                   help="instead of one scene, draw N random scenes and "
                        "report how often both paths agree")

    p = sub.add_parser("gen-data", help="generate seeded channel datasets")
    common(p)
    p.add_argument("--role", choices=("train", "test", "both"),
                   default="both", help="which split to write")

    p = sub.add_parser("train", help="train the policy on a stored dataset")
    common(p)

    p = sub.add_parser("benchmark",
                       help="compare the trained policy with the "
                            "iterative optimizer on the test split")
    common(p)
    return ap


_HANDLERS = {
    "render": cmd_render,
    "select-ris": cmd_select_ris,
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "benchmark": cmd_benchmark,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the package logger prints to stderr for this call only
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger = logging.getLogger("ris_lab")
    previous_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(args.log_level)
    try:
        _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        logger.removeHandler(handler)
        logger.setLevel(previous_level)
    return 0


if __name__ == "__main__":
    sys.exit(main())
