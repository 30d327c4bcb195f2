"""The three benchmark workloads: solve, gen-train and vision-select.

Each workload is a closed loop: one process calls the library one request
after another and times every call. A workload first sets up its inputs
from the seed (several times, to time set-up), then runs items until the
time is up, then returns the timings, the quality figures and the
outcome of the output checks. An item is one held-out sample (solve),
one gen-data + train round (gen-train) or one scene (vision-select).
Every item is one or two operations; an exception or a failed check
marks the operation failed and the run goes on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from ris_lab import baseline, cli, datagen, geometry, policy, scenes, vision
from ris_lab import transmit as tm
from ris_lab.config import RunConfig, save_config
from ris_lab.policy import TrainConfig

import checks

_AO_STREAM = 2          # per-sample AO seed tag used by `ris-lab benchmark`
# Quality is scored on inputs drawn from this seed whatever --seed is, so
# the quality metric reads the same on every run of the same code and a
# drop of any size shows.
QUALITY_SEED = 0
_MAX_PROBLEMS = 20      # problem messages kept per run

clock = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    """Input sizes of all workloads."""

    setup_reps: int = 5          # timed set-ups per run, after one warm
                                 # untimed one; the median is reported
    # solve
    train_samples: int = 256     # policy training set, drawn in set-up
    train_epochs: int = 10
    batch_size: int = 256
    hidden: tuple = (512, 256, 128)
    pool: int = 96               # held-out samples, visited in order
    quality_samples: int = 16    # fixed samples solved first in every run
    infer_reps: int = 10         # inference calls per sample, best timed
    ao25_reps: int = 3           # AO-25 calls per sample, best timed
    # gen-train
    gen_train_samples: int = 256
    gen_test_samples: int = 16
    gen_epochs: int = 8
    # vision-select
    scenes: int = 256            # scenes drawn in set-up, visited in order
    quality_scenes: int = 32     # fixed scenes processed first in every run
    geometry_reps: int = 5       # select_ris calls per true scene, best timed
    resolution: int = 512


# A seconds-long configuration for the self-test.
TINY = Sizes(setup_reps=2, train_samples=32, train_epochs=2, batch_size=32,
             hidden=(16, 8), pool=2, quality_samples=1, infer_reps=2,
             ao25_reps=1, geometry_reps=2,
             gen_train_samples=32, gen_test_samples=4, gen_epochs=2,
             scenes=2, quality_scenes=2)


@dataclass
class Outcome:
    """What one workload run measured and found."""

    item: str
    fast_label: str
    slow_label: str
    setup_s: list = field(default_factory=list)
    fast_s: list = field(default_factory=list)   # per item, fast path
    slow_s: list = field(default_factory=list)   # per item, slow path
    wall_s: float = 0.0                          # loop wall clock,
                                                 # less excluded_s
    excluded_s: float = 0.0   # in-loop work that is not the program's
    items: int = 0
    attempted: int = 0
    failed: int = 0
    consistent: bool = True   # repeated set-ups and revisits reproduce
    problems: list = field(default_factory=list)
    figures: dict = field(default_factory=dict)
    extra_s: dict = field(default_factory=dict)  # other per-item timings
    ao_outer_iterations: int = 0
    quality: float = math.nan   # the workload's quality score, see README

    def note(self, message):
        if len(self.problems) < _MAX_PROBLEMS:
            self.problems.append(message)

    def attempt(self, label, operation):
        """Run one operation; it fails on an exception or on problems."""
        self.attempted += 1
        try:
            problems = operation()
        except Exception as exc:  # a failed operation must not end the run
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            for p in problems:
                self.note(f"{label}: {p}")

    def inconsistent(self, message):
        self.consistent = False
        self.note(message)


@contextlib.contextmanager
def _paused(tracer):
    """Stop span recording for benchmark bookkeeping."""
    if tracer is None:
        yield
        return
    was, tracer.active = tracer.active, False
    try:
        yield
    finally:
        tracer.active = was


def _timed_setups(reps, setup, same, out):
    """Run set-up once untimed, so first-call costs stay out of the
    figure, then `reps` times timed; each result must equal the first.
    Returns the first result."""
    first = setup()
    for r in range(reps):
        t0 = clock()
        result = setup()
        out.setup_s.append(clock() - t0)
        if not same(first, result):
            out.inconsistent(f"timed set-up {r} differs from the warm one")
    return first


def _best_of(reps, call):
    """Call `call` `reps` times; return its last result and the shortest
    time. Bursts of other work on the machine lengthen single calls; the
    shortest of a few repeats is far less disturbed by them."""
    best = math.inf
    for _ in range(reps):
        t0 = clock()
        result = call()
        best = min(best, clock() - t0)
    return result, best


def _run_items(seconds, minimum, run_item, out, tracer):
    """Call run_item(i) for i = 0, 1, ... until `seconds` have passed and
    at least `minimum` items ran; spans are recorded only here."""
    if tracer is not None:
        tracer.active = True
    start = clock()
    i = 0
    while i < minimum or clock() - start < seconds:
        run_item(i)
        i += 1
    out.wall_s = clock() - start - out.excluded_s
    out.items = i
    if tracer is not None:
        tracer.active = False


# --- solve -----------------------------------------------------------------

def _solve_config(seed, sz):
    return RunConfig(
        train_samples=sz.train_samples, test_samples=sz.pool, seed=seed,
        train=TrainConfig(epochs=sz.train_epochs, batch_size=sz.batch_size,
                          hidden=sz.hidden, seed=seed),
        ao=baseline.AOConfig(seed=seed))


def run_solve(seed, seconds, sz, tracer, work_root):
    """Held-out samples through policy.infer, then AO-25 and AO-50."""
    out = Outcome(item="sample",
                  fast_label=f"policy.infer, best of {sz.infer_reps}",
                  slow_label=f"ao_optimize 25 iterations, best of "
                             f"{sz.ao25_reps}")
    cfg = _solve_config(seed, sz)

    def setup():
        train_batch, _ = datagen.generate_dataset(cfg, "train")
        test_batch, _ = datagen.generate_dataset(cfg, "test")
        params, losses = policy.train(cfg.train, train_batch)
        return test_batch, params, losses

    def same(a, b):
        pa, pb = policy.param_list(a[1]), policy.param_list(b[1])
        return (not checks.same_batch(a[0], b[0]) and a[2] == b[2]
                and all(np.array_equal(x.data, y.data) for x, y in zip(pa, pb)))

    test_batch, params, _ = _timed_setups(sz.setup_reps, setup, same, out)
    qcfg = dataclasses.replace(_solve_config(QUALITY_SEED, sz),
                               test_samples=sz.quality_samples)
    quality_batch, _ = datagen.generate_dataset(qcfg, "test")
    # (AO seed, sample): the fixed quality samples first, then the
    # held-out samples of this seed
    samples = ([((QUALITY_SEED, _AO_STREAM, j), quality_batch.sample(j))
                for j in range(len(quality_batch))]
               + [((seed, _AO_STREAM, j), test_batch.sample(j))
                  for j in range(len(test_batch))])
    first_rates = {}
    quality = {"dnn": [], "ao-25": [], "ao-50": []}
    out.extra_s["ao-50"] = []

    def run_item(i):
        idx = i % len(samples)
        ao_seed, cs = samples[idx]
        if tracer is not None:
            tracer.begin_request(f"sample {i} (pool {idx})")
        results = {}

        def operation():
            res, dt = _best_of(sz.infer_reps, lambda: policy.infer(params, cs))
            out.fast_s.append(dt)
            results["dnn"] = (res.power.p, res.phases.phi,
                              float(cs.user_weight @ res.rates), None)
            for iters, reps, times in ((25, sz.ao25_reps, out.slow_s),
                                       (50, 1, out.extra_s["ao-50"])):
                acfg = dataclasses.replace(cfg.ao, iterations=iters,
                                           seed=ao_seed)
                (power, phases, trace), dt = _best_of(
                    reps, lambda: baseline.ao_optimize(cs, acfg))
                times.append(dt)
                out.ao_outer_iterations += reps * iters * acfg.restarts
                results[f"ao-{iters}"] = (power.p, phases.phi, trace[-1], trace)
            with _paused(tracer):
                return _check_solve_item(cs, results)

        out.attempt(f"sample {i}", operation)
        rates = tuple(r[2] for r in results.values())
        if len(rates) == 3:
            if idx in first_rates and first_rates[idx] != rates:
                out.inconsistent(f"pool sample {idx} changed on revisit")
            first_rates.setdefault(idx, rates)
            if i < sz.quality_samples:
                for label, value in zip(results, rates):
                    quality[label].append(value)

    _run_items(seconds, sz.quality_samples, run_item, out, tracer)
    for label, values in quality.items():
        out.figures[f"rate_{label.replace('-', '')}"] = (
            float(np.mean(values)) if values else math.nan)
    out.figures["quality_samples"] = sz.quality_samples
    out.quality = out.figures["rate_ao25"]
    return out


def _check_solve_item(cs, results):
    problems = []
    for label, (p, phi, rate, trace) in results.items():
        problems += checks.check_solution(cs, p, phi, rate, label)
        if trace is not None:
            problems += checks.check_trace(trace, int(label[3:]), label)
    if results["ao-50"][2] < results["ao-25"][2]:
        problems.append("ao-50 ends below ao-25")
    return problems


# --- gen-train -------------------------------------------------------------

def _quiet_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def run_gen_train(seed, seconds, sz, tracer, work_root):
    """`ris-lab gen-data` then `ris-lab train` through cli.main, in rounds."""
    out = Outcome(item="round", fast_label="train, per sample-epoch",
                  slow_label="gen-data, per sample")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="gen-train-", dir=work_root)
    try:
        _gen_train(seed, seconds, work, sz, tracer, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return out


def _gen_train_config(seed, sz, work):
    return RunConfig(
        train_samples=sz.gen_train_samples, test_samples=sz.gen_test_samples,
        seed=seed,
        train=TrainConfig(epochs=sz.gen_epochs, batch_size=sz.batch_size,
                          hidden=sz.hidden, seed=seed),
        ao=baseline.AOConfig(seed=seed),
        dataset_path=os.path.join(work, "train.risd"),
        test_dataset_path=os.path.join(work, "test.risd"),
        checkpoint_path=os.path.join(work, "model.rism"),
        report_path=os.path.join(work, "report.json"))


def _round_seed(seed, i):
    """Input seed of round i: --seed itself for round 0, then seeds drawn
    from (--seed, i). Scene drawing is rejection sampling, so the cost of
    one 272-sample draw moves by several percent with its seed; a new draw
    every round averages that out of the run's median."""
    if i == 0:
        return seed
    return int(np.random.SeedSequence((seed, i)).generate_state(1)[0])


def _gen_train(seed, seconds, work, sz, tracer, out):
    cfg = _gen_train_config(seed, sz, work)
    config_path = os.path.join(work, "run.json")
    argv = ["--config", config_path]

    def reference(cfg):
        # the config file, plus the in-memory outputs the files must match
        save_config(config_path, cfg)
        train_batch, _ = datagen.generate_dataset(cfg, "train")
        test_batch, _ = datagen.generate_dataset(cfg, "test")
        params, losses = policy.train(cfg.train, train_batch)
        return train_batch, test_batch, params, losses

    def same(a, b):
        return (not checks.same_batch(a[0], b[0])
                and not checks.same_batch(a[1], b[1]) and a[3] == b[3]
                and not _param_problems(a[2], b[2]))

    ref_train, _, _, ref_losses = refs = _timed_setups(
        sz.setup_reps, lambda: reference(cfg), same, out)
    # the same pipeline on the quality seed, in memory; `train` writes the
    # loss log of this very computation for that seed
    qcfg = _gen_train_config(QUALITY_SEED, sz, work)
    quality_losses = policy.train(
        qcfg.train, datagen.generate_dataset(qcfg, "train")[0])[1]
    gen_count = sz.gen_train_samples + sz.gen_test_samples
    trained = sz.gen_train_samples * sz.gen_epochs
    per_round = {}

    def gen_stage(rcfg, refs):
        t0 = clock()
        code = _quiet_cli(["gen-data"] + argv)
        per_round["gen"] = clock() - t0
        if code != 0:
            return [f"gen-data exited {code}"]
        with _paused(tracer):
            return _check_datasets(rcfg, refs[0], refs[1])

    def train_stage(rcfg, refs):
        t0 = clock()
        code = _quiet_cli(["train"] + argv)
        per_round["train"] = clock() - t0
        if code != 0:
            return [f"train exited {code}"]
        with _paused(tracer):
            return _check_checkpoint(rcfg, refs[2], refs[3])

    outputs = [p + suffix for p in (cfg.dataset_path, cfg.test_dataset_path,
                                    cfg.checkpoint_path)
               for suffix in ("", ".json")]

    def run_item(i):
        # Untimed and left out of the wall clock: the round's config file
        # and the in-memory outputs its files must match (round 0's come
        # from set-up), then a clean start for the round.
        nonlocal refs
        t0 = clock()
        with _paused(tracer):
            rcfg = _gen_train_config(_round_seed(seed, i), sz, work)
            if i > 0:
                refs = reference(rcfg)
        # Every round writes into an empty directory, as a first run does:
        # on ext4, truncating an existing file forces a flush on close,
        # which would make the round time follow the disk.
        for path in outputs:
            if os.path.exists(path):
                os.remove(path)
        gc.collect()
        out.excluded_s += clock() - t0
        if tracer is not None:
            tracer.begin_request(f"round {i}")
        per_round.clear()
        out.attempt(f"round {i} gen-data", lambda: gen_stage(rcfg, refs))
        out.attempt(f"round {i} train", lambda: train_stage(rcfg, refs))
        if "gen" in per_round:
            out.slow_s.append(per_round["gen"] / gen_count)
        if "train" in per_round:
            out.fast_s.append(per_round["train"] / trained)

    _run_items(seconds, 1, run_item, out, tracer)
    out.figures["train_rate"] = -ref_losses[-1]
    out.figures["first_epoch_rate"] = -ref_losses[0]
    out.figures["quality_train_rate"] = -quality_losses[-1]
    out.quality = -quality_losses[-1]
    ratio, stderr = checks.link_ratio(ref_train, cfg.system.noise_power)
    out.figures["link_ratio_db"] = 10.0 * math.log10(ratio)
    out.figures["link_ratio_z"] = float(
        (ratio - 10.0 ** (cfg.system.link_budget_db / 10.0)) / stderr)
    if out.slow_s and out.fast_s:
        out.figures["gen_samples_per_s"] = 1.0 / float(np.mean(out.slow_s))
        out.figures["train_samples_per_s"] = 1.0 / float(np.mean(out.fast_s))


def _check_datasets(cfg, ref_train, ref_test):
    problems = []
    for path, ref in ((cfg.dataset_path, ref_train),
                      (cfg.test_dataset_path, ref_test)):
        batch, sidecar = tm.load_dataset(path)
        problems += checks.same_batch(batch, ref)
        problems += checks.check_link_budget(
            batch, cfg.system.noise_power, cfg.system.link_budget_db)
        ratio, _ = checks.link_ratio(batch, cfg.system.noise_power)
        if not math.isclose(10.0 * math.log10(ratio),
                            sidecar["empirical_ratio_db"], abs_tol=1e-9):
            problems.append(f"{path}: sidecar ratio "
                            f"{sidecar['empirical_ratio_db']!r} dB does not "
                            "match the arrays")
    return problems


def _param_problems(a, b):
    pa, pb = policy.param_list(a), policy.param_list(b)
    problems = [f"parameter block {i} differs" for i, (x, y)
                in enumerate(zip(pa, pb)) if not np.array_equal(x.data, y.data)]
    for name in ("bn_mean", "bn_var"):
        if not all(np.array_equal(x, y)
                   for x, y in zip(getattr(a, name), getattr(b, name))):
            problems.append(f"{name} differs")
    return problems


def _check_checkpoint(cfg, ref_params, ref_losses):
    params, sidecar = policy.load_params(cfg.checkpoint_path)
    problems = _param_problems(params, ref_params)
    losses = sidecar.get("loss_log", [])
    if losses != ref_losses:
        problems.append("checkpoint loss log differs from the in-memory run")
    if not losses or not all(math.isfinite(v) for v in losses):
        problems.append("loss log is empty or not finite")
    elif len(losses) > 1 and not losses[-1] < losses[0]:
        problems.append(f"final loss {losses[-1]:.4f} does not beat the "
                        f"first {losses[0]:.4f}")
    return problems


# --- vision-select ----------------------------------------------------------

def run_vision_select(seed, seconds, sz, tracer, work_root):
    """Rendered scenes through recover_scene and select_ris, against
    select_ris on the true scene."""
    out = Outcome(item="scene",
                  fast_label=f"select_ris on the true scene, best of "
                             f"{sz.geometry_reps}",
                  slow_label="render + recover_scene + select_ris")
    gen = scenes.SceneGenConfig(n_ris=6, n_users=4)
    half_extent = gen.region + 1.0

    def draw(rng, count):
        return [scenes.random_scene(gen, rng) for _ in range(count)]

    def setup():
        return _by_obstacle_count(draw(np.random.default_rng(seed),
                                       sz.scenes))

    seeded = _timed_setups(sz.setup_reps, setup, lambda a, b: a == b, out)
    quality_scenes = draw(np.random.default_rng(QUALITY_SEED),
                          sz.quality_scenes)
    pool = quality_scenes + seeded
    first_seen = {}
    tally = {"agree": 0, "scenes": 0, "over_tol": 0, "worst": 0.0}

    def run_item(i):
        idx = i % len(pool)
        scene = pool[idx]
        if tracer is not None:
            tracer.begin_request(f"scene {i} (pool {idx})")
        found = {}

        def operation():
            t0 = clock()
            raster = vision.render_top_view(scene, sz.resolution, half_extent)
            recovered = vision.recover_scene(raster, scene.ris_positions,
                                             scene.kappa)
            seen = geometry.select_ris(recovered)
            out.slow_s.append(clock() - t0)
            truth, dt = _best_of(sz.geometry_reps,
                                 lambda: geometry.select_ris(scene))
            out.fast_s.append(dt)
            with _paused(tracer):
                problems, worst = checks.check_scene_recovery(
                    scene, recovered, raster.meters_per_pixel)
            found["result"] = (seen, truth, worst)
            return problems

        out.attempt(f"scene {i}", operation)
        if "result" not in found:
            return
        seen, truth, worst = found["result"]
        if idx in first_seen and first_seen[idx] != found["result"]:
            out.inconsistent(f"scene {idx} changed on revisit")
        first_seen.setdefault(idx, found["result"])
        tally["scenes"] += 1
        tally["agree"] += seen == truth
        tally["over_tol"] += worst > checks.VERTEX_TOL_PX
        tally["worst"] = max(tally["worst"], worst)

    _run_items(seconds, sz.quality_scenes, run_item, out, tracer)
    q = [first_seen[j] for j in range(len(quality_scenes))
         if j in first_seen]
    passed = sum(s == t and w <= checks.VERTEX_TOL_PX for s, t, w in q)
    out.quality = passed / len(quality_scenes)
    out.figures["quality_scenes"] = len(q)
    out.figures["selections"] = "".join(str(seen) for seen, _, _ in q)
    out.figures["selection_agree"] = sum(s == t for s, t, _ in q)
    out.figures["scenes_over_2px"] = sum(w > checks.VERTEX_TOL_PX for *_, w in q)
    out.figures["worst_vertex_px"] = max((w for *_, w in q), default=math.nan)
    out.figures["all_scenes"] = tally["scenes"]
    out.figures["all_agree"] = tally["agree"]
    out.figures["all_over_2px"] = tally["over_tol"]
    out.figures["all_worst_vertex_px"] = tally["worst"]
    return out


def _by_obstacle_count(pool):
    """Reorder scenes so that consecutive blocks hold one scene of each
    obstacle count while every count lasts. Time per scene grows with the
    count, so every run visits the same mix whatever its length, and the
    seed moves the medians less."""
    buckets = {}
    for scene in pool:
        buckets.setdefault(len(scene.obstacles), []).append(scene)
    columns = [buckets[k] for k in sorted(buckets)]
    longest = max((len(c) for c in columns), default=0)
    return [c[j] for j in range(longest) for c in columns if j < len(c)]


WORKLOADS = {
    "solve": run_solve,
    "gen-train": run_gen_train,
    "vision-select": run_vision_select,
}
