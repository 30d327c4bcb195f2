"""End-to-end acceptance checks at the flagship scale.

One test per advertised guarantee, in order: learned-policy quality
against the iterative optimizer, iteration-count ordering, inference
speed separation, gradient exactness, feasibility of the output mapping,
tiny-instance optimality, selection fidelity through the image chain,
and consistency of the two rate formulations.

The quality, ordering and speed checks share one full pipeline run
(dataset generation, training, benchmark) through the command line
entry points at the default configuration: four users, six surfaces of
eight elements, eight antennas, unit power budget, 20 dB link budget,
10,000 training and 200 held-out samples.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from ris_lab import autodiff as ad
from ris_lab import baseline as bl
from ris_lab import cli
from ris_lab import policy as pl
from ris_lab import transmit as tm
from ris_lab.config import RunConfig
from ris_lab.geometry import select_ris
from ris_lab.scenes import SceneGenConfig, random_scene
from ris_lab.vision import recover_scene, render_top_view

RATE_RATIO_FLOOR = 0.85
SPEEDUP_FLOOR = 100.0
PIPELINE_BUDGET_SECONDS = 1800.0


def unit_channels(rng, k, n, nt, p_max=1.0):
    """One draw with every link at unit pathloss (plain complex normal)."""
    return tm.sample_channels(1.0, np.ones(k), np.ones(k), (n, nt), rng,
                              eta=0.0, p_max=p_max)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full-scale run: gen-data, train, benchmark at the default config."""
    root = tmp_path_factory.mktemp("flagship")
    cfg = RunConfig(
        dataset_path=str(root / "train.risd"),
        test_dataset_path=str(root / "test.risd"),
        checkpoint_path=str(root / "model.rism"),
        report_path=str(root / "report.json"))
    from ris_lab.config import save_config
    save_config(root / "run.json", cfg)
    arg = ["--config", str(root / "run.json")]
    started = time.perf_counter()
    assert cli.main(["gen-data"] + arg) == 0
    assert cli.main(["train"] + arg) == 0
    assert cli.main(["benchmark"] + arg) == 0
    elapsed = time.perf_counter() - started
    report = json.loads((root / "report.json").read_text())
    return {"config": cfg, "report": report, "elapsed": elapsed}


def test_01_learned_policy_tracks_iterative_optimum(pipeline):
    rates = pipeline["report"]["primary"]["mean_rates"]
    ratio = rates["dnn"] / rates["ao-50"]
    assert ratio >= RATE_RATIO_FLOOR, (
        f"mean learned rate {rates['dnn']:.4f} over ao-50 "
        f"{rates['ao-50']:.4f} gives ratio {ratio:.4f}")
    assert pipeline["elapsed"] <= PIPELINE_BUDGET_SECONDS, (
        f"pipeline took {pipeline['elapsed']:.0f}s")


def test_02_more_iterations_never_hurt(pipeline):
    cfg = pipeline["config"]
    batch, _ = tm.load_dataset(cfg.test_dataset_path)
    finals_25, finals_50 = [], []
    for i in range(len(batch)):
        channels = batch.sample(i)
        seed = (cfg.ao.seed, cli._AO_STREAM, i)
        traces = {}
        for iters in (25, 50):
            acfg = dataclasses.replace(cfg.ao, iterations=iters, seed=seed)
            _, _, trace = bl.ao_optimize(channels, acfg)
            assert len(trace) == iters + 1
            assert np.all(np.diff(trace) >= 0.0), f"sample {i} trace decreased"
            traces[iters] = trace
        assert traces[50][-1] >= traces[25][-1], f"sample {i} got worse"
        finals_25.append(traces[25][-1])
        finals_50.append(traces[50][-1])
    # the same numbers the benchmark reported, and the same ordering
    rates = pipeline["report"]["primary"]["mean_rates"]
    assert float(np.mean(finals_25)) == rates["ao-25"]
    assert float(np.mean(finals_50)) == rates["ao-50"]
    assert rates["ao-50"] >= rates["ao-25"]


def test_03_inference_is_orders_of_magnitude_faster(pipeline):
    times = pipeline["report"]["timing"]["per_sample_seconds"]
    speedup = times["ao-25"] / times["dnn"]
    assert speedup >= SPEEDUP_FLOOR, (
        f"dnn {times['dnn']:.6f}s vs ao-25 {times['ao-25']:.6f}s "
        f"per sample is only {speedup:.1f}x")


def test_04_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(74)
    sets = [unit_channels(rng, k=2, n=3, nt=3) for _ in range(3)]
    batch = tm.ChannelBatch.from_sets(sets)
    template = pl.init_params((2, 3, 3), (6, 5), rng)
    arrays = [t.data.copy() for t in pl.param_list(template)]

    def rebuild(w1, b1, g1, s1, w2, b2, g2, s2, hpw, hpb, hfw, hfb):
        params = pl.MLPParams(
            dims=(2, 3, 3), hidden=(6, 5), weights=[w1, w2],
            biases=[b1, b2], bn_scale=[g1, g2], bn_shift=[s1, s2],
            bn_mean=list(template.bn_mean), bn_var=list(template.bn_var),
            head_p_w=hpw, head_p_b=hpb, head_phi_w=hfw, head_phi_b=hfb)
        return pl.loss(params, batch)

    report = ad.grad_check(rebuild, arrays, step=1e-5, tol=1e-4)
    assert report.passed, (
        f"max relative error {report.max_rel_err:.3e} at array "
        f"{report.worst_input} entry {report.worst_coord}")


def test_05_output_mapping_is_always_feasible():
    rng = np.random.default_rng(75)
    two_pi = 2.0 * np.pi
    for trial in range(10000):
        k = int(rng.integers(1, 7))
        n = int(rng.integers(1, 13))
        p_max = float(rng.uniform(0.05, 20.0))
        scale = float(rng.choice([0.1, 1.0, 10.0, 1000.0]))
        raw_p = rng.normal(0.0, scale, k)
        raw_phi = rng.normal(0.0, scale, n)
        power, phases = pl.normalize_outputs(raw_p, raw_phi, p_max)
        assert abs(power.p.sum() - p_max) <= 1e-9
        assert np.all(power.p >= 0.0)
        assert np.all(phases.phi >= 0.0)
        assert np.all(phases.phi < two_pi)


def test_06_matches_exhaustive_search_on_tiny_instances():
    for seed in range(20):
        channels = unit_channels(np.random.default_rng(1000 + seed),
                                 k=1, n=2, nt=2)
        _, _, trace = bl.ao_optimize(channels,
                                     bl.AOConfig(iterations=25, seed=seed))
        _, _, best = bl.grid_oracle(channels, 64)
        assert trace[-1] >= 0.98 * best, (
            f"seed {seed}: {trace[-1]:.6f} vs grid {best:.6f}")
    # all-scalar case has a closed form: align reflected with direct path
    for seed in range(10):
        channels = unit_channels(np.random.default_rng(3000 + seed),
                                 k=1, n=1, nt=1)
        _, phases, _ = bl.ao_optimize(channels,
                                      bl.AOConfig(iterations=25, seed=seed))
        g = channels.g[0, 0]
        h = channels.h[0, 0]
        H = channels.H[0, 0]
        want = np.mod(-np.angle(g) - np.angle(np.conj(h) * H), 2.0 * np.pi)
        dist = np.abs(np.mod(phases.phi[0] - want + np.pi, 2.0 * np.pi)
                      - np.pi)
        assert dist < 1e-2, f"seed {seed}: phase off by {dist:.4f} rad"


def test_07_image_chain_matches_ground_truth_selection():
    gen = SceneGenConfig(n_ris=6, n_users=4)  # at most 5 convex obstacles
    rng = np.random.default_rng(2026)
    agree = 0
    vertex_err_px = []
    for _ in range(100):
        scene = random_scene(gen, rng)
        raster = render_top_view(scene, 512, gen.region + 1.0)
        recovered = recover_scene(raster, scene.ris_positions, scene.kappa)
        if select_ris(recovered) == select_ris(scene):
            agree += 1
        obstacles = recovered.obstacles
        assert len(obstacles) == len(scene.obstacles)
        centroids = [(np.mean([v.x for v in ob.vertices]),
                      np.mean([v.y for v in ob.vertices]))
                     for ob in obstacles]
        for truth in scene.obstacles:
            cx = np.mean([v.x for v in truth.vertices])
            cy = np.mean([v.y for v in truth.vertices])
            nearest = min(range(len(centroids)),
                          key=lambda j: (centroids[j][0] - cx) ** 2
                          + (centroids[j][1] - cy) ** 2)
            found = obstacles[nearest]
            assert len(found.vertices) == len(truth.vertices)
            for v in truth.vertices:
                err = min(np.hypot(v.x - w.x, v.y - w.y)
                          for w in found.vertices)
                vertex_err_px.append(err / raster.meters_per_pixel)
    assert agree >= 95, f"selection agreed on only {agree}/100 scenes"
    worst = max(vertex_err_px)
    assert worst <= 2.0, f"worst vertex error {worst:.2f} px"


def test_08_rate_formulations_agree():
    rng = np.random.default_rng(88)
    for trial in range(1000):
        sigma2 = 1.0 if trial % 2 == 0 else 2.5
        channels = tm.sample_channels(1.0, np.ones(4), np.ones(4), (8, 8),
                                      rng, eta=0.0, sigma2=sigma2)
        phi = rng.uniform(0.0, 2.0 * np.pi, 8)
        split = rng.uniform(0.05, 1.0, 4)
        p = tm.PowerVector(split / split.sum(), p_max=1.0)
        G = tm.build_G(channels, phi)
        directions = tm.mmse_directions(G, channels.sigma2)
        norms = np.linalg.norm(directions, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        beams = tm.recover_beamformers(p, directions)
        reduced = tm.user_rates(channels, p, phi)
        for k in range(4):
            full = tm.rate(channels, k, beams, phi)
            assert abs(full - reduced[k]) < 1e-12
