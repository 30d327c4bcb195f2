#!/usr/bin/env python3
"""Self-test of the benchmark; finishes in seconds.

    python3 bench/selftest.py

Runs every workload at tiny sizes, with and without tracing, and checks
the checks: the rate oracle agrees with ``transmit.rate`` on random
draws, and a perturbed power or phase vector, a decreasing AO trace, a
moved vertex and a changed dataset are all caught. It also checks that
the metric names and units printed by run.py match BENCHMARK.json.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import sys

import run  # sets the BLAS thread count before numpy is imported

run.import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from ris_lab import baseline, scenes, vision  # noqa: E402
from ris_lab import transmit as tm  # noqa: E402
from tracer import LAYER_NAMES, Tracer  # noqa: E402

_failures = []


def expect(condition, message):
    if not condition:
        _failures.append(message)
        print(f"FAIL {message}")


def test_metric_names():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in doc["per_layer"]}
    expect(e2e == run.END_TO_END, "end-to-end metrics differ from "
           "BENCHMARK.json")
    expect(layers == run.per_layer_units(LAYER_NAMES),
           "per-layer metrics differ from BENCHMARK.json")
    expect(sorted(w["name"] for w in doc["workloads"])
           == sorted(workloads.WORKLOADS), "workloads differ from "
           "BENCHMARK.json")


def test_workloads(work_root):
    for name, fn in workloads.WORKLOADS.items():
        for traced in (False, True):
            tracer = Tracer() if traced else None
            if tracer is not None:
                tracer.install()
            try:
                out = fn(0, 0.0, workloads.TINY, tracer, work_root)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            label = f"{name} (trace {int(traced)})"
            expect(out.attempted >= 1, f"{label}: nothing attempted")
            expect(out.failed == 0, f"{label}: {out.failed} failed: "
                   f"{out.problems}")
            expect(out.consistent, f"{label}: inconsistent: {out.problems}")
            e2e = run.end_to_end(out)
            expect(all(v is not None and v > 0 for v in e2e.values()),
                   f"{label}: end-to-end metrics {e2e}")
            if tracer is not None:
                layers = run.per_layer(out, tracer)
                expect(layers["run.untraced_ms"] >= 0.0,
                       f"{label}: self times exceed the wall clock")
                expect(any(layers[f"{n}.calls"] > 0 for n in LAYER_NAMES),
                       f"{label}: no spans recorded")
            print(f"ok   {label}: {out.attempted} operations")


def test_oracle_matches_transmit_rate():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        k, n, nt = (int(v) for v in rng.integers(1, 9, size=3))
        cs = tm.sample_channels(1.0, rng.uniform(0.5, 2.0, k),
                                rng.uniform(0.5, 2.0, k), (n, nt), rng,
                                sigma2=float(rng.uniform(0.1, 3.0)))
        phi = rng.uniform(0.0, 2.0 * np.pi, n)
        split = rng.uniform(0.01, 1.0, k)
        power = tm.PowerVector(split / split.sum(), p_max=1.0)
        beams = tm.recover_beamformers(
            power, tm.mmse_directions(tm.build_G(cs, phi), cs.sigma2))
        want = np.array([tm.rate(cs, u, beams, phi) for u in range(k)])
        got = checks.oracle_user_rates(cs.H, cs.h, cs.g, cs.sigma2,
                                       power.p, phi)
        worst = max(worst, float(np.max(np.abs(got - want) / want)))
    expect(worst < 1e-10, f"oracle vs transmit.rate: relative gap {worst:.3g}")
    print(f"ok   oracle vs transmit.rate: worst relative gap {worst:.2e}")


def test_perturbations_are_caught():
    rng = np.random.default_rng(6)
    cs = tm.sample_channels(1.0, np.ones(4), np.ones(4), (8, 8), rng, eta=0.0)
    power, phases, trace = baseline.ao_optimize(
        cs, baseline.AOConfig(iterations=5, seed=1))
    p, phi, rate = power.p, phases.phi, trace[-1]
    expect(not checks.check_solution(cs, p, phi, rate, "ao"),
           "an unperturbed AO output fails the checks")
    expect(not checks.check_trace(trace, 5, "ao"),
           "an unperturbed AO trace fails the checks")
    bad_p = p.copy()
    bad_p[0] += 1e-3
    moved_p = p.copy()
    moved_p[[0, 1]] = moved_p[[1, 0]] + np.array([1e-3, -1e-3])
    negative = p.copy()
    negative[0], negative[1] = -0.01, p[1] + p[0] + 0.01
    cases = {
        "power over budget": (bad_p, phi),
        "power moved within budget": (moved_p, phi),
        "negative power": (negative, phi),
        "phase moved": (p, np.mod(phi + 0.05, 2.0 * np.pi)),
        "phase at 2pi": (p, np.where(np.arange(phi.size) == 0,
                                     2.0 * np.pi, phi)),
    }
    for label, (pp, ff) in cases.items():
        expect(bool(checks.check_solution(cs, pp, ff, rate, label)),
               f"{label}: not caught")
    down = list(trace)
    down[-1] = down[-2] - 1e-6
    expect(bool(checks.check_trace(down, 5, "ao")), "decreasing trace: "
           "not caught")
    expect(bool(checks.check_trace(trace[:-1], 5, "ao")), "short trace: "
           "not caught")

    gen = scenes.SceneGenConfig(n_ris=6, n_users=4)
    scene = scenes.random_scene(gen, np.random.default_rng(3))
    raster = vision.render_top_view(scene, 512, gen.region + 1.0)
    rec = vision.recover_scene(raster, scene.ris_positions, scene.kappa)
    problems, worst = checks.check_scene_recovery(scene, rec,
                                                  raster.meters_per_pixel)
    expect(not problems and worst <= checks.VERTEX_TOL_PX,
           f"recovered scene fails its checks: {problems}, {worst:.2f} px")
    first = rec.obstacles[0]
    shifted = [type(v)(v.x + 3.0 * raster.meters_per_pixel, v.y)
               for v in first.vertices]
    moved = type(rec)(ris_positions=rec.ris_positions, users=rec.users,
                      obstacles=(type(first)(shifted),) + rec.obstacles[1:],
                      kappa=rec.kappa)
    _, worst = checks.check_scene_recovery(scene, moved,
                                           raster.meters_per_pixel)
    expect(worst > checks.VERTEX_TOL_PX, "vertex moved by 3 px: not caught")
    fewer = type(rec)(ris_positions=rec.ris_positions, users=rec.users[1:],
                      obstacles=rec.obstacles, kappa=rec.kappa)
    problems, _ = checks.check_scene_recovery(scene, fewer,
                                              raster.meters_per_pixel)
    expect(bool(problems), "missing user: not caught")

    batch = tm.ChannelBatch.from_sets([cs])
    changed = tm.ChannelBatch(H=batch.H * (1.0 + 1e-12), h=batch.h,
                              g=batch.g, sigma2=batch.sigma2,
                              user_weight=batch.user_weight)
    expect(bool(checks.same_batch(batch, changed)), "changed dataset: not "
           "caught")
    far = tm.ChannelBatch(H=batch.H * 3.0, h=batch.h * 3.0, g=batch.g * 3.0,
                          sigma2=batch.sigma2, user_weight=batch.user_weight)
    expect(bool(checks.check_link_budget(far, 1.0, 0.0)),
           "link ratio 9.5 dB off budget: not caught")
    print("ok   perturbed outputs are caught")


def main():
    test_metric_names()
    test_oracle_matches_transmit_rate()
    test_perturbations_are_caught()
    try:
        test_workloads(str(run.WORK_DIR))
    finally:
        if run.WORK_DIR.is_dir() and not any(run.WORK_DIR.iterdir()):
            run.WORK_DIR.rmdir()
    if _failures:
        print(f"selftest: {len(_failures)} failures")
        return 1
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
