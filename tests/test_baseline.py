"""Tests for the alternating-optimization baseline and the grid oracle.

Independent oracles: a bisection solver for the simplex projection, the
closed-form phase alignment optimum for all-scalar channels, and the
exhaustive grid search itself (verified against both).
"""

import dataclasses

import numpy as np
import pytest

from ris_lab import baseline as bl
from ris_lab import transmit as tm


def projection_oracle(v, total, tol=1e-14):
    """Bisection on the shift tau so that sum(max(v - tau, 0)) = total."""
    v = np.asarray(v, dtype=np.float64)
    lo, hi = v.min() - total / v.size - 1.0, v.max()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(v - mid, 0.0).sum() > total:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return np.maximum(v - 0.5 * (lo + hi), 0.0)


def alignment_optimum(channels):
    """Best phase for scalar channels: align reflected with direct path."""
    g, h, H = channels.g[0, 0], channels.h[0, 0], channels.H[0, 0]
    return np.mod(-np.angle(g) - np.angle(np.conj(h) * H), 2 * np.pi)


def circular_distance(a, b):
    return np.abs(np.mod(a - b + np.pi, 2 * np.pi) - np.pi)


def make_channels(rng, k=2, n=2, nt=2, p_max=1.0):
    return tm.sample_channels(1.0, np.ones(k), np.ones(k), (n, nt), rng,
                              eta=0.0, p_max=p_max)


# --- simplex projection -------------------------------------------------------------

def test_project_simplex_known_case():
    assert np.allclose(bl.project_simplex([2.0, 0.0], 1.0), [1.0, 0.0],
                       rtol=0, atol=1e-15)
    assert np.allclose(bl.project_simplex([0.5, 0.5], 1.0), [0.5, 0.5],
                       rtol=0, atol=1e-15)


def test_project_simplex_matches_bisection_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        size = int(rng.integers(1, 8))
        v = rng.standard_normal(size) * rng.uniform(0.1, 10.0)
        total = rng.uniform(0.1, 5.0)
        got = bl.project_simplex(v, total)
        want = projection_oracle(v, total)
        assert np.max(np.abs(got - want)) < 1e-10
        assert np.all(got >= 0.0)
        assert abs(got.sum() - total) < 1e-9


def test_project_simplex_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = bl.project_simplex(rng.standard_normal(5), 2.0)
        again = bl.project_simplex(x, 2.0)
        assert np.max(np.abs(again - x)) < 1e-12


def test_wrap_phase():
    out = bl.wrap_phase([2 * np.pi, -0.5, 7.0, 0.0])
    assert out[0] == 0.0
    assert out[1] == pytest.approx(2 * np.pi - 0.5, rel=1e-12)
    assert out[2] == pytest.approx(7.0 - 2 * np.pi, rel=1e-12)
    assert out[3] == 0.0
    assert np.all(out >= 0.0) and np.all(out < 2 * np.pi)


# --- alternating optimization -------------------------------------------------------

def test_ao_single_iteration_improves_or_matches():
    for seed in range(5):
        ch = make_channels(np.random.default_rng(seed), k=2, n=3, nt=3)
        _, _, trace = bl.ao_optimize(ch, bl.AOConfig(iterations=1, restarts=1,
                                                     seed=seed))
        assert len(trace) == 2
        assert trace[1] >= trace[0]


def test_ao_trace_is_monotone():
    for seed in range(3):
        ch = make_channels(np.random.default_rng(100 + seed), k=3, n=4, nt=4)
        _, _, trace = bl.ao_optimize(ch, bl.AOConfig(iterations=10, seed=seed))
        assert len(trace) == 11
        assert np.all(np.diff(trace) >= 0.0)


def test_ao_finds_scalar_phase_alignment():
    for seed in range(6):
        ch = make_channels(np.random.default_rng(200 + seed), k=1, n=1, nt=1)
        power, phases, _ = bl.ao_optimize(ch, bl.AOConfig(iterations=25,
                                                          seed=seed))
        assert power.p[0] == pytest.approx(ch.p_max, abs=1e-12)
        want = alignment_optimum(ch)
        assert circular_distance(phases.phi[0], want) < 1e-2


def test_ao_longer_run_extends_shorter_exactly():
    ch = make_channels(np.random.default_rng(300), k=2, n=3, nt=3)
    short = bl.AOConfig(iterations=25, restarts=1, seed=4)
    long = bl.AOConfig(iterations=50, restarts=1, seed=4)
    _, _, trace_short = bl.ao_optimize(ch, short)
    _, _, trace_long = bl.ao_optimize(ch, long)
    assert trace_long[:26] == trace_short
    assert trace_long[-1] >= trace_short[-1]


def test_ao_more_iterations_never_worse_with_restarts():
    for seed in range(3):
        ch = make_channels(np.random.default_rng(400 + seed), k=2, n=2, nt=2)
        _, _, t25 = bl.ao_optimize(ch, bl.AOConfig(iterations=25, seed=seed))
        _, _, t50 = bl.ao_optimize(ch, bl.AOConfig(iterations=50, seed=seed))
        assert t50[-1] >= t25[-1]


def test_ao_outputs_are_feasible():
    ch = make_channels(np.random.default_rng(500), k=3, n=3, nt=3, p_max=2.0)
    power, phases, trace = bl.ao_optimize(ch, bl.AOConfig(iterations=5))
    assert abs(power.p.sum() - 2.0) < 1e-9
    assert np.all(power.p >= 0.0)
    assert np.all(phases.phi >= 0.0) and np.all(phases.phi < 2 * np.pi)
    assert trace[-1] == pytest.approx(
        tm.weighted_sum_rate(ch, power, phases), rel=1e-12)


def sequential_ao(channels, config):
    """The restarts one after another: every line-search trial a fresh
    weighted_sum_rate, every gradient a fresh weighted_sum_rate_grads."""
    rng = np.random.default_rng(config.seed)
    k = channels.K
    initial = rng.uniform(0.0, 2.0 * np.pi, (config.restarts, channels.N))
    best = None
    for r in range(config.restarts):
        point = {"p": np.full(k, channels.p_max / k), "phi": initial[r].copy()}
        f = tm.weighted_sum_rate(channels, point["p"], point["phi"])
        trace = [f]
        step = {"p": config.step_p, "phi": config.step_phi}
        for _ in range(config.iterations):
            for name in ("p", "phi"):
                if name == "p" and k == 1:
                    continue
                grads = tm.weighted_sum_rate_grads(channels, point["p"], point["phi"])
                g = grads[0] if name == "p" else grads[1]
                for _ in range(config.max_backtracks):
                    cand = dict(point)
                    cand[name] = point[name] + step[name] * g
                    if name == "p":
                        cand["p"] = bl.project_simplex(cand["p"], channels.p_max)
                    f_cand = tm.weighted_sum_rate(channels, cand["p"], cand["phi"])
                    if f_cand > f:
                        point, f = cand, f_cand
                        step[name] *= config.grow
                        break
                    step[name] *= config.shrink
            trace.append(f)
        if best is None or f > best[0]:
            best = (f, point, trace)
    _, point, trace = best
    return point["p"], bl.wrap_phase(point["phi"]), trace


def test_stacked_restarts_match_sequential_reference_exactly():
    rng = np.random.default_rng(1200)
    shapes = [(1, 1, 1), (1, 1, 4), (1, 3, 2), (3, 2, 2), (4, 3, 1), (2, 5, 3)]
    shapes += [tuple(int(v) for v in rng.integers(1, [5, 9, 9])) for _ in range(10)]
    for case, (k, n, nt) in enumerate(shapes):
        ch = tm.sample_channels(1.0, rng.uniform(0.5, 2.0, k),
                                rng.uniform(0.5, 2.0, k), (n, nt), rng,
                                sigma2=rng.uniform(0.2, 2.0, k),
                                user_weight=rng.uniform(0.1, 2.0, k),
                                p_max=float(rng.uniform(0.5, 3.0)))
        cfg = bl.AOConfig(iterations=int(rng.integers(1, 31)),
                          restarts=int(rng.integers(1, 5)), seed=(case, 5))
        power, phases, trace = bl.ao_optimize(ch, cfg)
        want_p, want_phi, want_trace = sequential_ao(ch, cfg)
        assert trace == want_trace, (k, n, nt, cfg)
        assert np.array_equal(power.p, want_p), (k, n, nt, cfg)
        assert np.array_equal(phases.phi, want_phi), (k, n, nt, cfg)


# --- metamorphic invariants of AO's result ------------------------------------------

# Worst relative change of the final rate seen over 300 random instances
# (K 1-4, N and NT 1-8, 25 iterations, 3 restarts): 8.7e-16 under the
# rotation, 1.6e-15 under the scaling, 1.1e-15 under the permutation. The
# bound leaves a margin of about 60.
AO_INVARIANCE_RTOL = 1e-13


def invariance_cases(seed):
    rng = np.random.default_rng(seed)
    for case in range(6):
        k, n, nt = (int(v) for v in rng.integers(1, [5, 9, 9]))
        ch = tm.sample_channels(1.0, rng.uniform(0.5, 2.0, k),
                                rng.uniform(0.5, 2.0, k), (n, nt), rng,
                                sigma2=rng.uniform(0.2, 2.0, k),
                                user_weight=rng.uniform(0.1, 2.0, k))
        yield rng, ch, bl.AOConfig(iterations=25, seed=case)


def final_rate(ch, cfg):
    return bl.ao_optimize(ch, cfg)[2][-1]


def test_ao_rate_invariant_under_per_user_phase_rotation():
    for rng, ch, cfg in invariance_cases(1300):
        rot = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, ch.K))[:, None]
        turned = dataclasses.replace(ch, h=ch.h * rot, g=ch.g * rot)
        assert final_rate(turned, cfg) == pytest.approx(
            final_rate(ch, cfg), rel=AO_INVARIANCE_RTOL)


def test_ao_rate_invariant_under_channel_and_noise_scaling():
    for rng, ch, cfg in invariance_cases(1400):
        c = float(rng.choice([1e-3, 0.1, 10.0, 1e3]))
        scaled = dataclasses.replace(ch, H=c * ch.H, g=c * ch.g,
                                     sigma2=c * c * ch.sigma2)
        assert final_rate(scaled, cfg) == pytest.approx(
            final_rate(ch, cfg), rel=AO_INVARIANCE_RTOL)


def test_ao_rate_invariant_under_user_permutation():
    for rng, ch, cfg in invariance_cases(1500):
        perm = rng.permutation(ch.K)
        shuffled = dataclasses.replace(ch, h=ch.h[perm], g=ch.g[perm],
                                       sigma2=ch.sigma2[perm],
                                       user_weight=ch.user_weight[perm])
        assert final_rate(shuffled, cfg) == pytest.approx(
            final_rate(ch, cfg), rel=AO_INVARIANCE_RTOL)


def test_ao_config_validation():
    with pytest.raises(ValueError):
        bl.AOConfig(iterations=0)
    with pytest.raises(ValueError):
        bl.AOConfig(step_p=0.0)
    with pytest.raises(ValueError):
        bl.AOConfig(shrink=1.0)
    with pytest.raises(ValueError):
        bl.AOConfig(restarts=0)


# --- grid oracle --------------------------------------------------------------------

def test_grid_oracle_matches_analytic_sweep():
    for seed in range(4):
        ch = make_channels(np.random.default_rng(600 + seed), k=1, n=1, nt=1)
        _, phases, _ = bl.grid_oracle(ch, 256)
        want = alignment_optimum(ch)
        assert circular_distance(phases.phi[0], want) <= 2 * np.pi / 256


def test_grid_oracle_refinement_never_decreases():
    ch = make_channels(np.random.default_rng(700), k=2, n=1, nt=2)
    values = [bl.grid_oracle(ch, r)[2] for r in (3, 6, 12)]
    assert values[0] <= values[1] <= values[2]


def test_grid_oracle_objective_is_consistent():
    ch = make_channels(np.random.default_rng(800), k=2, n=2, nt=2)
    power, phases, value = bl.grid_oracle(ch, 6)
    assert value == pytest.approx(tm.weighted_sum_rate(ch, power, phases),
                                  rel=1e-14)


def test_grid_oracle_rejects_huge_grids():
    ch = make_channels(np.random.default_rng(900), k=3, n=8, nt=2)
    with pytest.raises(ValueError, match="grid"):
        bl.grid_oracle(ch, 64)


def test_ao_reaches_grid_oracle_on_tiny_instances():
    # the acceptance run covers 20 seeds; spot-check a few here
    for seed in range(3):
        ch = make_channels(np.random.default_rng(1000 + seed), k=1, n=2, nt=2)
        _, _, trace = bl.ao_optimize(ch, bl.AOConfig(iterations=25, seed=seed))
        _, _, best = bl.grid_oracle(ch, 64)
        assert trace[-1] >= 0.98 * best
