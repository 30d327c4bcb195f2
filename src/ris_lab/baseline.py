"""Alternating-optimization baseline and a brute-force grid oracle.

The baseline alternates projected gradient ascent on the power split
(Euclidean projection onto the budget simplex) with gradient ascent on the
phase shifts (wrapped to one period), both driven by the closed-form
gradients of the weighted sum rate and safeguarded by a backtracking line
search, so the objective trace never decreases. Step sizes are warm
started across outer iterations. The grid oracle exhaustively scans a
phase lattice crossed with a simplex lattice for tiny instances and is
used only to verify the baseline.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import transmit as tm

_TWO_PI = 2.0 * np.pi
_MAX_GRID_POINTS = 10 ** 7


@dataclass(frozen=True)
class AOConfig:
    """Outer iteration count, initial step sizes, line search controls."""

    iterations: int = 25
    step_p: float = 0.1
    step_phi: float = 0.5
    shrink: float = 0.5
    grow: float = 2.0
    max_backtracks: int = 30
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.step_p <= 0.0 or self.step_phi <= 0.0:
            raise ValueError("step sizes must be positive")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must lie in (0, 1)")
        if self.grow < 1.0:
            raise ValueError("grow must be at least 1")
        if self.max_backtracks < 1 or self.restarts < 1:
            raise ValueError("max_backtracks and restarts must be at least 1")


def project_simplex(v, total) -> np.ndarray:
    """Euclidean projection of v onto {x >= 0, sum(x) = total}.

    Sorting-based: find the largest support for which the uniform shift
    keeps all kept coordinates positive, then clip.
    """
    v = np.asarray(v, dtype=np.float64)
    total = float(total)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("project_simplex expects a nonempty vector")
    if total <= 0.0:
        raise ValueError("total must be positive")
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, v.size + 1)
    keep = u + (total - css) / j > 0.0
    rho = int(np.nonzero(keep)[0][-1])
    tau = (css[rho] - total) / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def wrap_phase(phi) -> np.ndarray:
    """Reduce angles into [0, 2*pi), sending the boundary to zero."""
    w = np.mod(np.asarray(phi, dtype=np.float64), _TWO_PI)
    w[w >= _TWO_PI] = 0.0
    return w


def _line_search(channels, f_curr, step, config, propose):
    """Backtrack until the proposed point strictly improves the objective.

    propose(step) returns (candidate p, candidate phi). Returns the new
    point (or None), its objective, and the warm-started step size.
    """
    for _ in range(config.max_backtracks):
        cand_p, cand_phi = propose(step)
        f_cand = tm.weighted_sum_rate(channels, cand_p, cand_phi)
        if f_cand > f_curr:
            return (cand_p, cand_phi), f_cand, step * config.grow
        step *= config.shrink
    return None, f_curr, step


def ao_optimize(channels: tm.ChannelSet, config: AOConfig):
    """Alternating ascent on powers and phases; best of several restarts.

    Returns (PowerVector, PhaseVector, trace) where trace[t] is the
    objective after t outer iterations of the winning restart. The
    generator is consumed only for the initial phases, so runs with more
    iterations extend shorter ones exactly.
    """
    rng = np.random.default_rng(config.seed)
    k, n = channels.K, channels.N
    initial_phases = rng.uniform(0.0, _TWO_PI, (config.restarts, n))
    best = None
    for r in range(config.restarts):
        p = np.full(k, channels.p_max / k)
        phi = initial_phases[r].copy()
        f_curr = tm.weighted_sum_rate(channels, p, phi)
        trace = [f_curr]
        step_p, step_phi = config.step_p, config.step_phi
        for _ in range(config.iterations):
            if k > 1:
                gp, _ = tm.weighted_sum_rate_grads(channels, p, phi)
                moved, f_new, step_p = _line_search(
                    channels, f_curr, step_p, config,
                    lambda s: (project_simplex(p + s * gp, channels.p_max), phi))
                if moved is not None:
                    p, f_curr = moved[0], f_new
            _, gphi = tm.weighted_sum_rate_grads(channels, p, phi)
            moved, f_new, step_phi = _line_search(
                channels, f_curr, step_phi, config,
                lambda s: (p, phi + s * gphi))
            if moved is not None:
                phi, f_curr = moved[1], f_new
            trace.append(f_curr)
        if best is None or f_curr > best[0]:
            best = (f_curr, p, phi, trace)
    _, p, phi, trace = best
    return (tm.PowerVector(p, p_max=channels.p_max),
            tm.PhaseVector.wrapped(phi), trace)


# --- exhaustive verification oracle -------------------------------------------------

def _compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def grid_oracle(channels: tm.ChannelSet, grid_resolution: int):
    """Exhaustive search over phase and power lattices for tiny instances.

    Phases range over the R-th roots of one period per element; powers
    over the simplex lattice with R steps. Returns (PowerVector,
    PhaseVector, objective) at the best lattice point, scanning in a fixed
    order so ties resolve deterministically.
    """
    res = int(grid_resolution)
    if res < 1:
        raise ValueError("grid_resolution must be at least 1")
    k, n = channels.K, channels.N
    n_phase = res ** n
    n_power = math.comb(res + k - 1, k - 1)
    if n_phase * n_power > _MAX_GRID_POINTS:
        raise ValueError(
            f"grid of {n_phase * n_power} points exceeds {_MAX_GRID_POINTS}")
    phase_values = _TWO_PI * np.arange(res) / res
    best = None
    for comp in _compositions(res, k):
        p = channels.p_max * np.asarray(comp, dtype=np.float64) / res
        for combo in itertools.product(range(res), repeat=n):
            phi = phase_values[np.asarray(combo)]
            f = tm.weighted_sum_rate(channels, p, phi)
            if best is None or f > best[0]:
                best = (f, p.copy(), phi.copy())
    f, p, phi = best
    return tm.PowerVector(p, p_max=channels.p_max), tm.PhaseVector(phi), f
