"""Alternating-optimization baseline and a brute-force grid oracle.

The baseline alternates projected gradient ascent on the power split
(Euclidean projection onto the budget simplex) with gradient ascent on the
phase shifts (wrapped to one period), both driven by the closed-form
gradients of the weighted sum rate and safeguarded by a backtracking line
search, so the objective trace never decreases. Step sizes are warm
started across outer iterations. The random restarts run as one stack:
each line-search round evaluates every restart still searching in one
batched forward pass, each restart accepting or shrinking its own step,
and each gradient reuses the forward pass its point was accepted with.
Row by row this is the arithmetic of running the restarts one after
another, so the results are bit for bit those of the sequential loop.
The grid oracle exhaustively scans a phase lattice crossed with a simplex
lattice for tiny instances and is used only to verify the baseline.
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

    v is one vector or a stack of them, projected along the last axis.
    Sorting-based: find the largest support for which the uniform shift
    keeps all kept coordinates positive, then clip.
    """
    v = np.asarray(v, dtype=np.float64)
    total = float(total)
    if v.ndim < 1 or v.shape[-1] < 1:
        raise ValueError("project_simplex expects nonempty vectors")
    if total <= 0.0:
        raise ValueError("total must be positive")
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1)
    j = np.arange(1, v.shape[-1] + 1)
    keep = u + (total - css) / j > 0.0
    # the last kept index; keep[..., 0] always holds
    rho = v.shape[-1] - 1 - np.argmax(keep[..., ::-1], axis=-1)[..., None]
    tau = (np.take_along_axis(css, rho, axis=-1) - total) / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def _forward(channels, p, phi):
    """The objective's forward pass on a stack of (p, phi) rows.

    A one-row stack runs at the unstacked shapes: for K = N = 1 numpy
    multiplies an all-size-one broadcast with a different complex loop,
    which would round unlike a lone restart.
    """
    if len(p) == 1:
        fw = tm._wsr_forward(channels, p[0], phi[0])
        return tm._Forward(*(a[None] for a in fw))
    return tm._wsr_forward(channels, p, phi)


def _objective(channels, fw):
    """Each row's weighted sum rate from a stacked forward pass."""
    return np.sum(channels.user_weight * fw.rates, axis=-1)


def _line_search(channels, point, step, config, propose):
    """Backtrack every restart until its proposal strictly improves.

    point is the stacked state (p, phi, forward, objective), updated in
    place row by row on acceptance; step holds per-restart step sizes and
    is warm started in place. propose(rows, steps) returns candidate
    (p, phi) for the given rows. Rows still searching are evaluated
    together, so a search costs the largest backtrack count among the
    restarts, not their sum.
    """
    p, phi, fw, f = point
    rows = np.arange(f.size)
    for _ in range(config.max_backtracks):
        cand_p, cand_phi = propose(rows, step[rows])
        cand = _forward(channels, cand_p, cand_phi)
        f_cand = _objective(channels, cand)
        better = f_cand > f[rows]
        done = rows[better]
        if done.size:
            p[done], phi[done], f[done] = (
                cand_p[better], cand_phi[better], f_cand[better])
            for kept, new in zip(fw, cand):
                kept[done] = new[better]
            step[done] *= config.grow
        rows = rows[~better]
        if not rows.size:
            return
        step[rows] *= config.shrink


def ao_optimize(channels: tm.ChannelSet, config: AOConfig):
    """Alternating ascent on powers and phases; best of several restarts.

    The restarts run as one stack: p is (R, K), phi (R, N), and each row
    keeps its own objective and step sizes. Every gradient reuses the
    forward pass of the point it is taken at, which the line search has
    already evaluated. Row by row the arithmetic is that of running the
    restarts one after another.

    Returns (PowerVector, PhaseVector, trace) where trace[t] is the
    objective after t outer iterations of the winning restart, the first
    with the strictly largest final objective. The generator is consumed
    only for the initial phases, so runs with more iterations extend
    shorter ones exactly.
    """
    rng = np.random.default_rng(config.seed)
    k, n, r = channels.K, channels.N, config.restarts
    phi = rng.uniform(0.0, _TWO_PI, (r, n))
    p = np.full((r, k), channels.p_max / k)
    # writable copies: the line search replaces rows of every field
    fw = tm._Forward(*(np.array(a) for a in _forward(channels, p, phi)))
    f = _objective(channels, fw)
    point = (p, phi, fw, f)
    trace = [f.copy()]
    step_p = np.full(r, config.step_p)
    step_phi = np.full(r, config.step_phi)
    for _ in range(config.iterations):
        if k > 1:
            gp, _ = tm._wsr_backward(channels, fw, p)
            _line_search(channels, point, step_p, config, lambda rows, s: (
                project_simplex(p[rows] + s[:, None] * gp[rows], channels.p_max),
                phi[rows]))
        _, gphi = tm._wsr_backward(channels, fw, p)
        _line_search(channels, point, step_phi, config, lambda rows, s: (
            p[rows], phi[rows] + s[:, None] * gphi[rows]))
        trace.append(f.copy())
    best = int(np.argmax(f))
    return (tm.PowerVector(p[best].copy(), p_max=channels.p_max),
            tm.PhaseVector.wrapped(phi[best]),
            [float(t[best]) for t in trace])


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
