"""Output checks that do not trust the code they check.

The rate oracle recomputes the weighted sum rate of a (p, phi) pair with
``numpy.linalg.solve`` in place of the library's Cholesky solver and
without calling any ``ris_lab`` function. Each check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * np.pi
BUDGET_TOL = 1e-9     # sum(p) must meet p_max this closely
RATE_RTOL = 1e-9      # oracle and reported rate agree this closely
VERTEX_TOL_PX = 2.0   # recovered vertex distance to the true vertex
RATIO_SIGMAS = 5.0    # link-budget check: allowed standard errors


def oracle_user_rates(H, h, g, sigma2, p, phi):
    """Per-user rates under MMSE directions, from the raw arrays.

    Effective rows f_k = conj(g_k) + conj(h_k) e^{j phi} H; directions are
    the normalized conjugate columns of (F F^H + diag(sigma2))^{-1} F.
    """
    F = np.conj(g) + (np.conj(h) * np.exp(1j * phi)[None, :]) @ H
    A = F @ np.conj(F).T + np.diag(sigma2)
    T = np.linalg.solve(A, F)
    W = np.conj(T) / np.linalg.norm(T, axis=1)[:, None]
    gains = np.abs(F @ W.T) ** 2 * p[None, :]
    own = np.diag(gains)
    interference = gains.sum(axis=1) - own
    return np.log2(1.0 + own / (interference + sigma2))


def oracle_wsr(channels, p, phi) -> float:
    return float(channels.user_weight @ oracle_user_rates(
        channels.H, channels.h, channels.g, channels.sigma2,
        np.asarray(p, dtype=np.float64), np.asarray(phi, dtype=np.float64)))


def check_solution(channels, p, phi, reported_rate, label):
    """Feasibility of (p, phi) and agreement of the reported rate with the
    oracle."""
    p = np.asarray(p, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    problems = []
    if p.shape != (channels.K,) or phi.shape != (channels.N,):
        return [f"{label}: shapes {p.shape}, {phi.shape}"]
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(phi))):
        return [f"{label}: non-finite output"]
    if np.any(p < 0.0):
        problems.append(f"{label}: negative power {p.min():.3g}")
    if abs(p.sum() - channels.p_max) > BUDGET_TOL:
        problems.append(f"{label}: powers sum to {p.sum():.12g}, "
                        f"budget {channels.p_max:.12g}")
    if np.any(phi < 0.0) or np.any(phi >= TWO_PI):
        problems.append(f"{label}: phase outside [0, 2pi)")
    want = oracle_wsr(channels, p, phi)
    if not math.isclose(reported_rate, want, rel_tol=RATE_RTOL, abs_tol=0.0):
        problems.append(f"{label}: reported rate {reported_rate!r}, "
                        f"oracle {want!r}")
    return problems


def check_trace(trace, iterations, label):
    """AO objective trace: one entry per iteration plus the start, never
    decreasing."""
    trace = np.asarray(trace, dtype=np.float64)
    problems = []
    if trace.shape != (iterations + 1,):
        problems.append(f"{label}: trace length {trace.size}, "
                        f"want {iterations + 1}")
    if np.any(np.diff(trace) < 0.0):
        problems.append(f"{label}: trace decreases")
    return problems


def link_ratio(batch, noise_power):
    """Empirical mean channel power over noise, and its standard error.

    Every entry |x|^2 is exponential with its link's mean m, so the mean's
    variance is sum(m^2) / n^2, estimated by sum(|x|^4) / 2 / n^2.
    """
    parts = [np.abs(a.reshape(-1)) ** 2 for a in (batch.H, batch.h, batch.g)]
    power = np.concatenate(parts)
    mean = power.mean()
    stderr = math.sqrt(float(np.sum(power ** 2)) / 2.0) / power.size
    return float(mean) / noise_power, stderr / noise_power


def check_link_budget(batch, noise_power, target_db):
    ratio, stderr = link_ratio(batch, noise_power)
    target = 10.0 ** (target_db / 10.0)
    z = (ratio - target) / stderr
    if abs(z) > RATIO_SIGMAS:
        return [f"link ratio {10 * math.log10(ratio):.3f} dB is {z:+.1f} "
                f"standard errors from the {target_db} dB budget"]
    return []


def same_batch(a, b):
    """Bitwise equality of two channel batches."""
    names = ("H", "h", "g", "sigma2", "user_weight")
    bad = [n for n in names if not np.array_equal(getattr(a, n), getattr(b, n))]
    if a.p_max != b.p_max:
        bad.append("p_max")
    return [f"dataset field {n} differs from the in-memory draw" for n in bad]


def check_scene_recovery(truth, recovered, meters_per_pixel):
    """Counts of users, obstacles and vertices; the largest distance from a
    true vertex to the nearest recovered vertex of the matched obstacle,
    in pixels. Obstacles are matched by nearest vertex centroid."""
    problems = []
    if len(recovered.users) != len(truth.users):
        problems.append(f"{len(recovered.users)} users recovered, "
                        f"{len(truth.users)} true")
    if len(recovered.obstacles) != len(truth.obstacles):
        problems.append(f"{len(recovered.obstacles)} obstacles recovered, "
                        f"{len(truth.obstacles)} true")
        return problems, math.inf

    def centroid(poly):
        return np.mean([[v.x, v.y] for v in poly.vertices], axis=0)

    found = [centroid(poly) for poly in recovered.obstacles]
    worst = 0.0
    for poly in truth.obstacles:
        c = centroid(poly)
        match = recovered.obstacles[int(np.argmin(
            [np.sum((f - c) ** 2) for f in found]))]
        if len(match.vertices) != len(poly.vertices):
            problems.append(f"obstacle with {len(poly.vertices)} vertices "
                            f"recovered with {len(match.vertices)}")
            continue
        got = np.array([[v.x, v.y] for v in match.vertices])
        for v in poly.vertices:
            err = np.min(np.hypot(got[:, 0] - v.x, got[:, 1] - v.y))
            worst = max(worst, float(err) / meters_per_pixel)
    return problems, worst
