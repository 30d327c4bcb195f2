"""Random scene generation for rendering and recovery experiments.

The sampler keeps scenes friendly to the classical detection stack on
purpose: obstacles are convex polygons whose bounding-box fill stays above
the default detection threshold with rasterization margin to spare, and
every pair of rendered objects keeps a clearance of at least a meter so
blobs never merge and crops never pick up a neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (Point2, Polygon, Scene, point_gap_below,
                       polygon_gap_below)
from .vision import USER_RADIUS_M

_MAX_TRIES = 2000


@dataclass(frozen=True)
class SceneGenConfig:
    n_ris: int = 4
    n_users: int = 4
    max_obstacles: int = 5
    region: float = 18.0          # users and obstacles inside [-region, region]^2
    ris_radius: float = 15.0      # surfaces on a ring around the transmitter
    obstacle_size: tuple = (1.5, 4.0)  # circumradius range in meters
    min_fill: float = 0.55        # polygon area over bbox area
    clearance: float = 1.0        # min gap between rendered objects, meters
    standoff: float = 2.0         # min user distance to transmitter/surfaces
    kappa: float = 0.5

    def __post_init__(self):
        if self.n_ris < 1 or self.n_users < 1:
            raise ValueError("need at least one surface and one user")
        if self.max_obstacles < 0:
            raise ValueError("max_obstacles must be nonnegative")
        if self.region <= 0.0 or self.ris_radius <= 0.0:
            raise ValueError("region and ris_radius must be positive")
        lo, hi = self.obstacle_size
        if not 0.0 < lo <= hi:
            raise ValueError("obstacle_size must be an increasing positive pair")
        if self.max_obstacles > 0 and hi >= self.region:
            raise ValueError("obstacle_size must stay below region")
        if not 0.0 < self.min_fill < 1.0:
            raise ValueError("min_fill must lie in (0, 1)")
        if self.clearance < 0.0 or self.kappa < 0.0:
            raise ValueError("clearance and kappa must be nonnegative")
        if self.standoff < 0.0 or self.standoff >= self.region:
            raise ValueError("standoff must be nonnegative and below region")


def _regular_polygon(center, circumradius, n_sides, rotation, squash, rng):
    """Affine image of a regular n-gon: squash one axis, then rotate."""
    angles = rotation + 2.0 * np.pi * np.arange(n_sides) / n_sides
    px = circumradius * np.cos(angles) * squash
    py = circumradius * np.sin(angles)
    spin = rng.uniform(0.0, 2.0 * np.pi)
    cs, sn = np.cos(spin), np.sin(spin)
    xs = center[0] + cs * px - sn * py
    ys = center[1] + sn * px + cs * py
    return Polygon([Point2(float(x), float(y)) for x, y in zip(xs, ys)])


def _bbox_fill(poly: Polygon) -> float:
    xs = [v.x for v in poly.vertices]
    ys = [v.y for v in poly.vertices]
    area_box = (max(xs) - min(xs)) * (max(ys) - min(ys))
    return poly.area() / area_box if area_box > 0.0 else 0.0


def random_scene(config: SceneGenConfig, rng: np.random.Generator) -> Scene:
    """Draw one scene: surfaces on a jittered ring, convex obstacles with
    detection-safe bounding-box fill, users clear of every obstacle."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=config.n_ris))
    radii = config.ris_radius * rng.uniform(0.8, 1.0, size=config.n_ris)
    ris = [Point2(float(r * np.cos(a)), float(r * np.sin(a)))
           for r, a in zip(radii, angles)]

    n_obstacles = int(rng.integers(1, config.max_obstacles + 1))
    obstacles = []
    lo, hi = config.obstacle_size
    for _ in range(n_obstacles):
        for _attempt in range(_MAX_TRIES):
            radius = rng.uniform(lo, hi)
            bound = config.region - radius
            center = rng.uniform(-bound, bound, size=2)
            if np.hypot(*center) < radius + config.clearance:
                continue  # keep the transmitter at the origin unobstructed
            n_sides = int(rng.integers(4, 7))  # triangles underfill their bbox
            poly = _regular_polygon(center, radius, n_sides,
                                    rng.uniform(0.0, 2.0 * np.pi),
                                    rng.uniform(0.7, 1.0), rng)
            if _bbox_fill(poly) < config.min_fill:
                continue
            if any(polygon_gap_below(poly, other, config.clearance)
                   for other in obstacles):
                continue
            if any(point_gap_below(p, poly, 0.5) for p in ris):
                continue  # surfaces must stay outside every obstacle
            obstacles.append(poly)
            break
        else:
            raise ValueError("could not place an obstacle; relax the config")

    users = []
    margin = config.region - USER_RADIUS_M - 0.1
    for _ in range(config.n_users):
        for _attempt in range(_MAX_TRIES):
            pos = Point2(*(float(v) for v in rng.uniform(-margin, margin, size=2)))
            if np.hypot(pos.x, pos.y) < config.standoff:
                continue  # far-field model: keep users off the transmitter
            if any(np.hypot(pos.x - p.x, pos.y - p.y) < config.standoff
                   for p in ris):
                continue
            if any(point_gap_below(pos, poly, USER_RADIUS_M + config.clearance)
                   for poly in obstacles):
                continue
            if any(np.hypot(pos.x - u.x, pos.y - u.y) <
                   2.0 * USER_RADIUS_M + config.clearance for u in users):
                continue
            users.append(pos)
            break
        else:
            raise ValueError("could not place a user; relax the config")

    return Scene(ris_positions=ris, users=users, obstacles=obstacles,
                 kappa=config.kappa)
