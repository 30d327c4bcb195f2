"""2D top-view world model and obstacle-aware effective pathlosses.

The transmitter sits at the origin of a Cartesian plane. RIS panels and users
are points; obstacles are simple polygons. A link crossing obstacles is
penalized by a linear attenuation factor alpha = 1 + kappa * (meters of
penetration), and the effective pathloss of a link is alpha times its length.
RIS selection minimizes, over panels, the sum over users of the product of
the two cascade-segment pathlosses (transmitter->RIS times RIS->user).

All geometry here is exact-ish double precision with a fixed epsilon; the
penetration routine classifies sub-segments by their midpoints, so grazing
contact along an edge (measure zero) contributes nothing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import fileio

_EPS = 1e-9


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("Point2 coordinates must be finite")

    def dist(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def _cross(ox, oy, ax, ay, bx, by):
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _point_segment_dist(px, py, ax, ay, bx, by):
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / L2
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _segments_touch(a, b, c, d) -> bool:
    """True if closed segments ab and cd share at least one point."""
    d1 = _cross(c.x, c.y, d.x, d.y, a.x, a.y)
    d2 = _cross(c.x, c.y, d.x, d.y, b.x, b.y)
    d3 = _cross(a.x, a.y, b.x, b.y, c.x, c.y)
    d4 = _cross(a.x, a.y, b.x, b.y, d.x, d.y)
    if ((d1 > _EPS and d2 < -_EPS) or (d1 < -_EPS and d2 > _EPS)) and \
       ((d3 > _EPS and d4 < -_EPS) or (d3 < -_EPS and d4 > _EPS)):
        return True
    for p, (u, v) in ((a, (c, d)), (b, (c, d)), (c, (a, b)), (d, (a, b))):
        if _point_segment_dist(p.x, p.y, u.x, u.y, v.x, v.y) <= _EPS:
            return True
    return False


@dataclass(frozen=True)
class Polygon:
    """Simple polygon, vertices normalized to counter-clockwise order."""

    vertices: tuple

    def __post_init__(self):
        verts = tuple(v if isinstance(v, Point2) else Point2(*v) for v in self.vertices)
        if len(verts) < 3:
            raise ValueError("Polygon needs at least 3 vertices")
        area2 = 0.0
        n = len(verts)
        for i in range(n):
            a, b = verts[i], verts[(i + 1) % n]
            if a.dist(b) <= _EPS:
                raise ValueError("Polygon has a degenerate (zero-length) edge")
            area2 += a.x * b.y - b.x * a.y
        if abs(area2) <= _EPS:
            raise ValueError("Polygon area is zero (degenerate)")
        if area2 < 0.0:
            verts = verts[::-1]
        object.__setattr__(self, "vertices", verts)
        self._check_simple()

    def _check_simple(self):
        edges = self.edges()
        n = len(edges)
        for i in range(n):
            for j in range(i + 1, n):
                adjacent = (j == i + 1) or (i == 0 and j == n - 1)
                if adjacent:
                    continue
                if _segments_touch(*edges[i], *edges[j]):
                    raise ValueError("Polygon is self-intersecting")

    def edges(self):
        v = self.vertices
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def area(self) -> float:
        v = self.vertices
        s = 0.0
        for i in range(len(v)):
            a, b = v[i], v[(i + 1) % len(v)]
            s += a.x * b.y - b.x * a.y
        return 0.5 * s

    def on_boundary(self, p: Point2, tol: float = _EPS) -> bool:
        return any(
            _point_segment_dist(p.x, p.y, a.x, a.y, b.x, b.y) <= tol
            for a, b in self.edges()
        )

    def strictly_contains(self, p: Point2) -> bool:
        """Even-odd containment; boundary points are NOT contained."""
        if self.on_boundary(p):
            return False
        inside = False
        v = self.vertices
        n = len(v)
        j = n - 1
        for i in range(n):
            yi, yj = v[i].y, v[j].y
            if (yi > p.y) != (yj > p.y):
                x_cross = v[j].x + (p.y - yj) * (v[i].x - v[j].x) / (yi - yj)
                if x_cross > p.x:
                    inside = not inside
            j = i
        return inside


def _polygons_overlap(a: Polygon, b: Polygon) -> bool:
    for ea in a.edges():
        for eb in b.edges():
            if _segments_touch(*ea, *eb):
                return True
    return a.strictly_contains(b.vertices[0]) or b.strictly_contains(a.vertices[0])


@dataclass(frozen=True)
class Scene:
    """Immutable world description: transmitter at origin, RIS panels, users,
    polygonal obstacles and the per-meter attenuation coefficient kappa."""

    ris_positions: tuple = ()
    users: tuple = ()
    obstacles: tuple = ()
    kappa: float = 0.5

    def __post_init__(self):
        ris = tuple(p if isinstance(p, Point2) else Point2(*p) for p in self.ris_positions)
        users = tuple(p if isinstance(p, Point2) else Point2(*p) for p in self.users)
        obstacles = tuple(
            o if isinstance(o, Polygon) else Polygon(tuple(o)) for o in self.obstacles
        )
        if not (math.isfinite(self.kappa) and self.kappa >= 0.0):
            raise ValueError("kappa must be finite and >= 0")
        for name, pts in (("RIS", ris), ("user", users)):
            for p in pts:
                for ob in obstacles:
                    if ob.strictly_contains(p):
                        raise ValueError(f"{name} position {p} lies inside an obstacle")
        for i in range(len(obstacles)):
            for j in range(i + 1, len(obstacles)):
                if _polygons_overlap(obstacles[i], obstacles[j]):
                    raise ValueError("obstacles overlap")
        object.__setattr__(self, "ris_positions", ris)
        object.__setattr__(self, "users", users)
        object.__setattr__(self, "obstacles", obstacles)

    @property
    def transmitter(self) -> Point2:
        return Point2(0.0, 0.0)

    @property
    def num_ris(self) -> int:
        return len(self.ris_positions)

    @property
    def num_users(self) -> int:
        return len(self.users)


def _segment_edge_params(a: Point2, b: Point2, p: Point2, q: Point2):
    """Parameters t in [0,1] where segment a+t(b-a) meets segment pq.

    Non-parallel crossing yields one t; collinear overlap yields the two
    endpoints of the shared interval.
    """
    rx, ry = b.x - a.x, b.y - a.y
    sx, sy = q.x - p.x, q.y - p.y
    denom = rx * sy - ry * sx
    wx, wy = p.x - a.x, p.y - a.y
    scale = max(abs(rx), abs(ry), abs(sx), abs(sy), 1.0)
    if abs(denom) > _EPS * scale * scale:
        t = (wx * sy - wy * sx) / denom
        u = (wx * ry - wy * rx) / denom
        if -_EPS <= t <= 1.0 + _EPS and -_EPS <= u <= 1.0 + _EPS:
            return [min(1.0, max(0.0, t))]
        return []
    # parallel: collinear only if p sits on line ab
    if abs(wx * ry - wy * rx) > _EPS * scale:
        return []
    L2 = rx * rx + ry * ry
    if L2 == 0.0:
        return []
    tp = ((p.x - a.x) * rx + (p.y - a.y) * ry) / L2
    tq = ((q.x - a.x) * rx + (q.y - a.y) * ry) / L2
    lo, hi = max(0.0, min(tp, tq)), min(1.0, max(tp, tq))
    if lo > hi:
        return []
    return [lo, hi]


def penetration_length(a: Point2, b: Point2, poly: Polygon) -> float:
    """Total length of segment ab that lies strictly inside poly.

    Crossing parameters split ab into sub-intervals; each sub-interval is
    counted iff its midpoint is strictly inside. A segment grazing an edge
    therefore contributes 0.
    """
    if not isinstance(poly, Polygon):
        poly = Polygon(tuple(poly))
    length = a.dist(b)
    if length == 0.0:
        return 0.0
    ts = {0.0, 1.0}
    for p, q in poly.edges():
        ts.update(_segment_edge_params(a, b, p, q))
    ts = sorted(ts)
    dx, dy = b.x - a.x, b.y - a.y
    total = 0.0
    for t0, t1 in zip(ts, ts[1:]):
        if t1 - t0 <= _EPS:
            continue
        tm = 0.5 * (t0 + t1)
        mid = Point2(a.x + tm * dx, a.y + tm * dy)
        if poly.strictly_contains(mid):
            total += t1 - t0
    return total * length


def total_penetration(scene: Scene, a: Point2, b: Point2) -> float:
    """Penetration of segment ab summed over all obstacles (they are disjoint)."""
    return sum(penetration_length(a, b, ob) for ob in scene.obstacles)


def attenuation_factor(total_penetration_m: float, kappa: float) -> float:
    """Linear attenuation alpha = 1 + kappa * penetration; 1 means pure LoS."""
    if total_penetration_m < 0.0 or kappa < 0.0:
        raise ValueError("penetration and kappa must be non-negative")
    return 1.0 + kappa * total_penetration_m


def effective_pathloss_tr(scene: Scene, l: int) -> float:
    """Effective pathloss of the transmitter -> RIS l link: alpha_l * distance."""
    r = scene.ris_positions[l]
    pen = total_penetration(scene, scene.transmitter, r)
    return attenuation_factor(pen, scene.kappa) * math.hypot(r.x, r.y)


def effective_pathloss_ru(scene: Scene, l: int, k: int) -> float:
    """Effective pathloss of the RIS l -> user k link: beta_{l,k} * distance."""
    r = scene.ris_positions[l]
    u = scene.users[k]
    pen = total_penetration(scene, r, u)
    return attenuation_factor(pen, scene.kappa) * r.dist(u)


def effective_pathloss_tu(scene: Scene, k: int) -> float:
    """Effective pathloss of the direct transmitter -> user k link."""
    u = scene.users[k]
    pen = total_penetration(scene, scene.transmitter, u)
    return attenuation_factor(pen, scene.kappa) * math.hypot(u.x, u.y)


def cascade_pathloss(scene: Scene, l: int) -> float:
    """Selection metric for RIS l: sum over users of e_tr(l) * e_ru(l, k)."""
    e_tr = effective_pathloss_tr(scene, l)
    return sum(e_tr * effective_pathloss_ru(scene, l, k) for k in range(scene.num_users))


def select_ris(scene: Scene) -> int:
    """Index of the RIS minimizing the summed cascade pathloss; ties -> lowest index."""
    if scene.num_ris == 0:
        raise ValueError("scene has no RIS positions")
    metrics = [cascade_pathloss(scene, l) for l in range(scene.num_ris)]
    return min(range(len(metrics)), key=lambda l: metrics[l])


# --- JSON scene interchange -------------------------------------------------

def scene_to_dict(scene: Scene) -> dict:
    return {
        "ris": [[p.x, p.y] for p in scene.ris_positions],
        "users": [[p.x, p.y] for p in scene.users],
        "obstacles": [[[v.x, v.y] for v in ob.vertices] for ob in scene.obstacles],
        "kappa": scene.kappa,
    }


def scene_from_dict(doc: dict) -> Scene:
    try:
        return Scene(
            ris_positions=tuple(Point2(float(x), float(y)) for x, y in doc.get("ris", [])),
            users=tuple(Point2(float(x), float(y)) for x, y in doc.get("users", [])),
            obstacles=tuple(
                Polygon(tuple(Point2(float(x), float(y)) for x, y in verts))
                for verts in doc.get("obstacles", [])
            ),
            kappa=float(doc.get("kappa", 0.5)),
        )
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed scene document: {exc}") from exc


def save_scene(path, scene: Scene):
    fileio.write_files((path, json.dumps(scene_to_dict(scene), indent=2) + "\n"))


def load_scene(path) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        return scene_from_dict(json.load(fh))
