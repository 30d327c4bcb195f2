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
from dataclasses import dataclass

from . import fileio

_EPS = 1e-9

# Bounding-box early-outs. A polygon's box, and each edge's, is padded by
# _PAD times the largest coordinate magnitude involved (at least 1).
# Rounding moves a computed distance, projection or segment midpoint by a
# few ulps of that magnitude, about 1e-15 of it, so a point outside a
# padded box is more than 1e-6 > _EPS from the box's edges in
# floating point too: on_boundary is False there, the even-odd count in
# strictly_contains is even, and a segment whose box misses a polygon's
# padded box has only outside midpoints, so its penetration is 0.0. Two
# polygons whose padded boxes are disjoint have no endpoint within _EPS of
# the other's edges either, but _segments_touch also trusts the signs of
# cross products beyond _EPS. Their rounding error is below 32 * 2**-53 *
# S**2 for coordinates of magnitude S at most, which stays under _EPS while
# S <= _EXACT_SCALE; so edge pairs are only skipped there. Threshold tests
# on gaps skip the edge scan only when the box distance clears the
# threshold by the same margin. An early-out thus fires only where the full
# scan returns the same value.
_PAD = 1e-6
_EXACT_SCALE = 256.0


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


def _padded_boxes(rows, pad):
    """Each edge's box (x0, y0, x1, y1), padded by pad."""
    return [(min(ax, bx) - pad, min(ay, by) - pad, max(ax, bx) + pad,
             max(ay, by) + pad) for ax, ay, bx, by in rows]


def _boxes_apart(e, f) -> bool:
    """True if boxes (x0, y0, x1, y1) e and f are disjoint."""
    return e[2] < f[0] or f[2] < e[0] or e[3] < f[1] or f[3] < e[1]


def _box_gap(e, f) -> float:
    """Largest axis separation between boxes (x0, y0, x1, y1) e and f;
    when positive, a lower bound on every distance between them."""
    return max(e[0] - f[2], f[0] - e[2], e[1] - f[3], f[1] - e[3])


def _segments_touch(e, f) -> bool:
    """True if closed segments e and f, each (x0, y0, x1, y1), share at
    least one point."""
    ax, ay, bx, by = e
    cx, cy, dx, dy = f
    d1 = _cross(cx, cy, dx, dy, ax, ay)
    d2 = _cross(cx, cy, dx, dy, bx, by)
    d3 = _cross(ax, ay, bx, by, cx, cy)
    d4 = _cross(ax, ay, bx, by, dx, dy)
    if ((d1 > _EPS and d2 < -_EPS) or (d1 < -_EPS and d2 > _EPS)) and \
       ((d3 > _EPS and d4 < -_EPS) or (d3 < -_EPS and d4 > _EPS)):
        return True
    return (_point_segment_dist(ax, ay, cx, cy, dx, dy) <= _EPS
            or _point_segment_dist(bx, by, cx, cy, dx, dy) <= _EPS
            or _point_segment_dist(cx, cy, ax, ay, bx, by) <= _EPS
            or _point_segment_dist(dx, dy, ax, ay, bx, by) <= _EPS)


@dataclass(frozen=True)
class Polygon:
    """Simple polygon, vertices normalized to counter-clockwise order.

    Construction also caches each edge's end points as plain floats
    (ax, ay, bx, by), the polygon's box (x0, y0, x1, y1) padded by _pad,
    and whether its coordinates are small enough for _EXACT_SCALE.
    """

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
        xs = [v.x for v in verts]
        ys = [v.y for v in verts]
        scale = max(1.0, max(map(abs, xs)), max(map(abs, ys)))
        pad = _PAD * scale
        object.__setattr__(self, "_rows", tuple(
            zip(xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1])))
        object.__setattr__(self, "_box", (min(xs) - pad, min(ys) - pad,
                                          max(xs) + pad, max(ys) + pad))
        object.__setattr__(self, "_pad", pad)
        object.__setattr__(self, "_exact", scale <= _EXACT_SCALE)
        self._check_simple()

    def _check_simple(self):
        rows = self._rows
        boxes = _padded_boxes(rows, self._pad)
        n = len(rows)
        for i in range(n):
            for j in range(i + 2, n):
                if i == 0 and j == n - 1:
                    continue  # adjacent through the closing edge
                if self._exact and _boxes_apart(boxes[i], boxes[j]):
                    continue
                if _segments_touch(rows[i], rows[j]):
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

    def on_boundary(self, p: Point2) -> bool:
        """True if p lies within _EPS of an edge."""
        return self._on_boundary(p.x, p.y)

    def _on_boundary(self, px, py) -> bool:
        # an edge whose padded box misses the point is skipped
        pad = self._pad
        x0, y0, x1, y1 = px - pad, py - pad, px + pad, py + pad
        for ax, ay, bx, by in self._rows:
            if ((ax < x0 and bx < x0) or (ax > x1 and bx > x1)
                    or (ay < y0 and by < y0) or (ay > y1 and by > y1)):
                continue
            if _point_segment_dist(px, py, ax, ay, bx, by) <= _EPS:
                return True
        return False

    def strictly_contains(self, p: Point2) -> bool:
        """Even-odd containment; boundary points are NOT contained."""
        return self._contains(p.x, p.y)

    def _contains(self, px, py) -> bool:
        x0, y0, x1, y1 = self._box
        if px < x0 or px > x1 or py < y0 or py > y1:
            return False
        if self._on_boundary(px, py):
            return False
        inside = False
        for ax, ay, bx, by in self._rows:
            if (by > py) != (ay > py):
                x_cross = ax + (py - ay) * (bx - ax) / (by - ay)
                if x_cross > px:
                    inside = not inside
        return inside


def _polygons_overlap(a: Polygon, b: Polygon) -> bool:
    exact = a._exact and b._exact
    if exact and _boxes_apart(a._box, b._box):
        return False
    boxes_b = _padded_boxes(b._rows, b._pad)
    for ea, box_a in zip(a._rows, _padded_boxes(a._rows, a._pad)):
        for eb, box_b in zip(b._rows, boxes_b):
            if exact and _boxes_apart(box_a, box_b):
                continue
            if _segments_touch(ea, eb):
                return True
    return a.strictly_contains(b.vertices[0]) or b.strictly_contains(a.vertices[0])


def _point_polygon_gap(point: Point2, poly: Polygon) -> float:
    if poly.strictly_contains(point):
        return 0.0
    px, py = point.x, point.y
    return min(_point_segment_dist(px, py, ax, ay, bx, by)
               for ax, ay, bx, by in poly._rows)


def _polygon_gap(a: Polygon, b: Polygon) -> float:
    """Separation between two polygons: zero when they overlap, else the
    min vertex-to-edge distance both ways (exact for convex shapes)."""
    if _polygons_overlap(a, b):
        return 0.0
    return min(min(_point_polygon_gap(v, b) for v in a.vertices),
               min(_point_polygon_gap(v, a) for v in b.vertices))


def point_gap_below(point: Point2, poly: Polygon, threshold: float) -> bool:
    """_point_polygon_gap(point, poly) < threshold, without the edge scan
    when the box alone clears the threshold by the padding."""
    x, y = point.x, point.y
    if _box_gap(poly._box, (x, y, x, y)) > threshold + _PAD * threshold:
        return False
    return _point_polygon_gap(point, poly) < threshold


def polygon_gap_below(a: Polygon, b: Polygon, threshold: float) -> bool:
    """_polygon_gap(a, b) < threshold, without the edge scans when the
    boxes alone clear the threshold by the padding."""
    if a._exact and b._exact and _box_gap(a._box, b._box) > (
            threshold + _PAD * threshold):
        return False
    return _polygon_gap(a, b) < threshold


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


def _segment_edge_params(ax, ay, bx, by, px, py, qx, qy):
    """Parameters t in [0,1] where segment a+t(b-a) meets segment pq.

    Non-parallel crossing yields one t; collinear overlap yields the two
    endpoints of the shared interval.
    """
    rx, ry = bx - ax, by - ay
    sx, sy = qx - px, qy - py
    denom = rx * sy - ry * sx
    wx, wy = px - ax, py - ay
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
    tp = (wx * rx + wy * ry) / L2
    tq = ((qx - ax) * rx + (qy - ay) * ry) / L2
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
    ax, ay, bx, by = a.x, a.y, b.x, b.y
    x0, y0, x1, y1 = poly._box
    pad = _PAD * max(1.0, abs(ax), abs(ay), abs(bx), abs(by))
    if (max(ax, bx) < x0 - pad or min(ax, bx) > x1 + pad
            or max(ay, by) < y0 - pad or min(ay, by) > y1 + pad):
        return 0.0
    ts = {0.0, 1.0}
    for px, py, qx, qy in poly._rows:
        ts.update(_segment_edge_params(ax, ay, bx, by, px, py, qx, qy))
    ts = sorted(ts)
    dx, dy = bx - ax, by - ay
    total = 0.0
    for t0, t1 in zip(ts, ts[1:]):
        if t1 - t0 <= _EPS:
            continue
        tm = 0.5 * (t0 + t1)
        mx, my = ax + tm * dx, ay + tm * dy
        if not (math.isfinite(mx) and math.isfinite(my)):
            raise ValueError("Point2 coordinates must be finite")
        if poly._contains(mx, my):
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


def _link_pathloss(scene: Scene, a: Point2, b: Point2) -> float:
    return attenuation_factor(total_penetration(scene, a, b), scene.kappa) * a.dist(b)


def effective_pathloss_tr(scene: Scene, l: int) -> float:
    """Effective pathloss of the transmitter -> RIS l link: alpha_l * distance."""
    return _link_pathloss(scene, scene.transmitter, scene.ris_positions[l])


def effective_pathloss_ru(scene: Scene, l: int, k: int) -> float:
    """Effective pathloss of the RIS l -> user k link: beta_{l,k} * distance."""
    return _link_pathloss(scene, scene.ris_positions[l], scene.users[k])


def effective_pathloss_tu(scene: Scene, k: int) -> float:
    """Effective pathloss of the direct transmitter -> user k link."""
    return _link_pathloss(scene, scene.transmitter, scene.users[k])


@dataclass(frozen=True)
class LinkTable:
    """Effective pathloss of every link in a scene: tr[l] from the
    transmitter to surface l, ru[l][k] from surface l to user k, and tu[k]
    from the transmitter to user k."""

    tr: tuple
    ru: tuple
    tu: tuple

    @property
    def cascade(self) -> list:
        """Selection metric per surface: sum over users of tr[l] * ru[l][k]."""
        return [sum(e_tr * e_ru for e_ru in row) for e_tr, row in zip(self.tr, self.ru)]

    @property
    def selected(self) -> int:
        """Surface minimizing the cascade metric; ties -> lowest index."""
        if not self.tr:
            raise ValueError("scene has no RIS positions")
        metrics = self.cascade
        return min(range(len(metrics)), key=lambda l: metrics[l])


def link_table(scene: Scene) -> LinkTable:
    """All L x (1 + K) + K link pathlosses of a scene with L surfaces and
    K users, each computed once."""
    t = scene.transmitter
    return LinkTable(
        tr=tuple(_link_pathloss(scene, t, r) for r in scene.ris_positions),
        ru=tuple(tuple(_link_pathloss(scene, r, u) for u in scene.users)
                 for r in scene.ris_positions),
        tu=tuple(_link_pathloss(scene, t, u) for u in scene.users))


def select_ris(scene: Scene) -> int:
    """Index of the RIS minimizing the summed cascade pathloss; ties -> lowest index."""
    return link_table(scene).selected


# --- JSON scene interchange -------------------------------------------------

def scene_to_dict(scene: Scene) -> dict:
    return {
        "ris": [[p.x, p.y] for p in scene.ris_positions],
        "users": [[p.x, p.y] for p in scene.users],
        "obstacles": [[[v.x, v.y] for v in ob.vertices] for ob in scene.obstacles],
        "kappa": scene.kappa,
    }


def scene_from_dict(doc: dict) -> Scene:
    if not isinstance(doc, dict):
        raise ValueError("malformed scene document: expected a JSON object, "
                         f"got {type(doc).__name__}")
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
