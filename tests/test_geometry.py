"""Geometry and effective-pathloss tests.

The penetration oracle used here is an independent reimplementation: it
densely samples points along the segment and classifies them with a
vectorized even-odd test, instead of the library's crossing-parameter
interval logic.

The scalar oracles further down are the library's geometry as it was
before bounding-box early-outs and cached edge rows: every edge scanned,
every time. The library must agree with them bit for bit.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from ris_lab import scenes, vision
from ris_lab.scenes import SceneGenConfig
from ris_lab.geometry import (
    Point2,
    Polygon,
    Scene,
    _polygon_gap,
    _polygons_overlap,
    attenuation_factor,
    effective_pathloss_ru,
    effective_pathloss_tr,
    effective_pathloss_tu,
    link_table,
    penetration_length,
    point_gap_below,
    polygon_gap_below,
    scene_from_dict,
    scene_to_dict,
    select_ris,
    total_penetration,
)

TWO_PI = 2.0 * math.pi


def _inside_mask(px, py, verts):
    """Vectorized even-odd point-in-polygon (boundary handling irrelevant at
    random sample points); independent of the library implementation."""
    inside = np.zeros(px.shape, dtype=bool)
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        cond = (y1 > py) != (y2 > py)
        if y1 == y2:
            continue
        xc = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
        inside ^= cond & (xc > px)
    return inside


def oracle_penetration(a, b, poly, samples=100_000):
    """Dense-sampling penetration oracle: inside fraction times |ab|."""
    ts = (np.arange(samples) + 0.5) / samples
    px = a.x + ts * (b.x - a.x)
    py = a.y + ts * (b.y - a.y)
    verts = [(v.x, v.y) for v in poly.vertices]
    frac = _inside_mask(px, py, verts).mean()
    return frac * math.hypot(b.x - a.x, b.y - a.y)


def _square(x0, y0, x1, y1):
    return Polygon((Point2(x0, y0), Point2(x1, y0), Point2(x1, y1), Point2(x0, y1)))


def _random_convex(rng, center, radius, sides):
    angles = TWO_PI * (np.arange(sides) + 0.5) / sides
    rot = rng.uniform(0.0, TWO_PI)
    sy = rng.uniform(0.7, 1.0)
    pts = []
    for ang in angles:
        x, y = radius * math.cos(ang), radius * sy * math.sin(ang)
        xr = x * math.cos(rot) - y * math.sin(rot)
        yr = x * math.sin(rot) + y * math.cos(rot)
        pts.append(Point2(center[0] + xr, center[1] + yr))
    return Polygon(tuple(pts))


# --- penetration_length -----------------------------------------------------

def test_penetration_chord_through_square():
    poly = _square(4, -1, 6, 1)
    assert penetration_length(Point2(0, 0), Point2(10, 0), poly) == pytest.approx(2.0, abs=1e-12)


def test_penetration_no_crossing():
    poly = _square(4, 2, 6, 4)
    assert penetration_length(Point2(0, 0), Point2(10, 0), poly) == 0.0


def test_penetration_endpoint_inside_matches_oracle():
    # frozen from the dense-sampling oracle: exit at x=6 gives exactly 1.0
    poly = _square(4, -1, 6, 1)
    a, b = Point2(5, 0), Point2(10, 0)
    got = penetration_length(a, b, poly)
    assert got == pytest.approx(1.0, abs=1e-9)
    assert got == pytest.approx(oracle_penetration(a, b, poly), abs=1e-3)


def test_penetration_grazing_edge_contributes_zero():
    poly = _square(4, 0, 6, 2)  # segment runs along the bottom edge y=0
    assert penetration_length(Point2(0, 0), Point2(10, 0), poly) == 0.0


def test_penetration_through_vertex_contributes_zero():
    # diamond touched exactly at its left vertex
    poly = Polygon((Point2(5, 0), Point2(6, 1), Point2(7, 0), Point2(6, -1)))
    assert penetration_length(Point2(0, 0), Point2(5, -5), poly) == pytest.approx(0.0, abs=1e-9)


def test_penetration_symmetric_and_bounded():
    rng = np.random.default_rng(7)
    for _ in range(50):
        poly = _random_convex(rng, rng.uniform(-5, 5, 2), rng.uniform(0.5, 3.0), int(rng.integers(3, 8)))
        a = Point2(*rng.uniform(-10, 10, 2))
        b = Point2(*rng.uniform(-10, 10, 2))
        fwd = penetration_length(a, b, poly)
        bwd = penetration_length(b, a, poly)
        assert fwd == pytest.approx(bwd, abs=1e-9)
        assert -1e-12 <= fwd <= a.dist(b) + 1e-9


def test_penetration_matches_sampling_oracle_random():
    rng = np.random.default_rng(123)
    for _ in range(25):
        poly = _random_convex(rng, rng.uniform(-4, 4, 2), rng.uniform(0.5, 3.0), int(rng.integers(3, 8)))
        a = Point2(*rng.uniform(-8, 8, 2))
        b = Point2(*rng.uniform(-8, 8, 2))
        expect = oracle_penetration(a, b, poly)
        got = penetration_length(a, b, poly)
        assert got == pytest.approx(expect, abs=2e-3 * max(1.0, a.dist(b)))


def test_penetration_additive_over_disjoint_obstacles():
    p1 = _square(1, -1, 2, 1)
    p2 = _square(4, -1, 7, 1)
    a, b = Point2(0, 0), Point2(10, 0)
    scene = Scene(ris_positions=(Point2(0, 9),), users=(Point2(9, 9),), obstacles=(p1, p2))
    assert total_penetration(scene, a, b) == pytest.approx(
        penetration_length(a, b, p1) + penetration_length(a, b, p2), abs=1e-12
    )
    assert total_penetration(scene, a, b) == pytest.approx(4.0, abs=1e-9)


def test_penetration_degenerate_polygon_rejected():
    with pytest.raises(ValueError):
        Polygon((Point2(0, 0), Point2(1, 0), Point2(2, 0)))  # zero area
    with pytest.raises(ValueError):
        Polygon((Point2(0, 0), Point2(1, 0)))
    with pytest.raises(ValueError):  # bowtie
        Polygon((Point2(0, 0), Point2(1, 1), Point2(1, 0), Point2(0, 1)))


# --- attenuation_factor -----------------------------------------------------

def test_attenuation_values():
    assert attenuation_factor(0.0, 0.7) == 1.0
    assert attenuation_factor(2.0, 0.5) == 2.0
    assert attenuation_factor(3.0, 0.0) == 1.0


def test_attenuation_rejects_negative():
    with pytest.raises(ValueError):
        attenuation_factor(-1.0, 0.5)
    with pytest.raises(ValueError):
        attenuation_factor(1.0, -0.5)


def test_attenuation_monotone():
    rng = np.random.default_rng(3)
    for _ in range(100):
        d1, d2 = sorted(rng.uniform(0, 10, 2))
        k1, k2 = sorted(rng.uniform(0, 2, 2))
        assert attenuation_factor(d2, k1) >= attenuation_factor(d1, k1)
        assert attenuation_factor(d1, k2) >= attenuation_factor(d1, k1)


# --- effective pathlosses ---------------------------------------------------

def test_pathloss_tr_los():
    scene = Scene(ris_positions=(Point2(3, 4),), users=(Point2(1, 1),))
    assert effective_pathloss_tr(scene, 0) == pytest.approx(5.0, abs=1e-12)


def test_pathloss_tr_with_penetration():
    # rectangle spanning x in [0.6, 1.8] cuts the (0,0)->(3,4) segment from
    # arclength 1 to arclength 3: penetration exactly 2, alpha = 1 + 0.5*2 = 2
    rect = _square(0.6, 0.0, 1.8, 5.0)
    scene = Scene(ris_positions=(Point2(3, 4),), users=(Point2(9, -5),), obstacles=(rect,), kappa=0.5)
    assert effective_pathloss_tr(scene, 0) == pytest.approx(10.0, abs=1e-9)


def test_pathloss_ru_los_and_attenuated():
    scene = Scene(ris_positions=(Point2(6, 0),), users=(Point2(9, 4),))
    assert effective_pathloss_ru(scene, 0, 0) == pytest.approx(5.0, abs=1e-12)
    rect = _square(6.6, -1.0, 7.8, 9.0)
    scene2 = Scene(ris_positions=(Point2(6, 0),), users=(Point2(9, 4),), obstacles=(rect,), kappa=0.5)
    assert effective_pathloss_ru(scene2, 0, 0) == pytest.approx(10.0, abs=1e-9)


def test_pathloss_matches_sampling_oracle_random_scene():
    rng = np.random.default_rng(11)
    for _ in range(10):
        obstacles = []
        centers = [(-6, 5), (6, 5), (0, -7)]
        for c in centers:
            obstacles.append(_random_convex(rng, np.array(c) + rng.uniform(-1, 1, 2), 2.0, int(rng.integers(3, 7))))
        scene = Scene(
            ris_positions=(Point2(12, 0), Point2(-12, 3)),
            users=(Point2(2, 11), Point2(-3, 12)),
            obstacles=tuple(obstacles),
            kappa=0.8,
        )
        for l in range(scene.num_ris):
            r = scene.ris_positions[l]
            pen = sum(oracle_penetration(scene.transmitter, r, ob) for ob in scene.obstacles)
            expect = (1.0 + scene.kappa * pen) * math.hypot(r.x, r.y)
            assert effective_pathloss_tr(scene, l) == pytest.approx(expect, rel=1e-3)
            for k in range(scene.num_users):
                u = scene.users[k]
                pen = sum(oracle_penetration(r, u, ob) for ob in scene.obstacles)
                expect = (1.0 + scene.kappa * pen) * r.dist(u)
                assert effective_pathloss_ru(scene, l, k) == pytest.approx(expect, rel=1e-3)


def test_pathloss_tu_direct_link():
    scene = Scene(ris_positions=(Point2(0, 9),), users=(Point2(3, 4),))
    assert effective_pathloss_tu(scene, 0) == pytest.approx(5.0, abs=1e-12)
    rect = _square(0.6, 0.0, 1.8, 5.0)
    scene2 = Scene(ris_positions=(Point2(0, 9),), users=(Point2(3, 4),), obstacles=(rect,), kappa=0.5)
    assert effective_pathloss_tu(scene2, 0) == pytest.approx(10.0, abs=1e-9)


# --- select_ris --------------------------------------------------------------

def test_select_single_ris():
    scene = Scene(ris_positions=(Point2(5, 5),), users=(Point2(1, 1),))
    assert select_ris(scene) == 0


def test_select_dominant_ris():
    scene = Scene(
        ris_positions=(Point2(2, 0), Point2(20, 0)),
        users=(Point2(3, 1), Point2(1, -2)),
    )
    assert select_ris(scene) == 0


def test_select_empty_ris_errors():
    scene = Scene(ris_positions=(), users=(Point2(1, 1),))
    with pytest.raises(ValueError):
        select_ris(scene)


def test_select_matches_independent_bruteforce():
    rng = np.random.default_rng(42)
    for _ in range(10):
        obstacles = []
        for c in ((-7, 0), (7, 2), (0, 8), (2, -8)):
            if rng.uniform() < 0.8:
                obstacles.append(_random_convex(rng, np.array(c, float) + rng.uniform(-1, 1, 2), rng.uniform(1.0, 2.5), int(rng.integers(3, 7))))
        ris = tuple(Point2(14 * math.cos(a), 14 * math.sin(a)) for a in TWO_PI * (np.arange(6) + 0.3) / 6)
        users = tuple(Point2(*rng.uniform(-11, 11, 2)) for _ in range(4))
        try:
            scene = Scene(ris_positions=ris, users=users, obstacles=tuple(obstacles), kappa=0.6)
        except ValueError:
            continue  # rare: a random user landed inside an obstacle
        # independent brute force on sampled penetrations
        metrics = []
        for l in range(6):
            r = scene.ris_positions[l]
            pen = sum(oracle_penetration(scene.transmitter, r, ob) for ob in scene.obstacles)
            e_tr = (1 + scene.kappa * pen) * math.hypot(r.x, r.y)
            m = 0.0
            for u in scene.users:
                pen = sum(oracle_penetration(r, u, ob) for ob in scene.obstacles)
                m += e_tr * (1 + scene.kappa * pen) * r.dist(u)
            metrics.append(m)
        assert select_ris(scene) == int(np.argmin(metrics))


def test_select_scale_invariance_of_argmin():
    rng = np.random.default_rng(5)
    ris = tuple(Point2(*rng.uniform(-12, 12, 2)) for _ in range(5))
    scene = Scene(ris_positions=ris, users=tuple(Point2(*rng.uniform(-10, 10, 2)) for _ in range(3)))
    metrics = np.array(link_table(scene).cascade)
    for c in (0.1, 3.0, 1e6):
        assert int(np.argmin(metrics * c)) == select_ris(scene)


def test_select_without_obstacles_reduces_to_distances():
    rng = np.random.default_rng(9)
    for _ in range(20):
        ris = tuple(Point2(*rng.uniform(-12, 12, 2)) for _ in range(4))
        users = tuple(Point2(*rng.uniform(-10, 10, 2)) for _ in range(3))
        scene = Scene(ris_positions=ris, users=users, kappa=1.3)
        dist_metric = [
            math.hypot(r.x, r.y) * sum(r.dist(u) for u in users) for r in ris
        ]
        assert select_ris(scene) == int(np.argmin(dist_metric))


# --- Scene validation & JSON -------------------------------------------------

def test_scene_rejects_user_inside_obstacle():
    with pytest.raises(ValueError):
        Scene(ris_positions=(Point2(9, 9),), users=(Point2(5, 0),), obstacles=(_square(4, -1, 6, 1),))


def test_scene_rejects_overlapping_obstacles():
    with pytest.raises(ValueError):
        Scene(
            ris_positions=(Point2(9, 9),),
            users=(Point2(-9, -9),),
            obstacles=(_square(0, 0, 2, 2), _square(1, 1, 3, 3)),
        )


def test_scene_rejects_negative_kappa():
    with pytest.raises(ValueError):
        Scene(ris_positions=(Point2(1, 1),), users=(Point2(2, 2),), kappa=-0.1)


def test_scene_json_round_trip():
    scene = Scene(
        ris_positions=(Point2(3, 4), Point2(-5, 2)),
        users=(Point2(1, -1),),
        obstacles=(_square(6, 6, 8, 8),),
        kappa=0.25,
    )
    doc = scene_to_dict(scene)
    back = scene_from_dict(doc)
    assert back == scene
    assert scene_to_dict(back) == doc


# --- scalar oracles ----------------------------------------------------------

_EPS = 1e-9


def _s_cross(ox, oy, ax, ay, bx, by):
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _s_point_segment_dist(px, py, ax, ay, bx, by):
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / L2
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _s_edges(poly):
    v = poly.vertices
    return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]


def _s_segments_touch(a, b, c, d):
    d1 = _s_cross(c.x, c.y, d.x, d.y, a.x, a.y)
    d2 = _s_cross(c.x, c.y, d.x, d.y, b.x, b.y)
    d3 = _s_cross(a.x, a.y, b.x, b.y, c.x, c.y)
    d4 = _s_cross(a.x, a.y, b.x, b.y, d.x, d.y)
    if ((d1 > _EPS and d2 < -_EPS) or (d1 < -_EPS and d2 > _EPS)) and \
       ((d3 > _EPS and d4 < -_EPS) or (d3 < -_EPS and d4 > _EPS)):
        return True
    for p, (u, v) in ((a, (c, d)), (b, (c, d)), (c, (a, b)), (d, (a, b))):
        if _s_point_segment_dist(p.x, p.y, u.x, u.y, v.x, v.y) <= _EPS:
            return True
    return False


def scalar_is_simple(vertices):
    """The self-intersection test of Polygon's constructor."""
    n = len(vertices)
    edges = [(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if (j == i + 1) or (i == 0 and j == n - 1):
                continue
            if _s_segments_touch(*edges[i], *edges[j]):
                return False
    return True


def scalar_on_boundary(poly, p, tol=_EPS):
    return any(_s_point_segment_dist(p.x, p.y, a.x, a.y, b.x, b.y) <= tol
               for a, b in _s_edges(poly))


def scalar_strictly_contains(poly, p):
    if scalar_on_boundary(poly, p):
        return False
    inside = False
    v = poly.vertices
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


def scalar_polygons_overlap(a, b):
    for ea in _s_edges(a):
        for eb in _s_edges(b):
            if _s_segments_touch(*ea, *eb):
                return True
    return (scalar_strictly_contains(a, b.vertices[0])
            or scalar_strictly_contains(b, a.vertices[0]))


def scalar_point_polygon_gap(point, poly):
    if scalar_strictly_contains(poly, point):
        return 0.0
    return min(_s_point_segment_dist(point.x, point.y, p.x, p.y, q.x, q.y)
               for p, q in _s_edges(poly))


def scalar_polygon_gap(a, b):
    if scalar_polygons_overlap(a, b):
        return 0.0
    return min(min(scalar_point_polygon_gap(v, b) for v in a.vertices),
               min(scalar_point_polygon_gap(v, a) for v in b.vertices))


def _s_segment_edge_params(a, b, p, q):
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


def scalar_penetration_length(a, b, poly):
    length = a.dist(b)
    if length == 0.0:
        return 0.0
    ts = {0.0, 1.0}
    for p, q in _s_edges(poly):
        ts.update(_s_segment_edge_params(a, b, p, q))
    ts = sorted(ts)
    dx, dy = b.x - a.x, b.y - a.y
    total = 0.0
    for t0, t1 in zip(ts, ts[1:]):
        if t1 - t0 <= _EPS:
            continue
        tm = 0.5 * (t0 + t1)
        if scalar_strictly_contains(poly, Point2(a.x + tm * dx, a.y + tm * dy)):
            total += t1 - t0
    return total * length


def scalar_links(scene):
    """(tr, ru, tu) and the selection, link by link as the scalar code did."""
    def link(a, b):
        pen = sum(scalar_penetration_length(a, b, ob) for ob in scene.obstacles)
        return attenuation_factor(pen, scene.kappa) * a.dist(b)

    t = scene.transmitter
    tr = tuple(link(t, r) for r in scene.ris_positions)
    ru = tuple(tuple(link(r, u) for u in scene.users)
               for r in scene.ris_positions)
    tu = tuple(link(t, u) for u in scene.users)
    metrics = [sum(tr[l] * ru[l][k] for k in range(scene.num_users))
               for l in range(scene.num_ris)]
    return (tr, ru, tu), min(range(len(metrics)), key=lambda l: metrics[l])


def _assert_links_exact(scene):
    (tr, ru, tu), chosen = scalar_links(scene)
    links = link_table(scene)
    assert (links.tr, links.ru, links.tu) == (tr, ru, tu)  # exact floats
    assert links.selected == chosen == select_ris(scene)
    return chosen


def _assert_validation_exact(scene):
    """Scene's containment and overlap checks against the oracles."""
    for p in scene.ris_positions + scene.users:
        for ob in scene.obstacles:
            assert ob.strictly_contains(p) == scalar_strictly_contains(ob, p)
            assert ob.on_boundary(p) == scalar_on_boundary(ob, p)
    obs = scene.obstacles
    for i in range(len(obs)):
        assert scalar_is_simple(obs[i].vertices)
        for j in range(i + 1, len(obs)):
            assert _polygons_overlap(obs[i], obs[j]) == \
                scalar_polygons_overlap(obs[i], obs[j])
            assert _polygon_gap(obs[i], obs[j]) == \
                scalar_polygon_gap(obs[i], obs[j])


# --- exactness against the scalar oracles ------------------------------------

def test_link_table_matches_scalar_oracle_on_seeded_scenes():
    config = SceneGenConfig(n_ris=6, n_users=4)
    rng = np.random.default_rng(2024)
    counts = [0] * 6
    for _ in range(2000):
        scene = scenes.random_scene(config, rng)
        counts[_assert_links_exact(scene)] += 1
    assert min(counts) > 0  # every surface gets selected somewhere


def test_link_table_matches_scalar_oracle_on_recovered_scenes():
    config = SceneGenConfig(n_ris=6, n_users=4)
    rng = np.random.default_rng(31)
    for _ in range(30):
        scene = scenes.random_scene(config, rng)
        raster = vision.render_top_view(scene, 512, config.region + 1.0)
        recovered = vision.recover_scene(raster, scene.ris_positions,
                                         scene.kappa)
        _assert_links_exact(recovered)
        _assert_validation_exact(recovered)


def _scene_digest(seeds, config):
    h = hashlib.sha256()
    for seed in seeds:
        scene = scenes.random_scene(config, np.random.default_rng(seed))
        h.update(json.dumps(scene_to_dict(scene)).encode("ascii"))
    return h.hexdigest()


@pytest.mark.parametrize("config, digest", [
    (SceneGenConfig(n_ris=6, n_users=4),
     "c991c462e2940fd657687014060afb28bb054826e864eae9efd13eea81cd3644"),
    (SceneGenConfig(n_ris=3, n_users=7, max_obstacles=8, clearance=0.3),
     "cd58207d3100c2acdce7f29df7629ab9434fa438de267c9a401137c1452644e3"),
])
def test_random_scene_matches_scalar_gap_tests(monkeypatch, config, digest):
    # frozen: the scenes the all-edges scalar code drew for seeds 0-299
    assert _scene_digest(range(300), config) == digest
    fast = [scenes.random_scene(config, np.random.default_rng(seed))
            for seed in range(60)]
    monkeypatch.setattr(scenes, "point_gap_below",
                        lambda p, poly, t: scalar_point_polygon_gap(p, poly) < t)
    monkeypatch.setattr(scenes, "polygon_gap_below",
                        lambda a, b, t: scalar_polygon_gap(a, b) < t)
    for seed, scene in enumerate(fast):
        slow = scenes.random_scene(config, np.random.default_rng(seed))
        assert scene_to_dict(scene) == scene_to_dict(slow)
        _assert_validation_exact(scene)


# --- box extremes: where the padding decides ---------------------------------

_OFFSETS = (0.0, 1e-10, 1e-9, 1e-7)


def _probe_polygons():
    return [
        _square(4.0, -1.0, 6.0, 1.0),
        Polygon((Point2(5, 0), Point2(6, 1), Point2(7, 0), Point2(6, -1))),
        Polygon((Point2(-3.3, 2.1), Point2(-1.2, 1.7), Point2(-0.8, 4.4),
                 Point2(-2.9, 3.9))),
        Polygon((Point2(0, 0), Point2(3, 0), Point2(3, 3), Point2(2, 3),
                 Point2(2, 1), Point2(1, 1), Point2(1, 3), Point2(0, 3))),
    ]


def _extreme_points(poly):
    """Vertices, edge midpoints and box-extreme points, each pushed out
    along both axes by every offset."""
    v = poly.vertices
    xs, ys = [p.x for p in v], [p.y for p in v]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    base = list(v) + [Point2(0.5 * (a.x + b.x), 0.5 * (a.y + b.y))
                      for a, b in poly.edges()]
    base += [Point2(x0, 0.5 * (y0 + y1)), Point2(x1, 0.5 * (y0 + y1)),
             Point2(0.5 * (x0 + x1), y0), Point2(0.5 * (x0 + x1), y1)]
    out = []
    for p in base:
        for d in _OFFSETS:
            for sx, sy in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)):
                out.append(Point2(p.x + sx * d, p.y + sy * d))
    return out


def test_point_tests_match_oracle_at_box_extremes():
    for poly in _probe_polygons():
        for p in _extreme_points(poly):
            assert poly.on_boundary(p) == scalar_on_boundary(poly, p), p
            assert poly.strictly_contains(p) == \
                scalar_strictly_contains(poly, p), p
            gap = scalar_point_polygon_gap(p, poly)
            for threshold in (0.0, 1e-10, 1e-9, 1e-7, 0.5):
                assert point_gap_below(p, poly, threshold) == \
                    (gap < threshold), (p, threshold)


def test_penetration_matches_oracle_at_box_extremes():
    for poly in _probe_polygons():
        pts = _extreme_points(poly)
        far = [Point2(-9.0, -9.0), Point2(12.0, 0.3), Point2(5.0, 9.0)]
        for a in pts:
            for b in pts[::7] + far + [a]:  # [a]: zero-length segment
                got = penetration_length(a, b, poly)
                assert got == scalar_penetration_length(a, b, poly), (a, b)


def test_penetration_matches_oracle_on_grazing_and_vertex_segments():
    for poly in _probe_polygons():
        v = poly.vertices
        for a, b in poly.edges():
            dx, dy = b.x - a.x, b.y - a.y
            for lo, hi in ((-0.5, 1.5), (0.0, 1.0), (0.25, 0.75), (-1.0, 0.0),
                           (1.0, 2.0), (0.5, 3.0)):
                for d in _OFFSETS:
                    # along the edge, shifted off it by d along the normal
                    nx, ny = -dy * d, dx * d
                    p = Point2(a.x + lo * dx + nx, a.y + lo * dy + ny)
                    q = Point2(a.x + hi * dx + nx, a.y + hi * dy + ny)
                    for s, t in ((p, q), (q, p)):
                        assert penetration_length(s, t, poly) == \
                            scalar_penetration_length(s, t, poly), (s, t)
        for corner in v:
            for far in (Point2(-20.0, 7.0), Point2(15.0, -11.0),
                        Point2(corner.x + 1e-9, corner.y - 30.0)):
                for s, t in ((corner, far), (far, corner)):
                    assert penetration_length(s, t, poly) == \
                        scalar_penetration_length(s, t, poly), (s, t)


def test_polygon_pair_tests_match_oracle_at_small_gaps():
    for poly in _probe_polygons():
        v = poly.vertices
        width = max(p.x for p in v) - min(p.x for p in v)
        height = max(p.y for p in v) - min(p.y for p in v)
        for d in _OFFSETS + (-1e-9, 0.3):
            for sx, sy in ((width + d, 0.0), (0.0, -height - d),
                           (width + d, height + d)):
                other = Polygon(tuple(Point2(p.x + sx, p.y + sy) for p in v))
                for a, b in ((poly, other), (other, poly)):
                    assert _polygons_overlap(a, b) == \
                        scalar_polygons_overlap(a, b), (d, sx, sy)
                    gap = scalar_polygon_gap(a, b)
                    assert _polygon_gap(a, b) == gap
                    for threshold in (0.0, 1e-10, 1e-9, 1e-7, 0.3, 1.0):
                        assert polygon_gap_below(a, b, threshold) == \
                            (gap < threshold), (d, sx, sy, threshold)


def test_polygon_pair_tests_match_oracle_at_large_coordinates():
    # Collinear edges 5.9 km apart at coordinates near 1e5: the scalar
    # cross-product test calls them touching, through rounding alone. Far
    # from the origin boxes are not trusted, so the answer stays the same.
    a = Point2(-21485.618892255872, 5365.530748718455)
    b = Point2(-96975.94081186867, -13834.404624933733)
    c = Point2(-102887.44740428402, -15337.915825431151)
    d = Point2(-113076.40950040976, -17929.33958407565)
    first = Polygon((a, b, Point2(b.x + 24.66, b.y - 96.9)))
    second = Polygon((c, d, Point2(d.x + 24.66, d.y - 96.9)))
    assert scalar_polygons_overlap(first, second)
    assert _polygons_overlap(first, second)
    assert polygon_gap_below(first, second, 1.0)


def test_self_intersection_matches_oracle_at_small_gaps():
    # a U with a tab from its right arm that ends d short of the left arm
    for d in _OFFSETS + (-1e-10, 0.2):
        verts = (Point2(0, 0), Point2(3, 0), Point2(3, 3), Point2(2, 3),
                 Point2(2, 2.5), Point2(1 + d, 2.5), Point2(1 + d, 2),
                 Point2(2, 2), Point2(2, 1), Point2(1, 1), Point2(1, 3),
                 Point2(0, 3))
        if scalar_is_simple(verts):
            Polygon(verts)
        else:
            with pytest.raises(ValueError, match="self-intersecting"):
                Polygon(verts)


# --- metamorphic: rotation about the transmitter -----------------------------

def _rotated(scene, turn):
    def move(p):
        return Point2(*turn(p.x, p.y))

    return Scene(ris_positions=tuple(move(p) for p in scene.ris_positions),
                 users=tuple(move(p) for p in scene.users),
                 obstacles=tuple(Polygon(tuple(move(v) for v in ob.vertices))
                                 for ob in scene.obstacles),
                 kappa=scene.kappa)


def test_rotation_about_transmitter_preserves_links_and_selection():
    rng = np.random.default_rng(77)
    config = SceneGenConfig(n_ris=6, n_users=4)
    quarter = {1: lambda x, y: (-y, x), 2: lambda x, y: (-x, -y),
               3: lambda x, y: (y, -x)}
    for _ in range(80):
        scene = scenes.random_scene(config, rng)
        base = link_table(scene)
        ranked = sorted(base.cascade)
        near_tie = ranked[1] - ranked[0] <= 1e-9 * ranked[1]
        turns = [quarter[int(rng.integers(1, 4))]]
        for theta in rng.uniform(0.0, TWO_PI, size=2):
            c, s = math.cos(theta), math.sin(theta)
            turns.append(lambda x, y, c=c, s=s: (c * x - s * y, s * x + c * y))
        for turn in turns:
            links = link_table(_rotated(scene, turn))
            got = links.tr + links.tu + sum(links.ru, ())
            want = base.tr + base.tu + sum(base.ru, ())
            assert got == pytest.approx(want, rel=1e-9)
            if not near_tie:
                assert links.selected == base.selected
