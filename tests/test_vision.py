"""Rendering, detection, edge extraction and coordinate recovery tests.

Expected values for the derived checks come from pixel arrays built by
hand and from mapping arithmetic written out in the tests, never from the
functions under test.
"""

import numpy as np
import pytest

from ris_lab import vision
from ris_lab.geometry import Point2, Polygon, Scene, select_ris
from ris_lab.scenes import SceneGenConfig, random_scene
from ris_lab.vision import (Raster, canny_edges, approx_polygon, crop,
                            detect_objects, load_raster, recover_coordinates,
                            recover_scene, render_top_view, save_raster)


def blank_raster(h=128, w=128, mpp=1.0, origin=(0.0, 0.0)):
    return Raster(pixels=np.zeros((h, w), dtype=np.uint8),
                  meters_per_pixel=mpp, world_origin=Point2(*origin))


def draw_disc(pixels, row, col, radius, level):
    rr, cc = np.ogrid[: pixels.shape[0], : pixels.shape[1]]
    pixels[(rr - row) ** 2 + (cc - col) ** 2 <= radius ** 2] = level


# --- raster type --------------------------------------------------------------------


def test_raster_validation():
    with pytest.raises(ValueError):
        Raster(pixels=np.zeros((0, 4), np.uint8), meters_per_pixel=1.0,
               world_origin=Point2(0, 0))
    with pytest.raises(ValueError):
        Raster(pixels=np.zeros(16, np.uint8), meters_per_pixel=1.0,
               world_origin=Point2(0, 0))
    with pytest.raises(ValueError):
        blank_raster(mpp=0.0)
    with pytest.raises(ValueError):
        blank_raster(mpp=-0.5)
    with pytest.raises(ValueError):
        Raster(pixels=np.full((16, 16), 300.0), meters_per_pixel=1.0,
               world_origin=Point2(0, 0))


def test_raster_world_mapping_round_trip():
    r = blank_raster(h=40, w=60, mpp=0.25, origin=(-3.0, 5.0))
    p = r.pixel_center(7, 11)
    assert p.x == pytest.approx(-3.0 + 11 * 0.25)
    assert p.y == pytest.approx(5.0 - 7 * 0.25)
    row, col = r.world_to_pixel(p)
    assert row == pytest.approx(7.0) and col == pytest.approx(11.0)


# --- rendering ----------------------------------------------------------------------


def test_render_empty_scene_is_all_zero():
    raster = render_top_view(Scene(), 64)
    assert raster.width == 64 and raster.height == 64
    assert not raster.pixels.any()


def test_render_user_disc_centered():
    # odd resolution puts world (0, 0) exactly on the middle pixel
    scene = Scene(users=[Point2(0.0, 0.0)])
    raster = render_top_view(scene, 65, half_extent=2.0)
    assert raster.pixels[32, 32] == 200
    rows, cols = np.nonzero(raster.pixels == 200)
    assert abs(rows.mean() - 32.0) < 0.5 and abs(cols.mean() - 32.0) < 0.5
    # disc radius in pixels matches 0.5 m at the derived scale
    mpp = 4.0 / 65
    assert rows.max() - rows.min() + 1 == pytest.approx(1.0 / mpp, abs=2)


def test_render_obstacle_level_and_extent():
    square = Polygon([Point2(1, 1), Point2(3, 1), Point2(3, 3), Point2(1, 3)])
    scene = Scene(obstacles=[square])
    raster = render_top_view(scene, 128, half_extent=4.0)
    row, col = raster.world_to_pixel(Point2(2.0, 2.0))
    assert raster.pixels[int(round(row)), int(round(col))] == 90
    levels = set(np.unique(raster.pixels).tolist())
    assert levels == {0, 90}


def test_render_content_outside_extent_rejected():
    scene = Scene(users=[Point2(6.0, 0.0)])
    with pytest.raises(ValueError):
        render_top_view(scene, 128, half_extent=5.0)
    poly = Polygon([Point2(4, 4), Point2(6, 4), Point2(6, 6), Point2(4, 6)])
    with pytest.raises(ValueError):
        render_top_view(Scene(obstacles=[poly]), 128, half_extent=5.0)


def test_render_resolution_floor():
    with pytest.raises(ValueError):
        render_top_view(Scene(), 32)
    with pytest.raises(ValueError):
        render_top_view(Scene(), (128, 48))


def test_render_auto_extent_fits_content():
    scene = Scene(users=[Point2(7.0, -2.0)])
    raster = render_top_view(scene, 128)
    assert (raster.pixels == 200).any()


# --- detection ----------------------------------------------------------------------


def test_detect_blank_raster_returns_nothing():
    assert detect_objects(blank_raster(200, 200)) == []


def test_detect_disc_bbox_center():
    raster = blank_raster(220, 220)
    draw_disc(raster.pixels, 100, 100, 10, 200)
    objects = detect_objects(raster)
    assert len(objects) == 1
    obj = objects[0]
    assert obj.category == "user"
    x, y, w, h = obj.bbox
    assert abs((x + (w - 1) / 2.0) - 100) <= 1.0
    assert abs((y + (h - 1) / 2.0) - 100) <= 1.0
    assert 0.0 <= obj.score <= 1.0


def test_detect_two_objects_categories():
    raster = blank_raster(200, 200)
    draw_disc(raster.pixels, 60, 50, 8, 200)
    raster.pixels[120:150, 100:140] = 90
    objects = detect_objects(raster)
    assert len(objects) == 2
    by_cat = {o.category: o for o in objects}
    assert set(by_cat) == {"user", "obstacle"}
    ox, oy, ow, oh = by_cat["obstacle"].bbox
    assert (ox, oy, ow, oh) == (100, 120, 40, 30)
    assert by_cat["obstacle"].score == pytest.approx(1.0)


def test_detect_threshold_suppresses_sparse_blobs():
    raster = blank_raster(100, 100)
    # a thin diagonal fills its bbox at roughly 1/n
    for i in range(20):
        raster.pixels[10 + i, 10 + i] = 90
    assert detect_objects(raster, threshold=0.5) == []
    found = detect_objects(raster, threshold=0.04)
    assert len(found) == 1


def test_detect_threshold_domain():
    raster = blank_raster()
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            detect_objects(raster, threshold=bad)


def test_detect_bboxes_stay_inside_raster():
    rng = np.random.default_rng(3)
    raster = blank_raster(90, 130)
    for _ in range(4):
        r, c = rng.integers(10, 80), rng.integers(10, 120)
        draw_disc(raster.pixels, int(r), int(c), 5, 200)
    for obj in detect_objects(raster, threshold=0.3):
        x, y, w, h = obj.bbox
        assert 0 <= x and 0 <= y
        assert x + w <= raster.width and y + h <= raster.height


# --- crop ---------------------------------------------------------------------------


def test_crop_full_frame_identity():
    raster = blank_raster(64, 80, mpp=0.5, origin=(1.0, 2.0))
    draw_disc(raster.pixels, 30, 40, 6, 200)
    out = crop(raster, (0, 0, raster.width, raster.height), 0)
    assert np.array_equal(out.pixels, raster.pixels)
    assert out.world_origin == raster.world_origin
    assert out.meters_per_pixel == raster.meters_per_pixel


def test_crop_margin_arithmetic():
    raster = blank_raster(64, 64)
    out = crop(raster, (10, 10, 5, 5), 2)
    assert out.pixels.shape == (9, 9)
    # new origin sits at the old pixel (8, 8) center
    assert out.world_origin.x == pytest.approx(raster.world_origin.x + 8.0)
    assert out.world_origin.y == pytest.approx(raster.world_origin.y - 8.0)


def test_crop_clamps_at_borders():
    raster = blank_raster(32, 32)
    out = crop(raster, (0, 0, 5, 5), 10)
    assert out.pixels.shape == (15, 15)
    assert out.world_origin == raster.world_origin


def test_crop_empty_intersection_rejected():
    raster = blank_raster(32, 32)
    with pytest.raises(ValueError):
        crop(raster, (40, 40, 5, 5), 0)
    with pytest.raises(ValueError):
        crop(raster, (10, 10, 0, 5), 0)


def test_crop_then_recover_matches_full_frame():
    scene = Scene(users=[Point2(2.5, -1.5)])
    raster = render_top_view(scene, 128, half_extent=6.4)
    objects = detect_objects(raster)
    users_full, _ = recover_coordinates(objects, raster)

    sub = crop(raster, objects[0].bbox, 8)
    sub_objects = detect_objects(sub)
    users_sub, _ = recover_coordinates(sub_objects, sub)

    assert len(users_full) == len(users_sub) == 1
    assert users_full[0].x == pytest.approx(users_sub[0].x, abs=1e-9)
    assert users_full[0].y == pytest.approx(users_sub[0].y, abs=1e-9)


# --- edges --------------------------------------------------------------------------


def test_canny_constant_raster_has_no_edges():
    for value in (0, 90, 255):
        raster = Raster(pixels=np.full((64, 64), value, np.uint8),
                        meters_per_pixel=1.0, world_origin=Point2(0, 0))
        assert not canny_edges(raster).any()


def test_canny_threshold_domain():
    raster = blank_raster()
    for low, high in ((-1, 100), (40, 256), (100, 100), (120, 80)):
        with pytest.raises(ValueError):
            canny_edges(raster, low, high)


def square_raster(value=90, lo=30, hi=70, size=101):
    pixels = np.zeros((size, size), np.uint8)
    pixels[lo:hi + 1, lo:hi + 1] = value
    return Raster(pixels=pixels, meters_per_pixel=1.0, world_origin=Point2(0, 0))


def rect_boundary_distance(points, lo, hi):
    """Distance from (row, col) points to the boundary of the square whose
    ideal edge runs at lo - 0.5 and hi + 0.5."""
    a, b = lo - 0.5, hi + 0.5
    r, c = points[:, 0], points[:, 1]
    dr = np.maximum.reduce([a - r, r - b, np.zeros_like(r)])
    dc = np.maximum.reduce([a - c, c - b, np.zeros_like(c)])
    outside = np.hypot(dr, dc)
    inside = np.minimum(np.minimum(r - a, b - r), np.minimum(c - a, b - c))
    return np.where((dr > 0) | (dc > 0), outside, inside)


def test_canny_square_edges_hug_the_boundary():
    edges = canny_edges(square_raster())
    pts = np.column_stack(np.nonzero(edges)).astype(float)
    assert len(pts) > 100
    dists = rect_boundary_distance(pts, 30, 70)
    assert dists.max() <= 1.5


def test_canny_step_contrast_semantics():
    # a step whose Sobel response clears the high threshold is detected
    pixels = np.zeros((64, 64), np.uint8)
    pixels[:, 32:] = 150
    raster = Raster(pixels=pixels, meters_per_pixel=1.0, world_origin=Point2(0, 0))
    assert canny_edges(raster, 40, 100).any()
    # far below the low threshold nothing survives
    faint = np.zeros((64, 64), np.uint8)
    faint[:, 32:] = 15
    raster = Raster(pixels=faint, meters_per_pixel=1.0, world_origin=Point2(0, 0))
    assert not canny_edges(raster, 40, 100).any()


def test_canny_repeat_call_identical():
    raster = square_raster()
    first = canny_edges(raster, 40, 100)
    second = canny_edges(raster, 40, 100)
    assert np.array_equal(first, second)
    assert set(np.unique(first).tolist()) <= {0, 1}


# --- polygon approximation ----------------------------------------------------------


def test_approx_square_four_corners():
    edges = canny_edges(square_raster())
    verts = approx_polygon(edges, 2.0).vertices
    assert len(verts) == 4
    true_corners = [(29.5, 29.5), (29.5, 70.5), (70.5, 29.5), (70.5, 70.5)]
    for cx, cy in true_corners:
        d = np.hypot(verts[:, 0] - cx, verts[:, 1] - cy)
        assert d.min() <= 2.0


def test_approx_triangle_three_vertices():
    tri = Polygon([Point2(-4.0, -3.0), Point2(4.5, -2.0), Point2(0.5, 4.0)])
    raster = render_top_view(Scene(obstacles=[tri]), 160, half_extent=6.0)
    verts = approx_polygon(canny_edges(raster), 2.0).vertices
    assert len(verts) == 3


def test_approx_circle_few_vertices():
    pixels = np.zeros((101, 101), np.uint8)
    draw_disc(pixels, 50, 50, 20, 90)
    raster = Raster(pixels=pixels, meters_per_pixel=1.0, world_origin=Point2(0, 0))
    verts = approx_polygon(canny_edges(raster), 10.0).vertices
    assert 3 <= len(verts) <= 8


def test_approx_vertex_count_monotone_in_epsilon():
    edges = canny_edges(square_raster())
    counts = [len(approx_polygon(edges, eps)) for eps in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_approx_no_contour_is_an_error():
    with pytest.raises(ValueError):
        approx_polygon(np.zeros((32, 32), np.uint8), 2.0)
    lone = np.zeros((32, 32), np.uint8)
    lone[5, 5] = 1
    with pytest.raises(ValueError):
        approx_polygon(lone, 2.0)


def test_approx_epsilon_domain():
    with pytest.raises(ValueError):
        approx_polygon(np.ones((8, 8), np.uint8), 0.0)


# --- recovery -----------------------------------------------------------------------


def test_recover_user_position_within_tolerance():
    # 128 px over 12.8 m gives exactly 0.1 m per pixel
    scene = Scene(users=[Point2(5.0, 5.0)])
    raster = render_top_view(scene, 128, half_extent=6.4)
    assert raster.meters_per_pixel == pytest.approx(0.1)
    users, polys = recover_coordinates(detect_objects(raster), raster)
    assert polys == []
    assert len(users) == 1
    assert np.hypot(users[0].x - 5.0, users[0].y - 5.0) <= 0.2


def test_recover_square_obstacle_vertices():
    square = Polygon([Point2(-2, -2), Point2(2, -2), Point2(2, 2), Point2(-2, 2)])
    raster = render_top_view(Scene(obstacles=[square]), 256, half_extent=6.4)
    users, polys = recover_coordinates(detect_objects(raster), raster)
    assert users == [] and len(polys) == 1
    got = np.array([[v.x, v.y] for v in polys[0].vertices])
    assert len(got) == 4
    tol = 2.0 * raster.meters_per_pixel
    for tx, ty in ((-2, -2), (2, -2), (2, 2), (-2, 2)):
        assert np.hypot(got[:, 0] - tx, got[:, 1] - ty).min() <= tol


def test_recover_empty_objects_list():
    raster = blank_raster()
    assert recover_coordinates([], raster) == ([], [])


def test_translation_equivariance_whole_pixel_shift():
    mpp = 0.1
    square = Polygon([Point2(-3.1, -4.2), Point2(-1.3, -4.2),
                      Point2(-1.3, -2.6), Point2(-3.1, -2.6)])
    base = Scene(users=[Point2(1.234, 2.567)], obstacles=[square])
    dx, dy = 3 * mpp, -5 * mpp
    moved = Scene(users=[Point2(1.234 + dx, 2.567 + dy)],
                  obstacles=[Polygon([Point2(v.x + dx, v.y + dy)
                                      for v in square.vertices])])
    ra = render_top_view(base, 200, half_extent=10.0)
    rb = render_top_view(moved, 200, half_extent=10.0)
    assert ra.meters_per_pixel == pytest.approx(mpp)
    # content moves +3 columns and +5 rows, so the windows line up as
    assert np.array_equal(ra.pixels[:-5, :-3], rb.pixels[5:, 3:])

    ua, pa = recover_coordinates(detect_objects(ra), ra)
    ub, pb = recover_coordinates(detect_objects(rb), rb)
    assert ub[0].x - ua[0].x == pytest.approx(dx, abs=1e-9)
    assert ub[0].y - ua[0].y == pytest.approx(dy, abs=1e-9)
    va = np.array(sorted((v.x, v.y) for v in pa[0].vertices))
    vb = np.array(sorted((v.x, v.y) for v in pb[0].vertices))
    assert np.allclose(vb - va, [dx, dy], atol=1e-9)


def test_recover_scene_agrees_with_geometry_selection():
    """Smoke version of the end-to-end agreement property; the acceptance
    suite runs the full hundred scenes."""
    rng = np.random.default_rng(7)
    config = SceneGenConfig()
    agree = total = 0
    for _ in range(10):
        scene = random_scene(config, rng)
        raster = render_top_view(scene, 512, half_extent=config.region + 1.0)
        recovered = recover_scene(raster, scene.ris_positions, scene.kappa)
        total += 1
        if (len(recovered.users) == len(scene.users)
                and select_ris(recovered) == select_ris(scene)):
            agree += 1
    assert agree >= 9, f"vision selection agreed on {agree}/{total} scenes"


# --- scene generator ----------------------------------------------------------------


def test_random_scene_respects_config():
    rng = np.random.default_rng(11)
    config = SceneGenConfig(n_ris=3, n_users=5, max_obstacles=4, kappa=0.3)
    scene = random_scene(config, rng)
    assert scene.num_ris == 3 and scene.num_users == 5
    assert 1 <= len(scene.obstacles) <= 4
    assert scene.kappa == 0.3
    for u in scene.users:
        assert max(abs(u.x), abs(u.y)) <= config.region
    for p in scene.ris_positions:
        r = np.hypot(p.x, p.y)
        assert 0.8 * config.ris_radius - 1e-9 <= r <= config.ris_radius + 1e-9


def test_random_scene_deterministic():
    a = random_scene(SceneGenConfig(), np.random.default_rng(42))
    b = random_scene(SceneGenConfig(), np.random.default_rng(42))
    assert a.users == b.users
    assert a.ris_positions == b.ris_positions
    assert all(pa.vertices == pb.vertices
               for pa, pb in zip(a.obstacles, b.obstacles))


def test_random_scene_config_validation():
    with pytest.raises(ValueError):
        SceneGenConfig(n_users=0)
    with pytest.raises(ValueError):
        SceneGenConfig(min_fill=1.2)
    with pytest.raises(ValueError):
        SceneGenConfig(obstacle_size=(3.0, 2.0))


# --- files --------------------------------------------------------------------------


def test_raster_round_trip(tmp_path):
    scene = Scene(users=[Point2(1.0, -2.0)],
                  obstacles=[Polygon([Point2(-3, -3), Point2(-1, -3),
                                      Point2(-1, -1), Point2(-3, -1)])])
    raster = render_top_view(scene, 96, half_extent=5.0)
    path = tmp_path / "frame.pgm"
    save_raster(path, raster)
    back = load_raster(path)
    assert np.array_equal(back.pixels, raster.pixels)
    assert back.meters_per_pixel == raster.meters_per_pixel
    assert back.world_origin.x == pytest.approx(raster.world_origin.x)
    assert back.world_origin.y == pytest.approx(raster.world_origin.y)


def test_load_raster_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P6\n2 2\n255\n" + b"\0" * 12)
    with pytest.raises(ValueError):
        load_raster(bad)

    trunc = tmp_path / "short.pgm"
    trunc.write_bytes(b"P5\n64 64\n255\n" + b"\0" * 100)
    with pytest.raises(ValueError):
        load_raster(trunc)

    orphan = tmp_path / "orphan.pgm"
    orphan.write_bytes(b"P5\n16 16\n255\n" + b"\0" * 256)
    with pytest.raises(ValueError):
        load_raster(orphan)


# --- exactness of the fast image chain ----------------------------------------------
#
# The scalar code below is the image chain as first written: one arc
# deviation at a time, a per-pixel flood fill, full-frame rasterization.
# The fast chain must reproduce it bit for bit.


def ref_arc_deviation(pts, i, j):
    """Max distance from the cyclic arc i..j to the chord (i, j)."""
    arc = pts[i:j + 1] if j >= i else np.vstack([pts[i:], pts[:j + 1]])
    a, b = pts[i], pts[j]
    d = b - a
    n = np.hypot(*d)
    if n == 0.0:
        dist = np.hypot(arc[:, 0] - a[0], arc[:, 1] - a[1])
    else:
        dist = np.abs((arc[:, 0] - a[0]) * d[1] - (arc[:, 1] - a[1]) * d[0]) / n
    return float(dist.max())


def ref_polygon_deviation(pts, kept):
    return max(ref_arc_deviation(pts, kept[t], kept[(t + 1) % len(kept)])
               for t in range(len(kept)))


def ref_adjust_cyclic(pts, kept, radius=8, sweeps=12):
    n = len(pts)
    kept = list(kept)
    for _ in range(sweeps):
        moved = False
        for t in range(len(kept)):
            a = kept[(t - 1) % len(kept)]
            b = kept[(t + 1) % len(kept)]
            cur = kept[t]
            best_idx, best_dev = cur, max(ref_arc_deviation(pts, a, cur),
                                          ref_arc_deviation(pts, cur, b))
            for off in range(-radius, radius + 1):
                cand = (cur + off) % n
                if cand in (a, b, cur):
                    continue
                if not (cand - a) % n < (b - a) % n:
                    continue
                dev = max(ref_arc_deviation(pts, a, cand),
                          ref_arc_deviation(pts, cand, b))
                if dev < best_dev - 1e-12:
                    best_idx, best_dev = cand, dev
            if best_idx != cur:
                kept[t] = best_idx
                moved = True
        if not moved:
            break
    return sorted(kept)


def ref_prune_cyclic(pts, kept, eps, radius=8):
    kept = list(kept)
    while len(kept) > 3:
        best_trial, lowest = None, eps
        for t in range(len(kept)):
            dev = ref_arc_deviation(pts, kept[(t - 1) % len(kept)],
                                    kept[(t + 1) % len(kept)])
            if dev <= lowest:
                best_trial, lowest = kept[:t] + kept[t + 1:], dev
        if best_trial is None:
            for t in range(len(kept)):
                trial = ref_adjust_cyclic(pts, kept[:t] + kept[t + 1:],
                                          radius=radius, sweeps=4)
                dev = ref_polygon_deviation(pts, trial)
                if dev <= lowest:
                    best_trial, lowest = trial, dev
        if best_trial is None:
            break
        kept = best_trial
    return kept


NEIGHBORS8 = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def ref_components(mask):
    """Breadth-first flood fill from each unvisited pixel in row-major
    order; each component is a (rows, cols) pair."""
    h, w = mask.shape
    seen = np.zeros(mask.shape, dtype=bool)
    components = []
    for r0, c0 in zip(*np.nonzero(mask)):
        if seen[r0, c0]:
            continue
        queue = [(int(r0), int(c0))]
        seen[r0, c0] = True
        for r, c in queue:
            for dr, dc in NEIGHBORS8:
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w and mask[rr, cc] and not seen[rr, cc]:
                    seen[rr, cc] = True
                    queue.append((rr, cc))
        rows, cols = zip(*queue)
        components.append((np.array(rows), np.array(cols)))
    return components


def ref_render_pixels(scene, raster):
    """Full-frame rasterization on the frame's own pixel grid."""
    mpp, origin = raster.meters_per_pixel, raster.world_origin
    xs = origin.x + mpp * np.arange(raster.width)
    ys = origin.y - mpp * np.arange(raster.height)
    X, Y = np.meshgrid(xs, ys)
    pixels = np.zeros((raster.height, raster.width), dtype=np.uint8)
    for poly in scene.obstacles:
        inside = np.zeros(X.shape, dtype=bool)
        for p, q in poly.edges():
            straddles = (p.y > Y) != (q.y > Y)
            with np.errstate(divide="ignore", invalid="ignore"):
                x_cross = p.x + (Y - p.y) * (q.x - p.x) / (q.y - p.y)
            inside ^= straddles & (X < x_cross)
        pixels[inside] = 90
    for u in scene.users:
        pixels[(X - u.x) ** 2 + (Y - u.y) ** 2 <= 0.5 ** 2] = 200
    return pixels


def pixel_sets(components):
    return [sorted(zip(rows.tolist(), cols.tolist())) for rows, cols in components]


def contour_points(seed):
    """A traced obstacle contour, as approx_polygon sees it before the cut."""
    scene = random_scene(SceneGenConfig(n_ris=6, n_users=4),
                         np.random.default_rng(seed))
    raster = render_top_view(scene, 512, 19.0)
    obstacle = next(o for o in detect_objects(raster) if o.category == "obstacle")
    edges = canny_edges(crop(raster, obstacle.bbox, 6)) > 0
    rows, cols = vision._connected_components(edges)[0]
    component = np.zeros_like(edges)
    component[rows, cols] = True
    trace = vision._moore_trace(component, min(zip(rows.tolist(), cols.tolist())))
    return np.array(trace, dtype=np.float64)


@pytest.mark.parametrize("shape", ["empty", "full", "single", "checkerboard",
                                   "filaments", "random"])
def test_components_match_flood_fill(shape):
    rng = np.random.default_rng(17)
    masks = []
    if shape == "empty":
        masks = [np.zeros((9, 13), bool)]
    elif shape == "full":
        masks = [np.ones((9, 13), bool), np.ones((1, 1), bool)]
    elif shape == "single":
        for r, c in ((0, 0), (4, 6), (8, 12)):
            m = np.zeros((9, 13), bool)
            m[r, c] = True
            masks.append(m)
    elif shape == "checkerboard":
        # every contact is diagonal: one component, none if diagonals were
        # not neighbors
        masks = [np.indices((10, 11)).sum(axis=0) % 2 == 0,
                 np.eye(12, dtype=bool), np.eye(12, dtype=bool)[::-1]]
        stairs = np.zeros((8, 16), bool)
        for r in range(8):
            stairs[r, 2 * r] = stairs[r, 2 * r + 1] = True
        masks.append(stairs)
    elif shape == "filaments":
        m = np.zeros((20, 30), bool)
        m[2, 1:28] = True                # horizontal line
        m[3:18, 27] = True               # vertical line joined to it
        m[5:15, 5] = True                # separate vertical line
        m[10, 7:20] = True               # separate horizontal line
        for k in range(8):
            m[12 + k % 2, 22 + k // 2] = True  # zig-zag
        m[18, 2] = True
        masks.append(m)
        masks.append(m.T.copy())
    else:
        for density in (0.1, 0.3, 0.5, 0.7):
            masks.append(rng.random((31, 37)) < density)
    for mask in masks:
        got = vision._connected_components(mask)
        want = ref_components(mask)
        assert pixel_sets(got) == pixel_sets(want)
    if shape == "checkerboard":
        assert all(len(vision._connected_components(m)) == 1 for m in masks)


def test_arc_table_matches_scalar_deviation():
    pts = contour_points(5)
    n = len(pts)
    rng = np.random.default_rng(1)
    arcs = [(int(i), int(j)) for i, j in rng.integers(0, n, (300, 2))]
    arcs += [(n - 3, 2), (0, n - 1), (n - 1, 0), (7, 7)]  # wrapped, whole, point
    table = vision._ArcTable(pts)
    table.fill(arcs[:40])
    table.fill(arcs)  # the second call only computes what is missing
    for i, j in arcs:
        assert table.dev[i, j] == ref_arc_deviation(pts, i, j)


def test_arc_table_zero_length_chord():
    # a contour that passes the same pixel twice (a spur) has arcs whose
    # chord has zero length; those fall back to the distance from the point
    pts = np.array([[0, 0], [0, 1], [0, 2], [1, 2], [0, 2], [0, 3], [1, 1]],
                   dtype=np.float64)
    table = vision._ArcTable(pts)
    arcs = [(2, 4), (4, 2), (2, 2), (0, 6), (1, 4)]
    table.fill(arcs)
    assert table.dev[2, 4] == ref_arc_deviation(pts, 2, 4) == 1.0
    for i, j in arcs:
        assert table.dev[i, j] == ref_arc_deviation(pts, i, j)


@pytest.mark.parametrize("seed", [5, 9, 21])
def test_relocation_and_pruning_match_scalar_loops(seed):
    pts = contour_points(seed)
    n = len(pts)
    rng = np.random.default_rng(seed)
    for count in (3, 4, 6, 9):
        kept = sorted(rng.choice(n, count, replace=False).tolist())
        table = vision._ArcTable(pts)
        assert vision._adjust_cyclic(table, kept) == ref_adjust_cyclic(pts, kept)
        assert vision._adjust_cyclic(table, kept, radius=3, sweeps=2) == \
            ref_adjust_cyclic(pts, kept, radius=3, sweeps=2)
        for eps in (1.0, 2.0, 6.0):
            assert vision._prune_cyclic(table, kept, eps) == \
                ref_prune_cyclic(pts, kept, eps)
        assert vision._polygon_deviation(table, kept) == \
            ref_polygon_deviation(pts, kept)


def test_fast_chain_matches_scalar_chain(monkeypatch):
    gen = SceneGenConfig(n_ris=6, n_users=4)
    rng = np.random.default_rng(31)
    scenes = [random_scene(gen, rng) for _ in range(40)]
    rasters = [render_top_view(s, 512, gen.region + 1.0) for s in scenes]
    made = []
    approx = vision.approx_polygon
    monkeypatch.setattr(vision, "approx_polygon",
                        lambda edges, eps: made.append(approx(edges, eps)) or made[-1])

    def run():
        made.clear()
        out = []
        for scene, raster in zip(scenes, rasters):
            rec = recover_scene(raster, scene.ris_positions, scene.kappa)
            out.append((detect_objects(raster),
                        [(u.x, u.y) for u in rec.users],
                        [[(v.x, v.y) for v in ob.vertices] for ob in rec.obstacles]))
        return out, [vs.vertices for vs in made]

    fast, fast_vertices = run()
    monkeypatch.setattr(vision, "_connected_components", ref_components)
    monkeypatch.setattr(vision, "_adjust_cyclic",
                        lambda arcs, kept, radius=8, sweeps=12:
                        ref_adjust_cyclic(arcs.pts, kept, radius, sweeps))
    monkeypatch.setattr(vision, "_prune_cyclic",
                        lambda arcs, kept, eps, radius=8:
                        ref_prune_cyclic(arcs.pts, kept, eps, radius))
    slow, slow_vertices = run()
    assert fast == slow
    assert len(fast_vertices) == len(slow_vertices) >= 40
    for a, b in zip(fast_vertices, slow_vertices):
        assert np.array_equal(a, b)


def test_render_matches_full_frame_fill():
    gen = SceneGenConfig(n_ris=6, n_users=4)
    rng = np.random.default_rng(8)
    for k in range(200):
        scene = random_scene(gen, rng)
        raster = render_top_view(scene, 512, gen.region + 1.0)
        assert np.array_equal(raster.pixels, ref_render_pixels(scene, raster))
        # the outermost vertex or disc edge on the frame border; every other
        # frame is taller than wide
        tight = max([max(abs(v.x), abs(v.y)) for ob in scene.obstacles
                     for v in ob.vertices]
                    + [max(abs(u.x), abs(u.y)) + 0.5 for u in scene.users])
        raster = render_top_view(scene, (256, 256 + 64 * (k % 2)), tight)
        assert np.array_equal(raster.pixels, ref_render_pixels(scene, raster))


def test_render_boundaries_on_pixel_centers():
    # the even-odd rule fills a row that runs exactly along a polygon's
    # bottom edge; drawing on the bounding box must keep that row
    frame = render_top_view(Scene(), 128, half_extent=6.4)
    mpp, origin = frame.meters_per_pixel, frame.world_origin
    xs = origin.x + mpp * np.arange(128)
    ys = origin.y - mpp * np.arange(128)
    for r in range(5, 126):
        c = 2 + (7 * r) % 110
        x0, x1, y0 = xs[c], xs[c + 5], ys[r]
        rect = Polygon([Point2(x0, y0), Point2(x1, y0),
                        Point2(x1, y0 + 0.35), Point2(x0, y0 + 0.35)])
        scene = Scene(obstacles=[rect])
        raster = render_top_view(scene, 128, half_extent=6.4)
        want = ref_render_pixels(scene, raster)
        assert want[r].any()
        assert np.array_equal(raster.pixels, want)
