"""Recovering scene geometry from a rendered top-view frame.

The pipeline substitutes a deterministic classical stack for a learned
detector while keeping the same stages and interfaces: render the top view
with intensity-coded content, find objects as connected components with a
category score per blob, crop each object with margin, run Canny edge
detection on obstacle crops, trace the boundary contour and simplify it to
a polygon, and map everything back to world coordinates through the
raster's meter grid. Users are filled discs at intensity 200, obstacles
filled polygons at intensity 90, background 0.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import fileio
from .geometry import Point2, Polygon

USER_LEVEL = 200
OBSTACLE_LEVEL = 90
USER_RADIUS_M = 0.5

# recovery settings: the crop margin around each detected object and the
# polygon simplification tolerance, both in pixels
_CROP_MARGIN_PX = 6
_POLYGON_EPSILON_PX = 2.0

_SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
_SOBEL_Y = _SOBEL_X.T


def _gaussian_kernel(radius=2, sigma=1.4):
    ax = np.arange(-radius, radius + 1, dtype=np.float64)
    xx, yy = np.meshgrid(ax, ax)
    k = np.exp(-(xx ** 2 + yy ** 2) / (2.0 * sigma ** 2))
    return k / k.sum()


_GAUSS5 = _gaussian_kernel()


# --- raster -------------------------------------------------------------------------

@dataclass(frozen=True)
class Raster:
    """A grayscale top-view frame with its world mapping.

    world_origin is the world point at the center of pixel (0, 0); x grows
    with columns and y decreases with rows, so the image keeps the usual
    top-down orientation of a map.
    """

    pixels: np.ndarray
    meters_per_pixel: float
    world_origin: Point2

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 2 or px.size == 0:
            raise ValueError("pixels must be a nonempty 2D array")
        if px.dtype != np.uint8:
            if np.any(px < 0) or np.any(px > 255):
                raise ValueError("intensities must lie in [0, 255]")
            px = px.astype(np.uint8)
        mpp = float(self.meters_per_pixel)
        if not np.isfinite(mpp) or mpp <= 0.0:
            raise ValueError("meters_per_pixel must be positive")
        if not isinstance(self.world_origin, Point2):
            raise ValueError("world_origin must be a Point2")
        object.__setattr__(self, "pixels", px)
        object.__setattr__(self, "meters_per_pixel", mpp)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def pixel_center(self, row, col) -> Point2:
        return Point2(self.world_origin.x + col * self.meters_per_pixel,
                      self.world_origin.y - row * self.meters_per_pixel)

    def world_to_pixel(self, point: Point2):
        """Fractional (row, col) of a world point."""
        col = (point.x - self.world_origin.x) / self.meters_per_pixel
        row = (self.world_origin.y - point.y) / self.meters_per_pixel
        return row, col


# --- rendering ----------------------------------------------------------------------

def _fill_polygon_mask(poly: Polygon, xs, ys):
    """Even-odd interior mask on the pixel-center grid."""
    X, Y = np.meshgrid(xs, ys)
    inside = np.zeros(X.shape, dtype=bool)
    for p, q in poly.edges():
        straddles = (p.y > Y) != (q.y > Y)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_cross = p.x + (Y - p.y) * (q.x - p.x) / (q.y - p.y)
        inside ^= straddles & (X < x_cross)
    return inside


def render_top_view(scene, resolution, half_extent=None) -> Raster:
    """Rasterize a scene around the transmitter at the origin.

    resolution is a pixel count for a square frame or a (width, height)
    pair, at least 64 on each side. half_extent fixes the world half-width
    covered by the frame; by default it fits the rendered content (users
    and obstacles) with a 10% pad. Content ending up outside an explicit
    extent is an error rather than a silent clip.
    """
    if np.isscalar(resolution):
        width = height = int(resolution)
    else:
        width, height = (int(r) for r in resolution)
    if width < 64 or height < 64:
        raise ValueError("resolution must be at least 64 pixels per side")

    reach = [0.0]
    for u in scene.users:
        reach.append(max(abs(u.x), abs(u.y)) + USER_RADIUS_M)
    for poly in scene.obstacles:
        for v in poly.vertices:
            reach.append(max(abs(v.x), abs(v.y)))
    if half_extent is None:
        content = max(reach)
        half_extent = 1.1 * content if content > 0.0 else 10.0
    half_extent = float(half_extent)
    mpp = 2.0 * half_extent / width
    half_y = mpp * height / 2.0
    limit_x, limit_y = half_extent, half_y
    for u in scene.users:
        if abs(u.x) + USER_RADIUS_M > limit_x or abs(u.y) + USER_RADIUS_M > limit_y:
            raise ValueError(f"user at ({u.x}, {u.y}) falls outside the frame")
    for poly in scene.obstacles:
        for v in poly.vertices:
            if abs(v.x) > limit_x or abs(v.y) > limit_y:
                raise ValueError(f"obstacle vertex ({v.x}, {v.y}) falls outside the frame")

    origin = Point2(-half_extent + mpp / 2.0, half_y - mpp / 2.0)
    xs = origin.x + mpp * np.arange(width)
    ys = origin.y - mpp * np.arange(height)

    def window(x_lo, x_hi, y_lo, y_hi):
        """Pixel slices covering a world box, padded by one pixel so that
        rounding in the world-to-pixel step never cuts off a boundary
        pixel."""
        c0 = math.floor((x_lo - origin.x) / mpp) - 1
        c1 = math.floor((x_hi - origin.x) / mpp) + 2
        r0 = math.floor((origin.y - y_hi) / mpp) - 1
        r1 = math.floor((origin.y - y_lo) / mpp) + 2
        return (slice(max(r0, 0), min(r1, height)),
                slice(max(c0, 0), min(c1, width)))

    # Each shape is drawn on its bounding box only. That is exact: no
    # polygon edge straddles a pixel row outside the box, a row's
    # crossings left of the box come in pairs, and disc pixels outside it
    # lie farther than the radius from the center.
    pixels = np.zeros((height, width), dtype=np.uint8)
    for poly in scene.obstacles:
        vx = [v.x for v in poly.vertices]
        vy = [v.y for v in poly.vertices]
        rows, cols = window(min(vx), max(vx), min(vy), max(vy))
        pixels[rows, cols][_fill_polygon_mask(poly, xs[cols], ys[rows])] = \
            OBSTACLE_LEVEL
    r = USER_RADIUS_M
    for u in scene.users:
        rows, cols = window(u.x - r, u.x + r, u.y - r, u.y + r)
        disc = ((xs[cols][None, :] - u.x) ** 2
                + (ys[rows][:, None] - u.y) ** 2 <= r ** 2)
        pixels[rows, cols][disc] = USER_LEVEL
    return Raster(pixels=pixels, meters_per_pixel=mpp, world_origin=origin)


# --- object detection ---------------------------------------------------------------

@dataclass(frozen=True)
class DetectedObject:
    category: str
    score: float
    bbox: tuple  # (x, y, w, h) in pixels


def _connected_components(mask):
    """8-connected components in deterministic scan order; each is an
    (rows, cols) index pair.

    The mask is cut into horizontal runs of set pixels. Two runs on
    adjacent rows belong together when their column spans overlap or touch
    diagonally, and union-find merges them. Components come out ordered
    by their first pixel in row-major scan, as a flood fill started from
    each unvisited pixel in turn would find them; within a component the
    pixels are listed run by run.
    """
    mask = np.asarray(mask, dtype=np.int8)
    steps = np.zeros((mask.shape[0], mask.shape[1] + 1), dtype=np.int8)
    steps[:, :-1] = mask
    steps[:, 1:] -= mask  # +1 where a run starts, -1 just past its end
    # in scan order every run's start is followed by its (exclusive) end;
    # keyed as row * stride + column, they sort the runs row by row
    bounds = np.flatnonzero(steps)
    if bounds.size == 0:
        return []
    stride = steps.shape[1]
    key_start, key_end = bounds[0::2], bounds[1::2]
    run_row, start = np.divmod(key_start, stride)

    # The runs of the row above that touch a run form one contiguous
    # block: those ending at or after its start and starting at or before
    # its end. Both bounds reach one column further for diagonal contact.
    lo = np.searchsorted(key_end, key_start - stride, side="left")
    hi = np.searchsorted(key_start, key_end - stride, side="right")
    count = np.maximum(hi - lo, 0)
    lower = np.repeat(np.arange(run_row.size), count)
    upper = (np.arange(count.sum())
             + np.repeat(lo - (np.cumsum(count) - count), count))

    parent = list(range(run_row.size))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p, q in zip(upper.tolist(), lower.tolist()):
        rp, rq = root(p), root(q)
        if rp != rq:  # the earlier run in scan order stays the root
            parent[max(rp, rq)] = min(rp, rq)
    label = np.array([root(x) for x in range(run_row.size)])

    order = np.argsort(label, kind="stable")
    length = (key_end - key_start)[order]
    first = np.cumsum(length) - length
    rows = np.repeat(run_row[order], length)
    cols = np.arange(length.sum()) + np.repeat(start[order] - first, length)
    _, heads = np.unique(label[order], return_index=True)
    cuts = first[heads[1:]]
    return list(zip(np.split(rows, cuts), np.split(cols, cuts)))


def detect_objects(raster: Raster, threshold=0.5):
    """Blob detection with a fill-fraction score per bounding box.

    Each connected component of non-background pixels becomes one object;
    the category comes from the dominant intensity level and the score is
    the fraction of the bounding box the component fills. Objects scoring
    below the threshold are suppressed.
    """
    threshold = float(threshold)
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    objects = []
    for rows, cols in _connected_components(raster.pixels > 0):
        r0, r1 = rows.min(), rows.max()
        c0, c1 = cols.min(), cols.max()
        w, h = int(c1 - c0 + 1), int(r1 - r0 + 1)
        score = rows.size / float(w * h)
        if score < threshold:
            continue
        values = raster.pixels[rows, cols]
        n_user = int(np.count_nonzero(values == USER_LEVEL))
        n_obstacle = int(np.count_nonzero(values == OBSTACLE_LEVEL))
        category = "user" if n_user >= n_obstacle else "obstacle"
        objects.append(DetectedObject(category=category, score=float(score),
                                      bbox=(int(c0), int(r0), w, h)))
    return objects


def crop(raster: Raster, bbox, margin_px=0) -> Raster:
    """Sub-raster around a bounding box, expanded by a margin and clamped
    to the frame; the world mapping moves with the cut."""
    x, y, w, h = (int(v) for v in bbox)
    margin = int(margin_px)
    if w < 1 or h < 1:
        raise ValueError("bbox must have positive size")
    if margin < 0:
        raise ValueError("margin_px must be nonnegative")
    c0, r0 = max(0, x - margin), max(0, y - margin)
    c1 = min(raster.width, x + w + margin)
    r1 = min(raster.height, y + h + margin)
    if c0 >= c1 or r0 >= r1:
        raise ValueError("bbox does not intersect the raster")
    return Raster(pixels=raster.pixels[r0:r1, c0:c1].copy(),
                  meters_per_pixel=raster.meters_per_pixel,
                  world_origin=raster.pixel_center(r0, c0))


# --- edges --------------------------------------------------------------------------

def _convolve_replicate(img, kernel):
    kh, kw = kernel.shape
    padded = np.pad(img, ((kh // 2,) * 2, (kw // 2,) * 2), mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw))
    return np.einsum("ijkl,kl->ij", windows, kernel)


def canny_edges(raster, low=40.0, high=100.0):
    """Classical edge chain: Gaussian blur, Sobel gradients, non-maximum
    suppression along the gradient, double threshold with hysteresis.

    Thresholds apply to the raw Sobel magnitude, where an isolated step of
    contrast C peaks around 2.2 C after the blur. Returns a {0,1} map.
    """
    low, high = float(low), float(high)
    if not 0.0 <= low < high <= 255.0:
        raise ValueError("need 0 <= low < high <= 255")
    img = (raster.pixels if isinstance(raster, Raster) else
           np.asarray(raster)).astype(np.float64)
    smooth = _convolve_replicate(img, _GAUSS5)
    gx = _convolve_replicate(smooth, _SOBEL_X)
    gy = _convolve_replicate(smooth, _SOBEL_Y)
    mag = np.hypot(gx, gy)
    hgt, wdt = mag.shape

    # non-maximum suppression: compare against the two neighbors along the
    # quantized gradient direction (y grows downward)
    angle = np.mod(np.arctan2(gy, gx), np.pi)
    padded = np.pad(mag, 1)

    def shifted(dr, dc):
        return padded[1 + dr:1 + dr + hgt, 1 + dc:1 + dc + wdt]

    bins = ((angle < np.pi / 8) | (angle >= 7 * np.pi / 8),
            (angle >= np.pi / 8) & (angle < 3 * np.pi / 8),
            (angle >= 3 * np.pi / 8) & (angle < 5 * np.pi / 8),
            (angle >= 5 * np.pi / 8) & (angle < 7 * np.pi / 8))
    pairs = (((0, 1), (0, -1)), ((1, 1), (-1, -1)),
             ((1, 0), (-1, 0)), ((1, -1), (-1, 1)))
    ahead = np.zeros_like(mag)
    behind = np.zeros_like(mag)
    for sel, (fwd, back) in zip(bins, pairs):
        ahead[sel] = shifted(*fwd)[sel]
        behind[sel] = shifted(*back)[sel]
    ridge = (mag >= ahead) & (mag >= behind) & (mag > 0.0)

    return _hysteresis(ridge, mag, low, high)


def _hysteresis(ridge, mag, low, high):
    """Double threshold with hysteresis: every 8-connected component of
    ridge pixels at or above low that reaches high somewhere is an edge."""
    edges = np.zeros(mag.shape, dtype=np.uint8)
    for rows, cols in _connected_components(ridge & (mag >= low)):
        if (mag[rows, cols] >= high).any():
            edges[rows, cols] = 1
    return edges


# --- contour tracing and simplification ---------------------------------------------

_CLOCKWISE8 = [(-1, 0), (-1, 1), (0, 1), (1, 1),
               (1, 0), (1, -1), (0, -1), (-1, -1)]


def _moore_trace(mask, start):
    """Walk the boundary clockwise from `start` (a top-leftmost component
    pixel, so its west neighbor is background). Stops on the classical
    revisit criterion: arriving at the start with the original backtrack.

    On spurs and one-pixel-wide filaments that criterion can never fire
    (the original backtrack cell is approached from elsewhere every pass),
    so re-entering the start with any previously seen backtrack also
    stops the walk, truncated to the first full orbit."""
    h, w = mask.shape

    def is_set(p):
        return 0 <= p[0] < h and 0 <= p[1] < w and mask[p[0], p[1]]

    b0 = (start[0], start[1] - 1)
    contour = [start]
    cur, back = start, b0
    arrivals = {}
    limit = 4 * int(mask.sum()) + 8
    for _ in range(limit):
        bi = _CLOCKWISE8.index((back[0] - cur[0], back[1] - cur[1]))
        nxt = None
        for step in range(1, 9):
            idx = (bi + step) % 8
            cand = (cur[0] + _CLOCKWISE8[idx][0], cur[1] + _CLOCKWISE8[idx][1])
            if is_set(cand):
                prev = (cur[0] + _CLOCKWISE8[(idx - 1) % 8][0],
                        cur[1] + _CLOCKWISE8[(idx - 1) % 8][1])
                nxt = (cand, prev)
                break
        if nxt is None:
            break  # isolated pixel
        cur, back = nxt
        if cur == start:
            if back == b0:
                break
            if back in arrivals:
                del contour[arrivals[back]:]  # keep exactly one orbit
                break
            arrivals[back] = len(contour)
        contour.append(cur)
    return contour


def _perpendicular_distances(points, a, b):
    d = b - a
    n = np.hypot(*d)
    if n == 0.0:
        return np.hypot(points[:, 0] - a[0], points[:, 1] - a[1])
    return np.abs((points[:, 0] - a[0]) * d[1] - (points[:, 1] - a[1]) * d[0]) / n


def _douglas_peucker(points, eps):
    """Indices kept by the classic open-path simplification."""
    keep = np.zeros(len(points), dtype=bool)
    keep[0] = keep[-1] = True
    stack = [(0, len(points) - 1)]
    while stack:
        i, j = stack.pop()
        if j <= i + 1:
            continue
        seg = points[i + 1:j]
        dists = _perpendicular_distances(seg, points[i], points[j])
        worst = int(np.argmax(dists))
        if dists[worst] > eps:
            k = i + 1 + worst
            keep[k] = True
            stack.append((i, k))
            stack.append((k, j))
    return np.nonzero(keep)[0]


class _ArcTable:
    """Chord deviations of one closed contour's arcs, each computed once.

    Arc (i, j) runs forward along the contour from index i to index j,
    wrapping past the end, and its deviation is the largest distance from
    its points to the chord (i, j). The row and column coordinates are
    kept doubled, so a wrapped arc is a single slice. `dev` maps
    (i, j) to the deviation of every arc computed so far; the relocation
    and elimination passes ask for the same arcs many times over, and
    `moves` likewise keeps each relocation window's outcome.
    """

    def __init__(self, pts):
        self.pts = pts
        self.rows, self.cols = np.tile(pts[:, 0], 2), np.tile(pts[:, 1], 2)
        self.dev = {}
        self.moves = {}  # (a, vertex, b, radius) -> _adjust_cyclic's pick

    def fill(self, arcs):
        """Compute the deviations of the listed (i, j) arcs not yet in the
        table, in one padded array call.

        The elementwise arithmetic is _perpendicular_distances', zero-length
        chords included, so every value is the one a single-arc call would
        give. Short arcs are padded by repeating their end point, which
        lies on the chord and so leaves the maximum alone."""
        dev = self.dev
        missing = list({arc: None for arc in arcs if arc not in dev})
        if not missing:
            return
        i, j = np.array(missing).T
        last = (j - i) % len(self.pts)
        idx = i[:, None] + np.minimum(np.arange(last.max() + 1),
                                      last[:, None])
        ar, ac = self.rows[i], self.cols[i]
        dr, dc = self.rows[j] - ar, self.cols[j] - ac
        norm = np.hypot(dr, dc)
        er = self.rows[idx] - ar[:, None]
        ec = self.cols[idx] - ac[:, None]
        zero = norm == 0.0
        dist = (np.abs(er * dc[:, None] - ec * dr[:, None])
                / np.where(zero, 1.0, norm)[:, None])
        if zero.any():
            dist[zero] = np.hypot(er[zero], ec[zero])
        dev.update(zip(missing, dist.max(axis=1).tolist()))


def _polygon_deviation(arcs, kept):
    """Max contour-to-chord deviation over all edges of the kept polygon."""
    edges = [(kept[t], kept[(t + 1) % len(kept)]) for t in range(len(kept))]
    arcs.fill(edges)
    return max(arcs.dev[e] for e in edges)


def _prune_cyclic(arcs, kept, eps, radius=8):
    """Backward elimination on a closed polygon: drop any kept vertex whose
    removal leaves the polygon within eps of the contour. The split-path
    simplification keeps both cut anchors unconditionally, so without this
    pass an anchor that lands a couple of pixels from a real corner would
    survive next to the true corner vertex. When no plain removal fits,
    each removal is retried with the survivors re-slid along the contour,
    which escapes configurations pinned by an off-corner vertex."""
    kept = list(kept)
    while len(kept) > 3:
        bridges = [(kept[t - 1], kept[(t + 1) % len(kept)])
                   for t in range(len(kept))]
        arcs.fill(bridges)
        best_trial, lowest = None, eps
        for t, bridge in enumerate(bridges):
            dev = arcs.dev[bridge]
            if dev <= lowest:
                best_trial, lowest = kept[:t] + kept[t + 1:], dev
        if best_trial is None:
            for t in range(len(kept)):
                trial = _adjust_cyclic(arcs, kept[:t] + kept[t + 1:],
                                       radius=radius, sweeps=4)
                dev = _polygon_deviation(arcs, trial)
                if dev <= lowest:
                    best_trial, lowest = trial, dev
        if best_trial is None:
            break
        kept = best_trial
    return kept


def _adjust_cyclic(arcs, kept, radius=8, sweeps=12):
    """Slide each kept vertex along the contour (within a small window) to
    the spot that minimizes the worse of its two arc deviations. Splitting
    tends to land vertices on the shoulders beside a rounded corner; this
    relocation walks them onto the corner apex.

    A vertex's window is its current index followed by every candidate
    within `radius` that lies strictly inside the arc between its
    neighbors. The arcs from the previous neighbor to each candidate and
    on to the next neighbor that the table lacks are computed in one
    batch, then the candidates are compared in window order: a candidate
    wins only by more than 1e-12. The winner depends on the two neighbors,
    the vertex and the radius alone, so the table keeps it for the next
    sweep or trial that asks again."""
    n = len(arcs.pts)
    dev, moves = arcs.dev, arcs.moves
    kept = list(kept)
    for _ in range(sweeps):
        moved = False
        for t in range(len(kept)):
            a, cur, b = kept[t - 1], kept[t], kept[(t + 1) % len(kept)]
            key = (a, cur, b, radius)
            if key not in moves:
                span = (b - a) % n
                window = [cur] + [
                    cand for cand in ((cur + off) % n
                                      for off in range(-radius, radius + 1))
                    if cand not in (a, b, cur) and (cand - a) % n < span]
                arcs.fill([(a, c) for c in window] + [(c, b) for c in window])
                best_idx, best_dev = cur, max(dev[a, cur], dev[cur, b])
                for cand in window[1:]:
                    cand_dev = max(dev[a, cand], dev[cand, b])
                    if cand_dev < best_dev - 1e-12:
                        best_idx, best_dev = cand, cand_dev
                moves[key] = best_idx
            if moves[key] != cur:
                kept[t] = moves[key]
                moved = True
        if not moved:
            break
    return sorted(kept)


def _refine_corners(pts, idx, trim=4, cap=5.0):
    """Subpixel corner estimates: intersect line fits of adjacent edges.

    The detector's blur rounds convex corners, so the traced contour
    stops a few pixels short of each true apex and no on-contour vertex
    can represent it exactly. The straight runs between corners stay
    faithful, though; intersecting the total-least-squares lines of the
    two arcs meeting at a vertex extrapolates the apex back. Arcs too
    short to trim are used whole, and the contour vertex is kept when
    the fit degenerates (near-parallel edges, runaway intersection).
    """
    n = len(pts)
    m = len(idx)
    lines = []
    for e in range(m):
        a, b = idx[e], idx[(e + 1) % m]
        span = (b - a) % n
        offsets = range(trim, span - trim + 1)
        if len(offsets) < trim:
            offsets = range(span + 1)  # short edge: no room to trim ends
        seg = pts[[(a + o) % n for o in offsets]]
        center = seg.mean(axis=0)
        spread = seg - center
        _, vecs = np.linalg.eigh(spread.T @ spread)
        lines.append((center, vecs[:, -1]))
    out = []
    for e in range(m):
        c1, d1 = lines[(e - 1) % m]  # edge arriving at this vertex
        c2, d2 = lines[e]            # edge leaving it
        vertex = pts[idx[e]]
        denom = d1[0] * d2[1] - d1[1] * d2[0]
        if abs(denom) > 1e-9:
            rhs = c2 - c1
            t = (rhs[0] * d2[1] - rhs[1] * d2[0]) / denom
            cand = c1 + t * d1
            if np.hypot(*(cand - vertex)) <= cap:
                vertex = cand
        out.append(vertex)
    return np.array(out, dtype=np.float64)


def approx_polygon(edge_map, epsilon_px) -> np.ndarray:
    """Trace the longest closed contour of a binary edge map and simplify
    it to a polygon at the given pixel tolerance; returns the (M, 2)
    vertices in pixel coordinates (x = column, y = row), in contour order.

    The closed loop is cut at its two farthest-apart points (found with the
    usual double sweep) so the open-path simplification runs on both arcs.
    Anchoring the cut at the diameter keeps the anchors on true extremes of
    the shape instead of arbitrary trace-start pixels, which matters for
    hitting sharp corners dead on.

    The relocation and elimination rounds that follow share one _ArcTable
    for the contour, so each arc's chord deviation is computed once per
    call however often the rounds ask for it.
    """
    eps = float(epsilon_px)
    if eps <= 0.0:
        raise ValueError("epsilon_px must be positive")
    mask = np.asarray(edge_map) > 0
    best = None
    for rows, cols in _connected_components(mask):
        if rows.size < 3:
            continue  # too small to close a loop
        component = np.zeros_like(mask)
        component[rows, cols] = True
        top_left = min(zip(rows.tolist(), cols.tolist()))
        contour = _moore_trace(component, top_left)
        if best is None or len(contour) > len(best):
            best = contour
    if best is None or len(best) < 3:
        raise ValueError("no closed contour found in the edge map")
    pts = np.array(best, dtype=np.float64)  # (row, col)

    def farthest_from(i):
        return int(np.argmax(np.hypot(pts[:, 0] - pts[i, 0],
                                      pts[:, 1] - pts[i, 1])))

    a = farthest_from(0)
    b = farthest_from(a)
    if a == b:
        raise ValueError("contour is degenerate")
    i, j = sorted((a, b))
    pts = np.roll(pts, -i, axis=0)
    j -= i
    first = _douglas_peucker(pts[:j + 1], eps)
    second = _douglas_peucker(np.vstack([pts[j:], pts[:1]]), eps) + j
    idx = np.unique(np.concatenate([first, second]))
    idx = idx[idx < len(pts)]  # the closing repeat of the cut point drops out
    idx = idx.tolist()
    arcs = _ArcTable(pts)
    for _ in range(6):  # alternate relocation and elimination until stable
        refined = _prune_cyclic(arcs, _adjust_cyclic(arcs, idx), eps)
        if refined == idx:
            break
        idx = refined
    verts = _refine_corners(pts, idx)
    return np.column_stack([verts[:, 1], verts[:, 0]])  # (x, y)


# --- world-coordinate recovery ------------------------------------------------------

def recover_coordinates(objects, raster: Raster):
    """Map detected objects back to world space.

    Users become the centroid of their intensity-200 pixels; obstacles go
    through edge detection (canny_edges' default thresholds), contour
    tracing and polygon simplification on a margin-padded crop. Returns (user points, obstacle polygons) in
    detection order.
    """
    users, polygons = [], []
    for obj in objects:
        sub = crop(raster, obj.bbox, _CROP_MARGIN_PX)
        if obj.category == "user":
            rows, cols = np.nonzero(sub.pixels == USER_LEVEL)
            if rows.size == 0:
                raise ValueError("user object contains no user-level pixels")
            users.append(sub.pixel_center(rows.mean(), cols.mean()))
        else:
            vertices = approx_polygon(canny_edges(sub), _POLYGON_EPSILON_PX)
            polygons.append(Polygon([sub.pixel_center(y, x) for x, y in vertices]))
    return users, polygons


def recover_scene(raster: Raster, ris_positions, kappa):
    """Full frame-to-scene path: detect (detect_objects' default
    threshold), recover, and attach the known surface positions and
    attenuation coefficient."""
    from .geometry import Scene

    users, obstacles = recover_coordinates(detect_objects(raster), raster)
    return Scene(ris_positions=ris_positions, users=users,
                 obstacles=obstacles, kappa=kappa)


# --- raster files -------------------------------------------------------------------

def save_raster(path, raster: Raster) -> None:
    """Write a binary PGM (P5) plus a JSON sidecar with the world mapping,
    both replaced atomically, the sidecar first."""
    header = f"P5\n{raster.width} {raster.height}\n255\n".encode("ascii")
    sidecar = {"meters_per_pixel": raster.meters_per_pixel,
               "world_origin": [raster.world_origin.x, raster.world_origin.y]}
    fileio.write_files((str(path) + ".json", fileio.json_text(sidecar)),
                       (path, header + raster.pixels.tobytes()))


def load_raster(path) -> Raster:
    """Read a PGM written by save_raster; the sidecar is required because
    the pixels alone carry no world mapping."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path} is not a binary PGM file")

    # header: magic, width, height, maxval, then one whitespace byte
    tokens, pos = [], 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    pos += 1
    width, height, maxval = (int(t) for t in tokens)
    if maxval != 255:
        raise ValueError("only 8-bit PGM rasters are supported")
    expected = width * height
    body = data[pos:pos + expected]
    if len(body) != expected:
        raise ValueError(f"{path} is truncated")
    sidecar_path = str(path) + ".json"
    if not os.path.exists(sidecar_path):
        raise ValueError(f"raster sidecar {sidecar_path} is missing")
    with open(sidecar_path) as fh:
        meta = json.load(fh)
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(height, width).copy()
    return Raster(pixels=pixels, meters_per_pixel=meta["meters_per_pixel"],
                  world_origin=Point2(*meta["world_origin"]))
