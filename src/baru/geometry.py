"""Image geometry of a profile: the set of achievable expected-utility
vectors across the concerned agents.

On a common refinement of the concerned beliefs every act can be replaced,
without changing anyone's expectation, by per-segment allocation fractions;
the image of all acts is therefore the Minkowski sum over segments of the
convex hulls of the per-outcome contribution points.  Its support function
has the closed form

    h(c) = sum over segments of max over outcomes of  c . contribution,

which this module evaluates exactly, along with attaining acts, vertex
recovery by rotating directions, and an exact Minkowski-sum polygon for the
two-agent case, from which `image_gap` measures how far a restricted image
falls short of the full one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from math import atan2, hypot, inf, pi, sqrt
from operator import add
from typing import Sequence

import numpy as np

from .lp import feasible_point
from .measure import Coarsening, TOL_MEASURE, common_grid, pushforward_coarsening
from .prefs import Act, Profile

# Direction-set sizes for support-function work, by dimension.
_DIRS_DIM2 = 720
_DIRS_DIM3 = 1000
_DIRS_HIGH = 2000
_HIGH_DIM_SEED = 20240801


@lru_cache(maxsize=None)
def direction_set(dim: int) -> np.ndarray:
    """Deterministic probing directions: evenly rotated at dimension 2,
    a symmetrised Fibonacci sphere at dimension 3, seeded Gaussian
    directions (also symmetrised) above that.  Built once per dimension
    and shared, so the array is read-only."""
    dirs = _build_direction_set(dim)
    dirs.flags.writeable = False
    return dirs


def _build_direction_set(dim: int) -> np.ndarray:
    if dim < 1:
        raise ValueError("dimension must be positive")
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        angles = 2.0 * pi * np.arange(_DIRS_DIM2) / _DIRS_DIM2
        return np.column_stack([np.cos(angles), np.sin(angles)])
    if dim == 3:
        half = _DIRS_DIM3 // 2
        ks = np.arange(half)
        z = 1.0 - (2.0 * ks + 1.0) / half
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        golden = pi * (3.0 - sqrt(5.0))
        theta = golden * ks
        pts = np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
        return np.vstack([pts, -pts])
    rng = np.random.default_rng(_HIGH_DIM_SEED)
    pts = rng.standard_normal((_DIRS_HIGH // 2, dim))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return np.vstack([pts, -pts])


@dataclass(frozen=True)
class ProfileGeometry:
    """A profile's concerned agents (or a restriction of them) on their
    common grid, as Python-float rows: masses[i][s], the belief mass of
    segment s, and utils[i][x], the utility of outcome x, for concerned
    agent i.  `rows` holds their products, the contribution points, and
    `tensor` the same products for the sampled kernels."""

    agent_ids: tuple[int, ...]
    labels: tuple[str, ...]
    breakpoints: tuple[float, ...]
    masses: tuple[Sequence[float], ...] = field(compare=False)  # n rows of S
    utils: tuple[Sequence[float], ...] = field(compare=False)  # n rows of X

    @property
    def dimension(self) -> int:
        return len(self.agent_ids)

    @cached_property
    def rows(self) -> tuple[list[float], ...]:
        """rows[i][s * X + x] = masses[i][s] * utils[i][x]: agent i's
        contribution points on Python floats, segment after segment, as
        the single-direction oracle and swf1's Frank-Wolfe read them."""
        return tuple([m * u for m in ms for u in us] for ms, us in zip(self.masses, self.utils))

    @cached_property
    def tensor(self) -> np.ndarray:
        """tensor[s, x, i] = masses[i][s] * utils[i][x], the bits of
        rows[i][s * X + x], built on first use by `support_values` and
        `attained_points`."""
        masses, utils = np.array(self.masses), np.array(self.utils)  # (n, S), (n, X)
        return masses.T[:, None, :] * utils.T[None, :, :]  # (S, X, n)


def geometry_for(
    profile: Profile,
    coarsening: Coarsening | None = None,
    labels: Sequence[str] | None = None,
) -> ProfileGeometry:
    """Geometry of the concerned agents' image, optionally restricted to
    acts that factor through `coarsening` into the `labels` subset, which
    `OutcomeSpace.subset` checks.  The grid is the sorted set of the
    beliefs' breakpoints, so no row's bits depend on the agents' order."""
    ids = profile.concerned
    if not ids:
        raise ValueError("image geometry needs at least one concerned agent")
    labs = profile.space.labels if labels is None else profile.space.subset(labels)
    beliefs = [profile.agents[i].belief for i in ids]
    if coarsening:
        beliefs = [pushforward_coarsening(coarsening, d) for d in beliefs]
    bps, masses = common_grid(beliefs)
    utils = tuple(profile.agents[i].utility.values_of(labs) for i in ids)
    return ProfileGeometry(ids, labs, bps, masses, utils)


# One direction on Python floats: the oracle of swf1's Frank-Wolfe, of
# `attaining_act` and of `ImagePolytope.support_of`.  Every sum is a left
# fold, never the builtin `sum`, which compensates from Python 3.12 on.


def _scores(rows: Sequence[Sequence[float]], direction: Sequence[float]) -> list[float]:
    """c . p for every contribution point p of `rows`, a left fold over
    agents from 0.0: 0.0 + c[0] * p[0] + c[1] * p[1] + ..."""
    scores = [0.0] * len(rows[0])
    for c, row in zip(direction, rows, strict=True):
        scores = [a + c * v for a, v in zip(scores, row)]
    return scores


def _picks(scores: Sequence[float], width: int) -> list[int]:
    """In each segment of `width` outcomes, the index of its first point
    of highest score, as numpy's `argmax` picks it."""
    segs = zip(*[iter(scores)] * width)
    return [k * width + seg.index(max(seg)) for k, seg in enumerate(segs)]


def _best_vertex(
    rows: Sequence[Sequence[float]], width: int, scores: Sequence[float]
) -> list[float]:
    """The image vertex that takes each segment's pick (`_picks`); the sum
    over segments is a left fold."""
    picks = _picks(scores, width)
    return [reduce(add, map(row.__getitem__, picks)) for row in rows]


def attaining_act(geom: ProfileGeometry, direction: Sequence[float]) -> Act:
    """An act achieving the support value in the given direction (taking
    the per-segment best outcome; ties break toward the first label)."""
    X, bps = len(geom.labels), geom.breakpoints
    picks = _picks(_scores(geom.rows, direction), X)
    return Act.from_segments(
        (bps[s], bps[s + 1], geom.labels[p - s * X]) for s, p in enumerate(picks)
    )


# The sampled kernels: `_scores`' arithmetic over many directions at once.
# Each step is one elementwise ufunc, which numpy neither fuses nor
# reorders, so no result depends on the host's BLAS kernel.


def _sampled_scores(geom: ProfileGeometry, directions: np.ndarray) -> np.ndarray:
    """The scores of every contribution point in every direction, as
    `_scores` gives them one direction at a time (a left fold over agents
    from 0.0, one multiply and one add per agent), outcome-major, shape
    (X, S, D): the max and argmax over outcomes then run along the leading
    axis, elementwise across segments and directions."""
    S, X, n = geom.tensor.shape
    points = geom.tensor.transpose(1, 0, 2).reshape(X * S, n)
    scores = np.zeros((X * S, directions.shape[0]))
    for i in range(n):
        scores = scores + np.multiply.outer(points[:, i], directions[:, i])
    return scores.reshape(X, S, -1)


def support_values(geom: ProfileGeometry, directions: np.ndarray) -> np.ndarray:
    """h(c) for each probing direction c: each segment's highest score,
    folded left over segments as `support_of` folds them, so each value is
    `support_of` of its direction bit for bit."""
    return reduce(add, _sampled_scores(geom, directions).max(axis=0))


def attained_points(geom: ProfileGeometry, directions: np.ndarray) -> np.ndarray:
    """EV vector of the attaining act for every direction: each segment's
    first point of highest score, as `_picks` takes it, folded left over
    segments, so each row is `_best_vertex` of its direction bit for bit."""
    picks = _sampled_scores(geom, directions).argmax(axis=0)  # (S, D)
    return reduce(add, geom.tensor[np.arange(picks.shape[0])[:, None], picks])


# ---------------------------------------------------------------------------
# exact two-dimensional geometry


# `_hull2d` takes a forward turn o -> a -> p as straight, and drops a, when
# its sine is at most this: cross(a - o, p - o) <= _HULL_SINE * |a - o| * |p - o|
# with (a - o) . (p - o) > 0.  Unlike a bound on the cross product alone,
# this does not depend on scale.  A U-turn, where a - o and p - o point
# nearly opposite ways, has a small sine too, but a is then a vertex.
_HULL_SINE = 1e-14


def _hull2d(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Convex hull, counter-clockwise from the lowest leftmost point, with
    duplicates and straight turns dropped.  A dropped point a may lie up to
    _HULL_SINE * |a - o| outside the chord o -> p that replaced it, so the
    hull is exact only up to such thin turns; drops can chain, and no
    bound on their total is claimed."""
    pts = sorted({(float(x), float(y)) for x, y in points})
    if len(pts) <= 2:
        return pts
    def half(seq):
        out: list[tuple[float, float]] = []
        for p in seq:
            while len(out) >= 2:
                ox, oy = out[-2]
                ax, ay = out[-1]
                ux, uy, vx, vy = ax - ox, ay - oy, p[0] - ox, p[1] - oy
                cross = ux * vy - uy * vx
                if cross <= 0.0 or (
                    cross <= _HULL_SINE * hypot(ux, uy) * hypot(vx, vy) and ux * vx + uy * vy > 0.0
                ):
                    out.pop()
                else:
                    break
            out.append(p)
        return out
    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def _edges(verts: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Edge vectors of a closed CCW vertex list; none for a single point."""
    if len(verts) < 2:
        return []
    return [(qx - px, qy - py) for (px, py), (qx, qy) in zip(verts, verts[1:] + verts[:1])]


def segment_hulls(
    masses: Sequence[Sequence[float]], utils: Sequence[Sequence[float]]
) -> list[tuple[list[tuple[float, float]], list[tuple[float, float]]]]:
    """Per segment, the unscaled CCW vertices and edges (verts, steps) of
    its hull, given both agents' segment masses and outcome utilities:
    segment s's hull is `verts` scaled by diag(m1, m2), with edges
    (m1 ex, m2 ey) for (ex, ey) in `steps`.  The two-agent image is the
    Minkowski sum of these hulls.  Callers scale only what they use.

    Segment s's points are the utility points scaled by diag(m1, m2), as in
    `ProfileGeometry.tensor[s]`.  A positive scaling maps the utility
    points' hull onto the segment's, so the utility points are hulled once
    and every segment with positive masses shares that one (verts, steps)
    pair.  Where an agent has zero mass the segment's points collapse onto
    an axis: its hull runs from the lowest utility point (min u1, min u2)
    to the highest (max u1, max u2), or is the highest alone where the two
    scale to the same point."""
    u1, u2 = utils
    hull = _hull2d(list(zip(u1, u2)))
    full = (hull, _edges(hull))
    cells = []
    for m1, m2 in zip(*masses):
        if m1 > 0.0 and m2 > 0.0:
            cells.append(full)
        else:
            lo, hi = (min(u1), min(u2)), (max(u1), max(u2))
            ends = [lo, hi] if (m1 * lo[0], m2 * lo[1]) != (m1 * hi[0], m2 * hi[1]) else [hi]
            cells.append((ends, _edges(ends)))
    return cells


def minkowski_polygon(geom: ProfileGeometry) -> tuple[tuple[float, float], ...]:
    """Vertex list (CCW) of the two-agent image polytope, formed by chaining
    the sorted edges of the per-segment hulls (`segment_hulls`) from the sum
    of their lowest vertices.  The edges are the differences of each hull's
    scaled vertices, as a hull of the segment's own points would give them,
    so the polygon's bits match hulling each segment on its own.  It is
    exact up to that rounding and the thin turns `_hull2d` takes as
    straight.

    `image_polytope` and `image_gap` use the whole polygon.  swf1's
    bargaining point does not: it walks only the Pareto chain
    (`swf._pareto_walk`)."""
    if geom.dimension != 2:
        raise ValueError("exact polygon only at dimension 2")
    sx = sy = 0.0
    edges: list[tuple[float, float]] = []
    for m1, m2, (verts, _) in zip(*geom.masses, segment_hulls(geom.masses, geom.utils)):
        cell = [(m1 * a, m2 * b) for a, b in verts]
        ax, ay = min(cell, key=lambda p: (p[1], p[0]))
        sx += ax
        sy += ay
        edges += _edges(cell)
    edges.sort(key=lambda e: atan2(e[1], e[0]) % (2.0 * pi))
    walk = [(sx, sy)]
    for ex, ey in edges[:-1]:
        walk.append((walk[-1][0] + ex, walk[-1][1] + ey))
    # Parallel edges from different segments land as collinear runs; a hull
    # pass collapses them and dedupes coincident points.
    return tuple(_hull2d(walk))


# ---------------------------------------------------------------------------
# the polytope object


@dataclass(frozen=True)
class ImagePolytope:
    """Support-function view of the image, sampled at `directions`, with
    exact vertices in one and two dimensions and the vertices the
    rotating-direction sweep reaches in three.  `support_of`,
    `attaining_act` and `contains` sample nothing, at every dimension."""

    agent_ids: tuple[int, ...]
    labels: tuple[str, ...]
    directions: tuple[tuple[float, ...], ...]
    support: tuple[float, ...]
    vertices: tuple[tuple[float, ...], ...] | None
    geometry: ProfileGeometry = field(compare=False)

    @property
    def dimension(self) -> int:
        return len(self.agent_ids)

    def support_of(self, direction: Sequence[float]) -> float:
        """h(c) on Python floats: a left fold over segments of each
        segment's highest score."""
        scores = _scores(self.geometry.rows, direction)
        return reduce(add, map(scores.__getitem__, _picks(scores, len(self.labels))))

    def attaining_act(self, direction: Sequence[float]) -> Act:
        return attaining_act(self.geometry, direction)

    def contains(self, point: Sequence[float]) -> bool:
        """Whether the point lies within `TOL_MEASURE` of the image in
        every coordinate: one allocation LP on the geometry's rows, with
        fractions lam[s * X + x] in [0, 1] that sum to 1 in each segment,
        and for each agent i the row sum_k rows[i][k] * lam[k] + up_i -
        down_i = point[i], both slacks in [0, TOL_MEASURE]."""
        n, X, rows = self.dimension, len(self.labels), self.geometry.rows
        if len(point) != n:
            raise ValueError(f"point has {len(point)} coordinates, the image {n}")
        K = len(rows[0])
        eye = [[float(i == j) for j in range(n)] for i in range(n)]
        A = [[float(k // X == s) for k in range(K)] + [0.0] * (2 * n) for s in range(K // X)]
        A += [row + e + [-v for v in e] for row, e in zip(rows, eye)]
        b = [1.0] * (K // X) + [float(v) for v in point]
        return feasible_point(A, b, [1.0] * K + [TOL_MEASURE] * (2 * n)) is not None


def _nearest_point(
    verts: Sequence[tuple[float, float]], p: tuple[float, float]
) -> tuple[float, tuple[float, float]]:
    """Euclidean distance from p to the convex polygon with these CCW
    vertices (a segment or a point when there are fewer than three), and
    the polygon's point nearest to p: p itself when it lies inside."""
    px, py = p
    edges = list(zip(verts, verts[1:] + verts[:1]))
    if len(verts) >= 3 and all(
        (bx - ax) * (py - ay) - (by - ay) * (px - ax) >= 0.0 for (ax, ay), (bx, by) in edges
    ):
        return 0.0, p
    best = (inf, p)
    for (ax, ay), (bx, by) in edges:
        dx, dy = bx - ax, by - ay
        length2 = dx * dx + dy * dy
        t = 0.0
        if length2 > 0.0:
            t = min(max(((px - ax) * dx + (py - ay) * dy) / length2, 0.0), 1.0)
        best = min(best, (hypot(px - ax - t * dx, py - ay - t * dy), (ax + t * dx, ay + t * dy)))
    return best


def image_gap(
    full: ProfileGeometry, restricted: ProfileGeometry
) -> tuple[float, tuple[float, ...] | None, str, int]:
    """The largest support gap h_full(c) - h_restricted(c) over unit
    directions c, for a restricted image that lies inside the full one,
    with a direction that attains it (None when no gap is positive), the
    method ("exact" or "sampled") and the number of vertices or directions
    compared.

    At dimension 2 it compares the two polygons (`minkowski_polygon`).
    For nested convex sets the supremum of the gap is their Hausdorff
    distance (Schneider, *Convex Bodies*, 2nd ed., 2014, section 1.8),
    and a point's distance to the inner set is convex, so it peaks at a
    vertex of the outer one: the gap is the largest distance from a
    full-polygon vertex to the restricted polygon, and its direction is
    the unit vector from the nearest restricted point to that vertex.
    The count is the number of full-polygon vertices.  It is exact up to
    rounding and the thin turns `_hull2d` takes as straight.  At any
    other dimension the gap is taken over `direction_set`, whose
    directions +1 and -1 already decide an interval (exact at dimension 1)
    and which samples above 2."""
    if full.dimension == 2:
        outer = minkowski_polygon(full)
        inner = minkowski_polygon(restricted)
        gap, direction = 0.0, None
        for vx, vy in outer:
            d, (nx, ny) = _nearest_point(inner, (vx, vy))
            if d > gap:
                gap, direction = d, ((vx - nx) / d, (vy - ny) / d)
        return gap, direction, "exact", len(outer)
    dirs = direction_set(full.dimension)
    gaps = np.abs(support_values(full, dirs) - support_values(restricted, dirs))
    k = int(gaps.argmax())
    method = "exact" if full.dimension == 1 else "sampled"
    return float(gaps[k]), tuple(float(v) for v in dirs[k]), method, len(dirs)


def image_polytope(
    profile: Profile,
    restriction: tuple[Coarsening | None, Sequence[str] | None] | None = None,
) -> ImagePolytope:
    """Image polytope of the profile's concerned agents, optionally
    restricted to acts that factor through a coarsening and/or use only a
    subset of the outcomes.  At three agents the vertices are the sweep's
    attained points, deduped by equality: `attained_points` folds a
    direction's picks in one order, so every direction that picks the same
    outcome in each segment lands on the same bits.  Above three agents
    there are no vertices."""
    coarsening, labels = restriction if restriction is not None else (None, None)
    geom = geometry_for(profile, coarsening, labels)
    dirs = direction_set(geom.dimension)
    support = support_values(geom, dirs)
    vertices: tuple | None = None
    if geom.dimension == 1:
        # the support rows of directions +1 and -1; 0.0 - h, not -h: a
        # least expected utility of 0 reads 0.0, not -0.0
        vertices = ((0.0 - float(support[1]),), (float(support[0]),))
    elif geom.dimension == 2:
        vertices = minkowski_polygon(geom)
    elif geom.dimension == 3:
        vertices = tuple(sorted(set(map(tuple, attained_points(geom, dirs).tolist()))))
    return ImagePolytope(
        geom.agent_ids,
        geom.labels,
        tuple(tuple(float(v) for v in d) for d in dirs),
        tuple(float(h) for h in support),
        vertices,
        geom,
    )
