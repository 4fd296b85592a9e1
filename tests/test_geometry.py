"""Image polytope: support function, attaining acts, exact two-agent
polygon versus a brute-force grid oracle, and restrictions."""

import ast
import itertools
import math
from math import atan2, pi
from pathlib import Path
import random

import numpy as np
import pytest

from baru import (
    Act,
    Coarsening,
    Density,
    INDIFFERENT,
    OutcomeSpace,
    Preference,
    Profile,
    Utility,
    expected_utility,
    image_polytope,
)
from baru.geometry import (
    ProfileGeometry,
    _best_vertex,
    _hull2d,
    _scores,
    attained_points,
    attaining_act,
    direction_set,
    geometry_for,
    minkowski_polygon,
    segment_hulls,
    support_values,
)
from baru import geometry as geometry_module
from baru.axioms import Refused, certify_coredundancy
from baru.harness import random_profile
from baru.measure import TOL_MEASURE
from baru.swf import swf1

SPACE = OutcomeSpace(("a", "b", "c", "d"))


def _grid_acts(space, bps, labels=None):
    """Every act constant on the cells of `bps` - the brute-force oracle."""
    labs = labels if labels is not None else space.labels
    cells = list(zip(bps[:-1], bps[1:]))
    for combo in itertools.product(labs, repeat=len(cells)):
        yield Act.from_segments([(a, b, lab) for (a, b), lab in zip(cells, combo)])


def test_direction_set_shapes_and_unit_norm():
    for dim in (1, 2, 3, 4, 6):
        dirs = direction_set(dim)
        assert dirs.shape[1] == dim
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        # symmetric sets probe both sides of every hyperplane
        assert dirs.shape[0] % 2 == 0
    with pytest.raises(ValueError):
        direction_set(0)


def test_direction_set_is_cached_and_read_only():
    for dim in (2, 3, 5):
        dirs = direction_set(dim)
        assert direction_set(dim) is dirs
        with pytest.raises(ValueError):
            dirs[0, 0] = 0.0


def test_tensor_holds_the_rows_bits(rng):
    # the contribution points: `rows` on Python floats, segment after
    # segment, and the sampled kernels' tensor hold the same bits
    for n in (1, 2, 3, 4):
        geom = geometry_for(random_profile(rng, space=SPACE, n_agents=4, n_concerned=n))
        S, X = len(geom.masses[0]), len(geom.labels)
        assert geom.tensor.shape == (S, X, n)
        flat = geom.tensor.transpose(2, 0, 1).reshape(n, S * X).tolist()
        assert [[v.hex() for v in row] for row in geom.rows] == [
            [v.hex() for v in row] for row in flat
        ]
        assert all(
            geom.rows[i][s * X + x] == geom.masses[i][s] * geom.utils[i][x]
            for i in range(n)
            for s in range(S)
            for x in range(X)
        )


def test_geometry_tensor_values(table1):
    profile, _, _ = table1
    geom = geometry_for(profile)
    # tensor[s, x, i] = mass_i(segment s) * utility_i(outcome x)
    assert geom.tensor.shape == (2, 4, 2)
    a_idx = geom.labels.index("a")
    assert geom.tensor[0, a_idx, 0] == pytest.approx(0.9 * 1.0, abs=1e-12)
    assert geom.tensor[1, a_idx, 0] == pytest.approx(0.1 * 1.0, abs=1e-12)


def test_support_matches_attaining_act(table1):
    profile, _, _ = table1
    geom = geometry_for(profile)
    for direction in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (-0.3, 0.7)):
        h = float(support_values(geom, np.array([direction]))[0])
        act = attaining_act(geom, direction)
        evs = [expected_utility(profile.agents[i], act) for i in profile.concerned]
        assert np.dot(direction, evs) == pytest.approx(h, abs=1e-12)


def _support_reference(geom, dirs):
    scores = np.einsum("sxn,dn->dsx", geom.tensor, dirs)
    return scores.max(axis=2).sum(axis=1)


def test_support_values_match_reference(rng):
    # the kernel sums in another order than the reference's einsum, so
    # agreement is to a few ulps of values at most S
    for n_concerned in (1, 2, 3, 4):
        profile = random_profile(rng, space=SPACE, n_agents=4, n_concerned=n_concerned)
        geom = geometry_for(profile)
        dirs = direction_set(n_concerned)
        assert np.allclose(support_values(geom, dirs), _support_reference(geom, dirs), rtol=0, atol=1e-14)


def test_support_dominates_every_grid_act(table1):
    profile, _, _ = table1
    geom = geometry_for(profile)
    dirs = np.array([(1.0, 0.0), (0.7, -0.7), (0.5, 0.5), (-1.0, 0.2)])
    hs = support_values(geom, dirs)
    for act in _grid_acts(profile.space, (0.0, 0.5, 1.0)):
        ev = np.array([expected_utility(profile.agents[i], act) for i in profile.concerned])
        assert np.all(dirs @ ev <= hs + 1e-12)


def test_minkowski_polygon_equals_grid_hull_random_profiles(rng):
    for trial in range(20):
        profile = random_profile(rng, space=SPACE, n_agents=3, n_concerned=2)
        geom = geometry_for(profile)
        poly = minkowski_polygon(geom)
        pts = []
        for act in _grid_acts(profile.space, geom.breakpoints):
            pts.append(
                tuple(expected_utility(profile.agents[i], act) for i in profile.concerned)
            )
        oracle = _hull2d(pts)
        assert len(poly) == len(oracle)
        for p, q in zip(sorted(poly), sorted(oracle)):
            assert p == pytest.approx(q, abs=1e-9)


def _minkowski_polygon_reference(geom):
    """The polygon with every segment's points hulled on their own."""
    start = np.zeros(2)
    edges = []
    for s in range(geom.tensor.shape[0]):
        hull = _hull2d([(p[0], p[1]) for p in geom.tensor[s]])
        start += min(hull, key=lambda p: (p[1], p[0]))
        k = len(hull)
        for t in range(k):
            p, q = hull[t], hull[(t + 1) % k]
            if k >= 2:
                edges.append((q[0] - p[0], q[1] - p[1]))
    if not edges:
        return ((float(start[0]), float(start[1])),)
    edges.sort(key=lambda e: atan2(e[1], e[0]) % (2.0 * pi))
    walk = [(float(start[0]), float(start[1]))]
    for ex, ey in edges[:-1]:
        walk.append((walk[-1][0] + ex, walk[-1][1] + ey))
    hull = _hull2d(walk)
    return tuple(hull) if hull else (walk[0],)


def _two_agent_geometry(masses, utils):
    S, X = len(masses[0]), len(utils[0])
    labels = tuple(f"o{x}" for x in range(X))
    return ProfileGeometry((0, 1), labels, tuple(np.linspace(0.0, 1.0, S + 1)), tuple(masses), tuple(utils))


def test_minkowski_polygon_matches_per_segment_hulls():
    rng = random.Random(20240808)
    seen = dict.fromkeys(("positive", "one-zero", "both-zero", "duplicate", "lattice"), 0)
    for trial in range(2400):
        S, X = rng.randint(1, 7), rng.randint(2, 7)
        kind = ("random", "duplicate", "lattice", "thirds")[trial % 4]
        if kind == "lattice":
            utils = [[rng.randint(0, 4) / 4 for _ in range(X)] for _ in range(2)]
        elif kind == "thirds":
            # collinear in exact arithmetic, off by rounding in floats
            ramp = [x / (X - 1) for x in range(X)]
            utils = [ramp, ramp[::-1] if rng.random() < 0.5 else [rng.random() for _ in range(X)]]
        else:
            utils = [[rng.random() for _ in range(X)] for _ in range(2)]
        if kind == "duplicate":
            for _ in range(rng.randint(1, X)):
                i, j = rng.randrange(X), rng.randrange(X)
                utils[0][i], utils[1][i] = utils[0][j], utils[1][j]
        masses = [[rng.random() for _ in range(S)] for _ in range(2)]
        if trial % 3 == 0:
            for s in range(S):
                r = rng.random()
                if r < 0.5:
                    masses[rng.randrange(2)][s] = 0.0
                elif r < 0.7:
                    masses[0][s] = masses[1][s] = 0.0
        geom = _two_agent_geometry(masses, utils)
        assert minkowski_polygon(geom) == _minkowski_polygon_reference(geom)
        zeros = [(m1 == 0.0) + (m2 == 0.0) for m1, m2 in zip(*masses)]
        seen["positive"] += zeros.count(0) == S
        seen["one-zero"] += 1 in zeros
        seen["both-zero"] += 2 in zeros
        seen["duplicate"] += len(set(zip(*utils))) < X
        seen["lattice"] += kind == "lattice"
    assert min(seen.values()) >= 200, seen


def test_image_polytope_contains_thin_turn_outcome(thin_pair):
    # the turn at c has a cross product of 5e-15; an absolute 1e-14 hull
    # tolerance would drop c, which lies 4.5e-7 outside the rest
    profile, points = thin_pair
    poly = image_polytope(profile)
    assert poly.contains(points["c"])
    assert points["c"] in poly.vertices


def _scaled_steps(masses, utils):
    """Every segment's hull edges (m1 ex, m2 ey), from `segment_hulls`."""
    cells = segment_hulls(masses, utils)
    return [[(m1 * ex, m2 * ey) for ex, ey in steps] for m1, m2, (_, steps) in zip(*masses, cells)]


def test_segment_hulls_zero_mass_rule():
    utils = [[0.0, 1.0, 0.3, 0.7], [0.0, 0.2, 1.0, 0.9]]
    for m1, m2 in ((0.0, 0.6), (0.4, 0.0)):
        # one agent's mass is zero: the segment runs along the other's axis
        (steps,) = _scaled_steps([[m1], [m2]], utils)
        assert len(steps) == 2
        assert all((x == 0.0) != (y == 0.0) for x, y in steps)
    assert _scaled_steps([[0.0], [0.0]], utils) == [[]]
    # only agent 2's utility is flat: with agent 1's mass zero the segment
    # collapses to a point
    flat = [[0.0, 1.0, 0.5], [0.5, 0.5, 0.5]]
    assert len(_scaled_steps([[0.7], [0.0]], flat)[0]) == 2
    assert _scaled_steps([[0.0], [0.7]], flat) == [[]]
    rng = random.Random(20240811)
    for _ in range(200):
        S = rng.randint(1, 6)
        masses = [[rng.choice((0.0, rng.random())) for _ in range(S)] for _ in range(2)]
        for steps in _scaled_steps(masses, utils):
            assert not any(x == 0.0 and y == 0.0 for x, y in steps)


def test_hull2d_keeps_u_turn_vertex():
    # o -> a -> p turns back on itself: the turn's sine is about 7e-15, but
    # a - o and p - o point opposite ways, and a is the lowest point
    pts = [(-3.3e-17, 0.0052), (0.0, 0.0), (0.0, 0.1), (0.14, 0.03), (0.5, 0.6)]
    hull = _hull2d(pts)
    assert (0.0, 0.0) in hull
    assert hull == [(-3.3e-17, 0.0052), (0.0, 0.0), (0.14, 0.03), (0.5, 0.6), (0.0, 0.1)]


def test_image_polytope_keeps_u_turn_vertex():
    # a restricted image whose lowest vertex (0, 0) sits at a U-turn of the
    # walked polygon; dropping it left (0, 0) outside, while the image's
    # own support in direction (0, -1) is 0.0
    d1 = Density(
        (0.0, 0.05707356678573339, 0.0625, 0.46991766383560035, 0.96875,
         0.9733030957236604, 0.9994790656861797, 1.0),
        (5.647531272351513, 5.218280883723857, 0.19527571742130248, 0.15059576185975534,
         19.699571061005265, 15.192221293147046, 14.037510220341355),
    )
    d2 = Density(
        (0.0, 0.032628915175114945, 0.0625, 0.20268999617524497, 0.96875,
         0.9688273250330216, 0.981657990893367, 0.991846285939427, 1.0),
        (6.856405921075135, 9.267285475606307, 0.15432088744319486, 0.04146593651823559,
         15.568014951012927, 4.1831169478679096, 18.44417162213348, 24.929592231112384),
    )
    u1 = Utility({"a": 0.75, "b": 0.0, "c": 0.0, "d": 1.0, "e": 0.0})
    u2 = Utility({"a": 1.0, "b": 0.0, "c": 0.0, "d": 1.0, "e": 0.25})
    space = OutcomeSpace(("a", "b", "c", "d", "e"))
    profile = Profile(space, (Preference(d1, u1), INDIFFERENT, Preference(d2, u2)))
    q = Coarsening((
        (0.0, 0.0625, 0.0, 0.5625, -1),
        (0.0625, 0.96875, 0.5625, 1.0, -1),
        (0.96875, 1.0, 0.03382285537641723, 0.9345508330717518, -1),
    ))
    poly = image_polytope(profile, (q, space.labels))
    assert poly.support_of((0.0, -1.0)) == 0.0
    assert (0.0, 0.0) in poly.vertices
    assert poly.contains((0.0, 0.0))


def test_image_polytope_keeps_thin_cone_vertex(thin_gap):
    # d's normal cone is about 2e-5 rad wide, far narrower than the
    # spacing of the 720 sweep directions
    profile, n, delta = thin_gap
    poly = image_polytope(profile)
    assert len(poly.vertices) == 4
    d = (0.65 + delta * n[0], 0.6 + delta * n[1])
    assert any(v == pytest.approx(d, abs=1e-15) for v in poly.vertices)


def test_image_polytope_vertices_match_minkowski(table1):
    profile, _, _ = table1
    poly = image_polytope(profile)
    exact = minkowski_polygon(geometry_for(profile))
    assert sorted(poly.vertices) == pytest.approx(sorted(exact), abs=1e-9)


def test_table1_diagonal_support(table1):
    profile, _, _ = table1
    poly = image_polytope(profile)
    h = poly.support_of((1.0, 1.0))
    assert h == pytest.approx(1.8, abs=1e-12)
    act = poly.attaining_act((1.0, 1.0))
    evs = tuple(expected_utility(profile.agents[i], act) for i in profile.concerned)
    assert math.fsum(evs) == pytest.approx(1.8, abs=1e-12)


def test_contains_accepts_attained_rejects_outside(table1):
    profile, _, _ = table1
    poly = image_polytope(profile)
    assert poly.contains((0.9, 0.9))
    assert poly.contains((0.0, 0.0))
    assert not poly.contains((1.01, 1.01))
    assert not poly.contains((0.9999, 0.9999))  # off the upper-right face


def test_contains_is_exact_in_two_dimensions(thin_gap):
    # d lies 1e-5 outside the image without it, inside a cone narrower
    # than the spacing of the sampled directions
    profile, n, delta = thin_gap
    d = (0.65 + delta * n[0], 0.6 + delta * n[1])
    assert image_polytope(profile).contains(d)
    without_d = image_polytope(profile, (None, ("a", "b", "c")))
    assert not without_d.contains(d)
    assert without_d.contains((0.65, 0.6))  # on the edge from b to c
    assert without_d.contains((0.65 + 1e-10 * n[0], 0.6 + 1e-10 * n[1]))


def test_contains_one_agent_interval():
    pref = Preference(Density.uniform(), Utility({"a": 1.0, "b": 0.0, "c": 0.4, "d": 0.2}))
    poly = image_polytope(Profile(SPACE, (INDIFFERENT, pref, INDIFFERENT)))
    assert poly.contains((0.0,)) and poly.contains((0.5,)) and poly.contains((1.0,))
    assert not poly.contains((1.0 + 1e-6,))
    assert not poly.contains((-1e-6,))


def test_contains_is_exact_in_three_dimensions(thin_gap_three):
    # d lies 0.01 outside the image without it, beyond a facet that no
    # sampled half-plane of the sweep pins down
    profile, d = thin_gap_three
    assert image_polytope(profile).contains(d)
    without_d = image_polytope(profile, (None, ("a", "b", "c", "e")))
    assert not without_d.contains(d)


def test_contains_refuses_a_point_of_the_wrong_length(table1):
    profile, _, _ = table1
    three = random_profile(random.Random(27), space=SPACE, n_agents=3, n_concerned=3)
    for prof in (profile.replace(1, INDIFFERENT), profile, three):
        poly = image_polytope(prof)
        for k in (poly.dimension - 1, poly.dimension + 1):
            with pytest.raises(ValueError, match="coordinates"):
                poly.contains((0.0,) * k)


def _tolerance_dedupe(geom):
    """The sweep's attained points deduped by comparing each with every
    vertex kept, at TOL_MEASURE in every coordinate: the reference for the
    dedupe by equality."""
    seen = []
    for p in attained_points(geom, direction_set(3)):
        q = (float(p[0]), float(p[1]), float(p[2]))
        if not any(max(abs(q[k] - s[k]) for k in range(3)) <= TOL_MEASURE for s in seen):
            seen.append(q)
    return tuple(sorted(seen))


def test_three_agent_vertices_equal_the_tolerance_dedupe():
    # every direction of a vertex's normal cone attains the same bits, so
    # equality finds the vertices the tolerance loop finds; every fourth
    # profile has twin agents, whose image is flat
    rng = random.Random(2727)
    for k in range(300):
        profile = random_profile(rng, space=SPACE, n_agents=3, n_concerned=3)
        if k % 4 == 0:
            profile = profile.replace(1, profile.agents[0])
        poly = image_polytope(profile)
        assert poly.vertices == _tolerance_dedupe(poly.geometry)


def test_single_agent_image_is_segment():
    pref = Preference(
        Density.from_state_probs((0.25, 0.75)),
        Utility({"a": 1.0, "b": 0.0, "c": 0.4, "d": 0.2}),
    )
    prof = Profile(SPACE, (pref, INDIFFERENT, INDIFFERENT))
    poly = image_polytope(prof)
    assert poly.dimension == 1
    assert poly.vertices == ((0.0,), (1.0,))


def test_one_agent_image_lower_vertex_is_positive_zero():
    # every one-agent image's least expected utility is 0; the vertex reads
    # 0.0, which the CLI prints as 0.0, not -0.0
    for seed in range(20):
        profile = random_profile(random.Random(seed), n_concerned=1)
        (lo,), (hi,) = image_polytope(profile).vertices
        assert lo == 0.0 and math.copysign(1.0, lo) == 1.0
        assert 0.0 < hi <= 1.0


def test_one_agent_image_ends_are_its_support_rows():
    # the ends are the support rows of +1 and -1 bit for bit; beliefs of 8
    # or more segments are where a sum of one direction's row would go
    # pairwise and part from the rows' left fold over segments
    rng = random.Random(2124)
    for _ in range(200):
        probs = [rng.random() + 0.01 for _ in range(rng.randint(8, 41))]
        belief = Density.from_state_probs([p / math.fsum(probs) for p in probs])
        values = {lab: rng.random() for lab in SPACE.labels}
        values.update(a=0.0, b=1.0)
        agents = (INDIFFERENT, Preference(belief, Utility(values)), INDIFFERENT)
        poly = image_polytope(Profile(SPACE, agents))
        assert len(poly.geometry.masses[0]) >= 8
        assert poly.directions == ((1.0,), (-1.0,))
        (lo,), (hi,) = poly.vertices
        assert (lo.hex(), hi.hex()) == ((0.0 - poly.support[1]).hex(), poly.support[0].hex())


def test_three_agent_vertices_are_attained_and_deduped(rng):
    profile = random_profile(rng, space=SPACE, n_agents=3, n_concerned=3)
    poly = image_polytope(profile)
    assert poly.dimension == 3
    assert poly.vertices
    for v in poly.vertices:
        assert poly.contains(v)
    for v, w in itertools.combinations(poly.vertices, 2):
        assert max(abs(a - b) for a, b in zip(v, w)) > 1e-9


def test_identity_restriction_equals_full(table1):
    profile, _, _ = table1
    full = image_polytope(profile)
    restricted = image_polytope(profile, (Coarsening.identity(), None))
    assert np.allclose(full.support, restricted.support, atol=1e-12)


def test_outcome_restriction_shrinks_image(table1):
    profile, _, _ = table1
    full = image_polytope(profile)
    sub = image_polytope(profile, (None, ("c", "d")))
    assert all(hs <= hf + 1e-12 for hs, hf in zip(sub.support, full.support))
    # without the fork outcomes the (0.9, 0.9) fork point is unreachable
    assert not sub.contains((0.9, 0.9))


def test_empty_outcome_restriction_is_refused(table1):
    profile, _, _ = table1
    with pytest.raises(ValueError, match="outcome subset must be non-empty"):
        image_polytope(profile, (None, ()))
    with pytest.raises(ValueError, match="unknown outcome 'x'"):
        geometry_for(profile, labels=("a", "x"))


def test_restriction_by_halving_coarsening(table1):
    profile, _, _ = table1
    # q collapses the two halves of the state space onto one copy, so
    # acts factoring through q cannot separate the halves
    q = Coarsening(((0.0, 0.5, 0.0, 1.0, +1), (0.5, 1.0, 0.0, 1.0, +1)))
    sub = image_polytope(profile, (q, None))
    full = image_polytope(profile)
    assert all(hs <= hf + 1e-12 for hs, hf in zip(sub.support, full.support))
    assert sub.support_of((1.0, 1.0)) == pytest.approx(1.7, abs=1e-12)


def test_minkowski_polygon_requires_two_agents(table1):
    profile, _, _ = table1
    prof1 = profile.replace(1, INDIFFERENT)
    with pytest.raises(ValueError):
        minkowski_polygon(geometry_for(prof1))


def test_attained_points_on_polygon_boundary(table1):
    profile, _, _ = table1
    geom = geometry_for(profile)
    dirs = direction_set(2)
    pts = attained_points(geom, dirs)
    hs = support_values(geom, dirs)
    for p, d, h in zip(pts, dirs, hs):
        assert float(d @ p) == pytest.approx(float(h), abs=1e-12)


def _attained_points_reference(geom, dirs):
    idx = np.einsum("sxn,dn->dsx", geom.tensor, dirs).argmax(axis=2)
    S = geom.tensor.shape[0]
    pts = np.empty((dirs.shape[0], geom.dimension))
    for d in range(dirs.shape[0]):
        pts[d] = geom.tensor[np.arange(S), idx[d], :].sum(axis=0)
    return pts


def test_attained_points_match_loop(table1, rng):
    profile, _, _ = table1
    three = random_profile(rng, space=SPACE, n_agents=3, n_concerned=3)
    for prof in (profile, three):
        geom = geometry_for(prof)
        dirs = direction_set(geom.dimension)
        assert np.array_equal(attained_points(geom, dirs), _attained_points_reference(geom, dirs))


def test_sampled_kernels_fold_as_the_one_direction_oracle():
    # h(c) has one arithmetic: at every sampled direction the polytope's
    # support row is support_of's bits, and each attained point is the
    # oracle's vertex, over 200 profiles at 1-4 concerned agents
    rng = random.Random(2626)
    for n in [1, 2, 3, 4] * 50:
        poly = image_polytope(random_profile(rng, space=SPACE, n_agents=4, n_concerned=n))
        geom = poly.geometry
        assert [h.hex() for h in poly.support] == [
            poly.support_of(d).hex() for d in poly.directions
        ]
        if n >= 2:
            X = len(geom.labels)
            got = attained_points(geom, direction_set(n)).tolist()
            want = [_best_vertex(geom.rows, X, _scores(geom.rows, d)) for d in poly.directions]
            assert [[v.hex() for v in p] for p in got] == [[v.hex() for v in p] for p in want]


def test_geometry_has_no_matrix_product():
    # every score is an elementwise fold (`_sampled_scores`): no product
    # that a BLAS kernel or einsum could sum in its own order
    tree = ast.parse(Path(geometry_module.__file__).read_text())
    banned = {"einsum", "dot", "matmul", "tensordot"}
    for node in ast.walk(tree):
        assert not isinstance(node, ast.MatMult), ast.dump(node)
        if isinstance(node, ast.Attribute):
            assert node.attr not in banned, node.attr
        if isinstance(node, ast.Name):
            assert node.id not in banned, node.id


class _NoNumpy:
    """Stands in for the numpy module: any attribute read fails."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy reached: np.{name}")


def test_swf1_and_two_agent_certificates_build_no_numpy_array(monkeypatch, thin_gap):
    # geometry_for's rows are Python floats; numpy builds only the sampled
    # kernels' tensor, which neither swf1, the two-agent polygons nor a
    # question about one direction (an attaining act, a support value) reads
    draw = random.Random(2424)
    profiles = [random_profile(draw, n_agents=4, n_concerned=n) for n in (1, 2, 3, 4)]
    polys = [image_polytope(profile) for profile in profiles]
    monkeypatch.setattr(geometry_module, "np", _NoNumpy())
    for profile, poly in zip(profiles, polys):
        fresh = geometry_for(profile)
        step = max(1, len(poly.directions) // 10)
        for direction, h in list(zip(poly.directions, poly.support))[::step]:
            act = poly.attaining_act(direction)
            assert act == attaining_act(fresh, direction)
            got = poly.support_of(direction)
            assert abs(got - h) <= 1e-12
            evs = [expected_utility(profile.agents[i], act) for i in profile.concerned]
            assert abs(math.fsum(c * v for c, v in zip(direction, evs)) - got) <= 1e-12
    rng = random.Random(2121)
    sizes = {2: 0, 3: 0}
    for _ in range(120):
        profile = random_profile(rng)
        sizes[len(profile.concerned)] += 1
        swf1(profile)
    assert min(sizes.values()) >= 20, sizes
    profile, _, _ = thin_gap
    out = certify_coredundancy(profile, Coarsening.identity(), ("a", "b", "c"))
    assert isinstance(out, Refused) and out.method == "exact" and out.directions > 0
