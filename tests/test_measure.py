"""Event algebra, piecewise-constant densities, exact-split events, and
measurable coarsenings."""

import bisect
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from baru import (
    Coarsening,
    Density,
    DyadicPartition,
    EventSet,
    Infeasible,
    RULE_NAMES,
    TOL_MEASURE,
    belief_distance,
    geometric_pool,
    halving_subalgebra,
    lyapunov_event,
    measure,
    merged_breakpoints,
    pushforward_coarsening,
    rule_by_name,
    segment_masses,
)
from baru.harness import _merge_pairs_coarsening, _pairflat_density, random_profile
from baru.measure import _values_along, cell_values, common_grid, interval_masses


def test_eventset_complement_partitions_unit_interval():
    e = EventSet.from_intervals(((0.1, 0.3), (0.5, 0.8)))
    c = e.complement()
    assert e.length + c.length == pytest.approx(1.0, abs=1e-15)
    assert e.intersect(c).is_empty
    assert e.union(c).length == pytest.approx(1.0, abs=1e-15)


def test_eventset_merges_touching_intervals():
    e = EventSet.from_intervals(((0.0, 0.25), (0.25, 0.5)))
    assert e.intervals == ((0.0, 0.5),)
    e = EventSet.from_intervals(((0.5, 0.75), (0.9, 0.9), (0.0, 0.25), (0.25, 0.5)))
    assert e.intervals == ((0.0, 0.75),)


def test_eventset_drops_empty_pairs_and_rejects_bad_bounds():
    assert EventSet.from_intervals(((0.4, 0.4),)).is_empty
    with pytest.raises(ValueError):
        EventSet.from_intervals(((-0.1, 0.2),))
    with pytest.raises(ValueError):
        EventSet(((0.0, 0.3), (0.2, 0.5)))  # overlap caught by the constructor
    with pytest.raises(ValueError, match="intervals overlap"):
        EventSet.from_intervals(((0.2, 0.5), (0.0, 0.3)))
    # a NaN end is refused, also where it would touch its neighbour
    with pytest.raises(ValueError, match="bad interval"):
        EventSet.from_intervals(((0.5, math.nan), (0.0, 0.5)))


def test_density_must_integrate_to_one():
    with pytest.raises(ValueError):
        Density((0.0, 1.0), (0.7,))
    Density((0.0, 0.5, 1.0), (1.8, 0.2))  # mass 0.9 + 0.1


def test_density_mass_and_cdf_agree():
    d = Density((0.0, 0.25, 0.75, 1.0), (2.0, 0.5, 1.0))
    assert d.cdf(0.25) == pytest.approx(0.5, abs=1e-15)
    assert d.mass(0.25, 0.75) == pytest.approx(d.cdf(0.75) - d.cdf(0.25), abs=1e-15)
    assert d.mass(0.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_from_state_probs_places_masses_on_halves():
    d = Density.from_state_probs((0.9, 0.1))
    assert d.mass(0.0, 0.5) == pytest.approx(0.9, abs=1e-15)
    assert d.mass(0.5, 1.0) == pytest.approx(0.1, abs=1e-15)
    assert d.value_at(0.2) == pytest.approx(1.8, abs=1e-15)


def test_measure_of_disjoint_union_adds():
    d = Density((0.0, 0.5, 1.0), (1.2, 0.8))
    e1 = EventSet.from_intervals(((0.0, 0.2),))
    e2 = EventSet.from_intervals(((0.6, 0.9),))
    assert measure(d, e1.union(e2)) == pytest.approx(
        measure(d, e1) + measure(d, e2), abs=1e-15
    )


def test_merged_breakpoints_includes_extras():
    d1 = Density((0.0, 0.5, 1.0), (1.0, 1.0))
    d2 = Density((0.0, 0.25, 1.0), (2.0, 2.0 / 3.0))
    bps = merged_breakpoints((d1, d2), extra=(0.7,))
    assert set((0.0, 0.25, 0.5, 0.7, 1.0)) <= set(bps)
    assert bps == tuple(sorted(bps))


def test_segment_masses_sums_to_one():
    d = Density((0.0, 0.3, 1.0), (2.0, 4.0 / 7.0))
    masses = segment_masses(d, (0.0, 0.1, 0.3, 0.9, 1.0))
    assert math.fsum(masses) == pytest.approx(1.0, abs=1e-12)
    assert masses[0] == pytest.approx(0.2, abs=1e-12)


def test_common_grid_is_merged_breakpoints_and_segment_masses():
    d1 = Density((0.0, 0.5, 1.0), (1.0, 1.0))
    d2 = Density((0.0, 0.25, 1.0), (2.0, 2.0 / 3.0))
    bps, rows = common_grid((d1, d2), extra=(0.7,))
    assert bps == merged_breakpoints((d1, d2), extra=(0.7,))
    assert rows == (segment_masses(d1, bps), segment_masses(d2, bps))


def test_belief_distance_is_total_variation():
    d1 = Density.from_state_probs((0.9, 0.1))
    d2 = Density.from_state_probs((0.1, 0.9))
    # TV distance: sup over events of the mass gap, attained on [0, 0.5)
    assert belief_distance(d1, d2) == pytest.approx(0.8, abs=1e-12)
    assert belief_distance(d1, d1) == 0.0


def test_belief_distance_of_equal_densities_skips_the_grid_walk(monkeypatch):
    # one object or two equal ones: 0.0, with no walk over a merged grid
    d = Density((0.0, 0.25, 1.0), (2.0, 2.0 / 3.0))

    def no_walk(*args):
        raise AssertionError("walked the merged grid")

    monkeypatch.setattr(sys.modules["baru.measure"], "merged_breakpoints", no_walk)
    for other in (d, Density(d.breakpoints, d.values)):
        assert belief_distance(d, other).hex() == (0.0).hex()


# Each use of `Density._derived`, the unchecked builder: every one derives
# its density from densities or draws that are valid already.  The CLI,
# the decoders and `pushforward_coarsening` build checked densities.
DERIVED_DENSITY_SITES = {
    ("swf", "_merge"),
    ("harness", "random_density"),
    ("harness", "_fiber_tilt"),
    ("harness", "ira_scenario"),
    ("axioms", "continuity_probe"),
}


def test_unchecked_densities_are_built_only_at_derivation_sites(unchecked_references):
    sites = {(m, f) for m, f, builder in unchecked_references if builder == "Density._derived"}
    assert sites == DERIVED_DENSITY_SITES


@pytest.mark.parametrize("n_believers", [1, 2, 3, 4])
def test_society_beliefs_equal_checked_ones(checked_twins, n_believers):
    # every rule's society belief of 1 to 4 believers, built unchecked,
    # against the checked constructor on the same grid and values
    rng = random.Random(4100 + n_believers)
    for _ in range(100):
        profile = random_profile(rng, n_agents=4, n_concerned=n_believers)
        for name in RULE_NAMES:
            rule_by_name(name)(profile)
    assert checked_twins["Density._derived", "_merge"] == 100 * len(RULE_NAMES)


def test_lyapunov_event_hits_targets_for_three_densities():
    d1 = Density.uniform()
    d2 = Density.from_state_probs((0.3, 0.7))
    d3 = Density((0.0, 0.25, 0.75, 1.0), (2.0, 0.4, 1.2))
    ev = lyapunov_event((d1, d2, d3), (0.5, 0.5, 0.5))
    for d in (d1, d2, d3):
        assert measure(d, ev) == pytest.approx(0.5, abs=TOL_MEASURE)


def test_lyapunov_event_respects_region():
    d = Density.uniform()
    region = EventSet.from_intervals(((0.0, 0.4),))
    ev = lyapunov_event((d,), (0.25,), within=region)
    assert measure(d, ev) == pytest.approx(0.25, abs=TOL_MEASURE)
    assert ev.intersect(region.complement()).length <= 1e-12


def test_lyapunov_event_survives_pivot_round_off():
    # Criterion 7's 604th item of random.Random(19): the phase-1 tableau
    # drifted to a basis whose point missed A x = b by 2e-3.
    beliefs = (
        Density(
            (0.0, 0.023182, 0.273884, 0.450426, 0.702485, 1.0),
            (0.42728067741139497, 0.5939020191857388, 1.191426827397424,
             1.2593346470531472, 1.0535228427419814),
        ),
        Density.uniform(),
        Density(
            (0.0, 0.077359, 0.099092, 0.229098, 0.255502, 0.266111, 0.27664,
             0.430228, 0.494904, 0.518943, 0.635902, 0.650351, 0.688656,
             0.70159, 0.763079, 0.780187, 0.806567, 0.947897, 0.975865, 1.0),
            (1.6933597792820234, 0.8245693206306721, 0.2936944504500662,
             1.416783089188266, 1.434352570610209, 1.8078469283435883,
             0.5440326079302433, 0.6782911669026671, 0.3635472074579145,
             1.5354759175160995, 1.2995711535482515, 0.7897334856708961,
             1.0662521219945005, 1.8222926981077325, 2.101328440601974,
             0.5340064565025388, 0.8733643469441434, 1.9403571353956808,
             0.9480039182087161),
        ),
        Density((0.0, 0.450456, 1.0), (0.996935392170538, 1.002512029945606)),
    )
    targets = (
        0.035155825382349494,
        0.06006262587453991,
        0.09928210389329789,
        0.059878557481026745,
    )
    ev = lyapunov_event(beliefs, targets)
    for d, t in zip(beliefs, targets):
        assert measure(d, ev) == pytest.approx(t, abs=TOL_MEASURE)


def test_lyapunov_event_infeasible_target():
    d = Density.uniform()
    region = EventSet.from_intervals(((0.0, 0.4),))
    with pytest.raises(Infeasible):
        lyapunov_event((d,), (0.6,), within=region)


def test_halving_subalgebra_depth_two():
    d1 = Density.from_state_probs((0.9, 0.1))
    d2 = Density.from_state_probs((0.2, 0.8))
    part = halving_subalgebra(d1, d2, 2)
    assert isinstance(part, DyadicPartition)
    assert len(part.cells) == 4
    for cell in part.cells:
        assert measure(d1, cell) == pytest.approx(0.25, abs=TOL_MEASURE)
        assert measure(d2, cell) == pytest.approx(0.25, abs=TOL_MEASURE)


def test_halving_cells_are_disjoint():
    d1 = Density.uniform()
    d2 = Density.from_state_probs((0.35, 0.65))
    part = halving_subalgebra(d1, d2, 3)
    covered = EventSet.from_intervals(())
    for cell in part.cells:
        assert covered.intersect(cell).length <= 1e-12
        covered = covered.union(cell)
    assert covered.length == pytest.approx(1.0, abs=1e-9)


def test_geometric_pool_renormalizes_pointwise_product():
    d1 = Density((0.0, 0.5, 1.0), (1.6, 0.4))
    d2 = Density((0.0, 0.5, 1.0), (0.4, 1.6))
    pool = geometric_pool((d1, d2))
    # product is constant, so the pool is uniform
    assert pool.mass(0.0, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_coarsening_identity_pushforward_is_noop():
    d = Density((0.0, 0.3, 1.0), (2.0, 4.0 / 7.0))
    out = pushforward_coarsening(Coarsening.identity(), d)
    assert belief_distance(out, d) <= 1e-12


def test_coarsening_fold_preserves_total_mass():
    # q(x) = 2x mod 1: both halves stretch onto the whole interval
    q = Coarsening(((0.0, 0.5, 0.0, 1.0, +1), (0.5, 1.0, 0.0, 1.0, +1)))
    d = Density.from_state_probs((0.3, 0.7))
    out = pushforward_coarsening(q, d)
    assert out.mass(0.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert out.mass(0.0, 0.5) == pytest.approx(
        d.mass(0.0, 0.25) + d.mass(0.5, 0.75), abs=1e-12
    )


def test_coarsening_rejects_partial_source_or_target():
    with pytest.raises(ValueError):
        Coarsening(((0.0, 0.5, 0.0, 0.5, +1),))  # source stops at 0.5
    with pytest.raises(ValueError):
        Coarsening(((0.0, 1.0, 0.0, 0.5, +1),))  # target misses [0.5, 1)


def test_coarsening_from_dict_refuses_non_integral_orient():
    fold = Coarsening(((0.0, 0.5, 0.0, 1.0, +1), (0.5, 1.0, 0.0, 1.0, -1)))
    again = Coarsening.from_dict(fold.as_dict())
    assert again == fold and repr(again) == repr(fold)
    assert type(Coarsening.from_dict({"pieces": [[0, 1, 0, 1, 1.0]]}).pieces[0][4]) is int
    for orient in (1.7, -1.5, 0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="orient must be"):
            Coarsening.from_dict({"pieces": [[0, 1, 0, 1, orient]]})


@st.composite
def densities(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    cuts = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=0.95),
            min_size=n - 1,
            max_size=n - 1,
            unique=True,
        )
    )
    bps = tuple(sorted([0.0, *cuts, 1.0]))
    vals = [draw(st.floats(min_value=0.1, max_value=3.0)) for _ in range(n)]
    total = math.fsum(v * (b - a) for v, a, b in zip(vals, bps[:-1], bps[1:]))
    return Density(bps, tuple(v / total for v in vals))


@given(densities(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_cdf_monotone_and_bounded(d, x):
    assert 0.0 <= d.cdf(x) <= 1.0 + 1e-12
    assert d.cdf(x) <= d.cdf(min(1.0, x + 0.125)) + 1e-12


@given(densities(), densities())
@settings(max_examples=100, deadline=None)
def test_belief_distance_symmetric_and_triangleish(d1, d2):
    a = belief_distance(d1, d2)
    assert a == pytest.approx(belief_distance(d2, d1), abs=1e-12)
    assert 0.0 <= a <= 1.0 + 1e-12


@given(densities(), densities(), st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_halving_mass_property(d1, d2, depth):
    part = halving_subalgebra(d1, d2, depth)
    want = 2.0**-depth
    for cell in part.cells:
        assert abs(measure(d1, cell) - want) <= TOL_MEASURE
        assert abs(measure(d2, cell) - want) <= TOL_MEASURE


def test_lyapunov_event_random_targets_joint():
    rng = random.Random(4242)
    for _ in range(50):
        p = rng.uniform(0.1, 0.9)
        d1 = Density.from_state_probs((p, 1.0 - p))
        d2 = Density.uniform()
        t = rng.uniform(0.05, 0.95)
        ev = lyapunov_event((d1, d2), (t, t))
        assert abs(measure(d1, ev) - t) <= TOL_MEASURE
        assert abs(measure(d2, ev) - t) <= TOL_MEASURE


def test_density_rejects_non_finite_numbers():
    with pytest.raises(ValueError):
        Density((0.0, 1.0), (math.nan,))
    with pytest.raises(ValueError):
        Density((0.0, math.nan, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        Density((0.0, 0.5, 1.0), (math.inf, 0.0))


# Reference implementations: the per-point `value_at` / `mass` lookups
# that the one-pass walks replace, compared with exact equality.


def _random_density(rng: random.Random, max_pieces: int = 6) -> Density:
    cuts = sorted({rng.randrange(1, 64) / 64 for _ in range(rng.randint(0, max_pieces - 1))})
    bps = (0.0, *cuts, 1.0)
    raw = [rng.uniform(0.1, 3.0) for _ in range(len(bps) - 1)]
    total = math.fsum(v * (b - a) for v, a, b in zip(raw, bps[:-1], bps[1:]))
    return Density(bps, tuple(v / total for v in raw))


def _refinement(rng: random.Random, d: Density) -> tuple[float, ...]:
    """d's breakpoints plus random points, some of them one ulp either side
    of a breakpoint, which leaves sliver cells."""
    pts = set(d.breakpoints)
    pts.update(rng.random() for _ in range(rng.randint(0, 6)))
    for x in d.breakpoints[1:-1]:
        if rng.random() < 0.6:
            pts.add(math.nextafter(x, 0.0))
        if rng.random() < 0.6:
            pts.add(math.nextafter(x, 1.0))
    return tuple(sorted(pts))


def test_cell_values_match_value_at_on_refinements():
    rng = random.Random(5150)
    slivers = 0
    for _ in range(500):
        d = _random_density(rng)
        grid = _refinement(rng, d)
        slivers += sum(b == math.nextafter(a, 1.0) for a, b in zip(grid[:-1], grid[1:]))
        assert cell_values(d, grid) == [d.value_at(a) for a in grid[:-1]]
        assert segment_masses(d, grid) == tuple(
            d.value_at(a) * (b - a) for a, b in zip(grid[:-1], grid[1:])
        )
    assert slivers > 100


def test_contains_along_matches_interval_scan():
    rng = random.Random(7170)
    hits = misses = 0
    for _ in range(500):
        pool = (0.0, 1.0, *(rng.randrange(1, 8) / 8 for _ in range(2)), *(rng.random() for _ in range(2)))
        ends = sorted({rng.choice(pool) for _ in range(rng.randint(0, 8))})
        pairs = list(zip(ends[::2], ends[1::2]))
        if pairs and rng.random() < 0.3:
            # two abutting pieces, which the constructor accepts as given
            a, b = pairs[-1]
            mid = 0.5 * (a + b)
            pairs[-1:] = [(a, mid), (mid, b)]
        event = EventSet(tuple(pairs))
        pts = [rng.random() for _ in range(6)]
        for x in ends:  # every interval end and its float neighbours
            pts += [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]
        pts.sort()
        want = [any(a <= x < b for a, b in event.intervals) for x in pts]
        assert event.contains_along(pts) == want
        hits += sum(want)
        misses += len(want) - sum(want)
    assert min(hits, misses) > 1000


def test_interval_masses_match_density_mass():
    rng = random.Random(6160)
    for _ in range(500):
        d = _random_density(rng)
        inner = {rng.random() for _ in range(rng.randint(0, 8))}
        inner.update(rng.choice(d.breakpoints) for _ in range(2))
        edges = sorted(inner | {0.0, 1.0})
        segments = list(zip(edges[:-1], edges[1:]))
        assert interval_masses(d, segments) == [d.mass(a, b) for a, b in segments]


def _pushforward_reference(q: Coarsening, density: Density) -> Density:
    pts = {0.0, 1.0}
    for sa, sb, ta, tb, orient in q.pieces:
        pts.update((ta, tb))
        slope = (tb - ta) / (sb - sa)
        for u in density.breakpoints:
            if sa < u < sb:
                pts.add(ta + (u - sa) * slope if orient > 0 else ta + (sb - u) * slope)
    bps = tuple(sorted(pts))
    values = []
    for a, b in zip(bps[:-1], bps[1:]):
        mid = 0.5 * (a + b)
        total = 0.0
        for sa, sb, ta, tb, orient in q.pieces:
            if ta <= mid < tb:
                slope = (tb - ta) / (sb - sa)
                src = sa + (mid - ta) / slope if orient > 0 else sb - (mid - ta) / slope
                total += density.value_at(src) / slope
        values.append(total)
    return Density(bps, tuple(values))


def _random_coarsening(rng: random.Random) -> Coarsening:
    cuts = sorted(rng.sample(range(1, 16), rng.randint(0, 5)))
    src = [0.0, *(c / 16 for c in cuts), 1.0]
    pieces = []
    for k, (sa, sb) in enumerate(zip(src[:-1], src[1:])):
        if k == 0:
            ta, tb = 0.0, 1.0  # covers the target interval
        else:
            lo, hi = sorted(rng.sample(range(9), 2))
            ta, tb = lo / 8, hi / 8
        pieces.append((sa, sb, ta, tb, rng.choice((+1, -1))))
    return Coarsening(tuple(pieces))


def test_pushforward_matches_per_point_reference():
    rng = random.Random(7170)
    for _ in range(300):
        d = _random_density(rng)
        q = _random_coarsening(rng)
        assert pushforward_coarsening(q, d) == _pushforward_reference(q, d)


def test_identity_pushforward_is_the_density_itself():
    rng = random.Random(8180)
    for _ in range(100):
        d = _random_density(rng)
        out = pushforward_coarsening(Coarsening.identity(), d)
        assert out is d
        assert _pushforward_reference(Coarsening.identity(), d) == d


def _pushforward_per_piece_reference(q: Coarsening, density: Density) -> Density:
    """The per-piece loop that the one-pass `pushforward_coarsening`
    replaces: a `_values_along` walk from the first breakpoint for every
    piece, its values added piece by piece."""
    if q == Coarsening.identity():
        return density
    pts = {0.0, 1.0}
    for sa, sb, ta, tb, orient in q.pieces:
        pts.add(ta)
        pts.add(tb)
        slope = (tb - ta) / (sb - sa)
        for u in density.breakpoints:
            if sa < u < sb:
                pts.add(ta + (u - sa) * slope if orient > 0 else ta + (sb - u) * slope)
    bps = tuple(sorted(pts))
    mids = [0.5 * (a + b) for a, b in zip(bps[:-1], bps[1:])]
    values = [0.0] * len(mids)
    for sa, sb, ta, tb, orient in q.pieces:
        lo, hi = bisect.bisect_left(mids, ta), bisect.bisect_left(mids, tb)
        slope = (tb - ta) / (sb - sa)
        if orient > 0:
            srcs = [sa + (mid - ta) / slope for mid in mids[lo:hi]]
            dens = _values_along(density.breakpoints, density.values, srcs)
        else:
            srcs = [sb - (mid - ta) / slope for mid in mids[lo:hi]]
            dens = _values_along(density.breakpoints, density.values, reversed(srcs))[::-1]
        for k, v in enumerate(dens, lo):
            values[k] += v / slope
    return Density(bps, tuple(values))


def _float_density(rng: random.Random) -> Density:
    """Breakpoints anywhere in (0, 1), not only on a dyadic grid."""
    cuts = sorted({rng.random() for _ in range(rng.randint(0, 8))} - {0.0})
    bps = (0.0, *cuts, 1.0)
    raw = [rng.uniform(0.05, 3.0) for _ in range(len(bps) - 1)]
    total = math.fsum(v * (b - a) for v, a, b in zip(raw, bps[:-1], bps[1:]))
    return Density(bps, tuple(v / total for v in raw))


def test_pushforward_bits_match_per_piece_loop():
    rng = random.Random(1515)
    merge = _merge_pairs_coarsening()
    seen = dict.fromkeys(("reversed", "overlap", "inner", "merge"), 0)
    for n in range(2400):
        d = (_random_density, _float_density, _pairflat_density)[n % 3](rng)
        q = merge if n % 4 == 0 else _random_coarsening(rng)
        out = pushforward_coarsening(q, d)
        assert repr(out) == repr(_pushforward_per_piece_reference(q, d))
        seen["merge"] += q is merge
        seen["reversed"] += any(p[4] < 0 for p in q.pieces)
        seen["overlap"] += sum(tb - ta for _, _, ta, tb, _ in q.pieces) > 1.0
        seen["inner"] += any(sa < u < sb for sa, sb, *_ in q.pieces for u in d.breakpoints)
    assert min(seen.values()) >= 400, seen
