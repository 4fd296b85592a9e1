"""Event algebra, piecewise-constant densities, exact-split events, and
measurable coarsenings."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from baru import (
    Coarsening,
    Density,
    DyadicPartition,
    EventSet,
    Infeasible,
    TOL_MEASURE,
    belief_distance,
    geometric_pool,
    halving_subalgebra,
    lyapunov_event,
    measure,
    merged_breakpoints,
    pushforward_coarsening,
    segment_masses,
)


def test_eventset_complement_partitions_unit_interval():
    e = EventSet.from_intervals(((0.1, 0.3), (0.5, 0.8)))
    c = e.complement()
    assert e.length + c.length == pytest.approx(1.0, abs=1e-15)
    assert e.intersect(c).is_empty
    assert e.union(c).length == pytest.approx(1.0, abs=1e-15)


def test_eventset_merges_touching_intervals():
    e = EventSet.from_intervals(((0.0, 0.25), (0.25, 0.5)))
    assert e.intervals == ((0.0, 0.5),)


def test_eventset_drops_empty_pairs_and_rejects_bad_bounds():
    assert EventSet.from_intervals(((0.4, 0.4),)).is_empty
    with pytest.raises(ValueError):
        EventSet.from_intervals(((-0.1, 0.2),))
    with pytest.raises(ValueError):
        EventSet(((0.0, 0.3), (0.2, 0.5)))  # overlap caught by the constructor


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


def test_belief_distance_is_total_variation():
    d1 = Density.from_state_probs((0.9, 0.1))
    d2 = Density.from_state_probs((0.1, 0.9))
    # TV distance: sup over events of the mass gap, attained on [0, 0.5)
    assert belief_distance(d1, d2) == pytest.approx(0.8, abs=1e-12)
    assert belief_distance(d1, d1) == 0.0


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
