"""Deterministic interaction field: energies, forces, directional
corrections, totals, and rasterization."""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    constant_velocity_scenario,
    dense_raster,
    dense_scenario,
    make_state,
)
from risknet.baselines import evaluate_all
from risknet.errors import BadConfig, EmptyFrame, NumericError
from risknet.field import (
    AgentColumns,
    GridSpec,
    RiskFieldParams,
    RiskRaster,
    agent_columns,
    directional_force,
    directional_terms,
    force_terms,
    rasterize,
    read_raster,
    sum_others,
    total_directional_force,
    write_raster,
)
from risknet.scene import (
    CAR,
    PEDESTRIAN,
    TRUCK,
    InteractionGraph,
    scenario_from_states,
)

PARAMS = RiskFieldParams()
KC1 = RiskFieldParams(k={k: 1.0 for k in PARAMS.k})


def star(ego_id, neighbor_ids, frame=0, radius=50.0):
    return InteractionGraph(
        ego_id=ego_id, frame=frame, radius=radius,
        edges=frozenset((ego_id, n) for n in neighbor_ids),
    )


finite_speed = st.floats(-40.0, 40.0)
positive_mass = st.floats(100.0, 40000.0)
coord = st.floats(-200.0, 200.0)


def random_pair(draw_tuple):
    (ex, ey, ox, oy, evx, evy, ovx, ovy, em, om) = draw_tuple
    ego = make_state(0, position=(ex, ey), velocity=(evx, evy), mass=em)
    other = make_state(1, position=(ox, oy), velocity=(ovx, ovy), mass=om)
    return ego, other


pair_strategy = st.tuples(coord, coord, coord, coord, finite_speed,
                          finite_speed, finite_speed, finite_speed,
                          positive_mass, positive_mass)


def heading_pair(v_ego, v_other, theta, params=PARAMS):
    """directional_force of an ego moving along +x at v_ego and an other
    20 m ahead moving at v_other, theta radians off the ego's heading."""
    return directional_force(
        make_state(0, velocity=(v_ego, 0.0)),
        make_state(1, position=(20.0, 0.0),
                   velocity=(v_other * math.cos(theta),
                             v_other * math.sin(theta))),
        params)


# ---- parameter validation ----

def test_params_validation():
    with pytest.raises(BadConfig):
        RiskFieldParams(beta=0.0)
    with pytest.raises(BadConfig):
        RiskFieldParams(wave_speed=-1.0)
    with pytest.raises(BadConfig):
        RiskFieldParams(r_min=0.0)
    with pytest.raises(BadConfig):
        RiskFieldParams(k={"car": 0.6})
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(BadConfig):
            RiskFieldParams(k=dict(PARAMS.k, truck=bad))
        with pytest.raises(BadConfig):
            RiskFieldParams(C_default=bad)


# ---- interaction energy ----

def test_energy_zero_relative_velocity():
    ego = make_state(0, velocity=(17.0, -2.0))
    other = make_state(1, position=(10, 0), velocity=(17.0, -2.0))
    assert directional_force(ego, other, PARAMS).energy == 0.0


def test_energy_hand_case():
    ego = make_state(0, velocity=(30, 0), mass=1500.0)
    other = make_state(1, position=(50, 0), velocity=(20, 0), mass=1500.0)
    assert directional_force(ego, other, KC1).energy == pytest.approx(
        37500.0, rel=1e-12)


def test_energy_linear_in_C():
    ego = make_state(0, velocity=(30, 0))
    other = make_state(1, position=(50, 0), velocity=(20, 0))
    one = directional_force(ego, other, PARAMS, C=1.0).energy
    assert directional_force(ego, other, PARAMS, C=2.0).energy == \
        pytest.approx(2.0 * one, rel=1e-12)


def test_energy_unit_mass_variant():
    ego = make_state(0, velocity=(30, 0), mass=1500.0)
    other = make_state(1, position=(50, 0), velocity=(20, 0), mass=9000.0)
    unit = RiskFieldParams(k={k: 1.0 for k in PARAMS.k},
                           unit_mass_energy=True)
    assert directional_force(ego, other, unit).energy == pytest.approx(
        50.0, rel=1e-12)


@given(pair_strategy)
@settings(max_examples=200, deadline=None)
def test_energy_reduced_mass_symmetry(draw):
    ego, other = random_pair(draw)
    swapped_ego = make_state(0, position=tuple(ego.position),
                             velocity=tuple(ego.velocity), mass=other.mass)
    swapped_other = make_state(1, position=tuple(other.position),
                               velocity=tuple(other.velocity), mass=ego.mass)
    a = directional_force(ego, other, PARAMS).energy
    b = directional_force(swapped_ego, swapped_other, PARAMS).energy
    assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


@given(pair_strategy, st.sampled_from([2.0, 3.0]))
@settings(max_examples=200, deadline=None)
def test_energy_quadratic_velocity_scaling(draw, c):
    ego, other = random_pair(draw)
    base = directional_force(ego, other, PARAMS).energy
    scaled_ego = make_state(0, position=tuple(ego.position),
                            velocity=tuple(c * ego.velocity), mass=ego.mass)
    scaled_other = make_state(1, position=tuple(other.position),
                              velocity=tuple(c * other.velocity),
                              mass=other.mass)
    scaled = directional_force(scaled_ego, scaled_other, PARAMS).energy
    assert scaled == pytest.approx(c * c * base, rel=1e-9, abs=1e-9)


# ---- pairwise force ----

def test_force_hand_case():
    ego = make_state(0, velocity=(30, 0), mass=1500.0)
    other = make_state(1, position=(50, 0), velocity=(20, 0), mass=1500.0)
    assert directional_force(ego, other, KC1).force == pytest.approx(
        750.0, rel=1e-12)


def test_force_coincident_floor():
    ego = make_state(0, velocity=(30, 0))
    other = make_state(1, position=(0, 0), velocity=(20, 0))
    sample = directional_force(ego, other, PARAMS)
    assert math.isfinite(sample.force)
    # the floor is two car half-lengths
    assert sample.force == pytest.approx(sample.energy / 4.5, rel=1e-12)


def test_force_zero_energy():
    ego = make_state(0, velocity=(5.0, 0.0))
    other = make_state(1, position=(12, 0), velocity=(5.0, 0.0))
    assert directional_force(ego, other, PARAMS).force == 0.0


def test_distance_floor_minimum_one_meter():
    a = make_state(0, velocity=(10.0, 0.0), extent=(0.5, 0.5))
    b = make_state(1, extent=(0.5, 0.5))
    sample = directional_force(a, b, PARAMS)
    assert sample.energy > 0.0
    assert sample.force == sample.energy / 1.0


@given(pair_strategy, st.floats(1.0, 150.0), st.floats(1.01, 3.0))
@settings(max_examples=200, deadline=None)
def test_force_monotone_distance_decay(draw, r, factor):
    ego, other = random_pair(draw)
    if directional_force(ego, other, PARAMS).energy <= 1e-9:
        return
    floor = oracles.distance_floor(ego.extent[0], other.extent[0])
    near = make_state(1, position=(ego.position[0] + floor + r,
                                   ego.position[1]),
                      velocity=tuple(other.velocity), mass=other.mass)
    far = make_state(1, position=(ego.position[0] + (floor + r) * factor,
                                  ego.position[1]),
                     velocity=tuple(other.velocity), mass=other.mass)
    assert (directional_force(ego, near, PARAMS).force
            > directional_force(ego, far, PARAMS).force)


# ---- doppler ratio and directional coefficients ----
#
# The Doppler ratio is alpha_lon wherever it is neither floored at 0 nor
# capped at its pole.

def test_doppler_orthogonal_is_one():
    assert heading_pair(20.0, 10.0, math.pi / 2).alpha_lon == 1.0


def test_doppler_hand_case():
    assert heading_pair(20.0, 10.0, 0.0).alpha_lon == pytest.approx(
        2.5, rel=1e-12)


def test_alpha_lon_hand_cases():
    assert heading_pair(20.0, 10.0, 0.0).alpha_lon == pytest.approx(
        2.5, rel=1e-12)
    assert heading_pair(35.0, 10.0, math.pi).alpha_lon == 0.0
    assert heading_pair(20.0, 10.0, math.pi / 2).alpha_lon == 1.0


def test_alpha_lon_cap_at_pole():
    assert heading_pair(20.0, 30.0, 0.0).alpha_lon == PARAMS.alpha_cap


def test_alpha_lat_extrema():
    assert heading_pair(20.0, 10.0, 0.0).alpha_lat == 1.0
    assert heading_pair(20.0, 10.0, math.pi / 2).alpha_lat == pytest.approx(
        math.exp(-1.0), rel=1e-12)
    assert heading_pair(20.0, 10.0, math.pi).alpha_lat == pytest.approx(
        1.0, abs=1e-12)


@given(st.floats(0.0, math.pi), st.floats(0.01, 5.0))
@settings(max_examples=300, deadline=None)
def test_alpha_lat_range(theta, beta):
    a = heading_pair(20.0, 10.0, theta, RiskFieldParams(beta=beta)).alpha_lat
    assert 0.0 < a <= 1.0
    assert a >= math.exp(-beta)


@given(st.floats(0.0, 40.0), st.floats(0.0, 40.0), st.floats(0.0, math.pi))
@settings(max_examples=300, deadline=None)
def test_alpha_lon_nonnegative(v_ego, v_other, theta):
    assert heading_pair(v_ego, v_other, theta).alpha_lon >= 0.0


def test_alphas_are_one_for_stationary_pair():
    sample = heading_pair(0.0, 0.0, 0.0)
    assert sample.alpha_lon == 1.0
    assert sample.alpha_lat == 1.0


# ---- directional force ----

def test_directional_zero_when_alpha_lon_zero():
    # receding fast: ratio negative, clamped to zero
    ego = make_state(0, velocity=(-35.0, 0.0))
    other = make_state(1, position=(8, 0), velocity=(35.0, 0.0))
    sample = directional_force(ego, other, PARAMS)
    assert sample.alpha_lon == 0.0
    assert sample.directional_force == 0.0


def test_directional_reduces_at_zero_angle():
    ego = make_state(0, velocity=(25.0, 0.0))
    other = make_state(1, position=(20, 0), velocity=(20.0, 0.0))
    sample = directional_force(ego, other, PARAMS)
    assert sample.alpha_lat == 1.0
    assert sample.directional_force == pytest.approx(
        sample.alpha_lon * sample.force, rel=1e-12)


def test_directional_full_hand_case():
    """Head-on pair at 50 m: the sample equals the product of the
    independently recomputed energy, force, and both coefficients."""
    ego = make_state(0, velocity=(30, 0), mass=1500.0)
    other = make_state(1, position=(50, 0), velocity=(-20, 0), mass=1500.0)
    sample = directional_force(ego, other, KC1)
    expected = oracles.directional_force(
        {"position": (0, 0), "velocity": (30, 0), "extent": (4.5, 2.0),
         "mass": 1500.0},
        {"position": (50, 0), "velocity": (-20, 0), "extent": (4.5, 2.0),
         "mass": 1500.0},
        k=1.0, C=1.0, beta=1.0, v0=30.0,
    )
    assert sample.directional_force == pytest.approx(expected, rel=1e-9)
    assert sample.energy == pytest.approx(0.5 * 750 * 2500, rel=1e-12)


def test_risk_sample_invariants():
    ego = make_state(0, velocity=(30, 0))
    other = make_state(7, position=(12, 9), velocity=(-5, 3))
    sample = directional_force(ego, other, PARAMS)
    assert sample.ego_id == 0 and sample.other_id == 7
    assert sample.energy >= 0.0
    assert sample.force >= 0.0
    assert sample.alpha_lon >= 0.0
    assert 0.0 < sample.alpha_lat <= 1.0
    assert math.isfinite(sample.directional_force)


# ---- the broadcasting kernel ----

def _kernel_agent(draw, agent_id, near):
    """A state with a speed either below EPS_SPEED or between 0.2 and
    45 m/s (both sides of wave_speed), sometimes at the position ``near``."""
    speed = draw(st.one_of(st.floats(0.0, 0.09), st.floats(0.2, 45.0)))
    heading = draw(st.floats(-math.pi, math.pi))
    position = near if draw(st.booleans()) else (draw(coord), draw(coord))
    return make_state(
        agent_id, position=position,
        velocity=(speed * math.cos(heading), speed * math.sin(heading)),
        extent=(draw(st.floats(0.5, 15.0)), 2.0), mass=draw(positive_mass),
        kind=draw(st.sampled_from([CAR, TRUCK, PEDESTRIAN])),
    )


def _oracle_state(s):
    return {"position": tuple(s.position), "velocity": tuple(s.velocity),
            "extent": s.extent, "mass": s.mass}


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_kernel_batch_matches_scalar_oracles(data):
    """Every element of an (M, N) kernel batch, M * N <= 12, equals the
    scalar oracles to 1e-9 relative, for egos of shape (M, 1) against
    others with their own C.  Pairs with |wave_speed - v_other cos theta|
    below 1e-3 are left out of the directional check: that close to the
    Doppler pole the ratio's conditioning, not the kernel, limits how far
    two correct evaluations agree."""
    draw = data.draw
    m = draw(st.integers(1, 4))
    n = draw(st.integers(0, 12 // m))
    unit = draw(st.booleans())
    params = RiskFieldParams(unit_mass_energy=unit)
    egos = [_kernel_agent(draw, i, (0.0, 0.0)) for i in range(m)]
    others = [_kernel_agent(draw, 10 + j, tuple(egos[j % m].position))
              for j in range(n)]
    c_of = {s.agent_id: draw(st.floats(0.0, 3.0)) for s in others}
    ego = AgentColumns(*(np.expand_dims(c, 1)
                         for c in agent_columns(egos, params)))
    other = agent_columns(others, params, c_of)
    energy, force, r = force_terms(ego, other, params)
    a_lon, a_lat, directional = directional_terms(ego, other, force, params)
    assert directional.shape == (m, n)
    for i, e in enumerate(egos):
        for j, o in enumerate(others):
            k, c = params.k[o.kind.category], c_of[o.agent_id]
            want_energy = oracles.interaction_energy(
                e.mass, o.mass, k, c, e.velocity, o.velocity, unit)
            dist = oracles.distance(e.position, o.position)
            want_force = oracles.pairwise_force(
                want_energy, dist,
                oracles.distance_floor(e.extent[0], o.extent[0]))
            assert energy[i, j] == pytest.approx(want_energy, rel=1e-9)
            assert force[i, j] == pytest.approx(want_force, rel=1e-9)
            assert r[i, j] == pytest.approx(dist, rel=1e-9)
            theta = oracles.velocity_angle(e.velocity, o.velocity)
            if abs(30.0 - math.hypot(*o.velocity) * math.cos(theta)) < 1e-3:
                continue
            want = oracles.directional_force(
                _oracle_state(e), _oracle_state(o), k, c, beta=1.0, v0=30.0,
                unit_mass=unit)
            assert directional[i, j] == pytest.approx(want, rel=1e-9)
            assert a_lat[i, j] == pytest.approx(
                oracles.alpha_lat(theta, 1.0), rel=1e-9)


@given(st.floats(0.0, 45.0), st.floats(30.01, 45.0), st.floats(0.2, 45.0),
       st.floats(-math.pi, math.pi))
@settings(max_examples=100, deadline=None)
def test_kernel_pole_caps_and_head_on_zeroes(v_ego, v_fast, v_other,
                                             heading):
    """An other at exactly wave_speed along the ego's heading sits on the
    Doppler pole and gets alpha_cap; an ego faster than wave_speed meeting
    an other head-on gets alpha_lon 0 and no directional force."""
    u = np.array([math.cos(heading), math.sin(heading)])
    egos = [make_state(0, velocity=v_ego * u),
            make_state(1, velocity=v_fast * u)]
    others = [make_state(2, position=(30.0, 0.0), velocity=30.0 * u),
              make_state(3, position=(-20.0, 5.0), velocity=-v_other * u)]
    ego = AgentColumns(*(np.expand_dims(c, 1)
                         for c in agent_columns(egos, PARAMS)))
    other = agent_columns(others, PARAMS)
    force = force_terms(ego, other, PARAMS)[1]
    a_lon, _, directional = directional_terms(ego, other, force, PARAMS)
    assert a_lon[0, 0] == PARAMS.alpha_cap
    assert a_lon[1, 1] == 0.0 and directional[1, 1] == 0.0


# ---- totals ----

def three_neighbor_setup():
    ego = make_state(0, position=(0, 0), velocity=(30, 0), mass=1500.0)
    others = [
        make_state(1, position=(40, 0), velocity=(20, 0), mass=1500.0),
        make_state(2, position=(-25, 5), velocity=(33, 1), mass=9000.0),
        make_state(3, position=(10, -20), velocity=(0.5, 14), mass=900.0),
    ]
    return ego, others


def summed_energy(ego, others):
    """The kernel's pair energies of the ego against ``others``, summed
    the way the graph totals sum their terms."""
    return float(sum_others(force_terms(agent_columns([ego], PARAMS),
                                        agent_columns(others, PARAMS),
                                        PARAMS)[0]))


def test_total_energy_empty():
    ego = make_state(0, velocity=(30, 0))
    assert summed_energy(ego, []) == 0.0
    assert total_directional_force(ego, star(0, []), [ego], PARAMS) == 0.0


def test_total_energy_additive_duplicate():
    ego, others = three_neighbor_setup()
    one = summed_energy(ego, others[:1])
    twin = make_state(9, position=tuple(others[0].position),
                      velocity=tuple(others[0].velocity),
                      mass=others[0].mass)
    two = summed_energy(ego, [others[0], twin])
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_total_energy_three_neighbor_oracle():
    ego, others = three_neighbor_setup()
    got = summed_energy(ego, others)
    expected = sum(
        oracles.interaction_energy(ego.mass, o.mass, 0.6, 1.0,
                                   tuple(ego.velocity), tuple(o.velocity))
        for o in others
    )
    assert got == pytest.approx(expected, rel=1e-9)


def test_total_directional_three_neighbor_oracle():
    ego, others = three_neighbor_setup()
    got = total_directional_force(ego, star(0, [1, 2, 3]), [ego] + others,
                                  PARAMS)
    expected = sum(
        oracles.directional_force(
            {"position": tuple(ego.position), "velocity": tuple(ego.velocity),
             "extent": ego.extent, "mass": ego.mass},
            {"position": tuple(o.position), "velocity": tuple(o.velocity),
             "extent": o.extent, "mass": o.mass},
            k=0.6, C=1.0, beta=1.0, v0=30.0,
        )
        for o in others
    )
    assert got == pytest.approx(expected, rel=1e-9)


def test_total_directional_duplicate_doubles():
    ego, others = three_neighbor_setup()
    one = total_directional_force(ego, star(0, [1]), [ego, others[0]],
                                  PARAMS)
    twin = make_state(9, position=tuple(others[0].position),
                      velocity=tuple(others[0].velocity),
                      mass=others[0].mass)
    two = total_directional_force(ego, star(0, [1, 9]),
                                  [ego, others[0], twin], PARAMS)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_totals_additive_over_disjoint_sets():
    ego, others = three_neighbor_setup()
    states = [ego] + others
    whole = total_directional_force(ego, star(0, [1, 2, 3]), states, PARAMS)
    left = total_directional_force(ego, star(0, [1]), states, PARAMS)
    right = total_directional_force(ego, star(0, [2, 3]), states, PARAMS)
    assert whole == pytest.approx(left + right, rel=1e-12)


def test_totals_independent_of_state_order():
    ego, others = three_neighbor_setup()
    graph = star(0, [1, 2, 3])
    forward = total_directional_force(ego, graph, [ego] + others, PARAMS)
    backward = total_directional_force(ego, graph,
                                       list(reversed([ego] + others)),
                                       PARAMS)
    assert forward == backward


def test_per_agent_C_override():
    ego, others = three_neighbor_setup()
    states = [ego, others[0]]
    base = total_directional_force(ego, star(0, [1]), states, PARAMS)
    doubled = total_directional_force(ego, star(0, [1]), states, PARAMS,
                                      c_of={1: 2.0})
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


@pytest.mark.parametrize("c", [-2.0, -0.5, math.nan, math.inf])
def test_per_agent_C_must_be_finite_and_nonnegative(c):
    ego, others = three_neighbor_setup()
    states = [ego, others[0]]
    with pytest.raises(BadConfig, match="agent 1"):
        total_directional_force(ego, star(0, [1]), states, PARAMS,
                                c_of={1: c})
    sc = constant_velocity_scenario([(1, 6, 2, 18, 0)], n_frames=1)
    grid = GridSpec(origin=(0.0, 0.0), cell=2.0, width=3, height=2)
    with pytest.raises(BadConfig, match="agent 1"):
        rasterize(sc, 0, ego, grid, PARAMS, c_of={1: c})
    assert total_directional_force(ego, star(0, [1]), states, PARAMS,
                                   c_of={1: 0.0}) == 0.0


def test_total_force_is_undirected_sum():
    """The undirected total lives in the nc_field column: pair forces
    without the directional correction, over the agents ahead of the ego
    (agents 1 and 3 here)."""
    ego, others = three_neighbor_setup()
    (row,) = evaluate_all(scenario_from_states([ego] + others, 25.0), 0,
                          params=PARAMS)
    expected = sum(directional_force(ego, o, PARAMS).force for o in others
                   if o.position[0] > ego.position[0])
    assert row.nc_field == pytest.approx(expected, rel=1e-12)


# ---- rasterization ----

def test_raster_empty_frame_is_zero():
    # two agents whose tracks do not overlap leave a hole in the span
    states = [make_state(0, f, (f, 0.0), (25, 0)) for f in range(3)]
    states += [make_state(1, f, (50.0, 0.0), (0, 0)) for f in range(6, 9)]
    sc = scenario_from_states(states, 25.0)
    grid = GridSpec(origin=(0, -5), cell=2.0, width=8, height=5)
    raster = rasterize(sc, 4, make_state(0, 4, (0, 0), (25, 0)), grid,
                       PARAMS)
    assert np.array_equal(raster.values, np.zeros((5, 8)))


def test_raster_outside_span_raises():
    sc = constant_velocity_scenario([(0, 0, 0, 10, 0)], n_frames=3)
    grid = GridSpec(origin=(0, -5), cell=2.0, width=4, height=4)
    with pytest.raises(EmptyFrame):
        rasterize(sc, 99, sc.state(0, 0), grid, PARAMS)


def test_raster_radial_symmetry_around_stationary_agent():
    """A single stationary agent and a stationary probe grid: cells at
    equal center distance hold equal values."""
    sc = constant_velocity_scenario([(1, 8.0, 8.0, 0, 0)], n_frames=1)
    # stationary probe moving at 5 m/s toward nothing in particular would
    # break symmetry via theta; keep it stationary as the example states,
    # but give it mass/kind so the energy is nonzero only via velocity.
    probe = make_state(99, 0, (0, 0), (3.0, 0.0))
    grid = GridSpec(origin=(0.0, 0.0), cell=2.0, width=8, height=8)
    raster = rasterize(sc, 0, probe, grid, PARAMS)
    agent = np.array([8.0, 8.0])
    by_radius = {}
    for row in range(8):
        for col in range(8):
            cx, cy = grid.center(row, col)
            r = round(math.hypot(cx - agent[0], cy - agent[1]), 9)
            by_radius.setdefault(r, []).append(raster.values[row, col])
    for values in by_radius.values():
        assert max(values) - min(values) <= 1e-9 * max(1.0, max(values))


def test_raster_matches_explicit_probe_bitwise():
    sc = constant_velocity_scenario(
        [(1, 10, 3, 20, 0), (2, 25, -2, 15, 1)], n_frames=2)
    probe = make_state(0, 1, (0, 0), (25.0, 0.0))
    grid = GridSpec(origin=(2.0, -4.0), cell=3.0, width=5, height=4)
    raster = rasterize(sc, 1, probe, grid, PARAMS)
    from dataclasses import replace
    for row in range(4):
        for col in range(5):
            cx, cy = grid.center(row, col)
            placed = replace(probe, position=np.array([cx, cy]))
            others = [s for s in sc.states_at(1)
                      if math.hypot(s.position[0] - cx,
                                    s.position[1] - cy) <= PARAMS.R]
            g = InteractionGraph(
                ego_id=0, frame=1, radius=PARAMS.R,
                edges=frozenset((0, s.agent_id) for s in others),
            )
            expected = total_directional_force(placed, g, others, PARAMS)
            assert raster.values[row, col] == expected


def test_dense_raster_cells_equal_totals_bitwise():
    sc = dense_scenario()
    probe, grid = dense_raster()
    raster = rasterize(sc, 1, probe, grid, PARAMS)
    from dataclasses import replace
    counts = set()
    for row in range(grid.height):
        for col in range(grid.width):
            cx, cy = grid.center(row, col)
            placed = replace(probe, position=np.array([cx, cy]))
            others = [s for s in sc.states_at(1)
                      if math.hypot(s.position[0] - cx,
                                    s.position[1] - cy) <= PARAMS.R]
            counts.add(len(others))
            expected = total_directional_force(
                placed, star(0, [s.agent_id for s in others], frame=1),
                others, PARAMS)
            assert raster.values[row, col] == expected
    assert max(counts) >= 8 and min(counts) < max(counts)


def test_raster_cell_halving_keeps_coincident_centers():
    sc = constant_velocity_scenario([(1, 6, 2, 18, 0)], n_frames=1)
    probe = make_state(0, 0, (0, 0), (25.0, 0.0))
    coarse = GridSpec(origin=(0.0, 0.0), cell=4.0, width=3, height=2)
    # halved cell, origin shifted so every coarse center is also a fine
    # center: values must depend only on the center position
    fine = GridSpec(origin=(1.0, 1.0), cell=2.0, width=6, height=4)
    a = rasterize(sc, 0, probe, coarse, PARAMS)
    b = rasterize(sc, 0, probe, fine, PARAMS)
    assert b.values.size == 4 * a.values.size
    centers = {}
    for row in range(2):
        for col in range(3):
            centers[coarse.center(row, col)] = a.values[row, col]
    hits = 0
    for row in range(4):
        for col in range(6):
            c = fine.center(row, col)
            if c in centers:
                assert b.values[row, col] == centers[c]
                hits += 1
    assert hits > 0


def test_raster_write_read_roundtrip_csv_and_binary(tmp_path):
    sc = constant_velocity_scenario([(1, 6, 2, 18, 0)], n_frames=1)
    probe = make_state(0, 0, (0, 0), (25.0, 0.0))
    grid = GridSpec(origin=(0.0, 0.0), cell=2.0, width=5, height=3)
    raster = rasterize(sc, 0, probe, grid, PARAMS)

    sidecar, payload = write_raster(raster, str(tmp_path / "r"))
    assert sidecar.endswith(".json") and payload.endswith(".csv")
    again = read_raster(sidecar)
    assert again.frame == raster.frame
    assert np.array_equal(again.values, raster.values)

    sidecar_b, payload_b = write_raster(raster, str(tmp_path / "b"),
                                        binary=True)
    assert payload_b.endswith(".f32")
    again_b = read_raster(sidecar_b)
    assert np.allclose(again_b.values, raster.values, rtol=1e-6, atol=1e-4)
    assert again_b.values.shape == raster.values.shape


def test_binary_raster_is_float32_and_refuses_overflow(tmp_path):
    grid = GridSpec(origin=(0.0, 0.0), cell=2.0, width=5, height=3)
    f32_max = float(np.finfo(np.float32).max)
    values = np.array([0.0, 1e-45, 0.1, 1.0 / 3.0, 12345.678, 1e30, f32_max,
                       2.5, 7.0, 1e-3, 3e38, 0.5, 1e10, 9.75, 42.0])
    raster = RiskRaster(grid=grid, frame=2, values=values.reshape(3, 5))
    _, payload = write_raster(raster, str(tmp_path / "ok"), binary=True)
    with open(payload, "rb") as fh:
        raw = fh.read()
    assert raw == struct.pack("<15f", *values)
    again = read_raster(str(tmp_path / "ok.json"))
    assert again.values.dtype == np.float64
    assert again.values.tolist() == np.float32(values).reshape(3, 5).tolist()

    for big in (1e39, 2.0 * f32_max, 1e300):
        beyond = RiskRaster(grid=grid, frame=2,
                            values=np.where(values > 1e29, big, values)
                            .reshape(3, 5))
        with pytest.raises(NumericError, match="float32"):
            write_raster(beyond, str(tmp_path / "big"), binary=True)
        write_raster(beyond, str(tmp_path / "big_csv"))  # csv holds float64


def test_read_raster_rejects_wrong_size_binary_payload(tmp_path):
    grid = GridSpec(origin=(0.0, 0.0), cell=2.0, width=5, height=3)
    raster = RiskRaster(grid=grid, frame=0, values=np.ones((3, 5)))
    sidecar, payload = write_raster(raster, str(tmp_path / "b"), binary=True)
    with open(payload, "rb") as fh:
        raw = fh.read()
    with open(payload, "wb") as fh:
        fh.write(raw[:-4])
    with pytest.raises(BadConfig, match="payload"):
        read_raster(sidecar)


@pytest.mark.parametrize("key", ["encoding", "origin", "cell", "width",
                                 "height", "payload", "frame"])
def test_read_raster_missing_sidecar_key_is_bad_config(tmp_path, key):
    grid = GridSpec(origin=(0.0, 0.0), cell=2.0, width=5, height=3)
    raster = RiskRaster(grid=grid, frame=0, values=np.ones((3, 5)))
    sidecar, _ = write_raster(raster, str(tmp_path / "r"))
    with open(sidecar) as fh:
        payload = json.load(fh)
    del payload[key]
    with open(sidecar, "w") as fh:
        json.dump(payload, fh)
    with pytest.raises(BadConfig, match=repr(key)):
        read_raster(sidecar)
