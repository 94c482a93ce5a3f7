"""Surrogate safety baselines: TTC, THW, the longitudinal safe-distance
check, the non-directional field proxy, and the comparison table."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import constant_velocity_scenario, make_state
from risknet.baselines import (
    BaselineConfig,
    RssParams,
    bumper_gap,
    evaluate_all,
    read_comparison,
    rss_longitudinal_violation,
    rss_safe_distance,
    thw,
    ttc,
    write_comparison,
)
from risknet.errors import BadConfig
from risknet.field import RiskFieldParams, directional_force
from risknet.scene import make_archetype, scenario_from_states

CFG = BaselineConfig()
PARAMS = RiskFieldParams()


def lead_at_gap(gap, speed, lateral=0.0):
    """A lead car whose bumper gap to an ego car at the origin is gap."""
    return make_state(1, position=(gap + 4.5, lateral),
                      velocity=(speed, 0.0))


# ---- configuration ----

def test_config_validation():
    with pytest.raises(BadConfig):
        RssParams(rho=0.0)
    with pytest.raises(BadConfig):
        BaselineConfig(ttc_threshold=-1.0)
    with pytest.raises(BadConfig):
        BaselineConfig(lane_half_width=0.0)


def test_bumper_gap_measures_extents():
    ego = make_state(0, velocity=(10, 0))
    lead = make_state(1, position=(24.5, 0), velocity=(10, 0))
    assert bumper_gap(ego, lead) == pytest.approx(20.0, abs=1e-12)


# ---- time to collision ----

def test_ttc_hand_case():
    ego = make_state(0, velocity=(25.0, 0.0))
    assert ttc(ego, lead_at_gap(20.0, 15.0), CFG) == pytest.approx(
        oracles.ttc(20.0, 25.0, 15.0), rel=1e-12)
    assert ttc(ego, lead_at_gap(20.0, 15.0), CFG) == pytest.approx(2.0)


def test_ttc_opening_gap_is_none():
    ego = make_state(0, velocity=(15.0, 0.0))
    assert ttc(ego, lead_at_gap(20.0, 25.0), CFG) is None


def test_ttc_contact():
    ego = make_state(0, velocity=(25.0, 0.0))
    assert ttc(ego, lead_at_gap(0.0, 15.0), CFG) == 0.0


def test_ttc_out_of_lane_band_is_none():
    ego = make_state(0, velocity=(25.0, 0.0))
    assert ttc(ego, lead_at_gap(20.0, 15.0, lateral=2.0), CFG) is None


def test_ttc_lead_behind_is_none():
    ego = make_state(0, position=(30, 0), velocity=(25.0, 0.0))
    behind = make_state(1, position=(0, 0), velocity=(15.0, 0.0))
    assert ttc(ego, behind, CFG) is None


# ---- time headway ----

def test_thw_hand_case():
    ego = make_state(0, velocity=(15.0, 0.0))
    assert thw(ego, lead_at_gap(30.0, 10.0), CFG) == pytest.approx(
        oracles.thw(30.0, 15.0), rel=1e-12)
    assert thw(ego, lead_at_gap(30.0, 10.0), CFG) == pytest.approx(2.0)


def test_thw_stationary_ego_is_none():
    ego = make_state(0, velocity=(0.0, 0.0))
    assert thw(ego, lead_at_gap(30.0, 10.0), CFG) is None


def test_thw_zero_gap():
    ego = make_state(0, velocity=(15.0, 0.0))
    assert thw(ego, lead_at_gap(0.0, 10.0), CFG) == 0.0


@given(st.floats(1.0, 60.0), st.floats(1.0, 39.0), st.floats(0.2, 30.0))
@settings(max_examples=200, deadline=None)
def test_ttc_thw_scale_consistency(gap, v_lead, closing):
    """Doubling every gap and speed leaves both metrics unchanged."""
    v_ego = v_lead + closing
    ego = make_state(0, velocity=(v_ego, 0.0))
    ego2 = make_state(0, velocity=(2 * v_ego, 0.0))
    one_t = ttc(ego, lead_at_gap(gap, v_lead), CFG)
    two_t = ttc(ego2, lead_at_gap(2 * gap, 2 * v_lead), CFG)
    assert two_t == pytest.approx(one_t, rel=1e-9)
    one_h = thw(ego, lead_at_gap(gap, v_lead), CFG)
    two_h = thw(ego2, lead_at_gap(2 * gap, 2 * v_lead), CFG)
    assert two_h == pytest.approx(one_h, rel=1e-9)


# ---- longitudinal safe distance ----

def test_rss_hand_case():
    expected_d = oracles.rss_safe_distance(20.0, 20.0, 0.5, 2.0, 4.0, 8.0)
    assert expected_d == pytest.approx(40.375, abs=1e-12)
    assert rss_safe_distance(20.0, 20.0, CFG.rss) == pytest.approx(
        expected_d, rel=1e-12)
    ego = make_state(0, velocity=(20.0, 0.0))
    unsafe, margin = rss_longitudinal_violation(
        ego, lead_at_gap(30.0, 20.0), CFG)
    assert unsafe
    assert margin == pytest.approx(10.375, abs=1e-9)


def test_rss_boundary_gap_is_safe():
    d_safe = rss_safe_distance(20.0, 20.0, CFG.rss)
    ego = make_state(0, velocity=(20.0, 0.0))
    unsafe, margin = rss_longitudinal_violation(
        ego, lead_at_gap(d_safe, 20.0), CFG)
    assert not unsafe
    assert margin == pytest.approx(0.0, abs=1e-9)


def test_rss_stationary_pair_with_room_is_safe():
    ego = make_state(0, velocity=(0.0, 0.0))
    unsafe, _ = rss_longitudinal_violation(ego, lead_at_gap(1.0, 0.0), CFG)
    assert not unsafe


@given(st.floats(0.0, 35.0), st.floats(0.0, 35.0), st.floats(0.1, 5.0))
@settings(max_examples=200, deadline=None)
def test_rss_monotone_in_rear_speed(v_rear, v_front, bump):
    low = rss_safe_distance(v_rear, v_front, CFG.rss)
    high = rss_safe_distance(v_rear + bump, v_front, CFG.rss)
    assert high >= low


def test_rss_matches_oracle_over_grid():
    for v_r in (0.0, 5.0, 12.5, 20.0, 33.0):
        for v_f in (0.0, 5.0, 12.5, 20.0, 33.0):
            assert rss_safe_distance(v_r, v_f, CFG.rss) == pytest.approx(
                oracles.rss_safe_distance(v_r, v_f, 0.5, 2.0, 4.0, 8.0),
                rel=1e-12)


# ---- non-directional field proxy ----

def nc_field(*states):
    """The nc_field column of a one-frame scene whose ego is agent 0."""
    (row,) = evaluate_all(scenario_from_states(states, 25.0), 0, CFG,
                          PARAMS)
    return row.nc_field


def test_nc_rear_only_is_zero():
    ego = make_state(0, position=(20, 0), velocity=(25.0, 0.0))
    rear = make_state(1, position=(0, 0), velocity=(30.0, 0.0))
    assert nc_field(ego, rear) == 0.0


def test_nc_single_forward_equals_pairwise_force():
    ego = make_state(0, velocity=(25.0, 0.0))
    front = make_state(1, position=(18, 3), velocity=(20.0, 0.0))
    assert nc_field(ego, front) == directional_force(ego, front, PARAMS).force


def test_nc_mixed_set_sums_forward_only():
    ego = make_state(0, position=(0, 0), velocity=(25.0, 0.0), mass=1500.0)
    front_a = make_state(1, position=(18, 3), velocity=(20.0, 0.0),
                         mass=1500.0)
    front_b = make_state(2, position=(30, -2), velocity=(22.0, 1.0),
                         mass=9000.0)
    rear = make_state(3, position=(-12, 0), velocity=(30.0, 0.0),
                      mass=1500.0)
    got = nc_field(ego, front_a, front_b, rear)
    expected = 0.0
    for o in (front_a, front_b):
        e = oracles.interaction_energy(ego.mass, o.mass, 0.6, 1.0,
                                       tuple(ego.velocity),
                                       tuple(o.velocity))
        r = oracles.distance(ego.position, o.position)
        expected += oracles.pairwise_force(
            e, r, oracles.distance_floor(ego.extent[0], o.extent[0]))
    assert got == pytest.approx(expected, rel=1e-9)


# ---- per-frame table ----

def test_evaluate_all_ego_alone():
    sc = constant_velocity_scenario([(0, 0, 0, 10, 0)], n_frames=4)
    rows = evaluate_all(sc, 0, CFG, PARAMS)
    assert len(rows) == 4
    for row in rows:
        assert row.ttc is None and row.thw is None
        assert row.rss_margin is None
        assert row.nc_field == 0.0 and row.risknet_force == 0.0


def test_evaluate_all_missing_ego():
    sc = constant_velocity_scenario([(0, 0, 0, 10, 0)], n_frames=4)
    with pytest.raises(BadConfig):
        evaluate_all(sc, 9, CFG, PARAMS)


def test_evaluate_all_constant_gap_following():
    sc = constant_velocity_scenario(
        [(0, 0, 0, 20, 0), (1, 30, 0, 20, 0)], n_frames=6)
    rows = evaluate_all(sc, 0, CFG, PARAMS)
    headways = {round(r.thw, 12) for r in rows}
    assert all(r.ttc is None for r in rows)
    assert len(headways) == 1


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_evaluate_all_lead_matches_scalar_pick(data):
    """ttc, thw and rss use the in-band agent ahead with the smallest
    bumper gap, the first by id on a tie, as a loop over the frame's
    states picks it; the ego heads +x, -x or stands."""
    xs = st.sampled_from((-30.0, -10.0, -4.5, 0.0, 4.5, 10.0, 25.0))
    ys = st.sampled_from((0.0, 1.0, -1.75, 1.75, 3.5))
    states = [make_state(0, velocity=(
        data.draw(st.sampled_from((20.0, -20.0, 0.05))), 0.0))]
    for aid in range(1, data.draw(st.integers(1, 6)) + 1):
        states.append(make_state(
            aid, position=(data.draw(xs), data.draw(ys)),
            velocity=(data.draw(st.sampled_from((-10.0, 15.0, 25.0))), 0.0),
            extent=(data.draw(st.sampled_from((4.5, 12.0))), 2.0)))
    sc = scenario_from_states(states, 25.0)
    (row,) = evaluate_all(sc, 0, CFG, PARAMS)
    ego, lead = sc.state(0, 0), None
    for s in sc.states_at(0):
        gap = bumper_gap(ego, s)
        if (s.agent_id != 0 and gap >= 0.0
                and abs(s.position[1] - ego.position[1]) < CFG.lane_half_width
                and (lead is None or gap < bumper_gap(ego, lead))):
            lead = s
    if lead is None:
        assert (row.ttc, row.thw, row.rss_margin) == (None, None, None)
    else:
        assert row.ttc == ttc(ego, lead, CFG)
        assert row.thw == thw(ego, lead, CFG)
        assert row.rss_margin == rss_longitudinal_violation(ego, lead, CFG)[1]


def test_rear_overtake_rear_phase_visible_only_to_field():
    """While the overtaker is behind and laterally offset, the lane-gated
    longitudinal metrics are silent but the directional field is not."""
    sc = make_archetype("rear_overtake_cut_in")
    rows = evaluate_all(sc, 0, CFG, PARAMS)
    by_frame = {r.frame: r for r in rows}
    checked = 0
    for frame in sc.frame_list:
        ego = sc.state(0, frame)
        other = sc.state(1, frame)
        behind = other.position[0] < ego.position[0]
        lateral = abs(other.position[1] - ego.position[1]) > CFG.lane_half_width
        if not (behind and lateral):
            continue
        row = by_frame[frame]
        assert row.ttc is None and row.thw is None
        assert row.risknet_force > 0.0
        expected = oracles.directional_force(
            {"position": tuple(ego.position), "velocity": tuple(ego.velocity),
             "extent": ego.extent, "mass": ego.mass},
            {"position": tuple(other.position),
             "velocity": tuple(other.velocity),
             "extent": other.extent, "mass": other.mass},
            k=0.6, C=1.0, beta=1.0, v0=30.0,
        )
        assert row.risknet_force == pytest.approx(expected, rel=1e-9)
        checked += 1
    assert checked > 10


def test_comparison_roundtrip(tmp_path):
    sc = make_archetype("lateral_cut_in", frame_rate=10.0, duration=4.0)
    rows = evaluate_all(sc, 0, CFG, PARAMS)
    path = tmp_path / "cmp.csv"
    write_comparison(rows, str(path))
    again = read_comparison(str(path))
    assert len(again) == len(rows)
    for a, b in zip(rows, again):
        assert a.frame == b.frame
        for col in ("ttc", "thw", "rss_margin"):
            va, vb = getattr(a, col), getattr(b, col)
            assert (va is None) == (vb is None)
            if va is not None:
                assert va == vb
        assert a.nc_field == b.nc_field
        assert a.risknet_force == b.risknet_force
