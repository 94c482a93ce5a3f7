"""Probabilistic risk fusion: predicted-state risk, expectation over
modes, multi-agent totals, weighted cumulative scores, and rasters."""

import math

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
from risknet.errors import BadConfig
from risknet.field import (
    GridSpec,
    RiskFieldParams,
    rasterize,
    total_directional_force,
)
from risknet.predictor.model import MixturePrediction, PredictionMode
from risknet.prob import (
    RiskTimeSeries,
    cumulative_risk,
    estimate_velocity,
    expected_risk_series,
    horizon_weights,
    mode_risk,
    probabilistic_raster,
    replay_prediction,
)
from risknet.scene import build_graph, make_archetype, scenario_from_states

PARAMS = RiskFieldParams()
KC1 = RiskFieldParams(k={k: 1.0 for k in PARAMS.k})


def prediction_of(mode_specs, anchor=None, dt=0.2):
    """mode_specs = [(pi, [(x, y, vx, vy) per step])]."""
    modes = []
    for pi, rows in mode_specs:
        states = np.array(rows, float)
        modes.append(PredictionMode(
            pi=float(pi), states=states,
            covariances=np.zeros((states.shape[0], 4, 4)),
        ))
    return MixturePrediction(modes=modes, dt=dt, anchor=anchor)


def oracle_mode_risk(ego, anchor, x_hat, p, dt, k=1.0, C=1.0, beta=1.0,
                     v0=30.0, cap=10.0):
    """Straight-line recomputation: constant-velocity ego extrapolation
    against a ghost at the predicted position with a finite-difference
    velocity, pushed through the independent field oracles."""
    lead = p * dt
    ego_pos = (ego.position[0] + ego.velocity[0] * lead,
               ego.position[1] + ego.velocity[1] * lead)
    v_hat = oracles.finite_difference_velocity(anchor.position, x_hat, p, dt)
    return oracles.directional_force(
        {"position": ego_pos, "velocity": tuple(ego.velocity),
         "extent": tuple(ego.extent), "mass": ego.mass},
        {"position": tuple(x_hat), "velocity": v_hat,
         "extent": tuple(anchor.extent), "mass": anchor.mass},
        k, C, beta, v0, cap)


# ---- velocity estimation ----

def test_estimate_velocity_zero_displacement():
    v = estimate_velocity(np.array([3.0, -1.0]), np.array([3.0, -1.0]), 4,
                          0.2)
    assert np.array_equal(v, np.zeros(2))


def test_estimate_velocity_hand_case():
    v = estimate_velocity(np.array([0.0, 0.0]), np.array([10.0, 0.0]), 5,
                          0.2)
    assert np.allclose(v, [10.0, 0.0], rtol=1e-12)


def test_estimate_velocity_linear_in_displacement():
    x0 = np.array([2.0, 5.0])
    d = np.array([3.0, -4.0])
    single = estimate_velocity(x0, x0 + d, 3, 0.1)
    double = estimate_velocity(x0, x0 + 2 * d, 3, 0.1)
    assert np.allclose(double, 2 * single, rtol=1e-12)


def test_estimate_velocity_rejects_bad_steps():
    with pytest.raises(BadConfig):
        estimate_velocity(np.zeros(2), np.ones(2), 0, 0.2)
    with pytest.raises(BadConfig):
        estimate_velocity(np.zeros(2), np.ones(2), 1, 0.0)


# ---- per-mode risk ----

def test_mode_risk_zero_for_matched_velocity():
    # dt and displacements chosen binary-exact so the finite difference
    # reproduces the ego velocity with no rounding residue
    ego = make_state(0, position=(0.0, 0.0), velocity=(10.0, 0.0))
    anchor = make_state(1, position=(20.0, 0.0), velocity=(10.0, 0.0))
    p, dt = 4, 0.25
    pred = prediction_of(
        [(1.0, [(20.0 + 10.0 * dt * s, 0.0, 10.0, 0.0)
                for s in range(1, p + 1)])],
        anchor=anchor, dt=dt)
    assert mode_risk(ego, pred, 0, p, KC1) == 0.0


def test_mode_risk_hand_cap_case():
    # predicted speed equals the wave speed head-to-tail, so the
    # longitudinal factor saturates at the cap: 10 * (37500 J / 30 m)
    ego = make_state(0, position=(-4.0, 0.0), velocity=(20.0, 0.0))
    anchor = make_state(1, position=(24.0, 0.0), velocity=(28.0, 0.0))
    pred = prediction_of([(1.0, [(30.0, 0.0, 30.0, 0.0)])], anchor=anchor)
    got = mode_risk(ego, pred, 0, 1, KC1)
    assert got == pytest.approx(12500.0, rel=1e-9)
    composed = oracle_mode_risk(ego, anchor, (30.0, 0.0), 1, 0.2)
    assert got == pytest.approx(composed, rel=1e-12)


def test_mode_risk_ignores_mode_probability():
    ego = make_state(0, position=(0.0, 0.0), velocity=(12.0, 0.0))
    anchor = make_state(1, position=(25.0, 3.0), velocity=(8.0, 0.0))
    pred = prediction_of([(0.7, [(26.0, 3.0, 0.0, 0.0)]),
                          (0.3, [(26.0, 3.0, 0.0, 0.0)])], anchor=anchor)
    a = mode_risk(ego, pred, 0, 1, KC1)
    pred.modes[0].pi = 0.05
    assert mode_risk(ego, pred, 0, 1, KC1) == a


def test_mode_risk_matches_composed_oracle_random():
    rng = np.random.default_rng(17)
    dt = 0.2
    for _ in range(40):
        ego = make_state(0, position=rng.uniform(-20, 20, 2),
                         velocity=rng.uniform(-12, 12, 2))
        anchor = make_state(1, position=rng.uniform(-40, 40, 2),
                            velocity=rng.uniform(-12, 12, 2))
        p = int(rng.integers(1, 5))
        rows = [tuple(rng.uniform(-60, 60, 2)) + (0.0, 0.0)
                for _ in range(p)]
        pred = prediction_of([(1.0, rows)], anchor=anchor, dt=dt)
        got = mode_risk(ego, pred, 0, p, KC1)
        want = oracle_mode_risk(ego, anchor, rows[p - 1][:2], p, dt)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert got >= 0.0


def test_mode_risk_rejects_bad_steps_and_missing_anchor():
    ego = make_state(0, velocity=(10.0, 0.0))
    anchor = make_state(1, position=(20.0, 0.0))
    pred = prediction_of([(1.0, [(21.0, 0.0, 0.0, 0.0)])], anchor=anchor)
    with pytest.raises(BadConfig):
        mode_risk(ego, pred, 0, 0, KC1)
    with pytest.raises(BadConfig):
        mode_risk(ego, pred, 0, 2, KC1)
    anchorless = prediction_of([(1.0, [(21.0, 0.0, 0.0, 0.0)])])
    with pytest.raises(BadConfig):
        mode_risk(ego, anchorless, 0, 1, KC1)


# ---- expectation over modes and neighbours ----
#
# expected_risk_series on a scenario_from_states scene of the ego and the
# predictions' anchors at frame 0, against the per-mode scalar mode_risk.

def pair_risk(pred, p, ego, params, C=None):
    """Probability-weighted risk of one neighbour, sum of pi_l times
    mode_risk in mode order: the reference the series sums."""
    return sum(mode.pi * mode_risk(ego, pred, l, p, params, C)
               for l, mode in enumerate(pred.modes))


def neighbour_risk(predictions, neighbours, p, ego, params, c_of=None):
    """pair_risk summed over the predicted neighbours ascending by id."""
    total = 0.0
    for nid in sorted(neighbours):
        if nid in predictions:
            total += pair_risk(predictions[nid], p, ego, params,
                               (c_of or {}).get(nid))
    return total


def fused_step(ego, predictions, params=KC1, c_of=None, horizon=None):
    """The first step of the series of the ego among the anchors."""
    sc = scenario_from_states(
        [ego, *(pred.anchor for pred in predictions.values())], 5.0)
    return expected_risk_series(sc, ego.agent_id, ego.frame, predictions,
                                params, horizon=horizon, c_of=c_of).values[0]


def test_expected_pair_risk_single_mode_equals_mode_risk():
    ego = make_state(0, velocity=(15.0, 0.0))
    anchor = make_state(1, position=(30.0, 2.0), velocity=(5.0, 0.0))
    pred = prediction_of([(1.0, [(31.0, 2.0, 0.0, 0.0)])], anchor=anchor)
    assert fused_step(ego, {1: pred}) == mode_risk(ego, pred, 0, 1, KC1)


def test_expected_pair_risk_hand_weighted_sum():
    ego = make_state(0, velocity=(15.0, 0.0))
    anchor = make_state(1, position=(30.0, 0.0))
    pred = prediction_of([(0.25, [(31.0, 0.0, 0.0, 0.0)]),
                          (0.75, [(40.0, 0.0, 0.0, 0.0)])], anchor=anchor)
    risks = [mode_risk(ego, pred, l, 1, KC1) for l in (0, 1)]
    assert risks[0] != risks[1]
    assert fused_step(ego, {1: pred}) == 0.25 * risks[0] + 0.75 * risks[1]


def test_expected_pair_risk_equal_modes_collapse():
    ego = make_state(0, velocity=(15.0, 0.0))
    anchor = make_state(1, position=(30.0, 2.0), velocity=(5.0, 0.0))
    row = [(33.0, 2.0, 0.0, 0.0)]
    for pi0 in (0.1, 0.5, 0.9):
        pred = prediction_of([(pi0, row), (1.0 - pi0, row)], anchor=anchor)
        v = mode_risk(ego, pred, 0, 1, KC1)
        assert fused_step(ego, {1: pred}) == pytest.approx(v, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    raw=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=4),
    seed=st.integers(0, 10_000),
)
def test_expected_pair_risk_convexity(raw, seed):
    rng = np.random.default_rng(seed)
    pis = np.asarray(raw) / sum(raw)
    ego = make_state(0, position=rng.uniform(-10, 10, 2),
                     velocity=rng.uniform(-12, 12, 2))
    anchor = make_state(1, position=rng.uniform(-30, 30, 2),
                        velocity=rng.uniform(-12, 12, 2))
    specs = [(pi, [tuple(rng.uniform(-50, 50, 2)) + (0.0, 0.0)])
             for pi in pis]
    pred = prediction_of(specs, anchor=anchor)
    per_mode = [mode_risk(ego, pred, l, 1, KC1) for l in range(len(pis))]
    # R takes no part in a mode's risk; a wide one keeps the anchor in
    got = fused_step(ego, {1: pred}, RiskFieldParams(k=KC1.k, R=100.0))
    assert got == pair_risk(pred, 1, ego, KC1)
    slack = 1e-9 * max(1.0, max(per_mode))
    assert min(per_mode) - slack <= got <= max(per_mode) + slack


def three_neighbor_setup():
    ego = make_state(0, position=(0.0, 0.0), velocity=(8.0, 0.0))
    anchors = {
        1: make_state(1, position=(18.0, 2.0), velocity=(6.0, 0.0)),
        2: make_state(2, position=(-15.0, -4.0), velocity=(10.0, 1.0)),
        3: make_state(3, position=(5.0, 20.0), velocity=(0.0, -6.0)),
    }
    predictions = {
        1: prediction_of([(0.4, [(20.0, 2.0, 0.0, 0.0)]),
                          (0.6, [(19.0, 6.0, 0.0, 0.0)])],
                         anchor=anchors[1]),
        2: prediction_of([(0.5, [(-13.0, -4.0, 0.0, 0.0)]),
                          (0.5, [(-15.0, 0.0, 0.0, 0.0)])],
                         anchor=anchors[2]),
        3: prediction_of([(1.0, [(5.0, 14.0, 0.0, 0.0)])],
                         anchor=anchors[3]),
    }
    return ego, anchors, predictions


def test_total_expected_risk_empty_graph():
    ego, _, predictions = three_neighbor_setup()
    # every anchor lies beyond a 12 m radius of the ego
    params = RiskFieldParams(k=KC1.k, R=12.0)
    assert fused_step(ego, predictions, params) == 0.0
    assert neighbour_risk(predictions, [], 1, ego, params) == 0.0


def test_total_expected_risk_single_neighbor():
    ego, _, predictions = three_neighbor_setup()
    # only neighbour 2 (15.5 m away) lies within a 16 m radius
    params = RiskFieldParams(k=KC1.k, R=16.0)
    got = fused_step(ego, predictions, params)
    assert got == pair_risk(predictions[2], 1, ego, params)
    assert got == neighbour_risk(predictions, [2], 1, ego, params)


def test_total_expected_risk_three_neighbor_oracle_sum():
    ego, anchors, predictions = three_neighbor_setup()
    c_of = {2: 2.0}
    got = fused_step(ego, predictions, c_of=c_of)
    assert got == neighbour_risk(predictions, [1, 2, 3], 1, ego, KC1, c_of)
    want = 0.0
    for nid, pred in predictions.items():
        for mode in pred.modes:
            want += mode.pi * oracle_mode_risk(
                ego, anchors[nid], mode.states[0, :2], 1, 0.2,
                C=c_of.get(nid, 1.0))
    assert got == pytest.approx(want, rel=1e-9)


def test_total_expected_risk_skips_unpredicted_neighbors():
    ego, anchors, predictions = three_neighbor_setup()
    partial = {k: v for k, v in predictions.items() if k != 2}
    # agent 2 stays in the scene, a neighbour without a forecast
    sc = scenario_from_states([ego, *anchors.values()], 5.0)
    got = expected_risk_series(sc, 0, 0, partial, KC1).values[0]
    want = (pair_risk(predictions[1], 1, ego, KC1)
            + pair_risk(predictions[3], 1, ego, KC1))
    assert got == pytest.approx(want, rel=1e-12)


def test_expected_risk_series_refuses_horizon_beyond_a_prediction():
    ego, anchors, predictions = three_neighbor_setup()
    with pytest.raises(BadConfig, match="outside prediction horizon 1"):
        fused_step(ego, predictions, horizon=2)
    with pytest.raises(BadConfig, match="horizon must be >= 1"):
        fused_step(ego, predictions, horizon=0)
    sc = scenario_from_states([ego, *anchors.values()], 5.0)
    anchorless = dict(predictions)
    anchorless[3] = prediction_of([(1.0, [(5.0, 14.0, 0.0, 0.0)])])
    with pytest.raises(BadConfig, match="lacks an anchor"):
        expected_risk_series(sc, 0, 0, anchorless, KC1)


# ---- horizon weighting ----

def test_horizon_weights_uniform():
    w = horizon_weights("uniform", 8)
    assert w.shape == (8,)
    assert np.allclose(w, 1.0 / 8.0, rtol=1e-12)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_horizon_weights_exponential():
    w = horizon_weights("exp", 5)
    want = [math.exp(-0.1 * p) for p in range(1, 6)]
    assert np.allclose(w, want, rtol=1e-12)
    assert all(b < a for a, b in zip(w, w[1:]))


def test_horizon_weights_rejects_bad_input():
    with pytest.raises(BadConfig):
        horizon_weights("linear", 5)
    with pytest.raises(BadConfig):
        horizon_weights("uniform", 0)


def test_cumulative_risk_hand_case():
    assert cumulative_risk([2.0] * 5, [1.0] * 5) == 10.0


def test_cumulative_risk_zero_weights():
    assert cumulative_risk([5.0, 7.0, 1.0], [0.0, 0.0, 0.0]) == 0.0


def test_cumulative_risk_linearity():
    rng = np.random.default_rng(9)
    series = rng.uniform(0, 50, 6)
    weights = rng.uniform(0, 2, 6)
    base = cumulative_risk(series, weights)
    assert cumulative_risk(series, 3.0 * weights) == pytest.approx(
        3.0 * base, rel=1e-12)
    assert cumulative_risk(2.5 * series, weights) == pytest.approx(
        2.5 * base, rel=1e-12)
    other = rng.uniform(0, 50, 6)
    assert cumulative_risk(series + other, weights) == pytest.approx(
        base + cumulative_risk(other, weights), rel=1e-12)


def test_cumulative_risk_rejects_bad_weights():
    with pytest.raises(BadConfig):
        cumulative_risk([1.0, 2.0], [1.0])
    with pytest.raises(BadConfig):
        cumulative_risk([1.0, 2.0], [1.0, -0.5])


def test_series_validate():
    values = np.array([1.0, 2.0])
    weights = np.array([0.5, 0.5])
    good = RiskTimeSeries(ego_id=0, frame=3, dt=0.2, values=values,
                          weights=weights, weights_preset="uniform",
                          cumulative=1.5)
    good.validate()
    bad_sum = RiskTimeSeries(ego_id=0, frame=3, dt=0.2, values=values,
                             weights=weights, weights_preset="uniform",
                             cumulative=2.0)
    with pytest.raises(BadConfig):
        bad_sum.validate()
    negative = RiskTimeSeries(ego_id=0, frame=3, dt=0.2,
                              values=np.array([-1.0, 2.0]), weights=weights,
                              weights_preset="uniform", cumulative=0.5)
    with pytest.raises(BadConfig):
        negative.validate()


@pytest.mark.parametrize("values, cumulative", [
    ([math.nan, 2.0], 1.0), ([math.inf, 2.0], math.inf),
    ([1.0, 2.0], math.nan),
])
def test_series_validate_refuses_non_finite(values, cumulative):
    series = RiskTimeSeries(ego_id=4, frame=7, dt=0.2,
                            values=np.array(values),
                            weights=np.array([0.5, 0.5]),
                            weights_preset="uniform", cumulative=cumulative)
    with pytest.raises(BadConfig, match="ego 4 at frame 7 is not finite"):
        series.validate()


def test_expected_risk_series_refuses_overflowing_pair_terms():
    """A rear car at 1e200 m/s overflows its pair terms with the ego: the
    series is refused, and no RuntimeWarning escapes (the suite turns
    them into errors)."""
    sc = make_archetype("blocked_lane_change", {"rear_speed": 1e200})
    preds = {a: replay_prediction(sc, a, 0, 3) for a in (1, 2, 3)}
    with pytest.raises(BadConfig, match="ego 0 at frame 0 is not finite"):
        expected_risk_series(sc, 0, 0, preds, PARAMS)


# ---- assembled series ----

def fused_scenario():
    return constant_velocity_scenario(
        [(0, 0.0, 0.0, 8.0, 0.0),
         (1, 15.0, 3.0, 6.0, 0.0),
         (2, -12.0, -2.0, 10.0, 0.5)],
        n_frames=16, frame_rate=5.0)


def test_expected_risk_series_replay_structure():
    sc = fused_scenario()
    frame, t_f = 4, 3
    predictions = {j: replay_prediction(sc, j, frame, t_f) for j in (1, 2)}
    series = expected_risk_series(sc, 0, frame, predictions, KC1)
    assert series.ego_id == 0 and series.frame == frame
    assert series.dt == sc.dt and series.weights_preset == "uniform"
    assert series.values.shape == (t_f,)
    graph = build_graph(sc, 0, frame, KC1.R)
    ego = sc.state(0, frame)
    for p in range(1, t_f + 1):
        want = neighbour_risk(predictions, graph.neighbors(0), p, ego, KC1)
        assert series.values[p - 1] == want
    assert series.cumulative == pytest.approx(
        oracles.weighted_sum(series.weights, series.values), rel=1e-12)
    series.validate()


def test_expected_risk_series_custom_and_exp_weights():
    sc = fused_scenario()
    predictions = {j: replay_prediction(sc, j, 4, 3) for j in (1, 2)}
    custom = expected_risk_series(sc, 0, 4, predictions, KC1,
                                  weights=[0.5, 0.3, 0.2])
    assert custom.weights_preset == "custom"
    assert custom.cumulative == pytest.approx(
        oracles.weighted_sum([0.5, 0.3, 0.2], custom.values), rel=1e-12)
    exp = expected_risk_series(sc, 0, 4, predictions, KC1, weights="exp")
    want = [math.exp(-0.1 * p) for p in range(1, 4)]
    assert np.allclose(exp.weights, want, rtol=1e-12)


def test_expected_risk_series_horizon_rules():
    sc = fused_scenario()
    mixed = {1: replay_prediction(sc, 1, 4, 3),
             2: replay_prediction(sc, 2, 4, 4)}
    with pytest.raises(BadConfig):
        expected_risk_series(sc, 0, 4, mixed, KC1)
    with pytest.raises(BadConfig):
        expected_risk_series(sc, 0, 4, {}, KC1)
    empty = expected_risk_series(sc, 0, 4, {}, KC1, horizon=4)
    assert np.array_equal(empty.values, np.zeros(4))
    assert empty.cumulative == 0.0


# ---- recorded-future replay ----

def test_replay_prediction_structure():
    sc = fused_scenario()
    pred = replay_prediction(sc, 1, 4, 3)
    assert len(pred.modes) == 1
    mode = pred.modes[0]
    assert mode.pi == 1.0
    assert np.array_equal(mode.covariances, np.zeros((3, 4, 4)))
    assert pred.dt == sc.dt
    assert np.array_equal(pred.anchor.position, sc.state(1, 4).position)
    for p in range(1, 4):
        s = sc.state(1, 4 + p)
        assert np.array_equal(mode.states[p - 1, :2], s.position)
        assert np.array_equal(mode.states[p - 1, 2:4], s.velocity)


def test_replay_prediction_rejects_missing_future():
    sc = fused_scenario()
    last = sc.span()[1]
    with pytest.raises(BadConfig):
        replay_prediction(sc, 1, last - 1, 3)
    with pytest.raises(BadConfig):
        replay_prediction(sc, 1, 4, 0)


def test_replay_degeneracy_matches_deterministic_totals():
    # one certain mode replaying the recorded future must reproduce the
    # deterministic per-step totals evaluated on those future frames
    sc = fused_scenario()
    frame, t_f = 2, 6
    predictions = {j: replay_prediction(sc, j, frame, t_f) for j in (1, 2)}
    series = expected_risk_series(sc, 0, frame, predictions, KC1)
    for p in range(1, t_f + 1):
        f = frame + p
        graph = build_graph(sc, 0, f, KC1.R)
        det = total_directional_force(
            sc.state(0, f), graph, sc.states_at(f), KC1)
        assert series.values[p - 1] == pytest.approx(det, rel=1e-9)


# ---- probabilistic rasters ----

def small_grid():
    return GridSpec(origin=(0.0, 0.0), cell=10.0, width=15, height=1)


def test_probabilistic_raster_no_predictions_is_zero():
    ego = make_state(99, frame=7, position=(10.0, 5.0), velocity=(5.0, 0.0))
    raster = probabilistic_raster({}, ego, 2, small_grid(), KC1)
    assert np.array_equal(raster.values, np.zeros((1, 15)))
    assert raster.frame == 9


def test_probabilistic_raster_two_modes_halved_peaks():
    anchor = make_state(1, position=(0.0, 0.0), velocity=(5.0, 0.0))
    a_pos, b_pos = (15.0, 5.0), (135.0, 5.0)
    mix = prediction_of([(0.5, [a_pos + (5.0, 0.0)]),
                         (0.5, [b_pos + (5.0, 0.0)])], anchor=anchor)
    only_a = prediction_of([(1.0, [a_pos + (5.0, 0.0)])], anchor=anchor)
    only_b = prediction_of([(1.0, [b_pos + (5.0, 0.0)])], anchor=anchor)
    ego = make_state(99, frame=0, position=(0.0, 0.0), velocity=(0.0, 0.0))
    grid = small_grid()
    mixed = probabilistic_raster({1: mix}, ego, 1, grid, KC1)
    ra = probabilistic_raster({1: only_a}, ego, 1, grid, KC1)
    rb = probabilistic_raster({1: only_b}, ego, 1, grid, KC1)
    assert np.allclose(mixed.values, 0.5 * (ra.values + rb.values),
                       rtol=1e-12, atol=0.0)
    # modes sit on cell centers separated beyond the interaction radius,
    # so each peak is exactly half the matching single-mode peak
    assert mixed.values[0, 1] == 0.5 * ra.values[0, 1]
    assert mixed.values[0, 13] == 0.5 * rb.values[0, 13]
    assert mixed.values[0, 1] > mixed.values[0, 0]
    assert mixed.values[0, 1] > mixed.values[0, 2]
    assert mixed.values[0, 13] > mixed.values[0, 12]
    assert mixed.values[0, 13] > mixed.values[0, 14]


def test_probabilistic_raster_linear_in_modes():
    anchor = make_state(1, position=(20.0, 5.0), velocity=(6.0, 1.0))
    mix = prediction_of([(0.3, [(30.0, 5.0, 7.0, 0.0)]),
                         (0.7, [(45.0, 5.0, 3.0, 2.0)])], anchor=anchor)
    singles = [prediction_of([(1.0, [tuple(m.states[0])])], anchor=anchor)
               for m in mix.modes]
    ego = make_state(99, frame=3, position=(0.0, 0.0), velocity=(4.0, 0.0))
    grid = small_grid()
    mixed = probabilistic_raster({1: mix}, ego, 1, grid, KC1)
    parts = [probabilistic_raster({1: s}, ego, 1, grid, KC1) for s in singles]
    want = 0.3 * parts[0].values + 0.7 * parts[1].values
    assert np.allclose(mixed.values, want, rtol=1e-9, atol=1e-12)


def test_probabilistic_raster_degenerate_equals_deterministic():
    sc = fused_scenario()
    frame = 5
    predictions = {}
    for aid in (0, 1, 2):
        s = sc.state(aid, frame)
        predictions[aid] = prediction_of(
            [(1.0, [(s.position[0], s.position[1],
                     s.velocity[0], s.velocity[1])])],
            anchor=s, dt=sc.dt)
    probe = make_state(99, frame=frame, position=(0.0, 0.0),
                       velocity=(7.0, 0.0))
    grid = GridSpec(origin=(-20.0, -10.0), cell=4.0, width=12, height=6)
    probabilistic = probabilistic_raster(predictions, probe, 1, grid, KC1)
    deterministic = rasterize(sc, frame, probe, grid, KC1)
    assert np.array_equal(probabilistic.values, deterministic.values)


def test_dense_sure_mode_raster_equals_deterministic_bitwise():
    sc = dense_scenario()
    probe, grid = dense_raster()
    predictions = {
        s.agent_id: prediction_of(
            [(1.0, [(*s.position, *s.velocity)])], anchor=s, dt=sc.dt)
        for s in sc.states_at(1)
    }
    assert len(predictions) >= 8
    probabilistic = probabilistic_raster(predictions, probe, 1, grid, KC1)
    deterministic = rasterize(sc, 1, probe, grid, KC1)
    assert np.array_equal(probabilistic.values, deterministic.values)
    assert (deterministic.values > 0).all()


def test_probabilistic_raster_skips_ego_and_checks_horizon():
    anchor = make_state(1, position=(20.0, 5.0), velocity=(6.0, 0.0))
    pred = prediction_of([(1.0, [(25.0, 5.0, 6.0, 0.0)])], anchor=anchor)
    ego = make_state(99, frame=0, position=(0.0, 0.0), velocity=(4.0, 0.0))
    ego_pred = prediction_of([(1.0, [(1.0, 0.0, 4.0, 0.0)])], anchor=ego)
    grid = small_grid()
    with_ego = probabilistic_raster({1: pred, 99: ego_pred}, ego, 1, grid,
                                    KC1)
    without = probabilistic_raster({1: pred}, ego, 1, grid, KC1)
    assert np.array_equal(with_ego.values, without.values)
    with pytest.raises(BadConfig):
        probabilistic_raster({1: pred}, ego, 2, grid, KC1)
    with pytest.raises(BadConfig):
        probabilistic_raster({1: pred}, ego, 0, grid, KC1)
    anchorless = prediction_of([(1.0, [(25.0, 5.0, 6.0, 0.0)])])
    with pytest.raises(BadConfig):
        probabilistic_raster({1: anchorless}, ego, 1, grid, KC1)
