"""Acceptance checks: one test per quantitative guarantee the package
makes, each enforcing its numeric tolerance and runtime budget.

The conftest summary hook prints one CRITERION n PASS/FAIL line per test
after the run, taken from the first docstring line.
"""

import hashlib
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import oracles
from conftest import constant_velocity_scenario, make_state
from oracles import ekf_propagate
from risknet.baselines import (
    BaselineConfig,
    RssParams,
    evaluate_all,
    rss_safe_distance,
    thw,
    ttc,
)
from risknet.field import (
    GridSpec,
    RiskFieldParams,
    directional_force,
    rasterize,
    total_directional_force,
)
from risknet.predictor.autodiff import Tensor
from risknet.predictor.model import (
    MixturePrediction,
    PredictionMode,
    decode,
    metrics,
    nll_loss,
)
from risknet.predictor.train import (
    TrainHyper,
    constant_motion_tracks,
    corpus_windows,
    gradient_check,
    init_model,
    predict_for_agent,
    train,
)
from risknet.prob import (
    cumulative_risk,
    estimate_velocity,
    expected_risk_series,
    horizon_weights,
    mode_risk,
    probabilistic_raster,
    replay_prediction,
)
from risknet.scene import build_graph, make_archetype

PARAMS = RiskFieldParams()
KC1 = RiskFieldParams(k={k: 1.0 for k in PARAMS.k})


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-30)


def pair(v_ego, v_other):
    """directional_force of an ego at the origin and an other 20 m
    ahead, under the default parameters."""
    return directional_force(
        make_state(0, velocity=v_ego),
        make_state(1, position=(20.0, 0.0), velocity=v_other), PARAMS)


def test_criterion_1_formula_oracles_agree():
    """Hand-value formula cases match independent oracles to 1e-9 relative within 1 s."""
    start = time.perf_counter()
    checks = []

    # interaction field: approaching pair, 50 m apart, equal 1500 kg cars
    ego = make_state(0, velocity=(30.0, 0.0), mass=1500.0)
    other = make_state(1, position=(50.0, 0.0), velocity=(20.0, 0.0),
                       mass=1500.0)
    sample = directional_force(ego, other, KC1)
    checks.append(("energy", sample.energy,
                   oracles.interaction_energy(1500.0, 1500.0, 1.0, 1.0,
                                              (30.0, 0.0), (20.0, 0.0))))
    checks.append(("energy_value", sample.energy, 37500.0))
    checks.append(("force", sample.force,
                   oracles.pairwise_force(37500.0, 50.0, 4.5)))
    checks.append(("force_value", sample.force, 750.0))
    # same heading at 20 and 10 m/s: the Doppler ratio, neither floored
    # nor capped, is alpha_lon
    doppler = pair((20.0, 0.0), (10.0, 0.0)).alpha_lon
    checks.append(("doppler", doppler,
                   oracles.doppler_ratio(30.0, 20.0, 10.0, 0.0)))
    checks.append(("doppler_value", doppler, 2.5))
    checks.append(("alpha_lon", doppler,
                   oracles.alpha_lon(30.0, 20.0, 10.0, 0.0)))
    checks.append(("alpha_lon_cap", pair((20.0, 0.0), (30.0, 0.0)).alpha_lon,
                   oracles.alpha_lon(30.0, 20.0, 30.0, 0.0)))
    checks.append(("alpha_lat", pair((20.0, 0.0), (0.0, 10.0)).alpha_lat,
                   oracles.alpha_lat(math.pi / 2.0, 1.0)))
    head_on = make_state(1, position=(50.0, 0.0), velocity=(-20.0, 0.0),
                         mass=1500.0)
    checks.append((
        "directional",
        directional_force(ego, head_on, KC1).directional_force,
        oracles.directional_force(
            {"position": (0.0, 0.0), "velocity": (30.0, 0.0),
             "extent": (4.5, 2.0), "mass": 1500.0},
            {"position": (50.0, 0.0), "velocity": (-20.0, 0.0),
             "extent": (4.5, 2.0), "mass": 1500.0},
            k=1.0, C=1.0, beta=1.0, v0=30.0,
        ),
    ))

    # classical baselines: 25.5 m bumper gap, 20 vs 10 m/s
    b_ego = make_state(0, velocity=(20.0, 0.0))
    b_lead = make_state(1, position=(30.0, 0.0), velocity=(10.0, 0.0))
    checks.append(("ttc", ttc(b_ego, b_lead), oracles.ttc(25.5, 20.0, 10.0)))
    checks.append(("ttc_value", ttc(b_ego, b_lead), 2.55))
    checks.append(("thw", thw(b_ego, b_lead), oracles.thw(25.5, 20.0)))
    checks.append(("rss", rss_safe_distance(20.0, 10.0, RssParams()),
                   oracles.rss_safe_distance(20.0, 10.0, 0.5, 2.0, 4.0, 8.0)))

    # predictor kinematics and likelihood
    x, _ = ekf_propagate(np.array([0.0, 0.0, 10.0, 0.0]), np.zeros((4, 4)),
                         np.array([2.0, 0.0]), np.zeros((2, 2)), 0.2)
    ox, ov = oracles.kinematic_step((0.0, 0.0), (10.0, 0.0), (2.0, 0.0), 0.2)
    checks.append(("ekf_x", x[0], ox[0]))
    checks.append(("ekf_x_value", x[0], 2.04))
    checks.append(("ekf_v", x[2], ov[0]))
    checks.append(("ekf_v_value", x[2], 10.4))
    _, P = ekf_propagate(np.zeros(4), np.eye(4), np.zeros(2), np.eye(2), 1.0)
    checks.append(("ekf_trace", np.trace(P),
                   np.trace(oracles.covariance_step(np.eye(4), (1.0, 1.0),
                                                    1.0))))
    checks.append(("ekf_trace_value", np.trace(P), 8.5))

    truth = np.array([[3.0, -1.0]])
    states = np.array([[3.0, -1.0, 0.0, 0.0]])
    pred = MixturePrediction(
        modes=[PredictionMode(pi=1.0, states=states,
                              covariances=np.eye(4)[None, :, :])],
        dt=0.2,
    )
    checks.append(("nll", nll_loss(pred, truth),
                   oracles.mixture_nll([0.0], [truth], [[np.eye(2)]], truth)))
    checks.append(("nll_value", nll_loss(pred, truth),
                   math.log(2.0 * math.pi) + math.log(1.0 + 1e-6)))

    # probabilistic fusion
    checks.append(("est_vel",
                   estimate_velocity((0.0, 0.0), (2.0, 0.0), 1, 0.2)[0],
                   oracles.finite_difference_velocity((0.0, 0.0), (2.0, 0.0),
                                                      1, 0.2)[0]))
    checks.append(("est_vel_value",
                   estimate_velocity((0.0, 0.0), (2.0, 0.0), 1, 0.2)[0],
                   10.0))
    m_ego = make_state(0, position=(-4.0, 0.0), velocity=(20.0, 0.0))
    anchor = make_state(1, position=(24.0, 0.0), velocity=(28.0, 0.0))
    capped = MixturePrediction(
        modes=[PredictionMode(
            pi=1.0, states=np.array([[30.0, 0.0, 30.0, 0.0]]),
            covariances=np.zeros((1, 4, 4)),
        )],
        dt=0.2, anchor=anchor,
    )
    checks.append(("mode_risk_cap", mode_risk(m_ego, capped, 0, 1, KC1),
                   12500.0))
    w = horizon_weights("uniform", 5)
    checks.append(("cumulative", cumulative_risk([2.0] * 5, np.ones(5)),
                   oracles.weighted_sum(np.ones(5), [2.0] * 5)))
    checks.append(("cumulative_value",
                   cumulative_risk([2.0] * 5, np.ones(5)), 10.0))
    checks.append(("uniform_weights", float(w.sum()), 1.0))

    for name, got, want in checks:
        assert rel_err(float(got), float(want)) <= 1e-9, (
            f"{name}: got {got!r}, want {want!r}"
        )
    assert time.perf_counter() - start < 1.0


def test_criterion_2_field_properties_random_states():
    """Distance decay, quadratic speed scaling, mass symmetry, and bounded direction factors hold over 1000+ random states within 5 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    for _ in range(1000):
        pos = rng.uniform(-40.0, 40.0, size=2)
        angle_i, angle_j = rng.uniform(0.0, 2.0 * math.pi, size=2)
        s_i, s_j = rng.uniform(0.5, 25.0, size=2)
        v_i = np.array([s_i * math.cos(angle_i), s_i * math.sin(angle_i)])
        v_j = np.array([s_j * math.cos(angle_j), s_j * math.sin(angle_j)])
        m_i, m_j = rng.uniform(800.0, 30000.0, size=2)
        ego = make_state(0, position=tuple(pos), velocity=tuple(v_i),
                         mass=m_i)

        # monotone decay with separation beyond the contact floor
        direction = rng.normal(size=2)
        direction /= math.hypot(*direction)
        r1 = 4.5 + rng.uniform(0.1, 30.0)
        r2 = r1 + rng.uniform(0.1, 30.0)
        near = make_state(1, position=tuple(pos + r1 * direction),
                          velocity=tuple(v_j), mass=m_j)
        far = make_state(1, position=tuple(pos + r2 * direction),
                         velocity=tuple(v_j), mass=m_j)
        sample = directional_force(ego, near, PARAMS)
        if sample.energy > 0.0:
            assert sample.force > directional_force(ego, far, PARAMS).force

        # doubling the relative velocity quadruples the energy
        doubled = make_state(1, position=tuple(pos + r1 * direction),
                             velocity=tuple(v_i - 2.0 * (v_i - v_j)),
                             mass=m_j)
        assert rel_err(directional_force(ego, doubled, PARAMS).energy,
                       4.0 * sample.energy) <= 1e-9 \
            or sample.energy == 0.0

        # reduced mass is symmetric under exchanging the pair
        swapped_ego = make_state(1, position=tuple(pos + r1 * direction),
                                 velocity=tuple(v_j), mass=m_j)
        swapped_other = make_state(0, position=tuple(pos),
                                   velocity=tuple(v_i), mass=m_i)
        assert rel_err(sample.energy,
                       directional_force(swapped_ego, swapped_other,
                                         PARAMS).energy) <= 1e-12 \
            or sample.energy == 0.0

        # direction factors stay inside their ranges
        assert 0.0 < sample.alpha_lat <= 1.0
        assert sample.alpha_lon >= 0.0
        assert math.isfinite(sample.alpha_lon)

    # lateral extrema: aligned, perpendicular, opposed
    assert pair((20.0, 0.0), (10.0, 0.0)).alpha_lat == 1.0
    assert rel_err(pair((20.0, 0.0), (0.0, 10.0)).alpha_lat,
                   math.exp(-1.0)) <= 1e-12
    assert pair((20.0, 0.0), (-10.0, 0.0)).alpha_lat == pytest.approx(
        1.0, abs=1e-12)

    # longitudinal clamping exactly at the degenerate denominator
    for speed in np.linspace(0.5, 25.0, 32):
        slow = make_state(0, velocity=(speed, 0.0))
        at_pole = make_state(1, position=(20.0, 0.0), velocity=(30.0, 0.0))
        assert directional_force(slow, at_pole, PARAMS).alpha_lon == 10.0
    assert time.perf_counter() - start < 5.0


def test_criterion_3_gradient_check():
    """Analytic gradients match central finite differences to 1e-3 over 10 seeds within 30 s."""
    start = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        hyper = TrainHyper(d_h=4, modes=2, t_h=3, t_f=2, dt=0.2, lr=0.05,
                           epochs=1, seed=seed)
        tracks = constant_motion_tracks(2, hyper, seed=100 + seed)
        samples = corpus_windows(tracks, hyper)
        assert samples
        cell, dec = init_model(hyper)
        worst = max(worst, gradient_check(cell, dec, samples[0], eps=1e-5))
    assert worst < 1e-3, f"worst relative gradient error {worst}"
    assert time.perf_counter() - start < 30.0


def test_criterion_4_trainer_convergence():
    """200-epoch training strictly reduces loss and reaches held-out ADE under 0.5 m within 600 s."""
    start = time.perf_counter()
    hyper = TrainHyper(d_h=12, modes=2, t_h=6, t_f=8, dt=0.2, lr=0.05,
                       epochs=200, seed=0)
    samples = corpus_windows(constant_motion_tracks(200, hyper, seed=0),
                             hyper)
    assert len(samples) == 200
    cell, dec, curve = train(samples, hyper)
    assert len(curve) == hyper.epochs + 1
    assert curve[-1] < curve[0]

    held_out = constant_motion_tracks(40, hyper, seed=1)
    errors = []
    for scenario in held_out:
        frame = hyper.t_h - 1
        pred = predict_for_agent(cell, dec, scenario, 0, frame,
                                 radius=50.0, t_h=hyper.t_h)
        truth = np.stack([
            scenario.state(0, frame + p).position
            for p in range(1, hyper.t_f + 1)
        ])
        errors.append(metrics(pred, truth)["ade"])
    ade = float(np.mean(errors))
    assert ade < 0.5, f"held-out ADE {ade}"
    assert time.perf_counter() - start < 600.0


def test_criterion_5_degeneracy_equivalence():
    """Replaying the recorded future as one sure mode matches the deterministic pipeline to 1e-9 within 5 s."""
    start = time.perf_counter()
    scenario = constant_velocity_scenario(
        [(0, 0.0, 0.0, 8.0, 0.0), (1, 15.0, 3.0, 6.0, 0.0),
         (2, -12.0, -2.0, 10.0, 0.5)],
        n_frames=16, frame_rate=5.0,
    )
    frame, t_f = 2, 6
    predictions = {
        aid: replay_prediction(scenario, aid, frame, t_f) for aid in (1, 2)
    }
    series = expected_risk_series(scenario, 0, frame, predictions, PARAMS)
    for p in range(1, t_f + 1):
        ego = scenario.state(0, frame + p)
        graph = build_graph(scenario, 0, frame + p, PARAMS.R)
        direct = total_directional_force(
            ego, graph, scenario.states_at(frame + p), PARAMS
        )
        assert rel_err(series.values[p - 1], direct) <= 1e-9

    # raster form: sure modes pinned at the current frame reproduce the
    # deterministic raster bit for bit
    grid = GridSpec(origin=(-20.0, -10.0), cell=4.0, width=12, height=6)
    probe = make_state(99, frame=frame, position=(1.0, 0.5),
                       velocity=(7.0, 1.0))
    pinned = {}
    for aid in (0, 1, 2):
        s = scenario.state(aid, frame)
        pinned[aid] = MixturePrediction(
            modes=[PredictionMode(
                pi=1.0,
                states=np.array([[s.position[0], s.position[1],
                                  s.velocity[0], s.velocity[1]]]),
                covariances=np.zeros((1, 4, 4)),
            )],
            dt=scenario.dt, anchor=s,
        )
    prob = probabilistic_raster(pinned, probe, 1, grid, PARAMS)
    det = rasterize(scenario, frame, probe, grid, PARAMS)
    assert np.array_equal(prob.values, det.values)
    assert time.perf_counter() - start < 5.0


def test_criterion_6_earliest_detection_ordering():
    """Field detection strictly precedes first finite TTC on both cut-in archetypes, and the cumulative proxy lags on the rear one, within 5 s."""
    start = time.perf_counter()

    def first_force_detection(rows, column):
        values = np.array([getattr(r, column) for r in rows])
        threshold = np.percentile(values, 90.0)
        return next(r.frame for r, v in zip(rows, values) if v > threshold)

    for name in ("lateral_cut_in", "rear_overtake_cut_in"):
        scenario = make_archetype(name, frame_rate=25.0)
        rows = evaluate_all(scenario, 0, BaselineConfig(), PARAMS)
        field_frame = first_force_detection(rows, "risknet_force")
        ttc_frame = next(r.frame for r in rows if r.ttc is not None)
        assert field_frame < ttc_frame, (
            f"{name}: field at {field_frame}, ttc at {ttc_frame}"
        )
        if name == "rear_overtake_cut_in":
            nc_frame = first_force_detection(rows, "nc_field")
            assert nc_frame - field_frame >= 1, (
                f"{name}: nc at {nc_frame}, field at {field_frame}"
            )
    assert time.perf_counter() - start < 5.0


def test_criterion_7_mixture_invariants_bulk():
    """10000 randomized decodes keep mode weights normalized and covariances symmetric PSD with nondecreasing traces, within 30 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    decodes = 0
    for model_index in range(20):
        hyper = TrainHyper(
            d_h=3 + model_index % 4, modes=1 + model_index % 3, t_h=3,
            t_f=2 + model_index % 4, dt=0.2, lr=0.05, epochs=1,
            seed=model_index,
        )
        _, dec = init_model(hyper)
        for _ in range(500):
            seq = [Tensor(rng.normal(size=hyper.d_h))
                   for _ in range(hyper.t_h)]
            x0 = np.concatenate([rng.uniform(-20.0, 20.0, size=2),
                                 rng.uniform(-10.0, 10.0, size=2)])
            pred = decode(dec, seq, None, x0)
            decodes += 1
            assert abs(sum(m.pi for m in pred.modes) - 1.0) <= 1e-9
            for mode in pred.modes:
                traces = []
                for cov in mode.covariances:
                    assert np.allclose(cov, cov.T, atol=1e-12)
                    assert np.linalg.eigvalsh(cov).min() >= -1e-9
                    traces.append(float(np.trace(cov)))
                assert all(b >= a - 1e-12
                           for a, b in zip(traces, traces[1:]))
    assert decodes == 10000
    assert time.perf_counter() - start < 30.0


def sha256_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli_checked(*argv):
    proc = subprocess.run([sys.executable, "-m", "risknet", *map(str, argv)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def reproducibility_pipeline(root):
    """Generate, train, evaluate, compare, map, and predict; return a
    name -> sha256 digest map over every artifact plus console output."""
    root.mkdir()
    data = root / "data"
    data.mkdir()
    cutin = data / "cutin.csv"
    run_cli_checked("gen", "--archetype", "lateral_cut_in",
                    "--frame-rate", "10", "--out", cutin)
    run_cli_checked("gen", "--archetype", "rear_overtake_cut_in",
                    "--frame-rate", "10", "--out", root / "rear.csv")

    settings = ("--set", "predictor.d_h=4", "--set", "predictor.modes=2",
                "--set", "predictor.t_h=3", "--set", "predictor.t_f=2",
                "--set", "predictor.dt=0.1", "--set", "io.frame_rate=10")
    run_cli_checked("train", "--dataset", data, *settings,
                    "--epochs", "2", "--seed", "0", "--out", root / "fit")
    model = root / "fit" / "model.json"

    run_cli_checked("eval", "--scenario", cutin, "--ego-id", "0",
                    "--set", "io.frame_rate=10", "--out", root / "eval.csv")
    compare = run_cli_checked("compare", "--scenario", cutin, "--ego-id", "0",
                              "--set", "io.frame_rate=10",
                              "--out", root / "cmp.csv")
    run_cli_checked("map", "--scenario", cutin, "--ego-id", "0",
                    "--frame", "40", "--cell", "2.0",
                    "--set", "io.frame_rate=10", "--out", root / "det")
    run_cli_checked("map", "--scenario", cutin, "--ego-id", "0",
                    "--frame", "40", "--cell", "2.0", "--binary",
                    "--probabilistic", "--model", model, "--step", "1",
                    *settings, "--out", root / "pmap")
    run_cli_checked("predict", "--scenario", cutin, "--ego-id", "1",
                    "--frame", "40", "--model", model, *settings,
                    "--out", root / "pred.json")

    digests = {"compare.stdout":
               hashlib.sha256(compare.stdout.encode()).hexdigest()}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digests[str(path.relative_to(root))] = sha256_file(path)
    return digests


def test_criterion_8_cli_reproducibility(tmp_path):
    """Identical seeded CLI pipelines produce byte-identical artifacts, verified by SHA-256."""
    first = reproducibility_pipeline(tmp_path / "r1")
    second = reproducibility_pipeline(tmp_path / "r2")
    assert set(first) == set(second)
    assert len(first) > 15
    for name in first:
        assert first[name] == second[name], f"artifact differs: {name}"
