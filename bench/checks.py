"""Run-time correctness checks on the program's output files.

Field, baseline and raster values are recomputed from the generated
inputs with the independent formulas of ``tests/oracles.py``, which is
imported, never copied, so a deliberate change of a formula made there
and in the package together still passes.  Every reference is computed
during the run; nothing is compared against a stored digest.
"""

import csv
import json
import math
import os
from typing import Dict, List, Optional, Sequence

import oracles  # tests/oracles.py, put on sys.path by run.py

REL_TOL = 1e-9
# program defaults the benchmark runs with (RiskFieldParams, BaselineConfig)
K = {"pedestrian": 1.0, "bicycle": 0.9, "truck": 0.8, "car": 0.6,
     "other": 0.6}
C, BETA, WAVE_SPEED, ALPHA_CAP, R = 1.0, 1.0, 30.0, 10.0, 50.0
LANE_HALF_WIDTH = 1.75
RSS = (0.5, 2.0, 4.0, 8.0)  # rho, a_max_accel, b_min_brake, b_max_brake
SAMPLE_EVERY = 10  # frames or cells between sampled checks


class CheckFailed(Exception):
    pass


def _close(got: Optional[float], want: Optional[float], what: str) -> None:
    if got is None or want is None:
        if got is not want:
            raise CheckFailed(f"{what}: got {got!r}, want {want!r}")
        return
    if not math.isfinite(got):
        raise CheckFailed(f"{what}: non-finite {got!r}")
    if abs(got - want) > REL_TOL * max(abs(got), abs(want)) and \
            abs(got - want) > 1e-12:
        raise CheckFailed(f"{what}: got {got!r}, want {want!r}")


def _force(ego: dict, other: dict) -> float:
    return oracles.directional_force(ego, other, K[other["kind"]], C, BETA,
                                     WAVE_SPEED, ALPHA_CAP)


def field_sum(ego: dict, others: Sequence[dict]) -> float:
    """Directional force on ``ego`` from every other agent within R."""
    return sum(_force(ego, o) for o in others
               if o["id"] != ego["id"]
               and oracles.distance(ego["position"], o["position"]) <= R)


def _read_csv(path: str) -> List[Dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _opt(text: str) -> Optional[float]:
    return float(text) if text else None


# ---- highway_score ----

def check_gen(path: str, duration: float, rate: float) -> None:
    """The blocked-lane-change archetype at its documented defaults:
    ego 25 m/s, front 22 m/s 15 m ahead, rear 28 m/s 10 m behind,
    target-lane 15 m/s 5 m ahead, car length 4.5 m, lane 3.5 m."""
    rows = _read_csv(path)
    frames = int(round(duration * rate)) + 1
    if len(rows) != 4 * frames:
        raise CheckFailed(f"gen wrote {len(rows)} rows, want {4 * frames}")
    dt = 1.0 / rate
    start = {0: (50.0, 0.0, 25.0), 1: (50.0 + 15.0 + 4.5, 0.0, 22.0),
             2: (50.0 - 10.0 - 4.5, 0.0, 28.0),
             3: (50.0 + 5.0 + 4.5, 3.5, 15.0)}
    for row in rows[::997]:
        k, aid = int(row["frame"]), int(row["id"])
        x0, y, v = start[aid]
        t = k * dt
        _close(float(row["x"]), x0 + v * t, f"gen x frame {k} id {aid}")
        _close(float(row["y"]), y, f"gen y frame {k} id {aid}")
        _close(float(row["xVelocity"]), v, f"gen vx frame {k} id {aid}")


def check_eval(path: str, scene, ego_id: int) -> None:
    rows = _read_csv(path)
    if len(rows) != len(scene.tracks[ego_id].rows):
        raise CheckFailed(f"eval wrote {len(rows)} rows")
    for row in rows[::SAMPLE_EVERY]:
        f = int(row["frame"])
        want = field_sum(scene.state(ego_id, f), scene.states_at(f))
        _close(float(row["risknet_force"]), want, f"eval frame {f}")


def _lead(ego: dict, others: Sequence[dict]):
    """Nearest agent ahead inside the ego's lane band, by bumper gap."""
    best, best_gap = None, math.inf
    for o in others:
        if o["id"] == ego["id"]:
            continue
        if abs(o["position"][1] - ego["position"][1]) >= LANE_HALF_WIDTH:
            continue
        gap = (o["position"][0] - ego["position"][0]) \
            - 0.5 * (ego["extent"][0] + o["extent"][0])
        if 0.0 <= gap < best_gap:
            best, best_gap = o, gap
    return best, best_gap


def check_compare(path: str, scene, ego_id: int) -> None:
    rows = _read_csv(path)
    if len(rows) != len(scene.tracks[ego_id].rows):
        raise CheckFailed(f"compare wrote {len(rows)} rows")
    for row in rows[::SAMPLE_EVERY]:
        f = int(row["frame"])
        ego = scene.state(ego_id, f)
        others = scene.states_at(f)
        lead, gap = _lead(ego, others)
        ttc = thw = margin = None
        if lead is not None:
            vx = ego["velocity"][0]
            ttc = oracles.ttc(gap, vx, lead["velocity"][0])
            thw = oracles.thw(gap, math.hypot(*ego["velocity"]))
            margin = oracles.rss_safe_distance(
                vx, lead["velocity"][0], *RSS) - gap
        nc = 0.0
        for o in others:
            r = oracles.distance(ego["position"], o["position"])
            if o["id"] == ego_id or r > R \
                    or o["position"][0] - ego["position"][0] <= 0.0:
                continue
            energy = oracles.interaction_energy(
                ego["mass"], o["mass"], K[o["kind"]], C, ego["velocity"],
                o["velocity"])
            floor = oracles.distance_floor(ego["extent"][0], o["extent"][0])
            nc += oracles.pairwise_force(energy, r, floor)
        where = f"compare frame {f}"
        _close(_opt(row["ttc"]), ttc, where + " ttc")
        _close(_opt(row["thw"]), thw, where + " thw")
        _close(_opt(row["rss_margin"]), margin, where + " rss_margin")
        _close(float(row["nc_field"]), nc, where + " nc_field")
        _close(float(row["risknet_force"]), field_sum(ego, others),
               where + " risknet_force")


def read_raster(base: str):
    """(sidecar, values as a list of rows) of a CSV raster; checks that
    the grid is complete, finite and nonnegative."""
    with open(base + ".json") as fh:
        sidecar = json.load(fh)
    payload = os.path.join(os.path.dirname(base), sidecar["payload"])
    with open(payload) as fh:
        values = [[float(v) for v in line.split(",")]
                  for line in fh if line.strip()]
    if len(values) != sidecar["height"] or \
            any(len(row) != sidecar["width"] for row in values):
        raise CheckFailed(f"raster {base} shape disagrees with its sidecar")
    for row in values:
        for v in row:
            if not math.isfinite(v) or v < 0.0:
                raise CheckFailed(f"raster {base} holds {v!r}")
    return sidecar, values


def check_map(base: str, scene, ego_id: int, frame: int) -> None:
    sidecar, values = read_raster(base)
    x0, y0 = sidecar["origin"]
    cell = sidecar["cell"]
    others = scene.states_at(frame)
    probe = scene.state(ego_id, frame)
    flat = [(r, c) for r in range(sidecar["height"])
            for c in range(sidecar["width"])]
    for r, c in flat[::SAMPLE_EVERY]:
        placed = dict(probe, position=(x0 + (c + 0.5) * cell,
                                       y0 + (r + 0.5) * cell))
        want = sum(_force(placed, o) for o in others
                   if o["id"] != ego_id
                   and oracles.distance(placed["position"],
                                        o["position"]) <= R)
        _close(values[r][c], want, f"map cell ({r}, {c})")


# ---- forecast_map ----

def check_prediction(path: str, horizon: int) -> None:
    with open(path) as fh:
        data = json.load(fh)
    modes = data["modes"]
    total = math.fsum(m["pi"] for m in modes)
    if abs(total - 1.0) > 1e-9 or any(m["pi"] < 0 for m in modes):
        raise CheckFailed(f"mode probabilities sum to {total!r}")
    for m in modes:
        if len(m["states"]) != horizon:
            raise CheckFailed(f"forecast has {len(m['states'])} steps")
        for value in (v for row in m["states"] + m["cov_diag"]
                      for v in row):
            if not math.isfinite(value):
                raise CheckFailed("forecast holds a non-finite value")


def check_prob_map(base: str) -> None:
    sidecar, _ = read_raster(base)
    if sidecar.get("probabilistic") is not True:
        raise CheckFailed("raster is not marked probabilistic")


# ---- train ----

def check_training(out_dir: str, epochs: int, load_model) -> None:
    """Loss curve of epochs + 1 finite entries ending below its start,
    and a model file that loads back."""
    rows = _read_csv(os.path.join(out_dir, "loss.csv"))
    curve = [float(r["mean_nll"]) for r in rows]
    if len(curve) != epochs + 1:
        raise CheckFailed(f"loss curve has {len(curve)} entries")
    if not all(math.isfinite(v) for v in curve):
        raise CheckFailed(f"loss curve is not finite: {curve}")
    if not curve[-1] < curve[0]:
        raise CheckFailed(f"loss did not fall: {curve}")
    load_model(os.path.join(out_dir, "model.json"))
