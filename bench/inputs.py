"""Seeded input generators for the benchmark.

Every generator takes the workload seed and writes plain files (track
CSVs, run configurations) that the program then reads through its CLI;
nothing here calls into the package.  The same seed gives byte-identical
files.
"""

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

HEADER = ["frame", "id", "x", "y", "xVelocity", "yVelocity",
          "xAcceleration", "yAcceleration", "width", "height", "class",
          "mass"]

# ---- dense highway scene ----
#
# 60 agents for 500 frames at 25 Hz (30k rows) on four 3.5 m lanes.  Lane
# speed bands span 20-38 m/s so that traffic straddles the field's 30 m/s
# wave speed, and a fifth of the agents change lane once, which makes the
# heading angle between agents nonzero.

HIGHWAY_AGENTS = 60
HIGHWAY_FRAMES = 500
HIGHWAY_RATE = 25.0
LANE_WIDTH = 3.5
LANES = 4
LANE_SPEEDS = ((20.0, 25.0), (24.0, 29.0), (28.0, 33.0), (33.0, 38.0))
LANE_CHANGERS = 12
LANE_CHANGE_S = 4.0
CAR = (4.5, 2.0, 1500.0)  # length, width, mass
TRUCK = (12.0, 2.5, 15000.0)


@dataclass
class Track:
    """Closed-form motion of one agent, sampled per frame."""

    agent_id: int
    kind: str
    length: float
    width: float
    mass: float
    rows: np.ndarray  # (frames, 7): frame, x, y, vx, vy, ax, ay


@dataclass
class Highway:
    frame_rate: float
    tracks: Dict[int, Track]

    def state(self, agent_id: int, frame: int) -> dict:
        """Plain-dict state in the shape tests/oracles.py expects."""
        t = self.tracks[agent_id]
        r = t.rows[frame]
        return {
            "id": agent_id,
            "position": (float(r[1]), float(r[2])),
            "velocity": (float(r[3]), float(r[4])),
            "extent": (t.length, t.width),
            "mass": t.mass,
            "kind": t.kind,
        }

    def states_at(self, frame: int) -> List[dict]:
        return [self.state(a, frame) for a in sorted(self.tracks)]


def make_highway(seed: int) -> Highway:
    rng = np.random.default_rng(seed)
    dt = 1.0 / HIGHWAY_RATE
    t = np.arange(HIGHWAY_FRAMES) * dt
    per_lane = HIGHWAY_AGENTS // LANES
    changers = set(rng.choice(HIGHWAY_AGENTS, LANE_CHANGERS, replace=False)
                   .tolist())
    tracks: Dict[int, Track] = {}
    for lane in range(LANES):
        x = 10.0 + rng.uniform(0.0, 20.0)
        lo, hi = LANE_SPEEDS[lane]
        for k in range(per_lane):
            aid = lane * per_lane + k
            truck = lane == 0 and rng.uniform() < 0.3
            length, width, mass = TRUCK if truck else CAR
            v = rng.uniform(lo, hi)
            # gentle speed oscillation keeps accelerations nonzero
            amp = rng.uniform(0.2, 0.8)
            omega = rng.uniform(0.2, 0.6)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            xs = x + v * t - (amp / omega) * (np.cos(omega * t + phase)
                                              - math.cos(phase))
            vx = v + amp * np.sin(omega * t + phase)
            ax = amp * omega * np.cos(omega * t + phase)
            y0 = (lane + 0.5) * LANE_WIDTH
            ys = np.full_like(t, y0)
            vy = np.zeros_like(t)
            ay = np.zeros_like(t)
            if aid in changers:
                up = lane == 0 or (lane < LANES - 1 and rng.uniform() < 0.5)
                shift = LANE_WIDTH if up else -LANE_WIDTH
                t0 = rng.uniform(2.0, 14.0)
                tau = np.clip(t - t0, 0.0, LANE_CHANGE_S)
                active = (t > t0) & (t < t0 + LANE_CHANGE_S)
                w = math.pi / LANE_CHANGE_S
                ys = y0 + shift * 0.5 * (1.0 - np.cos(w * tau))
                vy = np.where(active, shift * 0.5 * w * np.sin(w * tau), 0.0)
                ay = np.where(active, shift * 0.5 * w * w * np.cos(w * tau),
                              0.0)
            rows = np.column_stack([np.arange(HIGHWAY_FRAMES), xs, ys, vx,
                                    vy, ax, ay])
            tracks[aid] = Track(aid, "truck" if truck else "car", length,
                                width, mass, rows)
            x += rng.uniform(30.0, 50.0) + length
    return Highway(HIGHWAY_RATE, tracks)


def _write_rows(path: str, tracks: Sequence[Track],
                frames: Sequence[int]) -> int:
    count = 0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(HEADER)
        for f in frames:
            for tr in tracks:
                r = tr.rows[f]
                w.writerow([f, tr.agent_id, repr(float(r[1])),
                            repr(float(r[2])), repr(float(r[3])),
                            repr(float(r[4])), repr(float(r[5])),
                            repr(float(r[6])), repr(tr.length),
                            repr(tr.width), tr.kind, repr(tr.mass)])
                count += 1
    return count


def write_highway(scene: Highway, path: str) -> int:
    """Write the whole scene as one track CSV; returns the row count."""
    tracks = [scene.tracks[a] for a in sorted(scene.tracks)]
    return _write_rows(path, tracks, range(HIGHWAY_FRAMES))


def central_agents(scene: Highway, frame: int, n: int) -> List[int]:
    """The ``n`` agents closest along the road to the scene's median
    position at ``frame``: a dense cluster of fixed size."""
    xs = {a: tr.rows[frame, 1] for a, tr in scene.tracks.items()}
    mid = float(np.median(list(xs.values())))
    return sorted(sorted(xs, key=lambda a: (abs(xs[a] - mid), a))[:n])


def write_slice(scene: Highway, path: str, agent_ids: Sequence[int],
                first_frame: int, frames: int) -> None:
    """Write ``agent_ids`` for ``frames`` frames from ``first_frame``.
    With ``frames`` = t_h + t_f every agent yields exactly one training
    window, its neighbours being the other agents of the slice."""
    _write_rows(path, [scene.tracks[a] for a in agent_ids],
                range(first_frame, first_frame + frames))


# ---- solo corpus ----
#
# The criterion-4 training corpus: one agent per file, each exactly one
# (t_h + t_f)-frame window long, alternating straight constant-velocity
# and constant-turn motion at 3-7 m/s.

def write_solo_corpus(seed: int, directory: str, n_tracks: int,
                      frames: int, dt: float) -> None:
    rng = np.random.default_rng(seed)
    os.makedirs(directory, exist_ok=True)
    length, width, mass = CAR
    for k in range(n_tracks):
        speed = rng.uniform(3.0, 7.0)
        heading = rng.uniform(-math.pi, math.pi)
        x0 = rng.uniform(30.0, 130.0)
        y0 = rng.uniform(30.0, 130.0)
        omega = rng.uniform(0.04, 0.1) * (1 if rng.uniform() < 0.5 else -1)
        rows = []
        for f in range(frames):
            t = f * dt
            if k % 2:
                phi = heading + omega * t
                px = x0 + (speed / omega) * (math.sin(phi)
                                             - math.sin(heading))
                py = y0 - (speed / omega) * (math.cos(phi)
                                             - math.cos(heading))
                vel = (speed * math.cos(phi), speed * math.sin(phi))
                acc = (-speed * omega * math.sin(phi),
                       speed * omega * math.cos(phi))
            else:
                px = x0 + speed * math.cos(heading) * t
                py = y0 + speed * math.sin(heading) * t
                vel = (speed * math.cos(heading), speed * math.sin(heading))
                acc = (0.0, 0.0)
            rows.append([f, px, py, vel[0], vel[1], acc[0], acc[1]])
        track = Track(0, "car", length, width, mass, np.array(rows))
        _write_rows(os.path.join(directory, f"track_{k:03d}.csv"), [track],
                    range(frames))


def write_config(path: str, frame_rate: float, predictor: dict) -> None:
    with open(path, "w") as fh:
        json.dump({"io": {"frame_rate": frame_rate},
                   "predictor": predictor}, fh, indent=2, sort_keys=True)
