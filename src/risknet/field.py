"""Deterministic interaction-field risk.

Risk between two agents is modeled as a virtual interaction energy that
grows with relative speed and the reduced mass of the pair, turned into a
force by dividing by their distance, and reshaped directionally by a
Doppler-style longitudinal factor and a lateral angular decay.  Each
formula appears once, in a kernel that broadcasts over agent columns.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import BadConfig, EmptyFrame, NumericError
from .scene import EPS_SPEED, AgentState, InteractionGraph, Scenario, in_radius

# alpha_lon takes alpha_cap where its Doppler denominator is closer to
# zero than this, in place of the ratio's pole.
EPS_DENOM = 1e-6  # m/s

DEFAULT_K: Dict[str, float] = {
    "pedestrian": 1.0,
    "bicycle": 0.9,
    "truck": 0.8,
    "car": 0.6,
    "other": 0.6,
}


@dataclass
class RiskFieldParams:
    """Constants of the interaction field.

    k is a per-kind severity scale, C_default the fallback road-condition
    factor, beta shapes the lateral decay, wave_speed is the propagation
    speed of the directional correction, r_min the global floor on pair
    distance, R the interaction radius, and alpha_cap bounds the
    longitudinal factor where its denominator degenerates.
    """

    k: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_K))
    C_default: float = 1.0
    beta: float = 1.0
    wave_speed: float = 30.0  # m/s
    r_min: float = 1.0  # m
    R: float = 50.0  # m
    alpha_cap: float = 10.0
    unit_mass_energy: bool = False

    def __post_init__(self):
        if self.beta <= 0:
            raise BadConfig("beta must be positive")
        if self.wave_speed <= 0:
            raise BadConfig("wave_speed must be positive")
        if self.r_min <= 0:
            raise BadConfig("r_min must be positive")
        if self.R <= 0:
            raise BadConfig("interaction radius R must be positive")
        if self.alpha_cap <= 0:
            raise BadConfig("alpha_cap must be positive")
        missing = [c for c in DEFAULT_K if c not in self.k]
        if missing:
            raise BadConfig(f"k map missing kinds: {missing}")
        if not all(0.0 <= v < math.inf
                   for v in [*self.k.values(), self.C_default]):
            raise BadConfig("k and C_default must be finite and nonnegative")


@dataclass
class RiskSample:
    """Risk of one ego/other pair at one frame."""

    ego_id: int
    other_id: int
    frame: int
    energy: float  # J
    force: float  # N
    alpha_lon: float
    alpha_lat: float
    directional_force: float  # N


class AgentColumns(NamedTuple):
    """Agents as arrays; an (M, 1) ego against (N,) others gives (M, N)
    pair terms.  k and C enter only as the other agent's."""

    position: np.ndarray  # (..., 2) m
    velocity: np.ndarray  # (..., 2) m/s
    length: np.ndarray  # (...) m, extent along x
    mass: np.ndarray  # (...) kg
    k: np.ndarray  # (...) severity of the agent's kind
    C: np.ndarray  # (...) road condition around the agent


def _c_for(c_of: Optional[Mapping[int, float]], agent_id: int,
           params: RiskFieldParams) -> float:
    if c_of is None:
        return params.C_default
    c = c_of.get(agent_id, params.C_default)
    if not 0.0 <= c < math.inf:
        raise BadConfig(f"road condition C of agent {agent_id} must be "
                        f"finite and nonnegative, got {c!r}")
    return c


def agent_columns(states: Sequence[AgentState], params: RiskFieldParams,
                  c_of: Optional[Mapping[int, float]] = None) -> AgentColumns:
    """Stack states into (n,) columns with one array build; C by id."""
    rows = [[*s.position.tolist(), *s.velocity.tolist(), s.extent[0], s.mass,
             params.k[s.kind.category], _c_for(c_of, s.agent_id, params)]
            for s in states]
    table = np.array(rows, dtype=float).reshape(-1, 8)
    return AgentColumns(table[:, 0:2], table[:, 2:4], *table[:, 4:].T)


def force_terms(ego: AgentColumns, other: AgentColumns,
                params: RiskFieldParams) -> Tuple[np.ndarray, ...]:
    """Energy (J), force (N) and center distance r (m) of every pair;
    the force divides the energy by r floored at the contact distance,
    half the summed lengths and at least r_min."""
    dv = ego.velocity - other.velocity
    rel_sq = dv[..., 0] * dv[..., 0] + dv[..., 1] * dv[..., 1]
    if params.unit_mass_energy:
        mu = 1.0
    else:
        mu = ego.mass * other.mass / (ego.mass + other.mass)
    energy = 0.5 * other.k * other.C * mu * rel_sq
    d = other.position - ego.position
    r = np.hypot(d[..., 0], d[..., 1])
    floor = np.maximum(params.r_min, 0.5 * (ego.length + other.length))
    return energy, energy / np.maximum(r, floor), r


def directional_terms(ego: AgentColumns, other: AgentColumns,
                      force: np.ndarray,
                      params: RiskFieldParams) -> Tuple[np.ndarray, ...]:
    """alpha_lon, alpha_lat and directional force of every pair.

    cos theta is 1 when either speed is below EPS_SPEED, where it means
    nothing.  alpha_lon is the Doppler ratio floored at 0, and alpha_cap
    where its denominator is within EPS_DENOM of zero.  alpha_lat is
    exp(-beta * sin^2 theta), with sin^2 theta = 1 - cos^2 theta.
    """
    v_ego = np.hypot(ego.velocity[..., 0], ego.velocity[..., 1])
    v_other = np.hypot(other.velocity[..., 0], other.velocity[..., 1])
    dot = np.sum(ego.velocity * other.velocity, axis=-1)
    slow = (v_ego < EPS_SPEED) | (v_other < EPS_SPEED)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_theta = np.where(slow, 1.0,
                             np.clip(dot / (v_ego * v_other), -1.0, 1.0))
        denom = params.wave_speed - v_other * cos_theta
        ratio = (params.wave_speed + v_ego * cos_theta) / denom
    a_lon = np.where(np.abs(denom) < EPS_DENOM, params.alpha_cap,
                     np.maximum(0.0, ratio))
    a_lat = np.exp(-params.beta * (1.0 - cos_theta * cos_theta))
    return a_lon, a_lat, a_lon * a_lat * force


def sum_others(values: np.ndarray):
    """Sum (N,) or (M, N) values over the others axis one column at a
    time, so masked zero columns leave the sum bit-identical."""
    total = 0.0
    for column in values.T:
        total = total + column
    return total


def directional_force(
    ego: AgentState,
    other: AgentState,
    params: RiskFieldParams,
    C: Optional[float] = None,
) -> RiskSample:
    """Directionally corrected pairwise risk."""
    a = agent_columns([ego], params)
    b = agent_columns([other], params,
                      None if C is None else {other.agent_id: C})
    energy, force, _ = force_terms(a, b, params)
    a_lon, a_lat, directional = directional_terms(a, b, force, params)
    return RiskSample(
        ego_id=ego.agent_id,
        other_id=other.agent_id,
        frame=ego.frame,
        energy=float(energy[0]),
        force=float(force[0]),
        alpha_lon=float(a_lon[0]),
        alpha_lat=float(a_lat[0]),
        directional_force=float(directional[0]),
    )


def _overflow(ego_id: int, frame: int) -> BadConfig:
    """Refusal of a non-finite field total: its pair terms overflowed."""
    return BadConfig(f"field total of ego {ego_id} at frame {frame} is not "
                     "finite: its pair terms overflow")


@np.errstate(over="ignore", invalid="ignore")
def total_directional_force(
    ego: AgentState,
    graph: InteractionGraph,
    frame_states: Sequence[AgentState],
    params: RiskFieldParams,
    c_of: Optional[Mapping[int, float]] = None,
) -> float:
    """Sum of directionally corrected pair forces over graph neighbors at
    one frame, ascending by id: the reference frame_field's totals equal."""
    by_id = {s.agent_id: s for s in frame_states}
    a = agent_columns([ego], params)
    b = agent_columns([by_id[i] for i in graph.neighbors(ego.agent_id)],
                      params, c_of)
    force = force_terms(a, b, params)[1]
    total = float(sum_others(directional_terms(a, b, force, params)[2]))
    if not math.isfinite(total):
        raise _overflow(ego.agent_id, ego.frame)
    return total


# ==================== one ego over all its frames ====================

class FrameField(NamedTuple):
    """Pair terms of one ego against the other agents of each of its F
    frames; the others run ascending by id along N, padded after."""

    ego_id: int
    frame: np.ndarray  # (F,) ascending
    ego: AgentColumns  # (F, 1)
    others: AgentColumns  # (F, N)
    present: np.ndarray  # (F, N) False on padding
    near: np.ndarray  # (F, N) present and within R: build_graph's edges
    force: np.ndarray  # (F, N) N, without the directional correction
    directional: np.ndarray  # (F, N) N


@np.errstate(over="ignore", invalid="ignore")
def frame_field(scenario: Scenario, ego_id: int,
                params: RiskFieldParams) -> FrameField:
    """The field between the ego and every other agent of each frame the
    ego is in, as one evaluation read from the scenario table; every agent
    has the road condition C_default."""
    ego_rows, rows = scenario.padded_rows(ego_id)
    k = np.array([params.k[kind.category] for kind in scenario.kinds])
    ego, others = (AgentColumns(
        scenario.motion[r, 0:2], scenario.motion[r, 2:4],
        scenario.extent[r, 0], scenario.mass[r], k[scenario.kind[r]],
        np.full(r.shape, params.C_default)) for r in (ego_rows[:, None], rows))
    present = rows != ego_rows[:, None]
    # offsets from the ego, so the centre is the origin (x - 0.0 is x)
    offsets = (others.position - ego.position).reshape(-1, 2).tolist()
    near = present & np.reshape(in_radius(offsets, (0.0, 0.0), params.R),
                                rows.shape)
    force = force_terms(ego, others, params)[1]
    return FrameField(ego_id, scenario.frame[ego_rows], ego, others, present,
                      near, force,
                      directional_terms(ego, others, force, params)[2])


@np.errstate(over="ignore", invalid="ignore")
def frame_totals(ff: FrameField, *terms: np.ndarray) -> List[np.ndarray]:
    """Each (F, N) pair term summed over the in-radius others of every
    frame, in id order, so a frame's total equals the one-frame sum bit
    for bit.  The first frame where a total is not finite is refused."""
    totals = [sum_others(np.where(ff.near, t, 0.0)) for t in terms]
    finite = np.logical_and.reduce([np.isfinite(t) for t in totals])
    if not finite.all():
        raise _overflow(ff.ego_id, int(ff.frame[np.argmin(finite)]))
    return totals


# ==================== rasterization ====================

@dataclass(frozen=True)
class GridSpec:
    """Rectangular raster grid: origin is the lower-left corner, cell the
    edge length in meters; cells are addressed row-major."""

    origin: Tuple[float, float]
    cell: float
    width: int  # columns
    height: int  # rows

    def __post_init__(self):
        if self.cell <= 0 or self.width <= 0 or self.height <= 0:
            raise BadConfig("grid must have positive cell size and shape")

    def center(self, row: int, col: int) -> Tuple[float, float]:
        return (
            self.origin[0] + (col + 0.5) * self.cell,
            self.origin[1] + (row + 0.5) * self.cell,
        )


@dataclass
class RiskRaster:
    grid: GridSpec
    frame: int
    values: np.ndarray  # (height, width), newtons


@np.errstate(over="ignore", invalid="ignore")
def raster_field(probe: AgentState, others: AgentColumns, weights: np.ndarray,
                 grid: GridSpec, params: RiskFieldParams,
                 frame: int) -> RiskRaster:
    """Sum of weight times directional force on the probe at each cell
    center, over the others within R of it, one grid row per call."""
    ego = agent_columns([probe], params)
    xs, ys = grid.center(np.arange(grid.height), np.arange(grid.width))
    values = np.zeros((grid.height, grid.width))
    for row, y in enumerate(ys):
        centers = np.stack([xs, np.full(grid.width, y)], axis=1)
        placed = ego._replace(position=centers[:, None, :])
        _, force, r = force_terms(placed, others, params)
        directional = directional_terms(placed, others, force, params)[2]
        values[row] = sum_others(
            np.where(r <= params.R, directional, 0.0) * weights)
    if not np.isfinite(values).all() or (values < 0).any():
        raise BadConfig("raster produced non-finite or negative values")
    return RiskRaster(grid=grid, frame=frame, values=values)


def rasterize(
    scenario: Scenario,
    frame: int,
    probe: AgentState,
    grid: GridSpec,
    params: RiskFieldParams,
    c_of: Optional[Mapping[int, float]] = None,
) -> RiskRaster:
    """Evaluate the directional field on a grid.

    Each cell holds the total directional force a probe with the given
    velocity, mass, kind, and extent would experience at the cell center.
    The frame must lie inside the scenario span; a spanned frame that
    happens to hold no agents yields an all-zero raster.
    """
    lo, hi = scenario.span()
    if frame < lo or frame > hi:
        raise EmptyFrame(frame)
    # states_at is ascending by id, the order totals sum in
    others = [s for s in scenario.states_at(frame)
              if s.agent_id != probe.agent_id]
    return raster_field(probe, agent_columns(others, params, c_of),
                        np.ones(len(others)), grid, params, frame)


# ---- raster file I/O ----
#
# A raster on disk is a JSON sidecar describing the grid plus a payload
# that is either a CSV grid or raw little-endian float32, row-major.

F32 = "<f4"  # the model store's payload codec


def write_raster(
    raster: RiskRaster,
    base_path: str,
    binary: bool = False,
    extra: Optional[dict] = None,
) -> Tuple[str, str]:
    """Write ``base_path``.json (sidecar) and the payload next to it.

    Returns (sidecar_path, payload_path).
    """
    payload_path = base_path + (".f32" if binary else ".csv")
    sidecar_path = base_path + ".json"
    if binary:
        with np.errstate(over="ignore"):
            payload = raster.values.astype(F32)
        if np.isinf(payload).any():
            raise NumericError("raster value beyond the float32 range: "
                               f"{float(np.abs(raster.values).max())!r} N")
        with open(payload_path, "wb") as fh:
            fh.write(payload.tobytes())
    else:
        with open(payload_path, "w", newline="") as fh:
            for row in raster.values:
                fh.write(",".join(repr(float(v)) for v in row))
                fh.write("\n")
    sidecar = {
        "format": "risknet-raster",
        "version": 1,
        "frame": raster.frame,
        "origin": [raster.grid.origin[0], raster.grid.origin[1]],
        "cell": raster.grid.cell,
        "width": raster.grid.width,
        "height": raster.grid.height,
        "payload": payload_path.rsplit("/", 1)[-1],
        "encoding": "f32-le" if binary else "csv",
        "units": "N",
    }
    if extra:
        sidecar.update(extra)
    with open(sidecar_path, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar_path, payload_path


_SIDECAR_KEYS = ("encoding", "origin", "cell", "width", "height", "payload",
                 "frame")


def read_raster(sidecar_path: str) -> RiskRaster:
    """Load a raster written by write_raster."""
    with open(sidecar_path) as fh:
        sidecar = json.load(fh)
    if sidecar.get("format") != "risknet-raster":
        raise BadConfig(f"not a raster sidecar: {sidecar_path}")
    for key in _SIDECAR_KEYS:
        if key not in sidecar:
            raise BadConfig(f"raster sidecar {sidecar_path} lacks {key!r}")
    grid = GridSpec(
        origin=(float(sidecar["origin"][0]), float(sidecar["origin"][1])),
        cell=float(sidecar["cell"]),
        width=int(sidecar["width"]),
        height=int(sidecar["height"]),
    )
    directory = sidecar_path.rsplit("/", 1)
    prefix = directory[0] + "/" if len(directory) == 2 else ""
    payload_path = prefix + sidecar["payload"]
    if sidecar["encoding"] == "f32-le":
        with open(payload_path, "rb") as fh:
            raw = fh.read()
        count = grid.width * grid.height
        if len(raw) != 4 * count:
            raise BadConfig(
                f"raster payload holds {len(raw)} bytes, expected "
                f"{4 * count} for a {grid.width}x{grid.height} grid"
            )
        values = np.frombuffer(raw, F32).astype(float).reshape(
            grid.height, grid.width)
    else:
        with open(payload_path) as fh:
            values = np.array([[float(v) for v in line.split(",")]
                               for line in fh if line.strip()], dtype=float)
        if values.shape != (grid.height, grid.width):
            raise BadConfig("raster payload shape disagrees with sidecar")
    return RiskRaster(grid=grid, frame=int(sidecar["frame"]), values=values)
