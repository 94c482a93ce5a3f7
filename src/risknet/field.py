"""Deterministic interaction-field risk.

Risk between two agents is modeled as a virtual interaction energy that
grows with relative speed and the reduced mass of the pair, turned into a
force by dividing by their distance, and reshaped directionally by a
Doppler-style longitudinal factor and a lateral angular decay.
"""

import json
import math
import struct
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import BadConfig, DegenerateDenominator, EmptyFrame
from .scene import (
    AgentState,
    InteractionGraph,
    Scenario,
    velocity_angle,
)

# Doppler denominators closer to zero than this raise DegenerateDenominator.
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

    def k_of(self, kind_category: str) -> float:
        return self.k[kind_category]


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


def pair_distance_floor(a: AgentState, b: AgentState,
                        params: RiskFieldParams) -> float:
    """Distance floor for a pair: half the summed lengths, at least r_min."""
    return max(params.r_min, 0.5 * (a.extent[0] + b.extent[0]))


def interaction_energy(
    ego: AgentState,
    other: AgentState,
    params: RiskFieldParams,
    C: Optional[float] = None,
) -> float:
    """Virtual collision energy of a pair, in joules.

    Half the reduced mass of the pair times the squared relative speed,
    scaled by the other agent's severity factor k and road condition C.
    With ``unit_mass_energy`` the reduced-mass factor is replaced by 1,
    which makes the field mass-free.
    """
    c = params.C_default if C is None else C
    k = params.k_of(other.kind.category)
    dv = ego.velocity - other.velocity
    rel_sq = float(dv[0] * dv[0] + dv[1] * dv[1])
    if params.unit_mass_energy:
        mu = 1.0
    else:
        mu = ego.mass * other.mass / (ego.mass + other.mass)
    return 0.5 * k * c * mu * rel_sq


def pairwise_force(
    ego: AgentState,
    other: AgentState,
    params: RiskFieldParams,
    C: Optional[float] = None,
) -> float:
    """Interaction energy spread over the pair distance, in newtons.

    The distance is floored at the pair's contact distance so the force
    stays finite when bounding boxes touch.
    """
    d = other.position - ego.position
    r = max(math.hypot(d[0], d[1]), pair_distance_floor(ego, other, params))
    return interaction_energy(ego, other, params, C) / r


def doppler_ratio(
    v_ego: float, v_other: float, theta: float, params: RiskFieldParams
) -> float:
    """Directional frequency-shift ratio for approach speeds v_ego and
    v_other at relative heading angle theta.

    Raises DegenerateDenominator when the receding term cancels the wave
    speed to within EPS_DENOM.
    """
    denom = params.wave_speed - v_other * math.cos(theta)
    if abs(denom) < EPS_DENOM:
        raise DegenerateDenominator(
            f"wave speed {params.wave_speed} m/s cancelled at theta={theta}"
        )
    return (params.wave_speed + v_ego * math.cos(theta)) / denom


def alpha_lon(
    v_ego: float, v_other: float, theta: float, params: RiskFieldParams
) -> float:
    """Longitudinal risk amplification; nonnegative, capped at alpha_cap
    when the ratio degenerates."""
    try:
        ratio = doppler_ratio(v_ego, v_other, theta, params)
    except DegenerateDenominator:
        return params.alpha_cap
    return max(0.0, ratio)


def alpha_lat(theta: float, params: RiskFieldParams) -> float:
    """Lateral decay exp(-beta * sin^2 theta), in (0, 1]."""
    s = math.sin(theta)
    return math.exp(-params.beta * s * s)


def directional_force(
    ego: AgentState,
    other: AgentState,
    params: RiskFieldParams,
    C: Optional[float] = None,
) -> RiskSample:
    """Directionally corrected pairwise risk."""
    energy = interaction_energy(ego, other, params, C)
    force = pairwise_force(ego, other, params, C)
    theta = velocity_angle(ego.velocity, other.velocity)
    a_lon = alpha_lon(ego.speed, other.speed, theta, params)
    a_lat = alpha_lat(theta, params)
    return RiskSample(
        ego_id=ego.agent_id,
        other_id=other.agent_id,
        frame=ego.frame,
        energy=energy,
        force=force,
        alpha_lon=a_lon,
        alpha_lat=a_lat,
        directional_force=a_lon * a_lat * force,
    )


def _c_for(c_of: Optional[Mapping[int, float]], agent_id: int,
           params: RiskFieldParams) -> float:
    if c_of is None:
        return params.C_default
    return c_of.get(agent_id, params.C_default)


def total_energy(
    ego: AgentState,
    graph: InteractionGraph,
    frame_states: Sequence[AgentState],
    params: RiskFieldParams,
    c_of: Optional[Mapping[int, float]] = None,
) -> float:
    """Sum of pair energies over the ego's graph neighbors (no direction)."""
    by_id = {s.agent_id: s for s in frame_states}
    total = 0.0
    for nid in graph.neighbors(ego.agent_id):
        other = by_id[nid]
        total += interaction_energy(ego, other, params, _c_for(c_of, nid, params))
    return total


def total_force(
    ego: AgentState,
    graph: InteractionGraph,
    frame_states: Sequence[AgentState],
    params: RiskFieldParams,
    c_of: Optional[Mapping[int, float]] = None,
) -> float:
    """Sum of pair forces over the ego's graph neighbors, without the
    directional correction.  Kept callable on its own for ablations."""
    by_id = {s.agent_id: s for s in frame_states}
    total = 0.0
    for nid in graph.neighbors(ego.agent_id):
        other = by_id[nid]
        total += pairwise_force(ego, other, params, _c_for(c_of, nid, params))
    return total


def total_directional_force(
    ego: AgentState,
    graph: InteractionGraph,
    frame_states: Sequence[AgentState],
    params: RiskFieldParams,
    c_of: Optional[Mapping[int, float]] = None,
) -> float:
    """Sum of directionally corrected pair forces over graph neighbors."""
    by_id = {s.agent_id: s for s in frame_states}
    total = 0.0
    for nid in graph.neighbors(ego.agent_id):
        other = by_id[nid]
        sample = directional_force(ego, other, params, _c_for(c_of, nid, params))
        total += sample.directional_force
    return total


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


def _probe_at(probe: AgentState, x: float, y: float) -> AgentState:
    return replace(probe, position=np.array([x, y]))


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
    others = [s for s in scenario.states_at(frame)
              if s.agent_id != probe.agent_id]
    values = np.zeros((grid.height, grid.width))
    for row in range(grid.height):
        for col in range(grid.width):
            cx, cy = grid.center(row, col)
            placed = _probe_at(probe, cx, cy)
            in_range = [
                s for s in others
                if math.hypot(s.position[0] - cx, s.position[1] - cy)
                <= params.R
            ]
            edges = frozenset((probe.agent_id, s.agent_id) for s in in_range)
            graph = InteractionGraph(
                ego_id=probe.agent_id, frame=frame,
                radius=params.R, edges=edges,
            )
            values[row, col] = total_directional_force(
                placed, graph, in_range, params, c_of
            )
    if not np.isfinite(values).all() or (values < 0).any():
        raise BadConfig("raster produced non-finite or negative values")
    return RiskRaster(grid=grid, frame=frame, values=values)


# ---- raster file I/O ----
#
# A raster on disk is a JSON sidecar describing the grid plus a payload
# that is either a CSV grid or raw little-endian float32, row-major.

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
        flat = np.ascontiguousarray(raster.values, dtype=np.float32).ravel()
        with open(payload_path, "wb") as fh:
            fh.write(struct.pack("<" + "f" * flat.size, *flat))
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
        values = np.array(
            struct.unpack("<" + "f" * count, raw), dtype=float
        ).reshape(grid.height, grid.width)
    else:
        rows: List[List[float]] = []
        with open(payload_path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append([float(v) for v in line.split(",")])
        values = np.array(rows, dtype=float)
        if values.shape != (grid.height, grid.width):
            raise BadConfig("raster payload shape disagrees with sidecar")
    return RiskRaster(grid=grid, frame=int(sidecar["frame"]), values=values)
