"""Classical surrogate safety baselines.

Time-to-collision, time headway, a responsibility-sensitive longitudinal
safe-distance check, and a non-directional field proxy, all evaluated per
frame against the same scenario the interaction field sees.
"""

import csv
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import BadConfig
from .field import RiskFieldParams, total_directional_force, total_force
from .scene import (
    DEFAULT_LANE_WIDTH,
    EPS_SPEED,
    AgentState,
    InteractionGraph,
    Scenario,
    build_graph,
)


@dataclass
class RssParams:
    """Longitudinal safe-distance constants: reaction time rho, maximum
    rear acceleration during the reaction, minimum rear braking, and
    maximum front braking (all magnitudes)."""

    rho: float = 0.5  # s
    a_max_accel: float = 2.0  # m/s^2
    b_min_brake: float = 4.0  # m/s^2
    b_max_brake: float = 8.0  # m/s^2

    def __post_init__(self):
        if min(self.rho, self.a_max_accel, self.b_min_brake,
               self.b_max_brake) <= 0:
            raise BadConfig("RSS constants must be positive")


@dataclass
class BaselineConfig:
    rss: RssParams = field(default_factory=RssParams)
    ttc_threshold: float = 3.0  # s
    thw_threshold: float = 2.0  # s
    lane_half_width: float = DEFAULT_LANE_WIDTH / 2.0  # m

    def __post_init__(self):
        if self.ttc_threshold <= 0 or self.thw_threshold <= 0:
            raise BadConfig("detection thresholds must be positive")
        if self.lane_half_width <= 0:
            raise BadConfig("lane_half_width must be positive")


def _heading_sign(ego: AgentState) -> float:
    """Travel direction along x; slow egos default to +x."""
    return -1.0 if ego.velocity[0] < -EPS_SPEED else 1.0


def _gap(ego: AgentState, x, length):
    """Bumper-to-bumper gap along the ego's travel axis to agents centred
    at ``x`` with extent ``length`` along x, negative on overlap; floats
    or arrays alike."""
    center = _heading_sign(ego) * (x - ego.position[0])
    return center - 0.5 * (ego.extent[0] + length)


def _lead_gate(ego: AgentState, gap, y, half_width: float):
    """Gate shared by ttc/thw/rss and the lead pick: ahead (nonnegative
    gap) and inside the ego's lane band; floats or arrays alike."""
    return (abs(y - ego.position[1]) < half_width) & (gap >= 0.0)


def bumper_gap(ego: AgentState, lead: AgentState) -> float:
    """Bumper-to-bumper gap along the travel axis, negative on overlap."""
    return _gap(ego, lead.position[0], lead.extent[0])


def _leads(ego: AgentState, lead: AgentState, half_width: float) -> bool:
    return bool(_lead_gate(ego, bumper_gap(ego, lead), lead.position[1],
                           half_width))


def ttc(
    ego: AgentState, lead: AgentState,
    cfg: Optional[BaselineConfig] = None,
) -> Optional[float]:
    """Time to collision in seconds, or None where it does not apply.

    Applies when the lead is ahead of the ego inside its lane band and the
    bumper gap is closing.
    """
    cfg = cfg or BaselineConfig()
    if not _leads(ego, lead, cfg.lane_half_width):
        return None
    sign = _heading_sign(ego)
    closing = sign * (ego.velocity[0] - lead.velocity[0])
    if closing <= 0.0:
        return None
    return bumper_gap(ego, lead) / closing


def thw(
    ego: AgentState, lead: AgentState,
    cfg: Optional[BaselineConfig] = None,
) -> Optional[float]:
    """Time headway: bumper gap over ego speed; None for a standing ego
    or when the lead gate fails."""
    cfg = cfg or BaselineConfig()
    if not _leads(ego, lead, cfg.lane_half_width):
        return None
    speed = ego.speed
    if speed < EPS_SPEED:
        return None
    return bumper_gap(ego, lead) / speed


def rss_safe_distance(v_rear: float, v_front: float, p: RssParams) -> float:
    """Minimum longitudinal distance the rear vehicle must keep, floored
    at zero."""
    v_reacted = v_rear + p.rho * p.a_max_accel
    d = (v_rear * p.rho
         + 0.5 * p.a_max_accel * p.rho ** 2
         + v_reacted * v_reacted / (2.0 * p.b_min_brake)
         - v_front * v_front / (2.0 * p.b_max_brake))
    return max(0.0, d)


def rss_longitudinal_violation(
    ego: AgentState, lead: AgentState,
    cfg: Optional[BaselineConfig] = None,
) -> Optional[Tuple[bool, float]]:
    """(unsafe, margin) against the safe-distance rule, or None when the
    lead gate fails.

    margin = safe distance minus actual gap: positive means unsafe.  The
    comparison is strict, so a gap exactly at the safe distance is safe.
    """
    cfg = cfg or BaselineConfig()
    if not _leads(ego, lead, cfg.lane_half_width):
        return None
    sign = _heading_sign(ego)
    v_rear = sign * ego.velocity[0]
    v_front = sign * lead.velocity[0]
    gap = bumper_gap(ego, lead)
    d_safe = rss_safe_distance(v_rear, v_front, cfg.rss)
    return gap < d_safe, d_safe - gap


def nc_field_risk(
    ego: AgentState,
    graph: InteractionGraph,
    frame_states: Sequence[AgentState],
    params: RiskFieldParams,
) -> float:
    """Non-directional field proxy: summed pair forces over graph
    neighbors strictly in the ego's forward half plane, with no
    directional correction."""
    sign = _heading_sign(ego)
    x = {s.agent_id: s.position[0] for s in frame_states}
    ahead = [(ego.agent_id, n) for n in graph.neighbors(ego.agent_id)
             if sign * (x[n] - ego.position[0]) > 0.0]
    return total_force(ego, replace(graph, edges=frozenset(ahead)),
                       frame_states, params)


# ==================== per-frame comparison table ====================

COMPARISON_HEADER = ["frame", "ttc", "thw", "rss_margin", "nc_field",
                     "risknet_force"]


@dataclass
class ComparisonRow:
    frame: int
    ttc: Optional[float]
    thw: Optional[float]
    rss_margin: Optional[float]
    nc_field: float
    risknet_force: float


def _pick_lead(
    scenario: Scenario, ego: AgentState, cfg: BaselineConfig,
) -> Optional[AgentState]:
    """Nearest in-band agent ahead of the ego, by bumper gap (the first
    by id on a tie), read from the frame's table rows."""
    a, b = scenario.frame_rows(ego.frame)
    x, y = scenario.motion[a:b, 0:2].T
    gap = _gap(ego, x, scenario.extent[a:b, 0])
    leads = _lead_gate(ego, gap, y, cfg.lane_half_width)
    leads[scenario.row(ego.agent_id, ego.frame) - a] = False
    if not leads.any():
        return None
    rows = np.flatnonzero(leads)
    return scenario.row_state(a + int(rows[np.argmin(gap[rows])]))


def evaluate_all(
    scenario: Scenario,
    ego_id: int,
    cfg: Optional[BaselineConfig] = None,
    params: Optional[RiskFieldParams] = None,
) -> List[ComparisonRow]:
    """Evaluate every metric for each frame where the ego is present.

    ttc/thw/rss are computed against the nearest in-band lead (None when
    there is none); the field metrics aggregate over the ego's
    interaction graph.
    """
    cfg = cfg or BaselineConfig()
    params = params or RiskFieldParams()
    info = scenario.agents.get(ego_id)
    if info is None:
        raise BadConfig(f"ego {ego_id} not in scenario")
    rows: List[ComparisonRow] = []
    for frame in range(info.first_frame, info.last_frame + 1):
        ego = scenario.state(ego_id, frame)
        graph = build_graph(scenario, ego_id, frame, params.R)
        # the field terms read only the graph neighbours' states
        others = [scenario.state(n, frame) for n in graph.neighbors(ego_id)]
        lead = _pick_lead(scenario, ego, cfg)
        t = h = m = None
        if lead is not None:
            t = ttc(ego, lead, cfg)
            h = thw(ego, lead, cfg)
            rss = rss_longitudinal_violation(ego, lead, cfg)
            if rss is not None:
                m = rss[1]
        rows.append(ComparisonRow(
            frame=frame,
            ttc=t,
            thw=h,
            rss_margin=m,
            nc_field=nc_field_risk(ego, graph, others, params),
            risknet_force=total_directional_force(ego, graph, others, params),
        ))
    return rows


def write_comparison(rows: Sequence[ComparisonRow], path: str) -> None:
    """Write the comparison table; None entries become empty cells."""

    def fmt(v: Optional[float]) -> str:
        return "" if v is None else repr(float(v))

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COMPARISON_HEADER)
        for row in rows:
            writer.writerow([
                row.frame, fmt(row.ttc), fmt(row.thw),
                fmt(row.rss_margin), fmt(row.nc_field),
                fmt(row.risknet_force),
            ])


def read_comparison(path: str) -> List[ComparisonRow]:
    rows: List[ComparisonRow] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != COMPARISON_HEADER:
            raise BadConfig(f"unexpected comparison header in {path}")
        for rec in reader:
            def opt(name: str) -> Optional[float]:
                return float(rec[name]) if rec[name] else None

            rows.append(ComparisonRow(
                frame=int(rec["frame"]),
                ttc=opt("ttc"),
                thw=opt("thw"),
                rss_margin=opt("rss_margin"),
                nc_field=float(rec["nc_field"]),
                risknet_force=float(rec["risknet_force"]),
            ))
    return rows
