"""Classical surrogate safety baselines.

Time-to-collision, time headway, a responsibility-sensitive longitudinal
safe-distance check, and a non-directional field proxy, all evaluated per
frame against the same scenario the interaction field sees.
"""

import csv
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import BadConfig
from .field import RiskFieldParams, frame_field, frame_totals
from .scene import DEFAULT_LANE_WIDTH, EPS_SPEED, AgentState, Scenario

# Only bench/tracing.py reads these two here (ROADMAP direction 1b).
from .field import total_directional_force  # noqa: F401,E402
from .scene import build_graph  # noqa: F401,E402


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
        if not all(v > 0 for v in (self.rho, self.a_max_accel,
                                   self.b_min_brake, self.b_max_brake)):
            raise BadConfig("RSS constants must be positive")


@dataclass
class BaselineConfig:
    rss: RssParams = field(default_factory=RssParams)
    ttc_threshold: float = 3.0  # s
    thw_threshold: float = 2.0  # s
    lane_half_width: float = DEFAULT_LANE_WIDTH / 2.0  # m

    def __post_init__(self):
        # written as not (x > 0), so a NaN is refused too
        if not (self.ttc_threshold > 0 and self.thw_threshold > 0):
            raise BadConfig("detection thresholds must be positive")
        if not self.lane_half_width > 0:
            raise BadConfig("lane_half_width must be positive")


def _heading_sign(vx):
    """Travel direction along x from the ego's x velocity; slow egos
    default to +x.  Floats or arrays alike, as are the helpers below."""
    return np.where(vx < -EPS_SPEED, -1.0, 1.0)


def _gap(sign, ego_x, ego_length, x, length):
    """Bumper-to-bumper gap along the ego's travel axis to agents centred
    at ``x`` with extent ``length`` along x, negative on overlap."""
    return sign * (x - ego_x) - 0.5 * (ego_length + length)


def _lead_gate(ego_y, gap, y, half_width: float):
    """Gate shared by ttc/thw/rss and the lead pick: ahead (nonnegative
    gap) and inside the ego's lane band."""
    return (abs(y - ego_y) < half_width) & (gap >= 0.0)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _lead_metrics(sign, ego_v, lead_vx, gap, rss: RssParams):
    """TTC, THW and RSS margin of egos with velocity ``ego_v`` (..., 2)
    against leads at bumper ``gap``, each formula once.  TTC is None where
    the gap is not closing, THW where the ego stands; the margin is the
    safe distance minus the gap, positive exactly when the gap is less."""
    vx = ego_v[..., 0]
    closing = sign * (vx - lead_vx)
    speed = np.hypot(vx, ego_v[..., 1])
    d_safe = rss_safe_distance(sign * vx, sign * lead_vx, rss)
    return (np.where(closing <= 0.0, None, gap / closing),
            np.where(speed < EPS_SPEED, None, gap / speed),
            d_safe - gap)


def bumper_gap(ego: AgentState, lead: AgentState) -> float:
    """Bumper-to-bumper gap along the travel axis, negative on overlap."""
    return float(_gap(_heading_sign(ego.velocity[0]), ego.position[0],
                      ego.extent[0], lead.position[0], lead.extent[0]))


def _against(ego: AgentState, lead: AgentState,
             cfg: Optional[BaselineConfig]) -> list:
    """_lead_metrics of one pair, each None when the lead gate fails."""
    cfg = cfg or BaselineConfig()
    gap = bumper_gap(ego, lead)
    if not _lead_gate(ego.position[1], gap, lead.position[1],
                      cfg.lane_half_width):
        return [None] * 3
    return [m.item() for m in _lead_metrics(
        _heading_sign(ego.velocity[0]), ego.velocity, lead.velocity[0],
        gap, cfg.rss)]


def ttc(
    ego: AgentState, lead: AgentState,
    cfg: Optional[BaselineConfig] = None,
) -> Optional[float]:
    """Time to collision in seconds, or None where it does not apply.

    Applies when the lead is ahead of the ego inside its lane band and the
    bumper gap is closing.
    """
    return _against(ego, lead, cfg)[0]


def thw(
    ego: AgentState, lead: AgentState,
    cfg: Optional[BaselineConfig] = None,
) -> Optional[float]:
    """Time headway: bumper gap over ego speed; None for a standing ego
    or when the lead gate fails."""
    return _against(ego, lead, cfg)[1]


def rss_safe_distance(v_rear, v_front, p: RssParams):
    """Minimum longitudinal distance the rear vehicle must keep, floored
    at zero; floats or arrays alike."""
    v_reacted = v_rear + p.rho * p.a_max_accel
    d = (v_rear * p.rho
         + 0.5 * p.a_max_accel * p.rho ** 2
         + v_reacted * v_reacted / (2.0 * p.b_min_brake)
         - v_front * v_front / (2.0 * p.b_max_brake))
    return np.fmax(0.0, d)


def rss_longitudinal_violation(
    ego: AgentState, lead: AgentState,
    cfg: Optional[BaselineConfig] = None,
) -> Optional[Tuple[bool, float]]:
    """(unsafe, margin) against the safe-distance rule, or None when the
    lead gate fails.

    margin = safe distance minus actual gap: positive means unsafe.  The
    comparison is strict, so a gap exactly at the safe distance is safe.
    """
    margin = _against(ego, lead, cfg)[2]
    return None if margin is None else (margin > 0.0, margin)


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


def evaluate_all(
    scenario: Scenario,
    ego_id: int,
    cfg: Optional[BaselineConfig] = None,
    params: Optional[RiskFieldParams] = None,
) -> List[ComparisonRow]:
    """Evaluate every metric for each frame where the ego is present, all
    frames in one field evaluation.

    ttc/thw/rss are computed against the nearest in-band agent ahead by
    bumper gap, the first by id on a tie (None when there is none); the
    field metrics aggregate over the agents within R, nc_field over those
    strictly in the ego's forward half plane and without the directional
    correction.
    """
    cfg = cfg or BaselineConfig()
    params = params or RiskFieldParams()
    ff = frame_field(scenario, ego_id, params)
    ego, others = ff.ego, ff.others
    sign = _heading_sign(ego.velocity[..., 0])
    x = others.position[..., 0]
    ahead = sign * (x - ego.position[..., 0]) > 0.0
    nc, risk = frame_totals(ff, np.where(ahead, ff.force, 0.0),
                            ff.directional)
    gap = _gap(sign, ego.position[..., 0], ego.length, x, others.length)
    leads = ff.present & _lead_gate(ego.position[..., 1], gap,
                                    others.position[..., 1],
                                    cfg.lane_half_width)
    f = np.arange(len(ff.frame))
    pick = np.argmin(np.where(leads, gap, np.inf), axis=1)
    # where every lead's gap is inf, argmin may land on a non-lead
    pick = np.where(leads[f, pick], pick, leads.argmax(axis=1))
    t, h, m = _lead_metrics(sign[:, 0], ego.velocity[:, 0],
                            others.velocity[f, pick, 0], gap[f, pick],
                            cfg.rss)
    has_lead = leads.any(axis=1)
    t, h, m = (np.where(has_lead, v, None).tolist() for v in (t, h, m))
    return list(map(ComparisonRow, ff.frame.tolist(), t, h, m, nc.tolist(),
                    risk.tolist()))


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
