"""Classical surrogate safety baselines.

Time-to-collision, time headway, a responsibility-sensitive longitudinal
safe-distance check, and a non-directional field proxy.  ``evaluate_all``
computes them for every frame of one ego at once, against the same
scenario the interaction field sees; it is their only implementation.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .artifacts import render, write_csv
from .errors import BadConfig
from .field import RiskFieldParams, frame_field, frame_totals
from .scene import DEFAULT_LANE_WIDTH, EPS_SPEED, Scenario

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


def rss_safe_distance(v_rear, v_front, p: RssParams):
    """Minimum longitudinal distance the rear vehicle must keep, floored
    at zero; floats or arrays alike."""
    v_reacted = v_rear + p.rho * p.a_max_accel
    d = (v_rear * p.rho
         + 0.5 * p.a_max_accel * p.rho ** 2
         + v_reacted * v_reacted / (2.0 * p.b_min_brake)
         - v_front * v_front / (2.0 * p.b_max_brake))
    return np.fmax(0.0, d)


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
    # travel direction along x from the ego's x velocity; slow egos head +x
    sign = np.where(ego.velocity[..., 0] < -EPS_SPEED, -1.0, 1.0)
    along = sign * (others.position[..., 0] - ego.position[..., 0])
    nc, risk = frame_totals(ff, np.where(along > 0.0, ff.force, 0.0),
                            ff.directional)
    # bumper-to-bumper gap along the travel axis, negative on overlap
    gap = along - 0.5 * (ego.length + others.length)
    lateral = np.abs(others.position[..., 1] - ego.position[..., 1])
    leads = ff.present & (lateral < cfg.lane_half_width) & (gap >= 0.0)
    f = np.arange(len(ff.frame))
    pick = np.argmin(np.where(leads, gap, np.inf), axis=1)
    # where every lead's gap is inf, argmin may land on a non-lead
    pick = np.where(leads[f, pick], pick, leads.argmax(axis=1))
    gap, lead_vx, sign = gap[f, pick], others.velocity[f, pick, 0], sign[:, 0]
    vx, vy = ego.velocity[:, 0].T
    none = ~leads.any(axis=1)
    # rows without a lead compute from the picked padding, then read None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        closing = sign * (vx - lead_vx)
        t = np.where(none | (closing <= 0.0), None, gap / closing)
        speed = np.hypot(vx, vy)
        h = np.where(none | (speed < EPS_SPEED), None, gap / speed)
        # the safe distance minus the gap: positive exactly when it is less
        m = np.where(none, None, rss_safe_distance(
            sign * vx, sign * lead_vx, cfg.rss) - gap)
    return list(map(ComparisonRow, ff.frame.tolist(), t.tolist(), h.tolist(),
                    m.tolist(), nc.tolist(), risk.tolist()))


def write_comparison(rows: Sequence[ComparisonRow], path: str) -> None:
    """Write the comparison table; None entries become empty cells."""
    write_csv(path, COMPARISON_HEADER, [
        render([getattr(row, name) for row in rows])
        for name in COMPARISON_HEADER])
