"""Probabilistic risk fusion.

Turns multimodal trajectory forecasts into time-resolved expected risk:
per-mode risk evaluated on predicted kinematics, probability-weighted
across modes, summed over interaction neighbors, and aggregated into a
weighted cumulative score or a spatial raster.
"""

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import BadConfig
from .field import (
    GridSpec,
    RiskFieldParams,
    RiskRaster,
    _c_for,
    agent_columns,
    directional_force,
    raster_field,
)
from .predictor.model import MixturePrediction, PredictionMode
from .scene import AgentState, InteractionGraph, Scenario, build_graph


def estimate_velocity(
    x_now: np.ndarray, x_hat: np.ndarray, p: int, dt: float
) -> np.ndarray:
    """Finite-difference velocity from the current position to the
    position predicted p steps ahead."""
    if p < 1:
        raise BadConfig("prediction step p must be >= 1")
    if dt <= 0:
        raise BadConfig("dt must be positive")
    return (np.asarray(x_hat, float) - np.asarray(x_now, float)) / (p * dt)


def _require_anchor(pred: MixturePrediction, p: int) -> AgentState:
    if pred.anchor is None:
        raise BadConfig(
            "prediction lacks an anchor state; risk fusion needs the "
            "agent's current kinematics"
        )
    if not 1 <= p <= pred.horizon:
        raise BadConfig(f"step {p} outside prediction horizon {pred.horizon}")
    return pred.anchor


def _ghost(anchor: AgentState, position: np.ndarray,
           velocity: np.ndarray) -> AgentState:
    return replace(anchor, position=np.asarray(position, float),
                   velocity=np.asarray(velocity, float))


def mode_risk(
    ego: AgentState,
    pred: MixturePrediction,
    mode_index: int,
    p: int,
    params: RiskFieldParams,
    C: Optional[float] = None,
) -> float:
    """Directional risk of one mode at prediction step p, in newtons.

    The other agent is placed at the mode's predicted position with a
    finite-difference velocity estimate from its anchor; the ego is
    extrapolated at constant velocity over the same lead time.  The
    result does not depend on the mode's probability.
    """
    anchor = _require_anchor(pred, p)
    mode = pred.modes[mode_index]
    x_hat = mode.states[p - 1, :2]
    v_hat = estimate_velocity(anchor.position, x_hat, p, pred.dt)
    lead = p * pred.dt
    ego_future = replace(ego, position=ego.position + ego.velocity * lead)
    sample = directional_force(ego_future, _ghost(anchor, x_hat, v_hat),
                               params, C)
    return sample.directional_force


def expected_pair_risk(
    pred: MixturePrediction,
    p: int,
    ego: AgentState,
    params: RiskFieldParams,
    C: Optional[float] = None,
) -> float:
    """Probability-weighted risk over all modes: a convex combination of
    the per-mode risks."""
    return sum(
        pred.modes[l].pi * mode_risk(ego, pred, l, p, params, C)
        for l in range(len(pred.modes))
    )


def total_expected_risk(
    predictions: Mapping[int, MixturePrediction],
    graph: InteractionGraph,
    p: int,
    ego: AgentState,
    params: RiskFieldParams,
    c_of: Optional[Mapping[int, float]] = None,
) -> float:
    """Expected risk summed over graph neighbors, ascending by agent id.

    Neighbors without a prediction are skipped: agents that churn out of
    the scene cannot be forecast and contribute nothing.
    """
    total = 0.0
    for nid in graph.neighbors(ego.agent_id):
        pred = predictions.get(nid)
        if pred is None:
            continue
        total += expected_pair_risk(pred, p, ego, params,
                                    _c_for(c_of, nid, params))
    return total


# ==================== horizon weighting ====================

WEIGHT_PRESETS = ("uniform", "exp")
EXP_WEIGHT_RATE = 0.1


def horizon_weights(preset: str, t_f: int) -> np.ndarray:
    """Per-step weights over prediction steps p = 1..t_f.

    "uniform" spreads unit mass evenly; "exp" decays as exp(-0.1 p),
    emphasizing near-term risk.
    """
    if t_f < 1:
        raise BadConfig("horizon must be >= 1")
    if preset == "uniform":
        return np.full(t_f, 1.0 / t_f)
    if preset == "exp":
        return np.exp(-EXP_WEIGHT_RATE * np.arange(1, t_f + 1, dtype=float))
    raise BadConfig(f"unknown weight preset {preset!r}; "
                    f"choose from {WEIGHT_PRESETS}")


def cumulative_risk(
    series: Sequence[float], weights: Sequence[float]
) -> float:
    """Weighted sum of per-step expected risk over the horizon."""
    series = np.asarray(series, float)
    weights = np.asarray(weights, float)
    if series.shape != weights.shape:
        raise BadConfig(
            f"weights length {weights.shape} does not match series "
            f"{series.shape}"
        )
    if (weights < 0).any():
        raise BadConfig("weights must be nonnegative")
    return float(sum(w * v for w, v in zip(weights, series)))


# ==================== assembled time series ====================

@dataclass
class RiskTimeSeries:
    """Expected risk per prediction step with its weighted total."""

    ego_id: int
    frame: int  # prediction time (last observed frame)
    dt: float
    values: np.ndarray  # (t_f,) newtons, steps p = 1..t_f
    weights: np.ndarray  # (t_f,)
    weights_preset: str
    cumulative: float

    def validate(self) -> None:
        if self.values.shape != self.weights.shape:
            raise BadConfig("values and weights lengths differ")
        if not np.isfinite([*self.values, self.cumulative]).all():
            raise BadConfig(f"expected risk of ego {self.ego_id} at frame "
                            f"{self.frame} is not finite")
        if (self.values < 0).any():
            raise BadConfig("expected risk must be nonnegative")
        ref = cumulative_risk(self.values, self.weights)
        scale = max(1.0, abs(ref))
        if abs(self.cumulative - ref) > 1e-9 * scale:
            raise BadConfig("cumulative does not match weighted series")


@np.errstate(over="ignore", invalid="ignore")
def expected_risk_series(
    scenario: Scenario,
    ego_id: int,
    frame: int,
    predictions: Mapping[int, MixturePrediction],
    params: RiskFieldParams,
    weights: Union[str, Sequence[float]] = "uniform",
    horizon: Optional[int] = None,
    c_of: Optional[Mapping[int, float]] = None,
) -> RiskTimeSeries:
    """Expected total risk for the ego over every prediction step.

    The interaction graph is built at the prediction frame; the horizon
    is taken from the predictions unless given explicitly.
    """
    graph = build_graph(scenario, ego_id, frame, params.R)
    ego = scenario.state(ego_id, frame)
    if horizon is None:
        horizons = {pred.horizon for pred in predictions.values()}
        if len(horizons) > 1:
            raise BadConfig(f"predictions disagree on horizon: {horizons}")
        if not horizons:
            raise BadConfig("horizon required when no predictions exist")
        horizon = horizons.pop()
    values = np.array([
        total_expected_risk(predictions, graph, p, ego, params, c_of)
        for p in range(1, horizon + 1)
    ])
    if isinstance(weights, str):
        preset = weights
        w = horizon_weights(preset, horizon)
    else:
        preset = "custom"
        w = np.asarray(weights, float)
    series = RiskTimeSeries(
        ego_id=ego_id, frame=frame, dt=scenario.dt, values=values,
        weights=w, weights_preset=preset,
        cumulative=cumulative_risk(values, w),
    )
    series.validate()
    return series


# ==================== replay predictions ====================

def replay_prediction(
    scenario: Scenario, agent_id: int, frame: int, t_f: int
) -> MixturePrediction:
    """The recorded future as a single certain mode.

    Feeding these into the fusion reproduces the deterministic pipeline
    on the recorded frames.
    """
    if t_f < 1:
        raise BadConfig("horizon must be >= 1")
    frames = range(frame + 1, frame + t_f + 1)
    absent = [f for f in frames if not scenario.has_state(agent_id, f)]
    if absent:
        raise BadConfig(
            f"agent {agent_id} absent at frame {absent[0]}; cannot replay")
    states = [scenario.state(agent_id, f) for f in frames]
    mode = PredictionMode(
        pi=1.0,
        states=np.array([[*s.position, *s.velocity] for s in states], float),
        covariances=np.zeros((t_f, 4, 4)),
    )
    return MixturePrediction(
        modes=[mode], dt=scenario.dt,
        anchor=scenario.state(agent_id, frame),
    )


# ==================== probabilistic raster ====================

def probabilistic_raster(
    predictions: Mapping[int, MixturePrediction],
    ego: AgentState,
    p: int,
    grid: GridSpec,
    params: RiskFieldParams,
    c_of: Optional[Mapping[int, float]] = None,
) -> RiskRaster:
    """Expected directional field over a grid at prediction step p.

    Each cell probes the ego against every mode's stored predicted state
    (position and velocity), weighting by mode probability and gating on
    the interaction radius.  Using stored mode velocities keeps the
    single-replay-mode case exactly equal to the deterministic raster;
    per-mode finite-difference velocities remain the contract of
    mode_risk, where no such degeneracy is required.
    """
    ghosts, weights = [], []
    for agent_id in sorted(predictions.keys()):
        if agent_id == ego.agent_id:
            continue
        pred = predictions[agent_id]
        anchor = _require_anchor(pred, p)
        for mode in pred.modes:
            ghosts.append(_ghost(anchor, mode.states[p - 1, :2],
                                 mode.states[p - 1, 2:4]))
            weights.append(mode.pi)
    return raster_field(ego, agent_columns(ghosts, params, c_of),
                        np.array(weights), grid, params, ego.frame + p)
