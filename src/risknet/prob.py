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
    AgentColumns,
    GridSpec,
    RiskFieldParams,
    RiskRaster,
    agent_columns,
    directional_force,
    directional_terms,
    force_terms,
    raster_field,
    sum_others,
    table_columns,
)
from .predictor.model import MixturePrediction, PredictionMode
from .scene import AgentState, Scenario


def estimate_velocity(x_now, x_hat, p, dt) -> np.ndarray:
    """Finite-difference velocity from the current position to the
    position predicted p steps ahead; p and dt may be arrays."""
    if np.any(np.less(p, 1)):
        raise BadConfig("prediction step p must be >= 1")
    if np.any(np.less_equal(dt, 0)):
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


def _lead(ego_position, ego_velocity, anchor_position, x_hat, p, dt):
    """The ego's position at constant velocity p * dt ahead, and the
    other agent's finite-difference velocity from its anchor to x_hat."""
    return (ego_position + ego_velocity * (p * dt),
            estimate_velocity(anchor_position, x_hat, p, dt))


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
    result does not depend on the mode's probability.  This is one
    column of ``expected_risk_series``' evaluation.
    """
    anchor = _require_anchor(pred, p)
    x_hat = pred.modes[mode_index].states[p - 1, :2]
    ego_at, v_hat = _lead(ego.position, ego.velocity, anchor.position, x_hat,
                          p, pred.dt)
    sample = directional_force(
        replace(ego, position=ego_at),
        replace(anchor, position=x_hat, velocity=v_hat), params, C)
    return sample.directional_force


def _ghosts(preds: Sequence[MixturePrediction], first: int, last: int,
            params: RiskFieldParams, c_of: Optional[Mapping[int, float]]):
    """The modes of the predictions at steps first..last, in order, from
    the mode arrays: the anchors' columns repeated per mode (C by anchor
    id), π, each mode's dt, its states ``(G, last - first + 1, 4)``, and
    each prediction's mode count.  A prediction without an anchor or
    too short for the last step is refused."""
    anchors = agent_columns([_require_anchor(pred, last) for pred in preds],
                            params, c_of)
    counts = [len(pred.modes) for pred in preds]
    anchors = AgentColumns(*(np.repeat(c, counts, axis=0) for c in anchors))
    modes = [mode for pred in preds for mode in pred.modes]
    pi = np.array([mode.pi for mode in modes], dtype=float)
    dt = np.repeat([pred.dt for pred in preds], counts).astype(float)
    states = np.array([mode.states[first - 1:last, :4] for mode in modes],
                      dtype=float).reshape(len(modes), last - first + 1, 4)
    return anchors, pi, dt, states, counts


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

    The neighbours are the ego's star at the prediction frame
    (``Scenario.stars``); those without a prediction, such as agents that
    churn out of the scene, contribute nothing.  Every neighbour's
    modes at every step are the columns of one ``(t_f, modes)`` field
    evaluation, each as ``mode_risk`` defines it.  A step's value sums π
    times the mode risk over each neighbour's modes in mode order, then
    over the neighbours ascending by id.  The horizon is taken from the
    predictions unless given explicitly.
    """
    e = scenario.row(ego_id, frame)
    star = scenario.stars(np.array([e]), params.R)[2]
    ids = [i for i in scenario.agent_id[star[1:]].tolist() if i in predictions]
    if horizon is None:
        horizons = {pred.horizon for pred in predictions.values()}
        if len(horizons) > 1:
            raise BadConfig(f"predictions disagree on horizon: {horizons}")
        if not horizons:
            raise BadConfig("horizon required when no predictions exist")
        horizon = horizons.pop()
    if horizon < 1:
        raise BadConfig("horizon must be >= 1")
    anchors, pi, dt, states, counts = _ghosts(
        [predictions[i] for i in ids], 1, horizon, params, c_of)
    ego = table_columns(scenario, np.array([e]), params)
    x_hat = states[:, :, :2].transpose(1, 0, 2)  # (t_f, modes, 2)
    ego_at, v_hat = _lead(ego.position, ego.velocity, anchors.position, x_hat,
                          np.arange(1, horizon + 1)[:, None, None],
                          dt[:, None])
    ego = ego._replace(position=ego_at)
    ghosts = anchors._replace(position=x_hat, velocity=v_hat)
    force = force_terms(ego, ghosts, params)[1]
    risk = directional_terms(ego, ghosts, force, params)[2] * pi
    values = np.zeros(horizon)
    bounds = np.cumsum([0, *counts])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        values = values + sum_others(risk[:, lo:hi])
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
    rows = [scenario.row(agent_id, f) for f in frames]
    mode = PredictionMode(pi=1.0, states=scenario.motion[rows, 0:4],
                          covariances=np.zeros((t_f, 4, 4)))
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
    anchors, pi, _, states, _ = _ghosts(
        [predictions[a] for a in sorted(predictions) if a != ego.agent_id],
        p, p, params, c_of)
    ghosts = anchors._replace(position=states[:, 0, :2],
                              velocity=states[:, 0, 2:4])
    return raster_field(ego, ghosts, pi, grid, params, ego.frame + p)
