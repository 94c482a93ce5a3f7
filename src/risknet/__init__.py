"""Traffic interaction-field risk with probabilistic trajectory fusion.

The pipeline: scenario ingestion and synthetic archetypes (scene),
deterministic directional risk fields (field), classical surrogate-safety
baselines (baselines), a multimodal graph-recurrent trajectory predictor
with hand-rolled reverse-mode gradients (predictor), probabilistic risk
fusion over forecast mixtures (prob), and a CLI (cli).
"""

from . import baselines, cli, config, errors, field, predictor, prob, scene
from .baselines import BaselineConfig, RssParams, evaluate_all
from .config import RunConfig, load_config
from .errors import InputError, NumericError, RiskNetError
from .field import (
    GridSpec,
    RiskFieldParams,
    RiskRaster,
    directional_force,
    rasterize,
    total_directional_force,
)
from .predictor import (
    MixturePrediction,
    TrainHyper,
    decode,
    encode,
    gradient_check,
    load_model,
    predict_for_agent,
    predict_frame,
    save_model,
    train,
)
from .prob import (
    RiskTimeSeries,
    cumulative_risk,
    expected_pair_risk,
    expected_risk_series,
    mode_risk,
    probabilistic_raster,
    replay_prediction,
    total_expected_risk,
)
from .scene import (
    AgentState,
    InteractionGraph,
    Scenario,
    build_graph,
    load_tracks,
    make_archetype,
)

__version__ = "0.1.0"

__all__ = [
    "AgentState",
    "BaselineConfig",
    "GridSpec",
    "InputError",
    "InteractionGraph",
    "MixturePrediction",
    "NumericError",
    "RiskFieldParams",
    "RiskNetError",
    "RiskRaster",
    "RiskTimeSeries",
    "RssParams",
    "RunConfig",
    "Scenario",
    "TrainHyper",
    "baselines",
    "build_graph",
    "cli",
    "config",
    "cumulative_risk",
    "decode",
    "directional_force",
    "encode",
    "errors",
    "evaluate_all",
    "expected_pair_risk",
    "expected_risk_series",
    "field",
    "gradient_check",
    "load_config",
    "load_model",
    "load_tracks",
    "make_archetype",
    "mode_risk",
    "predict_for_agent",
    "predict_frame",
    "predictor",
    "prob",
    "probabilistic_raster",
    "rasterize",
    "replay_prediction",
    "save_model",
    "scene",
    "total_directional_force",
    "total_expected_risk",
    "train",
]
