"""Command-line surface for the pipeline.

Subcommands: eval (per-frame deterministic risk), map (risk rasters,
deterministic or probabilistic), compare (baseline table plus
first-detection summary), train, predict, metrics, and gen (synthetic
scenario archetypes).

Exit codes: 0 success, 2 input/usage error, 3 numeric failure.  Every
artifact gets the full effective configuration echoed alongside it, as a
``.run.json`` sidecar for CSVs or embedded in JSON outputs.
"""

import argparse
import contextlib
import json
import math
import operator
import os
import sys
from dataclasses import replace
from typing import Dict, Optional, Sequence

import numpy as np

from .baselines import ComparisonRow, evaluate_all, write_comparison
from .config import (
    RunConfig,
    apply_overrides,
    config_to_dict,
    load_config,
    parse_override,
)
from .errors import BadConfig, EmptyFrame, InputError, NumericError
from .field import (
    GridSpec,
    frame_field,
    frame_totals,
    rasterize,
    write_raster,
)
from .predictor import (
    load_model,
    metrics as prediction_metrics,
    predict_for_agent,
    predict_frame,
    save_model,
    train as run_training,
)
from .predictor.model import MixturePrediction, PredictionMode
from .predictor.train import corpus_windows
from .prob import probabilistic_raster
from .scene import (
    ARCHETYPES,
    Scenario,
    export_tracks,
    load_tracks,
    make_archetype,
)

# Only bench/tracing.py reads these two here (ROADMAP direction 1b).
from .field import total_directional_force  # noqa: F401,E402
from .scene import build_graph  # noqa: F401,E402

EVAL_HEADER = "frame,time_s,risknet_force"


# ==================== shared plumbing ====================

def _effective_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = [parse_override(item) for item in (args.set or [])]
    if overrides:
        cfg = apply_overrides(cfg, overrides)
    if getattr(args, "seed", None) is not None:
        cfg.predictor = replace(cfg.predictor, seed=args.seed)
    return cfg


def _schema_of(args, cfg: RunConfig) -> Optional[Dict[str, str]]:
    schema = dict(cfg.io.schema)
    for item in getattr(args, "schema", None) or []:
        key, sep, col = item.partition("=")
        if not sep or not key or not col:
            raise BadConfig(f"--schema entry {item!r} must look like key=col")
        schema[key.strip()] = col.strip()
    return schema or None


def _load_scenario(args, cfg: RunConfig) -> Scenario:
    return load_tracks(args.scenario, frame_rate=cfg.io.frame_rate,
                       schema=_schema_of(args, cfg))


@contextlib.contextmanager
def _writing():
    """Output files opened inside the block: a missing directory, a
    directory or a refused permission is an input error naming the
    file."""
    try:
        yield
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        raise BadConfig(f"cannot write {exc.filename}: {exc.strerror}")


def _open_out(path: str, **kwargs):
    with _writing():
        return open(path, "w", **kwargs)


def _dump_json(path: str, payload: dict) -> None:
    with _open_out(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_run_sidecar(out_path: str, command: str, cfg: RunConfig,
                       extra: Optional[dict] = None) -> str:
    sidecar = {"command": command, "config": config_to_dict(cfg)}
    if extra:
        sidecar.update(extra)
    path = out_path + ".run.json"
    _dump_json(path, sidecar)
    return path


def _probe_state(scenario: Scenario, ego_id: int, frame: int):
    """Ego state at the frame, or at the nearest end of its track: the
    map probe needs kinematics even on frames the ego skips."""
    info = scenario.agents.get(ego_id)
    if info is None:
        raise BadConfig(f"ego {ego_id} not in scenario")
    nearest = min(max(frame, info.first_frame), info.last_frame)
    return scenario.state(ego_id, nearest)


def _grid_from_args(args, scenario: Scenario) -> GridSpec:
    cell = args.cell
    if not (math.isfinite(cell) and cell > 0.0):
        raise BadConfig(f"--cell must be a positive number, got {cell!r}")
    if args.bounds:
        parts = [p.strip() for p in args.bounds.split(",")]
        if len(parts) != 4:
            raise BadConfig("--bounds must be x0,y0,x1,y1")
        try:
            x0, y0, x1, y1 = (float(p) for p in parts)
        except ValueError:
            raise BadConfig(f"--bounds {args.bounds!r} is not numeric")
    else:
        x0, y0, x1, y1 = scenario.bounds
        x0, y0, x1, y1 = x0 - 5.0, y0 - 5.0, x1 + 5.0, y1 + 5.0
    if not all(math.isfinite(v) for v in (x0, y0, x1, y1)):
        raise BadConfig("grid bounds must be finite")
    if x1 <= x0 or y1 <= y0:
        raise BadConfig("grid bounds must have positive area")
    width = max(1, int(math.ceil((x1 - x0) / cell)))
    height = max(1, int(math.ceil((y1 - y0) / cell)))
    return GridSpec(origin=(x0, y0), cell=cell, width=width, height=height)


# ==================== subcommands ====================

def cmd_eval(args, cfg: RunConfig) -> int:
    scenario = _load_scenario(args, cfg)
    ff = frame_field(scenario, args.ego_id, cfg.risk)
    (force,) = frame_totals(ff, ff.directional)
    lines = [EVAL_HEADER] + [
        f"{frame},{repr(frame / scenario.frame_rate)},{repr(value)}"
        for frame, value in zip(ff.frame.tolist(), force.tolist())]
    # every row is computed before --out opens, so a refusal writes nothing
    with _open_out(args.out, newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_run_sidecar(args.out, "eval", cfg, {
        "scenario": os.path.basename(args.scenario),
        "ego_id": args.ego_id,
    })
    print(f"wrote {args.out}")
    return 0


def cmd_map(args, cfg: RunConfig) -> int:
    scenario = _load_scenario(args, cfg)
    params = cfg.risk
    probe = _probe_state(scenario, args.ego_id, args.frame)
    grid = _grid_from_args(args, scenario)
    binary = args.binary or cfg.io.binary_raster
    if not scenario.span()[0] <= args.frame <= scenario.span()[1]:
        raise EmptyFrame(args.frame)
    if args.probabilistic:
        if not args.model:
            raise BadConfig("--probabilistic requires --model")
        cell_params, dec_params, hyper = load_model(args.model)
        others = [a for a in scenario.frame_ids(args.frame)
                  if a != args.ego_id]
        predictions = predict_frame(cell_params, dec_params, scenario,
                                    others, args.frame, radius=params.R,
                                    t_h=hyper.t_h)
        raster = probabilistic_raster(
            predictions, probe, args.step, grid, params
        )
    else:
        raster = rasterize(scenario, args.frame, probe, grid, params)
    extra = {
        "probabilistic": bool(args.probabilistic),
        "step": args.step if args.probabilistic else 0,
        "ego_id": args.ego_id,
        "scenario": os.path.basename(args.scenario),
        "config": config_to_dict(cfg),
    }
    with _writing():
        write_raster(raster, args.out, binary=binary, extra=extra)
    print(f"wrote {args.out}.json")
    return 0


def detection_summary(
    rows: Sequence[ComparisonRow], cfg: RunConfig
) -> Dict[str, Optional[int]]:
    """First frame each metric crosses its configured threshold: at or
    below it for ttc/thw, at or above it for the rest, or strictly above
    the scenario's 90th percentile under the preset.  An infinite
    threshold disables a metric."""
    summary: Dict[str, Optional[int]] = {}
    for name, column, limit, accept in (
        ("ttc", "ttc", cfg.baselines.ttc_threshold, operator.le),
        ("thw", "thw", cfg.baselines.thw_threshold, operator.le),
        ("rss", "rss_margin", cfg.detect.rss_margin, operator.ge),
        ("nc_field", "nc_field", cfg.detect.nc, operator.ge),
        ("risknet", "risknet_force", cfg.detect.field, operator.ge),
    ):
        values = [getattr(row, column) for row in rows]
        if isinstance(limit, str):  # the percentile preset
            accept, limit = operator.gt, float(np.percentile(values, 90.0))
        summary[name] = None if math.isinf(limit) else next(
            (row.frame for row, v in zip(rows, values)
             if v is not None and accept(v, limit)), None)
    return summary


def cmd_compare(args, cfg: RunConfig) -> int:
    scenario = _load_scenario(args, cfg)
    rows = evaluate_all(scenario, args.ego_id, cfg.baselines, cfg.risk)
    with _writing():
        write_comparison(rows, args.out)
    summary = detection_summary(rows, cfg)
    for name in ("ttc", "thw", "rss", "nc_field", "risknet"):
        frame = summary[name]
        print(f"first_detection.{name}="
              f"{'none' if frame is None else frame}")
    _write_run_sidecar(args.out, "compare", cfg, {
        "scenario": os.path.basename(args.scenario),
        "ego_id": args.ego_id,
        "first_detection": {
            k: ("none" if v is None else v) for k, v in summary.items()
        },
    })
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    hyper = cfg.predictor
    if args.epochs is not None:
        hyper = replace(hyper, epochs=args.epochs)
    if args.lr is not None:
        hyper = replace(hyper, lr=args.lr)
    names = sorted(
        n for n in os.listdir(args.dataset) if n.endswith(".csv")
    )
    if not names:
        raise BadConfig(f"no .csv track files in {args.dataset}")
    scenarios = [
        load_tracks(os.path.join(args.dataset, n),
                    frame_rate=cfg.io.frame_rate,
                    schema=_schema_of(args, cfg))
        for n in names
    ]
    samples = corpus_windows(scenarios, hyper, radius=cfg.risk.R)
    if not samples:
        raise BadConfig(
            "dataset yields no training windows; tracks must span at "
            f"least t_h + t_f = {hyper.t_h + hyper.t_f} frames"
        )
    cell_params, dec_params, curve = run_training(samples, hyper)
    os.makedirs(args.out, exist_ok=True)
    save_model(os.path.join(args.out, "model"), cell_params, dec_params,
               hyper)
    loss_path = os.path.join(args.out, "loss.csv")
    with open(loss_path, "w", newline="") as fh:
        fh.write("epoch,mean_nll\n")
        for epoch, value in enumerate(curve):
            fh.write(f"{epoch},{repr(value)}\n")
    cfg.predictor = hyper
    _dump_json(os.path.join(args.out, "run.json"), {
        "command": "train",
        "config": config_to_dict(cfg),
        "dataset": names,
        "windows": len(samples),
        "final_loss": curve[-1],
    })
    print(f"trained {hyper.epochs} epochs on {len(samples)} windows; "
          f"loss {curve[0]:.6f} -> {curve[-1]:.6f}")
    return 0


def _prediction_payload(pred: MixturePrediction, agent_id: int,
                        frame: int) -> dict:
    anchor = pred.anchor
    return {
        "format": "risknet-prediction",
        "version": 1,
        "agent_id": agent_id,
        "frame": frame,
        "dt": pred.dt,
        "anchor": {
            "position": [float(v) for v in anchor.position],
            "velocity": [float(v) for v in anchor.velocity],
        },
        "modes": [
            {
                "pi": mode.pi,
                "states": [[float(v) for v in row] for row in mode.states],
                "cov_diag": [
                    [float(v) for v in np.diag(c)]
                    for c in mode.covariances
                ],
            }
            for mode in pred.modes
        ],
    }


def read_prediction(path: str) -> MixturePrediction:
    """Load a prediction JSON written by cmd_predict.

    Only covariance diagonals are stored, so off-diagonal structure is
    lost; displacement metrics are unaffected.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BadConfig(f"unreadable prediction file: {exc}")
    if data.get("format") != "risknet-prediction":
        raise BadConfig(f"not a prediction file: {path}")
    modes = []
    try:
        for m in data["modes"]:
            states = np.array(m["states"], float)
            diags = np.array(m["cov_diag"], float)
            if states.ndim != 2 or states.shape[1:] != (4,) or (
                    diags.shape != states.shape):
                raise ValueError("states and cov_diag must both be (t_f, 4)")
            modes.append(PredictionMode(
                pi=float(m["pi"]), states=states,
                covariances=np.stack([np.diag(d) for d in diags])))
        dt = float(data["dt"])
    except KeyError as exc:
        raise BadConfig(f"prediction file {path} lacks {exc}")
    except (TypeError, ValueError) as exc:
        raise BadConfig(f"malformed prediction file {path}: {exc}")
    if not modes:
        raise BadConfig(f"prediction file {path} has no modes")
    if len({m.states.shape for m in modes}) > 1:
        raise BadConfig(f"prediction file {path} has modes of different "
                        "lengths")
    return MixturePrediction(modes=modes, dt=dt)


def cmd_predict(args, cfg: RunConfig) -> int:
    scenario = _load_scenario(args, cfg)
    cell_params, dec_params, hyper = load_model(args.model)
    info = scenario.agents.get(args.ego_id)
    if info is None:
        raise BadConfig(f"agent {args.ego_id} not in scenario")
    frame = args.frame if args.frame is not None else info.last_frame
    pred = predict_for_agent(cell_params, dec_params, scenario,
                             args.ego_id, frame, radius=cfg.risk.R,
                             t_h=hyper.t_h)
    payload = _prediction_payload(pred, args.ego_id, frame)
    payload["config"] = config_to_dict(cfg)
    _dump_json(args.out, payload)
    print(f"wrote {args.out}")
    return 0


METRIC_ORDER = ("ade", "fde", "apde", "anll", "fnll")


def cmd_metrics(args, cfg: RunConfig) -> int:
    scenario = _load_scenario(args, cfg)
    info = scenario.agents.get(args.ego_id)
    if info is None:
        raise BadConfig(f"agent {args.ego_id} not in scenario")
    if args.prediction:
        pred = read_prediction(args.prediction)
        frame = args.frame if args.frame is not None else (
            info.last_frame - pred.horizon
        )
    else:
        if not args.model:
            raise BadConfig("metrics needs --model or --prediction")
        cell_params, dec_params, hyper = load_model(args.model)
        frame = args.frame if args.frame is not None else (
            info.last_frame - dec_params.horizon
        )
        pred = predict_for_agent(cell_params, dec_params, scenario,
                                 args.ego_id, frame, radius=cfg.risk.R,
                                 t_h=hyper.t_h)
    frames = range(frame + 1, frame + pred.horizon + 1)
    absent = [f for f in frames if not scenario.has_state(args.ego_id, f)]
    if absent:
        raise BadConfig(f"agent {args.ego_id} absent at frame {absent[0]}; "
                        "cannot score the prediction")
    truth = [scenario.state(args.ego_id, f).position for f in frames]
    values = prediction_metrics(pred, np.stack(truth))
    for name in METRIC_ORDER:
        print(f"{name}={values[name]:.4f}")
    if args.out:
        payload = {
            "command": "metrics",
            "agent_id": args.ego_id,
            "frame": frame,
            "metrics": {name: values[name] for name in METRIC_ORDER},
            "config": config_to_dict(cfg),
        }
        _dump_json(args.out, payload)
    return 0


def cmd_gen(args, cfg: RunConfig) -> int:
    params = {}
    for item in args.param or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise BadConfig(f"--param entry {item!r} must look like key=value")
        try:
            params[key.strip()] = float(value)
        except ValueError:
            raise BadConfig(f"--param {key!r} needs a numeric value")
    frame_rate = (cfg.io.frame_rate if args.frame_rate is None
                  else args.frame_rate)
    scenario = make_archetype(args.archetype, params or None,
                              frame_rate=frame_rate, duration=args.duration)
    with _writing():
        export_tracks(scenario, args.out)
    _write_run_sidecar(args.out, "gen", cfg, {
        "archetype": args.archetype,
        "params": params,
        "frame_rate": frame_rate,
        "duration": args.duration,
        "agents": sorted(scenario.agents),
    })
    print(f"wrote {args.out}")
    return 0


# ==================== argument parsing ====================

def _add_common(sp, scenario: bool = True, ego: bool = False,
                out_required: bool = True):
    sp.add_argument("--config", help="JSON run configuration")
    sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override a config entry by dotted path")
    sp.add_argument("--seed", type=int, help="set predictor.seed")
    sp.add_argument("--out", required=out_required, help="output path")
    if scenario:
        sp.add_argument("--scenario", required=True,
                        help="track CSV to load")
        sp.add_argument("--schema", action="append", metavar="KEY=COL",
                        help="remap a canonical column name")
    if ego:
        sp.add_argument("--ego-id", type=int, required=True,
                        dest="ego_id", help="ego agent id")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risknet",
        description="Interaction-field traffic risk with probabilistic "
                    "trajectory fusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="per-frame deterministic risk series")
    _add_common(sp, ego=True)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("map", help="risk raster at one frame")
    _add_common(sp, ego=True)
    sp.add_argument("--frame", type=int, required=True)
    sp.add_argument("--cell", type=float, default=1.0,
                    help="cell edge length in meters")
    sp.add_argument("--bounds", help="x0,y0,x1,y1 grid bounds")
    sp.add_argument("--probabilistic", action="store_true",
                    help="fuse model predictions instead of current states")
    sp.add_argument("--model", help="model manifest for --probabilistic")
    sp.add_argument("--step", type=int, default=1,
                    help="prediction step p for --probabilistic")
    sp.add_argument("--binary", action="store_true",
                    help="write float32 payload instead of CSV")
    sp.set_defaults(func=cmd_map)

    sp = sub.add_parser("compare",
                        help="baseline comparison table and summary")
    _add_common(sp, ego=True)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("train", help="train a predictor on track CSVs")
    _add_common(sp, scenario=False)
    sp.add_argument("--dataset", required=True,
                    help="directory of track CSV files")
    sp.add_argument("--schema", action="append", metavar="KEY=COL")
    sp.add_argument("--epochs", type=int)
    sp.add_argument("--lr", type=float)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("predict", help="forecast one agent")
    _add_common(sp, ego=True)
    sp.add_argument("--model", required=True, help="model manifest path")
    sp.add_argument("--frame", type=int,
                    help="prediction frame (default: agent's last)")
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("metrics", help="score a prediction against truth")
    _add_common(sp, ego=True, out_required=False)
    sp.add_argument("--model", help="model manifest path")
    sp.add_argument("--prediction", help="prediction JSON instead of a model")
    sp.add_argument("--frame", type=int,
                    help="prediction frame (default: latest scoreable)")
    sp.set_defaults(func=cmd_metrics)

    sp = sub.add_parser("gen", help="generate a synthetic archetype")
    _add_common(sp, scenario=False)
    sp.add_argument("--archetype", required=True, choices=ARCHETYPES)
    sp.add_argument("--param", action="append", metavar="KEY=VALUE",
                    help="archetype parameter override")
    sp.add_argument("--frame-rate", type=float, dest="frame_rate")
    sp.add_argument("--duration", type=float)
    sp.set_defaults(func=cmd_gen)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _effective_config(args)
        return args.func(args, cfg)
    except InputError as exc:
        print(f"risknet: input error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"risknet: numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
