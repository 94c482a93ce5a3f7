"""Run configuration handling and the command-line surface.

Config tests exercise risknet.config in process; CLI tests drive the
module entry point through subprocess so exit codes, console text, and
artifact bytes are all checked end to end.  The fuzz test at the end
calls cli.main in process, so that it can run many cases.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_velocity_scenario, make_state
from risknet.config import (
    DetectConfig,
    IOConfig,
    RunConfig,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    load_config,
    parse_override,
)
from risknet.cli import read_prediction
from risknet.errors import BadConfig
from risknet.field import (
    GridSpec,
    rasterize,
    read_raster,
    total_directional_force,
)
from risknet.predictor.model import MixturePrediction, PredictionMode
from risknet.predictor.store import load_model, save_model
from risknet.predictor.train import (MAX_T_F, TrainHyper, init_model,
                                     predict_for_agent)
from risknet.prob import probabilistic_raster
from risknet.scene import (
    ARCHETYPES,
    build_graph,
    export_tracks,
    load_tracks,
    scenario_from_states,
)

# ==================== configuration ====================


def test_default_config_values():
    cfg = RunConfig()
    assert cfg.predictor.seed == 0
    assert cfg.risk.wave_speed == 30.0
    assert cfg.risk.R == 50.0
    assert cfg.baselines.ttc_threshold == 3.0
    assert cfg.baselines.thw_threshold == 2.0
    assert cfg.detect.rss_margin == 0.0
    assert cfg.detect.field == "p90"
    assert cfg.detect.nc == "p90"
    assert cfg.io.frame_rate == 25.0
    assert cfg.io.binary_raster is False


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "predictor": {"seed": 7},
        "risk": {"beta": 2.0, "R": 35.0},
        "baselines": {"ttc_threshold": 2.5, "rss": {"rho": 0.8}},
        "detect": {"field": 120.0},
        "io": {"frame_rate": 10.0},
    }))
    cfg = load_config(str(path))
    assert cfg.predictor.seed == 7
    assert cfg.risk.beta == 2.0
    assert cfg.risk.R == 35.0
    assert cfg.baselines.ttc_threshold == 2.5
    assert cfg.baselines.rss.rho == 0.8
    assert cfg.detect.field == 120.0
    assert cfg.detect.nc == "p90"
    assert cfg.io.frame_rate == 10.0
    echoed = config_to_dict(cfg)
    assert echoed["risk"]["beta"] == 2.0
    assert echoed["baselines"]["rss"]["rho"] == 0.8


def test_config_to_dict_is_json_serializable():
    json.dumps(config_to_dict(RunConfig()))


def test_config_rejects_unknown_keys():
    with pytest.raises(BadConfig, match="unknown config keys: risc"):
        config_from_dict({"risc": {}})
    with pytest.raises(BadConfig, match="in risk: betta"):
        config_from_dict({"risk": {"betta": 1.0}})
    with pytest.raises(BadConfig, match="in baselines.rss"):
        config_from_dict({"baselines": {"rss": {"rho2": 1.0}}})


def test_config_section_must_be_object():
    with pytest.raises(BadConfig, match="must be an object"):
        config_from_dict({"risk": 3.0})


def test_load_config_missing_or_invalid_file(tmp_path):
    with pytest.raises(BadConfig, match="cannot read config"):
        load_config(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(BadConfig, match="not valid JSON"):
        load_config(str(bad))


def test_apply_overrides_coerces_types():
    cfg = apply_overrides(RunConfig(), [
        ("risk.beta", "2.5"),
        ("predictor.epochs", "12"),
        ("io.binary_raster", "true"),
        ("predictor.seed", "3"),
    ])
    assert cfg.risk.beta == 2.5
    assert cfg.predictor.epochs == 12 and isinstance(cfg.predictor.epochs, int)
    assert cfg.io.binary_raster is True
    assert cfg.predictor.seed == 3
    cfg = apply_overrides(cfg, [("io.binary_raster", "no")])
    assert cfg.io.binary_raster is False


def test_apply_overrides_dict_value_and_validation():
    k = {"pedestrian": 2.0, "bicycle": 0.9, "truck": 0.8,
         "car": 0.6, "other": 0.6}
    cfg = apply_overrides(RunConfig(), [("risk.k", json.dumps(k))])
    assert cfg.risk.k == k
    with pytest.raises(BadConfig, match="missing kinds"):
        apply_overrides(RunConfig(), [("risk.k", '{"car": 1.0}')])
    with pytest.raises(BadConfig, match="JSON object"):
        apply_overrides(RunConfig(), [("risk.k", "not-json")])


def test_apply_overrides_detection_threshold_union():
    cfg = apply_overrides(RunConfig(), [("detect.field", "12.5")])
    assert cfg.detect.field == 12.5
    cfg = apply_overrides(cfg, [("detect.field", "p90")])
    assert cfg.detect.field == "p90"
    cfg = apply_overrides(cfg, [("detect.nc", "inf")])
    assert math.isinf(cfg.detect.nc)
    with pytest.raises(BadConfig, match="detect.field"):
        apply_overrides(RunConfig(), [("detect.field", "p50")])


def test_apply_overrides_reruns_section_validation():
    with pytest.raises(BadConfig, match="beta"):
        apply_overrides(RunConfig(), [("risk.beta", "-1.0")])
    with pytest.raises(BadConfig, match="frame_rate"):
        apply_overrides(RunConfig(), [("io.frame_rate", "0")])


def test_apply_overrides_rejects_unknown_or_untyped():
    with pytest.raises(BadConfig, match="unknown config key"):
        apply_overrides(RunConfig(), [("risk.nope", "1")])
    with pytest.raises(BadConfig, match="unknown config key"):
        apply_overrides(RunConfig(), [("nope", "1")])
    with pytest.raises(BadConfig, match="expects an integer"):
        apply_overrides(RunConfig(), [("predictor.epochs", "two")])
    with pytest.raises(BadConfig, match="expects a boolean"):
        apply_overrides(RunConfig(), [("io.binary_raster", "maybe")])


def test_parse_override():
    assert parse_override("risk.beta=2.0") == ("risk.beta", "2.0")
    assert parse_override("a.b=1=2") == ("a.b", "1=2")
    with pytest.raises(BadConfig, match="must look like"):
        parse_override("riskbeta")
    with pytest.raises(BadConfig, match="must look like"):
        parse_override("=3")


def test_detect_config_rejects_unknown_preset():
    with pytest.raises(BadConfig, match="detect.field"):
        DetectConfig(field="p50")
    assert DetectConfig(field=10.0, nc="p90").field == 10.0


def test_io_config_rejects_nonpositive_frame_rate():
    with pytest.raises(BadConfig, match="frame_rate"):
        IOConfig(frame_rate=0.0)


# ==================== CLI plumbing ====================

def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "risknet", *map(str, argv)],
                          capture_output=True, text=True)


def ok(*argv):
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    return proc


def export_cv(path, specs, n_frames, frame_rate):
    export_tracks(
        constant_velocity_scenario(specs, n_frames=n_frames,
                                   frame_rate=frame_rate),
        str(path),
    )
    return str(path)


def parse_eval_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "frame,time_s,risknet_force"
    rows = [line.split(",") for line in lines[1:]]
    return ([int(r[0]) for r in rows],
            [float(r[1]) for r in rows],
            [float(r[2]) for r in rows])


def parse_detection_stdout(stdout):
    summary = {}
    for line in stdout.splitlines():
        if line.startswith("first_detection."):
            key, _, value = line[len("first_detection."):].partition("=")
            summary[key] = None if value == "none" else int(value)
    return summary


@pytest.fixture(scope="module")
def cutin(tmp_path_factory):
    """Synthetic cut-in scenario generated once through the CLI."""
    root = tmp_path_factory.mktemp("cutin")
    csv_path = root / "cutin.csv"
    ok("gen", "--archetype", "lateral_cut_in", "--frame-rate", "10",
       "--out", csv_path)
    return csv_path


def small_model(tmp_path, modes=1, seed=0, zero_heads=True):
    """Write a small model; zeroed heads predict constant velocity with
    exactly zero covariance."""
    hyper = TrainHyper(d_h=4, modes=modes, t_h=3, t_f=2, dt=0.2,
                       lr=0.05, epochs=1, seed=seed)
    cell, dec = init_model(hyper)
    if zero_heads:
        for head in dec.heads:
            head.w_u.data = np.zeros_like(head.w_u.data)
            head.b_u.data = np.zeros_like(head.b_u.data)
            head.w_s.data = np.zeros_like(head.w_s.data)
            head.b_s.data = np.full(2, -1000.0)
    manifest, _ = save_model(str(tmp_path / "model"), cell, dec, hyper)
    return manifest


# ==================== gen ====================


def test_cli_gen_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ok("gen", "--archetype", "blocked_lane_change", "--frame-rate", "10",
       "--out", a)
    ok("gen", "--archetype", "blocked_lane_change", "--frame-rate", "10",
       "--out", b)
    assert a.read_bytes() == b.read_bytes()
    side_a = json.loads((tmp_path / "a.csv.run.json").read_text())
    side_b = json.loads((tmp_path / "b.csv.run.json").read_text())
    assert side_a == side_b
    assert side_a["command"] == "gen"
    assert side_a["agents"] == [0, 1, 2, 3]
    assert side_a["config"]["risk"]["wave_speed"] == 30.0


# `gen` of the 300 s bench archetype (30,004 rows) as the per-row generator
# and the csv.writer export wrote it.
GEN_300_SHA256 = (
    "1200cd147e1e977c93011ca71ed52b5e72fc6e44fec91f44fc471664e16b8b9b")


def test_cli_gen_long_archetype_bytes_are_pinned(tmp_path):
    out = tmp_path / "long.csv"
    ok("gen", "--archetype", "blocked_lane_change", "--duration", "300",
       "--out", out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_300_SHA256


def test_cli_gen_param_override_and_errors(tmp_path):
    out = tmp_path / "s.csv"
    ok("gen", "--archetype", "lateral_cut_in", "--frame-rate", "10",
       "--param", "ego_speed=30", "--out", out)
    side = json.loads((tmp_path / "s.csv.run.json").read_text())
    assert side["params"] == {"ego_speed": 30.0}
    scenario = load_tracks(str(out), frame_rate=10.0)
    assert scenario.state(0, 0).velocity[0] == 30.0
    proc = run_cli("gen", "--archetype", "lateral_cut_in",
                   "--param", "ego_speed", "--out", tmp_path / "t.csv")
    assert proc.returncode == 2
    assert "input error" in proc.stderr
    proc = run_cli("gen", "--archetype", "no_such", "--out", tmp_path / "u.csv")
    assert proc.returncode == 2


@pytest.mark.parametrize("archetype, flags", [
    ("lateral_cut_in", ["--param", "lateral_speed=0"]),
    ("rear_overtake_cut_in", ["--param", "lateral_speed=0"]),
    ("lateral_cut_in", ["--param", "lateral_speed=1e-300"]),
    ("blocked_lane_change", ["--param", "ego_speed=1e308"]),
    ("blocked_lane_change", ["--duration", "nan"]),
    ("blocked_lane_change", ["--duration", "inf"]),
    ("blocked_lane_change", ["--frame-rate", "nan"]),
    ("blocked_lane_change", ["--frame-rate", "inf"]),
    ("blocked_lane_change", ["--frame-rate", "0"]),
    ("lateral_cut_in", ["--param", "ego_speed=nan"]),
    ("lateral_cut_in", ["--param", "ego_speed=inf"]),
])
def test_cli_gen_without_finite_track_exits_2(tmp_path, archetype, flags):
    out = tmp_path / "g.csv"
    proc = run_cli("gen", "--archetype", archetype, *flags, "--out", out)
    assert proc.returncode == 2
    assert proc.stderr.startswith("risknet: input error:")
    assert len(proc.stderr.splitlines()) == 1
    assert not out.exists()


# ==================== eval ====================


def test_cli_eval_matches_direct_field_computation(cutin, tmp_path):
    out = tmp_path / "eval.csv"
    ok("eval", "--scenario", cutin, "--ego-id", "0",
       "--set", "io.frame_rate=10", "--out", out)
    frames, times, forces = parse_eval_csv(out)
    scenario = load_tracks(str(cutin), frame_rate=10.0)
    info = scenario.agents[0]
    assert frames == list(range(info.first_frame, info.last_frame + 1))
    params = RunConfig().risk
    for frame, time_s, force in zip(frames, times, forces):
        assert time_s == frame / 10.0
        ego = scenario.state(0, frame)
        graph = build_graph(scenario, 0, frame, params.R)
        expected = total_directional_force(
            ego, graph, scenario.states_at(frame), params
        )
        assert force == expected
    side = json.loads((tmp_path / "eval.csv.run.json").read_text())
    assert side["command"] == "eval"
    assert side["ego_id"] == 0
    assert side["scenario"] == "cutin.csv"
    assert side["config"]["io"]["frame_rate"] == 10.0


@pytest.mark.parametrize("archetype", ARCHETYPES)
def test_cli_eval_force_column_is_compare_risknet_column(tmp_path, archetype):
    scene = tmp_path / "scene.csv"
    ok("gen", "--archetype", archetype, "--out", scene)
    columns = []
    for command, column in (("eval", 2), ("compare", 5)):
        out = tmp_path / f"{command}.csv"
        ok(command, "--scenario", scene, "--ego-id", "0", "--out", out)
        columns.append([(line.split(",")[0], line.split(",")[column])
                        for line in out.read_text().splitlines()[1:]])
    assert columns[0] == columns[1]
    assert any(force != "0.0" for _, force in columns[0])


def test_cli_eval_cutin_has_single_contiguous_episode(cutin, tmp_path):
    out = tmp_path / "eval.csv"
    ok("eval", "--scenario", cutin, "--ego-id", "0",
       "--set", "io.frame_rate=10", "--out", out)
    frames, _, forces = parse_eval_csv(out)
    values = np.array(forces)
    above = [f for f, v in zip(frames, values)
             if v > np.percentile(values, 90.0)]
    assert above
    assert above == list(range(above[0], above[-1] + 1))
    # the high-risk episode is the final approach: it peaks just before
    # the merger reaches the lane center, anticipating the cut-in
    scenario = load_tracks(str(cutin), frame_rate=10.0)
    entry_frame = next(
        f for f in range(*scenario.span())
        if scenario.state(1, f).position[1] == 0.0
    )
    assert above[0] > frames[0]
    assert entry_frame - 2 <= above[-1] <= entry_frame
    assert frames[int(np.argmax(values))] in above


def test_cli_eval_lone_agent_is_all_zero(tmp_path):
    csv_path = export_cv(tmp_path / "solo.csv", [(4, 0.0, 0.0, 20.0, 0.0)],
                         n_frames=12, frame_rate=10.0)
    out = tmp_path / "eval.csv"
    ok("eval", "--scenario", csv_path, "--ego-id", "4",
       "--set", "io.frame_rate=10", "--out", out)
    _, _, forces = parse_eval_csv(out)
    assert len(forces) == 12
    assert set(forces) == {0.0}


def test_cli_eval_missing_ego_exits_2(cutin, tmp_path):
    proc = run_cli("eval", "--scenario", cutin, "--ego-id", "99",
                   "--out", tmp_path / "x.csv")
    assert proc.returncode == 2
    assert proc.stderr.startswith("risknet: input error:")
    assert "99" in proc.stderr


@pytest.mark.parametrize("column", ["frame", "id"])
def test_cli_eval_non_integral_key_exits_2(tmp_path, column):
    path = tmp_path / "tracks.csv"
    rows = ["frame,id,x,y,xVelocity,yVelocity,width,height",
            "0.0,4.0,0,0,10,0,4.5,2",
            "1,4,1,0,10,0,4.5,2"]
    rows.append("2,4.5,2,0,10,0,4.5,2" if column == "id"
                else "3.5,4,2,0,10,0,4.5,2")
    path.write_text("\n".join(rows) + "\n")
    proc = run_cli("eval", "--scenario", path, "--ego-id", "4",
                   "--out", tmp_path / "x.csv")
    assert proc.returncode == 2
    assert proc.stderr.startswith("risknet: input error:")
    assert proc.stderr.count("\n") == 1
    assert f"{column} in data row 2" in proc.stderr
    rows[3] = "2.0,4,2,0,10,0,4.5,2"
    path.write_text("\n".join(rows) + "\n")
    ok("eval", "--scenario", path, "--ego-id", "4", "--out",
       tmp_path / "x.csv")


@pytest.mark.parametrize("command", ["eval", "compare"])
@pytest.mark.parametrize("masses, body, column, row", [
    (("0", "0"), ("4.5", "2"), "mass", 0),
    (("1500", "-1500"), ("4.5", "2"), "mass", 1),
    (("1500", "1500"), ("-4.5", "2"), "width", 1),
    (("1500", "1500"), ("4.5", "0"), "height", 1),
])
def test_cli_non_positive_body_exits_2(tmp_path, command, masses, body,
                                       column, row):
    path = tmp_path / "tracks.csv"
    rows = ["frame,id,x,y,xVelocity,yVelocity,width,height,mass"]
    for f in range(2):
        rows.append(f"{f},0,{0.4 * f},0,10,0,4.5,2,{masses[0]}")
        rows.append(f"{f},1,{20 + 0.2 * f},0,5,0,{body[0]},{body[1]},"
                    f"{masses[1]}")
    path.write_text("\n".join(rows) + "\n")
    proc = run_cli(command, "--scenario", path, "--ego-id", "0",
                   "--out", tmp_path / "x.csv")
    assert proc.returncode == 2
    assert proc.stderr.startswith("risknet: input error:")
    assert proc.stderr.count("\n") == 1
    assert f"{column} in data row {row} must be positive" in proc.stderr


@pytest.mark.parametrize("case", ["missing", "directory", "not_utf8",
                                  "out_dir_missing"])
def test_cli_eval_unreadable_path_exits_2(cutin, tmp_path, case):
    scenario, out = cutin, tmp_path / "eval.csv"
    if case == "missing":
        scenario = tmp_path / "absent.csv"
    elif case == "directory":
        scenario = tmp_path
    elif case == "not_utf8":
        scenario = tmp_path / "latin1.csv"
        scenario.write_bytes(cutin.read_bytes().replace(b"car", b"c\xe4r"))
    else:
        out = tmp_path / "no_such_dir" / "eval.csv"
    proc = run_cli("eval", "--scenario", scenario, "--ego-id", "0",
                   "--out", out)
    assert proc.returncode == 2
    assert proc.stderr.startswith("risknet: input error:")
    assert proc.stderr.count("\n") == 1
    named = out if case == "out_dir_missing" else scenario
    assert str(named) in proc.stderr


@pytest.mark.parametrize("command", ["compare", "map", "gen"])
def test_cli_out_in_missing_directory_exits_2(cutin, tmp_path, command):
    # these commands write through baselines, field and scene, not the
    # CLI's own opener
    out = tmp_path / "no_such_dir" / "out.csv"
    args = {
        "compare": ["--scenario", cutin, "--ego-id", "0"],
        "map": ["--scenario", cutin, "--ego-id", "0", "--frame", "3"],
        "gen": ["--archetype", "lateral_cut_in"],
    }[command]
    proc = run_cli(command, *args, "--out", out)
    assert proc.returncode == 2
    assert proc.stderr.startswith("risknet: input error: cannot write")
    assert proc.stderr.count("\n") == 1
    assert str(tmp_path / "no_such_dir") in proc.stderr
    assert not (tmp_path / "no_such_dir").exists()


def test_cli_cell_over_csv_field_limit_exits_2(cutin, tmp_path):
    # loadtxt reads the 200,000-digit cell as inf, so the csv.reader path
    # runs and meets its field size limit (131,072 by default)
    lines = cutin.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    cells[header.index("x")] = "1" * 200_000
    scenario = tmp_path / "long_cell.csv"
    scenario.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:])
                        + "\n")
    proc = run_cli("eval", "--scenario", scenario, "--ego-id", "0",
                   "--out", tmp_path / "eval.csv")
    assert proc.returncode == 2
    assert proc.stderr.startswith("risknet: input error:")
    assert proc.stderr.count("\n") == 1
    assert str(scenario) in proc.stderr
    assert "field limit" in proc.stderr


NAN_KEYS = ["io.frame_rate", "risk.R", "risk.beta", "baselines.ttc_threshold",
            "baselines.rss.rho", "detect.field", "detect.rss_margin"]


@pytest.mark.parametrize("key, value", [
    *((key, "nan") for key in NAN_KEYS), ("io.frame_rate", "inf")])
def test_cli_nan_or_infinite_rate_override_exits_2(cutin, tmp_path, key,
                                                   value):
    out = tmp_path / "x.csv"
    proc = run_cli("eval", "--scenario", cutin, "--ego-id", "0",
                   "--set", f"{key}={value}", "--out", out)
    assert proc.returncode == 2
    assert proc.stderr.startswith("risknet: input error:")
    assert len(proc.stderr.splitlines()) == 1
    assert (key if value == "nan" else "frame_rate") in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("key", NAN_KEYS)
def test_nan_in_config_file_names_the_key(tmp_path, key):
    *sections, leaf = key.split(".")
    text = f'{{"{leaf}": NaN}}'
    for section in reversed(sections):
        text = f'{{"{section}": {text}}}'
    path = tmp_path / "run.json"
    path.write_text(text)
    with pytest.raises(BadConfig, match=f"config key {key} is NaN"):
        load_config(str(path))


def test_cli_eval_bad_override_exits_2(cutin, tmp_path):
    proc = run_cli("eval", "--scenario", cutin, "--ego-id", "0",
                   "--set", "risk.nope=1", "--out", tmp_path / "x.csv")
    assert proc.returncode == 2
    assert "unknown config key" in proc.stderr


@pytest.mark.parametrize("command, flags", [
    ("eval", []),
    ("compare", []),
    ("map", ["--frame", "0"]),
])
def test_cli_overflowing_field_total_exits_2(tmp_path, command, flags):
    """A rear car at 1e308 m/s is finite input, but its pair terms with
    the ego overflow at frame 0: the command refuses the total in one
    line instead of writing nan or printing overflow warnings."""
    scenario = tmp_path / "fast.csv"
    ok("gen", "--archetype", "rear_overtake_cut_in",
       "--param", "rear_speed=1e308", "--out", scenario)
    proc = run_cli(command, "--scenario", scenario, "--ego-id", "0", *flags,
                   "--out", tmp_path / "out.csv")
    assert proc.returncode == 2
    assert proc.stderr.startswith("risknet: input error:")
    assert len(proc.stderr.splitlines()) == 1
    assert not (tmp_path / "out.csv").exists()
    assert not list(tmp_path.glob("out.csv*.json"))


def test_cli_position_overflowing_the_origin_shift_exits_2(tmp_path):
    """Finite x cells of -1e308, 1e308 and 1.5e308: the load-time shift
    of 1e308 carries the last two past the float range, so the load
    refuses the first file row it overflows."""
    scenario = tmp_path / "far.csv"
    rows = ["frame,id,x,y,xVelocity,yVelocity,width,height"]
    for f in range(3):
        rows += [f"{f},0,-1e308,0,0,0,4.5,2", f"{f},1,1e308,0,0,0,4.5,2",
                 f"{f},2,1.5e308,0,0,0,4.5,2"]
    scenario.write_text("\n".join(rows) + "\n")
    out = tmp_path / "cmp.csv"
    proc = run_cli("compare", "--scenario", scenario, "--ego-id", "0",
                   "--out", out)
    assert proc.returncode == 2
    assert proc.stderr == ("risknet: input error: non-finite value in "
                           "data row 1\n")
    assert not out.exists()
    assert not list(tmp_path.glob("cmp.csv*"))


def test_cli_config_file_and_set_precedence(cutin, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"risk": {"R": 30.0}, "io": {"frame_rate": 10.0}}
    ))
    out = tmp_path / "eval.csv"
    ok("eval", "--scenario", cutin, "--ego-id", "0",
       "--config", cfg_path, "--set", "risk.R=40.0", "--out", out)
    side = json.loads((tmp_path / "eval.csv.run.json").read_text())
    assert side["config"]["risk"]["R"] == 40.0
    assert side["config"]["io"]["frame_rate"] == 10.0


# ==================== map ====================


def test_cli_map_spanned_empty_frame_is_zero_raster(tmp_path):
    # agent 0 leaves at frame 3, agent 1 enters at frame 7: frames 4-6
    # lie inside the span but hold no agents at all
    states = [make_state(0, f, (0.5 * f, 0.0), (5.0, 0.0))
              for f in range(4)]
    states += [make_state(1, f, (30.0 + 0.5 * (f - 7), 2.0), (5.0, 0.0))
               for f in range(7, 11)]
    export_tracks(scenario_from_states(states, 10.0),
                  str(tmp_path / "gap.csv"))

    out = tmp_path / "map"
    ok("map", "--scenario", tmp_path / "gap.csv", "--ego-id", "0",
       "--frame", "5", "--cell", "2.0", "--bounds", "0,0,20,10",
       "--set", "io.frame_rate=10", "--out", out)
    raster = read_raster(str(out) + ".json")
    assert raster.frame == 5
    assert raster.values.shape == (5, 10)
    assert np.array_equal(raster.values, np.zeros((5, 10)))
    side = json.loads((tmp_path / "map.json").read_text())
    assert side["probabilistic"] is False
    assert side["step"] == 0
    assert side["encoding"] == "csv"
    assert side["units"] == "N"
    assert side["config"]["risk"]["R"] == 50.0

    proc = run_cli("map", "--scenario", tmp_path / "gap.csv", "--ego-id", "0",
                   "--frame", "99", "--set", "io.frame_rate=10",
                   "--out", tmp_path / "m2")
    assert proc.returncode == 2
    assert "outside the scenario" in proc.stderr


def test_cli_map_probe_outside_ego_track_takes_nearest_end(tmp_path):
    # the ego covers frames 3-6 of a 0-9 scene and speeds up every frame,
    # so its first and last states give different rasters
    states = [make_state(0, f, (2.0 * f, 0.0), (5.0 + f, 0.0))
              for f in range(3, 7)]
    states += [make_state(1, f, (12.0 + 0.5 * f, 3.0), (5.0, 0.0))
               for f in range(10)]
    csv_path = tmp_path / "late_ego.csv"
    export_tracks(scenario_from_states(states, 10.0), str(csv_path))
    scenario = load_tracks(str(csv_path), frame_rate=10.0)
    params = RunConfig().risk
    grid = GridSpec(origin=(0.0, 0.0), cell=2.0, width=10, height=5)
    rasters = {}
    for frame, end in ((0, 3), (2, 3), (3, 3), (5, 5), (8, 6), (9, 6)):
        out = tmp_path / f"map{frame}"
        ok("map", "--scenario", csv_path, "--ego-id", "0", "--frame",
           str(frame), "--cell", "2.0", "--bounds", "0,0,20,10",
           "--set", "io.frame_rate=10", "--out", out)
        got = read_raster(str(out) + ".json").values
        want = rasterize(scenario, frame, scenario.state(0, end), grid,
                         params).values
        assert got.tolist() == want.tolist(), frame
        rasters[frame] = got
    assert not np.array_equal(rasters[0], rasters[9])


def test_cli_map_binary_beyond_float32_exits_3(tmp_path):
    csv_path = export_cv(
        tmp_path / "fast.csv",
        [(0, 0.0, 0.0, 1e20, 0.0), (1, 10.0, 0.0, 0.0, 0.0)],
        n_frames=2, frame_rate=5.0,
    )
    common = ("map", "--scenario", csv_path, "--ego-id", "0", "--frame",
              "0", "--cell", "2.0", "--bounds", "0,-4,20,4",
              "--set", "io.frame_rate=5")
    proc = run_cli(*common, "--binary", "--out", tmp_path / "b")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("risknet: numeric error:")
    assert "float32" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    ok(*common, "--out", tmp_path / "c")  # the csv payload holds float64


def test_cli_map_bad_bounds_exit_2(cutin, tmp_path):
    proc = run_cli("map", "--scenario", cutin, "--ego-id", "0", "--frame", "0",
                   "--bounds", "1,2,3", "--set", "io.frame_rate=10",
                   "--out", tmp_path / "m")
    assert proc.returncode == 2
    proc = run_cli("map", "--scenario", cutin, "--ego-id", "0", "--frame", "0",
                   "--bounds", "5,0,1,10", "--set", "io.frame_rate=10",
                   "--out", tmp_path / "m")
    assert proc.returncode == 2
    assert "positive area" in proc.stderr


def test_cli_map_bad_cell_exit_2(cutin, tmp_path):
    for cell in ("0", "-1", "inf", "nan"):
        proc = run_cli("map", "--scenario", cutin, "--ego-id", "0",
                       "--frame", "0", "--cell", cell,
                       "--set", "io.frame_rate=10", "--out", tmp_path / "m")
        assert proc.returncode == 2, cell
        assert proc.stderr.startswith("risknet: input error: --cell")
        assert len(proc.stderr.splitlines()) == 1


def test_cli_map_probabilistic_requires_model(cutin, tmp_path):
    proc = run_cli("map", "--scenario", cutin, "--ego-id", "0",
                   "--frame", "0", "--probabilistic",
                   "--set", "io.frame_rate=10", "--out", tmp_path / "m")
    assert proc.returncode == 2
    assert "--model" in proc.stderr


@pytest.mark.parametrize("frame", ["-5", "99999"])
@pytest.mark.parametrize("probabilistic", [False, True],
                         ids=["deterministic", "probabilistic"])
def test_cli_map_frame_outside_scene_exits_2(cutin, tmp_path, frame,
                                             probabilistic):
    flags = (["--probabilistic", "--model", small_model(tmp_path)]
             if probabilistic else [])
    proc = run_cli("map", "--scenario", cutin, "--ego-id", "0",
                   "--frame", frame, *flags, "--set", "io.frame_rate=10",
                   "--out", tmp_path / "m")
    assert proc.returncode == 2
    assert proc.stderr == (f"risknet: input error: frame {frame} lies "
                           "outside the scenario\n")
    assert not list(tmp_path.glob("m.*"))


def test_cli_map_degenerate_probabilistic_matches_deterministic(tmp_path):
    csv_path = export_cv(
        tmp_path / "still.csv",
        [(0, 0.0, 0.0, 8.0, 0.0), (1, 20.0, 3.0, 0.0, 0.0),
         (2, -10.0, -4.0, 0.0, 0.0)],
        n_frames=6, frame_rate=5.0,
    )
    manifest = small_model(tmp_path, modes=1, zero_heads=True)
    common = ("--scenario", csv_path, "--ego-id", "0", "--frame", "4",
              "--cell", "2.0", "--bounds=-15,-10,25,10", "--binary",
              "--set", "io.frame_rate=5")
    ok("map", *common, "--out", tmp_path / "det")
    ok("map", *common, "--probabilistic", "--model", manifest, "--step", "1",
       "--out", tmp_path / "prob")
    det = (tmp_path / "det.f32").read_bytes()
    prob = (tmp_path / "prob.f32").read_bytes()
    assert det == prob
    raster = read_raster(str(tmp_path / "det.json"))
    assert raster.values.max() > 0.0
    side = json.loads((tmp_path / "prob.json").read_text())
    assert side["probabilistic"] is True
    assert side["step"] == 1
    assert side["encoding"] == "f32-le"


def test_cli_map_two_mode_raster_is_probability_weighted_sum(tmp_path):
    csv_path = export_cv(
        tmp_path / "cv.csv",
        [(0, 0.0, 0.0, 8.0, 0.0), (1, 15.0, 3.0, 6.0, 0.0),
         (2, -12.0, -2.0, 10.0, 0.5)],
        n_frames=8, frame_rate=5.0,
    )
    manifest = small_model(tmp_path, modes=2, seed=7, zero_heads=False)
    out = tmp_path / "mix"
    ok("map", "--scenario", csv_path, "--ego-id", "0", "--frame", "5",
       "--step", "2", "--cell", "2.0", "--bounds=-15,-10,25,10",
       "--probabilistic", "--model", manifest,
       "--set", "io.frame_rate=5", "--out", out)
    mixed = read_raster(str(out) + ".json")

    cell, dec = load_model(manifest)[:2]
    scenario = load_tracks(csv_path, frame_rate=5.0)
    params = RunConfig().risk
    probe = scenario.state(0, 5)
    expected = np.zeros_like(mixed.values)
    for agent_id in (1, 2):
        pred = predict_for_agent(cell, dec, scenario, agent_id, 5,
                                 radius=params.R, t_h=3)
        assert len(pred.modes) == 2
        for mode in pred.modes:
            lone = MixturePrediction(
                modes=[PredictionMode(pi=1.0, states=mode.states,
                                      covariances=mode.covariances)],
                dt=pred.dt, anchor=pred.anchor,
            )
            part = probabilistic_raster({agent_id: lone}, probe, 2,
                                        mixed.grid, params)
            expected += mode.pi * part.values
    assert np.allclose(mixed.values, expected, rtol=1e-9, atol=1e-12)


# ==================== compare ====================


def test_cli_compare_cutin_field_detects_before_ttc(cutin, tmp_path):
    out = tmp_path / "cmp.csv"
    proc = ok("compare", "--scenario", cutin, "--ego-id", "0",
              "--set", "io.frame_rate=10", "--out", out)
    summary = parse_detection_stdout(proc.stdout)
    assert set(summary) == {"ttc", "thw", "rss", "nc_field", "risknet"}
    assert summary["risknet"] is not None and summary["ttc"] is not None
    assert summary["risknet"] < summary["ttc"]
    header = out.read_text().splitlines()[0]
    assert header == "frame,ttc,thw,rss_margin,nc_field,risknet_force"
    side = json.loads((tmp_path / "cmp.csv.run.json").read_text())
    assert side["first_detection"]["risknet"] == summary["risknet"]
    assert side["first_detection"]["ttc"] == summary["ttc"]


def test_cli_compare_lone_ego_never_detects(tmp_path):
    csv_path = export_cv(tmp_path / "solo.csv", [(0, 0.0, 0.0, 20.0, 0.0)],
                         n_frames=15, frame_rate=10.0)
    proc = ok("compare", "--scenario", csv_path, "--ego-id", "0",
              "--set", "io.frame_rate=10", "--out", tmp_path / "cmp.csv")
    summary = parse_detection_stdout(proc.stdout)
    assert summary == {"ttc": None, "thw": None, "rss": None,
                       "nc_field": None, "risknet": None}


def test_cli_compare_infinite_thresholds_disable_detection(cutin, tmp_path):
    base = tmp_path / "base.csv"
    ok("compare", "--scenario", cutin, "--ego-id", "0",
       "--set", "io.frame_rate=10", "--out", base)
    off = tmp_path / "off.csv"
    proc = ok("compare", "--scenario", cutin, "--ego-id", "0",
              "--set", "io.frame_rate=10",
              "--set", "baselines.ttc_threshold=inf",
              "--set", "baselines.thw_threshold=inf",
              "--set", "detect.rss_margin=inf",
              "--set", "detect.field=inf",
              "--set", "detect.nc=inf",
              "--out", off)
    summary = parse_detection_stdout(proc.stdout)
    assert set(summary.values()) == {None}
    assert base.read_bytes() == off.read_bytes()


# ==================== train ====================


def train_dataset(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    export_cv(data / "a.csv",
              [(0, 0.0, 0.0, 5.0, 0.0), (1, 8.0, 3.0, 4.0, 0.0)],
              n_frames=5, frame_rate=5.0)
    export_cv(data / "b.csv",
              [(0, 2.0, -1.0, 6.0, 0.5), (1, -6.0, 2.0, 5.0, 0.0)],
              n_frames=5, frame_rate=5.0)
    return data


TRAIN_SETTINGS = ("--set", "predictor.d_h=4", "--set", "predictor.modes=2",
                  "--set", "predictor.t_h=3", "--set", "predictor.t_f=2",
                  "--set", "io.frame_rate=5")


def test_cli_train_epochs_zero_writes_single_row_curve(tmp_path):
    data = train_dataset(tmp_path)
    out = tmp_path / "run"
    proc = ok("train", "--dataset", data, *TRAIN_SETTINGS,
              "--epochs", "0", "--out", out)
    assert "trained 0 epochs on 4 windows" in proc.stdout
    lines = (out / "loss.csv").read_text().splitlines()
    assert lines[0] == "epoch,mean_nll"
    assert len(lines) == 2
    assert lines[1].startswith("0,")
    float(lines[1].split(",")[1])
    run = json.loads((out / "run.json").read_text())
    assert run["command"] == "train"
    assert run["windows"] == 4
    assert run["dataset"] == ["a.csv", "b.csv"]
    assert run["config"]["predictor"]["epochs"] == 0
    assert (out / "model.json").exists() and (out / "model.f32").exists()


def test_cli_train_same_seed_is_byte_identical(tmp_path):
    data = train_dataset(tmp_path)
    for name in ("run1", "run2"):
        ok("train", "--dataset", data, *TRAIN_SETTINGS,
           "--epochs", "2", "--seed", "5", "--out", tmp_path / name)
    for artifact in ("model.json", "model.f32", "loss.csv"):
        assert ((tmp_path / "run1" / artifact).read_bytes()
                == (tmp_path / "run2" / artifact).read_bytes()), artifact
    ok("train", "--dataset", data, *TRAIN_SETTINGS,
       "--epochs", "2", "--seed", "6", "--out", tmp_path / "run3")
    assert ((tmp_path / "run1" / "model.f32").read_bytes()
            != (tmp_path / "run3" / "model.f32").read_bytes())
    lines = (tmp_path / "run1" / "loss.csv").read_text().splitlines()
    assert len(lines) == 4  # header + initial loss + one row per epoch


def test_cli_train_step_mismatch_exits_2(tmp_path):
    data = train_dataset(tmp_path)  # 5 Hz tracks, read at 25 Hz below
    out = tmp_path / "run"
    proc = run_cli("train", "--dataset", data, *TRAIN_SETTINGS,
                   "--set", "io.frame_rate=25", "--out", out)
    assert proc.returncode == 2
    assert proc.stderr.startswith("risknet: input error:")
    assert "does not match decoder step 0.2 s" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert not out.exists()
    ok("train", "--dataset", data, *TRAIN_SETTINGS, "--set",
       "io.frame_rate=25", "--set", "predictor.dt=0.04", "--epochs", "0",
       "--out", out)


def test_cli_train_empty_dataset_exits_2(tmp_path):
    data = tmp_path / "empty"
    data.mkdir()
    proc = run_cli("train", "--dataset", data, "--out", tmp_path / "run")
    assert proc.returncode == 2
    assert "no .csv track files" in proc.stderr


# ==================== predict / metrics ====================


def test_cli_predict_then_metrics_reports_zero_error(tmp_path):
    csv_path = export_cv(
        tmp_path / "cv.csv",
        [(0, 0.0, 0.0, 5.0, 1.0), (1, 10.0, 2.0, 4.0, 0.0)],
        n_frames=10, frame_rate=5.0,
    )
    manifest = small_model(tmp_path, modes=1, zero_heads=True)
    pred_path = tmp_path / "pred.json"
    ok("predict", "--scenario", csv_path, "--ego-id", "0", "--frame", "5",
       "--model", manifest, "--set", "io.frame_rate=5", "--out", pred_path)
    payload = json.loads(pred_path.read_text())
    assert payload["format"] == "risknet-prediction"
    assert payload["version"] == 1
    assert payload["agent_id"] == 0 and payload["frame"] == 5
    assert payload["dt"] == 0.2
    assert len(payload["modes"]) == 1
    assert payload["modes"][0]["pi"] == 1.0
    assert len(payload["modes"][0]["states"]) == 2
    assert "config" in payload

    proc = ok("metrics", "--scenario", csv_path, "--ego-id", "0",
              "--frame", "5", "--prediction", pred_path,
              "--set", "io.frame_rate=5")
    assert "ade=0.0000" in proc.stdout
    assert "fde=0.0000" in proc.stdout
    assert "apde=0.0000" in proc.stdout

    out = tmp_path / "metrics.json"
    proc = ok("metrics", "--scenario", csv_path, "--ego-id", "0",
              "--model", manifest, "--set", "io.frame_rate=5", "--out", out)
    assert "ade=0.0000" in proc.stdout
    report = json.loads(out.read_text())
    assert report["frame"] == 7  # last frame minus the model horizon
    assert report["metrics"]["ade"] == pytest.approx(0.0, abs=1e-9)
    assert set(report["metrics"]) == {"ade", "fde", "apde", "anll", "fnll"}


def test_cli_metrics_unit_offset_prediction_scores_one(tmp_path):
    csv_path = export_cv(
        tmp_path / "cv.csv", [(0, 0.0, 0.0, 5.0, 1.0)],
        n_frames=10, frame_rate=5.0,
    )
    scenario = load_tracks(csv_path, frame_rate=5.0)
    frame = 5
    states = []
    for p in (1, 2):
        s = scenario.state(0, frame + p)
        states.append([float(s.position[0]) + 1.0, float(s.position[1]),
                       float(s.velocity[0]), float(s.velocity[1])])
    anchor = scenario.state(0, frame)
    pred_path = tmp_path / "offset.json"
    pred_path.write_text(json.dumps({
        "format": "risknet-prediction",
        "version": 1,
        "agent_id": 0,
        "frame": frame,
        "dt": 0.2,
        "anchor": {"position": [float(v) for v in anchor.position],
                   "velocity": [float(v) for v in anchor.velocity]},
        "modes": [{"pi": 1.0, "states": states,
                   "cov_diag": [[1.0, 1.0, 1.0, 1.0]] * 2}],
    }))
    proc = ok("metrics", "--scenario", csv_path, "--ego-id", "0",
              "--frame", str(frame), "--prediction", pred_path,
              "--set", "io.frame_rate=5")
    assert "ade=1.0000" in proc.stdout
    assert "fde=1.0000" in proc.stdout
    assert "apde=1.0000" in proc.stdout


def test_cli_metrics_nonfinite_likelihood_exits_3(tmp_path):
    csv_path = export_cv(
        tmp_path / "cv.csv", [(0, 0.0, 0.0, 5.0, 0.0)],
        n_frames=10, frame_rate=5.0,
    )
    pred_path = tmp_path / "huge.json"
    pred_path.write_text(json.dumps({
        "format": "risknet-prediction",
        "version": 1,
        "agent_id": 0,
        "frame": 5,
        "dt": 0.2,
        "anchor": {"position": [0.0, 0.0], "velocity": [5.0, 0.0]},
        "modes": [{"pi": 1.0,
                   "states": [[1e200, 0.0, 0.0, 0.0]] * 2,
                   "cov_diag": [[1.0, 1.0, 1.0, 1.0]] * 2}],
    }))
    proc = run_cli("metrics", "--scenario", csv_path, "--ego-id", "0",
                   "--frame", "5", "--prediction", pred_path,
                   "--set", "io.frame_rate=5")
    assert proc.returncode == 3
    assert "risknet: numeric error:" in proc.stderr


def prediction_payload():
    return {
        "format": "risknet-prediction",
        "version": 1,
        "agent_id": 0,
        "frame": 5,
        "dt": 0.2,
        "modes": [{"pi": 1.0, "states": [[1.0, 0.0, 5.0, 0.0]] * 2,
                   "cov_diag": [[1.0, 1.0, 1.0, 1.0]] * 2}],
    }


@pytest.mark.parametrize("drop", ["cov_diag", "states", "pi", "dt"])
def test_read_prediction_missing_key_is_bad_config(tmp_path, drop):
    payload = prediction_payload()
    payload.pop(drop, None)
    payload["modes"][0].pop(drop, None)
    path = tmp_path / "pred.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(BadConfig, match=drop):
        read_prediction(str(path))


def test_cli_metrics_malformed_prediction_exits_2(tmp_path):
    csv_path = export_cv(
        tmp_path / "cv.csv", [(0, 0.0, 0.0, 5.0, 0.0)],
        n_frames=10, frame_rate=5.0,
    )
    payload = prediction_payload()
    del payload["modes"][0]["cov_diag"]
    pred_path = tmp_path / "pred.json"
    pred_path.write_text(json.dumps(payload))
    proc = run_cli("metrics", "--scenario", csv_path, "--ego-id", "0",
                   "--frame", "5", "--prediction", pred_path,
                   "--set", "io.frame_rate=5")
    assert proc.returncode == 2
    assert proc.stderr.startswith("risknet: input error:")
    assert len(proc.stderr.splitlines()) == 1


def test_cli_metrics_modes_of_different_lengths_exit_2(tmp_path):
    csv_path = export_cv(
        tmp_path / "cv.csv", [(0, 0.0, 0.0, 5.0, 0.0)],
        n_frames=10, frame_rate=5.0,
    )
    payload = prediction_payload()
    second = json.loads(json.dumps(payload["modes"][0]))
    second["states"], second["cov_diag"] = (second["states"][:1],
                                            second["cov_diag"][:1])
    payload["modes"].append(second)
    pred_path = tmp_path / "pred.json"
    pred_path.write_text(json.dumps(payload))
    proc = run_cli("metrics", "--scenario", csv_path, "--ego-id", "0",
                   "--frame", "5", "--prediction", pred_path,
                   "--set", "io.frame_rate=5")
    assert proc.returncode == 2
    assert proc.stderr.startswith("risknet: input error:")
    assert "different lengths" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_cli_predict_malformed_model_exits_2(tmp_path):
    csv_path = export_cv(
        tmp_path / "cv.csv", [(0, 0.0, 0.0, 5.0, 0.0)],
        n_frames=10, frame_rate=5.0,
    )
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": "something-else"}))
    proc = run_cli("predict", "--scenario", csv_path, "--ego-id", "0",
                   "--model", bad, "--set", "io.frame_rate=5",
                   "--out", tmp_path / "p.json")
    assert proc.returncode == 2
    assert proc.stderr.startswith("risknet: input error:")


@pytest.mark.parametrize("case", ["model_version_1", "set_d_in",
                                  "top_level_seed"])
def test_cli_removed_model_format_and_keys_exit_2(tmp_path, case):
    csv_path = export_cv(
        tmp_path / "cv.csv", [(0, 0.0, 0.0, 5.0, 0.0)],
        n_frames=10, frame_rate=5.0,
    )
    manifest = small_model(tmp_path)
    extra = []
    if case == "model_version_1":
        with open(manifest) as fh:
            data = json.load(fh)
        data["version"] = 1
        with open(manifest, "w") as fh:
            json.dump(data, fh)
    elif case == "set_d_in":
        extra = ["--set", "predictor.d_in=7"]
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed": 3}))
        extra = ["--config", config]
    proc = run_cli("predict", "--scenario", csv_path, "--ego-id", "0",
                   "--model", manifest, "--set", "io.frame_rate=5",
                   *extra, "--out", tmp_path / "p.json")
    assert proc.returncode == 2
    assert proc.stderr.startswith("risknet: input error:")
    assert len(proc.stderr.splitlines()) == 1
    assert not (tmp_path / "p.json").exists()


def test_cli_predict_manifest_without_payload_exits_2(tmp_path):
    csv_path = export_cv(
        tmp_path / "cv.csv", [(0, 0.0, 0.0, 5.0, 0.0)],
        n_frames=10, frame_rate=5.0,
    )
    manifest = small_model(tmp_path)
    with open(manifest) as fh:
        data = json.load(fh)
    del data["payload"]
    with open(manifest, "w") as fh:
        json.dump(data, fh)
    proc = run_cli("predict", "--scenario", csv_path, "--ego-id", "0",
                   "--model", manifest, "--set", "io.frame_rate=5",
                   "--out", tmp_path / "p.json")
    assert proc.returncode == 2
    assert proc.stderr.startswith("risknet: input error:")
    assert len(proc.stderr.splitlines()) == 1


def test_cli_metrics_needs_model_or_prediction(tmp_path):
    csv_path = export_cv(
        tmp_path / "cv.csv", [(0, 0.0, 0.0, 5.0, 0.0)],
        n_frames=10, frame_rate=5.0,
    )
    proc = run_cli("metrics", "--scenario", csv_path, "--ego-id", "0",
                   "--set", "io.frame_rate=5")
    assert proc.returncode == 2
    assert "--model or --prediction" in proc.stderr


# ==================== schema remap ====================


def test_cli_schema_remap_matches_canonical(cutin, tmp_path):
    renamed = tmp_path / "renamed.csv"
    lines = cutin.read_text().splitlines(keepends=True)
    header = lines[0].replace("frame", "f").replace("x,", "posX,")
    renamed.write_text(header + "".join(lines[1:]))

    base, remapped = tmp_path / "base.csv", tmp_path / "remap.csv"
    ok("eval", "--scenario", cutin, "--ego-id", "0",
       "--set", "io.frame_rate=10", "--out", base)
    ok("eval", "--scenario", renamed, "--ego-id", "0",
       "--set", "io.frame_rate=10",
       "--schema", "frame=f", "--schema", "x=posX", "--out", remapped)
    assert base.read_bytes() == remapped.read_bytes()

    proc = run_cli("eval", "--scenario", renamed, "--ego-id", "0",
                   "--set", "io.frame_rate=10", "--out", tmp_path / "x.csv")
    assert proc.returncode == 2
    assert "required column missing" in proc.stderr


# ==================== fuzzed inputs ====================
#
# cli.main in process on mutated track, config, model and prediction
# files: every run ends with exit 0, or 2 or 3 and one error line, and
# never with a traceback.

FUZZ_CELLS = ["", "nan", "inf", "-inf", "1e308", "-1e308", "1e400", "0",
              "-0.0", "1e-320", "2.5", "-3", "7", "x", '"car"', "truck",
              " ", "1_0", "١", '"']
FUZZ_VALUES = [None, True, False, 0, 1, -1, 2, 0.5, -2.5, 1e308, -1e308,
               math.nan, math.inf, "", "x", [], {}, [1.0, 2.0]]
# Large ints go only into a model manifest's hyperparameters, which
# load_model checks against the declared shapes, the horizon bound and
# the payload before it builds anything.  run.json gets none: a training
# config with that d_h allocates by design.
FUZZ_LARGE = [10**6, 10**9, 2**62]
FUZZ_HYPER = sorted(TrainHyper.__dataclass_fields__)

# command -> (argv, the files it reads besides the tracks and config)
FUZZ_COMMANDS = {
    "eval": (["eval", "--ego-id", "0", "--out", "{out}/e.csv"], ()),
    "compare": (["compare", "--ego-id", "0", "--out", "{out}/c.csv"], ()),
    "map": (["map", "--ego-id", "0", "--frame", "5", "--cell", "2",
             "--bounds", "0,0,40,10", "--out", "{out}/m"], ()),
    "map_prob": (["map", "--ego-id", "0", "--frame", "5", "--cell", "2",
                  "--bounds", "0,0,40,10", "--probabilistic", "--model",
                  "{dir}/model.json", "--out", "{out}/mp"],
                 ("model.json", "model.f32")),
    "predict": (["predict", "--ego-id", "0", "--frame", "5", "--model",
                 "{dir}/model.json", "--out", "{out}/p.json"],
                ("model.json", "model.f32")),
    "metrics": (["metrics", "--ego-id", "0", "--model",
                 "{dir}/model.json"], ("model.json", "model.f32")),
    "metrics_pred": (["metrics", "--ego-id", "0", "--frame", "5",
                      "--prediction", "{dir}/pred.json"], ("pred.json",)),
    "train": (["train", "--dataset", "{dir}/data", "--out", "{out}/run"],
              ()),
}


@pytest.fixture(scope="module")
def fuzz_inputs():
    """The valid files every fuzz case mutates one of, as bytes."""
    import tempfile

    hyper = TrainHyper(d_h=4, modes=2, t_h=3, t_f=2, dt=0.2, lr=0.05,
                       epochs=1, seed=3)
    cfg = config_to_dict(RunConfig(predictor=hyper,
                                   io=IOConfig(frame_rate=5.0)))
    with tempfile.TemporaryDirectory() as tmp:
        export_cv(f"{tmp}/tracks.csv",
                  [(0, 0.0, 0.0, 5.0, 0.2), (1, 8.0, 3.0, 4.0, -0.1),
                   (2, -6.0, -2.5, 6.0, 0.0)], n_frames=12, frame_rate=5.0)
        save_model(f"{tmp}/model", *init_model(hyper), hyper)
        files = {name: Path(tmp, name).read_bytes()
                 for name in ("tracks.csv", "model.json", "model.f32")}
    files["run.json"] = json.dumps(cfg).encode()
    files["pred.json"] = json.dumps(prediction_payload()).encode()
    return files


def predict_with_manifest_hyper(fuzz_inputs, tmp_path, field, value):
    """``predict`` in process on the fuzz inputs, with the model
    manifest's hyperparameter ``field`` set to ``value``: the exit code,
    the stderr lines and the traced peak allocation in bytes."""
    import contextlib
    import io
    import tracemalloc

    from risknet import cli

    for name, raw in fuzz_inputs.items():
        (tmp_path / name).write_bytes(raw)
    manifest = json.loads(fuzz_inputs["model.json"])
    manifest["hyper"][field] = value
    (tmp_path / "model.json").write_text(json.dumps(manifest))
    argv = ["predict", "--scenario", str(tmp_path / "tracks.csv"),
            "--ego-id", "0", "--frame", "5", "--model",
            str(tmp_path / "model.json"), "--out", str(tmp_path / "p.json"),
            "--config", str(tmp_path / "run.json")]
    err = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, err.getvalue().splitlines(), peak


@pytest.mark.parametrize("field", ["d_h", "modes"])
def test_cli_huge_model_manifest_is_refused_before_allocating(
        fuzz_inputs, tmp_path, field):
    """A manifest whose hyperparameters declare a model of terabytes is
    refused from its declared shapes, before any parameter is built."""
    code, lines, peak = predict_with_manifest_hyper(fuzz_inputs, tmp_path,
                                                    field, 10**6)
    assert code == 2
    (line,) = lines
    assert line.startswith("risknet: input error: "), line
    assert "mismatch" in line or "malformed" in line, line
    assert peak < 1 << 20, peak
    assert not (tmp_path / "p.json").exists()


def test_cli_predict_refuses_a_manifest_horizon_beyond_the_bound(
        fuzz_inputs, tmp_path):
    """A manifest t_f sizes every decode, so one above MAX_T_F is refused
    before the model is built or anything is decoded."""
    code, lines, peak = predict_with_manifest_hyper(fuzz_inputs, tmp_path,
                                                    "t_f", 10**6)
    assert code == 2
    (line,) = lines
    assert line.startswith("risknet: input error: "), line
    assert f"t_f = {10**6} exceeds the longest horizon" in line, line
    assert peak < 1 << 20, peak
    assert not (tmp_path / "p.json").exists()


def test_horizon_bound_refuses_config_and_direct_call(tmp_path):
    """TrainHyper takes t_f up to MAX_T_F; above it a direct call raises
    BadConfig and a config ends the CLI with exit 2 and one line."""
    assert TrainHyper(t_f=MAX_T_F).t_f == MAX_T_F
    with pytest.raises(BadConfig, match="t_f = 1001 exceeds"):
        TrainHyper(t_f=MAX_T_F + 1)
    proc = run_cli("train", "--dataset", train_dataset(tmp_path),
                   *TRAIN_SETTINGS, "--set", f"predictor.t_f={MAX_T_F + 1}",
                   "--out", tmp_path / "run")
    assert proc.returncode == 2
    (line,) = proc.stderr.splitlines()
    assert line.startswith("risknet: input error: "), line
    assert "exceeds the longest horizon" in line, line
    assert not (tmp_path / "run").exists()


def _json_paths(node, path=()):
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _json_paths(child, path + (key,))


@st.composite
def fuzz_cases(draw):
    """A command, the file it reads that is mutated, and the mutation."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    name = draw(st.sampled_from(
        ["tracks.csv", "run.json", *FUZZ_COMMANDS[command][1]]))
    return command, name, draw(st.data())


def _mutate(raw, name, data):
    if data.draw(st.integers(0, 9)) == 0:  # cut anywhere
        return raw[:data.draw(st.integers(0, len(raw)))]
    if name.endswith(".f32"):
        values = np.frombuffer(raw, "<f4").copy()
        values[data.draw(st.integers(0, values.size - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf, 3e38, -0.0]))
        return values.tobytes()
    if name == "model.json" and data.draw(st.integers(0, 3)) == 0:
        doc = json.loads(raw)
        doc["hyper"][data.draw(st.sampled_from(FUZZ_HYPER))] = data.draw(
            st.sampled_from(FUZZ_LARGE))
        return json.dumps(doc).encode()
    if name.endswith(".json"):
        doc = json.loads(raw)
        *parent, key = data.draw(st.sampled_from(list(_json_paths(doc))[1:]))
        node = doc
        for k in parent:
            node = node[k]
        how = data.draw(st.sampled_from(["set", "drop", "extra"]))
        if how == "drop":
            del node[key]
        elif how == "extra" and isinstance(node, dict):
            node["extra"] = 1
        else:
            node[key] = data.draw(st.sampled_from(FUZZ_VALUES))
        return json.dumps(doc).encode()
    lines = raw.decode().split("\r\n")
    i = data.draw(st.integers(0, len(lines) - 2))
    how = data.draw(st.sampled_from(["cell", "cell", "drop", "repeat"]))
    if how == "cell":
        cells = lines[i].split(",")
        cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(
            st.sampled_from(FUZZ_CELLS))
        lines[i] = ",".join(cells)
    elif how == "drop":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return "\r\n".join(lines).encode()


@given(case=fuzz_cases())
@settings(max_examples=150, deadline=None)
def test_cli_mutated_inputs_exit_cleanly(fuzz_inputs, case):
    import contextlib
    import io
    import tempfile

    from risknet import cli

    command, name, data = case
    with tempfile.TemporaryDirectory() as tmp:
        os.mkdir(f"{tmp}/data")
        os.mkdir(f"{tmp}/out")
        for file, raw in fuzz_inputs.items():
            if file == name:
                raw = _mutate(raw, name, data)
            where = "data/" if file == "tracks.csv" else ""
            with open(f"{tmp}/{where}{file}", "wb") as fh:
                fh.write(raw)
        argv, _ = FUZZ_COMMANDS[command]
        argv = [a.format(dir=tmp, out=f"{tmp}/out") for a in argv]
        if command != "train":
            argv += ["--scenario", f"{tmp}/data/tracks.csv"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--config", f"{tmp}/run.json"])
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert code in (0, 2, 3), err.getvalue()
    if code:
        (line,) = err.getvalue().splitlines()
        assert line.startswith(("risknet: input error: ",
                                "risknet: numeric error: ")), line
