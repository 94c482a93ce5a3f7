"""risknet benchmark: seeded workloads through the CLI, timed in-process.

Usage (from the repository root)::

    python3 bench/run.py --workload highway_score --seed 1 --seconds 20
    python3 bench/run.py --workload all --seed 1 --seconds 20
    python3 bench/run.py --workload train --seed 1 --seconds 20 --trace 1

Each command is a call of ``risknet.cli.main(argv)`` on files the
benchmark generated from ``--seed``, so interpreter start-up stays out of
the numbers.  Load is a closed loop of one client: one process, one
thread, BLAS pinned to one thread, each command issued after the
previous one returned.  Every output is checked (see checks.py); a
nonzero exit or a failed check counts as a failed operation.

With ``--trace 0`` the run times repeated passes over the workload's
commands and reports the end-to-end metrics.  With ``--trace 1`` it
wraps the package's functions (see tracing.py) and reports per-layer
metrics instead.  Layers are measured where they work, so the traced run
covers one pass of every workload, beginning with the one named; untraced
passes alternate with traced ones to give the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  ``--out FILE`` also writes the
full record: machine, revision, per-command medians and failures.
"""

import os

# Pin BLAS before numpy loads: the arrays are tiny and threads only add noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 3

# ---- workload constants ----
EGOS = (22, 37)  # mid-platoon agents of lanes 1 and 2
GEN_DURATION, GEN_RATE = 300.0, 25.0  # 7501 frames x 4 agents = 30k rows
MAP_EGO, MAP_FRAME, MAP_CELL = 37, 250, 1.0
PROB_EGO, PROB_FRAME, PROB_STEP, PROB_CELL = 22, 300, 4, 2.0
WINDOW_HALF_LENGTH = 40.0  # m ahead of and behind the ego
WINDOW_Y = (0.0, 14.0)  # all four lanes
# lr 0.01: one clipped step at 0.05 can raise the loss on a 25 Hz corpus
HYPER = {"d_h": 12, "modes": 2, "t_h": 6, "t_f": 8, "lr": 0.01}
TRAIN_EPOCHS = 1
SOLO_WINDOWS = 200
SOLO_DT = 0.2
GRAPH_WINDOWS, GRAPH_FRAME = 32, 200
FIT_WINDOWS, FIT_FRAME, FIT_EPOCHS = 8, 100, 2

WHY = {
    "highway_score": "paper questions 1 and 3 on a dense 20-38 m/s highway: "
                     "gen, compare, eval and map drive scene I/O, field and "
                     "baselines while the predictor stays idle",
    "train": "predictor training on 200 solo and 32 neighbour-rich windows: "
             "autodiff forward, backward and graph message passing; no "
             "field work",
    "forecast_map": "predict and map --probabilistic over every agent of a "
                    "frame: forward-only predictor plus the field through "
                    "prob's ghost path",
}


@dataclass
class Command:
    label: str
    argv: List[str]
    check: Callable[[], None]


class SetupFailed(Exception):
    pass


# ==================== the program under test ====================

def import_program():
    """Import the package from ./src and time it; exits 2 when the tree
    holds no package, which is how a bare benchmark directory fails."""
    if not os.path.isdir(os.path.join(SRC, "risknet")):
        print(f"bench: no package at {SRC}/risknet; run from a checkout "
              "of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(1, os.path.join(ROOT, "tests"))
    start = time.perf_counter()
    import risknet.cli  # noqa: F401  (timed import)
    import_s = time.perf_counter() - start
    try:
        import oracles  # noqa: F401
    except ImportError as exc:
        print(f"bench: cannot import tests/oracles.py: {exc}",
              file=sys.stderr)
        sys.exit(2)
    return import_s


def call_cli(argv: List[str]) -> Tuple[float, Optional[str]]:
    """Run one command in-process; returns (seconds, error or None)."""
    from risknet import cli

    gc.collect()  # each command starts from a clean heap, as a new process would
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception:
            code = traceback.format_exc()
        elapsed = time.perf_counter() - start
    if code == 0:
        return elapsed, None
    return elapsed, f"exit {code}: {err.getvalue().strip()}"


class Ledger:
    """Attempted and failed operations with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def run(self, cmd: Command, tracer=None) -> float:
        """Call and check one command; with a tracer, the call alone
        becomes the top-level ``cli.<label>`` span."""
        self.attempted += 1
        close = tracer.command(f"cli.{cmd.label}") if tracer else None
        try:
            elapsed, error = call_cli(cmd.argv)
        finally:
            if close:
                close()
        if error is None:
            try:
                cmd.check()
            except Exception as exc:  # a failed check or unreadable output
                error = f"check: {type(exc).__name__}: {exc}"
        if error is not None:
            self._fail(f"{cmd.label}: {error}")
        return elapsed

    def verify(self, ok: bool, reason: str) -> None:
        """Count a self-check of the benchmark as one more operation."""
        self.attempted += 1
        if not ok:
            self._fail(reason)

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)
            print(f"bench: failed: {reason}", file=sys.stderr)


# ==================== workloads ====================

def _window(scene, ego: int, frame: int) -> str:
    x = scene.state(ego, frame)["position"][0]
    return (f"{x - WINDOW_HALF_LENGTH!r},{WINDOW_Y[0]!r},"
            f"{x + WINDOW_HALF_LENGTH!r},{WINDOW_Y[1]!r}")


def _train_config(work: str, name: str, frame_rate: float, epochs: int,
                  seed: int) -> str:
    import inputs

    config = os.path.join(work, f"{name}.json")
    inputs.write_config(config, frame_rate, dict(
        HYPER, dt=1.0 / frame_rate, epochs=epochs, seed=seed))
    return config


def prepare_highway_score(work: str, seed: int) -> List[Command]:
    import checks
    import inputs

    scene = inputs.make_highway(seed)
    tracks = os.path.join(work, "highway.csv")
    inputs.write_highway(scene, tracks)
    gen_out = os.path.join(work, "archetype.csv")
    cmds = [Command("gen", ["gen", "--archetype", "blocked_lane_change",
                            "--duration", repr(GEN_DURATION), "--out",
                            gen_out],
                    lambda: checks.check_gen(gen_out, GEN_DURATION,
                                             GEN_RATE))]
    for ego in EGOS:
        table = os.path.join(work, f"compare_{ego}.csv")
        series = os.path.join(work, f"eval_{ego}.csv")
        cmds.append(Command(
            "compare", ["compare", "--scenario", tracks, "--ego-id",
                        str(ego), "--out", table],
            lambda p=table, e=ego: checks.check_compare(p, scene, e)))
        cmds.append(Command(
            "eval", ["eval", "--scenario", tracks, "--ego-id", str(ego),
                     "--out", series],
            lambda p=series, e=ego: checks.check_eval(p, scene, e)))
    raster = os.path.join(work, "map")
    cmds.append(Command(
        "map", ["map", "--scenario", tracks, "--ego-id", str(MAP_EGO),
                "--frame", str(MAP_FRAME), "--cell", str(MAP_CELL),
                "--bounds", _window(scene, MAP_EGO, MAP_FRAME),
                "--out", raster],
        lambda: checks.check_map(raster, scene, MAP_EGO, MAP_FRAME)))
    return cmds


def prepare_train(work: str, seed: int) -> List[Command]:
    import checks
    import inputs
    from risknet.predictor.store import load_model

    frames = HYPER["t_h"] + HYPER["t_f"]
    solo = os.path.join(work, "solo")
    inputs.write_solo_corpus(seed, solo, SOLO_WINDOWS, frames, SOLO_DT)
    scene = inputs.make_highway(seed)
    graph = os.path.join(work, "graph")
    os.makedirs(graph, exist_ok=True)
    inputs.write_slice(
        scene, os.path.join(graph, "slice.csv"),
        inputs.central_agents(scene, GRAPH_FRAME, GRAPH_WINDOWS),
        GRAPH_FRAME, frames)
    cmds = []
    for label, dataset, rate in (("train_solo", solo, 1.0 / SOLO_DT),
                                 ("train_graph", graph,
                                  inputs.HIGHWAY_RATE)):
        config = _train_config(work, label, rate, TRAIN_EPOCHS, seed)
        out = os.path.join(work, f"{label}_out")
        cmds.append(Command(
            label, ["train", "--dataset", dataset, "--config", config,
                    "--out", out],
            lambda o=out: checks.check_training(o, TRAIN_EPOCHS,
                                                load_model)))
    return cmds


def prepare_forecast_map(work: str, seed: int) -> List[Command]:
    import checks
    import inputs

    scene = inputs.make_highway(seed)
    tracks = os.path.join(work, "highway.csv")
    inputs.write_highway(scene, tracks)
    frames = HYPER["t_h"] + HYPER["t_f"]
    fit_data = os.path.join(work, "fit")
    os.makedirs(fit_data, exist_ok=True)
    inputs.write_slice(
        scene, os.path.join(fit_data, "slice.csv"),
        inputs.central_agents(scene, FIT_FRAME, FIT_WINDOWS),
        FIT_FRAME, frames)
    config = _train_config(work, "fit", inputs.HIGHWAY_RATE, FIT_EPOCHS,
                           seed)
    model_dir = os.path.join(work, "model")
    _, error = call_cli(["train", "--dataset", fit_data, "--config", config,
                         "--out", model_dir])
    if error is not None:
        raise SetupFailed(f"model fit: {error}")
    model = os.path.join(model_dir, "model.json")
    forecast = os.path.join(work, "forecast.json")
    raster = os.path.join(work, "map_prob")
    return [
        Command("predict",
                ["predict", "--scenario", tracks, "--ego-id", str(PROB_EGO),
                 "--model", model, "--frame", str(PROB_FRAME),
                 "--out", forecast],
                lambda: checks.check_prediction(forecast, HYPER["t_f"])),
        Command("map_prob",
                ["map", "--scenario", tracks, "--ego-id", str(PROB_EGO),
                 "--frame", str(PROB_FRAME), "--probabilistic", "--model",
                 model, "--step", str(PROB_STEP), "--cell", str(PROB_CELL),
                 "--bounds", _window(scene, PROB_EGO, PROB_FRAME),
                 "--out", raster],
                lambda: checks.check_prob_map(raster)),
    ]


WORKLOADS = {
    "highway_score": prepare_highway_score,
    "train": prepare_train,
    "forecast_map": prepare_forecast_map,
}


# ==================== statistics and records ====================

def tail_percentile(samples: List[float]) -> Optional[Tuple[float, float]]:
    """Highest of a few standard percentiles with at least ten samples
    beyond it, as (percentile, value); None with fewer than 20 samples."""
    n = len(samples)
    ordered = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip("\n").endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    total = 0
    for dirpath, _, names in os.walk(SRC):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(),
        "src_lines": src_lines(),  # information only, not a gated metric
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def print_command_table(times: Dict[str, List[float]]) -> Dict[str, dict]:
    table = {}
    for label, samples in times.items():
        med = statistics.median(samples)
        tail = tail_percentile(samples)
        table[f"{label}_s"] = {"median": med, "n": len(samples),
                               "tail": tail}
        tail_text = ("no percentile: under 20 samples" if tail is None
                     else f"p{tail[0]:g}={tail[1]:.6f} s")
        print(f"  {label + '_s':<16} {med:10.6f} s   n={len(samples):<3} "
              f"{tail_text}")
    return table


# ==================== timed run (--trace 0) ====================

def timed_run(name: str, seed: int, seconds: float, import_s: float,
              work: str, ledger: Ledger) -> Tuple[dict, dict]:
    prepare = WORKLOADS[name]
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cmds = prepare(work, seed)
        setups.append(time.perf_counter() - start)
    start = time.perf_counter()
    for cmd in cmds:  # warm-up pass: first calls, page cache, allocator
        ledger.run(cmd)
    warmup_s = time.perf_counter() - start

    times: Dict[str, List[float]] = {c.label: [] for c in cmds}
    passes = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        for cmd in cmds:
            times[cmd.label].append(ledger.run(cmd))
        passes += 1

    medians = [statistics.median(v) for v in times.values()]
    geomean_ms = math.exp(statistics.fmean(math.log(m) for m in medians)) \
        * 1e3
    setup_s = import_s + statistics.median(setups) + warmup_s
    print(f"workload {name}: {WHY[name]}")
    print(f"  setup: import {import_s:.4f} s, inputs "
          f"{[round(s, 4) for s in setups]} s, warm-up {warmup_s:.4f} s")
    table = print_command_table(times)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        # one typical pass: the median of every command it issues
        "cycle_s": metric(sum(statistics.median(times[c.label])
                              for c in cmds), "s"),
        "cmd_geomean_ms": metric(geomean_ms, "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    for key, value in metrics.items():
        print(f"  {key:<16} {value['value']:10.6f} {value['unit']}")
    detail = {"commands": table, "passes": passes,
              "setup_repeats_s": setups, "import_s": import_s,
              "warmup_s": warmup_s}
    return metrics, detail


# ==================== traced run (--trace 1) ====================

def traced_run(name: str, seed: int, seconds: float, work: str,
               ledger: Ledger) -> Tuple[dict, dict]:
    import tracing

    order = [name] + [w for w in WORKLOADS if w != name]
    cmds: List[Command] = []
    for w in order:
        sub = os.path.join(work, w)
        os.makedirs(sub, exist_ok=True)
        cmds.extend(WORKLOADS[w](sub, seed))
    for cmd in cmds:  # warm-up pass
        ledger.run(cmd)

    plain: List[float] = []
    traced: List[float] = []
    passes: List[Dict[str, float]] = []
    tracer = None
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        plain.append(sum(ledger.run(cmd) for cmd in cmds))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall = sum(ledger.run(cmd, tracer) for cmd in cmds)
        finally:
            tracer.uninstall()
        traced.append(wall)
        summary = tracing.Summary(tracer)
        layers = tracing.layer_metrics(summary)
        for label in dict.fromkeys(c.label for c in cmds):
            key = f"cli.{label}"
            layers[f"{key}.self_ms"] = \
                summary.self_s[key] / summary.calls[key] * 1e3
        passes.append(layers)
        ledger.verify(summary.unaccounted <= 1e-6,
                      f"trace: self times miss {summary.unaccounted:.2e} "
                      "of a command's wall time")
    for missing in tracer.missing:
        print(f"bench: no binding {missing} to trace", file=sys.stderr)
    for key in tracing.EXACT_COUNTS:
        values = {p[key] for p in passes}
        ledger.verify(len(values) == 1,
                      f"trace: {key} differs between passes: "
                      f"{sorted(values)}")

    overhead = (sum(traced) - sum(plain)) / sum(plain) * 100.0
    units = {m: u for m, u, _ in tracing.LAYER_METRICS}
    metrics = {}
    for key in passes[0]:
        unit = units.get(key, "ms")
        metrics[key] = metric(statistics.median(p[key] for p in passes),
                              unit)
    metrics["trace.overhead_pct"] = metric(overhead, "%")

    print(f"traced run: {len(passes)} traced and {len(plain)} untraced "
          f"passes over {', '.join(order)}")
    print(f"  untraced pass {statistics.median(plain):.4f} s, traced pass "
          f"{statistics.median(traced):.4f} s, overhead {overhead:.2f} %")
    _print_breakdown(tracer)
    for key, value in metrics.items():
        print(f"  {key:<44} {value['value']:14.4f} {value['unit']}")
    detail = {"passes": len(passes), "spans": tracer.spans}  # last pass
    return metrics, detail


def _print_breakdown(tracer) -> None:
    """Self time per layer inside each command of the last traced pass;
    the columns of a row add up to the command's wall time."""
    selfs = tracer.self_times()
    top = -1
    rows: Dict[str, Dict[str, float]] = {}
    for i, (name, _, _, parent, _) in enumerate(tracer.spans):
        if parent < 0:
            top = i
            rows.setdefault(name, {})
        layer = name.split(".")[0]
        bucket = rows[tracer.spans[top][0]]
        bucket[layer] = bucket.get(layer, 0.0) + selfs[i]
    layers = ["cli", "scene", "field", "baselines", "prob", "predictor",
              "trace"]
    print("  self ms per layer: " + " ".join(f"{l:>10}" for l in layers))
    for cmd, bucket in rows.items():
        print(f"  {cmd:<18} " + " ".join(
            f"{bucket.get(l, 0.0) * 1e3:10.2f}" for l in layers))


# ==================== entry points ====================

def _remove_work_root() -> None:
    with contextlib.suppress(OSError):  # not empty: another run uses it
        os.rmdir(WORK_ROOT)


def run_one(args) -> int:
    import_s = import_program()
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    ledger = Ledger()
    try:
        if args.trace:
            metrics, detail = traced_run(args.workload, args.seed,
                                         args.seconds, work, ledger)
        else:
            metrics, detail = timed_run(args.workload, args.seed,
                                        args.seconds, import_s, work, ledger)
    except SetupFailed as exc:
        print(f"bench: setup failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        _remove_work_root()
    error_rate = ledger.failed / ledger.attempted
    print(f"  error_rate {error_rate:.6f} ({ledger.failed} of "
          f"{ledger.attempted} operations)")
    info = machine()
    print("  machine " + json.dumps(info, sort_keys=True))
    if args.out:
        spans = detail.pop("spans", None)
        record = {"workload": args.workload, "why": WHY[args.workload],
                  "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": info,
                  "error_rate": error_rate, "failures": ledger.reasons,
                  "metrics": metrics, **detail}
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        if spans is not None:
            with open(args.out + ".spans.json", "w") as fh:
                json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                      "count"], "spans": spans}, fh)
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak
    memory, then one table of every per-command metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    records = {}
    os.makedirs(WORK_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT, prefix="all-") as tmp:
        for name in WORKLOADS:
            out = os.path.join(tmp, f"{name}.json")
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace),
                 "--out", out],
                capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"bench: workload {name} exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, value in result["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = value
            with open(out) as fh:
                records[name] = json.load(fh)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(records, fh, indent=1, sort_keys=True)
    _remove_work_root()
    if not args.trace:
        print("all workloads: median per command, with sample count")
        for name, rec in records.items():
            for key, row in rec["commands"].items():
                print(f"  {name:<14} {key:<14} {row['median']:10.6f} s  "
                      f"n={row['n']}")
            print(f"  {name:<14} {'error_rate':<14} "
                  f"{rec['error_rate']:10.6f}")
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("bench: --seed must be nonnegative", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
