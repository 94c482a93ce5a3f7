"""Run configuration: one JSON file, strict keys, flag overrides."""

import dataclasses
import json
import math
import reprlib
import typing
from dataclasses import dataclass, field
from typing import Any, Dict, Sequence, Tuple, Union

from .baselines import BaselineConfig, RssParams
from .errors import BadConfig
from .field import RiskFieldParams
from .predictor.train import TrainHyper

PERCENTILE_PRESET = "p90"


@dataclass
class DetectConfig:
    """First-detection thresholds for the comparison summary.

    ttc/thw detect at or below their thresholds (configured on the
    baselines section); rss detects when the safety margin reaches
    ``rss_margin``; the field metrics detect at or above a force
    threshold, either absolute newtons or the scenario percentile preset
    "p90".  An infinite threshold disables a metric's detection.
    """

    rss_margin: float = 0.0
    field: Union[float, str] = PERCENTILE_PRESET
    nc: Union[float, str] = PERCENTILE_PRESET

    def __post_init__(self):
        for name in ("field", "nc"):
            v = getattr(self, name)
            if isinstance(v, str) and v != PERCENTILE_PRESET:
                raise BadConfig(
                    f"detect.{name} must be a number or {PERCENTILE_PRESET!r}"
                )


@dataclass
class IOConfig:
    frame_rate: float = 25.0  # Hz, for ingested track files
    schema: Dict[str, str] = field(default_factory=dict)  # column remaps
    binary_raster: bool = False

    def __post_init__(self):
        if not 0.0 < self.frame_rate < math.inf:
            raise BadConfig("frame_rate must be positive and finite")


@dataclass
class RunConfig:
    risk: RiskFieldParams = field(default_factory=RiskFieldParams)
    baselines: BaselineConfig = field(default_factory=BaselineConfig)
    predictor: TrainHyper = field(default_factory=TrainHyper)
    detect: DetectConfig = field(default_factory=DetectConfig)
    io: IOConfig = field(default_factory=IOConfig)


_NESTED: Dict[type, Dict[str, type]] = {
    RunConfig: {
        "risk": RiskFieldParams,
        "baselines": BaselineConfig,
        "predictor": TrainHyper,
        "detect": DetectConfig,
        "io": IOConfig,
    },
    BaselineConfig: {"rss": RssParams},
}


def _typed(value: Any, kind: Any) -> bool:
    """Whether a JSON value has a field's type: an int field takes an
    int (not a bool), a float field any number, a mapping an object of
    such values, and a union any of its members."""
    args = typing.get_args(kind)
    if typing.get_origin(kind) is Union:
        return any(_typed(value, arg) for arg in args)
    if typing.get_origin(kind) is dict:
        return isinstance(value, dict) and all(
            _typed(v, args[1]) for v in value.values())
    return type(value) in ((int, float) if kind is float else (kind,))


def _build(cls: type, data: Any, path: str) -> Any:
    if not isinstance(data, dict):
        raise BadConfig(f"config section {path or 'root'} must be an object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        where = f" in {path}" if path else ""
        raise BadConfig(f"unknown config keys{where}: {', '.join(unknown)}")
    nested = _NESTED.get(cls, {})
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        child = f"{path}.{key}" if path else key
        if key in nested:
            kwargs[key] = _build(nested[key], value, child)
        elif not _typed(value, types[key]):
            raise BadConfig(f"config key {child} has the wrong type: "
                            f"{value!r}")
        elif isinstance(value, float) and math.isnan(value):
            # NaN passes every ordered range check, so refuse it here
            raise BadConfig(f"config key {child} is NaN")
        else:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise BadConfig(f"bad config value near {path or 'root'}: {exc}")


def config_from_dict(data: Any) -> RunConfig:
    """A RunConfig from parsed JSON; a root that is not an object is
    refused."""
    return _build(RunConfig, data, "")


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise BadConfig(f"cannot read config {path}: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise BadConfig(f"config {path} is not valid JSON: {exc}")
    return config_from_dict(data)


def config_to_dict(cfg: RunConfig) -> Dict[str, Any]:
    """Plain-dict form of the effective configuration, echoed into
    output sidecars."""
    return dataclasses.asdict(cfg)


def _coerce(current: Any, raw: str, path: str) -> Any:
    if isinstance(current, bool):
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        want = "a boolean"
    elif isinstance(current, int):
        try:
            return int(raw)
        except ValueError:
            want = "an integer"
    elif path in ("detect.field", "detect.nc"):
        # number-or-preset union: numeric text means newtons
        try:
            return float(raw)
        except ValueError:
            return raw
    elif isinstance(current, float):
        try:
            return float(raw)
        except ValueError:
            want = "a number"
    elif isinstance(current, dict):
        try:
            parsed = json.loads(raw)
        except (json.JSONDecodeError, RecursionError):
            parsed = None
        if isinstance(parsed, dict):
            return parsed
        want = "a JSON object"
    elif isinstance(current, str):
        return raw
    else:
        try:
            return float(raw)
        except ValueError:
            return raw
    # a --set value can be any length: echo a bounded repr of it
    raise BadConfig(f"{path} expects {want}, got {reprlib.repr(raw)}")


def apply_overrides(
    cfg: RunConfig, overrides: Sequence[Tuple[str, str]]
) -> RunConfig:
    """Apply dotted-path key=value overrides on top of a config.

    Values are coerced to the type of the field they replace; the
    rebuilt config re-runs all section validation.
    """
    data = config_to_dict(cfg)
    for path, raw in overrides:
        parts = path.split(".")
        node: Any = data
        for i, part in enumerate(parts[:-1]):
            if not isinstance(node, dict) or part not in node:
                raise BadConfig(f"unknown config key {reprlib.repr(path)}")
            node = node[part]
        leaf = parts[-1]
        if not isinstance(node, dict) or leaf not in node:
            raise BadConfig(f"unknown config key {reprlib.repr(path)}")
        node[leaf] = _coerce(node[leaf], raw, path)
    return config_from_dict(data)


def parse_override(text: str) -> Tuple[str, str]:
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise BadConfig(f"override {reprlib.repr(text)} must look like "
                        "section.key=value")
    return key.strip(), value
