"""Model serialization: JSON manifest plus raw float32 parameter payload."""

import dataclasses
import json
import math
import os
from typing import Tuple

import numpy as np

from ..errors import ModelFormatError
from .model import DecoderParams, GraphCellParams, parameter_items
from .train import TrainHyper

FORMAT_NAME = "risknet-model"
FORMAT_VERSION = 2
DTYPE = "<f4"  # little-endian float32


def save_model(
    base_path: str,
    cell: GraphCellParams,
    dec: DecoderParams,
    hyper: TrainHyper,
) -> Tuple[str, str]:
    """Write ``base_path``.json and ``base_path``.f32.

    The manifest records hyperparameters and the name and shape of every
    parameter; the payload holds the parameters flattened in manifest
    order.  Returns (manifest_path, payload_path).
    """
    items = parameter_items(cell, dec)
    payload_path = base_path + ".f32"
    manifest_path = base_path + ".json"
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "dtype": DTYPE,
        "hyper": dataclasses.asdict(hyper),
        "params": [
            {"name": name, "shape": list(t.data.shape)} for name, t in items
        ],
        "payload": os.path.basename(payload_path),
    }
    flat = np.concatenate([
        np.ascontiguousarray(t.data, dtype=np.float32).ravel()
        for _, t in items
    ])
    with open(payload_path, "wb") as fh:
        fh.write(flat.astype(DTYPE).tobytes())
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path, payload_path


def load_model(
    manifest_path: str,
) -> Tuple[GraphCellParams, DecoderParams, TrainHyper]:
    """Load a model saved by save_model, rejecting format, version,
    name, shape, and size mismatches."""
    from .train import init_model

    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"unreadable model manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ModelFormatError("model manifest is not a JSON object")
    if manifest.get("format") != FORMAT_NAME:
        raise ModelFormatError(
            f"not a model manifest: format={manifest.get('format')!r}"
        )
    if manifest.get("version") != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model version {manifest.get('version')!r}; "
            f"expected {FORMAT_VERSION}"
        )
    if manifest.get("dtype") != DTYPE:
        raise ModelFormatError(f"unsupported dtype {manifest.get('dtype')!r}")

    hyper_dict = manifest.get("hyper")
    fields = dataclasses.fields(TrainHyper)
    if (not isinstance(hyper_dict, dict)
            or set(hyper_dict) != {f.name for f in fields}):
        raise ModelFormatError("manifest hyperparameters malformed")
    for f in fields:
        value = hyper_dict[f.name]
        if type(value) not in (int, f.type) or not abs(value) < math.inf:
            raise ModelFormatError(f"hyperparameter {f.name} must be a "
                                   f"finite {f.type.__name__}: {value!r}")
    hyper = TrainHyper(**hyper_dict)

    cell, dec = init_model(hyper)
    items = parameter_items(cell, dec)
    declared = manifest.get("params")
    if not isinstance(declared, list) or len(declared) != len(items):
        raise ModelFormatError("manifest parameter list malformed")
    for entry, (name, t) in zip(declared, items):
        if not isinstance(entry, dict):
            raise ModelFormatError(f"parameter entry for {name} malformed")
        if entry.get("name") != name:
            raise ModelFormatError(
                f"parameter order mismatch: {entry.get('name')!r} != {name!r}"
            )
        if entry.get("shape") != list(t.data.shape):
            raise ModelFormatError(
                f"shape mismatch for {name}: manifest {entry.get('shape')} "
                f"!= expected {list(t.data.shape)}"
            )

    payload = manifest.get("payload")
    if not isinstance(payload, str):
        raise ModelFormatError("manifest names no payload file")
    payload_path = os.path.join(os.path.dirname(manifest_path), payload)
    try:
        with open(payload_path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ModelFormatError(f"unreadable model payload: {exc}") from exc
    total = sum(t.data.size for _, t in items)
    if len(raw) != 4 * total:
        raise ModelFormatError(
            f"payload holds {len(raw)} bytes, expected {4 * total}")
    values = np.frombuffer(raw, dtype=DTYPE)
    if not np.isfinite(values).all():
        raise ModelFormatError("payload holds a non-finite parameter")
    cursor = 0
    for _, t in items:
        n = t.data.size
        t.data = values[cursor:cursor + n].astype(float).reshape(t.data.shape)
        cursor += n
    return cell, dec, hyper
