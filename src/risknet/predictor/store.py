"""Model serialization: JSON manifest plus raw float32 parameter payload."""

import dataclasses
import itertools
import math
import os
from typing import Tuple

import numpy as np

from ..artifacts import F32, read_f32, read_json, write_f32, write_json
from ..errors import ModelFormatError
from .model import (
    DecoderParams,
    GraphCellParams,
    assemble_model,
    parameter_items,
    parameter_shapes,
)
from .train import TrainHyper

FORMAT_NAME = "risknet-model"
FORMAT_VERSION = 2


def save_model(
    base_path: str,
    cell: GraphCellParams,
    dec: DecoderParams,
    hyper: TrainHyper,
) -> Tuple[str, str]:
    """Write ``base_path``.json and ``base_path``.f32.

    The manifest records hyperparameters and the name and shape of every
    parameter; the payload holds the parameters flattened in manifest
    order.  A parameter beyond the float32 range is NumericError, and
    neither file is written.  Returns (manifest_path, payload_path).
    """
    items = parameter_items(cell, dec)
    payload_path = base_path + ".f32"
    manifest_path = base_path + ".json"
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "dtype": F32,
        "hyper": dataclasses.asdict(hyper),
        "params": [
            {"name": name, "shape": list(t.data.shape)} for name, t in items
        ],
        "payload": os.path.basename(payload_path),
    }
    flat = np.concatenate([t.data.ravel() for _, t in items])
    write_f32(payload_path, flat, "model parameter")
    write_json(manifest_path, manifest)
    return manifest_path, payload_path


def load_model(
    manifest_path: str,
) -> Tuple[GraphCellParams, DecoderParams, TrainHyper]:
    """Load a model saved by save_model, rejecting format, version,
    name, shape, and size mismatches."""
    manifest = read_json(manifest_path, FORMAT_NAME, "model manifest",
                         ModelFormatError)
    if manifest.get("version") != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported model version {manifest.get('version')!r}; "
            f"expected {FORMAT_VERSION}"
        )
    if manifest.get("dtype") != F32:
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

    # every check reads only the manifest and the payload's length, so a
    # manifest that declares a huge model is refused before any allocation
    declared = manifest.get("params")
    if not isinstance(declared, list):
        raise ModelFormatError("manifest parameter list malformed")
    shapes = list(itertools.islice(parameter_shapes(hyper), len(declared) + 1))
    if len(shapes) != len(declared):
        raise ModelFormatError("manifest parameter list malformed")
    for entry, (name, shape) in zip(declared, shapes):
        if not isinstance(entry, dict):
            raise ModelFormatError(f"parameter entry for {name} malformed")
        if entry.get("name") != name:
            raise ModelFormatError(
                f"parameter order mismatch: {entry.get('name')!r} != {name!r}"
            )
        if entry.get("shape") != list(shape):
            raise ModelFormatError(
                f"shape mismatch for {name}: manifest {entry.get('shape')} "
                f"!= expected {list(shape)}"
            )

    payload = manifest.get("payload")
    if not isinstance(payload, str):
        raise ModelFormatError("manifest names no payload file")
    payload_path = os.path.join(os.path.dirname(manifest_path), payload)
    sizes = [math.prod(shape) for _, shape in shapes]
    values = read_f32(payload_path, sum(sizes), "model payload",
                      ModelFormatError)
    if not np.isfinite(values).all():
        raise ModelFormatError(
            f"model payload {payload_path} holds a non-finite parameter")
    chunks = np.split(values, list(itertools.accumulate(sizes))[:-1])
    cell, dec = assemble_model(hyper, (
        chunk.astype(float).reshape(shape)
        for chunk, (_, shape) in zip(chunks, shapes)))
    return cell, dec, hyper
