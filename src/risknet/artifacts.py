"""Every artifact a command writes, to bytes and back.  A CSV cell is a
value's ``repr``, empty for None, or text as ``csv.writer`` quotes it; a
JSON document is indented with sorted keys; a float32 payload is raw
little-endian values.  A file that cannot be written is BadConfig, and one
that is not the artifact it claims to be the caller's error, naming it."""

import csv
import io
import itertools
import json
from typing import Sequence, Type

import numpy as np

from .errors import BadConfig, NumericError

F32 = "<f4"  # little-endian float32


def _create(path: str, mode: str, **kwargs):
    """``open`` for writing; a missing directory, a directory or a refused
    permission is BadConfig naming the file."""
    try:
        return open(path, mode, **kwargs)
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        raise BadConfig(f"cannot write {exc.filename}: {exc.strerror}")


def render(values) -> list:
    """Each value's CSV cell, as nested lists in the shape of ``values``:
    its ``repr``, computed once per distinct value (float64 keyed on its
    bits, so -0.0 keeps its sign), or empty for None (in a float column)."""
    values = np.asarray(values)
    empty = np.equal(values, None) if values.dtype == object else None
    if empty is not None:
        values = np.where(empty, 0.0, values).astype(float)
    keys = values.view(np.int64) if values.dtype == np.float64 else values
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    text = np.array(list(map(repr, values.flat[first].tolist())),
                    dtype=object)[inverse.reshape(values.shape)]
    if empty is not None:
        text[empty] = ""
    return text.tolist()


def quote(text: str) -> str:
    """The CSV cell of a text value, as ``csv.writer`` quotes it."""
    buf = io.StringIO()
    # beside a second field, as in a row: a lone "" would be quoted
    csv.writer(buf).writerow((text, ""))
    return buf.getvalue()[:-3]  # less ',\r\n'


def write_csv(path: str, header: Sequence[str], columns: Sequence[list],
              end: str = "\r\n") -> None:
    """Write columns of cells under ``header`` (none if empty), ending each
    line with ``end``: ``csv.writer``'s bytes for rows of two cells or more."""
    rows = map(",".join, zip(*columns))
    with _create(path, "w", newline="") as fh:
        if header:
            fh.write(",".join(map(quote, header)) + end)
        # in blocks of rows, so a long table is never one string
        for block in iter(lambda: list(itertools.islice(rows, 4096)), []):
            fh.write(end.join(block) + end)


def write_json(path: str, document: dict) -> None:
    with _create(path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str, fmt: str, what: str, error: Type[Exception]) -> dict:
    """The UTF-8 JSON object in ``path`` whose "format" is ``fmt``."""
    try:
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError,
            RecursionError) as exc:
        raise error(f"unreadable {what} {path}: {exc}") from exc
    if not (isinstance(document, dict) and document.get("format") == fmt):
        raise error(f"not a {what}: {path}")
    return document


def write_f32(path: str, values: np.ndarray, what: str) -> None:
    """Refuses a value beyond the float32 range before opening ``path``."""
    with np.errstate(over="ignore"):
        payload = values.astype(F32)
    if np.isinf(payload).any():
        raise NumericError(f"{what} beyond the float32 range: "
                           f"{float(np.abs(values).max())!r}")
    with _create(path, "wb") as fh:
        fh.write(payload.tobytes())


def read_f32(path: str, count: int, what: str, error: Type[Exception]):
    """The ``count`` float32 values in ``path``, read-only."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise error(f"unreadable {what} {path}: {exc}") from exc
    if len(raw) != 4 * count:
        raise error(f"{what} {path} holds {len(raw)} bytes, expected "
                    f"{4 * count}")
    return np.frombuffer(raw, F32)
