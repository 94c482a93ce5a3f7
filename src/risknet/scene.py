"""Traffic scenario data model.

Holds agent states on a fixed frame grid, ingests and exports track CSVs,
builds per-frame interaction graphs, and generates closed-form synthetic
scenarios used for evaluation.

Coordinate convention: x is longitudinal, y is lateral, both in meters.
Velocities are m/s, accelerations m/s^2, masses kg.
"""

import bisect
import contextlib
import csv
import io
import itertools
import json
import math
import os
import stat
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BadConfig,
    EgoAbsent,
    MissingColumn,
    NonContiguousTrack,
    NonFinite,
    NonIntegral,
    NonPositive,
)

# Speeds below this are treated as standing still when angles are needed.
EPS_SPEED = 0.1  # m/s

DEFAULT_LANE_WIDTH = 3.5  # m

# Distinct rows per in_radius pass of Scenario.stars: its working arrays
# stay (block, frame size) however many rows are asked for.
STAR_BLOCK = 4096

# Fallback masses by agent kind, used when the log carries no mass column.
DEFAULT_MASSES: Dict[str, float] = {
    "pedestrian": 75.0,
    "bicycle": 90.0,
    "car": 1500.0,
    "truck": 15000.0,
    "other": 1500.0,
}

KIND_CATEGORIES = ("pedestrian", "bicycle", "car", "truck", "other")

_KIND_SYNONYMS = {
    "pedestrian": "pedestrian",
    "person": "pedestrian",
    "bicycle": "bicycle",
    "bike": "bicycle",
    "cyclist": "bicycle",
    "car": "car",
    "truck": "truck",
    "lorry": "truck",
    "truck_bus": "truck",
}


@dataclass(frozen=True)
class AgentKind:
    """Category of a traffic participant.

    ``category`` is one of KIND_CATEGORIES; ``label`` preserves the raw
    source string so unknown classes survive a load/export round trip.
    """

    category: str
    label: str

    def __post_init__(self):
        if self.category not in KIND_CATEGORIES:
            raise BadConfig(f"unknown agent kind category: {self.category!r}")

    @classmethod
    def of(cls, raw: str) -> "AgentKind":
        key = raw.strip().lower()
        category = _KIND_SYNONYMS.get(key)
        if category is None:
            return cls("other", raw.strip())
        return cls(category, category)


PEDESTRIAN = AgentKind("pedestrian", "pedestrian")
BICYCLE = AgentKind("bicycle", "bicycle")
CAR = AgentKind("car", "car")
TRUCK = AgentKind("truck", "truck")

CAR_EXTENT = (4.5, 2.0)  # length, width in m
TRUCK_EXTENT = (12.0, 2.5)


@dataclass(slots=True)
class AgentState:
    """One agent at one frame."""

    agent_id: int
    frame: int
    position: np.ndarray  # (2,) m
    velocity: np.ndarray  # (2,) m/s
    acceleration: np.ndarray  # (2,) m/s^2
    extent: Tuple[float, float]  # (length, width) m
    mass: float  # kg
    kind: AgentKind

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.velocity = np.asarray(self.velocity, dtype=float)
        self.acceleration = np.asarray(self.acceleration, dtype=float)


@dataclass
class AgentInfo:
    """Per-agent constants plus the frame interval the agent covers."""

    kind: AgentKind
    mass: float
    extent: Tuple[float, float]
    first_frame: int
    last_frame: int


@dataclass
class Scenario:
    """A recorded or generated traffic scene on a uniform frame grid,
    stored as one table of rows sorted by (frame, id).

    Construction refuses an agent twice in a frame or a track with a
    frame gap, and derives ``agents``, ``bounds`` and each frame's rows.
    A row's AgentState is built on first use and kept, so every lookup
    hands out the same object; its position, velocity and acceleration
    are views into ``motion``.
    """

    frame_rate: float  # Hz
    frame: np.ndarray  # (n,) int64
    agent_id: np.ndarray  # (n,) int64
    motion: np.ndarray  # (n, 6) m, m/s, m/s^2
    extent: np.ndarray  # (n, 2) length, width in m
    mass: np.ndarray  # (n,) kg
    kind: np.ndarray  # (n,) index into kinds
    kinds: Sequence[AgentKind]
    source: str
    # Shift added to source coordinates at load time; subtracted on export.
    offset: np.ndarray = field(default_factory=lambda: np.zeros(2))
    agents: Dict[int, AgentInfo] = field(init=False)
    bounds: Tuple[float, float, float, float] = field(init=False)
    _rows: Dict[int, Tuple[int, int]] = field(init=False, repr=False)
    _ids: Dict[int, List[int]] = field(
        init=False, repr=False, default_factory=dict)
    _lists: Dict[int, List[AgentState]] = field(
        init=False, repr=False, default_factory=dict)
    _objs: List[Optional[AgentState]] = field(init=False, repr=False)

    def __post_init__(self):
        self.offset = np.asarray(self.offset, dtype=float)
        frame, ids = self.frame, self.agent_id
        new_frame = np.concatenate(([True], frame[1:] != frame[:-1]))
        dup = np.flatnonzero(~new_frame[1:] & (ids[1:] == ids[:-1]))
        if dup.size:
            k = dup[0]
            raise BadConfig(
                f"agent {ids[k]} appears twice at frame {frame[k]}")

        by_agent = np.argsort(ids, kind="stable")  # (id, frame) order
        f_agent, i_agent = frame[by_agent], ids[by_agent]
        new_agent = np.concatenate(([True], i_agent[1:] != i_agent[:-1]))
        step = f_agent[1:] != f_agent[:-1] + 1
        gap = np.flatnonzero(~new_agent[1:] & step)
        if gap.size:
            k = gap[0]
            raise NonContiguousTrack(int(i_agent[k]), int(f_agent[k]) + 1)

        heads = by_agent[new_agent]
        tails = by_agent[np.concatenate((new_agent[1:], [True]))]
        self.agents = {
            a: AgentInfo(self.kinds[k], m, tuple(e), first, last)
            for a, k, m, e, first, last in zip(
                ids[heads].tolist(), self.kind[heads].tolist(),
                self.mass[heads].tolist(), self.extent[heads].tolist(),
                frame[heads].tolist(), frame[tails].tolist())
        }
        pos = self.motion[:, 0:2]
        self.bounds = (*pos.min(axis=0), *pos.max(axis=0))
        starts = np.flatnonzero(new_frame).tolist()
        self._rows = dict(zip(frame[starts].tolist(),
                              zip(starts, starts[1:] + [frame.size])))
        self._objs = [None] * frame.size

    @property
    def dt(self) -> float:
        return 1.0 / self.frame_rate

    @property
    def frames(self) -> Dict[int, List[AgentState]]:
        """Every frame's states, ascending by frame (builds them all)."""
        return {f: self.states_at(f) for f in self._rows}

    @property
    def frame_list(self) -> List[int]:
        return list(self._rows)

    def span(self) -> Tuple[int, int]:
        return int(self.frame[0]), int(self.frame[-1])

    def frame_rows(self, frame: int) -> Tuple[int, int]:
        """The frame's table rows as a half-open range; (0, 0) off the
        table."""
        return self._rows.get(frame, (0, 0))

    def frame_ids(self, frame: int) -> List[int]:
        """The frame's agent ids, ascending (the list is kept)."""
        ids = self._ids.get(frame)
        if ids is None:
            ids = self._ids[frame] = self.agent_id[
                slice(*self.frame_rows(frame))].tolist()
        return ids

    def row(self, agent_id: int, frame: int) -> int:
        """Table row of the agent at the frame; EgoAbsent if it has none."""
        ids = self.frame_ids(frame)
        k = bisect.bisect_left(ids, agent_id)
        if k == len(ids) or ids[k] != agent_id:
            raise EgoAbsent(agent_id, frame)
        return self.frame_rows(frame)[0] + k

    def row_state(self, i: int) -> AgentState:
        """The AgentState of table row i, built on first use and kept."""
        state = self._objs[i]
        if state is None:
            m = self.motion[i]
            state = self._objs[i] = AgentState(
                int(self.agent_id[i]), int(self.frame[i]), m[0:2], m[2:4],
                m[4:6], tuple(self.extent[i].tolist()), float(self.mass[i]),
                self.kinds[self.kind[i]])
        return state

    def states_at(self, frame: int) -> List[AgentState]:
        """The frame's states ascending by id; [] off the table."""
        states = self._lists.get(frame)
        if states is None:
            rows = self._rows.get(frame)
            if rows is None:
                return []
            states = self._lists[frame] = list(
                map(self.row_state, range(*rows)))
        return states

    def padded_rows(self, ego_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """The ego's table row at each of its F frames, (F,), and the
        other rows of those frames, (F, N >= 1), as ``others_at``."""
        info = self.agents.get(ego_id)
        if info is None:
            raise BadConfig(f"ego {ego_id} not in scenario")
        # a track has no gaps, so the ego's frames are one run of rows
        lo = self._rows[info.first_frame][0]
        hi = self._rows[info.last_frame][1]
        ego = np.flatnonzero(self.agent_id[lo:hi] == ego_id) + lo
        return ego, self.others_at(ego)

    def others_at(self, rows: np.ndarray) -> np.ndarray:
        """The other rows of each given row's frame, (k, N >= 1),
        ascending by id and padded after them with the row itself."""
        frame = self.frame[rows]
        lo = np.searchsorted(self.frame, frame)[:, None]
        hi = np.searchsorted(self.frame, frame, side="right")[:, None]
        cols = lo + np.arange(max(1, (hi - lo).max(initial=1) - 1))
        cols += cols >= rows[:, None]  # step over the row itself
        return np.where(cols < hi, cols, rows[:, None])

    def stars(self, rows: np.ndarray, radius: float
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The interaction star of each distinct table row in ``rows``:
        the row, then every other row of its frame ``in_radius`` of it,
        ascending by id.  Returns the distinct rows ``own``, ascending,
        with ``ptr`` and ``members``: ``own[i]``'s star is
        ``members[ptr[i]:ptr[i + 1]]``."""
        own = np.unique(rows)
        xy = self.motion[:, 0:2]
        ptr = np.zeros(own.size + 1, dtype=np.intp)
        members = [np.zeros(0, dtype=np.intp)]
        for lo in range(0, own.size, STAR_BLOCK):
            block = own[lo:lo + STAR_BLOCK]
            # each row, then the other rows of its frame
            cols = np.concatenate((block[:, None], self.others_at(block)),
                                  axis=1)
            keep = (in_radius(xy[cols], xy[block, None], radius)
                    & (cols != block[:, None]))
            keep[:, 0] = True
            members.append(cols[keep])
            ptr[lo + 1:lo + 1 + block.size] = keep.sum(axis=1)
        return own, np.cumsum(ptr), np.concatenate(members)

    def state(self, agent_id: int, frame: int) -> AgentState:
        return self.row_state(self.row(agent_id, frame))

    def has_state(self, agent_id: int, frame: int) -> bool:
        # exact: construction refuses a track with a frame gap
        info = self.agents.get(agent_id)
        return (info is not None
                and info.first_frame <= frame <= info.last_frame)


def scenario_from_states(
    states: Iterable[AgentState],
    frame_rate: float,
    source: str = "memory",
) -> Scenario:
    """Assemble a Scenario whose table rows are the given states."""
    states = list(states)
    if not states:
        raise BadConfig("scenario has no states")
    n = len(states)
    frame = np.fromiter((s.frame for s in states), np.int64, n)
    ids = np.fromiter((s.agent_id for s in states), np.int64, n)
    code_of: Dict[AgentKind, int] = {}
    kind = np.fromiter((code_of.setdefault(s.kind, len(code_of))
                        for s in states), np.intp, n)
    motion = np.array([(s.position, s.velocity, s.acceleration)
                       for s in states], dtype=float).reshape(n, 6)
    extent = np.array([s.extent for s in states], dtype=float)
    mass = np.fromiter((s.mass for s in states), float, n)
    order = np.lexsort((ids, frame))
    return Scenario(
        frame_rate, frame[order], ids[order], motion[order], extent[order],
        mass[order], kind[order], tuple(code_of), source)


# ==================== CSV ingestion / export ====================

REQUIRED_COLUMNS = ("frame", "id", "x", "y", "xVelocity", "yVelocity",
                    "width", "height")
OPTIONAL_COLUMNS = ("xAcceleration", "yAcceleration", "class", "mass")

EXPORT_HEADER = [
    "frame", "id", "x", "y", "xVelocity", "yVelocity",
    "xAcceleration", "yAcceleration", "width", "height", "class", "mass",
]

# Largest magnitude at which every integer is exactly a float64.
MAX_INTEGRAL = 2.0 ** 53


def _float_or_nan(cell: Optional[str]) -> float:
    try:
        return float(cell)
    except (TypeError, ValueError):
        return math.nan


def _floats(cells: Sequence[Optional[str]]) -> np.ndarray:
    """Parse CSV cells with Python's ``float``; a missing or unparseable
    cell reads as nan."""
    try:
        return np.fromiter(map(float, cells), float, len(cells))
    except (TypeError, ValueError):
        return np.fromiter(map(_float_or_nan, cells), float, len(cells))


# Parsed track columns: numeric columns by canonical name (a blank mass
# cell reads as nan), each row's code into the distinct class cells, and
# those cells in order of first appearance (None when there is no class
# column).
Columns = Tuple[Dict[str, np.ndarray], np.ndarray, List[Optional[str]]]

# np.loadtxt strips \x1c-\x1f around a number as whitespace ("1\x1c" reads
# as 1.0) where float() refuses the cell, and it does not unquote.
_LOADTXT_TRAPS = ('"', "\x1c", "\x1d", "\x1e", "\x1f")


def _read(path: str) -> bytes:
    """The file's bytes, read once."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise BadConfig(f"cannot read track file {path}: {exc}")


def _decode(path: str, raw: bytes) -> Tuple[List[str], str]:
    """The header cells and the text of the data rows, decoded from
    ``raw`` through a TextIOWrapper (io.StringIO would hold a buffer of 4
    bytes a character)."""
    try:
        with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8",
                              newline="") as fh:
            return next(csv.reader(fh), []), fh.read()
    except (UnicodeDecodeError, csv.Error) as exc:
        raise BadConfig(f"cannot read track file {path}: {exc}")


def _parse_text(body: str, resolved: Mapping[str, int],
                numeric: Sequence[str]) -> Optional[Columns]:
    """Columns through one ``np.loadtxt`` call, or None when the data
    text does not qualify or loadtxt refuses it.

    The text qualifies when it holds none of ``_LOADTXT_TRAPS``; loadtxt
    then splits rows and cells as csv.reader does and accepts only cells
    that Python's float reads the same.  A non-finite value also returns
    None, so that the csv path names the first bad row.
    """
    if (not body or body.isspace()
            or any(c in body for c in _LOADTXT_TRAPS)):
        return None
    usecols = [resolved[name] for name in numeric]
    labels: Dict[str, int] = {}
    converters = None
    if "class" in resolved:
        if resolved["class"] in usecols:  # one column read two ways
            return None
        usecols.append(resolved["class"])
        converters = {resolved["class"]:
                      lambda cell: labels.setdefault(cell, len(labels))}
    try:
        # encoding=None: before NumPy 2 the default hands converters bytes
        table = np.loadtxt(body.split("\n"), delimiter=",", comments=None,
                           usecols=usecols, converters=converters, ndmin=2,
                           encoding=None)
    except ValueError:
        return None
    if not np.isfinite(table).all():
        return None
    values = dict(zip(numeric, table.T))
    if converters is None:
        return values, np.zeros(len(table), np.intp), [None]
    return values, table[:, -1].astype(np.intp), list(labels)


def _parse_cells(path: str, rows: Iterable[List[str]], header: List[str],
                 resolved: Mapping[str, int],
                 numeric: Sequence[str]) -> Columns:
    """Columns from csv.reader rows, each cell parsed with Python's float;
    the first data row with a missing, unparseable or non-finite cell
    raises NonFinite (a blank mass cell is not one)."""
    lengths: List[int] = []

    def counted(row: List[str]) -> List[str]:
        lengths.append(len(row))
        return row

    # The cells of every row in one list; the row lists are not kept.
    flat = list(itertools.chain.from_iterable(map(counted, rows)))
    sizes = np.array(lengths, dtype=np.intp)
    sizes = sizes[sizes > 0]  # a blank line carries no row
    n = sizes.size
    if not n:
        raise BadConfig(f"no data rows in {path}")

    bad = sizes < max(resolved.values()) + 1
    width = max(int(sizes.max()), len(header))
    if sizes.min() < width:
        # Pad short rows with None so column i is the slice flat[i::width].
        ends = np.cumsum(sizes).tolist()
        flat = list(itertools.chain.from_iterable(
            flat[end - size:end] + [None] * (width - size)
            for end, size in zip(ends, sizes.tolist())
        ))
    columns = {name: flat[i::width] for name, i in resolved.items()}
    del flat

    floats = [name for name in numeric if name != "mass"]
    table = _floats(list(itertools.chain.from_iterable(
        columns[name] for name in floats))).reshape(len(floats), n)
    bad |= ~np.isfinite(table).all(axis=0)
    values = dict(zip(floats, table))
    if "mass" in resolved:
        cells = columns["mass"]
        mass = values["mass"] = _floats(cells)
        unset = ~np.isfinite(mass)
        if unset.any():
            blank = np.fromiter((not (c or "").strip() for c in cells),
                                bool, n)
            bad |= unset & ~blank  # a blank cell stays nan

    first_bad = np.flatnonzero(bad)
    if first_bad.size:
        raise NonFinite(int(first_bad[0]))
    labels = columns.get("class", [None] * n)
    code_of = {raw: k for k, raw in enumerate(dict.fromkeys(labels))}
    kind = np.fromiter(map(code_of.__getitem__, labels), np.intp, n)
    return values, kind, list(code_of)


def _resolve(header: Sequence[str],
             remap: Mapping[str, str]) -> Dict[str, int]:
    """Each canonical column's index in the header; a repeated name
    resolves to its last column."""
    index = {name: i for i, name in enumerate(header)}
    resolved: Dict[str, int] = {}
    for name in REQUIRED_COLUMNS + OPTIONAL_COLUMNS:
        actual = remap.get(name, name)
        if actual in index:
            resolved[name] = index[actual]
        elif name in REQUIRED_COLUMNS:
            raise MissingColumn(actual)
    return resolved


def _parse(path: str, header: List[str], body: str,
           resolved: Mapping[str, int]) -> Columns:
    """Columns of the data text: loadtxt when it can, else csv.reader."""
    numeric = [name for name in resolved if name != "class"]
    columns = _parse_text(body, resolved, numeric)
    if columns is None:
        rows = csv.reader(io.StringIO(body, newline=""))
        try:
            columns = _parse_cells(path, rows, header, resolved, numeric)
        except csv.Error as exc:  # e.g. a cell over csv's field size limit
            raise BadConfig(f"cannot read track file {path}: {exc}")
    return columns


# ---- ingest cache ----
#
# A track file of at least _CACHE_FLOOR bytes keeps its parse (the
# Columns) in a hidden sidecar beside it, ".<name>.risknet.npy": a fixed
# sequence of np.save arrays, namely the entry's key as JSON bytes, the
# kind codes, and one float64 array per numeric column in resolved
# order.  The key holds the format tag, the SHA-256 of the file's bytes,
# the resolved column mapping, the header cells (so a hit never decodes
# the text) and the class labels.  Below the floor a parse costs less
# than the cache.

_CACHE_FLOOR = 1 << 20  # bytes
# Bump on any change to the layout or to what the parse returns.
_CACHE_FORMAT = "risknet-ingest-1"


def _sidecar(path: str) -> str:
    head, name = os.path.split(path)
    return os.path.join(head, f".{name}.risknet.npy")


def _next_array(fh, end: int) -> np.ndarray:
    """The next np.save array of an open sidecar; ValueError when it is
    not format 1.0 or claims more bytes than remain before ``end``."""
    start = fh.tell()
    if np.lib.format.read_magic(fh) != (1, 0):
        raise ValueError("not an npy 1.0 array")
    shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
    if math.prod(shape) * dtype.itemsize > end - fh.tell():
        raise ValueError("array runs past the end of the file")
    fh.seek(start)
    return np.load(fh, allow_pickle=False)


def _read_entry(path: str, digest: str):
    """The sidecar's (header, resolved, columns) when it stores a parse of
    the bytes with this digest; None when it is absent, unreadable,
    corrupt or stale."""
    try:
        with open(_sidecar(path), "rb") as fh:
            end = os.fstat(fh.fileno()).st_size
            key = json.loads(_next_array(fh, end).tobytes())
            if (not isinstance(key, dict)
                    or key.get("format") != _CACHE_FORMAT
                    or key.get("sha256") != digest):
                return None
            header, labels = key["header"], key["labels"]
            resolved = {name: i for name, i in key["resolved"]}
            kind = _next_array(fh, end)
            values = {name: _next_array(fh, end)
                      for name in resolved if name != "class"}
            if fh.read(1) or not (
                    kind.dtype == np.int64 and kind.ndim == 1 and kind.size
                    and 0 <= kind.min() and kind.max() < len(labels)
                    and all(v.dtype == np.float64 and v.shape == kind.shape
                            for v in values.values())):
                return None
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return header, resolved, (values, kind.astype(np.intp), labels)


def _write_entry(path: str, digest: str, header: List[str],
                 resolved: Mapping[str, int], columns: Columns) -> None:
    """Store the parse in the sidecar through a temp file in the same
    directory and os.replace; a refused write leaves neither file."""
    values, kind, labels = columns
    key = json.dumps({"format": _CACHE_FORMAT, "sha256": digest,
                      "header": header, "resolved": list(resolved.items()),
                      "labels": labels}).encode()
    sidecar = _sidecar(path)
    try:
        fd, tmp = tempfile.mkstemp(
            prefix=os.path.basename(sidecar) + ".", suffix=".tmp",
            dir=os.path.dirname(sidecar) or os.curdir)
    except OSError:  # an unwritable directory turns the cache off
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, np.frombuffer(key, np.uint8))
            np.save(fh, kind.astype(np.int64))
            for name in resolved:
                if name != "class":
                    np.save(fh, values[name])
        # whoever may read the CSV may read its parse
        os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode) & 0o666)
        os.replace(tmp, sidecar)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _ingest(path: str, remap: Mapping[str, str]) -> Columns:
    """The parsed columns of the file, read once: from the sidecar when
    it stores these bytes under this column mapping, else parsed and
    stored there."""
    raw = _read(path)
    digest = entry = None
    if len(raw) >= _CACHE_FLOOR:
        import hashlib  # here, so that only a cached file loads OpenSSL

        digest = hashlib.sha256(raw).hexdigest()
        entry = _read_entry(path, digest)
    if entry is not None:
        header, resolved, columns = entry
        if _resolve(header, remap) == resolved:
            return columns
    header, body = _decode(path, raw)
    del raw  # parse the hashed bytes, holding only their text
    resolved = _resolve(header, remap)
    columns = _parse(path, header, body, resolved)
    del body
    if digest is not None:
        _write_entry(path, digest, header, resolved, columns)
    return columns


def load_tracks(
    path: str,
    frame_rate: float = 25.0,
    schema: Optional[Mapping[str, str]] = None,
    kind_defaults: Optional[Mapping[str, float]] = None,
) -> Scenario:
    """Load a UTF-8 track CSV into a Scenario.

    The canonical schema expects columns frame, id, x, y, xVelocity,
    yVelocity, width, height, with optional xAcceleration, yAcceleration,
    class, and mass.  ``schema`` remaps canonical names to the actual
    column names of the file.  The ``width`` column is the bounding-box
    extent along x (vehicle length) and ``height`` the extent along y.

    Missing accelerations are zero-filled, missing classes default to the
    car kind, and masses fall back to ``kind_defaults`` (keyed by kind
    category).  Positions are shifted so the scenario bounds have a
    nonnegative origin; the shift is remembered and undone on export.

    The file is read once.  A qualifying text is parsed by one
    ``np.loadtxt`` call (``_parse_text``); any other, or one that call
    refuses, goes through csv.reader and Python's float (``_parse_cells``),
    which decides every error.  A file of at least ``_CACHE_FLOOR`` bytes
    keeps that parse in a sidecar beside it and skips it while its bytes
    and column mapping stay the same (``_ingest``); every check below
    runs either way.  The first data row with a missing, unparseable or
    non-finite cell raises NonFinite; after that, the first row whose
    ``frame`` or ``id`` is not an integer (``3.0`` is, ``3.5`` is not;
    magnitudes above 2**53 are refused) raises NonIntegral, then the
    first row whose ``width``, ``height`` or mass (after the kind default
    fills a blank cell) is not positive raises NonPositive, and then the
    first row whose shifted position overflows raises NonFinite.  An
    unreadable or non-UTF-8 file, or one with a cell longer than csv's
    field size limit, is BadConfig.
    """
    masses = dict(DEFAULT_MASSES)
    if kind_defaults:
        masses.update(kind_defaults)
    values, kind, raws = _ingest(path, dict(schema or {}))

    kinds = [AgentKind.of(raw) if raw and raw.strip() else CAR
             for raw in raws]
    default_mass = np.array([masses[k.category] for k in kinds],
                            dtype=float)[kind]
    mass = values.get("mass", default_mass)
    blank = np.isnan(mass)
    if blank.any():
        mass = np.where(blank, default_mass, mass)

    keys = np.column_stack([values["frame"], values["id"]])
    off = np.flatnonzero((keys != np.trunc(keys))
                         | (np.abs(keys) > MAX_INTEGRAL))
    if off.size:
        row, col = divmod(int(off[0]), 2)
        raise NonIntegral(row, ("frame", "id")[col], float(keys[row, col]))
    frame, ids = keys.astype(np.int64).T

    body = {"width": values["width"], "height": values["height"],
            "mass": mass}
    # masks are built only on failure, so a good file allocates nothing
    if min(column.min() for column in body.values()) <= 0.0:
        low = np.logical_or.reduce([c <= 0.0 for c in body.values()])
        row = int(np.argmax(low))
        name = next(k for k, c in body.items() if c[row] <= 0.0)
        raise NonPositive(row, name, float(body[name][row]))

    order = np.lexsort((ids, frame))
    zero = np.zeros(len(order))  # absent accelerations
    motion = np.column_stack([values.get(name, zero) for name in (
        "x", "y", "xVelocity", "yVelocity", "xAcceleration", "yAcceleration",
    )])[order]
    pos = motion[:, 0:2]
    shift = np.array([max(0.0, -pos[:, 0].min()), max(0.0, -pos[:, 1].min())])
    if shift[0] > 0.0 or shift[1] > 0.0:
        with np.errstate(over="ignore"):
            pos += shift
        over = ~np.isfinite(pos).all(axis=1)
        if over.any():
            raise NonFinite(int(order[over].min()))
    extent = np.column_stack([values["width"], values["height"]])[order]
    return Scenario(frame_rate, frame[order], ids[order], motion, extent,
                    mass[order], kind[order], kinds, path, offset=shift)


def _render(column: np.ndarray) -> List[str]:
    """Each value's repr, computed once per distinct value (float64
    values keyed on their bits, so -0.0 keeps its sign)."""
    keys = column.view(np.int64) if column.dtype == np.float64 else column
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    text = np.array(list(map(repr, column[first].tolist())), dtype=object)
    return text[inverse].tolist()


def export_tracks(scenario: Scenario, path: str) -> None:
    """Write the scenario back out in the canonical CSV schema.

    Positions are shifted back by the load-time offset so numeric columns
    of a loaded file are reproduced exactly.  The bytes are csv.writer's
    (floats as their ``repr``), but each numeric column is rendered once
    per distinct value and each class label quoted once.
    """
    labels = []
    for kind in scenario.kinds:
        buf = io.StringIO()
        # beside a second field, as in a row: a lone "" would be quoted
        csv.writer(buf).writerow((kind.label, ""))
        labels.append(buf.getvalue()[:-3])  # less ',\r\n'
    motion = scenario.motion
    columns = [
        *map(_render, (scenario.frame, scenario.agent_id,
                       motion[:, 0] - scenario.offset[0],
                       motion[:, 1] - scenario.offset[1],
                       *motion[:, 2:6].T, *scenario.extent.T)),
        np.array(labels, dtype=object)[scenario.kind].tolist(),
        _render(scenario.mass),
    ]
    rows = map(",".join, zip(*columns))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(EXPORT_HEADER)
        # in blocks of rows, so a long scene is never one string
        for block in iter(lambda: list(itertools.islice(rows, 4096)), []):
            fh.write("\r\n".join(block) + "\r\n")


# ==================== interaction graph ====================

@dataclass(frozen=True)
class InteractionGraph:
    """Star-shaped interaction graph around one ego agent at one frame."""

    ego_id: int
    frame: int
    radius: float
    edges: frozenset  # of (ego_id, other_id) tuples

    def neighbors(self, agent_id: int) -> List[int]:
        """Agents adjacent to ``agent_id``, ascending by id."""
        return sorted({b if a == agent_id else a for a, b in self.edges
                       if agent_id in (a, b)})


def in_radius(points: np.ndarray, center: np.ndarray,
              radius: float) -> np.ndarray:
    """Whether each (x, y) point of the ``(..., 2)`` array lies within
    ``radius`` of ``center``, inclusive, decided exactly as
    ``math.hypot(x - cx, y - cy) <= radius``: the one radius rule.

    ``np.hypot`` decides every point whose distance h lies outside the
    tie band ``|h - radius| <= radius * 2**-32`` (at least the smallest
    normal float); ``math.hypot`` decides the rest and any non-finite h.
    Both are within 1 ulp of the true distance (CPython's from 3.10 on),
    so outside the band they agree; inside it they may round to opposite
    sides of ``radius`` (README, "Radius membership").  Offsets are taken
    per coordinate, several times faster than a ``(..., 2)`` broadcast."""
    points, center = np.asarray(points), np.asarray(center)
    return within(np.hypot(points[..., 0] - center[..., 0],
                           points[..., 1] - center[..., 1]),
                  points, center, radius)


def within(h: np.ndarray, points: np.ndarray, center: np.ndarray,
           radius: float) -> np.ndarray:
    """``in_radius`` given ``h``, the ``np.hypot`` distances of the
    points from the centre: the points in the tie band, or at a
    non-finite h, are decided by ``math.hypot`` of their offsets."""
    near = np.asarray(h <= radius)  # an array also for one point
    band = max(radius * 2.0 ** -32, 2.0 ** -1022)
    tie = (np.abs(h - radius) <= band) | ~np.isfinite(h)
    if tie.any():
        points, center = (np.broadcast_to(a, h.shape + (2,))[tie]
                          for a in (points, center))
        near[tie] = [math.hypot(x, y) <= radius
                     for x, y in (points - center).tolist()]
    return near


def build_graph(
    scenario: Scenario, ego_id: int, frame: int, radius: float
) -> InteractionGraph:
    """Connect the ego to every other agent of its star at ``frame``
    (``Scenario.stars``)."""
    star = scenario.stars(np.array([scenario.row(ego_id, frame)]), radius)[2]
    return InteractionGraph(ego_id, frame, radius, frozenset(
        (ego_id, aid) for aid in scenario.agent_id[star[1:]].tolist()))


# ==================== synthetic archetypes ====================
#
# Closed-form kinematic scenes for the three evaluation narratives:
# a blocked lane change under front/rear pressure, a lateral cut-in
# from the adjacent lane, and a rear vehicle that overtakes and cuts in.

ARCHETYPES = ("blocked_lane_change", "lateral_cut_in", "rear_overtake_cut_in")

_ARCHETYPE_DEFAULTS: Dict[str, Dict[str, float]] = {
    "blocked_lane_change": {
        "ego_speed": 25.0,
        "front_speed": 22.0,
        "rear_speed": 28.0,
        "target_speed": 15.0,
        "front_gap": 15.0,  # bumper gap to the front vehicle, m
        "rear_gap": 10.0,   # bumper gap to the rear vehicle, m
        "target_gap": 5.0,  # bumper gap to the target-lane vehicle, m
        "lane_width": DEFAULT_LANE_WIDTH,
    },
    "lateral_cut_in": {
        "ego_speed": 20.0,       # ego truck, lane keeping
        "merger_speed": 21.0,    # merging car, longitudinal, at t=0
        "merger_accel": 0.8,     # longitudinal acceleration while merging
        "lateral_speed": 1.0,    # toward the ego lane center
        "lateral_offset": 3.5,   # initial lateral offset of the merger
        "long_offset": 5.0,      # initial center-to-center lead of merger
        "cut_speed_drop": 1.0,   # speed deficit vs ego after the merge
    },
    "rear_overtake_cut_in": {
        "ego_speed": 20.0,
        "rear_speed": 28.0,      # approach speed of the overtaking car
        "rear_gap": 25.0,        # initial bumper gap behind the ego, m
        "lane_offset": 3.5,      # overtaking lane lateral offset
        "cut_in_lead": 12.0,     # center lead when the cut-in starts, m
        "lateral_speed": 1.5,
        "cut_speed_drop": 1.0,   # speed deficit vs ego after the cut-in
    },
}

_ARCHETYPE_DURATIONS = {
    "blocked_lane_change": 3.0,
    "lateral_cut_in": 8.0,
    "rear_overtake_cut_in": 10.0,
}


def make_archetype(
    name: str,
    params: Optional[Mapping[str, float]] = None,
    frame_rate: float = 25.0,
    duration: Optional[float] = None,
) -> Scenario:
    """Generate one of the named synthetic scenarios.

    All trajectories are piecewise closed-form in time, so generated
    states are exactly reproducible and gaps/speeds encoded in ``params``
    can be recovered from the states.  Tracks are columns over the frame
    times, one slice of frames per phase.  Non-finite parameters,
    durations or tracks and a rate that is not positive are refused.
    """
    if name not in ARCHETYPES:
        raise BadConfig(f"unknown archetype: {name!r}")
    p = dict(_ARCHETYPE_DEFAULTS[name])
    for key, value in (params or {}).items():
        if key not in p:
            raise BadConfig(f"unknown {name} parameter: {key!r}")
        p[key] = float(value)
        if not math.isfinite(p[key]):
            raise BadConfig(f"{name} parameter {key!r} must be finite")
    if duration is None:
        duration = _ARCHETYPE_DURATIONS[name]
    span = duration * frame_rate
    if not (frame_rate > 0.0 and abs(span) < math.inf):
        raise BadConfig(f"duration {duration!r} s at {frame_rate!r} Hz: both "
                        "must be finite and the rate positive")
    n_frames = int(round(span)) + 1
    if n_frames < 1:
        raise BadConfig("scenario has no states")
    t = np.arange(n_frames) * (1.0 / frame_rate)
    kinds = [CAR] * (4 if name == "blocked_lane_change" else 2)
    motion = np.zeros((n_frames, len(kinds), 6))
    try:  # tracks[a] is a view of agent a's motion columns
        _closed_form_tracks(name, p, t, motion.transpose(1, 2, 0), kinds)
    except ArithmeticError as exc:
        raise BadConfig(f"{name} parameters give no finite track: "
                        f"{exc.args[-1]}")
    if not np.isfinite(motion).all():
        raise BadConfig(f"{name} parameters give a non-finite track")
    distinct = tuple(dict.fromkeys(kinds))  # in order of first appearance
    extent = [TRUCK_EXTENT if kind == TRUCK else CAR_EXTENT for kind in kinds]
    return Scenario(
        frame_rate, np.repeat(np.arange(n_frames, dtype=np.int64), len(kinds)),
        np.tile(np.arange(len(kinds), dtype=np.int64), n_frames),
        motion.reshape(-1, 6), np.tile(np.array(extent), (n_frames, 1)),
        np.tile([DEFAULT_MASSES[kind.category] for kind in kinds], n_frames),
        np.tile([distinct.index(kind) for kind in kinds], n_frames),
        distinct, f"archetype:{name}",
    )


@np.errstate(over="raise", divide="raise", invalid="raise")
def _closed_form_tracks(name: str, p: Mapping[str, float], t: np.ndarray,
                        tracks: np.ndarray, kinds: List[AgentKind]) -> None:
    """Write each agent's x, y, vx, vy, ax, ay over the times ``t`` into
    ``tracks[a]`` and mark a truck ego in ``kinds``.  Where a closed form
    has no finite value, Python floats and (here) NumPy raise
    ``ArithmeticError``."""
    if name == "blocked_lane_change":
        half = CAR_EXTENT[0]  # two car half-lengths
        x_ego0 = 50.0
        x0 = np.array([[x_ego0 + p["front_gap"] + half],
                       [x_ego0 - p["rear_gap"] - half],
                       [x_ego0 + p["target_gap"] + half]])
        v = np.array([[p["front_speed"]], [p["rear_speed"]],
                      [p["target_speed"]]])
        tracks[1:, 0] = x0 + v * t  # front, rear and target-lane cars
        tracks[1:, 2] = v
        tracks[3, 1] = p["lane_width"]

    elif name == "lateral_cut_in":
        kinds[0] = TRUCK  # ego truck, lane keeping
        x_ego0 = 30.0
        x_m0 = x_ego0 + p["long_offset"]
        t_entry = p["lateral_offset"] / p["lateral_speed"]
        # merger position at the moment it reaches the ego lane center
        x_entry = (x_m0 + p["merger_speed"] * t_entry
                   + 0.5 * p["merger_accel"] * t_entry ** 2)
        k = int(np.count_nonzero(t < t_entry))  # frames before the entry
        pre = t[:k]
        # t ** 2 on Python floats (libm pow); NumPy's squaring can differ
        pre_sq = np.array([v ** 2 for v in pre.tolist()])
        x, y, vx, vy, ax, _ = tracks[1]
        x[:k] = (x_m0 + p["merger_speed"] * pre
                 + 0.5 * p["merger_accel"] * pre_sq)
        y[:k] = p["lateral_offset"] - p["lateral_speed"] * pre
        vx[:k] = p["merger_speed"] + p["merger_accel"] * pre
        vy[:k] = -p["lateral_speed"]
        ax[:k] = p["merger_accel"]
        v_after = p["ego_speed"] - p["cut_speed_drop"]
        x[k:] = x_entry + v_after * (t[k:] - t_entry)
        vx[k:] = v_after

    else:  # rear_overtake_cut_in
        x_ego0 = 60.0
        x_r0 = x_ego0 - p["rear_gap"] - CAR_EXTENT[0]
        closing = p["rear_speed"] - p["ego_speed"]
        if closing > 0.0:
            # time at which the overtaker leads by cut_in_lead (centers)
            t_cut = (p["cut_in_lead"] - (x_r0 - x_ego0)) / closing
        else:
            t_cut = math.inf  # never catches up: plain following
        x_cut = x_r0 + p["rear_speed"] * min(t_cut, 1e12)
        v_after = p["ego_speed"] - p["cut_speed_drop"]
        t_center = (t_cut + p["lane_offset"] / p["lateral_speed"]
                    if math.isfinite(t_cut) else math.inf)
        k = int(np.count_nonzero(t < t_cut))  # frames before the cut-in
        x, y, vx, vy, _, _ = tracks[1]
        x[:k] = x_r0 + p["rear_speed"] * t[:k]
        y[:k] = p["lane_offset"]
        vx[:k] = p["rear_speed"]
        since = t[k:] - t_cut
        x[k:] = x_cut + v_after * since
        y[k:] = p["lane_offset"] - p["lateral_speed"] * since
        vx[k:] = v_after
        vy[k:] = -p["lateral_speed"]
        centered = t[k:] >= t_center  # in the ego lane
        y[k:][centered] = vy[k:][centered] = 0.0

    tracks[0, 0] = x_ego0 + p["ego_speed"] * t  # the ego keeps its lane
    tracks[0, 2] = p["ego_speed"]
