"""Traffic scenario data model.

Holds agent states on a fixed frame grid, ingests and exports track CSVs,
builds per-frame interaction graphs, and generates closed-form synthetic
scenarios used for evaluation.

Coordinate convention: x is longitudinal, y is lateral, both in meters.
Velocities are m/s, accelerations m/s^2, masses kg.
"""

import bisect
import collections
import contextlib
import csv
import functools
import io
import itertools
import json
import math
import os
import stat
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .artifacts import quote, render, write_csv
from .errors import (
    BadConfig,
    EgoAbsent,
    InputError,
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
        starts = np.flatnonzero(new_frame).tolist()
        self._rows = dict(zip(frame[starts].tolist(),
                              zip(starts, starts[1:] + [frame.size])))
        self._objs = [None] * frame.size

    @functools.cached_property
    def bounds(self) -> Tuple[float, float, float, float]:
        """(x0, y0, x1, y1) of the positions, computed on first use."""
        pos = self.motion[:, 0:2]
        return (*pos.min(axis=0), *pos.max(axis=0))

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


@dataclass
class Corpus:
    """Rows of several sources as one table for ``extract_windows``:
    ``table`` under per-source keys (``stack``), each row's own ``frame``
    and ``agent_id``, and its source's frame step ``dt``."""

    table: Scenario
    frame: np.ndarray
    agent_id: np.ndarray
    dt: np.ndarray


def stack(source, frame, ids, motion, extent, mass, kind, kinds,
          steps) -> Corpus:
    """Rows sorted by (source, frame, id), of sources with the given frame
    steps, as a Corpus.  (source, id) pairs become dense ids in that order;
    each source's frames follow the previous source's, keyed one apart
    where consecutive and two across a gap, so no track or star crosses
    two sources, the table refuses a track gap (a dense remap would hide
    it), and frames near 2**53 cannot overflow."""
    step = np.where(source[1:] == source[:-1],
                    np.minimum(np.diff(frame), 2), 2)
    # rank the ids, then number the (source, rank) pairs in order
    dense_id = np.unique(source * ids.size
                         + np.unique(ids, return_inverse=True)[1],
                         return_inverse=True)[1]
    return Corpus(Scenario(1.0 / steps[0], np.cumsum(np.append(0, step)),
                           dense_id, motion, extent, mass, kind, kinds,
                           "corpus"), frame, ids, steps[source])


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


# Parsed track columns, as the sidecar stores them: frame and id as parsed
# float64 (n,), motion (n, 6), extent (n, 2), mass (n,), each row's class
# code, and the distinct class cells (or None) in order of appearance.  A
# parse block's rows hold the numeric ones as _TABLE, an absent one _ABSENT.
Columns = tuple
_TABLE = ("frame", "id", "x", "y", "xVelocity", "yVelocity", "xAcceleration",
          "yAcceleration", "width", "height", "mass")
_ABSENT = (math.nan,) * 6 + (0.0, 0.0) + (math.nan,) * 3

# np.loadtxt strips \x1c-\x1f around a number as whitespace ("1\x1c" reads
# as 1.0) where float() refuses the cell, and it does not unquote.
_LOADTXT_TRAPS = ('"', "\x1c", "\x1d", "\x1e", "\x1f")

# Data rows per parse block: a missed load holds the parsed values and one
# block's text and cells, never the whole file's.
_BLOCK_ROWS = 2048


class _Hashed(io.RawIOBase):
    """A binary file read through, feeding every piece to ``digest``."""

    def __init__(self, fh, digest):
        self.fh, self.digest = fh, digest

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        size = self.fh.readinto(buf)
        self.digest.update(memoryview(buf)[:size])
        return size


def _padded(values: np.ndarray, numeric: Sequence[str]) -> np.ndarray:
    """The (k, b) values of the numeric columns as a (k, 11) block."""
    if len(numeric) == len(_TABLE):  # every column, in table order
        return values.copy()
    block = np.full((len(values), len(_TABLE)), _ABSENT)
    block[:, [_TABLE.index(name) for name in numeric]] = values
    return block


def _parse_text(lines: List[str], resolved: Mapping[str, int],
                numeric: Sequence[str]):
    """The block's (k, len(_TABLE)) numeric values and class cells through
    one ``np.loadtxt`` call, or None when its lines do not qualify or
    loadtxt refuses them.

    The lines qualify when they hold none of ``_LOADTXT_TRAPS`` and none
    is over csv's field size limit (csv.reader decides those cells);
    loadtxt then splits rows and cells as csv.reader does and accepts only
    cells that Python's float reads the same.  The class cells come back
    as str objects, as they stand.  A non-finite value also returns None,
    so that the csv path names the first bad row.
    """
    text, limit = "".join(lines), csv.field_size_limit()
    if (text.isspace() or any(c in text for c in _LOADTXT_TRAPS)
            or len(text) > limit and max(map(len, lines)) > limit):
        return None
    usecols = [resolved[name] for name in numeric]
    fields = [("values", float, (len(usecols),))]
    if "class" in resolved:
        if resolved["class"] in usecols:  # one column read two ways
            return None
        usecols.append(resolved["class"])
        fields.append(("class", object))
    try:
        # encoding=None: before NumPy 2 the default hands cells as bytes
        table = np.loadtxt(lines, delimiter=",", comments=None,
                           usecols=usecols, dtype=fields, ndmin=1,
                           encoding=None)
    except ValueError:
        return None
    block = _padded(table["values"], numeric)  # not a view of the table
    if not np.isfinite(block if "mass" in resolved else block[:, :-1]).all():
        return None
    labels = (table["class"].tolist() if "class" in resolved
              else [None] * len(table))
    return block, labels


def _parse_cells(rows: List[List[str]], header: List[str],
                 resolved: Mapping[str, int], numeric: Sequence[str],
                 start: int):
    """The block's (k, len(_TABLE)) numeric values and class cells from
    csv.reader rows, each cell parsed with Python's float; the first row
    with a missing, unparseable or non-finite cell raises NonFinite,
    counting ``start`` data rows before the block (a blank mass cell is
    not one, and a blank line carries no row)."""
    rows = [row for row in rows if row]
    n = len(rows)
    sizes = np.fromiter(map(len, rows), np.intp, n)
    bad = sizes < max(resolved.values()) + 1
    width = max(int(sizes.max(initial=0)), len(header))
    if n and sizes.min() < width:
        # Pad short rows with None so column i is the slice flat[i::width].
        rows = [row + [None] * (width - len(row)) for row in rows]
    flat = list(itertools.chain.from_iterable(rows))
    del rows
    columns = {name: flat[i::width] for name, i in resolved.items()}
    del flat

    values = np.array([_floats(columns[name]) for name in numeric])
    for name, column in zip(numeric, values):
        unset = ~np.isfinite(column)
        if name == "mass" and unset.any():  # a blank cell stays nan
            unset &= np.fromiter((bool((c or "").strip())
                                  for c in columns[name]), bool, n)
        bad |= unset

    first_bad = np.flatnonzero(bad)
    if first_bad.size:
        raise NonFinite(start + int(first_bad[0]))
    return _padded(values.T, numeric), columns.get("class", [None] * n)


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


def _blocks(text, header: List[str], resolved: Mapping[str, int],
            numeric: Sequence[str]):
    """Each block of the text's data rows as (values, class cells): blocks
    of lines through ``_parse_text`` until the first it refuses, then from
    there blocks of csv.reader rows through ``_parse_cells``, read on
    through the stream, since a quoted cell may span lines."""
    start = 0
    for lines in iter(lambda: list(itertools.islice(text, _BLOCK_ROWS)), []):
        part = _parse_text(lines, resolved, numeric)
        if part is None:
            break
        start += len(part[1])
        yield part
        if len(lines) < _BLOCK_ROWS:  # the stream is spent
            return
    else:
        return
    rows = csv.reader(itertools.chain(lines, text))
    for chunk in iter(lambda: list(itertools.islice(rows, _BLOCK_ROWS)), []):
        try:
            part = _parse_cells(chunk, header, resolved, numeric, start)
        except NonFinite:
            # as from a whole-file parse, a later csv or decode error wins
            collections.deque(rows, maxlen=0)
            raise
        start += len(part[1])
        yield part


def _parse(path: str, text, remap: Mapping[str, str]) -> tuple:
    """The header cells, their resolved columns and the file's Columns,
    from a text stream of the file; error rows count its non-blank data
    rows."""
    header = next(csv.reader(text), [])
    try:
        resolved = _resolve(header, remap)
    except MissingColumn:
        collections.deque(text, maxlen=0)  # a decode error wins, as above
        raise
    numeric = [name for name in _TABLE if name in resolved]
    blocks, codes, code_of = [], [], {}
    for values, labels in _blocks(text, header, resolved, numeric):
        for raw in dict.fromkeys(labels):
            code_of.setdefault(raw, len(code_of))
        codes.append(np.fromiter(map(code_of.__getitem__, labels), np.intp,
                                 len(labels)))
        blocks.append(values)
    if not sum(map(len, codes)):
        raise BadConfig(f"no data rows in {path}")
    if len(blocks) > 1:  # one block stays as parsed
        blocks = [np.concatenate(blocks)]  # before the codes: a lower peak
        codes = [np.concatenate(codes)]
    b = blocks[0]
    return header, resolved, (b[:, 0], b[:, 1], b[:, 2:8], b[:, 8:10],
                              b[:, 10], codes[0], list(code_of))


# ---- ingest cache ----
#
# A track file of at least _CACHE_FLOOR bytes keeps its parse (the
# Columns) in a hidden sidecar beside it, ".<name>.risknet.npy": the
# entry's key as JSON bytes, then frame, id, motion, extent, mass and the
# kind codes, one np.save array each.  The key holds the format tag, the
# SHA-256 of the file's bytes (on a miss, of the bytes it parsed), the
# resolved column mapping, the header cells (so a hit never decodes the
# text) and the class labels.  A hit checks the arrays (``_read_columns``)
# while a worker thread hashes the file, whose digest decides the load
# (``_speculate``).  Below the floor a parse costs less than the cache.

_CACHE_FLOOR = 1 << 20  # bytes
# Bump on any change to the layout or to what the parse returns.
_CACHE_FORMAT = "risknet-ingest-3"


def _sidecar(path: str) -> str:
    head, name = os.path.split(path)
    return os.path.join(head, f".{name}.risknet.npy")


def _sha256(fh) -> str:
    """The SHA-256 of a binary file from where it stands, in 1 MiB pieces."""
    import hashlib  # here, so that only a cached file loads OpenSSL

    digest, buf = hashlib.sha256(), memoryview(bytearray(1 << 20))
    while size := fh.readinto(buf):
        digest.update(buf[:size])
    return digest.hexdigest()


# NumPy parses an npy header with ast.literal_eval, whose AST conversion
# keeps one recursion counter per interpreter in CPython 3.11.7: two threads
# in it at once raise SystemError, so loads in threads take turns there.
_HEADER_LOCK = threading.Lock()


def _next_array(fh, end: int, out: Optional[np.ndarray] = None):
    """The next np.save array of an open sidecar, its header parsed once,
    read into ``out`` (by default a new array); ValueError unless it is
    format 1.0, in C order, within ``end`` and of out's dtype and shape."""
    if np.lib.format.read_magic(fh) != (1, 0):
        raise ValueError("not an npy 1.0 array")
    with _HEADER_LOCK:
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
    if (fortran or dtype.hasobject  # readinto would write object pointers
            or math.prod(shape) * dtype.itemsize > end - fh.tell()
            or out is not None and (out.dtype, out.shape) != (dtype, shape)):
        raise ValueError("not plain values of this shape within the file")
    array = np.empty(shape, dtype) if out is None else out
    if fh.readinto(array) != array.nbytes:
        raise ValueError("array ends early")
    return array


def _read_columns(fh, end: int, n: int, labels) -> Optional[Columns]:
    """The Columns after the key of an open sidecar, the floats read into one
    buffer; None unless they fill it as n >= 1 rows in their shapes, of
    float64 but int64 kind codes into the labels, all finite but a nan mass."""
    try:
        # a row takes 96 bytes: a corrupt count allocates no more than that
        block = np.empty(len(_TABLE) * min(n, end // 96))
        floats = [_next_array(fh, end, a) for a in (
            block[:n], block[n:2 * n], block[2 * n:8 * n].reshape(n, 6),
            block[8 * n:10 * n].reshape(n, 2), block[10 * n:])]
        kind = _next_array(fh, end, np.empty(n, np.int64))
        if fh.read(1) or not (
                0 <= kind.min() and kind.max() < len(labels)
                and np.isfinite(block[:10 * n]).all()
                and not np.isinf(floats[4]).any()):
            return None
    except (OSError, ValueError, TypeError):
        return None
    return (*floats, kind.astype(np.intp, copy=False), labels)


def _digest_into(fh, out: list) -> None:
    """Append the file's SHA-256, or the error that stopped it."""
    try:
        out.append(_sha256(fh))
    except Exception as exc:  # raised on the calling thread
        out.append(exc)


def _speculate(path: str, fh, remap: Mapping[str, str], build):
    """``build`` of the sidecar's Columns when it stores a parse of the
    file's bytes under this column mapping, else None.  Once the key
    matches, a worker thread hashes the file while this thread reads the
    columns and builds; the joined thread's digest decides what stands."""
    try:
        with open(_sidecar(path), "rb") as side:
            end = os.fstat(side.fileno()).st_size
            key = json.loads(bytes(_next_array(side, end).data))
            want, rows, labels = key["sha256"], key["rows"], key["labels"]
            if (key["format"] != _CACHE_FORMAT or _resolve(
                    key["header"], remap) != dict(key["resolved"])):
                return None
            digest = []
            worker = threading.Thread(target=_digest_into, args=(fh, digest))
            worker.start()
            try:
                columns = _read_columns(side, end, rows, labels)
                held = columns and build(columns)
            except Exception as exc:  # raised only for these bytes
                held = exc
            finally:
                worker.join()
    except (OSError, ValueError, LookupError, TypeError, InputError):
        return None
    if isinstance(digest[0], Exception):
        raise digest[0]
    if digest[0] == want and isinstance(held, Exception):
        raise held
    return held if digest[0] == want else None


def _write_entry(path: str, digest: str, header: List[str],
                 resolved: Mapping[str, int], columns: Columns) -> None:
    """Store the parse in the sidecar through a temp file in the same
    directory and os.replace; a refused write leaves neither file."""
    key = json.dumps({"format": _CACHE_FORMAT, "sha256": digest,
                      "header": header, "resolved": list(resolved.items()),
                      "rows": len(columns[5]), "labels": columns[6]}).encode()
    sidecar = _sidecar(path)
    try:
        fd, tmp = tempfile.mkstemp(
            prefix=os.path.basename(sidecar) + ".", suffix=".tmp",
            dir=os.path.dirname(sidecar) or os.curdir)
    except OSError:  # an unwritable directory turns the cache off
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            for array in (np.frombuffer(key, np.uint8), *columns[:5],
                          columns[5].astype(np.int64)):
                # np.save writes a strided array value by value
                np.save(fh, np.ascontiguousarray(array))
        # whoever may read the CSV may read its parse
        os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode) & 0o666)
        os.replace(tmp, sidecar)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _ingest(path: str, remap: Mapping[str, str],
            build=lambda columns: columns):
    """``build`` of the file's Columns: from the sidecar when it stores
    these bytes under this column mapping (``_speculate``), else parsed
    and stored there.  A miss streams the file once through the UTF-8
    decoder and ``_parse`` (and through the hash, so that the stored
    digest is that of the bytes it parsed)."""
    digest = None
    try:
        with open(path, "rb", buffering=0) as fh:
            if os.fstat(fh.fileno()).st_size >= _CACHE_FLOOR:
                hit = _speculate(path, fh, remap, build)
                if hit is not None:
                    return hit
                fh.seek(0)
                import hashlib
                digest = hashlib.sha256()
            source = fh if digest is None else _Hashed(fh, digest)
            with io.TextIOWrapper(source, encoding="utf-8",
                                  newline="") as text:
                try:
                    parsed = _parse(path, text, remap)
                except UnicodeDecodeError as exc:
                    # the bytes the decoder holds end at fh.tell()
                    at = fh.tell() - len(exc.object) + exc.start
                    raise BadConfig(f"cannot read track file {path}: byte "
                                    f"0x{exc.object[exc.start]:02x} at "
                                    f"offset {at} is not UTF-8 "
                                    f"({exc.reason})")
    except (OSError, csv.Error) as exc:  # csv: a cell over its size limit
        raise BadConfig(f"cannot read track file {path}: {exc}")
    header, resolved, columns = parsed
    if digest is not None:
        _write_entry(path, digest.hexdigest(), header, resolved, columns)
    return build(columns)


def _stack(parts: Sequence[Columns],
           kind_defaults: Optional[Mapping[str, float]]) -> tuple:
    """The files' Columns as one table (one file's arrays as they are,
    filled and shifted in place), checked as ``load_tracks`` describes
    and sorted by (file, frame, id): the arguments of ``stack`` but the
    steps, and each file's shift.  A refused row counts over all files."""
    masses = {**DEFAULT_MASSES, **(kind_defaults or {})}
    sizes = [part[0].size for part in parts]
    source = np.repeat(np.arange(len(parts)), sizes)
    kinds = [AgentKind.of(raw) if raw and raw.strip() else CAR
             for *_, raws in parts for raw in raws]
    bases = itertools.accumulate([len(raws) for *_, raws in parts], initial=0)
    columns = [(*arrays, codes + base if base else codes)
               for (*arrays, codes, _), base in zip(parts, bases)]
    *keys, motion, extent, mass, kind = (  # keys: frame and id
        cells[0] if len(cells) == 1 else np.concatenate(cells)
        for cells in zip(*columns))
    blank = np.isnan(mass)
    if blank.any():
        mass[blank] = np.array([masses[k.category] for k in kinds],
                               dtype=float)[kind[blank]]

    off = [(k != np.trunc(k)) | (np.abs(k) > MAX_INTEGRAL) for k in keys]
    if off[0].any() or off[1].any():
        row = int((off[0] | off[1]).argmax())
        col = int(not off[0][row])  # frame before id in a row
        raise NonIntegral(row, ("frame", "id")[col], float(keys[col][row]))
    frame, ids = (k.astype(np.int64) for k in keys)

    body = {"width": extent[:, 0], "height": extent[:, 1], "mass": mass}
    # masks are built only on failure, so a good file allocates nothing
    if min(c.min() for c in body.values()) <= 0.0:
        low = np.logical_or.reduce([c <= 0.0 for c in body.values()])
        row = int(np.argmax(low))
        name = next(k for k, c in body.items() if c[row] <= 0.0)
        raise NonPositive(row, name, float(body[name][row]))

    pos = motion[:, 0:2]
    # each file's max(0, -min) per coordinate, from the unsorted columns
    least = np.minimum.reduceat(pos, np.cumsum([0] + sizes[:-1]))
    shift = np.where(least < 0.0, -least, 0.0)
    moved = (shift > 0.0).any(axis=1)
    if moved.any():
        with np.errstate(over="ignore"):  # -0.0 leaves a file unmoved
            pos += np.where(moved[:, None], shift, -0.0)[source]
        over = ~np.isfinite(pos).all(axis=1)
        if over.any():
            raise NonFinite(int(over.argmax()))  # first in file order
    table = (frame, ids, motion, extent, mass, kind)
    # lexsort is stable: (source, frame, id) keys that strictly ascend stay
    if not ((source[1:] != source[:-1]) | (frame[1:] > frame[:-1])
            | (frame[1:] == frame[:-1]) & (ids[1:] > ids[:-1])).all():
        order = np.lexsort((ids, frame, source))  # keeps source as it is
        table = tuple(a[order] for a in table)
    return (source, *table, kinds, shift)


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

    The file is read once, as one stream, in blocks of data rows
    (``_parse``).  Each qualifying block is parsed by one ``np.loadtxt``
    call (``_parse_text``); from the first other block, or one that call
    refuses, the rest goes through csv.reader and Python's float
    (``_parse_cells``), which decides every error.  A file of at least
    ``_CACHE_FLOOR`` bytes keeps that parse in a sidecar beside it and
    skips it while its bytes and column mapping stay the same
    (``_ingest``), building on it while a thread hashes the file; every
    check below runs either way.  The first data row with a missing,
    unparseable or non-finite cell raises NonFinite; after that, the first
    row whose ``frame`` or ``id`` is not an integer (``3.0`` is, ``3.5``
    is not; magnitudes above 2**53 are refused) raises NonIntegral, then the
    first row whose ``width``, ``height`` or mass (after the kind default
    fills a blank cell) is not positive raises NonPositive, and then the
    first row whose shifted position overflows raises NonFinite.  An
    unreadable or non-UTF-8 file (the message names the offset of the
    first bad byte), or one with a cell longer than csv's field size
    limit, is BadConfig.  These checks and the ordering are
    ``_stack``'s, which ``load_dataset`` runs once over a dataset of
    files; a refused dataset fails with its first file's error here,
    the file's base name before the message.
    """
    def build(columns: Columns) -> Scenario:
        _, frame, ids, *table, shift = _stack([columns], kind_defaults)
        return Scenario(frame_rate, frame, ids, *table, path, offset=shift[0])

    return _ingest(path, dict(schema or {}), build)


def load_dataset(paths: Sequence[str], frame_rate: float = 25.0,
                 schema: Optional[Mapping[str, str]] = None) -> Corpus:
    """Load track files as one Corpus, with no Scenario per file: each
    file is read as ``load_tracks`` reads it, in order, and its checks run
    once over the stacked rows (``_stack``, then the table's own).  On any
    refusal the files are loaded again one at a time; the first to fail
    alone raises its ``load_tracks`` error, its base name first."""
    if not paths:
        raise BadConfig("training dataset is empty")
    try:
        parts = [_ingest(path, dict(schema or {})) for path in paths]
        *table, _ = _stack(parts, None)
        return stack(*table, np.full(len(paths), 1.0 / frame_rate))
    except InputError:
        for path in paths:
            try:
                load_tracks(path, frame_rate, schema)
            except InputError as exc:
                exc.args = (f"{os.path.basename(path)}: {exc}",)
                raise
        raise


def export_tracks(scenario: Scenario, path: str) -> None:
    """Write the scenario back out in the canonical CSV schema.

    Positions are shifted back by the load-time offset so numeric columns
    of a loaded file are reproduced exactly.  The bytes are csv.writer's,
    floats as their ``repr``; each class label is quoted once.
    """
    labels = np.array([quote(kind.label) for kind in scenario.kinds],
                      dtype=object)
    motion = scenario.motion
    write_csv(path, EXPORT_HEADER, [
        *map(render, (scenario.frame, scenario.agent_id,
                      motion[:, 0] - scenario.offset[0],
                      motion[:, 1] - scenario.offset[1],
                      *motion[:, 2:6].T, *scenario.extent.T)),
        labels[scenario.kind].tolist(),
        render(scenario.mass),
    ])


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
