"""Scene model: ingestion, graphs, geometry, and synthetic archetypes."""

import csv
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import risknet.scene as scene
from conftest import constant_velocity_scenario, make_state
from risknet import cli
from risknet.baselines import bumper_gap
from risknet.errors import (
    BadConfig,
    EgoAbsent,
    InputError,
    MissingColumn,
    NonContiguousTrack,
    NonFinite,
    NonIntegral,
    NonPositive,
)
from risknet.field import (
    RiskFieldParams,
    agent_columns,
    directional_terms,
    force_terms,
    frame_field,
)
from risknet.scene import (
    _ARCHETYPE_DEFAULTS,
    _ARCHETYPE_DURATIONS,
    ARCHETYPES,
    CAR,
    CAR_EXTENT,
    DEFAULT_MASSES,
    AgentKind,
    Scenario,
    build_graph,
    export_tracks,
    load_tracks,
    make_archetype,
    scenario_from_states,
)
from risknet.predictor.train import _history_entries

HEADER = ["frame", "id", "x", "y", "xVelocity", "yVelocity",
          "width", "height"]


def write_csv(path, rows, header=HEADER, lineterminator="\r\n"):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(rows)


# ---- ingestion ----

def test_minimal_two_row_csv(tmp_path):
    path = tmp_path / "tracks.csv"
    write_csv(path, [
        [0, 7, 1.0, 2.0, 3.0, 0.0, 4.5, 2.0],
        [1, 7, 1.12, 2.0, 3.0, 0.0, 4.5, 2.0],
    ])
    sc = load_tracks(str(path), frame_rate=25.0)
    assert len(sc.frames) == 2
    assert list(sc.agents) == [7]
    assert sc.agents[7].first_frame == 0
    assert sc.agents[7].last_frame == 1


def test_frame_gap_rejected(tmp_path):
    path = tmp_path / "tracks.csv"
    write_csv(path, [
        [0, 1, 0.0, 0.0, 1.0, 0.0, 4.5, 2.0],
        [1, 1, 0.1, 0.0, 1.0, 0.0, 4.5, 2.0],
        [3, 1, 0.3, 0.0, 1.0, 0.0, 4.5, 2.0],
    ])
    with pytest.raises(NonContiguousTrack) as err:
        load_tracks(str(path))
    assert err.value.agent_id == 1


def test_missing_column(tmp_path):
    path = tmp_path / "tracks.csv"
    write_csv(path, [[0, 1, 0.0, 0.0, 1.0, 0.0, 4.5]],
              header=HEADER[:-1])
    with pytest.raises(MissingColumn) as err:
        load_tracks(str(path))
    assert err.value.name == "height"


def test_non_finite_rejected(tmp_path):
    path = tmp_path / "tracks.csv"
    write_csv(path, [
        [0, 1, 0.0, 0.0, 1.0, 0.0, 4.5, 2.0],
        [1, 1, "nan", 0.0, 1.0, 0.0, 4.5, 2.0],
    ])
    with pytest.raises(NonFinite):
        load_tracks(str(path))


def test_schema_remap(tmp_path):
    path = tmp_path / "tracks.csv"
    write_csv(path, [[0, 1, 5.0, 6.0, 1.0, 0.0, 4.5, 2.0]],
              header=["f", "vid", "px", "py", "vx", "vy", "len", "wid"])
    sc = load_tracks(str(path), schema={
        "frame": "f", "id": "vid", "x": "px", "y": "py",
        "xVelocity": "vx", "yVelocity": "vy",
        "width": "len", "height": "wid",
    })
    state = sc.state(1, 0)
    assert state.position[0] - sc.offset[0] == 5.0
    assert state.extent == (4.5, 2.0)


def test_kind_mapping_and_unknown_label_roundtrip(tmp_path):
    path = tmp_path / "tracks.csv"
    header = HEADER + ["class"]
    write_csv(path, [
        [0, 1, 0.0, 0.0, 1.0, 0.0, 4.5, 2.0, "Car"],
        [0, 2, 9.0, 0.0, 1.0, 0.0, 12.0, 2.5, "Truck"],
        [0, 3, 19.0, 0.0, 1.0, 0.0, 2.0, 0.8, "hovercraft"],
    ], header=header)
    sc = load_tracks(str(path))
    assert sc.agents[1].kind.category == "car"
    assert sc.agents[2].kind.category == "truck"
    assert sc.agents[3].kind.category == "other"
    assert sc.agents[3].kind.label == "hovercraft"
    assert sc.agents[1].mass == DEFAULT_MASSES["car"]
    assert sc.agents[2].mass == DEFAULT_MASSES["truck"]

    out = tmp_path / "out.csv"
    export_tracks(sc, str(out))
    again = load_tracks(str(out))
    assert again.agents[3].kind.label == "hovercraft"


def test_class_labels_read_as_text_under_bytes_default(tmp_path,
                                                        monkeypatch):
    """Before NumPy 2, np.loadtxt defaults to encoding='bytes' and hands
    converters latin1 bytes; the loadtxt path must still see str labels."""
    loadtxt, calls = np.loadtxt, []

    def bytes_default(*args, **kwargs):
        calls.append(kwargs.setdefault("encoding", "bytes"))
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", bytes_default)
    path = tmp_path / "tracks.csv"
    write_csv(path, [
        [0, 1, 0.0, 0.0, 1.0, 0.0, 4.5, 2.0, "car"],
        [0, 2, 9.0, 0.0, 1.0, 0.0, 12.0, 2.5, "truck"],
    ], header=HEADER + ["class"])
    sc = load_tracks(str(path))
    assert calls  # the loadtxt path ran
    assert [sc.agents[a].kind.label for a in (1, 2)] == ["car", "truck"]
    assert [sc.agents[a].kind.category for a in (1, 2)] == ["car", "truck"]


def test_mass_override_by_kind(tmp_path):
    path = tmp_path / "tracks.csv"
    write_csv(path, [[0, 1, 0.0, 0.0, 1.0, 0.0, 4.5, 2.0]])
    sc = load_tracks(str(path), kind_defaults={"car": 999.0})
    assert sc.agents[1].mass == 999.0


def test_nonnegative_origin_shift(tmp_path):
    path = tmp_path / "tracks.csv"
    write_csv(path, [
        [0, 1, -10.0, -4.0, 1.0, 0.0, 4.5, 2.0],
        [0, 2, 3.0, 2.0, 1.0, 0.0, 4.5, 2.0],
    ])
    sc = load_tracks(str(path))
    x0, y0, _, _ = sc.bounds
    assert x0 >= 0.0 and y0 >= 0.0
    # relative geometry is preserved by the shift
    d = sc.state(2, 0).position - sc.state(1, 0).position
    assert np.allclose(d, [13.0, 6.0], atol=1e-12)


def test_constant_velocity_roundtrip_closed_form(tmp_path):
    """100-row file of three straight-line tracks: loaded positions match
    the closed form after an export/load round trip."""
    frame_rate = 25.0
    dt = 1.0 / frame_rate
    tracks = {1: (0.0, 0.0, 30.0, 0.0), 2: (20.0, 3.5, 25.0, 0.0),
              3: (40.0, 7.0, 20.0, 0.5)}
    rows = []
    for aid, (x0, y0, vx, vy) in tracks.items():
        for f in range(34 if aid == 1 else 33):
            rows.append([f, aid, x0 + vx * f * dt, y0 + vy * f * dt,
                         vx, vy, 4.5, 2.0])
    assert len(rows) == 100
    path = tmp_path / "tracks.csv"
    write_csv(path, rows)
    sc = load_tracks(str(path), frame_rate=frame_rate)
    out = tmp_path / "out.csv"
    export_tracks(sc, str(out))
    sc2 = load_tracks(str(out), frame_rate=frame_rate)
    for aid, (x0, y0, vx, vy) in tracks.items():
        info = sc2.agents[aid]
        for f in range(info.first_frame, info.last_frame + 1):
            got = sc2.state(aid, f).position - sc2.offset
            assert abs(got[0] - (x0 + vx * f * dt)) < 1e-9
            assert abs(got[1] - (y0 + vy * f * dt)) < 1e-9


def test_export_reproduces_numeric_columns(tmp_path):
    path = tmp_path / "tracks.csv"
    header = HEADER + ["xAcceleration", "yAcceleration", "class", "mass"]
    write_csv(path, [
        [0, 1, 1.25, -2.5, 3.125, 0.5, 4.5, 2.0, 0.25, -0.125, "car", 1234.5],
        [1, 1, 1.375, -2.48, 3.125, 0.5, 4.5, 2.0, 0.25, -0.125, "car", 1234.5],
    ], header=header)
    sc = load_tracks(str(path))
    out = tmp_path / "out.csv"
    export_tracks(sc, str(out))
    with open(path) as fh:
        src = list(csv.DictReader(fh))
    with open(out) as fh:
        dst = list(csv.DictReader(fh))
    assert len(src) == len(dst)
    for a, b in zip(src, dst):
        for key in header:
            if key == "class":
                assert a[key] == b[key]
            else:
                x, y = float(a[key]), float(b[key])
                assert abs(x - y) <= 1e-9 * max(1.0, abs(x))


def test_non_integral_frame_or_id_rejected(tmp_path):
    path = tmp_path / "tracks.csv"
    write_csv(path, [
        ["0.0", "1.0", 0.0, 0.0, 1.0, 0.0, 4.5, 2.0],
        [1, 1, 0.1, 0.0, 1.0, 0.0, 4.5, 2.0],
        [2, "1.5", 0.2, 0.0, 1.0, 0.0, 4.5, 2.0],
    ])
    with pytest.raises(NonIntegral) as err:
        load_tracks(str(path))
    assert (err.value.row_index, err.value.column) == (2, "id")
    write_csv(path, [["3.5", 1, 0.0, 0.0, 1.0, 0.0, 4.5, 2.0]])
    with pytest.raises(NonIntegral) as err:
        load_tracks(str(path))
    assert (err.value.row_index, err.value.column) == (0, "frame")
    write_csv(path, [[0, 2.0 ** 60, 0.0, 0.0, 1.0, 0.0, 4.5, 2.0]])
    with pytest.raises(NonIntegral):
        load_tracks(str(path))


def test_integral_floats_load_as_ints(tmp_path):
    path = tmp_path / "tracks.csv"
    write_csv(path, [["0.0", "7.0", 0.0, 0.0, 1.0, 0.0, 4.5, 2.0],
                     ["1", " 7 ", 0.1, 0.0, 1.0, 0.0, 4.5, 2.0]])
    sc = load_tracks(str(path))
    assert list(sc.frames) == [0, 1] and list(sc.agents) == [7]
    assert all(type(s.frame) is int and type(s.agent_id) is int
               for states in sc.frames.values() for s in states)


def test_short_row_and_blank_lines(tmp_path):
    """A blank line is not a data row; a row missing a cell is non-finite
    at its data-row index."""
    path = tmp_path / "tracks.csv"
    path.write_text(",".join(HEADER + ["class"]) + "\n"
                    "0,1,0,0,1,0,4.5,2,car\n\n"
                    "1,1,0.1,0,1,0,4.5,2\n")
    with pytest.raises(NonFinite) as err:
        load_tracks(str(path))
    assert err.value.row_index == 1


def test_duplicate_agent_in_frame_rejected():
    states = [make_state(1, 0), make_state(1, 0, position=(5.0, 0.0))]
    with pytest.raises(BadConfig):
        scenario_from_states(states, 25.0)


def test_scenario_accessors():
    sc = constant_velocity_scenario([(1, 0, 0, 10, 0), (2, 30, 0, 5, 0)],
                                    n_frames=5)
    assert sc.dt == pytest.approx(0.04)
    assert sc.span() == (0, 4)
    assert sc.has_state(1, 4) and not sc.has_state(1, 5)
    assert {s.agent_id for s in sc.states_at(2)} == {1, 2}


# ---- columnar ingest against the row-by-row reference ----

OPTIONAL = ("xAcceleration", "yAcceleration", "class", "mass")
NUMERIC = ("frame", "id", "x", "y", "xVelocity", "yVelocity", "width",
           "height", "xAcceleration", "yAcceleration", "mass")
LABELS = ("car", "Car", " truck ", "Truck_Bus", "bike", "person",
          "hovercraft", "Van", "", "  ")
ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663"
                             "\u0664\u0665\u0666\u0667\u0668\u0669")
SPELLINGS = tuple(style.format for style in (
    "{!r}", "{:.3f}", " {!r} ", " {!r}", "{:.0f}", "{:e}"))
# Cells that Python's float reads but np.loadtxt refuses: a table holding
# one takes the csv.reader path.
EXOTIC_SPELLINGS = ("{:_.3f}".format,
                    lambda v: repr(v).translate(ARABIC_INDIC))
EXOTIC_CELLS = ("1_000", "\u0661")
DEFECTS = ("non_finite", "text", "short", "long", "duplicate", "gap",
           "fraction", "drop_column", "non_positive", "default_mass")


def _numbers(lo, hi, exotic=False):
    """Float cells in several spellings, including -0 and padding; with
    ``exotic``, also underscores, Arabic-Indic digits and fixed cells."""
    cells = st.builds(
        lambda v, spell: spell(v),
        st.floats(lo, hi, allow_nan=False),
        st.sampled_from(SPELLINGS + (EXOTIC_SPELLINGS if exotic else ())),
    )
    return st.one_of(cells, st.sampled_from(EXOTIC_CELLS)) if exotic else cells


def _integral(value, exotic=False):
    return st.sampled_from((str(value), f"{value}.0", f" {value} ",
                            f"{value}e0")
                           + ((str(value).translate(ARABIC_INDIC),)
                              if exotic else ()))


@st.composite
def track_tables(draw):
    """A well-formed track table: canonical column names, the header as
    written, [(frame, id), cells] rows, the schema, kind defaults and the
    line ending.  A third of the tables hold exotic cells (blank masses,
    spellings np.loadtxt refuses), a third may hold labels that
    csv.writer quotes, and the rest qualify for np.loadtxt."""
    style = draw(st.sampled_from(("plain", "exotic", "quoted")))
    exotic = style == "exotic"
    labels = st.sampled_from(LABELS)
    if style == "quoted":
        labels = st.one_of(labels, st.sampled_from(("van, blue",
                                                    'van "blue"')))
    columns = list(HEADER) + draw(st.lists(st.sampled_from(OPTIONAL),
                                           unique=True))
    if draw(st.booleans()):
        columns.append("lane")  # a column nothing reads
    columns = draw(st.permutations(columns))
    mass = _numbers(50.0, 4e4, exotic)
    if exotic:
        mass = st.one_of(st.sampled_from(("", " ")), mass)
    rows = []
    for aid in draw(st.lists(st.integers(-30, 60), min_size=1, max_size=4,
                             unique=True)):
        first = draw(st.integers(-3, 6))
        for f in range(first, first + draw(st.integers(1, 5))):
            cells = {"frame": draw(_integral(f, exotic)),
                     "id": draw(_integral(aid, exotic)), "lane": "2",
                     "class": draw(labels),
                     "mass": draw(mass)}
            for name in ("x", "y", "xVelocity", "yVelocity",
                         "xAcceleration", "yAcceleration"):
                cells[name] = draw(_numbers(-500.0, 500.0, exotic))
            for name in ("width", "height"):
                # at least 1, so that "{:.0f}" never writes a zero extent
                cells[name] = draw(_numbers(1.0, 20.0, exotic))
            rows.append([(f, aid), [cells[c] for c in columns]])
    rows = draw(st.permutations(rows))
    schema = {}
    if draw(st.booleans()):
        renamed = draw(st.lists(st.sampled_from(HEADER + list(OPTIONAL)),
                                unique=True))
        schema = {name: f"c_{name.lower()}" for name in renamed}
    header = [schema.get(c, c) for c in columns]
    kind_defaults = draw(st.sampled_from((None, {"car": 999.5},
                                          {"other": 42.0, "truck": 9e3})))
    newline = draw(st.sampled_from(("\r\n", "\n")))
    return columns, header, rows, schema, kind_defaults, newline


@st.composite
def malformed_tables(draw):
    """A track table with one to three defects applied in turn."""
    columns, header, rows, schema, kind_defaults, newline = draw(
        track_tables())
    header = list(header)
    rows = [[key, list(cells)] for key, cells in rows]
    numeric = [k for k, c in enumerate(columns) if c in NUMERIC]
    for defect in draw(st.lists(st.sampled_from(DEFECTS), min_size=1,
                                max_size=3)):
        i = draw(st.integers(0, len(rows) - 1))
        (f, aid), cells = rows[i]
        present = [k for k in numeric if k < len(cells)]
        if defect in ("non_finite", "text") and present:
            cells[draw(st.sampled_from(present))] = draw(st.sampled_from(
                ("nan", "NaN", " -inf", "inf", "1e999")
                if defect == "non_finite"
                else ("abc", "", "1,5", "--1", "0x10", "1\x1c", "\x1f2",
                      "1.5\r")))
        elif defect == "short":
            del cells[draw(st.integers(0, max(len(cells) - 1, 0))):]
        elif defect == "long":
            cells.extend(["9"] * draw(st.integers(1, 3)))
        elif defect == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))),
                        [(f, aid), list(cells)])
        elif defect == "gap":
            keys = {key for key, _ in rows}
            inner = [k for k, (key, _) in enumerate(rows)
                     if (key[0] - 1, key[1]) in keys
                     and (key[0] + 1, key[1]) in keys]
            if inner:
                del rows[draw(st.sampled_from(inner))]
        elif defect == "fraction":
            k = draw(st.sampled_from(("frame", "id")))
            if columns.index(k) < len(cells):
                cells[columns.index(k)] = f"{f if k == 'frame' else aid}.5"
        elif defect == "drop_column":
            k = draw(st.integers(0, len(header) - 1))
            header[k] = "zz"
        elif defect == "non_positive":
            k = columns.index(draw(st.sampled_from(
                [c for c in ("width", "height", "mass") if c in columns])))
            if k < len(cells):
                cells[k] = draw(st.sampled_from(("0", "-0", "-3.5", "0.0")))
        elif defect == "default_mass":
            kind_defaults = {draw(st.sampled_from(("car", "other", "truck"))):
                             draw(st.sampled_from((0.0, -1500.0)))}
    return columns, header, rows, schema, kind_defaults, newline


def _outcome(load, table):
    _, header, rows, schema, kind_defaults, newline = table
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tracks.csv")
        write_csv(path, [cells for _, cells in rows], header=header,
                  lineterminator=newline)
        try:
            return load(path, schema=schema or None,
                        kind_defaults=kind_defaults)
        except InputError as exc:
            return exc


def _plain(states):
    return [tuple(map(repr, (
        s.frame, s.agent_id, *map(float, s.position),
        *map(float, s.velocity), *map(float, s.acceleration), *s.extent,
        s.kind.category, s.kind.label, s.mass))) for s in states]


def assert_same_scene(sc, ref):
    rows, agents, bounds, offset = ref
    states = [s for f in sc.frame_list for s in sc.frames[f]]
    assert _plain(states) == [tuple(map(repr, r)) for r in rows]
    assert list(sc.frames) == sorted({r[0] for r in rows})
    assert all(sc.state(s.agent_id, s.frame) is s for s in states)
    assert {aid: (i.kind.category, i.kind.label, i.mass, i.extent,
                  i.first_frame, i.last_frame)
            for aid, i in sc.agents.items()} == agents
    assert list(sc.agents) == list(agents)
    assert sc.bounds == bounds
    assert np.array_equal(sc.offset, offset)


def assert_same_error(got, want):
    assert type(got) is type(want), (got, want)
    for field in ("row_index", "column", "agent_id", "gap_frame", "name"):
        assert getattr(got, field, None) == getattr(want, field, None)


@given(table=track_tables())
@settings(max_examples=50, deadline=None)
def test_columnar_ingest_matches_reference_loader(table):
    want = _outcome(oracles.load_track_rows, table)
    assert not isinstance(want, Exception), want
    assert_same_scene(_outcome(load_tracks, table), want)


@given(table=malformed_tables())
@settings(max_examples=50, deadline=None)
def test_columnar_ingest_rejects_like_reference_loader(table):
    got = _outcome(load_tracks, table)
    want = _outcome(oracles.load_track_rows, table)
    if isinstance(want, Exception):
        assert_same_error(got, want)
    else:
        assert_same_scene(got, want)


# ---- the ingest cache beside the CSV ----

SIDECAR = ".tracks.csv.risknet.npy"
CACHE_HEADER = HEADER + ["class", "mass"]


def cache_rows(blank_mass=False):
    """Rows out of (frame, id) order, with a negative x (a nonzero
    offset), -0.0 cells, an unknown label and, with ``blank_mass``, a
    blank mass cell that sends the parse down the csv path."""
    rows = []
    for f in range(4):
        rows.append([f, 5, 30.0 - 2 * f, 7.0, -2.0, "-0.0", 4.5, 2.0,
                     "van", 1300.0])
        rows.append([f, 1, -12.5 + f, "-0.0", 10.0, 0.0, 4.5, 2.0,
                     "car", 1500.0])
        rows.append([f, 2, 8.0 + 1.5 * f, 3.5, 12.0, 0.25, 12.0, 2.5,
                     "Truck", "" if blank_mass and f == 2 else 15000.0])
    return rows[::-1]


@pytest.fixture
def cached(monkeypatch):
    """Lower the floor so that the small files below are cached."""
    monkeypatch.setattr(scene, "_CACHE_FLOOR", 0)


def assert_bit_identical(got, want):
    for name in ("frame", "agent_id", "motion", "extent", "mass", "kind",
                 "offset"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        if a.dtype == np.float64:  # on the bits, so -0.0 counts
            a, b = a.view(np.int64), b.view(np.int64)
        assert np.array_equal(a, b), name
    assert list(got.kinds) == list(want.kinds)
    assert (np.array(got.bounds).view(np.int64).tolist()
            == np.array(want.bounds).view(np.int64).tolist())


def forbid_decode(monkeypatch):
    """Make a decode of the file's text fail the test: a hit has none."""
    def fail(*args):
        raise AssertionError("the file was decoded on a cache hit")
    monkeypatch.setattr(scene, "_decode", fail)


@pytest.mark.parametrize("blank_mass", [False, True],
                         ids=["loadtxt", "csv_reader"])
def test_cache_hit_matches_parse_bit_for_bit(cached, monkeypatch, tmp_path,
                                             blank_mass):
    path = tmp_path / "tracks.csv"
    write_csv(path, cache_rows(blank_mass), header=CACHE_HEADER)
    miss = load_tracks(str(path), kind_defaults={"truck": 9000.0})
    assert (tmp_path / SIDECAR).is_file()
    assert miss.offset[0] == 12.5
    forbid_decode(monkeypatch)
    hit = load_tracks(str(path), kind_defaults={"truck": 9000.0})
    assert_bit_identical(hit, miss)
    assert [k.label for k in hit.kinds] == ["truck", "car", "van"]
    # the mass default is filled after the cache, on every load
    for default in (9000.0, 7000.0):
        sc = load_tracks(str(path), kind_defaults={"truck": default})
        assert sc.mass[sc.row(2, 2)] == (default if blank_mass else 15000.0)


def test_cache_same_size_content_change_is_a_miss(cached, tmp_path):
    path = tmp_path / "tracks.csv"
    write_csv(path, cache_rows(), header=CACHE_HEADER)
    load_tracks(str(path))
    stale = (tmp_path / SIDECAR).read_bytes()
    text = path.read_bytes()
    path.write_bytes(text.replace(b"-12.5", b"-12.4"))
    assert path.stat().st_size == len(text)
    sc = load_tracks(str(path))
    assert sc.offset[0] == 12.4
    assert (tmp_path / SIDECAR).read_bytes() != stale
    assert_bit_identical(load_tracks(str(path)), sc)


def _truncated(good):
    return good[:len(good) // 2]


def _garbage(good):
    return bytes(range(256)) * 8


def _pickled(good):
    buf = io.BytesIO()
    np.save(buf, np.array([{"a": 1}], dtype=object))
    return buf.getvalue()


def _huge_shape(good):
    # one array whose header claims 2**40 bytes; the padding keeps the
    # header length
    buf = io.BytesIO()
    np.save(buf, np.zeros(3, np.uint8))
    spoiled = buf.getvalue().replace(b"(3,), }" + b" " * 12,
                                     b"(1099511627776,), }")
    assert b"1099511627776" in spoiled
    return spoiled


@pytest.mark.parametrize("spoil", [
    lambda good: b"",
    _truncated,
    lambda good: good[:-1],
    lambda good: good + b"\0",
    _garbage,
    _pickled,
    _huge_shape,
    lambda good: good.replace(b"risknet-ingest-1", b"risknet-ingest-0"),
], ids=["empty", "truncated", "one_byte_short", "trailing_byte", "garbage",
        "pickled", "huge_shape", "other_format"])
def test_cache_spoiled_sidecar_is_a_miss_and_rewritten(cached, tmp_path,
                                                       capfd, spoil):
    path = tmp_path / "tracks.csv"
    write_csv(path, cache_rows(), header=CACHE_HEADER)
    want = load_tracks(str(path))
    sidecar = tmp_path / SIDECAR
    good = sidecar.read_bytes()
    sidecar.write_bytes(spoil(good))
    assert_bit_identical(load_tracks(str(path)), want)
    assert sidecar.read_bytes() == good
    assert capfd.readouterr() == ("", "")
    assert sorted(os.listdir(tmp_path)) == [SIDECAR, "tracks.csv"]


def _refuse(*args, **kwargs):
    raise PermissionError(13, "Permission denied")


def _disk_full(*args, **kwargs):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("stage", ["mkstemp", "save", "replace"])
def test_cache_refused_write_leaves_nothing(cached, monkeypatch, tmp_path,
                                            capfd, stage):
    path = tmp_path / "tracks.csv"
    write_csv(path, cache_rows(), header=CACHE_HEADER)
    want = load_tracks(str(path))
    os.remove(tmp_path / SIDECAR)
    if stage == "mkstemp":
        monkeypatch.setattr(tempfile, "mkstemp", _refuse)
    elif stage == "save":
        monkeypatch.setattr(np, "save", _disk_full)
    else:
        monkeypatch.setattr(os, "replace", _refuse)
    for _ in range(2):
        assert_bit_identical(load_tracks(str(path)), want)
        assert os.listdir(tmp_path) == ["tracks.csv"]
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("mode", [0o644, 0o640])
def test_cache_sidecar_takes_the_csv_read_write_bits(cached, tmp_path, mode):
    path = tmp_path / "tracks.csv"
    write_csv(path, cache_rows(), header=CACHE_HEADER)
    path.chmod(mode | 0o100)  # an execute bit, which the sidecar drops
    if path.stat().st_mode & 0o777 != mode | 0o100:
        pytest.skip("this file system does not keep file modes")
    load_tracks(str(path))
    assert (tmp_path / SIDECAR).stat().st_mode & 0o777 == mode


def test_cache_read_only_directory_leaves_nothing(cached, tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    path = data / "tracks.csv"
    write_csv(path, cache_rows(), header=CACHE_HEADER)
    data.chmod(0o555)
    try:
        try:
            (data / "probe").touch()
        except PermissionError:
            pass
        else:  # e.g. root, whom directory modes do not bind
            pytest.skip("this user can write to a read-only directory")
        first, second = load_tracks(str(path)), load_tracks(str(path))
        assert os.listdir(data) == ["tracks.csv"]
    finally:
        data.chmod(0o755)
    assert_bit_identical(second, first)
    assert_bit_identical(first, load_tracks(str(path)))


# defect: the (row, column, cell) edits of cache_rows(), the error and
# the data row it names (None for an error that names none), and whether
# the parse passes (so that the sidecar is written)
FAILURES = {
    "non_finite": ([(3, "x", "nan")], NonFinite, 3, False),
    "unparseable": ([(5, "xVelocity", "abc")], NonFinite, 5, False),
    "non_integral": ([(4, "frame", "2.5")], NonIntegral, 4, True),
    "non_positive": ([(6, "width", "-4.5")], NonPositive, 6, True),
    "duplicate": ([(7, "id", "5")], BadConfig, None, True),
    "gap": ([(8, "frame", "9")], NonContiguousTrack, None, True),
    "shift_overflow": ([(0, "x", "-1e308"), (1, "x", "1e308"),
                        (2, "x", "1.5e308")], NonFinite, 1, True),
}


@pytest.mark.parametrize("defect", FAILURES)
def test_cache_failing_file_fails_alike_twice(cached, tmp_path, defect):
    """A file the parse refuses writes no sidecar; one that a check after
    the parse refuses keeps its parse, and raises alike on the hit."""
    edits, error, row, parsed = FAILURES[defect]
    rows = cache_rows()
    for k, column, cell in edits:
        rows[k][CACHE_HEADER.index(column)] = cell
    path = tmp_path / "tracks.csv"
    write_csv(path, rows, header=CACHE_HEADER)
    errors = []
    for _ in range(2):
        with pytest.raises(error) as err:
            load_tracks(str(path))
        errors.append(err.value)
        assert getattr(err.value, "row_index", None) == row
        assert sorted(os.listdir(tmp_path)) == \
            [SIDECAR] * parsed + ["tracks.csv"]
    assert_same_error(*errors)
    assert str(errors[0]) == str(errors[1])


def test_cache_other_column_mapping_is_a_miss(cached, monkeypatch,
                                              tmp_path):
    path = tmp_path / "tracks.csv"
    rows = [r + [float(r[2]) + 100.0] for r in cache_rows()]
    write_csv(path, rows, header=CACHE_HEADER + ["x_alt"])
    plain = load_tracks(str(path))
    alt = load_tracks(str(path), schema={"x": "x_alt"})
    assert alt.offset[0] == 0.0 and plain.offset[0] == 12.5
    assert np.array_equal(alt.motion[:, 0], plain.motion[:, 0] + 87.5)
    assert_bit_identical(load_tracks(str(path), schema={"x": "x_alt"}),
                         alt)
    # the sidecar now holds the alt mapping, so this load parses again
    assert_bit_identical(load_tracks(str(path)), plain)
    with pytest.raises(MissingColumn):
        load_tracks(str(path), schema={"x": "nope"})
    # a schema that resolves to the same columns is the same entry
    forbid_decode(monkeypatch)
    assert_bit_identical(load_tracks(str(path), schema={"x": "x"}), plain)


def test_cache_floor(monkeypatch, tmp_path):
    path = tmp_path / "tracks.csv"
    write_csv(path, cache_rows(), header=CACHE_HEADER)
    assert scene._CACHE_FLOOR == 1 << 20  # test fixtures stay uncached
    load_tracks(str(path))
    size = path.stat().st_size
    monkeypatch.setattr(scene, "_CACHE_FLOOR", size + 1)
    load_tracks(str(path))
    assert os.listdir(tmp_path) == ["tracks.csv"]
    monkeypatch.setattr(scene, "_CACHE_FLOOR", size)
    load_tracks(str(path))
    assert sorted(os.listdir(tmp_path)) == [SIDECAR, "tracks.csv"]


def test_cache_sidecar_bytes_are_reproducible(cached, tmp_path):
    written = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        path = tmp_path / name / "tracks.csv"
        write_csv(path, cache_rows(blank_mass=True), header=CACHE_HEADER)
        load_tracks(str(path))
        written.append((tmp_path / name / SIDECAR).read_bytes())
        os.remove(tmp_path / name / SIDECAR)
        load_tracks(str(path), kind_defaults={"truck": 1.0})
        written.append((tmp_path / name / SIDECAR).read_bytes())
    assert written == written[:1] * 4


def test_cache_train_dataset_ignores_sidecars(cached, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for name, specs in (("a.csv", [(0, 0.0, 0.0, 5.0, 0.0),
                                   (1, 8.0, 3.0, 4.0, 0.0)]),
                        ("b.csv", [(0, 2.0, -1.0, 6.0, 0.5),
                                   (1, -6.0, 2.0, 5.0, 0.0)])):
        export_tracks(constant_velocity_scenario(specs, n_frames=5,
                                                 frame_rate=5.0),
                      str(data / name))
    settings = ["--set", "predictor.d_h=4", "--set", "predictor.modes=2",
                "--set", "predictor.t_h=3", "--set", "predictor.t_f=2",
                "--set", "io.frame_rate=5", "--epochs", "1", "--seed", "3"]
    runs = []
    for run in ("run1", "run2"):
        out = tmp_path / run
        assert cli.main(["train", "--dataset", str(data), *settings,
                         "--out", str(out)]) == 0
        runs.append([(out / name).read_bytes()
                     for name in ("model.f32", "loss.csv", "run.json")])
        assert json.loads((out / "run.json").read_text())["dataset"] == \
            ["a.csv", "b.csv"]
    assert sorted(os.listdir(data)) == [
        ".a.csv.risknet.npy", ".b.csv.risknet.npy", "a.csv", "b.csv"]
    assert runs[0] == runs[1]
    assert "trained 1 epochs on 4 windows" in capsys.readouterr().out


# ---- lookups against a brute-force row oracle ----

RADIUS = 10.0


@st.composite
def multi_agent_rows(draw):
    """(frame, id, x, y) rows of a scene whose agents enter and leave at
    different frames, starting anywhere in -3..12.  Positions are small
    integers, so one agent can sit exactly RADIUS from another (a 6-8-10
    triangle), at a distance that math.hypot rounds to RADIUS while the
    squared sum exceeds RADIUS**2, or just beyond it."""
    tracks = draw(st.lists(
        st.tuples(st.integers(-5, 40), st.integers(-3, 12),
                  st.integers(1, 6)),
        min_size=1, max_size=6, unique_by=lambda t: t[0]))
    coord = st.integers(-30, 30).map(float)
    rows = {(f, aid): (draw(coord), draw(coord))
            for aid, first, length in tracks
            for f in range(first, first + length)}
    shared = sorted({(f, a, b) for (f, a) in rows for (g, b) in rows
                     if f == g and a != b})
    if shared:
        f, a, b = draw(st.sampled_from(shared))
        x, y = rows[(f, a)]
        rows[(f, b)] = draw(st.sampled_from(
            ((x + 6.0, y + 8.0), (x - 8.0, y + 6.0), (x, y - 10.0),
             (x + 6.06325662225845, y + 7.952164430684206),
             (x + 10.0, y + 1e-6))))
    return [(f, aid, x, y) for (f, aid), (x, y) in rows.items()]


def check_lookups(sc, rows):
    """Every lookup of ``sc`` against the (frame, id, x, y) rows."""
    at = {(f, aid): (x, y) for f, aid, x, y in rows}
    frames = sorted({f for f, _ in at})
    ids = sorted({aid for _, aid in at})
    assert sc.frame_list == frames and list(sc.frames) == frames
    assert len(sc.frames) == len(frames)
    assert sc.span() == (frames[0], frames[-1])
    for f in range(frames[0] - 1, frames[-1] + 2):
        states = sc.states_at(f)
        assert [(s.frame, s.agent_id) for s in states] == sorted(
            (f, aid) for g, aid in at if g == f)
        assert [tuple(s.position.tolist()) for s in states] == [
            at[(f, s.agent_id)] for s in states]
        assert sc.states_at(f) is states or not states
        if f in frames:
            assert sc.frames[f] is states
        for aid in ids:
            present = (f, aid) in at
            assert sc.has_state(aid, f) == present
            if not present:
                with pytest.raises(EgoAbsent):
                    sc.state(aid, f)
                with pytest.raises(EgoAbsent):
                    build_graph(sc, aid, f, RADIUS)
                continue
            assert sc.state(aid, f) is next(
                s for s in states if s.agent_id == aid)
            x, y = at[(f, aid)]
            near = {(aid, b) for (g, b), (bx, by) in at.items()
                    if g == f and b != aid
                    and math.hypot(bx - x, by - y) <= RADIUS}
            assert build_graph(sc, aid, f, RADIUS).edges == near


# Offsets from an ego at the origin: at RADIUS, 1 ulp inside and outside
# it, the near-tie of multi_agent_rows, and two offsets that math.hypot
# and np.hypot round to opposite sides of RADIUS.
RADIUS_TIES = [
    (RADIUS, 0.0), (0.0, -math.nextafter(RADIUS, 0.0)),
    (-math.nextafter(RADIUS, math.inf), 0.0),
    (6.06325662225845, 7.952164430684206),
    (8.624075758641464, 5.0621455243021884),
    (-5.334801461570672, 8.458125877853996),
]


@given(rows=multi_agent_rows(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_frame_field_neighbours_are_build_graph_edges(rows, data):
    """At every frame of every ego, frame_field lists the frame's other
    agents ascending by id and marks as near exactly build_graph's
    neighbours, for agents at the radius and 1 ulp either side of it."""
    frames = range(min(f for f, *_ in rows), max(f for f, *_ in rows) + 1)
    ties = st.lists(st.sampled_from(RADIUS_TIES), min_size=len(frames),
                    max_size=len(frames))
    rows = rows + [(f, 99, 0.0, 0.0) for f in frames] + [
        (f, 100 + k, x, y)
        for k in range(data.draw(st.integers(1, 3)))
        for f, (x, y) in zip(frames, data.draw(ties))]
    sc = scenario_from_states(
        [make_state(aid, f, (x, y), (1.0, 0.0)) for f, aid, x, y in rows],
        25.0)
    params = RiskFieldParams(R=RADIUS)
    for ego in sc.agents:
        ff = frame_field(sc, ego, params)
        rows = sc.padded_rows(ego)[1]
        for f, rows_f, present, near in zip(ff.frame.tolist(), rows,
                                            ff.present, ff.near):
            assert sc.agent_id[rows_f[present]].tolist() == [
                a for a in sc.frame_ids(f) if a != ego]
            assert {(ego, b) for b in sc.agent_id[rows_f[near]].tolist()
                    } == build_graph(sc, ego, f, RADIUS).edges


@st.composite
def radius_cases(draw):
    """A radius from 1e-300 to 1e300, a centre, and points around it: 500
    at the radius and up to 4 ulp either side at seeded random angles,
    plus points on the centre, beyond float range (differences that
    overflow to inf) and not numbers."""
    radius = draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(-300, 299))
    center = draw(st.sampled_from(
        [(0.0, 0.0), (radius / 3, -radius / 7), (-1e308, 1e308)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ulps = rng.integers(-4, 5, 500)
    r = np.full(ulps.shape, radius)
    for k in range(4):
        r = np.where(ulps > k, np.nextafter(r, np.inf), r)
        r = np.where(ulps < -k, np.nextafter(r, 0.0), r)
    angle = rng.uniform(0.0, 2 * np.pi, ulps.shape)
    ties = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=1) + center
    odd = draw(st.lists(st.sampled_from(
        [center, (1e308, -1e308), (-1.5e308, 0.0), (math.inf, math.nan),
         (math.nan, center[1]), (-math.inf, center[1])]), max_size=6))
    return ties.tolist() + odd, center, radius


@given(radius_cases())
@settings(max_examples=200, deadline=None)
def test_in_radius_is_math_hypot(case):
    """The array rule decides every point as math.hypot does, also where
    np.hypot rounds to the other side of the radius."""
    points, (cx, cy), radius = case
    want = [math.hypot(x - cx, y - cy) <= radius for x, y in points]
    with np.errstate(over="ignore", invalid="ignore"):
        got = scene.in_radius(np.array(points), (cx, cy), radius)
    assert got.dtype == bool and got.tolist() == want


def test_in_radius_ties_and_shapes():
    ties = np.array(RADIUS_TIES)
    want = [math.hypot(x, y) <= RADIUS for x, y in RADIUS_TIES]
    # np.hypot alone would answer True and False for the last two
    assert want == [True, True, False, True, False, True]
    assert scene.in_radius(ties, (0.0, 0.0), RADIUS).tolist() == want
    # one (2,) point at a time, ties included
    assert [scene.in_radius(p, (0.0, 0.0), RADIUS).tolist()
            for p in ties] == want
    # a (2, 3, 2) block against one centre per row of it
    centers = np.array([[[1.0, 2.0]], [[-3.0, 0.5]]])
    block = ties.reshape(2, 3, 2) + centers
    assert scene.in_radius(block, centers, RADIUS).tolist() == [
        [math.hypot(x - cx, y - cy) <= RADIUS for x, y in row]
        for row, ((cx, cy),) in zip(block.tolist(), centers.tolist())]


@given(rows=multi_agent_rows(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_star_steps_match_per_target_oracle(rows, data):
    """Every window's stars, ids and features, equal the per-target
    math.hypot builder's bit for bit, for agents at the radius and 1 ulp
    either side of it, with windows sharing rows."""
    frames = range(min(f for f, *_ in rows), max(f for f, *_ in rows) + 1)
    ties = st.lists(st.sampled_from(RADIUS_TIES), min_size=len(frames),
                    max_size=len(frames))
    rows = rows + [(f, 99, 0.0, 0.0) for f in frames] + [
        (f, 100 + k, x, y)
        for k in range(data.draw(st.integers(1, 3)))
        for f, (x, y) in zip(frames, data.draw(ties))]
    sc = scenario_from_states(
        [make_state(aid, f, (x + 0.25, y), (1.0, 0.5), (0.1, -0.2))
         for f, aid, x, y in rows], 25.0)
    length = data.draw(st.integers(1, 4))
    windows = [(aid, range(t0, t0 + length))
               for aid, info in sc.agents.items()
               for t0 in range(info.first_frame,
                               info.last_frame - length + 2)]
    if not windows:
        return
    history = np.array([[sc.row(aid, f) for f in span]
                        for aid, span in windows])
    centers = sc.motion[history[:, -1], 0:2] + data.draw(
        st.sampled_from([0.0, 0.125, -3.75]))
    window, step, member, x_all, _ = _history_entries(
        sc.motion, history, centers, sc.stars(history, RADIUS))
    got = [[(sc.agent_id[member[m]], x_all[m])
            for m in ((window == w) & (step == s) for s in range(length))]
           for w in range(len(history))]
    assert len(got) == len(windows)
    for steps, (aid, span), center in zip(got, windows, centers):
        want = oracles.star_steps(sc, aid, span, center, RADIUS)
        assert len(steps) == len(want)
        for (ids, x), (want_ids, want_x) in zip(steps, want):
            assert ids.dtype == want_ids.dtype
            assert ids.tolist() == want_ids.tolist()
            assert x.dtype == want_x.dtype and x.shape == want_x.shape
            assert np.array_equal(x.view(np.int64), want_x.view(np.int64))


@given(rows=multi_agent_rows(), early=st.data())
@settings(max_examples=100, deadline=None)
def test_lookups_match_row_oracle(rows, early, tmp_path_factory):
    states = [make_state(aid, f, (x, y), (1.0, 0.0)) for f, aid, x, y in rows]
    sc = scenario_from_states(states[::-1], 25.0)
    check_lookups(sc, rows)
    # state(a, f) before states_at(f): the frame list holds that object
    sc = scenario_from_states(states, 25.0)
    picked = early.draw(st.lists(st.sampled_from(rows), unique=True))
    first = {(f, aid): sc.state(aid, f) for f, aid, _, _ in picked}
    check_lookups(sc, rows)
    assert all(first[key] is next(s for s in sc.states_at(key[0])
                                  if s.agent_id == key[1]) for key in first)
    # the loaded copy against the reference loader's shifted rows
    path = str(tmp_path_factory.mktemp("lookups") / "tracks.csv")
    export_tracks(sc, path)
    ref_rows = oracles.load_track_rows(path)[0]
    check_lookups(load_tracks(path), [r[:4] for r in ref_rows])


# ---- interaction graph ----

def test_graph_ego_alone():
    sc = constant_velocity_scenario([(1, 0, 0, 10, 0)], n_frames=2)
    g = build_graph(sc, 1, 0, 50.0)
    assert g.edges == frozenset()
    assert g.neighbors(1) == []


def test_graph_distance_cutoff():
    sc = constant_velocity_scenario([
        (0, 0, 0, 10, 0),
        (1, 10, 0, 10, 0),
        (2, 49.9, 0, 10, 0),
        (3, 50.1, 0, 10, 0),
    ], n_frames=1)
    g = build_graph(sc, 0, 0, 50.0)
    assert g.neighbors(0) == [1, 2]
    for nid in g.neighbors(0):
        d = oracles.distance(sc.state(0, 0).position,
                             sc.state(nid, 0).position)
        assert d <= 50.0


def test_graph_boundary_inclusive():
    sc = constant_velocity_scenario([(0, 0, 0, 10, 0), (1, 50.0, 0, 10, 0)],
                                    n_frames=1)
    g = build_graph(sc, 0, 0, 50.0)
    assert g.neighbors(0) == [1]


def test_graph_ego_absent():
    sc = constant_velocity_scenario([(1, 0, 0, 10, 0)], n_frames=2)
    with pytest.raises(EgoAbsent):
        build_graph(sc, 9, 0, 50.0)


def test_graph_usable_from_both_endpoints():
    sc = constant_velocity_scenario([(0, 0, 0, 10, 0), (1, 10, 0, 10, 0)],
                                    n_frames=1)
    g = build_graph(sc, 0, 0, 50.0)
    assert g.neighbors(1) == [0]


# ---- relative geometry ----
#
# The field reads a pair's geometry through its kernel: the center
# distance r, and the velocity angle theta through alpha_lat =
# exp(-sin^2 theta) and the Doppler factor alpha_lon.

def kernel_geometry(a, b):
    """(r, alpha_lon, alpha_lat) of the pair under the default field."""
    params = RiskFieldParams()
    ego, other = agent_columns([a], params), agent_columns([b], params)
    _, force, r = force_terms(ego, other, params)
    a_lon, a_lat, _ = directional_terms(ego, other, force, params)
    return float(r[0]), float(a_lon[0]), float(a_lat[0])


def test_geometry_identical_positions_parallel():
    a = make_state(0, velocity=(10.0, 0.0))
    b = make_state(1, velocity=(5.0, 0.0))
    r, _, a_lat = kernel_geometry(a, b)
    assert (r, a_lat) == (0.0, 1.0)


def test_geometry_hand_case():
    a = make_state(0, position=(0, 0), velocity=(10, 0))
    b = make_state(1, position=(3, 4), velocity=(0, 10))
    r, a_lon, a_lat = kernel_geometry(a, b)
    assert r == pytest.approx(5.0, abs=1e-12)
    # theta = pi/2: cos theta = 0 and sin^2 theta = 1
    assert a_lon == 1.0
    assert a_lat == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_geometry_antiparallel():
    a = make_state(0, velocity=(10.0, 2.0))
    b = make_state(1, position=(1, 1), velocity=(-10.0, -2.0))
    _, a_lon, a_lat = kernel_geometry(a, b)
    # theta = pi: cos theta = -1 and sin^2 theta = 0
    speed = math.hypot(10.0, 2.0)
    assert a_lon == pytest.approx((30.0 - speed) / (30.0 + speed),
                                  abs=1e-12)
    assert a_lat == pytest.approx(1.0, abs=1e-12)


def test_geometry_slow_speed_fallback():
    a = make_state(0, velocity=(0.05, 0.0))
    b = make_state(1, position=(1, 1), velocity=(0.0, 10.0))
    # perpendicular, but below EPS_SPEED the angle falls back to 0
    assert kernel_geometry(a, b)[2] == 1.0


# ---- archetypes ----

def test_archetype_names():
    assert set(ARCHETYPES) == {
        "blocked_lane_change", "lateral_cut_in", "rear_overtake_cut_in"
    }
    with pytest.raises(BadConfig):
        make_archetype("left_turn")
    with pytest.raises(BadConfig):
        make_archetype("lateral_cut_in", {"warp_speed": 1.0})


def test_archetypes_bitwise_reproducible():
    for name in ARCHETYPES:
        a = make_archetype(name)
        b = make_archetype(name)
        assert a.frame_list == b.frame_list
        for frame in a.frame_list:
            for sa, sb in zip(a.frames[frame], b.frames[frame]):
                assert np.array_equal(sa.position, sb.position)
                assert np.array_equal(sa.velocity, sb.velocity)
                assert np.array_equal(sa.acceleration, sb.acceleration)


def test_lateral_cut_in_lane_entry_time():
    """Merger with a 3.5 m offset closing at 1 m/s reaches the ego lane
    center exactly 3.5 s in."""
    frame_rate = 10.0
    sc = make_archetype("lateral_cut_in",
                        {"lateral_speed": 1.0, "lateral_offset": 3.5},
                        frame_rate=frame_rate)
    entry_frame = int(3.5 * frame_rate)
    for f in range(entry_frame):
        offset = sc.state(1, f).position[1] - sc.state(0, f).position[1]
        assert abs(offset - (3.5 - f / frame_rate)) < 1e-9
        assert offset > 0.0
    at_entry = sc.state(1, entry_frame).position[1]
    assert abs(at_entry - sc.state(0, entry_frame).position[1]) < 1e-9


def test_blocked_lane_change_gaps_recoverable():
    sc = make_archetype("blocked_lane_change",
                        {"front_gap": 15.0, "rear_gap": 10.0})
    ego = sc.state(0, 0)
    front = sc.state(1, 0)
    rear = sc.state(2, 0)
    assert abs(bumper_gap(ego, front) - 15.0) < 1e-9
    assert abs(bumper_gap(rear, ego) - 10.0) < 1e-9


def test_rear_overtake_equal_speed_never_closes():
    sc = make_archetype("rear_overtake_cut_in",
                        {"rear_speed": 20.0, "ego_speed": 20.0})
    gaps = [
        sc.state(0, f).position[0] - sc.state(1, f).position[0]
        for f in sc.frame_list
    ]
    assert min(gaps) == pytest.approx(gaps[0], abs=1e-9)
    ys = {round(float(sc.state(1, f).position[1]), 9) for f in sc.frame_list}
    assert len(ys) == 1  # stays in the overtaking lane


def test_rear_overtake_cut_in_narrative():
    sc = make_archetype("rear_overtake_cut_in")
    first, last = sc.span()
    ego0 = sc.state(0, first)
    rear0 = sc.state(1, first)
    assert rear0.position[0] < ego0.position[0]
    assert abs(rear0.position[1] - ego0.position[1]) > 1.0
    ego_end = sc.state(0, last)
    other_end = sc.state(1, last)
    assert other_end.position[0] > ego_end.position[0]
    assert abs(other_end.position[1] - ego_end.position[1]) < 1e-9


# ---- columnar archetypes and export against the row oracles ----

ARCHETYPE_OVERRIDES = {
    "blocked_lane_change": [
        {}, {"front_gap": 3.3, "target_speed": 0.1, "lane_width": -0.0}],
    "lateral_cut_in": [
        {}, {"lateral_speed": 0.7, "merger_accel": -1.3,
             "lateral_offset": 3.1},
        {"lateral_offset": 0.0}, {"long_offset": -7.7, "merger_accel": 2.9},
        # x = t ** 2 exactly, where libm pow and squaring can differ
        {"long_offset": -30.0, "merger_speed": 0.0, "merger_accel": 2.0,
         "lateral_offset": 40.0}],
    "rear_overtake_cut_in": [
        {}, {"rear_speed": 19.0}, {"rear_speed": 20.0},  # never cuts in
        {"rear_speed": 41.3, "lateral_speed": 0.37, "cut_in_lead": 3.3}],
}


def same_bits(got, want):
    """Equal shapes and values, floats compared bit for bit (so -0.0 is
    not 0.0)."""
    got, want = np.asarray(got), np.asarray(want)
    if want.dtype.kind == "f":
        got, want = got.astype(float).view(np.int64), want.view(np.int64)
    return got.shape == want.shape and np.array_equal(got, want)


def assert_archetype_matches_oracle(name, overrides, rate, duration):
    sc = make_archetype(name, overrides or None, frame_rate=rate,
                        duration=duration)
    p = {**_ARCHETYPE_DEFAULTS[name], **overrides}
    if duration is None:
        duration = _ARCHETYPE_DURATIONS[name]
    cols = list(zip(*oracles.archetype_rows(name, p, rate, duration)))
    categories = list(dict.fromkeys(cols[10]))
    assert [(k.category, k.label) for k in sc.kinds] == [
        (c, c) for c in categories]
    assert same_bits(sc.frame, np.array(cols[0], np.int64))
    assert same_bits(sc.agent_id, np.array(cols[1], np.int64))
    assert same_bits(sc.motion, np.array(cols[2:8], float).T)
    assert same_bits(sc.extent, np.array(cols[8:10], float).T)
    assert same_bits(sc.mass, np.array(cols[11], float))
    assert same_bits(sc.kind, [categories.index(c) for c in cols[10]])
    assert sc.source == f"archetype:{name}"
    assert same_bits(sc.offset, np.zeros(2))


@pytest.mark.parametrize("rate", [5.0, 10.0, 12.5, 25.0, 29.97, 30.0])
@pytest.mark.parametrize("name", ARCHETYPES)
def test_archetype_table_matches_row_oracle(name, rate):
    for overrides in ARCHETYPE_OVERRIDES[name]:
        for duration in (None, 0.0, 2.3, 37.1):
            assert_archetype_matches_oracle(name, overrides, rate, duration)


@given(name=st.sampled_from(ARCHETYPES), data=st.data(),
       rate=st.sampled_from([5.0, 10.0, 12.5, 25.0, 29.97, 30.0, 100.0]),
       duration=st.floats(0.0, 20.0))
@settings(max_examples=100, deadline=None)
def test_archetype_random_params_match_row_oracle(name, data, rate,
                                                  duration):
    keys = sorted(_ARCHETYPE_DEFAULTS[name])
    picked = data.draw(st.lists(st.sampled_from(keys), unique=True))
    overrides = {key: data.draw(
        st.floats(0.05, 5.0) if key == "lateral_speed"
        else st.floats(-40.0, 40.0), label=key) for key in picked}
    assert_archetype_matches_oracle(name, overrides, rate, duration)


def test_archetype_without_frames_is_refused():
    with pytest.raises(BadConfig, match="no states"):
        make_archetype("lateral_cut_in", duration=-1.0)


def assert_export_matches_csv_writer(sc, directory):
    got, want = directory / "got.csv", directory / "want.csv"
    export_tracks(sc, str(got))
    oracles.export_track_rows(sc, str(want))
    assert got.read_bytes() == want.read_bytes()


def test_export_matches_csv_writer_bytes(tmp_path):
    labels = ["car", "a,b", 'say "hi"', "two\r\nlines", "  spaced out ",
              "cr\ronly", ""]
    kinds = tuple(AgentKind("other", label) for label in labels)
    values = [-0.0, 0.0, 1e-05, 1e16, 5e-324, 0.1 + 0.2, 2.0 ** 53 - 1,
              -1e-05, 1e300, 123.456]
    top = 2 ** 53
    n_agents, n_frames = len(labels), 3
    n = n_agents * n_frames
    cycle = np.resize(np.array(values), 9 * n)
    sc = Scenario(
        25.0,
        np.repeat(np.arange(top - 3, top, dtype=np.int64), n_agents),
        np.tile(np.array([-top, -1, 0, 7, top - 2, top - 1, top],
                         np.int64), n_frames),
        cycle[:6 * n].reshape(n, 6), cycle[6 * n:8 * n].reshape(n, 2),
        cycle[8 * n:], np.tile(np.arange(n_agents), n_frames), kinds,
        "memory", offset=np.array([2.5, -1e-05]))
    assert_export_matches_csv_writer(sc, tmp_path)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_export_matches_csv_writer_random_tables(data, tmp_path_factory):
    n_agents = data.draw(st.integers(1, 4), label="agents")
    n_frames = data.draw(st.integers(1, 3), label="frames")
    n = n_agents * n_frames
    values = data.draw(st.lists(st.floats(), min_size=9 * n,
                                max_size=9 * n), label="values")
    cells = np.array(values).reshape(9, n)
    labels = data.draw(st.lists(
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
        min_size=1, max_size=3, unique=True), label="labels")
    ids = sorted(data.draw(st.lists(
        st.integers(-2 ** 53, 2 ** 53), min_size=n_agents,
        max_size=n_agents, unique=True), label="ids"))
    first = data.draw(st.integers(-2 ** 53, 2 ** 53 - n_frames),
                      label="first frame")
    codes = data.draw(st.lists(st.integers(0, len(labels) - 1),
                               min_size=n_agents, max_size=n_agents),
                      label="codes")
    offset = data.draw(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
                       label="offset")
    sc = Scenario(
        10.0, np.repeat(np.arange(first, first + n_frames), n_agents),
        np.tile(np.array(ids, np.int64), n_frames), cells[:6].T.copy(),
        cells[6:8].T.copy(), cells[8].copy(),
        np.tile(np.array(codes, np.intp), n_frames),
        tuple(AgentKind("other", label) for label in labels), "memory",
        offset=np.array(offset))
    assert_export_matches_csv_writer(sc, tmp_path_factory.mktemp("export"))


def test_export_of_loaded_highway_matches_csv_writer(tmp_path):
    """A loaded scene: shifted origin, mixed classes and masses."""
    rng = np.random.default_rng(5)
    rows = []
    for aid in range(6):
        x0, y0 = rng.uniform(-30.0, 80.0), rng.uniform(-5.0, 9.0)
        vx = rng.uniform(15.0, 35.0)
        for f in range(40):
            rows.append([f, aid, x0 + vx * f / 25.0, y0, vx, 0.0,
                         4.5, 2.0, rng.normal(), 0.0,
                         ("Car", "truck", "hover craft")[aid % 3],
                         1500.0 + aid])
    path = tmp_path / "tracks.csv"
    write_csv(path, rows, header=HEADER + ["xAcceleration", "yAcceleration",
                                           "class", "mass"])
    sc = load_tracks(str(path))
    assert sc.offset.any()
    assert_export_matches_csv_writer(sc, tmp_path)
