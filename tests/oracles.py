"""Independent straight-line oracles for the formula-level test cases.

Every function here recomputes an expected value directly from its
definition, using only the standard library and numpy.  Nothing is
imported from the package under test but the error types the track
loader and the predictor twins raise, and the functions share no helpers
with it, so agreement with the production code is evidence rather than
tautology.  The one exception is ``dataset_windows``, the per-file
dataset load: it composes the package's one-file loader and its windowing
of scenario lists, the path that the one-table load replaced.
"""

import csv
import math
import os

import numpy as np


# ---- scene geometry ----

def distance(pa, pb):
    return math.hypot(pb[0] - pa[0], pb[1] - pa[1])


def velocity_angle(va, vb, eps_speed=0.1):
    """Angle between two velocity vectors in [0, pi]; 0 when either is
    slower than eps_speed."""
    sa = math.hypot(va[0], va[1])
    sb = math.hypot(vb[0], vb[1])
    if sa < eps_speed or sb < eps_speed:
        return 0.0
    cos = (va[0] * vb[0] + va[1] * vb[1]) / (sa * sb)
    return math.acos(min(1.0, max(-1.0, cos)))


# ---- reference track loader ----
#
# The row-by-row loader the package's columnar one replaced: csv.DictReader,
# one float() and isfinite() per cell, then per-frame duplicate and
# per-agent contiguity loops.  It returns plain tuples and, apart from the
# error types it raises, uses no package code.  Two rules were added to it
# with the columnar loader: a missing cell makes its row non-finite (the
# class and mass cells used to raise AttributeError), and frame and id
# must be integers of magnitude at most 2**53 (they used to be truncated).
# A third came later: width, height and the mass, after a blank mass cell
# takes its kind default, must be positive.

TRACK_REQUIRED = ("frame", "id", "x", "y", "xVelocity", "yVelocity",
                  "width", "height")
TRACK_OPTIONAL = ("xAcceleration", "yAcceleration", "class", "mass")
TRACK_MASSES = {"pedestrian": 75.0, "bicycle": 90.0, "car": 1500.0,
                "truck": 15000.0, "other": 1500.0}
TRACK_KINDS = {"pedestrian": "pedestrian", "person": "pedestrian",
               "bicycle": "bicycle", "bike": "bicycle",
               "cyclist": "bicycle", "car": "car", "truck": "truck",
               "lorry": "truck", "truck_bus": "truck"}


def track_kind(raw):
    """(category, label) of a class cell; blank cells are cars."""
    if raw is None or not raw.strip():
        return "car", "car"
    category = TRACK_KINDS.get(raw.strip().lower())
    if category is None:
        return "other", raw.strip()
    return category, category


def load_track_rows(path, schema=None, kind_defaults=None):
    """Reference ingest of a track CSV.

    Returns (rows, agents, bounds, offset): rows are (frame, id, x, y, vx,
    vy, ax, ay, length, width, category, label, mass) in (frame, id)
    order with the shift applied, agents maps id to (category, label,
    mass, (length, width), first_frame, last_frame).
    """
    from risknet.errors import (
        BadConfig, MissingColumn, NonContiguousTrack, NonFinite, NonIntegral,
        NonPositive,
    )

    remap = dict(schema or {})
    masses = dict(TRACK_MASSES)
    masses.update(kind_defaults or {})
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        resolved = {}
        for name in TRACK_REQUIRED + TRACK_OPTIONAL:
            actual = remap.get(name, name)
            if actual in header:
                resolved[name] = actual
            elif name in TRACK_REQUIRED:
                raise MissingColumn(actual)
        raw_rows = list(reader)

    def cell(row, name, idx):
        try:
            value = float(row[resolved[name]])
        except (TypeError, ValueError):
            raise NonFinite(idx) from None
        if not math.isfinite(value):
            raise NonFinite(idx)
        return value

    parsed = []
    for idx, row in enumerate(raw_rows):
        values = [cell(row, name, idx) for name in TRACK_REQUIRED]
        for name in ("xAcceleration", "yAcceleration"):
            values.append(cell(row, name, idx) if name in resolved else 0.0)
        label = row[resolved["class"]] if "class" in resolved else ""
        if label is None:
            raise NonFinite(idx)
        category, label = track_kind(label)
        mass_cell = row[resolved["mass"]] if "mass" in resolved else ""
        if mass_cell is None:
            raise NonFinite(idx)
        if mass_cell.strip():
            mass = cell(row, "mass", idx)
        else:
            mass = float(masses[category])
        parsed.append((values, category, label, mass))

    for idx, (values, _, _, _) in enumerate(parsed):
        for name, value in zip(("frame", "id"), values[:2]):
            if value != math.trunc(value) or abs(value) > 2.0 ** 53:
                raise NonIntegral(idx, name, value)
    rows = []
    for idx, (values, category, label, mass) in enumerate(parsed):
        for name, value in zip(("width", "height", "mass"),
                               (values[6], values[7], mass)):
            if value <= 0.0:
                raise NonPositive(idx, name, value)
        frame, aid, x, y, vx, vy, length, width, ax, ay = values
        rows.append((int(frame), int(aid), x, y, vx, vy, ax, ay,
                     length, width, category, label, mass))
    if not rows:
        raise BadConfig(f"no data rows in {path}")

    shift = (max(0.0, -min(r[2] for r in rows)),
             max(0.0, -min(r[3] for r in rows)))
    if shift[0] > 0.0 or shift[1] > 0.0:
        rows = [(r[0], r[1], r[2] + shift[0], r[3] + shift[1]) + r[4:]
                for r in rows]

    seen = set()
    for r in rows:
        if (r[0], r[1]) in seen:
            raise BadConfig(f"agent {r[1]} appears twice at frame {r[0]}")
        seen.add((r[0], r[1]))
    agents = {}
    for aid in sorted({r[1] for r in rows}):
        track = sorted((r for r in rows if r[1] == aid), key=lambda r: r[0])
        for prev, cur in zip(track, track[1:]):
            if cur[0] != prev[0] + 1:
                raise NonContiguousTrack(aid, prev[0] + 1)
        head = track[0]
        agents[aid] = (head[10], head[11], head[12], (head[8], head[9]),
                       head[0], track[-1][0])
    bounds = (min(r[2] for r in rows), min(r[3] for r in rows),
              max(r[2] for r in rows), max(r[3] for r in rows))
    return sorted(rows, key=lambda r: (r[0], r[1])), agents, bounds, shift


def export_track_rows(scenario, path):
    """Reference export: every cell of the scenario's table through one
    csv.writer, floats as Python floats (written as their repr)."""
    motion = np.asarray(scenario.motion, float)
    labels = [kind.label for kind in scenario.kinds]
    columns = [
        scenario.frame.tolist(), scenario.agent_id.tolist(),
        *(motion[:, 0:2] - scenario.offset).T.tolist(),
        *motion[:, 2:6].T.tolist(), *scenario.extent.T.tolist(),
        [labels[k] for k in scenario.kind.tolist()], scenario.mass.tolist(),
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "id", "x", "y", "xVelocity", "yVelocity",
                         "xAcceleration", "yAcceleration", "width", "height",
                         "class", "mass"])
        writer.writerows(zip(*columns))


# ---- synthetic archetypes ----
#
# The per-row generator the columnar one replaced: one row per agent and
# frame, each coordinate computed with Python floats at t = k * dt.

ARCHETYPE_EXTENTS = {"car": (4.5, 2.0), "truck": (12.0, 2.5)}


def archetype_rows(name, p, frame_rate, duration):
    """Rows (frame, id, x, y, vx, vy, ax, ay, length, width, category,
    mass) of the named archetype under the complete parameter dict ``p``,
    in (frame, id) order."""
    n_frames = int(round(duration * frame_rate)) + 1
    dt = 1.0 / frame_rate
    rows = []

    def car(aid, k, x, y, vx, vy, ax=0.0, ay=0.0, category="car"):
        rows.append((k, aid, x, y, vx, vy, ax, ay,
                     *ARCHETYPE_EXTENTS[category], category,
                     TRACK_MASSES[category]))

    if name == "blocked_lane_change":
        half = 4.5  # two car half-lengths
        x_ego0 = 50.0
        x_front0 = x_ego0 + p["front_gap"] + half
        x_rear0 = x_ego0 - p["rear_gap"] - half
        x_target0 = x_ego0 + p["target_gap"] + half
        for k in range(n_frames):
            t = k * dt
            car(0, k, x_ego0 + p["ego_speed"] * t, 0.0, p["ego_speed"], 0.0)
            car(1, k, x_front0 + p["front_speed"] * t, 0.0,
                p["front_speed"], 0.0)
            car(2, k, x_rear0 + p["rear_speed"] * t, 0.0,
                p["rear_speed"], 0.0)
            car(3, k, x_target0 + p["target_speed"] * t, p["lane_width"],
                p["target_speed"], 0.0)

    elif name == "lateral_cut_in":
        x_ego0 = 30.0
        x_m0 = x_ego0 + p["long_offset"]
        t_entry = p["lateral_offset"] / p["lateral_speed"]
        x_entry = (x_m0 + p["merger_speed"] * t_entry
                   + 0.5 * p["merger_accel"] * t_entry ** 2)
        v_after = p["ego_speed"] - p["cut_speed_drop"]
        for k in range(n_frames):
            t = k * dt
            car(0, k, x_ego0 + p["ego_speed"] * t, 0.0, p["ego_speed"], 0.0,
                category="truck")
            if t < t_entry:
                car(1, k,
                    x_m0 + p["merger_speed"] * t
                    + 0.5 * p["merger_accel"] * t ** 2,
                    p["lateral_offset"] - p["lateral_speed"] * t,
                    p["merger_speed"] + p["merger_accel"] * t,
                    -p["lateral_speed"], ax=p["merger_accel"])
            else:
                car(1, k, x_entry + v_after * (t - t_entry), 0.0,
                    v_after, 0.0)

    else:  # rear_overtake_cut_in
        x_ego0 = 60.0
        x_r0 = x_ego0 - p["rear_gap"] - 4.5
        closing = p["rear_speed"] - p["ego_speed"]
        if closing > 0.0:
            t_cut = (p["cut_in_lead"] - (x_r0 - x_ego0)) / closing
        else:
            t_cut = math.inf
        x_cut = x_r0 + p["rear_speed"] * min(t_cut, 1e12)
        v_after = p["ego_speed"] - p["cut_speed_drop"]
        t_center = (t_cut + p["lane_offset"] / p["lateral_speed"]
                    if math.isfinite(t_cut) else math.inf)
        for k in range(n_frames):
            t = k * dt
            car(0, k, x_ego0 + p["ego_speed"] * t, 0.0, p["ego_speed"], 0.0)
            if t < t_cut:
                car(1, k, x_r0 + p["rear_speed"] * t, p["lane_offset"],
                    p["rear_speed"], 0.0)
            else:
                y = p["lane_offset"] - p["lateral_speed"] * (t - t_cut)
                vy = -p["lateral_speed"]
                if t >= t_center:
                    y, vy = 0.0, 0.0
                car(1, k, x_cut + v_after * (t - t_cut), y, v_after, vy)
    return rows


# ---- interaction field ----

def interaction_energy(m_i, m_j, k, C, v_i, v_j, unit_mass=False):
    dvx = v_i[0] - v_j[0]
    dvy = v_i[1] - v_j[1]
    mu = 1.0 if unit_mass else (m_i * m_j) / (m_i + m_j)
    return 0.5 * k * C * mu * (dvx * dvx + dvy * dvy)


def distance_floor(len_a, len_b):
    return max(1.0, 0.5 * (len_a + len_b))


def pairwise_force(energy, r, r_floor):
    return energy / max(r, r_floor)


def doppler_ratio(v0, speed_i, speed_j, theta):
    return (v0 + speed_i * math.cos(theta)) / (v0 - speed_j * math.cos(theta))


def alpha_lon(v0, speed_i, speed_j, theta, cap=10.0, eps_denominator=1e-6):
    denom = v0 - speed_j * math.cos(theta)
    if abs(denom) < eps_denominator:
        return cap
    return max(0.0, (v0 + speed_i * math.cos(theta)) / denom)


def alpha_lat(theta, beta):
    s = math.sin(theta)
    return math.exp(-beta * s * s)


def directional_force(ego, other, k, C, beta, v0, cap=10.0,
                      unit_mass=False):
    """Full pairwise summand from two plain state dicts with keys
    position, velocity, extent, mass."""
    energy = interaction_energy(ego["mass"], other["mass"], k, C,
                                ego["velocity"], other["velocity"],
                                unit_mass)
    r = distance(ego["position"], other["position"])
    floor = distance_floor(ego["extent"][0], other["extent"][0])
    force = pairwise_force(energy, r, floor)
    theta = velocity_angle(ego["velocity"], other["velocity"])
    si = math.hypot(*ego["velocity"])
    sj = math.hypot(*other["velocity"])
    return alpha_lon(v0, si, sj, theta, cap) * alpha_lat(theta, beta) * force


# ---- baselines ----

def heading_sign(vx_ego, eps_speed=0.1):
    """Travel direction along x: -1 when the ego moves toward -x faster
    than eps_speed, else +1 (a standing ego faces +x)."""
    return -1.0 if vx_ego < -eps_speed else 1.0


def bumper_gap(x_ego, length_ego, x, length, sign):
    """Bumper-to-bumper gap along the ego's travel direction (sign, as
    from heading_sign), negative on overlap."""
    return sign * (x - x_ego) - 0.5 * (length_ego + length)


def ttc(gap, v_ego, v_lead):
    closing = v_ego - v_lead
    if closing <= 0:
        return None
    return gap / closing


def thw(gap, v_ego, eps_speed=0.1):
    if v_ego < eps_speed:
        return None
    return gap / v_ego


def rss_safe_distance(v_rear, v_front, rho, a_max, b_min, b_max):
    reacted = v_rear + rho * a_max
    d = (v_rear * rho + 0.5 * a_max * rho * rho
         + reacted * reacted / (2.0 * b_min)
         - v_front * v_front / (2.0 * b_max))
    return max(0.0, d)


# ---- predictor pieces ----

def kinematic_step(x, v, u, dt):
    """Constant-acceleration position/velocity update."""
    x2 = (x[0] + v[0] * dt + 0.5 * u[0] * dt * dt,
          x[1] + v[1] * dt + 0.5 * u[1] * dt * dt)
    v2 = (v[0] + u[0] * dt, v[1] + u[1] * dt)
    return x2, v2


def transition_matrices(dt):
    F = np.array([
        [1.0, 0.0, dt, 0.0],
        [0.0, 1.0, 0.0, dt],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])
    G = np.array([
        [0.5 * dt * dt, 0.0],
        [0.0, 0.5 * dt * dt],
        [dt, 0.0],
        [0.0, dt],
    ])
    return F, G


def covariance_step(P, q, dt):
    F, G = transition_matrices(dt)
    return F @ np.asarray(P, float) @ F.T + G @ np.diag(q) @ G.T


def gaussian_nll_2d(truth, mean, cov):
    """Negative log density of a 2-d Gaussian, by direct inversion."""
    cov = np.asarray(cov, float)
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    inv = np.array([[cov[1, 1], -cov[0, 1]],
                    [-cov[1, 0], cov[0, 0]]]) / det
    d = np.asarray(truth, float) - np.asarray(mean, float)
    quad = float(d @ inv @ d)
    return 0.5 * (quad + math.log(det)) + math.log(2.0 * math.pi)


def mixture_nll(log_pis, means, covs, truths, ridge=1e-6):
    """Sum over steps of -log sum_l pi_l N(truth_p | mean_lp, cov_lp+ridge I),
    means/covs indexed [mode][step]."""
    horizon = len(truths)
    total = 0.0
    for p in range(horizon):
        terms = []
        for l, lp in enumerate(log_pis):
            cov = np.asarray(covs[l][p], float) + ridge * np.eye(2)
            terms.append(lp - gaussian_nll_2d(truths[p], means[l][p], cov))
        total -= math.log(sum(math.exp(t) for t in terms))
    return total


def zero_param_gru_step(h_prev):
    """Gated-cell update when every weight and bias is zero: both gates
    sit at one half and the candidate vanishes."""
    return [0.5 * h for h in h_prev]


def softmax(scores):
    m = max(scores)
    exps = [math.exp(s - m) for s in scores]
    z = sum(exps)
    return [e / z for e in exps]


# ---- probabilistic fusion ----

def finite_difference_velocity(x_now, x_hat, p, dt):
    return ((x_hat[0] - x_now[0]) / (p * dt),
            (x_hat[1] - x_now[1]) / (p * dt))


def weighted_sum(weights, values):
    return sum(w * v for w, v in zip(weights, values))


# ---- reference twins of the predictor ----
#
# The composed forms the package's fused nodes replaced: attention over a
# hidden sequence built from softmax, and the filter time update with its
# input validation.  Apart from the error types they raise, they use no
# package code.

def _values(v):
    return np.asarray(getattr(v, "data", v), float)


def attention_weights(dec, hiddens, query):
    """Softmax of the bilinear scores query @ w_att @ h_t / sqrt(d_h)."""
    H = np.stack([_values(h) for h in hiddens])
    scores = H @ (_values(query) @ _values(dec.w_att)) / math.sqrt(dec.d_h)
    e = np.exp(scores - scores.max())
    return e / e.sum()


def attend(dec, hiddens, query):
    """Attention-weighted context over a hidden sequence."""
    H = np.stack([_values(h) for h in hiddens])
    return attention_weights(dec, hiddens, query) @ H


class NotPSD(ValueError):
    """A covariance input is not symmetric positive semidefinite."""


def _check_psd(mat, name):
    if not np.all(np.isfinite(mat)):
        raise NotPSD(f"{name} has non-finite entries")
    if not np.allclose(mat, mat.T, atol=1e-9, rtol=0.0):
        raise NotPSD(f"{name} is not symmetric")
    if np.linalg.eigvalsh(mat).min() < -1e-9:
        raise NotPSD(f"{name} has a negative eigenvalue")


def ekf_propagate(state, cov, control, Q, dt):
    """One time update of the kinematic filter: positions advance by
    v*dt + u*dt^2/2, velocities by u*dt, and the covariance is pushed
    through the constant Jacobian and inflated by the control-mapped
    process noise."""
    from risknet.errors import ShapeMismatch

    state = np.asarray(state, float)
    cov = np.asarray(cov, float)
    control = np.asarray(control, float)
    Q = np.asarray(Q, float)
    if state.shape != (4,) or cov.shape != (4, 4):
        raise ShapeMismatch("state must be (4,), covariance (4, 4)")
    if control.shape != (2,) or Q.shape != (2, 2):
        raise ShapeMismatch("control must be (2,), Q (2, 2)")
    _check_psd(cov, "covariance")
    _check_psd(Q, "process noise")
    F, G = transition_matrices(dt)
    return F @ state + G @ control, F @ cov @ F.T + G @ Q @ G.T


# ---- star history steps ----
#
# The per-target star builder the one-pass radius rule replaced: at each
# frame, the target and every other agent within the radius by
# math.hypot, ascending by id, with their motion rows less the centre.
# It reads the scenario's table columns only.

def star_steps(scenario, target, frames, center, radius):
    steps = []
    for f in frames:
        rows = np.flatnonzero(scenario.frame == f).tolist()
        ids = scenario.agent_id.tolist()
        own = next(r for r in rows if ids[r] == target)
        ox, oy = scenario.motion[own, 0:2].tolist()
        near = sorted((r for r in rows if r != own and math.hypot(
            scenario.motion[r, 0] - ox, scenario.motion[r, 1] - oy)
            <= radius), key=ids.__getitem__)
        x = scenario.motion[[own] + near]
        x[:, :2] -= center
        steps.append((np.array([target] + [ids[r] for r in near]), x))
    return steps


# ---- per-file training windows ----
#
# The windowing that stacking the corpus into one table replaced: each
# scenario on its own, its targets ascending by id, each target's windows
# by first frame.  A window keeps when every agent of its history stars
# (star_steps) is present at the window's first and last frame.  Windows
# are dicts of the fields WindowBatch holds, one window each.

def corpus_windows(scenarios, t_h, t_f, radius):
    windows = []
    for sc in scenarios:
        pairs = list(zip(sc.agent_id.tolist(), sc.frame.tolist()))
        span = {}
        for a, f in pairs:
            first, last = span.get(a, (f, f))
            span[a] = (min(first, f), max(last, f))
        for target in sorted(span):
            row = {f: r for r, (a, f) in enumerate(pairs) if a == target}
            first, last = span[target]
            for start in range(first, last - t_h - t_f + 2):
                now, end = start + t_h - 1, start + t_h + t_f - 1
                center = sc.motion[row[now], 0:2]
                steps = star_steps(sc, target, range(start, now + 1),
                                   center, radius)
                involved = {a for ids, _ in steps for a in ids.tolist()}
                if all(span[a][0] <= f <= span[a][1]
                       for a in involved for f in (start, end)):
                    windows.append({
                        "target_id": target, "frame": now, "steps": steps,
                        "x0": np.array([0.0, 0.0,
                                        *sc.motion[row[now], 2:4]]),
                        "truth": np.array([sc.motion[row[f], 0:2] - center
                                           for f in range(now + 1, end + 1)]),
                        "offset": center, "dt": sc.dt})
    return windows


# ---- per-file dataset load ----
#
# The training load that the one-table load (scene.load_dataset)
# replaced: each file through load_tracks on its own, in the given order,
# the first refusal raised with the file's base name before its message;
# then corpus_windows stacks the scenarios.

def dataset_windows(paths, frame_rate, hyper, radius):
    from risknet.errors import InputError
    from risknet.predictor.train import corpus_windows
    from risknet.scene import load_tracks

    scenarios = []
    for path in paths:
        try:
            scenarios.append(load_tracks(path, frame_rate))
        except InputError as exc:
            exc.args = (f"{os.path.basename(path)}: {exc}",)
            raise
    return corpus_windows(scenarios, hyper, radius=radius)


# ---- reference history packer ----
#
# The dict-and-graph packer the array star packer replaced: each history
# step maps agent ids to feature vectors and carries an interaction graph,
# and an agent's neighbours are its graph neighbours present in the step.
# It reads only ``graph.edges`` and, apart from the error type it raises,
# uses no package code.  It returns the six PackedStep fields per step, in
# field order, and the row maps.

def _adjacency(graph):
    adjacent = {}
    for a, b in graph.edges:
        adjacent.setdefault(a, set()).add(b)
        adjacent.setdefault(b, set()).add(a)
    return {a: sorted(ids) for a, ids in adjacent.items()}


def _neighbour_slots(n_rows, slots):
    lengths = np.zeros(n_rows, dtype=np.intp)
    order = sorted(slots)
    lengths[order] = [len(slots[r]) for r in order]
    used = np.arange(lengths.max(initial=0)) < lengths[:, None]
    nbr_rows = np.zeros(used.shape, dtype=np.intp)
    nbr_rows[used] = [w for r in order for w in slots[r]]
    nbr_mask = used.astype(float)
    return nbr_rows, nbr_mask, np.maximum(nbr_mask.sum(axis=1), 1.0)


def _neighbour_means(x, nbr_rows, nbr_mask, nbr_count):
    if not nbr_rows.shape[1]:
        return np.zeros_like(x)
    used = nbr_mask.astype(bool)[..., None]
    total = x[nbr_rows[:, 0]]
    for k in range(1, nbr_rows.shape[1]):
        total = np.where(used[:, k], total + x[nbr_rows[:, k]], total)
    return np.where(used[:, 0], total / nbr_count[:, None], 0.0)


def pack_graph_histories(histories, d_in=6):
    """Histories of (features dict, graph) steps packed into rows, one per
    (window, agent) pair, agents ascending by id within each window."""
    from risknet.errors import ShapeMismatch

    if not histories or not histories[0]:
        raise ShapeMismatch("history must contain at least one step")
    n_steps = len(histories[0])
    if any(len(h) != n_steps for h in histories):
        raise ShapeMismatch("packed histories must have equal lengths")
    row_maps = []
    n_rows = 0
    for history in histories:
        ids = sorted(set().union(*(feats.keys() for feats, _ in history)))
        row_maps.append({a: n_rows + i for i, a in enumerate(ids)})
        n_rows += len(ids)
    steps = []
    for s in range(n_steps):
        x = np.zeros((n_rows, d_in))
        present = np.zeros(n_rows, dtype=bool)
        filled, values, slots = [], [], {}
        for history, rows in zip(histories, row_maps):
            feats, graph = history[s]
            adjacent = _adjacency(graph)
            for a, value in feats.items():
                v = np.asarray(value, float)
                if v.shape != (d_in,):
                    raise ShapeMismatch(f"feature dim {v.shape}")
                filled.append(rows[a])
                values.append(v)
                ids = [rows[w] for w in adjacent.get(a, ()) if w in feats]
                if ids:
                    slots[rows[a]] = ids
        if filled:
            x[filled] = values
            present[filled] = True
        nbr = _neighbour_slots(n_rows, slots)
        steps.append((x, _neighbour_means(x, *nbr), present) + nbr)
    return steps, row_maps
