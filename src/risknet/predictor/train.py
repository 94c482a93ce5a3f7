"""Dataset windowing, training loop, and gradient verification."""

import functools
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import BadConfig, DegenerateCovariance, NonFiniteLoss
from ..scene import (
    CAR,
    CAR_EXTENT,
    DEFAULT_MASSES,
    AgentState,
    Scenario,
    scenario_from_states,
)
from . import autodiff as ad
from .autodiff import Tensor
from .model import (
    DecoderParams,
    GraphCellParams,
    MixturePrediction,
    PackedStep,
    _decode_graph,
    _mixture_nll,
    assemble_model,
    decode_batch,
    encode_packed,
    pack_histories,
    parameter_items,
    parameter_shapes,
    validate_mixtures,
)
# unused here, kept importable: bench/tracing.py binds these three names
from ..scene import build_graph  # noqa: F401
from .model import decode, encode  # noqa: F401


# Longest forecast a model may make, in steps (40 s at 25 Hz): t_f sizes
# every decode, so a model file cannot ask for an unbounded one.
MAX_T_F = 1000


@dataclass
class TrainHyper:
    """Model and optimizer hyperparameters; t_f is at most MAX_T_F."""

    d_h: int = 32
    modes: int = 3
    t_h: int = 10
    t_f: int = 15
    dt: float = 0.2
    lr: float = 0.05
    epochs: int = 100
    seed: int = 0
    clip_norm: float = 5.0

    def __post_init__(self):
        if self.d_h < 1 or self.modes < 1 or self.t_h < 1 or self.t_f < 1:
            raise BadConfig("d_h, modes, t_h, t_f must all be >= 1")
        if self.t_f > MAX_T_F:
            raise BadConfig(f"t_f = {self.t_f} exceeds the longest horizon, "
                            f"{MAX_T_F} steps")
        if self.dt <= 0 or self.lr <= 0 or self.clip_norm <= 0:
            raise BadConfig("dt, lr, clip_norm must be positive")
        if self.epochs < 0 or self.seed < 0:
            raise BadConfig("epochs and seed must be nonnegative")


def init_model(hyper: TrainHyper) -> Tuple[GraphCellParams, DecoderParams]:
    """Fresh parameters, each entry drawn uniform(-0.1, 0.1) from the
    seeded generator in canonical parameter order."""
    rng = np.random.default_rng(hyper.seed)
    return assemble_model(hyper, (rng.uniform(-0.1, 0.1, shape)
                                  for _, shape in parameter_shapes(hyper)))


# ==================== dataset windows ====================

def _history_entries(motion: np.ndarray, history: np.ndarray,
                     centers: np.ndarray, stars: Tuple[np.ndarray, ...]):
    """The stars of the history rows (windows, steps) as entries by step,
    then by window: each entry's window, step, table row, and motion row
    less its window's centre in position; and each star's first entry."""
    own, ptr, members = stars
    at = np.searchsorted(own, history.T.ravel())
    size = ptr[at + 1] - ptr[at]
    first = np.cumsum(size) - size
    member = members[np.repeat(ptr[at] - first, size)
                     + np.arange(size.sum())]
    step, window = np.divmod(np.repeat(np.arange(at.size), size),
                             max(1, len(history)))
    x = motion[member]
    x[:, :2] -= centers[window]
    return window, step, member, x, first


@dataclass(eq=False)
class WindowBatch:
    """Prediction windows over one table, packed on first use.

    Window w's history step s is the star (``Scenario.stars``) of its
    target's table row ``history[w, s]``.  Coordinates are centred on the
    target's position at ``frame``; ``offset`` restores world
    coordinates.  ``agent`` and ``motion`` are the table's id and motion
    columns.
    """

    target_id: np.ndarray  # (B,)
    frame: np.ndarray  # (B,) last history frame (prediction time)
    history: np.ndarray  # (B, t_h) table rows, oldest first
    stars: Tuple[np.ndarray, ...]  # (own, ptr, members)
    agent: np.ndarray  # (n,)
    motion: np.ndarray  # (n, 6)
    x0: np.ndarray  # (B, 4) centred state at `frame`
    truth: np.ndarray  # (B, t_f, 2) centred future positions
    offset: np.ndarray  # (B, 2) world position of the centre
    dt: np.ndarray  # (B,) frame step, s

    def __len__(self) -> int:
        return len(self.x0)

    def __getitem__(self, index) -> "WindowBatch":
        """The windows at ``index``; an int gives a batch of one."""
        keep = np.atleast_1d(np.arange(len(self))[index])
        return replace(self, **{f: getattr(self, f)[keep] for f in (
            "target_id", "frame", "history", "x0", "truth", "offset", "dt")})

    @functools.cached_property
    def packed(self) -> Tuple[List[PackedStep], np.ndarray]:
        """The packed history steps and each window's target row."""
        window, step, member, x, first = _history_entries(
            self.motion, self.history, self.offset, self.stars)
        steps, rows = pack_histories(window, step, self.agent[member], x,
                                     self.history.shape[1])
        return steps, rows[first[:len(self)]]


def _batch(scenario: Scenario, rows: np.ndarray, t_h: int,
           stars: Tuple[np.ndarray, ...]) -> WindowBatch:
    """The windows whose targets' table rows are ``rows``, t_h of history
    and the rest future."""
    frame, ids, motion = scenario.frame, scenario.agent_id, scenario.motion
    now = rows[:, t_h - 1]
    x0 = np.zeros((len(rows), 4))
    x0[:, 2:] = motion[now, 2:4]
    return WindowBatch(
        ids[rows[:, 0]], frame[now], rows[:, :t_h], stars, ids, motion, x0,
        motion[rows[:, t_h:], 0:2] - motion[now, None, 0:2],
        motion[now, 0:2], np.full(len(rows), scenario.dt))


def extract_windows(
    scenario: Scenario,
    hyper: TrainHyper,
    radius: float = 50.0,
    targets: Optional[Sequence[int]] = None,
) -> WindowBatch:
    """Slide (t_h history, t_f future) windows over every target agent,
    by target id and then by frame.

    A window is dropped when any involved agent (the target or any
    neighbor appearing in a history star) is absent from any frame of the
    window.
    """
    t_h, length = hyper.t_h, hyper.t_h + hyper.t_f
    frame, ids = scenario.frame, scenario.agent_id
    # rows sort by (frame, id) and tracks have no gaps: a track's first
    # row is at its first frame, and its rows are its frames
    _, head, track, count = np.unique(ids, return_index=True,
                                      return_inverse=True, return_counts=True)
    n = np.maximum(count - length + 1, 0)
    first = (np.repeat(np.cumsum(count - n) - count + n, n)
             + np.arange(n.sum()))
    rows = np.argsort(track, kind="stable")[first[:, None]
                                            + np.arange(length)]
    if targets is not None:
        picked = [np.zeros(0, dtype=np.intp)]
        for target in sorted(targets):
            if target not in scenario.agents:
                raise BadConfig(f"unknown target agent {target}")
            picked.append(np.flatnonzero(ids[rows[:, 0]] == target))
        rows = rows[np.concatenate(picked)]
    stars = own, ptr, members = scenario.stars(rows[:, :t_h], radius)
    # an agent at both ends of a window is at every frame of it: keep
    # the windows whose star members' tracks span both end frames
    enters = frame[head][track[members]]
    late = np.maximum.reduceat(enters, ptr[:-1])
    early = np.minimum.reduceat(enters + count[track[members]] - 1, ptr[:-1])
    at = np.searchsorted(own, rows[:, :t_h])
    rows = rows[(late[at].max(axis=1) <= frame[rows[:, 0]])
                & (early[at].min(axis=1) >= frame[rows[:, -1]])]
    return _batch(scenario, rows, t_h, stars)


# ==================== loss over a batch of windows ====================

def _window_loss(
    cell: GraphCellParams,
    dec: DecoderParams,
    batch: WindowBatch,
) -> Tensor:
    """Mean mixture NLL over the batch's windows."""
    steps, target_rows = batch.packed
    hiddens = encode_packed(cell, steps)
    H = ad.stack([ad.getitem(h, target_rows) for h in hiddens], axis=1)
    logits, states, covs = _decode_graph(dec, H, batch.x0)
    log_pis = ad.sub(logits, ad.logsumexp(logits, keepdims=True))
    losses = _mixture_nll(log_pis, states, covs, batch.truth)
    return ad.div(ad.tsum(losses), float(len(batch)))


# ==================== training loop ====================

@np.errstate(over="ignore", invalid="ignore")
def train(
    batch: WindowBatch,
    hyper: TrainHyper,
) -> Tuple[GraphCellParams, DecoderParams, List[float]]:
    """Full-batch gradient descent on the mean window loss; the windows'
    lengths must be ``hyper.t_h`` and ``hyper.t_f``, and their frame step
    the decoder step ``hyper.dt``.

    The windows are packed once; each epoch records one tape over all of
    them.  Returns the trained parameters and the loss curve: entry 0 is
    the loss of the fresh parameters, entry e the loss after e updates, so
    the curve has epochs + 1 entries and epochs = 0 records only the
    initial loss.  Deterministic given the seed.
    """
    if not len(batch):
        raise BadConfig("training dataset is empty")
    lengths = (batch.history.shape[1], batch.truth.shape[1])
    if lengths != (hyper.t_h, hyper.t_f):
        raise BadConfig(f"windows of t_h, t_f = {lengths} do not match "
                        f"the model's {(hyper.t_h, hyper.t_f)}")
    off = np.flatnonzero(np.abs(batch.dt - hyper.dt) > 1e-9)
    if off.size:
        raise BadConfig(f"training window step {float(batch.dt[off[0]])} s "
                        f"does not match decoder step {hyper.dt} s")
    cell, dec = init_model(hyper)
    params = parameter_items(cell, dec)
    curve: List[float] = []
    for epoch in range(hyper.epochs):
        for _, p in params:
            p.grad = None
        total = _window_loss(cell, dec, batch)
        mean_loss = float(total.data)
        if not math.isfinite(mean_loss):
            raise NonFiniteLoss(epoch)
        curve.append(mean_loss)
        ad.backward(total)
        sq = 0.0
        for _, p in params:
            if p.grad is not None:
                sq += float((p.grad * p.grad).sum())
        norm = math.sqrt(sq)
        scale = hyper.lr
        if norm > hyper.clip_norm:
            scale *= hyper.clip_norm / norm
        for _, p in params:
            if p.grad is not None:
                p.data = p.data - scale * p.grad
    with ad.no_grad():
        final = float(_window_loss(cell, dec, batch).data)
    if not math.isfinite(final):
        raise NonFiniteLoss(hyper.epochs)
    curve.append(final)
    return cell, dec, curve


# ==================== gradient verification ====================

def gradient_check(
    cell: GraphCellParams,
    dec: DecoderParams,
    batch: WindowBatch,
    eps: float = 1e-5,
) -> float:
    """Worst relative error between analytic and central finite-difference
    gradients of the batch loss over every parameter entry."""
    params = parameter_items(cell, dec)
    for _, p in params:
        p.grad = None
    loss = _window_loss(cell, dec, batch)
    ad.backward(loss)
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
        for _, p in params
    ]

    def loss_value() -> float:
        with ad.no_grad():
            return float(_window_loss(cell, dec, batch).data)

    worst = 0.0
    for (_, p), grad in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = loss_value()
            flat[i] = keep - eps
            down = loss_value()
            flat[i] = keep
            numeric = (up - down) / (2.0 * eps)
            rel = abs(gflat[i] - numeric) / max(
                1e-4, abs(gflat[i]) + abs(numeric)
            )
            worst = max(worst, rel)
    return worst


# ==================== synthetic corpus ====================

def constant_motion_tracks(
    n_tracks: int,
    hyper: TrainHyper,
    seed: int = 0,
) -> List[Scenario]:
    """Single-agent scenarios alternating straight constant-velocity and
    constant-turn motion, each exactly one window long."""
    if n_tracks < 1:
        raise BadConfig("need at least one track")
    rng = np.random.default_rng(seed)
    frame_rate = 1.0 / hyper.dt
    n_frames = hyper.t_h + hyper.t_f
    scenarios: List[Scenario] = []
    for k in range(n_tracks):
        speed = rng.uniform(3.0, 7.0)
        heading = rng.uniform(-math.pi, math.pi)
        x0 = rng.uniform(0.0, 100.0)
        y0 = rng.uniform(0.0, 100.0)
        turning = k % 2 == 1
        omega = rng.uniform(0.04, 0.1) * (1 if rng.uniform() < 0.5 else -1)
        states = []
        for f in range(n_frames):
            t = f * hyper.dt
            if turning:
                phi = heading + omega * t
                px = x0 + (speed / omega) * (math.sin(phi) - math.sin(heading))
                py = y0 - (speed / omega) * (math.cos(phi) - math.cos(heading))
                vel = (speed * math.cos(phi), speed * math.sin(phi))
                acc = (-speed * omega * math.sin(phi),
                       speed * omega * math.cos(phi))
            else:
                px = x0 + speed * math.cos(heading) * t
                py = y0 + speed * math.sin(heading) * t
                vel = (speed * math.cos(heading), speed * math.sin(heading))
                acc = (0.0, 0.0)
            states.append(AgentState(
                agent_id=0, frame=f, position=np.array([px, py]),
                velocity=np.array(vel), acceleration=np.array(acc),
                extent=CAR_EXTENT, mass=DEFAULT_MASSES["car"], kind=CAR,
            ))
        scenarios.append(scenario_from_states(
            states, frame_rate=frame_rate, source=f"synthetic-track-{k}"
        ))
    return scenarios


def corpus_windows(
    scenarios: Sequence[Scenario], hyper: TrainHyper, radius: float = 50.0
) -> WindowBatch:
    """Every scenario's windows (``extract_windows``), in scenario order,
    as one batch.

    The scenarios are stacked into one table.  Their (scenario, id) pairs
    and (scenario, frame) pairs become dense ints in that order, so no
    track or star crosses two scenarios and one pass serves the corpus.
    The batch keeps the scenarios' own ids, frames and frame steps.
    """
    if not scenarios:
        raise BadConfig("training dataset is empty")
    frame, ids, *columns, kind = (np.concatenate(c) for c in zip(*(
        (sc.frame, sc.agent_id, sc.motion, sc.extent, sc.mass, sc.kind)
        for sc in scenarios)))
    sizes = [sc.frame.size for sc in scenarios]
    source = np.repeat(np.arange(len(scenarios)), sizes)
    # rank the values, then number the (scenario, rank) pairs in order
    dense_frame, dense_id = (
        np.unique(source * ids.size + np.unique(v, return_inverse=True)[1],
                  return_inverse=True)[1] for v in (frame, ids))
    kind += np.repeat(np.cumsum([0] + [len(sc.kinds) for sc in scenarios])
                      [:-1], sizes)
    batch = extract_windows(Scenario(
        scenarios[0].frame_rate, dense_frame, dense_id, *columns, kind,
        [k for sc in scenarios for k in sc.kinds], "corpus"), hyper, radius)
    head, now = batch.history[:, 0], batch.history[:, -1]
    steps = np.array([sc.dt for sc in scenarios])
    return replace(batch, target_id=ids[head], frame=frame[now], agent=ids,
                   dt=steps[source[head]])


# ==================== inference on scenarios ====================

@np.errstate(over="ignore", invalid="ignore")
def predict_frame(
    cell: GraphCellParams,
    dec: DecoderParams,
    scenario: Scenario,
    agent_ids: Sequence[int],
    frame: int,
    radius: float = 50.0,
    t_h: Optional[int] = None,
) -> Dict[int, MixturePrediction]:
    """Forecast every given agent from its history window ending at
    ``frame``, in the order given.

    Each agent is its own window: its star graph at each history frame
    and the features of it and its neighbours, centred on its position at
    ``frame``.  ``t_h`` bounds the history length; by default all frames
    from the agent's first appearance are used.  Windows of equal length
    are packed, encoded and decoded together, and every computation is
    row by row, so an agent's forecast equals its forecast alone bit for
    bit.  Forecasts are in world coordinates and carry the agent's
    current state as their anchor.
    """
    if abs(scenario.dt - dec.dt) > 1e-9:
        raise BadConfig(f"scenario step {scenario.dt} s does not match "
                        f"decoder step {dec.dt} s")
    by_length: Dict[int, List[int]] = {}
    for agent_id in agent_ids:
        if agent_id not in scenario.agents:
            raise BadConfig(f"unknown agent {agent_id}")
        info = scenario.agents[agent_id]
        if frame < info.first_frame or frame > info.last_frame:
            raise BadConfig(f"agent {agent_id} absent at frame {frame}")
        available = frame - info.first_frame + 1
        length = available if t_h is None else min(t_h, available)
        if length < 1:
            raise BadConfig("history must contain at least one frame")
        by_length.setdefault(length, []).append(agent_id)
    preds: Dict[int, MixturePrediction] = {}
    for length, group in by_length.items():
        rows = np.array([[scenario.row(a, f)
                          for f in range(frame - length + 1, frame + 1)]
                         for a in group])
        batch = _batch(scenario, rows, length, scenario.stars(rows, radius))
        steps, targets = batch.packed
        with ad.no_grad():
            hiddens = encode_packed(cell, steps)
        H = np.stack([h.data[targets] for h in hiddens], axis=1)
        for agent_id, center, row, pred in zip(
                group, batch.offset, rows[:, -1],
                decode_batch(dec, H, batch.x0)):
            for mode in pred.modes:
                mode.states[:, :2] += center
            pred.anchor = scenario.row_state(row)
            preds[agent_id] = pred
    preds = {a: preds[a] for a in agent_ids}
    try:
        if preds:
            validate_mixtures(list(preds.values()))
    except ValueError as exc:  # a rollout that overflowed
        raise DegenerateCovariance(f"forecast at frame {frame}: {exc}")
    return preds


def predict_for_agent(
    cell: GraphCellParams,
    dec: DecoderParams,
    scenario: Scenario,
    agent_id: int,
    frame: int,
    radius: float = 50.0,
    t_h: Optional[int] = None,
) -> MixturePrediction:
    """Forecast one agent: ``predict_frame`` on a batch of one."""
    return predict_frame(cell, dec, scenario, [agent_id], frame,
                         radius=radius, t_h=t_h)[agent_id]
