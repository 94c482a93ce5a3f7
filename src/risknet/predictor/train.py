"""Dataset windowing, training loop, and gradient verification."""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import BadConfig, DegenerateCovariance, NonFiniteLoss
from ..scene import (
    CAR,
    CAR_EXTENT,
    DEFAULT_MASSES,
    AgentState,
    Scenario,
    in_radius,
    scenario_from_states,
)
from . import autodiff as ad
from .autodiff import Tensor
from .model import (
    DecoderParams,
    GraphCellParams,
    HistoryStep,
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


@dataclass
class TrainHyper:
    """Model and optimizer hyperparameters."""

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

@dataclass
class TrainingSample:
    """One prediction window.

    Coordinates are centered on the target's position at the prediction
    frame; ``offset`` restores world coordinates.
    """

    target_id: int
    frame: int  # last history frame (prediction time)
    steps: List[HistoryStep]  # t_h target-centred stars, oldest first
    x0: np.ndarray  # (4,) centered state at `frame`
    truth: np.ndarray  # (t_f, 2) centered future positions
    offset: np.ndarray  # (2,) world position of the center
    dt: float


def _star_steps(scenario: Scenario, rows: np.ndarray, centers: np.ndarray,
                radius: float) -> List[List[HistoryStep]]:
    """Each window's history: at step s of window w, the star of the
    target's table row ``rows[w, s]`` (the target, then every other agent
    of its frame within ``radius``, ascending by id) and their ``motion``
    rows less ``centers[w]`` in position.  One ``in_radius`` pass over
    the frames of the distinct rows serves every window."""
    own = np.unique(rows)
    # each distinct row, then the other rows of its frame
    cols = np.concatenate((own[:, None], scenario.others_at(own)), axis=1)
    xy = scenario.motion[:, 0:2]
    keep = in_radius(xy[cols], xy[own, None], radius) & (cols != own[:, None])
    keep[:, 0] = True
    at = np.searchsorted(own, rows.ravel())  # (window, step) order
    star, size = cols[at][keep[at]], keep.sum(axis=1)[at]
    ids, x = scenario.agent_id[star], scenario.motion[star]
    x[:, :2] -= np.repeat(centers, size.reshape(rows.shape).sum(axis=1), 0)
    cut = [0, *size.cumsum().tolist()]
    steps = [(ids[a:b], x[a:b]) for a, b in zip(cut, cut[1:])]
    t = rows.shape[1]
    return [steps[i:i + t] for i in range(0, len(steps), t)]


def extract_windows(
    scenario: Scenario,
    hyper: TrainHyper,
    radius: float = 50.0,
    targets: Optional[Sequence[int]] = None,
) -> List[TrainingSample]:
    """Slide (t_h history, t_f future) windows over every target agent.

    A window is dropped when any involved agent (the target or any
    neighbor appearing in a history graph) is absent from any frame of
    the window.
    """
    t_h, t_f = hyper.t_h, hyper.t_f
    length = t_h + t_f
    windows = [np.empty((0, length), dtype=np.intp)]
    for target in sorted(scenario.agents if targets is None else targets):
        if target not in scenario.agents:
            raise BadConfig(f"unknown target agent {target}")
        # a track has no gaps, so its rows are its frames in order
        track = np.flatnonzero(scenario.agent_id == target)
        windows.append(track[np.arange(track.size - length + 1)[:, None]
                             + np.arange(length)])
    rows = np.concatenate(windows)
    if not rows.size:
        return []
    centers = scenario.motion[rows[:, t_h - 1], 0:2]
    samples: List[TrainingSample] = []
    for row, center, steps in zip(rows, centers, _star_steps(
            scenario, rows[:, :t_h], centers, radius)):
        # an agent at both ends of the window is at every frame of it
        ends = scenario.frame[row[[0, -1]]].tolist()
        involved = {a for ids, _ in steps for a in ids.tolist()}
        if all(scenario.has_state(a, f) for a in involved for f in ends):
            now = scenario.motion[row[t_h - 1]]
            samples.append(TrainingSample(
                target_id=int(scenario.agent_id[row[0]]),
                frame=int(scenario.frame[row[t_h - 1]]), steps=steps,
                x0=np.array([0.0, 0.0, now[2], now[3]]),
                truth=scenario.motion[row[t_h:], 0:2] - center,
                offset=center, dt=scenario.dt,
            ))
    return samples


# ==================== loss over a batch of windows ====================

@dataclass
class WindowBatch:
    """Windows sharing t_h and t_f, packed once for the encoder."""

    steps: List[PackedStep]  # t_h packed history steps
    target_rows: np.ndarray  # (B,) packed row of each window's target
    x0: np.ndarray  # (B, 4)
    truth: np.ndarray  # (B, t_f, 2)


def pack_windows(samples: Sequence[TrainingSample]) -> WindowBatch:
    """Pack windows of equal history and horizon length into one batch."""
    if len({(len(s.steps), s.truth.shape) for s in samples}) != 1:
        raise BadConfig("windows of one batch must share t_h and t_f")
    steps, rows = pack_histories([s.steps for s in samples])
    return WindowBatch(
        steps=steps,
        target_rows=np.array([r[s.target_id] for r, s in zip(rows, samples)]),
        x0=np.stack([s.x0 for s in samples]),
        truth=np.stack([s.truth for s in samples]),
    )


def _window_loss(
    cell: GraphCellParams,
    dec: DecoderParams,
    sample: Union[TrainingSample, WindowBatch],
) -> Tensor:
    """Mean mixture NLL over a packed batch; a single window is a batch
    of one."""
    batch = sample if isinstance(sample, WindowBatch) else pack_windows(
        [sample])
    hiddens = encode_packed(cell, batch.steps)
    H = ad.stack([ad.getitem(h, batch.target_rows) for h in hiddens],
                 axis=1)
    logits, states, covs = _decode_graph(dec, H, batch.x0)
    log_pis = ad.sub(logits, ad.logsumexp(logits, keepdims=True))
    losses = _mixture_nll(log_pis, states, covs, batch.truth)
    return ad.div(ad.tsum(losses), float(len(batch.x0)))


# ==================== training loop ====================

@np.errstate(over="ignore", invalid="ignore")
def train(
    dataset: Sequence[TrainingSample],
    hyper: TrainHyper,
) -> Tuple[GraphCellParams, DecoderParams, List[float]]:
    """Full-batch gradient descent on the mean window loss; every
    window's frame step must be the decoder step ``hyper.dt``.

    The windows are packed once; each epoch records one tape over all of
    them.  Returns the trained parameters and the loss curve: entry 0 is
    the loss of the fresh parameters, entry e the loss after e updates, so
    the curve has epochs + 1 entries and epochs = 0 records only the
    initial loss.  Deterministic given the seed.
    """
    if not dataset:
        raise BadConfig("training dataset is empty")
    step = next((s.dt for s in dataset if abs(s.dt - hyper.dt) > 1e-9), None)
    if step is not None:
        raise BadConfig(f"training window step {step} s does not match "
                        f"decoder step {hyper.dt} s")
    batch = pack_windows(dataset)
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
    sample: TrainingSample,
    eps: float = 1e-5,
) -> float:
    """Worst relative error between analytic and central finite-difference
    gradients of the window loss over every parameter entry."""
    params = parameter_items(cell, dec)
    for _, p in params:
        p.grad = None
    batch = pack_windows([sample])
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
) -> List[TrainingSample]:
    samples: List[TrainingSample] = []
    for sc in scenarios:
        samples.extend(extract_windows(sc, hyper, radius=radius))
    return samples


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
        raise BadConfig(
            f"scenario step {scenario.dt} s does not match decoder step "
            f"{dec.dt} s"
        )
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
        history = np.array([[scenario.row(a, f)
                             for f in range(frame - length + 1, frame + 1)]
                            for a in group])
        anchors = history[:, -1]
        centers = scenario.motion[anchors, 0:2]
        steps, rows = pack_histories(
            _star_steps(scenario, history, centers, radius))
        with ad.no_grad():
            hiddens = encode_packed(cell, steps)
        targets = [r[a] for r, a in zip(rows, group)]
        H = np.stack([h.data[targets] for h in hiddens], axis=1)
        x0 = np.zeros((len(group), 4))
        x0[:, 2:] = scenario.motion[anchors, 2:4]
        for agent_id, center, row, pred in zip(
                group, centers, anchors, decode_batch(dec, H, x0)):
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
