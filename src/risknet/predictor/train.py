"""Dataset windowing, training loop, and gradient verification."""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import BadConfig, NonFiniteLoss
from ..scene import (
    CAR,
    CAR_EXTENT,
    DEFAULT_MASSES,
    AgentState,
    InteractionGraph,
    Scenario,
    build_graph,
    scenario_from_states,
)
from . import autodiff as ad
from .autodiff import Tensor
from .model import (
    D_IN,
    DecoderParams,
    GateBlock,
    GraphCellParams,
    MixturePrediction,
    ModeHead,
    PackedStep,
    _decode_graph,
    _mixture_nll,
    decode,
    encode,
    encode_packed,
    pack_histories,
    parameter_items,
)


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
    d_in: int = D_IN

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

    def draw(*shape) -> Tensor:
        return ad.parameter(rng.uniform(-0.1, 0.1, shape))

    def gate() -> GateBlock:
        return GateBlock(
            w_self=draw(hyper.d_h, hyper.d_in),
            w_nbr=draw(hyper.d_h, hyper.d_in),
            u_self=draw(hyper.d_h, hyper.d_h),
            u_nbr=draw(hyper.d_h, hyper.d_h),
            bias=draw(hyper.d_h),
        )

    cell = GraphCellParams(d_in=hyper.d_in, d_h=hyper.d_h,
                           reset=gate(), update=gate(), cand=gate())
    dec = DecoderParams(
        d_h=hyper.d_h,
        modes=hyper.modes,
        horizon=hyper.t_f,
        dt=hyper.dt,
        w_att=draw(4, hyper.d_h),
        heads=[
            ModeHead(w_u=draw(2, hyper.d_h), b_u=draw(2),
                     w_s=draw(2, hyper.d_h), b_s=draw(2))
            for _ in range(hyper.modes)
        ],
        w_pi=draw(hyper.modes, hyper.d_h),
        b_pi=draw(hyper.modes),
    )
    return cell, dec


# ==================== dataset windows ====================

@dataclass
class TrainingSample:
    """One prediction window.

    Coordinates are centered on the target's position at the prediction
    frame; ``offset`` restores world coordinates.
    """

    target_id: int
    frame: int  # last history frame (prediction time)
    features: List[Dict[int, np.ndarray]]  # t_h maps agent -> (d_in,)
    graphs: List[InteractionGraph]  # t_h graphs, oldest first
    x0: np.ndarray  # (4,) centered state at `frame`
    truth: np.ndarray  # (t_f, 2) centered future positions
    offset: np.ndarray  # (2,) world position of the center
    dt: float


def _feature(state: AgentState, center: np.ndarray) -> np.ndarray:
    # trailing entry is the lateral lane offset; zero without a lane reference
    return np.array([
        state.position[0] - center[0],
        state.position[1] - center[1],
        state.velocity[0],
        state.velocity[1],
        state.acceleration[0],
        state.acceleration[1],
        0.0,
    ])


def extract_windows(
    scenario: Scenario,
    hyper: TrainHyper,
    radius: float = 50.0,
    stride: int = 1,
    targets: Optional[Sequence[int]] = None,
) -> List[TrainingSample]:
    """Slide (t_h history, t_f future) windows over every target agent.

    A window is dropped when any involved agent (the target or any
    neighbor appearing in a history graph) is absent from any frame of
    the window.
    """
    if stride < 1:
        raise BadConfig("stride must be >= 1")
    t_h, t_f = hyper.t_h, hyper.t_f
    samples: List[TrainingSample] = []
    agent_ids = sorted(targets) if targets is not None else sorted(
        scenario.agents.keys()
    )
    for target in agent_ids:
        if target not in scenario.agents:
            raise BadConfig(f"unknown target agent {target}")
        info = scenario.agents[target]
        first = info.first_frame + (t_h - 1)
        last = info.last_frame - t_f
        for t0 in range(first, last + 1, stride):
            frames = list(range(t0 - t_h + 1, t0 + t_f + 1))
            graphs = [build_graph(scenario, target, f, radius)
                      for f in frames[:t_h]]
            involved = {target}
            for g in graphs:
                involved.update(g.neighbors(target))
            if not all(
                scenario.has_state(a, f) for a in involved for f in frames
            ):
                continue
            center = scenario.state(target, t0).position.copy()
            features = []
            for g, f in zip(graphs, frames[:t_h]):
                step_ids = [target] + g.neighbors(target)
                features.append({
                    a: _feature(scenario.state(a, f), center)
                    for a in step_ids
                })
            tstate = scenario.state(target, t0)
            x0 = np.array([0.0, 0.0, tstate.velocity[0], tstate.velocity[1]])
            truth = np.stack([
                scenario.state(target, f).position - center
                for f in frames[t_h:]
            ])
            samples.append(TrainingSample(
                target_id=target, frame=t0, features=features,
                graphs=graphs, x0=x0, truth=truth, offset=center,
                dt=scenario.dt,
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


def pack_windows(samples: Sequence[TrainingSample],
                 d_in: int) -> WindowBatch:
    """Pack windows of equal history and horizon length into one batch."""
    if len({(len(s.features), s.truth.shape) for s in samples}) != 1:
        raise BadConfig("windows of one batch must share t_h and t_f")
    steps, rows = pack_histories(
        [list(zip(s.features, s.graphs)) for s in samples], d_in
    )
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
        [sample], cell.d_in)
    hiddens = encode_packed(cell, batch.steps)
    H = ad.stack([ad.getitem(h, batch.target_rows) for h in hiddens],
                 axis=1)
    logits, states, covs = _decode_graph(dec, H, batch.x0)
    log_pis = ad.sub(logits, ad.logsumexp(logits, keepdims=True))
    losses = _mixture_nll(log_pis, states, covs, batch.truth)
    return ad.div(ad.tsum(losses), float(len(batch.x0)))


def sample_loss(
    cell: GraphCellParams, dec: DecoderParams, sample: TrainingSample
) -> float:
    with ad.no_grad():
        return float(_window_loss(cell, dec, sample).data)


# ==================== training loop ====================

def train(
    dataset: Sequence[TrainingSample],
    hyper: TrainHyper,
) -> Tuple[GraphCellParams, DecoderParams, List[float]]:
    """Full-batch gradient descent on the mean window loss.

    The windows are packed once; each epoch records one tape over all of
    them.  Returns the trained parameters and the loss curve: entry 0 is
    the loss of the fresh parameters, entry e the loss after e updates, so
    the curve has epochs + 1 entries and epochs = 0 records only the
    initial loss.  Deterministic given the seed.
    """
    if not dataset:
        raise BadConfig("training dataset is empty")
    batch = pack_windows(dataset, hyper.d_in)
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
    batch = pack_windows([sample], cell.d_in)
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

def predict_for_agent(
    cell: GraphCellParams,
    dec: DecoderParams,
    scenario: Scenario,
    agent_id: int,
    frame: int,
    radius: float = 50.0,
    t_h: Optional[int] = None,
) -> MixturePrediction:
    """Forecast one agent from the history window ending at ``frame``.

    ``t_h`` bounds the history length; by default all frames from the
    agent's first appearance are used.  The returned prediction is in
    world coordinates and carries the agent's current state as its
    anchor.
    """
    if abs(scenario.dt - dec.dt) > 1e-9:
        raise BadConfig(
            f"scenario step {scenario.dt} s does not match decoder step "
            f"{dec.dt} s"
        )
    if agent_id not in scenario.agents:
        raise BadConfig(f"unknown agent {agent_id}")
    info = scenario.agents[agent_id]
    if frame < info.first_frame or frame > info.last_frame:
        raise BadConfig(f"agent {agent_id} absent at frame {frame}")
    available = frame - info.first_frame + 1
    length = available if t_h is None else min(t_h, available)
    if length < 1:
        raise BadConfig("history must contain at least one frame")
    center = scenario.state(agent_id, frame).position.copy()
    history = []
    for f in range(frame - length + 1, frame + 1):
        g = build_graph(scenario, agent_id, f, radius)
        step_ids = [agent_id] + g.neighbors(agent_id)
        feats = {
            a: _feature(scenario.state(a, f), center) for a in step_ids
        }
        history.append((feats, g))
    sequences = encode(cell, history)
    anchor = scenario.state(agent_id, frame)
    x0 = np.array([0.0, 0.0, anchor.velocity[0], anchor.velocity[1]])
    pred = decode(dec, sequences[agent_id], None, x0)
    for mode in pred.modes:
        mode.states[:, 0] += center[0]
        mode.states[:, 1] += center[1]
    pred.anchor = anchor
    pred.validate()
    return pred
