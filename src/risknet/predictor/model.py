"""Multimodal trajectory predictor.

A gated recurrent encoder with graph message passing over per-frame
interaction graphs, temporal attention over the encoded history, and a
per-mode decoder that emits accelerations and process-noise scales,
propagating state and covariance through a constant-Jacobian kinematic
filter step.  The mixture is trained by negative log-likelihood on
positions.

Every stage works on a batch.  The encoder packs the histories of many
windows into rows, one per (window, agent) pair, and updates all rows of
a history step in one tape node; the decoder rolls the states and
covariances of every (window, mode) pair forward together.  A single
window or agent is a batch of one, so the training gradients, the
gradient checker and inference all run the same code.
"""

import functools
import math
from dataclasses import dataclass
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from ..errors import DegenerateCovariance, ShapeMismatch
from ..scene import AgentState
from . import autodiff as ad
from .autodiff import Tensor

D_IN = 6  # position 2, velocity 2, acceleration 2
STATE_DIM = 4  # x, y, vx, vy
COV_REG = 1e-6  # ridge added to position covariance blocks before inversion

LOG_2PI = math.log(2.0 * math.pi)


# ==================== parameters ====================

@dataclass
class GateBlock:
    """Weights of one gate: feature-path self/neighbor maps, hidden-path
    self/neighbor maps, and a bias."""

    w_self: Tensor  # (d_h, D_IN)
    w_nbr: Tensor   # (d_h, D_IN)
    u_self: Tensor  # (d_h, d_h)
    u_nbr: Tensor   # (d_h, d_h)
    bias: Tensor    # (d_h,)


@dataclass
class GraphCellParams:
    d_h: int
    reset: GateBlock
    update: GateBlock
    cand: GateBlock


@dataclass
class ModeHead:
    """Per-mode readout from the attended context: a control output and
    process-noise log-scales."""

    w_u: Tensor  # (2, d_h)
    b_u: Tensor  # (2,)
    w_s: Tensor  # (2, d_h)
    b_s: Tensor  # (2,)


@dataclass
class DecoderParams:
    d_h: int
    modes: int
    horizon: int  # prediction steps
    dt: float  # s
    w_att: Tensor  # (STATE_DIM, d_h) bilinear attention scoring
    heads: List[ModeHead]
    w_pi: Tensor  # (modes, d_h) mode logits from the last hidden
    b_pi: Tensor  # (modes,)

    def __post_init__(self):
        if self.modes < 1 or self.horizon < 1:
            raise ShapeMismatch("decoder needs modes >= 1 and horizon >= 1")
        if len(self.heads) != self.modes:
            raise ShapeMismatch("one head required per mode")


GATES = ("reset", "update", "cand")
GATE_PARTS = ("w_self", "w_nbr", "u_self", "u_nbr", "bias")
HEAD_PARTS = ("w_u", "b_u", "w_s", "b_s")


def parameter_shapes(hyper) -> Iterator[Tuple[str, Tuple[int, ...]]]:
    """Name and shape of every trainable tensor of a model of
    ``hyper.d_h`` and ``hyper.modes``, in canonical order (also the
    serialization order); allocates nothing."""
    d_h, modes = hyper.d_h, hyper.modes
    gate = {"w_self": (d_h, D_IN), "w_nbr": (d_h, D_IN),
            "u_self": (d_h, d_h), "u_nbr": (d_h, d_h), "bias": (d_h,)}
    head = {"w_u": (2, d_h), "b_u": (2,), "w_s": (2, d_h), "b_s": (2,)}
    for g in GATES:
        yield from ((f"cell.{g}.{part}", gate[part]) for part in GATE_PARTS)
    yield "dec.w_att", (STATE_DIM, d_h)
    for i in range(modes):
        yield from ((f"dec.head{i}.{part}", head[part]) for part in HEAD_PARTS)
    yield "dec.w_pi", (modes, d_h)
    yield "dec.b_pi", (modes,)


def assemble_model(
    hyper, arrays: Iterable[np.ndarray]
) -> Tuple[GraphCellParams, DecoderParams]:
    """The model whose tensors are ``arrays``, in ``parameter_shapes``
    order."""
    arrays = iter(arrays)

    def take(n: int) -> List[Tensor]:
        return [ad.parameter(next(arrays)) for _ in range(n)]

    cell = GraphCellParams(hyper.d_h, *(GateBlock(*take(len(GATE_PARTS)))
                                        for _ in GATES))
    w_att = take(1)
    heads = [ModeHead(*take(len(HEAD_PARTS))) for _ in range(hyper.modes)]
    return cell, DecoderParams(hyper.d_h, hyper.modes, hyper.t_f, hyper.dt,
                               *w_att, heads, *take(2))


def parameter_items(
    cell: GraphCellParams, dec: DecoderParams
) -> List[Tuple[str, Tensor]]:
    """All trainable tensors with their names, in canonical order."""
    tensors = [getattr(getattr(cell, g), part)
               for g in GATES for part in GATE_PARTS]
    tensors += [dec.w_att, *(getattr(h, part) for h in dec.heads
                             for part in HEAD_PARTS), dec.w_pi, dec.b_pi]
    return [(name, t) for (name, _), t in zip(parameter_shapes(dec), tensors)]


# ==================== encoder ====================

def _rows(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w.T`` row by row.  BLAS blocks the rows of a matrix product,
    so a row's rounding would depend on the rows packed beside it; the
    einsum loop keeps every row's result independent of the batch."""
    return np.einsum("ri,hi->rh", a, w)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass
class PackedStep:
    """One history step of packed rows.

    Absent rows carry zero features.  Each neighbour slot, in order, pairs
    the rows that use it with the rows they name in it: slot k of a star
    target names its k-th member, and slot 0 of a member its target.  A
    row without neighbours has a zero mean.
    """

    x: np.ndarray          # (R, D_IN) features
    x_bar: np.ndarray      # (R, D_IN) neighbour feature means
    present: np.ndarray    # (R,) bool
    slots: List[Tuple[np.ndarray, np.ndarray]]  # (users, named) per slot
    nbr_count: np.ndarray  # (R,) neighbours per row, at least 1


# One step of a window's star: the agent ids, the window's target first and
# its neighbours after it in ascending id order, and their (n, D_IN)
# features.
HistoryStep = Tuple[np.ndarray, np.ndarray]


def _add_neighbours(out: np.ndarray, x: np.ndarray,
                    slots: Sequence[Tuple[np.ndarray, ...]]) -> np.ndarray:
    """Add each row's neighbour slots of ``x`` into ``out``, one slot at
    a time in slot order and only on the rows that use the slot."""
    for at, src in slots:
        out[at] += x[src]
    return out


def _neighbour_means(x: np.ndarray, slots: Sequence[Tuple[np.ndarray, ...]],
                     nbr_count: np.ndarray) -> np.ndarray:
    """Each row's mean over its neighbour slots of ``x``, summed in slot
    order from a copy of slot 0 (-0.0 stays); zero without neighbours."""
    total = np.zeros_like(x)
    for at, src in slots[:1]:
        total[at] = x[src]
    return _add_neighbours(total, x, slots[1:]) / nbr_count[:, None]


def pack_histories(
    window: np.ndarray, step: np.ndarray, agent: np.ndarray, x: np.ndarray,
    n_steps: int,
) -> Tuple[List[PackedStep], np.ndarray]:
    """Pack star histories into rows, one per (window, agent) pair,
    ascending by window and then by agent id.

    Entry e puts agent ``agent[e]``, with features ``x[e]``, in the star
    of window ``window[e]`` at history step ``step[e]``.  Entries run by
    step, then by window, and each star lists its target first: the
    target's neighbours are the other agents of its star, and each of
    them has the target as its one neighbour.  Returns the ``n_steps``
    packed steps and the row of each entry.
    """
    if n_steps < 1:
        raise ShapeMismatch("history must contain at least one step")
    if np.shape(x) != (len(agent), D_IN):
        raise ShapeMismatch(f"features {np.shape(x)} do not match "
                            f"{len(agent)} agents by D_IN={D_IN}")
    order = np.lexsort((agent, window))
    new = np.ones(order.size, dtype=bool)
    new[1:] = (np.diff(window[order]) != 0) | (np.diff(agent[order]) != 0)
    rows = np.empty_like(order)
    rows[order] = np.cumsum(new) - 1
    n_rows = int(new.sum())
    bounds = np.searchsorted(step, np.arange(n_steps + 1)).tolist()
    steps = []
    for lo, hi in zip(bounds, bounds[1:]):
        r = rows[lo:hi]
        first = np.flatnonzero(np.diff(window[lo:hi], prepend=-1))
        size = np.diff(first, append=hi - lo)
        hub = np.repeat(r[first], size)  # each entry's star target
        slot = np.arange(hi - lo) - np.repeat(first, size) - 1
        lengths = np.zeros(n_rows, dtype=np.intp)
        lengths[r] = np.where(slot < 0, np.repeat(size - 1, size), 1)
        m = slot >= 0
        # each slot's entries in entry order: one stable sort by slot
        by_slot = np.flatnonzero(m)[np.argsort(slot[m], kind="stable")]
        cuts = np.cumsum(np.bincount(slot[m]))
        slots = list(zip(np.split(hub[by_slot], cuts)[:-1],
                         np.split(r[by_slot], cuts)[:-1]))
        if slots:  # a member's one slot names its target
            slots[0] = (np.concatenate((slots[0][0], r[m])),
                        np.concatenate((slots[0][1], hub[m])))
        feats = np.zeros((n_rows, D_IN))
        feats[r] = x[lo:hi]
        count = np.maximum(lengths, 1.0)
        steps.append(PackedStep(
            feats, _neighbour_means(feats, slots, count),
            np.bincount(r, minlength=n_rows) > 0, slots, count))
    return steps, rows


class _StackedGates:
    """The weights of the reset, update and candidate gates stacked along
    the output axis, so one product per input path serves all gates."""

    def __init__(self, cell: GraphCellParams):
        self.d_h = cell.d_h
        self.gates = [getattr(cell, g) for g in GATES]
        self.params = tuple(getattr(g, part) for g in self.gates
                            for part in GATE_PARTS)
        self.stacked = {
            part: np.concatenate([getattr(g, part).data for g in self.gates])
            for part in GATE_PARTS
        }

    def accumulate(self, grads: Mapping[str, np.ndarray]) -> None:
        d = self.d_h
        for i, gate in enumerate(self.gates):
            for part, g in grads.items():
                t = getattr(gate, part)
                if t.requires_grad:
                    t._accum(g[i * d:(i + 1) * d])


def _gru_step(gates: _StackedGates, step: PackedStep, h: Tensor) -> Tensor:
    """One recurrent update of every row as a single tape node.

    Gate pre-activations combine a self term with the neighbour mean, on
    both the feature path and the hidden path.  Rows absent at this step
    keep their hidden state.
    """
    W = gates.stacked
    d = gates.d_h
    hd = h.data
    h_bar = _neighbour_means(hd, step.slots, step.nbr_count)
    kappa = _rows(step.x, W["w_self"]) + _rows(step.x_bar, W["w_nbr"])
    xi = _rows(hd, W["u_self"]) + _rows(h_bar, W["u_nbr"])
    bias = W["bias"]
    r = _sigmoid(kappa[:, :d] + xi[:, :d] + bias[:d])
    z = _sigmoid(kappa[:, d:2 * d] + xi[:, d:2 * d] + bias[d:2 * d])
    xi_c = xi[:, 2 * d:]
    c = np.tanh(kappa[:, 2 * d:] + r * xi_c + bias[2 * d:])
    keep = ~step.present[:, None]
    out = np.where(keep, hd, (1.0 - z) * c + z * hd)

    def backward(g):
        g_new = np.where(keep, 0.0, g)
        da_c = g_new * (1.0 - z) * (1.0 - c * c)
        da_r = da_c * xi_c * r * (1.0 - r)
        da_z = g_new * (hd - c) * z * (1.0 - z)
        d_kappa = np.concatenate([da_r, da_z, da_c], axis=1)
        d_xi = np.concatenate([da_r, da_z, da_c * r], axis=1)
        if h.requires_grad:
            dh = np.where(keep, g, g_new * z) + d_xi @ W["u_self"]
            # star slots are symmetric (a target lists its members by row,
            # each member only its target): a gather adds in scatter order
            d_bar = (d_xi @ W["u_nbr"]) / step.nbr_count[:, None]
            h._accum(_add_neighbours(dh, d_bar, step.slots))
        gates.accumulate({
            "w_self": d_kappa.T @ step.x,
            "w_nbr": d_kappa.T @ step.x_bar,
            "u_self": d_xi.T @ hd,
            "u_nbr": d_xi.T @ h_bar,
            "bias": d_kappa.sum(axis=0),
        })

    return ad._node(out, (h,) + gates.params, backward)


def encode_packed(
    params: GraphCellParams, steps: Sequence[PackedStep]
) -> List[Tensor]:
    """Hidden states of every packed row after each history step.  Rows
    start from zero, so an agent new at a step starts from a zero hidden
    state, and an absent agent resumes from its last one."""
    gates = _StackedGates(params)
    h = Tensor(np.zeros((steps[0].x.shape[0], params.d_h)))
    out = []
    for step in steps:
        h = _gru_step(gates, step, h)
        out.append(h)
    return out


def encode(
    params: GraphCellParams, history: Sequence[HistoryStep]
) -> Dict[int, List[Tensor]]:
    """Run the recurrent cell over the history, oldest step first.

    Every agent starts from a zero hidden state, including agents that
    first appear mid-history; an agent missing from a step keeps its last
    hidden state.  Returns each agent's hidden sequence over the steps it
    was present.
    """
    if any(np.shape(x) != (len(ids), D_IN) for ids, x in history):
        raise ShapeMismatch(f"a step needs one row of D_IN={D_IN} "
                            "features per agent")
    step = np.repeat(np.arange(len(history)),
                     [len(ids) for ids, _ in history])
    agent = np.concatenate([np.zeros(0, np.int64), *(i for i, _ in history)])
    x = np.concatenate([np.zeros((0, D_IN)), *(x for _, x in history)])
    steps, rows = pack_histories(np.zeros_like(step), step, agent, x,
                                 len(history))
    hs = encode_packed(params, steps)
    sequences: Dict[int, List[Tensor]] = {}
    for e in np.lexsort((agent, step)).tolist():
        sequences.setdefault(int(agent[e]), []).append(
            ad.getitem(hs[int(step[e])], int(rows[e])))
    return sequences


# ==================== attention ====================

def _fused_attend(H: Tensor, w_att: Tensor, query: Tensor,
                  scale: float) -> Tensor:
    """Bilinear attention of every (window, mode) query over its window's
    hidden sequence, as one node with a hand-derived backward pass.

    H is (B, T, d_h), the queries (B, M, 4); scores are
    ``query @ w_att @ h_t * scale`` and the context is the softmax-weighted
    mean of the hiddens, (B, M, d_h).
    """
    Hd, Wd, qd = H.data, w_att.data, query.data
    w = qd @ Wd
    scores = np.einsum("btd,bmd->bmt", Hd, w) * scale
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    a = e / e.sum(axis=-1, keepdims=True)
    out = np.einsum("bmt,btd->bmd", a, Hd)

    def backward(g):
        Hg = np.einsum("btd,bmd->bmt", Hd, g)
        ds = a * (Hg - (a * Hg).sum(axis=-1, keepdims=True)) * scale
        if H.requires_grad:
            H._accum(np.einsum("bmt,bmd->btd", a, g)
                     + np.einsum("bmt,bmd->btd", ds, w))
        gw = np.einsum("btd,bmt->bmd", Hd, ds)
        if w_att.requires_grad:
            w_att._accum(np.einsum("bmi,bmd->id", qd, gw))
        if query.requires_grad:
            query._accum(gw @ Wd.T)

    return ad._node(out, (H, w_att, query), backward)


# ==================== EKF propagation ====================

def kinematic_matrices(dt: float) -> Tuple[np.ndarray, np.ndarray]:
    """Constant Jacobian F of the motion model and control map G."""
    F = np.eye(STATE_DIM)
    F[0, 2] = dt
    F[1, 3] = dt
    G = np.array([
        [0.5 * dt * dt, 0.0],
        [0.0, 0.5 * dt * dt],
        [dt, 0.0],
        [0.0, dt],
    ])
    return F, G


@functools.lru_cache(maxsize=8)
def _filter_matrices(dt: float) -> Tuple[np.ndarray, ...]:
    """F, G and the control noise maps Mk = outer(G[:,k], G[:,k]) of one
    step length, built once and read-only."""
    F, G = kinematic_matrices(dt)
    out = (F, G, np.outer(G[:, 0], G[:, 0]), np.outer(G[:, 1], G[:, 1]))
    for a in out:
        a.setflags(write=False)
    return out


def _fused_mean_step(x: Tensor, u: Tensor, F: np.ndarray,
                     G: np.ndarray) -> Tensor:
    out = x.data @ F.T + u.data @ G.T

    def backward(g):
        if x.requires_grad:
            x._accum(g @ F)
        if u.requires_grad:
            u._accum(g @ G)

    return ad._node(out, (x, u), backward)


def _fused_cov_step(P: Tensor, q: Tensor, F: np.ndarray, M0: np.ndarray,
                    M1: np.ndarray) -> Tensor:
    """Covariance time update with the control-mapped diagonal process
    noise: F P F^T + q0 M0 + q1 M1, where Mk = outer(G[:,k], G[:,k]).
    P is (..., 4, 4) and q (..., 2)."""
    q0 = q.data[..., 0, None, None]
    q1 = q.data[..., 1, None, None]
    out = F @ P.data @ F.T + q0 * M0 + q1 * M1

    def backward(g):
        if P.requires_grad:
            P._accum(F.T @ g @ F)
        if q.requires_grad:
            q._accum(np.stack([(g * M0).sum(axis=(-2, -1)),
                               (g * M1).sum(axis=(-2, -1))], axis=-1))

    return ad._node(out, (P, q), backward)


# ==================== decoder ====================

@dataclass
class PredictionMode:
    pi: float
    states: np.ndarray  # (t_f, 4)
    covariances: np.ndarray  # (t_f, 4, 4)


@dataclass
class MixturePrediction:
    """Weighted multimodal forecast for one agent.

    ``anchor`` carries the agent's state at prediction time so downstream
    risk fusion can form finite-difference velocities; predictions made
    directly from decode() leave it unset.
    """

    modes: List[PredictionMode]
    dt: float
    anchor: Optional[AgentState] = None

    @property
    def horizon(self) -> int:
        return self.modes[0].states.shape[0]

    def validate(self) -> None:
        validate_mixtures([self])


def validate_mixtures(preds: Sequence[MixturePrediction]) -> None:
    """Check the mode probabilities and covariances of every prediction
    at once; the modes of all predictions must share one horizon.

    Raises ValueError for the first failing prediction, with the message
    a check of that prediction alone gives: its probabilities first, then
    its modes in order, where a mode's first failing step names the
    failure (not symmetric, or not PSD).
    """
    pis = np.array([[m.pi for m in p.modes] for p in preds])
    covs = np.stack([m.covariances[:m.states.shape[0]]
                     for p in preds for m in p.modes])
    pi_bad = ((np.abs(pis.sum(axis=1) - 1.0) > 1e-9)
              | (pis < 0).any(axis=1))
    asym = ~np.isclose(covs, covs.swapaxes(-1, -2), rtol=0.0,
                       atol=1e-9).all(axis=(-2, -1))  # (modes, steps)
    first = np.where(asym.any(axis=1), asym.argmax(axis=1), asym.shape[1])
    checked = np.where(asym[..., None, None], np.eye(covs.shape[-1]), covs)
    not_psd = ((np.linalg.eigvalsh(checked).min(axis=-1) < -1e-9)
               & (np.arange(asym.shape[1]) < first[:, None])).any(axis=1)
    mode_bad = (not_psd | (first < asym.shape[1])).reshape(pis.shape)
    bad = pi_bad | mode_bad.any(axis=1)
    if not bad.any():
        return
    p = int(bad.argmax())
    if pi_bad[p]:
        raise ValueError("mode probabilities must be nonnegative, sum 1")
    m = p * pis.shape[1] + int(mode_bad[p].argmax())
    raise ValueError("covariance not PSD" if not_psd[m]
                     else "covariance not symmetric")


def _fused_heads(ctx: Tensor, heads: Sequence[ModeHead], W: np.ndarray,
                 b: np.ndarray) -> Tensor:
    """Per-mode readout of the contexts (B, M, d_h) as one node: the
    controls in the first two entries of the last axis, the process-noise
    log-scales in the other two.  ``W`` (M, 4, d_h) and ``b`` (M, 4) are
    the heads' weights stacked in that order (``_stack_heads``)."""
    cd = ctx.data
    out = np.einsum("bmd,mkd->bmk", cd, W) + b

    def backward(g):
        if ctx.requires_grad:
            ctx._accum(np.einsum("bmk,mkd->bmd", g, W))
        gW = np.einsum("bmk,bmd->mkd", g, cd)
        gb = g.sum(axis=0)
        for m, head in enumerate(heads):
            for t, gm in ((head.w_u, gW[m, :2]), (head.w_s, gW[m, 2:]),
                          (head.b_u, gb[m, :2]), (head.b_s, gb[m, 2:])):
                if t.requires_grad:
                    t._accum(gm)

    parents = [ctx] + [t for h in heads
                       for t in (h.w_u, h.b_u, h.w_s, h.b_s)]
    return ad._node(out, tuple(parents), backward)


def _stack_heads(heads: Sequence[ModeHead]) -> Tuple[np.ndarray, np.ndarray]:
    """The heads' readout weights (M, 4, d_h) and biases (M, 4), controls
    first, then noise scales, as ``_fused_heads`` reads them."""
    W = np.array([(h.w_u.data, h.w_s.data) for h in heads])
    b = np.array([(h.b_u.data, h.b_s.data) for h in heads])
    return W.reshape(len(heads), 4, -1), b.reshape(len(heads), 4)


def _fused_logits(h: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Mode logits ``h @ w.T + b`` as one node, each row computed on its
    own (``_rows``), so a window's logits do not depend on its batch."""
    hd, wd = h.data, w.data
    out = _rows(hd, wd) + b.data

    def backward(g):
        if h.requires_grad:
            h._accum(g @ wd)
        if w.requires_grad:
            w._accum(g.T @ hd)
        if b.requires_grad:
            b._accum(g.sum(axis=0))

    return ad._node(out, (h, w, b), backward)


def _decode_graph(
    dec: DecoderParams, H: Tensor, x0: np.ndarray
) -> Tuple[Tensor, List[Tensor], List[Tensor]]:
    """Roll every mode of every window forward on the tape.

    H holds the target hidden sequences (B, T, d_h) and x0 the start
    states (B, 4).  Returns the mode logits (B, M) and, per step, the
    states (B, M, 4) and covariances (B, M, 4, 4).  The attention query
    at each step is the mode's current state, so modes diverge through
    their own rollouts even though the scoring weights are shared.
    """
    F, G, M0, M1 = _filter_matrices(dec.dt)
    scale = 1.0 / math.sqrt(dec.d_h)
    logits = _fused_logits(ad.getitem(H, (slice(None), -1)), dec.w_pi,
                           dec.b_pi)
    W, b = _stack_heads(dec.heads)
    x0 = np.asarray(x0, float)
    x = Tensor(np.repeat(x0[:, None, :], dec.modes, axis=1))
    P = Tensor(np.zeros(x.shape + (STATE_DIM,)))
    states: List[Tensor] = []
    covs: List[Tensor] = []
    for _ in range(dec.horizon):
        context = _fused_attend(H, dec.w_att, x, scale)
        readout = _fused_heads(context, dec.heads, W, b)
        u = ad.getitem(readout, (Ellipsis, slice(0, 2)))
        q = ad.exp(ad.getitem(readout, (Ellipsis, slice(2, 4))))
        x = _fused_mean_step(x, u, F, G)
        P = _fused_cov_step(P, q, F, M0, M1)
        states.append(x)
        covs.append(P)
    return logits, states, covs


def decode(dec: DecoderParams, seq: Sequence[Tensor],
           x0: np.ndarray) -> MixturePrediction:
    """Decode one agent's mixture forecast from its hidden sequence."""
    H = np.stack([ad.as_tensor(h).data for h in seq])
    return decode_batch(dec, H[None], np.asarray(x0, float)[None])[0]


def decode_batch(dec: DecoderParams, H: np.ndarray,
                 x0: np.ndarray) -> List[MixturePrediction]:
    """One forecast per window from hidden sequences H (B, T, d_h) and
    start states x0 (B, 4), decoded together without a tape.  A window's
    forecast does not depend on the windows decoded beside it."""
    with ad.no_grad():
        logits, states, covs = _decode_graph(dec, Tensor(H), x0)
    lg = logits.data
    e = np.exp(lg - lg.max(axis=-1, keepdims=True))
    pis = e / e.sum(axis=-1, keepdims=True)  # row-wise softmax
    S = np.stack([s.data for s in states], axis=2)  # (B, M, T, 4)
    C = np.stack([c.data for c in covs], axis=2)  # (B, M, T, 4, 4)
    return [
        MixturePrediction(modes=[
            PredictionMode(pi=float(p), states=s, covariances=c)
            for p, s, c in zip(pis[w], S[w], C[w])
        ], dt=dec.dt)
        for w in range(len(lg))
    ]


# ==================== likelihood ====================

def _step_log_density(
    state: Tensor, cov: Tensor, truth_xy: np.ndarray
) -> Tensor:
    """Log density of the 2-D position Gaussian at one step, with the
    ridge regularizer on the position covariance block.

    Single fused node over any leading batch shape: states (..., 4),
    covariances (..., 4, 4), truth broadcastable to (..., 2).  Each 2x2
    system is inverted by adjugate and the backward pass applies the
    closed-form partials in a, b, c, d and the position residual.
    """
    cd, sd = cov.data, state.data
    a = cd[..., 0, 0] + COV_REG
    b = cd[..., 0, 1]
    c = cd[..., 1, 0]
    d = cd[..., 1, 1] + COV_REG
    det = a * d - b * c
    bad = ~(np.isfinite(det) & (det > 0.0))
    if bad.any():
        raise DegenerateCovariance(
            f"position covariance determinant {det[bad].flat[0]}"
        )
    dx = truth_xy[..., 0] - sd[..., 0]
    dy = truth_xy[..., 1] - sd[..., 1]
    quad = (d * dx * dx - (b + c) * dx * dy + a * dy * dy) / det
    ll = -LOG_2PI - 0.5 * np.log(det) - 0.5 * quad

    def backward(g):
        inv = 1.0 / det
        if cov.requires_grad:
            dquad_da = (dy * dy - quad * d) * inv
            dquad_db = (-dx * dy + quad * c) * inv
            dquad_dc = (-dx * dy + quad * b) * inv
            dquad_dd = (dx * dx - quad * a) * inv
            gc = np.zeros(cd.shape)
            gc[..., 0, 0] = -0.5 * (d * inv + dquad_da)
            gc[..., 0, 1] = 0.5 * (c * inv - dquad_db)
            gc[..., 1, 0] = 0.5 * (b * inv - dquad_dc)
            gc[..., 1, 1] = -0.5 * (a * inv + dquad_dd)
            cov._accum(g[..., None, None] * gc)
        if state.requires_grad:
            gs = np.zeros(sd.shape)
            gs[..., 0] = 0.5 * (2.0 * d * dx - (b + c) * dy) * inv
            gs[..., 1] = 0.5 * (2.0 * a * dy - (b + c) * dx) * inv
            state._accum(g[..., None] * gs)

    return ad._node(ll, (state, cov), backward)


def _mixture_nll(
    log_pis: Tensor,
    mode_states: Sequence[Tensor],
    mode_covs: Sequence[Tensor],
    truth: np.ndarray,
) -> Tensor:
    """Per-window mixture NLL (B,) from log mode weights (B, M), per-step
    states (B, M, 4) and covariances (B, M, 4, 4), and truth (B, T, 2)."""
    step_terms = []
    for p, (state, cov) in enumerate(zip(mode_states, mode_covs)):
        ll = _step_log_density(state, cov, truth[:, None, p])
        step_terms.append(ad.logsumexp(ad.add(log_pis, ll)))
    total = ad.neg(ad.tsum(ad.stack(step_terms, axis=-1), axis=-1))
    if not np.all(np.isfinite(total.data)):
        raise DegenerateCovariance("non-finite mixture likelihood")
    return total


def nll_loss(pred: MixturePrediction, truth: np.ndarray) -> float:
    """Negative log-likelihood of the truth positions under the mixture.

    Sums over steps the negative log of the probability-weighted 2-D
    Gaussian densities on the position block of each mode.
    """
    truth = np.asarray(truth, float)
    if truth.shape != (pred.horizon, 2):
        raise ShapeMismatch(
            f"truth shape {truth.shape} does not match horizon"
        )
    log_pis = Tensor(np.log([[max(m.pi, 1e-300) for m in pred.modes]]))
    states = np.stack([m.states for m in pred.modes])[None]
    covs = np.stack([m.covariances for m in pred.modes])[None]
    with ad.no_grad():
        total = _mixture_nll(
            log_pis,
            [Tensor(states[:, :, p]) for p in range(pred.horizon)],
            [Tensor(covs[:, :, p]) for p in range(pred.horizon)],
            truth[None],
        )
    return float(total.data[0])


# ==================== prediction metrics ====================

@np.errstate(over="ignore", invalid="ignore")
def metrics(pred: MixturePrediction, truth: np.ndarray) -> Dict[str, float]:
    """Displacement and likelihood metrics for one prediction.

    ade/fde are evaluated on the minimum-ADE mode, apde on the
    highest-probability mode, anll is the per-step mixture NLL, and fnll
    averages the per-step NLL of the highest-probability mode alone.
    """
    truth = np.asarray(truth, float)
    horizon = pred.horizon
    per_mode_err = []
    for m in pred.modes:
        err = np.linalg.norm(m.states[:, :2] - truth, axis=1)
        per_mode_err.append(err)
    ades = [float(e.mean()) for e in per_mode_err]
    best = int(np.argmin(ades))
    top = int(np.argmax([m.pi for m in pred.modes]))
    anll = nll_loss(pred, truth) / horizon

    top_mode = pred.modes[top]
    fnll_terms = []
    for p in range(horizon):
        cov = top_mode.covariances[p][:2, :2] + COV_REG * np.eye(2)
        det = float(np.linalg.det(cov))
        if det <= 0 or not math.isfinite(det):
            raise DegenerateCovariance(f"degenerate top-mode covariance: {det}")
        diff = truth[p] - top_mode.states[p, :2]
        quad = float(diff @ np.linalg.solve(cov, diff))
        fnll_terms.append(0.5 * (math.log(det) + quad) + LOG_2PI)
    return {
        "ade": ades[best],
        "fde": float(per_mode_err[best][-1]),
        "apde": float(per_mode_err[top].mean()),
        "anll": anll,
        "fnll": float(np.mean(fnll_terms)),
    }
