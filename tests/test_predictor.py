"""Graph-recurrent predictor: cell, encoder, attention, covariance
propagation, decoding, likelihood, metrics, serialization, training."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import constant_velocity_scenario, make_state
from risknet.errors import (
    BadConfig,
    DegenerateCovariance,
    ModelFormatError,
    NonFiniteLoss,
    NumericError,
    ShapeMismatch,
)
from risknet.predictor import autodiff as ad
from risknet.predictor.autodiff import Tensor
from risknet.predictor.model import (
    D_IN,
    GateBlock,
    GraphCellParams,
    MixturePrediction,
    PredictionMode,
    _fused_attend,
    _gru_step,
    _rows,
    _sigmoid,
    _StackedGates,
    decode,
    encode,
    encode_packed,
    kinematic_matrices,
    metrics,
    nll_loss,
    pack_histories,
    parameter_items,
)
from risknet.predictor.store import load_model, save_model
from risknet.predictor.train import (
    TrainHyper,
    WindowBatch,
    _history_entries,
    _window_loss,
    constant_motion_tracks,
    corpus_windows,
    extract_windows,
    gradient_check,
    init_model,
    predict_for_agent,
    predict_frame,
    train,
)
from oracles import NotPSD, attend, attention_weights, ekf_propagate
from risknet.scene import (CAR, STAR_BLOCK, InteractionGraph, Scenario,
                           load_tracks)


def star(ids, *features):
    """One history step: the target first, its neighbours after it in
    ascending id order, and one feature vector per agent."""
    return np.array(ids), np.array(features, dtype=float)


def flat_histories(histories):
    """The pack_histories arguments of equal-length (ids, x) star
    histories: entries by step, then by window."""
    n_steps = len(histories[0]) if histories else 0
    assert all(len(h) == n_steps for h in histories)
    cells = [(w, s, *h[s]) for s in range(n_steps)
             for w, h in enumerate(histories)]
    sizes = [len(ids) for _, _, ids, _ in cells]
    window = np.repeat([w for w, *_ in cells], sizes).astype(np.intp)
    step = np.repeat([s for _, s, *_ in cells], sizes).astype(np.intp)
    agent = np.concatenate([[]] + [ids for _, _, ids, _ in cells])
    x = (np.concatenate([x for *_, x in cells]) if cells
         else np.zeros((0, D_IN)))
    return window, step, agent.astype(np.int64), x, n_steps


def packed(histories):
    """pack_histories of (ids, x) star histories: the packed steps and,
    per window, the row of each agent."""
    window, step, agent, x, n_steps = flat_histories(histories)
    steps, rows = pack_histories(window, step, agent, x, n_steps)
    maps = [{} for _ in histories]
    for w, a, r in zip(window.tolist(), agent.tolist(), rows.tolist()):
        assert maps[w].setdefault(a, r) == r
    return steps, maps


def window_steps(batch, w):
    """Window w of a WindowBatch as (ids, x) star steps, oldest first."""
    window, step, member, x, _ = _history_entries(
        batch.motion, batch.history, batch.offset, batch.stars)
    at = [(window == w) & (step == s) for s in range(batch.history.shape[1])]
    return [(batch.agent[member[m]], x[m]) for m in at]


def gru_rows(cell, windows, h_prev):
    """One recurrent update of one-step windows packed together, from
    the hidden states ``h_prev`` (one row per packed agent)."""
    (step,), _ = packed([[w] for w in windows])
    return _gru_step(_StackedGates(cell), step,
                     Tensor(np.asarray(h_prev, float))).data


def window_loss(cell, dec, sample):
    with ad.no_grad():
        return float(_window_loss(cell, dec, sample).data)


def zero_cell(d_h=4):
    def gate():
        return GateBlock(
            w_self=Tensor(np.zeros((d_h, D_IN))),
            w_nbr=Tensor(np.zeros((d_h, D_IN))),
            u_self=Tensor(np.zeros((d_h, d_h))),
            u_nbr=Tensor(np.zeros((d_h, d_h))),
            bias=Tensor(np.zeros(d_h)),
        )
    return GraphCellParams(d_h=d_h, reset=gate(), update=gate(),
                           cand=gate())


def small_hyper(**overrides):
    base = dict(d_h=4, modes=2, t_h=3, t_f=2, dt=0.2, lr=0.05, epochs=3,
                seed=0)
    base.update(overrides)
    return TrainHyper(**base)


# ---- recurrent cell ----

def test_cell_zero_params_halves_hidden():
    cell = zero_cell()
    h_prev = np.array([0.4, -0.8, 1.2, 0.0])
    h = gru_rows(cell, [star([0], np.ones(D_IN))], [h_prev])
    assert np.allclose(h[0], oracles.zero_param_gru_step(h_prev),
                       atol=1e-12)


def test_cell_update_gate_identity_limit():
    cell = zero_cell()
    cell.update.bias.data = np.full(4, 50.0)
    h_prev = np.array([0.4, -0.8, 1.2, 0.3])
    h = gru_rows(cell, [star([0], np.ones(D_IN))], [h_prev])
    assert np.allclose(h[0], h_prev, atol=1e-9)


def test_cell_isolated_agent_ignores_others():
    # agent 1 is packed beside agent 0 in a window of its own, so no
    # edge joins them: agent 1 data must not matter
    hyper = small_hyper()
    cell, _ = init_model(hyper)
    f0 = np.arange(float(D_IN))
    hiddens = [np.zeros(4), np.ones(4)]
    h_a = gru_rows(cell, [star([0], f0), star([1], np.full(D_IN, 3.0))],
                   hiddens)
    h_b = gru_rows(cell, [star([0], f0), star([1], np.full(D_IN, -9.0))],
                   hiddens)
    assert np.array_equal(h_a[0], h_b[0])


def test_cell_gate_ranges():
    rng = np.random.default_rng(7)
    hyper = small_hyper()
    cell, _ = init_model(hyper)
    for _ in range(50):
        hiddens = rng.uniform(-1, 1, (2, 4))
        h = gru_rows(cell, [star([0, 1], rng.normal(size=D_IN),
                                 rng.normal(size=D_IN))], hiddens)
        # the output is a convex combination of h_prev and a tanh value
        bound = np.maximum(np.abs(hiddens), 1.0)
        assert np.all(np.abs(h) <= bound + 1e-12)
        assert np.all(np.isfinite(h))


def test_cell_shape_validation():
    with pytest.raises(ShapeMismatch):
        packed([[star([0], np.ones(5))]])
    with pytest.raises(ShapeMismatch):  # two agents, one feature row
        packed([[(np.array([0, 1]), np.ones((1, D_IN)))]])
    with pytest.raises(ShapeMismatch):
        packed([[]])
    # the single-window encoder checks each step
    with pytest.raises(ShapeMismatch):
        encode(zero_cell(), [star([0], np.ones(D_IN)),
                             (np.array([0, 1]), np.ones((1, D_IN)))])


@st.composite
def star_histories(draw):
    """1-6 windows of 1-5 steps over ids 0-7; each step draws its own
    neighbour subset, so neighbours enter and leave mid-history."""
    n_steps = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    windows = []
    for _ in range(draw(st.integers(1, 6))):
        target = draw(st.integers(0, 7))
        others = [a for a in range(8) if a != target]
        windows.append([(target, sorted(draw(st.sets(st.sampled_from(
            others), max_size=4)))) for _ in range(n_steps)])
    arrays, graphs = [], []
    for window in windows:
        arrays.append([star([t] + nbrs, *rng.normal(size=(1 + len(nbrs),
                                                          D_IN)))
                       for t, nbrs in window])
        graphs.append([
            (dict(zip(ids.tolist(), x)),
             InteractionGraph(t, s, 50.0, frozenset((t, n) for n in nbrs)))
            for s, ((t, nbrs), (ids, x)) in enumerate(zip(window,
                                                          arrays[-1]))])
    return arrays, graphs


@settings(max_examples=150, deadline=None)
@given(star_histories())
def test_pack_histories_matches_graph_oracle(histories):
    arrays, graphs = histories
    steps, rows = packed(arrays)
    want_steps, want_rows = oracles.pack_graph_histories(graphs)
    assert rows == want_rows
    assert len(steps) == len(want_steps)
    for step, want in zip(steps, want_steps):
        got = [getattr(step, f.name) for f in dataclasses.fields(step)]
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)


def dense_gru_reference(gates, step, hd, g):
    """One recurrent update from hiddens ``hd`` and its gradients for the
    upstream gradient ``g``, with the neighbour mean taken as a padded
    (rows, K, d_h) gather times the slot mask and its gradient scattered
    back with ``np.add.at``: the output, the hidden gradient and the
    stacked gate gradients."""
    W, d = gates.stacked, gates.d_h
    if step.nbr_rows.shape[1]:
        h_bar = ((hd[step.nbr_rows] * step.nbr_mask[..., None]).sum(axis=1)
                 / step.nbr_count[:, None])
    else:
        h_bar = np.zeros_like(hd)
    kappa = _rows(step.x, W["w_self"]) + _rows(step.x_bar, W["w_nbr"])
    xi = _rows(hd, W["u_self"]) + _rows(h_bar, W["u_nbr"])
    bias = W["bias"]
    r = _sigmoid(kappa[:, :d] + xi[:, :d] + bias[:d])
    z = _sigmoid(kappa[:, d:2 * d] + xi[:, d:2 * d] + bias[d:2 * d])
    c = np.tanh(kappa[:, 2 * d:] + r * xi[:, 2 * d:] + bias[2 * d:])
    keep = ~step.present[:, None]
    out = np.where(keep, hd, (1.0 - z) * c + z * hd)
    g_new = np.where(keep, 0.0, g)
    da_c = g_new * (1.0 - z) * (1.0 - c * c)
    da_r = da_c * xi[:, 2 * d:] * r * (1.0 - r)
    da_z = g_new * (hd - c) * z * (1.0 - z)
    d_kappa = np.concatenate([da_r, da_z, da_c], axis=1)
    d_xi = np.concatenate([da_r, da_z, da_c * r], axis=1)
    dh = np.where(keep, g, g_new * z) + d_xi @ W["u_self"]
    if step.nbr_rows.shape[1]:
        d_bar = (d_xi @ W["u_nbr"]) / step.nbr_count[:, None]
        np.add.at(dh, step.nbr_rows,
                  d_bar[:, None, :] * step.nbr_mask[..., None])
    return out, dh, {"w_self": d_kappa.T @ step.x,
                     "w_nbr": d_kappa.T @ step.x_bar,
                     "u_self": d_xi.T @ hd, "u_nbr": d_xi.T @ h_bar,
                     "bias": d_kappa.sum(axis=0)}


@st.composite
def signed_zero_star_histories(draw):
    """star_histories' windows with about a third of the features -0.0
    and, at one drawn step or none, every star cut to its target, so that
    step has no neighbour slot (K = 0)."""
    arrays, _ = draw(star_histories())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lonely = draw(st.integers(-1, len(arrays[0]) - 1))
    return [[(ids[:1], x[:1]) if s == lonely else (ids, x)
             for s, (ids, x) in enumerate(
                 (ids, np.where(rng.uniform(size=x.shape) < 0.3, -0.0, x))
                 for ids, x in window)]
            for window in arrays]


@settings(max_examples=150, deadline=None)
@given(histories=signed_zero_star_histories(),
       seed=st.integers(0, 2**32 - 1))
def test_gru_step_neighbour_sums_match_dense_gather(histories, seed):
    """_gru_step's slot-order neighbour sums give the output, the hidden
    gradient and every gate gradient of the padded gather and np.add.at
    scatter bit for bit: rows without neighbours, lone targets, steps
    with K = 0, -0.0 features, and hiddens and gradients of both signs."""
    rng = np.random.default_rng(seed)
    cell, _ = init_model(small_hyper(seed=seed % 1000))
    steps, _ = packed(histories)
    for step in steps:
        gates = _StackedGates(cell)
        for p in gates.params:
            p.grad = None
        hd, g = (rng.uniform(0.05, 1.0, (len(step.x), cell.d_h))
                 * rng.choice([-1.0, 1.0], (len(step.x), cell.d_h))
                 for _ in range(2))
        h = ad.parameter(hd)
        out = _gru_step(gates, step, h)
        out._backward(g)
        want, want_dh, want_grads = dense_gru_reference(gates, step, hd, g)
        x_bar = oracles._neighbour_means(step.x, step.nbr_rows,
                                         step.nbr_mask, step.nbr_count)
        assert np.array_equal(step.x_bar.view(np.int64), x_bar.view(np.int64))
        assert np.array_equal(out.data.view(np.int64), want.view(np.int64))
        assert np.array_equal(h.grad.view(np.int64), want_dh.view(np.int64))
        d = cell.d_h
        for i, gate in enumerate(gates.gates):
            for part, grad in want_grads.items():
                assert np.array_equal(
                    getattr(gate, part).grad.view(np.int64),
                    grad[i * d:(i + 1) * d].view(np.int64))


# ---- encoder ----

def test_encode_zero_params_zero_hiddens():
    cell = zero_cell()
    seqs = encode(cell, [star([0], np.ones(D_IN))])
    assert list(seqs) == [0]
    assert np.array_equal(seqs[0][0].data, np.zeros(4))


def test_encode_empty_history_rejected():
    with pytest.raises(ShapeMismatch):
        encode(zero_cell(), [])


def test_encode_permutation_equivariance():
    hyper = small_hyper()
    cell, _ = init_model(hyper)
    f1 = np.arange(float(D_IN))
    f2 = -np.arange(float(D_IN)) / 3.0
    seq_a = encode(cell, [star([1, 2], f1, f2)] * 3)
    seq_b = encode(cell, [star([9, 5], f1, f2)] * 3)
    for s in range(3):
        assert np.array_equal(seq_a[1][s].data, seq_b[9][s].data)
        assert np.array_equal(seq_a[2][s].data, seq_b[5][s].data)


def test_encode_disconnected_equals_isolated_runs():
    # two windows packed together share rows of one step but no edge,
    # even where they hold the same agent ids
    hyper = small_hyper()
    cell, _ = init_model(hyper)
    f1 = np.arange(float(D_IN))
    f2 = np.full(D_IN, 0.5)
    window_0 = [star([0], f1), star([0, 3], f1, f2), star([0, 3], f1, f2)]
    window_3 = [star([3, 0], f2, -f1)] * 3
    steps, rows = packed([window_0, window_3])
    joint = encode_packed(cell, steps)
    alone_0 = encode(cell, window_0)
    alone_3 = encode(cell, window_3)
    for s in range(3):
        assert np.array_equal(joint[s].data[rows[0][0]],
                              alone_0[0][s].data)
        assert np.array_equal(joint[s].data[rows[1][3]],
                              alone_3[3][s].data)
        assert np.array_equal(joint[s].data[rows[1][0]],
                              alone_3[0][s].data)


def test_encode_mid_history_entrant_starts_at_zero():
    hyper = small_hyper()
    cell, _ = init_model(hyper)
    f1 = np.arange(float(D_IN))
    f2 = np.full(D_IN, 0.5)
    seqs = encode(cell, [star([0], f1), star([0, 2], f1, f2),
                         star([0, 2], f1, f2)])
    assert len(seqs[0]) == 3
    assert len(seqs[2]) == 2
    # agent 2 joins at step 1 from a zero row beside agent 0's state
    fresh = gru_rows(cell, [star([0, 2], f1, f2)],
                     [seqs[0][0].data, np.zeros(4)])
    assert np.array_equal(seqs[2][0].data, fresh[1])
    assert np.array_equal(seqs[0][1].data, fresh[0])
    assert np.array_equal(seqs[0][0].data,
                          encode(cell, [star([0], f1)])[0][0].data)


# ---- attention ----

def test_attend_equal_scores_is_mean():
    hyper = small_hyper()
    _, dec = init_model(hyper)
    h = np.array([0.3, -0.2, 0.9, 0.1])
    hiddens = [Tensor(h.copy()) for _ in range(5)]
    query = Tensor(np.array([1.0, 2.0, -0.5, 0.25]))
    weights = attention_weights(dec, hiddens, query)
    assert np.allclose(weights, np.full(5, 0.2), atol=1e-12)
    ctx = attend(dec, hiddens, query)
    assert np.allclose(ctx, h, atol=1e-12)


def test_attend_dominant_score_selects_step():
    hyper = small_hyper()
    _, dec = init_model(hyper)
    dec.w_att.data = np.eye(4)
    hiddens = [Tensor(np.zeros(4)) for _ in range(4)]
    hiddens[2] = Tensor(np.array([2.0, 0.0, 0.0, 0.0]))
    query = Tensor(np.array([100.0, 0.0, 0.0, 0.0]))
    ctx = attend(dec, hiddens, query)
    assert np.allclose(ctx, hiddens[2].data, atol=1e-9)
    weights = attention_weights(dec, hiddens, query)
    assert weights[2] == pytest.approx(1.0, abs=1e-9)


def test_attention_weights_are_probabilities():
    rng = np.random.default_rng(3)
    hyper = small_hyper()
    _, dec = init_model(hyper)
    hiddens = [Tensor(rng.normal(size=4)) for _ in range(6)]
    query = Tensor(rng.normal(size=4))
    w = attention_weights(dec, hiddens, query)
    assert np.all(w >= 0)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_fused_attend_matches_oracle_per_window_and_mode():
    rng = np.random.default_rng(4)
    hyper = small_hyper(modes=3)
    _, dec = init_model(hyper)
    H = rng.normal(size=(2, 5, hyper.d_h))
    queries = rng.normal(size=(2, 3, 4))
    ctx = _fused_attend(Tensor(H), dec.w_att, Tensor(queries),
                        1.0 / math.sqrt(hyper.d_h))
    for b in range(2):
        for m in range(3):
            expected = attend(dec, list(H[b]), queries[b, m])
            assert np.allclose(ctx.data[b, m], expected, rtol=1e-12,
                               atol=1e-12)


# ---- covariance propagation ----

def test_ekf_zero_noise_constant_velocity():
    x, P = ekf_propagate(np.array([1.0, 2.0, 3.0, -4.0]), np.zeros((4, 4)),
                         np.zeros(2), np.zeros((2, 2)), 0.5)
    assert np.allclose(x, [1.0 + 1.5, 2.0 - 2.0, 3.0, -4.0], atol=1e-12)
    assert np.array_equal(P, np.zeros((4, 4)))


def test_ekf_hand_kinematics():
    x, _ = ekf_propagate(np.array([0.0, 0.0, 10.0, 0.0]), np.zeros((4, 4)),
                         np.array([2.0, 0.0]), np.zeros((2, 2)), 0.2)
    ox, ov = oracles.kinematic_step((0, 0), (10, 0), (2, 0), 0.2)
    assert np.allclose(x, [ox[0], ox[1], ov[0], ov[1]], atol=1e-12)
    assert x[0] == pytest.approx(2.04, abs=1e-12)
    assert x[2] == pytest.approx(10.4, abs=1e-12)


def test_ekf_identity_trace():
    _, P = ekf_propagate(np.zeros(4), np.eye(4), np.zeros(2), np.eye(2),
                         1.0)
    assert np.trace(P) == pytest.approx(8.5, abs=1e-12)


def test_ekf_matches_oracle_on_random_psd():
    rng = np.random.default_rng(11)
    for _ in range(25):
        A = rng.normal(size=(4, 4))
        P = A @ A.T
        q = rng.uniform(0.1, 2.0, 2)
        dt = rng.uniform(0.05, 1.0)
        x = rng.normal(size=4)
        u = rng.normal(size=2)
        nx, nP = ekf_propagate(x, P, u, np.diag(q), dt)
        F, G = oracles.transition_matrices(dt)
        assert np.allclose(nx, F @ x + G @ u, atol=1e-12)
        assert np.allclose(nP, oracles.covariance_step(P, q, dt),
                           rtol=1e-12, atol=1e-12)


def test_ekf_rejects_bad_inputs():
    with pytest.raises(ShapeMismatch):
        ekf_propagate(np.zeros(3), np.eye(4), np.zeros(2), np.eye(2), 0.1)
    asym = np.eye(4)
    asym[0, 1] = 0.5
    with pytest.raises(NotPSD):
        ekf_propagate(np.zeros(4), asym, np.zeros(2), np.eye(2), 0.1)
    with pytest.raises(NotPSD):
        ekf_propagate(np.zeros(4), -np.eye(4), np.zeros(2), np.eye(2), 0.1)
    with pytest.raises(NotPSD):
        ekf_propagate(np.zeros(4), np.eye(4) * np.nan, np.zeros(2),
                      np.eye(2), 0.1)


def test_kinematic_matrices_shapes():
    F, G = kinematic_matrices(0.25)
    assert F.shape == (4, 4) and G.shape == (4, 2)
    assert F[0, 2] == 0.25 and G[2, 0] == 0.25 and G[0, 0] == 0.03125


# ---- decoding ----

def encoded_sequence(hyper, seed=5):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.normal(size=hyper.d_h)) for _ in range(hyper.t_h)]


def test_decode_single_mode_pi_is_exactly_one():
    hyper = small_hyper(modes=1)
    _, dec = init_model(hyper)
    pred = decode(dec, encoded_sequence(hyper),
                  np.array([0.0, 0.0, 5.0, 0.0]))
    assert pred.modes[0].pi == 1.0


def test_decode_zero_heads_constant_velocity_rollout():
    hyper = small_hyper(modes=2, t_f=4)
    _, dec = init_model(hyper)
    for head in dec.heads:
        head.w_u.data = np.zeros_like(head.w_u.data)
        head.b_u.data = np.zeros_like(head.b_u.data)
        head.w_s.data = np.zeros_like(head.w_s.data)
        # exp(-1000) underflows to exactly zero process noise
        head.b_s.data = np.full(2, -1000.0)
    x0 = np.array([1.0, -2.0, 6.0, 1.5])
    pred = decode(dec, encoded_sequence(hyper), x0)
    for mode in pred.modes:
        for p in range(1, hyper.t_f + 1):
            expected = np.array([
                x0[0] + x0[2] * p * hyper.dt,
                x0[1] + x0[3] * p * hyper.dt,
                x0[2], x0[3],
            ])
            assert np.allclose(mode.states[p - 1], expected, atol=1e-9)
        assert np.array_equal(mode.covariances,
                              np.zeros((hyper.t_f, 4, 4)))


def test_decode_rollout_matches_oracle_filter():
    hyper = small_hyper(modes=2, t_f=4)
    _, dec = init_model(hyper)
    controls = [np.array([0.5, -1.0]), np.array([-2.0, 0.25])]
    noises = [np.array([0.3, 1.5]), np.array([2.0, 0.1])]
    for head, u, q in zip(dec.heads, controls, noises):
        head.w_u.data = np.zeros_like(head.w_u.data)
        head.w_s.data = np.zeros_like(head.w_s.data)
        head.b_u.data = u.copy()
        head.b_s.data = np.log(q)
    x0 = np.array([1.0, -2.0, 6.0, 1.5])
    pred = decode(dec, encoded_sequence(hyper), x0)
    for mode, u, q in zip(pred.modes, controls, noises):
        x, P = x0, np.zeros((4, 4))
        for p in range(hyper.t_f):
            x, P = ekf_propagate(x, P, u, np.diag(q), hyper.dt)
            assert np.allclose(mode.states[p], x, rtol=1e-12, atol=1e-12)
            assert np.allclose(mode.covariances[p], P, rtol=1e-12,
                               atol=1e-12)


def test_decode_mixture_invariants():
    hyper = small_hyper(modes=3, t_f=5)
    _, dec = init_model(hyper)
    pred = decode(dec, encoded_sequence(hyper),
                  np.array([0.0, 0.0, 5.0, 1.0]))
    assert sum(m.pi for m in pred.modes) == pytest.approx(1.0, abs=1e-9)
    for m in pred.modes:
        traces = [np.trace(m.covariances[p]) for p in range(hyper.t_f)]
        assert all(b >= a - 1e-12 for a, b in zip(traces, traces[1:]))
        for p in range(hyper.t_f):
            cov = m.covariances[p]
            assert np.allclose(cov, cov.T, atol=1e-9)
            assert np.linalg.eigvalsh(cov).min() >= -1e-9
    pred.validate()


def test_decode_deterministic():
    hyper = small_hyper(modes=2)
    _, dec = init_model(hyper)
    seq = encoded_sequence(hyper)
    a = decode(dec, seq, np.array([0.0, 0.0, 3.0, 0.0]))
    b = decode(dec, seq, np.array([0.0, 0.0, 3.0, 0.0]))
    for ma, mb in zip(a.modes, b.modes):
        assert ma.pi == mb.pi
        assert np.array_equal(ma.states, mb.states)
        assert np.array_equal(ma.covariances, mb.covariances)


# ---- likelihood ----

def single_mode_prediction(positions, cov_scale=1.0, pi=1.0, dt=0.2):
    positions = np.asarray(positions, float)
    t_f = positions.shape[0]
    states = np.zeros((t_f, 4))
    states[:, :2] = positions
    covs = np.stack([np.eye(4) * cov_scale for _ in range(t_f)])
    return PredictionMode(pi=pi, states=states, covariances=covs)


@pytest.mark.parametrize("defects, message", [
    ({3: "asymmetric"}, "not symmetric"),
    ({3: "negative"}, "not PSD"),
    ({1: "negative", 3: "asymmetric"}, "not PSD"),
    ({1: "asymmetric", 3: "negative"}, "not symmetric"),
])
def test_validate_names_first_bad_covariance_step(defects, message):
    """The last step is checked, and the first failing step decides the
    message, in the second mode of two."""
    good = single_mode_prediction(np.zeros((4, 2)), pi=0.5)
    bad = single_mode_prediction(np.zeros((4, 2)), pi=0.5)
    MixturePrediction(modes=[good, bad], dt=0.2).validate()
    for step, defect in defects.items():
        if defect == "asymmetric":
            bad.covariances[step, 0, 1] += 1e-6
        else:
            bad.covariances[step, 2, 2] = -1e-6
    with pytest.raises(ValueError, match=message):
        MixturePrediction(modes=[good, bad], dt=0.2).validate()


def test_nll_identity_case():
    truth = np.array([[3.0, -1.0]])
    mode = single_mode_prediction(truth)
    pred = MixturePrediction(modes=[mode], dt=0.2)
    got = nll_loss(pred, truth)
    expected = oracles.mixture_nll(
        [0.0], [[truth[0]]], [[np.eye(2)]], truth)
    assert got == pytest.approx(expected, rel=1e-9)
    assert got == pytest.approx(math.log(2 * math.pi), abs=1e-5)


def test_nll_duplicated_mode_invariance():
    truth = np.array([[1.0, 2.0], [2.0, 2.5]])
    one = MixturePrediction(
        modes=[single_mode_prediction(truth + 0.3)], dt=0.2)
    split = MixturePrediction(modes=[
        single_mode_prediction(truth + 0.3, pi=0.5),
        single_mode_prediction(truth + 0.3, pi=0.5),
    ], dt=0.2)
    assert nll_loss(split, truth) == pytest.approx(nll_loss(one, truth),
                                                   rel=1e-12)


def test_nll_increases_away_from_mean():
    base = np.array([[0.0, 0.0]])
    pred = MixturePrediction(modes=[single_mode_prediction(base)], dt=0.2)
    losses = [nll_loss(pred, base + np.array([[d, 0.0]]))
              for d in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(b > a for a, b in zip(losses, losses[1:]))


def test_nll_matches_oracle_random_mixtures():
    rng = np.random.default_rng(21)
    for _ in range(20):
        t_f, modes = rng.integers(1, 5), rng.integers(1, 4)
        pis = rng.uniform(0.1, 1.0, modes)
        pis /= pis.sum()
        mode_list = []
        means = []
        covs = []
        for l in range(modes):
            states = np.zeros((t_f, 4))
            states[:, :2] = rng.normal(scale=2.0, size=(t_f, 2))
            cov_list = []
            for p in range(t_f):
                A = rng.normal(size=(2, 2))
                pos = A @ A.T + 0.05 * np.eye(2)
                full = np.zeros((4, 4))
                full[:2, :2] = pos
                full[2:, 2:] = np.eye(2)
                cov_list.append(full)
            mode_list.append(PredictionMode(
                pi=float(pis[l]), states=states,
                covariances=np.stack(cov_list)))
            means.append([states[p, :2] for p in range(t_f)])
            covs.append([cov_list[p][:2, :2] for p in range(t_f)])
        truth = rng.normal(scale=2.0, size=(t_f, 2))
        pred = MixturePrediction(modes=mode_list, dt=0.2)
        got = nll_loss(pred, truth)
        expected = oracles.mixture_nll(
            [math.log(p) for p in pis], means, covs, truth)
        assert got == pytest.approx(expected, rel=1e-9)


def test_nll_rejects_indefinite_covariance():
    truth = np.array([[0.0, 0.0]])
    mode = single_mode_prediction(truth)
    mode.covariances[0][:2, :2] = np.array([[1.0, 2.0], [2.0, 1.0]])
    pred = MixturePrediction(modes=[mode], dt=0.2)
    with pytest.raises(DegenerateCovariance):
        nll_loss(pred, truth)


def test_nll_shape_check():
    truth = np.array([[0.0, 0.0]])
    pred = MixturePrediction(modes=[single_mode_prediction(truth)], dt=0.2)
    with pytest.raises(ShapeMismatch):
        nll_loss(pred, np.zeros((3, 2)))


# ---- metrics ----

def test_metrics_exact_prediction():
    truth = np.array([[1.0, 1.0], [2.0, 1.5], [3.0, 2.0]])
    pred = MixturePrediction(modes=[
        single_mode_prediction(truth, pi=0.5),
        single_mode_prediction(truth, pi=0.5),
    ], dt=0.2)
    m = metrics(pred, truth)
    assert m["ade"] == 0.0 and m["fde"] == 0.0 and m["apde"] == 0.0
    assert math.isfinite(m["anll"]) and math.isfinite(m["fnll"])


def test_metrics_unit_offset():
    truth = np.array([[1.0, 1.0], [2.0, 1.5], [3.0, 2.0]])
    pred = MixturePrediction(
        modes=[single_mode_prediction(truth + np.array([1.0, 0.0]))],
        dt=0.2)
    m = metrics(pred, truth)
    assert m["ade"] == pytest.approx(1.0, abs=1e-12)
    assert m["fde"] == pytest.approx(1.0, abs=1e-12)
    assert m["apde"] == pytest.approx(1.0, abs=1e-12)


def test_metrics_mode_selection():
    truth = np.array([[0.0, 0.0], [1.0, 0.0]])
    good = single_mode_prediction(truth, pi=0.2)
    bad = single_mode_prediction(truth + 5.0, pi=0.8)
    m = metrics(MixturePrediction(modes=[good, bad], dt=0.2), truth)
    assert m["ade"] == 0.0  # ade/fde follow the best mode
    assert m["apde"] > 1.0  # apde follows the most probable mode


# ---- initialization and serialization ----

def test_init_model_deterministic_and_ordered():
    hyper = small_hyper()
    a_cell, a_dec = init_model(hyper)
    b_cell, b_dec = init_model(hyper)
    names_a = [n for n, _ in parameter_items(a_cell, a_dec)]
    names_b = [n for n, _ in parameter_items(b_cell, b_dec)]
    assert names_a == names_b
    assert names_a[0] == "cell.reset.w_self"
    assert names_a[-1] == "dec.b_pi"
    for (_, pa), (_, pb) in zip(parameter_items(a_cell, a_dec),
                                parameter_items(b_cell, b_dec)):
        assert np.array_equal(pa.data, pb.data)
        assert np.abs(pa.data).max() <= 0.1
    c_cell, c_dec = init_model(small_hyper(seed=1))
    assert not np.array_equal(a_dec.w_att.data, c_dec.w_att.data)


def test_save_load_roundtrip(tmp_path):
    hyper = small_hyper()
    cell, dec = init_model(hyper)
    base = str(tmp_path / "model")
    save_model(base, cell, dec, hyper)
    cell2, dec2, hyper2 = load_model(base + ".json")
    assert hyper2 == hyper
    for (na, pa), (nb, pb) in zip(parameter_items(cell, dec),
                                  parameter_items(cell2, dec2)):
        assert na == nb
        assert np.allclose(pa.data, pb.data, atol=1e-6)
    # saving the loaded model reproduces both files byte for byte
    base2 = str(tmp_path / "again")
    save_model(base2, cell2, dec2, hyper2)
    with open(base + ".f32", "rb") as fh:
        payload_a = fh.read()
    with open(base2 + ".f32", "rb") as fh:
        payload_b = fh.read()
    assert payload_a == payload_b


def test_save_load_forecast_drift_is_bounded(tmp_path):
    """The model file stores float32, so a forecast from a loaded model
    moves.  On a model trained on the churn scene the largest moves were
    1.7e-8 m in the states, 6.7e-4 in the covariances (whose entries reach
    1.2e4) and 3.6e-9 in pi; the bounds give each ten times headroom."""
    hyper = TrainHyper(d_h=6, modes=3, t_h=5, t_f=4, dt=0.2, epochs=20,
                       seed=11)
    sc = churn_scene()
    cell, dec, _ = train(extract_windows(sc, hyper), hyper)
    manifest, _ = save_model(str(tmp_path / "model"), cell, dec, hyper)
    cell2, dec2, hyper2 = load_model(manifest)
    assert hyper2 == hyper
    agents = [0, 1, 2, 3]
    before = predict_frame(cell, dec, sc, agents, 8, t_h=hyper.t_h)
    after = predict_frame(cell2, dec2, sc, agents, 8, t_h=hyper2.t_h)
    for a in agents:
        for m, n in zip(before[a].modes, after[a].modes, strict=True):
            assert abs(m.pi - n.pi) <= 4e-8
            assert np.abs(m.states - n.states).max() <= 2e-7
            assert np.abs(m.covariances - n.covariances).max() <= 7e-3


def test_load_model_rejects_malformed(tmp_path):
    hyper = small_hyper()
    cell, dec = init_model(hyper)
    base = str(tmp_path / "model")
    save_model(base, cell, dec, hyper)

    import json
    with open(base + ".json") as fh:
        manifest = json.load(fh)

    bad = dict(manifest, format="other-format")
    with open(str(tmp_path / "bad1.json"), "w") as fh:
        json.dump(bad, fh)
    with pytest.raises(ModelFormatError):
        load_model(str(tmp_path / "bad1.json"))

    bad = dict(manifest)
    bad["params"] = manifest["params"][:-1]
    with open(str(tmp_path / "bad2.json"), "w") as fh:
        json.dump(bad, fh)
    with pytest.raises(ModelFormatError):
        load_model(str(tmp_path / "bad2.json"))

    with open(base + ".f32", "rb") as fh:
        payload = fh.read()
    with open(base + ".f32", "wb") as fh:
        fh.write(payload[:-4])
    with pytest.raises(ModelFormatError):
        load_model(base + ".json")


MANIFEST_DEFECTS = {
    "not_an_object": lambda m: [m],
    "no_payload": lambda m: {k: v for k, v in m.items() if k != "payload"},
    "payload_not_text": lambda m: dict(m, payload=7),
    "param_entry_not_object": lambda m: dict(
        m, params=[e["name"] for e in m["params"]]),
    "shape_not_list": lambda m: dict(
        m, params=[dict(e, shape=3) for e in m["params"]]),
    "hyper_not_numeric": lambda m: dict(m, hyper=dict(m["hyper"], d_h="4")),
    "hyper_fraction": lambda m: dict(m, hyper=dict(m["hyper"], t_h=2.5)),
    "hyper_bool": lambda m: dict(m, hyper=dict(m["hyper"], modes=True)),
    "hyper_nan": lambda m: dict(m, hyper=dict(m["hyper"], dt=math.nan)),
    "version_1": lambda m: dict(m, version=1),
    "hyper_with_d_in": lambda m: dict(m, hyper=dict(m["hyper"], d_in=7)),
    "w_self_seven_columns": lambda m: dict(m, params=[
        dict(e, shape=[e["shape"][0], 7]) if e["name"].endswith("w_self")
        else e for e in m["params"]]),
}


@pytest.mark.parametrize("defect", sorted(MANIFEST_DEFECTS))
def test_load_model_rejects_malformed_manifest_fields(tmp_path, defect):
    import json
    hyper = small_hyper()
    cell, dec = init_model(hyper)
    manifest_path, _ = save_model(str(tmp_path / "model"), cell, dec, hyper)
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    with open(manifest_path, "w") as fh:
        json.dump(MANIFEST_DEFECTS[defect](manifest), fh)
    with pytest.raises(ModelFormatError):
        load_model(manifest_path)


# ---- windows and corpus ----

def test_extract_windows_centering_and_shapes():
    sc = constant_velocity_scenario(
        [(0, 0, 0, 10, 0), (1, 12, 3.5, 10, 0)], n_frames=8)
    hyper = small_hyper()
    samples = extract_windows(sc, hyper, targets=[0])
    assert len(samples) == 4  # frames 2..5 fit t_h=3 history, t_f=2 future
    s = samples[0]
    assert s.target_id.tolist() == [0] and s.frame.tolist() == [2]
    assert len(window_steps(s, 0)) == hyper.t_h
    ids, x = window_steps(s, 0)[-1]
    assert ids.tolist() == [0, 1] and x.shape == (2, D_IN)
    # target feature at the prediction frame is centered on itself
    assert np.allclose(x[0, :2], [0.0, 0.0], atol=1e-12)
    assert np.allclose(x[0, 2:4], [10.0, 0.0], atol=1e-12)
    assert np.array_equal(x[0, 4:], [0.0, 0.0])
    assert s.truth.shape == (1, hyper.t_f, 2)
    # truth is the centered future of a constant-velocity track
    assert np.allclose(s.truth[0, :, 0], [10 * sc.dt, 20 * sc.dt],
                       atol=1e-9)
    assert np.allclose(s.offset[0], sc.state(0, 2).position)


def test_extract_windows_drops_churn():
    frame_rate = 25.0
    states = []
    for f in range(10):
        states.append(make_state(0, f, (f * 0.4, 0.0), (10, 0)))
    for f in range(7):
        states.append(make_state(1, f, (5 + f * 0.4, 3.0), (10, 0)))
    from risknet.scene import scenario_from_states
    sc = scenario_from_states(states, frame_rate)
    hyper = small_hyper()
    samples = extract_windows(sc, hyper, targets=[0])
    # with the neighbor inside every history graph, only windows fully
    # covered by both tracks survive: prediction frames 2..4
    assert samples.frame.tolist() == [2, 3, 4]


def test_constant_motion_tracks_structure():
    hyper = small_hyper()
    tracks = constant_motion_tracks(6, hyper, seed=3)
    assert len(tracks) == 6
    for sc in tracks:
        assert len(sc.frame_list) == hyper.t_h + hyper.t_f
        assert list(sc.agents) == [0]
    again = constant_motion_tracks(6, hyper, seed=3)
    for a, b in zip(tracks, again):
        for f in a.frame_list:
            assert np.array_equal(a.state(0, f).position,
                                  b.state(0, f).position)
    speeds = [math.hypot(*a.state(0, 0).velocity) for a in tracks]
    assert all(2.999 <= s <= 7.001 for s in speeds)


def test_corpus_windows_yields_one_per_track():
    hyper = small_hyper()
    tracks = constant_motion_tracks(5, hyper, seed=3)
    samples = corpus_windows(tracks, hyper)
    assert len(samples) == 5



def test_corpus_windows_keep_each_files_step():
    # the stacked table has one frame rate; each window keeps its file's
    hyper = small_hyper()
    slow, fast = (constant_velocity_scenario([(0, 0, 0, 10, 0)], n_frames=6,
                                             frame_rate=rate)
                  for rate in (5.0, 25.0))
    batch = corpus_windows([slow, fast], hyper)
    assert batch.dt.tolist() == [0.2, 0.2, 0.04, 0.04]
    assert batch.frame.tolist() == [2, 3, 2, 3]
    with pytest.raises(BadConfig, match="step 0.04 s"):
        train(batch, hyper)
    train(batch[:2], hyper)

@st.composite
def track_corpora(draw):
    """1-4 track files of agents 0-3, so ids repeat across files, each
    file from its own first frame (one near 2**53).  Agents enter and
    leave (so the drop rule fires), coordinates reach -40 m (so
    load_tracks shifts them), and a file may be shorter than a window."""
    files = []
    for _ in range(draw(st.integers(1, 4))):
        base = draw(st.sampled_from([0, -3, 7, 2**53 - 40]))
        lines = ["frame,id,x,y,xVelocity,yVelocity,width,height"]
        for aid in draw(st.lists(st.integers(0, 3), min_size=1, max_size=4,
                                 unique=True)):
            first, length = draw(st.integers(0, 5)), draw(st.integers(1, 9))
            x, y, vx = (draw(st.integers(-40, 40)) / 2.0 for _ in range(3))
            lines += [f"{base + f},{aid},{x + vx * f * 0.2!r},{y!r},{vx!r},"
                      f"0.5,4.5,2.0" for f in range(first, first + length)]
        files.append("\n".join(lines) + "\n")
    return files


def reference_batch(windows):
    """A WindowBatch over a table of the reference windows' own centred
    star entries: each star's first entry row holds the star."""
    entries = [step for w in windows for step in w["steps"]]
    starts = np.cumsum([0] + [len(ids) for ids, _ in entries])
    return WindowBatch(
        np.array([w["target_id"] for w in windows]),
        np.array([w["frame"] for w in windows]),
        starts[:-1].reshape(len(windows), -1),
        (starts[:-1], starts, np.arange(starts[-1])),
        np.concatenate([ids for ids, _ in entries]),
        np.concatenate([x for _, x in entries]),
        np.stack([w["x0"] for w in windows]),
        np.stack([w["truth"] for w in windows]),
        np.zeros((len(windows), 2)), np.array([w["dt"] for w in windows]))


def assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(files=track_corpora())
def test_stacked_corpus_matches_per_file_reference(files, tmp_path_factory):
    """One table for the whole corpus gives the windows, packed batch and
    loss curve of windowing each file on its own (oracles.corpus_windows),
    every array bit for bit."""
    hyper = small_hyper(d_h=3, t_h=3, t_f=2, epochs=2)
    radius = 20.0
    folder = tmp_path_factory.mktemp("corpus")
    scenarios = []
    for k, text in enumerate(files):
        (folder / f"{k}.csv").write_text(text)
        scenarios.append(load_tracks(str(folder / f"{k}.csv"), 5.0))
    batch = corpus_windows(scenarios, hyper, radius=radius)
    want = oracles.corpus_windows(scenarios, hyper.t_h, hyper.t_f, radius)
    assert len(batch) == len(want)
    if not want:
        return
    for name in ("target_id", "frame", "dt"):
        assert getattr(batch, name).tolist() == [w[name] for w in want]
    for name in ("x0", "truth", "offset"):
        assert_bits_equal(getattr(batch, name),
                          np.stack([w[name] for w in want]))
    for k, w in enumerate(want):
        for (ids, x), (want_ids, want_x) in zip(window_steps(batch, k),
                                                w["steps"], strict=True):
            assert ids.tolist() == want_ids.tolist()
            assert_bits_equal(x, want_x)
    reference = reference_batch(want)
    want_steps, want_rows = oracles.pack_graph_histories([
        [(dict(zip(ids.tolist(), x)), InteractionGraph(
            ids[0], s, radius, frozenset((ids[0], n) for n in ids[1:])))
         for s, (ids, x) in enumerate(w["steps"])] for w in want])
    for got in (batch.packed, reference.packed):
        steps, target_rows = got
        assert target_rows.tolist() == [
            rows[w["target_id"]] for rows, w in zip(want_rows, want)]
        for step, want_step in zip(steps, want_steps, strict=True):
            for name, value in zip(
                    (f.name for f in dataclasses.fields(step)), want_step,
                    strict=True):
                assert_bits_equal(getattr(step, name), value)
    assert train(batch, hyper)[2] == train(reference, hyper)[2]


def test_star_steps_memory_is_bounded_as_frames_are_added():
    """Scenario.stars sends the distinct rows through in_radius in blocks
    of STAR_BLOCK, so on a dense scene (60 agents, each within the radius of
    all others) its peak beyond the stars it returns does not grow with
    the frames: one (block, 60) working set, about 9 MB.  Without the
    blocks the 480-frame scene peaks 85 MB beyond its stars."""

    def working_set(frames):
        agents = 60
        n = frames * agents
        sc = Scenario(5.0, np.repeat(np.arange(frames), agents),
                      np.tile(np.arange(agents), frames),
                      np.tile(np.arange(agents * 6.0).reshape(-1, 6) / 12.0,
                              (frames, 1)),
                      np.tile([4.5, 2.0], (n, 1)), np.full(n, 1500.0),
                      np.zeros(n, dtype=np.intp), (CAR,), "dense")
        tracemalloc.start()
        try:
            own, ptr, members = sc.stars(np.arange(n)[:, None], 50.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert members.size == n * agents  # every star is the whole frame
        # the returned stars, and their blocks until they are joined
        return peak - 2 * members.nbytes - own.nbytes - 2 * ptr.nbytes

    small, large = working_set(120), working_set(480)
    assert STAR_BLOCK < 120 * 60
    assert large < 24e6
    assert large < 1.1 * small


# ---- training ----

def test_train_zero_epochs_returns_initial():
    hyper = small_hyper(epochs=0)
    samples = corpus_windows(constant_motion_tracks(4, hyper, seed=0), hyper)
    cell, dec, curve = train(samples, hyper)
    init_cell, init_dec = init_model(hyper)
    assert len(curve) == 1
    for (_, pa), (_, pb) in zip(parameter_items(cell, dec),
                                parameter_items(init_cell, init_dec)):
        assert np.array_equal(pa.data, pb.data)


def test_train_deterministic():
    hyper = small_hyper(epochs=4)
    samples = corpus_windows(constant_motion_tracks(4, hyper, seed=0), hyper)
    a = train(samples, hyper)
    b = train(samples, hyper)
    assert a[2] == b[2]
    for (_, pa), (_, pb) in zip(parameter_items(a[0], a[1]),
                                parameter_items(b[0], b[1])):
        assert np.array_equal(pa.data, pb.data)


def test_train_curve_length_and_progress():
    hyper = small_hyper(epochs=6)
    samples = corpus_windows(constant_motion_tracks(8, hyper, seed=0), hyper)
    _, _, curve = train(samples, hyper)
    assert len(curve) == hyper.epochs + 1
    assert curve[-1] < curve[0]


def test_train_empty_dataset_rejected():
    with pytest.raises(BadConfig):
        train([], small_hyper())


def test_train_rejects_window_step_mismatch():
    hyper = small_hyper()  # dt=0.2
    sc = constant_velocity_scenario([(0, 0, 0, 10, 0)], n_frames=8,
                                    frame_rate=25.0)  # dt=0.04
    samples = extract_windows(sc, hyper)
    assert samples and samples.dt[0] == pytest.approx(0.04)
    with pytest.raises(BadConfig, match="does not match decoder step"):
        train(samples, hyper)
    # within predict_frame's tolerance of 1e-9 s the step is accepted
    samples.dt[:] = hyper.dt + 5e-10
    train(samples, hyper)


def test_train_nonfinite_data_raises_numeric_error():
    hyper = small_hyper(epochs=2)
    samples = corpus_windows(constant_motion_tracks(2, hyper, seed=0), hyper)
    samples.truth[0] = 1e200
    with np.errstate(all="ignore"), pytest.raises(NumericError):
        train(samples, hyper)


def test_train_overflowing_aggregate_raises_nonfinite_loss():
    # three window losses, each finite but calibrated near the float
    # ceiling, so only their aggregate overflows
    hyper = small_hyper(epochs=1)
    samples = corpus_windows(constant_motion_tracks(3, hyper, seed=0), hyper)
    cell, dec = init_model(hyper)
    probe = 1e10
    target = 0.7e308
    samples.truth[:] = 0.0
    samples.truth[:, :, 0] = probe
    scales = [math.sqrt(target / window_loss(cell, dec, s)) for s in samples]
    for i, scale in enumerate(scales):
        samples.truth[i, :, 0] = probe * scale
        assert math.isfinite(window_loss(cell, dec, samples[i]))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteLoss) as err:
        train(samples, hyper)
    assert err.value.epoch == 0


def test_gradient_check_suppressed_mode_has_zero_gradient():
    hyper = small_hyper(modes=2)
    cell, dec = init_model(hyper)
    dec.w_pi.data = np.zeros_like(dec.w_pi.data)
    dec.b_pi.data = np.array([0.0, -50.0])
    sample = corpus_windows(constant_motion_tracks(1, hyper, seed=2),
                            hyper)[0]

    for _, p in parameter_items(cell, dec):
        p.grad = None
    loss = _window_loss(cell, dec, sample)
    ad.backward(loss)

    eps = 1e-5
    suppressed = dec.heads[1]
    for tensor in (suppressed.w_u, suppressed.b_u, suppressed.w_s,
                   suppressed.b_s):
        analytic = tensor.grad if tensor.grad is not None else np.zeros(
            tensor.data.shape)
        flat = tensor.data.ravel()
        for idx in range(min(3, flat.size)):
            orig = flat[idx]
            flat[idx] = orig + eps
            hi = window_loss(cell, dec, sample)
            flat[idx] = orig - eps
            lo = window_loss(cell, dec, sample)
            flat[idx] = orig
            numeric = (hi - lo) / (2 * eps)
            assert abs(numeric) < 1e-7
            assert abs(np.asarray(analytic).ravel()[idx]) < 1e-7


def test_predict_for_agent_rejects_dt_mismatch():
    hyper = small_hyper()
    cell, dec = init_model(hyper)
    sc = constant_velocity_scenario([(0, 0, 0, 10, 0)], n_frames=8,
                                    frame_rate=25.0)  # dt=0.04 != 0.2
    with pytest.raises(BadConfig):
        predict_for_agent(cell, dec, sc, 0, 4)


def test_predict_for_agent_returns_world_coordinates():
    hyper = small_hyper()
    cell, dec = init_model(hyper)
    sc = constant_velocity_scenario([(0, 40, 6, 5, 0)], n_frames=8,
                                    frame_rate=5.0)  # dt matches 0.2
    pred = predict_for_agent(cell, dec, sc, 0, 4)
    assert pred.anchor is not None
    assert pred.anchor.agent_id == 0
    anchor_pos = sc.state(0, 4).position
    for m in pred.modes:
        d0 = np.linalg.norm(m.states[0, :2] - anchor_pos)
        assert d0 < 10.0  # de-centered back near the agent, not the origin
    pred.validate()


# ---- pinned training trajectory ----
#
# Values recorded from the six-feature trainer (x, y, vx, vy, ax, ay).
# The seven-feature trainer before it, started from the same weights plus
# a random lane-offset column, gives these values bit for bit: that column
# only multiplied zeros.  The fresh weights differ from the older pins
# because the seeded draws shift by one column per gate matrix.  Batching
# and summation order may move the last bits, so the epoch-0 loss must
# agree to 1e-9 relative, the 5-epoch curve to 1e-6 and the forecasts
# to 1e-9.

def pinned_hyper():
    return TrainHyper(d_h=5, modes=2, t_h=5, t_f=3, dt=0.2, lr=0.05,
                      epochs=5, seed=2)


# Distance ahead of agent 0 per frame.  With a 50 m radius agent 1 enters,
# leaves and re-enters within single history windows (e.g. the window
# ending at frame 6 sees it absent, present, absent, present), and agent 3
# first enters at frame 3.
NEIGHBOUR_1_DX = [30, 45, 55, 62, 48, 58, 44, 60, 44, 30, 20, 25]
NEIGHBOUR_3_DX = [80, 70, 60, 49, 40, 35, 30, 28, 27, 26, 25, 24]


def churn_scene():
    from risknet.scene import scenario_from_states
    states = []
    for f in range(12):
        x0 = 2.0 * f
        states.append(make_state(0, f, (x0, 0.0), (10.0, 0.0), (0.0, 0.0)))
        states.append(make_state(1, f, (x0 + NEIGHBOUR_1_DX[f], 3.5),
                                 (10.0 + 5.0 * np.sin(f), 0.3),
                                 (np.cos(f), 0.0)))
        states.append(make_state(2, f, (x0 + 10.0 + 0.5 * f, -3.5),
                                 (12.5, 0.0), (0.1, 0.0)))
        states.append(make_state(3, f, (x0 + NEIGHBOUR_3_DX[f], 7.0),
                                 (8.0, 0.5), (0.0, -0.2)))
    return scenario_from_states(states, 5.0)


SOLO_CURVE = [-12.024040217603577, -12.148767780143372, -12.271858277667022,
              -12.395045114757204, -12.519780685543827, -12.647282321323166]
SOLO_PIS = [0.5146698140772753, 0.48533018592272475]
SOLO_STATES = [
    [[61.80386581860614, 71.44442212682533, 1.5173279084130569,
      -6.314629828848465],
     [62.11047248996593, 70.18086902105242, 1.5487388051848219,
      -6.320901228880721],
     [62.42336052982622, 68.91606156996949, 1.5801415934180199,
      -6.327173281948485]],
    [[61.80163986317966, 71.44443407116859, 1.4950683541481806,
      -6.314510385415844],
     [62.10156939783495, 70.18091734201997, 1.5042269924047416,
      -6.320656906070455],
     [62.4033305795908, 68.9161717876776, 1.513384825153804,
      -6.326798637353135]],
]
CHURN_CURVE = [84668.20216407163, 56790.578071521406, 35487.678665507716,
               21633.01089972451, 12940.254653573094, 7439.747802645]
CHURN_PIS = {
    0: [0.5015240948232708, 0.4984759051767293],
    1: [0.5385773988670229, 0.461422601132977],
}
CHURN_STATES = {
    0: [[[24.001925745121678, 0.0024101389655174156, 10.019257451216781,
          0.024101389655174152],
         [26.007704114725207, 0.009654121563352899, 10.038526244818526,
          0.048338436323180675],
         [28.01733718001972, 0.02175853599191881, 10.057804408126577,
          0.07270570796247844]],
        [[23.999064310780295, -0.0002951785979429931, 9.990643107802947,
          -0.00295178597942993],
         [25.996312980318038, -0.0012526687966039917, 9.981843587574474,
          -0.006623116007180055],
         [27.991855041540617, -0.003013116742763101, 9.97357702465134,
          -0.010981363454411038]]],
    1: [[[50.41145288232911, 3.5651480812527536, 12.053936397082316,
          0.35148081252753477],
         [52.8215734279966, 3.6405935433640275, 12.047269059592574,
          0.40297380858520593],
         [55.23035935506887, 3.726338842335023, 12.040590211130134,
          0.45447918112474917]],
        [[50.406329474947846, 3.5644322148798198, 12.002702323269691,
          0.3443221487981997],
         [52.801087856777066, 3.6377217684317342, 11.94488149502248,
          0.3885733867209422],
         [55.18428910562238, 3.719854372466059, 11.887130993430668,
          0.43275265362230747]]],
}

def assert_pinned_curve(curve, expected):
    assert len(curve) == len(expected)
    assert curve[0] == pytest.approx(expected[0], rel=1e-9)
    assert curve == pytest.approx(expected, rel=1e-6)


def assert_pinned_forecast(pred, pis, states):
    assert [m.pi for m in pred.modes] == pytest.approx(pis, abs=1e-9)
    for mode, expected in zip(pred.modes, states):
        assert np.allclose(mode.states, expected, rtol=1e-9, atol=1e-9)


def test_pinned_trajectory_solo_corpus():
    hyper = pinned_hyper()
    samples = corpus_windows(constant_motion_tracks(6, hyper, seed=4), hyper)
    cell, dec, curve = train(samples, hyper)
    assert_pinned_curve(curve, SOLO_CURVE)
    held_out = constant_motion_tracks(1, hyper, seed=9)[0]
    pred = predict_for_agent(cell, dec, held_out, 0, hyper.t_h - 1,
                             t_h=hyper.t_h)
    assert_pinned_forecast(pred, SOLO_PIS, SOLO_STATES)


def test_pinned_trajectory_neighbour_churn():
    hyper = pinned_hyper()
    sc = churn_scene()
    samples = extract_windows(sc, hyper)
    assert len(samples) == 20
    presence = [sorted(ids.tolist()) for ids, _ in window_steps(samples, 2)]
    assert samples.target_id[2] == 0 and samples.frame[2] == 6
    assert presence == [[0, 2], [0, 2, 3], [0, 1, 2, 3], [0, 2, 3],
                        [0, 1, 2, 3]]
    cell, dec, curve = train(samples, hyper)
    assert_pinned_curve(curve, CHURN_CURVE)
    for agent_id, frame, t_h in ((0, 11, None), (1, 9, hyper.t_h)):
        pred = predict_for_agent(cell, dec, sc, agent_id, frame, t_h=t_h)
        assert_pinned_forecast(pred, CHURN_PIS[agent_id],
                               CHURN_STATES[agent_id])


def churn_scene_with_late_entrant(first_frame):
    """churn_scene plus agent 4, first seen at ``first_frame`` just behind
    agent 0 and inside every neighbourhood of it."""
    from risknet.scene import scenario_from_states
    sc = churn_scene()
    states = [s for f in sc.frame_list for s in sc.states_at(f)]
    states += [make_state(4, f, (2.0 * f - 15.0, 0.5), (11.0, -0.1),
                          (0.2, 0.0)) for f in range(first_frame, 12)]
    return scenario_from_states(states, 5.0)


@pytest.mark.parametrize("t_h", [None, 5, 2])
def test_predict_frame_equals_batch_of_one(t_h):
    # agent 4 has 1 to 4 history frames at frames 8 to 11, the others 9 to
    # 12 (t_h=None) or 5, so those batches span two history lengths
    hyper = TrainHyper(d_h=6, modes=3, t_h=5, t_f=4, dt=0.2, seed=11)
    cell, dec = init_model(hyper)
    sc = churn_scene_with_late_entrant(first_frame=8)
    for frame in range(8, 12):
        agents = sc.frame_ids(frame)
        assert agents == [0, 1, 2, 3, 4]
        batch = predict_frame(cell, dec, sc, agents, frame, t_h=t_h)
        assert list(batch) == agents
        for agent_id in agents:
            alone = predict_for_agent(cell, dec, sc, agent_id, frame,
                                      t_h=t_h)
            assert batch[agent_id].anchor is sc.state(agent_id, frame)
            for got, want in zip(batch[agent_id].modes, alone.modes,
                                 strict=True):
                assert got.pi == want.pi
                assert np.array_equal(got.states, want.states)
                assert np.array_equal(got.covariances, want.covariances)

# ---- packed batches ----

def churn_hyper():
    return TrainHyper(d_h=3, modes=2, t_h=5, t_f=2, dt=0.2, lr=0.05,
                      epochs=1, seed=5)


def test_gradient_check_with_neighbour_churn():
    hyper = churn_hyper()
    cell, dec = init_model(hyper)
    samples = extract_windows(churn_scene(), hyper, targets=[0])
    sample = samples[int(np.flatnonzero(samples.frame == 6)[0])]
    # agent 1 is absent, absent, present, absent, present
    assert [1 in ids for ids, _ in window_steps(sample, 0)] == [
        False, False, True, False, True]
    assert gradient_check(cell, dec, sample, eps=1e-5) < 1e-3


def test_packed_batch_equals_mean_of_single_windows():
    hyper = churn_hyper()
    cell, dec = init_model(hyper)
    samples = extract_windows(churn_scene(), hyper)
    params = [p for _, p in parameter_items(cell, dec)]

    def loss_and_grads(batch):
        for p in params:
            p.grad = None
        loss = _window_loss(cell, dec, batch)
        ad.backward(loss)
        return float(loss.data), [
            np.zeros_like(p.data) if p.grad is None else p.grad.copy()
            for p in params
        ]

    packed_loss, packed_grads = loss_and_grads(samples)
    singles = [loss_and_grads(s) for s in samples]
    assert packed_loss == pytest.approx(
        np.mean([loss for loss, _ in singles]), rel=1e-12)
    for i, g in enumerate(packed_grads):
        expected = np.mean([grads[i] for _, grads in singles], axis=0)
        assert np.allclose(g, expected, rtol=1e-9, atol=1e-12)


def test_train_rejects_windows_of_other_lengths():
    # a batch holds one t_h and one t_f; training it for another refuses
    hyper = small_hyper()
    short = corpus_windows(constant_motion_tracks(1, hyper), hyper)
    for longer in (small_hyper(t_h=4), small_hyper(t_f=3)):
        long = corpus_windows(constant_motion_tracks(1, longer), longer)
        with pytest.raises(BadConfig):
            train(short, longer)
        with pytest.raises(BadConfig):
            train(long, hyper)
