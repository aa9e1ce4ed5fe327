"""Small helpers shared by the tests; the package itself never needs them."""
import numpy as np

import streamformer.tensor as T
from streamformer.streams import Grid, Rows, StreamBatch


def zero_grads(params):
    for p in params:
        p.zero_grad()


def gradient_check(params, loss_fn, h=1e-4):
    """Compare analytic gradients against central finite differences.

    loss_fn() must rebuild the loss from the live parameter buffers.  For
    each trainable parameter every coordinate is displaced by +-h and the
    relative error |ad - fd| / max(1e-3, |ad| + |fd|) is recorded.  Returns
    {parameter name: max relative error}.  Parameters the loss never reads
    get an analytic gradient of exactly zero.
    """
    zero_grads(params)
    loss = loss_fn()
    T.backward(loss)
    analytic = {}
    for p in params:
        if not p.trainable:
            continue
        g = p.grad
        analytic[p.name] = np.zeros_like(p.data) if g is None else g.copy()
    report = {}
    for p in params:
        if not p.trainable:
            continue
        worst = 0.0
        flat = p.data.reshape(-1)
        ga = analytic[p.name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            with T.no_grad():
                lp = loss_fn().item()
            flat[i] = orig - h
            with T.no_grad():
                lm = loss_fn().item()
            flat[i] = orig
            fd = (lp - lm) / (2.0 * h)
            rel = abs(ga[i] - fd) / max(1e-3, abs(ga[i]) + abs(fd))
            if rel > worst:
                worst = rel
        report[p.name] = worst
    zero_grads(params)
    return report


def index(a, key):
    """Basic slicing as a graph node; the gradient pastes into zeros."""
    ad = T._data(a)

    def back(g):
        buf = np.zeros_like(ad)
        buf[key] = g
        return buf

    return T._node(ad[key], (a,), (back,))


def concat(parts, axis):
    """Concatenation as a graph node; each part gets its slice back."""
    datas = [T._data(p) for p in parts]
    offsets = np.cumsum([0] + [d.shape[axis] for d in datas])

    def back(i):
        sl = [slice(None)] * datas[0].ndim
        sl[axis] = slice(offsets[i], offsets[i + 1])
        return lambda g: g[tuple(sl)]

    return T._node(np.concatenate(datas, axis=axis), tuple(parts),
                   tuple(back(i) for i in range(len(parts))))


def rows_batch(hidden, occupancy, active, stream_ids, lengths):
    """A StreamBatch from the dense layout: hidden (B, k, L, d), an array
    or a Tensor, occupancy (B, k, L) and active (B, k).  Each sequence's
    active slots must come first; only they become rows, and only a row's
    first lengths[b] positions become cells.  A Tensor keeps its gradient
    path through the conversion."""
    active = np.asarray(active) > 0
    lengths = np.asarray(lengths)
    B, k, L = np.shape(occupancy)
    rows = Rows(active.sum(axis=1))
    cells = active[:, :, None] & (np.arange(L) < lengths[:, None, None])
    keep = np.flatnonzero(cells)
    h = T.reshape(hidden, (B * k * L, hidden.shape[-1]))
    if len(keep) < B * k * L:
        h = T.gather_rows(h, keep)
    occ = np.asarray(occupancy).reshape(-1)[keep]
    return StreamBatch(h, occ, rows, np.asarray(stream_ids), lengths,
                       Grid.of(np.arange(L) < lengths[rows.seq][:, None]))


def dense(H, x=None):
    """A per-cell array of H (its hidden data by default) in the dense
    (B, k, L, ...) layout, zero in the slots and positions without a
    cell."""
    x = H.hidden.data if x is None else x
    out = np.zeros((H.batch, H.k, H.length) + x.shape[1:])
    out[H.active > 0] = H.grid.scatter(x)
    return out


def permuted(H, order):
    """H with every sequence's streams reordered, for equivariance checks;
    each sequence must hold len(order) streams."""
    order = list(order)
    starts = np.cumsum(H.rows.counts) - H.rows.counts
    idx = (starts[:, None] + np.array(order)[None, :]).reshape(-1)
    grid = H.grid

    def reorder(x):
        return grid.gather(grid.scatter(x)[idx])

    return StreamBatch(T.Tensor(reorder(H.hidden.data)), reorder(H.occupancy),
                       H.rows, H.stream_ids[:, order], H.lengths, grid)


def shared_by_streams(x, streams):
    """Heads x (B, 1, ...) of keys shared by a sequence's streams, copied
    to (B, streams, ...) through the row gather the model uses for them."""
    b = x.shape[0]
    rows = T.gather_rows(T.reshape(x, (b,) + x.shape[2:]),
                         np.repeat(np.arange(b), streams))
    return T.reshape(rows, (b, streams) + x.shape[2:])


def attention(mha, q_in, k_in, v_in, mask, q_positions, k_positions):
    """One MultiHeadAttention call on explicit queries, keys and values.
    Keys with a size-1 stream axis are shared by every query stream."""
    k, v = mha.project_kv(k_in, v_in, k_positions)
    if k.shape[1] < q_in.shape[1]:
        k = shared_by_streams(k, q_in.shape[1])
        v = shared_by_streams(v, q_in.shape[1])
    return mha.attend(q_in, k, v, mask, q_positions)
