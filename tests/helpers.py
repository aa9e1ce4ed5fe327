"""Small helpers shared by the tests; the package itself never needs them."""
import numpy as np

import streamformer.tensor as T
from streamformer.streams import Rows, StreamBatch


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
    active slots must come first; only they become rows.  A Tensor keeps
    its gradient path through the conversion."""
    active = np.asarray(active) > 0
    B, k = active.shape
    keep = np.flatnonzero(active.reshape(-1))
    h = T.reshape(hidden, (B * k,) + tuple(hidden.shape[2:]))
    if len(keep) < B * k:
        h = T.gather_rows(h, keep)
    occ = np.asarray(occupancy).reshape(B * k, -1)[keep]
    return StreamBatch(h, occ, Rows(active.sum(axis=1)), np.asarray(stream_ids),
                       np.asarray(lengths))


def dense(H, x=None):
    """A per-row array of H (its hidden data by default) in the dense
    (B, k, ...) layout, zero in the slots without a row."""
    x = H.hidden.data if x is None else x
    out = np.zeros((H.batch, H.k) + x.shape[1:])
    out[H.active > 0] = x
    return out


def permuted(H, order):
    """H with every sequence's streams reordered, for equivariance checks;
    each sequence must hold len(order) streams."""
    order = list(order)
    starts = np.cumsum(H.rows.counts) - H.rows.counts
    idx = (starts[:, None] + np.array(order)[None, :]).reshape(-1)
    return StreamBatch(T.Tensor(H.hidden.data[idx]), H.occupancy[idx], H.rows,
                       H.stream_ids[:, order], H.lengths)


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
