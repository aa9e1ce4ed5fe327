"""Small helpers shared by the tests; the package itself never needs them."""
import numpy as np

import streamformer.attention as A
import streamformer.tensor as T
from streamformer.errors import ContractError, DimensionError, VocabularyError
from streamformer.model import (_CROSS_CODES, _SUBLAYER_CODES,
                                InvarianceReport, ModelConfig, decode_greedy)
from streamformer.streams import (SOS_ID, AlphaRenaming, Grid, Rows,
                                  StreamBatch)


def identity_renaming(vocab):
    return AlphaRenaming(vocab, {})


def is_identity(renaming):
    return all(k == v for k, v in renaming.mapping.items())


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
                lp = float(loss_fn().data)
            flat[i] = orig - h
            with T.no_grad():
                lm = float(loss_fn().data)
            flat[i] = orig
            fd = (lp - lm) / (2.0 * h)
            rel = abs(ga[i] - fd) / max(1e-3, abs(ga[i]) + abs(fd))
            if rel > worst:
                worst = rel
        report[p.name] = worst
    zero_grads(params)
    return report


# ---------------------------------------------------------------------------
# elementary autodiff ops: the oracles spell the fused nodes out with them,
# one graph node per step, and tests build small graphs from them

def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to the operand's shape: the
    package's equal and trailing-shape cases, then any leading axes and
    size-1 axes it broadcast along."""
    if g.shape == shape or g.shape[g.ndim - len(shape):] == shape:
        return T._unbroadcast(g, shape)
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _data(x):
    return x.data if isinstance(x, T.Tensor) else np.asarray(x, dtype=np.float64)


def _node(out_data, srcs, grad_fns):
    """Build an output tensor with one vjp per operand; only Tensor
    operands become graph parents."""
    if not T._GRAD_ENABLED:
        return T.Tensor(out_data)
    parents = []
    fns = []
    for s, fn in zip(srcs, grad_fns):
        if isinstance(s, T.Tensor):
            parents.append(s)
            fns.append(fn)
    if not parents:
        return T.Tensor(out_data)

    def vjp(g):
        return tuple(fn(g) for fn in fns)

    return T.Tensor(out_data, tuple(parents), vjp)


def add(a, b):
    ad, bd = _data(a), _data(b)
    return _node(ad + bd, (a, b),
                 (lambda g: _unbroadcast(g, ad.shape),
                  lambda g: _unbroadcast(g, bd.shape)))


def sub(a, b):
    ad, bd = _data(a), _data(b)
    return _node(ad - bd, (a, b),
                 (lambda g: _unbroadcast(g, ad.shape),
                  lambda g: _unbroadcast(-g, bd.shape)))


def mul(a, b):
    ad, bd = _data(a), _data(b)
    return _node(ad * bd, (a, b),
                 (lambda g: _unbroadcast(g * bd, ad.shape),
                  lambda g: _unbroadcast(g * ad, bd.shape)))


def div(a, b):
    ad, bd = _data(a), _data(b)
    out = ad / bd
    return _node(out, (a, b),
                 (lambda g: _unbroadcast(g / bd, ad.shape),
                  lambda g: _unbroadcast(-g * ad / (bd * bd), bd.shape)))


def matmul(a, b):
    ad, bd = _data(a), _data(b)
    if ad.ndim < 2 or bd.ndim < 2:
        raise DimensionError("matmul operands must have at least 2 axes")
    if ad.shape[-1] != bd.shape[-2]:
        raise DimensionError(
            f"matmul inner axes disagree: {ad.shape} @ {bd.shape}")
    out = np.matmul(ad, bd)
    if bd.ndim == 2:
        # a weight: fold every leading axis of a into rows, so each gradient
        # is one GEMM and the weight's sum over rows runs inside it
        K, N = bd.shape
        return _node(out, (a, b),
                     (lambda g: np.matmul(g.reshape(-1, N), bd.T).reshape(ad.shape),
                      lambda g: np.matmul(ad.reshape(-1, K).T, g.reshape(-1, N))))
    return _node(out, (a, b),
                 (lambda g: _unbroadcast(np.matmul(g, bd.swapaxes(-1, -2)), ad.shape),
                  lambda g: _unbroadcast(np.matmul(ad.swapaxes(-1, -2), g), bd.shape)))


def transpose(a, axes):
    ad = _data(a)
    inv = np.argsort(axes)
    return _node(np.transpose(ad, axes), (a,),
                 (lambda g: np.transpose(g, inv),))


def tsum(a, axis=None, keepdims=False):
    ad = _data(a)

    def back(g):
        if axis is None:
            return np.broadcast_to(g, ad.shape).copy()
        gg = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg, ad.shape).copy()

    return _node(ad.sum(axis=axis, keepdims=keepdims), (a,), (back,))


def exp(a):
    out = np.exp(_data(a))
    return _node(out, (a,), (lambda g: g * out,))


def log(a):
    ad = _data(a)
    return _node(np.log(ad), (a,), (lambda g: g / ad,))


def sqrt(a):
    out = np.sqrt(_data(a))
    return _node(out, (a,), (lambda g: g * (0.5 / out),))


def take_along_last(a, idx):
    """Pick one entry per row over the last axis: out[..., ] = a[..., idx].

    idx has the shape of a minus its last axis.  Used to pull target-class
    scores out of logits without touching the other columns, which may
    hold -inf sentinels that a one-hot multiply would turn into nan.
    """
    ad = _data(a)
    ix = np.asarray(idx, dtype=np.int64)
    if ix.shape != ad.shape[:-1]:
        raise DimensionError(
            f"take_along_last: index shape {ix.shape} does not match {ad.shape[:-1]}")
    if ix.size and (ix.min() < 0 or ix.max() >= ad.shape[-1]):
        raise ContractError("take_along_last: index out of range")
    out = np.take_along_axis(ad, ix[..., None], axis=-1)[..., 0]

    def back(g):
        buf = np.zeros_like(ad)
        np.put_along_axis(buf, ix[..., None], g[..., None], axis=-1)
        return buf

    return _node(out, (a,), (back,))


def index(a, key):
    """Basic slicing as a graph node; the gradient pastes into zeros."""
    ad = _data(a)

    def back(g):
        buf = np.zeros_like(ad)
        buf[key] = g
        return buf

    return _node(ad[key], (a,), (back,))


def concat(parts, axis):
    """Concatenation as a graph node; each part gets its slice back."""
    datas = [_data(p) for p in parts]
    offsets = np.cumsum([0] + [d.shape[axis] for d in datas])

    def back(i):
        sl = [slice(None)] * datas[0].ndim
        sl[axis] = slice(offsets[i], offsets[i + 1])
        return lambda g: g[tuple(sl)]

    return _node(np.concatenate(datas, axis=axis), tuple(parts),
                 tuple(back(i) for i in range(len(parts))))


def stream_lookup_ids(seq, vocab, stream_ids):
    """Per-stream embedding row indices plus occupancy for one sequence.

    Stream i rewrites the sequence so its own id reads the actual row and
    every other interchangeable id reads the placeholder row.  An empty
    stream_ids list yields one synthetic stream (plain base embedding).
    """
    x = np.asarray(seq, dtype=np.int64)
    if x.size and (x.min() < 0 or x.max() >= vocab.total_size):
        raise VocabularyError("sequence contains out-of-range token ids")
    k = max(1, len(stream_ids))
    L = len(x)
    inter = np.array([vocab.is_inter(t) for t in x], dtype=bool)
    lookup = np.tile(x, (k, 1))
    lookup[:, inter] = vocab.placeholder_row
    occupancy = np.zeros((k, L), dtype=np.float64)
    for i, sid in enumerate(stream_ids):
        own = x == sid
        lookup[i, own] = vocab.actual_row
        occupancy[i, own] = 1.0
    return lookup, occupancy


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
    if not isinstance(hidden, T.Tensor):
        hidden = T.Tensor(hidden)
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
    out = np.zeros((len(H.lengths), H.k, H.length) + x.shape[1:])
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


def ablation_code(cfg):
    """The ablation code of a ModelConfig, e.g. "EP-DP-EA-DA-CP": the
    inverse of ModelConfig.from_code."""
    parts = [tok for tok, use in _SUBLAYER_CODES.items()
             if getattr(cfg, use)]
    parts += [tok for mode in cfg.cross_modes
              for tok, m in _CROSS_CODES.items() if m == mode]
    return "-".join(parts)


def attention_config(d_model, heads):
    """An AttentionConfig at ModelConfig's rotary base."""
    return A.AttentionConfig(d_model, heads, ModelConfig.rope_base)


def phases(mha, positions):
    """The rotation() table of positions for mha's heads: what
    project_kv and attend rotate keys and queries by."""
    return A.rotation(mha.cfg, positions)


def attention(mha, q_in, k_in, v_in, mask, q_positions, k_positions):
    """One MultiHeadAttention call on explicit queries, keys and values.
    Keys with a size-1 stream axis are shared by every query stream."""
    k, v = mha.project_kv(k_in, v_in, phases(mha, k_positions),
                          grid=Grid(k_in.shape[:-1]))
    if k.shape[1] < q_in.shape[1]:
        k = shared_by_streams(k, q_in.shape[1])
        v = shared_by_streams(v, q_in.shape[1])
    return mha.attend(q_in, k, v, mask, phases(mha, q_positions),
                      grid=Grid(q_in.shape[:-1]))


def check_invariance_two_calls(model, src, f, max_len=64):
    """check_invariance the long way, the oracle for the batched one: two
    one-row greedy decodes, of the source and of its renamed image, and
    two one-sequence teacher-forced passes."""
    src = [int(t) for t in src]
    renamed_src = f(src)
    base = decode_greedy(model, src, max_len)
    ren = decode_greedy(model, renamed_src, max_len)
    round_trip = f.inverse()(ren.tokens)
    y = base.tokens
    with T.no_grad():
        logits1 = model.forward(src, [SOS_ID] + y).data
        logits2 = model.forward(renamed_src, [SOS_ID] + f(y)).data
    aligned = model.align_renamed_logits(logits2, src, renamed_src, f)
    fin1, fin2 = np.isfinite(logits1), np.isfinite(aligned)
    if not np.array_equal(fin1, fin2):
        disc = float("inf")
    elif fin1.any():
        disc = float(np.max(np.abs(logits1[fin1] - aligned[fin2])))
    else:
        disc = 0.0
    return InvarianceReport(disc, round_trip == base.tokens,
                            base.tied or ren.tied, base.tokens, round_trip)
