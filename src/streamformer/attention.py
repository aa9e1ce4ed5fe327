"""Multi-head attention over stream batches.

One MultiHeadAttention module is applied to every stream with the same
weights, which is what keeps the stream construction permutation
equivariant: attending within stream i never reads stream j, and the
fused variants read only the stream-symmetric aggregate.

Rotary position encoding is applied to queries and keys inside every
attention call, each side rotated by its own absolute positions, so all
score logits depend on relative offsets only.  A projection's head pairs
are read as complex numbers and rotated by one multiply with a cached
phase table (rotation(), over tensor.rope_phases); the multiply is
elementwise, so each stream's result depends on that stream alone, bit
for bit.  No sublayer looks up its own queries' table: the encoder and
the decoder each look theirs up once per pass, or once per cached decode
step, and hand it to every sublayer.  Only cross_kv looks one up, for
the encoder positions that are its own input.

An attention call is three graph nodes, each with a hand-written vjp: the
k and v projections (product, rotation, head split), then one node for
the query projection, scores, mask, softmax, value mixing, head merge
and output projection.  Training, teacher-forced evaluation and cached
decoding all run these nodes.

Queries, keys and masks come a row per real (sequence, stream), and a
stream batch holds only each row's real positions, its cells (see
streams.Grid).  The projections run on the cells, each rotated by its
own position's phase; inside the nodes the heads are scattered into the
(rows, heads, longest length, head width) grid for the scores, mask,
softmax and mixing, and the merged heads are gathered back to the cells
before the output projection.  A batch without padding, a cached decode
step among them, reshapes instead.  Keys that exist once per sequence
(EA, DA, CA: the aggregate's) come on the (sequences, longest length)
grid and reach their rows through one gather, whose vjp sums the rows'
gradients back per sequence.  A cached decode step records no such
gather: its KVCache copies the new position's keys to their rows as it
writes them in place after the positions it already holds.

The softmax weights stay inside MultiHeadAttention.attend; every function
here returns only its output.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError
from .streams import Grid, aggregate


@dataclass(frozen=True)
class AttentionConfig:
    d_model: int
    heads: int
    rope_base: float
    head_dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d_model < 1 or self.heads < 1 or not self.rope_base > 0:
            raise DimensionError("d_model, heads and rope_base must be positive")
        if self.d_model % self.heads != 0:
            raise DimensionError("d_model must divide evenly into heads")
        if (self.d_model // self.heads) % 2 != 0:
            raise DimensionError("head width must be even for rotary pairs")
        object.__setattr__(self, "head_dim", self.d_model // self.heads)


def padding_mask(key_lengths, Lq, Lk):
    """Keep-mask (rows, Lq, Lk) of the real (non-padding) key positions,
    the same for every query."""
    key_lengths = np.asarray(key_lengths)
    keep = np.arange(Lk)[None, :] < key_lengths[:, None]          # (B, Lk)
    return np.broadcast_to(keep[:, None, :],
                           (len(key_lengths), Lq, Lk)).copy()


def look_ahead_mask(key_lengths, L):
    """Causal keep-mask (rows, L, L): query t sees keys <= t that are also
    real tokens."""
    key_lengths = np.asarray(key_lengths)
    tri = np.tril(np.ones((L, L), dtype=bool))
    keep = np.arange(L)[None, :] < key_lengths[:, None]
    return tri[None, :, :] & keep[:, None, :]


class MultiHeadAttention:
    """Projections + rotary scaled dot-product attention, batched over any
    leading axes; keys and values share the queries' leading axes."""

    def __init__(self, prefix, cfg: AttentionConfig, rng):
        d = cfg.d_model
        bound = 1.0 / np.sqrt(d)
        self.cfg = cfg
        self.wq = T.Parameter(f"{prefix}.wq", rng.uniform(-bound, bound, (d, d)))
        self.wk = T.Parameter(f"{prefix}.wk", rng.uniform(-bound, bound, (d, d)))
        self.wv = T.Parameter(f"{prefix}.wv", rng.uniform(-bound, bound, (d, d)))
        self.wo = T.Parameter(f"{prefix}.wo", rng.uniform(-bound, bound, (d, d)))

    def parameters(self):
        return [self.wq, self.wk, self.wv, self.wo]

    def _heads(self, x, w, phase, grid):
        """One node: x @ w split into heads, (...,h,L,hd), each head
        rotated by phase (a rotation() table) when it is given; see
        _split_heads."""
        return T.fused(partial(_split_heads, h=self.cfg.heads,
                               hd=self.cfg.head_dim, phase=phase, grid=grid),
                       x, w.tensor)

    def project_kv(self, k_in, v_in, phase, *, grid):
        """Keys and values split into heads, keys rotated by phase, the
        rotation() table of their positions (None leaves them unrotated).

        k_in/v_in, the (P, d) cells of grid (N, Lk), give (N,h,Lk,hd)
        each: the form attend() reads and a decode cache stores.  A grid
        with no index, Grid(k_in.shape[:-1]), takes k_in (...,Lk,d) as it
        is and gives (...,h,Lk,hd).
        """
        return (self._heads(k_in, self.wk, phase, grid),
                self._heads(v_in, self.wv, None, grid))

    def attend(self, q_in, k, v, mask, phase, *, grid):
        """Attention of q_in, the (P, d) cells of grid (N, Lq), over heads
        k, v from project_kv; returns the output in q_in's shape.  A grid
        with no index, Grid(q_in.shape[:-1]), takes q_in (...,Lq,d) as it
        is.  mask is a (rows, Lq, Lk) keep-mask, True where a query may see
        a key, its rows going with the entries of the first leading axis;
        a query row that sees no key raises ContractError.
        phase is the rotation() table of the queries' positions (None
        leaves them unrotated).

        One node: the query projection and its rotation, scaled scores,
        mask, softmax, value mixing, head merge and output projection.
        Its vjp takes the softmax backward in one pass, dS = P * (dP -
        rowsum(dP * P)) * scale, and hands dQ to the query projection's
        own vjp.
        """
        h, hd = self.cfg.heads, self.cfg.head_dim
        scale = 1.0 / np.sqrt(hd)
        drop = None if mask is None else ~mask.reshape(
            mask.shape[:1] + (1,) * (len(grid.shape) - 1) + mask.shape[1:])

        def forward(xd, wq, kd, vd, wo):
            qd, q_back = _split_heads(xd, wq, h, hd, phase, grid)
            p = np.matmul(qd, kd.swapaxes(-1, -2))
            p *= scale
            if drop is not None:
                np.copyto(p, -np.inf, where=drop)
            mx = np.maximum.reduce(p, axis=-1, keepdims=True)
            if not np.logical_and.reduce(np.isfinite(mx), axis=None):
                raise ContractError("attention: a query row has every key masked")
            p -= mx
            np.exp(p, out=p)
            p /= np.add.reduce(p, axis=-1, keepdims=True)
            ctx = np.matmul(p, vd)                           # (...,h,Lq,hd)
            merged = grid.gather(ctx.swapaxes(-2, -3)).reshape(-1, h * hd)
            out = grid.matmul(merged, wo).reshape(xd.shape)

            def vjp(g):
                g2 = g.reshape(-1, wo.shape[1])
                dctx = grid.scatter(np.matmul(g2, wo.T).reshape(-1, h, hd))
                dctx = dctx.swapaxes(-2, -3)
                dv = np.matmul(p.swapaxes(-1, -2), dctx)
                ds = np.matmul(dctx, vd.swapaxes(-1, -2))
                ds -= np.einsum("...j,...j->...", ds, p)[..., None]
                ds *= p
                ds *= scale
                return (*q_back(np.matmul(ds, kd)),
                        np.matmul(ds.swapaxes(-1, -2), qd), dv,
                        np.matmul(merged.T, g2))

            return out, vjp

        return T.fused(forward, q_in, self.wq.tensor, k, v, self.wo.tensor)


def rotation(cfg, positions):
    """Rotary phase table of positions for cfg's heads, (L, 1, hd/2): what
    a projection's (...,L,h,hd/2) pairs are multiplied by."""
    return T.rope_phases(positions, cfg.head_dim, cfg.rope_base)[:, None]


def _split_heads(xd, wd, h, hd, phase, grid):
    """xd, the (P, d) cells of grid, times wd and split into heads on the
    grid, (...,h,L,hd); plus its vjp.

    The product is one GEMM over the cells, rotated while it is still
    contiguous, as hd/2 complex pairs times the phase table: a cell is
    rotated by the table's row at its position.  The heads are then
    scattered into the grid (zero where no cell sits), or reshaped to it
    when every position is a cell, and the head axis is moved forward as a
    view.  The vjp gathers the cells' gradient back, undoes the rotation
    with the conjugate phases, and forms the weight gradient as one GEMM
    over every cell.
    """
    d = xd.shape[-1]
    y = grid.matmul(xd.reshape(-1, d), wd)
    if grid.index is None:
        y = y.reshape(grid.shape + (h, hd))
    else:
        y = y.reshape(-1, h, hd)
        if phase is not None:
            phase = phase[grid.index[-1]]
    if phase is not None:
        pairs = y.view(np.complex128)
        pairs *= phase
    if grid.index is not None:
        y = grid.scatter(y)

    def vjp(g):
        gy = g.swapaxes(-2, -3)
        if grid.index is not None:
            gy = grid.gather(gy)
        if phase is not None:
            gy = T.rotate_pairs(gy, phase.conj())
        gy = gy.reshape(-1, d)
        return (np.matmul(gy, wd.T).reshape(xd.shape),
                np.matmul(xd.reshape(-1, d).T, gy))

    return y.swapaxes(-2, -3), vjp


class KVCache:
    """Rotated keys and values of one self-attention sublayer, kept across
    decode steps.

    k and v are (rows, h, capacity, hd) buffers, a row per decoded stream,
    whose first `length` positions are filled.  A step writes its
    positions in place with extend(), and a full buffer is replaced by one
    of twice the capacity, so an L-step decode copies O(L) positions, not
    O(L^2).  select() re-indexes the rows' filled positions, as beam
    search does when it keeps some hypotheses and drops others.
    """

    def __init__(self):
        self.k = self.v = None
        self.length = 0

    def extend(self, k, v, seq=None):
        """Write the new positions' heads after the filled ones; returns
        views of every filled position of k and v.  Given seq, k and v
        have one entry per sequence, and row r reads entry seq[r]."""
        k, v = k.data, v.data
        if seq is not None:
            k, v = k[seq], v[seq]
        if self.k is None:
            self.k, self.v = k[..., :0, :], v[..., :0, :]
        start, end = self.length, self.length + k.shape[-2]
        if end > self.k.shape[-2]:
            cap = max(end, 2 * start, FIRST_CAPACITY)
            self.k = _buffer(self.k[..., :start, :], cap)
            self.v = _buffer(self.v[..., :start, :], cap)
        self.k[..., start:end, :] = k
        self.v[..., start:end, :] = v
        self.length = end
        return self.k[..., :end, :], self.v[..., :end, :]

    def select(self, rows):
        if self.k is None:     # no step written yet: nothing to re-index
            return
        n, cap = self.length, self.k.shape[-2]
        self.k = _buffer(self.k[rows, ..., :n, :], cap)
        self.v = _buffer(self.v[rows, ..., :n, :], cap)


FIRST_CAPACITY = 8   # positions a KVCache holds before it first grows


def _buffer(filled, cap):
    """A (..., cap, hd) buffer whose first positions hold `filled`."""
    out = np.empty(filled.shape[:-2] + (cap, filled.shape[-1]))
    out[..., :filled.shape[-2], :] = filled
    return out


def _kv(mha, kv_in, grid, phase, seq=None, cache=None):
    """Keys and values of kv_in, the cells of grid, keys rotated by phase;
    given seq, kv_in has one entry per sequence, gathered to row r from
    sequence seq[r].  A cache appends them to the earlier decode steps'
    and returns all of them."""
    k, v = mha.project_kv(kv_in, kv_in, phase, grid=grid)
    if cache is not None:
        return cache.extend(k, v, seq)
    if seq is not None:
        k, v = T.gather_rows(k, seq), T.gather_rows(v, seq)
    return k, v


def _fused(H):
    """The aggregate of H and its (sequences, longest length) grid, which
    splits into H's runs."""
    fused = aggregate(H)
    return fused, Grid(fused.shape[:-1]).runs(H.grid.blocks)


def per_stream_attention(mha, H, mask, phase, cache=None):
    """Self-attention run independently inside each stream.

    With k=1 this is plain self-attention.  With a KVCache, H holds only
    the new positions and attends over every cached one as well.  phase
    is the rotation() table of H's absolute positions, which rotates both
    the queries and the keys.  Returns the StreamBatch of raw attention
    outputs.
    """
    k, v = _kv(mha, H.hidden, H.grid, phase, cache=cache)
    return H.with_hidden(mha.attend(H.hidden, k, v, mask, phase, grid=H.grid))


def aggregated_attention(mha, H, mask, phase, cache=None):
    """Queries stay per-stream; keys and values are the fused aggregate.

    The aggregate is computed and projected once per sequence, so every
    stream of a sequence attends over identical keys.  It is
    position-wise, so a cached decode step fuses only its new positions.
    phase is as for per_stream_attention.
    """
    k, v = _kv(mha, *_fused(H), phase, H.rows.seq, cache)
    return H.with_hidden(mha.attend(H.hidden, k, v, mask, phase, grid=H.grid))


def cross_kv(mha, H_enc, mode, seq):
    """Encoder keys and values for one cross-attention mode, a row per
    decoder row; decoder row r belongs to sequence seq[r].

    "per" keeps encoder stream i for decoder stream i, so its rows are the
    encoder's; "agg" fuses each sequence's encoder streams into one
    sequence that all the sequence's decoder rows read.
    """
    phase = rotation(mha.cfg, np.arange(H_enc.length))
    if mode == "per":
        return _kv(mha, H_enc.hidden, H_enc.grid, phase)
    if mode == "agg":
        return _kv(mha, *_fused(H_enc), phase, seq)
    raise ContractError(f"unknown cross attention mode {mode!r}")


def cross_attention(mha, H_dec, H_enc, mode, mask, phase, kv=None):
    """Decoder-to-encoder attention in one of two modes (see cross_kv).

    "per" needs aligned streams, which holds because the decoder reuses
    the encoder's stream ids.  phase is the rotation() table of H_dec's
    absolute positions, which rotates the queries; cross_kv rotates the
    keys by the encoder's.  Decoding passes the keys and values it holds
    for its rows as kv; its rows' streams are the encoder's by
    construction, so only a call without kv checks them.
    """
    if kv is None:
        if mode == "per" and (H_dec.k != H_enc.k or
                              (H_dec.stream_ids != H_enc.stream_ids).any()):
            raise ContractError(
                "per-stream cross attention needs aligned streams")
        kv = cross_kv(mha, H_enc, mode, H_dec.rows.seq)
    k, v = kv
    return H_dec.with_hidden(mha.attend(H_dec.hidden, k, v, mask, phase,
                                        grid=H_dec.grid))
