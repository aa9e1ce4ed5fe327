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
and output projection.  Training and teacher-forced evaluation run these
nodes, and so does a cached decode step's cross-attention.  A cached
step's self-attention (DP, and DA after its aggregate) is one node
without a vjp (MultiHeadAttention.step): each input is projected in one
product over the sublayer's weights, stacked side by side once per
decode state (MultiHeadAttention.stacked), and the scores onward are the
same code as attend's (_mix).

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

The softmax weights stay inside the nodes; every function here returns
only its output, a sublayer's as a Tensor with a row per query cell.
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
        self.scale = 1.0 / np.sqrt(cfg.head_dim)     # of the scores

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
        h, hd, scale = self.cfg.heads, self.cfg.head_dim, self.scale
        # True where a query may not see a key, in the scores' form
        drop = None if mask is None else ~mask.reshape(
            mask.shape[:1] + (1,) * (len(grid.shape) - 1) + mask.shape[1:])

        def forward(xd, wq, kd, vd, wo):
            qd, q_back = _split_heads(xd, wq, h, hd, phase, grid)
            out, p, merged = _mix(qd, kd, vd, wo, drop, scale, grid)
            out = out.reshape(xd.shape)

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

    def stacked(self, queries):
        """The key and value weights side by side, (d, 2d), after the query
        weights, (d, 3d), when queries: the weights of one product over an
        input that feeds them all."""
        ws = [self.wq, self.wk, self.wv] if queries else [self.wk, self.wv]
        return np.concatenate([w.data for w in ws], axis=1)

    def step(self, x, kv_in, cache, seq, phase, *, grid):
        """A cached decode step of masked self-attention, one node with no
        gradient: a backward pass through it raises ContractError.

        x holds the new position's cells, one per row of grid (rows, 1).
        Without kv_in (DP) the queries, keys and values of x are one
        product over cache.w, (d, 3d); given kv_in, the (B, 1, d)
        aggregate of each sequence (DA), the queries are x's own product
        and the keys and values one product of kv_in over cache.w, (d, 2d),
        copied to row r from sequence seq[r].  Queries and keys are
        rotated by phase, the keys and values are written into cache, and
        the queries attend over every cached position, as attend() does,
        with no mask: the new position may see all of them.
        """
        h, hd, scale = self.cfg.heads, self.cfg.head_dim, self.scale
        d, wd = h * hd, cache.w

        def forward(xd, wo, *agg):
            if agg:
                q = grid.matmul(xd, self.wq.data)
                kv = grid.matmul(agg[0].reshape(-1, d), wd)
                _rotate(q, h, phase)
                _rotate(kv[:, :d], h, phase)
            else:
                y = grid.matmul(xd, wd)
                q, kv = y[:, :d], y[:, d:]
                _rotate(y[:, :2 * d], 2 * h, phase)
            k, v = cache.extend(kv[:, :d].reshape(-1, h, hd),
                                kv[:, d:].reshape(-1, h, hd), seq)
            qd = q.reshape(-1, 1, h, hd).swapaxes(-2, -3)
            return _mix(qd, k, v, wo, None, scale, grid)[0], _no_gradient

        extra = () if kv_in is None else (kv_in,)
        return T.fused(forward, x, self.wo.tensor, *extra)


def _no_gradient(g):
    raise ContractError("a cached decode step records no gradient")


def _rotate(y, heads, phase):
    """Rotate y (rows, heads * hd), in place, by phase, a rotation() table
    of one position: each head's hd/2 pairs times the table's row.  y may
    be a column slice of a wider product: splitting its last axis is
    still a view, so the rotation writes through."""
    pairs = y.reshape(len(y), 1, heads, -1).view(np.complex128)
    pairs *= phase


def _mix(qd, kd, vd, wo, drop, scale, grid):
    """Attention of heads qd (...,h,Lq,hd) over keys kd and values vd,
    (...,h,Lk,hd), under drop, True where a query may not see a key, in
    the scores' form (rows, 1, ..., Lq, Lk), or None: scores times scale,
    mask, softmax, value mixing, head merge and output projection.
    Returns the output, one row per cell of grid, with the softmax weights
    and the merged heads that a vjp reads.  Only a mask can leave a query
    row no key to see, so only then is it checked.
    """
    h, hd = qd.shape[-3], qd.shape[-1]
    p = np.matmul(qd, kd.swapaxes(-1, -2))
    p *= scale
    if drop is not None:
        np.copyto(p, -np.inf, where=drop)
    mx = np.maximum.reduce(p, axis=-1, keepdims=True)
    if drop is not None and not np.logical_and.reduce(np.isfinite(mx),
                                                      axis=None):
        raise ContractError("attention: a query row has every key masked")
    p -= mx
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    ctx = np.matmul(p, vd)                                   # (...,h,Lq,hd)
    merged = grid.gather(ctx.swapaxes(-2, -3)).reshape(-1, h * hd)
    return grid.matmul(merged, wo), p, merged


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
    decode steps, and w, the weights of the one product that makes them
    (MultiHeadAttention.stacked), stacked once per decode state.

    k and v are (rows, h, capacity, hd) buffers, a row per decoded stream,
    whose first `length` positions are filled.  A step writes its position
    in place with extend(), and a full buffer is replaced by one of twice
    the capacity, so an L-step decode copies O(L) positions, not O(L^2).
    select() takes the kept rows of each whole buffer in one copy, as beam
    search does when it keeps some hypotheses and drops others; the
    positions past `length` are never read.
    """

    def __init__(self, w):
        self.w = w
        self.k = self.v = None
        self.length = 0

    def extend(self, k, v, seq):
        """Write one new position's heads, k and v (entries, h, hd), after
        the filled ones; returns views of every filled position of k and
        v.  Row r reads entry r, or entry seq[r] when seq is given (one
        entry per sequence)."""
        if seq is not None:
            k, v = k[seq], v[seq]
        pos = self.length
        if self.k is None:
            shape = (len(k), k.shape[1], FIRST_CAPACITY, k.shape[2])
            self.k, self.v = np.empty(shape), np.empty(shape)
        elif pos == self.k.shape[2]:
            self.k, self.v = _grown(self.k), _grown(self.v)
        self.k[:, :, pos] = k
        self.v[:, :, pos] = v
        self.length = pos + 1
        return self.k[:, :, :pos + 1], self.v[:, :, :pos + 1]

    @property
    def full(self):
        """Whether the next extend() replaces the buffers by larger ones."""
        return self.k is not None and self.length == self.k.shape[2]

    def grown_row_bytes(self):
        """Bytes that one row of k and v holds once the buffers have grown."""
        return 2 * (self.k.nbytes + self.v.nbytes) // len(self.k)

    def select(self, rows):
        if self.k is not None:     # no step written yet: nothing to re-index
            self.k, self.v = self.k[rows], self.v[rows]


FIRST_CAPACITY = 8   # positions a KVCache holds before it first grows


def _grown(buf):
    """buf (..., cap, hd) copied into the front of a buffer of twice the
    capacity."""
    out = np.empty(buf.shape[:-2] + (2 * buf.shape[-2], buf.shape[-1]))
    out[..., :buf.shape[-2], :] = buf
    return out


def _kv(mha, kv_in, grid, phase, seq=None):
    """Keys and values of kv_in, the cells of grid, keys rotated by phase;
    given seq, kv_in has one entry per sequence, gathered to row r from
    sequence seq[r]."""
    k, v = mha.project_kv(kv_in, kv_in, phase, grid=grid)
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
    the new position and attends over every cached one as well, as one
    node (MultiHeadAttention.step).  phase is the rotation() table of H's
    absolute positions, which rotates both the queries and the keys.
    Returns the raw attention output, one row per cell of H.
    """
    if cache is not None:
        return mha.step(H.hidden, None, cache, None, phase, grid=H.grid)
    k, v = _kv(mha, H.hidden, H.grid, phase)
    return mha.attend(H.hidden, k, v, mask, phase, grid=H.grid)


def aggregated_attention(mha, H, mask, phase, cache=None):
    """Queries stay per-stream; keys and values are the fused aggregate.

    The aggregate is computed and projected once per sequence, so every
    stream of a sequence attends over identical keys.  It is
    position-wise, so a cached decode step fuses only its new position,
    and its keys and values reach their rows as the cache stores them.
    phase and the output are as for per_stream_attention.
    """
    if cache is not None:
        return mha.step(H.hidden, aggregate(H), cache, H.rows.seq, phase,
                        grid=H.grid)
    k, v = _kv(mha, *_fused(H), phase, H.rows.seq)
    return mha.attend(H.hidden, k, v, mask, phase, grid=H.grid)


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
    keys by the encoder's.  mask is attend()'s keep-mask.  Decoding passes
    the keys and values it holds for its rows as kv; its rows' streams are
    the encoder's by construction, so only a call without kv checks them.
    Returns the output, one row per cell of H_dec.
    """
    if kv is None:
        if mode == "per" and (H_dec.k != H_enc.k or
                              (H_dec.stream_ids != H_enc.stream_ids).any()):
            raise ContractError("per-stream cross attention needs aligned "
                                "streams")
        kv = cross_kv(mha, H_enc, mode, H_dec.rows.seq)
    k, v = kv
    return mha.attend(H_dec.hidden, k, v, mask, phase, grid=H_dec.grid)
