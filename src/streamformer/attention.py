"""Multi-head attention over stream batches.

One MultiHeadAttention module is applied to every stream with the same
weights, which is what keeps the stream construction permutation
equivariant: attending within stream i never reads stream j, and the
fused variants read only the stream-symmetric aggregate.

Rotary position encoding is applied to queries and keys inside every
attention call, each side rotated by its own absolute positions, so all
score logits depend on relative offsets only.  A projection's head pairs
are read as complex numbers and rotated by one multiply with a cached
phase table (tensor.rope_phases); the multiply is elementwise, so each
stream's result depends on that stream alone, bit for bit.

An attention call is four graph nodes, each with a hand-written vjp: the
q, k and v projections (product, rotation, head split), then one node
for scores, mask, softmax, value mixing, head merge and output
projection.  Training, teacher-forced evaluation and cached decoding all
run these nodes.

Queries, keys and masks come a row per real (sequence, stream).  Keys
that exist once per sequence (EA, DA, CA: the aggregate's) reach their
rows through one gather, whose vjp sums the rows' gradients back per
sequence; a cached decode step gathers only its new position's.

The softmax weights stay inside MultiHeadAttention.attend; every function
here returns only its output.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError
from .streams import aggregate


@dataclass(frozen=True)
class AttentionConfig:
    d_model: int
    heads: int
    rope_base: float = 10000.0

    def __post_init__(self):
        if self.d_model < 1 or self.heads < 1 or not self.rope_base > 0:
            raise DimensionError("d_model, heads and rope_base must be positive")
        if self.d_model % self.heads != 0:
            raise DimensionError("d_model must divide evenly into heads")
        if (self.d_model // self.heads) % 2 != 0:
            raise DimensionError("head width must be even for rotary pairs")

    @property
    def head_dim(self):
        return self.d_model // self.heads


@dataclass(frozen=True)
class AttentionMask:
    """Binary keep-mask over (query, key) pairs, (rows, Lq, Lk): one row
    of bits per row of queries, or one that all the rows share.

    kind is "padding" or "look-ahead"; look-ahead masks are lower
    triangular intersected with key padding.  Construction rejects masks
    that would starve a query row of every key.
    """

    kind: str
    bits: np.ndarray

    def __post_init__(self):
        if self.kind not in ("padding", "look-ahead"):
            raise ContractError(f"unknown mask kind {self.kind!r}")
        if self.bits.ndim != 3:
            raise DimensionError("mask bits must be (B, Lq, Lk)")
        if not self.bits.any(axis=-1).all():
            raise ContractError("every query row needs at least one unmasked key")


def padding_mask(key_lengths, Lq, Lk):
    """Keep only real (non-padding) key positions, for every query row."""
    key_lengths = np.asarray(key_lengths)
    keep = np.arange(Lk)[None, :] < key_lengths[:, None]          # (B, Lk)
    bits = np.broadcast_to(keep[:, None, :], (len(key_lengths), Lq, Lk)).copy()
    return AttentionMask("padding", bits)


def look_ahead_mask(key_lengths, L):
    """Causal mask: query t sees keys <= t that are also real tokens."""
    key_lengths = np.asarray(key_lengths)
    tri = np.tril(np.ones((L, L), dtype=bool))
    keep = np.arange(L)[None, :] < key_lengths[:, None]
    bits = tri[None, :, :] & keep[:, None, :]
    return AttentionMask("look-ahead", bits)


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

    def _heads(self, x, w, positions=None):
        """One node: x (...,L,d) @ w split into heads, (...,h,L,hd), each
        head rotated by positions when they are given.

        The product is rotated while it is still (...,L,h,hd) and
        contiguous, as hd/2 complex pairs times the phase table; the head
        axis is then moved forward as a view.  The vjp undoes the
        rotation with the conjugate phases, and forms the weight gradient
        as one GEMM over every row.
        """
        h, hd = self.cfg.heads, self.cfg.head_dim
        phase = None
        if positions is not None:
            phase = T.rope_phases(positions, hd, self.cfg.rope_base)[:, None]

        def forward(xd, wd):
            d = xd.shape[-1]
            y = np.matmul(xd, wd).reshape(xd.shape[:-1] + (h, hd))
            if phase is not None:
                pairs = y.view(np.complex128)
                pairs *= phase

            def vjp(g):
                gy = g.swapaxes(-2, -3)
                if phase is None:
                    gy = gy.reshape(-1, d)
                else:
                    gy = T.rotate_pairs(gy, phase.conj()).reshape(-1, d)
                return (np.matmul(gy, wd.T).reshape(xd.shape),
                        np.matmul(xd.reshape(-1, d).T, gy))

            return y.swapaxes(-2, -3), vjp

        return T.fused(forward, x, w.tensor)

    def project_kv(self, k_in, v_in, k_positions):
        """Keys and values split into heads, keys rotated by k_positions.

        k_in/v_in (...,Lk,d) give (...,h,Lk,hd) each: the form attend()
        reads and a decode cache stores.
        """
        return (self._heads(k_in, self.wk, k_positions),
                self._heads(v_in, self.wv))

    def attend(self, q_in, k, v, mask, q_positions):
        """Attention of q_in (...,Lq,d) over heads k, v from project_kv;
        returns the output, (...,Lq,d).  The mask's rows go with the
        entries of the first leading axis.

        One node after the query projection: scaled scores, mask, softmax,
        value mixing, head merge and output projection.  Its vjp takes the
        softmax backward in one pass, dS = P * (dP - rowsum(dP * P)) *
        scale.
        """
        q = self._heads(q_in, self.wq, q_positions)
        scale = 1.0 / np.sqrt(self.cfg.head_dim)
        drop = None if mask is None else ~mask.bits.reshape(
            mask.bits.shape[:1] + (1,) * (q.ndim - 3) + mask.bits.shape[1:])

        def forward(qd, kd, vd, wo):
            p = np.matmul(qd, kd.swapaxes(-1, -2))
            p *= scale
            if drop is not None:
                np.copyto(p, -np.inf, where=drop)
            mx = p.max(axis=-1, keepdims=True)
            if not np.isfinite(mx).all():
                raise ContractError("attention: a query row has every key masked")
            p -= mx
            np.exp(p, out=p)
            p /= p.sum(axis=-1, keepdims=True)
            ctx = np.matmul(p, vd)                           # (...,h,Lq,hd)
            lead, (h, Lq, hd) = ctx.shape[:-3], ctx.shape[-3:]
            merged = ctx.swapaxes(-2, -3).reshape(-1, h * hd)
            out = np.matmul(merged.reshape(lead + (Lq, h * hd)), wo)

            def vjp(g):
                g2 = g.reshape(-1, wo.shape[1])
                dctx = np.matmul(g2, wo.T).reshape(lead + (Lq, h, hd))
                dctx = dctx.swapaxes(-2, -3)
                dv = np.matmul(p.swapaxes(-1, -2), dctx)
                ds = np.matmul(dctx, vd.swapaxes(-1, -2))
                ds -= np.einsum("...j,...j->...", ds, p)[..., None]
                ds *= p
                ds *= scale
                return (np.matmul(ds, kd), np.matmul(ds.swapaxes(-1, -2), qd),
                        dv, np.matmul(merged.T, g2))

            return out, vjp

        return T.fused(forward, q, k, v, self.wo.tensor)


class KVCache:
    """Rotated keys and values of one self-attention sublayer, kept across
    decode steps.

    k and v are (rows, h, L, hd) arrays over the L positions fed so far,
    a row per decoded stream.  A step appends its positions with
    extend(); select() re-indexes the rows, as beam search does when it
    keeps some hypotheses and drops others.
    """

    def __init__(self):
        self.k = self.v = None

    @property
    def length(self):
        return 0 if self.k is None else self.k.shape[-2]

    def extend(self, k, v):
        """Append the new positions' heads; returns the whole k and v."""
        k, v = k.data, v.data
        if self.k is not None:
            k = np.concatenate([self.k, k], axis=-2)
            v = np.concatenate([self.v, v], axis=-2)
        self.k, self.v = k, v
        return k, v

    def select(self, rows):
        self.k, self.v = self.k[rows], self.v[rows]


def _kv(mha, kv_in, positions, seq=None, cache=None):
    """Keys and values of kv_in; given seq, kv_in has one entry per
    sequence, gathered to row r from sequence seq[r].  A cache appends
    them to the earlier decode steps' and returns all of them."""
    k, v = mha.project_kv(kv_in, kv_in, positions)
    if seq is not None:
        k, v = T.gather_rows(k, seq), T.gather_rows(v, seq)
    return (k, v) if cache is None else cache.extend(k, v)


def _positions(H, cache):
    """Absolute positions of H's sequence axis: a cached decode step
    continues after the positions its cache already holds."""
    pos = np.arange(H.length)
    return pos if cache is None else pos + cache.length


def per_stream_attention(mha, H, mask, cache=None):
    """Self-attention run independently inside each stream.

    With k=1 this is plain self-attention.  With a KVCache, H holds only
    the new positions and attends over every cached one as well.  Returns
    the StreamBatch of raw attention outputs.
    """
    pos = _positions(H, cache)
    k, v = _kv(mha, H.hidden, pos, cache=cache)
    return H.with_hidden(mha.attend(H.hidden, k, v, mask, pos))


def aggregated_attention(mha, H, mask, cache=None):
    """Queries stay per-stream; keys and values are the fused aggregate.

    The aggregate is computed and projected once per sequence, so every
    stream of a sequence attends over identical keys.  It is
    position-wise, so a cached decode step fuses only its new positions.
    """
    pos = _positions(H, cache)
    k, v = _kv(mha, aggregate(H), pos, H.rows.seq, cache)
    return H.with_hidden(mha.attend(H.hidden, k, v, mask, pos))


def cross_kv(mha, H_enc, mode, seq):
    """Encoder keys and values for one cross-attention mode, a row per
    decoder row; decoder row r belongs to sequence seq[r].

    "per" keeps encoder stream i for decoder stream i, so its rows are the
    encoder's; "agg" fuses each sequence's encoder streams into one
    sequence that all the sequence's decoder rows read.
    """
    pos = np.arange(H_enc.length)
    if mode == "per":
        return _kv(mha, H_enc.hidden, pos)
    if mode == "agg":
        return _kv(mha, aggregate(H_enc), pos, seq)
    raise ContractError(f"unknown cross attention mode {mode!r}")


def cross_attention(mha, H_dec, H_enc, mode, mask, kv=None, start=0):
    """Decoder-to-encoder attention in one of two modes (see cross_kv).

    "per" needs aligned streams, which holds because the decoder reuses
    the encoder's stream ids.  Decoding passes the keys and values it
    holds for its rows as kv, and the position of its query as start.
    """
    if mode == "per" and (H_dec.k != H_enc.k
                          or (H_dec.stream_ids != H_enc.stream_ids).any()):
        raise ContractError("per-stream cross attention needs aligned streams")
    k, v = cross_kv(mha, H_enc, mode, H_dec.rows.seq) if kv is None else kv
    return H_dec.with_hidden(
        mha.attend(H_dec.hidden, k, v, mask, start + np.arange(H_dec.length)))
