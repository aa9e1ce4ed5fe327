"""Multi-head attention over stream batches.

One MultiHeadAttention module is applied to every stream with the same
weights, which is what keeps the stream construction permutation
equivariant: attending within stream i never reads stream j, and the
fused variants read only the stream-symmetric aggregate.

Rotary position encoding is applied to queries and keys inside every
attention call, each side rotated by its own absolute positions, so all
score logits depend on relative offsets only.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError
from .streams import StreamBatch, aggregate


@dataclass(frozen=True)
class AttentionConfig:
    d_model: int
    heads: int
    rope_base: float = 10000.0

    def __post_init__(self):
        if self.d_model % self.heads != 0:
            raise DimensionError("d_model must divide evenly into heads")
        if (self.d_model // self.heads) % 2 != 0:
            raise DimensionError("head width must be even for rotary pairs")

    @property
    def head_dim(self):
        return self.d_model // self.heads


@dataclass(frozen=True)
class AttentionMask:
    """Binary keep-mask over (query, key) pairs, (B, Lq, Lk).

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
    """Projections + rotary scaled dot-product attention, batched over
    leading (B, stream) axes.  Keys may carry a size-1 stream axis; they
    then broadcast to every query stream, sharing one buffer."""

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

    def _heads(self, x):
        b, k, L, d = x.shape
        h, hd = self.cfg.heads, self.cfg.head_dim
        return T.transpose(T.reshape(x, (b, k, L, h, hd)), (0, 1, 3, 2, 4))

    def project_kv(self, k_in, v_in, k_positions):
        """Keys and values split into heads, keys rotated by k_positions.

        k_in/v_in (B,k|1,Lk,d) give (B,k|1,h,Lk,hd) each: the form attend()
        reads and a decode cache stores.
        """
        k = self._heads(T.matmul(k_in, self.wk.tensor))
        v = self._heads(T.matmul(v_in, self.wv.tensor))
        k = T.rope_rotate(k, np.asarray(k_positions, float), self.cfg.rope_base)
        return k, v

    def attend(self, q_in, k, v, mask, q_positions):
        """Attention of q_in (B,k,Lq,d) over heads k, v from project_kv.

        Returns (output (B,k,Lq,d), attention weights ndarray (B,k,h,Lq,Lk)).
        """
        q = self._heads(T.matmul(q_in, self.wq.tensor))
        q = T.rope_rotate(q, np.asarray(q_positions, float), self.cfg.rope_base)
        scores = T.mul(T.matmul(q, T.transpose(k, (0, 1, 2, 4, 3))),
                       1.0 / np.sqrt(self.cfg.head_dim))
        keep = None
        if mask is not None:
            keep = mask.bits[:, None, None, :, :]
        weights = T.softmax_rows(scores, keep)
        ctx = T.matmul(weights, v)                       # (B,k,h,Lq,hd)
        b, kk, h, Lq, hd = ctx.shape
        merged = T.reshape(T.transpose(ctx, (0, 1, 3, 2, 4)), (b, kk, Lq, h * hd))
        return T.matmul(merged, self.wo.tensor), weights.data

    def __call__(self, q_in, k_in, v_in, mask, q_positions, k_positions):
        """q_in (B,k,Lq,d); k_in/v_in (B,k|1,Lk,d); mask AttentionMask or None.

        Returns (output (B,k,Lq,d), attention weights ndarray (B,k,h,Lq,Lk)).
        """
        if q_in.ndim != 4 or k_in.ndim != 4:
            raise DimensionError("attention inputs must be (B, k, L, d)")
        k, v = self.project_kv(k_in, v_in, k_positions)
        return self.attend(q_in, k, v, mask, q_positions)


class KVCache:
    """Rotated keys and values of one self-attention sublayer, kept across
    decode steps.

    k and v are (B, k|1, h, L, hd) arrays over the L positions fed so far.
    A step appends its positions with extend(); select() re-indexes the
    batch rows, as beam search does when it keeps some hypotheses and
    drops others.
    """

    def __init__(self):
        self.k = self.v = None

    @property
    def length(self):
        return 0 if self.k is None else self.k.shape[3]

    def extend(self, k, v):
        """Append the new positions' heads; returns the whole k and v."""
        k, v = k.data, v.data
        if self.k is not None:
            k = np.concatenate([self.k, k], axis=3)
            v = np.concatenate([self.v, v], axis=3)
        self.k, self.v = k, v
        return k, v

    def select(self, rows):
        self.k, self.v = self.k[rows], self.v[rows]


def _passthrough_inactive(H, new_hidden):
    act = H.active[:, :, None, None]
    return H.with_hidden(T.add(T.mul(new_hidden, act),
                               T.mul(H.hidden, 1.0 - act)))


def _self_kv(mha, kv_in, positions, cache):
    """Keys and values of a self-attention call; a cache appends them to
    those of the earlier decode steps and returns all of them."""
    k, v = mha.project_kv(kv_in, kv_in, positions)
    return (k, v) if cache is None else cache.extend(k, v)


def _positions(H, cache):
    """Absolute positions of H's sequence axis: a cached decode step
    continues after the positions its cache already holds."""
    pos = np.arange(H.length)
    return pos if cache is None else pos + cache.length


def per_stream_attention(mha, H, mask, cache=None):
    """Self-attention run independently inside each active stream.

    Inactive stream slots pass through untouched.  With k=1 this is plain
    self-attention.  With a KVCache, H holds only the new positions and
    attends over every cached one as well.  Returns (StreamBatch of raw
    attention outputs, weights).
    """
    pos = _positions(H, cache)
    k, v = _self_kv(mha, H.hidden, pos, cache)
    out, w = mha.attend(H.hidden, k, v, mask, pos)
    return _passthrough_inactive(H, out), w


def aggregated_attention(mha, H, mask, cache=None):
    """Queries stay per-stream; keys and values are the fused aggregate.

    The aggregate is computed once and broadcast, so every stream attends
    over the identical key buffer.  It is position-wise, so a cached
    decode step fuses only its new positions.
    """
    pos = _positions(H, cache)
    fused = aggregate(H)
    kv = T.reshape(fused, (H.batch, 1, H.length, fused.shape[-1]))
    k, v = _self_kv(mha, kv, pos, cache)
    out, w = mha.attend(H.hidden, k, v, mask, pos)
    return _passthrough_inactive(H, out), w


def cross_kv(mha, H_enc, mode):
    """Encoder keys and values for one cross-attention mode.

    "per" keeps encoder stream i for decoder stream i; "agg" fuses the
    encoder streams into one sequence that every decoder stream reads.
    """
    if mode == "per":
        kv = H_enc.hidden
    elif mode == "agg":
        fused = aggregate(H_enc)
        kv = T.reshape(fused, (H_enc.batch, 1, H_enc.length, fused.shape[-1]))
    else:
        raise ContractError(f"unknown cross attention mode {mode!r}")
    return mha.project_kv(kv, kv, np.arange(H_enc.length))


def cross_attention(mha, H_dec, H_enc, mode, mask, kv=None, start=0):
    """Decoder-to-encoder attention in one of two modes (see cross_kv).

    "per" needs aligned streams, which holds because the decoder reuses
    the encoder's stream ids.  Decoding passes the cross_kv result it
    computed once as kv, and the position of H_dec's first query as start.
    """
    if mode == "per" and (H_dec.k != H_enc.k
                          or (H_dec.stream_ids != H_enc.stream_ids).any()):
        raise ContractError("per-stream cross attention needs aligned streams")
    k, v = cross_kv(mha, H_enc, mode) if kv is None else kv
    out, w = mha.attend(H_dec.hidden, k, v, mask, start + np.arange(H_dec.length))
    return _passthrough_inactive(H_dec, out), w
