"""Parallel embedding streams over a two-tier vocabulary.

Token ids split into a base tier (ids 0..V_n-1, fixed meaning: padding,
sequence markers, operators, digits) and an interchangeable tier (ids
V_n..V_n+V_i-1, identity-free symbols such as atomic propositions).  The
embedding table has V_n+2 rows: the base rows plus one "actual" row (index
V_n) and one "placeholder" row (index V_n+1).  A sequence that mentions k
distinct interchangeable ids is embedded k times in parallel; in stream i
the positions holding the i-th id read the actual row, positions holding
any other interchangeable id read the placeholder row, and base tokens
read their own rows.  Renaming the interchangeable ids therefore only
permutes the streams, which is what makes the downstream model invariant.

Streams are ordered by ascending interchangeable id.  A sequence with no
interchangeable tokens still gets one synthetic stream (its occupancy is
all zero and its stream id is recorded as -1) so that shapes never
degenerate.

All containers carry a leading batch axis; single sequences are batches of
size one.  Sequences in a batch may differ in length and in stream count;
the padding stream slots are marked inactive and contribute nothing.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, VocabularyError

PAD_ID = 0
SOS_ID = 1
EOS_ID = 2

# every vocabulary starts with these three base tokens, in this id order
RESERVED = ("<pad>", "<s>", "</s>")


@dataclass(frozen=True)
class Vocabulary:
    """Two-tier id space plus the surface forms used by encode/decode.

    A model checkpoint stores its vocabulary in its metadata.
    """

    base_tokens: tuple[str, ...]
    inter_tokens: tuple[str, ...]

    def __post_init__(self):
        if tuple(self.base_tokens[:3]) != RESERVED:
            raise VocabularyError("base tokens must start with <pad>, <s>, </s>")
        all_tokens = list(self.base_tokens) + list(self.inter_tokens)
        if len(set(all_tokens)) != len(all_tokens):
            raise VocabularyError("duplicate surface form in vocabulary")

    @property
    def base_size(self):
        return len(self.base_tokens)

    @property
    def inter_size(self):
        return len(self.inter_tokens)

    @property
    def total_size(self):
        return self.base_size + self.inter_size

    @property
    def actual_row(self):
        return self.base_size

    @property
    def placeholder_row(self):
        return self.base_size + 1

    @property
    def table_rows(self):
        """Embedding rows: base rows + actual + placeholder.  Never V_i."""
        return self.base_size + 2

    def is_inter(self, token_id):
        return self.base_size <= token_id < self.total_size

    def inter_ids(self):
        return range(self.base_size, self.total_size)

    def surface(self, token_id):
        if 0 <= token_id < self.base_size:
            return self.base_tokens[token_id]
        if self.is_inter(token_id):
            return self.inter_tokens[token_id - self.base_size]
        raise VocabularyError(f"token id {token_id} out of range")

    def encode(self, text):
        """Single-character tokenization of task text into ids."""
        table = {s: i for i, s in enumerate(self.base_tokens)}
        table.update({s: self.base_size + i for i, s in enumerate(self.inter_tokens)})
        ids = []
        for ch in text:
            if ch not in table:
                raise VocabularyError(f"character {ch!r} not in vocabulary")
            ids.append(table[ch])
        return ids

    def decode(self, ids):
        return "".join(self.surface(i) for i in ids)


class AlphaRenaming:
    """A bijection on the interchangeable tier; base ids are fixed points."""

    def __init__(self, vocab, mapping):
        self.vocab = vocab
        ids = list(vocab.inter_ids())
        self.mapping = {i: int(mapping.get(i, i)) for i in ids}
        if sorted(self.mapping.values()) != ids:
            raise ContractError("renaming must permute the interchangeable ids")

    def __call__(self, seq):
        return apply_renaming(self, seq)

    def __getitem__(self, token_id):
        return self.mapping.get(token_id, token_id)

    def inverse(self):
        return AlphaRenaming(self.vocab, {v: k for k, v in self.mapping.items()})

    def is_identity(self):
        return all(k == v for k, v in self.mapping.items())

    @staticmethod
    def identity(vocab):
        return AlphaRenaming(vocab, {})

    @staticmethod
    def random(vocab, rng):
        ids = np.array(list(vocab.inter_ids()))
        return AlphaRenaming(vocab, dict(zip(ids.tolist(),
                                             rng.permutation(ids).tolist())))

    def __repr__(self):
        moved = {k: v for k, v in self.mapping.items() if k != v}
        return f"AlphaRenaming({moved or 'identity'})"


def apply_renaming(renaming, seq):
    """Map a token id sequence through a renaming; base ids pass through."""
    out = []
    for t in seq:
        t = int(t)
        if renaming.vocab.is_inter(t):
            out.append(renaming.mapping[t])
        elif 0 <= t < renaming.vocab.base_size:
            out.append(t)
        else:
            raise VocabularyError(f"token id {t} out of range")
    return out


@dataclass
class StreamBatch:
    """Hidden states of k parallel streams for a batch of sequences.

    hidden     (B, k, L, d) activations, one slab per stream
    occupancy  (B, k, L)    1.0 where stream i's own token sits
    active     (B, k)       1.0 for real streams, 0.0 for batch padding
    stream_ids (B, k)       interchangeable id behind each stream, -1 if none
    lengths    (B,)         valid positions per sequence (rest is padding)
    """

    hidden: T.Tensor
    occupancy: np.ndarray
    active: np.ndarray
    stream_ids: np.ndarray
    lengths: np.ndarray

    @property
    def batch(self):
        return self.hidden.shape[0]

    @property
    def k(self):
        return self.hidden.shape[1]

    @property
    def length(self):
        return self.hidden.shape[2]

    def with_hidden(self, hidden):
        return StreamBatch(hidden, self.occupancy, self.active,
                           self.stream_ids, self.lengths)


def sequence_stream_ids(seq, vocab):
    """Distinct interchangeable ids of a sequence, ascending."""
    return sorted({int(t) for t in seq if vocab.is_inter(int(t))})


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


def pack_sequences(seqs, W, vocab, stream_id_lists=None):
    """Embed a list of sequences into one padded StreamBatch.

    Stream slots are sized to the batch maximum; missing slots are inactive.
    stream_id_lists pins each sequence's streams (the decoder reuses the
    encoder's); by default they come from the sequences themselves.
    """
    if not seqs:
        raise ContractError("cannot pack an empty batch")
    if W.shape[0] != vocab.table_rows:
        raise VocabularyError(
            f"embedding table has {W.shape[0]} rows, vocabulary needs {vocab.table_rows}")
    if stream_id_lists is None:
        stream_id_lists = [sequence_stream_ids(s, vocab) for s in seqs]
    if len(stream_id_lists) != len(seqs):
        raise ContractError("one stream id list per sequence required")
    B = len(seqs)
    kmax = max(1, max(len(s) for s in stream_id_lists))
    Lmax = max(len(s) for s in seqs)
    lookup = np.full((B, kmax, Lmax), PAD_ID, dtype=np.int64)
    occupancy = np.zeros((B, kmax, Lmax))
    active = np.zeros((B, kmax))
    stream_ids = np.full((B, kmax), -1, dtype=np.int64)
    lengths = np.zeros(B, dtype=np.int64)
    for b, (seq, sids) in enumerate(zip(seqs, stream_id_lists)):
        if len(seq) == 0:
            raise ContractError("cannot embed an empty sequence")
        lk, occ = stream_lookup_ids(seq, vocab, sids)
        k, L = lk.shape
        lookup[b, :k, :L] = lk
        occupancy[b, :k, :L] = occ
        active[b, :k] = 1.0
        stream_ids[b, :len(sids)] = sids
        lengths[b] = L
    hidden = T.gather_rows(W, lookup)
    return StreamBatch(hidden, occupancy, active, stream_ids, lengths)


def aggregate(H):
    """Fuse the streams into one sequence (Algorithm: mean then restore).

    Position-wise mean over active streams, then positions occupied by a
    stream's own token are replaced by that stream's hidden row, so each
    symbol keeps its private view of itself while everything else is shared.
    Returns a (B, L, d) tensor.
    """
    counts = H.active.sum(axis=1)
    if (counts < 1).any():
        raise ContractError("aggregate needs at least one active stream per sequence")
    act = H.active[:, :, None, None]
    mean = T.mul(T.tsum(T.mul(H.hidden, act), axis=1),
                 (1.0 / counts)[:, None, None])
    occ = H.occupancy[:, :, :, None]
    restored = T.tsum(T.mul(H.hidden, occ), axis=1)
    occ_any = H.occupancy.sum(axis=1)[:, :, None]
    return T.add(T.mul(mean, 1.0 - occ_any), restored)


def project(H, W):
    """Asymmetric projection from streams to logits, (B, L, V_n + k).

    Each stream is scored against the embedding table.  Base columns are
    the mean score over active streams; the column for stream i's symbol is
    stream i's score against the actual row.  Stream slots that carry no
    symbol (batch padding, the synthetic stream) get -inf so they can
    never win.  Pure dot products; any normalization of the inputs happens
    before this call.
    """
    base_rows = W.shape[0] - 2
    z = T.matmul(H.hidden, T.transpose(W, (1, 0)))      # (B, k, L, V_n + 2)
    counts = H.active.sum(axis=1)
    if (counts < 1).any():
        raise ContractError("project needs at least one active stream per sequence")
    act = H.active[:, :, None, None]
    base = T.mul(T.tsum(T.mul(T.index(z, (..., slice(0, base_rows))), act), axis=1),
                 (1.0 / counts)[:, None, None])          # (B, L, V_n)
    own = T.transpose(T.index(z, (..., base_rows)), (0, 2, 1))  # (B, L, k)
    live = (H.active > 0) & (H.stream_ids >= 0)
    dead = np.where(live[:, None, :], 0.0, -np.inf)
    return T.concat([base, T.add(own, dead)], axis=-1)
