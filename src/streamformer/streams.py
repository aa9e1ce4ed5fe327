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

Sequences in a batch may differ in length and in stream count.  A
StreamBatch stores one row per real (sequence, stream), a sequence's rows
contiguous and in stream order, and of each row only its real positions:
one stored cell per real (row, position), so no work goes to stream slots
a sequence lacks or to positions past its end.  A Grid says where the
cells sit in the (rows, longest length) grid; attention is the one piece
that reads the grid, and everything position-wise runs on the cells.
aggregate and project reduce each sequence's rows to values on the
(sequences, longest length) grid.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

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

    @cached_property
    def _ids(self):
        """Surface form -> id, built once per vocabulary; not a field, so
        equality, hashing and the stored form are unchanged."""
        return {s: i for i, s in
                enumerate(chain(self.base_tokens, self.inter_tokens))}

    def encode(self, text):
        """Single-character tokenization of task text into ids."""
        table = self._ids
        try:
            return [table[ch] for ch in text]
        except KeyError as e:
            raise VocabularyError(
                f"character {e.args[0]!r} not in vocabulary") from None

    def decode(self, ids):
        return "".join(self.surface(i) for i in ids)


class AlphaRenaming:
    """A bijection on the interchangeable tier; base ids are fixed points."""

    def __init__(self, vocab, mapping):
        self.vocab = vocab
        ids = list(vocab.inter_ids())
        stray = [k for k in mapping if k not in ids]
        if stray:
            raise ContractError(f"renaming maps {stray[0]!r}, which is not an "
                                "interchangeable id")
        self.mapping = {i: int(mapping.get(i, i)) for i in ids}
        if sorted(self.mapping.values()) != ids:
            raise ContractError("renaming must permute the interchangeable ids")

    def __call__(self, seq):
        """Map a token id sequence through the renaming; base ids pass
        through."""
        out = []
        for t in seq:
            t = int(t)
            if self.vocab.is_inter(t):
                out.append(self.mapping[t])
            elif 0 <= t < self.vocab.base_size:
                out.append(t)
            else:
                raise VocabularyError(f"token id {t} out of range")
        return out

    def __getitem__(self, token_id):
        return self.mapping.get(token_id, token_id)

    def inverse(self):
        return AlphaRenaming(self.vocab, {v: k for k, v in self.mapping.items()})

    @staticmethod
    def random(vocab, rng):
        ids = np.array(list(vocab.inter_ids()))
        return AlphaRenaming(vocab, dict(zip(ids.tolist(),
                                             rng.permutation(ids).tolist())))

    def __repr__(self):
        moved = {k: v for k, v in self.mapping.items() if k != v}
        return f"AlphaRenaming({moved or 'identity'})"


class Rows:
    """Which sequence and which stream slot each stored row is.

    counts  (B,)  streams per sequence
    kmax          the largest count
    seq     (N,)  sequence of each row, ascending
    slot    (N,)  stream slot of each row in its sequence
    first   (B,)  each sequence's first row
    """

    def __init__(self, counts):
        self.counts = np.asarray(counts, dtype=np.int64)
        if (self.counts < 1).any():
            raise ContractError("every sequence needs at least one stream")
        self.kmax = int(self.counts.max())
        self.seq = np.repeat(np.arange(len(self.counts)), self.counts)
        self.first = np.cumsum(self.counts) - self.counts
        self.slot = np.arange(len(self.seq)) - self.first[self.seq]

    def pick(self, x):
        """The entries of x (B, kmax, ...) at each row's sequence and slot,
        (N, ...): x reshaped when every sequence has kmax rows."""
        if len(self.seq) == x.shape[0] * x.shape[1]:
            return x.reshape((-1,) + x.shape[2:])
        return x[self.seq, self.slot]

    def sum(self, x):
        """x (N, ...) summed over each sequence's rows, (B, ...), slot by
        slot: np.add.reduce along the slot axis of a dense (B, kmax, M)
        view (x reshaped when every sequence has kmax rows, else scattered
        into zeros) adds one slot after another in each column, so a
        sequence's sum has the bits it has alone.  One slot is x + 0.0,
        the bits that reduce gives (-0.0 becomes +0.0), without it.  At
        M 1 the slot axis is numpy's innermost, where reduce adds eight or
        more slots pairwise, so a running sum (accumulate) takes its last
        slot instead.
        """
        B, k = len(self.counts), self.kmax
        if k == 1:
            return x + 0.0
        if len(self.seq) == B * k:
            dense = x.reshape(B, k, -1)
        else:
            dense = np.zeros((B, k, x[0].size))
            dense[self.seq, self.slot] = x.reshape(len(self.seq), -1)
        if dense.shape[2] == 1:
            total = np.add.accumulate(dense, axis=1)[:, -1]
        else:
            total = np.add.reduce(dense, axis=1)
        return total.reshape((B,) + x.shape[1:])


class Grid:
    """Where a batch's stored cells sit in its (N, L) grid of rows by
    positions.

    The cells run row by row, each row's positions in order.  index is
    None when every row fills the grid: the grid is then the cells
    reshaped.  Otherwise it is the (rows, positions) pair of every cell,
    and scatter fills the grid's other entries.

    A grid holds one run of sequences (blocks 1), and its product over
    the cells, matmul(x, w) for x with one row per cell, is a plain one.
    runs() splits it into the runs of several sources decoded together.
    """

    __slots__ = ("shape", "index")

    blocks = 1
    matmul = staticmethod(np.matmul)

    def __init__(self, shape, index=None):
        self.shape = tuple(shape)
        self.index = index

    @staticmethod
    def of(valid):
        """The grid of a (N, L) mask of the positions each row holds."""
        return Grid(valid.shape, None if valid.all() else np.nonzero(valid))

    def runs(self, blocks):
        """This grid with its sequences split into `blocks` equal runs
        (Runs); one run is the grid itself."""
        return self if blocks == 1 else Runs(self.shape, self.index, blocks)

    def scatter(self, x, fill=0.0):
        """Cells x (P, ...) in the grid, (N, L, ...)."""
        if self.index is None:
            return x.reshape(self.shape + x.shape[1:])
        shape = self.shape + x.shape[1:]
        out = np.zeros(shape) if fill == 0.0 else np.full(shape, fill)
        out[self.index] = x
        return out

    def gather(self, x):
        """The cells of a grid x (N, L, ...), (P, ...)."""
        if self.index is None:
            return x.reshape((-1,) + x.shape[len(self.shape):])
        return x[self.index]


class Runs(Grid):
    """A grid whose sequences, their rows and their cells split into
    `blocks` equal runs, one per source decoded together, none of which
    may change another's bits.  Its product over the cells (matmul) runs
    run by run, as it would for that source alone: a GEMM's rounding can
    depend on how many rows it has, and one row goes through a GEMV, so
    one product over every run would give a source other bits than
    decoding it alone.  A one-run Grid keeps the plain product, because
    the run axis costs two reshapes and a stacked product on every call,
    and a decode step makes about thirty of them.
    """

    __slots__ = ("blocks",)

    def __init__(self, shape, index, blocks):
        super().__init__(shape, index)
        self.blocks = blocks

    def matmul(self, x, w):
        """x (P, d), one row per cell, times w: one product per run of
        P / blocks rows."""
        return np.matmul(x.reshape(self.blocks, -1, x.shape[-1]),
                         w).reshape(-1, w.shape[-1])


@dataclass
class StreamBatch:
    """Hidden states of the parallel streams of a batch of sequences.

    hidden     (P, d)  activations, one cell per real (row, position)
    occupancy  (P,)    1.0 where the row's own token sits
    rows       Rows    the sequence of every row
    stream_ids (B, k)  interchangeable id behind each stream slot, -1 if none
    lengths    (B,)    real positions per sequence
    grid       Grid    where the cells sit among (rows, longest length)
    weight     (P, 1)  each cell's weight in its sequence's aggregate,
                       worked out from occupancy when not given
    own_columns        where project puts each cell's own score (see
                       own_columns_of()), or None: project works it out
    A row is one real (sequence, stream); k is the largest stream count,
    and slots past a sequence's own have no row.

    with_hidden hands weight and own_columns on, so a pass works out the
    weight once per batch, not once per aggregate.  A decode step's batch
    (see model.DecodeState) is given both by its state, the weight read
    off a table; nothing reads its occupancy, which is None.
    """

    hidden: T.Tensor
    occupancy: np.ndarray
    rows: Rows
    stream_ids: np.ndarray
    lengths: np.ndarray
    grid: Grid
    weight: np.ndarray = None
    own_columns: tuple = None

    def __post_init__(self):
        if self.weight is None:
            occ = self.grid.scatter(self.occupancy)               # (N, L)
            self.weight = self.grid.gather(
                aggregate_weights(self.rows, occ))[:, None]

    @property
    def k(self):
        return self.stream_ids.shape[1]

    @property
    def length(self):
        """The longest length."""
        return self.grid.shape[1]

    @property
    def active(self):
        """(B, k) 1.0 for the stream slots that have a row, else 0.0."""
        out = np.zeros(self.stream_ids.shape)
        out[self.rows.seq, self.rows.slot] = 1.0
        return out

    def with_hidden(self, hidden):
        """This batch with other hidden states."""
        return StreamBatch(hidden, self.occupancy, self.rows, self.stream_ids,
                           self.lengths, self.grid, self.weight,
                           self.own_columns)


def own_columns_of(rows, stream_ids, grid):
    """Where project puts each cell of grid's own score: a (B, L, k) array
    of -inf to fill, the flat places in it of the cells whose stream
    carries a symbol, and those cells (None when every cell's does)."""
    (N, L), k = grid.shape, stream_ids.shape[1]
    row, pos = grid.index or np.divmod(np.arange(N * L), L)
    place = (rows.seq[row] * L + pos) * k + rows.slot[row]
    symbol = stream_ids[rows.seq, rows.slot][row] >= 0
    cells = None if symbol.all() else np.flatnonzero(symbol)
    return (np.full((len(stream_ids), L, k), -np.inf),
            place if cells is None else place[cells], cells)


def sequence_stream_ids(seq, vocab):
    """Distinct interchangeable ids of a sequence, ascending."""
    return sorted({int(t) for t in seq if vocab.is_inter(int(t))})


def pack_sequences(seqs, W, vocab, stream_id_lists=None):
    """Embed a list of sequences into one StreamBatch, a row per stream.

    stream_id_lists pins each sequence's streams (the decoder reuses the
    encoder's); by default they come from the sequences themselves.  The
    whole batch is built at once from one padded id matrix: each row reads
    its sequence's ids, with interchangeable ids sent to the placeholder
    row and the row's own id to the actual row (_stream_rows, the one
    lookup rule, which the decode state's step tables are built by too).
    Only the real positions are embedded.
    """
    if not seqs:
        raise ContractError("cannot pack an empty batch")
    if W.shape[0] != vocab.table_rows:
        raise VocabularyError(
            f"embedding table has {W.shape[0]} rows, vocabulary needs {vocab.table_rows}")
    if stream_id_lists is not None and len(stream_id_lists) != len(seqs):
        raise ContractError("one stream id list per sequence required")
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    if not lengths.all():
        raise ContractError("cannot embed an empty sequence")
    valid = np.arange(lengths.max()) < lengths[:, None]          # (B, L)
    ids = np.full(valid.shape, PAD_ID, dtype=np.int64)
    ids[valid] = _flat(seqs, lengths.sum())
    if ids.min() < 0 or ids.max() >= vocab.total_size:
        raise VocabularyError("sequence contains out-of-range token ids")
    if stream_id_lists is None:
        # distinct interchangeable ids of each sequence, ascending
        inter = ids >= vocab.base_size     # padding holds PAD_ID, a base id
        present = np.zeros((len(seqs), vocab.inter_size), dtype=bool)
        present[np.nonzero(inter)[0], ids[inter] - vocab.base_size] = True
        counts = present.sum(axis=1)
        sids = np.nonzero(present)[1] + vocab.base_size
    else:
        counts = np.array([len(s) for s in stream_id_lists], dtype=np.int64)
        sids = _flat(stream_id_lists, counts.sum())
    rows = Rows(np.maximum(counts, 1))
    stream_ids = np.full((len(seqs), rows.kmax), -1, dtype=np.int64)
    stream_ids[np.arange(stream_ids.shape[1]) < counts[:, None]] = sids
    own_id = stream_ids[rows.seq, rows.slot]
    lookup, own = _stream_rows(ids[rows.seq], own_id, vocab)
    grid = Grid.of(valid[rows.seq])
    return StreamBatch(T.gather_rows(W, grid.gather(lookup)),
                       grid.gather(own).astype(np.float64), rows, stream_ids,
                       lengths, grid)


def _stream_rows(ids, own_id, vocab):
    """Embedding rows of ids (N, L), row i read in the stream whose own
    symbol is own_id[i] (-1: a synthetic stream, which owns none), and
    where that symbol sits.  The own symbol reads the actual row, any
    other interchangeable id the placeholder row, a base id its own row."""
    lookup = np.where(ids >= vocab.base_size, vocab.placeholder_row, ids)
    own = ids == own_id[:, None]     # no id is -1
    lookup[own] = vocab.actual_row
    return lookup, own


def _flat(lists, n):
    """The ids of a list of id sequences, concatenated, as int64."""
    return np.fromiter(chain.from_iterable(lists), dtype=np.int64, count=n)


def aggregate_weights(rows, occ):
    """Each row's weight in its sequence's aggregate at every position of
    occ (rows, positions), 1.0 where the row's own token sits: the mean's
    share, 1/count of what no stream owns, plus that occupancy."""
    share = (1.0 - rows.sum(occ)) / rows.counts[:, None]
    return share[rows.seq] + occ


def aggregate(H):
    """Fuse each sequence's streams into one sequence (mean then restore).

    Position-wise mean over the sequence's rows, then positions occupied by
    a stream's own token are replaced by that stream's hidden row, so each
    symbol keeps its private view of itself while everything else is
    shared.  Returns a (B, L, d) tensor, zero past each sequence's end:
    one node, a weighted sum of each sequence's rows (StreamBatch.weight),
    whose vjp hands every cell its weighted share.
    """
    rows, grid, weight = H.rows, H.grid, H.weight

    def forward(h):
        return (rows.sum(grid.scatter(h * weight)),
                lambda g: (grid.gather(g[rows.seq]) * weight,))

    return T.fused(forward, H.hidden)


def project(H, W):
    """Asymmetric projection from streams to logits, (B, L, V_n + k).

    Each stream is scored against the embedding table.  Base columns are
    the mean score over the sequence's streams, taken as the score of the
    streams' mean; the column for stream i's symbol is stream i's score
    against the actual row.  Columns that carry no symbol (stream slots a
    sequence lacks, the synthetic stream) get -inf so they can never win.
    Past a sequence's end the base columns read 0.0 and the others -inf.
    Pure dot products, in one node; any normalization of the inputs
    happens before this call.

    The own columns are one dot product per cell, a per-row reduction
    whose rounding does not depend on where the cell sits.  A GEMV over
    the cells would give a row different bits at a different place, so a
    renaming, which only moves rows, would move the own scores by an ulp.
    """
    rows, grid = H.rows, H.grid
    n = W.shape[0] - 2
    inv = (1.0 / rows.counts)[:, None, None]
    have = rows.seq, rows.slot       # the (B, k) stream slots with a row
    blank, place, cells = (H.own_columns or
                           own_columns_of(rows, H.stream_ids, grid))

    def forward(h, w):
        mean = rows.sum(grid.scatter(h)) * inv     # (B, L, d)
        score = T._einsum("pd,d->p", h, w[n])
        own = blank.copy()
        own.reshape(-1)[place] = score if cells is None else score[cells]
        out = np.concatenate([np.matmul(mean, w[:n].T), own], axis=-1)

        def vjp(g):
            g_base = g[..., :n]
            g_own = grid.gather(g[..., n:].transpose(0, 2, 1)[have])
            dw = np.zeros_like(w)
            dw[:n] = np.matmul(g_base.reshape(-1, n).T,
                               mean.reshape(-1, w.shape[1]))
            dw[n] = np.matmul(g_own, h)
            return (grid.gather((np.matmul(g_base, w[:n]) * inv)[rows.seq])
                    + g_own[:, None] * w[n], dw)

        return out, vjp

    return T.fused(forward, H.hidden, W)
