"""Encoder-decoder transformer over parallel embedding streams.

The architecture is built so renaming interchangeable symbols cannot change
what the model computes: renamings permute the streams, every stream-wise
component is weight-shared, stream mixing happens only through the
symmetric aggregate, and the projection reads each symbol's score off its
own stream.  The embedding table is tied three ways (encoder input,
decoder input, output projection share one buffer).

Each layer runs an ordered list of attention sublayers, then the
feed-forward block, each wrapped as norm(x + dropout(sub(x))):

  encoder: [EP per-stream self-attention] [EA aggregated attention] ffn
  decoder: [DP masked per-stream self-attention] [DA masked aggregated
           attention] cross-attention per configured mode (CP per-stream,
           CA aggregated) ffn

Disabling a toggle removes the sublayer and its norm parameters entirely.
A pass decides its rotary phases and its dropout once: encode and
decode_hidden build the masks and the rotation() table of the positions
they feed and hand them to every layer, with the dropout generator (None
outside training); each layer reads its dropout rate from the config it
was built with.
Every attention sublayer is three graph nodes (see attention.py); the
residual sum and its norm are one node, and so are the feed-forward block
and the cosine head's normalisation.  Every stream-wise piece runs on the
stored cells, one per real (sequence, stream, position), so no work goes
to stream slots a sequence lacks or to positions past its end: the
embedding, the norms, the feed-forward block, dropout, the cosine
normalisation and the projections see only the cells, and attention
alone lays them out on the padded grid, inside its nodes.

Decoding runs on a DecodeState.  begin_decode encodes one or more
sources, of any length and stream count, as one batch, opens one cache
per decoder sublayer (a KVCache for self-attention, the cross-attention
keys and values, projected once) and builds a lookup table from every
token id to its embedding row in each stream of each source; every
step_logits call then embeds one token per row with one index into that
table, feeds it through the same decoder layers as the teacher-forced
pass, and writes its rotated DP and DA keys and values in place into the
caches.  This matches the teacher-forced pass up to rounding because every
decoder sublayer is position-wise or causal: the DA aggregate at position
t reads only position t, and rotary encoding rotates each key by its own
absolute position.  Each row keeps its own source's streams, and
cross-attention reads a shorter source's encoder keys under a key-padding
mask.  When the sources share their length and stream count, their rows
run as separate blocks of every product (streams.Runs), so a row's bits
are the ones it gets decoded alone; other sources run plain products,
within rounding of alone.  There is one search loop: beam search
advances the live hypotheses of every source as rows of one state, held
in arrays, and re-indexes the caches by parent; greedy decoding is the
width-1 beam, whose rows keep their places, so its caches are re-indexed
only when a source ends before the others.  check_trials decodes every
trial's source and renamed image as the rows of one such search;
check_invariance is its one-trial case.

A conventional transformer with one stream and a full vocabulary table
(FlatVocabTransformer) is included as the non-invariant baseline; it
swaps the stream embedding, the projection and the column table for flat
ones and shares the rest, the decode state included.

Each source has one column table, _col_ids: the token id behind every
logit column.  Training labels, the renamed run's column alignment and
the decode state's emitted tokens are all read off it.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import tensor as T
from .attention import (AttentionConfig, KVCache, MultiHeadAttention,
                        aggregated_attention, cross_attention, cross_kv,
                        look_ahead_mask, padding_mask, per_stream_attention,
                        rotation)
from .errors import ContractError, VocabularyError
from .streams import (EOS_ID, SOS_ID, Grid, Rows, StreamBatch, Vocabulary,
                      _flat, _stream_rows, pack_sequences, project,
                      sequence_stream_ids)

# ablation code tokens, in code order: the sublayer switch each turns on,
# then the cross-attention mode each adds
_SUBLAYER_CODES = {"EP": "use_ep", "DP": "use_dp", "EA": "use_ea",
                   "DA": "use_da"}
_CROSS_CODES = {"CP": "per", "CA": "agg"}
CROSS_MODES = tuple(_CROSS_CODES.values())


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 64
    heads: int = 4
    ffn_dim: int = 128
    enc_layers: int = 2
    dec_layers: int = 2
    use_ep: bool = True
    use_ea: bool = True
    use_dp: bool = True
    use_da: bool = True
    cross_modes: tuple[str, ...] = ("per",)
    cosine_head: bool = True
    dropout: float = 0.0
    rope_base: float = 10000.0

    def __post_init__(self):
        if not (self.use_ep or self.use_ea):
            raise ContractError("encoder needs at least one attention sublayer")
        if not (self.use_dp or self.use_da):
            raise ContractError("decoder needs at least one self-attention sublayer")
        if not self.cross_modes:
            raise ContractError("at least one cross-attention mode is required")
        if len(set(self.cross_modes)) != len(self.cross_modes):
            raise ContractError("duplicate cross-attention mode")
        for m in self.cross_modes:
            if m not in CROSS_MODES:
                raise ContractError(f"unknown cross-attention mode {m!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ContractError("dropout must lie in [0, 1)")
        if self.ffn_dim < 1:
            raise ContractError("ffn_dim must be positive")
        if self.enc_layers < 1 or self.dec_layers < 1:
            raise ContractError("encoder and decoder need a layer or more")
        self.attention    # built once, here, so a bad width fails early

    @cached_property
    def attention(self):
        return AttentionConfig(self.d_model, self.heads, self.rope_base)

    @staticmethod
    def from_code(code, **overrides):
        """Build a config from an ablation code like "EP-DP-EA-CP"; the
        code sets every sublayer switch and the cross modes, whatever
        overrides says."""
        switches = dict.fromkeys(_SUBLAYER_CODES.values(), False)
        cross = []
        for tok in code.split("-"):
            t = tok.strip().upper()
            if t in _SUBLAYER_CODES:
                switches[_SUBLAYER_CODES[t]] = True
            elif t in _CROSS_CODES:
                cross.append(_CROSS_CODES[t])
            else:
                raise ContractError(f"unknown ablation token {tok!r}")
        return ModelConfig(**{**overrides, **switches,
                              "cross_modes": tuple(cross)})

    def to_dict(self):
        return dict(asdict(self), cross_modes=list(self.cross_modes))

    @staticmethod
    def from_dict(d):
        d = dict(d)
        d["cross_modes"] = tuple(d["cross_modes"])
        return ModelConfig(**d)


def l2_normalize(x):
    """Unit-norm rows over the last axis; epsilon guards the zero vector.

    One node: y = x / sqrt(|x|^2 + 1e-12), whose vjp is
    (g - y * rowdot(g, y)) / sqrt(|x|^2 + 1e-12).
    """
    def forward(xd):
        norm = np.sqrt(np.add.reduce(xd * xd, axis=-1, keepdims=True) + 1e-12)
        y = xd / norm

        def vjp(g):
            dx = g - y * np.add.reduce(g * y, axis=-1, keepdims=True)
            dx /= norm
            return (dx,)

        return y, vjp

    return T.fused(forward, x)


class Norm:
    def __init__(self, prefix, d):
        self.gain = T.Parameter(f"{prefix}.gain", np.ones(d))
        self.bias = T.Parameter(f"{prefix}.bias", np.zeros(d))

    def __call__(self, x, y):
        """The norm of the residual sum x + y, one node."""
        return T.add_layer_norm(x, y, self.gain.tensor, self.bias.tensor)

    def parameters(self):
        return [self.gain, self.bias]


class FeedForward:
    def __init__(self, prefix, d, f, rng):
        b1 = 1.0 / np.sqrt(d)
        b2 = 1.0 / np.sqrt(f)
        self.w1 = T.Parameter(f"{prefix}.w1", rng.uniform(-b1, b1, (d, f)))
        self.b1 = T.Parameter(f"{prefix}.b1", np.zeros(f))
        self.w2 = T.Parameter(f"{prefix}.w2", rng.uniform(-b2, b2, (f, d)))
        self.b2 = T.Parameter(f"{prefix}.b2", np.zeros(d))

    def __call__(self, x, grid):
        """relu(x @ w1 + b1) @ w2 + b2 as one node; x holds the cells of
        grid, whose runs (streams.Runs) each product keeps apart.

        The ReLU runs as tensor.relu under its own vjp (tensor.pullback);
        each weight gradient is one GEMM over every row of x.
        """
        def forward(xd, w1, b1, w2, b2):
            pre = grid.matmul(xd, w1)
            pre += b1
            h, relu_back = T.pullback(T.relu, pre)
            out = grid.matmul(h, w2)
            out += b2

            def vjp(g):
                d, f = w1.shape
                g2 = g.reshape(-1, d)
                gpre = relu_back(np.matmul(g2, w2.T).reshape(h.shape))
                gpre = gpre.reshape(-1, f)
                return (np.matmul(gpre, w1.T).reshape(xd.shape),
                        np.matmul(xd.reshape(-1, d).T, gpre),
                        gpre.sum(axis=0),
                        np.matmul(h.reshape(-1, f).T, g2),
                        g2.sum(axis=0))

            return out, vjp

        return T.fused(forward, x, self.w1.tensor, self.b1.tensor,
                       self.w2.tensor, self.b2.tensor)

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2]


class _Layer:
    """An ordered list of residual-and-norm-wrapped attention sublayers,
    then the feed-forward block.

    subs holds (kind, MultiHeadAttention, Norm) per enabled sublayer, in
    the order they run; the kind ("self", "agg", "cross.per" or
    "cross.agg") is its parameter prefix.  A subclass names its kinds.
    """

    def __init__(self, cfg: ModelConfig, prefix, rng):
        a = cfg.attention
        self.rate = cfg.dropout
        self.subs = [(kind, MultiHeadAttention(f"{prefix}.{kind}", a, rng),
                      Norm(f"{prefix}.{kind}.norm", cfg.d_model))
                     for kind in self.kinds(cfg)]
        self.ffn = FeedForward(f"{prefix}.ffn", cfg.d_model, cfg.ffn_dim, rng)
        self.ffn_norm = Norm(f"{prefix}.ffn.norm", cfg.d_model)

    def parameters(self):
        out = []
        for _, mha, norm in self.subs:
            out += mha.parameters() + norm.parameters()
        return out + self.ffn.parameters() + self.ffn_norm.parameters()

    def _residual_norm(self, H, sub, norm, rng):
        """norm(x + dropout(sub(x))) on every stored row."""
        if rng is not None:
            sub = T.dropout(sub, self.rate, rng)
        return H.with_hidden(norm(H.hidden, sub))

    def __call__(self, H, mask, phase, rng, enc, m_pad, caches):
        """One layer: mask is the self-attention keep-mask, causal in a
        decoder; cross-attention reads the encoder output enc under m_pad.
        With a decoder's caches(), H holds one new position, and phase is
        the rotation() table of that position."""
        if caches is None:
            caches = [None] * len(self.subs)
        for (kind, mha, norm), cache in zip(self.subs, caches):
            if kind == "self":
                sub = per_stream_attention(mha, H, mask, phase, cache)
            elif kind == "agg":
                # a causal mask keeps the fused keys causal too
                sub = aggregated_attention(mha, H, mask, phase, cache)
            else:
                sub = cross_attention(mha, H, enc, _cross_mode(kind), m_pad,
                                      phase, cache)
            H = self._residual_norm(H, sub.hidden, norm, rng)
        return self._residual_norm(H, self.ffn(H.hidden, H.grid),
                                   self.ffn_norm, rng)


class EncoderLayer(_Layer):
    @staticmethod
    def kinds(cfg):
        return ["self"] * cfg.use_ep + ["agg"] * cfg.use_ea

    def __call__(self, H, mask, phase, rng):
        return super().__call__(H, mask, phase, rng, None, None, None)


class DecoderLayer(_Layer):
    @staticmethod
    def kinds(cfg):
        return (["self"] * cfg.use_dp + ["agg"] * cfg.use_da
                + [f"cross.{mode}" for mode in cfg.cross_modes])

    def __call__(self, H, enc, m_la, m_pad, phase, rng, caches=None):
        return super().__call__(H, m_la, phase, rng, enc, m_pad, caches)

    def caches(self, enc):
        """Decode-time state, one entry per sublayer: a KVCache for masked
        self-attention, the encoder keys and values, computed once, for
        cross-attention.  Each holds a row per decoded stream."""
        return [KVCache() if kind in ("self", "agg") else
                tuple(x.data for x in cross_kv(mha, enc, _cross_mode(kind),
                                               enc.rows.seq))
                for kind, mha, _ in self.subs]


def _cross_mode(kind):
    return kind.removeprefix("cross.")


class DecodeState:
    """Encoded sources and the decoder caches of the rows decoding them.

    begin_decode builds it from one or more sources of any length and
    stream count: the encoder runs once over all of them, as one batch
    padded where they differ, each decoder layer's cross-attention keys
    and values are projected once, and so are the output table
    (normalised for the cosine head) and the step embedding's lookup
    table.  Each step_logits call
    then feeds one token per row, embeds it with one index into that
    table, and writes that position's rotated keys and values into every
    layer's cache.  Each row decodes one source, src_of says which, and
    keeps that source's streams: a row holds one cache row per stream of
    its source, so the rows are ragged when the stream counts differ, and
    cross-attention reads a shorter source's encoder keys under a
    key-padding mask.  When every source has one length and one stream
    count, nothing is padded, and while each source holds as many rows as
    the others, grouped in source order, every product runs source by
    source (the grid's runs), as it would for that source alone; a state
    of sources that differ runs plain products.  The search keeps its
    live hypotheses as rows and calls select() to re-index the caches by
    parent.

    col_ids  (sources, columns) token id behind each logit column, -1 past
             a source's own streams (and for a synthetic stream)
    allowed  (rows, columns) columns each row's source can emit
    lookup   (sources, k, V) embedding row of every token id in each stream
    own      (sources, k, V) 1.0 where the token id is the stream's own
             symbol
    layers   per decoder layer, its caches(): one entry per sublayer, a
             cache row per stream of each row
    src_of   (rows,) the source each row decodes
    m_pad    (stream rows, 1, encoder length) the encoder positions each
             stream row's source holds, None when every one holds all
    rows, stream_ids, lengths, grid  the StreamBatch fields of the
                                     current rows
    k is the largest stream count; lookup, own and the encoder's stream
    ids are padded to it, and only a source's own streams are read.
    """

    def __init__(self, enc, col_ids, table, layers, lookup, own):
        self.enc = enc
        self.col_ids = col_ids
        self.table = table
        self.layers = layers
        self.lookup = lookup
        self.own = own
        self._fit(np.arange(len(lookup)))

    def _fit(self, src_of):
        """Row bookkeeping for rows decoding src_of, each row with its
        source's streams and columns.  When the encoder ran its sources
        as runs (they share their length and stream count), rows grouped
        by source in source order, the same number for each, are one run
        per source (streams.Runs), so each source's rows get the bits they
        would get decoded alone; any other rows run plain products."""
        n = len(src_of)
        ids = src_of.tolist()
        sources = sorted(set(ids))
        runs = len(sources)
        if self.enc.grid.blocks == 1 or ids != [s for s in sources
                                                for _ in range(n // runs)]:
            runs = 1
        self.src_of = src_of
        self.allowed = self.col_ids[src_of] >= 0
        self.rows = Rows(self.enc.rows.counts[src_of])
        self.stream_ids = self.enc.stream_ids[src_of]
        self.lengths = np.ones(n, dtype=np.int64)
        self.grid = Grid((len(self.rows.seq), 1)).runs(runs)
        lengths = self.enc.lengths[src_of][self.rows.seq]
        self.m_pad = (None if (lengths == self.enc.length).all() else
                      padding_mask(lengths, 1, self.enc.length))

    @property
    def length(self):
        """Positions fed so far, the start marker included: a decoder
        layer's first sublayer is self-attention, so its cache counts."""
        return self.layers[0][0].length

    def embed(self, tgt_inputs, W):
        """StreamBatch of the next token of every row, tgt_inputs (rows, 1):
        each stream row reads its embedding row through its source's
        lookup table."""
        tokens = np.asarray(tgt_inputs)
        if tokens.shape != (len(self.src_of), 1):
            raise ContractError(f"a cached decode step feeds one token to each "
                                f"of {len(self.src_of)} decoded rows, not "
                                f"{tokens.shape}")
        tokens = tokens[:, 0]
        if not (0 <= np.minimum.reduce(tokens)
                and np.maximum.reduce(tokens) < self.lookup.shape[2]):
            raise VocabularyError("decode step fed an out-of-range token id")
        pick = self.rows.pick
        return StreamBatch(
            T.gather_rows(W, pick(self.lookup[self.src_of, :, tokens])),
            pick(self.own[self.src_of, :, tokens]), self.rows,
            self.stream_ids, self.lengths, self.grid)

    def select(self, rows):
        """Keep the given rows, in order; a row may be repeated, and at
        least one must be kept.  Each owns one cache row per stream of
        its source.  Keeping every row in its place, as a width-1 search
        does at each step, copies nothing."""
        rows, n = list(rows), len(self.src_of)
        if rows == list(range(n)):
            return
        if not rows or not all(0 <= r < n for r in rows):
            raise ContractError(f"select keeps one or more of the {n} "
                                f"current rows, not {rows}")
        first, src_of = self.rows.first[rows], self.src_of[rows]
        if len(rows) != n or (src_of != self.src_of).any():
            self._fit(src_of)
        rows = first[self.rows.seq] + self.rows.slot
        for caches in self.layers:
            for i, c in enumerate(caches):
                if isinstance(c, KVCache):
                    c.select(rows)
                else:
                    caches[i] = tuple(x[rows] for x in c)


@dataclass
class DecodeResult:
    tokens: list
    score: float
    truncated: bool
    tied: bool


@dataclass
class InvarianceReport:
    max_logit_discrepancy: float
    decode_match: bool
    ties_flagged: bool
    decoded: list
    round_trip: list

    @property
    def passed(self):
        return self.decode_match and self.max_logit_discrepancy <= 1e-6


class Seq2SeqModel:
    """Stream-structured encoder-decoder with a tied embedding table."""

    def __init__(self, cfg: ModelConfig, vocab: Vocabulary, seed=0):
        self.cfg = cfg
        self.vocab = vocab
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(cfg.d_model)
        # one buffer serves encoder input, decoder input and projection
        self.embedding = T.Parameter(
            "embed.w", rng.uniform(-bound, bound,
                                   (self._table_rows(vocab), cfg.d_model)))
        self.enc_layers = [EncoderLayer(cfg, f"enc.{i}", rng)
                           for i in range(cfg.enc_layers)]
        self.dec_layers = [DecoderLayer(cfg, f"dec.{i}", rng)
                           for i in range(cfg.dec_layers)]
        self.adacos = None   # attached by the trainer
        self._check_names()

    def _check_names(self):
        names = [p.name for p in self.parameters()]
        if len(set(names)) != len(names):
            raise ContractError("parameter names must be unique")

    def parameters(self):
        out = [self.embedding]
        for layer in self.enc_layers + self.dec_layers:
            out += layer.parameters()
        return out

    def label_columns(self, src, tgt):
        """Logit column index for each target token, given its source: the
        token's place in the source's column table."""
        column = {t: c for c, t in enumerate(self._col_ids(src)) if t >= 0}
        try:
            return [column[int(t)] for t in tgt]
        except KeyError as e:
            raise VocabularyError(f"target symbol {e.args[0]} has no logit "
                                  f"column for this source") from None

    # ------------------------------------------------- embedding and columns

    @staticmethod
    def _table_rows(vocab):
        return vocab.table_rows

    def _embed(self, seqs, enc=None):
        """Stream batch of seqs; decoder inputs pass the encoder output, so
        their streams are pinned to the encoder's."""
        sids = None
        if enc is not None:
            sids = [[int(s) for s in row if s >= 0] for row in enc.stream_ids]
        return pack_sequences(seqs, self.embedding.tensor, self.vocab,
                              stream_id_lists=sids)

    def _step_lookup(self, enc):
        """Embedding row and occupancy of every token id in each stream of
        each source enc holds, (sources, k, V) each: what _embed gives a
        token at any position of a decoder row."""
        own_id = enc.stream_ids
        shape = own_id.shape + (self.vocab.total_size,)
        ids = np.broadcast_to(np.arange(shape[-1]), (own_id.size, shape[-1]))
        lookup, own = _stream_rows(ids, own_id.reshape(-1), self.vocab)
        return lookup.reshape(shape), own.reshape(shape).astype(np.float64)

    def _project(self, H, W):
        return project(H, W)

    def _col_ids(self, src):
        """Token id behind each logit column for src: the base ids, then
        one per stream, in the order pack_sequences and project give the
        streams; -1 marks the synthetic stream of a symbol-free source."""
        return (list(range(self.vocab.base_size))
                + (sequence_stream_ids(src, self.vocab) or [-1]))

    # ----------------------------------------------------------------- forward

    def encode(self, srcs, rng=None, blocks=1):
        """Run the encoder stack over a batch of source id sequences; every
        layer shares one padding mask and one rotary phase table.  rng is
        the dropout generator, None outside training.  blocks > 1 splits
        the batch into that many equal runs of sources, each encoded bit
        for bit as if alone (see streams.Runs)."""
        H = self._embed(srcs)
        H.grid = H.grid.runs(blocks)
        mask = padding_mask(H.lengths[H.rows.seq], H.length, H.length)
        phase = rotation(self.cfg.attention, np.arange(H.length))
        for layer in self.enc_layers:
            H = layer(H, mask, phase, rng)
        return H

    def decode_hidden(self, tgt_inputs, enc, rng=None, state=None):
        """Run the decoder stack; streams are pinned to the encoder's.

        With a DecodeState, each row of tgt_inputs is the one next token of
        a decoded row, embedded through the state's lookup table: the
        layers read the earlier positions from the state's caches and
        append this one.  The new position may see every cached one, so
        self-attention masks nothing, and cross-attention reads the
        encoder under the state's key-padding mask.  Every layer shares
        the masks and one rotary phase table; rng is as for encode.
        """
        if state is None:
            H = self._embed(tgt_inputs, enc)
            m_la = look_ahead_mask(H.lengths[H.rows.seq], H.length)
            m_pad = padding_mask(enc.lengths[H.rows.seq], H.length, enc.length)
            caches = [None] * len(self.dec_layers)
            pos = np.arange(H.length)
        else:
            H = state.embed(tgt_inputs, self.embedding.tensor)
            m_la, m_pad = None, state.m_pad
            caches = state.layers
            pos = np.arange(state.length, state.length + 1)
        phase = rotation(self.cfg.attention, pos)
        for layer, layer_caches in zip(self.dec_layers, caches):
            H = layer(H, enc, m_la, m_pad, phase, rng, layer_caches)
        return H

    def _output_table(self):
        W = self.embedding.tensor
        return l2_normalize(W) if self.cfg.cosine_head else W

    def project_logits(self, H, table=None):
        """Logits over the output columns; the cosine head normalizes both
        sides first.  table is the _output_table() a decode already holds."""
        if table is None:
            table = self._output_table()
        if self.cfg.cosine_head:
            H = H.with_hidden(l2_normalize(H.hidden))
        return self._project(H, table)

    def forward_batch(self, srcs, tgt_inputs, rng=None):
        """Teacher-forced logits (B, Lt, columns) plus the stream ids; rng
        is the dropout generator, None outside training."""
        enc = self.encode(srcs, rng)
        dec = self.decode_hidden(tgt_inputs, enc, rng)
        return self.project_logits(dec), enc.stream_ids

    def forward(self, src, tgt_input):
        """Single-sequence logits (Lt, columns)."""
        logits, _ = self.forward_batch([list(src)], [list(tgt_input)])
        return T.reshape(logits, logits.shape[1:])

    def align_renamed_logits(self, logits, src, renamed_src, f):
        """Permute a renamed run's columns back into the base run's order:
        the base run's column for token t lines up with the renamed run's
        column for f[t].  A synthetic stream's id, -1, is no symbol, so f
        maps it to itself and its column stays put."""
        renamed = self._col_ids(renamed_src)
        return logits[:, [renamed.index(f[t]) for t in self._col_ids(src)]]

    # ----------------------------------------------------------------- decode

    def begin_decode(self, *srcs):
        """Encode one or more sources, of any length and stream count, as
        one batch and open a DecodeState with one row per source, no token
        fed yet.  Sources of one length and one stream count are encoded
        as one run each (see encode), so each gets the bits it gets
        alone; any other batch is padded and runs plain products."""
        if not srcs:
            raise ContractError("a decode state takes one or more sources")
        srcs = [list(src) for src in srcs]
        col_ids = [self._col_ids(src) for src in srcs]
        width = max(map(len, col_ids))
        shapes = len({(len(src), len(c)) for src, c in zip(srcs, col_ids)})
        with T.no_grad():
            enc = self.encode(srcs, blocks=len(srcs) if shapes == 1 else 1)
            table = self._output_table()
            layers = [layer.caches(enc) for layer in self.dec_layers]
        return DecodeState(enc, np.array([c + [-1] * (width - len(c))
                                          for c in col_ids]),
                           table, layers, *self._step_lookup(enc))

    def step_logits(self, state, tokens):
        """Feed one token per row; returns the next logits, (rows, columns).

        The first step feeds the start marker to each source's row;
        later steps feed as many rows as the last select() kept.
        """
        with T.no_grad():
            tgt_inputs = np.asarray(tokens, dtype=np.int64)[:, None]
            dec = self.decode_hidden(tgt_inputs, state.enc, state=state)
            return self.project_logits(dec, state.table).data[:, 0]


def decode_greedy(model, src, max_len=64):
    """Argmax decoding until the end marker or the length bound: the one
    hypothesis of a width-1 beam search."""
    return decode_beam(model, src, 1, max_len)[0]


def decode_beam(model, src, width, max_len=64):
    """Beam search over summed log-probabilities.

    Returns up to `width` hypotheses, best first.  No length normalization,
    so width 1 is greedy decoding.  Among equal scores the first candidate
    in generation order wins: for one row, the lowest token id.  A
    hypothesis is flagged tied once a step's top score was an exact tie
    between two interchangeable columns, the only place where tie breaking
    could interact with a renaming.  See _search for how the search runs.
    """
    return _search(model, [src], width, max_len)[0]


def _search(model, srcs, width, max_len):
    """decode_beam of every source in srcs at once, one list of hypotheses
    per source; the sources may differ in length and stream count (see
    DecodeState), and a source's columns past its own streams are never
    emitted.

    The live hypotheses of every source are the rows of one decode state,
    grouped by source in source order, and one step_logits call advances
    them all.  The search is held in arrays: tokens, the start marker
    then the emitted ids, one column appended per step, so that memory
    follows the emitted length, not max_len; scores, tie flags and the
    state's source index.  Each step makes one walk per source over its
    candidates (row, then column, in generation order) from the best
    (_best_first) until it holds `width` that do not end; the ended ones
    met on the way join the source's ended hypotheses.  The walk covers
    every column and stops at the first candidate scoring -inf: only a
    column the source cannot emit does, as DecodeState.allowed masks it.
    In the same pass the source stops at the length bound, or once its
    `width` best ended hypotheses beat its best live one: log-probs only
    shrink scores, so nothing can displace them.  A stopped source's
    hypotheses become DecodeResults and its rows leave the state.
    """
    if width < 1:
        raise ContractError("beam width must be at least 1")
    if max_len < 1:
        raise ContractError("max_len must be at least 1")
    state = model.begin_decode(*srcs)
    n_base = model.vocab.base_size
    tokens = np.full((len(srcs), 1), SOS_ID)
    scores = np.zeros(len(srcs))
    tied = np.zeros(len(srcs), dtype=bool)
    groups = [(s, 1) for s in range(len(srcs))]   # (source, its rows)
    done = [[] for _ in srcs]          # (score, tokens, tied), best first
    out = [None] * len(srcs)
    for step in range(max_len):
        vals = np.where(state.allowed,
                        model.step_logits(state, tokens[:, -1]), -np.inf)
        top = np.maximum.reduce(vals, axis=-1, keepdims=True)
        step_tied = np.add.reduce(vals[:, n_base:] == top, axis=-1) >= 2
        logp = vals - (top + np.log(np.add.reduce(np.exp(vals - top),
                                                  axis=-1, keepdims=True)))
        tied = tied | step_tied
        parents, emitted, best, going = [], [], [], []
        lo = 0
        for s, n in groups:
            ids, first, ended = state.col_ids[s], len(parents), len(done[s])
            block = (scores[lo:lo + n, None] + logp[lo:lo + n]).reshape(-1)
            for i in _best_first(block):
                if block[i] == -np.inf:
                    break
                r, c = divmod(i, len(ids))
                if ids[c] == EOS_ID:
                    done[s].append((block[i], tokens[lo + r, 1:],
                                    tied[lo + r]))
                    continue
                parents.append(lo + r)
                emitted.append(ids[c])
                best.append(block[i])
                if len(parents) - first == width:
                    break
            lo += n
            if len(done[s]) > ended:
                done[s].sort(key=lambda d: -d[0])
                del done[s][width:]
            if step < max_len - 1 and len(parents) > first and not (
                    len(done[s]) == width and done[s][-1][0] >= best[first]):
                going.append((s, len(parents) - first))
                continue
            rows = parents[first:]
            out[s] = _ranked(done[s], np.column_stack(
                (tokens[rows, 1:], emitted[first:])), best[first:],
                tied[rows], width)
            del parents[first:], emitted[first:], best[first:]
        if not going:
            break
        state.select(parents)
        tokens = np.column_stack((tokens[parents], emitted))
        scores, tied, groups = np.array(best), tied[parents], going
    return out


def _best_first(block):
    """Indices of block from its largest value down, the first of equal
    values first: an argmax, and a stable sort only if the walk asks for
    a second index, as a width-1 step does only once its best ends."""
    first = int(block.argmax())
    yield first
    yield from (i for i in (-block).argsort(kind="stable").tolist()
                if i != first)


def _ranked(done, tokens, scores, tied, width):
    """A stopped source's `width` best hypotheses: its ended ones, best
    first, then its live rows, cut off by the length bound or outranked;
    equal scores keep that order."""
    hyps = [DecodeResult(t.tolist(), float(s), False, bool(d))
            for s, t, d in done]
    hyps += [DecodeResult(t.tolist(), float(s), True, bool(d))
             for t, s, d in zip(tokens, scores, tied)]
    hyps.sort(key=lambda h: -h.score)
    return hyps[:width]


def check_invariance(model, src, f, max_len=64):
    """Certify one source against one renaming: check_trials of the one
    trial (src, f)."""
    return check_trials(model, [(src, f)], max_len)[0]


def check_trials(model, trials, max_len=64):
    """Certify each source against its renaming, trials a list of (src, f);
    one InvarianceReport per trial, in order.

    Decodes every trial's source and renamed image as the rows of one
    width-1 search, checks that un-renaming each renamed decode
    reproduces its source's decode token for token, and compares each
    trial's teacher-forced logits, from that trial's own two-sequence
    forward_batch, with the interchangeable columns matched up through
    the renaming.  The sources may differ in length and stream count
    (see DecodeState); a trial whose source and image are alone in the
    search decodes each as it would alone, bit for bit.
    """
    srcs = []
    for src, f in trials:
        src = [int(t) for t in src]
        srcs += [src, f(src)]
    hyps = _search(model, srcs, 1, max_len)
    reports = []
    for i, (_, f) in enumerate(trials):
        src, renamed_src = srcs[2 * i:2 * i + 2]
        (base,), (ren,) = hyps[2 * i:2 * i + 2]
        round_trip = f.inverse()(ren.tokens)
        y = base.tokens
        with T.no_grad():
            logits, _ = model.forward_batch([src, renamed_src],
                                            [[SOS_ID] + y, [SOS_ID] + f(y)])
        logits1, logits2 = logits.data
        aligned = model.align_renamed_logits(logits2, src, renamed_src, f)
        fin1, fin2 = np.isfinite(logits1), np.isfinite(aligned)
        disc = float(np.max(np.abs(logits1[fin1] - aligned[fin2]),
                            initial=0.0)
                     if np.array_equal(fin1, fin2) else np.inf)
        reports.append(InvarianceReport(disc, round_trip == y,
                                        base.tied or ren.tied, y,
                                        round_trip))
    return reports


class FlatVocabTransformer(Seq2SeqModel):
    """Ordinary transformer baseline: one stream, per-symbol embedding rows.

    Shares the layers, the forward pass, the decode state and the column
    lookups with the stream model but embeds every token by identity, so
    renamed inputs meet different weights and nothing guarantees
    invariance.  Used as the comparison double in evaluations.
    """

    @staticmethod
    def _table_rows(vocab):
        return vocab.total_size

    def _embed(self, seqs, enc=None):
        """One row per sequence; its ids, concatenated, are the cells."""
        B = len(seqs)
        lengths = np.array([len(s) for s in seqs], dtype=np.int64)
        ids = _flat(seqs, lengths.sum())
        return StreamBatch(T.gather_rows(self.embedding.tensor, ids),
                           np.zeros(len(ids)), Rows(np.ones(B)),
                           np.full((B, 1), -1, dtype=np.int64), lengths,
                           Grid.of(np.arange(lengths.max())
                                   < lengths[:, None]))

    def _step_lookup(self, enc):
        shape = (len(enc.lengths), 1, self.vocab.total_size)
        return np.broadcast_to(np.arange(shape[-1]), shape), np.zeros(shape)

    def _project(self, H, W):
        """Every cell scored against every table row, one node, on the
        (B, L, V) grid; 0.0 past each sequence's end."""
        grid = H.grid

        def forward(h, w):
            def vjp(g):
                gc = grid.gather(g)
                return np.matmul(gc, w), np.matmul(gc.T, h)

            return grid.scatter(grid.matmul(h, w.T)), vjp

        return T.fused(forward, H.hidden, W)

    def _col_ids(self, src):
        """Every token keeps its own column in the flat table."""
        return list(range(self.vocab.total_size))


# ------------------------------------------------------------------ persistence

def save_model(model, path):
    """Checkpoint the parameters with config and vocabulary alongside."""
    arrays = {p.name: p.data for p in model.parameters()}
    meta = {"format": "streamformer-model v1",
            "kind": type(model).__name__,
            "config": model.cfg.to_dict(),
            "vocab": {"base": list(model.vocab.base_tokens),
                      "inter": list(model.vocab.inter_tokens)}}
    if model.adacos is not None:
        meta["adacos"] = {"scale": float(model.adacos.scale),
                          "class_count": int(model.adacos.class_count)}
    T.save_checkpoint(path, arrays, meta)


def load_model(path):
    """Rebuild a model from a checkpoint written by save_model; a kind
    that names neither model class raises ContractError."""
    arrays, meta = T.load_checkpoint(path)
    if meta.get("format") != "streamformer-model v1":
        raise ContractError("checkpoint does not hold a model")
    kind = meta.get("kind")
    cls = next((c for c in (Seq2SeqModel, FlatVocabTransformer)
                if c.__name__ == kind), None)
    if cls is None:
        raise ContractError(f"checkpoint holds an unknown model kind {kind!r}")
    try:
        cfg = ModelConfig.from_dict(meta["config"])
        vocab = Vocabulary(tuple(meta["vocab"]["base"]),
                           tuple(meta["vocab"]["inter"]))
        model = cls(cfg, vocab, seed=0)
    except (KeyError, TypeError, ValueError) as e:
        raise ContractError(f"checkpoint metadata is malformed: {e!r}") from None
    own = {p.name: p for p in model.parameters()}
    if set(own) != set(arrays):
        raise ContractError("checkpoint parameters do not match the model")
    for name, arr in arrays.items():
        if own[name].data.shape != arr.shape:
            raise ContractError(f"shape mismatch for {name}")
        if not np.isfinite(arr).all():
            raise ContractError(f"parameter {name} holds NaN or inf")
        own[name].data = arr
    if "adacos" in meta:
        from .training import AdaCosState
        model.adacos = AdaCosState(meta["adacos"]["scale"],
                                   meta["adacos"]["class_count"])
    return model
