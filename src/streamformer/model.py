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
Every attention sublayer is four graph nodes (see attention.py); the
residual sum and its norm are one node, and so are the feed-forward block
and the cosine head's normalisation.  Every stream-wise piece runs on the
stored rows, one per real (sequence, stream), so no work goes to stream
slots a sequence lacks.

Decoding runs on a DecodeState.  begin_decode encodes the source once,
opens one cache per decoder sublayer (a KVCache for self-attention, the
cross-attention keys and values, projected once) and builds a lookup
table from every token id to its embedding row in each of the source's
streams; every step_logits call then embeds one token per row with one
index into that table, feeds it through the same decoder layers as the
teacher-forced pass, and writes its rotated DP and DA keys and values in
place into the caches.  This matches the teacher-forced pass up to
rounding because every decoder sublayer is position-wise or causal: the
DA aggregate at position t reads only position t, and rotary encoding
rotates each key by its own absolute position.  Beam search advances its
live hypotheses as rows of one state and re-indexes the caches by parent.

A conventional transformer with one stream and a full vocabulary table
(FlatVocabTransformer) is included as the non-invariant baseline; it
swaps the stream embedding and projection for flat ones and shares the
rest, the decode state included.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import (AttentionConfig, KVCache, MultiHeadAttention,
                        aggregated_attention, cross_attention, cross_kv,
                        look_ahead_mask, padding_mask, per_stream_attention)
from .errors import ContractError, VocabularyError
from .streams import (EOS_ID, SOS_ID, Rows, StreamBatch, Vocabulary,
                      pack_sequences, project, sequence_stream_ids,
                      stream_lookup_ids)

CROSS_MODES = ("per", "agg")


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
        AttentionConfig(self.d_model, self.heads, self.rope_base)  # validates

    @property
    def attention(self):
        return AttentionConfig(self.d_model, self.heads, self.rope_base)

    @property
    def code(self):
        """Ablation code, e.g. "EP-DP-EA-DA-CP"."""
        parts = []
        if self.use_ep:
            parts.append("EP")
        if self.use_dp:
            parts.append("DP")
        if self.use_ea:
            parts.append("EA")
        if self.use_da:
            parts.append("DA")
        parts += ["CP" if m == "per" else "CA" for m in self.cross_modes]
        return "-".join(parts)

    @staticmethod
    def from_code(code, **overrides):
        """Build a config from an ablation code like "EP-DP-EA-CP"."""
        toggles = {"use_ep": False, "use_ea": False, "use_dp": False,
                   "use_da": False}
        cross = []
        for tok in code.split("-"):
            t = tok.strip().upper()
            if t == "EP":
                toggles["use_ep"] = True
            elif t == "EA":
                toggles["use_ea"] = True
            elif t == "DP":
                toggles["use_dp"] = True
            elif t == "DA":
                toggles["use_da"] = True
            elif t == "CP":
                cross.append("per")
            elif t == "CA":
                cross.append("agg")
            else:
                raise ContractError(f"unknown ablation token {tok!r}")
        return ModelConfig(cross_modes=tuple(cross), **toggles, **overrides)

    def to_dict(self):
        return {"d_model": self.d_model, "heads": self.heads,
                "ffn_dim": self.ffn_dim, "enc_layers": self.enc_layers,
                "dec_layers": self.dec_layers, "use_ep": self.use_ep,
                "use_ea": self.use_ea, "use_dp": self.use_dp,
                "use_da": self.use_da, "cross_modes": list(self.cross_modes),
                "cosine_head": self.cosine_head, "dropout": self.dropout,
                "rope_base": self.rope_base}

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
        norm = np.sqrt((xd * xd).sum(axis=-1, keepdims=True) + 1e-12)
        y = xd / norm

        def vjp(g):
            dx = g - y * (g * y).sum(axis=-1, keepdims=True)
            dx /= norm
            return (dx,)

        return y, vjp

    return T.fused(forward, x)


class Norm:
    def __init__(self, prefix, d, eps=1e-5):
        self.gain = T.Parameter(f"{prefix}.gain", np.ones(d))
        self.bias = T.Parameter(f"{prefix}.bias", np.zeros(d))
        self.eps = eps

    def __call__(self, x, y):
        """The norm of the residual sum x + y, one node."""
        return T.add_layer_norm(x, y, self.gain.tensor, self.bias.tensor,
                                self.eps)

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

    def __call__(self, x):
        """relu(x @ w1 + b1) @ w2 + b2 as one node.

        The ReLU runs as tensor.relu under its own vjp (tensor.pullback);
        each weight gradient is one GEMM over every row of x.
        """
        def forward(xd, w1, b1, w2, b2):
            pre = np.matmul(xd, w1)
            pre += b1
            h, relu_back = T.pullback(T.relu, pre)
            out = np.matmul(h, w2)
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


class _TrainCtx:
    """Dropout settings for one forward pass."""

    def __init__(self, rate=0.0, rng=None):
        self.rate = rate
        self.rng = rng


_EVAL = _TrainCtx()


def _residual_norm(H, sub, norm, ctx):
    """norm(x + dropout(sub(x))) on every stored row."""
    return H.with_hidden(norm(H.hidden, T.dropout(sub, ctx.rate, ctx.rng)))


class _Layer:
    """An ordered list of residual-and-norm-wrapped attention sublayers,
    then the feed-forward block.

    subs holds (kind, MultiHeadAttention, Norm) per enabled sublayer, in
    the order they run; the kind ("self", "agg", "cross.per" or
    "cross.agg") is its parameter prefix.  A subclass names its kinds.
    """

    def __init__(self, cfg: ModelConfig, prefix, rng):
        a = cfg.attention
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


class EncoderLayer(_Layer):
    @staticmethod
    def kinds(cfg):
        return ["self"] * cfg.use_ep + ["agg"] * cfg.use_ea

    def __call__(self, H, mask, ctx=_EVAL):
        for kind, mha, norm in self.subs:
            attn = per_stream_attention if kind == "self" \
                else aggregated_attention
            H = _residual_norm(H, attn(mha, H, mask).hidden, norm, ctx)
        return _residual_norm(H, self.ffn(H.hidden), self.ffn_norm, ctx)


class DecoderLayer(_Layer):
    @staticmethod
    def kinds(cfg):
        return (["self"] * cfg.use_dp + ["agg"] * cfg.use_da
                + [f"cross.{mode}" for mode in cfg.cross_modes])

    def __call__(self, H, enc, m_la, m_pad, ctx=_EVAL, caches=None):
        """One decoder layer; with its caches(), H holds one new position."""
        if caches is None:
            caches, start = [None] * len(self.subs), 0
        else:
            start = caches[0].length
        for (kind, mha, norm), cache in zip(self.subs, caches):
            if kind == "self":
                sub = per_stream_attention(mha, H, m_la, cache)
            elif kind == "agg":
                # the look-ahead mask keeps the fused keys causal too
                sub = aggregated_attention(mha, H, m_la, cache)
            else:
                sub = cross_attention(mha, H, enc, _cross_mode(kind), m_pad,
                                      cache, start)
            H = _residual_norm(H, sub.hidden, norm, ctx)
        return _residual_norm(H, self.ffn(H.hidden), self.ffn_norm, ctx)

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
    """One encoded source and the decoder caches of the rows decoding it.

    begin_decode builds it: the encoder runs once, each decoder layer's
    cross-attention keys and values are projected once, and so are the
    output table (normalised for the cosine head) and the step embedding's
    lookup table.  Each step_logits call then feeds one token per row,
    embeds it with one index into that table, and writes that position's
    rotated keys and values into every layer's cache.  The rows share the
    source and the length, so none is padded; beam search keeps its live
    hypotheses as rows and calls select() to re-index the caches by
    parent.

    col_ids  token id behind each logit column
    allowed  columns this source can emit
    lookup   (k, V) embedding row of every token id in each source stream
    own      (k, V) 1.0 where the token id is the stream's own symbol
    layers   per decoder layer, its caches(): one entry per sublayer
    rows, stream_ids, lengths  the StreamBatch fields of the current rows
    """

    def __init__(self, enc, col_ids, allowed, table, layers, lookup, own):
        self.enc = enc
        self.col_ids = col_ids
        self.allowed = allowed
        self.table = table
        self.layers = layers
        self.lookup = lookup
        self.own = own
        self._fit(1)

    def _fit(self, n):
        """Row bookkeeping for n decoded rows, each with the source's
        streams."""
        self.rows = Rows(np.full(n, len(self.lookup)))
        self.stream_ids = np.repeat(self.enc.stream_ids, n, axis=0)
        self.lengths = np.ones(n, dtype=np.int64)

    @property
    def length(self):
        """Positions fed so far, the start marker included: a decoder
        layer's first sublayer is self-attention, so its cache counts."""
        return self.layers[0][0].length

    def embed(self, tgt_inputs, W):
        """StreamBatch of the next token of every row, tgt_inputs (rows, 1):
        each stream row reads its embedding row through the lookup table."""
        tokens = np.asarray(tgt_inputs)
        if tokens.ndim != 2 or tokens.shape[1] != 1:
            raise ContractError("a cached decode step feeds one position")
        tokens = tokens[:, 0]
        if len(tokens) != len(self.lengths):
            raise ContractError(f"{len(tokens)} tokens fed to "
                                f"{len(self.lengths)} decoded rows")
        if tokens.size and (tokens.min() < 0
                            or tokens.max() >= self.lookup.shape[1]):
            raise VocabularyError("decode step fed an out-of-range token id")
        ids = self.lookup[:, tokens].T.reshape(-1, 1)
        return StreamBatch(T.gather_rows(W, ids),
                           self.own[:, tokens].T.reshape(-1, 1), self.rows,
                           self.stream_ids, self.lengths)

    def select(self, rows):
        """Keep the given rows, in order; a row may be repeated.  Each
        owns one cache row per stream of the source."""
        k = len(self.lookup)
        if len(rows) != len(self.lengths):
            self._fit(len(rows))
        rows = (np.asarray(rows)[:, None] * k + np.arange(k)).reshape(-1)
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
        """Logit column index for each target token, given its source.

        Base tokens keep their id; an interchangeable token maps to the
        column of the stream that owns it in this source.
        """
        sids = sequence_stream_ids(src, self.vocab)
        cols = []
        for t in tgt:
            t = int(t)
            if self.vocab.is_inter(t):
                if t not in sids:
                    raise VocabularyError(
                        f"target symbol {t} does not appear in the source")
                cols.append(self.vocab.base_size + sids.index(t))
            else:
                cols.append(t)
        return cols

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
        the one source enc holds, (k, V) each: what _embed gives a token
        at any position of a decoder row."""
        sids = [int(s) for s in enc.stream_ids[0] if s >= 0]
        return stream_lookup_ids(np.arange(self.vocab.total_size),
                                 self.vocab, sids)

    def _project(self, H, W):
        return project(H, W)

    def _columns(self, enc):
        """Token id behind each logit column, and which columns can win."""
        sids = enc.stream_ids[0]
        col_ids = np.concatenate([np.arange(self.vocab.base_size), sids])
        allowed = np.concatenate([np.ones(self.vocab.base_size, dtype=bool),
                                  sids >= 0])
        return col_ids, allowed

    # ----------------------------------------------------------------- forward

    def encode(self, srcs, ctx=_EVAL):
        """Run the encoder stack over a batch of source id sequences."""
        H = self._embed(srcs)
        mask = padding_mask(H.lengths[H.rows.seq], H.length, H.length)
        for layer in self.enc_layers:
            H = layer(H, mask, ctx)
        return H

    def decode_hidden(self, tgt_inputs, enc, ctx=_EVAL, state=None):
        """Run the decoder stack; streams are pinned to the encoder's.

        With a DecodeState, each row of tgt_inputs is the one next token of
        a decoded row, embedded through the state's lookup table: the
        layers read the earlier positions from the state's caches and
        append this one.  The new position may see every cached one and
        the source is unpadded, so nothing is masked.
        """
        if state is None:
            H = self._embed(tgt_inputs, enc)
            m_la = look_ahead_mask(H.lengths[H.rows.seq], H.length)
            m_pad = padding_mask(enc.lengths[H.rows.seq], H.length, enc.length)
            caches = [None] * len(self.dec_layers)
        else:
            H = state.embed(tgt_inputs, self.embedding.tensor)
            m_la = m_pad = None
            caches = state.layers
        for layer, layer_caches in zip(self.dec_layers, caches):
            H = layer(H, enc, m_la, m_pad, ctx, layer_caches)
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

    def forward_batch(self, srcs, tgt_inputs, ctx=_EVAL):
        """Teacher-forced logits (B, Lt, columns) plus the stream ids."""
        enc = self.encode(srcs, ctx)
        dec = self.decode_hidden(tgt_inputs, enc, ctx)
        return self.project_logits(dec), enc.stream_ids

    def forward(self, src, tgt_input):
        """Single-sequence logits (Lt, columns)."""
        logits, _ = self.forward_batch([list(src)], [list(tgt_input)])
        return T.reshape(logits, logits.shape[1:])

    def align_renamed_logits(self, logits, src, renamed_src, f):
        """Permute a renamed run's columns back into the base run's order.

        Stream columns follow their symbol: column for stream s in the base
        run lines up with the renamed run's column for stream f[s].
        """
        sids1 = sequence_stream_ids(src, self.vocab)
        sids2 = sequence_stream_ids(renamed_src, self.vocab)
        if not sids1:
            return logits
        n_base = self.vocab.base_size
        order = [sids2.index(f[s]) for s in sids1]
        return np.concatenate([logits[:, :n_base],
                               logits[:, n_base:][:, order]], axis=1)

    # ----------------------------------------------------------------- decode

    def begin_decode(self, src):
        """Encode src and open a DecodeState for it, with no rows fed yet."""
        with T.no_grad():
            enc = self.encode([list(src)])
            table = self._output_table()
            layers = [layer.caches(enc) for layer in self.dec_layers]
        col_ids, allowed = self._columns(enc)
        return DecodeState(enc, col_ids, allowed, table, layers,
                           *self._step_lookup(enc))

    def step_logits(self, state, tokens):
        """Feed one token per row; returns the next logits, (rows, columns).

        The first step feeds the start marker to the state's one row;
        later steps feed as many rows as the last select() kept.
        """
        with T.no_grad():
            tgt_inputs = np.asarray(tokens, dtype=np.int64)[:, None]
            dec = self.decode_hidden(tgt_inputs, state.enc, state=state)
            return self.project_logits(dec, state.table).data[:, 0]


def _log_softmax_allowed(rows, allowed):
    vals = np.where(allowed, rows, -np.inf)
    m = vals.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(vals - m).sum(axis=-1, keepdims=True))
    return vals - lse


def _tied_inter_argmax(rows, allowed, n_base):
    """Per row, the winning column plus a renaming-sensitivity flag.

    First-maximum tie breaking gives the lowest token id.  The flag marks
    an exact tie between two interchangeable columns, the only place where
    tie breaking could interact with a renaming.
    """
    vals = np.where(allowed, rows, -np.inf)
    best = vals.argmax(axis=-1)
    winners = vals == vals[np.arange(len(vals)), best][:, None]
    return best, winners[:, n_base:].sum(axis=-1) >= 2


def decode_greedy(model, src, max_len=64):
    """Argmax decoding until the end marker or the length bound."""
    if max_len < 1:
        raise ContractError("max_len must be at least 1")
    state = model.begin_decode(src)
    n_base = model.vocab.base_size
    tok = SOS_ID
    tokens = []
    score = 0.0
    tied = False
    for _ in range(max_len):
        rows = model.step_logits(state, [tok])
        best, step_tied = _tied_inter_argmax(rows, state.allowed, n_base)
        best = int(best[0])
        tied = tied or bool(step_tied[0])
        score += float(_log_softmax_allowed(rows, state.allowed)[0, best])
        tok = int(state.col_ids[best])
        if tok == EOS_ID:
            return DecodeResult(tokens, score, False, tied)
        tokens.append(tok)
    return DecodeResult(tokens, score, True, tied)


def decode_beam(model, src, width, max_len=64):
    """Beam search over summed log-probabilities.

    Returns up to `width` hypotheses, best first.  No length normalization,
    so width 1 reproduces greedy decoding exactly.  The live hypotheses are
    the rows of one decode state, advanced by one step_logits call.
    """
    if width < 1:
        raise ContractError("beam width must be at least 1")
    if max_len < 1:
        raise ContractError("max_len must be at least 1")
    state = model.begin_decode(src)
    n_base = model.vocab.base_size
    cols = np.flatnonzero(state.allowed)
    col_tokens = state.col_ids[cols]
    beams = [DecodeResult([], 0.0, False, False)]
    done = []
    for _ in range(max_len):
        rows = model.step_logits(state, [hyp.tokens[-1] if hyp.tokens
                                         else SOS_ID for hyp in beams])
        logp = _log_softmax_allowed(rows, state.allowed)[:, cols]
        _, step_tied = _tied_inter_argmax(rows, state.allowed, n_base)
        cand = (np.array([hyp.score for hyp in beams])[:, None]
                + logp).reshape(-1)
        # candidates in generation order (hypothesis, then column); the
        # stable sort keeps that order among equal scores
        parents, live = [], []
        for i in np.argsort(-cand, kind="stable"):
            r, c = divmod(int(i), len(cols))
            hyp = beams[r]
            tied = bool(hyp.tied or step_tied[r])
            if col_tokens[c] == EOS_ID:
                done.append(DecodeResult(hyp.tokens, float(cand[i]),
                                         False, tied))
                continue
            parents.append(r)
            live.append(DecodeResult(hyp.tokens + [int(col_tokens[c])],
                                     float(cand[i]), False, tied))
            if len(live) >= width:
                break
        beams = live
        done.sort(key=lambda c: -c.score)
        done = done[:width]
        if not beams:
            break
        # log-probs only shrink scores, so a full done set that already
        # beats the best live hypothesis cannot be displaced
        if len(done) >= width and done[-1].score >= beams[0].score:
            break
        state.select(parents)
    for hyp in beams:
        done.append(DecodeResult(hyp.tokens, hyp.score, True, hyp.tied))
    done.sort(key=lambda c: -c.score)
    return done[:width]


def check_invariance(model, src, f, max_len=64):
    """Certify one source against one renaming.

    Decodes both the source and its renamed image, checks that un-renaming
    the second decode reproduces the first token for token, and compares
    teacher-forced logits with the interchangeable columns matched up
    through the renaming.
    """
    if model.cfg.dropout != 0.0:
        raise ContractError("invariance checks require dropout 0")
    src = [int(t) for t in src]
    base = decode_greedy(model, src, max_len)
    renamed_src = f(src)
    ren = decode_greedy(model, renamed_src, max_len)
    finv = f.inverse()
    round_trip = finv(ren.tokens)
    decode_match = round_trip == base.tokens

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
    return InvarianceReport(disc, decode_match, base.tied or ren.tied,
                            base.tokens, round_trip)


class FlatVocabTransformer(Seq2SeqModel):
    """Ordinary transformer baseline: one stream, per-symbol embedding rows.

    Shares the layers, the forward pass and the decode state with the
    stream model but embeds every token by identity, so renamed inputs
    meet different weights and nothing guarantees invariance.  Used as the
    comparison double in evaluations.
    """

    def label_columns(self, src, tgt):
        """Every token keeps its own column in the flat table."""
        return [int(t) for t in tgt]

    @staticmethod
    def _table_rows(vocab):
        return vocab.total_size

    def _embed(self, seqs, enc=None):
        B = len(seqs)
        lengths = np.array([len(s) for s in seqs], dtype=np.int64)
        ids = np.zeros((B, lengths.max()), dtype=np.int64)
        for b, s in enumerate(seqs):
            ids[b, :len(s)] = s
        return StreamBatch(T.gather_rows(self.embedding.tensor, ids),
                           np.zeros(ids.shape), Rows(np.ones(B)),
                           np.full((B, 1), -1, dtype=np.int64), lengths)

    def _step_lookup(self, enc):
        n = self.vocab.total_size
        return np.arange(n)[None], np.zeros((1, n))

    def _project(self, H, W):
        return T.matmul(H.hidden, T.transpose(W, (1, 0)))

    def _columns(self, enc):
        n = self.vocab.total_size
        return np.arange(n), np.ones(n, dtype=bool)

    def align_renamed_logits(self, logits, src, renamed_src, f):
        """One column per token here, so the renaming permutes columns."""
        perm = np.array([f[c] for c in range(self.vocab.total_size)])
        return logits[:, perm]


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
    """Rebuild a model from a checkpoint written by save_model."""
    arrays, meta = T.load_checkpoint(path)
    if meta.get("format") != "streamformer-model v1":
        raise ContractError("checkpoint does not hold a model")
    cls = FlatVocabTransformer if meta.get("kind") == "FlatVocabTransformer" else Seq2SeqModel
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
        own[name].data = arr
    if "adacos" in meta:
        from .training import AdaCosState
        model.adacos = AdaCosState(meta["adacos"]["scale"],
                                   meta["adacos"]["class_count"])
    return model
