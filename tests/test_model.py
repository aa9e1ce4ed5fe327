"""Model-level behavior: toggles, tying, decoding, renaming invariance."""
import itertools
import sys

import numpy as np
import pytest

import streamformer.attention as At
import streamformer.model as M
import streamformer.tensor as T
from streamformer.attention import (FIRST_CAPACITY, KVCache,
                                    aggregated_attention, padding_mask,
                                    per_stream_attention)
from streamformer.errors import ContractError, ResourceError
from streamformer.evaluation import _random_task_input, certify_invariance
from streamformer.logic import gen_prop, task_vocabulary
from streamformer.model import (DecodeResult, EncoderLayer, FlatVocabTransformer,
                                ModelConfig, Seq2SeqModel, check_invariance,
                                decode_beam, decode_greedy, load_model,
                                save_model)
from streamformer.streams import (EOS_ID, RESERVED, SOS_ID, AlphaRenaming,
                                  Grid, Runs, Vocabulary, pack_sequences)
from streamformer.training import TrainConfig, fit, sequence_loss

from helpers import (ablation_code, gradient_check, identity_renaming, mul,
                     tsum, zero_grads)
from oracles import (composed_add_layer_norm, composed_dropout,
                     composed_feed_forward, composed_l2_normalize,
                     composed_sequence_loss)

VOCAB = Vocabulary(RESERVED + ("&", "!"), ("a", "b", "c"))
AMP, BANG = 3, 4
A, B, C = 5, 6, 7

TINY = dict(d_model=8, heads=2, ffn_dim=16, enc_layers=1, dec_layers=1)


def small_model(seed=0, **kw):
    opts = dict(TINY)
    opts.update(kw)
    return Seq2SeqModel(ModelConfig(**opts), VOCAB, seed=seed)


def finite_close(x, y, tol):
    fx, fy = np.isfinite(x), np.isfinite(y)
    assert np.array_equal(fx, fy)
    assert np.max(np.abs(x[fx] - y[fy]), initial=0.0) <= tol


# ----------------------------------------------------------------- config

def test_config_code_round_trip():
    cfg = ModelConfig.from_code("EP-DP-EA-DA-CP")
    assert cfg.use_ep and cfg.use_ea and cfg.use_dp and cfg.use_da
    assert cfg.cross_modes == ("per",)
    assert ablation_code(cfg) == "EP-DP-EA-DA-CP"
    cfg2 = ModelConfig.from_code("EA-DP-CA-CP")
    assert not cfg2.use_ep and not cfg2.use_da
    assert cfg2.cross_modes == ("agg", "per")
    assert ablation_code(cfg2) == "DP-EA-CA-CP"


def test_config_validation():
    with pytest.raises(ContractError):
        ModelConfig(use_ep=False, use_ea=False)
    with pytest.raises(ContractError):
        ModelConfig(use_dp=False, use_da=False)
    with pytest.raises(ContractError):
        ModelConfig(cross_modes=())
    with pytest.raises(ContractError):
        ModelConfig(cross_modes=("per", "per"))
    with pytest.raises(ContractError):
        ModelConfig(cross_modes=("sideways",))
    with pytest.raises(ContractError):
        ModelConfig.from_code("EP-DP-XX-CP")
    with pytest.raises(ContractError):
        ModelConfig(dropout=1.0)
    with pytest.raises(ContractError):
        ModelConfig(enc_layers=0)
    with pytest.raises(ContractError):
        ModelConfig(dec_layers=-1)


def test_config_dict_round_trip():
    cfg = ModelConfig(d_model=32, heads=2, cross_modes=("agg",), cosine_head=False)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


# ----------------------------------------------------------------- parameters

def test_toggles_control_parameter_names():
    full = {p.name for p in small_model(
        cross_modes=("per", "agg")).parameters()}
    lean = {p.name for p in small_model(
        use_ea=False, use_da=False, cross_modes=("per",)).parameters()}
    dropped = full - lean
    assert lean < full
    for name in dropped:
        assert (name.startswith("enc.0.agg") or name.startswith("dec.0.agg")
                or name.startswith("dec.0.cross.agg"))
    # disabling a sublayer removes its norm too
    assert "enc.0.agg.norm.gain" in dropped
    assert "dec.0.cross.agg.norm.bias" in dropped
    assert "enc.0.ffn.w1" in lean   # ffn never toggles


def test_embedding_tied_three_ways():
    m = small_model()
    assert [p.name for p in m.parameters()].count("embed.w") == 1
    # one buffer feeds encoder, decoder and projection: a loss touching
    # only the projection must still move the same tensor the inputs read
    logits, _ = m.forward_batch([[A, AMP, B]], [[SOS_ID, A]])
    loss = tsum(mul(logits, np.isfinite(logits.data).astype(float)))
    T.backward(loss)
    g = m.embedding.grad
    assert g is not None and np.abs(g).sum() > 0
    # rows only the encoder saw (the source-only base symbol) got gradient
    assert np.abs(g[AMP]).sum() > 0


def test_parameter_order_is_pinned():
    # checkpoints and Adam state follow this order, so it must not move
    names = [p.name for p in small_model(
        cross_modes=("per", "agg")).parameters()]
    assert names == [
        "embed.w",
        "enc.0.self.wq", "enc.0.self.wk", "enc.0.self.wv", "enc.0.self.wo",
        "enc.0.self.norm.gain", "enc.0.self.norm.bias",
        "enc.0.agg.wq", "enc.0.agg.wk", "enc.0.agg.wv", "enc.0.agg.wo",
        "enc.0.agg.norm.gain", "enc.0.agg.norm.bias",
        "enc.0.ffn.w1", "enc.0.ffn.b1", "enc.0.ffn.w2", "enc.0.ffn.b2",
        "enc.0.ffn.norm.gain", "enc.0.ffn.norm.bias",
        "dec.0.self.wq", "dec.0.self.wk", "dec.0.self.wv", "dec.0.self.wo",
        "dec.0.self.norm.gain", "dec.0.self.norm.bias",
        "dec.0.agg.wq", "dec.0.agg.wk", "dec.0.agg.wv", "dec.0.agg.wo",
        "dec.0.agg.norm.gain", "dec.0.agg.norm.bias",
        "dec.0.cross.per.wq", "dec.0.cross.per.wk", "dec.0.cross.per.wv",
        "dec.0.cross.per.wo",
        "dec.0.cross.per.norm.gain", "dec.0.cross.per.norm.bias",
        "dec.0.cross.agg.wq", "dec.0.cross.agg.wk", "dec.0.cross.agg.wv",
        "dec.0.cross.agg.wo",
        "dec.0.cross.agg.norm.gain", "dec.0.cross.agg.norm.bias",
        "dec.0.ffn.w1", "dec.0.ffn.b1", "dec.0.ffn.w2", "dec.0.ffn.b2",
        "dec.0.ffn.norm.gain", "dec.0.ffn.norm.bias",
    ]


def test_parameter_names_unique_and_prefixed():
    m = small_model(enc_layers=2, dec_layers=2, cross_modes=("per", "agg"))
    names = [p.name for p in m.parameters()]
    assert len(names) == len(set(names))
    assert "enc.1.self.wq" in names
    assert "dec.1.cross.per.wo" in names
    assert "dec.0.ffn.b2" in names


# ----------------------------------------------------------------- wiring

def test_encoder_layer_wiring_matches_manual_composition():
    cfg = ModelConfig(**TINY)
    rng = np.random.default_rng(3)
    layer = EncoderLayer(cfg, "enc.0", rng)
    m = small_model()
    H = pack_sequences([[A, AMP, B], [B, BANG, B, A]], m.embedding.tensor, VOCAB)
    mask = padding_mask(H.lengths[H.rows.seq], H.length, H.length)
    phase = At.rotation(cfg.attention, np.arange(H.length))

    out = layer(H, mask, phase, None)

    def wrap(Hc, sub, norm):
        return Hc.with_hidden(T.add_layer_norm(
            Hc.hidden, sub, norm.gain.tensor, norm.bias.tensor))

    (_, self_attn, self_norm), (_, agg_attn, agg_norm) = layer.subs
    Hm = H
    s = per_stream_attention(self_attn, Hm, mask, phase)
    Hm = wrap(Hm, s, self_norm)
    s = aggregated_attention(agg_attn, Hm, mask, phase)
    Hm = wrap(Hm, s, agg_norm)
    Hm = wrap(Hm, layer.ffn(Hm.hidden, Hm.grid), layer.ffn_norm)
    assert out.hidden.data.tobytes() == Hm.hidden.data.tobytes()


def test_decoder_is_causal_end_to_end():
    m = small_model(cross_modes=("per", "agg"))
    src = [A, AMP, B]
    tgt1 = [SOS_ID, A, B, A, B]
    tgt2 = [SOS_ID, A, B, C, B]   # position 3 differs
    l1 = m.forward(src, tgt1).data
    l2 = m.forward(src, tgt2).data
    assert l1[:3].tobytes() == l2[:3].tobytes()
    assert np.abs(l1[3:] - l2[3:]).max() > 0


def test_batch_padding_does_not_change_logits():
    m = small_model()
    src, tgt = [A, AMP, B], [SOS_ID, B, A]
    solo = m.forward(src, tgt).data
    batched, _ = m.forward_batch([src, [B, BANG, C, C, A, AMP]],
                                 [tgt, [SOS_ID, C, C, A, B]])
    finite_close(solo, batched.data[0, :3, :solo.shape[1]], 1e-12)


def _summed_loss(m, batch):
    """Logits and the summed token cross-entropy of a teacher-forced batch."""
    logits, _ = m.forward_batch([s for s, _ in batch],
                                [[SOS_ID] + t for _, t in batch])
    cols = np.zeros(logits.shape[:2], dtype=np.int64)
    mask = np.zeros(logits.shape[:2])
    for b, (src, tgt) in enumerate(batch):
        c = m.label_columns(src, tgt + [EOS_ID])
        cols[b, :len(c)] = c
        mask[b, :len(c)] = 1.0
    return logits.data, mul(sequence_loss(logits, cols, mask, 4.0), mask.sum())


@pytest.mark.parametrize("cls, size", [
    (Seq2SeqModel, "tiny"), (FlatVocabTransformer, "tiny"),
    (Seq2SeqModel, "default")],
    ids=["Seq2SeqModel", "FlatVocabTransformer", "Seq2SeqModel-default"])
def test_batch_matches_its_sequences_one_at_a_time(cls, size):
    # 1-, 2-, 3- and 4-stream sources beside one with no symbols, whose one
    # stream is synthetic: batching must not couple the sequences; the
    # default-size case is a 16-pair training batch of lengths 3-10
    vocab = task_vocabulary("prop", 4)
    if size == "tiny":
        texts = [("&a|b!a", "a1b0"), ("a", "a1"), ("&1!0", "1"),
                 ("&|ab^cd", "a1b0c1d1"), ("&a|bc", "b1")]
        opts = TINY
    else:
        texts = gen_prop(3, 4, (3, 10), 16).pairs
        opts = {}
    batch = [(vocab.encode(s), vocab.encode(t)) for s, t in texts]
    m = cls(ModelConfig(cross_modes=("per", "agg"), **opts), vocab, seed=5)
    params = m.parameters()
    zero_grads(params)
    logits, loss = _summed_loss(m, batch)
    T.backward(loss)
    grads = {p.name: p.grad.copy() for p in params}
    summed = {p.name: np.zeros_like(p.data) for p in params}
    for b, (src, tgt) in enumerate(batch):
        zero_grads(params)
        solo, loss = _summed_loss(m, [(src, tgt)])
        T.backward(loss)
        for p in params:
            summed[p.name] += p.grad
        rows, cols = solo.shape[1:]
        finite_close(logits[b, :rows, :cols], solo[0], 1e-12)
        assert np.isneginf(logits[b, :rows, cols:]).all()
    for p in params:
        assert np.max(np.abs(grads[p.name] - summed[p.name])) <= 1e-12, p.name


def test_disabling_sublayer_changes_output():
    full = small_model(seed=5)
    lean = Seq2SeqModel(ModelConfig(use_ea=False, **TINY), VOCAB, seed=5)
    src, tgt = [A, AMP, B], [SOS_ID, A]
    assert np.abs(full.forward(src, tgt).data
                  - lean.forward(src, tgt).data).max() > 1e-8


# ----------------------------------------------------------------- invariance

def test_invariance_random_model_random_renamings():
    rng = np.random.default_rng(11)
    m = small_model(seed=7, cross_modes=("per", "agg"))
    sources = [[A, AMP, B], [C, B, BANG, C, A], [B, B, B],
               [A, C, AMP, C, BANG, A]]
    for src in sources:
        for _ in range(4):
            f = AlphaRenaming.random(VOCAB, rng)
            rep = check_invariance(m, src, f, max_len=8)
            assert rep.max_logit_discrepancy <= 1e-6
            assert rep.decode_match
            assert rep.passed


def test_invariance_without_interchangeable_tokens():
    m = small_model(seed=2)
    f = AlphaRenaming(VOCAB, {A: B, B: A})
    rep = check_invariance(m, [AMP, BANG, AMP], f, max_len=6)
    assert rep.max_logit_discrepancy == 0.0
    assert rep.decode_match


def test_invariance_accepts_a_dropout_model():
    # inference passes no dropout generator, so a model trained with
    # dropout certifies as its dropout-0 twin, whose weights are the same
    vocab = task_vocabulary("prop", 3)
    reps = [certify_invariance(
        Seq2SeqModel(ModelConfig(dropout=rate, **TINY), vocab, seed=4),
        n_trials=6, seed=0, task="prop", max_len=12) for rate in (0.1, 0.0)]
    assert reps[0] == reps[1] and reps[0].passed


def test_cosine_head_off_still_invariant():
    m = small_model(seed=9, cosine_head=False)
    f = AlphaRenaming(VOCAB, {A: C, C: A})
    rep = check_invariance(m, [A, C, AMP, A], f, max_len=8)
    assert rep.passed


def _ragged_renamed_batch(vocab, rng):
    """2-3 sources of 2-6 symbols each, decoder inputs over their
    symbols, the same under one random renaming, and per source the
    order that maps its streams onto the renamed source's."""
    syms, ops = list(vocab.inter_ids()), list(range(3, vocab.base_size))
    f = AlphaRenaming.random(vocab, rng)
    srcs, tgts, orders = [], [], []
    for _ in range(int(rng.integers(2, 4))):
        own = sorted(rng.choice(syms, int(rng.integers(2, 7)), replace=False))
        pool = own + ops
        src = own + [pool[i] for i in rng.integers(0, len(pool),
                                                   rng.integers(0, 6))]
        srcs.append([int(t) for t in rng.permutation(src)])
        tgts.append([SOS_ID] + [int(pool[i]) for i in rng.integers(
            0, len(pool), rng.integers(1, 7))])
        orders.append(np.argsort([f[int(t)] for t in own]))
    return srcs, tgts, [f(s) for s in srcs], [f(t) for t in tgts], orders


@pytest.mark.parametrize("d", [8, 64])
def test_per_stream_path_is_bitwise_permutation_equivariant(d):
    # a renaming only permutes each source's streams, so every per-stream
    # piece permutes its rows bit for bit: the embedding, EP, DP, CP, the
    # feed-forward blocks and norms, l2_normalize, project's own columns
    # and a cached decode step.  The aggregate and project's base columns
    # sum over the streams, whose order then matters; they are left out
    vocab = task_vocabulary("prop", 6)
    m = Seq2SeqModel(ModelConfig(d_model=d, heads=2, ffn_dim=2 * d,
                                 use_ea=False, use_da=False), vocab, seed=d)
    nb = vocab.base_size
    rng = np.random.default_rng(d)
    for _ in range(20):
        srcs, tgts, rsrcs, rtgts, orders = _ragged_renamed_batch(vocab, rng)
        H, Hr = m._embed(srcs), m._embed(rsrcs)
        starts = np.cumsum(H.rows.counts) - H.rows.counts
        rows = np.concatenate([s + o for s, o in zip(starts, orders)])

        def same(grid, x, xr):
            x, xr = grid.scatter(x), grid.scatter(xr)
            assert x[rows].tobytes() == xr.tobytes()

        same(H.grid, H.hidden.data, Hr.hidden.data)
        enc, encr = m.encode(srcs), m.encode(rsrcs)
        same(H.grid, enc.hidden.data, encr.hidden.data)
        dec, decr = m.decode_hidden(tgts, enc), m.decode_hidden(rtgts, encr)
        same(dec.grid, dec.hidden.data, decr.hidden.data)
        same(dec.grid, M.l2_normalize(dec.hidden).data,
             M.l2_normalize(decr.hidden).data)
        own = m.project_logits(dec).data[..., nb:]
        own_r = m.project_logits(decr).data[..., nb:]
        for b, order in enumerate(orders):
            assert (own[b][:, order].tobytes()
                    == own_r[b][:, :len(order)].tobytes())
        steps = []
        for src, tgt in ((srcs[0], tgts[0]), (rsrcs[0], rtgts[0])):
            state = m.begin_decode(src)
            m.step_logits(state, [SOS_ID])
            steps.append(m.step_logits(state, tgt[1:2])[0, nb:])
        assert steps[0][orders[0]].tobytes() == steps[1].tobytes()


# ----------------------------------------------------------------- decoding

def test_greedy_emits_valid_tokens_and_respects_max_len():
    m = small_model(seed=1)
    r = decode_greedy(m, [A, AMP, B], max_len=5)
    assert isinstance(r, DecodeResult)
    assert len(r.tokens) <= 5
    for t in r.tokens:
        assert 0 <= t < VOCAB.total_size
        assert t != EOS_ID
    if len(r.tokens) == 5:
        assert r.truncated
    # only symbols present in the source may be emitted from the streams
    assert C not in r.tokens


def test_greedy_never_emits_absent_interchangeable():
    m = small_model(seed=4)
    for seed in range(6):
        r = decode_greedy(Seq2SeqModel(m.cfg, VOCAB, seed=seed),
                          [B, BANG, B], max_len=6)
        assert A not in r.tokens and C not in r.tokens


@pytest.mark.parametrize("cls", [Seq2SeqModel, FlatVocabTransformer])
def test_width_one_decode_is_the_teacher_forced_argmax(cls):
    # greedy decoding is the width-1 beam, so an oracle stands in for
    # comparing the two: every emitted token, the end marker included, is
    # the argmax of its teacher-forced row over the columns the source
    # can emit, and the score is the summed log-softmax of those tokens
    trained = cls(ModelConfig(**TINY), VOCAB, seed=1)
    fit(trained, [([A, B], [A, B]), ([B, A], [B, A]), ([A, A], [A, A])],
        TrainConfig(steps=80, batch_size=3, learning_rate=3e-3, warmup=10,
                    seed=0, log_every=10 ** 6))
    ended = 0
    for m in (cls(ModelConfig(**TINY), VOCAB, seed=5), trained):
        for src in ([A, B], [B, A], [A, C, AMP], [B, AMP, A, BANG, C],
                    [AMP, BANG]):
            out = decode_greedy(m, src, max_len=6)
            emitted = out.tokens + ([] if out.truncated else [EOS_ID])
            ended += not out.truncated
            forced = m.forward(src, [SOS_ID] + emitted[:-1]).data
            score = 0.0
            for row, col in zip(forced, m.label_columns(src, emitted)):
                allowed = np.flatnonzero(np.isfinite(row))
                assert allowed[np.argmax(row[allowed])] == col
                top = row[allowed].max()
                score += row[col] - top - np.log(
                    np.exp(row[allowed] - top).sum())
            assert abs(out.score - score) <= 1e-9
    assert ended


def test_width_one_decode_never_reindexes_a_cache(monkeypatch):
    # a width-1 beam keeps its one row in place at every step, so no
    # cache is copied, nor are two sources' rows while neither ends; a
    # width-2 beam re-indexes them
    calls = []
    select = KVCache.select
    monkeypatch.setattr(KVCache, "select",
                        lambda self, rows: calls.append(1) or select(self, rows))
    m = small_model(cross_modes=("per", "agg"))
    src = [B, AMP, A, BANG, C]
    out = decode_greedy(m, src, max_len=2 * FIRST_CAPACITY + 2)
    assert out.truncated and calls == []
    pair = M._search(m, [src, [C, AMP, B, BANG, A]], 1, 2 * FIRST_CAPACITY + 2)
    assert [hyps[0].truncated for hyps in pair] == [True, True]
    assert calls == []
    decode_beam(m, src, width=2, max_len=3)
    assert calls


def test_begin_decode_refuses_sources_that_cannot_share_rows():
    # a state takes one or more sources of any length and stream count,
    # one row each; sources that differ in either are accepted and
    # checked against per-call decodes in test_ragged_rows_*
    m = small_model()
    assert m.begin_decode([A, AMP, B], [C, BANG, A]).src_of.tolist() == [0, 1]
    with pytest.raises(ContractError) as err:
        m.begin_decode()
    assert "\n" not in str(err.value)


def _mixed_sources(rng):
    """Sources of mixed length and stream count, grouped by vocabulary:
    60 prop-4 sources in groups of 12, then 10 copying and 10 LTL
    certification inputs, one group each."""
    vocab = task_vocabulary("prop", 4)
    prop = [vocab.encode(s) for s, _ in gen_prop(77, 4, (3, 12), 60).pairs]
    groups = [(vocab, prop[i:i + 12]) for i in range(0, 60, 12)]
    for task in ("copying", "ltl"):
        v = task_vocabulary(task, 3)
        groups.append((v, [_random_task_input(task, v, rng)
                           for _ in range(10)]))
    return groups


def _step_rows_close(m, state, srcs, feeds):
    """Feed feeds[t] (a token per source) to state, whose rows decode
    srcs, and to one state per source: each row's logits are within
    1e-12 of its source's alone, and -inf in the columns past that
    source's own."""
    alone = [m.begin_decode(src) for src in srcs]
    for feed in feeds:
        rows = m.step_logits(state, feed)
        for row, solo, tok in zip(rows, alone, feed):
            want = m.step_logits(solo, [tok])[0]
            assert (row[len(want):] == -np.inf).all()
            finite_close(row[:len(want)], want, 1e-12)
    return rows


def _top_two_margin(m, src, result):
    """The smallest gap between the best two emittable columns over the
    steps of a decode of src, read off its teacher-forced logits."""
    emitted = result.tokens + ([] if result.truncated else [EOS_ID])
    rows = m.forward(src, [SOS_ID] + emitted[:-1]).data
    top2 = np.sort(np.where(np.isfinite(rows), rows, -np.inf), axis=-1)
    return float(np.min(top2[:, -1] - top2[:, -2]))


@pytest.mark.parametrize("cls", [Seq2SeqModel, FlatVocabTransformer])
def test_batched_rows_equal_per_call_decodes(cls):
    # a source and its renamed image decoded as the two rows of one state,
    # as check_invariance does, give each row what decoding it alone
    # gives, score bits included: on 60 prop-4 sources and on copying and
    # LTL certification inputs, each under a random renaming.  A row may
    # differ only where the per-call decode's best two columns lay within
    # 1e-9, and each such row is reported
    rng = np.random.default_rng(0)
    vocab = task_vocabulary("prop", 4)
    cases = [(vocab, vocab.encode(s))
             for s, _ in gen_prop(77, 4, (3, 12), 60).pairs]
    for task in ("copying", "ltl"):
        v = task_vocabulary(task, 3)
        cases += [(v, _random_task_input(task, v, rng)) for _ in range(10)]
    models, near = {}, []
    for vocab, src in cases:
        m = models.setdefault(vocab, cls(ModelConfig(), vocab, seed=2))
        f = AlphaRenaming.random(vocab, rng)
        pair = M._search(m, [src, f(src)], 1, 16)
        for (got,), one in zip(pair, (src, f(src))):
            want = decode_greedy(m, one, 16)
            if (got.tokens, got.score.hex(), got.tied, got.truncated) != (
                    want.tokens, want.score.hex(), want.tied, want.truncated):
                margin = _top_two_margin(m, one, want)
                assert margin < 1e-9, (one, got, want)
                near.append((one, margin))
    print(f"{cls.__name__}: {2 * len(cases)} rows, {len(near)} differ from "
          f"their per-call decode {near}")


@pytest.mark.parametrize("cls", [Seq2SeqModel, FlatVocabTransformer])
def test_ragged_rows_equal_per_call_decodes(cls):
    # sources of mixed length and stream count share one state, padded:
    # each row's tokens, truncation and tie flag are what decoding its
    # source alone gives, its score is within 1e-12, and its step logits
    # are within 1e-12 of the source's alone.  A row may differ only
    # where the per-call decode's best two columns lay within 1e-9, and
    # each such row is reported
    rng = np.random.default_rng(0)
    models, near, rows = {}, [], 0
    for vocab, srcs in _mixed_sources(rng):
        assert len({(len(s), len(set(s) & set(vocab.inter_ids())))
                    for s in srcs}) > 2
        m = models.setdefault(vocab, cls(ModelConfig(), vocab, seed=2))
        wants = [decode_greedy(m, src, 16) for src in srcs]
        for (got,), want, src in zip(M._search(m, srcs, 1, 16), wants, srcs):
            rows += 1
            if (got.tokens, got.tied, got.truncated) != (
                    want.tokens, want.tied, want.truncated):
                margin = _top_two_margin(m, src, want)
                assert margin < 1e-9, (src, got, want)
                near.append((src, margin))
            else:
                assert abs(got.score - want.score) <= 1e-12
        fed = [[SOS_ID] + w.tokens + [EOS_ID] for w in wants]
        _step_rows_close(m, m.begin_decode(*srcs), srcs,
                         [[f[min(t, len(f) - 1)] for f in fed]
                          for t in range(6)])
    print(f"{cls.__name__}: {rows} rows, {len(near)} differ from their "
          f"per-call decode {near}")


@pytest.mark.parametrize("cls", [Seq2SeqModel, FlatVocabTransformer])
def test_ragged_decode_rows_do_not_couple(cls):
    # three unrelated sources of different lengths and stream counts share
    # a decode state and a teacher-forced batch: each one's cached steps
    # and teacher-forced logits agree within 1e-12 with the source's
    # alone, so no step mixes values across the batch
    vocab = task_vocabulary("prop", 4)
    m = cls(ModelConfig(cross_modes=("per", "agg")), vocab, seed=3)
    srcs = [vocab.encode(s) for s in ("&a|b!c", "!d", "|&dca")]
    tgts = [vocab.encode(t) for t in ("a1b0c1", "d0c0a0", "a0c1d1")]
    state = m.begin_decode(*srcs)
    rows = _step_rows_close(m, state, srcs, [
        [tgt[t - 1] if t else SOS_ID for tgt in tgts]
        for t in range(len(tgts[0]) + 1)])
    assert len({row.tobytes() for row in rows}) == 3
    logits, _ = m.forward_batch(srcs, [[SOS_ID] + tgt for tgt in tgts])
    for row, src, tgt in zip(logits.data, srcs, tgts):
        want = m.forward(src, [SOS_ID] + tgt).data
        finite_close(row[:, :want.shape[1]], want, 1e-12)


@pytest.mark.parametrize("code", ["EP-DP-CP", "EP-DP-CA"])
def test_ragged_cached_cross_attention_reads_only_its_source(code):
    # a short source decoded beside longer ones reads its encoder keys
    # under the state's key-padding mask, in either cross mode, so its
    # steps are within 1e-12 of the source decoded alone; the padded key
    # positions hold zeros, which an unmasked query would weigh in
    vocab = task_vocabulary("prop", 4)
    m = Seq2SeqModel(ModelConfig.from_code(code, **TINY), vocab, seed=7)
    srcs = [vocab.encode(s) for s in ("!a", "&a|b!c", "|&dca!b")]
    state = m.begin_decode(*srcs)
    assert state.m_pad.shape == (len(state.rows.seq), 1, 7)
    assert state.m_pad[:, 0].sum(axis=1).tolist() == [2] + [6] * 3 + [7] * 4
    _step_rows_close(m, state, srcs, [[SOS_ID] * 3, vocab.encode("aba"),
                                      vocab.encode("0c1")])
    assert m.begin_decode(srcs[1], srcs[1]).m_pad is None


@pytest.mark.parametrize("cls", [Seq2SeqModel, FlatVocabTransformer])
def test_a_ragged_state_is_never_a_runs_grid(cls):
    # runs keep sources apart only when every source has one length and
    # one stream count; a ragged state runs plain products in its encoder
    # and at every step, also once only equal sources keep rows.  Sources
    # differ in length, then (for the stream model) in stream count
    vocab = task_vocabulary("prop", 4)
    m = cls(ModelConfig(**TINY), vocab, seed=0)
    same = [vocab.encode("&a|b!c"), vocab.encode("&b|c!a")]
    assert isinstance(m.begin_decode(*same).grid, Runs)
    cases = [[vocab.encode("!d")] + same, same + [vocab.encode("&a|b!c|d")]]
    if cls is Seq2SeqModel:
        cases.append(same + [vocab.encode("&a|b!a")])
    for srcs in cases:
        state = m.begin_decode(*srcs)
        assert type(state.enc.grid) is Grid and type(state.grid) is Grid
        m.step_logits(state, [SOS_ID] * 3)
        state.select([1, 2] if len(srcs[0]) == 2 else [0, 1])
        assert type(state.grid) is Grid
        m.step_logits(state, [SOS_ID] * 2)


@pytest.mark.parametrize("cls", [Seq2SeqModel, FlatVocabTransformer])
def test_decode_rows_do_not_couple(cls):
    # two unrelated sources of one length and stream count, with different
    # tokens, share a decode state and a teacher-forced batch: each one's
    # cached steps are bit for bit those of the source alone, and its
    # teacher-forced logits agree within 1e-12, so no step mixes values
    # across the batch
    vocab = task_vocabulary("prop", 4)
    m = cls(ModelConfig(cross_modes=("per", "agg")), vocab, seed=3)
    srcs = [vocab.encode("&a|b!c"), vocab.encode("!d&&ca")]
    tgts = [vocab.encode("a1b0c1"), vocab.encode("d0c0a0")]
    state = m.begin_decode(*srcs)
    alone = [m.begin_decode(src) for src in srcs]
    for t in range(len(tgts[0]) + 1):
        feed = [tgt[t - 1] if t else SOS_ID for tgt in tgts]
        rows = m.step_logits(state, feed)
        assert rows[0].tobytes() != rows[1].tobytes()
        for row, solo, tok in zip(rows, alone, feed):
            assert row.tobytes() == m.step_logits(solo, [tok])[0].tobytes()
    logits, _ = m.forward_batch(srcs, [[SOS_ID] + tgt for tgt in tgts])
    for row, src, tgt in zip(logits.data, srcs, tgts):
        finite_close(row, m.forward(src, [SOS_ID] + tgt).data, 1e-12)


def test_beam_scores_sorted_and_beat_greedy():
    m = small_model(seed=6)
    src = [A, B, AMP, C]
    g = decode_greedy(m, src, max_len=4)
    hyps = decode_beam(m, src, width=4, max_len=4)
    scores = [h.score for h in hyps]
    assert scores == sorted(scores, reverse=True)
    assert len(set(tuple(h.tokens) for h in hyps)) == len(hyps)
    assert scores[0] >= g.score - 1e-12


def _scripted(monkeypatch, m, script):
    """Make m.step_logits return script's entries, one per step (the last
    one from then on): a row, the same for every decoded row, or one row
    per decoded row.  The real step still runs, so the decode state
    advances as it would."""
    steps = []

    def step_logits(state, tokens):
        type(m).step_logits(m, state, tokens)
        rows = np.asarray(script[min(len(steps), len(script) - 1)], float)
        steps.append(list(tokens))
        return np.broadcast_to(rows, (len(tokens), rows.shape[-1])).copy()

    monkeypatch.setattr(m, "step_logits", step_logits)


def _log_softmax_at(row, col, allowed):
    lse = np.log(sum(np.exp(row[c]) for c in range(len(row)) if allowed[c]))
    return row[col] - lse


EOS_ROW = [0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize("decode", ["greedy", "beam"])
@pytest.mark.parametrize("row, token, tied", [
    ([0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 3.0], A, True),    # two symbols tie
    ([0.0, 0.0, 0.0, 3.0, 3.0, 1.0, 2.0], AMP, False),  # two base tokens
    ([0.0, 0.0, 0.0, 3.0, 0.0, 3.0, 1.0], AMP, False),  # base and symbol
    ([0.0, 0.0, 0.0, 1.0, 0.0, 2.0, 3.0], B, False),    # no tie
])
def test_tie_flag_and_score_on_fixed_logits(monkeypatch, decode, row, token,
                                            tied):
    # source [A, AMP, B]: columns are the 5 base ids, then A and B
    m = small_model(seed=0)
    _scripted(monkeypatch, m, [row, EOS_ROW])
    if decode == "greedy":
        r = decode_greedy(m, [A, AMP, B], max_len=5)
    else:
        r = decode_beam(m, [A, AMP, B], width=1, max_len=5)[0]
    allowed = [True] * 7
    col = {A: 5, B: 6}.get(token, token)
    want = _log_softmax_at(row, col, allowed) + _log_softmax_at(
        EOS_ROW, EOS_ID, allowed)
    assert r.tokens == [token] and not r.truncated
    assert r.tied is tied
    assert abs(r.score - want) <= 1e-12


def test_tie_flag_reaches_every_beam_hypothesis(monkeypatch):
    m = small_model(seed=0)
    _scripted(monkeypatch, m, [[0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 3.0], EOS_ROW])
    hyps = decode_beam(m, [A, AMP, B], width=2, max_len=5)
    assert [h.tokens for h in hyps] == [[A], [B]]
    assert all(h.tied for h in hyps)
    assert hyps[0].score == hyps[1].score


def test_a_source_that_ends_leaves_the_state_once(monkeypatch):
    # two sources decoded together: the first ends at the second step, so
    # each self-attention cache is re-indexed once, to the second source's
    # row, which then keeps its place; each source's result is the one a
    # decode of it alone gives under the same logits
    step_row = [0.0, 0.0, 0.0, 2.0, 0.0, 1.0, 3.0]    # B, column 6
    first = [A, AMP, B]
    m = small_model(seed=0, cross_modes=("per", "agg"))
    calls = []
    select = KVCache.select
    monkeypatch.setattr(KVCache, "select",
                        lambda self, rows: calls.append(1) or select(self, rows))
    _scripted(monkeypatch, m, [step_row, [EOS_ROW, step_row], step_row])
    ended, going = M._search(m, [first, [B, AMP, A]], 1, 5)
    assert len(calls) == 2     # the DP and the DA cache of the one layer
    assert ended[0].tokens == [B] and not ended[0].truncated
    assert going[0].tokens == [B] * 5 and going[0].truncated
    _scripted(monkeypatch, m, [step_row, EOS_ROW])
    assert ended == [decode_greedy(m, first, 5)]
    _scripted(monkeypatch, m, [step_row])
    assert going == [decode_greedy(m, [B, AMP, A], 5)]


def test_a_huge_length_bound_costs_only_the_emitted_tokens(monkeypatch):
    # the search grows its token array as it emits, so a length bound far
    # past any array size still decodes until every source has ended
    bound = 10 ** 20
    step_row = [0.0, 0.0, 0.0, 2.0, 0.0, 1.0, 3.0]    # B, column 6
    m = small_model(seed=0)
    _scripted(monkeypatch, m, [step_row, step_row, EOS_ROW])
    g = decode_greedy(m, [A, AMP, B], max_len=bound)
    assert g.tokens == [B, B] and not g.truncated
    _scripted(monkeypatch, m, [step_row, step_row, EOS_ROW])
    hyps = decode_beam(m, [A, AMP, B], width=2, max_len=bound)
    assert hyps[0] == g and not hyps[1].truncated
    _scripted(monkeypatch, m, [EOS_ROW])
    rep = check_invariance(m, [A, AMP, B], AlphaRenaming.random(
        VOCAB, np.random.default_rng(0)), max_len=bound)
    assert rep.decoded == rep.round_trip == [] and rep.passed


def test_score_ignores_disallowed_columns(monkeypatch):
    # a symbol-free source's last column is its synthetic stream: it is
    # never emitted and takes no share of the softmax
    m = small_model(seed=0)
    row = [0.0, 0.5, 0.0, 2.0, 1.0, 50.0]
    eos = [0.0, 0.0, 4.0, 0.0, 0.0, 50.0]
    allowed = [True] * 5 + [False]
    want = _log_softmax_at(row, AMP, allowed) + _log_softmax_at(
        eos, EOS_ID, allowed)
    _scripted(monkeypatch, m, [row, eos])
    g = decode_greedy(m, [AMP, BANG], max_len=5)
    _scripted(monkeypatch, m, [row, eos])
    b = decode_beam(m, [AMP, BANG], width=1, max_len=5)[0]
    assert g.tokens == b.tokens == [AMP] and not g.tied and not b.tied
    assert abs(g.score - want) <= 1e-12 and b.score == g.score


def test_a_wide_beam_walk_stops_at_the_first_disallowed_column(monkeypatch):
    # a symbol-free source can emit four columns that do not end (0, 1, 3
    # and 4) but not its synthetic one, -1: a width-6 beam keeps exactly
    # those four as live rows, ends one hypothesis, and never emits -1;
    # a renaming leaves the source and its logits as they are
    m = small_model()
    fed, step = [], type(m).step_logits
    monkeypatch.setattr(m, "step_logits", lambda state, tokens: fed.append(
        list(tokens)) or step(m, state, tokens))
    hyps = decode_beam(m, [AMP, BANG], width=6, max_len=1)
    assert [(h.tokens, h.truncated) for h in hyps] == [
        ([1], True), ([4], True), ([], False), ([0], True), ([3], True)]
    fed.clear()
    hyps = decode_beam(m, [AMP, BANG], width=6, max_len=3)
    assert fed[1] == [1, 4, 0, 3]
    assert [(h.tokens, h.truncated) for h in hyps] == [
        ([], False), ([1], False), ([1, 1, 1], True), ([4, 4, 4], True),
        ([1, 4, 4], True), ([1, 1, 4], True)]
    rng = np.random.default_rng(0)
    for _ in range(3):
        rep = check_invariance(m, [AMP, BANG],
                               AlphaRenaming.random(VOCAB, rng), max_len=4)
        assert rep.max_logit_discrepancy == 0.0 and rep.decode_match


def test_unpadded_batches_and_decode_steps_carry_no_grid_index():
    # a batch whose rows all fill the grid is the cells reshaped: no index,
    # so a one-source encode and every cached decode step stay dense
    m = small_model(cross_modes=("per", "agg"))
    full = m.encode([[A, AMP, B], [B, BANG, C]])
    assert full.grid.index is None and full.hidden.shape == (4 * 3, 8)
    assert m.encode([[A, AMP, B], [B, C]]).grid.index is not None
    state = m.begin_decode([B, AMP, A, BANG, C])
    assert state.enc.grid.index is None
    m.step_logits(state, [SOS_ID])
    state.select([0, 0])
    step = state.embed(np.array([[A], [B]]))
    assert step.grid.index is None and step.hidden.shape == (2 * 3, 8)


def test_cached_step_tensor_budget(monkeypatch):
    # default config, a 3-stream source: a cached step built 43 Tensors
    # before the query projection joined attend and the aggregated keys
    # went into their caches without a gather node, and 33 before the
    # state held the step's tables and DP and DA became one node each;
    # it builds 25 now
    vocab = task_vocabulary("prop", 3)
    m = Seq2SeqModel(ModelConfig(), vocab, seed=0)
    state = m.begin_decode(vocab.encode("&a|b!c"))
    m.step_logits(state, [SOS_ID])
    built = []
    init = T.Tensor.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(T.Tensor, "__init__", counting)
    m.step_logits(state, vocab.encode("a"))
    assert len(built) <= 25


@pytest.mark.parametrize("cls, calls, c_calls", [
    (Seq2SeqModel, 202, 150), (FlatVocabTransformer, 197, 130)])
def test_cached_step_call_budget(cls, calls, c_calls):
    # default config, a 3-stream source: before the state held the step's
    # constants, a cached step made 266 Python and 198 C calls (stream
    # model) and 258 and 168 (flat); with them, 227 and 149, and 222 and
    # 129.  Since the attention sublayers hand back their output Tensor,
    # not a batch, and the cross-attention caches hold Tensors, it makes
    # 197 and 145, and 192 and 125.  The budget adds a margin of 5, so the
    # per-step work cannot quietly grow back
    vocab = task_vocabulary("prop", 3)
    m = cls(ModelConfig(), vocab, seed=0)
    state = m.begin_decode(vocab.encode("&a|b!c"))
    m.step_logits(state, [SOS_ID])
    events = {"call": 0, "c_call": 0}

    def count(frame, event, arg):
        if event in events:
            events[event] += 1

    sys.setprofile(count)
    try:
        m.step_logits(state, vocab.encode("a"))
    finally:
        sys.setprofile(None)
    assert events["call"] <= calls and events["c_call"] <= c_calls, events


def test_cache_budget_refuses_a_chunk_of_trials_as_its_widest_trial_alone(
        monkeypatch):
    # the budget bounds what one decoded row's caches hold, so a chunk of
    # trials certified in one search is refused exactly where its widest
    # trial is refused alone, however many trials share the search.  A
    # fresh model does not end these sources, so every row feeds all 12
    # positions and its caches grow once, from 8 positions to 16: a row
    # of k streams then holds k * 16 positions of one key and one value
    # per self-attention sublayer
    vocab = task_vocabulary("copying", 3)
    cfg = ModelConfig(**TINY)
    m = Seq2SeqModel(cfg, vocab, seed=0)
    rng = np.random.default_rng(0)
    trials = [(_random_task_input("copying", vocab, rng),
               AlphaRenaming.random(vocab, rng)) for _ in range(16)]
    widest = max(trials, key=lambda trial: len(set(trial[0])))
    per_stream = (cfg.dec_layers * (cfg.use_dp + cfg.use_da)
                  * 2 * 16 * cfg.d_model * 8)
    budget = len(set(widest[0])) * per_stream
    monkeypatch.setattr(M, "CACHE_BYTES", budget)
    assert len(M.check_trials(m, trials, 12)) == 16
    monkeypatch.setattr(M, "CACHE_BYTES", budget - 1)
    for chunk in (trials, [widest]):
        with pytest.raises(ResourceError, match="per decoded row"):
            M.check_trials(m, chunk, 12)


def ablation_configs():
    """All 27 sublayer ablations: encoder, decoder and cross choices."""
    enc = ("EP", "EA", "EP-EA")
    dec = ("DP", "DA", "DP-DA")
    cross = ("CP", "CA", "CP-CA")
    return [ModelConfig.from_code(f"{e}-{d}-{c}", **TINY)
            for e, d, c in itertools.product(enc, dec, cross)]


@pytest.mark.parametrize("cls", [Seq2SeqModel, FlatVocabTransformer])
def test_cached_steps_match_teacher_forcing_for_every_ablation(cls):
    src, tgt = [A, AMP, C, BANG, A], [C, AMP, A, A, BANG]
    configs = ablation_configs()
    assert len({ablation_code(cfg) for cfg in configs}) == 27
    for cfg in configs:
        m = cls(cfg, VOCAB, seed=3)
        forced = m.forward(src, [SOS_ID] + tgt).data
        state = m.begin_decode(src)
        for t, tok in enumerate([SOS_ID] + tgt):
            rows = m.step_logits(state, [tok])
            assert rows.shape == (1, forced.shape[1])
            finite_close(rows[0], forced[t], 1e-12)
        assert state.length == len(tgt) + 1


@pytest.mark.parametrize("cls", [Seq2SeqModel, FlatVocabTransformer])
def test_cached_rows_follow_their_parents_after_select(cls):
    m = cls(ModelConfig(cross_modes=("per", "agg"), **TINY), VOCAB, seed=4)
    src = [B, AMP, A, BANG, C]
    state = m.begin_decode(src)
    m.step_logits(state, [SOS_ID])
    state.select([0, 0, 0])
    m.step_logits(state, [A, B, C])
    # row 2 is picked twice and row 1 dropped
    state.select([2, 0, 2])
    rows = m.step_logits(state, [AMP, A, BANG])
    for row, prefix in zip(rows, ([C, AMP], [A, A], [C, BANG])):
        forced = m.forward(src, [SOS_ID] + prefix).data
        finite_close(row, forced[-1], 1e-12)


@pytest.mark.parametrize("cls", [Seq2SeqModel, FlatVocabTransformer])
def test_select_keeps_only_rows_the_state_holds(cls):
    # before the first step the self-attention caches hold nothing, so two
    # start rows step exactly as the one row would; an empty selection or
    # a row outside the current ones is refused
    m = cls(ModelConfig(cross_modes=("per", "agg"), **TINY), VOCAB, seed=4)
    src = [B, AMP, A, BANG, C]
    state = m.begin_decode(src)
    one = m.step_logits(state, [SOS_ID])
    pair = m.begin_decode(src)
    pair.select([0, 0])
    two = m.step_logits(pair, [SOS_ID, SOS_ID])
    assert two[0].tobytes() == two[1].tobytes()
    # the flat projection scores one row as a GEMV and two as a GEMM
    finite_close(two[0], one[0], 0.0 if cls is Seq2SeqModel else 1e-15)
    for rows in ([], [5], [-1], [0, 1]):
        with pytest.raises(ContractError):
            state.select(rows)
    assert m.step_logits(state, [A]).shape == one.shape


def test_one_rotary_table_per_pass(monkeypatch):
    # the encoder and the decoder each look one table up and share it
    # with every layer; cross_kv adds one per cross sublayer for the
    # encoder positions, and a cached step needs only its own position's
    vocab = task_vocabulary("prop", 4)
    m = Seq2SeqModel(ModelConfig(), vocab, seed=0)
    calls = []
    for module in (At, M):
        real = module.rotation
        monkeypatch.setattr(module, "rotation", lambda cfg, pos, real=real:
                            calls.append(1) or real(cfg, pos))
    srcs = [vocab.encode("&a|b!c"), vocab.encode("|ad")]
    m.forward_batch(srcs, [[SOS_ID] + s for s in srcs])
    assert len(calls) == 4
    del calls[:]
    state = m.begin_decode(srcs[0])
    assert len(calls) == 3
    for tok in (SOS_ID, vocab.encode("a")[0]):
        del calls[:]
        m.step_logits(state, [tok])
        assert len(calls) == 1


def test_beam_rejects_zero_width():
    with pytest.raises(ContractError):
        decode_beam(small_model(), [A], width=0)


@pytest.mark.parametrize("cls", [Seq2SeqModel, FlatVocabTransformer])
@pytest.mark.parametrize("width", [1, 3])
def test_cached_steps_match_teacher_forcing_across_cache_growth(cls, width):
    # every cache grows twice (to 4x its first capacity); with three rows,
    # select() re-indexes them between and right after the growths
    m = cls(ModelConfig(cross_modes=("per", "agg"), **TINY), VOCAB, seed=6)
    src = [B, AMP, A, BANG, C]
    rng = np.random.default_rng(width)
    state = m.begin_decode(src)
    m.step_logits(state, [SOS_ID])
    state.select([0] * width)
    prefixes = [[SOS_ID]] * width
    for t in range(2 * FIRST_CAPACITY + 4):
        if width > 1 and t % 3 == 2:
            parents = rng.integers(0, width, width)
            state.select(parents)
            prefixes = [prefixes[p] for p in parents]
        toks = rng.choice([A, B, C, AMP, BANG], width)
        prefixes = [p + [int(x)] for p, x in zip(prefixes, toks)]
        rows = m.step_logits(state, toks)
        for row, prefix in zip(rows, prefixes):
            finite_close(row, m.forward(src, prefix).data[-1], 1e-12)
    caches = state.layers[0][:2]    # DP and DA; the cross entries follow
    assert [c.k.shape[-2] for c in caches] == [4 * FIRST_CAPACITY] * 2
    assert state.length == 2 * FIRST_CAPACITY + 5


def test_greedy_decode_packs_only_its_source(monkeypatch):
    # each step reads its cells off the state's step tables, not by packing
    calls = []
    pack = M.pack_sequences

    def counting(seqs, *args, **kwargs):
        calls.append([list(s) for s in seqs])
        return pack(seqs, *args, **kwargs)

    monkeypatch.setattr(M, "pack_sequences", counting)
    m = small_model(seed=1)
    steps = []
    step = m.step_logits
    monkeypatch.setattr(m, "step_logits",
                        lambda *a: steps.append(1) or step(*a))
    out = decode_greedy(m, [B, AMP, A, BANG, C], max_len=20)
    assert out.truncated and len(steps) == 20
    assert calls == [[[B, AMP, A, BANG, C]]]


@pytest.mark.parametrize("node", [
    "add_layer_norm", "ffn", "l2_normalize", "sequence_loss-1.0",
    "sequence_loss-7.3", "dropout"])
def test_fused_nodes_match_elementary_composition(node):
    # the loss and dropout keep the composition's arithmetic order, so they
    # match it bit for bit; the loss's logits hold -inf columns and a
    # fully -inf row, and its mask drops positions
    d, f = 6, 10
    rng = np.random.default_rng(len(node))
    x, y = (T.Parameter(n, rng.normal(size=(3, 4, d))) for n in "xy")
    exact = node.startswith("sequence_loss") or node == "dropout"
    if node == "add_layer_norm":
        norm = M.Norm("n", d)
        leaves = [x, y, norm.gain, norm.bias]
        fused = lambda x, y, *_: norm(x, y)    # noqa: E731
        composed = composed_add_layer_norm
    elif node == "ffn":
        ffn = M.FeedForward("ffn", d, f, rng)
        leaves = [x] + ffn.parameters()
        fused = lambda x, *_: ffn(x, Grid(x.shape[:-1]))    # noqa: E731
        composed = composed_feed_forward
    elif node == "l2_normalize":
        leaves, fused, composed = [x], M.l2_normalize, composed_l2_normalize
    elif node == "dropout":
        leaves = [x]
        fused = lambda x: T.dropout(x, 0.3, np.random.default_rng(5))  # noqa: E731
        composed = lambda x: composed_dropout(    # noqa: E731
            x, 0.3, np.random.default_rng(5))
    else:
        scale = float(node.split("-")[1])
        x.data[..., 4:] = -np.inf
        x.data[1, 2, 1:] = -np.inf
        labels = rng.integers(0, 4, size=(3, 4))
        labels[1, 2] = 0
        mask = (rng.random((3, 4)) < 0.7).astype(float)
        mask[1, 2] = 0.0
        leaves = [x]
        fused = lambda x: sequence_loss(x, labels, mask, scale)    # noqa: E731
        composed = lambda x: composed_sequence_loss(    # noqa: E731
            x, labels, mask, scale)
    for p in leaves[1:]:
        p.data = rng.normal(size=p.data.shape)
    results = []
    for fn in (fused, composed):
        zero_grads(leaves)
        out = fn(*(p.tensor for p in leaves))
        up = np.random.default_rng(0).normal(size=out.shape)
        T.backward(tsum(mul(out, up)))
        results.append((out, [p.grad.copy() for p in leaves]))
    (out, grads), (want, want_grads) = results
    assert out.parents == tuple(p.tensor for p in leaves)   # one node
    if exact:
        assert out.data.tobytes() == want.data.tobytes()
    else:
        assert np.max(np.abs(out.data - want.data)) <= 1e-12
    for p, g, w in zip(leaves, grads, want_grads):
        if exact:
            assert g.tobytes() == w.tobytes(), p.name
        else:
            assert np.max(np.abs(g - w)) <= 1e-12, p.name


# ----------------------------------------------------------------- gradients

def test_gradient_check_full_stack():
    cfg = ModelConfig(d_model=6, heads=1, ffn_dim=8, enc_layers=1,
                      dec_layers=1, cross_modes=("per", "agg"))
    m = Seq2SeqModel(cfg, VOCAB, seed=13)
    src, tgt = [A, AMP, B], [SOS_ID, B, A]
    pick = np.random.default_rng(0).standard_normal((4, VOCAB.base_size + 2))

    def loss_fn():
        logits = m.forward(src, tgt + [EOS_ID])
        keep = np.isfinite(logits.data)
        return tsum(mul(mul(logits, keep.astype(float)), pick))

    errs = gradient_check(m.parameters(), loss_fn)
    worst = max(errs.values())
    assert worst <= 1e-4, f"worst relative gradient error {worst}"


# ----------------------------------------------------------------- baseline

def test_flat_baseline_forward_and_decode():
    m = FlatVocabTransformer(ModelConfig(**TINY), VOCAB, seed=0)
    logits, _ = m.forward_batch([[A, AMP, B]], [[SOS_ID, A]])
    assert logits.data.shape == (1, 2, VOCAB.total_size)
    r = decode_greedy(m, [A, AMP, B], max_len=5)
    assert all(0 <= t < VOCAB.total_size for t in r.tokens)
    hyps = decode_beam(m, [A, AMP, B], width=2, max_len=4)
    assert len(hyps) <= 2


def test_flat_baseline_is_renaming_sensitive():
    # not a theorem for every seed, so take the first seed that shows it;
    # the point is the test double CAN differ where the stream model cannot
    f = AlphaRenaming(VOCAB, {A: B, B: A})
    for seed in range(10):
        m = FlatVocabTransformer(ModelConfig(**TINY), VOCAB, seed=seed)
        l1 = m.forward_batch([[A, AMP, B]], [[SOS_ID, A]])[0].data
        l2 = m.forward_batch([[B, AMP, A]], [[SOS_ID, B]])[0].data
        swap = l2.copy()
        swap[..., A], swap[..., B] = l2[..., B], l2[..., A]
        if np.abs(l1 - swap).max() > 1e-6:
            return
    pytest.fail("flat baseline never broke symmetry across 10 seeds")


@pytest.mark.parametrize("cls", [Seq2SeqModel, FlatVocabTransformer])
def test_column_table_follows_stream_order(cls):
    # sources with 0 to 4 symbols, many first met out of id order: labels,
    # decode columns and renamed-run alignment all read the one table, and
    # the stream model's table lists streams as the encoder packs them
    vocab = task_vocabulary("prop", 4)
    pairs = [(vocab.encode(s), vocab.encode(t))
             for s, t in gen_prop(4, 4, (3, 12), 40).pairs + [("!1", "0")]]
    assert {len(set(src) & set(vocab.inter_ids()))
            for src, _ in pairs} == {0, 1, 2, 3, 4}
    m = cls(ModelConfig(**TINY), vocab, seed=1)
    identity = identity_renaming(vocab)
    for src, tgt in pairs:
        col_ids = m._col_ids(src)
        for t in tgt + [EOS_ID]:
            assert col_ids[m.label_columns(src, [t])[0]] == t
        assert m.begin_decode(src).col_ids.tolist() == [col_ids]
        if cls is Seq2SeqModel:
            assert (col_ids[vocab.base_size:]
                    == m.encode([src]).stream_ids[0].tolist())
        logits = m.forward(src, [SOS_ID] + tgt).data
        aligned = m.align_renamed_logits(logits, src, src, identity)
        assert aligned.tobytes() == logits.tobytes()


# ----------------------------------------------------------------- persistence

def test_save_load_round_trip(tmp_path):
    m = small_model(seed=21, cross_modes=("per", "agg"))
    p = tmp_path / "model.ckpt"
    save_model(m, p)
    m2 = load_model(p)
    assert m2.cfg == m.cfg
    assert m2.vocab == m.vocab
    src, tgt = [A, C, AMP], [SOS_ID, C]
    assert (m.forward(src, tgt).data.tobytes()
            == m2.forward(src, tgt).data.tobytes())
    save_model(m2, tmp_path / "again.ckpt")
    assert (p.read_bytes() == (tmp_path / "again.ckpt").read_bytes())


def test_load_rejects_foreign_checkpoint(tmp_path):
    p = tmp_path / "x.ckpt"
    T.save_checkpoint(p, {"a": np.zeros(3)}, {"format": "other"})
    with pytest.raises(ContractError):
        load_model(p)
    # a model checkpoint whose metadata lacks the config
    T.save_checkpoint(p, {"a": np.zeros(3)},
                      {"format": "streamformer-model v1"})
    with pytest.raises(ContractError):
        load_model(p)
    # a layer count that is not an integer
    cfg = dict(ModelConfig(**TINY).to_dict(), enc_layers=1.0)
    T.save_checkpoint(p, {"a": np.zeros(3)},
                      {"format": "streamformer-model v1", "config": cfg,
                       "vocab": {"base": list(VOCAB.base_tokens),
                                 "inter": list(VOCAB.inter_tokens)}})
    with pytest.raises(ContractError):
        load_model(p)
    # a flat model's checkpoint under a misspelt kind: at 2 symbols its
    # parameters have the stream model's names and shapes
    save_model(FlatVocabTransformer(ModelConfig(**TINY),
                                    task_vocabulary("prop", 2)), p)
    arrays, meta = T.load_checkpoint(p)
    T.save_checkpoint(p, arrays, dict(meta, kind="FlatVocabTransformr"))
    with pytest.raises(ContractError):
        load_model(p)
