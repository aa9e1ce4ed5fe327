"""Model-level behavior: toggles, tying, decoding, renaming invariance."""
import itertools

import numpy as np
import pytest

import streamformer.model as M
import streamformer.tensor as T
from streamformer.attention import (FIRST_CAPACITY, aggregated_attention,
                                    padding_mask,
                                    per_stream_attention)
from streamformer.errors import ContractError
from streamformer.logic import task_vocabulary
from streamformer.model import (DecodeResult, EncoderLayer, FlatVocabTransformer,
                                ModelConfig, Seq2SeqModel, check_invariance,
                                decode_beam, decode_greedy, load_model,
                                save_model)
from streamformer.streams import (EOS_ID, RESERVED, SOS_ID, AlphaRenaming,
                                  Vocabulary, pack_sequences)
from streamformer.training import sequence_loss

from helpers import gradient_check, zero_grads
from oracles import (composed_add_layer_norm, composed_feed_forward,
                     composed_l2_normalize)

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
    assert cfg.code == "EP-DP-EA-DA-CP"
    cfg2 = ModelConfig.from_code("EA-DP-CA-CP")
    assert not cfg2.use_ep and not cfg2.use_da
    assert cfg2.cross_modes == ("agg", "per")
    assert cfg2.code == "DP-EA-CA-CP"


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
    loss = T.tsum(T.mul(logits, np.isfinite(logits.data).astype(float)))
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

    out = layer(H, mask)

    def wrap(Hc, sub, norm):
        return Hc.with_hidden(T.add_layer_norm(
            Hc.hidden, sub, norm.gain.tensor, norm.bias.tensor, norm.eps))

    (_, self_attn, self_norm), (_, agg_attn, agg_norm) = layer.subs
    Hm = H
    s = per_stream_attention(self_attn, Hm, mask)
    Hm = wrap(Hm, s.hidden, self_norm)
    s = aggregated_attention(agg_attn, Hm, mask)
    Hm = wrap(Hm, s.hidden, agg_norm)
    Hm = wrap(Hm, layer.ffn(Hm.hidden), layer.ffn_norm)
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
    return logits.data, T.mul(sequence_loss(logits, cols, mask, 4.0), mask.sum())


@pytest.mark.parametrize("cls", [Seq2SeqModel, FlatVocabTransformer])
def test_batch_matches_its_sequences_one_at_a_time(cls):
    # 1-, 2-, 3- and 4-stream sources beside one with no symbols, whose one
    # stream is synthetic: batching must not couple the sequences
    vocab = task_vocabulary("prop", 4)
    texts = [("&a|b!a", "a1b0"), ("a", "a1"), ("&1!0", "1"),
             ("&|ab^cd", "a1b0c1d1"), ("&a|bc", "b1")]
    batch = [(vocab.encode(s), vocab.encode(t)) for s, t in texts]
    m = cls(ModelConfig(cross_modes=("per", "agg"), **TINY), vocab, seed=5)
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


def test_invariance_refuses_dropout():
    m = small_model(dropout=0.5)
    with pytest.raises(ContractError):
        check_invariance(m, [A, B], AlphaRenaming.identity(VOCAB))


def test_cosine_head_off_still_invariant():
    m = small_model(seed=9, cosine_head=False)
    f = AlphaRenaming(VOCAB, {A: C, C: A})
    rep = check_invariance(m, [A, C, AMP, A], f, max_len=8)
    assert rep.passed


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


def test_beam_width_one_matches_greedy():
    for seed in (0, 3, 8):
        m = small_model(seed=seed)
        g = decode_greedy(m, [A, C, AMP], max_len=6)
        b = decode_beam(m, [A, C, AMP], width=1, max_len=6)
        assert len(b) == 1
        assert b[0].tokens == g.tokens
        assert abs(b[0].score - g.score) <= 1e-12
        assert b[0].truncated == g.truncated


def test_beam_scores_sorted_and_beat_greedy():
    m = small_model(seed=6)
    src = [A, B, AMP, C]
    g = decode_greedy(m, src, max_len=4)
    hyps = decode_beam(m, src, width=4, max_len=4)
    scores = [h.score for h in hyps]
    assert scores == sorted(scores, reverse=True)
    assert len(set(tuple(h.tokens) for h in hyps)) == len(hyps)
    assert scores[0] >= g.score - 1e-12


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
    assert len({cfg.code for cfg in configs}) == 27
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
    # each step embeds through the state's lookup table, not by packing
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


@pytest.mark.parametrize("node", ["add_layer_norm", "ffn", "l2_normalize"])
def test_fused_nodes_match_elementary_composition(node):
    d, f = 6, 10
    rng = np.random.default_rng(len(node))
    x, y = (T.Parameter(n, rng.normal(size=(3, 4, d))) for n in "xy")
    if node == "add_layer_norm":
        norm = M.Norm("n", d)
        leaves = [x, y, norm.gain, norm.bias]
        fused = lambda x, y, *_: norm(x, y)    # noqa: E731
        composed = composed_add_layer_norm
    elif node == "ffn":
        ffn = M.FeedForward("ffn", d, f, rng)
        leaves = [x] + ffn.parameters()
        fused = lambda x, *_: ffn(x)    # noqa: E731
        composed = composed_feed_forward
    else:
        leaves, fused, composed = [x], M.l2_normalize, composed_l2_normalize
    for p in leaves[1:]:
        p.data = rng.normal(size=p.data.shape)
    results = []
    for fn in (fused, composed):
        zero_grads(leaves)
        out = fn(*(p.tensor for p in leaves))
        up = np.random.default_rng(0).normal(size=out.shape)
        T.backward(T.tsum(T.mul(out, up)))
        results.append((out, [p.grad.copy() for p in leaves]))
    (out, grads), (want, want_grads) = results
    assert out.parents == tuple(p.tensor for p in leaves)   # one node
    assert np.max(np.abs(out.data - want.data)) <= 1e-12
    for p, g, w in zip(leaves, grads, want_grads):
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
        return T.tsum(T.mul(T.mul(logits, keep.astype(float)), pick))

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
