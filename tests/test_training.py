"""Trainer behavior checked against scalar re-computations."""
import math

import numpy as np
import pytest

import streamformer.tensor as T
from streamformer.errors import ContractError, VocabularyError
from streamformer.model import ModelConfig, Seq2SeqModel, decode_greedy, load_model
from streamformer.streams import EOS_ID, RESERVED, Vocabulary
from streamformer.training import (Adam, AdaCosState, TrainConfig,
                                   adacos_update, fit, sequence_loss,
                                   train_step)

from helpers import index

VOCAB = Vocabulary(RESERVED + ("&",), ("a", "b", "c"))
AMP = 3
A, B, C = 4, 5, 6

TINY = dict(d_model=16, heads=2, ffn_dim=32, enc_layers=1, dec_layers=1)


def test_initial_scale_formula():
    st = AdaCosState.initial(8)
    assert abs(st.scale - math.sqrt(2.0) * math.log(7.0)) < 1e-12
    assert AdaCosState.initial(10 ** 20).scale == 64.0
    with pytest.raises(ContractError):
        AdaCosState.initial(1)


def test_adacos_update_matches_scalar_recomputation():
    rng = np.random.default_rng(0)
    cos = rng.uniform(-1, 1, size=(2, 3, 5))
    cos[1, 2, 4] = -np.inf          # a dead column must contribute nothing
    labels = rng.integers(0, 4, size=(2, 3))
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    st = adacos_update(AdaCosState.initial(5), cos, labels, mask)

    s_old = AdaCosState.initial(5).scale
    sums, angles = [], []
    for b in range(2):
        for t in range(3):
            if mask[b, t] == 0:
                continue
            y = labels[b, t]
            tot = 0.0
            for j in range(5):
                if j != y and np.isfinite(cos[b, t, j]):
                    tot += math.exp(s_old * cos[b, t, j])
            sums.append(tot)
            angles.append(math.acos(max(-1.0, min(1.0, cos[b, t, y]))))
    expect = math.log(np.mean(sums)) / math.cos(min(math.pi / 4, np.median(angles)))
    expect = min(64.0, max(1.0, expect))
    assert abs(st.scale - expect) < 1e-12


def test_adacos_clamps_and_keeps_state_on_empty_mask():
    st0 = AdaCosState(5.0, 4)
    cos = np.full((1, 2, 4), 0.999)
    labels = np.zeros((1, 2), dtype=np.int64)
    st = adacos_update(st0, cos, labels, np.zeros((1, 2)))
    assert st is st0
    # all classes nearly collapsed: log of tiny sum would go negative
    tight = np.full((1, 1, 4), -1.0)
    tight[0, 0, 0] = 1.0
    st = adacos_update(st0, tight, labels[:, :1], np.ones((1, 1)))
    assert 1.0 <= st.scale <= 64.0


def test_sequence_loss_matches_scalar_cross_entropy():
    rng = np.random.default_rng(3)
    raw = rng.normal(size=(2, 3, 4))
    raw[0, :, 3] = -np.inf
    labels = np.array([[2, 0, 1], [3, 3, 0]])
    mask = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
    scale = 7.5
    loss = sequence_loss(T.Tensor(raw), labels, mask, scale)

    vals = []
    for b in range(2):
        for t in range(3):
            if mask[b, t] == 0:
                continue
            z = scale * raw[b, t]
            finite = z[np.isfinite(z)]
            lse = math.log(sum(math.exp(v - finite.max()) for v in finite)) + finite.max()
            vals.append(lse - z[labels[b, t]])
    assert abs(float(loss.data) - np.mean(vals)) < 1e-10


def test_sequence_loss_gradient_is_softmax_minus_onehot():
    raw = np.array([[[0.3, -0.2, 0.9, -np.inf]]])
    p = T.Parameter("z", raw)
    labels = np.array([[2]])
    loss = sequence_loss(p.tensor, labels, np.ones((1, 1)), 2.0)
    T.backward(loss)
    z = 2.0 * raw[0, 0, :3]
    probs = np.exp(z - z.max())
    probs /= probs.sum()
    expect = 2.0 * probs
    expect[2] -= 2.0
    assert np.allclose(p.grad[0, 0, :3], expect, atol=1e-12)
    assert p.grad[0, 0, 3] == 0.0


def test_sequence_loss_rejects_empty_mask():
    with pytest.raises(ContractError):
        sequence_loss(T.Tensor(np.zeros((1, 1, 2))), np.zeros((1, 1), dtype=int),
                      np.zeros((1, 1)), 1.0)


def test_adam_single_step_closed_form():
    p = T.Parameter("w", np.array([1.0, -2.0, 0.5]))
    opt = Adam([p], lr=0.1, warmup=0)
    g = np.array([0.4, -0.3, 0.0])
    p.tensor.grad = g.copy()
    opt.step()
    mh = g                     # (1-b1)g / (1-b1)
    vh = g * g
    expect = np.array([1.0, -2.0, 0.5]) - 0.1 * mh / (np.sqrt(vh) + 1e-8)
    assert np.allclose(p.data, expect, atol=1e-12)


def test_adam_warmup_scales_first_step():
    base = np.array([1.0])
    p1, p2 = T.Parameter("a", base.copy()), T.Parameter("b", base.copy())
    o1, o2 = Adam([p1], lr=0.1, warmup=0), Adam([p2], lr=0.1, warmup=10)
    for p, o in ((p1, o1), (p2, o2)):
        p.tensor.grad = np.array([1.0])
        o.step()
    d1 = base[0] - p1.data[0]
    d2 = base[0] - p2.data[0]
    assert abs(d2 - d1 / 10.0) < 1e-12


def test_adam_skips_gradless_params_and_rejects_duplicates():
    p = T.Parameter("w", np.array([1.0]))
    opt = Adam([p], lr=0.5, warmup=0)
    opt.step()
    assert p.data[0] == 1.0
    with pytest.raises(ContractError):
        Adam([p, p])


def test_label_remapping_through_train_step_columns():
    m = Seq2SeqModel(ModelConfig(**TINY), VOCAB, seed=0)
    cols = m.label_columns([A, AMP, C], [C, A, EOS_ID])
    n = VOCAB.base_size
    assert cols == [n + 1, n + 0, EOS_ID]
    with pytest.raises(VocabularyError):
        m.label_columns([A, AMP], [B])


def test_fit_empty_dataset_returns_no_metrics():
    m = Seq2SeqModel(ModelConfig(**TINY), VOCAB, seed=0)
    assert fit(m, [], TrainConfig(steps=5)) == []


def test_fit_overfits_tiny_copy_task():
    m = Seq2SeqModel(ModelConfig(**TINY), VOCAB, seed=1)
    pairs = [([A, B], [A, B]), ([B, A], [B, A]), ([A, A], [A, A])]
    cfg = TrainConfig(steps=80, batch_size=3, learning_rate=3e-3,
                      warmup=10, seed=0, log_every=40)
    metrics = fit(m, pairs, cfg)
    assert len(metrics) == 80
    first = np.mean([x["loss"] for x in metrics[:5]])
    last = np.mean([x["loss"] for x in metrics[-5:]])
    assert last < first * 0.5
    assert decode_greedy(m, [A, B], max_len=4).tokens == [A, B]
    assert decode_greedy(m, [B, A], max_len=4).tokens == [B, A]


def test_fit_deterministic_checkpoints(tmp_path):
    cfg = TrainConfig(steps=12, batch_size=2, seed=7, log_every=6)
    pairs = [([A, B], [B, A]), ([C, A], [A, C]), ([B, B], [B, B])]
    paths = []
    for run in range(2):
        m = Seq2SeqModel(ModelConfig(**TINY), VOCAB, seed=9)
        p = tmp_path / f"run{run}.ckpt"
        fit(m, pairs, cfg, checkpoint_path=p)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    back = load_model(paths[0])
    assert back.adacos is not None
    assert 1.0 <= back.adacos.scale <= 64.0


def test_fit_logs_expected_line_shape():
    m = Seq2SeqModel(ModelConfig(**TINY), VOCAB, seed=0)
    lines = []
    fit(m, [([A], [A])], TrainConfig(steps=4, batch_size=1, log_every=2),
        log=lines.append)
    assert len(lines) == 2
    for ln in lines:
        assert ln.startswith("step ")
        assert " loss " in ln and " grad_norm " in ln and " wall " in ln


def test_train_step_aborts_on_non_finite_loss():
    class Boom:
        cfg = ModelConfig(cosine_head=False, **TINY)
        adacos = None

        def __init__(self):
            self.p = T.Parameter("w", np.ones(2))

        def parameters(self):
            return [self.p]

        def label_columns(self, src, tgt):
            return [0] * len(tgt)

        def forward_batch(self, srcs, dec_in, ctx):
            bad = np.zeros((1, len(dec_in[0]), 3))
            bad[0, 0, 1] = np.nan    # one poisoned competitor column
            return T.mul(index(self.p.tensor, 0), bad), None

    boom = Boom()
    with pytest.raises(ContractError):
        train_step(boom, [([A], [A])], Adam(boom.parameters(), warmup=0))


def test_dropout_training_still_deterministic(tmp_path):
    cfg = TrainConfig(steps=6, batch_size=2, seed=3, log_every=3)
    outs = []
    for run in range(2):
        m = Seq2SeqModel(ModelConfig(dropout=0.2, **TINY), VOCAB, seed=4)
        metrics = fit(m, [([A, B], [A, B]), ([B, C], [B, C])], cfg)
        outs.append([x["loss"] for x in metrics])
    assert outs[0] == outs[1]
