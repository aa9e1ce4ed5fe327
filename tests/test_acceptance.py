"""Eight acceptance properties, one printed pass/fail line each.

Run with -s to see the lines as they happen.  Several properties train
models from scratch, so the module takes on the order of fifteen minutes
on one desktop core.  Nothing here is statistical beyond fixed seeds;
reruns produce the same verdicts.
"""
import itertools
import time

import numpy as np
import pytest

import streamformer.attention as A
import streamformer.evaluation as ev
import streamformer.logic as L
import streamformer.streams as S
import streamformer.tensor as T
from streamformer.model import (DecoderLayer, EncoderLayer,
                                FlatVocabTransformer, ModelConfig,
                                Seq2SeqModel, decode_greedy)
from streamformer.streams import EOS_ID, SOS_ID
from streamformer.training import TrainConfig, fit

from helpers import dense, permuted, rows_batch
from oracles import truth_table_check, unrolled_ltl_eval


def _report(num, label, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _encoded(dataset, vocab):
    return [(vocab.encode(s), vocab.encode(t)) for s, t in dataset.pairs]


@pytest.fixture(scope="session")
def copying_model():
    """Desk model fitted on 20k copying pairs over 6 of 10 symbols."""
    vocab = L.task_vocabulary("copying", 10)
    data = L.gen_copying(0, 6, (5, 15), 20000)
    model = Seq2SeqModel(ModelConfig(), vocab, seed=0)
    fit(model, _encoded(data, vocab),
        TrainConfig(steps=600, batch_size=16, learning_rate=1e-3,
                    warmup=200, seed=0, log_every=10 ** 6))
    return model


def test_criterion_1_invariance_certification(copying_model):
    t0 = time.perf_counter()
    fresh = ev.certify_invariance(n_trials=500, seed=11, max_len=24)
    trained = ev.certify_invariance(copying_model, n_trials=500, seed=12,
                                    task="copying", max_len=24)
    elapsed = time.perf_counter() - t0
    ok = (fresh.passed and trained.passed
          and fresh.worst_discrepancy <= 1e-6
          and trained.worst_discrepancy <= 1e-6
          and elapsed <= 300.0)
    _report(1, "renaming invariance certified, 500 trials each on fresh "
            "and trained models", ok,
            f"worst logit discrepancy {max(fresh.worst_discrepancy, trained.worst_discrepancy):.2e}, "
            f"0 of {fresh.trials + trained.trials} failed, {elapsed:.0f}s")


def _prop_suite(seed, aps, n):
    d = L.gen_prop(seed, aps, (4, 10), int(n * 1.2))
    letters = set(L.AP_CHARS[:aps])
    pairs = [(s, t) for s, t in d.pairs if set(s) & letters][:n]
    assert len(pairs) == n
    return L.Dataset("prop", aps, pairs)


def test_criterion_2_alpha_covariance():
    cfg = ModelConfig(d_model=32, heads=2, ffn_dim=64, enc_layers=1,
                      dec_layers=1)
    tc = TrainConfig(steps=300, batch_size=8, learning_rate=2e-3,
                     warmup=60, seed=0, log_every=10 ** 6)
    stream_ok, flat_below = [], []
    detail = []
    for aps in (3, 4, 5):
        vocab = L.task_vocabulary("prop", aps)
        pairs = _encoded(L.gen_prop(100 + aps, aps, (4, 10), 400), vocab)
        model = Seq2SeqModel(cfg, vocab, seed=aps)
        fit(model, pairs, tc)
        flat = FlatVocabTransformer(cfg, vocab, seed=aps)
        fit(flat, pairs, tc)
        suite = _prop_suite(200 + aps, aps, 200)
        rs = ev.alpha_covariance_suite(model, suite, seed=0, max_len=12)
        rf = ev.alpha_covariance_suite(flat, suite, seed=0, max_len=12)
        stream_ok.append(len(rs.values) == 200 and rs.skipped == 0
                         and all(v == 1.0 for v in rs.values))
        flat_below.append(rf.mean < 1.0)
        detail.append(f"{aps} APs: stream {rs.mean:.3f} flat {rf.mean:.3f}")
    _report(2, "alpha-covariance exactly 1.0 at 3/4/5 APs x 200 samples; "
            "flat baseline below 1.0", all(stream_ok) and all(flat_below),
            "; ".join(detail))


def test_criterion_3_copying_edit_distance(copying_model):
    vocab = copying_model.vocab

    def mean_ed(texts):
        total = 0
        for s in texts:
            ids = vocab.encode(s)
            out = decode_greedy(copying_model, ids, max_len=20)
            total += ev.edit_distance(out.tokens, ids)
        return total / len(texts)

    held = [s for s, _ in L.gen_copying(77, 6, (5, 15), 200).pairs]
    in_dist = mean_ed(held)
    rng = np.random.default_rng(5)
    unseen = ["".join("ghij"[i]
                      for i in rng.integers(0, 4, rng.integers(5, 16)))
              for _ in range(200)]
    out_dist = mean_ed(unseen)
    ok = in_dist == 0.0 and out_dist <= 0.5
    _report(3, "copying: held-out mean edit distance 0.0, unseen-symbol "
            "mean <= 0.5", ok,
            f"in-dist {in_dist:.3f}, unseen {out_dist:.3f}")


def _oracle_eval(phi, val):
    k = phi.kind
    if k == "true":
        return True
    if k == "ap":
        return bool(val.get(phi.name, False))
    if k == "not":
        return not _oracle_eval(phi.a, val)
    x, y = _oracle_eval(phi.a, val), _oracle_eval(phi.b, val)
    return {"and": x and y, "or": x or y, "iff": x == y, "xor": x != y}[k]


def _all_ltl_formulas(max_size):
    by_size = {1: [L.TRUE, L.Ap("a"), L.Ap("b")]}
    for s in range(2, max_size + 1):
        out = []
        for f in by_size[s - 1]:
            out.append(L.Not(f))
            out.append(L.Next(f))
        for left in range(1, s - 1):
            for fa in by_size[left]:
                for fb in by_size[s - 1 - left]:
                    out.append(L.And(fa, fb))
                    out.append(L.Until(fa, fb))
        by_size[s] = out
    return [f for s in sorted(by_size) for f in by_size[s]]


def _step_formula(val):
    lits = [L.Ap(n) if v else L.Not(L.Ap(n))
            for n, v in sorted(val.items())]
    phi = lits[0]
    for lit in lits[1:]:
        phi = L.And(phi, lit)
    return phi


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    vals = [dict(zip("ab", bits))
            for bits in itertools.product((False, True), repeat=2)]
    formulas = _all_ltl_formulas(5)
    checked = bad = 0
    for u, v in [(u, v) for u in (0, 1, 2) for v in (1, 2)]:
        traces = []
        for combo in itertools.product(range(4), repeat=u + v):
            pre = tuple(_step_formula(vals[i]) for i in combo[:u])
            cyc = tuple(_step_formula(vals[i]) for i in combo[u:])
            traces.append((L.LassoTrace(pre, cyc),
                           [vals[i] for i in combo[:u]],
                           [vals[i] for i in combo[u:]]))
        for phi in formulas:
            for trace, pv, cv in traces:
                checked += 1
                if L.eval_lasso(phi, trace) != unrolled_ltl_eval(phi, pv,
                                                                 cv):
                    bad += 1
    ltl_pairs = checked

    rng = np.random.default_rng(4)
    prop_checked = 0
    for _ in range(500):
        phi = L.random_formula(rng, "prop", int(rng.integers(1, 9)), "abc")
        names = L.aps(phi)
        for r in range(len(names) + 1):
            for combo in itertools.combinations(names, r):
                for bits in itertools.product((False, True), repeat=r):
                    a = dict(zip(combo, bits))
                    prop_checked += 1
                    lib = L.check_assignment(phi, a)
                    orc = truth_table_check(
                        lambda tv: _oracle_eval(phi, tv), names, a)
                    if lib != orc:
                        bad += 1
    ok = bad == 0
    _report(4, "oracle equivalence: exhaustive lasso space and all partial "
            "maps on 500 formulas, zero disagreements", ok,
            f"{ltl_pairs} lasso pairs + {prop_checked} assignments, "
            f"{bad} disagreements, {time.perf_counter() - t0:.0f}s")


def test_criterion_5_gradient_correctness():
    cfg = ModelConfig(d_model=6, heads=1, ffn_dim=8, enc_layers=1,
                      dec_layers=1, cross_modes=("per", "agg"))
    vocab = L.task_vocabulary("prop", 3)
    m = Seq2SeqModel(cfg, vocab, seed=13)
    src = vocab.encode("&a|bc")
    tgt = [SOS_ID] + vocab.encode("a1b0") + [EOS_ID]
    pick = np.random.default_rng(0).standard_normal(
        (len(tgt), vocab.base_size + 3))

    def loss_fn():
        logits = m.forward(src, tgt)
        keep = np.isfinite(logits.data).astype(float)
        return T.tsum(T.mul(T.mul(logits, keep), pick))

    errs = T.gradient_check(m.parameters(), loss_fn)
    worst = max(errs.values())
    ok = all(e <= 1e-4 for e in errs.values())
    _report(5, "gradients match central differences in every parameter "
            "group, cosine head, all six attention sublayers", ok,
            f"{len(errs)} groups, worst {worst:.2e}")


def test_criterion_6_stream_permutation_equivariance():
    acfg = A.AttentionConfig(d_model=8, heads=2)
    mcfg = ModelConfig(d_model=8, heads=2, ffn_dim=16, enc_layers=1,
                      dec_layers=1, cross_modes=("per", "agg"))
    prng = np.random.default_rng(60)
    mha = A.MultiHeadAttention("t", acfg, prng)
    enc_layer = EncoderLayer(mcfg, "enc.0", prng)
    dec_layer = DecoderLayer(mcfg, "dec.0", prng)
    W = prng.normal(size=(5, 8))
    rng = np.random.default_rng(61)
    worst_agg = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 6))
        Lq = int(rng.integers(3, 7))
        perm = rng.permutation(k).tolist()

        def rand_H(length, base=3):
            h = rng.normal(size=(1, k, length, 8))
            owner = rng.integers(-1, k, size=length)
            occ = (owner[None, None, :] ==
                   np.arange(k)[None, :, None]).astype(float)
            sids = np.arange(base, base + k)[None, :]
            return rows_batch(h, occ, np.ones((1, k)), sids,
                              np.full(1, length, dtype=np.int64))

        H = rand_H(Lq)
        mask = A.padding_mask(H.lengths, Lq, Lq)

        out = A.per_stream_attention(mha, H, mask)
        out_p = A.per_stream_attention(mha, permuted(H, perm), mask)
        assert dense(out)[:, perm].tobytes() == dense(out_p).tobytes()

        fused = S.aggregate(H).data
        fused_p = S.aggregate(permuted(H, perm)).data
        worst_agg = max(worst_agg, float(np.max(np.abs(fused - fused_p))))

        logits = S.project(H, T.Tensor(W)).data
        logits_p = S.project(permuted(H, perm), T.Tensor(W)).data
        d = np.abs(logits[..., 3:][..., perm] - logits_p[..., 3:])
        worst_agg = max(worst_agg, float(np.max(d)),
                        float(np.max(np.abs(logits[..., :3] -
                                            logits_p[..., :3]))))

        out = A.aggregated_attention(mha, H, mask)
        out_p = A.aggregated_attention(mha, permuted(H, perm), mask)
        worst_agg = max(worst_agg, float(np.max(np.abs(
            dense(out)[:, perm] - dense(out_p)))))

        out = enc_layer(H, mask)
        out_p = enc_layer(permuted(H, perm), mask)
        worst_agg = max(worst_agg, float(np.max(np.abs(
            dense(out)[:, perm] - dense(out_p)))))

        He = rand_H(Lq + 2)
        m_la = A.look_ahead_mask(H.lengths, Lq)
        m_pad = A.padding_mask(He.lengths, Lq, Lq + 2)
        out = dec_layer(H, He, m_la, m_pad)
        out_p = dec_layer(permuted(H, perm), permuted(He, perm), m_la,
                          m_pad)
        worst_agg = max(worst_agg, float(np.max(np.abs(
            dense(out)[:, perm] - dense(out_p)))))
    ok = worst_agg <= 1e-9
    _report(6, "stream permutation equivariance: per-stream bitwise, "
            "aggregated paths within 1e-9, 200 trials", ok,
            f"worst aggregate deviation {worst_agg:.2e}")


def test_criterion_7_ablation_plumbing():
    vocab = L.task_vocabulary("copying", 3)
    pairs = _encoded(L.gen_copying(1, 3, (4, 8), 300), vocab)
    tc = TrainConfig(steps=100, batch_size=8, learning_rate=1e-3,
                     warmup=50, seed=0, log_every=10 ** 6)
    combos = [(True, True), (True, False), (False, True)]
    modes = [("per",), ("agg",), ("per", "agg")]
    trained = 0
    for (ep, ea), (dp, da), cross in itertools.product(combos, combos,
                                                       modes):
        cfg = ModelConfig(d_model=16, heads=2, ffn_dim=32, enc_layers=1,
                          dec_layers=1, use_ep=ep, use_ea=ea, use_dp=dp,
                          use_da=da, cross_modes=cross)
        m = Seq2SeqModel(cfg, vocab, seed=7)
        names = {p.name for p in m.parameters()}
        wired = {
            "enc.0.self": ep, "enc.0.agg": ea,
            "dec.0.self": dp, "dec.0.agg": da,
            "dec.0.cross.per": "per" in cross,
            "dec.0.cross.agg": "agg" in cross,
        }
        for prefix, expected in wired.items():
            present = any(n.startswith(prefix) for n in names)
            assert present == expected, (cfg.code, prefix)
        hist = fit(m, pairs, tc)
        assert len(hist) == 100
        assert all(np.isfinite(h["loss"]) and np.isfinite(h["grad_norm"])
                   for h in hist), cfg.code
        trained += 1
    _report(7, "all 27 sublayer configurations wire the right parameters "
            "and train 100 steps", trained == 27, f"{trained} configs")


def test_criterion_8_time_scaling():
    model = Seq2SeqModel(ModelConfig(), L.task_vocabulary("copying", 8),
                         seed=0)
    t = ev.time_scaling(model, (1, 2, 4, 8), samples_per_point=40,
                        length=24)
    ok = t.r_squared >= 0.9 and t.slope > 0
    rows = ", ".join(f"{s}:{ms:.1f}ms" for s, ms in t.rows)
    _report(8, "forward time linear in stream count, R^2 >= 0.9", ok,
            f"{rows}; slope {t.slope:.2f} ms/stream, R^2 {t.r_squared:.3f}")
