"""Evaluation layer: scoring, renaming audits, certification, timing."""
import itertools
import math

import numpy as np
import pytest

import streamformer.evaluation as E
from streamformer import logic as L
from streamformer.errors import ContractError, ResourceError, VocabularyError
from streamformer.model import (DecodeResult, FlatVocabTransformer,
                                ModelConfig, Seq2SeqModel)
from streamformer.streams import AlphaRenaming
from streamformer.training import TrainConfig, fit

from helpers import check_invariance_two_calls, identity_renaming, is_identity
from oracles import naive_edit_distance

TINY = dict(d_model=16, heads=2, ffn_dim=32, enc_layers=1, dec_layers=1)


@pytest.fixture(scope="module")
def trained_prop():
    """Small model fitted just enough that beams are nondegenerate."""
    vocab = L.task_vocabulary("prop", 3)
    data = L.gen_prop(7, 3, (3, 8), 250)
    pairs = [(vocab.encode(s), vocab.encode(t)) for s, t in data.pairs]
    model = Seq2SeqModel(ModelConfig(**TINY), vocab, seed=4)
    fit(model, pairs, TrainConfig(steps=220, batch_size=8,
                                  learning_rate=2e-3, warmup=40, seed=0,
                                  log_every=10 ** 6))
    return model


def fake_decoder(script):
    """decode_greedy stand-in keyed by the (renamed) source it is handed."""
    def decode(model, src, max_len=64):
        return DecodeResult(list(script(list(src))), 0.0, False, False)
    return decode


def fake_beam(script):
    """decode_beam stand-in: the one hypothesis fake_decoder would give."""
    greedy = fake_decoder(script)

    def decode(model, src, width, max_len=64):
        return [greedy(model, src, max_len)]
    return decode


# ------------------------------------------------------------ edit distance

def test_edit_distance_known_cases():
    assert E.edit_distance("", "abc") == 3
    assert E.edit_distance("kitten", "sitting") == 3
    assert E.edit_distance([1, 2, 3], [1, 2, 3]) == 0
    assert E.edit_distance([1, 2], [2, 1]) == 2


def test_edit_distance_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(60):
        a = rng.integers(0, 4, rng.integers(0, 9)).tolist()
        b = rng.integers(0, 4, rng.integers(0, 9)).tolist()
        assert E.edit_distance(a, b) == naive_edit_distance(a, b)
        assert E.edit_distance(a, b) == E.edit_distance(b, a)


# ----------------------------------------------------------- renaming sets

def test_renaming_set_enumerates_small_spaces():
    vocab = L.task_vocabulary("prop", 3)
    a, b, c = vocab.inter_ids()
    fs = E.renaming_set(vocab, [a, c])
    assert len(fs) == 6    # 3 * 2 injections of two symbols into three
    images = {(f[a], f[c]) for f in fs}
    assert len(images) == 6
    for f in fs:
        assert f[a] != f[c]
        assert f[0] == 0    # base ids never move
    # deterministic order
    again = E.renaming_set(vocab, [a, c])
    assert [f.mapping for f in fs] == [f.mapping for f in again]


def test_renaming_set_identity_for_no_symbols():
    vocab = L.task_vocabulary("prop", 3)
    fs = E.renaming_set(vocab, [])
    assert len(fs) == 1 and is_identity(fs[0])


def test_renaming_set_enumerates_spaces_smaller_than_a_sample():
    # a 7-symbol tier holds only 7 injections of one symbol and one of none,
    # fewer than the 24 a sample draws, so both are enumerated
    vocab = L.task_vocabulary("prop", 7)
    first = vocab.inter_ids()[0]
    fs = E.renaming_set(vocab, [first])
    assert sorted(f[first] for f in fs) == list(vocab.inter_ids())
    fs = E.renaming_set(vocab, [])
    assert len(fs) == 1 and is_identity(fs[0])


def test_renaming_set_samples_large_spaces():
    vocab = L.task_vocabulary("copying", 7)
    used = list(vocab.inter_ids())[:5]
    fs = E.renaming_set(vocab, used, seed=3)
    assert len(fs) == 24
    images = {tuple(f[t] for t in used) for f in fs}
    assert len(images) == 24
    assert [f.mapping for f in fs] == \
        [f.mapping for f in E.renaming_set(vocab, used, seed=3)]
    other = {tuple(f[t] for t in used)
             for f in E.renaming_set(vocab, used, seed=4)}
    assert images != other


def test_renaming_set_rejects_foreign_ids():
    vocab = L.task_vocabulary("prop", 3)
    with pytest.raises(VocabularyError):
        E.renaming_set(vocab, [0])


# -------------------------------------------------------- alpha covariance

def test_alpha_covariance_echo_is_one(monkeypatch):
    vocab = L.task_vocabulary("prop", 3)
    a = vocab.inter_ids()[0]
    monkeypatch.setattr(E, "decode_greedy", fake_decoder(lambda s: s))
    fs = E.renaming_set(vocab, [a])
    assert E.alpha_covariance(object(), ([a], None), fs) == 1.0


def test_alpha_covariance_all_distinct_is_zero(monkeypatch):
    vocab = L.task_vocabulary("prop", 3)
    a, b, c = vocab.inter_ids()
    # constant output; three inverses send it to three different symbols
    monkeypatch.setattr(E, "decode_greedy", fake_decoder(lambda s: [a]))
    fs = [identity_renaming(vocab),
          AlphaRenaming(vocab, {a: b, b: a}),
          AlphaRenaming(vocab, {a: c, c: a})]
    assert E.alpha_covariance(object(), ([a], None), fs) == 0.0


def test_alpha_covariance_partial_agreement(monkeypatch):
    vocab = L.task_vocabulary("prop", 3)
    a = vocab.inter_ids()[0]
    monkeypatch.setattr(E, "decode_greedy", fake_decoder(lambda s: [a]))
    fs = E.renaming_set(vocab, list(vocab.inter_ids()))    # all 6 renamings
    # each symbol is the preimage of `a` under exactly two of them
    assert E.alpha_covariance(object(), ([a], None), fs) == \
        pytest.approx(1.0 - 2.0 / 5.0)


def test_alpha_covariance_needs_two_renamings():
    vocab = L.task_vocabulary("prop", 3)
    with pytest.raises(ContractError):
        E.alpha_covariance(object(), ([vocab.inter_ids()[0]], None),
                           E.renaming_set(vocab, []))


def test_suite_is_exactly_one_for_stream_model():
    vocab = L.task_vocabulary("prop", 3)
    model = Seq2SeqModel(ModelConfig(**TINY), vocab, seed=9)
    data = L.gen_prop(21, 3, (3, 8), 8)
    rep = E.alpha_covariance_suite(model, data, max_len=12)
    assert rep.values == tuple([1.0] * 8)
    assert rep.mean == 1.0
    assert rep.sampled == 0
    for (src, _), p in zip(data.pairs, rep.p_sizes):
        k = len({ch for ch in src if ch in "abc"})
        assert p == math.perm(3, k)
        assert 1 <= k <= 3 and p >= 2


def test_suite_skips_symbol_free_pairs():
    vocab = L.task_vocabulary("prop", 3)
    model = Seq2SeqModel(ModelConfig(**TINY), vocab, seed=9)
    data = L.Dataset("prop", 3, [("&11", "a1"), ("!a", "a0")])
    rep = E.alpha_covariance_suite(model, data, max_len=8)
    assert rep.skipped == 1 and len(rep.values) == 1
    with pytest.raises(ContractError):
        E.AlphaCovReport(3, (), (), 0, 0).mean


def test_suite_reports_sampling_and_stays_bounded():
    vocab = L.task_vocabulary("copying", 7)
    model = Seq2SeqModel(ModelConfig(**TINY), vocab, seed=2)
    data = L.gen_copying(5, 7, (6, 9), 3)
    rep = E.alpha_covariance_suite(model, data, max_len=12)
    assert all(0.0 <= x <= 1.0 for x in rep.values)
    # 7 symbols always sample; each sample records it
    assert rep.sampled == len(rep.values)
    assert all(p == 24 for p in rep.p_sizes)


# --------------------------------------------------------- semantic checks

def test_prediction_correct_per_task():
    assert E.prediction_correct("copying", "abca", "abca")
    assert not E.prediction_correct("copying", "abca", "abc")
    # any forcing assignment counts, not only the minimal one
    assert E.prediction_correct("prop", "|ab", "b1")
    assert E.prediction_correct("prop", "|ab", "a1")
    assert not E.prediction_correct("prop", "|ab", "a0b0")
    assert not E.prediction_correct("prop", "|ab", "1a")    # malformed
    assert E.prediction_correct("ltl", "U1a", "{a}")
    assert not E.prediction_correct("ltl", "U1a", "{!a}")
    assert not E.prediction_correct("ltl", "U1a", "}{")
    with pytest.raises(ContractError):
        E.prediction_correct("sorting", "x", "y")


def test_prediction_correct_propagates_resource_blowups():
    nine = ";".join(["a"] * 9) + ";{a}"
    with pytest.raises(ResourceError):
        E.prediction_correct("ltl", "U1a", nine)


def test_eval_correct_rigged_echo(monkeypatch):
    vocab = L.task_vocabulary("copying", 4)
    model = Seq2SeqModel(ModelConfig(**TINY), vocab, seed=0)
    data = L.gen_copying(3, 4, (3, 6), 10)
    monkeypatch.setattr(E, "decode_beam", fake_beam(lambda s: s))
    r = E.eval_correct(model, data)
    assert r == {"n": 10, "correct": 1.0, "exact": 1.0,
                 "resource_exceeded": 0}


def test_eval_correct_semantic_without_exact(monkeypatch):
    vocab = L.task_vocabulary("prop", 3)
    model = Seq2SeqModel(ModelConfig(**TINY), vocab, seed=0)
    data = L.Dataset("prop", 3, [("|ab", "a1")])
    monkeypatch.setattr(E, "decode_beam",
                        fake_beam(lambda s: vocab.encode("b1")))
    r = E.eval_correct(model, data)
    assert r["correct"] == 1.0 and r["exact"] == 0.0


def test_eval_correct_counts_resource_blowups(monkeypatch):
    vocab = L.task_vocabulary("ltl", 3)
    model = Seq2SeqModel(ModelConfig(**TINY), vocab, seed=0)
    data = L.Dataset("ltl", 3, [("U1a", "{a}")])
    nine = vocab.encode(";".join(["a"] * 9) + ";{a}")
    monkeypatch.setattr(E, "decode_beam", fake_beam(lambda s: nine))
    r = E.eval_correct(model, data)
    assert r["resource_exceeded"] == 1 and r["correct"] == 0.0


def test_eval_correct_rejects_empty():
    vocab = L.task_vocabulary("prop", 3)
    model = Seq2SeqModel(ModelConfig(**TINY), vocab, seed=0)
    with pytest.raises(ContractError):
        E.eval_correct(model, L.Dataset("prop", 3, []))


def test_exact_implies_correct_on_real_decodes(trained_prop):
    data = L.gen_prop(31, 3, (3, 8), 25)
    r = E.eval_correct(trained_prop, data, max_len=12)
    assert r["correct"] >= r["exact"]
    assert r["n"] == 25


def test_topn_one_equals_eval_correct(trained_prop):
    data = L.gen_prop(13, 3, (3, 8), 20)
    r = E.eval_correct(trained_prop, data, max_len=12)
    assert E.topn_accuracy(trained_prop, data, 1, max_len=12) == r["correct"]


def test_topn_monotone(trained_prop):
    data = L.gen_prop(17, 3, (3, 8), 15)
    one = E.topn_accuracy(trained_prop, data, 1, max_len=12)
    three = E.topn_accuracy(trained_prop, data, 3, max_len=12)
    assert three >= one
    with pytest.raises(ContractError):
        E.topn_accuracy(trained_prop, data, 0)


# ----------------------------------------------------------------- heatmap

def test_heatmap_shape_and_stability():
    vocab = L.task_vocabulary("prop", 3)
    model = Seq2SeqModel(ModelConfig(**TINY), vocab, seed=5)
    spec = E.GridSpec("prop", (2, 3), (3, 5), per_cell=4)
    g1 = E.heatmap(model, spec)
    g2 = E.heatmap(model, spec)
    assert g1.to_csv() == g2.to_csv()
    lines = g1.to_csv().splitlines()
    assert lines[0] == "ap,len,n,correct,exact"
    assert len(lines) == 5
    for ap, length, n, correct, exact in g1.cells:
        assert 0 <= n <= 4
        assert 0 <= exact <= correct <= n


def test_heatmap_empty_spec_and_vocab_guard():
    vocab = L.task_vocabulary("prop", 3)
    model = Seq2SeqModel(ModelConfig(**TINY), vocab, seed=5)
    empty = E.heatmap(model, E.GridSpec("prop", (), (), per_cell=1))
    assert empty.to_csv() == "ap,len,n,correct,exact\n"
    with pytest.raises(VocabularyError):
        E.heatmap(model, E.GridSpec("prop", (4,), (3,)))


def test_heatmap_reports_barren_cells(monkeypatch):
    vocab = L.task_vocabulary("prop", 3)
    model = Seq2SeqModel(ModelConfig(**TINY), vocab, seed=5)
    monkeypatch.setattr(E, "_generate_cell",
                        lambda *a: L.Dataset("prop", 3, []))
    g = E.heatmap(model, E.GridSpec("prop", (2,), (3,)))
    assert g.cells == ((2, 3, 0, 0, 0),)


# ----------------------------------------------------------- certification

def test_certify_untrained_models_pass():
    rep = E.certify_invariance(n_trials=9, seed=1,
                               config=ModelConfig(**TINY), max_len=24)
    assert rep.passed
    assert rep.trials == 9 and rep.failures == 0
    assert tuple(t.task for t in rep.per_task) == ("copying", "prop", "ltl")
    assert tuple(t.trials for t in rep.per_task) == (3, 3, 3)
    assert rep.worst_discrepancy <= 1e-6


def test_certify_single_task_and_argument_checks():
    rep = E.certify_invariance(n_trials=4, seed=2, task="prop",
                               config=ModelConfig(**TINY), max_len=24)
    assert len(rep.per_task) == 1 and rep.per_task[0].task == "prop"
    assert rep.per_task[0].trials == 4
    with pytest.raises(ContractError):
        E.certify_invariance(n_trials=0)
    with pytest.raises(ContractError):     # fresh models: one trial per task
        E.certify_invariance(n_trials=2)
    with pytest.raises(ContractError):
        E.certify_invariance(task="sorting", n_trials=2)
    vocab = L.task_vocabulary("prop", 3)
    model = Seq2SeqModel(ModelConfig(**TINY), vocab, seed=0)
    with pytest.raises(ContractError):
        E.certify_invariance(model, n_trials=2)    # task not named


def test_certify_flags_the_flat_baseline():
    vocab = L.task_vocabulary("prop", 3)
    flat = FlatVocabTransformer(ModelConfig(**TINY), vocab, seed=3)
    rep = E.certify_invariance(flat, n_trials=6, seed=0, task="prop",
                               max_len=16)
    assert not rep.passed
    assert rep.failures >= 1


def test_certification_matches_the_two_call_oracle(monkeypatch):
    # certify_invariance decodes each trial's source and renamed image as
    # two rows of one search and takes both teacher-forced passes from one
    # batch; trial by trial it must give what two one-row decodes and two
    # one-sequence passes give, on fresh models of the three tasks and on
    # a supplied flat model that fails some trials.  The discrepancy may
    # differ by rounding, at most 1e-15, and each difference is reported
    trials = []
    real = E.check_invariance

    def both(model, src, f, max_len):
        rep = real(model, src, f, max_len=max_len)
        trials.append((rep, check_invariance_two_calls(model, src, f,
                                                       max_len)))
        return rep

    monkeypatch.setattr(E, "check_invariance", both)
    flat = FlatVocabTransformer(ModelConfig(**TINY),
                                L.task_vocabulary("prop", 3), seed=3)
    reports = [E.certify_invariance(n_trials=45, seed=0),
               E.certify_invariance(flat, n_trials=12, seed=0, task="prop",
                                    max_len=16)]
    runs = [trials[:45], trials[45:]]
    assert [len(run) for run in runs] == [45, 12]
    gaps = []
    for report, run in zip(reports, runs):
        assert report.trials == len(run)
        assert report.failures == sum(not want.passed for _, want in run)
        assert report.ties_flagged == sum(want.ties_flagged
                                          for _, want in run)
        for rep, want in run:
            assert rep.decoded == want.decoded
            assert rep.round_trip == want.round_trip
            assert rep.ties_flagged == want.ties_flagged
            assert rep.passed == want.passed
            gap = abs(rep.max_logit_discrepancy - want.max_logit_discrepancy)
            assert gap <= 1e-15, (rep, want)
            if gap:
                gaps.append(gap)
    assert reports[1].failures >= 1
    print(f"{len(trials)} trials; discrepancy off the oracle's in "
          f"{len(gaps)}, by at most {max(gaps, default=0.0):.1e}")


# ----------------------------------------------------------------- timing

def test_time_scaling_shape():
    vocab = L.task_vocabulary("copying", 4)
    model = Seq2SeqModel(ModelConfig(**TINY), vocab, seed=0)
    t = E.time_scaling(model, (1, 2, 4), samples_per_point=2, length=10)
    assert [s for s, _ in t.rows] == [1, 2, 4]
    assert all(ms > 0 for _, ms in t.rows)
    assert t.r_squared <= 1.0 + 1e-12
    assert math.isfinite(t.slope) and math.isfinite(t.intercept)


def test_time_scaling_argument_checks():
    vocab = L.task_vocabulary("copying", 4)
    model = Seq2SeqModel(ModelConfig(**TINY), vocab, seed=0)
    with pytest.raises(ContractError):
        E.time_scaling(model, (2,))
    with pytest.raises(ContractError):
        E.time_scaling(model, (1, 8), samples_per_point=1)
    with pytest.raises(ContractError):
        E.time_scaling(model, (1, 2), samples_per_point=0)
