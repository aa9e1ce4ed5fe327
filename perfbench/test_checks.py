"""Each output check passes on real results and fails on a wrong one.

    python3 -m pytest perfbench/test_checks.py -q

Small models keep this to seconds; the checks do not depend on size.
"""
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import program

sf = program.load()

import checks      # noqa: E402  (needs the program on the path)
import spans       # noqa: E402
import workloads   # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
VOCAB = sf.logic.task_vocabulary("prop", 4)
SMALL = sf.model.ModelConfig(d_model=16, heads=2, ffn_dim=32, enc_layers=1,
                             dec_layers=1)
SRC = VOCAB.encode("&a|b!c")


@pytest.fixture(scope="module")
def model():
    return sf.model.Seq2SeqModel(SMALL, VOCAB, seed=3)


def test_greedy_check_bites(model):
    out = sf.model.decode_greedy(model, SRC, 6)
    assert checks.greedy_consistent(sf, [(model, SRC, 6, out)]) == []
    other = [t for t in sorted(set(SRC))
             if VOCAB.is_inter(t) and t != out.tokens[0]][0]
    wrong = replace(out, tokens=[other] + out.tokens[1:])
    assert checks.greedy_consistent(sf, [(model, SRC, 6, wrong)])
    off = replace(out, score=out.score + 1e-6)
    assert checks.greedy_consistent(sf, [(model, SRC, 6, off)])
    assert checks.greedy_consistent(sf, [])


def test_beam_check_bites(model):
    hyps = sf.model.decode_beam(model, SRC, 4, 6)
    kept = [(model, SRC, 4, 6, hyps)]
    assert checks.beam_consistent(sf, kept) == []
    off = [replace(hyps[0], score=hyps[0].score + 1e-6)] + hyps[1:]
    assert checks.beam_consistent(sf, [(model, SRC, 4, 6, off)])
    assert checks.beam_consistent(sf, [(model, SRC, 4, 6, hyps[::-1])])


def test_beam1_check_bites(model):
    beam = sf.model.decode_beam(model, SRC, 1, 6)[0]
    greedy = sf.model.decode_greedy(model, SRC, 6)
    assert checks.beam1_is_greedy([(beam, greedy)]) == []
    wrong = replace(greedy, tokens=greedy.tokens + greedy.tokens[:1])
    assert checks.beam1_is_greedy([(beam, wrong)])


def test_certify_check_bites():
    rep = sf.evaluation.certify_invariance(None, n_trials=3, seed=1,
                                           config=SMALL, max_len=6)
    assert checks.certify_passed([rep]) == []
    task = rep.per_task[0]
    failed = replace(rep, per_task=(replace(task, failures=1),))
    assert checks.certify_passed([failed])
    loose = replace(rep, per_task=(replace(task, worst_discrepancy=2e-6),))
    assert checks.certify_passed([loose])


def test_alphacov_check_bites(model):
    texts = ["&a|b!c", "!a"]
    data = sf.logic.Dataset("prop", 4, [(t, "") for t in texts])
    rep = sf.evaluation.alpha_covariance_suite(model, data, max_len=4)
    symbols = "".join(VOCAB.inter_tokens)
    assert checks.alphacov_exact([(texts, rep)], symbols) == []
    assert checks.alphacov_exact([(texts, replace(rep, values=(1.0, 0.9)))],
                                 symbols)
    assert checks.alphacov_exact([(texts, replace(rep, p_sizes=(24, 24)))],
                                 symbols)
    assert checks.alphacov_exact([(texts, replace(rep, skipped=1))], symbols)


def test_loss_checks_bite():
    falling = list(np.linspace(20.0, 1.0, 60))
    assert checks.loss_falls(falling) == []
    assert checks.loss_falls([5.0] * 60)
    assert checks.loss_falls(falling[:30])
    assert checks.losses_finite(falling) == []
    assert checks.losses_finite(falling[:10] + [float("nan")])


def _batch():
    data = sf.logic.gen_prop(0, 4, (3, 6), 4)
    return [(VOCAB.encode(s), VOCAB.encode(t)) for s, t in data.pairs]


def test_gradient_check_bites(model, monkeypatch):
    batch = _batch()
    rng = np.random.default_rng(0)
    assert checks.gradient_matches_fd(sf, model, batch, rng, coords=8) == []
    T = sf.tensor
    relu = T.relu

    def doubled_grad_relu(a):
        # same value, twice the gradient
        r = relu(a)
        return T.add(r, T.sub(r, T.Tensor(r.data)))
    monkeypatch.setattr(T, "relu", doubled_grad_relu)
    rng = np.random.default_rng(0)
    assert checks.gradient_matches_fd(sf, model, batch, rng, coords=8)


def test_invariance_check_bites(model):
    pairs = _batch()
    rng = np.random.default_rng(0)
    assert checks.invariant_after_training(sf, model, pairs, rng,
                                           max_len=4) == []
    flat = sf.model.FlatVocabTransformer(SMALL, VOCAB, seed=3)
    rng = np.random.default_rng(0)
    assert checks.invariant_after_training(sf, flat, pairs, rng, max_len=4)


def test_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 9.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.root("op", spans.FOCUS):
        a = tracer.open("child")
        b = tracer.open("grandchild")
        tracer.close(b)
        tracer.close(a)
    op, child, grand = tracer.spans
    assert op[2] - op[1] - op[5] == 10.0 - 8.0
    assert child[2] - child[1] - child[5] == 8.0 - 1.0
    assert grand[3] == 1 and grand[4] == 0


def test_benchmark_json_names_what_the_runs_print():
    with open(os.path.join(program.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        workloads.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        spans.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)


def test_run_without_program_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(program.ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "train-prop4", "--seed", "0", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
