"""The benchmark's runs wrap the package's functions from outside.

perfbench/spans.py and perfbench/workloads.py replace functions in the
modules' namespaces by name.  If a refactor renames a wrapped function, or
calls it other than through its module's global, the traced run silently
loses that layer's metrics, and the decode recorder files its samples
under the wrong metric.  These tests install both on the live package and
check what one forward pass and a few decodes reach.
"""
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import streamformer as sf
import streamformer.evaluation  # noqa: F401  install() wraps every module
import streamformer.training  # noqa: F401
from streamformer.logic import Dataset, task_vocabulary
from streamformer.model import ModelConfig, Seq2SeqModel, decode_greedy

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"

LAYERS = {"streams.pack", "streams.aggregate", "streams.project",
          "attention.EP", "attention.EA", "attention.DP", "attention.DA",
          "attention.CP", "attention.CA", "model.enc_layer", "model.dec_layer",
          "model.ffn"}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_reach_every_layer_and_uninstall_cleanly():
    spans = load_spans()
    model = Seq2SeqModel(ModelConfig(d_model=8, heads=2, ffn_dim=16,
                                     enc_layers=1, dec_layers=1,
                                     cross_modes=("per", "agg")),
                         task_vocabulary("prop", 3), seed=0)
    src = model.vocab.encode("&a|bc")
    # a batch that mixes 1 and 3 streams: its pack spans count the real
    # (sequence, stream, position) cells and the dense grid's cells
    mixed = [model.vocab.encode("!a"), src]
    tracer = spans.Tracer()
    spans.install(tracer, sf)
    wrapped = list(tracer._undo)
    try:
        model.forward_batch([src], [[1] + src])
        decode_greedy(model, src, max_len=3)
        first = len(tracer.spans)
        model.forward_batch(mixed, [[1] + s for s in mixed])
    finally:
        tracer.uninstall()
    seen = {span[0] for span in tracer.spans}
    assert LAYERS <= seen, sorted(LAYERS - seen)
    packs = [span[6] for span in tracer.spans[first:]
             if span[0] == "streams.pack"]
    lengths = [(2, 5), (3, 6)]     # sources, then decoder inputs
    assert packs == [{"real": 1.0 * a + 3.0 * b, "padded": 2.0 * 3 * b}
                     for a, b in lengths]
    for owner, attr, orig in wrapped:
        assert getattr(owner, attr) is orig, attr
    count = len(tracer.spans)
    model.forward_batch([src], [[1] + src])
    assert len(tracer.spans) == count


def test_each_decode_step_feeds_one_position_per_row():
    # decode.positions_per_token and decode.rows_per_call read the
    # decode_hidden span under each step_logits span
    spans = load_spans()
    model = Seq2SeqModel(ModelConfig(d_model=8, heads=2, ffn_dim=16,
                                     enc_layers=1, dec_layers=1),
                         task_vocabulary("prop", 3), seed=0)
    tracer = spans.Tracer()
    spans.install(tracer, sf)
    try:
        out = decode_greedy(model, model.vocab.encode("&a|bc"), max_len=3)
    finally:
        tracer.uninstall()
    assert out.truncated
    steps = [i for i, span in enumerate(tracer.spans)
             if span[0] == "model.step_logits"]
    assert len(steps) == 3
    for i in steps:
        assert [span[6] for span in tracer.spans
                if span[3] == i and span[0] == "model.decode_hidden"] == [
            {"rows": 1, "positions": 1}]


def test_decode_recorder_files_greedy_and_beam_apart(monkeypatch):
    # decode.greedy_ms and decode.tokens_per_s read the greedy samples,
    # decode.beam_ms the beam ones; greedy decoding runs the beam search,
    # so a greedy call must still file one greedy sample and no beam one
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    model = Seq2SeqModel(ModelConfig(d_model=8, heads=2, ffn_dim=16,
                                     enc_layers=1, dec_layers=1),
                         task_vocabulary("prop", 3), seed=0)
    rec = workloads.Recorder(0, gauged=False)
    restore = workloads.install_recorder(
        sf, rec, SimpleNamespace(flat_models=[]))
    try:
        sf.model.decode_greedy(model, model.vocab.encode("&a|bc"), 3)
        greedy = dict(rec.samples)
        data = Dataset("prop", 3, [("&a|bc", "a1b1"), ("!a", "a0")])
        sf.evaluation.eval_correct(model, data, beam_width=4, max_len=3)
    finally:
        restore()
    focus = workloads.FOCUS
    assert {k: len(v) for k, v in greedy.items()} == {
        (focus, "decode.greedy"): 1}
    assert {k: len(v) for k, v in rec.samples.items()} == {
        (focus, "decode.greedy"): 1, (focus, "decode.beam"): 2}
    assert sf.model.decode_greedy is decode_greedy
