"""The benchmark's traced runs wrap the package's functions from outside.

perfbench/spans.py replaces functions in the modules' namespaces by name.
If a refactor renames a wrapped function, or calls it other than through
its module's global, the traced run silently loses that layer's metrics.
This test installs the spans on the live package and checks that one
forward pass and one short greedy decode reach every wrapped layer.
"""
import importlib.util
from pathlib import Path

import streamformer as sf
import streamformer.evaluation  # noqa: F401  install() wraps every module
import streamformer.training  # noqa: F401
from streamformer.logic import task_vocabulary
from streamformer.model import ModelConfig, Seq2SeqModel, decode_greedy

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

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
    tracer = spans.Tracer()
    spans.install(tracer, sf)
    wrapped = list(tracer._undo)
    try:
        model.forward_batch([src], [[1] + src])
        decode_greedy(model, src, max_len=3)
    finally:
        tracer.uninstall()
    seen = {span[0] for span in tracer.spans}
    assert LAYERS <= seen, sorted(LAYERS - seen)
    for owner, attr, orig in wrapped:
        assert getattr(owner, attr) is orig, attr
    count = len(tracer.spans)
    model.forward_batch([src], [[1] + src])
    assert len(tracer.spans) == count
