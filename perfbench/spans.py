"""Spans around the program's public functions, installed from outside it.

The traced run replaces functions in the modules' own namespaces, such as
``streamformer.model.pack_sequences`` or ``Seq2SeqModel.step_logits``, with
wrappers that record a span: a name, a start, an end, the enclosing span and
the operation (root span) it belongs to.  Spans stay in memory and are
written out when the run ends.  Self time is a span's duration minus the
time its direct children cover.

The program itself is unchanged; spans inside it are a later change.
"""
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

FOCUS, COMPANION = "focus", "companion"

# Timed layers: each gives <name>.ms (median per call), <name>.self_ms and
# <name>.calls.  training.loss groups adacos_update and sequence_loss per
# training step, so one "call" is one step.
TIMED = (
    "streams.pack", "streams.aggregate", "streams.project",
    "attention.EP", "attention.EA", "attention.DP", "attention.DA",
    "attention.CP",
    "model.encode", "model.decode_hidden", "model.project_logits",
    "model.ffn", "model.begin_decode", "model.step_logits",
    "tensor.backward",
    "training.forward", "training.loss", "training.adam",
    "evaluation.check_invariance", "evaluation.forward",
    "evaluation.renaming_set",
)
PER_STEP = ("training.loss",)

EXTRA = (
    ("streams.slab_density", "share"),
    ("decode.positions_per_token", "positions/token"),
    ("decode.rows_per_call", "rows/call"),
    ("tensor.graph_nodes", "count"),
    ("tensor.graph_mb", "MB"),
    ("logic.generate.ms_per_pair", "ms/pair"),
    ("logic.generate.calls", "count"),
    ("trace.overhead_pct", "%"),
)


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name in TIMED:
        out[f"{name}.ms"] = "ms"
        out[f"{name}.self_ms"] = "ms"
        out[f"{name}.calls"] = "count"
    out.update(EXTRA)
    return out


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, clock=time.perf_counter):
        # span: [name, start, end, parent, root, child_seconds, attrs]
        self.spans = []
        self.stack = []
        self.clock = clock
        self._undo = []

    def open(self, name, attrs=None):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        root = self.spans[parent][4] if parent >= 0 else idx
        span = [name, 0.0, 0.0, parent, root, 0.0, attrs]
        self.spans.append(span)
        self.stack.append(idx)
        span[1] = self.clock()
        return idx

    def close(self, idx):
        end = self.clock()
        span = self.spans[idx]
        span[2] = end
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span[0]} closed out of order")
        if span[3] >= 0:
            self.spans[span[3]][5] += end - span[1]

    @contextmanager
    def root(self, name, role):
        """One operation of the workload; every span inside shares its id."""
        idx = self.open(name, {"role": role})
        try:
            yield
        finally:
            self.close(idx)

    def enclosing(self, names):
        """Name of the innermost open span among `names`, else None."""
        for idx in reversed(self.stack):
            if self.spans[idx][0] in names:
                return self.spans[idx][0]
        return None

    def wrap(self, owner, attr, name, pre=None, post=None):
        """Replace owner.attr by a spanning wrapper.

        name is a string or a callable of (args, kwargs) run at call time.
        pre(args, kwargs) gives span attributes computed before the span
        opens, so its cost stays outside the span; post(args, kwargs,
        result) gives attributes after the call.
        """
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            attrs = pre(args, kwargs) if pre else None
            idx = tracer.open(name(args, kwargs) if callable(name) else name,
                              attrs)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if post:
                extra = post(args, kwargs, out)
                span = tracer.spans[idx]
                span[6] = dict(span[6] or {}, **extra)
            return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent, root, child, attrs) in \
                    enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "root": root,
                       "self": end - start - child}
                if attrs:
                    rec["attrs"] = attrs
                f.write(json.dumps(rec) + "\n")


# ------------------------------------------------------------ installation

def _graph_size(args, kwargs):
    """Node count and data bytes of the graph behind a loss tensor."""
    loss = args[0] if args else kwargs["loss"]
    seen = {id(loss)}
    todo = [loss]
    nbytes = 0
    while todo:
        node = todo.pop()
        nbytes += node.data.nbytes
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return {"graph_nodes": len(seen), "graph_bytes": nbytes}


def _slab_cells(args, kwargs, H):
    real = float((H.active.sum(axis=1) * H.lengths).sum())
    return {"real": real, "padded": float(H.active.size * H.length)}


def _decoder_rows(args, kwargs):
    tgt_inputs = args[1] if len(args) > 1 else kwargs["tgt_inputs"]
    return {"rows": len(tgt_inputs),
            "positions": sum(len(t) for t in tgt_inputs)}


def install(tracer, sf):
    """Wrap the public functions of every layer the metrics name."""
    m, w = sf.model, tracer.wrap
    layers = ("model.enc_layer", "model.dec_layer")

    def sublayer(enc, dec):
        def name(args, kwargs):
            return enc if tracer.enclosing(layers) == layers[0] else dec
        return name

    def cross_kind(args, kwargs):
        mode = args[3] if len(args) > 3 else kwargs["mode"]
        return "attention.CP" if mode == "per" else "attention.CA"

    w(m, "pack_sequences", "streams.pack", post=_slab_cells)
    w(sf.attention, "aggregate", "streams.aggregate")
    w(m, "project", "streams.project")
    w(m.EncoderLayer, "__call__", layers[0])
    w(m.DecoderLayer, "__call__", layers[1])
    w(m, "per_stream_attention", sublayer("attention.EP", "attention.DP"))
    w(m, "aggregated_attention", sublayer("attention.EA", "attention.DA"))
    w(m, "cross_attention", cross_kind)
    w(m.FeedForward, "__call__", "model.ffn")

    methods = (
        ("encode", "model.encode", None),
        ("decode_hidden", "model.decode_hidden", _decoder_rows),
        ("project_logits", "model.project_logits", None),
        ("begin_decode", "model.begin_decode", None),
        ("step_logits", "model.step_logits", None),
        ("forward", "evaluation.forward", None),
        ("forward_batch", lambda a, k: (
            "training.forward" if tracer.enclosing(("training.step",))
            else "model.forward_batch"), None),
    )
    for cls in (m.Seq2SeqModel, m.FlatVocabTransformer):
        for attr, name, pre in methods:
            if attr in vars(cls):   # an inherited method is wrapped once
                w(cls, attr, name, pre=pre)

    w(sf.tensor, "backward", "tensor.backward", pre=_graph_size)
    tr = sf.training
    w(tr, "train_step", "training.step")
    w(tr, "adacos_update", "training.loss")
    w(tr, "sequence_loss", "training.loss")
    w(tr.Adam, "step", "training.adam")
    w(sf.evaluation, "check_invariance", "evaluation.check_invariance")
    w(sf.evaluation, "renaming_set", "evaluation.renaming_set")
    for gen in ("gen_prop", "gen_copying", "gen_ltl"):
        w(sf.logic, gen, "logic.generate",
          post=lambda a, k, d: {"pairs": len(d.pairs)})


# ------------------------------------------------------------------ summary

def _role_spans(tracer):
    """Spans grouped by (role, name); role comes from the root span."""
    spans = tracer.spans
    groups = defaultdict(list)
    for span in spans:
        root = spans[span[4]]
        role = (root[6] or {}).get("role")
        if role is not None:
            groups[(role, span[0])].append(span)
    return groups


def _pick(groups, name):
    """A layer's spans in the workload's own operations, else in its
    companion's."""
    return groups.get((FOCUS, name)) or groups.get((COMPANION, name)) or []


def summarize(tracer, overhead_pct):
    """Per-layer metrics {name: (value, unit)} from the recorded spans."""
    groups = _role_spans(tracer)
    units = per_layer_units()
    out = {}
    for name in TIMED:
        spans = _pick(groups, name)
        if name in PER_STEP:
            per_parent = defaultdict(lambda: [0.0, 0.0])
            for s in spans:
                acc = per_parent[s[3]]
                acc[0] += s[2] - s[1]
                acc[1] += s[2] - s[1] - s[5]
            pairs = list(per_parent.values())
        else:
            pairs = [(s[2] - s[1], s[2] - s[1] - s[5]) for s in spans]
        ms = [1000.0 * p[0] for p in pairs]
        self_ms = [1000.0 * p[1] for p in pairs]
        out[f"{name}.ms"] = statistics.median(ms) if ms else 0.0
        out[f"{name}.self_ms"] = statistics.median(self_ms) if ms else 0.0
        out[f"{name}.calls"] = len(pairs)

    packs = _pick(groups, "streams.pack")
    padded = sum(s[6]["padded"] for s in packs)
    out["streams.slab_density"] = (
        sum(s[6]["real"] for s in packs) / padded if padded else 0.0)

    # decoder calls made to emit one token, not teacher-forced ones
    steps = {(role, name): [s for s in group if s[3] >= 0 and
                            tracer.spans[s[3]][0] == "model.step_logits"]
             for (role, name), group in groups.items()
             if name == "model.decode_hidden"}
    decoder = _pick(steps, "model.decode_hidden")
    rows = sum(s[6]["rows"] for s in decoder)
    out["decode.positions_per_token"] = (
        sum(s[6]["positions"] for s in decoder) / rows if rows else 0.0)
    out["decode.rows_per_call"] = rows / len(decoder) if decoder else 0.0

    back = _pick(groups, "tensor.backward")
    out["tensor.graph_nodes"] = (
        statistics.median(s[6]["graph_nodes"] for s in back) if back else 0)
    out["tensor.graph_mb"] = (
        statistics.median(s[6]["graph_bytes"] for s in back) / 2 ** 20
        if back else 0.0)

    gens = _pick(groups, "logic.generate")
    out["logic.generate.ms_per_pair"] = (
        statistics.median(1000.0 * (s[2] - s[1]) / max(1, s[6]["pairs"])
                          for s in gens) if gens else 0.0)
    out["logic.generate.calls"] = len(gens)
    out["trace.overhead_pct"] = overhead_pct
    return {name: (out[name], unit) for name, unit in units.items()}
