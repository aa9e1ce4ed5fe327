"""The three workloads, the operations they are made of, and their metrics.

Every workload is a closed loop with one caller in one process: it repeats
whole rounds until the run's time is up.  A round holds the workload's own
operations (its focus) and then a small companion block: one unit of each
operation kind the focus never runs, always on the same fixed inputs and
weights.  The companion exists so that every workload reports every
end-to-end metric.  A metric is computed from the focus operations when
they produce it and from the companion operations otherwise.
"""
import itertools
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext

import numpy as np

import checks
from spans import COMPANION, FOCUS

APS = 4                  # interchangeable symbols of the prop tasks
SIZES = (3, 10)          # formula sizes of gen_prop
TRAIN_PAIRS = 2000
BATCH = 16               # TrainConfig's default batch size
TRAIN_STEPS_PER_ROUND = 24
WARMUP = 50
CERTIFY_MAX_LEN = 48     # the certify command's default
CERTIFY_TRIALS_PER_ROUND = 6
AUDIT_PAIRS = 1200
AUDIT_MAX_LEN = 12
BEAM_WIDTH = 4
BEAMS_PER_STRATUM = 8    # beam decodes per symbol count per round
COMPANION_SEED = 0       # companion inputs do not move with --seed
MODEL_SEED = 2           # audited models: see AuditProp4
REF_NOMINAL_S = 0.0011   # mean Reference.once() at nominal machine speed
REF_WINDOW = 2           # reference passes on each side of a timed call

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train.tokens_per_s": "tokens/s",
    "train.step_ms.p50": "ms",
    "train.step_ms.p90": "ms",
    "certify.trials_per_s": "trials/s",
    "decode.greedy_ms.p50": "ms",
    "decode.greedy_ms.p90": "ms",
    "decode.tokens_per_s": "tokens/s",
    "alphacov.samples_per_s": "samples/s",
    "alphacov.flat_samples_per_s": "samples/s",
    "decode.beam_ms.p50": "ms",
    "decode.beam_ms.p90": "ms",
}


def sub_seed(seed, *tags):
    """A 32-bit seed derived from the run seed and tags."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


class Reference:
    """A fixed routine outside the program that gauges the machine's speed.

    The VM this benchmark was built on switches between a fast and a slow
    state, about 1.5x apart, every few milliseconds, and the share of time
    spent slow wanders over minutes: one fixed greedy decode took 23 to
    41 ms in one afternoon.  Over those swings the ratio of that decode's
    time to this routine's stayed within about 3%.  The routine mixes
    interpreter work and small matrix products, as the program does;
    nothing the program does changes it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((4, 12, 64))
        self.w = 0.1 * rng.standard_normal((64, 64))

    def once(self):
        """Seconds one pass of the routine takes."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(6000):
            acc += i * i % 7
        x = self.x
        for _ in range(40):
            x = np.tanh(x @ self.w)
        return time.perf_counter() - t0


class Recorder:
    """What the operations of one run did: timings, counts, kept outputs."""

    KEEP_P = 0.05      # share of decodes kept for the output checks
    KEEP_MAX = 6

    def __init__(self, seed, tracer=None, gauged=True):
        self.role = FOCUS
        self.tracer = tracer
        self.gauged = gauged
        # (role, kind) -> [(seconds, amount, first ref, end ref)]
        self.samples = defaultdict(list)
        self.attempted = Counter()
        self.failed = Counter()
        self.greedy_calls = 0
        self.flat_ids = set()
        self.kept_greedy = []    # (model, src, max_len, DecodeResult)
        self.kept_beam = []      # (model, src, width, max_len, hypotheses)
        self._keep_rng = np.random.default_rng(sub_seed(seed, 7))
        self.reference = Reference()
        self.refs = []           # Reference.once() after every timed call
        self.ref_seconds = 0.0   # their sum, kept out of enclosing timings

    def add(self, kind, seconds, amount=1, first_ref=None):
        """Record a timed call; the reference passes from first_ref on, or
        else the one right after the call, gauge the machine during it."""
        lo = len(self.refs) if first_ref is None else first_ref
        hi = max(len(self.refs), lo + 1)
        self.samples[(self.role, kind)].append((seconds, amount, lo, hi))

    def gauge(self):
        """One pass of the reference routine, recorded."""
        if not self.gauged:
            return
        took = self.reference.once()
        self.refs.append(took)
        self.ref_seconds += took

    def timed(self, fn):
        """fn(), the seconds it took less any reference passes inside, and
        the index of the first of those passes."""
        first, before = len(self.refs), self.ref_seconds
        t0 = time.perf_counter()
        out = fn()
        took = time.perf_counter() - t0 - (self.ref_seconds - before)
        return out, took, first

    def pick(self, kind, calibrated=False):
        """(seconds, amount) samples of a kind from the focus operations,
        else from the companion's.

        Calibrated seconds are stated at nominal machine speed: each call's
        time is scaled by REF_NOMINAL_S over the mean reference pass within
        REF_WINDOW passes of the call.
        """
        samples = (self.samples.get((FOCUS, kind))
                   or self.samples.get((COMPANION, kind)) or [])
        if not calibrated:
            return [(s, a) for s, a, _, _ in samples]
        refs = self.refs
        return [(s * REF_NOMINAL_S / statistics.fmean(
                    refs[max(0, lo - REF_WINDOW):hi + REF_WINDOW]), a)
                for s, a, lo, hi in samples]

    def keep(self, kept):
        draw = self._keep_rng.random()
        return len(kept) < self.KEEP_MAX and (not kept or draw < self.KEEP_P)

    def phase(self, name, role):
        """A root span around set-up work when tracing, else nothing."""
        return self.tracer.root(name, role) if self.tracer else nullcontext()

    def attempt(self, kind, count, fn):
        """Run one operation of `count` units; an exception fails them all.

        The loop is the boundary that must keep running: the failure is
        counted, its traceback goes to stderr, and the next operation runs.
        """
        self.attempted[kind] += count
        try:
            with self.phase(kind, self.role):
                fn()
        except Exception:
            self.failed[kind] += count
            traceback.print_exc(file=sys.stderr)

    def speed(self):
        """REF_NOMINAL_S over the mean of all reference passes so far: the
        factor that states times taken among them at nominal speed."""
        return REF_NOMINAL_S / statistics.fmean(self.refs)


def install_recorder(sf, rec, run):
    """Time the decode calls of `run` that the end-to-end metrics need.

    Returns a function that takes the wrappers out again.
    """
    rec.flat_ids.update(id(m) for m in run.flat_models)
    undo = []

    def patch(owner, attr, make):
        orig = getattr(owner, attr)
        setattr(owner, attr, make(orig))
        undo.append((owner, attr, orig))

    def greedy(orig):
        def decode_greedy(model, src, max_len=64):
            t0 = time.perf_counter()
            out = orig(model, src, max_len)
            dt = time.perf_counter() - t0
            rec.greedy_calls += 1
            if id(model) not in rec.flat_ids:
                rec.add("decode.greedy", dt,
                        len(out.tokens) + (not out.truncated))
                if rec.keep(rec.kept_greedy):
                    rec.kept_greedy.append((model, list(src), max_len, out))
            rec.gauge()
            return out
        return decode_greedy

    def beam(orig):
        def decode_beam(model, src, width, max_len=64):
            t0 = time.perf_counter()
            out = orig(model, src, width, max_len)
            rec.add("decode.beam", time.perf_counter() - t0)
            if rec.keep(rec.kept_beam):
                rec.kept_beam.append((model, list(src), width, max_len, out))
            rec.gauge()
            return out
        return decode_beam

    # check_invariance calls the model module's name, the audits the
    # evaluation module's
    patch(sf.model, "decode_greedy", greedy)
    patch(sf.evaluation, "decode_greedy", greedy)
    patch(sf.evaluation, "decode_beam", beam)

    def restore():
        while undo:
            owner, attr, orig = undo.pop()
            setattr(owner, attr, orig)
    return restore


# -------------------------------------------------------------- operations

def prop_pairs(sf, seed, n):
    """Encoded gen_prop pairs plus their source texts."""
    data = sf.logic.gen_prop(seed, APS, SIZES, n)
    vocab = sf.logic.task_vocabulary("prop", APS)
    return vocab, [(vocab.encode(s), vocab.encode(t), s)
                   for s, t in data.pairs]


def fit_batches(pairs, batch_size, seed):
    """Batches in the order training.fit draws them: a seeded shuffle,
    topped up with a fresh permutation whenever it runs short."""
    rng = np.random.default_rng(seed)
    order = []
    while True:
        if len(order) < batch_size:
            order = rng.permutation(len(pairs)).tolist() + order
        take, order = order[:batch_size], order[batch_size:]
        yield [pairs[i] for i in take]


class Trainer:
    """train_step on default ModelConfig, batches of 16, Adam at 1e-3.

    Warm-up is 50 steps instead of TrainConfig's 500, so that the loss falls
    well within one run and the loss check has something to see.
    """

    def __init__(self, sf, vocab, seed, batches):
        self.sf = sf
        cfg = sf.training.TrainConfig(seed=seed, warmup=WARMUP)
        self.model = sf.model.Seq2SeqModel(sf.model.ModelConfig(), vocab,
                                           seed=seed)
        self.opt = sf.training.Adam(self.model.parameters(),
                                    lr=cfg.learning_rate, warmup=cfg.warmup)
        self.dropout_rng = np.random.default_rng(cfg.seed + 1)
        self.batches = batches
        self.losses = []
        self.first_batch = None

    def step(self, rec):
        batch = next(self.batches)
        if self.first_batch is None:
            self.first_batch = batch
        t0 = time.perf_counter()
        mets = self.sf.training.train_step(self.model, batch, self.opt,
                                           self.dropout_rng)
        dt = time.perf_counter() - t0
        rec.add("train.step", dt, sum(len(t) + 1 for _, t in batch))
        rec.gauge()
        self.losses.append(mets["loss"])


class Run:
    """State of one workload run: its operations and what they returned."""

    companion_kinds = ()

    def __init__(self, sf, seed, rec):
        self.sf = sf
        self.seed = seed
        self.trainers = []
        self.certify_reports = []
        self.stream_audits = []    # (source texts, AlphaCovReport)
        self.flat_audits = []
        self.flat_models = []
        self.symbols = "".join(sf.logic.task_vocabulary("prop", APS)
                               .inter_tokens)
        with rec.phase("setup", FOCUS):
            self.setup_focus()
        with rec.phase("setup", COMPANION):
            self.companion = Companion(self, self.companion_kinds)

    def setup_focus(self):
        pass

    def focus_round(self, rec, r):
        raise NotImplementedError

    def round(self, rec, r):
        rec.role = FOCUS
        self.focus_round(rec, r)
        rec.role = COMPANION
        self.companion.round(rec, r)
        rec.role = FOCUS

    # operations shared by focus and companion ---------------------------

    def certify(self, rec, seed, trials, task=None):
        def op():
            rep, took, first = rec.timed(
                lambda: self.sf.evaluation.certify_invariance(
                    None, n_trials=trials, seed=seed, task=task,
                    max_len=CERTIFY_MAX_LEN))
            rec.add("certify.trial", took, rep.trials, first)
            self.certify_reports.append(rep)
        rec.attempt("certify.trial", trials, op)

    def audit(self, rec, model, pairs, flat):
        kind = "alphacov.flat_sample" if flat else "alphacov.sample"
        data = self.sf.logic.Dataset("prop", APS,
                                     [(text, "") for _, _, text in pairs])

        def op():
            rep, took, first = rec.timed(
                lambda: self.sf.evaluation.alpha_covariance_suite(
                    model, data, seed=self.seed, max_len=AUDIT_MAX_LEN))
            rec.add(kind, took, len(rep.values), first)
            entry = ([text for _, _, text in pairs], rep)
            (self.flat_audits if flat else self.stream_audits).append(entry)
        rec.attempt(kind, len(pairs), op)

    def beam(self, rec, model, pairs):
        vocab = model.vocab
        data = self.sf.logic.Dataset(
            "prop", APS, [(text, vocab.decode(t)) for _, t, text in pairs])
        rec.attempt("decode.beam", len(pairs),
                    lambda: self.sf.evaluation.eval_correct(
                        model, data, beam_width=BEAM_WIDTH,
                        max_len=AUDIT_MAX_LEN))

    def check(self, rec):
        """Failure messages of every output check that applies to the run."""
        fails = []
        for tr in self.trainers:
            fails += checks.losses_finite(tr.losses)
        fails += checks.certify_passed(self.certify_reports)
        fails += checks.alphacov_exact(self.stream_audits, self.symbols)
        fails += checks.alphacov_exact(self.flat_audits, self.symbols,
                                       stream=False)
        fails += checks.greedy_consistent(self.sf, rec.kept_greedy)
        fails += checks.beam_consistent(self.sf, rec.kept_beam)
        return fails + self.check_focus(rec)

    def check_focus(self, rec):
        return []


class Companion:
    """One unit of each operation kind the focus lacks, on fixed inputs."""

    def __init__(self, run, kinds):
        sf = run.sf
        self.run = run
        self.kinds = kinds
        vocab, pairs = prop_pairs(sf, COMPANION_SEED, 64)
        by_count = strata(pairs, run.symbols)
        if "train" in kinds:
            fixed = [p[:2] for p in pairs[:2 * BATCH]]
            batches = itertools.cycle([fixed[:BATCH], fixed[BATCH:]])
            self.trainer = Trainer(sf, vocab, COMPANION_SEED, batches)
            run.trainers.append(self.trainer)
        if "audit" in kinds or "beam" in kinds:
            cfg = sf.model.ModelConfig()
            self.model = sf.model.Seq2SeqModel(cfg, vocab, COMPANION_SEED)
            self.flat = sf.model.FlatVocabTransformer(cfg, vocab,
                                                      COMPANION_SEED)
            run.flat_models.append(self.flat)
            self.audit_pair = by_count[1][0]
            self.beam_pair = by_count[2][0]

    def round(self, rec, r):
        run = self.run
        if "train" in self.kinds:
            for _ in range(2):
                rec.attempt("train.step", 1, lambda: self.trainer.step(rec))
        if "certify" in self.kinds:
            run.certify(rec, COMPANION_SEED, 1, task="prop")
        if "audit" in self.kinds:
            run.audit(rec, self.model, [self.audit_pair], flat=False)
            run.audit(rec, self.flat, [self.audit_pair], flat=True)
        if "beam" in self.kinds:
            run.beam(rec, self.model, [self.beam_pair])


def strata(pairs, symbols):
    """Pairs grouped by how many distinct symbols their source uses, 1..APS."""
    out = {k: [] for k in range(1, APS + 1)}
    for p in pairs:
        k = checks.symbol_count(p[2], symbols)
        if k in out:
            out[k].append(p)
    return out


# --------------------------------------------------------------- workloads

class TrainProp4(Run):
    """The fit loop on prop-4 data with default ModelConfig and B=16."""

    companion_kinds = ("certify", "audit", "beam")

    def setup_focus(self):
        vocab, pairs = prop_pairs(self.sf, self.seed, TRAIN_PAIRS)
        self.pairs = [p[:2] for p in pairs]
        batches = fit_batches(self.pairs, BATCH, self.seed)
        self.trainer = Trainer(self.sf, vocab, self.seed, batches)
        self.trainers.append(self.trainer)

    def focus_round(self, rec, r):
        for _ in range(TRAIN_STEPS_PER_ROUND):
            rec.attempt("train.step", 1, lambda: self.trainer.step(rec))

    def check_focus(self, rec):
        tr = self.trainer
        fails = checks.loss_falls(tr.losses)
        if tr.first_batch is not None:
            rng = np.random.default_rng(sub_seed(self.seed, 11))
            fails += checks.gradient_matches_fd(self.sf, tr.model,
                                                tr.first_batch, rng)
            fails += checks.invariant_after_training(self.sf, tr.model,
                                                     self.pairs, rng)
        return fails


class CertifyFresh(Run):
    """certify_invariance with fresh default models on all three tasks."""

    companion_kinds = ("train", "audit", "beam")

    def focus_round(self, rec, r):
        self.certify(rec, sub_seed(self.seed, 3, r), CERTIFY_TRIALS_PER_ROUND)


class AuditProp4(Run):
    """Alpha-covariance audits of a stream and a flat model, plus beam-4
    evaluation, on prop-4 sources stratified by symbol count.

    The sources come from --seed; the two models' weights do not.  Greedy
    decodes of fresh models run to max_len whatever the weights, but with
    some weights (seeds 0, 1, 7 among 0..11) beam search meets the end
    marker early, which cut one run's beam time to a third.  With seed 2
    every beam of 64 sampled sources ran all 12 steps, so every run does
    the same work per decode.
    """

    companion_kinds = ("train", "certify")

    def setup_focus(self):
        vocab, pairs = prop_pairs(self.sf, self.seed, AUDIT_PAIRS)
        self.strata = strata(pairs, self.symbols)
        cfg = self.sf.model.ModelConfig()
        self.model = self.sf.model.Seq2SeqModel(cfg, vocab, MODEL_SEED)
        self.flat = self.sf.model.FlatVocabTransformer(cfg, vocab,
                                                       MODEL_SEED)
        self.flat_models.append(self.flat)

    def _take(self, k, i):
        group = self.strata[k]
        return group[i % len(group)]

    def focus_round(self, rec, r):
        audit = [self._take(k, r) for k in self.strata]
        self.audit(rec, self.model, audit, flat=False)
        self.audit(rec, self.flat, audit, flat=True)
        n = BEAMS_PER_STRATUM
        beams = [self._take(k, n * r + j) for k in self.strata
                 for j in range(n)]
        self.beam(rec, self.model, beams)

    def check_focus(self, rec):
        pairs = []
        for k in self.strata:
            src = self._take(k, 0)[0]
            best = self.sf.model.decode_beam(self.model, src, 1,
                                             AUDIT_MAX_LEN)[0]
            pairs.append((best, self.sf.model.decode_greedy(
                self.model, src, AUDIT_MAX_LEN)))
        return checks.beam1_is_greedy(pairs)


WORKLOADS = {
    "train-prop4": TrainProp4,
    "certify-fresh": CertifyFresh,
    "audit-prop4": AuditProp4,
}


def setup(sf, name, seed, rec):
    return WORKLOADS[name](sf, seed, rec)


def run_rounds(run, rec, seconds=None, rounds=None):
    """Whole rounds until `seconds` have passed or `rounds` are done.

    Returns the round count and the seconds the rounds took.
    """
    start = time.perf_counter()
    r = 0
    while True:
        run.round(rec, r)
        r += 1
        if rounds is not None:
            if r >= rounds:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return r, time.perf_counter() - start


# ----------------------------------------------------------------- metrics

def _rate(samples):
    seconds = sum(s for s, _ in samples)
    return sum(a for _, a in samples) / seconds if seconds > 0 else 0.0


def _ms_pct(samples, q):
    if not samples:
        return 0.0
    return float(np.percentile([1000.0 * s for s, _ in samples], q))


def end_to_end(rec, setup_seconds, peak_rss_mb, calibrated=True):
    """Every end-to-end metric {name: (value, unit)} of one run.

    Operation times are calibrated (see Recorder.pick) unless asked not to
    be; set-up seconds are taken as given.
    """
    def pick(kind):
        return rec.pick(kind, calibrated)
    steps = pick("train.step")
    greedy = pick("decode.greedy")
    beams = pick("decode.beam")
    values = {
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": peak_rss_mb,
        "train.tokens_per_s": _rate(steps),
        "train.step_ms.p50": _ms_pct(steps, 50),
        "train.step_ms.p90": _ms_pct(steps, 90),
        "certify.trials_per_s": _rate(pick("certify.trial")),
        "decode.greedy_ms.p50": _ms_pct(greedy, 50),
        "decode.greedy_ms.p90": _ms_pct(greedy, 90),
        "decode.tokens_per_s": _rate(greedy),
        "alphacov.samples_per_s": _rate(pick("alphacov.sample")),
        "alphacov.flat_samples_per_s": _rate(pick("alphacov.flat_sample")),
        "decode.beam_ms.p50": _ms_pct(beams, 50),
        "decode.beam_ms.p90": _ms_pct(beams, 90),
    }
    return {name: (values[name], unit) for name, unit in E2E_UNITS.items()}


def sample_counts(rec):
    """What each timed metric rests on: role, timed calls, units done."""
    out = {}
    for kind in ("train.step", "certify.trial", "decode.greedy",
                 "alphacov.sample", "alphacov.flat_sample", "decode.beam"):
        role = FOCUS if rec.samples.get((FOCUS, kind)) else COMPANION
        samples = rec.pick(kind)
        out[kind] = {"role": role, "calls": len(samples),
                     "units": sum(a for _, a in samples)}
    return out
