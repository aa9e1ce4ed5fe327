"""Task-level evaluation: semantic scoring, renaming audits, certification.

Everything here treats the model as a black box that maps token ids to token
ids.  Predictions are judged semantically (does the assignment force the
formula, does every concretization of the trace satisfy it) rather than by
string match, with token-exact match reported alongside.  Renaming audits
quantify how consistently a model answers alpha-equivalent inputs.
"""

import itertools
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ResourceError, VocabularyError
from .logic import (check_assignment, check_symbolic_trace, gen_copying,
                    gen_ltl, gen_prop, parse_assignment, parse_ltl,
                    parse_prop, parse_trace, random_formula, task_vocabulary,
                    unparse)
from .model import ModelConfig, Seq2SeqModel, check_invariance, decode_beam, \
    decode_greedy
from .streams import SOS_ID, AlphaRenaming, sequence_stream_ids


def edit_distance(a, b) -> int:
    """Levenshtein distance between two sequences (unit costs)."""
    a, b = list(a), list(b)
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


# ------------------------------------------------------------ renaming audit

def _enumerable(k, m):
    # small spaces, and any with fewer injections than a sample holds, are
    # enumerated outright; everything else is sampled
    return (k <= 4 and m <= 6) or math.perm(m, k) < 24


def renaming_set(vocab, used, seed=0):
    """Renamings exercising every relabeling of the symbols in `used`.

    When at most 4 used symbols draw from a tier of at most 6, or there
    are fewer than 24 injections, all injections into the tier are
    enumerated; larger spaces get 24 distinct injections sampled
    deterministically from `seed`.  Each injection is
    completed to a full permutation by pairing leftovers in id order.
    """
    ids = list(vocab.inter_ids())
    used = sorted({int(t) for t in used})
    for t in used:
        if t not in ids:
            raise VocabularyError(f"id {t} is not interchangeable")
    k, m = len(used), len(ids)
    if _enumerable(k, m):
        images = list(itertools.permutations(ids, k))
    else:
        rng = np.random.default_rng(seed)
        seen, images = set(), []
        while len(images) < 24:
            img = tuple(int(x) for x in rng.choice(ids, size=k,
                                                   replace=False))
            if img not in seen:
                seen.add(img)
                images.append(img)
    out = []
    for img in images:
        mapping = dict(zip(used, img))
        taken = set(img)
        left_src = [t for t in ids if t not in mapping]
        left_dst = [t for t in ids if t not in taken]
        mapping.update(zip(left_src, left_dst))
        out.append(AlphaRenaming(vocab, mapping))
    return out


def alpha_covariance(model, pair, renamings, max_len=64):
    """1 - (|U|-1)/(|P|-1) over un-renamed predictions for one input.

    Each renaming is applied to the source, the model decodes, and the
    renaming is undone on the output; U is the set of distinct results.
    1.0 means every alpha-variant produced the same answer.
    """
    src = list(pair[0])
    if len(renamings) < 2:
        raise ContractError("need at least 2 renamings to measure covariance")
    preds = set()
    for f in renamings:
        out = decode_greedy(model, f(src), max_len=max_len)
        preds.add(tuple(f.inverse()(out.tokens)))
    return 1.0 - (len(preds) - 1) / (len(renamings) - 1)


@dataclass(frozen=True)
class AlphaCovReport:
    """Per-sample renaming-consistency audit over one dataset."""

    ap_count: int
    values: tuple
    p_sizes: tuple
    sampled: int    # samples whose renaming set was sampled, not enumerated
    skipped: int    # samples with fewer than 2 applicable renamings

    @property
    def mean(self):
        if not self.values:
            raise ContractError("no samples were measurable")
        return float(np.mean(self.values))


def _cell_seed(*parts):
    return int(np.random.SeedSequence(tuple(int(p) for p in parts))
               .generate_state(1)[0])


def alpha_covariance_suite(model, dataset, seed=0, max_len=64):
    """Audit every pair in a dataset; see alpha_covariance for the measure."""
    vocab = model.vocab
    values, p_sizes = [], []
    sampled = skipped = 0
    for i, (src_text, _) in enumerate(dataset.pairs):
        src = vocab.encode(src_text)
        used = sequence_stream_ids(src, vocab)
        fs = renaming_set(vocab, used, seed=_cell_seed(seed, i))
        if len(fs) < 2:
            skipped += 1
            continue
        if not _enumerable(len(used), vocab.inter_size):
            sampled += 1
        values.append(alpha_covariance(model, (src, None), fs, max_len))
        p_sizes.append(len(fs))
    return AlphaCovReport(dataset.ap_count, tuple(values), tuple(p_sizes),
                          sampled, skipped)


# -------------------------------------------------------- semantic scoring

def prediction_correct(task, src_text, pred_text):
    """Semantic acceptance of one prediction; malformed output is wrong.

    Raises ResourceError when the check itself blows its enumeration
    budget; callers decide how to account for that.
    """
    try:
        if task == "copying":
            return pred_text == src_text
        if task == "prop":
            return check_assignment(parse_prop(src_text),
                                    parse_assignment(pred_text))
        if task == "ltl":
            return check_symbolic_trace(parse_ltl(src_text),
                                        parse_trace(pred_text))
    except ResourceError:
        raise
    except ContractError:
        return False
    raise ContractError(f"unknown task {task!r}")


def _encode_source(vocab, task, src_text):
    """A dataset source's ids.  A prop or ltl source must parse as a
    formula; one that does not (nested past logic.MAX_NESTING, say) raises
    ParseError here, before anything is decoded."""
    if task == "prop":
        parse_prop(src_text)
    elif task == "ltl":
        parse_ltl(src_text)
    return vocab.encode(src_text)


def _judged(task, src_text, tokens, vocab):
    """prediction_correct on decoded tokens, and whether the check blew its
    budget; a blown check counts as incorrect."""
    try:
        ok = prediction_correct(task, src_text, vocab.decode(tokens))
    except ResourceError:
        return False, True
    return bool(ok), False


def _score(model, task, pairs, beam_width, max_len, top=1):
    """Beam-decode each source and judge its answers, best first, until
    one of the first `top` is correct.  Width 1 is greedy decoding.

    Returns counts of sources with a semantically correct answer among
    those judged, of sources whose best answer is token-exact, and of
    checks that exceeded their resource budget.
    """
    vocab = model.vocab
    correct = exact = blown = 0
    for src_text, tgt_text in pairs:
        src = _encode_source(vocab, task, src_text)
        preds = decode_beam(model, src, beam_width, max_len=max_len)
        exact += list(preds[0].tokens) == vocab.encode(tgt_text)
        for pred in preds[:top]:
            ok, over = _judged(task, src_text, pred.tokens, vocab)
            blown += over
            if ok:
                correct += 1
                break
    return correct, exact, blown


def eval_correct(model, dataset, beam_width=1, max_len=64):
    """Semantic and token-exact accuracy over a dataset.

    Returns fractions in [0,1] plus how many semantic checks exceeded
    their resource budget (those count as incorrect).
    """
    if beam_width < 1:
        raise ContractError("beam width must be at least 1")
    n = len(dataset.pairs)
    if n == 0:
        raise ContractError("empty dataset")
    correct, exact, blown = _score(model, dataset.task, dataset.pairs,
                                   beam_width, max_len)
    return {"n": n, "correct": correct / n, "exact": exact / n,
            "resource_exceeded": blown}


def topn_accuracy(model, dataset, n, max_len=64):
    """Fraction of inputs with a semantically correct answer in the top n."""
    if n < 1:
        raise ContractError("n must be positive")
    if not dataset.pairs:
        raise ContractError("empty dataset")
    correct, _, _ = _score(model, dataset.task, dataset.pairs, n, max_len,
                           top=n)
    return correct / len(dataset.pairs)


# ------------------------------------------------------------------ heatmap

@dataclass(frozen=True)
class GridSpec:
    task: str
    ap_counts: tuple
    lengths: tuple
    per_cell: int = 20
    beam_width: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.per_cell < 1:
            raise ContractError("per_cell must be positive")
        if self.beam_width < 1:
            raise ContractError("beam width must be at least 1")


@dataclass(frozen=True)
class HeatmapGrid:
    """Accuracy cells over AP count x formula size."""

    task: str
    cells: tuple    # rows (ap, length, n, correct, exact)

    def to_csv(self):
        lines = ["ap,len,n,correct,exact"]
        for ap, length, n, correct, exact in self.cells:
            lines.append(f"{ap},{length},{n},{correct},{exact}")
        return "\n".join(lines) + "\n"


def _generate_cell(task, ap, length, per_cell, seed):
    gen = {"copying": gen_copying, "prop": gen_prop, "ltl": gen_ltl}[task]
    with warnings.catch_warnings():
        # a sparse cell is reported as small, not complained about
        warnings.simplefilter("ignore")
        return gen(seed, ap, (length, length), per_cell)


def heatmap(model, spec: GridSpec):
    """Evaluate freshly generated samples on every (ap, length) cell.

    Cells the generator cannot populate appear with n=0.  Identical specs
    produce byte-identical CSVs; generation is seeded per cell.
    """
    for ap in spec.ap_counts:
        if ap > model.vocab.inter_size:
            raise VocabularyError(
                f"model vocabulary has {model.vocab.inter_size} "
                f"interchangeable symbols, cell wants {ap}")
    cells = []
    for ap in spec.ap_counts:
        for length in spec.lengths:
            d = _generate_cell(spec.task, ap, length, spec.per_cell,
                               _cell_seed(spec.seed, ap, length))
            correct, exact, _ = _score(model, spec.task, d.pairs,
                                       spec.beam_width, 64)
            cells.append((ap, length, len(d.pairs), correct, exact))
    return HeatmapGrid(spec.task, tuple(cells))


# ------------------------------------------------------------ certification

_CERT_TASKS = ("copying", "prop", "ltl")


@dataclass(frozen=True)
class TaskCertificate:
    task: str
    trials: int
    failures: int
    worst_discrepancy: float
    ties_flagged: int


@dataclass(frozen=True)
class CertifyReport:
    per_task: tuple

    @property
    def trials(self):
        return sum(t.trials for t in self.per_task)

    @property
    def failures(self):
        return sum(t.failures for t in self.per_task)

    @property
    def worst_discrepancy(self):
        return max(t.worst_discrepancy for t in self.per_task)

    @property
    def ties_flagged(self):
        return sum(t.ties_flagged for t in self.per_task)

    @property
    def passed(self):
        return self.failures == 0


def _random_task_input(task, vocab, rng):
    if task == "copying":
        length = int(rng.integers(3, 13))
        ids = list(vocab.inter_ids())
        return [ids[i] for i in rng.integers(0, len(ids), length)]
    pool = "".join(vocab.surface(t) for t in vocab.inter_ids())
    phi = random_formula(rng, task, int(rng.integers(3, 11)), pool)
    return vocab.encode(unparse(phi))


def certify_invariance(model=None, n_trials=500, seed=0, task=None,
                       config=None, max_len=48):
    """Randomized renaming-invariance certification.

    With no model given, a fresh untrained model is built per task and the
    trials are split across all three, at least one each; the property is
    architectural, so arbitrary weights are the honest default.  A
    supplied model is certified on its own task (which must be named) with
    all trials.
    Pass requires every trial to decode token-identically under renaming
    with aligned teacher-forced logits within 1e-6.
    """
    if n_trials < 1:
        raise ContractError("n_trials must be positive")
    if model is not None:
        if task not in _CERT_TASKS:
            raise ContractError("a supplied model needs its task named")
        jobs = [(task, model, n_trials)]
    else:
        if task is not None and task not in _CERT_TASKS:
            raise ContractError(f"unknown task {task!r}")
        tasks = (task,) if task else _CERT_TASKS
        if n_trials < len(tasks):
            raise ContractError(f"n_trials must be at least {len(tasks)}, "
                                f"one per task certified")
        share = n_trials // len(tasks)
        counts = [share + (1 if i < n_trials % len(tasks) else 0)
                  for i in range(len(tasks))]
        cfg = config or ModelConfig()
        jobs = []
        for i, t in enumerate(tasks):
            m = Seq2SeqModel(cfg, task_vocabulary(t, 3),
                             seed=_cell_seed(seed, i) % (2 ** 31))
            jobs.append((t, m, counts[i]))
    certs = []
    for i, (t, m, count) in enumerate(jobs):
        rng = np.random.default_rng(_cell_seed(seed, 100 + i))
        failures = ties = 0
        worst = 0.0
        for _ in range(count):
            src = _random_task_input(t, m.vocab, rng)
            f = AlphaRenaming.random(m.vocab, rng)
            rep = check_invariance(m, src, f, max_len=max_len)
            failures += not rep.passed
            ties += rep.ties_flagged
            worst = max(worst, rep.max_logit_discrepancy)
        certs.append(TaskCertificate(t, count, failures, worst, ties))
    return CertifyReport(tuple(certs))


# ----------------------------------------------------------------- timing

@dataclass(frozen=True)
class TimingTable:
    rows: tuple    # (stream_count, median_ms)
    slope: float
    intercept: float
    r_squared: float


def time_scaling(model, ap_counts, samples_per_point=20, length=24):
    """Median teacher-forced forward time per sample at each stream count.

    Inputs are fixed-length sequences touching exactly s distinct
    interchangeable symbols, so the stream count is the only thing that
    varies.  The counts take turns, one forward each per round, so a
    phase of slow machine speed slows every count alike instead of
    skewing one.  Reports a least-squares linear fit of ms against s.
    """
    if len(set(ap_counts)) < len(ap_counts):
        raise ContractError("stream counts must not repeat")
    if len(ap_counts) < 2:
        raise ContractError("need at least two stream counts to fit a line")
    if samples_per_point < 1:
        raise ContractError("samples_per_point must be positive")
    if length < max(ap_counts):
        raise ContractError(f"length {length} cannot touch "
                            f"{max(ap_counts)} distinct symbols")
    ids = list(model.vocab.inter_ids())
    inputs = []
    for s in ap_counts:
        if not 1 <= s <= len(ids):
            raise ContractError(f"no {s}-symbol input in this vocabulary")
        src = [ids[i % s] for i in range(length)]
        inputs.append((src, [SOS_ID] + src[:-1]))
        model.forward(*inputs[-1])    # warm up allocators before timing
    times = [[] for _ in inputs]
    for _ in range(samples_per_point):
        for (src, dec), ts in zip(inputs, times):
            t0 = time.perf_counter()
            model.forward(src, dec)
            ts.append((time.perf_counter() - t0) * 1000.0)
    rows = [(int(s), float(np.median(ts))) for s, ts in zip(ap_counts, times)]
    xs = np.array([r[0] for r in rows], dtype=float)
    ys = np.array([r[1] for r in rows], dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    ss_res = float(np.sum(resid ** 2))
    r2 = 1.0 if ss_tot < 1e-12 else 1.0 - ss_res / ss_tot
    return TimingTable(tuple(rows), float(slope), float(intercept),
                       float(r2))
