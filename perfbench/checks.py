"""Output checks, each computed apart from the code path it checks.

Every check returns a list of failure messages; an empty list is a pass.
Log-probabilities are recomputed here in numpy from teacher-forced logits,
so a decode is checked against a second, independent evaluation of the
same model rather than against itself.
"""
import math

import numpy as np

SCORE_TOL = 1e-9        # summed log-probabilities, recomputed
ARGMAX_TOL = 1e-9       # teacher-forced logits vs the decode's own
DISCREPANCY_TOL = 1e-6  # the certification bound
SOS, EOS = 1, 2         # reserved ids of every task vocabulary


def _forced_rows(sf, model, src, seq):
    """Teacher-forced logits, one row per token of seq."""
    with sf.tensor.no_grad():
        return model.forward(list(src), [SOS] + list(seq[:-1])).data


def _columns(model, src, seq):
    """Allowed logit columns for src and the column of each token of seq.

    Base tokens own their id's column; the i-th smallest interchangeable id
    of the source owns column base_size + i.
    """
    vocab = model.vocab
    nb = vocab.base_size
    inter = sorted({int(t) for t in src if nb <= int(t) < vocab.total_size})
    allowed = np.array(list(range(nb)) + [nb + i for i in range(len(inter))])
    cols = []
    for t in seq:
        t = int(t)
        if t < nb:
            cols.append(t)
        elif t in inter:
            cols.append(nb + inter.index(t))
        else:
            return allowed, None
    return allowed, cols


def _logprobs(rows, allowed, cols):
    """Log-softmax over the allowed columns at the chosen column per row."""
    vals = rows[:, allowed]
    top = vals.max(axis=1)
    lse = top + np.log(np.exp(vals - top[:, None]).sum(axis=1))
    return rows[np.arange(len(cols)), cols] - lse, top


def _emitted(result):
    return list(result.tokens) + ([] if result.truncated else [EOS])


def greedy_consistent(sf, kept):
    """Each kept greedy decode emits the argmax of every teacher-forced row,
    and its score is the summed log-softmax of what it emitted."""
    fails = []
    if not kept:
        fails.append("no greedy decode was kept for checking")
    for model, src, _, result in kept:
        seq = _emitted(result)
        if not seq:
            fails.append("greedy decode emitted nothing")
            continue
        allowed, cols = _columns(model, src, seq)
        if cols is None:
            fails.append(f"greedy decode of {src} emitted a symbol "
                         "the source does not hold")
            continue
        rows = _forced_rows(sf, model, src, seq)
        lp, top = _logprobs(rows, allowed, cols)
        chosen = rows[np.arange(len(cols)), cols]
        if (chosen < top - ARGMAX_TOL).any():
            step = int(np.argmax(chosen < top - ARGMAX_TOL))
            fails.append(f"greedy decode of {src} did not take the argmax "
                         f"at step {step}")
        if abs(float(lp.sum()) - result.score) > SCORE_TOL:
            fails.append(f"greedy score {result.score!r} differs from the "
                         f"recomputed {float(lp.sum())!r}")
    return fails


def beam_consistent(sf, kept):
    """Beam hypotheses come best first, each scored as teacher forcing
    scores it."""
    fails = []
    if not kept:
        fails.append("no beam decode was kept for checking")
    for model, src, width, _, hyps in kept:
        if not 1 <= len(hyps) <= width:
            fails.append(f"beam of width {width} returned {len(hyps)} "
                         "hypotheses")
        scores = [h.score for h in hyps]
        if any(a < b for a, b in zip(scores, scores[1:])):
            fails.append(f"beam hypotheses of {src} are not sorted: {scores}")
        for h in hyps:
            seq = _emitted(h)
            if not seq:
                continue
            allowed, cols = _columns(model, src, seq)
            if cols is None:
                fails.append(f"beam hypothesis of {src} holds a symbol the "
                             "source does not")
                continue
            lp, _ = _logprobs(_forced_rows(sf, model, src, seq), allowed,
                              cols)
            if abs(float(lp.sum()) - h.score) > SCORE_TOL:
                fails.append(f"beam score {h.score!r} differs from the "
                             f"recomputed {float(lp.sum())!r}")
    return fails


def beam1_is_greedy(pairs):
    """Width-1 beam search and greedy decoding agree token for token.

    pairs holds (best width-1 hypothesis, greedy result) per source.
    """
    fails = []
    for beam, greedy in pairs:
        if list(beam.tokens) != list(greedy.tokens):
            fails.append(f"beam width 1 gave {beam.tokens}, greedy gave "
                         f"{greedy.tokens}")
        elif abs(beam.score - greedy.score) > SCORE_TOL:
            fails.append(f"beam width 1 scored {beam.score!r}, greedy "
                         f"{greedy.score!r}")
    return fails


def certify_passed(reports):
    """Every certification trial decoded alike and matched within 1e-6."""
    fails = []
    for rep in reports:
        if rep.failures:
            fails.append(f"certification: {rep.failures} of {rep.trials} "
                         "trials failed")
        if not rep.worst_discrepancy <= DISCREPANCY_TOL:
            fails.append("certification: logit discrepancy "
                         f"{rep.worst_discrepancy!r} exceeds 1e-6")
    return fails


def symbol_count(text, symbols):
    return len({ch for ch in text if ch in symbols})


def alphacov_exact(audits, symbols, stream=True):
    """Renaming sets are complete and, for the stream model, every sample
    has alpha-covariance exactly 1.0 with none skipped.

    audits holds (source texts, AlphaCovReport) per audit call; symbols is
    the interchangeable alphabet, so P(|symbols|, k) is the full set size.
    """
    fails = []
    for sources, rep in audits:
        want = [math.perm(len(symbols), symbol_count(s, symbols))
                for s in sources]
        if rep.skipped:
            fails.append(f"alpha-cov skipped {rep.skipped} samples")
        if list(rep.p_sizes) != want:
            fails.append(f"renaming set sizes {list(rep.p_sizes)}, "
                         f"expected {want}")
        if stream and any(v != 1.0 for v in rep.values):
            fails.append(f"stream model alpha-covariance {list(rep.values)}"
                         " is not exactly 1.0")
    return fails


def losses_finite(losses):
    bad = [i for i, v in enumerate(losses) if not math.isfinite(v)]
    return [f"non-finite loss at steps {bad[:5]}"] if bad else []


def loss_falls(losses, window=20, ratio=0.5):
    """The mean of the last `window` losses is below ratio x the first's."""
    if len(losses) < 2 * window:
        return [f"only {len(losses)} training steps; the loss check needs "
                f"{2 * window}"]
    first = float(np.mean(losses[:window]))
    last = float(np.mean(losses[-window:]))
    if not last < ratio * first:
        return [f"loss did not fall: first {window} steps {first:.4f}, "
                f"last {window} steps {last:.4f}"]
    return []


def gradient_matches_fd(sf, model, batch, rng, coords=12, h=1e-6, tol=1e-4):
    """Backward's gradients agree with finite differences of the loss.

    The loss is the training loss of `batch` at the model's current AdaCos
    scale; coordinates are drawn from `rng`, a parameter first, then an
    entry of it.  The error is relative, |a - d| / max(1e-3, |a| + |d|), as
    in tensor.gradient_check.  A ReLU kink inside [x - h, x + h] spoils the
    central difference but only one of the two one-sided ones, so a
    coordinate passes when the central, forward or backward difference
    agrees; a wrong gradient disagrees with all three.
    """
    T, tr = sf.tensor, sf.training
    srcs = [list(s) for s, _ in batch]
    dec_in = [[SOS] + list(t) for _, t in batch]
    width = max(len(t) for _, t in batch) + 1
    cols = np.zeros((len(batch), width), dtype=np.int64)
    mask = np.zeros((len(batch), width))
    for b, (src, tgt) in enumerate(batch):
        c = model.label_columns(src, list(tgt) + [EOS])
        cols[b, :len(c)] = c
        mask[b, :len(c)] = 1.0
    scale = model.adacos.scale if model.adacos is not None else 1.0

    def loss():
        logits, _ = model.forward_batch(srcs, dec_in)
        return tr.sequence_loss(logits, cols, mask, scale)

    def rel(a, d):
        return abs(a - d) / max(1e-3, abs(a) + abs(d))

    params = [p for p in model.parameters() if p.trainable]
    for p in params:
        p.zero_grad()
    T.backward(loss())
    grads = [None if p.grad is None else p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()
    fails = []
    with T.no_grad():
        mid = float(loss().data)
        for _ in range(coords):
            j = int(rng.integers(len(params)))
            p = params[j]
            i = int(rng.integers(p.data.size))
            flat = p.data.reshape(-1)
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss().data)
            flat[i] = orig - h
            down = float(loss().data)
            flat[i] = orig
            ad = 0.0 if grads[j] is None else float(grads[j].reshape(-1)[i])
            diffs = ((up - down) / (2.0 * h), (up - mid) / h, (mid - down) / h)
            if min(rel(ad, d) for d in diffs) > tol:
                fails.append(f"gradient of {p.name}[{i}]: backward {ad!r}, "
                             f"finite differences {diffs!r}")
    return fails


def invariant_after_training(sf, model, pairs, rng, trials=3, max_len=24):
    """The trained model passes check_invariance on random renamings."""
    fails = []
    for _ in range(trials):
        src, _ = pairs[int(rng.integers(len(pairs)))]
        f = sf.streams.AlphaRenaming.random(model.vocab, rng)
        rep = sf.model.check_invariance(model, src, f, max_len=max_len)
        if not rep.passed:
            fails.append(f"trained model fails invariance on {list(src)}: "
                         f"discrepancy {rep.max_logit_discrepancy!r}, "
                         f"decodes match {rep.decode_match}")
    return fails
