"""Training harness: adaptive cosine scaling, Adam with warmup, fit loop.

The cosine head emits raw cosines, so a learned-free scale has to supply
the logit magnitude.  The scale follows the adaptive rule: before each
step it is re-estimated from the batch so that the softmax sees a
temperature matched to the current angle statistics, and the estimate
stays outside the gradient.

Loss is token-level cross-entropy pooled over every non-pad target
position in the batch.  Target symbols that are interchangeable are
remapped to the output column of the stream that owns them in their own
source sequence.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError
from .model import save_model
from .streams import EOS_ID, SOS_ID

SCALE_MIN = 1.0
SCALE_MAX = 64.0


@dataclass
class AdaCosState:
    """Current softmax scale and the class count it was derived for."""
    scale: float
    class_count: int

    @staticmethod
    def initial(class_count):
        if class_count < 2:
            raise ContractError("scale needs at least two classes")
        s0 = np.sqrt(2.0) * np.log(class_count - 1.0)
        return AdaCosState(float(np.clip(s0, SCALE_MIN, SCALE_MAX)), class_count)


def adacos_update(state, cos_values, labels, mask):
    """Re-estimate the scale from one batch of raw cosine logits.

    cos_values (B, L, C) may hold -inf in unreachable columns; labels and
    mask are (B, L).  B_avg is the mean non-target exponential sum under
    the old scale, theta_med the median target angle, and the new scale
    log(B_avg) / cos(min(pi/4, theta_med)), clamped to [1, 64].  Pure
    numpy on detached data: the scale never receives gradient.
    """
    valid = np.asarray(mask) > 0
    if not valid.any():
        return state
    cos = cos_values[valid]
    lab = np.asarray(labels)[valid]
    tgt = np.take_along_axis(cos, lab[:, None], axis=1)[:, 0]
    e = np.exp(state.scale * cos)            # exp(-inf) = 0 drops dead columns
    e_tgt = np.take_along_axis(e, lab[:, None], axis=1)[:, 0]
    b_avg = float((e.sum(axis=1) - e_tgt).mean())
    theta_med = float(np.median(np.arccos(np.clip(tgt, -1.0, 1.0))))
    denom = np.cos(min(np.pi / 4.0, theta_med))
    s = np.log(max(b_avg, 1e-12)) / denom
    return AdaCosState(float(np.clip(s, SCALE_MIN, SCALE_MAX)), state.class_count)


def sequence_loss(logits, labels, mask, scale):
    """Mean cross-entropy over unmasked positions at the given scale, as
    one graph node.

    Handles -inf columns: the log-sum-exp shift is taken over finite
    entries only and the target score is gathered, never one-hot
    multiplied.  With z the scaled logits and e = exp(z - max z), the
    gradient is ((g / count) * mask / sum(e)) * e, minus that weight at
    the label, times the scale: softmax minus one-hot, in the arithmetic
    order of the op-by-op composition.
    """
    mask = np.asarray(mask, dtype=np.float64)
    count = float(mask.sum())
    if count <= 0:
        raise ContractError("loss needs at least one unmasked position")
    scale = float(scale)

    def forward(x):
        z = x * scale
        m = np.max(np.where(np.isfinite(z), z, -np.inf), axis=-1, keepdims=True)
        if not np.isfinite(m).all():
            raise ContractError("every position needs at least one finite logit")
        lab = np.asarray(labels, dtype=np.int64)
        if lab.shape != z.shape[:-1]:
            raise DimensionError(f"sequence_loss: label shape {lab.shape} "
                                 f"does not match {z.shape[:-1]}")
        if lab.size and (lab.min() < 0 or lab.max() >= z.shape[-1]):
            raise ContractError("sequence_loss: label out of range")
        lab = lab[..., None]
        e = np.exp(z - m)
        total = e.sum(axis=-1)
        nll = (np.log(total) + m[..., 0]) - np.take_along_axis(z, lab, -1)[..., 0]

        def vjp(g):
            w = (g / count) * mask                # each position's weight
            gz = (w / total)[..., None] * e
            # its own array, added, as in the composition: zeros keep their sign
            at_label = np.zeros_like(e)
            np.put_along_axis(at_label, lab, -w[..., None], axis=-1)
            gz += at_label
            gz *= scale
            return (gz,)

        return (nll * mask).sum() / count, vjp

    return T.fused(forward, logits)


class Adam:
    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr=1e-3, warmup=500):
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ContractError("duplicate parameter handed to the optimizer")
        self.lr = lr
        self.warmup = warmup
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.t += 1
        lr = self.lr
        if self.warmup > 0:
            lr *= min(1.0, self.t / self.warmup)
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            m[...] = self.b1 * m + (1.0 - self.b1) * g
            v[...] = self.b2 * v + (1.0 - self.b2) * g * g
            mh = m / (1.0 - self.b1 ** self.t)
            vh = v / (1.0 - self.b2 ** self.t)
            p.data = p.data - lr * mh / (np.sqrt(vh) + self.eps)


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 1000
    batch_size: int = 16
    learning_rate: float = 1e-3
    warmup: int = 500
    seed: int = 0
    log_every: int = 50
    checkpoint_every: int = 0    # 0: only a final checkpoint

    def __post_init__(self):
        if self.steps < 0 or self.batch_size < 1 or self.log_every < 1:
            raise ContractError("bad training configuration")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ContractError("learning_rate must be positive and finite")
        if self.warmup < 0 or self.checkpoint_every < 0 or self.seed < 0:
            raise ContractError("bad training configuration")


def _label_arrays(model, batch):
    """Column labels (B, Lmax) and validity mask for [tgt, EOS] rows."""
    B = len(batch)
    Lmax = max(len(t) for _, t in batch) + 1
    cols = np.zeros((B, Lmax), dtype=np.int64)
    mask = np.zeros((B, Lmax))
    for b, (src, tgt) in enumerate(batch):
        c = model.label_columns(src, list(tgt) + [EOS_ID])
        cols[b, :len(c)] = c
        mask[b, :len(c)] = 1.0
    return cols, mask


def train_step(model, batch, opt, dropout_rng=None):
    """One optimization step over a batch of (src, tgt) id pairs; a model
    with dropout needs dropout_rng."""
    if not batch:
        raise ContractError("empty batch")
    if model.cfg.dropout > 0 and dropout_rng is None:
        raise ContractError("dropout with rate > 0 needs an rng")
    opt.zero_grad()
    srcs = [list(s) for s, _ in batch]
    dec_in = [[SOS_ID] + list(t) for _, t in batch]
    cols, mask = _label_arrays(model, batch)
    logits, _ = model.forward_batch(srcs, dec_in, dropout_rng)
    if model.cfg.cosine_head:
        if model.adacos is None:
            model.adacos = AdaCosState.initial(model.vocab.total_size)
        model.adacos = adacos_update(model.adacos, logits.data, cols, mask)
        scale = model.adacos.scale
    else:
        scale = 1.0
    loss = sequence_loss(logits, cols, mask, scale)
    lval = float(loss.data)
    if not np.isfinite(lval):
        raise ContractError("loss became non-finite")
    T.backward(loss)
    # the norm of the gradient the optimizer applies, one dot per array
    grads = [p.grad.reshape(-1) for p in opt.params if p.grad is not None]
    gn = math.sqrt(sum(float(np.dot(g, g)) for g in grads))
    opt.step()
    return {"loss": lval, "scale": float(scale), "grad_norm": float(gn)}


def fit(model, pairs, cfg: TrainConfig, checkpoint_path=None, log=None):
    """Train on a list of (src, tgt) id pairs; returns per-step metrics.

    Batches are drawn from a seeded shuffle, reshuffled each epoch.  With
    a checkpoint path the model is saved every checkpoint_every steps (if
    nonzero) and once at the end, even when no step ran.  Same seed,
    same data, same model init: byte-identical checkpoints.
    """
    pairs = list(pairs)
    steps = cfg.steps if pairs else 0
    shuffle_rng = np.random.default_rng(cfg.seed)
    dropout_rng = np.random.default_rng(cfg.seed + 1)
    opt = Adam(model.parameters(), lr=cfg.learning_rate, warmup=cfg.warmup)
    order = []
    metrics = []
    t0 = time.perf_counter()
    for step in range(1, steps + 1):
        if len(order) < cfg.batch_size:
            order = shuffle_rng.permutation(len(pairs)).tolist() + order
        take, order = order[:cfg.batch_size], order[cfg.batch_size:]
        batch = [pairs[i] for i in take]
        mets = train_step(model, batch, opt, dropout_rng)
        mets = {"step": step, **mets, "wall": time.perf_counter() - t0}
        metrics.append(mets)
        if log is not None and (step % cfg.log_every == 0 or step == steps):
            log(f"step {step} loss {mets['loss']:.4f} s {mets['scale']:.2f} "
                f"grad_norm {mets['grad_norm']:.4f} wall {mets['wall']:.1f}s")
        if (checkpoint_path is not None and cfg.checkpoint_every
                and step % cfg.checkpoint_every == 0 and step < steps):
            save_model(model, checkpoint_path)
    if checkpoint_path is not None:
        save_model(model, checkpoint_path)
    return metrics
