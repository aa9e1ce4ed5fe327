"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation builds a node in an implicit computation graph: the output
tensor remembers its parent tensors and a vector-Jacobian closure.  Calling
``backward`` on a scalar walks the graph once in reverse topological order
and sums the gradients reaching each node into its ``.grad``.  Non-Tensor
operands (numpy arrays, python scalars) are treated as constants and
receive no gradient, which keeps masks and positional tables out of the
graph.

A vjp may return its input gradient itself or a view of it, so the first
gradient to reach a node is stored as it is and later ones are added out
of place: no stored gradient is ever written in place.  An interior
node's ``.grad`` is dropped as soon as its vjp has run, so after
``backward`` only leaves (parameters) hold gradients, and a leaf's
``.grad`` always owns its memory.  A matmul whose right operand is 2-D (a
weight) forms each gradient as one GEMM over every row of the left
operand, whatever its leading axes.

Besides the elementary ops, ``fused`` makes one node of a whole
sub-computation with a hand-written vjp (attention uses it), and
``rope_phases``/``rotate_pairs`` apply rotary position encoding as one
complex multiply per adjacent pair.

Determinism: arrays are C-ordered float64, reductions run through numpy's
pairwise summation in ascending index order, and the backward traversal
order is fixed by graph construction order.  A weight gradient's sum over
rows runs inside one BLAS GEMM, whose order depends on the BLAS build and
its thread count.  Two runs over identical inputs with the same BLAS and
the same BLAS thread count produce bit-identical numbers.

Example
-------
>>> w = Parameter("w", np.ones((2, 2)))
>>> y = matmul(Tensor([[1.0, 2.0]]), w.tensor)
>>> backward(tsum(y))
>>> w.grad
array([[1., 1.],
       [2., 2.]])
"""
from __future__ import annotations

import functools
import json
import math
import os
import secrets

import numpy as np

from .errors import ContractError, DimensionError

_GRAD_ENABLED = True


class no_grad:
    """Context manager that suspends graph recording (inference mode)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._saved = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._saved
        return False


def _asarray(x):
    return np.asarray(x, dtype=np.float64)


class Tensor:
    __slots__ = ("data", "grad", "parents", "vjp")

    def __init__(self, data, parents=(), vjp=None):
        self.data = _asarray(data)
        self.grad = None
        if _GRAD_ENABLED:
            self.parents = parents
            self.vjp = vjp
        else:
            self.parents = ()
            self.vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


class Parameter:
    """Named trainable leaf.  Tied parameters share one Tensor object."""

    def __init__(self, name, data, trainable=True):
        self.name = name
        self.tensor = Tensor(data)
        self.trainable = trainable

    @property
    def data(self):
        return self.tensor.data

    @data.setter
    def data(self, value):
        self.tensor.data = _asarray(value)

    @property
    def grad(self):
        return self.tensor.grad

    def zero_grad(self):
        self.tensor.grad = None

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.tensor.shape})"


def _data(x):
    return x.data if isinstance(x, Tensor) else _asarray(x)


def _node(out_data, srcs, grad_fns):
    """Build an output tensor; only Tensor operands become graph parents."""
    if not _GRAD_ENABLED:
        return Tensor(out_data)
    parents = []
    fns = []
    for s, fn in zip(srcs, grad_fns):
        if isinstance(s, Tensor):
            parents.append(s)
            fns.append(fn)
    if not parents:
        return Tensor(out_data)

    def vjp(g):
        return tuple(fn(g) for fn in fns)

    return Tensor(out_data, tuple(parents), vjp)


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == shape:
        return g
    if g.shape[g.ndim - len(shape):] == shape:
        # the operand is g's trailing shape (a gain or a bias): one sum
        return g.reshape(-1, *shape).sum(axis=0)
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b):
    ad, bd = _data(a), _data(b)
    return _node(ad + bd, (a, b),
                 (lambda g: _unbroadcast(g, ad.shape),
                  lambda g: _unbroadcast(g, bd.shape)))


def sub(a, b):
    ad, bd = _data(a), _data(b)
    return _node(ad - bd, (a, b),
                 (lambda g: _unbroadcast(g, ad.shape),
                  lambda g: _unbroadcast(-g, bd.shape)))


def mul(a, b):
    ad, bd = _data(a), _data(b)
    return _node(ad * bd, (a, b),
                 (lambda g: _unbroadcast(g * bd, ad.shape),
                  lambda g: _unbroadcast(g * ad, bd.shape)))


def div(a, b):
    ad, bd = _data(a), _data(b)
    out = ad / bd
    return _node(out, (a, b),
                 (lambda g: _unbroadcast(g / bd, ad.shape),
                  lambda g: _unbroadcast(-g * ad / (bd * bd), bd.shape)))


def matmul(a, b):
    ad, bd = _data(a), _data(b)
    if ad.ndim < 2 or bd.ndim < 2:
        raise DimensionError("matmul operands must have at least 2 axes")
    if ad.shape[-1] != bd.shape[-2]:
        raise DimensionError(
            f"matmul inner axes disagree: {ad.shape} @ {bd.shape}")
    out = np.matmul(ad, bd)
    if bd.ndim == 2:
        # a weight: fold every leading axis of a into rows, so each gradient
        # is one GEMM and the weight's sum over rows runs inside it
        K, N = bd.shape
        return _node(out, (a, b),
                     (lambda g: np.matmul(g.reshape(-1, N), bd.T).reshape(ad.shape),
                      lambda g: np.matmul(ad.reshape(-1, K).T, g.reshape(-1, N))))
    return _node(out, (a, b),
                 (lambda g: _unbroadcast(np.matmul(g, bd.swapaxes(-1, -2)), ad.shape),
                  lambda g: _unbroadcast(np.matmul(ad.swapaxes(-1, -2), g), bd.shape)))


def reshape(a, shape):
    ad = _data(a)
    return _node(ad.reshape(shape), (a,),
                 (lambda g: g.reshape(ad.shape),))


def transpose(a, axes):
    ad = _data(a)
    inv = np.argsort(axes)
    return _node(np.transpose(ad, axes), (a,),
                 (lambda g: np.transpose(g, inv),))


def tsum(a, axis=None, keepdims=False):
    ad = _data(a)

    def back(g):
        if axis is None:
            return np.broadcast_to(g, ad.shape).copy()
        gg = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg, ad.shape).copy()

    return _node(ad.sum(axis=axis, keepdims=keepdims), (a,), (back,))


def exp(a):
    out = np.exp(_data(a))
    return _node(out, (a,), (lambda g: g * out,))


def log(a):
    ad = _data(a)
    return _node(np.log(ad), (a,), (lambda g: g / ad,))


def sqrt(a):
    out = np.sqrt(_data(a))
    return _node(out, (a,), (lambda g: g * (0.5 / out),))


def relu(a):
    ad = _data(a)
    keep = (ad > 0).astype(np.float64)
    return _node(ad * keep, (a,), (lambda g: g * keep,))


def gather_rows(table, ids):
    """Row lookup table[ids]; the gradient is one GEMM of a one-hot
    (table rows x ids) matrix with the gradient's rows."""
    td = _data(table)
    idx = np.asarray(ids)
    if idx.size and (idx.min() < 0 or idx.max() >= td.shape[0]):
        raise ContractError("gather_rows: index out of range")
    out = td[idx]

    def back(g):
        flat = idx.reshape(-1)
        onehot = np.arange(td.shape[0])[:, None] == flat[None, :]
        return np.matmul(onehot.astype(np.float64),
                         g.reshape(flat.size, -1)).reshape(td.shape)

    return _node(out, (table,), (back,))


def take_along_last(a, idx):
    """Pick one entry per row over the last axis: out[..., ] = a[..., idx].

    idx has the shape of a minus its last axis.  Used to pull target-class
    scores out of logits without touching the other columns, which may
    hold -inf sentinels that a one-hot multiply would turn into nan.
    """
    ad = _data(a)
    ix = np.asarray(idx, dtype=np.int64)
    if ix.shape != ad.shape[:-1]:
        raise DimensionError(
            f"take_along_last: index shape {ix.shape} does not match {ad.shape[:-1]}")
    if ix.size and (ix.min() < 0 or ix.max() >= ad.shape[-1]):
        raise ContractError("take_along_last: index out of range")
    out = np.take_along_axis(ad, ix[..., None], axis=-1)[..., 0]

    def back(g):
        buf = np.zeros_like(ad)
        np.put_along_axis(buf, ix[..., None], g[..., None], axis=-1)
        return buf

    return _node(out, (a,), (back,))


def _rowdot(a, b):
    """Dot products of matching rows over the last axis, kept as (..., 1)."""
    return np.einsum("...i,...i->...", a, b)[..., None]


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize over the last axis, then scale and shift."""
    xd, gd, bd = _data(x), _data(gain), _data(bias)
    n = xd.shape[-1]
    xhat = xd - xd.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(_rowdot(xhat, xhat) / n + eps)
    xhat *= inv
    out = xhat * gd
    out += bd

    def back_x(g):
        gx = g * gd
        dx = xhat * (_rowdot(gx, xhat) / n)
        np.subtract(gx, dx, out=dx)
        dx -= gx.mean(axis=-1, keepdims=True)
        dx *= inv
        return dx

    return _node(out, (x, gain, bias),
                 (back_x,
                  lambda g: _unbroadcast(g * xhat, gd.shape),
                  lambda g: _unbroadcast(g, bd.shape)))


def rope_phases(positions, width, base=10000.0):
    """Unit phases of rotary position encoding, (..., L, width/2) complex.

    Adjacent pairs (x[2j], x[2j+1]) of a width-wide axis, read as the
    complex number x[2j] + i x[2j+1], are rotated at position pos by the
    angle pos * base**(-2j/width): one multiply by phase[..., j].  The
    tables are cached and read-only.
    """
    if width % 2 != 0:
        raise DimensionError("rotary encoding needs an even width")
    pos = np.asarray(positions, dtype=np.float64)
    return _rope_tables(pos.shape, pos.tobytes(), width, float(base))


@functools.lru_cache(maxsize=256)
def _rope_tables(shape, pos_bytes, d, base):
    """Read-only phase table of rope_phases, built once per (positions,
    width, base): a decode step rotates every query and key of every layer
    by the same positions."""
    pos = np.frombuffer(pos_bytes, dtype=np.float64).reshape(shape)
    ang = pos[..., None] * base ** (-2.0 * np.arange(d // 2) / d)
    phase = np.empty(ang.shape, dtype=np.complex128)
    phase.real = np.cos(ang)
    phase.imag = np.sin(ang)
    phase.flags.writeable = False
    return phase


def rotate_pairs(x, phase):
    """x (..., width) with its adjacent pairs multiplied by phase as complex
    numbers; a new C-ordered array.  x's last axis must be contiguous.
    Rotation is orthogonal, so its adjoint multiplies by phase.conj()."""
    return np.multiply(x.view(np.complex128), phase, order="C").view(np.float64)


def fused(forward, *operands):
    """One graph node for a whole sub-computation with a hand-written vjp.

    forward(*arrays) receives the operands' data and returns (output, vjp),
    where vjp(g) gives a gradient for every operand at once, so they can
    share intermediate results.  Operands that are not Tensors are
    constants: their gradients are dropped.
    """
    out, vjp = forward(*(_data(o) for o in operands))
    if not _GRAD_ENABLED:
        return Tensor(out)
    live = [i for i, o in enumerate(operands) if isinstance(o, Tensor)]
    if not live:
        return Tensor(out)
    if len(live) == len(operands):
        return Tensor(out, operands, vjp)

    def live_vjp(g):
        grads = vjp(g)
        return [grads[i] for i in live]

    return Tensor(out, tuple(operands[i] for i in live), live_vjp)


def dropout(x, rate, rng=None):
    """Inverted dropout; rate 0 is the identity and adds no node."""
    if rate < 0 or rate >= 1:
        raise ContractError("dropout rate must lie in [0, 1)")
    if rate == 0.0:
        return x
    if rng is None:
        raise ContractError("dropout with rate > 0 needs an rng")
    keep = (rng.random(_data(x).shape) >= rate) / (1.0 - rate)
    return mul(x, keep)


def backward(loss):
    """Propagate d(loss)/d(node) to every tensor that fed the scalar loss."""
    if not isinstance(loss, Tensor) or loss.data.shape != ():
        raise ContractError("backward expects a scalar Tensor")
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, post = stack.pop()
        if post:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones(())
    for node in reversed(topo):
        if node.vjp is None or node.grad is None:
            continue
        upstream = node.grad
        node.grad = None   # an interior gradient is dead once its vjp ran
        for parent, g in zip(node.parents, node.vjp(upstream)):
            if g is None:
                continue
            if parent.grad is not None:
                parent.grad = parent.grad + g
            elif parent.parents or _owned(g, upstream):
                parent.grad = g
            else:
                parent.grad = np.array(g)   # a leaf's gradient owns its memory


def _owned(g, upstream):
    """Whether a vjp result is an array of its own: not a view, and not
    the very gradient array of the node it came from."""
    return type(g) is np.ndarray and g.base is None and g is not upstream


def zero_grads(params):
    for p in params:
        p.zero_grad()


def gradient_check(params, loss_fn, h=1e-4):
    """Compare analytic gradients against central finite differences.

    loss_fn() must rebuild the loss from the live parameter buffers.  For
    each trainable parameter every coordinate is displaced by +-h and the
    relative error |ad - fd| / max(1e-3, |ad| + |fd|) is recorded.  Returns
    {parameter name: max relative error}.  Parameters the loss never reads
    get an analytic gradient of exactly zero.
    """
    zero_grads(params)
    loss = loss_fn()
    backward(loss)
    analytic = {}
    for p in params:
        if not p.trainable:
            continue
        g = p.grad
        analytic[p.name] = np.zeros_like(p.data) if g is None else g.copy()
    report = {}
    for p in params:
        if not p.trainable:
            continue
        worst = 0.0
        flat = p.data.reshape(-1)
        ga = analytic[p.name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            with no_grad():
                lp = loss_fn().item()
            flat[i] = orig - h
            with no_grad():
                lm = loss_fn().item()
            flat[i] = orig
            fd = (lp - lm) / (2.0 * h)
            rel = abs(ga[i] - fd) / max(1e-3, abs(ga[i]) + abs(fd))
            if rel > worst:
                worst = rel
        report[p.name] = worst
    zero_grads(params)
    return report


# ---------------------------------------------------------------------------
# checkpoint io: versioned header, name -> shape -> row-major float64 bytes

CHECKPOINT_MAGIC = "tensorckpt v1"


def save_checkpoint(path, named_arrays, meta=None):
    """Write a parameter map to a binary checkpoint file.

    Layout: magic line, one json line with metadata, one json line with the
    ordered manifest [{name, shape}], then the concatenated row-major
    little-endian float64 buffers.  Bytes are a pure function of the inputs.
    The file is written next to path under a temporary name and then moved
    over it, so a failed write leaves any earlier checkpoint untouched.
    """
    names = list(named_arrays)
    if len(set(names)) != len(names):
        raise ContractError("checkpoint parameter names must be unique")
    manifest = [{"name": n, "shape": list(np.asarray(named_arrays[n]).shape)}
                for n in names]
    tmp = f"{os.fspath(path)}.{secrets.token_hex(4)}.tmp"
    f = open(tmp, "xb")
    try:
        with f:
            f.write((CHECKPOINT_MAGIC + "\n").encode())
            f.write((json.dumps(meta or {}, sort_keys=True) + "\n").encode())
            f.write((json.dumps(manifest) + "\n").encode())
            for n in names:
                arr = np.ascontiguousarray(np.asarray(named_arrays[n],
                                                      dtype="<f8"))
                f.write(arr.tobytes())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _json_line(f, what):
    try:
        return json.loads(f.readline().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ContractError(f"checkpoint {what} is not valid JSON: {e}") from None


def _manifest_shapes(manifest):
    """[(name, shape, element count)] of a manifest, checked entry by entry."""
    if not isinstance(manifest, list):
        raise ContractError("checkpoint manifest must be a JSON list")
    out = []
    for i, entry in enumerate(manifest):
        ok = (isinstance(entry, dict) and isinstance(entry.get("name"), str)
              and isinstance(entry.get("shape"), list)
              and all(type(n) is int and n >= 0 for n in entry["shape"]))
        if not ok:
            raise ContractError(f"checkpoint manifest entry {i} is malformed")
        shape = tuple(entry["shape"])
        out.append((entry["name"], shape, math.prod(shape)))
    return out


def load_checkpoint(path):
    """Read a checkpoint written by save_checkpoint; returns (arrays, meta).

    Anything that is not such a file raises ContractError, and the
    manifest's byte count is checked against the file's before any array
    is read, so a corrupt shape cannot ask for more memory than the file
    holds.
    """
    with open(path, "rb") as f:
        magic = f.readline().decode("utf-8", "replace").rstrip("\n")
        if magic != CHECKPOINT_MAGIC:
            raise ContractError(f"not a checkpoint file (header {magic!r})")
        meta = _json_line(f, "metadata")
        if not isinstance(meta, dict):
            raise ContractError("checkpoint metadata must be a JSON object")
        entries = _manifest_shapes(_json_line(f, "manifest"))
        payload = 8 * sum(count for _, _, count in entries)
        left = os.fstat(f.fileno()).st_size - f.tell()
        if payload > left:
            raise ContractError(f"checkpoint truncated: manifest needs "
                                f"{payload} bytes, file holds {left}")
        if payload < left:
            raise ContractError("trailing bytes after checkpoint payload")
        arrays = {}
        for name, shape, count in entries:
            buf = f.read(count * 8)
            arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    return arrays, meta
