"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation builds a node in an implicit computation graph: the output
tensor remembers its parent tensors and a vector-Jacobian closure.  Calling
``backward`` on a scalar walks the graph once in reverse topological order
and accumulates gradients into ``.grad`` buffers.  Non-Tensor operands
(numpy arrays, python scalars) are treated as constants and receive no
gradient, which keeps masks and positional tables out of the graph.

Determinism: arrays are C-ordered float64, reductions run through numpy's
pairwise summation in ascending index order, and the backward traversal
order is fixed by graph construction order.  Two runs over identical inputs
produce bit-identical numbers.

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

    # operator sugar; constants on either side stay out of the graph
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


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


def tmean(a, axis=None, keepdims=False):
    ad = _data(a)
    if axis is None:
        n = ad.size
    else:
        n = ad.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


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
    """Row lookup table[ids]; gradient scatter-adds into the table."""
    td = _data(table)
    idx = np.asarray(ids)
    if idx.size and (idx.min() < 0 or idx.max() >= td.shape[0]):
        raise ContractError("gather_rows: index out of range")
    out = td[idx]

    def back(g):
        buf = np.zeros_like(td)
        np.add.at(buf, idx.reshape(-1), g.reshape(-1, td.shape[-1]))
        return buf

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


def index(a, key):
    """Basic slicing; gradient pastes into a zero buffer."""
    ad = _data(a)
    out = ad[key]

    def back(g):
        buf = np.zeros_like(ad)
        buf[key] = g
        return buf

    return _node(out, (a,), (back,))


def concat(parts, axis):
    datas = [_data(p) for p in parts]
    out = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def make_back(i):
        sl = [slice(None)] * out.ndim
        sl[axis] = slice(offsets[i], offsets[i + 1])
        sl = tuple(sl)
        return lambda g: g[sl]

    return _node(out, tuple(parts), tuple(make_back(i) for i in range(len(parts))))


def softmax_rows(x, mask=None):
    """Softmax along the last axis with an optional binary keep-mask.

    Masked entries get probability exactly 0.  A row with every entry
    masked has no valid distribution and raises ContractError.
    """
    xd = _data(x)
    if mask is not None:
        keep = np.asarray(mask, dtype=bool)
        z = np.where(keep, xd, -np.inf)
    else:
        z = xd
    mx = z.max(axis=-1, keepdims=True)
    if not np.isfinite(mx).all():
        raise ContractError("softmax_rows: a row is fully masked")
    e = np.exp(z - mx)
    out = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return _unbroadcast(out * (g - dot), xd.shape)

    return _node(out, (x,), (back,))


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize over the last axis, then scale and shift."""
    xd, gd, bd = _data(x), _data(gain), _data(bias)
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv

    def back_x(g):
        n = xd.shape[-1]
        gx = g * gd
        t1 = gx.mean(axis=-1, keepdims=True)
        t2 = (gx * xhat).mean(axis=-1, keepdims=True)
        return inv * (gx - t1 - xhat * t2)

    def back_gain(g):
        return _unbroadcast(g * xhat, gd.shape)

    def back_bias(g):
        return _unbroadcast(g, bd.shape)

    return _node(xhat * gd + bd, (x, gain, bias), (back_x, back_gain, back_bias))


def rope_rotate(x, positions, base=10000.0):
    """Rotary position encoding over the last axis (adjacent-pair planes).

    Pair j of a width-D axis is rotated by angle pos * base**(-2j/D).
    Linear in x, so the adjoint is rotation by the negative angle.
    """
    xd = _data(x)
    d = xd.shape[-1]
    if d % 2 != 0:
        raise DimensionError("rope_rotate needs an even last axis")
    pos = np.asarray(positions, dtype=np.float64)
    freqs = base ** (-2.0 * np.arange(d // 2) / d)
    ang = pos[..., None] * freqs          # (..., L, d/2)
    cos, sin = np.cos(ang), np.sin(ang)

    def rotate(arr, c, s):
        ev, od = arr[..., 0::2], arr[..., 1::2]
        out = np.empty_like(arr)
        out[..., 0::2] = ev * c - od * s
        out[..., 1::2] = ev * s + od * c
        return out

    return _node(rotate(xd, cos, sin), (x,),
                 (lambda g: rotate(g, cos, -sin),))


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
        for parent, g in zip(node.parents, node.vjp(node.grad)):
            if g is None:
                continue
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.data)
            parent.grad += g


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
