"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation builds a node in an implicit computation graph: the output
tensor remembers its parent tensors and a vector-Jacobian closure.  Calling
``backward`` on a scalar walks the graph once in reverse topological order
and sums the gradients reaching each node into its ``.grad``.  While a
graph is recorded every operand of a node is a Tensor; a node's constants
(masks, phase tables) live inside its forward function instead.  Under
``no_grad`` an operand may also be a plain array, such as a decode step's
cached keys and values.

Every node is built by ``fused``, from a forward function that returns
its output and a hand-written vjp.  The model's nodes are few and large:
attention, the feed-forward block, the cosine normalisation, dropout and
the training loss are each one, and ``add_layer_norm`` is a residual sum
and its layer norm as one.  ``pullback`` lets such a node run an
elementary op under that op's own vjp.  Only a handful of elementary ops
remain, each a ``fused`` node too (``add``, ``sub``, ``relu``,
``reshape`` and the row lookup ``gather_rows``); the products, sums,
exponentials and logarithms that would spell a fused node out op by op
live beside the test oracles that do so.  ``rope_phases`` and
``rotate_pairs`` apply rotary position encoding as one complex multiply
per adjacent pair.

A vjp may return its input gradient itself, a view of it, or one array
for several operands, so the first gradient to reach a node is stored as
it is and later ones are added out of place: no stored gradient is ever
written in place.  An interior node's ``.grad`` is dropped as soon as
its vjp has run, so after ``backward`` only leaves (parameters) hold
gradients, and a leaf's ``.grad`` always owns its memory.

Determinism: arrays are C-ordered float64, reductions run through numpy's
pairwise summation in ascending index order, and the backward traversal
order is fixed by graph construction order.  A weight gradient's sum over
rows runs inside one BLAS GEMM, whose order depends on the BLAS build and
its thread count.  Two runs over identical inputs with the same BLAS and
the same BLAS thread count produce bit-identical numbers.

Example
-------
>>> w = Parameter("w", np.array([1.0, 2.0]))
>>> def square_sum(x):
...     return (x * x).sum(), lambda g: (2.0 * g * x,)
>>> backward(fused(square_sum, w.tensor))
>>> w.grad
array([2., 4.])
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


_F64 = np.dtype(np.float64)

try:    # einsum's C core, without the wrapper's per-call dispatch
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:
    _einsum = np.einsum


class Tensor:
    __slots__ = ("data", "grad", "parents", "vjp")

    def __init__(self, data, parents=(), vjp=None):
        # a float64 ndarray is stored as it is, which is what np.asarray
        # would return for it; anything else is converted
        if type(data) is not np.ndarray or data.dtype is not _F64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
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

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


class Parameter:
    """Named trainable leaf.  Tied parameters share one Tensor object."""

    trainable = True

    def __init__(self, name, data):
        self.name = name
        self.tensor = Tensor(data)

    @property
    def data(self):
        return self.tensor.data

    @data.setter
    def data(self, value):
        self.tensor.data = np.asarray(value, dtype=np.float64)

    @property
    def grad(self):
        return self.tensor.grad

    def zero_grad(self):
        self.tensor.grad = None

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.tensor.shape})"


_tensor_data = Tensor.data.__get__   # raises TypeError on a non-Tensor


def _unbroadcast(g, shape):
    """Sum a gradient back to its operand's shape: g's own shape, or g's
    trailing shape (a gain or a bias), summed over the leading axes.  Any
    other broadcast raises DimensionError."""
    if g.shape == shape:
        return g
    if g.shape[g.ndim - len(shape):] == shape:
        return g.reshape(-1, *shape).sum(axis=0)
    raise DimensionError(f"cannot sum a {g.shape} gradient to shape {shape}")


# add, sub and relu stay because the benchmark's checks build graphs from them
def add(a, b):
    """a + b, where the shapes are equal or one is the other's trailing
    shape; the gradient is summed back to each over the leading axes."""
    def forward(ad, bd):
        return ad + bd, lambda g: (_unbroadcast(g, ad.shape),
                                   _unbroadcast(g, bd.shape))

    return fused(forward, a, b)


def sub(a, b):
    """a - b, on the shapes add takes, with the gradient summed the same
    way."""
    def forward(ad, bd):
        return ad - bd, lambda g: (_unbroadcast(g, ad.shape),
                                   _unbroadcast(-g, bd.shape))

    return fused(forward, a, b)


def reshape(a, shape):
    def forward(ad):
        return ad.reshape(shape), lambda g: (g.reshape(ad.shape),)

    return fused(forward, a)


def relu(a):
    def forward(ad):
        keep = (ad > 0).astype(np.float64)
        return ad * keep, lambda g: (g * keep,)

    return fused(forward, a)


def gather_rows(table, ids):
    """Row lookup table[ids]; the gradient is one GEMM of a one-hot
    (table rows x ids) matrix with the gradient's rows."""
    idx = np.asarray(ids)

    def forward(td):
        if idx.size and (np.minimum.reduce(idx, axis=None) < 0
                         or np.maximum.reduce(idx, axis=None) >= td.shape[0]):
            raise ContractError("gather_rows: index out of range")

        def vjp(g):
            flat = idx.reshape(-1)
            onehot = np.arange(td.shape[0])[:, None] == flat[None, :]
            return (np.matmul(onehot.astype(np.float64),
                              g.reshape(flat.size, -1)).reshape(td.shape),)

        return td[idx], vjp

    return fused(forward, table)


def _rowdot(a, b):
    """Dot products of matching rows over the last axis, kept as (..., 1)."""
    return _einsum("...i,...i->...", a, b)[..., None]


LAYER_NORM_EPS = 1e-5   # added to the variance under the square root


def add_layer_norm(x, y, gain, bias):
    """Layer norm of the sum x + y over the last axis, then scale and
    shift: a residual connection and its norm in one node.  Both summands
    get the same input gradient."""
    def forward(xd, yd, gd, bd):
        n = xd.shape[-1]
        xhat = xd + yd
        mean = np.add.reduce(xhat, axis=-1, keepdims=True)
        mean /= n
        xhat -= mean
        inv = 1.0 / np.sqrt(_rowdot(xhat, xhat) / n + LAYER_NORM_EPS)
        xhat *= inv
        out = xhat * gd
        out += bd

        def vjp(g):
            gx = g * gd
            dx = xhat * (_rowdot(gx, xhat) / n)
            np.subtract(gx, dx, out=dx)
            gmean = np.add.reduce(gx, axis=-1, keepdims=True)
            gmean /= n
            dx -= gmean
            dx *= inv
            return (_unbroadcast(dx, xd.shape), _unbroadcast(dx, yd.shape),
                    _unbroadcast(g * xhat, gd.shape),
                    _unbroadcast(g, bd.shape))

        return out, vjp

    return fused(forward, x, y, gain, bias)


def rope_phases(positions, width, base):
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
    share intermediate results.  While a graph is recorded every operand
    must be a Tensor, or ContractError is raised; under no_grad an operand
    may be a constant array.
    """
    try:
        arrays = tuple(map(_tensor_data, operands))
    except TypeError:   # a constant among them
        if _GRAD_ENABLED:
            raise ContractError("fused: a constant operand while a graph "
                                "is recorded") from None
        arrays = [o.data if type(o) is Tensor
                  else np.asarray(o, dtype=np.float64) for o in operands]
    out, vjp = forward(*arrays)
    return Tensor(out, operands, vjp)


def dropout(x, rate, rng):
    """Inverted dropout as one node, its keep mask drawn from rng; rate 0
    is the identity and adds no node."""
    if rate < 0 or rate >= 1:
        raise ContractError("dropout rate must lie in [0, 1)")
    if rate == 0.0:
        return x

    def forward(xd):
        keep = (rng.random(xd.shape) >= rate) / (1.0 - rate)
        return xd * keep, lambda g: (g * keep,)

    return fused(forward, x)


def backward(loss):
    """Propagate d(loss)/d(node) to every tensor that fed the scalar loss."""
    if not isinstance(loss, Tensor) or loss.data.shape != ():
        raise ContractError("backward expects a scalar Tensor")
    _propagate(loss, np.ones(()))


def _propagate(root, g):
    """Hand g to root, then run each vjp of the graph behind it once, in
    reverse topological order."""
    topo = []
    seen = set()
    stack = [(root, False)]
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
    root.grad = g
    for node in reversed(topo):
        if node.vjp is None or node.grad is None:
            continue
        upstream = node.grad
        node.grad = None   # an interior gradient is dead once its vjp ran
        grads = node.vjp(upstream)
        for parent, g in zip(node.parents, grads):
            if g is None:
                continue
            if parent.grad is not None:
                parent.grad = parent.grad + g
            elif parent.parents or _owned(g, upstream, grads):
                parent.grad = g
            else:
                parent.grad = np.array(g)   # a leaf's gradient owns its memory


def _owned(g, upstream, grads):
    """Whether a vjp result is an array of its own: not a view, not the
    very gradient array of the node it came from, and not handed to a
    second operand as well."""
    return (type(g) is np.ndarray and g.base is None and g is not upstream
            and sum(h is g for h in grads) == 1)


def pullback(fn, x):
    """Apply fn, a function of Tensors, to the array x inside a fused node.

    Returns fn's output array and back, which maps a gradient of that
    output to the gradient of x through the graph fn recorded.  So a
    fused node can run an elementary op under that op's own vjp instead
    of a copy of its rule.
    """
    leaf = Tensor(x)
    out = fn(leaf)

    def back(g):
        _propagate(out, g)
        gx, leaf.grad = leaf.grad, None
        return np.zeros_like(leaf.data) if gx is None else gx

    return out.data, back


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
