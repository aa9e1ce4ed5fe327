"""Independent reference implementations used to check the package.

Everything here is written the slow, obvious way (scalar loops, explicit
enumeration, finite unrolling) on purpose: these functions must not share
code paths with the library they validate.  The composed attention below
builds the fused attention nodes' computation out of the elementary
autodiff ops, one graph node per step, so its gradients come from those
ops' vjps and not from the fused nodes' hand-written ones.
"""
import itertools

import numpy as np

from streamformer import tensor as T

from helpers import concat, index


def naive_matmul(a, b):
    """Triple-loop matrix product for 2-D inputs."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    m, n = a.shape
    n2, p = b.shape
    assert n == n2
    out = np.zeros((m, p))
    for i in range(m):
        for j in range(p):
            acc = 0.0
            for t in range(n):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def naive_softmax(row, keep=None):
    """Exp-normalize one row with an optional keep mask."""
    row = np.asarray(row, float)
    if keep is None:
        keep = np.ones_like(row, dtype=bool)
    vals = [row[i] for i in range(len(row)) if keep[i]]
    m = max(vals)
    exps = np.zeros_like(row)
    for i in range(len(row)):
        if keep[i]:
            exps[i] = np.exp(row[i] - m)
    return exps / exps.sum()


def naive_layer_norm(x, gain, bias, eps=1e-5):
    """Per-row mean/variance normalization, scalar statistics."""
    x = np.asarray(x, float)
    out = np.zeros_like(x)
    flat = x.reshape(-1, x.shape[-1])
    oflat = out.reshape(-1, x.shape[-1])
    for r in range(flat.shape[0]):
        row = flat[r]
        mu = sum(row) / len(row)
        var = sum((v - mu) ** 2 for v in row) / len(row)
        inv = 1.0 / np.sqrt(var + eps)
        for c in range(len(row)):
            oflat[r, c] = (row[c] - mu) * inv * gain[c] + bias[c]
    return out


def naive_rope(x, positions, base=10000.0):
    """Adjacent-pair rotation with per-pair angles, scalar loops."""
    x = np.asarray(x, float)
    d = x.shape[-1]
    out = np.zeros_like(x)
    flat = x.reshape(-1, x.shape[-2], d)
    oflat = out.reshape(-1, x.shape[-2], d)
    for b in range(flat.shape[0]):
        for t in range(flat.shape[1]):
            p = positions[t]
            for j in range(d // 2):
                ang = p * base ** (-2.0 * j / d)
                c, s = np.cos(ang), np.sin(ang)
                ev, od = flat[b, t, 2 * j], flat[b, t, 2 * j + 1]
                oflat[b, t, 2 * j] = ev * c - od * s
                oflat[b, t, 2 * j + 1] = ev * s + od * c
    return out


def naive_attention(q, k, v, keep, positions_q, positions_k, base=10000.0):
    """Single-head rotary attention: (Lq,d) x (Lk,d) -> (Lq,d)."""
    q = naive_rope(q[None], positions_q, base)[0]
    k = naive_rope(k[None], positions_k, base)[0]
    d = q.shape[-1]
    out = np.zeros_like(q)
    for i in range(q.shape[0]):
        scores = np.array([np.dot(q[i], k[j]) / np.sqrt(d) for j in range(k.shape[0])])
        w = naive_softmax(scores, keep[i])
        out[i] = sum(w[j] * v[j] for j in range(k.shape[0]))
    return out


def composed_heads(x, w, heads, positions=None, base=10000.0):
    """x @ w split into heads, (B,k,h,L,hd), each head rotated by its
    positions with the real pair formula; elementary ops only."""
    b, k, L, d = x.shape
    hd = d // heads
    y = T.reshape(T.matmul(x, w), (b, k, L, heads, hd))
    if positions is not None:
        ang = (np.asarray(positions, float)[:, None]
               * base ** (-2.0 * np.arange(hd // 2) / hd))
        cos, sin = np.cos(ang)[:, None], np.sin(ang)[:, None]
        ev = index(y, (Ellipsis, slice(0, None, 2)))
        od = index(y, (Ellipsis, slice(1, None, 2)))
        re = T.sub(T.mul(ev, cos), T.mul(od, sin))
        im = T.add(T.mul(ev, sin), T.mul(od, cos))
        pair = (b, k, L, heads, hd // 2, 1)
        y = T.reshape(concat([T.reshape(re, pair), T.reshape(im, pair)],
                               axis=-1), (b, k, L, heads, hd))
    return T.transpose(y, (0, 1, 3, 2, 4))


def composed_attend(q, k, v, wo, keep=None):
    """Scaled scores, masked softmax, value mixing, head merge and output
    projection of heads q (B,k,h,Lq,hd) over k, v (B,k|1,h,Lk,hd);
    keep is a (B,Lq,Lk) keep-mask or None."""
    hd = q.shape[-1]
    s = T.mul(T.matmul(q, T.transpose(k, (0, 1, 2, 4, 3))), 1.0 / np.sqrt(hd))
    if keep is not None:
        s = T.add(s, np.where(keep[:, None, None], 0.0, -np.inf))
    e = T.exp(T.sub(s, s.data.max(axis=-1, keepdims=True)))
    p = T.div(e, T.tsum(e, axis=-1, keepdims=True))
    ctx = T.matmul(p, v)
    b, kk, h, Lq, _ = ctx.shape
    merged = T.reshape(T.transpose(ctx, (0, 1, 3, 2, 4)), (b, kk, Lq, h * hd))
    return T.matmul(merged, wo)


def finite_difference(loss_fn, array, h=1e-4):
    """Central-difference gradient of a scalar function of one array."""
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = loss_fn()
        flat[i] = orig - h
        lm = loss_fn()
        flat[i] = orig
        gflat[i] = (lp - lm) / (2 * h)
    return grad


# ---------------------------------------------------------------------------
# logic oracles


def truth_table_check(phi_eval, aps, partial):
    """Does phi hold under every completion of the partial assignment?

    phi_eval: callable taking a total {ap: bool} valuation.
    Enumerates all 2^n total valuations of aps and filters consistency.
    """
    for bits in itertools.product([False, True], repeat=len(aps)):
        total = dict(zip(aps, bits))
        if any(total[a] != v for a, v in partial.items() if a in total):
            continue
        if not phi_eval(total):
            return False
    return True


def unrolled_ltl_eval(phi, prefix_vals, cycle_vals):
    """Finite-unrolling oracle for lasso traces.

    Evaluates phi at position 0 over prefix + 4*(|u|+|v|)*(1+depth) unrolled
    steps; Until becomes a bounded right-to-left disjunction scan.  Each
    node tracks how many tail positions of its array are contaminated by
    the horizon edge (X reads one past, a bounded Until is inexact close
    to the end of its scan).  Before an Until trusts its operands, a
    cycle-invariance check certifies they are v-periodic throughout their
    clean region; with periodic operands the scan restricted to that
    region decides the infinite word exactly.  phi is a node tree with
    .kind in {true, ap, not, and, next, until} and children in .a/.b
    (.name for aps).
    """
    u, v = len(prefix_vals), len(cycle_vals)

    def depth(n):
        if n.kind in ("true", "ap"):
            return 0
        if n.kind in ("not", "next"):
            return 1 + depth(n.a)
        return 1 + max(depth(n.a), depth(n.b))

    n_steps = u + 4 * (u + v) * (1 + depth(phi))

    def val_at(t):
        if t < u:
            return prefix_vals[t]
        return cycle_vals[(t - u) % v]

    def certify(arr, valid):
        for t in range(u, valid - v):
            if arr[t] != arr[t + v]:
                raise AssertionError("oracle unrolling did not stabilize")

    def sat(node):
        """Returns (array over n_steps, contaminated tail length)."""
        if node.kind == "true":
            return np.ones(n_steps, dtype=bool), 0
        if node.kind == "ap":
            return (np.array([val_at(t).get(node.name, False)
                              for t in range(n_steps)]), 0)
        if node.kind == "not":
            arr, tail = sat(node.a)
            return ~arr, tail
        if node.kind == "and":
            a, ta = sat(node.a)
            b, tb = sat(node.b)
            return a & b, max(ta, tb)
        if node.kind == "next":
            arr, tail = sat(node.a)
            out = np.roll(arr, -1)
            out[-1] = False
            return out, tail + 1
        if node.kind == "until":
            a, ta = sat(node.a)
            b, tb = sat(node.b)
            valid = n_steps - max(ta, tb)
            # the scan is exact at t only if it can see two cycles past t
            tail = max(ta, tb) + 2 * v
            if n_steps - tail < u + 2 * v:
                raise AssertionError("oracle horizon too small")
            certify(a, valid)
            certify(b, valid)
            arr = np.zeros(n_steps, dtype=bool)
            nxt = False
            for t in range(valid - 1, -1, -1):
                arr[t] = b[t] or (a[t] and nxt)
                nxt = arr[t]
            return arr, tail
        raise AssertionError(node.kind)

    arr, tail = sat(phi)
    if n_steps - tail < u + 2 * v:
        raise AssertionError("oracle horizon too small")
    certify(arr, n_steps - tail)
    return bool(arr[0])


def naive_edit_distance(a, b):
    """Textbook Levenshtein DP."""
    m, n = len(a), len(b)
    dp = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        dp[i][0] = i
    for j in range(n + 1):
        dp[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dp[i][j] = min(dp[i - 1][j] + 1, dp[i][j - 1] + 1,
                           dp[i - 1][j - 1] + cost)
    return dp[m][n]
