"""Independent reference implementations used to check the package.

Everything here is written the slow, obvious way (scalar loops, explicit
enumeration, finite unrolling) on purpose: these functions must not share
code paths with the library they validate.  The composed attention below
builds the fused attention nodes' computation out of the elementary
autodiff ops, one graph node per step, so its gradients come from those
ops' vjps and not from the fused nodes' hand-written ones; so do the
composed residual norm, feed-forward block, cosine normalisation, loss
and dropout.  The generator oracles draw each operator with rng.choice
and judge each candidate assignment with a truth table of oracle_eval.
"""
import itertools

import numpy as np

from streamformer import logic as L
from streamformer import tensor as T
from streamformer.errors import ContractError

from helpers import (add, concat, div, exp, index, log, matmul, mul, sqrt,
                     sub, take_along_last, transpose, tsum)


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
    y = T.reshape(matmul(x, w), (b, k, L, heads, hd))
    if positions is not None:
        ang = (np.asarray(positions, float)[:, None]
               * base ** (-2.0 * np.arange(hd // 2) / hd))
        cos, sin = np.cos(ang)[:, None], np.sin(ang)[:, None]
        ev = index(y, (Ellipsis, slice(0, None, 2)))
        od = index(y, (Ellipsis, slice(1, None, 2)))
        re = sub(mul(ev, cos), mul(od, sin))
        im = add(mul(ev, sin), mul(od, cos))
        pair = (b, k, L, heads, hd // 2, 1)
        y = T.reshape(concat([T.reshape(re, pair), T.reshape(im, pair)],
                               axis=-1), (b, k, L, heads, hd))
    return transpose(y, (0, 1, 3, 2, 4))


def composed_attend(q, k, v, wo, keep=None):
    """Scaled scores, masked softmax, value mixing, head merge and output
    projection of heads q (B,k,h,Lq,hd) over k, v (B,k|1,h,Lk,hd);
    keep is a (B,Lq,Lk) keep-mask or None."""
    hd = q.shape[-1]
    s = mul(matmul(q, transpose(k, (0, 1, 2, 4, 3))), 1.0 / np.sqrt(hd))
    if keep is not None:
        s = add(s, np.where(keep[:, None, None], 0.0, -np.inf))
    e = exp(sub(s, s.data.max(axis=-1, keepdims=True)))
    p = div(e, tsum(e, axis=-1, keepdims=True))
    ctx = matmul(p, v)
    b, kk, h, Lq, _ = ctx.shape
    merged = T.reshape(transpose(ctx, (0, 1, 3, 2, 4)), (b, kk, Lq, h * hd))
    return matmul(merged, wo)


def composed_add_layer_norm(x, y, gain, bias, eps=1e-5):
    """Layer norm of x + y over the last axis, scaled and shifted; one
    elementary op per step."""
    n = x.shape[-1]
    s = add(x, y)
    c = sub(s, mul(tsum(s, axis=-1, keepdims=True), 1.0 / n))
    var = mul(tsum(mul(c, c), axis=-1, keepdims=True), 1.0 / n)
    return add(mul(div(c, sqrt(add(var, eps))), gain), bias)


def composed_feed_forward(x, w1, b1, w2, b2):
    """relu(x @ w1 + b1) @ w2 + b2; elementary ops only."""
    h = T.relu(add(matmul(x, w1), b1))
    return add(matmul(h, w2), b2)


def composed_l2_normalize(x):
    """x over its row norm, sqrt(|x|^2 + 1e-12); elementary ops only."""
    s = tsum(mul(x, x), axis=-1, keepdims=True)
    return div(x, sqrt(add(s, 1e-12)))


def composed_sequence_loss(logits, labels, mask, scale):
    """training.sequence_loss one elementary op per step: mean
    cross-entropy over unmasked positions at the given scale, the
    log-sum-exp shift over finite entries only, the target score
    gathered."""
    if float(np.asarray(mask).sum()) <= 0:
        raise ContractError("loss needs at least one unmasked position")
    z = mul(logits, float(scale))
    zd = z.data
    m = np.max(np.where(np.isfinite(zd), zd, -np.inf), axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        raise ContractError("every position needs at least one finite logit")
    e = exp(sub(z, m))
    lse = add(log(tsum(e, axis=-1)), m[..., 0])
    picked = take_along_last(z, labels)
    nll = sub(lse, picked)
    return div(tsum(mul(nll, np.asarray(mask, dtype=np.float64))),
               float(np.asarray(mask).sum()))


def composed_dropout(x, rate, rng):
    """tensor.dropout at a positive rate as a product with its keep mask,
    drawn the same way."""
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return mul(x, keep)


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


def oracle_eval(phi, val):
    """Truth value of a propositional formula under a valuation, unlisted
    symbols false; recursive, with python's own operators."""
    k = phi.kind
    if k == "true":
        return True
    if k == "ap":
        return bool(val.get(phi.name, False))
    if k == "not":
        return not oracle_eval(phi.a, val)
    x = oracle_eval(phi.a, val)
    y = oracle_eval(phi.b, val)
    return {"and": x and y, "or": x or y, "iff": x == y, "xor": x != y}[k]


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


def size(phi):
    """Nodes of a formula tree."""
    if phi.kind in ("true", "ap"):
        return 1
    if phi.b is None:
        return 1 + size(phi.a)
    return 1 + size(phi.a) + size(phi.b)


def depth(phi):
    """Operators on the longest path from a formula's root."""
    if phi.kind in ("true", "ap"):
        return 0
    if phi.b is None:
        return 1 + depth(phi.a)
    return 1 + max(depth(phi.a), depth(phi.b))


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


def brute_force_symbolic_check(phi, trace):
    """Does every concretization satisfy phi?  Each step admits the
    valuations of the universe that oracle_eval accepts, and each
    concretization is decided by unrolling; None if a step admits none."""
    steps = trace.steps
    universe = sorted(set(L.aps(phi)).union(*(L.aps(s) for s in steps)))
    vals = [dict(zip(universe, bits))
            for bits in itertools.product((False, True), repeat=len(universe))]
    admitted = [[v for v in vals if oracle_eval(s, v)] for s in steps]
    if not all(admitted):
        return None
    u = len(trace.prefix)
    return all(unrolled_ltl_eval(phi, list(c[:u]), list(c[u:]))
               for c in itertools.product(*admitted))


def choice_random_formula(rng, target_size, unary, binary, weights, ap_pool,
                          p_true=0.1):
    """A random formula drawing each operator with rng.choice over the
    feasible operators' normalised weights; the library's cached
    distributions must pick the same operator at every draw."""
    if target_size <= 1:
        if rng.random() < p_true:
            return L.TRUE
        return L.Ap(ap_pool[int(rng.integers(len(ap_pool)))])
    feasible = [(k, f, 1) for k, f in unary.items()]
    if target_size >= 3:
        feasible += [(k, f, 2) for k, f in binary.items()]
    w = np.array([weights[k] for k, _, _ in feasible], dtype=float)
    pick = int(rng.choice(len(feasible), p=w / w.sum()))
    _, ctor, arity = feasible[pick]
    if arity == 1:
        return ctor(choice_random_formula(rng, target_size - 1, unary, binary,
                                          weights, ap_pool, p_true))
    left = int(rng.integers(1, target_size - 1))
    return ctor(choice_random_formula(rng, left, unary, binary, weights,
                                      ap_pool, p_true),
                choice_random_formula(rng, target_size - 1 - left, unary,
                                      binary, weights, ap_pool, p_true))


def checker_minimal_assignment(phi):
    """Smallest partial map forcing phi, judging every candidate with a
    truth table of oracle_eval: by cardinality, then symbols
    lexicographically, then values counting up from all-false."""
    names = L.aps(phi)
    for c in range(len(names) + 1):
        for combo in itertools.combinations(names, c):
            for bits in itertools.product((False, True), repeat=c):
                a = dict(zip(combo, bits))
                if truth_table_check(lambda tv: oracle_eval(phi, tv),
                                     names, a):
                    return a
    return None


def oracle_generate(task, seed, ap_count, size_range, n):
    """The pairs gen_prop or gen_ltl make, from choice_random_formula and,
    for prop, checker_minimal_assignment (ltl keeps the library's lasso
    search, which the oracle does not replace)."""
    unary, binary, weights = L._DIALECTS[task]
    rng = np.random.default_rng(seed)
    pool = L.AP_CHARS[:ap_count]
    pairs = []
    attempts = 0
    while len(pairs) < n and attempts < 50 * n:
        attempts += 1
        phi = choice_random_formula(
            rng, int(rng.integers(size_range[0], size_range[1] + 1)),
            unary, binary, weights, pool)
        if task == "prop":
            a = checker_minimal_assignment(phi)
            target = None if a is None else L.format_assignment(a)
        else:
            trace = L._first_satisfying_lasso(phi)
            target = None if trace is None else L.unparse_trace(trace)
        if target is not None:
            pairs.append((L.unparse(phi), target))
    return pairs


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
