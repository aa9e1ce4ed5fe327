"""Attention variants: oracle agreement, masks, stream equivariance."""
import numpy as np
import pytest

from streamformer import attention as A
from streamformer import streams as S
from streamformer import tensor as T
from streamformer.errors import ContractError, DimensionError

from helpers import attention, dense, permuted, rows_batch, shared_by_streams
from oracles import composed_attend, composed_heads, naive_attention

RNG = np.random.default_rng(23)


def make_H(B=1, k=3, L=5, d=8, active=None, seed=0):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(B, k, L, d))
    occ = np.zeros((B, k, L))
    for i in range(min(k, L)):
        occ[:, i, i] = 1.0
    act = np.ones((B, k)) if active is None else np.asarray(active, float)
    sids = np.tile(np.arange(3, 3 + k), (B, 1))
    return rows_batch(h, occ, act, sids, np.full(B, L, dtype=np.int64))


def test_attention_config_validation():
    with pytest.raises(DimensionError):
        A.AttentionConfig(d_model=10, heads=3)
    with pytest.raises(DimensionError):
        A.AttentionConfig(d_model=6, heads=2)  # odd head width
    cfg = A.AttentionConfig(d_model=8, heads=2)
    assert cfg.head_dim == 4


def test_mask_constructors_and_validation():
    m = A.padding_mask([3, 2], Lq=4, Lk=4)
    assert m.bits.shape == (2, 4, 4)
    assert m.bits[1, 0].tolist() == [True, True, False, False]
    la = A.look_ahead_mask([4, 2], 4)
    assert la.kind == "look-ahead"
    assert la.bits[0, 1].tolist() == [True, True, False, False]
    assert la.bits[1, 3].tolist() == [True, True, False, False]
    with pytest.raises(ContractError):
        A.AttentionMask("padding", np.zeros((1, 2, 2), dtype=bool))
    with pytest.raises(ContractError):
        A.AttentionMask("diag", np.ones((1, 2, 2), dtype=bool))


def test_mha_single_head_matches_scalar_oracle():
    cfg = A.AttentionConfig(d_model=6, heads=1)
    mha = A.MultiHeadAttention("t", cfg, RNG)
    x = RNG.normal(size=(1, 1, 4, 6))
    mask = A.padding_mask([4], 4, 4)
    out = attention(mha, T.Tensor(x), T.Tensor(x), T.Tensor(x), mask,
                    np.arange(4), np.arange(4))
    q = x[0, 0] @ mha.wq.data
    k = x[0, 0] @ mha.wk.data
    v = x[0, 0] @ mha.wv.data
    want = naive_attention(q, k, v, mask.bits[0], np.arange(4), np.arange(4))
    want = want @ mha.wo.data
    assert np.max(np.abs(out.data[0, 0] - want)) <= 1e-10


def test_mha_multi_head_matches_per_head_oracle():
    cfg = A.AttentionConfig(d_model=8, heads=2)
    mha = A.MultiHeadAttention("t", cfg, RNG)
    x = RNG.normal(size=(1, 1, 5, 8))
    out = attention(mha, T.Tensor(x), T.Tensor(x), T.Tensor(x), None,
                    np.arange(5), np.arange(5))
    q = x[0, 0] @ mha.wq.data
    k = x[0, 0] @ mha.wk.data
    v = x[0, 0] @ mha.wv.data
    keep = np.ones((5, 5), dtype=bool)
    ctx = np.zeros((5, 8))
    for h in range(2):
        sl = slice(h * 4, (h + 1) * 4)
        ctx[:, sl] = naive_attention(q[:, sl], k[:, sl], v[:, sl], keep,
                                     np.arange(5), np.arange(5))
    want = ctx @ mha.wo.data
    assert np.max(np.abs(out.data[0, 0] - want)) <= 1e-10


def test_masked_weights_are_zero_and_rows_sum_to_one():
    # checked on the output: a key a query may not see (causal or padding)
    # leaves that query's output bitwise unchanged when it changes, and
    # values equal at every key pass through the weighting unscaled
    cfg = A.AttentionConfig(d_model=8, heads=2)
    mha = A.MultiHeadAttention("t", cfg, RNG)
    x = T.Tensor(dense(make_H(B=2, k=2, L=6)))
    pos = np.arange(6)
    mask = A.look_ahead_mask([6, 4], 6)
    out = attention(mha, x, x, x, mask, pos, pos).data
    for j in range(6):
        kv = x.data.copy()
        kv[:, :, j] += 10.0
        kv = T.Tensor(kv)
        bumped = attention(mha, x, kv, kv, mask, pos, pos).data
        for b, t in zip(*np.nonzero(~mask.bits[:, :, j])):
            assert bumped[b, :, t].tobytes() == out[b, :, t].tobytes()
    row = RNG.normal(size=8)
    flat = T.Tensor(np.broadcast_to(row, x.shape).copy())
    out = attention(mha, x, x, flat, mask, pos, pos).data
    want = row @ mha.wv.data @ mha.wo.data
    assert np.max(np.abs(out - want)) <= 1e-12


def test_per_stream_attention_k1_equals_plain_and_batches_agree():
    cfg = A.AttentionConfig(d_model=8, heads=2)
    mha = A.MultiHeadAttention("t", cfg, RNG)
    H = make_H(B=1, k=3, L=5)
    out = A.per_stream_attention(mha, H, None)
    for i in range(3):
        solo = rows_batch(dense(H)[:, i:i + 1], dense(H, H.occupancy)[:, i:i + 1],
                          np.ones((1, 1)), H.stream_ids[:, i:i + 1], H.lengths)
        alone = A.per_stream_attention(mha, solo, None)
        assert np.max(np.abs(dense(alone)[0, 0] - dense(out)[0, i])) == 0.0


def test_per_stream_attention_is_permutation_equivariant_bitwise():
    cfg = A.AttentionConfig(d_model=8, heads=2)
    mha = A.MultiHeadAttention("t", cfg, RNG)
    H = make_H(B=2, k=4, L=6, seed=3)
    out = A.per_stream_attention(mha, H, None)
    perm = [3, 1, 0, 2]
    out_p = A.per_stream_attention(mha, permuted(H, perm), None)
    assert dense(out)[:, perm].tobytes() == dense(out_p).tobytes()


def test_duplicated_stream_gets_identical_output():
    cfg = A.AttentionConfig(d_model=8, heads=2)
    mha = A.MultiHeadAttention("t", cfg, RNG)
    H = make_H(B=1, k=2, L=5, seed=4)
    H.hidden.data[1] = H.hidden.data[0]
    out = dense(A.per_stream_attention(mha, H, None))
    assert np.max(np.abs(out[0, 0] - out[0, 1])) <= 1e-12
    out_a = dense(A.aggregated_attention(mha, H, None))
    assert np.max(np.abs(out_a[0, 0] - out_a[0, 1])) <= 1e-12


def test_aggregated_attention_uses_shared_key_buffer():
    # the fused keys are one buffer per sequence; broadcast to every query
    # stream with a size-1 stream axis they give the same bytes as the
    # gathered copies the layer attends over, so key identity across
    # streams is structural
    cfg = A.AttentionConfig(d_model=8, heads=2)
    mha = A.MultiHeadAttention("t", cfg, RNG)
    H = make_H(B=1, k=3, L=5)
    out = A.aggregated_attention(mha, H, None)
    fused = S.aggregate(H)
    kv = T.reshape(fused, (1, 1, 5, 8))
    with T.no_grad():
        k, v = mha.project_kv(kv, kv, np.arange(5))
        out2 = mha.attend(T.Tensor(dense(H)), k, v, None, np.arange(5))
    assert dense(out).tobytes() == out2.data.tobytes()


def test_aggregated_attention_permutation_within_1e9():
    cfg = A.AttentionConfig(d_model=8, heads=2)
    mha = A.MultiHeadAttention("t", cfg, RNG)
    H = make_H(B=1, k=4, L=6, seed=8)
    out = A.aggregated_attention(mha, H, None)
    perm = [2, 3, 1, 0]
    out_p = A.aggregated_attention(mha, permuted(H, perm), None)
    assert np.max(np.abs(dense(out)[:, perm] - dense(out_p))) <= 1e-9


def test_cross_attention_per_requires_alignment():
    cfg = A.AttentionConfig(d_model=8, heads=2)
    mha = A.MultiHeadAttention("t", cfg, RNG)
    Hd = make_H(B=1, k=2, L=4, seed=1)
    He = make_H(B=1, k=3, L=6, seed=2)
    with pytest.raises(ContractError):
        A.cross_attention(mha, Hd, He, "per", None)
    with pytest.raises(ContractError):
        A.cross_attention(mha, Hd, He, "sideways", None)
    out = A.cross_attention(mha, Hd, He, "agg", None)
    assert dense(out).shape == (1, 2, 4, 8)


def test_cross_attention_per_stream_pairs_streams():
    cfg = A.AttentionConfig(d_model=8, heads=2)
    mha = A.MultiHeadAttention("t", cfg, RNG)
    Hd = make_H(B=1, k=3, L=4, seed=5)
    He = make_H(B=1, k=3, L=6, seed=6)
    out = A.cross_attention(mha, Hd, He, "per", None)
    for i in range(3):
        qd = rows_batch(dense(Hd)[:, i:i + 1], dense(Hd, Hd.occupancy)[:, i:i + 1],
                        np.ones((1, 1)), Hd.stream_ids[:, i:i + 1], Hd.lengths)
        ke = rows_batch(dense(He)[:, i:i + 1], dense(He, He.occupancy)[:, i:i + 1],
                        np.ones((1, 1)), He.stream_ids[:, i:i + 1], He.lengths)
        alone = A.cross_attention(mha, qd, ke, "per", None)
        assert np.array_equal(dense(alone)[0, 0], dense(out)[0, i])


def test_causal_mask_blocks_future_bitwise():
    cfg = A.AttentionConfig(d_model=8, heads=2)
    mha = A.MultiHeadAttention("t", cfg, RNG)
    H = make_H(B=1, k=2, L=6, seed=7)
    mask = A.look_ahead_mask([6], 6)
    out = A.per_stream_attention(mha, H, mask)
    bumped = H.hidden.data.copy()
    bumped[:, 4] += 10.0  # perturb position 4
    H2 = H.with_hidden(T.Tensor(bumped))
    out2 = A.per_stream_attention(mha, H2, mask)
    assert dense(out)[:, :, :4].tobytes() == dense(out2)[:, :, :4].tobytes()


def test_rope_shift_moves_into_scores():
    # scores depend on relative offsets: shifting all positions leaves them
    cfg = A.AttentionConfig(d_model=8, heads=2)
    mha = A.MultiHeadAttention("t", cfg, RNG)
    x = T.Tensor(RNG.normal(size=(1, 1, 5, 8)))
    out1 = attention(mha, x, x, x, None, np.arange(5), np.arange(5))
    out2 = attention(mha, x, x, x, None, np.arange(5) + 13, np.arange(5) + 13)
    assert np.max(np.abs(out1.data - out2.data)) <= 1e-9


def test_attention_parameter_count_independent_of_k():
    cfg = A.AttentionConfig(d_model=8, heads=2)
    mha = A.MultiHeadAttention("t", cfg, RNG)
    n_params = sum(p.data.size for p in mha.parameters())
    for k in (1, 2, 5):
        H = make_H(B=1, k=k, L=4, seed=k)
        A.per_stream_attention(mha, H, None)
        assert sum(p.data.size for p in mha.parameters()) == n_params


def test_gradient_check_through_all_attention_variants():
    cfg = A.AttentionConfig(d_model=4, heads=2)
    rng = np.random.default_rng(31)
    mha = A.MultiHeadAttention("t", cfg, rng)
    Hd = make_H(B=1, k=2, L=3, d=4, seed=1)
    He = make_H(B=1, k=2, L=4, d=4, seed=2)
    weight = rng.normal(size=(1, 2, 3, 4))
    mask = A.look_ahead_mask([3], 3)

    def loss_fn():
        a = A.per_stream_attention(mha, Hd, mask)
        b = A.aggregated_attention(mha, a, mask)
        c = A.cross_attention(mha, b, He, "per", None)
        d = A.cross_attention(mha, c, He, "agg", None)
        return T.tsum(T.mul(d.hidden, weight))

    report = T.gradient_check(mha.parameters(), loss_fn)
    assert max(report.values()) <= 1e-4


# ------------------------------------------------ fused nodes vs composition

def _fused_and_composed(q_shape, kv_shape, mask, q_pos, k_pos, seed):
    """Output and leaf gradients of the fused nodes and of the op-by-op
    composition, on the same weights, inputs and upstream gradient."""
    cfg = A.AttentionConfig(d_model=8, heads=2)
    rng = np.random.default_rng(seed)
    mha = A.MultiHeadAttention("t", cfg, rng)
    xq = T.Parameter("xq", rng.normal(size=q_shape))
    xk = T.Parameter("xk", rng.normal(size=kv_shape))
    xv = T.Parameter("xv", rng.normal(size=kv_shape))
    up = rng.normal(size=q_shape)
    leaves = [xq, xk, xv] + mha.parameters()
    keep = None if mask is None else mask.bits

    def fused():
        k, v = mha.project_kv(xk.tensor, xv.tensor, k_pos)
        if kv_shape[1] < q_shape[1]:
            k = shared_by_streams(k, q_shape[1])
            v = shared_by_streams(v, q_shape[1])
        return mha.attend(xq.tensor, k, v, mask, q_pos)

    def composed():
        h = cfg.heads
        return composed_attend(composed_heads(xq.tensor, mha.wq.tensor, h, q_pos),
                               composed_heads(xk.tensor, mha.wk.tensor, h, k_pos),
                               composed_heads(xv.tensor, mha.wv.tensor, h),
                               mha.wo.tensor, keep)

    runs = []
    for build in (fused, composed):
        T.zero_grads(leaves)
        out = build()
        T.backward(T.tsum(T.mul(out, up)))
        runs.append((out.data.copy(), {p.name: p.grad.copy() for p in leaves}))
    return leaves, runs


@pytest.mark.parametrize("case", ["per-stream keys, padding",
                                  "per-stream keys, look-ahead",
                                  "broadcast keys, padding",
                                  "broadcast keys, look-ahead",
                                  "broadcast keys, no mask"])
def test_fused_nodes_match_composition(case):
    streams = 1 if case.startswith("broadcast") else 3
    Lk = 5 if "look-ahead" in case else 6
    if "padding" in case:
        mask = A.padding_mask([Lk, 3], 5, Lk)
    elif "look-ahead" in case:
        mask = A.look_ahead_mask([5, 3], 5)
    else:
        mask = None
    leaves, ((o1, g1), (o2, g2)) = _fused_and_composed(
        (2, 3, 5, 8), (2, streams, Lk, 8), mask, np.arange(5.0) + 1,
        np.arange(float(Lk)), seed=len(case))
    assert o1.shape == (2, 3, 5, 8)
    assert np.max(np.abs(o1 - o2)) <= 1e-12
    for p in leaves:
        assert g1[p.name].shape == p.data.shape
        assert np.max(np.abs(g1[p.name] - g2[p.name])) <= 1e-12, p.name


def test_fused_nodes_match_composition_on_a_cached_decode_step():
    # one new position attends over cached keys and values: those are
    # constants, so the gradients reach the query side only
    cfg = A.AttentionConfig(d_model=8, heads=2)
    rng = np.random.default_rng(41)
    mha = A.MultiHeadAttention("t", cfg, rng)
    prefix = T.Tensor(rng.normal(size=(2, 3, 4, 8)))
    x = T.Parameter("x", rng.normal(size=(2, 3, 1, 8)))
    up = rng.normal(size=(2, 3, 1, 8))
    cache = A.KVCache()
    cache.extend(*mha.project_kv(prefix, prefix, np.arange(4)))
    k, v = cache.extend(*mha.project_kv(x.tensor, x.tensor, [4]))
    leaves = [x, mha.wq, mha.wo]
    T.zero_grads(leaves)
    out = mha.attend(x.tensor, k, v, None, [4])
    T.backward(T.tsum(T.mul(out, up)))
    got = {p.name: p.grad.copy() for p in leaves}
    assert mha.wk.grad is None and mha.wv.grad is None

    T.zero_grads(leaves)
    seq = T.Tensor(np.concatenate([prefix.data, x.data], axis=2))
    kc = composed_heads(seq, mha.wk.tensor, 2, np.arange(5)).data
    vc = composed_heads(seq, mha.wv.tensor, 2).data
    want = composed_attend(composed_heads(x.tensor, mha.wq.tensor, 2, [4]),
                           kc, vc, mha.wo.tensor)
    T.backward(T.tsum(T.mul(want, up)))
    assert np.max(np.abs(out.data - want.data)) <= 1e-12
    for p in leaves:
        assert np.max(np.abs(got[p.name] - p.grad)) <= 1e-12, p.name


def test_gradient_check_tiny_multi_head_attention():
    cfg = A.AttentionConfig(d_model=4, heads=2)
    rng = np.random.default_rng(43)
    mha = A.MultiHeadAttention("t", cfg, rng)
    xq = T.Parameter("xq", rng.normal(size=(2, 2, 3, 4)))
    xkv = T.Parameter("xkv", rng.normal(size=(2, 1, 4, 4)))
    up = rng.normal(size=(2, 2, 3, 4))
    mask = A.padding_mask([4, 2], 3, 4)

    def loss_fn():
        out = attention(mha, xq.tensor, xkv.tensor, xkv.tensor, mask,
                        np.arange(3) + 1, np.arange(4))
        return T.tsum(T.mul(out, up))

    report = T.gradient_check([xq, xkv] + mha.parameters(), loss_fn)
    assert max(report.values()) <= 1e-4


def test_attention_sublayer_is_four_graph_nodes():
    # projections of q, k and v, then one node for everything after
    cfg = A.AttentionConfig(d_model=8, heads=2)
    mha = A.MultiHeadAttention("t", cfg, RNG)
    H = make_H(B=2, k=3, L=5)
    mask = A.look_ahead_mask(np.repeat([5, 4], 3), 5)
    out = A.per_stream_attention(mha, H, mask).hidden
    inputs = {id(H.hidden)} | {id(p.tensor) for p in mha.parameters()}
    nodes, todo = set(), [out]
    while todo:
        node = todo.pop()
        if id(node) in inputs or id(node) in nodes:
            continue
        nodes.add(id(node))
        todo.extend(node.parents)
    assert len(nodes) == 4
    assert len(out.parents) == 4 and out.parents[3] is mha.wo.tensor


def test_fused_attention_forward_backward_deterministic_bitwise():
    def run():
        rng = np.random.default_rng(44)
        mha = A.MultiHeadAttention("t", A.AttentionConfig(d_model=8, heads=2), rng)
        x = T.Parameter("x", rng.normal(size=(2, 3, 5, 8)))
        H = rows_batch(x.tensor, np.zeros((2, 3, 5)), np.ones((2, 3)),
                       np.tile(np.arange(3, 6), (2, 1)), np.full(2, 5))
        mask = A.look_ahead_mask(np.repeat([5, 3], 3), 5)
        a = A.per_stream_attention(mha, H, mask)
        b = A.aggregated_attention(mha, a, mask)
        loss = T.tsum(T.mul(b.hidden, b.hidden))
        T.backward(loss)
        return [loss.data.tobytes(), x.grad.tobytes()] + \
            [p.grad.tobytes() for p in mha.parameters()]

    assert run() == run()
