"""Numeric core: forward ops against scalar-loop oracles, gradients against
central finite differences, determinism, and checkpoint round-trips."""
import numpy as np
import pytest

from streamformer import attention as A
from streamformer import tensor as T
from streamformer.errors import ContractError, DimensionError
from streamformer.streams import Grid

from helpers import (add, attention_config, concat, div, exp, gradient_check,
                     index, log, matmul, mul, phases, sqrt, sub,
                     take_along_last, transpose, tsum, zero_grads)
from oracles import (finite_difference, naive_layer_norm, naive_matmul,
                     naive_rope, naive_softmax)

RNG = np.random.default_rng(7)


def rel(a, b):
    return np.max(np.abs(a - b) / np.maximum(1e-12, np.abs(a) + np.abs(b)))


@pytest.mark.parametrize("value", [
    [[1, 2], [3, 4]], np.arange(6).reshape(2, 3),
    np.ones((2, 3), dtype=np.float32), 3, 2.5, np.float64(1.5),
    np.array(7.0), np.arange(12.0).reshape(3, 4)[:, ::2],
    np.arange(12.0).reshape(3, 4).T], ids=[
    "list", "int array", "float32 array", "int", "float", "np.float64",
    "0-d array", "strided view", "transposed view"])
def test_tensor_stores_what_asarray_gives(value):
    want = np.asarray(value, dtype=np.float64)
    got = T.Tensor(value).data
    assert type(got) is np.ndarray and got.dtype == np.float64
    assert got.shape == want.shape and got.strides == want.strides
    assert np.array_equal(got, want)


def test_tensor_keeps_a_float64_array_without_a_copy():
    x = np.arange(12.0).reshape(3, 4)
    for arr in (x, x[:, ::2], x.T):
        assert T.Tensor(arr).data is arr
    other_order = x.astype(">f8")
    assert T.Tensor(other_order).data.dtype == np.dtype(np.float64)


def test_matmul_matches_scalar_oracle():
    for _ in range(5):
        m, n, p = RNG.integers(1, 33, size=3)
        a = RNG.normal(size=(m, n))
        b = RNG.normal(size=(n, p))
        got = matmul(T.Tensor(a), T.Tensor(b)).data
        assert rel(got, naive_matmul(a, b)) <= 1e-10


def test_matmul_batched_broadcast():
    a = RNG.normal(size=(3, 2, 4, 5))
    b = RNG.normal(size=(3, 1, 5, 6))
    got = matmul(T.Tensor(a), T.Tensor(b)).data
    for i in range(3):
        for j in range(2):
            assert np.allclose(got[i, j], naive_matmul(a[i, j], b[i, 0]), atol=1e-12)


def test_matmul_shape_error():
    with pytest.raises(DimensionError):
        matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4, 2))))


def _one_hot_attention(Lq, Lk):
    """Single-head attention whose values and projections are identities,
    so each output row is that query's softmax weights over the keys."""
    mha = A.MultiHeadAttention("t", attention_config(d_model=Lk, heads=1), RNG)
    mha.wv.data = np.eye(Lk)
    mha.wo.data = np.eye(Lk)
    v = T.Tensor(np.eye(Lk)[None, None])
    return mha, v


def _attention_weights(mha, v, q_in, k_in, mask, pos_q, pos_k):
    k, _ = mha.project_kv(T.Tensor(k_in), v, phases(mha, pos_k),
                          grid=Grid(k_in.shape[:-1]))
    return mha.attend(T.Tensor(q_in), k, v, mask, phases(mha, pos_q),
                      grid=Grid(q_in.shape[:-1])).data


def test_softmax_rows_matches_oracle_and_masks():
    # the softmax inside attend: rows match the scalar oracle on the
    # rotated, scaled scores, masked keys get exactly 0, rows sum to 1
    mha, v = _one_hot_attention(6, 8)
    q_in = RNG.normal(size=(1, 1, 6, 8)) * 3
    k_in = RNG.normal(size=(1, 1, 8, 8)) * 3
    keep = RNG.random((1, 6, 8)) > 0.3
    keep[:, :, 0] = True
    pos_q, pos_k = np.arange(6.0), np.arange(8.0)
    got = _attention_weights(mha, v, q_in, k_in, keep, pos_q, pos_k)[0, 0]
    q = naive_rope(q_in[0, 0] @ mha.wq.data, pos_q)
    k = naive_rope(k_in[0, 0] @ mha.wk.data, pos_k)
    for i in range(6):
        scores = np.array([np.dot(q[i], k[j]) for j in range(8)]) / np.sqrt(8)
        assert np.allclose(got[i], naive_softmax(scores, keep[0, i]), atol=1e-12)
        assert got[i][~keep[0, i]].sum() == 0.0
    assert np.allclose(got.sum(axis=-1), 1.0)


def test_softmax_all_masked_row_raises():
    # a row that sees no key never reaches the softmax
    mha, v = _one_hot_attention(2, 4)
    mask = A.padding_mask([4], 2, 4)
    mask[0, 1] = False
    x = np.zeros((1, 1, 4, 4))
    with pytest.raises(ContractError):
        _attention_weights(mha, v, x[:, :, :2], x, mask, np.arange(2), np.arange(4))


def test_softmax_uniform_row():
    mha, v = _one_hot_attention(1, 4)
    got = _attention_weights(mha, v, np.zeros((1, 1, 1, 4)),
                             RNG.normal(size=(1, 1, 4, 4)), None, [0], np.arange(4))
    assert np.allclose(got, 0.25)


def test_layer_norm_matches_oracle():
    x = RNG.normal(size=(4, 7, 10)) * 2
    y = RNG.normal(size=(4, 7, 10))
    gain = RNG.normal(size=10)
    bias = RNG.normal(size=10)
    got = T.add_layer_norm(T.Tensor(x), T.Tensor(y), T.Tensor(gain),
                           T.Tensor(bias)).data
    assert rel(got, naive_layer_norm(x + y, gain, bias)) <= 1e-10


def test_layer_norm_4d_matches_oracle_and_gradients():
    # the layout of the model's hidden slabs, (B, k, L, d); the gain and
    # bias gradients sum over every row of it, and both summands get the
    # input gradient
    x = T.Parameter("x", RNG.normal(size=(2, 3, 2, 5)) * 2 + 1)
    y = T.Parameter("y", RNG.normal(size=(2, 3, 2, 5)))
    gain = T.Parameter("gain", RNG.normal(size=5))
    bias = T.Parameter("bias", RNG.normal(size=5))
    got = T.add_layer_norm(x.tensor, y.tensor, gain.tensor, bias.tensor).data
    assert rel(got, naive_layer_norm(x.data + y.data, gain.data,
                                     bias.data)) <= 1e-10
    up = RNG.normal(size=(2, 3, 2, 5))

    def loss_fn():
        return tsum(mul(T.add_layer_norm(x.tensor, y.tensor, gain.tensor,
                                         bias.tensor), up))

    assert max(gradient_check([x, y, gain, bias], loss_fn).values()) <= 1e-4
    # the node hands one gradient array to both summands; each parameter
    # still gets a buffer of its own
    T.backward(loss_fn())
    assert np.array_equal(x.grad, y.grad)
    assert not np.shares_memory(x.grad, y.grad)


def test_layer_norm_constant_vector_yields_bias():
    x = np.full((1, 8), 3.25)
    gain = np.ones(8)
    bias = RNG.normal(size=8)
    got = T.add_layer_norm(T.Tensor(x), T.Tensor(0.0), T.Tensor(gain),
                           T.Tensor(bias)).data
    assert np.allclose(got[0], bias, atol=1e-12)


def test_rope_matches_oracle_and_shift_property():
    # keys from project_kv are rotated heads; with an identity weight they
    # are the input rotated pair by pair in each head
    mha = A.MultiHeadAttention("t", attention_config(d_model=16, heads=2), RNG)
    mha.wk.data = np.eye(16)
    x = RNG.normal(size=(2, 1, 5, 16))
    pos = np.arange(5, dtype=float)
    k, _ = mha.project_kv(T.Tensor(x), T.Tensor(x), phases(mha, pos),
                          grid=Grid(x.shape[:-1]))
    for h in range(2):
        want = naive_rope(x[..., h * 8:(h + 1) * 8], pos)
        assert rel(k.data[:, :, h], want) <= 1e-10
    # relative-position property: dot(rope(q,m), rope(k,n)) depends on m-n only
    q = T.Tensor(RNG.normal(size=(1, 1, 1, 16)))
    kk = T.Tensor(RNG.normal(size=(1, 1, 1, 16)))

    def dots(m, n):
        a, _ = mha.project_kv(q, q, phases(mha, [m]), grid=Grid(q.shape[:-1]))
        b, _ = mha.project_kv(kk, kk, phases(mha, [n]),
                              grid=Grid(kk.shape[:-1]))
        return (a.data * b.data).sum(axis=-1)

    for shift in (1, 3, 11):
        assert np.max(np.abs(dots(4.0, 2.0) - dots(4.0 + shift, 2.0 + shift))) < 1e-9


def test_rope_tables_built_once_rotate_as_real_formula():
    # the cached phase tables hold cos + i sin of pos * base**(-2j/D); one
    # complex multiply agrees with the real pair formula to rounding, and
    # repeated calls, built once and then reused, agree bitwise
    x = RNG.normal(size=(2, 3, 5, 8))
    for pos, base in ((np.arange(5.0), 10000.0), (np.arange(5.0) + 7, 500.0)):
        ang = pos[:, None] * base ** (-2.0 * np.arange(4) / 8)
        cos, sin = np.cos(ang), np.sin(ang)
        want = np.empty_like(x)
        want[..., 0::2] = x[..., 0::2] * cos - x[..., 1::2] * sin
        want[..., 1::2] = x[..., 0::2] * sin + x[..., 1::2] * cos
        phase = T.rope_phases(list(pos), 8, base)
        assert T.rope_phases(pos, 8, base) is phase
        assert not phase.flags.writeable
        assert np.array_equal(phase, cos + 1j * sin)
        first = T.rotate_pairs(x, phase)
        assert np.max(np.abs(first - want)) <= 1e-15
        assert T.rotate_pairs(x, T.rope_phases(pos, 8, base)).tobytes() == first.tobytes()
        back = T.rotate_pairs(first, phase.conj())
        assert np.max(np.abs(back - x)) <= 1e-15
    assert T.rope_phases(np.arange(5.0), 8, 500.0) is not \
        T.rope_phases(np.arange(5.0), 8, 10000.0)


def test_rope_odd_width_rejected():
    with pytest.raises(DimensionError):
        T.rope_phases([0.0, 1.0], 3, 10000.0)


def test_gather_rows_forward_and_scatter_gradient():
    table = T.Tensor(RNG.normal(size=(6, 4)))
    ids = np.array([[0, 2, 2], [5, 0, 1]])
    out = T.gather_rows(table, ids)
    assert out.shape == (2, 3, 4)
    assert np.array_equal(out.data[0, 1], table.data[2])
    loss = tsum(out)
    T.backward(loss)
    counts = np.bincount(ids.reshape(-1), minlength=6)[:, None]
    assert np.array_equal(table.grad, counts * np.ones((6, 4)))


def test_gather_rows_gradient_sums_repeated_ids():
    # a batch's embedding lookup, (16, 4, 12) ids into a 19-row table, and
    # a per-sequence table of keys gathered to stream rows
    rng = np.random.default_rng(5)
    cases = ((rng.normal(size=(19, 64)), rng.integers(0, 19, size=(16, 4, 12))),
             (rng.normal(size=(3, 2, 5, 4)), np.array([0, 0, 2, 1, 2, 2])))
    for data, ids in cases:
        table = T.Parameter("w", data)
        up = rng.normal(size=ids.shape + data.shape[1:])
        T.backward(tsum(mul(T.gather_rows(table.tensor, ids), up)))
        want = np.zeros_like(data)
        for i, g in zip(ids.reshape(-1), up.reshape((-1,) + data.shape[1:])):
            want[i] += g
        assert np.max(np.abs(table.grad - want)) <= 1e-12


def test_gather_rows_bad_index():
    with pytest.raises(ContractError):
        T.gather_rows(T.Tensor(np.ones((3, 2))), np.array([3]))


def test_backward_composite_matches_finite_differences():
    a = T.Parameter("a", RNG.normal(size=(3, 4)))
    b = T.Parameter("b", RNG.normal(size=(4, 5)))
    g = T.Parameter("g", RNG.normal(size=5))
    c = T.Parameter("c", RNG.normal(size=5))

    def loss_fn():
        y = matmul(a.tensor, b.tensor)
        y = T.add_layer_norm(y, T.Tensor(0.0), g.tensor, c.tensor)
        y = exp(y)
        y = div(y, tsum(y, axis=-1, keepdims=True))
        y = T.relu(sub(y, 0.1))
        return tsum(mul(y, y))

    report = gradient_check([a, b, g, c], loss_fn)
    assert max(report.values()) <= 1e-4


def test_backward_through_slice_concat_reshape():
    w = T.Parameter("w", RNG.normal(size=(4, 6)))

    def loss_fn():
        x = index(w.tensor, (slice(0, 3), slice(None)))
        y = index(w.tensor, (slice(1, 4), slice(None)))
        z = concat([x, y], axis=1)
        z = T.reshape(z, (2, 3, 6))
        z = transpose(z, (1, 0, 2))
        return tsum(mul(z, z))

    report = gradient_check([w], loss_fn)
    assert report["w"] <= 1e-4


def test_gradient_of_unused_parameter_is_zero():
    used = T.Parameter("used", RNG.normal(size=(2, 2)))
    unused = T.Parameter("unused", RNG.normal(size=(2, 2)))
    zero_grads([used, unused])
    loss = tsum(mul(used.tensor, used.tensor))
    T.backward(loss)
    assert unused.grad is None  # never touched -> exactly zero contribution
    report = gradient_check([used, unused],
                              lambda: tsum(mul(used.tensor, used.tensor)))
    assert report["unused"] == 0.0


def test_gradient_check_flags_corrupted_rule():
    w = T.Parameter("w", RNG.normal(size=(3,)))

    def bad_square(t):
        d = t.data
        # deliberately wrong adjoint: claims d/dx x^2 = 3x
        return T.Tensor(d * d, (t,), lambda g: (g * 3.0 * d,))

    report = gradient_check([w], lambda: tsum(bad_square(w.tensor)))
    assert report["w"] >= 1e-1


def test_tied_tensor_accumulates_both_paths():
    w = T.Parameter("w", RNG.normal(size=(3, 3)))

    def loss_fn():
        y = matmul(w.tensor, w.tensor)  # same storage used twice
        return tsum(y)

    report = gradient_check([w], loss_fn)
    assert report["w"] <= 1e-4


def test_shared_gradient_buffer_for_tied_parameter():
    w = T.Parameter("w", np.eye(2))
    tied = T.Parameter("tied-view", np.zeros(1))
    tied.tensor = w.tensor  # tie by storage identity
    zero_grads([w])
    T.backward(tsum(mul(w.tensor, 2.0)))
    assert tied.grad is w.grad


def test_mean_sum_div_grads():
    x = T.Parameter("x", RNG.normal(size=(4, 3)) + 3.0)

    def loss_fn():
        m = mul(tsum(x.tensor, axis=1, keepdims=True), 1.0 / 3)
        return tsum(div(x.tensor, add(m, 1.0)))

    assert gradient_check([x], loss_fn)["x"] <= 1e-4


def test_exp_log_sqrt_grads():
    x = T.Parameter("x", np.abs(RNG.normal(size=(5,))) + 0.5)

    def loss_fn():
        return tsum(T.add(log(x.tensor),
                          T.add(exp(mul(x.tensor, 0.3)), sqrt(x.tensor))))

    assert gradient_check([x], loss_fn)["x"] <= 1e-4


def test_rope_gradient_is_inverse_rotation():
    # rotation keeps norms, so the loss below reads only the rotated keys'
    # lengths; its gradient must undo the rotation exactly
    mha = A.MultiHeadAttention("t", attention_config(d_model=4, heads=1), RNG)
    x = T.Parameter("x", RNG.normal(size=(2, 1, 3, 4)))
    up = RNG.normal(size=(2, 1, 1, 3, 4))

    def loss_fn():
        k, _ = mha.project_kv(x.tensor, x.tensor,
                              phases(mha, np.arange(3, dtype=float) + 5),
                              grid=Grid(x.data.shape[:-1]))
        return tsum(mul(mul(k, k), 1.0 + up * up))

    assert gradient_check([x, mha.wk], loss_fn)["x"] <= 1e-4


def test_softmax_masked_gradient():
    mha, v = _one_hot_attention(3, 6)
    x = T.Parameter("x", RNG.normal(size=(1, 1, 6, 6)))
    keep = RNG.random((1, 3, 6)) > 0.3
    keep[:, :, 2] = True

    def loss_fn():
        k, _ = mha.project_kv(x.tensor, v, phases(mha, np.arange(6.0)),
                              grid=Grid(x.data.shape[:-1]))
        y = mha.attend(index(x.tensor, (slice(None), slice(None), slice(0, 3))),
                       k, v, keep, phases(mha, np.arange(3.0)),
                       grid=Grid((1, 1, 3)))
        return tsum(mul(y, np.arange(6.0)))

    assert gradient_check([x], loss_fn)["x"] <= 1e-4


def test_add_and_sub_reduce_equal_and_trailing_shapes_only():
    rng = np.random.default_rng(20)
    a = T.Parameter("a", rng.normal(size=(3, 4)))
    b = T.Parameter("b", rng.normal(size=(3, 4)))
    c = T.Parameter("c", rng.normal(size=4))
    up = rng.normal(size=(3, 4))
    zero_grads([a, b, c])
    T.backward(tsum(mul(T.sub(T.add(a.tensor, c.tensor), b.tensor), up)))
    assert np.array_equal(a.grad, up) and np.array_equal(b.grad, -up)
    assert np.allclose(c.grad, up.sum(axis=0), rtol=0, atol=1e-14)
    # a size-1 axis that broadcast is not a trailing shape
    row = T.Parameter("row", rng.normal(size=(1, 4)))
    loss = tsum(T.add(a.tensor, row.tensor))
    with pytest.raises(DimensionError):
        T.backward(loss)


def test_fused_takes_a_constant_operand_only_under_no_grad():
    # a cached decode step's keys and values are arrays: attending over
    # them is refused while a graph is recorded, and under no_grad gives
    # what attending over them as Tensors gives
    rng = np.random.default_rng(21)
    mha = A.MultiHeadAttention("t", attention_config(d_model=8, heads=2), rng)
    prefix = T.Tensor(rng.normal(size=(1, 2, 4, 8)))
    x = T.Tensor(rng.normal(size=(1, 2, 1, 8)))
    with T.no_grad():
        kp, vp = mha.project_kv(prefix, prefix, phases(mha, np.arange(4)),
                                grid=Grid(prefix.shape[:-1]))
        kx, vx = mha.project_kv(x, x, phases(mha, [4]),
                                grid=Grid(x.shape[:-1]))
    k = np.concatenate([kp.data, kx.data], axis=-2)
    v = np.concatenate([vp.data, vx.data], axis=-2)

    def step(k, v):
        return mha.attend(x, k, v, None, phases(mha, [4]), grid=Grid((1, 2, 1)))

    with pytest.raises(ContractError):
        step(k, v)
    with T.no_grad():
        got = step(k, v)
    assert got.parents == () and got.vjp is None
    assert got.data.tobytes() == step(T.Tensor(k), T.Tensor(v)).data.tobytes()


def test_no_grad_suppresses_graph():
    w = T.Parameter("w", np.ones((2, 2)))
    with T.no_grad():
        y = matmul(w.tensor, w.tensor)
    assert y.parents == () and y.vjp is None


def test_backward_requires_scalar():
    with pytest.raises(ContractError):
        T.backward(T.Tensor(np.ones(3)))


def test_forward_backward_deterministic_bitwise():
    def run(a_shape, ids):
        rng = np.random.default_rng(123)
        a = T.Parameter("a", rng.normal(size=a_shape))
        b = T.Parameter("b", rng.normal(size=(6, 6)))
        x = a.tensor if ids is None else T.gather_rows(a.tensor, ids)
        y = exp(mul(matmul(x, b.tensor), 0.1))
        loss = tsum(mul(y, y))
        T.backward(loss)
        return loss.data.copy(), a.grad.copy(), b.grad.copy()

    # 2-D x 2-D, 4-D x 2-D, whose weight gradient sums over 30 rows, and
    # a row gather with repeated ids, whose gradient sums the repeats
    ids = np.random.default_rng(7).integers(0, 19, size=(4, 3, 5))
    for a_shape, gather in (((6, 6), None), ((2, 3, 5, 6), None),
                            ((19, 6), ids)):
        l1, ga1, gb1 = run(a_shape, gather)
        l2, ga2, gb2 = run(a_shape, gather)
        assert l1.tobytes() == l2.tobytes()
        assert ga1.tobytes() == ga2.tobytes()
        assert gb1.tobytes() == gb2.tobytes()


@pytest.mark.parametrize("a_shape", [(5, 4), (3, 5, 4), (2, 3, 5, 4),
                                     (2, 1, 5, 4)])
@pytest.mark.parametrize("transposed", [False, True])
def test_matmul_with_2d_right_operand_gradients(a_shape, transposed):
    # a 2-D right operand is a weight: its gradient is one GEMM over every
    # row of the left operand, and must equal the batched product summed
    # over the leading axes
    rng = np.random.default_rng(len(a_shape) + 10 * transposed)
    a = T.Parameter("a", rng.normal(size=a_shape))
    w = T.Parameter("w", rng.normal(size=(6, 4) if transposed else (4, 6)))
    up = rng.normal(size=a_shape[:-1] + (6,))

    def right():
        return transpose(w.tensor, (1, 0)) if transposed else w.tensor

    def loss_fn():
        return tsum(mul(matmul(a.tensor, right()), up))

    assert max(gradient_check([a, w], loss_fn).values()) <= 1e-4
    zero_grads([a, w])
    T.backward(loss_fn())
    wd = right().data
    batched_a = np.matmul(up, wd.T)
    batched_w = np.matmul(a.data.swapaxes(-1, -2), up)
    batched_w = batched_w.reshape(-1, 4, 6).sum(axis=0)
    if transposed:
        batched_w = batched_w.T
    assert a.grad.shape == a.data.shape and w.grad.shape == w.data.shape
    assert np.allclose(a.grad, batched_a, rtol=1e-12, atol=1e-12)
    assert np.allclose(w.grad, batched_w, rtol=1e-12, atol=1e-12)


def test_gradient_through_three_consumers():
    # h reaches the loss through add (which hands h and y its own gradient
    # array), reshape (a view of a gradient) and an add with itself.  h and
    # y both accumulate after sharing that array, so writing a stored
    # gradient in place would corrupt one of them
    rng = np.random.default_rng(5)
    x = T.Parameter("x", rng.normal(size=(2, 3)))
    w = T.Parameter("w", rng.normal(size=(2, 3)))
    u1, u2, u3, u4 = (rng.normal(size=s)
                      for s in ((2, 3), (3, 2), (2, 3), (2, 3)))

    def loss_fn():
        h = mul(x.tensor, 2.0)
        y = mul(w.tensor, 3.0)
        s = T.add(h, y)
        return T.add(T.add(T.add(tsum(mul(s, u1)),
                                 tsum(mul(T.reshape(h, (3, 2)), u2))),
                           tsum(mul(T.add(h, h), u3))),
                     tsum(mul(y, u4)))

    assert max(gradient_check([x, w], loss_fn).values()) <= 1e-4
    zero_grads([x, w])
    T.backward(loss_fn())
    assert np.allclose(x.grad, 2.0 * (u1 + u2.reshape(2, 3) + 2.0 * u3),
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(w.grad, 3.0 * (u1 + u4), rtol=1e-12, atol=1e-12)


def test_parameter_gradients_own_their_memory():
    # add hands both operands its own gradient array; each parameter must
    # still get a buffer of its own, apart from the gradient add received
    p = T.Parameter("p", np.ones((2, 3)))
    q = T.Parameter("q", np.zeros((2, 3)))
    s = T.add(p.tensor, q.tensor)
    received = []
    add_vjp = s.vjp
    s.vjp = lambda g: (received.append(g), add_vjp(g))[1]
    T.backward(tsum(mul(s, np.arange(6.0).reshape(2, 3))))
    assert len(received) == 1
    assert not np.shares_memory(p.grad, q.grad)
    assert not np.shares_memory(p.grad, received[0])
    assert not np.shares_memory(q.grad, received[0])
    p.grad[0, 0] = 99.0
    assert q.grad[0, 0] == 0.0


def test_backward_frees_interior_gradients():
    # a node's gradient is dead once its vjp has run; parameters keep theirs
    w = T.Parameter("w", RNG.normal(size=(3, 3)))
    h = matmul(w.tensor, w.tensor)
    r = T.relu(h)
    loss = tsum(mul(r, r))
    T.backward(loss)
    assert loss.grad is None and h.grad is None and r.grad is None
    assert w.grad is not None and w.grad.shape == (3, 3)


def test_dropout_identity_at_zero_and_scaling():
    x = T.Tensor(np.ones((4, 4)))
    rng = np.random.default_rng(0)
    assert T.dropout(x, 0.0, rng) is x
    y = T.dropout(x, 0.5, rng)
    vals = np.unique(y.data)
    assert set(vals).issubset({0.0, 2.0})
    with pytest.raises(ContractError):
        T.dropout(x, 1.0, rng)


def test_checkpoint_roundtrip_and_determinism(tmp_path):
    arrays = {"m.w": RNG.normal(size=(3, 4)), "m.b": RNG.normal(size=(4,)),
              "scalar": np.float64(2.5).reshape(())}
    meta = {"config": {"d_model": 8}, "format": "demo"}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    T.save_checkpoint(p1, arrays, meta)
    T.save_checkpoint(p2, arrays, meta)
    assert p1.read_bytes() == p2.read_bytes()
    back, meta2 = T.load_checkpoint(p1)
    assert meta2 == meta
    for k in arrays:
        assert np.asarray(arrays[k]).tobytes() == back[k].tobytes()
        assert np.asarray(arrays[k]).shape == back[k].shape


def test_checkpoint_rejects_garbage(tmp_path):
    p = tmp_path / "x.ckpt"
    p.write_bytes(b"not a checkpoint\n{}\n[]\n")
    with pytest.raises(ContractError):
        T.load_checkpoint(p)


def test_failed_checkpoint_write_keeps_the_old_file(tmp_path):
    p = tmp_path / "model.ckpt"
    T.save_checkpoint(p, {"w": np.arange(6.0)}, {"step": 1})
    before = p.read_bytes()
    # the second array cannot be converted, after the first was written
    with pytest.raises(ValueError):
        T.save_checkpoint(p, {"w": np.ones(6), "bad": "not a number"},
                          {"step": 2})
    assert p.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]


def test_finite_difference_helper_agrees_with_itself():
    # sanity that the test-side oracle is wired correctly
    arr = RNG.normal(size=(3,))
    g = finite_difference(lambda: float((arr ** 2).sum()), arr)
    assert np.allclose(g, 2 * arr, atol=1e-6)


def test_take_along_last_gradient_and_inf_safety():
    raw = RNG.normal(size=(2, 3, 5))
    raw[0, 0, 4] = -np.inf   # untouched columns may hold -inf
    idx = np.array([[0, 2, 1], [4, 3, 0]])
    p = T.Parameter("z", raw)

    def loss_fn():
        picked = take_along_last(p.tensor, idx)
        return tsum(mul(picked, np.arange(6.0).reshape(2, 3)))

    errs = gradient_check([p], loss_fn)
    assert errs["z"] <= 1e-4
    out = take_along_last(T.Tensor(raw), idx)
    assert np.isfinite(out.data).all()
    with pytest.raises(T.DimensionError):
        take_along_last(T.Tensor(raw), np.zeros((2, 2), dtype=int))
    with pytest.raises(ContractError):
        take_along_last(T.Tensor(raw), np.full((2, 3), 9))
