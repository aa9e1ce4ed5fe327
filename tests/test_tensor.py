"""Numeric core: forward ops against scalar-loop oracles, gradients against
central finite differences, determinism, and checkpoint round-trips."""
import numpy as np
import pytest

from streamformer import tensor as T
from streamformer.errors import ContractError, DimensionError

from oracles import (finite_difference, naive_layer_norm, naive_matmul,
                     naive_rope, naive_softmax)

RNG = np.random.default_rng(7)


def rel(a, b):
    return np.max(np.abs(a - b) / np.maximum(1e-12, np.abs(a) + np.abs(b)))


def test_matmul_matches_scalar_oracle():
    for _ in range(5):
        m, n, p = RNG.integers(1, 33, size=3)
        a = RNG.normal(size=(m, n))
        b = RNG.normal(size=(n, p))
        got = T.matmul(T.Tensor(a), T.Tensor(b)).data
        assert rel(got, naive_matmul(a, b)) <= 1e-10


def test_matmul_batched_broadcast():
    a = RNG.normal(size=(3, 2, 4, 5))
    b = RNG.normal(size=(3, 1, 5, 6))
    got = T.matmul(T.Tensor(a), T.Tensor(b)).data
    for i in range(3):
        for j in range(2):
            assert np.allclose(got[i, j], naive_matmul(a[i, j], b[i, 0]), atol=1e-12)


def test_matmul_shape_error():
    with pytest.raises(DimensionError):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4, 2))))


def test_softmax_rows_matches_oracle_and_masks():
    x = RNG.normal(size=(6, 9)) * 3
    keep = RNG.random((6, 9)) > 0.3
    keep[:, 0] = True
    got = T.softmax_rows(T.Tensor(x), keep).data
    for i in range(6):
        assert np.allclose(got[i], naive_softmax(x[i], keep[i]), atol=1e-12)
        assert got[i][~keep[i]].sum() == 0.0
    assert np.allclose(got.sum(axis=-1), 1.0)


def test_softmax_all_masked_row_raises():
    x = np.zeros((2, 4))
    keep = np.ones((2, 4), dtype=bool)
    keep[1] = False
    with pytest.raises(ContractError):
        T.softmax_rows(T.Tensor(x), keep)


def test_softmax_uniform_row():
    got = T.softmax_rows(T.Tensor(np.zeros((1, 5)))).data
    assert np.allclose(got, 0.2)


def test_layer_norm_matches_oracle():
    x = RNG.normal(size=(4, 7, 10)) * 2
    gain = RNG.normal(size=10)
    bias = RNG.normal(size=10)
    got = T.layer_norm(T.Tensor(x), T.Tensor(gain), T.Tensor(bias)).data
    assert rel(got, naive_layer_norm(x, gain, bias)) <= 1e-10


def test_layer_norm_constant_vector_yields_bias():
    x = np.full((1, 8), 3.25)
    gain = np.ones(8)
    bias = RNG.normal(size=8)
    got = T.layer_norm(T.Tensor(x), T.Tensor(gain), T.Tensor(bias)).data
    assert np.allclose(got[0], bias, atol=1e-12)


def test_rope_matches_oracle_and_shift_property():
    x = RNG.normal(size=(2, 5, 8))
    pos = np.arange(5, dtype=float)
    got = T.rope_rotate(T.Tensor(x), pos).data
    assert rel(got, naive_rope(x, pos)) <= 1e-10
    # relative-position property: dot(rope(q,m), rope(k,n)) depends on m-n only
    q = RNG.normal(size=8)
    k = RNG.normal(size=8)
    for shift in (1, 3, 11):
        d1 = np.dot(T.rope_rotate(T.Tensor(q[None]), [4.0]).data[0],
                    T.rope_rotate(T.Tensor(k[None]), [2.0]).data[0])
        d2 = np.dot(T.rope_rotate(T.Tensor(q[None]), [4.0 + shift]).data[0],
                    T.rope_rotate(T.Tensor(k[None]), [2.0 + shift]).data[0])
        assert abs(d1 - d2) < 1e-9


def test_rope_odd_width_rejected():
    with pytest.raises(DimensionError):
        T.rope_rotate(T.Tensor(np.ones((2, 3))), [0.0, 1.0])


def test_gather_rows_forward_and_scatter_gradient():
    table = T.Tensor(RNG.normal(size=(6, 4)))
    ids = np.array([[0, 2, 2], [5, 0, 1]])
    out = T.gather_rows(table, ids)
    assert out.shape == (2, 3, 4)
    assert np.array_equal(out.data[0, 1], table.data[2])
    loss = T.tsum(out)
    T.backward(loss)
    counts = np.bincount(ids.reshape(-1), minlength=6)[:, None]
    assert np.array_equal(table.grad, counts * np.ones((6, 4)))


def test_gather_rows_bad_index():
    with pytest.raises(ContractError):
        T.gather_rows(T.Tensor(np.ones((3, 2))), np.array([3]))


def test_backward_composite_matches_finite_differences():
    a = T.Parameter("a", RNG.normal(size=(3, 4)))
    b = T.Parameter("b", RNG.normal(size=(4, 5)))
    g = T.Parameter("g", RNG.normal(size=5))
    c = T.Parameter("c", RNG.normal(size=5))

    def loss_fn():
        y = T.matmul(a.tensor, b.tensor)
        y = T.layer_norm(y, g.tensor, c.tensor)
        y = T.softmax_rows(y)
        y = T.relu(T.sub(y, 0.1))
        return T.tsum(T.mul(y, y))

    report = T.gradient_check([a, b, g, c], loss_fn)
    assert max(report.values()) <= 1e-4


def test_backward_through_slice_concat_reshape():
    w = T.Parameter("w", RNG.normal(size=(4, 6)))

    def loss_fn():
        x = T.index(w.tensor, (slice(0, 3), slice(None)))
        y = T.index(w.tensor, (slice(1, 4), slice(None)))
        z = T.concat([x, y], axis=1)
        z = T.reshape(z, (2, 3, 6))
        z = T.transpose(z, (1, 0, 2))
        return T.tsum(T.mul(z, z))

    report = T.gradient_check([w], loss_fn)
    assert report["w"] <= 1e-4


def test_gradient_of_unused_parameter_is_zero():
    used = T.Parameter("used", RNG.normal(size=(2, 2)))
    unused = T.Parameter("unused", RNG.normal(size=(2, 2)))
    T.zero_grads([used, unused])
    loss = T.tsum(T.mul(used.tensor, used.tensor))
    T.backward(loss)
    assert unused.grad is None  # never touched -> exactly zero contribution
    report = T.gradient_check([used, unused],
                              lambda: T.tsum(T.mul(used.tensor, used.tensor)))
    assert report["unused"] == 0.0


def test_gradient_check_flags_corrupted_rule():
    w = T.Parameter("w", RNG.normal(size=(3,)))

    def bad_square(t):
        d = t.data
        # deliberately wrong adjoint: claims d/dx x^2 = 3x
        return T.Tensor(d * d, (t,), lambda g: (g * 3.0 * d,))

    report = T.gradient_check([w], lambda: T.tsum(bad_square(w.tensor)))
    assert report["w"] >= 1e-1


def test_tied_tensor_accumulates_both_paths():
    w = T.Parameter("w", RNG.normal(size=(3, 3)))

    def loss_fn():
        y = T.matmul(w.tensor, w.tensor)  # same storage used twice
        return T.tsum(y)

    report = T.gradient_check([w], loss_fn)
    assert report["w"] <= 1e-4


def test_shared_gradient_buffer_for_tied_parameter():
    w = T.Parameter("w", np.eye(2))
    tied = T.Parameter("tied-view", np.zeros(1))
    tied.tensor = w.tensor  # tie by storage identity
    T.zero_grads([w])
    T.backward(T.tsum(T.mul(w.tensor, 2.0)))
    assert tied.grad is w.grad


def test_mean_sum_div_grads():
    x = T.Parameter("x", RNG.normal(size=(4, 3)) + 3.0)

    def loss_fn():
        m = T.tmean(x.tensor, axis=1, keepdims=True)
        return T.tsum(T.div(x.tensor, T.add(m, 1.0)))

    assert T.gradient_check([x], loss_fn)["x"] <= 1e-4


def test_exp_log_sqrt_grads():
    x = T.Parameter("x", np.abs(RNG.normal(size=(5,))) + 0.5)

    def loss_fn():
        return T.tsum(T.add(T.log(x.tensor),
                            T.add(T.exp(T.mul(x.tensor, 0.3)), T.sqrt(x.tensor))))

    assert T.gradient_check([x], loss_fn)["x"] <= 1e-4


def test_rope_gradient_is_inverse_rotation():
    x = T.Parameter("x", RNG.normal(size=(2, 3, 4)))

    def loss_fn():
        y = T.rope_rotate(x.tensor, np.arange(3, dtype=float))
        return T.tsum(T.mul(y, y))

    assert T.gradient_check([x], loss_fn)["x"] <= 1e-4


def test_softmax_masked_gradient():
    x = T.Parameter("x", RNG.normal(size=(3, 6)))
    keep = RNG.random((3, 6)) > 0.3
    keep[:, 2] = True

    def loss_fn():
        y = T.softmax_rows(x.tensor, keep)
        return T.tsum(T.mul(y, np.arange(6.0)))

    assert T.gradient_check([x], loss_fn)["x"] <= 1e-4


def test_no_grad_suppresses_graph():
    w = T.Parameter("w", np.ones((2, 2)))
    with T.no_grad():
        y = T.matmul(w.tensor, w.tensor)
    assert y.parents == () and y.vjp is None


def test_backward_requires_scalar():
    with pytest.raises(ContractError):
        T.backward(T.Tensor(np.ones(3)))


def test_forward_backward_deterministic_bitwise():
    def run():
        rng = np.random.default_rng(123)
        a = T.Parameter("a", rng.normal(size=(6, 6)))
        b = T.Parameter("b", rng.normal(size=(6, 6)))
        y = T.softmax_rows(T.matmul(a.tensor, b.tensor))
        loss = T.tsum(T.mul(y, y))
        T.backward(loss)
        return loss.data.copy(), a.grad.copy(), b.grad.copy()

    l1, ga1, gb1 = run()
    l2, ga2, gb2 = run()
    assert l1.tobytes() == l2.tobytes()
    assert ga1.tobytes() == ga2.tobytes()
    assert gb1.tobytes() == gb2.tobytes()


def test_dropout_identity_at_zero_and_scaling():
    x = T.Tensor(np.ones((4, 4)))
    assert T.dropout(x, 0.0) is x
    rng = np.random.default_rng(0)
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
        picked = T.take_along_last(p.tensor, idx)
        return T.tsum(T.mul(picked, np.arange(6.0).reshape(2, 3)))

    errs = T.gradient_check([p], loss_fn)
    assert errs["z"] <= 1e-4
    out = T.take_along_last(T.Tensor(raw), idx)
    assert np.isfinite(out.data).all()
    with pytest.raises(T.DimensionError):
        T.take_along_last(T.Tensor(raw), np.zeros((2, 2), dtype=int))
    with pytest.raises(ContractError):
        T.take_along_last(T.Tensor(raw), np.full((2, 3), 9))
