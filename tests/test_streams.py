"""Stream construction: embedding, aggregation, projection, renamings."""
import numpy as np
import pytest

from streamformer import streams as S
from streamformer import tensor as T
from streamformer.errors import ContractError, VocabularyError

from helpers import dense, permuted, rows_batch

RNG = np.random.default_rng(11)


def bare_vocab(n_inter=3):
    return S.Vocabulary(S.RESERVED, tuple("abcdefgh"[:n_inter]))


def test_vocabulary_layout():
    v = bare_vocab(3)
    assert v.base_size == 3 and v.inter_size == 3
    assert v.actual_row == 3 and v.placeholder_row == 4 and v.table_rows == 5
    assert list(v.inter_ids()) == [3, 4, 5]
    assert v.is_inter(3) and not v.is_inter(2)
    assert v.encode("ab") == [3, 4]
    assert v.decode([3, 4, 5]) == "abc"
    with pytest.raises(VocabularyError):
        v.encode("z")


def test_vocabulary_requires_reserved_prefix():
    with pytest.raises(VocabularyError):
        S.Vocabulary(("<s>", "<pad>", "</s>"), ("a",))


def test_vocabulary_growth_keeps_table():
    v = bare_vocab(3)
    w = S.Vocabulary(S.RESERVED, tuple("abcdefghij"))
    assert w.table_rows == v.table_rows  # table never depends on V_i
    assert w.inter_size == 10


def test_stream_lookup_spec_example():
    # x = [0, 3, 1, 4] over V_n = 3: two streams, actual row 3, placeholder 4
    v = bare_vocab(3)
    lookup, occ = S.stream_lookup_ids([0, 3, 1, 4], v, [3, 4])
    assert lookup.tolist() == [[0, 3, 1, 4], [0, 4, 1, 3]]
    assert occ.tolist() == [[0, 1, 0, 0], [0, 0, 0, 1]]


def test_embed_streams_synthetic_single_stream():
    v = bare_vocab(3)
    W = T.Tensor(RNG.normal(size=(v.table_rows, 4)))
    H = S.pack_sequences([[0, 1, 2]], W, v)
    assert H.k == 1
    assert H.occupancy.sum() == 0.0
    assert H.stream_ids.tolist() == [[-1]]
    assert np.array_equal(dense(H)[0, 0], W.data[[0, 1, 2]])


def test_embed_streams_rows():
    v = bare_vocab(3)
    W = T.Tensor(RNG.normal(size=(v.table_rows, 4)))
    H = S.pack_sequences([[1, 3, 5, 3]], W, v)
    assert H.k == 2 and H.stream_ids.tolist() == [[3, 5]]
    got = dense(H)[0]
    assert np.array_equal(got[0], W.data[[1, 3, 4, 3]])   # stream of id 3
    assert np.array_equal(got[1], W.data[[1, 4, 3, 4]])   # stream of id 5
    assert dense(H, H.occupancy)[0].tolist() == [[0, 1, 0, 1], [0, 0, 1, 0]]


def test_embed_rejects_empty_and_bad_ids():
    v = bare_vocab(2)
    W = T.Tensor(np.zeros((v.table_rows, 4)))
    with pytest.raises(ContractError):
        S.pack_sequences([[]], W, v)
    with pytest.raises(VocabularyError):
        S.pack_sequences([[9]], W, v)
    with pytest.raises(VocabularyError):
        S.pack_sequences([[0]], T.Tensor(np.zeros((3, 4))), v)


def test_embedding_permutation_equivariance_exact():
    # renaming the symbols only permutes the streams, bit for bit
    v = bare_vocab(4)
    W = T.Tensor(RNG.normal(size=(v.table_rows, 8)))
    x = [1, 3, 5, 6, 3, 0, 6]
    f = S.AlphaRenaming(v, {3: 6, 6: 3, 4: 5, 5: 4})
    H = S.pack_sequences([x], W, v)
    Hf = S.pack_sequences([f(x)], W, v)
    # stream for id t in H matches stream for f(t) in Hf
    for i, sid in enumerate(H.stream_ids[0]):
        j = list(Hf.stream_ids[0]).index(f[int(sid)])
        assert dense(H)[0, i].tobytes() == dense(Hf)[0, j].tobytes()
        assert np.array_equal(dense(H, H.occupancy)[0, i],
                              dense(Hf, Hf.occupancy)[0, j])


def test_aggregate_single_stream_is_identity():
    v = bare_vocab(2)
    W = T.Tensor(RNG.normal(size=(v.table_rows, 4)))
    H = S.pack_sequences([[0, 3, 1]], W, v)
    assert H.k == 1
    out = S.aggregate(H)
    assert out.data.tobytes() == dense(H)[:, 0].tobytes()


def test_aggregate_mean_and_restore():
    h = RNG.normal(size=(1, 2, 3, 4))
    occ = np.zeros((1, 2, 3))
    occ[0, 0, 1] = 1.0  # stream 0 owns position 1
    occ[0, 1, 2] = 1.0  # stream 1 owns position 2
    H = rows_batch(h, occ, np.ones((1, 2)), np.array([[3, 4]]), np.array([3]))
    out = S.aggregate(H).data[0]
    assert np.allclose(out[0], h[0, :, 0].mean(axis=0))
    assert np.array_equal(out[1], h[0, 0, 1])
    assert np.array_equal(out[2], h[0, 1, 2])


def test_aggregate_permutation_reorders_only_summation():
    h = RNG.normal(size=(1, 4, 5, 6))
    occ = np.zeros((1, 4, 5))
    for i in range(4):
        occ[0, i, i] = 1.0
    H = rows_batch(h, occ, np.ones((1, 4)), np.array([[3, 4, 5, 6]]),
                   np.array([5]))
    base = S.aggregate(H).data
    perm = [2, 0, 3, 1]
    again = S.aggregate(permuted(H, perm)).data
    assert np.max(np.abs(base - again)) <= 1e-9


def test_aggregate_requires_active_stream():
    with pytest.raises(ContractError):
        S.aggregate(rows_batch(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 2)),
                               np.zeros((1, 1)), np.array([[-1]]), np.array([2])))


def test_project_matches_hand_dot_products():
    v = bare_vocab(2)
    W = T.Tensor(RNG.normal(size=(v.table_rows, 3)))
    h = RNG.normal(size=(1, 2, 4, 3))
    H = rows_batch(h, np.zeros((1, 2, 4)), np.ones((1, 2)),
                   np.array([[3, 4]]), np.array([4]))
    logits = S.project(H, W).data[0]
    assert logits.shape == (4, v.base_size + 2)
    for t in range(4):
        for c in range(v.base_size):
            want = np.mean([h[0, i, t] @ W.data[c] for i in range(2)])
            assert abs(logits[t, c] - want) < 1e-12
        for i in range(2):
            want = h[0, i, t] @ W.data[v.actual_row]
            assert abs(logits[t, v.base_size + i] - want) < 1e-12


def test_embed_then_project_matches_scalar_oracle():
    # whole pipeline against explicit loops on a short sequence
    v = bare_vocab(3)
    W = T.Tensor(RNG.normal(size=(v.table_rows, 6)))
    x = [1, 3, 4, 0, 4, 3, 2, 5]
    H = S.pack_sequences([x], W, v)
    logits = S.project(H, W).data[0]
    sids = [3, 4, 5]
    for t, tok in enumerate(x):
        rows = []
        for sid in sids:
            if tok == sid:
                rows.append(W.data[v.actual_row])
            elif v.is_inter(tok):
                rows.append(W.data[v.placeholder_row])
            else:
                rows.append(W.data[tok])
        for c in range(v.base_size):
            want = sum(r @ W.data[c] for r in rows) / len(rows)
            assert abs(logits[t, c] - want) <= 1e-12
        for i in range(len(sids)):
            want = rows[i] @ W.data[v.actual_row]
            assert abs(logits[t, v.base_size + i] - want) <= 1e-12


def test_project_inactive_columns_are_minus_inf():
    h = RNG.normal(size=(1, 2, 3, 4))
    active = np.array([[1.0, 0.0]])
    H = rows_batch(h, np.zeros((1, 2, 3)), active, np.array([[3, -1]]),
                   np.array([3]))
    logits = S.project(H, T.Tensor(RNG.normal(size=(6, 4)))).data
    assert np.all(np.isinf(logits[0, :, -1])) and np.all(logits[0, :, -1] < 0)
    assert np.all(np.isfinite(logits[0, :, :-1]))


def test_pack_sequences_padding_and_activity():
    v = bare_vocab(4)
    W = T.Tensor(RNG.normal(size=(v.table_rows, 4)))
    H = S.pack_sequences([[1, 3, 4, 2], [1, 5, 2]], W, v)
    assert H.batch == 2 and H.k == 2 and H.length == 4
    assert H.active.tolist() == [[1, 1], [1, 0]]
    assert H.stream_ids.tolist() == [[3, 4], [5, -1]]
    assert H.lengths.tolist() == [4, 3]
    # padded tail reads the padding row
    assert np.array_equal(dense(H)[1, 0, 3], W.data[S.PAD_ID])


def test_renaming_roundtrip_and_validation():
    v = bare_vocab(4)
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = S.AlphaRenaming.random(v, rng)
        seq = [int(t) for t in rng.integers(0, v.total_size, size=12)]
        assert f.inverse()(f(seq)) == seq
    with pytest.raises(ContractError):
        S.AlphaRenaming(v, {3: 4, 4: 4})
    with pytest.raises(VocabularyError):
        S.AlphaRenaming.identity(v)([99])


def test_gradients_flow_through_aggregate_and_project():
    v = bare_vocab(2)
    Wp = T.Parameter("embed.w", RNG.normal(size=(v.table_rows, 6)))
    weight = np.random.default_rng(3).normal(size=(1, 4, 5))

    def loss_fn():
        H = S.pack_sequences([[1, 3, 4, 2]], Wp.tensor, v)
        g = S.aggregate(H)
        logits = S.project(H.with_hidden(T.add(H.hidden, T.reshape(
            g, (1, 4, 6)))), Wp.tensor)
        return T.tsum(T.mul(logits, weight))

    report = T.gradient_check([Wp], loss_fn)
    assert report["embed.w"] <= 1e-4
