"""Stream construction: embedding, aggregation, projection, renamings."""
import numpy as np
import pytest

from streamformer import streams as S
from streamformer import tensor as T
from streamformer.errors import ContractError, VocabularyError

from helpers import (add, dense, gradient_check, identity_renaming, mul,
                     permuted, rows_batch, stream_lookup_ids, tsum)

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
    # the surface -> id table is built once and is not part of the value
    table = v._ids
    assert v.encode("ba") == [4, 3] and v._ids is table
    assert v == bare_vocab(3) and hash(v) == hash(bare_vocab(3))


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
    lookup, occ = stream_lookup_ids([0, 3, 1, 4], v, [3, 4])
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


def _pack_one_at_a_time(seqs, W, v, stream_id_lists):
    """The batch pack_sequences builds, one stream_lookup_ids per sequence:
    each row's real positions, row after row."""
    lookups, occs, sids = [], [], []
    for seq, ids in zip(seqs, stream_id_lists):
        lk, occ = stream_lookup_ids(seq, v, ids)
        lookups.append(lk.reshape(-1))
        occs.append(occ.reshape(-1))
        sids.append(list(ids))
    k = max(1, max(len(i) for i in sids))
    stream_ids = [i + [-1] * (k - len(i)) for i in sids]
    seq_of_row = np.repeat(np.arange(len(seqs)),
                           [len(x) // len(s) for x, s in zip(lookups, seqs)])
    return (W.data[np.concatenate(lookups)], np.concatenate(occs),
            stream_ids, seq_of_row)


@pytest.mark.parametrize("pinned", [False, True])
def test_pack_matches_per_sequence_lookup(pinned):
    # a prop-4 corpus with a symbol-free source; pinned stream id lists
    # are what the decoder passes: the sources' own, for its inputs
    from streamformer.logic import gen_prop, task_vocabulary
    v = task_vocabulary("prop", 4)
    srcs = [v.encode(s) for s, _ in gen_prop(3, 4, (3, 12), 96).pairs]
    srcs[5] = v.encode("!&10")
    W = T.Tensor(RNG.normal(size=(v.table_rows, 6)))
    own = [S.sequence_stream_ids(s, v) for s in srcs]
    for b in range(0, len(srcs), 16):
        seqs = srcs[b:b + 16]
        ids = own[b:b + 16]
        if pinned:
            seqs = [[S.SOS_ID] + s[::-1] for s in seqs]
        H = S.pack_sequences(seqs, W, v, ids if pinned else None)
        hidden, occ, stream_ids, seq_of_row = _pack_one_at_a_time(
            seqs, W, v, ids)
        assert H.hidden.data.tobytes() == hidden.tobytes()
        assert np.array_equal(H.occupancy, occ)
        assert H.stream_ids.tolist() == stream_ids
        assert H.lengths.tolist() == [len(s) for s in seqs]
        assert np.array_equal(H.rows.seq, seq_of_row)
    assert S.pack_sequences([srcs[5]], W, v).stream_ids.tolist() == [[-1]]


def test_pack_stores_one_cell_per_real_stream_position():
    # stream counts 1 to 4, a symbol-free source, lengths 2 to 10: the
    # batch holds k_b * l_b cells per sequence and nothing for padding
    from streamformer.logic import task_vocabulary
    v = task_vocabulary("prop", 4)
    texts = ["!a", "&1!0", "&a|bc", "&|ab^cd", "&a|b!&cd", "&&ab|c!&da",
             "|ab"]
    seqs = [v.encode(t) for t in texts]
    streams = [max(1, len(S.sequence_stream_ids(s, v))) for s in seqs]
    assert sorted(set(streams)) == [1, 2, 3, 4]
    assert [len(s) for s in seqs] == [2, 4, 5, 7, 8, 10, 3]
    W = T.Tensor(RNG.normal(size=(v.table_rows, 4)))
    H = S.pack_sequences(seqs, W, v)
    cells = sum(k * len(s) for k, s in zip(streams, seqs))
    assert H.hidden.shape == (cells, 4) and H.occupancy.shape == (cells,)
    assert H.length == 10 and H.grid.shape == (sum(streams), 10)
    assert len(H.grid.index[0]) == cells


def test_pack_rejects_bad_ids_and_empty_sequences_in_a_batch():
    v = bare_vocab(3)
    W = T.Tensor(np.zeros((v.table_rows, 4)))
    for seqs in ([[1, 3], [6]], [[1, 3], [-1, 2]], [[1, 3], [4, 99]]):
        with pytest.raises(VocabularyError):
            S.pack_sequences(seqs, W, v)
    for seqs in ([[1, 3], []], [[], [1, 3]]):
        with pytest.raises(ContractError):
            S.pack_sequences(seqs, W, v)
    with pytest.raises(ContractError):
        S.pack_sequences([[1, 3]], W, v, [[3], [4]])


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


@pytest.mark.parametrize("width", [1, 3, 64, 768])
def test_rows_sum_adds_slot_by_slot_as_if_alone(width):
    # Rows.sum is the one reduction over a sequence's rows (aggregate's
    # mean, project's base columns): a sequence's sum is its rows added
    # one slot after another, bit for bit, in a batch of any counts as
    # when the sequence is summed alone.  The values span twelve decades,
    # so another order of the adds shows in the bits; at width 1, eight or
    # more slots are where numpy's own reduction would add pairwise
    rng = np.random.default_rng(width)
    for counts in ([1], [5], [3, 3, 3], [2, 5, 1, 4], [4, 1], [1, 2, 3, 4, 5],
                   [8], [9, 3, 8], [12, 8]):
        n = sum(counts)
        x = rng.normal(size=(n, width))
        x *= 10.0 ** rng.integers(-6, 7, (n, width))
        got = S.Rows(counts).sum(x)
        assert got.shape == (len(counts), width)
        lo = 0
        for b, c in enumerate(counts):
            want = 0.0
            for r in range(lo, lo + c):
                want = want + x[r]
            assert got[b].tobytes() == want.tobytes()
            alone = S.Rows([c]).sum(x[lo:lo + c])
            assert alone.tobytes() == want.tobytes()
            lo += c
    # one slot per sequence: each row plus +0.0, so a -0.0 sums to +0.0
    x = np.where(rng.random((3, width)) < 0.5, -0.0, rng.normal(size=(3, width)))
    got = S.Rows([1, 1, 1]).sum(x)
    assert got.tobytes() == (0.0 + x).tobytes()
    assert np.signbit(got).sum() == np.signbit(x).sum() - (x == 0.0).sum()


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
    assert len(H.lengths) == 2 and H.k == 2 and H.length == 4
    assert H.active.tolist() == [[1, 1], [1, 0]]
    assert H.stream_ids.tolist() == [[3, 4], [5, -1]]
    assert H.lengths.tolist() == [4, 3]
    # no padded cell is stored
    assert H.hidden.shape == (2 * 4 + 1 * 3, 4)


def test_renaming_roundtrip_and_validation():
    v = bare_vocab(4)
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = S.AlphaRenaming.random(v, rng)
        seq = [int(t) for t in rng.integers(0, v.total_size, size=12)]
        assert f.inverse()(f(seq)) == seq
    with pytest.raises(ContractError):
        S.AlphaRenaming(v, {3: 4, 4: 4})
    # a key outside the interchangeable tier is refused, not dropped
    for stray in ({0: 5, 3: 4, 4: 3}, {99: 1, 3: 4, 4: 3}, {"a": 3}):
        with pytest.raises(ContractError):
            S.AlphaRenaming(v, stray)
    with pytest.raises(VocabularyError):
        identity_renaming(v)([99])


def test_gradients_flow_through_aggregate_and_project():
    v = bare_vocab(2)
    Wp = T.Parameter("embed.w", RNG.normal(size=(v.table_rows, 6)))
    weight = np.random.default_rng(3).normal(size=(1, 4, 5))

    def loss_fn():
        H = S.pack_sequences([[1, 3, 4, 2]], Wp.tensor, v)
        g = S.aggregate(H)
        # the sequence's two rows of four cells each add the aggregate
        hidden = T.reshape(add(T.reshape(H.hidden, (2, 4, 6)),
                               T.reshape(g, (1, 4, 6))), (8, 6))
        logits = S.project(H.with_hidden(hidden), Wp.tensor)
        return tsum(mul(logits, weight))

    report = gradient_check([Wp], loss_fn)
    assert report["embed.w"] <= 1e-4
