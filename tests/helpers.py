"""Small helpers shared by the tests; the package itself never needs them."""
import streamformer.tensor as T
from streamformer.streams import StreamBatch


def permuted(H, order):
    """H with its stream axis reordered, for equivariance checks."""
    order = list(order)
    return StreamBatch(T.Tensor(H.hidden.data[:, order]),
                       H.occupancy[:, order], H.active[:, order],
                       H.stream_ids[:, order], H.lengths)


def attention(mha, q_in, k_in, v_in, mask, q_positions, k_positions):
    """One MultiHeadAttention call on explicit queries, keys and values."""
    k, v = mha.project_kv(k_in, v_in, k_positions)
    return mha.attend(q_in, k, v, mask, q_positions)
