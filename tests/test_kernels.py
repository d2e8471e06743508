import math

import numpy as np
import pytest

from lvxattn.kernels import (DEFAULT_TILE_ROWS, AttentionState, GradientCarry, SoftmaxCarry,
                             blockwise_attention, blockwise_attention_backward,
                             default_scale, dense_attention, dense_attention_backward,
                             empty_state, merge_states, project, project_backward,
                             tile_pieces)
from lvxattn.tensorio import seeded_random_tensor
from lvxattn.verify import (gradient_oracle, max_norm_error,
                            untiled_backward_reference)


def naive_attention_rowloop(Q, K, V, scale):
    """Independent two-pass softmax oracle: plain Python loops and math.exp,
    no shared code with the library path."""
    h, s_q, d = Q.shape
    s_kv = K.shape[1]
    O = np.zeros((h, s_q, d))
    L = np.zeros((h, s_q))
    for a in range(h):
        for i in range(s_q):
            scores = []
            for j in range(s_kv):
                acc = 0.0
                for k in range(d):
                    acc += float(Q[a, i, k]) * float(K[a, j, k])
                scores.append(acc * scale)
            m = max(scores)
            weights = [math.exp(s - m) for s in scores]
            total = sum(weights)
            for k in range(d):
                O[a, i, k] = sum(weights[j] * float(V[a, j, k])
                                 for j in range(s_kv)) / total
            L[a, i] = m + math.log(total)
    return O, L


def rand_qkv(h, s_q, s_kv, d, seed=0):
    return (seeded_random_tensor(seed, (h, s_q, d)),
            seeded_random_tensor(seed, (h, s_kv, d), stream=1),
            seeded_random_tensor(seed, (h, s_kv, d), stream=2))


class TestDenseAttention:
    def test_uniform_softmax_with_zero_queries(self):
        V = seeded_random_tensor(3, (1, 3, 4))
        Q = np.zeros((1, 2, 4))
        K = seeded_random_tensor(4, (1, 3, 4))
        st = dense_attention(Q, K, V, scale=1.0)
        expected = V.mean(axis=1)
        for i in range(2):
            np.testing.assert_allclose(st.O[0, i], expected[0], rtol=1e-15)

    def test_single_kv_row(self):
        Q, K, V = rand_qkv(2, 4, 1, 3, seed=5)
        st = dense_attention(Q, K, V, scale=1.0)
        for a in range(2):
            for i in range(4):
                np.testing.assert_array_equal(st.O[a, i], V[a, 0])
                assert st.L[a, i] == pytest.approx(float(Q[a, i] @ K[a, 0]), rel=1e-15)

    def test_matches_independent_rowloop_oracle(self):
        Q, K, V = rand_qkv(2, 4, 6, 3, seed=7)
        scale = 1.0 / math.sqrt(3)
        st = dense_attention(Q, K, V, scale)
        O_ref, L_ref = naive_attention_rowloop(Q, K, V, scale)
        assert max_norm_error(st.O, O_ref) <= 1e-14
        assert max_norm_error(st.L, L_ref) <= 1e-14

    def test_shape_mismatch_rejected(self):
        Q, K, V = rand_qkv(2, 4, 6, 3)
        with pytest.raises(ValueError, match="head counts"):
            dense_attention(Q[:1], K, V)
        with pytest.raises(ValueError, match="rows"):
            dense_attention(Q, K, V[:, :5])
        with pytest.raises(ValueError, match="cols"):
            dense_attention(Q, K[:, :, :2], V)


class TestBlockwiseAttention:
    def test_single_block_equals_dense(self):
        Q, K, V = rand_qkv(2, 5, 9, 4, seed=11)
        dense = dense_attention(Q, K, V)
        block = blockwise_attention(Q, K, V, tile_rows=3)
        assert max_norm_error(block.O, dense.O) <= 1e-12
        assert max_norm_error(block.L, dense.L) <= 1e-12

    def test_split_blocks_merge_to_dense(self):
        Q, K, V = rand_qkv(1, 4, 6, 3, seed=12)
        dense = dense_attention(Q, K, V)
        state = empty_state(1, 4, 3)
        for j in range(0, 6, 2):
            state = merge_states(state,
                                 blockwise_attention(Q, K[:, j:j + 2], V[:, j:j + 2]))
        assert max_norm_error(state.O, dense.O) <= 1e-12
        assert max_norm_error(state.L, dense.L) <= 1e-12

    def test_oversized_tile_acts_as_one_tile(self):
        Q, K, V = rand_qkv(1, 3, 5, 2, seed=13)
        a = blockwise_attention(Q, K, V, tile_rows=5)
        b = blockwise_attention(Q, K, V, tile_rows=1000)
        assert np.array_equal(a.O, b.O) and np.array_equal(a.L, b.L)

    def test_empty_kv_block_returns_empty_state(self):
        Q = seeded_random_tensor(1, (2, 3, 4))
        st = blockwise_attention(Q, np.zeros((2, 0, 4)), np.zeros((2, 0, 4)))
        assert np.all(st.O == 0.0)
        assert np.all(np.isneginf(st.L))


class TestMergeStates:
    def test_empty_is_exact_identity(self):
        Q, K, V = rand_qkv(2, 3, 4, 3, seed=14)
        st = blockwise_attention(Q, K, V)
        merged = merge_states(empty_state(2, 3, 3), st)
        assert np.array_equal(merged.O, st.O)
        assert np.array_equal(merged.L, st.L)
        merged = merge_states(st, empty_state(2, 3, 3))
        assert np.array_equal(merged.O, st.O)
        assert np.array_equal(merged.L, st.L)

    def test_commutative(self):
        Q, K, V = rand_qkv(1, 3, 8, 2, seed=15)
        a = blockwise_attention(Q, K[:, :5], V[:, :5])
        b = blockwise_attention(Q, K[:, 5:], V[:, 5:])
        ab, ba = merge_states(a, b), merge_states(b, a)
        assert max_norm_error(ab.O, ba.O) <= 1e-15
        assert max_norm_error(ab.L, ba.L) <= 1e-15

    def test_merge_order_independence_vs_dense(self):
        Q, K, V = rand_qkv(1, 4, 9, 3, seed=16)
        dense = dense_attention(Q, K, V)
        parts = [blockwise_attention(Q, K[:, j:j + 3], V[:, j:j + 3])
                 for j in range(0, 9, 3)]
        left = merge_states(merge_states(parts[0], parts[1]), parts[2])
        right = merge_states(parts[0], merge_states(parts[1], parts[2]))
        for st in (left, right):
            assert max_norm_error(st.O, dense.O) <= 1e-12
            assert max_norm_error(st.L, dense.L) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            merge_states(empty_state(1, 2, 3), empty_state(1, 3, 3))


class TestDenseBackward:
    def test_zero_do_gives_zero_gradients(self):
        Q, K, V = rand_qkv(2, 3, 5, 2, seed=17)
        st = dense_attention(Q, K, V)
        gb = dense_attention_backward(Q, K, V, st.O, st.L, np.zeros_like(Q))
        assert np.all(gb.dQ == 0) and np.all(gb.dK == 0) and np.all(gb.dV == 0)

    def test_single_kv_row_gradients(self):
        Q, K, V = rand_qkv(1, 4, 1, 3, seed=18)
        dO = seeded_random_tensor(19, (1, 4, 3))
        st = dense_attention(Q, K, V, scale=1.0)
        gb = dense_attention_backward(Q, K, V, st.O, st.L, dO, scale=1.0)
        np.testing.assert_allclose(gb.dV[0, 0], dO[0].sum(axis=0), rtol=1e-14)
        # saturated softmax: score gradient vanishes
        assert np.max(np.abs(gb.dQ)) <= 1e-14
        assert np.max(np.abs(gb.dK)) <= 1e-14

    def test_blockwise_contributions_sum_to_dense(self):
        Q, K, V = rand_qkv(2, 4, 6, 3, seed=20)
        dO = seeded_random_tensor(21, (2, 4, 3))
        st = dense_attention(Q, K, V)
        gb = dense_attention_backward(Q, K, V, st.O, st.L, dO)
        D = np.sum(dO * st.O, axis=2)
        dq = np.zeros_like(Q)
        dks, dvs = [], []
        for j in range(0, 6, 3):
            dq_c, dk_c, dv_c = blockwise_attention_backward(
                Q, K[:, j:j + 3], V[:, j:j + 3], st.L, D, dO)
            dq += dq_c
            dks.append(dk_c)
            dvs.append(dv_c)
        assert max_norm_error(dq, gb.dQ) <= 1e-12
        assert max_norm_error(np.concatenate(dks, axis=1), gb.dK) <= 1e-12
        assert max_norm_error(np.concatenate(dvs, axis=1), gb.dV) <= 1e-12

    def test_one_block_covering_everything_equals_dense(self):
        Q, K, V = rand_qkv(1, 3, 4, 2, seed=22)
        dO = seeded_random_tensor(23, (1, 3, 2))
        st = dense_attention(Q, K, V)
        gb = dense_attention_backward(Q, K, V, st.O, st.L, dO)
        D = np.sum(dO * st.O, axis=2)
        dq, dk, dv = blockwise_attention_backward(Q, K, V, st.L, D, dO)
        assert np.array_equal(dq, gb.dQ)
        assert np.array_equal(dk, gb.dK)
        assert np.array_equal(dv, gb.dV)

    def test_finite_difference(self):
        # central differences on loss = <dO, O>, step 1e-6
        h, s_q, s_kv, d = 1, 3, 5, 2
        Q, K, V = rand_qkv(h, s_q, s_kv, d, seed=24)
        dO = seeded_random_tensor(25, (h, s_q, d))
        st = dense_attention(Q, K, V)
        gb = dense_attention_backward(Q, K, V, st.O, st.L, dO)

        def loss():
            return float(np.sum(dO * dense_attention(Q, K, V).O))

        step = 1e-6
        for prim, grad in ((Q, gb.dQ), (K, gb.dK), (V, gb.dV)):
            fd = np.zeros_like(prim)
            for idx in np.ndindex(prim.shape):
                orig = prim[idx]
                prim[idx] = orig + step
                up = loss()
                prim[idx] = orig - step
                down = loss()
                prim[idx] = orig
                fd[idx] = (up - down) / (2 * step)
            assert max_norm_error(grad, fd) <= 1e-5


def backward_block_inputs(s_q, s_kv, seed, h=2, d=4):
    """Q, one KV block of s_kv rows, dO, and the final L and D taken over that
    block plus three more KV rows, as a distributed backward sees them. One
    spare query row is drawn and dropped, so s_q may be 0."""
    Q, K, V = rand_qkv(h, s_q + 1, s_kv + 3, d, seed=seed)
    dO = seeded_random_tensor(seed, (h, s_q + 1, d), stream=3)
    st = dense_attention(Q, K, V)
    D = np.sum(dO * st.O, axis=2)
    return (Q[:, :s_q], K[:, :s_kv], V[:, :s_kv], st.L[:, :s_q], D[:, :s_q],
            dO[:, :s_q])


def _tiled_backward_cases():
    """S_KV in {1, t-1, t, t+1, 3t+5} for each tile t, and a tile above S_KV."""
    cases = set()
    for t in (1, 7, 256):
        for s_kv in (1, t - 1, t, t + 1, 3 * t + 5):
            cases.add((s_kv, t))
            cases.add((s_kv, s_kv + 1))
    return sorted(cases)


class TestTiledBackward:
    @pytest.mark.parametrize("s_kv,tile_rows", _tiled_backward_cases())
    def test_matches_untiled_reference_f64(self, s_kv, tile_rows):
        Q, K, V, L, D, dO = backward_block_inputs(5, s_kv, seed=40 + s_kv)
        scale = 1.0 / math.sqrt(Q.shape[2])
        got = blockwise_attention_backward(Q, K, V, L, D, dO, scale, tile_rows)
        ref = untiled_backward_reference(Q, K, V, L, D, dO, scale)
        for g, r in zip(got, ref):
            assert g.dtype == np.float64 and g.shape == r.shape
            assert max_norm_error(g, r) <= 1e-12

    @pytest.mark.parametrize("s_kv,tile_rows", [(1, 7), (6, 7), (8, 7), (26, 7),
                                                (773, 256), (300, 1000)])
    def test_f32_matches_f64_reference(self, s_kv, tile_rows):
        Q, K, V, L, D, dO = backward_block_inputs(6, s_kv, seed=41)
        Q32, K32, V32, L32, D32, dO32 = (t.astype(np.float32) for t in (Q, K, V, L, D, dO))
        got = blockwise_attention_backward(Q32, K32, V32, L32, D32, dO32, 0.5, tile_rows)
        ref = untiled_backward_reference(*(t.astype(np.float64) for t in
                                           (Q32, K32, V32, L32, D32, dO32)), 0.5)
        for g, r in zip(got, ref):
            assert g.dtype == np.float32
            assert max_norm_error(g, r) <= 1e-4

    @pytest.mark.parametrize("tile_rows", [1, 7, 256])
    def test_zero_query_rows(self, tile_rows):
        Q, K, V, L, D, dO = backward_block_inputs(0, 10, seed=42)
        dq, dk, dv = blockwise_attention_backward(Q, K, V, L, D, dO, tile_rows=tile_rows)
        assert dq.shape == (2, 0, 4)
        assert dk.shape == dv.shape == (2, 10, 4)
        assert np.all(dk == 0) and np.all(dv == 0)

    @pytest.mark.parametrize("tile_rows", [1, 7, 256])
    def test_zero_kv_rows(self, tile_rows):
        Q, K, V, L, D, dO = backward_block_inputs(5, 0, seed=43)
        dq, dk, dv = blockwise_attention_backward(Q, K, V, L, D, dO, tile_rows=tile_rows)
        assert np.all(dq == 0) and dq.shape == Q.shape
        assert dk.shape == dv.shape == (2, 0, 4)

    def test_tile_size_does_not_change_results(self):
        Q, K, V, L, D, dO = backward_block_inputs(9, 533, seed=44)
        base = blockwise_attention_backward(Q, K, V, L, D, dO, tile_rows=533)
        for tile_rows in (1, 7, 64, 256, 10_000):
            got = blockwise_attention_backward(Q, K, V, L, D, dO, tile_rows=tile_rows)
            for g, b in zip(got, base):
                assert max_norm_error(g, b) <= 1e-12

    def test_repeated_calls_bit_identical(self):
        Q, K, V, L, D, dO = backward_block_inputs(9, 600, seed=45)
        a = blockwise_attention_backward(Q, K, V, L, D, dO, tile_rows=7)
        b = blockwise_attention_backward(Q, K, V, L, D, dO, tile_rows=7)
        for x, y in zip(a, b):
            assert x.tobytes() == y.tobytes()

    def test_tile_rows_below_one_rejected(self):
        Q, K, V, L, D, dO = backward_block_inputs(3, 4, seed=46)
        with pytest.raises(ValueError, match="tile_rows"):
            blockwise_attention_backward(Q, K, V, L, D, dO, tile_rows=0)


class TestAccumulateForm:
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-4)])
    def test_blocks_accumulated_into_one_set_equal_dense(self, dtype, tol):
        # three KV blocks of uneven size, each ending in a short tile
        Q, K, V = (t.astype(dtype) for t in rand_qkv(2, 6, 23, 4, seed=60))
        dO = seeded_random_tensor(61, (2, 6, 4), dtype)
        st = dense_attention(Q, K, V)
        D = np.sum(dO.astype(np.float64) * st.O.astype(np.float64), axis=2).astype(dtype)
        inputs = (Q, K, V, dO, st.L, D)
        before = [t.tobytes() for t in inputs]
        dQ, dK, dV = np.zeros_like(Q), np.zeros_like(K), np.zeros_like(V)
        for a, b in ((0, 9), (9, 16), (16, 23)):
            got = blockwise_attention_backward(Q, K[:, a:b], V[:, a:b], st.L, D, dO, None, 4,
                                               (dQ, dK[:, a:b], dV[:, a:b]))
            assert got[0] is dQ
        ref = gradient_oracle(Q, K, V, dO)
        for g, r in ((dQ, ref.dQ), (dK, ref.dK), (dV, ref.dV)):
            assert g.dtype == dtype
            assert max_norm_error(g, r) <= tol
        assert [t.tobytes() for t in inputs] == before

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_adds_the_rounded_contribution(self, dtype):
        # accumulating into a nonzero set equals adding the returned
        # contribution of a fresh call, bit for bit
        Q, K, V, L, D, dO = (t.astype(dtype) for t in backward_block_inputs(5, 300, seed=62))
        fresh = blockwise_attention_backward(Q, K, V, L, D, dO, None, 7)
        start = [seeded_random_tensor(63, t.shape, dtype, stream=i)
                 for i, t in enumerate((Q, K, V))]
        acc = [a.copy() for a in start]
        blockwise_attention_backward(Q, K, V, L, D, dO, None, 7, acc)
        for a, s0, f in zip(acc, start, fresh):
            assert a.tobytes() == (s0 + f).tobytes()

    def test_accumulator_shape_and_dtype_checked(self):
        Q, K, V, L, D, dO = backward_block_inputs(3, 8, seed=64)
        with pytest.raises(ValueError, match="dK accumulator"):
            blockwise_attention_backward(Q, K, V, L, D, dO, None, 4,
                                         (np.zeros_like(Q), np.zeros_like(K[:, 1:]),
                                          np.zeros_like(V)))
        with pytest.raises(ValueError, match="dV accumulator"):
            blockwise_attention_backward(Q, K, V, L, D, dO, None, 4,
                                         (np.zeros_like(Q), np.zeros_like(K),
                                          np.zeros_like(V, dtype=np.float32)))


class TestProjection:
    def test_identity_weight_is_reshape(self):
        x = seeded_random_tensor(26, (5, 6))
        W = np.eye(6)
        out = project(x, W, heads=2)
        assert out.shape == (2, 5, 3)
        np.testing.assert_array_equal(out[0], x[:, :3])
        np.testing.assert_array_equal(out[1], x[:, 3:])

    def test_zero_grad_out(self):
        x = seeded_random_tensor(27, (4, 3))
        W = seeded_random_tensor(28, (3, 6))
        dX, dW = project_backward(x, W, np.zeros((2, 4, 3)))
        assert np.all(dX == 0) and np.all(dW == 0)

    def test_finite_difference(self):
        x = seeded_random_tensor(29, (3, 4))
        W = seeded_random_tensor(30, (4, 4))
        g = seeded_random_tensor(31, (2, 3, 2))
        dX, dW = project_backward(x, W, g)

        def loss():
            return float(np.sum(g * project(x, W, 2)))

        step = 1e-6
        for prim, grad in ((x, dX), (W, dW)):
            fd = np.zeros_like(prim)
            for idx in np.ndindex(prim.shape):
                orig = prim[idx]
                prim[idx] = orig + step
                up = loss()
                prim[idx] = orig - step
                down = loss()
                prim[idx] = orig
                fd[idx] = (up - down) / (2 * step)
            assert max_norm_error(grad, fd) <= 1e-5

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="inner dims"):
            project(np.ones((3, 4)), np.ones((5, 6)), 2)
        with pytest.raises(ValueError, match="divisible"):
            project(np.ones((3, 4)), np.ones((4, 5)), 2)


class TestF32Path:
    def test_f32_tracks_f64_oracle(self):
        Q, K, V = rand_qkv(2, 6, 11, 4, seed=32)
        Q32, K32, V32 = (t.astype(np.float32) for t in (Q, K, V))
        oracle = dense_attention(Q32.astype(np.float64), K32.astype(np.float64),
                                 V32.astype(np.float64))
        st = blockwise_attention(Q32, K32, V32, tile_rows=4)
        assert st.O.dtype == np.float32
        assert max_norm_error(st.O, oracle.O) <= 1e-4
        assert max_norm_error(st.L, oracle.L) <= 1e-4


def _oracle_inputs(d, large, dtype, s_q=5, s_kv=600, seed=70):
    """Q, K, V, dO with the dense forward's L and D, rounded to dtype; the
    oracle then runs on the rounded values in float64. Large inputs scale Q
    so that the largest score is 50 and dO by 50, so L and D are large."""
    Q, K, V = rand_qkv(2, s_q, s_kv, d, seed=seed)
    dO = seeded_random_tensor(seed, (2, s_q, d), stream=3)
    if large:
        Q *= 50 / np.abs(default_scale(d) * (Q @ K.transpose(0, 2, 1))).max()
        dO *= 50
    Q, K, V, dO = (t.astype(dtype) for t in (Q, K, V, dO))
    st = dense_attention(*(t.astype(np.float64) for t in (Q, K, V)))
    D = np.sum(dO.astype(np.float64) * st.O, axis=2)
    return Q, K, V, dO, st.L.astype(dtype), D.astype(dtype)


class TestFoldedOperandsOnOracle:
    """The forward scales Q once and the backward folds L and D into its
    GEMMs; both stay on the dense oracle where 1/sqrt(d) is not a power of
    two, and where large scores make L and D large."""

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-4)])
    @pytest.mark.parametrize("d,large", [(2, False), (8, False), (32, False),
                                         (8, True), (32, True)])
    @pytest.mark.parametrize("tile_rows", [7, 256])
    def test_forward_and_backward_match_oracle(self, d, large, dtype, tol, tile_rows):
        Q, K, V, dO, L, D = _oracle_inputs(d, large, dtype)
        if large:
            assert np.abs(L.astype(np.float64)).max() >= 40
            assert np.abs(D.astype(np.float64)).max() >= 40
        f64 = [t.astype(np.float64) for t in (Q, K, V, dO)]
        oracle = dense_attention(*f64[:3])
        st = blockwise_attention(Q, K, V, tile_rows=tile_rows)
        assert st.O.dtype == dtype
        assert max_norm_error(st.O, oracle.O) <= tol
        assert max_norm_error(st.L, oracle.L) <= tol
        ref = gradient_oracle(*f64)
        got = blockwise_attention_backward(Q, K, V, L, D, dO, tile_rows=tile_rows)
        for g, r in zip(got, (ref.dQ, ref.dK, ref.dV)):
            assert g.dtype == dtype
            assert max_norm_error(g, r) <= tol


def test_attention_state_invariants():
    with pytest.raises(ValueError):
        AttentionState(O=np.zeros((1, 2, 3)), L=np.zeros((1, 3)))
    st = empty_state(2, 4, 3)
    assert np.all(st.O[np.isneginf(st.L)] == 0.0)


@pytest.mark.parametrize("a,b,expected", [
    (0, 0, [(0, 0)]), (300, 300, [(300, 300)]),         # no rows: one empty piece
    (0, 100, [(0, 100)]), (0, 256, [(0, 256)]),
    (0, 512, [(0, 256), (256, 512)]),                     # exact multiples
    (275, 550, [(275, 512), (512, 550)]),                 # a start in mid-tile
    (100, 200, [(100, 200)]), (256, 800, [(256, 512), (512, 768), (768, 800)]),
])
def test_tile_pieces(a, b, expected):
    assert DEFAULT_TILE_ROWS == 256
    pieces = tile_pieces(a, b)
    assert pieces == expected
    # the pieces join back into [a, b), and every cut but the ends is a tile multiple
    assert pieces[0][0] == a and pieces[-1][1] == b
    assert all(p[1] == q[0] and p[1] % DEFAULT_TILE_ROWS == 0
               for p, q in zip(pieces, pieces[1:]))


# (tile_rows, S_KV, piece sizes): one, two and three tile-aligned pieces,
# with one piece of exactly one tile and one ending in a short tail tile
CARRY_CASES = [(7, 25, (25,)), (7, 25, (7, 18)), (7, 25, (14, 7, 4)),
               (256, 600, (600,)), (256, 600, (256, 344)), (256, 600, (512, 88)),
               (256, 600, (256, 256, 88))]


def _pieces(sizes):
    starts = np.cumsum((0,) + sizes)
    return list(zip(starts[:-1], starts[1:]))


class TestCarry:
    # at d = 4 the default scale 1/2 is a power of two; at d = 3 scaling Q
    # rounds, and the pieces must still round as the one-shot walk does
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("tile_rows,s_kv,sizes", CARRY_CASES)
    def test_forward_pieces_match_one_shot_bitwise(self, dtype, tile_rows, s_kv, sizes):
        for d in (4, 3):
            Q, K, V = (t.astype(dtype) for t in rand_qkv(2, 5, s_kv, d, seed=60))
            one_shot = blockwise_attention(Q, K, V, tile_rows=tile_rows)
            carry = SoftmaxCarry.start(Q)
            for a, b in _pieces(sizes):
                assert blockwise_attention(Q, K[:, a:b], V[:, a:b], tile_rows=tile_rows,
                                           carry=carry) is carry
            got = carry.state(dtype)
            assert got.O.dtype == dtype
            assert got.O.tobytes() == one_shot.O.tobytes()
            assert got.L.tobytes() == one_shot.L.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("tile_rows,s_kv,sizes", CARRY_CASES)
    def test_backward_pieces_match_one_shot_bitwise(self, dtype, tile_rows, s_kv, sizes):
        for d, scale in ((4, 0.3), (3, None)):
            Q, K, V, L, D, dO = (t.astype(dtype) for t in
                                 backward_block_inputs(5, s_kv, seed=61, d=d))
            one_shot = blockwise_attention_backward(Q, K, V, L, D, dO, scale, tile_rows)
            dq, dk, dv = (np.zeros_like(t) for t in (Q, K, V))
            carry = GradientCarry.start(Q, L, D, dO, scale)
            for a, b in _pieces(sizes):
                blockwise_attention_backward(Q, K[:, a:b], V[:, a:b], L, D, dO, scale,
                                             tile_rows, out=(dq, dk[:, a:b], dv[:, a:b]),
                                             carry=carry)
            assert not dq.any()         # dQ waits for the carry to close
            carry.close(dq)
            for got, ref in zip((dq, dk, dv), one_shot):
                assert got.dtype == dtype and got.tobytes() == ref.tobytes()

    def test_carry_without_rows_is_the_empty_state(self):
        Q, K, V = rand_qkv(2, 3, 0, 4, seed=62)
        carry = blockwise_attention(Q, K, V, carry=SoftmaxCarry.start(Q))
        got, empty = carry.state(np.float32), empty_state(2, 3, 4, np.float32)
        assert got.O.tobytes() == empty.O.tobytes() and got.L.tobytes() == empty.L.tobytes()

    def test_carry_for_other_query_rows_rejected(self):
        Q, K, V = rand_qkv(2, 3, 8, 4, seed=63)
        with pytest.raises(ValueError, match="carry rows"):
            blockwise_attention(Q, K, V, carry=SoftmaxCarry.start(Q[:, :2]))
        with pytest.raises(ValueError, match="the carry's scale"):
            blockwise_attention(Q, K, V, 0.3, carry=SoftmaxCarry.start(Q))
        L, D = np.zeros((2, 3)), np.zeros((2, 3))
        with pytest.raises(ValueError, match="carry rows"):
            blockwise_attention_backward(Q, K, V, L, D, Q, carry=GradientCarry.start(
                Q[:, :2], L[:, :2], D[:, :2], Q[:, :2]))
        with pytest.raises(ValueError, match="the carry's scale"):
            blockwise_attention_backward(Q, K, V, L, D, Q, 0.3,
                                         carry=GradientCarry.start(Q, L, D, Q))
