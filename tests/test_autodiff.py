import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit

from hygraph.graph import row_index
from hygraph.nn import autodiff as ad
from hygraph.nn.losses import bce_with_logits, mse, one_hot


def gradcheck(build, tensors, step=1e-5, rtol=1e-4, atol=1e-7):
    """Central differences against the backward pass, per parameter."""
    for t in tensors:
        t.grad = None
    build().backward()
    analytic = [np.array(t.grad if t.grad is not None else np.zeros_like(t.value))
                for t in tensors]
    for t, expected in zip(tensors, analytic):
        flat = t.value.ravel()
        numeric = np.zeros_like(expected)
        num_flat = numeric.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = float(build().value)
            flat[i] = orig - step
            f_minus = float(build().value)
            flat[i] = orig
            num_flat[i] = (f_plus - f_minus) / (2 * step)
        np.testing.assert_allclose(expected, numeric, rtol=rtol, atol=atol)


def away_from_kinks(rng, shape, margin=0.2):
    x = rng.standard_normal(shape)
    return x + margin * np.sign(x)


class TestBackwardMechanics:
    def test_scalar_required(self):
        t = ad.Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            t.backward()

    def test_reused_tensor_accumulates(self):
        x = ad.Tensor(np.array([[1.0, 2.0]]))
        out = ad.mean(ad.add(x, x))
        out.backward()
        np.testing.assert_allclose(x.grad, [[1.0, 1.0]])

    def test_diamond_graph(self):
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.standard_normal((3, 3)))
        w = ad.Tensor(rng.standard_normal((3, 3)))

        def build():
            h = ad.matmul(x, w)
            return ad.mean(ad.add(h, h))

        gradcheck(build, [x, w])

    def test_constants_get_no_grad(self):
        x = ad.Tensor(np.ones((2, 2)))
        c = np.full((2, 2), 3.0)
        out = ad.mean(ad.add(x, c))
        out.backward()
        assert x.grad is not None


class TestLinearOps:
    def test_matmul_dense(self):
        rng = np.random.default_rng(1)
        a = ad.Tensor(rng.standard_normal((4, 3)))
        b = ad.Tensor(rng.standard_normal((3, 5)))
        c = rng.standard_normal((5, 2))
        gradcheck(lambda: ad.mean(ad.matmul(ad.matmul(a, b), c)), [a, b])

    def test_matmul_sparse_left(self):
        rng = np.random.default_rng(2)
        mat = sp.random(6, 4, density=0.5, random_state=3, format="csr")
        x = ad.Tensor(rng.standard_normal((4, 3)))
        mix = rng.standard_normal((3, 1))
        gradcheck(lambda: ad.mean(ad.matmul(ad.matmul(mat, x), mix)), [x])

    def test_add_broadcast_bias(self):
        rng = np.random.default_rng(3)
        x = ad.Tensor(rng.standard_normal((5, 4)))
        b = ad.Tensor(rng.standard_normal((1, 4)))
        mix = rng.standard_normal((4, 1))
        gradcheck(lambda: ad.mean(ad.matmul(ad.add(x, b), mix)), [x, b])

    def test_concat(self):
        rng = np.random.default_rng(4)
        a = ad.Tensor(rng.standard_normal((3, 2)))
        b = ad.Tensor(rng.standard_normal((3, 4)))
        mix = rng.standard_normal((6, 1))
        gradcheck(lambda: ad.mean(ad.matmul(ad.concat([a, b], axis=1), mix)), [a, b])

    def test_take_rows_with_repeats(self):
        rng = np.random.default_rng(6)
        x = ad.Tensor(rng.standard_normal((4, 3)))
        idx = np.array([0, 2, 2, 1, 0, 0])
        mix = rng.standard_normal((3, 1))
        gradcheck(lambda: ad.mean(ad.matmul(ad.take_rows(x, idx), mix)), [x])

    @pytest.mark.parametrize("width", [None, 1, 3])
    @pytest.mark.parametrize("idx", [[0, 0, 1, 2, 2, 2], [3, 0, 3, 1], [2]])
    def test_take_rows_sorted_unsorted_and_one_column(self, idx, width):
        # Sorted rows build their selection matrix directly, unsorted ones
        # through COO, and one column scatters through a bincount.
        rng = np.random.default_rng(13)
        shape = (4,) if width is None else (4, width)
        x = ad.Tensor(rng.standard_normal(shape))
        idx = np.array(idx, dtype=np.int64)
        weights = rng.standard_normal((idx.size,) + shape[1:])
        gradcheck(lambda: ad.mean(ad.dropout(ad.take_rows(x, idx), weights, 1.0)), [x])

    def test_edge_mix(self):
        # Rows 0..3 of the output; row 1 is empty, h row 0 is gathered twice
        # into row 2, h row 1 feeds rows 0 and 3, h row 4 is never gathered.
        rng = np.random.default_rng(7)
        pattern = sp.csr_matrix(
            (np.ones(6), np.array([1, 3, 0, 0, 2, 1]), np.array([0, 2, 2, 5, 6])),
            shape=(4, 5),
        )
        alpha = ad.Tensor(rng.standard_normal(6))
        h = ad.Tensor(rng.standard_normal((5, 3)))
        mix = rng.standard_normal((3, 1))
        rows = row_index(pattern.indptr)
        gradcheck(
            lambda: ad.mean(ad.matmul(ad.edge_mix(alpha, h, pattern, rows), mix)),
            [alpha, h],
        )

    def test_edge_mix_column_major_pattern(self):
        # Incidence-style: pairs listed hyperedge by hyperedge, members
        # unsorted, node 2 in no hyperedge (an empty output row).  edge_mix
        # takes them as the node-major CSR pattern, hyperedges ascending.
        rng = np.random.default_rng(8)
        pattern = sp.csc_matrix(
            (np.ones(5), np.array([3, 0, 1, 4, 0]), np.array([0, 3, 5])), shape=(5, 2)
        ).tocsr()
        np.testing.assert_array_equal(pattern.indptr, [0, 2, 3, 3, 4, 5])
        alpha = ad.Tensor(rng.standard_normal((5, 1)))
        z = ad.Tensor(rng.standard_normal((2, 3)))
        mix = rng.standard_normal((3, 1))
        node = row_index(pattern.indptr)
        out = ad.edge_mix(alpha, z, pattern, node)
        np.testing.assert_array_equal(out.value[2], np.zeros(3))
        gradcheck(
            lambda: ad.mean(ad.matmul(ad.edge_mix(alpha, z, pattern, node), mix)),
            [alpha, z],
        )

    def test_edge_mix_value(self):
        alpha = ad.Tensor(np.array([2.0, 3.0]))
        h = ad.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        pattern = sp.csr_matrix(
            (np.ones(2), np.array([0, 1]), np.array([0, 0, 2, 2])), shape=(3, 2)
        )
        out = ad.edge_mix(alpha, h, pattern, np.array([1, 1]))
        np.testing.assert_allclose(out.value, [[0, 0], [2, 3], [0, 0]])


class TestNonlinearities:
    def test_relu(self):
        rng = np.random.default_rng(8)
        x = ad.Tensor(away_from_kinks(rng, (4, 3)))
        mix = rng.standard_normal((3, 1))
        gradcheck(lambda: ad.mean(ad.matmul(ad.relu(x), mix)), [x])

    def test_leaky_relu(self):
        rng = np.random.default_rng(10)
        x = ad.Tensor(away_from_kinks(rng, (4, 3)))
        mix = rng.standard_normal((3, 1))
        gradcheck(lambda: ad.mean(ad.matmul(ad.leaky_relu(x, 0.2), mix)), [x])

    def test_leaky_relu_value(self):
        x = ad.Tensor(np.array([-1.0, 0.5]))
        np.testing.assert_allclose(ad.leaky_relu(x, 0.2).value, [-0.2, 0.5])

    def test_relu_keeps_nan(self):
        # The one change from the np.where form, which mapped NaN to 0.
        out = ad.relu(ad.Tensor(np.array([np.nan, -1.0, 2.0]))).value
        assert np.isnan(out[0])
        np.testing.assert_array_equal(out[1:], [0.0, 2.0])

    def test_gatv2_scores(self):
        # Sources repeat and node 3 is no pair's source; node 0 no target.
        rng = np.random.default_rng(12)
        h_l = ad.Tensor(rng.standard_normal((4, 3)))
        h_r = ad.Tensor(rng.standard_normal((4, 3)))
        a = ad.Tensor(rng.standard_normal((3, 1)))
        src = np.array([0, 2, 2, 1, 0, 2])
        dst = np.array([1, 1, 2, 2, 3, 3])
        pre = h_l.value[src] + h_r.value[dst]
        assert np.abs(pre).min() > 0.01  # away from LeakyReLU's kink
        selections = (ad._selection(src, 4), ad._selection(dst, 4))
        out = ad.gatv2_scores(h_l, h_r, a, src, dst, 0.2, selections)
        np.testing.assert_allclose(out.value, np.where(pre > 0, pre, 0.2 * pre) @ a.value)
        weights = rng.standard_normal((6, 1))
        gradcheck(
            lambda: ad.mean(ad.dropout(ad.gatv2_scores(h_l, h_r, a, src, dst, 0.2,
                                                       selections), weights, 1.0)),
            [h_l, h_r, a],
        )

    @pytest.mark.parametrize("with_bias", [False, True])
    def test_additive_scores(self, with_bias):
        # Unsorted pairs with repeats; row 3 of s_a and row 0 of s_b are no pair's.
        rng = np.random.default_rng(14)
        s_a = ad.Tensor(rng.standard_normal((4, 1)))
        s_b = ad.Tensor(rng.standard_normal((4, 1)))
        a = np.array([2, 0, 2, 1, 0, 2, 1])
        b = np.array([1, 3, 3, 2, 1, 2, 1])
        bias = rng.standard_normal((7, 1)) if with_bias else None
        pre = s_a.value[a] + s_b.value[b]
        assert np.abs(pre).min() > 0.01 and (pre > 0).any() and (pre < 0).any()
        out = ad.additive_scores(s_a, a, s_b, b, 0.2, bias)
        want = np.where(pre > 0, pre, 0.2 * pre) + (0.0 if bias is None else bias)
        np.testing.assert_allclose(out.value, want)
        weights = rng.standard_normal((7, 1))
        gradcheck(
            lambda: ad.mean(ad.dropout(ad.additive_scores(s_a, a, s_b, b, 0.2, bias),
                                       weights, 1.0)),
            [s_a, s_b],
        )

    def test_log_softmax(self):
        rng = np.random.default_rng(13)
        x = ad.Tensor(rng.standard_normal((4, 5)))
        mix = rng.standard_normal((5, 1))
        gradcheck(lambda: ad.mean(ad.matmul(ad.log_softmax(x), mix)), [x])

    def test_log_softmax_stable_for_large_inputs(self):
        x = ad.Tensor(np.array([[1000.0, 0.0], [-1000.0, 0.0]]))
        out = ad.log_softmax(x).value
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(np.exp(out).sum(axis=1), [1.0, 1.0])

    def test_segment_softmax_values(self):
        scores = ad.Tensor(np.array([0.0, 0.0, 1.0, 2.0]))
        out = ad.segment_softmax(scores, np.array([0, 0, 1, 1]), 2).value
        np.testing.assert_allclose(out[:2], [0.5, 0.5])
        e = np.exp([1.0, 2.0])
        np.testing.assert_allclose(out[2:], e / e.sum())

    def test_segment_softmax_grad(self):
        rng = np.random.default_rng(14)
        scores = ad.Tensor(rng.standard_normal((7, 1)))
        segments = np.array([0, 0, 1, 2, 2, 2, 1])
        h = ad.Tensor(rng.standard_normal((7, 3)))
        mix = rng.standard_normal((3, 1))

        # Pair e mixes row e of h into output row segments[e]; the CSR mix
        # stores the pairs by segment, so alpha is gathered into that order.
        order = np.argsort(segments, kind="stable")
        rows = segments[order]
        pattern = sp.csr_matrix((np.ones(7), order, np.searchsorted(rows, np.arange(4))),
                                shape=(3, 7))

        def build():
            alpha = ad.segment_softmax(scores, segments, 3)
            mixed = ad.edge_mix(ad.take_rows(alpha, order), h, pattern, rows)
            return ad.mean(ad.matmul(mixed, mix))

        gradcheck(build, [scores, h])

    def test_segment_softmax_single_member_is_one(self):
        scores = ad.Tensor(np.array([-3.0, 5.0]))
        out = ad.segment_softmax(scores, np.array([0, 1]), 2).value
        np.testing.assert_allclose(out, [1.0, 1.0])

    def test_dropout_fixed_mask(self):
        rng = np.random.default_rng(15)
        x = ad.Tensor(rng.standard_normal((4, 4)))
        mask = ad.random_mask(rng, (4, 4), drop=0.5)
        mix = rng.standard_normal((4, 1))
        gradcheck(lambda: ad.mean(ad.matmul(ad.dropout(x, mask, 0.5), mix)), [x])

    def test_dropout_scales_survivors(self):
        x = ad.Tensor(np.full((1, 4), 2.0))
        mask = np.array([[1.0, 0.0, 1.0, 0.0]])
        out = ad.dropout(x, mask, 0.5).value
        np.testing.assert_allclose(out, [[4.0, 0.0, 4.0, 0.0]])

    @pytest.mark.parametrize("keep", [0.5, 0.7, 0.9, 1 / 3])
    def test_bool_mask_matches_float_mask(self, keep):
        rng = np.random.default_rng(21)
        mask = ad.random_mask(rng, (30, 7), drop=1.0 - keep)
        assert mask.dtype == bool
        value = rng.standard_normal((30, 7))
        upstream = rng.standard_normal((30, 7))
        results = []
        for m in (mask, mask.astype(np.float64)):
            x = ad.Tensor(value)
            out = ad.dropout(x, m, keep)
            out._backward(upstream)
            results.append((out.value.tobytes(), x.grad.tobytes()))
        assert results[0] == results[1]

    def test_random_mask_rate(self):
        rng = np.random.default_rng(16)
        mask = ad.random_mask(rng, (200, 200), drop=0.3)
        assert mask.mean() == pytest.approx(0.7, abs=0.02)


class TestLosses:
    def test_bce_matches_naive_formula(self):
        rng = np.random.default_rng(17)
        z = rng.uniform(-4, 4, size=(6, 3))
        y = (rng.random((6, 3)) < 0.5).astype(float)
        naive = -(y * np.log(expit(z)) + (1 - y) * np.log(1 - expit(z))).mean()
        loss = bce_with_logits(ad.Tensor(z), y)
        assert float(loss.value) == pytest.approx(naive, rel=1e-10)

    def test_bce_grad(self):
        rng = np.random.default_rng(18)
        z = ad.Tensor(rng.standard_normal((5, 4)))
        y = (rng.random((5, 4)) < 0.5).astype(float)
        gradcheck(lambda: bce_with_logits(z, y), [z])

    def test_bce_stable_at_extreme_logits(self):
        z = ad.Tensor(np.array([[1000.0, -1000.0]]))
        y = np.array([[1.0, 0.0]])
        loss = bce_with_logits(z, y)
        assert float(loss.value) == pytest.approx(0.0, abs=1e-12)
        loss.backward()
        assert np.all(np.isfinite(z.grad))

    def test_bce_shape_mismatch(self):
        with pytest.raises(ValueError):
            bce_with_logits(ad.Tensor(np.zeros((2, 2))), np.zeros((2, 3)))

    def test_mse_value(self):
        pred = ad.Tensor(np.array([[1.0], [3.0]]))
        loss = mse(pred, np.array([[0.0], [1.0]]))
        assert float(loss.value) == pytest.approx((1 + 4) / 2)

    def test_mse_grad(self):
        rng = np.random.default_rng(19)
        pred = ad.Tensor(rng.standard_normal((6, 2)))
        target = rng.standard_normal((6, 2))
        gradcheck(lambda: mse(pred, target), [pred])

    def test_one_hot(self):
        out = one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(
            out, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
        )


class TestEndToEndGradient:
    def test_two_layer_network_gradcheck(self):
        rng = np.random.default_rng(20)
        adj = sp.random(5, 5, density=0.4, random_state=21, format="csr")
        x = ad.Tensor(away_from_kinks(rng, (5, 3)))
        w1 = ad.Tensor(rng.standard_normal((3, 4)) * 0.5)
        w2 = ad.Tensor(rng.standard_normal((4, 2)) * 0.5)
        y = one_hot(np.array([0, 1, 0, 1, 1]), 2)

        def build():
            h = ad.relu(ad.matmul(adj, ad.matmul(x, w1)))
            out = ad.matmul(adj, ad.matmul(h, w2))
            return bce_with_logits(out, y)

        gradcheck(build, [x, w1, w2], step=1e-6, rtol=5e-4)
