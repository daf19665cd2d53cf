import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcad.tensor import (
    GradGraph,
    ShapeError,
    Tensor,
    add,
    concat,
    dropout,
    gather_time,
    gradient_check,
    lstm_sequence,
    masked_nll,
    matmul,
    mul,
    reduce_max,
    reduce_sum,
    reshape,
    sigmoid,
    slice_axis,
    softmax,
    sub,
    take_rows,
    tanh,
)
from oracles import sigmoid as scalar_sigmoid


def _matmul_oracle(a, b):
    # naive triple-loop reference, independent of np.matmul
    n, m = a.shape
    m2, p = b.shape
    out = np.zeros((n, p))
    for i in range(n):
        for j in range(p):
            s = 0.0
            for k in range(m):
                s += a[i, k] * b[k, j]
            out[i, j] = s
    return out


class TestForward:
    def test_sigmoid_at_zero(self):
        out = sigmoid(Tensor([0.0, 0.0, 0.0]))
        npt.assert_allclose(out.data, [0.5, 0.5, 0.5])

    def test_softmax_symmetry(self):
        out = softmax(Tensor([[2.5, 2.5, 2.5]]), axis=1)
        npt.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]])

    def test_matmul_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 4))
        out = matmul(Tensor(a), Tensor(b))
        npt.assert_allclose(out.data, _matmul_oracle(a, b), atol=1e-6)

    def test_matmul_batched(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 2, 3))
        b = rng.normal(size=(3, 4))
        out = matmul(Tensor(a), Tensor(b))
        for i in range(5):
            npt.assert_allclose(out.data[i], _matmul_oracle(a[i], b), atol=1e-6)

    def test_matmul_folded_weight_equals_np_matmul(self):
        # a 2-D right operand is applied to all leading dims as one GEMM
        rng = np.random.default_rng(4)
        for shape in ((5, 2, 3), (2, 3, 4, 3)):
            a = rng.normal(size=shape)
            b = rng.normal(size=(3, 6))
            npt.assert_allclose(matmul(Tensor(a), Tensor(b)).data, np.matmul(a, b),
                                rtol=0, atol=1e-12)

    def test_sigmoid_matches_scalar_oracle(self):
        x = np.linspace(-30.0, 30.0, 1201)
        want = np.array([scalar_sigmoid(v) for v in x])
        npt.assert_allclose(sigmoid(Tensor(x)).data, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_saturates_without_overflow(self, dtype):
        with np.errstate(all="raise"):
            out = sigmoid(Tensor(np.array([-1000.0, 1000.0], dtype=dtype))).data
        assert out.dtype == dtype
        assert out[0] == 0.0 and out[1] == 1.0

    def test_shape_mismatch_names_op(self):
        with pytest.raises(ShapeError, match="matmul"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
        with pytest.raises(ShapeError, match="add"):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(2)
        x = rng.normal(scale=30.0, size=(4, 9))
        out = softmax(Tensor(x), axis=1)
        npt.assert_allclose(out.data.sum(axis=1), np.ones(4), atol=1e-6)
        assert np.all(out.data >= 0)
        assert np.all(np.isfinite(out.data))

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_softmax_shift_invariance(self, vals):
        x = np.asarray(vals)
        a = softmax(Tensor(x[None, :]), axis=1).data
        b = softmax(Tensor(x[None, :] + 7.25), axis=1).data
        npt.assert_allclose(a, b, atol=1e-9)
        npt.assert_allclose(a.sum(), 1.0, atol=1e-6)


class TestBackward:
    def test_sum_gradient(self):
        x = Tensor([1.0, -2.0, 3.5], requires_grad=True)
        with GradGraph() as g:
            loss = reduce_sum(x)
        g.backward(loss)
        npt.assert_allclose(x.grad, [1.0, 1.0, 1.0])

    def test_square_gradient(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with GradGraph() as g:
            loss = reduce_sum(mul(x, x))
        g.backward(loss)
        npt.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_two_layer_sigmoid_chain_matches_fd(self):
        rng = np.random.default_rng(3)
        w1 = Tensor(rng.normal(size=(4, 5)))
        w2 = Tensor(rng.normal(size=(5, 3)))
        x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)

        def f(t):
            h = sigmoid(matmul(t, w1))
            return reduce_sum(sigmoid(matmul(h, w2)))

        assert gradient_check(f, x, eps=1e-4) < 1e-3

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradGraph() as g:
            y = mul(x, x)
        with pytest.raises(ValueError, match="scalar"):
            g.backward(y)

    def test_unreached_tensor_gets_zero_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        w_used = Tensor([3.0, 4.0], requires_grad=True)
        w_unused = Tensor([5.0, 6.0], requires_grad=True)
        with GradGraph() as g:
            y = mul(x, w_used)
            _dead_end = mul(x, w_unused)
            loss = reduce_sum(y)
        g.backward(loss)
        npt.assert_allclose(w_used.grad, [1.0, 2.0])
        assert w_unused.grad is None

    def test_only_leaves_receive_grad(self):
        # op outputs' gradients are dropped during the replay, not stored
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradGraph() as g:
            h = mul(x, x)
            loss = reduce_sum(sigmoid(h))
        g.backward(loss)
        s = 1.0 / (1.0 + np.exp(-x.data * x.data))
        npt.assert_allclose(x.grad, s * (1.0 - s) * 2.0 * x.data, atol=1e-12)
        assert h.grad is None and loss.grad is None

    def test_backward_linearity(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(3, 3))
        x1 = Tensor(base.copy(), requires_grad=True)
        with GradGraph() as g:
            la = reduce_sum(mul(x1, x1))
            lb = reduce_sum(sigmoid(x1))
            total = add(la, lb)
        g.backward(total)
        combined = x1.grad.copy()

        x2 = Tensor(base.copy(), requires_grad=True)
        with GradGraph() as g:
            la = reduce_sum(mul(x2, x2))
        g.backward(la)
        ga = x2.grad.copy()
        x2.zero_grad()
        with GradGraph() as g:
            lb = reduce_sum(sigmoid(x2))
        g.backward(lb)
        gb = x2.grad.copy()

        npt.assert_allclose(combined, ga + gb, atol=1e-8)

    def test_reuse_accumulates(self):
        # the same tensor used twice sums its gradients (weight sharing)
        x = Tensor([2.0], requires_grad=True)
        with GradGraph() as g:
            loss = reduce_sum(add(mul(x, x), x))
        g.backward(loss)
        npt.assert_allclose(x.grad, [5.0])  # 2x + 1 at x=2

    def test_no_graph_means_no_recording(self):
        x = Tensor([1.0], requires_grad=True)
        y = mul(x, x)
        assert y.requires_grad  # flag still propagates
        g = GradGraph()
        assert g.ops == []


class TestGradientCheckAllPrimitives:
    """Every primitive stays under 1e-3 relative error at 10 seeded points."""

    N_POINTS = 10

    def _run(self, build, shape, seed):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(self.N_POINTS):
            x = Tensor(rng.normal(size=shape), requires_grad=True)
            worst = max(worst, gradient_check(build(rng), x, eps=1e-4))
        assert worst < 1e-3, worst

    @staticmethod
    def _with_consts(op):
        """Bind random constants once per point so f is a fixed function."""
        def build(rng):
            a = Tensor(rng.normal(size=(3, 4)))
            b = Tensor(rng.normal(size=(3, 4)))
            return lambda t: reduce_sum(mul(op(t, a), b))
        return build

    def test_add(self):
        self._run(self._with_consts(add), (3, 4), 10)

    def test_sub(self):
        self._run(self._with_consts(sub), (3, 4), 11)

    def test_mul(self):
        self._run(self._with_consts(mul), (3, 4), 12)

    def test_mul_broadcast(self):
        def build(rng):
            v = Tensor(rng.normal(size=(4,)))
            return lambda t: reduce_sum(mul(t, v))
        self._run(build, (3, 4), 13)

    def test_matmul(self):
        def build(rng):
            w = Tensor(rng.normal(size=(4, 2)))
            return lambda t: reduce_sum(tanh(matmul(t, w)))
        self._run(build, (3, 4), 14)

    def test_matmul_batched(self):
        def build(rng):
            w = Tensor(rng.normal(size=(4, 2)))
            return lambda t: reduce_sum(tanh(matmul(t, w)))
        self._run(build, (2, 3, 4), 15)

    def test_matmul_batched_weight(self):
        # gradient of the folded 2-D right operand
        def build(rng):
            a = Tensor(rng.normal(size=(2, 3, 4)))
            return lambda t: reduce_sum(tanh(matmul(a, t)))
        self._run(build, (4, 2), 25)

    def test_lstm_sequence_inputs(self):
        # batch 2, 3 steps, hidden 2: xw (2, 3, 8), wh (2, 8)
        def build(rng):
            wh = Tensor(rng.normal(size=(2, 8)))
            w = Tensor(rng.normal(size=(2, 3, 2)))
            return lambda t: reduce_sum(mul(lstm_sequence(t, wh), w))
        self._run(build, (2, 3, 8), 31)

    def test_lstm_sequence_recurrent_weights(self):
        def build(rng):
            xw = Tensor(rng.normal(size=(2, 3, 8)))
            w = Tensor(rng.normal(size=(2, 3, 2)))
            return lambda t: reduce_sum(mul(lstm_sequence(xw, t), w))
        self._run(build, (2, 8), 32)

    def test_concat(self):
        def build(rng):
            other = Tensor(rng.normal(size=(3, 2)))
            w = Tensor(rng.normal(size=(6, 1)))
            return lambda t: reduce_sum(matmul(concat([t, other], axis=1), w))
        self._run(build, (3, 4), 16)

    def test_slice(self):
        def build(rng):
            w = Tensor(rng.normal(size=(3, 2)))
            return lambda t: reduce_sum(mul(slice_axis(t, 1, 1, 3), w))
        self._run(build, (3, 4), 17)

    def test_reshape(self):
        def build(rng):
            w = Tensor(rng.normal(size=(12,)))
            return lambda t: reduce_sum(mul(reshape(t, (12,)), w))
        self._run(build, (3, 4), 18)

    def test_sigmoid(self):
        self._run(lambda rng: (lambda t: reduce_sum(sigmoid(t))), (3, 4), 19)

    def test_tanh(self):
        self._run(lambda rng: (lambda t: reduce_sum(tanh(t))), (3, 4), 20)

    def test_softmax(self):
        def build(rng):
            w = Tensor(rng.normal(size=(3, 4)))
            return lambda t: reduce_sum(mul(softmax(t, axis=1), w))
        self._run(build, (3, 4), 21)

    def test_reduce_max(self):
        self._run(lambda rng: (lambda t: reduce_sum(reduce_max(t, axis=1))), (3, 4), 23)

    def test_reduce_sum_axis(self):
        def build(rng):
            w = Tensor(rng.normal(size=(4,)))
            return lambda t: reduce_sum(mul(reduce_sum(t, axis=0), w))
        self._run(build, (3, 4), 24)

    def test_take_rows(self):
        ids = np.array([0, 2, 2, 1])

        def build(rng):
            w = Tensor(rng.normal(size=(4, 4)))
            return lambda t: reduce_sum(mul(take_rows(t, ids), w))
        self._run(build, (3, 4), 26)

    def test_masked_nll(self):
        # zero-weight rows, a repeated target, and one row shifted far past
        # exp's float64 range, which only the max shift keeps finite
        targets = np.array([1, 3, 1, 0, 1])
        weights = np.array([0.5, 0.0, 1.5, 0.0, 0.25])
        shift = Tensor(np.array([[0.0], [0.0], [0.0], [0.0], [1000.0]]))
        self._run(lambda rng: (lambda t: masked_nll(add(t, shift), targets, weights)),
                  (5, 4), 27)

    def test_gather_time(self):
        idx = np.array([[2, 1, 0], [0, 2, 1]])

        def build(rng):
            w = Tensor(rng.normal(size=(2, 3, 4)))
            return lambda t: reduce_sum(mul(gather_time(t, idx), w))
        self._run(build, (2, 3, 4), 28)

    def test_dropout_mask_apply(self):
        # fixed mask -> linear map; checked like any other primitive
        def build(rng):
            mask_rng = np.random.default_rng(int(rng.integers(1 << 30)))
            mask = Tensor((mask_rng.random((3, 4)) >= 0.5) / 0.5)
            return lambda t: reduce_sum(mul(t, mask))
        self._run(build, (3, 4), 29)

    def test_linear_case_is_exact(self):
        x = Tensor(np.random.default_rng(30).normal(size=(5,)), requires_grad=True)
        assert gradient_check(lambda t: reduce_sum(t), x) < 1e-10


class TestUtilities:
    def test_dropout_scales_kept_units(self):
        rng = np.random.default_rng(5)
        x = Tensor(np.ones((1000,)))
        out = dropout(x, 0.5, rng).data
        kept = out[out != 0]
        npt.assert_allclose(kept, 2.0)  # 1/(1-p)
        assert 0.35 < kept.size / 1000 < 0.65

    def test_dropout_zero_rate_is_identity(self):
        x = Tensor([1.0, 2.0])
        assert dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_masked_nll_forward(self):
        x = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]])
        logp = x - np.log(np.exp(x).sum(axis=1, keepdims=True))
        out = masked_nll(Tensor(x), [2, 0], [0.25, 2.0])
        npt.assert_allclose(out.item(), -(0.25 * logp[0, 2] + 2.0 * logp[1, 0]), rtol=1e-12)

    @pytest.mark.parametrize("targets,weights", [([0, 1], [1.0, 1.0, 1.0]),
                                                 ([0, 1, 2], [1.0, 1.0]),
                                                 ([0, 1, 2], [[1.0, 1.0, 1.0]])])
    def test_masked_nll_rejects_mismatched_rows(self, targets, weights):
        with pytest.raises(ShapeError, match="masked_nll"):
            masked_nll(Tensor(np.zeros((3, 4))), targets, weights)

    def test_gather_time_forward(self):
        x = Tensor(np.arange(12, dtype=float).reshape(2, 3, 2))
        idx = np.array([[2, 1, 0], [0, 2, 1]])
        out = gather_time(x, idx)
        npt.assert_allclose(out.data[0, 0], x.data[0, 2])
        npt.assert_allclose(out.data[1, 1], x.data[1, 2])

    def test_gather_time_rejects_non_permutation(self):
        x = Tensor(np.zeros((2, 3, 2)))
        for idx in ([[2, 1, 0], [0, 0, 2]], [[0, 1, 3], [0, 1, 2]], [[0, 1, -1], [0, 1, 2]]):
            with pytest.raises(ShapeError, match="permutation"):
                gather_time(x, np.array(idx))

    def test_finite_after_mask_bias(self):
        # -1e9 additive masking keeps softmax finite
        x = Tensor(np.array([[1.0, 2.0, -1e9]]))
        out = softmax(x, axis=1)
        assert np.all(np.isfinite(out.data))
        npt.assert_allclose(out.data[0, 2], 0.0, atol=1e-12)
