import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcad.tensor import (
    GradGraph,
    _Part,
    _record,
    ShapeError,
    Tensor,
    add,
    bilinear_attention,
    concat,
    dropout_keep,
    fusion_gate,
    gradient_check,
    linear_nll,
    lstm_sequence,
    matmul,
    mul,
    reduce_max,
    reduce_sum,
    reshape,
    sigmoid,
    take_rows,
    tanh,
)
from logcad.train import clip_gradients
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

    def test_matmul_refuses_a_batched_right_operand(self):
        # the right operand is a weight: one matrix for every leading index of a
        with pytest.raises(ShapeError, match="matmul"):
            matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 4, 1))))


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

    def test_leaf_gradients_are_writable_and_unshared(self):
        # add hands one array to its two equal-shaped leaves, c is reached
        # only through reduce_sum's read-only broadcast, and d is used three
        # times through reshape and concat, whose gradients are views
        rng = np.random.default_rng(8)
        a, b, c, d = (Tensor(rng.normal(size=(3, 4)), requires_grad=True, dtype=np.float32)
                      for _ in range(4))
        k = rng.normal(size=(3, 4)).astype(np.float32)
        w = rng.normal(size=(9, 4)).astype(np.float32)
        with GradGraph() as g:
            stacked = concat([d, reshape(reshape(d, (4, 3)), (3, 4)), d], axis=0)
            loss = add(add(reduce_sum(mul(add(a, b), Tensor(k))), reduce_sum(c)),
                       reduce_sum(mul(stacked, Tensor(w))))
        g.backward(loss)
        leaves = [a, b, c, d]
        w64 = w.astype(np.float64)
        ref = [k.astype(np.float64)] * 2 + [np.ones((3, 4)), w64[:3] + w64[3:6] + w64[6:]]
        for t, r in zip(leaves, ref):
            npt.assert_allclose(t.grad, r, rtol=1e-6)
        for i, t in enumerate(leaves):
            assert t.grad.flags.writeable
            for u in leaves[i + 1:]:
                assert not np.shares_memory(t.grad, u.grad)
        norm = np.sqrt(sum((r * r).sum() for r in ref))
        assert clip_gradients(leaves, 1.0) == pytest.approx(norm, rel=1e-6)
        for t, r in zip(leaves, ref):
            npt.assert_allclose(t.grad, r / norm, rtol=1e-6)

    def test_fresh_leaf_gradients_are_not_copied(self):
        # a weight's GEMM gradient is a fresh array, which the leaf keeps as
        # the backward function returned it; a table's take_rows gradient is
        # a _Part, and the leaf keeps the one buffer the graph scattered it into
        rng = np.random.default_rng(9)
        w = Tensor(rng.normal(size=(64, 3)), requires_grad=True)
        table = Tensor(rng.normal(size=(4096, 64)), requires_grad=True)
        ids = np.array([[1, 2], [2, 5]])
        with GradGraph() as g:
            loss = reduce_sum(matmul(take_rows(table, ids), w))
        returned = {}
        for i, (name, inputs, out, bw) in enumerate(g.ops):
            def spy(grads, bw=bw, name=name):
                returned[name] = bw(grads)
                return returned[name]
            g.ops[i] = (name, inputs, out, spy)
        tracemalloc.start()
        try:
            g.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.grad is returned["matmul"][1]
        assert isinstance(returned["take_rows"][0], _Part)
        ref = np.zeros_like(table.data)
        np.add.at(ref, ids, np.broadcast_to(w.data.sum(axis=1), ids.shape + (64,)))
        npt.assert_allclose(table.grad, ref)
        # a copy of the graph's buffer would be a second 2 MB table
        assert peak < 1.5 * table.data.nbytes, peak / table.data.nbytes

    def test_op_with_an_unused_output_runs_once_on_zeros(self):
        # a two-output op runs once when any output is reached, and the
        # gradient of an output the loss does not use arrives as zeros
        x = Tensor([1.0, 2.0], requires_grad=True)
        seen = []

        def bw(grads):
            seen.append(grads)
            return (2.0 * grads[0] + 3.0 * grads[1],)

        with GradGraph() as g:
            doubled, tripled = _record("two", (2.0 * x.data, 3.0 * x.data), (x,), bw)
            _dead_end = reduce_sum(doubled)  # recorded, but not part of the loss
            loss = reduce_sum(mul(tripled, Tensor([5.0, 7.0])))
        g.backward(loss)
        assert len(seen) == 1
        npt.assert_array_equal(seen[0][0], [0.0, 0.0])
        npt.assert_array_equal(seen[0][1], [5.0, 7.0])
        npt.assert_allclose(x.grad, [15.0, 21.0])

    def test_second_backward_is_refused(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradGraph() as g:
            loss = reduce_sum(mul(x, x))
        g.backward(loss)
        with pytest.raises(ValueError, match="already replayed"):
            g.backward(loss)
        npt.assert_allclose(x.grad, [2.0, 4.0])

    def test_backward_frees_op_outputs_as_it_replays(self):
        # the tape is what keeps h alive once the caller drops it; backward
        # consumes the tape, so h's array is gone when backward returns
        x = Tensor(np.random.default_rng(7).normal(size=(3, 4)), requires_grad=True)
        with GradGraph() as g:
            h = tanh(x)
            loss = reduce_sum(mul(h, h))
        freed = weakref.ref(h.data)
        del h
        assert freed() is not None
        g.backward(loss)
        assert freed() is None
        assert g.ops == []
        npt.assert_allclose(x.grad, 2.0 * np.tanh(x.data) * (1.0 - np.tanh(x.data) ** 2))

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

    def test_matmul_at_rows(self):
        # only the picked rows are multiplied; the others read 0 and pass no
        # gradient
        at = np.array([[True, False, True], [False, False, True]])

        def build(rng):
            w = Tensor(rng.normal(size=(4, 2)))
            return lambda t: reduce_sum(tanh(matmul(t, w, at=at)))
        self._run(build, (2, 3, 4), 43)

        def build_w(rng):
            a = Tensor(rng.normal(size=(2, 3, 4)))
            return lambda t: reduce_sum(tanh(matmul(a, t, at=at)))
        self._run(build_w, (4, 2), 44)

    def test_fusion_gate(self):
        # every input of the one-op gate, at S = 3 and F = 4 features in
        # blocks of 2, 1 and 1, of which the op multiplies the middle one;
        # pre stands for the other blocks' pre-activations
        shapes = {"s": (2, 3), "f0": (2, 2), "f1": (2, 1), "f2": (2, 1), "pre": (2, 7),
                  "w_zr": (7, 7), "w_s": (7, 3), "b_s": (3,)}
        for seed, arg in enumerate(shapes, start=45):
            def build(rng, arg=arg):
                consts = {k: Tensor(rng.normal(size=v)) for k, v in shapes.items()}
                w = Tensor(rng.normal(size=(2, 3)))

                def f(t):
                    a = dict(consts, **{arg: t})
                    return reduce_sum(mul(fusion_gate(
                        a["s"], [a["f0"], a["f1"], a["f2"]], 1, a["pre"], a["w_zr"],
                        a["w_s"], a["b_s"]), w))
                return f
            self._run(build, shapes[arg], seed)

    # rows of unequal lengths, including 1 and T (= 4), in no sorted order
    ATTENTION_SHAPES = {"states": (3, 4, 3), "projected": (3, 4, 2), "s": (3, 2), "u_s": (2, 2)}

    @pytest.mark.parametrize("arg", list(ATTENTION_SHAPES))
    def test_bilinear_attention(self, arg):
        def build(rng):
            consts = {k: Tensor(rng.normal(size=v)) for k, v in self.ATTENTION_SHAPES.items()}
            w = Tensor(rng.normal(size=(3, 3)))

            def f(t):
                a = dict(consts, **{arg: t})
                summary, _ = bilinear_attention(a["states"], a["projected"], np.array([3, 1, 4]),
                                                a["s"], a["u_s"])
                return reduce_sum(mul(summary, w))
            return f
        self._run(build, self.ATTENTION_SHAPES[arg], 51)

    # rows of unequal lengths, including 1 and T (= 4), in no sorted order
    LSTM_LENGTHS = np.array([3, 1, 4])
    LSTM_SHAPES = {"x": (3, 4, 2), "wx": (2, 8), "b": (8,), "wh": (2, 8),
                   "h0": (3, 2), "c0": (3, 2)}

    def _lstm_sequence(self, arg, hidden_used=True):
        """Gradient check of lstm_sequence's ``arg`` input (batch 3, 4 steps,
        2 inputs, hidden 2), forward and reverse, from a random state; the
        loss weighs the hidden states (unless ``hidden_used`` is False) and
        the last cell states."""
        for seed, reverse in ((31, False), (35, True)):
            def build(rng):
                consts = {k: Tensor(rng.normal(size=shape))
                          for k, shape in self.LSTM_SHAPES.items()}
                w = Tensor(rng.normal(size=(3, 4, 2)))
                v = Tensor(rng.normal(size=(3, 2)))

                def f(t):
                    args = dict(consts, **{arg: t})
                    out, _, c_last = lstm_sequence(
                        args["x"], args["wx"], args["b"], args["wh"], self.LSTM_LENGTHS,
                        args["h0"], args["c0"], reverse=reverse)
                    last = reduce_sum(mul(c_last, v))
                    return add(reduce_sum(mul(out, w)), last) if hidden_used else last
                return f
            self._run(build, self.LSTM_SHAPES[arg], seed)

    def test_lstm_sequence_inputs(self):
        self._lstm_sequence("x")

    def test_lstm_sequence_input_weights(self):
        self._lstm_sequence("wx")

    def test_lstm_sequence_bias(self):
        self._lstm_sequence("b")

    def test_lstm_sequence_recurrent_weights(self):
        self._lstm_sequence("wh")

    def test_lstm_sequence_initial_hidden(self):
        self._lstm_sequence("h0")

    def test_lstm_sequence_initial_cell(self):
        self._lstm_sequence("c0")

    def test_lstm_sequence_last_cell_alone(self):
        # the hidden-state output reaches no loss: the op runs on a zero gradient
        self._lstm_sequence("x", hidden_used=False)

    def test_concat(self):
        def build(rng):
            other = Tensor(rng.normal(size=(3, 2)))
            w = Tensor(rng.normal(size=(6, 1)))
            return lambda t: reduce_sum(matmul(concat([t, other], axis=1), w))
        self._run(build, (3, 4), 16)

    def test_reshape(self):
        def build(rng):
            w = Tensor(rng.normal(size=(12,)))
            return lambda t: reduce_sum(mul(reshape(t, (12,)), w))
        self._run(build, (3, 4), 18)

    def test_sigmoid(self):
        self._run(lambda rng: (lambda t: reduce_sum(sigmoid(t))), (3, 4), 19)

    def test_tanh(self):
        self._run(lambda rng: (lambda t: reduce_sum(tanh(t))), (3, 4), 20)

    def test_reduce_max(self):
        self._run(lambda rng: (lambda t: reduce_sum(reduce_max(t, axis=1))), (3, 4), 23)

    def test_reduce_sum_axis(self):
        def build(rng):
            w = Tensor(rng.normal(size=(4,)))
            return lambda t: reduce_sum(mul(reduce_sum(t, axis=0), w))
        self._run(build, (3, 4), 24)

    def test_take_rows(self):
        # one table read through repeating 2-D ids (-1 wraps to the last
        # row), a slice, a tuple key and directly, so its gradient sums
        # _Parts and a dense gradient in one buffer
        ids = np.array([[0, 2, 2], [-1, 2, 0]])

        def build(rng):
            w1 = Tensor(rng.normal(size=(2, 3, 4)))
            w2 = Tensor(rng.normal(size=(2, 4)))
            w3 = Tensor(rng.normal(size=(2,)))
            w4 = Tensor(rng.normal(size=(3, 4)))
            return lambda t: add(add(reduce_sum(mul(take_rows(t, ids), w1)),
                                     reduce_sum(mul(take_rows(t, np.s_[1:]), w2))),
                                 add(reduce_sum(mul(take_rows(t, ([0, 2], [3, 3])), w3)),
                                     reduce_sum(mul(t, w4))))
        self._run(build, (3, 4), 26)

    # zero-weight rows, a repeated target, and one row whose logits are all
    # shifted by +1000, far past exp's float64 range, which only the max
    # shift keeps finite: a constant input column times a row of ones in w
    NLL_TARGETS = np.array([1, 3, 1, 0, 1])
    NLL_WEIGHTS = np.array([0.5, 0.0, 1.5, 0.0, 0.25])
    NLL_SHAPES = {"x": (5, 3), "w": (3, 4), "b": (4,)}

    def _linear_nll(self, arg, seed):
        shift = Tensor(np.array([[0.0], [0.0], [0.0], [0.0], [1000.0]]))
        ones = Tensor(np.ones((1, 4)))

        def build(rng):
            consts = {k: Tensor(rng.normal(size=shape)) for k, shape in self.NLL_SHAPES.items()}

            def f(t):
                args = dict(consts, **{arg: t})
                x = concat([args["x"], shift], axis=1)
                w = concat([args["w"], ones], axis=0)
                return linear_nll(x, w, args["b"], self.NLL_TARGETS, self.NLL_WEIGHTS)[0]
            return f
        self._run(build, self.NLL_SHAPES[arg], seed)

    def test_linear_nll_inputs(self):
        self._linear_nll("x", 27)

    def test_linear_nll_weights(self):
        self._linear_nll("w", 32)

    def test_linear_nll_bias(self):
        self._linear_nll("b", 33)

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


def _np_lstm(x, wx, b, wh, h, c):
    """(n, D) tokens from the state (h, c) -> the (n, H) hidden states and the
    last cell state, one numpy step per token."""
    hid = wh.shape[0]
    sig = np.vectorize(scalar_sigmoid)
    out = []
    for x_t in x:
        z = x_t @ wx + b + h @ wh
        i, f, g, o = (z[k * hid:(k + 1) * hid] for k in range(4))
        c = sig(f) * c + sig(i) * np.tanh(g)
        h = sig(o) * np.tanh(c)
        out.append(h)
    return np.array(out), c


class TestLstmSequencePacked:
    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 6), min_size=1, max_size=5),
           st.integers(0, 3), st.integers(1, 3), st.integers(1, 3), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_unpadded_runs(self, seed, lengths, extra, dim, hid, reverse):
        # each row reads only its own tokens from its own initial state: PAD
        # columns hold NaN, and the outputs there, and the gradient reaching
        # them, are exactly 0
        rng = np.random.default_rng(seed)
        lengths = np.array(lengths)
        steps = int(lengths.max()) + extra
        valid = np.arange(steps)[None, :] < lengths[:, None]
        x = np.where(valid[:, :, None], rng.normal(size=(len(lengths), steps, dim)), np.nan)
        wx, b, wh = (rng.normal(size=s) for s in ((dim, 4 * hid), (4 * hid,), (hid, 4 * hid)))
        h0, c0 = rng.normal(size=(2, len(lengths), hid))
        xt = Tensor(x, requires_grad=True)
        with GradGraph() as g:
            out, _, c_last = lstm_sequence(xt, Tensor(wx), Tensor(b), Tensor(wh), lengths,
                                           Tensor(h0), Tensor(c0), reverse=reverse)
            loss = add(reduce_sum(mul(out, Tensor(rng.normal(size=out.shape)))),
                       reduce_sum(mul(c_last, Tensor(rng.normal(size=c_last.shape)))))
        g.backward(loss)
        for r, n in enumerate(lengths):
            tokens = x[r, :n][::-1] if reverse else x[r, :n]
            want, want_c = _np_lstm(tokens, wx, b, wh, h0[r], c0[r])
            npt.assert_allclose(out.data[r, :n], want[::-1] if reverse else want,
                                rtol=0, atol=1e-12)
            npt.assert_allclose(c_last.data[r], want_c, rtol=0, atol=1e-12)
        assert np.all(out.data[~valid] == 0.0)
        assert np.all(xt.grad[~valid] == 0.0)
        assert np.all(np.isfinite(xt.grad))


def _pad_steps(a, steps):
    """``a`` (B, T, H) with zeros appended up to ``steps`` positions."""
    return np.pad(a, ((0, 0), (0, steps - a.shape[1]), (0, 0)))


class TestLstmSequenceFullRows:
    """Rows that all run every step take the path without packing; its
    outputs match the numpy loop, and its gradients those of the packed path
    on the same rows with one more, padded, step."""

    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize("rows", [1, 5])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_numpy_and_the_packed_path(self, steps, rows, reverse):
        rng = np.random.default_rng(steps * 10 + rows + 100 * reverse)
        dim, hid = 3, 2
        x = rng.normal(size=(rows, steps, dim))
        wx, b, wh = (rng.normal(size=s) for s in ((dim, 4 * hid), (4 * hid,), (hid, 4 * hid)))
        h0, c0 = rng.normal(size=(2, rows, hid))
        lengths = np.full(rows, steps)
        w_out, w_h, w_c = (rng.normal(size=s) for s in ((rows, steps, hid), (rows, hid),
                                                         (rows, hid)))

        def run(x_in):
            xt = Tensor(x_in, requires_grad=True)
            params = [Tensor(a, requires_grad=True) for a in (wx, b, wh, h0, c0)]
            with GradGraph() as g:
                out, h, c = lstm_sequence(xt, *params[:3], lengths, *params[3:], reverse=reverse)
                loss = add(add(reduce_sum(mul(out, Tensor(_pad_steps(w_out, out.shape[1])))),
                               reduce_sum(mul(h, Tensor(w_h)))), reduce_sum(mul(c, Tensor(w_c))))
            g.backward(loss)
            return out.data, h.data, c.data, [xt.grad[:, :steps]] + [t.grad for t in params]

        out, h_last, c_last, grads = run(x)
        for r in range(rows):
            tokens = x[r, ::-1] if reverse else x[r]
            want, want_c = _np_lstm(tokens, wx, b, wh, h0[r], c0[r])
            npt.assert_allclose(out[r], want[::-1] if reverse else want, rtol=0, atol=1e-12)
            npt.assert_allclose(h_last[r], want[-1], rtol=0, atol=1e-12)
            npt.assert_allclose(c_last[r], want_c, rtol=0, atol=1e-12)
        padded = np.concatenate([x, np.full((rows, 1, dim), np.nan)], axis=1)
        p_out, p_h, p_c, p_grads = run(padded)
        npt.assert_allclose(p_out[:, :steps], out, rtol=0, atol=1e-12)
        for got, want in zip(grads, p_grads):
            npt.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_two_directions_with_dropout_match_the_packed_path(self):
        rng = np.random.default_rng(7)
        rows, steps, dim, hid, p = 4, 3, 3, 2, 0.4
        x = rng.normal(size=(rows, steps, dim))
        keep = rng.random(x.shape) >= p
        cells = [rng.normal(size=s) for _ in range(2)
                 for s in ((dim, 4 * hid), (4 * hid,), (hid, 4 * hid))]
        h0, c0 = rng.normal(size=(2, rows, 2 * hid))
        w_out = rng.normal(size=(rows, steps, 2 * hid))
        lengths = np.full(rows, steps)

        def run(x_in, keep_in):
            xt = Tensor(x_in, requires_grad=True)
            params = [Tensor(a, requires_grad=True) for a in cells + [h0, c0]]
            (wx0, b0, wh0, wx1, b1, wh1), (h0t, c0t) = params[:6], params[6:]
            with GradGraph() as g:
                out, h, c = lstm_sequence(xt, (wx0, wx1), (b0, b1), (wh0, wh1), lengths, h0t,
                                          c0t, reverse=(False, True), drop=(keep_in, p))
                loss = add(reduce_sum(mul(out, Tensor(_pad_steps(w_out, out.shape[1])))),
                           reduce_sum(mul(c, h)))
            g.backward(loss)
            return [out.data[:, :steps], h.data, c.data, xt.grad[:, :steps]] + \
                [t.grad for t in params]

        pad = np.ones((rows, 1, dim), dtype=bool)
        got = run(x, keep)
        want = run(np.concatenate([x, np.full((rows, 1, dim), np.nan)], axis=1),
                   np.concatenate([keep, pad], axis=1))
        for a, b_ in zip(got, want):
            npt.assert_allclose(a, b_, rtol=0, atol=1e-12)


class TestLstmSequenceDirections:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_two_directions_equal_two_ops_on_the_dropped_input(self, seed):
        # one op over both directions, with dropout from a keep mask, gives the
        # outputs and every gradient of one op per direction on x * mask
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, 6, size=4)
        dim, hid, p = 3, 2, 0.4
        x = rng.normal(size=(4, int(lengths.max()) + 1, dim))
        keep = rng.random(x.shape) >= p
        cells = [[Tensor(rng.normal(size=shape), requires_grad=True)
                  for shape in ((dim, 4 * hid), (4 * hid,), (hid, 4 * hid))] for _ in range(2)]
        h0, c0 = (Tensor(rng.normal(size=(4, 2 * hid)), requires_grad=True) for _ in range(2))
        weights = [Tensor(rng.normal(size=s)) for s in (x.shape[:2] + (2 * hid,), (4, 2 * hid),
                                                         (4, 2 * hid))]

        def grads(run):
            xt = Tensor(x, requires_grad=True)
            with GradGraph() as g:
                (out, h, c), (w_out, w_h, w_c) = run(xt), weights
                loss = add(add(reduce_sum(mul(out, w_out)), reduce_sum(mul(h, w_h))),
                           reduce_sum(mul(c, w_c)))
            g.backward(loss)
            tensors = [xt, h0, c0] + [t for cell in cells for t in cell]
            got = [out.data, h.data, c.data] + [t.grad for t in tensors]
            for t in tensors:
                t.grad = None
            return got

        def one_op(xt):
            (wx0, b0, wh0), (wx1, b1, wh1) = cells
            return lstm_sequence(xt, (wx0, wx1), (b0, b1), (wh0, wh1), lengths, h0, c0,
                                 reverse=(False, True), drop=(keep, p))

        def two_ops(xt):
            dropped = mul(xt, Tensor(keep / (1.0 - p)))
            halves = [lstm_sequence(dropped, *cell, lengths,
                                    take_rows(h0, np.s_[:, k * hid:(k + 1) * hid]),
                                    take_rows(c0, np.s_[:, k * hid:(k + 1) * hid]),
                                    reverse=bool(k)) for k, cell in enumerate(cells)]
            return [concat(parts, axis=-1) for parts in zip(*halves)]

        for got, want in zip(grads(one_op), grads(two_ops)):
            npt.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_two_direction_gradient_check(self):
        # the input through both directions and the dropout, and the second
        # direction's recurrent weights
        rng = np.random.default_rng(50)
        lengths = np.array([3, 1, 4])
        keep = rng.random((3, 4, 2)) >= 0.3
        for arg in ("x", "wh1"):
            worst = 0.0
            for _ in range(10):
                args = {k: Tensor(rng.normal(size=shape)) for k, shape in
                        (("x", (3, 4, 2)), ("wx0", (2, 8)), ("b0", (8,)), ("wh0", (2, 8)),
                         ("wx1", (2, 8)), ("b1", (8,)), ("wh1", (2, 8)), ("h0", (3, 4)),
                         ("c0", (3, 4)))}
                w = Tensor(rng.normal(size=(3, 4, 4)))
                target = Tensor(args[arg].data, requires_grad=True)

                def f(t):
                    a = dict(args, **{arg: t})
                    out, h, c = lstm_sequence(a["x"], (a["wx0"], a["wx1"]), (a["b0"], a["b1"]),
                                              (a["wh0"], a["wh1"]), lengths, a["h0"], a["c0"],
                                              reverse=(False, True), drop=(keep, 0.3))
                    return add(reduce_sum(mul(out, w)), reduce_sum(mul(c, h)))
                worst = max(worst, gradient_check(f, target))
            assert worst < 1e-3, (arg, worst)


class TestSparseGradients:
    """Gathers return their input gradient as a ``_Part``: only the graph
    turns a sparse gradient into a buffer of the input's size."""

    @pytest.mark.parametrize("key,rows", [
        (np.array([[3, 1], [3, -1]]), [1, 3, 4]),  # ids summed per row
        (np.array([4, 0, 2]), [4, 0, 2]),          # no repeat: in key order
        (np.s_[1:3], np.s_[1:3]),
        ((np.array([0, 2]), np.array([1, 1])), (np.array([0, 2]), np.array([1, 1]))),
    ])
    def test_take_rows(self, key, rows):
        table = Tensor(np.arange(15.0).reshape(5, 3), requires_grad=True)
        with GradGraph() as g:
            out = take_rows(table, key)
        up = np.random.default_rng(3).normal(size=out.shape)
        part, _ = g.ops[-1][3](up)
        assert isinstance(part, _Part)
        npt.assert_array_equal(part.key, rows)
        dense = np.zeros_like(table.data)
        np.add.at(dense, key, up)
        got = np.zeros_like(table.data)
        got[part.key] = part.g
        npt.assert_allclose(got, dense)

    def test_lstm_sequence_input(self):
        rng = np.random.default_rng(4)
        x, wx, b, wh, h0, c0 = (Tensor(rng.normal(size=s), requires_grad=True) for s in
                                ((3, 4, 2), (2, 8), (8,), (2, 8), (3, 2), (3, 2)))
        with GradGraph() as g:
            out, h, c = lstm_sequence(x, wx, b, wh, np.array([2, 4, 1]), h0, c0)
        part = g.ops[-1][3]((np.ones(out.shape), np.ones(h.shape), np.ones(c.shape)))[0]
        assert isinstance(part, _Part)
        rows, pos = part.key
        assert sorted(zip(rows.tolist(), pos.tolist())) == \
            [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 0)]
        assert part.g.shape == (7, 2)

    def test_reduce_max(self):
        x = Tensor(np.random.default_rng(5).normal(size=(2, 5, 3)), requires_grad=True)
        with GradGraph() as g:
            out = reduce_max(x, axis=-2)
        up = np.ones(out.shape)
        (part,) = g.ops[-1][3](up)
        assert isinstance(part, _Part)
        got = np.zeros_like(x.data)
        got[part.key] = part.g
        npt.assert_array_equal(got, x.data == x.data.max(axis=1, keepdims=True))


class TestTakeRowsBackward:
    def test_empty_ids_give_a_zero_table(self):
        table = Tensor(np.ones((5, 3)), requires_grad=True)
        with GradGraph() as g:
            loss = reduce_sum(take_rows(table, np.zeros((2, 0), dtype=np.int64)))
        g.backward(loss)
        npt.assert_array_equal(table.grad, np.zeros((5, 3)))

    def test_heavy_duplicates_match_a_float64_reference(self):
        rng = np.random.default_rng(10)
        # about 512 uses of each of 5 ids; -2 and 48 name the same row
        ids = rng.choice([-2, -1, 0, 1, 48], size=(64, 40))
        up = rng.normal(size=(64, 40, 8)).astype(np.float32)
        table = Tensor(np.zeros((50, 8)), requires_grad=True, dtype=np.float32)
        with GradGraph() as g:
            loss = reduce_sum(mul(take_rows(table, ids), Tensor(up)))
        g.backward(loss)
        ref = np.zeros((50, 8))
        np.add.at(ref, ids, up.astype(np.float64))
        magnitude = np.zeros((50, 8))
        np.add.at(magnitude, ids, np.abs(up.astype(np.float64)))
        uses = np.bincount(ids.ravel() % 50, minlength=50)[:, None]
        # the summation order differs from np.add.at's; any float32 order of n
        # terms errs by at most n * eps32 times the sum of their magnitudes
        bound = uses * np.finfo(np.float32).eps * magnitude
        assert np.all(np.abs(table.grad - ref) <= bound)
        assert not table.grad[2:48].any()


class TestUtilities:
    def test_dropout_keeps_a_fraction(self):
        keep = dropout_keep((1000,), 0.5, np.random.default_rng(5))
        assert keep.dtype == bool
        assert 0.35 < keep.mean() < 0.65
        # one rng.random draw per unit
        npt.assert_array_equal(keep, np.random.default_rng(5).random(1000) >= 0.5)

    def test_dropout_zero_rate_is_identity(self):
        assert dropout_keep((2, 3), 0.0, np.random.default_rng(0)).all()

    def test_linear_nll_forward_and_correct(self):
        # 150 rows span three row blocks; row 0's logits are the bias alone,
        # whose maximum 2.0 is tied at columns 1 and 3, and the first counts
        rng = np.random.default_rng(40)
        x = rng.normal(size=(150, 3))
        x[0] = 0.0
        w = rng.normal(size=(3, 5))
        b = np.array([0.0, 2.0, -1.0, 2.0, 0.5])
        targets = rng.integers(5, size=150)
        targets[0] = 1
        weights = rng.random(150)
        logits = x @ w + b
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        loss, correct = linear_nll(Tensor(x), Tensor(w), Tensor(b), targets, weights)
        npt.assert_allclose(loss.item(), -(weights * logp[np.arange(150), targets]).sum(),
                            rtol=1e-12)
        hits = np.argmax(logits, axis=1) == targets
        assert hits[0] and 0 < hits.sum() < 150
        assert correct == hits.sum()

    @pytest.mark.parametrize("x,w,b,targets,weights", [
        pytest.param((3, 3), (3, 4), (4,), (2,), (3,), id="targets-short"),
        pytest.param((3, 3), (3, 4), (4,), (3,), (2,), id="weights-short"),
        pytest.param((3, 3), (3, 4), (4,), (3,), (1, 3), id="weights-2d"),
        pytest.param((3,), (3, 4), (4,), (3,), (3,), id="x-1d"),
        pytest.param((3, 2), (3, 4), (4,), (3,), (3,), id="x-width-not-w-rows"),
        pytest.param((3, 3), (3, 4), (3,), (3,), (3,), id="b-width-not-v"),
    ])
    def test_linear_nll_rejects_mismatched_shapes(self, x, w, b, targets, weights):
        with pytest.raises(ShapeError, match="linear_nll"):
            linear_nll(Tensor(np.zeros(x)), Tensor(np.zeros(w)), Tensor(np.zeros(b)),
                       np.zeros(targets, dtype=np.intp), np.ones(weights))

    def test_linear_nll_holds_one_logits_array(self):
        # the op's logits buffer is the only (N, V) array of its forward and
        # backward passes, beside block-sized scratch and the (D, V) gradient
        # of w; an add(matmul) head with a separate loss op holds three
        rng = np.random.default_rng(41)
        n, d, v = 300, 32, 4000
        x = Tensor(rng.normal(size=(n, d)), requires_grad=True)
        w = Tensor(rng.normal(size=(d, v)) * 0.1, requires_grad=True)
        b = Tensor(np.zeros(v), requires_grad=True)
        targets = rng.integers(v, size=n)
        weights = np.full(n, 1.0 / n)
        tracemalloc.start()
        try:
            with GradGraph() as g:
                loss, _ = linear_nll(x, w, b, targets, weights)
            g.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.grad.shape == (d, v)
        assert peak < 1.5 * n * v * x.data.itemsize, peak / (n * v * x.data.itemsize)


class TestBilinearAttention:
    @staticmethod
    def _inputs(rng, lengths, t, d=3, a=2, s=4):
        """Random states (zero past each row's length, as the encoder leaves
        them), their projection, decoder states and ``u_s``, as leaves."""
        real = (np.arange(t) < np.asarray(lengths)[:, None])[:, :, None]
        return (Tensor(rng.normal(size=(len(lengths), t, d)) * real, requires_grad=True),
                Tensor(rng.normal(size=(len(lengths), t, a)), requires_grad=True),
                Tensor(rng.normal(size=(len(lengths), s)), requires_grad=True),
                Tensor(rng.normal(size=(s, a)), requires_grad=True))

    @staticmethod
    def _run(states, projected, lengths, s, u_s, w):
        with GradGraph() as g:
            summary, alpha = bilinear_attention(states, projected, lengths, s, u_s)
            loss = reduce_sum(mul(summary, w))
        g.backward(loss)
        return summary.data, alpha

    def test_padding_takes_no_weight_and_no_gradient(self):
        rng = np.random.default_rng(60)
        lengths = np.array([3, 1, 5, 2])
        states, projected, s, u_s = self._inputs(rng, lengths, 5)
        _, alpha = self._run(states, projected, lengths, s, u_s,
                             Tensor(rng.normal(size=(4, 3))))
        pad = np.arange(5) >= lengths[:, None]
        assert np.all(alpha[pad] == 0.0) and np.all(alpha[~pad] > 0.0)
        assert np.all(states.grad[pad] == 0.0) and np.all(projected.grad[pad] == 0.0)
        assert np.any(states.grad[~pad] != 0.0) and np.any(projected.grad[~pad] != 0.0)

    def test_a_row_gets_what_it_gets_alone(self):
        # row 0 (2 positions) beside a longer row equals row 0 alone, which has no padding
        rng = np.random.default_rng(61)
        lengths = np.array([2, 5])
        states, projected, s, u_s = self._inputs(rng, lengths, 5)
        w = rng.normal(size=(2, 3))
        summary, alpha = self._run(states, projected, lengths, s, u_s, Tensor(w))
        u_s_batched = u_s.grad
        alone = [Tensor(states.data[:1, :2], requires_grad=True),
                 Tensor(projected.data[:1, :2], requires_grad=True),
                 Tensor(s.data[:1], requires_grad=True)]
        other = [Tensor(states.data[1:], requires_grad=True),
                 Tensor(projected.data[1:], requires_grad=True),
                 Tensor(s.data[1:], requires_grad=True)]
        u_s.grad = None
        one, one_alpha = self._run(*alone[:2], lengths[:1], alone[2], u_s, Tensor(w[:1]))
        self._run(*other[:2], lengths[1:], other[2], u_s, Tensor(w[1:]))
        npt.assert_allclose(summary[0], one[0], rtol=0, atol=1e-12)
        npt.assert_allclose(alpha[0, :2], one_alpha[0], rtol=0, atol=1e-12)
        for batched, t in zip((states.grad[:1, :2], projected.grad[:1, :2], s.grad[:1]), alone):
            npt.assert_allclose(batched, t.grad, rtol=0, atol=1e-12)
        # u_s sums its gradient over the rows: the two rows alone add up to the batch's
        npt.assert_allclose(u_s_batched, u_s.grad, rtol=0, atol=1e-12)

    def test_one_call_records_one_op(self):
        rng = np.random.default_rng(62)
        lengths = np.array([2, 3])
        states, projected, s, u_s = self._inputs(rng, lengths, 3)
        with GradGraph() as g:
            bilinear_attention(states, projected, lengths, s, u_s)
        assert [op[0] for op in g.ops] == ["bilinear_attention"]

    @staticmethod
    def _weights(scores, lengths=None):
        """The weights of the scores (B, T) themselves: a one-wide projection
        read by q = 1."""
        scores = np.asarray(scores, dtype=np.float64)
        if lengths is None:
            lengths = np.full(len(scores), scores.shape[1])
        states = Tensor(np.zeros(scores.shape + (1,)))
        return bilinear_attention(states, Tensor(scores[:, :, None]), lengths,
                                  Tensor(np.ones((len(scores), 1))), Tensor(np.ones((1, 1))))[1]

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(2)
        lengths = np.array([9, 4, 1, 7])
        alpha = self._weights(rng.normal(scale=30.0, size=(4, 9)), lengths)
        npt.assert_allclose(alpha.sum(axis=1), np.ones(4), atol=1e-6)
        assert np.all(alpha >= 0) and np.all(np.isfinite(alpha))

    def test_equal_scores_give_uniform_weights(self):
        alpha = self._weights([[2.5, 2.5, 2.5, 9.0], [2.5, 2.5, 2.5, 2.5]], np.array([3, 4]))
        npt.assert_allclose(alpha, [[1 / 3, 1 / 3, 1 / 3, 0.0], [0.25] * 4])

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_weights_ignore_a_shift_of_every_score(self, vals):
        x = np.asarray(vals)[None, :]
        a, b = self._weights(x), self._weights(x + 7.25)
        npt.assert_allclose(a, b, atol=1e-9)
        npt.assert_allclose(a.sum(), 1.0, atol=1e-6)

    def test_weights_stay_finite_at_large_scores(self):
        alpha = self._weights([[1e4, -1e4, 3.0], [-1e4, -1e4, -1e4]])
        assert np.all(np.isfinite(alpha))
        npt.assert_allclose(alpha, [[1.0, 0.0, 0.0], [1 / 3] * 3], atol=1e-12)

    @pytest.mark.parametrize("lengths", [[0, 2], [1, 3], [1]])
    def test_lengths_outside_the_states_are_refused(self, lengths):
        rng = np.random.default_rng(63)
        states, projected, s, u_s = self._inputs(rng, [2, 2], 2)
        with pytest.raises(ShapeError, match="bilinear_attention"):
            bilinear_attention(states, projected, np.array(lengths), s, u_s)
