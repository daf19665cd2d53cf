import math

import numpy as np
import numpy.testing as npt
import pytest

from gradcheck import gradient_check
from logcad.layers import (
    AttentionParams,
    BiLstmParams,
    CharCnnParams,
    GateParams,
    LstmParams,
    MaskNetParams,
    attention,
    bilstm_encode,
    char_cnn,
    gate,
    gate_constants,
    iattention_mask,
    join_words,
    lstm_cell,
    matrix_init,
    project_context,
)
from logcad.model import CHAR_WIDTH
from logcad.tensor import (
    GradGraph,
    ShapeError,
    Tensor,
    add,
    concat,
    fusion_gate,
    lstm_sequence,
    mul,
    reduce_sum,
    take_rows,
)
from oracles import attention_oracle, gate_oracle, lstm_cell_oracle
from oracles import sigmoid as _sigmoid


def full_gate(p, s, f):
    """``gate`` over all of ``[f; s]`` in one call, from the biases alone."""
    return gate(p, s, [f], 0, gate_constants(p, []))


def attend(p, h, s):
    """``attention`` over states ``h`` (B, T, D) that hold no padding."""
    full = np.full(h.shape[0], h.shape[1])
    return attention(p, h, s, full, project_context(p, h, full))


def soft_mask(p, h, x):
    """``iattention_mask`` over states ``h`` (B, T, D) that hold no padding."""
    return iattention_mask(p, h, x, np.full(h.shape[0], h.shape[1]))


def _zero_lstm(input_dim, hidden, forget_bias=0.0):
    p = LstmParams.create(np.random.default_rng(0), input_dim, hidden)
    p.wx.data[:] = 0.0
    p.wh.data[:] = 0.0
    p.b.data[:] = 0.0
    p.b.data[hidden:2 * hidden] = forget_bias  # the forget gate's column block
    return p


# ---------------------------------------------------------------------------
# lstm_cell


class TestLstmCell:
    def test_all_zero_params_give_zero_state(self):
        p = _zero_lstm(3, 4)
        h, c = lstm_cell(p, Tensor(np.ones((1, 3))), Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4))))
        npt.assert_allclose(h.data, 0.0)
        npt.assert_allclose(c.data, 0.0)

    def test_forget_bias_scales_cell(self):
        p = _zero_lstm(2, 1, forget_bias=1.0)
        h, c = lstm_cell(p, Tensor([[5.0, -3.0]]), Tensor([[0.0]]), Tensor([[1.0]]))
        f = _sigmoid(1.0)
        npt.assert_allclose(c.data, [[f * 1.0]], atol=1e-12)
        assert abs(f - 0.7310585786300049) < 1e-12
        npt.assert_allclose(h.data, [[0.5 * math.tanh(f)]], atol=1e-12)

    def test_random_case_matches_scalar_loop(self):
        rng = np.random.default_rng(7)
        p = LstmParams.create(rng, 4, 4)
        x = rng.normal(size=4)
        h = rng.normal(size=4)
        c = rng.normal(size=4)
        got_h, got_c = lstm_cell(p, Tensor(x[None]), Tensor(h[None]), Tensor(c[None]))
        want_h, want_c = lstm_cell_oracle(p, x, h, c)
        npt.assert_allclose(got_h.data[0], want_h, atol=1e-6)
        npt.assert_allclose(got_c.data[0], want_c, atol=1e-6)

    def test_width_mismatch_rejected(self):
        p = LstmParams.create(np.random.default_rng(0), 3, 4)
        with pytest.raises(ShapeError, match="lstm_sequence"):
            lstm_cell(p, Tensor(np.zeros((1, 5))), Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4))))

    def test_gradient_check(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(10):
            p = LstmParams.create(rng, 3, 3)
            h0 = Tensor(rng.normal(size=(1, 3)))
            c0 = Tensor(rng.normal(size=(1, 3)))
            x = Tensor(rng.normal(size=(1, 3)), requires_grad=True)

            def f(t):
                h, c = lstm_cell(p, t, h0, c0)
                return add(reduce_sum(h), reduce_sum(c))

            worst = max(worst, gradient_check(f, x))
            worst = max(worst, gradient_check(
                lambda w: reduce_sum(lstm_cell(p, x, h0, c0)[0]), p.wh))
        assert worst < 1e-3, worst


# ---------------------------------------------------------------------------
# fused LSTM parameters and the sequence kernel


def _cell_loop(p, seq):
    """(B, T, D) array -> (B, T, H) hidden states, one lstm_cell per step."""
    h = c = Tensor(np.zeros((seq.shape[0], p.wh.shape[0])))
    outs = []
    for t in range(seq.shape[1]):
        h, c = lstm_cell(p, Tensor(seq[:, t]), h, c)
        outs.append(h.data)
    return np.stack(outs, axis=1)


class TestLstmSequence:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_init_equals_per_gate_draws(self, dtype):
        # gate blocks hold the per-gate draws in the order wx_i, wh_i, wx_f, ...
        p = LstmParams.create(np.random.default_rng(11), 5, 3, dtype)
        rng = np.random.default_rng(11)
        for k in range(4):
            cols = slice(3 * k, 3 * (k + 1))
            npt.assert_array_equal(p.wx.data[:, cols], matrix_init(rng, (5, 3), dtype).data)
            npt.assert_array_equal(p.wh.data[:, cols], matrix_init(rng, (3, 3), dtype).data)
        npt.assert_array_equal(p.b.data, [0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0])
        assert p.wx.dtype == p.wh.dtype == p.b.dtype == dtype

    def test_matches_cell_loop_on_padded_batch_both_directions(self):
        rng = np.random.default_rng(12)
        p = BiLstmParams.create(rng, 3, 8, n_layers=2)
        lengths = np.array([2, 5, 4])
        x = rng.normal(size=(3, 5, 3))
        valid = np.arange(5)[None, :] < lengths[:, None]

        def reverse(seq):
            # reverse each row within its length; the padded tail stays put
            out = seq.copy()
            for r, n in enumerate(lengths):
                out[r, :n] = seq[r, n - 1::-1]
            return out

        want = x
        for fwd, bwd in p.layers:
            back = reverse(_cell_loop(bwd, reverse(want)))
            want = np.concatenate([_cell_loop(fwd, want), back], axis=2)
        got = bilstm_encode(p, Tensor(x), lengths, 0.0, None).data
        npt.assert_allclose(got[valid], want[valid], rtol=0, atol=1e-12)
        assert np.all(got[~valid] == 0.0)

    def test_shape_mismatch_rejected(self):
        x = Tensor(np.zeros((1, 2, 4)))
        wx, b, wh = Tensor(np.zeros((4, 12))), Tensor(np.zeros(12)), Tensor(np.zeros((3, 12)))
        lengths = np.array([2])
        h0 = c0 = Tensor(np.zeros((1, 3)))
        for args in ((Tensor(np.zeros((1, 2, 5))), wx, b, wh, lengths, h0, c0),
                     (x, Tensor(np.zeros((4, 8))), b, wh, lengths, h0, c0),
                     (x, wx, Tensor(np.zeros(8)), wh, lengths, h0, c0),
                     (x, wx, b, Tensor(np.zeros((3, 3))), lengths, h0, c0),
                     (x, wx, b, wh, lengths, Tensor(np.zeros((2, 3))), c0),
                     (x, wx, b, wh, lengths, h0, Tensor(np.zeros((1, 4))))):
            with pytest.raises(ShapeError, match="lstm_sequence"):
                lstm_sequence(*args)
        for bad in ([2, 2], [[2]], [2.0], np.array([2], dtype=np.uint8)):
            with pytest.raises(ShapeError, match="lstm_sequence"):
                lstm_sequence(x, wx, b, wh, np.array(bad), h0, c0)

    def test_keep_mask_shape_named(self):
        # a keep mask unlike the input is refused with its own shape, from
        # lstm_sequence and through lstm_cell
        p = LstmParams.create(np.random.default_rng(0), 4, 2)
        zero = Tensor(np.zeros((2, 2)))
        with pytest.raises(ShapeError, match=r"lstm_sequence: .*keep mask \(2, 3, 5\)"):
            lstm_sequence(Tensor(np.zeros((2, 3, 4))), p.wx, p.b, p.wh, np.array([3, 2]),
                          zero, zero, drop=(np.ones((2, 3, 5), dtype=bool), 0.5))
        with pytest.raises(ShapeError, match=r"keep mask \(2, 1, 5\)"):
            lstm_cell(p, Tensor(np.zeros((2, 4))), zero, zero,
                      drop=(np.ones((2, 5), dtype=bool), 0.5))

    @pytest.mark.parametrize("length", [0, -1, 3])
    def test_length_outside_range_rejected(self, length):
        p = LstmParams.create(np.random.default_rng(0), 4, 3)
        zero = Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeError, match="lstm_sequence"):
            lstm_sequence(Tensor(np.zeros((2, 2, 4))), p.wx, p.b, p.wh,
                          np.array([1, length]), zero, zero)

    def test_encoder_tape_ops_do_not_grow_with_length(self):
        # each layer and direction is a fixed number of ops, whatever T is
        p = BiLstmParams.create(np.random.default_rng(14), 3, 4, n_layers=2)

        def ops(steps):
            x = Tensor(np.ones((2, steps, 3)))
            with GradGraph() as g:
                bilstm_encode(p, x, np.array([steps, 1]), drop=0.5,
                              rng=np.random.default_rng(0))
            return len(g.ops)

        assert ops(3) == ops(40)


# ---------------------------------------------------------------------------
# bidirectional encoder


class TestBiLstmEncode:
    def test_length_preserved(self):
        p = BiLstmParams.create(np.random.default_rng(0), 3, 4, n_layers=2)
        out = bilstm_encode(p, Tensor(np.random.default_rng(1).normal(size=(1, 1, 3))),
                            np.array([1]), 0.0, None)
        assert out.shape == (1, 1, 4)

    def test_reverse_swaps_direction_halves(self):
        rng = np.random.default_rng(2)
        shared = LstmParams.create(rng, 3, 2)
        p = BiLstmParams(layers=[(shared, shared)], out_width=4)
        x = rng.normal(size=(1, 5, 3))
        fwd = bilstm_encode(p, Tensor(x), np.array([5]), 0.0, None).data[0]
        rev = bilstm_encode(p, Tensor(x[:, ::-1].copy()), np.array([5]), 0.0, None).data[0]
        # state at position i of the original = swapped halves at mirrored position
        npt.assert_allclose(fwd[:, :2], rev[::-1][:, 2:], atol=1e-12)
        npt.assert_allclose(fwd[:, 2:], rev[::-1][:, :2], atol=1e-12)

    def test_zero_params_give_zero_states(self):
        p = BiLstmParams(layers=[(_zero_lstm(3, 2), _zero_lstm(3, 2))], out_width=4)
        out = bilstm_encode(p, Tensor(np.random.default_rng(3).normal(size=(2, 4, 3))),
                            np.array([4, 4]), 0.0, None)
        npt.assert_allclose(out.data, 0.0)

    def test_empty_sequence_rejected(self):
        p = BiLstmParams.create(np.random.default_rng(0), 3, 4, n_layers=1)
        with pytest.raises(ShapeError):
            bilstm_encode(p, Tensor(np.zeros((1, 0, 3))), np.array([0]), 0.0, None)

    def test_padded_batch_matches_single_entry(self):
        # valid positions of a padded entry equal the unpadded run
        rng = np.random.default_rng(4)
        p = BiLstmParams.create(rng, 3, 4, n_layers=2)
        a = rng.normal(size=(1, 2, 3))
        b = rng.normal(size=(1, 5, 3))
        single = bilstm_encode(p, Tensor(a), np.array([2]), 0.0, None).data
        padded = np.zeros((2, 5, 3))
        padded[0, :2] = a[0]
        padded[1] = b[0]
        batch = bilstm_encode(p, Tensor(padded), np.array([2, 5]), 0.0, None).data
        npt.assert_allclose(batch[0, :2], single[0], atol=1e-10)

    def test_gradient_check(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(10):
            p = BiLstmParams.create(rng, 2, 4, n_layers=2)
            x = Tensor(rng.normal(size=(1, 3, 2)), requires_grad=True)
            lengths = np.array([3])
            worst = max(worst, gradient_check(
                lambda t: reduce_sum(bilstm_encode(p, t, lengths, 0.0, None)), x))
        assert worst < 1e-3, worst


# ---------------------------------------------------------------------------
# character CNN


class TestCharCnn:
    def test_output_width_is_160(self):
        p = CharCnnParams.create(np.random.default_rng(0))
        for words in (["a"], ["sonic", "boom"], ["x" * 40]):
            assert char_cnn(p, [words]).shape == (1, 160)

    def test_words_joined_with_underscore(self):
        assert join_words(["sonic", "boom"]) == "sonic_boom"
        p = CharCnnParams.create(np.random.default_rng(1))
        two_words = char_cnn(p, [["sonic", "boom"]]).data
        one_word = char_cnn(p, [["sonic_boom"]]).data
        npt.assert_allclose(two_words, one_word)

    def test_hand_convolution(self):
        # width-2 single-channel kernel over a 2-char string; one window
        p = CharCnnParams.create(np.random.default_rng(2), char_emb=2,
                                 bank_spec=((2, 1),))
        a_id = p.alphabet.encode("a", 1)[0]
        b_id = p.alphabet.encode("b", 1)[0]
        p.emb.data[:] = 0.0
        p.emb.data[a_id] = [1.0, 2.0]
        p.emb.data[b_id] = [3.0, 4.0]
        kernel = np.array([[0.5], [-1.0], [2.0], [0.25]])
        p.banks[0] = (2, Tensor(kernel, requires_grad=True),
                      Tensor(np.array([0.1]), requires_grad=True))
        out = char_cnn(p, [["ab"]])
        # 0.5*1 - 1*2 + 2*3 + 0.25*4 + 0.1
        npt.assert_allclose(out.data, [[5.6]], atol=1e-12)
        # max over the two windows of "aab": [a,a] -> 1.1, [a,b] -> 5.6
        out = char_cnn(p, [["aab"]])
        npt.assert_allclose(out.data, [[5.6]], atol=1e-12)

    def test_trailing_padding_invariance(self):
        p = CharCnnParams.create(np.random.default_rng(3))
        alone = char_cnn(p, [["ab"]]).data
        padded = char_cnn(p, [["ab"], ["abcdefghijklmnop"]]).data
        npt.assert_allclose(padded[0], alone[0], atol=1e-12)

    def test_trailing_padding_invariance_backward(self):
        p = CharCnnParams.create(np.random.default_rng(3))
        params = [p.emb] + [t for _, kernel, bias in p.banks for t in (kernel, bias)]
        weights = Tensor(np.random.default_rng(4).normal(size=(1, CHAR_WIDTH)))

        def grads(phrases):
            for t in params:
                t.zero_grad()
            with GradGraph() as g:
                out = take_rows(char_cnn(p, phrases), slice(0, 1))
                loss = reduce_sum(mul(out, weights))
            g.backward(loss)
            return [t.grad for t in params]

        alone = grads([["ab"]])
        padded = grads([["ab"], ["abcdefghijklmnop"]])
        for a, b in zip(alone, padded):
            npt.assert_allclose(b, a, atol=1e-12)

    def test_empty_phrase_rejected(self):
        p = CharCnnParams.create(np.random.default_rng(4))
        with pytest.raises(ShapeError):
            char_cnn(p, [[]])

    def test_gradient_check(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(10):
            p = CharCnnParams.create(rng, char_emb=3, bank_spec=((2, 2), (3, 2)))
            for target in (p.emb, p.banks[0][1], p.banks[1][2]):
                worst = max(worst, gradient_check(
                    lambda t: reduce_sum(char_cnn(p, [["abc"], ["de"]])), target))
        assert worst < 1e-3, worst


# ---------------------------------------------------------------------------
# attention


class TestAttention:
    def test_singleton_context(self):
        rng = np.random.default_rng(0)
        p = AttentionParams.create(rng, 4, 3, 2)
        h = rng.normal(size=(1, 1, 4))
        d, alpha = attend(p, Tensor(h), Tensor(rng.normal(size=(1, 3))))
        npt.assert_allclose(alpha, [[1.0]])
        npt.assert_allclose(d.data[0], h[0, 0], atol=1e-12)

    def test_identical_states_average(self):
        rng = np.random.default_rng(1)
        p = AttentionParams.create(rng, 4, 3, 2)
        h = np.tile(rng.normal(size=(1, 1, 4)), (1, 5, 1))
        d, alpha = attend(p, Tensor(h), Tensor(rng.normal(size=(1, 3))))
        npt.assert_allclose(alpha, np.full((1, 5), 0.2), atol=1e-12)
        npt.assert_allclose(d.data[0], h[0, 0], atol=1e-12)

    def test_random_case_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        p = AttentionParams.create(rng, 5, 3, 4)
        h = rng.normal(size=(1, 4, 5))
        s = rng.normal(size=(1, 3))
        d, alpha = attend(p, Tensor(h), Tensor(s))
        want_d, want_alpha = attention_oracle(p, h[0], s[0])
        npt.assert_allclose(alpha[0], want_alpha, atol=1e-6)
        npt.assert_allclose(d.data[0], want_d, atol=1e-6)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(3)
        p = AttentionParams.create(rng, 4, 3, 2)
        lengths = np.array([2])
        h = Tensor(rng.normal(size=(1, 4, 4)))
        d, alpha = attention(p, h, Tensor(rng.normal(size=(1, 3))), lengths,
                             project_context(p, h, lengths))
        npt.assert_allclose(alpha.sum(), 1.0, atol=1e-6)
        npt.assert_allclose(alpha[0, 2:], 0.0, atol=1e-12)

    def test_empty_context_rejected(self):
        p = AttentionParams.create(np.random.default_rng(0), 4, 3, 2)
        with pytest.raises(ShapeError):
            attend(p, Tensor(np.zeros((1, 0, 4))), Tensor(np.zeros((1, 3))))

    def test_gradient_check(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(10):
            p = AttentionParams.create(rng, 4, 3, 2)
            h = Tensor(rng.normal(size=(1, 3, 4)))
            s = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
            worst = max(worst, gradient_check(
                lambda t: reduce_sum(attend(p, h, t)[0]), s))
            worst = max(worst, gradient_check(
                lambda t: reduce_sum(attend(p, h, s)[0]), p.u_h))
        assert worst < 1e-3, worst


# ---------------------------------------------------------------------------
# gate


class TestGate:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_init_equals_separate_draws(self, dtype):
        # w_zr is [W_z | W_r], each drawn with its own Glorot floor, then W_s
        rng = np.random.default_rng(13)
        p = GateParams.create(rng, 5, 3, dtype)
        ref = np.random.default_rng(13)
        npt.assert_array_equal(p.w_zr.data[:, :3], matrix_init(ref, (8, 3), dtype).data)
        npt.assert_array_equal(p.w_zr.data[:, 3:], matrix_init(ref, (8, 5), dtype).data)
        npt.assert_array_equal(p.w_s.data, matrix_init(ref, (8, 3), dtype).data)
        assert rng.bit_generator.state == ref.bit_generator.state
        npt.assert_array_equal(p.b_zr.data, np.zeros(8))
        npt.assert_array_equal(p.b_s.data, np.zeros(3))
        assert p.w_zr.dtype == p.b_zr.dtype == p.w_s.dtype == p.b_s.dtype == dtype

    def test_zero_params_halve_state(self):
        p = GateParams.create(np.random.default_rng(0), 3, 2)
        for t in (p.w_zr, p.b_zr, p.w_s, p.b_s):
            t.data[:] = 0.0
        s = np.array([[1.0, -4.0]])
        out = full_gate(p, Tensor(s), Tensor(np.ones((1, 3))))
        npt.assert_allclose(out.data, 0.5 * s, atol=1e-12)

    def test_interpolation_property(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = GateParams.create(rng, 4, 3)
            s = rng.normal(size=(1, 3))
            f = rng.normal(size=(1, 4))
            out = full_gate(p, Tensor(s), Tensor(f)).data
            fs = np.concatenate([f, s], axis=1)
            r = 1 / (1 + np.exp(-(fs @ p.w_zr.data[:, 3:] + p.b_zr.data[3:])))
            cand = np.tanh(np.concatenate([r * f, s], axis=1) @ p.w_s.data + p.b_s.data)
            lo = np.minimum(s, cand)
            hi = np.maximum(s, cand)
            assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)

    def test_random_case_matches_scalar_loop(self):
        rng = np.random.default_rng(2)
        p = GateParams.create(rng, 5, 3)
        s = rng.normal(size=3)
        f = rng.normal(size=5)
        out = full_gate(p, Tensor(s[None]), Tensor(f[None]))
        npt.assert_allclose(out.data[0], gate_oracle(p, s, f), atol=1e-6)

    def test_approaches_identity_as_update_gate_closes(self):
        rng = np.random.default_rng(4)
        p = GateParams.create(rng, 4, 3)
        p.b_zr.data[:3] = -40.0  # drives z to ~0
        s = rng.normal(size=(1, 3))
        out = full_gate(p, Tensor(s), Tensor(rng.normal(size=(1, 4))))
        npt.assert_allclose(out.data, s, atol=1e-12)

    def test_width_mismatch_rejected(self):
        p = GateParams.create(np.random.default_rng(0), 5, 3)
        with pytest.raises(ShapeError):
            full_gate(p, Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 2))))

    def test_gradient_check(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(10):
            p = GateParams.create(rng, 4, 3)
            f = Tensor(rng.normal(size=(1, 4)))
            s = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
            worst = max(worst, gradient_check(lambda t: reduce_sum(full_gate(p, t, f)), s))
            worst = max(worst, gradient_check(lambda t: reduce_sum(full_gate(p, s, f)), p.w_s))
        assert worst < 1e-3, worst


# ---------------------------------------------------------------------------
# I-Attention mask


class TestGateConstants:
    """The gate with its constant feature blocks hoisted into
    ``gate_constants``, over two steps that share them, against
    ``fusion_gate`` over the full ``[f; s]`` at each step."""

    # per variant: the feature blocks in row order and which one changes at
    # each step (d_t); the rest are constant, x_trg and c_trg
    SHAPES = {"global": ((3, 2), None), "local": ((4, 2), 0), "log-cad": ((3, 4, 2), 1)}

    def _run(self, variant, hoisted, rng):
        widths, var = self.SHAPES[variant]
        rows, state = 4, 3
        p = GateParams.create(rng, sum(widths), state)
        consts = [Tensor(rng.normal(size=(rows, w)), requires_grad=True) for w in widths]
        steps = [Tensor(rng.normal(size=(rows, widths[var])), requires_grad=True)
                 for _ in range(2)] if var is not None else []
        s0 = Tensor(rng.normal(size=(rows, state)), requires_grad=True)
        weights = [Tensor(rng.normal(size=(rows, state))) for _ in range(2)]
        starts = np.cumsum((0,) + widths[:-1])
        with GradGraph() as g:
            pre = gate_constants(p, [(int(at), t) for k, (at, t) in enumerate(zip(starts, consts))
                                     if k != var])
            s, loss = s0, None
            for t in range(2):
                feats = list(consts)
                if var is not None:
                    feats[var] = steps[t]
                if hoisted:
                    s = gate(p, s, feats, var, pre)
                else:
                    s = fusion_gate(s, [concat(feats, axis=1)], 0, p.b_zr, p.w_zr, p.w_s, p.b_s)
                term = reduce_sum(mul(s, weights[t]))
                loss = term if loss is None else add(loss, term)
        g.backward(loss)
        tensors = [s0] + [c for k, c in enumerate(consts) if k != var] + steps + \
            [p.w_zr, p.b_zr, p.w_s, p.b_s]
        return s.data, [t.grad for t in tensors]

    @pytest.mark.parametrize("variant", list(SHAPES))
    def test_equals_the_full_gate(self, variant):
        out, grads = self._run(variant, True, np.random.default_rng(8))
        want_out, want_grads = self._run(variant, False, np.random.default_rng(8))
        npt.assert_allclose(out, want_out, rtol=0, atol=1e-12)
        assert len(grads) == len(want_grads)
        for got, want in zip(grads, want_grads):
            npt.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", ["global", "log-cad"])
    def test_gradient_check_through_the_constants(self, variant):
        # a constant feature block reaches the loss through gate_constants
        # and through each step's reset gate
        rng = np.random.default_rng(9)
        widths, var = self.SHAPES[variant]
        worst = 0.0
        for _ in range(10):
            p = GateParams.create(rng, sum(widths), 3)
            feats = [Tensor(rng.normal(size=(2, w))) for w in widths]
            s0 = Tensor(rng.normal(size=(2, 3)))
            c_trg = Tensor(feats[-1].data.copy(), requires_grad=True)
            at = sum(widths[:-1])

            def f(c):
                blocks = [(0, feats[0])] if var != 0 else []
                pre = gate_constants(p, blocks + [(at, c)])
                s = gate(p, s0, feats[:-1] + [c], var, pre)
                return reduce_sum(gate(p, s, feats[:-1] + [c], var, pre))
            worst = max(worst, gradient_check(f, c_trg))
        assert worst < 1e-3, worst


class TestIAttentionMask:
    def test_zero_embedding_stays_zero(self):
        rng = np.random.default_rng(0)
        p = MaskNetParams.create(rng, 4, 3, 2)
        out = soft_mask(p, Tensor(rng.normal(size=(1, 3, 4))), Tensor(np.zeros((1, 2))))
        npt.assert_allclose(out.data, 0.0)

    def test_zero_params_halve_embedding(self):
        p = MaskNetParams.create(np.random.default_rng(1), 4, 3, 2)
        for t in (p.w_ff, p.b_ff, p.w_m, p.b_m):
            t.data[:] = 0.0
        x = np.array([[2.0, -6.0]])
        out = soft_mask(p, Tensor(np.random.default_rng(2).normal(size=(1, 3, 4))), Tensor(x))
        npt.assert_allclose(out.data, 0.5 * x, atol=1e-12)

    def test_mask_shrinks_coordinates(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = MaskNetParams.create(rng, 4, 3, 5)
            x = rng.normal(size=(1, 5))
            out = soft_mask(p, Tensor(rng.normal(size=(1, 6, 4))), Tensor(x)).data
            assert np.all(np.abs(out) <= np.abs(x))

    def test_empty_context_rejected(self):
        p = MaskNetParams.create(np.random.default_rng(0), 4, 3, 2)
        with pytest.raises(ShapeError):
            soft_mask(p, Tensor(np.zeros((1, 0, 4))), Tensor(np.zeros((1, 2))))

    def test_masked_mean_ignores_padding(self):
        rng = np.random.default_rng(4)
        p = MaskNetParams.create(rng, 4, 3, 2)
        h = rng.normal(size=(1, 2, 4))
        x = Tensor(rng.normal(size=(1, 2)))
        plain = soft_mask(p, Tensor(h), x).data
        padded = np.concatenate([h, rng.normal(size=(1, 3, 4))], axis=1)
        masked = iattention_mask(p, Tensor(padded), x, lengths=np.array([2])).data
        npt.assert_allclose(masked, plain, atol=1e-12)

    def test_gradient_check(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(10):
            p = MaskNetParams.create(rng, 4, 3, 2)
            h = Tensor(rng.normal(size=(1, 3, 4)))
            x = Tensor(rng.normal(size=(1, 2)), requires_grad=True)
            worst = max(worst, gradient_check(
                lambda t: reduce_sum(soft_mask(p, h, t)), x))
            worst = max(worst, gradient_check(
                lambda t: reduce_sum(soft_mask(p, h, x)), p.w_ff))
        assert worst < 1e-3, worst
