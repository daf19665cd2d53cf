import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from corpora import overfit_corpus
from logcad.data import Entry, build_vocab
from logcad.model import VARIANTS, DescriptionModel, ModelConfig
from logcad.tensor import GradGraph, Tensor, reduce_sum, mul
from logcad.train import BLOCK, Adam, TrainSettings, clip_gradients, token_accuracy, train

SMALL = dict(enc_width=16, dec_width=16, attn_width=16, word_emb_width=16, dropout=0.0)


def small_model(entries, variant="log-cad", seed=0):
    vocab = build_vocab(entries, 10000)
    cfg = ModelConfig(variant=variant, **SMALL)
    return DescriptionModel(cfg, vocab, None, seed=seed)


class TestAdam:
    def test_minimizes_quadratic(self):
        x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam([x], lr=0.1)
        for _ in range(300):
            x.zero_grad()
            with GradGraph() as g:
                loss = reduce_sum(mul(x, x))
            g.backward(loss)
            opt.step()
        npt.assert_allclose(x.data, 0.0, atol=1e-3)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocked_update_equals_out_of_place_formula(self, dtype):
        # the out-of-place update, kept here as the reference
        def reference(w, m, v, g, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * (g * g)
            m_hat = m / (1.0 - beta1 ** step)
            v_hat = v / (1.0 - beta2 ** step)
            return w - (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(w.dtype), m, v

        rng = np.random.default_rng(12)
        shapes = [(7, BLOCK // 3), (1,)]  # over two blocks and not a multiple; one element
        assert math.prod(shapes[0]) > BLOCK and math.prod(shapes[0]) % BLOCK
        # the weights are views of one buffer, as load_params_into adopts them
        sizes = [math.prod(s) for s in shapes]
        buf = rng.normal(size=sum(sizes)).astype(dtype)
        tensors = [Tensor(buf[:sizes[0]].reshape(shapes[0]), requires_grad=True),
                   Tensor(buf[sizes[0]:].reshape(shapes[1]), requires_grad=True)]
        arrays = [t.data for t in tensors]
        state = [(t.data.copy(), np.zeros(t.shape, dtype), np.zeros(t.shape, dtype))
                 for t in tensors]
        opt = Adam(tensors, lr=1e-2)
        for step in range(1, 5):
            for k, t in enumerate(tensors):
                t.grad = (rng.normal(size=t.shape) * 10.0 ** rng.integers(-6, 2)).astype(dtype)
                t.grad[rng.random(t.shape) < 0.1] = 0.0
                state[k] = reference(*state[k], t.grad, step, lr=1e-2)
            opt.step()
            for t, array, (w, _m, _v) in zip(tensors, arrays, state):
                assert t.data is array
                assert w.dtype == dtype
                npt.assert_array_equal(t.data, w)
        npt.assert_array_equal(buf, np.concatenate([w.reshape(-1) for w, _m, _v in state]))

    def test_weights_that_cannot_be_updated_in_place_rejected(self):
        w = Tensor(np.zeros((3, 4)).T, requires_grad=True)
        with pytest.raises(ValueError, match=r"shape \(4, 3\) are not C-contiguous"):
            Adam([w], lr=1e-3)


class TestClip:
    def test_large_gradient_scaled_to_norm(self):
        t = Tensor(np.zeros(4), requires_grad=True)
        t.grad = np.full(4, 10.0)
        pre = clip_gradients([t], 5.0)
        assert pre == pytest.approx(20.0)
        assert np.linalg.norm(t.grad) == pytest.approx(5.0)

    def test_small_gradient_untouched(self):
        t = Tensor(np.zeros(4), requires_grad=True)
        t.grad = np.full(4, 0.1)
        clip_gradients([t], 5.0)
        npt.assert_allclose(t.grad, 0.1)

    def test_global_norm_across_tensors(self):
        a = Tensor(np.zeros(1), requires_grad=True)
        b = Tensor(np.zeros(1), requires_grad=True)
        a.grad = np.array([3.0])
        b.grad = np.array([4.0])
        assert clip_gradients([a, b], 100.0) == pytest.approx(5.0)


class TestTrainLoop:
    def test_loss_decreases(self):
        entries = overfit_corpus()
        model = small_model(entries)
        result = train(model, entries, None, TrainSettings(epochs=25, batch_size=8),
                       start_epoch=0, verbose=False)
        assert result.rows[-1].train_loss < result.rows[0].train_loss

    def test_epoch_counter_continues_on_resume(self):
        entries = overfit_corpus()
        model = small_model(entries)
        r1 = train(model, entries, None, TrainSettings(epochs=2, batch_size=16),
                   start_epoch=0, verbose=False)
        assert [row.epoch for row in r1.rows] == [1, 2]
        r2 = train(model, entries, None, TrainSettings(epochs=2, batch_size=16),
                   start_epoch=2, verbose=False)
        assert [row.epoch for row in r2.rows] == [3, 4]

    def test_early_stopping_restores_best(self):
        entries = overfit_corpus()
        # validation descriptions use tokens absent from the training vocab,
        # so validation loss worsens while training loss keeps improving
        valid = [Entry(["odd", "pair"], ["a", "[TRG]", "thing"], (1, 1),
                       ["zzz", "qqq", "xxx"]) for _ in range(4)]
        model = small_model(entries)
        settings = TrainSettings(epochs=60, batch_size=8, patience=3)
        result = train(model, entries, valid, settings, start_epoch=0, verbose=False)
        assert result.epochs_run < 60
        from logcad.train import _teacher_forced
        assert _teacher_forced(model, valid, 8)[0] == pytest.approx(result.best_valid,
                                                                    abs=1e-6)

    def test_patience_zero_keeps_the_last_epoch(self):
        # the validation loss (see above) is lowest at epoch 7 and rises at
        # epoch 8; with early stopping off the weights are the last epoch's,
        # as in a run without validation entries
        entries = overfit_corpus()
        valid = [Entry(["odd", "pair"], ["a", "[TRG]", "thing"], (1, 1),
                       ["zzz", "qqq", "xxx"]) for _ in range(4)]
        settings = TrainSettings(epochs=8, batch_size=8, patience=0)
        with_valid, without = small_model(entries), small_model(entries)
        result = train(with_valid, entries, valid, settings, start_epoch=0, verbose=False)
        train(without, entries, None, settings, start_epoch=0, verbose=False)
        assert result.epochs_run == 8
        assert result.rows[-1].valid_loss > result.best_valid
        for a, b in zip(with_valid.params.tensors(), without.params.tensors()):
            npt.assert_array_equal(a.data, b.data)

    def test_log_format(self):
        entries = overfit_corpus()
        model = small_model(entries)
        result = train(model, entries, None, TrainSettings(epochs=2, batch_size=16),
                       start_epoch=0, verbose=False)
        lines = result.log_text().splitlines()
        assert lines[0] == "epoch\ttrain_loss\tvalid_loss"
        assert lines[1].startswith("1\t")
        assert len(lines) == 3

    def test_identical_seed_and_config_identical_result(self):
        entries = overfit_corpus()
        finals = []
        for _ in range(2):
            model = small_model(entries, seed=5)
            result = train(model, entries, None,
                           TrainSettings(epochs=4, batch_size=8),
                           start_epoch=0, verbose=False)
            finals.append((result.final_train,
                           [t.data.copy() for t in model.params.tensors()]))
        assert finals[0][0] == finals[1][0]
        for a, b in zip(finals[0][1], finals[1][1]):
            npt.assert_array_equal(a, b)

    def test_token_accuracy_range(self):
        entries = overfit_corpus()
        model = small_model(entries)
        acc = token_accuracy(model, entries)
        assert 0.0 <= acc <= 1.0

    def test_empty_training_set_rejected(self):
        model = small_model(overfit_corpus())
        with pytest.raises(ValueError):
            train(model, [], None, TrainSettings(epochs=1), start_epoch=0, verbose=False)


class TestNonFiniteGuard:
    def test_nan_weight_stops_before_the_update(self):
        entries = overfit_corpus()
        model = small_model(entries)
        model.params.decoder[0].wh.data[0, 0] = np.nan
        before = [t.data.copy() for t in model.params.tensors()]
        with pytest.raises(ValueError, match=r"epoch 1, batch 1: loss nan, gradient norm nan; "
                                             r"first non-finite gradient in group word_emb"):
            train(model, entries, None, TrainSettings(epochs=2, batch_size=8),
                  start_epoch=0, verbose=False)
        for t, b in zip(model.params.tensors(), before):
            npt.assert_array_equal(t.data, b)

    def test_inf_gradient_stops_before_the_update_without_a_warning(self, monkeypatch):
        entries = overfit_corpus()
        model = small_model(entries)
        wh = model.params.decoder[0].wh

        class InfGradGraph(GradGraph):
            def backward(self, loss):
                super().backward(loss)
                wh.grad[0, 0] = np.inf

        monkeypatch.setattr("logcad.train.GradGraph", InfGradGraph)
        before = [t.data.copy() for t in model.params.tensors()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"epoch 1, batch 1: loss [0-9.]+, gradient "
                                                 r"norm inf; first non-finite gradient in "
                                                 r"group decoder \(decoder\.l0\.wh\)"):
                train(model, entries, None, TrainSettings(epochs=2, batch_size=8),
                      start_epoch=0, verbose=False)
        for t, b in zip(model.params.tensors(), before):
            npt.assert_array_equal(t.data, b)


class TestFloat32TracksFloat64:
    """Float32 training follows the float64 maths over many updates: from
    the same initial weights, with dropout, every Adam step's loss agrees."""

    STEPS = 20
    # the float32 losses of these runs differ from float64's by at most
    # 2e-7 relative; a float32 step that loses precision shows far above this
    RTOL = 1e-5

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_per_step_losses_agree(self, variant):
        entries = overfit_corpus()
        vocab = build_vocab(entries, 10000)
        cfg = ModelConfig(variant=variant, **dict(SMALL, dropout=0.5))
        m32 = DescriptionModel(cfg, vocab, None, seed=5)
        m64 = DescriptionModel(cfg, vocab, None, seed=5, dtype=np.float64)
        for t32, t64 in zip(m32.params.tensors(), m64.params.tensors()):
            t64.data[...] = t32.data  # exact
        # one batch per epoch: each row's loss is one step's, before its update
        settings = TrainSettings(epochs=self.STEPS, batch_size=len(entries), lr=1e-2)
        losses = [np.array([row.train_loss for row in
                            train(m, entries, None, settings, start_epoch=0, verbose=False).rows])
                  for m in (m32, m64)]
        assert losses[1][-1] < 0.8 * losses[1][0]  # the steps trained the model
        npt.assert_allclose(losses[0], losses[1], rtol=self.RTOL)
