import numpy as np
import numpy.testing as npt
import pytest

from corpora import overfit_corpus
from logcad.data import Entry, build_vocab
from logcad.model import DescriptionModel, ModelConfig
from logcad.tensor import GradGraph, Tensor, reduce_sum, mul
from logcad.train import Adam, TrainSettings, clip_gradients, token_accuracy, train

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
        result = train(model, entries, None, TrainSettings(epochs=25, batch_size=8, seed=0))
        assert result.rows[-1].train_loss < result.rows[0].train_loss

    def test_epoch_counter_continues_on_resume(self):
        entries = overfit_corpus()
        model = small_model(entries)
        r1 = train(model, entries, None, TrainSettings(epochs=2, batch_size=16, seed=0))
        assert [row.epoch for row in r1.rows] == [1, 2]
        r2 = train(model, entries, None, TrainSettings(epochs=2, batch_size=16, seed=0),
                   start_epoch=2)
        assert [row.epoch for row in r2.rows] == [3, 4]

    def test_early_stopping_restores_best(self):
        entries = overfit_corpus()
        # validation descriptions use tokens absent from the training vocab,
        # so validation loss worsens while training loss keeps improving
        valid = [Entry(["odd", "pair"], ["a", "[TRG]", "thing"], (1, 1),
                       ["zzz", "qqq", "xxx"]) for _ in range(4)]
        model = small_model(entries)
        settings = TrainSettings(epochs=60, batch_size=8, seed=0, patience=3)
        result = train(model, entries, valid, settings)
        assert result.stopped_early
        assert result.epochs_run < 60
        from logcad.train import _dataset_loss
        assert _dataset_loss(model, valid, 8) == pytest.approx(result.best_valid, abs=1e-6)

    def test_log_format(self):
        entries = overfit_corpus()
        model = small_model(entries)
        result = train(model, entries, None, TrainSettings(epochs=2, batch_size=16, seed=0))
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
                           TrainSettings(epochs=4, batch_size=8, seed=5))
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
            train(model, [], None, TrainSettings(epochs=1))
