import io
import math
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logcad.layers
import logcad.model
from gradcheck import gradient_check
from logcad.data import EmbeddingTable, Entry, Vocab, make_batch
from logcad.decode import greedy_decode
from logcad.layers import (
    INIT_SCALE,
    AttentionParams,
    BiLstmParams,
    CharCnnParams,
    GateParams,
    LstmParams,
    MaskNetParams,
    attention,
    gate,
    gate_constants,
    lstm_cell,
    matrix_init,
)
from logcad.model import (
    CHAR_WIDTH,
    VARIANTS,
    DescriptionModel,
    ModelConfig,
    ModelParams,
    load_checkpoint,
    load_model,
    load_params_into,
    phrase_embedding,
    save_checkpoint,
)
from logcad.tensor import (
    GradGraph,
    Tensor,
    concat,
    dropout_keep,
    linear_nll,
    mul,
    reshape,
    take_rows,
)

TINY = dict(enc_layers=2, enc_width=6, attn_width=3, word_emb_width=4,
            dec_layers=2, dec_width=5, vocab_size=64, dropout=0.5)


def tiny_config(variant):
    return ModelConfig(variant=variant, **TINY)


def toy_vocab(extra=("red", "fish", "blue", "dog")):
    return Vocab(list(Vocab.SPECIALS) + list(extra))


def toy_entry(desc=("red", "fish")):
    return Entry(["sonic", "boom"], ["the", "[TRG]", "was", "loud"], (1, 1), list(desc))


def padded_entries():
    # contexts, phrases and descriptions of different lengths force padding
    return [
        toy_entry(desc=("red",)),
        Entry(["dog"], ["a", "[TRG]", "barked", "at", "him", "twice"], (1, 1),
              ["blue", "fish", "dog"]),
        Entry(["x"], ["[TRG]"], (0, 0), ["fish", "fish", "red", "blue", "dog"]),
    ]


def toy_table(width=4, tokens=("sonic", "boom"), seed=3):
    rng = np.random.default_rng(seed)
    return EmbeddingTable({t: rng.normal(size=width) for t in tokens}, width)


# ---------------------------------------------------------------------------
# independent numpy reference pipeline (never touches logcad.tensor ops)


def np_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def np_lstm_step(p, x, h, c):
    z = x @ p.wx.data + h @ p.wh.data + p.b.data
    pre = dict(zip("ifgo", np.split(z, 4, axis=-1)))
    c2 = np_sigmoid(pre["f"]) * c + np_sigmoid(pre["i"]) * np.tanh(pre["g"])
    return np_sigmoid(pre["o"]) * np.tanh(c2), c2


def np_bilstm(enc, embs):
    seq = embs  # (T, E), single unpadded sequence
    for fwd, bwd in enc.layers:
        t_len = seq.shape[0]
        h = np.zeros(fwd.wh.shape[0])
        c = np.zeros(fwd.wh.shape[0])
        outs_f = []
        for t in range(t_len):
            h, c = np_lstm_step(fwd, seq[t], h, c)
            outs_f.append(h)
        h = np.zeros(bwd.wh.shape[0])
        c = np.zeros(bwd.wh.shape[0])
        outs_b = [None] * t_len
        for t in reversed(range(t_len)):
            h, c = np_lstm_step(bwd, seq[t], h, c)
            outs_b[t] = h
        seq = np.stack([np.concatenate([f, b]) for f, b in zip(outs_f, outs_b)])
    return seq


def np_char(p, words):
    text = "_".join(words)
    max_w = max(w for w, _, _ in p.banks)
    width = max(len(text), max_w)
    ids = p.alphabet.encode(text, width)
    embs = p.emb.data[ids]
    outs = []
    for w, kernel, bias in p.banks:
        vals = []
        for t in range(max(len(text) - w + 1, 1)):
            window = embs[t : t + w].reshape(-1)
            vals.append(window @ kernel.data + bias.data)
        outs.append(np.max(np.stack(vals), axis=0))
    return np.concatenate(outs)


def np_attention(p, states, s):
    ph = states @ p.u_h.data        # (T, A)
    q = s @ p.u_s.data              # (A,)
    scores = ph @ q
    e = np.exp(scores - scores.max())
    alpha = e / e.sum()
    return alpha @ states


def np_gate(p, s, f):
    fs = np.concatenate([f, s])
    zr = np_sigmoid(fs @ p.w_zr.data + p.b_zr.data)
    z, r = zr[:s.size], zr[s.size:]
    cand = np.tanh(np.concatenate([r * f, s]) @ p.w_s.data + p.b_s.data)
    return (1.0 - z) * s + z * cand


def np_log_softmax(x):
    shifted = x - x.max()
    return shifted - np.log(np.exp(shifted).sum())


def np_gated_steps(model, entry, prev_tokens):
    """Reference forward pass for gated variants; returns per-step log-probs."""
    cfg = model.config
    p = model.params
    ctx_ids = np.array(model.vocab.encode(entry.context), dtype=np.intp)
    enc = np_bilstm(p.encoder, p.word_emb.data[ctx_ids]) if cfg.uses_encoder else None
    x_trg = (phrase_embedding(entry.phrase, model.vectors, model.unk)
             if cfg.uses_global_embedding else None)
    c_trg = np_char(p.char, entry.phrase) if cfg.uses_gate else None

    layer_states = [(np.zeros(cfg.dec_width), np.zeros(cfg.dec_width))
                    for _ in range(cfg.dec_layers)]
    s_prime = np.zeros(cfg.dec_width)
    all_logp = []
    for step, prev in enumerate([None] + list(prev_tokens)):
        if step == 0:
            x = x_trg if cfg.uses_global_embedding else np.zeros(cfg.word_emb_width)
        else:
            x = p.word_emb.data[model.vocab.index[prev]]
        new_states = []
        for k, lp in enumerate(p.decoder):
            h, c = layer_states[k]
            if k == cfg.dec_layers - 1 and cfg.uses_gate:
                h = s_prime
            h, c = np_lstm_step(lp, x, h, c)
            new_states.append((h, c))
            x = h
        layer_states = new_states
        s_t = x
        feats = []
        if cfg.uses_global_embedding:
            feats.append(x_trg)
        if cfg.uses_attention:
            feats.append(np_attention(p.attn, enc, s_t))
        feats.append(c_trg)
        s_prime = np_gate(p.gate, s_t, np.concatenate(feats))
        logits = s_prime @ p.out_w.data + p.out_b.data
        all_logp.append(np_log_softmax(logits))
    return all_logp


# ---------------------------------------------------------------------------


class TestPhraseEmbedding:
    UNK = np.array([0.5, -0.25, 0.125, 1.0])

    def test_sum_of_vectors(self):
        table = toy_table()
        want = table.vectors["sonic"] + table.vectors["boom"]
        npt.assert_allclose(phrase_embedding(["sonic", "boom"], table.vectors, self.UNK), want)

    def test_singleton(self):
        table = toy_table()
        npt.assert_allclose(phrase_embedding(["sonic"], table.vectors, self.UNK),
                            table.vectors["sonic"])

    def test_out_of_table_words_share_unk(self):
        npt.assert_allclose(phrase_embedding(["zig", "zag"], toy_table().vectors, self.UNK),
                            2 * self.UNK)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            phrase_embedding([], toy_table().vectors, self.UNK)

    @pytest.mark.parametrize("table", [None, toy_table()], ids=["no table", "table"])
    def test_model_unk_is_drawn_from_its_seed(self, table):
        # the UNK vector is the model's, whatever table it reads: a phrase of
        # words missing from the table sums it once per word
        model = DescriptionModel(tiny_config("global"), toy_vocab(), table, seed=7)
        want = np.random.default_rng(7).uniform(-0.08, 0.08, TINY["word_emb_width"])
        npt.assert_array_equal(model.unk, want)
        entry = Entry(["zig", "zag"], ["a", "[TRG]"], (1, 1), ["red"])
        npt.assert_array_equal(model.start_session([entry]).x_trg.data[0],
                               (want + want).astype(np.float32))

    def test_unk_is_shared_and_deterministic(self):
        def embed(word, seed):
            model = DescriptionModel(tiny_config("log-cad"), toy_vocab(), toy_table(), seed=seed)
            return phrase_embedding([word], model.vectors, model.unk)

        npt.assert_array_equal(embed("zzz", 11), embed("qqq", 11))
        npt.assert_array_equal(embed("zzz", 11), embed("zzz", 11))
        assert not np.array_equal(embed("zzz", 11), embed("zzz", 12))


class TestConfig:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            ModelConfig(variant="huge")

    def test_odd_encoder_width_rejected(self):
        with pytest.raises(ValueError, match="even"):
            ModelConfig(enc_width=601)

    @pytest.mark.parametrize("key", ["enc_layers", "dec_width", "word_emb_width", "vocab_size"])
    def test_non_positive_dimension_rejected(self, key):
        with pytest.raises(ValueError, match=f"{key} must be at least 1"):
            ModelConfig(**{key: 0})

    def test_meta_round_trip(self):
        cfg = tiny_config("i-attention")
        assert ModelConfig.from_meta(cfg.to_meta()) == cfg

    def test_meta_extra_keys_ignored(self):
        # seed/epoch, and the char widths that older checkpoints carry
        cfg = tiny_config("log-cad")
        meta = {**cfg.to_meta(), "seed": "3", "epoch": "2",
                "char_out_width": "160", "char_emb_width": "16"}
        assert ModelConfig.from_meta(meta) == cfg

    @pytest.mark.parametrize("key,value", [("variant", None), ("dec_width", None),
                                           ("enc_layers", "two"), ("dropout", "half")])
    def test_meta_missing_or_non_numeric_key_named(self, key, value):
        meta = tiny_config("log-cad").to_meta()
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        with pytest.raises(ValueError, match=key):
            ModelConfig.from_meta(meta)

    def test_vocab_above_cap_rejected(self):
        cfg = ModelConfig(variant="global", vocab_size=6)
        with pytest.raises(ValueError, match="cap"):
            DescriptionModel(cfg, toy_vocab(), toy_table(300))


class TestDecodeStep:
    @pytest.mark.parametrize("variant", ["global", "local", "i-attention", "log-cad"])
    def test_logits_width_is_vocab_size(self, variant):
        vocab = toy_vocab()
        model = DescriptionModel(tiny_config(variant), vocab, toy_table(), seed=1,
                                 dtype=np.float64)
        session = model.start_session([toy_entry()])
        logp, session = model.step(session, None)
        assert logp.shape == (1, len(vocab))
        logp, _ = model.step(session, [vocab.index["red"]])
        assert logp.shape == (1, len(vocab))

    def test_global_ignores_context(self):
        model = DescriptionModel(tiny_config("global"), toy_vocab(), toy_table(),
                                 seed=2, dtype=np.float64)
        e1 = Entry(["sonic", "boom"], ["a", "[TRG]", "happened"], (1, 1), ["red"])
        e2 = Entry(["sonic", "boom"], ["totally", "different", "words", "[TRG]", "here", "now"],
                   (3, 3), ["red"])
        s1 = model.start_session([e1])
        s2 = model.start_session([e2])
        prev = None
        for _ in range(3):
            l1, s1 = model.step(s1, prev)
            l2, s2 = model.step(s2, prev)
            npt.assert_array_equal(l1, l2)
            prev = [int(np.argmax(l1[0]))]

    @pytest.mark.parametrize("variant", ["global", "local", "log-cad"])
    def test_gated_steps_match_numpy_reference(self, variant):
        model = DescriptionModel(tiny_config(variant), toy_vocab(), toy_table(),
                                 seed=4, dtype=np.float64)
        entry = toy_entry()
        want = np_gated_steps(model, entry, ["red", "fish"])
        session = model.start_session([entry])
        got0, session = model.step(session, None)
        npt.assert_allclose(got0[0], want[0], atol=1e-5)
        got1, session = model.step(session, [model.vocab.index["red"]])
        npt.assert_allclose(got1[0], want[1], atol=1e-5)
        got2, _ = model.step(session, [model.vocab.index["fish"]])
        npt.assert_allclose(got2[0], want[2], atol=1e-5)

    def test_iattention_masks_phrase_embedding_once(self):
        model = DescriptionModel(tiny_config("i-attention"), toy_vocab(), toy_table(),
                                 seed=5, dtype=np.float64)
        entry = toy_entry()
        session = model.start_session([entry])
        # reference: mask computed from the encoded context, then constant
        p = model.params
        ctx_ids = np.array(model.vocab.encode(entry.context), dtype=np.intp)
        enc = np_bilstm(p.encoder, p.word_emb.data[ctx_ids])
        mapped = np.tanh(enc @ p.masknet.w_ff.data + p.masknet.b_ff.data)
        m = np_sigmoid(mapped.mean(axis=0) @ p.masknet.w_m.data + p.masknet.b_m.data)
        x_trg = phrase_embedding(entry.phrase, model.vectors, model.unk)
        npt.assert_allclose(session.x_masked.data[0], x_trg * m, atol=1e-8)
        assert np.all((m > 0) & (m < 1))

    def test_step_protocol_enforced(self):
        model = DescriptionModel(tiny_config("global"), toy_vocab(), toy_table(),
                                 seed=0, dtype=np.float64)
        session = model.start_session([toy_entry()])
        with pytest.raises(ValueError):
            model.step(session, [7])  # first step must pass None
        _, session = model.step(session, None)
        with pytest.raises(ValueError):
            model.step(session, None)
        with pytest.raises(ValueError, match="rows"):
            model.step(session, [7, 7])  # one previous token per row


class TestSequenceLoss:
    def test_uniform_logits_give_log_vocab(self):
        tokens = [f"w{i}" for i in range(10000 - 5)]
        vocab = Vocab(list(Vocab.SPECIALS) + tokens)
        cfg = ModelConfig(variant="global", **{**TINY, "vocab_size": 10000})
        model = DescriptionModel(cfg, vocab, toy_table(), seed=0, dtype=np.float64)
        model.params.out_w.data[:] = 0.0
        model.params.out_b.data[:] = 0.0
        batch = make_batch([toy_entry(desc=("w1", "w2"))], vocab)
        loss, _ = model.forward_loss(batch, train=False)
        assert loss.item() == pytest.approx(math.log(10000), abs=1e-9)
        assert f"{loss.item():.4f}" == "9.2103"

    def test_peaked_correct_logits_drive_loss_to_zero(self, monkeypatch):
        vocab = toy_vocab()
        model = DescriptionModel(tiny_config("global"), vocab, toy_table(),
                                 seed=1, dtype=np.float64)
        batch = make_batch([toy_entry()], vocab)
        # step t's state is the t-th unit vector, and the output head maps it
        # to a logit of 1e4 on step t's gold token and 0 elsewhere
        steps = batch.target_ids.shape[1]
        model.params.out_w.data[:] = 0.0
        model.params.out_w.data[np.arange(steps), batch.target_ids[0]] = 1e4
        model.params.out_b.data[:] = 0.0
        states = iter(np.eye(steps, TINY["dec_width"]))

        def rigged(session, x, drop=None):
            return Tensor(next(states)[None, :]), Tensor(np.zeros((1, TINY["dec_width"])))

        monkeypatch.setattr(model, "_top", rigged)
        loss, aux = model.forward_loss(batch, train=False)
        assert loss.item() < 1e-6
        assert aux["correct"] == aux["tokens"]

    def test_batch_loss_is_length_weighted_mean(self):
        vocab = toy_vocab()
        model = DescriptionModel(tiny_config("log-cad"), vocab, toy_table(),
                                 seed=2, dtype=np.float64)
        e1 = toy_entry(desc=("red",))
        e2 = Entry(["dog"], ["a", "[TRG]", "barked", "at", "him"], (1, 1),
                   ["blue", "fish", "dog"])
        l1, a1 = model.forward_loss(make_batch([e1], vocab), train=False)
        l2, a2 = model.forward_loss(make_batch([e2], vocab), train=False)
        l12, _ = model.forward_loss(make_batch([e1, e2], vocab), train=False)
        n1, n2 = a1["tokens"], a2["tokens"]
        want = (l1.item() * n1 + l2.item() * n2) / (n1 + n2)
        assert l12.item() == pytest.approx(want, abs=1e-9)

    def test_permutation_invariance(self):
        vocab = toy_vocab()
        model = DescriptionModel(tiny_config("log-cad"), vocab, toy_table(),
                                 seed=3, dtype=np.float64)
        e1 = toy_entry(desc=("red",))
        e2 = Entry(["dog"], ["a", "[TRG]", "barked"], (1, 1), ["blue", "fish"])
        a, _ = model.forward_loss(make_batch([e1, e2], vocab), train=False)
        b, _ = model.forward_loss(make_batch([e2, e1], vocab), train=False)
        assert a.item() == pytest.approx(b.item(), abs=1e-9)

    def test_loss_wrapper_and_empty_batch(self):
        vocab = toy_vocab()
        model = DescriptionModel(tiny_config("global"), vocab, toy_table(),
                                 seed=0, dtype=np.float64)
        with pytest.raises(ValueError):
            make_batch([], vocab)
        batch = make_batch([toy_entry()], vocab)
        loss, _ = model.forward_loss(batch, train=False)
        assert np.isfinite(loss.item())

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_batch_composition_invariance(self, variant):
        # an entry's loss does not depend on which entries share its batch
        vocab = toy_vocab()
        model = DescriptionModel(tiny_config(variant), vocab, toy_table(),
                                 seed=14, dtype=np.float64)
        entries = padded_entries()
        want = 0.0
        for e in entries:
            loss, aux = model.forward_loss(make_batch([e], vocab), train=False)
            want += loss.item() * aux["tokens"]
        batch = make_batch(entries, vocab)
        loss, aux = model.forward_loss(batch, train=False)
        assert loss.item() * aux["tokens"] == pytest.approx(want, abs=1e-12)

        # decoding the three entries as one session gives each row the
        # log-probabilities of decoding its entry alone
        session = model.start_session(entries)
        singles = [model.start_session([e]) for e in entries]
        for t in range(4):
            prev_ids = batch.target_ids[:, t - 1]
            got, session = model.step(session, prev_ids if t else None)
            for i, single in enumerate(singles):
                want_row, singles[i] = model.step(single, [int(prev_ids[i])] if t else None)
                npt.assert_allclose(got[i], want_row[0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_entry_gradients_do_not_depend_on_the_batch(self, variant):
        # without dropout, an entry's parameter gradients are those it gets
        # alone: the token-weighted sum of the per-entry gradients equals the
        # batch gradient times the batch's token count
        vocab = toy_vocab()
        model = DescriptionModel(tiny_config(variant), vocab, toy_table(),
                                 seed=15, dtype=np.float64)

        def grads(entries):
            with GradGraph() as g:
                loss, aux = model.forward_loss(make_batch(entries, vocab), train=False)
            g.backward(loss)
            got = {name: t.grad * aux["tokens"] for name, t in model.params.named()}
            for t in model.params.tensors():
                t.grad = None
            return got

        entries = padded_entries()
        want = grads(entries)
        singles = [grads([e]) for e in entries]
        for name in want:
            npt.assert_allclose(sum(single[name] for single in singles), want[name],
                                rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_training_pass_does_not_depend_on_the_row_order(self, variant):
        # with dropout, a batch whose description lengths all differ gives the
        # loss and gradients of any permutation of its rows, bit for bit: the
        # rows are sorted before any mask is drawn or any sum is taken
        vocab = toy_vocab()
        entries = padded_entries()
        assert len(set(len(e.description) for e in entries)) == len(entries)

        def run(entries):
            model = DescriptionModel(tiny_config(variant), vocab, toy_table(), seed=22)
            with GradGraph() as g:
                loss, _ = model.forward_loss(make_batch(entries, vocab), train=True)
            g.backward(loss)
            return loss.item(), {name: t.grad for name, t in model.params.named()}

        want_loss, want = run(entries)
        for perm in ((2, 0, 1), (1, 2, 0)):
            got_loss, got = run([entries[i] for i in perm])
            assert got_loss == want_loss, perm
            for name in want:
                npt.assert_array_equal(got[name], want[name], err_msg=f"{name}, {perm}")

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_loss_matches_reference(self, variant):
        # the output head scores the stacked steps of a padded batch: the
        # loss is the negative mean of the gold-token log-probabilities that
        # ``step`` gives when fed the gold previous words, which pins the row
        # order and the real positions, for 1 to 3 decoder layers
        vocab = toy_vocab()
        entries = padded_entries()
        batch = make_batch(entries, vocab)
        all_hits = 0
        for dec_layers in (1, 2, 3):
            cfg = ModelConfig(variant=variant, **{**TINY, "dec_layers": dec_layers})
            model = DescriptionModel(cfg, vocab, toy_table(), seed=20, dtype=np.float64)
            session = model.start_session(entries)
            gold, hits = [], 0
            for t in range(batch.target_ids.shape[1]):
                logp, session = model.step(session, batch.target_ids[:, t - 1] if t else None)
                real = t < batch.target_lengths
                targets = batch.target_ids[real, t]
                gold += logp[real, targets].tolist()
                hits += int((logp[real].argmax(axis=1) == targets).sum())
            loss, aux = model.forward_loss(batch, train=False)
            assert loss.item() == pytest.approx(-np.mean(gold), rel=0, abs=1e-12), dec_layers
            assert aux["tokens"] == len(gold)
            assert aux["correct"] == hits, dec_layers
            all_hits += hits
        assert all_hits > 0  # this seed's argmax hits some gold tokens

    def test_one_output_head_per_batch(self):
        # the real target tokens of all S steps of a B-entry batch go through
        # one linear_nll op, projection and loss together; padded rows are
        # not scored
        vocab = toy_vocab()
        cfg = tiny_config("log-cad")
        model = DescriptionModel(cfg, vocab, toy_table(), seed=16, dtype=np.float64)
        batch = make_batch(padded_entries(), vocab)
        real = int(batch.target_lengths.sum())
        assert real < batch.target_ids.size  # the batch has target padding
        with GradGraph() as g:
            model.forward_loss(batch, train=True)
        heads = [inputs for name, inputs, *_ in g.ops if name == "linear_nll"]
        assert len(heads) == 1
        x, w = heads[0][:2]
        assert x.shape == (real, cfg.dec_width)
        assert w is model.params.out_w

    def test_decoder_runs_one_kernel_op_per_layer_step(self):
        # every bidirectional encoder layer is one lstm_sequence op, and so is
        # every decoder layer below the top (i-attention: the whole stack); a
        # gated top layer is one op per step over the rows still describing
        vocab = toy_vocab()
        batch = make_batch(padded_entries(), vocab)
        steps = batch.target_ids.shape[1]
        live = [int((batch.target_lengths > t).sum()) for t in range(steps)]
        assert live[-1] < live[0]  # some rows finish before others
        for variant in VARIANTS:
            cfg = tiny_config(variant)
            model = DescriptionModel(cfg, vocab, toy_table(), seed=16, dtype=np.float64)
            with GradGraph() as g:
                model.forward_loss(batch, train=True)
            names = [name for name, *_ in g.ops]
            kernels = [inputs for name, inputs, *_ in g.ops if name == "lstm_sequence"]
            encoder = cfg.enc_layers if cfg.uses_encoder else 0
            if cfg.uses_gate:
                assert len(kernels) == encoder + (cfg.dec_layers - 1) + steps, variant
                assert [x.shape[0] for x, *_ in kernels[-steps:]] == live, variant
            else:
                assert len(kernels) == encoder + cfg.dec_layers, variant
            assert "slice" not in names

    # the ops of one training pass over padded_entries(), by name: targets of
    # 2, 4 and 6 tokens, so 3, 3, 2, 2, 1 and 1 rows live at the six steps
    TRAINING_TAPE = {
        "global": {"add": 7, "concat": 3, "fusion_gate": 6, "linear_nll": 1,
                   "lstm_sequence": 7, "matmul": 7, "max": 5, "reshape": 11, "take_rows": 26},
        "local": {"add": 6, "bilinear_attention": 6, "concat": 3, "fusion_gate": 6,
                  "linear_nll": 1, "lstm_sequence": 9, "matmul": 7, "max": 5, "reshape": 11,
                  "take_rows": 30},
        "i-attention": {"add": 2, "concat": 2, "linear_nll": 1, "lstm_sequence": 4,
                        "matmul": 2, "mul": 3, "sigmoid": 1, "sum": 1, "take_rows": 4,
                        "tanh": 1},
        "log-cad": {"add": 7, "bilinear_attention": 6, "concat": 3, "fusion_gate": 6,
                    "linear_nll": 1, "lstm_sequence": 9, "matmul": 8, "max": 5, "reshape": 11,
                    "take_rows": 31},
    }

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_training_tape_op_counts(self, variant):
        vocab = toy_vocab()
        batch = make_batch(padded_entries(), vocab)
        model = DescriptionModel(tiny_config(variant), vocab, toy_table(), seed=16,
                                 dtype=np.float64)
        with GradGraph() as g:
            model.forward_loss(batch, train=True)
        counts = {}
        for name, *_ in g.ops:
            counts[name] = counts.get(name, 0) + 1
        assert counts == self.TRAINING_TAPE[variant]

    def test_training_tape_keeps_no_copies(self):
        # what a log-cad training pass leaves on the tape: each bidirectional
        # encoder layer is one op with one output (no per-direction outputs
        # and concat), its dropout lives inside the op as a boolean mask (no
        # float mask or product), the op saves only its gate activations and
        # cell states (tanh(c) is recomputed, h is read from the output), and
        # the conditioning is built in description order (no sorted copy of
        # the encoder states or their projection)
        vocab = toy_vocab()
        cfg = tiny_config("log-cad")
        model = DescriptionModel(cfg, vocab, toy_table(), seed=17, dtype=np.float64)
        batch = make_batch(padded_entries(), vocab)
        rows, steps = batch.context_ids.shape
        assert batch.context_lengths.min() < steps  # the contexts are padded
        assert (np.diff(batch.target_lengths) > 0).any()  # the sort moves rows
        with GradGraph() as g:
            model.forward_loss(batch, train=True)
        encoder = {id(t) for _, t in model.params.encoder.named("e")}
        enc_ops = [op for op in g.ops if any(id(t) in encoder for t in op[1])]
        assert [name for name, *_ in enc_ops] == ["lstm_sequence"] * cfg.enc_layers
        for k, (_name, inputs, outs, _fn) in enumerate(enc_ops):
            assert outs[0].shape == (rows, steps, cfg.enc_width)
            if k:
                assert inputs[0] is enc_ops[k - 1][2][0]  # the layer below's output itself
        states = enc_ops[-1][2][0]
        (proj,) = [op[2] for op in g.ops if op[0] == "matmul" and op[1][0] is states]

        def saved_floats(fn, seen):
            # the float arrays a backward function holds, through nested closures
            for cell in fn.__closure__ or ():
                values = [cell.cell_contents]
                while values:
                    v = values.pop()
                    if isinstance(v, (tuple, list)):
                        values += list(v)
                    elif callable(v) and getattr(v, "__closure__", None) and v not in seen:
                        seen.add(v)
                        yield from saved_floats(v, seen)
                    elif isinstance(v, np.ndarray) and v.dtype.kind == "f":
                        yield v

        real = int(batch.context_lengths.sum())
        half = cfg.enc_width // 2
        for _name, inputs, outs, fn in enc_ops:
            own = [t.data for t in inputs + outs if isinstance(t, Tensor)]
            kept = {id(a): a for a in saved_floats(fn, set())
                    if not any(a is o or a.base is o for o in own)}
            # per direction: the gate activations of the real positions, and
            # the cell states of the initial rows and the real positions
            assert sorted(a.shape for a in kept.values()) == \
                [(2, real, 4 * half), (2, real + rows, half)]
        for name, inputs, outs, _fn in g.ops:
            if name == "mul":
                assert outs.shape != (rows, steps, cfg.enc_width)
            if name == "take_rows" and inputs[0] in (states, proj):
                assert np.shares_memory(outs.data, inputs[0].data)  # a slice, not a copy

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_decoder_dropout_leaves_no_float_masks(self, variant):
        # decoder dropout lives inside the decoder's ops as boolean keep masks:
        # no recorded op takes a constant float array shaped like a decoder
        # layer's inputs, and only i-attention's mask net records a mul
        vocab = toy_vocab()
        model = DescriptionModel(tiny_config(variant), vocab, toy_table(),
                                 seed=18, dtype=np.float64)
        batch = make_batch(padded_entries(), vocab)
        rows, steps = batch.target_ids.shape
        with GradGraph() as g:
            model.forward_loss(batch, train=True)
        names = [name for name, *_ in g.ops]
        assert ("mul" in names) == (variant == "i-attention")
        inputs_shapes = {(rows, steps, p.input_dim) for p in model.params.decoder}
        taken = {t.shape for _, inputs, *_ in g.ops for t in inputs if isinstance(t, Tensor)}
        assert inputs_shapes <= taken  # the decoder inputs themselves are on the tape
        for name, inputs, *_ in g.ops:
            for t in inputs:
                if isinstance(t, Tensor) and not t.requires_grad:
                    assert t.shape not in inputs_shapes, name

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_loss_and_gradients_match_padded_computation(self, variant, monkeypatch):
        # the packed encoder, the live-rows decoder and the real-rows head give
        # the loss, every parameter gradient and the dropout stream of running
        # the encoder over every padded position, stepping every row through
        # every decoder layer and scoring every stacked row with its mask as
        # weight, for 1 to 3 decoder layers
        vocab = toy_vocab()
        batch = make_batch(padded_entries(), vocab)

        def grads(model):
            with GradGraph() as g:
                loss, _ = model.forward_loss(batch, train=True)
            g.backward(loss)
            return (loss.item(), {name: t.grad for name, t in model.params.named()},
                    model._drop_rng.bit_generator.state)

        def fresh(dec_layers):
            cfg = ModelConfig(variant=variant, **{**TINY, "dec_layers": dec_layers})
            return DescriptionModel(cfg, vocab, toy_table(), seed=21, dtype=np.float64)

        for dec_layers in (1, 2, 3):
            got_loss, got, got_rng = grads(fresh(dec_layers))
            with monkeypatch.context() as m:
                m.setattr(logcad.model, "bilstm_encode", padded_bilstm_encode)
                m.setattr(DescriptionModel, "forward_loss", padded_forward_loss)
                want_loss, want, want_rng = grads(fresh(dec_layers))
            assert got_loss == pytest.approx(want_loss, rel=0, abs=1e-12)
            assert got.keys() == want.keys()
            for name in want:
                npt.assert_allclose(got[name], want[name], rtol=0, atol=1e-12,
                                    err_msg=f"{name}, {dec_layers} decoder layers")
            assert got_rng == want_rng


def dropout(x, keep, p):
    """Inverted dropout at rate ``p`` as one ``mul`` by the float mask built
    from boolean keep mask ``keep``."""
    return mul(x, Tensor(keep.astype(x.dtype) / np.asarray(1.0 - p, dtype=x.dtype)))


def padded_bilstm_encode(p, embs, lengths, drop=0.0, rng=None):
    """The encoder run over every padded position: one ``lstm_cell`` per step
    of the whole batch, the backward direction on each row reversed within its
    length; states past the lengths are garbage. Each later layer's dropout
    mask is drawn over the rows as given, as the model draws it."""
    b, t, _ = embs.shape
    pos = np.arange(t)[None, :]
    flat = (np.arange(b)[:, None] * t
            + np.where(pos < lengths[:, None], lengths[:, None] - 1 - pos, pos)).reshape(-1)

    def reverse(seq):
        return reshape(take_rows(reshape(seq, (b * t, seq.shape[2])), flat), seq.shape)

    def run(lp, seq):
        h = c = Tensor(np.zeros((b, lp.wh.shape[0])))
        outs = []
        for k in range(t):
            step = take_rows(reshape(seq, (b * t, seq.shape[2])), np.arange(b) * t + k)
            h, c = lstm_cell(lp, step, h, c)
            outs.append(reshape(h, (b, 1, lp.wh.shape[0])))
        return concat(outs, axis=1)

    seq = embs
    for k, (fwd, bwd) in enumerate(p.layers):
        if k > 0 and drop > 0.0:
            seq = dropout(seq, dropout_keep(seq.shape, drop, rng), drop)
        seq = concat([run(fwd, seq), reverse(run(bwd, reverse(seq)))], axis=2)
    return seq


def full_gate(p, s, f):
    """``gate`` over all of ``[f; s]`` in one call, from the biases alone."""
    return gate(p, s, [f], 0, gate_constants(p, []))


def padded_forward_loss(self, batch, train=False):
    """``forward_loss`` computed step by step on every row of the batch
    sorted longest description first: each step runs every row through each
    decoder layer's ``lstm_cell``, the top layer of a gated variant recurring
    on its gated output, with that step's slice of the layer's dropout mask,
    drawn over all rows and steps after the session; every stacked row is
    scored, padded ones at weight 0."""
    cfg = self.config
    p = self.params
    drop = cfg.dropout if train else 0.0
    batch = batch.take((-batch.target_lengths).argsort(kind="stable"))
    session = self._start(batch, train)
    rows, steps = batch.target_ids.shape
    keeps = [dropout_keep((rows, steps, lp.input_dim), drop, self._drop_rng)
             for lp in p.decoder] if drop > 0.0 else None
    layer_states = [(Tensor(np.zeros((rows, cfg.dec_width))),) * 2 for _ in p.decoder]
    states = []
    for t in range(steps):
        if t:
            x = take_rows(p.word_emb, batch.target_ids[:, t - 1])
        elif cfg.uses_global_embedding:
            x = session.x_trg
        else:
            x = Tensor(np.zeros((rows, cfg.word_emb_width)))
        if cfg.variant == "i-attention":
            x = concat([x, session.x_masked], axis=1)
        for k, lp in enumerate(p.decoder):
            if keeps is not None:
                x = dropout(x, keeps[k][:, t], drop)
            h, c = lstm_cell(lp, x, *layer_states[k])
            if k == cfg.dec_layers - 1 and cfg.uses_gate:
                feats = [session.x_trg] if cfg.uses_global_embedding else []
                if cfg.uses_attention:
                    feats.append(attention(p.attn, session.enc_states, h,
                                           session.enc_lengths, session.enc_proj)[0])
                h = full_gate(p.gate, h, concat(feats + [session.c_trg], axis=1))
            layer_states[k] = (h, c)
            x = h
        states.append(x)
    mask = (np.arange(steps)[:, None] < batch.target_lengths).reshape(-1).astype(np.float64)
    loss, _correct = linear_nll(concat(states, axis=0), p.out_w, p.out_b,
                                batch.target_ids.T.reshape(-1), mask / mask.sum())
    return loss, {"tokens": float(mask.sum())}


ACTIVE_GROUPS = {
    "global": {"word_emb", "decoder", "char", "gate", "out"},
    "local": {"word_emb", "encoder", "decoder", "attn", "char", "gate", "out"},
    "i-attention": {"word_emb", "encoder", "decoder", "masknet", "out"},
    "log-cad": {"word_emb", "encoder", "decoder", "attn", "char", "gate", "out"},
}


FULL_SIZE_PARAMS = {
    "global": 8_272_132,
    "local": 12_783_232,
    "i-attention": 11_687_800,
    "log-cad": 13_599_532,
}


class TestGradientFlow:
    @pytest.mark.parametrize("variant", list(ACTIVE_GROUPS))
    def test_gradients_reach_exactly_the_active_groups(self, variant):
        # the model holds only its active groups, and a training step reaches
        # every tensor it holds (Adam and clipping rely on a grad for each)
        vocab = toy_vocab()
        model = DescriptionModel(tiny_config(variant), vocab, toy_table(),
                                 seed=6, dtype=np.float64)
        assert {name.split(".")[0] for name, _ in model.params.named()} \
            == ACTIVE_GROUPS[variant]
        entry2 = Entry(["dog"], ["a", "[TRG]", "barked", "at", "him"], (1, 1),
                       ["blue", "fish", "dog"])
        batch = make_batch([toy_entry(), entry2], vocab)
        with GradGraph() as g:
            loss, _ = model.forward_loss(batch, train=True)
        g.backward(loss)
        for name, t in model.params.named():
            assert t.grad is not None, f"{variant}: no gradient reached {name}"

    @pytest.mark.parametrize("variant", list(FULL_SIZE_PARAMS))
    def test_full_size_parameter_count(self, variant):
        params = ModelParams(ModelConfig(variant=variant), 10000, np.random.default_rng(0))
        assert sum(t.size for t in params.tensors()) == FULL_SIZE_PARAMS[variant]

    GRAD_CHECK_VARIANTS = ("log-cad", "i-attention")

    @pytest.mark.parametrize("variant", GRAD_CHECK_VARIANTS)
    def test_end_to_end_gradient_check(self, variant):
        vocab = toy_vocab()
        model = DescriptionModel(tiny_config(variant), vocab, toy_table(),
                                 seed=7, dtype=np.float64)
        entry = Entry(["sonic"], ["a", "[TRG]", "boomed"], (1, 1), ["red", "fish"])
        batch = make_batch([entry], vocab)

        def loss_fn(_t):
            return model.forward_loss(batch, train=False)[0]

        names = ("out.b", "attn.u_s", "gate.b_zr", "decoder.l0.b", "encoder.l0.fwd.wx",
                 "masknet.b_m", "char.k2_bias")
        # a renamed tensor would otherwise fall out of the check unnoticed
        covered = {n for v in self.GRAD_CHECK_VARIANTS
                   for n, _ in ModelParams(tiny_config(v), 50, None).named()}
        assert covered.issuperset(names), set(names) - covered
        held = dict(model.params.named())
        targets = [held[name] for name in names if name in held]
        worst = 0.0
        for t in targets:
            worst = max(worst, gradient_check(loss_fn, t, eps=1e-4))
        assert worst < 1e-3, worst


class TestVariantReduction:
    @staticmethod
    def _copy(dst, src):
        dst.data = src.data.copy()

    def test_zero_attention_reduces_logcad_to_global(self):
        vocab = toy_vocab()
        cfg = tiny_config("log-cad")
        m1 = DescriptionModel(cfg, vocab, toy_table(), seed=8, dtype=np.float64)
        for t in [x for _, x in m1.params.encoder.named("enc")]:
            t.data[:] = 0.0  # forces H = 0, hence d_t = 0
        m2 = DescriptionModel(tiny_config("global"), vocab, toy_table(), seed=9,
                              dtype=np.float64)
        for (n1, t1), (n2, t2) in zip(
            [(n, t) for n, t in m1.params.named() if n.split(".")[0] in
             ("word_emb", "decoder", "char", "out")],
            [(n, t) for n, t in m2.params.named() if n.split(".")[0] in
             ("word_emb", "decoder", "char", "out")],
        ):
            assert n1 == n2
            self._copy(t2, t1)
        # gate rows: [word(4); enc(6); char(160); state(5)] -> drop the enc rows
        w, e, c, s = cfg.word_emb_width, cfg.enc_width, CHAR_WIDTH, cfg.dec_width
        keep_rows = np.r_[0:w, w + e : w + e + c, w + e + c : w + e + c + s]
        # w_zr's columns: z's S, then r's, one per feature row
        keep_cols = np.r_[0:s, s + np.r_[0:w, w + e : w + e + c]]
        g1, g2 = m1.params.gate, m2.params.gate
        g2.w_zr.data = g1.w_zr.data[keep_rows][:, keep_cols].copy()
        g2.b_zr.data = g1.b_zr.data[keep_cols].copy()
        g2.w_s.data = g1.w_s.data[keep_rows].copy()
        g2.b_s.data = g1.b_s.data.copy()

        entry = toy_entry()
        s1, s2 = m1.start_session([entry]), m2.start_session([entry])
        prev = None
        for _ in range(3):
            l1, s1 = m1.step(s1, prev)
            l2, s2 = m2.step(s2, prev)
            npt.assert_allclose(l1, l2, atol=1e-10)
            prev = [int(np.argmax(l1[0]))]

    def test_zero_phrase_embedding_reduces_logcad_to_local(self):
        # a table whose vectors are all zero, with a zero UNK, makes x_trg = 0
        zero_table = EmbeddingTable({"sonic": np.zeros(4), "boom": np.zeros(4)}, 4)
        vocab = toy_vocab()
        cfg = tiny_config("log-cad")
        m1 = DescriptionModel(cfg, vocab, zero_table, seed=10, dtype=np.float64)
        m1.unk[:] = 0.0
        m2 = DescriptionModel(tiny_config("local"), vocab, None, seed=11, dtype=np.float64)
        for (n1, t1), (n2, t2) in zip(
            [(n, t) for n, t in m1.params.named() if n.split(".")[0] in
             ("word_emb", "encoder", "decoder", "attn", "char", "out")],
            [(n, t) for n, t in m2.params.named() if n.split(".")[0] in
             ("word_emb", "encoder", "decoder", "attn", "char", "out")],
        ):
            assert n1 == n2
            self._copy(t2, t1)
        w, e, c, s = cfg.word_emb_width, cfg.enc_width, CHAR_WIDTH, cfg.dec_width
        keep_rows = np.r_[w : w + e + c, w + e + c : w + e + c + s]
        keep_cols = np.r_[0:s, s + np.r_[w : w + e + c]]
        g1, g2 = m1.params.gate, m2.params.gate
        g2.w_zr.data = g1.w_zr.data[keep_rows][:, keep_cols].copy()
        g2.b_zr.data = g1.b_zr.data[keep_cols].copy()
        g2.w_s.data = g1.w_s.data[keep_rows].copy()
        g2.b_s.data = g1.b_s.data.copy()

        entry = toy_entry()
        s1, s2 = m1.start_session([entry]), m2.start_session([entry])
        prev = None
        for _ in range(3):
            l1, s1 = m1.step(s1, prev)
            l2, s2 = m2.step(s2, prev)
            npt.assert_allclose(l1, l2, atol=1e-10)
            prev = [int(np.argmax(l1[0]))]


def _corrupt(path, how):
    """Rewrite a checkpoint with one layout fault; returns the name of the
    tensor the fault is reported against."""
    head, data = path.read_bytes().split(b"\nDATA\n", 1)
    lines = head.decode("utf-8").split("\n")
    rows = [i for i, line in enumerate(lines) if line.startswith("tensor ")]
    first, second = (lines[i].split(" ") for i in rows[:2])
    last = lines[rows[-1]].split(" ")[1]
    if how == "first block not at 0":
        first[4] = "4"
    elif how == "negative offset":
        second[4] = "-32"
    elif how == "overlapping block":
        second[4] = str(int(second[4]) - 4)
    elif how == "length not shape":
        first[5] = str(int(first[5]) - 4)
    elif how == "zero dimension":
        first[2], first[5] = "0x" + first[2], "0"
    elif how == "duplicate name":
        second[1] = first[1]
    elif how == "trailing bytes":
        data += b"\0" * 4
    elif how == "truncated":
        data = data[:-4]
    lines[rows[0]], lines[rows[1]] = " ".join(first), " ".join(second)
    path.write_bytes("\n".join(lines).encode("utf-8") + b"\nDATA\n" + data)
    if how in ("first block not at 0", "length not shape", "zero dimension"):
        return first[1]
    return last if how in ("trailing bytes", "truncated") else second[1]


CORRUPTIONS = ["first block not at 0", "negative offset", "overlapping block",
               "length not shape", "zero dimension", "duplicate name",
               "trailing bytes", "truncated"]


class TestCheckpoint:
    @pytest.mark.parametrize("how", CORRUPTIONS)
    def test_corrupt_layout_rejected(self, tmp_path, how):
        model = DescriptionModel(tiny_config("log-cad"), toy_vocab(), toy_table(), seed=17)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.params, model.config.to_meta())
        load_checkpoint(path)
        name = _corrupt(path, how)
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value) and name in str(err.value)

    def test_round_trip_bit_exact(self, tmp_path):
        vocab = toy_vocab()
        model = DescriptionModel(tiny_config("log-cad"), vocab, toy_table(), seed=12)
        path = tmp_path / "model.ckpt"
        meta = dict(model.config.to_meta())
        meta["seed"] = "12"
        meta["epoch"] = "7"
        save_checkpoint(path, model.params, meta)
        first = path.read_bytes()

        tensors, got_meta = load_checkpoint(path)
        assert got_meta["epoch"] == "7"
        for name, t in model.params.named():
            npt.assert_array_equal(tensors[name], t.data.astype("<f4"))

        load_params_into(model.params, tensors)
        save_checkpoint(path, model.params, meta)
        assert path.read_bytes() == first

    def test_load_model_restores_behaviour(self, tmp_path):
        vocab = toy_vocab()
        table = toy_table()
        model = DescriptionModel(tiny_config("log-cad"), vocab, table, seed=13)
        path = tmp_path / "model.ckpt"
        meta = dict(model.config.to_meta())
        meta["seed"] = "13"
        save_checkpoint(path, model.params, meta)
        restored, meta2 = load_model(path, vocab, table)
        assert meta2["seed"] == "13"
        entry = toy_entry()
        l1, _ = model.step(model.start_session([entry]), None)
        l2, _ = restored.step(restored.start_session([entry]), None)
        npt.assert_allclose(l1, l2, atol=1e-6)

    def test_shape_mismatch_rejected(self, tmp_path):
        vocab = toy_vocab()
        m1 = DescriptionModel(tiny_config("log-cad"), vocab, toy_table(), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, m1.params, m1.config.to_meta())
        tensors, _ = load_checkpoint(path)
        m2 = DescriptionModel(
            ModelConfig(variant="log-cad", **{**TINY, "dec_width": 7}), vocab, toy_table())
        with pytest.raises(ValueError, match="shape"):
            load_params_into(m2.params, tensors)

    def test_extra_tensors_ignored_on_load(self, tmp_path):
        # a log-cad checkpoint that also carries the mask net, as written when
        # every variant held every group, loads and decodes as before
        vocab = toy_vocab()
        table = toy_table()
        cfg = tiny_config("log-cad")
        model = DescriptionModel(cfg, vocab, table, seed=15)
        masknet = MaskNetParams.create(np.random.default_rng(1), cfg.enc_width,
                                       cfg.word_emb_width, cfg.word_emb_width, np.float32)
        named = [(n, t) for n, t in model.params.named() if not n.startswith("out.")]
        named += list(masknet.named("masknet"))
        named += [("out.w", model.params.out_w), ("out.b", model.params.out_b)]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, SimpleNamespace(named=lambda: iter(named)),
                        {**cfg.to_meta(), "seed": "15"})
        assert "masknet.w_ff" in load_checkpoint(path)[0]
        restored, _ = load_model(path, vocab, table)
        assert not any(n.startswith("masknet.") for n, _ in restored.params.named())
        entry = toy_entry()
        assert greedy_decode(restored, entry, max_len=6) == greedy_decode(model, entry, max_len=6)

    def test_missing_tensor_rejected(self, tmp_path):
        vocab = toy_vocab()
        model = DescriptionModel(tiny_config("log-cad"), vocab, toy_table(), seed=16)
        named = [(n, t) for n, t in model.params.named() if n != "attn.u_h"]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, SimpleNamespace(named=lambda: iter(named)),
                        model.config.to_meta())
        with pytest.raises(ValueError, match="missing tensor attn.u_h"):
            load_model(path, vocab, toy_table())

    def test_v1_checkpoint_refused(self, tmp_path):
        # v1 stored each LSTM cell as twelve per-gate tensors (wx_i, wh_i, b_i, ...)
        model = DescriptionModel(tiny_config("log-cad"), toy_vocab(), toy_table(), seed=18)
        named = []
        for name, t in model.params.named():
            prefix, _, kind = name.rpartition(".")
            if prefix.startswith(("encoder.", "decoder.")):
                for gate, block in zip("ifgo", np.split(t.data, 4, axis=-1)):
                    named.append((f"{prefix}.{kind}_{gate}", Tensor(block)))
            else:
                named.append((name, t))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, SimpleNamespace(named=lambda: iter(named)),
                        model.config.to_meta())
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"logcad-checkpoint v2\n", b"logcad-checkpoint v1\n", 1))
        with pytest.raises(ValueError, match="v1 .* no longer read") as err:
            load_model(path, toy_vocab(), toy_table())
        assert str(path) in str(err.value)

    def test_non_utf8_manifest_names_path(self, tmp_path):
        model = DescriptionModel(tiny_config("log-cad"), toy_vocab(), toy_table(), seed=18)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.params, model.config.to_meta())
        blob = bytearray(path.read_bytes())
        blob[30] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="not UTF-8") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)


class _RecordingGenerator(np.random.Generator):
    drawn = 0

    def uniform(self, low, high, size):
        self.drawn += int(np.prod(size))
        return super().uniform(low, high, size)


def _draw_whole(rng, shape, dtype=np.float64, scale=INIT_SCALE):
    """``uniform_init`` as one float64 draw of the whole shape, then a cast."""
    return Tensor(rng.uniform(-scale, scale, size=shape).astype(dtype), requires_grad=True)


def _every_group(config, n_vocab, rng, dtype):
    """Every parameter group of ModelParams' layout, each drawn in full from
    ``rng`` in ModelParams' order whether or not the variant keeps it, through
    whatever ``logcad.layers.uniform_init`` is; the tensors by name."""
    held = {"word_emb": logcad.layers.uniform_init(rng, (n_vocab, config.word_emb_width), dtype)}
    held.update(BiLstmParams.create(rng, config.word_emb_width, config.enc_width,
                                    config.enc_layers, dtype).named("encoder"))
    in_dim = config.dec_input_width
    for k in range(config.dec_layers):
        held.update(LstmParams.create(rng, in_dim, config.dec_width, dtype).named(f"decoder.l{k}"))
        in_dim = config.dec_width
    held.update(AttentionParams.create(rng, config.enc_width, config.dec_width,
                                       config.attn_width, dtype).named("attn"))
    held.update(CharCnnParams.create(rng, dtype=dtype).named("char"))
    held.update(GateParams.create(rng, config.feature_width, config.dec_width,
                                  dtype).named("gate"))
    held.update(MaskNetParams.create(rng, config.enc_width, config.word_emb_width,
                                     config.word_emb_width, dtype).named("masknet"))
    held["out.w"] = matrix_init(rng, (config.dec_width, n_vocab), dtype)
    held["out.b"] = Tensor(np.zeros(n_vocab, dtype=dtype))
    return held


class TestInit:
    """A fresh ModelParams draws only the groups its variant keeps, and
    those take the values they take when every group is drawn."""

    # word_emb and out.w span several of uniform_init's blocks
    N_VOCAB = 3 * logcad.layers.INIT_BLOCK // TINY["word_emb_width"] + 7

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_kept_groups_match_drawing_every_group(self, variant, dtype, monkeypatch):
        config = tiny_config(variant)
        rng = np.random.default_rng(23)
        params = ModelParams(config, self.N_VOCAB, rng, dtype)
        ref_rng = np.random.default_rng(23)
        with monkeypatch.context() as m:
            m.setattr(logcad.layers, "uniform_init", _draw_whole)
            ref = _every_group(config, self.N_VOCAB, ref_rng, dtype)
        for name, t in params.named():
            assert t.data.dtype == dtype
            assert t.data.tobytes() == ref[name].data.tobytes(), name
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_only_held_weights_are_drawn(self, variant):
        rng = _RecordingGenerator(np.random.PCG64(24))
        params = ModelParams(tiny_config(variant), 50, rng)
        # the weight matrices are drawn; the 1-D biases start at constants
        assert rng.drawn == sum(t.size for t in params.tensors() if t.ndim == 2)


def _saved(tmp_path, variant, seed=21):
    model = DescriptionModel(tiny_config(variant), toy_vocab(), toy_table(), seed=seed)
    path = tmp_path / f"{variant}.ckpt"
    save_checkpoint(path, model.params, {**model.config.to_meta(), "seed": str(seed)})
    return model, path


class TestLoadPath:
    """``load_model`` reads the file once, draws nothing and copies nothing."""

    def test_load_draws_only_the_unk_vector(self, tmp_path, monkeypatch):
        # every model draws its UNK vector from its seed; only a fresh one
        # draws weights too
        _, path = _saved(tmp_path, "log-cad")
        generators = []

        def recording(seed=None):
            generators.append(_RecordingGenerator(np.random.PCG64(seed)))
            return generators[-1]

        monkeypatch.setattr(np.random, "default_rng", recording)
        loaded, _ = load_model(path, toy_vocab(), toy_table())
        assert sum(g.drawn for g in generators) == TINY["word_emb_width"]
        generators.clear()
        DescriptionModel(tiny_config("log-cad"), toy_vocab(), toy_table(), seed=21)
        assert sum(g.drawn for g in generators) == TINY["word_emb_width"] + sum(
            t.size for t in loaded.params.tensors() if t.ndim == 2)

    @pytest.mark.parametrize("variant", ["global", "log-cad"])
    def test_load_builds_no_dropped_group(self, tmp_path, monkeypatch, variant):
        _, path = _saved(tmp_path, variant)
        config = tiny_config(variant)
        kept = {BiLstmParams: config.uses_encoder, AttentionParams: config.uses_attention,
                CharCnnParams: config.uses_gate, GateParams: config.uses_gate,
                MaskNetParams: variant == "i-attention"}

        def refuse(*args, **kwargs):
            raise AssertionError("built a dropped group")

        for group in (g for g, held in kept.items() if not held):
            monkeypatch.setattr(group, "create", refuse)
        loaded, _ = load_model(path, toy_vocab(), toy_table())
        tensors, _ = load_checkpoint(path)
        assert [name for name, _ in loaded.params.named()] == list(tensors)

    def test_arrays_are_aligned_writable_views_of_one_buffer(self, tmp_path):
        model, path = _saved(tmp_path, "log-cad")
        tensors, _ = load_checkpoint(path)
        for name, t in model.params.named():
            arr = tensors[name]
            assert arr.dtype == np.float32
            assert arr.flags.aligned and arr.flags.writeable and arr.flags.c_contiguous
            assert arr.tobytes() == t.data.astype("<f4").tobytes()
        assert len({id(arr.base) for arr in tensors.values()}) == 1

    def test_two_loads_do_not_alias(self, tmp_path):
        model, path = _saved(tmp_path, "log-cad")
        saved = dict(model.params.named())
        a, _ = load_model(path, toy_vocab(), toy_table())
        b, _ = load_model(path, toy_vocab(), toy_table())
        for (name, ta), (_, tb) in zip(a.params.named(), b.params.named()):
            ta.data += 1.0
            npt.assert_array_equal(tb.data, saved[name].data)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_loaded_weights_and_predictions_match_draw_then_copy(self, tmp_path, variant):
        _, path = _saved(tmp_path, variant)
        tensors, _ = load_checkpoint(path)
        loaded, _ = load_model(path, toy_vocab(), toy_table())
        for name, t in loaded.params.named():
            npt.assert_array_equal(t.data, tensors[name])
            assert t.data.flags.aligned and t.data.flags.c_contiguous
        # the previous load path: draw every weight from the seed, then copy
        # the checkpoint's over them
        old = DescriptionModel(tiny_config(variant), toy_vocab(), toy_table(), seed=21)
        load_params_into(old.params, {n: a.copy() for n, a in tensors.items()})
        entry = toy_entry()
        npt.assert_array_equal(loaded.step(loaded.start_session([entry]), None)[0],
                               old.step(old.start_session([entry]), None)[0])
        assert greedy_decode(loaded, entry, max_len=6) == greedy_decode(old, entry, max_len=6)

    def test_other_dtypes_are_cast(self, tmp_path):
        model, path = _saved(tmp_path, "global")
        tensors, _ = load_checkpoint(path)
        params = ModelParams(model.config, len(toy_vocab()), None, np.float64)
        load_params_into(params, tensors)
        for name, t in params.named():
            assert t.data.dtype == np.float64
            npt.assert_array_equal(t.data, tensors[name])

    def test_short_read_names_path(self, tmp_path, monkeypatch):
        class ShortReader(io.BufferedReader):
            def readinto(self, buf):
                return super().readinto(memoryview(buf)[:len(buf) // 2])

        _, path = _saved(tmp_path, "log-cad")
        monkeypatch.setattr(logcad.model, "open",
                            lambda p, mode: ShortReader(io.FileIO(p, mode)), raising=False)
        with pytest.raises(ValueError, match="short read") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """A saved tiny log-cad checkpoint: (path to rewrite, original bytes)."""
    model = DescriptionModel(tiny_config("log-cad"), toy_vocab(), toy_table(), seed=19)
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    save_checkpoint(path, model.params, {**model.config.to_meta(), "seed": "19", "epoch": "3"})
    return path, path.read_bytes()


class TestCheckpointFuzz:
    """Damaged checkpoints raise ValueError, which the CLI reports, and
    nothing else."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_truncation_raises_value_error(self, tiny_checkpoint, data):
        path, blob = tiny_checkpoint
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError) as err:
            load_model(path, toy_vocab(), toy_table())
        assert str(path) in str(err.value)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_manifest_byte_flip_raises_value_error_or_loads(self, tiny_checkpoint, data):
        path, blob = tiny_checkpoint
        manifest_end = blob.index(b"\nDATA\n") + len(b"\nDATA\n")
        pos = data.draw(st.integers(0, manifest_end - 1), label="pos")
        mask = data.draw(st.integers(1, 255), label="xor mask")
        flipped = bytearray(blob)
        flipped[pos] ^= mask
        path.write_bytes(bytes(flipped))
        try:
            load_model(path, toy_vocab(), toy_table())
        except ValueError:
            pass
