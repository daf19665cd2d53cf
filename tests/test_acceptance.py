"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Budgets: the gradient suite must finish under 2 minutes, the
overfit run under 5, the directional comparison under 10.
"""

import time

import numpy as np
import numpy.testing as npt
import pytest

from corpora import directional_corpus, overfit_corpus
from logcad.cli import main
from logcad.data import Entry, build_vocab, corpus_stats, format_stats, load_dataset, write_dataset
from logcad.decode import greedy_decode
from logcad.evaluate import EvalRecord, build_records, corpus_bleu
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
    lstm_cell,
    project_context,
)
from logcad.model import DescriptionModel, ModelConfig
from logcad.tensor import Tensor, gradient_check, reduce_sum
from logcad.train import TrainSettings, token_accuracy, train
from oracles import (
    attention_oracle,
    char_cnn_oracle,
    gate_oracle,
    lstm_cell_oracle,
    masknet_oracle,
)

N_POINTS = 10


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {num} {status}: {name}{detail}", flush=True)
    assert ok, f"criterion {num} failed: {name}{detail}"


TOY_DIMS = dict(enc_width=64, dec_width=64, attn_width=64, word_emb_width=64, dropout=0.0)


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


def test_criterion_1_gradient_suite():
    """Every layer and every full model variant passes finite-difference
    gradient checks (64-bit, step 1e-4) below 1e-3 at 10 seeded points."""
    t0 = time.monotonic()
    worst = 0.0

    rng = np.random.default_rng(101)
    for _ in range(N_POINTS):
        p = LstmParams.create(rng, 3, 3)
        h0, c0 = Tensor(rng.normal(size=(1, 3))), Tensor(rng.normal(size=(1, 3)))
        x = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        worst = max(worst, gradient_check(
            lambda t: reduce_sum(lstm_cell(p, t, h0, c0)[0]), x, eps=1e-4))

    rng = np.random.default_rng(102)
    for _ in range(N_POINTS):
        p = BiLstmParams.create(rng, 2, 4, n_layers=2)
        x = Tensor(rng.normal(size=(1, 3, 2)), requires_grad=True)
        worst = max(worst, gradient_check(
            lambda t: reduce_sum(bilstm_encode(p, t, np.array([3]), 0.0, None)), x, eps=1e-4))

    rng = np.random.default_rng(103)
    for _ in range(N_POINTS):
        p = CharCnnParams.create(rng, char_emb=3, bank_spec=((2, 2), (3, 2)))
        worst = max(worst, gradient_check(
            lambda t: reduce_sum(char_cnn(p, [["abc"], ["zq"]])), p.banks[0][1], eps=1e-4))

    rng = np.random.default_rng(104)
    for _ in range(N_POINTS):
        p = AttentionParams.create(rng, 4, 3, 2)
        h = Tensor(rng.normal(size=(1, 3, 4)))
        s = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        worst = max(worst, gradient_check(
            lambda t: reduce_sum(attend(p, h, t)[0]), s, eps=1e-4))

    rng = np.random.default_rng(105)
    for _ in range(N_POINTS):
        p = GateParams.create(rng, 4, 3)
        f = Tensor(rng.normal(size=(1, 4)))
        s = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        worst = max(worst, gradient_check(
            lambda t: reduce_sum(full_gate(p, t, f)), s, eps=1e-4))

    rng = np.random.default_rng(106)
    for _ in range(N_POINTS):
        p = MaskNetParams.create(rng, 4, 3, 2)
        h = Tensor(rng.normal(size=(1, 3, 4)))
        x = Tensor(rng.normal(size=(1, 2)), requires_grad=True)
        worst = max(worst, gradient_check(
            lambda t: reduce_sum(soft_mask(p, h, t)), x, eps=1e-4))

    # full variants: a fresh tiny model per point; finite differences over
    # the output bias plus one rotating group-specific tensor
    vocab = build_vocab(
        [Entry(["p"], ["[TRG]"], (0, 0), ["red", "fish", "blue", "dog"])], 100)
    entry = Entry(["sonic", "boom"], ["the", "[TRG]", "was", "loud"], (1, 1),
                  ["red", "fish"])
    cfg_dims = dict(enc_layers=2, enc_width=6, attn_width=3, word_emb_width=4,
                    dec_layers=2, dec_width=5, vocab_size=64, dropout=0.5)
    from logcad.data import make_batch
    rotation_names = ("attn.u_s", "gate.b_zr", "decoder.l0.b", "encoder.l0.fwd.wx",
                      "masknet.b_m", "char.k2_bias")
    checked = set()
    for variant in ("global", "local", "i-attention", "log-cad"):
        for point in range(N_POINTS):
            model = DescriptionModel(ModelConfig(variant=variant, **cfg_dims), vocab,
                                     None, seed=1000 + point, dtype=np.float64)
            batch = make_batch([entry], vocab)

            def loss_fn(_t):
                return model.forward_loss(batch, train=False)[0]

            held = dict(model.params.named())
            checked.update(held)
            rotation = [held[name] for name in rotation_names if name in held]
            for target in (held["out.b"], rotation[point % len(rotation)]):
                worst = max(worst, gradient_check(loss_fn, target, eps=1e-4))

    elapsed = time.monotonic() - t0
    # a renamed tensor would otherwise fall out of the rotation unnoticed
    assert checked.issuperset(rotation_names), set(rotation_names) - checked
    report(1, "gradient suite", worst < 1e-3 and elapsed < 120,
           f" (max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_layer_oracles():
    """lstm_cell, attention, gate, iattention_mask, char_cnn match the
    independent scalar-loop references within 1e-6 on seeded inputs."""
    rng = np.random.default_rng(202)
    worst = 0.0

    p = LstmParams.create(rng, 4, 4)
    x, h, c = rng.normal(size=4), rng.normal(size=4), rng.normal(size=4)
    got_h, got_c = lstm_cell(p, Tensor(x[None]), Tensor(h[None]), Tensor(c[None]))
    want_h, want_c = lstm_cell_oracle(p, x, h, c)
    worst = max(worst, np.abs(got_h.data[0] - want_h).max(),
                np.abs(got_c.data[0] - want_c).max())

    ap = AttentionParams.create(rng, 5, 3, 4)
    hs = rng.normal(size=(1, 4, 5))
    s = rng.normal(size=(1, 3))
    d, alpha = attend(ap, Tensor(hs), Tensor(s))
    want_d, want_alpha = attention_oracle(ap, hs[0], s[0])
    worst = max(worst, np.abs(d.data[0] - want_d).max(),
                np.abs(alpha[0] - want_alpha).max())

    gp = GateParams.create(rng, 5, 3)
    sv, fv = rng.normal(size=3), rng.normal(size=5)
    got = full_gate(gp, Tensor(sv[None]), Tensor(fv[None]))
    worst = max(worst, np.abs(got.data[0] - gate_oracle(gp, sv, fv)).max())

    mp = MaskNetParams.create(rng, 4, 3, 5)
    hs = rng.normal(size=(1, 3, 4))
    xv = rng.normal(size=5)
    got = soft_mask(mp, Tensor(hs), Tensor(xv[None]))
    worst = max(worst, np.abs(got.data[0] - masknet_oracle(mp, hs[0], xv)).max())

    cp = CharCnnParams.create(rng)
    got = char_cnn(cp, [["sonic", "boom"]])
    worst = max(worst, np.abs(got.data[0] - char_cnn_oracle(cp, ["sonic", "boom"])).max())

    report(2, "layer oracles", worst < 1e-6, f" (max abs diff {worst:.2e})")


def test_criterion_3_overfit():
    """32-entry toy corpus, reduced dims (enc 64 / dec 64), 500 epochs:
    train loss < 0.05, teacher-forced accuracy >= 99%, greedy decoding
    reproduces >= 90% of the training descriptions, all under 5 minutes."""
    t0 = time.monotonic()
    entries = overfit_corpus()
    vocab = build_vocab(entries, 10000)
    model = DescriptionModel(ModelConfig(variant="log-cad", **TOY_DIMS), vocab,
                             None, seed=0)
    result = train(model, entries, None,
                   TrainSettings(epochs=500, batch_size=32, seed=0), start_epoch=0, verbose=False)
    acc = token_accuracy(model, entries)
    hits = sum(vocab.decode(greedy_decode(model, e, max_len=30)) == e.description
               for e in entries)
    elapsed = time.monotonic() - t0
    ok = (result.final_train < 0.05 and acc >= 0.99
          and hits >= 0.9 * len(entries) and elapsed < 300)
    report(3, "overfit", ok,
           f" (loss {result.final_train:.4f}, acc {acc:.3f}, "
           f"reproduced {hits}/{len(entries)}, {elapsed:.1f}s)")


def test_criterion_4_directional_replication():
    """On a synthetic corpus whose descriptions depend jointly on a local
    cue token and the target identity, LOG-CaD beats Global by >= 10 BLEU
    on a held-out context template (pilot-confirmed gap ~49), under 10 min."""
    t0 = time.monotonic()
    train_entries, test_entries = directional_corpus()
    vocab = build_vocab(train_entries, 10000)
    scores = {}
    for variant in ("log-cad", "global"):
        model = DescriptionModel(ModelConfig(variant=variant, **TOY_DIMS), vocab,
                                 None, seed=1)
        train(model, train_entries, None,
              TrainSettings(epochs=120, batch_size=16, seed=1), start_epoch=0, verbose=False)
        cands = [vocab.decode(greedy_decode(model, e, max_len=20)) for e in test_entries]
        scores[variant] = corpus_bleu(build_records(test_entries, cands, None))
    gap = scores["log-cad"] - scores["global"]
    elapsed = time.monotonic() - t0
    report(4, "directional replication (LOG-CaD > Global)",
           gap >= 10.0 and elapsed < 600,
           f" (log-cad {scores['log-cad']:.2f}, global {scores['global']:.2f}, "
           f"gap {gap:.2f}, {elapsed:.1f}s)")


def test_criterion_5_bleu_oracle():
    """Identity -> 100; disjoint -> 0; the five hand-worked pairs match the
    frozen arithmetic to 1e-6; duplication leaves the score unchanged."""
    def rec(cand, ref):
        return EvalRecord(cand.split(), ref.split(), 1, 0.0, 5)

    identity = [rec("a b c d e", "a b c d e"), rec("x y z w", "x y z w")]
    disjoint = [rec("a b c d", "w x y z")]
    five = [
        rec("the cat sat on the mat", "the cat sat on the mat"),
        rec("the the the", "the cat sat"),
        rec("small dog barked", "the small dog barked loudly"),
        rec("to remove liquid", "to get rid of a liquid"),
        rec("american writer", "american journalist and editor"),
    ]
    ok = True
    detail = []
    if abs(corpus_bleu(identity) - 100.0) > 1e-9:
        ok = False
        detail.append("identity != 100")
    if corpus_bleu(disjoint) != 0.0:
        ok = False
        detail.append("disjoint != 0")
    got = corpus_bleu(five)
    if abs(got - 49.7729816232775) > 1e-6:
        ok = False
        detail.append(f"five-pair fixture {got!r}")
    if abs(corpus_bleu(five * 3) - got) > 1e-9:
        ok = False
        detail.append("duplication changed the score")
    report(5, "BLEU oracle", ok, f" ({'; '.join(detail) if detail else 'all fixtures match'})")


ARTICLES_TSV = (
    "Tokyo\tTokyo is the capital of [[Japan]]. It is (by far) the largest city. "
    "Many tourists visit [[Mount Fuji|Fuji]] from there.\n"
    "Sonic boom\tA [[sonic boom]] is produced when [[aircraft]] fly faster than "
    "sound near [[Japan]].\n"
    "Kyoto\tKyoto was the capital of [[japan]] for centuries. See [[Nara]] too.\n"
)
ITEMS_TSV = (
    "Japan\tIsland country in East Asia\n"
    "sonic boom\tSound created by an object moving fast\n"
    "aircraft\t\n"
    "Mount Fuji\tthe highest mountain in Japan\n"
)
GOLDEN_TRAIN = (
    "japan\ttokyo is the capital of [TRG] .\tisland country in east asia\n"
    "japan\ta sonic boom is produced when aircraft fly faster than sound near [TRG] .\t"
    "island country in east asia\n"
    "japan\tkyoto was the capital of [TRG] for centuries .\tisland country in east asia\n"
    "sonic boom\ta [TRG] is produced when aircraft fly faster than sound near japan .\t"
    "sound created by an object moving fast\n"
)


def test_criterion_6_extractor_golden(tmp_path):
    """The 3-article synthetic dump yields byte-identical TSVs embodying the
    [TRG] substitution, anchor-equals-title filtering, parenthesis removal,
    and empty-description exclusion rules."""
    articles = tmp_path / "articles.tsv"
    articles.write_text(ARTICLES_TSV, encoding="utf-8")
    items = tmp_path / "items.tsv"
    items.write_text(ITEMS_TSV, encoding="utf-8")
    blobs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        assert main(["extract", "--articles", str(articles), "--items", str(items),
                     "--out", str(out)]) == 0
        blobs.append((out / "train.tsv").read_bytes())
    golden = GOLDEN_TRAIN.encode()
    ok = (blobs[0] == blobs[1] == golden
          and b"[TRG]" in golden
          and b"fuji" not in golden            # anchor != title filtered
          and b"by far" not in golden          # parenthesized span removed
          and b"aircraft\t" not in golden)     # empty description excluded
    report(6, "extractor golden files", ok)


def test_criterion_7_determinism(tmp_path):
    """Two runs with identical seed and config produce bit-identical
    checkpoints and logs."""
    data = tmp_path / "train.tsv"
    write_dataset(data, overfit_corpus())
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["train", "--train", str(data), "--out", str(out),
                   "--seed", "3", "--epochs", "6", "--batch-size", "8",
                   "--enc-width", "16", "--dec-width", "16", "--attn-width", "16",
                   "--emb-width", "16", "--quiet"])
        assert rc == 0
        blobs.append(((out / "model.ckpt").read_bytes(),
                      (out / "train_log.tsv").read_bytes()))
    report(7, "determinism", blobs[0] == blobs[1])


def test_criterion_8_stats_contract(tmp_path):
    """corpus_stats on the extractor fixture reproduces the hand count:
    2 phrases, 4 entries, mean lengths 1.25 / 10.75 / 5.50."""
    data = tmp_path / "train.tsv"
    data.write_text(GOLDEN_TRAIN, encoding="utf-8")
    stats = corpus_stats(load_dataset(data))
    ok = (stats.n_phrases == 2 and stats.n_entries == 4
          and f"{stats.phrase_len:.2f}" == "1.25"
          and f"{stats.context_len:.2f}" == "10.75"
          and f"{stats.desc_len:.2f}" == "5.50")
    text = format_stats([("train", stats)])
    for piece in ("2", "4", "1.25", "10.75", "5.50"):
        ok = ok and piece in text
    report(8, "corpus statistics contract", ok,
           f" (phrases={stats.n_phrases}, entries={stats.n_entries}, "
           f"means {stats.phrase_len:.2f}/{stats.context_len:.2f}/{stats.desc_len:.2f})")
