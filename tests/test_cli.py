import argparse
import errno
import os
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from io import StringIO
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import logcad.model
from logcad.cli import main, resolve_config, build_parser
from logcad.data import Entry, Vocab, load_dataset, load_embeddings, tokenize_with_marker, \
    write_dataset
from logcad.decode import DEFAULT_MAX_LEN, decode_batch
from logcad.model import ModelConfig, load_checkpoint, load_model, save_checkpoint
from logcad.tensor import Tensor
from logcad.train import TrainSettings
from corpora import PHRASES, overfit_corpus

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

# frozen output of the hand-applied extraction rules plus the seeded
# phrase-disjoint split (2 distinct phrases at 90/5/5 -> everything lands in
# train); line contents hand-derived from the extraction rules
GOLDEN_TRAIN = (
    "japan\ttokyo is the capital of [TRG] .\tisland country in east asia\n"
    "japan\ta sonic boom is produced when aircraft fly faster than sound near [TRG] .\t"
    "island country in east asia\n"
    "japan\tkyoto was the capital of [TRG] for centuries .\tisland country in east asia\n"
    "sonic boom\ta [TRG] is produced when aircraft fly faster than sound near japan .\t"
    "sound created by an object moving fast\n"
)


@pytest.fixture
def dump(tmp_path):
    articles = tmp_path / "articles.tsv"
    articles.write_text(ARTICLES_TSV, encoding="utf-8")
    items = tmp_path / "items.tsv"
    items.write_text(ITEMS_TSV, encoding="utf-8")
    return articles, items


def owner_defaults() -> dict:
    """Every tunable option's default as its owner holds it: ``ModelConfig``
    (``word_emb_width`` is the option ``emb_width``), ``TrainSettings``,
    the seed in ``cli.OPTIONS`` and the decoder, which is greedy unless asked
    for a beam."""
    model = {("emb_width" if k == "word_emb_width" else k): v
             for k, v in asdict(ModelConfig()).items()}
    return {**model, **asdict(TrainSettings()), "seed": 0, "beam": 1,
            "max_len": DEFAULT_MAX_LEN}


def _train_args(train_tsv, out, seed=0, epochs=6, extra=()):
    """``train`` at tiny widths; ``seed=None`` passes no ``--seed``."""
    return ["train", "--train", str(train_tsv), "--out", str(out),
            *(() if seed is None else ("--seed", str(seed))), "--epochs", str(epochs),
            "--enc-width", "16", "--dec-width", "16", "--attn-width", "16",
            "--emb-width", "16", "--dropout", "0", "--batch-size", "8",
            "--quiet", *extra]


class TestConfigResolution:
    def test_defaults(self):
        args = build_parser().parse_args(["train", "--train", "x", "--out", "y"])
        assert vars(resolve_config(args)) == owner_defaults()

    def test_flag_overrides_default(self):
        args = build_parser().parse_args(
            ["train", "--train", "x", "--out", "y", "--seed", "9", "--beam", "3"]
            if False else
            ["train", "--train", "x", "--out", "y", "--seed", "9"])
        assert resolve_config(args).seed == 9

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed=7\nvariant=global\nbatch-size=4\n# comment\n",
                            encoding="utf-8")
        args = build_parser().parse_args(
            ["train", "--train", "x", "--out", "y", "--config", str(cfg_file)])
        cfg = resolve_config(args)
        assert cfg.seed == 7 and cfg.variant == "global" and cfg.batch_size == 4
        args = build_parser().parse_args(
            ["train", "--train", "x", "--out", "y", "--config", str(cfg_file),
             "--seed", "11"])
        assert resolve_config(args).seed == 11  # flag wins

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("wings=2\n", encoding="utf-8")
        args = build_parser().parse_args(
            ["train", "--train", "x", "--out", "y", "--config", str(cfg_file)])
        with pytest.raises(ValueError, match="wings"):
            resolve_config(args)


class TestExtract:
    def test_golden_files_byte_identical_across_runs(self, dump, tmp_path, capsys):
        articles, items = dump
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            assert main(["extract", "--articles", str(articles), "--items", str(items),
                         "--out", str(out)]) == 0
            outs.append({f: (out / f).read_bytes()
                         for f in ("train.tsv", "valid.tsv", "test.tsv")})
        assert outs[0] == outs[1]
        assert outs[0]["train.tsv"] == GOLDEN_TRAIN.encode()
        assert outs[0]["valid.tsv"] == b"" and outs[0]["test.tsv"] == b""
        stdout = capsys.readouterr().out
        assert "emitted=4" in stdout
        assert "#Phrases" in stdout

    def test_empty_items_warns_and_produces_nothing(self, dump, tmp_path, capsys):
        articles, _ = dump
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["extract", "--articles", str(articles), "--items", str(empty),
                     "--out", str(out)]) == 0
        assert "emitted=0" in capsys.readouterr().out
        assert (out / "train.tsv").read_bytes() == b""

    def test_unreadable_input_fails(self, tmp_path, capsys):
        rc = main(["extract", "--articles", str(tmp_path / "nope.tsv"),
                   "--items", str(tmp_path / "nope2.tsv"), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestTrainCommand:
    def test_writes_checkpoint_vocab_and_log(self, tmp_path, capsys):
        data = tmp_path / "train.tsv"
        write_dataset(data, overfit_corpus())
        out = tmp_path / "run"
        assert main(_train_args(data, out)) == 0
        assert (out / "model.ckpt").exists()
        assert (out / "vocab.txt").exists()
        log = (out / "train_log.tsv").read_text(encoding="utf-8").splitlines()
        assert log[0] == "epoch\ttrain_loss\tvalid_loss"
        assert len(log) == 7
        assert "warning: no embedding file" in capsys.readouterr().err

    def test_determinism_bit_identical_outputs(self, tmp_path):
        data = tmp_path / "train.tsv"
        write_dataset(data, overfit_corpus())
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(_train_args(data, out, seed=3)) == 0
            blobs.append(((out / "model.ckpt").read_bytes(),
                          (out / "train_log.tsv").read_bytes()))
        assert blobs[0] == blobs[1]

    def test_resume_continues_epoch_counter(self, tmp_path):
        data = tmp_path / "train.tsv"
        write_dataset(data, overfit_corpus())
        out1 = tmp_path / "r1"
        assert main(_train_args(data, out1, epochs=2)) == 0
        out2 = tmp_path / "r2"
        assert main(_train_args(data, out2, epochs=2,
                                extra=["--resume", str(out1 / "model.ckpt")])) == 0
        log = (out2 / "train_log.tsv").read_text(encoding="utf-8").splitlines()
        assert log[1].startswith("3\t") and log[2].startswith("4\t")
        from logcad.model import load_checkpoint
        _, meta = load_checkpoint(out2 / "model.ckpt")
        assert meta["epoch"] == "4"

    def test_resume_refuses_model_options_that_disagree(self, tmp_path, capsys):
        data = tmp_path / "train.tsv"
        write_dataset(data, overfit_corpus())
        out1 = tmp_path / "r1"
        assert main(_train_args(data, out1, epochs=1, extra=["--variant", "global"])) == 0
        ckpt = out1 / "model.ckpt"
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("dec-layers=3\n", encoding="utf-8")
        capsys.readouterr()
        # refused before any data is read: this training file does not exist
        out2 = tmp_path / "r2"
        rc = main(_train_args(tmp_path / "missing.tsv", out2, epochs=1, extra=[
            "--resume", str(ckpt), "--variant", "log-cad", "--enc-width", "64",
            "--config", str(cfg_file)]))
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {ckpt}: --variant log-cad disagrees with the checkpoint's "
            "variant=global; --enc-width 64 disagrees with the checkpoint's enc_width=16; "
            "--dec-layers 3 disagrees with the checkpoint's dec_layers=2\n")
        assert captured.out == ""
        assert not out2.exists()
        # options that match the checkpoint are accepted
        assert main(_train_args(data, out2, epochs=1,
                                extra=["--resume", str(ckpt), "--variant", "global"])) == 0
        from logcad.model import load_checkpoint
        _, meta = load_checkpoint(out2 / "model.ckpt")
        assert meta["variant"] == "global" and meta["epoch"] == "2"

    def test_non_finite_weight_fails_with_message(self, tmp_path, capsys):
        data = tmp_path / "train.tsv"
        write_dataset(data, overfit_corpus())
        out1 = tmp_path / "r1"
        assert main(_train_args(data, out1, epochs=1)) == 0
        ckpt = out1 / "model.ckpt"
        model, meta = load_model(ckpt, Vocab.load(out1 / "vocab.txt"))
        model.params.out_w.data[0, 0] = np.nan
        save_checkpoint(ckpt, model.params, meta)
        capsys.readouterr()
        out2 = tmp_path / "r2"
        assert main(_train_args(data, out2, epochs=2, extra=["--resume", str(ckpt)])) == 1
        err = capsys.readouterr().err
        assert "\nerror: epoch 2, batch 1: loss nan, gradient norm nan; first non-finite " \
               "gradient in group word_emb (word_emb)\n" in err
        assert "Traceback" not in err
        assert not (out2 / "model.ckpt").exists()

    @pytest.mark.parametrize("flag,kind", [("--train", "training"), ("--valid", "validation")])
    def test_dataset_without_entries_refused_before_training(self, tmp_path, capsys, flag,
                                                             kind):
        data = tmp_path / "train.tsv"
        write_dataset(data, overfit_corpus())
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "out"
        assert main([*_train_args(data, out), flag, str(empty)]) == 1  # the last flag wins
        captured = capsys.readouterr()
        assert captured.err.endswith(f"error: {empty}: no valid {kind} entries\n")
        assert "Traceback" not in captured.err
        assert not out.exists()

    def test_missing_dataset_fails(self, tmp_path, capsys):
        assert main(_train_args(tmp_path / "missing.tsv", tmp_path / "out")) == 1
        assert "error" in capsys.readouterr().err

    def test_non_finite_embedding_fails(self, tmp_path, capsys):
        data = tmp_path / "train.tsv"
        write_dataset(data, overfit_corpus())
        emb = tmp_path / "bad.txt"
        emb.write_text("sonic " + " ".join(["0.5"] * 15 + ["nan"]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(_train_args(data, out, extra=["--emb", str(emb)])) == 1
        err = capsys.readouterr().err
        assert f"{emb}:1: non-finite" in err
        assert "Traceback" not in err
        assert not (out / "model.ckpt").exists()

    def test_inconsistent_config_rejected_before_training(self, tmp_path, capsys):
        data = tmp_path / "train.tsv"
        write_dataset(data, overfit_corpus())
        out = tmp_path / "out"
        rc = main(["train", "--train", str(data), "--out", str(out),
                   "--enc-width", "33", "--quiet"])  # odd width: no two halves
        assert rc == 1
        assert "even" in capsys.readouterr().err
        assert not (out / "model.ckpt").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--epochs", "-2", "epochs must be at least 0, got -2"),
        ("--lr", "-1", "lr must be a positive number, got -1.0"),
        ("--lr", "0", "lr must be a positive number, got 0.0"),
        ("--lr", "nan", "lr must be a positive number, got nan"),
        ("--clip-norm", "-0.5", "clip_norm must be at least 0 (0 disables clipping), got -0.5"),
        ("--patience", "-1", "patience must be at least 0, got -1"),
        ("--batch-size", "0", "batch_size must be at least 1, got 0"),
        # with no epoch to run, no batch would ever be cut
        ("--batch-size", "-3 --epochs 0", "batch_size must be at least 1, got -3"),
    ])
    def test_meaningless_training_option_rejected(self, tmp_path, capsys, flag, value,
                                                  message):
        data = tmp_path / "train.tsv"
        write_dataset(data, overfit_corpus())
        out = tmp_path / "out"
        assert main(_train_args(data, out, extra=[flag, *value.split()])) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_zero_epochs_and_zero_clip_norm_accepted(self, tmp_path, capsys):
        # --epochs 0 writes the untrained checkpoint; --clip-norm 0 means no clipping
        data = tmp_path / "train.tsv"
        write_dataset(data, overfit_corpus())
        out = tmp_path / "out"
        assert main(_train_args(data, out, epochs=0, extra=["--clip-norm", "0"])) == 0
        stdout = capsys.readouterr().out
        assert "trained 0 epoch(s); checkpoint -> " in stdout
        assert "nan" not in stdout  # no final training loss when no epoch ran
        assert (out / "model.ckpt").exists()

    def test_failed_checkpoint_write_keeps_the_old_checkpoint(self, tmp_path, capsys,
                                                              monkeypatch):
        # the disk fills on the third write, the first tensor block: resuming
        # into the run's own directory keeps the checkpoint it resumed from,
        # a fresh directory gets no checkpoint, and no partial file is left
        class FullDisk:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 3:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.fh.write(data)

        def full_disk_open(path, mode="r", *args, **kwargs):
            fh = open(path, mode, *args, **kwargs)
            return FullDisk(fh) if "w" in mode else fh

        data = tmp_path / "train.tsv"
        write_dataset(data, overfit_corpus())
        out1 = tmp_path / "r1"
        assert main(_train_args(data, out1, epochs=1)) == 0
        ckpt = out1 / "model.ckpt"
        before = ckpt.read_bytes()
        files = sorted(out1.iterdir())
        capsys.readouterr()
        monkeypatch.setattr(logcad.model, "open", full_disk_open, raising=False)
        for out in (out1, tmp_path / "r2"):
            assert main(_train_args(data, out, epochs=2, extra=["--resume", str(ckpt)])) == 1
            err = capsys.readouterr().err
            assert err.endswith(f"error: [Errno {errno.ENOSPC}] "
                                f"{os.strerror(errno.ENOSPC)}: {str(out / 'model.ckpt')!r}\n"), err
        monkeypatch.undo()
        assert ckpt.read_bytes() == before
        load_model(ckpt, Vocab.load(out1 / "vocab.txt"))
        assert sorted(out1.iterdir()) == files
        assert list((tmp_path / "r2").iterdir()) == []


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    data = root / "train.tsv"
    write_dataset(data, overfit_corpus())
    out = root / "run"
    # 500 epochs reproduce all 32 training descriptions; at 220 about half
    # still swapped their cue word, so a last-bit change of arithmetic
    # decided the golden strings below
    assert main(_train_args(data, out, epochs=500, seed=0)) == 0
    return data, out


@pytest.fixture(scope="module")
def seed3_run(tmp_path_factory):
    """A log-cad run trained from seed 3 with an embedding file that holds
    the phrases' first words only, so every phrase vector holds the UNK vector."""
    root = tmp_path_factory.mktemp("seed3")
    data = root / "train.tsv"
    write_dataset(data, overfit_corpus())
    emb = root / "vectors.txt"
    rng = np.random.default_rng(0)
    emb.write_text("".join(f"{w} " + " ".join(f"{v:.4f}" for v in rng.normal(size=16)) + "\n"
                           for w, _ in PHRASES), encoding="utf-8")
    out = root / "run"
    assert main(_train_args(data, out, seed=3, epochs=20, extra=["--emb", str(emb)])) == 0
    return data, emb, out


@pytest.mark.parametrize("command", ["evaluate", "describe"])
def test_decoding_uses_the_checkpoints_seed(seed3_run, tmp_path, capsys, command):
    # the UNK vector is drawn from the checkpoint's seed, whatever a --config says
    data, emb, out = seed3_run
    vocab = Vocab.load(out / "vocab.txt")
    model, _ = load_model(out / "model.ckpt", vocab, load_embeddings(emb))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=5\n", encoding="utf-8")
    common = ["--ckpt", str(out / "model.ckpt"), "--emb", str(emb), "--config", str(cfg)]
    if command == "evaluate":
        entries = load_dataset(data)
        report = tmp_path / "report"
        assert main(["evaluate", "--data", str(data), *common, "--out", str(report)]) == 0
        got = [row.split("\t")[2] for row in
               (report / "predictions.tsv").read_text(encoding="utf-8").splitlines()[1:]]
    else:
        sentence = "the [TRG] near the harbor was seen ."
        context, pos = tokenize_with_marker(sentence)
        entries = [Entry(list(phrase), context, (pos, pos), ["-"]) for phrase in PHRASES]
        capsys.readouterr()
        for phrase in PHRASES:
            assert main(["describe", *common, "--phrase", " ".join(phrase),
                         "--sentence", sentence]) == 0
        got = capsys.readouterr().out.splitlines()
    assert got == [" ".join(vocab.decode(ids))
                   for ids in decode_batch(model, entries, 1, DEFAULT_MAX_LEN)]


def test_resume_keeps_the_checkpoints_seed(seed3_run, tmp_path):
    data, emb, out = seed3_run
    blobs = []
    for name, seed in (("without", None), ("with", 3)):
        resumed = tmp_path / name
        assert main(_train_args(data, resumed, seed=seed, epochs=2, extra=[
            "--emb", str(emb), "--resume", str(out / "model.ckpt")])) == 0
        blobs.append([(resumed / f).read_bytes() for f in ("model.ckpt", "train_log.tsv")])
    assert blobs[0] == blobs[1]


def test_resume_refuses_another_seed_before_reading_data(seed3_run, tmp_path, capsys):
    _data, _emb, out = seed3_run
    ckpt = out / "model.ckpt"
    resumed = tmp_path / "resumed"
    capsys.readouterr()
    # this training file does not exist
    assert main(_train_args(tmp_path / "missing.tsv", resumed, seed=4, epochs=1,
                            extra=["--resume", str(ckpt)])) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {ckpt}: --seed 4 disagrees with the checkpoint's seed=3\n"
    assert captured.out == ""
    assert not resumed.exists()


class TestDescribeCommand:
    def test_marker_passthrough(self, trained_run, capsys):
        _, out = trained_run
        rc = main(["describe", "--ckpt", str(out / "model.ckpt"),
                   "--phrase", "blue falcon",
                   "--sentence", "the [TRG] near the harbor was seen ."])
        assert rc == 0
        text = capsys.readouterr().out.strip()
        assert text == "a harbor kind0 of note"

    def test_phrase_located_in_sentence(self, trained_run, capsys):
        _, out = trained_run
        rc = main(["describe", "--ckpt", str(out / "model.ckpt"),
                   "--phrase", "blue falcon",
                   "--sentence", "the blue falcon near the winter was seen ."])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "a winter kind0 of note"

    def test_repeated_phrase_warns_and_uses_first(self, trained_run, capsys):
        _, out = trained_run
        rc = main(["describe", "--ckpt", str(out / "model.ckpt"),
                   "--phrase", "gold ribbon",
                   "--sentence", "the gold ribbon near the gold ribbon was seen ."])
        assert rc == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err and "first occurrence" in captured.err

    def test_phrase_not_found_fails(self, trained_run, capsys):
        _, out = trained_run
        rc = main(["describe", "--ckpt", str(out / "model.ckpt"),
                   "--phrase", "purple zebra",
                   "--sentence", "nothing matches here ."])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("fault,named", [
        ("no variant meta line", "variant"),
        ("truncated data", "out.b"),
        ("v1 format", "v1 (per-gate LSTM tensors) is no longer read"),
        ("non-UTF-8 manifest", "not UTF-8")])
    def test_damaged_checkpoint_fails_cleanly(self, trained_run, tmp_path, capsys,
                                              fault, named):
        _, out = trained_run
        blob = (out / "model.ckpt").read_bytes()
        if fault == "no variant meta line":
            assert b"\nmeta variant=log-cad\n" in blob
            blob = blob.replace(b"\nmeta variant=log-cad\n", b"\n", 1)
        elif fault == "truncated data":
            blob = blob[:-4]
        elif fault == "v1 format":
            assert blob.startswith(b"logcad-checkpoint v2\n")
            blob = b"logcad-checkpoint v1\n" + blob[21:]
        else:
            blob = blob[:30] + b"\xff" + blob[31:]
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(blob)
        (tmp_path / "vocab.txt").write_bytes((out / "vocab.txt").read_bytes())
        rc = main(["describe", "--ckpt", str(ckpt), "--phrase", "blue falcon",
                   "--sentence", "the [TRG] near the harbor was seen ."])
        assert rc == 1
        err = capsys.readouterr().err
        assert named in err
        assert str(ckpt) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["evaluate", "describe"])
    def test_wrong_vocab_file_fails_cleanly(self, trained_run, capsys, command):
        # a dataset passed as --vocab: the error names that file
        data, out = trained_run
        inputs = {"evaluate": ["--data", str(data)],
                  "describe": ["--phrase", "blue falcon",
                               "--sentence", "the [TRG] near the harbor was seen ."]}
        capsys.readouterr()
        rc = main([command, "--ckpt", str(out / "model.ckpt"), "--vocab", str(data),
                   *inputs[command]])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: {data}: Vocab: token list must start with the "
                                "special tokens\n")
        assert captured.out == ""

    def test_resume_from_checkpoint_without_variant_fails_cleanly(self, trained_run,
                                                                  tmp_path, capsys):
        data, out = trained_run
        blob = (out / "model.ckpt").read_bytes()
        assert b"\nmeta variant=log-cad\n" in blob
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(blob.replace(b"\nmeta variant=log-cad\n", b"\n", 1))
        (tmp_path / "vocab.txt").write_bytes((out / "vocab.txt").read_bytes())
        capsys.readouterr()
        rc = main(_train_args(data, tmp_path / "resumed", epochs=1,
                              extra=["--resume", str(ckpt)]))
        assert rc == 1
        err = capsys.readouterr().err
        assert f"error: {ckpt}: checkpoint meta has no 'variant'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "resumed" / "model.ckpt").exists()


class TestEvaluateCommand:
    def test_reports_and_files(self, trained_run, tmp_path, capsys):
        data, out = trained_run
        report = tmp_path / "report"
        rc = main(["evaluate", "--data", str(data), "--ckpt", str(out / "model.ckpt"),
                   "--out", str(report)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "corpus BLEU" in stdout
        scores = (report / "scores.tsv").read_text(encoding="utf-8")
        corpus = float(scores.splitlines()[1].split("\t")[1])
        assert corpus > 50.0  # small smoke model still fits most of its data
        assert (report / "predictions.tsv").exists()
        assert (report / "bleu_by_senses.tsv").exists()
        assert (report / "bleu_by_unk_ratio.tsv").exists()
        assert (report / "bleu_by_context_len.tsv").exists()

    def test_beam_flag(self, trained_run, capsys):
        data, out = trained_run
        rc = main(["evaluate", "--data", str(data), "--ckpt", str(out / "model.ckpt"),
                   "--beam", "3"])
        assert rc == 0
        assert "beam=3" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["evaluate", "describe"])
    @pytest.mark.parametrize("beam", ["0", "-2"])
    def test_beam_below_one_rejected(self, trained_run, capsys, command, beam):
        data, out = trained_run
        inputs = {"evaluate": ["--data", str(data)],
                  "describe": ["--phrase", "blue falcon",
                               "--sentence", "the [TRG] near the harbor was seen ."]}
        rc = main([command, "--ckpt", str(out / "model.ckpt"), "--beam", beam,
                   *inputs[command]])
        assert rc == 1
        captured = capsys.readouterr()
        assert f"beam width must be at least 1, got {beam}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("damaged", [False, True])
    def test_data_without_entries_refused_before_loading(self, trained_run, tmp_path, capsys,
                                                         damaged):
        # the entries are checked before the checkpoint is read, so an
        # entry-less TSV is refused even beside a checkpoint that cannot load
        _data, out = trained_run
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        ckpt = out / "model.ckpt"
        if damaged:
            ckpt = tmp_path / "damaged.ckpt"
            ckpt.write_bytes(b"not a checkpoint\n")
        report = tmp_path / "report"
        assert main(["evaluate", "--data", str(empty), "--ckpt", str(ckpt),
                     "--vocab", str(out / "vocab.txt"), "--out", str(report)]) == 1
        captured = capsys.readouterr()
        assert captured.err.endswith(f"error: {empty}: no entries to evaluate\n")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not report.exists()


@pytest.mark.parametrize("command", ["extract", "train", "evaluate", "describe"])
def test_missing_input_file_fails_cleanly(trained_run, tmp_path, capsys, command):
    data, out = trained_run
    missing = tmp_path / "missing"
    argv = {
        "extract": ["extract", "--articles", missing, "--items", data, "--out", tmp_path / "o"],
        "train": _train_args(missing, tmp_path / "o"),
        "evaluate": ["evaluate", "--data", missing, "--ckpt", out / "model.ckpt"],
        "describe": ["describe", "--ckpt", missing, "--vocab", out / "vocab.txt",
                     "--phrase", "blue falcon", "--sentence", "the [TRG] was seen ."],
    }[command]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert str(missing) in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,flags,message", [
    ("train", ["--seed", "-1"], "seed must be at least 0, got -1"),
    ("extract", ["--seed", "-2"], "seed must be at least 0, got -2"),
    ("train", ["--vocab-size", "3"], "vocab_size must be at least 5 (the special tokens), got 3"),
])
def test_option_refused_before_any_file_is_read(tmp_path, capsys, command, flags, message):
    # the input files do not exist: the option's owner refuses it first
    missing = tmp_path / "missing"
    argv = {"train": _train_args(missing, tmp_path / "o"),
            "extract": ["extract", "--articles", missing, "--items", missing,
                        "--out", tmp_path / "o"]}[command]
    assert main([str(a) for a in argv] + flags) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


def _non_utf8_copy(src, dst, line):
    """``dst`` holds ``src`` with a 0xff byte at the start of line ``line``."""
    lines = src.read_bytes().splitlines(keepends=True)
    lines[line - 1] = b"\xff" + lines[line - 1]
    dst.write_bytes(b"".join(lines))
    return dst


@pytest.mark.parametrize("reader", ["dataset", "embeddings", "articles", "items", "config"])
def test_non_utf8_text_file_names_path_and_line(trained_run, dump, tmp_path, capsys, reader):
    data, out = trained_run
    articles, items = dump
    emb = tmp_path / "vectors.txt"
    emb.write_text("".join(f"w{i} 0.1 0.2\n" for i in range(4)), encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=3\nbeam=2\nmax_len=5\n", encoding="utf-8")
    bad = tmp_path / "bad"
    source, argv = {
        "dataset": (data, ["evaluate", "--data", bad, "--ckpt", out / "model.ckpt"]),
        "embeddings": (emb, ["evaluate", "--data", data, "--ckpt", out / "model.ckpt",
                             "--emb", bad]),
        "articles": (articles, ["extract", "--articles", bad, "--items", items,
                                "--out", tmp_path / "o"]),
        "items": (items, ["extract", "--articles", articles, "--items", bad,
                          "--out", tmp_path / "o"]),
        "config": (cfg, ["evaluate", "--data", data, "--ckpt", out / "model.ckpt",
                         "--config", bad]),
    }[reader]
    _non_utf8_copy(source, bad, line=3)
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {bad}:3: not UTF-8 (invalid start byte: byte 0xff "
                            "at column 1)\n")
    assert captured.out == ""


@pytest.mark.parametrize("line,value,kind", [("enc_width=abc", "'abc'", "an integer"),
                                             ("lr = 1e-3x", "'1e-3x'", "a number")])
def test_bad_config_value_names_file_line_and_key(tmp_path, capsys, line, value, kind):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# options\nseed=3\n{line}\n", encoding="utf-8")
    rc = main(["train", "--train", str(tmp_path / "unread.tsv"), "--out", str(tmp_path / "o"),
               "--config", str(cfg)])
    assert rc == 1
    key = line.split("=")[0].strip()
    assert capsys.readouterr().err == f"error: {cfg}:3: {key}={value} is not {kind}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["evaluate", "describe", "train"])
def test_checkpoint_directory_named(trained_run, tmp_path, capsys, command):
    data, out = trained_run
    flag = "--resume" if command == "train" else "--ckpt"
    inputs = {"evaluate": ["--data", str(data)],
              "describe": ["--phrase", "blue falcon",
                           "--sentence", "the [TRG] near the harbor was seen ."],
              "train": ["--train", str(data), "--out", str(tmp_path / "o")]}
    capsys.readouterr()
    assert main([command, flag, str(out), *inputs[command]]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {out}: is a directory; {flag} takes the checkpoint "
                            f"file, such as {out / 'model.ckpt'}\n")
    assert captured.out == ""
    assert not (tmp_path / "o").exists()


# each command's option strings, in the order its usage line lists them
CLI_SURFACE = {
    "extract": "--config --seed --articles --items --out",
    "train": "--config --seed --variant --enc-layers --enc-width --dec-layers --dec-width "
             "--attn-width --emb-width --vocab-size --dropout --train --valid --emb --out "
             "--epochs --batch-size --lr --clip-norm --patience --resume --quiet",
    "evaluate": "--config --data --ckpt --vocab --emb --beam --max-len --out",
    "describe": "--config --ckpt --vocab --emb --phrase --sentence --beam --max-len",
}


def _commands() -> dict:
    parser = build_parser()
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_cli_surface_is_pinned():
    commands = _commands()
    assert sorted(commands) == sorted(CLI_SURFACE)
    for name, p in commands.items():
        options = [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
        assert options == CLI_SURFACE[name].split(), name


def test_help_shows_the_owners_defaults():
    defaults = owner_defaults()
    for name, p in _commands().items():
        tunables = {a.option_strings[0]: a.dest for a in p._actions if a.dest in defaults}
        # a model's seed is set when train creates it; evaluate and describe draw nothing
        assert ("--seed" in tunables) == (name in ("extract", "train")), name
        # after the usage block, every option's entry starts a line with "  -"
        text = p.format_help().split("\n\n", 1)[1]
        entries = {chunk.split()[0]: " ".join(chunk.split())
                   for chunk in re.split(r"\n(?=  -)", text) if chunk.strip().startswith("-")}
        for flag, dest in tunables.items():
            assert f"(default {defaults[dest]})" in entries[flag], (name, flag)


@pytest.mark.parametrize("command", ["evaluate", "describe"])
def test_every_option_says_what_it_is(command):
    # an option's help text says more than its default
    for action in _commands()[command]._actions:
        text = re.sub(r"\(default [^)]*\)", "", action.help or "").strip()
        assert text, (command, action.option_strings)


def _with_meta(blob: bytes, key: str, value: str) -> bytes:
    """``blob``, a checkpoint, with meta ``key`` set to ``value``."""
    start = blob.index(f"\nmeta {key}=".encode()) + 1
    end = blob.index(b"\n", start)
    return blob[:start] + f"meta {key}={value}".encode() + blob[end:]


@pytest.mark.parametrize("key,value,command", [("epoch", "x", "train"), ("seed", "z", "train"),
                                               ("seed", "z", "evaluate"),
                                               ("seed", "z", "describe"),
                                               ("epoch", "-7", "train"),
                                               ("seed", "-1", "train"),
                                               ("seed", "-1", "describe")])
def test_non_integer_counter_in_checkpoint_meta_named(trained_run, tmp_path, capsys,
                                                      key, value, command):
    # a negative counter is refused the same way, before any data is read
    data, out = trained_run
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(_with_meta((out / "model.ckpt").read_bytes(), key, value))
    (tmp_path / "vocab.txt").write_bytes((out / "vocab.txt").read_bytes())
    resumed = tmp_path / "resumed"
    argv = {
        # refused before any data is read: this training file does not exist
        "train": _train_args(tmp_path / "missing.tsv", resumed, extra=["--resume", str(ckpt)]),
        "evaluate": ["evaluate", "--data", str(data), "--ckpt", str(ckpt)],
        "describe": ["describe", "--ckpt", str(ckpt), "--phrase", "blue falcon",
                     "--sentence", "the [TRG] near the harbor was seen ."],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    problem = f"{key}={value} must be at least 0" if value.startswith("-") \
        else f"{key}={value!r} is not an integer"
    assert captured.err == f"error: {ckpt}: {problem}\n"
    assert captured.out == ""
    assert not resumed.exists()


@pytest.mark.parametrize("command", ["evaluate", "describe", "train"])
def test_vocab_of_another_size_names_the_vocab_file(trained_run, tmp_path, capsys, command):
    data, out = trained_run
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes((out / "model.ckpt").read_bytes())
    tokens = (out / "vocab.txt").read_text(encoding="utf-8").splitlines()
    vocab = tmp_path / "vocab.txt"  # beside the checkpoint, where --resume reads it
    vocab.write_text("".join(t + "\n" for t in tokens[:-1]), encoding="utf-8")
    resumed = tmp_path / "resumed"
    argv = {
        "train": _train_args(data, resumed, extra=["--resume", str(ckpt)]),
        "evaluate": ["evaluate", "--data", str(data), "--ckpt", str(ckpt), "--vocab", str(vocab)],
        "describe": ["describe", "--ckpt", str(ckpt), "--phrase", "blue falcon",
                     "--sentence", "the [TRG] near the harbor was seen ."],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == (
        f"error: {vocab}: {len(tokens) - 1} tokens, but the checkpoint was trained with "
        f"{len(tokens)}")
    assert captured.out == ""
    assert not resumed.exists()


def _separate_gate_layout(src, dst) -> None:
    """Write checkpoint ``src`` to ``dst`` with the fusion gate's update and
    reset weights as four separate tensors, ``gate.w_z``, ``gate.b_z``,
    ``gate.w_r`` and ``gate.b_r``, in place of the fused ``w_zr``/``b_zr``."""
    tensors, meta = load_checkpoint(src)
    state = tensors["gate.w_s"].shape[1]
    named = []
    for name, arr in tensors.items():
        if name == "gate.w_zr":
            named += [("gate.w_z", arr[:, :state]), ("gate.b_z", tensors["gate.b_zr"][:state]),
                      ("gate.w_r", arr[:, state:]), ("gate.b_r", tensors["gate.b_zr"][state:])]
        elif name != "gate.b_zr":
            named.append((name, arr))
    save_checkpoint(dst, SimpleNamespace(named=lambda: ((n, Tensor(a)) for n, a in named)), meta)


@pytest.mark.parametrize("command", ["describe", "train"])
def test_checkpoint_with_separate_gate_tensors_refused(trained_run, tmp_path, capsys, command):
    data, out = trained_run
    ckpt = tmp_path / "model.ckpt"
    _separate_gate_layout(out / "model.ckpt", ckpt)
    (tmp_path / "vocab.txt").write_bytes((out / "vocab.txt").read_bytes())
    resumed = tmp_path / "resumed"
    argv = {
        "train": _train_args(data, resumed, epochs=1, extra=["--resume", str(ckpt)]),
        "describe": ["describe", "--ckpt", str(ckpt), "--phrase", "blue falcon",
                     "--sentence", "the [TRG] near the harbor was seen ."],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == f"error: {ckpt}: checkpoint missing tensor gate.w_zr"
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not resumed.exists()


@pytest.mark.parametrize("command", ["evaluate", "train"])
def test_embedding_of_another_width_names_the_embedding_file(trained_run, tmp_path, capsys,
                                                             command):
    data, out = trained_run
    emb = tmp_path / "vectors.txt"
    emb.write_text("sonic 0.1 0.2 0.3\n", encoding="utf-8")
    argv = {"evaluate": ["evaluate", "--data", str(data), "--ckpt", str(out / "model.ckpt")],
            "train": _train_args(data, tmp_path / "o")}[command]
    assert main([*argv, "--emb", str(emb)]) == 1
    assert capsys.readouterr().err == f"error: {emb}: embedding width 3 != word_emb_width 16\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line,message", [
    ("enc_width=33", "enc_width must be even (two encoder directions)"),
    ("variant=huge", "unknown variant 'huge'; expected one of "
                     "('global', 'local', 'i-attention', 'log-cad')"),
    ("epochs=-1", "epochs must be at least 0, got -1"),
    ("beam=0", "beam width must be at least 1, got 0"),
    ("max-len=0", "max_len must be at least 1, got 0")])
def test_config_value_its_owner_refuses_names_file_and_line(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed=3\n{line}\n", encoding="utf-8")
    rc = main(["train", "--train", str(tmp_path / "unread.tsv"), "--out", str(tmp_path / "o"),
               "--config", str(cfg)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: {message}\n"
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# fuzzing every file the CLI reads

FUZZ_TARGETS = ("config", "train-config", "vocab", "embeddings", "dataset", "checkpoint",
                "articles", "items")


@pytest.fixture(scope="module")
def fuzz_inputs(trained_run, tmp_path_factory):
    """Valid files of each kind the CLI reads, and the argv reading each one
    as ``{bad}``: the mutated copy."""
    data, out = trained_run
    root = tmp_path_factory.mktemp("fuzz")
    small = root / "small.tsv"
    small.write_text("".join(data.read_text(encoding="utf-8").splitlines(keepends=True)[:4]),
                     encoding="utf-8")
    emb = root / "vectors.txt"
    emb.write_text("3 16\n" + "".join(f"{w} " + " ".join(f"0.{i + k}" for k in range(16)) + "\n"
                                      for i, w in enumerate(("blue", "gold", "falcon"))),
                   encoding="utf-8")
    evaluate = ["evaluate", "--data", small, "--ckpt", out / "model.ckpt", "--max-len", "4"]
    articles, items = root / "articles.tsv", root / "items.tsv"
    articles.write_text(ARTICLES_TSV, encoding="utf-8")
    items.write_text(ITEMS_TSV, encoding="utf-8")
    files = {
        "config": ("seed=3\nbeam=2\nmax_len=5\n".encode(), [*evaluate, "--config", "{bad}"]),
        "train-config": (b"variant=global\nenc_width=8\ndec_width=8\nemb_width=8\n"
                         b"batch-size=4\nepochs=1\ndropout=0\n",
                         # the flag bounds the run if the config's epochs line is lost
                         ["train", "--train", small, "--out", "{out}", "--quiet",
                          "--epochs", "1", "--config", "{bad}"]),
        "vocab": ((out / "vocab.txt").read_bytes(), [*evaluate, "--vocab", "{bad}"]),
        "embeddings": (emb.read_bytes(), [*evaluate, "--emb", "{bad}"]),
        "dataset": (small.read_bytes(),
                    ["evaluate", "--data", "{bad}", "--ckpt", out / "model.ckpt",
                     "--max-len", "4"]),
        "checkpoint": ((out / "model.ckpt").read_bytes(),
                       ["evaluate", "--data", small, "--ckpt", "{bad}", "--vocab",
                        out / "vocab.txt", "--max-len", "4"]),
        "articles": (articles.read_bytes(),
                     ["extract", "--articles", "{bad}", "--items", items, "--out", "{out}"]),
        "items": (items.read_bytes(),
                  ["extract", "--articles", articles, "--items", "{bad}", "--out", "{out}"]),
    }
    return {kind: (blob, [str(a) for a in argv]) for kind, (blob, argv) in files.items()}


@st.composite
def mutations(draw, blob: bytes):
    """``blob`` with one byte flipped, one tab, newline or non-UTF-8 byte
    inserted, or its tail cut off. Half the positions fall in the first 400
    bytes: a checkpoint's manifest, the rest of it being weights."""
    pos = draw(st.one_of(st.integers(0, min(len(blob), 400)), st.integers(0, len(blob))))
    kind = draw(st.sampled_from(("flip", "tab", "newline", "non-utf8", "truncate")))
    if kind == "truncate":
        return blob[:pos]
    if kind == "flip":
        pos = min(pos, len(blob) - 1)
        return blob[:pos] + bytes([blob[pos] ^ draw(st.integers(1, 255))]) + blob[pos + 1:]
    insert = {"tab": b"\t", "newline": b"\n",
              "non-utf8": bytes([draw(st.integers(0x80, 0xff))])}[kind]
    return blob[:pos] + insert + blob[pos:]


def _first_non_utf8_line(blob: bytes):
    for lineno, raw in enumerate(blob.split(b"\n"), start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            return lineno
    return None


@pytest.mark.parametrize("target", FUZZ_TARGETS)
def test_mutated_input_exits_cleanly_naming_the_file(fuzz_inputs, target):
    """Any one mutation of a file the CLI reads exits 0 or 1, never with a
    traceback; exit 1 names the file, and its line where a line is at fault.
    A flipped weight that still loads may exit 0, and its non-finite values
    may warn, as the CLI does outside the test suite."""
    blob, template = fuzz_inputs[target]

    @settings(max_examples=15 if target == "train-config" else 40, deadline=None,
              derandomize=True, database=None)
    @given(mutated=mutations(blob))
    def run(mutated):
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / ("model.ckpt" if target == "checkpoint" else "bad")
            bad.write_bytes(mutated)
            argv = [a.replace("{bad}", str(bad)).replace("{out}", str(Path(tmp) / "o"))
                    for a in template]
            err = StringIO()
            with redirect_stdout(StringIO()), redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("default")
                rc = main(argv)
        err = err.getvalue()
        assert rc in (0, 1), err
        assert "Traceback" not in err
        if rc == 1:
            errors = [line for line in err.splitlines() if line.startswith("error: ")]
            assert len(errors) == 1 and str(bad) in errors[0], err
            line = None if target == "checkpoint" else _first_non_utf8_line(mutated)
            if line is not None:
                assert errors[0].startswith(f"error: {bad}:{line}: not UTF-8 ("), err
            if target.endswith("config"):  # every config error is about one line
                assert errors[0].startswith(f"error: {bad}:"), err
                assert errors[0][len(f"error: {bad}:"):].split(":")[0].isdigit(), err

    run()
