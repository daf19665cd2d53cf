import numpy as np
import pytest

from logcad.cli import RunConfig, main, resolve_config, build_parser
from logcad.data import Vocab, load_dataset, write_dataset
from logcad.model import load_model, save_checkpoint
from corpora import overfit_corpus

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


def _train_args(train_tsv, out, seed=0, epochs=6, extra=()):
    return ["train", "--train", str(train_tsv), "--out", str(out),
            "--seed", str(seed), "--epochs", str(epochs),
            "--enc-width", "16", "--dec-width", "16", "--attn-width", "16",
            "--emb-width", "16", "--dropout", "0", "--batch-size", "8",
            "--quiet", *extra]


class TestConfigResolution:
    def test_defaults(self):
        args = build_parser().parse_args(["train", "--train", "x", "--out", "y"])
        cfg = resolve_config(args)
        assert cfg == RunConfig()

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
