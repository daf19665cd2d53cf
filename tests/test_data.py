from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logcad.data import (
    Entry,
    EmbeddingTable,
    Vocab,
    build_vocab,
    corpus_stats,
    format_stats,
    load_dataset,
    load_embeddings,
    make_batch,
    make_batches,
    read_entries,
    tokenize,
    tokenize_with_marker,
    write_dataset,
)


class TestTokenize:
    def test_punctuation_detached(self):
        assert tokenize("Sonic Boom.") == ["sonic", "boom", "."]

    def test_empty(self):
        assert tokenize("") == []

    def test_apostrophe(self):
        # pinned: the apostrophe is a detached token
        assert tokenize("o'neill") == ["o", "'", "neill"]

    def test_mixed(self):
        assert tokenize('He said: "go!"') == ["he", "said", ":", '"', "go", "!", '"']

    @given(st.text(max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_idempotent_on_joined_output(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once

    def test_marker_survives(self):
        tokens, pos = tokenize_with_marker("the shock wave may be caused by [TRG] or by explosion")
        assert tokens[pos] == "[TRG]"
        assert pos == 7
        with pytest.raises(ValueError):
            tokenize_with_marker("no marker here")
        with pytest.raises(ValueError):
            tokenize_with_marker("[TRG] twice [TRG]")


class TestEmbeddings:
    def _write(self, tmp_path, text):
        p = tmp_path / "vecs.txt"
        p.write_text(text, encoding="utf-8")
        return p

    def test_parse_fidelity(self, tmp_path):
        p = self._write(tmp_path, "2 3\nsonic 0.1 -0.25 3.0\nboom 1 2 3\n")
        table = load_embeddings(p)
        assert table.width == 3
        npt.assert_allclose(table.vectors["sonic"], [0.1, -0.25, 3.0])
        npt.assert_allclose(table.vectors["boom"], [1.0, 2.0, 3.0])

    def test_headerless_file(self, tmp_path):
        table = load_embeddings(self._write(tmp_path, "a 1.0 2.0\nb 3.0 4.0\n"))
        assert table.width == 2 and len(table.vectors) == 2

    def test_inconsistent_width_names_line(self, tmp_path):
        p = self._write(tmp_path, "a 1.0 2.0\nb 3.0\n")
        with pytest.raises(ValueError, match=":2"):
            load_embeddings(p)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_names_line(self, tmp_path, bad):
        p = self._write(tmp_path, f"a 1.0 2.0\nb 3.0 {bad}\n")
        with pytest.raises(ValueError, match=r"vecs\.txt:2: non-finite"):
            load_embeddings(p)

    def test_non_numeric_value_names_line_and_token(self, tmp_path):
        p = self._write(tmp_path, "a 1.0 2.0\nsonic 0.5 abc\n")
        with pytest.raises(ValueError, match=r"vecs\.txt:2: .*'abc'.*'sonic'"):
            load_embeddings(p)


SAMPLE = (
    "sonic boom\tthe shock wave may be caused by [TRG] or by explosion\t"
    "sound created by an object moving fast\n"
)


class TestDataset:
    def test_sample_line(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text(SAMPLE, encoding="utf-8")
        entries = load_dataset(p)
        assert len(entries) == 1
        e = entries[0]
        assert e.phrase == ["sonic", "boom"]
        assert e.context[e.span[0]] == "[TRG]"
        assert e.span == (7, 7)
        assert e.description == ["sound", "created", "by", "an", "object", "moving", "fast"]

    def test_invalid_lines_rejected_not_fatal(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text(
            SAMPLE
            + "bad\tno marker here\tdesc\n"      # no [TRG]
            + "only\ttwo fields\n"               # missing field
            + "x\tsome [TRG] context\t\n"        # empty description
            + SAMPLE,
            encoding="utf-8",
        )
        entries, rejected = read_entries(p)
        assert len(entries) == 2
        assert rejected == ["line 2: expected exactly one [TRG] marker, found 0",
                            "line 3: expected 3 tab-separated fields, got 2",
                            "line 4: Entry: description must be nonempty"]

    def test_rejected_lines_warned_like_the_cli(self, tmp_path, capsys):
        p = tmp_path / "d.tsv"
        p.write_text(SAMPLE + "only\ttwo fields\n" + SAMPLE + "bad\tno marker\tdesc\n",
                     encoding="utf-8")
        assert len(load_dataset(p)) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"warning: {p}: rejected 2 malformed line(s); first at "
                                "line 2: expected 3 tab-separated fields, got 2\n")
        assert captured.out == ""

    def test_order_preserved(self, tmp_path):
        lines = [
            "a\tx [TRG] y\tfirst one\n",
            "b\t[TRG] z\tsecond one\n",
            "c\tw [TRG]\tthird one\n",
        ]
        p = tmp_path / "d.tsv"
        p.write_text("".join(lines), encoding="utf-8")
        entries = load_dataset(p)
        assert [e.phrase for e in entries] == [["a"], ["b"], ["c"]]

    def test_round_trip(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text(SAMPLE + "o'neill\tartist [TRG] painted (it).\tirish painter\n",
                     encoding="utf-8")
        entries = load_dataset(p)
        q = tmp_path / "rt.tsv"
        write_dataset(q, entries)
        assert load_dataset(q) == entries


class TestVocab:
    def _entries(self):
        return [
            Entry(["p"], ["a", "[TRG]"], (1, 1), ["red", "fish", "red"]),
            Entry(["q"], ["[TRG]"], (0, 0), ["blue", "fish"]),
        ]

    def test_specials_and_frequency_order(self):
        v = build_vocab(self._entries(), size=100)
        assert v.tokens[:5] == list(Vocab.SPECIALS)
        # fish(2) == red(2) tie -> lexicographic; blue(1) last
        assert v.tokens[5:] == ["fish", "red", "blue"]

    def test_size_cap(self):
        v = build_vocab(self._entries(), size=6)
        assert len(v) == 6
        assert v.tokens[5] == "fish"

    def test_encode_decode(self):
        v = build_vocab(self._entries(), size=100)
        ids = v.encode(["red", "whale", "[TRG]"])
        assert ids[1] == Vocab.UNK and ids[2] == Vocab.TRG
        assert v.decode(ids) == ["red", "[UNK]", "[TRG]"]

    def test_save_load(self, tmp_path):
        v = build_vocab(self._entries(), size=100)
        v.save(tmp_path / "vocab.txt")
        assert Vocab.load(tmp_path / "vocab.txt").tokens == v.tokens

    @pytest.mark.parametrize("tokens,twice", [("cat dog cat", "cat"),
                                              ("cat dog cat [UNK]", "[UNK]")])
    def test_token_listed_twice_refused(self, tmp_path, tokens, twice):
        # a repeated token would give the tokens after it ids that are not
        # the rows the model trained, and encode would map it to one of them
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join([*Vocab.SPECIALS, *tokens.split()]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as e:
            Vocab.load(path)
        assert str(e.value) == f"{path}: Vocab: token {twice!r} is listed twice"

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(["a", "b", "ab", "B", "ba", "a b", "é", "z9",
                                              "[UNK]", "<eos>"]), min_size=1, max_size=12),
                    max_size=8),
           st.integers(0, 16))
    def test_frequency_then_lexicographic_order(self, descriptions, size):
        entries = [Entry(["p"], ["[TRG]"], (0, 0), d) for d in descriptions]
        counts = Counter(t for d in descriptions for t in d if t not in Vocab.SPECIALS)
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        expected = [t for t, _ in ranked[: max(size - len(Vocab.SPECIALS), 0)]]
        assert build_vocab(entries, size).tokens == list(Vocab.SPECIALS) + expected


class TestStats:
    def test_distinct_phrases(self):
        entries = [
            Entry(["a"], ["x", "[TRG]"], (1, 1), ["d", "e"]),
            Entry(["a"], ["[TRG]", "y", "z"], (0, 0), ["f"]),
        ]
        s = corpus_stats(entries)
        assert s.n_phrases == 1 and s.n_entries == 2

    def test_single_entry_means(self):
        e = Entry(["a"], ["1", "2", "3", "[TRG]", "5"], (3, 3), ["d"])
        s = corpus_stats([e])
        assert s.context_len == pytest.approx(5.0)
        assert f"{s.context_len:.2f}" == "5.00"

    def test_synthetic_recount(self):
        rng = np.random.default_rng(0)
        entries = []
        for _ in range(10):
            nc = int(rng.integers(2, 9))
            nd = int(rng.integers(1, 7))
            np_ = int(rng.integers(1, 4))
            ctx = [f"c{i}" for i in range(nc - 1)]
            pos = int(rng.integers(0, nc))
            ctx.insert(pos, "[TRG]")
            entries.append(Entry([f"p{rng.integers(0, 4)}" for _ in range(np_)],
                                 ctx, (pos, pos), [f"d{i}" for i in range(nd)]))
        s = corpus_stats(entries)
        # independent spreadsheet-style recount
        assert s.n_entries == len(entries)
        assert s.n_phrases == len({tuple(e.phrase) for e in entries})
        assert s.phrase_len == pytest.approx(np.mean([len(e.phrase) for e in entries]))
        assert s.context_len == pytest.approx(np.mean([len(e.context) for e in entries]))
        assert s.desc_len == pytest.approx(np.mean([len(e.description) for e in entries]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            corpus_stats([])

    def test_format_stats_aligned(self):
        s = corpus_stats([Entry(["a"], ["[TRG]", "x"], (0, 0), ["d", "d2"])])
        text = format_stats([("Train", s)])
        lines = text.splitlines()
        assert lines[0].startswith("Corpus")
        assert "1" in lines[1] and "2.00" in lines[1]


def _random_entries(n, seed):
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(n):
        nc = int(rng.integers(1, 12))
        ctx = [f"w{rng.integers(0, 20)}" for _ in range(nc)]
        pos = int(rng.integers(0, nc))
        ctx[pos] = "[TRG]"
        entries.append(Entry(
            [f"p{i % 7}"], ctx, (pos, pos),
            [f"d{rng.integers(0, 15)}" for _ in range(int(rng.integers(1, 8)))],
        ))
    return entries


class TestBatches:
    def test_partition_sizes(self):
        entries = _random_entries(10, 1)
        vocab = build_vocab(entries, 100)
        batches = make_batches(entries, vocab, batch_size=4, seed=3)
        assert sorted(len(b) for b in batches) == [2, 4, 4]

    def test_same_seed_same_composition(self):
        entries = _random_entries(17, 2)
        vocab = build_vocab(entries, 100)
        a = make_batches(entries, vocab, 5, seed=9)
        b = make_batches(entries, vocab, 5, seed=9)
        for x, y in zip(a, b):
            npt.assert_array_equal(x.context_ids, y.context_ids)
            npt.assert_array_equal(x.target_ids, y.target_ids)

    def test_union_is_input_multiset(self):
        entries = _random_entries(23, 4)
        words = {w for e in entries for w in e.context + e.description} - set(Vocab.SPECIALS)
        vocab = Vocab([*Vocab.SPECIALS, *sorted(words)])  # every word has an id
        batches = make_batches(entries, vocab, 4, seed=0)
        # each batch row read back from the id matrices
        got = sorted((tuple(b.phrase_words[i]),
                      tuple(vocab.decode(b.context_ids[i, :b.context_lengths[i]])),
                      tuple(vocab.decode(b.target_ids[i, :b.target_lengths[i] - 1])))
                     for b in batches for i in range(len(b)))
        assert got == sorted((tuple(e.phrase), tuple(e.context), tuple(e.description))
                             for e in entries)

    def test_masks_consistent_with_lengths(self):
        entries = _random_entries(40, 5)
        vocab = build_vocab(entries, 100)
        for start in range(0, len(entries), 8):
            chunk = entries[start:start + 8]
            batch = make_batch(chunk, vocab)
            for i, e in enumerate(chunk):
                # per-entry recheck of every mask and padded row
                assert batch.context_lengths[i] == len(e.context)
                assert np.all(batch.context_ids[i, len(e.context):] == Vocab.PAD)
                npt.assert_array_equal(
                    batch.context_ids[i, : len(e.context)], vocab.encode(e.context))
                n_steps = len(e.description) + 1
                assert batch.target_lengths[i] == n_steps
                npt.assert_array_equal(
                    batch.target_ids[i, : n_steps - 1], vocab.encode(e.description))
                assert batch.target_ids[i, n_steps - 1] == Vocab.EOS
                assert np.all(batch.target_ids[i, n_steps:] == Vocab.PAD)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            make_batch([], build_vocab(_random_entries(2, 0), 10))
