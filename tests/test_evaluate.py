import numpy as np
import pytest

from logcad.data import EmbeddingTable, Entry
from logcad.evaluate import (
    BinResult,
    EvalRecord,
    avg_sentence_bleu,
    binned_report,
    binned_tsv,
    build_records,
    corpus_bleu,
    format_binned,
    sentence_bleu,
)


def rec(cand, ref, senses=1, unk=0.0, ctx=5):
    return EvalRecord(cand.split(), ref.split(), senses, unk, ctx)


# hand-worked fixture, frozen before the implementation existed:
# p1 = 13/17, p2 = 7/12, p3 = 5/7, p4 = 3/3, BP = exp(1 - 24/17)
FIVE_PAIRS = [
    rec("the cat sat on the mat", "the cat sat on the mat"),
    rec("the the the", "the cat sat"),
    rec("small dog barked", "the small dog barked loudly"),
    rec("to remove liquid", "to get rid of a liquid"),
    rec("american writer", "american journalist and editor"),
]
FIVE_PAIRS_BLEU = 49.7729816232775

# p1 = 11/14, p2 = 8/12, p3 = 6/10, p4 = 4/8, BP = 1 (cand longer than ref)
TWO_PAIRS = [
    rec("the quick brown fox jumped over the lazy dog",
        "the quick brown fox jumped over a dog"),
    rec("a b c d e", "a b c d"),
]
TWO_PAIRS_BLEU = 62.961296332433136


class TestCorpusBleu:
    def test_identity_is_100(self):
        records = [rec("a b c d e", "a b c d e"), rec("one two three four", "one two three four")]
        assert corpus_bleu(records) == pytest.approx(100.0, abs=1e-9)

    def test_disjoint_is_0(self):
        records = [rec("a b c d", "w x y z"), rec("e f g h", "p q r s")]
        assert corpus_bleu(records) == 0.0

    def test_hand_worked_five_pairs(self):
        assert corpus_bleu(FIVE_PAIRS) == pytest.approx(FIVE_PAIRS_BLEU, abs=1e-6)

    def test_hand_worked_bp_one_case(self):
        assert corpus_bleu(TWO_PAIRS) == pytest.approx(TWO_PAIRS_BLEU, abs=1e-6)

    def test_duplication_invariance(self):
        assert corpus_bleu(FIVE_PAIRS * 2) == pytest.approx(FIVE_PAIRS_BLEU, abs=1e-9)

    def test_permutation_invariance(self):
        assert corpus_bleu(FIVE_PAIRS[::-1]) == pytest.approx(FIVE_PAIRS_BLEU, abs=1e-9)

    def test_zero_when_no_fourgrams(self):
        # every candidate shorter than 4 tokens: p4 has a zero denominator
        assert corpus_bleu([rec("a b c", "a b c"), rec("x y", "x y")]) == 0.0

    def test_empty_candidates_score_zero(self):
        assert corpus_bleu([rec("", "a b c")]) == 0.0

    def test_bounds_on_random_records(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(12)]
        for _ in range(50):
            records = [
                rec(" ".join(rng.choice(words, size=rng.integers(1, 9))),
                    " ".join(rng.choice(words, size=rng.integers(1, 9))))
                for _ in range(4)
            ]
            score = corpus_bleu(records)
            assert 0.0 <= score <= 100.0

    def test_empty_record_list_rejected(self):
        with pytest.raises(ValueError):
            corpus_bleu([])


class TestSentenceBleu:
    def test_identity(self):
        assert sentence_bleu("a b c d e".split(), "a b c d e".split()) == \
            pytest.approx(100.0, abs=1e-9)

    def test_smoothing_keeps_short_pairs_nonzero(self):
        assert sentence_bleu("a b".split(), "a b".split()) > 0.0

    def test_no_unigram_overlap_is_zero(self):
        assert sentence_bleu("a b c".split(), "x y z".split()) == 0.0

    def test_average(self):
        records = [rec("a b c d", "a b c d"), rec("x", "y")]
        want = (sentence_bleu("a b c d".split(), "a b c d".split()) + 0.0) / 2
        assert avg_sentence_bleu(records) == pytest.approx(want)


class TestBuildRecords:
    def _entries(self):
        return [
            Entry(["q"], ["the", "[TRG]", "show"], (1, 1), ["canadian", "radio", "show"]),
            Entry(["q"], ["magazine", "[TRG]"], (1, 1), ["british", "music", "magazine"]),
            Entry(["sonic", "boom"], ["a", "[TRG]", "boomed", "loudly", "again"], (1, 1),
                  ["a", "loud", "sound"]),
        ]

    def test_senses_count_distinct_references(self):
        records = build_records(self._entries(), [["x"], ["y"], ["z"]], None)
        assert [r.senses for r in records] == [2, 2, 1]

    def test_unk_ratio_from_table(self):
        table = EmbeddingTable({"sonic": np.zeros(3)}, 3)
        records = build_records(self._entries(), [["x"], ["y"], ["z"]], table)
        assert records[0].unk_ratio == pytest.approx(1.0)
        assert records[2].unk_ratio == pytest.approx(0.5)

    def test_no_table_means_all_unknown(self):
        records = build_records(self._entries(), [["x"], ["y"], ["z"]], None)
        assert all(r.unk_ratio == 1.0 for r in records)

    def test_context_len(self):
        records = build_records(self._entries(), [["x"], ["y"], ["z"]], None)
        assert [r.context_len for r in records] == [3, 2, 5]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_records(self._entries(), [["x"]], None)


class TestBinnedReport:
    def test_single_bin_equals_corpus_bleu(self):
        results = binned_report(FIVE_PAIRS, "senses")
        assert results[0].count == len(FIVE_PAIRS)
        assert results[0].bleu == pytest.approx(FIVE_PAIRS_BLEU, abs=1e-9)
        assert all(r.bleu is None and r.count == 0 for r in results[1:])

    def test_single_reference_lands_in_senses_bin_1(self):
        results = binned_report([rec("a b c d", "a b c d", senses=1)], "senses")
        assert results[0].label == "1" and results[0].count == 1

    def test_senses_bins(self):
        records = [rec("a", "a", senses=s) for s in [1, 2, 3, 4, 7]]
        results = binned_report(records, "senses")
        assert [r.count for r in results] == [1, 1, 1, 2]

    def test_unk_ratio_deciles(self):
        records = [rec("a", "a", unk=u) for u in [0.0, 0.05, 0.1, 0.55, 0.95, 1.0]]
        results = binned_report(records, "unk_ratio")
        counts = {r.label: r.count for r in results}
        assert counts["0-10%"] == 2
        assert counts["10-20%"] == 1
        assert counts["50-60%"] == 1
        assert counts["90-100%"] == 2

    @pytest.mark.parametrize("words,known,label", [
        (5, 4, "20-30%"), (10, 8, "20-30%"), (10, 9, "10-20%")])
    def test_unk_ratio_bin_from_word_counts(self, words, known, label):
        # 1 - 4/5 is 0.19999999999999996 in floating point
        phrase = [f"w{i}" for i in range(words)]
        table = EmbeddingTable({w: np.zeros(3) for w in phrase[:known]}, 3)
        records = build_records([Entry(phrase, ["[TRG]"], (0, 0), ["x"])], [["x"]], table)
        assert [r.label for r in binned_report(records, "unk_ratio") if r.count] == [label]

    def test_context_len_bins(self):
        records = [rec("a", "a", ctx=c) for c in [3, 10, 11, 20, 21, 30, 31, 99]]
        results = binned_report(records, "context_len")
        assert [r.count for r in results] == [2, 2, 2, 2]

    def test_synthetic_populations_match_hand_count(self):
        rng = np.random.default_rng(1)
        records = []
        for _ in range(20):
            records.append(rec("a b", "a b", senses=int(rng.integers(1, 6)),
                               unk=float(rng.integers(0, 11)) / 10,
                               ctx=int(rng.integers(1, 40))))
        for axis, key in (("senses", lambda r: min(r.senses, 4)),
                          ("context_len", lambda r: r.context_len)):
            results = binned_report(records, axis)
            assert sum(r.count for r in results) == 20
        # hand count for the senses axis
        by_bin = [0, 0, 0, 0]
        for r in records:
            by_bin[min(r.senses, 4) - 1] += 1
        assert [b.count for b in binned_report(records, "senses")] == by_bin

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            binned_report(FIVE_PAIRS, "length_of_moon")

    def test_formatting(self):
        results = [BinResult("1", 2, 50.0), BinResult("2", 0, None)]
        text = format_binned("senses", results)
        assert "50.00" in text and "-" in text
        tsv = binned_tsv("senses", results)
        assert tsv.splitlines()[1] == "1\t2\t50.000000"
        assert tsv.splitlines()[2] == "2\t0\t"
