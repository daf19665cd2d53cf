import re

import pytest

from logcad.cli import main
from logcad.data import entry_to_line
from logcad.wiki import (
    extract_wikipedia,
    first_paragraph,
    read_articles,
    read_items,
    split_by_phrase,
    split_sentences,
    strip_parentheses,
)

# three-article synthetic dump exercising every extraction rule
ARTICLES = [
    ("Tokyo",
     "Tokyo is the capital of [[Japan]]. It is (by far) the largest city. "
     "Many tourists visit [[Mount Fuji|Fuji]] from there."),
    ("Sonic boom",
     "A [[sonic boom]] is produced when [[aircraft]] fly faster than sound near [[Japan]]."),
    ("Kyoto",
     "Kyoto was the capital of [[japan]] for centuries. See [[Nara]] too."),
]

ITEMS = {
    "Japan": "Island country in East Asia",
    "sonic boom": "Sound created by an object moving fast",
    "aircraft": "",  # empty description -> excluded
    "Mount Fuji": "the highest mountain in Japan",
}

# hand-applied extraction of ARTICLES x ITEMS, in (article, sentence, link) order
EXPECTED_LINES = [
    "japan\ttokyo is the capital of [TRG] .\tisland country in east asia",
    "sonic boom\ta [TRG] is produced when aircraft fly faster than sound near japan .\t"
    "sound created by an object moving fast",
    "japan\ta sonic boom is produced when aircraft fly faster than sound near [TRG] .\t"
    "island country in east asia",
    "japan\tkyoto was the capital of [TRG] for centuries .\tisland country in east asia",
]


class TestHelpers:
    def test_first_paragraph(self):
        assert first_paragraph("first block here.\n\nsecond block.") == "first block here."
        assert first_paragraph("only block") == "only block"

    def test_strip_parentheses(self):
        assert strip_parentheses("It is (by far) the largest.") == "It is the largest."
        assert strip_parentheses("nested (a (b) c) end") == "nested end"
        assert strip_parentheses("unmatched ( stays") == "unmatched ( stays"
        assert strip_parentheses("no parens") == "no parens"

    def test_split_sentences(self):
        assert split_sentences("One here. Two there! Three? Four") == \
            ["One here.", "Two there!", "Three?", "Four"]


class TestExtraction:
    def test_hand_applied_procedure(self):
        entries, stats = extract_wikipedia(ARTICLES, ITEMS)
        assert [entry_to_line(e) for e in entries] == EXPECTED_LINES
        assert stats.articles == 3
        assert stats.links == 7
        assert stats.emitted == 4
        assert stats.anchor_mismatch == 1   # [[Mount Fuji|Fuji]]
        assert stats.missing_item == 1      # [[Nara]]
        assert stats.empty_description == 1  # [[aircraft]]

    def test_anchor_must_equal_title(self):
        entries, stats = extract_wikipedia(
            [("X", "Go to [[Japan|Nippon]] now.")], {"Japan": "a country"})
        assert entries == []
        assert stats.anchor_mismatch == 1

    def test_title_match_case_insensitive(self):
        entries, _ = extract_wikipedia(
            [("X", "Visit [[JAPAN]] someday.")], {"Japan": "a country"})
        assert len(entries) == 1
        assert entries[0].phrase == ["japan"]

    def test_no_description_no_entry(self):
        entries, stats = extract_wikipedia(
            [("X", "See [[Japan]] now.")], {"Japan": "   "})
        assert entries == []
        assert stats.empty_description == 1

    def test_item_missing_no_entry(self):
        entries, stats = extract_wikipedia([("X", "See [[Japan]] now.")], {})
        assert entries == []
        assert stats.missing_item == 1

    def test_exactly_one_marker_per_context(self):
        entries, _ = extract_wikipedia(ARTICLES, ITEMS)
        for e in entries:
            assert e.context.count("[TRG]") == 1
            assert e.context[e.span[0]] == "[TRG]"

    def test_only_first_paragraph_used(self):
        text = "Intro without links.\n\nLater [[Japan]] appears."
        entries, _ = extract_wikipedia([("X", text)], {"Japan": "a country"})
        assert entries == []

    def test_parenthesized_links_are_removed(self):
        entries, _ = extract_wikipedia(
            [("X", "The town (near [[Japan]]) is old. It borders [[Japan]] too.")],
            {"Japan": "a country"})
        # only the link outside parentheses survives
        assert len(entries) == 1
        assert entries[0].context == ["it", "borders", "[TRG]", "too", "."]

    def test_multiple_links_each_get_own_entry(self):
        entries, _ = extract_wikipedia(
            [("X", "Both [[alpha]] and [[beta]] matter.")],
            {"alpha": "first letter", "beta": "second letter"})
        assert len(entries) == 2
        assert entries[0].context == ["both", "[TRG]", "and", "beta", "matter", "."]
        assert entries[1].context == ["both", "alpha", "and", "[TRG]", "matter", "."]

    def test_placeholder_pattern_in_text_is_malformed(self):
        # links become "\x00<index>\x00" while a paragraph is split; text
        # that already holds that pattern must not be read as a link
        articles = [("Foo", "The \x007\x00 [[bar]] is here."),
                    ("Baz", "A \x000\x00 and [[bar]] too."), ("Qux", "See [[bar]] now.")]
        entries, stats = extract_wikipedia(articles, {"bar": "a thing"})
        assert [e.context for e in entries] == [["see", "[TRG]", "now", "."]]
        assert stats.articles == 3 and stats.malformed == 2 and stats.emitted == 1

    def test_malformed_markup_counted(self):
        entries, stats = extract_wikipedia(
            [("X", "Broken [[link goes nowhere. And [[Japan]] is fine.")],
            {"Japan": "a country"})
        assert stats.malformed == 1
        assert len(entries) == 1


class TestInputsAndSplit:
    def test_read_articles_items(self, tmp_path):
        a = tmp_path / "articles.tsv"
        a.write_text("Tokyo\tTokyo is big.\n\nKyoto\tKyoto is old.\n", encoding="utf-8")
        assert read_articles(a) == [("Tokyo", "Tokyo is big."), ("Kyoto", "Kyoto is old.")]
        i = tmp_path / "items.tsv"
        i.write_text("Japan\ta country\naircraft\t\n", encoding="utf-8")
        items = read_items(i)
        assert items["Japan"] == "a country"
        assert items["aircraft"] == ""

    @pytest.mark.parametrize("which", ["articles", "items"])
    def test_line_without_tab_refused(self, tmp_path, capsys, which):
        # a lost tab used to drop the line silently, and extract exited 0
        articles = tmp_path / "articles.tsv"
        articles.write_text("Tokyo\tTokyo is in [[Japan]].\n", encoding="utf-8")
        items = tmp_path / "items.tsv"
        items.write_text("Japan\ta country\n", encoding="utf-8")
        bad = {"articles": articles, "items": items}[which]
        with bad.open("a", encoding="utf-8") as fh:
            fh.write("\nKyoto Kyoto is a city in [[Japan]].\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}:3: "):
            (read_articles if which == "articles" else read_items)(bad)
        out = tmp_path / "out"
        assert main(["extract", "--articles", str(articles), "--items", str(items),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}:3: ")
        assert not out.exists()

    def test_split_is_phrase_disjoint(self):
        entries, _ = extract_wikipedia(ARTICLES, ITEMS)
        entries = entries * 5  # duplicate so phrases have several entries
        splits = split_by_phrase(entries, ratios=(0.5, 0.25, 0.25), seed=0)
        seen = {}
        for name, part in splits.items():
            for e in part:
                key = e.phrase_key()
                assert seen.setdefault(key, name) == name
        assert sum(len(p) for p in splits.values()) == len(entries)

    def test_split_deterministic(self):
        entries, _ = extract_wikipedia(ARTICLES, ITEMS)
        a = split_by_phrase(entries, seed=7)
        b = split_by_phrase(entries, seed=7)
        for name in ("train", "valid", "test"):
            assert [entry_to_line(e) for e in a[name]] == [entry_to_line(e) for e in b[name]]

    def test_split_ratio_counts(self):
        # 20 distinct phrases at 90/5/5 -> 18/1/1 phrases
        from logcad.data import Entry
        entries = [Entry([f"p{i}"], ["[TRG]", "x"], (0, 0), ["d"]) for i in range(20)]
        splits = split_by_phrase(entries, seed=1)
        sizes = {k: len({e.phrase_key() for e in v}) for k, v in splits.items()}
        assert sizes == {"train": 18, "valid": 1, "test": 1}
