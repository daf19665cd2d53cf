"""Mining (phrase, context, description) entries from Wikipedia first
paragraphs joined with a title -> description item table.

Per article: take the first blank-line-delimited block, find internal links
([[target]] / [[target|anchor]]), strip parenthesized spans, split into
sentences, and for every link whose anchor text equals its target title and
whose target has a nonempty description, emit an entry whose context is the
sentence with that link replaced by the [TRG] marker.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from logcad.data import Entry, TRG_TOKEN, read_lines, tokenize, tokenize_with_marker

_LINK_RE = re.compile(r"\[\[([^\[\]|]+?)(?:\|([^\[\]]*?))?\]\]")
_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?]) ")


@dataclass
class ExtractStats:
    articles: int = 0
    links: int = 0
    emitted: int = 0
    anchor_mismatch: int = 0
    missing_item: int = 0
    empty_description: int = 0
    malformed: int = 0

    def summary(self) -> str:
        return (
            f"articles={self.articles} links={self.links} emitted={self.emitted} "
            f"anchor_mismatch={self.anchor_mismatch} missing_item={self.missing_item} "
            f"empty_description={self.empty_description} malformed={self.malformed}"
        )


def _norm_title(title: str) -> str:
    return " ".join(title.strip().split()).lower()


def first_paragraph(text: str) -> str:
    return text.split("\n\n", 1)[0]


def strip_parentheses(text: str) -> str:
    """Remove balanced "( ... )" spans (they tend to be foreign-language
    paraphrases); unmatched parentheses are left in place."""
    out = []
    stack = []
    for ch in text:
        if ch == "(":
            stack.append(len(out))
        elif ch == ")" and stack:
            del out[stack.pop() :]
            continue
        out.append(ch)
    cleaned = "".join(out)
    return re.sub(r"  +", " ", cleaned)


def split_sentences(text: str) -> list[str]:
    return [s.strip() for s in _SENTENCE_SPLIT_RE.split(text) if s.strip()]


def extract_article(title: str, text: str, items: dict[str, str],
                    stats: ExtractStats) -> Iterator[Entry]:
    """Apply the extraction rules to one article, in sentence/link order."""
    stats.articles += 1
    para = first_paragraph(text)
    if "\x00" in para:  # the link placeholders' delimiter: text must not read as a link
        stats.malformed += 1
        return

    links: list[tuple[str, str]] = []  # (target, anchor)

    def _sub(match: re.Match) -> str:
        target = match.group(1)
        anchor = match.group(2)
        if anchor is None:
            anchor = target
        links.append((target, anchor))
        return f"\x00{len(links) - 1}\x00"

    para = _LINK_RE.sub(_sub, para)
    if "[[" in para or "]]" in para:
        stats.malformed += 1
    stats.links += len(links)

    para = strip_parentheses(para)

    for sentence in split_sentences(para):
        present = [int(m) for m in re.findall(r"\x00(\d+)\x00", sentence)]
        for link_idx in present:
            target, anchor = links[link_idx]
            if not anchor.strip():
                stats.malformed += 1
                continue
            if tokenize(anchor) != tokenize(target):
                stats.anchor_mismatch += 1
                continue
            description = items.get(_norm_title(target))
            if description is None:
                stats.missing_item += 1
                continue
            desc_tokens = tokenize(description)
            if not desc_tokens:
                stats.empty_description += 1
                continue
            ctx = sentence
            for other in present:
                token = f"\x00{other}\x00"
                ctx = ctx.replace(token, TRG_TOKEN if other == link_idx else links[other][1])
            try:
                context, pos = tokenize_with_marker(ctx)
                entry = Entry(
                    phrase=tokenize(anchor),
                    context=context,
                    span=(pos, pos),
                    description=desc_tokens,
                )
            except ValueError:
                stats.malformed += 1
                continue
            stats.emitted += 1
            yield entry


def extract_wikipedia(articles: Iterable[tuple[str, str]],
                      items: dict[str, str]) -> tuple[list[Entry], ExtractStats]:
    """Run the extraction over (title, first-paragraph text) pairs against a
    normalized-title -> description table. Entry order is deterministic:
    article order, then sentence order, then link order."""
    stats = ExtractStats()
    norm_items = {_norm_title(k): v for k, v in items.items()}
    entries: list[Entry] = []
    for title, text in articles:
        entries.extend(extract_article(title, text, norm_items, stats))
    return entries, stats


# ---------------------------------------------------------------------------
# input files and splitting


def _read_pairs(path, second: str) -> Iterator[tuple[str, str]]:
    """The ``title <TAB> second`` pairs of a TSV file, skipping blank lines;
    a line without a tab raises ``ValueError`` naming ``path:line``."""
    for lineno, line in read_lines(path):
        if line.strip():
            fields = line.rstrip("\n").split("\t", 1)
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected title<TAB>{second}, found no tab")
            yield fields[0], fields[1]


def read_articles(path) -> list[tuple[str, str]]:
    """TSV of ``title <TAB> first-paragraph text``, one article per line."""
    return list(_read_pairs(path, "text"))


def read_items(path) -> dict[str, str]:
    """TSV of ``title <TAB> description``; later duplicates win."""
    return dict(_read_pairs(path, "description"))


def split_by_phrase(entries: Sequence[Entry], ratios: tuple[float, float, float] = (0.9, 0.05, 0.05),
                    seed: int = 0) -> dict[str, list[Entry]]:
    """Seeded train/valid/test split with phrases mutually exclusive across
    the three sets; split sizes follow the ratios over distinct phrases."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {ratios}")
    by_phrase: dict[tuple, list[Entry]] = {}
    for e in entries:
        by_phrase.setdefault(e.phrase_key(), []).append(e)
    keys = sorted(by_phrase)
    rng = np.random.default_rng(seed)
    rng.shuffle(keys)
    n = len(keys)
    n_train = int(round(ratios[0] * n))
    n_valid = int(round(ratios[1] * n))
    buckets = {
        "train": keys[:n_train],
        "valid": keys[n_train : n_train + n_valid],
        "test": keys[n_train + n_valid :],
    }
    return {
        split: [e for key in bucket for e in by_phrase[key]]
        for split, bucket in buckets.items()
    }
