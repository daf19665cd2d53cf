"""Tokenization, vocabulary, pre-trained embedding loading, the dataset
format shared by all corpora, batching, and corpus statistics.

Dataset files are UTF-8 TSVs, one entry per line:

    phrase <TAB> context with a single [TRG] marker <TAB> description

The [TRG] marker stands in for the target phrase inside its context
sentence, in every corpus.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

log = logging.getLogger(__name__)

TRG_TOKEN = "[TRG]"
PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
BOS_TOKEN = "<bos>"
EOS_TOKEN = "<eos>"

UNK_INIT_SCALE = 0.08

# punctuation detached as separate tokens
_PUNCT_RE = re.compile(r"""([.,;:!?'"()])""")
_TRG_RE = re.compile(re.escape(TRG_TOKEN), re.IGNORECASE)


def read_lines(path) -> Iterator[tuple[int, str]]:
    """The numbered lines of a UTF-8 text file, as text-mode ``open`` reads
    them; bytes that are not UTF-8 raise ``ValueError`` naming ``path:line``."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _not_utf8(path) -> ValueError:
    # text mode decodes in chunks, so find the line by decoding line by line
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as e:
                return ValueError(f"{path}:{lineno}: not UTF-8 ({e.reason}: byte "
                                  f"0x{raw[e.start]:02x} at column {e.start + 1})")
    return ValueError(f"{path}: not UTF-8")


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, and detach .,;:!?'"() as their own
    tokens. Deterministic and idempotent on its own space-joined output."""
    return _PUNCT_RE.sub(r" \1 ", text.lower()).split()


def tokenize_with_marker(text: str) -> tuple[list[str], int]:
    """Tokenize a context that carries exactly one [TRG] marker.

    Returns (tokens, index of the marker token). The marker survives as the
    literal token "[TRG]" regardless of the surrounding lowercasing.
    """
    parts = _TRG_RE.split(text)
    if len(parts) != 2:
        raise ValueError(
            f"expected exactly one {TRG_TOKEN} marker, found {len(parts) - 1}"
        )
    left = tokenize(parts[0])
    right = tokenize(parts[1])
    return left + [TRG_TOKEN] + right, len(left)


@dataclass
class Entry:
    """One dataset record: target phrase, tokenized context with the marked
    target span (0-based, inclusive), and the reference description."""

    phrase: list[str]
    context: list[str]
    span: tuple[int, int]
    description: list[str]

    def __post_init__(self):
        if not self.phrase:
            raise ValueError("Entry: phrase must be nonempty")
        if not self.description:
            raise ValueError("Entry: description must be nonempty")
        j, k = self.span
        if not (0 <= j <= k < len(self.context)):
            raise ValueError(f"Entry: span {self.span} outside context of length {len(self.context)}")

    def phrase_key(self) -> tuple[str, ...]:
        return tuple(self.phrase)


def entry_to_line(entry: Entry) -> str:
    return "\t".join(
        (" ".join(entry.phrase), " ".join(entry.context), " ".join(entry.description))
    )


def _parse_line(line: str) -> Entry:
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 3:
        raise ValueError(f"expected 3 tab-separated fields, got {len(fields)}")
    phrase_text, context_text, description_text = fields
    context, pos = tokenize_with_marker(context_text)
    return Entry(
        phrase=tokenize(phrase_text),
        context=context,
        span=(pos, pos),
        description=tokenize(description_text),
    )


def read_entries(path) -> tuple[list[Entry], int]:
    """Parse a dataset TSV; invalid lines are skipped and counted."""
    entries: list[Entry] = []
    rejected = 0
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        try:
            entries.append(_parse_line(line))
        except ValueError as e:
            rejected += 1
            log.debug("%s:%d rejected: %s", path, lineno, e)
    return entries, rejected


def load_dataset(path) -> list[Entry]:
    """Load entries from a TSV file, warning about the lines it rejects."""
    entries, rejected = read_entries(path)
    if rejected:
        log.warning("%s: rejected %d malformed line(s)", Path(path), rejected)
    return entries


def write_dataset(path, entries: Iterable[Entry]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for entry in entries:
            fh.write(entry_to_line(entry) + "\n")


# ---------------------------------------------------------------------------
# pre-trained embeddings


class EmbeddingTable:
    """token -> fixed-width pre-trained vector map with a deterministic
    shared UNK fallback (one vector, drawn once from the given seed).
    ``source`` names it in error messages: the file it was read from."""

    def __init__(self, vectors: dict[str, np.ndarray], width: int, seed: int = 0,
                 source="embedding table"):
        self.vectors = vectors
        self.width = width
        self.source = source
        self.unk = np.random.default_rng(seed).uniform(
            -UNK_INIT_SCALE, UNK_INIT_SCALE, size=width
        )

    @classmethod
    def empty(cls, width: int, seed: int = 0) -> "EmbeddingTable":
        return cls({}, width, seed)

    def __contains__(self, token: str) -> bool:
        return token in self.vectors

    def lookup(self, token: str) -> np.ndarray:
        return self.vectors.get(token, self.unk)


def load_embeddings(path, seed: int = 0) -> EmbeddingTable:
    """Read text-format vectors: an optional "count width" header line, then
    one token plus ``width`` space-separated decimal floats per line."""
    vectors: dict[str, np.ndarray] = {}
    width: Optional[int] = None
    for lineno, line in read_lines(path):
        parts = line.rstrip("\n").split(" ")
        parts = [p for p in parts if p]
        if not parts:
            continue
        if lineno == 1 and len(parts) == 2:
            try:
                int(parts[0]), int(parts[1])
            except ValueError:
                pass
            else:
                width = int(parts[1])
                continue
        token, values = parts[0], parts[1:]
        if width is None:
            width = len(values)
        if len(values) != width:
            raise ValueError(
                f"{path}:{lineno}: expected {width} values, got {len(values)}"
            )
        try:
            vec = np.asarray([float(v) for v in values])
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e} (vector of {token!r})") from None
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"{path}:{lineno}: non-finite value for {token!r}")
        vectors[token] = vec
    if width is None:
        raise ValueError(f"{path}: no vectors found")
    return EmbeddingTable(vectors, width, seed, source=path)


# ---------------------------------------------------------------------------
# vocabulary


class Vocab:
    """Output-side vocabulary: special tokens plus the most frequent
    description-side tokens. Context tokens share the same id space.
    ``source`` names it in error messages: the file it was read from."""

    SPECIALS = (PAD_TOKEN, UNK_TOKEN, TRG_TOKEN, BOS_TOKEN, EOS_TOKEN)
    PAD, UNK, TRG, BOS, EOS = range(5)

    def __init__(self, tokens: Sequence[str], source="vocabulary"):
        if tuple(tokens[:5]) != self.SPECIALS:
            raise ValueError(f"{source}: Vocab: token list must start with the special tokens")
        self.source = source
        self.tokens = list(tokens)
        self.index = {t: i for i, t in enumerate(self.tokens)}
        if len(self.index) < len(self.tokens):
            twice = next(t for i, t in enumerate(self.tokens) if self.index[t] != i)
            raise ValueError(f"{source}: Vocab: token {twice!r} is listed twice")

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens: Sequence[str]) -> list[int]:
        return [self.index.get(t, self.UNK) for t in tokens]

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.tokens[i] for i in ids]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for t in self.tokens:
                fh.write(t + "\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        return cls([line.rstrip("\n") for _, line in read_lines(path) if line.strip()],
                   source=path)


def build_vocab(entries: Sequence[Entry], size: int) -> Vocab:
    """Most frequent description-side tokens, capped at ``size`` including
    the special tokens; frequency ties broken lexicographically."""
    counts = Counter(t for e in entries for t in e.description)
    for special in Vocab.SPECIALS:
        counts.pop(special, None)
    # a stable sort by count, descending, keeps ties in lexicographic order
    ranked = sorted(counts)
    ranked.sort(key=counts.__getitem__, reverse=True)
    return Vocab(list(Vocab.SPECIALS) + ranked[: max(size - len(Vocab.SPECIALS), 0)])


# ---------------------------------------------------------------------------
# batching


@dataclass
class Batch:
    """Padded id matrices plus lengths for one training/eval step.

    ``target_ids[:, t]`` is the gold token at step t (description tokens then
    <eos>, then padding), and the first ``target_lengths`` of each row are
    real; under teacher forcing step t > 0 reads ``target_ids[:, t - 1]``.
    """

    context_ids: np.ndarray       # (B, T) int
    context_lengths: np.ndarray   # (B,)
    phrase_words: list            # list of list[str]
    target_ids: np.ndarray        # (B, S+1) int
    target_lengths: np.ndarray    # (B,) description length + 1 (<eos>)

    def __len__(self) -> int:
        return self.context_ids.shape[0]

    def take(self, rows: np.ndarray) -> "Batch":
        """The batch made of rows ``rows`` (an index array) of this one, in
        that order."""
        return Batch(context_ids=self.context_ids[rows],
                     context_lengths=self.context_lengths[rows],
                     phrase_words=[self.phrase_words[r] for r in rows],
                     target_ids=self.target_ids[rows],
                     target_lengths=self.target_lengths[rows])


def make_batch(entries: Sequence[Entry], vocab: Vocab) -> Batch:
    if not entries:
        raise ValueError("make_batch: empty entry list")
    b = len(entries)
    ctx_lens = np.array([len(e.context) for e in entries], dtype=np.intp)
    t_max = int(ctx_lens.max())
    context_ids = np.full((b, t_max), Vocab.PAD, dtype=np.intp)
    for i, e in enumerate(entries):
        context_ids[i, : len(e.context)] = vocab.encode(e.context)

    desc_lens = np.array([len(e.description) for e in entries], dtype=np.intp)
    s_max = int(desc_lens.max()) + 1  # room for <eos>
    target_ids = np.full((b, s_max), Vocab.PAD, dtype=np.intp)
    for i, e in enumerate(entries):
        ids = vocab.encode(e.description)
        target_ids[i, : len(ids)] = ids
        target_ids[i, len(ids)] = Vocab.EOS

    return Batch(
        context_ids=context_ids,
        context_lengths=ctx_lens,
        phrase_words=[list(e.phrase) for e in entries],
        target_ids=target_ids,
        target_lengths=desc_lens + 1,
    )


def make_batches(entries: Sequence[Entry], vocab: Vocab, batch_size: int,
                 seed: int = 0) -> list[Batch]:
    """Shuffle by seed, bucket by context length to limit padding, and cut
    into batches; the union of batches is the input multiset."""
    if batch_size < 1:
        raise ValueError("make_batches: batch_size must be >= 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(entries))
    shuffled = [entries[i] for i in order]
    shuffled.sort(key=lambda e: len(e.context))  # stable: ties stay shuffled
    chunks = [shuffled[i : i + batch_size] for i in range(0, len(shuffled), batch_size)]
    rng.shuffle(chunks)
    return [make_batch(chunk, vocab) for chunk in chunks]


# ---------------------------------------------------------------------------
# corpus statistics


@dataclass
class CorpusStats:
    n_phrases: int
    n_entries: int
    phrase_len: float
    context_len: float
    desc_len: float


def corpus_stats(entries: Sequence[Entry]) -> CorpusStats:
    """Distinct-phrase and entry counts plus mean phrase/context/description
    token lengths."""
    if not entries:
        raise ValueError("corpus_stats: empty entry list")
    return CorpusStats(
        n_phrases=len({e.phrase_key() for e in entries}),
        n_entries=len(entries),
        phrase_len=sum(len(e.phrase) for e in entries) / len(entries),
        context_len=sum(len(e.context) for e in entries) / len(entries),
        desc_len=sum(len(e.description) for e in entries) / len(entries),
    )


_STATS_COLUMNS = ("Corpus", "#Phrases", "#Entries", "Phrase len", "Context len", "Desc. len")


def format_stats(rows: Sequence[tuple[str, CorpusStats]]) -> str:
    """Aligned plain-text table of per-split corpus statistics."""
    table = [_STATS_COLUMNS]
    for name, s in rows:
        table.append((name, f"{s.n_phrases:,}", f"{s.n_entries:,}",
                      f"{s.phrase_len:.2f}", f"{s.context_len:.2f}", f"{s.desc_len:.2f}"))
    widths = [max(len(r[c]) for r in table) for c in range(len(_STATS_COLUMNS))]
    lines = []
    for r in table:
        cells = [r[0].ljust(widths[0])] + [r[c].rjust(widths[c]) for c in range(1, len(widths))]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)
