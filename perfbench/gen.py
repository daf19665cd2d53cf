"""Seeded synthetic inputs for the benchmark.

Everything here is a pure function of the seed: the same seed writes the
same files byte for byte. The program under test only ever sees the files
written here (dataset TSVs in its documented format, and the command-line
arguments built from them).

Distributions and why they were chosen:

* Words are random lowercase letter strings of 3-9 characters, so the
  character CNN sees realistic surface lengths. Context and description
  words come from one list of 12,000 words; phrase words come from a
  disjoint list of 2,000, so a phrase occurs exactly once in its sentence.
* Context and description tokens are Zipfian (exponent 1.1) over word rank,
  as natural text is; the 2,005 context words past the vocabulary cap map
  to [UNK].
* The vocabulary corpus holds each of the first 9,995 words once in its
  descriptions, so ``logcad train`` fills the output vocabulary to the
  full-size cap of 10,000 (the output projection and softmax dominate a
  decode step).
* Context lengths (counting the [TRG] marker) are stratified over the four
  ``context_len`` bins of the BLEU breakdown (3-10, 11-20, 21-30, 31-40),
  an equal share per bin, uniform within a bin. Description lengths cycle
  through 2-10 tokens. Stratifying rather than sampling keeps the total
  work of a corpus the same from seed to seed, so throughput figures of
  different seeds are comparable.
* Phrases are 1-3 words.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_WORDS = 12_000
N_PHRASE_WORDS = 2_000
VOCAB_WORDS = 9_995          # the 10,000 cap minus the five special tokens
ZIPF_EXPONENT = 1.1
CONTEXT_BINS = ((3, 10), (11, 20), (21, 30), (31, 40))
DESC_LENGTHS = tuple(range(2, 11))
PHRASE_LENGTHS = (1, 2, 3)


@dataclass(frozen=True)
class Item:
    """One generated entry: phrase words, context tokens with the [TRG]
    marker at ``pos``, and the reference description."""

    phrase: tuple
    context: tuple
    pos: int
    description: tuple

    def tsv_line(self) -> str:
        return "\t".join((" ".join(self.phrase), " ".join(self.context),
                          " ".join(self.description)))

    def sentence(self) -> str:
        """The context with the phrase written in place of the marker."""
        words = self.context[:self.pos] + self.phrase + self.context[self.pos + 1:]
        return " ".join(words)


def _cdf(p: np.ndarray) -> np.ndarray:
    c = np.cumsum(p)
    return c / c[-1]


class Generator:
    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 7])
        words = self._unique_words(N_WORDS + N_PHRASE_WORDS)
        self.words = words[:N_WORDS]
        self.phrase_words = words[N_WORDS:]
        ranks = np.arange(1, N_WORDS + 1, dtype=np.float64)
        p = ranks ** -ZIPF_EXPONENT
        # cumulative distributions, sampled by inverse transform; each ends
        # at exactly 1.0, so every draw in [0, 1) falls on a word
        self._cdf_context = _cdf(p)
        self._cdf_desc = _cdf(p[:VOCAB_WORDS])

    def _unique_words(self, n: int) -> list:
        seen: dict = {}
        while len(seen) < n:
            lengths = self.rng.integers(3, 10, size=n)
            codes = self.rng.integers(ord("a"), ord("z") + 1, size=int(lengths.sum()))
            text = codes.astype(np.uint8).tobytes().decode("ascii")
            ends = np.cumsum(lengths)
            for start, end in zip(ends - lengths, ends):
                seen.setdefault(text[start:end], None)
                if len(seen) == n:
                    break
        return list(seen)

    def _draw(self, cdf: np.ndarray, n: int) -> tuple:
        return tuple(self.words[i] for i in np.searchsorted(cdf, self.rng.random(n), side="right"))

    def _stratified(self, choices, n: int) -> list:
        picks = [choices[i % len(choices)] for i in range(n)]
        self.rng.shuffle(picks)
        return picks

    def items(self, n: int) -> list:
        ctx_bins = self._stratified(CONTEXT_BINS, n)
        desc_lens = self._stratified(DESC_LENGTHS, n)
        out = []
        for (lo, hi), n_desc in zip(ctx_bins, desc_lens):
            n_ctx = int(self.rng.integers(lo, hi + 1))
            n_phrase = int(self.rng.choice(PHRASE_LENGTHS))
            phrase = tuple(self.phrase_words[i] for i in
                           self.rng.choice(N_PHRASE_WORDS, size=n_phrase, replace=False))
            ctx = list(self._draw(self._cdf_context, n_ctx - 1))
            pos = int(self.rng.integers(0, n_ctx))
            ctx.insert(pos, "[TRG]")
            out.append(Item(phrase, tuple(ctx), pos, self._draw(self._cdf_desc, n_desc)))
        return out

    def vocab_items(self) -> list:
        """Entries whose descriptions name every in-vocabulary word once."""
        out = []
        for start in range(0, VOCAB_WORDS, 10):
            desc = tuple(self.words[start:start + 10])
            phrase = (self.phrase_words[start // 10 % N_PHRASE_WORDS],)
            out.append(Item(phrase, ("[TRG]", self.words[start]), 0, desc))
        return out


def write_tsv(path: Path, items) -> None:
    path.write_text("".join(it.tsv_line() + "\n" for it in items), encoding="utf-8")


@dataclass
class Inputs:
    vocab_tsv: Path
    train_tsv: Path
    test_tsv: Path
    train_items: list
    test_items: list
    describe_items: list


def generate(seed: int, out: Path, n_train: int, n_test: int, n_describe: int) -> Inputs:
    """Write the vocabulary, training and test corpora under ``out`` and
    return them with the describe inputs (kept in memory: they become
    command-line arguments)."""
    gen = Generator(seed)
    out.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(out / "vocab.tsv", out / "train.tsv", out / "test.tsv",
                    gen.items(n_train), gen.items(n_test), gen.items(n_describe))
    write_tsv(inputs.vocab_tsv, gen.vocab_items())
    write_tsv(inputs.train_tsv, inputs.train_items)
    write_tsv(inputs.test_tsv, inputs.test_items)
    return inputs
