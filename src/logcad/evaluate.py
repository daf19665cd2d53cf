"""Corpus BLEU and per-bin breakdowns of generation quality.

``corpus_bleu`` is corpus-level BLEU-4: modified n-gram precisions pooled
over all records, geometric mean over n = 1..4, times the brevity penalty
``exp(min(0, 1 - ref_len/cand_len))``; the score is 0 when any pooled
precision is 0 (including a zero denominator, e.g. every candidate shorter
than n tokens). ``avg_sentence_bleu`` is also reported since the lineage
work is ambiguous about the level: per-record BLEU with add-one smoothing
on the n >= 2 precisions, averaged over records.

Binned reports slice the records by properties of the phrase being
described: its number of senses (distinct references in the evaluated
corpus), the fraction of its words lacking pre-trained vectors, and the
length of its local context.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from logcad.data import EmbeddingTable, Entry

MAX_ORDER = 4

AXES = ("senses", "unk_ratio", "context_len")


@dataclass
class EvalRecord:
    candidate: list
    reference: list
    senses: int
    unk_ratio: float
    context_len: int


@dataclass
class BinResult:
    label: str
    count: int
    bleu: Optional[float]  # None marks an empty bin


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _clipped_matches(candidate: Sequence[str], reference: Sequence[str],
                     n: int) -> tuple[int, int]:
    """Candidate n-grams found in the reference, each counted at most as
    often as the reference holds it, and the candidate's n-gram count."""
    cand, ref = _ngrams(candidate, n), _ngrams(reference, n)
    return sum(min(c, ref[g]) for g, c in cand.items()), sum(cand.values())


def corpus_bleu(records: Sequence[EvalRecord]) -> float:
    if not records:
        raise ValueError("corpus_bleu: empty record list")
    matched = [0] * MAX_ORDER
    total = [0] * MAX_ORDER
    cand_len = 0
    ref_len = 0
    for r in records:
        cand_len += len(r.candidate)
        ref_len += len(r.reference)
        for n in range(1, MAX_ORDER + 1):
            m, t = _clipped_matches(r.candidate, r.reference, n)
            matched[n - 1] += m
            total[n - 1] += t
    if cand_len == 0 or any(t == 0 or m == 0 for m, t in zip(matched, total)):
        return 0.0
    log_prec = sum(math.log(m / t) for m, t in zip(matched, total)) / MAX_ORDER
    bp = math.exp(min(0.0, 1.0 - ref_len / cand_len))
    return 100.0 * bp * math.exp(log_prec)


def sentence_bleu(candidate: Sequence[str], reference: Sequence[str]) -> float:
    """Single-pair BLEU-4 with add-one smoothing on the n >= 2 precisions."""
    if not candidate:
        return 0.0
    logs = []
    for n in range(1, MAX_ORDER + 1):
        matched, total = _clipped_matches(candidate, reference, n)
        if n > 1:
            matched += 1
            total += 1
        if matched == 0 or total == 0:
            return 0.0
        logs.append(math.log(matched / total))
    bp = math.exp(min(0.0, 1.0 - len(reference) / len(candidate)))
    return 100.0 * bp * math.exp(sum(logs) / MAX_ORDER)


def avg_sentence_bleu(records: Sequence[EvalRecord]) -> float:
    if not records:
        raise ValueError("avg_sentence_bleu: empty record list")
    return sum(sentence_bleu(r.candidate, r.reference) for r in records) / len(records)


def build_records(entries: Sequence[Entry], candidates: Sequence[Sequence[str]],
                  table: Optional[EmbeddingTable]) -> list[EvalRecord]:
    """Pair entries with generated candidates and attach bin keys computed
    from the evaluation corpus itself. Without an embedding table every
    phrase word counts as unknown."""
    if len(entries) != len(candidates):
        raise ValueError("build_records: entries and candidates differ in length")
    refs_by_phrase: dict[tuple, set] = {}
    for e in entries:
        refs_by_phrase.setdefault(e.phrase_key(), set()).add(tuple(e.description))
    records = []
    for e, cand in zip(entries, candidates):
        known = 0 if table is None else sum(1 for w in e.phrase if w in table)
        records.append(EvalRecord(
            candidate=list(cand),
            reference=list(e.description),
            senses=len(refs_by_phrase[e.phrase_key()]),
            unk_ratio=1.0 - known / len(e.phrase),
            context_len=len(e.context),
        ))
    return records


def _senses_bin(v: int) -> int:
    return min(v, 4) - 1


def _unk_bin(v: float) -> int:
    return min(int(v * 10), 9)


def _context_bin(v: int) -> int:
    if v <= 10:
        return 0
    if v <= 20:
        return 1
    if v <= 30:
        return 2
    return 3


_BINS = {
    "senses": (("1", "2", "3", ">=4"), _senses_bin, lambda r: r.senses),
    "unk_ratio": (
        tuple(f"{10 * i}-{10 * (i + 1)}%" for i in range(10)),
        _unk_bin,
        lambda r: r.unk_ratio,
    ),
    "context_len": (("<=10", "11-20", "21-30", ">30"), _context_bin, lambda r: r.context_len),
}


def binned_report(records: Sequence[EvalRecord], axis: str) -> list[BinResult]:
    """Group records into the axis's bins and score each bin separately."""
    if axis not in _BINS:
        raise ValueError(f"binned_report: unknown axis {axis!r}; expected one of {AXES}")
    labels, bin_fn, key_fn = _BINS[axis]
    groups: list[list[EvalRecord]] = [[] for _ in labels]
    for r in records:
        groups[bin_fn(key_fn(r))].append(r)
    return [
        BinResult(label, len(group), corpus_bleu(group) if group else None)
        for label, group in zip(labels, groups)
    ]


def format_binned(axis: str, results: Sequence[BinResult]) -> str:
    lines = [f"{axis:>12}  {'#':>6}  {'BLEU':>7}"]
    for r in results:
        score = "-" if r.bleu is None else f"{r.bleu:.2f}"
        lines.append(f"{r.label:>12}  {r.count:>6}  {score:>7}")
    return "\n".join(lines)


def binned_tsv(axis: str, results: Sequence[BinResult]) -> str:
    lines = [f"{axis}\tcount\tbleu"]
    for r in results:
        score = "" if r.bleu is None else f"{r.bleu:.6f}"
        lines.append(f"{r.label}\t{r.count}\t{score}")
    return "\n".join(lines) + "\n"
