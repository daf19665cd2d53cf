"""Greedy and beam-search description generation, many entries at a time.

Works against the batch decode protocol of
:class:`logcad.model.DescriptionModel`: ``start_session(entries)`` gives a
session with one row per entry, ``step(session, prev_ids)`` advances every
row and returns ``(rows, V)`` log-probabilities (``prev_ids`` holds each
row's previous token and is None at the first step), and
``session.take(rows)`` selects, reorders or repeats rows. Anything exposing
that protocol plus a ``vocab`` decodes the same way.

:func:`decode_batch` advances every live hypothesis of every entry with one
``step`` call; greedy decoding is beam width 1. Scores are summed token
log-probabilities; hypotheses are compared after normalizing by token
count. [PAD] and <bos> are never emitted, and tokens with non-finite
log-probability are never selected. The beam always retains the greedy
continuation, so beam search never returns a hypothesis scoring below
greedy decoding under the same normalization. An entry's result does not
depend on which entries are decoded with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from logcad.data import Vocab

DEFAULT_MAX_LEN = 30


@dataclass
class Hypothesis:
    """Partial decode: emitted token ids (<eos> kept when finished),
    cumulative log-probability, the session row holding its decoder state,
    and a finished flag."""

    token_ids: list
    logprob: float
    row: Optional[int]
    finished: bool

    @property
    def score(self) -> float:
        return self.logprob / max(len(self.token_ids), 1)

    @property
    def output_ids(self) -> list:
        if self.finished and self.token_ids and self.token_ids[-1] == Vocab.EOS:
            return self.token_ids[:-1]
        return list(self.token_ids)


@dataclass
class _Beam:
    """One entry's search state. ``greedy`` is the greedy continuation: it
    stays in ``live`` while it lives, is kept for the final pick when its
    row has no finite token, and is None once it finished (it is then in
    ``finished``)."""

    live: list
    finished: list
    greedy: Optional[Hypothesis]

    def extend(self, top: list, logp: list, beam: int) -> None:
        """Replace ``live`` by the next step's hypotheses, given each row's
        top token ids and their log-probabilities in rank order."""
        candidates = []
        greedy_next = None
        for hyp in self.live:
            for rank, (tok, lp) in enumerate(zip(top[hyp.row], logp[hyp.row])):
                if not math.isfinite(lp):
                    continue
                child = Hypothesis(hyp.token_ids + [tok], hyp.logprob + lp, hyp.row,
                                   tok == Vocab.EOS)
                (self.finished if child.finished else candidates).append(child)
                if rank == 0 and hyp is self.greedy:
                    greedy_next = child
        # stable: equal log-probabilities keep (hypothesis, rank) order
        candidates.sort(key=lambda h: -h.logprob)
        self.live = candidates[:beam]
        if greedy_next is not None:
            self.greedy = None if greedy_next.finished else greedy_next
            if self.greedy is not None and all(h is not self.greedy for h in self.live):
                self.live.append(self.greedy)

    def best(self) -> Hypothesis:
        """The best finished hypothesis by normalized score (the best live
        one when none finished), unless the greedy continuation scores
        higher."""
        best = max(self.finished or self.live, key=lambda h: h.score, default=None)
        if self.greedy is not None and (best is None or self.greedy.score > best.score):
            best = self.greedy
        return best


def _top_k(logp: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Column ids and values of the ``k`` largest values of each row, largest
    first and lowest id first among equal values (the first ``k`` of a
    stable argsort of ``-logp``) without sorting whole rows. ``logp`` holds
    no NaN."""
    if k == 1:
        return np.argmax(logp, axis=1)[:, None], logp.max(axis=1, keepdims=True)
    cut = logp.shape[1] - k
    top = np.argpartition(logp, cut, axis=1)[:, cut:]
    vals = np.take_along_axis(logp, top, axis=1)
    # argpartition picks arbitrarily among ids tied at the k-th value; where
    # more ids share it than fit, take those with the lowest ids
    kth = vals.min(axis=1)
    for r in np.flatnonzero(np.count_nonzero(logp >= kth[:, None], axis=1) > k):
        ids = np.flatnonzero(logp[r] >= kth[r])
        top[r] = ids[np.argsort(-logp[r, ids], kind="stable")[:k]]
        vals[r] = logp[r, top[r]]
    order = np.lexsort((top, -vals))
    return np.take_along_axis(top, order, axis=1), np.take_along_axis(vals, order, axis=1)


def _search(model, entries: Sequence, beam: int, max_len: int) -> list[Hypothesis]:
    """Beam search over all ``entries`` at once; every live hypothesis is one
    session row, and each step advances all of them with one ``step``."""
    if beam < 1:
        raise ValueError(f"beam width must be at least 1, got {beam}")
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    session = model.start_session(entries)
    beams = []
    for row in range(len(entries)):
        start = Hypothesis([], 0.0, row, False)
        beams.append(_Beam(live=[start], finished=[], greedy=start))
    active = beams  # entries with live hypotheses, in session-row order
    prev_ids = None
    for _ in range(max_len):
        logp, session = model.step(session, prev_ids)
        logp = np.fmax(logp, -np.inf)  # a copy, with NaN as -inf
        logp[:, Vocab.PAD] = -np.inf
        logp[:, Vocab.BOS] = -np.inf
        top, top_logp = _top_k(logp, min(beam, logp.shape[1]))
        top, top_logp = top.tolist(), top_logp.tolist()
        for b in active:
            b.extend(top, top_logp, beam)
        active = [b for b in active if b.live]
        if not active:
            break
        live = [h for b in active for h in b.live]
        rows = [h.row for h in live]
        if rows != list(range(logp.shape[0])):
            session = session.take(rows)
        for row, h in enumerate(live):
            h.row = row  # its state is now that row of the session
        prev_ids = [h.token_ids[-1] for h in live]
    return [b.best() for b in beams]


def decode_batch(model, entries: Sequence, beam: int = 1,
                 max_len: int = DEFAULT_MAX_LEN) -> list[list]:
    """Decode ``entries`` together; returns each entry's token ids without
    <eos>. ``beam`` 1 emits the argmax token at each step (greedy); wider
    beams return the best finished hypothesis by length-normalized score, or
    the best unfinished one when nothing finished within ``max_len``."""
    return [h.output_ids for h in _search(model, entries, beam, max_len)]


def greedy_decode(model, entry, max_len: int = DEFAULT_MAX_LEN) -> list:
    """Emit the argmax token at each step until <eos> or ``max_len``."""
    return decode_batch(model, [entry], 1, max_len)[0]


def beam_search(model, entry, beam: int = 5, max_len: int = DEFAULT_MAX_LEN) -> list:
    """Beam search for one entry (see :func:`decode_batch`)."""
    return decode_batch(model, [entry], beam, max_len)[0]
