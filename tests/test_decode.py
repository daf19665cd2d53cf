import itertools

import numpy as np
import numpy.testing as npt
import pytest

from logcad.data import EmbeddingTable, Entry, Vocab
from logcad.decode import Hypothesis, _search, _top_k, beam_search, decode_batch, greedy_decode
from logcad.model import VARIANTS, DescriptionModel, ModelConfig

VOCAB = Vocab(list(Vocab.SPECIALS) + ["aa", "bb", "cc"])
A = VOCAB.index["aa"]
B = VOCAB.index["bb"]
C = VOCAB.index["cc"]


class Prefixes(list):
    """A rigged session: the prefix each row has consumed."""

    def take(self, rows):
        return Prefixes(self[r] for r in rows)


class RiggedModel:
    """Deterministic fake exposing the batch decode protocol: each row's
    log-prob vector is a pure function of the prefix it consumed."""

    def __init__(self, logits_fn):
        self.vocab = VOCAB
        self._fn = logits_fn

    def start_session(self, entries):
        return Prefixes(() for _ in entries)

    def step(self, session, prev_ids):
        prefixes = session if prev_ids is None else Prefixes(
            prefix + (int(tok),) for prefix, tok in zip(session, prev_ids))
        logits = np.asarray([self._fn(prefix) for prefix in prefixes], dtype=np.float64)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return logp, prefixes


def eos_always():
    def fn(prefix):
        logits = np.zeros(len(VOCAB))
        logits[Vocab.EOS] = 50.0
        return logits
    return RiggedModel(fn)


def ab_cycle():
    def fn(prefix):
        logits = np.full(len(VOCAB), -100.0)
        logits[A if len(prefix) % 2 == 0 else B] = 5.0
        return logits
    return RiggedModel(fn)


def random_model(seed, allow_eos=True):
    def fn(prefix):
        rng = np.random.default_rng([seed, len(prefix), *[int(p) for p in prefix]])
        logits = rng.normal(size=len(VOCAB)) * 3.0
        if not allow_eos:
            logits[Vocab.EOS] = -np.inf
        return logits
    return RiggedModel(fn)


class TestGreedy:
    def test_immediate_eos_gives_empty_output(self):
        assert greedy_decode(eos_always(), None, max_len=10) == []

    def test_cycle_without_eos_hits_max_len(self):
        assert greedy_decode(ab_cycle(), None, max_len=4) == [A, B, A, B]

    def test_never_emits_pad_and_respects_max_len(self):
        for seed in range(10):
            out = greedy_decode(random_model(seed), None, max_len=6)
            assert len(out) <= 6
            assert Vocab.PAD not in out and Vocab.BOS not in out

    def test_matches_beam_one_on_random_models(self):
        for seed in range(20):
            model = random_model(seed)
            assert greedy_decode(model, None, max_len=8) == \
                beam_search(model, None, beam=1, max_len=8)

    def test_max_len_validated(self):
        with pytest.raises(ValueError):
            greedy_decode(eos_always(), None, max_len=0)


class TestBeam:
    def test_wide_beam_equals_exhaustive_enumeration(self):
        # 2 usable tokens, eos impossible: all 2**3 sequences enumerable
        base = random_model(99, allow_eos=False)._fn

        def masked(prefix):
            logits = np.asarray(base(prefix), dtype=np.float64).copy()
            for tok in (Vocab.UNK, Vocab.TRG, C):
                logits[tok] = -np.inf
            return logits

        model = RiggedModel(masked)

        def seq_score(seq):
            # brute-force oracle: walk the model step by step over the sequence
            total = 0.0
            session = model.start_session([None])
            prev = None
            for tok in seq:
                logp, session = model.step(session, prev)
                total += logp[0, tok]
                prev = [tok]
            return total / len(seq)

        best = max(itertools.product([A, B], repeat=3), key=seq_score)
        assert beam_search(model, None, beam=8, max_len=3) == list(best)

    def test_beam_never_scores_below_greedy(self):
        for seed in range(20):
            model = random_model(seed)
            g, = _search(model, [None], beam=1, max_len=6)
            b, = _search(model, [None], beam=4, max_len=6)
            assert b.score >= g.score - 1e-12

    def test_deterministic(self):
        model = random_model(5)
        a = beam_search(model, None, beam=3, max_len=7)
        b = beam_search(model, None, beam=3, max_len=7)
        assert a == b

    def test_finished_preferred_over_unfinished(self):
        # eos clearly best after two tokens
        def fn(prefix):
            logits = np.full(len(VOCAB), -10.0)
            if len(prefix) < 2:
                logits[A] = 3.0
            else:
                logits[Vocab.EOS] = 6.0
            return logits

        model = RiggedModel(fn)
        assert beam_search(model, None, beam=3, max_len=10) == [A, A]

    def test_beam_validated(self):
        with pytest.raises(ValueError):
            beam_search(eos_always(), None, beam=0)


class TestHypothesis:
    def test_finished_iff_last_token_is_eos(self):
        h = Hypothesis([A, Vocab.EOS], -1.0, None, True)
        assert h.output_ids == [A]
        h2 = Hypothesis([A, B], -1.0, None, False)
        assert h2.output_ids == [A, B]

    def test_score_normalizes_by_token_count(self):
        h = Hypothesis([A, B, Vocab.EOS], -3.0, None, True)
        assert h.score == pytest.approx(-1.0)

    def test_logprob_non_increasing_as_tokens_append(self):
        model = random_model(3)
        session = model.start_session([None])
        hyp = Hypothesis([], 0.0, 0, False)
        last = 0.0
        for _ in range(5):
            logp, session = model.step(session, hyp.token_ids[-1:] or None)
            tok = int(np.argmax(logp[0]))
            hyp = Hypothesis(hyp.token_ids + [tok], hyp.logprob + logp[0, tok], 0,
                             tok == Vocab.EOS)
            assert hyp.logprob <= last + 1e-12
            last = hyp.logprob
            if hyp.finished:
                break


# ---------------------------------------------------------------------------
# batched search against the per-hypothesis search it replaced


def reference_beam(model, entry, beam, max_len):
    """One session and one ``step`` per hypothesis, a full stable argsort per
    step: the search ``decode_batch`` must reproduce token for token."""
    start = ([], 0.0, model.start_session([entry]))
    live, greedy, finished = [start], start, []

    def score(h):
        return h[1] / max(len(h[0]), 1)

    for _ in range(max_len):
        candidates, greedy_next = [], None
        for hyp in live:
            tokens, logprob, session = hyp
            logp, session = model.step(session, [tokens[-1]] if tokens else None)
            logp = logp[0].astype(np.float64)
            logp[[Vocab.PAD, Vocab.BOS]] = -np.inf
            for rank, tok in enumerate(np.argsort(-logp, kind="stable")[:beam]):
                if not np.isfinite(logp[tok]):
                    continue
                child = (tokens + [int(tok)], logprob + float(logp[tok]), session)
                (finished if tok == Vocab.EOS else candidates).append(child)
                if rank == 0 and hyp is greedy:
                    greedy_next = child
        candidates.sort(key=lambda h: -h[1])
        live = candidates[:beam]
        greedy = None
        if greedy_next is not None and greedy_next[0][-1] != Vocab.EOS:
            if all(h is not greedy_next for h in live):
                live.append(greedy_next)
            greedy = greedy_next
        if not live:
            break
    best = max(finished or live, key=score)
    if greedy is not None and score(greedy) > score(best):
        best = greedy
    return best[0][:-1] if best[0][-1:] == [Vocab.EOS] else best[0]


def tied_model(seed):
    """Logits on two levels, so most steps tie many tokens."""
    def fn(prefix):
        rng = np.random.default_rng([seed, len(prefix), *[int(p) for p in prefix]])
        return rng.integers(0, 2, size=len(VOCAB)).astype(np.float64)
    return RiggedModel(fn)


class TestSelection:
    def test_top_k_is_a_stable_argsort_prefix(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            given = rng.choice([np.nan, -np.inf, -2.0, -1.0, 0.0, np.inf], size=(4, 9))
            read = np.fmax(given, -np.inf)  # NaN read as -inf
            logp = given.copy()
            for k in range(1, 10):
                ids, vals = _top_k(logp, k)
                want = np.argsort(-read, axis=1, kind="stable")[:, :k]
                npt.assert_array_equal(ids, want)
                npt.assert_array_equal(vals, np.take_along_axis(read, want, axis=1))
                # only NaN entries may change, and only to -inf
                npt.assert_array_equal(np.where(np.isnan(given), np.fmax(logp, -np.inf), logp),
                                       read)

    def test_all_tied_greedy_emits_lowest_usable_id(self):
        flat = RiggedModel(lambda prefix: np.zeros(len(VOCAB)))
        assert greedy_decode(flat, None, max_len=3) == [Vocab.UNK] * 3

    @pytest.mark.parametrize("beam", [1, 2, 3])
    def test_row_without_finite_token_ends_search_on_greedy_path(self, beam):
        # a NaN row (a broken model) is never decoded from; the greedy prefix
        # is returned, as greedy decoding returns it
        def fn(prefix):
            logits = np.full(len(VOCAB), -np.inf)
            if prefix:
                return np.full(len(VOCAB), np.nan)
            logits[A], logits[B] = 5.0, 4.0
            return logits
        assert beam_search(RiggedModel(fn), None, beam=beam, max_len=5) == [A]

    @pytest.mark.parametrize("beam", [1, 2, 3, 5])
    def test_tied_log_probs_picked_as_stable_argsort(self, beam):
        for seed in range(20):
            model = tied_model(seed)
            assert beam_search(model, None, beam=beam, max_len=6) == \
                reference_beam(model, None, beam, 6)

    @pytest.mark.parametrize("beam", [1, 2, 3, 5])
    def test_random_models_match_per_hypothesis_search(self, beam):
        for seed in range(20):
            model = random_model(seed)
            assert beam_search(model, None, beam=beam, max_len=7) == \
                reference_beam(model, None, beam, 7)


TINY = dict(enc_layers=2, enc_width=6, attn_width=3, word_emb_width=4,
            dec_layers=2, dec_width=5, vocab_size=64, dropout=0.5)
WORDS = Vocab(list(Vocab.SPECIALS) + ["red", "fish", "blue", "dog", "the", "a"])
# contexts of different lengths force padding in a shared session
ENTRIES = [
    Entry(["sonic", "boom"], ["the", "[TRG]", "was", "loud"], (1, 1), ["red"]),
    Entry(["dog"], ["a", "[TRG]", "barked", "at", "him", "twice"], (1, 1), ["blue"]),
    Entry(["x"], ["[TRG]"], (0, 0), ["fish"]),
    Entry(["blue", "dog"], ["[TRG]", "fish", "red"], (0, 0), ["dog"]),
    Entry(["sonic"], ["red", "red", "blue", "[TRG]", "dog", "fish", "the", "end"], (3, 3),
          ["red"]),
    Entry(["a", "fish"], ["the", "the", "[TRG]"], (2, 2), ["a"]),
]


def tiny_model(variant, seed=10):
    # at this seed every variant's entries finish at different steps
    rng = np.random.default_rng(seed)
    table = EmbeddingTable({t: rng.normal(size=4) for t in ("sonic", "boom", "dog")}, 4,
                           seed=seed)
    return DescriptionModel(ModelConfig(variant=variant, **TINY), WORDS, table, seed=seed,
                            dtype=np.float64)


class StepOnly:
    """Exposes only ``start_session``, ``step`` and ``vocab`` of a model and
    counts ``step`` calls."""

    def __init__(self, model):
        self.vocab = model.vocab
        self._model = model
        self.calls = 0

    def start_session(self, entries):
        return self._model.start_session(entries)

    def step(self, session, prev_ids):
        self.calls += 1
        return self._model.step(session, prev_ids)


class TestBatchedDecoding:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("beam", [1, 2, 5])
    def test_chunk_equals_one_entry_decoding(self, variant, beam):
        model = tiny_model(variant)
        together = decode_batch(model, ENTRIES, beam, max_len=8)
        assert together == [beam_search(model, e, beam=beam, max_len=8) for e in ENTRIES]
        assert together == [reference_beam(model, e, beam, 8) for e in ENTRIES]
        # rows of entries that finished early leave the session mid-search
        assert len({len(ids) for ids in together}) > 1

    def test_one_step_call_per_decode_step(self):
        model = tiny_model("log-cad")
        model.params.out_b.data[Vocab.EOS] = -1e9  # never finishes, as untrained
        for beam in (1, 5):
            proxy = StepOnly(model)
            assert len(beam_search(proxy, ENTRIES[0], beam=beam, max_len=7)) == 7
            assert proxy.calls == 7
        proxy = StepOnly(model)
        decode_batch(proxy, ENTRIES, beam=5, max_len=7)
        assert proxy.calls == 7

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_protocol_only_proxy_decodes_identically(self, variant):
        model = tiny_model(variant)
        for beam in (1, 3):
            assert decode_batch(StepOnly(model), ENTRIES, beam, max_len=8) == \
                decode_batch(model, ENTRIES, beam, max_len=8)
