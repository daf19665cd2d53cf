"""The four description-generation variants assembled from the layer
building blocks.

variant     decoder conditioning
-------     --------------------
global      phrase embedding + char CNN through the fusion gate; never
            reads the local context
local       attention summary + char CNN through the gate; no phrase
            embedding (step 0 consumes a zero vector)
i-attention phrase embedding soft-masked by the encoded context, fed as
            part of every decoder input; no char CNN, no gate
log-cad     phrase embedding + attention summary + char CNN through the
            gate

All variants share the decoding recurrence: the decoder LSTM stack consumes
the previous output word's embedding (the phrase embedding at step 0), and
for gated variants the top layer's recurrent hidden state is the previous
gated state. Output logits are an affine map of the (gated) state.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass, fields, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from logcad.data import Batch, EmbeddingTable, Entry, Vocab, make_batch
from logcad.layers import (
    AttentionParams,
    BiLstmParams,
    CharCnnParams,
    GateParams,
    LstmParams,
    MaskNetParams,
    attention,
    bilstm_encode,
    char_cnn,
    gate,
    gate_constants,
    iattention_mask,
    lstm_cell,
    project_context,
    matrix_init,
    uniform_init,
)
from logcad.tensor import (
    Tensor,
    concat,
    dropout_keep,
    linear_nll,
    lstm_sequence,
    reshape,
    take_rows,
)

VARIANTS = ("global", "local", "i-attention", "log-cad")
CHAR_WIDTH = sum(channels for _, channels in CharCnnParams.DEFAULT_BANKS)


@dataclass
class ModelConfig:
    """Architecture variant flags and dimensions (defaults are the full-size
    configuration; tests shrink them)."""

    variant: str = "log-cad"
    enc_layers: int = 2
    enc_width: int = 600        # concatenated bidirectional width
    attn_width: int = 300
    word_emb_width: int = 300
    dec_layers: int = 2
    dec_width: int = 300
    vocab_size: int = 10000     # cap including special tokens
    dropout: float = 0.5

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, int) and value < 1:
                raise ValueError(f"{f.name} must be at least 1, got {value}")
        if self.vocab_size < len(Vocab.SPECIALS):
            raise ValueError(f"vocab_size must be at least {len(Vocab.SPECIALS)} (the special "
                             f"tokens), got {self.vocab_size}")
        if self.enc_width % 2:
            raise ValueError("enc_width must be even (two encoder directions)")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    @property
    def uses_attention(self) -> bool:
        return self.variant in ("local", "log-cad")

    @property
    def uses_encoder(self) -> bool:
        return self.variant != "global"

    @property
    def uses_gate(self) -> bool:
        """The fusion gate, and the char CNN, which feeds only the gate."""
        return self.variant != "i-attention"

    @property
    def uses_global_embedding(self) -> bool:
        return self.variant != "local"

    @property
    def feature_width(self) -> int:
        """Width of the gate's context feature f_t. I-Attention has no gate;
        its discarded gate draw is sized as for log-cad."""
        if self.variant == "global":
            return self.word_emb_width + CHAR_WIDTH
        if self.variant == "local":
            return self.enc_width + CHAR_WIDTH
        return self.word_emb_width + self.enc_width + CHAR_WIDTH

    @property
    def dec_input_width(self) -> int:
        if self.variant == "i-attention":
            return 2 * self.word_emb_width  # [word emb ; masked phrase emb]
        return self.word_emb_width

    def to_meta(self) -> dict[str, str]:
        return {f.name: str(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_meta(cls, meta: dict[str, str]) -> "ModelConfig":
        """Rebuild a config from checkpoint metadata; keys that are not
        config fields (``seed``, ``epoch``, widths of older versions) are
        ignored."""
        values = {}
        for f in fields(cls):
            if f.name not in meta:
                raise ValueError(f"checkpoint meta has no {f.name!r}")
            values[f.name] = parse_value(f.name, meta[f.name], f.default)
        return cls(**values)


def parse_value(key: str, raw: str, default):
    """``raw`` as the type of ``default``; the error names option or meta ``key``."""
    kind = type(default)
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(f"{key}={raw!r} is not "
                         f"{'an integer' if kind is int else 'a number'}") from None


def meta_count(meta: dict[str, str], key: str) -> int:
    """Checkpoint meta ``key`` (0 when absent) as an integer of at least 0."""
    value = parse_value(key, meta.get(key, "0"), 0)
    if value < 0:
        raise ValueError(f"{key}={value} must be at least 0")
    return value


class InputMismatch(ValueError):
    """A vocabulary or embedding table that does not fit; the message names its file."""


class ModelParams:
    """The trainable weights of one variant: only the parameter groups its
    ``ModelConfig.uses_*`` flags select (see the README's per-variant table).
    A dropped group is not built: a fresh model advances ``rng`` past the
    values its weight matrices would draw, so every kept tensor takes the
    same values from the seed as when each variant held all groups. With
    ``rng=None`` the kept weights are uninitialized placeholders of the right
    shapes, for ``load_params_into`` to replace."""

    def __init__(self, config: ModelConfig, n_vocab: int,
                 rng: Optional[np.random.Generator], dtype=np.float32):
        self.dtype = dtype

        def held(kept: bool, create):
            # a dropped group draws, writes and keeps nothing; on a fresh model
            # rng skips its weight matrices, sized by unwritten placeholders,
            # at the one 64-bit output PCG64 spends per float64
            if kept:
                return create(rng)
            if rng is not None:
                rng.bit_generator.advance(sum(t.size for _, t in create(None).named("")
                                              if t.ndim == 2))
            return None

        self.word_emb = uniform_init(rng, (n_vocab, config.word_emb_width), dtype)
        self.encoder = held(config.uses_encoder, lambda r: BiLstmParams.create(
            r, config.word_emb_width, config.enc_width, config.enc_layers, dtype))
        self.decoder: list[LstmParams] = []
        in_dim = config.dec_input_width
        for _ in range(config.dec_layers):
            self.decoder.append(LstmParams.create(rng, in_dim, config.dec_width, dtype))
            in_dim = config.dec_width
        self.attn = held(config.uses_attention, lambda r: AttentionParams.create(
            r, config.enc_width, config.dec_width, config.attn_width, dtype))
        self.char = held(config.uses_gate, lambda r: CharCnnParams.create(r, dtype=dtype))
        self.gate = held(config.uses_gate, lambda r: GateParams.create(
            r, config.feature_width, config.dec_width, dtype))
        self.masknet = held(config.variant == "i-attention", lambda r: MaskNetParams.create(
            r, config.enc_width, config.word_emb_width, config.word_emb_width, dtype))
        self.out_w = matrix_init(rng, (config.dec_width, n_vocab), dtype)
        self.out_b = Tensor(np.zeros(n_vocab, dtype=dtype), requires_grad=True)

    def named(self) -> Iterator[tuple[str, Tensor]]:
        yield "word_emb", self.word_emb
        if self.encoder is not None:
            yield from self.encoder.named("encoder")
        for k, p in enumerate(self.decoder):
            yield from p.named(f"decoder.l{k}")
        for prefix, group in (("attn", self.attn), ("char", self.char),
                              ("gate", self.gate), ("masknet", self.masknet)):
            if group is not None:
                yield from group.named(prefix)
        yield "out.w", self.out_w
        yield "out.b", self.out_b

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named()]


def phrase_embedding(phrase_words: Sequence[str], table: EmbeddingTable) -> np.ndarray:
    """Sum of the pre-trained vectors of the phrase's words; every
    out-of-table word contributes the one shared UNK vector."""
    if not phrase_words:
        raise ValueError("phrase_embedding: empty phrase")
    out = np.zeros(table.width)
    for w in phrase_words:
        out = out + table.lookup(w)
    return out


@dataclass
class _Session:
    """A batch's decoder state plus its conditioning, which is built once
    and shared by every step."""

    step: int
    layer_states: list             # per decoder layer (h, c), each (B, dec_width)
    x_trg: Optional[Tensor]        # (B, W) phrase embedding (None for local)
    c_trg: Optional[Tensor]        # (B, 160) char CNN features
    x_masked: Optional[Tensor]     # (B, W) masked embedding (i-attention)
    enc_states: Optional[Tensor]   # (B, T, enc_width), for attention
    enc_proj: Optional[Tensor]
    enc_lengths: Optional[np.ndarray]  # (B,) context lengths, for attention
    pre: Optional[Tensor]          # (B, dec_width + F): the gate's z and r pre-activations
                                   # from its bias and the features x_trg and c_trg

    def take(self, rows) -> "_Session":
        """The session made of rows ``rows`` of this one, in that order: a
        slice or an index array, whose rows may repeat. Each tensor is a
        ``take_rows`` op, so on a gradient tape the gradients flow back to this
        session."""
        if not isinstance(rows, slice):
            rows = np.asarray(rows, dtype=np.intp)

        def pick(t):
            return None if t is None else take_rows(t, rows)

        return replace(self, layer_states=[(pick(h), pick(c)) for h, c in self.layer_states],
                       x_trg=pick(self.x_trg), c_trg=pick(self.c_trg),
                       x_masked=pick(self.x_masked),
                       enc_states=pick(self.enc_states), enc_proj=pick(self.enc_proj),
                       enc_lengths=None if self.enc_lengths is None else self.enc_lengths[rows],
                       pre=pick(self.pre))


class DescriptionModel:
    """One encoder-decoder description generator instance.

    Construction draws all parameters from the seed, unless ``params`` are
    given (``model_from_checkpoint`` passes placeholders it then loads); the
    same seed and config always yield bit-identical parameters.
    """

    def __init__(self, config: ModelConfig, vocab: Vocab,
                 emb_table: Optional[EmbeddingTable] = None,
                 seed: int = 0, dtype=np.float32, params: Optional[ModelParams] = None):
        if len(vocab) > config.vocab_size:
            raise ValueError(
                f"vocab has {len(vocab)} entries, above the configured cap "
                f"{config.vocab_size}"
            )
        self.config = config
        self.vocab = vocab
        self.dtype = dtype
        self.seed = seed
        if emb_table is None:
            emb_table = EmbeddingTable.empty(config.word_emb_width, seed)
        if config.uses_global_embedding and emb_table.width != config.word_emb_width:
            raise InputMismatch(f"{emb_table.source}: embedding width {emb_table.width} != "
                                f"word_emb_width {config.word_emb_width}")
        self.emb_table = emb_table
        if params is None:
            params = ModelParams(config, len(vocab), np.random.default_rng([seed, 0]), dtype)
        self.params = params
        self._drop_rng = np.random.default_rng([seed, 1])

    # ------------------------------------------------------------------
    # conditioning and the decoder pass (shared by teacher forcing and decoding)

    def _start(self, batch: Batch, train: bool) -> _Session:
        """Build the conditioning and the zero decoder state of the batch's
        rows, in batch order, with encoder dropout when ``train``. A gated
        variant's conditioning includes the gate's pre-activations from its
        constant features, the phrase embedding and the char CNN's."""
        cfg = self.config
        enc_states = enc_proj = enc_lengths = x_trg = c_trg = x_masked = pre = None
        if cfg.uses_encoder:
            lengths = batch.context_lengths
            embs = take_rows(self.params.word_emb, batch.context_ids)
            enc_states = bilstm_encode(self.params.encoder, embs, lengths,
                                       drop=cfg.dropout if train else 0.0, rng=self._drop_rng)
            if cfg.uses_attention:
                enc_lengths = lengths
                enc_proj = project_context(self.params.attn, enc_states, lengths)
        if cfg.uses_global_embedding:
            x_trg = Tensor(np.asarray([phrase_embedding(words, self.emb_table)
                                       for words in batch.phrase_words], dtype=self.dtype))
        if cfg.variant == "i-attention":
            x_masked = iattention_mask(self.params.masknet, enc_states, x_trg, lengths=lengths)
            enc_states = None  # after this step only attention reads them
        if cfg.uses_gate:
            c_trg = char_cnn(self.params.char, batch.phrase_words)
            # the gate's feature rows are [x_trg; d_t; c_trg], without the
            # blocks the variant lacks; d_t changes at every step
            blocks = [(0, x_trg)] if cfg.uses_global_embedding else []
            blocks.append((cfg.feature_width - CHAR_WIDTH, c_trg))
            pre = gate_constants(self.params.gate, blocks)
        zeros = lambda: Tensor(np.zeros((len(batch), cfg.dec_width), dtype=self.dtype))  # noqa: E731
        return _Session(step=0, layer_states=[(zeros(), zeros()) for _ in self.params.decoder],
                        x_trg=x_trg, c_trg=c_trg, x_masked=x_masked,
                        enc_states=enc_states, enc_proj=enc_proj, enc_lengths=enc_lengths,
                        pre=pre)

    def _top(self, session: _Session, x: Tensor, drop) -> tuple[Tensor, Tensor]:
        """A gated variant's top decoder layer's ``lstm_cell`` step on input
        ``x``, with its dropout ``drop``, from its state in ``session``, then
        attention and the fusion gate. Returns the output state, on which the
        layer recurs, and the cell state."""
        cfg = self.config
        h, c = lstm_cell(self.params.decoder[-1], x, *session.layer_states[-1], drop=drop)
        feats = [session.x_trg] if cfg.uses_global_embedding else []
        var = None  # the block that is new at this step, d_t
        if cfg.uses_attention:
            d_t, _alpha = attention(self.params.attn, session.enc_states, h,
                                    session.enc_lengths, session.enc_proj)
            var = len(feats)
            feats.append(d_t)
        feats.append(session.c_trg)
        return gate(self.params.gate, h, feats, var, session.pre), c

    def _inputs(self, session: _Session, ids: np.ndarray) -> Tensor:
        """The decoder's inputs (rows, T, width) for the session's next T
        steps, whose previous words are ``ids`` (rows, T - 1 at step 0, else
        T): the phrase embedding at step 0 (zeros for local, which has none),
        then the embeddings of ``ids``; i-attention appends its masked phrase
        embedding at every step."""
        cfg = self.config
        rows, steps = ids.shape[0], ids.shape[1] + (session.step == 0)
        parts = []
        if session.step == 0:
            first = session.x_trg if cfg.uses_global_embedding else \
                Tensor(np.zeros((rows, cfg.word_emb_width), dtype=self.dtype))
            parts.append(reshape(first, (rows, 1, first.shape[1])))
        if ids.shape[1]:
            parts.append(take_rows(self.params.word_emb, ids))
        x = concat(parts, axis=1)
        if cfg.variant == "i-attention":
            each_step = np.repeat(np.arange(rows)[:, None], steps, axis=1)
            x = concat([x, take_rows(session.x_masked, each_step)], axis=2)
        return x

    def _decode(self, session: _Session, x: Tensor, lengths: np.ndarray,
                keeps: Optional[list] = None) -> tuple[Tensor, _Session]:
        """Run the decoder stack from the session's state over inputs ``x``
        (rows, T, width), row r for its first ``lengths[r]`` steps, rows sorted
        longest first, with each layer's input dropout from its keep mask in
        ``keeps``, inside its ops. Each layer below the top, and i-attention's
        top layer, is one ``lstm_sequence``; the gated top layer steps through
        ``_top`` on the rows still live, each step with its slice of the mask.
        Returns the top outputs at the real positions, time-major, and the
        session after the last step, holding the rows live there."""
        cfg = self.config
        steps = x.shape[1]
        states = list(session.layer_states)
        for k, lstm_p in enumerate(self.params.decoder):
            if k < cfg.dec_layers - 1 or not cfg.uses_gate:
                drop = None if keeps is None else (keeps[k], cfg.dropout)
                x, h, c = lstm_sequence(x, lstm_p.wx, lstm_p.b, lstm_p.wh, lengths, *states[k],
                                        drop=drop)
                states[k] = (h, c)
        session = replace(session, step=session.step + steps, layer_states=states)
        if not cfg.uses_gate:
            steps_of, rows_of = (lengths > np.arange(steps)[:, None]).nonzero()
            return take_rows(x, (rows_of, steps_of)), session
        # the rows live at each step, a prefix
        live = [len(lengths)] if steps == 1 else \
            np.count_nonzero(lengths > np.arange(steps)[:, None], axis=1).tolist()
        outs = []
        for t, n in enumerate(live):
            if t and n < live[t - 1]:
                session = session.take(slice(0, n))
            drop = None if keeps is None else (keeps[-1][:n, t], cfg.dropout)
            s_out, c = self._top(session, take_rows(x, np.s_[:n, t]), drop)
            # this pass made the list, so the caller's session keeps its states
            session.layer_states[-1] = (s_out, c)
            outs.append(s_out)
        return concat(outs, axis=0), session

    # ------------------------------------------------------------------
    # training loss

    def _dropout_masks(self, rows: int, steps: int) -> list[np.ndarray]:
        """Each decoder layer's boolean input keep mask for all steps, (rows,
        steps, input width), one draw per layer, bottom layer first."""
        return [dropout_keep((rows, steps, p.input_dim), self.config.dropout, self._drop_rng)
                for p in self.params.decoder]

    def forward_loss(self, batch: Batch, train: bool) -> tuple[Tensor, dict]:
        """Teacher-forced mean negative log-likelihood per non-pad target
        token, plus token counts in the aux dict, with dropout when ``train``:
        the batch's rows are sorted once by description length, longest first
        (ties keep batch order), and everything after is built in that order:
        the conditioning, the dropout masks, one ``_decode`` pass over the
        previous gold words, and one ``linear_nll`` op over its outputs, the
        real target rows."""
        if len(batch) == 0:
            raise ValueError("forward_loss: empty batch")
        batch = batch.take((-batch.target_lengths).argsort(kind="stable"))
        rows, steps = batch.target_ids.shape
        lengths = batch.target_lengths
        session = self._start(batch, train)
        keeps = self._dropout_masks(rows, steps) if train and self.config.dropout > 0.0 else None
        out, _ = self._decode(session, self._inputs(session, batch.target_ids[:, :-1]),
                              lengths, keeps)
        targets = batch.target_ids.T[lengths > np.arange(steps)[:, None]]
        n_tokens = float(len(targets))
        loss, correct = linear_nll(out, self.params.out_w, self.params.out_b, targets,
                                   np.full(len(targets), 1.0 / n_tokens))
        return loss, {"tokens": n_tokens, "correct": correct}

    # ------------------------------------------------------------------
    # step-by-step decoding interface

    def start_session(self, entries: Sequence[Entry]) -> _Session:
        """A decoding session with one row per entry."""
        return self._start(make_batch(entries, self.vocab), train=False)

    def step(self, session: _Session,
             prev_ids: Optional[Sequence[int]]) -> tuple[np.ndarray, _Session]:
        """Advance every row one decode step; returns the (rows, V)
        log-probabilities and the next session. ``prev_ids`` holds each row's
        previous token and is None exactly at the first step."""
        if (prev_ids is None) != (session.step == 0):
            raise ValueError("step: prev_ids must be None exactly at the first step")
        rows = session.layer_states[0][0].shape[0]
        if prev_ids is None:
            prev = np.empty((rows, 0), dtype=np.intp)
        else:
            prev = np.asarray(prev_ids, dtype=np.intp)
            if prev.shape != (rows,):
                raise ValueError(f"step: {prev.shape} prev_ids for {rows} session rows")
            prev = prev[:, None]
        s_out, session = self._decode(session, self._inputs(session, prev),
                                      np.ones(rows, dtype=np.intp))
        logp = s_out.data @ self.params.out_w.data
        logp += self.params.out_b.data
        logp -= logp.max(axis=1, keepdims=True)
        logp -= np.log(np.exp(logp).sum(axis=1, keepdims=True))
        return logp, session


# ---------------------------------------------------------------------------
# checkpoint format: text manifest, then raw little-endian float32 blocks


# v2 stores each LSTM cell as fused ``wx``/``wh``/``b`` (gate order i, f, g, o),
# and the fusion gate's update and reset weights fused as ``w_zr``/``b_zr``: a v2
# file with the gate's four separate tensors lacks ``gate.w_zr`` and is refused
# as missing it. v1 stored twelve per-gate LSTM tensors and is refused
_MAGIC = "logcad-checkpoint v2"
_V1_MAGIC = "logcad-checkpoint v1"
_DATA_MARKER = b"\nDATA\n"


def save_checkpoint(path, params: ModelParams, meta: dict) -> None:
    """Write a text manifest (metadata lines, then one line per tensor with
    name, shape, dtype, byte offset and length) followed by the raw
    little-endian float32 data blocks in manifest order.

    The file is written beside ``path`` and renamed onto it: a failed write
    leaves any file at ``path`` as it was, and its error names ``path``."""
    head = io.StringIO()
    head.write(_MAGIC + "\n")
    for key, value in meta.items():
        value = str(value)
        if "\n" in value or "\t" in key or " " in key:
            raise ValueError(f"checkpoint meta {key!r} not representable")
        head.write(f"meta {key}={value}\n")
    offset = 0
    for name, t in params.named():
        shape = "x".join(str(d) for d in t.shape)
        head.write(f"tensor {name} {shape} float32 {offset} {4 * t.size}\n")
        offset += 4 * t.size
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(head.getvalue().encode("utf-8"))
            fh.write(_DATA_MARKER)
            for _, t in params.named():
                fh.write(np.ascontiguousarray(t.data, dtype="<f4"))
        os.replace(tmp, path)
    except BaseException as e:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(e, OSError) and e.errno is not None and e.filename is None:
            e.filename = str(path)
        raise


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Read a checkpoint; the tensor blocks must tile the data exactly, in
    manifest order, with unique names and lengths that match their shapes.

    The data section is read once into one fresh buffer, and each returned
    tensor is an aligned, writable, C-contiguous view of it."""
    with open(path, "rb") as fh:
        head = bytearray()
        # the manifest ends at the first "DATA" line that follows a newline
        for line in fh:
            if line == _DATA_MARKER[1:] and head:
                break
            head += line
        else:
            raise ValueError(f"{path}: not a checkpoint (missing data marker)")
        data = np.empty(os.fstat(fh.fileno()).st_size - fh.tell(), dtype=np.uint8)
        got = fh.readinto(data)
    if got != len(data):
        raise ValueError(f"{path}: short read, {got} of {len(data)} data bytes")
    try:
        manifest = head[:-1].decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}: checkpoint manifest is not UTF-8 "
                         f"(byte {e.start}: {e.reason})") from None
    if manifest and manifest[0] == _V1_MAGIC:
        raise ValueError(f"{path}: checkpoint format v1 (per-gate LSTM tensors) is no "
                         f"longer read; retrain to write {_MAGIC}")
    if not manifest or manifest[0] != _MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic")
    meta: dict[str, str] = {}
    tensors: dict[str, np.ndarray] = {}
    end = 0
    for line in manifest[1:]:
        kind, _, rest = line.partition(" ")
        parts = rest.split(" ")
        if kind == "meta" and "=" in rest:
            key, value = rest.split("=", 1)
            meta[key] = value
        elif kind == "tensor" and len(parts) == 5:
            name, shape_s, dtype_s, offset_s, nbytes_s = parts
            if dtype_s != "float32":
                raise ValueError(f"{path}: tensor {name} has unsupported dtype {dtype_s}")
            try:
                shape = tuple(int(d) for d in shape_s.split("x"))
                offset, nbytes = int(offset_s), int(nbytes_s)
            except ValueError:
                raise ValueError(f"{path}: bad manifest line {line!r}") from None
            if name in tensors:
                raise ValueError(f"{path}: tensor {name} appears twice")
            if min(shape) <= 0 or nbytes != 4 * math.prod(shape):
                raise ValueError(f"{path}: tensor {name} has {nbytes} bytes for shape {shape_s}")
            if offset != end:
                raise ValueError(f"{path}: tensor {name} starts at byte {offset}, expected {end}")
            end = offset + nbytes
            if end > len(data):
                raise ValueError(f"{path}: tensor {name} runs past the end of the data")
            tensors[name] = data[offset:end].view("<f4").reshape(shape)
        else:
            raise ValueError(f"{path}: bad manifest line {line!r}")
    if end != len(data):
        last = next(reversed(tensors), None)
        raise ValueError(f"{path}: {len(data) - end} bytes follow the last tensor, {last}")
    return tensors, meta


def load_params_into(params: ModelParams, tensors: dict[str, np.ndarray]) -> None:
    """Set the tensors ``params`` holds from ``tensors``; each must be there
    with its shape, and names ``params`` does not hold are ignored. Arrays
    already of ``params.dtype`` are adopted, not copied, so later writes to
    the weights show in ``tensors``; others are cast."""
    for name, t in params.named():
        if name not in tensors:
            raise ValueError(f"checkpoint missing tensor {name}")
        arr = tensors[name]
        if arr.shape != t.shape:
            raise ValueError(f"checkpoint tensor {name} has shape {arr.shape}, expected {t.shape}")
        t.data = arr if arr.dtype == params.dtype else arr.astype(params.dtype)


def model_from_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict[str, str],
                          vocab: Vocab, emb_table: Optional[EmbeddingTable]) -> DescriptionModel:
    """Rebuild a model from ``load_checkpoint(path)``'s tensors and config
    metadata. No weight is drawn: each starts as a placeholder that the
    checkpoint's tensor replaces, and a tensor it lacks or shapes differently
    raises ``ValueError``. Each ``ValueError`` names ``path``, apart from an
    ``InputMismatch``, which names the vocabulary's or embedding table's file."""
    try:
        config = ModelConfig.from_meta(meta)
        seed = meta_count(meta, "seed")
        rows = tensors.get("word_emb")
        if rows is not None and len(rows) != len(vocab):
            raise InputMismatch(f"{vocab.source}: {len(vocab)} tokens, but the checkpoint was "
                                f"trained with {len(rows)}")
        model = DescriptionModel(config, vocab, emb_table, seed=seed,
                                 params=ModelParams(config, len(vocab), None))
        load_params_into(model.params, tensors)
    except InputMismatch:
        raise
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return model


def load_model(path, vocab: Vocab, emb_table: Optional[EmbeddingTable] = None
               ) -> tuple[DescriptionModel, dict[str, str]]:
    """Rebuild a model from a checkpoint file; returns it with the metadata."""
    tensors, meta = load_checkpoint(path)
    return model_from_checkpoint(path, tensors, meta, vocab, emb_table), meta
