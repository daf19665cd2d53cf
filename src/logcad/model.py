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
    MASK_BIAS,
    attention,
    bilstm_encode,
    char_cnn,
    gate,
    iattention_mask,
    lstm_cell,
    project_context,
    matrix_init,
    uniform_init,
)
from logcad.tensor import (
    Tensor,
    add,
    concat,
    dropout,
    masked_nll,
    matmul,
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
    def uses_char(self) -> bool:
        return self.variant != "i-attention"

    @property
    def uses_gate(self) -> bool:
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
            try:
                values[f.name] = type(f.default)(meta[f.name])
            except ValueError:
                raise ValueError(
                    f"checkpoint meta {f.name}={meta[f.name]!r} is not a number") from None
        return cls(**values)


class ModelParams:
    """The trainable weights of one variant: only the parameter groups its
    ``ModelConfig.uses_*`` flags select (see the README's per-variant table).
    With ``rng=None`` the weights are uninitialized placeholders of the right
    shapes, for ``load_params_into`` to replace."""

    def __init__(self, config: ModelConfig, n_vocab: int,
                 rng: Optional[np.random.Generator], dtype=np.float32):
        self.dtype = dtype
        # unused groups are drawn, then dropped, so every kept tensor takes the
        # same values from the seed as when each variant held all groups
        self.word_emb = uniform_init(rng, (n_vocab, config.word_emb_width), dtype)
        encoder = BiLstmParams.create(
            rng, config.word_emb_width, config.enc_width, config.enc_layers, dtype)
        self.decoder: list[LstmParams] = []
        in_dim = config.dec_input_width
        for _ in range(config.dec_layers):
            self.decoder.append(LstmParams.create(rng, in_dim, config.dec_width, dtype))
            in_dim = config.dec_width
        attn = AttentionParams.create(
            rng, config.enc_width, config.dec_width, config.attn_width, dtype)
        char = CharCnnParams.create(rng, dtype=dtype)
        gate = GateParams.create(rng, config.feature_width, config.dec_width, dtype)
        masknet = MaskNetParams.create(
            rng, config.enc_width, config.word_emb_width, config.word_emb_width, dtype)
        self.out_w = matrix_init(rng, (config.dec_width, n_vocab), dtype)
        self.out_b = Tensor(np.zeros(n_vocab, dtype=dtype), requires_grad=True)
        self.encoder = encoder if config.uses_encoder else None
        self.attn = attn if config.uses_attention else None
        self.char = char if config.uses_char else None
        self.gate = gate if config.uses_gate else None
        self.masknet = masknet if config.variant == "i-attention" else None

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

    def groups(self) -> dict[str, list[Tensor]]:
        out: dict[str, list[Tensor]] = {}
        for name, t in self.named():
            out.setdefault(name.split(".")[0], []).append(t)
        return out


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
    s_prime: Tensor                # (B, dec_width) previous (gated) output state
    x_trg: Optional[Tensor]        # (B, W) phrase embedding (None for local)
    c_trg: Optional[Tensor]        # (B, 160) char CNN features
    x_masked: Optional[Tensor]     # (B, W) masked embedding (i-attention)
    enc_states: Optional[Tensor]   # (B, T, enc_width)
    enc_proj: Optional[Tensor]
    enc_bias: Optional[np.ndarray]

    def take(self, rows) -> "_Session":
        """The session made of rows ``rows`` of this one, in that order (rows
        may repeat). Forward-only: the copies are not on any gradient tape."""
        rows = np.asarray(rows, dtype=np.intp)

        def pick(t):
            return None if t is None else Tensor(t.data[rows])

        return replace(self, layer_states=[(pick(h), pick(c)) for h, c in self.layer_states],
                       s_prime=pick(self.s_prime), x_trg=pick(self.x_trg),
                       c_trg=pick(self.c_trg), x_masked=pick(self.x_masked),
                       enc_states=pick(self.enc_states), enc_proj=pick(self.enc_proj),
                       enc_bias=None if self.enc_bias is None else self.enc_bias[rows])


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
            raise ValueError(
                f"embedding width {emb_table.width} != word_emb_width "
                f"{config.word_emb_width}"
            )
        self.emb_table = emb_table
        if params is None:
            params = ModelParams(config, len(vocab), np.random.default_rng([seed, 0]), dtype)
        self.params = params
        self._drop_rng = np.random.default_rng([seed, 1])

    # ------------------------------------------------------------------
    # conditioning and the decoder step (shared by teacher forcing and decoding)

    def _maybe_dropout(self, x: Tensor, train: bool) -> Tensor:
        if train and self.config.dropout > 0.0:
            return dropout(x, self.config.dropout, self._drop_rng)
        return x

    def _start(self, batch: Batch, train: bool) -> _Session:
        """Build the batch's conditioning and the zero decoder state."""
        cfg = self.config
        enc_states = enc_proj = enc_bias = x_trg = c_trg = x_masked = None
        if cfg.uses_encoder:
            lengths = batch.context_lengths
            embs = take_rows(self.params.word_emb, batch.context_ids)
            enc_states = bilstm_encode(self.params.encoder, embs, lengths,
                                       drop=cfg.dropout if train else 0.0, rng=self._drop_rng)
            positions = np.arange(batch.context_ids.shape[1])[None, :]
            enc_bias = np.where(positions < lengths[:, None], 0.0, MASK_BIAS).astype(self.dtype)
            if cfg.uses_attention:
                enc_proj = project_context(self.params.attn, enc_states)
        if cfg.uses_global_embedding:
            x_trg = Tensor(np.asarray([phrase_embedding(words, self.emb_table)
                                       for words in batch.phrase_words], dtype=self.dtype))
        if cfg.uses_char:
            c_trg = char_cnn(self.params.char, batch.phrase_words)
        if cfg.variant == "i-attention":
            x_masked = iattention_mask(self.params.masknet, enc_states, x_trg,
                                       lengths=batch.context_lengths)
        zeros = lambda: Tensor(np.zeros((len(batch), cfg.dec_width), dtype=self.dtype))  # noqa: E731
        return _Session(step=0, layer_states=[(zeros(), zeros()) for _ in self.params.decoder],
                        s_prime=zeros(), x_trg=x_trg, c_trg=c_trg, x_masked=x_masked,
                        enc_states=enc_states, enc_proj=enc_proj, enc_bias=enc_bias)

    def _advance(self, session: _Session, prev_ids: Optional[np.ndarray],
                 train: bool) -> tuple[Tensor, _Session]:
        """One decoder step for every row of the session; returns the (gated)
        output state and the next session. At step 0 the input is the phrase
        embedding (zeros for local) and ``prev_ids`` is ignored."""
        cfg = self.config
        if session.step > 0:
            x = take_rows(self.params.word_emb, prev_ids)
        elif cfg.uses_global_embedding:
            x = session.x_trg
        else:
            x = Tensor(np.zeros((session.s_prime.shape[0], cfg.word_emb_width),
                                dtype=self.dtype))
        if cfg.variant == "i-attention":
            x = concat([x, session.x_masked], axis=1)
        x = self._maybe_dropout(x, train)
        new_states = []
        top = cfg.dec_layers - 1
        for k, lstm_p in enumerate(self.params.decoder):
            h, c = session.layer_states[k]
            if k == top and cfg.uses_gate:
                h = session.s_prime  # the top layer recurs on the previous gated state
            if k > 0:
                x = self._maybe_dropout(x, train)
            h, c = lstm_cell(lstm_p, x, h, c)
            new_states.append((h, c))
            x = h
        s_t = x

        if cfg.uses_gate:
            feats = []
            if cfg.uses_global_embedding:
                feats.append(session.x_trg)
            if cfg.uses_attention:
                d_t, _alpha = attention(self.params.attn, session.enc_states, s_t,
                                        mask_bias=session.enc_bias,
                                        projected=session.enc_proj)
                feats.append(d_t)
            feats.append(session.c_trg)
            s_out = gate(self.params.gate, s_t, concat(feats, axis=1))
        else:
            s_out = s_t

        return s_out, replace(session, step=session.step + 1,
                              layer_states=new_states, s_prime=s_out)

    # ------------------------------------------------------------------
    # training loss

    def forward_loss(self, batch: Batch, train: bool = False) -> tuple[Tensor, dict]:
        """Teacher-forced mean negative log-likelihood per non-pad target
        token, plus token counts in the aux dict."""
        if len(batch) == 0:
            raise ValueError("forward_loss: empty batch")
        session = self._start(batch, train)
        states = []
        for t in range(batch.target_ids.shape[1]):
            s_out, session = self._advance(session, batch.prev_ids[:, t], train)
            states.append(s_out)
        # one output head for all steps: row t*B + b is entry b at step t
        logits = add(matmul(concat(states, axis=0), self.params.out_w), self.params.out_b)
        targets = batch.target_ids.T.reshape(-1)
        mask = batch.target_mask.T.reshape(-1)
        n_tokens = float(mask.sum())
        loss = masked_nll(logits, targets, mask / n_tokens)
        correct = int(((np.argmax(logits.data, axis=1) == targets) * mask).sum())
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
        prev = None if prev_ids is None else np.asarray(prev_ids, dtype=np.intp)
        if prev is not None and prev.shape != (session.s_prime.shape[0],):
            raise ValueError(f"step: {prev.shape} prev_ids for "
                             f"{session.s_prime.shape[0]} session rows")
        s_out, session = self._advance(session, prev, train=False)
        logits = s_out.data @ self.params.out_w.data + self.params.out_b.data
        shifted = logits - logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)), session


# ---------------------------------------------------------------------------
# checkpoint format: text manifest, then raw little-endian float32 blocks


# v2 stores each LSTM cell as fused ``wx``/``wh``/``b`` (gate order i, f, g, o);
# v1 stored twelve per-gate tensors and is refused
_MAGIC = "logcad-checkpoint v2"
_V1_MAGIC = "logcad-checkpoint v1"
_DATA_MARKER = b"\nDATA\n"


def save_checkpoint(path, params: ModelParams, meta: Optional[dict] = None) -> None:
    """Write a text manifest (metadata lines, then one line per tensor with
    name, shape, dtype, byte offset and length) followed by the raw
    little-endian float32 data blocks in manifest order."""
    head = io.StringIO()
    head.write(_MAGIC + "\n")
    for key, value in (meta or {}).items():
        value = str(value)
        if "\n" in value or "\t" in key or " " in key:
            raise ValueError(f"checkpoint meta {key!r} not representable")
        head.write(f"meta {key}={value}\n")
    blocks = []
    offset = 0
    for name, t in params.named():
        raw = np.ascontiguousarray(t.data, dtype="<f4").tobytes()
        shape = "x".join(str(d) for d in t.shape)
        head.write(f"tensor {name} {shape} float32 {offset} {len(raw)}\n")
        blocks.append(raw)
        offset += len(raw)
    with open(path, "wb") as fh:
        fh.write(head.getvalue().encode("utf-8"))
        fh.write(_DATA_MARKER)
        for raw in blocks:
            fh.write(raw)


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
    """Set the tensors ``params`` holds from ``tensors``; names the variant
    does not hold, as in checkpoints that carry every group, are ignored.
    Arrays already of ``params.dtype`` are adopted, not copied, so later
    writes to the weights show in ``tensors``; others are cast."""
    for name, t in params.named():
        if name not in tensors:
            raise ValueError(f"checkpoint missing tensor {name}")
        arr = tensors[name]
        if arr.shape != t.shape:
            raise ValueError(f"checkpoint tensor {name} has shape {arr.shape}, expected {t.shape}")
        t.data = arr if arr.dtype == params.dtype else arr.astype(params.dtype)


def model_from_checkpoint(tensors: dict[str, np.ndarray], meta: dict[str, str], vocab: Vocab,
                          emb_table: Optional[EmbeddingTable] = None,
                          dtype=np.float32) -> DescriptionModel:
    """Rebuild a model from ``load_checkpoint``'s tensors and config metadata.
    No weight is drawn: each starts as a placeholder that the checkpoint's
    tensor replaces, and a tensor it lacks or shapes differently raises
    ``ValueError``."""
    config = ModelConfig.from_meta(meta)
    model = DescriptionModel(config, vocab, emb_table, seed=int(meta.get("seed", "0")),
                             dtype=dtype, params=ModelParams(config, len(vocab), None, dtype))
    load_params_into(model.params, tensors)
    return model


def load_model(path, vocab: Vocab, emb_table: Optional[EmbeddingTable] = None,
               dtype=np.float32) -> tuple[DescriptionModel, dict[str, str]]:
    """Rebuild a model from a checkpoint file; returns it with the metadata."""
    tensors, meta = load_checkpoint(path)
    try:
        return model_from_checkpoint(tensors, meta, vocab, emb_table, dtype), meta
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
