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
from dataclasses import dataclass, replace
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
    log_softmax,
    matmul,
    mul,
    pick,
    reduce_sum,
    take_rows,
)

VARIANTS = ("global", "local", "i-attention", "log-cad")


@dataclass
class ModelConfig:
    """Architecture variant flags and dimensions (defaults are the full-size
    configuration; tests shrink them)."""

    variant: str = "log-cad"
    enc_layers: int = 2
    enc_width: int = 600        # concatenated bidirectional width
    attn_width: int = 300
    word_emb_width: int = 300
    char_out_width: int = 160
    char_emb_width: int = 16
    dec_layers: int = 2
    dec_width: int = 300
    vocab_size: int = 10000     # cap including special tokens
    dropout: float = 0.5

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
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
            return self.word_emb_width + self.char_out_width
        if self.variant == "local":
            return self.enc_width + self.char_out_width
        return self.word_emb_width + self.enc_width + self.char_out_width

    @property
    def dec_input_width(self) -> int:
        if self.variant == "i-attention":
            return 2 * self.word_emb_width  # [word emb ; masked phrase emb]
        return self.word_emb_width

    def to_meta(self) -> dict[str, str]:
        return {
            "variant": self.variant,
            "enc_layers": str(self.enc_layers),
            "enc_width": str(self.enc_width),
            "attn_width": str(self.attn_width),
            "word_emb_width": str(self.word_emb_width),
            "char_out_width": str(self.char_out_width),
            "char_emb_width": str(self.char_emb_width),
            "dec_layers": str(self.dec_layers),
            "dec_width": str(self.dec_width),
            "vocab_size": str(self.vocab_size),
            "dropout": repr(self.dropout),
        }

    @classmethod
    def from_meta(cls, meta: dict[str, str]) -> "ModelConfig":
        return cls(
            variant=meta["variant"],
            enc_layers=int(meta["enc_layers"]),
            enc_width=int(meta["enc_width"]),
            attn_width=int(meta["attn_width"]),
            word_emb_width=int(meta["word_emb_width"]),
            char_out_width=int(meta["char_out_width"]),
            char_emb_width=int(meta["char_emb_width"]),
            dec_layers=int(meta["dec_layers"]),
            dec_width=int(meta["dec_width"]),
            vocab_size=int(meta["vocab_size"]),
            dropout=float(meta["dropout"]),
        )


def _char_banks(config: ModelConfig) -> tuple[tuple[int, int], ...]:
    banks = CharCnnParams.DEFAULT_BANKS
    if sum(c for _, c in banks) != config.char_out_width:
        raise ValueError("char_out_width must match the kernel bank channels")
    return banks


class ModelParams:
    """The trainable weights of one variant: only the parameter groups its
    ``ModelConfig.uses_*`` flags select (see the README's per-variant table)."""

    def __init__(self, config: ModelConfig, n_vocab: int,
                 rng: np.random.Generator, dtype=np.float32):
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
        char = CharCnnParams.create(
            rng, config.char_emb_width, _char_banks(config), dtype)
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
class DecodeState:
    """Per-step decoder state: per-layer (h, c) pairs plus the previous
    gated state fed back as the top layer's recurrent hidden input."""

    layer_states: list  # list of (h, c) Tensor pairs
    s_prime: Tensor     # (B, dec_width)


@dataclass
class _Session:
    """Frozen per-sequence conditioning for step-by-step decoding."""

    state: DecodeState
    step: int
    x_trg: Optional[Tensor]        # (1, W) phrase embedding (None for local)
    c_trg: Optional[Tensor]        # (1, 160)
    x_masked: Optional[Tensor]     # (1, W) masked embedding (i-attention)
    enc_states: Optional[Tensor]   # (1, T, enc_width)
    enc_proj: Optional[Tensor]
    enc_bias: Optional[np.ndarray]


class DescriptionModel:
    """One encoder-decoder description generator instance.

    Construction draws all parameters from the seed; the same seed and
    config always yield bit-identical parameters.
    """

    def __init__(self, config: ModelConfig, vocab: Vocab,
                 emb_table: Optional[EmbeddingTable] = None,
                 seed: int = 0, dtype=np.float32):
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
        self.params = ModelParams(config, len(vocab), np.random.default_rng([seed, 0]), dtype)
        self._drop_rng = np.random.default_rng([seed, 1])

    # ------------------------------------------------------------------
    # per-sequence conditioning

    def _phrase_matrix(self, phrases: Sequence[Sequence[str]]) -> Tensor:
        rows = [phrase_embedding(words, self.emb_table) for words in phrases]
        return Tensor(np.asarray(rows, dtype=self.dtype))

    def _encode(self, ctx_ids: np.ndarray, lengths: np.ndarray,
                train: bool) -> tuple[Tensor, Optional[Tensor], np.ndarray]:
        embs = take_rows(self.params.word_emb, ctx_ids)
        drop = self.config.dropout if train else 0.0
        states = bilstm_encode(self.params.encoder, embs, lengths,
                               drop=drop, rng=self._drop_rng)
        t = ctx_ids.shape[1]
        bias = np.where(np.arange(t)[None, :] < lengths[:, None], 0.0, MASK_BIAS)
        proj = project_context(self.params.attn, states) if self.config.uses_attention else None
        return states, proj, bias.astype(self.dtype)

    def _maybe_dropout(self, x: Tensor, train: bool) -> Tensor:
        if train and self.config.dropout > 0.0:
            return dropout(x, self.config.dropout, self._drop_rng)
        return x

    def _zero_state(self, batch_size: int) -> DecodeState:
        dw = self.config.dec_width
        zeros = lambda: Tensor(np.zeros((batch_size, dw), dtype=self.dtype))  # noqa: E731
        return DecodeState(
            layer_states=[(zeros(), zeros()) for _ in range(self.config.dec_layers)],
            s_prime=zeros(),
        )

    # ------------------------------------------------------------------
    # one decoder step (shared by teacher forcing and decoding)

    def _decode_step(self, state: DecodeState, emb_in: Tensor,
                     enc_states: Optional[Tensor], enc_proj: Optional[Tensor],
                     enc_bias: Optional[np.ndarray],
                     x_trg: Optional[Tensor], c_trg: Optional[Tensor],
                     train: bool) -> tuple[Tensor, DecodeState]:
        cfg = self.config
        x = self._maybe_dropout(emb_in, train)
        new_states = []
        top = cfg.dec_layers - 1
        for k, lstm_p in enumerate(self.params.decoder):
            h, c = state.layer_states[k]
            if k == top and cfg.uses_gate:
                h = state.s_prime  # the top layer recurs on the previous gated state
            if k > 0:
                x = self._maybe_dropout(x, train)
            h, c = lstm_cell(lstm_p, x, h, c)
            new_states.append((h, c))
            x = h
        s_t = x

        if cfg.uses_gate:
            feats = []
            if cfg.uses_global_embedding:
                feats.append(x_trg)
            if cfg.uses_attention:
                d_t, _alpha = attention(self.params.attn, enc_states, s_t,
                                        mask_bias=enc_bias, projected=enc_proj)
                feats.append(d_t)
            feats.append(c_trg)
            s_out = gate(self.params.gate, s_t, concat(feats, axis=1))
        else:
            s_out = s_t

        logits = add(matmul(s_out, self.params.out_w), self.params.out_b)
        return logits, DecodeState(layer_states=new_states, s_prime=s_out)

    def _step_input(self, step: int, prev_ids: Optional[np.ndarray],
                    x_trg: Optional[Tensor], x_masked: Optional[Tensor],
                    batch_size: int) -> Tensor:
        cfg = self.config
        if step == 0:
            if cfg.uses_global_embedding:
                first = x_trg
            else:
                first = Tensor(np.zeros((batch_size, cfg.word_emb_width), dtype=self.dtype))
        else:
            first = take_rows(self.params.word_emb, prev_ids)
        if cfg.variant == "i-attention":
            return concat([first, x_masked], axis=1)
        return first

    # ------------------------------------------------------------------
    # training loss

    def forward_loss(self, batch: Batch, train: bool = False) -> tuple[Tensor, dict]:
        """Teacher-forced mean negative log-likelihood per non-pad target
        token, plus accuracy counts in the aux dict."""
        if len(batch) == 0:
            raise ValueError("forward_loss: empty batch")
        cfg = self.config
        b = len(batch)

        enc_states = enc_proj = None
        enc_bias = None
        if cfg.uses_encoder:
            enc_states, enc_proj, enc_bias = self._encode(
                batch.context_ids, batch.context_lengths, train)

        x_trg = self._phrase_matrix(batch.phrase_words) if cfg.uses_global_embedding else None
        c_trg = char_cnn(self.params.char, batch.phrase_words) if cfg.uses_char else None
        x_masked = None
        if cfg.variant == "i-attention":
            x_masked = iattention_mask(self.params.masknet, enc_states, x_trg,
                                       lengths=batch.context_lengths)

        state = self._zero_state(b)
        n_steps = batch.target_ids.shape[1]
        total = None
        correct = 0
        for t in range(n_steps):
            prev = batch.prev_ids[:, t] if t > 0 else None
            emb_in = self._step_input(t, prev, x_trg, x_masked, b)
            logits, state = self._decode_step(
                state, emb_in, enc_states, enc_proj, enc_bias, x_trg, c_trg, train)
            logp = log_softmax(logits, axis=1)
            picked = pick(logp, batch.target_ids[:, t])
            masked = mul(picked, Tensor(batch.target_mask[:, t].astype(self.dtype)))
            step_sum = reduce_sum(masked)
            total = step_sum if total is None else add(total, step_sum)
            correct += int(
                ((np.argmax(logits.data, axis=1) == batch.target_ids[:, t])
                 * batch.target_mask[:, t]).sum()
            )

        n_tokens = float(batch.target_mask.sum())
        loss = mul(total, -1.0 / n_tokens)
        return loss, {"tokens": n_tokens, "correct": correct,
                      "accuracy": correct / n_tokens}

    # ------------------------------------------------------------------
    # step-by-step decoding interface

    def start_session(self, entry: Entry) -> _Session:
        cfg = self.config
        batch = make_batch([entry], self.vocab)
        enc_states = enc_proj = None
        enc_bias = None
        if cfg.uses_encoder:
            enc_states, enc_proj, enc_bias = self._encode(
                batch.context_ids, batch.context_lengths, train=False)
        x_trg = self._phrase_matrix(batch.phrase_words) if cfg.uses_global_embedding else None
        c_trg = char_cnn(self.params.char, batch.phrase_words) if cfg.uses_char else None
        x_masked = None
        if cfg.variant == "i-attention":
            x_masked = iattention_mask(self.params.masknet, enc_states, x_trg,
                                       lengths=batch.context_lengths)
        return _Session(state=self._zero_state(1), step=0, x_trg=x_trg, c_trg=c_trg,
                        x_masked=x_masked, enc_states=enc_states, enc_proj=enc_proj,
                        enc_bias=enc_bias)

    def step(self, session: _Session, prev_id: Optional[int]) -> tuple[np.ndarray, _Session]:
        """Advance one decode step; returns (log-probabilities over the
        vocabulary, next session). ``prev_id`` is None at the first step."""
        if (prev_id is None) != (session.step == 0):
            raise ValueError("step: prev_id must be None exactly at the first step")
        prev = None if prev_id is None else np.array([prev_id], dtype=np.intp)
        emb_in = self._step_input(session.step, prev, session.x_trg,
                                  session.x_masked, 1)
        logits, state = self._decode_step(
            session.state, emb_in, session.enc_states, session.enc_proj,
            session.enc_bias, session.x_trg, session.c_trg, train=False)
        logp = log_softmax(logits, axis=1).data[0]
        return logp, replace(session, state=state, step=session.step + 1)


# ---------------------------------------------------------------------------
# checkpoint format: text manifest, then raw little-endian float32 blocks


_MAGIC = "logcad-checkpoint v1"
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
    with open(path, "rb") as fh:
        blob = fh.read()
    split = blob.find(_DATA_MARKER)
    if split < 0:
        raise ValueError(f"{path}: not a checkpoint (missing data marker)")
    manifest = blob[:split].decode("utf-8").splitlines()
    data = blob[split + len(_DATA_MARKER):]
    if not manifest or manifest[0] != _MAGIC:
        raise ValueError(f"{path}: bad checkpoint magic")
    meta: dict[str, str] = {}
    tensors: dict[str, np.ndarray] = {}
    for line in manifest[1:]:
        kind, rest = line.split(" ", 1)
        if kind == "meta":
            key, value = rest.split("=", 1)
            meta[key] = value
        elif kind == "tensor":
            name, shape_s, dtype_s, offset_s, nbytes_s = rest.split(" ")
            if dtype_s != "float32":
                raise ValueError(f"{path}: unsupported dtype {dtype_s}")
            shape = tuple(int(d) for d in shape_s.split("x"))
            offset, nbytes = int(offset_s), int(nbytes_s)
            arr = np.frombuffer(data[offset : offset + nbytes], dtype="<f4").reshape(shape)
            tensors[name] = arr
        else:
            raise ValueError(f"{path}: bad manifest line {line!r}")
    return tensors, meta


def load_params_into(params: ModelParams, tensors: dict[str, np.ndarray]) -> None:
    """Copy the tensors ``params`` holds from ``tensors``; names the variant
    does not hold, as in checkpoints that carry every group, are ignored."""
    for name, t in params.named():
        if name not in tensors:
            raise ValueError(f"checkpoint missing tensor {name}")
        arr = tensors[name]
        if arr.shape != t.shape:
            raise ValueError(f"checkpoint tensor {name} has shape {arr.shape}, expected {t.shape}")
        t.data = arr.astype(params.dtype)


def load_model(path, vocab: Vocab, emb_table: Optional[EmbeddingTable] = None,
               dtype=np.float32) -> tuple[DescriptionModel, dict[str, str]]:
    """Rebuild a model from a checkpoint's config metadata and weights."""
    tensors, meta = load_checkpoint(path)
    config = ModelConfig.from_meta(meta)
    seed = int(meta.get("seed", "0"))
    if emb_table is None:
        emb_table = EmbeddingTable.empty(config.word_emb_width, seed)
    model = DescriptionModel(config, vocab, emb_table, seed=seed, dtype=dtype)
    load_params_into(model.params, tensors)
    return model, meta
