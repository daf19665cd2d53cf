"""Neural building blocks: the LSTM cell and the bidirectional local-context
encoder (both on ``tensor.lstm_sequence``), the character-level CNN, bilinear
attention (on ``tensor.bilinear_attention``), the context-fusion gate (on
``tensor.fusion_gate``), and the I-Attention soft-mask network.

Layers are pure functions of (params, inputs). Parameter containers expose
``named(prefix)`` so the model can assemble a flat name -> tensor registry.
Batch convention: vectors ``(B, D)``, sequences ``(B, T, D)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from logcad.tensor import (
    ShapeError,
    Tensor,
    add,
    bilinear_attention,
    concat,
    dropout_keep,
    fusion_gate,
    lstm_sequence,
    matmul,
    mul,
    reduce_max,
    reduce_sum,
    reshape,
    sigmoid,
    take_rows,
    tanh,
)

INIT_SCALE = 0.08  # uniform weight init range; forget-gate bias starts at 1
INIT_BLOCK = 1 << 16  # values per rng.uniform call in uniform_init


def uniform_init(rng: Optional[np.random.Generator], shape, dtype=np.float64,
                 scale: float = INIT_SCALE) -> Tensor:
    """Uniform [-scale, scale] weights, drawn as float64 and rounded once into
    ``dtype``, block by block in C order: the values of one draw of the whole
    shape, without its full-size float64 array. With no ``rng``, an
    uninitialized placeholder of the shape, for weights a checkpoint load
    overwrites."""
    data = np.empty(shape, dtype=dtype)
    if rng is not None:
        flat = data.reshape(-1)
        for start in range(0, flat.size, INIT_BLOCK):
            stop = min(start + INIT_BLOCK, flat.size)
            flat[start:stop] = rng.uniform(-scale, scale, size=stop - start)
    return Tensor(data, requires_grad=True)


def matrix_init(rng: Optional[np.random.Generator], shape, dtype=np.float64) -> Tensor:
    """Init for matmul weight matrices: uniform [-0.08, 0.08] floored by the
    Glorot bound sqrt(6/(fan_in+fan_out)). At the full-size widths (300-600)
    the flat 0.08 dominates; at the reduced test widths the floor keeps
    activations from vanishing through the deep stack. No ``rng`` gives a
    placeholder, as for ``uniform_init``."""
    fan_in, fan_out = shape[0], shape[-1]
    scale = max(INIT_SCALE, np.sqrt(6.0 / (fan_in + fan_out)))
    return uniform_init(rng, shape, dtype, scale=scale)


# ---------------------------------------------------------------------------
# LSTM


@dataclass
class LstmParams:
    """Input-to-hidden / hidden-to-hidden weights and biases of the four
    LSTM gates, fused column-wise in gate order i, f, g, o (input, forget,
    candidate, output): gate k owns columns ``k*hidden:(k+1)*hidden``."""

    wx: Tensor  # (input_dim, 4*hidden)
    wh: Tensor  # (hidden, 4*hidden)
    b: Tensor   # (4*hidden,); the forget block starts at 1
    input_dim: int

    @classmethod
    def create(cls, rng: Optional[np.random.Generator], input_dim: int, hidden: int,
               dtype=np.float64) -> "LstmParams":
        # per-gate draws in the order wx_i, wh_i, wx_f, ..., each with its own
        # Glorot floor, side by side; no rng leaves placeholders, as in matrix_init
        wx = np.empty((input_dim, 4 * hidden), dtype=dtype)
        wh = np.empty((hidden, 4 * hidden), dtype=dtype)
        if rng is not None:
            for k in range(4):
                cols = slice(k * hidden, (k + 1) * hidden)
                wx[:, cols] = matrix_init(rng, (input_dim, hidden), dtype).data
                wh[:, cols] = matrix_init(rng, (hidden, hidden), dtype).data
        b = np.zeros(4 * hidden, dtype=dtype)
        b[hidden:2 * hidden] = 1.0
        return cls(wx=Tensor(wx, requires_grad=True), wh=Tensor(wh, requires_grad=True),
                   b=Tensor(b, requires_grad=True), input_dim=input_dim)

    def named(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}.wx", self.wx
        yield f"{prefix}.wh", self.wh
        yield f"{prefix}.b", self.b


def lstm_cell(p: LstmParams, x: Tensor, h: Tensor, c: Tensor, drop=None) -> tuple[Tensor, Tensor]:
    """One step of the ``tensor.lstm_sequence`` recurrence for each row of
    ``x`` (B, input_dim) from the state ``(h, c)`` (B, hidden); returns the
    new ``(h, c)``. ``drop = (keep, p)`` is inverted dropout on ``x`` inside
    the op, as in ``lstm_sequence``, from a boolean (B, input_dim) ``keep``."""
    rows = x.shape[0]
    if drop is not None:
        drop = (drop[0][:, None], drop[1])
    _, h_new, c_new = lstm_sequence(reshape(x, (rows, 1, x.shape[-1])), p.wx, p.b, p.wh,
                                    np.ones(rows, dtype=np.intp), h, c, drop=drop)
    return h_new, c_new


# ---------------------------------------------------------------------------
# bidirectional encoder


@dataclass
class BiLstmParams:
    """Stacked bidirectional encoder; layer k consumes layer k-1's output
    sequence (forward/backward halves concatenated)."""

    layers: list  # list of (fwd LstmParams, bwd LstmParams)
    out_width: int

    @classmethod
    def create(cls, rng: Optional[np.random.Generator], input_dim: int, out_width: int,
               n_layers: int, dtype=np.float64) -> "BiLstmParams":
        if out_width % 2:
            raise ValueError("encoder width must be even (two directions)")
        half = out_width // 2
        layers = []
        in_dim = input_dim
        for _ in range(n_layers):
            fwd = LstmParams.create(rng, in_dim, half, dtype)
            bwd = LstmParams.create(rng, in_dim, half, dtype)
            layers.append((fwd, bwd))
            in_dim = out_width
        return cls(layers=layers, out_width=out_width)

    def named(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        for k, (fwd, bwd) in enumerate(self.layers):
            yield from fwd.named(f"{prefix}.l{k}.fwd")
            yield from bwd.named(f"{prefix}.l{k}.bwd")


def bilstm_encode(p: BiLstmParams, embs: Tensor, lengths: np.ndarray,
                  drop: float, rng: np.random.Generator) -> Tensor:
    """Encode (B, T, E) token embeddings into (B, T, out_width) states.

    Each position's state is [forward half; backward half] for that position.
    ``lengths`` gives true sequence lengths; each layer is one
    ``lstm_sequence`` op that runs both directions from a zero state over the
    real tokens only and writes them side by side, so states past the tokens
    read 0 and cost nothing. They are still not context: consumers such as
    attention must mask them. With ``drop`` above 0, each later layer's
    input is dropped at that rate inside its op, from a boolean keep mask
    drawn from ``rng`` over the rows as given; at 0, ``rng`` is not read.
    """
    if embs.ndim != 3 or embs.shape[1] == 0:
        raise ShapeError(f"bilstm_encode: need a nonempty (B, T, E) sequence, got {embs.shape}")
    zero = Tensor(np.zeros((embs.shape[0], p.out_width), dtype=embs.dtype))
    seq = embs
    for k, (fwd, bwd) in enumerate(p.layers):
        keep = dropout_keep(seq.shape, drop, rng) if k > 0 and drop > 0.0 else None
        seq, _, _ = lstm_sequence(seq, (fwd.wx, bwd.wx), (fwd.b, bwd.b), (fwd.wh, bwd.wh),
                                  lengths, zero, zero, reverse=(False, True),
                                  drop=None if keep is None else (keep, drop))
    return seq


# ---------------------------------------------------------------------------
# character-level CNN


class CharAlphabet:
    """Printable ASCII plus a padding symbol and an out-of-alphabet symbol."""

    PAD = 0
    OOV = 1

    def __init__(self):
        self._index = {ch: i + 2 for i, ch in enumerate(chr(c) for c in range(32, 127))}

    def __len__(self) -> int:
        return 2 + len(self._index)

    def encode(self, text: str, width: int) -> np.ndarray:
        ids = np.full(width, self.PAD, dtype=np.intp)
        for i, ch in enumerate(text[:width]):
            ids[i] = self._index.get(ch, self.OOV)
        return ids


WORD_JOINER = "_"


def join_words(words: Sequence[str]) -> str:
    return WORD_JOINER.join(words)


@dataclass
class CharCnnParams:
    """Character embeddings plus 1-D convolution banks; the pooled bank
    outputs concatenate to one feature vector per phrase."""

    emb: Tensor          # (alphabet, char_emb)
    banks: list          # list of (width, kernel (width*char_emb, channels), bias (channels,))
    alphabet: CharAlphabet
    char_emb: int

    # kernel widths 2..6 with channel counts summing to 160
    DEFAULT_BANKS = ((2, 10), (3, 30), (4, 40), (5, 40), (6, 40))

    @classmethod
    def create(cls, rng: Optional[np.random.Generator], char_emb: int = 16,
               bank_spec: Sequence[tuple[int, int]] = DEFAULT_BANKS,
               dtype=np.float64) -> "CharCnnParams":
        alphabet = CharAlphabet()
        emb = uniform_init(rng, (len(alphabet), char_emb), dtype)
        banks = []
        for width, channels in bank_spec:
            kernel = matrix_init(rng, (width * char_emb, channels), dtype)
            bias = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
            banks.append((width, kernel, bias))
        return cls(emb=emb, banks=banks, alphabet=alphabet, char_emb=char_emb)

    def named(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}.emb", self.emb
        for width, kernel, bias in self.banks:
            yield f"{prefix}.k{width}", kernel
            yield f"{prefix}.k{width}_bias", bias


def char_cnn(p: CharCnnParams, phrases: Sequence[Sequence[str]]) -> Tensor:
    """Surface-form encoding of target phrases.

    Each phrase's words are joined with "_" (e.g. "sonic_boom"), characters
    are embedded, each kernel bank is convolved with stride 1 and max-pooled
    over time, the bias is added, and the pooled outputs are concatenated.
    Strings shorter than a kernel are right-padded so every bank yields at
    least one window. A row's windows past its last real one repeat that one:
    the max is the same, and ties go to the first index, so the repeats take
    no gradient and extra trailing padding never changes the output.
    """
    if not phrases or any(len(ws) == 0 for ws in phrases):
        raise ShapeError("char_cnn: phrases must be nonempty word lists")
    texts = [join_words(ws) for ws in phrases]
    max_kernel = max(w for w, _, _ in p.banks)
    lens = np.array([len(t) for t in texts], dtype=np.intp)
    width = max(int(lens.max()), max_kernel)
    ids = np.stack([p.alphabet.encode(t, width) for t in texts])
    rows = np.arange(len(texts))[:, None, None]

    pooled = []
    for w, kernel, bias in p.banks:
        lw = width - w + 1
        # window l is the embeddings of characters s..s+w-1 side by side, where
        # s is l or, past the row's last real window, that window's start
        starts = np.minimum(np.arange(lw), np.maximum(lens - w, 0)[:, None])
        windows = reshape(take_rows(p.emb, ids[rows, starts[:, :, None] + np.arange(w)]),
                          (len(texts), lw, w * p.char_emb))
        pooled.append(add(reduce_max(matmul(windows, kernel), axis=1), bias))
    return concat(pooled, axis=1)


# ---------------------------------------------------------------------------
# attention


@dataclass
class AttentionParams:
    """Maps encoder and decoder states into one shared space; the score of a
    position is the inner product of the two projections."""

    u_h: Tensor  # (enc_width, attn_width)
    u_s: Tensor  # (dec_width, attn_width)

    @classmethod
    def create(cls, rng: Optional[np.random.Generator], enc_width: int, dec_width: int,
               attn_width: int, dtype=np.float64) -> "AttentionParams":
        return cls(u_h=matrix_init(rng, (enc_width, attn_width), dtype),
                   u_s=matrix_init(rng, (dec_width, attn_width), dtype))

    def named(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}.u_h", self.u_h
        yield f"{prefix}.u_s", self.u_s


def project_context(p: AttentionParams, states: Tensor, lengths: np.ndarray) -> Tensor:
    """Precompute U_h @ h_i, reused across decode steps, for each row's
    first ``lengths[r]`` positions only, and 0 past them, where the states
    are padding."""
    return matmul(states, p.u_h, at=np.arange(states.shape[1]) < lengths[:, None])


def attention(p: AttentionParams, states: Tensor, s_t: Tensor, lengths: np.ndarray,
              projected: Tensor) -> tuple[Tensor, np.ndarray]:
    """The summary (B, enc_width) of each row's first ``lengths[r]`` states,
    weighted by the softmax of score_i = (U_h h_i) . (U_s s_t), and the
    weights (B, T); ``projected`` is ``project_context`` of ``states``."""
    return bilinear_attention(states, projected, lengths, s_t, p.u_s)


# ---------------------------------------------------------------------------
# context-fusion gate


@dataclass
class GateParams:
    """GRU-style interpolation of the decoder state with a candidate state
    conditioned on the concatenated context features. The update and reset
    gates read the same input ``[f; s]``, so their weights are fused
    column-wise, as the LSTM's gates are; W_r maps to the feature width, as
    the reset vector multiplies f element-wise."""

    w_zr: Tensor  # (F+S, S+F): W_z in the first S columns, W_r in the F after them
    b_zr: Tensor  # (S+F,)
    w_s: Tensor   # (F+S, S)
    b_s: Tensor

    @classmethod
    def create(cls, rng: Optional[np.random.Generator], feature_dim: int, state_dim: int,
               dtype=np.float64) -> "GateParams":
        # W_z, then W_r, then W_s, each its own draw with its own Glorot floor;
        # no rng leaves placeholders, as in matrix_init
        total = feature_dim + state_dim
        w_zr = np.empty((total, total), dtype=dtype)
        if rng is not None:
            w_zr[:, :state_dim] = matrix_init(rng, (total, state_dim), dtype).data
            w_zr[:, state_dim:] = matrix_init(rng, (total, feature_dim), dtype).data
        return cls(
            w_zr=Tensor(w_zr, requires_grad=True),
            b_zr=Tensor(np.zeros(total, dtype=dtype), requires_grad=True),
            w_s=matrix_init(rng, (total, state_dim), dtype),
            b_s=Tensor(np.zeros(state_dim, dtype=dtype), requires_grad=True),
        )

    def named(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        for name in ("w_zr", "b_zr", "w_s", "b_s"):
            yield f"{prefix}.{name}", getattr(self, name)


def gate_constants(p: GateParams, blocks: Sequence[tuple[int, Tensor]]) -> Tensor:
    """The part of the gate's z and r pre-activations that does not change
    over a session: ``b_zr + sum_k f_k @ w_zr[rows of f_k]``, over the
    feature blocks ``blocks``, each given as (its first column in f, the
    block). With no blocks this is the bias."""
    pre = p.b_zr
    for start, block in blocks:
        pre = add(matmul(block, take_rows(p.w_zr, slice(start, start + block.shape[1]))), pre)
    return pre


def gate(p: GateParams, s_t: Tensor, feats: Sequence[Tensor], var: Optional[int],
         pre: Tensor) -> Tensor:
    """[z | r] = sig(W_zr[f;s]+b_zr);  s~ = tanh(W_s[(r*f);s]+b_s);
    s' = (1-z)*s + z*s~, for f the feature blocks ``feats`` side by side, as
    one ``tensor.fusion_gate`` op. ``pre`` is ``gate_constants`` of every
    block but ``feats[var]`` (of every block when ``var`` is None), so each
    call multiplies only s and that block."""
    return fusion_gate(s_t, feats, var, pre, p.w_zr, p.w_s, p.b_s)


# ---------------------------------------------------------------------------
# I-Attention soft mask


@dataclass
class MaskNetParams:
    """Per-position feed-forward map of encoder states, averaged over the
    sentence, then projected to a sigmoid mask over the phrase embedding."""

    w_ff: Tensor  # (enc_width, ff_width)
    b_ff: Tensor
    w_m: Tensor   # (ff_width, emb_width)
    b_m: Tensor

    @classmethod
    def create(cls, rng: Optional[np.random.Generator], enc_width: int, ff_width: int,
               emb_width: int, dtype=np.float64) -> "MaskNetParams":
        return cls(
            w_ff=matrix_init(rng, (enc_width, ff_width), dtype),
            b_ff=Tensor(np.zeros(ff_width, dtype=dtype), requires_grad=True),
            w_m=matrix_init(rng, (ff_width, emb_width), dtype),
            b_m=Tensor(np.zeros(emb_width, dtype=dtype), requires_grad=True),
        )

    def named(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        for name in ("w_ff", "b_ff", "w_m", "b_m"):
            yield f"{prefix}.{name}", getattr(self, name)


def iattention_mask(p: MaskNetParams, states: Tensor, x_trg: Tensor,
                    lengths: np.ndarray) -> Tensor:
    """Soft binary mask over the phrase embedding, derived from the averaged
    feed-forward image of each row's first ``lengths[r]`` encoded context
    states (the padding past them is left out of the mean):
    m = sig(W_m * mean_i FFNN(h_i) + b_m);  x'_trg = x_trg * m."""
    if states.ndim != 3 or states.shape[1] == 0:
        raise ShapeError(f"iattention_mask: need nonempty (B, T, D) states, got {states.shape}")
    t = states.shape[1]
    dtype = states.dtype
    mapped = tanh(add(matmul(states, p.w_ff), p.b_ff))  # (B, T, F)
    valid = (np.arange(t)[None, :] < lengths[:, None]).astype(dtype)
    mapped = mul(mapped, Tensor(valid[:, :, None]))
    mean = mul(reduce_sum(mapped, axis=1), Tensor((1.0 / lengths.astype(dtype))[:, None]))
    m = sigmoid(add(matmul(mean, p.w_m), p.b_m))
    return mul(x_trg, m)
