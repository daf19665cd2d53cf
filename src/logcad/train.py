"""Training loop: Adam updates with global-norm gradient clipping, epoch
shuffling from the model's seed, optional early stopping on validation loss,
and a TSV epoch log. Identical (seed, config, data) reproduce bit-identical
parameters and logs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from logcad.data import Entry, make_batches
from logcad.model import DescriptionModel
from logcad.tensor import GradGraph, Tensor


@dataclass
class TrainSettings:
    epochs: int = 20
    batch_size: int = 128
    lr: float = 1e-3
    clip_norm: float = 5.0  # global gradient-norm bound; 0 disables clipping
    patience: int = 5  # early-stopping patience on validation loss; 0 disables

    def __post_init__(self):
        for name in ("epochs", "patience"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0, got {getattr(self, name)}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be a positive number, got {self.lr}")
        if not self.clip_norm >= 0:
            raise ValueError(f"clip_norm must be at least 0 (0 disables clipping), "
                             f"got {self.clip_norm}")


# Adam and clipping walk each tensor in blocks of this many elements, so that
# a block's weights, moments and gradients stay in cache across the update's
# passes and each element crosses memory once.
BLOCK = 1 << 15


class Adam:
    """Adaptive-moment update at rate ``lr`` of every tensor from its ``grad``, in place:
    ``t.data`` stays the same array, so a weight adopted from a checkpoint
    buffer keeps being a view of that buffer."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, tensors: Sequence[Tensor], lr: float):
        self.tensors = list(tensors)
        self.lr = lr
        self.t = 0
        for t in self.tensors:
            if not t.data.flags.c_contiguous:
                raise ValueError(f"Adam: weights of shape {t.shape} are not C-contiguous, "
                                 "so they cannot be updated in place")
        self._m = [np.zeros(t.size, dtype=t.dtype) for t in self.tensors]
        self._v = [np.zeros(t.size, dtype=t.dtype) for t in self.tensors]
        # two scratch blocks per dtype hold the update's temporaries
        self._scratch = {dtype: (np.empty(BLOCK, dtype), np.empty(BLOCK, dtype))
                         for dtype in {t.dtype for t in self.tensors}}

    def step(self) -> None:
        """``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*(g*g)`` and
        ``w -= lr * (m/bias1) / (sqrt(v/bias2) + eps)``, with the operations
        in this order and rounded in the weights' dtype."""
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        for t, m_all, v_all in zip(self.tensors, self._m, self._v):
            w_all, g_all = t.data.reshape(-1), t.grad.reshape(-1)
            a_all, b_all = self._scratch[t.dtype]
            for lo in range(0, w_all.size, BLOCK):
                block = slice(lo, lo + BLOCK)
                w, g, m, v = w_all[block], g_all[block], m_all[block], v_all[block]
                a, b = a_all[:w.size], b_all[:w.size]
                m *= self.beta1
                np.multiply(g, 1.0 - self.beta1, out=a)
                m += a
                v *= self.beta2
                np.multiply(g, g, out=a)
                a *= 1.0 - self.beta2
                v += a
                np.divide(m, bias1, out=a)
                a *= self.lr
                np.divide(v, bias2, out=b)
                np.sqrt(b, out=b)
                b += self.eps
                a /= b
                w -= a


def clip_gradients(tensors: Sequence[Tensor], max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is at most
    ``max_norm``; returns the pre-clip norm, summed in float64. A norm that is
    not finite scales nothing."""
    total = 0.0
    buf = np.empty(BLOCK, dtype=np.float64)
    for t in tensors:
        g = t.grad.reshape(-1)
        for lo in range(0, g.size, BLOCK):
            b = buf[:min(BLOCK, g.size - lo)]
            b[...] = g[lo:lo + BLOCK]
            total += float(np.dot(b, b))
    norm = math.sqrt(total)
    if max_norm > 0 and math.isfinite(norm) and norm > max_norm:
        scale = max_norm / norm
        for t in tensors:
            t.grad *= scale
    return norm


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    valid_loss: Optional[float]

    def tsv(self) -> str:
        valid = "" if self.valid_loss is None else f"{self.valid_loss:.6f}"
        return f"{self.epoch}\t{self.train_loss:.6f}\t{valid}"


@dataclass
class TrainResult:
    rows: list = field(default_factory=list)
    best_valid: Optional[float] = None

    @property
    def final_train(self) -> Optional[float]:
        """The last epoch's training loss; None when no epoch ran."""
        return self.rows[-1].train_loss if self.rows else None

    @property
    def epochs_run(self) -> int:
        return len(self.rows)

    def log_text(self) -> str:
        lines = ["epoch\ttrain_loss\tvalid_loss"]
        lines.extend(r.tsv() for r in self.rows)
        return "\n".join(lines) + "\n"


def _teacher_forced(model: DescriptionModel, entries: Sequence[Entry],
                    batch_size: int) -> tuple[float, float]:
    """Teacher-forced mean loss and next-token accuracy over the non-pad
    target positions of ``entries``."""
    total = correct = tokens = 0.0
    for batch in make_batches(entries, model.vocab, batch_size, seed=0):
        loss, aux = model.forward_loss(batch, train=False)
        total += loss.item() * aux["tokens"]
        correct += aux["correct"]
        tokens += aux["tokens"]
    return total / tokens, correct / tokens


def token_accuracy(model: DescriptionModel, entries: Sequence[Entry]) -> float:
    """Teacher-forced next-token accuracy over non-pad target positions, in
    batches of the default training batch size."""
    return _teacher_forced(model, entries, TrainSettings.batch_size)[1]


def _first_non_finite(model: DescriptionModel) -> str:
    for name, t in model.params.named():
        if t.grad is not None and not np.all(np.isfinite(t.grad)):
            return f"first non-finite gradient in group {name.split('.')[0]} ({name})"
    return "every gradient is finite"


def train(model: DescriptionModel, train_entries: Sequence[Entry],
          valid_entries: Optional[Sequence[Entry]], settings: TrainSettings,
          start_epoch: int, verbose: bool) -> TrainResult:
    """Optimize the model in place, shuffling epoch ``e`` from the model's
    seed plus ``e``; returns per-epoch rows, numbered from
    ``start_epoch + 1`` and printed when ``verbose``. With validation entries
    and a nonzero patience, training stops after ``patience`` non-improving
    epochs and the best-validation weights are restored; at patience 0 every
    epoch runs and the last epoch's weights are kept. A non-finite loss or
    gradient norm raises ``ValueError`` before the update that would carry
    it into the weights."""
    if not train_entries:
        raise ValueError("train: no training entries")
    params = model.params.tensors()
    opt = Adam(params, lr=settings.lr)
    result = TrainResult()
    best_snapshot = None
    since_best = 0

    for epoch_offset in range(settings.epochs):
        epoch = start_epoch + epoch_offset + 1
        batches = make_batches(train_entries, model.vocab, settings.batch_size,
                               seed=model.seed + epoch)
        total = 0.0
        tokens = 0.0
        for k, batch in enumerate(batches, start=1):
            for t in params:
                t.zero_grad()
            with GradGraph() as graph:
                loss, aux = model.forward_loss(batch, train=True)
            graph.backward(loss)
            norm = clip_gradients(params, settings.clip_norm)
            loss_value = loss.item()
            if not (math.isfinite(loss_value) and math.isfinite(norm)):
                raise ValueError(f"epoch {epoch}, batch {k}: loss {loss_value}, gradient "
                                 f"norm {norm}; {_first_non_finite(model)}")
            opt.step()
            total += loss_value * aux["tokens"]
            tokens += aux["tokens"]
        train_loss = total / tokens

        valid_loss = None
        if valid_entries:
            valid_loss = _teacher_forced(model, valid_entries, settings.batch_size)[0]
            if result.best_valid is None or valid_loss < result.best_valid - 1e-12:
                result.best_valid = valid_loss
                if settings.patience > 0:
                    best_snapshot = [t.data.copy() for t in params]
                since_best = 0
            else:
                since_best += 1

        row = EpochRow(epoch=epoch, train_loss=train_loss, valid_loss=valid_loss)
        result.rows.append(row)
        if verbose:
            print(row.tsv(), flush=True)

        if (valid_entries and settings.patience > 0 and since_best >= settings.patience):
            break

    if best_snapshot is not None:
        for t, snap in zip(params, best_snapshot):
            t.data = snap
    return result
