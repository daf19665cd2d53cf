"""Training loop: Adam updates with global-norm gradient clipping, seeded
epoch shuffling, optional early stopping on validation loss, and a TSV
epoch log. Identical (seed, config, data) reproduce bit-identical parameters
and logs."""

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
    clip_norm: float = 5.0
    patience: int = 5  # early-stopping patience on validation loss; 0 disables
    seed: int = 0


class Adam:
    """Adaptive-moment update of every tensor from its ``grad``."""

    def __init__(self, tensors: Sequence[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.tensors = list(tensors)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(t.data) for t in self.tensors]
        self._v = [np.zeros_like(t.data) for t in self.tensors]

    def step(self) -> None:
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        for i, t in enumerate(self.tensors):
            g = t.grad
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * g
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self._m[i] / bias1
            v_hat = self._v[i] / bias2
            t.data = t.data - (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(t.dtype)


def clip_gradients(tensors: Sequence[Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``;
    returns the pre-clip norm."""
    total = 0.0
    for t in tensors:
        total += float((t.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for t in tensors:
            t.grad = (t.grad * scale).astype(t.grad.dtype)
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
    final_train: float = float("nan")
    epochs_run: int = 0
    stopped_early: bool = False

    def log_text(self) -> str:
        lines = ["epoch\ttrain_loss\tvalid_loss"]
        lines.extend(r.tsv() for r in self.rows)
        return "\n".join(lines) + "\n"


def _dataset_loss(model: DescriptionModel, entries: Sequence[Entry],
                  batch_size: int) -> float:
    batches = make_batches(entries, model.vocab, batch_size, seed=0)
    total = 0.0
    tokens = 0.0
    for batch in batches:
        loss, aux = model.forward_loss(batch, train=False)
        total += loss.item() * aux["tokens"]
        tokens += aux["tokens"]
    return total / tokens


def token_accuracy(model: DescriptionModel, entries: Sequence[Entry],
                   batch_size: int = 128) -> float:
    """Teacher-forced next-token accuracy over non-pad target positions."""
    batches = make_batches(entries, model.vocab, batch_size, seed=0)
    correct = 0.0
    tokens = 0.0
    for batch in batches:
        _, aux = model.forward_loss(batch, train=False)
        correct += aux["correct"]
        tokens += aux["tokens"]
    return correct / tokens


def train(model: DescriptionModel, train_entries: Sequence[Entry],
          valid_entries: Optional[Sequence[Entry]] = None,
          settings: TrainSettings = TrainSettings(),
          start_epoch: int = 0,
          verbose: bool = False) -> TrainResult:
    """Optimize the model in place; returns per-epoch rows. With validation
    entries and a nonzero patience, training stops after ``patience``
    non-improving epochs and the best-validation parameters are restored."""
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
                               seed=settings.seed + epoch)
        total = 0.0
        tokens = 0.0
        for batch in batches:
            for t in params:
                t.zero_grad()
            with GradGraph() as graph:
                loss, aux = model.forward_loss(batch, train=True)
            graph.backward(loss)
            clip_gradients(params, settings.clip_norm)
            opt.step()
            total += loss.item() * aux["tokens"]
            tokens += aux["tokens"]
        train_loss = total / tokens

        valid_loss = None
        if valid_entries:
            valid_loss = _dataset_loss(model, valid_entries, settings.batch_size)
            if result.best_valid is None or valid_loss < result.best_valid - 1e-12:
                result.best_valid = valid_loss
                best_snapshot = [t.data.copy() for t in params]
                since_best = 0
            else:
                since_best += 1

        row = EpochRow(epoch=epoch, train_loss=train_loss, valid_loss=valid_loss)
        result.rows.append(row)
        result.final_train = train_loss
        result.epochs_run = epoch_offset + 1
        if verbose:
            print(row.tsv(), flush=True)

        if (valid_entries and settings.patience > 0 and since_best >= settings.patience):
            result.stopped_early = True
            break

    if best_snapshot is not None:
        for t, snap in zip(params, best_snapshot):
            t.data = snap
    return result
