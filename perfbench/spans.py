"""Span tracing from outside the program.

``Tracer.install()`` replaces the public functions and methods of the
logcad modules with wrappers that record a span per call: name, start, end,
parent span and run id. It patches each function in the module that defines
it and under every name that ``logcad.model``, ``logcad.train`` and
``logcad.cli`` imported it as, so calls made through either name are seen.
``uninstall()`` restores the originals. Spans are kept in memory; the
caller writes them out when the run ends.

Self time of a span is its duration minus the time its child spans cover.
Tape-op counts are ``len(graph.ops)`` deltas of the active ``GradGraph``
taken around wrapped forward calls, and op names are read off the tape when
``GradGraph.backward`` runs.

Encoder LSTM cells run inside ``bilstm_encode`` and are not wrapped, so
their time is the encoder's self time; the decoder's cells are called
through ``logcad.model.lstm_cell`` and are wrapped there.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

# (owner module or class path, attribute, span name)
_TARGETS = (
    ("logcad.layers", "bilstm_encode", "layers.bilstm_encode"),
    ("logcad.model", "bilstm_encode", "layers.bilstm_encode"),
    ("logcad.layers", "char_cnn", "layers.char_cnn"),
    ("logcad.model", "char_cnn", "layers.char_cnn"),
    ("logcad.model", "lstm_cell", "layers.decoder_lstm_cell"),
    ("logcad.layers", "attention", "layers.attention"),
    ("logcad.model", "attention", "layers.attention"),
    ("logcad.layers", "project_context", "layers.attention"),
    ("logcad.model", "project_context", "layers.attention"),
    ("logcad.layers", "gate", "layers.gate"),
    ("logcad.model", "gate", "layers.gate"),
    ("logcad.model:DescriptionModel", "__init__", "model.init"),
    ("logcad.model:DescriptionModel", "forward_loss", "model.forward_loss"),
    ("logcad.model:DescriptionModel", "start_session", "model.start_session"),
    ("logcad.model:DescriptionModel", "step", "model.step"),
    ("logcad.model", "load_model", "model.load_model"),
    ("logcad.cli", "load_model", "model.load_model"),
    ("logcad.model", "load_checkpoint", "model.load_checkpoint"),
    ("logcad.cli", "load_checkpoint", "model.load_checkpoint"),
    ("logcad.model", "save_checkpoint", "model.save_checkpoint"),
    ("logcad.cli", "save_checkpoint", "model.save_checkpoint"),
    ("logcad.decode", "greedy_decode", "decode.greedy"),
    ("logcad.cli", "greedy_decode", "decode.greedy"),
    ("logcad.decode", "beam_search", "decode.beam"),
    ("logcad.cli", "beam_search", "decode.beam"),
    ("logcad.train", "train", "train.loop"),
    ("logcad.cli", "train", "train.loop"),
    ("logcad.train", "clip_gradients", "train.clip"),
    ("logcad.train:Adam", "step", "train.adam"),
    ("logcad.data", "make_batches", "data.make_batches"),
    ("logcad.train", "make_batches", "data.make_batches"),
    ("logcad.data", "load_dataset", "data.load_dataset"),
    ("logcad.cli", "load_dataset", "data.load_dataset"),
    ("logcad.data", "build_vocab", "data.build_vocab"),
    ("logcad.cli", "build_vocab", "data.build_vocab"),
    ("logcad.evaluate", "corpus_bleu", "evaluate.bleu"),
    ("logcad.cli", "corpus_bleu", "evaluate.bleu"),
    ("logcad.evaluate", "avg_sentence_bleu", "evaluate.bleu"),
    ("logcad.cli", "avg_sentence_bleu", "evaluate.bleu"),
    ("logcad.evaluate", "build_records", "evaluate.bleu"),
    ("logcad.cli", "build_records", "evaluate.bleu"),
    ("logcad.evaluate", "binned_report", "evaluate.bleu"),
    ("logcad.cli", "binned_report", "evaluate.bleu"),
    ("logcad.cli", "main", "cli.main"),
)

# wrapped forward calls whose tape-op delta is counted as "<span>_ops"
_COUNT_OPS = {"layers.bilstm_encode"}


def _resolve(path: str):
    import importlib

    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Collects spans ``(name, start, end, parent, run_id)``; ``parent`` is
    the index of the enclosing span in ``spans`` or -1."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._graphs: list = []
        self._patches: list = []

    # -- spans -----------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    # -- patching --------------------------------------------------------

    def _wrap(self, fn, name: str):
        count_ops = name in _COUNT_OPS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            graph = self._graphs[-1] if self._graphs else None
            before = len(graph.ops) if graph is not None else 0
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
                if count_ops and graph is not None:
                    self.counts[name + "_ops"] += len(graph.ops) - before

        return wrapper

    def install(self) -> None:
        from logcad.tensor import GradGraph

        wrapped: dict = {}
        for owner_path, attr, name in _TARGETS:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            key = (id(original), name)
            if key not in wrapped:
                wrapped[key] = self._wrap(original, name)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped[key])

        tracer = self
        enter, exit_, backward = GradGraph.__enter__, GradGraph.__exit__, GradGraph.backward

        def traced_enter(graph):
            tracer._graphs.append(graph)
            return enter(graph)

        def traced_exit(graph, *exc):
            tracer._graphs.pop()
            return exit_(graph, *exc)

        def traced_backward(graph, loss):
            tracer._count_tape(graph.ops)
            with tracer.span("tensor.backward"):
                return backward(graph, loss)

        self._patches += [(GradGraph, "__enter__", enter), (GradGraph, "__exit__", exit_),
                          (GradGraph, "backward", backward)]
        GradGraph.__enter__ = traced_enter
        GradGraph.__exit__ = traced_exit
        GradGraph.backward = traced_backward

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _count_tape(self, ops) -> None:
        matmuls = 0
        flops = 0
        for op_name, inputs, out, _fn in ops:
            if op_name == "matmul":
                matmuls += 1
                # forward 2*M*N*K, backward twice that (one matmul per operand)
                flops += 3 * 2 * out.size * inputs[0].shape[-1]
        self.counts["tensor.tape_ops"] += len(ops)
        self.counts["tensor.tape_matmul_ops"] += matmuls
        self.counts["tensor.matmul_flop"] += flops

    # -- analysis --------------------------------------------------------

    def _subtree(self, root_name: str) -> list:
        """Indices of every span named ``root_name`` and of all spans nested
        in one."""
        inside: set = set()
        for i, (name, _start, _end, parent, _run) in enumerate(self.spans):
            if name == root_name or parent in inside:
                inside.add(i)
        return sorted(inside)

    def self_times(self, root_name: str) -> dict:
        """Self time per span name inside the ``root_name`` spans."""
        indices = self._subtree(root_name)
        covered: dict = defaultdict(float)
        for i in indices:
            _name, start, end, parent, _run = self.spans[i]
            covered[parent] += end - start
        totals: dict = defaultdict(float)
        for i in indices:
            name, start, end, _parent, _run = self.spans[i]
            totals[name] += (end - start) - covered[i]
        return dict(totals)

    def names_in(self, root_name: str) -> list:
        """Span names inside the ``root_name`` spans, and for each span also
        ``"<parent name>/<name>"``."""
        out = []
        for i in self._subtree(root_name):
            name, parent = self.spans[i][0], self.spans[i][3]
            out.append(name)
            if parent >= 0:
                out.append(f"{self.spans[parent][0]}/{name}")
        return out

    def durations(self, name: str) -> list:
        return [end - start for n, start, end, _parent, _run in self.spans if n == name]

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "run_id")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
