"""The benchmark's phases, metrics and output checks.

Each run, for one model variant (the workload), goes through four phases
in one process, with one client issuing one operation at a time:

setup      generate the seeded inputs and create the untrained full-size
           checkpoint with ``logcad train --epochs 0``; repeated through
           the run, ``setup_s`` is the median.
train-full ``logcad train`` for one epoch, resumed from that checkpoint so
           the vocabulary is filled to its 10k cap; no validation,
           patience 0. The write path: tape, backward, clipping, Adam.
evaluate   ``logcad evaluate`` over the test corpus, one greedy pass and
           one ``--beam 5`` pass. The forward-only read path: encoder once
           per entry, then ``step`` 30 times per hypothesis (an untrained
           model never emits <eos>, so the work per entry is fixed).
describe   cold: a fresh ``python -m logcad describe`` process per input;
           warm: ``greedy_decode`` on a model loaded once, per input.

The program is driven only through ``logcad.cli.main``, the ``logcad``
module entry point and ``logcad.decode.greedy_decode`` (with
``load_model`` to load the warm model). Outputs are checked after the timed
operations; every violation counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
from spans import Tracer

# Program functions are looked up on their modules at call time, so that
# the wrappers a traced run installs there see the benchmark's own calls.
import logcad.cli
import logcad.decode
import logcad.model
from logcad.data import Entry, Vocab, load_dataset, make_batch, make_batches, tokenize
from logcad.tensor import GradGraph

WORKLOADS = ("log-cad", "global")
BEAM = 5
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Sizes:
    """Work per operation, sample floors of a measured run, and the
    composition of the traced run's single round."""

    model_flags: tuple      # extra flags for the checkpoint-creating train call
    n_train: int
    batch_size: int
    n_test: int
    n_describe: int         # distinct describe inputs
    min_samples: dict       # operation kind -> fewest samples a measured run takes
    greedy_per_round: int
    cold_per_round: int
    warm_per_round: int


FULL = Sizes(model_flags=(), n_train=160, batch_size=128, n_test=4, n_describe=100,
             min_samples={"setup": 5, "train": 2, "greedy": 4, "beam": 2, "cold": 5, "warm": 100},
             greedy_per_round=2, cold_per_round=3, warm_per_round=34)
# a few seconds at a tiny config; widths shrink, the char CNN keeps its banks
SMOKE = Sizes(model_flags=("--enc-width", "16", "--dec-width", "16", "--attn-width", "16",
                           "--emb-width", "16", "--vocab-size", "300"),
              n_train=16, batch_size=8, n_test=4, n_describe=4,
              min_samples={"setup": 1, "train": 1, "greedy": 1, "beam": 1, "cold": 1, "warm": 4},
              greedy_per_round=1, cold_per_round=1, warm_per_round=2)
# Share of a measured run's time each operation kind gets. The scheduler
# always runs the kind furthest below its share, so every kind's samples
# are spread over the whole run rather than bunched.
SHARES = {"setup": 0.04, "train": 0.36, "greedy": 0.08, "beam": 0.15, "cold": 0.12,
          "warm": 0.25}
STARTUP_REPEATS = 3

END_TO_END_UNITS = {
    "train_tokens_per_s": "tokens/s",
    "eval_greedy_entries_per_s": "entries/s",
    "eval_beam5_entries_per_s": "entries/s",
    "describe_cold_s_p50": "s",
    "describe_warm_s_p50": "s",
    "describe_warm_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer self times: phase -> (metric, span names summed)
LAYER_TIMES = {
    "setup": (
        ("bench.generate_s", ("bench.generate",)),
        ("cli.self_s", ("cli.main",)),
        ("data.load_dataset_s", ("data.load_dataset",)),
        ("data.build_vocab_s", ("data.build_vocab",)),
        ("model.init_s", ("model.init",)),
        ("model.save_checkpoint_s", ("model.save_checkpoint",)),
        ("train.loop_s", ("train.loop",)),
    ),
    "train-full": (
        ("cli.self_s", ("cli.main",)),
        ("data.load_dataset_s", ("data.load_dataset",)),
        ("model.load_checkpoint_s", ("model.load_checkpoint",)),
        ("model.init_s", ("model.init",)),
        ("train.loop_s", ("train.loop",)),
        ("data.make_batches_s", ("data.make_batches",)),
        ("model.forward_loss_s", ("model.forward_loss",)),
        ("layers.bilstm_encode_s", ("layers.bilstm_encode",)),
        ("layers.char_cnn_s", ("layers.char_cnn",)),
        ("layers.decoder_lstm_cell_s", ("layers.decoder_lstm_cell",)),
        ("layers.attention_s", ("layers.attention",)),
        ("layers.gate_s", ("layers.gate",)),
        ("tensor.backward_s", ("tensor.backward",)),
        ("train.clip_s", ("train.clip",)),
        ("train.adam_s", ("train.adam",)),
        ("model.save_checkpoint_s", ("model.save_checkpoint",)),
    ),
    "evaluate": (
        ("cli.self_s", ("cli.main",)),
        ("data.load_dataset_s", ("data.load_dataset",)),
        ("model.load_model_s", ("model.load_model",)),
        ("model.load_checkpoint_s", ("model.load_checkpoint",)),
        ("model.init_s", ("model.init",)),
        ("decode.self_s", ("decode.greedy", "decode.beam")),
        ("model.start_session_s", ("model.start_session",)),
        ("model.step_s", ("model.step",)),
        ("layers.bilstm_encode_s", ("layers.bilstm_encode",)),
        ("layers.char_cnn_s", ("layers.char_cnn",)),
        ("layers.decoder_lstm_cell_s", ("layers.decoder_lstm_cell",)),
        ("layers.attention_s", ("layers.attention",)),
        ("layers.gate_s", ("layers.gate",)),
        ("evaluate.bleu_s", ("evaluate.bleu",)),
    ),
    "describe": (
        ("cold_process_s", ("describe.cold_process",)),
        ("model.load_model_s", ("model.load_model",)),
        ("model.load_checkpoint_s", ("model.load_checkpoint",)),
        ("model.init_s", ("model.init",)),
        ("decode.self_s", ("decode.greedy",)),
        ("model.start_session_s", ("model.start_session",)),
        ("model.step_s", ("model.step",)),
        ("layers.bilstm_encode_s", ("layers.bilstm_encode",)),
        ("layers.char_cnn_s", ("layers.char_cnn",)),
        ("layers.decoder_lstm_cell_s", ("layers.decoder_lstm_cell",)),
        ("layers.attention_s", ("layers.attention",)),
        ("layers.gate_s", ("layers.gate",)),
    ),
}

# per-layer counts and derived values, by phase
LAYER_OTHER = {
    "train-full": (("tensor.tape_ops", "count"), ("tensor.tape_matmul_ops", "count"),
                   ("tensor.matmul_gflop", "GFLOP"), ("layers.bilstm_encode_ops", "count")),
    "evaluate": (("model.step_calls", "count"), ("decode.steps_per_entry", "count")),
    "describe": (("model.step_calls", "count"), ("decode.steps_per_entry", "count"),
                 ("cli.startup_s", "s")),
}
TRACING_METRICS = (("tracing.overhead_s", "s"), ("tracing.unattributed_s", "s"))


def per_layer_units() -> dict:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for phase, rows in LAYER_TIMES.items():
        units.update({f"{phase}.{metric}": "s" for metric, _ in rows})
        units.update({f"{phase}.{metric}": unit for metric, unit in LAYER_OTHER.get(phase, ())})
    units.update(dict(TRACING_METRICS))
    return units


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


# ---------------------------------------------------------------------------
# operations


@dataclass
class Ledger:
    """Counts operations and records failed operations and checks."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def cli(self, argv: list) -> float:
        """Run ``logcad <argv>`` in this process; returns wall seconds."""
        self.attempted += 1
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = logcad.cli.main([str(a) for a in argv])
        elapsed = time.perf_counter() - start
        if rc != 0:
            self.fail(f"logcad {argv[0]} exited {rc}: {sink.getvalue()[-500:]}")
        return elapsed


class Run:
    """One benchmark run of one workload; ``work`` holds its files."""

    def __init__(self, workload: str, seed: int, sizes: Sizes, work: Path):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.ckpt = work / "ckpt" / "model.ckpt"
        self.ledger = Ledger()
        self.tracer = None
        self.inputs = None
        self.ckpt_digests: list = []
        self.train_losses: list = []
        self.cold_outputs: dict = {}
        self.warm_outputs: dict = {}
        self.report: list = []

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def phase(self, name: str):
        return self._span("phase." + name)

    # -- phases --------------------------------------------------------------

    def setup(self) -> float:
        start = time.perf_counter()
        with self._span("bench.generate"):
            s = self.sizes
            self.inputs = gen.generate(self.seed, self.work / "data", s.n_train, s.n_test,
                                       s.n_describe)
        self.ledger.cli(["train", "--train", self.inputs.vocab_tsv, "--epochs", 0,
                         "--variant", self.workload, "--seed", self.seed,
                         "--out", self.ckpt.parent, "--quiet", *s.model_flags])
        elapsed = time.perf_counter() - start
        self.ckpt_digests.append(hashlib.sha256(self.ckpt.read_bytes()).hexdigest())
        return elapsed

    def train_call(self) -> float:
        out = self.work / "train"
        elapsed = self.ledger.cli([
            "train", "--train", self.inputs.train_tsv, "--resume", self.ckpt,
            "--epochs", 1, "--patience", 0, "--batch-size", self.sizes.batch_size,
            "--seed", self.seed, "--out", out, "--quiet"])
        log = (out / "train_log.tsv").read_text(encoding="utf-8").splitlines()
        self.train_losses.append(float(log[-1].split("\t")[1]))
        return elapsed

    def evaluate_call(self, beam: int) -> float:
        return self.ledger.cli(["evaluate", "--data", self.inputs.test_tsv, "--ckpt", self.ckpt,
                                "--beam", beam, "--out", self.work / f"eval-beam{beam}"])

    def describe_cold(self, k: int) -> float:
        item = self.inputs.describe_items[k % len(self.inputs.describe_items)]
        argv = [sys.executable, "-m", "logcad", "describe", "--ckpt", str(self.ckpt),
                "--phrase", " ".join(item.phrase), "--sentence", item.sentence()]
        self.ledger.attempted += 1
        with self._span("describe.cold_process"):
            start = time.perf_counter()
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            self.ledger.fail(f"logcad describe exited {proc.returncode}: {proc.stderr[-500:]}")
        self.cold_outputs[item] = proc.stdout.strip()
        return elapsed

    def load_warm(self):
        vocab = Vocab.load(self.ckpt.with_name("vocab.txt"))
        model, _meta = logcad.model.load_model(self.ckpt, vocab)
        return model, vocab

    def describe_warm(self, model, vocab, k: int) -> float:
        item = self.inputs.describe_items[k % len(self.inputs.describe_items)]
        entry = Entry(phrase=tokenize(" ".join(item.phrase)), context=list(item.context),
                      span=(item.pos, item.pos), description=["-"])
        self.ledger.attempted += 1
        start = time.perf_counter()
        ids = logcad.decode.greedy_decode(model, entry, max_len=logcad.decode.DEFAULT_MAX_LEN)
        elapsed = time.perf_counter() - start
        self.warm_outputs[item] = " ".join(vocab.decode(ids))
        return elapsed

    def startup(self) -> None:
        """One fresh interpreter that imports ``logcad.cli`` and exits."""
        self.ledger.attempted += 1
        with self._span("cli.startup"):
            proc = subprocess.run([sys.executable, "-c", "import logcad.cli"],
                                  capture_output=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            self.ledger.fail("import logcad.cli failed")


# ---------------------------------------------------------------------------
# checks (outside the timed region)


def check_outputs(run: Run) -> None:
    led, s = run.ledger, run.sizes
    if len(set(run.ckpt_digests)) != 1:
        led.fail("set-up wrote different checkpoints for the same seed")
    # train: finite loss below the first batch's loss, identical every call
    model, vocab = run.load_warm()
    if len(vocab) != model.config.vocab_size:
        led.fail(f"vocabulary has {len(vocab)} entries, not the cap {model.config.vocab_size}")
    batches = make_batches(load_dataset(run.inputs.train_tsv), vocab, s.batch_size,
                           seed=run.seed + 1)
    # the first batch's loss as ``train`` computes it: same weights, same
    # dropout stream, before any update
    first_loss = model.forward_loss(batches[0], train=True)[0].item()
    small = make_batch(load_dataset(run.inputs.test_tsv), vocab)
    tape_ops = []
    for _ in range(2):
        with GradGraph() as graph:
            model.forward_loss(small, train=True)
        tape_ops.append(len(graph.ops))
    if tape_ops[0] != tape_ops[1]:
        led.fail(f"tape ops differ between identical forward passes: {tape_ops}")
    if not run.train_losses or not all(math.isfinite(x) for x in run.train_losses):
        led.fail(f"train loss not finite: {run.train_losses}")
    elif not run.train_losses[0] < first_loss:
        led.fail(f"epoch loss {run.train_losses[0]} not below first batch {first_loss}")
    if len(set(run.train_losses)) > 1:
        led.fail(f"same-seed train calls gave different losses: {run.train_losses}")
    # evaluate: one prediction row per entry, never [PAD] or <bos>
    for beam in (1, BEAM):
        rows = (run.work / f"eval-beam{beam}" / "predictions.tsv").read_text(
            encoding="utf-8").splitlines()[1:]
        if len(rows) != s.n_test:
            led.fail(f"beam {beam}: {len(rows)} prediction rows for {s.n_test} entries")
        if any(tok in ("[PAD]", "<bos>") for row in rows for tok in row.split("\t")[2].split()):
            led.fail(f"beam {beam}: prediction contains [PAD] or <bos>")
    # decode: step counts repeat exactly
    entry = load_dataset(run.inputs.test_tsv)[0]
    counts = []
    for _ in range(2):
        for decode in (logcad.decode.greedy_decode,
                       lambda m, e: logcad.decode.beam_search(m, e, beam=BEAM)):
            counter = _StepCounter(model)
            decode(counter, entry)
            counts.append(counter.calls)
    if counts[:2] != counts[2:]:
        led.fail(f"decode step counts differ between identical calls: {counts}")
    # describe: a cold process prints what warm greedy_decode returns
    for item, text in run.cold_outputs.items():
        if run.warm_outputs.get(item) != text:
            led.fail(f"cold describe {text!r} != warm {run.warm_outputs.get(item)!r}")


class _StepCounter:
    """Delegates the decoding protocol to a model, counting ``step`` calls."""

    def __init__(self, model: logcad.model.DescriptionModel):
        self.model = model
        self.vocab = model.vocab
        self.calls = 0

    def start_session(self, entry):
        return self.model.start_session(entry)

    def step(self, session, prev_id):
        self.calls += 1
        return self.model.step(session, prev_id)


# ---------------------------------------------------------------------------
# measurement


def _round(run: Run, model, vocab, samples: dict) -> None:
    """The traced run's fixed work: a train call, the greedy and beam-5
    evaluate calls, then the cold and warm describes."""
    s = run.sizes
    with run.phase("train-full"):
        samples["train"].append(run.train_call())
    with run.phase("evaluate"):
        for _ in range(s.greedy_per_round):
            samples["greedy"].append(run.evaluate_call(1))
        samples["beam"].append(run.evaluate_call(BEAM))
    with run.phase("describe"):
        for _ in range(s.cold_per_round):
            samples["cold"].append(run.describe_cold(len(samples["cold"])))
        for _ in range(s.warm_per_round):
            samples["warm"].append(run.describe_warm(model, vocab, len(samples["warm"])))


def measure(run: Run, seconds: float) -> dict:
    """Operations with tracing off for ``seconds``; returns the end-to-end
    metrics.

    The machine's speed drifts by tens of percent over seconds. Each
    operation kind gets its share of the run (``SHARES``), and the next
    operation is always of the kind furthest below its share, so every
    metric samples the whole run and its average speed. The run stops at
    the first operation that would overrun ``seconds``, once every kind has
    its floor of samples."""
    s = run.sizes
    run.setup()
    warm_up(run)
    model, vocab = run.load_warm()
    samples = {kind: [] for kind in SHARES}
    ops = {
        "setup": run.setup,
        "train": run.train_call,
        "greedy": lambda: run.evaluate_call(1),
        "beam": lambda: run.evaluate_call(BEAM),
        "cold": lambda: run.describe_cold(len(samples["cold"])),
        "warm": lambda: run.describe_warm(model, vocab, len(samples["warm"])),
    }
    spent = dict.fromkeys(SHARES, 0.0)
    start = time.perf_counter()
    while True:
        kind = min(SHARES, key=lambda k: spent[k] / SHARES[k])
        expected = statistics.median(samples[kind]) if samples[kind] else 0.0
        if time.perf_counter() - start + expected > seconds:
            short = [k for k in SHARES if len(samples[k]) < s.min_samples[k]]
            if not short:
                break
            kind = min(short, key=lambda k: spent[k] / SHARES[k])
        began = time.perf_counter()
        samples[kind].append(ops[kind]())
        spent[kind] += time.perf_counter() - began
    tokens = sum(len(item.description) + 1 for item in run.inputs.train_items)
    run.report += [f"samples {kind} ({len(v)}): " + " ".join(f"{x:.4f}" for x in v)
                   for kind, v in samples.items()]
    run.report.append(f"measured {time.perf_counter() - start:.2f} s")
    # throughputs: work done over the time it took, summed over the run
    return {
        "train_tokens_per_s": tokens * len(samples["train"]) / sum(samples["train"]),
        "eval_greedy_entries_per_s": s.n_test * len(samples["greedy"]) / sum(samples["greedy"]),
        "eval_beam5_entries_per_s": s.n_test * len(samples["beam"]) / sum(samples["beam"]),
        "describe_cold_s_p50": statistics.median(samples["cold"]),
        "describe_warm_s_p50": statistics.median(samples["warm"]),
        "describe_warm_s_p90": float(np.percentile(samples["warm"], 90)),
        "setup_s": statistics.median(samples["setup"]),
        "peak_rss_mb": peak_rss_mb(),
    }


def warm_up(run: Run) -> None:
    """One untimed ``train`` and greedy ``evaluate`` call. The first train
    call in a process runs about 15 % slower while the allocator grows its
    heap; a training run pays that once, so the steady state is what is
    measured."""
    run.train_call()
    run.evaluate_call(1)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def _pass(run: Run) -> tuple[float, dict]:
    """The fixed work of a traced run: a set-up, loading the warm model and
    one round. Returns its wall seconds and the round's samples."""
    start = time.perf_counter()
    with run.phase("setup"):
        run.setup()
    with run.phase("describe"):
        model, vocab = run.load_warm()
    samples = defaultdict(list)
    _round(run, model, vocab, samples)
    return time.perf_counter() - start, samples


def trace(run: Run) -> tuple[dict, list]:
    """An untraced and a traced pass over the same work; returns the
    per-layer metrics and report lines."""
    run.setup()
    warm_up(run)
    untraced, untraced_samples = _pass(run)
    tracer = run.tracer = Tracer(run_id=f"{run.workload}-seed{run.seed}-pid{os.getpid()}")
    tracer.install()
    try:
        traced, traced_samples = _pass(run)
        for _ in range(STARTUP_REPEATS):
            run.startup()
    finally:
        tracer.uninstall()
        run.tracer = None

    metrics = {}
    unattributed = 0.0
    for phase, rows in LAYER_TIMES.items():
        self_times = tracer.self_times("phase." + phase)
        unattributed += self_times.pop("phase." + phase, 0.0)
        for metric, spans in rows:
            metrics[f"{phase}.{metric}"] = sum(self_times.get(n, 0.0) for n in spans)
        unknown = set(self_times) - {n for _, spans in rows for n in spans}
        if unknown:
            run.ledger.fail(f"{phase}: spans without a per-layer metric: {sorted(unknown)}")

    c = tracer.counts
    metrics.update({
        "train-full.tensor.tape_ops": c["tensor.tape_ops"],
        "train-full.tensor.tape_matmul_ops": c["tensor.tape_matmul_ops"],
        "train-full.tensor.matmul_gflop": c["tensor.matmul_flop"] / 1e9,
        "train-full.layers.bilstm_encode_ops": c["layers.bilstm_encode_ops"],
    })
    for phase, decode in (("evaluate", "decode.beam"), ("describe", "decode.greedy")):
        names = tracer.names_in("phase." + phase)
        metrics[f"{phase}.model.step_calls"] = names.count("model.step")
        metrics[f"{phase}.decode.steps_per_entry"] = (
            names.count(f"{decode}/model.step") / max(names.count(decode), 1))
    metrics["describe.cli.startup_s"] = statistics.median(tracer.durations("cli.startup"))
    metrics["tracing.overhead_s"] = traced - untraced
    metrics["tracing.unattributed_s"] = unattributed

    train_layers = sum(v for k, v in metrics.items()
                       if k.startswith("train-full.") and k.endswith("_s"))
    spans_path = run.work.parent / f"spans-{run.workload}-seed{run.seed}.jsonl"
    tracer.write(spans_path)
    lines = [
        f"pass: untraced {untraced:.4f} s, traced {traced:.4f} s",
        f"train call: untraced {untraced_samples['train'][0]:.4f} s, traced "
        f"{traced_samples['train'][0]:.4f} s, sum of train-full per-layer self times "
        f"{train_layers:.4f} s",
        f"spans: {len(tracer.spans)} -> {spans_path}",
    ]
    return metrics, lines


# ---------------------------------------------------------------------------
# entry


def run(workload: str, seed: int, seconds: float, traced: bool, sizes: Sizes,
        root: Path) -> tuple[dict, list]:
    """One benchmark run; returns the result object and report lines."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    scratch = root / ".perfbench_work"
    work = scratch / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    lines = [f"env {json.dumps(environment(), sort_keys=True)}",
             f"workload {workload} seed {seed} seconds {seconds} trace {int(traced)}"]
    run_ = Run(workload, seed, sizes, work)
    try:
        if traced:
            values, extra = trace(run_)
            units = per_layer_units()
            lines += extra
        else:
            values = measure(run_, seconds)
            units = END_TO_END_UNITS
        check_outputs(run_)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = set(units) ^ set(values)
    if missing:
        raise RuntimeError(f"metric set mismatch: {sorted(missing)}")
    led = run_.ledger
    lines += run_.report
    lines += [f"{name} {values[name]!r} {units[name]}" for name in units]
    lines += [f"FAILED: {what}" for what in led.failures]
    result = {
        "correct": not led.failures,
        "attempted": led.attempted,
        "failed": len(led.failures),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }
    return result, lines
