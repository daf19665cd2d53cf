"""Command-line entry points: extract, train, evaluate, describe.

Options resolve in order: built-in defaults, then a ``--config`` file of
flat ``key=value`` lines, then explicit flags. One seed governs all
randomness (parameter init, shuffling, dropout, the UNK vector), so every
command is deterministic given its inputs and seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

from logcad.data import (
    TRG_TOKEN,
    Vocab,
    build_vocab,
    corpus_stats,
    format_stats,
    load_dataset,
    load_embeddings,
    tokenize,
    tokenize_with_marker,
    write_dataset,
    Entry,
    EmbeddingTable,
)
# greedy_decode is not called here; perfbench's tracer wraps it under this
# module's name
from logcad.decode import beam_search, decode_batch, greedy_decode  # noqa: F401
from logcad.evaluate import (
    AXES,
    avg_sentence_bleu,
    binned_report,
    binned_tsv,
    build_records,
    corpus_bleu,
    format_binned,
)
from logcad.model import (
    DescriptionModel,
    ModelConfig,
    load_checkpoint,
    load_model,
    model_from_checkpoint,
    save_checkpoint,
)
from logcad.train import TrainSettings, train
from logcad.wiki import extract_wikipedia, read_articles, read_items, split_by_phrase


@dataclass
class RunConfig:
    """Documented defaults for every tunable option."""

    seed: int = 0
    variant: str = "log-cad"
    epochs: int = 20
    batch_size: int = 128
    lr: float = 1e-3
    clip_norm: float = 5.0
    patience: int = 5
    beam: int = 1
    max_len: int = 30
    dropout: float = 0.5
    enc_layers: int = 2
    enc_width: int = 600
    dec_layers: int = 2
    dec_width: int = 300
    attn_width: int = 300
    emb_width: int = 300
    vocab_size: int = 10000

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            variant=self.variant,
            enc_layers=self.enc_layers,
            enc_width=self.enc_width,
            attn_width=self.attn_width,
            word_emb_width=self.emb_width,
            dec_layers=self.dec_layers,
            dec_width=self.dec_width,
            vocab_size=self.vocab_size,
            dropout=self.dropout,
        )


def _parse_config_file(path) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    typed = {f.name: f.type for f in fields(RunConfig)}
    if getattr(args, "config", None):
        for key, raw in _parse_config_file(args.config).items():
            if key not in typed:
                raise ValueError(f"unknown config key {key!r}")
            setattr(cfg, key, _coerce_option(key, raw))
    for key in typed:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def _coerce_option(key: str, raw: str):
    kind = {f.name: f.type for f in fields(RunConfig)}[key]
    if kind in (int, "int"):
        return int(raw)
    if kind in (float, "float"):
        return float(raw)
    return raw


def _load_table(path: Optional[str], seed: int) -> Optional[EmbeddingTable]:
    if path is None:
        return None
    return load_embeddings(path, seed=seed)


# ---------------------------------------------------------------------------
# commands

# entries ``evaluate`` decodes together; each is decoded as it would be alone
EVAL_CHUNK = 32


def cmd_extract(args) -> int:
    cfg = resolve_config(args)
    try:
        articles = read_articles(args.articles)
        items = read_items(args.items)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if not items:
        print("warning: empty items table, no entries will be produced", file=sys.stderr)
    entries, stats = extract_wikipedia(articles, items)
    print(stats.summary())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    splits = split_by_phrase(entries, seed=cfg.seed)
    rows = []
    for name in ("train", "valid", "test"):
        part = splits[name]
        write_dataset(out / f"{name}.tsv", part)
        print(f"{name}: {len(part)} entries -> {out / (name + '.tsv')}")
        if part:
            rows.append((name, corpus_stats(part)))
    if rows:
        print(format_stats(rows))
    return 0


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    try:
        train_entries = load_dataset(args.train)
        valid_entries = load_dataset(args.valid) if args.valid else None
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if not train_entries:
        print("error: no valid training entries", file=sys.stderr)
        return 1

    model_cfg = cfg.model_config()
    table = _load_table(args.emb, cfg.seed)
    if table is None and model_cfg.uses_global_embedding:
        print("warning: no embedding file; phrase vectors fall back to the UNK vector",
              file=sys.stderr)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    start_epoch = 0
    if args.resume:
        # load_model's two steps, called apart: the traced benchmark's
        # train-full phase reports load_checkpoint and model init, not load_model
        tensors, meta = load_checkpoint(args.resume)
        vocab = Vocab.load(Path(args.resume).with_name("vocab.txt"))
        try:
            model = model_from_checkpoint(tensors, meta, vocab, table)
        except ValueError as e:
            raise ValueError(f"{args.resume}: {e}") from None
        start_epoch = int(meta.get("epoch", "0"))
    else:
        vocab = build_vocab(train_entries, size=cfg.vocab_size)
        model = DescriptionModel(model_cfg, vocab, table, seed=cfg.seed)

    settings = TrainSettings(epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr,
                             clip_norm=cfg.clip_norm, patience=cfg.patience, seed=cfg.seed)
    result = train(model, train_entries, valid_entries, settings,
                   start_epoch=start_epoch, verbose=not args.quiet)

    meta = dict(model.config.to_meta())
    meta["seed"] = str(model.seed)
    meta["epoch"] = str(start_epoch + result.epochs_run)
    ckpt = out / "model.ckpt"
    save_checkpoint(ckpt, model.params, meta)
    model.vocab.save(out / "vocab.txt")
    (out / "train_log.tsv").write_text(result.log_text(), encoding="utf-8")
    final_valid = "" if result.best_valid is None else f" best_valid={result.best_valid:.6f}"
    print(f"trained {result.epochs_run} epoch(s); final_train={result.final_train:.6f}"
          f"{final_valid}; checkpoint -> {ckpt}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = resolve_config(args)
    try:
        entries = load_dataset(args.data)
        vocab_path = args.vocab or str(Path(args.ckpt).with_name("vocab.txt"))
        vocab = Vocab.load(vocab_path)
        table = _load_table(args.emb, cfg.seed)
        model, _meta = load_model(args.ckpt, vocab, table)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if not entries:
        print("error: no entries to evaluate", file=sys.stderr)
        return 1

    candidates = []
    for start in range(0, len(entries), EVAL_CHUNK):
        chunk = entries[start:start + EVAL_CHUNK]
        candidates += [vocab.decode(ids)
                       for ids in decode_batch(model, chunk, cfg.beam, cfg.max_len)]
    records = build_records(entries, candidates, table)
    corpus = corpus_bleu(records)
    sentence = avg_sentence_bleu(records)
    mode = "greedy" if cfg.beam == 1 else f"beam={cfg.beam}"
    print(f"entries: {len(records)}  decode: {mode}")
    print(f"corpus BLEU: {corpus:.2f}")
    print(f"avg sentence BLEU (smoothed): {sentence:.2f}")
    reports = {axis: binned_report(records, axis) for axis in AXES}
    for axis, results in reports.items():
        print()
        print(format_binned(axis, results))

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["phrase\treference\tcandidate"]
        for e, cand in zip(entries, candidates):
            lines.append("\t".join((" ".join(e.phrase), " ".join(e.description),
                                    " ".join(cand))))
        (out / "predictions.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        summary = (f"metric\tvalue\ncorpus_bleu\t{corpus:.6f}\n"
                   f"avg_sentence_bleu\t{sentence:.6f}\n")
        (out / "scores.tsv").write_text(summary, encoding="utf-8")
        for axis, results in reports.items():
            (out / f"bleu_by_{axis}.tsv").write_text(binned_tsv(axis, results),
                                                     encoding="utf-8")
        print(f"\nreports -> {out}")
    return 0


def _locate_phrase(sentence: str, phrase: str) -> tuple[list, int]:
    """Build the [TRG]-marked context from a raw sentence; the sentence may
    carry an explicit marker, otherwise the first phrase occurrence is used."""
    if TRG_TOKEN.lower() in sentence.lower():
        return tokenize_with_marker(sentence)
    ctx = tokenize(sentence)
    ph = tokenize(phrase)
    if not ph:
        raise ValueError("empty phrase")
    hits = [i for i in range(len(ctx) - len(ph) + 1) if ctx[i : i + len(ph)] == ph]
    if not hits:
        raise ValueError(f"phrase {phrase!r} not found in the sentence; "
                         f"mark the span with {TRG_TOKEN} instead")
    if len(hits) > 1:
        print(f"warning: phrase occurs {len(hits)} times; using the first occurrence",
              file=sys.stderr)
    i = hits[0]
    return ctx[:i] + [TRG_TOKEN] + ctx[i + len(ph):], i


def cmd_describe(args) -> int:
    cfg = resolve_config(args)
    try:
        vocab_path = args.vocab or str(Path(args.ckpt).with_name("vocab.txt"))
        vocab = Vocab.load(vocab_path)
        table = _load_table(args.emb, cfg.seed)
        model, _meta = load_model(args.ckpt, vocab, table)
        context, pos = _locate_phrase(args.sentence, args.phrase)
        entry = Entry(phrase=tokenize(args.phrase), context=context, span=(pos, pos),
                      description=["-"])  # placeholder, unused by decoding
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    ids = beam_search(model, entry, beam=cfg.beam, max_len=cfg.max_len)
    print(" ".join(vocab.decode(ids)))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value option file")
    p.add_argument("--seed", type=int, help="seed governing all randomness (default 0)")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--variant", choices=("global", "local", "i-attention", "log-cad"),
                   help="model variant (default log-cad)")
    p.add_argument("--enc-layers", dest="enc_layers", type=int)
    p.add_argument("--enc-width", dest="enc_width", type=int)
    p.add_argument("--dec-layers", dest="dec_layers", type=int)
    p.add_argument("--dec-width", dest="dec_width", type=int)
    p.add_argument("--attn-width", dest="attn_width", type=int)
    p.add_argument("--emb-width", dest="emb_width", type=int)
    p.add_argument("--vocab-size", dest="vocab_size", type=int)
    p.add_argument("--dropout", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logcad",
        description="Context-aware phrase description generation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="mine entries from articles + item descriptions")
    _add_common(p)
    p.add_argument("--articles", required=True, help="TSV: title <TAB> first paragraph")
    p.add_argument("--items", required=True, help="TSV: title <TAB> description")
    p.add_argument("--out", required=True, help="output directory for split TSVs")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("train", help="train a model variant")
    _add_common(p)
    _add_model_flags(p)
    p.add_argument("--train", required=True, help="training TSV")
    p.add_argument("--valid", help="validation TSV (enables early stopping)")
    p.add_argument("--emb", help="pre-trained embedding text file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--clip-norm", dest="clip_norm", type=float)
    p.add_argument("--patience", type=int)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="decode a test set and report BLEU")
    _add_common(p)
    p.add_argument("--data", required=True, help="test TSV")
    p.add_argument("--ckpt", required=True, help="model checkpoint")
    p.add_argument("--vocab", help="vocab file (default: vocab.txt beside the checkpoint)")
    p.add_argument("--emb", help="pre-trained embedding text file")
    p.add_argument("--beam", type=int, help="beam width; 1 = greedy (default)")
    p.add_argument("--max-len", dest="max_len", type=int)
    p.add_argument("--out", help="directory for TSV reports")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("describe", help="describe one phrase in one sentence")
    _add_common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab")
    p.add_argument("--emb")
    p.add_argument("--phrase", required=True)
    p.add_argument("--sentence", required=True,
                   help=f"sentence containing the phrase or an explicit {TRG_TOKEN}")
    p.add_argument("--beam", type=int)
    p.add_argument("--max-len", dest="max_len", type=int)
    p.set_defaults(fn=cmd_describe)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
