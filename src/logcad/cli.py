"""Command-line entry points: extract, train, evaluate, describe.

Options resolve in order: their owners' defaults (``OPTIONS``), then a
``--config`` file of flat ``key=value`` lines, then explicit flags. Only
``extract`` (for its split) and ``train`` take ``--seed``: a model's seed,
set when ``train`` creates it and kept in its checkpoint, governs all its
randomness (parameter init, shuffling, dropout, the UNK vector), so every
command is deterministic given its inputs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
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
    read_lines,
    tokenize,
    tokenize_with_marker,
    write_dataset,
    Entry,
)
from logcad.decode import DEFAULT_MAX_LEN, beam_search, check_search, decode_batch
# not called here; perfbench's tracer wraps it under this module's name
from logcad.decode import greedy_decode  # noqa: F401
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
    VARIANTS,
    DescriptionModel,
    ModelConfig,
    load_checkpoint,
    load_model,
    meta_count,
    model_from_checkpoint,
    parse_value,
    save_checkpoint,
)
from logcad.train import TrainSettings, train
from logcad.wiki import extract_wikipedia, read_articles, read_items, split_by_phrase


def _option(field: str) -> str:
    """The option that sets ``ModelConfig`` field ``field``."""
    return "emb_width" if field == "word_emb_width" else field


# every tunable option and its owner's default: ModelConfig's fields (its
# word_emb_width is the option emb_width), TrainSettings', the seed of
# extract's split and of a new model, and the decoder's
OPTIONS = {**{_option(f.name): f.default for f in fields(ModelConfig)},
           **{f.name: f.default for f in fields(TrainSettings)},
           "seed": 0, "beam": 1, "max_len": DEFAULT_MAX_LEN}


def _owners(opts: dict) -> tuple[TrainSettings, ModelConfig]:
    """The training settings and model config that ``opts`` set; each owner
    refuses a value it cannot use, and a negative seed is refused here."""
    if opts["seed"] < 0:
        raise ValueError(f"seed must be at least 0, got {opts['seed']}")
    return (TrainSettings(**{f.name: opts[f.name] for f in fields(TrainSettings)}),
            ModelConfig(**{f.name: opts[_option(f.name)] for f in fields(ModelConfig)}))


def given_options(args: argparse.Namespace) -> dict:
    """The options that the flags and the ``--config`` file's ``key=value``
    lines set: a flag wins, then the file's last line for the key. A line
    whose key or value the option's owner refuses is refused with its line."""
    given = {}
    for lineno, line in read_lines(args.config) if args.config else ():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, raw = line.partition("=")
        key = key.strip().replace("-", "_")
        try:
            if not eq:
                raise ValueError("expected key=value")
            if key not in OPTIONS:
                raise ValueError(f"unknown config key {key!r}")
            opts = {**OPTIONS, key: parse_value(key, raw.strip(), OPTIONS[key])}
            _owners(opts)
            check_search(opts["beam"], opts["max_len"])
        except ValueError as e:
            raise ValueError(f"{args.config}:{lineno}: {e}") from None
        given[key] = opts[key]
    given.update({key: value for key in OPTIONS
                  if (value := getattr(args, key, None)) is not None})
    return given


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """Every option's value: given, else its owner's default. A value its
    owner refuses is refused here, before the command reads any file."""
    opts = {**OPTIONS, **given_options(args)}
    _owners(opts)
    return argparse.Namespace(**opts)


# ---------------------------------------------------------------------------
# commands

# entries ``evaluate`` decodes together, each as alone up to float rounding (``logcad.decode``)
EVAL_CHUNK = 32


def cmd_extract(args) -> int:
    cfg = resolve_config(args)
    articles = read_articles(args.articles)
    items = read_items(args.items)
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
    given = given_options(args)
    settings, model_cfg = _owners({**OPTIONS, **given})
    seed = given.get("seed", OPTIONS["seed"])
    if args.resume:
        # the checkpoint fixes the model and its seed: another value is refused
        tensors, meta = load_checkpoint(_checkpoint_file(args.resume, "--resume"))
        try:
            model_cfg = ModelConfig.from_meta(meta)
            seed = meta_count(meta, "seed")
            start_epoch = meta_count(meta, "epoch")
        except ValueError as e:
            raise ValueError(f"{args.resume}: {e}") from None
        fixed = [(_option(f.name), f.name, getattr(model_cfg, f.name))
                 for f in fields(ModelConfig)] + [("seed", "seed", seed)]
        clashes = [f"--{opt.replace('_', '-')} {given[opt]} disagrees with the checkpoint's "
                   f"{name}={value}" for opt, name, value in fixed
                   if opt in given and given[opt] != value]
        if clashes:
            raise ValueError(f"{args.resume}: " + "; ".join(clashes))
        vocab = Vocab.load(Path(args.resume).with_name("vocab.txt"))
    train_entries = load_dataset(args.train)
    valid_entries = load_dataset(args.valid) if args.valid else None
    if not train_entries:
        print(f"error: {args.train}: no valid training entries", file=sys.stderr)
        return 1
    if args.valid and not valid_entries:
        print(f"error: {args.valid}: no valid validation entries", file=sys.stderr)
        return 1

    table = None if args.emb is None else load_embeddings(args.emb)
    if table is None and model_cfg.uses_global_embedding:
        print("warning: no embedding file; phrase vectors fall back to the UNK vector",
              file=sys.stderr)

    if args.resume:
        # load_model's two steps, called apart: the meta was read above to
        # refuse clashing options before any data was read
        model = model_from_checkpoint(args.resume, tensors, meta, vocab, table)
    else:
        start_epoch = 0
        vocab = build_vocab(train_entries, size=model_cfg.vocab_size)
        model = DescriptionModel(model_cfg, vocab, table, seed=seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    result = train(model, train_entries, valid_entries, settings,
                   start_epoch=start_epoch, verbose=not args.quiet)

    meta = dict(model.config.to_meta())
    meta["seed"] = str(model.seed)
    meta["epoch"] = str(start_epoch + result.epochs_run)
    ckpt = out / "model.ckpt"
    save_checkpoint(ckpt, model.params, meta)
    model.vocab.save(out / "vocab.txt")
    (out / "train_log.tsv").write_text(result.log_text(), encoding="utf-8")
    scores = "" if result.final_train is None else f"; final_train={result.final_train:.6f}"
    if result.best_valid is not None:
        scores += f" best_valid={result.best_valid:.6f}"
    print(f"trained {result.epochs_run} epoch(s){scores}; checkpoint -> {ckpt}")
    return 0


def _checkpoint_file(path: str, flag: str) -> str:
    """``path``, given by ``flag``, unless it is a directory."""
    if Path(path).is_dir():
        raise ValueError(f"{path}: is a directory; {flag} takes the checkpoint "
                         f"file, such as {Path(path) / 'model.ckpt'}")
    return path


def _load_trained(args):
    """The vocab, embedding table and model that ``evaluate`` and
    ``describe`` decode with."""
    ckpt = _checkpoint_file(args.ckpt, "--ckpt")
    vocab = Vocab.load(args.vocab or Path(ckpt).with_name("vocab.txt"))
    table = None if args.emb is None else load_embeddings(args.emb)
    model, _meta = load_model(ckpt, vocab, table)
    return vocab, table, model


def cmd_evaluate(args) -> int:
    cfg = resolve_config(args)
    entries = load_dataset(args.data)
    if not entries:
        print(f"error: {args.data}: no entries to evaluate", file=sys.stderr)
        return 1
    vocab, table, model = _load_trained(args)

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
    vocab, _table, model = _load_trained(args)
    context, pos = _locate_phrase(args.sentence, args.phrase)
    entry = Entry(phrase=tokenize(args.phrase), context=context, span=(pos, pos),
                  description=["-"])  # placeholder, unused by decoding
    ids = beam_search(model, entry, beam=cfg.beam, max_len=cfg.max_len)
    print(" ".join(vocab.decode(ids)))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


# what --help says of an option besides its default
_HELP = {"seed": "the split's seed, or a new model's (train --resume keeps the checkpoint's)",
         "clip_norm": "global gradient-norm bound; 0 disables clipping",
         "patience": "epochs without validation gain before stopping; 0 disables",
         "beam": "beam width; 1 = greedy",
         "max_len": "most tokens a description may have"}


def _add_options(p: argparse.ArgumentParser, names: str) -> None:
    """A flag for each option in ``names``, of its default's type; the
    parsed value is None unless the flag is given."""
    for name in names.split():
        default = OPTIONS[name]
        p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=type(default),
                       choices=VARIANTS if name == "variant" else None,
                       help=f"{_HELP.get(name, '')} (default {default})".lstrip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logcad",
        description="Context-aware phrase description generation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="flat key=value option file")
        p.set_defaults(fn=fn)
        return p

    def trained(p):  # the inputs of _load_trained
        p.add_argument("--ckpt", required=True, help="model checkpoint")
        p.add_argument("--vocab", help="vocab file (default: vocab.txt beside the checkpoint)")
        p.add_argument("--emb", help="pre-trained embedding text file")

    p = command("extract", cmd_extract, "mine entries from articles + item descriptions")
    _add_options(p, "seed")
    p.add_argument("--articles", required=True, help="TSV: title <TAB> first paragraph")
    p.add_argument("--items", required=True, help="TSV: title <TAB> description")
    p.add_argument("--out", required=True, help="output directory for split TSVs")

    p = command("train", cmd_train, "train a model variant")
    _add_options(p, "seed variant enc_layers enc_width dec_layers dec_width attn_width emb_width "
                    "vocab_size dropout")
    p.add_argument("--train", required=True, help="training TSV")
    p.add_argument("--valid", help="validation TSV (enables early stopping)")
    p.add_argument("--emb", help="pre-trained embedding text file")
    p.add_argument("--out", required=True, help="output directory")
    _add_options(p, "epochs batch_size lr clip_norm patience")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--quiet", action="store_true")

    p = command("evaluate", cmd_evaluate, "decode a test set and report BLEU")
    p.add_argument("--data", required=True, help="test TSV")
    trained(p)
    _add_options(p, "beam max_len")
    p.add_argument("--out", help="directory for TSV reports")

    p = command("describe", cmd_describe, "describe one phrase in one sentence")
    trained(p)
    p.add_argument("--phrase", required=True, help="the phrase to describe, as in the sentence")
    p.add_argument("--sentence", required=True,
                   help=f"sentence containing the phrase or an explicit {TRG_TOKEN}")
    _add_options(p, "beam max_len")

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
