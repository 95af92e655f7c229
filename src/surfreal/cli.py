"""Command-line entry point wiring the modules into complete workflows.

    sr make-dataset   gold CoNLL-U -> shuffled shallow dataset + references
    sr synth          parsed corpus -> filtered synthetic shallow dataset
    sr pairs          shallow dataset + references -> seq2seq .src/.tgt files
    sr train-lm       reference sentences -> n-gram scorer model
    sr realize        shallow dataset + model -> one sentence per line
    sr eval           hypotheses vs gold -> BLEU, error taxonomy, buckets

Every command writes a JSON run manifest (config, seed, input and output
digests, no timestamps) so identical invocations produce byte-identical
artifacts.  Exit codes: 0 success, 1 usage error, 2 data error.

``main`` runs the command with the cyclic garbage collector off and puts
back the caller's setting on every way out, without a collection: the data
path forms no reference cycles (``tests/test_gc.py`` checks that the
garbage a command leaves does not grow with its input), so a pass would
only walk the command's live data.  Library calls keep their own setting.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
from functools import partial
from itertools import chain
from operator import attrgetter
from pathlib import Path

from .conllu_io import DataError, UdSentence, parse_conllu, serialize_conllu
from .deptree import (
    ShallowSentence,
    shallow_from_conllu,
    shallow_to_conllu,
    shallow_transform,
    strip_alignment,
    strip_alignment_text,
    unwritable_word,
)
from .evalsuite import evaluate
from .linearizer import emit_training_pairs, write_pair_files
from .ngram import NGramModel, train_ngram
from .parallel import parallel_map
from .realizer import NGramScorer, beam_realize, build_form_lexicon
from .synthpipe import FilterPolicy, build_synthetic_dataset, build_vocab


# --- manifest helpers --------------------------------------------------------


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _digests(paths: list[Path]) -> dict[str, str]:
    """Each file's digest keyed by its name, or by its path as given when
    another of the files has the same name."""
    names = [p.name for p in paths]
    return {str(p) if names.count(p.name) > 1 else p.name: _sha256(p) for p in paths}


def _write_manifest(
    manifest_path: Path, subcommand: str, config: dict, inputs: list[Path], outputs: list[Path]
) -> None:
    manifest = {
        "tool": "sr",
        "subcommand": subcommand,
        "config": config,
        "inputs": _digests(inputs),
        "outputs": _digests(outputs),
    }
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                             encoding="utf-8")


def _read_text(path: Path) -> str:
    try:
        # bytes, not text mode: universal newlines would hide CRLF from the parser
        return path.read_bytes().decode("utf-8")
    except FileNotFoundError:
        raise DataError(f"no such file: {path}")
    except UnicodeDecodeError as err:
        raise DataError(f"{path} is not valid UTF-8: {err}") from None


def _read_ref_lines(path: Path) -> list[list[str]]:
    """One token list per line. Only a line feed ends a line: a form feed,
    U+2028 or other Unicode line break inside a line is whitespace."""
    text = _read_text(path)
    return [line.split() for line in text.removesuffix("\n").split("\n")] if text else []


def _write_shallow_outputs(out_dir: Path, dataset: list[ShallowSentence],
                           stem: str) -> list[Path]:
    """Aligned CoNLL-U, stripped (distribution) CoNLL-U, and references."""
    out_dir.mkdir(parents=True, exist_ok=True)
    aligned = out_dir / f"{stem}.conllu"
    stripped = out_dir / f"{stem}.stripped.conllu"
    refs = out_dir / "refs.txt"
    text = serialize_conllu(shallow_to_conllu(s) for s in dataset)
    aligned.write_text(text, encoding="utf-8")
    text = strip_alignment_text(text)  # drops the aligned text before the write
    stripped.write_text(text, encoding="utf-8")
    refs.write_text("".join(" ".join(s.reference_forms) + "\n" for s in dataset),
                    encoding="utf-8")
    return [aligned, stripped, refs]


def _read_conllu(path: Path, *words: str, strict: bool = True) -> list[UdSentence]:
    """Parse a CoNLL-U file; DataError when it holds no sentence, or when a
    named token field (``"form"``, ``"lemma"``) holds a word that a
    space-separated token line (refs.txt, a linearized source, a realized
    sentence) cannot carry.  Each field is checked over the whole input, in
    the order named."""
    sentences = parse_conllu(_read_text(path), strict=strict)
    if not sentences:
        raise DataError(f"no sentences in {path}")
    for word in words:
        field = attrgetter(word)
        # one check over the field's distinct words; the sentence loop only runs
        # to name the first bad one
        tokens = chain.from_iterable(sentence.tokens for sentence in sentences)
        if unwritable_word(list(set(map(field, tokens)))) is None:
            continue
        for number, sentence in enumerate(sentences, 1):
            index = unwritable_word(list(map(field, sentence.tokens)))
            if index is not None:
                token = sentence.tokens[index]
                raise DataError(f"{path}: sentence {number}, "
                                f"{'token' if word == 'form' else 'node'} {token.id}: {word} "
                                f"{field(token)!r} is empty or holds whitespace, which a "
                                "space-separated token line cannot carry")
    return sentences


def _out_file(name: str) -> Path:
    """An --out file's path, with its parent directory created."""
    out = Path(name)
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


# --- subcommands --------------------------------------------------------------


def cmd_make_dataset(args) -> int:
    sentences = _read_conllu(args.in_path, "form", "lemma", strict=not args.lenient)
    dataset = [shallow_transform(s, args.seed + i) for i, s in enumerate(sentences)]
    out_dir = Path(args.out)
    outputs = _write_shallow_outputs(out_dir, dataset, "shallow")
    _write_manifest(out_dir / "manifest.json", "make-dataset",
                    {"seed": args.seed, "lenient": args.lenient},
                    [args.in_path], outputs)
    print(f"wrote {len(dataset)} sentences to {out_dir}", file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    policy = FilterPolicy(min_len=args.min_len, max_len=args.max_len,
                          overlap_threshold=args.overlap)
    gold = _read_conllu(args.vocab_from, "form")
    vocab = build_vocab((s.forms() for s in gold), args.min_count)
    dataset, stats = build_synthetic_dataset(
        _read_text(args.in_path), vocab, policy, args.seed, jobs=args.jobs)
    if stats.input_count == 0:
        raise DataError(f"no sentences in {args.in_path}")
    if stats.kept_count == 0:
        print(stats.as_report(), end="", file=sys.stderr)
        raise DataError(f"no sentence of {args.in_path} passed the filters")
    out_dir = Path(args.out)
    outputs = _write_shallow_outputs(out_dir, dataset, "synth")
    stats_path = out_dir / "stats.txt"
    stats_path.write_text(stats.as_report(), encoding="utf-8")
    outputs.append(stats_path)
    _write_manifest(out_dir / "manifest.json", "synth",
                    {"seed": args.seed, "min_len": args.min_len, "max_len": args.max_len,
                     "overlap": args.overlap, "min_count": args.min_count,
                     "jobs": args.jobs},
                    [args.in_path, args.vocab_from], outputs)
    print(stats.as_report(), end="", file=sys.stderr)
    return 0


def _load_shallow_dataset(conllu_path: Path, refs_path: Path | None) -> list[ShallowSentence]:
    sentences = _read_conllu(conllu_path, "lemma")
    refs = _read_ref_lines(refs_path) if refs_path else None
    if refs is not None and len(refs) != len(sentences):
        raise DataError(
            f"{conllu_path} has {len(sentences)} sentences but "
            f"{refs_path} has {len(refs)} reference lines")
    dataset = []
    for i, sentence in enumerate(sentences):
        sentences[i] = None  # free each parsed sentence once it is decoded
        forms = None
        if refs is not None:
            forms = tuple(refs[i])
            if len(forms) != len(sentence.tokens):
                raise DataError(
                    f"sentence {i + 1} of {conllu_path} has {len(sentence.tokens)} nodes but "
                    f"line {i + 1} of {refs_path} has {len(forms)} reference tokens")
        dataset.append(shallow_from_conllu(sentence, reference_forms=forms))
    return dataset


def cmd_pairs(args) -> int:
    if args.with_forms and args.lexicon is None:
        raise ValueError("--with-forms requires --lexicon")
    if args.lexicon is not None and not args.with_forms:
        raise ValueError("--lexicon requires --with-forms")
    dataset = _load_shallow_dataset(args.in_path, args.refs)
    lexicon = None
    inputs = [args.in_path, args.refs]
    if args.lexicon is not None:
        lexicon = build_form_lexicon(_read_conllu(args.lexicon, "form"))
        inputs.append(args.lexicon)
    pairs = emit_training_pairs(dataset, args.k, scoped=args.scoped, lexicon=lexicon,
                                rng_seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    src, tgt = out_dir / "pairs.src", out_dir / "pairs.tgt"
    write_pair_files(pairs, src, tgt)
    _write_manifest(out_dir / "manifest.json", "pairs",
                    {"seed": args.seed, "k": args.k, "scoped": args.scoped,
                     "with_forms": args.with_forms},
                    inputs, [src, tgt])
    print(f"wrote {len(pairs)} pairs to {out_dir}", file=sys.stderr)
    return 0


def cmd_train_lm(args) -> int:
    refs = _read_ref_lines(args.refs)
    model = train_ngram(refs, order=args.order, lam=args.lam)
    out = _out_file(args.out)
    model.save(out)
    _write_manifest(Path(str(out) + ".manifest.json"), "train-lm",
                    {"order": args.order, "lambda": args.lam},
                    [args.refs], [out])
    print(f"trained order-{args.order} model on {len(refs)} sentences "
          f"({len(model.vocab)} types)", file=sys.stderr)
    return 0


def cmd_realize(args) -> int:
    dataset = [strip_alignment(s) for s in _load_shallow_dataset(args.in_path, None)]
    model = NGramModel.load(args.lm)
    lexicon = build_form_lexicon(_read_conllu(args.lexicon, "form"))
    realize = partial(beam_realize, scorer=NGramScorer(model), beam_size=args.beam,
                      lexicon=lexicon)
    realized = [result.tokens for result in parallel_map(realize, dataset, args.jobs)]
    out = _out_file(args.out)
    out.write_text("".join(" ".join(tokens) + "\n" for tokens in realized),
                   encoding="utf-8")
    _write_manifest(Path(str(out) + ".manifest.json"), "realize",
                    {"beam": args.beam, "jobs": args.jobs},
                    [args.in_path, args.lm, args.lexicon], [out])
    print(f"realized {len(realized)} sentences to {out}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    hyps = _read_ref_lines(args.hyp)
    refs = _read_conllu(args.ref, "form")
    mode = "detokenized" if args.detokenized else "tokenized"
    report = evaluate(hyps, refs, mode=mode)
    print(report.format_table(), end="")
    if args.out is not None:
        out = _out_file(args.out)
        out.write_text(report.format_kv(), encoding="utf-8")
        _write_manifest(Path(str(out) + ".manifest.json"), "eval",
                        {"mode": mode}, [args.hyp, args.ref], [out])
    return 0


# --- argument parsing ----------------------------------------------------------


def _count(text: str) -> int:
    """A count flag's value: at least 1, checked while parsing, before any input is read."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {count}")
    return count


def _weight(text: str) -> float:
    """A --lambda value: an interpolation weight strictly between 0 and 1."""
    try:
        weight = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0 < weight < 1:
        raise argparse.ArgumentTypeError(f"must be strictly between 0 and 1, not {weight}")
    return weight


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sr", description="surface realization toolkit (shallow task pipeline)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("make-dataset", help="shuffle a gold treebank into a shallow dataset")
    p.add_argument("--in", dest="in_path", type=Path, required=True, metavar="GOLD.conllu")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--lenient", action="store_true",
                   help="skip malformed sentences instead of failing")
    p.set_defaults(func=cmd_make_dataset)

    p = sub.add_parser("synth", help="build synthetic data from a parsed corpus")
    p.add_argument("--in", dest="in_path", type=Path, required=True, metavar="PARSED.conllu")
    p.add_argument("--vocab-from", type=Path, required=True, metavar="GOLD.conllu")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--min-len", type=int, default=5)
    p.add_argument("--max-len", type=int, default=50)
    p.add_argument("--overlap", type=float, default=0.8)
    p.add_argument("--min-count", type=_count, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--jobs", type=_count, default=1,
                   help="checked (at least 1) but has no effect: synth sifts every block "
                        "in one process; the flag stays until the benchmark stops passing it")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pairs", help="emit seq2seq training pairs")
    p.add_argument("--in", dest="in_path", type=Path, required=True, metavar="SHALLOW.conllu")
    p.add_argument("--refs", type=Path, required=True, metavar="REFS.txt")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--k", type=_count, default=1, help="linearizations per sentence")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--scoped", action="store_true", help="add scoping brackets")
    p.add_argument("--with-forms", action="store_true", help="append inflection form lists")
    p.add_argument("--lexicon", type=Path, metavar="GOLD.conllu",
                   help="treebank to harvest inflection forms from (with --with-forms)")
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("train-lm", help="train the n-gram scorer")
    p.add_argument("--refs", type=Path, required=True, metavar="REFS.txt")
    p.add_argument("--out", required=True, metavar="MODEL.ngrams")
    p.add_argument("--order", type=_count, default=3)
    p.add_argument("--lambda", dest="lam", type=_weight, default=0.7)
    p.set_defaults(func=cmd_train_lm)

    p = sub.add_parser("realize", help="realize sentences with beam search")
    p.add_argument("--in", dest="in_path", type=Path, required=True, metavar="SHALLOW.conllu")
    p.add_argument("--lm", type=Path, required=True, metavar="MODEL.ngrams")
    p.add_argument("--lexicon", type=Path, required=True, metavar="GOLD.conllu")
    p.add_argument("--beam", type=_count, default=10)
    p.add_argument("--out", required=True, metavar="HYP.txt")
    p.add_argument("--jobs", type=_count, default=1)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("eval", help="score hypotheses against a gold treebank")
    p.add_argument("--hyp", type=Path, required=True, metavar="HYP.txt")
    p.add_argument("--ref", type=Path, required=True, metavar="GOLD.conllu")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--tokenized", action="store_true", help="compare token lists (default)")
    mode.add_argument("--detokenized", action="store_true",
                      help="render both sides to plain text first")
    p.add_argument("--out", metavar="REPORT.txt", help="also write a key=value report")
    p.add_argument("--jobs", type=_count, default=1,
                   help="checked (at least 1) but has no effect: eval scores every pair "
                        "in one process; the flag stays until the benchmark stops passing it")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return 0 if not exit_.code else 1
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (DataError, OSError) as err:
        print(f"sr: data error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"sr: usage error: {err}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
