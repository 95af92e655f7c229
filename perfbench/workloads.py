"""Seeded inputs and `sr` command lines for the three benchmark workloads.

Every input is drawn from the ToyLang generator in ``tests/toylang.py``.
Corpora are stratified: each workload fixes how many sentences of each
kind (short, medium, long, xlong) it holds and which templates and
clause counts make them up, while the seed picks words and order.
Realization cost grows about as beam x n^2 x forms, so leaving sentence
lengths to chance would make the cost of a run depend on the seed far
more than on the code.  Out-of-vocabulary sentences and malformed blocks
are injected at fixed counts for the same reason.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# README walkthrough flags shared by all workloads
MIN_LEN, MAX_LEN, OVERLAP, MIN_COUNT = 5, 50, 0.8, 10
PAIRS_K = 2
LM_ORDER, LM_LAMBDA = 3, 0.7
SYNTH_FLAGS = ["--min-len", str(MIN_LEN), "--max-len", str(MAX_LEN), "--overlap", str(OVERLAP),
               "--min-count", str(MIN_COUNT), "--seed", "1"]
PAIRS_FLAGS = ["--k", str(PAIRS_K), "--scoped", "--with-forms", "--lexicon", "gold.conllu"]
LM_FLAGS = ["--order", str(LM_ORDER), "--lambda", str(LM_LAMBDA)]

# template schedule per sentence kind, cycled in order: the same templates
# ToyLang picks from at random, and its clause counts for long (3-8) and
# xlong (15-18) coordination chains
SCHEDULE = {
    "short": [(name, ()) for name in ("short_iv", "short_tv", "short_pron_tv", "copula")],
    "medium": [(name, ()) for name in ("intrans_pp", "adj_tv", "attribution", "short_tv",
                                       "copula")],
    "long": [("chain", (n,)) for n in (3, 4, 5, 6, 7, 8)],
    "xlong": [("chain", (n,)) for n in (15, 16, 17, 18)],
}
LENGTH_BUCKETS = (("len_lt10", 0, 10), ("len10-29", 10, 30), ("len30plus", 30, 10**9))


@dataclass(frozen=True)
class Corpus:
    """Fixed counts per sentence kind, plus injected faults."""

    short: int = 0
    medium: int = 0
    long: int = 0
    xlong: int = 0
    oov: int = 0          # sentences whose content words become nonces
    malformed: int = 0    # extra blocks that no CoNLL-U parser may accept

    def kinds(self) -> list[str]:
        return (["short"] * self.short + ["medium"] * self.medium
                + ["long"] * self.long + ["xlong"] * self.xlong)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    gold: Corpus            # lexicon, synth vocabulary, and (walkthrough) realize set
    parsed: Corpus          # synth input
    heldout: Corpus | None  # realize set; None means the gold set itself
    lm_refs: str            # refs file train-lm reads
    pairs_in: tuple[str, str]
    beam: int
    jobs: int

    def dataset_dir(self) -> str:
        """Where make-dataset writes the realize set's shallow dataset."""
        return "data/gold" if self.heldout is None else "data/held"

    def steps(self, jobs: int | None = None) -> list[tuple[str, list[str]]]:
        """The six `sr` invocations, relative to the repetition directory."""
        jobs = self.jobs if jobs is None else jobs
        target = "gold.conllu" if self.heldout is None else "heldout.conllu"
        data = self.dataset_dir()
        return [
            ("make_dataset", ["make-dataset", "--in", target, "--out", data, "--seed", "1"]),
            ("synth", ["synth", "--in", "parsed.conllu", "--vocab-from", "gold.conllu",
                       "--out", "data/synth", *SYNTH_FLAGS, "--jobs", str(jobs)]),
            ("pairs", ["pairs", "--in", self.pairs_in[0], "--refs", self.pairs_in[1],
                       "--out", "data/pairs", *PAIRS_FLAGS]),
            ("train_lm", ["train-lm", "--refs", self.lm_refs, "--out", "model.ngrams",
                          *LM_FLAGS]),
            ("realize", ["realize", "--in", f"{data}/shallow.conllu", "--lm", "model.ngrams",
                         "--lexicon", "gold.conllu", "--beam", str(self.beam),
                         "--out", "hyp.txt", "--jobs", str(jobs)]),
            ("eval", ["eval", "--hyp", "hyp.txt", "--ref", target, "--tokenized",
                      "--out", "report.txt", "--jobs", str(jobs)]),
        ]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="walkthrough",
            why="README flags at --jobs 2 on a mostly short/medium gold set: the only "
                "workload using the process fan-outs; stresses per-sentence realize overhead",
            gold=Corpus(short=50, medium=110, long=30, xlong=10),
            parsed=Corpus(short=500, medium=1100, long=300, xlong=100, oov=200, malformed=40),
            heldout=None,
            lm_refs="data/gold/refs.txt",
            pairs_in=("data/gold/shallow.conllu", "data/gold/refs.txt"),
            beam=10, jobs=2,
        ),
        Workload(
            name="synth-bulk",
            why="large parsed corpus with OOV and malformed blocks at --jobs 1: parse, NFC, "
                "filter, shallow transform, serialize, linearize and LM train/save/load dominate",
            gold=Corpus(short=100, medium=220, long=60, xlong=20),
            parsed=Corpus(short=1000, medium=2200, long=600, xlong=200, oov=400, malformed=80),
            heldout=Corpus(short=36, medium=60, long=2, xlong=2),
            lm_refs="data/synth/refs.txt",
            pairs_in=("data/synth/synth.conllu", "data/synth/refs.txt"),
            beam=1, jobs=1,
        ),
        Workload(
            name="decode-long",
            why="long and xlong coordination chains at beam 50, --jobs 1: realizer and LM "
                "queries do almost all the work; data preparation is negligible",
            gold=Corpus(short=75, medium=165, long=45, xlong=15),
            parsed=Corpus(short=50, medium=110, long=30, xlong=10, oov=20, malformed=4),
            heldout=Corpus(short=4, long=6, xlong=3),
            lm_refs="gold.refs.txt",
            pairs_in=("data/held/shallow.conllu", "data/held/refs.txt"),
            beam=50, jobs=1,
        ),
    )
}


# --- generation ---------------------------------------------------------------


def _toylang():
    for sub in ("src", "tests"):
        path = str(ROOT / sub)
        if path not in sys.path:
            sys.path.insert(0, path)
    from toylang import ToyLang, tok
    return ToyLang, tok


def _conllu_block(sentence) -> list[str]:
    return ["\t".join((str(t.id), t.form, t.lemma, t.upos, t.xpos, t.feats, str(t.head),
                       t.deprel, t.deps, t.misc)) for t in sentence.tokens]


def _break_block(lines: list[str], rng: random.Random) -> list[str]:
    """One structural fault per block, of a seeded kind."""
    lines = list(lines)
    row = rng.randrange(len(lines))
    cols = lines[row].split("\t")
    fault = rng.randrange(4)
    if fault == 0:
        cols = cols[:9]                         # missing column
    elif fault == 1:
        cols[6] = "x"                           # non-integer head
    elif fault == 2:
        cols[6] = str(len(lines) + 3)           # dangling head
    else:
        cols[6] = cols[0]                       # token is its own head
    lines[row] = "\t".join(cols)
    return lines


def generate(corpus: Corpus, seed: int) -> tuple[list, list[list[str]]]:
    """Sentences (valid ones only) and the CoNLL-U blocks to write, in file order."""
    ToyLang, tok = _toylang()
    toy = ToyLang(seed)
    rng = random.Random(seed * 7919 + 17)
    kinds = corpus.kinds()
    rng.shuffle(kinds)
    made = {kind: 0 for kind in SCHEDULE}
    sentences = []
    for kind in kinds:
        template, arg = SCHEDULE[kind][made[kind] % len(SCHEDULE[kind])]
        made[kind] += 1
        sentences.append(getattr(toy, template)(*arg))
    for i in sorted(rng.sample(range(len(sentences)), corpus.oov)):
        s = sentences[i]
        for j, t in enumerate(s.tokens):
            if t.upos in ("NOUN", "VERB", "ADJ", "PROPN"):
                nonce = f"zq{i}x{j}"
                s.tokens[j] = tok(t.id, nonce, nonce, t.upos, t.feats, t.head, t.deprel)
    blocks = [_conllu_block(s) for s in sentences]
    for pos in sorted(rng.sample(range(len(blocks) + corpus.malformed), corpus.malformed)):
        donor = blocks[rng.randrange(len(sentences))]
        blocks.insert(pos, _break_block(donor, rng))
    return sentences, blocks


def write_blocks(path: Path, blocks: list[list[str]]) -> None:
    path.write_text("".join("\n".join(b) + "\n\n" for b in blocks), encoding="utf-8")


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def bucket_counts(sentences) -> dict[str, int]:
    out = {name: 0 for name, _, _ in LENGTH_BUCKETS}
    for s in sentences:
        out[length_bucket(len(s.tokens))] += 1
    return out


def length_bucket(n: int) -> str:
    for name, lo, hi in LENGTH_BUCKETS:
        if lo <= n < hi:
            return name
    raise ValueError(n)


@dataclass
class Inputs:
    """Generated inputs of one workload and seed, as written to ``directory``."""

    directory: Path
    gold: list
    parsed: list
    parsed_blocks: int
    target: list            # the realize/eval set

    def files(self) -> list[Path]:
        return sorted(p for p in self.directory.iterdir() if p.is_file())

    def describe(self) -> dict:
        return {
            "input_sha256": {p.name: sha256_file(p) for p in self.files()},
            "sentences": {"gold": len(self.gold), "parsed_valid": len(self.parsed),
                          "parsed_blocks": self.parsed_blocks, "realize": len(self.target)},
            "tokens": {"gold": sum(len(s.tokens) for s in self.gold),
                       "parsed_valid": sum(len(s.tokens) for s in self.parsed),
                       "realize": sum(len(s.tokens) for s in self.target)},
            "realize_length_buckets": bucket_counts(self.target),
        }


def build_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Write gold.conllu, parsed.conllu and (if any) heldout.conllu and gold.refs.txt.

    Each corpus gets its own derived seed so that resizing one leaves the
    others unchanged.
    """
    directory.mkdir(parents=True, exist_ok=True)
    gold, gold_blocks = generate(workload.gold, seed * 1000 + 1)
    write_blocks(directory / "gold.conllu", gold_blocks)
    (directory / "gold.refs.txt").write_text(
        "".join(" ".join(s.forms()) + "\n" for s in gold), encoding="utf-8")
    parsed, parsed_blocks = generate(workload.parsed, seed * 1000 + 2)
    write_blocks(directory / "parsed.conllu", parsed_blocks)
    target = gold
    if workload.heldout is not None:
        target, held_blocks = generate(workload.heldout, seed * 1000 + 3)
        write_blocks(directory / "heldout.conllu", held_blocks)
    return Inputs(directory=directory, gold=gold, parsed=parsed,
                  parsed_blocks=len(parsed_blocks), target=target)
