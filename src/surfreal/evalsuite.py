"""Evaluation: corpus BLEU-4, detokenization, error taxonomy, length buckets.

BLEU is unsmoothed corpus-level BLEU-4 built from associative match
counts, so bucket scores aggregate back to the corpus totals exactly.
The error taxonomy sorts each hypothesis into one of four mutually
exclusive classes: exact match, punctuation-only deviation,
inflection-only deviation, or other.
"""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from typing import NamedTuple

from .conllu_io import DataError, UdSentence
from .linearizer import _ESCAPES

MAX_ORDER = 4
# reference-length buckets: below the first boundary, between neighbours, from the last up
BUCKET_BOUNDARIES = (10, 20, 30, 40, 50, 60)
BUCKET_LABELS = ("<10", "10-20", "20-30", "30-40", "40-50", "50-60", "60+")


class ErrorCategory(Enum):
    EXACT_MATCH = "ExactMatch"
    PUNCTUATION_ONLY = "PunctuationOnly"
    INFLECTION_ONLY = "InflectionOnly"
    OTHER = "Other"


# --- BLEU -------------------------------------------------------------------


class BleuCounts:
    """Clipped-match and total n-gram counts for 1..4-grams plus lengths.

    Addition is associative and commutative, so corpus statistics can be
    computed by any parallel map + reduce over sentence pairs.
    """

    __slots__ = ("matched", "total", "hyp_len", "ref_len")

    def __init__(self, matched: list[int] | None = None, total: list[int] | None = None,
                 hyp_len: int = 0, ref_len: int = 0):
        self.matched = [0] * MAX_ORDER if matched is None else matched
        self.total = [0] * MAX_ORDER if total is None else total
        self.hyp_len = hyp_len
        self.ref_len = ref_len

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.matched == other.matched and self.total == other.total
                and self.hyp_len == other.hyp_len and self.ref_len == other.ref_len)

    def __add__(self, other: "BleuCounts") -> "BleuCounts":
        return BleuCounts(
            matched=[a + b for a, b in zip(self.matched, other.matched)],
            total=[a + b for a, b in zip(self.total, other.total)],
            hyp_len=self.hyp_len + other.hyp_len,
            ref_len=self.ref_len + other.ref_len,
        )

    def score(self) -> float:
        """100 * BP * geometric mean of p1..p4; 0 when any precision is 0."""
        if self.hyp_len == 0:
            return 0.0
        log_sum = 0.0
        for n in range(MAX_ORDER):
            if self.total[n] == 0 or self.matched[n] == 0:
                return 0.0
            log_sum += math.log(self.matched[n] / self.total[n])
        bp = 1.0
        if self.hyp_len < self.ref_len:
            bp = math.exp(1.0 - self.ref_len / self.hyp_len)
        return 100.0 * bp * math.exp(log_sum / MAX_ORDER)


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def pair_counts(hyp: list[str], ref: list[str]) -> BleuCounts:
    counts = BleuCounts(hyp_len=len(hyp), ref_len=len(ref))
    for n in range(1, MAX_ORDER + 1):
        hyp_grams = _ngrams(hyp, n)
        ref_grams = _ngrams(ref, n)
        counts.total[n - 1] = sum(hyp_grams.values())
        counts.matched[n - 1] = sum(
            min(c, ref_grams[g]) for g, c in hyp_grams.items() if g in ref_grams
        )
    return counts


def _check_aligned(hyps: list, refs: list) -> None:
    """Raise DataError unless there are as many hypotheses as references, and some."""
    if len(hyps) != len(refs):
        raise DataError(f"{len(hyps)} hypotheses vs {len(refs)} references")
    if not hyps:
        raise DataError("empty corpus")


def bleu4(hypotheses: list[list[str]], references: list[list[str]]) -> float:
    _check_aligned(hypotheses, references)
    counts = BleuCounts()
    for hyp, ref in zip(hypotheses, references):
        counts = counts + pair_counts(hyp, ref)
    return counts.score()


# --- detokenization ---------------------------------------------------------

CLOSING_PUNCT = frozenset({".", ",", "!", "?", ":", ";", "%"})
OPEN_BRACKETS = frozenset({"(", "[", "{"})
CLOSE_BRACKETS = frozenset({")", "]", "}"})
_ATTACH_LEFT = CLOSING_PUNCT | CLOSE_BRACKETS | {"n't"}
_UNESCAPES = {escaped: bracket for bracket, escaped in _ESCAPES.items()}


def detokenize(tokens: list[str]) -> str:
    """Join tokens into natural orthography with a fixed rule list.

    Bracket escapes are restored first so escaped and literal brackets
    attach identically; then closing punctuation and contractions attach
    leftward, opening brackets rightward, and double quotes alternate by
    parity.  A bare apostrophe attaches leftward (possessive/closing).
    """
    out: list[str] = []
    glue_next = False
    dq_open = False
    for raw in tokens:
        token = _UNESCAPES.get(raw, raw)
        if token == '"':
            dq_open = not dq_open
            attach_left, attach_right = not dq_open, dq_open
        else:
            attach_left = token in _ATTACH_LEFT or token.startswith("'")
            attach_right = token in OPEN_BRACKETS
        if out and (glue_next or attach_left):
            out[-1] += token
        else:
            out.append(token)
        glue_next = attach_right
    return " ".join(out)


# --- error taxonomy ---------------------------------------------------------


def classify_output(
    hyp_tokens: list[str],
    ref_sentence: UdSentence,
    extra_lemmas: dict[str, str] | None = None,
) -> ErrorCategory:
    """Assign one of the four error classes, checked in order.

    Inflection matching maps forms to lemmas through the reference
    sentence's own form->lemma table, then ``extra_lemmas`` (typically
    corpus-wide, so forms the reference sentence is missing still
    resolve), then identity.
    """
    ref_forms = [t.form for t in ref_sentence.tokens]
    if hyp_tokens == ref_forms:
        return ErrorCategory.EXACT_MATCH

    ref_punct = {t.form for t in ref_sentence.tokens if t.upos == "PUNCT"}
    ref_stripped = [t.form for t in ref_sentence.tokens if t.upos != "PUNCT"]
    hyp_stripped = [t for t in hyp_tokens if t not in ref_punct]
    if hyp_stripped == ref_stripped:
        return ErrorCategory.PUNCTUATION_ONLY

    table = corpus_lemma_table([ref_sentence])

    def lemma_of(form: str) -> str:
        hit = table.get(form)
        if hit is None and extra_lemmas is not None:
            hit = extra_lemmas.get(form)
        return hit if hit is not None else form

    if [lemma_of(t) for t in hyp_tokens] == [lemma_of(t) for t in ref_forms]:
        return ErrorCategory.INFLECTION_ONLY
    return ErrorCategory.OTHER


def corpus_lemma_table(ref_corpus: list[UdSentence]) -> dict[str, str]:
    """form -> lemma over a whole corpus, first occurrence winning."""
    table: dict[str, str] = {}
    for sentence in ref_corpus:
        for t in sentence.tokens:
            table.setdefault(t.form, t.lemma)
    return table


# --- buckets and the full report --------------------------------------------


class BucketRow(NamedTuple):
    label: str
    count: int
    bleu: float | None
    counts: BleuCounts


def bucket_report(pairs: list[tuple[list[str], list[str]]]) -> list[BucketRow]:
    """Corpus BLEU per reference-length bucket; empty buckets score None."""
    sums = [BleuCounts() for _ in BUCKET_LABELS]
    counts = [0] * len(BUCKET_LABELS)
    for hyp, ref in pairs:
        idx = sum(1 for b in BUCKET_BOUNDARIES if len(ref) >= b)
        sums[idx] = sums[idx] + pair_counts(hyp, ref)
        counts[idx] += 1
    return [
        BucketRow(label=label, count=counts[i], counts=sums[i],
                  bleu=sums[i].score() if counts[i] else None)
        for i, label in enumerate(BUCKET_LABELS)
    ]


class EvalReport(NamedTuple):
    corpus_bleu: float
    bucket_bleu: list[BucketRow]
    error_counts: dict[ErrorCategory, int]
    total: int
    mode: str

    def format_table(self) -> str:
        lines = [f"mode: {self.mode}", f"sentences: {self.total}",
                 f"corpus BLEU-4: {self.corpus_bleu:.2f}", "", "category counts:"]
        for cat in ErrorCategory:
            lines.append(f"  {cat.value:<16} {self.error_counts[cat]:>6}")
        lines.append("")
        lines.append("BLEU by reference length:")
        for row in self.bucket_bleu:
            score = f"{row.bleu:.2f}" if row.bleu is not None else "-"
            lines.append(f"  {row.label:<6} {row.count:>6}  {score:>7}")
        return "\n".join(lines) + "\n"

    def format_kv(self) -> str:
        lines = [f"mode={self.mode}", f"total={self.total}",
                 f"corpus_bleu={self.corpus_bleu:.6f}"]
        for cat in ErrorCategory:
            lines.append(f"count_{cat.value}={self.error_counts[cat]}")
        for row in self.bucket_bleu:
            score = f"{row.bleu:.6f}" if row.bleu is not None else ""
            lines.append(f"bucket_{row.label}_count={row.count}")
            lines.append(f"bucket_{row.label}_bleu={score}")
        return "\n".join(lines) + "\n"


def evaluate(
    hyps: list[list[str]],
    ref_corpus: list[UdSentence],
    mode: str = "tokenized",
) -> EvalReport:
    """Assemble the full report for aligned hypothesis/reference corpora.

    BLEU and buckets follow ``mode``: tokenized compares token lists as
    given; detokenized renders both sides with :func:`detokenize` and
    compares the whitespace split.  Error classification is defined on
    tokenized text (exact match means the tokenized sentences agree), so
    it ignores the mode.
    """
    if mode not in ("tokenized", "detokenized"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_aligned(hyps, ref_corpus)

    table = corpus_lemma_table(ref_corpus)
    errors: Counter = Counter()
    pairs = []
    for hyp, ref_sentence in zip(hyps, ref_corpus):
        errors[classify_output(hyp, ref_sentence, extra_lemmas=table)] += 1
        ref = ref_sentence.forms()
        if mode == "detokenized":
            hyp, ref = detokenize(hyp).split(), detokenize(ref).split()
        pairs.append((hyp, ref))
    rows = bucket_report(pairs)
    corpus = BleuCounts()
    for row in rows:
        corpus = corpus + row.counts
    return EvalReport(
        corpus_bleu=corpus.score(),
        bucket_bleu=rows,
        error_counts={cat: errors.get(cat, 0) for cat in ErrorCategory},
        total=len(hyps),
        mode=mode,
    )
