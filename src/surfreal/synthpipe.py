"""Synthetic shallow-task data from parsed unlabeled corpora.

A parsed corpus is read leniently (malformed blocks, and blocks with a
form or lemma that a space-separated token line cannot carry, are counted,
not fatal), Unicode-normalized to NFC, filtered by sentence length and by
surface-vocabulary overlap against the original dataset, and the
survivors are shallow-transformed with per-sentence derived seeds.
Statistics reconcile exactly: every input block is kept or rejected for
exactly one reason.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Iterable, NamedTuple
from unicodedata import is_normalized, normalize

from .conllu_io import (
    ConlluError,
    UdSentence,
    UdToken,
    iter_blocks,
    parse_block,
)
from .deptree import ShallowSentence, shallow_transform, unwritable_word

REASON_LENGTH = "length"
REASON_OVERLAP = "overlap"
REASON_MALFORMED = "malformed"

_lemma = itemgetter(2)  # a UdToken's lemma


class _PolicyFields(NamedTuple):
    min_len: int
    max_len: int
    overlap_threshold: float


class FilterPolicy(_PolicyFields):
    """The sentence-length bounds and the vocabulary-overlap threshold.  A
    ``NamedTuple`` that every way of building it checks: the constructor,
    ``_make``, ``_replace`` and unpickling all raise ValueError on bad values."""

    __slots__ = ()

    def __new__(cls, min_len: int = 5, max_len: int = 50, overlap_threshold: float = 0.8):
        if not 0 < min_len <= max_len:
            raise ValueError(f"need 0 < min_len <= max_len, got {min_len}, {max_len}")
        if not 0.0 <= overlap_threshold <= 1.0:
            raise ValueError(f"overlap_threshold must be in [0, 1], got {overlap_threshold}")
        return super().__new__(cls, min_len, max_len, overlap_threshold)

    @classmethod
    def _make(cls, iterable) -> FilterPolicy:
        return cls(*iterable)


def build_vocab(sentences: Iterable[list[str]], min_count: int) -> frozenset[str]:
    """Surface forms seen at least min_count times in the original data."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts = Counter()
    for tokens in sentences:
        counts.update(tokens)
    return frozenset(t for t, c in counts.items() if c >= min_count)


def filter_sentence(tokens: list[str], vocab: frozenset[str], policy: FilterPolicy) -> str | None:
    """Why a sentence is rejected, or None to keep it.

    Length test first, then instance-level vocabulary overlap.
    Overlap = in-vocab token count / token count, case-sensitive,
    punctuation included; the threshold comparison is inclusive.
    """
    n = len(tokens)
    if not policy.min_len <= n <= policy.max_len:
        return REASON_LENGTH
    in_vocab = sum(1 for t in tokens if t in vocab)
    if in_vocab / n < policy.overlap_threshold:
        return REASON_OVERLAP
    return None


class SynthStats(NamedTuple):
    input_count: int = 0
    kept_count: int = 0
    rejected_by_length: int = 0
    rejected_by_overlap: int = 0
    rejected_malformed: int = 0

    def reconciles(self) -> bool:
        return self.input_count == (
            self.kept_count
            + self.rejected_by_length
            + self.rejected_by_overlap
            + self.rejected_malformed
        )

    def as_report(self) -> str:
        return (
            f"input_count={self.input_count}\n"
            f"kept_count={self.kept_count}\n"
            f"rejected_by_length={self.rejected_by_length}\n"
            f"rejected_by_overlap={self.rejected_by_overlap}\n"
            f"rejected_malformed={self.rejected_malformed}\n"
        )


def nfc_sentence(sentence: UdSentence) -> UdSentence:
    """NFC-normalize every form and lemma; tokens already in NFC are kept as they are."""
    tokens = [
        t if is_normalized("NFC", t.form) and is_normalized("NFC", t.lemma)
        else UdToken(t.id, normalize("NFC", t.form), normalize("NFC", t.lemma), t.upos,
                     t.xpos, t.feats, t.head, t.deprel, t.deps, t.misc)
        for t in sentence.tokens
    ]
    return UdSentence(tokens=tokens, comments=list(sentence.comments),
                      ignored_lines=list(sentence.ignored_lines))


def build_synthetic_dataset(
    text: str,
    vocab: frozenset[str],
    policy: FilterPolicy,
    rng_seed: int,
    jobs: int = 1,
) -> tuple[list[ShallowSentence], SynthStats]:
    """Filter a parsed corpus and shallow-transform the survivors.

    Output order follows input order; kept sentence number i (0-based)
    is transformed with seed rng_seed + i.  Blocks are sifted one at a
    time in this process, and each kept sentence is transformed as soon
    as it is sifted.  ``jobs`` is accepted and has no effect; it stays
    until the benchmark stops passing it.
    """
    dataset: list[ShallowSentence] = []
    reasons: Counter = Counter()
    input_count = 0
    # forms and lemmas found writable so far: a block whose words all are in it
    # skips unwritable_word's join/split, so each distinct word is checked about once
    writable: set[str] = set()
    for block in iter_blocks(text):
        input_count += 1
        try:
            sentence = nfc_sentence(parse_block(block))
        except ConlluError:
            reasons[REASON_MALFORMED] += 1
            continue
        forms = sentence.forms()
        lemmas = list(map(_lemma, sentence.tokens))
        if not (writable.issuperset(forms) and writable.issuperset(lemmas)):
            if unwritable_word(forms) is not None or unwritable_word(lemmas) is not None:
                reasons[REASON_MALFORMED] += 1
                continue
            writable.update(forms, lemmas)
        reason = filter_sentence(forms, vocab, policy)
        if reason is None:
            dataset.append(shallow_transform(sentence, rng_seed + len(dataset)))
        else:
            reasons[reason] += 1
    stats = SynthStats(input_count=input_count, kept_count=len(dataset),
                       rejected_by_length=reasons[REASON_LENGTH],
                       rejected_by_overlap=reasons[REASON_OVERLAP],
                       rejected_malformed=reasons[REASON_MALFORMED])
    assert stats.reconciles()
    return dataset, stats
