"""Synthetic shallow-task data from parsed unlabeled corpora.

A parsed corpus is read leniently (malformed blocks, and blocks with a
form that a space-separated reference line cannot carry, are counted, not
fatal), Unicode-normalized to NFC, filtered by sentence length and by
surface-vocabulary overlap against the original dataset, and the
survivors are shallow-transformed with per-sentence derived seeds.
Statistics reconcile exactly: every input block is kept or rejected for
exactly one reason.

Sifting runs block by block in the calling process, with no worker
processes: on two CPUs, a process fan-out over slices of the input was
slower than this up to a few thousand blocks and only broke even at
about 18,000.  The ``jobs`` argument of :func:`build_synthetic_dataset`
is accepted and has no effect; it stays until the benchmark stops
passing it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable
from unicodedata import is_normalized, normalize

from .conllu_io import (
    ConlluError,
    UdSentence,
    UdToken,
    iter_blocks,
    parse_block,
)
from .deptree import ShallowSentence, shallow_transform, unwritable_form

REASON_LENGTH = "length"
REASON_OVERLAP = "overlap"
REASON_MALFORMED = "malformed"


@dataclass(frozen=True)
class FilterPolicy:
    min_len: int = 5
    max_len: int = 50
    overlap_threshold: float = 0.8

    def __post_init__(self):
        if not 0 < self.min_len <= self.max_len:
            raise ValueError(f"need 0 < min_len <= max_len, got {self.min_len}, {self.max_len}")
        if not 0.0 <= self.overlap_threshold <= 1.0:
            raise ValueError(f"overlap_threshold must be in [0, 1], got {self.overlap_threshold}")


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


@dataclass
class SynthStats:
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


def _sift_block(block: list[str], vocab: frozenset[str], policy: FilterPolicy) -> UdSentence | str:
    """Parse, normalize and filter one block: the sentence, or why it was rejected."""
    try:
        sentence = parse_block(block)
    except ConlluError:
        return REASON_MALFORMED
    sentence = nfc_sentence(sentence)
    if unwritable_form(sentence) is not None:
        return REASON_MALFORMED
    reason = filter_sentence(sentence.forms(), vocab, policy)
    return sentence if reason is None else reason


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
    as it is sifted.  ``jobs`` has no effect (see the module docstring).
    """
    dataset: list[ShallowSentence] = []
    reasons: Counter = Counter()
    input_count = 0
    for block in iter_blocks(text):
        input_count += 1
        sifted = _sift_block(block, vocab, policy)
        if isinstance(sifted, str):
            reasons[sifted] += 1
        else:
            dataset.append(shallow_transform(sifted, rng_seed + len(dataset)))
    stats = SynthStats(input_count=input_count, kept_count=len(dataset),
                       rejected_by_length=reasons[REASON_LENGTH],
                       rejected_by_overlap=reasons[REASON_OVERLAP],
                       rejected_malformed=reasons[REASON_MALFORMED])
    assert stats.reconciles()
    return dataset, stats
