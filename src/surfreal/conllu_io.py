"""Bit-exact reading and writing of CoNLL-U files.

CoNLL-U is the Universal Dependencies interchange format: one token per
line with 10 tab-separated columns, ``#`` comment lines, ``_`` for empty
fields, and a blank line terminating each sentence.  Multiword-token
range lines (id like ``2-3``) and empty-node lines (id like ``5.1``) are
not part of the syntactic tree; they are kept verbatim, anchored to
their position, so that serializing a parsed file reproduces it byte
for byte.

Only UTF-8 text with LF line endings is supported.  The parser builds
each row with ``tuple.__new__(UdToken, fields)``, a C-level call, and
only after it has checked the field count and the id and head types.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

EMPTY = "_"
_new_row = tuple.__new__

_RANGE_ID = re.compile(r"^\d+-\d+$")
_DECIMAL_ID = re.compile(r"^\d+\.\d+$")


class DataError(ValueError):
    """Bad or inconsistent input data, as opposed to a bad parameter value
    (a plain ValueError); the ``sr`` command exits with code 2 on it."""


class ConlluError(DataError):
    """Malformed CoNLL-U input (strict mode) or invalid sentence structure."""


class UdToken(NamedTuple):
    """One syntactic-word row. ``feats`` and ``misc`` are kept as raw
    column strings so they round-trip exactly; use :func:`parse_pairs`
    for a key=value view.  A ``NamedTuple``: immutable, changed copies
    come from ``_replace``, and it equals the plain tuple of its fields."""

    id: int
    form: str
    lemma: str
    upos: str
    xpos: str
    feats: str
    head: int
    deprel: str
    deps: str
    misc: str

    def to_line(self) -> str:
        return "\t".join(
            (
                str(self.id),
                self.form,
                self.lemma,
                self.upos,
                self.xpos,
                self.feats,
                str(self.head),
                self.deprel,
                self.deps,
                self.misc,
            )
        )


@dataclass
class UdSentence:
    """One sentence block.

    ``comments`` holds the leading ``#`` lines verbatim.  ``ignored_lines``
    holds range lines, empty-node lines, and any stray mid-block comment as
    ``(anchor, line)`` pairs in file order (so anchors never decrease), where
    the line is emitted immediately before the token at index ``anchor`` (or
    after all tokens if ``anchor`` equals the token count).
    """

    tokens: list[UdToken]
    comments: list[str] = field(default_factory=list)
    ignored_lines: list[tuple[int, str]] = field(default_factory=list)

    def forms(self) -> list[str]:
        return [t.form for t in self.tokens]


def parse_pairs(column: str) -> list[tuple[str, str]]:
    """Split a FEATS/MISC column into (key, value) pairs, in file order.

    ``_`` yields no pairs; a part without ``=`` becomes (part, "").
    """
    if column == EMPTY or column == "":
        return []
    pairs = []
    for part in column.split("|"):
        key, sep, value = part.partition("=")
        pairs.append((key, value if sep else ""))
    return pairs


def misc_get(misc: str, key: str) -> str | None:
    """The value of ``key`` in a MISC column ("" for a part without ``=``), or None:
    the first part with the key wins."""
    if misc and misc != EMPTY:
        for part in misc.split("|"):
            k, _, value = part.partition("=")
            if k == key:
                return value
    return None


def iter_blocks(text: str) -> Iterator[list[str]]:
    """Group CoNLL-U text into sentence blocks of lines.

    A blank line (empty or whitespace only) ends a block; the last block is
    yielded even with no blank line after it.
    Only LF line endings are supported, so a carriage return anywhere in
    ``text`` is a whole-file format fault, raised as :class:`ConlluError`
    before the first block, even where malformed blocks would be skipped.
    """
    if "\r" in text:
        raise ConlluError("carriage return found: CoNLL-U input must use LF line endings")
    block: list[str] = []
    for line in text.split("\n"):
        if not line or line.isspace():
            if block:
                yield block
                block = []
        else:
            block.append(line)
    if block:
        yield block


def parse_block(lines: list[str]) -> UdSentence:
    """Parse one sentence block (lines without their newlines, as
    :func:`iter_blocks` yields them); raises ConlluError on any violation.

    Every line that is not a comment has exactly 10 tab-separated columns.
    """
    comments: list[str] = []
    ignored: list[tuple[int, str]] = []
    tokens: list[UdToken] = []
    for line in lines:
        if line.startswith("#"):
            if tokens:
                ignored.append((len(tokens), line))
            else:
                comments.append(line)
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ConlluError(f"expected 10 columns, got {len(cols)}: {line!r}")
        tok_id = cols[0]
        # isdecimal() accepts exactly the Unicode digit strings \d+ matches
        if not tok_id.isdecimal():
            if _RANGE_ID.match(tok_id) or _DECIMAL_ID.match(tok_id):
                ignored.append((len(tokens), line))
                continue
            raise ConlluError(f"non-integer token id {tok_id!r}")
        if not cols[6].isdecimal():
            raise ConlluError(f"non-integer head {cols[6]!r} for token {tok_id}")
        cols[0] = int(tok_id)
        cols[6] = int(cols[6])
        tokens.append(_new_row(UdToken, cols))
    sentence = UdSentence(tokens=tokens, comments=comments, ignored_lines=ignored)
    validate_sentence(sentence)
    return sentence


def validate_sentence(sentence: UdSentence) -> None:
    """Check the tree invariants: ids are 1..n in order, single root,
    heads in range, no self-loops, fully connected (acyclic)."""
    tokens = sentence.tokens
    n = len(tokens)
    if n == 0:
        raise ConlluError("sentence has no token rows")
    children: list[list[int]] = [[] for _ in range(n + 1)]
    for i, t in enumerate(tokens, start=1):
        if t[0] != i:
            raise ConlluError(f"token ids must be 1..{n} in order, found {t[0]} at row {i}")
        if t[6] == i:
            raise ConlluError(f"token {i} has itself as head")
        if not 0 <= t[6] <= n:
            raise ConlluError(f"token {i} has dangling head {t[6]}")
        children[t[6]].append(i)
    if len(children[0]) != 1:
        raise ConlluError(f"expected exactly one root, found {len(children[0])}")
    # every token has one head, so a walk down from the root meets each token
    # at most once, and meets all n exactly when there is no cycle
    stack = list(children[0])
    reached = 0
    while stack:
        reached += 1
        stack.extend(children[stack.pop()])
    if reached != n:
        raise ConlluError("tree contains a cycle (not all tokens reachable from root)")


def parse_conllu(text: str, strict: bool = True) -> list[UdSentence]:
    """Parse CoNLL-U text into sentences.

    In strict mode any malformed block raises :class:`ConlluError`; in
    lenient mode malformed blocks are silently skipped.
    """
    sentences = []
    for block in iter_blocks(text):
        try:
            sentences.append(parse_block(block))
        except ConlluError:
            if strict:
                raise
    return sentences


def sentence_lines(sentence: UdSentence) -> list[str]:
    lines = sentence.comments + [t.to_line() for t in sentence.tokens]
    start = len(sentence.comments)
    # last first: a line inserted at an anchor lands before the ones placed
    # there already, so lines that share an anchor keep their file order
    for anchor, line in reversed(sentence.ignored_lines):
        lines.insert(start + anchor, line)
    return lines


def serialize_conllu(sentences: Iterable[UdSentence]) -> str:
    """Serialize sentences; each block ends with one blank line.

    ``serialize_conllu(parse_conllu(text))`` is byte-identical for files
    already in this canonical shape (LF endings, single blank separators).
    """
    out: list[str] = []
    for sentence in sentences:
        out.extend(sentence_lines(sentence))
        out.append("")
    if not out:
        return ""
    return "\n".join(out) + "\n"
