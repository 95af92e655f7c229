"""The CoNLL-U block parser against its earlier regex-based form.

``reference_parse_block`` and ``reference_validate_sentence`` are the
regex-based parser and tree check as they were before ``parse_block``
switched to ``str.isdecimal`` tests and positional token construction.
On generated rows, ``parse_block`` must return an equal sentence, or
raise :class:`ConlluError` with the same message exactly when the
reference does.  Ids and
heads are drawn from valid values and from strings near them: leading
zeros, ranges, decimals, non-ASCII digits, signs, empty and padded
strings, letters.

Both copies stay: only their tests kill a ``parse_block`` that accepts a row
of more than 10 columns, and a ``validate_sentence`` that takes a head of
n + 1 for one in range.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from surfreal.conllu_io import ConlluError, UdSentence, UdToken, parse_block
from treegen import heads

_RANGE_ID = re.compile(r"^\d+-\d+$")
_DECIMAL_ID = re.compile(r"^\d+\.\d+$")
_INT_ID = re.compile(r"^\d+$")


def reference_parse_block(lines: list[str]) -> UdSentence:
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
        if _RANGE_ID.match(tok_id) or _DECIMAL_ID.match(tok_id):
            ignored.append((len(tokens), line))
            continue
        if not _INT_ID.match(tok_id):
            raise ConlluError(f"non-integer token id {tok_id!r}")
        if not _INT_ID.match(cols[6]):
            raise ConlluError(f"non-integer head {cols[6]!r} for token {tok_id}")
        tokens.append(
            UdToken(
                id=int(tok_id),
                form=cols[1],
                lemma=cols[2],
                upos=cols[3],
                xpos=cols[4],
                feats=cols[5],
                head=int(cols[6]),
                deprel=cols[7],
                deps=cols[8],
                misc=cols[9],
            )
        )
    sentence = UdSentence(tokens=tokens, comments=comments, ignored_lines=ignored)
    reference_validate_sentence(sentence)
    return sentence


def reference_validate_sentence(sentence: UdSentence) -> None:
    tokens = sentence.tokens
    n = len(tokens)
    if n == 0:
        raise ConlluError("sentence has no token rows")
    for i, t in enumerate(tokens, start=1):
        if t.id != i:
            raise ConlluError(f"token ids must be 1..{n} in order, found {t.id} at row {i}")
        if t.head == t.id:
            raise ConlluError(f"token {t.id} has itself as head")
        if t.head > n:
            raise ConlluError(f"token {t.id} has dangling head {t.head}")
    roots = [t.id for t in tokens if t.head == 0]
    if len(roots) != 1:
        raise ConlluError(f"expected exactly one root, found {len(roots)}")
    children: dict[int, list[int]] = {}
    for t in tokens:
        children.setdefault(t.head, []).append(t.id)
    seen = set()
    stack = [roots[0]]
    while stack:
        node = stack.pop()
        seen.add(node)
        stack.extend(children.get(node, ()))
    if len(seen) != n:
        raise ConlluError("tree contains a cycle (not all tokens reachable from root)")


ODD_IDS = ["3", "03", "2-3", "5.1", "٣", "+3", "-1", "", "3 ", "x"]
_words = st.sampled_from(["a", "b", "_", "café", "New York", "#", "3"])


def outcome(parse, lines):
    """The parsed sentence, or the ConlluError's message."""
    try:
        return parse(lines)
    except ConlluError as err:
        return ConlluError, str(err)


def row(tok_id: str, head: str, form: str = "w", n_cols: int = 10) -> str:
    cols = [tok_id, form, form, "X", "_", "_", head, "dep", "_", "_"]
    return "\t".join((cols + ["_"] * n_cols)[:n_cols])


@st.composite
def blocks(draw) -> list[str]:
    """A sentence block: a valid tree with up to two faults (an odd id, an
    odd or arbitrary head, a wrong column count), plus inserted rows with
    odd ids and comments."""
    n = draw(st.integers(1, 6))
    head_of = draw(heads(n))
    odd = st.sampled_from(ODD_IDS)
    near = st.integers(0, n + 1).map(str)
    ids = [str(i) for i in range(1, n + 1)]
    head = [str(head_of[i]) for i in range(1, n + 1)]
    n_cols = [10] * n
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, n - 1))
        fault = draw(st.sampled_from(["id", "head", "near", "cols"]))
        if fault == "id":
            ids[i] = draw(odd)
        elif fault == "cols":
            n_cols[i] = draw(st.sampled_from([9, 11]))
        else:
            head[i] = draw(odd if fault == "head" else near)
    lines = [row(ids[i], head[i], draw(_words), n_cols[i]) for i in range(n)]
    for extra in draw(st.lists(st.one_of(st.just("# note"), st.builds(row, odd, near)),
                               max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return draw(st.lists(st.just("# sent_id = s"), max_size=2)) + lines


@settings(max_examples=400, deadline=None)
@given(blocks())
def test_parse_block_matches_reference(lines):
    assert outcome(parse_block, lines) == outcome(reference_parse_block, lines)


def test_every_odd_id_and_head_matches_reference():
    accepted = rejected = 0
    for odd in ODD_IDS:
        for lines in (
            [row(odd, "0")],                                   # odd id
            [row("1", "3"), row("2", "3"), row(odd, "0")],     # odd id, a valid 3
            [row("1", odd), row("2", "3"), row("3", "0")],     # odd head, a valid 3
            [row("1", "0"), row(odd, "1"), row("2", "1")],     # odd extra row
            ["# c", row("1", "2"), "# mid", row("2", "0"), row(odd, "2"), "# end"],
        ):
            got = outcome(parse_block, lines)
            assert got == outcome(reference_parse_block, lines), (odd, lines)
            accepted += isinstance(got, UdSentence)
            rejected += not isinstance(got, UdSentence)
    assert accepted and rejected
