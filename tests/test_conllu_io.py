import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfreal.conllu_io import (
    ConlluError,
    UdSentence,
    UdToken,
    misc_get,
    iter_blocks,
    parse_conllu,
    parse_pairs,
    serialize_conllu,
)
from surfreal.deptree import NodeInfo
from toylang import ToyLang, tok
from treegen import FIELDS, sentences


def test_parse_basic_block(fixture_text):
    sentences = parse_conllu(fixture_text)
    assert len(sentences) == 4
    first = sentences[0]
    assert first.forms() == ["The", "cats", "see", "a", "dog", "."]
    assert first.tokens[1].lemma == "cat"
    assert first.tokens[2].head == 0
    assert first.comments == ["# sent_id = fx-001", "# text = The cats see a dog."]


def test_range_and_empty_node_lines_are_kept_aside(fixture_text):
    sentences = parse_conllu(fixture_text)
    contraction = sentences[1]
    # the 2-3 range line is not a token but is anchored before token index 1
    assert [t.form for t in contraction.tokens] == ["I", "do", "n't", "know", "."]
    assert contraction.ignored_lines[0][0] == 1
    assert contraction.ignored_lines[0][1].startswith("2-3\tdon't")
    gapping = sentences[2]
    assert any(line.startswith("5.1\t") for _, line in gapping.ignored_lines)
    assert len(gapping.tokens) == 7


def test_round_trip_is_byte_identical(fixture_text):
    assert serialize_conllu(parse_conllu(fixture_text)) == fixture_text


def test_round_trip_on_generated_corpus():
    corpus = ToyLang(seed=11).corpus(50, kind="mixed")
    text = serialize_conllu(corpus)
    assert serialize_conllu(parse_conllu(text)) == text


_COMMENTS = FIELDS.map(lambda text: "# " + text)


@st.composite
def canonical_blocks(draw) -> str:
    """A sentence block in canonical shape: leading comments, then token rows
    with range lines before some tokens, and empty-node lines and comments
    after some."""
    tokens = draw(sentences()).tokens
    lines = draw(st.lists(_COMMENTS, max_size=2))
    for t in tokens:
        if t.id < len(tokens) and draw(st.integers(0, 3)) == 0:
            lines.append(f"{t.id}-{t.id + 1}\t{draw(FIELDS)}\t_\t_\t_\t_\t_\t_\t_\t_")
        lines.append(t.to_line())
        if draw(st.integers(0, 3)) == 0:
            lines.append(f"{t.id}.1\t{draw(FIELDS)}\t{draw(FIELDS)}\tX\t_\t_\t_\t_\t"
                         f"{t.id}:dep\t_")
        lines.extend(draw(st.lists(_COMMENTS, max_size=1)))
    return "\n".join(lines) + "\n\n"


@settings(max_examples=200, deadline=None)
@given(st.lists(canonical_blocks(), max_size=4))
def test_round_trip_on_generated_blocks(blocks):
    text = "".join(blocks)
    parsed = parse_conllu(text)
    assert len(parsed) == len(blocks)
    assert serialize_conllu(parsed) == text


def test_serialize_empty_list():
    assert serialize_conllu([]) == ""


def test_single_token_sentence_block():
    s = UdSentence(tokens=[tok(1, "Go", "go", "VERB", "_", 0, "root")])
    line = "1\tGo\tgo\tVERB\t_\t_\t0\troot\t_\t_"
    assert serialize_conllu([s]) == line + "\n\n"
    # a whitespace-only line ends a block, and the last block needs no blank line after it
    assert parse_conllu(line) == parse_conllu(line + "\n") == [s]
    assert parse_conllu(line + "\n \t\n" + line) == [s, s]


def row(tok_id: str, head: str, n_cols: int = 10) -> str:
    cols = [tok_id, "A", "a", "X", "_", "_", head, "dep", "_", "_"]
    return "\t".join((cols + ["_"] * n_cols)[:n_cols])


@pytest.mark.parametrize(
    "bad_rows,message",
    [
        ([row("1", "1")], "token 1 has itself as head"),
        ([row("1", "2"), row("2", "1")], "expected exactly one root, found 0"),
        ([row("1", "0"), row("2", "0")], "expected exactly one root, found 2"),
        ([row("1", "0"), row("2", "3"), row("3", "2")],
         "tree contains a cycle (not all tokens reachable from root)"),
        ([row("1", "9")], "token 1 has dangling head 9"),
        ([row("1", "0"), row("2", "3")], "token 2 has dangling head 3"),  # n + 1
        ([row("2", "1")], "token ids must be 1..1 in order, found 2 at row 1"),
        ([row("1", "0", n_cols=9)], f"expected 10 columns, got 9: {row('1', '0', 9)!r}"),
        ([row("1", "0", n_cols=11)], f"expected 10 columns, got 11: {row('1', '0', 11)!r}"),
        ([row("x", "0")], "non-integer token id 'x'"),
        ([row("1", "z")], "non-integer head 'z' for token 1"),
        (["# sent_id = 1"], "sentence has no token rows"),
    ],
)
def test_strict_mode_rejects_malformed_blocks(bad_rows, message):
    with pytest.raises(ConlluError) as err:
        parse_conllu("\n".join(bad_rows) + "\n\n")
    assert str(err.value) == message


# each spelling in the id column of a third row, and in the head column of the first:
# the (id, head) rows it parses to, "aside" where the row is kept as a range or an
# empty-node line, or the error's message (Unicode digits are digits, as in int())
TOKEN_IDS, TOKEN_HEADS = [(1, 0), (2, 1), (3, 1)], [(1, 3), (2, 1), (3, 0)]
ODD_IDS = [
    ("3", TOKEN_IDS, TOKEN_HEADS),
    ("03", TOKEN_IDS, TOKEN_HEADS),
    ("\u0663", TOKEN_IDS, TOKEN_HEADS),  # ARABIC-INDIC DIGIT THREE
    ("2-3", "aside", "non-integer head '2-3' for token 1"),
    ("5.1", "aside", "non-integer head '5.1' for token 1"),
    ("+3", "non-integer token id '+3'", "non-integer head '+3' for token 1"),
    ("-1", "non-integer token id '-1'", "non-integer head '-1' for token 1"),
    ("", "non-integer token id ''", "non-integer head '' for token 1"),
    ("3 ", "non-integer token id '3 '", "non-integer head '3 ' for token 1"),
    ("x", "non-integer token id 'x'", "non-integer head 'x' for token 1"),
]


@pytest.mark.parametrize("spelling,as_id,as_head", ODD_IDS)
def test_every_odd_id_and_head_has_its_outcome(spelling, as_id, as_head):
    def outcome(rows):
        try:
            [sentence] = parse_conllu("\n".join(rows) + "\n")
        except ConlluError as err:
            return str(err)
        if sentence.ignored_lines == [(2, rows[2])]:
            return "aside"
        return [(t.id, t.head) for t in sentence.tokens]

    assert outcome([row("1", "0"), row("2", "1"), row(spelling, "1")]) == as_id
    assert outcome([row("1", spelling), row("2", "1"), row("3", "0")]) == as_head


def test_lenient_mode_counts_skips(fixture_text):
    broken = fixture_text + "1\tA\ta\tX\t_\t_\t1\tdep\t_\t_\n\n"
    sentences = parse_conllu(broken, strict=False)
    assert len(sentences) == 4
    assert len(list(iter_blocks(broken))) - len(sentences) == 1
    # a carriage return is a whole-file fault, though its block alone would be skipped
    with pytest.raises(ConlluError) as err:
        parse_conllu("\r" + fixture_text, strict=False)
    assert str(err.value) == "carriage return found: CoNLL-U input must use LF line endings"


def test_feats_misc_round_trip_preserves_order():
    line = "1\tword\tword\tX\t_\tB=2|A=1\t0\troot\t_\tZk=9|SpaceAfter=No\n\n"
    [s] = parse_conllu(line)
    assert s.tokens[0].feats == "B=2|A=1"
    assert serialize_conllu([s]) == line
    assert parse_pairs(s.tokens[0].feats) == [("B", "2"), ("A", "1")]
    assert parse_pairs("_") == []


def test_misc_helpers():
    misc = "original_id=4|SpaceAfter=No"
    assert misc_get(misc, "original_id") == "4"
    assert misc_get(misc, "SpaceAfter") == "No"
    assert misc_get(misc, "nope") is None
    assert misc_get("_", "original_id") is None
    assert misc_get("", "") is None
    # keys match whole and case-sensitively, and the first part with the key wins
    assert misc_get(misc, "original") is None
    assert misc_get(misc, "spaceafter") is None
    assert misc_get("a=1|a=2", "a") == "1"
    # a value runs to the end of its part; a part without = has the value ""
    assert [misc_get("x=|y|z=1=2", key) for key in ("x", "y", "z")] == ["", "", "1=2"]


@pytest.mark.parametrize("row", [
    UdToken(3, "dogs", "dog", "NOUN", "_", "Number=Plur", 2, "nsubj", "_", "_"),
    NodeInfo(lemma="dog", upos="NOUN", feats="Number=Plur", deprel="nsubj"),
])
def test_row_types_are_immutable_and_pickle(row):
    with pytest.raises(AttributeError):
        row.lemma = "cat"
    changed = row._replace(lemma="cat")
    assert changed.lemma == "cat" and row.lemma == "dog"
    assert changed._replace(lemma="dog") == row
    assert row == tuple(row)
    clone = pickle.loads(pickle.dumps(row))
    assert clone == row and type(clone) is type(row)
    assert hash(clone) == hash(row)


def test_sentence_pickle_and_deepcopy_keep_every_part(fixture_text):
    sentences = parse_conllu(fixture_text)
    assert any(s.comments for s in sentences) and any(s.ignored_lines for s in sentences)
    for sentence in sentences:
        for clone in (pickle.loads(pickle.dumps(sentence)), copy.deepcopy(sentence)):
            assert clone == sentence
            assert all(type(t) is UdToken for t in clone.tokens)
            assert clone.tokens[0].form == sentence.tokens[0].form
            assert serialize_conllu([clone]) == serialize_conllu([sentence])
    deep = copy.deepcopy(sentences[0])
    deep.comments.append("# changed")
    assert sentences[0].comments[-1] != "# changed"
