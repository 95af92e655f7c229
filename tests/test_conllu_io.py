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
    assert serialize_conllu([s]) == "1\tGo\tgo\tVERB\t_\t_\t0\troot\t_\t_\n\n"


@pytest.mark.parametrize(
    "bad_rows,message",
    [
        (["1\tA\ta\tX\t_\t_\t1\tdep\t_\t_"], "itself"),
        (["1\tA\ta\tX\t_\t_\t2\tdep\t_\t_", "2\tB\tb\tX\t_\t_\t1\tdep\t_\t_"], "root"),
        (["1\tA\ta\tX\t_\t_\t0\troot\t_\t_", "2\tB\tb\tX\t_\t_\t0\troot\t_\t_"], "root"),
        (["1\tA\ta\tX\t_\t_\t9\tdep\t_\t_"], "dangling"),
        (["2\tA\ta\tX\t_\t_\t0\troot\t_\t_"], "ids"),
        (["1\tA\ta\tX\t_\t_\t0\troot\t_"], "columns"),
        (["x\tA\ta\tX\t_\t_\t0\troot\t_\t_"], "id"),
        (["1\tA\ta\tX\t_\t_\tz\tdep\t_\t_"], "head"),
    ],
)
def test_strict_mode_rejects_malformed_blocks(bad_rows, message):
    with pytest.raises(ConlluError, match=message):
        parse_conllu("\n".join(bad_rows) + "\n\n")


def test_cycle_detection():
    rows = [
        "1\tA\ta\tX\t_\t_\t0\troot\t_\t_",
        "2\tB\tb\tX\t_\t_\t3\tdep\t_\t_",
        "3\tC\tc\tX\t_\t_\t2\tdep\t_\t_",
    ]
    with pytest.raises(ConlluError, match="cycle"):
        parse_conllu("\n".join(rows) + "\n\n")


def test_lenient_mode_counts_skips(fixture_text):
    broken = fixture_text + "1\tA\ta\tX\t_\t_\t1\tdep\t_\t_\n\n"
    sentences = parse_conllu(broken, strict=False)
    assert len(sentences) == 4
    assert len(list(iter_blocks(broken))) - len(sentences) == 1


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
