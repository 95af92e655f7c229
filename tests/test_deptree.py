import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfreal.conllu_io import ConlluError, UdSentence, misc_get, parse_conllu, serialize_conllu
from surfreal.deptree import (
    DepTree,
    build_tree,
    shallow_from_conllu,
    shallow_to_conllu,
    shallow_transform,
    strip_alignment,
    strip_alignment_text,
    unwritable_word,
)
from toylang import ToyLang, tok
from treegen import sentences


def chain_sentence():
    # head(1)=2, head(2)=3, head(3)=0
    return UdSentence(tokens=[
        tok(1, "a", "a", "X", "_", 2, "dep"),
        tok(2, "b", "b", "X", "_", 3, "dep"),
        tok(3, "c", "c", "X", "_", 0, "root"),
    ])


def test_build_tree_single_node():
    tree = build_tree(UdSentence(tokens=[tok(1, "Go", "go", "VERB", "_", 0, "root")]))
    assert tree.root == 1
    assert tree.size() == 1
    assert tree.kids(1) == []


def test_build_tree_chain():
    tree = build_tree(chain_sentence())
    assert tree.root == 3
    assert tree.kids(3) == [2]
    assert tree.kids(2) == [1]
    assert tree.nodes[1].lemma == "a"


def test_build_tree_children_sorted():
    s = UdSentence(tokens=[
        tok(1, "x", "x", "X", "_", 2, "dep"),
        tok(2, "r", "r", "X", "_", 0, "root"),
        tok(3, "y", "y", "X", "_", 2, "dep"),
        tok(4, "z", "z", "X", "_", 2, "dep"),
    ])
    assert build_tree(s).kids(2) == [1, 3, 4]


def edge_set(tree):
    return {(parent, kid) for parent in tree.nodes for kid in tree.kids(parent)}


@pytest.mark.parametrize("heads, roots", [((2, 1), 0), ((0, 0), 2), ((0, 1, 0), 2)])
@pytest.mark.parametrize("build", [build_tree, lambda s: shallow_transform(s, seed=3)],
                         ids=["build_tree", "shallow_transform"])
def test_a_sentence_without_exactly_one_root_is_rejected(heads, roots, build):
    # a 2-token cycle has no root; two roots would each hold a subtree
    s = UdSentence(tokens=[tok(i, f"w{i}", f"w{i}", "X", "_", h, "dep")
                           for i, h in enumerate(heads, 1)])
    with pytest.raises(ConlluError, match=f"exactly one root, found {roots}"):
        build(s)


def test_shallow_transform_is_isomorphic_under_inverse_permutation(toy):
    for i, sentence in enumerate(toy.corpus(40, kind="mixed")):
        shallow = shallow_transform(sentence, seed=100 + i)
        n = len(sentence.tokens)
        assert shallow.reference_forms == tuple(t.form for t in sentence.tokens)
        assert sorted(shallow.alignment.values()) == list(range(n))
        # alignment maps the new id back to the original 0-based position;
        # pulling edges back through it must recover the original edge set
        inverse = {new_id: pos + 1 for new_id, pos in shallow.alignment.items()}
        original = build_tree(sentence)
        pulled_back = {(inverse[p], inverse[k]) for p, k in edge_set(shallow.tree)}
        assert pulled_back == edge_set(original)
        assert inverse[shallow.tree.root] == original.root
        for new_id, pos in shallow.alignment.items():
            old = sentence.tokens[pos]
            info = shallow.tree.nodes[new_id]
            assert (info.lemma, info.upos, info.feats, info.deprel) == (
                old.lemma, old.upos, old.feats, old.deprel)


def test_shallow_transform_single_node_is_identity():
    s = UdSentence(tokens=[tok(1, "Go", "go", "VERB", "_", 0, "root")])
    shallow = shallow_transform(s, seed=5)
    assert shallow.tree.root == 1
    assert shallow.alignment == {1: 0}
    assert shallow.reference_forms == ("Go",)


def test_shallow_transform_deterministic(toy):
    s = toy.sentence("medium")
    a = shallow_transform(s, seed=42)
    b = shallow_transform(s, seed=42)
    assert a.tree == b.tree
    assert a.alignment == b.alignment
    # spawn and forkserver realize workers get their sentences pickled
    clone = pickle.loads(pickle.dumps(a))
    assert clone == a and type(clone.tree) is DepTree


def test_shallow_transform_matches_stdlib_shuffle_oracle(toy):
    # independent derivation of the permutation from the same seed
    s = toy.sentence("medium")
    n = len(s.tokens)
    perm = list(range(1, n + 1))
    random.Random(99).shuffle(perm)
    shallow = shallow_transform(s, seed=99)
    assert shallow.alignment == {perm[i]: i for i in range(n)}


def test_permutations_vary_across_seeds():
    base = UdSentence(tokens=[
        tok(i, f"w{i}", f"w{i}", "X", "_", 0 if i == 1 else 1, "root" if i == 1 else "dep")
        for i in range(1, 11)
    ])
    seen = {tuple(sorted(shallow_transform(base, seed=s).alignment.items()))
            for s in range(100)}
    assert len(seen) >= 90


def test_strip_alignment_removes_order_information(toy):
    shallow = shallow_transform(toy.sentence("medium"), seed=3)
    stripped = strip_alignment(shallow)
    assert stripped.alignment is None
    assert stripped.reference_forms is None
    assert stripped.tree == shallow.tree
    # idempotent
    again = strip_alignment(stripped)
    assert again.alignment is None
    text = serialize_conllu([shallow_to_conllu(stripped)])
    assert "original_id" not in text


def test_shallow_conllu_round_trip(toy):
    shallow = shallow_transform(toy.sentence("medium"), seed=8)
    encoded = shallow_to_conllu(shallow)
    assert all(t.form == "_" for t in encoded.tokens)
    assert all(misc_get(t.misc, "original_id") is not None for t in encoded.tokens)
    decoded = shallow_from_conllu(encoded, reference_forms=shallow.reference_forms)
    assert decoded.tree == shallow.tree
    assert decoded.alignment == shallow.alignment
    assert decoded.reference_forms == shallow.reference_forms


def test_shallow_conllu_serialization_parses_back(toy):
    dataset = [shallow_transform(s, seed=i) for i, s in enumerate(toy.corpus(10, kind="mixed"))]
    text = serialize_conllu(shallow_to_conllu(s) for s in dataset)
    parsed = parse_conllu(text)
    for original, row in zip(dataset, parsed):
        assert shallow_from_conllu(row).alignment == original.alignment


@settings(max_examples=200, deadline=None)
@given(sentences(max_tokens=12), st.integers(0, 2**32))
def test_shallow_encoding_is_inverted_by_decoding(sentence, seed):
    shallow = shallow_transform(sentence, seed)
    encoded = shallow_to_conllu(shallow)
    [reparsed] = parse_conllu(serialize_conllu([encoded]))
    for decoded in (shallow_from_conllu(encoded), shallow_from_conllu(reparsed)):
        assert decoded.tree == shallow.tree
        assert decoded.alignment == shallow.alignment
    stripped = shallow_to_conllu(strip_alignment(shallow))
    assert shallow_from_conllu(stripped).tree == shallow.tree
    assert shallow_from_conllu(stripped).alignment is None
    text = serialize_conllu([encoded])
    assert strip_alignment_text(text) == serialize_conllu([stripped])


def two_token_sentence(miscs):
    """Token 1 heading token 2, whose MISC columns are ``miscs``, as parsed."""
    rows = "".join(f"{i}\t_\t{lemma}\tX\t_\t_\t{i - 1}\tdep\t_\t{misc}\n"
                   for i, (lemma, misc) in enumerate(zip("ab", miscs), 1))
    [sentence] = parse_conllu(rows + "\n")
    return sentence


@pytest.mark.parametrize("miscs, message", [
    (("original_id=1", "original_id=1"), "original_id values are not a permutation of 1..n"),
    (("original_id=1", "original_id=3"), "original_id values are not a permutation of 1..n"),
    (("original_id=0", "original_id=1"), "original_id values are not a permutation of 1..n"),
    (("original_id=1", "original_id=x"), "non-integer original_id 'x' for token 2"),
    (("original_id=1", "original_id="), "non-integer original_id '' for token 2"),
])
def test_shallow_from_conllu_rejects_corrupt_alignment(miscs, message):
    with pytest.raises(ConlluError) as err:
        shallow_from_conllu(two_token_sentence(miscs))
    assert str(err.value) == message


@pytest.mark.parametrize("miscs", [("_", "original_id=1"), ("original_id=1", "X=1")])
def test_alignment_is_none_unless_every_token_has_one(miscs):
    assert shallow_from_conllu(two_token_sentence(miscs)).alignment is None


def test_a_token_that_heads_itself_is_not_a_root():
    """Only head 0 makes a root; a self-loop is validate_sentence's fault to report."""
    s = UdSentence(tokens=[tok(1, "a", "a", "X", "_", 0, "root"),
                           tok(2, "b", "b", "X", "_", 2, "dep")])
    assert build_tree(s).root == 1
    shallow = shallow_transform(s, seed=3)
    assert shallow.alignment[shallow.tree.root] == 0


def test_reshuffling_destroys_order_exactly_once(toy):
    # shuffling an already shuffled tree yields a tree isomorphic to any
    # other shuffle of the same sentence: the shape is seed-independent
    s = toy.sentence("medium")
    first = shallow_transform(s, seed=1)
    direct = shallow_transform(s, seed=2)

    def shape(tree, node_id):
        return sorted(shape(tree, kid) for kid in tree.kids(node_id)) or []

    assert shape(first.tree, first.tree.root) == shape(direct.tree, direct.tree.root)


# words over a few letters and Unicode whitespace (\x1c is a file separator,
# \x85 next line, U+2028 a line separator and U+3000 an ideographic space),
# and over any other character
WORDS = st.lists(st.text(st.sampled_from("ab \t\x1c\x85\u2028\u3000") | st.characters(),
                         max_size=4), max_size=6)


@settings(max_examples=500, deadline=None)
@given(WORDS)
def test_unwritable_word_is_the_first_empty_or_whitespace_word(words):
    """One definition of a word a space-separated token line can carry, for
    forms, lemmas and training tokens alike."""
    expected = next((i for i, word in enumerate(words)
                     if word == "" or any(ch.isspace() for ch in word)), None)
    assert unwritable_word(words) == expected
