from collections import Counter

import pytest

from surfreal.conllu_io import UdSentence
from surfreal.deptree import ShallowSentence, build_tree, shallow_transform
from surfreal.linearizer import (
    CLOSE,
    FORMS_SEP,
    OPEN,
    append_form_list,
    emit_training_pairs,
    linearize,
    write_pair_files,
)
from surfreal.realizer import build_form_lexicon
from conftest import copula_ref
from toylang import ToyLang, tok


def as_shallow(rows) -> ShallowSentence:
    sentence = UdSentence(tokens=rows)
    return ShallowSentence(tree=build_tree(sentence),
                           reference_forms=tuple(t.form for t in sentence.tokens),
                           alignment={t.id: t.id - 1 for t in sentence.tokens})


def single_node():
    return as_shallow([tok(1, "run", "run", "VERB", "_", 0, "root")])


def chain3():
    return as_shallow([
        tok(1, "a", "a", "X", "_", 0, "root"),
        tok(2, "b", "b", "X", "_", 1, "dep"),
        tok(3, "c", "c", "X", "_", 2, "dep"),
    ])


def fork():
    return as_shallow([
        tok(1, "r", "r", "X", "_", 0, "root"),
        tok(2, "x", "x", "X", "_", 1, "dep"),
        tok(3, "y", "y", "X", "_", 1, "dep"),
    ])


def test_single_node_with_and_without_brackets():
    assert linearize(single_node(), 0).tokens == ["run"]
    assert linearize(single_node(), 0, scoped=True).tokens == ["run"]


def test_chain_scoped_brackets():
    assert linearize(chain3(), 7, scoped=True).tokens == ["a", "(", "b", "(", "c", ")", ")"]
    assert linearize(chain3(), 7).tokens == ["a", "b", "c"]


def test_sibling_order_is_uniform_over_seeds():
    counts = Counter(tuple(linearize(fork(), seed).tokens) for seed in range(1000))
    assert set(counts) == {("r", "x", "y"), ("r", "y", "x")}
    assert 450 <= counts[("r", "x", "y")] <= 550


def test_deterministic_for_fixed_seed(toy):
    s = shallow_transform(toy.sentence("long"), seed=4)
    assert linearize(s, 123, scoped=True).tokens == linearize(s, 123, scoped=True).tokens
    assert linearize(s, 123).tokens != linearize(s, 124).tokens or s.tree.size() <= 2
    # one stream for the walk: r's three children are shuffled first, then a's two
    # (seed 1 gives r ( b c a ( d e ) ))
    two_levels = as_shallow([
        tok(1, "r", "r", "X", "_", 0, "root"),
        tok(2, "a", "a", "X", "_", 1, "dep"),
        tok(3, "b", "b", "X", "_", 1, "dep"),
        tok(4, "c", "c", "X", "_", 1, "dep"),
        tok(5, "d", "d", "X", "_", 2, "dep"),
        tok(6, "e", "e", "X", "_", 2, "dep"),
    ])
    assert linearize(two_levels, 0, scoped=True).text() == "r ( a ( e d ) c b )"


def dfs_orders(tree):
    """All valid pre-order traversals as node-id sequences (for small trees)."""
    import itertools

    def expand(node):
        kid_lists = [expand(k) for k in tree.kids(node)]
        if not kid_lists:
            return [[node]]
        orders = []
        for perm in itertools.permutations(kid_lists):
            tails = [[]]
            for kid_seqs in perm:
                tails = [t + seq for t in tails for seq in kid_seqs]
            orders.extend([node] + t for t in tails)
        return orders

    return expand(tree.root)


def test_projection_property_on_random_trees(toy):
    for i, gold in enumerate(toy.corpus(30, kind="mixed")):
        s = shallow_transform(gold, seed=i)
        seq = linearize(s, 1000 + i, scoped=True)
        lemma_tokens = [seq.tokens[p] for p in sorted(seq.node_of)]
        markers = [t for t in seq.tokens if t in (OPEN, CLOSE)]
        assert len(lemma_tokens) + len(markers) == len(seq.tokens)
        assert Counter(lemma_tokens) == Counter(
            info.lemma for info in s.tree.nodes.values())
        # every node appears after its parent
        order = seq.node_order()
        position = {node: idx for idx, node in enumerate(order)}
        for parent in s.tree.nodes:
            for kid in s.tree.kids(parent):
                assert position[parent] < position[kid]


def test_bracket_balance_and_depth_bound(toy):
    def tree_depth(tree, node):
        kids = tree.kids(node)
        return 1 + max((tree_depth(tree, k) for k in kids), default=0)

    for i, gold in enumerate(toy.corpus(20, kind="mixed")):
        s = shallow_transform(gold, seed=50 + i)
        seq = linearize(s, i, scoped=True)
        depth = 0
        for t in seq.tokens:
            if t == OPEN:
                depth += 1
                assert depth <= tree_depth(s.tree, s.tree.root)
            elif t == CLOSE:
                depth -= 1
                assert depth >= 0
        assert depth == 0


def test_small_tree_traversals_are_exactly_the_valid_dfs_orders(toy):
    s = shallow_transform(toy.sentence("medium"), seed=9)
    valid = {tuple(order) for order in dfs_orders(s.tree)}
    seen = {tuple(linearize(s, seed).node_order()) for seed in range(300)}
    assert seen <= valid


def test_literal_parentheses_are_escaped():
    rows = [
        tok(1, "(", "(", "PUNCT", "_", 2, "punct"),
        tok(2, "ok", "ok", "ADJ", "_", 0, "root"),
        tok(3, ")", ")", "PUNCT", "_", 2, "punct"),
    ]
    s = as_shallow(rows)
    seq = linearize(s, 0, scoped=True)
    lemmas = [seq.tokens[p] for p in sorted(seq.node_of)]
    assert sorted(lemmas) == ["-lrb-", "-rrb-", "ok"]
    assert seq.tokens.count(OPEN) == 1 and seq.tokens.count(CLOSE) == 1
    # the lemma ( has two forms, so its form-list segment escapes both it and them
    lexicon = build_form_lexicon([UdSentence(tokens=rows), UdSentence(
        tokens=[tok(1, "[", "(", "PUNCT", "_", 0, "root")])])
    with_forms = append_form_list(seq, lexicon, s.tree).tokens
    assert with_forms[len(seq.tokens):] == [FORMS_SEP, "-lrb-", "=", "-lrb-", "|", "["]


# --- form lists ---------------------------------------------------------------


def lexicon_with_clitic(n_am=1, n_clitic=1):
    gold = [copula_ref("am") for _ in range(n_am)] + [copula_ref("'m") for _ in range(n_clitic)]
    return build_form_lexicon(gold)


def test_no_relevant_lemmas_leaves_sequence_unchanged():
    lexicon = build_form_lexicon([UdSentence(tokens=[tok(1, "run", "run", "VERB", "_", 0, "root")])])
    seq = linearize(single_node(), 0)
    appended = append_form_list(seq, lexicon, single_node().tree)
    assert appended.tokens == seq.tokens
    assert FORMS_SEP not in appended.tokens


def test_clitic_forms_tie_breaks_lexicographically():
    lexicon = lexicon_with_clitic(1, 1)
    s = ShallowSentence(tree=build_tree(copula_ref("am")))
    seq = append_form_list(linearize(s, 0), lexicon, s.tree)
    sep = seq.tokens.index(FORMS_SEP)
    assert seq.tokens[sep + 1:] == ["be", "=", "'m", "|", "am"]


def test_form_list_orders_by_descending_count():
    lexicon = lexicon_with_clitic(3, 1)
    s = ShallowSentence(tree=build_tree(copula_ref("am")))
    seq = append_form_list(linearize(s, 0), lexicon, s.tree)
    sep = seq.tokens.index(FORMS_SEP)
    assert seq.tokens[sep + 1:] == ["be", "=", "am", "|", "'m"]


def test_segments_follow_traversal_order_and_match_count_oracle(toy):
    # a segment is written with its node's lemma, and built per (lemma, upos)
    run = UdSentence(tokens=[
        tok(1, "Runs", "Run", "VERB", "_", 0, "root"),
        tok(2, "ran", "run", "VERB", "_", 1, "dep"),
        tok(3, "run", "run", "NOUN", "_", 1, "obj"),
        tok(4, "runs", "run", "NOUN", "_", 1, "obj"),
    ])
    gold = toy.corpus(80, kind="mixed") + [run]
    lexicon = build_form_lexicon(gold)
    # independent reconstruction of expected segments from raw counts
    raw = {}
    for sentence in gold:
        for t in sentence.tokens:
            raw.setdefault((t.lemma.lower(), t.upos), Counter())[t.form] += 1
    for i, sentence in enumerate(gold[:15] + [run]):
        s = shallow_transform(sentence, seed=i)
        seq = linearize(s, i)
        appended = append_form_list(seq, lexicon, s.tree)
        expected = []
        for node_id in seq.node_order():
            info = s.tree.nodes[node_id]
            counter = raw.get((info.lemma.lower(), info.upos))
            if counter is None or len(counter) < 2:
                continue
            ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
            segment = [info.lemma, "="]
            for j, (form, _) in enumerate(ranked):
                if j:
                    segment.append("|")
                segment.append(form)
            expected.extend(segment)
        if expected:
            sep = appended.tokens.index(FORMS_SEP)
            assert appended.tokens[sep + 1:] == expected
            assert appended.tokens[:sep] == seq.tokens
        else:
            assert appended.tokens == seq.tokens


# --- training pairs -------------------------------------------------------------


def test_single_sentence_single_pair():
    pairs = emit_training_pairs([single_node()], 1, scoped=False, lexicon=None, rng_seed=0)
    assert pairs == [("run", "run")]


def test_targets_never_vary():
    pairs = emit_training_pairs([fork()], 3, scoped=False, lexicon=None, rng_seed=5)
    assert len(pairs) == 3
    assert {tgt for _, tgt in pairs} == {"r x y"}


def test_epoch_blocks_interleave_sentences(toy):
    gold = toy.corpus(10, kind="medium")
    dataset = [shallow_transform(s, seed=i) for i, s in enumerate(gold)]
    pairs = emit_training_pairs(dataset, 60, scoped=True, lexicon=None, rng_seed=17)
    assert len(pairs) == 600
    targets = [" ".join(s.reference_forms) for s in dataset]
    for block in range(60):
        chunk = pairs[block * 10:(block + 1) * 10]
        assert [tgt for _, tgt in chunk] == targets
    # distinct derived seeds make repeated blocks differ somewhere
    sources = [src for src, _ in pairs]
    assert len(set(sources)) > 10


def test_pairs_require_reference_forms():
    bare = ShallowSentence(tree=fork().tree)
    with pytest.raises(ValueError, match="reference"):
        emit_training_pairs([bare], 1, scoped=False, lexicon=None, rng_seed=0)
    with pytest.raises(ValueError, match=">= 1"):
        emit_training_pairs([fork()], 0, scoped=False, lexicon=None, rng_seed=0)


def test_target_side_escapes_parentheses():
    s = as_shallow([
        tok(1, "(", "(", "PUNCT", "_", 2, "punct"),
        tok(2, "ok", "ok", "ADJ", "_", 0, "root"),
    ])
    [(src, tgt)] = emit_training_pairs([s], 1, scoped=False, lexicon=None, rng_seed=0)
    assert tgt == "-lrb- ok"


def test_form_lists_follow_the_lexicon():
    s = as_shallow(copula_ref("am").tokens)
    [(plain, tgt)] = emit_training_pairs([s], 1, scoped=False, lexicon=None, rng_seed=0)
    [(listed, same_tgt)] = emit_training_pairs([s], 1, scoped=False,
                                               lexicon=lexicon_with_clitic(), rng_seed=0)
    assert FORMS_SEP not in plain.split()
    assert listed == f"{plain} {FORMS_SEP} be = 'm | am"
    assert tgt == same_tgt == "I am happy ."


def test_write_pair_files(tmp_path):
    pairs = [("a b", "A B"), ("c", "C")]
    write_pair_files(pairs, tmp_path / "x.src", tmp_path / "x.tgt")
    assert (tmp_path / "x.src").read_text() == "a b\nc\n"
    assert (tmp_path / "x.tgt").read_text() == "A B\nC\n"
