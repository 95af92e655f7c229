import math
import random

import pytest

from surfreal.deptree import ShallowSentence, build_tree, shallow_transform, strip_alignment
from surfreal.ngram import train_ngram
from surfreal.realizer import (
    FormLexicon,
    NGramScorer,
    OracleScorer,
    beam_realize,
    build_form_lexicon,
    feats_key,
    lexicon_coverage,
)
from conftest import copula_ref
from toylang import ToyLang, tok
from surfreal.conllu_io import UdSentence


def test_feats_key_keeps_morphology_and_sorts():
    assert feats_key("Tense=Pres|Definite=Def|Number=Sing") == (
        ("Number", "Sing"), ("Tense", "Pres"))
    assert feats_key("_") == ()
    assert feats_key("PronType=Art") == ()


def test_lexicon_counts_both_clitic_spellings():
    gold = [copula_ref("am")] * 3 + [copula_ref("'m")]
    lexicon = build_form_lexicon(gold)
    be = gold[0].tokens[1]
    assert lexicon.candidates(be.lemma, be.upos, be.feats) == (("am", 3), ("'m", 1))
    assert lexicon.relevant_forms("be", "AUX")


def test_lexicon_fallback_chain():
    gold = [UdSentence(tokens=[
        tok(1, "ran", "run", "VERB", "Tense=Past", 0, "root"),
        tok(2, "runs", "run", "VERB", "Number=Sing|Person=3|Tense=Pres", 1, "dep"),
        tok(3, "running", "Run", "NOUN", "Number=Sing", 1, "dep"),  # keyed as run
        tok(4, "ran", "run ", "VERB", "Tense=Past", 1, "dep"),  # not as run
        tok(5, "Straßen", "Straße", "NOUN", "Number=Plur", 1, "dep"),  # not as strasse
    ])]
    lexicon = build_form_lexicon(gold)
    # exact key
    assert lexicon.candidates("run", "VERB", "Tense=Past") == (("ran", 1),)
    # unseen feats fall back to (lemma, upos)
    assert lexicon.candidates("run", "VERB", "VerbForm=Inf") == (("ran", 1), ("runs", 1))
    # unseen upos falls back to the lemma pool
    assert lexicon.candidates("run", "ADJ", "_") == (("ran", 1), ("running", 1), ("runs", 1))
    # unknown lemma falls back to itself
    assert lexicon.candidates("zyzzyva", "NOUN", "_") == (("zyzzyva", 1),)
    # lemmas are lowercased in every key, and lookups lowercase theirs
    assert lexicon.candidates("Run", "VERB", "Tense=Past") == (("ran", 1),)
    assert lexicon.candidates("Straße", "NOUN", "Number=Plur") == (("Straßen", 1),)
    assert not lexicon.relevant_forms("zyzzyva", "NOUN")


def simple_shallow(toy=None, seed=0, kind="medium"):
    toy = toy or ToyLang(seed=500)
    return shallow_transform(toy.sentence(kind), seed=seed)


def test_oracle_scorer_marks_exactly_one_continuation_per_step(toy):
    gold = toy.sentence("medium")
    s = shallow_transform(gold, seed=3)
    lexicon = build_form_lexicon([gold])
    scorer = OracleScorer(s)
    # the first step's continuations, in ascending node id, then candidate order
    zero_scored = [
        (nid, form) for nid in sorted(s.tree.nodes)
        for form, _count in lexicon.candidates_for(s.tree.nodes[nid])
        if scorer.score_next((), form, nid) == 0.0
    ]
    first_node = next(nid for nid, pos in s.alignment.items() if pos == 0)
    assert zero_scored == [(first_node, s.reference_forms[0])]


def test_oracle_scorer_requires_alignment(toy):
    s = strip_alignment(simple_shallow(toy))
    with pytest.raises(ValueError, match="align"):
        OracleScorer(s)


def test_oracle_greedy_decode_reproduces_reference(toy):
    gold = toy.corpus(25, kind="mixed")
    lexicon = build_form_lexicon(gold)
    for i, sentence in enumerate(gold):
        s = shallow_transform(sentence, seed=i)
        result = beam_realize(s, OracleScorer(s), 1, lexicon)
        assert tuple(result.tokens) == s.reference_forms
        assert result.score == 0.0


def test_single_node_returns_best_count_form():
    gold = [UdSentence(tokens=[tok(1, "ran", "run", "VERB", "_", 0, "root")]),
            UdSentence(tokens=[tok(1, "ran", "run", "VERB", "_", 0, "root")]),
            UdSentence(tokens=[tok(1, "runs", "run", "VERB", "_", 0, "root")])]
    lexicon = build_form_lexicon(gold)
    model = train_ngram([["ran"], ["ran"], ["runs"]], order=2, lam=0.7)
    s = ShallowSentence(tree=build_tree(gold[0]))
    result = beam_realize(s, NGramScorer(model), 4, lexicon)
    assert result.tokens == ["ran"]
    assert result.node_order == [1]
    assert result.score == model.logprob("ran", [])


def test_realization_is_permutation_with_lexicon_forms(toy):
    gold = toy.corpus(40, kind="mixed")
    lexicon = build_form_lexicon(gold)
    model = train_ngram([[t.form for t in s.tokens] for s in gold], order=3, lam=0.7)
    scorer = NGramScorer(model)
    for i, sentence in enumerate(gold[:15]):
        s = strip_alignment(shallow_transform(sentence, seed=i))
        result = beam_realize(s, scorer, 5, lexicon)
        assert len(result.tokens) == s.tree.size()
        assert sorted(result.node_order) == s.tree.node_ids()
        for nid, form in zip(result.node_order, result.tokens):
            cands = [f for f, _ in lexicon.candidates_for(s.tree.nodes[nid])]
            assert form in cands


def nopruning_best(s, scorer, lexicon):
    """Width-unbounded level search with the same stable tie handling."""
    tree = s.tree
    level = [((), frozenset(tree.nodes), 0.0)]
    for _ in range(tree.size()):
        grown = []
        for emitted, remaining, score in level:
            history = tuple(f for _, f in emitted)
            for nid in sorted(remaining):
                for form, _ in lexicon.candidates_for(tree.nodes[nid]):
                    delta = scorer.score_next(history, form, nid)
                    grown.append((emitted + ((nid, form),), remaining - {nid}, score + delta))
        grown.sort(key=lambda t: -t[2])
        level = grown
    return level[0]


def all_completions(s, scorer, lexicon):
    """Depth-first enumeration of every complete hypothesis and score."""
    tree = s.tree
    out = []

    def rec(emitted, remaining, score):
        if not remaining:
            out.append((score, emitted))
            return
        history = tuple(f for _, f in emitted)
        for nid in sorted(remaining):
            for form, _ in lexicon.candidates_for(tree.nodes[nid]):
                delta = scorer.score_next(history, form, nid)
                rec(emitted + ((nid, form),), remaining - {nid}, score + delta)

    rec((), frozenset(tree.nodes), 0.0)
    return out


def test_wide_beam_equals_exhaustive_search_on_small_sentences():
    toy = ToyLang(seed=77)
    gold = toy.corpus(12, kind="short")
    lexicon = build_form_lexicon(gold)
    model = train_ngram([[t.form for t in s.tokens] for s in gold], order=3, lam=0.7)
    scorer = NGramScorer(model)
    for i, sentence in enumerate(gold[:6]):
        s = strip_alignment(shallow_transform(sentence, seed=i))
        n = s.tree.size()
        assert n <= 6
        # beam at the hypothesis-count bound can never prune anything
        total_forms = 1
        for info in s.tree.nodes.values():
            total_forms *= len(lexicon.candidates_for(info))
        bound = math.factorial(n) * total_forms
        result = beam_realize(s, scorer, bound, lexicon)
        completions = all_completions(s, scorer, lexicon)
        best_score = max(score for score, _ in completions)
        assert result.score == best_score
        argmax = {tuple(f for _, f in emitted) for score, emitted in completions
                  if score == best_score}
        assert tuple(result.tokens) in argmax
        ref_emitted, _, ref_score = nopruning_best(s, scorer, lexicon)
        assert result.score == ref_score
        assert [f for _, f in ref_emitted] == result.tokens
        assert [nid for nid, _ in ref_emitted] == result.node_order


def test_beam_monotonicity(toy):
    gold = toy.corpus(30, kind="medium")
    lexicon = build_form_lexicon(gold)
    model = train_ngram([[t.form for t in s.tokens] for s in gold], order=3, lam=0.7)
    scorer = NGramScorer(model)
    for i, sentence in enumerate(gold[:10]):
        s = strip_alignment(shallow_transform(sentence, seed=i))
        scores = [beam_realize(s, scorer, b, lexicon).score for b in (1, 5, 25)]
        assert scores[0] <= scores[1] <= scores[2]


def test_beam_decoding_is_deterministic(toy):
    gold = toy.corpus(20, kind="mixed")
    lexicon = build_form_lexicon(gold)
    model = train_ngram([[t.form for t in s.tokens] for s in gold], order=3, lam=0.7)
    s = strip_alignment(shallow_transform(gold[3], seed=11))
    first = beam_realize(s, NGramScorer(model), 10, lexicon)
    second = beam_realize(s, NGramScorer(model), 10, lexicon)
    assert first.tokens == second.tokens
    assert first.score == second.score
    assert first.node_order == second.node_order


def test_beam_rejects_bad_inputs(toy):
    s = simple_shallow(toy)
    lexicon = build_form_lexicon([copula_ref("am")])
    with pytest.raises(ValueError, match="beam_size"):
        beam_realize(s, OracleScorer(s), 0, lexicon)


def test_ngram_scorer_distributions_normalize(toy):
    gold = toy.corpus(30, kind="medium")
    refs = [[t.form for t in s.tokens] for s in gold]
    model = train_ngram(refs, order=3, lam=0.7)
    scorer = NGramScorer(model)
    node_id = 1
    rng = random.Random(4)
    vocab = sorted(model.vocab)
    for _ in range(10):
        history = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 4)))
        total = sum(math.exp(scorer.score_next(history, w, node_id)) for w in vocab)
        total += math.exp(scorer.score_next(history, "<unk>", node_id))
        assert abs(total - 1.0) < 1e-9
    assert scorer.score_next((), "never-seen-form", node_id) < 0.0


def test_coverage_diagnostic_flags_unreachable_references(toy):
    gold = toy.corpus(12, kind="medium")
    lexicon = build_form_lexicon(gold[:6])  # second half may contain unseen forms
    dataset = [shallow_transform(s, seed=i) for i, s in enumerate(gold)]
    report = lexicon_coverage(dataset, lexicon)
    assert report.total_sentences == 12
    assert report.total_nodes == sum(len(s.tokens) for s in gold)
    assert 0 <= report.covered_sentences <= 12
    full = lexicon_coverage(dataset, build_form_lexicon(gold))
    assert full.covered_nodes == full.total_nodes
    assert full.covered_sentences == 12
    # an uncovered sentence is exactly one the oracle decode cannot reproduce
    for s in dataset:
        result = beam_realize(s, OracleScorer(s), 1, lexicon)
        sentence_covered = all(
            s.reference_forms[pos] in
            [f for f, _ in lexicon.candidates_for(s.tree.nodes[nid])]
            for nid, pos in s.alignment.items())
        assert (tuple(result.tokens) == s.reference_forms) == sentence_covered
