"""The data builders against their earlier per-row forms.

``reference_train_ngram``, ``reference_build_form_lexicon``,
``reference_linearize``, ``reference_append_form_list`` and
``reference_shallow_from_conllu`` are the code as it was before the
builders counted flat n-gram tables, counted lexicon rows once, walked
trees with an explicit stack, memoized form-list segments and built tree
nodes positionally.  On generated inputs each
rewritten function must return an equal result, or raise the same error
with the same message.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfreal.conllu_io import ConlluError, DataError, UdSentence, UdToken, misc_get
from surfreal.deptree import (
    ALIGN_KEY,
    DepTree,
    NodeInfo,
    ShallowSentence,
    build_tree,
    shallow_from_conllu,
)
from surfreal.linearizer import (
    CLOSE,
    FORMS_SEP,
    OPEN,
    SEGMENT_EQ,
    SEGMENT_OR,
    LinearSeq,
    append_form_list,
    escape_token,
    linearize,
)
from surfreal.ngram import BOS, UNK, train_ngram
from surfreal.realizer import FormLexicon, _rank_forms, build_form_lexicon, feats_key
from treegen import heads, sentences

# --- the earlier code, verbatim ------------------------------------------------


def reference_train_ngram(references, order=3):
    vocab: set[str] = set()
    counts: dict[int, dict[tuple, Counter]] = {k: {} for k in range(1, order + 1)}
    n_tokens = 0
    pad = (BOS,) * (order - 1)
    for number, sent in enumerate(references, 1):
        for token in sent:
            if token in (BOS, UNK):
                raise DataError(f"sentence {number}: reserved token {token!r}")
            if token == "" or any(ch.isspace() for ch in token):
                raise DataError(f"sentence {number}: token {token!r} is empty or "
                                "contains whitespace")
        padded = pad + tuple(sent)
        for i in range(order - 1, len(padded)):
            token = padded[i]
            vocab.add(token)
            n_tokens += 1
            for k in range(1, order + 1):
                ctx = padded[i - k + 1 : i]
                counts[k].setdefault(ctx, Counter())[token] += 1
    if n_tokens == 0:
        raise DataError(f"empty training corpus: no tokens in {len(references)} sentences")
    return counts, vocab


def reference_build_form_lexicon(gold):
    full: dict[tuple, Counter] = {}
    by_lemma_upos: dict[tuple, Counter] = {}
    by_lemma: dict[str, Counter] = {}
    for sentence in gold:
        for t in sentence.tokens:
            lemma = t.lemma.lower()
            full.setdefault((lemma, t.upos, feats_key(t.feats)), Counter())[t.form] += 1
            by_lemma_upos.setdefault((lemma, t.upos), Counter())[t.form] += 1
            by_lemma.setdefault(lemma, Counter())[t.form] += 1
    return FormLexicon(
        full={k: _rank_forms(c) for k, c in full.items()},
        by_lemma_upos={k: _rank_forms(c) for k, c in by_lemma_upos.items()},
        by_lemma={k: _rank_forms(c) for k, c in by_lemma.items()},
    )


def reference_linearize(s, rng_seed, scoped=False):
    rng = random.Random(rng_seed)
    tree = s.tree
    tokens: list[str] = []
    node_of: dict[int, int] = {}

    def walk(node_id: int) -> None:
        node_of[len(tokens)] = node_id
        tokens.append(escape_token(tree.nodes[node_id].lemma))
        kids = list(tree.kids(node_id))
        if not kids:
            return
        rng.shuffle(kids)
        if scoped:
            tokens.append(OPEN)
        for kid in kids:
            walk(kid)
        if scoped:
            tokens.append(CLOSE)

    walk(tree.root)
    return LinearSeq(tokens=tokens, node_of=node_of)


def reference_append_form_list(seq, lexicon, tree):
    segments: list[list[str]] = []
    for node_id in seq.node_order():
        info = tree.nodes[node_id]
        forms = lexicon.relevant_forms(info.lemma, info.upos)
        if not forms:
            continue
        segment = [escape_token(info.lemma), SEGMENT_EQ]
        for i, (form, _count) in enumerate(forms):
            if i:
                segment.append(SEGMENT_OR)
            segment.append(escape_token(form))
        segments.append(segment)
    if not segments:
        return seq
    tokens = list(seq.tokens)
    tokens.append(FORMS_SEP)
    for segment in segments:
        tokens.extend(segment)
    return LinearSeq(tokens=tokens, node_of=dict(seq.node_of))


def reference_build_tree(sentence):
    nodes = {
        t.id: NodeInfo(lemma=t.lemma, upos=t.upos, feats=t.feats, deprel=t.deprel)
        for t in sentence.tokens
    }
    children: dict[int, list[int]] = {}
    root = None
    for t in sentence.tokens:
        if t.head == 0:
            root = t.id
        else:
            children.setdefault(t.head, []).append(t.id)
    if root is None:
        raise ConlluError("sentence has no root")
    return DepTree(root=root, nodes=nodes, children=children)


def reference_shallow_from_conllu(sentence, reference_forms=None):
    tree = reference_build_tree(sentence)
    alignment = {}
    for t in sentence.tokens:
        value = misc_get(t.misc, ALIGN_KEY)
        if value is None:
            alignment = None
            break
        try:
            alignment[t.id] = int(value) - 1
        except ValueError:
            raise ConlluError(f"non-integer {ALIGN_KEY} {value!r} for token {t.id}") from None
    if alignment is not None:
        positions = sorted(alignment.values())
        if positions != list(range(len(sentence.tokens))):
            raise ConlluError("original_id values are not a permutation of 1..n")
    return ShallowSentence(tree=tree, reference_forms=reference_forms, alignment=alignment)


def outcome(call):
    """A call's result, or its error's type and message."""
    try:
        return call()
    except (ConlluError, DataError) as err:
        return type(err), str(err)


# --- n-gram counts ---------------------------------------------------------------

REF_TOKENS = st.one_of(
    st.sampled_from(["a", "b", "c", "A", "(", BOS, UNK, "", " ", "a b", "x ", " "]),
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3),
)
CORPORA = st.lists(st.lists(st.sampled_from(["a", "b", "c", "d"]) | REF_TOKENS, max_size=8),
                   max_size=6)


@settings(max_examples=300, deadline=None)
@given(CORPORA, st.integers(1, 5))
def test_train_ngram_matches_reference(corpus, order):
    def counts_and_vocab():
        model = train_ngram(corpus, order=order)
        return model.counts, model.vocab

    expected = outcome(lambda: reference_train_ngram(corpus, order))
    assert outcome(counts_and_vocab) == expected
    if isinstance(expected[0], dict):
        model = train_ngram(corpus, order=order)
        assert model.totals == {k: {ctx: sum(c.values()) for ctx, c in by_ctx.items()}
                                for k, by_ctx in expected[0].items()}


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=8),
                min_size=1, max_size=6),
       st.integers(1, 5))
def test_train_ngram_matches_reference_on_clean_corpora(corpus, order):
    # most generated corpora above hold a fault; these hold none
    model = train_ngram(corpus, order=order)
    assert (model.counts, model.vocab) == reference_train_ngram(corpus, order)


# --- form lexicon ----------------------------------------------------------------


def tables(lexicon):
    return lexicon.full, lexicon.by_lemma_upos, lexicon.by_lemma


@settings(max_examples=200, deadline=None)
@given(st.lists(sentences(), max_size=4))
def test_build_form_lexicon_matches_reference(gold):
    assert tables(build_form_lexicon(gold)) == tables(reference_build_form_lexicon(gold))


# --- linearization and form lists --------------------------------------------------

LEMMAS = st.sampled_from(["a", "A", "b", "(", ")"])
UPOS = st.sampled_from(["X", "Y"])
FORMS = st.sampled_from(["a", "b", "B", "(", ")"])


@st.composite
def small_vocab_sentences(draw, max_tokens: int = 9) -> UdSentence:
    """Trees over a handful of lemmas and forms, so form lists and the
    bracket escapes come up often."""
    n = draw(st.integers(1, max_tokens))
    head = draw(heads(n))
    return UdSentence(tokens=[UdToken(i, draw(FORMS), draw(LEMMAS), draw(UPOS), "_", "_",
                                      head[i], "dep", "_", "_")
                              for i in range(1, n + 1)])


@settings(max_examples=300, deadline=None)
@given(st.lists(small_vocab_sentences(), min_size=1, max_size=4),
       st.lists(small_vocab_sentences(), max_size=4), st.integers(0, 2**32), st.booleans())
def test_linearize_and_form_lists_match_reference(trees, gold, seed, scoped):
    lexicon = build_form_lexicon(gold)
    segments = {}  # one memo across the trees, as emit_training_pairs shares it
    for i, sentence in enumerate(trees):
        shallow = ShallowSentence(tree=build_tree(sentence))
        seq = linearize(shallow, seed + i, scoped=scoped)
        expected = reference_linearize(shallow, seed + i, scoped=scoped)
        assert (seq.tokens, seq.node_of) == (expected.tokens, expected.node_of)
        with_forms = append_form_list(seq, lexicon, shallow.tree, segments=segments)
        expected = reference_append_form_list(expected, lexicon, shallow.tree)
        assert (with_forms.tokens, with_forms.node_of) == (expected.tokens, expected.node_of)
        assert append_form_list(seq, lexicon, shallow.tree) == with_forms


@settings(max_examples=200, deadline=None)
@given(sentences(), st.integers(0, 2**32), st.booleans())
def test_linearize_matches_reference_on_any_fields(sentence, seed, scoped):
    shallow = ShallowSentence(tree=build_tree(sentence))
    assert linearize(shallow, seed, scoped) == reference_linearize(shallow, seed, scoped)


# --- shallow decoding ----------------------------------------------------------------


def aligned_sentence(miscs: list[str]) -> UdSentence:
    """A chain 1 <- 2 <- ... whose token i carries ``miscs[i - 1]``."""
    return UdSentence(tokens=[UdToken(i, "_", f"l{i}", "X", "_", "_", i - 1, "dep", "_", misc)
                              for i, misc in enumerate(miscs, 1)])


@pytest.mark.parametrize("misc", ["original_id=3", "X=1|original_id=3", "original_id=3|X=1",
                                  "original_id=", "original_id=x"])
def test_shallow_from_conllu_misc_columns(misc):
    sentence = aligned_sentence(["original_id=1", "original_id=2", misc])
    expected = outcome(lambda: reference_shallow_from_conllu(sentence))
    assert outcome(lambda: shallow_from_conllu(sentence)) == expected
    assert isinstance(expected, ShallowSentence) == misc.endswith(("3", "3|X=1"))


MISC_FORMS = ["original_id={}", "X=1|original_id={}", "original_id={}|X=1", "original_id=",
              "original_id=x", "_", "X=1", "original_id={}=1", "Original_id={}", "original_id"]


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 6))
def test_shallow_from_conllu_matches_reference(data, n):
    positions = data.draw(st.permutations(range(1, n + 1)))
    # mostly well-formed columns, so whole sentences often decode
    miscs = [data.draw(st.sampled_from(MISC_FORMS[:3] * 6 + MISC_FORMS)).format(p)
             for p in positions]
    sentence = aligned_sentence(miscs)
    forms = tuple(f"f{i}" for i in range(n))
    assert (outcome(lambda: shallow_from_conllu(sentence, forms))
            == outcome(lambda: reference_shallow_from_conllu(sentence, forms)))


@settings(max_examples=200, deadline=None)
@given(sentences())
def test_shallow_from_conllu_matches_reference_on_any_fields(sentence):
    assert (outcome(lambda: shallow_from_conllu(sentence))
            == outcome(lambda: reference_shallow_from_conllu(sentence)))
