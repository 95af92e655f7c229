"""The data builders against their earlier per-row forms.

``reference_train_ngram``, ``reference_build_form_lexicon``,
``reference_linearize``, ``reference_append_form_list`` and
``reference_shallow_from_conllu`` are the code as it was before the
builders counted flat n-gram tables, counted lexicon rows once, walked
trees with an explicit stack, memoized form-list segments and built tree
nodes positionally.  The ``before_*`` functions are the code as it was
before rows were read by index and built with ``tuple.__new__``,
``misc_get`` stopped building a pair list, ``iter_blocks`` tested blank
lines with ``str.isspace`` and ``NGramModel.load`` reused the parse of the
previous line's order and context (``before_load`` builds its result with
``build``, so a test can keep the live constructor's checks out of it, and
checks the order-range, context-length and count rules after the parse,
with the constructor's messages, where the constructor now checks them);
``before_context_key`` and ``before_p`` are ``NGramModel``'s queries as
they were before it cached rows per context, ``before_p`` reading each
context's total as the sum of its counts.  On generated inputs each
rewritten function must return an equal result, or raise the same error
with the same message.  ``test_count_files_load_only_as_their_own_save``
states the count-file contract itself, with no copy of earlier code.
"""

import math
import random
import tempfile
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfreal.conllu_io import (
    EMPTY,
    ConlluError,
    DataError,
    UdSentence,
    UdToken,
    iter_blocks,
    misc_get,
    parse_pairs,
)
from surfreal.deptree import (
    ALIGN_KEY,
    DepTree,
    NodeInfo,
    ShallowSentence,
    build_tree,
    shallow_from_conllu,
    shallow_to_conllu,
    shallow_transform,
    strip_alignment,
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
from surfreal.ngram import _HEADER_TAG, BOS, UNK, NGramModel, train_ngram
from surfreal.realizer import _rank_forms, build_form_lexicon, feats_key
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
    return (
        {k: _rank_forms(c) for k, c in full.items()},
        {k: _rank_forms(c) for k, c in by_lemma_upos.items()},
        {k: _rank_forms(c) for k, c in by_lemma.items()},
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


def before_build_tree(sentence):
    nodes = {t.id: NodeInfo(t.lemma, t.upos, t.feats, t.deprel) for t in sentence.tokens}
    children: dict[int, list[int]] = {}
    roots = []
    for t in sentence.tokens:
        if t.head == 0:
            roots.append(t.id)
        else:
            children.setdefault(t.head, []).append(t.id)
    return DepTree(root=before_only_root(roots), nodes=nodes, children=children)


def before_only_root(roots):
    if len(roots) != 1:
        raise ConlluError(f"expected exactly one root, found {len(roots)}")
    return roots[0]


def before_shallow_transform(sentence, seed):
    n = len(sentence.tokens)
    perm = list(range(1, n + 1))
    random.Random(seed).shuffle(perm)

    # the token with id i is renamed to perm[i - 1]
    nodes = {}
    children: dict[int, list[int]] = {}
    roots = []
    alignment = {}
    for i, t in enumerate(sentence.tokens):
        new_id = perm[t.id - 1]
        nodes[new_id] = NodeInfo(t.lemma, t.upos, t.feats, t.deprel)
        alignment[new_id] = i
        if t.head == 0:
            roots.append(new_id)
        else:
            children.setdefault(perm[t.head - 1], []).append(new_id)
    tree = DepTree(root=before_only_root(roots), nodes=nodes, children=children)
    return ShallowSentence(
        tree=tree,
        reference_forms=tuple(t.form for t in sentence.tokens),
        alignment=alignment,
    )


def before_shallow_to_conllu(shallow):
    tree = shallow.tree
    alignment = shallow.alignment
    parent = {kid: head for head, kids in tree.children.items() for kid in kids}
    tokens = []
    for node_id in tree.node_ids():
        info = tree.nodes[node_id]
        misc = EMPTY if alignment is None else f"{ALIGN_KEY}={alignment[node_id] + 1}"
        tokens.append(UdToken(node_id, EMPTY, info.lemma, info.upos, EMPTY, info.feats,
                              parent.get(node_id, 0), info.deprel, EMPTY, misc))
    return UdSentence(tokens=tokens)


def before_shallow_from_conllu(sentence, reference_forms=None):
    tree = before_build_tree(sentence)
    alignment = {}
    for t in sentence.tokens:
        value = before_misc_get(t.misc, ALIGN_KEY)
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


def before_misc_get(misc, key):
    for k, v in parse_pairs(misc):
        if k == key:
            return v
    return None


def before_iter_blocks(text):
    if "\r" in text:
        raise ConlluError("carriage return found: CoNLL-U input must use LF line endings")
    block: list[str] = []
    for line in text.split("\n"):
        if line.strip() == "":
            if block:
                yield block
                block = []
        else:
            block.append(line)
    if block:
        yield block


def before_load(path, build):
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split("\t")
            if len(header) != 4 or header[0] != _HEADER_TAG:
                raise ValueError(f"no {_HEADER_TAG} header")
            order = int(header[1].removeprefix("order="))
            lam = float(header[2].removeprefix("lambda="))
            vocab_size = int(header[3].removeprefix("vocab="))
            counts: dict[int, dict[tuple, Counter]] = {}
            for line in fh:
                k_str, ctx_str, token, count_str = line.rstrip("\n").split("\t")
                k = int(k_str)
                ctx = tuple(ctx_str.split(" ")) if ctx_str else ()
                count = int(count_str)
                by_ctx = counts.setdefault(k, {})
                ctx_counts = by_ctx.get(ctx)
                if ctx_counts is None:
                    ctx_counts = by_ctx[ctx] = Counter()
                elif token in ctx_counts:
                    raise ValueError(f"repeated order-{k} count for {token!r} "
                                     f"after {ctx_str!r}")
                ctx_counts[token] = count
        vocab = {token for ctx_counts in counts.get(1, {}).values() for token in ctx_counts}
        # order 1's empty context: until the context-length rule below, not its only one
        counted = len(counts.get(1, {}).get((), ()))
        if counted != vocab_size:
            raise ValueError(f"vocab size mismatch: header {vocab_size}, "
                             f"counted {counted}")
        # save writes n-grams of vocabulary tokens only, after begin markers
        context_tokens = vocab | {BOS}
        for k, by_ctx in counts.items():
            for ctx, ctx_counts in by_ctx.items():
                # the order-range, context-length and count rules, where the constructor
                # checks them and with its messages
                if not 1 <= k <= order:
                    raise ValueError(f"order-{k} counts after {' '.join(ctx)!r} are outside "
                                     f"orders 1..{order}")
                if len(ctx) != k - 1:
                    raise ValueError(f"an order-{k} context holds {k - 1} tokens, not "
                                     f"{len(ctx)}: {' '.join(ctx)!r}")
                if min(ctx_counts.values()) < 1:
                    raise ValueError(f"order-{k} counts after {' '.join(ctx)!r} are empty or "
                                     "hold a count below 1")
                if not (context_tokens.issuperset(ctx) and vocab.issuperset(ctx_counts)):
                    raise ValueError(f"order-{k} counts after {' '.join(ctx)!r} hold a "
                                     "token outside the unigram vocabulary")
        return build(order=order, lam=lam, counts=counts, vocab=vocab)
    except ValueError as err:  # UnicodeDecodeError and the constructor's checks too
        raise DataError(f"{path} is not a valid n-gram count file: {err}") from None


def before_context_key(self, history):
    """Last order-1 history tokens, left-padded with begin markers."""
    need = self.order - 1
    hist = tuple(history[-need:]) if need else ()  # history[-0:] is all of it
    return (BOS,) * (need - len(hist)) + hist


def before_p(self, token, ctx):
    """P_order(token | ctx), built up from the uniform base one order at a time."""
    p = self._base
    for k in range(1, self.order + 1):
        k_ctx = ctx[self.order - k:]  # the last k-1 context tokens
        total = sum(self.counts.get(k, {}).get(k_ctx, {}).values())
        if total:  # else nothing was observed after k_ctx: defer entirely to order k-1
            ml = self.counts[k][k_ctx][token] / total
            p = self.lam * ml + (1.0 - self.lam) * p
    return p


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
        # the context tree: one node per counted context, reached from the root through
        # the context's tokens, nearest first, holding its Counter and that Counter's sum
        model = train_ngram(corpus, order=order)
        nodes = {}
        stack = [((), model._root)]
        while stack:
            ctx, (ctx_counts, total, longer) = stack.pop()
            assert ctx not in nodes
            nodes[ctx] = ctx_counts, total
            stack.extend(((token, *ctx), node) for token, node in longer.items())
        assert nodes == {ctx: (c, sum(c.values()))
                         for by_ctx in expected[0].values() for ctx, c in by_ctx.items()}


CLEAN_TOKENS = st.sampled_from(["a", "b", "c", "d"])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(CLEAN_TOKENS, max_size=1) | st.lists(CLEAN_TOKENS, max_size=8),
                min_size=1, max_size=6).filter(any),
       st.integers(1, 5) | st.just(200))
def test_train_ngram_matches_reference_on_clean_corpora(corpus, order):
    # most generated corpora above hold a fault; these hold none.  Order 200 is far
    # above every sentence's length, so most of its k-grams are begin markers.  Empty
    # and one-token sentences put begin markers next to each other and next to the
    # end of the sentence before, so a counted window that crossed from one
    # sentence into the next would show up as a k-gram the reference never counts
    model = train_ngram(corpus, order=order)
    assert (model.counts, model.vocab) == reference_train_ngram(corpus, order)


# --- form lexicon ----------------------------------------------------------------


def tables(lexicon):
    """The lexicon's one table split by key length into the reference's three:
    (lemma, upos, feats), (lemma, upos) and lemma."""
    ranked = lexicon.ranked
    return ({key: forms for key, forms in ranked.items() if len(key) == 3},
            {key: forms for key, forms in ranked.items() if len(key) == 2},
            {key[0]: forms for key, forms in ranked.items() if len(key) == 1})


@settings(max_examples=200, deadline=None)
@given(st.lists(sentences(), max_size=4))
def test_build_form_lexicon_matches_reference(gold):
    lexicon = build_form_lexicon(gold)
    assert tables(lexicon) == reference_build_form_lexicon(gold)
    assert sum(map(len, tables(lexicon))) == len(lexicon.ranked)


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
        assert seq.node_order() == [seq.node_of[p] for p in sorted(seq.node_of)]
        with_forms = append_form_list(seq, lexicon, shallow.tree, segments=segments)
        expected = reference_append_form_list(expected, lexicon, shallow.tree)
        assert (with_forms.tokens, with_forms.node_of) == (expected.tokens, expected.node_of)
        assert with_forms.node_order() == seq.node_order()
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


# --- rows read by index ----------------------------------------------------------------


@st.composite
def loose_sentences(draw, max_tokens: int = 6) -> UdSentence:
    """Ids 1..n with heads anywhere in 0..n: no root, several roots, self-loops
    and cycles come up, as they do in trees no parser has checked."""
    n = draw(st.integers(1, max_tokens))
    return UdSentence(tokens=[UdToken(i, f"f{i}", draw(LEMMAS), draw(UPOS), "_", "_",
                                      draw(st.integers(0, n)), "dep", "_", "_")
                              for i in range(1, n + 1)])


@st.composite
def long_sentences(draw, max_tokens: int = 300) -> UdSentence:
    """Up to ``max_tokens`` tokens, in a random tree or with heads anywhere
    in 0..n as in :func:`loose_sentences`."""
    n = draw(st.integers(1, max_tokens))
    if draw(st.booleans()):
        head = draw(heads(n))
    else:
        head = dict(enumerate(draw(st.lists(st.integers(0, n), min_size=n, max_size=n)), 1))
    return UdSentence(tokens=[UdToken(i, f"f{i}", f"l{i % 7}", "X", "_", "_", head[i],
                                      "dep", "_", "_")
                              for i in range(1, n + 1)])


ANY_SENTENCES = st.one_of(sentences(), loose_sentences())
BUILDER_SENTENCES = st.one_of(ANY_SENTENCES, long_sentences())


def row_types(tree):
    return {type(info) for info in tree.nodes.values()}


@settings(max_examples=300, deadline=None)
@given(BUILDER_SENTENCES)
def test_build_tree_matches_before(sentence):
    expected = outcome(lambda: before_build_tree(sentence))
    assert outcome(lambda: build_tree(sentence)) == expected
    if isinstance(expected, DepTree):
        assert row_types(build_tree(sentence)) == {NodeInfo}


@settings(max_examples=300, deadline=None)
@given(BUILDER_SENTENCES, st.integers(0, 2**32))
def test_shallow_transform_matches_before(sentence, seed):
    expected = outcome(lambda: before_shallow_transform(sentence, seed))
    assert outcome(lambda: shallow_transform(sentence, seed)) == expected
    if isinstance(expected, ShallowSentence):
        assert row_types(shallow_transform(sentence, seed).tree) == {NodeInfo}


@settings(max_examples=300, deadline=None)
@given(sentences(), st.integers(0, 2**32), st.booleans())
def test_shallow_codec_matches_before(sentence, seed, aligned):
    shallow = shallow_transform(sentence, seed)
    if not aligned:
        shallow = strip_alignment(shallow)
    encoded = shallow_to_conllu(shallow)
    assert encoded == before_shallow_to_conllu(shallow)
    assert {type(t) for t in encoded.tokens} == {UdToken}
    assert (outcome(lambda: shallow_from_conllu(encoded, shallow.reference_forms))
            == outcome(lambda: before_shallow_from_conllu(encoded, shallow.reference_forms)))
    # the decoder also on rows it did not encode, with any fields
    for rows in (sentence, encoded):
        assert (outcome(lambda: shallow_from_conllu(rows))
                == outcome(lambda: before_shallow_from_conllu(rows)))


@settings(max_examples=200, deadline=None)
@given(loose_sentences(), st.lists(st.sampled_from(MISC_FORMS), min_size=6, max_size=6))
def test_shallow_from_conllu_matches_before_on_loose_trees(sentence, miscs):
    tokens = [t._replace(misc=misc.format(t.id)) for t, misc in zip(sentence.tokens, miscs)]
    rows = UdSentence(tokens=tokens)
    assert (outcome(lambda: shallow_from_conllu(rows))
            == outcome(lambda: before_shallow_from_conllu(rows)))


MISC_PARTS = st.sampled_from(["_", "", "original_id=1", "original_id=", "original_id",
                              "original_id=2=3", "X=1", "X", "=", "=1", "_=1"])
MISC_KEYS = st.sampled_from(["original_id", "X", "_", "", "=", "original_id=1"])


@settings(max_examples=500, deadline=None)
@given(st.lists(MISC_PARTS | st.text(max_size=3), max_size=4), MISC_KEYS | st.text(max_size=2))
def test_misc_get_matches_before(parts, key):
    misc = "|".join(parts)
    assert misc_get(misc, key) == before_misc_get(misc, key)


BLANKISH = ["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
            "\u2028", "\u3000", " \u3000\x0b", "\u200b", "a", " a ", "1\tx", "#", "\r"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(BLANKISH) | st.text(max_size=3), max_size=8))
def test_iter_blocks_matches_before(lines):
    text = "\n".join(lines)
    assert (outcome(lambda: list(iter_blocks(text)))
            == outcome(lambda: list(before_iter_blocks(text))))


LM_CORPORA = st.lists(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=5),
                      min_size=1, max_size=4)
CORRUPT_FIELDS = ["0", "1", "2", "3", "4", "-1", "x", "", "a", "a b", "<s>", "<s> a", "zz"]


def save_order(line: str):
    """A count line's place in the order NGramModel.save writes: integer order, then
    context tuple, then token; ValueError for a line that is not four fields with an
    integer order."""
    k_str, ctx_str, token, _count = line.split("\t")
    return int(k_str), tuple(ctx_str.split(" ")) if ctx_str else (), token


@st.composite
def count_files(draw) -> str:
    """A saved model's text with lines dropped, repeated, moved or corrupted, or with
    a vocabulary token renamed to a reserved marker."""
    model = train_ngram(draw(LM_CORPORA), order=draw(st.integers(1, 3)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ngrams"
        model.save(path)
        header, *lines = path.read_text(encoding="utf-8").splitlines()
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["drop", "repeat", "move", "field", "tabs", "rename"]))
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        if edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif edit == "move":
            lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(i))
        elif edit == "field":
            fields = lines[i].split("\t")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(CORRUPT_FIELDS))
            lines[i] = "\t".join(fields)
        elif edit == "tabs":
            lines[i] = draw(st.sampled_from(["", "1\ta", lines[i] + "\t1"]))
        else:
            # one token renamed in every field of every line, which then go back into
            # save's order (when they still parse), so the file reaches the vocabulary rule
            old = draw(st.sampled_from(sorted(model.vocab)))
            new = draw(st.sampled_from([BOS, UNK]))
            lines = ["\t".join(" ".join(new if t == old else t for t in field.split(" "))
                               for field in line.split("\t")) for line in lines]
            try:
                lines.sort(key=save_order)
            except ValueError:
                pass
    return "\n".join([header, *lines]) + "\n"


def first_unsorted(lines: list[str]) -> int | None:
    """The index of the first line that does not sort after the line before it in
    save's order, if that comes before the first line save_order cannot read."""
    last = None
    for i, line in enumerate(lines):
        try:
            key = save_order(line)
        except ValueError:
            return None
        if last is not None and key <= last:
            return i
        last = key
    return None


@settings(max_examples=400, deadline=None)
@given(count_files())
def test_ngram_load_matches_before(text):
    def loaded(load):
        model = load(path)
        return model.order, model.lam, model.counts, model.vocab

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ngrams"
        invalid = f"{path} is not a valid n-gram count file: "
        header, *lines = text.removesuffix("\n").split("\n")
        unsorted = first_unsorted(lines)
        if unsorted is not None:
            # load rejects a line out of save's order at that line, once the line rules
            # pass on it and on the lines above it.  before_load checks those rules line
            # by line: on those lines and then one of a single field, it fails on that
            # last line, or on a repeat (the one kind of unsorted line it rejects), only
            # when they pass
            path.write_text("\n".join([header, *lines[:unsorted + 1], "end"]) + "\n",
                            encoding="utf-8")
            expected = outcome(lambda: before_load(path, build=SimpleNamespace))
            if (expected[1] == f"{invalid}not enough values to unpack (expected 4, got 1)"
                    or expected[1].startswith(f"{invalid}repeated ")):
                k_str, ctx_str, token, _count = lines[unsorted].split("\t")
                expected = (DataError, f"{invalid}order-{k_str} count for {token!r} after "
                                       f"{ctx_str!r} does not sort after the line before it")
        path.write_text(text, encoding="utf-8")
        if unsorted is None:
            # the parse alone: the live constructor's checks come after load's own
            expected = outcome(lambda: loaded(lambda p: before_load(p, build=SimpleNamespace)))
        if len(expected) == 4:
            # before_load also took a file without counts of some order 1..order, one
            # whose vocabulary holds a token training never counts, and one with a
            # context whose one-shorter suffix has no counts; load rejects them in turn
            order, _lam, counts, vocab = expected
            missing = [k for k in range(1, order + 1) if k not in counts]
            uncountable = any(t in (BOS, UNK) or t.split() != [t] for t in vocab)
            unclosed = [(k, ctx) for k in sorted(counts) for ctx in counts[k]
                        if ctx and ctx[1:] not in counts.get(k - 1, {})]
            if missing:
                expected = (DataError, f"{invalid}no order-{missing[0]} counts in an "
                                       f"order-{order} model")
            elif uncountable:
                expected = (DataError, f"{invalid}a vocabulary token is reserved, empty "
                                       "or holds whitespace")
            elif unclosed:
                k, ctx = unclosed[0]
                expected = (DataError, f"{invalid}order-{k} counts after {' '.join(ctx)!r} "
                                       f"but no order-{k - 1} counts after "
                                       f"{' '.join(ctx[1:])!r}")
        assert outcome(lambda: loaded(NGramModel.load)) == expected


# bytes save writes and the ones its spellings exclude
FILE_BYTES = [b"\t", b"\n", b" ", b"\r", b"0", b"1", b"2", b"-", b"+", b"_", b"a", b"b", b"=",
              b"<s>", b"<unk>", "\u0662".encode(), b"\x00", b"\xff", b"e"]


@st.composite
def byte_edited_files(draw) -> bytes:
    """A saved model's bytes with up to four bytes or byte runs deleted, inserted or
    replaced: anywhere, next to a tab or a line feed (where a field's number is
    spelled and a line ends) or at the last byte, each as often."""
    data = bytearray(draw(count_files()).encode("utf-8"))
    rng = draw(st.randoms(use_true_random=False))  # places spread over the file
    for _ in range(draw(st.integers(1, 4))):
        ends = [i for i, byte in enumerate(data) if byte in b"\t\n"] or [0]
        i = rng.choice([rng.randrange(len(data) + 1), rng.choice(ends) + rng.randrange(2),
                        max(len(data) - 1, 0)])
        edit = draw(st.sampled_from(["delete", "insert", "replace"]))
        width = draw(st.integers(1, 3)) if edit != "insert" else 0
        data[i:i + width] = b"" if edit == "delete" else draw(st.sampled_from(FILE_BYTES)
                                                              | st.binary(min_size=1, max_size=2))
    return bytes(data)


@settings(max_examples=400, deadline=None)
@given(count_files().map(lambda text: text.encode("utf-8")) | byte_edited_files())
def test_count_files_load_only_as_their_own_save(data):
    """A count file either raises DataError in load, or is the file save writes of the
    model load returns, byte for byte: no rule load or the constructor drops lets in
    a file that save would not write."""
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "m.ngrams", Path(tmp) / "again.ngrams"
        path.write_bytes(data)
        try:
            model = NGramModel.load(path)
        except DataError:
            return
        model.save(again)
        assert again.read_bytes() == data


LM_TOKENS = ["a", "b", "c", "d"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(LM_TOKENS), min_size=1, max_size=6),
                min_size=1, max_size=6),
       st.integers(1, 5) | st.just(200) | st.just(1100),
       st.floats(0.01, 0.99),
       st.data())
def test_ngram_queries_match_before(corpus, order, lam, data):
    """prob and logprob bit for bit, and one memo entry per distinct (token, context),
    on histories shorter and longer than order-1 that hold unseen tokens and contexts."""
    model = train_ngram(corpus, order=order, lam=lam)
    # the oracle's counts come from the reference, once, not from the model it checks
    counts, vocab = reference_train_ngram(corpus, order)
    before = SimpleNamespace(order=order, lam=lam, counts=counts, _base=1.0 / (len(vocab) + 1))
    queried = set()
    for _ in range(data.draw(st.integers(1, 12))):
        token = data.draw(st.sampled_from(LM_TOKENS + ["zz"]))
        length = data.draw(st.sampled_from([0, order - 2, order - 1, order, order + 3])
                           | st.integers(0, order + 3))
        words = data.draw(st.lists(st.sampled_from(LM_TOKENS + ["zz"]), min_size=1, max_size=8))
        history = [words[i % len(words)] for i in range(max(length, 0))]
        if data.draw(st.booleans()):
            history = tuple(history)
        ctx = before_context_key(before, history)
        want = before_p(before, token if token in vocab else UNK, ctx)
        assert model.context_key(history) == ctx
        assert model.prob(token, history) == want
        if want:
            assert model.logprob(token, history) == math.log(want)
            queried.add((token, ctx))
        else:  # a deep order and a lambda near 1 underflow to 0.0, which has no log
            with pytest.raises(DataError, match="underflows to 0.0"):
                model.logprob(token, history)
        assert len(model._memo) == len(queried)
