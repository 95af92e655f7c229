"""The beam search against a straightforward reference implementation.

``reference_beam_realize`` is the executable spec of the search, slot
nesting included, and the one copy of a replaced design the suite keeps.
It materializes a ``Hypothesis`` record (defined here; the beam itself
keeps plain tuples) for every candidate, scores every candidate and
sorts them all; ``beam_realize`` must return the same tokens, node order
and score (bit for bit) on random trees, lexicons and scorers.  With a
scorer that has no state key it must call the scorer with the same
arguments in the same order; with a state key (the n-gram scorer's, or
the last form's) it must make the reference's calls less every repeat of
a (state key, form).  Coarse integer scorers make many candidates tie,
and a keyed scorer whose deltas differ by less than half an ulp of the
running score makes summed scores tie while the deltas differ, so the
tie-break by generation order is exercised on both paths.
"""

import math
import random
import tracemalloc
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from surfreal.deptree import ShallowSentence, _tree, build_tree
from surfreal.ngram import BOS, train_ngram
from surfreal.realizer import (
    FormLexicon,
    NGramScorer,
    RealizationResult,
    Scorer,
    beam_realize,
)
from surfreal.conllu_io import UdSentence
from toylang import tok

FORMS = ["a", "b", "c", "d", "e"]


@dataclass(frozen=True)
class Hypothesis:
    emitted: tuple[tuple[int, str], ...]
    remaining: frozenset[int]
    score: float

    def forms(self) -> tuple[str, ...]:
        return tuple(form for _, form in self.emitted)


def reference_beam_realize(
    sentence: ShallowSentence,
    scorer: Scorer,
    beam_size: int,
    lexicon: FormLexicon,
) -> RealizationResult:
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    tree = sentence.tree
    n = tree.size()
    if n < 1:
        raise ValueError("sentence has no nodes")
    cands = {node_id: lexicon.candidates_for(tree.nodes[node_id]) for node_id in tree.node_ids()}

    beam = [Hypothesis(emitted=(), remaining=frozenset(tree.nodes), score=0.0)]
    slots = [1]
    for _step in range(n):
        entries: list[Hypothesis] = []
        parent_slots: list[int] = []
        for hyp, parent_slot in zip(beam, slots):
            history = hyp.forms()
            for node_id in sorted(hyp.remaining):
                for form, _count in cands[node_id]:
                    delta = scorer.score_next(history, form, node_id)
                    entries.append(
                        Hypothesis(
                            emitted=hyp.emitted + ((node_id, form),),
                            remaining=hyp.remaining - {node_id},
                            score=hyp.score + delta,
                        )
                    )
                    parent_slots.append(parent_slot)
        order = sorted(range(len(entries)), key=lambda i: -entries[i].score)  # stable

        # union-find over slots: next_free[s] chases the lowest free slot >= s;
        # beam_size + 1 is the overflow sentinel meaning "prune"
        next_free = list(range(beam_size + 2))

        def _free_slot(slot: int) -> int:
            root = slot
            while next_free[root] != root:
                root = next_free[root]
            while next_free[slot] != root:
                next_free[slot], slot = root, next_free[slot]
            return root

        beam, slots = [], []
        for i in order:
            slot = _free_slot(parent_slots[i])
            if slot > beam_size:
                continue
            next_free[slot] = slot + 1
            beam.append(entries[i])
            slots.append(slot)

    # the kept list is in score order (generation order on ties), so the
    # first element is the returned argmax
    best = beam[0]
    return RealizationResult(
        tokens=list(best.forms()),
        node_order=[node_id for node_id, _ in best.emitted],
        score=best.score,
        beam_size=beam_size,
    )


class TableScorer(Scorer):
    """A pure scorer drawn from a seed: the score depends on the position,
    the previous form, the node and the form.  ``coarse`` gives integer
    scores in -2..0, so many candidates tie."""

    def __init__(self, seed: int, coarse: bool):
        self.seed = seed
        self.coarse = coarse

    def score_next(self, history, candidate_form, node_id) -> float:
        prev = history[-1] if history else BOS
        rng = random.Random(f"{self.seed}|{len(history)}|{prev}|{node_id}|{candidate_form}")
        return float(rng.randint(-2, 0)) if self.coarse else math.log(rng.random() + 1e-3)


class LastFormScorer(Scorer):
    """A keyed scorer drawn from a seed: the state is the last form.

    ``coarse`` gives integer deltas in -2..0, so many candidates tie.
    Otherwise the first step scores -1000 and each later one -0.5 or
    -0.5 - 2**-45: the two differ by less than half an ulp of a running
    score near -1000, so their sums tie while their deltas differ."""

    def __init__(self, seed: int, coarse: bool):
        self.seed = seed
        self.coarse = coarse

    def state_key(self, history) -> str:
        return history[-1] if history else BOS

    def score_next(self, history, candidate_form, node_id) -> float:
        rng = random.Random(f"{self.seed}|{self.state_key(history)}|{candidate_form}")
        if self.coarse:
            return float(rng.randint(-2, 0))
        return rng.choice([-0.5, -0.5 - 2**-45]) if history else -1000.0


class RecordingScorer(Scorer):
    """Passes calls through and records their arguments; no state key."""

    def __init__(self, inner: Scorer):
        self.inner = inner
        self.calls = []

    def score_next(self, history, candidate_form, node_id) -> float:
        self.calls.append((history, candidate_form, node_id))
        return self.inner.score_next(history, candidate_form, node_id)


class RecordingKeyedScorer(RecordingScorer):
    """A RecordingScorer that keeps the inner scorer's state key."""

    def state_key(self, history):
        return self.inner.state_key(history)


def first_calls(calls, state_key):
    """The calls less every repeat of a (state key, form), in order."""
    kept, seen = [], set()
    for history, form, node_id in calls:
        state = (state_key(history), form)
        if state not in seen:
            seen.add(state)
            kept.append((history, form, node_id))
    return kept


@st.composite
def instances(draw, min_nodes=1, max_nodes=5, forms=FORMS):
    """A random tree of min_nodes-max_nodes nodes with 1-3 candidate forms
    per node, drawn from ``forms``.  Its node ids are 1..n, or distinct ids
    up to 1000 in any order, so the beam's mapping from node id to bit is
    exercised on ids that are neither dense nor small.  Sparse ids enter
    ``tree.nodes`` in token order, not id order, so the beam's walk in
    ascending id is checked against an insertion order that differs."""
    n = draw(st.integers(min_nodes, max_nodes))
    ids = draw(st.permutations(range(1, n + 1)))
    heads = {ids[0]: 0}
    for k in range(1, n):
        heads[ids[k]] = ids[draw(st.integers(0, k - 1))]
    tokens = [tok(i, "_", f"l{i}", "X", "_", heads[i], "dep") for i in range(1, n + 1)]
    if draw(st.booleans()):
        tree = build_tree(UdSentence(tokens=tokens))
    else:  # token i becomes node sparse[i - 1]
        sparse = draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n, unique=True))
        tree = _tree(tokens, [0, *sparse])
    sentence = ShallowSentence(tree=tree)
    ranked = {}  # one (lemma,) entry per node
    for i in range(1, n + 1):
        node_forms = draw(st.lists(st.sampled_from(forms), min_size=1, max_size=3, unique=True))
        ranked[(f"l{i}",)] = tuple((form, 1) for form in node_forms)
    lexicon = FormLexicon(ranked)
    return sentence, lexicon


@st.composite
def ngram_models(draw):
    refs = draw(st.lists(st.lists(st.sampled_from(FORMS), min_size=1, max_size=6),
                         min_size=1, max_size=8))
    return train_ngram(refs, order=draw(st.integers(1, 4)), lam=0.6)


@st.composite
def scorers(draw):
    kind = draw(st.sampled_from(["coarse", "fine", "ngram"]))
    if kind != "ngram":
        return TableScorer(draw(st.integers(0, 2**16)), coarse=kind == "coarse")
    return NGramScorer(draw(ngram_models()))


@st.composite
def keyed_scorers(draw):
    """A scorer with a state key: an n-gram model's context, or the last form."""
    kind = draw(st.sampled_from(["coarse", "fine", "ngram"]))
    if kind != "ngram":
        return LastFormScorer(draw(st.integers(0, 2**16)), coarse=kind == "coarse")
    return NGramScorer(draw(ngram_models()))


def exhaustive_beam(sentence, lexicon) -> int:
    """The number of complete realizations, which no step's hypothesis count exceeds."""
    nodes = sentence.tree.nodes.values()
    return math.factorial(len(nodes)) * math.prod(len(lexicon.candidates_for(i)) for i in nodes)


@settings(max_examples=150, deadline=None)
@given(instances(), scorers())
def test_beam_matches_reference(instance, scorer):
    sentence, lexicon = instance
    for beam in (1, 2, 3, 7, exhaustive_beam(sentence, lexicon)):
        want_scorer, got_scorer = RecordingScorer(scorer), RecordingScorer(scorer)
        want = reference_beam_realize(sentence, want_scorer, beam, lexicon)
        got = beam_realize(sentence, got_scorer, beam, lexicon)
        assert got.tokens == want.tokens
        assert got.node_order == want.node_order
        assert got.score == want.score
        assert got.beam_size == want.beam_size == beam
        assert got_scorer.calls == want_scorer.calls


@settings(max_examples=30, deadline=None)
@given(instances(max_nodes=3), scorers())
def test_beam_memory_follows_candidates_not_width(instance, scorer):
    """A beam far wider than the search space returns the exhaustive result,
    and its working memory does not grow with the requested width."""
    sentence, lexicon = instance
    want = beam_realize(sentence, scorer, exhaustive_beam(sentence, lexicon), lexicon)
    tracemalloc.start()
    try:
        got = beam_realize(sentence, scorer, 10**6, lexicon)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (got.tokens, got.node_order, got.score) == (want.tokens, want.node_order, want.score)
    assert peak < 2 * 2**20, f"peak {peak} bytes"


@settings(max_examples=200, deadline=None)
@given(order=st.integers(1, 5),
       history=st.lists(st.sampled_from(FORMS + ["zz"]), max_size=7),
       token=st.sampled_from(FORMS + ["zz"]),
       as_tuple=st.booleans())
def test_context_key_and_logprob(order, history, token, as_tuple):
    model = train_ngram([["a", "b", "c"], ["c", "a", "d", "e"], ["b", "b"]], order=order, lam=0.7)
    hist = tuple(history) if as_tuple else list(history)
    assert len(model.context_key(hist)) == order - 1
    got = model.logprob(token, hist)
    assert got == math.log(model.prob(token, history))
    assert model.logprob(token, tuple(history)) == got
    assert model.logprob(token, list(history)) == got


@settings(max_examples=300, deadline=None)
@given(instances(), keyed_scorers())
def test_state_keyed_beam_matches_reference(instance, scorer):
    sentence, lexicon = instance
    for beam in (1, 2, 3, 7, exhaustive_beam(sentence, lexicon)):
        want_scorer = RecordingScorer(scorer)  # no state key: every candidate
        want = reference_beam_realize(sentence, want_scorer, beam, lexicon)
        keyed = RecordingKeyedScorer(scorer)
        got = beam_realize(sentence, keyed, beam, lexicon)
        assert got.tokens == want.tokens
        assert got.node_order == want.node_order
        assert got.score == want.score
        assert got.beam_size == want.beam_size == beam
        assert keyed.calls == first_calls(want_scorer.calls, scorer.state_key)


LARGE = instances(min_nodes=6, max_nodes=12, forms=FORMS[:3])


@settings(max_examples=60, deadline=None)
@given(LARGE, scorers())
def test_beam_matches_reference_on_larger_trees(instance, scorer):
    """Several nodes share a form, so a state key's row grows across parents."""
    sentence, lexicon = instance
    for beam in (1, 4, 50):
        want_scorer, got_scorer = RecordingScorer(scorer), RecordingScorer(scorer)
        want = reference_beam_realize(sentence, want_scorer, beam, lexicon)
        got = beam_realize(sentence, got_scorer, beam, lexicon)
        assert (got.tokens, got.node_order, got.score) == (want.tokens, want.node_order,
                                                            want.score)
        assert got_scorer.calls == want_scorer.calls


@settings(max_examples=60, deadline=None)
@given(LARGE, keyed_scorers())
def test_state_keyed_beam_matches_reference_on_larger_trees(instance, scorer):
    sentence, lexicon = instance
    for beam in (1, 4, 50):
        want_scorer = RecordingScorer(scorer)
        want = reference_beam_realize(sentence, want_scorer, beam, lexicon)
        keyed = RecordingKeyedScorer(scorer)
        got = beam_realize(sentence, keyed, beam, lexicon)
        assert (got.tokens, got.node_order, got.score) == (want.tokens, want.node_order,
                                                            want.score)
        assert keyed.calls == first_calls(want_scorer.calls, scorer.state_key)


@settings(max_examples=200, deadline=None)
@given(model=ngram_models(),
       prefixes=st.lists(st.lists(st.sampled_from(FORMS + ["zz"]), max_size=5),
                         min_size=2, max_size=2),
       tail=st.lists(st.sampled_from(FORMS + ["zz"]), max_size=4),
       form=st.sampled_from(FORMS + ["zz"]),
       node_ids=st.lists(st.integers(1, 5), min_size=2, max_size=2))
def test_ngram_score_depends_only_on_state_key_and_form(model, prefixes, tail, form, node_ids):
    scorer = NGramScorer(model)
    histories = [tuple(prefix + tail) for prefix in prefixes]
    keys = [scorer.state_key(history) for history in histories]
    assert keys[0] == model.context_key(histories[0])
    if keys[0] == keys[1]:
        assert (scorer.score_next(histories[0], form, node_ids[0])
                == scorer.score_next(histories[1], form, node_ids[1]))
    # a tail of at least order-1 forms fixes the key
    if len(tail) >= model.order - 1:
        assert keys[0] == keys[1]
