import math
import pickle
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfreal import ngram
from surfreal.conllu_io import DataError
from surfreal.ngram import BOS, UNK, NGramModel, train_ngram


def oracle_prob(sentences, order, lam, token, history):
    """Slow independent reimplementation: scans the padded corpus per query."""
    vocab = {t for s in sentences for t in s}
    base = 1.0 / (len(vocab) + 1)
    tok = token if token in vocab else UNK
    need = order - 1
    hist = tuple(history)[-need:] if need else ()
    ctx = (BOS,) * (need - len(hist)) + hist

    def p(k, ctx_k):
        if k == 0:
            return base
        num = den = 0
        for s in sentences:
            padded = (BOS,) * (order - 1) + tuple(s)
            for i in range(order - 1, len(padded)):
                if padded[i - k + 1:i] == ctx_k:
                    den += 1
                    if padded[i] == tok:
                        num += 1
        lower = p(k - 1, ctx_k[1:])
        if den == 0:
            return lower
        return lam * (num / den) + (1 - lam) * lower

    return p(order, ctx)


TOY = [
    "the cat sat on the mat".split(),
    "the dog sat on the rug".split(),
    "a cat saw the dog".split(),
    "the dog saw a cat".split(),
]


def test_hand_derived_unigram_case():
    model = train_ngram([["a", "a", "a"]], order=1, lam=0.7)
    expected = 0.7 * 1.0 + (1 - 0.7) * (1 / 2)
    assert model.prob("a", []) == expected
    assert abs(model.prob("a", []) - 0.85) < 1e-9
    assert model.prob("zz", []) == (1 - 0.7) * (1 / 2)


def test_probabilities_match_independent_oracle():
    model = train_ngram(TOY, order=3, lam=0.7)
    rng = random.Random(0)
    words = sorted(model.vocab) + ["zyzzyva"]
    for _ in range(60):
        token = rng.choice(words)
        history = [rng.choice(words) for _ in range(rng.randint(0, 4))]
        got = model.prob(token, history)
        want = oracle_prob(TOY, 3, 0.7, token, history)
        assert abs(got - want) < 1e-12


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.sampled_from("abc"), max_size=5), min_size=1, max_size=5).filter(any),
       st.integers(1, 5) | st.just(9), st.data())
def test_probabilities_match_independent_oracle_on_generated_corpora(corpus, order, data):
    """Empty and one-token sentences put begin markers next to each other and next to
    the sentence before, and order 9 is longer than every sentence, so a window counted
    across two sentences, or one that ends at a begin marker, shows."""
    model = train_ngram(corpus, order=order, lam=0.6)
    for _ in range(5):
        token = data.draw(st.sampled_from("abcz"))
        history = data.draw(st.lists(st.sampled_from("abcz"), max_size=order + 1))
        want = oracle_prob(corpus, order, 0.6, token, history)
        assert abs(model.prob(token, history) - want) < 1e-12


def test_distributions_normalize_over_vocab_plus_unknown():
    model = train_ngram(TOY, order=3, lam=0.7)
    rng = random.Random(1)
    words = sorted(model.vocab)
    histories = [[], ["the"], ["on", "the"], ["zq", "zz"], ["the", "cat", "sat"]]
    histories += [[rng.choice(words + ["oovx"]) for _ in range(rng.randint(0, 3))]
                  for _ in range(20)]
    for history in histories:
        total = sum(model.prob(w, history) for w in model.vocab)
        total += model.prob(UNK, history)
        assert abs(total - 1.0) < 1e-9


def test_every_probability_is_positive():
    model = train_ngram(TOY, order=2, lam=0.5)
    for w in sorted(model.vocab) + ["nope"]:
        assert model.prob(w, ["unseen-context-token"]) > 0


def test_unseen_context_defers_to_shorter_context():
    model = train_ngram(TOY, order=3, lam=0.7)
    # "dog dog" never occurs, so the trigram level contributes nothing
    assert model.prob("cat", ["dog", "dog"]) == model.prob("cat", ["dog"])


def test_orders_above_the_recursion_limit_can_be_queried():
    model = train_ngram([["a", "b"]], order=1100)
    assert math.isfinite(model.logprob("b", ["a"]))


def test_probability_that_underflows_is_a_data_error():
    """(1 - lam)^119 times the base underflows to 0.0, whose log does not exist."""
    model = train_ngram([["a", "b"]], order=120, lam=0.999)
    assert model.prob("b", []) == 0.0
    with pytest.raises(DataError) as err:
        model.logprob("b", [])
    context = " ".join([BOS] * 119)
    assert str(err.value) == (f"P('b' | {context!r}) underflows to 0.0 in the order-120 "
                              "model with lambda 0.999, so it has no log probability")
    assert model._memo == {}
    assert math.isfinite(model.logprob("a", []))  # seen after the begin markers
    # one order less, P is the subnormal 5e-322: not 0.0, so it has a log
    shallower = train_ngram([["a", "b"]], order=108, lam=0.999)
    assert 0.0 < shallower.prob("b", []) < 1e-300
    assert shallower.logprob("b", []) == math.log(shallower.prob("b", []))


def test_empty_history_uses_begin_markers():
    model = train_ngram(TOY, order=3, lam=0.7)
    assert model.context_key([]) == (BOS, BOS)
    assert model.context_key(["a"]) == (BOS, "a")
    assert model.context_key(["a", "b", "c"]) == ("b", "c")
    # sentence-initial "the" is frequent, so it should dominate after padding
    best = max(sorted(model.vocab), key=lambda w: model.prob(w, []))
    assert best == "the"


def test_logprob_is_memoized_and_consistent():
    model = train_ngram(TOY, order=3, lam=0.7)
    a = model.logprob("cat", ["the"])
    assert model.logprob("cat", ["the"]) == a
    assert abs(a - math.log(model.prob("cat", ["the"]))) < 1e-15
    assert model._memo  # populated


def test_memo_bound_clears_without_changing_scores(monkeypatch):
    rng = random.Random(5)
    words = sorted({t for s in TOY for t in s}) + ["oovx"]
    queries = [(rng.choice(words), [rng.choice(words) for _ in range(rng.randint(0, 3))])
               for _ in range(200)]
    unbounded = train_ngram(TOY, order=3, lam=0.7)
    want = [unbounded.logprob(token, history) for token, history in queries]
    monkeypatch.setattr(ngram, "_MEMO_MAX", 4)
    bounded = train_ngram(TOY, order=3, lam=0.7)
    got = []
    for token, history in queries:
        got.append(bounded.logprob(token, history))
        assert len(bounded._memo) <= 4
    assert got == want
    assert len(unbounded._memo) > 4  # so the bounded memo was cleared along the way


def test_pickle_drops_memo_but_keeps_scores():
    model = train_ngram(TOY, order=3, lam=0.7)
    model.logprob("cat", ["the"])
    assert model._memo
    clone = pickle.loads(pickle.dumps(model))
    assert clone._memo == {}
    assert clone.prob("cat", ["the"]) == model.prob("cat", ["the"])


def test_pickle_of_a_deep_order_model():
    """A realize worker gets the model pickled: at order 1,100 its context tree nests
    deeper than pickle may recurse, so the clone is built from the counts again."""
    model = train_ngram([["a", "b"], ["b"]], order=1100, lam=0.5)
    clone = pickle.loads(pickle.dumps(model))
    for history in ([], ["a"], ["b", "a"] * 600, ["zz"]):
        assert clone.prob("b", history) == model.prob("b", history)


def test_models_keep_only_the_context_tree(tmp_path):
    """Trained, loaded and unpickled models hold no dict of contexts: beside the order
    and lambda, only the tree, whose nodes are reached token by token, the vocabulary,
    the base and the memo.  ``counts`` is read off the tree, anew on each read."""
    trained = train_ngram(TOY, order=3, lam=0.7)
    trained.save(tmp_path / "m.ngrams")
    for model in (trained, NGramModel.load(tmp_path / "m.ngrams"),
                  pickle.loads(pickle.dumps(trained))):
        assert vars(model).keys() == {"order", "lam", "vocab", "_base", "_memo", "_root"}
        stack = [model._root]
        while stack:
            _counts, _total, longer = stack.pop()
            assert all(isinstance(token, str) for token in longer)
            stack.extend(longer.values())
        assert model.counts == trained.counts
        assert model.counts is not model.counts


def test_training_memory_grows_linearly_in_order():
    """A context is a path of nodes, not a tuple of its tokens, so doubling the order
    doubles the peak (x2.04 on Python 3.10-3.13); with a tuple per context per order
    it grew x2.63-2.67."""
    rng = random.Random(0)
    corpus = [[f"t{rng.randrange(8)}" for _ in range(40)] for _ in range(5)]
    peaks = []
    for order in (80, 160):
        tracemalloc.start()
        train_ngram(corpus, order=order)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] / peaks[0] <= 2.4


def test_models_share_no_counts_with_their_callers():
    """The constructor copies the counts it is given and ``counts`` hands out copies, so
    a caller who changes either changes no distribution (with the Counters shared, the
    two sums read 1.525 and 2.05)."""
    trained = train_ngram([["a", "b"]], order=2)
    trained.counts[1][()]["a"] += 5
    passed = {1: {(): Counter(a=1, b=1)}}
    built = NGramModel(1, 0.7, passed)
    passed[1][()]["a"] += 5
    for model in (trained, built):
        for history in ([], ["a"], ["b"]):
            total = sum(model.prob(w, history) for w in model.vocab) + model.prob(UNK, history)
            assert abs(total - 1.0) < 1e-12
    assert built.counts == {1: {(): Counter(a=1, b=1)}}


def test_save_holds_one_order_at_a_time(tmp_path):
    """save writes each order's lines as its walk reaches that order, so its peak is a
    small share of the file it writes (x0.14-0.35 on Python 3.10-3.13); building every
    context and line first peaked at x3.7-4.0."""
    rng = random.Random(0)
    corpus = [[f"t{rng.randrange(8)}" for _ in range(40)] for _ in range(5)]
    model = train_ngram(corpus, order=80)
    path = tmp_path / "m.ngrams"
    tracemalloc.start()
    model.save(path)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= path.stat().st_size / 2


def test_save_load_bit_identical_scores(tmp_path):
    model = train_ngram(TOY, order=3, lam=0.7)
    path = tmp_path / "m.ngrams"
    model.save(path)
    clone = NGramModel.load(path)
    assert clone.order == model.order
    assert clone.lam == model.lam
    assert clone.vocab == model.vocab
    rng = random.Random(2)
    words = sorted(model.vocab) + ["qqq"]
    for _ in range(80):
        token = rng.choice(words)
        history = [rng.choice(words) for _ in range(rng.randint(0, 3))]
        assert clone.prob(token, history) == model.prob(token, history)
    # a second save round-trips to the same bytes
    path2 = tmp_path / "m2.ngrams"
    clone.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_takes_contexts_in_the_order_save_sorts_them(tmp_path):
    """save sorts contexts as token tuples: ('a', 'b') before ('a\\x01', 'c'), though
    as strings 'a\\x01 c' sorts before 'a b'."""
    model = train_ngram([["a", "b", "x"], ["a\x01", "c", "x"]], order=3)
    path = tmp_path / "m.ngrams"
    model.save(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines.index("3\ta b\tx\t1") < lines.index("3\ta\x01 c\tx\t1")
    clone = NGramModel.load(path)
    assert clone.counts == model.counts
    assert clone.prob("x", ["a\x01", "c"]) == model.prob("x", ["a\x01", "c"])


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ngrams"
    path.write_text("not a model\n")
    with pytest.raises(ValueError, match="n-gram"):
        NGramModel.load(path)


@pytest.mark.parametrize("sentences,order,lam,err", [
    ([], 3, 0.7, "empty"),
    ([[]], 3, 0.7, "empty"),
    ([["a"]], 0, 0.7, "order"),
    ([["a"]], 3, 0.0, "lambda"),
    ([["a"]], 3, 1.0, "lambda"),
    ([["a", BOS]], 3, 0.7, "reserved"),
    ([["a", UNK]], 3, 0.7, "reserved"),
    ([["a", "b c"]], 3, 0.7, "whitespace"),
    ([["a", ""]], 3, 0.7, "empty or contains"),
])
def test_training_input_validation(sentences, order, lam, err):
    with pytest.raises(ValueError, match=err):
        train_ngram(sentences, order=order, lam=lam)


def the_cat_counts(order: int) -> dict:
    """The counts train_ngram makes of the one sentence "the cat sleeps"."""
    return train_ngram([["the", "cat", "sleeps"]], order=order).counts


def test_model_built_from_counts_takes_its_vocabulary_from_them():
    """A library caller passes only the counts: the vocabulary is the order-1 tokens,
    so every distribution sums to 1, and a pickled model keeps it."""
    model = NGramModel(2, 0.7, the_cat_counts(2))
    assert model.vocab == {"the", "cat", "sleeps"}
    for history in ([], ["the"], ["cat"], ["sleeps"], ["dog"]):
        total = sum(model.prob(w, history) for w in model.vocab) + model.prob(UNK, history)
        assert abs(total - 1.0) < 1e-12
    clone = pickle.loads(pickle.dumps(model))
    assert clone.vocab == model.vocab
    assert clone.prob("sleeps", ["cat"]) == model.prob("sleeps", ["cat"])


def counts_with(order: int, k: int, ctx: tuple, tokens: dict) -> dict:
    """``the_cat_counts(order)`` with ``tokens`` as the order-k counts after ``ctx``."""
    counts = the_cat_counts(order)
    counts[k][ctx] = Counter(tokens)
    return counts


@pytest.mark.parametrize("order,lam,counts,message", [
    # P(w | cat) over the vocabulary and <unk> would sum to 0.4167
    (2, 0.7, counts_with(2, 2, ("cat",), {"sleeps": 1, "zebra": 1}),
     "order-2 counts after 'cat' hold a token outside the unigram vocabulary"),
    (2, 0.7, counts_with(2, 2, ("dog",), {"sleeps": 1}),
     "order-2 counts after 'dog' hold a token outside the unigram vocabulary"),
    (3, 0.7, {k: c for k, c in the_cat_counts(3).items() if k != 2},
     "no order-2 counts in an order-3 model"),
    (1, 0.7, {1: {}}, "no order-1 counts in an order-1 model"),
    (1, 0.7, counts_with(1, 1, (), {"the": 1, BOS: 1}),
     "a vocabulary token is reserved, empty or holds whitespace"),
    (1, 0.7, counts_with(1, 1, (), {"the": 1, "cat sleeps": 1}),
     "a vocabulary token is reserved, empty or holds whitespace"),
    (3, 0.7, counts_with(3, 3, ("cat", "sleeps"), {"the": 1}),
     "order-3 counts after 'cat sleeps' but no order-2 counts after 'sleeps'"),
    # P(a) would read -0.6
    (1, 0.7, {1: {(): Counter(a=-1, b=2)}},
     "order-1 counts after '' are empty or hold a count below 1"),
    (2, 0.7, counts_with(2, 2, ("cat",), {"sleeps": 0}),
     "order-2 counts after 'cat' are empty or hold a count below 1"),
    # a query would divide by the zero total
    (1, 0.7, {1: {(): Counter()}}, "order-1 counts after '' are empty or hold a count below 1"),
    (2, 0.7, counts_with(2, 2, ("cat",), {}),
     "order-2 counts after 'cat' are empty or hold a count below 1"),
    (2, 0.7, counts_with(2, 2, ("the", "cat"), {"sleeps": 1}),
     "an order-2 context holds 1 tokens, not 2: 'the cat'"),
    (2, 0.7, counts_with(2, 1, ("the",), {"cat": 1}),
     "an order-1 context holds 0 tokens, not 1: 'the'"),
    # its own save would write lines that load rejects
    (1, 0.7, {1: {(): Counter(a=1, b=1)}, 2: {("a",): Counter(b=1)}},
     "order-2 counts after 'a' are outside orders 1..1"),
    (1, 0.7, {0: {(): Counter(a=1)}, 1: {(): Counter(a=1)}},
     "order-0 counts after '' are outside orders 1..1"),
    # the order and lambda checks come before the counts checks
    (0, 0.7, {}, "order must be >= 1"),
    (2, 1.0, {}, "lambda must be strictly between 0 and 1"),
])
def test_model_rejects_counts_training_never_makes(order, lam, counts, message):
    with pytest.raises(ValueError) as err:
        NGramModel(order, lam, counts)
    assert not isinstance(err.value, DataError)
    assert str(err.value) == message
