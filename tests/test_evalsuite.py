import collections
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfreal.evalsuite import (
    BUCKET_LABELS,
    BleuCounts,
    ErrorCategory,
    bleu4,
    bucket_report,
    classify_output,
    corpus_lemma_table,
    detokenize,
    evaluate,
    pair_counts,
)
from conftest import attribution_ref, copula_ref
from toylang import ToyLang, tok
from surfreal.conllu_io import UdSentence


# --- BLEU ---------------------------------------------------------------


def test_bleu_identity_is_100(toy):
    refs = [s.forms() for s in toy.corpus(30, kind="mixed")]
    assert bleu4(refs, refs) == 100.0


def test_bleu_zero_when_no_fourgram_matches():
    hyp = "the cat is on the mat".split()
    ref = "the cat sat on the mat".split()
    assert bleu4([hyp], [ref]) == 0.0
    assert bleu4([["a", "b", "c", "d", "e"]], [["v", "w", "x", "y", "z"]]) == 0.0


def test_bleu_known_value_single_substitution():
    hyp = ["a", "b", "c", "d", "e"]
    ref = ["a", "b", "c", "d", "f"]
    # p = 4/5, 3/4, 2/3, 1/2; lengths equal so no brevity penalty
    expected = 100.0 * (4 / 5 * 3 / 4 * 2 / 3 * 1 / 2) ** 0.25
    assert abs(bleu4([hyp], [ref]) - expected) < 1e-9


def test_bleu_brevity_penalty():
    hyp = ["a", "b", "c", "d"]
    ref = ["a", "b", "c", "d", "e"]
    assert abs(bleu4([hyp], [ref]) - 100.0 * math.exp(1 - 5 / 4)) < 1e-9
    # longer hypotheses are not penalized
    assert bleu4([ref], [ref[:4] + ["e"]]) == 100.0


def test_bleu_zero_without_any_fourgrams():
    assert bleu4([["a", "b"]], [["a", "b"]]) == 0.0


def test_score_is_zero_without_hypothesis_tokens():
    # hand-built counts can have matches but no hypothesis length to divide by
    assert BleuCounts(matched=[1] * 4, total=[1] * 4, hyp_len=0, ref_len=3).score() == 0.0


def test_bleu_input_validation():
    with pytest.raises(ValueError):
        bleu4([], [])
    with pytest.raises(ValueError):
        bleu4([["a"]], [["a"], ["b"]])


def oracle_bleu(hyps, refs):
    """Independent corpus BLEU-4 (different n-gram extraction and totals)."""
    m = [0] * 4
    t = [0] * 4
    c = r = 0
    for hyp, ref in zip(hyps, refs):
        c += len(hyp)
        r += len(ref)
        for n in range(1, 5):
            hgrams = collections.Counter(zip(*[hyp[i:] for i in range(n)]))
            rgrams = collections.Counter(zip(*[ref[i:] for i in range(n)]))
            t[n - 1] += max(len(hyp) - n + 1, 0)
            for g, k in hgrams.items():
                m[n - 1] += min(k, rgrams.get(g, 0))
    if c == 0 or 0 in m or 0 in t:
        return 0.0
    gm = math.prod(m[i] / t[i] for i in range(4)) ** 0.25
    bp = 1.0 if c >= r else math.exp(1 - r / c)
    return 100.0 * bp * gm


def random_pair_corpus(rng, size):
    alphabet = list("abcdef")
    hyps, refs = [], []
    for _ in range(size):
        ref = [rng.choice(alphabet) for _ in range(rng.randint(1, 12))]
        hyp = list(ref)
        for _ in range(rng.randint(0, 3)):
            op = rng.choice(("swap", "sub", "del", "ins"))
            if op == "swap" and len(hyp) >= 2:
                i, j = rng.sample(range(len(hyp)), 2)
                hyp[i], hyp[j] = hyp[j], hyp[i]
            elif op == "sub":
                hyp[rng.randrange(len(hyp))] = rng.choice(alphabet)
            elif op == "del" and len(hyp) >= 2:
                hyp.pop(rng.randrange(len(hyp)))
            elif op == "ins":
                hyp.insert(rng.randrange(len(hyp) + 1), rng.choice(alphabet))
        hyps.append(hyp)
        refs.append(ref)
    return hyps, refs


def test_bleu_matches_independent_oracle():
    rng = random.Random(1234)
    for _ in range(25):
        hyps, refs = random_pair_corpus(rng, rng.randint(1, 30))
        assert abs(bleu4(hyps, refs) - oracle_bleu(hyps, refs)) < 1e-9


def test_bleu_is_invariant_under_pair_reordering():
    rng = random.Random(5)
    hyps, refs = random_pair_corpus(rng, 40)
    order = list(range(40))
    rng.shuffle(order)
    assert bleu4(hyps, refs) == bleu4([hyps[i] for i in order], [refs[i] for i in order])


def test_counts_addition_is_fieldwise():
    a = pair_counts(["a", "b", "c", "d"], ["a", "b", "c", "d"])
    b = pair_counts(["x", "y"], ["x", "z"])
    s = a + b
    assert s.matched == [m1 + m2 for m1, m2 in zip(a.matched, b.matched)]
    assert s.total == [t1 + t2 for t1, t2 in zip(a.total, b.total)]
    assert s.hyp_len == 6 and s.ref_len == 6
    assert BleuCounts() + a == a


_count_lists = st.lists(st.integers(0, 50), min_size=4, max_size=4)
_counts = st.builds(BleuCounts, matched=_count_lists, total=_count_lists,
                    hyp_len=st.integers(0, 200), ref_len=st.integers(0, 200))
_short_tokens = st.lists(st.sampled_from(["a", "b", "c", "."]), max_size=12)


@settings(max_examples=200, deadline=None)
@given(_counts, _counts, _counts)
def test_counts_addition_is_associative_and_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert BleuCounts() + a == a == a + BleuCounts()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_short_tokens, _short_tokens), max_size=15),
       st.lists(st.integers(0, 15), max_size=6))
def test_counts_sum_over_any_chunking_equals_one_pass(pairs, cuts):
    one_pass = BleuCounts()
    for hyp, ref in pairs:
        one_pass = one_pass + pair_counts(hyp, ref)
    bounds = [0, *sorted(min(cut, len(pairs)) for cut in cuts), len(pairs)]
    chunk_sums = []
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = BleuCounts()
        for hyp, ref in pairs[lo:hi]:
            chunk = chunk + pair_counts(hyp, ref)
        chunk_sums.append(chunk)
    chunked = BleuCounts()
    for chunk in reversed(chunk_sums):
        chunked = chunk + chunked
    assert chunked == one_pass
    assert chunked.score() == one_pass.score()


# --- detokenization -----------------------------------------------------


@pytest.mark.parametrize("tokens,expected", [
    (["Hello", ",", "world", "."], "Hello, world."),
    (["I", "'m", "here"], "I'm here"),
    (["do", "n't", "stop"], "don't stop"),
    (["John", "'s", "dog"], "John's dog"),
    (["the", "boys", "'", "toys"], "the boys' toys"),
    (["they", "'ll", "go", "!"], "they'll go!"),
    (["50", "%", "done", ";", "more", "?"], "50% done; more?"),
    (["(", "see", "page", "4", ")"], "(see page 4)"),
    (["[", "sic", "]"], "[sic]"),
    (["-lrb-", "x", "-rrb-"], "(x)"),
    (["a", "-lrb-", "b", ")", "c"], "a (b) c"),
    (['"', "hi", '"'], '"hi"'),
    (['"', "a", '"', "and", '"', "b", '"'], '"a" and "b"'),
    (["(", "(", "x", ")", ")"], "((x))"),
    (["one", ":", "two"], "one: two"),
    ([".", "a"], ". a"),
    (["plain", "words", "stay", "apart"], "plain words stay apart"),
])
def test_detokenize_cases(tokens, expected):
    assert detokenize(tokens) == expected


# --- error taxonomy -----------------------------------------------------


def test_classify_exact_match():
    ref = copula_ref("am")
    assert classify_output(["I", "am", "happy", "."], ref) is ErrorCategory.EXACT_MATCH


def test_classify_punctuation_only():
    ref = attribution_ref()
    forms = ref.forms()
    assert classify_output(forms[:-1], ref) is ErrorCategory.PUNCTUATION_ONLY
    # moved punctuation also counts
    moved = forms[:3] + [":"] + forms[3:-1]
    assert classify_output(moved, ref) is ErrorCategory.PUNCTUATION_ONLY


def test_inserted_foreign_punctuation_is_not_punctuation_only():
    ref = copula_ref("am")
    assert classify_output(["I", "am", "happy", "!", "."], ref) is ErrorCategory.OTHER


def test_classify_inflection_only_through_identity():
    ref = UdSentence(tokens=[
        tok(1, "The", "the", "DET", "Definite=Def|PronType=Art", 2, "det"),
        tok(2, "cats", "cat", "NOUN", "Number=Plur", 3, "nsubj"),
        tok(3, "see", "see", "VERB", "Mood=Ind|Tense=Pres", 0, "root"),
        tok(4, "a", "a", "DET", "Definite=Ind|PronType=Art", 5, "det"),
        tok(5, "dog", "dog", "NOUN", "Number=Sing", 3, "obj"),
        tok(6, ".", ".", "PUNCT", "_", 3, "punct"),
    ])
    # "cat" is unseen as a reference form, so it maps through identity and
    # still lines up with the reference lemma
    hyp = ["The", "cat", "see", "a", "dog", "."]
    assert classify_output(hyp, ref) is ErrorCategory.INFLECTION_ONLY


def test_classify_clitic_needs_extra_lemmas():
    ref = copula_ref("am")
    hyp = ["I", "'m", "happy", "."]
    assert classify_output(hyp, ref) is ErrorCategory.OTHER
    assert classify_output(hyp, ref, extra_lemmas={"'m": "be"}) \
        is ErrorCategory.INFLECTION_ONLY


def test_classify_reordering_is_other():
    ref = attribution_ref()
    forms = ref.forms()
    hyp = [forms[5], forms[4], forms[0], forms[1], forms[2], forms[3], forms[6]]
    assert classify_output(hyp, ref) is ErrorCategory.OTHER


def test_classify_length_change_is_other():
    ref = copula_ref("am")
    assert classify_output(["I", "am", "very", "happy", "."], ref) is ErrorCategory.OTHER


def test_corpus_lemma_table_first_wins():
    s1 = UdSentence(tokens=[tok(1, "saw", "see", "VERB", "_", 0, "root")])
    s2 = UdSentence(tokens=[tok(1, "saw", "saw", "NOUN", "_", 0, "root")])
    assert corpus_lemma_table([s1, s2])["saw"] == "see"
    assert corpus_lemma_table([s2, s1])["saw"] == "saw"


# --- buckets ------------------------------------------------------------


def test_bucket_labels_default():
    assert BUCKET_LABELS == (
        "<10", "10-20", "20-30", "30-40", "40-50", "50-60", "60+")


def test_bucket_assignment_boundaries():
    def one(ref_len):
        pair = (["a"], ["a"] * ref_len)
        rows = bucket_report([pair])
        return next(r.label for r in rows if r.count == 1)

    assert one(9) == "<10"
    assert one(10) == "10-20"
    assert one(19) == "10-20"
    assert one(20) == "20-30"
    assert one(60) == "60+"
    assert one(75) == "60+"


def test_empty_buckets_score_none():
    rows = bucket_report([(["a"] * 12, ["a"] * 12)])
    for row in rows:
        if row.label == "10-20":
            assert row.count == 1 and row.bleu == 100.0
        else:
            assert row.count == 0 and row.bleu is None


def test_bucket_counts_aggregate_to_corpus_totals():
    rng = random.Random(77)
    hyps, refs = random_pair_corpus(rng, 60)
    refs = [r * 6 for r in refs]  # stretch lengths across buckets
    hyps = [h * 6 for h in hyps]
    rows = bucket_report(list(zip(hyps, refs)))
    agg = BleuCounts()
    for row in rows:
        agg = agg + row.counts
    assert sum(row.count for row in rows) == 60
    assert agg.score() == bleu4(hyps, refs)


def _as_reference(forms: list[str]) -> UdSentence:
    return UdSentence(tokens=[tok(i, form, form, "X", "_", 0 if i == 1 else 1,
                                  "root" if i == 1 else "dep")
                              for i, form in enumerate(forms, start=1)])


_tokens = st.lists(st.sampled_from(["a", "b", "c", "d", "."]), min_size=1, max_size=70)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_tokens, _tokens), min_size=1, max_size=12))
def test_evaluate_buckets_are_bucket_report(pairs):
    hyps = [hyp for hyp, _ in pairs]
    report = evaluate(hyps, [_as_reference(ref) for _, ref in pairs])
    assert report.bucket_bleu == bucket_report(pairs)
    summed = BleuCounts()
    for row in report.bucket_bleu:
        summed = summed + row.counts
    corpus = BleuCounts()
    for hyp, ref in pairs:
        corpus = corpus + pair_counts(hyp, ref)
    assert summed == corpus
    assert sum(row.count for row in report.bucket_bleu) == len(pairs)
    assert report.corpus_bleu == corpus.score() == bleu4(hyps, [ref for _, ref in pairs])


# --- evaluate -----------------------------------------------------------


def test_evaluate_perfect_hypotheses(toy):
    refs = toy.corpus(50, kind="mixed")
    hyps = [s.forms() for s in refs]
    report = evaluate(hyps, refs)
    assert report.corpus_bleu == 100.0
    assert report.total == 50
    assert report.error_counts[ErrorCategory.EXACT_MATCH] == 50
    assert sum(report.error_counts.values()) == 50
    assert sum(row.count for row in report.bucket_bleu) == 50
    for row in report.bucket_bleu:
        assert row.bleu in (None, 100.0)


def test_evaluate_engineered_error_mix():
    toy = ToyLang(seed=13)
    refs, hyps = [], []
    for _ in range(3):  # exact
        s = toy.intrans_pp()
        refs.append(s)
        hyps.append(s.forms())
    for _ in range(2):  # punctuation only
        s = toy.adj_tv()
        refs.append(s)
        hyps.append(s.forms()[:-1])
    for _ in range(2):  # inflection only (clitic resolved by corpus table)
        refs.append(copula_ref("am"))
        hyps.append(["I", "'m", "happy", "."])
    refs.append(copula_ref("'m"))  # teaches the corpus table 'm -> be
    hyps.append(refs[-1].forms())
    for _ in range(2):  # other: scrambled
        s = toy.attribution()
        refs.append(s)
        f = s.forms()
        hyps.append(list(reversed(f)))
    report = evaluate(hyps, refs)
    assert report.error_counts == {
        ErrorCategory.EXACT_MATCH: 4,
        ErrorCategory.PUNCTUATION_ONLY: 2,
        ErrorCategory.INFLECTION_ONLY: 2,
        ErrorCategory.OTHER: 2,
    }


def bracket_fixture():
    ref = UdSentence(tokens=[
        tok(1, "He", "he", "PRON", "Case=Nom|Number=Sing|Person=3", 2, "nsubj"),
        tok(2, "said", "say", "VERB", "Mood=Ind|Tense=Past", 0, "root"),
        tok(3, "(", "(", "PUNCT", "_", 4, "punct"),
        tok(4, "quietly", "quietly", "ADV", "_", 2, "advmod"),
        tok(5, ")", ")", "PUNCT", "_", 4, "punct"),
        tok(6, "that", "that", "SCONJ", "_", 9, "mark"),
        tok(7, "all", "all", "PRON", "_", 9, "nsubj"),
        tok(8, "was", "be", "AUX", "Mood=Ind|Number=Sing|Tense=Past", 9, "cop"),
        tok(9, "fine", "fine", "ADJ", "Degree=Pos", 2, "ccomp"),
        tok(10, ".", ".", "PUNCT", "_", 2, "punct"),
    ])
    hyp = [t if t not in "()" else {"(": "-lrb-", ")": "-rrb-"}[t] for t in ref.forms()]
    return [hyp], [ref]


def test_evaluate_mode_changes_bleu_not_classification():
    hyps, refs = bracket_fixture()
    tokenized = evaluate(hyps, refs, mode="tokenized")
    detok = evaluate(hyps, refs, mode="detokenized")
    # escaped brackets only line up with the reference after detokenization
    assert detok.corpus_bleu == 100.0
    assert 0.0 < tokenized.corpus_bleu < 100.0
    for report in (tokenized, detok):
        assert report.error_counts[ErrorCategory.OTHER] == 1
    assert detok.mode == "detokenized"


def test_evaluate_validation_errors(toy):
    refs = toy.corpus(3)
    with pytest.raises(ValueError):
        evaluate([], [])
    with pytest.raises(ValueError):
        evaluate([["a"]], refs)
    with pytest.raises(ValueError):
        evaluate([s.forms() for s in refs], refs, mode="fancy")


def test_report_formats(toy):
    refs = toy.corpus(10, kind="mixed")
    report = evaluate([s.forms() for s in refs], refs)
    table = report.format_table()
    assert "corpus BLEU-4: 100.00" in table
    assert "ExactMatch" in table and "60+" in table
    kv = dict(line.split("=", 1) for line in report.format_kv().strip().split("\n"))
    assert kv["total"] == "10"
    assert kv["corpus_bleu"] == "100.000000"
    assert kv["count_ExactMatch"] == "10"
    assert "bucket_<10_count" in kv
