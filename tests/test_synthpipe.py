import pickle
import unicodedata
from collections import Counter

import pytest

from surfreal.conllu_io import (
    ConlluError,
    iter_blocks,
    parse_block,
    parse_conllu,
    serialize_conllu,
)
from surfreal.deptree import shallow_to_conllu
from surfreal.synthpipe import (
    REASON_LENGTH,
    REASON_OVERLAP,
    FilterPolicy,
    SynthStats,
    build_synthetic_dataset,
    build_vocab,
    filter_sentence,
    nfc_sentence,
)
from toylang import ToyLang, tok
from surfreal.conllu_io import UdSentence


def test_vocab_min_count_boundary():
    counts = Counter({"the": 5, "cat": 2, "weasel": 1})
    sentences = [list(counts.elements())]
    assert "cat" in build_vocab(sentences, 2)
    assert "cat" not in build_vocab(sentences, 3)
    assert len(build_vocab(sentences, 1)) == 3
    with pytest.raises(ValueError):
        build_vocab(sentences, 0)


def test_build_vocab_counts_instances():
    vocab = build_vocab([["a", "b", "a"], ["a"]], min_count=3)
    assert "a" in vocab and "b" not in vocab


def test_policy_validation():
    policy = FilterPolicy()
    bad = [{"min_len": 0}, {"min_len": 10, "max_len": 5}, {"overlap_threshold": 1.5}]
    for fields in bad:
        for build in (lambda: FilterPolicy(**fields),
                      lambda: policy._replace(**fields),
                      lambda: FilterPolicy._make({**policy._asdict(), **fields}.values())):
            with pytest.raises(ValueError):
                build()
    with pytest.raises(AttributeError):
        policy.min_len = 3
    assert pickle.loads(pickle.dumps(policy)) == policy == (5, 50, 0.8)


def test_filter_checks_length_before_overlap():
    vocab = build_vocab([["a"]], 1)
    policy = FilterPolicy(min_len=5, max_len=50, overlap_threshold=0.8)
    # all-unknown but too short: the reported reason must be length
    assert filter_sentence(["x", "y", "z"], vocab, policy) == REASON_LENGTH
    assert filter_sentence(["a"] * 51, vocab, policy) == REASON_LENGTH


def test_overlap_threshold_is_inclusive():
    vocab = build_vocab([["a"]], 1)
    policy = FilterPolicy(min_len=1, max_len=50, overlap_threshold=0.8)
    assert filter_sentence(["a"] * 8 + ["x", "y"], vocab, policy) is None
    assert filter_sentence(["a"] * 7 + ["x", "y", "z"], vocab, policy) == REASON_OVERLAP


def test_overlap_counts_instances_case_sensitively():
    vocab = build_vocab([["the"]], 1)
    policy = FilterPolicy(min_len=1, max_len=50, overlap_threshold=0.8)
    # duplicates each count; "The" is not "the"
    assert filter_sentence(["the"] * 4 + ["x"], vocab, policy) is None
    assert filter_sentence(["The"] * 4 + ["x"], vocab, policy) is not None


def test_nfc_applies_to_forms_and_lemmas():
    decomposed = "café"
    s = UdSentence(tokens=[tok(1, decomposed, decomposed, "NOUN", "_", 0, "root")])
    out = nfc_sentence(s)
    assert out.tokens[0].form == "café"
    assert out.tokens[0].lemma == "café"
    assert unicodedata.is_normalized("NFC", out.tokens[0].form)
    composed = unicodedata.normalize("NFC", decomposed)
    # already NFC: the same tokens come back
    clean = _accent_sentence_nfc()
    assert nfc_sentence(clean).tokens == clean.tokens
    # only the lemma decomposed: only the lemma changes
    lemma_only = UdSentence(tokens=[tok(1, composed, decomposed, "NOUN", "_", 0, "root")])
    [got] = nfc_sentence(lemma_only).tokens
    assert got == lemma_only.tokens[0]._replace(lemma=composed)
    # FEATS and MISC are not normalized, whether or not form and lemma are
    for form in ("x", decomposed):
        raw = tok(1, form, "x", "X", decomposed, 0, "root")._replace(misc=decomposed)
        [got] = nfc_sentence(UdSentence(tokens=[raw])).tokens
        assert got == raw._replace(form=unicodedata.normalize("NFC", form))
        assert (got.feats, got.misc) == (decomposed, decomposed)


def _accent_sentence_nfc():
    return UdSentence(tokens=[t._replace(form=unicodedata.normalize("NFC", t.form),
                                      lemma=unicodedata.normalize("NFC", t.lemma))
                              for t in _accent_sentence().tokens])


def _accent_sentence():
    decomposed = "café"
    return UdSentence(tokens=[
        tok(1, "the", "the", "DET", "Definite=Def|PronType=Art", 2, "det"),
        tok(2, decomposed, decomposed, "NOUN", "Number=Sing", 4, "nsubj"),
        tok(3, "is", "be", "AUX", "Mood=Ind|Number=Sing|Person=3|Tense=Pres", 4, "cop"),
        tok(4, "quiet", "quiet", "ADJ", "Degree=Pos", 0, "root"),
        tok(5, ".", ".", "PUNCT", "_", 4, "punct"),
    ])


def test_normalization_happens_before_overlap_check():
    text = serialize_conllu([_accent_sentence()])
    vocab = build_vocab([["the", "café", "is", "quiet", "."]], 1)
    dataset, stats = build_synthetic_dataset(text, vocab, FilterPolicy(), rng_seed=0)
    assert stats.kept_count == 1
    assert "café" in dataset[0].reference_forms


BAD_BLOCKS = (
    "1\tbroken\n\n",
    "1\ta\ta\tX\t_\t_\tzz\tdep\t_\t_\n\n",
    "2\ta\ta\tX\t_\t_\t0\troot\t_\t_\n\n",
)


def noisy_corpus_text(seed: int, n: int) -> str:
    toy = ToyLang(seed=seed)
    gold = toy.corpus_with_oov(n, oov_rate=0.25, kind="mixed")
    parts = []
    for i, s in enumerate(gold):
        parts.append(serialize_conllu([s]))
        if i % 9 == 4:
            parts.append(BAD_BLOCKS[i % len(BAD_BLOCKS)])
    return "".join(parts)


def reference_vocab(seed: int = 909, n: int = 400) -> frozenset[str]:
    toy = ToyLang(seed=seed)
    return build_vocab([s.forms() for s in toy.corpus(n, kind="mixed")], min_count=1)


def oracle_sift(text: str, vocab_tokens: set, policy: FilterPolicy):
    """One-pass reimplementation of parse+normalize+filter for cross-checking."""
    kept = []
    total = by_len = by_ov = bad = 0
    for block in iter_blocks(text):
        total += 1
        try:
            parsed = parse_block(block)
        except ConlluError:
            bad += 1
            continue
        forms = [unicodedata.normalize("NFC", t.form) for t in parsed.tokens]
        lemmas = [unicodedata.normalize("NFC", t.lemma) for t in parsed.tokens]
        if any(f == "" or any(c.isspace() for c in f) for f in forms):
            bad += 1  # refs.txt could not carry the sentence
            continue
        if len(forms) < policy.min_len or len(forms) > policy.max_len:
            by_len += 1
            continue
        hits = sum(1 for f in forms if f in vocab_tokens)
        if hits / len(forms) < policy.overlap_threshold:
            by_ov += 1
            continue
        kept.append((forms, lemmas))
    return kept, (total, len(kept), by_len, by_ov, bad)


def test_pipeline_matches_independent_filter_oracle():
    text = noisy_corpus_text(seed=31, n=250)
    vocab = reference_vocab()
    policy = FilterPolicy()
    dataset, stats = build_synthetic_dataset(text, vocab, policy, rng_seed=7)
    kept, (total, n_kept, by_len, by_ov, bad) = oracle_sift(text, vocab, policy)
    assert (stats.input_count, stats.kept_count) == (total, n_kept)
    assert stats.rejected_by_length == by_len
    assert stats.rejected_by_overlap == by_ov
    assert stats.rejected_malformed == bad
    assert stats.reconciles()
    # the fixture must actually exercise every branch
    assert min(n_kept, by_len, by_ov, bad) > 0
    assert len(dataset) == n_kept
    for shallow, (forms, lemmas) in zip(dataset, kept):
        assert list(shallow.reference_forms) == forms
        assert shallow.tree.size() == len(forms)
        assert sorted(shallow.alignment.values()) == list(range(len(forms)))
        got_lemmas = sorted(info.lemma for info in shallow.tree.nodes.values())
        assert got_lemmas == sorted(lemmas)


def test_forms_refs_cannot_carry_count_as_malformed():
    corpus = ToyLang(seed=77).corpus(40, kind="mixed")
    vocab = build_vocab([s.forms() for s in corpus], min_count=1)
    odd = {3: "New York", 8: "", 13: "a\u00a0b", 21: "tab\x0bbed", 30: " lead"}
    for i, form in odd.items():
        corpus[i].tokens[0] = corpus[i].tokens[0]._replace(form=form)
    text = noisy_corpus_text(seed=78, n=30) + serialize_conllu(corpus)
    policy = FilterPolicy(min_len=1, max_len=100, overlap_threshold=0.0)
    dataset, stats = build_synthetic_dataset(text, vocab, policy, rng_seed=5)
    kept, (total, n_kept, by_len, by_ov, bad) = oracle_sift(text, vocab, policy)
    assert (stats.input_count, stats.kept_count, stats.rejected_malformed) == (total, n_kept, bad)
    parse_failures = sum(1 for _ in iter_blocks(text)) - len(parse_conllu(text, strict=False))
    assert stats.rejected_malformed == parse_failures + len(odd)
    assert stats.reconciles()
    for shallow in dataset:
        assert " ".join(shallow.reference_forms).split() == list(shallow.reference_forms)


def test_rerun_is_identical():
    text = noisy_corpus_text(seed=55, n=120)
    vocab = reference_vocab()
    first, s1 = build_synthetic_dataset(text, vocab, FilterPolicy(), rng_seed=3)
    second, s2 = build_synthetic_dataset(text, vocab, FilterPolicy(), rng_seed=3)
    assert [shallow_to_conllu(a) for a in first] == [shallow_to_conllu(b) for b in second]
    assert s1 == s2


def test_seeds_follow_kept_index_not_block_index():
    toy = ToyLang(seed=99)
    gold = toy.corpus(10, kind="medium")
    vocab = build_vocab([s.forms() for s in gold], min_count=1)
    clean = "".join(serialize_conllu([s]) for s in gold)
    noisy_parts = []
    for i, s in enumerate(gold):
        if i == 5:
            noisy_parts.append(BAD_BLOCKS[0])
        noisy_parts.append(serialize_conllu([s]))
    noisy = "".join(noisy_parts)
    a, _ = build_synthetic_dataset(clean, vocab, FilterPolicy(), rng_seed=40)
    b, _ = build_synthetic_dataset(noisy, vocab, FilterPolicy(), rng_seed=40)
    assert [shallow_to_conllu(x) for x in a] == [shallow_to_conllu(y) for y in b]


def test_parallel_run_matches_serial():
    text = noisy_corpus_text(seed=14, n=160)
    vocab = reference_vocab()
    serial, s1 = build_synthetic_dataset(text, vocab, FilterPolicy(), rng_seed=8, jobs=1)
    parallel, s3 = build_synthetic_dataset(text, vocab, FilterPolicy(), rng_seed=8, jobs=3)
    assert [shallow_to_conllu(a) for a in serial] == [shallow_to_conllu(b) for b in parallel]
    assert s1 == s3


@pytest.mark.parametrize("jobs", [1, 2])
def test_carriage_return_at_the_end_of_the_input_fails_it(jobs):
    text = noisy_corpus_text(seed=14, n=160)
    text = text[:-2] + "\r\n\n"
    assert text.index("\r") == len(text) - 3
    with pytest.raises(ConlluError, match="carriage return"):
        build_synthetic_dataset(text, reference_vocab(), FilterPolicy(), rng_seed=8, jobs=jobs)


def test_bigger_vocab_and_looser_policy_keep_at_least_as_much():
    text = noisy_corpus_text(seed=21, n=150)
    toy = ToyLang(seed=909)
    token_lists = [s.forms() for s in toy.corpus(400, kind="mixed")]
    _, strict_vocab_stats = build_synthetic_dataset(
        text, build_vocab(token_lists, min_count=4), FilterPolicy(), rng_seed=0)
    _, loose_vocab_stats = build_synthetic_dataset(
        text, build_vocab(token_lists, min_count=1), FilterPolicy(), rng_seed=0)
    assert loose_vocab_stats.kept_count >= strict_vocab_stats.kept_count
    vocab = build_vocab(token_lists, min_count=1)
    _, tight = build_synthetic_dataset(
        text, vocab, FilterPolicy(overlap_threshold=0.95), rng_seed=0)
    _, loose = build_synthetic_dataset(
        text, vocab, FilterPolicy(overlap_threshold=0.5), rng_seed=0)
    assert loose.kept_count >= tight.kept_count
    _, wide = build_synthetic_dataset(
        text, vocab, FilterPolicy(min_len=1, max_len=100), rng_seed=0)
    assert wide.kept_count >= loose.kept_count
    assert wide.rejected_by_length == 0


def test_empty_input_gives_empty_dataset_and_zero_stats():
    dataset, stats = build_synthetic_dataset("", reference_vocab(n=10), FilterPolicy(), 0)
    assert dataset == []
    assert stats == SynthStats()
    assert stats.reconciles()


def test_stats_report_format():
    _, stats = build_synthetic_dataset(
        noisy_corpus_text(seed=2, n=40), reference_vocab(), FilterPolicy(), 0)
    lines = stats.as_report().strip().split("\n")
    parsed = dict(line.split("=") for line in lines)
    assert set(parsed) == {"input_count", "kept_count", "rejected_by_length",
                           "rejected_by_overlap", "rejected_malformed"}
    assert int(parsed["input_count"]) == stats.input_count
