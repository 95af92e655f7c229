"""Acceptance suite: one test per numbered criterion.

Each test prints and registers a single verdict line of the form
``[acceptance] criterion N: PASS (...)``; the conftest summary hook
reprints all lines after the test table.
"""

import contextlib
import math
import random
import time
import unicodedata
from collections import Counter

from conftest import attribution_ref, copula_ref, record_acceptance
from test_evalsuite import oracle_bleu, random_pair_corpus
from test_realizer import all_completions, nopruning_best
from test_synthpipe import noisy_corpus_text, reference_vocab
from toylang import ToyLang, tok

from surfreal.conllu_io import ConlluError, UdSentence, iter_blocks, parse_block, serialize_conllu
from surfreal.deptree import (
    DepTree,
    build_tree,
    shallow_to_conllu,
    shallow_transform,
    strip_alignment,
)
from surfreal.evalsuite import (
    BleuCounts,
    ErrorCategory,
    bleu4,
    bucket_report,
    classify_output,
    corpus_lemma_table,
    evaluate,
    pair_counts,
)
from surfreal.ngram import NGramModel, train_ngram
from surfreal.realizer import (
    NGramScorer,
    OracleScorer,
    beam_realize,
    build_form_lexicon,
    lexicon_coverage,
)
from surfreal.synthpipe import FilterPolicy, build_synthetic_dataset, nfc_sentence


@contextlib.contextmanager
def criterion(n: int, detail: dict):
    try:
        yield
    except BaseException as err:
        record_acceptance(f"[acceptance] criterion {n}: FAIL ({detail.get('msg') or err})")
        raise
    record_acceptance(f"[acceptance] criterion {n}: PASS ({detail['msg']})")


def test_criterion_1_oracle_round_trip():
    detail = {}
    with criterion(1, detail):
        start = time.monotonic()
        toy = ToyLang(seed=888)
        gold = toy.corpus(200, kind="mixed")
        # a spread of sentences gets a novel inflected noun the lexicon
        # cannot have seen (surface != lemma), so coverage genuinely fails
        novel = set()
        for i in range(3, 200, 17):
            j = next((k for k, t in enumerate(gold[i].tokens) if t.upos == "NOUN"), None)
            if j is None:
                continue
            lemma = f"zq{i}x"
            tokens = list(gold[i].tokens)
            tokens[j] = tokens[j]._replace(form=lemma + "s", lemma=lemma)
            gold[i] = UdSentence(tokens=tokens)
            novel.add(i)
        assert novel
        lexicon = build_form_lexicon([s for i, s in enumerate(gold) if i not in novel])
        dataset = [shallow_transform(s, seed=i) for i, s in enumerate(gold)]
        flagged = {i for i, s in enumerate(dataset)
                   if lexicon_coverage([s], lexicon).covered_sentences == 0}
        assert flagged == novel
        report = lexicon_coverage(dataset, lexicon)
        assert report.total_sentences == 200
        assert report.covered_sentences == 200 - len(flagged)

        exact = 0
        hyps, refs = [], []
        for i, s in enumerate(dataset):
            result = beam_realize(s, OracleScorer(s), 1, lexicon)
            reproduced = tuple(result.tokens) == s.reference_forms
            assert reproduced == (i not in flagged)
            exact += reproduced
            if i not in flagged:
                hyps.append(result.tokens)
                refs.append(list(s.reference_forms))
        covered_bleu = bleu4(hyps, refs)
        assert covered_bleu == 100.0
        elapsed = time.monotonic() - start
        assert elapsed < 10.0
        detail["msg"] = (f"{exact}/200 exact, {len(flagged)} flagged uncovered, "
                         f"covered BLEU {covered_bleu:.1f}, {elapsed:.2f}s")


def test_criterion_2_bleu_oracle_equivalence():
    detail = {}
    with criterion(2, detail):
        rng = random.Random(424242)
        worst = 0.0
        for _ in range(25):
            hyps, refs = random_pair_corpus(rng, rng.randint(1, 10))
            worst = max(worst, abs(bleu4(hyps, refs) - oracle_bleu(hyps, refs)))
        assert worst < 1e-9
        identity = [s.forms() for s in ToyLang(seed=5).corpus(8, kind="mixed")]
        assert bleu4(identity, identity) == 100.0
        assert bleu4([["q", "w", "e", "r", "t"]], [["a", "b", "c", "d", "e"]]) == 0.0
        detail["msg"] = f"25 random corpora, max |delta| {worst:.2e}; identity 100; disjoint 0"


def test_criterion_3_beam_equals_exhaustive():
    detail = {}
    with criterion(3, detail):
        toy = ToyLang(seed=246)
        gold = toy.corpus(50, kind="short")
        lexicon = build_form_lexicon(gold)
        model = train_ngram([s.forms() for s in gold], order=3, lam=0.7)
        scorer = NGramScorer(model)
        for i, sentence in enumerate(gold):
            s = strip_alignment(shallow_transform(sentence, seed=i))
            n = s.tree.size()
            assert n <= 6
            cand_sizes = [len(lexicon.candidates_for(info)) for info in s.tree.nodes.values()]
            beam_bound = math.factorial(6) * max(cand_sizes)
            assert math.factorial(n) * math.prod(cand_sizes) <= beam_bound
            result = beam_realize(s, scorer, beam_bound, lexicon)
            completions = all_completions(s, scorer, lexicon)
            assert result.score == max(score for score, _ in completions)
            tie_break_emitted, _, tie_break_score = nopruning_best(s, scorer, lexicon)
            assert result.score == tie_break_score
            assert result.tokens == [form for _, form in tie_break_emitted]
            assert result.node_order == [nid for nid, _ in tie_break_emitted]
        detail["msg"] = ("50/50 sentences (n<=6, beam 720*max-forms) match the "
                         "exhaustive argmax, scores and token sequences")


def test_criterion_4_restriction_invariants():
    detail = {}
    with criterion(4, detail):
        toy = ToyLang(seed=99123)
        gold = toy.corpus(1000, kind="mixed")
        lexicon = build_form_lexicon(gold)
        model = train_ngram([s.forms() for s in gold], order=3, lam=0.7)
        scorer = NGramScorer(model)
        longest = 0
        for i, sentence in enumerate(gold):
            s = strip_alignment(shallow_transform(sentence, seed=i))
            longest = max(longest, s.tree.size())
            scores = []
            for beam in (1, 5, 25):
                result = beam_realize(s, scorer, beam, lexicon)
                assert len(result.tokens) == s.tree.size()
                assert sorted(result.node_order) == s.tree.node_ids()
                for nid, form in zip(result.node_order, result.tokens):
                    allowed = {f for f, _ in lexicon.candidates_for(s.tree.nodes[nid])}
                    assert form in allowed
                scores.append(result.score)
            assert scores[0] <= scores[1] <= scores[2]
        detail["msg"] = (f"1000 trees (max n={longest}) x beams 1/5/25: permutation, "
                         "candidate forms, length, monotone best score")


def _edges(tree: DepTree) -> set:
    return {(kid, parent) for parent, kids in tree.children.items() for kid in kids}


def test_criterion_5_synth_conformance():
    detail = {}
    with criterion(5, detail):
        text = noisy_corpus_text(seed=3141, n=1000)
        vocab = reference_vocab()
        policy = FilterPolicy()
        dataset, stats = build_synthetic_dataset(text, vocab, policy, rng_seed=17)
        assert stats.reconciles()
        assert stats.input_count >= 1000
        assert stats.kept_count == len(dataset) > 0
        assert stats.rejected_by_length > 0
        assert stats.rejected_by_overlap > 0
        assert stats.rejected_malformed > 0
        for s in dataset:
            n = s.tree.size()
            assert 5 <= n <= 50
            in_vocab = sum(1 for f in s.reference_forms if f in vocab)
            assert in_vocab / n >= 0.8

        kept_originals = []
        for block in iter_blocks(text):
            try:
                parsed = nfc_sentence(parse_block(block))
            except ConlluError:
                continue
            forms = parsed.forms()
            if not 5 <= len(forms) <= 50:
                continue
            if sum(1 for f in forms if f in vocab) / len(forms) < 0.8:
                continue
            kept_originals.append(parsed)
        assert len(kept_originals) == len(dataset)
        for shallow, orig in zip(dataset, kept_originals):
            back = {nid: pos + 1 for nid, pos in shallow.alignment.items()}
            orig_tree = build_tree(orig)
            assert {(back[k], back[p]) for k, p in _edges(shallow.tree)} == _edges(orig_tree)
            assert back[shallow.tree.root] == orig_tree.root
            for nid, info in shallow.tree.nodes.items():
                assert info == orig_tree.nodes[back[nid]]
            assert list(shallow.reference_forms) == orig.forms()

        rerun, stats2 = build_synthetic_dataset(text, vocab, policy, rng_seed=17)
        blob = serialize_conllu(shallow_to_conllu(s) for s in dataset)
        assert blob == serialize_conllu(shallow_to_conllu(s) for s in rerun)
        assert stats == stats2
        detail["msg"] = (f"kept {stats.kept_count}/{stats.input_count} "
                         f"(len {stats.rejected_by_length}, overlap {stats.rejected_by_overlap}, "
                         f"malformed {stats.rejected_malformed}); isomorphism and "
                         "byte-identical rerun hold")


def test_criterion_6_ngram_model(tmp_path):
    detail = {}
    with criterion(6, detail):
        refs = [s.forms() for s in ToyLang(seed=852).corpus(120, kind="mixed")]
        model = train_ngram(refs, order=3, lam=0.7)
        rng = random.Random(9)
        vocab = sorted(model.vocab)
        worst = 0.0
        for _ in range(100):
            history = [rng.choice(vocab + ["zzz-oov"]) for _ in range(rng.randint(0, 5))]
            total = sum(model.prob(w, history) for w in vocab) + model.prob("<unk>", history)
            worst = max(worst, abs(total - 1.0))
        assert worst < 1e-9

        hand = train_ngram([["a", "a", "a"]], order=1, lam=0.7)
        p = hand.prob("a", [])
        assert p == 0.7 * 1.0 + (1 - 0.7) * (1 / 2)  # lambda*ML + (1-lambda)*uniform
        assert abs(p - 0.85) < 1e-12

        path = tmp_path / "model.ngrams"
        model.save(path)
        loaded = NGramModel.load(path)
        for _ in range(200):
            w = rng.choice(vocab + ["<unk>"])
            history = [rng.choice(vocab) for _ in range(rng.randint(0, 4))]
            assert loaded.logprob(w, history) == model.logprob(w, history)
        detail["msg"] = (f"100 contexts max |sum(P)-1| = {worst:.2e}; unigram hand case "
                         f"P(a)={p}; save/load scores bit-identical on 200 queries")


def _plural_subject_pair(toy: ToyLang):
    """Reference with a plural subject; hypothesis uses the bare lemma."""
    nf, nl, nfe = toy.noun("Plur")
    vf, vl, vfe = toy.verb("Plur", "Pres")
    of, ol, ofe = toy.noun("Sing")
    ref = UdSentence(tokens=[
        tok(1, "The", "the", "DET", "Definite=Def|PronType=Art", 2, "det"),
        tok(2, nf, nl, "NOUN", nfe, 3, "nsubj"),
        tok(3, vf, vl, "VERB", vfe, 0, "root"),
        tok(4, "a", "a", "DET", "Definite=Ind|PronType=Art", 5, "det"),
        tok(5, of, ol, "NOUN", ofe, 3, "obj"),
        tok(6, ".", ".", "PUNCT", "_", 3, "punct"),
    ])
    return ["The", nl, vf, "a", of, "."], ref


def _past_verb_pair(toy: ToyLang):
    """Reference with a past verb; hypothesis uses the bare lemma."""
    nf, nl, nfe = toy.noun("Plur")
    vf, vl, vfe = toy.verb("Plur", "Past")
    while vf == vl:  # read/read etc. would collapse to an exact match
        vf, vl, vfe = toy.verb("Plur", "Past")
    ref = UdSentence(tokens=[
        tok(1, "The", "the", "DET", "Definite=Def|PronType=Art", 2, "det"),
        tok(2, nf, nl, "NOUN", nfe, 3, "nsubj"),
        tok(3, vf, vl, "VERB", vfe, 0, "root"),
        tok(4, ".", ".", "PUNCT", "_", 3, "punct"),
    ])
    return ["The", nf, vl, "."], ref


def _hand_suite():
    """40 hypothesis/reference pairs with hand-assigned categories."""
    toy = ToyLang(seed=66)
    items = []
    # 12 exact matches; the clitic and past-tense items also seed the
    # corpus form->lemma table used by the inflection checks below
    for _ in range(10):
        s = toy.sentence("medium")
        items.append((s.forms(), s, ErrorCategory.EXACT_MATCH))
    clitic = copula_ref("'m")
    items.append((clitic.forms(), clitic, ErrorCategory.EXACT_MATCH))
    past = UdSentence(tokens=[
        tok(1, "The", "the", "DET", "Definite=Def|PronType=Art", 2, "det"),
        tok(2, "cats", "cat", "NOUN", "Number=Plur", 3, "nsubj"),
        tok(3, "came", "come", "VERB", "Mood=Ind|Tense=Past|VerbForm=Fin", 0, "root"),
        tok(4, ".", ".", "PUNCT", "_", 3, "punct"),
    ])
    items.append((past.forms(), past, ErrorCategory.EXACT_MATCH))

    # 8 punctuation-only: dropped or displaced punctuation
    for _ in range(6):
        s = toy.sentence("medium")
        items.append((s.forms()[:-1], s, ErrorCategory.PUNCTUATION_ONLY))
    for _ in range(2):
        s = toy.attribution()
        forms = s.forms()
        items.append(([":"] + forms[:-1], s, ErrorCategory.PUNCTUATION_ONLY))

    # 10 inflection-only: number, tense, and the am/'m clitic alternation
    for _ in range(4):
        items.append(_plural_subject_pair(toy) + (ErrorCategory.INFLECTION_ONLY,))
    for _ in range(4):
        items.append(_past_verb_pair(toy) + (ErrorCategory.INFLECTION_ONLY,))
    for _ in range(2):
        items.append((["I", "'m", "happy", "."], copula_ref("am"),
                      ErrorCategory.INFLECTION_ONLY))

    # 10 other: reorderings, wrong lexeme, length changes, mixed errors
    for _ in range(2):
        s = attribution_ref()  # "From the AP comes this story :"
        forms = s.forms()
        hyp = [forms[4], forms[5], forms[3], forms[0].lower(), forms[1], forms[2], forms[6]]
        items.append((hyp, s, ErrorCategory.OTHER))
    for _ in range(2):
        s = toy.intrans_pp()
        forms = s.forms()
        forms[1], forms[5] = forms[5], forms[1]
        items.append((forms, s, ErrorCategory.OTHER))
    for _ in range(2):
        s = toy.short_tv()
        forms = s.forms()
        forms[4] = "zebra"
        items.append((forms, s, ErrorCategory.OTHER))
    for _ in range(2):
        s = toy.adj_tv()
        items.append((s.forms()[2:], s, ErrorCategory.OTHER))
    for _ in range(2):
        hyp, ref = _plural_subject_pair(toy)
        items.append((hyp[:-1], ref, ErrorCategory.OTHER))  # inflection + lost punct
    return items


def test_criterion_7_error_taxonomy():
    detail = {}
    with criterion(7, detail):
        items = _hand_suite()
        assert len(items) == 40
        hyps = [hyp for hyp, _, _ in items]
        refs = [ref for _, ref, _ in items]
        expected = [cat for _, _, cat in items]
        assert len(set(expected)) == 4
        table = corpus_lemma_table(refs)
        got = [classify_output(h, r, extra_lemmas=table) for h, r in zip(hyps, refs)]
        assert got == expected
        report = evaluate(hyps, refs)
        assert report.error_counts == dict(Counter(expected))
        assert sum(report.error_counts.values()) == 40

        # partition arithmetic on synthetic counts shaped like a full run
        target = {ErrorCategory.EXACT_MATCH: 1159,
                  ErrorCategory.PUNCTUATION_ONLY: 43,
                  ErrorCategory.INFLECTION_ONLY: 123,
                  ErrorCategory.OTHER: 653}
        toy = ToyLang(seed=4096)
        big_hyps, big_refs = [], []
        for _ in range(target[ErrorCategory.EXACT_MATCH]):
            s = toy.sentence("medium")
            big_hyps.append(s.forms())
            big_refs.append(s)
        for _ in range(target[ErrorCategory.PUNCTUATION_ONLY]):
            s = toy.sentence("medium")
            big_hyps.append(s.forms()[:-1])
            big_refs.append(s)
        for _ in range(target[ErrorCategory.INFLECTION_ONLY]):
            hyp, ref = _plural_subject_pair(toy)
            big_hyps.append(hyp)
            big_refs.append(ref)
        for _ in range(target[ErrorCategory.OTHER]):
            s = toy.sentence("medium")
            big_hyps.append(list(reversed(s.forms())))
            big_refs.append(s)
        big = evaluate(big_hyps, big_refs)
        assert big.total == 1978
        assert big.error_counts == target
        assert sum(big.error_counts.values()) == 1978
        detail["msg"] = ("40/40 hand labels reproduced; synthetic counts partition as "
                         "1159+43+123+653=1978")


def test_criterion_8_data_ablation_direction():
    detail = {}
    with criterion(8, detail):
        gold = ToyLang(seed=2024).corpus(1000, kind="mixed")
        extra_refs = [s.forms() for s in ToyLang(seed=777).corpus(20000, kind="mixed")]
        dev = ToyLang(seed=515).corpus(150, kind="medium")
        lexicon = build_form_lexicon(gold)
        gold_refs = [s.forms() for s in gold]
        lm_gold = train_ngram(gold_refs, order=3, lam=0.7)
        lm_augmented = train_ngram(gold_refs + extra_refs, order=3, lam=0.7)
        shallow = [strip_alignment(shallow_transform(s, seed=i)) for i, s in enumerate(dev)]
        dev_refs = [s.forms() for s in dev]
        scores = {}
        for name, lm in (("gold-only", lm_gold), ("augmented", lm_augmented)):
            scorer = NGramScorer(lm)
            hyps = [beam_realize(s, scorer, 10, lexicon).tokens for s in shallow]
            scores[name] = bleu4(hyps, dev_refs)
        assert scores["augmented"] >= scores["gold-only"]
        detail["msg"] = (f"dev BLEU {scores['gold-only']:.2f} (1k refs) -> "
                         f"{scores['augmented']:.2f} (1k+20k refs)")


def test_criterion_9_bucket_report():
    detail = {}
    with criterion(9, detail):
        toy = ToyLang(seed=7070)
        rng = random.Random(3)
        pairs = []
        sentences = []
        for clauses in (2, 3, 6, 9, 12, 14, 16):  # chain(c) has 4c tokens
            for _ in range(4):
                s = toy.chain(clauses)
                ref = s.forms()
                hyp = list(ref)
                if rng.random() < 0.5:
                    i, j = sorted(rng.sample(range(len(hyp) - 1), 2))
                    hyp[i], hyp[j] = hyp[j], hyp[i]
                pairs.append((hyp, ref))
                sentences.append(s)
        rows = bucket_report(pairs)
        assert [r.label for r in rows] == [
            "<10", "10-20", "20-30", "30-40", "40-50", "50-60", "60+"]
        assert [r.count for r in rows] == [4] * 7
        aggregated = BleuCounts()
        for row in rows:
            aggregated = aggregated + row.counts
        direct = BleuCounts()
        for hyp, ref in pairs:
            direct = direct + pair_counts(hyp, ref)
        assert aggregated == direct
        assert aggregated.score() == bleu4([h for h, _ in pairs], [r for _, r in pairs])
        report = evaluate([h for h, _ in pairs], sentences)
        assert report.bucket_bleu == rows
        detail["msg"] = ("7 buckets <10..60+ each populated; bucket counts aggregate "
                         "exactly to corpus totals")
