"""Every data fault the library detects is a DataError (and so still a
ValueError); a bad parameter value stays a plain ValueError."""

import re

import pytest

from surfreal import ConlluError, DataError, NGramModel, bleu4, evaluate, train_ngram
from surfreal.conllu_io import parse_conllu
from surfreal.deptree import shallow_transform, strip_alignment
from surfreal.linearizer import emit_training_pairs
from surfreal.ngram import BOS, UNK
from surfreal.realizer import NGramScorer, OracleScorer, beam_realize, build_form_lexicon
from surfreal.synthpipe import FilterPolicy, build_vocab
from toylang import ToyLang


def test_conllu_error_is_a_data_error():
    assert issubclass(ConlluError, DataError)
    assert issubclass(DataError, ValueError)
    with pytest.raises(ConlluError):
        parse_conllu("1\tbroken\n\n")


@pytest.mark.parametrize("sentences,message", [
    ([], "empty training corpus"),
    ([[], []], "empty training corpus"),
    ([["a"], ["b", BOS]], "sentence 2: reserved token '<s>'"),
    ([["a"], [UNK]], "sentence 2: reserved token '<unk>'"),
    ([["a"], ["b c"]], "sentence 2: token 'b c' is empty or contains whitespace"),
    ([["a"], ["b", ""]], "sentence 2: token '' is empty"),
    # whitespace that is not ASCII: a file separator, an ideographic space
    ([["a"], ["a\x1cb"]],
     re.escape("sentence 2: token 'a\\x1cb' is empty or contains whitespace")),
    ([["\u3000"]], re.escape("sentence 1: token '\\u3000' is empty or contains whitespace")),
])
def test_training_data_faults(sentences, message):
    with pytest.raises(DataError, match=message):
        train_ngram(sentences)


# what save writes for an order-3 model of the one sentence "The cat sleeps"
THE_CAT_SLEEPS = (b"ngram-counts-v1\torder=3\tlambda=0.7\tvocab=3\n"
                  b"1\t\tThe\t1\n1\t\tcat\t1\n1\t\tsleeps\t1\n"
                  b"2\t<s>\tThe\t1\n2\tThe\tcat\t1\n2\tcat\tsleeps\t1\n"
                  b"3\t<s> <s>\tThe\t1\n3\t<s> The\tcat\t1\n3\tThe cat\tsleeps\t1\n")
THE_CAT_SLEEPS_HEADER, *THE_CAT_SLEEPS_LINES = THE_CAT_SLEEPS.split(b"\n")[:-1]
# with an order-2 count, in its sorted place, of a token outside the unigram vocabulary
THE_CAT_ZEBRA = THE_CAT_SLEEPS.replace(b"\tsleeps\t1\n3", b"\tsleeps\t1\n2\tcat\tzebra\t1\n3")


def test_the_cat_sleeps_is_what_save_writes(tmp_path):
    path = tmp_path / "the_cat.ngrams"
    train_ngram([["The", "cat", "sleeps"]]).save(path)
    assert path.read_bytes() == THE_CAT_SLEEPS
    assert NGramModel.load(path).logprob("sleeps", ["cat"]) == pytest.approx(-0.2326, abs=1e-4)


@pytest.mark.parametrize("data", [
    b"not a model\n",
    b"ngram-counts-v1\torder=3\tlambda=0.7\tvocab=1\n1\t\ta\n",
    b"ngram-counts-v1\torder=3\tlambda=0.7\tvocab=1\n1\t\ta\tmany\n",
    b"ngram-counts-v1\torder=3\tlambda=0.7\tvocab=1\n1\t\ta\t-5\n",
    b"ngram-counts-v1\torder=3\tlambda=0.7\tvocab=1\n1\t\ta\t0\n",
    b"ngram-counts-v1\torder=3\tlambda=0.7\tvocab=1\n1\t\ta\t1\n7\t<s>\ta\t1\n",  # order > 3
    b"ngram-counts-v1\torder=3\tlambda=0.7\tvocab=1\n1\t\ta\t1\n0\t\ta\t1\n",  # order < 1
    b"ngram-counts-v1\torder=3\tlambda=0.7\tvocab=1\n1\t\ta\t1\n2\tx y z\ta\t1\n",
    b"ngram-counts-v1\torder=3\tlambda=0.7\tvocab=1\n1\t<s>\ta\t1\n",  # context at order 1
    b"ngram-counts-v1\torder=3\tlambda=0.7\tvocab=2\n1\t\ta\t1\n",
    b"ngram-counts-v1\torder=0\tlambda=0.7\tvocab=1\n1\t\ta\t1\n",
    b"ngram-counts-v1\torder=3\tlambda=1.5\tvocab=1\n1\t\ta\t1\n",
    b"ngram-counts-v1\torder=x\tlambda=0.7\tvocab=1\n",
    b"ngram-counts-v1\torder=1\tlambda=0.5\tvocab=1\n1\t\tcaf\xe9\t1\n",  # not UTF-8
    THE_CAT_ZEBRA,
    THE_CAT_SLEEPS + b"3\tdog cat\tsleeps\t1\n",  # context token outside it
    THE_CAT_SLEEPS + b"2\tcat\tsleeps\t4\n",  # a repeated (order, context, token)
    THE_CAT_SLEEPS + b"1\t\tcat\t1\n",  # a repeated unigram
    b"ngram-counts-v1\torder=1500\tlambda=0.7\tvocab=1\n1\t\ta\t1\n",  # orders 2..1500 missing
    THE_CAT_SLEEPS.replace(b"2\t<s>\tThe\t1\n2\tThe\tcat\t1\n2\tcat\tsleeps\t1\n", b""),
    THE_CAT_SLEEPS.replace(b"2\tcat\tsleeps\t1\n", b""),  # "The cat" observed, "cat" not
    THE_CAT_SLEEPS[:-1],  # no line feed at the end of the last line
    # vocabulary tokens train_ngram never counts
    *(b"ngram-counts-v1\torder=1\tlambda=0.7\tvocab=1\n1\t\t" + token + b"\t1\n"
      for token in (b"<s>", b"<unk>", b"", b"a b")),
    # numbers int() and float() read but save never writes
    *(THE_CAT_SLEEPS.replace(line, line[:-2] + count + b"\n", 1)
      for line in (b"\tThe\t1\n", b"\tcat\t1\n")  # first and later line of a context
      for count in (b"1_0", b"+2", b"02", b" 2", b"2 ", "\u0662".encode())),
    *(THE_CAT_SLEEPS.replace(b"\n1\t\tThe", b"\n" + order + b"\t\tThe")
      for order in (b"+1", b"01", b" 1", "\u0661".encode())),
    # on the last line, where no line of the same order spelled as save spells it follows
    *(THE_CAT_SLEEPS.replace(b"\n3\tThe cat", b"\n" + order + b"\tThe cat")
      for order in (b"+3", b"03", b" 3", "\u0663".encode())),
    *(THE_CAT_SLEEPS.replace(field, spelled) for field, spelled in (
        (b"order=3", b"order=+3"), (b"order=3", b"order=03"), (b"order=3", b"3"),
        (b"vocab=3", b"vocab=0_3"), (b"vocab=3", "vocab=\u0663".encode()),
        (b"lambda=0.7", b"lambda=0.70"), (b"lambda=0.7", b"lambda=+.7"),
        (b"lambda=0.7", b"lambda=7e-1"))),
])
def test_malformed_count_files(tmp_path, data):
    path = tmp_path / "bad.ngrams"
    path.write_bytes(data)
    with pytest.raises(DataError, match="not a valid n-gram count file"):
        NGramModel.load(path)


@pytest.mark.parametrize("data,reason", [
    (THE_CAT_SLEEPS.replace(b"2\tcat\tsleeps\t1\n", b""),
     "order-3 counts after 'The cat' but no order-2 counts after 'cat'"),
    (THE_CAT_SLEEPS[:-1], "the last line does not end with a line feed"),
    (b"ngram-counts-v1\torder=3\tlambda=0.7\tvocab=1\n1\t\ta\t1",
     "the last line does not end with a line feed"),
    (b"ngram-counts-v1\torder=1\tlambda=0.7\tvocab=3\n1\t\t\t1\n1\t\t<s>\t1\n1\t\tb\t1\n",
     "a vocabulary token is reserved, empty or holds whitespace"),
    (b"ngram-counts-v1\torder=1\tlambda=0.7\tvocab=2\n1\t\t<unk>\t1\n1\t\ta b\t1\n",
     "a vocabulary token is reserved, empty or holds whitespace"),
    (THE_CAT_ZEBRA,
     "order-2 counts after 'cat' hold a token outside the unigram vocabulary"),
    # lines out of save's order: the first two unigrams swapped, the order-3 lines
    # first, the first unigram last
    *((b"\n".join([THE_CAT_SLEEPS_HEADER, *lines]) + b"\n",
       "order-1 count for 'The' after '' does not sort after the line before it")
      for lines in ([THE_CAT_SLEEPS_LINES[1], THE_CAT_SLEEPS_LINES[0],
                     *THE_CAT_SLEEPS_LINES[2:]],
                    THE_CAT_SLEEPS_LINES[6:] + THE_CAT_SLEEPS_LINES[:6],
                    THE_CAT_SLEEPS_LINES[1:] + THE_CAT_SLEEPS_LINES[:1])),
    # a repeated line, next to the one it repeats and after a later context
    (THE_CAT_SLEEPS.replace(b"\tsleeps\t1\n3", b"\tsleeps\t1\n2\tcat\tsleeps\t4\n3"),
     "order-2 count for 'sleeps' after 'cat' does not sort after the line before it"),
    (THE_CAT_SLEEPS + b"1\t\tcat\t1\n",
     "order-1 count for 'cat' after '' does not sort after the line before it"),
    # count lines in save's order that break a model rule, which only the constructor checks
    *((THE_CAT_SLEEPS.replace(b"\tcat\tsleeps\t1\n", b"\tcat\tsleeps\t" + count + b"\n", 1),
       "order-2 counts after 'cat' are empty or hold a count below 1") for count in (b"0", b"-1")),
    (THE_CAT_SLEEPS.replace(b"\n2\tcat\t", b"\n2\tcat The\t"),
     "an order-2 context holds 1 tokens, not 2: 'cat The'"),
    (THE_CAT_SLEEPS + b"4\tThe cat sleeps\tThe\t1\n",
     "order-4 counts after 'The cat sleeps' are outside orders 1..3"),
    (THE_CAT_SLEEPS.replace(b"\n1\t\tThe", b"\n0\t\tThe\t1\n1\t\tThe"),
     "order-0 counts after '' are outside orders 1..3"),
    # a header vocabulary size other than the number of order-1 tokens, none among them
    (THE_CAT_SLEEPS.replace(b"vocab=3", b"vocab=2"), "vocab size mismatch: header 2, counted 3"),
    (b"ngram-counts-v1\torder=1\tlambda=0.7\tvocab=1\n",
     "vocab size mismatch: header 1, counted 0"),
    # the constructor's order and lambda checks
    (b"ngram-counts-v1\torder=0\tlambda=0.7\tvocab=0\n", "order must be >= 1"),
    *((b"ngram-counts-v1\torder=1\tlambda=" + lam + b"\tvocab=1\n1\t\ta\t1\n",
       "lambda must be strictly between 0 and 1") for lam in (b"1.5", b"0.0")),
])
def test_count_file_rejections_name_their_reason(tmp_path, data, reason):
    """Files save never writes: a context whose one-shorter suffix has no counts, a
    last line without its line feed, a vocabulary token training never counts, a
    token outside the vocabulary, lines out of save's sort order, a count below 1, a
    context of the wrong length, an order outside 1..order, a header vocabulary size
    that does not count the order-1 tokens, and a header order or lambda no model has."""
    path = tmp_path / "bad.ngrams"
    path.write_bytes(data)
    with pytest.raises(DataError) as err:
        NGramModel.load(path)
    assert str(err.value) == f"{path} is not a valid n-gram count file: {reason}"


@pytest.mark.parametrize("data", [
    THE_CAT_SLEEPS.replace(b"\n", b"\r\n"),
    THE_CAT_SLEEPS.replace(b"\n", b"\r"),
    THE_CAT_SLEEPS.replace(b"\n", b"\r\n", 1),
    THE_CAT_SLEEPS.replace(b"\tcat\t1\n", b"\tcat\t1\r\n", 1),
], ids=["crlf", "cr-only", "crlf-header-line", "crlf-count-line"])
def test_count_files_with_carriage_returns(tmp_path, data):
    """save ends each line with a line feed only, so a carriage return is not
    what save writes."""
    path = tmp_path / "crlf.ngrams"
    path.write_bytes(data)
    with pytest.raises(DataError, match="not a valid n-gram count file"):
        NGramModel.load(path)


def test_corpus_faults():
    refs = ToyLang(seed=3).corpus(2)
    hyps = [s.forms() for s in refs]
    for call in (lambda: evaluate([], []), lambda: evaluate(hyps[:1], refs),
                 lambda: bleu4([], []), lambda: bleu4(hyps, hyps[:1])):
        with pytest.raises(DataError):
            call()


def test_dataset_faults():
    refs = ToyLang(seed=3).corpus(2)
    unaligned = strip_alignment(shallow_transform(refs[0], 0))
    with pytest.raises(DataError, match="need reference forms"):
        emit_training_pairs([unaligned], 1, scoped=False, lexicon=None, rng_seed=0)
    with pytest.raises(DataError, match="needs an aligned reference"):
        OracleScorer(unaligned)


def test_usage_faults_are_not_data_errors():
    refs = ToyLang(seed=3).corpus(2)
    model = train_ngram([s.forms() for s in refs])
    sentence = shallow_transform(refs[0], 0)
    calls = [
        lambda: train_ngram([["a"]], order=0),
        lambda: train_ngram([["a"]], lam=1.0),
        lambda: evaluate([s.forms() for s in refs], refs, mode="fancy"),
        lambda: emit_training_pairs([sentence], 0, scoped=False, lexicon=None, rng_seed=0),
        lambda: beam_realize(sentence, NGramScorer(model), 0, build_form_lexicon(refs)),
        lambda: FilterPolicy(min_len=0),
        lambda: build_vocab([], 0),
    ]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert not isinstance(info.value, DataError), info.value
