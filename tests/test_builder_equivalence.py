"""The contracts of the files the commands read, and of a trained model's
distributions; no test here compares with a copy of earlier code.

``make-dataset``'s CoNLL-U file and refs.txt, and a saved model's count file,
with byte edits, either fail to load with DataError (so the command exits 2)
or load as what their own encoding or ``save`` writes back; each P(. | ctx)
of a trained model is the module's Jelinek-Mercer recursion over its counts
and sums to 1.  Each contract test counts its outcomes and checks that its
generator reached both the rejecting and the accepting path.
"""
import math
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfreal import cli
from surfreal.conllu_io import DataError, UdSentence, UdToken, serialize_conllu
from surfreal.deptree import ShallowSentence, shallow_to_conllu, shallow_transform
from surfreal.ngram import BOS, UNK, NGramModel, train_ngram
from treegen import FIELDS, heads

# --- byte edits ------------------------------------------------------------------


def byte_edit(draw, data: bytearray, alphabet: list[bytes]) -> None:
    """Delete, insert or replace one byte or byte run of ``data``: anywhere, next to a
    tab or a line feed (where a field is spelled and a line ends) or at the last byte,
    each as often; inserted bytes come from ``alphabet`` or are any one or two."""
    rng = draw(st.randoms(use_true_random=False))  # places spread over the file
    ends = [i for i, byte in enumerate(data) if byte in b"\t\n"] or [0]
    i = rng.choice([rng.randrange(len(data) + 1), rng.choice(ends) + rng.randrange(2),
                    max(len(data) - 1, 0)])
    edit = draw(st.sampled_from(["delete", "insert", "replace"]))
    width = draw(st.integers(1, 3)) if edit != "insert" else 0
    data[i:i + width] = b"" if edit == "delete" else draw(st.sampled_from(alphabet)
                                                          | st.binary(min_size=1, max_size=2))


# --- shallow datasets ----------------------------------------------------------------


GOLD_WORDS = st.sampled_from(["a", "b", "A", "(", "café", "3", "_", "=", "original_id=1"])


@st.composite
def gold_sentences(draw, max_tokens: int = 5) -> UdSentence:
    """Trees whose forms and lemmas a token line can carry, as make-dataset requires,
    with any other fields."""
    n = draw(st.integers(1, max_tokens))
    head = draw(heads(n))
    return UdSentence(tokens=[UdToken(i, draw(GOLD_WORDS), draw(GOLD_WORDS), draw(FIELDS),
                                      draw(FIELDS), draw(FIELDS), head[i], draw(FIELDS),
                                      draw(FIELDS), draw(FIELDS))
                              for i in range(1, n + 1)])


# bytes the shallow CoNLL-U and refs.txt hold, and ones they must not
SHALLOW_BYTES = [b"\t", b"\n", b"\n\n", b" ", b"\r", b"_", b"=", b"|", b"0", b"1", b"2", b"9",
                 b"-", b".", b"#", b"a", b"original_id=", "\u0663".encode(), b"\x85", b"\xff"]


def test_shallow_datasets_load_only_as_their_own_encoding():
    """make-dataset's CoNLL-U file (aligned or stripped) and its refs.txt (or none, as
    realize reads), with byte edits: loading them either raises DataError, so the command
    exits 2, or gives a dataset whose encoding loads back to it; unedited, the dataset
    make-dataset wrote, encoded to the same bytes."""
    outcomes = Counter()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(gold_sentences(), min_size=1, max_size=4), st.integers(0, 2**32),
           st.booleans(), st.booleans(), st.data())
    def check(gold, seed, aligned, with_refs, data):
        made = [shallow_transform(s, seed + i) for i, s in enumerate(gold)]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            cli._write_shallow_outputs(out / "made", made, "shallow")
            conllu = out / "made" / ("shallow.conllu" if aligned else "shallow.stripped.conllu")
            files = [bytearray(conllu.read_bytes()), bytearray((out / "made" / "refs.txt")
                                                               .read_bytes())]
            edits = data.draw(st.integers(0, 4))
            for _ in range(edits):
                byte_edit(data.draw, files[data.draw(st.integers(0, with_refs))], SHALLOW_BYTES)

            def load(conllu_bytes, refs_bytes):
                (out / "in.conllu").write_bytes(conllu_bytes)
                (out / "refs.txt").write_bytes(refs_bytes)
                return cli._load_shallow_dataset(out / "in.conllu",
                                                 out / "refs.txt" if with_refs else None)

            try:
                dataset = load(*files)
            except DataError:
                assert edits, "make-dataset's own files do not load"
                outcomes["rejected"] += 1
                return
            encoded = [serialize_conllu(shallow_to_conllu(s) for s in dataset).encode(),
                       "".join(" ".join(s.reference_forms) + "\n" for s in dataset).encode()
                       if with_refs else files[1]]
            assert load(*encoded) == dataset
            for s in dataset:  # each node has one reference position, and each position one
                assert s.alignment is None or sorted(s.alignment.values()) == list(
                    range(len(s.tree.nodes)))
            if not edits:
                assert dataset == [
                    ShallowSentence(s.tree, s.reference_forms if with_refs else None,
                                    s.alignment if aligned else None) for s in made]
            loaded = "same bytes" if encoded == files else "fixed point"
            assert loaded == "same bytes" or edits
            outcomes[f"{'edited' if edits else 'unedited'}, {loaded}"] += 1

    check()
    edited_loaded = outcomes["edited, same bytes"] + outcomes["edited, fixed point"]
    assert outcomes["rejected"] and edited_loaded, outcomes


# --- count files and distributions --------------------------------------------------

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


# bytes save writes and the ones its spellings exclude
FILE_BYTES = [b"\t", b"\n", b" ", b"\r", b"0", b"1", b"2", b"-", b"+", b"_", b"a", b"b", b"=",
              b"<s>", b"<unk>", "\u0662".encode(), b"\x00", b"\xff", b"e"]


@st.composite
def byte_edited_files(draw) -> bytes:
    """A saved model's bytes with one to four byte edits."""
    data = bytearray(draw(count_files()).encode("utf-8"))
    for _ in range(draw(st.integers(1, 4))):
        byte_edit(draw, data, FILE_BYTES)
    return bytes(data)


def test_count_files_load_only_as_their_own_save():
    """A count file either raises DataError in load, or is the file save writes of the
    model load returns, byte for byte: no rule load or the constructor drops lets in
    a file that save would not write."""
    outcomes = Counter()

    @settings(max_examples=400, deadline=None)
    @given(count_files().map(lambda text: text.encode("utf-8")) | byte_edited_files())
    def check(data):
        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp) / "m.ngrams", Path(tmp) / "again.ngrams"
            path.write_bytes(data)
            try:
                model = NGramModel.load(path)
            except DataError:
                outcomes["rejected"] += 1
                return
            model.save(again)
            assert again.read_bytes() == data
            outcomes["loaded"] += 1

    check()
    assert outcomes["rejected"] and outcomes["loaded"], outcomes


LM_TOKENS = ["a", "b", "c", "d"]


def test_distributions_are_the_jelinek_mercer_recursion_of_the_counts():
    """Each P(. | ctx) is the module's recursion over ``model.counts``, bit for bit, and
    sums to 1 over the vocabulary and <unk>; ctx is the history's last order-1 tokens
    after begin markers; logprob is its log, memoized once per (token, context), or a
    DataError where it underflows to 0.0 (a deep order with a lambda near 1)."""
    outcomes = Counter()

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(LM_TOKENS), min_size=1, max_size=6),
                    min_size=1, max_size=6),
           # order 200 with a lambda of 0.999 underflows <unk> after begin markers only
           st.tuples(st.integers(1, 5), st.floats(0.01, 0.99))
           | st.tuples(st.just(200), st.sampled_from([0.5, 0.999])),
           st.data())
    def check(corpus, order_and_lam, data):
        order, lam = order_and_lam
        model = train_ngram(corpus, order=order, lam=lam)
        counts = model.counts
        tokens = sorted(counts[1][()])
        assert set(tokens) == model.vocab
        queried = set()
        for query in range(data.draw(st.integers(1, 8))):
            # the first history is empty: begin markers only
            length = data.draw(st.sampled_from([0, order - 2, order - 1, order, order + 3])
                               | st.integers(0, order + 3)) if query else 0
            words = data.draw(st.lists(st.sampled_from(LM_TOKENS + ["zz"]), min_size=1,
                                       max_size=8))
            history = [words[i % len(words)] for i in range(max(length, 0))]
            if data.draw(st.booleans()):
                history = tuple(history)
            padded = (BOS,) * (order - 1) + tuple(history)
            ctx = padded[len(padded) - (order - 1):]
            assert model.context_key(history) == ctx
            total = 0.0
            for token in tokens + [UNK, "zz"]:
                p = 1.0 / (len(tokens) + 1)
                for k in range(1, order + 1):
                    seen = counts[k].get(ctx[order - k:])  # the last k-1 context tokens
                    if seen:
                        p = lam * (seen[token] / sum(seen.values())) + (1.0 - lam) * p
                assert model.prob(token, history) == p
                total += p if token != "zz" else 0.0  # "zz" is scored as <unk>
                if p:
                    assert model.logprob(token, history) == math.log(p)
                    queried.add((token, ctx))
                    outcomes["finite"] += 1
                else:
                    with pytest.raises(DataError, match="underflows to 0.0"):
                        model.logprob(token, history)
                    outcomes["underflow"] += 1
            assert abs(total - 1.0) < 1e-9
        assert len(model._memo) == len(queried)

    check()
    assert outcomes["finite"] and outcomes["underflow"], outcomes
