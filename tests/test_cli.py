import concurrent.futures
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from surfreal.cli import main
from surfreal.conllu_io import parse_conllu, serialize_conllu
from test_builder_equivalence import save_order
from test_synthpipe import noisy_corpus_text
from toylang import ToyLang


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full CLI run: gold -> dataset -> pairs -> LM -> realization."""
    root = tmp_path_factory.mktemp("pipe")
    toy = ToyLang(seed=4242)
    gold = toy.corpus(60, kind="mixed")
    gold_path = root / "gold.conllu"
    gold_path.write_text(serialize_conllu(gold), encoding="utf-8")
    assert main(["make-dataset", "--in", str(gold_path),
                 "--out", str(root / "ds"), "--seed", "5"]) == 0
    assert main(["pairs", "--in", str(root / "ds" / "shallow.conllu"),
                 "--refs", str(root / "ds" / "refs.txt"),
                 "--out", str(root / "pairs"), "--k", "2", "--seed", "3"]) == 0
    assert main(["train-lm", "--refs", str(root / "ds" / "refs.txt"),
                 "--out", str(root / "lm.ngrams")]) == 0
    assert main(["realize", "--in", str(root / "ds" / "shallow.stripped.conllu"),
                 "--lm", str(root / "lm.ngrams"), "--lexicon", str(gold_path),
                 "--beam", "5", "--out", str(root / "hyp.txt")]) == 0
    return {"root": root, "gold_path": gold_path, "gold": gold}


def test_make_dataset_outputs(pipeline):
    ds = pipeline["root"] / "ds"
    aligned = (ds / "shallow.conllu").read_text(encoding="utf-8")
    stripped = (ds / "shallow.stripped.conllu").read_text(encoding="utf-8")
    refs = (ds / "refs.txt").read_text(encoding="utf-8").splitlines()
    assert len(refs) == 60
    assert "original_id=" in aligned
    assert "original_id" not in stripped
    shuffled = parse_conllu(aligned)
    assert len(shuffled) == 60
    for sentence, ref_line, orig in zip(shuffled, refs, pipeline["gold"]):
        assert all(t.form == "_" for t in sentence.tokens)
        assert len(sentence.tokens) == len(ref_line.split())
        assert ref_line.split() == orig.forms()
    assert json.loads((ds / "manifest.json").read_text())["subcommand"] == "make-dataset"


def test_what_make_dataset_writes(tmp_path):
    """Each row keeps its token's lemma, upos, feats and deprel under the seeded
    shuffle's ids, in id order, with the head renamed too; form, xpos and deps are
    ``_``, and misc is the token's 1-based place in the sentence (``_`` in the stripped
    file); comments are dropped, and refs.txt holds the forms."""
    gold = tmp_path / "gold.conllu"
    gold.write_text("# sent_id = 1\n"
                    "1\tThe\tthe\tDET\tDT\tDefinite=Def\t2\tdet\t2:det\tSpaceAfter=No\n"
                    "2\tcat\tcat\tNOUN\tNN\tNumber=Sing\t3\tnsubj\t_\t_\n"
                    "3\tsleeps\tsleep\tVERB\tVBZ\t_\t0\troot\t_\t_\n\n"
                    "1\tGo\tgo\tVERB\tVB\tMood=Imp\t0\troot\t_\t_\n"
                    "2\t!\t!\tPUNCT\t.\t_\t1\tpunct\t_\t_\n\n", encoding="utf-8")
    assert main(["make-dataset", "--in", str(gold), "--out", str(tmp_path / "ds"),
                 "--seed", "4"]) == 0
    aligned = ("1\t_\tsleep\tVERB\t_\t_\t0\troot\t_\toriginal_id=3\n"
               "2\t_\tcat\tNOUN\t_\tNumber=Sing\t1\tnsubj\t_\toriginal_id=2\n"
               "3\t_\tthe\tDET\t_\tDefinite=Def\t2\tdet\t_\toriginal_id=1\n\n"
               "1\t_\tgo\tVERB\t_\tMood=Imp\t0\troot\t_\toriginal_id=1\n"
               "2\t_\t!\tPUNCT\t_\t_\t1\tpunct\t_\toriginal_id=2\n\n")
    ds = tmp_path / "ds"
    assert (ds / "shallow.conllu").read_text(encoding="utf-8") == aligned
    assert (ds / "shallow.stripped.conllu").read_text(encoding="utf-8") == re.sub(
        "original_id=[0-9]", "_", aligned)
    assert (ds / "refs.txt").read_text(encoding="utf-8") == "The cat sleeps\nGo !\n"


def test_pairs_outputs(pipeline):
    root = pipeline["root"]
    src = (root / "pairs" / "pairs.src").read_text(encoding="utf-8").splitlines()
    tgt = (root / "pairs" / "pairs.tgt").read_text(encoding="utf-8").splitlines()
    refs = (root / "ds" / "refs.txt").read_text(encoding="utf-8").splitlines()
    assert len(src) == len(tgt) == 120  # 60 sentences x k=2, epoch blocks
    assert tgt == refs + refs
    for s, t in zip(src, tgt):
        assert sorted(s.split()) != []
        assert len(s.split()) == len(t.split())  # plain lemma linearization


def test_pairs_with_forms_and_scoping(pipeline, tmp_path):
    root = pipeline["root"]
    rc = main(["pairs", "--in", str(root / "ds" / "shallow.conllu"),
               "--refs", str(root / "ds" / "refs.txt"), "--out", str(tmp_path),
               "--k", "1", "--scoped", "--with-forms",
               "--lexicon", str(pipeline["gold_path"])])
    assert rc == 0
    src = (tmp_path / "pairs.src").read_text(encoding="utf-8")
    assert "<forms>" in src
    assert "(" in src and ")" in src
    # the/The alternation is harvested from the gold treebank
    assert "the =" in src


def test_train_lm_artifact(pipeline):
    root = pipeline["root"]
    header = (root / "lm.ngrams").read_text(encoding="utf-8").split("\n", 1)[0]
    assert header.startswith("ngram-counts-v1\torder=3\tlambda=0.7")
    manifest = json.loads((root / "lm.ngrams.manifest.json").read_text())
    assert manifest["config"] == {"order": 3, "lambda": 0.7}
    assert set(manifest["outputs"]) == {"lm.ngrams"}


def test_realize_output_shape(pipeline):
    lines = (pipeline["root"] / "hyp.txt").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 60
    for line, orig in zip(lines, pipeline["gold"]):
        assert len(line.split()) == len(orig.tokens)


def test_realize_rerun_and_jobs_are_byte_identical(pipeline, tmp_path):
    root = pipeline["root"]
    for jobs in ("1", "3"):
        rc = main(["realize", "--in", str(root / "ds" / "shallow.stripped.conllu"),
                   "--lm", str(root / "lm.ngrams"), "--lexicon", str(pipeline["gold_path"]),
                   "--beam", "5", "--out", str(tmp_path / f"hyp{jobs}.txt"),
                   "--jobs", jobs])
        assert rc == 0
    base = (root / "hyp.txt").read_bytes()
    assert (tmp_path / "hyp1.txt").read_bytes() == base
    assert (tmp_path / "hyp3.txt").read_bytes() == base


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_manifest_keeps_inputs_that_share_a_name(pipeline, tmp_path):
    root = pipeline["root"]
    inputs = json.loads((root / "hyp.txt.manifest.json").read_text())["inputs"]
    assert set(inputs) == {"shallow.stripped.conllu", "lm.ngrams", "gold.conllu"}
    # --in and --lexicon both named gold.conllu: each keeps its own digest
    shallow = tmp_path / "gold.conllu"
    shallow.write_bytes((root / "ds" / "shallow.stripped.conllu").read_bytes())
    assert main(["realize", "--in", str(shallow), "--lm", str(root / "lm.ngrams"),
                 "--lexicon", str(pipeline["gold_path"]), "--beam", "5",
                 "--out", str(tmp_path / "hyp.txt")]) == 0
    inputs = json.loads((tmp_path / "hyp.txt.manifest.json").read_text())["inputs"]
    assert inputs == {str(shallow): sha256(shallow),
                      str(pipeline["gold_path"]): sha256(pipeline["gold_path"]),
                      "lm.ngrams": sha256(root / "lm.ngrams")}


def test_make_dataset_rerun_is_byte_identical(pipeline, tmp_path):
    rc = main(["make-dataset", "--in", str(pipeline["gold_path"]),
               "--out", str(tmp_path / "ds"), "--seed", "5"])
    assert rc == 0
    old = pipeline["root"] / "ds"
    for name in ("shallow.conllu", "shallow.stripped.conllu", "refs.txt", "manifest.json"):
        assert (tmp_path / "ds" / name).read_bytes() == (old / name).read_bytes()


def test_eval_perfect_hypotheses(pipeline, tmp_path, capsys):
    root = pipeline["root"]
    report_path = tmp_path / "report.txt"
    rc = main(["eval", "--hyp", str(root / "ds" / "refs.txt"),
               "--ref", str(pipeline["gold_path"]), "--out", str(report_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "corpus BLEU-4: 100.00" in out
    kv = dict(line.split("=", 1)
              for line in report_path.read_text(encoding="utf-8").strip().split("\n"))
    assert kv["corpus_bleu"] == "100.000000"
    assert kv["count_ExactMatch"] == "60"
    assert kv["total"] == "60"
    assert (tmp_path / "report.txt.manifest.json").exists()


def test_token_lines_end_at_line_feed_only(pipeline, tmp_path, capsys):
    """A form feed or U+2028 inside a line is whitespace, not a line break."""
    refs = tmp_path / "refs.txt"
    refs.write_text("the cat\x0csleeps .\nthe dog runs .\n", encoding="utf-8")
    lm = tmp_path / "m.ngrams"
    assert main(["train-lm", "--refs", str(refs), "--out", str(lm), "--order", "2"]) == 0
    assert "on 2 sentences" in capsys.readouterr().err
    assert not any(line.startswith("2\t<s>\tsleeps\t")
                   for line in lm.read_text(encoding="utf-8").split("\n"))
    lines = (pipeline["root"] / "ds" / "refs.txt").read_text(encoding="utf-8").split("\n")
    lines[0] = lines[0].replace(" ", "\u2028", 1)
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("\n".join(lines), encoding="utf-8")
    assert main(["eval", "--hyp", str(hyp), "--ref", str(pipeline["gold_path"])]) == 0
    assert "corpus BLEU-4: 100.00" in capsys.readouterr().out


def test_eval_realized_output(pipeline, capsys):
    root = pipeline["root"]
    rc = main(["eval", "--hyp", str(root / "hyp.txt"), "--ref", str(pipeline["gold_path"])])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mode: tokenized" in out
    assert "BLEU by reference length:" in out
    assert "ExactMatch" in out


def test_eval_jobs_parity(pipeline, capsys):
    root = pipeline["root"]
    args = ["eval", "--hyp", str(root / "hyp.txt"), "--ref", str(pipeline["gold_path"])]
    assert main(args + ["--jobs", "1"]) == 0
    first = capsys.readouterr().out
    assert main(args + ["--jobs", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("command", ["eval", "synth"])
def test_eval_starts_no_worker_process(command, pipeline, tmp_path, usable_cpus, monkeypatch,
                                      capsys):
    """eval and synth work in their own process, whatever --jobs and the CPU count say."""
    root = pipeline["root"]
    usable_cpus(3)

    def no_pool(*args, **kwargs):
        pytest.fail(f"sr {command} started a process pool")

    # parallel_map imports the pool class from concurrent.futures when it starts workers
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    if command == "eval":
        assert len(pipeline["gold"]) >= 6  # two pairs per job at --jobs 3
        assert main(["eval", "--hyp", str(root / "hyp.txt"), "--ref", str(pipeline["gold_path"]),
                     "--jobs", "3"]) == 0
        assert "corpus BLEU-4:" in capsys.readouterr().out
    else:
        # 444 blocks in about 237,000 characters: work enough for three jobs
        parsed = tmp_path / "parsed.conllu"
        parsed.write_text(noisy_corpus_text(seed=32, n=400), encoding="utf-8")
        assert main(["synth", "--in", str(parsed), "--vocab-from", str(pipeline["gold_path"]),
                     "--min-count", "1", "--out", str(tmp_path / "synth"), "--jobs", "3"]) == 0
        assert "input_count=444" in capsys.readouterr().err


def test_eval_detokenized_mode(pipeline, capsys):
    root = pipeline["root"]
    rc = main(["eval", "--hyp", str(root / "hyp.txt"),
               "--ref", str(pipeline["gold_path"]), "--detokenized"])
    assert rc == 0
    assert "mode: detokenized" in capsys.readouterr().out


def test_synth_command(tmp_path, capsys):
    toy = ToyLang(seed=808)
    gold_path = tmp_path / "gold.conllu"
    gold_path.write_text(serialize_conllu(toy.corpus(150, kind="mixed")), encoding="utf-8")
    parsed_path = tmp_path / "parsed.conllu"
    parsed_path.write_text(noisy_corpus_text(seed=606, n=200), encoding="utf-8")
    rc = main(["synth", "--in", str(parsed_path), "--vocab-from", str(gold_path),
               "--out", str(tmp_path / "synth"), "--min-count", "1", "--seed", "9"])
    assert rc == 0
    stats = dict(
        line.split("=") for line in
        (tmp_path / "synth" / "stats.txt").read_text(encoding="utf-8").strip().split("\n"))
    total = int(stats["input_count"])
    assert total == int(stats["kept_count"]) + int(stats["rejected_by_length"]) + \
        int(stats["rejected_by_overlap"]) + int(stats["rejected_malformed"])
    assert int(stats["rejected_malformed"]) > 0
    kept = parse_conllu((tmp_path / "synth" / "synth.conllu").read_text(encoding="utf-8"))
    assert len(kept) == int(stats["kept_count"]) > 0
    assert "input_count=" in capsys.readouterr().err


def test_usage_errors(tmp_path, capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["pairs"]) == 1  # missing required flags
    assert main(["--help"]) == 0
    gold = tmp_path / "g.conllu"
    gold.write_text(serialize_conllu(ToyLang(seed=1).corpus(3)), encoding="utf-8")
    assert main(["make-dataset", "--in", str(gold), "--out", str(tmp_path / "d")]) == 0
    ds = tmp_path / "d"
    base = ["pairs", "--in", str(ds / "shallow.conllu"), "--refs", str(ds / "refs.txt"),
            "--out", str(tmp_path / "p")]
    assert main(base + ["--with-forms"]) == 1  # no --lexicon
    assert main(base + ["--lexicon", str(gold)]) == 1  # no --with-forms
    assert main(base + ["--k", "0"]) == 1
    assert main(["train-lm", "--refs", str(ds / "refs.txt"),
                 "--out", str(tmp_path / "m"), "--order", "0"]) == 1
    assert main(["synth", "--in", str(gold), "--vocab-from", str(gold),
                 "--out", str(tmp_path / "s"), "--overlap", "1.5"]) == 1
    # --jobs is a process count: below 1 is a usage error, before any work
    assert main(["synth", "--in", str(gold), "--vocab-from", str(gold),
                 "--out", str(tmp_path / "s"), "--jobs", "-3"]) == 1
    assert main(["realize", "--in", str(ds / "shallow.conllu"), "--lm", str(tmp_path / "m"),
                 "--lexicon", str(gold), "--out", str(tmp_path / "h.txt"), "--jobs", "0"]) == 1
    assert main(["eval", "--hyp", str(ds / "refs.txt"), "--ref", str(gold),
                 "--jobs", "0"]) == 1
    assert not (tmp_path / "s").exists() and not (tmp_path / "h.txt").exists()
    # --beam is a hypothesis count, checked before any input is read, so a bad
    # value exits 1 even on an empty shallow file, itself a data error (exit 2)
    assert main(["train-lm", "--refs", str(ds / "refs.txt"), "--out", str(tmp_path / "lm")]) == 0
    empty = tmp_path / "empty.conllu"
    empty.write_text("", encoding="utf-8")
    assert main(["realize", "--in", str(empty), "--lm", str(tmp_path / "lm"), "--lexicon",
                 str(gold), "--out", str(tmp_path / "h0.txt"), "--beam", "0"]) == 1
    assert not (tmp_path / "h0.txt").exists()
    assert not (tmp_path / "h0.txt.manifest.json").exists()
    # so are the other counts and --lambda: with every input missing (a data error,
    # exit 2, once reading starts) a bad value still exits 1 and writes nothing
    missing = str(tmp_path / "missing")
    for argv in (
        ["pairs", "--in", missing, "--refs", missing, "--out", str(tmp_path / "x1"), "--k", "0"],
        ["train-lm", "--refs", missing, "--out", str(tmp_path / "x2"), "--order", "0"],
        ["train-lm", "--refs", missing, "--out", str(tmp_path / "x3"), "--lambda", "1.5"],
        ["train-lm", "--refs", missing, "--out", str(tmp_path / "x4"), "--lambda", "0"],
        ["synth", "--in", missing, "--vocab-from", missing, "--out", str(tmp_path / "x5"),
         "--min-count", "0"],
        # values that are not numbers
        ["realize", "--in", missing, "--lm", missing, "--lexicon", missing,
         "--out", str(tmp_path / "x7"), "--beam", "x"],
        ["pairs", "--in", missing, "--refs", missing, "--out", str(tmp_path / "x8"), "--k", "1.5"],
        ["train-lm", "--refs", missing, "--out", str(tmp_path / "x9"), "--lambda", "x"],
    ):
        assert main(argv) == 1, argv
    assert not list(tmp_path.glob("x*"))
    err = capsys.readouterr().err
    for message in ("invalid int value: 'x'", "invalid int value: '1.5'",
                    "invalid float value: 'x'"):
        assert message in err
    assert main(["train-lm", "--refs", missing, "--out", str(tmp_path / "x6")]) == 2


def test_data_errors(tmp_path, capsys):
    good = serialize_conllu(ToyLang(seed=2).corpus(4))
    gold = tmp_path / "g.conllu"
    gold.write_text(good, encoding="utf-8")
    assert main(["make-dataset", "--in", str(tmp_path / "missing.conllu"),
                 "--out", str(tmp_path / "d0")]) == 2
    empty = tmp_path / "empty.conllu"
    empty.write_text("", encoding="utf-8")
    assert main(["make-dataset", "--in", str(empty), "--out", str(tmp_path / "d1")]) == 2
    broken = tmp_path / "broken.conllu"
    broken.write_text(good + "1\tbroken\n\n", encoding="utf-8")
    assert main(["make-dataset", "--in", str(broken), "--out", str(tmp_path / "d2")]) == 2
    assert main(["make-dataset", "--in", str(broken), "--out", str(tmp_path / "d3"),
                 "--lenient"]) == 0
    assert main(["make-dataset", "--in", str(gold), "--out", str(tmp_path / "d4")]) == 0
    ds = tmp_path / "d4"
    refs = (ds / "refs.txt").read_text(encoding="utf-8").splitlines()
    short_refs = tmp_path / "short.txt"
    short_refs.write_text("\n".join(refs[:-1]) + "\n", encoding="utf-8")
    assert main(["pairs", "--in", str(ds / "shallow.conllu"), "--refs", str(short_refs),
                 "--out", str(tmp_path / "p")]) == 2
    # a refs line with one token more than its sentence has nodes
    long_refs = tmp_path / "long.txt"
    long_refs.write_text("".join(line + (" extra" if number == 3 else "") + "\n"
                                 for number, line in enumerate(refs, 1)), encoding="utf-8")
    nodes = len(refs[2].split())
    capsys.readouterr()
    assert main(["pairs", "--in", str(ds / "shallow.conllu"), "--refs", str(long_refs),
                 "--out", str(tmp_path / "p")]) == 2
    assert (f"sentence 3 of {ds / 'shallow.conllu'} has {nodes} nodes but line 3 of "
            f"{long_refs} has {nodes + 1} reference tokens") in capsys.readouterr().err
    assert not (tmp_path / "p").exists()
    assert main(["train-lm", "--refs", str(ds / "refs.txt"),
                 "--out", str(tmp_path / "lm.ngrams")]) == 0
    garbage_lm = tmp_path / "bad.ngrams"
    garbage_lm.write_text("not a model\n", encoding="utf-8")
    assert main(["realize", "--in", str(ds / "shallow.stripped.conllu"),
                 "--lm", str(garbage_lm), "--lexicon", str(gold),
                 "--out", str(tmp_path / "h.txt")]) == 2
    lm_lines = (tmp_path / "lm.ngrams").read_text(encoding="utf-8").splitlines()
    assert lm_lines[1].startswith("1\t\t")  # the first unigram count
    lm_lines[1] = lm_lines[1].rsplit("\t", 1)[0] + "\t-5"
    negative_lm = tmp_path / "negative.ngrams"
    negative_lm.write_text("\n".join(lm_lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["realize", "--in", str(ds / "shallow.stripped.conllu"),
                 "--lm", str(negative_lm), "--lexicon", str(gold),
                 "--out", str(tmp_path / "h.txt")]) == 2
    assert "not a valid n-gram count file" in capsys.readouterr().err
    # an order outside 1..3, a context that does not hold order - 1 tokens, or the
    # CRLF line endings save never writes
    lm_text = (tmp_path / "lm.ngrams").read_text(encoding="utf-8")
    bigram = next(line for line in lm_text.splitlines() if line.startswith("2\t<s>\t"))
    _order, ctx, token, count = bigram.split("\t")
    for name, text in [("order", lm_text.replace(bigram, f"7\t{ctx}\t{token}\t{count}", 1)),
                       ("context", lm_text.replace(bigram, f"2\tx y z\t{token}\t{count}", 1)),
                       ("crlf", lm_text.replace("\n", "\r\n"))]:
        bad_lm = tmp_path / f"bad_{name}.ngrams"
        bad_lm.write_bytes(text.encode("utf-8"))
        assert main(["realize", "--in", str(ds / "shallow.stripped.conllu"),
                     "--lm", str(bad_lm), "--lexicon", str(gold),
                     "--out", str(tmp_path / "h.txt")]) == 2, name
        assert "not a valid n-gram count file" in capsys.readouterr().err
    # a bigram, in its sorted place, of a token outside the unigram vocabulary
    header, *count_lines = lm_text.splitlines()
    zebra_lm = tmp_path / "zebra.ngrams"
    zebra_lm.write_text("\n".join([header, *sorted([*count_lines, f"2\t{token}\tzebra\t1"],
                                                   key=save_order)]) + "\n",
                        encoding="utf-8")
    assert main(["realize", "--in", str(ds / "shallow.stripped.conllu"),
                 "--lm", str(zebra_lm), "--lexicon", str(gold),
                 "--out", str(tmp_path / "h.txt")]) == 2
    assert "outside the unigram vocabulary" in capsys.readouterr().err
    # a header order above the orders the count lines hold
    deep_lm = tmp_path / "deep.ngrams"
    deep_lm.write_text("\n".join([header.replace("order=3", "order=1500"),
                                  *(line for line in count_lines if line.startswith("1\t"))])
                       + "\n", encoding="utf-8")
    assert main(["realize", "--in", str(ds / "shallow.stripped.conllu"),
                 "--lm", str(deep_lm), "--lexicon", str(gold),
                 "--out", str(tmp_path / "h.txt")]) == 2
    assert "no order-2 counts in an order-1500 model" in capsys.readouterr().err
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("only one line\n", encoding="utf-8")
    assert main(["eval", "--hyp", str(hyp), "--ref", str(gold)]) == 2
    latin1 = tmp_path / "latin1.conllu"
    latin1.write_bytes(good.encode("utf-8") + "# caf\u00e9\n".encode("latin-1"))
    assert main(["make-dataset", "--in", str(latin1), "--out", str(tmp_path / "d5")]) == 2
    aligned = (ds / "shallow.conllu").read_text(encoding="utf-8")
    bad_align = tmp_path / "bad_align.conllu"
    bad_align.write_text(aligned.replace("original_id=1", "original_id=x", 1), encoding="utf-8")
    assert main(["pairs", "--in", str(bad_align), "--refs", str(ds / "refs.txt"),
                 "--out", str(tmp_path / "p2")]) == 2
    for name, text in [("bos", "a <s> b\n"), ("unk", "a b\n<unk>\n"), ("empty", "\n\n")]:
        bad_refs = tmp_path / f"refs_{name}.txt"
        bad_refs.write_text(text, encoding="utf-8")
        assert main(["train-lm", "--refs", str(bad_refs),
                     "--out", str(tmp_path / f"lm_{name}.ngrams")]) == 2, name
    crlf = tmp_path / "crlf.conllu"
    crlf.write_bytes(good.replace("\n", "\r\n").encode("utf-8"))
    assert main(["make-dataset", "--in", str(crlf), "--out", str(tmp_path / "d6")]) == 2
    assert main(["make-dataset", "--in", str(crlf), "--out", str(tmp_path / "d7"),
                 "--lenient"]) == 2
    assert main(["synth", "--in", str(crlf), "--vocab-from", str(gold),
                 "--out", str(tmp_path / "s")]) == 2
    spaced = tmp_path / "spaced.conllu"
    spaced.write_text(good + "1\tNew York\tNew York\tPROPN\t_\t_\t2\tnsubj\t_\t_\n"
                      "2\tsleeps\tsleep\tVERB\t_\t_\t0\troot\t_\t_\n\n", encoding="utf-8")
    capsys.readouterr()
    for lenient in ([], ["--lenient"]):
        assert main(["make-dataset", "--in", str(spaced), "--out", str(tmp_path / "d8"),
                     *lenient]) == 2
        assert "sentence 5, token 1: form 'New York'" in capsys.readouterr().err
    assert not (tmp_path / "d8").exists()
    spaced_hyp = tmp_path / "spaced_hyp.txt"
    spaced_hyp.write_text("".join(" ".join(s.forms()) + "\n"
                                  for s in parse_conllu(spaced.read_text(encoding="utf-8"))),
                          encoding="utf-8")
    for mode in ("--tokenized", "--detokenized"):
        assert main(["eval", "--hyp", str(spaced_hyp), "--ref", str(spaced), mode,
                     "--out", str(tmp_path / "spaced_report.txt")]) == 2, mode
        assert "sentence 5, token 1: form 'New York'" in capsys.readouterr().err
    assert not (tmp_path / "spaced_report.txt").exists()
    for flags in (["realize", "--in", str(ds / "shallow.stripped.conllu"),
                   "--lm", str(tmp_path / "lm.ngrams"), "--out", str(tmp_path / "h_spaced.txt")],
                  ["pairs", "--in", str(ds / "shallow.conllu"), "--refs", str(ds / "refs.txt"),
                   "--with-forms", "--out", str(tmp_path / "p_spaced")]):
        assert main(flags + ["--lexicon", str(spaced)]) == 2, flags[0]
        assert "sentence 5, token 1: form 'New York'" in capsys.readouterr().err
    assert not (tmp_path / "h_spaced.txt").exists()
    assert not (tmp_path / "p_spaced").exists()
    empty_hyp = tmp_path / "empty_hyp.txt"
    empty_hyp.write_text("", encoding="utf-8")
    assert main(["eval", "--hyp", str(empty_hyp), "--ref", str(empty)]) == 2
    assert main(["synth", "--in", str(gold), "--vocab-from", str(empty),
                 "--out", str(tmp_path / "s_empty")]) == 2
    assert "no sentences in" in capsys.readouterr().err
    assert not (tmp_path / "s_empty").exists()
    # an empty shallow or parsed --in is a data error too, before any output
    out = tmp_path / "e"
    for command, flags in (
        ("realize", ["--lm", str(tmp_path / "lm.ngrams"), "--lexicon", str(gold),
                     "--out", str(out / "h.txt")]),
        ("pairs", ["--refs", str(empty), "--out", str(out)]),
        ("synth", ["--vocab-from", str(gold), "--out", str(out)]),
    ):
        assert main([command, "--in", str(empty), *flags]) == 2, command
        assert f"no sentences in {empty}" in capsys.readouterr().err
    assert not out.exists()


def test_eval_out_creates_its_directory(pipeline, tmp_path):
    report_path = tmp_path / "new" / "dir" / "report.txt"
    assert main(["eval", "--hyp", str(pipeline["root"] / "hyp.txt"),
                 "--ref", str(pipeline["gold_path"]), "--out", str(report_path)]) == 0
    assert report_path.read_text(encoding="utf-8").startswith("mode=tokenized\n")
    assert (report_path.parent / "report.txt.manifest.json").exists()


def test_synth_counts_forms_refs_cannot_carry_as_malformed(tmp_path):
    gold = tmp_path / "gold.conllu"
    gold.write_text(serialize_conllu(ToyLang(seed=41).corpus(60, kind="mixed")),
                    encoding="utf-8")
    parsed = ToyLang(seed=42).corpus(30, kind="mixed")
    for i, form in ((2, "New York"), (9, "")):
        parsed[i].tokens[0] = parsed[i].tokens[0]._replace(form=form)
    parsed_path = tmp_path / "parsed.conllu"
    parsed_path.write_text(serialize_conllu(parsed) + "1\tbroken\n\n", encoding="utf-8")
    out = tmp_path / "synth"
    assert main(["synth", "--in", str(parsed_path), "--vocab-from", str(gold),
                 "--min-count", "1", "--min-len", "1", "--overlap", "0", "--out", str(out)]) == 0
    stats = dict(line.split("=") for line in (out / "stats.txt").read_text().splitlines())
    stats = {key: int(value) for key, value in stats.items()}
    assert stats["input_count"] == 31
    assert stats["rejected_malformed"] == 3
    assert stats["kept_count"] == 28
    assert stats["input_count"] == sum(v for k, v in stats.items() if k != "input_count")
    assert main(["pairs", "--in", str(out / "synth.conllu"), "--refs", str(out / "refs.txt"),
                 "--out", str(tmp_path / "pairs")]) == 0


TWO_NODES = ("1\tThe\tthe\tDET\t_\t_\t2\tdet\t_\t_\n"
             "2\tcat\tcat\tNOUN\t_\t_\t0\troot\t_\t_\n\n")


@pytest.mark.parametrize("lemma", ["cat x", "", "cat\u3000x"])
def test_lemmas_token_lines_cannot_carry_are_data_errors(tmp_path, capsys, lemma):
    """A lemma is one token of a linearized source, and the realized form of a
    node the lexicon has never seen, so one with whitespace would split it."""
    gold = tmp_path / "gold.conllu"
    gold.write_text(TWO_NODES * 2, encoding="utf-8")
    assert main(["make-dataset", "--in", str(gold), "--out", str(tmp_path / "ds")]) == 0
    bad_ds = tmp_path / "bad"
    bad_ds.mkdir()
    for name in ("shallow.conllu", "shallow.stripped.conllu", "refs.txt"):
        text = (tmp_path / "ds" / name).read_text(encoding="utf-8")
        if name != "refs.txt":  # the second sentence's cat gets the lemma
            first, second = text.split("\n\n", 1)
            node = next(line.split("\t")[0] for line in second.splitlines()
                        if "\tcat\t" in line)
            text = first + "\n\n" + second.replace("\tcat\t", f"\t{lemma}\t")
        (bad_ds / name).write_text(text, encoding="utf-8")
    message = (f"sentence 2, node {node}: lemma {lemma!r} is empty or holds whitespace, "
               "which a space-separated token line cannot carry")
    assert main(["train-lm", "--refs", str(bad_ds / "refs.txt"),
                 "--out", str(tmp_path / "lm.ngrams")]) == 0
    capsys.readouterr()
    for command, flags in (
        ("pairs", ["--in", str(bad_ds / "shallow.conllu"), "--refs", str(bad_ds / "refs.txt"),
                   "--out", str(tmp_path / "pairs")]),
        ("realize", ["--in", str(bad_ds / "shallow.stripped.conllu"),
                     "--lm", str(tmp_path / "lm.ngrams"), "--lexicon", str(gold),
                     "--out", str(tmp_path / "hyp.txt")]),
    ):
        assert main([command, *flags]) == 2, command
        assert f"sr: data error: {flags[1]}: {message}" in capsys.readouterr().err, command
    assert not (tmp_path / "pairs").exists()
    assert not (tmp_path / "hyp.txt").exists()
    bad_gold = tmp_path / "bad_gold.conllu"
    bad_gold.write_text(TWO_NODES + TWO_NODES.replace("\tcat\tcat\t", f"\tcat\t{lemma}\t"),
                        encoding="utf-8")
    for lenient in ([], ["--lenient"]):
        assert main(["make-dataset", "--in", str(bad_gold), "--out", str(tmp_path / "ds2"),
                     *lenient]) == 2
        assert (f"{bad_gold}: sentence 2, node 2: lemma {lemma!r} is empty or holds "
                "whitespace" in capsys.readouterr().err)
    assert not (tmp_path / "ds2").exists()


def test_reader_checks_forms_over_the_whole_input_before_lemmas(tmp_path, capsys):
    """make-dataset checks every form before any lemma: a bad lemma in
    sentence 2 and a bad form in sentence 3 name the form."""
    gold = tmp_path / "gold.conllu"
    gold.write_text(TWO_NODES + TWO_NODES.replace("\tcat\tcat\t", "\tcat\tcat x\t")
                    + TWO_NODES.replace("\tcat\tcat\t", "\tcat x\tcat\t"), encoding="utf-8")
    assert main(["make-dataset", "--in", str(gold), "--out", str(tmp_path / "ds")]) == 2
    assert (f"sr: data error: {gold}: sentence 3, token 2: form 'cat x' is empty or holds "
            "whitespace" in capsys.readouterr().err)
    assert not (tmp_path / "ds").exists()


def test_reader_names_the_first_sentence_with_a_bad_lemma(tmp_path, capsys):
    """With bad lemmas in sentences 2 and 4, pairs --in and realize --in name
    sentence 2."""
    gold = tmp_path / "gold.conllu"
    gold.write_text(TWO_NODES * 4, encoding="utf-8")
    assert main(["make-dataset", "--in", str(gold), "--out", str(tmp_path / "ds")]) == 0
    assert main(["train-lm", "--refs", str(tmp_path / "ds" / "refs.txt"),
                 "--out", str(tmp_path / "lm.ngrams")]) == 0
    for name in ("shallow.conllu", "shallow.stripped.conllu"):
        blocks = (tmp_path / "ds" / name).read_text(encoding="utf-8").split("\n\n")
        nodes = [next(line.split("\t")[0] for line in block.splitlines() if "\tcat\t" in line)
                 for block in blocks[:4]]
        for i in (1, 3):
            blocks[i] = blocks[i].replace("\tcat\t", "\tcat x\t")
        (tmp_path / name).write_text("\n\n".join(blocks), encoding="utf-8")
    capsys.readouterr()
    for command, flags in (
        ("pairs", ["--in", str(tmp_path / "shallow.conllu"),
                   "--refs", str(tmp_path / "ds" / "refs.txt"), "--out", str(tmp_path / "pairs")]),
        ("realize", ["--in", str(tmp_path / "shallow.stripped.conllu"),
                     "--lm", str(tmp_path / "lm.ngrams"), "--lexicon", str(gold),
                     "--out", str(tmp_path / "hyp.txt")]),
    ):
        assert main([command, *flags]) == 2, command
        assert (f"sr: data error: {flags[1]}: sentence 2, node {nodes[1]}: lemma 'cat x' is "
                "empty or holds whitespace" in capsys.readouterr().err), command
    assert not (tmp_path / "pairs").exists()
    assert not (tmp_path / "hyp.txt").exists()


def test_synth_counts_lemmas_token_lines_cannot_carry_as_malformed(tmp_path):
    gold = tmp_path / "gold.conllu"
    gold.write_text(serialize_conllu(ToyLang(seed=41).corpus(60, kind="mixed")),
                    encoding="utf-8")
    parsed = ToyLang(seed=42).corpus(30, kind="mixed")
    for i, lemma in ((2, "New York"), (9, ""), (17, "a\x0bb")):
        parsed[i].tokens[1] = parsed[i].tokens[1]._replace(lemma=lemma)
    parsed_path = tmp_path / "parsed.conllu"
    parsed_path.write_text(serialize_conllu(parsed), encoding="utf-8")
    out = tmp_path / "synth"
    assert main(["synth", "--in", str(parsed_path), "--vocab-from", str(gold),
                 "--min-count", "1", "--min-len", "1", "--overlap", "0", "--out", str(out)]) == 0
    stats = (out / "stats.txt").read_text(encoding="utf-8")
    assert "input_count=30\nkept_count=27\n" in stats
    assert "rejected_malformed=3\n" in stats
    assert main(["pairs", "--in", str(out / "synth.conllu"), "--refs", str(out / "refs.txt"),
                 "--out", str(tmp_path / "pairs")]) == 0


def test_synth_that_keeps_nothing_is_a_data_error(tmp_path, capsys):
    """An empty synthetic set would only fail at the next step (`sr pairs`)."""
    parsed = tmp_path / "parsed.conllu"
    parsed.write_text(serialize_conllu(ToyLang(seed=3).corpus(3)), encoding="utf-8")
    out = tmp_path / "synth"
    assert main(["synth", "--in", str(parsed), "--vocab-from", str(parsed),
                 "--min-len", "1000", "--max-len", "1000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "input_count=3\nkept_count=0\nrejected_by_length=3\n" in err
    assert f"sr: data error: no sentence of {parsed} passed the filters" in err
    assert not (out / "synth.conllu").exists()
    assert not out.exists()


def test_realize_whose_scores_underflow_is_a_data_error(tmp_path, capsys):
    """At order 120 and lambda 0.999 a first word never seen after the begin
    markers scores (1 - lam)^119 times the base, which underflows to 0.0."""
    gold = tmp_path / "gold.conllu"
    gold.write_text(serialize_conllu(ToyLang(seed=5).corpus(5)), encoding="utf-8")
    assert main(["make-dataset", "--in", str(gold), "--out", str(tmp_path / "ds")]) == 0
    assert main(["train-lm", "--refs", str(tmp_path / "ds" / "refs.txt"),
                 "--out", str(tmp_path / "lm.ngrams"), "--order", "120",
                 "--lambda", "0.999"]) == 0
    capsys.readouterr()
    assert main(["realize", "--in", str(tmp_path / "ds" / "shallow.stripped.conllu"),
                 "--lm", str(tmp_path / "lm.ngrams"), "--lexicon", str(gold),
                 "--out", str(tmp_path / "hyp.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sr: data error: P(")
    assert "underflows to 0.0 in the order-120 model with lambda 0.999" in err
    assert not (tmp_path / "hyp.txt").exists()


def _env_with_src(**extra: str) -> dict[str, str]:
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run_sr(args: list[str], hashseed: str) -> str:
    done = subprocess.run([sys.executable, "-m", "surfreal.cli", *args],
                          env=_env_with_src(PYTHONHASHSEED=hashseed),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


_NO_POOL_SCRIPT = """
import json, sys
before = set(sys.modules)
import surfreal
from surfreal import parallel
from surfreal.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
parallel._usable_cpus = lambda: list(range(8))  # so jobs=2 is not clamped to one process
assert parallel.parallel_map(abs, [-1, -2, -3], 2) == [1, 2, 3]  # below two items per job
pool = ("concurrent.futures.process", "multiprocessing")
print(json.dumps({"before": [m for m in pool if m in before],
                  "added": [m for m in pool if m in sys.modules and m not in before]}))
"""


def test_pool_modules_load_only_when_workers_start(tmp_path):
    """A fresh interpreter that imports surfreal, runs the walkthrough at --jobs 1 and
    calls parallel_map at jobs=2 on too few items never loads the process pool's
    modules (test_workers_start_at_two_items_per_job shows a real fan-out starts them)."""
    gold = tmp_path / "gold.conllu"
    gold.write_text(serialize_conllu(ToyLang(seed=41).corpus(12, kind="mixed")),
                    encoding="utf-8")
    (tmp_path / "parsed.conllu").write_text(noisy_corpus_text(seed=42, n=40), encoding="utf-8")
    steps = [
        ["make-dataset", "--in", "gold.conllu", "--out", "ds"],
        ["synth", "--in", "parsed.conllu", "--vocab-from", "gold.conllu", "--min-count", "1",
         "--out", "synth", "--jobs", "1"],
        ["pairs", "--in", "synth/synth.conllu", "--refs", "synth/refs.txt", "--out", "pairs"],
        ["train-lm", "--refs", "ds/refs.txt", "--out", "lm.ngrams"],
        ["realize", "--in", "ds/shallow.stripped.conllu", "--lm", "lm.ngrams",
         "--lexicon", "gold.conllu", "--beam", "3", "--out", "hyp.txt", "--jobs", "1"],
        ["eval", "--hyp", "hyp.txt", "--ref", "gold.conllu", "--jobs", "1"],
    ]
    done = subprocess.run([sys.executable, "-c", _NO_POOL_SCRIPT, json.dumps(steps)],
                          cwd=tmp_path, env=_env_with_src(), capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "hyp.txt").read_text(encoding="utf-8").count("\n") == 12
    assert json.loads(done.stdout.splitlines()[-1]) == {"before": [], "added": []}


def test_outputs_do_not_depend_on_jobs_or_hash_seed(tmp_path):
    """The walkthrough in fresh interpreters at --jobs 1 / PYTHONHASHSEED=0 and at
    --jobs 3 / PYTHONHASHSEED=1 writes the same bytes; manifests differ only in jobs."""
    gold = tmp_path / "gold.conllu"
    gold.write_text(serialize_conllu(ToyLang(seed=31).corpus(30, kind="mixed")),
                    encoding="utf-8")
    parsed = tmp_path / "parsed.conllu"
    parsed.write_text(noisy_corpus_text(seed=32, n=400), encoding="utf-8")
    # at least two sentences per job, so realize uses worker processes on any
    # machine with two CPUs or more
    assert len(parse_conllu(gold.read_text(encoding="utf-8"))) >= 6

    runs = []
    for jobs, hashseed in (("1", "0"), ("3", "1")):
        out = tmp_path / f"jobs{jobs}"
        _run_sr(["make-dataset", "--in", str(gold), "--out", str(out / "gold")], hashseed)
        _run_sr(["synth", "--in", str(parsed), "--vocab-from", str(gold), "--min-count", "1",
                 "--out", str(out / "synth"), "--jobs", jobs], hashseed)
        _run_sr(["train-lm", "--refs", str(out / "gold" / "refs.txt"),
                 "--out", str(out / "lm.ngrams")], hashseed)
        _run_sr(["realize", "--in", str(out / "gold" / "shallow.stripped.conllu"),
                 "--lm", str(out / "lm.ngrams"), "--lexicon", str(gold), "--beam", "4",
                 "--out", str(out / "hyp.txt"), "--jobs", jobs], hashseed)
        table = _run_sr(["eval", "--hyp", str(out / "hyp.txt"), "--ref", str(gold),
                         "--out", str(out / "report.txt"), "--jobs", jobs], hashseed)
        files = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        runs.append((jobs, table, files))

    (_, table1, files1), (_, table3, files3) = runs
    assert table1 == table3
    assert set(files1) == set(files3)
    assert "synth/synth.conllu" in files1 and "report.txt" in files1
    for name, data in files1.items():
        if not name.endswith("manifest.json"):
            assert data == files3[name], name
            continue
        one, three = json.loads(data), json.loads(files3[name])
        if "jobs" in one["config"]:
            assert (one["config"].pop("jobs"), three["config"].pop("jobs")) == (1, 3), name
        assert one == three, name
