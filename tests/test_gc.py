"""The cyclic garbage collector under `sr`.

``cli.main`` runs each command with the collector off and puts back the
caller's setting on every way out.  That is safe only while the data path
forms no reference cycles: the garbage a command leaves for the collector
must not grow with its input, or a long run's memory would.
"""

import gc
import io
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from surfreal import cli
from surfreal.cli import main
from surfreal.conllu_io import DataError, serialize_conllu
from test_synthpipe import noisy_corpus_text
from toylang import ToyLang

AUDIT_STEPS = [
    ["make-dataset", "--in", "gold.conllu", "--out", "ds"],
    ["synth", "--in", "parsed.conllu", "--vocab-from", "gold.conllu", "--min-count", "1",
     "--out", "synth"],
    ["pairs", "--in", "synth/synth.conllu", "--refs", "synth/refs.txt", "--out", "pairs",
     "--k", "2", "--scoped", "--with-forms", "--lexicon", "gold.conllu"],
    ["train-lm", "--refs", "synth/refs.txt", "--out", "lm.ngrams"],
    ["realize", "--in", "ds/shallow.stripped.conllu", "--lm", "lm.ngrams",
     "--lexicon", "gold.conllu", "--beam", "3", "--out", "hyp.txt", "--jobs", "1"],
    ["realize", "--in", "ds/shallow.stripped.conllu", "--lm", "lm.ngrams",
     "--lexicon", "gold.conllu", "--beam", "3", "--out", "hyp2.txt", "--jobs", "2"],
    ["eval", "--hyp", "hyp.txt", "--ref", "gold.conllu", "--out", "report.txt"],
    # a data error (exit 2) raised after every block was parsed and sifted
    ["synth", "--in", "parsed.conllu", "--vocab-from", "gold.conllu", "--min-len", "1000",
     "--max-len", "1000", "--out", "none"],
]


@pytest.fixture
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def _audit(folder: Path, n: int) -> list[tuple[int, int]]:
    """Each step's exit code, and the number of unreachable objects a full
    collection finds right after it, on n gold and 4n parsed sentences."""
    folder.mkdir()
    (folder / "gold.conllu").write_text(
        serialize_conllu(ToyLang(seed=3).corpus(n, kind="mixed")), encoding="utf-8")
    (folder / "parsed.conllu").write_text(noisy_corpus_text(seed=4, n=4 * n), encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(folder)
    try:
        found = []
        for argv in AUDIT_STEPS:
            gc.collect()
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(argv)
            found.append((code, gc.collect()))
        return found
    finally:
        os.chdir(cwd)


def test_garbage_does_not_grow_with_the_input(tmp_path, collector_off, usable_cpus):
    """The objects left in cycles are argparse's and json's, whatever the input
    size.  The first run only warms up: a process's first pool start, for one,
    leaves module-level objects behind once."""
    usable_cpus(2)  # so --jobs 2 starts workers
    _audit(tmp_path / "warm", 10)
    small = _audit(tmp_path / "small", 10)
    large = _audit(tmp_path / "large", 40)
    assert [code for code, _ in small] == [0, 0, 0, 0, 0, 0, 0, 2]
    assert large == small


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("fault,code", [(None, 0), (ValueError, 1), (DataError, 2),
                                        (KeyError, None)])
def test_main_pauses_the_collector_and_restores_it(enabled, fault, code, tmp_path,
                                                    monkeypatch):
    """The command runs with the collector off, and the caller's setting is back,
    with no full collection on the way out, after an exit with 0, 1 or 2, or an
    exception."""
    read_conllu = cli._read_conllu
    seen = []

    def reading(path, *words, strict=True):
        seen.append(gc.isenabled())
        if fault is not None:
            raise fault("injected")
        return read_conllu(path, *words, strict=strict)

    monkeypatch.setattr(cli, "_read_conllu", reading)
    gold = tmp_path / "gold.conllu"
    gold.write_text(serialize_conllu(ToyLang(seed=2).corpus(4)), encoding="utf-8")
    argv = ["make-dataset", "--in", str(gold), "--out", str(tmp_path / "ds")]
    collections = []
    monkeypatch.setattr(gc, "collect", lambda *args: collections.append(args) or 0)
    caller = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if code is None:
            with pytest.raises(KeyError, match="injected"):
                main(argv)
        else:
            assert main(argv) == code
        after = gc.isenabled()
    finally:
        (gc.enable if caller else gc.disable)()
    assert seen == [False]
    assert collections == []
    assert after is enabled
