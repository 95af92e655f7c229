import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from toylang import ToyLang, tok  # noqa: E402
from surfreal import parallel  # noqa: E402
from surfreal.conllu_io import UdSentence  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"

# acceptance tests register one verdict line each; the summary hook reprints
# them after the test table so they survive pytest's output capture
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def affinity_mask_kept():
    """No test leaves this process pinned: every pool started after it would take on
    the narrower mask."""
    mask = getattr(os, "sched_getaffinity", lambda pid: None)
    before = mask(0)
    yield
    assert mask(0) == before


@pytest.fixture
def usable_cpus(monkeypatch):
    """``usable_cpus(n)`` has ``parallel_map`` see n usable CPUs, so it clamps no
    ``jobs`` up to n on any host.  They are this process's own CPUs in turn, so
    each worker can still be placed on the one it is handed."""
    real = parallel._usable_cpus()

    def have(n: int) -> None:
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: (real * n)[:n])
    return have


@pytest.fixture
def fixture_text() -> str:
    return (FIXTURES / "mixed.conllu").read_text(encoding="utf-8")


@pytest.fixture
def toy() -> ToyLang:
    return ToyLang(seed=7734)


def attribution_ref() -> UdSentence:
    """Fronted-PP news attribution wording: 'From the AP comes this story :'"""
    return UdSentence(tokens=[
        tok(1, "From", "from", "ADP", "_", 3, "case"),
        tok(2, "the", "the", "DET", "Definite=Def|PronType=Art", 3, "det"),
        tok(3, "AP", "AP", "PROPN", "Number=Sing", 4, "obl"),
        tok(4, "comes", "come", "VERB", "Mood=Ind|Number=Sing|Person=3|Tense=Pres|VerbForm=Fin",
            0, "root"),
        tok(5, "this", "this", "DET", "Number=Sing|PronType=Dem", 6, "det"),
        tok(6, "story", "story", "NOUN", "Number=Sing", 4, "nsubj"),
        tok(7, ":", ":", "PUNCT", "_", 4, "punct"),
    ])


def copula_ref(be_form: str = "am") -> UdSentence:
    """'I am happy .' (or the 'm clitic variant)."""
    from toylang import FEATS_BE, PRONS
    return UdSentence(tokens=[
        tok(1, "I", "I", "PRON", PRONS["I"][1], 3, "nsubj"),
        tok(2, be_form, "be", "AUX", FEATS_BE[be_form], 3, "cop"),
        tok(3, "happy", "happy", "ADJ", "Degree=Pos", 0, "root"),
        tok(4, ".", ".", "PUNCT", "_", 3, "punct"),
    ])
