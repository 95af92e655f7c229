"""Output checks that do not trust the program under test.

Each check recomputes, from the generated sentences alone, something a
step's output must agree with: reference lines, synth filter statistics,
pair counts, the LM vocabulary size, hypothesis lengths, and corpus
BLEU-4.  Nothing here uses ``surfreal``.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path

from workloads import LM_LAMBDA, LM_ORDER, MAX_LEN, MIN_COUNT, MIN_LEN, OVERLAP, PAIRS_K


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _escape(token: str) -> str:
    return {"(": "-lrb-", ")": "-rrb-"}.get(token, token)


def corpus_bleu4(hyps: list[list[str]], refs: list[list[str]]) -> float:
    """Unsmoothed corpus BLEU-4 with brevity penalty, on a 0-100 scale."""
    matched, total = [0] * 4, [0] * 4
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs, strict=True):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            h = Counter(tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1))
            r = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
            total[n - 1] += sum(h.values())
            matched[n - 1] += sum(min(c, r[g]) for g, c in h.items())
    if hyp_len == 0 or 0 in matched:
        return 0.0
    log_p = sum(math.log(m / t) for m, t in zip(matched, total)) / 4
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_p)


def expected_synth(gold, parsed, parsed_blocks: int) -> tuple[dict[str, int], list[list[str]]]:
    """Filter statistics and kept reference lines the synth step must produce."""
    counts = Counter(form for s in gold for form in s.forms())
    vocab = {form for form, c in counts.items() if c >= MIN_COUNT}
    stats = {"input_count": parsed_blocks, "kept_count": 0, "rejected_by_length": 0,
             "rejected_by_overlap": 0, "rejected_malformed": parsed_blocks - len(parsed)}
    kept = []
    for s in parsed:
        forms = s.forms()
        if not MIN_LEN <= len(forms) <= MAX_LEN:
            stats["rejected_by_length"] += 1
        elif sum(f in vocab for f in forms) / len(forms) < OVERLAP:
            stats["rejected_by_overlap"] += 1
        else:
            stats["kept_count"] += 1
            kept.append(forms)
    return stats, kept


def check_outputs(work: Path, workload, inputs) -> tuple[list[str], float]:
    """Problems found in one repetition's outputs, and the recomputed BLEU-4.

    Each problem starts with the name of the step whose output is wrong.
    """
    problems: list[str] = []

    def expect(step: str, ok: bool, what: str) -> None:
        if not ok:
            problems.append(f"{step}: {what}")

    target = [s.forms() for s in inputs.target]
    data = work / workload.dataset_dir()
    try:
        expect("make_dataset", _lines(data / "refs.txt") == [" ".join(f) for f in target],
               "refs.txt differs from the generated sentences")
        stripped = (data / "shallow.stripped.conllu").read_text(encoding="utf-8")
        expect("make_dataset", "original_id" not in stripped,
               "stripped file still carries alignments")

        stats, kept = expected_synth(inputs.gold, inputs.parsed, inputs.parsed_blocks)
        got = dict(line.split("=") for line in _lines(work / "data/synth/stats.txt"))
        expect("synth", {k: int(v) for k, v in got.items()} == stats,
               f"stats {got} != expected {stats}")
        expect("synth", _lines(work / "data/synth/refs.txt") == [" ".join(f) for f in kept],
               "refs.txt differs from the sentences the filter keeps")

        pair_refs = _lines(work / workload.pairs_in[1])
        tgt = _lines(work / "data/pairs/pairs.tgt")
        expect("pairs", tgt == [" ".join(_escape(t) for t in r.split())
                                for r in pair_refs] * PAIRS_K,
               "pairs.tgt is not k blocks of the escaped references")
        expect("pairs", len(_lines(work / "data/pairs/pairs.src")) == len(tgt),
               "pairs.src and pairs.tgt differ in length")

        lm_vocab = {t for line in _lines(work / workload.lm_refs) for t in line.split()}
        header = _lines(work / "model.ngrams")[0].split("\t")
        expect("train_lm", header == ["ngram-counts-v1", f"order={LM_ORDER}",
                                      f"lambda={LM_LAMBDA!r}", f"vocab={len(lm_vocab)}"],
               f"model header {header}")

        hyps = [line.split() for line in _lines(work / "hyp.txt")]
        expect("realize", [len(h) for h in hyps] == [len(t) for t in target],
               "hypothesis lengths differ from the input node counts")

        bleu = corpus_bleu4(hyps, target)
        report = dict(line.split("=", 1) for line in _lines(work / "report.txt"))
        expect("eval", report.get("corpus_bleu") == f"{bleu:.6f}",
               f"corpus_bleu {report.get('corpus_bleu')} != recomputed {bleu:.6f}")
        classes = ("ExactMatch", "PunctuationOnly", "InflectionOnly", "Other")
        expect("eval", sum(int(report.get(f"count_{c}", -1)) for c in classes) == len(target),
               "error classes do not partition the corpus")
    except (OSError, ValueError, IndexError) as err:
        problems.append(f"outputs unreadable: {err!r}")
        bleu = 0.0
    return problems, bleu
