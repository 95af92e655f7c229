"""Traced replay of a workload's six `sr` steps.

Usage: python3 perfbench/replay.py SPEC.json

The steps run through ``surfreal.cli.main`` with ``--jobs 1``, so all the
work happens in this process, while span recorders stand in for the
library functions that ``cli`` and the library modules call by module
name (``TRACED``).  Every step gets a span (``cli.<step>``) and every
traced call a span inside it, so parse, NFC, filter, shallow transform,
linearization, form lists, LM training and persistence, realization and
evaluation are timed apart, on the code path users run.  Counts do not
depend on how a pool would split the work.  The caller compares the
replay's output digests with the CLI repetition's.

After the steps the originals are put back, and two probe spans time
``build_synthetic_dataset`` at one and at two jobs on the synth step's
input; both must give the synth step's result.

Counters come from outside the program: ``CountingScorer`` is made in
place of ``NGramScorer``, around a model proxy that counts LM calls, and the LM
memo size is read after realization.
"""

import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from surfreal import cli, linearizer, synthpipe  # noqa: E402
from surfreal.ngram import NGramModel  # noqa: E402
from surfreal.realizer import NGramScorer  # noqa: E402
from hostspeed import Sampler  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import length_bucket  # noqa: E402

# (module, name) -> span name; each module looks these names up when it calls them
TRACED = {
    (cli, "parse_conllu"): "conllu_io.parse",
    (synthpipe, "parse_block"): "conllu_io.parse",
    (cli, "serialize_conllu"): "conllu_io.serialize",
    (cli, "shallow_transform"): "deptree.shallow_transform",
    (synthpipe, "shallow_transform"): "deptree.shallow_transform",
    (cli, "shallow_to_conllu"): "deptree.to_conllu",
    (cli, "shallow_from_conllu"): "deptree.from_conllu",
    (cli, "build_vocab"): "synthpipe.build_vocab",
    (cli, "build_synthetic_dataset"): "synthpipe.build",
    (synthpipe, "nfc_sentence"): "synthpipe.nfc",
    (synthpipe, "filter_sentence"): "synthpipe.filter",
    (cli, "emit_training_pairs"): "linearizer.emit_training_pairs",
    (linearizer, "linearize"): "linearizer.linearize",
    (linearizer, "append_form_list"): "linearizer.form_list",
    (cli, "write_pair_files"): "linearizer.write_pairs",
    (cli, "train_ngram"): "ngram.train",
    (cli, "build_form_lexicon"): "realizer.build_form_lexicon",
    (cli, "beam_realize"): "realizer.beam_realize",
    (cli, "evaluate"): "evalsuite.evaluate",
}


def _realize_attrs(shallow, *args, **kwargs) -> dict:
    n = shallow.tree.size()
    return {"n": n, "bucket": length_bucket(n)}


# span name -> attributes taken from a call's arguments or result
BEFORE = {"realizer.beam_realize": _realize_attrs}
AFTER = {
    "conllu_io.parse": lambda result: {"sentences": len(result) if isinstance(result, list)
                                       else 1},
    "synthpipe.build": lambda result: {"input": result[1].input_count,
                                       "kept": result[1].kept_count,
                                       "malformed": result[1].rejected_malformed},
    "linearizer.emit_training_pairs": lambda pairs: {
        "src_tokens": sum(len(src.split()) for src, _ in pairs)},
    "evalsuite.evaluate": lambda report: {
        f"errors.{category.value}": count for category, count in report.error_counts.items()},
}


class CountingModel:
    """Stands in for an NGramModel, counting ``logprob`` calls."""

    def __init__(self, model: NGramModel):
        self.model = model
        self.calls = 0

    def logprob(self, token, history):
        self.calls += 1
        return self.model.logprob(token, history)

    def __getattr__(self, name):
        return getattr(self.model, name)


class CountingScorer(NGramScorer):
    """NGramScorer over a counting model proxy, with a call counter of its own."""

    def __init__(self, model: NGramModel):
        super().__init__(CountingModel(model))
        self.calls = 0

    def score_next(self, history, candidate_form, candidate_node) -> float:
        self.calls += 1
        return super().score_next(history, candidate_form, candidate_node)


@dataclass
class Observed:
    """What the replay keeps from the calls it traces."""

    synth_calls: list = field(default_factory=list)   # (args, kwargs, result)
    scorers: list[CountingScorer] = field(default_factory=list)


@contextmanager
def patched(tracer: Tracer):
    """Put span recorders and the counting scorer in place; restore the originals on exit."""
    seen = Observed()

    def counting_scorer(model: NGramModel) -> CountingScorer:
        seen.scorers.append(CountingScorer(model))
        return seen.scorers[-1]

    saved = [(cli, "NGramScorer", cli.NGramScorer),
             (NGramModel, "save", NGramModel.__dict__["save"]),
             (NGramModel, "load", NGramModel.__dict__["load"])]
    saved += [(module, name, getattr(module, name)) for module, name in TRACED]
    for (module, name), span in TRACED.items():
        fn = getattr(module, name)
        if span == "synthpipe.build":
            fn = _remember(fn, seen.synth_calls)
        setattr(module, name, tracer.wrap(span, fn, BEFORE.get(span), AFTER.get(span)))
    cli.NGramScorer = counting_scorer
    NGramModel.save = tracer.wrap("ngram.save", NGramModel.save)
    NGramModel.load = classmethod(tracer.wrap("ngram.load", NGramModel.load.__func__))
    try:
        yield seen
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def _remember(fn, calls: list):
    def remembered(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result
    return remembered


def counts_from(spans: list[dict], scorers: list[CountingScorer]) -> dict:
    def named(name):
        return [s for s in spans if s["name"] == name]

    counts = {"conllu_io.sentences_parsed": sum(s.get("sentences", 0)
                                                for s in named("conllu_io.parse"))}
    for s in named("synthpipe.build"):
        counts["synthpipe.kept_ratio"] = s["kept"] / s["input"]
        counts["synthpipe.rejected_malformed"] = s["malformed"]
    for s in named("linearizer.emit_training_pairs"):
        counts["linearizer.src_tokens"] = s["src_tokens"]
    for s in named("evalsuite.evaluate"):
        counts.update({f"evalsuite.{key}": value for key, value in s.items()
                       if key.startswith("errors.")})
    realized = named("realizer.beam_realize")
    if scorers and realized:
        scorer = scorers[-1]
        tokens = sum(s["n"] for s in realized)
        memo = len(scorer.model.model._memo)
        counts.update({
            "realizer.score_calls": scorer.calls,
            "realizer.score_calls_per_token": scorer.calls / tokens,
            "ngram.logprob_calls": scorer.model.calls,
            "ngram.memo_entries": memo,
            # the memo starts empty after load and gains one entry per miss
            "ngram.memo_hit_ratio": 1.0 - memo / scorer.model.calls,
        })
    return counts


def probe_synth_jobs(tracer: Tracer, synth_calls: list) -> list[str]:
    """Time build_synthetic_dataset at one and two jobs on the synth step's input.

    Returns the problems found: a result that differs from the synth step's.
    """
    args, kwargs, expected = synth_calls[-1]
    problems = []
    for jobs in (1, 2):
        with tracer.span(f"synthpipe.build.jobs{jobs}"):
            got = synthpipe.build_synthetic_dataset(*args, **dict(kwargs, jobs=jobs))
        if got != expected:
            problems.append(f"build_synthetic_dataset(jobs={jobs}) differs from the synth "
                            "step's result")
    return problems


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    work = Path(spec["work"])
    work.mkdir(parents=True)
    for name in spec["inputs"]:
        shutil.copyfile(Path(spec["input_dir"]) / name, work / name)
    os.chdir(work)
    setup_done = time.monotonic()

    tracer = Tracer(spec["run_id"])
    steps = []
    with patched(tracer) as seen, Sampler() as sampler:
        for name, argv in spec["steps"]:
            spent = sampler.spent
            with tracer.span(f"cli.{name}") as span:
                try:
                    code = cli.main(argv)
                except Exception:
                    # a crash is a failed step; later steps still run and are counted
                    traceback.print_exc()
                    code = -1
            steps.append({"name": name, "exit": code, "window": [span["start"], span["end"]],
                          "seconds": span["end"] - span["start"] - (sampler.spent - spent),
                          "fanout": False})
    problems = probe_synth_jobs(tracer, seen.synth_calls) if seen.synth_calls else []
    tracer.dump(Path(spec["trace"]))

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"setup_done": setup_done, "pipeline_s": sum(s["seconds"] for s in steps),
              "steps": steps, "kernel_s": sampler.samples, "peak_rss_mb": peak_kb / 1024.0,
              "counts": counts_from(tracer.spans, seen.scorers), "problems": problems}
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
