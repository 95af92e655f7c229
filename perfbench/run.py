"""surfreal benchmark: the README's six-step `sr` walkthrough on seeded inputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload walkthrough --seed 1 --seconds 30 --trace 0

The workloads are defined in ``workloads.py``.  With ``--trace 0`` the
pipeline is repeated until ``--seconds`` have passed (at least three
times), each repetition a fresh interpreter calling ``surfreal.cli.main``
(``rep.py``), and the end-to-end metrics are medians over repetitions.
Times are wall times scaled to a reference host speed (``hostspeed.py``).
With ``--trace 1`` untraced repetitions alternate with traced replays
(``replay.py``) and the per-layer metrics are reported; then the
pipeline runs once at ``--jobs 1`` under PYTHONHASHSEED=0 and once at
``--jobs 2`` under PYTHONHASHSEED=1, and every output must match.

Each step of each repetition is one attempted operation.  It fails when
it exits non-zero, when one of its output files differs from the digest
recorded in ``reference.json`` for this workload and seed (or, for a
seed with none recorded, from the first repetition's), or when
``checks.py``, which recomputes what it can without surfreal, finds its
output wrong.  A repetition or replay whose process exits non-zero or is
still running at the deadline fails all six of its steps.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it list the same metrics as a table.  Work files go to ``.perfbench/``
under the repository root and are removed at exit, except the span file
of the last traced replay, kept in ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORK_ROOT = ROOT / ".perfbench"

MIN_REPS = 3          # medians need at least three samples
MIN_REPLAYS = 2       # traced replays per --trace 1 run, each paired with an untraced rep
HARD_STOP_S = 100.0   # start no repetition after this, whatever the minimums say
DEADLINE_S = 160.0    # a child still running this long after the start is stopped
DIGEST_CHARS = 16    # reference.json keeps digest prefixes of this length

STEPS = ("make_dataset", "synth", "pairs", "train_lm", "realize", "eval")

END_TO_END = {
    "setup_s": "s", "pipeline_s": "s", "synth_sent_per_s": "1/s", "pairs_per_s": "1/s",
    "realize_tok_per_s": "1/s", "peak_rss_mb": "MB",
}
# span name -> per-layer metric holding the summed self time of those spans
SELF_TIME_METRICS = {
    "conllu_io.parse": "conllu_io.parse_s", "conllu_io.serialize": "conllu_io.serialize_s",
    "deptree.shallow_transform": "deptree.shallow_transform_s",
    "deptree.to_conllu": "deptree.to_conllu_s",
    "synthpipe.nfc": "synthpipe.nfc_s", "synthpipe.filter": "synthpipe.filter_s",
    "synthpipe.build.jobs1": "synthpipe.build_s.jobs1",
    "synthpipe.build.jobs2": "synthpipe.build_s.jobs2",
    "linearizer.linearize": "linearizer.linearize_s",
    "linearizer.form_list": "linearizer.form_list_s",
    "ngram.train": "ngram.train_s", "ngram.save": "ngram.save_s", "ngram.load": "ngram.load_s",
    "realizer.build_form_lexicon": "realizer.lexicon_build_s",
    "evalsuite.evaluate": "evalsuite.evaluate_s",
}
COUNT_METRICS = (
    "conllu_io.sentences_parsed", "synthpipe.kept_ratio", "synthpipe.rejected_malformed",
    "linearizer.src_tokens", "realizer.score_calls", "realizer.score_calls_per_token",
    "ngram.logprob_calls", "ngram.memo_entries", "ngram.memo_hit_ratio",
    "evalsuite.errors.ExactMatch", "evalsuite.errors.PunctuationOnly",
    "evalsuite.errors.InflectionOnly", "evalsuite.errors.Other",
)
BUCKETS = ("len_lt10", "len10-29", "len30plus")
PER_LAYER = {
    "realizer.beam_realize_ms.p50": "ms", "realizer.beam_realize_ms.p95": "ms",
    "realizer.beam_realize_ms.samples": "count",
    **{f"realizer.beam_realize_s.{b}": "s" for b in BUCKETS},
    **{name: "s" for name in SELF_TIME_METRICS.values()},
    **{name: ("ratio" if name.endswith(("ratio", "per_token")) else "count")
       for name in COUNT_METRICS},
    **{f"cli.{step}_s": "s" for step in STEPS},
    "trace.overhead_s": "s", "evalsuite.bleu4": "BLEU",
    "digest_mismatches": "count", "determinism_mismatches": "count",
    "failed_op_ratio": "ratio",
}


def step_of(relpath: str) -> str:
    """The step that writes an output file (paths as in workloads.Workload.steps)."""
    for prefix, step in (("data/synth/", "synth"), ("data/pairs/", "pairs"),
                         ("data/", "make_dataset"), ("model.ngrams", "train_lm"),
                         ("hyp.txt", "realize"), ("report.txt", "eval")):
        if relpath.startswith(prefix):
            return step
    return "unknown"


def mismatched(expected: dict[str, str], got: dict[str, str]) -> list[str]:
    """Paths missing, extra, or differing; ``expected`` may hold digest prefixes."""
    return sorted(path for path in set(expected) | set(got)
                  if path not in expected or path not in got
                  or not got[path].startswith(expected[path]))


def input_digest(inputs) -> str:
    """One short digest over all generated input files."""
    listing = "".join(f"{name} {sha}\n"
                      for name, sha in sorted(inputs.describe()["input_sha256"].items()))
    return hashlib.sha256(listing.encode()).hexdigest()[:DIGEST_CHARS]


def without_jobs(work: Path, digests: dict[str, str]) -> dict[str, str]:
    """Digests with each manifest's recorded --jobs dropped, the only field it may change."""
    out = dict(digests)
    for path in digests:
        if not path.endswith("manifest.json"):
            continue
        try:
            manifest = json.loads((work / path).read_text(encoding="utf-8"))
            manifest["config"].pop("jobs", None)
        except (ValueError, KeyError, TypeError, AttributeError):
            continue  # not a manifest as sr writes it: compare the bytes
        out[path] = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()
    return out


@dataclass
class Rep:
    """One repetition or replay; times are scaled to the reference host speed."""

    setup_s: float
    pipeline_s: float
    peak_rss_mb: float
    step_s: dict[str, float]
    scale: float
    result: dict

    @classmethod
    def scaled(cls, start: float, result: dict) -> "Rep":
        """Scale each step by the host speed sampled during it.

        While a step fans out, kernel samples compete with its own workers
        and measure that load rather than the host's, so such steps, and
        set-up, use the speed sampled during the single-process steps.
        """
        samples = result["kernel_s"]
        steps = result.get("steps", ())
        quiet = [s for t, s in samples
                 if any(a <= t < b for a, b in (st["window"] for st in steps if not st["fanout"]))]
        scale = hostspeed.scale(quiet or [s for _, s in samples])
        step_s = {}
        for step in steps:
            local = None if step["fanout"] else hostspeed.scale_between(samples, *step["window"])
            step_s[step["name"]] = step["seconds"] * (local or scale)
        pipeline = sum(step_s.values()) if step_s else result["pipeline_s"] * scale
        return cls(setup_s=(result["setup_done"] - start) * scale, pipeline_s=pipeline,
                   peak_rss_mb=result["peak_rss_mb"], step_s=step_s, scale=scale,
                   result=result)


class Bench:
    """Inputs of one workload and seed, and the tally of everything run on them."""

    def __init__(self, workload, seed: int, base: Path):
        from workloads import build_inputs
        self.workload = workload
        self.seed = seed
        self.base = base
        self.inputs = build_inputs(workload, seed, base / "inputs")
        self.staged = {p.name for p in self.inputs.files()}
        self.runs = 0
        self.attempted = 0
        self.failed = 0
        self.digest_mismatches = 0
        self.determinism_mismatches = 0
        self.problems: list[str] = []
        self.expected, self.expected_bleu = self._reference()
        self.first: dict[str, str] | None = None   # first repetition, as without_jobs gives
        self.bleu4: float | None = None
        self.n_pairs = 0
        self.deadline = time.monotonic() + DEADLINE_S

    def _reference(self):
        table = None
        if REFERENCE.exists():
            table = json.loads(REFERENCE.read_text(encoding="utf-8"))["digests"].get(
                self.workload.name)
        entry = None if table is None else table["seeds"].get(str(self.seed))
        if entry is None:
            return None, None
        if input_digest(self.inputs) != entry["inputs"]:
            self.problems.append("inputs differ from those the reference digests were "
                                 "recorded for")
        return dict(zip(table["paths"], entry["outputs"].split())), entry["bleu4"]

    def _spawn(self, script: str, spec: dict, env=None) -> tuple[float, Path, dict] | None:
        """Run ``script`` on ``spec`` in a fresh interpreter; None if it failed.

        A child that exits non-zero, or is still running at the deadline,
        is a failed repetition: all six of its steps count as failed.  It
        runs in a session of its own, so that on a timeout its workers are
        stopped with it.
        """
        from workloads import sha256_file
        tag = f"{Path(script).stem}{self.runs}"
        self.runs += 1
        work = self.base / tag
        spec = dict(spec, input_dir=str(self.inputs.directory), inputs=sorted(self.staged),
                    work=str(work), result=str(self.base / f"{tag}.result.json"))
        spec_path = self.base / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        log = self.base / f"{tag}.log"
        with open(log, "wb") as out:
            start = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(HERE / script), str(spec_path)],
                                    stdout=out, stderr=subprocess.STDOUT, env=env,
                                    start_new_session=True)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - start))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                code = "a timeout"
        result_path = Path(spec["result"])
        if code != 0 or not result_path.exists():
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            self.attempted += len(STEPS)
            self.failed += len(STEPS)
            self.problems.append(f"{script} ended with {code}; its last output:\n{tail}")
            shutil.rmtree(work, ignore_errors=True)
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["digests"] = {p.relative_to(work).as_posix(): sha256_file(p)
                             for p in sorted(work.rglob("*"))
                             if p.is_file() and p.name not in self.staged}
        return start, work, result

    def _account(self, exits: dict[str, int], digests: dict[str, str],
                 expected: dict[str, str], what: str, failed=frozenset()) -> list[str]:
        """Count six attempted steps and those that failed; return the differing paths.

        A step fails on a non-zero exit, a differing output, or a problem in
        ``failed`` (step names found wrong by checks.py).
        """
        bad = mismatched(expected, digests)
        failed = set(failed) | {name for name, code in exits.items() if code != 0}
        failed |= {step_of(path) for path in bad}
        self.attempted += len(STEPS)
        self.failed += len(failed)
        self.problems += [f"{what}: {name} exited with {exits[name]}"
                          for name in STEPS if exits.get(name, 0) != 0]
        self.problems += [f"{what}: {path} differs" for path in bad]
        return bad

    def _check(self, work: Path) -> set[str]:
        """Independent checks on the first repetition; returns the steps found wrong."""
        from checks import check_outputs
        problems, self.bleu4 = check_outputs(work, self.workload, self.inputs)
        if self.expected_bleu is not None and self.bleu4 != self.expected_bleu:
            problems.append(f"eval: BLEU-4 {self.bleu4!r} != recorded {self.expected_bleu!r}")
        self.problems += problems
        tgt = work / "data/pairs/pairs.tgt"
        self.n_pairs = len(tgt.read_text(encoding="utf-8").splitlines()) if tgt.exists() else 0
        return {p.split(":")[0] for p in problems}

    def cli_rep(self, jobs: int | None = None, hashseed: str | None = None) -> Rep | None:
        """One repetition through surfreal.cli.main in a fresh interpreter.

        With ``jobs`` or ``hashseed`` set it is a determinism run: its outputs
        must match the first repetition's, manifests compared without --jobs.
        """
        env = None if hashseed is None else dict(os.environ, PYTHONHASHSEED=hashseed)
        spawned = self._spawn("rep.py", {"src": str(ROOT / "src"),
                                         "steps": self.workload.steps(jobs)}, env)
        if spawned is None:
            return None
        start, work, result = spawned
        exits = {s["name"]: s["exit"] for s in result["steps"]}
        if jobs is None and hashseed is None:
            checked = set()
            if self.first is None:
                checked = self._check(work)
                self.first = without_jobs(work, result["digests"])
                if self.expected is None:
                    # no digests recorded for this seed: the first repetition is the
                    # reference, and checks.py vouches for it
                    self.expected = result["digests"]
            bad = self._account(exits, result["digests"], self.expected, "cli", checked)
            self.digest_mismatches += len(bad)
        else:
            bad = self._account(exits, without_jobs(work, result["digests"]), self.first,
                                f"--jobs {jobs}, PYTHONHASHSEED={hashseed}")
            self.determinism_mismatches += len(bad)
        shutil.rmtree(work)
        return Rep.scaled(start, result)

    def replay(self) -> Rep | None:
        """One traced replay at --jobs 1; its outputs must match the CLI's.

        Manifests are compared without their recorded --jobs, every other
        file byte for byte.
        """
        trace_dir = WORK_ROOT / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace = trace_dir / f"{self.workload.name}-s{self.seed}.json"
        run_id = f"{self.workload.name}-s{self.seed}-{os.getpid()}-{self.runs}"
        spawned = self._spawn("replay.py", {"steps": self.workload.steps(jobs=1),
                                            "trace": str(trace), "run_id": run_id})
        if spawned is None:
            return None
        start, work, result = spawned
        exits = {s["name"]: s["exit"] for s in result["steps"]}
        self.problems += [f"replay: {problem}" for problem in result["problems"]]
        bad = self._account(exits, without_jobs(work, result["digests"]), self.first or {},
                            "replay", {"synth"} if result["problems"] else set())
        self.digest_mismatches += len(bad)
        shutil.rmtree(work)
        result["spans"] = json.loads(trace.read_text(encoding="utf-8"))["spans"]
        return Rep.scaled(start, result)


def repeat(seconds: float, minimum: int, run) -> list:
    """Call ``run`` until ``seconds`` have passed and it ran ``minimum`` times."""
    start = time.monotonic()
    out = [run()]
    while time.monotonic() - start < HARD_STOP_S and (
            len(out) < minimum or time.monotonic() - start < seconds):
        out.append(run())
    return out


class NothingMeasured(Exception):
    """Every repetition (or every replay) failed, so no time was measured."""


def measured(runs: list) -> list:
    runs = [r for r in runs if r is not None]
    if not runs:
        raise NothingMeasured
    return runs


def end_to_end(bench: Bench, seconds: float) -> tuple[dict[str, float], list[Rep]]:
    """Medians over repetitions of scaled times, throughputs and peak memory."""
    reps = measured(repeat(seconds, MIN_REPS, bench.cli_rep))
    info = bench.inputs.describe()

    def med(f) -> float:
        return statistics.median(f(r) for r in reps)

    return {
        "setup_s": med(lambda r: r.setup_s),
        "pipeline_s": med(lambda r: r.pipeline_s),
        "synth_sent_per_s": med(lambda r: info["sentences"]["parsed_blocks"] / r.step_s["synth"]),
        "pairs_per_s": med(lambda r: bench.n_pairs / r.step_s["pairs"]),
        "realize_tok_per_s": med(lambda r: info["tokens"]["realize"] / r.step_s["realize"]),
        "peak_rss_mb": med(lambda r: r.peak_rss_mb),
    }, reps


def per_layer(bench: Bench, seconds: float) -> tuple[dict[str, float], list[Rep]]:
    """Step times from the fastest CLI repetition, layer times from the fastest replay.

    Taking each breakdown from one run keeps its parts summing to that run's total.
    """
    from spans import self_times
    pairs = repeat(seconds, MIN_REPLAYS, lambda: (bench.cli_rep(), bench.replay()))
    bench.cli_rep(jobs=1, hashseed="0")
    bench.cli_rep(jobs=2, hashseed="1")
    reps = measured([r for r, _ in pairs])
    replays = measured([t for _, t in pairs])
    rep = min(reps, key=lambda r: r.pipeline_s)
    replay = min(replays, key=lambda t: t.pipeline_s)

    values: dict[str, float | None] = {f"cli.{step}_s": rep.step_s[step] for step in STEPS}
    values["trace.overhead_s"] = replay.pipeline_s - rep.pipeline_s
    spans = replay.result["spans"]
    layer_s = self_times(spans)
    for span_name, metric in SELF_TIME_METRICS.items():
        values[metric] = layer_s.get(span_name, 0.0) * replay.scale

    realize = [s for s in spans if s["name"] == "realizer.beam_realize"]
    ms = [(s["end"] - s["start"]) * 1000.0 * replay.scale for s in realize]
    values["realizer.beam_realize_ms.samples"] = len(ms)
    values["realizer.beam_realize_ms.p50"] = statistics.median(ms) if ms else None
    values["realizer.beam_realize_ms.p95"] = (statistics.quantiles(ms, n=20)[18]
                                              if len(ms) > 1 else None)
    for b in BUCKETS:
        values[f"realizer.beam_realize_s.{b}"] = replay.scale * sum(
            s["end"] - s["start"] for s in realize if s["bucket"] == b)

    counts = [t.result["counts"] for t in replays]
    for name in COUNT_METRICS:
        if len({c.get(name) for c in counts}) != 1:
            bench.problems.append(f"count {name} differs across replays: "
                                  f"{[c.get(name) for c in counts]}")
            bench.failed += 1
        values[name] = counts[0].get(name)

    values["evalsuite.bleu4"] = bench.bleu4
    values["digest_mismatches"] = bench.digest_mismatches
    values["determinism_mismatches"] = bench.determinism_mismatches
    values["failed_op_ratio"] = bench.failed / bench.attempted
    return values, reps + replays


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/surfreal/cli.py", "tests/toylang.py") if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not a surfreal checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE)]
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    base = WORK_ROOT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, base)
        units = PER_LAYER if args.trace else END_TO_END
        try:
            values, reps = (per_layer if args.trace else end_to_end)(bench, args.seconds)
        except NothingMeasured:
            # reported with correct=false; None stands for "not measured"
            values, reps = dict.fromkeys(units), []
    finally:
        shutil.rmtree(base, ignore_errors=True)

    for problem in bench.problems:
        print(f"problem: {problem}")
    if reps:
        print(f"{len(reps)} runs; host-speed scale factor median "
              f"{statistics.median(r.scale for r in reps):.3f} "
              f"(range {min(r.scale for r in reps):.3f}-{max(r.scale for r in reps):.3f}); "
              f"times below are scaled to the reference host speed (hostspeed.py)")
    for name, unit in units.items():
        value = "not measured" if values[name] is None else f"{values[name]:.6g}"
        print(f"{name:<36} {value:>16} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
