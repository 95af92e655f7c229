"""Check that the six `sr` steps write the recorded outputs on this Python.

Usage, from the repository root, with the standard library only:

    python3 tests/check_runtime_digests.py

For each benchmark workload and each of the seeds 1 and 27 (27 lies
outside the seeds 1-10 that speedups are measured on) the script writes
the inputs with ``perfbench/workloads.build_inputs``, runs the workload's
six steps at ``--jobs 1`` through ``surfreal.cli.main`` in a temporary
directory, and compares the sha256 of every output file with the prefix
recorded in ``perfbench/reference.json``, which it only reads.  A workload
whose own ``--jobs`` is above 1 (walkthrough, at 2) runs again at that
count once per start method this platform has
(``multiprocessing.get_all_start_methods()``: fork, spawn and forkserver on
Linux, spawn and fork on macOS, spawn on Windows), each set with
``multiprocessing.set_start_method``, so realize's worker processes, which
take on the collector setting ``sr`` runs with, are checked by every way
they can start.  Outputs do not depend on
``--jobs`` and only the manifests record it, so a manifest is hashed as
``sr`` writes it with the workload's own ``--jobs``.  Exits 1 on any
difference.  The name keeps pytest from collecting it.
"""

import hashlib
import io
import json
import multiprocessing
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import REFERENCE, input_digest, mismatched  # noqa: E402
from surfreal.cli import main as sr  # noqa: E402
from workloads import WORKLOADS, build_inputs, sha256_file  # noqa: E402

SEEDS = (1, 27)


def output_digest(path: Path, jobs: int) -> str:
    if not path.name.endswith("manifest.json"):
        return sha256_file(path)
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if "jobs" in manifest["config"]:
        manifest["config"]["jobs"] = jobs
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"  # as sr writes it
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(workload, table: dict, seed: int, jobs: int) -> list[str]:
    """What differs from the recorded digests of one workload and seed at ``--jobs``."""
    entry = table["seeds"][str(seed)]
    problems = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        inputs = build_inputs(workload, seed, work)
        if input_digest(inputs) != entry["inputs"]:
            problems.append("inputs differ from those the digests were recorded for")
        staged = {p.name for p in inputs.files()}
        os.chdir(work)
        try:
            for name, argv in workload.steps(jobs=jobs):
                log = io.StringIO()
                with redirect_stdout(log), redirect_stderr(log):
                    code = sr(argv)
                if code != 0:
                    problems.append(f"{name} exited with {code}: {log.getvalue()[-500:]}")
        finally:
            os.chdir(cwd)
        got = {p.relative_to(work).as_posix(): output_digest(p, workload.jobs)
               for p in sorted(work.rglob("*")) if p.is_file() and p.name not in staged}
    expected = dict(zip(table["paths"], entry["outputs"].split()))
    return problems + [f"{path} differs" for path in mismatched(expected, got)]


def main() -> int:
    tables = json.loads(REFERENCE.read_text(encoding="utf-8"))["digests"]
    failed = False
    methods = multiprocessing.get_all_start_methods()
    for name, workload in WORKLOADS.items():
        legs = [(1, None)] + [(workload.jobs, method) for method in methods
                              if workload.jobs > 1]
        for seed in SEEDS:
            for jobs, method in legs:
                if method is not None:
                    multiprocessing.set_start_method(method, force=True)
                problems = check(workload, tables[name], seed, jobs)
                failed |= bool(problems)
                print(f"{name} seed {seed} --jobs {jobs}{f' ({method})' if method else ''}: "
                      f"{'; '.join(problems) or 'all outputs match'} "
                      f"(Python {sys.version.split()[0]})")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
