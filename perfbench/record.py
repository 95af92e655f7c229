"""Record reference output digests for a workload over a range of seeds.

Usage, from the repository root:

    python3 perfbench/record.py --workload walkthrough --seeds 0-29

For each seed it generates the inputs, runs the pipeline once through
the CLI, and stores in ``reference.json`` the digest prefixes of every
output file and the exact BLEU-4.  A seed is recorded only when every
step succeeds and ``checks.py`` finds nothing wrong.  Run it again only
when a change to the program is meant to change its outputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import DIGEST_CHARS, REFERENCE, WORK_ROOT, Bench, input_digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, type=seed_range, help="N or FIRST-LAST")
    args = parser.parse_args(argv)

    reference = {"digests": {}}
    if REFERENCE.exists():
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    table = reference["digests"].setdefault(args.workload, {"paths": None, "seeds": {}})
    for seed in args.seeds:
        base = WORK_ROOT / f"record-{args.workload}-s{seed}"
        try:
            bench = Bench(WORKLOADS[args.workload], seed, base)
            bench.expected, bench.expected_bleu, bench.problems = None, None, []
            rep = bench.cli_rep()
            inputs = input_digest(bench.inputs)
        finally:
            shutil.rmtree(base, ignore_errors=True)
        if rep is None or bench.failed or bench.problems:
            print(f"seed {seed}: not recorded", *bench.problems, sep="\n  ", file=sys.stderr)
            return 1
        first = rep.result["digests"]
        if table["paths"] is None:
            table["paths"] = sorted(first)
        if sorted(first) != table["paths"]:
            print(f"seed {seed}: output files differ from {table['paths']}", file=sys.stderr)
            return 1
        table["seeds"][str(seed)] = {
            "inputs": inputs,
            "outputs": " ".join(first[path][:DIGEST_CHARS] for path in table["paths"]),
            "bleu4": bench.bleu4,
        }
        print(f"seed {seed}: recorded, BLEU-4 {bench.bleu4:.4f}")
    table["seeds"] = dict(sorted(table["seeds"].items(), key=lambda kv: int(kv[0])))
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
