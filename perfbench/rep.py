"""One repetition of a workload: a fresh interpreter running the six `sr` steps.

Usage: python3 perfbench/rep.py SPEC.json

SPEC names the source tree, the staged input files, the repetition's
working directory, the step command lines, and where to write the result.
The parent times set-up from just before it starts this process to the
``setup_done`` stamp written here (both on the system-wide monotonic
clock), so set-up covers interpreter start, importing ``surfreal`` and
staging the inputs, as a user's `sr` run pays them.  While the six
steps run, ``hostspeed.Sampler`` times its kernel every 25 ms; step times
exclude the sampling.
"""

import time
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path

from hostspeed import Sampler


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from surfreal import cli

    work = Path(spec["work"])
    work.mkdir(parents=True)
    for name in spec["inputs"]:
        shutil.copyfile(Path(spec["input_dir"]) / name, work / name)
    os.chdir(work)
    setup_done = time.monotonic()

    steps = []
    with Sampler() as sampler:
        for name, argv in spec["steps"]:
            t0 = time.perf_counter()
            spent = sampler.spent
            try:
                code = cli.main(argv)
            except Exception:
                # a crash is a failed step; later steps still run and are counted
                traceback.print_exc()
                code = -1
            t1 = time.perf_counter()
            jobs = int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1
            steps.append({"name": name, "exit": code, "seconds": t1 - t0 - (sampler.spent - spent),
                          "window": [t0, t1], "fanout": jobs > 1})

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"setup_done": setup_done, "pipeline_s": sum(s["seconds"] for s in steps),
              "steps": steps, "kernel_s": sampler.samples, "peak_rss_mb": peak_kb / 1024.0}
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
