"""One measured run of one workload, in a fresh process started by run.py.

    python3 perfbench/child.py WORKLOAD SEED SPAWNED TRACE WORKDIR

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so ``setup_s`` covers
interpreter start, imports and input generation.  ``wall_s`` runs from the
entry call until it returns with its outputs checked.  With TRACE = 1 the
tracer is installed around the entry call only.  The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    name, seed, spawned, trace, workdir = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", Path(argv[4])
    import diracmaxwell

    package_dir = (ROOT / "src" / "diracmaxwell").resolve()
    if Path(diracmaxwell.__file__).resolve().parent != package_dir:
        print(f"diracmaxwell imported from {diracmaxwell.__file__}, not {package_dir}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[name]
    params = workloads.data_params(seed)
    reference = workloads.load_reference()
    program_input = wl.setup(params, workdir)
    tracer = Tracer().install() if trace else None

    t0 = time.monotonic()
    summary = None
    try:
        with tracer.root() if tracer else nullcontext():
            output = wl.run(program_input)
        if tracer:
            tracer.uninstall()
        summary = wl.summarize(output)
        failures = workloads.check(wl, params, summary, reference)
    except Exception as exc:  # a failed run is counted, not fatal
        traceback.print_exc()
        failures = [f"{type(exc).__name__}: {exc}"]
    t1 = time.monotonic()

    result = {
        "wall_s": t1 - t0,
        "setup_s": t0 - spawned,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failures": failures,
        "params": params,
        "summary": summary,
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        result["counts"] = tracer.counts()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
