"""Record the reference outputs that every benchmark run is compared with.

    python3 perfbench/record_reference.py

Runs each workload once per data variant (seeds 0..N_VARIANTS-1) at the
current commit and writes ``perfbench/reference.json``.  Only do this on a
commit whose outputs are trusted: a later change must reproduce these values
within the roundoff tolerance in workloads.py.  A variant whose acceptance
bands or invariants fail is not recorded.
"""

from __future__ import annotations

import json
import sys

from run import HERE, ROOT, WORKLOADS, run_child

sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402  (needs src/ on the path)


def main() -> int:
    reference = {}
    bad = 0
    for name in WORKLOADS:
        reference[name] = {}
        for variant in range(workloads.N_VARIANTS):
            res = run_child(name, variant, trace=False, timeout=170.0)
            summary = res.get("summary")
            band_failures = res["failures"] if summary is None else workloads.WORKLOADS[name].bands(summary)
            if band_failures:
                print(f"{name} variant {variant}: NOT recorded: {band_failures}", file=sys.stderr)
                bad += 1
                continue
            reference[name][str(variant)] = summary
            print(f"{name} variant {variant} ({res['params']}): recorded, {res['wall_s']:.2f} s")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
