"""Regenerate perfbench/reference.json: every op's rows at the recorded seed.

    python3 perfbench/make_reference.py

Refuses to write when any op fails its invariant checks. Regenerate only
when a change alters results on purpose, and say so in the change.
"""

from __future__ import annotations

import json
import sys

from child import HERE
from ops import ATOL, FIT_RTOL, REFERENCE_SEED, RTOL, WORKLOADS, build_ops, check_output, parse_output, run_op


def main() -> int:
    ref = {"seed": REFERENCE_SEED, "rtol": RTOL, "fit_rtol": FIT_RTOL, "atol": ATOL, "workloads": {}}
    for w in WORKLOADS:
        ref["workloads"][w] = {}
        for op in build_ops(w, REFERENCE_SEED):
            code, out, err = run_op(op)
            problems = check_output(op, code, out, None)
            if problems:
                print(f"error: {w}/{op.name}: {problems}\n{err}", file=sys.stderr)
                return 1
            ref["workloads"][w][op.name] = parse_output(out, op.keys)
            print(f"{w}/{op.name}: {len(ref['workloads'][w][op.name])} rows")
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
