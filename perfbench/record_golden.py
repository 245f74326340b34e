"""Record golden.json: the outputs of every op on more than 14 vertices.

    python3 perfbench/record_golden.py

Runs each op that any seed can draw on n > 14 (workloads.pool_ops) through
graphstates.cli.run once and stores a digest of its JSON report, or its
refusal reason.  The benchmark compares later outputs with these, so run
this only at a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import sys

from run import Runner, import_package
from checks import GOLDEN_PATH, golden_entry, golden_key, reason_of
from workloads import pool_ops


def main() -> int:
    gs = import_package()
    runner = Runner(gs, [], None)
    golden = {}
    for workload in ("scalars", "expansions"):
        for op in pool_ops(workload):
            _, code, out, err, crash = runner.execute(op.argv)
            if crash is not None or code not in (0, 2):
                print(f"cannot record {op.key}: exit {code} {crash or err}", file=sys.stderr)
                return 1
            report = json.loads(out) if code == 0 else None
            golden[golden_key(op)] = golden_entry(code, report, reason_of(err) if code else None)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} outputs in {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
