"""Self-test of the benchmark's correctness gate: the real sweep-n15-k6
results pass against ``pinned.json``, and once one pinned count is off by
one, every sweep checked fails exactly one operation: the sweep seed the
count belongs to.

Run from the repository root:  python3 perfbench/selftest.py
"""

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402

NAME = "sweep-n15-k6"


def main() -> int:
    pins = json.loads((HERE / "pinned.json").read_text())[NAME]
    perturbed = copy.deepcopy(pins)
    perturbed["per_seed"][4]["C_t"] += 1

    clean = run.run_workload(NAME, 0, 1, False, pins)
    tripped = run.run_workload(NAME, 0, 1, False, perturbed)
    problems = []
    if clean["failed"] != 0:
        problems.append(f"clean run failed {clean['failed']} operations")
    # The warm-up sweep and every timed sweep; the logged run is sweep
    # seed 0, which the perturbation leaves alone.
    sweeps = tripped["solves"] + 1
    if tripped["failed"] != sweeps:
        problems.append(f"perturbed C_t failed {tripped['failed']} operations"
                        f" in {sweeps} sweeps, expected one per sweep")
    for line in problems:
        print(f"selftest: {line}", file=sys.stderr)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
