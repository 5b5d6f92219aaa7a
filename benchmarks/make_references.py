"""Write the committed reference outputs of every benchmark workload.

From the root of a checkout, at the commit whose outputs become the
reference:

    python3 benchmarks/make_references.py

Each instance is played once by the benchmark's play-and-check. Where a
workload has a ``verify_bounds`` batch, the library's own rows must agree
with it on status, region and certification, or nothing is written.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

from run import SRC, stamp


def main() -> int:
    sys.path.insert(0, str(SRC))
    from scaleroute import verify_bounds
    from workloads import REFERENCE_DIR, WORKLOADS, build_all, check_rows, play_one

    env = stamp()
    for workload in WORKLOADS.values():
        rows = []
        for (iid, _), instance in zip(workload.instances, build_all(workload)):
            played = play_one(workload, instance, iid)
            if not played.follower_ok:
                print(f"{workload.name} {iid}: follower check failed", file=sys.stderr)
                return 1
            rows.append({
                "id": iid,
                "status": played.status,
                "region": played.region,
                "certified": played.certified,
                "optimal_cost": played.optimal_cost,
                "empirical_poa": played.empirical_poa,
            })
        if workload.batch is not None:
            problems = check_rows(verify_bounds(workload.batch).rows, {r["id"]: r for r in rows})
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
        REFERENCE_DIR.mkdir(exist_ok=True)
        path = REFERENCE_DIR / f"{workload.name}.json"
        path.write_text(json.dumps({"workload": workload.name, "generated_by": env, "instances": rows}, indent=1) + "\n")
        print(
            f"{workload.name}: {len(rows)} instances, "
            f"status {dict(Counter(r['status'] for r in rows))}, "
            f"region {dict(Counter(r['region'] for r in rows))}, "
            f"certified {sum(r['certified'] for r in rows)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
