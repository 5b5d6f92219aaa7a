"""The scripts under ``tools/`` run against the library as it stands.

``tools/descent_rounds.py`` wraps ``solvers._descend`` and plays every
benchmark instance, so a rename in ``solvers`` that breaks it fails here. Its
batch rounds per workload and objective are pinned, which also guards the
rounds that the face move of both descents saves. The fields of
``tools/outputs_digest.py --dump`` are pinned, so that dumps of two
checkouts stay comparable, and ``tools/dump_diff.py`` is checked on two small
dumps. ``tools/solve_costs.py`` is checked for its output format only: no
timing is bounded.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))

from descent_rounds import descent_rounds  # noqa: E402
from dump_diff import dump_diff  # noqa: E402
from outputs_digest import SCALARS, _instance_outputs  # noqa: E402
from solve_costs import DEFAULT_IDS, LAYERS, solve_costs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_descent_rounds_are_pinned():
    # (descents, batch rounds) per workload and objective; the optimum's 25
    # verify-default descents took 124 batch rounds and grid-4x4's five
    # followers 225 before the follower's face move and its step toward
    # infeasible face points; oracle-lowmu runs no descent
    totals: dict[tuple[str, str], list[int]] = {}
    for workload, _, objective, _, rounds, _ in descent_rounds():
        total = totals.setdefault((workload, objective), [0, 0])
        total[0] += 1
        total[1] += rounds
    assert totals == {
        ("verify-default", "optimum"): [25, 100],
        ("verify-default", "follower"): [2, 4],
        ("grid-4x4", "optimum"): [5, 525],
        ("grid-4x4", "follower"): [5, 29],
    }


def test_dump_fields_are_pinned():
    assert SCALARS == (
        "workload", "id", "status", "optimal_cost", "induced_cost", "poa", "wardrop_gap",
        "optimum_gap", "optimum_iterations", "optimum_converged", "optimum_exact",
        "follower_gap", "follower_iterations", "follower_converged", "follower_exact",
        "certified",
    )
    # an instance in the oracle's scope fills every field, in that order
    workload = WORKLOADS["oracle-lowmu"]
    iid, make = workload.instances[0]
    _, problems, scalars = _instance_outputs(workload, iid, make())
    assert problems == 2 and tuple(scalars) == SCALARS
    assert scalars["workload"] == "oracle-lowmu" and scalars["id"] == iid and scalars["status"] == "ok"
    assert None not in scalars.values() and isinstance(scalars["certified"], bool)


def test_solve_costs_format():
    # one line per instance and layer, the build first and oracle_nash only
    # on a parallel-link instance, each with its median and quartiles in
    # microseconds per call
    rows = solve_costs(("oracle-lowmu/s1003", "verify-default/s140"), repeats=2, number=1)
    assert LAYERS[0] == "build"
    assert [row[:3] for row in rows] == [
        *(("oracle-lowmu", "s1003", layer) for layer in LAYERS),
        *(("verify-default", "s140", layer) for layer in LAYERS if layer != "oracle_nash"),
    ]
    for *_, median, q1, q3 in rows:
        assert 0.0 < q1 <= median <= q3
    assert DEFAULT_IDS == ("oracle-lowmu/s1003", "oracle-lowmu/s1004", "verify-default/s140")
    out = subprocess.run(
        [sys.executable, str(TOOLS / "solve_costs.py"), "--repeats", "2", "--number", "1", "oracle-lowmu/s1004"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    number = r"\d+\.\d"
    pattern = re.compile(rf"oracle-lowmu s1004 ({'|'.join(LAYERS)}) {number} {number} {number}")
    lines = out.splitlines()
    assert len(lines) == len(LAYERS) and all(pattern.fullmatch(line) for line in lines)


def test_dump_diff_format(tmp_path):
    def write(name, rows):
        path = tmp_path / name
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        return str(path)

    def row(iid, gap, certified, poa=1.5):
        return dict(workload="w", id=iid, status="ok", poa=poa, wardrop_gap=gap, certified=certified)

    before = [row("s1", 1e-9, True), row("s2", float("nan"), None), row("s3", 2e-9, False)]
    after = [row("s1", 1e-9 + 2e-16, False), row("s2", float("nan"), None), row("s3", 2e-9 - 3e-16, True)]
    a, b = write("a.jsonl", before), write("b.jsonl", after)

    def run(*paths):
        return subprocess.run(
            [sys.executable, str(TOOLS / "dump_diff.py"), *paths], capture_output=True, text=True, timeout=60,
        )

    # one line per changed field, in field order: rows, largest change, ids;
    # NaN equals NaN, and a flag has no size of change
    out = run(a, b)
    assert out.returncode == 0
    assert out.stdout.splitlines() == ["wardrop_gap 2 3e-16 w/s1 w/s3", "certified 2 - w/s1 w/s3"]
    assert [(field, ids) for field, ids, _ in dump_diff(before, after)] == [
        ("wardrop_gap", ["w/s1", "w/s3"]), ("certified", ["w/s1", "w/s3"]),
    ]
    out = run(a, a)
    assert (out.returncode, out.stdout) == (0, "no field changed\n")
    # the rows must be the same, in the same order
    for rows in (after[::-1], after[:2]):
        out = run(a, write("c.jsonl", rows))
        assert out.returncode == 1 and out.stdout.startswith("rows differ: ")
