"""Compare two ``tools/outputs_digest.py --dump`` files by value.

From the root of a checkout:

    python3 tools/outputs_digest.py --dump before.jsonl   # in one checkout
    python3 tools/outputs_digest.py --dump after.jsonl    # in the other
    python3 tools/dump_diff.py before.jsonl after.jsonl

Each file holds one JSON line per instance. Both must list the same
instances, by workload and id, in the same order; else the first row where
they part is printed and the exit status is 1. Otherwise each field that
differs on some row prints one line
``field rows largest_change workload/id ...``: the number of rows where it
differs, the largest absolute change among them (``-`` where no changed
value is a number on both sides, a flag or a status for example) and the
rows' ids in file order. Two NaNs count as equal. With no field changed it
prints ``no field changed``. The exit status is then 0 either way: a
change of value is reported, not judged.
"""

from __future__ import annotations

import json
import math
import sys

#: the fields that name a row
KEYS = ("workload", "id")


def read_dump(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _same(x, y) -> bool:
    return x == y or (isinstance(x, float) and isinstance(y, float) and math.isnan(x) and math.isnan(y))


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def dump_diff(before: list[dict], after: list[dict]) -> list[tuple[str, list[str], float | None]]:
    """Per field that differs on some row, in the order the fields first
    appear: its name, the ids ``workload/id`` of those rows and the largest
    absolute change among the rows where both values are numbers (None if
    there is none). Raises ValueError unless both list the same rows in the
    same order."""
    ids_before = [tuple(row.get(key) for key in KEYS) for row in before]
    ids_after = [tuple(row.get(key) for key in KEYS) for row in after]
    if ids_before != ids_after:
        for i, (x, y) in enumerate(zip(ids_before, ids_after)):
            if x != y:
                raise ValueError(f"row {i + 1} is {'/'.join(map(str, x))} in one dump and {'/'.join(map(str, y))} in the other")
        raise ValueError(f"the dumps hold {len(before)} and {len(after)} rows")
    fields = dict.fromkeys(field for row in (*before, *after) for field in row if field not in KEYS)
    changed = []
    for field in fields:
        ids, changes = [], []
        for x, y in zip(before, after):
            old, new = x.get(field), y.get(field)
            if _same(old, new):
                continue
            ids.append(f"{x['workload']}/{x['id']}")
            if _number(old) and _number(new):
                changes.append(abs(new - old))
        if ids:
            changed.append((field, ids, max(changes) if changes else None))
    return changed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: dump_diff.py BEFORE AFTER", file=sys.stderr)
        return 2
    try:
        changed = dump_diff(read_dump(argv[0]), read_dump(argv[1]))
    except ValueError as exc:
        print(f"rows differ: {exc}")
        return 1
    for field, ids, largest in changed:
        print(field, len(ids), "-" if largest is None else f"{largest:.3g}", *ids)
    if not changed:
        print("no field changed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
