"""Count, per workload and call kind, how the calls of two replay dumps differ.

    python3 scripts/replay_diff.py BASE_DUMP HEAD_DUMP

The dumps are outputs of ``scripts/replay_hex.py`` on two trees.  Calls are
matched by workload, seed, block and index, and by order where those repeat.
For each workload and call kind (the library function, or the ``cli``
subcommand) the script prints one row of a Markdown table: how many calls
both dumps hold, and how many of them had

* the value moved: its real or imaginary bits, the message of the exception
  a library call raised, or for ``cli`` any ``value_re``/``value_im`` of its
  JSON records or any output line that is not such a record;
* the estimate grow, or shrink (``abs_error_estimate`` for ``cli``), with the
  largest relative growth;
* the error type change: the exception a library call raised, or the exit
  code of a ``cli`` call.  Such a call is counted in no other column.

Calls in only one dump are counted in the last column.  Lines that are not
calls (warnings, tracebacks) are skipped.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

_DECODER = json.JSONDecoder()
_COLUMNS = ("calls", "value moved", "estimate grew", "estimate shrank",
            "max growth (rel)", "error type changed", "in one dump only")


def parse_line(line: str):
    """((workload, seed, block, index), kind, outcome) or None.

    outcome is (error, values, estimates, other): error is the exception name
    or cli exit code (None when the call returned), values the value bits,
    estimates the error estimates as floats (None where there is none), and
    other the exception's message, or the cli output lines that are not JSON
    records."""
    head = line.split(" ", 4)
    if len(head) < 5 or not all(part.isdigit() for part in head[1:4]):
        return None
    try:
        call, end = _DECODER.raw_decode(head[4])
    except json.JSONDecodeError:
        return None
    if not isinstance(call, list) or not call:
        return None
    key = (head[0], *map(int, head[1:4]))
    result = head[4][end:].strip()
    if call[0] == "cli":
        return key, "cli " + str(call[1]), _cli_outcome(result)
    kind = str(call[0])
    if result.startswith("raised "):
        return key, kind, (result.split()[1], (), (), tuple(result.split(" ", 2)[2:]))
    re, im, est = result.split()
    return key, kind, (None, (re, im), (None if est == "-" else float.fromhex(est),), ())


def _cli_outcome(result: str):
    code, _, text = result.partition(" ")
    values, estimates, other = [], [], []
    for out in json.loads(text).splitlines():
        try:
            record = json.loads(out)
        except json.JSONDecodeError:
            record = None
        if isinstance(record, dict) and "value_re" in record:
            values.append((repr(record["value_re"]), repr(record.get("value_im"))))
            estimates.append(record.get("abs_error_estimate"))
        else:
            other.append(out)
    error = None if code == "exit=0" else code
    return error, tuple(values), tuple(estimates), tuple(other)


def read_dump(path: str) -> dict:
    """{(workload, seed, block, index, occurrence): (kind, outcome)}: the
    defect calls reuse block 0's indices, so the two dumps' lines are
    matched by their order among the lines with the same position."""
    calls, seen = {}, defaultdict(int)
    with open(path, encoding="utf-8") as f:
        for parsed in filter(None, map(parse_line, f)):
            key, kind, outcome = parsed
            seen[key] += 1
            calls[(*key, seen[key])] = kind, outcome
    return calls


def compare(base: dict, head: dict) -> dict:
    """{(workload, kind): row} with the counts named in _COLUMNS."""
    rows = defaultdict(lambda: dict.fromkeys(_COLUMNS, 0))
    for key in base.keys() | head.keys():
        if key not in base or key not in head:
            kind = (base.get(key) or head[key])[0]
            rows[key[0], kind]["in one dump only"] += 1
            continue
        kind, (err_a, val_a, est_a, other_a) = base[key]
        _, (err_b, val_b, est_b, other_b) = head[key]
        row = rows[key[0], kind]
        row["calls"] += 1
        if err_a != err_b:
            row["error type changed"] += 1
            continue
        row["value moved"] += val_a != val_b or other_a != other_b
        pairs = [(a, b) for a, b in zip(est_a, est_b) if a is not None and b is not None]
        row["estimate grew"] += any(b > a for a, b in pairs)
        row["estimate shrank"] += any(b < a for a, b in pairs)
        growth = [(b - a) / a for a, b in pairs if b > a and a > 0]
        row["max growth (rel)"] = max([row["max growth (rel)"], *growth])
    return dict(sorted(rows.items()))


def table(rows: dict) -> str:
    lines = ["| workload | kind | " + " | ".join(_COLUMNS) + " |",
             "|---|---|" + "---|" * len(_COLUMNS)]
    for (workload, kind), row in rows.items():
        cells = [f"{row[c]:.2g}" if c == "max growth (rel)" else str(row[c])
                 for c in _COLUMNS]
        lines.append(f"| {workload} | {kind} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    args = parser.parse_args(argv)
    print(table(compare(read_dump(args.base), read_dump(args.head))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
