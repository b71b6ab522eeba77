"""Count, per workload and call kind, how the calls of two replay dumps differ.

    python3 scripts/replay_diff.py BASE_DUMP HEAD_DUMP [--reference]

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

With ``--reference`` (it needs mpmath) each library call whose returned value
moved is held against its mpmath reference, ``References.for_call`` of
``perfbench/check.py``, rounded to a double, in three more columns: how many
moved toward the reference and how many away from it (a value that moves
within half an ulp of it may read as neither), and the worst relative error
over the moved values, base -> head.  A moved value with no reference (a ``phi`` at
|z| >= 1) is counted in neither; ``cli`` rows show ``-``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

_DECODER = json.JSONDecoder()
_COLUMNS = ("calls", "value moved", "estimate grew", "estimate shrank",
            "max growth (rel)", "error type changed", "in one dump only")
_REF_COLUMNS = ("moved toward ref", "moved away", "worst moved error (rel)")


def parse_line(line: str):
    """((workload, seed, block, index), kind, outcome, call) or None.

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
        return key, "cli " + str(call[1]), _cli_outcome(result), call
    kind = str(call[0])
    if result.startswith("raised "):
        return key, kind, (result.split()[1], (), (), tuple(result.split(" ", 2)[2:])), call
    re, im, est = result.split()
    return key, kind, (None, (re, im), (None if est == "-" else float.fromhex(est),), ()), call


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
    """{(workload, seed, block, index, occurrence): (kind, outcome, call)}:
    the defect calls reuse block 0's indices, so the two dumps' lines are
    matched by their order among the lines with the same position."""
    calls, seen = {}, defaultdict(int)
    with open(path, encoding="utf-8") as f:
        for parsed in filter(None, map(parse_line, f)):
            key, *entry = parsed
            seen[key] += 1
            calls[(*key, seen[key])] = tuple(entry)
    return calls


def load_references():
    """perfbench/check.py's mpmath references, imported without changing it."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from check import References
    return References()


def _against_reference(row: dict, refs, call, bits_a, bits_b) -> None:
    """Count one moved library value toward or away from its reference, and
    keep the worst relative error of the moved values on each side."""
    try:
        ref = refs.for_call(call)
    except ValueError:
        return
    errors = [abs(complex(*map(float.fromhex, bits)) - ref) / (abs(ref) or 1.0)
              for bits in (bits_a, bits_b)]
    row["moved toward ref"] += errors[1] < errors[0]
    row["moved away"] += errors[1] > errors[0]
    worst = row["worst moved error (rel)"] or (0.0, 0.0)
    row["worst moved error (rel)"] = tuple(map(max, worst, errors))


def compare(base: dict, head: dict, refs=None) -> dict:
    """{(workload, kind): row} with the counts named in _COLUMNS, and with
    `refs` (a perfbench References) those named in _REF_COLUMNS."""
    columns = _COLUMNS + (_REF_COLUMNS if refs is not None else ())
    rows = defaultdict(lambda: dict.fromkeys(columns, 0))
    for key in base.keys() | head.keys():
        if key not in base or key not in head:
            kind = (base.get(key) or head[key])[0]
            rows[key[0], kind]["in one dump only"] += 1
            continue
        kind, (err_a, val_a, est_a, other_a), call = base[key]
        _, (err_b, val_b, est_b, other_b), _ = head[key]
        row = rows[key[0], kind]
        row["calls"] += 1
        if err_a != err_b:
            row["error type changed"] += 1
            continue
        row["value moved"] += val_a != val_b or other_a != other_b
        if refs is not None and val_a != val_b and call[0] != "cli":
            _against_reference(row, refs, call, val_a, val_b)
        pairs = [(a, b) for a, b in zip(est_a, est_b) if a is not None and b is not None]
        row["estimate grew"] += any(b > a for a, b in pairs)
        row["estimate shrank"] += any(b < a for a, b in pairs)
        growth = [(b - a) / a for a, b in pairs if b > a and a > 0]
        row["max growth (rel)"] = max([row["max growth (rel)"], *growth])
    return dict(sorted(rows.items()))


def _cell(kind: str, column: str, value) -> str:
    if column == "max growth (rel)":
        return f"{value:.2g}"
    if column in _REF_COLUMNS and kind.startswith("cli "):
        return "-"
    if column == "worst moved error (rel)":
        return f"{value[0]:.2g} → {value[1]:.2g}" if value else "-"
    return str(value)


def table(rows: dict, reference: bool = False) -> str:
    columns = _COLUMNS + (_REF_COLUMNS if reference else ())
    lines = ["| workload | kind | " + " | ".join(columns) + " |",
             "|---|---|" + "---|" * len(columns)]
    for (workload, kind), row in rows.items():
        cells = [_cell(kind, c, row[c]) for c in columns]
        lines.append(f"| {workload} | {kind} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--reference", action="store_true",
                        help="hold each moved library value against mpmath")
    args = parser.parse_args(argv)
    refs = load_references() if args.reference else None
    print(table(compare(read_dump(args.base), read_dump(args.head), refs), args.reference))
    return 0


if __name__ == "__main__":
    sys.exit(main())
