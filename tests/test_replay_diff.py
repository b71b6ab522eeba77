import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "replay_diff.py"


def _cli(index, argv, records, code=0, extra=""):
    text = "".join(json.dumps(r) + "\n" for r in records) + extra
    return f"cli 1000 0 {index} {json.dumps(['cli', *argv])} exit={code} {json.dumps(text)}"


def _record(re, est):
    return {"command": "zeta", "value_re": re, "value_im": 0.0,
            "abs_error_estimate": est, "terms_used": 8, "method": "euler"}


BASE = [
    'series-long 1000 0 0 ["zeta", 3, 512, "euler", 1e-12, true] '
    "0x1.33ba004f00621p+0 0x0.0p+0 0x1.0p-44",
    'series-long 1000 0 1 ["zeta", 3, 256, "euler", 1e-12, true] '
    "0x1.33ba004f00621p+0 0x0.0p+0 0x1.0p-44",
    'series-long 1000 0 2 ["inverse_square", 2.3, 1024, "euler"] '
    "0x1.5faa995227bf6p-2 0x0.0p+0 0x1.0p-24",
    'series-long 1000 0 3 ["inverse_square", 460.0, 16, "cvz"] raised OverflowError',
    'series-long 1000 0 4 ["gamma_pfd", 0.5, 0.1, 0.0, 16, "cvz"] '
    "0x1.0p+0 0x0.0p+0 0x1.0p-50",
    'series-long 1000 0 5 ["modulus", 1.0, 0.5, 0] raised DomainError "need n_factors >= 1"',
    'series-long 1000 0 6 ["modulus", 1.0, 0.5, -1] raised DomainError "need n_factors >= 1"',
    _cli(0, ["zeta", "3"], [_record(1.2, 1e-15)]),
    _cli(1, ["verify", "--suite", "pfd"], [], extra="PASS pfd: a\n1/1 checks passed\n"),
    _cli(2, ["zeta", "4"], [_record(1.08, 1e-15)]),
    "Traceback (most recent call last):",
]

HEAD = [
    # same value, larger estimate
    'series-long 1000 0 0 ["zeta", 3, 512, "euler", 1e-12, true] '
    "0x1.33ba004f00621p+0 0x0.0p+0 0x1.0000000000001p-44",
    # value moved by one ulp, estimate shrank
    'series-long 1000 0 1 ["zeta", 3, 256, "euler", 1e-12, true] '
    "0x1.33ba004f00622p+0 0x0.0p+0 0x1.fffffffffffffp-45",
    'series-long 1000 0 2 ["inverse_square", 2.3, 1024, "euler"] '
    "0x1.5faa995227bf6p-2 0x0.0p+0 0x1.0p-24",
    'series-long 1000 0 3 ["inverse_square", 460.0, 16, "cvz"] raised DomainError',
    # same type, new message
    'series-long 1000 0 5 ["modulus", 1.0, 0.5, 0] '
    'raised DomainError "n_factors must be >= 1, got 0"',
    'series-long 1000 0 6 ["modulus", 1.0, 0.5, -1] raised DomainError "need n_factors >= 1"',
    _cli(0, ["zeta", "3"], [_record(1.2, 2e-15)]),
    _cli(1, ["verify", "--suite", "pfd"], [], extra="FAIL pfd: a\n0/1 checks passed\n"),
    _cli(2, ["zeta", "4"], [], code=3, extra="error: bad input\n"),
]


def test_replay_diff_counts_each_kind_of_change(tmp_path):
    base, head = tmp_path / "base.txt", tmp_path / "head.txt"
    base.write_text("\n".join(BASE) + "\n")
    head.write_text("\n".join(HEAD) + "\n")
    out = subprocess.run([sys.executable, str(SCRIPT), str(base), str(head)],
                         capture_output=True, text=True, check=True).stdout
    rows = {tuple(cells[:2]): cells[2:] for cells in
            ([c.strip() for c in line.strip("|").split("|")]
             for line in out.splitlines()[2:])}
    # calls, moved, grew, shrank, max growth, error type, in one dump only
    assert rows == {
        ("cli", "cli verify"): ["1", "1", "0", "0", "0", "0", "0"],
        ("cli", "cli zeta"): ["2", "0", "1", "0", "1", "1", "0"],
        ("series-long", "gamma_pfd"): ["0", "0", "0", "0", "0", "0", "1"],
        ("series-long", "inverse_square"): ["2", "0", "0", "0", "0", "1", "0"],
        ("series-long", "modulus"): ["2", "1", "0", "0", "0", "0", "0"],
        ("series-long", "zeta"): ["2", "1", "1", "1", "2.2e-16", "0", "0"],
    }
    assert out.splitlines()[0].startswith("| workload | kind | calls |")


def test_replay_diff_holds_moved_values_against_mpmath(tmp_path):
    # zeta(3) moves from 2 ulps above its reference (rounded to a double) to
    # 1; phi(2, 0.5) = pi/2 moves from the nearest double to the next one up.
    base, head = tmp_path / "base.txt", tmp_path / "head.txt"
    zeta = 'unity-cold 1000 0 0 ["zeta", 3, 64, "none", 1e-12, true] {} 0x0.0p+0 0x1.0p-50'
    phi = 'unity-cold 1000 0 1 ["phi", 2, 0.5, 0.0, "gamma"] {} 0x0.0p+0 -'
    base.write_text(zeta.format("0x1.33ba004f00623p+0") + "\n"
                    + phi.format("0x1.921fb54442d18p+0") + "\n")
    head.write_text(zeta.format("0x1.33ba004f00622p+0") + "\n"
                    + phi.format("0x1.921fb54442d19p+0") + "\n")
    out = subprocess.run([sys.executable, str(SCRIPT), str(base), str(head), "--reference"],
                         capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert lines[0].endswith("| moved toward ref | moved away | worst moved error (rel) |")
    rows = {tuple(cells[:2]): [cells[3], *cells[-3:]] for cells in
            ([c.strip() for c in line.strip("|").split("|")] for line in lines[2:])}
    # value moved, toward, away, worst error base -> head
    assert rows == {
        ("unity-cold", "phi"): ["1", "0", "1", "0 → 1.4e-16"],
        ("unity-cold", "zeta"): ["1", "1", "0", "3.7e-16 → 1.8e-16"],
    }
