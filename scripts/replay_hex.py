"""Dump the value and error estimate of every seeded benchmark call as float hex.

    python3 scripts/replay_hex.py TREE [--workloads zeta-warm,series-long,unity-cold]
        [--seeds 1000,1001,1002] [--blocks 3] [--defects] > dump.txt

TREE is a checkout of this repository.  The script imports TREE/src/omega_zeta
and, without changing them, TREE/perfbench/workloads.py and
``worker.make_runner``, so each call goes through the same public entry points
as the benchmark.  Per workload and seed it makes the warm-up calls, then
blocks 0 .. BLOCKS-1 (or the defect calls with ``--defects``), all in this one
process.  Each call prints one line: workload, seed, block, index, the call,
and either the value's real and imaginary parts and the estimate in float hex
or ``raised``, the type of the exception raised and its message as a JSON
string.  A ``cli`` call runs ``omega_zeta.cli.main`` in-process and prints its
exit code and output, with ``elapsed_ms`` removed.

Run it on two trees and diff the dumps to list every value or estimate that
moved; cached values carry the same bits as fresh ones, so the order of calls
does not change the output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import sys

_ELAPSED = re.compile(r', "elapsed_ms": [^,}\n]+')


def load_tree(tree: str):
    """(omega_zeta, workloads, make_runner) imported from TREE."""
    src = os.path.join(tree, "src")
    sys.path[:0] = [src, os.path.join(tree, "perfbench")]
    import omega_zeta
    import omega_zeta.cli
    if not os.path.abspath(omega_zeta.__file__).startswith(src + os.sep):
        raise SystemExit(f"omega_zeta imported from {omega_zeta.__file__}, not {src}")
    import workloads
    from worker import make_runner
    return omega_zeta, workloads, make_runner(omega_zeta)


def run_cli(oz, argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = oz.cli.main(argv)
    text = _ELAPSED.sub("", out.getvalue() + err.getvalue())
    return f"exit={code} " + json.dumps(text)


def describe(oz, run, call) -> str:
    if call[0] == "cli":
        return run_cli(oz, call[1:])
    try:
        value, estimate = run(call)
    except Exception as exc:  # a raised call is an outcome like any other
        return f"raised {type(exc).__name__} {json.dumps(str(exc))}"
    value = complex(value)
    est = "-" if estimate is None else float(estimate).hex()
    return f"{value.real.hex()} {value.imag.hex()} {est}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree")
    parser.add_argument("--workloads", default="zeta-warm,series-long,unity-cold")
    parser.add_argument("--seeds", default="1000,1001,1002")
    parser.add_argument("--blocks", type=int, default=3)
    parser.add_argument("--defects", action="store_true")
    args = parser.parse_args(argv)

    oz, workloads, run = load_tree(os.path.abspath(args.tree))
    for name in args.workloads.split(","):
        for seed in map(int, args.seeds.split(",")):
            for call in workloads.warmup(name):
                describe(oz, run, call)
            for b in range(1 if args.defects else args.blocks):
                calls = (workloads.defect_block(name, seed, b) if args.defects
                         else workloads.block(name, seed, b))
                for i, call in enumerate(calls):
                    print(name, seed, b, i, json.dumps(call), describe(oz, run, call))
    return 0


if __name__ == "__main__":
    sys.exit(main())
