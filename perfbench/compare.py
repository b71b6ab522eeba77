"""Compare two source trees, parent and change, on the benchmark.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--pairs 10]
        [--workloads unity-cold,cli] [--out runs.jsonl]
    python3 perfbench/compare.py --load runs.jsonl

Both trees are measured with this copy of the benchmark (``run.py`` beside this
file) and the run length and metrics of its BENCHMARK.json.  Pair ``i`` runs
every workload on both trees with seed ``SEED_BASE + i``; even pairs run the
parent first, odd pairs the change.  Each end-to-end metric of each workload
gets one verdict:

* ``unresolved`` -- the parent's or the change's spread (interquartile range
  over median) exceeds the metric's bound, and not every change run beats
  every parent run (then ``better``);
* ``worse`` -- the change's median is worse than the parent's by more than
  the bound;
* ``gain`` -- the change wins at least nine tenths of the pairs (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile range; void when the change fails a larger share of calls,
  returns a larger share of wrong results (outside the error allowance of
  ``check.py``) or returns incorrect output;
* ``same`` -- otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SIDES = ("parent", "change")
SEED_BASE = 1000


def run_once(tree: Path, workload: str, seed: int, seconds: int):
    """The result line of one run, and the quality counts (returned, wrong)
    from the full record it leaves in the tree."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree} {workload} seed {seed} failed:\n{proc.stderr}")
    record = tree / ".bench_results" / f"{workload}-seed{seed}-trace0.json"
    quality = json.loads(record.read_text())["quality"]
    return json.loads(proc.stdout.strip().splitlines()[-1]), quality


def quartile_spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q3 - q1, (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent, change, better, bound, void):
    sign = 1.0 if better == "higher" else -1.0
    mp, iqr_p, spread_p = quartile_spread(parent)
    mc, _, spread_c = quartile_spread(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain_frac = sign * (mc - mp) / abs(mp) if mp else 0.0
    if max(spread_p, spread_c) > bound:
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        label = "better" if all_better else "unresolved"
    elif -gain_frac > bound:
        label = "worse"
    elif wins >= 0.9 * len(parent) and abs(mc - mp) > iqr_p and gain_frac > 0:
        label = f"gain (void: {void})" if void else "gain"
    else:
        label = "same"
    return {"verdict": label, "parent_median": mp, "change_median": mc,
            "change_frac": gain_frac, "wins": wins, "pairs": len(parent),
            "parent_spread": spread_p, "change_spread": spread_c}


def evaluate(runs, spec):
    metrics = spec["end_to_end"]
    table = {}
    for workload in sorted({r["workload"] for r in runs}):
        rows = [r for r in runs if r["workload"] == workload]
        pairs = sorted({r["pair"] for r in rows})
        by = {(r["pair"], r["side"]): r for r in rows}
        pairs = [i for i in pairs if (i, "parent") in by and (i, "change") in by]
        fail_share, wrong_share = {}, {}
        for side in SIDES:
            attempted = sum(by[i, side]["result"]["attempted"] for i in pairs)
            failed = sum(by[i, side]["result"]["failed"] for i in pairs)
            returned = sum(by[i, side]["quality"]["returned"] for i in pairs)
            wrong = sum(by[i, side]["quality"]["wrong"] for i in pairs)
            fail_share[side] = failed / attempted if attempted else 0.0
            wrong_share[side] = wrong / returned if returned else 0.0
        correct = {s: all(by[i, s]["result"]["correct"] for i in pairs) for s in SIDES}
        void = ", ".join(reason for reason, flag in (
            ("more failures", fail_share["change"] > fail_share["parent"]),
            ("more wrong results", wrong_share["change"] > wrong_share["parent"]),
            ("incorrect output", not correct["change"])) if flag)
        out = {"pairs": len(pairs), "fail_share": fail_share, "wrong_share": wrong_share,
               "correct": correct, "metrics": {}}
        for m in metrics:
            p = [by[i, "parent"]["result"]["metrics"][m["name"]]["value"] for i in pairs]
            c = [by[i, "change"]["result"]["metrics"][m["name"]]["value"] for i in pairs]
            out["metrics"][m["name"]] = verdict(p, c, m["better"], m["bound"], void)
        table[workload] = out
    return table


def print_table(table, spec):
    names = [m["name"] for m in spec["end_to_end"]]
    print("verdict and change of the median, change against parent (+ is better)")
    print("workload".ljust(14) + "".join(n.ljust(22) for n in names)
          + "fail share p->c".ljust(20) + "wrong share p->c")
    for workload, row in table.items():
        cells = []
        for n in names:
            v = row["metrics"][n]
            label = "gain(void)" if v["verdict"].startswith("gain (void") else v["verdict"]
            cells.append(f"{label} {100 * v['change_frac']:+.1f}%".ljust(22))
        fs, ws = row["fail_share"], row["wrong_share"]
        flag = "" if all(row["correct"].values()) else "  INCORRECT OUTPUT"
        print(workload.ljust(14) + "".join(cells)
              + f"{fs['parent']:.4f}->{fs['change']:.4f}".ljust(20)
              + f"{ws['parent']:.4f}->{ws['change']:.4f}{flag}")
    print()
    for workload, row in table.items():
        for n in names:
            v = row["metrics"][n]
            print(f"{workload} {n}: {v['verdict']}; median {v['parent_median']:.6g} -> "
                  f"{v['change_median']:.6g}; wins {v['wins']}/{v['pairs']}; spread "
                  f"{v['parent_spread']:.3f} / {v['change_spread']:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--load", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

    if args.load:
        runs = [json.loads(line) for line in args.load.read_text().splitlines() if line]
    else:
        if args.parent is None or args.change is None:
            parser.error("give PARENT_DIR and CHANGE_DIR, or --load")
        if args.pairs < 10:
            parser.error("a comparison needs at least ten pairs")
        workloads = (args.workloads.split(",") if args.workloads
                     else [w["name"] for w in spec["workloads"]])
        trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
        runs = []
        sink = args.out.open("w") if args.out else None
        try:
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for workload in workloads:
                    for side in order:
                        result, quality = run_once(trees[side], workload, SEED_BASE + i,
                                                   spec["run_seconds"])
                        run = {"pair": i, "side": side, "workload": workload,
                               "seed": SEED_BASE + i, "result": result, "quality": quality}
                        runs.append(run)
                        if sink:
                            sink.write(json.dumps(run) + "\n")
                            sink.flush()
                print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
        finally:
            if sink:
                sink.close()
    print_table(evaluate(runs, spec), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
