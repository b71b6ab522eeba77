"""Benchmark entry point for omega_zeta.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (``src/omega_zeta`` below the current
directory).  The metric names come from the BENCHMARK.json beside this
benchmark's own directory, so this copy can measure any tree.  One caller runs
the workload on a closed loop from a single process, with at most one child
process at a time.  The library workloads run in ``worker.py``; the ``cli``
workload spawns ``python -m omega_zeta.cli``.  After the timed region every
returned result is checked against mpmath.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs the workload untraced for half the time and traced for the other half,
makes the workload's defect calls once, untimed, and prints the per-layer
metrics.  The last line of stdout is one JSON object with
keys correct, attempted, failed and metrics; the lines before it are a readable
report, and the full record goes to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import speed
import workloads
from check import ROUND_ULPS, References, check_cli, classify
from tracer import merge_summaries
from worker import RECORD_FIELDS

BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 7          # fresh interpreters timed for setup_s
BASELINE_SAMPLES = 5       # spawns each for cli.interp_ms and cli.import_ms
CHILD_TIMEOUT_S = 120      # one worker or CLI call; well inside the 180 s run limit
FAIL_TYPES = ("SignPatternError", "OverflowError", "DivergenceError", "DomainError",
              "PoleError", "ResidueError", "DegenerateNodesError", "ValueError")
CLI_EXITS = (1, 2, 3, 4)


class Outcome:
    """One attempted call: its inputs and how it ended."""

    __slots__ = ("call", "latency_ns", "segment", "error", "typed", "value",
                 "estimate", "stdout", "exit_code", "verdict")

    def __init__(self, call, latency_ns, segment, error=None, typed=False, value=None,
                 estimate=None, stdout=None, exit_code=None):
        self.call = call
        self.latency_ns = latency_ns
        self.segment = segment      # index into Phase.segments
        self.error = error          # None when the call returned
        self.typed = typed          # error is an OmegaZetaError
        self.value = value
        self.estimate = estimate
        self.stdout = stdout
        self.exit_code = exit_code  # CLI calls only
        self.verdict = None         # ok / wrong / gross, set by the check


class Phase:
    """Everything one timed stretch of a workload produced."""

    def __init__(self, exponent=1.0):
        self.exponent = exponent    # of the probe ratio that scales segments
        self.outcomes = []
        self.segments = []          # (probe before ns, probe after ns, wall ns)
        self.processes = []         # calls per interpreter, for input_properties
        self.maxrss_kb = 0
        self.layers = []            # tracer summaries
        self.absent = set()
        self.messages = {}

    def add_segments(self, probes):
        """Segments between consecutive probes [start ns, duration ns] of one
        process; returns the index of the first."""
        first = len(self.segments)
        for (t0, d0), (t1, d1) in zip(probes, probes[1:]):
            self.segments.append((d0, d1, t1 - t0 - d0))
        return first

    def scaled_latency_ms(self, o):
        before, after, _ = self.segments[o.segment]
        return o.latency_ns * speed.scale(before, after, self.exponent) / 1e6

    def returned(self):
        return [o for o in self.outcomes if o.error is None]

    def evals_per_s(self, scaled=True):
        """Returned calls per second of wall time, at reference speed."""
        wall = sum(w * (speed.scale(b, a, self.exponent) if scaled else 1.0)
                   for b, a, w in self.segments)
        return len(self.returned()) / (wall / 1e9) if wall else 0.0

    def probe_ms(self):
        return [d / 1e6 for seg in self.segments for d in seg[:2]]


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU, so a speed probe run
    here measures the CPU a spawned CLI process runs on.  Returns the number
    of CPUs the process could use before."""
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        return len(cpus)
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd, root, stdin=None, timeout=CHILD_TIMEOUT_S):
    return subprocess.run(cmd, cwd=root, env=child_env(root), input=stdin,
                          capture_output=True, text=True, timeout=timeout)


def import_times(root: Path, module: str, samples: int):
    """In-process import time of `module` in fresh interpreters, after one
    untimed start that leaves the bytecode cache written.  Returns the raw
    times and the times at reference speed, scaled by probes run here just
    before and after each interpreter (this process shares its CPU)."""
    code = ("import time, sys; t = time.perf_counter(); import " + module
            + "; sys.stdout.write(repr(time.perf_counter() - t))")
    raw, scaled = [], []
    for i in range(samples + 1):
        before = speed.probe()
        proc = spawn([sys.executable, "-c", code], root)
        after = speed.probe()
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import {module}:\n{proc.stderr}")
        if i:
            raw.append(float(proc.stdout))
            scaled.append(raw[-1] * speed.scale(before, after))
    return raw, scaled


def spawn_wall_ms(root: Path, code: str, samples: int) -> float:
    walls = []
    for i in range(samples + 1):
        t0 = time.perf_counter_ns()
        proc = spawn([sys.executable, "-c", code], root)
        t1 = time.perf_counter_ns()
        if proc.returncode != 0:
            raise RuntimeError(f"baseline spawn failed:\n{proc.stderr}")
        if i:
            walls.append((t1 - t0) / 1e6)
    return statistics.median(walls)


# --- library workloads -------------------------------------------------------

def run_worker(root, phase, job):
    proc = spawn([sys.executable, str(BENCH_DIR / "worker.py")], root,
                 stdin=json.dumps(job), timeout=job["seconds"] + CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    out = json.loads(proc.stdout)
    first_segment = phase.add_segments(out["probes"])
    starts = [t for t, _ in out["probes"]]
    records = array("d")
    with open(job["records_path"], "rb") as fh:
        records.frombytes(fh.read())
    source = workloads.defect_block if job.get("defects") else workloads.block
    calls = []
    for b, done in out["blocks"]:
        calls.extend(source(job["workload"], job["seed"], b)[:done])
    if len(records) != RECORD_FIELDS * len(calls):
        raise RuntimeError("worker records do not match the calls it reported")
    phase.processes.append(calls)
    for i, call in enumerate(calls):
        t0, lat, code, re_, im_, est = records[RECORD_FIELDS * i:RECORD_FIELDS * (i + 1)]
        segment = first_segment + bisect.bisect_right(starts, t0) - 1
        code = int(code)
        if code:
            phase.outcomes.append(Outcome(call, int(lat), segment,
                                          error=out["error_types"][code - 1],
                                          typed=out["error_typed"][code - 1]))
        else:
            phase.outcomes.append(Outcome(call, int(lat), segment, value=complex(re_, im_),
                                          estimate=None if math.isnan(est) else est))
    phase.maxrss_kb = max(phase.maxrss_kb, out["maxrss_kb"])
    phase.messages.update(out["error_messages"])
    if "layers" in out:
        phase.layers.append(out["layers"])
        phase.absent.update(out["absent"])


def run_library(root, workload, seed, seconds, traced, spans_dir):
    phase = Phase()
    job = {"workload": workload, "seed": seed, "trace": traced, "spans_path": None,
           "records_path": str(spans_dir.parent / f"{workload}.records")}
    if workloads.fresh_per_block(workload):
        # One fresh interpreter per block: nothing is warm when a pass starts.
        deadline = time.monotonic() + seconds
        b = 0
        while (left := deadline - time.monotonic()) > 0:
            if traced:
                job["spans_path"] = str(spans_dir / f"{workload}-{b}.spans")
            run_worker(root, phase, dict(job, first_block=b, max_blocks=1, seconds=left))
            b += 1
    else:
        if traced:
            job["spans_path"] = str(spans_dir / f"{workload}-0.spans")
        run_worker(root, phase, dict(job, first_block=0, max_blocks=None, seconds=seconds))
    return phase


# --- cli workload ------------------------------------------------------------

def run_cli(root, seed, seconds, traced, spans_dir, defects=False):
    """Spawn the CLI once per call.  Each call is its own segment, bounded by
    speed probes run in this process, which shares the child's CPU."""
    source = workloads.defect_block if defects else workloads.block
    tag = "cli-defects" if defects else "cli"
    phase = Phase(exponent=speed.SPAWN_EXPONENT)
    stats_path = spans_dir / "cli-stats.json"
    deadline = time.monotonic() + seconds
    calls_done = []
    b = 0
    while time.monotonic() < deadline:
        calls = source("cli", seed, b)
        if not calls:
            break
        for call in calls:
            if time.monotonic() >= deadline:
                break
            argv = call[1:]
            if traced:
                cmd = [sys.executable, str(BENCH_DIR / "cli_shim.py"), str(stats_path),
                       str(spans_dir / f"{tag}-{len(calls_done)}.spans"), *argv]
            else:
                cmd = [sys.executable, "-m", "omega_zeta.cli", *argv]
            calls_done.append(call)
            before = speed.probe()
            t0 = time.perf_counter_ns()
            try:
                proc = spawn(cmd, root)
            except subprocess.TimeoutExpired:
                proc = None
            latency = time.perf_counter_ns() - t0
            phase.segments.append((before, speed.probe(), latency))
            segment = len(phase.segments) - 1
            if proc is None:
                phase.outcomes.append(Outcome(call, latency, segment, error="Timeout"))
                continue
            raised = {}
            if traced and stats_path.exists():
                stats = json.loads(stats_path.read_text())
                stats_path.unlink()
                phase.layers.append(stats["layers"])
                phase.absent.update(stats["absent"])
                raised = stats["raised"]
            if proc.returncode == 0:
                phase.outcomes.append(Outcome(call, latency, segment, stdout=proc.stdout,
                                              exit_code=0))
            else:
                error = raised.get("type") or f"exit_{proc.returncode}"
                phase.outcomes.append(Outcome(call, latency, segment, error=error,
                                              typed=raised.get("typed", False),
                                              exit_code=proc.returncode))
                phase.messages.setdefault(error, proc.stderr.strip()[-200:])
        b += 1
    phase.processes.append(calls_done)
    phase.maxrss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return phase


def run_defects(root, workload, spans_dir):
    """The workload's defect calls (workloads.DEFECTS), once and untimed: the
    library ones in an untraced worker, the CLI ones through the shim, which
    reports the type of what a subcommand raised."""
    if workload == "cli":
        return run_cli(root, 0, CHILD_TIMEOUT_S, True, spans_dir, defects=True)
    phase = Phase()
    run_worker(root, phase, {"workload": workload, "seed": 0, "trace": False,
                             "spans_path": None, "defects": True,
                             "records_path": str(spans_dir.parent / f"{workload}-defects.records"),
                             "first_block": 0, "max_blocks": 1, "seconds": CHILD_TIMEOUT_S})
    return phase


def run_phase(root, workload, seed, seconds, traced, spans_dir):
    if workload == "cli":
        return run_cli(root, seed, seconds, traced, spans_dir)
    return run_library(root, workload, seed, seconds, traced, spans_dir)


# --- checking and metrics ----------------------------------------------------

def check_phase(refs, phase):
    for o in phase.returned():
        if o.call[0] == "cli":
            o.verdict = check_cli(refs, o.call[1:], o.stdout)
        else:
            o.verdict = classify(o.value, o.estimate, refs.for_call(o.call))


def nearest_rank(sorted_vals, p):
    k = max(1, math.ceil(p / 100.0 * len(sorted_vals)))
    return sorted_vals[k - 1]


def tail(sorted_vals, design):
    """(percentile, value): the design percentile, or the highest lower rung
    of the ladder that still has ten samples beyond it."""
    n = len(sorted_vals)
    for p in sorted((q for q in workloads.LADDER if q <= design), reverse=True):
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p, nearest_rank(sorted_vals, p)
    return 100.0, sorted_vals[-1]


def latency_ms(phase, scaled=True):
    return sorted(phase.scaled_latency_ms(o) if scaled else o.latency_ns / 1e6
                  for o in phase.returned())


def failure_counts(phase):
    counts = {}
    for o in phase.outcomes:
        if o.error is not None:
            counts[o.error] = counts.get(o.error, 0) + 1
    return counts


def quality(phases):
    outcomes = [o for p in phases for o in p.outcomes]
    returned = [o for o in outcomes if o.error is None]
    failed = len(outcomes) - len(returned)
    wrong = sum(o.verdict in ("wrong", "gross") for o in returned)
    gross = sum(o.verdict == "gross" for o in returned)
    return {
        "attempted": len(outcomes), "failed": failed, "returned": len(returned),
        "wrong": wrong, "gross": gross,
        "fail_frac": failed / len(outcomes) if outcomes else 0.0,
        "wrong_frac": wrong / len(returned) if returned else 0.0,
    }


def wrong_examples(phases, refs, limit=20):
    """The first few wrong and gross results, with their references."""
    out = {"gross": [], "wrong": []}
    for o in (o for p in phases for o in p.returned()):
        if o.verdict in out and len(out[o.verdict]) < limit:
            entry = {"call": o.call}
            if o.call[0] == "cli":
                entry["stdout_tail"] = o.stdout[-300:]
            else:
                ref = refs.for_call(o.call)
                entry.update(value=[o.value.real, o.value.imag], estimate=o.estimate,
                             reference=[ref.real, ref.imag], abs_error=abs(o.value - ref))
            out[o.verdict].append(entry)
    return out


def end_to_end(workload, phase, setup_scaled):
    lat = latency_ms(phase)
    if not lat:
        raise RuntimeError("no call returned; latency metrics are undefined")
    pct, tail_value = tail(lat, workloads.design_percentile(workload))
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "evals_per_s": phase.evals_per_s(),
        "p50_ms": statistics.median(lat),
        "tail_ms": tail_value,
        "peak_rss_mb": phase.maxrss_kb / 1024.0,
    }
    raw = latency_ms(phase, scaled=False)
    probes = sorted(phase.probe_ms())
    samples = {"setup_interpreters": len(setup_scaled), "latency": len(lat),
               "tail_ms_by_percentile": {q: nearest_rank(lat, q) for q in workloads.LADDER},
               "segments": len(phase.segments),
               "probe_ms_p10_p50_p90": [nearest_rank(probes, q) for q in (10, 50, 90)],
               "raw": {"evals_per_s": phase.evals_per_s(scaled=False),
                       "p50_ms": statistics.median(raw),
                       "tail_ms": nearest_rank(raw, pct)},
               "tail_percentile": pct,
               "tail_beyond": len(lat) - math.ceil(pct / 100.0 * len(lat))}
    return metrics, samples


def per_layer(traced, untraced, defects, baselines):
    s = merge_summaries(traced.layers)

    def get(name, field="self_ns"):
        return s.get(name, {}).get(field, 0)

    def ms(*names):
        return sum(get(n) for n in names) / 1e6

    m = {}
    lg_calls = get("special.log_gamma", "outer_calls")
    m["special.log_gamma.calls"] = lg_calls
    m["special.log_gamma.self_ms"] = ms("special.log_gamma")
    m["special.log_gamma.reflected_share"] = (
        get("special.log_gamma", "outer_info") / lg_calls if lg_calls else 0.0)
    m["special.log_sin.calls"] = get("special.log_sin", "outer_calls")
    m["special.log_sin.self_ms"] = ms("special.log_sin")
    coef_calls = get("unity_product.coef", "calls")
    m["unity_product.coef.calls"] = coef_calls
    m["unity_product.coef.self_ms"] = ms("unity_product.coef")
    m["unity_product.coef.repeat_share"] = (
        get("unity_product.coef", "info") / coef_calls if coef_calls else 0.0)
    for route in ("gamma", "truncated", "expzeta"):
        m[f"unity_product.route.{route}.self_ms"] = ms(f"unity_product.route.{route}")
    m["oracle.calls"] = get("oracle.zeta_oracle", "calls") + get("oracle.tail_power_sum", "calls")
    m["oracle.self_ms"] = ms("oracle.zeta_oracle", "oracle.tail_power_sum")
    for method in ("none", "euler", "cvz"):
        m[f"accel.{method}.self_ms"] = ms(f"accel.{method}")
    m["accel.euler.terms"] = get("accel.euler", "outer_info")
    m["accel.cvz.terms"] = get("accel.cvz", "outer_info")
    m["accel.cvz.sign_failures"] = s.get("accel.cvz", {}).get("errors", {}).get("SignPatternError", 0)
    m["zeta_series.term.calls"] = get("zeta_series.term", "calls")
    m["zeta_series.term.self_ms"] = ms("zeta_series.term")
    m["zeta_series.trace_terms"] = get("zeta_series.series", "info")
    for fn in ("sine_term", "hyperbolic_term", "inner_double_sum"):
        m[f"zeta3.{fn}.self_ms"] = ms(f"zeta3.{fn}")
    m["gamma_pfd.series.self_ms"] = ms("gamma_pfd.series")
    m["gamma_pfd.inverse_square.self_ms"] = ms("gamma_pfd.inverse_square")
    m["pfd.coefficients.self_ms"] = ms("pfd.coefficients")
    for suite in workloads.SUITES:
        m[f"verify.{suite}.ms"] = get(f"verify.{suite}", "total_ns") / 1e6
    m["cli.interp_ms"] = baselines["interp_ms"]
    m["cli.import_ms"] = baselines["import_ms"]
    for sub in ("zeta", "phi", "gamma-pfd", "zeta3", "converge", "verify"):
        lat = [untraced.scaled_latency_ms(o) for o in untraced.returned()
               if o.call[0] == "cli" and o.call[1] == sub]
        m[f"cli.{sub}.p50_ms"] = statistics.median(lat) if lat else 0.0
    # Failures by type count the traced calls and the defect calls together.
    outcomes = traced.outcomes + defects.outcomes
    fails = failure_counts(traced)
    for name, count in failure_counts(defects).items():
        fails[name] = fails.get(name, 0) + count
    for name in FAIL_TYPES:
        m[f"fail.{name}"] = fails.get(name, 0)
    m["fail.other"] = sum(c for e, c in fails.items()
                          if e not in FAIL_TYPES and not e.startswith("exit_"))
    m["fail.untyped"] = sum(o.error is not None and not o.typed for o in outcomes)
    exits = {}
    for o in outcomes:
        if o.error is not None and o.exit_code is not None:
            exits[o.exit_code] = exits.get(o.exit_code, 0) + 1
    for code in CLI_EXITS:
        m[f"fail.cli_exit_{code}"] = exits.get(code, 0)
    q = quality([traced])
    m["fail_frac"] = q["fail_frac"]
    m["wrong_frac"] = q["wrong_frac"]
    q = quality([defects])
    m["defects.fail_frac"] = q["fail_frac"]
    m["defects.wrong_frac"] = q["wrong_frac"]
    base = untraced.evals_per_s()
    m["tracing.overhead_frac"] = 1.0 - traced.evals_per_s() / base if base else 0.0
    return m


# --- stamping and output -----------------------------------------------------

def git_sha(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp(root, args, nproc, samples):
    return {
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
        "python": platform.python_version(),
        "nproc": nproc, "pinned_to_one_cpu": True,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "samples": samples,
    }


def report(lines, name, value, unit, note=""):
    lines.append(f"{name:<40} {value:>14.6g} {unit:<6} {note}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    nproc = pin_to_one_cpu()
    if not (root / "src" / "omega_zeta" / "__init__.py").is_file():
        print("error: run from a source tree holding src/omega_zeta", file=sys.stderr)
        return 2
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    results_dir = root / ".bench_results"
    spans_dir = results_dir / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    entry = "omega_zeta.cli" if args.workload == "cli" else "omega_zeta"

    lines = []
    record = {}
    if args.trace == 0:
        setup_raw, setup_scaled = import_times(root, entry, SETUP_SAMPLES)
        phase = run_phase(root, args.workload, args.seed, args.seconds, False, spans_dir)
        phases = [phase]
        metrics, samples = end_to_end(args.workload, phase, setup_scaled)
        wanted = [m["name"] for m in spec["end_to_end"]]
        record["setup_times_s"] = {"raw": setup_raw, "reference_speed": setup_scaled}
    else:
        for old in spans_dir.glob(f"{args.workload}-*.spans"):
            old.unlink()
        baselines = {"interp_ms": spawn_wall_ms(root, "pass", BASELINE_SAMPLES),
                     "import_ms": spawn_wall_ms(root, "import omega_zeta.cli", BASELINE_SAMPLES)}
        half = args.seconds / 2.0
        untraced = run_phase(root, args.workload, args.seed, half, False, spans_dir)
        traced = run_phase(root, args.workload, args.seed, half, True, spans_dir)
        defects = run_defects(root, args.workload, spans_dir)
        phases = [untraced, traced]
        phase = traced
        samples = {"untraced_calls": len(untraced.outcomes), "traced_calls": len(traced.outcomes)}
        wanted = [m["name"] for m in spec["per_layer"]]
        record["absent"] = sorted(traced.absent)
        record["layers"] = merge_summaries(traced.layers)

    # mpmath is loaded only now, after every measured process has finished.
    refs = References()
    for p in phases:
        check_phase(refs, p)
    if args.trace:
        check_phase(refs, defects)
        metrics = per_layer(traced, untraced, defects, baselines)
    q = quality(phases)
    missing = [n for n in wanted if n not in metrics]
    if missing:
        raise RuntimeError(f"metrics named in BENCHMARK.json but not measured: {missing}")

    props = workloads.input_properties(args.workload, [c for p in phases for c in p.processes])
    record.update({
        "stamp": stamp(root, args, nproc, samples), "metrics": metrics, "quality": q,
        "wrong_examples": wrong_examples(phases, refs),
        "failures": {name: failure_counts(p) for name, p in
                     zip(("untraced", "traced") if args.trace else ("run",), phases)},
        "failure_messages": {k: v for p in phases for k, v in p.messages.items()},
        "inputs": props,
    })
    if args.trace:
        record["defects"] = [{"call": o.call, "error": o.error, "verdict": o.verdict}
                             for o in defects.outcomes]
        record["failure_messages"].update(defects.messages)
    out_file = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str))

    st = record["stamp"]
    lines.append(f"omega_zeta benchmark: workload {args.workload}, seed {args.seed}, "
                 f"{args.seconds:g} s, trace {args.trace}")
    lines.append(f"git {st['git_sha']}  src {st['src_sha256']}  python {st['python']}  "
                 f"nproc {st['nproc']}")
    lines.append(f"inputs: {props['calls']} calls, kinds "
                 + ", ".join(f"{k} {v:.2f}" for k, v in props["kind_share"].items()))
    lines.append("  terms histogram " + ", ".join(f"{k}: {v}" for k, v in props["terms_histogram"].items())
                 + f"; coef_repeat_share {props['coef_repeat_share']:.3f}")
    if args.trace == 0:
        report(lines, "setup_s", metrics["setup_s"], "s",
               f"median of {samples['setup_interpreters']} fresh imports of {entry}")
        report(lines, "evals_per_s", metrics["evals_per_s"], "1/s",
               f"raw {samples['raw']['evals_per_s']:.6g}; {samples['segments']} probe segments, "
               "probe ms p10/p50/p90 " + "/".join(f"{v:.3f}" for v in samples["probe_ms_p10_p50_p90"]))
        report(lines, "p50_ms", metrics["p50_ms"], "ms",
               f"raw {samples['raw']['p50_ms']:.6g}; {samples['latency']} returned calls")
        report(lines, "tail_ms", metrics["tail_ms"], "ms",
               f"raw {samples['raw']['tail_ms']:.6g}; p{samples['tail_percentile']:g}, "
               f"{samples['tail_beyond']} samples beyond, n={samples['latency']}")
        report(lines, "peak_rss_mb", metrics["peak_rss_mb"], "MB")
    else:
        for name in wanted:
            report(lines, name, metrics[name], units[name])
        if record["absent"]:
            lines.append("absent (no longer in the package): " + ", ".join(record["absent"]))
    report(lines, "fail_frac", q["fail_frac"], "frac", f"{q['failed']}/{q['attempted']} raised or exited non-zero")
    report(lines, "wrong_frac", q["wrong_frac"], "frac",
           f"{q['wrong']}/{q['returned']} outside max(estimate, {ROUND_ULPS:g} eps |ref|); "
           f"{q['gross']} gross")
    for kind, count in sorted(record["failures"].items()):
        if count:
            lines.append(f"  failures ({kind}): " + ", ".join(f"{k} {v}" for k, v in sorted(count.items())))
    if args.trace:
        count = failure_counts(defects)
        lines.append(f"defect calls (untimed, not in attempted/failed): {len(defects.outcomes)}, raised "
                     + (", ".join(f"{k} {v}" for k, v in sorted(count.items())) or "none"))
    lines.append(f"full record: {out_file.relative_to(root)}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": q["gross"] == 0,
        "attempted": q["attempted"],
        "failed": q["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
