"""The measured process for the library workloads.

Reads one JSON job from stdin, imports ``omega_zeta`` from ``src/`` under the
current directory, runs the workload's calls on a closed loop (each call starts
when the previous one returns) until the job's time budget is spent, and
writes one JSON object to stdout.  It never imports mpmath: the parent checks
the results after this process has exited, so ``maxrss_kb`` is the footprint
of the library and this loop alone.

Job keys: workload, seed, first_block, max_blocks (null: until the budget),
seconds, trace, spans_path, records_path, defects (true: make the workload's
defect calls, without warm-up, instead of its blocks).
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
from array import array

import workloads
from speed import PROBE_INTERVAL_NS, probe

# Doubles per call record: start (ns after the loop started), latency_ns,
# status (0 returned, k > 0: the k-th entry of error_types), value real part,
# imaginary part, error estimate (NaN when the call gives none).
RECORD_FIELDS = 6
RECORD_CHUNK = RECORD_FIELDS * 2048


def import_package():
    """Import omega_zeta from ./src, refusing any other copy."""
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import omega_zeta
    if not os.path.abspath(omega_zeta.__file__).startswith(src + os.sep):
        raise SystemExit(f"omega_zeta imported from {omega_zeta.__file__}, not {src}")
    return omega_zeta


def make_runner(oz):
    """call -> (value, error_estimate or None), through the public API only.

    Names are looked up on the package at call time, so functions the tracer
    wraps after this point are the ones called.
    """
    routes = {"gamma": "GammaProduct", "truncated": "TruncatedProduct",
              "expzeta": "ExpZetaSeries"}

    def run(call):
        kind = call[0]
        if kind == "zeta":
            _, m, n, method, target, trace = call
            rep = oz.zeta_via_series(m, oz.PrecisionConfig(
                max_terms=n, method=method, target_abs_error=target,
                trace_enabled=trace))
            return rep.value, rep.error_estimate
        if kind == "phi":
            _, m, re_, im_, route = call
            return oz.unity_gamma_product(m, complex(re_, im_), getattr(oz, routes[route])()), None
        if kind == "zeta3":
            _, variant, n, method = call
            rep = oz.zeta3_series(oz.Zeta3Variant(variant),
                                  oz.PrecisionConfig(max_terms=n, method=method))
            return rep.value, rep.error_estimate
        if kind == "gamma_pfd":
            _, a, re_, im_, n, method = call
            rep = oz.gamma_pfd_series(a, complex(re_, im_), n, oz.AccelerationMethod(method))
            return rep.value, rep.error_estimate
        if kind == "inverse_square":
            _, q, n, method = call
            rep = oz.inverse_square_series(q, n, oz.AccelerationMethod(method))
            return rep.value, rep.error_estimate
        raise ValueError(f"unknown call kind {kind!r}")
    return run


def main():
    job = json.load(sys.stdin)
    oz = import_package()
    run = make_runner(oz)
    typed_base = oz.OmegaZetaError
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    source = workloads.defect_block if job.get("defects") else workloads.block
    for call in [] if job.get("defects") else workloads.warmup(job["workload"]):
        try:
            run(call)
        except Exception:  # warm-up only fills caches; its outcome is not measured
            pass
    if tracer is not None:
        tracer.reset_spans()

    # Per-call records go to a binary file in chunks, so the bookkeeping held
    # in memory -- and with it maxrss_kb -- does not grow with the call count.
    records = array("d")
    error_types, typed = [], []
    messages = {}
    blocks = []           # [block, calls attempted]
    probes = []           # [start ns after loop start, duration ns]

    clock = time.perf_counter_ns
    budget_ns = int(job["seconds"] * 1e9)
    with open(job["records_path"], "wb") as sink:
        loop_start = clock()
        probes.append([0, probe()])
        b = job["first_block"]
        stop = False
        while not stop and (job["max_blocks"] is None
                            or b < job["first_block"] + job["max_blocks"]):
            calls = source(job["workload"], job["seed"], b)
            done = 0
            for call in calls:
                now = clock()
                if now - loop_start >= budget_ns:
                    stop = True
                    break
                if now - loop_start - probes[-1][0] >= PROBE_INTERVAL_NS:
                    probes.append([now - loop_start, probe()])
                t0 = clock()
                try:
                    value, estimate = run(call)
                except Exception as exc:  # every failure is a measured outcome
                    t1 = clock()
                    name = type(exc).__name__
                    if name not in error_types:
                        error_types.append(name)
                        typed.append(isinstance(exc, typed_base))
                        messages[name] = str(exc)[:200]
                    code = error_types.index(name) + 1
                    value, estimate = math.nan, None
                else:
                    t1 = clock()
                    code = 0
                value = complex(value)
                records.extend((t0 - loop_start, t1 - t0, code, value.real, value.imag,
                                math.nan if estimate is None else float(estimate)))
                if len(records) >= RECORD_CHUNK:
                    records.tofile(sink)
                    del records[:]
                done += 1
            if done:
                blocks.append([b, done])
            b += 1
        probes.append([clock() - loop_start, probe()])
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        records.tofile(sink)

    out = {
        "maxrss_kb": maxrss_kb,
        "blocks": blocks,
        "probes": probes,
        "error_types": error_types,
        "error_typed": typed,
        "error_messages": messages,
    }
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["absent"] = tracer.absent
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    json.dump(out, sys.stdout, allow_nan=True)


if __name__ == "__main__":
    main()
