"""Seeded inputs for the benchmark workloads, built from the standard library only.

Every workload is an endless stream of blocks.  Block ``b`` of workload ``w``
under seed ``s`` is drawn from ``random.Random(f"{w}:{s}:{b}")``, so the parent
process (which checks results) and the worker (which runs them) rebuild the
same calls independently.  Within a block the categorical parameters are
balanced -- each option appears equally often -- so every block has the same
mix and the per-block throughput is comparable across blocks and seeds.

A call is a list whose first item names the library entry point:

    ["zeta", m, max_terms, method, target_abs_error, trace_enabled]
    ["phi", m, z_re, z_im, route]            route: gamma | truncated | expzeta
    ["zeta3", variant, max_terms, method]
    ["gamma_pfd", a, z_re, z_im, n_terms, method]
    ["inverse_square", q, n_terms, method]
    ["cli", argv...]                         arguments after ``-m omega_zeta.cli``
"""

from __future__ import annotations

import cmath
import math
import random
from collections import Counter

METHODS = ("none", "euler", "cvz")
ROUTES = ("gamma", "truncated", "expzeta")
SUITES = ("pfd", "phi", "zeta", "gamma", "zeta3", "oracle")

# The timed workloads hold only inputs on which every call returns.  Where the
# library raised on part of an input range when the benchmark was defined, the
# workloads keep to the range that works and the excluded part goes into the
# workload's defect inputs (DEFECTS below), which the traced run reports apart:
# - CVZ raises SignPatternError once the zeta(m) terms underflow to zero, from
#   m*N of about 720 (m = 46 at N = 16, m = 23 at N = 32, m = 12 at N = 64);
CVZ_MAX_MN = 640
# - CVZ's weight d = (3 + sqrt 8)^N overflows a double from N = 403;
CVZ_MAX_N = 384
# - TruncatedProduct's n**m (1000 factors) overflows a float from m = 103;
TRUNCATED_MAX_M = 100
# - gamma_pfd sums complex terms with CVZ part by part, and a part whose first
#   terms do not alternate raises SignPatternError (about 1 in 100 complex z),
#   so CVZ gets real z there;
# - unaccelerated series raise DivergenceError when their terms grow:
#   gamma_pfd's terms go as k^(2a-4) (grow for a > 2), inverse_square's as
#   n^(2q-2) (for q > 1); "none" is used only below those edges.
NONE_MAX_A = 1.95
NONE_MAX_Q = 0.9

# Percentile ladder for tail_ms.  Each workload fixes the highest rung that has
# at least ten samples beyond it in a 20 s run and still reads steadily across
# seeds, so tail_ms stands for the same percentile on every run; a run with too
# few samples steps down to the highest rung that still has ten beyond it.
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.99)


def balanced(rng: random.Random, options, count: int) -> list:
    """`count` draws in which every option appears equally often (up to one)."""
    out = []
    while len(out) < count:
        chunk = list(options)
        rng.shuffle(chunk)
        out.extend(chunk)
    out = out[:count]
    rng.shuffle(out)
    return out


def swap_to_fit(values, fits, rng: random.Random) -> None:
    """Reorder `values` in place, by swapping pairs, until fits(i, values[i])
    holds at every position; the multiset of values -- and so the balance of
    the block -- does not change."""
    for i in range(len(values)):
        if fits(i, values[i]):
            continue
        partners = [j for j in range(len(values))
                    if fits(i, values[j]) and fits(j, values[i])]
        if not partners:
            raise ValueError(f"no swap fits position {i}")
        j = rng.choice(partners)
        values[i], values[j] = values[j], values[i]


def disc_point(rng: random.Random, radius: float, real: bool = False):
    """A point uniform in the disc |z| <= radius (or on the real segment)."""
    r = radius * math.sqrt(rng.random())
    if real:
        return (r if rng.random() < 0.5 else -r), 0.0
    z = cmath.rect(r, rng.uniform(-math.pi, math.pi))
    return z.real, z.imag


def _unity_cold(rng, index):
    # One block is one pass: every m in 3..120 once for zeta and once for phi,
    # run in a fresh interpreter, so almost no (m, n) coefficient repeats.
    # Twelve zeta calls use CVZ, four at each N on m with m*N <= CVZ_MAX_MN;
    # the others are balanced over N x {none, euler} x target.  Routes are
    # balanced, with TruncatedProduct only on m <= TRUNCATED_MAX_M.
    targets = (1e-6, 1e-9, 1e-12)
    configs = {}
    cvz_targets = balanced(rng, targets, 12)
    for n in (64, 32, 16):
        pool = [m for m in range(3, CVZ_MAX_MN // n + 1) if m not in configs]
        for m in rng.sample(pool, 4):
            configs[m] = (n, "cvz", cvz_targets.pop())
    rest = [m for m in range(3, 121) if m not in configs]
    combos = [(n, meth, tgt) for n in (16, 32, 64) for meth in ("none", "euler")
              for tgt in targets]
    configs.update(zip(rest, balanced(rng, combos, len(rest))))
    ms = list(range(3, 121))
    rng.shuffle(ms)
    phi_ms = list(range(3, 121))
    rng.shuffle(phi_ms)
    routes = balanced(rng, ROUTES, len(ms))
    swap_to_fit(routes, lambda i, r: r != "truncated" or phi_ms[i] <= TRUNCATED_MAX_M, rng)
    calls = []
    for m, pm, route in zip(ms, phi_ms, routes):
        calls.append(["zeta", m, *configs[m], True])
        calls.append(["phi", pm, *disc_point(rng, 0.9), route])
    return calls


def _zeta_warm(rng, index):
    # 100 short zeta requests over m in 3..12 plus 10 hyperbolic zeta(3) runs;
    # the coefficients were filled by the warm-up, so the cache is always hit.
    count = 100
    ms = balanced(rng, range(3, 13), count)
    ns = balanced(rng, (16, 24, 32, 48, 64, 96, 128), count)
    meths = balanced(rng, METHODS, count)
    traces = balanced(rng, (True, False), count)
    swap_to_fit(ns, lambda i, n: meths[i] != "cvz" or ms[i] * n <= CVZ_MAX_MN, rng)
    calls = [["zeta", m, n, meth, 1e-12, tr]
             for m, n, meth, tr in zip(ms, ns, meths, traces)]
    calls += [["zeta3", "hyperbolic", rng.randint(4, 12), meth]
              for meth in balanced(rng, METHODS, 10)]
    rng.shuffle(calls)
    return calls


def _series_long(rng, index):
    # Long series where the O(N^2) Euler triangle and the O(N^2) sine-term
    # product dominate.  Each block is a full factorial over N and method, so
    # every block costs about the same; gamma_pfd alternates sides of the
    # a = 1.25 convergence edge.  CVZ runs at N <= CVZ_MAX_N, and "none" only
    # on series whose terms shrink (a <= NONE_MAX_A, q <= NONE_MAX_Q); CVZ
    # gamma_pfd calls take real z.
    calls = []
    grid = [(n, meth) for meth in METHODS
            for n in ((256, 320, CVZ_MAX_N) if meth == "cvz" else (256, 512, 1024))]
    sides = balanced(rng, ("low", "high"), len(grid))
    reals = balanced(rng, (True, False), len(grid))
    swap_to_fit(reals, lambda i, real: real or grid[i][1] != "cvz", rng)
    for (n, meth), side, real in zip(grid, sides, reals):
        top = NONE_MAX_A if meth == "none" else 3.0
        a = rng.uniform(0.55, 1.2) if side == "low" else rng.uniform(1.3, top)
        calls.append(["gamma_pfd", round(a, 6), *disc_point(rng, 0.45, real), n, meth])
    for (lo, hi), meth in zip(((40, 105), (106, 170), (171, 235), (236, 300)),
                              balanced(rng, METHODS, 4)):
        calls.append(["zeta3", "sine", rng.randint(lo, hi), meth])
    calls.append(["zeta3", "beta", rng.randint(20, 60), rng.choice(METHODS)])
    for n, meth in grid:
        top = NONE_MAX_Q if meth == "none" else 3.0
        calls.append(["inverse_square", round(rng.uniform(0.0, top), 6), n, meth])
    for n in (256, 512, 1024):
        calls.append(["zeta", 3, n, "euler", 1e-12, True])
    rng.shuffle(calls)
    return calls


def _fmt(x: float) -> str:
    return repr(float(x))


def _cli(rng, index):
    # One invocation of each subcommand per block, README-sized inputs; the
    # verify suite cycles through all six, so every run has the same mix.
    # CVZ and "none" keep to the ranges where they return (see CVZ_MAX_MN).
    # Complex arguments use the --z=RE,IM form: argparse reads "--z -0.5,0.1"
    # as an unknown option and exits 2 (a usage defect noted in README.md).
    def z_arg(radius, real=False):
        re_, im_ = disc_point(rng, radius, real)
        return f"--z={_fmt(re_)},{_fmt(im_)}"

    zeta_m, zeta_method = rng.randint(2, 16), rng.choice(METHODS)
    zeta_top = min(64, CVZ_MAX_MN // zeta_m) if zeta_method == "cvz" else 64
    pfd_method = rng.choice(METHODS)
    pfd_top = NONE_MAX_A if pfd_method == "none" else 3.0
    calls = [
        ["cli", "zeta", str(zeta_m), "--terms", str(rng.randint(16, zeta_top)),
         "--method", zeta_method],
        ["cli", "phi", str(rng.randint(2, 8)), z_arg(0.9),
         "--route", rng.choice(("product", "gamma", "expzeta", "all"))],
        ["cli", "gamma-pfd", "--a", _fmt(round(rng.uniform(0.3, pfd_top), 4)),
         z_arg(0.25, real=pfd_method == "cvz"),
         "--terms", str(rng.randint(16, 128)), "--method", pfd_method],
        ["cli", "zeta3", "--variant", rng.choice(("sine", "hyperbolic", "beta")),
         "--terms", str(rng.randint(8, 40)), "--method", rng.choice(METHODS)],
        ["cli", "converge", "--m", str(rng.randint(3, 8)),
         "--max-terms", str(rng.randint(16, 64)), "--method", rng.choice(METHODS)],
        ["cli", "verify", "--suite", SUITES[index % len(SUITES)]],
    ]
    rng.shuffle(calls)
    return calls


WORKLOADS = {
    # name: (block generator, tail percentile at the design run length,
    #        one fresh interpreter per block, warm-up calls)
    "unity-cold": (_unity_cold, 90.0, True, ()),
    "zeta-warm": (_zeta_warm, 99.0, False,
                  tuple(["zeta", m, 128, "none", 1e-12, False] for m in range(3, 13))),
    "series-long": (_series_long, 95.0, False, ()),
    "cli": (_cli, 75.0, False, ()),
}


# Defect inputs: fixed calls just outside each timed workload's range, one or
# more per exclusion listed at the top, on which the library raised when the
# benchmark was defined.  The traced run makes them once, untimed, and reports
# what they raise (fail.<Type>, defects.fail_frac), so the defects stay in view
# and a fix shows as defect calls that return -- checked like any other call.
DEFECTS = {
    "unity-cold": (
        ["zeta", 46, 16, "cvz", 1e-12, True], ["zeta", 23, 32, "cvz", 1e-9, True],
        ["zeta", 12, 64, "cvz", 1e-6, True], ["zeta", 120, 64, "cvz", 1e-12, True],
        ["phi", 103, 0.5, 0.3, "truncated"], ["phi", 120, -0.4, 0.6, "truncated"],
    ),
    "zeta-warm": (
        ["zeta", 7, 128, "cvz", 1e-12, False], ["zeta", 12, 96, "cvz", 1e-12, True],
    ),
    "series-long": (
        ["gamma_pfd", 1.5, 0.3, 0.0, 512, "cvz"], ["gamma_pfd", 0.635, 0.29, 0.23, 384, "cvz"],
        ["gamma_pfd", 2.5, 0.2, 0.1, 256, "none"],
        ["inverse_square", 2.0, 1024, "cvz"], ["inverse_square", 2.0, 256, "none"],
    ),
    "cli": (
        ["cli", "zeta", "16", "--terms", "64", "--method", "cvz"],
        ["cli", "gamma-pfd", "--a", "2.6", "--z=0.2,0.1", "--terms", "64", "--method", "none"],
        ["cli", "gamma-pfd", "--a", "0.635", "--z=0.29,0.23", "--terms", "384", "--method", "cvz"],
    ),
}


def defect_block(workload: str, seed: int, index: int) -> list:
    """The defect inputs as block 0 of a stream (the seed does not matter)."""
    return [list(c) for c in DEFECTS[workload]] if index == 0 else []


def block(workload: str, seed: int, index: int) -> list:
    return WORKLOADS[workload][0](random.Random(f"{workload}:{seed}:{index}"), index)


def warmup(workload: str) -> list:
    return [list(c) for c in WORKLOADS[workload][3]]


def fresh_per_block(workload: str) -> bool:
    return WORKLOADS[workload][2]


def design_percentile(workload: str) -> float:
    return WORKLOADS[workload][1]


def call_kind(call) -> str:
    if call[0] == "cli":
        return "cli." + call[1]
    if call[0] == "zeta3":
        return "zeta3." + call[1]
    if call[0] == "phi":
        return "phi." + call[4]
    return call[0]


def call_terms(call):
    """The series length a call asks for, or None."""
    kind = call[0]
    if kind in ("zeta", "zeta3"):
        return call[2] * (2 if call[:2] == ["zeta3", "hyperbolic"] else 1)
    if kind == "gamma_pfd":
        return call[4]
    if kind == "inverse_square":
        return call[2]
    if kind == "cli" and call[1] in ("zeta", "gamma-pfd", "zeta3"):
        return int(call[call.index("--terms") + 1]) if "--terms" in call else None
    if kind == "cli" and call[1] == "converge":
        return int(call[call.index("--max-terms") + 1])
    return None


def _coef_pairs(call):
    """(m, n) coefficient requests a call makes, judged from its arguments."""
    if call[0] == "zeta" and call[1] >= 3:
        return [(call[1], n) for n in range(1, call[2] + 1)]
    if call[0] == "cli" and call[1] == "zeta" and int(call[2]) >= 3:
        n = int(call[call.index("--terms") + 1]) if "--terms" in call else 64
        return [(int(call[2]), k) for k in range(1, n + 1)]
    if call[0] == "cli" and call[1] == "converge":
        m = int(call[call.index("--m") + 1])
        n = int(call[call.index("--max-terms") + 1])
        return [(m, k) for k in range(1, n + 1)]
    return []


def input_properties(workload: str, processes) -> dict:
    """Properties of the calls a run attempted, from the inputs alone.

    `processes` is a list of call lists, one per interpreter that ran them
    (warm-up included), so `coef_repeat_share` counts an (m, n) pair as a
    repeat only when the same process requested it before.
    """
    kinds = Counter()
    terms = Counter()
    requests = repeats = 0
    warm = warmup(workload)
    for calls in processes:
        if workload == "cli":
            # Each CLI call is its own process.
            groups = [[c] for c in calls]
        else:
            groups = [warm + calls]
        for group in groups:
            seen = set()
            for i, call in enumerate(group):
                timed = workload == "cli" or i >= len(warm)
                for pair in _coef_pairs(call):
                    if timed:
                        requests += 1
                        repeats += pair in seen
                    seen.add(pair)
                if timed:
                    kinds[call_kind(call)] += 1
                    n = call_terms(call)
                    if n is not None:
                        terms[_bucket(n)] += 1
    total = sum(kinds.values())
    return {
        "calls": total,
        "kind_share": {k: v / total for k, v in sorted(kinds.items())} if total else {},
        "terms_histogram": dict(sorted(terms.items(), key=lambda kv: int(kv[0].split("-")[0]))),
        "coef_requests": requests,
        "coef_repeat_share": repeats / requests if requests else 0.0,
    }


def _bucket(n: int) -> str:
    lo = 1
    while lo * 2 <= n:
        lo *= 2
    return f"{lo}-{lo * 2 - 1}"
