"""Correctness check of returned results against mpmath, outside the timed loop.

A returned value is *wrong* when

    |value - ref| > max(error_estimate, ROUND_ULPS * eps * |ref|)

and, for results that carry no estimate (``phi`` values), when
``|value - ref| > PHI_REL_TOL * |ref|``.  A value is *gross* -- the run's
``correct`` flag turns false -- when it is not finite or misses the reference
by more than GROSS_FACTOR times that allowance and by more than
GROSS_REL_TOL * max(1, |ref|): such a value is broken, not merely
over-confident.  Calls that raised are failures, counted apart.
"""

from __future__ import annotations

import csv
import io
import json
import math

EPS = 2.220446049250313e-16
ROUND_ULPS = 8.0
PHI_REL_TOL = 1e-9
ORACLE_REL_TOL = 1e-13   # accuracy the CLI's own zeta oracle claims
GROSS_FACTOR = 1e3
GROSS_REL_TOL = 0.1

class References:
    """Memoised mpmath references at 30 significant digits."""

    def __init__(self):
        import mpmath
        self.mp = mpmath.mp
        self.mp.dps = 30
        self._cache = {}

    def _memo(self, key, fn):
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = complex(fn())
        return value

    def zeta(self, m):
        return self._memo(("zeta", m), lambda: self.mp.zeta(m))

    def phi(self, m, z):
        """prod_{j<m} Gamma(1 - w^j z), w = exp(2 pi i/m), for |z| < 1.

        Summing the Taylor series log Gamma(1 - w) = gamma w + sum_k zeta(k) w^k/k
        over the m roots leaves log prod = sum_l zeta(m l) z^(m l) / l; at 30
        digits this matches the product of m mpmath gammas to 1e-29 and is
        about 18 times faster for m up to 120.
        """
        mp = self.mp

        def series():
            zm = mp.mpc(z.real, z.imag) ** m
            power, total, l = zm, mp.mpc(0), 1
            while True:
                term = mp.zeta(m * l) * power / l
                total += term
                if abs(term) < mp.mpf(10) ** (-mp.dps - 2) * max(1, abs(total)):
                    return mp.exp(total)
                l += 1
                power *= zm
        if abs(z) >= 1:
            raise ValueError(f"phi reference needs |z| < 1, got {abs(z)}")
        return self._memo(("phi", m, z), series)

    def gamma_pair(self, a, z):
        mp = self.mp

        def pair():
            zz = mp.mpc(z.real, z.imag)
            return mp.gamma(a + zz) * mp.gamma(a - zz)
        return self._memo(("pair", a, z), pair)

    def trigamma_shift(self, q):
        """psi'(q + 1), the value of the inverse-square series."""
        return self._memo(("psi1", q), lambda: self.mp.psi(1, self.mp.mpf(q) + 1))

    def for_call(self, call):
        kind = call[0]
        if kind == "zeta":
            return self.zeta(call[1])
        if kind == "phi":
            return self.phi(call[1], complex(call[2], call[3]))
        if kind == "zeta3":
            return self.zeta(3)
        if kind == "gamma_pfd":
            return self.gamma_pair(call[1], complex(call[2], call[3]))
        if kind == "inverse_square":
            return self.trigamma_shift(call[1])
        raise ValueError(f"no reference for {kind!r}")


def classify(value: complex, estimate, ref: complex) -> str:
    """'ok', 'wrong' or 'gross' for one returned value."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        return "gross"
    err = abs(value - ref)
    scale = abs(ref)
    if estimate is None or math.isnan(estimate):
        allowance = PHI_REL_TOL * scale
    else:
        allowance = max(estimate, ROUND_ULPS * EPS * scale)
    if err <= allowance:
        return "ok"
    if err > GROSS_FACTOR * allowance and err > GROSS_REL_TOL * max(1.0, scale):
        return "gross"
    return "wrong"


def _option(argv, flag, default=None):
    for i, arg in enumerate(argv):
        if arg == flag:
            return argv[i + 1]
        if arg.startswith(flag + "="):
            return arg.split("=", 1)[1]
    return default


def _complex_arg(text):
    re_, im_ = text.split(",")
    return complex(float(re_), float(im_))


def check_cli(refs: References, argv, stdout: str) -> str:
    """Classify one CLI invocation that exited 0 from its printed output;
    output that cannot be parsed is 'gross'."""
    sub = argv[0]
    try:
        if sub == "verify":
            last = stdout.strip().splitlines()[-1]
            passed, total = last.split()[0].split("/")
            return "ok" if passed == total else "wrong"
        if sub == "converge":
            rows = list(csv.DictReader(io.StringIO(stdout)))
            row = rows[-1]
            ref = refs.zeta(int(_option(argv, "--m")))
            value = complex(float(row["accelerated"]))
            # The row states its own distance to the oracle; hold it to that.
            claimed = float(row["abs_error_vs_oracle"]) + ORACLE_REL_TOL * abs(ref)
            return classify(value, claimed, ref)
        records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
        verdicts = []
        for rec in records:
            if rec["command"] == "phi-disagreement":
                continue
            value = complex(rec["value_re"], rec["value_im"])
            if rec["command"] == "zeta":
                ref = refs.zeta(rec["inputs"]["m"])
            elif rec["command"] == "phi":
                ref = refs.phi(rec["inputs"]["m"], _complex_arg(rec["inputs"]["z"]))
            elif rec["command"] == "gamma-pfd":
                ref = refs.gamma_pair(rec["inputs"]["a"], _complex_arg(rec["inputs"]["z"]))
            elif rec["command"] == "zeta3":
                ref = refs.zeta(3)
            else:
                return "gross"
            estimate = None if rec["command"] == "phi" else rec["abs_error_estimate"]
            verdicts.append(classify(value, estimate, ref))
        for worst in ("gross", "wrong"):
            if worst in verdicts:
                return worst
        return "ok" if verdicts else "gross"
    except (ValueError, KeyError, IndexError, TypeError):
        return "gross"
