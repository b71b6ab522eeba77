"""Spans around the public functions of each omega_zeta module.

The tracer replaces a public function at every place a module binds it
(``special.log_gamma`` and ``unity_product.log_gamma`` alike), so calls made
from inside the package are recorded too.  Each span keeps its parent, name,
start and end in compact in-memory arrays; they are written out once, at the
end.  A layer's self time is its span's duration minus that of its children.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import sys
import time
from array import array

PACKAGE = "omega_zeta"

_ROUTE_NAMES = {"GammaProduct": "gamma", "TruncatedProduct": "truncated",
                "ExpZetaSeries": "expzeta"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _len(seq) -> int:
    return len(seq) if hasattr(seq, "__len__") else 0


class Tracer:
    """Span recorder; `install` wraps the functions listed in `specs`."""

    def __init__(self):
        self.names = []
        self._name_index = {}
        self.errors = []
        self._error_index = {}
        self.parent = array("i")
        self.name = array("h")
        self.info = array("i")
        self.error = array("h")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._coef_seen = set()
        self.absent = []

    def _intern(self, table, index, key):
        i = index.get(key)
        if i is None:
            i = index[key] = len(table)
            table.append(key)
        return i

    def span_name(self, key: str) -> int:
        return self._intern(self.names, self._name_index, key)

    # Span namers: (args, kwargs) -> (name index, info).  `info` carries the
    # one number a layer metric needs from the arguments.

    def _fixed(self, key):
        idx = self.span_name(key)
        return lambda args, kwargs: (idx, 0)

    def _log_gamma(self):
        idx = self.span_name("special.log_gamma")
        return lambda args, kwargs: (idx, int(complex(args[0]).real < 0.5))

    def _coef(self):
        idx = self.span_name("unity_product.coef")
        seen = self._coef_seen

        def namer(args, kwargs):
            pair = (_arg(args, kwargs, 0, "m"), _arg(args, kwargs, 1, "n"))
            repeat = pair in seen
            seen.add(pair)
            return idx, int(repeat)
        return namer

    def _route(self):
        def namer(args, kwargs):
            route = type(_arg(args, kwargs, 2, "route")).__name__
            key = "unity_product.route." + _ROUTE_NAMES.get(route, route)
            return self.span_name(key), 0
        return namer

    def _accel(self):
        def namer(args, kwargs):
            method = _arg(args, kwargs, 1, "method")
            key = "accel." + getattr(method, "value", str(method))
            return self.span_name(key), _len(_arg(args, kwargs, 0, "terms"))
        return namer

    def _euler_average(self):
        idx = self.span_name("accel.euler")
        return lambda args, kwargs: (idx, _len(_arg(args, kwargs, 0, "values")))

    def _suite(self):
        return lambda args, kwargs: (
            self.span_name("verify." + str(_arg(args, kwargs, 0, "name"))), 0)

    def specs(self):
        """(module, function, namer, post) for every wrapped public function."""
        trace_len = lambda result: len(getattr(result, "trace", ()) or ())  # noqa: E731
        return [
            ("special", "log_gamma", self._log_gamma(), None),
            ("special", "log_sin", self._fixed("special.log_sin"), None),
            ("unity_product", "coefficient_log_parts", self._coef(), None),
            ("unity_product", "series_coefficient", self._coef(), None),
            ("unity_product", "unity_gamma_product", self._route(), None),
            ("oracle", "zeta_oracle", self._fixed("oracle.zeta_oracle"), None),
            ("oracle", "tail_power_sum", self._fixed("oracle.tail_power_sum"), None),
            ("accel", "sum_alternating", self._accel(), None),
            ("accel", "euler_average", self._euler_average(), None),
            ("zeta_series", "zeta_term", self._fixed("zeta_series.term"), None),
            ("zeta_series", "zeta_via_series", self._fixed("zeta_series.series"), trace_len),
            ("zeta3", "sine_term", self._fixed("zeta3.sine_term"), None),
            ("zeta3", "hyperbolic_term", self._fixed("zeta3.hyperbolic_term"), None),
            ("zeta3", "inner_double_sum", self._fixed("zeta3.inner_double_sum"), None),
            ("zeta3", "zeta3_series", self._fixed("zeta3.series"), None),
            ("gamma_pfd", "gamma_pfd_series", self._fixed("gamma_pfd.series"), None),
            ("gamma_pfd", "inverse_square_series", self._fixed("gamma_pfd.inverse_square"), None),
            ("gamma_pfd", "gamma_pair", self._fixed("gamma_pfd.gamma_pair"), None),
            ("pfd", "pfd_coefficients", self._fixed("pfd.coefficients"), None),
            ("pfd", "pfd_residual", self._fixed("pfd.residual"), None),
            ("verify", "run_suite", self._suite(), None),
        ]

    def _wrap(self, fn, namer, post):
        parent, name, info, error = self.parent, self.name, self.info, self.error
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, extra = namer(args, kwargs)
            sid = len(start)
            parent.append(stack[-1])
            name.append(idx)
            info.append(extra)
            error.append(-1)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error[sid] = self._intern(self.errors, self._error_index,
                                          type(exc).__name__)
                raise
            finally:
                end[sid] = clock()
                stack.pop()
            if post is not None:
                info[sid] = post(result)
            return result
        return wrapper

    def install(self):
        """Wrap every listed function that the loaded package modules bind.

        A listed module that no longer exists, or a loaded module that no
        longer defines a listed function, is recorded in `absent`.  Modules
        the workload never imported are left alone.
        """
        loaded = {n: m for n, m in sys.modules.items()
                  if n == PACKAGE or n.startswith(PACKAGE + ".")}
        for module, func, namer, post in self.specs():
            full = f"{PACKAGE}.{module}"
            owner = loaded.get(full)
            if owner is None:
                if importlib.util.find_spec(full) is None:
                    self.absent.append(f"{module}.{func}")
                continue
            original = getattr(owner, func, None)
            if original is None:
                self.absent.append(f"{module}.{func}")
                continue
            wrapper = self._wrap(original, namer, post)
            for mod in loaded.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def reset_spans(self):
        """Drop spans recorded so far (warm-up); argument history is kept."""
        for col in (self.parent, self.name, self.info, self.error, self.start, self.end):
            del col[:]

    def summary(self) -> dict:
        """Per span name: calls, outer calls (parent has another name),
        self and total time, info sums and exception counts."""
        n = len(self.start)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {}
        for i in range(n):
            key = self.names[name[i]]
            s = out.get(key)
            if s is None:
                s = out[key] = {"calls": 0, "outer_calls": 0, "self_ns": 0,
                                "total_ns": 0, "info": 0, "outer_info": 0,
                                "errors": {}}
            p = parent[i]
            outer = p < 0 or name[p] != name[i]
            dur = end[i] - start[i]
            s["calls"] += 1
            s["self_ns"] += dur - child[i]
            s["total_ns"] += dur
            s["info"] += self.info[i]
            if outer:
                s["outer_calls"] += 1
                s["outer_info"] += self.info[i]
            if self.error[i] >= 0 and outer:
                err = self.errors[self.error[i]]
                s["errors"][err] = s["errors"].get(err, 0) + 1
        return out

    def write_spans(self, path: str):
        """Header line (JSON: names, errors, column typecodes), then the raw
        columns in header order, native byte order."""
        cols = [("parent", self.parent), ("name", self.name), ("info", self.info),
                ("error", self.error), ("start_ns", self.start), ("end_ns", self.end)]
        header = {"count": len(self.start), "names": self.names,
                  "errors": self.errors, "byteorder": sys.byteorder,
                  "columns": [[c, a.typecode] for c, a in cols]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, col in cols:
                col.tofile(fh)


def merge_summaries(summaries) -> dict:
    out = {}
    for summary in summaries:
        for key, s in summary.items():
            t = out.setdefault(key, {"calls": 0, "outer_calls": 0, "self_ns": 0,
                                     "total_ns": 0, "info": 0, "outer_info": 0,
                                     "errors": {}})
            for field in ("calls", "outer_calls", "self_ns", "total_ns", "info", "outer_info"):
                t[field] += s[field]
            for err, count in s["errors"].items():
                t["errors"][err] = t["errors"].get(err, 0) + count
    return out
