"""Command-line front-end.

Subcommands: zeta, phi, gamma-pfd, zeta3, converge, verify.  Output is
JSON by default (one record per line) with the converge table in CSV.
Exit codes: 0 success, 1 a verify check failed, 2 divergence detected,
3 domain/parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import accumulate

from .accel import AccelerationMethod, PrecisionConfig, sum_alternating
from .errors import DivergenceError, DomainError, OmegaZetaError
from .gamma_pfd import gamma_pair, gamma_pfd_series
from .oracle import zeta_oracle
from .unity_product import ExpZetaSeries, GammaProduct, TruncatedProduct, unity_gamma_product
from .zeta3 import Zeta3Variant, zeta3_series
from .zeta_series import zeta_term, zeta_via_series

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DIVERGENCE = 2
EXIT_DOMAIN = 3

def _parse_complex(text: str) -> complex:
    try:
        re_part, im_part = text.split(",")
        return complex(float(re_part), float(im_part))
    except ValueError:
        raise DomainError(f"cannot parse complex value {text!r}; use 're,im'")


def _record(command: str, inputs: dict, value: complex, est: float,
            terms: int, method: str, started: float, **extras) -> dict:
    rec = {
        "command": command,
        "inputs": inputs,
        "value_re": complex(value).real,
        "value_im": complex(value).imag,
        "abs_error_estimate": est,
        "terms_used": terms,
        "method": method,
    }
    rec.update(extras)
    rec["elapsed_ms"] = (time.perf_counter() - started) * 1000.0
    return rec


def _emit(records, fmt: str):
    if fmt == "json":
        for rec in records:
            print(json.dumps(rec))
    elif fmt == "csv":
        keys = list(records[0].keys())
        flat_keys = [k for k in keys if k != "inputs"]
        print(",".join(flat_keys))
        for rec in records:
            print(",".join(repr(rec[k]) if isinstance(rec[k], float)
                           else str(rec[k]) for k in flat_keys))
    else:
        for rec in records:
            pieces = [f"{rec['command']}"]
            for k, v in rec["inputs"].items():
                pieces.append(f"{k}={v}")
            pieces.append(f"value={rec['value_re']!r}"
                          + (f"+{rec['value_im']!r}i" if rec["value_im"] else ""))
            pieces.append(f"error_estimate={rec['abs_error_estimate']:.3g}")
            pieces.append(f"terms={rec['terms_used']}")
            pieces.append(f"method={rec['method']}")
            print("  ".join(pieces))


def _cmd_zeta(args) -> int:
    started = time.perf_counter()
    rep = zeta_via_series(args.m, PrecisionConfig(max_terms=args.terms,
                                                  method=args.method))
    rec = _record("zeta", {"m": args.m, "terms": args.terms},
                  rep.value, rep.error_estimate, rep.terms_used,
                  args.method, started)
    _emit([rec], args.format)
    return EXIT_OK


_ROUTES = {
    "product": TruncatedProduct(),
    "gamma": GammaProduct(),
    "expzeta": ExpZetaSeries(),
}


def _cmd_phi(args) -> int:
    started = time.perf_counter()
    z = _parse_complex(args.z)
    names = list(_ROUTES) if args.route == "all" else [args.route]
    records = []
    values = []
    for name in names:
        value = unity_gamma_product(args.m, z, _ROUTES[name])
        values.append(value)
        records.append(_record("phi", {"m": args.m, "z": args.z, "route": name},
                               value, 0.0, 1, name, started))
    if len(values) > 1:
        scale = max(abs(v) for v in values)
        disagreement = max(abs(a - b) for a in values for b in values) / scale
        records.append(_record("phi-disagreement",
                               {"m": args.m, "z": args.z},
                               disagreement, 0.0, len(values), "all", started))
    _emit(records, args.format)
    return EXIT_OK


def _cmd_gamma_pfd(args) -> int:
    started = time.perf_counter()
    z = _parse_complex(args.z)
    rep = gamma_pfd_series(args.a, z, args.terms, args.method)
    ref = gamma_pair(args.a, z)
    deviation = abs(complex(rep.value) - ref)
    rec = _record("gamma-pfd",
                  {"a": args.a, "z": args.z, "terms": args.terms},
                  rep.value, rep.error_estimate, rep.terms_used, args.method,
                  started, reference_re=ref.real, reference_im=ref.imag,
                  deviation=deviation)
    _emit([rec], args.format)
    return EXIT_OK


def _cmd_zeta3(args) -> int:
    started = time.perf_counter()
    config = PrecisionConfig(max_terms=args.terms, method=args.method)
    rep = zeta3_series(args.variant, config)
    rec = _record("zeta3", {"variant": args.variant, "terms": args.terms},
                  rep.value, rep.error_estimate, rep.terms_used, args.method,
                  started)
    _emit([rec], args.format)
    return EXIT_OK


def _cmd_converge(args) -> int:
    config = PrecisionConfig(max_terms=args.max_terms, method=args.method)
    terms = [zeta_term(args.m, n) for n in range(1, config.max_terms + 1)]
    ref = zeta_oracle(args.m)
    print("n,term,partial_sum,accelerated,abs_error_vs_oracle")
    for i, (t, partial) in enumerate(zip(terms, accumulate(terms)), start=1):
        accel = sum_alternating(terms[:i], config.method).value
        print(f"{i},{t!r},{partial!r},{accel!r},{abs(accel - ref)!r}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_suite
    results = run_suite(args.suite)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.suite}: {r.name}"
        if not r.passed and r.detail:
            line += f" ({r.detail})"
        print(line)
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors (subcommands' too, since
    subparsers take the parser's class) exit with EXIT_DOMAIN, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise DomainError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="omega-zeta",
        description="Zeta values from gamma products at roots of unity.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    methods = [m.value for m in AccelerationMethod]

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="json")

    p = sub.add_parser("zeta", help="evaluate the series for zeta(m)")
    p.add_argument("m", type=int)
    p.add_argument("--terms", type=int, default=64)
    p.add_argument("--method", choices=methods, default="cvz")
    common(p)
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("phi", help="evaluate the root-of-unity gamma product")
    p.add_argument("m", type=int)
    p.add_argument("--z", required=True, metavar="RE,IM")
    p.add_argument("--route", choices=(*_ROUTES, "all"), default="gamma")
    common(p)
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("gamma-pfd",
                       help="partial-fraction series for Gamma(a+z)Gamma(a-z)")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--z", required=True, metavar="RE,IM")
    p.add_argument("--terms", type=int, default=64)
    p.add_argument("--method", choices=methods, default="euler")
    common(p)
    p.set_defaults(func=_cmd_gamma_pfd)

    p = sub.add_parser("zeta3", help="alternative series for zeta(3)")
    p.add_argument("--variant", choices=[v.value for v in Zeta3Variant],
                   default="hyperbolic")
    p.add_argument("--terms", type=int, default=40)
    p.add_argument("--method", choices=methods, default="cvz")
    common(p)
    p.set_defaults(func=_cmd_zeta3)

    p = sub.add_parser("converge", help="per-term convergence table (CSV)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max-terms", type=int, default=64)
    p.add_argument("--method", choices=methods, default="cvz")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("verify", help="run the property suites")
    # "all" and verify.SUITE_NAMES, written out so that only `verify` loads verify
    p.add_argument("--suite", default="all",
                   choices=("all", "pfd", "phi", "zeta", "gamma", "zeta3", "oracle"))
    p.set_defaults(func=_cmd_verify)

    return parser


def _attach_signed_values(argv):
    """Join "--z -0.5,0.1" and "--a -1e-9" into "--z=-0.5,0.1", "--a=-1e-9":
    argparse takes a separate value that starts with '-' for an option
    string unless it reads as a number with no exponent."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--z", "--a") and arg[:1] == "-" and arg[1:2] != "-":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _attach_signed_values(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except (OmegaZetaError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE if isinstance(exc, DivergenceError) else EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
