"""Traced stand-in for ``python -m omega_zeta.cli`` (traced runs only).

Usage: python perfbench/cli_shim.py STATS_JSON SPANS_FILE [cli arguments...]

Imports ``omega_zeta.cli`` from ``src/``, wraps the package's public functions
with the tracer, runs ``omega_zeta.cli.main`` on the arguments and exits with
its code.  The CLI's own stdout and stderr are untouched; the span summary and
the type of any exception a subcommand raised go to STATS_JSON.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


def main():
    stats_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import omega_zeta.cli as cli
    import_s = time.perf_counter() - t0
    from omega_zeta.errors import OmegaZetaError
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    raised = {}

    def catch_type(handler):
        @functools.wraps(handler)
        def wrapper(*args, **kwargs):
            try:
                return handler(*args, **kwargs)
            except Exception as exc:
                raised["type"] = type(exc).__name__
                raised["typed"] = isinstance(exc, OmegaZetaError)
                raise
        return wrapper

    # Subcommand handlers are looked up by main() each time it builds its
    # parser, so wrapping the module attributes records what they raise.
    for attr, value in list(vars(cli).items()):
        if attr.startswith("_cmd_") and callable(value):
            setattr(cli, attr, catch_type(value))

    code = cli.main(argv)
    sys.stdout.flush()
    with open(stats_path, "w") as fh:
        json.dump({"import_s": import_s, "layers": tracer.summary(),
                   "absent": tracer.absent, "raised": raised}, fh)
    tracer.write_spans(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
