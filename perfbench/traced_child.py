"""Run one awcalc CLI call with every traced layer wrapped.

    python3 perfbench/traced_child.py TRACE_FILE AWCALC_ARGS...

awcalc is imported from PYTHONPATH as usual. The wrappers are installed at
module-attribute level before ``awcalc.cli.main`` runs, so nothing under
``src/`` is edited. Spans and counters go to TRACE_FILE once main returns;
the CLI's stdout, stderr and exit code pass through unchanged.
"""

from __future__ import annotations

import sys

import tracing


def main(trace_path: str, argv: list[str]) -> int:
    import awcalc
    from awcalc import askey_wilson, cli, proof_engine, qoperators, qpoly, scalars

    mods = {"qpoly": qpoly, "qoperators": qoperators,
            "askey_wilson": askey_wilson, "proof_engine": proof_engine,
            "all": (awcalc, scalars, qpoly, qoperators, askey_wilson,
                    proof_engine, cli)}
    rec = tracing.SpanRecorder()
    counters = tracing.install(rec, mods)
    try:
        return rec.wrap("cli.main", cli.main)(argv)
    finally:
        sys.stdout.flush()
        rec.dump(trace_path, {name: read() for name, read in counters.items()})


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2:]))
