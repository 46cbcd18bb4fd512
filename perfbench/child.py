"""Run one ``mug`` command in this process, optionally traced.

    python perfbench/child.py TRACE_OUT SPAWN_T -- <mug arguments>

TRACE_OUT is ``-`` for an untraced run, which is exactly what the ``mug``
console script does. Otherwise every public function of every ``mug`` module
(plus the few private stage functions named in ``tracer.EXTRA``) is wrapped
in a span before ``cli.main`` runs, and the spans are written to TRACE_OUT as
JSON when the command ends. SPAWN_T is the parent's ``time.perf_counter()``
just before it started this process (CLOCK_MONOTONIC, shared by processes).
"""

import os
import sys
import time


def main() -> int:
    trace_out, spawn_t, sep = sys.argv[1:4]
    if sep != "--":
        print("usage: child.py TRACE_OUT SPAWN_T -- <mug arguments>", file=sys.stderr)
        return 1
    argv = sys.argv[4:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    if trace_out == "-":
        from mug import cli
        return cli.main(argv)

    import tracer  # next to this script, so already on sys.path

    t = tracer.Tracer()
    t.install()
    from mug import cli

    main_start = time.perf_counter()
    code = None
    try:
        code = cli.main(argv)
    finally:
        t.dump(trace_out, argv=argv, exit_code=code, spawn=float(spawn_t),
               main_start=main_start)
    return code


if __name__ == "__main__":
    sys.exit(main())
