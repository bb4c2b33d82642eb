"""Run one ``repro`` CLI call with every layer traced.

Usage::

    python3 perfbench/cli_trace.py SPANS.jsonl -- verify --all

Times ``import repro.cli``, wraps the layers' functions (see
:mod:`perfbench.layers`; a layer the call imports later is wrapped when
it is imported, so tracing loads no extra modules), calls
``repro.cli.main(argv)`` and, when the call returns or raises, writes
the spans plus one summary line (import time, modules the import loaded,
store counters, gc pauses) to ``SPANS.jsonl``.  Exits with the CLI's own
exit code.  ``src`` must be on ``PYTHONPATH``.
"""

import os
import sys
import time


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]

    before = len(sys.modules)
    t0 = time.perf_counter()
    import repro.cli
    import_s = time.perf_counter() - t0
    modules_loaded = len(sys.modules) - before

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench import layers
    from perfbench.tracing import Tracer

    tracer = Tracer()
    tracer.install(layers.TARGETS, layers.GUARDS)
    tracer.watch_gc()
    try:
        return repro.cli.main(cli_args)
    finally:
        tracer.unwatch_gc()
        tracer.restore()
        from repro.store import backend

        stats = backend.stats()
        extra = {"cli.import_s": import_s, "cli.modules_loaded": modules_loaded}
        extra.update({layers.STORE_STATS_PREFIX + key: stats.get(key, 0)
                      for key in layers.STATS_KEYS})
        with open(out_path, "w", encoding="utf-8") as stream:
            tracer.write_jsonl(stream, {"extra": extra})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
