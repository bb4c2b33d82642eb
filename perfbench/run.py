"""Benchmark of the ``repro`` verifier, end to end and layer by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 20 \\
        --trace 0

The workloads are defined in :mod:`perfbench.workloads` and registered,
with their end-to-end and per-layer metrics, in ``BENCHMARK.json``.  A
run prepares its workload at least ``SETUP_REPEATS`` times and for at
least ``SETUP_MIN_S`` seconds, then repeats the workload's operations in
a closed loop for ``--seconds`` and checks every verdict.

Times are corrected for the host's speed.  On a shared host the speed
at which Python runs drifts by tens of percent from one minute to the
next, and every wall drifts with it; so the run also times a fixed
pure-Python kernel (:func:`reference_s`) before each operation and each
set-up, for a tenth of its length, and multiplies a wall by
``(REFERENCE_S / k) ** REFERENCE_EXPONENT``, where ``k`` is the kernel's
median wall in the same stretch of the run.  The kernel shares nothing
with the program, so the program's own cost stays in the figure, in
full.  The exponent is a half because, in runs that timed the kernel
and the operations side by side, an operation's wall moved by 0.4 to
0.8 times as much as the kernel's when the host's speed changed, and a
kernel timed for a tenth of the run carries sampling noise of its own:
over sets of four to ten runs the spread of the pass wall was 9 to 19%
raw, 4 to 22% fully scaled and 4 to 8% scaled by the square root.  The raw walls and
the kernel's median wall are reported too.  With ``--trace 0`` the run
reports the end-to-end metrics:

``setup_s``      median set-up, scaled
``verdict_s``    one pass over the operations: the sum of each
                 operation's median wall in the run, scaled
``peak_rss_mb``  largest resident set of a child, or of this process

With ``--trace 1`` every operation also runs once more with the layers
traced (:mod:`perfbench.layers`), and the run reports the per-layer
metrics, each operation's own metric (``verify_warm_s``,
``queue_trials_per_s``, ..., scaled) from its untraced calls, the raw
walls, and the tracing overhead; it fails if a traced function no longer
exists.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the per-operation medians and the deterministic work counters.

All files a run writes live under ``.perfbench_work/`` in the checkout
and are removed when it ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3
#: a short set-up is repeated until this much time has gone into it, so
#: that its median rests on as many samples as the host's drift needs
SETUP_MIN_S = 3.0
#: size of the reference kernel, about 12 ms of pure Python on a 2.1 GHz
#: x86 core
REFERENCE_N = 60_000
#: the nominal speed: walls are corrected towards a host on which the
#: reference kernel takes this long (a unit, so any constant would do)
REFERENCE_S = 0.010
#: how strongly walls follow the kernel (see the module docstring)
REFERENCE_EXPONENT = 0.5
#: share of the time of a set-up or an operation that then goes into
#: timing the reference kernel: its median must rest on enough calls to
#: be steady, since the host's speed varies from one call to the next
REFERENCE_SHARE = 0.1


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def reference_s() -> float:
    """Wall of a fixed pure-Python kernel: tuple keys into a dict, then a
    pass over it, the kind of work the verifier does, so that it slows
    with the host as the program does.  It shares nothing with the
    program; the collector is off while it runs, so the heap an
    in-process op left behind is not traversed in it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(REFERENCE_N):
            table[(i % 97, i % 89, i)] = i
        total = 0
        for key, value in table.items():
            total += value ^ key[0]
        return time.perf_counter() - t0
    finally:
        gc.enable()


def sample_host(host: List[float], budget_s: float) -> None:
    """Append walls of the reference kernel to ``host``, timing it at
    least once and until ``budget_s`` has gone into it."""
    deadline = time.perf_counter() + budget_s
    host.append(reference_s())
    while time.perf_counter() < deadline:
        host.append(reference_s())


def _op_value(metric: str, result) -> float:
    if metric.endswith("_per_s"):
        return result.work / result.wall_s
    return result.wall_s


def _scaled(metric: str, value: float, scale: float) -> float:
    """A time (or a rate) corrected for the host's speed."""
    return value / scale if metric.endswith("_per_s") else value * scale


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        work: str) -> dict:
    from perfbench import layers
    from perfbench.workloads import OP_METRICS, WORKLOADS, Context

    spec = load_spec()
    ctx = Context(ROOT, work, seed)
    workload = WORKLOADS[workload_name](ctx)
    attempted = failed = passes = 0
    setups: List[float] = []
    setup_host: List[float] = []
    reference_s()  # the first call also pays for growing the heap
    try:
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
            sample_host(setup_host, REFERENCE_SHARE * sum(setups[-1:]))
            t0 = time.perf_counter()
            workload.prepare()
            setups.append(time.perf_counter() - t0)
        sample_host(setup_host, REFERENCE_SHARE * setups[-1])
        workload.set_up()
        ops = workload.ops()

        #: (op name, traced) -> walls of its successful calls
        walls: Dict[Tuple[str, bool], List[float]] = {
            (op.name, traced): [] for op in ops for traced in (False, True)}
        op_samples: Dict[str, List[float]] = {op.metric: [] for op in ops}
        #: per complete traced pass, the ops' raw layer numbers summed
        layer_passes: List[Dict[str, float]] = []
        #: the raw layer numbers of each op's latest traced call
        latest_raw: Dict[str, Dict[str, float]] = {}
        counters: Dict[str, Dict[str, int]] = {}
        #: walls of the reference kernel, timed before each op
        host: List[float] = []
        peak_rss = 0.0
        deadline = time.perf_counter() + seconds
        while True:
            passes += 1
            pass_raw: Dict[str, float] = {}
            complete = True
            for op in ops:
                for traced in ((False, True) if trace else (False,)):
                    sample_host(host, REFERENCE_SHARE
                                * sum(walls[op.name, traced][-1:]))
                    attempted += 1
                    try:
                        result = op.run(traced)
                        expected = counters.setdefault(op.name,
                                                       result.counters)
                        if result.counters != expected:
                            raise AssertionError(
                                f"counters {result.counters} != {expected}")
                    except Exception:
                        failed += 1
                        complete = False
                        print(f"FAILED {workload_name}/{op.name}"
                              f"{' (traced)' if traced else ''}:",
                              file=sys.stderr)
                        traceback.print_exc()
                        continue
                    peak_rss = max(peak_rss, result.rss_mb)
                    walls[op.name, traced].append(result.wall_s)
                    if traced:
                        latest_raw[op.name] = result.raw
                        layers.merge(pass_raw, result.raw)
                    else:
                        op_samples[op.metric].append(
                            _op_value(op.metric, result))
            if trace and complete:
                layer_passes.append(pass_raw)
            if time.perf_counter() >= deadline:
                break
    finally:
        workload.close()

    def verdict_wall(traced: bool) -> float:
        return sum(_median(walls[op.name, traced]) for op in ops)

    unscaled = {
        "host.reference_s": _median(host),
        "host.setup_reference_s": _median(setup_host),
        "setup_wall_s": _median(setups),
        "verdict_wall_s": verdict_wall(False),
    }
    scale = (REFERENCE_S
             / unscaled["host.reference_s"]) ** REFERENCE_EXPONENT
    op_medians = {name: _scaled(name, _median(v), scale)
                  for name, v in op_samples.items()}
    print(f"perfbench {workload_name}: seed {seed}, {passes} pass(es), "
          f"setup {[round(s, 4) for s in setups]} s")
    for op in ops:
        print(f"op {op.name}: walls "
              f"{[round(w, 4) for w in walls[op.name, False]]} s")
    print("host: " + json.dumps(unscaled, sort_keys=True))
    print("ops: " + json.dumps(op_medians, sort_keys=True))
    print("counters: " + json.dumps(counters, sort_keys=True))

    if not trace:
        values = {
            "setup_s": unscaled["setup_wall_s"] * (
                REFERENCE_S / unscaled["host.setup_reference_s"]
            ) ** REFERENCE_EXPONENT,
            "verdict_s": unscaled["verdict_wall_s"] * scale,
            "peak_rss_mb": peak_rss,
        }
        listed = spec["end_to_end"]
    else:
        listed = spec["per_layer"]
        names = [m["name"] for m in listed]
        # a renamed target would read as its layer doing no work
        missing = layers.missing_targets()
        attempted += 1
        if missing:
            failed += 1
            print(f"FAILED {workload_name}: trace targets not found: "
                  f"{missing}", file=sys.stderr)
        finals = [layers.finalize(raw, names) for raw in layer_passes]
        values = {name: _median([f[name] for f in finals]) for name in names}
        for op_name, raw in latest_raw.items():
            shares = layers.finalize(raw, names)
            top = sorted(((v, k) for k, v in shares.items()
                          if k.endswith("_s") and v > 0), reverse=True)
            print(f"layers {op_name}: " + ", ".join(
                f"{k}={v:.4f}" for v, k in top[:8]))
        values.update({name: op_medians.get(name, 0.0) for name in names
                       if name in OP_METRICS})
        values.update(unscaled)
        untraced = verdict_wall(False)
        values["trace.overhead_pct"] = (
            100.0 * (verdict_wall(True) / untraced - 1.0) if untraced else 0.0)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in listed
    }
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def prepare_only(workload_name: str, seed: int, work: str) -> None:
    """Build an in-process workload's inputs (the fresh-process part of
    its set-up) and exit."""
    from perfbench.workloads import WORKLOADS, Context

    WORKLOADS[workload_name](Context(ROOT, work, seed)).build_inputs()


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro source tree under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # an operator's store must never turn a cold workload warm
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]

    base = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(base, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    tempfile.tempdir = work
    try:
        if args.prepare:
            prepare_only(args.workload, args.seed, work)
            return 0
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
