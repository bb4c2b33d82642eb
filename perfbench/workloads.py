"""The benchmark's four workloads.

Each workload is a closed loop with one client: an *iteration* runs the
workload's operations once, in a fixed order, and the next iteration
starts when the previous one has finished.  Every operation returns an
:class:`OpResult` whose counters are the deterministic work it did;
its verdict gate raises :class:`~perfbench.gates.GateError` on a wrong
answer.

``cli_cold`` and ``cli_store`` run the ``repro`` command in fresh
processes; ``large_models`` and ``runtime`` call the public API in this
process.  ``prepare`` is the set-up a fresh checkout pays before the
first call, timed for the ``setup_s`` figure (in-process workloads run it
in a fresh ``run.py --prepare`` process); ``set_up`` then readies this
process's inputs, untimed.
"""

from __future__ import annotations

import contextlib
import gc
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from perfbench import gates, layers
from perfbench.tracing import Tracer, load_jsonl

#: seconds one child process may take before it is killed (and fails)
CHILD_TIMEOUT_S = 60.0

#: an op's deterministic work counters, or a function that returns them
Counters = Union[Dict[str, int], Callable[[], Dict[str, int]]]


@dataclass
class OpResult:
    wall_s: float
    rss_mb: float
    counters: Dict[str, int] = field(default_factory=dict)
    #: work units done, for rate metrics (states, events, trials)
    work: float = 0.0
    #: additive per-layer numbers (traced runs only)
    raw: Optional[Dict[str, float]] = None


@dataclass
class Op:
    name: str
    #: the per-operation metric this op reports (``*_s`` = wall,
    #: ``*_per_s`` = work / wall)
    metric: str
    run: Callable[[bool], OpResult]


class Context:
    """Paths and the child environment shared by a run's workloads."""

    def __init__(self, root: str, work: str, seed: int):
        self.root = root
        self.src = os.path.join(root, "src")
        self.work = work
        self.seed = seed
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = self.src
        env["TMPDIR"] = work
        self.env = env
        self._serial = 0

    def path(self, stem: str) -> str:
        """A fresh path in the work directory."""
        self._serial += 1
        return os.path.join(self.work, f"{stem}-{self._serial}")

    def child(self, argv: List[str]) -> Tuple[int, str, float, float]:
        """Run ``argv``; return (exit code, stdout, wall, max RSS MB)
        measured for that one child."""
        out_path = self.path("stdout")
        with open(out_path, "w+b") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=subprocess.STDOUT, env=self.env,
                cwd=self.work,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read().decode("utf-8", "replace")
        os.unlink(out_path)
        return proc.returncode, stdout, wall, usage.ru_maxrss / 1024.0


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- CLI workloads -------------------------------------------------------------

class CliWorkload:
    """Fresh-process ``python -m repro`` calls."""

    name = ""

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def repro(self, args: List[str]) -> List[str]:
        return [sys.executable, "-m", "repro", *args]

    def lint_args(self) -> List[str]:
        return ["lint", "--all", "--seed", str(self.ctx.seed)]

    def _cli_op(self, args: List[str], gate, traced: bool,
                store: Optional[str] = None) -> OpResult:
        if store is not None:
            args = [*args, "--store", store]
        if not traced:
            rc, stdout, wall, rss = self.ctx.child(self.repro(args))
            return OpResult(wall, rss, gate(rc, stdout))
        spans_path = self.ctx.path("spans.jsonl")
        traced_cli = os.path.join(self.ctx.root, "perfbench", "cli_trace.py")
        rc, stdout, wall, rss = self.ctx.child(
            [sys.executable, traced_cli, spans_path, "--", *args])
        counters = gate(rc, stdout)
        with open(spans_path, encoding="utf-8") as stream:
            spans, summary = load_jsonl(stream)
        os.unlink(spans_path)
        raw = layers.op_raw(spans, summary["counters"], summary["extra"])
        return OpResult(wall, rss, counters, raw=raw)

    def prepare(self) -> None:
        """What a fresh checkout needs before the first call: one CLI
        start that lists the catalogue (imports, byte-compiles, builds
        every model)."""
        rc, stdout, *_ = self.ctx.child(self.repro(["list"]))
        if rc != 0 or "token_ring" not in stdout:
            raise gates.GateError(f"repro list failed ({rc}): {stdout[-500:]}")

    def set_up(self) -> None:
        pass

    def close(self) -> None:
        pass


class CliCold(CliWorkload):
    """``repro --help``, ``verify --all`` and ``lint --all`` with no store."""

    name = "cli_cold"

    def ops(self) -> List[Op]:
        return [
            Op("startup", "startup_s",
               lambda traced: self._cli_op(["--help"], gates.help_gate,
                                           traced)),
            Op("verify_cold", "verify_cold_s",
               lambda traced: self._cli_op(["verify", "--all"],
                                           gates.verify_gate, traced)),
            Op("lint_cold", "lint_cold_s",
               lambda traced: self._cli_op(self.lint_args(), gates.lint_gate,
                                           traced)),
        ]


class CliStore(CliWorkload):
    """``verify --all --store`` into an empty store (writes), then warm
    ``verify --all --store`` and ``lint --all --store`` reads, each op on
    its own fresh copy of a store filled during set-up."""

    name = "cli_store"

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.template: Optional[str] = None

    def prepare(self) -> None:
        """Fill a store the way a user's first two runs do."""
        store = self.ctx.path("template") + ".sqlite"
        for args, gate in ((["verify", "--all"], gates.verify_gate),
                           (self.lint_args(), gates.lint_gate)):
            rc, stdout, *_ = self.ctx.child(
                self.repro([*args, "--store", store]))
            gate(rc, stdout)
        if self.template is None:
            self.template = store
        else:
            _remove_store(store)

    def _fresh_copy(self) -> str:
        path = self.ctx.path("store") + ".sqlite"
        for suffix in ("", "-wal"):
            if os.path.exists(self.template + suffix):
                shutil.copyfile(self.template + suffix, path + suffix)
        return path

    def _store_op(self, args, gate, traced: bool, warm: bool) -> OpResult:
        store = self._fresh_copy() if warm else \
            self.ctx.path("empty") + ".sqlite"
        try:
            return self._cli_op(args, gate, traced, store=store)
        finally:
            _remove_store(store)

    def ops(self) -> List[Op]:
        verify = ["verify", "--all"]
        return [
            Op("verify_populate", "verify_populate_s",
               lambda traced: self._store_op(verify, gates.verify_gate,
                                             traced, warm=False)),
            Op("verify_warm", "verify_warm_s",
               lambda traced: self._store_op(verify, gates.verify_gate,
                                             traced, warm=True)),
            Op("lint_warm", "lint_warm_s",
               lambda traced: self._store_op(self.lint_args(),
                                             gates.lint_gate, traced,
                                             warm=True)),
        ]

    def close(self) -> None:
        if self.template is not None:
            _remove_store(self.template)


def _remove_store(path: str) -> None:
    for suffix in ("", "-wal", "-shm", "-journal"):
        if os.path.exists(path + suffix):
            os.unlink(path + suffix)


# -- in-process workloads ------------------------------------------------------

class InProcess:
    """Public-API calls in this process; traced calls patch the layers
    around each op and restore them afterwards."""

    name = ""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.tracer: Optional[Tracer] = None

    def prepare(self) -> None:
        """Import the layers and build the inputs in a fresh process."""
        ctx = self.ctx
        rc, stdout, *_ = ctx.child([
            sys.executable, os.path.join(ctx.root, "perfbench", "run.py"),
            "--workload", self.name, "--seed", str(ctx.seed), "--prepare",
        ])
        if rc != 0:
            raise RuntimeError(f"preparing {self.name} failed: {stdout}")

    def set_up(self) -> None:
        self.inputs = self.build_inputs()

    def build_inputs(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def close(self) -> None:
        pass

    def _measure(self, body: Callable[..., Tuple[Counters, float]],
                 traced: bool, scope=None) -> OpResult:
        """Time ``body`` (which returns its counters and work units) from
        a collected heap, optionally with every layer traced.  Counters
        given as a function are taken after the clock stops and the
        layers are restored, so taking them is neither timed nor traced.

        ``scope`` is a context manager for the op's untimed surroundings
        (a server, say): entered before the clock starts, left after it
        stops, traced with the op; ``body`` receives its value.
        """
        from repro.core.exploration import clear_all_caches
        from repro.store import backend

        clear_all_caches()
        gc.collect()
        tracer = None
        with contextlib.ExitStack() as stack:
            if traced:
                if self.tracer is None:
                    self.tracer = Tracer()
                tracer = self.tracer
                tracer.reset()
                backend.reset_stats()
                stack.callback(tracer.restore)
                tracer.install(layers.TARGETS, layers.GUARDS)
                stack.callback(tracer.unwatch_gc)
                tracer.watch_gc()
            args = () if scope is None else (stack.enter_context(scope),)
            t0 = time.perf_counter()
            counters, work = body(*args)
            wall = time.perf_counter() - t0
        if callable(counters):
            counters = counters()
        raw = None
        if tracer is not None:
            stats = backend.stats()
            extra = {layers.STORE_STATS_PREFIX + key: stats.get(key, 0)
                     for key in layers.STATS_KEYS}
            raw = layers.op_raw(tracer.spans, tracer.counters, extra)
        return OpResult(wall, _self_rss_mb(), counters, work, raw)


@dataclass
class LargeModels:
    ring: object
    byzantine: object
    memory: object


#: token-ring census instance (size, K) and byzantine family size k
RING_CENSUS = (7, 6)
BYZANTINE_CENSUS_K = 11
#: data domain of the synthesized memory-access program
SYNTHESIS_DOMAIN = 128


class LargeModelsWorkload(InProcess):
    """The biggest explorable certificates, synthesis and two censuses."""

    name = "large_models"

    def build_inputs(self) -> LargeModels:
        from repro.programs import byzantine, memory_access, token_ring

        # the stored value is the one seeded input that leaves every
        # verdict and count unchanged
        value = random.Random(self.ctx.seed).randrange(1, SYNTHESIS_DOMAIN)
        return LargeModels(
            ring=token_ring.build(6, 5),
            byzantine=byzantine.build(),
            memory=memory_access.build(
                value=value, data_domain=tuple(range(SYNTHESIS_DOMAIN))),
        )

    def _certify(self) -> Tuple[Counters, float]:
        from repro import synthesis
        from repro.core import (TRUE, is_failsafe_tolerant,
                                is_masking_tolerant, is_nonmasking_tolerant)

        ring, byz, mem = (self.inputs.ring, self.inputs.byzantine,
                          self.inputs.memory)
        verdicts = {
            "ring": is_nonmasking_tolerant(
                ring.ring, ring.faults, ring.spec, ring.invariant, TRUE),
            "ring_z5": is_nonmasking_tolerant(
                ring.ring, ring.faults, ring.spec, ring.invariant, TRUE,
                symmetric=True),
            "byzantine_failsafe": is_failsafe_tolerant(
                byz.failsafe, byz.faults, byz.spec, byz.invariant, byz.span),
            "byzantine_masking": is_masking_tolerant(
                byz.masking, byz.faults, byz.spec, byz.invariant, byz.span),
        }
        failsafe = synthesis.add_failsafe(mem.p, mem.fault_anytime, mem.spec)
        verdicts["add_failsafe"] = failsafe.verify(mem.fault_anytime,
                                                   mem.spec)
        masking = synthesis.add_masking(mem.p, mem.fault_anytime, mem.spec)
        verdicts["add_masking"] = masking.verify(mem.fault_anytime, mem.spec)
        failed = sorted(name for name, ok in verdicts.items() if not ok)
        if failed:
            raise gates.GateError(f"certificates failed: {failed}")

        def counters() -> Dict[str, int]:
            return {
                "certificates": len(verdicts),
                "ring_states": len(ring.faults.system(ring.ring, TRUE).states),
                "ring_quotient_states": len(ring.faults.system(
                    ring.ring, TRUE, symmetric=True).states),
                "byzantine_states": len(byz.faults.system(
                    byz.masking, byz.span).states),
            }
        return counters, 0.0

    def _census(self) -> Tuple[Dict[str, int], float]:
        from repro.campaigns.distributed import distributed_census

        size, k = RING_CENSUS
        ring, _ = distributed_census(
            "token_ring", params={"size": size, "k": k}, shards=1)
        gates.census_gate("token ring", ring.states, k ** size)
        byz, _ = distributed_census(
            "byzantine", params={"k": BYZANTINE_CENSUS_K}, shards=1)
        gates.census_gate("byzantine", byz.states,
                          2 * 3 ** BYZANTINE_CENSUS_K)
        states = ring.states + byz.states
        return {"census_states": states,
                "census_rows": ring.edges + byz.edges}, float(states)

    def ops(self) -> List[Op]:
        return [
            Op("certify", "certify_s",
               lambda traced: self._measure(self._certify, traced)),
            Op("census", "census_states_per_s",
               lambda traced: self._measure(self._census, traced)),
        ]


@dataclass
class RuntimeInputs:
    bank: object
    events: List[dict]
    final: Dict[str, int]
    scenario: object


#: ring detector bank shape and event-stream length of ``runtime``
RING_N, RING_K, EVENTS = 8, 5, 100_000
#: trials per campaign: few enough that a run takes many samples of each
#: op, enough that the mean trial cost varies little with the seed
TRIALS = 48
HORIZON = 200.0


class RuntimeWorkload(InProcess):
    """Monitoring ingest, an in-process campaign, and the same campaign
    through an in-process ``repro serve`` job queue with one pull worker."""

    name = "runtime"

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.summary: Optional[dict] = None

    def build_inputs(self) -> RuntimeInputs:
        from benchmarks.bench_monitoring import ring_bank
        from repro.campaigns import get_scenario

        rng = random.Random(self.ctx.seed)
        values = [0] * RING_N
        events = []
        for step in range(EVENTS):
            i = rng.randrange(RING_N)
            values[i] = rng.randrange(RING_K)
            events.append({"time": float(step),
                           "writes": {f"x{i}": values[i]}})
        final = {f"x{i}": v for i, v in enumerate(values)}
        return RuntimeInputs(ring_bank(RING_N, RING_K), events, final,
                             get_scenario("byzantine"))

    def _ingest(self) -> Tuple[Dict[str, int], float]:
        from repro.monitoring import MonitorRuntime

        bank = self.inputs.bank
        runtime = MonitorRuntime(bank)
        count = runtime.drain(self.inputs.events)
        if count != EVENTS or runtime.values() != self.inputs.final:
            raise gates.GateError(f"ingest consumed {count} of {EVENTS}")
        gates.syndrome_gate(runtime.syndrome, bank.syndrome_of_values(
            [self.inputs.final[name] for name in bank.schema.names]))
        return {"events": count}, float(count)

    def _campaign(self) -> Tuple[Dict[str, int], float]:
        from repro.campaigns import Campaign

        result = Campaign(self.inputs.scenario, trials=TRIALS,
                          seed=self.ctx.seed, horizon=HORIZON).run()
        self.summary = result.summary
        gates.completed_gate(result.summary, TRIALS)
        return {"trials": len(result.trials)}, float(TRIALS)

    def _queue(self, url: str) -> Tuple[Dict[str, int], float]:
        from repro.campaigns import DistributedCampaign

        campaign = DistributedCampaign(
            self.inputs.scenario, trials=TRIALS, seed=self.ctx.seed,
            horizon=HORIZON, base_url=url, deadline_s=CHILD_TIMEOUT_S,
        )
        result = campaign.run()
        if campaign.degraded or campaign.batches_from_store:
            raise gates.GateError(
                "queue degraded or answered from a stale store")
        gates.campaign_gate(result.summary, self.summary, TRIALS)
        return {"trials": len(result.trials)}, float(TRIALS)

    def ops(self) -> List[Op]:
        return [
            Op("ingest", "ingest_events_per_s",
               lambda traced: self._measure(self._ingest, traced)),
            Op("campaign", "campaign_trials_per_s",
               lambda traced: self._measure(self._campaign, traced)),
            Op("queue", "queue_trials_per_s",
               lambda traced: self._measure(self._queue, traced,
                                            scope=JobServer())),
        ]


class JobServer:
    """An in-process ``repro serve`` front end on a fresh memory store plus
    one pull worker thread; both stop (and are joined) on exit."""

    def __enter__(self) -> str:
        import asyncio

        from repro.campaigns import worker_loop
        from repro.campaigns.distributed import CAMPAIGN_QUEUE
        from repro.store import MemoryStore
        from repro.store.serve import StoreServer

        self.server = StoreServer(MemoryStore(), port=0)
        self.loop = asyncio.new_event_loop()
        ready = threading.Event()

        def serve() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            ready.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=serve, name="perfbench-serve")
        self.thread.start()
        if not ready.wait(30):
            raise RuntimeError("job-queue server did not start")
        url = f"http://127.0.0.1:{self.server.port}"
        self.stop = threading.Event()
        self.worker = threading.Thread(
            target=worker_loop, args=(url,), name="perfbench-worker",
            kwargs={"queues": (CAMPAIGN_QUEUE,), "stop": self.stop,
                    "lease_s": CHILD_TIMEOUT_S, "poll_cap": 0.2,
                    "worker_id": "perfbench-w0"},
        )
        self.worker.start()
        return url

    def __exit__(self, *exc) -> None:
        import asyncio

        self.stop.set()
        self.worker.join()
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop).result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join()
        self.loop.close()


#: each operation's own metric, reported by traced runs
OP_METRICS = (
    "startup_s", "verify_cold_s", "lint_cold_s", "verify_populate_s",
    "verify_warm_s", "lint_warm_s", "certify_s", "census_states_per_s",
    "ingest_events_per_s", "campaign_trials_per_s", "queue_trials_per_s",
)

WORKLOADS = {
    cls.name: cls
    for cls in (CliCold, CliStore, LargeModelsWorkload, RuntimeWorkload)
}
