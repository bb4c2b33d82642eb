"""The program's layers, the functions wrapped to trace them, and the
per-layer metrics computed from the spans.

Layers are named after ``src/repro`` modules.  Each target is
``(module, qualname, layer, hook)``; a hook runs after the wrapped call
and keeps the layer's work counters.  :func:`op_raw` turns the spans
and counters of one operation into additive raw numbers,
:func:`finalize` turns summed raw numbers into the reported metrics
(ratios are formed only after summing).
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Optional, Tuple

from perfbench.tracing import Span, Tracer, entry_spans, layer_totals

__all__ = ["GUARDS", "MODULES", "TARGETS", "STATS_KEYS", "finalize",
           "merge", "missing_targets", "op_raw", "STORE_STATS_PREFIX"]


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs.get(name)


# -- hooks ---------------------------------------------------------------------

def _entry_counter(counter: str):
    def hook(tracer: Tracer, entry: bool, args, kwargs, result) -> None:
        if entry:
            tracer.count(counter)
    return hook


def _explored(tracer: Tracer, entry: bool, args, kwargs, result) -> None:
    if not entry:
        return
    tracer.count("exploration.calls")
    seen = tracer.memo.setdefault("systems", {})
    if id(result) in seen:
        tracer.count("exploration.reused")
    seen[id(result)] = result  # held so the id cannot be recycled


def _built(tracer: Tracer, entry: bool, args, kwargs, result) -> None:
    tracer.count("exploration.states", len(args[0].states))


def _census(tracer: Tracer, entry: bool, args, kwargs, result) -> None:
    if entry:
        tracer.count("kernels.census_states", result.states)
        tracer.count("kernels.census_rows", result.edges)


def _index_built(tracer: Tracer, entry: bool, args, kwargs, result) -> None:
    tracer.count("regions.index_builds")


def _store_get(tracer: Tracer, entry: bool, args, kwargs, result) -> None:
    tracer.count("store.get_calls")
    if result is not None:
        tracer.count("store.get_hits")
        tracer.count("store.get_bytes", len(result))


def _store_put(tracer: Tracer, entry: bool, args, kwargs, result) -> None:
    tracer.count("store.put_calls")
    tracer.count("store.put_bytes", len(_arg(args, kwargs, 2, "payload")))


def _linted(tracer: Tracer, entry: bool, args, kwargs, result) -> None:
    if entry:
        tracer.count("analysis.lint_calls")
        tracer.count("analysis.proven_facts", len(result.proofs))


def _drained(tracer: Tracer, entry: bool, args, kwargs, result) -> None:
    tracer.count("monitoring.events", result)


def _campaign_ran(tracer: Tracer, entry: bool, args, kwargs, result) -> None:
    if entry:
        tracer.count("campaigns.trials", len(result.trials))


def _leased(tracer: Tracer, entry: bool, args, kwargs, result) -> None:
    tracer.count("jobs.lease_calls")
    if result is not None:
        tracer.count("jobs.lease_hits")


_TOLERANCE = _entry_counter("tolerance.checks")
_FAIRNESS = _entry_counter("fairness.calls")
_SYNTHESIS = _entry_counter("synthesis.calls")

#: every wrapped function: (module, qualname, layer, hook)
TARGETS: List[Tuple[str, str, str, Optional[Any]]] = [
    ("repro.cli", "main", "cli", None),
    # exploration: memoized systems and the BFS engines behind them
    ("repro.core.exploration", "explored_system", "exploration", _explored),
    ("repro.core.faults", "FaultClass.system", "exploration", _explored),
    ("repro.core.exploration", "TransitionSystem.__init__", "exploration",
     _built),
    # kernels: packed-code censuses
    ("repro.core.kernels", "explore_codes", "kernels", _census),
    ("repro.core.kernels", "explore_code_shard", "kernels", _census),
    ("repro.core.kernels", "merge_code_reaches", "kernels", None),
    # regions: dense indexes, region bitmaps and closure fixpoints
    ("repro.core.regions", "StateIndex.__init__", "regions", _index_built),
    ("repro.core.regions", "SystemIndex.__init__", "regions", _index_built),
    ("repro.core.regions", "StateIndex.satisfying", "regions", None),
    ("repro.core.regions", "StateIndex.region_bits", "regions", None),
    ("repro.core.regions", "StateIndex.action_edges", "regions", None),
    ("repro.core.regions", "StateIndex.derive_restricted_edges", "regions",
     None),
    ("repro.core.regions", "StateIndex.predecessor_lists", "regions", None),
    ("repro.core.regions", "SystemIndex.satisfying", "regions", None),
    ("repro.core.regions", "SystemIndex.region_bits", "regions", None),
    ("repro.core.regions", "SystemIndex.region_data", "regions", None),
    ("repro.core.regions", "SystemIndex.enabled_data", "regions", None),
    ("repro.core.regions", "SystemIndex.first_escaping_edge", "regions",
     None),
    ("repro.core.regions", "SystemIndex.forward_closure_bits", "regions",
     None),
    ("repro.core.regions", "backward_closure_ids", "regions", None),
    ("repro.core.regions", "largest_closed_subset_bits", "regions", None),
    ("repro.core.regions", "universe_index", "regions", None),
    # tolerance: the certificate checks (Theorems 3.4, 4.1, 5.2)
    ("repro.core.tolerance", "is_failsafe_tolerant", "tolerance", _TOLERANCE),
    ("repro.core.tolerance", "is_nonmasking_tolerant", "tolerance",
     _TOLERANCE),
    ("repro.core.tolerance", "is_masking_tolerant", "tolerance", _TOLERANCE),
    ("repro.core.tolerance", "is_tolerant", "tolerance", _TOLERANCE),
    ("repro.core.tolerance", "check_implication", "tolerance", _TOLERANCE),
    ("repro.core.tolerance", "semantic_tolerance_check", "tolerance",
     _TOLERANCE),
    ("repro.core.detector", "is_detector", "tolerance", _TOLERANCE),
    ("repro.core.corrector", "is_corrector", "tolerance", _TOLERANCE),
    # fairness: leads-to / convergence under weak fairness
    ("repro.core.fairness", "check_leads_to", "fairness", _FAIRNESS),
    ("repro.core.fairness", "check_converges_to", "fairness", _FAIRNESS),
    ("repro.core.fairness", "fair_recurrent_sccs", "fairness", _FAIRNESS),
    ("repro.core.fairness", "strongly_connected_components", "fairness",
     _FAIRNESS),
    ("repro.core.fairness", "liveness_violating_states", "fairness",
     _FAIRNESS),
    # synthesis: adding detectors and correctors
    ("repro.synthesis.failsafe", "add_failsafe", "synthesis", _SYNTHESIS),
    ("repro.synthesis.failsafe", "FailsafeSynthesis.verify", "synthesis",
     _SYNTHESIS),
    ("repro.synthesis.masking", "add_masking", "synthesis", _SYNTHESIS),
    ("repro.synthesis.masking", "MaskingSynthesis.verify", "synthesis",
     _SYNTHESIS),
    ("repro.synthesis.nonmasking", "add_nonmasking", "synthesis", _SYNTHESIS),
    ("repro.synthesis.nonmasking", "NonmaskingSynthesis.verify", "synthesis",
     _SYNTHESIS),
    ("repro.synthesis.weakest", "fault_unsafe_region", "synthesis",
     _SYNTHESIS),
    ("repro.synthesis.weakest", "safe_action_predicate", "synthesis",
     _SYNTHESIS),
    # store: backend traffic, payload codec, artifact/certificate lookups
    ("repro.store.backend", "BaseStore.get", "store", _store_get),
    ("repro.store.backend", "BaseStore.put", "store", _store_put),
    ("repro.store.backend", "loads", "store", None),
    ("repro.store.backend", "dumps", "store", None),
    ("repro.store.artifacts", "load_or_assemble_system", "store", None),
    ("repro.store.artifacts", "save_system_artifacts", "store", None),
    ("repro.store.certificates", "lookup_certificate", "store", None),
    ("repro.store.certificates", "record_certificate", "store", None),
    ("repro.analysis.lint_store", "lookup_report", "store", None),
    ("repro.analysis.lint_store", "record_report", "store", None),
    ("repro.analysis.lint_store", "lookup_analysis", "store", None),
    ("repro.analysis.lint_store", "record_analysis", "store", None),
    # analysis: the linter and its symbolic Plan-IR pass
    ("repro.analysis.linter", "lint", "analysis", _linted),
    ("repro.analysis.symbolic", "analyze_action", "analysis.symbolic", None),
    # monitoring, campaigns, job queue
    ("repro.monitoring.runtime", "MonitorRuntime.drain", "monitoring",
     _drained),
    ("repro.campaigns.runner", "Campaign.run", "campaigns", _campaign_ran),
    ("repro.campaigns.runner", "Campaign._buffered_trial", "campaigns", None),
    ("repro.campaigns.distributed", "DistributedCampaign.run", "campaigns",
     _campaign_ran),
    ("repro.campaigns.distributed", "encode_batch", "campaigns", None),
    ("repro.campaigns.distributed", "decode_batch", "campaigns", None),
    ("repro.store.jobs", "JobClient.submit", "jobs",
     _entry_counter("jobs.submit_calls")),
    ("repro.store.jobs", "JobClient.lease", "jobs", _leased),
    ("repro.store.jobs", "JobClient.complete", "jobs",
     _entry_counter("jobs.complete_calls")),
]

def _store_in_use(args: tuple) -> bool:
    """The store layer is the configured store (``--store``,
    ``REPRO_STORE``) and remote stores.  Lookups that find no store
    configured do no store work, and the throwaway memory store a census
    keeps for itself when none is configured belongs to the census."""
    from repro.store import backend

    return (backend.active_store() is not None
            or bool(args) and isinstance(args[0], backend.RemoteStore))


#: guards of the layers whose functions also run when the layer is unused
GUARDS = {"store": _store_in_use}

#: the modules that define the targets
MODULES = sorted({target[0] for target in TARGETS})

#: ``repro.store.backend.stats()`` counters reported as ``store.stats.*``
STATS_KEYS = (
    "hits", "misses", "puts", "errors", "verdict_hits", "obligation_hits",
    "obligations_reused", "graph_hits", "graph_reassembled",
    "lint_report_hits", "lint_action_hits", "rows_hits", "rows_computed",
    "closure_facts_served",
)
STORE_STATS_PREFIX = "store.stats."


def missing_targets() -> List[str]:
    """Targets whose module or function does not exist (a renamed
    function would otherwise read as its layer doing no work)."""
    gone = []
    for name in MODULES:
        try:
            importlib.import_module(name)
        except ImportError:
            gone.append(name)
    tracer = Tracer()
    tracer.install(target for target in TARGETS if target[0] not in gone)
    tracer.restore()
    return gone + tracer.missing


def _inclusive(spans: List[Span], layer: str, *names: str) -> float:
    """Summed length of the outermost spans of ``layer`` named ``names``
    (all names when none are given)."""
    chosen = {s[0]: s for s in spans
              if s[2] == layer and (not names or s[3] in names)}
    return sum(s[5] - s[4] for s in chosen.values() if s[1] not in chosen)


def op_raw(spans: List[Span], counters: Dict[str, float],
           extra: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Additive per-layer numbers of one traced operation."""
    self_s = layer_totals(spans)
    raw: Dict[str, float] = {k: float(v) for k, v in counters.items()}
    raw.update({k: float(v) for k, v in (extra or {}).items()})
    for layer in ("cli", "exploration", "regions", "tolerance", "fairness",
                  "synthesis", "store", "analysis"):
        raw[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    raw["analysis.symbolic_s"] = self_s.get("analysis.symbolic", 0.0)
    raw["kernels.census_s"] = sum(
        s[5] - s[4] for s in entry_spans(spans)
        if s[2] == "kernels" and s[3] != "merge_code_reaches"
    )
    raw["store.get_s"] = _inclusive(spans, "store", "BaseStore.get")
    raw["store.put_s"] = _inclusive(spans, "store", "BaseStore.put")
    raw["store.decode_s"] = _inclusive(spans, "store", "loads")
    raw["store.encode_s"] = _inclusive(spans, "store", "dumps")
    raw["monitoring.drain_s"] = _inclusive(spans, "monitoring")
    raw["campaigns.run_s"] = _inclusive(
        spans, "campaigns", "Campaign.run", "DistributedCampaign.run")
    raw["campaigns.encode_s"] = _inclusive(spans, "campaigns", "encode_batch")
    raw["campaigns.decode_s"] = _inclusive(spans, "campaigns", "decode_batch")
    raw["jobs.lease_wait_s"] = _inclusive(spans, "jobs", "JobClient.lease")
    return raw


def merge(total: Dict[str, float], raw: Dict[str, float]) -> None:
    """Add one operation's raw numbers into ``total`` (the module count
    of an import is the same for every process, so it is not summed)."""
    for key, value in raw.items():
        if key == "cli.modules_loaded":
            total[key] = max(total.get(key, 0.0), value)
        else:
            total[key] = total.get(key, 0.0) + value


def _ratio(raw: Dict[str, float], part: str, whole: str) -> float:
    return raw.get(part, 0.0) / raw[whole] if raw.get(whole) else 0.0


def finalize(raw: Dict[str, float], names: List[str]) -> Dict[str, float]:
    """The reported metrics ``names`` from summed raw numbers."""
    derived = dict(raw)
    derived["exploration.reuse_ratio"] = _ratio(
        raw, "exploration.reused", "exploration.calls")
    derived["store.hit_ratio"] = _ratio(
        raw, "store.get_hits", "store.get_calls")
    derived["jobs.lease_yield"] = _ratio(
        raw, "jobs.lease_hits", "jobs.lease_calls")
    return {name: float(derived.get(name, 0.0)) for name in names}
