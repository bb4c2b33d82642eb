"""Verdict caching and frame-aware incremental re-verification.

Three layers, each consulted by :mod:`repro.core.tolerance` and
:mod:`repro.core.refinement` when a store is active:

1. **Certificate replay** — whole tolerance/refinement verdicts keyed by
   the full content fingerprint (program + faults + spec + invariant +
   span + symmetry).  A warm ``repro verify`` of an unchanged catalogue
   is served entirely from here: the stored
   :class:`~repro.core.results.CheckResult` is bit-identical to a fresh
   one by round-trip of the frozen dataclasses.

2. **Per-action closure facts** — ``T closed in p [] F`` decomposes
   exactly into per-action obligations because the fault-span system
   starts from *every* full-space state satisfying the span: the states
   of the system satisfying ``T`` are exactly the full-space ``T``
   states, so "action ``a`` preserves ``T``" depends only on (variables,
   ``T``, ``a``).  The certificate is the per-action row artifact of
   :mod:`repro.store.artifacts` — it exists iff every successor stays in
   the table.  Editing one action leaves every other action's closure
   fact valid by key equality; only the edited action sweeps.

3. **Frame-based obligation reuse** — whole-graph obligations
   (convergence ``true ↝ S``, safety sweeps, liveness components,
   refinement) cannot be decomposed per action, but a *passing* verdict
   transfers across a single-action edit when the edit is invisible to
   everything else: writes(old ∪ new) disjoint from the exact read
   frames of every consulted predicate and from the frames of every
   other action (program and fault alike).  Under that condition the
   edited action only touches variables no predicate and no other action
   observes, so its steps neither create/destroy progress toward any
   consulted predicate nor change any other action's behaviour — a
   violating computation of either program maps to one of the other by
   inserting/deleting the edited action's steps.  Stutter-sensitivity is
   the one trap: a transition invariant that can reject a visible-stutter
   step (``({S},{R})`` pairs) vetoes reuse; components built by the
   library's factories carry a ``stutter_true`` marker saying whether a
   visibly-stuttering step can ever violate them.  Failing verdicts never
   transfer (the stored counterexample belongs to the old program), and
   any missing frame declaration or non-exhaustible state space refuses
   reuse — degrade to recomputing, never to guessing.

The *manifest* makes layer 3 findable: per obligation family (everything
but the per-action fingerprints) it remembers recent
``{action name -> (fingerprint, frames)}`` tables with their verdict
keys, so an edited program can locate its one-action-away predecessor.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import artifacts as _artifacts
from . import backend as _backend
from . import keys as _keys

__all__ = [
    "certificate_key",
    "lookup_certificate",
    "record_certificate",
    "cached_obligation",
    "ObligationFamily",
    "closure_via_rows",
    "predicate_reads",
    "clear_memos",
]

#: manifest entries kept per obligation family (most recent first)
_MANIFEST_LIMIT = 8

#: in-process memo of exact predicate read frames, keyed by content key
_READS_MEMO: Dict[str, Optional[frozenset]] = {}


def clear_memos() -> None:
    _READS_MEMO.clear()


_backend.register_reset_hook(clear_memos)


# -- layer 1: whole-certificate replay ----------------------------------------

def certificate_key(tag: str, program, faults, spec, invariant, span,
                    symmetric: bool) -> str:
    return _keys.digest("cert", (
        tag,
        _keys.program_material(program),
        _keys.faults_material(faults) if faults is not None else None,
        _keys.spec_material(spec) if spec is not None else None,
        _keys.predicate_material(invariant) if invariant is not None else None,
        _keys.predicate_material(span) if span is not None else None,
        bool(symmetric),
    ))


def lookup_certificate(key: str):
    store = _backend.active_store()
    if store is None:
        return None
    result = _backend.try_loads(store.get(key))
    if result is None:
        return None
    _backend.record_event("verdict_hits")
    return result


def record_certificate(key: str, result) -> None:
    store = _backend.active_store()
    if store is None:
        return
    store.put(key, _backend.dumps(result), kind="cert")


# -- layer 2: per-action closure via row artifacts ----------------------------

def closure_via_rows(program, actions, start_predicate, what: str):
    """Serve a closure obligation from per-action row artifacts.

    ``actions`` is the full action list whose closure over the states
    satisfying ``start_predicate`` is claimed (program actions, plus
    fault actions for span closure).  Returns the passing
    :class:`CheckResult` when every action's rows exist or compute
    cleanly, ``None`` to fall back to the real graph check (store
    inactive, space too large, or some action escapes — the fallback
    reproduces the exact counterexample).
    """
    store = _backend.active_store()
    if store is None:
        return None
    try:
        states = program.states_satisfying(start_predicate)
    except Exception:
        return None
    if not states or len(states) > _artifacts.ROWS_STATE_LIMIT:
        return None
    starts_digest = _keys.states_digest(states)
    for action in actions:
        rows = _artifacts.action_rows(
            store, program, states, starts_digest, action
        )
        if rows is None:
            return None
    from ..core.results import CheckResult

    _backend.record_event("closure_facts_served")
    return CheckResult.passed(what)


# -- layer 3: frame-based reuse across one-action edits ------------------------

def predicate_reads(program, predicate) -> Optional[frozenset]:
    """Exact read frame of ``predicate`` over the program's full space,
    memoized in-process and in the store; ``None`` refuses."""
    key = _keys.digest("predreads", (
        tuple(_keys._variable_material(v) for v in program.variables),
        _keys.predicate_material(predicate),
    ))
    if key in _READS_MEMO:
        return _READS_MEMO[key]
    store = _backend.active_store()
    if store is not None:
        payload = store.get(key)
        if payload is not None:
            # a stored ``None`` is a recorded refusal, not a miss
            try:
                reads = _backend.loads(payload)
            except Exception:
                _backend.record_event("corrupt")
            else:
                reads = None if reads is None else frozenset(reads)
                _READS_MEMO[key] = reads
                return reads
    from ..analysis.frames import exact_predicate_reads

    try:
        states = program.states()
    except Exception:
        states = None
    reads = None
    if states:
        # exactness needs the full Cartesian space; program.states() is
        # exactly that (state_space over the declared domains)
        reads = exact_predicate_reads(predicate, states)
    _READS_MEMO[key] = reads
    if store is not None:
        store.put(
            key,
            _backend.dumps(None if reads is None else sorted(reads)),
            kind="predreads",
        )
    return reads


def _component_predicates(spec) -> Optional[List]:
    """The predicates a spec consults, or ``None`` if any component is
    opaque or stutter-sensitive (vetoing frame reuse)."""
    out: List = []
    for component in spec.components:
        kind = type(component).__name__
        if kind == "StateInvariant":
            out.append(component.predicate)
        elif kind == "LeadsTo":
            out.append(component.source)
            out.append(component.target)
        elif kind == "TransitionInvariant":
            consulted = getattr(component, "predicates", None)
            if consulted is None or not getattr(
                component, "stutter_true", False
            ):
                return None
            out.extend(consulted)
        else:
            return None
    return out


class ObligationFamily:
    """Everything an obligation depends on, split into the family part
    (stable across single-action edits) and the per-action part."""

    def __init__(self, tag: str, program, faults, predicates,
                 spec=None, extra=None):
        self.tag = tag
        self.program = program
        self.faults = tuple(getattr(faults, "actions", faults or ()))
        self.predicates: Optional[List] = list(predicates)
        if spec is not None and self.predicates is not None:
            consulted = _component_predicates(spec)
            if consulted is None:
                self.predicates = None  # opaque component: no frame reuse
            else:
                self.predicates.extend(consulted)
        self.extra = extra
        self.spec = spec

    def family_key(self) -> str:
        return _keys.digest("family", (
            self.tag,
            self.program.name,
            tuple(_keys._variable_material(v) for v in self.program.variables),
            _keys.faults_material(self.faults),
            _keys.spec_material(self.spec) if self.spec is not None else None,
            tuple(
                _keys.predicate_material(p) for p in (self.predicates or ())
            ) if self.predicates is not None else None,
            self.extra,
        ))

    def action_table(self) -> Optional[Dict[str, Tuple[str, Optional[list],
                                                       Optional[list]]]]:
        table: Dict[str, Tuple[str, Optional[list], Optional[list]]] = {}
        for action in self.program.actions:
            if action.name in table:
                return None
            fp = _keys.digest("action", _keys.action_material(action))
            reads = None if action.reads is None else sorted(action.reads)
            writes = None if action.writes is None else sorted(action.writes)
            table[action.name] = (fp, reads, writes)
        return table

    def _fault_frames_declared(self) -> bool:
        return all(
            a.reads is not None and a.writes is not None for a in self.faults
        )

    def try_reuse(self, store, table) -> Optional[object]:
        """Find a one-action-away passing predecessor and transfer its
        verdict if the edit is frame-invisible.  ``None`` refuses."""
        if self.predicates is None or not self._fault_frames_declared():
            return None
        entries = _backend.try_loads(store.get(self.family_key()))
        if entries is None:
            return None
        names = set(table)
        for entry in entries:
            if not entry.get("ok"):
                continue
            old = entry.get("actions")
            if old is None or set(old) != names:
                continue
            diff = [n for n in names if old[n][0] != table[n][0]]
            if len(diff) != 1:
                continue
            edited = diff[0]
            old_fp, old_reads, old_writes = old[edited]
            new_fp, new_reads, new_writes = table[edited]
            if old_writes is None or new_writes is None:
                continue
            touched = set(old_writes) | set(new_writes)
            # every other action (and every fault action) must neither
            # read nor write the touched variables
            visible = set()
            for name in names:
                if name == edited:
                    continue
                _, reads, writes = table[name]
                if reads is None or writes is None:
                    visible = None
                    break
                visible.update(reads)
                visible.update(writes)
            if visible is None:
                continue
            for fault in self.faults:
                visible.update(fault.reads)
                visible.update(fault.writes)
            if touched & visible:
                continue
            # no consulted predicate may read the touched variables
            refused = False
            for predicate in self.predicates:
                reads = predicate_reads(self.program, predicate)
                if reads is None:
                    refused = True
                    break
                if touched & reads:
                    refused = True
                    break
            if refused:
                continue
            verdict = _backend.try_loads(store.get(entry["verdict"]))
            if not getattr(verdict, "ok", False):
                continue
            _backend.record_event("obligations_reused")
            return verdict
        return None

    def record(self, store, table, verdict_key: str, ok: bool) -> None:
        key = self.family_key()
        entries: List[dict] = list(
            _backend.try_loads(store.get(key)) or ()
        )
        fps = {name: row[0] for name, row in table.items()}
        entries = [
            e for e in entries
            if {n: r[0] for n, r in e.get("actions", {}).items()} != fps
        ]
        entries.insert(0, {"actions": table, "verdict": verdict_key, "ok": ok})
        del entries[_MANIFEST_LIMIT:]
        store.put(key, _backend.dumps(entries), kind="manifest")


def cached_obligation(
    family: ObligationFamily,
    compute: Callable[[], object],
):
    """Serve one obligation: exact replay, then frame reuse, then compute
    (recording both the exact artifact and the manifest entry)."""
    store = _backend.active_store()
    if store is None:
        return compute()
    exact_key = _keys.digest("obligation", (
        family.tag,
        _keys.program_material(family.program),
        _keys.faults_material(family.faults),
        _keys.spec_material(family.spec) if family.spec is not None else None,
        tuple(
            _keys.predicate_material(p) for p in (family.predicates or ())
        ) if family.predicates is not None else None,
        family.extra,
    ))
    result = _backend.try_loads(store.get(exact_key))
    if result is not None:
        _backend.record_event("obligation_hits")
        return result
    table = family.action_table()
    if table is not None:
        reused = family.try_reuse(store, table)
        if reused is not None:
            # republish under the edited program's own exact key so the
            # next identical run replays in one lookup
            store.put(exact_key, _backend.dumps(reused), kind="obligation")
            family.record(store, table, exact_key, bool(reused.ok))
            return reused
    result = compute()
    store.put(exact_key, _backend.dumps(result), kind="obligation")
    if table is not None:
        family.record(store, table, exact_key, bool(getattr(result, "ok", False)))
    return result
