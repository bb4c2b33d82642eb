"""Symbolic analysis over the Plan IR: proofs, not probes.

The differential rules in :mod:`repro.analysis.frames` and
:mod:`repro.analysis.guards` evaluate actions pointwise over a probe
set, so on spaces above the probe limit a clean result is *evidence*.
Actions that carry a :class:`~repro.core.kernels.Plan` admit something
strictly better: the plan is a finite syntax tree over finite domains,
so frame soundness, guard satisfiability, and stutter-freedom are all
**decidable by exact enumeration over the plan's support variables** —
a handful of variables regardless of how many the program has.  This
module implements that decision procedure and the glue that turns its
verdicts into diagnostics and :class:`~.diagnostics.Proof` records:

- :class:`GuardSolver` — a finite-domain constraint solver for the plan
  guard grammar (``eq/ne/majority/and/or/not``).  Small expressions get
  an exact truth table over their support product; oversized ones fall
  back to a three-valued value-set abstraction that still proves many
  unsatisfiability/tautology facts.  Used for dead guards (``DC301``
  proven), dead or tautological *sub*-expressions (``DC501``/``DC502``),
  and guard-pair disjointness (race-freedom in
  :mod:`repro.analysis.interference`).
- :func:`plan_frame_table` — a joint guard+effect table over the plan's
  support, from which the **exact** reads/writes frame of the plan
  falls out (the same carried/masked contract the differential probe
  checks, decided rather than sampled).
- :func:`analyze_action` — the per-action driver: **translation
  validation** first (the plan must agree with the interpreted
  guard+statement: exhaustive sweep on small spaces, per-variable
  decomposition on large ones; ``DC511``/``DC512``), then frame and
  guard verdicts from the validated IR.

Every verdict is deterministic in the action's content and its
variables, and none depends on the lint target, which is what lets
:mod:`repro.analysis.lint_store` cache analyses in the
content-addressed certificate store and replay them across processes,
and lets the in-process memo share them across the targets of one run.
"""

from __future__ import annotations

import itertools
import random
import weakref
from dataclasses import dataclass, replace
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple,
)

from ..core.action import Action
from ..core.kernels import (
    Plan,
    _compile_effects_pure,
    _compile_guard_pure,
    guard_support,
    plan_support,
    row_kernel,
)
from ..core.state import State, Variable, _state_of, state_space
from ..store import keys as store_keys
from .diagnostics import Diagnostic, Proof, Severity
from .probe import raw_successors

__all__ = [
    "ANALYZER_VERSION",
    "GuardSolver",
    "GuardFacts",
    "ActionAnalysis",
    "guard_support",
    "plan_support",
    "plan_targets",
    "analyze_action",
    "clear_symbolic_caches",
]

#: bumped on any behaviour change of the analyzer; folded into lint
#: certificate keys so stored analyses never survive a rule change
ANALYZER_VERSION = 1

RULE_FRAMES = "frame-soundness"
RULE_GUARDS = "guard-satisfiability"
RULE_TRANSLATION = "translation-validation"


# -- syntactic support ---------------------------------------------------------

def plan_targets(plan: Plan) -> Tuple[str, ...]:
    """The variables the plan's effects assign, in effect order, deduped."""
    seen: Dict[str, None] = {}
    for effect in plan.effects:
        seen[effect[1]] = None
    return tuple(seen)


# -- the finite-domain guard solver --------------------------------------------

#: (domains signature, expr) -> (names, assignments, truth) | None
_TRUTH_TABLES: Dict[Tuple, Optional[Tuple]] = {}


class GuardSolver:
    """Exact satisfiability/tautology/disjointness for plan guards.

    ``domains`` maps every variable name to its declared domain tuple.
    Expressions whose support product fits under ``budget`` states get a
    memoized truth table — satisfiability, tautology, and witnesses are
    then decided exactly.  Larger expressions fall back to a
    three-valued abstract evaluation over per-variable value sets, which
    returns a definite verdict when it can and ``None`` when it cannot;
    callers treat ``None`` as "fall back to probing".
    """

    def __init__(self, domains: Dict[str, Tuple], budget: int = 1 << 16):
        self.domains = domains
        self.budget = budget
        self._signature = tuple(sorted(
            (name, tuple(domain)) for name, domain in domains.items()
        ))

    # -- exact enumeration -------------------------------------------------
    def table(self, expr: Tuple) -> Optional[Tuple]:
        """``(names, assignments, truth)`` over the expression's support
        product, or ``None`` when a support variable has no domain or
        the product exceeds the budget."""
        key = (self._signature, expr)
        found = _TRUTH_TABLES.get(key, _TRUTH_TABLES)
        if found is not _TRUTH_TABLES:
            return found
        result = self._build_table(expr)
        _TRUTH_TABLES[key] = result
        return result

    def _build_table(self, expr: Tuple) -> Optional[Tuple]:
        names = tuple(sorted(guard_support(expr)))
        domains = []
        size = 1
        for name in names:
            domain = self.domains.get(name)
            if not domain:
                return None
            domains.append(tuple(domain))
            size *= len(domain)
            if size > self.budget:
                return None
        index = {name: i for i, name in enumerate(names)}
        fn = _compile_guard_pure(expr, index)
        assignments = tuple(itertools.product(*domains)) if names else ((),)
        if fn is None:  # a literal/derived "true"
            truth = (True,) * len(assignments)
        else:
            truth = tuple(bool(fn(values)) for values in assignments)
        return (names, assignments, truth)

    # -- verdicts ----------------------------------------------------------
    def satisfiable(self, expr: Tuple) -> Optional[bool]:
        table = self.table(expr)
        if table is not None:
            return any(table[2])
        return self._abstract(expr, None)

    def tautological(self, expr: Tuple) -> Optional[bool]:
        table = self.table(expr)
        if table is not None:
            return all(table[2])
        verdict = self._abstract(expr, None)
        return None if verdict is None else verdict

    def witness(self, expr: Tuple) -> Optional[Dict[str, object]]:
        """A satisfying partial assignment (support variables only), or
        ``None`` when unsatisfiable/undecided."""
        table = self.table(expr)
        if table is None:
            return None
        names, assignments, truth = table
        for values, value in zip(assignments, truth):
            if value:
                return dict(zip(names, values))
        return None

    def co_satisfiable(self, left: Tuple, right: Tuple) -> Optional[bool]:
        """Can both guards hold in one state?  ``False`` is a proof the
        guarded actions are never simultaneously enabled."""
        return self.satisfiable(("and", left, right))

    # -- three-valued value-set abstraction --------------------------------
    def _abstract(self, expr: Tuple, env: Optional[Dict]) -> Optional[bool]:
        if env is None:
            env = {
                name: frozenset(domain)
                for name, domain in self.domains.items()
            }
        op = expr[0]
        if op == "true":
            return True
        if op in ("eq_const", "ne_const"):
            dom = env.get(expr[1])
            if dom is None:
                return None
            holds = expr[2] in dom
            if not holds:
                return op == "ne_const"
            if len(dom) == 1:
                return op == "eq_const"
            return None
        if op in ("eq_var", "ne_var"):
            a, b = env.get(expr[1]), env.get(expr[2])
            if a is None or b is None:
                return None
            if not (a & b):
                return op == "ne_var"
            if len(a) == 1 and len(b) == 1 and a == b:
                return op == "eq_var"
            return None
        if op == "all_ne_const":
            verdicts = [
                self._abstract(("ne_const", name, expr[2]), env)
                for name in expr[1]
            ]
            if any(v is False for v in verdicts):
                return False
            if all(v is True for v in verdicts):
                return True
            return None
        if op in ("eq_majority", "ne_majority"):
            definite = sum(
                1 for name in expr[2] if env.get(name) == frozenset((1,))
            )
            possible = sum(
                1 for name in expr[2]
                if env.get(name) is not None and 1 in env[name]
            )
            k = expr[3]
            if 2 * definite > k:
                majority: Optional[int] = 1
            elif 2 * possible <= k:
                majority = 0
            else:
                return None
            comparison = "eq_const" if op == "eq_majority" else "ne_const"
            return self._abstract((comparison, expr[1], majority), env)
        if op == "not":
            verdict = self._abstract(expr[1], env)
            return None if verdict is None else not verdict
        verdicts = [self._abstract(sub, env) for sub in expr[1:]]
        if op == "and":
            if any(v is False for v in verdicts):
                return False
            if all(v is True for v in verdicts):
                return True
            return None
        if any(v is True for v in verdicts):
            return True
        if all(v is False for v in verdicts):
            return False
        return None


def _render_assignment(names: Sequence[str], values: Sequence) -> str:
    if not names:
        return "any state"
    body = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
    return f"{body} (other variables arbitrary)"


# -- exact plan frames ---------------------------------------------------------

@dataclass(frozen=True)
class PlanTable:
    """A joint guard+effect evaluation over the plan's support product.

    ``rows`` holds, for every assignment of the support variables, the
    guard's verdict and the post-state of the support variables (effects
    never touch anything outside the support, so this is the plan's
    complete behaviour up to carried variables).
    """

    names: Tuple[str, ...]
    assignments: Tuple[Tuple, ...]
    enabled: Tuple[bool, ...]
    finals: Tuple[Optional[Tuple], ...]


def plan_frame_table(
    plan: Plan, domains: Dict[str, Tuple], budget: int = 1 << 16
) -> Optional[PlanTable]:
    """The plan's behaviour table, or ``None`` when a support variable
    has no domain or the support product exceeds ``budget``."""
    names = tuple(sorted(plan_support(plan)))
    doms = []
    size = 1
    for name in names:
        domain = domains.get(name)
        if not domain:
            return None
        doms.append(tuple(domain))
        size *= len(domain)
        if size > budget:
            return None
    index = {name: i for i, name in enumerate(names)}
    guard = _compile_guard_pure(plan.guard, index)
    effects = _compile_effects_pure(plan, index)
    assignments = tuple(itertools.product(*doms)) if names else ((),)
    enabled: List[bool] = []
    finals: List[Optional[Tuple]] = []
    for values in assignments:
        if guard is None or guard(values):
            enabled.append(True)
            finals.append(effects(values))
        else:
            enabled.append(False)
            finals.append(None)
    return PlanTable(names, assignments, tuple(enabled), tuple(finals))


def _exact_writes(table: PlanTable) -> Dict[str, int]:
    """``variable -> witness row index`` for every variable some enabled
    row observably changes."""
    writes: Dict[str, int] = {}
    for row, (values, on, final) in enumerate(
        zip(table.assignments, table.enabled, table.finals)
    ):
        if not on:
            continue
        for position, name in enumerate(table.names):
            if name not in writes and final[position] != values[position]:
                writes[name] = row
    return writes


def _exact_reads(
    table: PlanTable, writes: FrozenSet[str]
) -> Dict[str, Tuple[int, int]]:
    """``variable -> (row a, row b)`` witness pairs for every variable
    the plan's behaviour depends on.

    Two assignments differing only in ``v`` must exhibit the same
    behaviour for ``v`` to be unread: equal guard verdicts and, when
    enabled, equal post-states — compared under the memo's contract
    (``v`` written: full post-states match; ``v`` unwritten: post-states
    match outside ``v``, the old value merely rides along).
    """
    reads: Dict[str, Tuple[int, int]] = {}
    for position, name in enumerate(table.names):
        masked = name not in writes

        def behaviour(row: int) -> Tuple:
            final = table.finals[row]
            if final is None:
                return (False, None)
            if masked:
                final = final[:position] + final[position + 1:]
            return (True, final)

        groups: Dict[Tuple, int] = {}
        for row, values in enumerate(table.assignments):
            group = values[:position] + values[position + 1:]
            first = groups.setdefault(group, row)
            if first != row and behaviour(first) != behaviour(row):
                reads[name] = (first, row)
                break
    return reads


# -- per-action analysis -------------------------------------------------------

@dataclass(frozen=True)
class GuardFacts:
    """Proven facts :func:`check_guards` can consume instead of probing.

    ``None`` fields are *undecided* (fall back to probing); boolean
    fields are proofs either way.
    """

    satisfiable: Optional[bool] = None
    changes_state: Optional[bool] = None


@dataclass(frozen=True)
class ActionAnalysis:
    """Everything the symbolic analyzer established about one action.

    ``translation`` is one of ``unplanned`` (no plan — nothing to
    analyze), ``uncompilable`` (plan does not fit the schema, DC512),
    ``failed`` (the interpreted action raised, DC001), ``refuted``
    (plan and interpretation disagree, DC511), ``proven`` (full-space
    sweep), or ``decomposed`` (per-variable decomposition on an
    oversized space).  ``reads``/``writes`` are the plan's exact frame
    when the support table fit the budget; ``covers_frames`` /
    ``covers_guards`` tell the linter whether the probe-based rules may
    be skipped for this action.
    """

    action: str
    translation: str
    diagnostics: Tuple[Diagnostic, ...] = ()
    proofs: Tuple[Proof, ...] = ()
    reads: Optional[FrozenSet[str]] = None
    writes: Optional[FrozenSet[str]] = None
    satisfiable: Optional[bool] = None
    changes_state: Optional[bool] = None
    covers_frames: bool = False
    covers_guards: bool = False

    @property
    def validated(self) -> bool:
        return self.translation in ("proven", "decomposed")

    def guard_facts(self) -> GuardFacts:
        return GuardFacts(
            satisfiable=self.satisfiable,
            changes_state=self.changes_state,
        )


#: action -> {memo key: target-free verdict}.  Holds the symbolic
#: analyses and the linter's probe-based frame verdicts; neither key
#: names a target, so a composed program reuses the verdicts of every
#: action it shares with a program linted before it.
_ANALYSES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def clear_symbolic_caches() -> None:
    """Drop memoized truth tables and per-action verdicts.  Wired into
    :func:`repro.core.exploration.clear_all_caches` so cold runs redo
    symbolic work like any other cache miss."""
    _TRUTH_TABLES.clear()
    _ANALYSES.clear()


def memoized(action: Action, key: Tuple, compute: Callable[[], object]):
    """``compute()``, run once per action object and ``key`` until the
    caches are cleared (see ``_ANALYSES``)."""
    memo = _ANALYSES.get(action)
    if memo is None:
        memo = _ANALYSES[action] = {}
    found = memo.get(key)
    if found is None:
        found = memo[key] = compute()
    return found


def variables_material(variables: Sequence[Variable]) -> Tuple:
    """Each variable's name and domain, in declaration order."""
    return tuple(store_keys._variable_material(v) for v in variables)


def analysis_material(
    variables: Sequence[Variable], kind: str, config
) -> Tuple:
    """What an analysis depends on besides the action itself: the
    variables, the ``kind`` label its messages use, and the symbolic
    budgets.  The in-process memo pairs it with the action's identity
    and the certificate store with the action's content, so both reuse
    an analysis under exactly the same conditions."""
    return (
        variables_material(variables),
        kind,
        (config.solver_budget, config.translation_limit,
         config.translation_samples, config.seed),
    )


def restamp(records: Iterable, target: str) -> Tuple:
    """Copies of diagnostics or proofs labelled with ``target``."""
    return tuple(replace(r, target=target) for r in records)


def _retarget(analysis: ActionAnalysis, target: str) -> ActionAnalysis:
    """The analysis labelled with ``target``.  Analyses are shared
    across targets (in process and through the store), so the label is
    stamped on the way out of either cache."""
    return replace(
        analysis,
        diagnostics=restamp(analysis.diagnostics, target),
        proofs=restamp(analysis.proofs, target),
    )


def _successor_tuple(
    action: Action, state: State
) -> Tuple[Tuple[Tuple, ...], Optional[Tuple]]:
    """Interpreted successors as values-tuples, plus what a
    deterministic plan would have to return (``None`` for disabled)."""
    successors = tuple(
        s.values_tuple for s in raw_successors(action, state)
    )
    if not successors:
        return successors, None
    return successors, successors[0]


def _translation_mismatch(
    action: Action,
    state_values: Tuple,
    expected: Tuple[Tuple, ...],
    got: Optional[Tuple],
    names: Tuple[str, ...],
    sampled: bool,
) -> Diagnostic:
    def render(values: Optional[Tuple]) -> str:
        if values is None:
            return "disabled"
        return "{" + ", ".join(
            f"{n}={v!r}" for n, v in zip(names, values)
        ) + "}"

    if len(expected) > 1:
        interpreted = f"{len(expected)} successors (nondeterministic)"
    elif expected:
        interpreted = render(expected[0])
    else:
        interpreted = "disabled"
    return Diagnostic(
        code="DC511",
        severity=Severity.ERROR,
        rule=RULE_TRANSLATION,
        message=(
            f"plan of action {action.name!r} disagrees with its "
            f"interpreted guard/statement at {render(state_values)}: "
            f"plan yields {render(got)}, interpretation yields "
            f"{interpreted}"
        ),
        action=action.name,
        evidence=f"{render(state_values)}: plan {render(got)} vs "
                 f"interpreted {interpreted}",
        hint="the plan is a claim about the action; regenerate it from "
             "the guard/statement or fix whichever drifted",
        sampled=sampled,
    )


def _validate_translation(
    action: Action,
    kernel: Callable,
    variables: Sequence[Variable],
    schema,
    space_size: int,
    config,
) -> Tuple[str, List[Diagnostic]]:
    """Prove (or refute) plan ≡ interpreted action.

    Small spaces get the full sweep — a proof.  Oversized spaces get a
    sound-for-the-plan decomposition: the full product over the plan's
    support variables is swept in a handful of base contexts, and every
    non-support variable is swept one at a time — exactly the
    single-variable-chain argument the frame rule relies on, so a plan
    that consults or clobbers an undeclared variable is still caught.
    """
    names = schema.names
    limit = getattr(config, "translation_limit", 1 << 16)
    failure: Optional[Diagnostic] = None

    def check(state: State, sampled: bool) -> Optional[Diagnostic]:
        nonlocal failure
        try:
            expected, single = _successor_tuple(action, state)
        except Exception as exc:
            failure = Diagnostic(
                code="DC001",
                severity=Severity.ERROR,
                rule=RULE_TRANSLATION,
                message=(
                    f"guard or statement of {action.name!r} raised "
                    f"{type(exc).__name__}: {exc}"
                ),
                action=action.name,
                evidence=repr(state),
                hint="guards and statements must be total on the full "
                     "Cartesian state space",
            )
            return failure
        got = kernel(state.values_tuple)
        if got != single or len(expected) > 1:
            return _translation_mismatch(
                action, state.values_tuple, expected, got,
                names, sampled,
            )
        return None

    if space_size <= limit:
        for state in state_space(variables):
            found = check(state, sampled=False)
            if found is not None:
                status = "failed" if found is failure else "refuted"
                return status, [found]
        return "proven", []

    # -- decomposition on an oversized space -------------------------------
    domains = [tuple(v.domain) for v in variables]
    positions = {name: i for i, name in enumerate(names)}
    support = sorted(
        plan_support(action.plan) & set(names), key=positions.__getitem__
    )
    support_positions = [positions[n] for n in support]
    support_product = 1
    for p in support_positions:
        support_product *= len(domains[p])
    rng = random.Random(config.seed)
    contexts = [
        tuple(d[0] for d in domains),
        tuple(d[-1] for d in domains),
    ]
    for _ in range(getattr(config, "translation_samples", 4)):
        contexts.append(tuple(rng.choice(d) for d in domains))

    budget = getattr(config, "solver_budget", 1 << 16)
    for context in contexts:
        if support_product <= budget:
            for combo in itertools.product(
                *(domains[p] for p in support_positions)
            ):
                values = list(context)
                for p, v in zip(support_positions, combo):
                    values[p] = v
                found = check(_state_of(schema, tuple(values)), sampled=True)
                if found is not None:
                    status = "failed" if found is failure else "refuted"
                    return status, [found]
        # sweep every non-support variable one at a time: a plan that
        # ignores a variable the interpretation consults shows up here
        for p, domain in enumerate(domains):
            if p in support_positions:
                continue
            for value in domain:
                values = list(context)
                values[p] = value
                found = check(_state_of(schema, tuple(values)), sampled=True)
                if found is not None:
                    status = "failed" if found is failure else "refuted"
                    return status, [found]
    return "decomposed", []


def _subexpression_diagnostics(
    solver: GuardSolver,
    guard: Tuple,
    action: Action,
    root_satisfiable: Optional[bool],
) -> List[Diagnostic]:
    """``DC501`` (dead sub-expression) / ``DC502`` (tautological
    sub-expression or non-literal tautological guard).

    Walks top-down and does not descend into an already-flagged
    sub-expression, so one dead disjunct yields one finding, not one
    per literal inside it.
    """
    diagnostics: List[Diagnostic] = []
    flagged: set = set()

    def visit(expr: Tuple, is_root: bool) -> None:
        op = expr[0]
        if op == "true" or expr in flagged:
            return
        if not is_root or op in ("and", "or", "not"):
            satisfiable = solver.satisfiable(expr)
            if satisfiable is False and not is_root and root_satisfiable:
                flagged.add(expr)
                diagnostics.append(Diagnostic(
                    code="DC501",
                    severity=Severity.WARNING,
                    rule=RULE_GUARDS,
                    message=(
                        f"guard sub-expression {expr!r} of action "
                        f"{action.name!r} is unsatisfiable: the branch "
                        f"is dead code"
                    ),
                    action=action.name,
                    hint="check the comparison against the variable "
                         "domains; an always-false conjunct usually "
                         "means a typo",
                ))
                return
            if solver.tautological(expr) is True:
                flagged.add(expr)
                where = "guard" if is_root else "guard sub-expression"
                diagnostics.append(Diagnostic(
                    code="DC502",
                    severity=Severity.INFO,
                    rule=RULE_GUARDS,
                    message=(
                        f"{where} {expr!r} of action {action.name!r} is "
                        f"tautological"
                        + ("" if is_root else
                           "; it never constrains the guard")
                    ),
                    action=action.name,
                    hint="drop the redundant test (or write ('true',) "
                         "if the action is meant to be always enabled)",
                ))
                return
        if op in ("and", "or"):
            for sub in expr[1:]:
                visit(sub, False)
        elif op == "not":
            visit(expr[1], False)

    visit(guard, True)
    return diagnostics


def _frame_diagnostics(
    action: Action,
    table: PlanTable,
    variable_names: FrozenSet[str],
    satisfiable: bool,
) -> Tuple[List[Diagnostic], List[Proof], FrozenSet[str], FrozenSet[str]]:
    """Exact DC101/DC102/DC103/DC104/DC105 from the plan table."""
    diagnostics: List[Diagnostic] = []
    proofs: List[Proof] = []
    write_rows = _exact_writes(table)
    exact_writes = frozenset(write_rows)
    read_rows = _exact_reads(table, exact_writes)
    exact_reads = frozenset(read_rows)
    targets = frozenset(plan_targets(action.plan))

    def row_evidence(row: int) -> str:
        return _render_assignment(table.names, table.assignments[row])

    if action.reads is None and action.writes is None:
        diagnostics.append(Diagnostic(
            code="DC103",
            severity=Severity.INFO,
            rule=RULE_FRAMES,
            message=(
                f"action {action.name!r} declares no reads/writes frame; "
                "the successor memo stays off"
            ),
            action=action.name,
            hint="declare reads={%s}, writes={%s} (exact, from the plan)"
                 % (", ".join(repr(n) for n in sorted(exact_reads)),
                    ", ".join(repr(n) for n in sorted(exact_writes))),
        ))
        return diagnostics, proofs, exact_reads, exact_writes

    if action.reads is None or action.writes is None:
        missing = "reads" if action.reads is None else "writes"
        diagnostics.append(Diagnostic(
            code="DC104",
            severity=Severity.WARNING,
            rule=RULE_FRAMES,
            message=(
                f"action {action.name!r} declares "
                f"{'writes' if missing == 'reads' else 'reads'} but not "
                f"{missing}; the successor memo needs both and is disabled"
            ),
            action=action.name,
            hint=f"declare {missing} as well (or drop the frame entirely)",
        ))
        return diagnostics, proofs, exact_reads, exact_writes

    unknown = (action.reads | action.writes) - variable_names
    if unknown:
        diagnostics.append(Diagnostic(
            code="DC105",
            severity=Severity.ERROR,
            rule=RULE_FRAMES,
            message=(
                f"frame of {action.name!r} names unknown variable(s) "
                f"{sorted(unknown)}"
            ),
            action=action.name,
            variables=tuple(sorted(unknown)),
            hint="frames may only name the program's variables",
        ))

    for name in sorted(exact_writes - action.writes):
        diagnostics.append(Diagnostic(
            code="DC102",
            severity=Severity.ERROR,
            rule=RULE_FRAMES,
            message=(
                f"action {action.name!r} writes {name!r} which is "
                f"outside its declared writes frame (proven from the "
                f"plan IR)"
            ),
            action=action.name,
            variables=(name,),
            evidence=row_evidence(write_rows[name]),
            hint=f"add {name!r} to writes",
        ))

    for name in sorted(exact_reads - action.reads):
        row_a, row_b = read_rows[name]
        a = table.assignments[row_a]
        b = table.assignments[row_b]
        position = table.names.index(name)
        diagnostics.append(Diagnostic(
            code="DC101",
            severity=Severity.ERROR,
            rule=RULE_FRAMES,
            message=(
                f"action {action.name!r} depends on {name!r} which is "
                f"outside its declared reads frame: "
                f"{name}={a[position]!r} vs {name}={b[position]!r} "
                f"behave differently (proven from the plan IR)"
            ),
            action=action.name,
            variables=(name,),
            evidence=row_evidence(row_a),
            hint=f"add {name!r} to reads",
        ))

    # a variable declared written but never assigned by an effect is not
    # overwritten when the action fires: the memo would mask it, yet the
    # old value survives into the successor — the masked-perturbation
    # violation, decided statically
    if satisfiable:
        for name in sorted(
            (action.writes - action.reads) - targets - exact_reads
        ):
            if name not in variable_names:
                continue
            diagnostics.append(Diagnostic(
                code="DC101",
                severity=Severity.ERROR,
                rule=RULE_FRAMES,
                message=(
                    f"action {action.name!r} declares {name!r} written "
                    f"but no effect ever assigns it: the successor memo "
                    f"would mask a variable that is carried through "
                    f"(proven from the plan IR)"
                ),
                action=action.name,
                variables=(name,),
                hint=f"drop {name!r} from writes (or add an effect that "
                     f"assigns it)",
            ))

    if not any(d.severity is Severity.ERROR for d in diagnostics):
        proofs.append(Proof(
            rule=RULE_FRAMES,
            method="ir-exact",
            detail=(
                f"declared frame covers the exact IR frame "
                f"(reads={sorted(exact_reads)}, "
                f"writes={sorted(exact_writes)}) on the full space"
            ),
            action=action.name,
        ))
    return diagnostics, proofs, exact_reads, exact_writes


def analyze_action(
    action: Action,
    variables: Sequence[Variable],
    schema,
    target: str = "",
    kind: str = "action",
    config=None,
) -> ActionAnalysis:
    """The full symbolic verdict for one action, labelled ``target``.

    Actions without a plan (or whose plan fails translation validation)
    come back with ``covers_frames``/``covers_guards`` False and the
    linter falls back to the differential probe for them.

    Memoized per action object on :func:`analysis_material`, not on the
    target: an action shared by several programs over the same
    variables is analyzed once.  ``schema`` must be the schema of
    ``variables``.
    """
    from .linter import LintConfig

    config = config or LintConfig()
    plan = getattr(action, "plan", None)
    if plan is None or getattr(action, "_base", None) is not None:
        return ActionAnalysis(action=action.name, translation="unplanned")

    analysis = memoized(
        action,
        ("analysis",) + analysis_material(variables, kind, config),
        lambda: _analyze_uncached(action, plan, variables, schema, kind,
                                  config),
    )
    return _retarget(analysis, target)


def _analyze_uncached(
    action: Action,
    plan: Plan,
    variables: Sequence[Variable],
    schema,
    kind: str,
    config,
) -> ActionAnalysis:
    domains = {v.name: tuple(v.domain) for v in variables}
    diagnostics: List[Diagnostic] = []
    proofs: List[Proof] = []

    kernel = row_kernel(action, schema, domains)
    if kernel is None:
        diagnostics.append(Diagnostic(
            code="DC512",
            severity=Severity.WARNING,
            rule=RULE_TRANSLATION,
            message=(
                f"plan of {kind} {action.name!r} does not compile for "
                f"this schema; kernels fall back to interpretation and "
                f"nothing was proven about it"
            ),
            action=action.name,
            hint="the plan names an unknown variable or a value outside "
                 "its domain; fix the plan or the declared domains",
        ))
        return ActionAnalysis(
            action=action.name, translation="uncompilable",
            diagnostics=tuple(diagnostics),
        )

    space_size = 1
    for variable in variables:
        space_size *= len(variable.domain)
    status, translation_diags = _validate_translation(
        action, kernel, variables, schema, space_size, config
    )
    diagnostics.extend(translation_diags)
    if status in ("refuted", "failed"):
        return ActionAnalysis(
            action=action.name, translation=status,
            diagnostics=tuple(diagnostics),
        )
    proofs.append(Proof(
        rule=RULE_TRANSLATION,
        method="exhaustive" if status == "proven" else "decomposed",
        detail=(
            f"plan agrees with the interpreted guard/statement on "
            + (f"all {space_size} states"
               if status == "proven" else
               f"the support product and single-variable sweeps of a "
               f"{space_size}-state space")
        ),
        action=action.name,
    ))

    solver = GuardSolver(domains, budget=config.solver_budget)
    satisfiable = solver.satisfiable(plan.guard)
    variable_names = frozenset(domains)

    if satisfiable is False:
        diagnostics.append(Diagnostic(
            code="DC301",
            severity=Severity.ERROR,
            rule=RULE_GUARDS,
            message=(
                f"guard of {kind} {action.name!r} is unsatisfiable: "
                f"the action is dead code (proven from the plan IR)"
            ),
            action=action.name,
            hint="check the guard against the variable domains",
        ))
    elif satisfiable is True:
        witness = solver.witness(plan.guard)
        detail = "guard is satisfiable"
        if witness is not None:
            detail += ": " + _render_assignment(
                tuple(witness), tuple(witness.values())
            )
        proofs.append(Proof(
            rule=RULE_GUARDS,
            method="solver",
            detail=detail,
            action=action.name,
        ))
    diagnostics.extend(_subexpression_diagnostics(
        solver, plan.guard, action, satisfiable
    ))

    table = plan_frame_table(plan, domains, budget=config.solver_budget)
    reads: Optional[FrozenSet[str]] = None
    writes: Optional[FrozenSet[str]] = None
    changes_state: Optional[bool] = None
    covers_frames = False
    if table is not None:
        changes_state = any(
            on and final != values
            for values, on, final in zip(
                table.assignments, table.enabled, table.finals
            )
        )
        if satisfiable and changes_state is False:
            diagnostics.append(Diagnostic(
                code="DC303",
                severity=Severity.INFO,
                rule=RULE_GUARDS,
                message=(
                    f"{kind} {action.name!r} is enabled but never "
                    f"changes the state (proven from the plan IR: "
                    f"self-loops only)"
                ),
                action=action.name,
                hint="a pure stutter action; drop it unless the "
                     "self-loop is intentional",
            ))
        frame_diags, frame_proofs, reads, writes = _frame_diagnostics(
            action, table, variable_names, bool(satisfiable)
        )
        diagnostics.extend(frame_diags)
        proofs.extend(frame_proofs)
        covers_frames = True

    return ActionAnalysis(
        action=action.name,
        translation=status,
        diagnostics=tuple(diagnostics),
        proofs=tuple(proofs),
        reads=reads,
        writes=writes,
        satisfiable=satisfiable,
        changes_state=changes_state,
        covers_frames=covers_frames,
        covers_guards=satisfiable is not None,
    )
