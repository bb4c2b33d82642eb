"""Kernel/interpreted parity and code-space census pins.

The exploration core runs the same BFS through three engines — the
all-array columnar engine, the level engine (compiled kernels where
actions have them: :func:`~repro.core.kernels.code_kernel` over packed
codes on numpy, row closures on pure; interpreted ``successors``
elsewhere), and the interpreted scalar oracle — with one contract:
which engine ran must be unobservable from the finished
:class:`~repro.core.exploration.TransitionSystem`.  These tests pin that
contract over the bundled program families (programs *and* their fault
builders), under symmetry quotients, on a hand-built program that uses
every Plan op, and on the inputs that take the level engine's
uncompiled paths (a fully unplanned program, mixed-schema starts, no
starts, unplanned faults that repeat a successor or add a variable), by
comparing full graph fingerprints (state order, edge tuples, deadlocks)
against the interpreted reference.

:func:`~repro.core.kernels.explore_codes` has no interpreted twin (it
exists for spaces where ``State`` objects are not an option), so it is
pinned two ways: exact closed-form census counts, and agreement with
the State-object explorer on instances small enough to run both.
"""

from __future__ import annotations

import pytest

from repro.core import Action, Predicate, Program, assign, choose, kernels
from repro.core.exploration import TransitionSystem, clear_all_caches
from repro.core.kernels import KernelError, Plan, explore_codes
from repro.core.state import State, Variable, state_space
from repro.programs import (
    byzantine,
    memory_access,
    mutual_exclusion,
    tmr,
    token_ring,
)


@pytest.fixture(autouse=True)
def _restore_kernel_globals():
    yield
    kernels.set_backend("auto")
    clear_all_caches()


def _graph(ts: TransitionSystem):
    """Full fingerprint: state discovery order, per-state edge tuples
    (program and fault), and deadlocks.  Two systems with equal
    fingerprints are indistinguishable to every checker."""
    states = tuple(ts.states)
    return (
        states,
        tuple(tuple(ts.program_edges_from(s)) for s in states),
        tuple(tuple(ts.fault_edges_from(s)) for s in states),
        tuple(ts.deadlock_states()),
    )


def _majority(s) -> int:
    return 1 if 2 * (s["m0"] + s["m1"] + s["m2"]) > 3 else 0


def _planned(name, guard, statement, plan_guard, plan_effects):
    return Action(
        name, Predicate(guard, name=name), statement,
        plan=Plan(plan_guard, plan_effects),
    )


def plan_ops_model():
    """``(program, starts, planned faults)`` of a hand-built program whose
    plans use every guard op and every effect op, including ``eq_var``/
    ``ne_var``/``copy`` across different domains (``y``'s domain orders
    ``x``'s values differently and adds one, so the numpy kernels
    translate ranks through a lookup table), constant-true and
    constant-false sub-guards, and two effects on one variable (the last
    wins).  Its space has 3·3·2·3·2³ = 432 states, above the bound under
    which nothing is compiled."""
    variables = [
        Variable("a", range(3)), Variable("b", range(3)),
        Variable("x", (0, 1)), Variable("y", (2, 1, 0)),
        Variable("m0", (0, 1)), Variable("m1", (0, 1)),
        Variable("m2", (0, 1)),
    ]
    voters = ("m0", "m1", "m2")
    actions = [
        _planned(
            "tick", lambda s: True, assign(a=lambda s: (s["a"] + 1) % 3),
            ("true",), [("inc_mod", "a", "a", 3)],
        ),
        _planned(
            "follow", lambda s: s["a"] == 0 or s["a"] != s["b"],
            assign(b=lambda s: s["a"], m2=0),
            ("or", ("eq_const", "a", 0), ("ne_var", "a", "b"),
             ("not", ("true",))),
            [("copy", "b", "a"), ("set_const", "m2", 0)],
        ),
        _planned(
            "lift", lambda s: s["y"] == s["x"] and s["b"] != 2,
            assign(y=2, b=lambda s: (s["b"] + 1) % 3),
            ("and", ("true",), ("eq_var", "y", "x"),
             ("not", ("eq_const", "b", 2))),
            [("set_const", "y", 2), ("inc_mod", "b", "b", 3)],
        ),
        _planned(
            "drop", lambda s: s["y"] != s["x"] and s["x"] != 1,
            assign(y=lambda s: s["x"], x=1),
            ("and", ("ne_var", "y", "x"), ("ne_const", "x", 1)),
            [("copy", "y", "x"), ("set_const", "x", 1)],
        ),
        _planned(
            "vote", lambda s: s["x"] != _majority(s),
            assign(x=_majority, m1=0),
            ("ne_majority", "x", voters, 3),
            [("set_majority", "x", voters, 3), ("set_const", "m1", 1),
             ("set_const", "m1", 0)],
        ),
        _planned(
            "rally",
            lambda s: s["y"] == _majority(s) or (
                s["m0"] != 1 and s["m1"] != 1
            ),
            assign(m0=1),
            ("or", ("eq_majority", "y", voters, 3),
             ("all_ne_const", ("m0", "m1"), 1)),
            [("set_const", "m0", 1)],
        ),
        _planned(
            "wake", lambda s: True, assign(m1=1),
            ("or", ("eq_const", "a", 1), ("true",)),
            [("set_const", "m1", 1)],
        ),
    ]
    faults = (
        _planned(
            "jolt", lambda s: s["m2"] != 1,
            assign(m2=1, a=lambda s: s["b"]),
            ("not", ("eq_const", "m2", 1)),
            [("set_const", "m2", 1), ("copy", "a", "b")],
        ),
    )
    program = Program(variables, actions, name="plan_ops")
    start = State(a=0, b=0, x=0, y=0, m0=0, m1=0, m2=0)
    return program, [start], faults


def _scenarios():
    """(name, program, starts, faults, symmetric) over the bundled
    families: planned actions, unplanned actions (byzantine lies),
    fault builders, and a symmetry quotient are all represented, as are
    the inputs no kernel is compiled for."""
    ring = token_ring.build(4)
    yield (
        "token_ring",
        ring.ring,
        list(state_space(ring.ring.variables)),
        tuple(ring.faults.actions),
        False,
    )
    ring54 = token_ring.build(5, 4)
    yield (
        "token_ring_sym",
        ring54.ring,
        list(state_space(ring54.ring.variables)),
        tuple(ring54.faults.actions),
        True,
    )
    byz = byzantine.build()
    yield ("byzantine_ib", byz.ib, byzantine.initial_states(), (), False)
    yield (
        "byzantine_masking",
        byz.masking,
        byzantine.initial_states(),
        tuple(byz.faults.actions),
        False,
    )
    t = tmr.build()
    yield (
        "tmr",
        t.tmr,
        list(state_space(t.tmr.variables)),
        tuple(t.faults.actions),
        False,
    )
    mem = memory_access.build()
    yield (
        "memory_access",
        mem.p,
        list(state_space(mem.p.variables)),
        tuple(mem.fault_anytime.actions),
        False,
    )
    # above the small-space bound, yet no action has a Plan
    mutex = mutual_exclusion.build()
    yield (
        "mutex_unplanned",
        mutex.multitolerant,
        list(state_space(mutex.multitolerant.variables)),
        tuple(mutex.faults.actions),
        False,
    )
    # one start state carries a variable the program does not declare
    ring_states = list(state_space(ring.ring.variables))
    yield (
        "token_ring_mixed_schema",
        ring.ring,
        ring_states[:8] + [State(**dict(ring_states[0]), aux=0)],
        tuple(ring.faults.actions),
        False,
    )
    yield ("token_ring_no_starts", ring.ring, [], tuple(ring.faults.actions),
           False)
    # every Plan op, once fully planned (the columnar engine on numpy)
    # and once with an unplanned fault (the level engine)
    ops, ops_starts, ops_faults = plan_ops_model()
    yield ("plan_ops", ops, ops_starts, ops_faults, False)
    yield (
        "plan_ops_unplanned_fault",
        ops,
        ops_starts,
        ops_faults + (
            Action("scramble", Predicate(lambda s: s["x"] == 1),
                   choose(assign(x=0), assign(y=0))),
        ),
        False,
    )
    # unplanned faults: one offers the same successor twice, one adds a
    # variable, so later levels mix schemas although the starts do not
    no_aux = Predicate(lambda s: "aux" not in s, name="no aux")
    yield (
        "token_ring_unplanned_faults",
        ring.ring,
        ring_states[:16],
        (
            Action("reset_twice", no_aux,
                   choose(assign(x0=0), assign(x0=0))),
            Action("add_aux", no_aux, lambda s: State(**dict(s), aux=0)),
        ),
        False,
    )


SCENARIOS = {name: rest for name, *rest in _scenarios()}


def _explored(name: str, backend: str):
    program, starts, faults, symmetric = SCENARIOS[name]
    kernels.set_backend(backend)
    try:
        return _graph(
            TransitionSystem(program, starts, faults, symmetric=symmetric)
        )
    finally:
        kernels.set_backend("auto")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("backend", ["auto", "numpy", "pure"])
def test_kernel_backends_match_interpreted(name, backend):
    """Every compiled engine produces the interpreted engine's graph,
    bit for bit, on every bundled scenario."""
    assert _explored(name, backend) == _explored(name, "interpreted")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_only_the_interpreted_oracle_lacks_id_rows(name):
    """The certificate store records a system from its dense-id rows, so
    every engine but the interpreted oracle must leave them behind."""
    program, starts, faults, symmetric = SCENARIOS[name]
    for backend in ("auto", "pure", "interpreted"):
        kernels.set_backend(backend)
        ts = TransitionSystem(program, starts, faults, symmetric=symmetric)
        assert (ts._labeled_rows is None) == (backend == "interpreted")


# ---------------------------------------------------------------------------
# code-space census
# ---------------------------------------------------------------------------

def test_explore_codes_full_space_census():
    """The ``"all"`` selector synthesizes the whole code space as level
    zero: 4^5 = 1024 ring states, one level, and the program's exact
    edge count."""
    model = token_ring.build(5, 4)
    reach = explore_codes(model.ring, "all")
    assert (reach.states, reach.levels) == (4 ** 5, 1)
    ts = TransitionSystem(
        model.ring, list(state_space(model.ring.variables))
    )
    assert reach.edges == sum(
        len(ts.program_edges_from(s)) for s in ts.states
    )


def test_explore_codes_matches_state_explorer():
    """From the same starts and faults, the code-space census agrees
    with the State-object explorer on states and edges."""
    model = token_ring.build(5, 4)
    starts = [next(iter(state_space(model.ring.variables)))]
    faults = tuple(model.faults.actions)
    reach = explore_codes(model.ring, starts, faults)
    ts = TransitionSystem(model.ring, starts, faults)
    assert reach.states == len(ts.states)
    assert reach.edges == sum(
        len(ts.program_edges_from(s)) + len(ts.fault_edges_from(s))
        for s in ts.states
    )


def test_plan_ops_engines_and_census():
    """The all-ops program takes the columnar engine when every action is
    planned and the level engine (with numpy code kernels) when a fault
    is not; the code-space census counts the explorer's states."""
    program, starts, faults = SCENARIOS["plan_ops"][:3]
    kernels.set_backend("numpy")
    columnar = TransitionSystem(program, starts, faults)
    assert columnar._edge_arrays is not None
    assert explore_codes(program, starts, faults).states == len(
        columnar.states
    )
    assert len(columnar.states) > 128
    clear_all_caches()
    program, starts, faults = SCENARIOS["plan_ops_unplanned_fault"][:3]
    level = TransitionSystem(program, starts, faults)
    assert level._edge_arrays is None
    assert all(a in kernels._CODE_KERNELS for a in program.actions)


def test_explore_codes_byzantine_family_census():
    """The k=3 agreement program from its initial states: 2·3^3 = 54
    protocol configurations (per general value, each non-general's
    (d, out) pair walks bottom-bottom, v-bottom, v-v)."""
    ngs = (1, 2, 3)
    model = byzantine.build_family(ngs)
    reach = explore_codes(model.ib, byzantine.initial_states(ngs))
    assert reach.states == 2 * 3 ** 3


def test_explore_codes_rejects_unknown_selector():
    model = token_ring.build(4)
    with pytest.raises(KernelError):
        explore_codes(model.ring, "everything")


def test_explore_codes_requires_plans():
    """No interpreted fallback: an unplanned action is a hard error,
    not a silent downgrade."""
    model = byzantine.build()  # BYZ lie actions are deliberately unplanned
    with pytest.raises(KernelError):
        explore_codes(model.masking, byzantine.initial_states())


# ---------------------------------------------------------------------------
# plan validation and cache hygiene
# ---------------------------------------------------------------------------

def test_malformed_plan_raises_kernel_error():
    """Plans validate their IR at construction — a typo'd op never
    reaches a kernel compiler."""
    with pytest.raises(KernelError):
        Plan(("no_such_op", "x0"), [("set_const", "x0", 0)])
    with pytest.raises(KernelError):
        Plan(("true",), [("no_such_effect", "x0", 0)])


def test_clear_all_caches_drains_kernel_memos():
    model = token_ring.build(4)
    schema = next(iter(state_space(model.ring.variables)))._schema
    layout = kernels.layout_for(schema, model.ring._domains)
    action = model.ring.actions[0]
    assert kernels.code_kernel(action, layout) is not None
    assert kernels.row_kernel(action, schema, model.ring._domains) is not None
    assert len(kernels._CODE_KERNELS) > 0
    assert len(kernels._ROW_KERNELS) > 0
    clear_all_caches()
    assert len(kernels._CODE_KERNELS) == 0
    assert len(kernels._ROW_KERNELS) == 0
    assert len(kernels._LAYOUTS) == 0


# ---------------------------------------------------------------------------
# columnar adoption
# ---------------------------------------------------------------------------

def test_columnar_engine_stashes_edge_arrays():
    """On an eligible scenario the all-array engine records the dense
    adjacency (``_edge_arrays``/``_labeled_rows``) that SystemIndex
    adopts instead of re-deriving ids from State-level edges."""
    from repro.core.regions import system_index

    model = token_ring.build(5, 4)
    kernels.set_backend("numpy")
    ts = TransitionSystem(
        model.ring,
        list(state_space(model.ring.variables)),
        tuple(model.faults.actions),
    )
    assert ts._edge_arrays is not None
    assert ts._labeled_rows is not None
    index = system_index(ts)
    assert index.n == len(ts.states)
    # the adopted CSR agrees with the State-level edge tables
    id_of = {s: i for i, s in enumerate(ts.states)}
    states = list(ts.states)
    for u, targets in enumerate(index.psucc):
        expected = list(dict.fromkeys(
            id_of[v] for _, v in ts.program_edges_from(states[u])
        ))
        assert list(targets) == expected
