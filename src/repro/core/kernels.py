"""Compiled successor kernels: whole-frontier action evaluation.

Exploration cost in this library is dominated by ``Action.successors``
— an interpreted Python round trip (guard predicate, statement closure,
``State`` allocation, hash) per *(state, action)* pair.  This module
compiles actions whose authors declare a :class:`Plan` — a flat
positional description of the guard and the assignment — into kernels
of two shapes:

- the **numpy backend** (:func:`code_kernel`) evaluates one action over
  a whole frontier held as packed mixed-radix ``int64`` codes plus their
  ``(vars, N)`` matrix of domain *ranks* (a value's position in its
  declared domain): guards are vectorized column arithmetic, and each
  successor code is its source code plus a stride delta per written
  variable, so interning and dedup work on codes directly;
- the **pure backend** (:func:`row_kernel`) compiles the same plan into
  a per-row closure over raw values-tuples (the ``values_builder``
  protocol the region engine and :class:`~repro.core.predicate.Predicate`
  already speak) — no arrays, no numpy, same semantics;
- actions without a plan (or whose plan does not fit a schema) simply
  fall back to the interpreted ``successors`` path inside the level
  engine's BFS, so kernels are an accelerator, never a constraint.

The columnar and level engines of
:class:`~repro.core.exploration.TransitionSystem` run these kernels; its
scalar engine, the parity oracle, runs only under ``interpreted``.

A plan is a *claim*, like an action's ``reads``/``writes`` frame: the
kernel must implement exactly the guard and statement of the action it
annotates.  ``tests/test_kernels.py`` pins kernel/interpreted parity
(state sets, edges, deadlocks) across every bundled program and fault
builder, under symmetry quotients, for both backends, and on the
inputs for which nothing is compiled.

For state spaces too large to materialize as ``State`` objects at all
(the ROADMAP's million-state explorations), :func:`explore_codes` runs
the whole BFS in packed-code space: frontiers are ``int64`` arrays,
dedup is a bitmap or a sorted-merge anti-join, and no per-state Python
object ever exists.  The ``token_ring_large`` and
``byzantine_k13_unreduced`` benchmark suites are gated on its exact
reachable-state counts.

Plan grammar (nested tuples; ``name`` is a variable name):

Guards::

    ("true",)
    ("eq_const", name, value)      ("ne_const", name, value)
    ("eq_var", name_a, name_b)     ("ne_var", name_a, name_b)
    ("all_ne_const", names, value)             # every name  != value
    ("eq_majority", name, names, k)            # name == majority(names)
    ("ne_majority", name, names, k)            # (strict 0/1 majority)
    ("and", *exprs)  ("or", *exprs)  ("not", expr)

Effects (applied atomically — every right-hand side reads the
pre-state; of several effects on one variable the last one wins)::

    ("set_const", name, value)
    ("copy", dst, src)                         # dst := src (values)
    ("inc_mod", dst, src, m)                   # dst := (src + 1) mod m
    ("set_majority", dst, names, k)            # dst := 0/1 majority
"""

from __future__ import annotations

import importlib.util
import weakref
from typing import (
    Callable, Dict, FrozenSet, Hashable, Iterable, List, Optional, Tuple,
)

from .state import State, state_space

__all__ = [
    "ENGINE_VERSION",
    "Plan",
    "KernelError",
    "Layout",
    "layout_for",
    "set_backend",
    "get_backend",
    "resolved_backend",
    "numpy_available",
    "numpy_module",
    "guard_support",
    "plan_support",
    "row_kernel",
    "code_kernel",
    "explore_codes",
    "explore_code_shard",
    "census_start_codes",
    "merge_code_reaches",
    "CodeReach",
    "clear_kernel_caches",
]

#: semantic version of the successor engines; part of the certificate
#: store's key salt so artifacts never cross an engine behaviour change
ENGINE_VERSION = 1

#: packed codes must fit a signed int64 with headroom for arithmetic
MAX_CODE_BITS = 62

#: safety valve for :func:`explore_codes` (far above the State-object
#: explorer's cap — code-space BFS is exactly what makes this range
#: reachable)
DEFAULT_MAX_CODES = 50_000_000

#: full code spaces up to this size dedup through a byte bitmap
#: (space bytes of memory); larger spaces use a sorted-merge anti-join
_BITMAP_SPACE_LIMIT = 1 << 26

#: Frontier rows expanded per kernel batch inside :func:`explore_codes`;
#: bounds peak memory at chunk × variables × 8 bytes per column set.
_FRONTIER_CHUNK = 1 << 20


class KernelError(ValueError):
    """A plan cannot be compiled for a schema (unknown variable,
    incompatible domains, or a value a domain cannot represent)."""


class Plan:
    """Declarative guard + assignment of one deterministic action.

    ``guard`` and each effect follow the module-level grammar.  A plan
    describes an action with at most one successor per state; actions
    with nondeterministic statements stay unplanned and run interpreted.
    """

    __slots__ = ("guard", "effects")

    _GUARD_OPS = frozenset({
        "true", "eq_const", "ne_const", "eq_var", "ne_var",
        "all_ne_const", "eq_majority", "ne_majority", "and", "or", "not",
    })
    _EFFECT_OPS = frozenset({"set_const", "copy", "inc_mod", "set_majority"})

    def __init__(self, guard: Tuple, effects: Iterable[Tuple]):
        self.guard = tuple(guard)
        self.effects = tuple(tuple(effect) for effect in effects)
        self._check_guard(self.guard)
        if not self.effects:
            raise KernelError("a plan needs at least one effect")
        for effect in self.effects:
            if not effect or effect[0] not in self._EFFECT_OPS:
                raise KernelError(f"unknown effect op: {effect!r}")

    @classmethod
    def _check_guard(cls, expr: Tuple) -> None:
        if not expr or expr[0] not in cls._GUARD_OPS:
            raise KernelError(f"unknown guard op: {expr!r}")
        if expr[0] in ("and", "or"):
            for sub in expr[1:]:
                cls._check_guard(sub)
        elif expr[0] == "not":
            cls._check_guard(expr[1])

    def __repr__(self) -> str:
        return f"Plan(guard={self.guard!r}, effects={self.effects!r})"


# -- backend selection ---------------------------------------------------------

_BACKENDS = ("auto", "numpy", "pure", "interpreted")
_backend = "auto"


#: the numpy module once :func:`numpy_module` imported it, ``None`` after
#: a failed import, :data:`_UNLOADED` before the first attempt
_UNLOADED = object()
_np = _UNLOADED
#: whether a numpy spec is on the import path (probed once, lazily)
_np_on_path: Optional[bool] = None


def numpy_module():
    """numpy, imported on first call — or ``None`` when it cannot be
    imported (every kernel has a pure-python twin).

    Importing numpy costs more than a warm CLI call spends working, so
    nothing imports it at module load.  Every numpy user calls this once
    per call and binds the result locally, never once per element."""
    global _np
    if _np is _UNLOADED:
        try:
            import numpy
        except Exception:  # a numpy on disk that fails to import
            numpy = None
        _np = numpy
    return _np


def numpy_available() -> bool:
    """Whether the numpy backend can run, answered without importing
    numpy: the outcome of the import once one was tried, else whether
    numpy is on the import path (``sys.modules["numpy"] = None`` blocks
    it, like a failed import)."""
    global _np_on_path
    if _np is not _UNLOADED:
        return _np is not None
    if _np_on_path is None:
        try:
            _np_on_path = importlib.util.find_spec("numpy") is not None
        except (ImportError, ValueError):
            _np_on_path = False
    return _np_on_path


def set_backend(backend: str) -> None:
    """Select the kernel backend: ``auto`` (numpy when importable, else
    pure), ``numpy``, ``pure``, or ``interpreted`` (disable kernels —
    the scalar BFS, used by the parity tests as the oracle).
    """
    global _backend
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown kernel backend {backend!r}; choose from {_BACKENDS}"
        )
    if backend == "numpy" and numpy_module() is None:
        raise KernelError("numpy backend requested but numpy is unavailable")
    _backend = backend


def get_backend() -> str:
    return _backend


def resolved_backend() -> str:
    """The backend compiled exploration will actually run."""
    if _backend == "auto":
        return "numpy" if numpy_available() else "pure"
    return _backend


# -- layouts: schema + domains -> positions, ranks, mixed-radix strides --------

class Layout:
    """The packing of one (schema, domains) pair.

    Position ``i`` holds ``schema.names[i]``; ``ranks[i]`` maps a value
    of that variable's domain to its rank, ``domains[i]`` maps it back.
    ``strides`` are big-endian mixed-radix weights, so the packed code
    of a values-tuple is ``sum(strides[i] * rank_i)`` and code order
    equals lexicographic rank order.
    """

    __slots__ = (
        "schema", "domains", "sizes", "strides", "ranks", "space",
        "index", "_strides_arr",
    )

    def __init__(self, schema, domains: Tuple[Tuple[Hashable, ...], ...]):
        self.schema = schema
        self.index = schema.index
        self.domains = domains
        self.sizes = tuple(len(d) for d in domains)
        strides: List[int] = [0] * len(domains)
        acc = 1
        for i in range(len(domains) - 1, -1, -1):
            strides[i] = acc
            acc *= self.sizes[i]
        self.strides = tuple(strides)
        self.space = acc
        self.ranks = tuple(
            {value: rank for rank, value in enumerate(domain)}
            for domain in domains
        )
        #: int64 strides vector, built by the first :meth:`pack_columns`
        self._strides_arr = None

    # -- scalar paths ------------------------------------------------------
    def pack_values(self, values: Tuple[Hashable, ...]) -> int:
        """The packed code of one values-tuple (KeyError when a value is
        outside its declared domain)."""
        code = 0
        for stride, rank, value in zip(self.strides, self.ranks, values):
            code += stride * rank[value]
        return code

    def unpack(self, code: int) -> Tuple[Hashable, ...]:
        return tuple(
            domain[(code // stride) % size]
            for domain, stride, size in zip(
                self.domains, self.strides, self.sizes
            )
        )

    # -- numpy paths -------------------------------------------------------
    def columns_from_states(self, states) -> "object":
        """``(vars, N)`` int64 rank matrix of a state sequence."""
        np = numpy_module()
        ranks = self.ranks
        flat = [
            rank[value]
            for state in states
            for rank, value in zip(ranks, state._values)
        ]
        return (
            np.array(flat, dtype=np.int64)
            .reshape(len(states), len(ranks))
            .T.copy()
        )

    def columns_from_codes(self, codes) -> "object":
        np = numpy_module()
        cols = np.empty((len(self.sizes), codes.shape[0]), dtype=np.int64)
        for i, (stride, size) in enumerate(zip(self.strides, self.sizes)):
            cols[i] = (codes // stride) % size
        return cols

    def pack_columns(self, cols) -> "object":
        strides = self._strides_arr
        if strides is None:
            np = numpy_module()
            strides = self._strides_arr = np.array(
                self.strides, dtype=np.int64
            )
        return strides @ cols


#: (schema, domains signature) -> Layout (or None when unpackable)
_LAYOUTS: Dict[Tuple, Optional[Layout]] = {}


def layout_for(schema, domains: Dict[str, Tuple]) -> Optional[Layout]:
    """The interned :class:`Layout` of ``schema`` under ``domains``, or
    ``None`` when a variable has no declared domain or the packed code
    would overflow :data:`MAX_CODE_BITS` bits."""
    signature = tuple(domains.get(name) for name in schema.names)
    key = (schema, signature)
    found = _LAYOUTS.get(key, _LAYOUTS)
    if found is not _LAYOUTS:
        return found
    layout: Optional[Layout] = None
    if all(domain for domain in signature):
        space = 1
        for domain in signature:
            space *= len(domain)
        if space.bit_length() <= MAX_CODE_BITS:
            layout = Layout(schema, signature)
    _LAYOUTS[key] = layout
    return layout


# -- plan compilation: support and shared validation ---------------------------

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise KernelError(message)


def guard_support(expr: Tuple) -> FrozenSet[str]:
    """The variables a guard expression syntactically mentions."""
    op = expr[0]
    if op == "true":
        return frozenset()
    if op in ("eq_const", "ne_const"):
        return frozenset((expr[1],))
    if op in ("eq_var", "ne_var"):
        return frozenset((expr[1], expr[2]))
    if op == "all_ne_const":
        return frozenset(expr[1])
    if op in ("eq_majority", "ne_majority"):
        return frozenset((expr[1],)) | frozenset(expr[2])
    if op == "not":
        return guard_support(expr[1])
    # "and" / "or"
    support: FrozenSet[str] = frozenset()
    for sub in expr[1:]:
        support |= guard_support(sub)
    return support


def _effect_sources(effect: Tuple) -> FrozenSet[str]:
    op = effect[0]
    if op == "set_const":
        return frozenset()
    if op in ("copy", "inc_mod"):
        return frozenset((effect[2],))
    return frozenset(effect[2])  # set_majority


def plan_support(plan: Plan) -> FrozenSet[str]:
    """Every variable the plan mentions (guard, sources, and targets)."""
    support = guard_support(plan.guard)
    for effect in plan.effects:
        support |= _effect_sources(effect)
        support |= frozenset((effect[1],))
    return support


def _domain_of(domains: Dict[str, Tuple], name: str) -> Tuple:
    domain = domains.get(name)
    _require(
        bool(domain),
        f"plan variable {name!r} has no declared domain",
    )
    return domain


def _validate_plan(plan: Plan, index, domains: Dict[str, Tuple]) -> None:
    """Raise :class:`KernelError` unless ``plan`` fits a schema (its
    ``index``) and ``domains``: every variable it names is in the schema,
    and every effect can represent the values it assigns."""
    unknown = plan_support(plan).difference(index)
    _require(
        not unknown, f"plan names unknown variables {sorted(unknown)!r}"
    )
    for effect in plan.effects:
        op = effect[0]
        if op == "set_const":
            _, name, value = effect
            _require(
                value in _domain_of(domains, name),
                f"set_const value {value!r} outside domain of {name!r}",
            )
        elif op == "copy":
            _, dst, src = effect
            dst_domain = set(_domain_of(domains, dst))
            _require(
                all(v in dst_domain for v in _domain_of(domains, src)),
                f"copy {src!r} -> {dst!r}: source domain not contained "
                f"in destination domain",
            )
        elif op == "inc_mod":
            _, dst, src, m = effect
            expected = tuple(range(m))
            _require(
                _domain_of(domains, dst) == expected
                and _domain_of(domains, src) == expected,
                f"inc_mod needs 0..{m - 1} domains on {dst!r} and {src!r}",
            )
        elif op == "set_majority":
            dst = effect[1]
            dst_domain = _domain_of(domains, dst)
            _require(
                0 in dst_domain and 1 in dst_domain,
                f"set_majority target {dst!r} cannot hold 0/1",
            )


def _compiled(memo, action, key, compile_plan, *args) -> Optional[Callable]:
    """The kernel ``compile_plan(plan, *args)`` builds for ``action``'s
    plan, memoized per action under ``key`` — ``None`` when the action
    has no plan or the plan does not compile (a :class:`KernelError`)."""
    plan = getattr(action, "plan", None)
    if plan is None:
        return None
    per_action = memo.get(action)
    if per_action is None:
        per_action = memo[action] = {}
    found = per_action.get(key, memo)
    if found is not memo:
        return found
    try:
        kernel = compile_plan(plan, *args)
    except KernelError:
        kernel = None
    per_action[key] = kernel
    return kernel


# -- pure backend: per-row closures over raw values-tuples ---------------------

def _majority_counter(positions: Tuple[int, ...], k: int):
    def majority(values, positions=positions, k=k):
        count = 0
        for p in positions:
            if values[p] == 1:
                count += 1
        return 1 if 2 * count > k else 0
    return majority


def _compile_guard_pure(expr: Tuple, index) -> Optional[Callable]:
    op = expr[0]
    if op == "true":
        return None
    if op == "eq_const":
        p, v = index[expr[1]], expr[2]
        return lambda values, p=p, v=v: values[p] == v
    if op == "ne_const":
        p, v = index[expr[1]], expr[2]
        return lambda values, p=p, v=v: values[p] != v
    if op == "eq_var":
        a, b = index[expr[1]], index[expr[2]]
        return lambda values, a=a, b=b: values[a] == values[b]
    if op == "ne_var":
        a, b = index[expr[1]], index[expr[2]]
        return lambda values, a=a, b=b: values[a] != values[b]
    if op == "all_ne_const":
        positions = tuple(index[n] for n in expr[1])
        v = expr[2]
        def all_ne(values, positions=positions, v=v):
            for p in positions:
                if values[p] == v:
                    return False
            return True
        return all_ne
    if op in ("eq_majority", "ne_majority"):
        p = index[expr[1]]
        majority = _majority_counter(tuple(index[n] for n in expr[2]), expr[3])
        if op == "eq_majority":
            return lambda values, p=p, m=majority: values[p] == m(values)
        return lambda values, p=p, m=majority: values[p] != m(values)
    if op == "not":
        sub = _compile_guard_pure(expr[1], index)
        if sub is None:
            return lambda values: False
        return lambda values, f=sub: not f(values)
    subs = [_compile_guard_pure(sub, index) for sub in expr[1:]]
    if op == "and":
        subs = [f for f in subs if f is not None]
        if not subs:
            return None
        def conj(values, fns=tuple(subs)):
            for fn in fns:
                if not fn(values):
                    return False
            return True
        return conj
    # "or": a "true" operand makes the whole disjunction trivially true
    if any(f is None for f in subs):
        return None
    def disj(values, fns=tuple(subs)):
        for fn in fns:
            if fn(values):
                return True
        return False
    return disj


def _compile_effects_pure(plan: Plan, index) -> Callable:
    steps = []
    for effect in plan.effects:
        op = effect[0]
        if op == "set_const":
            p, v = index[effect[1]], effect[2]
            steps.append(lambda values, out, p=p, v=v: out.__setitem__(p, v))
        elif op == "copy":
            d, s = index[effect[1]], index[effect[2]]
            steps.append(
                lambda values, out, d=d, s=s: out.__setitem__(d, values[s])
            )
        elif op == "inc_mod":
            d, s, m = index[effect[1]], index[effect[2]], effect[3]
            steps.append(
                lambda values, out, d=d, s=s, m=m:
                out.__setitem__(d, (values[s] + 1) % m)
            )
        else:  # set_majority
            d = index[effect[1]]
            majority = _majority_counter(
                tuple(index[n] for n in effect[2]), effect[3]
            )
            steps.append(
                lambda values, out, d=d, m=majority:
                out.__setitem__(d, m(values))
            )
    steps = tuple(steps)

    def apply(values, steps=steps):
        out = list(values)
        for step in steps:
            step(values, out)
        return tuple(out)

    return apply


#: action -> {(schema, domains signature): row fn or None}
_ROW_KERNELS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _compile_row(plan: Plan, schema, domains: Dict[str, Tuple]) -> Callable:
    index = schema.index
    _validate_plan(plan, index, domains)
    guard = _compile_guard_pure(plan.guard, index)
    effects = _compile_effects_pure(plan, index)
    if guard is None:
        return effects

    def row(values, guard=guard, effects=effects):
        if not guard(values):
            return None
        return effects(values)

    return row


def row_kernel(action, schema, domains: Dict[str, Tuple]) -> Optional[Callable]:
    """A compiled per-row evaluator of ``action``'s plan: values-tuple
    in, successor values-tuple (or ``None`` when disabled) out.  Returns
    ``None`` when the action has no plan or the plan does not fit the
    schema/domains."""
    key = (schema, tuple(domains.get(name) for name in schema.names))
    return _compiled(_ROW_KERNELS, action, key, _compile_row, schema, domains)


# -- numpy backend: vectorized guards over rank columns, code-delta effects ----

def _rank_or_sentinel(layout: Layout, name: str, value) -> int:
    """The rank of ``value`` in ``name``'s domain, or ``-1`` (no column
    ever holds -1, so equality against it is constant-false)."""
    return layout.ranks[layout.index[name]].get(value, -1)


def _value_lut(layout: Layout, src: str, dst: str):
    """``src-rank -> dst-rank`` translation table (copy across domains
    compares/assigns *values*, never raw ranks)."""
    np = numpy_module()
    src_domain = layout.domains[layout.index[src]]
    dst_ranks = layout.ranks[layout.index[dst]]
    return np.array(
        [dst_ranks.get(value, -1) for value in src_domain], dtype=np.int64
    )


def _majority_column(layout: Layout, names, k: int):
    np = numpy_module()
    positions = tuple(layout.index[n] for n in names)
    ones = tuple(_rank_or_sentinel(layout, n, 1) for n in names)

    def majority_is_one(cols, positions=positions, ones=ones, k=k):
        count = (cols[positions[0]] == ones[0]).astype(np.int64)
        for p, r1 in zip(positions[1:], ones[1:]):
            count += cols[p] == r1
        return 2 * count > k

    return majority_is_one


def _compile_guard_numpy(expr: Tuple, layout: Layout) -> Optional[Callable]:
    np = numpy_module()
    op = expr[0]
    index = layout.index
    if op == "true":
        return None
    if op in ("eq_const", "ne_const"):
        p = index[expr[1]]
        r = _rank_or_sentinel(layout, expr[1], expr[2])
        if op == "eq_const":
            return lambda cols, p=p, r=r: cols[p] == r
        return lambda cols, p=p, r=r: cols[p] != r
    if op in ("eq_var", "ne_var"):
        a, b = index[expr[1]], index[expr[2]]
        if layout.domains[a] == layout.domains[b]:
            if op == "eq_var":
                return lambda cols, a=a, b=b: cols[a] == cols[b]
            return lambda cols, a=a, b=b: cols[a] != cols[b]
        lut = _value_lut(layout, expr[2], expr[1])
        if op == "eq_var":
            return lambda cols, a=a, b=b, lut=lut: cols[a] == lut[cols[b]]
        return lambda cols, a=a, b=b, lut=lut: cols[a] != lut[cols[b]]
    if op == "all_ne_const":
        pairs = tuple(
            (index[n], _rank_or_sentinel(layout, n, expr[2]))
            for n in expr[1]
        )
        def all_ne(cols, pairs=pairs):
            acc = cols[pairs[0][0]] != pairs[0][1]
            for p, r in pairs[1:]:
                acc &= cols[p] != r
            return acc
        return all_ne
    if op in ("eq_majority", "ne_majority"):
        p = index[expr[1]]
        r0 = _rank_or_sentinel(layout, expr[1], 0)
        r1 = _rank_or_sentinel(layout, expr[1], 1)
        majority_is_one = _majority_column(layout, expr[2], expr[3])
        def eq_majority(cols, p=p, r0=r0, r1=r1, m=majority_is_one):
            return cols[p] == np.where(m(cols), r1, r0)
        if op == "eq_majority":
            return eq_majority
        return lambda cols, f=eq_majority: ~f(cols)
    if op == "not":
        sub = _compile_guard_numpy(expr[1], layout)
        if sub is None:
            return lambda cols: np.zeros(cols.shape[1], dtype=bool)
        return lambda cols, f=sub: ~f(cols)
    subs = [_compile_guard_numpy(sub, layout) for sub in expr[1:]]
    if op == "and":
        subs = [f for f in subs if f is not None]
        if not subs:
            return None
        def conj(cols, fns=tuple(subs)):
            acc = fns[0](cols)
            for fn in fns[1:]:
                acc &= fn(cols)
            return acc
        return conj
    if any(f is None for f in subs):
        return None
    def disj(cols, fns=tuple(subs)):
        acc = fns[0](cols)
        for fn in fns[1:]:
            acc |= fn(cols)
        return acc
    return disj


def _compile_code(plan: Plan, layout: Layout) -> Callable:
    np = numpy_module()
    index = layout.index
    _validate_plan(
        plan, index, dict(zip(layout.schema.names, layout.domains))
    )
    guard = _compile_guard_numpy(plan.guard, layout)
    strides = layout.strides
    deltas: List[Callable] = []
    # every delta reads the pre-state, so of several effects on one
    # variable only the last may contribute (it is the one that wins)
    last = {effect[1]: effect for effect in plan.effects}
    for effect in last.values():
        op = effect[0]
        if op == "set_const":
            d = index[effect[1]]
            r, st = layout.ranks[d][effect[2]], strides[d]
            deltas.append(
                lambda cols, idx, d=d, r=r, st=st:
                (r - cols[d, idx]) * st
            )
        elif op == "copy":
            d, s = index[effect[1]], index[effect[2]]
            st = strides[d]
            if layout.domains[d] == layout.domains[s]:
                deltas.append(
                    lambda cols, idx, d=d, s=s, st=st:
                    (cols[s, idx] - cols[d, idx]) * st
                )
            else:
                lut = _value_lut(layout, effect[2], effect[1])
                deltas.append(
                    lambda cols, idx, d=d, s=s, st=st, lut=lut:
                    (lut[cols[s, idx]] - cols[d, idx]) * st
                )
        elif op == "inc_mod":
            d, s, m = index[effect[1]], index[effect[2]], effect[3]
            st = strides[d]
            deltas.append(
                lambda cols, idx, d=d, s=s, st=st, m=m:
                ((cols[s, idx] + 1) % m - cols[d, idx]) * st
            )
        else:  # set_majority
            d = index[effect[1]]
            r0, r1 = layout.ranks[d][0], layout.ranks[d][1]
            st = strides[d]
            majority_is_one = _majority_column(layout, effect[2], effect[3])
            deltas.append(
                lambda cols, idx, d=d, r0=r0, r1=r1, st=st,
                m=majority_is_one:
                (np.where(m(cols)[idx], r1, r0) - cols[d, idx]) * st
            )
    empty = np.empty(0, dtype=np.int64)

    def kernel(codes, cols, guard=guard, deltas=tuple(deltas), empty=empty):
        if guard is None:
            idx = np.arange(codes.shape[0], dtype=np.int64)
        else:
            idx = np.flatnonzero(guard(cols))
            if idx.size == 0:
                return empty, None
        out = codes[idx]
        for delta in deltas:
            out = out + delta(cols, idx)
        return idx, out

    return kernel


#: action -> {layout: code kernel or None}
_CODE_KERNELS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def code_kernel(action, layout: Layout) -> Optional[Callable]:
    """The numpy evaluator of ``action``'s plan, entirely in code space:
    ``kernel(codes, cols)`` takes a frontier's packed codes and their
    ``(vars, N)`` rank matrix and returns ``(enabled column indices,
    successor codes)`` — the successors ``None`` when no column is
    enabled.  Returns ``None`` when the action has no compilable plan or
    numpy is unavailable.

    Because a plan's effects are per-variable assignments and codes are
    mixed-radix sums, the successor code is the source code plus
    ``(new_rank - old_rank) * stride`` per written variable — no
    successor rank matrix is ever materialized and no repacking happens,
    so the per-edge cost is independent of the number of variables.
    """
    if numpy_module() is None:
        return None
    return _compiled(_CODE_KERNELS, action, layout, _compile_code, layout)


# -- code-space exploration (million-state BFS, no State objects) --------------

class CodeReach:
    """Result of :func:`explore_codes`: exact reachable census.

    ``codes`` is the sorted reachable-code array when the caller asked
    for it (``collect_codes=True`` / the shard entry points) and
    ``None`` otherwise — censuses that only need the count never pay to
    materialize the set.
    """

    __slots__ = ("states", "levels", "edges", "codes")

    def __init__(self, states: int, levels: int, edges: int, codes=None):
        self.states = states
        self.levels = levels
        self.edges = edges
        self.codes = codes

    def __repr__(self) -> str:
        return (
            f"CodeReach({self.states} states, {self.levels} levels, "
            f"{self.edges} successor rows)"
        )


def _census_layout(program, schema) -> Layout:
    layout = layout_for(schema, program._domains)
    _require(
        layout is not None,
        f"state space of {program.name!r} does not pack into "
        f"{MAX_CODE_BITS}-bit codes",
    )
    return layout


def _census_kernels(program, fault_actions, layout: Layout) -> List[Callable]:
    kernels = []
    for action in tuple(program.actions) + tuple(fault_actions):
        kernel = code_kernel(action, layout)
        _require(
            kernel is not None,
            f"action {action.name!r} has no compilable plan for "
            f"{program.name!r}",
        )
        kernels.append(kernel)
    return kernels


def _code_bfs(layout: Layout, kernels, start_codes, max_states: int,
              name: str, collect: bool) -> CodeReach:
    """The BFS core shared by whole censuses and shards: expand from
    ``start_codes`` (sorted, unique) until no fresh code appears."""
    np = numpy_module()
    use_bitmap = layout.space <= _BITMAP_SPACE_LIMIT
    if use_bitmap:
        seen_map = np.zeros(layout.space, dtype=bool)
        seen_map[start_codes] = True
    else:
        seen_sorted = start_codes
    total = int(start_codes.shape[0])
    frontier = start_codes
    levels = 0
    edges = 0
    while frontier.size:
        levels += 1
        fresh_parts = []
        for lo in range(0, int(frontier.shape[0]), _FRONTIER_CHUNK):
            chunk = frontier[lo:lo + _FRONTIER_CHUNK]
            cols = layout.columns_from_codes(chunk)
            for kernel in kernels:
                idx, codes = kernel(chunk, cols)
                if codes is None:
                    continue
                edges += int(idx.shape[0])
                if use_bitmap:
                    # mark between actions/chunks: later rows anti-join
                    # against everything earlier ones discovered
                    fresh = codes[~seen_map[codes]]
                    if fresh.size:
                        fresh = np.unique(fresh)
                        seen_map[fresh] = True
                        fresh_parts.append(fresh)
                else:
                    pos = np.searchsorted(seen_sorted, codes)
                    pos[pos == seen_sorted.shape[0]] = 0
                    fresh = codes[seen_sorted[pos] != codes]
                    if fresh.size:
                        fresh_parts.append(fresh)
        if not fresh_parts:
            break
        if use_bitmap:
            frontier = np.concatenate(fresh_parts)
        else:
            frontier = np.unique(np.concatenate(fresh_parts))
            positions = np.searchsorted(seen_sorted, frontier)
            seen_sorted = np.insert(seen_sorted, positions, frontier)
        total += int(frontier.shape[0])
        if total > max_states:
            raise RuntimeError(
                f"code-space exploration exceeds max_states={max_states} "
                f"for {name!r}"
            )
    reached = None
    if collect:
        reached = np.flatnonzero(seen_map) if use_bitmap else seen_sorted
    return CodeReach(total, levels, edges, reached)


def census_start_codes(program, start_states: Iterable[State]):
    """Resolve a census start set to ``(layout, sorted unique codes)`` —
    the scheduler half of a sharded census (slice the codes with
    ``numpy.array_split`` and hand each slice to
    :func:`explore_code_shard`)."""
    np = numpy_module()
    if np is None:
        raise KernelError("explore_codes requires numpy")
    if isinstance(start_states, str):
        _require(
            start_states == "all",
            f"unknown start-state selector {start_states!r}",
        )
        first = next(iter(state_space(program.variables)), None)
        _require(first is not None, f"{program.name!r} has an empty space")
        layout = _census_layout(program, first._schema)
        return layout, np.arange(layout.space, dtype=np.int64)
    starts = list(start_states)
    _require(bool(starts), "census_start_codes needs at least one start")
    schema = starts[0]._schema
    for state in starts:
        _require(
            state._schema is schema,
            "explore_codes start states must share one schema",
        )
    layout = _census_layout(program, schema)
    codes = np.unique(
        np.array(
            [layout.pack_values(s._values) for s in starts],
            dtype=np.int64,
        )
    )
    return layout, codes


def explore_codes(
    program,
    start_states: Iterable[State],
    fault_actions=(),
    max_states: int = DEFAULT_MAX_CODES,
    collect_codes: bool = False,
) -> CodeReach:
    """Exact reachable-state census of ``program [] faults`` by BFS in
    packed-code space.

    Every action (program and fault) must carry a compilable
    :class:`Plan` and numpy must be available — this explorer exists for
    state spaces where materializing ``State`` objects is not an option,
    so there is no interpreted fallback to hide behind.  Dedup uses a
    byte bitmap over the full code space when it fits (≤ 64M codes) and
    a sorted-merge anti-join otherwise; either way the census is exact.

    ``start_states`` is an iterable of :class:`State` objects, or the
    string ``"all"`` for the program's entire state space — the codes
    ``0..space-1`` are synthesized directly, so a multimillion-state
    full-space sweep (e.g. a self-stabilization census) never builds a
    single ``State``.  Frontiers are expanded in bounded chunks, so peak
    memory stays proportional to the chunk, not the frontier.
    ``collect_codes=True`` additionally returns the sorted reachable
    code set on the result.
    """
    np = numpy_module()
    if np is None:
        raise KernelError("explore_codes requires numpy")
    if isinstance(start_states, str):
        _require(
            start_states == "all",
            f"unknown start-state selector {start_states!r}",
        )
        if next(iter(state_space(program.variables)), None) is None:
            return CodeReach(0, 0, 0)
    else:
        start_states = list(start_states)
        if not start_states:
            return CodeReach(0, 0, 0)
    layout, start_codes = census_start_codes(program, start_states)
    kernels = _census_kernels(program, fault_actions, layout)
    return _code_bfs(
        layout, kernels, start_codes, max_states, program.name, collect_codes
    )


def explore_code_shard(
    program,
    start_codes,
    fault_actions=(),
    max_states: int = DEFAULT_MAX_CODES,
) -> CodeReach:
    """BFS from an explicit array of packed start codes — one shard of a
    distributed census.

    The shard's :class:`CodeReach` always carries its reachable code
    *set* (``codes``): reach sets of different shards overlap, so shard
    counts do not add — :func:`merge_code_reaches` unions the sets to
    recover the exact census.  Per-shard ``levels``/``edges`` are local
    diagnostics only.
    """
    np = numpy_module()
    if np is None:
        raise KernelError("explore_codes requires numpy")
    first = next(iter(state_space(program.variables)), None)
    _require(first is not None, f"{program.name!r} has an empty space")
    layout = _census_layout(program, first._schema)
    codes = np.unique(np.asarray(start_codes, dtype=np.int64))
    if codes.size:
        _require(
            0 <= int(codes[0]) and int(codes[-1]) < layout.space,
            f"start codes out of range for {program.name!r}",
        )
    else:
        return CodeReach(0, 0, 0, codes)
    kernels = _census_kernels(program, fault_actions, layout)
    return _code_bfs(layout, kernels, codes, max_states, program.name, True)


def merge_code_reaches(reaches) -> CodeReach:
    """Union shard censuses into the exact whole-space answer.

    ``states`` is the size of the union of the shard code sets —
    byte-identical to an unsharded :func:`explore_codes` count for any
    shard partition.  ``levels`` (max) and ``edges`` (sum) are
    shard-local diagnostics, *not* the unsharded BFS figures.
    """
    np = numpy_module()
    if np is None:
        raise KernelError("merge_code_reaches requires numpy")
    reaches = list(reaches)
    arrays = []
    for reach in reaches:
        _require(
            reach.codes is not None,
            "merge_code_reaches needs shard results with collected codes",
        )
        arrays.append(reach.codes)
    if not arrays:
        return CodeReach(0, 0, 0, np.empty(0, dtype=np.int64))
    union = np.unique(np.concatenate(arrays))
    return CodeReach(
        int(union.shape[0]),
        max(reach.levels for reach in reaches),
        sum(reach.edges for reach in reaches),
        union,
    )


# -- cache control -------------------------------------------------------------

def clear_kernel_caches() -> None:
    """Drop every compiled kernel and interned layout, so cold-start
    benchmarks pay for plan compilation like any other cache miss.
    Wired into :func:`repro.core.exploration.clear_all_caches`."""
    _LAYOUTS.clear()
    _ROW_KERNELS.clear()
    _CODE_KERNELS.clear()
