"""Wrapping, restoring and self-time accounting of the tracer."""

import sys
import types

import pytest

from perfbench.tracing import (Tracer, entry_spans, layer_totals,
                               self_times)


@pytest.fixture
def fake_package():
    """``fakepkg.a`` defines ``f`` and ``C.m``; ``fakepkg.b`` holds
    ``from .a import f`` and an alias of it."""
    a = types.ModuleType("fakepkg.a")

    def f(x):
        return x + 1

    class C:
        def m(self):
            return f(1)

        @staticmethod
        def s():
            return 7

    f.__module__ = C.__module__ = "fakepkg.a"
    a.f, a.C = f, C
    b = types.ModuleType("fakepkg.b")
    b.f = b.alias = f
    pkg = types.ModuleType("fakepkg")
    modules = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(modules)
    yield a, b, f, C
    for name in modules:
        del sys.modules[name]


def test_wrappers_catch_from_imports_and_are_restored(fake_package):
    a, b, f, C = fake_package
    original_m, original_s = vars(C)["m"], vars(C)["s"]
    tracer = Tracer()
    tracer.install([("fakepkg.a", "f", "alpha", None),
                    ("fakepkg.a", "C.m", "beta", None),
                    ("fakepkg.a", "C.s", "beta", None),
                    ("fakepkg.a", "gone", "alpha", None)])
    assert a.f is not f and b.f is a.f and b.alias is a.f
    assert b.f(1) == 2 and C().m() == 2 and C.s() == 7
    assert [(s[2], s[3]) for s in tracer.spans] == [
        ("alpha", "f"), ("beta", "C.m"), ("beta", "C.s")]
    assert tracer.missing == ["fakepkg.a.gone"]
    tracer.restore()
    assert a.f is f and b.f is f and b.alias is f
    assert vars(C)["m"] is original_m and vars(C)["s"] is original_s
    b.f(1)
    assert len(tracer.spans) == 3


def test_patch_reaches_repro_from_import():
    from repro.core import fairness, tolerance

    original = fairness.check_leads_to
    assert tolerance.check_leads_to is original
    tracer = Tracer()
    tracer.install([("repro.core.fairness", "check_leads_to", "fairness",
                     None)])
    try:
        assert tolerance.check_leads_to is fairness.check_leads_to
        assert tolerance.check_leads_to is not original
        assert tolerance.check_leads_to.__wrapped__ is original
    finally:
        tracer.restore()
    assert tolerance.check_leads_to is original
    assert fairness.check_leads_to is original


def test_self_time_of_a_synthetic_nest():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    call = tracer.call

    def leaf():
        return None

    def middle():
        return call("inner", "grandchild", leaf, (), {})

    def outer():
        call("inner", "a", leaf, (), {})          # 1..3
        call("other", "b", middle, (), {})        # 4..8, child 5..6
        return "done"

    assert call("outer", "root", outer, (), {}) == "done"   # 0..10
    own = {s[3]: self_times(tracer.spans)[s[0]] for s in tracer.spans}
    assert own == {"root": 4.0, "a": 2.0, "b": 3.0, "grandchild": 1.0}
    assert layer_totals(tracer.spans) == {
        "outer": 4.0, "inner": 3.0, "other": 3.0}
    assert sorted(s[3] for s in entry_spans(tracer.spans)) == [
        "a", "b", "grandchild", "root"]


def test_self_time_counts_overlapping_children_once():
    spans = [
        (0, None, "x", "parent", 0.0, 10.0, 1),
        (1, 0, "y", "left", 1.0, 5.0, 2),
        (2, 0, "y", "right", 3.0, 7.0, 3),
        (3, 0, "y", "late", 9.0, 12.0, 4),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_hooks_see_entries_and_results():
    seen = []
    tracer = Tracer()

    def hook(tr, entry, args, kwargs, result):
        seen.append((entry, args, result))

    def inner(x):
        return x * 2

    def outer(x):
        return tracer.call("same", "inner", inner, (x,), {}, hook)

    tracer.call("same", "outer", outer, (3,), {}, hook)
    assert seen == [(False, (3,), 6), (True, (3,), 6)]


def test_guard_skips_calls_outside_the_layer(fake_package):
    a, b, f, C = fake_package
    tracer = Tracer()
    tracer.install([("fakepkg.a", "f", "alpha", None)],
                   guards={"alpha": lambda args: args[0] > 0})
    try:
        assert b.f(-1) == 0 and b.f(1) == 2
    finally:
        tracer.restore()
    assert [s[3] for s in tracer.spans] == ["f"]


def test_lazy_targets_are_patched_on_import_and_restored(tmp_path,
                                                         monkeypatch):
    pkg = tmp_path / "lazypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text("def f(x):\n    return x + 1\n")
    (pkg / "b.py").write_text("from .a import f\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    tracer = Tracer()
    tracer.install([("lazypkg.a", "f", "alpha", None)])
    try:
        assert "lazypkg.a" not in sys.modules
        import lazypkg.b as b
        assert b.f(1) == 2
        assert b.f.__wrapped__ is sys.modules["lazypkg.a"].f.__wrapped__
        assert [s[3] for s in tracer.spans] == ["f"]
        assert tracer.missing == []
    finally:
        tracer.restore()
        for name in ("lazypkg", "lazypkg.a", "lazypkg.b"):
            sys.modules.pop(name, None)
    assert not hasattr(b.f, "__perfbench_original__")
    assert tracer._on_import is None


def test_restore_rebinds_copies_taken_while_installed(fake_package):
    a, b, f, C = fake_package
    tracer = Tracer()
    tracer.install([("fakepkg.a", "f", "alpha", None)])
    late = types.ModuleType("fakepkg.late")
    late.f = a.f  # a module imported while the wrapper is installed
    sys.modules["fakepkg.late"] = late
    try:
        assert late.f is not f
    finally:
        tracer.restore()
        del sys.modules["fakepkg.late"]
    assert late.f is f and a.f is f
