"""Self-time arithmetic of the traced run."""

import pytest

import tracing
from tracing import Span, Tracer, TraceError, call_counts, check_closure, self_times


def test_self_time_of_a_hand_built_tree():
    # root [0, 10] -> a [1, 7] -> b [2, 4]; root -> c [8, 9]
    # a also made 3 hot calls totalling 1.5s directly under it.
    spans = [
        Span("root", 0.0, 10.0),
        Span("layer.a", 1.0, 7.0, parent=0, hot_s={"layer.hot": 1.5}, hot_n={"layer.hot": 3}),
        Span("layer.b", 2.0, 4.0, parent=1),
        Span("layer.c", 8.0, 9.0, parent=0),
    ]
    got = self_times(spans)
    assert got == {
        ("", "root"): pytest.approx(10.0 - 6.0 - 1.0),
        ("", "layer.a"): pytest.approx(6.0 - 2.0 - 1.5),
        ("", "layer.b"): pytest.approx(2.0),
        ("", "layer.c"): pytest.approx(1.0),
        ("", "layer.hot"): pytest.approx(1.5),
    }
    assert sum(got.values()) == pytest.approx(10.0)
    assert call_counts(spans)[("", "layer.hot")] == 3
    assert check_closure(spans, 10.0) == pytest.approx(0.0)


def test_same_name_nested_and_phases_are_kept_apart():
    spans = [
        Span("root", 0.0, 4.0),
        Span("x", 0.0, 3.0, parent=0, phase="cold"),
        Span("x", 1.0, 2.0, parent=1, phase="cold"),
        Span("x", 3.0, 4.0, parent=0, phase="relint"),
    ]
    got = self_times(spans)
    assert got[("cold", "x")] == pytest.approx(3.0)
    assert got[("relint", "x")] == pytest.approx(1.0)
    assert got[("", "root")] == pytest.approx(0.0)


def test_closure_gap_beyond_tolerance_fails():
    spans = [Span("root", 0.0, 9.0)]
    with pytest.raises(TraceError, match="apart"):
        check_closure(spans, 10.0)
    assert check_closure(spans, 9.3) < 0.05


def test_child_longer_than_parent_fails():
    spans = [Span("root", 0.0, 1.0), Span("a", 0.0, 2.0, parent=0)]
    with pytest.raises(TraceError, match="negative self time"):
        self_times(spans)


@pytest.fixture
def clock(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: now[0])
    return now


def test_wrappers_record_nesting_hot_calls_and_generators(clock):
    tracer = Tracer()

    def leaf(word):
        clock[0] += 0.25
        return word

    def inner():
        clock[0] += 1.0
        for word in ("a", "b", "a"):
            hot_leaf(word)
        yield "done"
        clock[0] += 2.0  # work done while the caller drains the generator

    def outer():
        clock[0] += 0.5
        return list(wrapped_inner())

    seen = []
    hot_leaf = tracer.wrap(leaf, "t.leaf", hot=True,
                           after=lambda t, args, kw, res: seen.append(args[0]))
    wrapped_inner = tracer.wrap(inner, "t.inner")
    wrapped_outer = tracer.wrap(outer, "t.outer")

    root = tracer.begin("root")
    assert wrapped_outer() == ["done"]
    tracer.finish(root)

    got = self_times(tracer.spans)
    assert got[("", "t.outer")] == pytest.approx(0.5)
    assert got[("", "t.inner")] == pytest.approx(3.0)  # drained inside its span
    assert got[("", "t.leaf")] == pytest.approx(0.75)
    assert call_counts(tracer.spans)[("", "t.leaf")] == 3
    assert seen == ["a", "b", "a"]
    assert check_closure(tracer.spans, 4.25) == pytest.approx(0.0)


def test_span_inside_a_hot_call_is_refused(clock):
    tracer = Tracer()
    spanned = tracer.wrap(lambda: None, "t.span")
    hot = tracer.wrap(lambda: spanned(), "t.hot", hot=True)
    root = tracer.begin("root")
    with pytest.raises(TraceError, match="inside a hot call"):
        hot()
    tracer.finish(root)


def test_patcher_restores_own_and_inherited_attributes():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        pass

    patcher = tracing.Patcher()
    patcher.patch(Base, "f", lambda self: "patched-base")
    patcher.patch(Child, "f", lambda self: "patched-child")
    assert Child().f() == "patched-child"
    patcher.restore()
    assert "f" not in Child.__dict__
    assert Child().f() == "base"
