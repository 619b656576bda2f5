import types

import pytest

from perfbench.harness import percentile
from perfbench.tracer import Tracer, self_times


def _module():
    mod = types.ModuleType("fake")

    def outer(x):
        return mod.inner(x) + mod.inner(x + 1)

    def inner(x):
        return x * 2

    mod.outer, mod.inner = outer, inner
    return mod


class Box:
    def size(self):
        return 3


def test_tracer_restores_the_original_functions():
    mod = _module()
    outer, inner, size = mod.outer, mod.inner, vars(Box)["size"]
    with Tracer() as tracer:
        tracer.wrap(mod, "outer", "outer")
        tracer.wrap(mod, "inner", "inner", lambda args, result: {"arg": args[0]})
        tracer.count(Box, "size", "box.size")
        assert mod.outer is not outer and vars(Box)["size"] is not size
        assert mod.outer(1) == 2 + 4
        assert Box().size() == 3
    assert mod.outer is outer and mod.inner is inner and vars(Box)["size"] is size
    assert [s[0] for s in tracer.spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert [s[4] for s in tracer.spans] == [None, {"arg": 1}, {"arg": 2}]
    assert tracer.counts == {("box.size", -1): 1}


def test_counts_are_kept_per_open_span():
    mod = types.ModuleType("fake")
    mod.run = lambda box: box.size() + box.size()
    with Tracer() as tracer:
        tracer.wrap(mod, "run", "run")
        tracer.count(Box, "size", "box.size")
        Box().size()
        assert mod.run(Box()) == 6
    assert tracer.counts == {("box.size", -1): 1, ("box.size", 0): 2}


def test_tracer_restores_after_an_exception():
    mod = _module()
    inner = mod.inner
    with pytest.raises(ZeroDivisionError):
        with Tracer() as tracer:
            tracer.wrap(mod, "inner", "inner")
            mod.inner(1) / 0
    assert mod.inner is inner


def test_span_closes_when_the_call_raises():
    mod = types.ModuleType("fake")

    def boom():
        raise ValueError("no")

    mod.boom = boom
    with Tracer() as tracer:
        tracer.wrap(mod, "boom", "boom")
        with pytest.raises(ValueError):
            mod.boom()
        mod_span = tracer.spans[0]
        assert mod_span[2] >= mod_span[1]
        assert tracer._open == [-1]


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["a1", 2.0, 3.0, 1, None],
        ["b", 5.0, 6.0, 0, None],
        ["c", 5.5, 7.0, 0, None],  # overlaps b: covered once
        ["d", 9.0, 12.0, 0, None],  # runs past its parent: clipped
        ["other", 20.0, 21.0, -1, None],
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 2 - 1, 2, 1, 1, 1.5, 3, 1])


def test_percentile_is_by_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 90) == 90
    assert percentile(values[:44], 75) == 89  # 100..57: eleven above it
    assert percentile([5.0] * 12, 75) == 5.0
    assert percentile([3.0], 90) == 3.0
