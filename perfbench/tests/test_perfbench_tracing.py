import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the benchmark's modules

import tracing  # noqa: E402
from tracing import Target, Tracer, self_times, span_totals  # noqa: E402


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 5.0, 9.0, 0],
        ["a.child", 2.0, 3.0, 1],
        ["next", 11.0, 12.0, -1],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 4.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [["root", 0.0, 10.0, -1], ["x", 1.0, 4.0, 0], ["y", 3.0, 6.0, 0]]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_totals_count_recursive_spans_once_inclusive():
    spans = [["f", 0.0, 4.0, -1], ["f", 1.0, 2.0, 0], ["g", 2.0, 3.0, 0]]
    totals = span_totals(spans)
    assert totals["f"]["calls"] == 2
    assert totals["f"]["s"] == pytest.approx(4.0)
    assert totals["f"]["self_s"] == pytest.approx(2.0 + 1.0)
    assert totals["g"]["self_s"] == pytest.approx(1.0)


@pytest.fixture
def fakepkg():
    core = types.ModuleType("fakepkg.core")

    def work(n):
        return helper(n) + 1

    def helper(n):
        return n * 2

    class Box:
        def size(self):
            return 3

    core.work, core.helper, core.Box = work, helper, Box
    user = types.ModuleType("fakepkg.user")
    user.work = work  # a second binding, as `from .core import work` makes
    pkg = types.ModuleType("fakepkg")
    pkg.work = work
    modules = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(modules)
    yield modules
    for name in modules:
        sys.modules.pop(name)


def test_install_patches_every_binding_and_restore_puts_originals_back(fakepkg):
    core, user, pkg = fakepkg["fakepkg.core"], fakepkg["fakepkg.user"], fakepkg["fakepkg"]
    original_work, original_size = core.work, core.Box.size
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.install("fakepkg", [Target("core", "work"), Target("core", "Box.size"),
                               Target("core", "gone"), Target("missing", "f")])
    assert tracer.absent == ["core.gone", "missing.f"]
    assert user.work is not original_work and pkg.work is core.work
    assert user.work(2) == 5 and pkg.work(1) == 3 and core.Box().size() == 3
    assert [s[0] for s in tracer.spans] == ["core.work", "core.work", "core.Box.size"]
    assert all(s[3] == -1 for s in tracer.spans)
    tracer.restore()
    assert core.work is original_work and user.work is original_work
    assert pkg.work is original_work and core.Box.size is original_size


def test_failed_calls_are_counted_and_spans_closed():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    outer = tracer.wrap("outer", lambda: traced())
    traced = tracer.wrap("inner", boom)
    with pytest.raises(ValueError):
        outer()
    assert tracer.counts["inner.failed"] == 1 and tracer.counts["outer.failed"] == 1
    assert tracer.spans[1][3] == 0 and all(s[2] >= s[1] for s in tracer.spans)


def test_layer_metrics_report_every_metric_even_when_absent():
    tracer = Tracer()
    tracer.counts["extraction.pages_used"] = 3
    tracer.counts["extraction.pages_in_manifest"] = 4
    metrics = tracing.layer_metrics(tracer, overhead=0.05)
    assert list(metrics) == [name for name, _ in tracing.PER_LAYER]
    assert metrics["extraction.pages_read_share"]["value"] == 0.75
    assert metrics["nn.forward.calls"]["value"] == 0
    assert metrics[tracing.OVERHEAD]["value"] == 0.05
