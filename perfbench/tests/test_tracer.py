"""Tests of the benchmark's own span tracer and layer table.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
import threading
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from tracer import CALLS, COUNT, SELF, TOTAL, Tracer  # noqa: E402


class FakeClock:
    """Time that moves only when the code under test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


def _tree(clock):
    """A nested call tree: a -> b -> c, with own work at every level."""

    class Work:
        def a(self):
            clock.spend(1.0)
            self.b()
            clock.spend(0.5)
            return "a"

        def b(self):
            clock.spend(2.0)
            self.c()

        def c(self):
            clock.spend(3.0)

    return Work


def test_self_time_is_duration_minus_wrapped_children():
    clock = FakeClock()
    work = _tree(clock)
    tracer = Tracer(clock=clock)
    tracer.wrap(work, "a", "x/Work.a")
    tracer.wrap(work, "b", "y/Work.b")
    tracer.wrap(work, "c", "z/Work.c")
    with tracer.operation("op/run", "op-1"):
        clock.spend(0.25)
        assert work().a() == "a"
    stats = tracer.aggregate()
    assert stats["op/run"][TOTAL] == 6.75 and stats["op/run"][SELF] == 0.25
    assert stats["x/Work.a"][TOTAL] == 6.5 and stats["x/Work.a"][SELF] == 1.5
    assert stats["y/Work.b"][TOTAL] == 5.0 and stats["y/Work.b"][SELF] == 2.0
    assert stats["z/Work.c"][TOTAL] == 3.0 and stats["z/Work.c"][SELF] == 3.0
    # Parent links and the operation id are recorded with every span.
    by_name = {span[1]: span for span in tracer.spans}
    assert by_name["z/Work.c"][4] == by_name["y/Work.b"][0]
    assert by_name["x/Work.a"][4] == by_name["op/run"][0]
    assert {span[5] for span in tracer.spans} == {"op-1"}
    # Self times plus the operation's remainder add up to the wall time.
    assert layers.attribution_gap(tracer) == 0.0
    tracer.unwrap_all()


def test_calls_outside_an_operation_are_not_recorded():
    clock = FakeClock()
    work = _tree(clock)
    tracer = Tracer(clock=clock)
    tracer.wrap(work, "a", "x/Work.a")
    work().a()
    assert tracer.spans == []
    tracer.unwrap_all()


def test_count_function_is_stored_with_the_span():
    module = types.SimpleNamespace()
    module.__dict__["items"] = lambda n: list(range(n))
    tracer = Tracer()
    tracer.wrap(module, "items", "x/items", count=lambda result, args: len(result))
    with tracer.operation("op/run", "op-1"):
        module.items(4)
        module.items(3)
    assert tracer.aggregate()["x/items"][COUNT] == 7
    tracer.unwrap_all()


def test_generator_is_timed_over_its_consumption_only():
    clock = FakeClock()

    class Source:
        def worlds(self, n):
            for index in range(n):
                clock.spend(1.0)  # producing one item
                yield index

    tracer = Tracer(clock=clock)
    tracer.wrap(Source, "worlds", "e/Source.worlds")
    with tracer.operation("op/run", "op-1"):
        consumed = []
        for item in Source().worlds(3):
            clock.spend(10.0)  # the consumer's own work between items
            consumed.append(item)
    assert consumed == [0, 1, 2]
    entry = tracer.aggregate()["e/Source.worlds"]
    # Three resumptions yield an item, the fourth finds the end.
    assert entry[CALLS] == 4 and entry[COUNT] == 3
    assert entry[TOTAL] == 3.0 and entry[SELF] == 3.0
    assert tracer.aggregate()["op/run"][SELF] == 30.0
    tracer.unwrap_all()


def test_generator_abandoned_early_leaves_no_open_span():
    clock = FakeClock()

    class Source:
        def worlds(self):
            while True:
                clock.spend(1.0)
                yield 1

    tracer = Tracer(clock=clock)
    tracer.wrap(Source, "worlds", "e/Source.worlds")
    with tracer.operation("op/run", "op-1"):
        for _ in Source().worlds():
            break
    assert tracer.aggregate()["op/run"][TOTAL] == 1.0
    assert layers.attribution_gap(tracer) == 0.0
    tracer.unwrap_all()


def test_every_wrapped_attribute_is_restored_even_after_an_error():
    class Owner:
        def method(self):
            return 1

        @staticmethod
        def static():
            return 2

        @classmethod
        def klass(cls):
            return 3

        @property
        def prop(self):
            return 4

    module = types.ModuleType("fake_module")
    module.function = lambda: 5
    originals = {name: Owner.__dict__[name] for name in ("method", "static", "klass", "prop")}
    original_function = module.function
    tracer = Tracer()
    targets = [(Owner, name, f"x/Owner.{name}", None) for name in originals]
    targets.append((module, "function", "x/function", None))
    with pytest.raises(RuntimeError):
        with tracer.installed(targets):
            assert tracer.wrapped == 5
            with tracer.operation("op/run", "op-1"):
                owner = Owner()
                assert (owner.method(), Owner.static(), Owner.klass(), owner.prop,
                        module.function()) == (1, 2, 3, 4, 5)
            raise RuntimeError("run failed")
    assert tracer.wrapped == 0
    for name, raw in originals.items():
        assert Owner.__dict__[name] is raw
    assert module.function is original_function
    assert {span[1] for span in tracer.spans} >= {f"x/Owner.{n}" for n in originals}


def test_an_inherited_attribute_is_refused():
    class Base:
        def method(self):
            return 1

    class Child(Base):
        pass

    with pytest.raises(AttributeError):
        Tracer().wrap(Child, "method", "x/Child.method")


def test_spans_of_a_worker_thread_are_adopted_by_the_operation():
    clock = FakeClock()
    work = _tree(clock)
    tracer = Tracer(clock=clock)
    tracer.wrap(work, "c", "z/Work.c")
    with tracer.operation("op/solve", "solve-1"):
        worker = threading.Thread(target=lambda: work().c())
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    stats = tracer.aggregate()
    assert stats["z/Work.c"][TOTAL] == 3.0
    assert stats["op/solve"][SELF] == 0.0
    by_name = {span[1]: span for span in tracer.spans}
    assert by_name["z/Work.c"][4] == by_name["op/solve"][0]
    tracer.unwrap_all()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_calls_straight_through():
    clock = FakeClock()
    work = _tree(clock)
    tracer = Tracer(clock=clock)
    tracer.wrap(work, "c", "z/Work.c")
    read_end, write_end = os.pipe()
    with tracer.operation("op/run", "op-1"):
        pid = os.fork()
        if pid == 0:  # child
            work().c()
            os.write(write_end, str(len(tracer.spans)).encode())
            os._exit(0)
        os.close(write_end)
        recorded_in_child = int(os.read(read_end, 32).decode())
        os.close(read_end)
        _, status = os.waitpid(pid, 0)
    assert status == 0
    assert recorded_in_child == 0
    tracer.unwrap_all()


def test_layer_targets_wrap_and_restore_the_program():
    targets = layers.targets()
    originals = [(owner, attribute, vars(owner)[attribute]) for owner, attribute, _, _ in targets]
    names = [name for _, _, name, _ in targets]
    assert len(set(names)) == len(names)
    assert {layers.layer_of(name) for name in names} == set(layers.LAYERS)
    tracer = Tracer()
    with tracer.installed(targets):
        assert tracer.wrapped == len(targets)
    for owner, attribute, raw in originals:
        assert vars(owner)[attribute] is raw


def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads)
    for entry in spec["workloads"]:
        assert entry["why"] == workloads[entry["name"]]["why"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    recorded = json.loads((BENCH / "recorded_split.json").read_text(encoding="utf-8"))
    assert list(recorded["workloads"]) == list(workloads)
    for split in recorded["workloads"].values():
        assert set(split) == set(layers.PER_LAYER)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert layers.percentile(values, 0.99) == 99.0
    assert layers.percentile(values, 0.5) == 50.0
    assert layers.percentile([7.0], 0.99) == 7.0
