"""Tests of the benchmark's own arithmetic: percentiles, self time, fail counting."""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from stats import Ledger, percentile, spread, tail_rank  # noqa: E402
from tracer import PER_LAYER, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import reference_hall  # noqa: E402


def ticking_clock():
    """A clock that advances by one each time it is read."""
    return itertools.count().__next__


# percentile rule -------------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(10, 0, -1))  # unsorted on purpose
    assert percentile(values, 0.5) == 5
    assert percentile(values, 0.9) == 9
    assert percentile(values, 0.91) == 10
    assert percentile(values, 1.0) == 10
    assert percentile([7.5], 0.5) == 7.5
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile(values, 0)


def test_tail_rank_leaves_ten_samples_beyond():
    assert tail_rank(10) is None
    assert tail_rank(100) == 0.9
    for count in (11, 57, 100, 3447):
        values = list(range(count))
        tail = percentile(values, tail_rank(count))
        assert sum(1 for v in values if v > tail) == 10


def test_spread_uses_statistics_quartiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 12.0, 8.0, 10.1]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert spread([5.0] * 4) == 0


# self time -----------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, 0.0, 10.0, -1, 1),  # A
        (1, 1.0, 4.0, 0, 1),    # B under A
        (2, 2.0, 3.0, 1, 1),    # C under B
        (3, 5.0, 9.0, 0, 1),    # D under A
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_self_time_splits_nested_layers():
    names = [
        "local_invariants.hasse_witt",
        "exact_arith.is_prime",
        "local_invariants.hilbert",
        "local_invariants.hilbert_odd_p",
    ]
    spans = [
        (0, 0.0, 10.0, -1, 1),  # hasse_witt
        (1, 2.0, 5.0, 0, 1),    # is_prime under hasse_witt
        (2, 6.0, 8.0, 0, 1),    # hilbert under hasse_witt
        (3, 6.2, 7.8, 2, 1),    # hilbert_odd_p dispatched from hilbert
        (1, 6.5, 7.5, 3, 1),    # is_prime under hilbert_odd_p
    ]
    metrics = layer_metrics(names, spans, {}, {7, 11})
    assert metrics["local_invariants.self_s"] == pytest.approx(5.0 + 0.4 + 0.6)
    assert metrics["exact_arith.self_s"] == pytest.approx(4.0)
    assert metrics["exact_arith.is_prime.calls"] == 2
    assert metrics["exact_arith.is_prime.distinct_ratio"] == 1.0
    assert metrics["local_invariants.hilbert.calls"] == 1  # the dispatch counts once
    assert metrics["cli.self_s"] == 0


FREE_GROUPS = '''
def hall_count(k):
    return 1 if k == 1 else hall_count(k - 1) + 1
'''

ASSEMBLER = '''
from fakepkg.free_groups import hall_count

def count_lower_bound(k):
    return hall_count(k)
'''


@pytest.fixture
def fake_package():
    modules = {"fakepkg": types.ModuleType("fakepkg")}
    sys.modules["fakepkg"] = modules["fakepkg"]
    for name, source in (("free_groups", FREE_GROUPS), ("assembler", ASSEMBLER)):
        module = types.ModuleType(f"fakepkg.{name}")
        sys.modules[module.__name__] = modules[module.__name__] = module
        exec(source, vars(module))
    yield modules
    for name in modules:
        del sys.modules[name]


def test_recursive_spans_through_every_binding(fake_package):
    free_groups = fake_package["fakepkg.free_groups"]
    assembler = fake_package["fakepkg.assembler"]
    original = free_groups.hall_count
    tracer = Tracer(clock=ticking_clock())
    assert tracer.install("fakepkg", layers=("free_groups", "assembler")) == 2
    try:
        assert assembler.hall_count is free_groups.hall_count is not original
        tracer.op = 7
        assert assembler.count_lower_bound(3) == 3
    finally:
        tracer.uninstall()
    assert free_groups.hall_count is original and assembler.hall_count is original

    names = [tracer.names[span[0]] for span in tracer.spans]
    assert names == [
        "assembler.count_lower_bound",
        "free_groups.hall_count",
        "free_groups.hall_count",
        "free_groups.hall_count",
    ]
    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 2]
    assert {span[4] for span in tracer.spans} == {7}
    # Each clock read ticks once: the innermost span lasts 1, every enclosing
    # span adds 2 ticks of its own.
    assert self_times(tracer.spans) == [2, 2, 2, 1]
    metrics = layer_metrics(tracer.names, tracer.spans, tracer.counters, set())
    assert metrics["free_groups.hall_count.self_s"] == 5


def test_tracer_covers_both_bindings_of_real_functions():
    sys.path.insert(0, str(HERE.parent / "src"))
    import volcount.exact_arith
    import volcount.form_families

    original = volcount.exact_arith.is_prime
    tracer = Tracer()
    tracer.install("volcount")
    try:
        assert volcount.form_families.is_prime is volcount.exact_arith.is_prime is not original
        volcount.form_families.search_primes_isotropic(2)
        volcount.exact_arith.is_prime(101)
    finally:
        tracer.uninstall()
    assert volcount.form_families.is_prime is volcount.exact_arith.is_prime is original
    by_name = {}
    for name_id, _, _, parent, _ in tracer.spans:
        by_name.setdefault(tracer.names[name_id], []).append(parent)
    search = tracer.names.index("form_families.search_primes_isotropic")
    assert -1 in by_name["exact_arith.is_prime"]  # the direct call
    assert any(
        parent >= 0 and tracer.spans[parent][0] == search
        for parent in by_name["exact_arith.is_prime"]
    )


# fail_ratio counting ---------------------------------------------------------

def test_ledger_counts_raising_and_failing_ops():
    ledger = Ledger(clock=ticking_clock())

    def boom():
        raise ValueError("no")

    def bad_check(result):
        raise KeyError(result)

    assert ledger.op("good", lambda: 2, lambda r: None) == 2
    assert ledger.op("raises", boom, lambda r: None) is None
    assert ledger.op("wrong", lambda: 3, lambda r: f"got {r}") == 3
    assert ledger.op("check raises", lambda: 4, bad_check) == 4
    ledger.verify("batch ok", None)
    ledger.verify("batch bad", "digest changed")
    assert (ledger.attempted, ledger.failed) == (6, 4)
    assert ledger.messages[0] == "raises: raised ValueError: no"
    assert "wrong: got 3" in ledger.messages
    # Raising ops count as attempted but give no latency sample; each op is
    # timed by exactly two clock reads.
    assert [len(ledger.latencies(kind)) for kind in ("good", "raises", "wrong")] == [1, 0, 1]
    assert ledger.busy_s() == 4


def test_summary_counts_failures_over_all_passes():
    def one_pass(attempted, failed, op_p50_us=100.0):
        return {"run_s": 1.0, "op_p50_us": op_p50_us, "setup_s": 0.1, "peak_rss_mib": 20.0,
                "attempted": attempted, "failed": failed}

    result = run.summarize([one_pass(10, 0), one_pass(10, 2), one_pass(20, 0, None)], [])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 40, 2)
    assert result["metrics"]["ok_ratio"]["value"] == pytest.approx(1 - 2 / 40)
    assert result["metrics"]["op_p50_us"]["value"] == 100.0  # a pass whose ops all raised has none
    assert run.summarize([one_pass(5, 0)], [])["correct"] is True


def test_ledger_rescales_each_op_by_its_nearest_kernel_timings():
    ledger = Ledger()
    ledger.NEIGHBOURS = 2
    ledger.kernel_s = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    ledger.timings = [
        ("op", 1.0, 2, 2, True),   # between fast kernel timings
        ("op", 1.0, 6, 6, True),   # between slow ones
        ("op", 3.0, 3, 5, True),   # spans a change of speed: median 1.5
        ("op", 5.0, 1, 1, False),  # raised: work, but no latency
    ]
    ledger.sample("criterion", 4.0)  # after the last kernel timing: near = slow ones
    assert ledger.busy_s() == 10.0
    assert ledger.busy_s(2.0) == pytest.approx(2.0 + 1.0 + 4.0 + 10.0)
    assert ledger.latencies("op", 2.0) == pytest.approx([2.0, 1.0, 4.0])
    assert ledger.latencies("criterion", 2.0) == pytest.approx([4.0])


def test_reference_hall_counts():
    assert [reference_hall(k) for k in range(1, 7)] == [1, 3, 13, 71, 461, 3447]


def test_benchmark_json_matches_the_harness():
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in benchmark["per_layer"]} == PER_LAYER
    assert [w["name"] for w in benchmark["workloads"]] == list(run.WORKLOADS)
