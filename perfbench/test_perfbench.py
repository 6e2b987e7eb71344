"""Tests of the benchmark's own arithmetic: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- percentile rule ------------------------------------------------------------


def test_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert stats.nearest_rank(values, 50) == 50
    assert stats.nearest_rank(values, 90) == 90
    assert stats.nearest_rank(values, 100) == 100
    assert stats.nearest_rank([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)


def test_samples_beyond_and_highest_tail_percentile():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(99, 90) == 9
    assert stats.samples_beyond(248, 90) == 24
    assert stats.highest_tail_percentile(100) == 90.0
    assert stats.highest_tail_percentile(99) == 50.0
    assert stats.highest_tail_percentile(248) == 95.0
    assert stats.highest_tail_percentile(1000) == 99.0
    assert stats.highest_tail_percentile(10_000) == 99.9
    assert stats.highest_tail_percentile(15) is None


def test_item_medians_match_items_across_passes():
    passes = [
        [{"id": "a", "s": 1.0}, {"id": "b", "s": 9.0}],
        [{"id": "b", "s": 3.0}, {"id": "a", "s": 2.0}],
        [{"id": "a", "s": 30.0}, {"id": "b", "s": None}],
    ]
    assert sorted(stats.item_medians(passes)) == [2.0, 6.0]


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 5) == 0.0
    assert stats.quartile_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


# -- self time -------------------------------------------------------------------


def test_covered_ns_merges_and_clips():
    assert stats.covered_ns(0, 100, []) == 0
    assert stats.covered_ns(0, 100, [(10, 40), (30, 50), (60, 70)]) == 50
    assert stats.covered_ns(0, 100, [(-5, 10), (90, 120)]) == 20
    assert stats.covered_ns(0, 100, [(200, 300)]) == 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("a", 0, 100, -1),
        ("b", 10, 40, 0),
        ("c", 20, 30, 1),  # grandchild of a: inside b, not subtracted twice
        ("d", 50, 70, 0),
        ("d", 60, 90, 0),  # overlaps its sibling: the union is subtracted
    ]
    agg = stats.aggregate_spans(spans)
    ns = 1e-9
    assert agg["a"]["self_s"] == pytest.approx((100 - 30 - 40) * ns)
    assert agg["b"]["self_s"] == pytest.approx((30 - 10) * ns)
    assert agg["c"]["self_s"] == pytest.approx(10 * ns)
    assert agg["d"]["calls"] == 2
    assert agg["a"]["s"] == pytest.approx(100 * ns)


def test_recursive_span_counts_inclusive_time_once():
    spans = [("f", 0, 50, -1), ("g", 5, 45, 0), ("f", 10, 40, 1)]
    agg = stats.aggregate_spans(spans)
    assert agg["f"]["calls"] == 2
    assert agg["f"]["s"] == pytest.approx(50e-9)
    assert agg["f"]["self_s"] == pytest.approx((10 + 30) * 1e-9)


# -- tracer ------------------------------------------------------------------------


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def leaf(x):
        return x + 1

    def outer(x):
        return core.leaf(x) * 2

    class Box:
        def get(self):
            return core.leaf(0)

    core.leaf, core.outer, core.Box = leaf, outer, Box
    user.outer = outer  # imported by name: must be re-bound too
    mods = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(mods)
    yield core, user
    for name in mods:
        sys.modules.pop(name, None)


def test_tracer_wraps_and_rebinds(fake_package):
    core, user = fake_package
    tracer = tracing.Tracer(package="fakepkg")
    tracer.span("core.outer", "fakepkg.core", "outer")
    tracer.span("core.Box.get", "fakepkg.core", "Box.get")
    tracer.count("core.leaf.calls", "fakepkg.core", "leaf", under="core.outer")
    assert user.outer is core.outer
    assert user.outer(1) == 4
    assert core.Box().get() == 1
    assert tracer.counts["core.leaf.calls"] == 1  # the call under Box.get is not counted
    names = [s[0] for s in tracer.spans]
    assert names == ["core.outer", "core.Box.get"]
    assert all(s[3] == -1 and s[2] >= s[1] for s in tracer.spans)


def test_tracer_records_parent_of_nested_span(fake_package):
    core, _ = fake_package
    tracer = tracing.Tracer(package="fakepkg")
    tracer.span("core.leaf", "fakepkg.core", "leaf")
    tracer.span("core.outer", "fakepkg.core", "outer")
    core.outer(3)
    (outer, leaf) = sorted(tracer.spans, key=lambda s: s[1])
    assert outer[0] == "core.outer" and leaf[0] == "core.leaf"
    assert leaf[3] == tracer.spans.index(outer)
    assert outer[1] <= leaf[1] <= leaf[2] <= outer[2]


# -- known answers and digests ------------------------------------------------------


def _sweep_case():
    inputs = {"types": ["A1"], "primes_per_type": 1, "q_exponents": [1], "n_values": [1, 2]}
    items = [
        {"id": "A1/p3/q3/n1", "s": 0.01, "verdict": "pass", "error": ""},
        {"id": "A1/p3/q3/n2", "s": 0.01, "verdict": "pass", "error": ""},
    ]
    return inputs, {"items": items, "skipped": 0, "digests": {"sweep": "aa"}}


def _reverify_case():
    coords = [{"residue": [1], "valuation": "0"}, {"residue": [0], "valuation": "0"}]
    docs = [
        {"id": "B2/ok", "text": json.dumps({"coords": coords}), "expect": "pass"},
        {"id": "B2/zero2", "text": json.dumps({"coords": coords}), "expect": "fail", "zeroed": 1},
    ]
    items = [
        {"id": "B2/ok", "s": 0.01, "verdict": "pass", "error": "", "failing": []},
        {"id": "B2/zero2", "s": 0.01, "verdict": "fail", "error": "", "failing": [[0, 1], [1, 1]]},
    ]
    return {"docs": docs}, {"items": items, "digests": {"reverify": "bb"}}


def _battery_case():
    items = [{"id": "cusp/x0001", "s": 0.01, "verdict": "passed", "error": ""}]
    return {}, {"items": items, "digests": {"batteries.cusp": "cc", "batteries.depth": "dd"}}


CASES = {"sweep": _sweep_case, "reverify": _reverify_case, "batteries": _battery_case}
RECORDED = {"sweep": "aa", "batteries.depth": "dd", "batteries.cusp@seed=7": "cc"}


@pytest.mark.parametrize("workload", sorted(CASES))
def test_known_answers_accept_right_verdicts(workload):
    inputs, result = CASES[workload]()
    assert workloads.check_pass(workload, inputs, result, RECORDED, seed=7) == []


@pytest.mark.parametrize("workload", sorted(CASES))
def test_known_answers_reject_a_wrong_verdict(workload):
    inputs, result = CASES[workload]()
    item = result["items"][-1]
    item["verdict"] = {"sweep": "fail", "reverify": "pass", "batteries": "failed"}[workload]
    problems = workloads.check_pass(workload, inputs, result, RECORDED, seed=7)
    assert len(problems) == 1 and item["id"] in problems[0]


def test_known_answers_reject_tamper_failing_elsewhere():
    inputs, result = _reverify_case()
    result["items"][1]["failing"] = [[1, 0]]  # the zeroed coroot is [0, 1]
    problems = workloads.check_pass("reverify", inputs, result, RECORDED, seed=7)
    assert problems == ["B2/zero2: simple coroot [0, 1] not among the failing"]


def test_known_answers_reject_an_exception():
    inputs, result = _battery_case()
    result["items"][0].update(verdict="failed", error="AssertionError: boom")
    problems = workloads.check_pass("batteries", inputs, result, RECORDED, seed=7)
    assert problems == ["cusp/x0001: failed AssertionError: boom"]


def test_digests_reject_changed_output_and_apply_seed_keys():
    inputs, result = _battery_case()
    result["digests"]["batteries.depth"] = "ee"
    problems = workloads.check_pass("batteries", inputs, result, RECORDED, seed=7)
    assert len(problems) == 1 and problems[0].startswith("batteries.depth:")
    # the cusp digest is recorded for seed 7 only
    result["digests"].update({"batteries.depth": "dd", "batteries.cusp": "zz"})
    assert workloads.check_pass("batteries", inputs, result, RECORDED, seed=8) == []
    assert len(workloads.check_pass("batteries", inputs, result, RECORDED, seed=7)) == 1


def test_sweep_rejects_missing_rows():
    inputs, result = _sweep_case()
    result["items"].pop()
    problems = workloads.check_pass("sweep", inputs, result, RECORDED, seed=7)
    assert problems and problems[0].startswith("sweep: 1 rows")


# -- the benchmark definition ---------------------------------------------------------


def test_benchmark_json_lists_what_run_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert per_layer == tracing.per_layer_metrics()
    assert len(per_layer) <= 128
    e2e = {m["name"] for m in bench["end_to_end"]}
    assert e2e == {"wall_s", "item_p50_ms", "item_p90_ms", "setup_s", "peak_rss_mb", "correct_ratio"}
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
