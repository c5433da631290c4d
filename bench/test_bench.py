"""Tests of the benchmark harness itself (fast; the full runs are not tests)."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from sparsedyn import dynamics, empirical, graphs, localtopo, trees  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_quick_mode_checks_every_workload(capsys):
    assert harness.quick(seed=0)
    out = capsys.readouterr().out
    assert all(f"{name} " in out for name in workloads.WORKLOADS)


def test_listed_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_tail_has_ten_ops_beyond():
    lat = [float(i) for i in range(40)]
    value, pct = harness.tail(lat)
    assert value == 29.0 and sum(x > value for x in lat) == 10
    assert pct == pytest.approx(75.0)
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_times_add_up_to_the_outer_span():
    clock = _Clock()
    tr = tracing.Tracer(clock)

    def inner():
        clock.t += 2.0

    traced_inner = tr.fn("inner", inner)

    def outer():
        clock.t += 1.0
        traced_inner()
        traced_inner()
        clock.t += 0.5

    tr.phase = 0
    tr.fn("outer", outer)()
    totals = tr.totals(setup=False)
    assert totals["outer"] == [1, 5.5, 1.5]
    assert totals["inner"] == [2, 4.0, 4.0]
    assert tr.spans[(0, "inner", "outer")][0] == 2


def test_install_restores_every_binding():
    before = [(m, a, getattr(m, a)) for _, m, a, _ in tracing.PATCHES]
    of = dynamics.GraphAux.__dict__["of"]
    tr = tracing.Tracer()
    with tr.installed():
        assert empirical.sample_forest is not trees.sample_forest
        dynamics.GraphAux.of(graphs.Graph(((1,), (0,))))
    assert all(getattr(m, a) is f for m, a, f in before)
    assert dynamics.GraphAux.__dict__["of"] is of
    assert tr.totals(setup=True)["graphs.csr_build"][0] == 1


def test_traced_model_counts_vertex_updates():
    tr = tracing.Tracer()
    tr.phase = 0
    g = graphs.gen_random_regular(20, 3, 1)
    with tr.installed():
        dynamics.simulate_discrete(g, [0] * 20, tr.model(dynamics.voter_model()), 3, 1)
    assert tr.counters[(0, "dynamics.vertex_updates")] == 60
    assert tr.counters[(0, "rng.draws")] == 60


def _toy(op, check=lambda st, key, result: "d"):
    return workloads.Workload("toy", {}, {}, lambda seed, size: None, op, lambda st: 7, check)


def test_failed_ops_are_listed_with_their_seed():
    def op(st, key, tracer):
        if key % 2:
            raise RuntimeError("odd key")
        return key

    run = harness.Run(_toy(op), None, seed=3)
    digests = [run.op(i) for i in range(8)]
    failed = run.failures
    assert len(run.latencies) == 8 and len(failed) == sum(d != "d" for d in digests) > 0
    assert all(f["exception"] == "RuntimeError" and f["op_seed"] % 2 for f in failed)
    assert run.samples == 7 * (8 - len(failed)) and run.check_failures == 0
    assert harness._by_class(failed) == {"RuntimeError": len(failed)}


def test_failed_check_is_counted():
    def check(st, key, result):
        raise workloads.CheckFailed("wrong")

    run = harness.Run(_toy(lambda st, key, tracer: 1, check), None, seed=0)
    assert run.op(0) == "check-error:CheckFailed"
    assert run.check_failures == 1 and run.samples == 0


def test_metric_names_and_units_match_benchmark_json():
    run = harness.Run(_toy(lambda st, key, tracer: 1), None, seed=0)
    for i in range(3):
        run.op(i)
    e2e = harness.end_to_end(run, [0.5, 0.4, 0.6])
    assert {k: u for k, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = harness.per_layer(tracing.Tracer(), 1, 1.0)
    assert {k: u for k, (_, u) in layers.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_tv_tolerance_covers_the_root_law_check():
    # 32 paths of length 5 and 2500 samples per side: about 0.23, against
    # TVs of 0.03 to 0.08 seen at that size
    assert 0.2 < workloads.tv_tolerance(32, 2500, 2500) < 0.25


@pytest.mark.parametrize("name", ["lw_regular", "lw_balls"])
def test_balls_op_computes_lw_deficiency(name):
    w = workloads.WORKLOADS[name]
    st = w.setup(0, w.quick)
    g, _, _, tv = w.op(st, 12345, tracing.OFF)
    expected = localtopo.lw_deficiency(g, st.limit, 2, st.limit_samples, 12345)
    assert tv == pytest.approx(expected, abs=1e-12)


def test_poisson_degrees_are_graphical():
    deg = workloads.poisson_degrees(50, 9)
    assert deg.sum() % 2 == 0 and deg.max() < 50
    assert graphs.gen_configuration_model(deg, 9).vertex_count == 50
    assert trees.poisson_dist(2.0).mean() == pytest.approx(2.0)
