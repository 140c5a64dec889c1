"""Fast tests of the benchmark's runner, tracer and round loop: the
metric names agree with BENCHMARK.json, a traced episode yields every
per-layer metric and leaves the program unpatched, and a run measures
whole rounds only."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from accsim import agents, harness, rlcore, scenario, simcore  # noqa: E402

import run  # noqa: E402
from timing import percentile  # noqa: E402
from tracing import METRIC_UNITS, PER_CALL, TIMED, Tracer, span_targets  # noqa: E402,E501
from workloads import OnrampDecide, Round, Workload, measure  # noqa: E402,E501

MODULES = (simcore, agents, rlcore, scenario, harness)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == METRIC_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_parse_args_rejects_unknown_workloads_and_bad_numbers():
    args = run.parse_args(["--workload", "desk-train", "--seed", "3",
                           "--seconds", "2", "--trace", "1"])
    assert (args.workload, args.seed, args.seconds, args.trace) == \
        ("desk-train", 3, 2, 1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert run.parse_args(["--workload", "desk-train"]).seconds == \
        spec["run_seconds"]
    for bad in (["--workload", "desk"],
                ["--workload", "desk-train", "--seed", "-1"],
                ["--workload", "desk-train", "--seconds", "0"],
                ["--workload", "desk-train", "--trace", "2"]):
        with pytest.raises(SystemExit):
            run.parse_args(bad)


def test_runner_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk-train",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
    assert not (tmp_path / "bench_out").exists()


def test_span_self_time_excludes_nested_spans_and_folds_recursion():
    class Owner:
        def outer(self, depth):
            time.sleep(0.002)
            self.inner()
            return self.outer(depth - 1) if depth else "done"

        def inner(self):
            time.sleep(0.002)

    tracer = Tracer()
    tracer.patches.wrap(Owner, "outer", tracer.span("x.outer"))
    tracer.patches.wrap(Owner, "inner", tracer.span("x.inner"))
    Owner().outer(1)  # phase None: nothing recorded
    assert len(tracer.arrays()["id"]) == 0
    tracer.phase = TIMED
    assert Owner().outer(1) == "done"
    tracer.uninstall()
    cols = tracer.arrays()
    names = [tracer.names[i] for i in cols["name"]]
    # the recursive outer call folds into the outermost one
    assert names == ["x.inner", "x.inner", "x.outer"]
    outer = names.index("x.outer")
    inner = [i for i, n in enumerate(names) if n == "x.inner"]
    assert all(cols["parent"][i] == cols["id"][outer] for i in inner)
    inner_ns = sum(int(cols["end"][i] - cols["start"][i]) for i in inner)
    assert cols["self"][outer] == \
        cols["end"][outer] - cols["start"][outer] - inner_ns
    assert all(cols["self"][i] == cols["end"][i] - cols["start"][i]
               for i in inner)
    assert Owner.__dict__["outer"].__name__ == "outer"


def test_traced_episode_gives_every_layer_metric_and_restores_program():
    desk = scenario.load_builtin("desk")
    targets = span_targets(*MODULES)
    originals = [(owner, attr, getattr(owner, attr, None))
                 for owner, attr, _ in targets]
    originals += [(agents, "compute_ttc", agents.compute_ttc),
                  (simcore.World, "lane_change_decision",
                   simcore.World.lane_change_decision)]

    tracer = Tracer()
    tracer.install(*MODULES)
    tracer.phase = TIMED
    t0 = time.perf_counter()
    agents.run_episode(desk, agents.make_adaptive_policy(desk), mode="eval",
                       seed=5)
    traced_s = time.perf_counter() - t0
    tracer.phase = None
    tracer.uninstall()
    for owner, attr, original in originals:
        assert getattr(owner, attr, None) is original, (owner, attr)

    t0 = time.perf_counter()
    agents.run_episode(desk, agents.make_adaptive_policy(desk), mode="eval",
                       seed=5)
    untraced_s = time.perf_counter() - t0
    values, absent = tracer.layer_metrics(1, traced_s, untraced_s, 1000)
    assert set(values) == set(METRIC_UNITS) and absent == []
    for metric in ("simcore.step.us", "agents.encode.us", "agents.act.us",
                   "rlcore.forward.us", "agents.decision.p99_us",
                   "metrics.ttc_calls_per_op"):
        assert values[metric] > 0, metric
    assert values["simcore.vehicle_steps_per_op"] == 1000
    shares = [values[f"{layer}.share"] for layer in
              ("simcore", "agents", "rlcore", "metrics", "scenario",
               "harness")]
    assert all(s >= 0 for s in shares) and 0.5 < sum(shares) <= 1.0
    assert set(PER_CALL) <= set(values)


def test_decisions_need_an_action_and_end_at_the_next_step():
    tracer = Tracer()
    spans = {name: tracer.span(name)(lambda: None) for name in (
        "agents.encode", "agents.act", "agents.broadcast", "simcore.step")}
    tracer.phase = TIMED
    for name in ("agents.encode", "agents.act", "agents.broadcast",
                 "agents.act", "simcore.step",   # one decision
                 "agents.encode", "simcore.step",  # no action: none
                 "agents.encode", "agents.act"):   # one, ended by the trace
        spans[name]()
    cols = tracer.arrays()
    decisions = tracer.decision_times_ns(cols)
    assert len(decisions) == 2
    durations = (cols["end"] - cols["start"]).tolist()
    assert decisions == [sum(durations[:4]), sum(durations[7:9])]


class CountingWorkload(Workload):
    """Three ops per round; the second op of every round fails."""

    name = "counting"

    def setup(self) -> None:
        pass

    def run_round(self, r: int) -> Round:
        time.sleep(0.001)
        return Round([0.001, 0.002, 0.003], units=10, failed=1, outputs=r)

    def check_round(self, r: int, result: Round) -> list[str]:
        return [] if result.outputs == r else [f"round {r} out of order"]


def test_measure_runs_whole_rounds_only(tmp_path):
    workload = CountingWorkload(0, tmp_path)
    try:
        exact = measure(workload, rounds=4)
        timed = measure(workload, seconds=0.01)
    finally:
        workload.close()
    assert (exact.rounds, exact.ops, exact.failed) == (4, 12, 4)
    assert exact.errors == [] and len(exact.round_ops_per_s) == 4
    assert timed.timed_s >= 0.01 and timed.ops == 3 * timed.rounds
    assert timed.failed * 3 == timed.ops
    assert simcore.World.step.__name__ == "step"



def test_decide_snapshots_spread_over_the_evaluated_window(tmp_path):
    workload = OnrampDecide(0, tmp_path)
    workload.close()
    workload.scenario = scenario.load_builtin("onramp")
    run = workload.scenario.run
    per_world = [workload.snapshot_steps(k) for k in range(workload.WORLDS)]
    steps = sorted(s for world in per_world for s in world)
    assert all(len(world) == workload.SNAPSHOTS for world in per_world)
    assert len(set(steps)) == workload.WORLDS * workload.SNAPSHOTS
    assert all(s % run.steps_per_control == 0 for s in steps)
    warm = run.warmup_duration / run.physics_timestep
    end = run.episode_duration / run.physics_timestep
    spacing = (end - warm) / len(steps)
    assert warm < steps[0] <= warm + spacing
    assert end - spacing <= steps[-1] < end
    gaps = [b - a for a, b in zip(steps, steps[1:])]
    assert max(gaps) - min(gaps) <= run.steps_per_control
    # each world's snapshots reach from the first to the last quarter
    assert all(w[0] < warm + (end - warm) / 4 and
               w[-1] > end - (end - warm) / 4 for w in per_world)

def test_percentile_is_nearest_rank():
    ordered = list(range(1, 11))
    assert percentile(ordered, 50.0) == 5.0
    assert percentile(ordered, 90.0) == 9.0
    assert percentile(ordered, 99.0) == 10.0
    assert percentile(ordered, 0.0) == 1.0
    with pytest.raises(ValueError):
        percentile([], 50.0)
