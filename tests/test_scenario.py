"""Config loading, validation, and spawn-schedule tests."""

import random
from dataclasses import replace

import pytest

from accsim.scenario import (
    RAMP_LANE,
    ROUTE_EXIT,
    ROUTE_MERGE,
    ROUTE_THROUGH,
    DemandSpec,
    RoadGeometry,
    RunConfig,
    Scenario,
    ScenarioError,
    load_builtin,
    load_scenario,
    spawn_schedule,
)

GOOD_CFG = """\
[geometry]
mainline_length = 1000
lane_count = 2
ramp_kind = on_ramp
ramp_length = 300
accel_lane_length = 150
ramp_junction_position = 600

[demand]
mainline_flow = 1200
ramp_flow = 400
penetration_rate = 0.5
arrival_process = poisson

[run]
episode_duration = 120
physics_timestep = 0.1
control_interval = 1.0
warmup_duration = 10

[agents]
alpha_fn = 2
"""


def write(tmp_path, text, name="scn.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# ---- loading ------------------------------------------------------------


def test_load_good_config(tmp_path):
    sc = load_scenario(write(tmp_path, GOOD_CFG))
    assert sc.name == "scn"
    assert sc.geometry.lane_count == 2
    assert sc.demand.penetration_rate == 0.5
    assert sc.run.steps_per_control == 10
    assert sc.agents.alpha_fn == 2.0
    assert sc.agents.alpha_ac == 10.0  # default survives partial section


def test_missing_file_raises(tmp_path):
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario(tmp_path / "nope.cfg")


def test_unknown_key_rejected(tmp_path):
    bad = GOOD_CFG.replace("lane_count = 2", "lane_cuont = 2")
    with pytest.raises(ScenarioError, match="lane_cuont"):
        load_scenario(write(tmp_path, bad))


def test_run_seed_key_rejected(tmp_path):
    # nothing read run.seed; episode seeds come from the harness
    bad = GOOD_CFG.replace("[run]\n", "[run]\nseed = 1\n")
    assert bad != GOOD_CFG
    with pytest.raises(ScenarioError, match="seed"):
        load_scenario(write(tmp_path, bad))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ScenarioError, match="weather"):
        load_scenario(write(tmp_path, GOOD_CFG + "\n[weather]\nrain = 1\n"))


def test_unparsable_number_rejected(tmp_path):
    bad = GOOD_CFG.replace("mainline_flow = 1200", "mainline_flow = heavy")
    with pytest.raises(ScenarioError, match="mainline_flow"):
        load_scenario(write(tmp_path, bad))


def test_builtin_configs_load_and_validate():
    for name in ("onramp", "offramp", "straight", "desk"):
        sc = load_builtin(name)
        sc.validate()
        assert sc.name == name


# ---- validation ---------------------------------------------------------


def base_scenario():
    return Scenario("t", RoadGeometry(), DemandSpec(), RunConfig())


@pytest.mark.parametrize("section,field_name,value,match", [
    ("geometry", "lane_count", 0, "lane_count"),
    ("geometry", "ramp_kind", "cloverleaf", "ramp_kind"),
    ("geometry", "ramp_junction_position", 2000.0, "junction"),
    ("geometry", "accel_lane_length", 400.0, "accel_lane_length"),
    ("demand", "penetration_rate", 1.5, "penetration_rate"),
    ("demand", "ramp_flow", -1.0, "ramp_flow"),
    ("demand", "arrival_process", "burst", "arrival_process"),
    ("run", "physics_timestep", 0.0, "physics_timestep"),
    ("run", "control_interval", 0.25, "multiple"),
    ("run", "warmup_duration", 9999.0, "warmup_duration"),
    ("run", "min_gap_for_near_collision", 0.0, "min_gap"),
    ("run", "accel_bound", -2.6, "accel_bound"),
])
def test_validation_rejects(section, field_name, value, match):
    sc = base_scenario()
    bad_section = replace(getattr(sc, section), **{field_name: value})
    with pytest.raises(ScenarioError, match=match):
        sc.replace(**{section: bad_section})


def test_replace_returns_validated_copy():
    sc = base_scenario()
    out = sc.replace(demand=replace(sc.demand, penetration_rate=0.8))
    assert out.demand.penetration_rate == 0.8
    assert sc.demand.penetration_rate == 0.0  # original untouched


# ---- spawn schedule -----------------------------------------------------


def test_schedule_sorted_and_within_duration():
    sc = load_builtin("onramp")
    events = spawn_schedule(sc.demand, sc.geometry, 420.0, random.Random(1))
    times = [e.time for e in events]
    assert times == sorted(times)
    assert all(0.0 < t < 420.0 for t in times)


def test_schedule_deterministic_for_seed():
    sc = load_builtin("onramp")
    a = spawn_schedule(sc.demand, sc.geometry, 420.0, random.Random(7))
    b = spawn_schedule(sc.demand, sc.geometry, 420.0, random.Random(7))
    assert a == b


def test_schedule_poisson_rates_match_demand():
    geometry = RoadGeometry(ramp_kind="on_ramp")
    demand = DemandSpec(mainline_flow=1800.0, ramp_flow=600.0,
                        penetration_rate=0.8)
    duration = 3600.0
    events = spawn_schedule(demand, geometry, duration, random.Random(3))
    ramp = [e for e in events if e.lane == RAMP_LANE]
    mainline = [e for e in events if e.lane != RAMP_LANE]
    # Poisson counts: 3 lanes x 1800 and 600 expected; 5 sigma slack
    assert abs(len(mainline) - 3 * 1800) < 5 * (3 * 1800) ** 0.5
    assert abs(len(ramp) - 600) < 5 * 600 ** 0.5
    assert all(e.route == ROUTE_MERGE for e in ramp)
    assert all(e.route == ROUTE_THROUGH for e in mainline)
    equipped = sum(e.is_acc_equipped for e in events)
    frac = equipped / len(events)
    assert abs(frac - 0.8) < 0.02


def test_schedule_uniform_headway_is_regular():
    demand = DemandSpec(mainline_flow=720.0, arrival_process="uniform_headway")
    geometry = RoadGeometry(lane_count=1, ramp_kind="none")
    events = spawn_schedule(demand, geometry, 60.0, random.Random(0))
    times = [e.time for e in events]
    headways = [b - a for a, b in zip(times, times[1:])]
    assert all(abs(h - 5.0) < 1e-9 for h in headways)  # 720 veh/h -> 5 s
    assert times[0] == pytest.approx(2.5)


def test_schedule_off_ramp_exit_routes_on_mainline_lanes():
    geometry = RoadGeometry(ramp_kind="off_ramp")
    demand = DemandSpec(mainline_flow=0.0, ramp_flow=900.0)
    events = spawn_schedule(demand, geometry, 600.0, random.Random(5))
    assert events, "expected exit traffic"
    assert all(e.route == ROUTE_EXIT for e in events)
    lanes = {e.lane for e in events}
    assert lanes <= {0, 1, 2} and RAMP_LANE not in lanes


def test_schedule_zero_flow_empty():
    geometry = RoadGeometry(ramp_kind="none")
    demand = DemandSpec(mainline_flow=0.0, ramp_flow=0.0)
    assert spawn_schedule(demand, geometry, 100.0, random.Random(0)) == []


def test_schedule_bad_duration_raises():
    sc = base_scenario()
    with pytest.raises(ScenarioError):
        spawn_schedule(sc.demand, sc.geometry, 0.0, random.Random(0))
