"""Scenario definition: road geometry, demand, run configuration.

Scenarios are loaded from INI-style config files with four sections
([geometry], [demand], [run], [agents]).  Unknown keys are rejected so a
typo in a config cannot silently fall back to a default.
"""

from __future__ import annotations

import configparser
import random
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

# Lane index used for the ramp / acceleration lane; mainline lanes are 0..n-1
# with lane 0 adjacent to the ramp.
RAMP_LANE = -1

ROUTE_THROUGH = "through"
ROUTE_EXIT = "exit_at_ramp"
ROUTE_MERGE = "merge_from_ramp"

RAMP_KINDS = ("on_ramp", "off_ramp", "none")
ARRIVAL_PROCESSES = ("poisson", "uniform_headway")


class ScenarioError(ValueError):
    """Config parse or validation failure; message names the offending key."""


@dataclass(frozen=True)
class RoadGeometry:
    mainline_length: float = 1500.0
    lane_count: int = 3
    ramp_kind: str = "on_ramp"
    ramp_length: float = 360.0
    accel_lane_length: float = 180.0
    ramp_junction_position: float = 900.0

    def validate(self) -> None:
        if self.mainline_length <= 0:
            raise ScenarioError("geometry.mainline_length must be > 0")
        if self.lane_count < 1:
            raise ScenarioError("geometry.lane_count must be >= 1")
        if self.ramp_kind not in RAMP_KINDS:
            raise ScenarioError(
                f"geometry.ramp_kind must be one of {RAMP_KINDS}, got {self.ramp_kind!r}"
            )
        if self.ramp_kind != "none":
            if not 0 < self.ramp_junction_position < self.mainline_length:
                raise ScenarioError(
                    "geometry.ramp_junction_position must lie strictly inside the segment"
                )
            if self.ramp_length <= 0:
                raise ScenarioError("geometry.ramp_length must be > 0 when a ramp exists")
            if self.accel_lane_length > self.ramp_length:
                raise ScenarioError(
                    "geometry.accel_lane_length must not exceed geometry.ramp_length"
                )


@dataclass(frozen=True)
class DemandSpec:
    mainline_flow: float = 1800.0  # veh/h/lane
    ramp_flow: float = 0.0  # veh/h (merge or exit demand)
    penetration_rate: float = 0.0
    arrival_process: str = "poisson"

    def validate(self) -> None:
        if self.mainline_flow < 0:
            raise ScenarioError("demand.mainline_flow must be >= 0")
        if self.ramp_flow < 0:
            raise ScenarioError("demand.ramp_flow must be >= 0")
        if not 0.0 <= self.penetration_rate <= 1.0:
            raise ScenarioError("demand.penetration_rate must lie in [0, 1]")
        if self.arrival_process not in ARRIVAL_PROCESSES:
            raise ScenarioError(
                f"demand.arrival_process must be one of {ARRIVAL_PROCESSES}, "
                f"got {self.arrival_process!r}"
            )


@dataclass(frozen=True)
class RunConfig:
    episode_duration: float = 420.0
    physics_timestep: float = 0.1
    control_interval: float = 1.0
    min_gap_for_near_collision: float = 2.5
    congestion_speed: float = 8.0  # m/s, efficiency-reward threshold speed
    warmup_duration: float = 60.0  # excluded from episode metrics
    accel_bound: float = 2.6  # |a| cap, m/s^2; also sets the comfort normalizer

    def validate(self) -> None:
        if self.physics_timestep <= 0:
            raise ScenarioError("run.physics_timestep must be > 0")
        if self.control_interval < self.physics_timestep:
            raise ScenarioError("run.control_interval must be >= run.physics_timestep")
        ratio = self.control_interval / self.physics_timestep
        if abs(ratio - round(ratio)) > 1e-9:
            raise ScenarioError(
                "run.control_interval must be an integer multiple of run.physics_timestep"
            )
        if self.episode_duration <= 0:
            raise ScenarioError("run.episode_duration must be > 0")
        if self.min_gap_for_near_collision <= 0:
            raise ScenarioError("run.min_gap_for_near_collision must be > 0")
        if self.congestion_speed <= 0:
            raise ScenarioError("run.congestion_speed must be > 0")
        if self.warmup_duration < 0 or self.warmup_duration >= self.episode_duration:
            raise ScenarioError(
                "run.warmup_duration must be >= 0 and < run.episode_duration"
            )
        if self.accel_bound <= 0:
            raise ScenarioError("run.accel_bound must be > 0")

    @property
    def steps_per_control(self) -> int:
        return round(self.control_interval / self.physics_timestep)


@dataclass(frozen=True)
class AgentConfig:
    ttc_decision_interval: float = 10.0  # seconds between threshold updates
    alpha_fp: float = 1.0
    alpha_fn: float = 2.0
    alpha_ac: float = 10.0
    beta_efficiency: float = 1.0
    beta_safety: float = 1.0
    beta_comfort: float = 1.0
    ttc_lambda_decay: float = 0.99985
    acc_lambda_decay: float = 0.9998
    train_start_buffer: int = 1000
    training_schedule: str = "simultaneous"  # or "alternating"

    def validate(self) -> None:
        if self.ttc_decision_interval <= 0:
            raise ScenarioError("agents.ttc_decision_interval must be > 0")
        for key in ("alpha_fp", "alpha_fn", "alpha_ac",
                    "beta_efficiency", "beta_safety", "beta_comfort"):
            if getattr(self, key) < 0:
                raise ScenarioError(f"agents.{key} must be >= 0")
        for key in ("ttc_lambda_decay", "acc_lambda_decay"):
            if not 0 < getattr(self, key) <= 1:
                raise ScenarioError(f"agents.{key} must lie in (0, 1]")
        if self.train_start_buffer < 1:
            raise ScenarioError("agents.train_start_buffer must be >= 1")
        if self.training_schedule not in ("simultaneous", "alternating"):
            raise ScenarioError(
                "agents.training_schedule must be 'simultaneous' or 'alternating'"
            )


@dataclass(frozen=True)
class Scenario:
    name: str
    geometry: RoadGeometry
    demand: DemandSpec
    run: RunConfig
    agents: AgentConfig = field(default_factory=AgentConfig)

    def validate(self) -> None:
        self.geometry.validate()
        self.demand.validate()
        self.run.validate()
        self.agents.validate()

    def replace(self, **section_overrides) -> "Scenario":
        """Return a copy with whole sections swapped (geometry=, demand=, ...)."""
        from dataclasses import replace as _replace

        out = _replace(self, **section_overrides)
        out.validate()
        return out


@dataclass(frozen=True)
class SpawnEvent:
    time: float
    lane: int  # RAMP_LANE for ramp entries
    is_acc_equipped: bool
    route: str


_SECTIONS = {
    "geometry": RoadGeometry,
    "demand": DemandSpec,
    "run": RunConfig,
    "agents": AgentConfig,
}

_INT_KEYS = {"lane_count", "train_start_buffer"}
_STR_KEYS = {"ramp_kind", "arrival_process", "training_schedule"}


def _coerce(section: str, key: str, raw: str):
    if key in _STR_KEYS:
        return raw.strip()
    try:
        if key in _INT_KEYS:
            return int(raw)
        return float(raw)
    except ValueError:
        raise ScenarioError(f"[{section}] {key}: could not parse number {raw!r}") from None


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario config file.

    Raises ScenarioError naming the offending section/key on unknown keys,
    unparsable values, or violated invariants.
    """
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except configparser.Error as exc:
        raise ScenarioError(f"parse error in {path}: {exc}") from exc

    built = {}
    for section, cls in _SECTIONS.items():
        known = {f.name for f in fields(cls)}
        values = {}
        if parser.has_section(section):
            for key, raw in parser.items(section):
                if key not in known:
                    raise ScenarioError(f"unknown key [{section}] {key} in {path}")
                values[key] = _coerce(section, key, raw)
        built[section] = cls(**values)
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ScenarioError(f"unknown section [{section}] in {path}")

    scenario = Scenario(name=path.stem, **built)
    scenario.validate()
    return scenario


def builtin_config_path(name: str) -> Path:
    """Path of a shipped default config ('onramp', 'offramp', 'straight')."""
    ref = resources.files("accsim.configs").joinpath(f"{name}.cfg")
    with resources.as_file(ref) as p:
        return Path(p)


def load_builtin(name: str) -> Scenario:
    return load_scenario(builtin_config_path(name))


def spawn_schedule(
    demand: DemandSpec,
    geometry: RoadGeometry,
    duration: float,
    rng: random.Random,
) -> list[SpawnEvent]:
    """Draw the arrival schedule for one episode.

    Mainline lanes each carry an independent arrival stream at
    ``mainline_flow`` veh/h.  For an on-ramp the ramp carries a merge stream
    at ``ramp_flow`` veh/h; for an off-ramp an exit stream at ``ramp_flow``
    veh/h is injected on uniformly random mainline lanes.  Equipped status is
    Bernoulli(penetration_rate) per vehicle.  The returned list is sorted by
    arrival time.
    """
    if duration <= 0:
        raise ScenarioError("spawn_schedule: duration must be > 0")
    events: list[SpawnEvent] = []

    def stream(rate_per_hour: float, lane_of, route: str) -> None:
        if rate_per_hour <= 0:
            return
        mean_headway = 3600.0 / rate_per_hour
        if demand.arrival_process == "uniform_headway":
            t = 0.5 * mean_headway
            while t < duration:
                events.append(SpawnEvent(t, lane_of(), rng.random() < demand.penetration_rate, route))
                t += mean_headway
        else:
            t = rng.expovariate(1.0 / mean_headway)
            while t < duration:
                events.append(SpawnEvent(t, lane_of(), rng.random() < demand.penetration_rate, route))
                t += rng.expovariate(1.0 / mean_headway)

    for lane in range(geometry.lane_count):
        stream(demand.mainline_flow, lambda lane=lane: lane, ROUTE_THROUGH)
    if geometry.ramp_kind == "on_ramp":
        stream(demand.ramp_flow, lambda: RAMP_LANE, ROUTE_MERGE)
    elif geometry.ramp_kind == "off_ramp":
        stream(demand.ramp_flow, lambda: rng.randrange(geometry.lane_count), ROUTE_EXIT)

    events.sort(key=lambda e: (e.time, e.lane))
    return events
