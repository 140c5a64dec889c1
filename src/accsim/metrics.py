"""Time-to-collision, safety-event classification, and episode aggregates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .simcore import (
    EVENT_ACTUAL_COLLISION,
    EVENT_NEAR_COLLISION,
    TimedEvent,
)

INF = math.inf

# Column order of the per-episode results CSV; fixed, do not reorder.
EPISODE_CSV_COLUMNS = (
    "seed", "scenario", "penetration", "ramp_flow",
    "near_collisions", "fp", "fn", "ac",
    "mean_speed", "mean_delay", "mean_abs_accel", "mean_sq_jerk",
)

# Column order of the per-step trajectory CSV (space-time diagram data).
TRAJECTORY_CSV_COLUMNS = (
    "time", "id", "lane", "position", "speed", "accel", "gap", "equipped",
)


class MetricsError(ValueError):
    """Raised for degenerate inputs (e.g. no vehicle completed traversal)."""


def compute_ttc(follower, leader) -> float:
    """Time to collision of `follower` against `leader` immediately ahead.

    Finite only while the follower is strictly faster; otherwise +inf.
    Objects need `x`, `v` and `length` attributes.
    """
    dv = follower.v - leader.v
    if dv <= 0.0:
        return INF
    return (leader.x - follower.x - leader.length) / dv


@dataclass
class SafetyTally:
    fp: int = 0
    fn: int = 0
    ac: int = 0


def classify_safety_events(flagged: set[int],
                           events: Iterable[TimedEvent]) -> SafetyTally:
    """Classify one decision window into FP / FN / AC counts.

    ``flagged`` holds the followers whose TTC fell below the window's danger
    threshold; ``events`` are the near-collision / collision events logged
    in the window.  Per follower: a danger flag without a registered near
    collision is an FP, a near collision without any flag is an FN.  Actual
    collisions count unconditionally.
    """
    nc_followers: set[int] = set()
    ac_count = 0
    for ev in events:
        if ev.kind == EVENT_NEAR_COLLISION:
            nc_followers.add(ev.subject)
        elif ev.kind == EVENT_ACTUAL_COLLISION:
            ac_count += 1
    return SafetyTally(fp=len(flagged - nc_followers),
                       fn=len(nc_followers - flagged), ac=ac_count)


@dataclass
class EpisodeMetrics:
    seed: int
    scenario: str
    penetration: float
    ramp_flow: float
    near_collisions: int
    tally: SafetyTally
    mean_speed: float
    mean_delay: float
    mean_abs_accel: float
    mean_sq_jerk: float

    def csv_row(self) -> list:
        return [
            self.seed, self.scenario, self.penetration, self.ramp_flow,
            self.near_collisions, self.tally.fp, self.tally.fn, self.tally.ac,
            f"{self.mean_speed:.6f}", f"{self.mean_delay:.6f}",
            f"{self.mean_abs_accel:.6f}", f"{self.mean_sq_jerk:.6f}",
        ]


class TrajectoryRow(NamedTuple):
    time: float
    id: int
    lane: int
    position: float
    speed: float
    accel: float
    gap: float  # bumper gap to leader, inf if none
    equipped: bool
