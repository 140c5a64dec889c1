"""Random multi-lane worlds and a brute-force collision oracle, shared by the
event-detector tests in `test_simcore.py` and acceptance criterion 8(b)."""

from accsim.scenario import ROUTE_THROUGH, RoadGeometry, RunConfig
from accsim.simcore import Vehicle, World


def random_world(rng):
    """A 500 m, 1-3 lane world of 0-12 vehicles per lane, front first.

    Draws from `rng` (a `random.Random`) in a fixed order: lane count,
    world seed, then per lane the vehicle count, the positions and each
    vehicle's speed and length.
    """
    geometry = RoadGeometry(mainline_length=500.0, lane_count=rng.randint(1, 3),
                            ramp_kind="none")
    run = RunConfig(episode_duration=10.0, warmup_duration=0.0)
    world = World(geometry, run, [], seed=rng.randint(0, 10 ** 6))
    vid = 0
    for lid in world.lane_ids:
        xs = sorted(rng.uniform(0.0, 500.0) for _ in range(rng.randint(0, 12)))
        for x in reversed(xs):  # front-first ordering
            v = rng.uniform(0.0, 33.0)
            length = rng.uniform(4.0, 5.0)
            world.lanes[lid].append(Vehicle(vid, x, v, length, lid, 0.0, 1.0,
                                            2.6, False, ROUTE_THROUGH, 0.0))
            vid += 1
    return world


def brute_force_pairs(world):
    """Independent all-pairs oracle: (near-collision, collision) pairs.

    A bumper overlap (gap < 0) is a collision; 0 <= gap < min_gap with the
    follower strictly faster is a near collision.
    """
    near, crash = set(), set()
    min_gap = world.run.min_gap_for_near_collision
    for lid in world.lane_ids:
        lane = world.lanes[lid]
        for follower in lane:
            ahead = [w for w in lane if w.x > follower.x]
            if not ahead:
                continue
            leader = min(ahead, key=lambda w: w.x)
            gap = leader.x - leader.length - follower.x
            if gap < 0.0:
                crash.add((follower.id, leader.id))
            elif gap < min_gap and follower.v > leader.v:
                near.add((follower.id, leader.id))
    return near, crash


def logged_pairs(world, kind):
    """(subject, object) pairs of the logged events of `kind`."""
    return {(e.subject, e.object) for e in world.events if e.kind == kind}
