"""Golden digests: pinned sha256 of episode outputs on fixed seeds.

Each evaluation case hashes the full event log, the CSV row and the reprs of
both episode rewards; the training cases hash the data rows of
``rewards.csv`` (its ``# config=`` comment lines are left out, so a change to
an unused config field does not move the digest).  Besides the main grid,
the fixed-threshold gap agent, a second scripted threshold and alternating
training of both trainable systems are pinned, so every control path of
the episode loop is covered; ``offramp`` and ``straight`` episodes are
pinned too, so every despawn and lane-change path of the simulator is.
Any change to simulator, agent or metric behaviour shows up here.  To
re-pin after a deliberate behaviour change, run
``PYTHONPATH=src python tests/test_golden.py`` and paste its output.
"""

import hashlib
from dataclasses import replace

import pytest

from accsim.agents import run_episode
from accsim.harness import PolicySpec, train
from accsim.scenario import load_builtin

EVAL_SEEDS = (5, 6)
SYSTEMS = {
    "base": PolicySpec("base"),
    "scripted4": PolicySpec("scripted", ttc_star=4.0),
    "saint": PolicySpec("saint"),  # untrained, weights from seed 0
}
EVAL_CASES = [(name, system, seed) for name in ("desk", "onramp")
              for system in SYSTEMS for seed in EVAL_SEEDS]
EXTRA_SYSTEMS = {
    "fixed4": PolicySpec("fixed-ttc", ttc_star=4.0),  # untrained, seed 0
    "scripted2": PolicySpec("scripted", ttc_star=2.0),
}
EXTRA_EVAL_CASES = [(name, system, 5) for name in ("desk", "onramp")
                    for system in EXTRA_SYSTEMS]
# Only offramp runs the exit-lane despawn and the exiters' lane changes;
# straight has no ramp lane and no junction.
SCENARIO_EVAL_CASES = ([("offramp", system, 5)
                        for system in ("base", "scripted4", "saint")]
                       + [("straight", system, 5)
                          for system in ("base", "saint")])
TRAIN_EPISODES = 12
TRAIN_SEED = 3
# Alternating training with a small warm-up buffer, so both agents update.
ALTERNATING_SYSTEMS = ("saint", "fixed-ttc")
ALTERNATING_TRAIN_START = 200

GOLDEN_EVAL = {
    ("desk", "base", 5):
        "de98116c5a05b835d43b2aedc1aede17df8d1f06d192fa091ea1bc3167317e62",
    ("desk", "base", 6):
        "2d187cea2b610655de063f0831723eb55cd2e024784fe595b7e9d58be9c931a7",
    ("desk", "scripted4", 5):
        "47932924ab58e5dc805bb22f7eec51980e7214ebccb750b254b7f0748692fbc3",
    ("desk", "scripted4", 6):
        "60124d3094f9a5e4f2940a7aa8a037ef824987642cff4981bd4659096cfc6080",
    ("desk", "saint", 5):
        "aa6429555f5445e62e4db99d8f9558586ce983b74cd74544452e9739c4812b63",
    ("desk", "saint", 6):
        "ca324d060461b5dda9848c959df1c06a2d5c95194df162f490d0f8d3e71a1365",
    ("onramp", "base", 5):
        "5dd265f514f04365ef992cc015cb698370190c109cd7d8bbe85638de2aa0294c",
    ("onramp", "base", 6):
        "b0084c9c09c0f86269227adf63872693aee1471637d2418f042cdec0cec3bf3f",
    ("onramp", "scripted4", 5):
        "b45950d4df564862e22823479d81e29859d892f9e6e8dc940f7ef021194f2914",
    ("onramp", "scripted4", 6):
        "00fb4072c14aa1b8690483ee244e044ab70c8f4223f198fdfe9d5e9b17174304",
    ("onramp", "saint", 5):
        "6d9c1fcff41c2fb10a12c84cbe332cfb6768d43c18ead5b11bbe88d942c92631",
    ("onramp", "saint", 6):
        "d6da90f6b6ac03c6860fec1b8cdb29c66ee84374d5b5206794519ac3d08b2f7f",
}
GOLDEN_TRAIN = "2c426a6bf8401051ad05364f88de72a8e35e675e03fcd4b9115ff7f7e6094906"
GOLDEN_EXTRA_EVAL = {
    ("desk", "fixed4", 5):
        "3043b73a09114af79d165768ec9ec9cbfbd4f483f22c4bb21ccf41ceeff21e8d",
    ("desk", "scripted2", 5):
        "b1e32a2776657e0b0768f544c7fda002e919c5c4857dc7b39d40389e8f226c61",
    ("onramp", "fixed4", 5):
        "2b9dd55afdc89a7908856b1ed76556e79fb50a03ec29c30f58d8ebd1e17c5a8d",
    ("onramp", "scripted2", 5):
        "86bbdfe7d7acd2ca8138560507b3a333e4ca0ccfccfd9d1ae7e8a36eeade2d48",
}
GOLDEN_ALTERNATING_TRAIN = {
    "saint":
        "472d56f9a55f42ff5c1f648b893b52388bb4e707d73c236205b5045280a702ef",
    "fixed-ttc":
        "e0909c5bd5be266f49ddf95d3d276b863086925dccfde210088ce855af930842",
}

GOLDEN_SCENARIO_EVAL = {
    ("offramp", "base", 5):
        "78f817f9951180be6cc0ce22354ddd75f310f632e3eb9c5b0ec48818bb1890fd",
    ("offramp", "scripted4", 5):
        "3e0a6a3e0cbb246efcdaf018bb67d0833a411fac9e78b44f3a94ee256bfc32fc",
    ("offramp", "saint", 5):
        "136b24e17093edf7de1fc5cd54659de519f7d7458f75d548d893df94402e93f2",
    ("straight", "base", 5):
        "7359e3fffe3ed92dc018110eee980b2a62468e4643a6205df2c1964ef5f46d45",
    ("straight", "saint", 5):
        "cff334d4b9bd52066366b9a602ee63170fd396eafe5b8bca675ae610ddccd987",
}

def eval_digest(scenario_name: str, system: str, seed: int) -> str:
    sc = load_builtin(scenario_name)
    worlds = []

    def keep_world(world):
        if not worlds:
            worlds.append(world)

    spec = SYSTEMS.get(system) or EXTRA_SYSTEMS[system]
    res = run_episode(sc, spec.build(sc), mode="eval", seed=seed,
                      trajectory_sink=keep_world)
    h = hashlib.sha256()
    for event in worlds[0].events:
        h.update(repr(tuple(event)).encode())
    h.update(repr(res.metrics.csv_row()).encode())
    h.update(repr((res.ttc_reward, res.acc_reward)).encode())
    return h.hexdigest()


def train_digest(out_dir, system: str = "saint",
                 alternating: bool = False) -> str:
    sc = load_builtin("desk")
    if alternating:
        sc = sc.replace(agents=replace(
            sc.agents, training_schedule="alternating",
            train_start_buffer=ALTERNATING_TRAIN_START))
    train(sc, system=system, episodes=TRAIN_EPISODES, seed=TRAIN_SEED,
          out_dir=out_dir, checkpoint_every=TRAIN_EPISODES)
    lines = (out_dir / "rewards.csv").read_text().splitlines()
    data = "\n".join(ln for ln in lines if not ln.startswith("#"))
    return hashlib.sha256(data.encode()).hexdigest()


@pytest.mark.parametrize("case", EVAL_CASES,
                         ids=lambda case: "-".join(map(str, case)))
def test_eval_digest(case):
    assert eval_digest(*case) == GOLDEN_EVAL[case]


def test_train_digest(tmp_path):
    assert train_digest(tmp_path) == GOLDEN_TRAIN


@pytest.mark.parametrize("case", EXTRA_EVAL_CASES,
                         ids=lambda case: "-".join(map(str, case)))
def test_extra_eval_digest(case):
    assert eval_digest(*case) == GOLDEN_EXTRA_EVAL[case]


@pytest.mark.parametrize("case", SCENARIO_EVAL_CASES,
                         ids=lambda case: "-".join(map(str, case)))
def test_scenario_eval_digest(case):
    assert eval_digest(*case) == GOLDEN_SCENARIO_EVAL[case]


@pytest.mark.parametrize("system", ALTERNATING_SYSTEMS)
def test_alternating_train_digest(tmp_path, system):
    assert (train_digest(tmp_path, system, alternating=True)
            == GOLDEN_ALTERNATING_TRAIN[system])


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    print("GOLDEN_EVAL = {")
    for case in EVAL_CASES:
        print(f"    {case!r}:\n        {eval_digest(*case)!r},")
    print("}")
    with tempfile.TemporaryDirectory() as tmp:
        print(f"GOLDEN_TRAIN = {train_digest(Path(tmp))!r}")
    print("GOLDEN_EXTRA_EVAL = {")
    for case in EXTRA_EVAL_CASES:
        print(f"    {case!r}:\n        {eval_digest(*case)!r},")
    print("}")
    print("GOLDEN_ALTERNATING_TRAIN = {")
    for system in ALTERNATING_SYSTEMS:
        with tempfile.TemporaryDirectory() as tmp:
            digest = train_digest(Path(tmp), system, alternating=True)
        print(f"    {system!r}:\n        {digest!r},")
    print("}")
    print("GOLDEN_SCENARIO_EVAL = {")
    for case in SCENARIO_EVAL_CASES:
        print(f"    {case!r}:\n        {eval_digest(*case)!r},")
    print("}")
