"""The A/B recorder, run on a two-commit toy repository, and its verdicts."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

RECORDER = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"

TOY_RUN = """import json, sys
assert "--seconds" not in sys.argv  # the benchmark's own run length
seed = int(sys.argv[sys.argv.index("--seed") + 1])
print("a line before the result")
print(json.dumps({"correct": True, "attempted": seed, "failed": 0,
                  "metrics": {"ops_per_s": {"value": OPS, "unit": "ops/s"},
                              "op_p50_ms": {"value": P50, "unit": "ms"}}}))
"""


def git(repo, *args):
    env = dict(os.environ, GIT_AUTHOR_NAME="t", GIT_AUTHOR_EMAIL="t@t",
               GIT_COMMITTER_NAME="t", GIT_COMMITTER_EMAIL="t@t")
    return subprocess.run(["git", *args], cwd=repo, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def commit_toy(repo, ops, p50, extra=""):
    (repo / "bench" / "run.py").write_text(
        TOY_RUN.replace("OPS", repr(ops)).replace("P50", repr(p50)) + extra)
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", f"ops {ops}")
    return git(repo, "rev-parse", "HEAD")


def make_toy_repo(tmp_path):
    """A repository of two commits whose toy benchmarks differ."""
    repo = tmp_path / "toy"
    (repo / "bench").mkdir(parents=True)
    git(repo, "init", "-q")
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "bench/run.py"], "run_seconds": 25,
        "end_to_end": [
            {"name": "ops_per_s", "unit": "ops/s", "better": "higher",
             "bound": 0.25},
            {"name": "op_p50_ms", "unit": "ms", "better": "lower",
             "bound": 0.2}]}))
    base_sha = commit_toy(repo, 1.0, 4.0)
    head_sha = commit_toy(repo, 2.0, 5.0)
    return repo, base_sha, head_sha


def run_recorder(repo, workload="toy"):
    return subprocess.run(
        [sys.executable, str(RECORDER), "--base", "HEAD~1", "--workload",
         workload, "--pairs", "2", "--seed0", "40"],
        cwd=repo, capture_output=True, text=True, timeout=120)


def test_recorder_writes_pairs_spreads_and_wins(tmp_path):
    repo, base_sha, head_sha = make_toy_repo(tmp_path)
    proc = run_recorder(repo)
    assert proc.returncode == 0, proc.stderr
    out = repo / f"BENCH_{head_sha[:7]}_toy.json"
    assert proc.stdout.strip() == str(out)
    rec = json.loads(out.read_text())

    assert rec["base"] == {"rev": "HEAD~1", "sha": base_sha}
    assert rec["head"] == {"sha": head_sha, "dirty": False}
    assert rec["cores"] >= 1 and rec["seconds"] == 25
    assert rec["seeds"] == [40, 41]
    assert [p["first"] for p in rec["pairs"]] == ["base", "head"]
    for pair in rec["pairs"]:
        for side, ops in (("base", 1.0), ("head", 2.0)):
            assert pair[side]["correct"] is True
            assert pair[side]["attempted"] == pair["seed"]
            assert pair[side]["failed"] == 0
            assert pair[side]["metrics"]["ops_per_s"] == ops
    ops = rec["metrics"]["ops_per_s"]
    assert ops["base"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert ops["head"]["median"] == 2.0 and ops["head_over_base"] == 2.0
    assert (ops["head_wins"], ops["base_wins"]) == (2, 0)
    # the head wins every pair, by more than the base side's zero spread
    assert ops["within_bound"] is True and ops["gain_rule_met"] is True
    p50 = rec["metrics"]["op_p50_ms"]  # lower is better: head loses
    assert (p50["head_wins"], p50["base_wins"]) == (0, 2)
    # 5.0 against 4.0 is 25% worse, past the toy's 20% bound
    assert p50["within_bound"] is False and p50["gain_rule_met"] is False
    # the base checkout is gone again
    assert len(git(repo, "worktree", "list").splitlines()) == 1


def test_recorder_refuses_to_overwrite_a_record(tmp_path):
    repo, _, head_sha = make_toy_repo(tmp_path)
    out = repo / f"BENCH_{head_sha[:7]}_toy.json"
    out.write_text("an earlier record\n")
    proc = run_recorder(repo)
    assert proc.returncode != 0 and "exists" in proc.stderr
    assert out.read_text() == "an earlier record\n"
    assert len(git(repo, "worktree", "list").splitlines()) == 1


def test_recorder_leaves_only_untracked_records_out_of_dirty(tmp_path):
    repo, _, head_sha = make_toy_repo(tmp_path)

    def dirty_after_recording(workload):
        proc = run_recorder(repo, workload)
        assert proc.returncode == 0, proc.stderr
        out = repo / f"BENCH_{head_sha[:7]}_{workload}.json"
        return json.loads(out.read_text())["head"]["dirty"]

    assert dirty_after_recording("toy") is False
    # the first record sits untracked in the tree
    assert dirty_after_recording("toy2") is False
    (repo / "notes.txt").write_text("an untracked file\n")
    assert dirty_after_recording("toy3") is True
    (repo / "notes.txt").unlink()
    run_py = repo / "bench" / "run.py"
    run_py.write_text(run_py.read_text() + "# an edit\n")
    assert dirty_after_recording("toy4") is True


def test_recorder_marks_dirty_when_a_run_edits_a_tracked_file(tmp_path):
    repo, _, _ = make_toy_repo(tmp_path)
    # each head-side run appends to its own tracked source, after the
    # recorder has started with a clean tree
    head_sha = commit_toy(repo, 2.0, 5.0, extra=(
        'open(__file__, "a").write("# edited by a run\\n")\n'))
    proc = run_recorder(repo)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads((repo / f"BENCH_{head_sha[:7]}_toy.json").read_text())
    assert rec["head"] == {"sha": head_sha, "dirty": True}


def test_gain_rule_needs_nine_in_ten_wins_beyond_the_base_spread():
    spec = importlib.util.spec_from_file_location("ab_bench", RECORDER)
    ab_bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_bench)
    metric = [{"name": "ops_per_s", "unit": "ops/s", "better": "higher",
               "bound": 0.25}]

    def verdicts(base, head):
        pairs = [{"base": {"metrics": {"ops_per_s": b}},
                  "head": {"metrics": {"ops_per_s": h}}}
                 for b, h in zip(base, head)]
        out = ab_bench.summarize(pairs, metric)["ops_per_s"]
        return out["within_bound"], out["gain_rule_met"]

    base = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    # base quartiles 11 and 13: a gain of 3 in every pair exceeds the spread
    assert verdicts(base, [b + 3.0 for b in base]) == (True, True)
    # ... a gain of 1.5 does not, though the head wins every pair
    assert verdicts(base, [b + 1.5 for b in base]) == (True, False)
    # 8 wins in 10 is too few, however large the gain
    head = [b + 5.0 for b in base[:8]] + base[8:]
    assert verdicts(base, head) == (True, False)
    # a 30% loss in every pair is past the 25% bound
    assert verdicts(base, [0.7 * b for b in base]) == (False, False)
