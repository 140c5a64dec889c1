"""A/B recorder: run the benchmark on a base revision and on the working tree.

    python3 tools/ab_bench.py --base <rev> --workload <name> --pairs N \
        [--seed0 K]

Run from anywhere inside the repository.  The base revision is checked out
with ``git worktree add --detach`` under a temporary directory, which is
removed again at the end.  Pair i runs the benchmark command of
``BENCHMARK.json`` once in each tree on seed K+i, at the benchmark's own
run length, the base first in even pairs and the working tree first in odd
ones, so drift of the host's speed falls on both sides alike.  Each run's
last line of standard output is its JSON result.

The record goes to ``BENCH_<short head sha>_<workload>.json`` at the
repository root; if that file exists the recorder refuses to start, so no
record is overwritten.  It holds both SHAs and whether the working tree had
uncommitted changes before any head-side run or after the last pair
(untracked ``BENCH_*.json`` records aside, so a second record of the same
commit is not marked by the first), the usable core
count, the run length, every run's ``correct``, ``attempted``, ``failed``
and end-to-end metric values, and per metric each side's median and
quartiles (inclusive method), the pairs each side won in the direction
``BENCHMARK.json`` gives (a tie counts for neither side), and the verdicts
``within_bound`` and ``gain_rule_met`` (see `summarize`).
"""

import argparse
import fnmatch
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_TIMEOUT_S = 1800


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True,
                          capture_output=True, text=True).stdout.strip()


def tree_is_dirty(root: Path) -> bool:
    """Whether the working tree differs from HEAD, leaving untracked A/B
    records out."""
    for line in git(root, "status", "--porcelain").splitlines():
        if not (line.startswith("?? ")
                and fnmatch.fnmatch(line[3:], "BENCH_*.json")):
            return True
    return False


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="revision to compare the working tree against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, default=0,
                        help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def run_bench(tree: Path, command: list, workload: str, seed: int) -> dict:
    cmd = command + ["--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()}}


def spread(values: list) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list, end_to_end: list) -> dict:
    """Per metric: each side's spread, the pairs each side won, whether
    the head's median is no worse than the base's by more than the
    metric's ``bound`` (a fraction of the base median), and whether the
    head's gain meets the rule for claiming one: it wins at least 9 of
    every 10 pairs, and its median gain exceeds the base side's
    interquartile range."""
    out = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        base = [p["base"]["metrics"][name] for p in pairs]
        head = [p["head"]["metrics"][name] for p in pairs]
        head_wins = sum((h > b) if higher else (h < b)
                        for b, h in zip(base, head))
        ties = sum(h == b for b, h in zip(base, head))
        base_side, head_side = spread(base), spread(head)
        gain = head_side["median"] - base_side["median"]
        if not higher:
            gain = -gain
        out[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "base": base_side, "head": head_side,
            "head_over_base": (head_side["median"] / base_side["median"]
                               if base_side["median"] else None),
            "head_wins": head_wins,
            "base_wins": len(pairs) - head_wins - ties,
            "within_bound": -gain <= spec["bound"] * abs(base_side["median"]),
            "gain_rule_met": (10 * head_wins >= 9 * len(pairs)
                              and gain > base_side["q3"] - base_side["q1"]),
        }
    return out


def record(root: Path, args) -> Path:
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    base_sha = git(root, "rev-parse", "--verify", f"{args.base}^{{commit}}")
    head_sha = git(root, "rev-parse", "HEAD")
    dirty = False
    out = root / f"BENCH_{head_sha[:7]}_{args.workload}.json"
    if out.exists():
        raise SystemExit(f"{out} exists; move it aside to record again")
    seeds = [args.seed0 + i for i in range(args.pairs)]
    pairs = []
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        base_tree = Path(tmp) / "base"
        git(root, "worktree", "add", "--detach", str(base_tree), base_sha)
        try:
            for i, seed in enumerate(seeds):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    tree = base_tree if side == "base" else root
                    if side == "head":
                        dirty |= tree_is_dirty(root)
                    pair[side] = run_bench(tree, benchmark["command"],
                                           args.workload, seed)
                pairs.append(pair)
                print(f"[{i + 1}/{len(seeds)}] seed {seed}: " + ", ".join(
                    f"{name} {pair['base']['metrics'][name]:.4g} -> "
                    f"{pair['head']['metrics'][name]:.4g}"
                    for name in ("ops_per_s", "vehicle_steps_per_s")
                    if name in pair["base"]["metrics"]),
                    file=sys.stderr, flush=True)
            dirty |= tree_is_dirty(root)
        finally:
            git(root, "worktree", "remove", "--force", str(base_tree))
    out.write_text(json.dumps({
        "workload": args.workload,
        "base": {"rev": args.base, "sha": base_sha},
        "head": {"sha": head_sha, "dirty": dirty},
        "cores": len(os.sched_getaffinity(0)),
        "seconds": benchmark["run_seconds"],
        "seeds": seeds,
        "pairs": pairs,
        "metrics": summarize(pairs, benchmark["end_to_end"]),
    }, indent=2) + "\n")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    out = record(root, args)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
