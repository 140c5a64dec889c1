"""Command-line interface: training runs, sweeps, latency probes, and
space-time capture.

Exit codes: 0 on success; on failure a single line
``error: category=<category> message=<...>`` goes to stderr and the exit
code identifies the category (2 config, 3 usage, 4 runtime).
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

from . import harness
from .harness import (
    HarnessError,
    PolicySpec,
    SweepSpec,
    config_hash,
    run_sweep,
    spearman,
    summarize,
    write_summary_csv,
    write_sweep_csv,
)
from .scenario import ScenarioError, load_builtin, load_scenario

EXIT_CONFIG = 2
EXIT_USAGE = 3
EXIT_RUNTIME = 4


def _load(config: str):
    path = Path(config)
    if path.suffix == ".cfg" or path.exists():
        return load_scenario(path)
    return load_builtin(config)


def _parse_values(raw: str) -> tuple:
    try:
        return tuple(float(v) for v in raw.split(",") if v.strip())
    except ValueError as exc:
        raise HarnessError(f"bad sweep values {raw!r}") from exc


def _policy_spec(system: str, args) -> PolicySpec:
    ckpt_dir = getattr(args, "checkpoint_dir", None)
    ttc_ckpt = acc_ckpt = None
    if ckpt_dir:
        base = Path(ckpt_dir)
        acc = base / "acc_agent.ckpt"
        ttc = base / "ttc_agent.ckpt"
        if system in ("saint", "fixed-ttc") and not acc.exists():
            raise HarnessError(f"missing checkpoint {acc}")
        if system == "saint" and not ttc.exists():
            raise HarnessError(f"missing checkpoint {ttc}")
        acc_ckpt = str(acc) if acc.exists() else None
        ttc_ckpt = str(ttc) if ttc.exists() else None
    return PolicySpec(system, ttc_star=getattr(args, "fixed_ttc_star", 4.0),
                      ttc_checkpoint=ttc_ckpt, acc_checkpoint=acc_ckpt)


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def cmd_train(args) -> int:
    scenario = _load(args.config)
    result = harness.train(
        scenario, system=args.system, episodes=args.episodes, seed=args.seed,
        out_dir=args.out, checkpoint_every=args.checkpoint_every,
        resume=args.resume, fixed_ttc_star=args.fixed_ttc_star,
        progress=_progress if args.verbose else None)
    n = len(result.episodes)
    tail = result.acc_rewards[-20:] or [0.0]
    print(f"trained {args.system} for {n} episodes "
          f"(config {config_hash(scenario)}); "
          f"final 20-episode mean gap-agent reward {statistics.fmean(tail):.2f}")
    return 0


def cmd_motivation(args) -> int:
    scenario = _load(args.config)
    from dataclasses import replace
    scenario = scenario.replace(demand=replace(
        scenario.demand,
        penetration_rate=args.penetration,
        ramp_flow=args.ramp_flow if args.ramp_flow is not None
        else scenario.demand.ramp_flow))
    sweep = SweepSpec(parameter="ttc_star_fixed", values=_parse_values(args.values),
                      episodes=args.episodes, base_seed=args.seed,
                      systems=(PolicySpec("scripted"),))
    rows = run_sweep(scenario, sweep,
                     progress=_progress if args.verbose else None)
    out = Path(args.out)
    write_sweep_csv(out / "motivation_episodes.csv", scenario, sweep, rows)
    write_summary_csv(out / "motivation_summary.csv", scenario, sweep, rows)
    summary = summarize(rows)
    values = [s["value"] for s in summary]
    rho_nc = spearman(values, [s["nc_mean"] for s in summary])
    rho_v = spearman(values, [s["speed_mean"] for s in summary])
    print(f"motivation sweep over TTC*={list(values)}: "
          f"spearman(nc)={rho_nc:.3f} spearman(speed)={rho_v:.3f}")
    return 0


def cmd_sweep(args) -> int:
    scenario = _load(args.config)
    systems = tuple(_policy_spec(s.strip(), args)
                    for s in args.systems.split(",") if s.strip())
    sweep = SweepSpec(parameter=args.parameter, values=_parse_values(args.values),
                      episodes=args.episodes, base_seed=args.seed,
                      systems=systems)
    rows = run_sweep(scenario, sweep,
                     progress=_progress if args.verbose else None)
    out = Path(args.out)
    write_sweep_csv(out / f"sweep_{args.parameter}_episodes.csv",
                    scenario, sweep, rows)
    write_summary_csv(out / f"sweep_{args.parameter}_summary.csv",
                      scenario, sweep, rows)
    for s in summarize(rows):
        print(f"{s['system']} {args.parameter}={s['value']:g}: "
              f"nc={s['nc_mean']:.1f}±{s['nc_std']:.1f} "
              f"speed={s['speed_mean']:.2f}±{s['speed_std']:.2f}")
    return 0


def cmd_latency(args) -> int:
    scenario = _load(args.config)
    policy = _policy_spec(args.system, args).build(scenario)
    latencies = harness.measure_latency(scenario, policy,
                                        min_decisions=args.min_decisions,
                                        base_seed=args.seed)
    ordered = sorted(latencies)
    mean_ms = statistics.fmean(latencies)
    pct = {p: ordered[min(len(ordered) - 1, int(p / 100 * len(ordered)))]
           for p in (50, 90, 95, 99)}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "latency.csv", "w", newline="") as fh:
        fh.write(f"# config={config_hash(scenario)}\n")
        fh.write(f"# mean_ms={mean_ms:.6f} "
                 + " ".join(f"p{p}={v:.6f}" for p, v in pct.items()) + "\n")
        fh.write("decision,latency_ms\n")
        for i, ms in enumerate(latencies):
            fh.write(f"{i},{ms:.6f}\n")
    print(f"decisions={len(latencies)} mean={mean_ms:.3f}ms "
          f"p50={pct[50]:.3f}ms p99={pct[99]:.3f}ms")
    return 0


def cmd_spacetime(args) -> int:
    scenario = _load(args.config)
    policy = _policy_spec(args.system, args).build(scenario)
    rows = harness.capture_spacetime(scenario, policy, seed=args.seed,
                                     out_path=args.out)
    print(f"wrote {len(rows)} trajectory rows to {args.out}")
    return 0


def cmd_ablate_ttc(args) -> int:
    scenario = _load(args.config)
    saint = PolicySpec("saint",
                       ttc_checkpoint=_ckpt(args.saint_dir, "ttc_agent.ckpt"),
                       acc_checkpoint=_ckpt(args.saint_dir, "acc_agent.ckpt"))
    fixed = PolicySpec("fixed-ttc", ttc_star=args.fixed_ttc_star,
                       acc_checkpoint=_ckpt(args.fixed_dir, "acc_agent.ckpt"))
    sweep = SweepSpec(parameter="penetration",
                      values=(scenario.demand.penetration_rate,),
                      episodes=args.episodes, base_seed=args.seed,
                      systems=(saint, fixed, PolicySpec("base")))
    rows = run_sweep(scenario, sweep,
                     progress=_progress if args.verbose else None)
    out = Path(args.out)
    write_sweep_csv(out / "ablation_episodes.csv", scenario, sweep, rows)
    write_summary_csv(out / "ablation_summary.csv", scenario, sweep, rows)
    for s in summarize(rows):
        print(f"{s['system']}: nc={s['nc_mean']:.1f} "
              f"speed={s['speed_mean']:.2f} delay={s['delay_mean']:.1f}")
    return 0


def _ckpt(directory, name):
    if directory is None:
        return None
    path = Path(directory) / name
    return str(path) if path.exists() else None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accsim",
        description="Highway traffic simulator with an adaptive dual-agent "
                    "cruise-control stack")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, episodes=20):
        p.add_argument("--config", default="onramp",
                       help="builtin scenario name or path to a .cfg file")
        p.add_argument("--seed", type=int, default=100)
        p.add_argument("--episodes", type=int, default=episodes)
        p.add_argument("--out", default="runs")
        p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("train", help="train the SAINT or fixed-threshold stack")
    common(p, episodes=300)
    p.add_argument("--system", choices=("saint", "fixed-ttc"), default="saint")
    p.add_argument("--fixed-ttc-star", type=float, default=4.0)
    p.add_argument("--checkpoint-every", type=int, default=50)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("motivation",
                       help="fixed-threshold sweep reproducing the "
                            "safety/efficiency trade-off")
    common(p)
    p.add_argument("--values", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--penetration", type=float, default=1.0)
    p.add_argument("--ramp-flow", type=float, default=None)
    p.set_defaults(func=cmd_motivation)

    p = sub.add_parser("sweep", help="paired-seed parameter sweep")
    common(p)
    p.add_argument("--parameter", required=True,
                   choices=harness.SWEEP_PARAMETERS)
    p.add_argument("--values", required=True)
    p.add_argument("--systems", default="base",
                   help="comma list from {saint, fixed-ttc, base, scripted}")
    p.add_argument("--checkpoint-dir", default=None)
    p.add_argument("--fixed-ttc-star", type=float, default=4.0)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("latency", help="measure per-decision latency")
    common(p)
    p.add_argument("--system", choices=("saint", "fixed-ttc"), default="saint")
    p.add_argument("--checkpoint-dir", default=None)
    p.add_argument("--fixed-ttc-star", type=float, default=4.0)
    p.add_argument("--min-decisions", type=int, default=1000)
    p.set_defaults(func=cmd_latency)

    p = sub.add_parser("spacetime", help="capture a space-time trajectory CSV")
    common(p)
    p.add_argument("--system",
                   choices=("saint", "fixed-ttc", "base", "scripted"),
                   default="base")
    p.add_argument("--checkpoint-dir", default=None)
    p.add_argument("--fixed-ttc-star", type=float, default=4.0)
    p.set_defaults(func=cmd_spacetime)

    p = sub.add_parser("ablate-ttc",
                       help="compare SAINT, fixed-threshold ablation and "
                            "baseline on paired seeds")
    common(p)
    p.add_argument("--saint-dir", default=None)
    p.add_argument("--fixed-dir", default=None)
    p.add_argument("--fixed-ttc-star", type=float, default=4.0)
    p.set_defaults(func=cmd_ablate_ttc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: category=config message={exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HarnessError as exc:
        print(f"error: category=usage message={exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: category=runtime message={exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
