"""Command-line interface.

Subcommands: ``verify`` (bounds of a placement file), ``lowerbound``
(progressive-shrinking lower-bound constant), ``optimize`` (compute an
ALG7/ALG8 layer and save it), ``simulate`` (one single-POI search), and
``montecarlo`` (the experiment campaign with report files).
"""
from __future__ import annotations

import argparse
import math
import os
import sys

from . import experiments, optimizer, placements, simulator, verifier
from .geometry import Point2


def _cmd_verify(args: argparse.Namespace) -> int:
    layer, arcs = placements.load_placement_arcs(args.placement_file)
    report = verifier.bounds_report(layer)
    print(f"algorithm:       {layer.algorithm_id}")
    print(f"probes:          {layer.m}")
    print(f"certified:       {layer.certified} ({layer.coverage})")
    print(f"probe coeff c:   {report.c_probes:.4f}")
    print(f"distance coeff:  {report.b_distance:.4f}")
    print(f"response coeff:  {report.c_responses:.4f}")
    print(f"worst probes:    {report.worst_probe_index}")
    if not layer.certified:
        print(f"uncovered arcs:  {len(arcs)} (degrees counterclockwise "
              f"about each circle's center)")
        for circle, start, end in arcs:
            name = "unit circle" if circle < 0 else f"probe {circle + 1}"
            print(f"  {name:<12} {math.degrees(start):8.3f} .. "
                  f"{math.degrees(end):8.3f}")
    return 0


def _cmd_lowerbound(args: argparse.Namespace) -> int:
    c_lb, rho_lb = verifier.lower_bound_constant()
    print(f"c_lb   = {c_lb:.5f}")
    print(f"rho_lb = {rho_lb:.5f}")
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    if args.algorithm == 7:
        layer = optimizer.alg7_layer()
        seed = None
    else:
        config = optimizer.OptimizerConfig(seed=args.seed)
        layer = optimizer.evolve_initial(config)
        seed = args.seed
    pf = placements.PlacementFile.from_layer(
        layer, {"kind": "optimized", "seed": seed,
                "tool": placements.TOOL_VERSION})
    placements.save_placement(pf, args.out)
    c = verifier.probe_coefficient(layer)
    print(f"ALG{args.algorithm}: {layer.m} probes, rho1 = {layer.rho1}, "
          f"c = {c:.4f} -> {args.out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        x, y = (float(v) for v in args.poi.split(","))
    except ValueError:
        raise ValueError(f"--poi {args.poi!r} is not X,Y") from None
    layer = placements.load_placement(args.placement)
    world = simulator.World(args.n, [Point2(x, y)])
    trace = simulator.run_single(placements.execution_layer(layer), world,
                                 adversarial=args.adversarial)
    print(f"probes:     {trace.probes}")
    print(f"distance:   {trace.distance:.4f}")
    print(f"responses:  {trace.responses}")
    if args.adversarial:
        # the adversarial responses follow no POI, so nothing is found
        print("success:    n/a (adversarial responses)")
    else:
        print(f"success:    {trace.success}")
    if trace.containment_lost:
        print("warning: containment lost through an uncovered gap")
    return 0


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    algorithms = tuple(f"ALG{a.strip()}" for a in args.algs.split(","))
    files = {}
    for kv in args.placement_file or []:
        algorithm, sep, path = kv.partition("=")
        if not sep:
            raise ValueError(f"--placement-file {kv!r} is not ALG=PATH")
        files[algorithm] = path
    config = experiments.ExperimentConfig(
        n=args.n, trials=args.trials, algorithms=algorithms,
        seed=args.seed, placement_files=files)
    written = experiments.run_experiment(config, args.out)
    for path in written:
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marcopolo",
        description="probe-search placements, bounds, and simulations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="bounds report for a placement file")
    p.add_argument("placement_file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("lowerbound",
                       help="lower-bound constant for shrinking schedules")
    p.set_defaults(func=_cmd_lowerbound)

    p = sub.add_parser("optimize", help="compute an optimized layer")
    p.add_argument("--algorithm", type=int, choices=(7, 8), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("simulate", help="run one single-POI search")
    p.add_argument("--placement", required=True)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--poi", required=True, metavar="X,Y")
    p.add_argument("--adversarial", action="store_true",
                   help="the last issued probe always answers (a fixed "
                        "response sequence, not the worst case)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("montecarlo", help="Monte Carlo campaign with report")
    p.add_argument("--n", type=float, default=2.0 ** 20)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--algs", default="1,2,3,4,5,6")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--placement-file", action="append", metavar="ALG=PATH",
                   help="placement file override, e.g. ALG8=path.json")
    p.set_defaults(func=_cmd_montecarlo)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # a reader that closed stdout early shows here, not at shutdown
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader wanted no more output, which is no failure; stdout
        # goes to devnull so the interpreter's last flush does not fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
