"""Command-line interface: the tool as an engineer would invoke it.

``repro-place program.f spec.txt`` reads a FORTRAN source and a
partitioning data file (paper section 3.1), checks legality, and prints
the annotated SPMD program — the figures-9/10 artifact.  Options expose
the rest of the paper: ``--all`` for every solution, ``--legality`` for
the figure-4 report, ``--dot-automaton`` for the pattern's overlap
automaton, ``--run mesh`` for the end-to-end figure-3 differential
execution (with fault injection, split-phase windows and recovery
knobs).

Three subcommands route to their own front ends before option parsing:
``repro-place lint`` (the static communication verifier,
:mod:`repro.analysis.commcheck`), ``repro-place serve`` (the long-lived
placement service with content-addressed caching,
:mod:`repro.service.server`) and ``repro-place cache stats|clear`` (its
artifact store; see docs/service.md).
"""

from __future__ import annotations

import argparse
import sys

from .analysis import check_legality
from .automata import all_patterns, automaton_for, to_dot
from .errors import ReproError
from .lang import parse_subroutine
from .placement import CostModel, enumerate_placements
from .placement.engine import _ranked_at
from .spec import PartitionSpec


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-place",
        description="Automatic placement of communications in "
                    "mesh-partitioning parallelization (PPoPP 1997).")
    p.add_argument("program", nargs="?",
                   help="FORTRAN source file (one subroutine)")
    p.add_argument("spec", nargs="?",
                   help="partitioning spec data file")
    p.add_argument("--all", action="store_true",
                   help="print every solution, cheapest first")
    p.add_argument("--index", type=int, default=0,
                   help="which ranked solution to print (default 0 = best)")
    p.add_argument("--legality", action="store_true",
                   help="print the figure-4 legality report and exit")
    p.add_argument("--check", action="store_true",
                   help="test mode (paper §5.2): the program file is an "
                        "already-annotated SPMD source; verify its "
                        "placement instead of generating one (with --run, "
                        "then execute it)")
    p.add_argument("--summary", action="store_true",
                   help="print one line per solution instead of full sources")
    p.add_argument("--split-phase", action="store_true",
                   help="widen each synchronization into a POST/WAIT pair "
                        "when a legal earlier post point exists, so the "
                        "transfer overlaps the computation in between")
    p.add_argument("--list-patterns", action="store_true",
                   help="list the registered overlapping patterns and exit")
    p.add_argument("--dot-automaton", metavar="PATTERN",
                   help="emit the overlap automaton of PATTERN as DOT and exit")
    p.add_argument("--alpha", type=float, default=CostModel.alpha,
                   help="cost model: per-communication latency")
    p.add_argument("--beta", type=float, default=CostModel.beta,
                   help="cost model: per-word transfer cost")
    p.add_argument("--gamma", type=float, default=CostModel.gamma,
                   help="cost model: per-statement compute cost")
    p.add_argument("--loss-rate", type=float, default=CostModel.loss_rate,
                   help="cost model: message-loss probability; charges "
                        "each placement its expected retransmission cost "
                        "E[retransmits] = loss_rate x messages")
    run = p.add_argument_group("end-to-end execution (figure 3)")
    run.add_argument("--run", metavar="MESHFILE",
                     help="run the placed program on this mesh (.mesh or "
                          "Triangle .node/.ele base path), SPMD vs "
                          "sequential, and report")
    run.add_argument("--nparts", type=int, default=4,
                     help="number of simulated processors (default 4)")
    run.add_argument("--partitioner", default="rcb",
                     choices=("rcb", "greedy", "spectral"),
                     help="mesh splitting method")
    run.add_argument("--set", dest="scalars", action="append", default=[],
                     metavar="NAME=VALUE",
                     help="scalar input, e.g. --set epsilon=1e-8")
    run.add_argument("--field", dest="fields", action="append", default=[],
                     metavar="NAME=SPEC",
                     help="array input: random | triangle-areas | "
                          "node-areas | edge-lengths | <constant>")
    run.add_argument("--seed", type=int, default=0,
                     help="seed for random field inputs")
    run.add_argument("--backend", default="interp",
                     choices=("interp", "vector"),
                     help="execution backend for both runs")
    run.add_argument("--timeline", action="store_true",
                     help="append the per-rank execution timeline")
    run.add_argument("--fault-plan", metavar="PLAN",
                     help="inject faults into the SPMD run: an inline plan "
                          "('drop src=0 dst=1 count=1; seed=7') or @FILE "
                          "with one clause per line; see "
                          "repro.runtime.faults.FaultPlan.parse")
    run.add_argument("--comm-timeout", type=int, default=0,
                     metavar="STEPS",
                     help="receive retry budget in fabric steps (0 = "
                          "fail fast on a missing message); needed to "
                          "recover from delay/drop fault rules")
    run.add_argument("--recovery", choices=("global", "local"),
                     default="global",
                     help="what a kill fault costs: 'global' rewinds every "
                          "rank to the newest checkpoint (the default); "
                          "'local' restores only the dead rank and replays "
                          "it against the sender-side message log — O(1 "
                          "rank) restored words instead of O(P); both are "
                          "bit-identical to the fault-free run")
    run.add_argument("--rebalance", type=float, default=None,
                     metavar="THRESH",
                     help="arm online repartitioning: migrate entities "
                          "between ranks mid-solve when per-rank work "
                          "imbalance (max/mean - 1) exceeds THRESH; "
                          "migration happens only at quiescent collective "
                          "boundaries and the gathered outputs still match "
                          "the sequential oracle")
    run.add_argument("--rebalance-at", type=int, nargs="+", default=None,
                     metavar="EVENT",
                     help="force migration epochs at these collective "
                          "boundary events (deterministic schedule; an "
                          "event inside a non-quiescent stretch fires at "
                          "the next quiescent boundary); composes with "
                          "--rebalance")
    run.add_argument("--strict", action="store_true",
                     help="fail (instead of warning) when the pre-flight "
                          "commcheck verifier finds a diagnostic; see also "
                          "the 'repro lint' subcommand")
    run.add_argument("--model-check", action="store_true",
                     help="extend the pre-flight check with the MP-net "
                          "model checker (deadlock, unmatched sends and "
                          "receive-match races of the placed schedule; see "
                          "'repro lint --model-check')")
    return p


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # `repro lint ...` — the static communication verifier (commcheck)
        from .analysis.commcheck import lint_main

        return lint_main(argv[1:])
    if argv and argv[0] in ("serve", "cache"):
        # `repro serve ...` — the long-lived placement service (HTTP);
        # `repro cache stats|clear` — inspect the artifact store
        from .service.server import cache_main, serve_main

        try:
            return (serve_main if argv[0] == "serve"
                    else cache_main)(argv[1:])
        except (ReproError, OSError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 1
    args = build_parser().parse_args(argv)
    out = sys.stdout
    try:
        if args.list_patterns:
            for pat in all_patterns():
                ents = "/".join(pat.entities)
                out.write(f"{pat.name:<32} dim={pat.dim} entities={ents} "
                          f"layers={pat.layers}\n")
            return 0
        if args.dot_automaton:
            out.write(to_dot(automaton_for(args.dot_automaton)))
            return 0
        if not args.program or not args.spec:
            build_parser().error("program and spec files are required")
        with open(args.program) as fh:
            source = fh.read()
        with open(args.spec) as fh:
            spec = PartitionSpec.parse(fh.read())
        if args.check:
            from .analysis.commcheck import check_placement
            from .analysis.diagnostics import DiagnosticSink
            from .placement import parse_annotated

            sink = DiagnosticSink()
            result = parse_annotated(source, spec, sink)
            check_placement(result.vfg, result.best().placement,
                            result.automaton, sink=sink)
            out.write(("COMPATIBLE" if sink.ok else "INCOMPATIBLE")
                      + "\n" + sink.render() + "\n")
            if not sink.ok or not args.run:
                return 0 if sink.ok else 2
            return _run_pipeline_cli(args, spec, result, out)
        sub = parse_subroutine(source)
        if args.legality:
            report = check_legality(sub, spec)
            out.write(report.summary() + "\n")
            for v in report.violations:
                out.write("  " + v.describe(sub) + "\n")
            for edge, idiom in report.discharged:
                out.write(f"  discharged ({idiom}): {edge.describe(sub)}\n")
            return 0 if report.ok else 2
        model = CostModel(alpha=args.alpha, beta=args.beta, gamma=args.gamma,
                          loss_rate=args.loss_rate)
        result = enumerate_placements(sub, spec, model=model)
        out.write(f"* {len(result)} consistent placement(s)\n")
        if args.run:
            return _run_pipeline_cli(args, spec, result, out)
        if args.summary:
            for i, rp in enumerate(result.ranked):
                cost, summary = rp.cost, rp.summary
                if args.split_phase:
                    from .placement import (
                        estimate_cost,
                        placement_summary,
                        widen_placement,
                    )

                    wide = widen_placement(result.vfg, rp.placement)
                    cost = estimate_cost(result.vfg, wide, model)
                    summary = placement_summary(result.sub, result.vfg, wide)
                out.write(f"#{i}: cost={cost.total:.0f}  {summary}\n")
            return 0
        chosen = result.ranked if args.all \
            else [_ranked_at(result, args.index)]
        for i, rp in enumerate(chosen):
            idx = i if args.all else args.index
            placement, cost, annotated = rp.placement, rp.cost, rp.annotated
            if args.split_phase:
                from .placement import (
                    annotate_source,
                    estimate_cost,
                    widen_placement,
                )

                placement = widen_placement(result.vfg, rp.placement)
                cost = estimate_cost(result.vfg, placement, model)
                annotated = annotate_source(result.sub, result.vfg, placement)
            out.write(f"\n* solution #{idx} "
                      f"(cost {cost.total:.0f}, "
                      f"{len(placement.comms)} synchronizations)\n")
            out.write(annotated)
        return 0
    except (ReproError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def _parse_kv(items: list[str], what: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for item in items:
        if "=" not in item:
            raise ReproError(f"bad {what} {item!r}: expected NAME=VALUE")
        name, value = item.split("=", 1)
        out[name.strip().lower()] = value.strip()
    return out


def _resolve_field(spec_text: str, mesh, rng):
    """Turn a --field SPEC into an array over the right entity later."""
    if spec_text == "triangle-areas":
        return mesh.triangle_areas
    if spec_text == "node-areas":
        return mesh.node_areas
    if spec_text == "edge-lengths":
        return mesh.edge_lengths
    if spec_text == "random":
        return None  # sized per entity once the spec names it
    try:
        return float(spec_text)
    except ValueError:
        raise ReproError(f"unknown field spec {spec_text!r}") from None


def _run_pipeline_cli(args, spec, result, out) -> int:
    import numpy as np

    from .driver import pipeline_report, run_pipeline
    from .mesh import read_mesh, read_triangle

    mesh_path = args.run
    if mesh_path.endswith(".mesh"):
        mesh = read_mesh(mesh_path)
    else:
        mesh = read_triangle(mesh_path)
    rng = np.random.default_rng(args.seed)
    scalars = {}
    for name, value in _parse_kv(args.scalars, "--set").items():
        try:
            scalars[name] = int(value) if value.lstrip("+-").isdigit() \
                else float(value)
        except ValueError:
            raise ReproError(f"bad --set {name}={value!r}: "
                             f"expected a number") from None
    fields = {}
    for name, spec_text in _parse_kv(args.fields, "--field").items():
        entity = spec.entity_of_array(name)
        if entity is None:
            raise ReproError(f"--field {name}: not a partitioned array")
        resolved = _resolve_field(spec_text, mesh, rng)
        count = mesh.entity_count(entity)
        if resolved is None:
            fields[name] = rng.standard_normal(count)
        elif isinstance(resolved, float):
            fields[name] = np.full(count, resolved)
        else:
            fields[name] = resolved
    fault_plan = None
    if args.fault_plan:
        from .runtime.faults import FaultPlan

        fault_plan = (FaultPlan.from_file(args.fault_plan[1:])
                      if args.fault_plan.startswith("@")
                      else FaultPlan.parse(args.fault_plan))
        out.write(f"* fault plan: {fault_plan.describe()}\n")
    run = run_pipeline(result.sub, spec, mesh, args.nparts,
                       fields=fields, scalars=scalars,
                       placement_index=args.index, placements=result,
                       method=args.partitioner, backend=args.backend,
                       split_phase=args.split_phase,
                       fault_plan=fault_plan,
                       comm_timeout=args.comm_timeout,
                       recovery=args.recovery,
                       rebalance=args.rebalance,
                       rebalance_at=args.rebalance_at,
                       check="strict" if args.strict else "warn",
                       model_check=args.model_check)
    out.write(pipeline_report(run, timeline=args.timeline) + "\n")
    tol = 1e-8 if args.backend == "vector" else 1e-9
    run.verify(rtol=tol, atol=tol / 10)
    out.write("VERIFIED: SPMD outputs match the sequential run\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
