#!/usr/bin/env python3
"""Source-to-verified-outputs benchmark: one command, five workloads.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --all --seed 1
    python3 benchmarks/e2e/run.py --compare A.json B.json

The first form is what ``BENCHMARK.json`` declares: one workload, one
pass, one process, one thread; the last line of its standard output is
the result object.  ``--trace 0`` is the end-to-end pass (tracing off;
repetitions of the unit for ``--seconds`` seconds and never fewer than
``MIN_REPS``, the reference kernels between them; ``e2e_s`` is the
unit's undisturbed seconds at the reference machine speed); ``--trace 1``
the traced pass (rounds of plain unit, traced unit and front door, then
the probes).  ``--all`` runs both passes of every
workload, each in a fresh subprocess, and writes
``out/result-seed<N>.json``; ``--compare`` sets two such files side by
side.  See README.md beside this file.
"""

import os
import time

T0 = time.perf_counter()   # set-up time counts from here: imports included
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

import reference  # noqa: E402
from spans import UNIT, Tracer, laps, layer_seconds, undisturbed  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: timed repetitions of the end-to-end pass never go below this
MIN_REPS = 5
#: rounds (plain unit, traced unit, front door) of the traced pass
MIN_ROUNDS = 2
#: set-ups per end-to-end run (this process and fresh child processes)
SETUPS = 3
#: passes of the reference kernels before and after every repetition
REFERENCE_PASSES = 4
#: per-layer ratios that come from the clock; every other per-layer metric
#: whose unit is not a time is an exact count and must repeat for a seed
MEASURED_RATIOS = {"driver.stage_sum_frac", "driver.pipeline_vs_staged_frac",
                   "driver.trace_overhead_frac",
                   "runtime.resilience_overhead_frac"}


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_workloads():
    """Import the harness on top of the checkout's own ``src/``."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads.WORKLOADS


# -- one workload, one pass -----------------------------------------------

class Tally:
    def __init__(self, golden):
        self.attempted = 0
        self.failed = 0
        self.golden = golden   # {op name: {count name: value}} or None

    def judge(self, unit) -> None:
        for op in unit.ops:
            want = (self.golden or {}).get(op.name)
            if op.ok and want is not None and op.counts:
                diffs = {k: (v, want.get(k)) for k, v in op.counts.items()
                         if want.get(k) != v}
                if diffs:
                    op.fail("exact counts differ from expected/"
                            f"counts-seed1.json (got, want): {diffs}")
            self.attempted += 1
            self.failed += not op.ok

    def check(self, ok: bool, what: str) -> None:
        """One more attempted operation of the harness's own."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}", file=sys.stderr)


def more(args, done: int, floor: int, start: float) -> bool:
    """Repeat for ``--seconds`` and never fewer than ``floor`` times; a
    smoke run repeats once."""
    if args.smoke:
        return done < 1
    return done < floor or time.perf_counter() - start < args.seconds


def timed_unit(workload, st, tr):
    """Seconds of one repetition, its result, and the same seconds cut
    into laps at the unit's stage boundaries."""
    gc.collect()
    tr.marks = []
    t0 = time.perf_counter()
    with tr.span(UNIT):
        unit = workload.unit(st, tr)
    t1 = time.perf_counter()
    return t1 - t0, unit, laps(t0, tr.marks, t1)


def child_setups(args, digest: str, tally: Tally) -> list[float]:
    """Set up again in fresh processes: their seconds, same inputs."""
    samples = []
    for _ in range(SETUPS - 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True, check=True)
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(child["setup_s"])
        tally.check(child["digest"] == digest,
                    "same seed gave different inputs in a fresh process")
    return samples


def e2e_pass(args, workload, st, tally: Tally, setup_s: float, digest: str):
    tr = Tracer(False)
    setups = [setup_s]
    if not args.smoke:
        setups += child_setups(args, digest, tally)
    # No repetition is set apart as a warm-up: the first one is slow in
    # the laps that fill a lazy cache, and a lap's fastest timing is
    # never that one.
    times, units, cuts = [], [], []
    ref = [reference.laps() for _ in range(REFERENCE_PASSES)]
    start = time.perf_counter()
    while more(args, len(times), MIN_REPS, start):
        seconds, unit, cut = timed_unit(workload, st, tr)
        tally.judge(unit)
        times.append(seconds)
        units.append(unit)
        cuts.append(cut)
        ref += [reference.laps() for _ in range(REFERENCE_PASSES)]
    # The fastest of R timings sits, on average, at the 1/(R+1) quantile
    # of what the machine does to a lap; the reference laps, timed
    # REFERENCE_PASSES times as often, are read at the same quantile, so
    # that a moment of luck the unit never had does not count for them.
    unit_s = undisturbed(cuts)
    ref_s = undisturbed(ref, rank=len(ref) // (len(cuts) + 1))
    # the R unit times are printed beside ``e2e_s`` but are not its
    # samples: ``--compare`` must not read its spread off them
    samples = {"setup_s": setups, "unit_s": times}
    values = {
        "setup_s": statistics.median(setups),
        "e2e_s": unit_s * reference.NOMINAL_S / ref_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_speedup": units[-1].sim_speedup,
        "verified_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    return values, {"samples": samples,
                    "n": {name: len(xs) for name, xs in samples.items()},
                    "laps": len(cuts[0]), "unit_undisturbed_s": unit_s,
                    "reference_undisturbed_s": ref_s,
                    "reference_passes": len(ref)}


def traced_pass(args, workload, st, tally: Tally):
    tr = Tracer(False)
    if not args.smoke:
        tally.judge(timed_unit(workload, st, tr)[1])   # warm-up, discarded
    plain, traced, fronts, warned = [], [], [], []
    units, plain_units = [], []
    start = time.perf_counter()
    while more(args, len(traced), MIN_ROUNDS, start):
        # one round: plain unit, traced unit, front door — neighbours in
        # time, so each round's ratios see the same machine speed
        tr.enabled = False
        seconds, unit, _cut = timed_unit(workload, st, tr)
        tally.judge(unit)
        plain.append(seconds)
        plain_units.append(unit)
        tr.enabled = True
        tr.begin_rep()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            seconds, unit, _cut = timed_unit(workload, st, tr)
        tally.judge(unit)
        traced.append(seconds)
        units.append(unit)
        warned.append(len(caught))
        tr.enabled = False
        gc.collect()
        front_s, front_prints = workload.front_door(st)
        fronts.append(front_s / sum(
            op.seconds for op in unit.ops[workload.FRONT_OPS]))
        tally.check(front_prints == unit.fingerprints,
                    "staged path's fingerprints differ from the front "
                    "door's")
    values = dict(workload.probes(st, units, plain_units))

    per_rep = layer_seconds(tr.spans)
    names = {n for rep in per_rep.values() for n in rep} - {UNIT}
    for name in names:
        values[name] = statistics.median(
            rep.get(name, 0.0) for rep in per_rep.values())
    for name in {n for rep in tr.counts for n in rep}:
        values[name] = statistics.median(rep.get(name, 0)
                                         for rep in tr.counts)
    if values.get("lang.seq_steps"):
        values["runtime.redundant_step_frac"] = (
            values["runtime.sum_rank_steps"] / values["lang.seq_steps"] - 1)
    values.update({
        "driver.unit_s": statistics.median(traced),
        "driver.stage_sum_frac": statistics.median(
            sum(v for n, v in rep.items() if n != UNIT) / rep[UNIT]
            for rep in per_rep.values()),
        "driver.pipeline_vs_staged_frac": statistics.median(fronts),
        "driver.trace_overhead_frac": statistics.median(
            t / p for t, p in zip(traced, plain)) - 1,
        "driver.runtime_warnings": statistics.median(warned),
    })
    OUT.mkdir(exist_ok=True)
    tr.dump(OUT / f"trace-{workload.name}.json", workload=workload.name,
            seed=args.seed, smoke=args.smoke)
    detail = {"samples": {"plain_unit_s": plain, "traced_unit_s": traced},
              "n": {"traced": len(traced), "plain": len(plain)}}
    return values, detail


def run_one(args) -> int:
    try:
        workloads = load_workloads()
    except ImportError as exc:
        print(f"cannot import the program under test from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    spec = declared()
    workload = workloads[args.workload]
    st = workload.setup(args.seed, args.smoke)
    setup_s = time.perf_counter() - T0
    try:
        digest = workload.digest(st)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "digest": digest}))
            return 0
        golden = None
        if args.seed == 1 and not args.smoke:
            with open(HERE / "expected" / "counts-seed1.json",
                      encoding="utf-8") as fh:
                golden = json.load(fh).get(workload.name)
        tally = Tally(golden)
        if args.trace:
            values, detail = traced_pass(args, workload, st, tally)
            wanted = spec["per_layer"]
        else:
            values, detail = e2e_pass(args, workload, st, tally, setup_s,
                                      digest)
            wanted = spec["end_to_end"]
    finally:
        workload.teardown(st)

    print(f"workload {workload.name}  seed {args.seed}  trace "
          f"{int(args.trace)}  input {digest[:16]}  n {detail['n']}")
    metrics = {}
    for decl in wanted:
        value = values.get(decl["name"], 0)
        metrics[decl["name"]] = {"value": value, "unit": decl["unit"]}
        line = f"  {decl['name']:<34}{value:>16.6g} {decl['unit']}"
        plain = decl["name"] == "e2e_s"
        samples = detail["samples"].get("unit_s" if plain else decl["name"])
        if samples:
            line += (f"   {'plain unit times: ' if plain else ''}"
                     f"n={len(samples)} median "
                     f"{statistics.median(samples):.4g} min "
                     f"{min(samples):.4g} max {max(samples):.4g}")
        print(line)
    undeclared = sorted(set(values) - {d["name"] for d in wanted})
    if undeclared:
        print(f"not declared in BENCHMARK.json: {undeclared}",
              file=sys.stderr)
        tally.check(False, "the harness measured an undeclared metric")
    detail["measured"] = sorted(values)
    print("detail: " + json.dumps(detail))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


# -- every workload, both passes ------------------------------------------

def run_all(args) -> int:
    spec = declared()
    result = {"seed": args.seed, "seconds": args.seconds,
              "smoke": args.smoke, "workloads": {}}
    status = 0
    for decl in spec["workloads"]:
        entry = result["workloads"][decl["name"]] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   decl["name"], "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                print(f"{decl['name']} --trace {trace}: no result (exit "
                      f"{proc.returncode})", file=sys.stderr)
                status = 1
                continue
            print("\n".join(lines[:-2]))
            last = json.loads(lines[-1])
            detail = json.loads(lines[-2].removeprefix("detail: "))
            entry[key] = last["metrics"]
            entry[f"{key}_detail"] = detail
            entry[f"{key}_tally"] = {k: last[k] for k in
                                     ("correct", "attempted", "failed")}
            status |= proc.returncode
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(f"\nwrote {path.relative_to(ROOT)}; "
          f"{'every operation verified' if status == 0 else 'FAILURES'}")
    return status


# -- two result files side by side ----------------------------------------

def _is_time(unit: str) -> bool:
    return unit in ("s", "ms")


def compare(path_a: str, path_b: str) -> int:
    spec = declared()
    with open(path_a, encoding="utf-8") as fh:
        a_all = json.load(fh)["workloads"]
    with open(path_b, encoding="utf-8") as fh:
        b_all = json.load(fh)["workloads"]
    worse = 0
    print(f"{'workload':<17}{'metric':<15}{'A':>12}{'B':>12}{'B vs A':>9}"
          f"{'bound':>7}  verdict")
    for wname in (w for w in a_all if w in b_all):
        a_w, b_w = a_all[wname], b_all[wname]
        for decl in spec["end_to_end"]:
            name = decl["name"]
            a = a_w["end_to_end"][name]["value"]
            b = b_w["end_to_end"][name]["value"]
            sign = 1 if decl["better"] == "lower" else -1
            rel = sign * (b - a) / a + 0.0   # no "-0.0%"
            verdict = "ok"
            sa = a_w["end_to_end_detail"]["samples"].get(name, [a])
            sb = b_w["end_to_end_detail"]["samples"].get(name, [b])
            # a spread wider than the bound resolves nothing, unless every
            # run of B reads better than every run of A
            wide = max((max(s) - min(s)) / statistics.median(s)
                       for s in (sa, sb)) > decl["bound"]
            b_wins = (max(sb) < min(sa) if sign == 1 else min(sb) > max(sa))
            a_wins = (max(sa) < min(sb) if sign == 1 else min(sa) > max(sb))
            if rel > decl["bound"]:
                verdict = "worse" if a_wins or not wide else "unresolved"
            elif wide and not b_wins:
                verdict = "unresolved"
            worse += verdict == "worse"
            print(f"{wname:<17}{name:<15}{a:>12.5g}{b:>12.5g}{rel:>+9.1%}"
                  f"{decl['bound']:>7.3g}  {verdict}")
        differing = []
        for decl in spec["per_layer"]:
            if _is_time(decl["unit"]) or decl["name"] in MEASURED_RATIOS:
                continue
            pair = (a_w["per_layer"][decl["name"]]["value"],
                    b_w["per_layer"][decl["name"]]["value"])
            if pair[0] != pair[1]:
                differing.append(f"{decl['name']} {pair[0]} -> {pair[1]}")
        print(f"{wname:<17}exact counts: "
              + ("all agree" if not differing else "; ".join(differing)))
    print(f"{worse} worse")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one pass measures (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="one repetition, 200-node meshes, 50 requests")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    spec = declared()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.all:
        return run_all(args)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
