"""Tests of the benchmark harness itself.

Run with ``pytest benchmarks/e2e`` from the repository root; tier-1
(``testpaths = ["tests"]``) does not collect this file.
"""

import json
import pathlib
import re
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def test_self_time_is_span_minus_children():
    trace = [
        {"name": spans.UNIT, "start": 0.0, "end": 10.0, "parent": None,
         "rep": 0},
        {"name": "analysis.commcheck_s", "start": 1.0, "end": 7.0,
         "parent": 0, "rep": 0},
        {"name": "analysis.schedcheck_s", "start": 2.0, "end": 4.0,
         "parent": 1, "rep": 0},
        {"name": "analysis.schedcheck_s", "start": 5.0, "end": 6.0,
         "parent": 1, "rep": 0},
        {"name": "runtime.spmd_run_s", "start": 7.0, "end": 9.5,
         "parent": 0, "rep": 0},
        {"name": spans.UNIT, "start": 20.0, "end": 21.0, "parent": None,
         "rep": 1},
    ]
    assert spans.self_times(trace) == [1.5, 3.0, 2.0, 1.0, 2.5, 1.0]
    per_rep = spans.layer_seconds(trace)
    assert per_rep[0] == {spans.UNIT: 10.0, "analysis.commcheck_s": 3.0,
                          "analysis.schedcheck_s": 3.0,
                          "runtime.spmd_run_s": 2.5}
    # the layers' self times account for the unit minus its own self time
    assert sum(v for k, v in per_rep[0].items() if k != spans.UNIT) == 8.5
    assert per_rep[1] == {spans.UNIT: 1.0}


def test_tracer_nests_and_a_disabled_tracer_records_nothing():
    tr = spans.Tracer(True)
    tr.begin_rep()
    with tr.span("outer"):
        with tr.span("inner"):
            tr.count("things", 2)
            tr.count("things", 3)
    assert [s["parent"] for s in tr.spans] == [None, 0]
    assert all(s["end"] >= s["start"] for s in tr.spans)
    assert tr.counts == [{"things": 5}]
    off = spans.Tracer(False)
    with off.span("outer"):
        off.count("things", 1)
    assert off.spans == [] and off.counts == []
    # ... but the clock at every stage boundary: one mark per span left
    off.mark()
    assert len(off.marks) == 2 and off.marks[0] <= off.marks[1]


def test_undisturbed_takes_each_lap_at_its_fastest():
    assert spans.laps(1.0, [1.5, 4.0], 4.5) == [0.5, 2.5, 0.5]
    reps = [[1.0, 5.0, 2.0],    # a burst hit the second lap
            [3.0, 2.0, 2.5],    # ... the first
            [1.5, 2.5, 1.0]]
    assert spans.undisturbed(reps) == 1.0 + 2.0 + 1.0
    assert spans.undisturbed(reps[:1]) == 8.0
    assert spans.undisturbed(reps, rank=2) == 1.5 + 2.5 + 2.0
    # repetitions cut differently (an operation failed half-way): the
    # fastest whole repetition
    assert spans.undisturbed([[1.0, 5.0, 2.0], [3.0, 2.0]]) == 5.0


def test_reference_kernels_cut_alike_every_time():
    import reference

    a, b = reference.laps(), reference.laps()
    assert len(a) == len(b) == len(reference.KERNELS)
    assert all(x > 0 for x in a + b)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_come_from_the_seed(name):
    workload = workloads.WORKLOADS[name]
    digests = []
    for seed in (3, 3, 4):
        st = workload.setup(seed, True)
        digests.append(workload.digest(st))
        workload.teardown(st)
    assert digests[0] == digests[1] != digests[2]


@pytest.fixture(scope="module")
def smoke():
    """``run.py --all --smoke``: every workload, both passes."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--all", "--smoke",
         "--seed", "2"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - t0
    with open(HERE / "out" / "result-seed2.json", encoding="utf-8") as fh:
        return proc, seconds, json.load(fh)


def test_smoke_verifies_everything_in_under_30_s(smoke):
    proc, seconds, result = smoke
    assert proc.returncode == 0, proc.stdout
    assert seconds < 30
    for name, entry in result["workloads"].items():
        assert entry["end_to_end"]["verified_frac"]["value"] == 1.0, name
        for key in ("end_to_end_tally", "per_layer_tally"):
            assert entry[key]["correct"] and entry[key]["failed"] == 0


def test_printed_names_are_the_declared_names(smoke):
    _proc, _seconds, result = smoke
    spec = run.declared()
    assert set(result["workloads"]) == {w["name"] for w in spec["workloads"]}
    assert set(workloads.WORKLOADS) == set(result["workloads"])
    measured = set()
    for name, entry in result["workloads"].items():
        assert NAME.match(name)
        for key in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            printed = entry[key]
            assert set(printed) == set(declared), (name, key)
            for metric, value in printed.items():
                assert NAME.match(metric)
                assert value["unit"] == declared[metric]
            # what the pass measured, as opposed to zero-filled
            assert set(entry[f"{key}_detail"]["measured"]) <= set(declared)
            measured |= set(entry[f"{key}_detail"]["measured"])
        assert all(v["value"] != 0 for v in entry["end_to_end"].values())
    declared_all = {m["name"] for key in ("end_to_end", "per_layer")
                    for m in spec[key]}
    assert measured == declared_all   # … and vice versa


def test_compare_flags_a_regression(tmp_path, smoke):
    _proc, _seconds, result = smoke
    path_a = tmp_path / "a.json"
    path_a.write_text(json.dumps(result))
    slower = json.loads(json.dumps(result))
    e2e = slower["workloads"]["place-corpus"]
    e2e["end_to_end"]["e2e_s"]["value"] *= 2
    path_b = tmp_path / "b.json"
    path_b.write_text(json.dumps(slower))
    assert run.compare(str(path_a), str(path_a)) == 0
    assert run.compare(str(path_a), str(path_b)) == 1
    assert run.compare(str(path_b), str(path_a)) == 0
