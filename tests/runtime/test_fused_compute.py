"""Differential oracle for rank-fused compute: batch ≡ per-rank, bitwise.

On the vector backend the executor runs each fusable loop *once* over the
concatenated iterations of all ranks.  The reference — reached through
the ``reference_compute`` fixture — serves the very same loop requests
rank by rank through the executor's single-rank path (what localized
restart uses), so the two runs differ only in how many ranks share a
kernel sweep.  Everything observable must then be identical: every array
and scalar of every rank env, the step counts, the traffic ledger and
the event log.
"""

import functools

import numpy as np
import pytest

from repro.automata.automaton import KERNEL, OVERLAP
from repro.corpus import (
    ADVECTION_SOURCE,
    EDGE_SMOOTH_3D_SOURCE,
    HEAT_SOURCE,
    JACOBI_NODE_SOURCE,
    SHALLOW_SOURCE,
    SHALLOW_SPEC_TEXT,
    TESTIV_SOURCE,
)
from repro.driver import run_pipeline
from repro.errors import InterpError, RuntimeFault
from repro.lang import DoLoop, parse_subroutine
from repro.lang.vectorize import RankBatch
from repro.mesh import (
    RebalancePolicy,
    build_partition,
    repartition,
    structured_tet_mesh,
    structured_tri_mesh,
)
from repro.placement import enumerate_placements
from repro.placement.comms import Placement
from repro.placement.propagate import Solution
from repro.runtime import FaultPlan, SPMDExecutor
from repro.spec import PartitionSpec, spec_for_testiv
from tests.oracles import envs_bit_identical

P1, P2 = "overlap-elements-2d", "shared-nodes-2d"
_TRI = ("pattern {pattern}\nextent node nsom\nextent triangle ntri\n"
        "indexmap som triangle node\n")


def _areas(mesh, rng):
    return {"airetri": mesh.triangle_areas, "airesom": mesh.node_areas,
            "init": rng.standard_normal(mesh.n_nodes)}


#: name -> (source, spec text or factory, fields(mesh, rng), scalars)
PROGRAMS = {
    "testiv": (TESTIV_SOURCE, spec_for_testiv, _areas,
               {"epsilon": 1e-30, "maxloop": 3}),
    "advect": (ADVECTION_SOURCE,
               _TRI + ("array c0 node\narray c1 node\narray c node\n"
                       "array acc node\narray w triangle\n"),
               lambda mesh, rng: {"c0": rng.standard_normal(mesh.n_nodes),
                                  "w": np.full(mesh.n_triangles, 0.05)},
               {"nstep": 3}),
    "heat": (HEAT_SOURCE,
             _TRI + ("array u0 node\narray u1 node\narray u node\n"
                     "array rhs node\narray mass node\narray area triangle\n"),
             lambda mesh, rng: {"u0": rng.standard_normal(mesh.n_nodes),
                                "area": mesh.triangle_areas,
                                "mass": mesh.node_areas},
             {"dt": 0.05, "nstep": 3}),
    # climit makes the max-reduced cmax flip the dt branch mid-run
    "shallow": (SHALLOW_SOURCE, SHALLOW_SPEC_TEXT,
                lambda mesh, rng: {
                    "h0": 1.0 + 0.1 * rng.standard_normal(mesh.n_nodes),
                    "q0": 0.1 * rng.standard_normal(mesh.n_nodes),
                    "area": mesh.triangle_areas, "mass": mesh.node_areas},
                {"dt": 0.2, "climit": 0.02, "nstep": 4}),
    "jacobi": (JACOBI_NODE_SOURCE,
               "pattern {pattern}\nextent node nsom\narray x0 node\n"
               "array x1 node\narray x node\narray b node\n",
               lambda mesh, rng: {"x0": rng.standard_normal(mesh.n_nodes),
                                  "b": rng.standard_normal(mesh.n_nodes)},
               {"omega": 0.7, "nstep": 3}),
    "edge3d": (EDGE_SMOOTH_3D_SOURCE,
               "pattern {pattern}\nextent node nsom\nextent edge nseg\n"
               "indexmap nubo edge node\narray v0 node\narray v1 node\n"
               "array v node\narray acc node\narray elen edge\n",
               lambda mesh, rng: {"v0": rng.standard_normal(mesh.n_nodes),
                                  "elen": 0.05 / mesh.edge_lengths},
               {"nstep": 3}),
}


@functools.lru_cache(maxsize=None)
def _placed(program, pattern):
    source, spec, _fields, _scalars = PROGRAMS[program]
    spec = (spec(pattern) if callable(spec)
            else PartitionSpec.parse(spec.format(pattern=pattern)))
    return enumerate_placements(source, spec), spec


@functools.lru_cache(maxsize=None)
def _mesh(pattern):
    return (structured_tet_mesh(3, 3, 3) if pattern.endswith("3d")
            else structured_tri_mesh(12, 12))


def _executor(program, pattern, nparts, mesh=None, backend="vector"):
    placements, spec = _placed(program, pattern)
    mesh = mesh or _mesh(pattern)
    _src, _spec, fields, scalars = PROGRAMS[program]
    values = {**fields(mesh, np.random.default_rng(7)), **scalars}
    ex = SPMDExecutor(placements.sub, spec, placements.ranked[0].placement,
                      build_partition(mesh, nparts, spec.pattern),
                      backend=backend)
    return ex, values


def _ledger(stats):
    return ([(r.label, r.msgs, r.words, r.window, r.overlap_steps)
             for r in stats.collectives], stats.messages, stats.words)


def assert_same_run(a, b, where):
    """Two SPMD results that must agree in everything observable."""
    diff = envs_bit_identical(a.envs, b.envs)
    assert diff is None, f"{where}: {diff}"
    assert a.rank_steps == b.rank_steps, where
    assert _ledger(a.stats) == _ledger(b.stats), where
    assert a.timeline.events == b.timeline.events, where
    assert a.timeline.final_steps == b.timeline.final_steps, where


def _run_fused(ex, values, **kw):
    """Run ``ex``; the result and the sids of the loops it served fused."""
    served = set()
    serve = SPMDExecutor._serve

    def spy(self, run, requests):
        assert len(requests) == ex.partition.nparts
        served.add(requests[0].sid)
        serve(self, run, requests)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SPMDExecutor, "_serve", spy)
        return ex.run(dict(values), **kw), served


def _differential(reference_compute, program, pattern, nparts, mesh=None):
    ex, values = _executor(program, pattern, nparts, mesh)
    fused, served = _run_fused(ex, values)
    with reference_compute():
        singly = ex.run(dict(values))
    assert_same_run(fused, singly, f"{program} {pattern} P={nparts}")
    return ex, fused, served


CASES = [(prog, pattern) for prog in ("testiv", "advect", "heat", "shallow",
                                      "jacobi") for pattern in (P1, P2)]
CASES.append(("edge3d", "overlap-elements-3d"))


class TestBatchEqualsPerRank:
    @pytest.mark.parametrize("program,pattern", CASES)
    def test_corpus(self, reference_compute, program, pattern):
        for nparts in (1, 3, 8):
            ex, res, served = _differential(reference_compute, program,
                                            pattern, nparts)
            # every kernel loop of the corpus runs fused
            assert served == set(ex.kernels)
            for env in res.envs:
                for val in env.values():
                    assert np.all(np.isfinite(val))

    def test_shallow_branch_really_fires(self, reference_compute):
        _ex, res, _ = _differential(reference_compute, "shallow", P1, 3)
        (dt,) = {env["dt"] for env in res.envs}
        assert dt < 0.2

    def test_rank_with_zero_trips(self, reference_compute):
        # 8 ranks on 8 triangles: some ranks own no node at all, so their
        # KERNEL node loops (the reduction among them) make zero trips
        mesh = structured_tri_mesh(2, 2)
        ex, res, _ = _differential(reference_compute, "testiv", P1, 8, mesh)
        empty = [r for r, sub in enumerate(ex.partition.subs)
                 if sub.kernel_count["node"] == 0]
        assert empty, "no rank with an empty node kernel"
        assert KERNEL in ex.placement.domains.values()
        # the empty rank's accumulator held its own 0.0 going into the
        # reduction: the reduced value is still replicated
        assert len({env["sqrdiff"] for env in res.envs}) == 1


#: ``scale`` reads the extent ``nsom`` — a different value on every rank;
#: ``t`` is a replicated array, one full copy per rank in its slab
SCALARS_SOURCE = """\
      subroutine SCAL(A0, A1, nsom, T, shift)
      integer nsom
      real A0(400), A1(400), T(6)
      real shift, c, scale
      integer i, k
      real A(400)
      c = 0.0
      do k = 1,6
         c = c + T(k)
      end do
      do i = 1,nsom
         scale = shift / nsom
         A(i) = A0(i)*scale + 7/nsom
      end do
      do i = 1,nsom
         A1(i) = A(i) + c*T(2)
      end do
      end
"""
SCALARS_SPEC = ("pattern {pattern}\nextent node nsom\narray a0 node\n"
                "array a1 node\narray a node\n")
PROGRAMS["scalars"] = (
    SCALARS_SOURCE, SCALARS_SPEC,
    lambda mesh, rng: {"a0": rng.standard_normal(mesh.n_nodes),
                       "t": rng.standard_normal(6)},
    {"shift": 1.5})


#: kernel loops over an integer entity array (``cnt``), a 2-D real entity
#: array (``xy``) and a replicated array (``w``); ``cnt``, ``x`` and the
#: 2-D ``xy`` are overlap-updated on the overlapping pattern, ``cnt`` and
#: ``acc`` combined on the shared-node one
MIXED_SOURCE = """\
      subroutine MIX(X0, X, XY, CNT, W, nsom, ntri, SOM, nstep)
      integer nsom, ntri, nstep
      integer SOM(600,3), CNT(400)
      real X0(400), X(400), XY(400,2), W(3), ACC(400)
      integer i, t, s1, s2, s3
      do i = 1,nsom
         CNT(i) = 0
         X(i) = X0(i)
      end do
      do i = 1,ntri
         s1 = SOM(i,1)
         s2 = SOM(i,2)
         s3 = SOM(i,3)
         CNT(s1) = CNT(s1) + 1
         CNT(s2) = CNT(s2) + 1
         CNT(s3) = CNT(s3) + 1
      end do
      do t = 1,nstep
         do i = 1,nsom
            XY(i,1) = X(i)*W(1)
            XY(i,2) = X(i)*W(2) + CNT(i)
            ACC(i) = 0.0
         end do
         do i = 1,ntri
            s1 = SOM(i,1)
            s2 = SOM(i,2)
            s3 = SOM(i,3)
            ACC(s1) = ACC(s1) + (XY(s2,1) + XY(s3,2)*W(3))
            ACC(s2) = ACC(s2) + (XY(s3,1) + XY(s1,2)*W(3))
            ACC(s3) = ACC(s3) + (XY(s1,1) + XY(s2,2)*W(3))
         end do
         do i = 1,nsom
            X(i) = ACC(i) / CNT(i)
         end do
      end do
      end
"""
PROGRAMS["mixed"] = (
    MIXED_SOURCE,
    _TRI + ("array x0 node\narray x node\narray xy node\narray cnt node\n"
            "array acc node\n"),
    lambda mesh, rng: {"x0": rng.standard_normal(mesh.n_nodes),
                       "w": np.array([0.3, 0.2, 0.1])},
    {"nstep": 3})


def _slabs_after(ex, values, **kw):
    """Run ``ex``; the result and the slabs of its run at the end."""
    ends = []
    finish = SPMDExecutor._finish

    def spy(self, run):
        ends.append(run.slabs)
        return finish(self, run)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SPMDExecutor, "_finish", spy)
        res = ex.run(dict(values), **kw)
    return res, ends[0]


class TestEveryArrayIsOneSlab:
    @pytest.mark.parametrize("pattern", [P1, P2])
    def test_integer_2d_and_replicated_arrays_fuse(self, reference_compute,
                                                   pattern):
        ex, res, served = _differential(reference_compute, "mixed",
                                        pattern, 3)
        touched = set().union(*(k.arrays for k in ex.kernels.values()))
        assert {"cnt", "xy", "w"} <= touched
        # the integer array's waves, and on P1 the 2-D array's, go
        # through their slabs
        waved = {op.var for op in ex.placement.comms}
        assert {"cnt", "xy"} & waved == ({"cnt", "xy"} if pattern == P1
                                         else {"cnt"})
        assert served == set(ex.kernels)
        for env in res.envs:
            assert env["cnt"].dtype == np.int64 and env["xy"].ndim == 2

    @pytest.mark.parametrize("recovery", ["global", "local"])
    def test_fused_under_a_kill(self, reference_compute, recovery):
        ex, values = _executor("mixed", P1, 3)
        base, _ = _run_fused(ex, values)
        # a checkpoint every third event: the kill rewinds over an event
        kill = {"faults": FaultPlan.parse("kill rank=1 event=4"),
                "checkpoint_every": 3, "recovery": recovery}
        res, served = _run_fused(ex, values, **kill)
        assert served == set(ex.kernels)
        assert len(res.timeline.faults) == 1
        assert envs_bit_identical(base.envs, res.envs) is None
        assert res.rank_steps == base.rank_steps
        with reference_compute():
            singly = ex.run(dict(values), **kill)
        assert_same_run(res, singly, f"mixed, killed, {recovery}")

    def test_rank_holding_more_entities_than_declared(self,
                                                      reference_compute):
        # 2601 nodes on 2 ranks: each rank holds more nodes than the 1000
        # TESTIV declares, OLD and NEW among them with no input value
        mesh = structured_tri_mesh(50, 50)
        ex, _res, served = _differential(reference_compute, "testiv", P1, 2,
                                         mesh)
        assert min(len(s.l2g["node"]) for s in ex.partition.subs) > 1000
        assert served == set(ex.kernels)
        placements, spec = _placed("testiv", P1)
        _src, _spec, fields, scalars = PROGRAMS["testiv"]
        run_pipeline(placements.sub, spec, mesh, 2,
                     fields=fields(mesh, np.random.default_rng(7)),
                     scalars=scalars, placements=placements,
                     backend="vector").verify()

    @pytest.mark.parametrize("program", ["mixed", "testiv"])
    def test_every_declared_array_is_a_view_of_its_slab(self, program):
        ex, values = _executor(program, P1, 3)
        part = ex.partition
        er = part.elem_ranks.copy()
        er[np.flatnonzero(er == 0)[:3]] = 1
        runs = {"plain": {}, "migrated": {"rebalance": RebalancePolicy(
            rebalance_at=(2,), plans={2: repartition(part, er)})}}
        for how, kw in runs.items():
            res, slabs = _slabs_after(ex, values, **kw)
            arrays = {n for n, d in ex.sub.decls.items() if d.is_array}
            assert set(slabs) == arrays, how
            for name in arrays:
                slab = slabs[name]
                assert len(slab.views) == len(res.envs), (how, name)
                for env, view in zip(res.envs, slab.views):
                    assert env[name] is view, (how, name)
                    assert np.shares_memory(view, slab.flat), (how, name)
        assert res.migration["moved_entities"] > 0


class TestWhichLoopsFuse:
    def test_rank_varying_scalar_and_replicated_array(
            self, reference_compute):
        ex, res, served = _differential(reference_compute, "scalars", P1, 3)
        loops = [st for st in ex.sub.walk() if isinstance(st, DoLoop)]
        assert set(ex.kernels) == {loop.sid for loop in loops}
        # every loop fuses, the two reading the replicated T included
        assert served == {loop.sid for loop in loops}
        sizes = [env["nsom"] for env in res.envs]
        assert len(set(sizes)) == 3, "extents should differ across ranks"
        for env, sub in zip(res.envs, ex.partition.subs):
            # overlap copies may come from the owner, scaled by *its* nsom
            n, kern = env["nsom"], sub.kernel_count["node"]
            want = env["a0"][:kern] * (1.5 / n) + 7 // n \
                + np.sum(env["t"]) * env["t"][1]
            np.testing.assert_allclose(env["a1"][:kern], want, rtol=1e-12)

    def test_interp_backend_never_requests(self, monkeypatch):
        ex, values = _executor("testiv", P1, 3, backend="interp")
        monkeypatch.setattr(SPMDExecutor, "_serve", None)  # would raise
        ex.run(dict(values))

    def test_action_inside_a_loop_body_disables_its_kernel(self):
        # a communication anchored on a statement *inside* a vector loop
        # must be reached once per iteration: Interpreter.__init__ drops
        # that loop's kernel, so the executor never gets a request for it
        # (one rank: a collective per iteration needs equal trip counts)
        ex, values = _executor("testiv", P1, 1)
        base = ex.run(dict(values))
        loop = next(st for st in ex.sub.walk() if isinstance(st, DoLoop))
        _res, served = _run_fused(ex, values)
        assert loop.sid in served
        event = next(iter(ex._events.values())).pop(0)
        ex._events.setdefault(loop.body[0].sid, []).insert(0, event)
        res, served = _run_fused(ex, values)
        assert served == set(ex.kernels) - {loop.sid}
        assert len(res.timeline.events) >= res.envs[0]["nsom"]
        assert envs_bit_identical(base.envs, res.envs) is None

    def test_loop_nested_in_a_partitioned_loop_is_not_fused(self):
        # the legality checker rejects this shape, but the executor takes
        # hand-built placements too: ranks reach the inner loop nsom times
        # each — different counts — so it must not wait for lockstep
        sub = parse_subroutine(
            "      subroutine NEST(A0, A1, B, nsom)\n"
            "      integer nsom\n"
            "      real A0(400), A1(400), B(400)\n"
            "      integer i, k\n"
            "      do i = 1,nsom\n"
            "         do k = 1,2\n"
            "            B(k) = A0(k) + 1.0\n"
            "         end do\n"
            "         A1(i) = A0(i)*B(2)\n"
            "      end do\n"
            "      end\n")
        spec = PartitionSpec.parse(
            f"pattern {P1}\nextent node nsom\narray a0 node\n"
            "array a1 node\narray b node\n")
        mesh = _mesh(P1)
        outer = sub.body[0]
        placement = Placement(solution=Solution(
            domains={outer.sid: OVERLAP}, states={}, edge_updates={}))
        ex = SPMDExecutor(sub, spec, placement,
                          build_partition(mesh, 3, P1), backend="vector")
        a0 = np.random.default_rng(3).standard_normal(mesh.n_nodes)
        res, served = _run_fused(ex, {"a0": a0})
        assert set(ex.kernels) == {outer.body[0].sid}
        assert served == set()
        for env in res.envs:
            n = env["nsom"]
            assert np.array_equal(env["a1"][:n],
                                  env["a0"][:n] * (env["a0"][1] + 1.0))


    def test_index_map_assigned_by_the_program_stays_coherent(
            self, reference_compute):
        # rank envs bind views of the map's slab, so a store through the
        # view (or through the slab, when the storing loop runs fused) is
        # what the next fused loop reads
        sub = parse_subroutine(
            "      subroutine FLIP(A0, A1, nsom, ntri, SOM)\n"
            "      integer nsom, ntri\n"
            "      integer SOM(600,3)\n"
            "      real A0(400), A1(400)\n"
            "      integer i\n"
            "      do i = 1,ntri\n"
            "         SOM(i,1) = SOM(i,2)\n"
            "      end do\n"
            "      do i = 1,ntri\n"
            "         A1(SOM(i,1)) = A1(SOM(i,1)) + A0(SOM(i,3))\n"
            "      end do\n"
            "      end\n")
        spec = PartitionSpec.parse(
            _TRI.format(pattern=P1) + "array a0 node\narray a1 node\n")
        loops = [st for st in sub.walk() if isinstance(st, DoLoop)]
        placement = Placement(solution=Solution(
            domains={loop.sid: OVERLAP for loop in loops}, states={},
            edge_updates={}))
        mesh = _mesh(P1)
        ex = SPMDExecutor(sub, spec, placement,
                          build_partition(mesh, 3, P1), backend="vector")
        values = {"a0": np.random.default_rng(5).standard_normal(
            mesh.n_nodes)}
        fused, served = _run_fused(ex, values)
        assert served == {loop.sid for loop in loops}
        with reference_compute():
            singly = ex.run(dict(values))
        assert_same_run(fused, singly, "assigned index map")
        for env, part in zip(fused.envs, ex.partition.subs):
            conn = part.elements + 1
            want = np.zeros(len(env["a1"]))
            np.add.at(want, conn[:, 1] - 1, env["a0"][conn[:, 2] - 1])
            assert np.array_equal(env["som"][:len(conn), 0], conn[:, 1])
            assert np.array_equal(env["a1"], want)


    def test_a_second_sweep_reuses_every_triangle_loop_address(
            self, monkeypatch):
        # SOM is never assigned, so every subscript of TESTIV's triangle
        # loop is invariant: a second sweep over the same space — the rank
        # batch, or one rank's sequential space — addresses nothing anew
        from repro.lang import vectorize

        ex, values = _executor("testiv", P1, 3)
        (sid,) = [lsid for lsid, ent in ex.loop_entity.items()
                  if ent == "triangle"]
        served = {}
        serve = SPMDExecutor._serve

        def spy(self, run, requests):
            served[requests[0].sid] = run, [(r.lo, r.hi) for r in requests]
            serve(self, run, requests)

        monkeypatch.setattr(SPMDExecutor, "_serve", spy)
        ex.run(dict(values))
        run, bounds = served[sid]
        kernel, calls = ex.kernels[sid], []
        index_key = vectorize._index_key
        monkeypatch.setattr(vectorize, "_index_key",
                            lambda *args: calls.append(args) or index_key(
                                *args))

        def addressed(sweeps, sweep):
            calls.clear()
            for _ in range(sweeps):
                sweep()
            return len(calls)

        batches = [RankBatch(run.envs, bounds, run.slabs) for _ in range(2)]
        assert 0 < addressed(1, lambda: kernel.sweep(batches[0])) \
            == addressed(2, lambda: kernel.sweep(batches[1]))
        spaces, env, (lo, hi) = [{}, {}], run.envs[0], bounds[0]
        assert 0 < addressed(1, lambda: kernel(env, lo, hi, spaces[0])) \
            == addressed(2, lambda: kernel(env, lo, hi, spaces[1]))


class TestChecksStay:
    def test_subscript_past_own_rows_raises_not_spills(self):
        # rank 0's index map points one past its own rows: in the fused
        # buffer that address is rank 1's first element, and must not pass
        ex, values = _executor("testiv", P1, 3)
        fills = ex._index_map_fills

        def corrupt(subs):
            maps = fills(subs)
            maps["som"][0][0, 0] = 1001   # OLD/NEW/AIRESOM are (1000)
            return maps

        ex._index_map_fills = corrupt
        with pytest.raises(InterpError, match="out of bounds"):
            ex.run(dict(values))

    def test_max_steps_fires_per_rank(self):
        ex, values = _executor("testiv", P1, 3)
        steps = ex.run(dict(values)).rank_steps
        with pytest.raises(InterpError, match="step budget exceeded"):
            ex.run(dict(values), max_steps=min(steps) // 2)

    def test_ranks_at_different_loops_is_a_divergence_fault(self):
        # control flow that is not replicated: the branch tests the
        # rank-local extent, so some ranks ask for the first loop while
        # the others are already at the second
        sub = parse_subroutine(
            "      subroutine DIV(A0, A1, nsom, cut)\n"
            "      integer nsom, cut\n"
            "      real A0(400), A1(400)\n"
            "      integer i\n"
            "      if (nsom .gt. cut) then\n"
            "         do i = 1,nsom\n"
            "            A1(i) = 0.0\n"
            "         end do\n"
            "      end if\n"
            "      do i = 1,nsom\n"
            "         A1(i) = A0(i)\n"
            "      end do\n"
            "      end\n")
        spec = PartitionSpec.parse(
            f"pattern {P1}\nextent node nsom\narray a0 node\n"
            "array a1 node\n")
        loops = [st for st in sub.walk() if isinstance(st, DoLoop)]
        placement = Placement(solution=Solution(
            domains={loop.sid: OVERLAP for loop in loops}, states={},
            edge_updates={}))
        partition = build_partition(_mesh(P1), 3, P1)
        sizes = sorted(len(s.l2g["node"]) for s in partition.subs)
        assert sizes[0] < sizes[-1]
        ex = SPMDExecutor(sub, spec, placement, partition, backend="vector")
        with pytest.raises(RuntimeFault, match="ranks diverged"):
            ex.run({"a0": np.zeros(_mesh(P1).n_nodes), "cut": sizes[0]})
        ex.run({"a0": np.zeros(_mesh(P1).n_nodes), "cut": 0})  # replicated
