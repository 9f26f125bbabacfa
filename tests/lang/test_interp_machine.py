"""The interpreter's observable machine state, pinned.

``golden_interp.json`` was generated at the commit *before* ``FlatCode``
was compiled to closures and opcode tuples (``python -m
tests.lang.test_interp_machine`` rewrites it — only ever from a tree whose
interpreter is trusted): steps, visit counts and bit-exact outputs of
every corpus program, sequential and on 4 ranks.  The rest of the module
pins what the compiled machine must share with the per-instruction one:
the step the budget runs out at, pre-actions and jump targets inside loop
bodies, resumption from a :class:`MachineState` copy, one compilation per
``FlatCode``.
"""

import builtins
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.corpus import synthetic_source, synthetic_spec
from repro.driver import run_pipeline
from repro.driver.pipeline import build_global_env
from repro.errors import InterpError
from repro.lang import (
    DoLoop,
    Interpreter,
    lower_subroutine,
    make_env,
    parse_subroutine,
)
from repro.lang.ast import Assign
from repro.lang import interp as interp_module
from repro.lang.interp import MachineState
from repro.runtime import FaultPlan
from tests.oracles import envs_bit_identical
from tests.runtime.test_fused_compute import (
    P1,
    PROGRAMS,
    _executor,
    _mesh,
    _placed,
)

GOLDEN_PATH = Path(__file__).parent / "golden_interp.json"
CORPUS = ["testiv", "advect", "heat", "jacobi", "edge3d", "shallow",
          "synthetic2"]


def _problem(program):
    """(source, placements or None, spec, mesh, fields, scalars)."""
    if program == "synthetic2":
        mesh = _mesh(P1)
        rng = np.random.default_rng(7)
        return (synthetic_source(2), None, synthetic_spec(), mesh,
                {"f0": rng.standard_normal(mesh.n_nodes),
                 "w": np.full(mesh.n_triangles, 0.1)}, {})
    source, _spec, fields, scalars = PROGRAMS[program]
    placements, spec = _placed(
        program, "overlap-elements-3d" if program == "edge3d" else P1)
    mesh = _mesh(spec.pattern)
    return (source, placements, spec, mesh,
            fields(mesh, np.random.default_rng(7)), scalars)


def _digest(value):
    """Bit-exact, type-exact digest of one environment entry."""
    if isinstance(value, np.ndarray):
        a = np.ascontiguousarray(value)
        return hashlib.sha256(
            f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()
    if isinstance(value, (bool, np.bool_)):
        return f"{type(value).__name__}:{bool(value)}"
    if isinstance(value, (int, np.integer)):
        return f"{type(value).__name__}:{int(value)}"
    return f"{type(value).__name__}:{float(value).hex()}"


def _env_digest(env):
    return {name: _digest(env[name]) for name in sorted(env)}


def observe(program):
    """What one corpus program's runs look like from outside."""
    source, placements, spec, mesh, fields, scalars = _problem(program)
    run = run_pipeline(source, spec, mesh, 4, fields=fields, scalars=scalars,
                       placements=placements)
    run.verify()
    sub = run.placements.sub
    counted = Interpreter(lower_subroutine(sub), count_visits=True).run(
        build_global_env(sub, spec, mesh, fields, scalars))
    assert counted.steps == run.sequential.steps
    # sids number the statements of a whole process: key by position
    position = {st.sid: str(i) for i, st in enumerate(sub.walk())}
    return {
        "seq_steps": run.sequential.steps,
        "seq_visits": {position.get(sid, "end"): n
                       for sid, n in counted.visits.items()},
        "seq_env": _env_digest(run.sequential.env),
        "rank_steps": list(run.spmd.rank_steps),
        "rank_envs": [_env_digest(env) for env in run.spmd.envs],
        "gathered": {var: _digest(np.asarray(par))
                     for var, (_seq, par) in sorted(run.outputs.items())},
    }


class TestGoldenMachine:
    """Steps, visits and bit-exact environments equal the parent's."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    def test_golden_covers_the_corpus(self, golden):
        assert sorted(golden) == sorted(CORPUS)

    @pytest.mark.parametrize("program", CORPUS)
    def test_program(self, golden, program):
        seen = observe(program)
        want = golden[program]
        for key in want:
            assert seen[key] == want[key], f"{program}: {key}"


LOOPS = """\
      subroutine s(n, a, total)
      integer n, i, k
      real a(8), total
      do i = 1,n
         a(i) = a(i) + 1.0
         k = i
      end do
      total = 0.0
      do i = 1,n
         total = total + a(i)
      end do
      end
"""

JUMP_IN = """\
      subroutine s(n, a, k)
      integer n, i, k
      real a(8)
      k = 0
      do i = 1,n
         a(i) = a(i) + 1.0
 10      k = k + 1
      end do
      if (k .lt. 2 * n) goto 10
      end
"""


def _loops(sub):
    return [s for s in sub.walk() if isinstance(s, DoLoop)]


def _per_instruction(code, **kw):
    """An interpreter over ``code`` that never takes the loop path."""
    interp = Interpreter(code, **kw)
    interp._inline_loops = {}
    return interp


class TestLoopPath:
    def test_straight_line_loops_are_recognised(self):
        sub = parse_subroutine(LOOPS)
        code = lower_subroutine(sub)
        interp = Interpreter(code)
        assert sorted(interp._inline_loops) == sorted(
            code.loop_pc[loop.sid] for loop in _loops(sub))

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_state_after_the_loop_path_is_the_per_instruction_state(self, n):
        sub = parse_subroutine(LOOPS)
        code = lower_subroutine(sub)
        seen = []
        for make in (Interpreter, _per_instruction):
            env, st = make_env(sub, n=n), MachineState()
            with pytest.raises(StopIteration) as stop:
                next(make(code).run_gen(env, st))
            seen.append((stop.value.value.steps, st.steps, st.remaining,
                         st.stepval, _env_digest(env)))
        assert seen[0] == seen[1]
        assert seen[0][2] == {loop.sid: 0 for loop in _loops(sub)}
        assert env["i"] == n + 1 and env.get("k", 0) == n

    def test_counting_visits_takes_no_loop_path(self):
        sub = parse_subroutine(LOOPS)
        code = lower_subroutine(sub)
        counted = Interpreter(code, count_visits=True)
        assert counted._inline_loops == {}
        res = counted.run(make_env(sub, n=5))
        assert res.steps == Interpreter(code).run(make_env(sub, n=5)).steps
        # a loop statement: ILoopInit once, 6 tests, 5 increments
        assert [res.visits[loop.sid] for loop in _loops(sub)] == [12, 12]

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_budget_runs_out_at_the_same_step(self, n):
        # every budget over the last 12 steps of a run that ends just
        # after a compiled loop: raise exactly when the machine that
        # counts instruction by instruction does, complete otherwise
        sub = parse_subroutine(LOOPS)
        code = lower_subroutine(sub)
        total = Interpreter(code).run(make_env(sub, n=n)).steps
        assert total == _per_instruction(code).run(make_env(sub, n=n)).steps
        for budget in range(max(1, total - 12), total + 2):
            outcomes = []
            for make in (Interpreter, _per_instruction):
                env = make_env(sub, n=n)
                try:
                    res = make(code, max_steps=budget).run(env)
                    outcomes.append(("done", res.steps, _env_digest(env)))
                except InterpError as exc:
                    outcomes.append((str(exc), None, _env_digest(env)))
            assert outcomes[0] == outcomes[1], budget
            assert (outcomes[0][0] == "done") == (budget >= total)

    def test_pre_action_inside_a_body_fires_per_trip(self):
        sub = parse_subroutine(LOOPS)
        code = lower_subroutine(sub)
        first, second = _loops(sub)
        inner = next(s for s in first.body if isinstance(s, Assign))
        hits = []
        interp = Interpreter(code, pre_actions={
            inner.sid: [lambda env: hits.append(env["i"])]})
        res = interp.run(make_env(sub, n=4))
        assert hits == [1, 2, 3, 4]
        # that loop is run instruction by instruction, the other is not
        assert sorted(interp._inline_loops) == [code.loop_pc[second.sid]]
        assert res.steps == Interpreter(code).run(make_env(sub, n=4)).steps

    def test_pre_action_on_the_loop_statement_keeps_the_loop_path(self):
        sub = parse_subroutine(LOOPS)
        code = lower_subroutine(sub)
        first = _loops(sub)[0]
        hits = []
        interp = Interpreter(code, pre_actions={
            first.sid: [lambda env: hits.append(1)]})
        interp.run(make_env(sub, n=4))
        assert hits == [1] and len(interp._inline_loops) == 2

    def test_goto_into_a_loop_body_disables_the_loop_path(self):
        sub = parse_subroutine(JUMP_IN)
        code = lower_subroutine(sub)
        interp = Interpreter(code)
        assert interp._inline_loops == {}
        env = interp.run(make_env(sub, n=3)).env
        assert env["k"] == 6


class TestWorkloadsStayOnTheFastPath:
    @pytest.mark.parametrize("program", ["testiv", "advect"])
    def test_sequential_and_4_ranks_never_load_the_checked_module(
            self, program, monkeypatch):
        # every straight-line loop of the run passes its entry facts, so
        # no body statement is ever run instruction by instruction
        calls = []
        monkeypatch.setattr(interp_module, "compile", lambda *args: (
            calls.append(args[1]) or builtins.compile(*args)), raising=False)
        source, placements, spec, mesh, fields, scalars = _problem(program)
        run = run_pipeline(source, spec, mesh, 4, fields=fields,
                           scalars=scalars, placements=placements,
                           backend="interp")
        run.verify()
        name = run.placements.sub.name
        assert f"<repro:{name}>" in calls
        assert not [c for c in calls if c.endswith(":checked>")], calls


class TestCompiledOnce:
    def test_128_interpreters_share_one_compiled_program(self, monkeypatch):
        # the whole FlatCode is one module: one compile() for all 128
        calls = []
        monkeypatch.setattr(interp_module, "compile", lambda *args: (
            calls.append(args[1]) or builtins.compile(*args)), raising=False)
        sub = parse_subroutine(LOOPS)
        code = lower_subroutine(sub)
        assert code.compiled is None
        interps = [Interpreter(code, max_steps=1000 + r) for r in range(128)]
        compiled = code.compiled
        assert compiled is not None
        assert all(i._ops is compiled[0] for i in interps)
        assert calls == ["<repro:s>"]
        # another lowering of the same program is another compilation
        other = lower_subroutine(sub)
        assert other.compiled is None
        Interpreter(other)
        assert calls == ["<repro:s>"] * 2


class TestResumeAtEveryCollective:
    """A rank killed at collective k is restored from the ``MachineState``
    copy taken there and resumed in a fresh generator: bit-equal final
    environments, equal step counts, for every k of a 4-rank TESTIV run."""

    def test_testiv_on_4_ranks(self):
        ex, values = _executor("testiv", P1, 4, backend="interp")
        clean = ex.run(values)
        events = len(clean.stats.collectives)
        assert events >= 6
        for k in range(1, events):    # a kill after the last one never fires
            plan = FaultPlan.parse(f"kill rank={k % 4} event={k}")
            ex, values = _executor("testiv", P1, 4, backend="interp")
            res = ex.run(values, faults=plan, recovery="local",
                         checkpoint_every=1)
            assert res.recovery["rank_restores"] == 1, k
            assert envs_bit_identical(res.envs, clean.envs) is None, k
            assert res.rank_steps == clean.rank_steps, k


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {program: observe(program) for program in CORPUS},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
