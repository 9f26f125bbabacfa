"""The option surfaces cannot drift apart.

``repro-place --run`` flags feed :func:`run_pipeline`, which feeds
:meth:`SPMDExecutor.run`; the service key mirrors the analysis front
door (that half is ``test_defaults_match_the_signatures_they_mirror`` in
``tests/service/test_keys.py``).  Everything here is read off the
signatures, the argparse parser and the call sites themselves, so a
renamed, dropped or unreachable option fails a test instead of a user —
and the CI guard calls this file rather than keeping its own copy of the
parameter lists.
"""

import argparse
import ast
import inspect
import textwrap

import pytest

from repro import cli
from repro.driver import pipeline
from repro.lang import interp
from repro.runtime import SPMDExecutor
from repro.service import workers


def _params(fn):
    return inspect.signature(fn).parameters


def _bound_by_call(caller, callee: str, target) -> set[str]:
    """Parameters of ``target`` bound by the one ``callee(...)`` call in
    ``caller``'s source; a keyword ``target`` lacks fails here."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(caller)))
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
             and ast.unparse(n.func) == callee]
    assert len(calls) == 1, f"{caller.__name__} calls {callee} {len(calls)}x"
    call = calls[0]
    names = [p for p in _params(target) if p != "self"]
    keywords = {kw.arg for kw in call.keywords}
    assert None not in keywords, "**kwargs hides the surface"
    assert keywords <= set(names), \
        f"{callee} gets unknown keyword(s) {sorted(keywords - set(names))}"
    return set(names[:len(call.args)]) | keywords


def _execution_flags() -> list[argparse.Action]:
    groups = [g for g in cli.build_parser()._action_groups
              if (g.title or "").startswith("end-to-end execution")]
    assert len(groups) == 1
    return groups[0]._group_actions


#: flags the CLI transforms on the way: dest -> the parameter it feeds
#: (``--seed`` seeds the ``random`` field inputs; ``--timeline`` only
#: shapes the printed report)
RENAMED = {"run": "mesh", "partitioner": "method", "strict": "check",
           "seed": "fields", "timeline": None}


class TestCliReachesPipeline:
    def test_every_execution_flag_reaches_a_run_pipeline_parameter(self):
        bound = _bound_by_call(cli._run_pipeline_cli, "run_pipeline",
                               pipeline.run_pipeline)
        for action in _execution_flags():
            target = RENAMED.get(action.dest, action.dest)
            if target is not None:
                assert target in bound, \
                    f"{action.option_strings[0]} reaches no parameter"

    def test_same_named_defaults_agree(self):
        params = _params(pipeline.run_pipeline)
        for action in _execution_flags():
            param = params.get(action.dest)
            if param is None or param.default is param.empty \
                    or isinstance(action, argparse._AppendAction):
                continue
            assert action.default == param.default, action.dest

    def test_every_run_pipeline_option_has_a_shipped_caller(self):
        # the census rule: an option stays only while the CLI or the
        # service worker sets it (``max_steps`` is the one shared guard)
        reached = (_bound_by_call(cli._run_pipeline_cli, "run_pipeline",
                                  pipeline.run_pipeline)
                   | _bound_by_call(workers.run_request, "run_pipeline",
                                    pipeline.run_pipeline))
        assert set(_params(pipeline.run_pipeline)) - reached == {"max_steps"}

    def test_option_census(self):
        # a new option has to move these numbers, in the same change that
        # names its caller
        assert len(_params(pipeline.run_pipeline)) == 21
        assert len(_execution_flags()) == 15


class TestPipelineReachesExecutor:
    def test_every_keyword_is_a_run_parameter_with_equal_defaults(self):
        run, front = _params(SPMDExecutor.run), _params(pipeline.run_pipeline)
        passed = _bound_by_call(pipeline.run_pipeline, "executor.run",
                                SPMDExecutor.run)
        assert {"comm_timeout", "recovery", "max_steps"} \
            <= passed & set(front)
        for name in passed & set(front):
            assert front[name].default == run[name].default, name

    def test_run_keeps_the_six_options_callers_set(self):
        # faults/comm_timeout/recovery/rebalance: benchmarks/e2e/entry.py
        # and the CLI; checkpoint_every: the fault sweeps; checkpoint:
        # forces snapshots without a kill.  A seventh needs a caller.
        kwonly = [n for n, p in _params(SPMDExecutor.run).items()
                  if p.kind is p.KEYWORD_ONLY]
        assert kwonly == ["faults", "comm_timeout", "checkpoint",
                          "checkpoint_every", "recovery", "rebalance"]


class TestOneStepBudget:
    @pytest.mark.parametrize("fn", [
        SPMDExecutor.run, pipeline.run_pipeline, pipeline.build_interpreter,
        pipeline.run_sequential, interp.Interpreter.__init__,
        interp.run_subroutine], ids=lambda fn: fn.__qualname__)
    def test_signature_default_is_the_constant(self, fn):
        assert _params(fn)["max_steps"].default is interp.DEFAULT_MAX_STEPS

    def test_service_worker_default_is_the_constant(self):
        from repro.corpus import TESTIV_SOURCE
        from repro.spec import spec_for_testiv

        ctx = workers._exec_context(None, "surfaces-test", {
            "program": TESTIV_SOURCE,
            "spec": spec_for_testiv().serialize()})
        assert ctx["interpreter"].max_steps == interp.DEFAULT_MAX_STEPS
