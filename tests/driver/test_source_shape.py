"""Structural rules of ``src/repro``, read off the syntax tree.

A deleted name nothing imports needs no guard; a *shape* does: one halo
schedule over two tables, one body per halo collective half, a boundary
loop without closures, one kernel compiler, one interpreter compiler
whose loops check at entry, one call per wire layer, one command line —
and the rule the single placement
judge rests on: ``placement/comms.py``'s privates stay inside
``repro/placement/``.
"""

import ast
import linecache
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _tree(rel: str) -> ast.Module:
    return ast.parse((SRC / rel).read_text(encoding="utf-8"))


def _defs(tree: ast.AST, kind) -> dict:
    return {n.name: n for n in ast.walk(tree) if isinstance(n, kind)}


def test_comms_privates_stay_inside_placement():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.parent == SRC / "placement":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.ImportFrom) \
                    and (node.module or "").endswith("placement.comms"):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Attribute) \
                    and ast.unparse(node.value).endswith("comms"):
                names = [node.attr]
            offenders += [f"{path.relative_to(SRC)}: {n}" for n in names
                          if n.startswith("_")]
    assert not offenders, offenders


def test_the_only_module_entry_point_is_the_cli():
    # the fault sweeps and the corpus lint run as pytest and
    # `repro-place lint`; src/ ships one command line
    mains = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
             for node in ast.parse(path.read_text(encoding="utf-8")).body
             if isinstance(node, ast.If)
             and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert mains == ["cli.py"]


def test_a_halo_schedule_is_one_schedule_over_two_tables():
    classes = [n.name for n in _tree("mesh/schedule.py").body
               if isinstance(n, ast.ClassDef)]
    assert classes == ["WaveSide", "HaloSchedule"]


def test_the_boundary_loop_is_a_loop_not_a_nest_of_closures():
    executor = _defs(_tree("runtime/executor.py"), ast.ClassDef)["SPMDExecutor"]
    fns = _defs(executor, ast.FunctionDef)
    nested = [n.name for n in ast.walk(fns["run"])
              if isinstance(n, ast.FunctionDef) and n is not fns["run"]]
    assert not nested, f"nested def in SPMDExecutor.run: {nested}"
    assert len(fns["_migrate_epoch"].args.args) <= 4, \
        "_migrate_epoch takes more than three parameters besides self"
    init = fns["__init__"].args
    assert [a.arg for a in init.args + init.kwonlyargs] \
        == "self sub spec placement partition backend".split()


def test_halo_collectives_have_one_body():
    # every wave is a send at the POST and a receive at the WAIT; the wire,
    # not the collective, decides how a payload travels
    tree = _tree("runtime/halos.py")
    assert [n for n in _defs(tree, ast.ClassDef) if n.startswith("Pending")] \
        == ["PendingWave"]
    fns = _defs(tree, ast.FunctionDef)
    for name in ("overlap_post", "overlap_complete",
                 "combine_post", "combine_complete"):
        tests = [ast.unparse(n.test) for n in ast.walk(fns[name])
                 if isinstance(n, (ast.If, ast.IfExp))]
        assert tests == ["_log"], f"{name} branches on {tests}"


def test_vectorize_keeps_one_kernel_class_and_one_compiler():
    # kernels are source written through the interpreter's emitter: no
    # compile() and no closure tree in vectorize.py, one compile() in lang/
    tree = _tree("lang/vectorize.py")
    classes = _defs(tree, ast.ClassDef)
    assert [n for n in classes if n.endswith("Kernel")] == ["LoopKernel"]
    assert [ast.unparse(b) for b in classes["_KernelEmitter"].bases] \
        == ["_Emitter"]
    assert not [ast.unparse(n) for n in ast.walk(tree)
                if isinstance(n, ast.Lambda)]
    nested = [n.name for fn in _defs(tree, ast.FunctionDef).values()
              for n in ast.walk(fn)
              if isinstance(n, ast.FunctionDef) and n is not fn]
    assert not nested, f"nested def in vectorize.py: {nested}"
    compiles = [str(path.relative_to(SRC))
                for path in sorted((SRC / "lang").glob("*.py"))
                for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                and n.func.id == "compile"]
    assert compiles == ["lang/interp.py"]


def test_the_interpreter_has_one_compiler():
    # the emitter writes Python source; no closure tree survives beside it
    tree = _tree("lang/interp.py")
    assert not [ast.unparse(n) for n in ast.walk(tree)
                if isinstance(n, ast.Lambda) and n.args.args
                and n.args.args[0].arg == "env"]
    fns = _defs(tree, ast.FunctionDef)
    path = [fns["_compile"],
            *_defs(_defs(tree, ast.ClassDef)["_Emitter"],
                   ast.FunctionDef).values()]
    nested = [n.name for fn in path for n in ast.walk(fn)
              if isinstance(n, ast.FunctionDef) and n is not fn]
    assert not nested, f"nested def in the compile path: {nested}"
    compiles = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name) and n.func.id == "compile"]
    assert len(compiles) == 1
    # one fallback, not a second entry into the loop bodies
    assert "partial" not in {a.name for n in ast.walk(tree)
                             if isinstance(n, ast.ImportFrom) for a in n.names}


def test_a_fast_loop_checks_at_entry_not_per_trip():
    # TESTIV's six straight-line loops: the trips fetch no array and test
    # no kind, type or statement; the entry before them did all of it
    from repro.corpus import TESTIV_SOURCE
    from repro.lang import Interpreter, lower_subroutine, parse_subroutine

    sub = parse_subroutine(TESTIV_SOURCE)
    Interpreter(lower_subroutine(sub))
    module = ast.parse("".join(linecache.getlines(f"<repro:{sub.name}>")))
    loops = [n for n in ast.walk(module) if isinstance(n, ast.For)]
    assert len(loops) == 6
    for loop in loops:
        body = "\n".join(ast.unparse(n) for n in loop.body)
        hits = [w for w in ("isinstance(", "env.get(", "type(", "only")
                if w in body]
        assert not hits, (hits, body)


def test_the_wire_moves_waves_through_one_call_per_layer():
    # push/pop on the ring, one delivery hook on the communicator (the
    # only delivery method the fault fabric overrides), a message log
    # with no header dtype of its own, and no per-message twin anywhere
    ring = _defs(_tree("runtime/ringbuf.py"), ast.ClassDef)["RingTransport"]
    names = [n.name for n in ring.body if isinstance(n, ast.FunctionDef)]
    assert names.count("push") == 1 and names.count("pop") == 1
    assert not [n for n in names
                if n != "push" and n.startswith(("push", "_push"))
                or n != "pop" and n.startswith(("pop", "_pop"))]

    def methods(tree, cls):
        return {n.name for n in _defs(tree, ast.ClassDef)[cls].body
                if isinstance(n, ast.FunctionDef)}

    simcomm = methods(_tree("runtime/simmpi.py"), "SimComm")
    assert [n for n in simcomm if "deliver" in n] == ["_deliver"]
    wire = {n for n in simcomm if any(k in n for k in ("send", "recv",
                                                       "deliver"))}
    faultcomm = methods(_tree("runtime/faults.py"), "FaultComm")
    assert faultcomm & wire == {"_deliver"}

    msglog = (SRC / "runtime" / "msglog.py").read_text(encoding="utf-8")
    assert "np.dtype(" not in msglog and "DTYPE" not in msglog

    retired = re.compile(r"\b(push_batch|push_block|pop_batch|pop_block|"
                         r"record_batch|record_block|_deliver_batch|"
                         r"_deliver_block|_send_batch|LOG_DTYPE|_FLUSH_AT)\b")
    hits = [f"{path.relative_to(SRC)}:{i}"
            for path in sorted(SRC.rglob("*.py"))
            for i, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if retired.search(line)]
    assert not hits, hits
