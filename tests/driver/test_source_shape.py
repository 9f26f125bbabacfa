"""Structural rules of ``src/repro``, read off the syntax tree.

A deleted name nothing imports needs no guard; a *shape* does: one halo
schedule over two tables, a boundary loop without closures, one kernel
compiler, one interpreter compiler — and the rule the single placement
judge rests on: ``placement/comms.py``'s privates stay inside
``repro/placement/``.
"""

import ast
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


def test_vectorize_keeps_one_kernel_class_and_one_compiler():
    tree = _tree("lang/vectorize.py")
    assert [n for n in _defs(tree, ast.ClassDef) if "Kernel" in n] \
        == ["LoopKernel"]
    assert sorted(n for n in _defs(tree, ast.FunctionDef)
                  if n.startswith("_compile")) \
        == ["_compile", "_compile_expr", "_compile_stmt"]


def test_the_interpreter_has_one_compiler():
    # the emitter writes Python source; no closure tree survives beside it
    tree = _tree("lang/interp.py")
    assert not [ast.unparse(n) for n in ast.walk(tree)
                if isinstance(n, ast.Lambda) and n.args.args
                and n.args.args[0].arg == "env"]
    fns = _defs(tree, ast.FunctionDef)
    path = [fns["_compile"], fns["compile_expr"], fns["eval_expr"],
            *_defs(_defs(tree, ast.ClassDef)["_Emitter"],
                   ast.FunctionDef).values()]
    nested = [n.name for fn in path for n in ast.walk(fn)
              if isinstance(n, ast.FunctionDef) and n is not fn]
    assert not nested, f"nested def in the compile path: {nested}"
    compiles = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name) and n.func.id == "compile"]
    assert len(compiles) == 1
