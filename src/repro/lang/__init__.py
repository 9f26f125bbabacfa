"""Mini-FORTRAN front end: the language the paper's target class is written in.

This package substitutes for the front half of INRIA's **Partita** analyzer
(paper section 1): lexing, parsing, control-flow construction, lowering and
reference interpretation of the FORTRAN-77 subset that figures 5, 9 and 10
use.  Dependence analysis proper lives in :mod:`repro.analysis`.
"""

from .ast import (
    ArrayRef,
    Assign,
    BinOp,
    CallStmt,
    Const,
    Continue,
    Decl,
    DoLoop,
    Expr,
    Goto,
    IfBlock,
    IfGoto,
    Intrinsic,
    Program,
    Return,
    Stmt,
    Stop,
    Subroutine,
    UnOp,
    Var,
)
from .cfg import CFG, ENTRY, EXIT
from .interp import CollectiveAction, Interpreter, RunResult, make_env
from .lexer import scan_directives, tokenize
from .lower import FlatCode, lower_subroutine
from .parser import parse_program, parse_subroutine
from .typecheck import Diagnostic, TypeCheckError, TypeReport, check_types
from .vectorize import LoopKernel, build_vector_kernels
from .printer import format_expr, format_subroutine

__all__ = [
    "ArrayRef", "Assign", "BinOp", "CFG", "CallStmt", "CollectiveAction",
    "Const", "Continue",
    "Decl", "DoLoop", "ENTRY", "EXIT", "Expr", "FlatCode", "Goto", "IfBlock",
    "IfGoto", "Interpreter", "Intrinsic", "LoopKernel", "Program", "Return", "RunResult",
    "Stmt", "Stop", "Subroutine", "UnOp", "Var", "format_expr",
    "format_subroutine", "lower_subroutine", "make_env",
    "parse_program", "parse_subroutine",
    "scan_directives", "tokenize", "build_vector_kernels",
    "Diagnostic", "TypeCheckError", "TypeReport", "check_types",
]
