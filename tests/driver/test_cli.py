"""Unit tests for the repro-place command-line interface."""

import pytest

from repro.cli import main
from repro.corpus import TESTIV_SOURCE
from repro.spec import spec_for_testiv


@pytest.fixture
def files(tmp_path):
    prog = tmp_path / "testiv.f"
    prog.write_text(TESTIV_SOURCE)
    spec = tmp_path / "testiv.spec"
    spec.write_text(spec_for_testiv().serialize())
    return str(prog), str(spec)


class TestCLI:
    def test_best_placement_printed(self, files, capsys):
        assert main([*files]) == 0
        out = capsys.readouterr().out
        assert "16 consistent placement(s)" in out
        assert "C$SYNCHRONIZE" in out and "C$ITERATION DOMAIN" in out

    def test_all_solutions(self, files, capsys):
        assert main([*files, "--all"]) == 0
        out = capsys.readouterr().out
        assert out.count("solution #") == 16

    def test_index_selection(self, files, capsys):
        assert main([*files, "--index", "3"]) == 0
        assert "solution #3" in capsys.readouterr().out

    def test_summary_mode(self, files, capsys):
        assert main([*files, "--summary"]) == 0
        out = capsys.readouterr().out
        assert out.count("cost=") == 16

    def test_legality_mode(self, files, capsys):
        assert main([*files, "--legality"]) == 0
        out = capsys.readouterr().out
        assert "LEGAL" in out and "discharged" in out

    def test_legality_mode_illegal(self, tmp_path, capsys):
        prog = tmp_path / "bad.f"
        prog.write_text("      subroutine t(a, nsom)\n"
                        "      real a(100)\n      integer i\n"
                        "      do i = 1,nsom\n         a(i) = a(3)\n"
                        "      end do\n      end\n")
        spec = tmp_path / "bad.spec"
        spec.write_text("pattern overlap-elements-2d\n"
                        "extent node nsom\narray a node\n")
        assert main([str(prog), str(spec), "--legality"]) == 2
        assert "ILLEGAL" in capsys.readouterr().out

    def test_list_patterns(self, capsys):
        assert main(["--list-patterns"]) == 0
        out = capsys.readouterr().out
        assert "overlap-elements-2d" in out and "shared-nodes-2d" in out

    def test_dot_automaton(self, capsys):
        assert main(["--dot-automaton", "overlap-elements-3d"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_cost_model_flags_change_ranking(self, files, capsys):
        assert main([*files, "--summary", "--alpha", "1e9",
                     "--beta", "0", "--gamma", "0"]) == 0
        first = capsys.readouterr().out.splitlines()[1]
        assert "cost=" in first

    @pytest.mark.parametrize("flag, value", [
        ("--alpha", "nan"), ("--beta", "inf"), ("--gamma", "-5"),
        ("--loss-rate", "-0.1")])
    def test_bad_cost_model_flag_reports_error(self, files, capsys, flag,
                                               value):
        # refused before anything is ranked, so no cost is printed
        assert main([*files, "--summary", flag, value]) == 1
        out, err = capsys.readouterr()
        field = flag[2:].replace("-", "_")
        assert err.startswith(f"error: bad cost model {field}: ")
        assert "cost=" not in out

    def test_bad_spec_reports_error(self, tmp_path, files, capsys):
        prog, _ = files
        bad = tmp_path / "nopattern.spec"
        bad.write_text("extent node nsom\n")
        assert main([prog, str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_args_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_check_mode_on_generated_output(self, files, tmp_path, capsys):
        from repro.placement import enumerate_placements
        from repro.corpus import TESTIV_SOURCE

        result = enumerate_placements(TESTIV_SOURCE, spec_for_testiv())
        annotated = tmp_path / "annotated.f"
        annotated.write_text(result.best().annotated)
        _, spec = files
        assert main([str(annotated), spec, "--check"]) == 0
        assert capsys.readouterr().out == "COMPATIBLE\ncommcheck: clean\n"

    def test_check_mode_runs_the_annotated_program(self, files, tmp_path,
                                                   capsys):
        """``--check --run``: the placement the *text* declares goes
        through the pipeline, pre-flight included."""
        from repro.mesh import structured_tri_mesh, write_mesh
        from repro.placement import enumerate_placements

        result = enumerate_placements(TESTIV_SOURCE, spec_for_testiv())
        annotated = tmp_path / "annotated.f"
        annotated.write_text(result.ranked[-1].annotated)
        write_mesh(structured_tri_mesh(6, 6), tmp_path / "m.mesh")
        rc = main([str(annotated), files[1], "--check", "--strict",
                   "--run", str(tmp_path / "m.mesh"), "--nparts", "3",
                   "--field", "init=random",
                   "--field", "airetri=triangle-areas",
                   "--field", "airesom=node-areas",
                   "--set", "epsilon=1e-9", "--set", "maxloop=4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("COMPATIBLE\n") and "VERIFIED" in out
        # the worst placement's extra NEW update came through the text
        assert "1 placement(s) found" in out
        assert "sync[overlap-som:new]" in out

    def test_check_mode_bad_directive_is_an_error(self, files, tmp_path,
                                                  capsys):
        annotated = tmp_path / "bad.f"
        annotated.write_text("C$FROBNICATE EVERYTHING\n" + TESTIV_SOURCE)
        assert main([str(annotated), files[1], "--check"]) == 1
        assert "error: line 1: unrecognized directive" \
            in capsys.readouterr().err

    def test_run_mode_end_to_end(self, files, tmp_path, capsys):
        from repro.mesh import structured_tri_mesh, write_mesh

        write_mesh(structured_tri_mesh(6, 6), tmp_path / "m.mesh")
        prog, spec = files
        rc = main([prog, spec, "--run", str(tmp_path / "m.mesh"),
                   "--nparts", "3",
                   "--field", "init=random",
                   "--field", "airetri=triangle-areas",
                   "--field", "airesom=node-areas",
                   "--set", "epsilon=1e-9", "--set", "maxloop=5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out and "traffic" in out

    def test_run_mode_model_check_strict(self, files, tmp_path, capsys):
        from repro.mesh import structured_tri_mesh, write_mesh

        write_mesh(structured_tri_mesh(6, 6), tmp_path / "m.mesh")
        prog, spec = files
        rc = main([prog, spec, "--run", str(tmp_path / "m.mesh"),
                   "--nparts", "2", "--strict",
                   "--model-check",
                   "--field", "init=random",
                   "--field", "airetri=triangle-areas",
                   "--field", "airesom=node-areas",
                   "--set", "epsilon=1e-9", "--set", "maxloop=3"])
        assert rc == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_run_mode_with_fault_plan(self, files, tmp_path, capsys):
        from repro.mesh import structured_tri_mesh, write_mesh

        write_mesh(structured_tri_mesh(6, 6), tmp_path / "m.mesh")
        prog, spec = files
        rc = main([prog, spec, "--run", str(tmp_path / "m.mesh"),
                   "--nparts", "3",
                   "--fault-plan", "reorder; delay count=2 steps=2; seed=9",
                   "--comm-timeout", "16",
                   "--field", "init=random",
                   "--field", "airetri=triangle-areas",
                   "--field", "airesom=node-areas",
                   "--set", "epsilon=1e-9", "--set", "maxloop=3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault plan: seed=9" in out
        assert "VERIFIED" in out

    def test_run_mode_fault_plan_from_file(self, files, tmp_path, capsys):
        from repro.mesh import structured_tri_mesh, write_mesh

        write_mesh(structured_tri_mesh(6, 6), tmp_path / "m.mesh")
        plan = tmp_path / "plan.txt"
        plan.write_text("# one recoverable kill\nkill rank=1 event=2\n")
        prog, spec = files
        rc = main([prog, spec, "--run", str(tmp_path / "m.mesh"),
                   "--nparts", "3",
                   "--fault-plan", f"@{plan}",
                   "--field", "init=random",
                   "--field", "airetri=triangle-areas",
                   "--field", "airesom=node-areas",
                   "--set", "epsilon=1e-9", "--set", "maxloop=3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kill rank=1 event=2" in out
        assert "VERIFIED" in out

    def test_run_mode_bad_fault_plan_reports_error(self, files, tmp_path,
                                                   capsys):
        from repro.mesh import structured_tri_mesh, write_mesh

        write_mesh(structured_tri_mesh(4, 4), tmp_path / "m.mesh")
        prog, spec = files
        rc = main([prog, spec, "--run", str(tmp_path / "m.mesh"),
                   "--fault-plan", "explode"])
        assert rc == 1
        assert "unknown fault clause" in capsys.readouterr().err

    def test_run_mode_negative_comm_timeout_reports_error(self, files,
                                                          tmp_path, capsys):
        from repro.mesh import structured_tri_mesh, write_mesh

        write_mesh(structured_tri_mesh(4, 4), tmp_path / "m.mesh")
        prog, spec = files
        err = self._bad([prog, spec, "--run", str(tmp_path / "m.mesh"),
                         "--fault-plan", "drop count=1; seed=3",
                         "--comm-timeout", "-4",
                         "--field", "init=random",
                         "--field", "airetri=triangle-areas",
                         "--field", "airesom=node-areas",
                         "--set", "epsilon=1e-9", "--set", "maxloop=3"],
                        capsys)
        assert "comm_timeout must be a non-negative integer" in err
        assert "-4" in err

    def test_run_mode_triangle_files(self, files, tmp_path, capsys):
        from repro.mesh import random_delaunay_mesh
        from tests.mesh.triangle_files import write_triangle

        write_triangle(random_delaunay_mesh(60, seed=1), tmp_path / "t")
        prog, spec = files
        rc = main([prog, spec, "--run", str(tmp_path / "t"),
                   "--nparts", "2", "--backend", "vector",
                   "--field", "init=random",
                   "--field", "airetri=triangle-areas",
                   "--field", "airesom=node-areas",
                   "--set", "epsilon=1e-9", "--set", "maxloop", ])
        assert rc == 1  # malformed --set reports an error
        assert "error" in capsys.readouterr().err

    def test_run_mode_bad_field_name(self, files, tmp_path, capsys):
        from repro.mesh import structured_tri_mesh, write_mesh

        write_mesh(structured_tri_mesh(4, 4), tmp_path / "m.mesh")
        prog, spec = files
        rc = main([prog, spec, "--run", str(tmp_path / "m.mesh"),
                   "--field", "epsilon=random"])
        assert rc == 1
        assert "not a partitioned array" in capsys.readouterr().err

    def _bad(self, argv, capsys):
        """Bad input ends in ``error: …`` and status 1, never a traceback."""
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        return err

    @pytest.mark.parametrize("missing", ["program", "spec"])
    def test_missing_input_file_reports_error(self, files, tmp_path, capsys,
                                              missing):
        prog, spec = files
        gone = str(tmp_path / "gone.txt")
        argv = [gone, spec] if missing == "program" else [prog, gone]
        assert "gone.txt" in self._bad(argv, capsys)

    def test_missing_fault_plan_file_reports_error(self, files, tmp_path,
                                                   capsys):
        from repro.mesh import structured_tri_mesh, write_mesh

        write_mesh(structured_tri_mesh(4, 4), tmp_path / "m.mesh")
        err = self._bad([*files, "--run", str(tmp_path / "m.mesh"),
                         "--fault-plan", f"@{tmp_path / 'missing.txt'}"],
                        capsys)
        assert "missing.txt" in err

    def test_non_numeric_set_reports_error(self, files, tmp_path, capsys):
        from repro.mesh import structured_tri_mesh, write_mesh

        write_mesh(structured_tri_mesh(4, 4), tmp_path / "m.mesh")
        err = self._bad([*files, "--run", str(tmp_path / "m.mesh"),
                         "--set", "maxloop=abc"], capsys)
        assert "--set maxloop='abc'" in err

    def test_arithmetic_fault_in_the_run_reports_error(self, tmp_path, capsys):
        from repro.mesh import structured_tri_mesh, write_mesh

        write_mesh(structured_tri_mesh(4, 4), tmp_path / "m.mesh")
        prog, spec = tmp_path / "scale.f", tmp_path / "scale.spec"
        prog.write_text(
            "      subroutine SCALE(X0, X1, nsom, d)\n"
            "      integer nsom\n      real X0(100), X1(100)\n"
            "      real d, r\n      integer i\n"
            "      r = 1.0 / d\n"
            "      do i = 1,nsom\n         X1(i) = X0(i) * r\n"
            "      end do\n      end\n")
        spec.write_text("pattern overlap-elements-2d\nextent node nsom\n"
                        "array x0 node\narray x1 node\n")
        err = self._bad([str(prog), str(spec), "--run",
                         str(tmp_path / "m.mesh"), "--field", "x0=random",
                         "--set", "d=0.0"], capsys)
        assert "line 6: float division by zero" in err

    @pytest.mark.parametrize("run", [False, True])
    def test_index_out_of_range_reports_error(self, files, tmp_path, capsys,
                                              run):
        from repro.mesh import structured_tri_mesh, write_mesh

        write_mesh(structured_tri_mesh(4, 4), tmp_path / "m.mesh")
        argv = [*files, "--index", "99"]
        if run:
            argv += ["--run", str(tmp_path / "m.mesh")]
        err = self._bad(argv, capsys)
        assert "placement index 99 out of range" in err
        assert "16 consistent placement(s)" in err

    def test_check_mode_flags_missing_sync(self, files, tmp_path, capsys):
        from repro.placement import enumerate_placements
        from repro.corpus import TESTIV_SOURCE

        result = enumerate_placements(TESTIV_SOURCE, spec_for_testiv())
        broken = "\n".join(l for l in result.best().annotated.splitlines()
                           if "SQRDIFF" not in l) + "\n"
        annotated = tmp_path / "broken.f"
        annotated.write_text(broken)
        _, spec = files
        assert main([str(annotated), spec, "--check"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("INCOMPATIBLE\nCC004 error")
        assert "witness path:" in out
        # an incompatible text is not run
        assert main([str(annotated), spec, "--check", "--run",
                     str(tmp_path / "no-such.mesh")]) == 2
