"""Unit tests for the source printer (round-trip property is in tests/property)."""

from repro.corpus import TESTIV_SOURCE
from repro.lang import (
    format_expr,
    format_subroutine,
    parse_subroutine,
)
from repro.lang.ast import Assign, DoLoop
from repro.lang.printer import source_layout


def roundtrip(src: str):
    sub1 = parse_subroutine(src)
    text1 = format_subroutine(sub1)
    sub2 = parse_subroutine(text1)
    text2 = format_subroutine(sub2)
    return text1, text2


class TestPrinter:
    def test_testiv_roundtrip_fixpoint(self):
        text1, text2 = roundtrip(TESTIV_SOURCE)
        assert text1 == text2

    def test_labels_printed_in_left_margin(self):
        text = format_subroutine(parse_subroutine(TESTIV_SOURCE))
        assert any(line.startswith("100") for line in text.splitlines())
        assert any(line.startswith("200") for line in text.splitlines())

    def test_statement_indent(self):
        text = format_subroutine(parse_subroutine(TESTIV_SOURCE))
        body_lines = [l for l in text.splitlines() if "OLD(i) = INIT(i)" in l.replace("init", "INIT").replace("old", "OLD")]
        assert body_lines and body_lines[0].startswith(" " * 6)

    def test_before_hook_emits_directives(self):
        sub = parse_subroutine(TESTIV_SOURCE)
        first_loop = next(s for s in sub.walk() if isinstance(s, DoLoop))

        def before(st):
            if st.sid == first_loop.sid:
                return ["C$ITERATION DOMAIN: OVERLAP"]
            return []

        text = format_subroutine(sub, before=before)
        lines = text.splitlines()
        i = lines.index("C$ITERATION DOMAIN: OVERLAP")
        assert lines[i + 1].strip().startswith("do i")

    def test_trailer_lines_before_end(self):
        sub = parse_subroutine(TESTIV_SOURCE)
        text = format_subroutine(sub, trailer=["C$SYNCHRONIZE LAST"])
        lines = [l for l in text.splitlines() if l.strip()]
        assert lines[-1].strip() == "end"
        assert lines[-2] == "C$SYNCHRONIZE LAST"


    def test_hooks_and_trailer_splice_in_statement_order(self):
        sub = parse_subroutine("subroutine t(n)\n  do i = 1,n\n    x = i\n"
                               "  end do\n  y = 1.0\nend\n")
        name = {s.sid: type(s).__name__ + str(k)
                for k, s in enumerate(sub.walk())}
        plain = format_subroutine(sub)
        text = format_subroutine(sub, before=lambda st: [f"C<{name[st.sid]}"],
                                 after=lambda st: [f"C>{name[st.sid]}"],
                                 trailer=["C$LAST"])
        marks = [l for l in text.splitlines() if l.startswith("C")
                 or l.strip() in ("end do", "end")]
        assert marks == ["C<DoLoop0", "C<Assign1", "C>Assign1", "      end do",
                         "C>DoLoop0", "C<Assign2", "C>Assign2", "C$LAST",
                         "      end"]
        assert [l for l in text.splitlines() if not l.startswith("C")] \
            == plain.splitlines()
        assert format_subroutine(sub) == plain
        assert source_layout(sub) is source_layout(sub)  # printed once


class TestFormatExpr:
    def expr(self, text: str):
        src = ("subroutine t(n)\nreal a, b, c, y\nreal v(10)\n"
               f"  y = {text}\nend\n")
        return parse_subroutine(src).body[0].value

    def test_minimal_parens_kept(self):
        assert format_expr(self.expr("(a + b)*c")) == "(a + b)*c"

    def test_no_spurious_parens(self):
        assert format_expr(self.expr("a + b*c")) == "a + b*c"

    def test_left_assoc_subtraction(self):
        ex = self.expr("a - b - c")
        text = format_expr(ex)
        assert parse_subroutine(
            f"subroutine t(n)\nreal a,b,c,y\n  y = {text}\nend\n"
        ).body[0].value == ex

    def test_right_side_parens_for_minus(self):
        ex = self.expr("a - (b - c)")
        assert format_expr(ex) == "a - (b - c)"

    def test_relational_dotted_output(self):
        assert format_expr(self.expr("a .lt. b")) == "a .lt. b"

    def test_power(self):
        assert format_expr(self.expr("a**2")) == "a**2"

    def test_unary_minus(self):
        text = format_expr(self.expr("-a"))
        assert text == "-a"

    def test_real_constants(self):
        assert format_expr(self.expr("18.0")) == "18.0"
        assert format_expr(self.expr("0.0")) == "0.0"

    def test_array_and_intrinsic(self):
        assert format_expr(self.expr("v(3) + abs(a)")) == "v(3) + abs(a)"
