import pickle
import re

import numpy as np
import pytest

from localcausal import BifParseError, load_bif, parse_bif
from localcausal.assets import NAMES, asset_path
from localcausal.cli import main

GOOD = """
network example {
}
variable A {
  type discrete [ 2 ] { yes, no };
}
variable B {
  type discrete [ 3 ] { low, mid, high };
}
probability ( A ) {
  table 0.3, 0.7;
}
probability ( B | A ) {
  ( yes ) 0.2, 0.5, 0.3;
  ( no ) 0.6, 0.3, 0.1;
}
"""


def test_parse_minimal_network():
    net = parse_bif(GOOD)
    assert net.dag.names == ("A", "B")
    assert net.cardinalities == (2, 3)
    assert net.dag.parents[1] == frozenset({0})
    assert np.allclose(net.cpts[0], [[0.3, 0.7]])
    assert np.allclose(net.cpts[1], [[0.2, 0.5, 0.3], [0.6, 0.3, 0.1]])


def test_parse_comments_and_properties():
    text = """
    // line comment
    network n { property foo "bar"; }
    /* block
       comment */
    variable A {
      type discrete [ 2 ] { a0, a1 };
      property position = (10, 20) ;
    }
    probability ( A ) { table 0.5, 0.5; }
    """
    net = parse_bif(text)
    assert net.dag.names == ("A",)


def test_parse_two_parents_row_order():
    text = """
    network n { }
    variable P { type discrete [ 2 ] { p0, p1 }; }
    variable Q { type discrete [ 2 ] { q0, q1 }; }
    variable C { type discrete [ 2 ] { c0, c1 }; }
    probability ( P ) { table 0.4, 0.6; }
    probability ( Q ) { table 0.7, 0.3; }
    probability ( C | Q, P ) {
      ( q0, p0 ) 0.1, 0.9;
      ( q0, p1 ) 0.2, 0.8;
      ( q1, p0 ) 0.3, 0.7;
      ( q1, p1 ) 0.4, 0.6;
    }
    """
    net = parse_bif(text)
    # canonical row order ravels over ascending parent index (P, then Q)
    assert net.dag.parents[2] == frozenset({0, 1})
    assert np.allclose(net.cpts[2],
                       [[0.1, 0.9], [0.3, 0.7], [0.2, 0.8], [0.4, 0.6]])


def test_parse_renormalizes_within_tolerance():
    text = GOOD.replace("0.3, 0.7", "0.3000001, 0.6999996")
    net = parse_bif(text)
    assert net.cpts[0].sum() == pytest.approx(1.0, abs=1e-12)


def error_position(text):
    with pytest.raises(BifParseError) as err:
        parse_bif(text)
    return err.value


def test_rejects_continuous_variables():
    err = error_position("""
network n { }
variable A {
  type continuous;
}
""")
    assert "only discrete" in str(err)
    assert err.line == 4


def test_rejects_bad_row_sum_with_position():
    bad = GOOD.replace("table 0.3, 0.7;", "table 0.3, 0.6;")
    err = error_position(bad)
    assert "sums to 0.90000000" in str(err)
    assert "line 11" in str(err)


def test_rejects_wrong_probability_count():
    err = error_position(GOOD.replace("table 0.3, 0.7;", "table 1.0;"))
    assert "lists 1 probabilities, expected 2" in str(err)


def test_rejects_negative_probability():
    err = error_position(GOOD.replace("0.3, 0.7", "-0.3, 1.3"))
    assert "negative probability" in str(err)


def test_rejects_missing_cpt_row():
    bad = GOOD.replace("  ( no ) 0.6, 0.3, 0.1;\n", "")
    err = error_position(bad)
    assert "missing CPT row for 'B' at (A=no)" in str(err)


def test_rejects_duplicate_cpt_row():
    bad = GOOD.replace("( no )", "( yes )")
    err = error_position(bad)
    assert "duplicate row" in str(err)


def test_rejects_unknown_state():
    bad = GOOD.replace("( no )", "( maybe )")
    err = error_position(bad)
    assert "'maybe' is not a state of 'A'" in str(err)


def test_rejects_unknown_variable_in_header():
    bad = GOOD.replace("( B | A )", "( B | Zz )")
    err = error_position(bad)
    assert "unknown variable 'Zz'" in str(err)


def test_rejects_missing_probability_block():
    bad = GOOD[: GOOD.index("probability ( B")]
    err = error_position(bad)
    assert "missing probability block for variable 'B'" in str(err)


def test_rejects_duplicate_declarations():
    err = error_position(GOOD + "\nvariable A { type discrete [ 2 ] { x, y }; }\n"
                         "probability ( A ) { table 0.5, 0.5; }")
    assert "declared twice" in str(err)


def test_rejects_state_count_mismatch():
    err = error_position(GOOD.replace("[ 2 ] { yes, no }", "[ 3 ] { yes, no }"))
    assert "declared 3 states but listed 2" in str(err)


def test_rejects_table_row_with_parents():
    bad = GOOD.replace("( yes ) 0.2, 0.5, 0.3;", "table 0.2, 0.5, 0.3;")
    err = error_position(bad)
    assert "only valid for parentless" in str(err)


def test_rejects_cycles():
    err = error_position("""
network n { }
variable A { type discrete [ 2 ] { a0, a1 }; }
variable B { type discrete [ 2 ] { b0, b1 }; }
probability ( A | B ) { ( b0 ) 0.5, 0.5; ( b1 ) 0.5, 0.5; }
probability ( B | A ) { ( a0 ) 0.5, 0.5; ( a1 ) 0.5, 0.5; }
""")
    assert "directed cycle" in str(err)


def test_rejects_unterminated_comment():
    err = error_position("network n { } /* oops")
    assert "unterminated comment" in str(err)


def test_rejects_empty_input():
    err = error_position("network n { }")
    assert "no variables" in str(err)


def test_reports_line_and_column():
    err = error_position("network n {\n}\n???")
    assert err.line == 3
    assert err.col == 1


def test_parse_error_survives_pickling():
    # a worker process sends its exceptions to the parent by pickle
    err = error_position("network n {\n}\n???")
    again = pickle.loads(pickle.dumps(err))
    assert type(again) is BifParseError
    assert (str(again), again.line, again.col) == (str(err), 3, 1)
    assert str(again).startswith("line 3, column 1: ")


def test_bundled_networks_parse_and_validate():
    expected = {
        "trace": (10, 12),
        "collider_chain": (5, 4),
        "alarm": (37, 46),
        "insurance": (27, 52),
        "child": (20, 25),
        "child10": (200, 257),
    }
    assert set(NAMES) == set(expected)
    for name, (n_vars, n_edges) in expected.items():
        net = load_bif(asset_path(name))
        assert net.dag.n_vars == n_vars, name
        assert net.dag.n_edges == n_edges, name


def test_bundled_probabilities_are_bounded():
    for name in NAMES:
        net = load_bif(asset_path(name))
        for cpt in net.cpts:
            assert cpt.min() >= 0.014
            assert cpt.max() <= 0.986


def test_trace_round_trips_through_text():
    path = asset_path("trace")
    net = load_bif(path)
    again = parse_bif(path.read_text(encoding="utf-8"))
    assert again.dag == net.dag
    for a, b in zip(again.cpts, net.cpts):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("text, message, line, col", [
    ('network n { }\nvariable "A {', "unterminated string", 2, 10),
    ("network n { }\nvariable A { type ? }",
     "unexpected character '?'", 2, 19),
    ("network n { } /* oops", "unterminated comment", 1, 15),
    ("/*/ x", "unterminated comment", 1, 1),
    ("/* one\ntwo */ ?", "unexpected character '?'", 2, 8),
    ('network "one\ntwo" { } ?', "unexpected character '?'", 2, 10),
    ("network n {\r\n}\r\n  ?", "unexpected character '?'", 3, 3),
    ("network n {\r\n}\r\nvariable A {\r\n  type continuous;\r\n}",
     "unsupported variable type 'continuous' (only discrete is accepted)",
     4, 8),
    ("network n {\n}\nvariable A {", "unterminated variable block", 3, 13),
    # an exponent's sign stays in the number; any other sign starts one
    (GOOD.replace("table 0.3, 0.7;", "table 1e-5;"),
     "'A' row lists 1 probabilities, expected 2", 11, 3),
    (GOOD.replace("table 0.3, 0.7;", "table 0.5-0.2;"),
     "expected ',' or ';' after a probability", 11, 12),
    # a list with two errors reports the earlier one
    (GOOD.replace("( B | A )", "( B | Zz A )"), "unknown variable 'Zz'",
     13, 19),
    (GOOD.replace("( B | A )", "( B | A, A ; )"),
     "repeated variable 'A' in header", 13, 22),
    (GOOD.replace("table 0.3, 0.7;", "table 1.2.3 0.7;"),
     "bad number '1.2.3'", 11, 9),
    # a state tuple is checked against the parents only once it is read
    (GOOD.replace("( yes )", "( maybe maybe )"),
     "expected ',' or ')' in state tuple", 14, 11),
])
def test_diagnostic_text_and_position(text, message, line, col):
    err = error_position(text)
    assert str(err) == f"line {line}, column {col}: {message}"
    assert (err.line, err.col) == (line, col)


def test_every_single_token_deletion_parses_or_is_a_parse_error(tmp_path,
                                                               capsys):
    # and through the CLI, every such file samples or is a data error
    text = asset_path("trace").read_text(encoding="utf-8")
    spans = [m.span() for m in
             re.finditer(r"[{}\[\]()|,;=]|[^\s{}\[\]()|,;=]+", text)]
    assert len(spans) > 300
    bif, out = tmp_path / "net.bif", tmp_path / "d.csv"
    for start, end in spans:
        cut = text[:start] + text[end:]
        try:
            parse_bif(cut)
        except BifParseError:
            pass
        bif.write_text(cut, encoding="utf-8")
        code = main(["sample", str(bif), "--n", "20", "--out", str(out)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "internal error" not in err, (cut, err)


@pytest.mark.parametrize("raw, message, line, col", [
    (b"network n {\r\n}\r\nvariable A\xff {", "invalid UTF-8 byte 0xff", 3, 11),
    (b"// caf\xc3\xa9 \xc3(", "invalid UTF-8 byte 0xc3", 1, 9),
    (b"network n {\r}\r???", "unexpected character '?'", 3, 1),
])
def test_load_bif_positions_bytes_and_line_endings(tmp_path, raw, message,
                                                   line, col):
    path = tmp_path / "net.bif"
    path.write_bytes(raw)
    with pytest.raises(BifParseError) as err:
        load_bif(path)
    assert str(err.value) == f"line {line}, column {col}: {message}"


def test_rejects_one_state_variable():
    err = error_position("network n { }\n"
                         "variable A { type discrete [ 1 ] { a }; }\n"
                         "probability ( A ) { table 1.0; }\n")
    assert str(err) == "line 2, column 30: a variable needs at least 2 states"


@pytest.mark.parametrize("prop", ['""', '"(" "|"', '")" "}"'])
def test_quoted_punctuation_in_a_property(prop):
    net = parse_bif(f"network n {{ property x {prop}; }}\n" + GOOD.split("}\n", 1)[1])
    assert net.dag.names == ("A", "B")


def test_quoted_brace_is_a_state():
    # the states of A are ("a", "}"): B's rows land in that order
    net = parse_bif("""
variable A { type discrete [ 2 ] { a, "}" }; }
variable B { type discrete [ 2 ] { b0, b1 }; }
probability ( A ) { table 0.5, 0.5; }
probability ( B | A ) { ( "}" ) 0.9, 0.1; ( a ) 0.2, 0.8; }
""")
    assert net.cardinalities == (2, 2)
    assert np.array_equal(net.cpts[1], [[0.2, 0.8], [0.9, 0.1]])

@pytest.mark.parametrize("text, message, line, col", [
    # at B's variable keyword, not at the top of the file
    (GOOD[: GOOD.index("probability ( B")],
     "missing probability block for variable 'B'", 7, 1),
    # at the probability block of B, the first declared variable named
    ("network n { }\n"
     "variable A { type discrete [ 2 ] { a0, a1 }; }\n"
     "variable B { type discrete [ 2 ] { b0, b1 }; }\n"
     "variable C { type discrete [ 2 ] { c0, c1 }; }\n"
     "probability ( A ) { table 0.5, 0.5; }\n"
     "probability ( C | B ) { ( b0 ) 0.5, 0.5; ( b1 ) 0.5, 0.5; }\n"
     "probability ( B | C ) { ( c0 ) 0.5, 0.5; ( c1 ) 0.5, 0.5; }\n",
     "directed cycle through B, C", 7, 13),
], ids=["missing-block", "cycle"])
def test_assembly_diagnostic_position(text, message, line, col):
    err = error_position(text)
    assert str(err) == f"line {line}, column {col}: {message}"


@pytest.mark.parametrize("text, message, line, col", [
    # at the head of the second block, not the first
    (GOOD + "probability ( A ) {\n  table 0.5, 0.5;\n}\n",
     "second probability block for 'A'", 17, 13),
    ("network n {\n  property p 1;\n", "unterminated network block", 3, 1),
    (GOOD.replace("[ 2 ]", "[ 2.0 ]"), "state count must be an integer", 5, 19),
    (GOOD.replace("{ yes, no }", "{ yes, yes }"), "duplicate state name", 5, 19),
    (GOOD.replace("  type discrete [ 2 ] { yes, no };\n", "  property p 1;\n"),
     "variable 'A' has no type declaration", 4, 10),
    (GOOD.replace("probability ( A )", "probability ( Zz )"),
     "unknown variable 'Zz'", 10, 15),
    (GOOD.replace("table 0.3, 0.7;", "table 0.3, 0.7; table 0.5, 0.5;"),
     "second table row", 11, 19),
    (GOOD.replace("table 0.3, 0.7;", "( yes ) 0.3, 0.7;"),
     "state-tuple row in a parentless block", 11, 3),
    (GOOD.replace("( yes )", "( yes, no )"),
     "row names 2 states for 1 parents", 14, 3),
    # found at assembly, at the head of A's block
    (GOOD.replace("table 0.3, 0.7;", ""), "missing 'table' row for 'A'", 10, 13),
], ids=["second-block", "open-network", "count-not-int", "duplicate-state",
        "no-type", "unknown-child", "second-table", "tuple-no-parents",
        "row-width", "no-table"])
def test_block_and_row_diagnostics(text, message, line, col):
    err = error_position(text)
    assert str(err) == f"line {line}, column {col}: {message}"
    assert (err.line, err.col) == (line, col)


def test_property_in_a_probability_block_is_skipped():
    net = parse_bif(GOOD.replace("table 0.3, 0.7;",
                                 "property p = (1, 2); table 0.3, 0.7;"))
    good = parse_bif(GOOD)
    assert net.dag == good.dag
    assert all(np.array_equal(a, b) for a, b in zip(net.cpts, good.cpts))
