"""CLI and file I/O: JSON round trips, exit-code contract, parse errors."""

import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from axialq import fileio
from axialq.algcore import make_algebra, multiply, restrict_to_subspace
from axialq.axial import eigendecompose, frobenius_solve
from axialq.cli import MAX_WORD_DEPTH, _build_parser, gram_for, main, parse_word, run_command
from axialq.constructions import matsuo, sn_transpositions
from axialq.errors import ParseError
from axialq.exactla import Matrix, rref
from axialq.fileio import AlgebraFile, format_rational, parse_rational

from conftest import by_name, fusion_break, jordan_block, registry, source_grid

F = Fraction


# --- rationals ----------------------------------------------------------------

def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-2") == F(-2)
    assert parse_rational(5) == F(5)
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(-2)) == "-2"


@pytest.mark.parametrize("bad", ["1/0", "0.5", "x", "", "1/2/3", 1.5, None])
def test_parse_rational_rejects(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


# --- algebra files --------------------------------------------------------------

def test_algebra_file_roundtrip():
    """Every conftest algebra, a restriction to the 0-space of an axis and a
    dimension-0 algebra (d the lcm of no denominators) are written, read back with
    the constants they were built from, and rewritten byte-identically."""
    m3 = by_name("m3").A
    algebras = [info.A for info in registry()]
    algebras.append(restrict_to_subspace(m3, eigendecompose(m3.designated_axes[0]).v0)[0])
    empty = {"name": "empty", "dimension": 0, "basis": [], "table": [], "axes": []}
    algebras.append(AlgebraFile.from_dict(empty).algebra)
    assert algebras[-1].table == (1, ())
    for A in algebras:
        text = AlgebraFile.from_algebra("x", A).to_json()
        B = AlgebraFile.from_json(text).algebra
        assert B.dim == A.dim
        assert B.basis_names == A.basis_names
        assert source_grid(B) == source_grid(A)
        assert [a.coords for a in B.designated_axes] == [a.coords for a in A.designated_axes]
        # a second round trip is byte-identical
        assert AlgebraFile.from_algebra("x", B).to_json() == text
    assert json.loads(text) == empty | {"name": "x"}


def _written_table(A) -> list:
    """Cell (i, j) as the writer once formed it: ``multiply`` of basis elements i and j,
    then ``format_rational`` of each coordinate."""
    basis = A.basis_elements()
    return [[[format_rational(c) for c in multiply(x, y).coords] for y in basis] for x in basis]


def test_writer_reads_the_products_off_the_table():
    m3 = by_name("m3").A
    algebras = [info.A for info in registry()]
    algebras.append(restrict_to_subspace(m3, eigendecompose(m3.designated_axes[0]).v0)[0])
    for A in algebras:
        assert AlgebraFile.from_algebra("x", A).to_dict()["table"] == _written_table(A)


# zero, small denominators, and the denominators 5, 7, 25 and 35 mixed in one table
_COEFF = st.one_of(st.just(F(0)), st.fractions(min_value=-5, max_value=5, max_denominator=4),
                   st.builds(F, st.integers(-9, 9), st.sampled_from([5, 7, 25, 35])))


@st.composite
def _commutative_tables(draw):
    n = draw(st.integers(1, 4))
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            table[i][j] = table[j][i] = draw(st.lists(_COEFF, min_size=n, max_size=n))
    return table


@settings(max_examples=100, deadline=None)
@given(_commutative_tables())
def test_writer_matches_products_on_random_tables(table):
    n = len(table)
    A = make_algebra(n, [f"e{i}" for i in range(n)], table)
    cells = AlgebraFile.from_algebra("t", A).to_dict()["table"]
    assert cells == _written_table(A)
    assert cells == [[[format_rational(c) for c in cell] for cell in row] for row in table]


@settings(max_examples=100, deadline=None)
@given(_commutative_tables())
def test_cells_build_the_table_of_the_dense_grid(table):
    """The cells (i, j), i <= j, of a grid, zeros included and k in reverse order, give the
    (d, T) that the dense grid gives."""
    n, names = len(table), [f"e{i}" for i in range(len(table))]
    cells = {(i, j): list(enumerate(table[i][j]))[::-1] for i in range(n) for j in range(i, n)}
    assert make_algebra(n, names, cells).table == make_algebra(n, names, table).table


@settings(max_examples=100, deadline=None)
@given(_commutative_tables(), st.data())
def test_writer_is_json_dumps_with_indent_2(table, data):
    """to_json is json.dumps(to_dict(), indent=2), byte for byte, with generators present
    and absent, on names that need JSON escapes."""
    n, text = len(table), st.text(alphabet='a"\\α/', max_size=3)
    A = make_algebra(n, data.draw(st.lists(text, min_size=n, max_size=n)), table)
    gens = data.draw(st.none() | st.lists(st.lists(_COEFF, min_size=n, max_size=n), max_size=2))
    af = AlgebraFile(data.draw(text), A, None if gens is None else [tuple(g) for g in gens])
    assert af.to_json() == json.dumps(af.to_dict(), indent=2)


def test_analyze_rejects_a_file_whose_mirrored_cell_is_zero(tmp_path):
    """Cell (0, 1) is nonzero and cell (1, 0) is all "0": the file's grid is not commutative,
    although its cells for i <= j alone would build an algebra."""
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"name": "half", "dimension": 2, "basis": ["e", "u"],
                                "table": [[["1", "0"], ["0", "1/2"]], [["0", "0"], ["0", "0"]]],
                                "axes": [["1", "0"]]}), encoding="utf-8")
    report, code = run_command(["analyze", str(path)])
    assert code == 2 and report.status == "error"
    assert report.message == "CommutativityViolation: c[0][1] != c[1][0] (e, u)"


def test_algebra_file_rejects_asymmetric_table():
    from axialq.constructions import spin_factor
    af = AlgebraFile.from_algebra("spin", spin_factor([1]))
    d = af.to_dict()
    d["table"][0][1] = ["1", "0"]
    d["table"][1][0] = ["0", "1"]
    from axialq.errors import CommutativityViolation
    with pytest.raises(CommutativityViolation):
        AlgebraFile.from_dict(d)


def test_algebra_file_rejects_bad_shapes_and_rationals():
    base = {"name": "x", "dimension": 1, "basis": ["e"], "table": [[["1"]]], "axes": []}
    with pytest.raises(ParseError):
        AlgebraFile.from_dict({**base, "dimension": 2})
    with pytest.raises(ParseError):
        AlgebraFile.from_dict({**base, "table": [[["1/0"]]]})
    with pytest.raises(ParseError):
        AlgebraFile.from_dict({**base, "table": [[["0.25"]]]})
    with pytest.raises(ParseError):
        AlgebraFile.from_json("not json")
    with pytest.raises(ParseError):
        AlgebraFile.from_json("[1, 2]")


def test_algebra_file_parses_each_rational_string_once(monkeypatch):
    """Each distinct rational string in one file is parsed once, the axes load as integer
    vectors over den 1, and equal entries of the generators load as one Fraction object."""
    A, _ = matsuo(sn_transpositions(4))
    d = AlgebraFile.from_algebra("s4", A).to_dict()
    d["generators"] = d["axes"]
    parsed, parse = [], fileio.parse_rational
    monkeypatch.setattr(fileio, "parse_rational", lambda s: parsed.append(s) or parse(s))
    af = AlgebraFile.from_dict(d)
    strings = [c for vectors in (*d["table"], d["axes"], d["generators"])
               for v in vectors for c in v]
    assert sorted(parsed) == sorted(set(strings)) == ["-1/4", "0", "1", "1/4"]
    axes = af.algebra.designated_axes
    assert len(axes) == 6 and all(a.den == 1 and set(a.num) == {0, 1} for a in axes)
    assert all(type(c) is int for a in axes for c in a.num)
    entries = [c for g in af.generators for c in g]
    assert len({id(c) for c in entries}) == len(set(entries)) == 2  # 0, 1


def test_algebra_file_writes_generators_back():
    from axialq.constructions import matsuo, sn_transpositions
    d = AlgebraFile.from_algebra("s3", matsuo(sn_transpositions(3))[0]).to_dict()
    d["generators"] = d["axes"][:2]
    text = AlgebraFile.from_dict(d).to_json()
    assert json.loads(text) == d
    assert AlgebraFile.from_json(text).to_json() == text


# --- word expressions --------------------------------------------------------------

def test_parse_word():
    w = parse_word("(a*b)*a", ["a", "b"])
    assert w.tree == ((0, 1), 0)
    assert parse_word("a", ["a", "b"]).tree == 0
    assert parse_word("a*b*c", ["a", "b", "c"]).tree == ((0, 1), 2)


@pytest.mark.parametrize("expr", ["(a*b", "a*", "z", "a b", "a*b)", "", "a@b"])
def test_parse_word_rejects(expr):
    with pytest.raises(ParseError):
        parse_word(expr, ["a", "b"])


def test_parse_word_depth_limit():
    deepest = "(" * MAX_WORD_DEPTH + "a" + ")" * MAX_WORD_DEPTH
    assert parse_word(deepest, ["a"]).tree == 0
    chain = parse_word("*".join(["a"] * (MAX_WORD_DEPTH + 1)), ["a"]).tree
    for _ in range(MAX_WORD_DEPTH - 1):  # a chain of k letters is k - 1 levels deep
        chain = chain[0]
    assert chain == (0, 0)
    for expr in ["(" + deepest + ")", "*".join(["a"] * (MAX_WORD_DEPTH + 2))]:
        with pytest.raises(ParseError, match="nested deeper"):
            parse_word(expr, ["a"])


def _reference_parse_word(expr, names):
    """parse_word as a character scanner plus recursive descent: the reference."""
    tokens = []
    i = 0
    while i < len(expr):
        ch = expr[i]
        if ch.isspace():
            i += 1
        elif ch in "()*":
            tokens.append(ch)
            i += 1
        elif ch.isalnum() or ch == "_":
            j = i
            while j < len(expr) and (expr[j].isalnum() or expr[j] == "_"):
                j += 1
            tokens.append(expr[i:j])
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} in word expression")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def checked(depth):
        if depth > MAX_WORD_DEPTH:
            raise ParseError(f"word is nested deeper than {MAX_WORD_DEPTH} levels")
        return depth

    def factor(nesting):
        nonlocal pos
        tok = peek()
        if tok == "(":
            pos += 1
            node = product(checked(nesting + 1))
            if peek() != ")":
                raise ParseError("missing closing parenthesis")
            pos += 1
            return node
        if tok is None or tok in "()*":
            raise ParseError(f"expected a generator name, got {tok!r}")
        pos += 1
        if tok not in names:
            raise ParseError(f"unknown generator {tok!r}; known: {list(names)}")
        return names.index(tok), 0

    def product(nesting):
        nonlocal pos
        node, depth = factor(nesting)
        while peek() == "*":
            pos += 1
            right, right_depth = factor(nesting)
            node, depth = (node, right), checked(1 + max(depth, right_depth))
        return node, depth

    tree, _ = product(0)
    if pos != len(tokens):
        raise ParseError(f"trailing tokens in word expression: {tokens[pos:]}")
    return tree


# letters, digits, "_", non-ASCII word characters (a superscript, an Arabic-Indic
# digit, a Roman numeral), spaces of several kinds, the operators and punctuation,
# a combining accent and a zero-width space (neither a word character nor a space)
_WORD_PIECES = ["a", "b", "1", "_", "\u00b2", "\u0663", "\u216b", " ", "\t", "\u00a0",
                "(", ")", "*", "**", "$", "@", ".", ",", "-", "'", "\u0301", "\u200b"]
_WORD_NAMES = ["a", "b", "ab", "a_1", "b\u00b2", "\u0663", "\u216b"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_WORD_PIECES), max_size=14).map("".join))
def test_parse_word_matches_reference_scanner(expr):
    try:
        expected = _reference_parse_word(expr, _WORD_NAMES)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_word(expr, _WORD_NAMES)
        assert str(got.value) == str(exc)
    else:
        assert parse_word(expr, _WORD_NAMES).tree == expected


@pytest.mark.parametrize("word", ["(" * 3000 + "a" + ")" * 3000,
                                  "*".join(["a"] * 3000),
                                  "a*" + "(a*" * 3000 + "a" + ")" * 3000],
                         ids=["parentheses", "chain", "right-nested"])
def test_deep_word_exits_2(tmp_path, capsys, word):
    path = _write_s3(tmp_path)
    capsys.readouterr()
    assert main(["word-axis", path, "--word", word]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "error" and "nested deeper" in report["message"]


# --- CLI commands --------------------------------------------------------------------

def _write_s3(tmp_path):
    path = str(tmp_path / "s3.json")
    report, code = run_command(["construct", "matsuo", "--sn", "3", "--out", path])
    assert code == 0 and report.status == "pass"
    assert os.path.exists(path)
    return path


def test_construct_and_analyze_roundtrip(tmp_path):
    path = _write_s3(tmp_path)
    report, code = run_command(["analyze", path])
    assert code == 0 and report.status == "pass"
    f = report.findings
    assert f["dimension"] == 3 and f["axis_count"] == 3
    assert all(a["fusion"] for a in f["axes"])
    assert f["semisimple"] and f["jordan"]
    assert f["unit"] == ["2/3", "2/3", "2/3"]


def test_run_command_builds_its_parser_once(tmp_path):
    path = _write_s3(tmp_path)
    _build_parser.cache_clear()
    runs = [run_command(argv) for argv in (["analyze", path], ["analyze", "--bogus", path],
                                           ["analyze"], ["analyze", path])]
    assert [code for _, code in runs] == [0, 2, 2, 0]
    assert runs[0][0].to_json() == runs[-1][0].to_json()
    assert _build_parser.cache_info().misses == 1


def test_construct_inline_when_no_out():
    report, code = run_command(["construct", "twogen", "--alpha", "1/4"])
    assert code == 0
    assert report.findings["algebra"]["dimension"] == 3


def test_frobenius_and_radical(tmp_path):
    path = _write_s3(tmp_path)
    report, code = run_command(["frobenius", path])
    assert code == 0
    assert report.findings["gram"][0] == ["1", "1/4", "1/4"]
    assert report.findings["notes"]["constructions_agree"]
    report2, code2 = run_command(["radical", path])
    assert code2 == 0
    assert report2.findings == {"radical_dim": 0, "radical_basis": [],
                                "semisimple": True}


def test_radical_of_degenerate_twogen(tmp_path):
    path = str(tmp_path / "b0.json")
    _, code = run_command(["construct", "twogen", "--alpha", "0", "--out", path])
    assert code == 0
    report, code = run_command(["radical", path])
    assert code == 0
    assert report.findings["radical_dim"] == 1
    assert not report.findings["semisimple"]


def test_capacity_chain_unit(tmp_path):
    path = _write_s3(tmp_path)
    report, code = run_command(["capacity", path])
    assert code == 0
    assert report.findings["capacity"] == 2
    assert report.findings["summands"][0] == ["1", "0", "0"]
    assert report.findings["summands"][1] == ["-1/3", "2/3", "2/3"]

    report, code = run_command(["chain", path])
    assert code == 0 and report.findings["dims"] == [3, 1, 0]

    report, code = run_command(["unit", path, "--recursive"])
    assert code == 0
    assert report.findings["agree"] is True
    assert report.findings["unit"] == ["2/3", "2/3", "2/3"]


def test_unit_recursive_solves_for_the_unit_once(tmp_path, monkeypatch):
    from axialq import algcore, cli, jordanhalf
    calls = []

    def counted(A):
        calls.append(A)
        return algcore.find_unit(A)

    for module in (cli, jordanhalf):
        monkeypatch.setattr(module, "find_unit", counted)
    path = str(tmp_path / "s4.json")
    assert run_command(["construct", "matsuo", "--sn", "4", "--out", path])[1] == 0
    report, code = run_command(["unit", path, "--recursive"])
    assert code == 0 and report.findings["agree"] is True
    assert len(calls) == 1


def test_gram_for_on_spanning_designated_axes_is_the_unique_solve(algebras):
    spanning = []
    for info in algebras:
        A, axes = info.A, list(info.A.designated_axes)
        if rref(Matrix([a.coords for a in axes])).rank != A.dim:
            continue
        spanning.append(info.name)
        g, notes = gram_for(A)
        solved, free_dim = frobenius_solve(A, axes)
        assert g.gram == solved.gram and free_dim == 0, info.name
        assert list(notes.items()) == [("solve_free_dim", 0), ("axes_span", True),
                                       ("constructions_agree", True)], info.name
    assert spanning == ["m2", "m3", "h3p", "h4p", "matsuo_s3", "matsuo_s4"]


@pytest.mark.parametrize("axes, kind", [
    ([["1", "0"], ["0", "1"], ["1", "1"]], "Inconsistent:"),  # (p+q, p+q) = 2 as well
    ([["1", "1"], ["1", "0"]], "NotPrimitiveAxis:"),          # the solve has a solution
])
def test_frobenius_error_precedence_on_spanning_axes(tmp_path, axes, kind):
    # p + q is not primitive, so the projection fails on both axis sets; the
    # solve's Inconsistent wins over the projection's error
    report, code = run_command(["frobenius", _write_pair(tmp_path, axes)])
    assert code == 2 and report.message.startswith(kind), report.message


def test_capacity_generator_subset(tmp_path):
    path = _write_s3(tmp_path)
    report, code = run_command(["capacity", path, "--generators", "0,1"])
    assert code == 0 and report.findings["capacity"] == 2


@pytest.mark.parametrize("spec, bad", [("x", "x"), ("0,,1", "")])
def test_capacity_names_a_non_integer_generator(tmp_path, spec, bad):
    report, code = run_command(["capacity", _write_s3(tmp_path), "--generators", spec])
    assert code == 2 and report.status == "error"
    assert report.message == f"--generators must be an integer, got {bad!r}"


def _write_s3_with_generators(tmp_path, picks):
    """S3's file with a generators field: its axes at the indices picks, in that order."""
    d = json.loads(Path(_write_s3(tmp_path)).read_text())
    d["generators"] = [d["axes"][i] for i in picks]
    path = tmp_path / "s3-generators.json"
    path.write_text(json.dumps(d))
    return str(path)


def test_commands_read_the_files_generators(tmp_path):
    """capacity, word-axis and chain take a file's generators over its axes: from (1 3),
    (1 2) the first summand and the word a are (1 3), and (2 3) alone spans no S3."""
    path = _write_s3_with_generators(tmp_path, [2, 0])
    report, code = run_command(["capacity", path])
    assert code == 0 and report.findings["summands"] == [["0", "0", "1"], ["2/3", "2/3", "-1/3"]]
    report, code = run_command(["word-axis", path, "--word", "a"])
    assert code == 0 and report.findings["axis"] == ["0", "0", "1"]
    report, code = run_command(["chain", _write_s3_with_generators(tmp_path, [1])])
    assert code == 2 and report.message == "NotSpanning: the generators do not generate the algebra"


def test_commands_take_the_form_from_the_generators_of_a_file_without_axes(tmp_path):
    """S3's file with its axes moved to generators: the form comes from the generators, and
    every command that builds it finds what it finds on the original file, except analyze
    and verify, which report on the designated axes and so exit 2."""
    original = _write_s3(tmp_path)
    d = json.loads(Path(original).read_text())
    d["generators"], d["axes"] = d["axes"], []
    moved = tmp_path / "s3-moved.json"
    moved.write_text(json.dumps(d))
    for argv in (["frobenius"], ["radical"], ["unit", "--recursive"], ["capacity"], ["chain"],
                 ["word-axis", "--word", "(a*b)"]):
        report, code = run_command([argv[0], str(moved), *argv[1:]])
        expected, _ = run_command([argv[0], original, *argv[1:]])
        assert code == 0 and report.status == "pass", report.message
        assert report.findings == expected.findings
    for argv in (["analyze", str(moved)], ["verify", "identities", str(moved)]):
        report, code = run_command(argv)
        assert code == 2 and report.message == "AxialError: the algebra has no designated axes"


def test_an_empty_generators_list_leaves_the_axes(tmp_path):
    """S3's file with "generators": [] beside its 3 axes: an empty list names no generators,
    so every file command takes the axes and finds what it finds on the original file."""
    original = _write_s3(tmp_path)
    d = json.loads(Path(original).read_text())
    d["generators"] = []
    empty = tmp_path / "s3-empty-generators.json"
    empty.write_text(json.dumps(d))
    for argv in (["analyze", "{}"], ["frobenius", "{}"], ["radical", "{}"], ["capacity", "{}"],
                 ["chain", "{}"], ["unit", "{}", "--recursive"],
                 ["verify", "identities", "{}", "--triples", "2"],
                 ["word-axis", "{}", "--word", "(a*b)"]):
        report, code = run_command([a.format(empty) for a in argv])
        expected, expected_code = run_command([a.format(original) for a in argv])
        assert (code, report.status) == (expected_code, expected.status) == (0, "pass"), argv
        assert report.findings == expected.findings, argv


@pytest.mark.parametrize("argv", [["capacity"], ["chain"], ["word-axis", "--word", "a"],
                                  ["frobenius"], ["radical"], ["unit", "--recursive"]])
def test_a_file_without_generators_or_axes_exits_2(tmp_path, argv):
    d = json.loads(Path(_write_s3(tmp_path)).read_text())
    d["axes"] = []
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(d))
    report, code = run_command([argv[0], str(path), *argv[1:]])
    assert code == 2 and report.status == "error"
    assert report.message == "AxialError: no generators: the file has neither generators nor axes"


def test_verify_draws_no_triple_from_two_axes(tmp_path):
    path = str(tmp_path / "b14.json")
    assert run_command(["construct", "twogen", "--alpha", "1/4", "--out", path])[1] == 0
    report, code = run_command(["verify", "identities", path, "--triples", "3"])
    assert code == 0 and report.status == "pass"
    assert report.findings["pairs_checked"] == 1 and report.findings["triple_results"] == []


def test_verify_identities(tmp_path):
    path = _write_s3(tmp_path)
    report, code = run_command(["verify", "identities", path,
                                "--pairs", "all", "--triples", "3"])
    assert code == 0
    assert report.findings["pairs_checked"] == 3
    assert all(r["all_ok"] for r in report.findings["pair_results"])
    for t in report.findings["triple_results"]:
        assert t.get("equal", True)
    assert report.findings["seed"] == 20240901


def test_verify_skips_triples_of_a_repeated_axis(tmp_path):
    d = json.loads(Path(_write_s3(tmp_path)).read_text())
    d["axes"] = [d["axes"][0], d["axes"][0], d["axes"][1]]
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(d))
    report, code = run_command(["verify", "identities", str(path), "--triples", "2"])
    assert code == 0 and report.status == "pass"
    triples = report.findings["triple_results"]
    assert len(triples) == 2
    assert all(t["skipped"] == "triple identity needs pairwise distinct axes"
               for t in triples)


def test_verify_seed_env(tmp_path, monkeypatch):
    path = _write_s3(tmp_path)
    monkeypatch.setenv("AXIAL_SEED", "7")
    report, code = run_command(["verify", "identities", path, "--pairs", "2"])
    assert code == 0 and report.findings["seed"] == 7


def test_word_axis(tmp_path):
    path = _write_s3(tmp_path)
    report, code = run_command(["word-axis", path, "--word", "(a*b)*a"])
    assert code == 0
    assert report.findings["axis_primitive"] and report.findings["axis_fusion"]


def test_exit_code_error_paths(tmp_path):
    # missing file
    report, code = run_command(["analyze", str(tmp_path / "nope.json")])
    assert code == 2 and report.status == "error"
    # malformed file
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    report, code = run_command(["analyze", str(bad)])
    assert code == 2 and report.status == "error"
    # bad rational on the command line
    report, code = run_command(["construct", "twogen", "--alpha", "0.5"])
    assert code == 2 and report.status == "error"
    # unknown subcommand -> argparse usage error
    report, code = run_command(["frobnicate"])
    assert code == 2 and report.status == "error"
    # unknown word generator
    path = _write_s3(tmp_path)
    report, code = run_command(["word-axis", path, "--word", "q*r"])
    assert code == 2 and report.status == "error"


def test_exit_code_error_on_directory_and_generator_index(tmp_path, capsys):
    # a directory where a file is expected
    report, code = run_command(["analyze", str(tmp_path)])
    assert code == 2 and report.status == "error"
    # generator indices outside the axes list, negative ones included
    path = _write_s3(tmp_path)
    for spec in ["99", "-1", "0,3"]:
        report, code = run_command(["capacity", path, "--generators", spec])
        assert code == 2 and report.status == "error", spec
        assert "out of range" in report.message
    # the report reaches stdout as JSON
    assert main(["capacity", path, "--generators", "-1"]) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "error"


def _write_pair(tmp_path, axes):
    """Q x Q (p p = p, q q = q, p q = 0) with the given axes."""
    d = {
        "name": "pair",
        "dimension": 2,
        "basis": ["p", "q"],
        "table": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
        "axes": axes,
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(d))
    return str(path)


def test_exit_code_fail_path(tmp_path):
    # Q x Q with the non-primitive idempotent p + q designated as an axis:
    # analyze completes but flags the axis, so the status is fail (exit 1)
    report, code = run_command(["analyze", _write_pair(tmp_path, [["1", "1"]])])
    assert code == 1 and report.status == "fail"
    assert report.findings["axes"][0]["idempotent"]
    assert not report.findings["axes"][0]["primitive"]


def test_analyze_error_keeps_findings(tmp_path):
    # with axes p + q and p the axes span, so after the axis reports the
    # projection form rejects the non-primitive axis p + q
    report, code = run_command(["analyze", _write_pair(tmp_path, [["1", "1"], ["1", "0"]])])
    assert code == 2 and report.status == "error"
    assert report.message == "NotPrimitiveAxis: 1*p + 1*q is not a primitive axis"
    f = report.findings
    assert f["dimension"] == 2 and f["axis_count"] == 2
    assert f["axes"][0]["primitive"] is False and f["axes"][1]["primitive"] is True


def test_exit_code_fail_on_fusion_break(tmp_path):
    """The fusion-break axis is semisimple; the Jordan-block axis, whose ad has one Jordan
    block for 1/2, is not.  Both are primitive and fail fusion."""
    for name, A, semisimple in (("fusion-break", fusion_break(), True),
                                ("jordan-block", jordan_block(), False)):
        path = tmp_path / f"{name}.json"
        path.write_text(AlgebraFile.from_algebra(name, A).to_json())
        report, code = run_command(["analyze", str(path)])
        assert code == 1 and report.status == "fail"
        axis = report.findings["axes"][0]
        assert axis["idempotent"] and axis["primitive"]
        assert axis["semisimple"] is semisimple and axis["fusion"] is False


def test_exit_code_fail_on_a_non_jordan_algebra(tmp_path):
    # basis e, x, y with e e = e, x x = y, y y = x: the axis e passes every check
    # but (x^2 y) x = (y y) x = x x = y differs from x^2 (y x) = 0
    one, z = "1", "0"
    d = {"name": "non-jordan", "dimension": 3, "basis": ["e", "x", "y"],
         "table": [[[one, z, z], [z, z, z], [z, z, z]],
                   [[z, z, z], [z, z, one], [z, z, z]],
                   [[z, z, z], [z, z, z], [z, one, z]]],
         "axes": [[one, z, z]]}
    path = tmp_path / "non-jordan.json"
    path.write_text(json.dumps(d))
    report, code = run_command(["analyze", str(path)])
    assert code == 1 and report.status == "fail"
    f = report.findings
    assert f["jordan"] is False and f["radical_dim"] == 2
    axis = f["axes"][0]
    assert axis["idempotent"] and axis["semisimple"] and axis["primitive"] and axis["fusion"]


def _write_b1(tmp_path):
    path = str(tmp_path / "b1.json")
    _, code = run_command(["construct", "twogen", "--alpha", "1", "--out", path])
    assert code == 0
    return path


def test_verify_vacuous_pair(tmp_path):
    # the two axes of B(1) have form value 1, so the pair identities hold vacuously
    report, code = run_command(["verify", "identities", _write_b1(tmp_path)])
    assert code == 0 and report.status == "pass"
    assert report.findings["pair_results"] == [{"pair": [0, 1], "alpha": "1", "all_ok": True}]


@pytest.mark.parametrize("command", ["capacity", "chain"])
def test_missing_unit_is_not_unit(tmp_path, command):
    report, code = run_command([command, _write_b1(tmp_path)])
    assert code == 2 and report.status == "error"
    assert report.message == "NotUnit: the algebra has no unit"


def test_unit_without_recursion_reports_a_missing_unit(tmp_path):
    report, code = run_command(["unit", _write_b1(tmp_path)])
    assert code == 0 and report.status == "pass"
    assert report.findings == {"unit": None}


def test_recursive_unit_rejects_dependent_axes(tmp_path):
    # Q x Q with the axis p designated twice: the unit is found, the axis basis is rejected
    path = tmp_path / "qxq-pp.json"
    path.write_text(json.dumps({
        "name": "QxQ", "dimension": 2, "basis": ["p", "q"],
        "table": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
        "axes": [["1", "0"], ["1", "0"]]}))
    report, code = run_command(["unit", str(path), "--recursive"])
    assert code == 2 and report.status == "error"
    assert report.message == "NotBasisOfAxes: axes are linearly dependent"
    assert report.findings["unit"] == ["1", "1"]


def test_exit_code_error_on_undersized_recursive_unit(tmp_path):
    # two axes cannot be a basis of the 3-dimensional algebra
    report, code = run_command(["unit", _write_b1(tmp_path), "--recursive"])
    assert code == 2 and report.status == "error"
    # the error report keeps the findings made before the error
    assert report.findings == {"unit": None}


def test_construct_error_keeps_name_and_dimension(tmp_path):
    out = str(tmp_path / "missing" / "spin.json")  # its directory does not exist
    report, code = run_command(["construct", "spin", "--out", out])
    assert code == 2 and report.status == "error"
    assert report.findings == {"name": "spin(1,1)", "dimension": 3}
    assert not os.path.exists(out)


@pytest.mark.parametrize("out, errno_", [("missing/s3.json", errno.ENOENT),  # no such directory
                                          ("outdir", errno.EISDIR)])
def test_failed_write_names_the_out_path(tmp_path, monkeypatch, out, errno_):
    """The message names --out as given, never the temporary file, and none is left."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "outdir").mkdir()
    messages = []
    for _ in range(2):
        report, code = run_command(["construct", "matsuo", "--sn", "3", "--out", out])
        assert code == 2 and report.status == "error"
        messages.append(report.message)
    assert messages == [f"[Errno {errno_}] {os.strerror(errno_)}: {out!r}"] * 2
    assert ".axialq-" not in messages[0]
    assert list(tmp_path.rglob(".axialq-*")) == []


@pytest.mark.parametrize("sn", ["1", "0", "-1"])
def test_construct_matsuo_rejects_degree_below_2(tmp_path, sn):
    out = str(tmp_path / "s.json")
    report, code = run_command(["construct", "matsuo", "--sn", sn, "--out", out])
    assert code == 2 and report.status == "error"
    assert report.message == "n must be >= 2"
    assert not os.path.exists(out)


@pytest.mark.parametrize("kind, n", [("hn", "1"), ("hnprime", "0")])
def test_construct_hn_rejects_n_below_2(kind, n):
    report, code = run_command(["construct", kind, "--n", n])
    assert code == 2 and report.status == "error" and report.message == "n must be >= 2"


def test_main_writes_json(capsys, tmp_path):
    path = _write_s3(tmp_path)
    code = main(["radical", path])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 0
    assert payload["status"] == "pass"
    assert payload["findings"]["radical_dim"] == 0


@pytest.mark.parametrize("kind, option, value, name", [
    ("twogen", "--alpha", "-1/3", "B(-1/3)"), ("spin", "--diag", "-1,2", "spin(-1,2)"),
    ("twogen", "--alpha", "1/4", "B(1/4)"), ("spin", "--diag", "1,4,9", "spin(1,4,9)")])
def test_construct_reads_a_rational_after_its_option(kind, option, value, name):
    """argparse would take -1/3 or -1,2 for an option: after a space, as after "=", it is
    the option's value.  The positive values' reports and files are pinned below."""
    from axialq.constructions import two_gen_algebra
    report, code = run_command(["construct", kind, option, value])
    assert (report, code) == run_command(["construct", kind, f"{option}={value}"])
    assert code == 0 and report.inputs[option[2:]] == value and report.findings["name"] == name
    if kind == "twogen":
        built = AlgebraFile.from_dict(report.findings["algebra"]).algebra
        assert source_grid(built) == source_grid(two_gen_algebra(parse_rational(value)))


def test_construct_names_a_negative_decimal_value():
    report, code = run_command(["construct", "twogen", "--alpha", "-0.5"])
    assert code == 2 and report.message == "decimal notation is not allowed, use p/q: '-0.5'"


def test_construct_all_factories_roundtrip_report_identical(tmp_path):
    """construct -> serialize -> parse -> analyze twice gives identical reports."""
    cases = [
        ["construct", "spin", "--diag", "1,1"],
        ["construct", "matrix", "--n", "2"],
        ["construct", "hn", "--n", "2"],
        ["construct", "hnprime", "--n", "3"],
        ["construct", "matsuo", "--sn", "3"],
        ["construct", "twogen", "--alpha", "1/2"],
        ["construct", "qdbasis", "--n", "2"],
    ]
    for i, argv in enumerate(cases):
        path = str(tmp_path / f"alg{i}.json")
        report, code = run_command(argv + ["--out", path])
        assert code == 0, argv
        first, c1 = run_command(["analyze", path])
        # re-serialize through the parser and analyze again
        af = AlgebraFile.from_json(Path(path).read_text())
        path2 = str(tmp_path / f"alg{i}b.json")
        Path(path2).write_text(af.to_json())
        second, c2 = run_command(["analyze", path2])
        assert c1 == c2 == 0, argv
        assert first.findings == second.findings, argv


def _twogen_dict(tmp_path):
    path = tmp_path / "b.json"
    _, code = run_command(["construct", "twogen", "--out", str(path)])
    assert code == 0
    return json.loads(path.read_text())


def _set_table_row(d):
    d["table"][0] = 5


def _set_table_cell(d):
    d["table"][0][0] = 5


def _bool_dimension(d):
    # a one-dimensional algebra, where True would pass for the dimension 1
    d.update(dimension=True, basis=["e"], table=[[["1"]]], axes=[["1"]])


@pytest.mark.parametrize("probe", [
    {"axes": 7}, {"basis": 5}, {"generators": 3}, _bool_dimension,
    {"name": [1]}, {"basis": [1, 2, 3]}, {"axes": [["1", "0"]]},
    {"generators": [[True, "0", "0"]]}, _set_table_row, _set_table_cell,
], ids=["axes", "basis", "generators", "dimension-bool", "name", "basis-names",
        "axis-length", "generator-bool", "table-row", "table-cell"])
def test_schema_type_errors_exit_2(tmp_path, capsys, probe):
    d = _twogen_dict(tmp_path)
    if callable(probe):
        probe(d)
    else:
        d.update(probe)
    with pytest.raises(ParseError):
        AlgebraFile.from_dict(d)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["analyze", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "error" and report["message"]


@pytest.mark.parametrize("option", [["--triples", "-3"], ["--pairs", "-2"]])
def test_verify_rejects_negative_counts(tmp_path, option):
    path = _write_s3(tmp_path)
    report, code = run_command(["verify", "identities", path, *option])
    assert code == 2 and report.status == "error"
    assert "nonnegative" in report.message


@pytest.mark.parametrize("option", ["--pairs", "--triples"])
def test_verify_names_a_non_integer_count(tmp_path, option):
    path = _write_s3(tmp_path)
    report, code = run_command(["verify", "identities", path, option, "2x"])
    assert code == 2 and report.status == "error"
    assert report.message == f"{option} must be an integer, got '2x'"


def test_verify_names_a_non_integer_seed(tmp_path, monkeypatch):
    path = _write_s3(tmp_path)
    monkeypatch.setenv("AXIAL_SEED", "abc")
    report, code = run_command(["verify", "identities", path])
    assert code == 2 and report.status == "error"
    assert report.message == "AXIAL_SEED must be an integer, got 'abc'"


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    with pytest.raises(ParseError, match="nested too deeply"):
        AlgebraFile.from_json(path.read_text())
    capsys.readouterr()
    assert main(["analyze", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "error" and "nested too deeply" in report["message"]


# --- fuzzing the exit contract ---------------------------------------------------------

def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return dict(sub.choices)


_SUBCOMMANDS = _subcommands()
# -h prints argparse's help text to stdout by design, so it is never drawn
_OPTIONS = [o for sub in _SUBCOMMANDS.values() for a in sub._actions
            if not isinstance(a, argparse._HelpAction) for o in a.option_strings]
# option values beyond each option's own choices: counts, rationals, index lists,
# words and junk; all sizes small enough that any construction stays cheap
_VALUES = ["-1", "0", "1", "2", "3", "all", "1/4", "0.5", "1,1", "1,-1,0", "0,1", "7",
           "a", "(a*b)*a", "a*(b*c)", "((a", "", "x y"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    bases = []
    for argv in (["construct", "matsuo", "--sn", "3"], ["construct", "twogen", "--alpha", "1/4"]):
        report, code = run_command(argv)
        assert code == 0
        bases.append(report.findings["algebra"])
    bases[1]["generators"] = bases[1]["axes"]
    return d, bases


def _paths(value, prefix=()):
    """Every position in a JSON value, as the key/index path that reaches it."""
    yield prefix
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _mutate_file(data, base):
    d = json.loads(json.dumps(base))
    kind = data.draw(st.sampled_from(["drop", "retype", "truncate", "string"]))
    if kind == "drop":
        del d[data.draw(st.sampled_from(sorted(d)))]
        return d
    paths = [p for p in _paths(d) if p]
    if kind == "truncate":
        paths = [p for p in paths if isinstance(_get(d, p), list) and _get(d, p)]
    elif kind == "string":  # the rationals: strings inside the table, axes or generators
        paths = [p for p in paths if p[0] in ("table", "axes", "generators")
                 and isinstance(_get(d, p), str)]
    path = data.draw(st.sampled_from(paths))
    parent, key = _get(d, path[:-1]), path[-1]
    if kind == "truncate":
        parent[key] = parent[key][:-1]
    elif kind == "string":
        parent[key] = data.draw(st.text(max_size=8))
    else:
        parent[key] = data.draw(st.sampled_from(
            [None, True, 3, -1, 0.5, "1", "x", [], ["1"], [[]], {}, {"a": 1}]))
    return d


def _get(d, path):
    for key in path:
        d = d[key]
    return d


def _argv(data, file_path, out_path):
    """A command line drawn from the parser's own commands, choices and options."""
    command = data.draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv = [command]
    for action in _SUBCOMMANDS[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action.option_strings and not data.draw(st.booleans()):
            continue
        if action.option_strings:
            argv.append(data.draw(st.sampled_from(action.option_strings)))
            if action.nargs == 0:
                continue
        if action.choices:
            argv.append(data.draw(st.sampled_from(sorted(action.choices))))
        elif action.dest == "file":
            argv.append(file_path)
        elif action.dest == "out":
            argv.append(out_path)
        else:
            argv.append(data.draw(st.sampled_from(_VALUES)))
    for _ in range(data.draw(st.sampled_from([0, 0, 1, 2]))):
        if argv and data.draw(st.booleans()):
            del argv[data.draw(st.integers(0, len(argv) - 1))]
        else:
            token = data.draw(st.sampled_from(sorted(_SUBCOMMANDS) + _OPTIONS + _VALUES))
            argv.insert(data.draw(st.integers(0, len(argv))), token)
    return argv


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fuzzed_files_and_argv_keep_exit_contract(fuzz_dir, data):
    """Whatever the file and the command line, the exit code is 0, 1 or 2 and
    stdout is one JSON report.  A drawn token may land where a file name goes
    (``construct hn --out analyze``), so every command runs in the test's own
    directory and the starting directory is left as it was."""
    directory, bases = fuzz_dir
    d = data.draw(st.sampled_from(bases))
    if data.draw(st.booleans()):
        d = _mutate_file(data, d)
    file_path = str(directory / "alg.json")
    with open(file_path, "w", encoding="utf-8") as fh:
        json.dump(d, fh)
    argv = _argv(data, file_path, str(directory / "out.json"))
    out = io.StringIO()
    start = os.getcwd()
    listing = sorted(os.listdir(start))
    os.chdir(directory)  # contextlib.chdir needs Python 3.11
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(start)
    assert sorted(os.listdir(start)) == listing, argv
    assert code in (0, 1, 2), argv
    assert set(json.loads(out.getvalue())) == {"command", "inputs", "findings", "status",
                                               "message"}


# --- findings pinned byte for byte -----------------------------------------------------

_CI_FILES = {  # the hand-written files of the CI console-script step
    "fusion-break.json": {
        "name": "fusion-break", "dimension": 3, "basis": ["e", "u", "w"],
        "table": [[["1", "0", "0"], ["0", "1/2", "0"], ["0", "0", "0"]],
                  [["0", "1/2", "0"], ["0", "1", "0"], ["0", "0", "0"]],
                  [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]],
        "axes": [["1", "0", "0"]]},
    "spectrum-break.json": {
        "name": "spectrum-break", "dimension": 2, "basis": ["e", "u"],
        "table": [[["1", "0"], ["0", "1/3"]], [["0", "1/3"], ["0", "0"]]],
        "axes": [["1", "0"]]},
    "non-jordan.json": {
        "name": "non-jordan", "dimension": 3, "basis": ["e", "x", "y"],
        "table": [[["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],
                  [["0", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]],
                  [["0", "0", "0"], ["0", "0", "0"], ["0", "1", "0"]]],
        "axes": [["1", "0", "0"]]},
    "qxq.json": {
        "name": "QxQ", "dimension": 2, "basis": ["p", "q"],
        "table": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
        "axes": [["1", "1"], ["1", "0"]]},
}
_PINNED_CONSTRUCTIONS = {
    "b-1-4.json": ["twogen", "--alpha", "1/4"],
    "matsuo-s4.json": ["matsuo", "--sn", "4"],
    "h4p.json": ["hnprime", "--n", "4"],
    "h4.json": ["hn", "--n", "4"],
    "m3.json": ["matrix", "--n", "3"],
    "spin-1-4-9.json": ["spin", "--diag", "1,4,9"],
}
_PINNED_COMMANDS = [["analyze"], ["frobenius"], ["radical"], ["capacity"], ["chain"],
                    ["unit", "--recursive"]]
FINDINGS_SHA256 = "57827a9da598f78dd242a208ad9444a3ef44436895a77f011d7fb6d08525cc64"


def test_findings_are_byte_identical(tmp_path, monkeypatch):
    """One sha256 over the exit code and stdout of every pinned command on every pinned
    file, named relative to the working directory so that no path enters a report.  A
    change that alters any finding, message or exit code changes it."""
    monkeypatch.chdir(tmp_path)
    for name, argv in _PINNED_CONSTRUCTIONS.items():
        assert run_command(["construct", *argv, "--out", name])[1] == 0, argv
    for name, d in _CI_FILES.items():
        Path(name).write_text(json.dumps(d))
    digest = hashlib.sha256()
    for name in [*_PINNED_CONSTRUCTIONS, *_CI_FILES]:
        for command in _PINNED_COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([command[0], name, *command[1:]])
            digest.update(f"{code}\n{out.getvalue()}".encode())
    assert digest.hexdigest() == FINDINGS_SHA256


# sha256 of the bytes that ``construct ... --out`` writes, the indent=2 layout included
ALGEBRA_FILE_SHA256 = {
    "b-1-4.json": "1822b615a04c70d6ce5ba6817d063eb8b5080216952be1eaee2a394fa35662bd",
    "matsuo-s4.json": "68fbcc762ee30bc0479b4b9883c9f17775476a7c6dfe5e0d3268964e0bb05be4",
    "h4p.json": "7dddf4d8383c56e8f51719a428bae62c1e620b1db2a4cd9be10ca01cc1a4d57a",
    "h4.json": "0f8d825893ee3d5443024b04f5a523f524f9b83caf3b42e0a4753c56b8519cbc",
    "m3.json": "818bc69429cc88040767775ff422aebb812087263b11bffaed87bddfc37150ee",
    "spin-1-4-9.json": "e3acf1aa8f4c78f664eed0f66517c8a5d24e493445bc85b3da7e188ab43bc029",
    "m4.json": "781d9aef82142d56ed79e4cb37fb8b1246471dd3f81f3fb3a28a35f782565d66",
    "matsuo-s6.json": "67efb47fd77333b7fc367025c293799ae5af51e9e27cf6f753a7c94bc447f170",
}


def test_algebra_files_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    constructions = {**_PINNED_CONSTRUCTIONS, "m4.json": ["matrix", "--n", "4"],
                     "matsuo-s6.json": ["matsuo", "--sn", "6"]}
    digests = {}
    for name, argv in constructions.items():
        assert run_command(["construct", *argv, "--out", name])[1] == 0, argv
        digests[name] = hashlib.sha256(Path(name).read_bytes()).hexdigest()
    assert digests == ALGEBRA_FILE_SHA256
