"""Point-file parsing: the columnar parser against a per-token oracle, the
token grammar, and malformed files through the CLI.

The oracle is ``parse_number`` applied to each token of each row, the way
the parser read files before it produced columns.
"""

import contextlib
import io
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strongcenter import ParseError
from strongcenter.cli import main
from strongcenter.pointfile import parse_number, parse_point_file

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
_PLAIN_INT = re.compile(r"[+-]?[0-9]+")


def oracle_values(rows):
    return [[parse_number(token) for token in row.split()] for row in rows]


def typed(values):
    """Values with their types, telling 1 from 1.0 and 0.0 from -0.0."""
    return [(type(v), repr(v)) for v in values]


@st.composite
def int_tokens(draw, values):
    value = draw(values)
    sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
    zeros = draw(st.sampled_from(["", "", "0", "00"]))
    return f"{sign}{zeros}{abs(value)}"


int64_values = st.one_of(
    st.integers(-3, 3),
    st.integers(INT64_MIN, INT64_MAX),
    st.sampled_from([INT64_MIN, INT64_MAX, -(2**62), 2**62]),
)
wide_values = st.one_of(
    int64_values,
    st.sampled_from([INT64_MAX + 1, INT64_MIN - 1]),
    st.integers(-(2**70), 2**70),
)
float_tokens = st.one_of(
    st.sampled_from(["-0.0", "0.0", "0.50", "1e3", "1.0E2", "-.5", "5."]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
TOKEN_KINDS = {
    "int64": int_tokens(int64_values),
    "wide-int": int_tokens(wide_values),
    "float": float_tokens,
    "mixed": st.one_of(int_tokens(wide_values), float_tokens),
}


@st.composite
def point_files(draw):
    """Text of a well-formed point file and its raw row text."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    tokens = TOKEN_KINDS[draw(st.sampled_from(sorted(TOKEN_KINDS)))]
    spaces = st.sampled_from([" ", "  ", "\t", " \t ", "\x1f"])
    edges = st.sampled_from(["", "", " ", "\t"])
    rows = []
    for _ in range(n):
        row = draw(edges)
        for j in range(dim):
            row += (draw(spaces) if j else "") + draw(tokens)
        rows.append(row + draw(edges))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join([f"{dim} {n}"] + rows) + draw(st.sampled_from(["", end]))
    return text, rows


@given(point_files())
def test_columnar_parser_matches_per_token_oracle(case):
    text, rows = case
    parsed = parse_point_file(text)
    values = oracle_values(rows)
    dim = len(values[0])
    assert parsed.dim == dim
    assert parsed.rows == tuple(row.strip() for row in rows)
    assert len(parsed.columns) == dim
    for j, column in enumerate(parsed.columns):
        got = column.tolist() if isinstance(column, np.ndarray) else column
        assert typed(got) == typed([v[j] for v in values])
    for i, row_values in enumerate(values):
        assert typed(parsed.point(i).coords) == typed(row_values)
    # the whole-file int64 conversion runs exactly for plain int64 tokens
    tokens = [token for row in rows for token in row.split()]
    plain = all(_PLAIN_INT.fullmatch(t) for t in tokens) and all(
        INT64_MIN <= int(t) <= INT64_MAX for t in tokens
    )
    for column in parsed.columns:
        assert isinstance(column, np.ndarray) == plain
        if plain:
            assert column.dtype == np.int64


def test_blank_middle_row_keeps_the_line_numbered_error():
    # numpy's reader skips blank rows; the row count sends these files to
    # the token-by-token parser, which names the blank line
    for text in ("2 3\n1 2\n\n3 4\n", "2 3\n1 2\n \t\n3 4\n"):
        with pytest.raises(ParseError) as raised:
            parse_point_file(text)
        assert str(raised.value) == "line 3: expected 2 coordinates, got 0"


# more rows than the 50,000 that numpy's reader converts per chunk
@pytest.mark.parametrize(
    "token, fits", [("-0012", True), (str(INT64_MAX + 1), False)]
)
def test_file_longer_than_one_reader_chunk(token, fits):
    # int64 extremes, signs, leading zeros and tabs; ``token`` on row 50,001
    values = np.random.default_rng(8).integers(
        INT64_MIN, INT64_MAX, (50_003, 2), endpoint=True
    )
    values[:4] = [[INT64_MIN, INT64_MAX], [0, -1], [1, 0], [INT64_MAX, 7]]
    rows = [f"{a:+d}\t{b:+023d}" if i % 2 else f"\t{a} \t{b:024d}"
            for i, (a, b) in enumerate(values.tolist())]
    rows[50_000] = f"{token} 5"
    parsed = parse_point_file(f"2 {len(rows)}\n" + "\n".join(rows) + "\n")
    values = oracle_values(rows)
    for j, column in enumerate(parsed.columns):
        assert isinstance(column, np.ndarray) == fits
        if fits:
            assert column.dtype == np.int64
            column = column.tolist()
        assert typed(column) == typed([v[j] for v in values])


def test_token_grammar():
    # The grammar as it stands: recorded here, not endorsed.
    assert typed([parse_number("1_0")]) == typed([10.0])
    assert typed([parse_number("+7"), parse_number("-07")]) == typed([7, -7])
    assert typed([parse_number("٣")]) == typed([3])  # Arabic-Indic 3
    with pytest.raises(ParseError):
        parse_number("0x10")
    ascii_only = parse_point_file("2 2\n1_0 +7\n-07 0\n")
    assert typed(ascii_only.columns[0]) == typed([10.0, -7])
    assert typed(ascii_only.columns[1]) == typed([7, 0])
    parsed = parse_point_file("2 3\n1_0 +7\x0c-07 ٣\x0b0 0\n")
    assert parsed.rows == ("1_0 +7", "-07 ٣", "0 0")
    assert typed(parsed.columns[0]) == typed([10.0, -7, 0])
    assert typed(parsed.columns[1]) == typed([7, 3, 0])


def test_repr_of_a_parsed_file_leaves_out_its_rows():
    rows = [f"{i * 0.5!r} {-i * 1.25!r}" for i in range(10_000)]
    parsed = parse_point_file(f"2 {len(rows)}\n" + "\n".join(rows) + "\n")
    assert len(parsed.rows) == 10_000
    assert len(repr(parsed)) < 200


def test_overlong_integer_token_is_a_parse_error():
    token = "9" * 5000
    with pytest.raises(ParseError, match="bad coordinate"):
        parse_number(token)
    with pytest.raises(ParseError, match="bad coordinate"):
        parse_point_file(f"2 2\n1 2\n{token} 3\n")


def test_parser_errors_follow_row_order():
    # a bad token before a short row is reported first, and vice versa
    with pytest.raises(ParseError, match="bad coordinate 'x'"):
        parse_point_file("2 3\n0 0\n1 x\n2\n")
    with pytest.raises(ParseError, match="line 3: expected 2 coordinates"):
        parse_point_file("2 3\n0 0\n1\n2 x\n")


@given(
    st.text(
        alphabet=st.sampled_from(
            list("0123456789+-._ex \t\n\r\x0b\x0c") + ["٣", "½"]
        ),
        max_size=60,
    )
)
def test_parse_point_file_raises_only_parse_error(text):
    try:
        parse_point_file(text)
    except ParseError:
        pass


BAD_TOKENS = [
    "x", "0x10", "1e999", "-inf", "nan", "--1", "1-2", "+", "-", "1..2",
    "1,5", "½", "0b1", "1e", "9" * 5000,
]
BAD_HEADERS = ["", "2", "2 x", "0 1", "-1 2", "2 1 1", "x 2", "2 0"]


@st.composite
def malformed_point_files(draw):
    """Bytes of a valid point file with one corruption applied."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    token = st.one_of(st.integers(-9, 9).map(str), float_tokens)
    rows = [[draw(token) for _ in range(dim)] for _ in range(n)]
    header = f"{dim} {n}"
    fault = draw(
        st.sampled_from(
            ["count", "header", "width", "token", "blank-row", "utf-8"]
        )
    )
    i = draw(st.integers(0, n - 1))
    if fault == "count":
        header = f"{dim} {n + draw(st.sampled_from([-2, -1, 1, 5]))}"
    elif fault == "header":
        header = draw(st.sampled_from(BAD_HEADERS))
    elif fault == "width":
        if draw(st.booleans()):
            rows[i].append("0")
        else:
            rows[i].pop()
    elif fault == "token":
        rows[i][draw(st.integers(0, dim - 1))] = draw(
            st.sampled_from(BAD_TOKENS)
        )
    elif fault == "blank-row":
        rows.insert(i, [])
    lines = [header] + [" ".join(row) for row in rows]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if fault == "utf-8":
        data = data.replace(b"\n", b"\n\xff", 1)
    return data


@given(malformed_point_files())
def test_cli_rejects_malformed_point_files(data):
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        pass
    else:
        with pytest.raises(ParseError):
            parse_point_file(text)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.txt")
        with open(path, "wb") as handle:
            handle.write(data)
        for argv in (
            ["compute", path, "--family", "axis-box"],
            ["verify", path, "--family", "axis-box", "--candidate", "0"],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            assert code == 2
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")
            assert "Traceback" not in err.getvalue()
