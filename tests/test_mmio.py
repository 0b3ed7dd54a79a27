import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import blockpart.mmio as mmio
from blockpart import CsrMatrix, build_csr, read_matrix_market, write_matrix_market
from blockpart.cli import main as cli_main
from blockpart.mmio import parse_matrix_market
from blockpart.sparse import ENTRY_DTYPE

from conftest import random_csr

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)


class TestParse:
    def test_single_entry(self):
        text = "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 5.0\n"
        A = parse_matrix_market(text)
        assert (A.m, A.n, A.nnz) == (1, 1, 1)
        assert A.val.tolist() == [5.0]

    def test_symmetric_mirrors(self):
        text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 3.0\n"
        A = parse_matrix_market(text)
        assert A.nnz == 2
        assert A.to_dense().tolist() == [[0.0, 3.0], [3.0, 0.0]]

    def test_symmetric_diagonal_not_doubled(self):
        text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 4.0\n2 1 3.0\n"
        A = parse_matrix_market(text)
        assert A.to_dense().tolist() == [[4.0, 3.0], [3.0, 0.0]]

    def test_pattern_field(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n2 3 2\n1 3\n2 1\n"
        A = parse_matrix_market(text)
        assert A.to_dense().tolist() == [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]

    def test_integer_field_widened(self):
        text = "%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 7\n"
        A = parse_matrix_market(text)
        assert A.val.dtype == np.float64
        assert A.val.tolist() == [7.0]

    def test_comments_and_blanks_skipped(self):
        text = ("%%MatrixMarket matrix coordinate real general\n"
                "% produced by hand\n\n2 2 1\n% entry follows\n1 2 -1.5\n")
        A = parse_matrix_market(text)
        assert A.to_dense().tolist() == [[0.0, -1.5], [0.0, 0.0]]

    def test_duplicates_summed(self):
        text = "%%MatrixMarket matrix coordinate real general\n1 1 2\n1 1 1.0\n1 1 2.5\n"
        assert parse_matrix_market(text).val.tolist() == [3.5]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.mtx"
        path.write_text("")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: empty file$"):
            read_matrix_market(path)
        with pytest.raises(ValueError, match="^<string>: empty file$"):
            parse_matrix_market("")

    def test_unsupported_header_quoted(self):
        bad = "%%MatrixMarket matrix coordinate complex general\n1 1 0\n"
        with pytest.raises(ValueError, match="unsupported header.*complex"):
            parse_matrix_market(bad)
        with pytest.raises(ValueError, match="unsupported header"):
            parse_matrix_market("%%MatrixMarket matrix array real general\n1 1\n")
        with pytest.raises(ValueError, match="unsupported header"):
            parse_matrix_market("%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 0\n")

    def test_malformed_line_numbered(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1 nope 2.0\n"
        with pytest.raises(ValueError, match=":4:"):
            parse_matrix_market(text)

    def test_wrong_width_line_numbered(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n\n1 2\n"
        with pytest.raises(ValueError, match=r":5: expected 3 fields, got '1 2'"):
            parse_matrix_market(text)

    def test_index_past_int64_line_numbered(self):
        text = ("%%MatrixMarket matrix coordinate real general\n2 2 1\n"
                "99999999999999999999 1 1.0\n")
        with pytest.raises(ValueError, match=r"<string>:3: malformed entry"):
            parse_matrix_market(text)

    def test_cli_reports_index_past_int64(self, tmp_path):
        path = tmp_path / "big.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n"
                        "99999999999999999999 1 1.0\n")
        with pytest.raises(SystemExit, match=r"big.mtx:3: malformed entry"):
            cli_main(["partition", "--matrix", str(path), "--method", "strict"])

    def test_entry_outside_matrix_rejected(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
        with pytest.raises(ValueError, match="outside a 2x2 matrix"):
            parse_matrix_market(text)

    def test_no_entries(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n3 2 0\n% none\n"
        A = parse_matrix_market(text)
        assert (A.m, A.n, A.nnz) == (3, 2, 0)

    @pytest.mark.parametrize("header, size, entry, message", [
        # a mirrored (1, 0) entry would read silently into a 2x3 matrix
        ("real symmetric", "2 3 1", "1 2 1.0", "symmetric matrix must be square, size line declares 2x3"),
        # the mirror (2, 0) of an entry past row 2 is not in the file
        ("real symmetric", "2 3 1", "1 3 1.0", "symmetric matrix must be square, size line declares 2x3"),
        ("pattern symmetric", "3 2 1", "1 1", "symmetric matrix must be square, size line declares 3x2"),
        ("real general", "-1 3 0", "", "negative count in size line '-1 3 0'"),
        ("real general", "2 -3 0", "", "negative count in size line '2 -3 0'"),
        ("real general", "2 2 -1", "", "negative count in size line '2 2 -1'"),
    ])
    def test_bad_size_line_named_at_its_line(self, tmp_path, header, size, entry, message):
        text = f"%%MatrixMarket matrix coordinate {header}\n% comment\n{size}\n{entry}\n"
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        for read, name in ((lambda: parse_matrix_market(text), "<string>"),
                           (lambda: read_matrix_market(path), str(path))):
            with pytest.raises(ValueError, match=f"^{re.escape(f'{name}:3: {message}')}$"):
                read()

    def test_wrong_entry_count(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
        with pytest.raises(ValueError, match="declares 2"):
            parse_matrix_market(text)


class TestRoundTrip:
    def test_random_matrices(self, tmp_path):
        rng = np.random.default_rng(0)
        for t in range(50):
            A = random_csr(int(rng.integers(1, 12)), int(rng.integers(1, 12)),
                           float(rng.uniform(0, 0.8)), rng)
            path = tmp_path / f"m{t}.mtx"
            write_matrix_market(path, A)
            assert read_matrix_market(path) == A

    def test_preserves_awkward_values(self, tmp_path):
        A = build_csr(2, 2, [(0, 0, 1 / 3), (1, 1, -2.2250738585072014e-308)])
        path = tmp_path / "awkward.mtx"
        write_matrix_market(path, A)
        assert read_matrix_market(path) == A

    @pytest.mark.parametrize("comment", ["one\ntwo", "one\r\ntwo", "one\rtwo", "ends\n", "\n",
                                         "2 3 2\n1 1 1.0", "feed\fand\vtab"])
    def test_comment_lines_round_trip(self, tmp_path, comment):
        # every line of the comment is a % line ending in \n, so no comment
        # line can be read as the size line or an entry
        A = build_csr(2, 3, [(0, 1, 1.5), (1, 2, -2.0)])
        path = tmp_path / "comment.mtx"
        write_matrix_market(path, A, comment=comment)
        data = path.read_bytes()
        lines = data.split(b"\n")
        assert b"\r" not in data and lines[0].startswith(b"%%MatrixMarket")
        size = lines.index(b"2 3 2", 1)
        assert size > 1 and all(line.startswith(b"%") for line in lines[1:size])
        assert read_matrix_market(path) == A
        assert parse_matrix_market(data.decode("ascii")) == A

    @pytest.mark.parametrize("comment", ["na\u00efve", "line\u2028break", "snow \u2603"])
    def test_non_ascii_comment_leaves_the_file(self, tmp_path, comment):
        path = tmp_path / "kept.mtx"
        path.write_bytes(b"existing bytes\n")
        with pytest.raises(ValueError, match="comment must be ASCII"):
            write_matrix_market(path, build_csr(1, 1, [(0, 0, 1.0)]), comment=comment)
        assert path.read_bytes() == b"existing bytes\n"


@st.composite
def csr_matrices(draw, max_dim=8):
    """A small CSR matrix, possibly 0 x n or m x 0, with empty rows."""
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    cells = sorted(draw(st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)))) \
        if m and n else [])
    values = draw(st.lists(st.floats(allow_nan=False, width=64),
                           min_size=len(cells), max_size=len(cells)))
    return build_csr(m, n, [(i, j, v) for (i, j), v in zip(cells, values)])


# a line the parser must skip wherever it appears; form feeds and vertical
# tabs separate fields, they do not end lines
_SKIPPED = st.sampled_from(["", "   ", "%", "% comment 1 2 3", "  % indented comment",
                            "% feed\f1 1 1", "\v"])
# what may follow an entry on its line
_TAILS = st.sampled_from(["", " % note", "\f", " %\f2 2 2"])


@st.composite
def matrix_market_texts(draw):
    """A coordinate file and the (m, n, triples) it encodes, built apart
    from the parser: each entry in file order, followed by its mirror in a
    symmetric file, duplicates kept for ``build_csr`` to sum."""
    field = draw(st.sampled_from(["real", "integer", "pattern"]))
    symmetry = draw(st.sampled_from(["general", "symmetric"]))
    m = draw(st.integers(1, 7))
    n = m if symmetry == "symmetric" else draw(st.integers(1, 7))
    if field == "real":
        value = st.floats(allow_nan=False, allow_infinity=False, width=64)
    else:
        value = st.integers(-1000, 1000)
    entries = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1), value),
                            max_size=25))
    lines = [f"%%MatrixMarket matrix coordinate {field} {symmetry}"]
    lines += draw(st.lists(_SKIPPED, max_size=2))
    lines.append(f"{m} {n} {len(entries)}")
    triples = []
    for i, j, v in entries:
        lines += draw(st.lists(_SKIPPED, max_size=2))
        line = f"{i + 1} {j + 1}" if field == "pattern" else f"{i + 1} {j + 1} {v!r}"
        lines.append(line + draw(_TAILS))
        v = 1.0 if field == "pattern" else float(v)
        triples.append((i, j, v))
        if symmetry == "symmetric" and i != j:
            triples.append((j, i, v))
    lines += draw(st.lists(_SKIPPED, max_size=2))
    return "\n".join(lines) + "\n", m, n, triples


class TestProperties:
    @PROPERTY
    @given(csr_matrices())
    def test_round_trip(self, A):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "a.mtx"
            write_matrix_market(path, A)
            assert read_matrix_market(path) == A

    @PROPERTY
    @given(matrix_market_texts())
    def test_parse_matches_triples(self, case):
        text, m, n, triples = case
        assert parse_matrix_market(text) == build_csr(m, n, triples)

    @PROPERTY
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_record_array_matches_triples(self, m, n, data):
        triples = data.draw(st.lists(
            st.tuples(st.integers(0, m - 1), st.integers(0, n - 1),
                      st.floats(allow_nan=False, allow_infinity=False, width=64)),
            max_size=30))
        records = np.array(triples, dtype=ENTRY_DTYPE)
        A = build_csr(m, n, triples)
        assert build_csr(m, n, records) == A
        assert build_csr(m, n, [list(t) for t in triples]) == A
        assert build_csr(m, n, (t for t in triples)) == A


_DEFECTS = [None, "width", "token", "int64", "non-ascii", "count"]


@st.composite
def matrix_market_files(draw):
    """The bytes of a file from ``matrix_market_texts``, its defect (None
    if well formed) and its number of entries, with lines ending in LF,
    CRLF or CR."""
    text = draw(matrix_market_texts())[0]
    lines = text.split("\n")[:-1]
    # the size line, then the entry lines: those left with a field once
    # comments are cut (the header is a comment)
    size, *at = [k for k, line in enumerate(lines) if line.split("%", 1)[0].split()]
    defect = draw(st.sampled_from(_DEFECTS))
    if defect == "count":
        m, n, count = lines[size].split()
        lines[size] = f"{m} {n} {int(count) + draw(st.sampled_from([-1, 1]))}"
    elif defect == "non-ascii":
        lines[draw(st.integers(0, len(lines) - 1))] += "\u00e9"
    elif defect and at:
        k = at[draw(st.integers(0, len(at) - 1))]
        tokens = lines[k].split()
        if defect == "width":
            tokens.pop(draw(st.integers(0, 1)))
        else:
            tokens[draw(st.integers(0, 1))] = "1x" if defect == "token" else "9" * 20
        lines[k] = " ".join(tokens)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from([newline, ""]))
    return text.encode("utf-8"), defect, len(at)


def _read_as_text(path):
    """The line walk alone: the whole file read as text, then parsed."""
    with open(path, "r", encoding="ascii") as fh:
        return parse_matrix_market(fh.read(), name=str(path))


def _outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:  # UnicodeDecodeError included
        return type(exc), str(exc)


class TestReadPaths:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(matrix_market_files())
    def test_chunked_read_matches_line_walk(self, case):
        """Same matrix or same exception type and message as the line
        walk; a well-formed file with entries never falls back to it."""
        raw, defect, count = case
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return parse_matrix_market(*args, **kwargs)

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "a.mtx"
            path.write_bytes(raw)
            with mock.patch.object(mmio, "parse_matrix_market", counted):
                got = _outcome(read_matrix_market, path)
            assert got == _outcome(_read_as_text, path)
        if defect is None:
            assert isinstance(got, CsrMatrix)
            assert not calls or count == 0


# what a mutation may put in place of a token: header words, numbers up to a
# declared size whose row pointers (8 * (m + 1) bytes) stay under 1 MB, and
# tokens no field accepts
_TOKENS = st.one_of(
    st.integers(-2, 100_000).map(str),
    st.floats(width=64).map(repr),
    st.sampled_from(["%%MatrixMarket", "%", "matrix", "coordinate", "array", "real",
                     "integer", "pattern", "complex", "general", "symmetric",
                     "skew-symmetric", "nan", "-inf", "1e400", "0x1", "1_0", "+1", "1.",
                     "9" * 20, "é", "\r", "\f", "\x00"]))


@st.composite
def mutated_texts(draw):
    """A file from ``matrix_market_texts`` whose header, size line and
    entry lines take one to three random edits: a token replaced, dropped
    or added, or a line dropped or repeated."""
    lines = draw(matrix_market_texts())[0].split("\n")[:-1]
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        tokens = lines[k].split(" ")
        edit = draw(st.sampled_from(["replace", "drop", "add", "drop line", "repeat line"]))
        if edit == "drop line":
            del lines[k]
            continue
        if edit == "repeat line":
            lines.insert(k, lines[k])
            continue
        at = draw(st.integers(0, len(tokens) - (edit != "add")))
        if edit == "drop":
            del tokens[at]
        else:
            tokens[at:at + (edit == "replace")] = [draw(_TOKENS)]
        lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


class TestMutatedFiles:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(mutated_texts())
    def test_every_outcome_is_a_matrix_or_a_value_error(self, text):
        # _outcome lets any exception but a ValueError through, failing the
        # test; both read paths give the same matrix or the same ValueError
        _outcome(parse_matrix_market, text)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "a.mtx"
            path.write_bytes(text.encode("utf-8"))
            assert _outcome(read_matrix_market, path) == _outcome(_read_as_text, path)
