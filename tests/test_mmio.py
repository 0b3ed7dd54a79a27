import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blockpart import build_csr, read_matrix_market, write_matrix_market
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


# a line the parser must skip wherever it appears
_SKIPPED = st.sampled_from(["", "   ", "%", "% comment 1 2 3", "  % indented comment"])


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
        lines.append(f"{i + 1} {j + 1}" if field == "pattern" else f"{i + 1} {j + 1} {v!r}")
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
