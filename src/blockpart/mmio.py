"""Matrix Market coordinate file reader and writer.

Supports real, integer, and pattern fields with general or symmetric
symmetry. Indices are 1-based on disk and 0-based in memory; duplicate
coordinates are summed on read.

The entry block is converted by one ``np.loadtxt`` call into a record
array of ``ENTRY_DTYPE`` for ``build_csr``; only when that call fails is
it walked line by line, to name the first bad entry as ``file:line``.
Text after a ``%`` on an entry line is a comment.
"""

import warnings

import numpy as np

from .sparse import ENTRY_DTYPE, build_csr

__all__ = ["read_matrix_market", "write_matrix_market", "parse_matrix_market"]


def parse_matrix_market(text, name="<string>"):
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{name}: empty file")
    header = lines[0].strip()
    parts = header.lower().split()
    if (len(parts) != 5 or header.split()[0] != "%%MatrixMarket"
            or parts[1:3] != ["matrix", "coordinate"]
            or parts[3] not in ("real", "integer", "pattern")
            or parts[4] not in ("general", "symmetric")):
        raise ValueError(f"{name}: unsupported header {header!r}")
    field, symmetry = parts[3:]

    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if line and not line.startswith("%"):
            break
    else:
        raise ValueError(f"{name}: missing size line")
    try:
        m, n, declared = (int(t) for t in line.split())
    except ValueError:
        raise ValueError(f"{name}:{lineno}: malformed size line {line!r}") from None

    names = ["row", "col"] if field == "pattern" else ["row", "col", "val"]
    data = _entry_block(lines, lineno, ENTRY_DTYPE[names], name)
    if len(data) != declared:
        raise ValueError(f"{name}: size line declares {declared} entries, found {len(data)}")
    rows, cols = data["row"] - 1, data["col"] - 1
    vals = np.ones(len(data)) if field == "pattern" else data["val"]
    if symmetry == "symmetric":
        # each entry followed by its mirror, in file order; diagonals have none
        keep = np.stack([np.ones(len(rows), bool), rows != cols], axis=1)
        rows, cols, vals = (np.stack(pair, axis=1)[keep]
                            for pair in ((rows, cols), (cols, rows), (vals, vals)))
    return build_csr(m, n, np.rec.fromarrays([rows, cols, vals], dtype=ENTRY_DTYPE))


def _entry_block(lines, start, dtype, name):
    """Entry lines after ``lines[:start]`` as a record array of ``dtype``.

    If ``loadtxt`` fails or warns (it warns on a block with no entries),
    each line is parsed on its own to name the first bad one.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(lines[start:], dtype=dtype, comments="%", ndmin=1)
    except (ValueError, Warning):
        pass
    want = len(dtype.names)
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        tokens = raw.split("%", 1)[0].split()
        if not tokens:
            continue
        if len(tokens) != want:
            raise ValueError(f"{name}:{lineno}: expected {want} fields, got {raw.strip()!r}")
        try:
            np.loadtxt([raw], dtype=dtype, comments="%")
        except ValueError:
            raise ValueError(f"{name}:{lineno}: malformed entry {raw.strip()!r}") from None
    return np.zeros(0, dtype)  # every line was blank or a comment


def read_matrix_market(path):
    """Read a coordinate Matrix Market file as a CSR matrix."""
    with open(path, "r", encoding="ascii") as fh:
        return parse_matrix_market(fh.read(), name=str(path))


def write_matrix_market(path, A, comment=None):
    """Write ``A`` as a general real coordinate Matrix Market file.

    Values are rendered with shortest round-trip precision, so a
    read-back reproduces the matrix exactly.
    """
    rows = (A.entry_rows() + 1).tolist()
    cols = (A.idx + 1).tolist()
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        if comment:
            fh.write(f"% {comment}\n")
        fh.write(f"{A.m} {A.n} {A.nnz}\n")
        fh.write("".join([f"{i} {j} {v!r}\n" for i, j, v in zip(rows, cols, A.val.tolist())]))
