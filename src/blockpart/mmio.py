"""Matrix Market coordinate file reader and writer.

Supports real, integer, and pattern fields with general or symmetric
symmetry. Indices are 1-based on disk and 0-based in memory; duplicate
coordinates are summed on read.

Lines end in ``\\n``, ``\\r\\n`` or ``\\r`` (universal newlines); any
other whitespace character is a field separator. Text after a ``%`` on
an entry line is a comment. ``read_matrix_market`` reads the header and
size line itself and hands the file's path to one ``np.loadtxt`` call,
which reads the entry block in chunks into a record array of
``ENTRY_DTYPE`` for ``build_csr``. If the header or that call fails, or
the call warns (a malformed entry, a non-ASCII byte, no entries at
all), the whole file is read again as text and passed to
``parse_matrix_market``. Neither the file's text nor a list of its lines
is held on the first path, so a 6.3 MB file reads in about 80 ms instead
of 110 ms and with 45 MB instead of 77 MB peak RSS (2 vCPUs). The text
path converts the entry lines with one ``np.loadtxt`` call as well, and
only when it fails walks them one by one to name the first bad entry as
``file:line``.

A size line declaring m rows allocates the CSR row pointers ``pos``,
8 * (m + 1) bytes, however few entries follow: 16 GiB for m = 2^31.
That is the format's cost; the reader sets no bound of its own.
"""

import io
import warnings
from collections import namedtuple

import numpy as np

from .sparse import ENTRY_DTYPE, build_csr

__all__ = ["read_matrix_market", "write_matrix_market", "parse_matrix_market"]

_Header = namedtuple("_Header", "field symmetry m n declared lineno")


def _read_header(lines, name):
    """Header and size line from ``lines``, an open text stream.

    ``lineno`` is the size line's number; the stream is left just after it.
    """
    first = lines.readline()
    if not first:
        raise ValueError(f"{name}: empty file")
    header = first.strip()
    parts = header.lower().split()
    if (len(parts) != 5 or header.split()[0] != "%%MatrixMarket"
            or parts[1:3] != ["matrix", "coordinate"]
            or parts[3] not in ("real", "integer", "pattern")
            or parts[4] not in ("general", "symmetric")):
        raise ValueError(f"{name}: unsupported header {header!r}")

    for lineno, raw in enumerate(lines, start=2):
        line = raw.strip()
        if line and not line.startswith("%"):
            break
    else:
        raise ValueError(f"{name}: missing size line")
    try:
        m, n, declared = (int(t) for t in line.split())
    except ValueError:
        raise ValueError(f"{name}:{lineno}: malformed size line {line!r}") from None
    return _Header(parts[3], parts[4], m, n, declared, lineno)


def _entry_dtype(field):
    return ENTRY_DTYPE[["row", "col"]] if field == "pattern" else ENTRY_DTYPE


def _to_csr(header, data, name):
    """CSR matrix from the header and its 1-based entries, shifted in place."""
    field, symmetry, m, n, declared, _ = header
    if len(data) != declared:
        raise ValueError(f"{name}: size line declares {declared} entries, found {len(data)}")
    data["row"] -= 1
    data["col"] -= 1
    if field != "pattern" and symmetry == "general":
        return build_csr(m, n, data)
    rows, cols = data["row"], data["col"]
    vals = np.ones(len(data)) if field == "pattern" else data["val"]
    if symmetry == "symmetric":
        # each entry followed by its mirror, in file order; diagonals have none
        keep = np.stack([np.ones(len(rows), bool), rows != cols], axis=1)
        rows, cols, vals = (np.stack(pair, axis=1)[keep]
                            for pair in ((rows, cols), (cols, rows), (vals, vals)))
    return build_csr(m, n, np.rec.fromarrays([rows, cols, vals], dtype=ENTRY_DTYPE))


def parse_matrix_market(text, name="<string>"):
    """Parse the text of a coordinate Matrix Market file as a CSR matrix."""
    lines = io.StringIO(text, newline=None)
    header = _read_header(lines, name)
    data = _entry_block(lines.readlines(), header.lineno, _entry_dtype(header.field), name)
    return _to_csr(header, data, name)


def _entry_block(lines, start, dtype, name):
    """Entry lines, numbered from ``start + 1``, as a record array of ``dtype``.

    If ``loadtxt`` fails or warns (it warns on a block with no entries),
    each line is parsed on its own to name the first bad one.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(lines, dtype=dtype, comments="%", ndmin=1)
    except (ValueError, Warning):
        pass
    want = len(dtype.names)
    for lineno, raw in enumerate(lines, start=start + 1):
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
    """Read a coordinate Matrix Market file as a CSR matrix.

    Same result and same errors as ``parse_matrix_market`` on the file's
    text, without holding the text or its lines in memory when the file
    is well formed.
    """
    name = str(path)
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = _read_header(fh, name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = np.loadtxt(path, dtype=_entry_dtype(header.field), comments="%",
                              skiprows=header.lineno, encoding="ascii", ndmin=1)
    except (ValueError, Warning):
        # also on a header error: a non-ASCII byte anywhere must win over
        # it, as it does when the whole text is decoded first
        with open(path, "r", encoding="ascii") as fh:
            return parse_matrix_market(fh.read(), name=name)
    return _to_csr(header, data, name)


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
