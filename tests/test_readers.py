"""The text readers under mutation: ``cost_model_from_csv``,
``samples_from_csv`` and ``reports_from_jsonl`` take what their writers
wrote, edited one to three times, and must return a value or raise
``ValueError``, never another exception. A value they return must write
back and read back to itself."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from blockpart.bench import BenchReport, reports_from_jsonl, reports_to_jsonl
from blockpart.calibrate import VARIANTS, TimingSample, samples_from_csv, samples_to_csv
from blockpart.costs import CostModel, cost_model_from_csv, cost_model_to_csv

MUTATED = settings(derandomize=True, deadline=None, max_examples=150)

# what an edit may put in place of a comma-separated token: numbers,
# non-finite and oversized ones, the writers' own labels, field names and
# JSON punctuation, and bytes no field accepts
_TOKENS = st.one_of(
    st.integers(-2**70, 2**70).map(str),
    st.floats(width=64).map(repr),
    st.sampled_from(["", " ", "nan", "inf", "-inf", "NaN", "Infinity", "1e400", "9" * 5000,
                     "0x1", "1_0", "+1", "1.", "alpha_row", "alpha_col", "beta_row r=1",
                     "beta_col r=2", "beta_row r=0", "u", "w", "seconds", "variant", *VARIANTS,
                     '"K": 3', '"critical_point": 1e400', '"multiply_seconds": -Infinity',
                     '"critical_point_inf": true', '"nope": 1', "null", "true", "{", "}",
                     "[", "]", '"', "\\", "é", "\r", "\x00", "\ufeff"]))


@st.composite
def mutated(draw, text):
    """``text`` with one to three edits: a comma-separated token of a line
    replaced, dropped or added, or a line dropped or repeated."""
    lines = text.split("\n")[:-1]
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["replace", "drop", "add", "drop line", "repeat line"]))
        if edit == "drop line":
            del lines[k]
            continue
        if edit == "repeat line":
            lines.insert(k, lines[k])
            continue
        tokens = lines[k].split(",")
        at = draw(st.integers(0, len(tokens) - (edit != "add")))
        if edit == "drop":
            del tokens[at]
        else:
            tokens[at:at + (edit == "replace")] = [draw(_TOKENS)]
        lines[k] = ",".join(tokens)
    return "\n".join(lines) + "\n"


_ENTRY = st.one_of(st.integers(-10**20, 10**20), st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def models(draw):
    u_max, w_max, rank = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 2))

    def table(size):
        return tuple(draw(st.lists(_ENTRY, min_size=size, max_size=size)))

    return CostModel(alpha_row=table(u_max), alpha_col=table(w_max),
                     beta_row=tuple(table(u_max) for _ in range(rank)),
                     beta_col=tuple(table(w_max) for _ in range(rank)))


@st.composite
def _sample(draw):
    """A sample on the measurement design: m_rows a multiple of u, or of 2u
    for double-rows, and an even blocks_per_row for double-blocks."""
    u, variant = draw(st.integers(1, 4)), draw(st.sampled_from(VARIANTS))
    rows = u * (2 if variant == "double-rows" else 1)
    blocks = 2 if variant == "double-blocks" else 1
    return TimingSample(u, draw(st.integers(1, 4)), rows * draw(st.integers(1, 10**6 // rows)),
                        blocks * draw(st.integers(1, 64 // blocks)),
                        draw(st.floats(1e-9, 10.0)), variant)


_SAMPLES = st.lists(_sample(), max_size=4)

_REPORTS = st.lists(st.builds(
    BenchReport, matrix_id=st.text(max_size=6), format=st.sampled_from(["csr", "1dvbr", "vbr"]),
    partitioner=st.sampled_from(["strict", "overlap(0.9)", "optimal(mem1d)"]),
    params=st.fixed_dictionaries({"u_max": st.integers(1, 8)}),
    K=st.none() | st.integers(0, 10**6), memory_bits=st.none() | st.integers(0, 10**9),
    multiply_seconds=st.none() | st.floats(0.0, 1.0),
    critical_point=st.none() | st.just(math.inf) | st.floats(0.0, 1e6),
    error=st.none() | st.text(max_size=6)), max_size=3)


def _value_or_value_error(read, write, text):
    try:
        value = read(text)
    except ValueError:
        return
    assert read(write(value)) == value


class TestMutatedText:
    @MUTATED
    @given(models().flatmap(lambda model: mutated(cost_model_to_csv(model))))
    def test_cost_model_csv(self, text):
        _value_or_value_error(cost_model_from_csv, cost_model_to_csv, text)

    @MUTATED
    @given(_SAMPLES.flatmap(lambda samples: mutated(samples_to_csv(samples))))
    def test_samples_csv(self, text):
        _value_or_value_error(samples_from_csv, samples_to_csv, text)

    @MUTATED
    @given(_REPORTS.flatmap(lambda reports: mutated(reports_to_jsonl(reports))))
    def test_reports_jsonl(self, text):
        _value_or_value_error(reports_from_jsonl, reports_to_jsonl, text)


class TestReaderRegressions:
    HEADER = "u,w,m_rows,blocks_per_row,variant,seconds\n"

    def test_samples_header_without_a_field(self):
        # was KeyError: 'u'
        with pytest.raises(ValueError, match="line 1: the header lacks u"):
            samples_from_csv("0,w,m_rows,blocks_per_row,variant,seconds\n1,1,1,1,base,1.0\n")

    @pytest.mark.parametrize("row", ["1,1,1,1,base", "1,1,1,1,base,1.0,7"])
    def test_samples_row_of_the_wrong_width(self, row):
        # a short row was TypeError from int(None); a long one was read
        with pytest.raises(ValueError, match="line 2: expected 6 fields"):
            samples_from_csv(self.HEADER + row + "\n")

    @pytest.mark.parametrize("seconds", ["nan", "inf", "1e400", "0", "-1"])
    def test_samples_time_must_be_positive_and_finite(self, seconds):
        with pytest.raises(ValueError, match="positive and finite"):
            samples_from_csv(self.HEADER + f"1,1,1,1,base,{seconds}\n")

    @pytest.mark.parametrize("row, field", [
        ("0,1,4,8,base,1e-05", "u"),  # fit_cost_model raised ZeroDivisionError
        ("1,0,4,8,base,1e-05", "w"),
        ("1,1,0,8,base,1e-05", "m_rows"),  # was fitted as a grid of no rows
        ("1,1,4,-1,base,1e-05", "blocks_per_row"),
    ])
    def test_samples_counts_must_be_positive(self, row, field):
        u, w, m_rows, blocks_per_row, variant, seconds = row.split(",")
        with pytest.raises(ValueError, match=rf"^{field} must be at least 1, got "):
            TimingSample(int(u), int(w), int(m_rows), int(blocks_per_row), float(seconds), variant)
        with pytest.raises(ValueError, match=rf"line 2: {field} must be at least 1, got "):
            samples_from_csv(self.HEADER + row + "\n")

    @pytest.mark.parametrize("row, message", [
        ("4,1,3,8,base,1e-05", "m_rows 3 of a base sample is not a multiple of 4"),  # fitted as 0 rows
        ("2,1,6,8,double-rows,1e-05",  # fitted as a grid of 4 rows
         "m_rows 6 of a double-rows sample is not a multiple of 4"),
        ("2,1,5,8,double-cols,1e-05", "m_rows 5 of a double-cols sample is not a multiple of 2"),
        ("1,1,4,3,double-blocks,1e-05", "blocks_per_row 3 of a double-blocks sample is odd"),
    ])
    def test_samples_must_match_the_design(self, row, message):
        # fit_cost_model rebuilds each sample's grid from these fields, so a
        # sample off the design is refused before any fit can take it
        u, w, m_rows, blocks_per_row, variant, seconds = row.split(",")
        with pytest.raises(ValueError, match=rf"^{message}$"):
            TimingSample(int(u), int(w), int(m_rows), int(blocks_per_row), float(seconds), variant)
        with pytest.raises(ValueError, match=rf"line 2: {message}$"):
            samples_from_csv(self.HEADER + row + "\n")

    def test_report_number_past_the_float_range(self):
        # json reads 1e400 as inf, which to_json then cannot write
        line = '{"matrix_id": "a", "format": "vbr", "partitioner": "strict", "params": {}, '
        with pytest.raises(ValueError, match="line 1: 1e400 is past the float range"):
            reports_from_jsonl(line + '"multiply_seconds": 1e400}\n')

    REPORT = '{"matrix_id": "a", "format": "vbr", "partitioner": "strict", "params": {}'

    @pytest.mark.parametrize("fields, message", [
        # each of these was read, and profile then ranked the wrong value
        ('"critical_point": 12.0, "critical_point_inf": "no"',
         "'critical_point_inf' must be true or false, got \"no\""),
        ('"memory_bits": true', "'memory_bits' must be a number or null, got true"),
        ('"memory_bits": "1e3"', "'memory_bits' must be a number or null, got \"1e3\""),
        ('"K": [3]', "'K' must be a number or null, got \\[3\\]"),
        ('"error": 5', "'error' must be a string or null, got 5"),
        ('"matrix_id": null', "'matrix_id' must be a string, got null"),
        ('"params": []', "'params' must be an object, got \\[\\]"),
        ('"critical_point": 12.0, "critical_point_inf": true',
         "critical_point_inf is true, so critical_point must be null"),
    ])
    def test_report_fields_of_the_wrong_type(self, fields, message):
        with pytest.raises(ValueError, match=f"^report line 1: (field )?{message}$"):
            reports_from_jsonl(self.REPORT + ", " + fields + "}\n")

    def test_every_written_report_reads_back(self):
        reports = [BenchReport("a", "csr", "none", {}, K=4, L=4, memory_bits=64,
                               multiply_seconds=1e-3, critical_point=math.inf),
                   BenchReport("a", "vbr", "overlap(nan)", {"rho": "nan"}, error="bad rho"),
                   BenchReport("a", "1dvbr", "strict", {}, K=2, partition_seconds=0.0,
                               critical_point=12.5, model_objective=7)]
        assert reports_from_jsonl(reports_to_jsonl(reports)) == reports
