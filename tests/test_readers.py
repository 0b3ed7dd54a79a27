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


_SAMPLES = st.lists(st.builds(
    TimingSample, u=st.integers(1, 4), w=st.integers(1, 4), m_rows=st.integers(1, 10**6),
    blocks_per_row=st.integers(1, 64), seconds=st.floats(1e-9, 10.0),
    variant=st.sampled_from(VARIANTS)), max_size=4)

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

    def test_report_number_past_the_float_range(self):
        # json reads 1e400 as inf, which to_json then cannot write
        line = '{"matrix_id": "a", "format": "vbr", "partitioner": "strict", "params": {}, '
        with pytest.raises(ValueError, match="line 1: 1e400 is past the float range"):
            reports_from_jsonl(line + '"multiply_seconds": 1e400}\n')
