"""Trace file formats: canonical round trip, error paths, Haggle adapter."""

import io

import pytest

from repro.mobility.contact import ContactTrace
from repro.mobility.trace_file import (
    TraceFormatError,
    read_contact_trace,
    read_haggle_trace,
    write_contact_trace,
    write_haggle_trace,
)


def trace_from_string(text):
    """Parse a canonical-format string."""
    return read_contact_trace(io.StringIO(text))


#: A header with three nodes, for the record-level error cases.
HEADER = "# repro contact trace v1\nnodes 3\n"


@pytest.fixture
def trace():
    return ContactTrace.from_tuples(
        [(3568.0, 3882.0, 3, 9), (10.5, 20.25, 0, 1)],
        12,
        horizon=524_162.0,
        name="unit",
    )


class TestCanonicalRoundTrip:
    def test_file_round_trip(self, trace, tmp_path):
        path = tmp_path / "t.trace"
        write_contact_trace(trace, path)
        back = read_contact_trace(path)
        assert back.num_nodes == 12
        assert back.horizon == 524_162.0
        assert back.name == "unit"
        assert [(c.start, c.end, c.a, c.b) for c in back] == [
            (c.start, c.end, c.a, c.b) for c in trace
        ]

    def test_string_round_trip(self, trace):
        buf = io.StringIO()
        write_contact_trace(trace, buf)
        back = trace_from_string(buf.getvalue())
        assert len(back) == 2
        assert back[0].start == 10.5  # floats preserved exactly via repr

    def test_stream_io(self, trace):
        buf = io.StringIO()
        write_contact_trace(trace, buf)
        buf.seek(0)
        assert len(read_contact_trace(buf)) == 2


class TestCanonicalErrors:
    def test_missing_magic(self):
        with pytest.raises(TraceFormatError, match="magic"):
            trace_from_string("nodes 3\n0 1 0.0 1.0\n")

    def test_missing_nodes_directive(self):
        with pytest.raises(TraceFormatError, match="nodes"):
            trace_from_string("# repro contact trace v1\n0 1 0.0 1.0\n")

    def test_bad_node_count(self):
        with pytest.raises(TraceFormatError, match="line 2"):
            trace_from_string("# repro contact trace v1\nnodes three\n")

    def test_bad_horizon(self):
        for value in ["x", "nan", "inf", "-inf"]:
            with pytest.raises(TraceFormatError, match="horizon"):
                trace_from_string(f"{HEADER}horizon {value}\n")
            with pytest.raises(TraceFormatError, match="horizon"):
                trace_from_string(f"{HEADER}horizon {value}\n0 1 0.0 1.0\n")

    @pytest.mark.parametrize("directive", ["nodes 3", "horizon 100"])
    def test_repeated_directive(self, directive):
        with pytest.raises(TraceFormatError, match=f"line 4: repeated {directive.split()[0]}"):
            trace_from_string(f"# repro contact trace v1\nnodes 3\nhorizon 50\n{directive}\n")

    def test_wrong_field_count(self):
        with pytest.raises(TraceFormatError, match="4 fields|expected"):
            trace_from_string("# repro contact trace v1\nnodes 3\n0 1 0.0\n")

    def test_unparsable_record(self):
        with pytest.raises(TraceFormatError, match="unparsable"):
            trace_from_string("# repro contact trace v1\nnodes 3\n0 1 zero 1.0\n")

    def test_invalid_contact_window(self):
        for record in ["0 1 5.0 5.0", "0 1 0.0 inf", "0 1 nan 5.0", "0 1 inf inf", "0 1 0.0 nan"]:
            with pytest.raises(TraceFormatError, match="line 3: contact requires"):
                trace_from_string(f"{HEADER}{record}\n")

    def test_node_out_of_range(self):
        with pytest.raises(TraceFormatError):
            trace_from_string("# repro contact trace v1\nnodes 2\n0 5 0.0 1.0\n")

    def test_comments_and_blank_lines_ignored(self):
        text = (
            "# repro contact trace v1\n"
            "# name: demo\n"
            "nodes 3\n"
            "\n"
            "# a comment\n"
            "0 1 0.0 1.0\n"
        )
        t = trace_from_string(text)
        assert t.name == "demo"
        assert len(t) == 1


class TestErrorsNameTheirLine:
    """Errors `ContactTrace` used to raise without a line name the line at fault."""

    @pytest.mark.parametrize("record", ["0 5 0.0 1.0", "-1 1 0.0 1.0"])
    def test_node_outside_the_population_names_its_record(self, record):
        with pytest.raises(TraceFormatError, match=r"line 4: contact .* outside \[0, 2\)"):
            trace_from_string(f"# repro contact trace v1\nnodes 2\n0 1 0.0 1.0\n{record}\n")

    def test_record_before_the_nodes_directive_names_its_record(self):
        with pytest.raises(TraceFormatError, match=r"line 2: contact .* outside \[0, 2\)"):
            trace_from_string("# repro contact trace v1\n0 5 0.0 1.0\nnodes 2\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_horizon_names_the_directive(self, value):
        with pytest.raises(TraceFormatError, match="line 3: horizon must be finite"):
            trace_from_string(f"{HEADER}horizon {value}\n0 1 0.0 1.0\n")

    def test_horizon_before_the_last_end_names_the_directive(self):
        with pytest.raises(
            TraceFormatError, match="line 3: horizon 5.0 precedes the end 10.0 .* line 5"
        ):
            trace_from_string(f"{HEADER}horizon 5\n0 1 0.0 2.0\n1 2 1.0 10.0\n0 2 3.0 4.0\n")

    @pytest.mark.parametrize("count", ["1", "0", "-3"])
    def test_population_below_two_names_the_directive(self, count):
        with pytest.raises(TraceFormatError, match="line 2: need at least 2 nodes"):
            trace_from_string(f"# repro contact trace v1\nnodes {count}\n0 1 0.0 1.0\n")


class TestHaggleAdapter:
    def test_parses_one_based_ids(self):
        src = io.StringIO("1 2 100.0 250.0\n3 12 400 900 7 extra cols\n")
        t = read_haggle_trace(src)
        assert t.num_nodes == 12
        assert t[0].pair == (0, 1)
        assert t[1].pair == (2, 11)

    def test_zero_based_option(self):
        t = read_haggle_trace(io.StringIO("0 1 0 10\n"), one_based_ids=False)
        assert t[0].pair == (0, 1)

    def test_drops_zero_length_sightings(self):
        t = read_haggle_trace(io.StringIO("1 2 5 5\n1 2 10 20\n"))
        assert len(t) == 1

    def test_num_nodes_override_validated(self):
        with pytest.raises(TraceFormatError, match="num_nodes"):
            read_haggle_trace(io.StringIO("1 5 0 10\n"), num_nodes=3)

    def test_requires_four_columns(self):
        with pytest.raises(TraceFormatError, match="4 columns"):
            read_haggle_trace(io.StringIO("1 2 100\n"))

    def test_rejects_garbage(self):
        with pytest.raises(TraceFormatError, match="unparsable"):
            read_haggle_trace(io.StringIO("a b c d\n"))

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceFormatError, match="no usable"):
            read_haggle_trace(io.StringIO("# only comments\n"))

    def test_negative_ids_rejected(self):
        with pytest.raises(TraceFormatError, match="negative"):
            read_haggle_trace(io.StringIO("0 2 0 10\n"))  # 1-based: 0 -> -1

    @pytest.mark.parametrize(
        ("record", "match"),
        [
            ("1 2 nan 5", "line 2: contact requires finite"),
            ("1 2 0 inf", "line 2: contact requires finite"),
            ("1 1 0 5", "line 2: self-contact for node 0"),
        ],
    )
    def test_invalid_record_names_its_line(self, record, match):
        with pytest.raises(TraceFormatError, match=match):
            read_haggle_trace(io.StringIO(f"1 2 0 10\n{record}\n"))

    def test_comment_styles_skipped(self):
        src = io.StringIO("# hash\n% percent\n// slashes\n1 2 0 10\n")
        assert len(read_haggle_trace(src)) == 1

    def test_write_haggle_round_trip(self, trace, tmp_path):
        path = tmp_path / "h.dat"
        write_haggle_trace(trace, path)
        back = read_haggle_trace(path, num_nodes=12)
        assert [(c.start, c.end, c.a, c.b) for c in back] == [
            (c.start, c.end, c.a, c.b) for c in trace
        ]
