import csv
import io
import json
import math
import os
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from laplaceratio.algebra import Poly, Series
from laplaceratio.auction import AuctionModel, Exponential, Lognormal, PointMass, Shifted
from laplaceratio.errors import DomainError, FormatError, OutOfRange
from laplaceratio.fileformats import (
    _not_utf8,
    dist_from_document,
    function_from_document,
    function_to_document,
    format_rational,
    identify_result_to_document,
    load_json,
    load_samples,
    model_from_document,
    parse_rational,
    ratio_expansion_from_document,
    ratio_expansion_to_document,
    save_samples,
)
from laplaceratio.identify import IdentifyResult
from laplaceratio.transforms import PiecewisePoly, RatioExpansion, sin_maclaurin, step_example


class TestParseRational:
    def test_accepts_integers_and_fractions(self):
        assert parse_rational("3", "x") == 3
        assert parse_rational("-7/2", "x") == F(-7, 2)
        assert parse_rational(5, "x") == 5

    @pytest.mark.parametrize("bad", ["1.5", "a", "1/ 2", "", "1//2", 2.5, None, True])
    def test_rejects_malformed(self, bad):
        with pytest.raises(FormatError) as err:
            parse_rational(bad, "coeffs[3]")
        assert "coeffs[3]" in str(err.value)

    def test_rejects_zero_denominator(self):
        with pytest.raises(FormatError) as err:
            parse_rational("1/0", "coeffs[0]")
        assert "denominator" in str(err.value)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("1.5", "malformed rational '1.5' (use an integer or 'p/q')"),
            ("7" * 700 + ".5", f"malformed rational '{'7' * 700}.5' (use an integer or 'p/q')"),
            (" 2/0 ", "zero denominator in ' 2/0 '"),
            (True, "expected a rational, got a boolean"),
            (2.5, "expected a rational string or integer, got float"),
            (None, "expected a rational string or integer, got NoneType"),
        ],
    )
    def test_a_refusal_names_its_entry_alone_or_in_a_list(self, bad, message):
        # documents take integers and 'p/q' only, not the decimal text
        # as_rational reads
        with pytest.raises(FormatError) as err:
            parse_rational(bad, "doc.tail[2]")
        assert str(err.value) == f"doc.tail[2]: {message}"
        with pytest.raises(FormatError) as err:
            ratio_expansion_from_document({"lead": 0, "tail": ["1", 2, bad, "1.5"]}, "doc")
        assert str(err.value) == f"doc.tail[2]: {message}"

    def test_rationals_of_any_length_round_trip(self):
        # 5000 digits each way, past the default int <-> str limit of 4300
        text = "-" + "9" * 5000 + "/1" + "0" * 4999
        value = parse_rational(text, "x")
        assert value == F(1 - 10 ** 5000, 10 ** 4999)
        assert format_rational(value) == text
        assert format_rational(F(10 ** 5000)) == "1" + "0" * 5000


def load_from_pipe(path, load, data: bytes):
    """load(path) in a thread, on a new named pipe that one writer fills
    with data and closes, as (what it raised, whether it had to be
    unblocked).  A reader that opened the pipe a second time would wait
    for a writer for ever, so an empty late write ends a stuck one."""
    os.mkfifo(path)
    raised = []

    def run():
        try:
            load(path)
        except Exception as exc:
            raised.append(exc)

    loader = threading.Thread(target=run)
    loader.start()
    with open(path, "wb") as fh:
        fh.write(data)
    loader.join(timeout=10)
    stuck = loader.is_alive()
    if stuck:
        with open(path, "wb"):
            pass
        loader.join()
    return raised, stuck


class TestLoadJson:
    def test_integers_of_any_length(self, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text('{"lead": -' + "9" * 5000 + ', "tail": [1' + "0" * 5000 + "]}")
        doc = load_json(path)
        assert doc == {"lead": 1 - 10 ** 5000, "tail": [10 ** 5000]}
        assert parse_rational(doc["tail"][0], "tail[0]") == 10 ** 5000

    def test_undecodable_file_is_positioned(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(FormatError) as err:
            load_json(path)
        assert str(err.value) == f"{path}:1: not UTF-8 text: invalid start byte"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_undecodable_pipe_is_read_once_and_positioned(self, tmp_path):
        # the line was placed by opening the path again, which waited on a
        # pipe whose writer had closed
        path = tmp_path / "bad.fifo"
        raised, stuck = load_from_pipe(path, load_json, b'{"kind": "poly",\n "coeffs": ["1\xff"]}')
        assert not stuck
        assert [type(e) for e in raised] == [FormatError]
        assert str(raised[0]) == f"{path}:2: not UTF-8 text: invalid start byte"


class TestFunctionDocuments:
    def test_poly_roundtrip(self):
        p = Poly([1, F(1, 2), 0, -3])
        doc = function_to_document(p)
        assert doc == {"kind": "poly", "coeffs": ["1", "1/2", "0", "-3"]}
        assert function_from_document(doc) == p

    def test_piecewise_roundtrip(self):
        pp = PiecewisePoly([0, F(1, 2), 1], [Poly([1]), Poly([0, 1]), Poly([2])])
        doc = function_to_document(pp)
        assert function_from_document(doc) == pp

    def test_builtin_sin(self):
        doc = {"kind": "builtin", "name": "sin", "order": 7}
        assert function_from_document(doc) == sin_maclaurin(7)

    def test_builtin_step(self):
        doc = {"kind": "builtin", "name": "step_example", "n_max": 4}
        assert function_from_document(doc) == step_example(4)

    def test_malformed_rational_is_positioned(self):
        doc = {"kind": "poly", "coeffs": ["1", "x"]}
        with pytest.raises(FormatError) as err:
            function_from_document(doc)
        assert "coeffs[1]" in str(err.value)

    def test_nonincreasing_breakpoints_positioned(self):
        doc = {
            "kind": "piecewise",
            "breakpoints": ["0", "1", "1"],
            "pieces": [["1"], ["2"]],
            "tail": ["0"],
        }
        with pytest.raises(FormatError) as err:
            function_from_document(doc)
        assert "breakpoints[2]" in str(err.value)

    def test_breakpoints_must_start_at_zero(self):
        doc = {"kind": "piecewise", "breakpoints": ["1"], "pieces": [], "tail": ["1"]}
        with pytest.raises(FormatError) as err:
            function_from_document(doc)
        assert "breakpoints[0]" in str(err.value)

    def test_piece_count_checked(self):
        doc = {"kind": "piecewise", "breakpoints": ["0", "1"], "pieces": [], "tail": ["1"]}
        with pytest.raises(FormatError) as err:
            function_from_document(doc)
        assert "pieces" in str(err.value)

    # every condition PiecewisePoly checks is refused before construction,
    # under the caller's position prefix
    @pytest.mark.parametrize(
        "breakpoints, pieces, message",
        [
            ([], [], "doc.f.breakpoints[0]: must be 0"),
            (["1/2", "1"], [["1"]], "doc.f.breakpoints[0]: must be 0"),
            (["0", "2", "1"], [["1"], ["2"]], "doc.f.breakpoints[2]: must be strictly increasing"),
            (["0", "1"], [], "doc.f.pieces: expected 1 pieces for 2 breakpoints, got 0"),
            (["0"], [["1"]], "doc.f.pieces: expected 0 pieces for 1 breakpoints, got 1"),
        ],
    )
    def test_piecewise_guard_messages(self, breakpoints, pieces, message):
        doc = {"kind": "piecewise", "breakpoints": breakpoints, "pieces": pieces, "tail": ["1"]}
        with pytest.raises(FormatError) as err:
            function_from_document(doc, "doc.f")
        assert str(err.value) == message

    def test_unknown_kind(self):
        with pytest.raises(FormatError):
            function_from_document({"kind": "spline"})

    def test_missing_key(self):
        with pytest.raises(FormatError) as err:
            function_from_document({"kind": "poly"})
        assert "coeffs" in str(err.value)


class TestExpansionDocuments:
    def test_roundtrip(self):
        H = RatioExpansion(-2, Series([6, 0, F(3, 5)], 2))
        doc = ratio_expansion_to_document(H)
        assert doc == {"lead": -2, "tail": ["6", "0", "3/5"]}
        assert ratio_expansion_from_document(doc) == H

    def test_zero_leading_tail_rejected(self):
        with pytest.raises(FormatError) as err:
            ratio_expansion_from_document({"lead": 0, "tail": ["0", "1"]})
        assert "tail[0]" in str(err.value)

    def test_empty_tail_rejected(self):
        with pytest.raises(FormatError):
            ratio_expansion_from_document({"lead": 0, "tail": []})

    def test_identify_result_document(self):
        result = IdentifyResult(Poly([0, 1]), False, 2, 1)
        assert identify_result_to_document(result) == {
            "coeffs": ["0", "1"],
            "ambiguous_sign": False,
            "k": 1,
        }


class TestModelDocuments:
    def test_full_model(self):
        doc = {
            "common": {"kind": "exponential", "theta": 1.0},
            "idiosyncratic": {
                "kind": "shifted",
                "base": {"kind": "lognormal", "mu": 0.0, "sigma": 1.0},
                "offset": 2.0,
            },
            "N": 5,
        }
        model = model_from_document(doc)
        assert model == AuctionModel(
            Exponential(1.0), Shifted(Lognormal(0.0, 1.0), 2.0), 5
        )

    def test_point_mass(self):
        assert dist_from_document({"kind": "point_mass", "v": 0}, "d") == PointMass(0.0)

    def test_bad_parameter_positioned(self):
        with pytest.raises(FormatError) as err:
            model_from_document(
                {
                    "common": {"kind": "point_mass", "v": 0},
                    "idiosyncratic": {"kind": "exponential", "theta": -1},
                    "N": 2,
                }
            )
        assert "idiosyncratic" in str(err.value)

    @pytest.mark.parametrize("text", ["NaN", "Infinity"])
    def test_non_finite_parameter_rejected(self, text):
        doc = json.loads('{"kind": "point_mass", "v": %s}' % text)
        with pytest.raises(FormatError, match="finite"):
            dist_from_document(doc, "d")

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "doc, key",
        [
            ('{"kind": "exponential", "theta": %s}', "theta"),
            ('{"kind": "lognormal", "mu": %s, "sigma": 1}', "mu"),
            ('{"kind": "lognormal", "mu": 0, "sigma": %s}', "sigma"),
            ('{"kind": "point_mass", "v": %s}', "v"),
            ('{"kind": "shifted", "base": {"kind": "point_mass", "v": 0}, "offset": %s}', "offset"),
        ],
        ids=["theta", "mu", "sigma", "v", "offset"],
    )
    def test_non_finite_numbers_are_refused_before_a_law_is_built(self, doc, key, text):
        # the parser's own message, not a law's check wrapped, so what the
        # laws refuse never reaches them from a document
        with pytest.raises(FormatError, match=rf"^d\.{key}: expected a finite number$"):
            dist_from_document(json.loads(doc % text), "d")

    def test_n_validated(self):
        with pytest.raises(FormatError) as err:
            model_from_document(
                {
                    "common": {"kind": "point_mass", "v": 0},
                    "idiosyncratic": {"kind": "exponential", "theta": 1},
                    "N": 1,
                }
            )
        assert ".N" in str(err.value)


class TestSampleCsv:
    def test_roundtrip_is_exact(self, tmp_path):
        table = np.array([[1.25, 0.5], [0.1234567890123456789, 1e-300]])
        path = tmp_path / "samples.csv"
        save_samples(path, table)
        assert load_samples(path).tolist() == table.tolist()
        assert (path.read_text().splitlines()[0]) == "top,second"

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(FormatError):
            load_samples(path)

    def test_bad_row_positioned(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("top,second\n1.0,xyz\n")
        with pytest.raises(FormatError) as err:
            load_samples(path)
        assert ":2" in str(err.value)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=50,
        )
    )
    @example([(-0.0, 5e-324)])
    @example([(sys.float_info.max, -sys.float_info.max), (2.2250738585072009e-308, -0.0)])
    def test_bytes_match_the_csv_writer_and_load_is_bit_exact(self, tmp_path, monkeypatch, rows):
        readers = spy_on_csv_reader(monkeypatch)
        table = np.array(rows, dtype=float)
        path = tmp_path / "samples.csv"
        save_samples(path, table)
        assert path.read_bytes() == reference_sample_bytes(table)
        loaded = load_samples(path)
        assert not readers  # numpy's reader took the file
        assert loaded.shape == table.shape
        assert np.array_equal(loaded.view(np.uint64), table.view(np.uint64))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_save_refuses_non_finite_and_writes_nothing(self, tmp_path, bad):
        path = tmp_path / "samples.csv"
        with pytest.raises(OutOfRange):
            save_samples(path, np.array([[1.0, 0.5], [bad, 0.5]]))
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(3,), (3, 3), (2, 2, 1), (4, 1)])
    def test_save_refuses_other_shapes_and_writes_nothing(self, tmp_path, shape):
        path = tmp_path / "samples.csv"
        with pytest.raises(DomainError, match=r"\(rows, 2\)"):
            save_samples(path, np.ones(shape))
        assert not path.exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_named_pipe_is_read_once(self, tmp_path):
        # a second open of the pipe would wait for a writer for ever, so the
        # load runs in a thread, and an empty late write ends a stuck one
        path = tmp_path / "samples.fifo"
        os.mkfifo(path)
        loaded = []
        loader = threading.Thread(target=lambda: loaded.append(load_samples(path).tolist()))
        loader.start()
        with open(path, "w") as fh:
            fh.write("top,second\n2.0,1.0\n")
        loader.join(timeout=10)
        if loader.is_alive():
            with open(path, "w"):
                pass
            loader.join()
        assert loaded == [[[2.0, 1.0]]]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_undecodable_pipe_is_read_once_and_positioned(self, tmp_path):
        path = tmp_path / "bad.fifo"
        raised, stuck = load_from_pipe(path, load_samples, b"top,second\n2.0,1.0\n3.0,\xff\n")
        assert not stuck
        assert [type(e) for e in raised] == [FormatError]
        assert str(raised[0]) == f"{path}:3: not UTF-8 text: invalid start byte"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_positioned(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"top,second\n2.0,1.0\n3.0,{cell}\n")
        with pytest.raises(FormatError) as err:
            load_samples(path)
        assert f"{path}:3:" in str(err.value)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("top,second\n\n2.0,1.0\n\n3.0,2.5\n\n")
        assert load_samples(path).tolist() == [[2.0, 1.0], [3.0, 2.5]]

    def test_wrong_column_count_positioned(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("top,second\n2.0,1.0\n3.0,2.0,1.0\n")
        with pytest.raises(FormatError) as err:
            load_samples(path)
        assert str(err.value) == f"{path}:3: expected two columns"

    def test_position_is_the_line_after_a_multiline_cell(self, tmp_path):
        # the quoted cell spans lines 2-3, so the bad cell sits on line 4
        path = tmp_path / "quoted.csv"
        path.write_text('top,second\n"1.0\n",2\n1,x\n')
        with pytest.raises(FormatError) as err:
            load_samples(path)
        assert str(err.value).startswith(f"{path}:4: ")

    def test_position_counts_blank_lines(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("top,second\n\n\n2.0,x\n")
        with pytest.raises(FormatError) as err:
            load_samples(path)
        assert str(err.value).startswith(f"{path}:4: ")

    def test_header_with_spaces_accepted(self, tmp_path):
        path = tmp_path / "spaced.csv"
        path.write_text("top, second\n2.0,1.0\n")
        assert load_samples(path).tolist() == [[2.0, 1.0]]

    def test_header_only_has_no_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("top,second\r\n")
        with pytest.raises(FormatError) as err:
            load_samples(path)
        assert str(err.value) == f"{path}: no sample rows"

    def test_empty_file_fails_on_the_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(FormatError) as err:
            load_samples(path)
        assert str(err.value) == f"{path}:1: expected header 'top,second'"

    def test_undecodable_byte_positioned(self, tmp_path):
        # past the first chunk the text reader decodes, so the line is the
        # byte's own and not that of the chunk's start
        path = tmp_path / "bad.csv"
        path.write_bytes(b"top,second\n" + b"1.0,2.0\n" * 3000 + b"1.0,\xff2\n")
        with pytest.raises(FormatError) as err:
            load_samples(path)
        assert str(err.value) == f"{path}:3002: not UTF-8 text: invalid start byte"

    def test_oversized_cell_positioned(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("top,second\n1.0,2.0\n3.0," + "4" * 200000 + "\n")
        with pytest.raises(FormatError) as err:
            load_samples(path)
        assert str(err.value).startswith(f"{path}:3: field larger than field limit")


# the cells and lines the differential test draws from: what save_samples
# writes, padding float() strips, quoting only csv reads, and cells that one
# parser or both refuse or read as non-finite
PAD = st.sampled_from(["", " ", "\t", "\x0c", "\x85", "\xa0"])
LINE_END = st.sampled_from(["\r\n", "\n", "\r"])
written = st.floats(allow_nan=False, allow_infinity=False).map(repr)
clean_cell = st.one_of(written, st.tuples(PAD, written, PAD).map("".join))
odd_cell = st.sampled_from(
    ["nan", "-inf", "inf", "1e400", "-1e400", "1e-400", "1_0", "1\x00", "\x00", "", " ",
     "x", "+.5", "5.", "0x10", "١", "Infinity", "-0"]
)
quoted = st.one_of(
    written.map(lambda v: f'"{v}"'),
    st.tuples(written, LINE_END).map(lambda p: f'"{p[0]}{p[1]}"'),
    st.just('"1"".5"'),
)
blank_line = st.sampled_from(["", " ", "\t", "\xa0"])
good_header = st.sampled_from(["top,second", "top, second", " top ,second\t", "top\x85,\xa0second"])
any_header = st.one_of(
    good_header,
    st.sampled_from(["top,Second", "a,b", "top", "top,second,", '"top",second', "", "\ufefftop,second"]),
)


@st.composite
def sample_files(draw):
    """(field limit, file bytes): a header and lines with mixed line ends.
    Half the files hold well-formed rows and blank lines only; the rest
    draw any header, 1 to 3 cells a row, odd and quoted cells, and lines
    of blanks.  Now and then a row is padded to the limit, to it less one,
    or past it."""
    limit = draw(st.sampled_from([None, 24, 40, 64]))
    if draw(st.booleans()):
        header, cell = good_header, clean_cell
        row = st.tuples(cell, cell).map(",".join)
        line = st.one_of(row, row, row, st.just(""))
    else:
        header, cell = any_header, st.one_of(clean_cell, clean_cell, odd_cell, quoted)
        line = st.one_of(
            st.tuples(cell, cell).map(",".join),
            st.lists(cell, min_size=1, max_size=3).map(",".join),
            blank_line,
        )
    lines = [draw(header)] + draw(st.lists(line, max_size=8))
    if limit is not None and draw(st.booleans()):
        first = draw(written)
        width = limit - len(first) - 1 + draw(st.integers(-1, 1))
        if width >= 3:
            lines.insert(draw(st.integers(1, len(lines))), first + ",0." + "0" * (width - 2))
    ends = [draw(LINE_END) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return limit, "".join(line + end for line, end in zip(lines, ends)).encode("utf-8")


def field_limit_cell_files():
    """Files whose one long cell is csv.field_size_limit() characters long,
    or one past it, at the module's default limit."""
    limit = csv.field_size_limit()
    cells = ["4" * limit, "4" * (limit + 1), "0." + "0" * (limit - 2), "0." + "0" * limit]
    return [(None, f"top,second\n1.0,{c}\n".encode()) for c in cells] + [
        (None, f"top,second\r\n{c},2\r\n3,4\r\n".encode()) for c in cells
    ]


class TestSampleReaders:
    """load_samples picks numpy's reader or the csv loop from the input;
    either way it gives the csv loop's answer."""

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sample_files())
    @example((None, b"top,second\r\n"))
    @example((None, b"top,second\r\n\r\n\n\r"))
    @example((None, b"top,second\n1,2\n\xff"))
    @example((None, b'top,second\r\n"1.5",2\r\n'))
    @example((None, b"top,second\n1,2\n \n"))
    @example((None, b"top,second\n\x001,2\n"))
    @example((None, b"top,second\n1_0,2\n"))
    @example((None, b"top,second\n1\xc2\x85,\xc2\xa02\n"))
    @example((40, b"top,second\n1," + b"2" * 38 + b"\n"))
    @example((40, b"top,second\n1," + b"2" * 39 + b"\n"))
    @example((40, b"top,second\n1," + b"0." + b"0" * 40 + b"\n"))
    @pytest.mark.filterwarnings("error")
    def test_same_array_or_same_message_as_the_csv_loop(self, tmp_path, case):
        limit, data = case
        path = tmp_path / "samples.csv"
        path.write_bytes(data)
        assert outcome(load_samples, path, limit) == outcome(reference_load_samples, path, limit)

    @pytest.mark.parametrize("case", field_limit_cell_files())
    @pytest.mark.filterwarnings("error")
    def test_cells_at_the_field_limit(self, tmp_path, case):
        limit, data = case
        path = tmp_path / "wide.csv"
        path.write_bytes(data)
        assert outcome(load_samples, path, limit) == outcome(reference_load_samples, path, limit)

    def test_quoted_file_goes_to_the_csv_loop(self, tmp_path, monkeypatch):
        readers = spy_on_csv_reader(monkeypatch)
        loadtxt_calls = []
        real_loadtxt = np.loadtxt
        monkeypatch.setattr(
            np, "loadtxt", lambda *a, **k: loadtxt_calls.append(a) or real_loadtxt(*a, **k)
        )
        path = tmp_path / "samples.csv"
        save_samples(path, np.array([[2.0, 1.0], [3.5, 0.25]]))
        assert load_samples(path).tolist() == [[2.0, 1.0], [3.5, 0.25]]
        assert (len(readers), len(loadtxt_calls)) == (0, 1)
        # the quote is seen in the scan, before numpy parses anything
        path.write_text('top,second\r\n"2.0",1.0\r\n')
        assert load_samples(path).tolist() == [[2.0, 1.0]]
        assert (len(readers), len(loadtxt_calls)) == (1, 1)

    @pytest.mark.parametrize("body", ["", "\r\n", "\n\n\r"])
    def test_header_only_warns_nothing(self, tmp_path, body):
        # np.loadtxt warns "input contained no data" on an empty body
        path = tmp_path / "empty.csv"
        path.write_text("top,second\r\n" + body, newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError) as err:
                load_samples(path)
        assert str(err.value) == f"{path}: no sample rows"

    def test_memory_stays_within_twice_the_table(self, tmp_path):
        # the whole table as Python floats, or the whole file as one
        # string, would each take several times the table's bytes
        table = np.random.default_rng(5).lognormal(size=(100_000, 2))
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            save_samples(path, table)
            saved = tracemalloc.get_traced_memory()[1]
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loaded = load_samples(path)
            load = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == reference_sample_bytes(table)  # 13 blocks, the last partial
        assert np.array_equal(loaded, table)
        assert saved < 2 * table.nbytes, saved / table.nbytes
        assert load < 2 * table.nbytes, load / table.nbytes


def spy_on_csv_reader(monkeypatch) -> list:
    """Record each csv.reader that is built from now on."""
    made = []
    real = csv.reader

    def reader(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(csv, "reader", reader)
    return made


def outcome(load, path, limit):
    """load(path) under the csv field limit limit (None: the default), as
    ("rows", the table's bit patterns) or ("error", its message)."""
    old = csv.field_size_limit()
    if limit is not None:
        csv.field_size_limit(limit)
    try:
        table = load(path)
    except FormatError as exc:
        return "error", str(exc)
    finally:
        csv.field_size_limit(old)
    return "rows", table.shape, table.view(np.uint64).tolist()


def reference_load_samples(path) -> np.ndarray:
    """load_samples as one csv loop over every file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["top", "second"]:
                raise FormatError(f"{path}:1: expected header 'top,second'")
            values = []
            for row in reader:
                if not row:
                    continue
                lineno = reader.line_num
                if len(row) != 2:
                    raise FormatError(f"{path}:{lineno}: expected two columns")
                try:
                    top, second = float(row[0]), float(row[1])
                except ValueError as exc:
                    raise FormatError(f"{path}:{lineno}: {exc}") from exc
                if not (math.isfinite(top) and math.isfinite(second)):
                    raise FormatError(f"{path}:{lineno}: bids must be finite, got {row!r}")
                values.append(top)
                values.append(second)
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        with open(path, "rb") as raw:
            raise _not_utf8(path, raw.read()) from exc
    except csv.Error as exc:
        raise FormatError(f"{path}:{reader.line_num}: {exc}") from exc
    if not values:
        raise FormatError(f"{path}: no sample rows")
    return np.array(values).reshape(-1, 2)


def reference_sample_bytes(table) -> bytes:
    """The sample CSV as csv.writer writes it, one repr cell at a time."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["top", "second"])
    for top, second in np.asarray(table, dtype=float):
        writer.writerow([repr(float(top)), repr(float(second))])
    return buf.getvalue().encode("utf-8")
