import csv
import io
import json
import math
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from laplaceratio.algebra import Poly, Series
from laplaceratio.auction import AuctionModel, Exponential, Lognormal, PointMass, Shifted
from laplaceratio.errors import FormatError, OutOfRange
from laplaceratio.fileformats import (
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

    def test_rationals_of_any_length_round_trip(self):
        # 5000 digits each way, past the default int <-> str limit of 4300
        text = "-" + "9" * 5000 + "/1" + "0" * 4999
        value = parse_rational(text, "x")
        assert value == F(1 - 10 ** 5000, 10 ** 4999)
        assert format_rational(value) == text
        assert format_rational(F(10 ** 5000)) == "1" + "0" * 5000


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
    def test_bytes_match_the_csv_writer_and_load_is_bit_exact(self, tmp_path, rows):
        table = np.array(rows, dtype=float)
        path = tmp_path / "samples.csv"
        save_samples(path, table)
        assert path.read_bytes() == reference_sample_bytes(table)
        loaded = load_samples(path)
        assert loaded.shape == table.shape
        assert np.array_equal(loaded.view(np.uint64), table.view(np.uint64))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_save_refuses_non_finite_and_writes_nothing(self, tmp_path, bad):
        path = tmp_path / "samples.csv"
        with pytest.raises(OutOfRange):
            save_samples(path, np.array([[1.0, 0.5], [bad, 0.5]]))
        assert not path.exists()

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


def reference_sample_bytes(table) -> bytes:
    """The sample CSV as csv.writer writes it, one repr cell at a time."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["top", "second"])
    for top, second in np.asarray(table, dtype=float):
        writer.writerow([repr(float(top)), repr(float(second))])
    return buf.getvalue().encode("utf-8")
