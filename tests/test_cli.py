import argparse
import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from math import factorial

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laplaceratio import algebra
from laplaceratio.algebra import Poly
from laplaceratio.cli import _lambda_grid, main
from laplaceratio.fileformats import format_rational, ratio_expansion_from_document
from laplaceratio.transforms import ratio_expansion, sin_closed_form


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def poly_file(tmp_path):
    def write(name, coeffs):
        path = tmp_path / name
        path.write_text(json.dumps({"kind": "poly", "coeffs": coeffs}))
        return str(path)

    return write


@pytest.fixture
def model_file(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


class TestRatioCommand:
    def test_builtin_sin_matches_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "ratio", "--builtin", "sin", "--n", "2", "--m", "1", "--order", "8"
        )
        assert code == 0
        got = ratio_expansion_from_document(json.loads(out))
        assert got == sin_closed_form().expansion(8)

    def test_poly_input(self, capsys, poly_file):
        path = poly_file("f.json", ["1", "1"])
        code, out, _ = run_cli(
            capsys, "ratio", "--input", path, "--n", "2", "--m", "1", "--order", "3"
        )
        assert code == 0
        assert json.loads(out) == {"lead": 0, "tail": ["1", "1", "1", "-1"]}

    def test_piecewise_grid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "ratio",
            "--builtin",
            "step_example",
            "--n",
            "2",
            "--m",
            "1",
            "--lambda",
            "1.0",
            "--lambda",
            "2.0",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,h"
        assert len(lines) == 3

    def test_poly_lambda_is_correctly_rounded(self, capsys, poly_file):
        # f = 1 - x, (2, 1): H = (lam^2 - 2 lam + 2) / (lam (lam - 1)), whose
        # near-pole value the float transforms miss by about 2e-9 relative
        path = poly_file("f.json", ["1", "-1"])
        lam = 1.00000001
        code, out, _ = run_cli(
            capsys, "ratio", "--input", path, "--n", "2", "--m", "1", "--lambda", repr(lam)
        )
        x = F(lam)
        exact = (x * x - 2 * x + 2) / (x * (x - 1))
        assert code == 0
        assert out.splitlines()[1] == f"{lam!r},{float(exact)!r}"

    def test_missing_order_is_usage_error(self, capsys, poly_file):
        path = poly_file("f.json", ["1", "1"])
        code, _, err = run_cli(capsys, "ratio", "--input", path, "--n", "2", "--m", "1")
        assert code == 2
        assert "order" in err

    def test_zero_function_is_computation_error(self, capsys, poly_file):
        path = poly_file("zero.json", ["0"])
        code, _, err = run_cli(
            capsys, "ratio", "--input", path, "--n", "2", "--m", "1", "--order", "3"
        )
        assert code == 1
        assert "ZeroFunction" in err

    @pytest.mark.parametrize("order", ["-1", "-2"])
    def test_negative_builtin_sin_order_is_parse_error(self, capsys, order):
        # order -1 must not become Maclaurin degree 0, the zero polynomial:
        # a negative order is refused as in a builtin document
        code, out, err = run_cli(
            capsys, "ratio", "--builtin", "sin", "--order", order, "--n", "2", "--m", "1"
        )
        assert (code, out, err) == (2, "", "FormatError: function.order: must be nonnegative\n")


class TestIdentifyCommand:
    def test_roundtrip_through_files(self, capsys, tmp_path, poly_file):
        src = poly_file("f.json", ["1", "1"])
        expansion_path = tmp_path / "H.json"
        code, _, _ = run_cli(
            capsys,
            "ratio",
            "--input",
            src,
            "--n",
            "2",
            "--m",
            "1",
            "--order",
            "8",
            "--output",
            str(expansion_path),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys,
            "identify",
            "--input",
            str(expansion_path),
            "--n",
            "2",
            "--m",
            "1",
            "--target-degree",
            "3",
        )
        assert code == 0
        assert json.loads(out) == {"coeffs": ["1", "1"], "ambiguous_sign": False, "k": 0}

    def test_sin_pipeline_recovers_maclaurin(self, capsys, tmp_path):
        expansion_path = tmp_path / "sin.json"
        run_cli(
            capsys,
            "ratio",
            "--builtin",
            "sin",
            "--n",
            "2",
            "--m",
            "1",
            "--order",
            "8",
            "--output",
            str(expansion_path),
        )
        code, out, _ = run_cli(
            capsys,
            "identify",
            "--input",
            str(expansion_path),
            "--n",
            "2",
            "--m",
            "1",
            "--target-degree",
            "5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["coeffs"] == ["0", "1", "0", "-1/6", "0", "1/120"]
        assert doc["k"] == 1

    def test_file_roundtrip_equals_in_process(self, capsys, tmp_path, poly_file):
        f = Poly([2, 0, F(1, 3), 1])
        src = poly_file("f.json", ["2", "0", "1/3", "1"])
        expansion_path = tmp_path / "H.json"
        run_cli(
            capsys,
            "ratio",
            "--input",
            src,
            "--n",
            "3",
            "--m",
            "2",
            "--order",
            "9",
            "--output",
            str(expansion_path),
        )
        in_process = ratio_expansion(f, 3, 2, 9)
        from_file = ratio_expansion_from_document(json.loads(expansion_path.read_text()))
        assert from_file == in_process

    def test_wide_rationals_round_trip(self, capsys, tmp_path, poly_file):
        # 61 coefficients p/q with 60-bit p and q: tail entries run past
        # 10000 characters, beyond the default int <-> str limit of 4300
        rng = random.Random(60)
        coeffs = [
            format_rational(F(rng.getrandbits(60) - 2 ** 59, rng.getrandbits(60) | 1))
            for _ in range(61)
        ]
        src = poly_file("wide.json", coeffs)
        expansion_path = str(tmp_path / "H.json")
        spec = ("--n", "2", "--m", "1")
        code, _, err = run_cli(
            capsys, "ratio", "--input", src, *spec, "--order", "60", "--output", expansion_path
        )
        assert (code, err) == (0, "")
        with open(expansion_path) as fh:
            assert max(map(len, json.load(fh)["tail"])) > 10000
        code, out, err = run_cli(
            capsys, "identify", "--input", expansion_path, *spec, "--target-degree", "60"
        )
        assert (code, err) == (0, "")
        assert json.loads(out) == {"coeffs": coeffs, "ambiguous_sign": False, "k": 0}

    def test_bad_expansion_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"lead": 0, "tail": ["0", "1"]}))
        code, _, err = run_cli(
            capsys,
            "identify",
            "--input",
            str(path),
            "--n",
            "2",
            "--m",
            "1",
            "--target-degree",
            "1",
        )
        assert code == 2
        assert "tail[0]" in err

    def test_insufficient_order_is_computation_error(self, capsys, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"lead": 0, "tail": ["1", "1"]}))
        code, _, err = run_cli(
            capsys,
            "identify",
            "--input",
            str(path),
            "--n",
            "2",
            "--m",
            "1",
            "--target-degree",
            "5",
        )
        assert code == 1
        assert "InsufficientOrder" in err


class TestTransformCommand:
    def test_poly_series(self, capsys, poly_file):
        path = poly_file("f.json", ["1", "2", "2"])
        code, out, _ = run_cli(capsys, "transform", "--input", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["coeffs"] == ["0", "1", "2", "4"]

    @pytest.mark.parametrize(
        "source, order, coeffs",
        [
            (["0"], None, ["0"]),  # the zero polynomial
            (["0"], "3", ["0", "0", "0", "0"]),
            (["1", "-3/2", "2"], "1", ["0", "1"]),  # truncated
            (["1", "-3/2", "2"], "5", ["0", "1", "-3/2", "4", "0", "0"]),  # zero-padded
            ("sin", "3", ["0", "0", "1", "0"]),
        ],
    )
    def test_series_document_bytes(self, capsys, poly_file, source, order, coeffs):
        if source == "sin":
            argv = ["transform", "--builtin", "sin"]
        else:
            argv = ["transform", "--input", poly_file("f.json", source)]
        if order is not None:
            argv += ["--order", order]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        doc = {"kind": "series", "variable": "1/lambda", "order": len(coeffs) - 1, "coeffs": coeffs}
        assert out == json.dumps(doc, indent=2) + "\n"

    def test_negative_order_is_computation_error(self, capsys, poly_file):
        path = poly_file("f.json", ["1", "-3/2", "2"])
        code, out, err = run_cli(capsys, "transform", "--input", path, "--order", "-1")
        assert (code, out, err) == (1, "", "DomainError: series order must be nonnegative\n")

    def test_poly_values_on_grid(self, capsys, poly_file):
        path = poly_file("f.json", ["1"])
        code, out, _ = run_cli(capsys, "transform", "--input", path, "--lambda", "2.0")
        assert code == 0
        assert out.strip().splitlines()[1] == "2.0,0.5"

    def test_subnormal_lambda_power_is_summed_exactly(self, capsys, poly_file):
        # f = 1e-40 x: L{f}(lam) = 1e-40/lam^2, where lam^2 is subnormal or 0
        c = F(1, 10 ** 40)
        path = poly_file("f.json", ["0", str(c)])
        for lam in (1e-160, 1e-170):
            code, out, _ = run_cli(capsys, "transform", "--input", path, "--lambda", repr(lam))
            assert code == 0
            got = float(out.strip().splitlines()[1].split(",")[1])
            want = c / F(lam) ** 2
            assert abs(F(got) - want) <= F(1, 10 ** 15) * want
        assert out.strip().splitlines()[1] == "1e-170,1e+300"

    def test_huge_lambda_power(self, capsys, poly_file):
        # lam^2 overflows a double; the value 1/lam + 2/lam^2 does not
        path = poly_file("f.json", ["1", "2"])
        code, out, _ = run_cli(capsys, "transform", "--input", path, "--lambda", "1e200")
        assert code == 0
        assert out.strip().splitlines()[1] == "1e+200,1e-200"

    @given(
        st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=9), max_size=9),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=80, deadline=None)
    def test_lambda_value_is_correctly_rounded(self, coeffs, lam):
        # the printed value is the exact transform sum rounded once
        exact = sum(factorial(i) * c / F(lam) ** (i + 1) for i, c in enumerate(coeffs))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.json")
            with open(path, "w") as fh:
                json.dump({"kind": "poly", "coeffs": [str(c) for c in coeffs] or ["0"]}, fh)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["transform", "--input", path, "--lambda", repr(lam)])
        assert code == 0
        assert out.getvalue().splitlines()[1] == f"{lam!r},{float(exact)!r}"

    def test_piecewise_needs_lambda(self, capsys):
        code, _, err = run_cli(capsys, "transform", "--builtin", "step_example")
        assert code == 2
        assert "lambda" in err

    @pytest.mark.parametrize("command", ["transform", "ratio"])
    def test_builtin_step_example_is_checked_as_a_document(self, capsys, command):
        argv = [command, "--builtin", "step_example", "--n-max", "0", "--lambda", "1"]
        if command == "ratio":
            argv += ["--n", "2", "--m", "1"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "FormatError: function.n_max: must be at least 1\n")

    def test_tiny_lambda_is_typed_error(self, capsys, poly_file):
        # a power of lambda underflows to 0 (transform), or inf/inf gives nan (ratio)
        path = poly_file("f.json", ["1", "2"])
        for argv in (
            ["transform", "--input", path, "--lambda", "1e-300"],
            ["ratio", "--builtin", "step_example", "--n", "2", "--m", "1", "--lambda", "1e-320"],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, "")
            assert err.startswith("OutOfRange: ")

    def test_far_breakpoint_overflow_is_typed_error(self, capsys, model_file):
        # (10**186)**2 overflows the float path at lambda = 1e-300
        path = model_file("f.json", {
            "kind": "piecewise", "breakpoints": ["0", str(10 ** 186)],
            "pieces": [["1"]], "tail": ["0", "0", "1"],
        })
        for command in (["transform"], ["ratio", "--n", "2", "--m", "1"]):
            code, out, err = run_cli(capsys, *command, "--input", path, "--lambda", "1e-300")
            assert (code, out) == (1, "")
            assert err.startswith("OutOfRange: ") and "Traceback" not in err

    def test_non_finite_lambda_is_typed_error(self, capsys, poly_file, model_file):
        # a usage error on every command that takes lambdas, as a point or
        # as a grid endpoint
        path = poly_file("f.json", ["1", "2"])
        law = {"kind": "exponential", "theta": 1.0}
        model = model_file("m.json", {"common": law, "idiosyncratic": law, "N": 3})
        commands = (
            ["transform", "--input", path],
            ["ratio", "--input", path, "--n", "2", "--m", "1"],
            ["auction-k", "--model", model],
        )
        lambdas = ["--lambda=nan", "--lambda=inf", "--lambda=-inf"]
        grids = ["--lambda-grid=nan:10:3", "--lambda-grid=1:inf:3", "--lambda-grid=-inf:1:3"]
        for command in commands:
            for flag in lambdas + grids:
                code, out, err = run_cli(capsys, *command, flag)
                assert (code, out) == (2, ""), (command, flag)
                assert err.startswith("FormatError: --lambda")


class TestVerifyCommand:
    def test_equal_pair(self, capsys, poly_file):
        f = poly_file("f.json", ["1", "1"])
        g = poly_file("g.json", ["-1", "-1"])
        code, out, _ = run_cli(
            capsys, "verify", "--input", f, "--input", g, "--n", "3", "--m", "1"
        )
        assert code == 0
        assert json.loads(out)["equal"] is True

    def test_unequal_pair(self, capsys, poly_file):
        f = poly_file("f.json", ["1", "1"])
        g = poly_file("g.json", ["1", "2"])
        code, out, _ = run_cli(
            capsys, "verify", "--input", f, "--input", g, "--n", "2", "--m", "1"
        )
        assert code == 0
        assert json.loads(out)["equal"] is False

    def test_needs_two_inputs(self, capsys, poly_file):
        f = poly_file("f.json", ["1"])
        code, _, err = run_cli(capsys, "verify", "--input", f, "--n", "2", "--m", "1")
        assert code == 2

    @pytest.mark.parametrize(
        "n, m, negate, want",
        [("6", "5", False, False), ("3", "1", True, True)],
        ids=["perturbed", "negated"],
    )
    def test_wide_pairs_build_nothing(self, capsys, monkeypatch, poly_file, n, m, negate, want):
        # eight coefficients of 5000 digits, written as text so that no
        # int <-> str limit is met: g = -f, or f with one digit moved
        rng = random.Random(5000)
        digits = "0123456789"
        coeffs = [rng.choice(digits[1:]) + "".join(rng.choices(digits, k=4999)) for _ in range(8)]
        if negate:
            other = ["-" + c for c in coeffs]
        else:
            other = coeffs[:3] + [coeffs[3][:-1] + digits[int(coeffs[3][-1]) - 1]] + coeffs[4:]
        f, g = poly_file("f.json", coeffs), poly_file("g.json", other)

        def built(*args, **kwargs):
            raise AssertionError("verify built a power or a product")

        # transforms calls the kernels through the algebra module
        for name in ("_power_nums", "_product_nums"):
            monkeypatch.setattr(algebra, name, built)
        code, out, err = run_cli(capsys, "verify", "--input", f, "--input", g, "--n", n, "--m", m)
        assert (code, err) == (0, "")
        assert json.loads(out)["equal"] is want


class TestAuctionCommands:
    def test_auction_k_exponential(self, capsys, model_file):
        path = model_file(
            "m.json",
            {
                "common": {"kind": "point_mass", "v": 0},
                "idiosyncratic": {"kind": "exponential", "theta": 1.0},
                "N": 5,
            },
        )
        code, out, _ = run_cli(capsys, "auction-k", "--model", path, "--lambda", "1.0")
        assert code == 0
        assert out.strip().splitlines()[1] == "1.0,0.5"

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_auction_k_refuses_a_tolerance_that_is_not_positive_for_every_law(
        self, capsys, model_file, tol
    ):
        # the closed form once ignored --tol
        common = {"kind": "point_mass", "v": 0}
        laws = [{"kind": "exponential", "theta": 1.0}, {"kind": "lognormal", "mu": 0.0, "sigma": 1.0}]
        for idio in laws:
            path = model_file("m.json", {"common": common, "idiosyncratic": idio, "N": 5})
            argv = ["auction-k", "--model", path, "--lambda", "1.0", "--tol", tol]
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err) == (1, "", "DomainError: tolerance must be positive\n")

    def test_auction_k_closed_form_meets_any_positive_tolerance(self, capsys, model_file):
        law = {"kind": "exponential", "theta": 1.0}
        path = model_file("m.json", {"common": law, "idiosyncratic": law, "N": 5})
        argv = ["auction-k", "--model", path, "--lambda", "1.0", "--tol", "1e-300"]
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (0, "lambda,k\n1.0,0.5\n")

    def test_auction_k_quadrature_grid(self, capsys, model_file):
        path = model_file(
            "m.json",
            {
                "common": {"kind": "point_mass", "v": 0},
                "idiosyncratic": {"kind": "lognormal", "mu": 0.0, "sigma": 1.0},
                "N": 3,
            },
        )
        code, out, _ = run_cli(
            capsys, "auction-k", "--model", path, "--lambda-grid", "0.5:2:3"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        ks = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(0 < k <= 1 for k in ks)
        assert ks == sorted(ks, reverse=True)  # K decreases in lambda

    def test_auction_sim_deterministic(self, capsys, model_file, tmp_path):
        path = model_file(
            "m.json",
            {
                "common": {"kind": "exponential", "theta": 1.0},
                "idiosyncratic": {"kind": "exponential", "theta": 2.0},
                "N": 3,
            },
        )
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for out in (out1, out2):
            code = main(
                [
                    "auction-sim",
                    "--model",
                    path,
                    "--samples",
                    "500",
                    "--seed",
                    "42",
                    "--output",
                    str(out),
                ]
            )
            assert code == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().splitlines()[0] == "top,second"

    def test_auction_sim_stdout_rows_match_the_file(self, capsys, model_file, tmp_path):
        path = model_file(
            "m.json",
            {
                "common": {"kind": "exponential", "theta": 1.0},
                "idiosyncratic": {"kind": "lognormal", "mu": 0.2, "sigma": 0.9},
                "N": 5,
            },
        )
        argv = ["auction-sim", "--model", path, "--samples", "300", "--seed", "3"]
        csv_path = tmp_path / "bids.csv"
        assert main(argv + ["--output", str(csv_path)]) == 0
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines() == csv_path.read_bytes().decode().split("\r\n")[:-1]
        assert len(out.splitlines()) == 301

    @pytest.mark.parametrize("to_file", [False, True])
    def test_auction_sim_overflow_is_typed(self, model_file, tmp_path, to_file):
        law = {"kind": "lognormal", "mu": -708, "sigma": 1}
        path = model_file("m.json", {"common": law, "idiosyncratic": law, "N": 3})
        csv_path = tmp_path / "bids.csv"
        argv = ["auction-sim", "--model", path, "--samples", "5", "--seed", "1"]
        if to_file:
            argv += ["--output", str(csv_path)]
        proc = subprocess.run(
            [sys.executable, "-m", "laplaceratio.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("OutOfRange: simulated bids (inf, ")
        assert proc.stderr.count("\n") == 1
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
        assert not csv_path.exists()

    @pytest.mark.parametrize("N, extra", [(10 ** 20, []), (3, ["--samples", str(10 ** 20)])])
    def test_auction_sim_past_one_array_is_typed(self, capsys, model_file, monkeypatch, N, extra):
        def no_array(*args, **kwargs):
            raise AssertionError("numpy was asked for an array")

        monkeypatch.setattr(np, "empty", no_array)
        law = {"kind": "exponential", "theta": 1.0}
        path = model_file("m.json", {"common": law, "idiosyncratic": law, "N": N})
        argv = ["auction-sim", "--model", path, "--samples", "5", "--seed", "1", *extra]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("DomainError: ") and err.endswith(" do not fit one array\n")

    def test_auction_sim_block_numpy_cannot_allocate_is_typed(self, capsys, model_file):
        # 5 * 10^15 doubles fit the index range, so only the allocation of
        # one block of 10^15 bids can refuse them
        law = {"kind": "exponential", "theta": 1.0}
        path = model_file("m.json", {"common": law, "idiosyncratic": law, "N": 10 ** 15})
        code, out, err = run_cli(capsys, "auction-sim", "--model", path, "--samples", "5", "--seed", "1")
        assert (code, out) == (1, "")
        assert err == "OutOfRange: draws of shape (1, 1000000000000000) do not fit in memory\n"

    def test_auction_identify(self, capsys, tmp_path):
        H = ratio_expansion(Poly([0, 1]), 1, 2, 8)
        path = tmp_path / "H.json"
        path.write_text(
            json.dumps({"lead": H.lead, "tail": [str(c) for c in H.tail.coeffs]})
        )
        code, out, _ = run_cli(
            capsys,
            "auction-identify",
            "--input",
            str(path),
            "--n",
            "2",
            "--target-degree",
            "1",
        )
        assert code == 0
        assert json.loads(out) == {"coeffs": ["0", "1"], "ambiguous_sign": False, "k": 1}


class TestOutputModes:
    def test_pretty_table(self, capsys, model_file):
        path = model_file(
            "m.json",
            {
                "common": {"kind": "point_mass", "v": 0},
                "idiosyncratic": {"kind": "exponential", "theta": 1.0},
                "N": 2,
            },
        )
        code, out, _ = run_cli(
            capsys, "auction-k", "--model", path, "--lambda", "1.0", "--pretty"
        )
        assert code == 0
        assert out.splitlines()[0].split() == ["lambda", "k"]
        assert "," not in out

    def test_reruns_are_byte_identical(self, capsys):
        _, out1, _ = run_cli(
            capsys, "ratio", "--builtin", "sin", "--n", "2", "--m", "1", "--order", "6"
        )
        _, out2, _ = run_cli(
            capsys, "ratio", "--builtin", "sin", "--n", "2", "--m", "1", "--order", "6"
        )
        assert out1 == out2

    def test_missing_file_is_parse_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "identify",
            "--input",
            "/nonexistent.json",
            "--n",
            "2",
            "--m",
            "1",
            "--target-degree",
            "1",
        )
        assert code == 2
        assert "nonexistent" in err

    def test_undecodable_input_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(capsys, "transform", "--input", str(path), "--lambda", "1")
        assert (code, out) == (2, "")
        assert err == f"FormatError: {path}:1: not UTF-8 text: invalid start byte\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_undecodable_named_pipe_is_read_once(self, tmp_path):
        # the line was placed by opening the pipe again, which waited for a
        # writer for ever; an empty late write ends a stuck call
        path = tmp_path / "bad.fifo"
        os.mkfifo(path)
        call = subprocess.Popen(
            [sys.executable, "-m", "laplaceratio.cli", "transform", "--input", str(path), "--order", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        with open(path, "wb") as fh:
            fh.write(b'{"kind": "poly", "coeffs": ["1\xff"]}')
        try:
            out, err = call.communicate(timeout=30)
            stuck = False
        except subprocess.TimeoutExpired:
            with open(path, "wb"):
                pass
            out, err = call.communicate()
            stuck = True
        assert not stuck
        assert (call.returncode, out) == (2, b"")
        assert err == f"FormatError: {path}:1: not UTF-8 text: invalid start byte\n".encode()

    def test_undecodable_stdin_names_the_line(self):
        call = subprocess.run(
            [sys.executable, "-m", "laplaceratio.cli", "transform", "--input", "/dev/stdin", "--order", "2"],
            input=b'{"kind": "poly",\n "coeffs": ["1\xff"]}', capture_output=True, timeout=60,
        )
        assert (call.returncode, call.stdout) == (2, b"")
        assert call.stderr == b"FormatError: /dev/stdin:2: not UTF-8 text: invalid start byte\n"

    def test_deeply_nested_input_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(
            capsys, "identify", "--input", str(path), "--n", "2", "--m", "1", "--target-degree", "1"
        )
        assert (code, out) == (2, "")
        assert err == f"FormatError: {path}: JSON nested too deeply\n"

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["ratio", "--n", "2"])  # missing --m
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["selftest", "--output", "x"],
            ["selftest", "--pretty"],
            ["identify", "--input", "h.json", "--n", "2", "--m", "1", "--target-degree", "1",
             "--pretty"],
            ["verify", "--input", "f.json", "--input", "f.json", "--n", "2", "--m", "1",
             "--pretty"],
            ["auction-identify", "--input", "h.json", "--n", "2", "--target-degree", "1",
             "--pretty"],
        ],
    )
    def test_flag_the_command_cannot_use_is_usage_error(self, capsys, tmp_path, monkeypatch, argv):
        # selftest writes nothing and JSON-only commands print no tables
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_malformed_lambda_grid(self, capsys):
        code, _, err = run_cli(
            capsys,
            "ratio",
            "--builtin",
            "step_example",
            "--n",
            "2",
            "--m",
            "1",
            "--lambda-grid",
            "nope",
        )
        assert code == 2
        assert "START:STOP:COUNT" in err

    @pytest.mark.parametrize(
        "grid, code, error",
        [
            ("nan:10:3", 2, "FormatError"),
            ("1:inf:3", 2, "FormatError"),
            ("1:-inf:3", 2, "FormatError"),
            ("1:1.7976931348623157e308:4", 0, None),
            ("1:10:1" + "0" * 400, 2, "FormatError"),
        ],
    )
    def test_extreme_lambda_grid_is_typed_and_quiet(self, poly_file, grid, code, error):
        path = poly_file("f.json", ["1", "1/2"])
        proc = subprocess.run(
            [sys.executable, "-m", "laplaceratio.cli", "transform", "--input", path,
             "--lambda-grid", grid],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == code
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
        assert "nan" not in proc.stdout and "inf" not in proc.stdout
        if error:
            assert proc.stderr.startswith(f"{error}: ")
        else:
            assert len(proc.stdout.splitlines()) == 5


class TestLambdaGrid:
    # the contract: exact endpoints, and interior points 10.0 ** y on
    # numpy.linspace's exponent grid between correctly rounded log10s.
    # np.geomspace is np.logspace between np.log10s, which are not always
    # correctly rounded, so numpy is compared on the same exponents.
    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(1e-300, 1e300),
        st.floats(1e-300, 1e300),
        st.integers(1, 64),
    )
    @example(5.0, 5.0, 3)
    @example(10.0, 1.0, 4)
    @example(0.5, 10.0, 20)
    @example(0.3125, 1.0, 4)  # libm's log10(0.3125) is 1 ulp off
    def test_endpoints_exact_and_interior_within_one_ulp(self, start, stop, count):
        grid = f"{start!r}:{stop!r}:{count}"
        points = _lambda_grid(argparse.Namespace(lambdas=None, lambda_grid=grid))
        assert len(points) == count
        assert points[0] == start
        assert points[-1] == (stop if count > 1 else start)
        with mpmath.workprec(200):
            lo, hi = (float(mpmath.log10(mpmath.mpf(x))) for x in (start, stop))
        numpy_points = np.logspace(lo, hi, count).tolist()
        step = (hi - lo) / max(count - 1, 1)
        for i in range(1, count - 1):
            got = points[i]
            with mpmath.workprec(200):
                assert abs(got - mpmath.power(10, mpmath.mpf(i * step + lo))) <= math.ulp(got)
            assert abs(got - numpy_points[i]) <= math.ulp(got)


@pytest.mark.parametrize("command, flags", [("transform", []), ("ratio", ["--n", "2", "--m", "1"])])
def test_one_function_input(capsys, poly_file, command, flags):
    # transform and ratio take one function, so a repeated --input is refused
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "one function description JSON, the alternative to --builtin" in " ".join(
        capsys.readouterr().out.split()
    )
    path = poly_file("f.json", ["1", "1"])
    code, out, err = run_cli(capsys, command, "--input", path, "--input", path, *flags)
    assert (code, out) == (2, "")
    assert f"{command} needs exactly 1 function(s); got 2" in err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "laplaceratio.cli", "transform", "--builtin", "sin", "--order", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["coeffs"][2] == "1"
