import json
import subprocess
import sys

import pytest

import laplaceratio
from laplaceratio.fileformats import ratio_expansion_to_document

# Runs CLI calls given as a JSON list of argv lists in a fresh interpreter,
# and reports their exit codes, which of numpy and scipy they loaded, and
# after each call the modules loaded since just before laplaceratio was
# imported, so that modules a site hook preloads are not counted.
RUN_CALLS = r"""
import contextlib, io, json, sys
before = set(sys.modules)
from laplaceratio.cli import main

codes, added = [], []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
    added.append(sorted(set(sys.modules) - before))
heavy = sorted({k.split(".")[0] for k in sys.modules} & {"numpy", "scipy"})
print(json.dumps({"codes": codes, "heavy": heavy, "added": added}))
"""


def audit(argv, added):
    """No call loads dataclasses, or csv, since no CLI call reads samples;
    inspect, which numpy loads, only with numpy."""
    assert "dataclasses" not in added, argv
    assert "csv" not in added, argv
    assert "inspect" not in added or "numpy" in added, argv


@pytest.fixture
def run_fresh(tmp_path):
    """Run argv lists in one fresh interpreter; an argument naming one of
    the documents below is replaced by that document's path."""
    lognormal = {"kind": "lognormal", "mu": 0.0, "sigma": 1.0}
    exponential = {"kind": "exponential", "theta": 1.0}
    contents = {
        "f.json": json.dumps({"kind": "poly", "coeffs": ["1", "1"]}),
        "g.json": json.dumps({"kind": "poly", "coeffs": ["-1", "-1"]}),
        "expansion.json": json.dumps({"lead": 0, "tail": ["1", "1", "1", "-1", "1", "-1", "1", "-1", "1"]}),
        "ln.json": json.dumps({"common": exponential, "idiosyncratic": lognormal, "N": 5}),
        "exp.json": json.dumps({"common": lognormal, "idiosyncratic": exponential, "N": 3}),
        "nan.json": '{"common": {"kind": "exponential", "theta": 1.0},'
        ' "idiosyncratic": {"kind": "point_mass", "v": NaN}, "N": 5}',
        "k_expansion.json": json.dumps(
            ratio_expansion_to_document(laplaceratio.ratio_expansion(laplaceratio.Poly([0, 1]), 1, 2, 8))
        ),
    }
    for name, text in contents.items():
        (tmp_path / name).write_text(text)

    def run(*calls):
        calls = [[str(tmp_path / a) if a in contents else a for a in argv] for argv in calls]
        proc = subprocess.run(
            [sys.executable, "-c", RUN_CALLS, json.dumps(calls)],
            capture_output=True,
            text=True,
            check=True,
        )
        report = json.loads(proc.stdout)
        for argv, added in zip(calls, report.pop("added")):
            audit(argv, added)
        return report

    return run


def test_exact_commands_load_no_numpy_or_scipy(run_fresh):
    report = run_fresh(
        ["ratio", "--builtin", "sin", "--n", "2", "--m", "1", "--order", "8"],
        ["identify", "--input", "expansion.json", "--n", "2", "--m", "1", "--target-degree", "3"],
        ["verify", "--input", "f.json", "--input", "g.json", "--n", "3", "--m", "1"],
        ["transform", "--input", "f.json", "--lambda", "2"],
    )
    assert report == {"codes": [0, 0, 0, 0], "heavy": []}


def test_auction_commands_load_no_scipy(run_fresh):
    report = run_fresh(["auction-k", "--model", "ln.json", "--lambda", "1"], ["selftest"])
    assert report["codes"] == [0, 0]
    assert "scipy" not in report["heavy"]


NO_SAMPLE_CALLS = {
    "transform-grid": (["transform", "--input", "f.json", "--lambda-grid", "0.5:10:8"], 0),
    "ratio-grid": (
        ["ratio", "--builtin", "step_example", "--n", "2", "--m", "1", "--lambda-grid", "0.5:10:8"],
        0,
    ),
    "auction-k-lognormal": (["auction-k", "--model", "ln.json", "--lambda-grid", "0.1:10:8"], 0),
    "auction-k-exponential": (["auction-k", "--model", "exp.json", "--lambda-grid", "0.1:10:8"], 0),
    "auction-identify": (["auction-identify", "--input", "k_expansion.json", "--n", "2", "--target-degree", "1"], 0),
    "auction-sim-nan-model": (["auction-sim", "--model", "nan.json", "--samples", "100"], 2),
    "bad-grid": (["auction-k", "--model", "ln.json", "--lambda-grid", "1:0:5"], 2),
}


@pytest.mark.parametrize("call", NO_SAMPLE_CALLS, ids=str)
def test_calls_without_samples_load_no_numpy_or_scipy(run_fresh, call):
    argv, code = NO_SAMPLE_CALLS[call]
    assert run_fresh(argv) == {"codes": [code], "heavy": []}


def test_selftest_loads_numpy(run_fresh):
    # the control: a call that draws samples does load numpy
    assert run_fresh(["selftest"]) == {"codes": [0], "heavy": ["numpy"]}


def test_the_audit_sees_what_a_call_loads():
    # the control for audit: numpy itself loads inspect, and a call that
    # adds dataclasses or csv, or inspect without numpy, is refused
    audit(["selftest"], ["inspect", "numpy"])
    for added in (["dataclasses"], ["csv"], ["inspect"]):
        with pytest.raises(AssertionError):
            audit(["call"], added)


def test_tiny_lambda_calls_load_no_dataclasses_inspect_or_csv(run_fresh):
    # the two benchmark calls not run above; run_fresh audits every call,
    # and these end in an error path
    report = run_fresh(
        ["transform", "--input", "f.json", "--lambda", "1e-300"],
        ["ratio", "--builtin", "step_example", "--n", "2", "--m", "1", "--lambda", "1e-320"],
    )
    assert report["heavy"] == []


def test_every_exported_name_resolves():
    for name in laplaceratio.__all__:
        assert getattr(laplaceratio, name) is not None


def test_auction_names_come_from_the_auction_module():
    assert laplaceratio.k_quadrature is laplaceratio.auction.k_quadrature


def test_unknown_attribute():
    with pytest.raises(AttributeError):
        laplaceratio.no_such_name
