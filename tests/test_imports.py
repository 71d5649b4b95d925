import json
import subprocess
import sys

import pytest

import laplaceratio

# Runs the exact commands in a fresh interpreter and reports which numpy or
# scipy modules they loaded.
EXACT_COMMANDS = r"""
import contextlib, io, json, os, sys
import laplaceratio
from laplaceratio.cli import main

tmp = sys.argv[1]
paths = {}
for name, doc in {
    "f.json": {"kind": "poly", "coeffs": ["1", "1"]},
    "g.json": {"kind": "poly", "coeffs": ["-1", "-1"]},
    "h.json": {"lead": 0, "tail": ["1", "1", "1", "-1", "1", "-1", "1", "-1", "1"]},
}.items():
    paths[name] = os.path.join(tmp, name)
    with open(paths[name], "w") as fh:
        json.dump(doc, fh)

codes = []
for argv in (
    ["ratio", "--builtin", "sin", "--n", "2", "--m", "1", "--order", "8"],
    ["identify", "--input", paths["h.json"], "--n", "2", "--m", "1", "--target-degree", "3"],
    ["verify", "--input", paths["f.json"], "--input", paths["g.json"], "--n", "3", "--m", "1"],
    ["transform", "--input", paths["f.json"], "--lambda", "2"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
heavy = sorted(k for k in sys.modules if k.split(".")[0] in ("numpy", "scipy"))
print(json.dumps({"codes": codes, "heavy": heavy}))
"""


def test_exact_commands_load_no_numpy_or_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", EXACT_COMMANDS, str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(proc.stdout)
    assert report == {"codes": [0, 0, 0, 0], "heavy": []}


# Runs auction-k on a lognormal model and then selftest in a fresh
# interpreter, and reports whether scipy was loaded: at run time the auction
# commands need numpy only.
AUCTION_COMMANDS = r"""
import contextlib, io, json, os, sys
from laplaceratio.cli import main

path = os.path.join(sys.argv[1], "model.json")
with open(path, "w") as fh:
    json.dump({
        "common": {"kind": "exponential", "theta": 1.0},
        "idiosyncratic": {"kind": "lognormal", "mu": 0.0, "sigma": 1.0},
        "N": 5,
    }, fh)
codes = []
for argv in (["auction-k", "--model", path, "--lambda", "1"], ["selftest"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
scipy = sorted(k for k in sys.modules if k.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_auction_commands_load_no_scipy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", AUCTION_COMMANDS, str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(proc.stdout) == {"codes": [0, 0], "scipy": []}


def test_every_exported_name_resolves():
    for name in laplaceratio.__all__:
        assert getattr(laplaceratio, name) is not None


def test_auction_names_come_from_the_auction_module():
    assert laplaceratio.k_quadrature is laplaceratio.auction.k_quadrature


def test_unknown_attribute():
    with pytest.raises(AttributeError):
        laplaceratio.no_such_name
