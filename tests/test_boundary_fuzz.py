"""Boundary fuzz of the command line: argv plus the documents it reads, for
every subcommand that reads a document, run in-process through cli.main.

Every case must end in exit 0, 1 or 2, print no traceback, and print no
nan or inf on stdout.  Documents are well formed with extreme values,
broken (truncated, empty, wrong types, not UTF-8) or nested deep.

Work sizes are bounded so that no valid case is a huge job, since a valid
document may ask for any amount of exact work: a builtin sin of order
10**30 or an expansion with lead 10**30 would run out of memory.  The
bounds, each kept by the strategy that draws it:
- a coefficient list holds at most 8 rationals, and about one list in ten
  holds one of 5000 digits; a tail holds at most 12;
- a piecewise function has at most 5 pieces;
- |lead|, --order, a builtin's order and n_max, and a grid's COUNT are at
  most 30, and --target-degree at most 20;
- exponents are at most 6, and auction-identify's N at most 7, since its
  exponents are N-1 and N;
- a model's N is at most 40 and --samples at most 300, so one run draws at
  most 12000 bids;
- a document is nested at most 2000 deep.
The @examples past these bounds end before any work: a document nested
100000 deep, and auction-sim with N = 10**20, which no array can hold.
Four more carry an integer that no message may print with str() and no
step may turn into a float: auction-sim with a 5000-digit N, auction-k
with N = 10**400, and identify on a 5000-digit lead at (2,1) (a negative
order) and at (3,1) (not a multiple of m-n).  The last is a law whose
log-integrands are flat in doubles at lambda = 1e300, so k_quadrature's
bracket walk reaches infinity; it must end in QuadratureFailure, not run
forever.  Another such law at lambda = 1e-20 stops the peak search short
of a peak, so a trapezoid term overflows: QuadratureFailure again, not an
OverflowError.
"""

import contextlib
import io
import json
import os
import re
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from laplaceratio.cli import main

# a 5000-digit JSON integer, past the default int <-> str digit limit; json
# cannot write one, so documents carry this marker and the text gets the digits
BIG = "@BIG@"
BIG_DIGITS = "7" * 5000

finite = st.floats(allow_nan=False, allow_infinity=False)
any_float = st.one_of(
    finite,
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308]),
    st.just(float("nan")),
    st.just(float("inf")),
)
positive = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
wrong = st.one_of(st.none(), st.booleans(), any_float, st.text(max_size=4), st.just({}))
rational = st.one_of(
    st.integers(-9, 9),
    st.fractions(-9, 9, max_denominator=9).map(str),
    st.sampled_from([" 3/4 ", "-0", "18446744073709551557/9223372036854775837"]),
)
bad_rational = st.one_of(st.sampled_from(["1/0", "x", "2/3/4", "1e3"]), wrong)


def odd(draw) -> bool:
    """True about one time in ten: the draw that breaks an otherwise valid case."""
    return draw(st.sampled_from([False] * 5 + [True] + [False] * 5))


@st.composite
def mostly(draw, valid, broken):
    """A draw from valid, or about one time in ten from broken."""
    return draw(broken if odd(draw) else valid)


@st.composite
def rational_list(draw, min_size=0, max_size=8):
    """Valid rationals, about one list in ten with one of 5000 digits."""
    values = draw(st.lists(rational, min_size=min_size, max_size=max_size))
    if values and odd(draw):
        big = draw(st.sampled_from([BIG, "-" + BIG_DIGITS + "/7"]))
        values[draw(st.integers(0, len(values) - 1))] = big
    return values


rationals = mostly(
    rational_list(),
    st.one_of(st.lists(st.one_of(rational, bad_rational), min_size=1, max_size=8), wrong),
)

# breakpoints 0 < b_1 < ... and one piece below each inner breakpoint, the
# last piece being the tail
piecewise_doc = st.lists(
    st.fractions(0, 10**6, max_denominator=10**6).filter(bool), max_size=4, unique=True
).flatmap(
    lambda bs: st.fixed_dictionaries(
        {
            "kind": st.just("piecewise"),
            "breakpoints": st.just(["0", *map(str, sorted(bs))]),
            "pieces": st.lists(rational_list(max_size=4), min_size=len(bs), max_size=len(bs)),
            "tail": rational_list(max_size=4),
        }
    )
)
count_field = mostly(st.integers(1, 30), st.one_of(st.integers(-1, 0), wrong))
function_doc = st.one_of(
    st.fixed_dictionaries({"kind": st.just("poly"), "coeffs": rationals}),
    piecewise_doc,
    st.fixed_dictionaries(
        {
            "kind": st.just("builtin"),
            "name": st.sampled_from(["sin", "step_example", "sin", "step_example", "cos"]),
            "order": count_field,
            "n_max": count_field,
        }
    ),
    st.fixed_dictionaries(
        {
            "kind": st.one_of(st.just("piecewise"), wrong),
            "breakpoints": rationals,
            "pieces": st.one_of(st.lists(rationals, max_size=4), wrong),
            "tail": rationals,
            "coeffs": rationals,
        }
    ),
)
expansion_doc = st.fixed_dictionaries(
    {
        "lead": mostly(st.integers(-30, 30), wrong),
        "tail": mostly(rational_list(min_size=1, max_size=12), rationals),
    }
)
number = mostly(st.floats(0.01, 100), st.one_of(any_float, st.integers(-(10**20), 10**20), wrong))
dist_doc = st.deferred(
    lambda: st.one_of(
        st.fixed_dictionaries({"kind": st.just("exponential"), "theta": number}),
        st.fixed_dictionaries({"kind": st.just("lognormal"), "mu": number, "sigma": number}),
        st.fixed_dictionaries({"kind": st.just("point_mass"), "v": number}),
        st.fixed_dictionaries({"kind": st.just("shifted"), "base": dist_doc, "offset": number}),
    )
)
model_doc = st.fixed_dictionaries(
    {
        "common": mostly(dist_doc, st.fixed_dictionaries({"kind": wrong})),
        "idiosyncratic": mostly(dist_doc, st.fixed_dictionaries({"kind": wrong})),
        "N": mostly(st.integers(2, 40), st.one_of(st.integers(-1, 1), wrong)),
    }
)


def as_bytes(doc) -> bytes:
    return json.dumps(doc).replace(f'"{BIG}"', BIG_DIGITS).encode()


@st.composite
def document(draw, doc):
    """The bytes of a document: whole, or truncated, empty, not UTF-8 or nested."""
    text = as_bytes(draw(doc))
    form = draw(st.sampled_from(["cut", "empty", "latin", "deep"])) if odd(draw) else "whole"
    if form == "cut":
        return text[: draw(st.integers(0, len(text)))]
    if form == "empty":
        return b""
    if form == "latin":
        return b"\xff\xfe" + text
    if form == "deep":
        depth = draw(st.integers(1, 2000))
        return b"[" * depth + text + b"]" * depth
    return text


def value(draw, valid):
    """Mostly a valid flag value, sometimes one argparse or the command refuses."""
    return str(draw(st.sampled_from(["x", "", "-1", "0"]) if odd(draw) else valid))


def lambdas(draw):
    argv = []
    for _ in range(draw(st.integers(0, 2))):
        argv += ["--lambda", repr(draw(any_float if odd(draw) else positive))]
    if draw(st.booleans()):
        start, stop = draw(any_float if odd(draw) else positive), draw(positive)
        count = draw(st.integers(-1, 30))
        grid = draw(st.text(max_size=6)) if odd(draw) else f"{start!r}:{stop!r}:{count}"
        argv += ["--lambda-grid", grid]
    return argv


@st.composite
def cases(draw):
    """(argv, files): argv names files as {tmp}/<name>."""
    files = {}

    def doc(name, strategy):
        files[name] = draw(document(strategy))
        return "{tmp}/" + name

    command = draw(
        st.sampled_from(
            ["transform", "ratio", "identify", "verify", "auction-k", "auction-sim",
             "auction-identify"]
        )
    )
    argv = [command]
    exponents = st.integers(1, 6)
    if command in ("transform", "ratio"):
        if draw(st.integers(0, 3)):  # three times in four a document, else a builtin
            argv += ["--input", doc("f.json", function_doc)]
        else:
            argv += ["--builtin", draw(st.sampled_from(["sin", "step_example"]))]
            argv += ["--n-max", value(draw, st.integers(1, 30))]
        if command == "ratio":
            argv += ["--n", value(draw, exponents), "--m", value(draw, exponents)]
        if draw(st.booleans()):
            argv += ["--order", value(draw, st.integers(0, 30))]
        argv += lambdas(draw)
    elif command in ("identify", "auction-identify"):
        argv += ["--input", doc("h.json", expansion_doc)]
        if command == "identify":
            argv += ["--n", value(draw, exponents), "--m", value(draw, exponents)]
        else:
            argv += ["--n", value(draw, st.integers(2, 7))]
        argv += ["--target-degree", value(draw, st.integers(0, 20))]
    elif command == "verify":
        argv += ["--input", doc("f.json", function_doc), "--input", doc("g.json", function_doc)]
        argv += ["--n", value(draw, exponents), "--m", value(draw, exponents)]
    else:
        argv += ["--model", doc("model.json", model_doc)]
        if command == "auction-k":
            argv += lambdas(draw)
            if draw(st.booleans()):
                argv += ["--tol", repr(draw(any_float if odd(draw) else st.floats(1e-12, 1.0)))]
        else:
            argv += ["--samples", value(draw, st.integers(1, 300))]
            argv += ["--seed", value(draw, st.integers(0, 2**64))]
            argv += ["--chunk", value(draw, st.integers(1, 400))]
            if draw(st.booleans()):
                argv += ["--output", "{tmp}/bids.csv"]
    if command in ("transform", "ratio", "auction-k", "auction-sim") and draw(st.booleans()):
        argv.append("--pretty")
    if odd(draw):
        del argv[draw(st.integers(0, len(argv) - 1))]
    if odd(draw):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "--", "-"])))
    return argv, files


def run(argv, files):
    """Exit code, stdout and stderr of cli.main on argv, files in a fresh
    directory; argparse's usage errors exit through SystemExit."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([a.replace("{tmp}", tmp) for a in argv])
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


NESTED = b"[" * 100_000 + b"]" * 100_000
WIDE_N = as_bytes(
    {
        "common": {"kind": "point_mass", "v": 0},
        "idiosyncratic": {"kind": "exponential", "theta": 1.0},
        "N": 10**20,
    }
)
BIG_N = as_bytes(
    {
        "common": {"kind": "point_mass", "v": 0},
        "idiosyncratic": {"kind": "exponential", "theta": 1.0},
        "N": BIG,
    }
)
LOGNORMAL_N = as_bytes(
    {
        "common": {"kind": "point_mass", "v": 0},
        "idiosyncratic": {"kind": "lognormal", "mu": 0.0, "sigma": 1.0},
        "N": 10**400,
    }
)
BIG_LEAD = as_bytes({"lead": BIG, "tail": ["1"]})
FLAT_LOGNORMAL = as_bytes(
    {
        "common": {"kind": "point_mass", "v": 0},
        "idiosyncratic": {"kind": "lognormal", "mu": 0.0, "sigma": 1e-300},
        "N": 5,
    }
)

SHORT_PEAK_LOGNORMAL = as_bytes(
    {
        "common": {"kind": "point_mass", "v": 0},
        "idiosyncratic": {"kind": "lognormal", "mu": -100.0, "sigma": 1e-20},
        "N": 3,
    }
)


@given(cases())
@example((["identify", "--input", "{tmp}/h.json", "--n", "2", "--m", "1",
           "--target-degree", "1"], {"h.json": NESTED}))
@example((["auction-sim", "--model", "{tmp}/model.json", "--samples", "10"],
          {"model.json": WIDE_N}))
@example((["auction-sim", "--model", "{tmp}/model.json", "--samples", "3"],
          {"model.json": BIG_N}))
@example((["auction-k", "--model", "{tmp}/model.json", "--lambda", "1"],
          {"model.json": LOGNORMAL_N}))
@example((["auction-k", "--model", "{tmp}/model.json", "--lambda", "1e300"],
          {"model.json": FLAT_LOGNORMAL}))
@example((["auction-k", "--model", "{tmp}/model.json", "--lambda", "1e-20"],
          {"model.json": SHORT_PEAK_LOGNORMAL}))
@example((["identify", "--input", "{tmp}/h.json", "--n", "2", "--m", "1",
           "--target-degree", "1"], {"h.json": BIG_LEAD}))
@example((["identify", "--input", "{tmp}/h.json", "--n", "3", "--m", "1",
           "--target-degree", "1"], {"h.json": BIG_LEAD}))
@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_input_ends_in_a_typed_exit(case):
    code, out, err = run(*case)
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    assert not re.search("nan|inf", out, re.IGNORECASE), out[:200]
