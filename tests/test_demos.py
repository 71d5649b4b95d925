import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
# demo 03 prints exact residuals and float transforms, each of which must
# keep its digits; a delayed copy's ratio is its own to the last bit, as
# the common factor e^(-lambda a0) never enters either sum
PINNED_STDOUT = {
    "03_piecewise_functions.py": """\
=== the built-in staircase ===
PiecewisePoly([0, 1/2): 1, [1/2, 3/4): 1/2, [3/4, 7/8): 1/4, [7/8, 15/16): 1/8, [15/16, 31/32): 1/16, [31/32, 63/64): 1/32, [63/64, 1): 1/64, [1, inf): 2)
  f(0) = 1
  f(1/2) = 1/2
  f(3/4) = 1/4
  f(9/10) = 1/8
  f(1) = 2
  f(2) = 2

=== numeric transform ===
  L{f}(0.5) = 2.987480125641
  L{f}(1.0) = 1.214370895847
  L{f}(2.0) = 0.495421767748

=== translations do not move the power ratio ===
shift then unshift gives back f exactly: True
  lambda=0.5: H(shifted)=1.789572677252  H(f)=1.789572677252  rel diff 0.0e+00
  lambda=1.0: H(shifted)=1.566610355891  H(f)=1.566610355891  rel diff 0.0e+00
  lambda=5.0: H(shifted)=0.996172849171  H(f)=0.996172849171  rel diff 0.0e+00

=== the convolution residual ===
residual of a function against itself vanishes identically:
  Q(1.3) = 0.0
different functions leave a nonzero residual at most points:
  Q_gh(0.5) = 0.000520833333333
  Q_gh(1.0) = 0
  Q_gh(1.5) = -0.1265625
(the zero at t = 1 is an isolated coincidence: the residual is
 t^5/30 - t^6/30 below the breakpoint)
""",
}

# demo 04's lines that do not come from sampling, each cut before any
# Monte Carlo part: closed form and quadrature, the K <-> h conversions and
# the recovered germs
PINNED_LINES = {
    "04_auction_pipeline.py": [
        "  lambda=0.5: closed 0.6666666667  quadrature 0.6666666667",
        "  lambda=1.0: closed 0.5000000000  quadrature 0.5000000000",
        "  lambda=2.0: closed 0.3333333333  quadrature 0.3333333333",
        "  h=1.0 -> K=1.000000 -> h=1.000000",
        "  h=1.5 -> K=0.333333 -> h=1.500000",
        "  h=3.0 -> K=0.111111 -> h=3.000000",
        "  recovered germ coefficients: ['0', '1']",
        "  source x + 1/2*x^2 - 1/6*x^3 -> recovered x + 1/2*x^2 - 1/6*x^3",
    ],
}
UNSAMPLED = ("  lambda=", "  h=", "  recovered", "  source")


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    if demo.name.startswith("02_"):
        assert "exact match: True" in proc.stdout
    if demo.name in PINNED_STDOUT:
        assert proc.stdout == PINNED_STDOUT[demo.name]
    if demo.name in PINNED_LINES:
        lines = [line.split("  MC ")[0] for line in proc.stdout.splitlines()]
        assert [line for line in lines if line.startswith(UNSAMPLED)] == PINNED_LINES[demo.name]
