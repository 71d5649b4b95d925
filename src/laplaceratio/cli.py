"""Command-line surface: batch transforms, ratio expansions, coefficient
recovery, convolution-identity checks, and the auction pipeline.

Exit codes: 0 success, 1 computation error (typed message on stderr),
2 usage or parse error.  Every command is deterministic given its flags,
so reruns produce byte-identical primary outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from decimal import Context, Decimal
from fractions import Fraction

from . import fileformats as ff
from .algebra import Poly, beta_rational
from .errors import DomainError, FormatError, LaplaceRatioError, OutOfRange
from .identify import RatioSpec, identify, pivot_value, verify_identity
from .transforms import (
    convolution_residual,
    delay,
    laplace_piecewise,
    laplace_poly,
    ratio_eval_piecewise,
    ratio_expansion,
    ratio_rational,
    shift_vanishing,
    sin_closed_form,
    sin_ratio_check,
    step_example,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laplaceratio",
        description="Ratios of Laplace transforms of powers of a function: "
        "transforms, expansions, coefficient recovery, and the auction pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, help_text, handler, rows=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--output", help="output path (default: stdout)")
        if rows:
            p.add_argument("--pretty", action="store_true", help="aligned human-readable tables")
        return p

    def add_function_source(p):
        p.add_argument(
            "--input",
            action="append",
            default=[],
            help="one function description JSON, the alternative to --builtin",
        )
        p.add_argument(
            "--builtin",
            choices=["sin", "step_example"],
            help="use a built-in function instead of --input",
        )
        p.add_argument(
            "--n-max", type=int, default=10, help="steps kept in the step_example builtin"
        )

    def add_lambda_flags(p):
        p.add_argument(
            "--lambda",
            dest="lambdas",
            action="append",
            type=float,
            metavar="LAMBDA",
            help="evaluation point, repeatable",
        )
        p.add_argument(
            "--lambda-grid",
            metavar="START:STOP:COUNT",
            help="log-spaced evaluation grid",
        )

    def add_exponents(p):
        p.add_argument("--n", type=int, required=True, help="numerator exponent")
        p.add_argument("--m", type=int, required=True, help="denominator exponent")

    p = add("transform", "Laplace transform of a function", cmd_transform, rows=True)
    add_function_source(p)
    add_lambda_flags(p)
    p.add_argument("--order", type=int, help="series truncation order (polynomial input)")

    p = add("ratio", "power ratio L{f^n}/L{f^m}", cmd_ratio, rows=True)
    add_function_source(p)
    add_lambda_flags(p)
    add_exponents(p)
    p.add_argument("--order", type=int, help="expansion order (polynomial input)")

    p = add("identify", "recover Taylor coefficients from a ratio expansion", cmd_identify)
    p.add_argument("--input", action="append", required=True, help="ratio expansion JSON")
    add_exponents(p)
    p.add_argument("--target-degree", type=int, required=True)

    p = add("verify", "exact convolution-identity check for two functions", cmd_verify)
    p.add_argument(
        "--input",
        action="append",
        required=True,
        help="function description JSON; give twice (f then g)",
    )
    add_exponents(p)

    p = add("auction-k", "top-two transform ratio K for a bid model", cmd_auction_k, rows=True)
    p.add_argument("--model", required=True, help="auction model JSON")
    add_lambda_flags(p)
    p.add_argument("--tol", type=float, default=1e-10, help="tolerance on K")

    p = add("auction-sim", "simulate top-two bids to CSV", cmd_auction_sim, rows=True)
    p.add_argument("--model", required=True, help="auction model JSON")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add(
        "auction-identify",
        "recover the bid-distribution germ from a power-ratio expansion with exponents (N-1, N)",
        cmd_auction_identify,
    )
    p.add_argument("--input", action="append", required=True, help="ratio expansion JSON")
    p.add_argument("--n", type=int, required=True, help="number of bidders N")
    p.add_argument("--target-degree", type=int, required=True)

    sub.add_parser("selftest", help="run the built-in acceptance checks").set_defaults(
        handler=cmd_selftest
    )

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FormatError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except LaplaceRatioError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------- helpers


def _emit_text(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, doc) -> None:
    _emit_text(args, json.dumps(doc, indent=2) + "\n")


def _emit_rows(args, header: list[str], rows: list[list]) -> None:
    for row in rows:
        for name, v in zip(header, row):
            if isinstance(v, float) and not math.isfinite(v):
                raise OutOfRange(
                    f"{name} = {v!r} at {header[0]} = {row[0]!r} is not a finite double"
                )
    cells = [[repr(v) for v in row] for row in rows]  # every cell is a float
    if args.pretty:
        widths = [
            max(len(header[i]), *(len(r[i]) for r in cells)) if cells else len(header[i])
            for i in range(len(header))
        ]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
        lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
        _emit_text(args, "\n".join(lines) + "\n")
    else:
        lines = [",".join(header)] + [",".join(row) for row in cells]
        _emit_text(args, "\n".join(lines) + "\n")


def _lambda_grid(args) -> list[float]:
    points = list(args.lambdas or [])
    if args.lambda_grid:
        try:
            start_s, stop_s, count_s = args.lambda_grid.split(":")
            start, stop, count = float(start_s), float(stop_s), int(count_s)
        except ValueError:
            raise FormatError(
                f"--lambda-grid: expected START:STOP:COUNT, got {args.lambda_grid!r}"
            ) from None
        if not (0 < start < math.inf and 0 < stop < math.inf) or count < 1:
            raise FormatError("--lambda-grid: needs finite positive start/stop and count >= 1")
        if count > sys.maxsize:
            raise FormatError("--lambda-grid: COUNT is more points than a list can hold")
        points.extend(_geomspace(start, stop, count))
    if not all(0 < lam < math.inf for lam in points):
        raise FormatError("--lambda: evaluation points must be finite and positive")
    return points


def _geomspace(start: float, stop: float, count: int) -> list[float]:
    """count log-spaced points: start and stop exactly, and between them
    10.0 ** y on numpy.linspace's exponent grid y = i*step + log10(start).
    A point beyond the double range becomes inf, which _emit_rows refuses."""
    if count == 1:
        return [start]
    lo = _log10(start)
    step = (_log10(stop) - lo) / (count - 1)
    inner = []
    for i in range(1, count - 1):
        try:
            inner.append(10.0 ** (i * step + lo))
        except OverflowError:
            inner.append(math.inf)
    return [start, *inner, stop]


def _log10(x: float) -> float:
    # correctly rounded, unlike libm's log10, which is 1 ulp off for about
    # one double in nine between 0.1 and 10; 40 digits leave no double rounding
    return float(Decimal(x).log10(Context(prec=40)))


def _load_function(args):
    """Resolve --input/--builtin into exactly one function."""
    fns = [ff.function_from_document(ff.load_json(path), where=path) for path in args.input]
    if args.builtin:
        if args.builtin == "sin":
            order = args.order
            if order is None:
                raise FormatError("--builtin sin needs --order (Maclaurin degree context)")
            # degree order+1 keeps every coefficient of a ratio's tail to
            # `order` exact; a negative order stays, for the document check
            degree = order + 1 if args.command == "ratio" and order >= 0 else order
            doc = {"kind": "builtin", "name": "sin", "order": degree}
        else:
            doc = {"kind": "builtin", "name": "step_example", "n_max": args.n_max}
        fns.append(ff.function_from_document(doc))
    if len(fns) != 1:
        raise FormatError(f"{args.command} needs exactly 1 function(s); got {len(fns)}")
    return fns[0]


def _load_expansion(args):
    """The ratio expansion of the one --input."""
    if len(args.input) != 1:
        raise FormatError(f"{args.command} takes exactly one --input")
    return ff.ratio_expansion_from_document(ff.load_json(args.input[0]), where=args.input[0])


def _transform_value_poly(p: Poly, lam: float) -> float:
    # L{p} summed exactly at u = 1/lambda and rounded once; an overflowing
    # value gives a non-finite row, which _emit_rows rejects
    exact = laplace_poly(p)(1 / Fraction(lam))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


# ---------------------------------------------------------------- commands


def cmd_transform(args) -> int:
    fn = _load_function(args)
    lams = _lambda_grid(args)
    if lams:
        if isinstance(fn, Poly):
            rows = [[lam, _transform_value_poly(fn, lam)] for lam in lams]
        else:
            rows = [[lam, laplace_piecewise(fn, lam)] for lam in lams]
        _emit_rows(args, ["lambda", "value"], rows)
        return 0
    if not isinstance(fn, Poly):
        raise FormatError("piecewise transforms need --lambda or --lambda-grid")
    # the transform terminates, so the series to any order is its polynomial
    # in u, cut or padded with zeros
    transform = laplace_poly(fn)
    order = max(transform.degree, 0) if args.order is None else args.order
    if order < 0:
        raise DomainError("series order must be nonnegative")
    _emit_json(
        args,
        {
            "kind": "series",
            "variable": "1/lambda",
            "order": order,
            "coeffs": [ff.format_rational(transform.coefficient(i)) for i in range(order + 1)],
        },
    )
    return 0


def cmd_ratio(args) -> int:
    fn = _load_function(args)
    lams = _lambda_grid(args)
    if isinstance(fn, Poly) and not lams:
        if args.order is None:
            raise FormatError("polynomial ratio expansion needs --order")
        H = ratio_expansion(fn, args.n, args.m, args.order)
        _emit_json(args, ff.ratio_expansion_to_document(H))
        return 0
    if not lams:
        raise FormatError("piecewise ratios need --lambda or --lambda-grid")
    if isinstance(fn, Poly):
        closed = ratio_rational(fn, args.n, args.m)
        rows = [[lam, closed(lam)] for lam in lams]
    else:
        rows = [[lam, ratio_eval_piecewise(fn, args.n, args.m, lam)] for lam in lams]
    _emit_rows(args, ["lambda", "h"], rows)
    return 0


def cmd_identify(args) -> int:
    result = identify(_load_expansion(args), RatioSpec(args.n, args.m), args.target_degree)
    _emit_json(args, ff.identify_result_to_document(result))
    return 0


def cmd_verify(args) -> int:
    if len(args.input) != 2:
        raise FormatError("verify takes --input twice: f then g")
    f, g = (ff.function_from_document(ff.load_json(p), where=p) for p in args.input)
    if not isinstance(f, Poly) or not isinstance(g, Poly):
        raise FormatError("verify compares polynomial functions")
    equal = verify_identity(f, g, RatioSpec(args.n, args.m))
    _emit_json(args, {"equal": equal, "n": args.n, "m": args.m})
    return 0


def cmd_auction_k(args) -> int:
    from .auction import k_value

    model = ff.model_from_document(ff.load_json(args.model), where=args.model)
    lams = _lambda_grid(args)
    if not lams:
        raise FormatError("auction-k needs --lambda or --lambda-grid")
    _emit_rows(args, ["lambda", "k"], [[lam, k_value(model, lam, args.tol)] for lam in lams])
    return 0


def cmd_auction_sim(args) -> int:
    from .auction import McConfig, simulate_bids

    model = ff.model_from_document(ff.load_json(args.model), where=args.model)
    table = simulate_bids(model, McConfig(samples=args.samples, seed=args.seed))
    if args.output:
        ff.save_samples(args.output, table)
    else:
        _emit_rows(args, ["top", "second"], table.tolist())
    return 0


def cmd_auction_identify(args) -> int:
    from .auction import auction_identify

    result = auction_identify(_load_expansion(args), args.n, args.target_degree)
    _emit_json(args, ff.identify_result_to_document(result))
    return 0


def cmd_selftest(args) -> int:
    from .auction import (
        McConfig,
        h_from_k,
        k_analytic_exponential,
        k_from_h,
        k_monte_carlo,
        k_quadrature,
        memoryless_check,
        simulate_bids,
    )

    checks: list[tuple[str, bool]] = []

    def check(name, ok):
        checks.append((name, bool(ok)))
        print(f"{'PASS' if ok else 'FAIL'}  {name}")

    check("sin power-ratio identity, exact through order 7", sin_ratio_check(8))
    check(
        "sin expansion matches the closed form at order 12",
        ratio_expansion(ff.function_from_document(
            {"kind": "builtin", "name": "sin", "order": 17}
        ), 2, 1, 12) == sin_closed_form().expansion(12),
    )

    f = Poly([1, 1])
    got = identify(ratio_expansion(f, 2, 1, 8), RatioSpec(2, 1), 3)
    check("round trip recovers 1+x with exponents (2,1)", got.poly == f)
    got = identify(ratio_expansion(-f, 3, 1, 10), RatioSpec(3, 1), 1)
    check(
        "round trip canonicalizes -(1+x) with exponents (3,1)",
        got.poly == f and got.ambiguous_sign,
    )

    pivots_ok = all(
        pivot_value(k, l, RatioSpec(n, m)) != 0
        for k in range(0, 7)
        for l in range(k + 1, k + 7)
        for n in range(1, 6)
        for m in range(1, 6)
        if n != m
    )
    check("pivot values nonzero on a small sweep", pivots_ok)

    pp = delay(step_example(8), Fraction(1, 4))
    back = shift_vanishing(pp, Fraction(1, 4))
    shift_ok = all(
        math.isclose(
            ratio_eval_piecewise(pp, n, m, lam),
            ratio_eval_piecewise(back, n, m, lam),
            rel_tol=1e-10,
        )
        for lam in (0.5, 1.0, 5.0)
        for n, m in ((2, 1), (3, 2))
    )
    check("translation invariance of the piecewise ratio", shift_ok)

    step = step_example(5)
    check(
        "convolution residual vanishes for identical functions",
        all(convolution_residual(step, step, 2, 1, t) == 0.0 for t in (0.5, 1.0, 2.0)),
    )

    # the unit exponential law's transforms L{(1 - e^(-x))^j}(a) = B(a, j + 1)
    # give its power ratio H exactly; its K is 1 / (1 + a)
    exponential = [
        (float(beta_rational(a, N) / beta_rational(a, N + 1)), k_analytic_exponential(1.0, a), N)
        for a in (1, 2, 5)
        for N in (2, 5, 10)
    ]
    kh_ok = all(
        math.isclose(k_from_h(h, N), k, rel_tol=1e-12) and math.isclose(h_from_k(k, N), h, rel_tol=1e-12)
        for h, k, N in exponential
    )
    check("K and the exponential law's power ratio convert by the order-statistic identity", kh_ok)

    law = {"kind": "exponential", "theta": 1.0}
    model = ff.model_from_document({"common": {"kind": "point_mass", "v": 0.0}, "idiosyncratic": law, "N": 5})
    check(
        "quadrature matches the exponential closed form",
        abs(k_quadrature(model, 1.0, tol=1e-10) - 0.5) <= 1e-10,
    )

    cfg = McConfig(20_000, seed=7)
    crit = 1.63 * math.sqrt(2 / cfg.samples)
    check(
        "memoryless identity accepted and control rejected",
        memoryless_check(1.0, 3, cfg) < crit < memoryless_check(1.0, 3, cfg, control=True),
    )

    table = simulate_bids(model, McConfig(200_000, seed=13))
    est, se = k_monte_carlo(table, 1.0)
    check("Monte Carlo K within 4 standard errors of 1/2", abs(est - 0.5) < 4 * se)

    failed = [name for name, ok in checks if not ok]
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
