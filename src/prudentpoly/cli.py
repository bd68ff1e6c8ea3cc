"""Command-line front end: enumeration, oracle checks, constants, residual data.

Subcommands
    enumerate   counting sequences from the generating-function routes
    oracle      brute-force counts
    verify      oracle vs series side by side (exit 3 on mismatch)
    constants   kappa_0, kappa_k, amplitude, exponents, pole list, U(1/2)
    gf-check    two evaluation routes of PA(q) and their difference
    residuals   scaled counts minus the T-term model, per n
    fit         least-squares critical-exponent estimate

Every command computes at --digits + 10 digits and prints values to
--digits significant digits, 40 by default.  Output is CSV (default) or
JSON ({config, columns, rows}), written a row at a time.  Every run echoes
its resolved configuration; reruns are byte-identical except the timestamp
header, which --no-timestamp suppresses.  Exit codes: 0 success; 1 usage
error, found before any work is done (--digits past 10000 and --harmonics
past 1000 among them), or an --output path that cannot be written; 2 domain
error, such as an order past a solver's memory budget; 3 verification
mismatch, including a broken internal invariant (reported as
"internal error: ..." on stderr); 141 (128 + SIGPIPE, what a shell reports
for a tool that a closed pipe stops) when the reader of stdout closes it
before the output ends, as `| head` does, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone

from mpmath import mp, mpc, mpf
from mpmath.libmp import mpf_pos, round_nearest, to_str

from . import asymptotics, enumeration, oracle

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_MISMATCH = 3
EXIT_BROKEN_PIPE = 141

# `residuals --max-n 6` took 25 s at 4000 digits on one core of a 2-core host
_MAX_DIGITS = 10000
# one kappa_k took 0.5 ms at 40 digits and 0.16 s at 1000 on a 2-core host:
# `constants --harmonics 1000` ran in 0.7 s, and would take ~3 min at 1000
_MAX_HARMONICS = 1000


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _at_least(low: int, high: float = float("inf")):
    """An argparse type: an integer from low up to high."""
    def integer(text: str) -> int:
        value = int(text)       # argparse reports "invalid integer value"
        if not low <= value <= high:
            bound = f">= {low}" if value < low else f"<= {high}"
            raise argparse.ArgumentTypeError(f"must be {bound} (got {text!r})")
        return value
    return integer


_count = _at_least(0)
_positive = _at_least(1)


def _parse_q(text: str):
    """'re' or 're,im' at the caller's precision, else a ValueError."""
    parts = text.split(",")
    if len(parts) > 2:
        raise ValueError(text)
    return mpc(*map(mpf, parts)) if len(parts) == 2 else mpf(parts[0])


def _point(text: str) -> str:
    """--q, checked here; the command parses it again."""
    try:
        finite = mp.isfinite(_parse_q(text))
    except ValueError:
        finite = False
    if not finite:
        raise argparse.ArgumentTypeError(
            f"must be a finite number, 're' or 're,im' (got {text!r})")
    return text


def _routes(text: str) -> list:
    """--methods: two route names of asymptotics.GF_ROUTES, comma-separated."""
    methods = [m.strip() for m in text.split(",") if m.strip()]
    if len(methods) != 2 or not set(methods) <= set(asymptotics.GF_ROUTES):
        raise argparse.ArgumentTypeError(
            "needs two route names out of " + ", ".join(asymptotics.GF_ROUTES))
    return methods


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--digits", type=_at_least(1, _MAX_DIGITS), default=40,
                   help="working precision in significant digits")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp header field")


def _option(*args, **kwargs) -> argparse.ArgumentParser:
    """A parent parser that declares one option for the commands naming it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*args, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="prudentpoly",
                  description="prudent self-avoiding polygons by area")
    sub = top.add_subparsers(dest="command", required=True)
    k = _option("--k", type=int, choices=(2, 3, 4), required=True)
    area = _option("--max-area", type=_positive, required=True)
    max_n = _option("--max-n", type=_positive, required=True)

    p = sub.add_parser("enumerate", parents=[k, area], help="series counts")
    p.add_argument("--method", choices=("theorem", "functional"), default=None,
                   help="3-sided route (theorem default)")
    _add_common(p)

    p = sub.add_parser("oracle", parents=[k, area], help="brute-force counts")
    p.add_argument("--walk-class", choices=("prudent", "boundary"),
                   default="prudent",
                   help="boundary drops the ray condition (see README)")
    _add_common(p)

    p = sub.add_parser("verify", parents=[k, area], help="oracle vs series")
    _add_common(p)

    p = sub.add_parser("constants", help="asymptotic constants")
    p.add_argument("--harmonics", type=_at_least(0, _MAX_HARMONICS), default=2)
    _add_common(p)

    p = sub.add_parser("gf-check", help="compare PA(q) routes")
    p.add_argument("--q", type=_point, required=True,
                   help="evaluation point, 're' or 're,im'")
    p.add_argument("--methods", type=_routes, required=True,
                   help="comma-separated pair, e.g. taylor,singular")
    _add_common(p)

    p = sub.add_parser("residuals", parents=[max_n],
                       help="scaled counts minus the model")
    p.add_argument("--terms", type=_count, default=5)
    p.add_argument("--min-n", type=_at_least(2), default=2)
    _add_common(p)

    p = sub.add_parser("fit", parents=[k, max_n], help="critical exponent fit")
    _add_common(p)

    return top


def _cross_check(args) -> str | None:
    """The usage error between two options, if any."""
    if args.command == "enumerate" and args.method and args.k != 3:
        return "--method applies to --k 3 only"
    if args.command == "residuals" and args.min_n > args.max_n:
        return "--min-n must not exceed --max-n"
    return None


def _emit(args, config: dict, columns: list, rows: list) -> None:
    config = {"command": args.command, **config, "digits": args.digits,
              "format": args.format}
    if not args.no_timestamp:
        config["timestamp"] = datetime.now(timezone.utc).isoformat()
    if not args.output:
        _write(sys.stdout, args.format, config, columns, rows)
        return
    try:
        with open(args.output, "w") as fh:
            _write(fh, args.format, config, columns, rows)
    except OSError as exc:
        raise UsageError(f"cannot write --output: {exc}") from None


def _write(fh, fmt: str, config: dict, columns: list, rows: list) -> None:
    """The document a piece at a time, so no copy of the whole text is
    held: the config lines, the header, then one row per write."""
    # a count may pass CPython's int-to-str limit, 4300 digits by default
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            doc = {"config": config, "columns": columns, "rows": rows}
            json.dump(doc, fh, indent=2)
            fh.write("\n")
            return
        for key, value in config.items():
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    finally:
        sys.set_int_max_str_digits(limit)


def _num(x: mpf, digits: int) -> str:
    """x to ``digits`` significant digits: the bytes of
    ``mp.nstr(mpf(x), digits, strip_zeros=False)``, without the wrappers.
    x is rounded to the working precision as ``mpf(x)`` rounds it, then
    printed by ``to_str``, the function that ``nstr`` ends in."""
    return to_str(mpf_pos(x._mpf_, mp.prec, round_nearest), digits,
                  strip_zeros=False)


def _value_rows(pairs, digits: int) -> list:
    """[name, re, im] rows of (name, real or complex value) pairs."""
    return [[name, _num(mpc(v).real, digits), _num(mpc(v).imag, digits)]
            for name, v in pairs]


def _count_rows(max_area: int, *tables) -> list:
    """[n, count, ...] rows, one count column per table."""
    return [[n, *(t.count(n) for t in tables)]
            for n in range(1, max_area + 1)]


def _series_for(k: int, max_area: int, method: str = "theorem"):
    if k == 2:
        return enumeration.pa2_series(max_area)
    if k == 3:
        return enumeration.pa3_series(max_area, method)
    return enumeration.pa4_series(max_area)


def _cmd_enumerate(args) -> int:
    table = _series_for(args.k, args.max_area, args.method or "theorem")
    config = {"k": args.k, "max_area": args.max_area, "method": table.method}
    _emit(args, config, ["n", "count"], _count_rows(args.max_area, table))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    table = oracle.enumerate_prudent_polygons(
        args.k, args.max_area, walk_class=args.walk_class)
    config = {"k": args.k, "max_area": args.max_area,
              "walk_class": args.walk_class}
    _emit(args, config, ["n", "count"], _count_rows(args.max_area, table))
    return EXIT_OK


def _cmd_verify(args) -> int:
    brute = oracle.enumerate_prudent_polygons(args.k, args.max_area)
    series = _series_for(args.k, args.max_area)
    rows = [[n, a, b, "MATCH" if a == b else "MISMATCH"]
            for n, a, b in _count_rows(args.max_area, brute, series)]
    config = {"k": args.k, "max_area": args.max_area}
    _emit(args, config, ["n", "oracle", "series", "verdict"], rows)
    return EXIT_MISMATCH if any(r[-1] == "MISMATCH" for r in rows) else EXIT_OK


def _cmd_constants(args) -> int:
    d = args.digits
    pairs = [("kappa0", asymptotics.kappa(0, dps=d))]
    for k in range(1, args.harmonics + 1):
        kk = asymptotics.kappa(k, dps=d)
        pairs += [(f"kappa{k}", kk), (f"kappa-{k}", mp.conj(kk))]
    two_k1, max_abs = asymptotics.oscillation_amplitude(dps=d)
    g = mp.log(3) / mp.log(2)
    pairs += [("amplitude_2k1", two_k1), ("amplitude_max", max_abs),
              ("g", g), ("gamma0", g - 1)]
    pairs += [(f"zbar{i}", z)
              for i, z in enumerate(asymptotics.poles(8, dps=d), 1)]
    pairs += [("theta", asymptotics.theta_root(dps=d)),
              ("U_half", asymptotics.U_eval(mpf(1) / 2, dps=d))]
    config = {"harmonics": args.harmonics}
    _emit(args, config, ["name", "re", "im"], _value_rows(pairs, d))
    return EXIT_OK


def _cmd_gf_check(args) -> int:
    q, methods = _parse_q(args.q), args.methods
    values = [asymptotics.gf_eval(q, m, dps=args.digits) for m in methods]
    diff = values[0] - values[1]
    pairs = [*zip(methods, values), ("difference", diff),
             ("abs_difference", abs(diff))]
    config = {"q": args.q, "methods": ",".join(methods)}
    _emit(args, config, ["name", "re", "im"], _value_rows(pairs, args.digits))
    return EXIT_OK


def _cmd_residuals(args) -> int:
    d = args.digits
    table = asymptotics.residuals(args.max_n, terms=args.terms, dps=d,
                                  min_n=args.min_n)
    rows = [[n, _num(u, d), _num(s, d), _num(r, d)]
            for (n, s, r), u in zip(table.rows, table.log2_n)]
    config = {"max_n": args.max_n, "terms": args.terms, "min_n": args.min_n,
              "source": table.source}
    _emit(args, config, ["n", "log2_n", "scaled_count", "residual"], rows)
    return EXIT_OK


def _cmd_fit(args) -> int:
    d, k = args.digits, args.k
    counts = _series_for(k, args.max_n)
    g = mp.log(3) / mp.log(2)
    reference = {2: mpf(0), 3: g, 4: 1 + g}[k]
    fitted = asymptotics.exponent_fit(counts, dps=d)
    rows = [[k, args.max_n, _num(fitted, d), _num(reference, d)]]
    config = {"k": k, "max_n": args.max_n}
    _emit(args, config, ["k", "max_n", "fitted_exponent", "reference"], rows)
    return EXIT_OK


class UsageError(Exception):
    pass


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "constants": _cmd_constants,
    "gf-check": _cmd_gf_check,
    "residuals": _cmd_residuals,
    "fit": _cmd_fit,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    problem = _cross_check(args)
    if problem:
        print(f"{parser.prog} {args.command}: error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with mp.workdps(args.digits + 10):
            code = _COMMANDS[args.command](args)
        sys.stdout.flush()      # a closed reader shows here, not at exit
        return code
    except BrokenPipeError:
        # what is still buffered goes to os.devnull, so the flush at exit
        # meets no closed pipe and prints nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except enumeration.DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, AssertionError) as exc:
        # a broken invariant: a failed self-check of a fixed point or a
        # Newton solve, or a count table that breaks its own rules
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
