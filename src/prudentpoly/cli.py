"""Command-line front end: enumeration, oracle checks, constants, residual data.

Subcommands
    enumerate   counting sequences from the generating-function routes
    oracle      brute-force counts
    verify      oracle vs series side by side (exit 3 on mismatch)
    constants   kappa_0, kappa_k, amplitude, exponents, pole list, U(1/2)
    gf-check    two evaluation routes of PA(q) and their difference
    residuals   scaled counts minus the T-term model, per n
    fit         least-squares critical-exponent estimate

Output is CSV (default) or JSON ({config, columns, rows}).  Every run echoes
its resolved configuration; reruns are byte-identical except the timestamp
header, which --no-timestamp suppresses.  Exit codes: 0 success; 1 usage
error, found before any work is done, or an --output path that cannot be
written; 2 domain error; 3 verification mismatch, including a broken
internal invariant (reported as "internal error: ..." on stderr).
PRUDENTPOLY_DIGITS overrides the default precision (40 digits).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone

from mpmath import mp, mpc, mpf

from . import asymptotics, enumeration, oracle

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_MISMATCH = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _digits(text: str) -> int:
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"digits must be a positive integer (got {text!r} from --digits "
        "or PRUDENTPOLY_DIGITS)")


def _at_least(low: int):
    """An argparse type: an integer >= low."""
    def integer(text: str) -> int:
        value = int(text)       # argparse reports "invalid integer value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low} (got {text!r})")
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
    # a string default goes through _digits too, so a bad environment value
    # is a usage error unless --digits overrides it
    p.add_argument("--digits", type=_digits,
                   default=os.environ.get("PRUDENTPOLY_DIGITS", "40"),
                   help="working precision in significant digits")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp header field")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="prudentpoly",
                  description="prudent self-avoiding polygons by area")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", parents=[], help="series counts")
    p.add_argument("--k", type=int, choices=(2, 3, 4), required=True)
    p.add_argument("--max-area", type=_positive, required=True)
    p.add_argument("--method", choices=("theorem", "functional"), default=None,
                   help="3-sided route (theorem default)")
    _add_common(p)

    p = sub.add_parser("oracle", help="brute-force counts")
    p.add_argument("--k", type=int, choices=(2, 3, 4), required=True)
    p.add_argument("--max-area", type=_positive, required=True)
    p.add_argument("--walk-class", choices=("prudent", "boundary"),
                   default="prudent",
                   help="boundary drops the ray condition (see README)")
    _add_common(p)

    p = sub.add_parser("verify", help="oracle vs series")
    p.add_argument("--k", type=int, choices=(2, 3, 4), required=True)
    p.add_argument("--max-area", type=_positive, required=True)
    _add_common(p)

    p = sub.add_parser("constants", help="asymptotic constants")
    p.add_argument("--harmonics", type=_count, default=2)
    _add_common(p)

    p = sub.add_parser("gf-check", help="compare PA(q) routes")
    p.add_argument("--q", type=_point, required=True,
                   help="evaluation point, 're' or 're,im'")
    p.add_argument("--methods", type=_routes, required=True,
                   help="comma-separated pair, e.g. taylor,singular")
    _add_common(p)

    p = sub.add_parser("residuals", help="scaled counts minus the model")
    p.add_argument("--max-n", type=_positive, required=True)
    p.add_argument("--terms", type=_count, default=5)
    p.add_argument("--min-n", type=_at_least(2), default=2)
    _add_common(p)

    p = sub.add_parser("fit", help="critical exponent fit")
    p.add_argument("--k", type=int, choices=(2, 3, 4), required=True)
    p.add_argument("--max-n", type=_positive, required=True)
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
    config = dict(config)
    config["digits"] = args.digits
    config["format"] = args.format
    if not args.no_timestamp:
        config["timestamp"] = datetime.now(timezone.utc).isoformat()
    if args.format == "json":
        text = json.dumps({"config": config, "columns": columns, "rows": rows},
                          indent=2) + "\n"
    else:
        lines = [f"# {key}={value}" for key, value in config.items()]
        lines.append(",".join(columns))
        lines.extend(",".join(str(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --output: {exc}") from None
    else:
        sys.stdout.write(text)


def _num(x, digits: int) -> str:
    return mp.nstr(mpf(x), digits, strip_zeros=False)


def _series_for(k: int, max_area: int, method: str = "theorem"):
    if k == 2:
        return enumeration.pa2_series(max_area)
    if k == 3:
        return enumeration.pa3_series(max_area, method)
    return enumeration.pa4_series(max_area)


def _cmd_enumerate(args) -> int:
    table = _series_for(args.k, args.max_area, args.method or "theorem")
    config = {"command": "enumerate", "k": args.k, "max_area": args.max_area,
              "method": table.method}
    rows = [[n, table.count(n)] for n in range(1, args.max_area + 1)]
    _emit(args, config, ["n", "count"], rows)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    table = oracle.enumerate_prudent_polygons(
        args.k, args.max_area, walk_class=args.walk_class)
    config = {"command": "oracle", "k": args.k, "max_area": args.max_area,
              "walk_class": args.walk_class}
    rows = [[n, table.count(n)] for n in range(1, args.max_area + 1)]
    _emit(args, config, ["n", "count"], rows)
    return EXIT_OK


def _cmd_verify(args) -> int:
    brute = oracle.enumerate_prudent_polygons(args.k, args.max_area)
    series = _series_for(args.k, args.max_area)
    rows = []
    ok = True
    for n in range(1, args.max_area + 1):
        a, b = brute.count(n), series.count(n)
        verdict = "MATCH" if a == b else "MISMATCH"
        ok = ok and a == b
        rows.append([n, a, b, verdict])
    config = {"command": "verify", "k": args.k, "max_area": args.max_area}
    _emit(args, config, ["n", "oracle", "series", "verdict"], rows)
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_constants(args) -> int:
    d = args.digits
    with mp.workdps(d + 10):
        rows = []
        k0 = asymptotics.kappa0(dps=d)
        rows.append(["kappa0", _num(k0, d), _num(0, d)])
        for k in range(1, args.harmonics + 1):
            kk = asymptotics.kappa(k, dps=d)
            rows.append([f"kappa{k}", _num(kk.real, d), _num(kk.imag, d)])
            rows.append([f"kappa-{k}", _num(kk.real, d), _num(-kk.imag, d)])
        two_k1, max_abs = asymptotics.oscillation_amplitude(dps=d)
        rows.append(["amplitude_2k1", _num(two_k1, d), _num(0, d)])
        rows.append(["amplitude_max", _num(max_abs, d), _num(0, d)])
        g = mp.log(3) / mp.log(2)
        rows.append(["g", _num(g, d), _num(0, d)])
        rows.append(["gamma0", _num(g - 1, d), _num(0, d)])
        for i, z in enumerate(asymptotics.poles(8, dps=d), 1):
            rows.append([f"zbar{i}", _num(z, d), _num(0, d)])
        rows.append(["theta", _num(asymptotics.theta_root(dps=d), d), _num(0, d)])
        rows.append(["U_half", _num(asymptotics.U_eval(mpf(1) / 2, dps=d), d),
                     _num(0, d)])
    config = {"command": "constants", "harmonics": args.harmonics}
    _emit(args, config, ["name", "re", "im"], rows)
    return EXIT_OK


def _cmd_gf_check(args) -> int:
    methods, d = args.methods, args.digits
    with mp.workdps(d + 10):
        q = _parse_q(args.q)
        values = [asymptotics.gf_eval(q, m, dps=d) for m in methods]
        diff = values[0] - values[1]
        rows = [[methods[i], _num(mpc(values[i]).real, d),
                 _num(mpc(values[i]).imag, d)] for i in range(2)]
        rows.append(["difference", _num(mpc(diff).real, d),
                     _num(mpc(diff).imag, d)])
        rows.append(["abs_difference", _num(abs(diff), d), _num(0, d)])
    config = {"command": "gf-check", "q": args.q,
              "methods": ",".join(methods)}
    _emit(args, config, ["name", "re", "im"], rows)
    return EXIT_OK


def _cmd_residuals(args) -> int:
    d = args.digits
    table = asymptotics.residuals(args.max_n, terms=args.terms, dps=d,
                                  min_n=args.min_n)
    with mp.workdps(d + 10):
        # log2 n from the residuals' table of log n over the primes
        bits = mp.prec + asymptotics._GUARD_BITS
        logs = asymptotics._prime_table(args.max_n, bits)[0]
        per_log = 1 / mp.log(2)
        rows = [[n, _num(mp.ldexp(logs[n], -bits) * per_log, d), _num(s, d),
                 _num(r, d)] for n, s, r in table.rows]
    config = {"command": "residuals", "max_n": args.max_n,
              "terms": args.terms, "min_n": args.min_n,
              "source": table.source}
    _emit(args, config, ["n", "log2_n", "scaled_count", "residual"], rows)
    return EXIT_OK


def _cmd_fit(args) -> int:
    d = args.digits
    k = args.k
    with mp.workdps(d + 10):
        counts = _series_for(k, args.max_n)
        g = mp.log(3) / mp.log(2)
        reference = {2: mpf(0), 3: g, 4: 1 + g}[k]
        fitted = asymptotics.exponent_fit(counts, dps=d)
        rows = [[k, args.max_n, _num(fitted, d), _num(reference, d)]]
    config = {"command": "fit", "k": k, "max_n": args.max_n}
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
        return _COMMANDS[args.command](args)
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
