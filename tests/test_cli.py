"""CLI: output formats, determinism, exit codes, configuration echo."""

from __future__ import annotations

import argparse
import ast
import contextlib
import csv
import hashlib
import io
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

import prudentpoly
from prudentpoly import cli, enumeration

from conftest import time_limit
from limits import KERNELS, LIMITS

# every CLI route that reaches an exact solver's guard, and the solver's row
GUARDED = {name: (route, limit)
           for limit in LIMITS.values() for name, route in limit.cli.items()}


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEnumerate:
    def test_three_sided_fixture(self, capsys):
        code, out, _ = run(["enumerate", "--k", "3", "--max-area", "10",
                            "--no-timestamp"], capsys)
        assert code == 0
        _, columns, rows = _parse_output(out, "csv")
        assert columns == ["n", "count"]
        assert [r[1] for r in rows] == \
            ["6", "10", "20", "42", "92", "204", "454", "1010", "2242", "4962"]

    def test_big_integers_full_decimal(self, capsys):
        code, out, _ = run(["enumerate", "--k", "2", "--max-area", "80",
                            "--no-timestamp"], capsys)
        assert code == 0
        assert str(2 ** 80 + 2) in out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_counts_past_the_int_str_limit(self, fmt, capsys):
        # 2^14300 + 2 has 4306 digits, past CPython's default limit of 4300
        # for int-to-str conversion, which is back in force afterwards;
        # Decimal reads the digits without that limit
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(["enumerate", "--k", "2", "--max-area", "14300",
                            "--format", fmt, "--no-timestamp"], capsys)
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        if fmt == "json":
            last = json.loads(out, parse_int=Decimal)["rows"][-1]
        else:
            last = out.splitlines()[-1].split(",")
        assert Decimal(last[0]) == 14300
        assert Decimal(last[1]) == Decimal(2 ** 14300 + 2)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_is_written_a_row_at_a_time(self, fmt, tmp_path):
        # the 6000 rows of pa2_series print about 5.5 MB; building that
        # text whole peaked at 2-3 times its size
        rows = cli._count_rows(6000, enumeration.pa2_series(6000))
        path = tmp_path / f"rows.{fmt}"
        args = argparse.Namespace(command="enumerate", digits=40, format=fmt,
                                  no_timestamp=True, output=str(path))
        tracemalloc.start()
        try:
            cli._emit(args, {"k": 2}, ["n", "count"], rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 5_000_000
        assert peak < size / 10, (peak, size)

    def test_json_schema(self, capsys):
        code, out, _ = run(["enumerate", "--k", "2", "--max-area", "3",
                            "--format", "json", "--no-timestamp"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"config", "columns", "rows"}
        assert doc["columns"] == ["n", "count"]
        assert doc["rows"] == [[1, 4], [2, 6], [3, 10]]
        assert doc["config"]["command"] == "enumerate"

    def test_method_only_for_three_sided(self, capsys):
        code, _, err = run(["enumerate", "--k", "2", "--max-area", "3",
                            "--method", "theorem"], capsys)
        assert code == 1
        assert "error" in err

    def test_deterministic_without_timestamp(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            assert cli.main(["enumerate", "--k", "3", "--max-area", "12",
                             "--no-timestamp", "--output", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_timestamp_is_only_difference(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            assert cli.main(["enumerate", "--k", "2", "--max-area", "5",
                             "--output", str(p)]) == 0
        a = paths[0].read_text().splitlines()
        b = paths[1].read_text().splitlines()
        diff = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
        assert all(a[i].startswith("# timestamp=") for i in diff)


class TestVerify:
    def test_match_exit_zero(self, capsys):
        code, out, _ = run(["verify", "--k", "3", "--max-area", "4",
                            "--no-timestamp"], capsys)
        assert code == 0
        assert out.count("MATCH") == 4 and "MISMATCH" not in out

    def test_mismatch_exit_three(self, capsys, monkeypatch):
        from prudentpoly.enumeration import CountTable

        def fake(k, max_area, walk_class="prudent"):
            return CountTable(3, tuple(2 * n for n in range(1, max_area + 1)),
                              "oracle")

        monkeypatch.setattr(cli.oracle, "enumerate_prudent_polygons", fake)
        code, out, _ = run(["verify", "--k", "3", "--max-area", "3",
                            "--no-timestamp"], capsys)
        assert code == 3
        assert "MISMATCH" in out


class TestErrors:
    def test_usage_error_exit_one(self, capsys):
        code, _, _ = run(["enumerate", "--k", "7", "--max-area", "3"], capsys)
        assert code == 1

    def test_domain_error_exit_two(self, capsys):
        code, _, err = run(["gf-check", "--q", "0.6",
                            "--methods", "taylor,meromorphic"], capsys)
        assert code == 2
        assert "domain error" in err

    @pytest.mark.parametrize("q", ["0.52", "0.55,1e-9"])
    def test_pi_harmonics_refused_exit_two(self, q, capsys):
        # at q = 0.52 the harmonics of Pi(w) do not decay; at 0.55 + 1e-9i
        # they shrink by 1 - 1.4e-7 per step, and the truncation rule would
        # need billions of them
        with time_limit(5):
            code, out, err = run(["gf-check", "--q", q, "--methods",
                                  "singular,taylor", "--no-timestamp"], capsys)
        assert code == 2
        assert out == ""
        assert "Pi(w) harmonics" in err

    def test_oracle_budget_domain_error(self, capsys):
        code, _, _ = run(["oracle", "--k", "2", "--max-area", "13"], capsys)
        assert code == 2

    @staticmethod
    def refused(argv, capsys, monkeypatch):
        # exit 2 at once, before any kernel runs (a call to one would be
        # exit 3); returns stderr
        for kernel in KERNELS:
            monkeypatch.setattr(cli.enumeration, kernel, None)
        with time_limit(1):
            code, out, err = run([*argv, "--no-timestamp"], capsys)
        assert code == 2 and out == ""
        assert "domain error" in err and "MiB" in err
        return err

    @pytest.mark.parametrize("route, limit", GUARDED.values(),
                             ids=list(GUARDED))
    def test_order_past_the_budget_exit_two(self, route, limit, capsys,
                                            monkeypatch):
        self.refused([*route, str(limit.first_refused)], capsys, monkeypatch)

    @pytest.mark.parametrize("route", [r for r, _ in GUARDED.values()],
                             ids=list(GUARDED))
    def test_order_too_wide_for_a_float_exit_two(self, route, capsys,
                                                 monkeypatch):
        # the memory estimates are floats; an order past their range is
        # refused by the same budget
        self.refused([*route, str(10 ** 400)], capsys, monkeypatch)

    @pytest.mark.parametrize("route", ["k2", "fit-k2"],
                             ids=["enumerate", "fit"])
    def test_two_sided_memory_guard_exit_two(self, route, capsys,
                                             monkeypatch):
        # the closed form's two expansions would need about 13 PB
        err = self.refused([*GUARDED[route][0], "10000000000"], capsys,
                           monkeypatch)
        assert "domain error: 2-sided order 10000000000" in err

    @pytest.mark.parametrize("route", ["k3", "residuals"],
                             ids=["enumerate", "residuals"])
    def test_three_sided_theorem_memory_guard_exit_two(self, route, capsys,
                                                       monkeypatch):
        # order 200000 needs about 10 GiB on the theorem route (and hours)
        err = self.refused([*GUARDED[route][0], "200000"], capsys,
                           monkeypatch)
        assert "3-sided theorem order 200000" in err

    def test_three_sided_functional_memory_guard_exit_two(self, capsys,
                                                          monkeypatch):
        err = self.refused([*GUARDED["k3-functional"][0], "200000"], capsys,
                           monkeypatch)
        assert "3-sided functional order 200000" in err

    def test_four_sided_memory_guard_exit_two(self, capsys, monkeypatch):
        err = self.refused([*GUARDED["k4"][0], "10000"], capsys, monkeypatch)
        assert "4-sided order 10000" in err

    def test_broken_invariant_exit_three(self, capsys, monkeypatch):
        # a term of the 4-sided solver's Z at q^(s-1), below its support on
        # diagonal s = i + j, breaks the solver's invariant; its guard reports
        step = cli.enumeration._pa4_step

        def below(s, *kept):
            x, y, z = step(s, *kept)
            if s == 4:
                z[0][0] = 1
            return x, y, z

        monkeypatch.setattr(cli.enumeration, "_pa4_step", below)
        code, out, err = run(["enumerate", "--k", "4", "--max-area", "5",
                              "--no-timestamp"], capsys)
        assert code == 3
        assert out == ""
        assert "internal error" in err and "outside the support" in err
        assert "Traceback" not in err

    def test_oracle_invariant_exit_three(self, capsys, monkeypatch):
        # a diagonal south step lets a prudent walk end inside its box;
        # the search's invariant check reports it
        monkeypatch.setitem(cli.oracle._STEPS, "S", (1, -1))
        code, out, err = run(["oracle", "--k", "4", "--max-area", "4",
                              "--no-timestamp"], capsys)
        assert code == 3
        assert out == ""
        assert "internal error" in err and "left the box boundary" in err
        assert "Traceback" not in err

    def test_support_bound_exit_three(self, capsys, monkeypatch):
        # storing row i = 2 of the 4-sided solver's X and Y one coefficient
        # short of its support drops a term, which its guard reports
        step = cli.enumeration._pa4_step

        def tight(s, *kept):
            x, y, z = step(s, *kept)
            if s >= 5:
                x[1].pop()
                y[1].pop()
            return x, y, z

        monkeypatch.setattr(cli.enumeration, "_pa4_step", tight)
        code, out, err = run(["enumerate", "--k", "4", "--max-area", "12",
                              "--no-timestamp"], capsys)
        assert code == 3
        assert out == ""
        assert "internal error" in err and "outside the support" in err
        assert "Traceback" not in err

    def test_functional_route_invariant_exit_three(self, capsys, monkeypatch):
        # a u^1 block with a constant makes the 3-sided functional route put
        # a width-1 polygon at area 0, which the series' width cap refuses
        blocks = cli.enumeration._w_blocks

        def constant_in_u1(n):
            for k, w in enumerate(blocks(n)):
                yield [1] + w[1:] if k == 1 else w

        monkeypatch.setattr(cli.enumeration, "_w_blocks", constant_in_u1)
        code, out, err = run(["enumerate", "--k", "3", "--method",
                              "functional", "--max-area", "10",
                              "--no-timestamp"], capsys)
        assert code == 3
        assert out == ""
        assert "internal error" in err
        assert "catalytic degree 1 exceeds area degree" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["residuals", "--max-n", "20", "--terms", "-1"],
        ["constants", "--harmonics", "-2"]])
    def test_negative_count_is_usage_error(self, argv, capsys):
        code, out, err = run(argv + ["--no-timestamp"], capsys)
        assert code == 1 and out == ""
        assert "must be >= 0" in err

    @pytest.mark.parametrize("argv, option", [
        (["gf-check", "--q", "abc", "--methods", "taylor,meromorphic"], "--q"),
        (["gf-check", "--q", "nan", "--methods", "taylor,meromorphic"], "--q"),
        (["gf-check", "--q", "0.25", "--methods", "taylor,bogus"],
         "--methods"),
        (["enumerate", "--k", "3", "--max-area", "0"], "--max-area"),
        (["residuals", "--max-n", "20", "--min-n", "1"], "--min-n"),
        (["constants", "--digits", "10001"], "--digits: must be <= 10000"),
        (["constants", "--digits", "x"], "--digits: invalid integer value")],
        ids=["q-not-a-number", "q-nan", "unknown-route", "max-area-0",
             "min-n-1", "digits-past-the-cap", "digits-not-an-integer"])
    def test_bad_input_is_usage_error(self, argv, option, capsys):
        code, out, err = run(argv + ["--no-timestamp"], capsys)
        assert code == 1 and out == ""
        assert f"error: argument {option}" in err

    def test_min_n_past_max_n_is_usage_error(self, capsys):
        code, out, err = run(["residuals", "--max-n", "20", "--min-n", "21",
                              "--no-timestamp"], capsys)
        assert code == 1 and out == ""
        assert "--min-n must not exceed --max-n" in err

    def test_unwritable_output_exit_one(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run(["enumerate", "--k", "2", "--max-area", "3",
                              "--output", str(path), "--no-timestamp"], capsys)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and str(path) in err
        assert "Traceback" not in err

    def test_odd_three_sided_count_exit_three(self, capsys, monkeypatch):
        # a theorem kernel that returns one odd count breaks the reflection
        # symmetry the count table checks
        kernel = cli.enumeration._pa3_theorem_coeffs
        monkeypatch.setattr(cli.enumeration, "_pa3_theorem_coeffs",
                            lambda n: [c + (i == 5) for i, c in
                                       enumerate(kernel(n))])
        code, out, err = run(["enumerate", "--k", "3", "--max-area", "10",
                              "--no-timestamp"], capsys)
        assert code == 3 and out == ""
        assert "internal error" in err and "must be even" in err
        assert "Traceback" not in err

    def test_block_past_the_width_cap_exit_three(self, capsys, monkeypatch):
        # a functional route that puts width 5 at area 0 breaks the series'
        # own bound, catalytic degree <= area degree
        blocks = cli.enumeration._w_blocks
        monkeypatch.setattr(cli.enumeration, "_w_blocks",
                            lambda n: itertools.chain(itertools.islice(
                                blocks(n), 5), [[1] + [0] * n]))
        code, out, err = run(["enumerate", "--k", "3", "--method",
                              "functional", "--max-area", "10",
                              "--no-timestamp"], capsys)
        assert code == 3 and out == ""
        assert "internal error" in err
        assert "catalytic degree 5 exceeds area degree" in err
        assert "Traceback" not in err

    def test_root_leaving_a_residual_exit_three(self, capsys, monkeypatch):
        # a solver that returns the low end of its bracket, not the root
        monkeypatch.setattr(cli.asymptotics.mp, "findroot",
                            lambda f, bracket, **kwargs: bracket[0])
        code, out, err = run(["constants", "--no-timestamp"], capsys)
        assert code == 3
        assert out == ""
        assert "internal error: root leaves a residual" in err

    @pytest.mark.parametrize("harmonics", ["1001", "1000000000"])
    def test_harmonics_past_the_cap_is_usage_error(self, harmonics, capsys):
        # a billion harmonics would take days; 1001 is one past the cap
        with time_limit(1):
            code, out, err = run(["constants", "--harmonics", harmonics,
                                  "--no-timestamp"], capsys)
        assert code == 1 and out == ""
        assert ("argument --harmonics: must be <= 1000 "
                f"(got '{harmonics}')") in err


# sha256 of `constants --harmonics 3 --digits 100 --no-timestamp`, recorded
# when amplitude_max began to sum kappa(u)'s harmonics by the truncation
# rule (only that row changed; it kept its first 21 significant digits)
CONSTANTS_ARGV = ["constants", "--harmonics", "3", "--digits", "100",
                  "--no-timestamp"]
CONSTANTS_SHA256 = \
    "fa2e264a033f010066510ee6853da04f86a76293fa9dd9e82892c2d8106d9b4d"


class TestConstants:
    def test_digest(self, capsys):
        code, out, _ = run(CONSTANTS_ARGV, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == CONSTANTS_SHA256

    def test_kappa_product_computed_once(self, capsys, monkeypatch):
        # 3 q-products shared by every kappa_k, 2 more for U(1/2)
        made = []
        pochhammer = cli.asymptotics.pochhammer

        def counted(*args, **kwargs):
            made.append(args)
            return pochhammer(*args, **kwargs)

        monkeypatch.setattr(cli.asymptotics, "pochhammer", counted)
        cli.asymptotics._kappa_product.cache_clear()
        code, out, _ = run(CONSTANTS_ARGV, capsys)
        assert code == 0 and len(made) == 5
        assert hashlib.sha256(out.encode()).hexdigest() == CONSTANTS_SHA256

    def test_kappa0_digits(self, capsys):
        code, out, _ = run(["constants", "--digits", "12", "--no-timestamp"],
                           capsys)
        assert code == 0
        row = next(line for line in out.splitlines() if line.startswith("kappa0,"))
        assert row.split(",")[1].startswith("0.1083842946")

    def test_complex_columns(self, capsys):
        code, out, _ = run(["constants", "--digits", "10", "--harmonics", "1",
                            "--no-timestamp"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[len([l for l in lines if l.startswith('#')])] == "name,re,im"
        k1 = next(l for l in lines if l.startswith("kappa1,"))
        km1 = next(l for l in lines if l.startswith("kappa-1,"))
        assert k1.split(",")[1] == km1.split(",")[1]


class TestEnvPrecision:
    def test_digits_below_one_is_usage_error(self, capsys):
        code, out, err = run(["constants", "--digits", "0",
                              "--no-timestamp"], capsys)
        assert code == 1 and out == ""
        assert "argument --digits: must be >= 1 (got '0')" in err



# sha256 of the stdout of each command with --no-timestamp.  The four
# residuals digests were recorded when the model's coefficients came to be
# taken at dps + 10 digits; their residual columns moved by up to 2.0e-35
# relative at 40 digits and 1.9e-54 at 60, the scaled counts kept every byte.
# The q = 0.25 digest was recorded before the evaluators shared one record
# of q, and the fit and constants digests before the roots and fits moved to
# mpmath's solvers.  The other six gf-check digests were recorded when the
# q-products and the meromorphic and doublesum tails moved onto fixed-point
# integers; their value rows kept every byte, their difference rows moved by
# <= 2.5e-108 at 100 digits and <= 1.2e-50 at 40.  The commands run at
# mpmath's default precision, as from a fresh interpreter, which --q must
# not depend on.  The two oracle digests were recorded before the oracle
# lost its box bound, which the length bound implies.
OUTPUT_SHA256 = [
    (["residuals", "--max-n", "1024", "--terms", "5", "--digits", "40"],
     "7ed591321483d3e391f69f7a60307a479b1c26e55b518fcfbf97a52bd282f495"),
    (["residuals", "--max-n", "1024", "--terms", "5", "--digits", "60"],
     "1175bc7766acbd5ac5cbc9e48a7b0294a54473b1aed8717c0dd7297b45fa5ed9"),
    # holds n = 2668, whose last printed residual digit needs n^g from
    # mp.exp, not from mp.e ** (g log n)
    (["residuals", "--max-n", "2700", "--min-n", "2600", "--terms", "5",
      "--digits", "40"],
     "7bb9426e24330fc1f5088229af801c920724db5bbaf074e2100333e61aed50fb"),
    (["gf-check", "--q", "0.25", "--methods", "taylor,meromorphic",
      "--digits", "100"],
     "623e40cd660d57d2b15156f2684d6cf342ca9add5386c890d9dea1af7b65fdd4"),
    (["gf-check", "--q", "0.4,0.05", "--methods", "taylor,meromorphic",
      "--digits", "100"],
     "605f665ce520ca894589e5e2cc09056c3b9deddee43e508f6813a976a2e41cd3"),
    (["gf-check", "--q", "0.47", "--methods", "doublesum,singular",
      "--digits", "100"],
     "7d2e26b08320a065e982b2ae5dd969ce6a993c75ea7c349c2e81c41e2ef04781"),
    (["gf-check", "--q", "0.49", "--methods", "doublesum,singular",
      "--digits", "100"],
     "b54ab0ab554c976427eeba49dd4b4eb05a6d704921058fd31f3d66efa0ea1736"),
    (["gf-check", "--q", "0.45", "--methods", "meromorphic,singular",
      "--digits", "100"],
     "ea6e26c0928919f1ac4268805a4cb7fb506d652a4802ff98074dd4f501794aae"),
    (["gf-check", "--q", "0.45", "--methods", "taylor,singular",
      "--digits", "40"],
     "58325f0b2412173ec5203e27c22e79e4dba29edb0d4bcb794fdbf88574f3d9fb"),
    (["gf-check", "--q", "0.515,0.025980762113533159",
      "--methods", "meromorphic,singular", "--digits", "40"],
     "83094ccd4798cf2fd44e5a566df7e3b1f05d2398f2761c06ed66b5ff818cedac"),
    # the JSON path, recorded before the log2_n column came with the rows
    (["residuals", "--max-n", "300", "--min-n", "200", "--terms", "5",
      "--digits", "60", "--format", "json"],
     "054ba262ec46d78633e17618aabfbd7f52110180657166609b9d2b7d2289765b"),
    (["fit", "--k", "2", "--max-n", "64"],
     "12611567bd159a3372fdbb3350a981876a837985cbadbfb5bf623fc018382f36"),
    (["fit", "--k", "4", "--max-n", "64", "--digits", "40"],
     "629aef58f43f9a68f78ecdea8956f3948740572700bbd9e7f5a4d431a6c92f7e"),
    (["fit", "--k", "3", "--max-n", "1000"],
     "e7ff614770649bd1a9d4ff431b008e0ca68c23bc331711cd492baa0935c105da"),
    (["constants"],
     "0c173966ddb6b886490db75e6a7926b8346e29f07c2472ee350f1b447cdfb123"),
    (["oracle", "--k", "4", "--max-area", "6", "--walk-class", "boundary"],
     "b342951729762bad415efc919c13ce2978642946853f3975dbc3e6733c742939"),
    (["oracle", "--k", "4", "--max-area", "6"],
     "bfd31092b3b7f3eb546d088e8e01475ab01a7cbfa10de415b07db8754862a62c"),
]


@pytest.mark.parametrize("argv, digest", OUTPUT_SHA256,
                         ids=[" ".join(a[1:]) for a, _ in OUTPUT_SHA256])
def test_output_digest(argv, digest, capsys):
    with mp.workdps(15):
        code, out, _ = run(argv + ["--no-timestamp"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestGfCheck:
    def test_zero_needs_no_log(self, capsys):
        # q = 0 is in the taylor and meromorphic domains; neither reads
        # gamma = log(v)/log(1/q)
        code, out, err = run(["gf-check", "--q", "0", "--methods",
                              "taylor,meromorphic", "--no-timestamp"], capsys)
        assert code == 0, err
        rows = {name: (re, im) for name, re, im in _parse_output(out, "csv")[2]}
        assert rows["taylor"] == rows["meromorphic"] == ("0.0", "0.0")

    def test_q_parsed_at_working_precision(self, capsys):
        # PA(q) = 6q + 10q^2 + O(q^3); q parsed at the caller's 15 digits
        # would spoil the 17th digit
        with mp.workdps(15):
            code, out, _ = run(["gf-check", "--q", "1e-30", "--methods",
                                "taylor,meromorphic", "--no-timestamp"],
                               capsys)
        assert code == 0
        rows = {name: (re, im) for name, re, im in _parse_output(out, "csv")[2]}
        expected = ("6.000000000000000000000000000010000000000e-30", "0.0")
        assert rows["taylor"] == rows["meromorphic"] == expected

    def test_route_pair(self, capsys):
        code, out, _ = run(["gf-check", "--q", "0.25",
                            "--methods", "taylor,meromorphic",
                            "--digits", "20", "--no-timestamp"], capsys)
        assert code == 0
        diff_row = next(l for l in out.splitlines()
                        if l.startswith("abs_difference,"))
        assert float(diff_row.split(",")[1]) < 1e-15

    def test_complex_point(self, capsys):
        code, out, _ = run(["gf-check", "--q", "0.47,0.026",
                            "--methods", "meromorphic,singular",
                            "--digits", "20", "--no-timestamp"], capsys)
        assert code == 0
        diff_row = next(l for l in out.splitlines()
                        if l.startswith("abs_difference,"))
        assert float(diff_row.split(",")[1]) < 1e-8


# --q values at the edges of the four routes' domains: zeros of either
# sign, a subnormal double, |q| = 0.55 and just under it, 1 and 2, the
# poles z_1..z_3 of the meromorphic tail 1e-60 to either side and 1e-60i
# off, values no route takes, and strings that are not numbers at all
with mp.workdps(80):
    _POLES = cli.asymptotics.poles(3, dps=80)
    EDGE_QS = ["0", "-0", "1e-309", "0.5499999", "0.55", "1", "2", "nan",
               "inf", "", "0,0.5499999", "0.47,0.026", "-0.3,0.3", "0,0",
               "1e-309,-1e-309", "0.5,", ",", "0.25,0.25,0.25", "1e309",
               *[mp.nstr(z + d, 75) for z in _POLES
                 for d in (mpf("1e-60"), -mpf("1e-60"))],
               *[mp.nstr(z, 75) + ",1e-60" for z in _POLES]]
ROUTE_PAIRS = [",".join(p) for p in itertools.permutations(
    cli.asymptotics.GF_ROUTES, 2)]


class TestGfCheckExitCodes:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(q=st.sampled_from(EDGE_QS), methods=st.sampled_from(ROUTE_PAIRS),
           digits=st.sampled_from(["1", "5", "40"]))
    def test_every_route_pair_keeps_the_exit_contract(self, q, methods,
                                                      digits):
        # an error no handler maps (ZeroDivisionError from a fixed-point
        # division, say) would escape cli.main as an exception; the smaller
        # taylor limit refuses at once the orders that would take seconds
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(cli.asymptotics, "TAYLOR_MAX_TERMS", 400), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["gf-check", "--q", q, "--methods", methods,
                             "--digits", digits, "--no-timestamp"])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            _, columns, rows = _parse_output(out.getvalue(), "csv")
            assert columns == ["name", "re", "im"]
            assert [r[0] for r in rows] == [
                *methods.split(","), "difference", "abs_difference"]


# option values at the edges: zero, negative, the smallest orders, past
# every budget, not numbers, not finite, empty
HUGE, WIDE = str(10 ** 30), str(10 ** 400)      # WIDE: past a float's range
EDGE_COUNTS = ["0", "-1", "1", "2", "3", "6", HUGE, WIDE, "nan", "1e309", ""]


class TestResidualsExitCodes:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(max_n=st.sampled_from(EDGE_COUNTS),
           min_n=st.sampled_from(EDGE_COUNTS),
           terms=st.sampled_from(EDGE_COUNTS),
           digits=st.sampled_from(EDGE_COUNTS))
    # each option past its limit with the others valid, and one valid run
    @example(max_n="6", min_n="2", terms="3", digits=HUGE)
    @example(max_n="6", min_n="2", terms=HUGE, digits="6")
    @example(max_n=HUGE, min_n="2", terms="3", digits="6")
    @example(max_n="6", min_n="2", terms="0", digits="1")
    def test_edge_options_keep_the_exit_contract(self, max_n, min_n, terms,
                                                 digits):
        # the smaller memory budget refuses at once the orders that would
        # take hours
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(cli.enumeration, "_MAX_MIB", 1), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["residuals", "--max-n", max_n, "--min-n", min_n,
                             "--terms", terms, "--digits", digits,
                             "--no-timestamp"])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            _, columns, rows = _parse_output(out.getvalue(), "csv")
            assert columns == ["n", "log2_n", "scaled_count", "residual"]
            assert [int(r[0]) for r in rows] == list(
                range(int(min_n), int(max_n) + 1))
            # one unit in the last printed digit, at most the 15th
            shown = min(int(digits), 15)
            for n, log2_n, *_ in rows:
                exact = math.log2(int(n))
                unit = 10.0 ** (math.floor(math.log10(exact)) + 1 - shown)
                assert abs(float(log2_n) - exact) <= unit


# the option that sets the size of the work of each of the other five
# commands, and the columns of its output
SIZE_OPTION = {"enumerate": "--max-area", "oracle": "--max-area",
               "verify": "--max-area", "constants": "--harmonics",
               "fit": "--max-n"}
COLUMNS = {"enumerate": ["n", "count"], "oracle": ["n", "count"],
           "verify": ["n", "oracle", "series", "verdict"],
           "constants": ["name", "re", "im"],
           "fit": ["k", "max_n", "fitted_exponent", "reference"]}


def _parse_output(text: str, fmt: str):
    """(config, columns, rows as strings) of the README's CSV or JSON."""
    if fmt == "json":
        doc = json.loads(text)
        assert set(doc) == {"config", "columns", "rows"}
        rows = [[str(v) for v in row] for row in doc["rows"]]
        return doc["config"], doc["columns"], rows
    lines = text.splitlines()
    config = dict(line[2:].split("=", 1) for line in lines
                  if line.startswith("# "))
    table = list(csv.reader(line for line in lines if not line.startswith("#")))
    return config, table[0], table[1:]


class TestOtherCommandsExitCodes:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(command=st.sampled_from(sorted(SIZE_OPTION)),
           k=st.sampled_from(["4", *EDGE_COUNTS]),
           size=st.sampled_from(EDGE_COUNTS),
           digits=st.sampled_from(EDGE_COUNTS),
           fmt=st.sampled_from(["csv", "json"]))
    # the 2-sided order and the harmonics past every budget, a 4-sided order
    # past a float's range, then one valid run of each command
    @example(command="enumerate", k="2", size=HUGE, digits="6", fmt="csv")
    @example(command="fit", k="2", size=HUGE, digits="6", fmt="csv")
    @example(command="enumerate", k="4", size=WIDE, digits="6", fmt="json")
    @example(command="constants", k="2", size=HUGE, digits="6", fmt="csv")
    @example(command="enumerate", k="4", size="6", digits="6", fmt="json")
    @example(command="oracle", k="3", size="3", digits="6", fmt="csv")
    @example(command="verify", k="4", size="3", digits="6", fmt="json")
    @example(command="constants", k="2", size="1", digits="6", fmt="json")
    @example(command="fit", k="3", size="6", digits="6", fmt="csv")
    def test_edge_options_keep_the_exit_contract(self, command, k, size,
                                                 digits, fmt):
        # the smaller budgets refuse at once the sizes that would take
        # hours; the time limit fails a run that has no budget at all
        argv = [command, SIZE_OPTION[command], size, "--digits", digits,
                "--format", fmt, "--no-timestamp"]
        if command != "constants":
            argv += ["--k", k]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(cli.enumeration, "_MAX_MIB", 1), \
                mock.patch.object(cli.oracle, "_MAX_ORACLE_AREA", 3), \
                mock.patch.object(cli.asymptotics, "TAYLOR_MAX_TERMS", 400), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err), time_limit(10):
            code = cli.main(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            config, columns, rows = _parse_output(out.getvalue(), fmt)
            assert config["command"] == command
            assert columns == COLUMNS[command]
            assert all(len(row) == len(columns) for row in rows)
            if command == "constants":
                assert len(rows) == 2 * int(size) + 15
                assert all(math.isfinite(float(v)) for r in rows for v in r[1:])
            elif command == "fit":
                assert len(rows) == 1
            else:
                assert [int(r[0]) for r in rows] == list(
                    range(1, int(size) + 1))


class TestResidualsAndFit:
    def test_one_log_table_per_run(self, capsys, monkeypatch):
        # the log2_n column comes from the table the rows were formed with
        calls = []
        prime_table = cli.asymptotics._prime_table

        def counted(*args, **kwargs):
            calls.append(args)
            return prime_table(*args, **kwargs)

        monkeypatch.setattr(cli.asymptotics, "_prime_table", counted)
        code, _, _ = run(["residuals", "--max-n", "64", "--no-timestamp"],
                         capsys)
        assert code == 0
        assert len(calls) == 1

    def test_residual_rows(self, capsys):
        code, out, _ = run(["residuals", "--max-n", "40", "--terms", "3",
                            "--min-n", "30", "--digits", "25",
                            "--no-timestamp"], capsys)
        assert code == 0
        _, columns, rows = _parse_output(out, "csv")
        assert columns == ["n", "log2_n", "scaled_count", "residual"]
        assert len(rows) == 11

    def test_fit_two_sided(self, capsys):
        code, out, _ = run(["fit", "--k", "2", "--max-n", "64",
                            "--no-timestamp"], capsys)
        assert code == 0
        row = _parse_output(out, "csv")[2][0]
        assert abs(float(row[2])) < 0.01


# The benchmark's tracer wraps library functions and the series constructors
# by name; this run fails when a rename leaves the traced run broken.  The
# 2-sided closed form is the CLI's one command that builds a series.
TRACED_RUN = """
import contextlib, io, json
import tracing
tracer = tracing.Tracer()
tracer.install()
from prudentpoly import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["enumerate", "--k", "2", "--max-area", "10",
                     "--no-timestamp"])
print(json.dumps({"code": code, "layers": tracer.layer_metrics()}))
"""


class TestTracedRun:
    def test_perfbench_tracer_installs_and_times_series(self):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src"), str(root / "perfbench")]))
        proc = subprocess.run([sys.executable, "-c", TRACED_RUN], cwd=root,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["code"] == 0
        assert report["layers"]["series.construct_s"] > 0


class TestBrokenPipe:
    def test_closed_reader_exits_141_without_a_traceback(self):
        # the reader takes one line and closes the pipe, as `| head -1`
        # does; the table, about 130 kB, passes the pipe's buffer, so a
        # later write meets the closed pipe
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "prudentpoly.cli", "residuals",
             "--max-n", "1024"], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"# command=residuals\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE == 141
        assert err == b""


# The front end's shape: it reads the library through public names only,
# sets the working precision in one place, reads no environment variable,
# and no public evaluator of asymptotics takes a truncation knob (the scale
# is a module constant).
class TestFrontEnd:
    TREE = ast.parse(Path(cli.__file__).read_text())

    def test_reads_no_private_library_name(self):
        libraries = {"asymptotics", "enumeration", "oracle"}
        private = [f"{node.value.id}.{node.attr}"
                   for node in ast.walk(self.TREE)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name)
                   and node.value.id in libraries
                   and node.attr.startswith("_")]
        private += [alias.name for node in ast.walk(self.TREE)
                    if isinstance(node, ast.ImportFrom)
                    for alias in node.names if alias.name.startswith("_")]
        assert private == []

    def test_enters_workdps_once(self):
        entered = [node for node in ast.walk(self.TREE)
                   if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "workdps"]
        assert len(entered) == 1

    def test_reads_no_environment_variable(self):
        # every setting is an option on the command line
        env = {"environ", "environb", "getenv"}
        reads = [ast.unparse(node) for node in ast.walk(self.TREE)
                 if getattr(node, "attr", None) in env
                 or getattr(node, "id", None) in env]
        assert reads == []

    def test_no_truncation_scale_parameter(self):
        asy = cli.asymptotics
        public = [obj for name, obj in vars(asy).items()
                  if not name.startswith("_") and callable(obj)
                  and getattr(obj, "__module__", None) == asy.__name__]
        assert len(public) >= 20
        for obj in public:
            assert "truncation_scale" not in inspect.signature(
                obj).parameters, obj.__name__


# The README's CLI block and library tour are checked against the parser and
# the package, so a removed option or name fails here, not in the docs.
README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_block(heading: str) -> str:
    """The first fenced code block under the given '## ' heading."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


class TestReadme:
    def test_cli_examples_parse(self):
        commands = [line.split("#", 1)[0].split(">", 1)[0].split()
                    for line in _readme_block("CLI").splitlines()
                    if line.startswith("prudentpoly ")]
        assert len(commands) == 10
        for words in commands:
            try:
                cli.build_parser().parse_args(words[1:])
            except SystemExit:
                pytest.fail(f"README example does not parse: {' '.join(words)}")

    def test_library_tour_names_exist(self):
        modules = {"pp": prudentpoly, "asy": cli.asymptotics}
        tree = ast.parse(_readme_block("Library quick tour"))
        named = 0
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                assert hasattr(modules[node.value.id], node.attr), node.attr
                named += 1
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in modules):
                fn = getattr(modules[node.func.value.id], node.func.attr)
                # the call's argument count and keyword names fit
                inspect.signature(fn).bind(
                    *node.args, **{k.arg: k.value for k in node.keywords})
        assert named >= 5          # the tour block was found
