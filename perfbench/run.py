"""The prudentpoly benchmark: four workloads of CLI and library operations.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload oscillation --seed 1 --seconds 26 --trace 0

Each workload is a fixed list of operations.  A run repeats whole rounds of
them until ``--seconds`` would be exceeded (at least three rounds, two when
traced).  Every repetition starts a fresh interpreter, one at a time, so no
in-process cache carries over, which is what a CLI user pays.  The seed sets
the order of the operations in each round, so a slow stretch of the host
hits one repetition of each operation rather than every repetition of one.
Each operation is summarised by its median repetition, its call time scaled
to a reference host speed measured by the child (child.HostSpeed).

Every output is checked against references computed apart from the program
(checks.py).  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
``--trace 0``; with ``--trace 1`` the per-layer metrics of a run whose
rounds time each operation once untraced and once with spans installed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

# A stuck operation is killed after this long; the whole run must end in 180 s.
OP_TIMEOUT_S = 150
# Extra rounds past --seconds are started only while the run stays under this.
HARD_LIMIT_S = 150
# Seconds the child's host-speed probe takes on the reference host (the
# 2-core machine of the README's figures, at its usual speed).  Times are
# reported at that host speed: each is multiplied by this constant over the
# median probe time measured around and during it, in the same process.
PROBE_REF_S = 0.0017
# Seconds a bare interpreter takes from spawn to the first line of the child
# script on the reference host, at its usual speed.  Set-up times are
# reported at that speed: each is multiplied by this constant over the bare
# start of the same process.
INTERPRETER_REF_S = 0.05


@dataclass
class Op:
    """One operation: what the child runs and how its output is checked."""

    name: str
    spec: dict
    check: Callable[[str], None]
    # The operation fails on every run because of a fault in the program:
    # a failed check counts it in `failed` and leaves `correct` true.
    known_fault: str | None = None
    # The operation reads the output of the named operation (first round
    # orders it after that one).
    needs: str | None = None
    samples: list = field(default_factory=list)


def _cli(name: str, argv: list[str], check, **kwargs) -> Op:
    return Op(name, {"kind": "cli", "argv": argv + ["--no-timestamp"]},
              check, **kwargs)


OSCILLATION_MAX_N = 3072
CROSSCHECK_AREA = 6
FOUR_SIDED_ORDER = 64
FUNCTIONAL_AREA = 200
PI_EVAL_FAULT = (
    "asymptotics.pi_eval picks k_max from |log(1/q)| alone, ignoring the "
    "growth of exp(-+2 pi i k w) for complex w; the singular route misses "
    "the meromorphic one by ~4.8e-15 at 40 digits")


def workloads() -> dict[str, list[Op]]:
    n = OSCILLATION_MAX_N
    a = CROSSCHECK_AREA
    order = FOUR_SIDED_ORDER
    area = FUNCTIONAL_AREA

    def gf(q: str, methods: str, digits: int, **kwargs) -> Op:
        return _cli(f"gf-check {methods} q={q} d={digits}",
                    ["gf-check", "--q", q, "--methods", methods,
                     "--digits", str(digits)], checks.check_gf_pair, **kwargs)

    return {
        "oscillation": [
            _cli(f"residuals {n}",
                 ["residuals", "--max-n", str(n), "--terms", "5",
                  "--digits", "40"],
                 lambda text: checks.check_residuals(text, n)),
            Op(f"fourier k=1 u=[9,log2 {n}]",
               {"kind": "fourier", "k": 1, "u_range": [9, math.log2(n)]},
               checks.check_fourier, needs=f"residuals {n}"),
            _cli("fit k=3 2000", ["fit", "--k", "3", "--max-n", "2000",
                                  "--digits", "40"], checks.check_fit_3),
        ],
        "crosscheck": [
            _cli(f"verify k=3 {a}",
                 ["verify", "--k", "3", "--max-area", str(a)],
                 lambda text: checks.check_verify(text, checks.PA3_PUBLISHED)),
            _cli(f"verify k=4 {a}",
                 ["verify", "--k", "4", "--max-area", str(a)],
                 lambda text: checks.check_verify(
                     text, checks.PA4_PRUDENT_PREFIX)),
            _cli(f"oracle k=4 boundary {a}",
                 ["oracle", "--k", "4", "--max-area", str(a),
                  "--walk-class", "boundary"],
                 lambda text: checks.check_counts_equal(
                     text, checks.PA4_BOUNDARY_PUBLISHED)),
            _cli(f"enumerate k=3 functional {area}",
                 ["enumerate", "--k", "3", "--method", "functional",
                  "--max-area", str(area)],
                 lambda text: checks.check_pa3_counts(text, area)),
            _cli(f"enumerate k=3 theorem {area}",
                 ["enumerate", "--k", "3", "--max-area", str(area)],
                 lambda text: checks.check_pa3_counts(text, area)),
        ],
        "four-sided": [
            _cli(f"enumerate k=4 {order}",
                 ["enumerate", "--k", "4", "--max-area", str(order)],
                 lambda text: checks.check_pa4_counts(text, order)),
            _cli(f"fit k=4 {order}",
                 ["fit", "--k", "4", "--max-n", str(order), "--digits", "40"],
                 checks.check_fit_4),
        ],
        "gf-routes": [
            gf("0.25", "taylor,meromorphic", 100),
            gf("0.4,0.05", "taylor,meromorphic", 100),
            gf("0.47", "doublesum,singular", 100),
            gf("0.49", "doublesum,singular", 100),
            gf("0.45", "meromorphic,singular", 100),
            _cli("constants harmonics=3 d=100",
                 ["constants", "--harmonics", "3", "--digits", "100"],
                 checks.check_constants),
            gf("0.45", "taylor,singular", 40),
            # q = 1/2 + 0.03 e^(i pi/3)
            gf("0.515,0.025980762113533159", "meromorphic,singular", 40,
               known_fault=PI_EVAL_FAULT),
        ],
    }


@dataclass
class Sample:
    traced: bool
    interpreter_s: float    # spawn to the child script's first line
    setup_s: float          # spawn to `import prudentpoly.cli` done
    call_s: float
    rss_kib: int
    failed: bool
    layers: dict | None
    # PROBE_REF_S over the median probe time around and during the call:
    # below 1 while the host runs slower than the reference.
    speed: float = 1.0

    @property
    def norm_call_s(self) -> float:
        return self.call_s * self.speed


def _run_once(op: Op, traced: bool, env: dict, files: dict, needed: set,
              problems: list) -> Sample:
    spec = dict(op.spec)
    if spec["kind"] == "fourier":
        spec["table"] = files.get(op.needs)
    trace_path = None
    if traced:
        trace_path = os.path.join(OUT, "trace-" + _slug(op.name) + ".jsonl")
    payload = json.dumps({"src": SRC, "op": spec, "trace": trace_path})
    if spec["kind"] == "fourier" and spec["table"] is None:
        problems.append(f"{op.name}: its input was never produced")
        return _crashed(traced)
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, payload], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        problems.append(f"{op.name}: killed after {OP_TIMEOUT_S} s")
        return _crashed(traced)
    try:
        report = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        problems.append(f"{op.name}: child exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-500:]}")
        return _crashed(traced)
    failed = report["exit"] != 0
    if failed:
        problems.append(f"{op.name}: exit {report['exit']}: "
                        f"{report['stderr'].strip()[-300:]}")
    else:
        try:
            op.check(report["stdout"])
        except checks.CheckFailed as exc:
            if op.known_fault:
                failed = True
            else:
                problems.append(f"{op.name}: {exc}")
        if op.name in needed and op.name not in files and not failed:
            path = os.path.join(OUT, f"{_slug(op.name)}-{os.getpid()}.out")
            with open(path, "w") as fh:
                fh.write(report["stdout"])
            files[op.name] = path
    return Sample(traced, report["started"] - spawned,
                  report["import_done"] - spawned, report["call_s"],
                  report["rss_kib"], failed, report.get("layers"),
                  PROBE_REF_S / statistics.median(report["probe_s"]))


def _crashed(traced: bool) -> Sample:
    """A repetition that produced no report; its times are left out."""
    return Sample(traced, math.nan, math.nan, math.nan, 0, True, None)


def _slug(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name)


def _median_sample(samples: list, traced: bool) -> Sample:
    """The repetition with the median host-normalised call time."""
    chosen = sorted((s for s in samples
                     if s.traced == traced and math.isfinite(s.call_s)),
                    key=lambda s: s.norm_call_s)
    return chosen[(len(chosen) - 1) // 2] if chosen else _crashed(traced)


def run(workload: str, seed: int, seconds: float,
        trace: bool) -> tuple[dict, dict]:
    """(the result line, a summary per operation for the result file)."""
    ops = workloads()[workload]
    rng = random.Random(seed)
    modes = (False, True) if trace else (False,)
    min_rounds = 2 if trace else 3
    # Every option is on the command line; bytecode is cached in the
    # checkout, as it is for an installed package.
    env = {k: v for k, v in os.environ.items()
           if k not in ("PRUDENTPOLY_DIGITS", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    files: dict = {}
    needed = {op.needs for op in ops if op.needs}
    problems: list = []
    start = time.monotonic()
    rounds, last_round = 0, 0.0
    try:
        while True:
            elapsed = time.monotonic() - start
            if elapsed + last_round > seconds and not (
                    rounds < min_rounds and elapsed + last_round < HARD_LIMIT_S):
                break
            began = time.monotonic()
            order = [(op, traced) for op in ops for traced in modes]
            rng.shuffle(order)
            if rounds == 0:
                order.sort(key=lambda entry: entry[0].needs is not None)
            for op, traced in order:
                op.samples.append(
                    _run_once(op, traced, env, files, needed, problems))
            rounds += 1
            last_round = time.monotonic() - began
    finally:
        for path in files.values():
            os.remove(path)

    attempted = sum(len(op.samples) for op in ops)
    failed = sum(s.failed for op in ops for s in op.samples)
    wall = sum(_median_sample(op.samples, False).norm_call_s for op in ops)
    if trace:
        metrics = _layer_metrics(ops)
        traced = sum(_median_sample(op.samples, True).norm_call_s for op in ops)
        metrics["trace.overhead_s"] = {"value": traced - wall, "unit": "s"}
    else:
        untraced = [s for op in ops for s in op.samples
                    if math.isfinite(s.setup_s)] or [_crashed(False)]
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            # Interpreter start is exec and file work the probe does not
            # resemble; the bare start of the same process measures it.
            "setup_s": {"value": INTERPRETER_REF_S * statistics.median(
                s.setup_s / s.interpreter_s for s in untraced), "unit": "s"},
            "peak_rss_mib": {
                "value": max(statistics.median(s.rss_kib for s in op.samples)
                             for op in ops) / 1024,
                "unit": "MiB"},
        }
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    operations = {}
    for op in ops:
        plain = [s for s in op.samples if not s.traced]
        timed = [s for s in plain if math.isfinite(s.call_s)] or plain
        summary = operations[op.name] = {
            "median_s": _median_sample(plain, False).norm_call_s,
            "fastest_raw_s": min(s.call_s for s in timed),
            "speed": [min(s.speed for s in timed), max(s.speed for s in timed)],
            "repetitions": len(plain),
            "failed": sum(s.failed for s in plain),
        }
        print(f"{workload:11s} {op.name:44s} "
              f"median {summary['median_s']:7.3f} s, "
              f"fastest raw {summary['fastest_raw_s']:7.3f} s, "
              f"speed {summary['speed'][0]:.2f}-{summary['speed'][1]:.2f}, "
              f"{len(plain)} runs, {summary['failed']} failed",
              file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, operations


def _layer_metrics(ops: list[Op]) -> dict:
    """Per-layer metrics summed over each operation's median traced call.

    Self times are host-normalised with that call's speed factor."""
    import tracing
    totals = {name: 0.0 for name in tracing.SELF_TIME_METRICS}
    totals.update({name: 0 for name in tracing.COUNT_METRICS})
    for op in ops:
        sample = _median_sample(op.samples, True)
        for name, value in (sample.layers or {}).items():
            if name == "enumeration.pa3_max_bits":
                totals[name] = max(totals[name], value)
            elif name in tracing.SELF_TIME_METRICS:
                totals[name] += value * sample.speed
            else:
                totals[name] += value
    units = {name: "s" for name in tracing.SELF_TIME_METRICS}
    units.update(tracing.COUNT_METRICS)
    return {name: {"value": value, "unit": units[name]}
            for name, value in totals.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "prudentpoly", "cli.py")):
        print(f"no prudentpoly sources under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    result, operations = run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({**result, "operations": operations}, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
