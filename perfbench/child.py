"""Run one benchmark operation in a fresh interpreter and report it as JSON.

Usage: python3 perfbench/child.py '<spec>'

``spec`` is a JSON object:

    {"src": "<dir holding prudentpoly>",   # the package must come from here
     "op": {"kind": "cli", "argv": [...]}  # prudentpoly.cli.main(argv)
         | {"kind": "fourier", "table": "<residuals CSV>", "k": 1,
            "u_range": [u0, u1]},         # fourier_extract_detrended
     "trace": null | "<path for the span file>"}

The last line of standard output is one JSON object: the monotonic clock
readings when this script started and when ``import prudentpoly.cli``
finished (CLOCK_MONOTONIC is shared by all processes, so the parent
subtracts its spawn time from them), the duration of the call alone, the
host-speed probe times, the exit code, the captured output, the peak
resident set, and with tracing the per-layer totals.
"""

import time

STARTED = time.monotonic()

import prudentpoly.cli  # noqa: E402

IMPORT_DONE = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

from mpmath import mp, mpf  # noqa: E402

# Probe samples taken before and after the call, and the interval of the
# samples taken during it.
PROBES_AROUND = 10
PROBE_INTERVAL_S = 0.05


def _probe() -> None:
    """Fixed work in the program's three styles, ~2 ms on the reference host.

    Prefix passes over wide integers (the 3-sided kernels), small-integer
    dict work (the 4-sided fixed point, the oracle DFS) and mpf arithmetic
    (the evaluators).  It calls no mpmath function that caches constants,
    so it leaves no state the operation could reuse, and it holds little
    memory, so it does not raise the peak resident set.
    """
    wide = [(1 << 4000) // (i + 3) for i in range(20)]
    for _ in range(20):
        for i in range(1, 20):
            wide[i] += wide[i - 1] >> 1
    table: dict = {}
    for i in range(1500):
        key = (i % 23, i % 19)
        table[key] = table.get(key, 0) + i
    with mp.workdps(50):
        x = mpf(1)
        for i in range(2, 60):
            x = x * mpf(i) / (i + 1) + mpf(1) / i


class HostSpeed:
    """Times the probe around the call and, on an interval timer, during it.

    The host's speed drifts by tens of percent within seconds; the median
    probe time over the call's own span measures the speed the call ran at.
    ``on_sample`` hears of each sample taken during the call, so a tracer
    can keep probe time out of the spans it interrupted.
    """

    def __init__(self, on_sample=None):
        self.samples: list = []      # (start, duration), in perf_counter time
        self._on_sample = on_sample

    def _sample(self) -> float:
        start = time.perf_counter()
        _probe()
        duration = time.perf_counter() - start
        self.samples.append((start, duration))
        return duration

    def around(self) -> None:
        for _ in range(PROBES_AROUND):
            self._sample()

    def _on_timer(self, signum, frame) -> None:
        duration = self._sample()
        if self._on_sample is not None:
            self._on_sample(duration)

    @contextlib.contextmanager
    def during(self):
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def net(self, start: float, end: float) -> float:
        """end - start, less the probe samples taken inside that interval."""
        inside = sum(d for s, d in self.samples if start <= s and s + d <= end)
        return end - start - inside


def _read_residual_table(path: str):
    """The residuals CSV written by ``prudentpoly residuals``, as a table."""
    from prudentpoly.asymptotics import ResidualTable

    config = {}
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                config[key] = value
            elif line and line[0].isdigit():
                n, _log2n, scaled, residual = line.split(",")
                rows.append((int(n), scaled, residual))
    digits = int(config["digits"])
    with mp.workdps(digits + 12):
        rows = tuple((n, mpf(s), mpf(r)) for n, s, r in rows)
    return ResidualTable(rows, int(config["terms"]), digits, config["source"])


def _run(op, speed: HostSpeed) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, seconds spent in the call)."""
    out, err = io.StringIO(), io.StringIO()
    if op["kind"] == "cli":
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with speed.during():
                start = time.perf_counter()
                code = prudentpoly.cli.main(list(op["argv"]))
                end = time.perf_counter()
        return code, out.getvalue(), err.getvalue(), speed.net(start, end)
    if op["kind"] == "fourier":
        from prudentpoly import asymptotics

        table = _read_residual_table(op["table"])
        with speed.during():
            start = time.perf_counter()
            value = asymptotics.fourier_extract_detrended(
                table, op["k"], tuple(op["u_range"]))
            end = time.perf_counter()
        with mp.workdps(table.precision):
            text = json.dumps({"re": mp.nstr(value.real, table.precision),
                               "im": mp.nstr(value.imag, table.precision)})
        return 0, text, "", speed.net(start, end)
    raise ValueError(f"unknown operation kind {op['kind']!r}")


def main() -> int:
    spec = json.loads(sys.argv[1])
    package = os.path.dirname(os.path.abspath(prudentpoly.cli.__file__))
    expected = os.path.join(os.path.abspath(spec["src"]), "prudentpoly")
    if package != expected:
        print(f"prudentpoly imported from {package}, not {expected}",
              file=sys.stderr)
        return 2
    # The probe must run on the CPU the call runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tracer = None
    if spec.get("trace"):
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    speed = HostSpeed(tracer.exclude if tracer is not None else None)
    speed.around()
    code, stdout, stderr, call_s = _run(spec["op"], speed)
    speed.around()
    report = {
        "started": STARTED,
        "import_done": IMPORT_DONE,
        "call_s": call_s,
        "probe_s": [d for _, d in speed.samples],
        "exit": code,
        "stdout": stdout,
        "stderr": stderr,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        tracer.write_spans(spec["trace"])
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
