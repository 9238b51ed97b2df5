"""One quadop command-line invocation in a fresh process, measured.

Usage: python3 perfbench/child.py <spawn time> <trace 0|1> [quadop args...]

<spawn time> is the parent's time.time() just before it started this
process, so setup_s covers interpreter start-up and the import of quadop.
The command's output is captured and returned, not printed; the last line
of standard output is one JSON record of the invocation.  Without quadop
arguments the child only reports its setup time.
"""

import contextlib
import io
import json
import resource
import signal
import sys
import time
from math import gcd

SAMPLE_EVERY_S = 0.25


def calibrate():
    """Seconds for a fixed fraction-free elimination of small sparse integer
    rows: the kind of work quadop's kernel does, but none of its code.
    Dividing the command's times by it takes out how fast the shared
    machine happened to run (see README.md)."""
    start = time.perf_counter()
    pivots = {}
    for i in range(60):
        row = {}
        for j in range(6):
            c = (i * 7 + j * 13) % 40
            row[c] = row.get(c, 0) + (i + 3 * j) % 7 - 3
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = row
                break
            a, b = piv[c], row[c]
            g = gcd(a, b)
            a //= g
            b //= g
            for k in row:
                row[k] *= a
            for k, v in piv.items():
                w = row.get(k, 0) - b * v
                if w:
                    row[k] = w
                elif k in row:
                    del row[k]
            g = 0
            for v in row.values():
                g = gcd(g, v)
            for k in row:
                row[k] //= g
    return time.perf_counter() - start


def run_sampled(fn, *args):
    """Call fn while a timer signal runs calibrate() every SAMPLE_EVERY_S.
    Returns fn's result, the call's time without the samples, and the
    call's time in units of calibrate(): each stretch of the call between
    two samples is divided by the mean of those samples, so a stretch on a
    slow machine counts for as much work as the same work on a fast one."""
    first = calibrate()
    stops = []                   # (start, end, duration) of each sample

    def sample(signum, frame):
        t = time.perf_counter()
        c = calibrate()
        stops.append((t, time.perf_counter(), c))

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    start = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, previous)
    stops = [s for s in stops if s[1] <= end]
    speeds = [first] + [c for _, _, c in stops] + [calibrate()]
    stretches = list(zip([start] + [t1 for _, t1, _ in stops],
                         [t0 for t0, _, _ in stops] + [end]))
    run_s = sum(b - a for a, b in stretches)
    run_cal = sum((b - a) * 2 / (speeds[k] + speeds[k + 1])
                  for k, (a, b) in enumerate(stretches))
    return result, run_s, run_cal, first


def main():
    spawned = float(sys.argv[1])
    trace = sys.argv[2] == "1"
    argv = sys.argv[3:]

    import quadop
    from quadop import cli
    setup_s = time.time() - spawned
    if not argv:                 # a probe of setup time alone
        speed = sorted(calibrate() for _ in range(3))[1]
        sys.stdout.write(json.dumps({"setup_cal": setup_s / speed}) + "\n")
        return

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if trace:
            # No samples here: their time would land in the traced spans.
            from tracer import Tracer
            tracer = Tracer().install()
            start = time.perf_counter()
            code = tracer.run(cli.main, argv)
            run_s = time.perf_counter() - start
            speed = calibrate()
            run_cal = run_s / speed
        else:
            code, run_s, run_cal, speed = run_sampled(cli.main, argv)

    record = {
        "exit": code,
        "output": out.getvalue(),
        "run_s": run_s,
        "run_cal": run_cal,
        "setup_cal": setup_s / speed,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "backend": quadop.BACKEND,
    }
    if trace:
        record["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
