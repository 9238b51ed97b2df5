"""End-to-end benchmark of the quadop command line.

    python3 perfbench/run.py                 # every workload, default seed
    python3 perfbench/run.py --workload qd-laws --seed 7 --seconds 30 --trace 0

Each quadop invocation runs in a fresh process, one at a time (a closed
loop with one client), as it would from a user's shell; child.py measures
it.  A run repeats the workload's commands until --seconds are used and
reports the median over those iterations, with times scaled to a reference
machine speed by a calibration loop (README.md).  With --trace 1 the iterations
alternate an untraced and a traced invocation with the same seed, and the
run reports the per-layer split from the traced ones (tracer.py).

Every invocation is checked: exit code 0, no failing case, and at quadop's
default seed the sha256 of its output must equal the digest frozen in
digests.json.  The last line of standard output is one JSON result; the
exit code is 1 when a check failed.  The full record, with the environment,
is written to perfbench/results/.  README.md lists the metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time

from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

DEFAULT_SEED = 20250808      # quadop.suites.DEFAULT_SEED
RUN_LIMIT_S = 170            # a run must end within 180 s
SETUP_SAMPLES = 5
DK4_HILBERT = [1, 6, 25, 90, 301, 966]   # h_k(1, 2, 3) for k = 0..5
# Times are reported at the machine speed at which child.calibrate() takes
# this long (see README.md).
CALIBRATION_REF_S = 0.006

# Workload -> commands, as (quadop arguments, whether the command takes the
# iteration's seed).  The others run at DEFAULT_SEED on every iteration, so
# each of their outputs is checked against its frozen digest.
# README.md gives the reason for each workload and for its sizes.
WORKLOADS = {
    "qd-laws": [(["verify", "qd-coherence", "--trials", "10"], False)],
    "boqd-interchange": [(["verify", "boqd-coherence", "--trials", "4"], False)],
    "operad-families": [(["verify", "operad-axioms"], False)],
    "realize-graphs": [
        (["dims", "--qd", "DK", "--n", "4", "--wmax", "5"], False),
        (["verify", "gra-iso"], False),
        (["verify", "realize-duality"], True),
    ],
}

_COUNTED = re.compile(r"(\d+)/(\d+) cases pass")
_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|( +)(\S+)$")


def command_key(args):
    return " ".join(args)


# -- one invocation ----------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def invoke(args, seed, trace, deadline):
    """Run `quadop <args> --seed <seed>` in a fresh process; the child's
    record, or {"error": ...} if it did not produce one."""
    flags = ["-X", "importtime"] if trace else []
    spawned = time.time()
    cmd = [sys.executable] + flags + [os.path.join(HERE, "child.py"),
                                      repr(spawned), "1" if trace else "0"]
    cmd += args + ["--seed", str(seed)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": "child exited %d: %s" % (proc.returncode, tail[0])}
    record = json.loads(lines[-1])
    if trace:
        record["trace"]["import_s"] = import_self_s(proc.stderr)
    return record


def setup_probe(deadline):
    """Calibrated setup time of a child that imports quadop and exits."""
    spawned = time.time()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), repr(spawned), "0"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True,
        timeout=max(1.0, deadline - time.time()))
    return json.loads(proc.stdout.splitlines()[-1])["setup_cal"] * CALIBRATION_REF_S


def import_self_s(stderr):
    """Per-layer import time from `python -X importtime` output.  A quadop
    module's self time goes to its layer; another module's goes to the layer
    of the quadop module that imported it; imports outside quadop count for
    no layer.  Lines come children first, indented two spaces per level."""
    layer_of = {m: layer for layer, mods in LAYERS.items() for m in mods}
    pending = []                 # (depth, module, self_us, children)
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        depth = (len(m.group(2)) - 1) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, m.group(3), int(m.group(1)), children))
    totals = dict.fromkeys(LAYERS, 0.0)
    todo = [(node, None) for node in pending]
    while todo:
        (_, module, self_us, children), owner = todo.pop()
        owner = layer_of.get(module, owner)
        if owner:
            totals[owner] += self_us / 1e6
        todo.extend((c, owner) for c in children)
    return totals


def check(args, seed, record, digests):
    """(checks attempted, checks failed, problems) for one invocation.  A
    check is one of the m in a "k/m cases pass" case, else one case; SKIPPED
    and INFO cases are no checks, but are part of the frozen output.  A bad
    exit code, digest or dimension table fails one check more."""
    if "error" in record:
        return 1, 1, [record["error"]]
    problems = []
    checks = failed = 0
    if record["exit"] != 0:
        failed += 1
        problems.append("exit code %d" % record["exit"])
    out = record["output"]
    doc = json.loads(out)
    if args[0] == "dims":
        checks = 1
        if doc["dims"].get("A") != DK4_HILBERT:
            failed += 1
            problems.append("dims A %s != %s" % (doc["dims"].get("A"), DK4_HILBERT))
    else:
        for case in doc["cases"]:
            if case["status"] not in ("PASS", "FAIL"):
                continue
            m = _COUNTED.fullmatch(case["details"])
            total, passed = ((int(m.group(2)), int(m.group(1))) if m
                             else (1, int(case["status"] == "PASS")))
            checks += total
            if case["status"] == "FAIL" or passed != total:
                failed += max(1, total - passed)
                problems.append("%s: %s" % (case["name"], case["details"]))
    if seed == DEFAULT_SEED:
        digest = hashlib.sha256(out.encode()).hexdigest()
        if digest != digests[command_key(args)]:
            failed += 1
            problems.append("output digest %s differs from the frozen one"
                            % digest[:12])
    return checks, failed, problems


# -- iterations --------------------------------------------------------------

def run_iteration(commands, seed, trace, deadline, digests):
    """One pass over a workload's commands."""
    it = {"run_s": 0.0, "run_cal": 0.0, "setup_cal": 0.0, "peak_rss_mb": 0.0,
          "checks": 0, "failed": 0, "problems": [], "records": []}
    for args, seeded in commands:
        s = seed if seeded else DEFAULT_SEED
        record = invoke(args, s, trace, deadline)
        checks, failed, problems = check(args, s, record, digests)
        it["checks"] += checks
        it["failed"] += failed
        it["problems"] += ["%s --seed %d: %s" % (command_key(args), s, p)
                           for p in problems]
        it["records"].append(record)
        if "error" in record:
            break
        it["run_s"] += record["run_s"]
        it["run_cal"] += record["run_cal"]
        it["setup_cal"] += record["setup_cal"]
        it["peak_rss_mb"] = max(it["peak_rss_mb"], record["peak_rss_kb"] / 1024)
    return it


def counts_of(trace):
    """Everything in a trace summary that must repeat exactly."""
    return (trace["counters"], trace["caches"],
            {k: v["calls"] for k, v in trace["layers"].items()},
            {k: v["calls"] for k, v in trace["spans"].items()})


def compare_traced(untraced, traced, again=None):
    """Problems found when checking a traced iteration against the untraced
    one with the same seeds (and, if given, a second traced one)."""
    problems = []
    for i, (u, t) in enumerate(zip(untraced["records"], traced["records"])):
        if "error" in u or "error" in t:
            continue
        if u["output"] != t["output"]:
            problems.append("command %d: traced output differs" % i)
        tr = t["trace"]
        accounted = sum(l["self_s"] for l in tr["layers"].values())
        if abs(accounted - tr["wall_s"]) > 1e-6 * max(1.0, tr["wall_s"]):
            problems.append("command %d: layer self times %.6f s != traced "
                            "wall %.6f s" % (i, accounted, tr["wall_s"]))
        if again is not None:
            t2 = again["records"][i]
            if "error" not in t2 and counts_of(t2["trace"]) != counts_of(tr):
                problems.append("command %d: two traced runs with one seed "
                                "counted differently" % i)
    return problems


def layer_metrics(traced, untraced):
    """Per-layer metrics of one traced iteration (summed over its commands),
    against the untraced iteration with the same seeds."""
    layers = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    counters = {}
    caches = {}
    wall = 0.0
    for rec in traced["records"]:
        tr = rec["trace"]
        wall += tr["wall_s"] + sum(tr["import_s"].values())
        for name, layer in tr["layers"].items():
            layers[name] += layer["self_s"] + tr["import_s"][name]
            calls[name] += layer["calls"]
        for k, v in tr["counters"].items():
            if k == "kernel.rref.max_entry_bits":
                counters[k] = max(counters.get(k, 0), v)
            else:
                counters[k] = counters.get(k, 0) + v
        for prefix, info in tr["caches"].items():
            c = caches.setdefault(prefix, {"hits": 0, "misses": 0})
            c["hits"] += info["hits"]
            c["misses"] += info["misses"]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in LAYERS:
        out[name + ".self_s"] = layers[name]
        out[name + ".share"] = ratio(layers[name], wall)
        out[name + ".calls"] = calls[name]
    adds = counters["kernel.add.calls"]
    out["kernel.add.calls"] = adds
    out["kernel.add.rank_gain_ratio"] = ratio(counters["kernel.add.rank_gains"], adds)
    out["kernel.rref.max_entry_bits"] = counters["kernel.rref.max_entry_bits"]
    out["exactlin.queries"] = counters["exactlin.queries"]
    out["exactlin.kernel_adds_per_query"] = ratio(
        counters["exactlin.query_kernel_adds"], counters["exactlin.queries"])
    for key in ("exactlin.subspace_builds", "graded.space_builds",
                "qd.qd_builds", "boqd.arity3_builds", "operads.compose.calls",
                "realize.weight_component.calls", "graphs.compose_graphs.calls"):
        out[key] = counters[key]
    for prefix, c in sorted(caches.items()):
        lookups = c["hits"] + c["misses"]
        out[prefix + ".calls"] = lookups
        out[prefix + ".hit_ratio"] = ratio(c["hits"], lookups)
    out["trace.overhead_ratio"] = ratio(traced["run_s"], untraced["run_s"])
    return out


def end_to_end_metrics(it):
    """An iteration's end-to-end metrics, times at the reference machine
    speed."""
    run_s = it["run_cal"] * CALIBRATION_REF_S
    return {"run_s": run_s,
            "checks_per_s": it["checks"] / run_s,
            "setup_s": it["setup_cal"] * CALIBRATION_REF_S,
            "peak_rss_mb": it["peak_rss_mb"],
            "raw_run_s": it["run_s"]}


def stats(values, unit):
    """Median, quartiles and sample count."""
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"value": statistics.median(values), "unit": unit,
            "q1": q1, "q3": q3, "n": len(values)}


def summarize(samples, spec):
    """Each metric's stats over iterations."""
    return {m["name"]: stats([s[m["name"]] for s in samples], m["unit"])
            for m in spec}


# -- a run -------------------------------------------------------------------

def environment():
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "loadavg": os.getloadavg()[0],
            "source_sha256": source_digest(),
            "extensions": sorted(f for f in os.listdir(os.path.join(
                SRC, "quadop", "kernel")) if f.endswith(".so"))}


def source_digest():
    """sha256 over quadop's source files: the commit being measured, since
    the benchmark may run outside a git checkout."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "quadop")
    for base, dirs, files in sorted(os.walk(pkg)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith((".py", ".pyx", ".so")):
                path = os.path.join(base, f)
                h.update(os.path.relpath(path, pkg).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def measure(workload, seed, seconds, trace, spec, digests):
    commands = WORKLOADS[workload]
    env = environment()
    start = time.perf_counter()
    deadline = time.time() + RUN_LIMIT_S
    seeds = random.Random(seed)
    iterations, traced_its, durations, backends = [], [], [], set()
    all_its = []             # untraced and traced, for the checks
    problems = []            # problems not already counted as failed checks
    i = 0
    while True:
        t0 = time.perf_counter()
        # Iteration 0 runs quadop's default seed, whose outputs are frozen.
        it_seed = DEFAULT_SEED if i == 0 else seeds.randrange(2 ** 31)
        its = [run_iteration(commands, it_seed, False, deadline, digests)]
        if trace:
            its.append(run_iteration(commands, it_seed, True, deadline, digests))
        durations.append(time.perf_counter() - t0)
        if trace:
            if i == 0:           # the determinism check's second traced run
                its.append(run_iteration(commands, it_seed, True, deadline, digests))
            problems += compare_traced(*its)
            traced_its.append(layer_metrics(its[1], its[0]))
        for it in its:
            backends.update(r["backend"] for r in it["records"] if "backend" in r)
        iterations.append(its[0])
        all_its += its
        i += 1
        if any("error" in r for it in its for r in it["records"]):
            break
        elapsed = time.perf_counter() - start
        expected = statistics.median(durations)
        if elapsed + expected > seconds or time.time() + expected > deadline:
            break
    if len(backends) > 1:
        problems.append("invocations ran on different kernels: %s" % sorted(backends))
    env["backend"] = ",".join(sorted(backends))
    env["loadavg_end"] = os.getloadavg()[0]
    measured = [it for it in iterations if not it["failed"]]
    samples = (traced_its if trace
               else [end_to_end_metrics(it) for it in measured])
    spec = spec["per_layer" if trace else "end_to_end"]
    metrics = summarize(samples, spec) if samples else {}
    if not trace and measured:
        # A run of few long iterations still sets up SETUP_SAMPLES times.
        setups = [s["setup_s"] for s in samples]
        while len(setups) < SETUP_SAMPLES and time.time() + 10 < deadline:
            setups.append(sum(setup_probe(deadline) for _ in commands))
        metrics["setup_s"] = stats(setups, "s")
    attempted = sum(it["checks"] for it in all_its)
    failed = sum(it["failed"] for it in all_its) + len(problems)
    problems = [p for it in all_its for p in it["problems"]] + problems
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "env": env, "iterations": len(iterations),
            "attempted": max(1, attempted), "failed": failed,
            "correct": failed == 0 and bool(metrics), "problems": problems,
            "metrics": metrics, "samples": samples,
            "raw_run_s": statistics.median(it["run_s"] for it in measured)
            if measured else None}


def report(result):
    """Human-readable lines, then the one-line JSON result."""
    env = result["env"]
    print("# %s seed=%d trace=%d iterations=%d backend=%s python=%s nproc=%s "
          "load=%.2f->%.2f source=%s" % (
              result["workload"], result["seed"], result["trace"],
              result["iterations"], env["backend"], env["python"], env["nproc"],
              env["loadavg"], env["loadavg_end"], env["source_sha256"][:12]))
    if env["extensions"]:
        print("# compiled extensions present: %s" % ", ".join(env["extensions"]))
    for problem in result["problems"]:
        print("# FAILED %s" % problem)
    if result["raw_run_s"] is not None:
        print("# raw_run_s median %.6g s (uncalibrated)" % result["raw_run_s"])
    for name, m in result["metrics"].items():
        print("%-34s %12.6g %-6s q1 %.6g q3 %.6g n=%d"
              % (name, m["value"], m["unit"], m["q1"], m["q3"], m["n"]))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()}}))
    sys.stdout.flush()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "quadop", "__init__.py")):
        sys.stderr.write("error: no quadop sources under %s\n" % SRC)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "digests.json")) as fh:
        digests = json.load(fh)

    ok = True
    for workload in [args.workload] if args.workload else list(WORKLOADS):
        result = measure(workload, args.seed, args.seconds, args.trace, spec,
                         digests)
        os.makedirs(RESULTS, exist_ok=True)
        path = os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                            % (workload, args.seed, args.trace))
        with open(path, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
        report(result)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
