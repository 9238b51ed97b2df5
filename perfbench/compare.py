"""Compare two saved results of one workload, metric by metric.

    python3 perfbench/compare.py perfbench/results/OLD.json perfbench/results/NEW.json

A result records which echelon kernel quadop ran on (quadop.BACKEND).  Runs
on different kernels measure different programs, so the comparison is
refused (exit 2); a stale, git-ignored compiled kernel in
src/quadop/kernel/ is enough to switch it.  Otherwise each metric's median
is printed with its change, and the exit code is 1 when an end-to-end
metric worsened by more than its bound in BENCHMARK.json.  One pair of runs
does not establish a gain: see README.md.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as fh:
        return json.load(fh)


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    old, new = [load(path) for path in argv]
    for key in ("backend", "python"):
        if old["env"][key] != new["env"][key]:
            sys.stderr.write("refused: %s differs (%s vs %s)\n"
                             % (key, old["env"][key], new["env"][key]))
            return 2
    if (old["workload"], old["trace"]) != (new["workload"], new["trace"]):
        sys.stderr.write("refused: results are of different workloads or modes\n")
        return 2
    spec = load(os.path.join(ROOT, "BENCHMARK.json"))
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = 0
    for name, m in new["metrics"].items():
        before, after = old["metrics"][name]["value"], m["value"]
        change = (after - before) / before if before else 0.0
        s = specs[name]
        loss = change if s["better"] == "lower" else -change
        flag = ""
        if "bound" in s and loss > s["bound"]:
            flag = "  worse than bound %.2f" % s["bound"]
            worse += 1
        print("%-34s %12.6g -> %12.6g %-6s %+7.1f%%%s"
              % (name, before, after, m["unit"], 100 * change, flag))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
