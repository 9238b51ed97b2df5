"""Golden reports: every suite's default-seed report is byte-identical to the
one frozen in golden_reports.json (sha256 of the command's standard output).

Each command runs in a fresh process, so the process-wide caches (weight
ladders, family, scheme and functor lru_caches, interned graphs) cannot leak
between cases; one test runs suites that share those caches in one process,
in both orders, to show that the caches do not change a report either, and one
shows that suites leave the shared rows of the cached signed squares as
they were built.  To refreeze after an intended change
of a report, store the sha256 of the standard output of
`python -m quadop <command>` under the command's key.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden_reports.json").read_text())
SRC = str(HERE.parent / "src")


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_report_matches_golden_digest(command):
    proc = subprocess.run(
        [sys.executable, "-m", "quadop"] + command.split(),
        capture_output=True, env=_env(),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN[command]


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


# runs each argument as a quadop command in this one process and prints the
# exit code and the sha256 of the command's standard output
IN_ONE_PROCESS = """
import contextlib, hashlib, io, sys
from quadop.cli import main
for command in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command.split())
    print(code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest())
"""


@pytest.mark.parametrize("commands", [
    ("verify realize-duality", "verify gra-iso"),
    ("verify gra-iso", "verify realize-duality"),
    # these share the process-wide generator schemes of the operad families
    ("verify operad-axioms", "verify minimality", "verify koszul-duals"),
    ("verify koszul-duals", "verify minimality", "verify operad-axioms"),
    # these share one family object (and so its components) for DK and EHKR
    ("verify koszul-duals", "verify koszul-pbw"),
    ("verify koszul-pbw", "verify koszul-duals"),
    ("verify diagram-faces", "verify realize-duality"),
    ("verify realize-duality", "verify diagram-faces"),
    # the second command of each resumes the weight ladders of the first
    # warm past weight 3, where counting may take over from elimination
    ("dims --qd DK --n 4 --wmax 5", "dims --qd DK --n 4 --wmax 6"),
    ("verify koszul-pbw", "verify realize-duality"),
    # these share the process-wide tensor products of graded spaces
    ("verify qd-coherence --trials 10", "verify boqd-coherence --trials 4"),
    ("verify boqd-coherence --trials 4", "verify qd-coherence --trials 10"),
    # these share the process-wide tau ambients of the BOQD generator spaces
    ("verify boqd-coherence --trials 4", "verify boqd-coherence"),
    # these share the process-wide BOQD products and duals
    ("verify boqd-coherence", "verify boqd-coherence --trials 4"),
    # the second run reads warm graph enumerations, compositions and
    # interned graphs
    ("verify gra-iso", "verify gra-iso"),
    # these share the operad generator schemes, one composition source per
    # (n, m) of each, and the signed squares that are the relations of the
    # full families; the second run of a pair reads them warm
    ("verify gra-iso", "verify operad-axioms"),
    ("verify operad-axioms", "verify gra-iso"),
    ("verify operad-axioms", "verify operad-axioms"),
    # these share the process-wide signed squares and random relation pools
    ("verify qd-coherence --trials 10", "verify realize-duality"),
    ("verify realize-duality", "verify qd-coherence --trials 10"),
    # these share the process-wide direct sums of graded spaces, which are
    # the generators of the QD direct-sum products and of the BOQD module
    # sums, and the operad composition sources
    ("verify operad-axioms", "verify qd-coherence --trials 10"),
    ("verify qd-coherence --trials 10", "verify operad-axioms"),
])
def test_reports_do_not_depend_on_suite_order(commands):
    proc = subprocess.run(
        [sys.executable, "-c", IN_ONE_PROCESS, *commands],
        capture_output=True, env=_env(), text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 " + GOLDEN[c] for c in commands]


# records every signed square the package asks for while it runs the
# argument commands, then compares each cached subspace with a fresh build,
# item order included; prints the number of distinct squares compared
SIGNED_SQUARES_AFTER_SUITES = """
import contextlib, io, sys
from quadop import graded
from quadop.cli import main
seen = {}
def recorded(v, sign):
    sub = seen[v, sign] = graded.signed_square(v, sign)
    return sub
patched = set()
for name, mod in list(sys.modules.items()):
    if name.startswith("quadop.") and mod is not graded \\
            and getattr(mod, "signed_square", None) is graded.signed_square:
        mod.signed_square = recorded
        patched.add(name)
assert {"quadop.qd", "quadop.operads", "quadop.rand"} <= patched, patched
for command in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(command.split()) == 0, command
for (v, sign), sub in seen.items():
    fresh = graded.signed_square.__wrapped__(v, sign)
    assert [list(r.items()) for r in sub.rows] == \\
        [list(r.items()) for r in fresh.rows], (v, sign)
    assert graded.signed_square(v, sign) is sub
print(len(seen))
"""


def test_suites_leave_cached_signed_squares_intact():
    # the rows of a cached signed square are shared by every caller (the
    # operad generator schemes, the random relation pools, the script_s and
    # star functors), so no caller may write to them
    proc = subprocess.run(
        [sys.executable, "-c", SIGNED_SQUARES_AFTER_SUITES,
         "verify operad-axioms", "verify qd-coherence --trials 10",
         "verify diagram-faces", "verify operad-axioms"],
        capture_output=True, env=_env(), text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
