"""Command-line front end: build named objects, print dimension tables, and
run verification suites with seeds.

Exit codes: 0 success, 1 verification failure, 2 usage error.  Reports are
byte-identical across runs for a fixed seed; wall-clock timing is only
included with --timings.
"""

import argparse
import json
import sys
import time

from . import realize
from .catalog import named_qd
from .operads import build_family
from .qd import apply_functor, monoidal_product, qd_loads, qd_to_json, QDFlavor
from .suites import DEFAULT_SEED, SUITES


def _family_descriptor(fam, nmax):
    return {
        "name": fam.name,
        "symmetric": fam.scheme.symmetric,
        "k": fam.scheme.k,
        "max_arity": nmax,
        "generator_dims": [fam.component(n).gdim for n in range(nmax + 1)],
        "relation_dims": [fam.component(n).rdim for n in range(nmax + 1)],
    }


def _emit(args, payload, tsv_rows=None):
    if args.format == "tsv":
        text = "\n".join("\t".join(str(x) for x in row) for row in tsv_rows) + "\n"
    else:
        text = json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_qd(args):
    """The data of the --qd values (JSON files, AOS or family names).  --n
    and --k qualify a name, so each is a usage error where no datum reads
    it: --n where every datum is a JSON file, --k where every datum is a
    JSON file or AOS."""
    names = [v for v in args.qd if not v.endswith(".json")]
    if args.n is not None and not names:
        raise UsageError("a JSON datum reads no --n")
    if args.k is not None and all(v.upper() == "AOS" for v in names):
        raise UsageError("--qd %s reads no --k" % " ".join(args.qd))
    if names and args.n is None:
        raise UsageError("--qd %s needs --n" % names[0])
    data = []
    for value in args.qd:
        if value.endswith(".json"):
            with open(value, encoding="utf-8") as fh:
                data.append(qd_loads(fh.read()))
        else:
            data.append(named_qd(value, args.n, k=args.k))
    return data


# options that only some commands read; every command reads --seed, --out and
# --format json (seedless ones ignore the seed; only dims prints TSV)
_SELECTIVE = ("family", "qd", "k", "n", "nmax", "wmax", "trials", "timings",
              "relations", "shell", "functor", "product")


def _reads(args, command, *names):
    """Reject a selective option outside names: one that the command would
    ignore is a usage error, not a silent no-op."""
    for name in _SELECTIVE:
        if name not in names and getattr(args, name, None) not in (None, False):
            raise UsageError("%s does not read --%s" % (command, name))


def cmd_dims(args):
    if args.family:
        _reads(args, "dims --family", "family", "k", "nmax", "relations")
        nmax = 6 if args.nmax is None else args.nmax
        fam = build_family(args.family, k=args.k)
        if args.relations:
            dims = [fam.component(n).rdim for n in range(1, nmax + 1)]
            _emit(args, {"family": fam.name, "relation_dims": dims},
                  tsv_rows=[dims])
        else:
            _emit(args, _family_descriptor(fam, nmax),
                  tsv_rows=[[fam.component(n).gdim for n in range(1, nmax + 1)],
                            [fam.component(n).rdim for n in range(1, nmax + 1)]])
        return 0
    if not args.qd:
        raise UsageError("dims needs --family or --qd")
    _reads(args, "dims --qd", "qd", "n", "k",
           "relations" if args.relations else "wmax")
    [q] = _resolve_qd(args)
    if args.relations:
        _emit(args, {"qd": args.qd[0], "relation_dim": q.rdim}, tsv_rows=[[q.rdim]])
        return 0
    wmax = args.wmax if args.wmax is not None else 5
    # the algebra side, then the cofree side (the Lie side for skew data)
    reals = (realize.algebra_side(q),
             {QDFlavor.SYM: "Sc", QDFlavor.SKEW: "L"}.get(q.flavor, "Tc"))
    table = {}
    rows = []
    for r in reals:
        dims = realize.hilbert_series(r, q, wmax)
        table[r] = dims
        rows.append([r] + dims)
    _emit(args, {"qd": args.qd[0], "weights": list(range(wmax + 1)), "dims": table},
          tsv_rows=rows)
    return 0


def cmd_verify(args):
    if args.suite not in SUITES:
        raise UsageError("unknown suite %r (choose from %s)"
                         % (args.suite, ", ".join(sorted(SUITES))))
    fn = SUITES[args.suite]
    # a suite takes only positional-or-keyword parameters, all named here
    params = fn.__code__.co_varnames[:fn.__code__.co_argcount]
    command, reads = "verify " + args.suite, set(params)
    for owner in ("family", "shell"):
        if owner in params and getattr(args, owner) is None:
            # --k and --nmax qualify the family or shell given; without one
            # the suite runs its own table of cases
            command += " without --" + owner
            reads -= {"k", "nmax"}
    _reads(args, command, "timings", *reads)
    kwargs = {p: getattr(args, p) for p in params
              if getattr(args, p) is not None}
    t0 = time.perf_counter()
    report = fn(**kwargs)
    if args.timings:
        report.runtime_ms = int((time.perf_counter() - t0) * 1000)
    _emit(args, report.to_json())
    return 0 if report.ok else 1


def cmd_build(args):
    if args.family and not args.functor and not args.product:
        _reads(args, "build --family", "family", "k", "nmax")
        nmax = 6 if args.nmax is None else args.nmax
        fam = build_family(args.family, k=args.k)
        _emit(args, _family_descriptor(fam, nmax))
        return 0
    if args.functor:
        if not args.qd:
            raise UsageError("build --functor needs --qd")
        _reads(args, "build --functor", "functor", "qd", "n", "k")
        [q] = _resolve_qd(args)
        out = apply_functor(args.functor, q)
        _emit(args, qd_to_json(out))
        return 0
    if args.product:
        if len(args.qd or ()) != 2:
            raise UsageError("build --product needs exactly two --qd arguments")
        _reads(args, "build --product", "product", "qd", "n", "k")
        a, b = _resolve_qd(args)
        out = monoidal_product(args.product, a, b)
        _emit(args, qd_to_json(out))
        return 0
    if args.qd:
        _reads(args, "build --qd", "qd", "n", "k")
        _emit(args, qd_to_json(_resolve_qd(args)[0]))
        return 0
    raise UsageError("build needs --family, --functor, --product, or --qd")


class UsageError(Exception):
    pass


def make_parser():
    parser = argparse.ArgumentParser(
        prog="quadop",
        description="exact computations with quadratic data and operads",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--family", help="family name: BKW DK HG RHG EHKR LG LHG")
        p.add_argument("--qd", action="append",
                       help="named datum (AOS or a family name) or a JSON "
                            "file; build --product takes two")
        p.add_argument("--k", type=int, help="hyperedge size for HG/RHG/LHG")
        p.add_argument("--n", type=int, help="arity of the component")
        p.add_argument("--nmax", type=int, help="arity bound")
        p.add_argument("--wmax", type=int, help="weight bound")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--trials", type=int)
        p.add_argument("--format", choices=("json", "tsv"), default="json")
        p.add_argument("--out", help="write output to a file")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock runtime in reports")

    p_dims = sub.add_parser("dims", help="dimension tables")
    common(p_dims)
    p_dims.add_argument("--relations", action="store_true",
                        help="relation-space dimensions instead of weights")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", help=", ".join(sorted(SUITES)))
    common(p_verify)
    p_verify.add_argument("--shell", help="shell family for the minimality suite")

    p_build = sub.add_parser("build", help="serialize a named object")
    common(p_build)
    p_build.add_argument("--functor",
                         help="lambda sigma script_s antishriek antishriek_inv star shriek")
    p_build.add_argument("--product",
                         help="tensor utensor vee oplus black white")
    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if len(args.qd or ()) > 1 and not getattr(args, "product", None):
            raise UsageError("only build --product takes a second --qd")
        for name, low in (("trials", 1), ("nmax", 1), ("n", 0), ("wmax", 0)):
            value = getattr(args, name)
            if value is not None and value < low:
                raise UsageError("--%s must be at least %d, got %d"
                                 % (name, low, value))
        if args.command == "dims":
            return cmd_dims(args)
        if args.format == "tsv":
            raise UsageError("%s has no TSV form" % args.command)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "build":
            return cmd_build(args)
        raise UsageError("unknown command")
    except UsageError as e:
        sys.stderr.write("usage error: %s\n" % e)
        return 2
    except (ValueError, KeyError, OSError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
