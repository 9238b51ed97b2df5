"""Named verification suites behind the command-line front end.

Every suite is deterministic given its seed: randomized cases derive their
generators from (seed, case-name) so reports are byte-stable.

A randomized case group is one (tag, name, count, law) row passed to
`_case_groups`.  Trial t of the row calls law(child_rng(seed, "<tag>.<t>")),
and the law yields one verdict per case, drawing its data from that generator
in a fixed order.  The group reports "<passed>/<total> cases pass" under
name, where the total is the number of verdicts; rows with one name make one
group.  Sub-reports of another layer are added under "<prefix>.<name>" by
`_add_prefixed`.
"""

import math

from . import boqd as boqd_mod
from . import graphs, realize
from .catalog import aos_data, arnold_rows, named_qd, pentagon_rows
from .operads import (
    build_family,
    compare_families,
    minimal_suboperad,
    verify_axioms,
    verify_relation_morphism,
)
from .qd import (
    FunctorName,
    PRODUCTS,
    STRONG_MONOIDALITY_TABLE,
    apply_functor,
    check_associativity,
    check_braiding,
    check_phi_associator_coherence,
    check_phi_psi_star_duality,
    check_strong_monoidality,
    check_unit_laws,
    interchange_holds,
    monoidal_product,
    verify_diagram_face,
    FACES,
    QDFlavor,
)
from .rand import child_rng, random_boqd, random_qd
from .report import Report, VerificationReport, first_failure
from .exactlin import Subspace


DEFAULT_SEED = 20250808

# the label prefixes of the data the interchange laws compare
_PRIMED = ("a", "a'", "b", "b'")


def _case_groups(rep, seed, rows):
    verdicts = {}
    for tag, name, count, law in rows:
        verdicts.setdefault(name, []).extend(
            bool(ok) for t in range(count)
            for ok in law(child_rng(seed, "%s.%d" % (tag, t)))
        )
    for name, oks in verdicts.items():
        passed = sum(oks)
        rep.add(Report(name, passed == len(oks),
                       "%d/%d cases pass" % (passed, len(oks))))


def _renamed(name, r):
    return Report(name, r.passed, r.details, witness=r.witness, status=r.status)


def _add_prefixed(rep, prefix, reports):
    for r in reports:
        rep.add(_renamed("%s.%s" % (prefix, r.name), r))


def _draws(rng, flavor, prefixes, max_dim=2):
    return [random_qd(rng, flavor, p, max_dim) for p in prefixes]


def suite_qd_coherence(seed=DEFAULT_SEED, trials=200):
    def units(rng):
        for flavor in ("plain", "symmetric", "skew"):
            # one case per datum, failed if any of its laws fails
            a = random_qd(rng, flavor, "a")
            yield all(r.passed for r in check_unit_laws(a))

    def associativity(rng):
        for flavor, names in PRODUCTS.items():
            triple = _draws(rng, flavor, "abc")
            yield from (check_associativity(name, *triple) for name in names)

    def braiding(rng):
        for flavor, names in PRODUCTS.items():
            pair = _draws(rng, flavor, "ab")
            yield from (check_braiding(name, *pair) for name in names)

    def monoidality(rng):
        for f, fl, sp, tp in STRONG_MONOIDALITY_TABLE:
            yield check_strong_monoidality(f, sp, tp, *_draws(rng, fl, "ab"))

    def interchanges(rng):
        args = _draws(rng, "plain", _PRIMED, 3)
        spaces = [q.generators for q in args]
        for box, dia, lax in (("black", "utensor", True),
                              ("white", "tensor", False)):
            yield interchange_holds(monoidal_product, box, dia, lax, args, spaces)

    rep = VerificationReport("qd-coherence", seed)
    small = max(10, trials // 4)
    few = max(5, trials // 4)
    _case_groups(rep, seed, (
        ("unit", "unit-laws", small, units),
        ("assoc", "associativity", small, associativity),
        ("braid", "braiding", small, braiding),
        ("monoidal", "strong-monoidality", small, monoidality),
        ("bw", "black-white-duality", small, lambda rng: [
            check_strong_monoidality("star", "black", "white",
                                     *_draws(rng, "plain", "ab"))]),
        ("phi", "interchange-phi-psi", trials, interchanges),
        ("stardual", "phi-psi-star-duality", few, lambda rng: [
            check_phi_psi_star_duality(*_draws(rng, "plain", _PRIMED))]),
        ("assoc-coh", "phi-associator-coherence", few, lambda rng: [
            check_phi_associator_coherence(
                *_draws(rng, "plain", _PRIMED + ("c", "c'")))]),
    ))
    return rep


def suite_boqd_coherence(seed=DEFAULT_SEED, trials=100):
    dual, product = boqd_mod.boqd_dual, boqd_mod.boqd_product

    def involutions(rng):
        a = random_boqd(rng, "a")
        b = random_boqd(rng, "b")
        for p, q in (("vee", "oplus"), ("tril", "trir"), ("ucirc", "circ"),
                     ("black", "white")):
            yield dual(product(p, a, b)) == product(q, dual(a), dual(b))
        dd = dual(dual(a))
        yield (dd.relations == a.relations
               and dd.generators.action == a.generators.action)

    def interchanges(rng):
        args = [random_boqd(rng, p) for p in _PRIMED]
        spaces = [m.generators.space for m in args]
        for box, dia, lax in (("black", "ucirc", True), ("white", "circ", False)):
            yield interchange_holds(product, box, dia, lax, args, spaces)

    def quintuples(rng):
        args = [random_boqd(rng, p, max_dim=1) for p in _PRIMED]
        spaces = [m.generators.space for m in args]
        for box in ("black", "white"):
            for dia in ("vee", "oplus", "tril", "trir"):
                for lax in (True, False):
                    yield interchange_holds(product, box, dia, lax, args, spaces)

    rep = VerificationReport("boqd-coherence", seed)
    _case_groups(rep, seed, (
        ("boqd.inv", "involutions+duals", trials, involutions),
        ("boqd.phi", "interchange-phi-psi", trials, interchanges),
        ("boqd.quint", "quintuples", max(4, trials // 8), quintuples),
    ))

    # Com spot check: the dual of the fully commutative datum is the
    # one-dimensional alternating-sum span
    com = boqd_mod.com_data()
    lie = dual(com)
    sp = lie.space
    jac = {sp.index(1, 0, 0): 1, sp.index(2, 0, 0): 1, sp.index(3, 0, 0): 1}
    ok = lie.rdim == 1 and lie.relations.contains(jac)
    rep.add(Report("com-dual-spot", ok, "dual relation dim %d" % lie.rdim))
    return rep


_FAMILY_BOUNDS = (
    ("BKW", None, 6), ("DK", None, 6), ("HG", 3, 6), ("EHKR", None, 6),
    ("HG", 4, 6), ("RHG", 4, 6), ("LG", None, 8), ("LHG", 3, 8),
)


def suite_operad_axioms(family=None, k=None, nmax=None, seed=DEFAULT_SEED):
    rep = VerificationReport("operad-axioms", seed)
    targets = _FAMILY_BOUNDS if family is None else ((family, k, nmax or 6),)
    # the axioms read only the shared scheme, so families on one scheme
    # share a verdict; each family gets its own copies of the cases
    axioms = {}
    for name, kk, bound in targets:
        fam = build_family(name, k=kk)
        key = (fam.scheme, bound)
        if key not in axioms:
            axioms[key] = verify_axioms(fam.scheme, bound)
        _add_prefixed(rep, fam.name, axioms[key])
        _add_prefixed(rep, fam.name, verify_relation_morphism(fam, bound))
    return rep


# (shell, k) -> (shell, k, default arity bound, reference family, its k);
# only the HG shell reads k
_MINIMALITY_CASES = {
    ("BKW", None): ("BKW", None, 5, "DK", None),
    ("HG", 3): ("HG", 3, 6, "EHKR", None),
    ("HG", 4): ("HG", 4, 6, "RHG", 4),
    ("LG", None): ("LG", None, 8, "LG", None),
}


def suite_minimality(shell=None, k=None, nmax=None, seed=DEFAULT_SEED):
    rep = VerificationReport("minimality", seed)
    if shell is None:
        cases = tuple(_MINIMALITY_CASES.values())
    else:
        key = (shell, k if shell == "HG" else None)
        if key not in _MINIMALITY_CASES:
            raise ValueError(
                "minimality has no case for shell %r with k %r (accepted: "
                "BKW, HG with k 3 or 4, LG)" % (shell, k)
            )
        name, kk, bound, ref, refk = _MINIMALITY_CASES[key]
        cases = ((name, kk, bound if nmax is None else nmax, ref, refk),)
    for name, kk, bound, ref, refk in cases:
        fam = build_family(name, k=kk)
        mini = minimal_suboperad(fam.scheme, bound)
        target = build_family(ref, k=refk)
        label = "%s->%s.n%d" % (fam.name, target.name, bound)
        _, fail = first_failure(
            (n, mini.component(n).relations, target.component(n).relations)
            for n in range(bound + 1))
        ok = fail is None
        spot = "" if ok else "differs at arity %d" % fail[0]
        if ok and name == "BKW":
            spot = "R(4) dim %d" % mini.component(4).rdim
            ok = mini.component(4).rdim == 11
        rep.add(Report(label, ok, spot))
        _add_prefixed(rep, label, compare_families(mini, target, bound))
    return rep


def _koszul_euler(name, q, wmax):
    # a weight series product that is not 1 up to the cap fails the case
    r = realize.koszul_euler_check(q, wmax)
    return Report(name, r.status == "PASS", r.details)


def suite_koszul_duals(nmax=6, seed=DEFAULT_SEED):
    rep = VerificationReport("koszul-duals", seed)
    dk = build_family("DK")
    for n in range(2, nmax + 1):
        comp = dk.component(n)
        dual = apply_functor(FunctorName.SHRIEK, comp)
        edges = dk.scheme.indices(n)
        pos = {e: i for i, e in enumerate(edges)}
        rows = arnold_rows(n, pos, len(edges))
        span = Subspace(dual.relations.ambient, rows)
        ok = span == dual.relations and dual.rdim == math.comb(n, 3)
        rep.add(
            Report("dk-shriek.n%d" % n, ok,
                   "dual relation dim %d = C(%d,3)" % (dual.rdim, n))
        )
    ehkr = build_family("EHKR")
    for n in range(3, nmax + 1):
        comp = ehkr.component(n)
        dual = apply_functor(FunctorName.SHRIEK, comp)
        idx = ehkr.scheme.indices(n)
        pos = {e: i for i, e in enumerate(idx)}
        rows = pentagon_rows(n, pos, len(idx))
        span = Subspace(dual.relations.ambient, rows)
        ok = span.dim == dual.rdim and span == dual.relations
        rep.add(
            Report("ehkr-shriek.n%d" % n, ok,
                   "annihilator dim %d, stated span dim %d" % (dual.rdim, span.dim))
        )
    for n in range(2, min(nmax, 5) + 1):
        rep.add(_koszul_euler("koszul-euler.dk.n%d" % n, dk.component(n), 4))
    rep.add(_renamed("koszul-euler.ehkr.n4",
                     realize.koszul_euler_check(ehkr.component(4), 3)))
    return rep


# (named datum, its arities, k): the holonomy and Arnold data whose
# quadratic leads are tried as a PBW basis
_PBW_DATA = (
    ("DK", range(3, 7), None), ("BKW", (4, 5), None), ("LG", range(4, 7), None),
    ("HG", (4, 5), 3), ("EHKR", range(4, 7), None), ("AOS", range(3, 7), None),
)


def _certificate_case(name, cert):
    what = ("normal words of length 3" if cert.side == "A"
            else "standard monomials of weight 3")
    if cert.order is None:
        return Report(name, True,
                      "elimination: no order certifies %s; %s %s against "
                      "dim %s_3 %d" % (cert.side, what,
                                       ", ".join("%s %d" % t for t in cert.tried),
                                       cert.side, cert.dim3),
                      status="INFO")
    return Report(name, True,
                  "%s PBW in the %s order: %d %s = dim %s_3 %d"
                  % (cert.side, cert.order, dict(cert.tried)[cert.order], what,
                     cert.side, cert.dim3))


def suite_koszul_pbw(seed=DEFAULT_SEED):
    """Certified PBW bases of the named data (diamond lemma, Bergman 1978):
    a case is PASS only when the normal count of some order's quadratic
    leads equals the eliminated dim at weight 3.  Where q and q^! are both
    PBW, both are Koszul (Priddy 1970) and h(t) h^!(-t) = 1 must hold; it
    is checked to weight 8, which only counting reaches at these sizes."""
    rep = VerificationReport("koszul-pbw", seed)
    for name, arities, k in _PBW_DATA:
        for n in arities:
            label = "%s%s.n%d" % (name.lower(), k or "", n)
            q = named_qd(name, n, k=k)
            cert = realize.pbw_certificate(realize.algebra_side(q), q)
            rep.add(_certificate_case("pbw." + label, cert))
            bang = apply_functor(FunctorName.SHRIEK, q)
            dual = realize.pbw_certificate(realize.algebra_side(bang), bang)
            rep.add(_certificate_case("pbw-dual." + label, dual))
            if cert.order is not None and dual.order is not None:
                rep.add(_koszul_euler("koszul-euler." + label, q, 8))
    return rep


def suite_gra_iso(seed=DEFAULT_SEED):
    rep = VerificationReport("gra-iso", seed)
    for prefix, fam, nmax, wmax in (
        ("bkw-gra", build_family("BKW"), 4, 3),
        ("hg3-gra3", build_family("HG", k=3), 5, 2),
        ("lg-lgra", build_family("LG"), 8, 2),
    ):
        _add_prefixed(rep, prefix, graphs.sc_iso_check(fam, nmax, wmax))
    # the two displayed insertion examples, term by term
    graph = graphs.LabeledHypergraph
    out = graphs.compose_graphs(graph(2, 2, True, [(1, 2)]), 1,
                                graph(3, 2, True, [(1, 2), (1, 3)]))
    expect = {
        graph(4, 2, True, [(1, 2), (1, 3), (1, 4)]): 1,
        graph(4, 2, True, [(1, 2), (1, 3), (2, 4)]): 1,
        graph(4, 2, True, [(1, 2), (1, 3), (3, 4)]): 1,
    }
    rep.add(Report("example.insertion-sum", out == expect,
                   "three reconnection terms"))
    lout = graphs.compose_graphs(graph(4, 2, False, [(1, 2), (3, 4)]), 3,
                                 graph(3, 2, False, [(1, 2)]))
    lg = graph(6, 2, False, [(1, 2), (3, 4), (5, 6)])
    rep.add(Report("example.linear-insertion",
                   list(lout) == [lg] and abs(lout[lg]) == 1,
                   "single term, sign fixed by the lexicographic edge order"))
    _add_prefixed(rep, "gra", graphs.graph_operad_axioms(2, True, 5))
    _add_prefixed(rep, "lgra", graphs.graph_operad_axioms(2, False, 6))
    for r in graphs.gerstenhaber_dim_check(2, 6):
        rep.add(r)
    for r in graphs.gerstenhaber_dim_check(3, 5):
        rep.add(r)
    return rep


# the label prefix of a random datum of each flavor
_PREFIXES = {QDFlavor.PLAIN: "p", QDFlavor.SYM: "y", QDFlavor.SKEW: "s"}


def suite_diagram_faces(seed=DEFAULT_SEED, trials=100):
    rep = VerificationReport("diagram-faces", seed)
    dk3 = build_family("DK").component(3)
    aos3 = aos_data(3)
    named = (
        ("shift_square", dk3), ("lambda_perp", dk3), ("envelope_pbw", dk3),
        ("sigma_perp", aos3), ("sym_coalgebra_dual", aos3),
        ("sym_vs_cofree", aos3), ("sym_quotient", aos3),
        ("tensor_coalgebra_dual", apply_functor(FunctorName.LAMBDA, dk3)),
    )
    for face, inst in named:
        rep.add(_renamed("named." + face, verify_diagram_face(face, inst)))

    def face_law(face, flavor):
        return lambda rng: [verify_diagram_face(
            face, random_qd(rng, flavor, _PREFIXES[flavor], 2)).passed]

    per_face = max(1, trials // len(FACES))
    _case_groups(rep, seed, [
        ("face." + face, "random-faces", per_face, face_law(face, flavor))
        for face, (flavor, *_) in FACES.items()
    ])
    return rep


def suite_realize_duality(seed=DEFAULT_SEED, trials=100):
    rep = VerificationReport("realize-duality", seed)
    wmax = 5
    dim = realize.weight_component

    def dualities(rng):
        pl = random_qd(rng, "plain", "p", 2)
        sy = random_qd(rng, "symmetric", "y", 2)
        dual_pl = apply_functor(FunctorName.STAR, pl)
        dual_sy = apply_functor(FunctorName.STAR, sy)
        wcap = wmax if pl.gdim == 1 else min(wmax, 4)
        # one case per weight and duality
        for w in range(wcap + 1):
            yield dim("Tc", pl, w) == dim("A", dual_pl, w)
        for w in range(wmax + 1):
            yield dim("Sc", sy, w) == dim("S", dual_sy, w)
            yield dim("Sc", sy, w) == dim(
                "Tc", apply_functor(FunctorName.SIGMA, sy), w)

    dk = build_family("DK")
    ehkr = build_family("EHKR")
    for label, comp in (("dk3", dk.component(3)), ("dk4", dk.component(4)),
                        ("ehkr4", ehkr.component(4))):
        rep.add(_renamed("pbw." + label, realize.ue_compare(comp, 4)))
    spot = tuple(dim("L", dk.component(3), w) for w in range(1, 5))
    rep.add(Report("pbw.spot-l-dims", spot == (3, 1, 2, 3), str(spot)))
    _case_groups(rep, seed, (
        ("dual", "component-dualities", trials, dualities),
        ("pbw", "pbw-random", max(10, trials // 2), lambda rng: [
            realize.ue_compare(random_qd(rng, "skew", "s", 2), 4).passed]),
    ))

    for n in range(2, 7):
        dims = realize.hilbert_series("S", aos_data(n), n - 1)
        poly = [1]
        for i in range(1, n):
            poly = [a + b for a, b in
                    zip(poly + [0], [0] + [i * c for c in poly])]
        ok = dims == poly and sum(dims) == math.factorial(n)
        rep.add(Report("hilbert.aos.n%d" % n, ok,
                       "dims %s, total %d" % (dims, sum(dims))))
    return rep


SUITES = {
    "qd-coherence": suite_qd_coherence,
    "boqd-coherence": suite_boqd_coherence,
    "operad-axioms": suite_operad_axioms,
    "minimality": suite_minimality,
    "koszul-duals": suite_koszul_duals,
    "koszul-pbw": suite_koszul_pbw,
    "gra-iso": suite_gra_iso,
    "diagram-faces": suite_diagram_faces,
    "realize-duality": suite_realize_duality,
}
