"""Named verification suites behind the command-line front end.

Every suite is deterministic given its seed: randomized cases derive their
generators from (seed, case-name) so reports are byte-stable.
"""

import math

from . import boqd as boqd_mod
from . import graphs, realize
from .catalog import aos_data, arnold_rows, named_qd, pentagon_rows
from .operads import (
    build_family,
    compare_families,
    family_shell,
    minimal_suboperad,
    verify_axioms,
    verify_relation_morphism,
)
from .qd import (
    FunctorName,
    QDMorphism,
    STRONG_MONOIDALITY_TABLE,
    apply_functor,
    check_associativity,
    check_black_white_duality,
    check_braiding,
    check_phi_associator_coherence,
    check_phi_psi_star_duality,
    check_strong_monoidality,
    check_unit_laws,
    interchange_phi,
    interchange_psi,
    verify_diagram_face,
    FACES,
    QDFlavor,
)
from .rand import child_rng, random_boqd, random_qd
from .report import Report, VerificationReport
from .exactlin import Subspace


DEFAULT_SEED = 20250808


def _counted(name, total, failures):
    return Report(name, failures == 0, "%d/%d cases pass" % (total - failures, total))


def suite_qd_coherence(seed=DEFAULT_SEED, trials=200):
    rep = VerificationReport("qd-coherence", seed)
    small = max(10, trials // 4)

    fails = 0
    for t in range(small):
        rng = child_rng(seed, "unit.%d" % t)
        for flavor in ("plain", "symmetric", "skew"):
            a = random_qd(rng, flavor, "a")
            # one case per datum, failed if any of its laws fails
            fails += not all(r.passed for r in check_unit_laws(a))
    rep.add(_counted("unit-laws", small * 3, fails))

    fails = 0
    cases = 0
    for t in range(small):
        rng = child_rng(seed, "assoc.%d" % t)
        pl = [random_qd(rng, "plain", p, 2) for p in "abc"]
        sy = [random_qd(rng, "symmetric", p, 2) for p in "abc"]
        sk = [random_qd(rng, "skew", p, 2) for p in "abc"]
        for name, triple in (
            ("tensor", pl), ("utensor", pl), ("black", pl), ("white", pl),
            ("utensor", sy), ("vee", sy), ("oplus", sk),
        ):
            cases += 1
            if not check_associativity(name, *triple):
                fails += 1
    rep.add(_counted("associativity", cases, fails))

    fails = 0
    cases = 0
    for t in range(small):
        rng = child_rng(seed, "braid.%d" % t)
        for flavor, names in (
            ("plain", ("tensor", "utensor", "black", "white")),
            ("symmetric", ("utensor", "vee")),
            ("skew", ("oplus",)),
        ):
            a = random_qd(rng, flavor, "a", 2)
            b = random_qd(rng, flavor, "b", 2)
            for name in names:
                cases += 1
                if not check_braiding(name, a, b):
                    fails += 1
    rep.add(_counted("braiding", cases, fails))

    fails = 0
    cases = 0
    for t in range(small):
        rng = child_rng(seed, "monoidal.%d" % t)
        for f, fl, sp, tp in STRONG_MONOIDALITY_TABLE:
            a = random_qd(rng, fl.value, "a", 2)
            b = random_qd(rng, fl.value, "b", 2)
            cases += 1
            if not check_strong_monoidality(f, sp, tp, a, b):
                fails += 1
    rep.add(_counted("strong-monoidality", cases, fails))

    fails = 0
    for t in range(small):
        rng = child_rng(seed, "bw.%d" % t)
        if not check_black_white_duality(
            random_qd(rng, "plain", "a", 2), random_qd(rng, "plain", "b", 2)
        ):
            fails += 1
    rep.add(_counted("black-white-duality", small, fails))

    fails = 0
    for t in range(trials):
        rng = child_rng(seed, "phi.%d" % t)
        args = [random_qd(rng, "plain", p, 3) for p in ("a", "a'", "b", "b'")]
        if not isinstance(interchange_phi(*args), QDMorphism):
            fails += 1
        if not isinstance(interchange_psi(*args), QDMorphism):
            fails += 1
    rep.add(_counted("interchange-phi-psi", 2 * trials, fails))

    fails = 0
    for t in range(max(5, trials // 4)):
        rng = child_rng(seed, "stardual.%d" % t)
        args = [random_qd(rng, "plain", p, 2) for p in ("a", "a'", "b", "b'")]
        if not check_phi_psi_star_duality(*args):
            fails += 1
    rep.add(_counted("phi-psi-star-duality", max(5, trials // 4), fails))

    coh = max(5, trials // 4)
    fails = 0
    for t in range(coh):
        rng = child_rng(seed, "assoc-coh.%d" % t)
        args = [random_qd(rng, "plain", p, 2) for p in ("a", "a'", "b", "b'", "c", "c'")]
        if not check_phi_associator_coherence(*args):
            fails += 1
    rep.add(_counted("phi-associator-coherence", coh, fails))
    return rep


def suite_boqd_coherence(seed=DEFAULT_SEED, trials=100):
    rep = VerificationReport("boqd-coherence", seed)

    fails = 0
    for t in range(trials):
        rng = child_rng(seed, "boqd.inv.%d" % t)
        a = random_boqd(rng, "a")
        b = random_boqd(rng, "b")
        for r in boqd_mod.koszul_involution_check(a, b):
            if not r.passed:
                fails += 1
        dd = boqd_mod.boqd_dual(boqd_mod.boqd_dual(a))
        if not (dd.relations == a.relations
                and dd.generators.action == a.generators.action):
            fails += 1
        lhs = boqd_mod.boqd_dual(boqd_mod.boqd_product("black", a, b))
        rhs = boqd_mod.boqd_product(
            "white", boqd_mod.boqd_dual(a), boqd_mod.boqd_dual(b)
        )
        if lhs.relations != rhs.relations:
            fails += 1
    rep.add(_counted("involutions+duals", trials * 5, fails))

    fails = 0
    for t in range(trials):
        rng = child_rng(seed, "boqd.phi.%d" % t)
        args = [random_boqd(rng, p) for p in ("a", "a'", "b", "b'")]
        for r in boqd_mod.boqd_interchange_check("phi", *args):
            if not r.passed:
                fails += 1
        for r in boqd_mod.boqd_interchange_check("psi", *args):
            if not r.passed:
                fails += 1
    rep.add(_counted("interchange-phi-psi", 2 * trials, fails))

    quint = max(4, trials // 8)
    fails = 0
    cases = 0
    for t in range(quint):
        rng = child_rng(seed, "boqd.quint.%d" % t)
        args = [random_boqd(rng, p, max_dim=1) for p in ("a", "a'", "b", "b'")]
        for box in ("black", "white"):
            for dia in ("vee", "oplus", "tril", "trir"):
                for r in boqd_mod.boqd_interchange_check(
                    ("quintuple", box, dia), *args
                ):
                    cases += 1
                    if not r.passed:
                        fails += 1
    rep.add(_counted("quintuples", cases, fails))

    # Com spot check: the dual of the fully commutative datum is the
    # one-dimensional alternating-sum span
    com = boqd_mod.com_data()
    lie = boqd_mod.boqd_dual(com)
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
            axioms[key] = verify_axioms(fam, bound)
        for r in axioms[key]:
            rep.add(Report("%s.%s" % (fam.name, r.name), r.passed, r.details,
                           witness=r.witness, status=r.status))
        for r in verify_relation_morphism(fam, bound):
            r.name = "%s.%s" % (fam.name, r.name)
            rep.add(r)
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
        mini = minimal_suboperad(family_shell(fam), bound)
        target = build_family(ref, k=refk)
        label = "%s->%s.n%d" % (fam.name, target.name, bound)
        ok = True
        spot = ""
        for n in range(bound + 1):
            if mini.component(n).relations != target.component(n).relations:
                ok = False
                spot = "differs at arity %d" % n
                break
        if ok and name == "BKW":
            spot = "R(4) dim %d" % mini.component(4).rdim
            ok = mini.component(4).rdim == 11
        rep.add(Report(label, ok, spot))
        for r in compare_families(mini, target, bound):
            r.name = "%s.%s" % (label, r.name)
            rep.add(r)
    return rep


def suite_koszul_duals(nmax=6, seed=DEFAULT_SEED):
    rep = VerificationReport("koszul-duals", seed)
    dk = build_family("DK")
    for n in range(2, nmax + 1):
        comp = dk.component(n)
        dual = apply_functor(FunctorName.SHRIEK, comp)
        edges = dk.gen_indices(n)
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
        idx = ehkr.gen_indices(n)
        pos = {e: i for i, e in enumerate(idx)}
        rows = pentagon_rows(n, pos, len(idx))
        span = Subspace(dual.relations.ambient, rows)
        ok = span.dim == dual.rdim and span == dual.relations
        rep.add(
            Report("ehkr-shriek.n%d" % n, ok,
                   "annihilator dim %d, stated span dim %d" % (dual.rdim, span.dim))
        )
    for n in range(2, min(nmax, 5) + 1):
        r = realize.koszul_euler_check(dk.component(n), 4)
        r.name = "koszul-euler.dk.n%d" % n
        if r.status != "PASS":
            r.status = "FAIL"
        rep.add(r)
    r = realize.koszul_euler_check(ehkr.component(4), 3)
    r.name = "koszul-euler.ehkr.n4"
    rep.add(r)
    return rep


# (named datum, its arities, k): the holonomy and Arnold data whose
# quadratic leads are tried as a PBW basis
_PBW_DATA = (
    ("DK", range(3, 7), None), ("BKW", (4, 5), None), ("LG", range(4, 7), None),
    ("HG", (4, 5), 3), ("EHKR", range(4, 7), None), ("AOS", range(3, 7), None),
)


def _pbw_side(q):
    return "S" if q.flavor is QDFlavor.SYM else "A"


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
            cert = realize.pbw_certificate(_pbw_side(q), q)
            rep.add(_certificate_case("pbw." + label, cert))
            bang = apply_functor(FunctorName.SHRIEK, q)
            dual = realize.pbw_certificate(_pbw_side(bang), bang)
            rep.add(_certificate_case("pbw-dual." + label, dual))
            if cert.order is not None and dual.order is not None:
                r = realize.koszul_euler_check(q, 8)
                r.name = "koszul-euler." + label
                if r.status != "PASS":
                    r.status = "FAIL"
                rep.add(r)
    return rep


def suite_gra_iso(seed=DEFAULT_SEED):
    rep = VerificationReport("gra-iso", seed)
    for prefix, fam, nmax, wmax in (
        ("bkw-gra", build_family("BKW"), 4, 3),
        ("hg3-gra3", build_family("HG", k=3), 5, 2),
        ("lg-lgra", build_family("LG"), 8, 2),
    ):
        for r in graphs.sc_iso_check(fam, nmax, wmax):
            r.name = "%s.%s" % (prefix, r.name)
            rep.add(r)
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
    for r in graphs.graph_operad_axioms(2, True, 5):
        r.name = "gra.%s" % r.name
        rep.add(r)
    for r in graphs.graph_operad_axioms(2, False, 6):
        r.name = "lgra.%s" % r.name
        rep.add(r)
    for r in graphs.gerstenhaber_dim_check(2, 6):
        rep.add(r)
    for r in graphs.gerstenhaber_dim_check(3, 5):
        rep.add(r)
    return rep


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
        r = verify_diagram_face(face, inst)
        r.name = "named.%s" % face
        rep.add(r)
    per_face = max(1, trials // len(FACES))
    fails = 0
    cases = 0
    for face in FACES:
        for t in range(per_face):
            rng = child_rng(seed, "face.%s.%d" % (face, t))
            if face in ("shift_square", "lambda_perp", "envelope_pbw"):
                inst = random_qd(rng, "skew", "s", 2)
            elif face == "tensor_coalgebra_dual":
                inst = random_qd(rng, "plain", "p", 2)
            else:
                inst = random_qd(rng, "symmetric", "y", 2)
            cases += 1
            if not verify_diagram_face(face, inst).passed:
                fails += 1
    rep.add(_counted("random-faces", cases, fails))
    return rep


def suite_realize_duality(seed=DEFAULT_SEED, trials=100):
    rep = VerificationReport("realize-duality", seed)
    wmax = 5
    fails = 0
    cases = 0
    for t in range(trials):
        rng = child_rng(seed, "dual.%d" % t)
        pl = random_qd(rng, "plain", "p", 2)
        sy = random_qd(rng, "symmetric", "y", 2)
        dual_pl = apply_functor(FunctorName.STAR, pl)
        dual_sy = apply_functor(FunctorName.STAR, sy)
        wcap = wmax if pl.gdim == 1 else min(wmax, 4)
        for w in range(wcap + 1):
            cases += 1
            if realize.weight_component("Tc", pl, w) != \
               realize.weight_component("A", dual_pl, w):
                fails += 1
        for w in range(wmax + 1):
            cases += 2
            if realize.weight_component("Sc", sy, w) != \
               realize.weight_component("S", dual_sy, w):
                fails += 1
            if realize.weight_component("Sc", sy, w) != \
               realize.weight_component(
                   "Tc", apply_functor(FunctorName.SIGMA, sy), w
               ):
                fails += 1
    rep.add(_counted("component-dualities", cases, fails))

    dk = build_family("DK")
    ehkr = build_family("EHKR")
    for label, comp in (("dk3", dk.component(3)), ("dk4", dk.component(4)),
                        ("ehkr4", ehkr.component(4))):
        r = realize.ue_compare(comp, 4)
        r.name = "pbw.%s" % label
        rep.add(r)
    spot = tuple(
        realize.weight_component("L", dk.component(3), w) for w in range(1, 5)
    )
    rep.add(Report("pbw.spot-l-dims", spot == (3, 1, 2, 3), str(spot)))

    fails = 0
    pbw_trials = max(10, trials // 2)
    for t in range(pbw_trials):
        rng = child_rng(seed, "pbw.%d" % t)
        sk = random_qd(rng, "skew", "s", 2)
        if not realize.ue_compare(sk, 4).passed:
            fails += 1
    rep.add(_counted("pbw-random", pbw_trials, fails))

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
