"""Acceptance suite: every criterion prints one PASS/FAIL line and is
asserted at its stated bound.  Run directly for the plain summary

    python tests/test_acceptance.py

or through pytest (add -s to see the lines)."""

import json
import math
import random
import subprocess
import sys
import time

from quadop.boqd import boqd_dual, boqd_product, com_data
from quadop.catalog import aos_data, arnold_rows, pentagon_rows
from quadop.exactlin import Subspace
from quadop.graphs import (
    LabeledHypergraph as graph,
    compose_graphs,
    gerstenhaber_dim_check,
    sc_iso_check,
)
from quadop.operads import (
    build_family,
    minimal_suboperad,
    verify_axioms,
    verify_relation_morphism,
)
from quadop.qd import (
    FACES,
    apply_functor,
    check_phi_associator_coherence,
    interchange_holds,
    monoidal_product,
    verify_diagram_face,
)
from quadop.rand import child_rng, random_boqd, random_qd
from quadop.realize import koszul_euler_check, ue_compare, weight_component

SEED = 20250808
RESULTS = []


def record(name, ok, detail=""):
    line = "[%s] %s%s" % ("PASS" if ok else "FAIL", name,
                          (" — " + detail) if detail else "")
    print(line)
    RESULTS.append((name, ok))
    return ok


def criterion_1_operad_laws():
    t0 = time.time()
    ok = True
    for name, k, bound in (
        ("BKW", None, 6), ("DK", None, 6), ("HG", 3, 6), ("EHKR", None, 6),
        ("HG", 4, 6), ("RHG", 4, 6), ("LG", None, 8), ("LHG", 3, 8),
    ):
        fam = build_family(name, k=k)
        for r in verify_axioms(fam.scheme, bound) + verify_relation_morphism(fam, bound):
            if r.status == "FAIL":
                ok = False
    elapsed = time.time() - t0
    return record(
        "1 operad-law suite (8 families, exact)", ok and elapsed < 300,
        "%.1fs" % elapsed,
    )


def criterion_2_minimality():
    ok = True
    spot = None
    for shell_name, k, bound, ref, refk in (
        ("BKW", None, 5, "DK", None),
        ("HG", 3, 6, "EHKR", None),
        ("HG", 4, 6, "RHG", 4),
    ):
        shell = build_family(shell_name, k=k).scheme
        mini = minimal_suboperad(shell, bound)
        target = build_family(ref, k=refk)
        for n in range(bound + 1):
            if mini.component(n).relations != target.component(n).relations:
                ok = False
        if shell_name == "BKW":
            spot = mini.component(4).rdim
    ok = ok and spot == 11
    return record("2 minimality fixpoints equal the refined families", ok,
                  "spot dim R(4) = %s" % spot)


def criterion_3_koszul_duality():
    ok = True
    dk = build_family("DK")
    for n in range(2, 7):
        dual = apply_functor("shriek", dk.component(n))
        idx = dk.scheme.indices(n)
        pos = {e: i for i, e in enumerate(idx)}
        span = Subspace(dual.relations.ambient, arnold_rows(n, pos, len(idx)))
        if not (span == dual.relations and dual.rdim == math.comb(n, 3)):
            ok = False
    ehkr = build_family("EHKR")
    dims = []
    for n in range(3, 7):
        dual = apply_functor("shriek", ehkr.component(n))
        idx = ehkr.scheme.indices(n)
        pos = {e: i for i, e in enumerate(idx)}
        span = Subspace(dual.relations.ambient, pentagon_rows(n, pos, len(idx)))
        dims.append((dual.rdim, span.dim))
        if span.dim != dual.rdim or span != dual.relations:
            ok = False
    return record("3 Koszul duals match the stated presentations", ok,
                  "pentagon dims %s" % dims)


def criterion_4_hilbert():
    t0 = time.time()
    ok = True
    for n in range(2, 7):
        dims = [weight_component("S", aos_data(n), w) for w in range(n)]
        poly = [1]
        for i in range(1, n):
            poly = [a + b for a, b in zip(poly + [0], [0] + [i * c for c in poly])]
        if dims != poly or sum(dims) != math.factorial(n):
            ok = False
    elapsed = time.time() - t0
    return record("4 commutative quotient dims are the rising-factorial "
                  "coefficients, total n!", ok and elapsed < 120,
                  "%.1fs" % elapsed)


def criterion_5_koszul_euler():
    ok = True
    dk = build_family("DK")
    for n in range(2, 6):
        if koszul_euler_check(dk.component(n), 4).status != "PASS":
            ok = False
    return record("5 Koszul-Euler products vanish mod t^5 for the chord data",
                  ok)


def criterion_6_interchange():
    ok = True
    for t in range(200):
        rng = child_rng(SEED, "acc.phi.%d" % t)
        args = [random_qd(rng, "plain", p, 3) for p in ("a", "a'", "b", "b'")]
        spaces = [q.generators for q in args]
        for box, dia, lax in (("black", "utensor", True),
                              ("white", "tensor", False)):
            ok = ok and interchange_holds(monoidal_product, box, dia, lax,
                                          args, spaces)
    for t in range(50):
        rng = child_rng(SEED, "acc.coh.%d" % t)
        args = [random_qd(rng, "plain", p, 2) for p in ("a", "a'", "b", "b'", "c", "c'")]
        if not check_phi_associator_coherence(*args):
            ok = False
    quad_count = 0
    for t in range(100):
        rng = child_rng(SEED, "acc.boqd.%d" % t)
        args = [random_boqd(rng, p, max_dim=2) for p in ("a", "a'", "b", "b'")]
        spaces = [m.generators.space for m in args]
        quad_count += 1
        for box, dia, lax in (("black", "ucirc", True), ("white", "circ", False)):
            ok = ok and interchange_holds(boqd_product, box, dia, lax,
                                          args, spaces)
        small = [random_boqd(child_rng(SEED, "acc.quint.%d" % t), p, max_dim=1)
                 for p in ("a", "a'", "b", "b'")]
        spaces = [m.generators.space for m in small]
        for box in ("black", "white"):
            for dia in ("vee", "oplus", "tril", "trir"):
                for lax in (True, False):
                    ok = ok and interchange_holds(boqd_product, box, dia, lax,
                                                  small, spaces)
    return record("6 interchange laws: 200 quadruples, 50 triples, "
                  "100 module quadruples with all eight quintuples", ok)


def criterion_7_realization_duality():
    ok = True
    for t in range(100):
        rng = child_rng(SEED, "acc.dual.%d" % t)
        pl = random_qd(rng, "plain", "p", 2)
        sy = random_qd(rng, "symmetric", "y", 2)
        dual_pl = apply_functor("star", pl)
        dual_sy = apply_functor("star", sy)
        wcap = 5 if pl.gdim == 1 else 4
        for w in range(wcap + 1):
            if weight_component("Tc", pl, w) != \
               weight_component("A", dual_pl, w):
                ok = False
        for w in range(6):
            d = weight_component("Sc", sy, w)
            if d != weight_component("S", dual_sy, w):
                ok = False
            if d != weight_component("Tc", apply_functor("sigma", sy), w):
                ok = False
    return record("7 realisation dualities on 100 random instances, w <= 5", ok)


def criterion_8_pbw():
    ok = True
    dk = build_family("DK")
    ehkr = build_family("EHKR")
    for comp in (dk.component(3), dk.component(4), ehkr.component(4)):
        if not ue_compare(comp, 4).passed:
            ok = False
    for t in range(50):
        rng = child_rng(SEED, "acc.pbw.%d" % t)
        if not ue_compare(random_qd(rng, "skew", "s", 2), 4).passed:
            ok = False
    spot = tuple(weight_component("L", dk.component(3), w) for w in range(1, 5))
    ok = ok and spot == (3, 1, 2, 3)
    return record("8 enveloping-algebra dims match the Lie-side prediction",
                  ok, "spot %s" % (spot,))


def criterion_9_graph_isos():
    ok = True
    for fam, nmax, wmax in (
        (build_family("BKW"), 4, 3),
        (build_family("HG", k=3), 5, 2),
        (build_family("LG"), 8, 2),
    ):
        for r in sc_iso_check(fam, nmax, wmax):
            if not r.passed:
                ok = False
    out = compose_graphs(
        graph(2, 2, True, [(1, 2)]), 1, graph(3, 2, True, [(1, 2), (1, 3)])
    )
    expect = {
        graph(4, 2, True, [(1, 2), (1, 3), (1, 4)]): 1,
        graph(4, 2, True, [(1, 2), (1, 3), (2, 4)]): 1,
        graph(4, 2, True, [(1, 2), (1, 3), (3, 4)]): 1,
    }
    if out != expect:
        ok = False
    lout = compose_graphs(
        graph(4, 2, False, [(1, 2), (3, 4)]), 3, graph(3, 2, False, [(1, 2)])
    )
    lg = graph(6, 2, False, [(1, 2), (3, 4), (5, 6)])
    if list(lout) != [lg] or abs(lout[lg]) != 1:
        ok = False
    return record("9 cofree graph isomorphisms and the two insertion examples",
                  ok)


def criterion_10_involutions():
    ok = True
    for t in range(100):
        rng = child_rng(SEED, "acc.inv.%d" % t)
        a = random_boqd(rng, "a")
        b = random_boqd(rng, "b")
        for p, q in (("vee", "oplus"), ("tril", "trir"), ("ucirc", "circ")):
            ok = ok and (boqd_dual(boqd_product(p, a, b))
                         == boqd_product(q, boqd_dual(a), boqd_dual(b)))
    com = com_data()
    lie = boqd_dual(com)
    sp = lie.space
    jac = {sp.index(i, 0, 0): 1 for i in (1, 2, 3)}
    ok = ok and lie.rdim == 1 and lie.relations.contains(jac)
    return record("10 operadic duality involutions plus the commutative spot",
                  ok, "dual relation dim %d" % lie.rdim)


def criterion_11_gerstenhaber_and_faces():
    ok = all(r.passed for r in gerstenhaber_dim_check(2, 6))
    dk3 = build_family("DK").component(3)
    aos3 = aos_data(3)
    named = (
        ("shift_square", dk3), ("lambda_perp", dk3), ("envelope_pbw", dk3),
        ("sigma_perp", aos3), ("sym_coalgebra_dual", aos3),
        ("sym_vs_cofree", aos3), ("sym_quotient", aos3),
        ("tensor_coalgebra_dual", apply_functor("lambda", dk3)),
    )
    for face, inst in named:
        if not verify_diagram_face(face, inst).passed:
            ok = False
    count = 0
    for face, (flavor, *_) in FACES.items():
        for t in range(13):
            rng = child_rng(SEED, "acc.face.%s.%d" % (face, t))
            inst = random_qd(rng, flavor, "x", 2)
            count += 1
            if not verify_diagram_face(face, inst).passed:
                ok = False
    return record("11 factorial dimensions to n = 6 and all diagram faces",
                  ok, "%d random face instances" % count)


def criterion_12_determinism():
    cmd = [sys.executable, "-m", "quadop.cli", "verify", "diagram-faces",
           "--seed", "424242", "--trials", "16"]
    a = subprocess.run(cmd, capture_output=True).stdout
    b = subprocess.run(cmd, capture_output=True).stdout
    ok = a == b and json.loads(a)["seed"] == 424242
    return record("12 reports are byte-identical for a fixed seed", ok)


def test_criterion_1():
    assert criterion_1_operad_laws()


def test_criterion_2():
    assert criterion_2_minimality()


def test_criterion_3():
    assert criterion_3_koszul_duality()


def test_criterion_4():
    assert criterion_4_hilbert()


def test_criterion_5():
    assert criterion_5_koszul_euler()


def test_criterion_6():
    assert criterion_6_interchange()


def test_criterion_7():
    assert criterion_7_realization_duality()


def test_criterion_8():
    assert criterion_8_pbw()


def test_criterion_9():
    assert criterion_9_graph_isos()


def test_criterion_10():
    assert criterion_10_involutions()


def test_criterion_11():
    assert criterion_11_gerstenhaber_and_faces()


def test_criterion_12():
    assert criterion_12_determinism()


def main():
    t0 = time.time()
    for fn in (
        criterion_1_operad_laws, criterion_2_minimality,
        criterion_3_koszul_duality, criterion_4_hilbert,
        criterion_5_koszul_euler, criterion_6_interchange,
        criterion_7_realization_duality, criterion_8_pbw,
        criterion_9_graph_isos, criterion_10_involutions,
        criterion_11_gerstenhaber_and_faces, criterion_12_determinism,
    ):
        fn()
    bad = [name for name, ok in RESULTS if not ok]
    print("—" * 60)
    print("%d/%d criteria pass in %.1fs" % (
        len(RESULTS) - len(bad), len(RESULTS), time.time() - t0))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
