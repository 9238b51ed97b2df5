import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from quadop.exactlin import LinearMap, Subspace, Vector, compose_cols, nullspace_rows
from quadop.graded import (
    GradedSpace,
    _pair_vector,
    direct_sum,
    dual,
    in_signed_square,
    shift,
    shift_square_map,
    signed_square,
    square,
    tensor_product,
    word_sign,
)
from quadop.kernel import echelon_rows
from quadop.qd import (
    FlavorMismatch,
    FlavorViolation,
    FunctorName,
    ProductName,
    QDFlavor,
    PRODUCTS,
    SQUARE_SIGN,
    STRONG_MONOIDALITY_TABLE,
    apply_functor,
    check_associativity,
    check_braiding,
    check_morphism,
    check_phi_associator_coherence,
    check_phi_psi_star_duality,
    check_strong_monoidality,
    check_unit_laws,
    inj14_map,
    interchange,
    interchange_holds,
    make_qd,
    monoidal_product,
    pr14_map,
    qd_loads,
    qd_to_json,
    qd_zero,
    verify_diagram_face,
    _functor_image,
)
from quadop.rand import _flavor_pool, child_rng, random_graded_space, random_qd
from quadop.catalog import aos_data, named_qd


def dk3():
    return named_qd("DK", 3)


# the interchange laws of quadratic data as (box, dia, lax)
PHI = ("black", "utensor", True)
PSI = ("white", "tensor", False)


def _interchange(law, data, check=interchange):
    return check(monoidal_product, *law, data, [q.generators for q in data])


def test_make_qd_validation():
    v = GradedSpace.from_labels(["x", "y"])
    with pytest.raises(FlavorViolation) as err:
        make_qd("symmetric", v, [{1: 1}])  # x(x)y alone is not symmetric
    assert err.value.witness is not None
    one = GradedSpace.from_labels(["x"])
    assert make_qd("symmetric", one, []).rdim == 0
    assert make_qd("skew", dk3().generators, dk3().relations.rows).rdim == 2


def test_check_morphism_dk_into_full():
    a = dk3()
    full = make_qd("skew", a.generators, signed_square(a.generators, -1))
    ident = LinearMap.identity(a.generators)
    assert check_morphism(ident, a, full) is True
    assert check_morphism(ident, full, a) is False
    zero_map = LinearMap(a.generators, GradedSpace((), ()), [{}] * 3)
    assert check_morphism(zero_map, a, qd_zero("skew")) is True


def test_products_units_and_examples():
    A = make_qd("plain", GradedSpace.from_labels(["x"]), [{0: 1}])
    B = make_qd("plain", GradedSpace.from_labels(["y"]), [{0: 1}])
    AB = monoidal_product("black", A, B)
    assert AB.generators.labels == ("x⊗y",)
    assert AB.rdim == 1
    assert monoidal_product("white", A, B).rdim == 1
    z = qd_zero("plain")
    assert monoidal_product("tensor", z, A) == A
    assert monoidal_product("tensor", A, z) == A
    with pytest.raises(FlavorMismatch):
        monoidal_product("vee", A, B)


def test_each_product_is_defined_on_its_flavors_and_keeps_them():
    # 7 of the 18 (product, flavor) pairs are defined; the other 11 and
    # every pair of factors of two flavors raise
    defined = {
        ("tensor", "plain"), ("utensor", "plain"), ("black", "plain"),
        ("white", "plain"), ("utensor", "symmetric"), ("vee", "symmetric"),
        ("oplus", "skew"),
    }
    rng = random.Random(5)
    data = {fl: (random_qd(rng, fl, "a", 2), random_qd(rng, fl, "b", 2))
            for fl in QDFlavor}
    accepted, rejected = set(), 0
    for name, fa, fb in product(ProductName, QDFlavor, QDFlavor):
        a, b = data[fa][0], data[fb][1]
        if fa is fb and (name.value, fa.value) in defined:
            assert monoidal_product(name, a, b).flavor is fa
            accepted.add((name.value, fa.value))
        else:
            with pytest.raises(FlavorMismatch):
                monoidal_product(name, a, b)
            rejected += fa is fb
    assert accepted == defined and rejected == 11


def test_products_store_the_rows_a_fresh_elimination_gives():
    # every product stores its relation rows as built, with no elimination:
    # the direct sums, black and white.  The kernel's RREF of those rows, or
    # of the rows spanning black and white, must return them, in the same
    # order and with each row's items in the same order, or equal data
    # could hash apart
    def items(rows):
        return [list(r.items()) for r in rows]

    for seed in range(300):
        rng = child_rng(seed, "canonical-products")
        for flavor, names in PRODUCTS.items():
            a = random_qd(rng, flavor, "a", 3)
            b = random_qd(rng, flavor, "b", 3)
            for name in names:
                rels = monoidal_product(name, a, b).relations
                fresh = Subspace(rels.ambient, rels.rows)
                assert items(rels.rows) == items(fresh.rows), (seed, name)
    # black and white at interchange size: factors of up to 6 generators
    # that are tensor or utensor products of two random data, as
    # the phi and psi interchange laws build them, against the S_(23)
    # image of R_A (x) R_B, and of R_A (x) T_B + T_A (x) R_B
    largest = 0
    for seed in range(100):
        rng = child_rng(seed, "canonical-interchange-products")
        a, ap, b, bp = (random_qd(rng, "plain", p) for p in ("a", "a'", "b", "b'"))
        for dia in ("tensor", "utensor"):
            x, y = monoidal_product(dia, a, ap), monoidal_product(dia, b, bp)
            va, vb = x.generators, y.generators
            rows_a, rows_b = x.relations.rows, y.relations.rows
            units_a = [{c: 1} for c in range(va.dim ** 2)]
            units_b = [{c: 1} for c in range(vb.dim ** 2)]
            spans = {
                "black": _s23_image(va, vb, rows_a, rows_b),
                "white": _s23_image(va, vb, rows_a, units_b)
                + _s23_image(va, vb, units_a, rows_b),
            }
            for name, span in spans.items():
                rels = monoidal_product(name, x, y).relations
                fresh = Subspace(rels.ambient, span)
                assert items(rels.rows) == items(fresh.rows), (seed, dia, name)
            largest = max(largest, va.dim, vb.dim)
    assert largest == 6


def test_unit_law_reports():
    rng = random.Random(0)
    for flavor in ("plain", "symmetric", "skew"):
        a = random_qd(rng, flavor, "a")
        assert all(r.passed for r in check_unit_laws(a))


def test_unit_law_count_is_one_case_per_datum(monkeypatch):
    # a datum counts as one failed case when any of its laws fails, however
    # many laws fail, so the count cannot drop below zero
    from quadop import suites
    from quadop.report import Report

    monkeypatch.setattr(suites, "check_unit_laws",
                        lambda a: [Report("unit", False)] * 7)
    rep = suites.suite_qd_coherence(trials=4)
    case = next(c for c in rep.cases if c.name == "unit-laws")
    assert case.details == "0/30 cases pass"
    assert not case.passed


def _details(rep):
    return {c.name: c.details for c in rep.cases}


def test_every_case_group_counts_its_verdicts(monkeypatch):
    # every randomised group reports passed/total, where the total is the
    # number of verdicts its law yields; each law is made to fail here
    from quadop import boqd, realize, suites
    from quadop.report import Report

    for law in ("check_associativity", "check_braiding",
                "check_strong_monoidality", "check_phi_psi_star_duality",
                "check_phi_associator_coherence", "interchange_holds"):
        monkeypatch.setattr(suites, law, lambda *args: None)
    monkeypatch.setattr(suites, "check_unit_laws",
                        lambda a: [Report("unit", False)])
    assert _details(suites.suite_qd_coherence(trials=4)) == {
        "unit-laws": "0/30 cases pass",
        "associativity": "0/70 cases pass",
        "braiding": "0/70 cases pass",
        "strong-monoidality": "0/90 cases pass",
        "black-white-duality": "0/10 cases pass",
        "interchange-phi-psi": "0/8 cases pass",
        "phi-psi-star-duality": "0/5 cases pass",
        "phi-associator-coherence": "0/5 cases pass",
    }

    # a product is its name and a dual the datum itself: the four dualities
    # of a trial fail and its double dual holds; every interchange fails
    # through the interchange_holds fake above
    monkeypatch.setattr(boqd, "boqd_product", lambda name, a, b: name)
    monkeypatch.setattr(boqd, "boqd_dual", lambda a: a)
    got = _details(suites.suite_boqd_coherence(trials=2))
    assert (got["involutions+duals"], got["interchange-phi-psi"],
            got["quintuples"]) == (
        "2/10 cases pass", "0/4 cases pass", "0/64 cases pass")

    monkeypatch.setattr(suites, "verify_diagram_face",
                        lambda face, a: Report(face, False))
    got = _details(suites.suite_diagram_faces(trials=8))
    assert got["random-faces"] == "0/8 cases pass"

    monkeypatch.setattr(realize, "ue_compare", lambda a, w: Report("ue", False))
    got = _details(suites.suite_realize_duality(trials=2))
    assert (got["pbw-random"], got["component-dualities"]) == (
        "0/10 cases pass", "35/35 cases pass")


def test_functor_shapes_on_dk3():
    a = dk3()
    sh = apply_functor("antishriek", a)
    assert sh.flavor is QDFlavor.SYM
    assert sh.generators.degrees == (1, 1, 1)
    assert sh.rdim == 2
    assert apply_functor("antishriek_inv", sh) == a
    bang = apply_functor("shriek", a)
    assert bang.flavor is QDFlavor.SYM
    assert bang.generators.degrees == (-1, -1, -1)
    assert bang.rdim == 1
    assert apply_functor("star", apply_functor("star", a)) == a


def test_star_involutive_random():
    rng = random.Random(4)
    for _ in range(25):
        a = random_qd(rng, rng.choice(["plain", "symmetric", "skew"]), "a", max_dim=4)
        assert apply_functor("star", apply_functor("star", a)) == a


def _old_star(a):
    """STAR as it was built before: the annihilator read off by
    nullspace_rows and eliminated, cut by the signed square through the
    Zassenhaus trick on symmetric and skew data."""
    dv = dual(a.generators)
    n2 = a.gdim ** 2
    signs = [word_sign(k) for k in a.relations.ambient.odds]
    ann = echelon_rows(nullspace_rows(
        [{c: v * signs[c] for c, v in r.items()} for r in a.relations.rows], n2))
    if a.flavor in SQUARE_SIGN:
        stacked = [{**r, **{c + n2: v for c, v in r.items()}} for r in ann]
        stacked += signed_square(dv, SQUARE_SIGN[a.flavor]).rows
        ann = [{c - n2: v for c, v in r.items()}
               for r in echelon_rows(stacked) if min(r) >= n2]
    return Subspace(square(dv), ann)


def test_star_matches_the_annihilator_cut_by_the_signed_square():
    rng = random.Random(35)
    with_odd = 0
    for flavor, count in (("symmetric", 200), ("skew", 200), ("plain", 100)):
        for _ in range(count):
            a = random_qd(rng, flavor, "a", max_dim=4)
            with_odd += flavor != "plain" and 1 in a.generators.degrees
            star = _functor_image.__wrapped__(FunctorName.STAR, a)
            expected = _old_star(a)
            assert star.relations == expected, a
            # stored column-sorted, as the elimination stores them
            assert [list(r.items()) for r in star.relations.rows] == \
                [list(r.items()) for r in expected.rows]
    assert with_odd > 200


def test_shift_matches_the_image_under_the_square_map():
    rng = random.Random(36)
    steps = {1: FunctorName.ANTISHRIEK, -1: FunctorName.ANTISHRIEK_INV}
    for _ in range(100):
        for flavor in ("plain", "symmetric", "skew"):
            a = random_qd(rng, flavor, "a", max_dim=4)
            for step, name in steps.items():
                m = shift_square_map(a.generators, step)
                expected = Subspace(m.target, compose_cols(m.cols, a.relations.rows))
                image = _functor_image.__wrapped__(name, a)
                assert image.generators == shift(a.generators, step)
                assert image.relations == expected
                assert [list(r.items()) for r in image.relations.rows] == \
                    [list(r.items()) for r in expected.rows]


def test_memoised_functor_images_equal_fresh_ones():
    rng = random.Random(12)
    # one label prefix, so that data share generator spaces and differ in
    # their relations; the references start from an empty cache each
    data = [random_qd(rng, flavor, "a")
            for flavor in ("plain", "symmetric", "skew") for _ in range(8)]
    fresh = {}
    for j, a in enumerate(data):
        for name in FunctorName:
            _functor_image.cache_clear()
            try:
                fresh[j, name] = _functor_image.__wrapped__(name, a)
            except FlavorMismatch:
                pass
    _functor_image.cache_clear()
    for j, a in enumerate(data):
        for name in FunctorName:
            if (j, name) not in fresh:
                # a functor that does not apply raises on every call
                for _ in range(2):
                    with pytest.raises(FlavorMismatch):
                        apply_functor(name, a)
                continue
            image = apply_functor(name.value, a)
            assert image == fresh[j, name], (a, name)
            assert apply_functor(name, a) is image


def test_functor_name_spellings_share_one_cache_entry():
    a = dk3()
    _functor_image.cache_clear()
    shifted = apply_functor("antishriek", a)
    assert apply_functor(FunctorName.ANTISHRIEK, a) is shifted
    info = _functor_image.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert info.maxsize is not None


def test_interchange_degenerate_and_random():
    rng = random.Random(9)
    a = random_qd(rng, "plain", "a", 2)
    b = random_qd(rng, "plain", "b", 2)
    z1 = qd_zero("plain")
    src, tgt, f = _interchange(PHI, (a, z1, b, qd_zero("plain")))
    assert check_morphism(f, src, tgt)
    # degenerate phi reduces to the identity of a black b
    black = monoidal_product("black", a, b)
    assert src == black and tgt == black
    for _ in range(15):
        args = [random_qd(rng, "plain", p, 2) for p in ("a", "a'", "b", "b'")]
        assert _interchange(PHI, args, interchange_holds)
        assert _interchange(PSI, args, interchange_holds)
        assert check_phi_psi_star_duality(*args)


def test_interchange_holds_in_its_own_direction_only():
    # phi is lax and psi colax: on this draw each fails the other way, so a
    # verdict that always holds, or pr14 and inj14 swapped, fails here
    rng = child_rng(0, "interchange-direction")
    args = [random_qd(rng, "plain", p, 3) for p in ("a", "a'", "b", "b'")]
    for box, dia, lax in (PHI, PSI):
        assert _interchange((box, dia, lax), args, interchange_holds)
        assert not _interchange((box, dia, not lax), args, interchange_holds)


def test_interchange_mixed_degree_signs():
    # one odd generator: the surviving cross terms must land exactly on the
    # signed mixed bracket of the target, which check_morphism certifies
    a = make_qd("plain", GradedSpace(("a",), (0,)), [])
    ap = make_qd("plain", GradedSpace(("a'",), (1,)), [])
    b = make_qd("plain", GradedSpace(("b",), (0,)), [])
    bp = make_qd("plain", GradedSpace(("b'",), (1,)), [])
    src, tgt, f = _interchange(PHI, (a, ap, b, bp))
    assert check_morphism(f, src, tgt)
    # the full mixed-bracket source relation space maps onto the target one
    src_rel = src.relations
    assert src_rel.dim > 0


def _s23_image(va, vb, rows_a, rows_b):
    """S_(23)(U (x) W) term by term, (x1 x2) (x) (x3 x4) -> (x1 x3)(x2 x4)
    with the sign (-1)^{|x2||x3|}, for U, W given by rows of the squares."""
    na, nb = va.dim, vb.dim
    out = []
    for ra in rows_a:
        for rb in rows_b:
            acc = {}
            for ca, u in ra.items():
                i, j = divmod(ca, na)
                for cb, w in rb.items():
                    k, l = divmod(cb, nb)
                    sign = -1 if va.degrees[j] * vb.degrees[k] % 2 else 1
                    col = (i * nb + k) * na * nb + j * nb + l
                    acc[col] = acc.get(col, 0) + sign * u * w
            out.append({c: v for c, v in acc.items() if v})
    return out


def test_white_is_the_s23_image_of_every_mixed_row():
    # white pairs R_A with all of T_B, but only the non-pivot units of T_A
    # with R_B; the oracle pushes every row of R_A (x) T_B + T_A (x) R_B
    rng = random.Random(43)
    pairs = [(random_qd(rng, "plain", "a"), random_qd(rng, "plain", "b"))
             for _ in range(80)]
    for _ in range(4):
        gens = random_graded_space(rng, "e")
        empty = make_qd("plain", gens, [])
        full = make_qd("plain", gens, [{c: 1} for c in range(gens.dim ** 2)])
        other = random_qd(rng, "plain", "f")
        pairs += [(empty, other), (other, full), (full, empty),
                  (qd_zero(), other), (other, qd_zero())]
    odd = False
    for a, b in pairs:
        va, vb = a.generators, b.generators
        odd = odd or any(d % 2 for d in va.degrees + vb.degrees)
        units_a = [{c: 1} for c in range(va.dim ** 2)]
        units_b = [{c: 1} for c in range(vb.dim ** 2)]
        mixed = _s23_image(va, vb, a.relations.rows, units_b)
        mixed += _s23_image(va, vb, units_a, b.relations.rows)
        white = monoidal_product("white", a, b)
        assert white.relations == Subspace(white.relations.ambient, mixed)
    assert odd and len(pairs) == 100


def test_annihilated_summand():
    # relations of the two outer factors against the two primed factors die
    a = make_qd("plain", GradedSpace(("a",), (0,)), [{0: 1}])
    ap = make_qd("plain", GradedSpace(("a'",), (0,)), [{0: 1}])
    b = make_qd("plain", GradedSpace(("b",), (0,)), [{0: 1}])
    bp = make_qd("plain", GradedSpace(("b'",), (0,)), [{0: 1}])
    src, tgt, f = _interchange(PHI, (a, ap, b, bp))
    assert check_morphism(f, src, tgt)
    # S23(R(A) (x) R(B')) is annihilated by the projection square
    from quadop.qd import square_apply_rows

    # build R(A) (x) R(B') inside the big square: index 0 is a, index 3 is b'
    na = 2
    arow = {0 * na + 0: Fraction(1)}  # a (x) a in (A1+A'1)^2 coordinates
    brow = {1 * na + 1: Fraction(1)}  # b' (x) b'
    cross = _s23_image(GradedSpace(("a", "a'"), (0, 0)),
                       GradedSpace(("b", "b'"), (0, 0)), [arow], [brow])
    assert cross and all(cross)
    imgs = square_apply_rows(f, cross)
    assert all(not img for img in imgs)


def test_coherence_checks_random():
    rng = random.Random(21)
    for _ in range(8):
        pl = [random_qd(rng, "plain", p, 2) for p in "abc"]
        for name in ("tensor", "utensor", "black", "white"):
            assert check_associativity(name, *pl)
            assert check_braiding(name, pl[0], pl[1])
        assert check_strong_monoidality("star", "black", "white", pl[0], pl[1])
        for f, fl, sp, tp in STRONG_MONOIDALITY_TABLE:
            xa = random_qd(rng, fl.value, "u", 2)
            xb = random_qd(rng, fl.value, "v", 2)
            assert check_strong_monoidality(f, sp, tp, xa, xb)
    args = [random_qd(rng, "plain", p, 2) for p in ("a", "a'", "b", "b'", "c", "c'")]
    assert check_phi_associator_coherence(*args)


def _pr14_keeping_a_mixed_block(a, ap, b, bp):
    """pr14 that reads the mixed block A' (x) B as if it were A (x) B:
    x'_i (x) y_j goes where x_(i mod dim A) (x) y_j does."""
    f = pr14_map(a, ap, b, bp)
    cols, nw = list(f.cols), b.dim + bp.dim
    for i in range(ap.dim if a.dim else 0):
        for j in range(b.dim):
            cols[(a.dim + i) * nw + j] = f.cols[(i % a.dim) * nw + j]
    return LinearMap(f.source, f.target, cols)


def test_phi_associator_coherence_fails_on_a_pr14_that_keeps_a_mixed_block(monkeypatch):
    # the two bracketings project the mixed blocks in different orders, so
    # a pr14 that keeps one takes them to different places
    rng = random.Random(36)
    draws = [[random_qd(rng, "plain", p, 2) for p in ("a", "a'", "b", "b'", "c", "c'")]
             for _ in range(60)]
    assert all(check_phi_associator_coherence(*args) for args in draws)
    monkeypatch.setattr("quadop.qd.pr14_map", _pr14_keeping_a_mixed_block)
    assert not any(check_phi_associator_coherence(*args) for args in draws)


def test_diagram_faces_named():
    a = dk3()
    for face in ("shift_square", "lambda_perp", "envelope_pbw"):
        assert verify_diagram_face(face, a).passed
    s = aos_data(3)
    for face in ("sigma_perp", "sym_coalgebra_dual", "sym_vs_cofree", "sym_quotient"):
        assert verify_diagram_face(face, s).passed
    assert verify_diagram_face(
        "tensor_coalgebra_dual", apply_functor("lambda", a)
    ).passed


def test_every_face_rejects_data_of_another_flavor():
    from quadop.qd import FACES

    rng = random.Random(21)
    data = {fl: random_qd(rng, fl, "a", 2) for fl in QDFlavor}
    for face, (flavor, *_) in FACES.items():
        assert verify_diagram_face(face, data[flavor]).passed
        for other in set(QDFlavor) - {flavor}:
            with pytest.raises(FlavorMismatch):
                verify_diagram_face(face, data[other])
    with pytest.raises(ValueError):
        verify_diagram_face("no_such_face", data[QDFlavor.PLAIN])


def test_json_round_trip():
    rng = random.Random(30)
    for flavor in ("plain", "symmetric", "skew"):
        a = random_qd(rng, flavor, "g")
        assert qd_loads(json.dumps(qd_to_json(a))) == a


def test_data_equality_tells_apart_spaces_whose_pairing_signs_differ():
    # V = s(a (x) b) + c and W = (sa) (x) b + c: equal labels and degrees,
    # but the first generator is an atom in V and a two-odd-letter word in W
    a = GradedSpace.from_labels(["a"], 0)
    b = GradedSpace.from_labels(["b"], 1)
    c = GradedSpace.from_labels(["c"], 1)
    v = direct_sum(shift(tensor_product(a, b)), c)
    w = direct_sum(tensor_product(shift(a), b), c)
    assert (v.labels, v.degrees) == (w.labels, w.degrees)
    x = make_qd("plain", v, [{0: 1, 1: 1}])
    y = make_qd("plain", w, [{0: 1, 1: 1}])
    sx, sy = apply_functor("star", x), apply_functor("star", y)
    assert {0: 1, 1: -1} in sx.relations.rows
    assert {0: 1, 1: 1} in sy.relations.rows
    assert sx != sy
    assert x != y
    assert x == make_qd("plain", v, [{0: 1, 1: 1}])


def _one_generator_doc(degree, label="x"):
    return {"flavor": "plain", "generators": [{"label": label, "degree": degree}],
            "relations": []}


@pytest.mark.parametrize("degree", [1.5, True, "1", 1.0])
def test_json_degree_must_be_an_integer(degree):
    doc = _one_generator_doc(degree)
    with pytest.raises(ValueError):
        qd_loads(json.dumps(doc))


def test_json_generators_read_labels_as_strings_and_reject_duplicates():
    a = qd_loads(json.dumps(_one_generator_doc(-2, label=7)))
    assert (a.generators.labels, a.generators.degrees) == (("7",), (-2,))
    doc = _one_generator_doc(0)
    doc["generators"].append({"label": "x", "degree": 1})
    with pytest.raises(ValueError):
        qd_loads(json.dumps(doc))


def test_inj14_is_the_transpose_of_pr14():
    spaces = [
        GradedSpace((), ()),
        GradedSpace(("p",), (1,)),
        GradedSpace(("q", "r"), (0, 1)),
    ]
    for dims in product(range(3), repeat=4):
        a, ap, b, bp = (
            GradedSpace(tuple(t + l for l in spaces[n].labels), spaces[n].degrees)
            for t, n in zip(("a", "a'", "b", "b'"), dims)
        )
        pr = pr14_map(a, ap, b, bp)
        inj = inj14_map(a, ap, b, bp)
        assert (inj.source, inj.target) == (pr.target, pr.source)
        assert pr.compose(inj) == LinearMap.identity(pr.target)
        for i, col in enumerate(pr.cols):
            for j in range(pr.target.dim):
                assert col.get(j, 0) == inj.cols[j].get(i, 0)


@st.composite
def _square_rows(draw):
    """A graded space with odd and even generators and a row of its square
    whose mirrored entries x_i(x)x_j, x_j(x)x_i often agree up to sign."""
    degrees = draw(st.lists(st.integers(-1, 2), min_size=1, max_size=3))
    n = len(degrees)
    v = GradedSpace(tuple("x%d" % i for i in range(len(degrees))), tuple(degrees))
    coef = st.one_of(
        st.integers(-2, 2), st.fractions(min_value=-2, max_value=2, max_denominator=3)
    )
    row = {}
    for i in range(n):
        for j in range(i, n):
            a = draw(coef)
            row[i * n + j] = a
            row[j * n + i] = draw(st.one_of(st.sampled_from([a, -a]), coef))
    return v, {c: x for c, x in row.items() if x}


@given(_square_rows())
@settings(max_examples=300, deadline=None)
def test_signed_swap_test_agrees_with_signed_square(case):
    v, row = case
    assert in_signed_square(v, row, 1) == signed_square(v, 1).contains(row)
    assert in_signed_square(v, row, -1) == signed_square(v, -1).contains(row)


@given(st.lists(st.integers(-1, 2), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_flavor_pool_is_the_signed_square_rref(degrees):
    # the random relation rows draw from this pool, so it must keep the rows
    # and the order of the pair enumeration it replaced (the signed pair
    # vectors of i <= j, the diagonal scaled to 1), or every seeded report
    # would move; signed_square stores those rows as built, so they must also
    # be what a fresh elimination of them gives
    v = GradedSpace(tuple("x%d" % i for i in range(len(degrees))), tuple(degrees))
    n = v.dim
    for flavor, sign in ((QDFlavor.SYM, 1), (QDFlavor.SKEW, -1)):
        pairs = []
        for i in range(n):
            for j in range(i, n):
                row = _pair_vector(v, i, j, sign)
                if row:
                    pairs.append({i * n + i: 1} if i == j else row)
        pool = _flavor_pool(v, flavor)
        assert [list(r.items()) for r in pool] == \
            [list(r.items()) for r in pairs]
        assert [list(r.items()) for r in pool] == \
            [list(r.items()) for r in Subspace(square(v), pairs).rows]


def test_flavor_violation_names_the_first_escaping_row():
    v = GradedSpace(("x", "y"), (1, 0))
    amb = square(v)
    # x(x)x with x odd is skew, not symmetric
    assert make_qd("skew", v, [{0: 1}]).rdim == 1
    with pytest.raises(FlavorViolation) as err:
        make_qd("symmetric", v, [{0: 1}])
    assert err.value.witness == Vector(amb, {0: 1})
    # the witness is the first RREF row that escapes, whatever the input order
    w = GradedSpace(("y", "x"), (0, 1))
    with pytest.raises(FlavorViolation) as err:
        make_qd("symmetric", w, [{3: 2}, {0: 1}, {1: 1, 2: 1}])
    assert err.value.witness == Vector(square(w), {3: 1})


STAR_IN_FRESH_PROCESS = """
from quadop.graded import GradedSpace, square, word_sign
from quadop.qd import apply_functor, make_qd

# x (x) y has two odd letters and u (x) z none: one degree, so the relation
# is homogeneous, but the two columns pair with opposite signs
v = GradedSpace(("x", "y", "u", "z"), (1, 1, 2, 0))
a = make_qd("plain", v, [{1: 1, 11: 1}, {0: 1}, {5: 1, 4: -1}])
star = apply_functor("star", a)
signs = [word_sign(k) for k in square(v).odds]
assert star.rdim == 16 - a.rdim
pair = lambda r, q, s: sum(x * q.get(c, 0) * s[c] for c, x in r.items())
for r in a.relations.rows:
    for q in star.relations.rows:
        assert pair(r, q, signs) == 0
assert any(
    pair(r, q, [1] * 16)
    for r in a.relations.rows for q in star.relations.rows
)
"""


def test_star_pairing_is_signed_in_a_fresh_process():
    # STAR is the first call of the process, so no earlier call can have
    # supplied the pairing it uses
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", STAR_IN_FRESH_PROCESS],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
