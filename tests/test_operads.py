import random
from fractions import Fraction

import pytest

from quadop.exactlin import LinearMap, Subspace, compose_cols
from quadop.graded import direct_sum, signed_square, square
from quadop.operads import (
    OperadFamily,
    build_family,
    compare_families,
    inflate_inner,
    inflate_outer,
    minimal_suboperad,
    transpositions,
    verify_axioms,
    verify_relation_morphism,
    _SubsetScheme,
    _rel_refined,
    _tagged,
)
from quadop.qd import SQUARE_SIGN, QDFlavor
from quadop.report import first_failure
from quadop.suites import _FAMILY_BOUNDS, suite_operad_axioms


def labels(fam, n):
    return fam.scheme.gen_space(n).labels


def test_family_dimensions():
    bkw = build_family("BKW")
    assert bkw.component(4).gdim == 6
    assert bkw.component(4).rdim == 15
    assert bkw.component(2).rdim == 0
    dk = build_family("DK")
    assert dk.component(3).rdim == 2
    assert dk.component(4).rdim == 11
    ehkr = build_family("EHKR")
    assert ehkr.component(5).gdim == 10
    assert ehkr.component(4).rdim == 0
    lhg = build_family("LHG", k=3)
    assert lhg.component(5).gdim == 3


def test_special_cases_coincide():
    for a, b in (
        (build_family("HG", k=2), build_family("BKW")),
        (build_family("RHG", k=2), build_family("DK")),
        (build_family("RHG", k=3), build_family("EHKR")),
        (build_family("LHG", k=2), build_family("LG")),
    ):
        for n in range(6):
            assert a.component(n).generators == b.component(n).generators
            assert a.component(n).relations == b.component(n).relations


def test_composition_spot_checks():
    bkw = build_family("BKW")
    l3 = labels(bkw, 3)
    img = compose_cols(bkw.scheme.comp(2, 2, 1).cols, [{0: 1}])[0]
    assert img == {l3.index("t_1.3"): Fraction(1), l3.index("t_2.3"): Fraction(1)}
    img = compose_cols(bkw.scheme.comp(2, 2, 2).cols, [{1: 1}])[0]  # inner generator
    assert img == {l3.index("t_2.3"): Fraction(1)}
    assert compose_cols(bkw.scheme.comp(2, 0, 1).cols, [{0: 1}])[0] == {}
    lhg = build_family("LHG", k=3)
    i13 = lhg.scheme.indices(5).index((1, 2, 3))
    assert compose_cols(lhg.scheme.comp(5, 3, 2).cols, [{i13: 1}])[0] == {}
    # the map lands in V(3) and sends a basis vector of V(2) ⊕ V(2) to its column
    c = bkw.scheme.comp(2, 2, 1)
    assert c.target == bkw.scheme.gen_space(3)
    assert compose_cols(c.cols, [{0: 1}])[0] == c.cols[0]


def test_deletion_is_fi_consistent():
    bkw = build_family("BKW")
    for n in range(2, 7):
        idx = bkw.scheme.indices(n)
        for p in range(1, n + 1):
            c = bkw.scheme.comp(n, 0, p)
            tgt = bkw.scheme.indices(n - 1)
            for gi, I in enumerate(idx):
                img = compose_cols(c.cols, [{gi: 1}])[0]
                if p in I:
                    assert img == {}
                else:
                    J = tuple(v if v < p else v - 1 for v in I)
                    assert img == {tgt.index(J): Fraction(1)}


def test_axioms_pass_small():
    dk = build_family("DK")
    assert all(r.status != "FAIL" for r in verify_axioms(dk.scheme, 5))
    assert all(r.passed for r in verify_relation_morphism(dk, 5))
    lg = build_family("LG")
    assert all(r.status != "FAIL" for r in verify_axioms(lg.scheme, 6))


def test_axioms_negative_control():
    # flip one sign in a composition table of a private scheme: the
    # sequential axiom must fail, and the shared scheme must stay intact
    scheme = _SubsetScheme(2)
    key = (2, 2, 1)
    good = scheme.comp(*key)
    bad_cols = [dict(c) for c in good.cols]
    bad_cols[0] = {k: -v for k, v in bad_cols[0].items()}
    scheme._comps[key] = LinearMap(good.source, good.target, bad_cols)
    reports = verify_axioms(scheme, 4)
    assert any(r.status == "FAIL" for r in reports)
    assert build_family("DK").scheme.comp(*key).cols == good.cols


def _corrupt_comp(key, g, col):
    """A private DK scheme whose composition key has column g replaced."""
    scheme = _SubsetScheme(2)
    good = scheme.comp(*key)
    cols = [dict(c) for c in good.cols]
    cols[g] = col
    scheme._comps[key] = LinearMap(good.source, good.target, cols)
    return scheme


def _corrupt_action(n, sigma, g, col):
    """A private DK scheme whose action of sigma has column g replaced."""
    scheme = _SubsetScheme(2)
    good = scheme.action(n, sigma)
    cols = [dict(c) for c in good.cols]
    cols[g] = col
    scheme._actions[(n, sigma)] = LinearMap(good.source, good.target, cols)
    return scheme


_SKIPPED = {"name": "skipped", "status": "SKIPPED",
            "details": "47 arity combinations above the bound"}
_UNIT = {"name": "unit", "status": "PASS",
         "details": "left/right unit laws on all generators"}


@pytest.mark.parametrize("make, want", [
    # a composition sign: t_12 o_1 t_12 sends t_12 to -t_13 - t_23
    (lambda: _corrupt_comp((2, 2, 1), 0, {1: -1, 2: -1}), [
        _UNIT,
        {"name": "sequential", "status": "FAIL",
         "details": "first failure at (n,m,l,i,j)=(2, 2, 0, 1, 1)",
         "witness": "({0: 1}, {0: -1})"},
        {"name": "parallel", "status": "FAIL",
         "details": "first failure at (n,m,l,i,j)=(2, 2, 2, 1, 2)",
         "witness": "({1: -1, 2: -1, 3: -1, 4: -1}, {1: 1, 3: 1, 2: 1, 4: 1})"},
        {"name": "equivariance", "status": "FAIL",
         "details": "first failure ('outer', 2, 2, 1, (2, 1), 0)"},
        _SKIPPED,
    ]),
    # an action column: (12) sends t_12 to t_13
    (lambda: _corrupt_action(3, (2, 1, 3), 0, {1: 1}), [
        _UNIT,
        {"name": "sequential", "status": "PASS", "details": "116 cases"},
        {"name": "parallel", "status": "PASS", "details": "46 cases"},
        {"name": "equivariance", "status": "FAIL",
         "details": "first failure ('inner', 2, 2, 1, (2, 1), 0)"},
        _SKIPPED,
    ]),
    # a right unit column: t_12 o_1 1 = 2 t_12
    (lambda: _corrupt_comp((2, 1, 1), 0, {0: 2}), [
        {"name": "unit.right.n2.p1", "status": "FAIL",
         "details": "composition with the arity-1 unit moved a generator"},
        {"name": "sequential", "status": "FAIL",
         "details": "first failure at (n,m,l,i,j)=(2, 1, 1, 1, 1)",
         "witness": "({0: 2}, {0: 4})"},
        {"name": "parallel", "status": "FAIL",
         "details": "first failure at (n,m,l,i,j)=(2, 1, 2, 1, 2)",
         "witness": "({0: 2, 1: 2}, {0: 1, 1: 1})"},
        {"name": "equivariance", "status": "FAIL",
         "details": "first failure ('outer', 2, 1, 1, (2, 1), 0)"},
        _SKIPPED,
    ]),
    # a left unit column: 1 o_1 t_23 = t_13
    (lambda: _corrupt_comp((1, 3, 1), 2, {1: 1}), [
        {"name": "unit.left.n3", "status": "FAIL", "details": ""},
        {"name": "sequential", "status": "FAIL",
         "details": "first failure at (n,m,l,i,j)=(1, 2, 2, 1, 1)",
         "witness": "({1: 2}, {1: 1, 2: 1})"},
        {"name": "parallel", "status": "FAIL",
         "details": "first failure at (n,m,l,i,j)=(2, 3, 0, 1, 2)",
         "witness": "({2: 1}, {1: 1})"},
        {"name": "equivariance", "status": "FAIL",
         "details": "first failure ('inner', 1, 3, 1, (2, 1, 3), 1)"},
        _SKIPPED,
    ]),
], ids=["composition-sign", "action-column", "right-unit", "left-unit"])
def test_failing_axiom_reports(make, want):
    # failing reports carry the first failing case and its two sides, so
    # their bytes are pinned here; the golden reports cover passing runs only
    assert [r.as_case() for r in verify_axioms(make(), 4)] == want


# the axiom streams written case by case, each case reading every map it
# needs afresh: the reference for the streams that read each map once
def _reference_sequential(s, n, m, l, i, j):
    c1 = s.comp(n, m + l - 1, i)
    c2 = s.comp(n + m - 1, l, i + j - 1)
    dn = s.gen_space(n).dim
    lhs = list(c1.cols[:dn]) + compose_cols(c1.cols[dn:], s.comp(m, l, j).cols)
    rhs = compose_cols(c2.cols, s.comp(n, m, i).cols)
    rhs += c2.cols[s.gen_space(n + m - 1).dim:]
    return lhs, rhs


def _reference_parallel(s, n, m, l, i, j):
    c1 = s.comp(n + m - 1, l, j + m - 1)
    c2 = s.comp(n + l - 1, m, i)
    cnl = s.comp(n, l, j)
    dn = s.gen_space(n).dim
    lhs = compose_cols(c1.cols, s.comp(n, m, i).cols)
    lhs += c1.cols[s.gen_space(n + m - 1).dim:]
    rhs = compose_cols(c2.cols, cnl.cols[:dn])
    rhs += c2.cols[s.gen_space(n + l - 1).dim:]
    rhs += compose_cols(c2.cols, cnl.cols[dn:])
    return lhs, rhs


def _reference_outer(s, n, m, p, sigma):
    c = s.comp(n, m, p)
    infl = s.action(n + m - 1, inflate_outer(sigma, n, m, p))
    lhs = compose_cols(c.cols, s.action(n, sigma).cols)
    cq = s.comp(n, m, sigma[p - 1])
    return lhs, compose_cols(infl.cols, cq.cols[:len(lhs)])


def _reference_inner(s, n, m, p, tau):
    c = s.comp(n, m, p)
    infl = s.action(n + m - 1, inflate_inner(tau, n, m, p))
    inner = c.cols[s.gen_space(n).dim:]
    return (compose_cols(inner, s.action(m, tau).cols),
            compose_cols(infl.cols, inner))


def _reference_failures(s, nmax):
    """{law: (cases read, first failing case)} of the sequential, parallel
    and equivariance laws, the failing case with its full two sides."""
    triples = [(n, m, l) for n in range(1, nmax + 1) for m in range(1, nmax + 1)
               for l in range(nmax + 1) if n + m + l - 2 <= nmax]
    out = {}
    for name, cases, slots in (
        ("sequential", _reference_sequential, lambda n, m, i: range(1, m + 1)),
        ("parallel", _reference_parallel, lambda n, m, i: range(i + 1, n + 1)),
    ):
        out[name] = first_failure(
            ((n, m, l, i, j), *cases(s, n, m, l, i, j))
            for n, m, l in triples
            for i in range(1, n + 1) for j in slots(n, m, i))
    out["equivariance"] = first_failure(
        ((side, n, m, p, perm, g), a, b)
        for n in range(1, nmax + 1) for m in range(nmax + 2 - n)
        for p in range(1, n + 1)
        for side, cases, perms in (("outer", _reference_outer, transpositions(n)),
                                   ("inner", _reference_inner, transpositions(m)))
        for perm in perms
        for g, (a, b) in enumerate(zip(*cases(s, n, m, p, perm))))
    return out


def _corrupt_both_sides(key, outer, inner):
    """A private DK scheme whose composition key has one outer and one
    inner column replaced, so that both equivariance sides fail at key."""
    scheme = _corrupt_comp(key, *outer)
    bad = scheme._comps[key]
    cols = list(bad.cols)
    cols[inner[0]] = inner[1]
    scheme._comps[key] = LinearMap(bad.source, bad.target, cols)
    return scheme


@pytest.mark.parametrize("make, failing", [
    # the inner generator of (3, 2, 2) negated: first read deep in both
    # the sequential and the parallel stream
    (lambda: _corrupt_comp((3, 2, 2), 3, {3: -1}), {"sequential", "parallel"}),
    (lambda: _corrupt_comp((4, 2, 3), 6, {5: 1, 3: 1}),
     {"sequential", "parallel", "equivariance"}),
    (lambda: _corrupt_action(4, (1, 3, 2, 4), 2, {1: 1}), {"equivariance"}),
    # outer before inner at one (n, m, p): the outer side fails first
    (lambda: _corrupt_both_sides((2, 3, 1), (0, {0: 1}), (1, {0: -1})),
     {"sequential", "parallel", "equivariance"}),
], ids=["comp-3-2-2", "comp-4-2-3", "action-4", "comp-2-3-1-both-sides"])
def test_deep_failures_match_a_case_by_case_enumeration(make, failing):
    # the streams read each map once per loop level; their first failure,
    # its key, its witness and the count of passing laws must be those of
    # the case-by-case enumeration
    want = _reference_failures(make(), 5)
    assert {name for name, (_, fail) in want.items() if fail} == failing
    assert all(count > 5 for count, _ in want.values())
    for r in verify_axioms(make(), 5):
        if r.name not in want:
            continue
        count, fail = want.pop(r.name)
        assert r.passed == (fail is None)
        if fail is None:
            assert r.details.startswith("%d cases" % count)
        elif r.name == "equivariance":
            assert r.details == "first failure %s" % (fail[0],)
        else:
            _, lhs, rhs = fail
            g = next(g for g, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
            assert r.details == "first failure at (n,m,l,i,j)=%s" % (fail[0],)
            assert str(r.witness) == str((lhs[g], rhs[g]))
    assert not want


@pytest.mark.parametrize("name, k", [
    ("BKW", None), ("HG", 3), ("HG", 4), ("LG", None), ("LHG", 3)])
def test_full_families_take_the_shared_signed_square(name, k):
    # a full family's relations are the cached signed square itself, equal,
    # rows and their item order included, to an elimination of its pair
    # vectors from scratch
    fam = build_family(name, k=k)
    [bound] = [b for nm, kk, b in _FAMILY_BOUNDS if (nm, kk) == (name, k)]
    built = 0
    for n in range(bound + 1):
        comp = fam.component(n)
        gens = comp.generators
        if not gens.dim:
            assert comp.rdim == 0
            continue
        sq = signed_square(gens, SQUARE_SIGN[QDFlavor.SKEW])
        assert comp.relations is sq
        pairs = signed_square.__wrapped__(gens, SQUARE_SIGN[QDFlavor.SKEW]).rows
        fresh = Subspace(square(gens), [dict(r) for r in pairs])
        assert comp.relations == fresh
        assert [list(r.items()) for r in sq.rows] == [list(r.items()) for r in fresh.rows]
        built += 1
    assert built


def test_compositions_of_one_arity_pair_share_one_source():
    for name, k, bound in _FAMILY_BOUNDS:
        s = build_family(name, k=k).scheme
        for n in range(1, bound + 1):
            for m in range(0 if s.symmetric else 1, bound + 2 - n):
                [src] = {id(s.comp(n, m, p).source) for p in range(1, n + 1)}
                assert s.comp(n, m, 1).source == direct_sum(
                    _tagged(s.gen_space(n), "o:"), _tagged(s.gen_space(m), "i:"))


def test_one_family_object_per_name_and_k():
    # every spelling of a family returns one object, so the suites that name
    # it share its components
    dk = build_family("DK")
    assert build_family("dk") is dk
    assert build_family("DK", k=None) is dk
    assert build_family("DK", k=2) is dk
    assert build_family("HG", k=3) is build_family("hg", 3)
    assert build_family("HG", k=3) is not build_family("HG", k=4)
    assert build_family("HG", k=2) is not build_family("BKW")
    with pytest.raises(ValueError):
        build_family("HG")
    # a k other than the one the family fixes is an error, not ignored
    assert build_family("EHKR", k=3) is build_family("EHKR")
    for name, k in (("DK", 3), ("BKW", 7), ("EHKR", 2), ("LG", 3)):
        with pytest.raises(ValueError, match="fixes k"):
            build_family(name, k=k)


def test_families_on_one_scheme_share_its_maps():
    bkw = build_family("BKW")
    assert bkw.scheme.comp(3, 2, 1) is build_family("DK").scheme.comp(3, 2, 1)
    assert bkw.scheme.action(3, (2, 1, 3)) is build_family(
        "HG", k=2).scheme.action(3, (2, 1, 3))
    assert build_family("LG").scheme.comp(3, 2, 1) is build_family(
        "LHG", k=2).scheme.comp(3, 2, 1)
    assert build_family("EHKR").scheme is not build_family("HG", k=4).scheme
    mini = minimal_suboperad(bkw.scheme, 4)
    assert mini.scheme is bkw.scheme
    assert (mini.component(4).generators is bkw.scheme.gen_space(4)
            is bkw.component(4).generators)


def test_axiom_cases_once_per_scheme_match_a_private_scheme():
    # the suite checks the axioms once per shared scheme and bound; every
    # family's cases must equal a check on a freshly built private scheme
    cases = {c.name: c for c in suite_operad_axioms().cases}
    for name, k, bound in _FAMILY_BOUNDS:
        fam = build_family(name, k=k)
        private = type(fam.scheme)(fam.scheme.k)
        for r in verify_axioms(private, bound):
            got = cases.pop("%s.%s" % (fam.name, r.name))
            assert (got.status, got.passed, got.details, str(got.witness)) == (
                r.status, r.passed, r.details, str(r.witness))
        assert cases.pop("%s.relation-morphism" % fam.name).passed
    assert not cases


def test_suite_leaves_the_shared_columns_intact():
    # composites share the columns of the maps they compose (compose_cols
    # returns a unit column's image itself); none may have been mutated
    suite_operad_axioms()
    schemes = {build_family(name, k=k).scheme for name, k, _ in _FAMILY_BOUNDS}
    assert len(schemes) == 5
    for scheme in schemes:
        fresh = type(scheme)(scheme.k)
        assert scheme._comps
        for key, c in scheme._comps.items():
            assert c.cols == fresh.comp(*key).cols
        for key, a in scheme._actions.items():
            assert a.cols == fresh.action(*key).cols


class _BentScheme(_SubsetScheme):
    """DK's scheme, except that t_1.2 o_2 1 also gives t_1.3."""

    def compose_outer(self, I, n, m, p):
        out = super().compose_outer(I, n, m, p)
        if (I, n, m, p) == ((1, 2), 3, 1, 2):
            out = out + [(1, (1, 3))]
        return out


@pytest.mark.parametrize("make, want", [
    # BKW's generators and maps with empty relations in every arity: the
    # first bracket image escapes the (empty) target relation space
    (lambda: OperadFamily("shrunk", build_family("BKW").scheme, lambda s, n: []),
     ("escape at (n,m,p)=(2, 2, 1)", "{3: 1, 6: 1, 1: -1, 2: -1}")),
    # a unit insertion that differs from its p = 1 twin must still be pushed
    (lambda: OperadFamily("bent", _BentScheme(2), _rel_refined),
     ("escape at (n,m,p)=(3, 1, 2)", "{2: 1, 5: 2, 6: -1, 7: -2}")),
], ids=["shrunk", "bent-unit-insertion"])
def test_failing_relation_morphism_reports(make, want):
    # the first escape in (n, m, p) order, with its image, is pinned here
    [r] = verify_relation_morphism(make(), 4)
    assert (r.name, r.status, r.details, str(r.witness)) == (
        "relation-morphism", "FAIL", *want)


def test_minimality_bkw_to_dk():
    mini = minimal_suboperad(build_family("BKW").scheme, 4)
    dk = build_family("DK")
    assert mini.component(4).rdim == 11
    for n in range(5):
        assert mini.component(n).relations == dk.component(n).relations


def test_minimal_family_raises_past_its_bound():
    # the closure knows no relations above its bound: a family that answered
    # there with empty relations would report R(5) = 0 where DK(5) has 35
    mini = minimal_suboperad(build_family("BKW").scheme, 4)
    assert build_family("DK").component(5).rdim == 35
    for n in (5, 6):
        with pytest.raises(ValueError, match="up to arity 4"):
            mini.component(n)


def test_minimality_confluence():
    scheme = build_family("BKW").scheme
    base = minimal_suboperad(scheme, 4)
    for seed in (1, 5, 9):
        alt = minimal_suboperad(scheme, 4, schedule_rng=random.Random(seed))
        for n in range(5):
            assert alt.component(n).relations == base.component(n).relations


def test_action_preserves_relations():
    from quadop.operads import transpositions
    from quadop.qd import square_apply_rows

    for fam in (build_family("DK"), build_family("RHG", k=3)):
        for n in range(2, 6):
            comp = fam.component(n)
            if comp.gdim == 0:
                continue
            for sigma in transpositions(n):
                act = fam.scheme.action(n, sigma)
                imgs = square_apply_rows(act, comp.relations.rows)
                for img in imgs:
                    assert comp.relations.contains(img)


def test_composition_and_action_columns_are_ints():
    # the operad checks run on machine ints only while the 0/±1 columns of
    # the compositions and actions are not boxed as Fractions
    from quadop.operads import transpositions

    fam = build_family("DK")
    maps = [fam.scheme.comp(n, m, p)
            for n in range(1, 6) for m in range(0, 6 - n + 1)
            for p in range(1, n + 1)]
    maps += [fam.scheme.action(n, sigma)
             for n in range(2, 6) for sigma in transpositions(n)]
    values = [v for f in maps for col in f.cols for v in col.values()]
    assert values
    assert all(type(v) is int for v in values)


def test_compare_families():
    dk = build_family("DK")
    bkw = build_family("BKW")
    reports = compare_families(dk, bkw, 4)
    assert all(r.passed for r in reports)
    assert any("PROPER INCLUSION" in r.details for r in reports)


def test_nonsymmetric_rejects_arity_zero():
    lg = build_family("LG")
    with pytest.raises(ValueError):
        lg.scheme.comp(3, 0, 1)
    with pytest.raises(ValueError):
        lg.scheme.action(3, (1, 2, 3))


def test_bracket_image_spot():
    # the wedge of the two outer/inner copies of the single arity-2 generator
    # maps to span{(t_13 + t_23) wedge t_12}, a one-dimensional image
    from quadop.graded import mixed_bracket, square
    from quadop.qd import square_apply_rows
    from quadop.exactlin import Subspace
    from quadop.operads import _tagged

    bkw = build_family("BKW")
    ta = _tagged(bkw.scheme.gen_space(2), "o:")
    tb = _tagged(bkw.scheme.gen_space(2), "i:")
    c = bkw.scheme.comp(2, 2, 1)
    bracket = Subspace(square(c.source), mixed_bracket(ta, tb, -1))
    assert bracket.dim == 1
    imgs = square_apply_rows(c, bracket.rows)
    img = Subspace(square(bkw.scheme.gen_space(3)), imgs)
    assert img.dim == 1
    l3 = bkw.scheme.gen_space(3).labels
    i12, i13, i23 = (l3.index(x) for x in ("t_1.2", "t_1.3", "t_2.3"))
    n = 3
    want = {}
    for a in (i13, i23):
        want[a * n + i12] = want.get(a * n + i12, 0) + 1
        want[i12 * n + a] = want.get(i12 * n + a, 0) - 1
    assert img.contains(want)


def test_fixpoint_is_bounded_by_full():
    bkw = build_family("BKW")
    mini = minimal_suboperad(bkw.scheme, 4)
    for n in range(5):
        full = bkw.component(n)
        assert full.relations.contains_subspace(mini.component(n).relations)
        assert mini.component(n).rdim <= full.rdim
