import contextlib
import io
import random
from collections import Counter
from functools import partial
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from quadop import realize
from quadop.cli import main
from quadop.graded import ArityError, GradedSpace
from quadop.exactlin import nullspace_rows
from quadop.kernel import EchelonBasis, echelon_rows
from quadop.qd import FlavorMismatch, apply_functor, make_qd, qd_zero
from quadop.rand import random_qd
from quadop.realize import (
    _project_rel_to_sym,
    _sort_mono,
    _sym_monomials,
    hilbert_series,
    free_lie_dims_by_parity,
    koszul_euler_check,
    lie_dims_by_parity,
    pbw_certificate,
    pbw_series,
    sym_quotient_dim,
    tensor_cofree_rows,
    tensor_quotient_dims,
    ue_compare,
    weight_component,
)
from quadop.catalog import aos_data, named_qd


def _rung(rungs, w):
    """The rung at weight w of a generator of rungs from weight 0 on."""
    return next(islice(rungs, w, None))


def test_free_and_cofree_extremes():
    free = make_qd("plain", GradedSpace.from_labels(["x", "y"]), [])
    assert [weight_component("A", free, w) for w in range(5)] == [1, 2, 4, 8, 16]
    assert [weight_component("Tc", free, w) for w in range(4)] == [1, 2, 0, 0]
    full = make_qd(
        "plain", GradedSpace.from_labels(["x", "y"]), [{c: 1} for c in range(4)]
    )
    assert [weight_component("Tc", full, w) for w in range(4)] == [1, 2, 4, 8]
    assert [weight_component("A", full, w) for w in range(4)] == [1, 2, 0, 0]


def test_no_generators_give_only_the_unit():
    zero = qd_zero()
    assert [weight_component("A", zero, w) for w in range(6)] == [1, 0, 0, 0, 0, 0]
    assert [weight_component("Tc", zero, w) for w in range(6)] == [1, 0, 0, 0, 0, 0]


def test_tc_intersection_example():
    # relations generated by x(x)x: the cofree weight-3 part is its triple
    q = make_qd("plain", GradedSpace.from_labels(["x", "y"]), [{0: 1}])
    assert weight_component("Tc", q, 3) == 1


def test_s_aos_and_l_dk_dims():
    a = aos_data(3)
    assert [weight_component("S", a, w) for w in range(5)] == [1, 3, 2, 0, 0]
    dk = named_qd("DK", 3)
    assert [weight_component("L", dk, w) for w in range(1, 5)] == [3, 1, 2, 3]
    assert [weight_component("A", dk, w) for w in range(5)] == [1, 3, 7, 15, 31]


def test_weight_component_flavor_guards():
    dk = named_qd("DK", 3)
    with pytest.raises(FlavorMismatch):
        weight_component("S", dk, 2)
    with pytest.raises(ArityError):
        weight_component("A", dk, -1)


def test_lyndon_counts():
    for w, expect in ((1, 2), (2, 1), (3, 2), (4, 3)):
        assert sum(free_lie_dims_by_parity((0, 0), w)) == expect
    # one odd generator: the square survives at weight 2 and nothing above
    assert free_lie_dims_by_parity((1,), 1) == (0, 1)
    assert free_lie_dims_by_parity((1,), 2) == (1, 0)
    free_odd = make_qd("skew", GradedSpace(("z",), (1,)), [])
    assert [weight_component("L", free_odd, w) for w in range(1, 4)] == [1, 1, 0]


def test_free_lie_counts_satisfy_pbw():
    # U of the free Lie superalgebra on n generators is the tensor algebra,
    # so the counts, odd squares included, must give n^w in every weight
    for degrees in ((), (1,), (0, 1, 1), (2, -1, 3)):
        free = {w: free_lie_dims_by_parity(degrees, w) for w in range(1, 8)}
        n = len(degrees)
        assert pbw_series(free, 7) == [n ** w for w in range(8)]


def test_ue_compare_cases():
    dk = named_qd("DK", 3)
    assert ue_compare(dk, 4).passed
    v = GradedSpace.from_labels(["x", "y"])
    from quadop.graded import signed_square

    abelian = make_qd("skew", v, signed_square(v, -1))
    assert ue_compare(abelian, 4).passed
    free = make_qd("skew", v, [])
    assert ue_compare(free, 4).passed


def test_ue_compare_random_graded():
    rng = random.Random(12)
    for _ in range(12):
        q = random_qd(rng, "skew", "s", 2)
        assert ue_compare(q, 4).passed


def test_koszul_euler():
    dk = named_qd("DK", 3)
    rep = koszul_euler_check(dk, 4)
    assert rep.status == "PASS"
    full = make_qd(
        "plain", GradedSpace.from_labels(["x"]), [{0: 1}]
    )
    assert koszul_euler_check(full, 3).status == "PASS"


def test_hilbert_series_matches_components():
    q = named_qd("DK", 4)
    assert hilbert_series("A", q, 3) == [weight_component("A", q, w) for w in range(4)]


def test_duality_of_components_random():
    rng = random.Random(17)
    for _ in range(20):
        pl = random_qd(rng, "plain", "p", 2)
        dual = apply_functor("star", pl)
        for w in range(4):
            assert weight_component("Tc", pl, w) == \
                weight_component("A", dual, w)
        sy = random_qd(rng, "symmetric", "y", 2)
        dual_sy = apply_functor("star", sy)
        for w in range(5):
            d = weight_component("Sc", sy, w)
            assert d == weight_component("S", dual_sy, w)
            assert d == weight_component(
                "Tc", apply_functor("sigma", sy), w
            )


def test_lie_weight_two_is_alt_mod_relations():
    rng = random.Random(23)
    from quadop.graded import signed_square

    for _ in range(15):
        q = random_qd(rng, "skew", "s", 2)
        expect = signed_square(q.generators, -1).dim - q.rdim
        assert weight_component("L", q, 2) == expect


def test_tc_weight3_is_triple_word():
    # relations x(x)x over x, y: the single cofree element at weight 3 is
    # x(x)x(x)x, word code 0
    assert _rung(tensor_cofree_rows([{0: 1}], 2), 3) == [{0: 1}]
    assert weight_component(
        "Tc", make_qd("plain", GradedSpace.from_labels(["x", "y"]), [{0: 1}]), 3
    ) == 1


def _sym_quotient_dim_oracle(rel_rows, degrees, w):
    """Reference fold: lex-ordered columns, each product m * s put in
    canonical form by an insertion sort, rows streamed through add."""
    if w == 0:
        return 1
    if w == 1:
        return len(degrees)
    monos = _sym_monomials(degrees, w)
    index = {m: k for k, m in enumerate(monos)}
    basis = EchelonBasis()
    for m in _sym_monomials(degrees, w - 2):
        for row in _project_rel_to_sym(rel_rows, degrees):
            acc = {}
            for s, v in row.items():
                sign, full = _sort_mono(m + s, degrees)
                if sign:
                    col = index[full]
                    acc[col] = acc.get(col, 0) + sign * v
            acc = {c: x for c, x in acc.items() if x}
            if acc:
                basis.add(acc)
    return len(monos) - basis.rank


@st.composite
def _sym_cases(draw):
    n = draw(st.integers(1, 4))
    degrees = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    coeff = st.integers(-3, 3).filter(bool)
    row = st.dictionaries(st.integers(0, n * n - 1), coeff, min_size=1, max_size=4)
    rows = draw(st.lists(row, max_size=4))
    return rows, tuple(degrees), draw(st.integers(2, 5))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_sym_cases())
# Random rows are generic, so the dims of their quotient rarely depend on
# the Koszul signs.  Here they do: dropping the signs, counting the odd
# letters of m below x, or counting even letters of m or s each changes dim 5.
@example(([{1: -2, 3: 2, 13: 2}, {9: -1, 2: -1}], (-1, 2, 1, 2), 3))
def test_sym_quotient_dim_matches_lex_fold(case):
    rows, degrees, w = case
    assert sym_quotient_dim(rows, degrees, w) == \
        _sym_quotient_dim_oracle(rows, degrees, w)


def _all_slices_oracle(rel_rows, n, w):
    """Reference for the tensor side: every slice V^i (x) R (x) V^j of
    weight w spelled out.  Returns the words minus the rank of their sum,
    and the RREF of their intersection, taken as (sum of the slices'
    annihilators)^perp so that it shares no code with the Zassenhaus cut."""
    ncols = n ** w
    slices = []
    for i in range(w - 1):
        j = w - 2 - i
        slices.append([
            {(u * n * n + c) * n ** j + v: x for c, x in row.items()}
            for u in range(n ** i) for row in rel_rows for v in range(n ** j)
        ])
    total = EchelonBasis().add_many([r for s in slices for r in s]).rank
    perps = [r for s in slices
             for r in nullspace_rows(echelon_rows(s), ncols)]
    return ncols - total, echelon_rows(
        nullspace_rows(echelon_rows(perps), ncols))


@st.composite
def _tensor_cases(draw):
    n = draw(st.integers(1, 3))
    coeff = st.integers(-3, 3).filter(bool)
    row = st.dictionaries(st.integers(0, n * n - 1), coeff, min_size=1, max_size=3)
    rows = draw(st.lists(row, max_size=4))
    return rows, n, draw(st.integers(0, 4 if n == 3 else 5))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_tensor_cases())
def test_weight_recursion_matches_all_slices(case):
    rows, n, w = case
    quotient, cofree = _all_slices_oracle(rows, n, w)
    assert _rung(tensor_quotient_dims(rows, n), w) == quotient
    assert _rung(tensor_cofree_rows(rows, n), w) == cofree


def _zassenhaus_cofree_rows(rel_rows, n, w):
    """The cofree rows as they were built before: C_1 = V and
    C_u = (C_{u-1} (x) V) & (V^(u-2) (x) R), each intersection by the
    Zassenhaus trick, folding (r | r) for the rows of the first and (r | 0)
    for those of the second and keeping the RREF rows led past n^u."""
    acc = [{i: 1} for i in range(n)] if w else [{0: 1}]
    for u in range(2, w + 1):
        ncols = n ** u
        stacked = [{**r, **{c + ncols: v for c, v in r.items()}}
                   for r in ([{c * n + g: x for c, x in row.items()}
                              for row in acc for g in range(n)])]
        stacked += [{p * n * n + c: v for c, v in row.items()}
                    for p in range(n ** (u - 2)) for row in rel_rows]
        acc = [{c - ncols: v for c, v in r.items()}
               for r in echelon_rows(stacked) if min(r) >= ncols]
    return acc


@st.composite
def _raw_tensor_cases(draw):
    """Relation rows as a caller may pass them: zero entries, empty rows
    and repeated rows allowed."""
    n = draw(st.integers(1, 3))
    row = st.dictionaries(st.integers(0, n * n - 1), st.integers(-3, 3), max_size=3)
    rows = draw(st.lists(row, max_size=4))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    return rows, n, draw(st.integers(0, 4 if n == 3 else 5))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_raw_tensor_cases())
# a repeated row: reading R^perp off the rows with no elimination fails here
@example(([{0: 1}, {0: 1}], 1, 2))
def test_cofree_rows_match_the_zassenhaus_recursion(case):
    rows, n, w = case
    assert _rung(tensor_cofree_rows(rows, n), w) == _zassenhaus_cofree_rows(rows, n, w)


def test_certified_counts_match_elimination():
    # every value at weights 4-5 against the elimination routines called
    # directly; the certified share shows the counting path is exercised
    rng = random.Random(20261018)
    certified = {"plain": 0, "symmetric": 0, "skew": 0}
    with_odd = {"symmetric": 0, "skew": 0}
    for _ in range(300):
        for flavor in certified:
            q = random_qd(rng, flavor, "r")
            rows = q.relations.rows
            degrees = q.generators.degrees
            side = "S" if flavor == "symmetric" else "A"
            if pbw_certificate(side, q).order is not None:
                certified[flavor] += 1
                if flavor in with_odd and any(d % 2 for d in degrees):
                    with_odd[flavor] += 1
            if flavor == "skew":
                lie = dict(zip(range(1, 6), lie_dims_by_parity(rows, degrees)))
            for w in (4, 5):
                if side == "S":
                    assert weight_component("S", q, w) == \
                        sym_quotient_dim(rows, degrees, w)
                    continue
                assert weight_component("A", q, w) == \
                    _rung(tensor_quotient_dims(rows, q.gdim), w)
                if flavor == "skew":
                    assert weight_component("L", q, w) == sum(lie[w])
    assert min(certified.values()) >= 200, certified
    assert min(with_odd.values()) >= 150, with_odd


def test_reversed_order_certifies_dk4_and_ehkr6_falls_back():
    dk4 = named_qd("DK", 4)
    cert = pbw_certificate("A", dk4)
    # the given order leaves three normal words too many at weight 3
    assert cert.tried == (("given", 93), ("reversed", 90))
    assert (cert.order, cert.dim3, len(cert.leads)) == ("reversed", 90, 11)
    aos = pbw_certificate("S", aos_data(4))
    assert (aos.order, aos.tried, aos.dim3) == ("reverse-lex", (("reverse-lex", 6),), 6)
    ehkr6 = named_qd("EHKR", 6)
    cert = pbw_certificate("A", ehkr6)
    assert cert.order is None
    assert cert.tried == (("given", 5500), ("reversed", 5485))
    assert cert.dim3 == 5440


def _witt(k, w):
    """Dim of weight w of the free Lie algebra on k letters."""
    def mobius(d):
        sign, p = 1, 2
        while p * p <= d:
            if d % p == 0:
                d //= p
                if d % p == 0:
                    return 0
                sign = -sign
            p += 1
        return -sign if d > 1 else sign
    return sum(mobius(d) * k ** (w // d) for d in range(1, w + 1) if w % d == 0) // w


def test_dk6_dims_match_the_fibration_oracle(tmp_path):
    # U(L(DK(n))) is a product of the free algebras on 1..n-1 letters: A has
    # series prod_k 1/(1-kt), and L is the sum of the free Lie dims.
    # Without the certificate, weight 8 would eliminate over 15^8 columns.
    assert pbw_certificate("A", named_qd("DK", 6)).order == "reversed"
    out = tmp_path / "dk6.tsv"
    assert main(["dims", "--qd", "DK", "--n", "6", "--wmax", "8",
                 "--format", "tsv", "--out", str(out)]) == 0
    rows = [line.split("\t") for line in out.read_text().splitlines()]
    a = [1] + [0] * 8
    for k in range(1, 6):
        for w in range(1, 9):
            a[w] += k * a[w - 1]
    assert rows[0] == ["A"] + [str(x) for x in a]
    assert a[8] == 7508501
    lie = [0] + [sum(_witt(k, w) for k in range(1, 6)) for w in range(1, 9)]
    assert rows[1] == ["L"] + [str(x) for x in lie]


def test_a_zero_weight_ends_the_series(monkeypatch):
    # Sc of AOS(6) is zero from weight 3 on, and its weight-3 leads do not
    # certify: only the zero rule keeps weights >= 4 from eliminating
    seen = []
    fold = realize.sym_quotient_dim

    def recorded(rel_rows, degrees, w):
        seen.append(w)
        return fold(rel_rows, degrees, w)

    monkeypatch.setattr(realize, "sym_quotient_dim", recorded)
    realize._component_cached.cache_clear()
    realize.pbw_certificate.cache_clear()
    try:
        q = aos_data(6)
        star = apply_functor("star", q)
        assert pbw_certificate("S", star).order is None
        assert hilbert_series("Sc", q, 6) == [1, 15, 20, 0, 0, 0, 0]
        assert max(seen) == 3
        # L of one odd generator is 1, 1, 0 and then zero for good; L_1 is
        # not ruled by L_0 = 0
        free_odd = make_qd("skew", GradedSpace(("z",), (1,)), [])
        assert hilbert_series("L", free_odd, 6) == [0, 1, 1, 0, 0, 0, 0]
    finally:
        realize._component_cached.cache_clear()
        realize.pbw_certificate.cache_clear()


def test_no_rung_is_built_twice(monkeypatch):
    # every tensor-side rung build is booked under the (realisation, datum)
    # being read and the weight of the rung its ladder climbs to; two suites
    # run in one process must build no rung twice (the old per-weight cache
    # re-climbed from weight 2 for every weight)
    reading, built = [], Counter()
    read = realize.weight_component

    def recorded_read(realization, q, w):
        reading.append((realization, q))
        try:
            return read(realization, q, w)
        finally:
            reading.pop()

    def recorder(name):
        fn = getattr(realize, name)

        def recorded(*args):
            weight = len(realize._component_cached(*reading[-1]).dims)
            built[reading[-1], name, weight] += 1
            return fn(*args)
        return recorded

    monkeypatch.setattr(realize, "weight_component", recorded_read)
    for name in ("_last_slice_rows", "perp_in_span"):
        monkeypatch.setattr(realize, name, recorder(name))
    realize._component_cached.cache_clear()
    realize.pbw_certificate.cache_clear()
    try:
        for command in ("verify realize-duality", "verify diagram-faces"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(command.split()) == 0
    finally:
        realize._component_cached.cache_clear()
        realize.pbw_certificate.cache_clear()
    names = Counter(name for _, name, _ in built.elements())
    assert names["_last_slice_rows"] > 50 and names["perp_in_span"] > 30, names
    assert [key for key, n in built.items() if n > 1] == []


def test_a_climb_that_raises_raises_again():
    # x even, y odd: the relation x(x)y - y(x)x + y(x)y is not homogeneous,
    # so L's climb raises at weight 2.  Each later read must raise again: a
    # spent generator would leak StopIteration, which map() takes for the
    # end of its input and a caller could take for a zero
    q = make_qd("skew", GradedSpace(("x", "y"), (0, 1)), [{1: 1, 2: -1, 3: 1}])
    for _ in range(2):
        with pytest.raises(ValueError, match="non-homogeneous"):
            weight_component("L", q, 2)
    with pytest.raises(ValueError, match="non-homogeneous"):
        hilbert_series("L", q, 4)
    with pytest.raises(ValueError, match="non-homogeneous"):
        list(map(partial(weight_component, "L", q), range(5)))
    # the rungs below the failing one still read
    assert hilbert_series("L", q, 1) == [0, 2]
