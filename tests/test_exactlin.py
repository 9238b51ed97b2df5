import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from quadop import exactlin
from quadop.exactlin import (
    AmbientMismatch,
    LinearMap,
    Subspace,
    Vector,
    annihilator,
    compose_cols,
    zero_space,
)
from quadop.graded import GradedSpace
from quadop.kernel import EchelonBasis, echelon_rows


def rand_subspace(rng, amb, max_rank=None):
    n = amb.dim
    rows = []
    for _ in range(rng.randint(0, max_rank or n)):
        row = {rng.randrange(n): Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))}
        rows.append({c: v for c, v in row.items() if v})
    return Subspace(amb, rows)


def _intersect(a, b):
    """span(a) & span(b) by the Zassenhaus trick: fold (r | r) for the rows
    r of a and (r | 0) for those of b; the RREF rows led past the ambient
    span the intersection."""
    n = a.ambient.dim
    stacked = [{**r, **{c + n: v for c, v in r.items()}} for r in a.rows]
    rows = echelon_rows(stacked + list(b.rows))
    return Subspace(a.ambient, [{c - n: v for c, v in r.items()}
                                for r in rows if min(r) >= n])


def _image(f, a):
    """The image f(a) in canonical form."""
    return Subspace(f.target, compose_cols(f.cols, a.rows))


def test_span_basics():
    A = GradedSpace.from_labels(("x", "y"))
    v1, v2, v3 = {0: 1}, {1: 1}, {0: 1, 1: 1}
    assert Subspace(A, [v1, v2, v3]).dim == 2
    assert Subspace(A, []).dim == 0
    assert Subspace(A, [v1, v2]) == Subspace(A, [v3, v2, v1])


def test_intersect_examples():
    A = GradedSpace.from_labels(("x", "y"))
    sx = Subspace(A, [{0: 1}])
    sy = Subspace(A, [{1: 1}])
    assert _intersect(sx, sx) == sx
    assert _intersect(sx, sy).dim == 0


def test_dimension_formula_random():
    rng = random.Random(7)
    amb = GradedSpace.from_labels(tuple("abcdefg"))
    for _ in range(40):
        a = rand_subspace(rng, amb)
        b = rand_subspace(rng, amb)
        assert (a + b).dim + _intersect(a, b).dim == a.dim + b.dim


def test_annihilator_trivial_and_double():
    amb = GradedSpace.from_labels(tuple("abcd"))
    dual = GradedSpace.from_labels(tuple(l + "*" for l in "abcd"))
    signs = (1, 1, 1, 1)
    full = [{i: 1} for i in range(4)]
    assert annihilator(zero_space(amb), dual, signs) == Subspace(dual, full)
    assert annihilator(Subspace(amb, full), dual, signs).dim == 0
    rng = random.Random(3)
    for _ in range(30):
        a = rand_subspace(rng, amb)
        ann = annihilator(a, dual, signs)
        assert ann.dim == amb.dim - a.dim
        assert annihilator(ann, amb, signs) == a


def test_double_annihilator_dim_30():
    n = 30
    amb = GradedSpace.from_labels(tuple("e%d" % i for i in range(n)))
    dual = GradedSpace.from_labels(tuple("e%d*" % i for i in range(n)))
    signs = (1,) * n
    rng = random.Random(5)
    a = rand_subspace(rng, amb, max_rank=17)
    assert annihilator(annihilator(a, dual, signs), amb, signs) == a


def test_annihilator_signed_pairing():
    amb = GradedSpace.from_labels(("p", "q"))
    dual = GradedSpace.from_labels(("p*", "q*"))
    a = Subspace(amb, [{0: 1, 1: 1}])
    assert annihilator(a, dual, (1, 1)).rows == ({0: 1, 1: -1},)
    assert annihilator(a, dual, (1, -1)).rows == ({0: 1, 1: 1},)


def test_pairing_shape_mismatch():
    full = Subspace(GradedSpace.from_labels(("p", "q")), [{0: 1}, {1: 1}])
    with pytest.raises(ValueError, match="pairing shape mismatch"):
        annihilator(full, GradedSpace.from_labels(("p*",)), (1, 1))
    with pytest.raises(ValueError, match="pairing shape mismatch"):
        annihilator(full, GradedSpace.from_labels(("p*", "q*")), (1,))


def test_apply_map_composition_and_identity():
    rng = random.Random(11)
    A = GradedSpace.from_labels(tuple("abc"))
    B = GradedSpace.from_labels(tuple("uvwx"))
    C = GradedSpace.from_labels(tuple("pq"))
    f = LinearMap(A, B, [{0: 1, 2: 2}, {1: Fraction(1, 2)}, {3: -1}])
    g = LinearMap(B, C, [{0: 1}, {1: 3}, {0: -1}, {1: 1}])
    ident = LinearMap.identity(A)
    for _ in range(25):
        s = rand_subspace(rng, A)
        assert _image(ident, s) == s
        assert _image(g.compose(f), s) == _image(g, _image(f, s))
        assert _image(f, s).dim <= s.dim


def test_compose_cols():
    cols = ({0: 1, 2: -1}, {1: 3}, {0: -1, 2: 1})
    # a unit column is the image column itself: read-only, not a copy
    [img] = compose_cols(cols, [{0: 1}])
    assert img is cols[0]
    assert compose_cols(cols, [{1: 2}, {1: Fraction(1, 3)}]) == [{1: 6}, {1: 1}]
    # a cancelling combination gives the empty column, as do an empty and an
    # all-zero column
    assert compose_cols(cols, [{0: 1, 2: 1}, {}, {1: 0}]) == [{}, {}, {}]
    assert compose_cols(cols, [{0: 2, 1: 1, 2: -1}]) == [{0: 3, 1: 3, 2: -3}]
    assert cols == ({0: 1, 2: -1}, {1: 3}, {0: -1, 2: 1})


def test_vector_coords_roundtrip():
    A = GradedSpace.from_labels(("x", "y", "z"))
    v = Vector(A, {0: Fraction(1, 2), 1: 0, 2: -3})
    assert v.data == {0: Fraction(1, 2), 2: -3}
    assert Vector(A, {2: -3, 0: Fraction(1, 2)}) == v


def test_scalar_normal_form():
    assert exactlin.scalar(3) == 3 and type(exactlin.scalar(3)) is int
    assert type(exactlin.scalar(-7)) is int
    assert exactlin.scalar(Fraction(4, 2)) == 2
    assert type(exactlin.scalar(Fraction(4, 2))) is int
    assert exactlin.scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert type(exactlin.scalar(Fraction(1, 2))) is Fraction
    assert exactlin.scalar("3") == 3 and type(exactlin.scalar("3")) is int
    assert exactlin.scalar("-1/3") == Fraction(-1, 3)


def test_fraction_and_int_rows_build_equal_subspaces():
    amb = GradedSpace.from_labels(tuple("abcd"))
    int_rows = [{0: 2, 1: 4}, {1: 3, 3: -6}, {2: 1, 3: 1}]
    frac_rows = [{c: Fraction(v) for c, v in r.items()} for r in int_rows]
    halves = [{c: Fraction(v, 2) for c, v in r.items()} for r in int_rows]
    a, b, c = (Subspace(amb, rows) for rows in (int_rows, frac_rows, halves))
    assert a == b == c
    assert hash(a) == hash(b) == hash(c)


def test_maps_and_vectors_store_integral_values_as_ints():
    A = GradedSpace.from_labels(("x", "y"))
    f = LinearMap(A, A, [{0: Fraction(4, 2), 1: Fraction(1, 2)}, {1: "3"}])
    assert f.cols == ({0: 2, 1: Fraction(1, 2)}, {1: 3})
    assert type(f.cols[0][0]) is int and type(f.cols[1][1]) is int
    v = Vector(A, {0: Fraction(4, 2), 1: Fraction(1, 2)})
    assert type(v.data[0]) is int and v.data[1] == Fraction(1, 2)


# Membership queries reduce against the stored RREF; the kernel is the
# reference: a fresh EchelonBasis over the same generating rows.

QN = 6
QAMB = GradedSpace.from_labels(tuple("abcdef"))
QFULL = Subspace(QAMB, [{i: 1} for i in range(QN)])
_coef = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)
# values may be zero: explicit zero coefficients must not count as support
_row = st.dictionaries(st.integers(0, QN - 1), _coef, max_size=4)


def _fresh_contains(rows, v):
    basis = EchelonBasis()
    for r in rows:
        basis.add(r)
    return not basis.add(v)


def _combination(rows, coeffs, zeros):
    """sum coeffs[i] * rows[i], with explicit zero entries at `zeros`."""
    out = {c: Fraction(0) for c in zeros}
    for r, k in zip(rows, coeffs):
        for c, v in r.items():
            out[c] = out.get(c, 0) + k * v
    return out


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_row, max_size=QN + 1),
    st.lists(_row, max_size=4),
    st.lists(_coef, max_size=QN + 1),
    st.sets(st.integers(0, QN - 1), max_size=3),
)
# the span of 2a + 3b + c and 2c + 3d - 5e is stored as 4a + 6b - 3d + 5e
# and 2c + 3d - 5e, with pivots 4 and 2, so residuals cross-multiply: the
# queries are half a row, a vector that escapes and a sum of both rows
@example(
    [{0: 2, 1: 3, 2: 1}, {2: 2, 3: 3, 4: -5}],
    [{0: 1, 1: Fraction(3, 2), 2: Fraction(1, 2)}, {0: 2, 1: 3},
     {0: 4, 1: 6, 2: 4, 3: 3, 4: -5}],
    [3, -2],
    {5},
)
def test_queries_agree_with_fresh_elimination(rows, queries, coeffs, zeros):
    sub = Subspace(QAMB, rows)
    queries = queries + [_combination(rows, coeffs, zeros)]
    for q in queries:
        expected = _fresh_contains(rows, q)
        assert sub.contains(q) is expected
        assert sub.contains(Vector(QAMB, q)) is expected
    other = Subspace(QAMB, queries)
    assert sub.contains_subspace(other) is all(
        _fresh_contains(rows, r) for r in other.rows
    )
    assert sub.contains_subspace(sub)
    assert other.contains_subspace(sub) is all(
        _fresh_contains(queries, r) for r in sub.rows
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(_row, max_size=QN + 1))
def test_stored_null_and_cut_rows_are_int_rows(rows):
    sub = Subspace(QAMB, rows)
    null = exactlin.nullspace_rows(sub.rows, QN)
    for r in list(sub.rows) + null + exactlin.rows_past(rows, 2):
        assert all(type(v) is int and v for v in r.values())
    assert Subspace(QAMB, null).dim == len(null) == QN - sub.dim
    for r in sub.rows:
        assert all(sum(v * x.get(c, 0) for c, v in r.items()) == 0 for x in null)


@settings(max_examples=100, deadline=None)
@given(st.lists(_row, max_size=4))
def test_queries_on_zero_and_full_space(queries):
    zero, full = zero_space(QAMB), QFULL
    for q in queries:
        assert full.contains(q)
        assert zero.contains(q) is not any(q.values())
    some = Subspace(QAMB, queries)
    assert full.contains_subspace(some)
    assert some.contains_subspace(zero)
    assert zero.contains_subspace(some) is (some.dim == 0)


def test_queries_ignore_explicit_zero_coefficients():
    sub = Subspace(QAMB, [{0: 1, 1: 2}])
    assert sub.contains({0: 2, 1: 4, 3: 0, 5: Fraction(0)})
    assert sub.contains({2: 0})
    assert sub.contains(Vector(QAMB, {0: Fraction(1, 2), 1: 1, 4: 0}))
    assert not sub.contains({0: 1, 1: 2, 3: 1})
    assert zero_space(QAMB).contains({0: 0, 4: Fraction(0)})


def test_queries_reject_other_ambients():
    other = GradedSpace.from_labels(tuple("uvwxyz"))
    sub = QFULL
    with pytest.raises(AmbientMismatch):
        sub.contains(Vector(other, {0: 1}))
    with pytest.raises(AmbientMismatch):
        sub.contains_subspace(zero_space(other))
    with pytest.raises(AmbientMismatch):
        zero_space(QAMB).contains(Vector(other, {}))


def test_queries_run_no_elimination(monkeypatch):
    rng = random.Random(13)
    sub = rand_subspace(rng, QAMB, max_rank=4)
    probes = [rand_subspace(rng, QAMB, max_rank=3) for _ in range(5)]
    probes += [sub, zero_space(QAMB), QFULL]
    expected = [
        ([sub.contains(r) for r in p.rows], sub.contains_subspace(p)) for p in probes
    ]

    def no_elimination(rows):
        raise AssertionError("a membership query ran an elimination")

    monkeypatch.setattr(exactlin, "echelon_rows", no_elimination)
    for p, (members, inside) in zip(probes, expected):
        assert [sub.contains(r) for r in p.rows] == members
        assert [sub.contains(Vector(QAMB, r)) for r in p.rows] == members
        assert sub.contains_subspace(p) is inside


def test_from_rref_stores_canonical_rows_and_rejects_other_leads(monkeypatch):
    rows = [{2: 1, 5: -3}, {0: 2, 1: 1, 5: 7}]
    monkeypatch.setattr(exactlin, "echelon_rows", None)
    sub = Subspace.from_rref(QAMB, rows)
    monkeypatch.undo()
    # sorted by lead, and equal (hash too) to the eliminated subspace
    assert [list(r.items()) for r in sub.rows] == \
        [list(r.items()) for r in Subspace(QAMB, rows).rows]
    assert sub == Subspace(QAMB, rows) and hash(sub) == hash(Subspace(QAMB, rows))
    assert sub.contains({0: 2, 1: 1, 2: 1, 5: 4})
    assert not sub.contains({1: 1})
    for bad in (
        [{0: 1, 3: 1}, {0: 2, 4: 1}],   # a repeated lead
        [{0: 1, 2: 1}, {2: 1, 4: 1}],   # a row holds another row's lead
        [{0: 1}, {2: -1, 3: 1}],        # a negative lead
        [{0: 1}, {}],                   # an empty row
    ):
        with pytest.raises(ValueError):
            Subspace.from_rref(QAMB, bad)


def _signed_columns(rows, signs):
    return [{c: v * signs[c] for c, v in r.items()} for r in rows]


def test_nullspace_rows_of_canonical_and_column_signed_rows(monkeypatch):
    # stored rows, and stored rows times a sign per column (as annihilator
    # pairs them), take no elimination: the result is orthogonal to every
    # input row, has dim ncols - rank, and the signs move it by themselves
    rng = random.Random(31)
    amb = GradedSpace.from_labels(tuple("abcdefgh"))
    n = amb.dim
    cases = [rand_subspace(rng, amb) for _ in range(150)]
    cases += [zero_space(amb), Subspace(amb, [{i: 1} for i in range(n)])]
    monkeypatch.setattr(exactlin, "echelon_rows", None)
    kernels = []
    for sub in cases:
        signs = [rng.choice((1, -1)) for _ in range(n)]
        signed = _signed_columns(sub.rows, signs)
        plain = exactlin.nullspace_rows(sub.rows, n)
        null = exactlin.nullspace_rows(signed, n)
        for rows, kernel in ((sub.rows, plain), (signed, null)):
            assert len(kernel) == n - sub.dim
            for x in kernel:
                assert all(type(v) is int for v in x.values())
                assert all(sum(v * x.get(c, 0) for c, v in r.items()) == 0
                           for r in rows)
        kernels.append((signed, plain, null, signs))
    monkeypatch.undo()
    assert any(r[next(iter(r))] < 0 for k in kernels for r in k[0])
    for signed, plain, null, signs in kernels:
        assert Subspace(amb, null).dim == len(null)
        assert Subspace(amb, null) == \
            Subspace(amb, _signed_columns(plain, signs))


@pytest.mark.parametrize("rows", [
    [{0: 1, 3: 1}, {0: 2, 4: 1}],    # a repeated lead
    [{0: 1, 2: 1}, {2: 1, 4: 1}],    # a row holds another row's lead
    [{2: -1, 4: 1}, {0: 1, 2: 3}],   # the same, with the rows out of order
    [{0: 1}, {}],                    # an empty row
])
def test_nullspace_rows_rejects_rows_that_are_not_reduced(rows):
    with pytest.raises(ValueError):
        exactlin.nullspace_rows(rows, QN)


def test_perp_rows_match_nullspace_rows_then_elimination():
    # the old construction: the kernel of the RREF constraints read off by
    # nullspace_rows, then eliminated into canonical form
    rng = random.Random(35)
    amb = GradedSpace.from_labels(tuple("abcdefg"))
    n = amb.dim
    cases = [rand_subspace(rng, amb) for _ in range(300)]
    cases += [zero_space(amb), Subspace(amb, [{i: 1} for i in range(n)])]
    for sub in cases:
        signs = [rng.choice((1, -1)) for _ in range(n)]
        signed = _signed_columns(sub.rows, signs)
        raw = signed + [{c: 2 * v for c, v in r.items()} for r in signed] + [{}]
        rng.shuffle(raw)
        expected = echelon_rows(exactlin.nullspace_rows(signed, n))
        for constraints in (signed, raw):
            rows = exactlin.perp_rows(constraints, n)
            assert rows == expected
            assert [list(r.items()) for r in rows] == \
                [sorted(r.items()) for r in expected]
        assert Subspace.from_rref(amb, expected) == annihilator(sub, amb, signs)
    assert exactlin.perp_rows([], 3) == [{0: 1}, {1: 1}, {2: 1}]
    assert exactlin.perp_rows([{0: 1}, {1: -2}, {2: 3}], 3) == []
    assert exactlin.perp_rows([], 0) == []
