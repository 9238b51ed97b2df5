import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from quadop.kernel import _echelon_py


def sparse_rows(max_rows=8, max_cols=6):
    entry = st.fractions(
        min_value=-5, max_value=5, max_denominator=4
    )
    row = st.dictionaries(st.integers(0, max_cols - 1), entry, max_size=4)
    return st.lists(row, max_size=max_rows)


@pytest.mark.parametrize("kernel", [_echelon_py])
def test_rref_idempotent_and_order_free(kernel):
    rng = random.Random(0)
    for _ in range(60):
        rows = [
            {rng.randrange(6): Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))}
            for _ in range(rng.randint(1, 7))
        ]
        rows = [{c: v for c, v in r.items() if v} for r in rows]
        a = kernel.echelon_rows([dict(r) for r in rows])
        shuffled = [dict(r) for r in rows]
        rng.shuffle(shuffled)
        b = kernel.echelon_rows(shuffled)
        assert a == b
        assert kernel.echelon_rows([dict(r) for r in a]) == a


@given(sparse_rows())
@settings(max_examples=100, deadline=None)
def test_membership_of_combinations(rows):
    basis = _echelon_py.EchelonBasis()
    for r in rows:
        basis.add(dict(r))
    if not rows:
        return
    combo = {}
    for r in rows[:3]:
        for c, v in r.items():
            combo[c] = combo.get(c, 0) + 2 * v
    combo = {c: v for c, v in combo.items() if v}
    assert not basis.add(combo)


# Rows as callers pass them: Fractions with denominators, plain ints, explicit
# zero coefficients, and empty rows.
_mixed_entry = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.just(0),
    st.just(Fraction(0)),
)
_mixed_rows = st.lists(
    st.dictionaries(st.integers(0, 7), _mixed_entry, max_size=5), max_size=10
)


def _check_pivot_rows(basis):
    for p, row in basis.pivots.items():
        assert min(row) == p
        assert all(type(v) is int and v for v in row.values())
        assert row[p] > 0
        assert gcd(*row.values()) == 1


@given(_mixed_rows, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_add_many_matches_sequential_add(rows, rnd):
    sequential = _echelon_py.EchelonBasis()
    for r in rows:
        sequential.add(r)
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    batch = _echelon_py.EchelonBasis().add_many(shuffled)
    assert batch.rref() == sequential.rref()
    assert batch.rank == sequential.rank
    assert batch.pivot_columns() == sequential.pivot_columns()
    _check_pivot_rows(sequential)
    _check_pivot_rows(batch)


def test_stored_pivot_rows_are_primitive_with_positive_pivot():
    basis = _echelon_py.EchelonBasis()
    # rows stored without any elimination step are normalised too
    assert basis.add({3: 6, 5: 4})
    assert basis.add({2: -4})
    assert basis.pivots == {3: {3: 3, 5: 2}, 2: {2: 1}}
    # a row whose elimination leaves a negative lead and a common factor
    assert basis.add({3: Fraction(3, 2), 5: 0, 6: 2})
    assert basis.pivots[5] == {5: 1, 6: -2}
    assert not basis.add({2: 0, 3: 0})
    assert not basis.add({})
    _check_pivot_rows(basis)


def test_from_echelon_rows_stores_without_elimination():
    basis = _echelon_py.EchelonBasis.from_echelon_rows([{3: -6, 5: 4}, {1: 2}])
    assert basis.pivots == {3: {3: 3, 5: -2}, 1: {1: 1}}
    assert list(basis.pivot_rows()) == [{3: 3, 5: -2}, {1: 1}]
    _check_pivot_rows(basis)
    assert basis.add({3: 1, 4: 1}) and not basis.add({1: 5})
    with pytest.raises(ValueError, match="column 2"):
        _echelon_py.EchelonBasis.from_echelon_rows([{2: 1}, {2: 1, 4: 1}])


def test_int_row_clears_denominators_and_zeros():
    int_row = _echelon_py.int_row
    assert int_row({1: Fraction(1, 2), 2: Fraction(-1, 3), 4: 0}) == {1: 3, 2: -2}
    row = int_row({0: Fraction(4), 3: -2, 5: Fraction(0)})
    assert row == {0: 4, 3: -2}
    assert all(type(v) is int for v in row.values())
    assert int_row({}) == {}


def _reference_rref(basis):
    """The pivot-1 RREF recomputed in Fraction arithmetic from the stored
    pivot rows, dividing each row by its pivot first: each rref() row is
    this row times its pivot."""
    pivots = basis.pivots
    reduced = {}
    for c in sorted(pivots, reverse=True):
        row = {k: Fraction(v, pivots[c][c]) for k, v in pivots[c].items()}
        for k in [k for k in row if k != c and k in reduced]:
            x = row[k]
            for kk, v in reduced[k].items():
                w = row.get(kk, 0) - x * v
                if w:
                    row[kk] = w
                else:
                    del row[kk]
        reduced[c] = row
    return [dict(sorted(reduced[c].items())) for c in sorted(pivots)]


# rref() rows are the pivot-1 RREF scaled to primitive integers: each row's
# content is a unit (gcd 1) and its pivot is positive, and no row is divided
# by its pivot.


@given(_mixed_rows)
@settings(max_examples=200, deadline=None)
def test_rref_pivots_are_unit_and_cleared(rows):
    basis = _echelon_py.EchelonBasis().add_many(rows)
    rref = basis.rref()
    pivots = [min(r) for r in rref]
    assert pivots == sorted(pivots) == basis.pivot_columns()
    for r, p in zip(rref, pivots):
        assert list(r) == sorted(r)
        assert r[p] > 0 and gcd(*r.values()) == 1
        assert not any(q in r for q in pivots if q != p)


@given(_mixed_rows)
@example([{0: 2, 1: 1}])  # its own RREF: 2x + y keeps its pivot 2
@settings(max_examples=200, deadline=None)
def test_rref_entries_are_int_unless_they_have_a_denominator(rows):
    # with rows kept primitive no entry has a denominator: all are ints
    basis = _echelon_py.EchelonBasis().add_many(rows)
    rref = basis.rref()
    for r, ref in zip(rref, _reference_rref(basis)):
        assert all(type(v) is int and v for v in r.values())
        assert r == {k: v * r[min(r)] for k, v in ref.items()}


def test_rref_divides_by_the_pivot_only_where_it_must():
    # only the row's content is divided out, never a pivot it still needs
    (row,) = _echelon_py.echelon_rows([{0: 2, 1: 4}])
    assert row == {0: 1, 1: 2}
    assert all(type(v) is int for v in row.values())
    (row,) = _echelon_py.echelon_rows([{0: 2, 1: 1}])
    assert row == {0: 2, 1: 1}
    assert all(type(v) is int for v in row.values())
    (row,) = _echelon_py.echelon_rows([{0: Fraction(2, 3), 1: Fraction(1, 3)}])
    assert row == {0: 2, 1: 1}
    assert all(type(v) is int for v in row.values())


def _gauss_jordan(rows):
    """The pivot-1 RREF of rows by textbook Gauss-Jordan on a dense Fraction
    matrix: an oracle that shares no code with the kernel."""
    ncols = 1 + max((c for r in rows for c in r), default=-1)
    todo = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    done = []
    for col in range(ncols):
        k = next((k for k, m in enumerate(todo) if m[col]), None)
        if k is None:
            continue
        pivot = todo.pop(k)
        pivot = [v / pivot[col] for v in pivot]
        for m in todo + done:
            x = m[col]
            if x:
                m[:] = [a - x * b for a, b in zip(m, pivot)]
        done.append(pivot)
    return [{c: v for c, v in enumerate(m) if v} for m in done]


@st.composite
def _rows_with_dependencies(draw):
    """Mixed rows plus combinations of them: these repeat leads already
    taken and often reduce to zero, with explicit zeros where terms cancel."""
    rows = draw(_mixed_rows)
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        x = draw(_mixed_entry)
        combo = dict(rows[i])
        for c, v in rows[j].items():
            combo[c] = combo.get(c, 0) + x * v
        rows.append(combo)
    return rows


@given(_rows_with_dependencies())
@example([{0: 1}, {0: 2, 1: 1}, {0: Fraction(1, 2)}, {}, {3: 0}])
@settings(max_examples=300, deadline=None)
def test_echelon_rows_matches_a_gauss_jordan_oracle(rows):
    # each kernel row is the oracle's row times its (int, positive) pivot
    got = _echelon_py.echelon_rows([dict(r) for r in rows])
    want = _gauss_jordan(rows)
    assert len(got) == len(want)
    for r, w in zip(got, want):
        p = min(r)
        assert all(type(v) is int for v in r.values())
        assert r[p] > 0 and gcd(*r.values()) == 1
        assert r == {c: v * r[p] for c, v in w.items()}


def test_empty_and_zero_rows_store_nothing():
    basis = _echelon_py.EchelonBasis()
    assert not basis.add({})
    assert not basis.add({3: 0})
    assert not basis.add({3: Fraction(0)})
    assert basis.pivots == {} and basis.rank == 0
    assert _echelon_py.echelon_rows([{}, {3: 0}]) == []


def test_rref_rows_are_copies_of_the_pivot_rows():
    # single-entry rows, rows that need no clearing and rows that do
    basis = _echelon_py.EchelonBasis().add_many(
        [{4: 3}, {1: 2, 3: 5}, {0: 1, 1: 1, 4: 2}, {2: -7}])
    before = {p: dict(r) for p, r in basis.pivots.items()}
    rref = basis.rref()
    assert len(rref) == 4
    for row in rref:
        for c in row:
            row[c] = 99
        row[7] = 1
    assert basis.pivots == before
    assert basis.rref() == _echelon_py.echelon_rows(before.values())
