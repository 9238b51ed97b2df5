import random
from fractions import Fraction
from math import comb

import pytest

from quadop.exactlin import LinearMap, Subspace, compose_cols
from quadop.graded import (
    GradedSpace,
    braiding_map,
    direct_sum,
    dual,
    in_signed_square,
    mixed_bracket,
    shift,
    shift_square_map,
    signed_square,
    signed_square_dim,
    square,
    tensor_product,
)


def test_tensor_product_degrees_and_dims():
    V = GradedSpace(("x", "y"), (0, 1))
    W = tensor_product(V, V)
    assert W.dim == 4
    assert W.labels == ("x⊗x", "x⊗y", "y⊗x", "y⊗y")
    assert W.degrees == (0, 1, 1, 2)
    assert W.odds == (0, 1, 1, 2)
    assert shift(W).odds == (1, 0, 0, 1)
    assert tensor_product(V, GradedSpace((), ())).dim == 0


def test_graded_space_validation():
    assert GradedSpace(("x", "y"), (1, 2), (3, 0)).odds == (3, 0)
    with pytest.raises(ValueError):
        GradedSpace(("x",), (1,), (0,))  # odd degree, even odd-letter count
    with pytest.raises(ValueError):
        GradedSpace(("x", "y"), (0,))
    # labels name basis vectors and may repeat; a space is its positions
    twice = GradedSpace(("x", "x"), (0, 1))
    assert twice.dim == 2 and twice != GradedSpace(("x", "x"), (1, 0))
    assert twice == GradedSpace(("x", "x"), (0, 1))


def test_shift_round_trip_with_square_maps():
    V = GradedSpace(("x", "y", "z"), (0, 1, 3))
    sV = shift(V, 1)
    assert sV.degrees == (1, 2, 4)
    assert shift(sV, -1) == V
    up = shift_square_map(V, 1)
    down = shift_square_map(sV, -1)
    assert down.compose(up) == LinearMap.identity(square(V))
    assert up.compose(down) == LinearMap.identity(square(sV))


def test_shift_sign_rule():
    # square map sends x(x)y to +(sx)(x)(sy) for even x and to - for odd x
    V = GradedSpace(("x", "z"), (0, 1))
    m = shift_square_map(V, 1)
    assert m.cols[0 * 2 + 1] == {0 * 2 + 1: Fraction(1)}
    assert m.cols[1 * 2 + 0] == {1 * 2 + 0: Fraction(-1)}


def test_dual_degrees_and_double_dual():
    V = GradedSpace(("x", "y"), (0, 1))
    dV = dual(V)
    assert dV.labels == ("x*", "y*") and dV.degrees == (0, -1)
    assert dV.odds == V.odds
    assert dual(dV) == V


def test_signed_square_dims():
    for a, b in ((1, 0), (0, 1), (2, 1), (2, 2), (3, 1)):
        V = GradedSpace(
            tuple("e%d" % i for i in range(a)) + tuple("o%d" % i for i in range(b)),
            (0,) * a + (1,) * b,
        )
        sym, alt = signed_square(V, 1), signed_square(V, -1)
        assert sym.dim == comb(a + 1, 2) + a * b + comb(b, 2)
        assert alt.dim == comb(a, 2) + a * b + comb(b + 1, 2)
        both = Subspace(square(V), list(sym.rows) + list(alt.rows))
        assert both.dim == (a + b) ** 2 == sym.dim + alt.dim


def test_one_dim_squares():
    even = GradedSpace(("x",), (0,))
    assert signed_square(even, 1).dim == 1 and signed_square(even, -1).dim == 0
    odd = GradedSpace(("z",), (1,))
    assert signed_square(odd, 1).dim == 0 and signed_square(odd, -1).dim == 1


def test_shift_exchanges_squares():
    V = GradedSpace.from_labels(["a", "b", "c"])
    m = shift_square_map(V, 1)
    for sign in (1, -1):
        img = Subspace(m.target, compose_cols(m.cols, signed_square(V, -sign).rows))
        assert img == signed_square(shift(V, 1), sign)


def test_braiding_squares_to_identity():
    V = GradedSpace(("x", "y"), (0, 1))
    W = GradedSpace(("u", "v"), (1, 2))
    b1 = braiding_map(V, W)
    b2 = braiding_map(W, V)
    assert b2.compose(b1) == LinearMap.identity(tensor_product(V, W))


def test_mixed_bracket_dims():
    V = GradedSpace(("x", "y"), (0, 1))
    W = GradedSpace(("u",), (0,))
    s = direct_sum(V, W)
    amb = square(s)
    plus = Subspace(amb, mixed_bracket(V, W, +1))
    minus = Subspace(amb, mixed_bracket(V, W, -1))
    assert plus.dim == 2
    assert minus.dim == 2
    assert Subspace(amb, list(plus.rows) + list(minus.rows)).dim == 4
    # the raw rows are already the canonical RREF
    assert tuple(mixed_bracket(V, W, +1)) == plus.rows


def test_swap_test_is_membership_in_the_signed_square():
    # random members of the signed square of random mixed-degree spaces, half
    # of them perturbed at a column whose unit vector lies outside it, so
    # that they escape; the swap test must agree with the reduction against
    # the stored rows, and the dimension formula with the stored rows
    rng = random.Random(20250808)
    escaped = 0
    for _ in range(400):
        degrees = [rng.randint(-1, 2) for _ in range(rng.randint(1, 4))]
        v = GradedSpace(tuple("x%d" % i for i in range(len(degrees))), tuple(degrees))
        sign = rng.choice((1, -1))
        full = signed_square(v, sign)
        assert signed_square_dim(v, sign) == full.dim
        row = {}
        for basis_row in full.rows:
            c = rng.choice((-2, -1, 0, 1, Fraction(1, 2), 3))
            for col, x in basis_row.items():
                row[col] = row.get(col, 0) + c * x
        row = {col: x for col, x in row.items() if x}
        if rng.random() < 0.5:
            # e_c is in the square only at a diagonal column whose pair
            # vector is not zero, which the signed square stores as {c: 1}
            outside = [c for c in range(v.dim ** 2) if {c: 1} not in full.rows]
            if outside:
                c = rng.choice(outside)
                row[c] = row.get(c, 0) + rng.choice((-1, 1, Fraction(2, 3)))
                row = {col: x for col, x in row.items() if x}
                assert not full.contains(row)
                escaped += 1
        assert in_signed_square(v, row, sign) == full.contains(row)
    assert escaped >= 150
