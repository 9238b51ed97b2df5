import random
from fractions import Fraction

import pytest

from quadop import boqd
from quadop.boqd import (
    BOQDData,
    S2Module,
    _diagonal_cols,
    _pair_image_rows,
    boqd_dual,
    boqd_product,
    com_data,
    make_boqd,
    trivial_module,
)
from quadop.exactlin import LinearMap, Subspace, compose_cols
from quadop.graded import GradedSpace
from quadop.kernel import echelon_rows
from quadop.qd import (inj14_map, interchange_holds, make_qd, pr14_map,
                       square_apply_rows)
from quadop.rand import random_boqd, random_s2module, s3_closure_rows
from quadop.report import VerificationReport
from quadop.suites import suite_boqd_coherence


def sign_module(space):
    return S2Module(
        space, LinearMap(space, space, [{i: -1} for i in range(space.dim)])
    )


def zero_boqd():
    return make_boqd(trivial_module(GradedSpace((), ())), [])


# the interchange laws of the data as (box, dia, lax), and the pairs of
# products that the dual exchanges
PHI = ("black", "ucirc", True)
PSI = ("white", "circ", False)
DUAL_PAIRS = (("vee", "oplus"), ("tril", "trir"), ("ucirc", "circ"),
              ("black", "white"))


def _holds(law, data, product=boqd_product):
    return interchange_holds(product, *law, data,
                             [m.generators.space for m in data])


def _involutions_hold(a, b):
    return all(boqd_dual(boqd_product(p, a, b))
               == boqd_product(q, boqd_dual(a), boqd_dual(b))
               for p, q in DUAL_PAIRS)


def _group_words(sp):
    """The six elements of S3 acting on tau rows, as words in (12), (123)."""
    s, r = sp.swap, sp.rotate
    return (lambda x: x, s, r, lambda x: r(r(x)), lambda x: s(r(x)),
            lambda x: r(s(x)))


def test_action_identities_trivial_generator():
    sp = com_data().space
    t = lambda i: {sp.index(i, 0, 0): 1}
    assert sp.swap(t(1)) == t(1)
    assert sp.swap(t(2)) == t(3)
    assert sp.swap(t(3)) == t(2)
    assert sp.rotate(t(1)) == t(2)
    assert sp.rotate(t(2)) == t(3)
    assert sp.rotate(t(3)) == t(1)


def test_action_identities_anti_invariant():
    # (12) applies u to the second slot: -1 on the sign module, and the
    # exchange of x and y on a module that swaps them
    anti = sign_module(GradedSpace(("z",), (0,)))
    sp = anti.arity3
    t = lambda i: {sp.index(i, 0, 0): 1}
    assert sp.swap(t(1)) == {sp.index(1, 0, 0): -1}
    assert sp.swap(t(2)) == {sp.index(3, 0, 0): -1}
    assert sp.swap(t(3)) == {sp.index(2, 0, 0): -1}
    assert sp.rotate(t(1)) == t(2)
    assert sp.rotate(t(3)) == t(1)
    v = GradedSpace(("x", "y"), (0, 0))
    sp = S2Module(v, LinearMap(v, v, [{1: 1}, {0: 1}])).arity3
    assert sp.swap({sp.index(1, 0, 0): 1}) == {sp.index(1, 0, 1): 1}
    assert sp.swap({sp.index(2, 1, 0): 1}) == {sp.index(3, 1, 1): 1}
    assert sp.swap({sp.index(3, 0, 1): 1}) == {sp.index(2, 0, 0): 1}
    assert sp.rotate({sp.index(2, 0, 1): 1}) == {sp.index(3, 0, 1): 1}


def test_action_is_group_action():
    rng = random.Random(2)
    for _ in range(6):
        mod = random_s2module(rng, "m")
        sp = mod.arity3
        s, r = sp.swap, sp.rotate
        for c in range(sp.dim):
            row = {c: 1}
            assert s(s(row)) == row
            assert r(r(r(row))) == row
            assert s(r(s(row))) == r(r(row))


def test_involution_required():
    v = GradedSpace(("x", "y"), (0, 0))
    bad = LinearMap(v, v, [{0: 1, 1: 1}, {1: 1}])
    with pytest.raises(ValueError):
        S2Module(v, bad)
    # an involution that swaps generators of different degrees would send
    # tau_1(x,x), of degree 0, to tau_1(x,y), of degree 1
    mixed = GradedSpace(("x", "y"), (0, 1))
    swap = LinearMap(mixed, mixed, [{1: 1}, {0: 1}])
    with pytest.raises(ValueError, match="keep degrees"):
        S2Module(mixed, swap)


def test_com_dual_is_jacobi_span():
    com = com_data()
    lie = boqd_dual(com)
    assert lie.rdim == 1
    sp = lie.space
    jac = {sp.index(i, 0, 0): Fraction(1) for i in (1, 2, 3)}
    assert lie.relations.rows[0] == jac
    back = boqd_dual(lie)
    assert back.relations == com.relations


def test_pairing_sign_vector_regression():
    # the tau-diagonal pairing uses signs (+1, +1, +1): the dual of the span
    # of tau_1 - tau_2 and tau_2 - tau_3 must be the all-plus sum, and the
    # dual of a full/zero space flips to zero/full
    com = com_data()
    assert boqd_dual(com).relations.rows[0] == {
        com.space.index(1, 0, 0): Fraction(1),
        com.space.index(2, 0, 0): Fraction(1),
        com.space.index(3, 0, 0): Fraction(1),
    }
    full = make_boqd(trivial_module(GradedSpace(("x",), (0,))), [{i: 1} for i in range(3)])
    assert boqd_dual(full).rdim == 0
    empty = make_boqd(trivial_module(GradedSpace(("x",), (0,))), [])
    assert boqd_dual(empty).rdim == 3


def test_products_dims():
    com, com2 = com_data("c"), com_data("d")
    assert boqd_product("vee", com, com2).rdim == 4
    assert boqd_product("ucirc", com, com2).rdim == 7  # 2 + 3 + 2
    assert boqd_product("oplus", com, com2).rdim == 10  # 2 + 6 mixed + 2
    z1 = make_boqd(trivial_module(GradedSpace(("x",), (0,))), [])
    z2 = make_boqd(trivial_module(GradedSpace(("y",), (0,))), [])
    assert boqd_product("black", z1, z2).rdim == 0
    full1 = make_boqd(trivial_module(GradedSpace(("x",), (0,))), [{i: 1} for i in range(3)])
    full2 = make_boqd(trivial_module(GradedSpace(("y",), (0,))), [{i: 1} for i in range(3)])
    assert boqd_product("black", full1, full2).rdim == 3
    assert boqd_product("white", full1, full2).rdim == 3


def test_bracket_span_of_invariant_pairs():
    # {A1, B1} for two invariant one-dimensional generators is spanned by
    # the three symmetric sums
    com, com2 = com_data("c"), com_data("d")
    z1 = make_boqd(com.generators, [])
    z2 = make_boqd(com2.generators, [])
    u = boqd_product("ucirc", z1, z2)
    assert u.rdim == 3


def test_involutions_random():
    rng = random.Random(8)
    for _ in range(20):
        a = random_boqd(rng, "a")
        b = random_boqd(rng, "b")
        assert _involutions_hold(a, b)
        dd = boqd_dual(boqd_dual(a))
        assert dd.relations == a.relations


def test_interchange_and_quintuples():
    rng = random.Random(15)
    for _ in range(8):
        args = [random_boqd(rng, p) for p in ("a", "a'", "b", "b'")]
        assert _holds(PHI, args) and _holds(PSI, args)
    args = [random_boqd(rng, p, max_dim=1) for p in ("a", "a'", "b", "b'")]
    for box in ("black", "white"):
        for dia in ("vee", "oplus", "tril", "trir"):
            for lax in (True, False):
                assert _holds((box, dia, lax), args)


def test_interchange_holds_in_its_own_direction_only():
    # phi is lax and psi colax: on this draw each fails the other way, so a
    # verdict that always holds, or pr14 and inj14 swapped, fails here
    rng = random.Random(0)
    args = [random_boqd(rng, p) for p in ("a", "a'", "b", "b'")]
    for box, dia, lax in (PHI, PSI):
        assert _holds((box, dia, lax), args)
        assert not _holds((box, dia, not lax), args)


def test_cached_products_and_duals_equal_fresh_builds(monkeypatch):
    # every product and dual the suite was handed, hit or miss, must still
    # equal a fresh uncached build after the suite: so the cache changes no
    # result, and no caller mutated a shared relation row
    handed = {}
    caches = (boqd.boqd_product, boqd.boqd_dual)
    for cached in caches:
        cached.cache_clear()

        def record(*args, cached=cached):
            out = cached(*args)
            handed[id(out)] = (cached.__wrapped__, args, out)
            return out
        monkeypatch.setattr(boqd, cached.__name__, record)
    assert suite_boqd_coherence(trials=4).ok
    assert all(cached.cache_info().hits for cached in caches)
    for build, args, out in handed.values():
        assert build(*args) == out, args[:1]


def test_product_is_built_once_and_names_are_lower_case():
    a, b = com_data("a"), com_data("b")
    boqd_product.cache_clear()
    black = boqd_product("black", a, b)
    assert boqd_product("black", a, b) is black
    info = boqd_product.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert info.maxsize is not None and boqd.boqd_dual.cache_info().maxsize
    for name in ("BLACK", "Vee", "star"):
        with pytest.raises(ValueError):
            boqd_product(name, a, b)


def test_product_cache_keys_factors_by_value():
    # the cache hits on factors that are equal but built afresh, so the
    # data hash and compare by value
    boqd_product.cache_clear()
    black = boqd_product("black", com_data("a"), com_data("b"))
    assert boqd_product("black", com_data("a"), com_data("b")) is black
    assert boqd_product.cache_info().hits == 1


def test_value_classes_compare_by_their_fields_and_type():
    # each value class is equal to a separate build of itself, and hashes
    # equal to it where it hashes; against a tuple of its own fields, ==
    # and != answer without raising, since both sides return NotImplemented
    def builds():
        space = GradedSpace(("x", "y"), (0, 1))
        q = make_qd("plain", space, [{1: 1}])
        module = S2Module(space, LinearMap.identity(space))
        data = make_boqd(module, [])
        report = VerificationReport("qd-coherence", 7)
        return [
            (space, (space.labels, space.degrees, space.odds)),
            (q, (q.flavor, q.generators, q.relations)),
            (module, (module.space, module.action)),
            (data, (data.generators, data.relations)),
            (report, (report.suite, report.seed, report.cases,
                      report.runtime_ms)),
        ]
    for (value, fields), (again, _) in zip(builds(), builds()):
        assert value is not again and value == again
        assert not value != again
        assert not value == fields and value != fields
        assert not fields == value and fields != value
        if isinstance(value, VerificationReport):
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == hash(again)


def psi_rows(a, b, rows_a, rows_b):
    """Pairs of arity-3 rows of a and b pushed through the tree duplication,
    as the black product builds them."""
    return _pair_image_rows(_diagonal_cols(a, b), b.space.dim, rows_a, rows_b)


def test_psi_equivariance_and_offdiagonal_vanishing():
    rng = random.Random(19)
    a = random_boqd(rng, "a")
    b = random_boqd(rng, "b")
    spa, spb = a.space, b.space
    from quadop.boqd import _module_tensor

    spab = _module_tensor(a, b).arity3
    for ga, gb, gab in zip(_group_words(spa), _group_words(spb),
                           _group_words(spab)):
        for _ in range(6):
            ca = rng.randrange(spa.ambient.dim)
            cb = rng.randrange(spb.ambient.dim)
            lhs = psi_rows(a, b, [ga({ca: 1})], [gb({cb: 1})])[0]
            rhs = gab(psi_rows(a, b, [{ca: 1}], [{cb: 1}])[0])
            assert lhs == rhs
    # off-diagonal tau indices vanish under the pairing map
    da = a.gdim
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            ra = {spa.index(i + 1, 0, 0): 1}
            rb = {spb.index(j + 1, 0, 0): 1}
            assert psi_rows(a, b, [ra], [rb]) == [{}]


def test_psi_koszul_sign_on_mixed_degrees():
    # the black and white products both read this sign, and their laws hold
    # with or without it, so it is pinned here: with |x| = 0, |x'| = |y| = 1,
    # tau_1(x,x') (x) tau_1(y,y) carries (-1)^{|x'||y| + |x||y|} = -1 and
    # tau_1(x',x') (x) tau_1(y,y) carries +1
    a = make_boqd(trivial_module(GradedSpace(("x", "x'"), (0, 1))), [])
    b = make_boqd(trivial_module(GradedSpace(("y",), (1,))), [])
    spa, spb = a.space, b.space
    rows = psi_rows(a, b, [{spa.index(1, 0, 1): 1}, {spa.index(1, 1, 1): 1}],
                    [{spb.index(1, 0, 0): 1}])
    spab = boqd_product("black", a, b).space
    assert rows == [{spab.index(1, 0, 1): -1}, {spab.index(1, 1, 1): 1}]


def _rows_led_past(rows, past):
    """The RREF rows of span(rows) led at or past column past, shifted down
    by past: a RREF row's lead is its smallest column, so they span the
    meet of span(rows) with the coordinate subspace of the columns from
    past on."""
    return [{c - past: v for c, v in row.items()}
            for row in echelon_rows(rows) if min(row) >= past]


def _mixed_row_preimage(a, b):
    """The white relations as the preimage of the mixed rows: every row of
    R_A (x) T_B(3) + T_A(3) (x) R_B, each diagonal column moved past all
    columns of T_A(3) (x) T_B(3) to its signed product column, then the
    rows led past them."""
    dim_a3, dim_b3 = a.space.dim, b.space.dim
    past = dim_a3 * dim_b3
    moved = {c: (past + col, sign)
             for c, (col, sign) in _diagonal_cols(a, b).items()}
    mixed = [{ca * dim_b3 + cb: v for ca, v in r.items()}
             for r in a.relations.rows for cb in range(dim_b3)]
    mixed += [{ca * dim_b3 + cb: v for cb, v in r.items()}
              for ca in range(dim_a3) for r in b.relations.rows]
    placed = []
    for row in mixed:
        out = {}
        for c, v in row.items():
            col, sign = moved.get(c, (c, 1))
            out[col] = sign * v
        placed.append(out)
    return _rows_led_past(placed, past)


def test_white_rows_are_the_mixed_row_preimage():
    # the white product reads its relations off the quotient by R_A and R_B;
    # the oracle eliminates every mixed row instead.  The circ products are
    # the interchange-sized operands, with up to four generators
    rng = random.Random(41)
    pairs = [(random_boqd(rng, "a"), random_boqd(rng, "b")) for _ in range(265)]
    for _ in range(8):
        a = boqd_product("circ", random_boqd(rng, "a"), random_boqd(rng, "a'"))
        b = boqd_product("circ", random_boqd(rng, "b"), random_boqd(rng, "b'"))
        pairs += [(a, b), (a, random_boqd(rng, "c")),
                  (random_boqd(rng, "c"), b)]
    for _ in range(3):
        mod = random_s2module(rng, "e")
        empty = make_boqd(mod, [])
        full = make_boqd(mod, [{c: 1} for c in range(mod.arity3.dim)])
        other = random_boqd(rng, "f")
        pairs += [(empty, other), (other, full), (full, empty),
                  (zero_boqd(), other), (other, zero_boqd())]
    odd = non_unit = False
    for a, b in pairs:
        for m in (a, b):
            odd = odd or any(d % 2 for d in m.generators.space.degrees)
            non_unit = non_unit or any(
                r[next(iter(r))] != 1 for r in m.relations.rows)
        white = boqd_product("white", a, b)
        oracle = Subspace(white.space.ambient, _mixed_row_preimage(a, b))
        assert white.relations == oracle
        # stored column-sorted, as the elimination stores them
        assert [list(r.items()) for r in white.relations.rows] == \
            [list(r.items()) for r in oracle.rows]
    assert len(pairs) >= 300 and odd and non_unit


def test_closure_check_rejects_open_relations():
    # tau_1(x,x) alone is not closed: (123) sends it to tau_2(x,x)
    mod = trivial_module(GradedSpace(("x",), (0,)))
    with pytest.raises(ValueError, match="not closed"):
        make_boqd(mod, [{mod.arity3.index(1, 0, 0): 1}])


def test_closure_check_rejects_relations_open_under_the_swap_alone():
    # x and y swapped by u: the sum of tau_i(x, x) is fixed by (123), but
    # (12) sends tau_1(x, x) to tau_1(x, y)
    v = GradedSpace(("x", "y"), (0, 0))
    mod = S2Module(v, LinearMap(v, v, [{1: 1}, {0: 1}]))
    sp = mod.arity3
    row = {sp.index(i, 0, 0): 1 for i in (1, 2, 3)}
    assert sp.rotate(row) == row and sp.swap(row) != row
    with pytest.raises(ValueError, match="not closed"):
        make_boqd(mod, [row])
    with pytest.raises(ValueError, match="not closed"):
        BOQDData(mod, Subspace.from_rref(sp.ambient, [row]))


def test_closure_check_rejects_a_closed_datum_less_one_row():
    # the check raises exactly when the rows left span no closed space
    rng = random.Random(53)
    raised = 0
    for _ in range(30):
        a = random_boqd(rng, "a")
        rows = a.relations.rows
        for k in range(len(rows)):
            rest = rows[:k] + rows[k + 1:]
            closed = len(s3_closure_rows(a.generators, rest)) == len(rest)
            for build in (lambda: make_boqd(a.generators, rest),
                          lambda: BOQDData(a.generators, Subspace.from_rref(
                              a.space.ambient, rest))):
                if closed:
                    build()
                else:
                    with pytest.raises(ValueError, match="not closed"):
                        build()
            raised += not closed
    assert raised >= 10


def _as_built(sub):
    """The stored rows with their item order, which the hashes read."""
    return [list(r.items()) for r in sub.rows]


def test_data_stored_as_built_equal_a_fresh_elimination():
    # vee, oplus, tril, trir and white, and random data, store their rows
    # with no elimination; each must be the canonical RREF, row order and
    # item order included
    rng = random.Random(59)
    data = [random_boqd(rng, p) for p in "ab" * 400]
    for m in data:
        closure = [g(r) for g in _group_words(m.space) for r in m.relations.rows]
        fresh = Subspace(m.space.ambient, closure)
        assert _as_built(m.relations) == _as_built(fresh)
    pairs = list(zip(data[::2], data[1::2]))
    for _ in range(4):
        mod = random_s2module(rng, "e")
        empty = make_boqd(mod, [])
        full = make_boqd(mod, [{c: 1} for c in range(mod.arity3.dim)])
        other = random_boqd(rng, "f")
        # pairs of two degenerate factors on one module and on two
        gmod = random_s2module(rng, "g")
        empty_g = make_boqd(gmod, [])
        full_g = make_boqd(gmod, [{c: 1} for c in range(gmod.arity3.dim)])
        pairs += [(empty, other), (other, full), (full, empty_g),
                  (empty, full_g), (full, full_g), (zero_boqd(), other),
                  (other, zero_boqd()), (full, empty)]
    odd = swapped = non_unit = False
    built = 0
    for a, b in pairs:
        for m in (a, b):
            odd = odd or any(d % 2 for d in m.generators.space.degrees)
            swapped = swapped or any(
                list(col) != [i] for i, col in enumerate(m.generators.action.cols))
            non_unit = non_unit or any(
                r[next(iter(r))] != 1 for r in m.relations.rows)
        for name in ("vee", "oplus", "tril", "trir", "white"):
            p = boqd_product.__wrapped__(name, a, b)
            fresh = Subspace(p.space.ambient, p.relations.rows)
            assert _as_built(p.relations) == _as_built(fresh), name
            built += 1
    assert built >= 2000 and odd and swapped and non_unit


def test_product_relations_are_closed():
    # the products take no closure, so each must span its own S3 closure;
    # max_dim 2 brings in odd degrees and involutions that swap a pair
    rng = random.Random(33)
    odd = swapped = False
    for _ in range(30):
        a = random_boqd(rng, "a", 2)
        b = random_boqd(rng, "b", 2)
        for m in (a.generators, b.generators):
            odd = odd or any(d % 2 for d in m.space.degrees)
            swapped = swapped or any(
                list(col) != [i] for i, col in enumerate(m.action.cols))
        for name in ("black", "white", "vee", "oplus", "tril", "trir", "ucirc", "circ"):
            p = boqd_product(name, a, b)
            closed = s3_closure_rows(p.generators, p.relations.rows)
            assert p.relations == Subspace(p.space.ambient, closed), name
    assert odd and swapped


def test_degenerate_interchange_and_zero_involutions():
    z = zero_boqd()
    a, b = com_data("a"), com_data("b")
    assert _holds(PHI, (a, z, b, zero_boqd()))
    assert _involutions_hold(z, zero_boqd())


def _arity3_lift(f, src_mod, tgt_mod):
    """T(f)(3) column by column: tau_i(x, x') -> tau_i(f x, f x')."""
    src, tgt = src_mod.arity3, tgt_mod.arity3
    d = src_mod.dim
    cols = [
        tgt.tau_row(i, f.cols[x], f.cols[xp])
        for i in (1, 2, 3) for x in range(d) for xp in range(d)
    ]
    return LinearMap(src.ambient, tgt.ambient, cols)


def _assert_square_apply_is_lift(rng, f, src_mod, tgt_mod):
    lift = _arity3_lift(f, src_mod, tgt_mod)
    n = src_mod.arity3.dim
    rows = [{c: 1} for c in range(n)]
    rows += [
        {rng.randrange(n): rng.randint(-2, 2) for _ in range(3)} for _ in range(6)
    ]
    got = square_apply_rows(f, rows)
    assert got == compose_cols(lift.cols, rows)


def test_square_apply_rows_on_arity3_rows_is_the_lift():
    rng = random.Random(23)
    for _ in range(12):
        ms = random_s2module(rng, "s", max_dim=3)
        mt = random_s2module(rng, "t", max_dim=3)
        cols = [
            {r: v for r in range(mt.dim) if (v := rng.randint(-2, 2))}
            for _ in range(ms.dim)
        ]
        f = LinearMap(ms.space, mt.space, cols)
        _assert_square_apply_is_lift(rng, f, ms, mt)
    for _ in range(4):
        a, ap, b, bp = (random_boqd(rng, p) for p in ("a", "a'", "b", "b'"))
        spaces = [m.generators.space for m in (a, ap, b, bp)]
        whole = boqd_product("black", boqd_product("ucirc", a, ap),
                             boqd_product("ucirc", b, bp)).generators
        blocks = boqd_product("ucirc", boqd_product("black", a, b),
                              boqd_product("black", ap, bp)).generators
        _assert_square_apply_is_lift(rng, pr14_map(*spaces), whole, blocks)
        _assert_square_apply_is_lift(rng, inj14_map(*spaces), blocks, whole)
