"""Weight dimensions of the realisations of quadratic data.

The associative realisation is the tensor algebra modulo the two-sided ideal
on R, the cofree side is the intersection of the shifted relation slices, the
commutative realisation works directly in the signed symmetric-power monomial
basis, and the Lie realisation counts a (super-)Lyndon basis and subtracts the
ranks of the ideal slices, built in the tensor ambient.  Each component is
answered by its dimension alone, from weight-by-weight exact linear algebra;
no representatives are kept.  The
column index of a tensor word is its base-n value, so no labels are
materialised in the hot loops.
"""

from functools import lru_cache

from .exactlin import intersect_rows
from .kernel import EchelonBasis, int_row
from .qd import FunctorName, QDFlavor, apply_functor
from .graded import ArityError
from .report import Report


REALIZATIONS = ("A", "S", "Tc", "Sc", "L")


# ---------------------------------------------------------------------------
# tensor side


def _last_slice_rows(rel_rows, n, w):
    """Spanning rows of V^(w-2) (x) R, base-n coded: the column of
    u (x) (p,q) is u*n^2 + p*n + q."""
    return [{u * n * n + c: v for c, v in row.items()}
            for u in range(n ** (w - 2)) for row in rel_rows]


def _times_v(rows, n):
    """Rows of S (x) V from rows of S, base-n coded: the column of c (x) v is
    c*n + v.  A row led at p gives rows led at p*n + v, so echelon rows stay
    echelon and RREF rows stay RREF."""
    return [{c * n + v: x for c, x in row.items()}
            for row in rows for v in range(n)]


def tensor_quotient_dim(rel_rows, n, w):
    """dim of weight w of T(V)/(R): words minus the rank of the ideal I_w,
    built as I_1 = 0 and I_u = I_{u-1} (x) V + V^(u-2) (x) R.  The pivot
    rows of I_{u-1}, times V, stay in echelon form and seed I_u as they are,
    so only the last slice is eliminated."""
    basis = EchelonBasis()
    for u in range(2, w + 1):
        seed = EchelonBasis.from_echelon_rows(_times_v(basis.pivot_rows(), n))
        basis = seed.add_many(_last_slice_rows(rel_rows, n, u))
    return n ** w - basis.rank


def tensor_cofree_rows(rel_rows, n, w):
    """RREF rows of the weight-w component of the cofree side: the
    intersection of all slices V^i (x) R (x) V^j, built as C_1 = V and
    C_u = (C_{u-1} (x) V) & (V^(u-2) (x) R)."""
    acc = [{i: 1} for i in range(n)] if w else [{0: 1}]
    for u in range(2, w + 1):
        if not acc:
            return []
        acc = intersect_rows(
            _times_v(acc, n), _last_slice_rows(rel_rows, n, u), n ** u
        )
    return acc


# ---------------------------------------------------------------------------
# symmetric side


def _sym_monomials(degrees, w):
    """Signed symmetric-power basis: multisets with odd letters squarefree."""
    n = len(degrees)
    out = []

    def rec(start, left, acc):
        if left == 0:
            out.append(tuple(acc))
            return
        for i in range(start, n):
            if degrees[i] % 2:
                rec(i + 1, left - 1, acc + [i])
            else:
                for k in range(1, left + 1):
                    rec(i + 1, left - k, acc + [i] * k)

    rec(0, w, [])
    return sorted(out)


def _sort_mono(letters, degrees):
    """Canonical form of a formal symmetric product: (sign, sorted tuple) or
    (0, None) when an odd letter repeats."""
    sign = 1
    letters = list(letters)
    # insertion sort tracking odd-odd transpositions
    for a in range(1, len(letters)):
        b = a
        while b > 0 and letters[b - 1] > letters[b]:
            if degrees[letters[b - 1]] % 2 and degrees[letters[b]] % 2:
                sign = -sign
            letters[b - 1], letters[b] = letters[b], letters[b - 1]
            b -= 1
    for a in range(1, len(letters)):
        if letters[a] == letters[a - 1] and degrees[letters[a]] % 2:
            return 0, None
    return sign, tuple(letters)


def _project_rel_to_sym(rel_rows, degrees):
    """Image of tensor-square relation rows under V(x)V -> S^2(V)."""
    n = len(degrees)
    out = []
    for row in rel_rows:
        acc = {}
        for col, v in row.items():
            i, j = divmod(col, n)
            sign, mono = _sort_mono((i, j), degrees)
            if not sign:
                continue
            w = acc.get(mono, 0) + sign * v
            if w:
                acc[mono] = w
            elif mono in acc:
                del acc[mono]
        if acc:
            out.append(acc)
    return out


def sym_quotient_dim(rel_rows, degrees, w):
    """dim of weight w of S(V)/(R) in the signed monomial basis.

    The ideal rows m * r, for m a monomial of weight w - 2 and r a projected
    relation, are folded one at a time.  Columns number the monomials in
    reverse lex order, so a row's pivot is its lex-largest monomial; the
    rank is the same in any order, but this one leaves less fill-in (on the
    Gerstenhaber component n = 6, weight 6, 11,011 stored nonzeros against
    14,979 in lex order).

    A product m * s is not re-sorted.  It vanishes when an odd letter of s
    already occurs in m.  Otherwise its sign counts the odd-odd
    transpositions of the sort: for each odd letter x of s, the odd letters
    of m above x (s is sorted, so its own letters stay in order).  Sets of
    letters are bitmasks; per m, `flip` holds the letters with an odd number
    of odd letters of m above them.
    """
    if w == 0:
        return 1
    if w == 1:
        return len(degrees)
    odd = [d % 2 for d in degrees]
    monos = _sym_monomials(degrees, w)
    top = len(monos) - 1
    index = {m: top - k for k, m in enumerate(monos)}
    rel_sym = [
        [(s, sum(1 << x for x in s if odd[x]), v) for s, v in row.items()]
        for row in _project_rel_to_sym(rel_rows, degrees)
    ]
    basis = EchelonBasis()
    for m in _sym_monomials(degrees, w - 2):
        odd_m = flip = 0
        for y in m:
            if odd[y]:
                odd_m |= 1 << y
                flip ^= (1 << y) - 1
        for row in rel_sym:
            # distinct s give distinct products m * s, so nothing collides
            acc = {}
            for s, odd_s, v in row:
                if not odd_s & odd_m:
                    col = index[tuple(sorted(m + s))]
                    acc[col] = -v if (odd_s & flip).bit_count() & 1 else v
            if acc:
                basis.add(acc)
    return len(monos) - basis.rank


# ---------------------------------------------------------------------------
# Lie side: (super-)Lyndon counts and ideal slices


def _lyndon_words(n, w):
    """Duval's generator of Lyndon words of length w over 0..n-1."""
    out = []
    word = [-1] if n else []
    while word:
        word[-1] += 1
        m = len(word)
        if m == w:
            out.append(tuple(word))
        while len(word) < w:
            word.append(word[-m])
        while word and word[-1] == n - 1:
            word.pop()
    return out


def free_lie_dims_by_parity(degrees, w):
    """(even dim, odd dim) of weight w of the free Lie superalgebra: the
    Lyndon words by degree parity, plus the even square [x, x] of each odd
    Lyndon word x of length w/2."""
    n = len(degrees)
    dims = [0, 0]
    for word in _lyndon_words(n, w):
        dims[sum(degrees[g] for g in word) % 2] += 1
    if w % 2 == 0:
        for word in _lyndon_words(n, w // 2):
            dims[0] += sum(degrees[g] for g in word) % 2
    return tuple(dims)


def lie_dims_by_parity(rel_rows, degrees, wmax):
    """{w: (even dim, odd dim)} of L(V,R) for w = 1..wmax.

    The ideal slices are I_2 = R and I_u = [V, I_{u-1}], each built once and
    kept per degree parity.  The bracket [g, s] = g(x)s - (-1)^{|g||s|} s(x)g
    of a generator and a weight-(u-1) row puts g(x)c at column g*n^(u-1) + c
    and c(x)g at c*n + g.  Every count is a rank: the relation rows are RREF,
    and a bracket row is kept only when it raises the rank.
    """
    n = len(degrees)
    ideal = ([], [])
    out = {}
    for w in range(1, wmax + 1):
        if w == 2:
            for r in rel_rows:
                degs = {degrees[c // n] + degrees[c % n] for c in r}
                if len(degs) != 1:
                    raise ValueError("non-homogeneous row in a graded computation")
                ideal[degs.pop() % 2].append(r)
        elif w > 2:
            basis = EchelonBasis()
            top = n ** (w - 1)
            slices = ([], [])
            for p, rows in enumerate(ideal):
                for s in rows:
                    for g in range(n):
                        sign = -1 if p and degrees[g] % 2 else 1
                        row = {g * top + c: v for c, v in s.items()}
                        for c, v in s.items():
                            k = c * n + g
                            x = row.get(k, 0) - sign * v
                            if x:
                                row[k] = x
                            else:
                                del row[k]
                        if row and basis.add(row):
                            slices[(p + degrees[g]) % 2].append(row)
            ideal = slices
        even, odd = free_lie_dims_by_parity(degrees, w)
        out[w] = (even - len(ideal[0]), odd - len(ideal[1]))
    return out


# ---------------------------------------------------------------------------
# public weight components


def _as_plain_for_A(q):
    if q.flavor is QDFlavor.PLAIN:
        return q
    if q.flavor is QDFlavor.SKEW:
        return apply_functor(FunctorName.LAMBDA, q)
    return apply_functor(FunctorName.SCRIPT_S, q)


def _as_plain_for_Tc(q):
    if q.flavor is QDFlavor.PLAIN:
        return q
    if q.flavor is QDFlavor.SYM:
        return apply_functor(FunctorName.SIGMA, q)
    return apply_functor(FunctorName.LAMBDA, q)


@lru_cache(maxsize=4096)
def _component_cached(realization, q, w):
    if w < 0:
        raise ArityError("weight must be non-negative")
    # the kernel clears the denominators of the rows it folds, so the
    # tensor side takes the stored relation rows as they are
    if realization == "A":
        qq = _as_plain_for_A(q)
        return tensor_quotient_dim(qq.relations.rows, qq.gdim, w)
    if realization == "Tc":
        qq = _as_plain_for_Tc(q)
        return len(tensor_cofree_rows(qq.relations.rows, qq.gdim, w))
    if realization == "S":
        if q.flavor is not QDFlavor.SYM:
            raise FlavorExpected("S realisation needs symmetric data")
        return sym_quotient_dim(
            [int_row(r) for r in q.relations.rows], q.generators.degrees, w
        )
    if realization == "Sc":
        if q.flavor is not QDFlavor.SYM:
            raise FlavorExpected("Sc realisation needs symmetric data")
        return _component_cached("S", apply_functor(FunctorName.STAR, q), w)
    if realization == "L":
        if q.flavor is not QDFlavor.SKEW:
            raise FlavorExpected("L realisation needs skew data")
        if w == 0:
            return 0
        return sum(lie_dims_by_parity(
            [int_row(r) for r in q.relations.rows], q.generators.degrees, w
        )[w])
    raise ValueError(realization)


class FlavorExpected(ValueError):
    pass


def weight_component(realization, q, w):
    return _component_cached(realization, q, w)


def hilbert_series(realization, q, wmax):
    """[dim at weight 0, ..., dim at weight wmax]."""
    return [weight_component(realization, q, w) for w in range(wmax + 1)]


# ---------------------------------------------------------------------------
# PBW comparison and the Koszul-Euler diagnostic


def _poly_mul(a, b, cap):
    out = [0] * (cap + 1)
    for i, x in enumerate(a):
        if i > cap or not x:
            continue
        for j, y in enumerate(b):
            if i + j > cap:
                break
            out[i + j] += x * y
    return out


def pbw_series(by_parity, wmax):
    """Weight series of the enveloping algebra from Lie dims split by parity:
    prod_w (1+t^w)^{odd_w} / (1-t^w)^{even_w}."""
    out = [0] * (wmax + 1)
    out[0] = 1
    for w, (ev, od) in by_parity.items():
        for _ in range(od):
            factor = [0] * (wmax + 1)
            factor[0] = 1
            if w <= wmax:
                factor[w] = 1
            out = _poly_mul(out, factor, wmax)
        for _ in range(ev):
            # 1/(1-t^w) = 1 + t^w + t^{2w} + ...
            geo = [1 if (k % w == 0) else 0 for k in range(wmax + 1)]
            out = _poly_mul(out, geo, wmax)
    return out


def ue_compare(q, wmax):
    """PBW check: weight dims of A(Lambda(q)) against the enveloping-algebra
    prediction from the Lie dims of L(q)."""
    if q.flavor is not QDFlavor.SKEW:
        raise FlavorExpected("ue_compare needs skew data")
    by_parity = lie_dims_by_parity(
        [int_row(r) for r in q.relations.rows], q.generators.degrees, wmax
    )
    predicted = pbw_series(by_parity, wmax)
    actual = hilbert_series("A", q, wmax)
    ok = actual == predicted
    return Report(
        "ue_compare",
        ok,
        details="A(Lambda(q))=%s PBW=%s" % (actual, predicted),
    )


def koszul_euler_check(q, wmax):
    """Numerical Koszulity diagnostic: the product of the weight series of
    the realisation of q and of its second Koszul dual at -t must be 1 up to
    the cap; reported as PASS when it is, INFO otherwise."""
    bang = apply_functor(FunctorName.SHRIEK, q)
    if q.flavor is QDFlavor.SKEW:
        h1 = hilbert_series("A", q, wmax)
        h2 = hilbert_series("S", bang, wmax)
    elif q.flavor is QDFlavor.SYM:
        h1 = hilbert_series("S", q, wmax)
        h2 = hilbert_series("A", bang, wmax)
    else:
        h1 = hilbert_series("A", q, wmax)
        h2 = hilbert_series("A", bang, wmax)
    signed = [(-1) ** w * d for w, d in enumerate(h2)]
    prod = _poly_mul(h1, signed, wmax)
    ok = prod[0] == 1 and all(x == 0 for x in prod[1:])
    return Report(
        "koszul_euler",
        True,
        details="h(t)*h^!(-t) coefficients %s" % prod,
        status="PASS" if ok else "INFO",
    )

