"""Weight dimensions of the realisations of quadratic data.

The associative realisation is the tensor algebra modulo the two-sided ideal
on R, the cofree side is the kernel of C_{u-1} (x) V onto
V^(u-2) (x) (V (x) V / R) at each weight u, the commutative realisation
works directly in the signed symmetric-power monomial basis, and the Lie
realisation counts a (super-)Lyndon basis and subtracts the ranks of the
ideal slices, built in the tensor ambient.  Each realisation of a datum is
one ladder, a generator of its weight dimensions that is climbed once and
extended on demand, keeping at most its top rung; no representatives are
kept.  From weight 4 on, A, S and L are counted instead, and the elimination
state dropped, when one exact check at weight 3 certifies the quadratic
leads of the relations as a PBW basis.  The column index of a tensor word is
its base-n value, so no labels are materialised in the hot loops.
"""

from functools import lru_cache
from itertools import chain, count, islice
from math import comb
from typing import NamedTuple

from .exactlin import nullspace_rows, perp_in_span
from .kernel import EchelonBasis, echelon_rows
from .qd import FlavorMismatch, FunctorName, QDFlavor, apply_functor
from .graded import ArityError
from .report import Report


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


def tensor_quotient_dims(rel_rows, n):
    """dims of T(V)/(R) at weights 0, 1, 2, ...: words minus the rank of the
    ideal I_w, built as I_0 = I_1 = 0 and I_u = I_{u-1} (x) V + V^(u-2) (x) R.
    The pivot rows of I_{u-1}, times V, stay in echelon form and seed I_u as
    they are, so only the last slice is eliminated; only the top rung is
    kept."""
    basis = EchelonBasis()
    for u in count():
        if u >= 2:
            seed = EchelonBasis.from_echelon_rows(_times_v(basis.pivot_rows(), n))
            basis = seed.add_many(_last_slice_rows(rel_rows, n, u))
        yield n ** u - basis.rank


def tensor_cofree_rows(rel_rows, n):
    """RREF rows of the cofree side at weights 0, 1, 2, ..., the
    intersections of all slices V^i (x) R (x) V^j: C_1 = V, C_2 = R, and
    C_u is the kernel of C_{u-1} (x) V -> V^(u-2) (x) (V (x) V / R), solved
    in the coordinates of the rows of C_{u-1} (x) V against R^perp on each
    block of n^2 columns.  rel_rows may be any rows spanning R."""
    yield from ([{0: 1}], [{i: 1} for i in range(n)])
    acc = echelon_rows(rel_rows)
    yield acc
    perp = nullspace_rows(acc, n * n)
    while True:
        acc = perp_in_span(_times_v(acc, n), perp, n * n) if acc else acc
        yield acc


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


def _reverse_lex_columns(degrees, w):
    """The signed monomials of weight w in lex order, and their columns in
    reverse lex order: a row's pivot is its lex-largest monomial."""
    monos = _sym_monomials(degrees, w)
    top = len(monos) - 1
    return monos, {m: top - k for k, m in enumerate(monos)}


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
    monos, index = _reverse_lex_columns(degrees, w)
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


def lie_dims_by_parity(rel_rows, degrees):
    """(even dim, odd dim) of L(V,R) at weights 1, 2, 3, ...

    The ideal slices are I_2 = R and I_u = [V, I_{u-1}], each built once and
    kept per degree parity.  The bracket [g, s] = g(x)s - (-1)^{|g||s|} s(x)g
    of a generator and a weight-(u-1) row puts g(x)c at column g*n^(u-1) + c
    and c(x)g at c*n + g.  Every count is a rank: the relation rows are RREF,
    and a bracket row is kept only when it raises the rank.
    """
    n = len(degrees)
    ideal = ([], [])
    for w in count(1):
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
        yield even - len(ideal[0]), odd - len(ideal[1])


# ---------------------------------------------------------------------------
# certified PBW counts
#
# A quadratic datum is PBW when the leading terms of its relations, in a
# monomial order, span the leading terms of the whole ideal.  Then the
# normal words (or standard monomials) that avoid every quadratic lead are a
# basis in every weight.  They always span, and every overlap of two
# quadratic leads lies in weight 3, so by the diamond lemma (Bergman 1978)
# the leads certify the data exactly when the count at weight 3 equals the
# dim at weight 3 found by elimination.  Weights >= 4 are then counted.


def _tensor_leads(rel_rows, n, order):
    """The quadratic leads (a, b) of the relations in one letter order.
    The kernel's pivot is a row's smallest base-n column, its lex-smallest
    word, and lex order on words of one length is multiplicative.  The
    reversed order relabels letter g as n-1-g, which numbers column c as
    n^2-1-c, so its leads are the lex-largest words and need no labels."""
    def flip(c):
        return c if order == "given" else n * n - 1 - c
    basis = EchelonBasis().add_many(
        [{flip(c): v for c, v in row.items()} for row in rel_rows]
    )
    return frozenset(divmod(flip(c), n) for c in basis.pivot_columns())


def _normal_words_by_parity(leads, parity, w):
    """(even, odd) numbers of words of length w with no adjacent lead pair,
    by the degree parity of their letters: a transfer matrix whose state is
    the last letter and the parity so far."""
    n = len(parity)
    if w == 0:
        return 1, 0
    ends = [[1 - p, p] for p in parity]
    follow = [[b for b in range(n) if (a, b) not in leads] for a in range(n)]
    for _ in range(w - 1):
        step = [[0, 0] for _ in range(n)]
        for a, (even, odd) in enumerate(ends):
            if even or odd:
                for b in follow[a]:
                    p = parity[b]
                    step[b][p] += even
                    step[b][1 - p] += odd
        ends = step
    return sum(e for e, _ in ends), sum(o for _, o in ends)


def _sym_leads(rel_rows, degrees):
    """The quadratic leads (a, b), a <= b, of the projected relations in
    `sym_quotient_dim`'s numbering: the lex-largest monomial of each pivot
    row.  Read on exponent vectors this is graded reverse lex with the
    letters ordered n-1 > ... > 0, a monomial order."""
    monos, index = _reverse_lex_columns(degrees, 2)
    basis = EchelonBasis().add_many(
        [{index[m]: v for m, v in row.items()}
         for row in _project_rel_to_sym(rel_rows, degrees)]
    )
    top = len(monos) - 1
    return frozenset(monos[top - c] for c in basis.pivot_columns())


def _standard_monomials(leads, odd, w):
    """Number of signed monomials of weight w, odd letters squarefree, that
    no lead divides.  A recursion over the letters in increasing order picks
    each exponent; a lead a*b with a < b bans b once a is taken, and a lead
    a*a caps a at exponent 1 as oddness does.  Subcounts are memoised on
    (letter, weight left, banned letters), so the work follows the count,
    not the number of all monomials."""
    n = len(odd)
    after = [0] * n
    capped = [bool(x) for x in odd]
    for a, b in leads:
        if a == b:
            capped[a] = True
        else:
            after[a] |= 1 << b
    memo = {}

    def count(i, left, banned):
        # banned holds no letter below i
        if left == 0:
            return 1
        if i == n:
            return 0
        key = (i, left, banned)
        if key not in memo:
            total = count(i + 1, left, banned & ~(1 << i))
            if not banned >> i & 1:
                for k in range(1, (1 if capped[i] else left) + 1):
                    total += count(i + 1, left - k, banned | after[i])
            memo[key] = total
        return memo[key]

    return count(0, w, 0)


class PBWCertificate(NamedTuple):
    """The outcome of the weight-3 check for one side of one datum.

    side is "A" (tensor) or "S" (symmetric); tried lists (order, count at
    weight 3) for each order tried; dim3 is the eliminated dim at weight 3;
    order is the first order whose count equals dim3, or None when no order
    does and every weight is eliminated; leads are that order's leads."""
    side: str
    order: str | None
    tried: tuple
    dim3: int
    leads: frozenset


@lru_cache(maxsize=256)
def pbw_certificate(side, q):
    """The PBW certificate of A(q) (side "A": the given letter order, then
    the reversed one) or of S(q) (side "S": the reverse-lex order).  dim3
    always comes from elimination, never from the counter."""
    dim3 = weight_component(side, q, 3)
    parity = [d % 2 for d in q.generators.degrees]
    if side == "A":
        qq = _as_plain("A", q)
        orders = {order: _tensor_leads(qq.relations.rows, qq.gdim, order)
                  for order in ("given", "reversed")}
        tried = tuple((order, sum(_normal_words_by_parity(leads, parity, 3)))
                      for order, leads in orders.items())
    else:
        orders = {"reverse-lex": _sym_leads(q.relations.rows,
                                            q.generators.degrees)}
        tried = (("reverse-lex",
                  _standard_monomials(orders["reverse-lex"], parity, 3)),)
    for order, found in tried:
        if found == dim3:
            return PBWCertificate(side, order, tried, dim3, orders[order])
    return PBWCertificate(side, None, tried, dim3, frozenset())


def _certified(realization, q, eliminated):
    """The rungs of A, S or L of q: the eliminated ones up to weight 3, then,
    when the leads certify (L reads A's certificate, as A = U(L)), counted
    ones with the elimination state dropped, else the eliminated ones."""
    yield from islice(eliminated, 4)
    cert = pbw_certificate("A" if realization == "L" else realization, q)
    if cert.order is not None:
        eliminated = _counted(realization, cert.leads, [d % 2 for d in q.generators.degrees])
    yield from eliminated


def _counted(realization, leads, parity):
    """The counted dims from weight 4 on.  L's come from the parity-split
    normal-word series, the super PBW product of L's dims, inverted one
    weight at a time."""
    if realization == "S":
        yield from (_standard_monomials(leads, parity, w) for w in count(4))
    elif realization == "A":
        yield from (sum(_normal_words_by_parity(leads, parity, w)) for w in count(4))
    else:
        lie = {}
        for w in count(1):
            even, odd = _normal_words_by_parity(leads, parity, w)
            pe, po = pbw_series_by_parity(lie, w)[w]
            lie[w] = (even - pe, odd - po)
            if w >= 4:
                yield sum(lie[w])


# ---------------------------------------------------------------------------
# public weight components


# the functor that reads symmetric or skew data as the plain data whose
# tensor quotient (A) or cofree side (Tc) is theirs
_TO_PLAIN = {
    ("A", QDFlavor.SKEW): FunctorName.LAMBDA,
    ("A", QDFlavor.SYM): FunctorName.SCRIPT_S,
    ("Tc", QDFlavor.SKEW): FunctorName.LAMBDA,
    ("Tc", QDFlavor.SYM): FunctorName.SIGMA,
}


def _as_plain(realization, q):
    name = _TO_PLAIN.get((realization, q.flavor))
    return q if name is None else apply_functor(name, q)


def algebra_side(q):
    """The algebra realisation of a datum: S for symmetric data, else A."""
    return "S" if q.flavor is QDFlavor.SYM else "A"


class _Ladder:
    """The dims of one realisation of one datum climbed so far, and the
    generator of the rungs above them, made by climb()."""

    def __init__(self, climb):
        self.climb = climb
        self.dims, self.rungs = [], climb()


@lru_cache(maxsize=1024)
def _component_cached(realization, q):
    """The one ladder of a realisation of q; Sc is the S ladder of STAR(q)."""
    if realization in ("S", "Sc") and q.flavor is not QDFlavor.SYM:
        raise FlavorMismatch("%s realisation needs symmetric data" % realization)
    if realization == "L" and q.flavor is not QDFlavor.SKEW:
        raise FlavorMismatch("L realisation needs skew data")
    if realization == "Sc":
        return _component_cached("S", apply_functor(FunctorName.STAR, q))
    qq = _as_plain(realization, q)
    rows, n, degrees = qq.relations.rows, qq.gdim, q.generators.degrees
    if realization == "Tc":
        return _Ladder(lambda: map(len, tensor_cofree_rows(rows, n)))
    eliminated = {
        "A": lambda: tensor_quotient_dims(rows, n),
        "S": lambda: (sym_quotient_dim(rows, degrees, w) for w in count()),
        "L": lambda: chain((0,), map(sum, lie_dims_by_parity(rows, degrees))),
    }.get(realization)
    if eliminated is None:
        raise ValueError(realization)
    return _Ladder(lambda: _certified(realization, q, eliminated()))


def weight_component(realization, q, w):
    """dim of weight w of a realisation of q, read off its ladder, which is
    climbed at most once per (realisation, datum).

    A zero at a weight >= 1 ends the series (A, S, L and Sc are generated
    in weight 1, and C_w lies in C_{w-1} (x) V; L_0 = 0 is a convention), so
    no rung above it is built.  A climb that raises starts the ladder over:
    the next read raises again, where a spent generator would end it."""
    if w < 0:
        raise ArityError("weight must be non-negative")
    ladder = _component_cached(realization, q)
    while len(ladder.dims) <= w:
        if len(ladder.dims) > 1 and not ladder.dims[-1]:
            return 0
        try:
            ladder.dims.append(next(ladder.rungs))
        except BaseException:
            ladder.dims, ladder.rungs = [], ladder.climb()
            raise
    return ladder.dims[w]


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


def pbw_series_by_parity(by_parity, wmax):
    """[(even dim, odd dim) at weight 0..wmax] of the enveloping algebra of
    a Lie superalgebra with dims {w: (even, odd)}: the super PBW product
    prod_w (1 + s t^w)^{odd_w} / (1 - t^w)^{even_w}, with s^2 = 1 marking
    the odd part."""
    out = [(1, 0)] + [(0, 0)] * wmax
    for w, (ev, od) in by_parity.items():
        top = wmax // w
        # the factor's coefficient of t^(w*j), split by parity: C(ev+a-1, a)
        # from the even part times C(od, b) s^b from the odd part, a + b = j
        geo = [comb(ev + a - 1, a) if ev else int(a == 0) for a in range(top + 1)]
        factor = [[0, 0] for _ in range(top + 1)]
        for b in range(min(od, top) + 1):
            for a in range(top + 1 - b):
                factor[a + b][b % 2] += geo[a] * comb(od, b)
        step = [[0, 0] for _ in range(wmax + 1)]
        for i, (even, odd) in enumerate(out):
            for j, (f_even, f_odd) in enumerate(factor[: (wmax - i) // w + 1]):
                k = i + j * w
                step[k][0] += even * f_even + odd * f_odd
                step[k][1] += even * f_odd + odd * f_even
        out = [tuple(x) for x in step]
    return out


def pbw_series(by_parity, wmax):
    """Weight series of the enveloping algebra from Lie dims split by parity:
    the total of `pbw_series_by_parity`."""
    return [even + odd for even, odd in pbw_series_by_parity(by_parity, wmax)]


def ue_compare(q, wmax):
    """PBW check: weight dims of A(Lambda(q)) against the enveloping-algebra
    prediction from the Lie dims of L(q)."""
    if q.flavor is not QDFlavor.SKEW:
        raise FlavorMismatch("ue_compare needs skew data")
    by_parity = dict(zip(range(1, wmax + 1), lie_dims_by_parity(
        q.relations.rows, q.generators.degrees)))
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
    h1 = hilbert_series(algebra_side(q), q, wmax)
    h2 = hilbert_series(algebra_side(bang), bang, wmax)
    signed = [(-1) ** w * d for w, d in enumerate(h2)]
    prod = _poly_mul(h1, signed, wmax)
    ok = prod[0] == 1 and all(x == 0 for x in prod[1:])
    return Report(
        "koszul_euler",
        True,
        details="h(t)*h^!(-t) coefficients %s" % prod,
        status="PASS" if ok else "INFO",
    )

