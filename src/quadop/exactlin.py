"""Exact rational linear algebra on labeled ambient bases.

An ambient is a graded.GradedSpace; this module reads only its dim, its
labels (names, which may repeat) and its hash, so it imports nothing from
graded.
Ambients compare with ==.

Subspaces are canonical: stored as the kernel's integer RREF of their span
(each row primitive, with a positive pivot and zeros in every other pivot
column), so two subspaces of the same ambient are equal iff their stored
rows are equal.  There are two ways to one: Subspace(ambient, rows) runs
the kernel's elimination on any spanning rows, and Subspace.from_rref
stores rows that a construction already produced in that form, checking
only that their leads are distinct, positive and cleared from every other
row (every QD product, the BOQD products whose rows are canonical as built,
signed squares and random BOQD data).  nullspace_rows (with any sign per
column) and quotient_images (for both white products) read such rows with
no elimination either; annihilator, the one dual of stored relations (QD
STAR of plain data and the BOQD dual), eliminates the rows nullspace_rows
reads off.  perp_rows, the one complement of any rows, runs one
elimination and reads canonical rows off nullspace_rows; the other QD
duals, the cofree side and the BOQD white product take them as built.
Their rows, membership residuals and the rows derived from them are int
rows.  A Fraction appears only at parse and render: scalar() reads an
exact scalar (an int when integral, a Fraction only with a denominator,
the normal form of the scalars of vectors and maps), and
graded.rows_to_json prints each row divided by its pivot.  Membership
queries reduce against the stored rows by pivot column and run no
elimination; a query against a datum's whole signed square is the swap
test graded.in_signed_square instead, chosen by qd.escaping_image, and
reaches no subspace.  All values are immutable after construction by
convention: the value classes here and in graded, qd, boqd and report are
plain classes, and no method rebinds a field once the constructor has set
it, though nothing stops a caller from doing so.
"""

from math import gcd, lcm

from .kernel import echelon_rows


def scalar(v):
    """The normal form of an exact scalar: an int passes through; anything
    else (a Fraction, a string such as "-1/3") goes through Fraction and
    comes back as an int when its denominator is 1."""
    if type(v) is int:
        return v
    from fractions import Fraction    # here, so start-up loads no fractions
    q = Fraction(v)
    return q.numerator if q.denominator == 1 else q


class AmbientMismatch(ValueError):
    pass


class Vector:
    """Exact vector with coordinates relative to a labeled ambient basis."""

    __slots__ = ("ambient", "data")

    def __init__(self, ambient, data):
        self.ambient = ambient
        self.data = {c: scalar(v) for c, v in data.items() if v}

    def __eq__(self, other):
        return (
            isinstance(other, Vector)
            and self.ambient == other.ambient
            and self.data == other.data
        )

    def __repr__(self):
        terms = [
            "%s*%s" % (v, self.ambient.labels[c])
            for c, v in sorted(self.data.items())
        ]
        return " + ".join(terms) if terms else "0"


class Subspace:
    """Canonical echelon-form subspace of a labeled ambient."""

    __slots__ = ("ambient", "rows", "_by_pivot", "_hash")

    def __init__(self, ambient, rows):
        self.ambient = ambient
        self.rows = tuple(echelon_rows(rows))
        self._by_pivot = None
        self._hash = None

    @classmethod
    def from_rref(cls, ambient, rows):
        """The subspace whose canonical rows are rows, stored without
        elimination.  Each row must be column-sorted and primitive, with a
        positive lead (its first column), and zero in every other row's
        lead; rows may come in any order and are sorted by lead.  Only the
        leads are checked: ValueError names an empty row, a repeated or
        non-positive lead, or a row that holds another row's lead.  Column
        order and primitivity are the caller's to prove (checking them here
        would cost most of what skipping the elimination saves)."""
        by_lead = _by_lead(rows)
        for lead, row in by_lead.items():
            if row[lead] <= 0:
                raise ValueError("the row led at column %d has lead %s"
                                 % (lead, row[lead]))
        self = cls.__new__(cls)
        self.ambient = ambient
        self.rows = tuple(map(by_lead.get, sorted(by_lead)))
        self._by_pivot = by_lead
        self._hash = None
        return self

    @property
    def dim(self):
        return len(self.rows)

    def _residual(self, data):
        """A nonzero multiple of data minus its projection along the stored
        rows; empty iff contained.

        Every pivot column is zero in all other rows, so the pivots to clear
        are those in the support of data, and res <- lead_p*res - res[p]*row_p
        clears each of them in one pass without a division.
        """
        by_pivot = self._by_pivot
        if by_pivot is None:
            by_pivot = self._by_pivot = {next(iter(r)): r for r in self.rows}
        res = {c: v for c, v in data.items() if v}
        for p in [c for c in res if c in by_pivot]:
            row = by_pivot[p]
            a = row[p]
            x = res[p]
            if a != 1:
                for c in res:
                    res[c] *= a
            for c, w in row.items():
                u = res.get(c, 0) - x * w
                if u:
                    res[c] = u
                else:
                    del res[c]
        return res

    def contains(self, v):
        if isinstance(v, Vector):
            if v.ambient != self.ambient:
                raise AmbientMismatch("vector is not in this ambient")
            v = v.data
        return not self._residual(v)

    def contains_subspace(self, other):
        if other.ambient != self.ambient:
            raise AmbientMismatch("subspaces live in different ambients")
        return all(not self._residual(r) for r in other.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        # stored rows are column-sorted, so their items are in canonical order
        h = self._hash
        if h is None:
            h = self._hash = hash(
                (self.ambient, tuple(tuple(r.items()) for r in self.rows))
            )
        return h

    def __repr__(self):
        return "Subspace(dim=%d of %d)" % (self.dim, self.ambient.dim)


def _by_lead(rows):
    """rows by lead (first column); ValueError: empty row or shared lead."""
    by_lead = {}
    for row in rows:
        lead = next(iter(row), None)
        if lead is None:
            raise ValueError("a row is empty")
        if lead in by_lead:
            raise ValueError("two rows are led at column %d" % lead)
        by_lead[lead] = row
    leads = by_lead.keys()
    for lead, row in by_lead.items():
        if len(row.keys() & leads) != 1:
            raise ValueError("the row led at column %d holds the lead "
                             "of another row" % lead)
    return by_lead


def zero_space(ambient):
    return Subspace(ambient, [])


def nullspace_rows(rows, ncols):
    """Basis of {x : row.x = 0 for all rows} over ncols for int rows in
    RREF with any sign per column, as stored rows are: no elimination runs,
    and the leads are checked as from_rref checks them, bar their sign.
    One int row per free column f, which gets the lcm of the leads of the
    rows that meet it."""
    led = _by_lead(rows)
    out = []
    for f in range(ncols):
        if f in led:
            continue
        hits = [(p, r) for p, r in led.items() if f in r]
        scale = lcm(*(r[p] for p, r in hits))
        vec = {f: scale}
        for p, r in hits:
            vec[p] = -r[f] * (scale // r[p])
        out.append(vec)
    return out


def perp_rows(constraints, ncols):
    """Canonical RREF rows of {x : c.x = 0 for each constraint row c} over
    ncols columns, for any int rows, eliminated once in reversed column
    order: each solution nullspace_rows reads off that RREF is led at its
    own free column and holds no other, so it is RREF as written, up to
    its content and column order."""
    top = ncols - 1
    rows = echelon_rows([{top - c: v for c, v in r.items()} for r in constraints])
    out = []
    for x in reversed(nullspace_rows(rows, ncols)):
        g = gcd(*x.values())
        out.append({top - c: v // g for c, v in sorted(x.items(), reverse=True)})
    return out


def perp_in_span(basis, funcs, width):
    """Canonical RREF rows of the vectors of span(basis), RREF rows sorted
    by lead, that each functional f of funcs kills on each block of width
    columns (f reads b*width + c as c), solved by perp_rows in the
    coordinates of basis.  A RREF combination of RREF rows is RREF as
    written, up to its content and column order."""
    by_col = {}
    for j, f in enumerate(funcs):
        for c, v in f.items():
            by_col.setdefault(c, []).append((j, v))
    pairings = {}
    for i, row in enumerate(basis):
        for c, x in row.items():
            block, c = divmod(c, width)
            for j, v in by_col.get(c, ()):
                p = pairings.setdefault((block, j), {})
                p[i] = p.get(i, 0) + x * v
    out = []
    for y in perp_rows(pairings.values(), len(basis)):
        acc = {}
        for i, v in y.items():
            for c, x in basis[i].items():
                acc[c] = acc.get(c, 0) + v * x
        acc = [(c, x) for c, x in sorted(acc.items()) if x]
        g = gcd(*(x for _, x in acc))
        out.append({c: x // g for c, x in acc})
    return out


def quotient_images(a):
    """(p * image, p) of each ambient column in the quotient by the subspace
    a, in the coordinates of its non-pivot columns: a non-pivot column c
    maps to e_c with p = 1, and a pivot column c of lead p maps p * e_c to
    minus the rest of its row."""
    out = [({c: 1}, 1) for c in range(a.ambient.dim)]
    for row in a.rows:
        lead = next(iter(row))
        out[lead] = ({c: -v for c, v in row.items() if c != lead}, row[lead])
    return out


def annihilator(a, dual, signs):
    """All functionals in the dual ambient vanishing on a, under the diagonal
    pairing that pairs the i-th basis vectors with sign signs[i]: the null
    rows of the signed stored rows, read off by nullspace_rows and
    eliminated once."""
    n = a.ambient.dim
    if dual.dim != n or len(signs) != n:
        raise ValueError("pairing shape mismatch")
    return Subspace(dual, nullspace_rows(signed_rows(a.rows, signs), n))


def signed_rows(rows, signs):
    """rows with column c scaled by signs[c]: the functionals that pair
    with a vector as the rows do under the diagonal pairing of signs."""
    return [{c: v * signs[c] for c, v in r.items()} for r in rows]


class LinearMap:
    """Basis-to-basis linear map between labeled ambients.

    Stored column-wise and sparse: cols[i] is the image of the i-th source
    basis vector as a {target index: scalar} dict, each coefficient in the
    scalar() normal form (an int unless it has a denominator).  Maps hash
    by value, once per instance, so frozen data that hold one can key a
    cache.
    """

    __slots__ = ("source", "target", "cols", "_hash")

    def __init__(self, source, target, cols):
        self.source = source
        self.target = target
        if len(cols) != source.dim:
            raise ValueError("column count does not match source dimension")
        self.cols = tuple(
            {c: v if type(v) is int else scalar(v) for c, v in col.items() if v}
            for col in cols
        )
        self._hash = None

    @classmethod
    def identity(cls, ambient):
        return cls(ambient, ambient, [{i: 1} for i in range(ambient.dim)])

    def compose(self, inner):
        """self o inner."""
        if inner.target != self.source:
            raise AmbientMismatch("maps are not composable")
        return LinearMap(inner.source, self.target, compose_cols(self.cols, inner.cols))

    def __eq__(self, other):
        return (
            isinstance(other, LinearMap)
            and self.source == other.source
            and self.target == other.target
            and self.cols == other.cols
        )

    def __hash__(self):
        # a column's items are in no fixed order, and frozenset ignores it
        h = self._hash
        if h is None:
            h = self._hash = hash((self.source, self.target,
                                   tuple(frozenset(c.items()) for c in self.cols)))
        return h


def compose_cols(cols, data):
    """The image sum of v*cols[c] over each sparse column in data, as a
    list.  A unit column {c: 1} gives cols[c] itself, not a copy, so the
    images are read-only."""
    out = []
    for col in data:
        if len(col) == 1:
            [(c, v)] = col.items()
            if v == 1:
                out.append(cols[c])
                continue
        acc = {}
        for c, v in col.items():
            for r, w in cols[c].items():
                u = acc.get(r, 0) + v * w
                if u:
                    acc[r] = u
                elif r in acc:
                    del acc[r]
        out.append(acc)
    return out

