"""Exact rational linear algebra on labeled ambient bases.

An ambient is a graded.GradedSpace; this module reads only its dim, its
labels and (in basis_vector and LinearMap.from_label_map) its index(label),
so it imports nothing from graded.  Ambients compare with ==.

Exact scalars have one normal form: an int when the value is integral, a
Fraction only when it has a denominator (see scalar()).  Equality and hashing
are by value, so the normal form changes no comparison; it keeps the 0/±1
maps and relation rows that dominate the checks in machine-int arithmetic.

Subspaces are canonical: stored as the reduced row-echelon form of their
span, so two subspaces of the same ambient are equal iff their stored rows
are equal.  Membership queries reduce against the stored RREF rows directly,
indexed by pivot column, and run no elimination.  All values are immutable
after construction.
"""

from fractions import Fraction

from .kernel import EchelonBasis


def scalar(v):
    """The normal form of an exact scalar: an int passes through; anything
    else (a Fraction, a string such as "-1/3") goes through Fraction and
    comes back as an int when its denominator is 1."""
    if type(v) is int:
        return v
    q = Fraction(v)
    return q.numerator if q.denominator == 1 else q


class AmbientMismatch(ValueError):
    pass


class Vector:
    """Exact vector with coordinates relative to a labeled ambient basis."""

    __slots__ = ("ambient", "data")

    def __init__(self, ambient, data):
        self.ambient = ambient
        if isinstance(data, dict):
            self.data = {c: scalar(v) for c, v in data.items() if v}
        else:
            if len(data) != ambient.dim:
                raise ValueError("coordinate list does not match ambient dimension")
            self.data = {i: scalar(v) for i, v in enumerate(data) if v}

    @property
    def coords(self):
        out = [0] * self.ambient.dim
        for c, v in self.data.items():
            out[c] = v
        return out

    def __add__(self, other):
        if other.ambient != self.ambient:
            raise AmbientMismatch("vectors live in different ambients")
        data = dict(self.data)
        for c, v in other.data.items():
            w = data.get(c, 0) + v
            if w:
                data[c] = w
            elif c in data:
                del data[c]
        return Vector(self.ambient, data)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, s):
        s = scalar(s)
        return Vector(self.ambient, {c: s * v for c, v in self.data.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Vector)
            and self.ambient == other.ambient
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.ambient.labels, tuple(sorted(self.data.items()))))

    def __repr__(self):
        terms = [
            "%s*%s" % (v, self.ambient.labels[c])
            for c, v in sorted(self.data.items())
        ]
        return " + ".join(terms) if terms else "0"


def basis_vector(ambient, label):
    return Vector(ambient, {ambient.index(label): 1})


class Subspace:
    """Canonical echelon-form subspace of a labeled ambient."""

    __slots__ = ("ambient", "rows", "_by_pivot")

    def __init__(self, ambient, rows):
        self.ambient = ambient
        basis = EchelonBasis().add_many(
            r.data if isinstance(r, Vector) else r for r in rows
        )
        self.rows = tuple(basis.rref())
        self._by_pivot = None

    @property
    def dim(self):
        return len(self.rows)

    def basis_vectors(self):
        return [Vector(self.ambient, dict(r)) for r in self.rows]

    def _residual(self, data):
        """data minus its projection along the RREF rows; empty iff contained.

        Every pivot column is zero in all other rows, so subtracting
        data[p] * row_p for each pivot p in the support is exact in one pass.
        """
        by_pivot = self._by_pivot
        if by_pivot is None:
            by_pivot = self._by_pivot = {min(r): r for r in self.rows}
        res = {c: v for c, v in data.items() if v}
        for p, x in [(c, v) for c, v in res.items() if c in by_pivot]:
            for c, w in by_pivot[p].items():
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

    def __add__(self, other):
        if other.ambient != self.ambient:
            raise AmbientMismatch("subspaces live in different ambients")
        return Subspace(self.ambient, list(self.rows) + list(other.rows))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash(
            (self.ambient.labels, tuple(tuple(sorted(r.items())) for r in self.rows))
        )

    def __repr__(self):
        return "Subspace(dim=%d of %d)" % (self.dim, self.ambient.dim)


def span(vectors, ambient=None):
    """Canonical span; with an empty vector list the ambient is required."""
    vectors = list(vectors)
    if ambient is None:
        if not vectors:
            raise ValueError("ambient required for an empty span")
        ambient = vectors[0].ambient
    for v in vectors:
        if v.ambient != ambient:
            raise AmbientMismatch("span of vectors over mixed ambients")
    return Subspace(ambient, vectors)


def full_space(ambient):
    return Subspace(ambient, [{i: 1} for i in range(ambient.dim)])


def zero_space(ambient):
    return Subspace(ambient, [])


def rows_past(rows, ncols):
    """RREF rows of span(rows) that are led at or past column ncols, shifted
    down by ncols.  A RREF row's lead is its smallest column, so these rows
    span the intersection of span(rows) with the coordinate subspace of the
    columns from ncols on."""
    return [
        {c - ncols: v for c, v in row.items()}
        for row in EchelonBasis().add_many(rows).rref()
        if min(row) >= ncols
    ]


def intersect_rows(rows_a, rows_b, ncols):
    """RREF rows of span(rows_a) & span(rows_b) over ncols columns, by the
    Zassenhaus trick: fold (r | r) for r in rows_a and (r | 0) for r in
    rows_b; the rows led past ncols span the intersection."""
    stacked = [{**r, **{c + ncols: v for c, v in r.items()}} for r in rows_a]
    stacked.extend(rows_b)
    return rows_past(stacked, ncols)


def intersect(a, b):
    """Intersection of two subspaces of one ambient."""
    if a.ambient != b.ambient:
        raise AmbientMismatch("subspaces live in different ambients")
    return Subspace(a.ambient, intersect_rows(a.rows, b.rows, a.ambient.dim))


def nullspace_rows(rows, ncols):
    """Basis of {x : row.x = 0 for all rows}, as sparse rows over ncols."""
    rref = EchelonBasis().add_many(rows).rref()
    pivots = [min(r) for r in rref]
    pivot_set = set(pivots)
    out = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = {f: 1}
        for r in rref:
            coef = r.get(f)
            if coef:
                vec[min(r)] = -coef
        out.append(vec)
    return out


def annihilator(a, dual, signs):
    """All functionals in the dual ambient vanishing on a, under the diagonal
    pairing that pairs the i-th basis vectors with sign signs[i]."""
    n = a.ambient.dim
    if dual.dim != n or len(signs) != n:
        raise ValueError("pairing shape mismatch")
    constraints = [{c: v * signs[c] for c, v in r.items()} for r in a.rows]
    return Subspace(dual, nullspace_rows(constraints, n))


class LinearMap:
    """Basis-to-basis linear map between labeled ambients.

    Stored column-wise and sparse: cols[i] is the image of the i-th source
    basis vector as a {target index: scalar} dict, each coefficient in the
    scalar() normal form (an int unless it has a denominator).
    """

    __slots__ = ("source", "target", "cols")

    def __init__(self, source, target, cols):
        self.source = source
        self.target = target
        if len(cols) != source.dim:
            raise ValueError("column count does not match source dimension")
        self.cols = tuple(
            {c: scalar(v) for c, v in col.items() if v} for col in cols
        )

    @classmethod
    def from_label_map(cls, source, target, images):
        """images: source label -> {target label: coeff}; missing labels map to 0."""
        cols = []
        for l in source.labels:
            img = images.get(l, {})
            cols.append({target.index(tl): scalar(v) for tl, v in img.items()})
        return cls(source, target, cols)

    @classmethod
    def identity(cls, ambient):
        return cls(ambient, ambient, [{i: 1} for i in range(ambient.dim)])

    def apply_data(self, data):
        acc = {}
        for c, v in data.items():
            for r, w in self.cols[c].items():
                u = acc.get(r, 0) + v * w
                if u:
                    acc[r] = u
                elif r in acc:
                    del acc[r]
        return acc

    def __call__(self, v):
        if v.ambient != self.source:
            raise AmbientMismatch("vector is not in the source ambient")
        return Vector(self.target, self.apply_data(v.data))

    def compose(self, inner):
        """self o inner."""
        if inner.target != self.source:
            raise AmbientMismatch("maps are not composable")
        return LinearMap(
            inner.source, self.target, [self.apply_data(c) for c in inner.cols]
        )

    def __eq__(self, other):
        return (
            isinstance(other, LinearMap)
            and self.source == other.source
            and self.target == other.target
            and self.cols == other.cols
        )

    def __hash__(self):
        return hash((self.source.labels, self.target.labels,
                     tuple(tuple(sorted(c.items())) for c in self.cols)))


def apply_map(f, a):
    """Image f(a) in canonical form."""
    if a.ambient != f.source:
        raise AmbientMismatch("subspace is not in the source ambient")
    return Subspace(f.target, [f.apply_data(r) for r in a.rows])
