"""Graded vector spaces with Koszul signs.

A graded space is a finite ordered basis of stable string labels with
integer degrees; it is also the ambient basis of the vectors, subspaces and
maps of exactlin.  Tensor-product labels concatenate left-to-right with an
explicit "⊗" separator, so n-fold products are flat and re-association is
label-strict.  Degree shifts use the marked prefixes "s·" and "s̄·" which
cancel against each other, and duals star/unstar labels, so the canonical
identifications (double dual, shift round trips) are literal label
equalities.
"""

from functools import lru_cache
from itertools import combinations_with_replacement

from .exactlin import LinearMap, Subspace, scalar

TENSOR_SEP = "⊗"
SHIFT_UP = "s·"
SHIFT_DOWN = "s̄·"


class ArityError(ValueError):
    pass


class GradedSpace:
    """Finite ordered basis: labels[i] has degree degrees[i].

    odds[i] counts the odd letters of the degree word of basis element i,
    the degrees of its tensor factors (an atom is a one-letter word, so its
    count is its degree mod 2).  Tensor products add the counts and duals
    keep them; they feed the Koszul signs of the dual pairings (word_sign),
    which is what makes linear duality strong monoidal on products of
    mixed-degree spaces.  The three fields are tuples, set once by the
    constructor; equality compares them, and their hash is computed once
    per instance, on construction.
    """

    __slots__ = ("labels", "degrees", "odds", "_hash")

    def __init__(self, labels, degrees, odds=None):
        self.labels = tuple(labels)
        self.degrees = tuple(degrees)
        self.odds = odds
        # the checks keep their own method: perfbench counts its calls as
        # graded.space_builds
        self.__post_init__()

    def __post_init__(self):
        if self.odds is None:
            self.odds = tuple(d % 2 for d in self.degrees)
        else:
            self.odds = tuple(self.odds)
            if any((k - d) % 2 for k, d in zip(self.odds, self.degrees)):
                raise ValueError("odd-letter count and degree differ in parity")
        if not len(self.labels) == len(self.degrees) == len(self.odds):
            raise ValueError("degrees or odd counts do not match the labels")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("generator labels must be pairwise distinct")
        # computed here, not in a cached_property, whose first read takes a
        # lock on Python 3.11
        self._hash = hash((self.labels, self.degrees, self.odds))

    @classmethod
    def from_labels(cls, labels, degree=0):
        labels = tuple(labels)
        return cls(labels, (degree,) * len(labels))

    @property
    def dim(self):
        return len(self.labels)

    def __eq__(self, other):
        if other.__class__ is not GradedSpace:
            return NotImplemented
        return self is other or (
            (self.labels, self.degrees, self.odds)
            == (other.labels, other.degrees, other.odds))

    def __hash__(self):
        return self._hash


ZERO = GradedSpace((), ())


def space_to_json(v):
    return [{"label": l, "degree": d} for l, d in zip(v.labels, v.degrees)]


def space_from_json(gens):
    """The graded space of a JSON generator list.  Each generator is an
    object with a label, read with str, and a degree, which must be a JSON
    integer (1.5, true and "1" raise ValueError)."""
    if not isinstance(gens, list):
        raise ValueError("generators %r are not a list" % (gens,))
    labels, degrees = [], []
    for g in gens:
        if not isinstance(g, dict) or "label" not in g or "degree" not in g:
            raise ValueError(
                "generator %r is not an object with a label and a degree" % (g,))
        d = g["degree"]
        if type(d) is not int:
            raise ValueError("generator degree %r is not an integer" % (d,))
        labels.append(str(g["label"]))
        degrees.append(d)
    return GradedSpace(tuple(labels), tuple(degrees))


def rows_from_json(rows, ncols):
    """Sparse rows of a JSON list of relation rows of ncols exact scalars each
    (JSON integers or strings such as "-1/3"); ValueError names a row of
    another shape or with another entry (1.5, true, "abc", "1/0")."""
    if not isinstance(rows, list):
        raise ValueError("relation rows %r are not a list" % (rows,))
    out = []
    for k, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != ncols:
            raise ValueError("relation row %d is not a list of %d entries: %r"
                             % (k, ncols, row))
        try:
            if any(type(x) is not int and type(x) is not str for x in row):
                raise TypeError
            out.append({i: q for i, q in enumerate(map(scalar, row)) if q})
        except (TypeError, ValueError, ZeroDivisionError):
            raise ValueError("relation row %d has an entry that is not an "
                             "exact scalar: %r" % (k, row)) from None
    return out


def rows_to_json(rows, ncols):
    """JSON rows of ncols scalar strings of Subspace rows, each divided by
    its pivot (its first entry), so a subspace prints as its pivot-1 RREF."""
    from fractions import Fraction    # here, so start-up loads no fractions
    out = []
    for r in rows:
        lead = next(iter(r.values()))
        out.append([str(Fraction(r[c], lead)) if c in r else "0"
                    for c in range(ncols)])
    return out


@lru_cache(maxsize=1024)
def tensor_product(v, w):
    """V (x) W: ordered pairs of labels, degrees and odd counts added; one
    space per pair of factors, shared by every caller in the process."""
    return GradedSpace(
        tuple(lv + TENSOR_SEP + lw for lv in v.labels for lw in w.labels),
        tuple(dv + dw for dv in v.degrees for dw in w.degrees),
        tuple(kv + kw for kv in v.odds for kw in w.odds),
    )


@lru_cache(maxsize=1024)
def direct_sum(v, w):
    """V ⊕ W, one space per pair of summands, shared like tensor_product."""
    return GradedSpace(
        v.labels + w.labels, v.degrees + w.degrees, v.odds + w.odds
    )


def square(v):
    return tensor_product(v, v)


def _shift_label(label, marker, inverse_marker):
    if label.startswith(inverse_marker):
        return label[len(inverse_marker):]
    return marker + label


def shift(v, k=1):
    """Degree shift by +1 or -1 (iterate for larger shifts).

    Shifted generators are treated as atoms: their odd counts collapse to
    the parity of the shifted degree.
    """
    if k == 1:
        marker, inverse = SHIFT_UP, SHIFT_DOWN
    elif k == -1:
        marker, inverse = SHIFT_DOWN, SHIFT_UP
    else:
        raise ArityError("shift step must be +1 or -1")
    return GradedSpace(
        tuple(_shift_label(l, marker, inverse) for l in v.labels),
        tuple(d + k for d in v.degrees),
    )


def shift_square_map(v, k=1):
    """The induced map on tensor squares; the one-step up shift carries the
    sign (-1)^|x| on x(x)y, and the down shift is its exact inverse."""
    n = v.dim
    cols = []
    for i, di in enumerate(v.degrees):
        sign = (-1) ** (di % 2) if k == 1 else (-1) ** ((di - 1) % 2)
        for j in range(n):
            cols.append({i * n + j: sign})
    return LinearMap(square(v), square(shift(v, k)), cols)


def _star_label(label):
    """Star each tensor factor, so (V(x)W)* lands in V*(x)W* literally."""
    parts = []
    for p in label.split(TENSOR_SEP):
        parts.append(p[:-1] if p.endswith("*") else p + "*")
    return TENSOR_SEP.join(parts)


def dual(v):
    """Degree-wise linear dual; it pairs with v under the word_sign signs of
    v's odd counts, which it keeps."""
    return GradedSpace(
        tuple(_star_label(l) for l in v.labels),
        tuple(-d for d in v.degrees),
        v.odds,
    )


def word_sign(odds):
    """Koszul sign of pairing a tensor word with odds odd letters against its
    dual word: (-1) to the number of unordered pairs of odd letters."""
    return -1 if (odds * (odds - 1) // 2) % 2 else 1


def _pair_vector(v, i, j, sign_flag):
    """x_i (x) x_j + sign * (-1)^{|x_i||x_j|} x_j (x) x_i in square(v)."""
    n = v.dim
    eps = sign_flag * ((-1) ** ((v.degrees[i] * v.degrees[j]) % 2))
    data = {i * n + j: 1}
    k = j * n + i
    data[k] = data.get(k, 0) + eps
    return {c: x for c, x in data.items() if x}


@lru_cache(maxsize=1024)
def signed_square(v, sign):
    """The signed symmetric (sign +1) or antisymmetric (sign -1) part of
    square(v) in characteristic 0: the pair vectors of i <= j, the diagonal
    scaled to 1, stored as built, since each is led at x_i (x) x_j and its
    other entry x_j (x) x_i is no row's lead.  One subspace per (v, sign),
    shared by every caller in the process, so its rows are read-only."""
    rows = []
    for i, j in combinations_with_replacement(range(v.dim), 2):
        row = _pair_vector(v, i, j, sign)
        if row:
            rows.append({i * v.dim + i: 1} if i == j else row)
    return Subspace.from_rref(square(v), rows)


def in_signed_square(v, row, sign):
    """Whether a row of square(v) lies in signed_square(v, sign), read off
    the signed swap tau(x_i (x) x_j) = (-1)^{|x_i||x_j|} x_j (x) x_i with no
    elimination: the row must satisfy
    row[j*n+i] = sign * (-1)^{|x_i||x_j|} * row[i*n+j]."""
    n = v.dim
    degrees = v.degrees
    for c, x in row.items():
        i, j = divmod(c, n)
        eps = -sign if degrees[i] * degrees[j] % 2 else sign
        if row.get(j * n + i, 0) != eps * x:
            return False
    return True


def wedge_row(d, terms):
    """The sparse row of the sum of c (x_i (x) x_j - x_j (x) x_i) over the
    (i, j, c) of terms, in the square of a d-dimensional space; entries that
    cancel are dropped."""
    row = {}
    for i, j, c in terms:
        row[i * d + j] = row.get(i * d + j, 0) + c
        row[j * d + i] = row.get(j * d + i, 0) - c
    return {col: v for col, v in row.items() if v}


def mixed_bracket(v, w, sign):
    """Sparse rows spanning [V,W]_± inside (V⊕W)^{(x)2}, one per ordered
    (v-basis, w-basis) pair: x (x) y + sign (-1)^{|x||y|} y (x) x.

    The rows are already in RREF: each pivot x (x) y precedes every
    y' (x) x' column, and no other row touches it.
    """
    nv = v.dim
    n = nv + w.dim
    return [
        {i * n + j: 1, j * n + i: -sign if di * dj % 2 else sign}
        for i, di in enumerate(v.degrees)
        for j, dj in enumerate(w.degrees, nv)
    ]


def braiding_map(v, w):
    """The Koszul braiding V(x)W -> W(x)V."""
    cols = []
    for i, di in enumerate(v.degrees):
        for j, dj in enumerate(w.degrees):
            sign = (-1) ** ((di * dj) % 2)
            cols.append({j * v.dim + i: sign})
    return LinearMap(tensor_product(v, w), tensor_product(w, v), cols)
