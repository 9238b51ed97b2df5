"""Graded vector spaces with Koszul signs.

Labels are stable strings; tensor-product labels concatenate left-to-right
with an explicit "⊗" separator, so n-fold products are flat and
re-association is label-strict.  Degree shifts use the marked prefixes "s·"
and "s̄·" which cancel against each other, and duals star/unstar labels, so
the canonical identifications (double dual, shift round trips) are literal
label equalities.
"""

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .exactlin import AmbientBasis, LinearMap, Subspace

TENSOR_SEP = "⊗"
SHIFT_UP = "s·"
SHIFT_DOWN = "s̄·"


class ArityError(ValueError):
    pass


@dataclass(frozen=True)
class GradedSpace:
    """Finite ordered basis of (label, degree) pairs.

    words tracks, per basis element, the degree word of its tensor factors
    (atoms have a one-letter word).  Tensor products concatenate words and
    duals negate them letter-wise; the words feed the Koszul signs of the
    dual pairings, which is what makes linear duality strong monoidal on
    products of mixed-degree spaces.
    """

    basis: tuple
    words: tuple = None

    def __post_init__(self):
        object.__setattr__(
            self, "basis", tuple((str(l), int(d)) for l, d in self.basis)
        )
        if self.words is None:
            object.__setattr__(
                self, "words", tuple((d,) for _, d in self.basis)
            )
        else:
            object.__setattr__(
                self, "words", tuple(tuple(w) for w in self.words)
            )
        if len(self.words) != len(self.basis):
            raise ValueError("degree words do not match the basis")
        for (_, d), w in zip(self.basis, self.words):
            if sum(w) != d:
                raise ValueError("degree word does not sum to the degree")
        labels = [l for l, _ in self.basis]
        if len(labels) != len(set(labels)):
            raise ValueError("generator labels must be pairwise distinct")

    @classmethod
    def from_labels(cls, labels, degree=0):
        return cls(tuple((l, degree) for l in labels))

    @property
    def dim(self):
        return len(self.basis)

    @property
    def labels(self):
        return tuple(l for l, _ in self.basis)

    @property
    def degrees(self):
        return tuple(d for _, d in self.basis)

    @property
    def ambient(self):
        try:
            return self._ambient
        except AttributeError:
            amb = AmbientBasis(self.labels, self.degrees)
            object.__setattr__(self, "_ambient", amb)
            return amb


ZERO = GradedSpace(())


def koszul_sign(degrees, perm):
    """Sign of permuting homogeneous factors: the permuted word places the
    original factor perm[k] at slot k; each crossing of two odd factors
    contributes -1."""
    n = len(degrees)
    if len(perm) != n or sorted(perm) != list(range(n)):
        raise ArityError("permutation does not act on the degree list")
    sign = 1
    for a in range(n):
        for b in range(a + 1, n):
            if perm[a] > perm[b] and degrees[perm[a]] % 2 and degrees[perm[b]] % 2:
                sign = -sign
    return sign


def tensor_product(v, w):
    """V (x) W: ordered pairs of labels, degrees added, words concatenated."""
    return GradedSpace(
        tuple(
            (lv + TENSOR_SEP + lw, dv + dw)
            for lv, dv in v.basis
            for lw, dw in w.basis
        ),
        tuple(wv + ww for wv in v.words for ww in w.words),
    )


def direct_sum(v, w):
    return GradedSpace(v.basis + w.basis, v.words + w.words)


def square(v):
    return tensor_product(v, v)


def _shift_label(label, marker, inverse_marker):
    if label.startswith(inverse_marker):
        return label[len(inverse_marker):]
    return marker + label


def shift(v, k=1):
    """Degree shift by +1 or -1 (iterate for larger shifts).

    Shifted generators are treated as atoms: their degree words collapse.
    """
    if k == 1:
        return GradedSpace(
            tuple((_shift_label(l, SHIFT_UP, SHIFT_DOWN), d + 1) for l, d in v.basis)
        )
    if k == -1:
        return GradedSpace(
            tuple((_shift_label(l, SHIFT_DOWN, SHIFT_UP), d - 1) for l, d in v.basis)
        )
    raise ArityError("shift step must be +1 or -1")


def shift_square_map(v, k=1):
    """The induced map on tensor squares; the one-step up shift carries the
    sign (-1)^|x| on x(x)y, and the down shift is its exact inverse."""
    sv = shift(v, k)
    src = square(v).ambient
    tgt = square(sv).ambient
    n = v.dim
    cols = []
    for i in range(n):
        di = v.basis[i][1]
        sign = (-1) ** (di % 2) if k == 1 else (-1) ** ((di - 1) % 2)
        for j in range(n):
            cols.append({i * n + j: sign})
    return LinearMap(src, tgt, cols)


def _star_label(label):
    """Star each tensor factor, so (V(x)W)* lands in V*(x)W* literally."""
    parts = []
    for p in label.split(TENSOR_SEP):
        parts.append(p[:-1] if p.endswith("*") else p + "*")
    return TENSOR_SEP.join(parts)


def dual(v):
    """Degree-wise linear dual; it pairs with v under the word_sign signs of
    v's degree words."""
    return GradedSpace(
        tuple((_star_label(l), -d) for l, d in v.basis),
        tuple(tuple(-x for x in w) for w in v.words),
    )


def word_sign(degword):
    """Koszul sign of pairing a tensor word against its dual word:
    (-1) to the number of unordered pairs of odd letters."""
    odds = sum(1 for d in degword if d % 2)
    return -1 if (odds * (odds - 1) // 2) % 2 else 1


def _pair_vector(v, i, j, sign_flag):
    """x_i (x) x_j + sign * (-1)^{|x_i||x_j|} x_j (x) x_i in square(v)."""
    n = v.dim
    di, dj = v.basis[i][1], v.basis[j][1]
    eps = sign_flag * ((-1) ** ((di * dj) % 2))
    data = {i * n + j: 1}
    k = j * n + i
    data[k] = data.get(k, 0) + eps
    return {c: x for c, x in data.items() if x}


@dataclass(frozen=True)
class TensorSquareSplit:
    """The canonical decomposition of a tensor square into its signed
    symmetric and antisymmetric parts (characteristic 0)."""

    whole: AmbientBasis
    sym: Subspace
    alt: Subspace


def square_split(v):
    amb = square(v).ambient
    sym_rows, alt_rows = [], []
    for i, j in combinations_with_replacement(range(v.dim), 2):
        sym_rows.append(_pair_vector(v, i, j, +1))
        alt_rows.append(_pair_vector(v, i, j, -1))
    return TensorSquareSplit(
        whole=amb,
        sym=Subspace(amb, sym_rows),
        alt=Subspace(amb, alt_rows),
    )


def in_signed_square(v, row, sign):
    """Whether a row of square(v) lies in its symmetric (sign +1) or
    antisymmetric (sign -1) part, read off the signed swap
    tau(x_i (x) x_j) = (-1)^{|x_i||x_j|} x_j (x) x_i with no elimination:
    the row must satisfy row[j*n+i] = sign * (-1)^{|x_i||x_j|} * row[i*n+j]."""
    n = v.dim
    degrees = v.degrees
    for c, x in row.items():
        i, j = divmod(c, n)
        eps = -sign if degrees[i] * degrees[j] % 2 else sign
        if row.get(j * n + i, 0) != eps * x:
            return False
    return True


def sym_square(v):
    return square_split(v).sym


def alt_square(v):
    return square_split(v).alt


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
        for i, (_, di) in enumerate(v.basis)
        for j, (_, dj) in enumerate(w.basis, nv)
    ]


def braiding_map(v, w):
    """The Koszul braiding V(x)W -> W(x)V."""
    src = tensor_product(v, w).ambient
    tgt = tensor_product(w, v).ambient
    cols = []
    for i in range(v.dim):
        di = v.basis[i][1]
        for j in range(w.dim):
            dj = w.basis[j][1]
            sign = (-1) ** ((di * dj) % 2)
            cols.append({j * v.dim + i: sign})
    return LinearMap(src, tgt, cols)
