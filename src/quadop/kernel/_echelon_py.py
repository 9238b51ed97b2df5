"""Pure-Python sparse echelon kernel over exact rationals.

Rows are sparse dicts {column: coefficient}.  Elimination is fraction-free:
an incoming row is cleared of denominators once, and each elimination step
is a cross-multiplication followed by division by the row's content gcd.

A row whose smallest column is not yet a pivot is stored as it comes, with
no heap.  Only the head of a row led at a pivot is reduced: its columns are
heapified once; each step pops the smallest live column and, when a pivot
row owns that column, eliminates it and pushes only the columns the pivot
row newly introduces.
A pivot row holds no column below its pivot, so elimination never moves the
head backwards and the row is never rescanned for its minimum.  Signs are
fixed once, when a row is stored: every stored pivot row is primitive
(content 1) with a positive pivot entry, whatever order it was reduced in.

add_many folds a batch in descending order of leading column, so most rows
arrive with a new lead and are stored without elimination; the span, the
pivot columns and the RREF do not depend on the order.  Callers that need to
know which rows raised the rank call add row by row instead.

rref() produces the reduced row-echelon form in integers, which is the
canonical representative used for subspace equality everywhere else: each
row is primitive with a positive pivot, and is zero in every other row's
pivot column.  Such a row is the unique positive primitive multiple of the
pivot-1 RREF row, so no entry is ever divided by its pivot.
This module is quadop's only elimination path; quadop.kernel re-exports it.
"""

from heapq import heapify, heappop, heappush
from math import gcd


def _normalize(row, lead):
    """Make a nonzero integer row primitive with row[lead] > 0, in place."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g != 1:
        for k in row:
            row[k] //= g
    return row


def int_row(row):
    """Clear denominators of a {col: rational} row into an int row, dropping
    zero entries; the row is scaled by the lcm of its denominators."""
    lcm = 1
    for v in row.values():
        d = v.denominator
        if d != 1:
            lcm = lcm // gcd(lcm, d) * d
    if lcm == 1:
        return {c: v.numerator for c, v in row.items() if v}
    return {c: v.numerator * (lcm // v.denominator) for c, v in row.items() if v}


class EchelonBasis:
    """Incremental row-echelon accumulator for sparse rational rows.

    add() folds one row in and reports whether the rank grew; rref() emits
    the canonical reduced form.
    """

    def __init__(self):
        self.pivots = {}  # pivot column -> primitive int row, positive pivot

    @classmethod
    def from_echelon_rows(cls, rows):
        """A basis of int rows with pairwise distinct smallest columns, each
        stored as its own pivot row, normalised but not eliminated."""
        basis = cls()
        for row in rows:
            lead = min(row)
            if lead in basis.pivots:
                raise ValueError("two echelon rows are led at column %d" % lead)
            basis.pivots[lead] = _normalize(row, lead)
        return basis

    def pivot_rows(self):
        """The stored rows: primitive, led by their smallest column."""
        return self.pivots.values()

    @property
    def rank(self):
        return len(self.pivots)

    def _reduce_int(self, row):
        """Reduce the head of an int row in place; its new lead column, or
        None when the row reduced to zero."""
        pivots = self.pivots
        heap = list(row)
        heapify(heap)
        while heap:
            c = heappop(heap)
            b = row.get(c)
            if b is None:  # cancelled since it was pushed
                continue
            piv = pivots.get(c)
            if piv is None:
                return c
            a = piv[c]
            g = gcd(a, b)
            a //= g
            b //= g
            # row <- a*row - b*piv, in place; column c cancels exactly
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, v in piv.items():
                w = row.get(k)
                if w is None:
                    row[k] = -b * v
                    heappush(heap, k)
                else:
                    w -= b * v
                    if w:
                        row[k] = w
                    else:
                        del row[k]
            if not row:
                return None
            # content only, the sign is fixed on store; a unit entry proves
            # the row primitive without the full gcd
            g = next(iter(row.values()))
            if g != 1 and g != -1:
                g = gcd(*row.values())
                if g != 1:
                    for k in row:
                        row[k] //= g
        return None

    def add(self, row):
        """Fold a {col: rational} row in; True iff the rank increased."""
        row = int_row(row)
        if not row:
            return False
        lead = min(row)
        if lead in self.pivots:
            lead = self._reduce_int(row)
            if lead is None:
                return False
        self.pivots[lead] = _normalize(row, lead)
        return True

    def add_many(self, rows):
        """Fold a batch of rows in, largest leading column first."""
        for row in sorted(rows, key=lambda r: min(r, default=-1), reverse=True):
            self.add(row)
        return self

    def pivot_columns(self):
        return sorted(self.pivots)

    def rref(self):
        """Canonical reduced row-echelon form: list of {col: int} rows.

        Rows are sorted by pivot column and each row by column; every row is
        primitive with a positive pivot, and every pivot column is cleared
        in all other rows.  A stored row's minimum column is its pivot, so
        cleaning in decreasing pivot order only ever meets already-cleaned
        rows, and a cross-multiplication clears each column.
        """
        pivots = self.pivots
        cols = sorted(pivots)
        reduced = {}
        for c in reversed(cols):
            row = pivots[c]
            clear = [k for k in row if k != c and k in reduced]
            if clear:
                row = dict(row)
                for k in clear:
                    # row <- a*row - b*reduced[k]; reduced[k] has no other
                    # pivot column, so the columns still to clear only scale
                    other = reduced[k]
                    a = other[k]
                    b = row[k]
                    g = gcd(a, b)
                    a //= g
                    b //= g
                    if a != 1:
                        for kk in row:
                            row[kk] *= a
                    for kk, v in other.items():
                        w = row.get(kk, 0) - b * v
                        if w:
                            row[kk] = w
                        else:
                            del row[kk]
                _normalize(row, c)
            reduced[c] = row
        return [dict(sorted(row.items())) if len(row) > 1 else dict(row)
                for row in map(reduced.get, cols)]


def echelon_rows(rows):
    """RREF of a list of sparse rows; the canonical form of their span."""
    basis = EchelonBasis().add_many(rows)
    return basis.rref() if basis.pivots else []
