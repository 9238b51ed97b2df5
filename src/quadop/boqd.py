"""Binary operadic quadratic data.

A datum is a graded involutive module (the transposition action on binary
generators) together with a relation subspace of the arity-3 part of the free
operad, closed under the full permutation action.  The arity-3 part has the
basis tau_i(a, a') with composition semantics
    tau_1(a,a')(x,y,z) = a(a'(x,y),z),
    tau_2(a,a')(x,y,z) = a(a'(y,z),x),
    tau_3(a,a')(x,y,z) = a(a'(z,x),y),
from which the permutation action on the basis is derived.

The dual pairing is tau-diagonal with sign vector (+1,+1,+1): this is the
convention pinned down by the involution identities and the dual-of-full spot
checks; a regression test freezes it.

The eight products are one function, boqd_product, and the dual is
boqd_dual, the exactlin annihilator of the relations.  The interchange laws
between products are not restated here: qd.interchange states them once for
quadratic data and for these data, with boqd_product as its product.
"""

from functools import cached_property, lru_cache
from itertools import product
from math import gcd

from .exactlin import (
    LinearMap,
    Subspace,
    annihilator,
    compose_cols,
    perp_rows,
    quotient_images,
)
from .graded import (
    GradedSpace,
    direct_sum,
    dual,
    tensor_product,
)
from .kernel import echelon_rows
from .qd import _map_tensor, sum_relation_rows


class S2Module:
    """Graded space with the binary-transposition involution.  Modules are
    equal when their spaces and actions are, and hash by them."""

    # __dict__ holds the cached arity3
    __slots__ = ("space", "action", "__dict__")

    def __init__(self, space, action):
        self.space = space
        self.action = action
        cols = action.cols
        if action.source != space or action.target != space:
            raise ValueError("action does not act on the module")
        if compose_cols(cols, cols) != [{i: 1} for i in range(space.dim)]:
            raise ValueError("the transposition action must be an involution")
        if any(space.degrees[t] != space.degrees[i]
               for i, col in enumerate(cols) for t in col):
            raise ValueError("the transposition action must keep degrees")

    def __eq__(self, other):
        if other.__class__ is not S2Module:
            return NotImplemented
        return (self.space, self.action) == (other.space, other.action)

    def __hash__(self):
        return hash((self.space, self.action))

    @property
    def dim(self):
        return self.space.dim

    @cached_property
    def arity3(self):
        """The arity-3 component of the free operad on this module, built
        once per module."""
        return Arity3Space(self)

    def eigenbasis(self):
        """(even vectors, odd vectors): RREF bases of the +1 and -1
        eigenspaces, the images of 1 + u and 1 - u."""
        def image(sign):
            rows = []
            for i, col in enumerate(self.action.cols):
                row = {c: sign * v for c, v in col.items()}
                row[i] = row.get(i, 0) + 1
                rows.append(row)
            return echelon_rows(rows)
        return image(1), image(-1)


def trivial_module(space):
    return S2Module(space, LinearMap.identity(space))


@lru_cache(maxsize=1024)
def _tau_ambient(sp):
    """The tau basis over sp as a graded space: one per generator space,
    shared by every module on it in the process."""
    return GradedSpace(
        tuple(
            "τ%d(%s,%s)" % (i, la, lb)
            for i in (1, 2, 3)
            for la in sp.labels
            for lb in sp.labels
        ),
        tuple(da + db for da in sp.degrees for db in sp.degrees) * 3,
        tuple(ka + kb for ka in sp.odds for kb in sp.odds) * 3,
    )


class Arity3Space:
    """tau basis of the arity-3 free-operad component on an involutive module,
    with the derived permutation action on rows: S3 is generated by (12)
    and (123)."""

    def __init__(self, base):
        self.base = base
        self.d = base.dim
        self.ambient = _tau_ambient(base.space)

    @property
    def dim(self):
        return 3 * self.d * self.d

    def index(self, i, a, b):
        d = self.d
        return (i - 1) * d * d + a * d + b

    def rotate(self, row):
        """(123) on a tau row: tau_i(a,b) -> tau_{i+1}(a,b), i mod 3."""
        d2 = self.d * self.d
        return {(c + d2) % (3 * d2): v for c, v in row.items()}

    def swap(self, row):
        """(12) on a tau row: tau_1(a,b) -> tau_1(a,ub) and tau_2(a,b) <->
        tau_3(a,ub), with u the involution of the base module."""
        d = self.d
        u = self.base.action.cols
        out = {}
        for c, v in row.items():
            i, rest = divmod(c, d * d)
            a, b = divmod(rest, d)
            first = ((-i) % 3 * d + a) * d
            for bb, x in u[b].items():
                k = first + bb
                w = out.get(k, 0) + v * x
                if w:
                    out[k] = w
                elif k in out:
                    del out[k]
        return out

    def tau_row(self, i, rowa, rowb):
        """Bilinear tau_i on coordinate rows of the base module; distinct
        pairs (a, b) are distinct columns."""
        return {self.index(i, a, b): va * vb
                for a, va in rowa.items() for b, vb in rowb.items()}


class BOQDData:
    """An involutive module and an S3-closed relation subspace of its
    arity-3 component, checked on construction.  Data are equal when both
    are, and hash by them."""

    __slots__ = ("generators", "relations")

    def __init__(self, generators, relations):
        self.generators = generators
        self.relations = relations
        space = generators.arity3
        if relations.ambient != space.ambient:
            raise ValueError("relations do not live in the arity-3 component")
        for row in relations.rows:
            if not (relations.contains(space.swap(row))
                    and relations.contains(space.rotate(row))):
                raise ValueError("relations are not closed under the S3 action")

    def __eq__(self, other):
        if other.__class__ is not BOQDData:
            return NotImplemented
        return ((self.generators, self.relations)
                == (other.generators, other.relations))

    def __hash__(self):
        return hash((self.generators, self.relations))

    @property
    def space(self):
        return self.generators.arity3

    @property
    def gdim(self):
        return self.generators.dim

    @property
    def rdim(self):
        return self.relations.dim


def make_boqd(module, rows):
    space = module.arity3
    return BOQDData(module, Subspace(space.ambient, list(rows)))


def com_data(label="c"):
    """One even invariant generator with the associativity-like relations
    tau_1 - tau_2, tau_2 - tau_3 (fully commutative binary structure)."""
    mod = trivial_module(GradedSpace((label,), (0,)))
    sp = mod.arity3
    rows = [
        {sp.index(1, 0, 0): 1, sp.index(2, 0, 0): -1},
        {sp.index(2, 0, 0): 1, sp.index(3, 0, 0): -1},
    ]
    return make_boqd(mod, rows)


# ---------------------------------------------------------------------------
# products


def _module_sum(a, b):
    ma, mb = a.generators, b.generators
    gens = direct_sum(ma.space, mb.space)
    na = ma.dim
    cols = [dict(ma.action.cols[i]) for i in range(na)]
    cols += [{na + c: v for c, v in mb.action.cols[i].items()} for i in range(mb.dim)]
    return S2Module(gens, LinearMap(gens, gens, cols))


def _module_tensor(a, b):
    """Hadamard product with the diagonal involution."""
    gens = tensor_product(a.generators.space, b.generators.space)
    return S2Module(
        gens, _map_tensor(a.generators.action, b.generators.action, gens, gens)
    )


def _circ1_rows(space, outer_range, inner_range):
    """span{tau_i(y, x)} for y in the outer block, x in the inner block."""
    rows = []
    for i in (1, 2, 3):
        for y in outer_range:
            for x in inner_range:
                rows.append({space.index(i, y, x): 1})
    return rows


def _matched_pair_rows(space, a, b, sign):
    """tau_i(a,b) + sign tau_i(b,a) over parity-matched eigenvectors, plus
    (for sign = -1) the single terms on mixed-parity pairs."""
    na = a.gdim
    ea_p, ea_m = a.generators.eigenbasis()
    eb_p, eb_m = b.generators.eigenbasis()
    rows = []
    def shift_b(row):
        return {na + c: v for c, v in row.items()}
    for pa, pb in ((ea_p, eb_p), (ea_m, eb_m)):
        for ra in pa:
            for rb in pb:
                rbs = shift_b(rb)
                for i in (1, 2, 3):
                    # tau_i(a,b) and tau_i(b,a) lie in disjoint blocks
                    row = space.tau_row(i, ra, rbs)
                    for c, v in space.tau_row(i, rbs, ra).items():
                        row[c] = sign * v
                    rows.append(row)
    if sign == -1:
        for pa, pb in ((ea_p, eb_m), (ea_m, eb_p)):
            for ra in pa:
                for rb in pb:
                    rbs = shift_b(rb)
                    for i in (1, 2, 3):
                        rows.append(space.tau_row(i, ra, rbs))
                        rows.append(space.tau_row(i, rbs, ra))
    return rows


def _pair_image_rows(cols, dim_b, rows_a, rows_b):
    """The image of the pairs of rows_a and rows_b under a signed column map
    cols, one row per pair: cols sends ca * dim_b + cb to (column, sign), and
    a term it does not list dies.  The map is injective, so no two terms of
    a pair share a column."""
    out = []
    for ra in rows_a:
        for rb in rows_b:
            acc = {}
            for ca, va in ra.items():
                base = ca * dim_b
                for cb, vb in rb.items():
                    hit = cols.get(base + cb)
                    if hit:
                        acc[hit[0]] = hit[1] * va * vb
            out.append(acc)
    return out


def _diagonal_cols(a, b):
    """The tree duplication T(A (x) B)(3) -> T(A)(3) (x) T(B)(3) on columns,
    a column of the right side coded ca * 3 db^2 + cb as _pair_image_rows
    reads it.  It hits only the tau-diagonal columns tau_i(x,x') (x)
    tau_i(y,y'); each maps to (column tau_i(x(x)y, x'(x)y') of the product,
    sign (-1)^{|x'||y| + |x||y'|}).
    That Koszul sign is symmetric under swapping both argument pairs.  The
    laws the suites check also hold without it, so a test pins it."""
    da, db = a.gdim, b.gdim
    dega = a.generators.space.degrees
    degb = b.generators.space.degrees
    dab = da * db
    out = {}
    for i, x, xp, y, yp in product(range(3), range(da), range(da),
                                   range(db), range(db)):
        ca = (i * da + x) * da + xp
        cb = (i * db + y) * db + yp
        col = (i * dab + x * db + y) * dab + xp * db + yp
        odd = (dega[xp] * degb[y] + dega[x] * degb[yp]) % 2
        out[ca * 3 * db * db + cb] = (col, -1 if odd else 1)
    return out


def _white_rows(a, b, cols):
    """The white product's relations: the preimage under the tree
    duplication of R_A (x) T_B(3) + T_A(3) (x) R_B, which is S3-stable
    because that space is and the duplication is equivariant.  It is the
    kernel of the duplication followed by the quotient onto
    T_A(3)/R_A (x) T_B(3)/R_B, which sends each product column to its
    signed image over p_A p_B: perp_rows solves the integer images, and
    each column of a solution is scaled back by its p_A p_B.  A positive
    column scaling keeps RREF rows RREF, up to their content.  cols is the
    duplication as _diagonal_cols codes it."""
    dim_b3 = b.space.dim
    images_a, images_b = quotient_images(a.relations), quotient_images(b.relations)
    scales = [0] * len(cols)
    images = {}
    for c, (col, sign) in cols.items():
        (ia, pa), (ib, pb) = images_a[c // dim_b3], images_b[c % dim_b3]
        scales[col] = pa * pb
        for x, u in ia.items():
            for y, v in ib.items():
                images.setdefault(x * dim_b3 + y, {})[col] = sign * u * v
    rows = []
    for row in perp_rows(images.values(), len(scales)):
        row = {c: v * scales[c] for c, v in row.items()}
        g = gcd(*row.values())
        rows.append({c: v // g for c, v in row.items()})
    return rows


# the unit tau blocks each direct-sum product adds to R_A + R_B, as (outer,
# inner) summands, 0 for A and 1 for B: all tau_i(y, x) with y in the outer
# summand and x in the inner one.  tril takes the relations of A, then
# B1 o1 A1 = span tau_i(a, b), then the relations of B
_BLOCKS = {"vee": (), "oplus": ((1, 0), (0, 1)), "tril": ((0, 1),),
           "trir": ((1, 0),)}


@lru_cache(maxsize=32)
def boqd_product(name, a, b):
    """One of the eight products, named in lower case.  Each relation span is
    S3-stable as built, so no closure is taken; BOQDData still checks it.
    vee is R_A + R_B; oplus, tril and trir add the whole tau blocks _BLOCKS
    lists, which rotate permutes and swap keeps; ucirc and circ take all
    three tau_i of each eigenvector pair; black and white are an image and a
    preimage under the equivariant tree duplication.  vee, oplus, tril, trir
    and white store their rows as built, which are canonical; black, ucirc
    and circ eliminate theirs.  Each distinct product is built and checked
    once per process, in a bounded cache; the results are shared, so
    read-only."""
    if name in ("black", "white"):
        mod = _module_tensor(a, b)
        cols = _diagonal_cols(a, b)
        if name == "black":
            # images of row pairs can collide or vanish: eliminate
            return make_boqd(mod, _pair_image_rows(
                cols, b.space.dim, a.relations.rows, b.relations.rows))
        # canonical RREF rows of one elimination, each column scaled alike
        rows = _white_rows(a, b, cols)
        return BOQDData(mod, Subspace.from_rref(mod.arity3.ambient, rows))
    mod = _module_sum(a, b)
    space = mod.arity3
    rows = sum_relation_rows(a.generators.space, b.generators.space,
                             a.relations.rows, b.relations.rows, None)
    if name in ("ucirc", "circ"):
        # the eigenbases of A and B are not jointly echelon: eliminate
        return make_boqd(mod, rows + _matched_pair_rows(
            space, a, b, 1 if name == "ucirc" else -1))
    if name not in _BLOCKS:
        raise ValueError(name)
    summands = (range(a.gdim), range(a.gdim, mod.dim))
    for outer, inner in _BLOCKS[name]:
        rows += _circ1_rows(space, summands[outer], summands[inner])
    # the rows are canonical as built: R_A, R_B and the unit tau-block rows
    # have disjoint supports, and the embedding is monotone on columns, so
    # it keeps each canonical row of R_A and R_B column-sorted
    return BOQDData(mod, Subspace.from_rref(space.ambient, rows))


# ---------------------------------------------------------------------------
# duality


def _dual_module(m):
    dspace = dual(m.space)
    # contragredient of an involution is its transpose
    cols = [{} for _ in range(m.dim)]
    for j, col in enumerate(m.action.cols):
        for i, v in col.items():
            cols[i][j] = v
    return S2Module(dspace, LinearMap(dspace, dspace, cols))


@lru_cache(maxsize=32)
def boqd_dual(a):
    """(generators*, relations^perp) with the tau-diagonal pairing, the
    annihilator under the all-plus signs; each distinct dual is built and
    checked once per process, in a bounded cache, and is shared, so
    read-only."""
    dmod = _dual_module(a.generators)
    return BOQDData(dmod, annihilator(
        a.relations, dmod.arity3.ambient, (1,) * a.space.dim))
