"""Quadratic data: flavors, morphisms, monoidal products, duality functors,
interchange laws, and the commutative-diagram face checks.

A quadratic datum is a graded generator space V together with a relation
subspace R stored inside the tensor-square ambient of V; the symmetric and
skew flavors additionally constrain R to the signed (anti)symmetric part.
"""

import json
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import gcd

from .exactlin import (
    AmbientMismatch,
    LinearMap,
    Subspace,
    Vector,
    annihilator,
    perp_in_span,
    quotient_images,
    signed_rows,
    zero_space,
)
from .graded import (
    GradedSpace,
    ZERO,
    braiding_map,
    direct_sum,
    dual,
    in_signed_square,
    mixed_bracket,
    rows_from_json,
    rows_to_json,
    shift,
    shift_square_map,
    signed_square,
    space_from_json,
    space_to_json,
    square,
    tensor_product,
    word_sign,
)
from .report import Report


class QDFlavor(str, Enum):
    PLAIN = "plain"
    SYM = "symmetric"
    SKEW = "skew"


# the sign of the square that symmetric and skew relations live in
SQUARE_SIGN = {QDFlavor.SYM: 1, QDFlavor.SKEW: -1}


class FlavorViolation(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class FlavorMismatch(ValueError):
    pass


@dataclass(frozen=True)
class QuadraticData:
    flavor: QDFlavor
    generators: GradedSpace
    relations: Subspace

    def __post_init__(self):
        amb = square(self.generators)
        if self.relations.ambient != amb:
            raise AmbientMismatch("relations do not live in the generator square")
        sign = SQUARE_SIGN.get(self.flavor)
        if sign is not None:
            for row in self.relations.rows:
                if not in_signed_square(self.generators, row, sign):
                    raise FlavorViolation(
                        "relation escapes the %s square" % self.flavor.value,
                        witness=Vector(amb, dict(row)),
                    )

    @property
    def gdim(self):
        return self.generators.dim

    @property
    def rdim(self):
        return self.relations.dim

    def __repr__(self):
        return "QuadraticData(%s, gens=%d, rels=%d)" % (
            self.flavor.value,
            self.gdim,
            self.rdim,
        )


def make_qd(flavor, v, r):
    """Validate and build; r is a Subspace or an iterable of sparse rows."""
    flavor = QDFlavor(flavor)
    if not isinstance(r, Subspace):
        r = Subspace(square(v), list(r))
    return QuadraticData(flavor, v, r)


def qd_zero(flavor=QDFlavor.PLAIN):
    return QuadraticData(QDFlavor(flavor), ZERO, zero_space(square(ZERO)))


def black_unit():
    """Classical unit for the black product: one even generator, full relation."""
    v = GradedSpace(("e•",), (0,))
    return make_qd(QDFlavor.PLAIN, v, [{0: 1}])


def white_unit():
    """Classical unit for the white product: one even generator, no relations."""
    v = GradedSpace(("e∘",), (0,))
    return make_qd(QDFlavor.PLAIN, v, [])


def square_apply_rows(f, rows):
    """Push sparse rows through f(x)f (f of degree 0).

    Rows live in the square of f's source, or in the arity-3 tau basis over
    it: a column past the square is read as a tau-block index, and f(x)f acts
    block-wise, tau_i(x, x') -> tau_i(f x, f x').
    """
    ns, nt = f.source.dim, f.target.dim
    out = []
    for row in rows:
        acc = {}
        for col, coeff in row.items():
            i, j = divmod(col, ns)
            b, i = divmod(i, ns)
            for r1, v1 in f.cols[i].items():
                for r2, v2 in f.cols[j].items():
                    k = (b * nt + r1) * nt + r2
                    w = acc.get(k, 0) + coeff * v1 * v2
                    if w:
                        acc[k] = w
                    elif k in acc:
                        del acc[k]
        out.append(acc)
    return out


def check_morphism(f, a, b):
    """Whether f(x)f maps the relations of a into those of b."""
    if a.flavor is not b.flavor:
        raise FlavorMismatch("morphisms require matching flavors")
    if f.source != a.generators or f.target != b.generators:
        raise AmbientMismatch("map does not match generator ambients")
    for i, col in enumerate(f.cols):
        d = a.generators.degrees[i]
        for r in col:
            if b.generators.degrees[r] != d:
                raise ValueError("generator map is not of degree zero")
    return escaping_image(f, a.relations.rows, b.relations) is None


def escaping_image(f, rows, target):
    """The first image of rows under f(x)f that the subspace target does not
    contain, or None.  An empty image is contained and takes no query: the
    compositions of the operad families send about a quarter of their
    relation rows to zero."""
    for img in square_apply_rows(f, rows):
        if img and not target.contains(img):
            return img
    return None


def _embed_rows(rows, ns, offset, nt):
    """Re-index rows of the square of an ns-dimensional space into the square
    of an nt-dimensional one holding it at generators offset, offset + 1, ...
    As in square_apply_rows, a column past the square is a tau-block index."""
    out = []
    for row in rows:
        new = {}
        for col, v in row.items():
            i, j = divmod(col, ns)
            b, i = divmod(i, ns)
            new[(b * nt + i + offset) * nt + j + offset] = v
        out.append(new)
    return out


def sum_relation_rows(va, vb, rows_a, rows_b, bracket_sign):
    """Rows spanning R_a ⊕ [A,B]_± ⊕ R_b inside square(va ⊕ vb), where
    rows_a and rows_b are sparse rows of square(va) and square(vb), or tau
    rows over them; bracket_sign None drops the middle summand."""
    na, nt = va.dim, va.dim + vb.dim
    rows = _embed_rows(rows_a, na, 0, nt)
    rows += _embed_rows(rows_b, vb.dim, na, nt)
    if bracket_sign is not None:
        rows += mixed_bracket(va, vb, bracket_sign)
    return rows


def _s23_parts(va, vb):
    """The middle swap S_(23): square(va) (x) square(vb) -> square(va (x) vb),
    (x1 x2) (x) (x3 x4) -> (x1 x3)(x2 x4) with the Koszul sign
    (-1)^{|x2||x3|}, as the separable map it is: one (column offset, odd
    bit) per column of each square, so that e_ca (x) e_cb goes to the sum
    of the two offsets, negated iff both bits are set."""
    na, nb = va.dim, vb.dim
    nt = na * nb
    return ([(i * nb * nt + j * nb, va.degrees[j] % 2)
             for i in range(na) for j in range(na)],
            [(k * nt + l, vb.degrees[k] % 2)
             for k in range(nb) for l in range(nb)])


def _s23_row(parts, terms):
    """The image under S_(23), coded by _s23_parts, of the sum of
    v e_ca (x) e_cb over (ca, cb, v) in terms, each pair (ca, cb) once, as a
    column-sorted primitive row with a positive lead."""
    parts_a, parts_b = parts
    row = []
    for ca, cb, v in terms:
        (oa, sa), (ob, sb) = parts_a[ca], parts_b[cb]
        row.append((oa + ob, -v if sa & sb else v))
    row.sort()
    g = gcd(*(v for _, v in row)) * (1 if row[0][1] > 0 else -1)
    return {c: v // g for c, v in row}


class ProductName(str, Enum):
    TENSOR = "tensor"
    UTENSOR = "utensor"
    VEE = "vee"
    OPLUS = "oplus"
    BLACK = "black"
    WHITE = "white"


# the products defined on data of each flavor; each keeps the flavor
PRODUCTS = {
    QDFlavor.PLAIN: (ProductName.TENSOR, ProductName.UTENSOR,
                     ProductName.BLACK, ProductName.WHITE),
    QDFlavor.SYM: (ProductName.UTENSOR, ProductName.VEE),
    QDFlavor.SKEW: (ProductName.OPLUS,),
}

# the bracket sign of each direct-sum product (None: no bracket); a product
# not listed is built behind the middle swap S_(23)
_BRACKET = {ProductName.TENSOR: -1, ProductName.OPLUS: -1,
            ProductName.UTENSOR: +1, ProductName.VEE: None}


def monoidal_product(name, a, b):
    name = ProductName(name)
    if a.flavor is not b.flavor or name not in PRODUCTS[a.flavor]:
        raise FlavorMismatch(
            "product %s is not defined on flavors (%s, %s)"
            % (name.value, a.flavor.value, b.flavor.value)
        )
    va, vb = a.generators, b.generators
    if name in _BRACKET:
        # the rows are canonical as built: R_A, R_B and the bracket rows
        # have disjoint supports, the embedding keeps the column order of
        # each canonical row of R_A and R_B, and each bracket row is led at
        # x (x) y by a 1 that no other row holds
        gens = direct_sum(va, vb)
        rels = Subspace.from_rref(square(gens), sum_relation_rows(
            va, vb, a.relations.rows, b.relations.rows, _BRACKET[name]))
    else:
        # the rows are canonical as built.  Each row below has its other
        # terms at pairs (ca', cb') with ca' >= ca and cb' >= cb of its lead
        # pair (ca, cb), and S_(23), which orders columns as (i, k, j, l),
        # keeps the lead first among them; _s23_row makes the row primitive
        gens = tensor_product(va, vb)
        parts, rows_a, rows_b = _s23_parts(va, vb), a.relations.rows, b.relations.rows
        if name is ProductName.BLACK:
            # R_A (x) R_B: ra (x) rb is led at (lead ra, lead rb), alone
            rows = [_s23_row(parts, ((ca, cb, x * y) for ca, x in ra.items()
                                     for cb, y in rb.items()))
                    for ra in rows_a for rb in rows_b]
        else:
            # R_A (x) T_B + T_A (x) R_B is the kernel of the quotient onto
            # T_A/R_A (x) T_B/R_B, where p e_c = q(c), q(c) = e_c off the
            # pivots and past c at a pivot; its row at each pair (ca, cb) with
            # a pivot is p_A p_B e_(ca, cb) - q_A (x) q_B, the rest off pivots
            images_a, images_b = quotient_images(a.relations), quotient_images(b.relations)
            pivots_a = {next(iter(r)) for r in rows_a}
            pivots_b = [next(iter(r)) for r in rows_b]
            rows = []
            for ca, (qa, pa) in enumerate(images_a):
                for cb in range(len(images_b)) if ca in pivots_a else pivots_b:
                    qb, pb = images_b[cb]
                    rows.append(_s23_row(parts, [(ca, cb, pa * pb)] + [
                        (x, y, -u * v) for x, u in qa.items() for y, v in qb.items()]))
        rels = Subspace.from_rref(square(gens), rows)
    return QuadraticData(a.flavor, gens, rels)


class FunctorName(str, Enum):
    LAMBDA = "lambda"
    SIGMA = "sigma"
    SCRIPT_S = "script_s"
    ANTISHRIEK = "antishriek"
    ANTISHRIEK_INV = "antishriek_inv"
    STAR = "star"
    SHRIEK = "shriek"


def _reflavor(a, expect, out_flavor, extra_rows=None):
    if a.flavor is not expect:
        raise FlavorMismatch("functor expects %s data" % expect.value)
    rels = a.relations
    if extra_rows:
        rels = Subspace(rels.ambient, list(rels.rows) + list(extra_rows))
    return QuadraticData(out_flavor, a.generators, rels)


def _shift_qd(a, step):
    """(V, R) -> (sV, s^2 R): generators shift once, so each relation (a
    subspace of the tensor square) shifts by two degrees.  The square map
    is a signed identity on columns, so each stored row keeps its support
    and stays canonical, negated when its lead turns negative."""
    sv = shift(a.generators, step)
    signs = [col[c] for c, col in enumerate(shift_square_map(a.generators, step).cols)]
    rows = []
    for row in a.relations.rows:
        flip = signs[next(iter(row))]
        rows.append({c: v * signs[c] * flip for c, v in row.items()})
    swapped = {QDFlavor.SYM: QDFlavor.SKEW, QDFlavor.SKEW: QDFlavor.SYM}
    return QuadraticData(swapped.get(a.flavor, a.flavor), sv,
                         Subspace.from_rref(square(sv), rows))


def apply_functor(name, a):
    """The image of `a` under the functor `name` (a FunctorName or its value).

    Data are frozen, so each image is built once per (functor, datum) and
    shared by every caller."""
    return _functor_image(FunctorName(name), a)


@lru_cache(maxsize=1024)
def _functor_image(name, a):
    if name is FunctorName.LAMBDA:
        return _reflavor(a, QDFlavor.SKEW, QDFlavor.PLAIN)
    if name is FunctorName.SIGMA:
        return _reflavor(a, QDFlavor.SYM, QDFlavor.PLAIN)
    if name is FunctorName.SCRIPT_S:
        extra = signed_square(a.generators, SQUARE_SIGN[QDFlavor.SKEW]).rows
        return _reflavor(a, QDFlavor.SYM, QDFlavor.PLAIN, extra_rows=extra)
    if name is FunctorName.ANTISHRIEK:
        return _shift_qd(a, +1)
    if name is FunctorName.ANTISHRIEK_INV:
        return _shift_qd(a, -1)
    if name is FunctorName.STAR:
        # R^perp under the Koszul pairing; on symmetric or skew data, solved
        # in the coordinates of the rows of the signed square
        dv = dual(a.generators)
        signs = [word_sign(k) for k in a.relations.ambient.odds]
        sign = SQUARE_SIGN.get(a.flavor)
        if sign is None:
            ann = annihilator(a.relations, square(dv), signs)
        else:
            ann = Subspace.from_rref(square(dv), perp_in_span(
                signed_square(dv, sign).rows, signed_rows(a.relations.rows, signs),
                len(signs)))
        return QuadraticData(a.flavor, dv, ann)
    if name is FunctorName.SHRIEK:
        return apply_functor(FunctorName.STAR, apply_functor(FunctorName.ANTISHRIEK, a))
    raise ValueError(name)


# ---------------------------------------------------------------------------
# Interchange laws


def _blocks14(a, ap, b, bp):
    """Indices in (A ⊕ A') (x) (B ⊕ B') of the A (x) B and A' (x) B' blocks,
    in the order of (A (x) B) ⊕ (A' (x) B')."""
    na, nb, nw = a.dim, b.dim, b.dim + bp.dim
    return [u * nw + w for u in range(na) for w in range(nb)] + [
        u * nw + w for u in range(na, na + ap.dim) for w in range(nb, nw)
    ]


def _ambients14(a, ap, b, bp):
    return (
        tensor_product(direct_sum(a, ap), direct_sum(b, bp)),
        direct_sum(tensor_product(a, b), tensor_product(ap, bp)),
    )


def pr14_map(a, ap, b, bp):
    """pr14: (A ⊕ A') (x) (B ⊕ B') -> (A (x) B) ⊕ (A' (x) B') on generator
    spaces, killing the two mixed blocks."""
    whole, blocks = _ambients14(a, ap, b, bp)
    cols = [{} for _ in range(whole.dim)]
    for k, u in enumerate(_blocks14(a, ap, b, bp)):
        cols[u] = {k: 1}
    return LinearMap(whole, blocks, cols)


def inj14_map(a, ap, b, bp):
    """inj14: (A (x) B) ⊕ (A' (x) B') -> (A ⊕ A') (x) (B ⊕ B'), the
    transpose of pr14."""
    whole, blocks = _ambients14(a, ap, b, bp)
    return LinearMap(blocks, whole, [{u: 1} for u in _blocks14(a, ap, b, bp)])


def interchange(product, box, dia, lax, data, spaces):
    """The interchange of box and dia on data (A, A', B, B'), whose generator
    spaces are spaces, as (source, target, map); product(name, x, y) builds a
    product.  Its two sides are (A dia A') box (B dia B') and
    (A box B) dia (A' box B').  A lax pair maps the first to the second by
    pr14, a colax pair the second to the first by inj14."""
    a, ap, b, bp = data
    first = product(box, product(dia, a, ap), product(dia, b, bp))
    second = product(dia, product(box, a, b), product(box, ap, bp))
    if lax:
        return first, second, pr14_map(*spaces)
    return second, first, inj14_map(*spaces)


def interchange_holds(product, box, dia, lax, data, spaces):
    """Whether the interchange map sends the relations of its source into
    those of its target."""
    src, tgt, f = interchange(product, box, dia, lax, data, spaces)
    return escaping_image(f, src.relations.rows, tgt.relations) is None


# ---------------------------------------------------------------------------
# Serialization


def qd_to_json(a):
    return {
        "flavor": a.flavor.value,
        "generators": space_to_json(a.generators),
        "relations": rows_to_json(a.relations.rows, a.gdim * a.gdim),
    }


def qd_from_json(doc):
    if not isinstance(doc, dict):
        raise ValueError("quadratic data %r is not a JSON object" % (doc,))
    for key in ("flavor", "generators", "relations"):
        if key not in doc:
            raise ValueError("quadratic data has no %r entry" % key)
    gens = space_from_json(doc["generators"])
    rows = rows_from_json(doc["relations"], gens.dim ** 2)
    return make_qd(doc["flavor"], gens, rows)


def qd_loads(s):
    return qd_from_json(json.loads(s))


# ---------------------------------------------------------------------------
# coherence checks: units, associativity, braiding, strong monoidality


def _swap_map(name, a, b):
    """Generator-level braiding a.b -> b.a for each product."""
    if ProductName(name) not in _BRACKET:
        return braiding_map(a.generators, b.generators)
    va, vb = a.generators, b.generators
    src = direct_sum(va, vb)
    tgt = direct_sum(vb, va)
    cols = [{vb.dim + i: 1} for i in range(va.dim)]
    cols += [{i: 1} for i in range(vb.dim)]
    return LinearMap(src, tgt, cols)


def check_unit_laws(a):
    """The zero datum is a strict two-sided unit for the direct-sum products;
    the one-generator units for the dot products are verified up to the
    canonical generator identification and flagged as convention."""
    out = []
    zero = qd_zero(a.flavor)
    for name in PRODUCTS[a.flavor]:
        if name in _BRACKET:
            ok = monoidal_product(name, zero, a) == a == monoidal_product(name, a, zero)
            out.append(Report("unit.%s" % name.value, ok, ""))
            continue
        unit = black_unit() if name is ProductName.BLACK else white_unit()
        ok = True
        for prod in (monoidal_product(name, unit, a), monoidal_product(name, a, unit)):
            ident = LinearMap(prod.generators, a.generators,
                              [{i: 1} for i in range(a.gdim)])
            ok = ok and prod.rdim == a.rdim and check_morphism(ident, prod, a)
        out.append(Report("unit.%s" % name.value, ok,
                          "one-generator unit, canonical identification (convention)"))
    return out


def check_associativity(name, a, b, c):
    """Label-strict associativity: flat label tuples make both bracketings
    literally equal."""
    left = monoidal_product(name, monoidal_product(name, a, b), c)
    right = monoidal_product(name, a, monoidal_product(name, b, c))
    return left == right


def check_braiding(name, a, b):
    """a.b = b.a under the Koszul-signed swap, as an isomorphism of data."""
    ab = monoidal_product(name, a, b)
    ba = monoidal_product(name, b, a)
    f = _swap_map(name, a, b)
    g = _swap_map(name, b, a)
    return check_morphism(f, ab, ba) and check_morphism(g, ba, ab)


STRONG_MONOIDALITY_TABLE = (
    # (functor, source flavor, source product, target product)
    (FunctorName.LAMBDA, QDFlavor.SKEW, ProductName.OPLUS, ProductName.TENSOR),
    (FunctorName.SIGMA, QDFlavor.SYM, ProductName.UTENSOR, ProductName.UTENSOR),
    (FunctorName.SCRIPT_S, QDFlavor.SYM, ProductName.VEE, ProductName.TENSOR),
    (FunctorName.ANTISHRIEK, QDFlavor.SKEW, ProductName.OPLUS, ProductName.UTENSOR),
    (FunctorName.ANTISHRIEK, QDFlavor.PLAIN, ProductName.TENSOR, ProductName.UTENSOR),
    (FunctorName.STAR, QDFlavor.SYM, ProductName.UTENSOR, ProductName.VEE),
    (FunctorName.STAR, QDFlavor.PLAIN, ProductName.UTENSOR, ProductName.TENSOR),
    (FunctorName.SHRIEK, QDFlavor.SKEW, ProductName.OPLUS, ProductName.VEE),
    (FunctorName.SHRIEK, QDFlavor.PLAIN, ProductName.TENSOR, ProductName.TENSOR),
)


def check_strong_monoidality(functor, src_product, tgt_product, a, b):
    """F(a . b) equals F(a) . F(b) on the nose after the canonical label
    identifications (stars distribute over summands, shifts prefix them)."""
    lhs = apply_functor(functor, monoidal_product(src_product, a, b))
    rhs = monoidal_product(tgt_product, apply_functor(functor, a), apply_functor(functor, b))
    return lhs == rhs


def check_phi_psi_star_duality(a, ap, b, bp):
    """The two interchange laws are exchanged by linear duality: dualizing
    phi's source and target yields psi's target and source on the dual data,
    and the transpose of the projection is the inclusion."""
    def law(box, dia, lax, data):
        return interchange(monoidal_product, box, dia, lax, data,
                           [x.generators for x in data])

    phi_src, phi_tgt, pr = law("black", "utensor", True, (a, ap, b, bp))
    if not check_morphism(pr, phi_src, phi_tgt):
        return False
    duals = [apply_functor(FunctorName.STAR, x) for x in (a, ap, b, bp)]
    psi_src, psi_tgt, inj = law("white", "tensor", False, duals)
    if not check_morphism(inj, psi_src, psi_tgt):
        return False
    if apply_functor(FunctorName.STAR, phi_tgt) != psi_src:
        return False
    if apply_functor(FunctorName.STAR, phi_src) != psi_tgt:
        return False
    transpose = [
        {j: v for j, col in enumerate(pr.cols) for i2, v in col.items() if i2 == i}
        for i in range(pr.target.dim)
    ]
    return transpose == list(inj.cols)


def _map_tensor(f, g, src, tgt):
    """f (x) g on concatenated tensor labels (degree-0 maps, no signs)."""
    ns2 = g.source.dim
    nt2 = g.target.dim
    cols = []
    for i in range(f.source.dim):
        for j in range(ns2):
            col = {}
            for r1, v1 in f.cols[i].items():
                for r2, v2 in g.cols[j].items():
                    col[r1 * nt2 + r2] = v1 * v2
            cols.append(col)
    return LinearMap(src, tgt, cols)


def check_phi_associator_coherence(a, ap, b, bp, c, cp):
    """The two composites ((A utensor A') black (B utensor B')) black
    (C utensor C') -> (A black B black C) utensor (A' black B' black C')
    agree on generators and are relation-preserving."""
    ab = monoidal_product(ProductName.UTENSOR, a, ap)
    bb = monoidal_product(ProductName.UTENSOR, b, bp)
    cc = monoidal_product(ProductName.UTENSOR, c, cp)
    src = monoidal_product(ProductName.BLACK, monoidal_product(ProductName.BLACK, ab, bb), cc)
    tgt = monoidal_product(
        ProductName.UTENSOR,
        monoidal_product(ProductName.BLACK, monoidal_product(ProductName.BLACK, a, b), c),
        monoidal_product(ProductName.BLACK, monoidal_product(ProductName.BLACK, ap, bp), cp),
    )
    va, vap, vb, vbp, vc, vcp = (x.generators for x in (a, ap, b, bp, c, cp))
    # route 1: (phi_{A,A',B,B'} black id) then phi_{A black B, A' black B', C, C'}
    f1 = pr14_map(va, vap, vb, vbp)
    f2 = pr14_map(tensor_product(va, vb), tensor_product(vap, vbp), vc, vcp)
    step1 = _map_tensor(f1, LinearMap.identity(cc.generators), src.generators, f2.source)
    route1 = f2.compose(step1)
    # route 2: (id black phi_{B,B',C,C'}) then phi_{A, A', B black C, B' black C'}
    g1 = pr14_map(vb, vbp, vc, vcp)
    g2 = pr14_map(va, vap, tensor_product(vb, vc), tensor_product(vbp, vcp))
    step2 = _map_tensor(LinearMap.identity(ab.generators), g1, src.generators, g2.source)
    route2 = g2.compose(step2)
    if route1 != route2:
        return False
    return check_morphism(route1, src, tgt)


# ---------------------------------------------------------------------------
# commutative-diagram faces


# each face: the flavor of the data it is stated for and its two sides.  A
# side is a realisation, or None for the datum itself, after a chain of
# functors; a face without sides compares A with the PBW prediction.
FACES = {
    # shifting then flavor-forgetting commute
    "shift_square": (QDFlavor.SKEW, (None, "lambda", "antishriek"),
                     (None, "antishriek", "sigma")),
    # duality against the symmetric inclusion
    "sigma_perp": (QDFlavor.SYM, (None, "sigma", "star"), (None, "star", "script_s")),
    # the composite second-dual identity
    "lambda_perp": (QDFlavor.SKEW, (None, "lambda", "shriek"),
                    (None, "shriek", "script_s")),
    # cofree weights against the dual quotient
    "tensor_coalgebra_dual": (QDFlavor.PLAIN, ("Tc",), ("A", "star")),
    # cofree symmetric weights against the dual
    "sym_coalgebra_dual": (QDFlavor.SYM, ("Sc",), ("S", "star")),
    # cofree symmetric = cofree tensor on Sigma
    "sym_vs_cofree": (QDFlavor.SYM, ("Sc",), ("Tc", "sigma")),
    # enveloping-algebra weights from Lie data
    "envelope_pbw": (QDFlavor.SKEW,),
    # symmetric quotient = tensor quotient lift
    "sym_quotient": (QDFlavor.SYM, ("S",), ("A", "script_s")),
}


# the weight bound of every face that compares weight dimensions
FACE_WMAX = 3


def verify_diagram_face(face, a):
    from . import realize

    if face not in FACES:
        raise ValueError("unknown face %r" % face)
    flavor, *sides = FACES[face]
    if a.flavor is not flavor:
        raise FlavorMismatch("face needs %s data" % flavor.value)
    if not sides:
        return realize.ue_compare(a, FACE_WMAX)

    def side(realization, *functors):
        q = a
        for name in functors:
            q = apply_functor(name, q)
        if realization is None:
            return q
        return realize.hilbert_series(realization, q, FACE_WMAX)

    lhs, rhs = (side(*s) for s in sides)
    if sides[0][0] is None:
        return Report(face, lhs == rhs, "relation dims %d vs %d" % (lhs.rdim, rhs.rdim))
    return Report(face, lhs == rhs, "dims %s vs %s" % (lhs, rhs))
