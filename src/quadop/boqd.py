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
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .exactlin import (
    LinearMap,
    Subspace,
    Vector,
    nullspace_rows,
    rows_past,
)
from .graded import (
    GradedSpace,
    direct_sum,
    dual,
    rows_from_json,
    space_from_json,
    space_to_json,
    tensor_product,
)
from .kernel import EchelonBasis
from .qd import _map_tensor, inj14_map, pr14_map, square_apply_rows
from .report import Report

P_ID = (1, 2, 3)
P_12 = (2, 1, 3)
P_13 = (3, 2, 1)
P_23 = (1, 3, 2)
P_123 = (2, 3, 1)
P_132 = (3, 1, 2)
S3 = (P_ID, P_12, P_13, P_23, P_123, P_132)


def _compose_perm(s, t):
    """(s o t)(x) = s(t(x))."""
    return tuple(s[t[x] - 1] for x in range(3))


@dataclass(frozen=True)
class S2Module:
    """Graded space with the binary-transposition involution."""

    space: GradedSpace
    action: LinearMap

    def __post_init__(self):
        space = self.space
        if self.action.source != space or self.action.target != space:
            raise ValueError("action does not act on the module")
        if self.action.compose(self.action) != LinearMap.identity(space):
            raise ValueError("the transposition action must be an involution")

    @property
    def dim(self):
        return self.space.dim

    @cached_property
    def arity3(self):
        """The arity-3 component of the free operad on this module, built
        once per module so its permutation action maps are shared."""
        return Arity3Space(self)

    def eigenbasis(self):
        """(even vectors, odd vectors): bases of the +1 and -1 eigenspaces,
        as sparse coordinate rows."""
        plus, minus = [], []
        n = self.dim
        for i in range(n):
            img = self.action.apply_data({i: 1})
            for sign, box in ((1, plus), (-1, minus)):
                row = dict(img) if sign == 1 else {c: -v for c, v in img.items()}
                w = row.get(i, 0) + 1
                if w:
                    row[i] = w
                elif i in row:
                    del row[i]
                if row:
                    box.append(row)
        def reduce(rows):
            basis = EchelonBasis()
            out = []
            for r in rows:
                if basis.add(r):
                    out.append(r)
            return out
        return reduce(plus), reduce(minus)


def trivial_module(space):
    return S2Module(space, LinearMap.identity(space))


def sign_module(space):
    return S2Module(
        space, LinearMap(space, space, [{i: -1} for i in range(space.dim)])
    )


class Arity3Space:
    """tau basis of the arity-3 free-operad component on an involutive module,
    with the derived permutation action."""

    def __init__(self, base):
        self.base = base
        sp = base.space
        self.ambient = GradedSpace(
            tuple(
                "τ%d(%s,%s)" % (i, la, lb)
                for i in (1, 2, 3)
                for la in sp.labels
                for lb in sp.labels
            ),
            tuple(da + db for da in sp.degrees for db in sp.degrees) * 3,
            tuple(ka + kb for ka in sp.odds for kb in sp.odds) * 3,
        )
        self._acts = {}

    @property
    def dim(self):
        return 3 * self.base.dim * self.base.dim

    def index(self, i, a, b):
        d = self.base.dim
        return (i - 1) * d * d + a * d + b

    def _gen_action(self, perm):
        d = self.base.dim
        u = self.base.action
        cols = []
        if perm == P_123:
            for i in (1, 2, 3):
                nxt = i % 3 + 1
                for a in range(d):
                    for b in range(d):
                        cols.append({self.index(nxt, a, b): 1})
        elif perm == P_12:
            swap = {1: 1, 2: 3, 3: 2}
            for i in (1, 2, 3):
                for a in range(d):
                    for b in range(d):
                        col = {}
                        for bb, v in u.cols[b].items():
                            col[self.index(swap[i], a, bb)] = v
                        cols.append(col)
        else:
            raise ValueError(perm)
        return LinearMap(self.ambient, self.ambient, cols)

    def action(self, perm):
        perm = tuple(perm)
        if perm not in self._acts:
            if perm == P_ID:
                m = LinearMap.identity(self.ambient)
            elif perm in (P_12, P_123):
                m = self._gen_action(perm)
            elif perm == P_132:
                c = self.action(P_123)
                m = c.compose(c)
            elif perm == P_23:
                # (23) = (12) o (123)
                m = self.action(P_12).compose(self.action(P_123))
            elif perm == P_13:
                # (13) = (123) o (12)
                m = self.action(P_123).compose(self.action(P_12))
            else:
                raise ValueError(perm)
            self._acts[perm] = m
        return self._acts[perm]

    def tau_row(self, i, rowa, rowb):
        """Bilinear tau_i on coordinate rows of the base module."""
        out = {}
        for a, va in rowa.items():
            for b, vb in rowb.items():
                c = self.index(i, a, b)
                w = out.get(c, 0) + va * vb
                if w:
                    out[c] = w
                elif c in out:
                    del out[c]
        return out


def free_arity3(module):
    return module.arity3


@dataclass(frozen=True)
class BOQDData:
    generators: S2Module
    relations: Subspace

    def __post_init__(self):
        space = free_arity3(self.generators)
        if self.relations.ambient != space.ambient:
            raise ValueError("relations do not live in the arity-3 component")
        for perm in (P_12, P_123):
            act = space.action(perm)
            for row in self.relations.rows:
                if not self.relations.contains(act.apply_data(row)):
                    raise ValueError("relations are not closed under the S3 action")

    @property
    def space(self):
        return free_arity3(self.generators)

    @property
    def gdim(self):
        return self.generators.dim

    @property
    def rdim(self):
        return self.relations.dim


def make_boqd(module, rows):
    space = free_arity3(module)
    return BOQDData(module, Subspace(space.ambient, list(rows)))


def s3_closure_rows(module, rows):
    """Close a set of arity-3 rows under the permutation action."""
    space = free_arity3(module)
    basis = EchelonBasis()
    queue = [dict(r) for r in rows]
    out = []
    acts = [space.action(P_12), space.action(P_123)]
    while queue:
        row = queue.pop()
        if basis.add(row):
            out.append(row)
            queue.extend(act.apply_data(row) for act in acts)
    return out


def com_data(label="c"):
    """One even invariant generator with the associativity-like relations
    tau_1 - tau_2, tau_2 - tau_3 (fully commutative binary structure)."""
    mod = trivial_module(GradedSpace((label,), (0,)))
    sp = free_arity3(mod)
    rows = [
        {sp.index(1, 0, 0): 1, sp.index(2, 0, 0): -1},
        {sp.index(2, 0, 0): 1, sp.index(3, 0, 0): -1},
    ]
    return make_boqd(mod, rows)


def zero_boqd():
    mod = trivial_module(GradedSpace((), ()))
    return make_boqd(mod, [])


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


def _embed_arity3_rows(rows, src_dim, offset, tgt_dim):
    """Re-index tau rows of arity3(A) into arity3(A ⊕ B)."""
    out = []
    d2s = src_dim * src_dim
    d2t = tgt_dim * tgt_dim
    for row in rows:
        new = {}
        for col, v in row.items():
            i, rest = divmod(col, d2s)
            aa, bb = divmod(rest, src_dim)
            new[i * d2t + (aa + offset) * tgt_dim + (bb + offset)] = v
        out.append(new)
    return out


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
                    t1 = space.tau_row(i, ra, rbs)
                    t2 = space.tau_row(i, rbs, ra)
                    row = dict(t1)
                    for c, v in t2.items():
                        w = row.get(c, 0) + sign * v
                        if w:
                            row[c] = w
                        elif c in row:
                            del row[c]
                    if row:
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


def _diagonal_cols(a, b):
    """The tree duplication T(A (x) B)(3) -> T(A)(3) (x) T(B)(3) on columns,
    a column of the right side coded ca * 3 db^2 + cb.  It hits only the
    tau-diagonal columns tau_i(x,x') (x) tau_i(y,y'); each maps to (column
    tau_i(x(x)y, x'(x)y') of the product, sign (-1)^{|x'||y| + |x||y'|}).
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


def psi_rows(a, b, rows_a, rows_b):
    """The black product's relations before S3 closure: each pair of an
    arity-3 row of A and one of B, tensored and pulled back along the tree
    duplication, so the tau-off-diagonal terms die.  One row per pair; the
    duplication is injective, so no two terms of a pair share a column."""
    diag = _diagonal_cols(a, b)
    dim_b3 = 3 * b.gdim * b.gdim
    out = []
    for ra in rows_a:
        for rb in rows_b:
            acc = {}
            for ca, va in ra.items():
                for cb, vb in rb.items():
                    hit = diag.get(ca * dim_b3 + cb)
                    if hit:
                        acc[hit[0]] = hit[1] * va * vb
            out.append(acc)
    return out


def _white_rows(a, b):
    """The white product's relations before S3 closure: the preimage under
    the tree duplication of R_A (x) T_B(3) + T_A(3) (x) R_B.  Off-diagonal
    columns keep their numbers and each diagonal column moves past all of
    them to its signed product column, so the rows led there are the
    preimage."""
    dim_a3, dim_b3 = 3 * a.gdim * a.gdim, 3 * b.gdim * b.gdim
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
    return rows_past(placed, past)


def boqd_product(name, a, b):
    name = name.lower()
    if name in ("black", "white"):
        mod = _module_tensor(a, b)
        if name == "black":
            rows = psi_rows(a, b, a.relations.rows, b.relations.rows)
        else:
            rows = _white_rows(a, b)
        return make_boqd(mod, s3_closure_rows(mod, rows))
    mod = _module_sum(a, b)
    space = free_arity3(mod)
    na, nb = a.gdim, b.gdim
    nt = mod.dim
    rows = _embed_arity3_rows([dict(r) for r in a.relations.rows], na, 0, nt)
    rows += _embed_arity3_rows([dict(r) for r in b.relations.rows], nb, na, nt)
    arange = range(na)
    brange = range(na, nt)
    if name == "vee":
        pass
    elif name == "oplus":
        rows += _circ1_rows(space, brange, arange)
        rows += _circ1_rows(space, arange, brange)
    elif name == "tril":
        # relations of A, then B1 o1 A1 = span tau_i(a, b), then relations of B
        rows += _circ1_rows(space, arange, brange)
    elif name == "trir":
        rows += _circ1_rows(space, brange, arange)
    elif name == "ucirc":
        rows += _matched_pair_rows(space, a, b, +1)
    elif name == "circ":
        rows += _matched_pair_rows(space, a, b, -1)
    else:
        raise ValueError(name)
    return make_boqd(mod, s3_closure_rows(mod, rows))


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


def boqd_dual(a):
    """(generators*, relations^perp) with the tau-diagonal pairing."""
    dmod = _dual_module(a.generators)
    rows = nullspace_rows([dict(r) for r in a.relations.rows], a.space.dim)
    dspace = free_arity3(dmod)
    return BOQDData(dmod, Subspace(dspace.ambient, rows))


def koszul_involution_check(a, b):
    """(A v B)* = A* (+) B*, (A <| B)* = A* |> B*, (A ucirc B)* = A* circ B*."""
    da, db = boqd_dual(a), boqd_dual(b)
    reports = []
    for name, lhs_name, rhs_name in (
        ("vee-oplus", "vee", "oplus"),
        ("tril-trir", "tril", "trir"),
        ("ucirc-circ", "ucirc", "circ"),
    ):
        lhs = boqd_dual(boqd_product(lhs_name, a, b))
        rhs = boqd_product(rhs_name, da, db)
        ok = (
            lhs.generators.space == rhs.generators.space
            and lhs.generators.action == rhs.generators.action
            and lhs.relations == rhs.relations
        )
        reports.append(
            Report("involution.%s" % name, ok,
                   "dims %d vs %d" % (lhs.rdim, rhs.rdim))
        )
    return reports


# ---------------------------------------------------------------------------
# interchange


def boqd_interchange_check(kind, a, ap, b, bp):
    """kind: 'phi' for the (black, ucirc) lax law, 'psi' for (circ, white),
    or ('quintuple', box, dia) for the eight lax+colax pairs."""
    spaces = [m.generators.space for m in (a, ap, b, bp)]

    def check(name, f, src, tgt):
        images = square_apply_rows(
            f, src.relations.rows, src.generators, tgt.generators
        )
        for img in images:
            if img and not tgt.relations.contains(img):
                return Report(name, False, "relation image escapes",
                              witness=Vector(tgt.relations.ambient, img))
        return Report(name, True, "dims %d -> %d" % (src.rdim, tgt.rdim))

    if kind == "phi":
        src = boqd_product("black", boqd_product("ucirc", a, ap),
                           boqd_product("ucirc", b, bp))
        tgt = boqd_product("ucirc", boqd_product("black", a, b),
                           boqd_product("black", ap, bp))
        return [check("phi.black-ucirc", pr14_map(*spaces), src, tgt)]
    if kind == "psi":
        src = boqd_product("circ", boqd_product("white", a, b),
                           boqd_product("white", ap, bp))
        tgt = boqd_product("white", boqd_product("circ", a, ap),
                           boqd_product("circ", b, bp))
        return [check("psi.circ-white", inj14_map(*spaces), src, tgt)]
    if isinstance(kind, tuple) and kind[0] == "quintuple":
        box, dia = kind[1], kind[2]
        lax_src = boqd_product(box, boqd_product(dia, a, ap),
                               boqd_product(dia, b, bp))
        lax_tgt = boqd_product(dia, boqd_product(box, a, b),
                               boqd_product(box, ap, bp))
        return [
            check("quintuple.%s-%s.lax" % (box, dia), pr14_map(*spaces),
                  lax_src, lax_tgt),
            check("quintuple.%s-%s.colax" % (box, dia), inj14_map(*spaces),
                  lax_tgt, lax_src),
        ]
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# serialization


def boqd_to_json(a):
    n = a.gdim
    act = [[str(a.generators.action.cols[j].get(i, 0)) for j in range(n)]
           for i in range(n)]
    dim3 = a.space.dim
    rows = [[str(r.get(c, 0)) for c in range(dim3)] for r in a.relations.rows]
    return {
        "generators": space_to_json(a.generators.space),
        "action": act,
        "relations": rows,
    }


def boqd_from_json(doc):
    if not isinstance(doc, dict):
        raise ValueError("BOQD data %r is not a JSON object" % (doc,))
    gens = space_from_json(doc["generators"])
    n = gens.dim
    act = rows_from_json(doc["action"], n, "action")
    if len(act) != n:
        raise ValueError("the action has %d rows, not %d" % (len(act), n))
    cols = [{i: row[j] for i, row in enumerate(act) if j in row}
            for j in range(n)]
    mod = S2Module(gens, LinearMap(gens, gens, cols))
    return make_boqd(mod, rows_from_json(doc["relations"], 3 * n * n, "relation"))
