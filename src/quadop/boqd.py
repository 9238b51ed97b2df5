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

from .exactlin import (
    LinearMap,
    Subspace,
    Vector,
    nullspace_rows,
    scalar,
)
from .graded import (
    GradedSpace,
    direct_sum,
    dual,
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


def psi_rows(a, b, rows_a, rows_b):
    """tau_i(a,a') (x) tau_j(b,b') dies unless i = j and otherwise goes to
    tau_i(a(x)b, a'(x)b') with the symmetrized Koszul sign
    (-1)^{|a'||b| + |a||b'|}, which is the unique associativity-coherent
    choice that is symmetric under swapping both argument pairs (needed for
    the interchange law on mixed-degree modules)."""
    da, db = a.gdim, b.gdim
    dega = a.generators.space.degrees
    degb = b.generators.space.degrees
    prod_space = free_arity3(_module_tensor(a, b))
    out = []
    for ra in rows_a:
        for rb in rows_b:
            acc = {}
            for ca, va in ra.items():
                i, rest = divmod(ca, da * da)
                x, xp = divmod(rest, da)
                for cb, vb in rb.items():
                    j, restb = divmod(cb, db * db)
                    if i != j:
                        continue
                    y, yp = divmod(restb, db)
                    sign = -1 if (dega[xp] * degb[y] + dega[x] * degb[yp]) % 2 else 1
                    col = prod_space.index(i + 1, x * db + y, xp * db + yp)
                    w = acc.get(col, 0) + sign * va * vb
                    if w:
                        acc[col] = w
                    elif col in acc:
                        del acc[col]
            out.append(acc)
    return out


def _phi_preimage_rows(a, b, rows_mixed):
    """Pull rows of T(A)(3) (x) T(B)(3) back along the tree-duplication map;
    only the tau-diagonal part survives, with the same Koszul sign as psi."""
    da, db = a.gdim, b.gdim
    dega = a.generators.space.degrees
    degb = b.generators.space.degrees
    prod_space = free_arity3(_module_tensor(a, b))
    dim_b3 = 3 * db * db
    out = []
    for row in rows_mixed:
        acc = {}
        for col, v in row.items():
            ca, cb = divmod(col, dim_b3)
            i, rest = divmod(ca, da * da)
            j, restb = divmod(cb, db * db)
            if i != j:
                continue
            x, xp = divmod(rest, da)
            y, yp = divmod(restb, db)
            sign = -1 if (dega[xp] * degb[y] + dega[x] * degb[yp]) % 2 else 1
            c = prod_space.index(i + 1, x * db + y, xp * db + yp)
            w = acc.get(c, 0) + sign * v
            if w:
                acc[c] = w
            elif c in acc:
                del acc[c]
        if acc:
            out.append(acc)
    return out


def _restrict_to_diagonal(rows, da, db):
    """Intersect a span inside T(A)(3) (x) T(B)(3) with the coordinate
    subspace of tau-diagonal indices (the image of the tree duplication):
    push the off-diagonal columns in front, echelonize, and keep the rows
    whose pivots sit in the diagonal block."""
    dim_b3 = 3 * db * db
    diag_pos = {}
    off_pos = {}
    for ca in range(3 * da * da):
        i = ca // (da * da)
        for cb in range(dim_b3):
            j = cb // (db * db)
            col = ca * dim_b3 + cb
            if i == j:
                diag_pos[col] = len(diag_pos)
            else:
                off_pos[col] = len(off_pos)
    n_off = len(off_pos)
    remap = {}
    for col, k in off_pos.items():
        remap[col] = k
    for col, k in diag_pos.items():
        remap[col] = n_off + k
    back = {v: c for c, v in remap.items()}
    basis = EchelonBasis().add_many(
        {remap[c]: v for c, v in row.items()} for row in rows
    )
    out = []
    for row in basis.rref():
        if min(row) >= n_off:
            out.append({back[c]: v for c, v in row.items()})
    return out


def boqd_product(name, a, b):
    name = name.lower()
    if name == "black":
        mod = _module_tensor(a, b)
        rows = psi_rows(a, b, [dict(r) for r in a.relations.rows],
                        [dict(r) for r in b.relations.rows])
        return make_boqd(mod, s3_closure_rows(mod, rows))
    if name == "white":
        mod = _module_tensor(a, b)
        da, db = a.gdim, b.gdim
        dim_a3, dim_b3 = 3 * da * da, 3 * db * db
        mixed = []
        for r in a.relations.rows:
            for cb in range(dim_b3):
                mixed.append({ca * dim_b3 + cb: v for ca, v in r.items()})
        for ca in range(dim_a3):
            for r in b.relations.rows:
                mixed.append({ca * dim_b3 + cb: v for cb, v in r.items()})
        inter = _restrict_to_diagonal(mixed, da, db)
        rows = _phi_preimage_rows(a, b, inter)
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
    gens = space_from_json(doc["generators"])
    n = gens.dim
    act = [[scalar(x) for x in row] for row in doc["action"]]
    cols = [{i: act[i][j] for i in range(n) if act[i][j]} for j in range(n)]
    mod = S2Module(gens, LinearMap(gens, gens, cols))
    rows = [
        {i: q for i, q in enumerate(map(scalar, row)) if q}
        for row in doc["relations"]
    ]
    return make_boqd(mod, rows)
