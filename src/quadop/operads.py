"""Operads valued in skew quadratic data with the direct-sum product.

Built-in families are indexed by combinatorics on the vertex set {1..n}:
edges for BKW and DK, k-element subsets for HG(k) and its refinement RHG(k)
(RHG(2) is DK, RHG(3) is EHKR), and length-k intervals for the nonsymmetric
LG and LHG(k).  Partial compositions insert m vertices at a slot and follow
the index scheme's per-generator formula.  The scheme owns the generator
spaces, compositions (all slots of one (n, m) share one source V(n) ⊕ V(m))
and group action, built once per process for each scheme and k.  A family
is a scheme plus its relations relation_fn(scheme, n), and the full ones
(BKW, HG, LG, LHG) take the cached signed square itself, so the relation
law answers their images by the swap test (qd.escaping_image).  The axiom
verifier and the minimal closure take the scheme alone; the axioms are
checked exhaustively at bounded arity on generator bases.
"""

from functools import lru_cache
from itertools import combinations

from .exactlin import LinearMap, compose_cols
from .graded import GradedSpace, direct_sum, signed_square, wedge_row
from .kernel import EchelonBasis
from .qd import (
    SQUARE_SIGN,
    QDFlavor,
    escaping_image,
    make_qd,
    qd_zero,
    square_apply_rows,
    sum_relation_rows,
)
from .report import Report, first_failure


# ---------------------------------------------------------------------------
# permutations (1-based tuples: perm[i-1] = sigma(i))


def transpositions(n):
    """The adjacent transpositions (i i+1) of S_n, for i = 1..n-1."""
    return [tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 2, n + 1))
            for i in range(1, n)]


def perm_inverse(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def inflate_outer(sigma, n, m, p):
    """sigma' in S_{n+m-1} with (mu.sigma) o_p nu = (mu o_{sigma(p)} nu).sigma'."""
    q = sigma[p - 1]
    # the outer vertices keep their order, and those past q move up by
    # m - 1: q itself gives way to the m inserted vertices
    outer = [y if y < q else y + m - 1 for y in sigma[:p - 1] + sigma[p:]]
    return tuple(outer[:p - 1]) + tuple(range(q, q + m)) + tuple(outer[p - 1:])


def inflate_inner(tau, n, m, p):
    """tau' in S_{n+m-1} with mu o_p (nu.tau) = (mu o_p nu).tau'."""
    return tuple(v if v < p or v >= p + m else p - 1 + tau[v - p]
                 for v in range(1, n + m))


# ---------------------------------------------------------------------------
# generator index schemes


def _label(I):
    return "t_" + ".".join(str(i) for i in I)


class _Scheme:
    """Generator spaces, partial compositions and, when symmetric, the
    vertex-relabeling group action of one index scheme.  They are the same
    for every family on the scheme; only the relations differ."""

    symmetric = True

    def __init__(self, k):
        self.k = k
        self._spaces = {}
        self._positions = {}
        self._sources = {}
        self._comps = {}
        self._actions = {}

    def gen_space(self, n):
        if n not in self._spaces:
            self._spaces[n] = GradedSpace.from_labels(map(_label, self.indices(n)))
        return self._spaces[n]

    def _position(self, n):
        """Index -> basis position in V(n), in index order; one per arity."""
        if n not in self._positions:
            self._positions[n] = {I: i for i, I in enumerate(self.indices(n))}
        return self._positions[n]

    def comp(self, n, m, p):
        """The partial composition V(n) ⊕ V(m) -> V(n+m-1) at slot p.  Its
        source is direct_sum(V(n), V(m)), the generators of
        oplus(P(n), P(m)), one object per (n, m), shared by every slot."""
        key = (n, m, p)
        if key not in self._comps:
            if not 1 <= p <= n:
                raise ValueError("slot out of range")
            if m == 0 and not self.symmetric:
                # deletion needs the reconnection sum of the symmetric case
                # to be associative; linear families have no arity-0 insertions
                raise ValueError("nonsymmetric families do not compose with arity 0")
            if (n, m) not in self._sources:
                self._sources[n, m] = direct_sum(self.gen_space(n), self.gen_space(m))
            pos = self._position(n + m - 1)
            cols = []
            for rule, arity in ((self.compose_outer, n), (self.compose_inner, m)):
                for I in self._position(arity):
                    col = {}
                    for coeff, J in rule(I, n, m, p):
                        col[pos[J]] = col.get(pos[J], 0) + coeff
                    cols.append(col)
            self._comps[key] = LinearMap(
                self._sources[n, m], self.gen_space(n + m - 1), cols)
        return self._comps[key]

    def action(self, n, sigma):
        """Right action t_I . sigma = t_{sigma^{-1}(I)} as a LinearMap."""
        if not self.symmetric:
            raise ValueError("nonsymmetric family has no symmetric-group action")
        key = (n, tuple(sigma))
        if key not in self._actions:
            pos = self._position(n)
            inv = perm_inverse(sigma)
            amb = self.gen_space(n)
            cols = [{pos[self.act(I, inv)]: 1} for I in pos]
            self._actions[key] = LinearMap(amb, amb, cols)
        return self._actions[key]

    def compose_inner(self, I, n, m, p):
        """Every scheme shifts an inner generator past the first p-1 vertices."""
        return [(1, tuple(i + p - 1 for i in I))]


class _SubsetScheme(_Scheme):
    """Hyperedges: sorted k-subsets of {1..n}."""

    def indices(self, n):
        if n < self.k:
            return []
        return list(combinations(range(1, n + 1), self.k))

    def compose_outer(self, I, n, m, p):
        if p in I:
            out = []
            for j in range(m):
                term = tuple(
                    (i if i < p else i + m - 1) if i != p else p + j for i in I
                )
                out.append((1, tuple(sorted(term))))
            return out
        return [(1, tuple(i if i < p else i + m - 1 for i in I))]

    def act(self, I, sigma_inv):
        return tuple(sorted(sigma_inv[i - 1] for i in I))


class _IntervalScheme(_Scheme):
    """Linear hyperedges: intervals [i, i+k-1] in {1..n}."""

    symmetric = False

    def indices(self, n):
        if n < self.k:
            return []
        return [tuple(range(i, i + self.k)) for i in range(1, n - self.k + 2)]

    def compose_outer(self, I, n, m, p):
        a, b = I[0], I[-1]
        if m == 1:
            return [(1, I)]
        if p <= a:
            return [(1, tuple(i + m - 1 for i in I))]
        if p >= b:
            return [(1, I)]
        return []


@lru_cache(maxsize=64)
def _scheme(cls, k):
    """The one scheme of this class and k that every family on it shares."""
    return cls(k)


class OperadFamily:
    """Arity-indexed skew quadratic data: a shared scheme, which owns the
    generators, partial compositions and group action, plus the family's
    own relations relation_fn(scheme, n) in each arity with generators."""

    def __init__(self, name, scheme, relation_fn):
        self.name = name
        self.scheme = scheme
        self._relation_fn = relation_fn
        self._components = {}

    def component(self, n):
        if n not in self._components:
            gens = self.scheme.gen_space(n)
            if gens.dim == 0:
                self._components[n] = qd_zero(QDFlavor.SKEW)
            else:
                rels = self._relation_fn(self.scheme, n)
                self._components[n] = make_qd(QDFlavor.SKEW, gens, rels)
        return self._components[n]


# relation builders ---------------------------------------------------------


def _rel_full(scheme, n):
    """The cached skew signed square, which make_qd takes as it is."""
    return signed_square(scheme.gen_space(n), SQUARE_SIGN[QDFlavor.SKEW])


def _rel_refined(scheme, n):
    """Disjoint wedges plus the second-type sums over (hyperedge, disjoint
    (k-1)-set) pairs; for k = 2 this is the triangle presentation."""
    k, idx = scheme.k, scheme.indices(n)
    nn = len(idx)
    pos = {I: i for i, I in enumerate(idx)}
    rows = []
    for a in range(nn):
        for b in range(a + 1, nn):
            I, J = idx[a], idx[b]
            if not set(I) & set(J):
                rows.append(wedge_row(nn, [(a, b, 1)]))
    vertices = range(1, n + 1)
    for I in idx:
        others = [v for v in vertices if v not in I]
        for J in combinations(others, k - 1):
            rows.append(wedge_row(nn, [(pos[I], pos[tuple(sorted(J + (i,)))], 1)
                                       for i in I]))
    return rows


# name -> (scheme class, relation builder, k); k None is read from the caller
_FAMILIES = {
    "BKW": (_SubsetScheme, _rel_full, 2),
    "DK": (_SubsetScheme, _rel_refined, 2),
    "EHKR": (_SubsetScheme, _rel_refined, 3),
    "HG": (_SubsetScheme, _rel_full, None),
    "RHG": (_SubsetScheme, _rel_refined, None),
    "LG": (_IntervalScheme, _rel_full, 2),
    "LHG": (_IntervalScheme, _rel_full, None),
}


@lru_cache(maxsize=64)
def build_family(name, k=None):
    """Built-in families; RHG(2) = DK, RHG(3) = EHKR, HG(2) = BKW, LHG(2) = LG.
    Every spelling of one family (any case, k given or not where the family
    fixes it) returns the same object, so its components are built once; a
    k other than the one the family fixes raises ValueError."""
    name = name.upper()
    if name not in _FAMILIES:
        raise ValueError("unknown family %r" % name)
    fixed_k = _FAMILIES[name][2]
    if fixed_k is None and (not k or k < 2):
        raise ValueError("%s needs k >= 2" % name)
    if fixed_k is not None and k not in (None, fixed_k):
        raise ValueError("%s fixes k = %d, got %r" % (name, fixed_k, k))
    return _family(name, fixed_k or k)


@lru_cache(maxsize=64)
def _family(name, k):
    cls, relation_fn, fixed_k = _FAMILIES[name]
    label = name if fixed_k else "%s(%d)" % (name, k)
    return OperadFamily(label, _scheme(cls, k), relation_fn)


# ---------------------------------------------------------------------------
# composition evaluation and exhaustive axiom checks


def _sequential(s, triples):
    """x o_i (y o_j z) and (x o_i y) o_{i+j-1} z on the generators of x, y,
    z, in (n, m, l, i, j) order; each composition is read once per level."""
    for n, m, l in triples:
        dn, dnm = s.gen_space(n).dim, s.gen_space(n + m - 1).dim
        yz = [s.comp(m, l, j).cols for j in range(1, m + 1)]
        after = [s.comp(n + m - 1, l, q).cols for q in range(1, n + m)]
        after = [(c, list(c[dnm:])) for c in after]
        for i in range(1, n + 1):
            c1, xy = s.comp(n, m + l - 1, i).cols, s.comp(n, m, i).cols
            head, tail = list(c1[:dn]), c1[dn:]
            for j in range(1, m + 1):
                c2, rest = after[i + j - 2]
                yield ((n, m, l, i, j), head + compose_cols(tail, yz[j - 1]),
                       compose_cols(c2, xy) + rest)


def _parallel(s, triples):
    """(x o_i y) o_{j+m-1} z and (x o_j z) o_i y, for i < j, on the
    generators of x, y, z, in (n, m, l, i, j) order."""
    for n, m, l in triples:
        dn = s.gen_space(n).dim
        dnm, dnl = s.gen_space(n + m - 1).dim, s.gen_space(n + l - 1).dim
        after = [s.comp(n + m - 1, l, j + m - 1).cols for j in range(1, n + 1)]
        after = [(c, list(c[dnm:])) for c in after]
        xz = [s.comp(n, l, j).cols for j in range(1, n + 1)]
        for i in range(1, n):
            xy, c2 = s.comp(n, m, i).cols, s.comp(n + l - 1, m, i).cols
            rest2 = list(c2[dnl:])
            for j in range(i + 1, n + 1):
                (c1, rest1), x = after[j - 1], xz[j - 1]
                yield ((n, m, l, i, j), compose_cols(c1, xy) + rest1,
                       compose_cols(c2, x[:dn]) + rest2 + compose_cols(c2, x[dn:]))


def _equivariance(s, nmax):
    """(x.sigma) o_p y and (x o_{sigma(p)} y).sigma' on the generators of x,
    then x o_p (y.tau) and (x o_p y).tau' on those of y, a case per column."""
    for n in range(1, nmax + 1):
        dn = s.gen_space(n).dim
        outer = [(sigma, s.action(n, sigma).cols) for sigma in transpositions(n)]
        for m in range(nmax + 2 - n):
            comps = [s.comp(n, m, p).cols for p in range(1, n + 1)]
            inner = [(tau, s.action(m, tau).cols) for tau in transpositions(m)]
            for p, c in enumerate(comps, 1):
                for sigma, act in outer:
                    infl = s.action(n + m - 1, inflate_outer(sigma, n, m, p)).cols
                    rhs = compose_cols(infl, comps[sigma[p - 1] - 1][:dn])
                    for g, (a, b) in enumerate(zip(compose_cols(c, act), rhs)):
                        yield ("outer", n, m, p, sigma, g), a, b
                for tau, act in inner:
                    infl = s.action(n + m - 1, inflate_inner(tau, n, m, p)).cols
                    lhs = compose_cols(c[dn:], act)
                    for g, (a, b) in enumerate(zip(lhs, compose_cols(infl, c[dn:]))):
                        yield ("inner", n, m, p, tau, g), a, b


def verify_axioms(scheme, nmax):
    """Sequential, parallel, unit, and (for symmetric schemes) both
    equivariance axioms, exhaustively on generator bases for all admissible
    arity/slot combinations with output arity <= nmax.  Each axiom is an
    equality of the columns of two composites.  The laws read only the
    scheme: its generator spaces, its compositions (one shared source per
    (n, m)) and its action, each once per loop level of a stream; no
    relations, so the families on one scheme share one verdict."""
    arities = range(0 if scheme.symmetric else 1, nmax + 1)
    reports = []
    # unit laws
    for n in arities:
        unit = [{g: 1} for g in range(scheme.gen_space(n).dim)]
        for p in range(1, n + 1):
            reports += [Report("unit.right.n%d.p%d" % (n, p), False,
                               "composition with the arity-1 unit moved a generator")
                        for col, want in zip(scheme.comp(n, 1, p).cols, unit)
                        if col != want]
        reports += [Report("unit.left.n%d" % n, False, "")
                    for col, want in zip(scheme.comp(1, n, 1).cols, unit)
                    if col != want]
    if not reports:
        reports.append(Report("unit", True, "left/right unit laws on all generators"))

    # sequential and parallel, each in (n, m, l, i, j) order
    triples = [(n, m, l) for n in range(1, nmax + 1) for m in range(1, nmax + 1)
               for l in arities]
    within = [t for t in triples if sum(t) - 2 <= nmax]
    for name, cases in (("sequential", _sequential(scheme, within)),
                        ("parallel", _parallel(scheme, within))):
        count, fail = first_failure(cases)
        if fail is None:
            reports.append(Report(name, True, "%d cases" % count))
        else:
            case, lhs, rhs = fail
            g = next(g for g, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
            reports.append(Report(name, False, "first failure at (n,m,l,i,j)=%s"
                                  % (case,), witness=(lhs[g], rhs[g])))

    if scheme.symmetric:
        count, fail = first_failure(_equivariance(scheme, nmax))
        reports.append(Report("equivariance", fail is None,
                              "%d cases over generating transpositions" % count
                              if fail is None else "first failure %s" % (fail[0],)))
    if len(within) < len(triples):
        reports.append(Report("skipped", True, "%d arity combinations above the bound"
                              % (len(triples) - len(within)), status="SKIPPED"))
    return reports


def verify_relation_morphism(family, nmax):
    """(o_p)^(x)2 maps R(n) ⊕ [V(n),V(m)]_- ⊕ R(m) into R(n+m-1)."""
    checked = 0
    lo = 0 if family.scheme.symmetric else 1
    for n in range(1, nmax + 1):
        for m in range(lo, nmax + 2 - n):
            a, b = family.component(n), family.component(m)
            rows = sum_relation_rows(
                a.generators, b.generators, a.relations.rows, b.relations.rows, -1
            )
            if not rows:
                continue
            target = family.component(n + m - 1)
            # a composition equal to one already pushed has the same images
            # (in practice the unit insertions o_p 1), so it is pushed once
            pushed = []
            for p in range(1, n + 1):
                c = family.scheme.comp(n, m, p)
                checked += len(rows)
                if c in pushed:
                    continue
                pushed.append(c)
                img = escaping_image(c, rows, target)
                if img is not None:
                    return [Report("relation-morphism", False,
                                   "escape at (n,m,p)=%s" % ((n, m, p),),
                                   witness=img)]
    return [Report("relation-morphism", True,
                   "%d relation images checked" % checked)]


def minimal_suboperad(scheme, nmax, schedule_rng=None):
    """Fixpoint closure on a scheme: the smallest arity-wise relation spaces
    up to arity nmax containing all composition images of lower data and
    closed under the group action.  Returns the family on the scheme whose
    relations are the closure's rows; an arity above nmax with generators
    raises ValueError.  schedule_rng shuffles the processing order per
    round; the result is schedule-independent (confluence)."""
    bases = {n: EchelonBasis() for n in range(nmax + 1)}
    rref_of = {}  # arity -> RREF of bases[n], dropped when its rank grows

    def current_rows(n):
        rows = rref_of.get(n)
        if rows is None:
            rows = rref_of[n] = bases[n].rref()
        return rows

    def add(n, row):
        if not bases[n].add(row):
            return False
        rref_of.pop(n, None)
        return True

    changed = True
    while changed:
        changed = False
        order = list(range(nmax + 1))
        if schedule_rng is not None:
            schedule_rng.shuffle(order)
        for n in order:
            target = scheme.gen_space(n)
            if target.dim == 0:
                continue
            # group closure
            if scheme.symmetric:
                for sigma in transpositions(n):
                    act = scheme.action(n, sigma)
                    for img in square_apply_rows(act, current_rows(n)):
                        if add(n, img):
                            changed = True
            # composition images
            for a in range(1, min(n + 1, nmax) + 1):
                b = n + 1 - a
                if b == 0 and not scheme.symmetric:
                    continue
                rows = sum_relation_rows(
                    scheme.gen_space(a), scheme.gen_space(b),
                    current_rows(a), current_rows(b), -1,
                )
                if not rows:
                    continue
                for p in range(1, a + 1):
                    c = scheme.comp(a, b, p)
                    for img in square_apply_rows(c, rows):
                        if img and add(n, img):
                            changed = True

    def relations(scheme, n):
        if n > nmax:
            raise ValueError("the closure was computed up to arity %d; arity %d "
                             "is past its bound" % (nmax, n))
        return current_rows(n)

    return OperadFamily("minimal", scheme, relations)


def compare_families(a, b, nmax):
    """Arity-wise relation comparison; reports EQUAL / PROPER INCLUSION /
    DIFFER per arity and checks that inclusions are operad morphisms."""
    reports = []
    for n in range(nmax + 1):
        ca, cb = a.component(n), b.component(n)
        if ca.generators.labels != cb.generators.labels:
            reports.append(Report("arity-%d" % n, False, "generator mismatch"))
            continue
        if ca.relations == cb.relations:
            reports.append(Report("arity-%d" % n, True, "EQUAL (dim %d)" % ca.rdim))
        elif cb.relations.contains_subspace(ca.relations):
            reports.append(
                Report("arity-%d" % n, True,
                       "PROPER INCLUSION (dim %d < %d)" % (ca.rdim, cb.rdim))
            )
        else:
            reports.append(Report("arity-%d" % n, False, "relation spaces differ"))
    return reports
