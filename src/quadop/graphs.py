"""Combinatorial Hopf operads of labeled (hyper)graphs with odd edges.

A basis element is a vertex set {1..n} with an ordered list of degree-1
hyperedges of a fixed size k, stored canonically (edges sorted lexicographically);
reordering edges costs the sign of the permutation because edges are odd.
Symmetric composition inserts and sums over all reconnections of the
slot-incident hyperedges; the linear (nonsymmetric) variant keeps intervals
whose endpoints survive.  Coproducts distribute edges over ordered pairs with
unshuffle signs.
"""

from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial
from weakref import WeakValueDictionary

from .kernel import EchelonBasis
from .operads import (build_family, inflate_inner, inflate_outer, perm_inverse,
                      transpositions)
from .qd import apply_functor
from .realize import hilbert_series, weight_component
from .report import Report, first_failure


def _perm_sign(items):
    """Sign of the permutation sorting `items` (distinct, comparable)."""
    items = list(items)
    sign = 1
    for a in range(1, len(items)):
        b = a
        while b > 0 and items[b - 1] > items[b]:
            items[b - 1], items[b] = items[b], items[b - 1]
            sign = -sign
            b -= 1
    return sign


_INTERNED = WeakValueDictionary()


def _intern(key):
    """The one graph of a canonical key (n, k, symmetric, sorted edges).  A
    key is validated only when it is not interned yet, and only a key that
    validates is interned, so invalid edges raise on every call."""
    g = _INTERNED.get(key)
    if g is not None:
        return g
    n, k, symmetric, edges = key
    if len(set(edges)) != len(edges):
        raise ValueError("edges must be pairwise distinct")
    for e in edges:
        if len(e) != k or len(set(e)) != k:
            raise ValueError("edges must have %d distinct vertices" % k)
        if not all(1 <= v <= n for v in e):
            raise ValueError("edge out of vertex range")
        if not symmetric and tuple(range(e[0], e[0] + k)) != e:
            raise ValueError("linear graphs only carry intervals")
    g = object.__new__(LabeledHypergraph)
    g.n, g.k, g.symmetric, g.edges = key
    _INTERNED[key] = g
    return g


class LabeledHypergraph:
    """Canonical labeled hypergraph: n vertices, ordered distinct k-edges.

    Interned (hash-consed) through `_intern`: construction returns the one
    instance of its canonical key, so equal graphs are identical and compare
    and hash by identity.  Instances are immutable by convention, as every
    holder of the key shares them.  The table holds its graphs weakly, so it
    never outgrows the graphs in use."""

    __slots__ = ("n", "k", "symmetric", "edges", "__weakref__")

    def __new__(cls, n, k, symmetric, edges):
        return _intern((n, k, symmetric,
                        tuple(sorted(tuple(sorted(e)) for e in edges))))

    @property
    def weight(self):
        """The number of edges, which is also the degree: edges are odd."""
        return len(self.edges)

    def __repr__(self):
        return serialize_graph(self)


def serialize_graph(g):
    edges = ",".join("".join(map(str, e)) if g.n < 10 else ".".join(map(str, e))
                     for e in g.edges)
    return "n=%d;k=%d;edges=%s" % (g.n, g.k, edges)


def _summed(terms):
    """A sum of (key, coeff) terms as a dict that never holds a zero."""
    out = {}
    for key, c in terms:
        c += out.get(key, 0)
        if c:
            out[key] = c
        else:
            out.pop(key, None)
    return out


def _then(terms, f, sign=1):
    """The linear extension of f to a tuple of (graph, coeff) terms, times
    sign, as a dict.  It relies on f returning distinct nonzero terms, as
    `_compose_terms` and `graph_action` do: the sum over one term is then
    f's terms, scaled, with nothing to merge or drop."""
    if len(terms) == 1:
        (g, c), = terms
        c *= sign
        return dict(f(g)) if c == 1 else {h: c * cc for h, cc in f(g)}
    return _summed((h, sign * c * cc) for g, c in terms for h, cc in f(g))


def _law(name, cases, passing="", failing="{0}"):
    """One law's report: PASS with `passing` formatted with the number of
    cases, or FAIL with `failing` formatted with the first failing key."""
    count, fail = first_failure(cases)
    return Report(name, fail is None, passing.format(count) if fail is None
                  else failing.format(fail[0]))


def _arity_pairs(k, nmax):
    """The outer and inner arities, both at least k, of the compositions
    with output arity <= nmax."""
    return [(n, m) for n in range(k, nmax + 1) for m in range(k, nmax + 2 - n)]


def _canonicalize(n, k, symmetric, edge_list):
    """Sort an explicit edge list with its sign; duplicate edges kill the
    term (odd squares vanish).  Only one-vertex edges (k = 1) can meet
    twice.  For k >= 2 no insertion repeats an edge: an edge reconnected at
    the slot keeps an outer vertex (two of them keep different ones), an
    inner edge has none, an interval kept or shifted past the inserted block
    meets it in at most one vertex, and a relabeling is injective.  The k = 1
    cases of test_compose_matches_reference_enumeration reach the check."""
    edges = tuple(sorted(edge_list))
    if any(a == b for a, b in zip(edges, edges[1:])):
        return 0, None
    return _perm_sign(edge_list), _intern((n, k, symmetric, edges))


def compose_graphs(g1, p, g2):
    """Partial composition g1 o_p g2 as a new {graph: coeff} dict."""
    return dict(_compose_terms(g1, p, g2))


@lru_cache(maxsize=1 << 14)
def _compose_terms(g1, p, g2):
    """The distinct, nonzero (graph, coeff) terms of g1 o_p g2 as a tuple,
    computed once per argument triple."""
    if g1.k != g2.k or g1.symmetric != g2.symmetric:
        raise ValueError("graphs live in different families")
    if not 1 <= p <= g1.n:
        raise ValueError("slot out of range")
    n, m, k = g1.n, g2.n, g1.k

    def relabel_outer(v):
        return v if v < p else v + m - 1

    inner = [tuple(v + p - 1 for v in e) for e in g2.edges]
    out = []
    if g1.symmetric:
        # each p-incident edge reconnects to any vertex of g2 independently
        options = [[tuple(sorted(relabel_outer(v) if v != p else w for v in e))
                    for w in range(p, p + m)] if p in e
                   else [tuple(relabel_outer(v) for v in e)]
                   for e in g1.edges]
        for pick in product(*options):
            sign, g = _canonicalize(n + m - 1, k, True, list(pick) + inner)
            if sign:
                out.append((g, sign))
    else:
        edge_list = []
        dead = False
        for e in g1.edges:
            a, b = e[0], e[-1]
            if p <= a:
                edge_list.append(tuple(v + m - 1 for v in e))
            elif p >= b:
                edge_list.append(e)
            elif a < p < b:
                dead = True
                break
        if not dead:
            edge_list += inner
            sign, g = _canonicalize(n + m - 1, k, False, edge_list)
            if sign:
                out.append((g, sign))
    return tuple(_summed(out).items())


@lru_cache(maxsize=1 << 14)
def graph_action(g, sigma):
    """Right action: relabel vertices by sigma^{-1}, with the edge-sorting
    sign, as a one-term tuple of (graph, coeff) terms (relabeling keeps the
    edges distinct), computed once per graph and permutation."""
    inv = perm_inverse(sigma)
    sign, h = _canonicalize(g.n, g.k, g.symmetric,
                            [tuple(sorted(inv[v - 1] for v in e)) for e in g.edges])
    return ((h, sign),)


@lru_cache(maxsize=1 << 14)
def coproduct(g):
    """Unshuffle coproduct: ordered two-block distributions of the edge set
    with the Koszul sign of the unshuffle (edges are odd), as a tuple of
    (sign, left, right) computed once per graph."""

    def block(idx):
        # a sub-list of the sorted edges is sorted
        return _intern((g.n, g.k, g.symmetric, tuple(g.edges[i] for i in idx)))

    out = []
    w = g.weight
    idx = list(range(w))
    for r in range(w + 1):
        for left in combinations(idx, r):
            right = [i for i in idx if i not in left]
            out.append((_perm_sign(list(left) + right), block(left), block(right)))
    return tuple(out)


@lru_cache(maxsize=1 << 10)
def all_graphs(n, k, symmetric, wmax):
    """All basis graphs of weight <= wmax, as a tuple computed once per
    argument."""
    if symmetric:
        pool = list(combinations(range(1, n + 1), k))
    else:
        pool = [tuple(range(i, i + k)) for i in range(1, n - k + 2)]
    # combinations of the sorted pool are sorted edge lists
    return tuple(_intern((n, k, symmetric, es))
                 for w in range(min(wmax, len(pool)) + 1)
                 for es in combinations(pool, w))


# ---------------------------------------------------------------------------
# Hopf compatibility


def hopf_check(k, symmetric, nmax, wmax):
    """Delta(g1 o_p g2) = Delta(g1) o_p Delta(g2) with the middle Koszul sign,
    plus coassociativity and cocommutativity, on all basis pairs in bounds."""

    def compat():
        for n, m in _arity_pairs(k, nmax):
            for g1 in all_graphs(n, k, symmetric, wmax):
                for g2 in all_graphs(m, k, symmetric, max(0, wmax - g1.weight)):
                    for p in range(1, n + 1):
                        lhs = _summed(((gl, gr), c * s)
                                      for g, c in _compose_terms(g1, p, g2)
                                      for s, gl, gr in coproduct(g))
                        terms = []
                        for s1, g1l, g1r in coproduct(g1):
                            for s2, g2l, g2r in coproduct(g2):
                                sign = s1 * s2 * (-1) ** (g1r.weight * g2l.weight)
                                right = _compose_terms(g1r, p, g2r)
                                terms += [((gl, gr), sign * cl * cr)
                                          for gl, cl in _compose_terms(g1l, p, g2l)
                                          for gr, cr in right]
                        yield (g1, p, g2), lhs, _summed(terms)

    def coalgebra():
        for n in range(k, nmax + 1):
            for g in all_graphs(n, k, symmetric, wmax):
                co = coproduct(g)
                yield (("coassoc", g),
                       _summed(((gll, glr, gr), s * s2)
                               for s, gl, gr in co for s2, gll, glr in coproduct(gl)),
                       _summed(((gl, grl, grr), s * s2)
                               for s, gl, gr in co for s2, grl, grr in coproduct(gr)))
                yield (("cocomm", g),
                       _summed(((gr, gl), s * (-1) ** (gl.weight * gr.weight))
                               for s, gl, gr in co),
                       _summed(((gl, gr), s) for s, gl, gr in co))

    return [_law("hopf.compat", compat(), "{} composition pairs",
                 "failure at {0[0]} o_{0[1]} {0[2]}"),
            _law("hopf.coalgebra", coalgebra(), failing="{0[0]} fails on {0[1]}")]


# ---------------------------------------------------------------------------
# operad axioms for the graph composition


def graph_operad_axioms(k, symmetric, nmax):
    """Sequential, parallel, unit, and (symmetric case) outer and inner
    equivariance checks for the graph composition, exhaustive over graphs of
    weight <= 2 outside and <= 1 inside."""
    unit = LabeledHypergraph(1, k, symmetric, ())

    def seq_par():
        for n in range(1, nmax + 1):
            for m in range(1, nmax + 1):
                for l in range(1, nmax + 3 - n - m):
                    for g1, g2, g3 in product(all_graphs(n, k, symmetric, 2),
                                              all_graphs(m, k, symmetric, 1),
                                              all_graphs(l, k, symmetric, 1)):
                        for i in range(1, n + 1):
                            for j in range(1, m + 1):
                                yield (("sequential", g1, i, g2, j, g3),
                                       _then(_compose_terms(g2, j, g3),
                                             lambda h: _compose_terms(g1, i, h)),
                                       _then(_compose_terms(g1, i, g2),
                                             lambda h: _compose_terms(h, i + j - 1, g3)))
                        for i in range(1, n + 1):
                            for j in range(i + 1, n + 1):
                                # the braiding of the two inserted odd
                                # arguments contributes a Koszul sign
                                yield (("parallel", g1, i, g2, j, g3),
                                       _then(_compose_terms(g1, i, g2),
                                             lambda h: _compose_terms(h, j + m - 1, g3)),
                                       _then(_compose_terms(g1, j, g3),
                                             lambda h: _compose_terms(h, i, g2),
                                             (-1) ** (g2.weight * g3.weight)))

    def unit_law():
        for n in range(1, nmax + 1):
            for g in all_graphs(n, k, symmetric, 2):
                for p in range(1, n + 1):
                    yield (g, p), _compose_terms(g, p, unit), ((g, 1),)
                yield (g, 0), _compose_terms(unit, 1, g), ((g, 1),)

    def equivariance():
        for n, m in _arity_pairs(k, nmax):
            for g1, g2 in product(all_graphs(n, k, True, 1), all_graphs(m, k, True, 1)):
                for p in range(1, n + 1):
                    for sigma in transpositions(n):
                        infl = inflate_outer(sigma, n, m, p)
                        yield (("outer", g1, p, g2, sigma),
                               _then(graph_action(g1, sigma),
                                     lambda g: _compose_terms(g, p, g2)),
                               _then(_compose_terms(g1, sigma[p - 1], g2),
                                     lambda g: graph_action(g, infl)))
                    for tau in transpositions(m):
                        infl = inflate_inner(tau, n, m, p)
                        yield (("inner", g1, p, g2, tau),
                               _then(graph_action(g2, tau),
                                     lambda g: _compose_terms(g1, p, g)),
                               _then(_compose_terms(g1, p, g2),
                                     lambda g: graph_action(g, infl)))

    return [_law("graph.seq-par", seq_par(), "{} cases"),
            _law("graph.unit", unit_law()),
            _law("graph.equivariance", equivariance() if symmetric else ())]


# ---------------------------------------------------------------------------
# isomorphism with the cofree realisation of the shifted family


def sc_iso_check(family, nmax, wmax):
    """Clauses: (i) weight dimensions match the cofree side of the shifted
    data, (ii) counits correspond and units compose to the unit, (iii)
    single-edge projections of graph compositions reproduce the family
    compositions on cogenerators, (iv) Hopf compatibility; conilpotent
    cofreeness then pins the coalgebra morphism, so these establish the
    isomorphism at the tested bounds.  On a symmetric family, clause (iv)
    stops at arity min(nmax, 4): for k = 3, whose compositions start at
    arity 5, it checks no pair."""
    scheme = family.scheme
    k, symmetric = scheme.k, scheme.symmetric

    def empty(n):
        return LabeledHypergraph(n, k, symmetric, ())

    def dims():
        # cofree on shifted generators when relations are full
        for n in range(k, nmax + 1):
            comp = family.component(n)
            shifted = apply_functor("antishriek", comp)
            for w in range(0, wmax + 1):
                sc_w, graphs_w = weight_component("Sc", shifted, w), comb(comp.gdim, w)
                yield (n, w, sc_w, graphs_w), sc_w, graphs_w

    def counit():
        # the edgeless graph is the only weight-0 graph and splits off every
        # graph g as the terms (1, edgeless, g) and (1, g, edgeless)
        for n in range(k, nmax + 1):
            e = empty(n)
            yield (n, "weight 0"), all_graphs(n, k, symmetric, 0), (e,)
            for g in all_graphs(n, k, symmetric, wmax):
                co = coproduct(g)
                yield ((n, g),
                       ([t for t in co if t[1] is e], [t for t in co if t[2] is e]),
                       ([(1, e, g)], [(1, g, e)]))
        for n, m in _arity_pairs(k, nmax):
            for p in range(1, n + 1):
                yield ((n, m, p, "units"),
                       [g for g, _ in _compose_terms(empty(n), p, empty(m))],
                       [empty(n + m - 1)])

    def cogenerators():
        # an outer cogenerator with the inner unit, then an inner cogenerator
        # with the outer unit, in the order of the composition's source columns
        for n, m in _arity_pairs(k, nmax):
            pairs = [(LabeledHypergraph(n, k, symmetric, (I,)), empty(m))
                     for I in scheme.indices(n)]
            pairs += [(empty(n), LabeledHypergraph(m, k, symmetric, (I,)))
                      for I in scheme.indices(m)]
            idx_t = scheme.indices(n + m - 1)
            for p in range(1, n + 1):
                for (g1, g2), want in zip(pairs, scheme.comp(n, m, p).cols):
                    got = {idx_t.index(gg.edges[0]): c
                           for gg, c in _compose_terms(g1, p, g2) if gg.weight == 1}
                    yield (n, m, p, (g1.edges or g2.edges)[0], got, want), got, want

    reports = [
        _law("sc_iso.dims", dims(), "weights up to %d, arities up to %d" % (wmax, nmax)),
        _law("sc_iso.counit", counit(), "empty graph <-> unit, by construction"),
        _law("sc_iso.cogenerators", cogenerators(), "{} projections"),
    ]
    # (iv) Hopf compatibility
    reports.extend(hopf_check(k, symmetric, min(nmax, 4) if symmetric else nmax,
                              wmax))
    return reports


# ---------------------------------------------------------------------------
# the n!-dimension check


def gerstenhaber_dim_check(k, nmax):
    """k = 2: the total dimension of the cofree side over the shifted refined
    data equals n! for n <= nmax.  k = 3 (experimental): reports the weight
    dimensions alongside the two-vertex ternary-forest oracle."""
    reports = []
    if k == 2:
        fam = build_family("DK")
        for n in range(1, nmax + 1):
            comp = fam.component(n)
            if comp.gdim == 0:
                total = 1
                dims = (1,)
            else:
                shifted = apply_functor("antishriek", comp)
                dims = hilbert_series("Sc", shifted, comp.gdim + 1)
                # cut after the first zero, which ends the series
                dims = tuple(dims[: dims.index(0) + 1] if 0 in dims else dims)
                total = sum(dims)
            ok = total == factorial(n)
            reports.append(
                Report("gerst.dim.n%d" % n, ok, "dims %s total %d" % (dims, total))
            )
        return reports
    if k == 3:
        fam = build_family("EHKR")
        for n in range(3, nmax + 1):
            comp = fam.component(n)
            shifted = apply_functor("antishriek", comp)
            dims = hilbert_series("Sc", shifted, 2)
            oracle = _ternary_forest_dims(n)
            reports.append(
                Report("gerst3.dim.n%d" % n, True,
                       "Sc dims %s, forest oracle %s" % (dims, oracle),
                       status="INFO" if dims[: len(oracle)] != list(oracle) else "PASS")
            )
        return reports
    raise ValueError("k must be 2 or 3")


def _ternary_forest_dims(n):
    """Weights 0..2 of the unital algebra with an arity-3 odd bracket:
    partitions into blocks carrying reduced two-level ternary trees; the
    weight-2 slot is the rank of the span of grafted trees modulo the
    generalized Jacobi relations, computed by enumeration for n <= 5."""
    if n < 3:
        return (1, 0, 0)
    w0 = 1
    w1 = comb(n, 3)
    if n < 5:
        return (w0, w1, 0)
    if n == 5:
        # two-vertex trees are indexed by the inner 3-subset (the symmetric
        # generator absorbs slot orderings without signs); the Jacobi span is
        # the orbit of the sum over all (3,2)-unshuffle images
        subsets = list(combinations(range(1, 6), 3))
        pos = {s: i for i, s in enumerate(subsets)}
        seen = EchelonBasis()
        for perm in permutations(range(1, 6)):
            row = {}
            for I in combinations(range(1, 6), 3):
                sub = tuple(sorted(perm[i - 1] for i in I))
                row[pos[sub]] = row.get(pos[sub], 0) + 1
            row = {c: v for c, v in row.items() if v}
            if row:
                seen.add(row)
        return (w0, w1, comb(5, 3) - seen.rank)
    return (w0, w1, None)
