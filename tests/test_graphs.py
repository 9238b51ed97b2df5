import random
from fractions import Fraction
from itertools import combinations

import pytest

import quadop.graphs as graphs
from quadop.graphs import (
    LabeledHypergraph,
    LabeledHypergraph as graph,
    compose_graphs,
    coproduct,
    gerstenhaber_dim_check,
    graph_action,
    graph_operad_axioms,
    hopf_check,
    sc_iso_check,
    serialize_graph,
)
from quadop.operads import build_family
from quadop.realize import weight_component


def graph_sum_to_json(s):
    return [
        {"coeff": str(c), "graph": serialize_graph(g)}
        for g, c in sorted(s.items(), key=lambda t: serialize_graph(t[0]))
    ]


def parse_graph(text, symmetric=True):
    """Inverse of serialize_graph; the canonical string does not carry the
    symmetric flag, so the caller supplies it."""
    fields = dict(part.split("=", 1) for part in text.split(";"))
    n, k = int(fields["n"]), int(fields["k"])
    edges = []
    if fields.get("edges"):
        for tok in fields["edges"].split(","):
            if "." in tok:
                edges.append(tuple(int(v) for v in tok.split(".")))
            else:
                edges.append(tuple(int(v) for v in tok))
    return LabeledHypergraph(n, k, symmetric, edges)


def holonomy_dims(family, n, wmax):
    """Weight dimensions of the quadratic-Lie realisation of a component."""
    comp = family.component(n)
    return tuple(weight_component("L", comp, w) for w in range(1, wmax + 1))


def test_canonical_form_and_serialization():
    g = graph(4, 2, True, [(3, 4), (2, 1)])
    assert g.edges == ((1, 2), (3, 4))
    assert serialize_graph(g) == "n=4;k=2;edges=12,34"
    with pytest.raises(ValueError):
        graph(4, 2, True, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        graph(4, 2, False, [(1, 3)])  # not an interval


def test_equal_graphs_are_one_object():
    g = graph(5, 2, True, [(4, 5), (2, 1), (3, 1)])
    assert graph(5, 2, True, [(1, 3), (5, 4), (1, 2)]) is g
    assert LabeledHypergraph(5, 2, True, ((1, 2), (1, 3), (4, 5))) is g
    assert graph(5, 2, True, [(1, 2), (1, 3)]) is not g
    assert graph(5, 2, False, [(4, 5)]) is not graph(5, 2, True, [(4, 5)])
    # compositions and coproducts hand out the interned instances
    assert all(gg is graph(gg.n, gg.k, gg.symmetric, gg.edges)
               for gg in compose_graphs(g, 2, graph(2, 2, True, [(1, 2)])))
    assert all(gl is graph(5, 2, True, gl.edges) for _, gl, _ in coproduct(g))


@pytest.mark.parametrize("symmetric, edges", [
    (True, [(1, 2), (2, 1)]),      # duplicate edge
    (True, [(1, 2), (2, 5)]),      # vertex out of range
    (True, [(1, 1)]),              # repeated vertex
    (True, [(1, 2, 3)]),           # wrong edge size
    (False, [(1, 3)]),             # not an interval
])
def test_invalid_graphs_raise_on_every_call(symmetric, edges):
    # a failed construction is never interned, also when valid graphs on the
    # same vertices exist before and after it, and while the earlier errors
    # (whose tracebacks hold the constructor's frame) are kept
    graph(4, 2, symmetric, [(1, 2)])
    errors = []
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            graph(4, 2, symmetric, edges)
        errors.append(err)
        graph(4, 2, symmetric, [(2, 3)])


def test_displayed_insertion_sum():
    g1 = graph(2, 2, True, [(1, 2)])
    g2 = graph(3, 2, True, [(1, 2), (1, 3)])
    out = compose_graphs(g1, 1, g2)
    assert out == {
        graph(4, 2, True, [(1, 2), (1, 3), (1, 4)]): Fraction(1),
        graph(4, 2, True, [(1, 2), (1, 3), (2, 4)]): Fraction(1),
        graph(4, 2, True, [(1, 2), (1, 3), (3, 4)]): Fraction(1),
    }


def test_displayed_linear_insertion():
    l1 = graph(4, 2, False, [(1, 2), (3, 4)])
    l2 = graph(3, 2, False, [(1, 2)])
    out = compose_graphs(l1, 3, l2)
    target = graph(6, 2, False, [(1, 2), (3, 4), (5, 6)])
    assert list(out) == [target]
    # the edge-sorting signature convention puts the sign at -1 here
    assert out[target] == -1


def test_edgeless_insertions():
    g1 = graph(3, 2, True, [(2, 3)])
    empty = graph(2, 2, True, ())
    out = compose_graphs(g1, 1, empty)
    assert out == {graph(4, 2, True, [(3, 4)]): Fraction(1)}


def test_reconnection_counts():
    # two slot-incident edges each choose among m vertices independently
    g1 = graph(3, 2, True, [(1, 2), (1, 3)])
    g2 = graph(3, 2, True, ())
    out = compose_graphs(g1, 1, g2)
    assert len(out) == 9
    assert all(abs(c) == 1 for c in out.values())
    # unit insertion at an incident vertex reproduces the graph
    unit = graph(1, 2, True, ())
    assert compose_graphs(g1, 1, unit) == {g1: Fraction(1)}


def test_coproduct_signs():
    g = graph(3, 2, True, [(1, 2), (1, 3)])
    table = {
        (tuple(l.edges), tuple(r.edges)): s for s, l, r in coproduct(g)
    }
    assert table[((1, 2), (1, 3)), ()] == 1
    assert table[(), ((1, 2), (1, 3))] == 1
    assert table[((1, 2),), ((1, 3),)] == 1
    assert table[((1, 3),), ((1, 2),)] == -1


def test_memoised_results_survive_caller_mutation():
    # compose_graphs and coproduct are computed once per argument; whatever
    # a caller does to a returned value must not reach a later call
    g1 = graph(2, 2, True, [(1, 2)])
    g2 = graph(3, 2, True, [(1, 2), (1, 3)])
    expect = {
        graph(4, 2, True, [(1, 2), (1, 3), (1, 4)]): 1,
        graph(4, 2, True, [(1, 2), (1, 3), (2, 4)]): 1,
        graph(4, 2, True, [(1, 2), (1, 3), (3, 4)]): 1,
    }
    out = compose_graphs(g1, 1, g2)
    out[g1] = 5
    out.clear()
    assert compose_graphs(g1, 1, g2) == expect

    e12, e13 = graph(3, 2, True, [(1, 2)]), graph(3, 2, True, [(1, 3)])
    empty = graph(3, 2, True, ())
    expect_co = [(1, empty, g2), (1, e12, e13), (-1, e13, e12), (1, g2, empty)]
    co = coproduct(g2)
    try:
        co[1] = (1, e13, e12)
    except TypeError:
        pass
    assert list(coproduct(g2)) == expect_co
    # an enumeration is one tuple per argument
    assert graphs.all_graphs(4, 2, True, 2) is graphs.all_graphs(4, 2, True, 2)
    assert isinstance(graphs.all_graphs(4, 2, True, 2), tuple)


def _reference_compose(g1, p, g2):
    """g1 o_p g2 term by term: each pick of a vertex of g2 for every
    p-incident edge (symmetric) or the surviving intervals (linear), the
    inserted edges after the outer ones, a pick with a repeated edge dropped,
    and the bubble-sort sign of the edge list."""
    n, m, k = g1.n, g2.n, g1.k

    def outer(v):
        return v if v < p else v + m - 1

    inner = [tuple(v + p - 1 for v in e) for e in g2.edges]
    if g1.symmetric:
        picks = [[]]
        for _ in [e for e in g1.edges if p in e]:
            picks = [pick + [w] for pick in picks for w in range(p, p + m)]
        lists = []
        for pick in picks:
            ws = iter(pick)
            lists.append([tuple(sorted(next(ws) if v == p else outer(v) for v in e))
                          if p in e else tuple(map(outer, e)) for e in g1.edges])
    elif any(e[0] < p < e[-1] for e in g1.edges):
        lists = []
    else:
        lists = [[tuple(v + m - 1 for v in e) if p <= e[0] else e for e in g1.edges]]
    out = {}
    for edges in lists:
        edges = edges + inner
        if len(set(edges)) != len(edges):
            continue
        sign, order = 1, list(edges)
        for a in range(len(order)):
            for b in range(len(order) - 1 - a):
                if order[b] > order[b + 1]:
                    order[b], order[b + 1] = order[b + 1], order[b]
                    sign = -sign
        g = graph(n + m - 1, k, g1.symmetric, edges)
        out[g] = out.get(g, 0) + sign
    return {g: c for g, c in out.items() if c}


def _graphs_upto(n, k, symmetric, wmax):
    pool = (list(combinations(range(1, n + 1), k)) if symmetric
            else [tuple(range(i, i + k)) for i in range(1, n - k + 2)])
    return [graph(n, k, symmetric, es)
            for w in range(min(wmax, len(pool)) + 1) for es in combinations(pool, w)]


@pytest.mark.parametrize("k, symmetric, nmax, wmax, cases", [
    (2, True, 5, 2, 970), (2, False, 6, 5, 1023), (3, True, 5, 2, 493),
    (1, True, 4, 2, 366), (1, False, 4, 4, 444)])
def test_compose_matches_reference_enumeration(k, symmetric, nmax, wmax, cases):
    # every composition within the bounds of the gra-iso laws, against the
    # construction written out in full; only one-vertex edges (k = 1) can
    # meet twice, so only they reach the vanishing of repeated edges
    count = 0
    for n in range(1, nmax + 1):
        for m in range(1, nmax + 2 - n):
            for g1 in _graphs_upto(n, k, symmetric, wmax):
                for g2 in _graphs_upto(m, k, symmetric, wmax):
                    for p in range(1, n + 1):
                        terms = graphs._compose_terms(g1, p, g2)
                        assert len(dict(terms)) == len(terms)
                        assert all(c for _, c in terms)
                        assert dict(terms) == _reference_compose(g1, p, g2), (g1, p, g2)
                        count += 1
    assert count == cases


def test_one_term_sums_match_the_merged_sum():
    g1 = graph(3, 2, True, [(1, 2), (1, 3)])
    g2 = graph(2, 2, True, [(1, 2)])

    def f(h):
        return graphs._compose_terms(h, 1, g2)

    def merged(terms, sign):
        return graphs._summed((h, sign * c * cc) for g, c in terms for h, cc in f(g))

    assert len(f(g1)) > 1
    for c in (1, -1, 2):
        for sign in (1, -1):
            assert graphs._then(((g1, c),), f, sign) == merged(((g1, c),), sign)
    assert graphs._then(((g1, 1),), f, -1) == {h: -cc for h, cc in f(g1)}
    assert graphs._then((), f) == {} == graphs._then((), f, -1)


def test_sign_consistency_under_permuted_inputs():
    rng = random.Random(3)
    g1 = graph(3, 2, True, [(1, 2), (2, 3)])
    g2 = graph(2, 2, True, [(1, 2)])
    base = compose_graphs(g1, 2, g2)
    # composing after acting by a transposition and acting back must agree
    sigma = (2, 1, 3)
    acted = graph_action(g1, sigma)
    back = {}
    for g, c in acted:
        for gg, cc in graph_action(g, sigma):
            back[gg] = back.get(gg, 0) + c * cc
    assert back == {g1: 1}
    # the action is a relabeling: one term, whose sign sorts the new edges
    assert acted == ((graph(3, 2, True, [(1, 2), (1, 3)]), 1),)
    fork = graph(3, 2, True, [(1, 2), (1, 3)])
    assert graph_action(fork, (1, 3, 2)) == ((fork, -1),)


def test_hopf_checks():
    assert all(r.passed for r in hopf_check(2, True, 4, 3))
    assert all(r.passed for r in hopf_check(3, True, 5, 2))
    assert all(r.passed for r in hopf_check(2, False, 7, 2))


def _negated(when):
    """A graph composition that negates the terms of the pairs `when` picks."""
    compose = graphs._compose_terms
    return lambda g1, p, g2: tuple(
        (g, -c if when(g1, g2) else c) for g, c in compose(g1, p, g2))


def _emptied_unit_compositions():
    """A graph composition with no terms for two edgeless graphs."""
    compose = graphs._compose_terms
    return lambda g1, p, g2: (() if not g1.edges and not g2.edges
                              else compose(g1, p, g2))


def _action_unsigned(g, sigma):
    return tuple((h, 1) for h, _ in graph_action(g, sigma))


def _coproduct_unsigned(g):
    return tuple((1, gl, gr) for _, gl, gr in coproduct(g))


def _report(reports, name):
    return next(r for r in reports if r.name == name)


def test_hopf_negative_control(monkeypatch):
    # dropping the unshuffle sign breaks Hopf compatibility on a weight-2 pair
    monkeypatch.setattr(graphs, "coproduct", _coproduct_unsigned)
    compat = _report(hopf_check(2, True, 4, 3), "hopf.compat")
    assert compat.status == "FAIL"
    assert compat.details == "failure at n=2;k=2;edges=12 o_1 n=2;k=2;edges=12"


@pytest.mark.parametrize("attr, fake, run, name, details", [
    ("_compose_terms",
     lambda: _negated(lambda g1, g2: g1.weight == 2 and g2.weight == 1),
     lambda: graph_operad_axioms(2, True, 5), "graph.seq-par",
     "('sequential', n=2;k=2;edges=12, 1, n=2;k=2;edges=12, 1, n=2;k=2;edges=12)"),
    # the first failing case, not the last one, of the right unit law
    ("_compose_terms", lambda: _negated(lambda g1, g2: g2.n == 1 and g1.edges),
     lambda: graph_operad_axioms(2, True, 5), "graph.unit", "(n=2;k=2;edges=12, 1)"),
    ("graph_action", lambda: _action_unsigned,
     lambda: graph_operad_axioms(2, True, 5), "graph.equivariance",
     "('outer', n=2;k=2;edges=12, 1, n=2;k=2;edges=12, (2, 1))"),
    # x o_p (y.tau) = (x o_p y).tau' fails once tau' forgets tau
    ("inflate_inner", lambda: lambda tau, n, m, p: tuple(range(1, n + m)),
     lambda: graph_operad_axioms(2, True, 5), "graph.equivariance",
     "('inner', n=2;k=2;edges=, 1, n=3;k=2;edges=12, (1, 3, 2))"),
    # the first graph that is not cocommutative, not one of a later arity
    ("coproduct", lambda: _coproduct_unsigned, lambda: hopf_check(2, True, 4, 3),
     "hopf.coalgebra", "cocomm fails on n=3;k=2;edges=12,13"),
    ("weight_component",
     lambda: lambda kind, q, w: weight_component(kind, q, w) + (w == 2),
     lambda: sc_iso_check(build_family("BKW"), 4, 3), "sc_iso.dims", "(2, 2, 1, 0)"),
    ("_compose_terms",
     lambda: _negated(lambda g1, g2: g1.n >= 3 and g1.weight == 1 and not g2.edges),
     lambda: sc_iso_check(build_family("BKW"), 4, 3), "sc_iso.cogenerators",
     "(3, 2, 1, (1, 2), {1: -1, 3: -1}, {1: 1, 3: 1})"),
    # units compose to the unit: a counit clause, as the projections only
    # count cogenerators
    ("_compose_terms", _emptied_unit_compositions,
     lambda: sc_iso_check(build_family("BKW"), 4, 3), "sc_iso.counit",
     "(2, 2, 1, 'units')"),
], ids=["seq-par", "unit", "outer-equivariance", "inner-equivariance",
        "coalgebra", "dims", "cogenerators", "units"])
def test_failing_graph_law_reports(monkeypatch, attr, fake, run, name, details):
    # each graph law reports its first failing case; the passing reports
    # are pinned by the golden reports
    monkeypatch.setattr(graphs, attr, fake())
    report = _report(run(), name)
    assert (report.status, report.details) == ("FAIL", details)


def test_graph_operad_axioms():
    for k, sym, nmax in ((2, True, 5), (2, False, 6), (3, True, 5)):
        reps = graph_operad_axioms(k, sym, nmax)
        assert all(r.passed for r in reps), (k, sym)


def test_sc_iso_all_three_pairs():
    assert all(r.passed for r in sc_iso_check(build_family("BKW"), 4, 3))
    assert all(r.passed for r in sc_iso_check(build_family("HG", k=3), 5, 2))
    assert all(r.passed for r in sc_iso_check(build_family("LG"), 8, 2))


@pytest.mark.parametrize("drop", ["left", "right"])
def test_sc_iso_counit_fails_on_a_coproduct_without_a_unit_term(monkeypatch, drop):
    # the counit case is computed: a coproduct that drops the term
    # (edgeless, g) or (g, edgeless) of a graph g with edges makes it FAIL
    import quadop.graphs as graphs

    side = 1 if drop == "left" else 2

    def dropped(g):
        return tuple(t for t in coproduct(g) if t[side].weight or not g.weight)

    monkeypatch.setattr(graphs, "coproduct", dropped)
    cases = {r.name: r for r in sc_iso_check(build_family("BKW"), 4, 3)}
    assert cases["sc_iso.counit"].status == "FAIL"
    assert cases["sc_iso.counit"].details == "(2, n=2;k=2;edges=12)"
    monkeypatch.undo()
    cases = {r.name: r for r in sc_iso_check(build_family("BKW"), 4, 3)}
    assert cases["sc_iso.counit"].details == "empty graph <-> unit, by construction"
    assert cases["sc_iso.counit"].passed


def test_holonomy_dims():
    assert holonomy_dims(build_family("DK"), 3, 4) == (3, 1, 2, 3)
    assert holonomy_dims(build_family("BKW"), 4, 2) == (6, 0)
    assert holonomy_dims(build_family("LG"), 4, 2) == (3, 0)


def test_gerstenhaber_dims():
    reps = gerstenhaber_dim_check(2, 5)
    assert all(r.passed for r in reps)
    reps3 = gerstenhaber_dim_check(3, 5)
    assert all(r.status in ("PASS", "INFO") for r in reps3)


def test_graph_serialization_round_trip():
    g = graph(4, 2, True, [(1, 2), (3, 4)])
    assert parse_graph(serialize_graph(g)) == g
    big = graph(12, 3, True, [(1, 2, 10), (3, 11, 12)])
    assert parse_graph(serialize_graph(big)) == big
    s = {g: Fraction(-1, 2)}
    assert graph_sum_to_json(s) == [
        {"coeff": "-1/2", "graph": "n=4;k=2;edges=12,34"}
    ]
