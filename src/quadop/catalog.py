"""Named quadratic data and the comparison spans used by the duality checks."""

from itertools import combinations, product as iproduct

from .graded import GradedSpace, wedge_row
from .operads import build_family
from .qd import QDFlavor, make_qd


def aos_data(n):
    """Generators one per edge in degree -1; relations the three-term cyclic
    sums over increasing vertex triples."""
    edges = list(combinations(range(1, n + 1), 2))
    gens = GradedSpace.from_labels(("w_%d.%d" % e for e in edges), -1)
    pos = {e: i for i, e in enumerate(edges)}
    return make_qd(QDFlavor.SYM, gens, arnold_rows(n, pos, len(edges)))


def arnold_rows(n, pos, d):
    """The three-term cyclic sums over increasing vertex triples, with odd
    generators (x odot y = x(x)y - y(x)x), on an edge indexing pos of a
    d-dimensional generator space: the AOS relations and the DK duals."""
    rows = []
    for i, j, k in combinations(range(1, n + 1), 3):
        pairs = (((i, j), (j, k)), ((j, k), (i, k)), ((i, k), (i, j)))
        rows.append(wedge_row(d, [(pos[e], pos[f], 1) for e, f in pairs]))
    return rows


def pentagon_rows(n, pos, d):
    """The five-term cyclic sums of the shifted-hypergraph dual presentation,
    over all index tuples with repeats allowed; terms whose hyperedge labels
    collide drop out, which yields the degenerate overlap relations."""
    rows = []
    for t in iproduct(range(1, n + 1), repeat=5):
        i, j, k, l, m = t
        terms = []
        for (A, B) in (
            ((i, j, k), (k, l, m)),
            ((j, k, l), (l, m, i)),
            ((k, l, m), (m, i, j)),
            ((l, m, i), (i, j, k)),
            ((m, i, j), (j, k, l)),
        ):
            sa, sb = tuple(sorted(set(A))), tuple(sorted(set(B)))
            if len(sa) == 3 and len(sb) == 3:
                terms.append((pos[sa], pos[sb], 1))
        row = wedge_row(d, terms)
        if row:
            rows.append(row)
    return rows


def named_qd(name, n, k=None):
    """Resolve a named quadratic datum: a family component or AOS."""
    if name.upper() == "AOS":
        return aos_data(n)
    return build_family(name, k=k).component(n)
