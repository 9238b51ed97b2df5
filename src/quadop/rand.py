"""Seeded random instances for the property suites.

Every suite derives per-case generators from one 64-bit seed so reports are
reproducible byte-for-byte.
"""

import random
import zlib
from functools import lru_cache

from .boqd import BOQDData, S2Module
from .exactlin import LinearMap, Subspace
from .graded import GradedSpace, signed_square, square
from .kernel import EchelonBasis
from .qd import SQUARE_SIGN, QDFlavor, make_qd


def child_rng(seed, name):
    """Deterministic per-case generator derived from the suite seed."""
    return random.Random((seed & 0xFFFFFFFFFFFFFFFF) ^ zlib.crc32(name.encode()))


def random_graded_space(rng, prefix, max_dim=3):
    n = rng.randint(1, max_dim)
    return GradedSpace(
        tuple("%s%d" % (prefix, i) for i in range(n)),
        tuple(rng.choice((0, 1)) for _ in range(n)),
    )


def _flavor_pool(gens, flavor):
    """Basis rows of the flavor square of gens: for SYM/SKEW the RREF rows
    of its symmetric/antisymmetric part, one per pair i <= j whose signed
    pair vector is nonzero."""
    if flavor in SQUARE_SIGN:
        return list(signed_square(gens, SQUARE_SIGN[flavor]).rows)
    return [{c: 1} for c in range(gens.dim ** 2)]


@lru_cache(maxsize=1024)
def _relation_pool(gens, flavor):
    """The size of the flavor pool of gens and its homogeneous rows grouped
    by degree, in increasing degree; one table per (gens, flavor), shared,
    so read-only."""
    pool = _flavor_pool(gens, flavor)
    amb = square(gens)
    bydeg = {}
    for r in pool:
        degs = {amb.degrees[c] for c in r}
        if len(degs) == 1:
            bydeg.setdefault(degs.pop(), []).append(r)
    return len(pool), tuple(bydeg[d] for d in sorted(bydeg))


def random_relation_rows(rng, gens, flavor):
    """Random homogeneous relation rows inside the flavor square of gens."""
    npool, groups = _relation_pool(gens, flavor)
    rows = []
    if groups:
        for _ in range(rng.randint(0, max(1, npool // 2))):
            combo = {}
            for r in rng.choice(groups):
                c0 = rng.randint(-2, 2)
                if c0:
                    for c, v in r.items():
                        combo[c] = combo.get(c, 0) + c0 * v
            combo = {c: v for c, v in combo.items() if v}
            if combo:
                rows.append(combo)
    return rows


def random_qd(rng, flavor, prefix, max_dim=3):
    flavor = QDFlavor(flavor)
    gens = random_graded_space(rng, prefix, max_dim)
    return make_qd(flavor, gens, random_relation_rows(rng, gens, flavor))


def random_s2module(rng, prefix, max_dim=2):
    """Random graded involutive module: signed-permutation involutions keep
    the eigenbases rational."""
    gens = random_graded_space(rng, prefix, max_dim)
    n = gens.dim
    cols = [None] * n
    idxs = list(range(n))
    rng.shuffle(idxs)
    used = set()
    for i in idxs:
        if i in used:
            continue
        partners = [
            j
            for j in idxs
            if j not in used and j != i and gens.degrees[j] == gens.degrees[i]
        ]
        if partners and rng.random() < 0.4:
            j = partners[0]
            cols[i] = {j: 1}
            cols[j] = {i: 1}
            used.update((i, j))
        else:
            cols[i] = {i: rng.choice((1, -1))}
            used.add(i)
    return S2Module(gens, LinearMap(gens, gens, cols))


def s3_closure_rows(module, rows):
    """The RREF rows of the closure of a set of arity-3 rows under the
    permutation action; only a row that raises the rank is moved on."""
    space = module.arity3
    basis = EchelonBasis()
    queue = list(rows)
    while queue:
        row = queue.pop()
        if basis.add(row):
            queue += space.swap(row), space.rotate(row)
    return basis.rref()


def random_boqd(rng, prefix, max_dim=2):
    """Random relations, closed under S3 here because BOQDData only checks
    closure, and stored as built: s3_closure_rows returns their RREF."""
    mod = random_s2module(rng, prefix, max_dim)
    amb = mod.arity3.ambient
    rows = []
    for _ in range(rng.randint(0, 3)):
        d = rng.choice(sorted(set(amb.degrees)))
        cand = {c: rng.randint(-2, 2) for c in range(amb.dim) if amb.degrees[c] == d}
        cand = {c: v for c, v in cand.items() if v}
        if cand:
            rows.append(cand)
    return BOQDData(mod, Subspace.from_rref(amb, s3_closure_rows(mod, rows)))
