"""Layer-boundary tracer for quadop, installed from outside the package.

A layer is a set of quadop modules (see LAYERS).  install() replaces every
function and method a layer defines with a wrapper, and rebinds every
`from .x import f` alias in every other module to that same wrapper, so no
call bypasses it.  A wrapper opens a span only when the call crosses into
another layer; a call within the caller's layer runs unwrapped.  Spans are
aggregated in memory per function as they close (calls, total and self
time), which keeps the cost of hot kernel calls to two clock reads.

A layer's self time is the time its spans cover minus the time their child
spans cover, so the self times of all layers, the root `driver` span
included, sum to the traced wall time.  Arithmetic on Fraction and other
non-quadop code counts as self time of the layer that calls it, and the body
of a generator counts where the generator is consumed.

Some functions also carry a counter that records every call, within its
layer or across (see COUNTED).
"""

import enum
import functools
import sys
import time
import types

LAYERS = {
    "kernel": ("quadop.kernel", "quadop.kernel._echelon_py",
               "quadop.kernel._echelon_cy"),
    "exactlin": ("quadop.exactlin",),
    "graded": ("quadop.graded",),
    "qd": ("quadop.qd",),
    "realize": ("quadop.realize",),
    "boqd": ("quadop.boqd",),
    "operads": ("quadop.operads",),
    "graphs": ("quadop.graphs",),
    "driver": ("quadop", "quadop.__main__", "quadop.suites", "quadop.cli",
               "quadop.report", "quadop.rand", "quadop.catalog"),
}
ROOT = "driver"
# The kernel imports no other layer, so a call into it opens no child span:
# its calls are timed without a frame, and only the outermost one counts.
LEAF = "kernel"

# Dunder methods that do the work of a layer; the others (hashing, equality,
# repr) run too often and too briefly to be worth a span.
_DUNDERS = {"__init__", "__post_init__", "__call__", "__add__", "__sub__",
            "__mul__", "__rmul__", "__neg__", "__getitem__"}

# Functions whose every call is counted: qualified name -> counter.
COUNTED = {
    "exactlin.Subspace.__init__": "exactlin.subspace_builds",
    "graded.GradedSpace.__post_init__": "graded.space_builds",
    "qd.QuadraticData.__post_init__": "qd.qd_builds",
    "boqd.Arity3Space.__init__": "boqd.arity3_builds",
    "operads.OperadFamily.comp": "operads.compose.calls",
    "realize.weight_component": "realize.weight_component.calls",
    "graphs.compose_graphs": "graphs.compose_graphs.calls",
}
QUERIES = ("exactlin.Subspace.contains", "exactlin.Subspace.contains_subspace",
           "exactlin.Subspace.reduce")
CACHES = {"operads.build_family": "operads.build_family",
          "realize._component_cached": "realize.component_cache"}


def _entry_bits(values):
    """Largest bit length of a numerator or denominator among values."""
    bits = 0
    for v in values:
        b = max(abs(v.numerator).bit_length(), v.denominator.bit_length())
        if b > bits:
            bits = b
    return bits


class Tracer:
    """Span and counter collection for one traced call tree.

    clock is injectable so tests can drive time by hand.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []          # open spans: [layer, start, child time]
        self.spans = {}          # name -> [layer, calls, total_s, self_s]
        self.counters = dict.fromkeys(
            ["kernel.add.calls", "kernel.add.rank_gains",
             "kernel.rref.max_entry_bits", "exactlin.queries",
             "exactlin.query_kernel_adds"] + list(COUNTED.values()), 0)
        self.caches = {}         # metric prefix -> lru_cache wrapper
        self.wall_s = 0.0
        self._patches = []       # (owner, attribute, original) to undo
        self._query_depth = 0
        self._in_leaf = [False]

    # -- spans ---------------------------------------------------------

    def span(self, layer, name, fn):
        """Wrap fn so a call entering `layer` from another layer is a span."""
        stack = self.stack
        clock = self.clock
        stat = self.spans.setdefault(name, [layer, 0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack or stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - frame[1]
                stat[1] += 1
                stat[2] += dur
                stat[3] += dur - frame[2]
                stack[-1][2] += dur

        traced.__traced__ = True
        return traced

    def leaf_span(self, layer, name, fn):
        """Like span() for the leaf layer, which calls no other layer: the
        time goes straight to the caller's span as child time."""
        stack = self.stack
        clock = self.clock
        busy = self._in_leaf
        stat = self.spans.setdefault(name, [layer, 0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if busy[0] or not stack:
                return fn(*args, **kwargs)
            busy[0] = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                busy[0] = False
                stat[1] += 1
                stat[2] += dur
                stat[3] += dur
                stack[-1][2] += dur

        traced.__traced__ = True
        return traced

    def run(self, fn, *args, **kwargs):
        """Call fn under the root span and record the traced wall time."""
        name = "%s.%s" % (ROOT, getattr(fn, "__qualname__", "run"))
        stat = self.spans.setdefault(name, [ROOT, 0, 0.0, 0.0])
        frame = [ROOT, self.clock(), 0.0]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            dur = self.clock() - frame[1]
            self.wall_s += dur
            stat[1] += 1
            stat[2] += dur
            stat[3] += dur - frame[2]

    # -- counters ------------------------------------------------------

    def count(self, key, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)
        return counted

    def count_add(self, fn):
        """EchelonBasis.add: folds, folds that raised the rank, and the bit
        size of each new pivot row.  The pure kernel keeps pivot rows as
        integer rows in a dict, so the new row is the last one inserted."""
        c = self.counters

        @functools.wraps(fn)
        def add(basis, row):
            gained = fn(basis, row)
            c["kernel.add.calls"] += 1
            if gained:
                c["kernel.add.rank_gains"] += 1
                pivots = getattr(basis, "pivots", None)
                if isinstance(pivots, dict):
                    new = next(reversed(pivots.values())).values()
                    bits = max(map(abs, new)).bit_length()
                    if bits > c["kernel.rref.max_entry_bits"]:
                        c["kernel.rref.max_entry_bits"] = bits
            return gained
        return add

    def count_rref(self, fn):
        c = self.counters

        @functools.wraps(fn)
        def rref(basis):
            rows = fn(basis)
            for r in rows:
                bits = _entry_bits(r.values())
                if bits > c["kernel.rref.max_entry_bits"]:
                    c["kernel.rref.max_entry_bits"] = bits
            return rows
        return rref

    def count_query(self, fn):
        """Membership queries, and the kernel folds made inside the
        outermost one."""
        c = self.counters

        @functools.wraps(fn)
        def query(*args, **kwargs):
            if self._query_depth:
                return fn(*args, **kwargs)
            c["exactlin.queries"] += 1
            before = c["kernel.add.calls"]
            self._query_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._query_depth -= 1
                c["exactlin.query_kernel_adds"] += c["kernel.add.calls"] - before
        return query

    def _instrument(self, layer, qualname, fn):
        name = "%s.%s" % (layer, qualname)
        if name == "kernel.EchelonBasis.add":
            fn = self.count_add(fn)
        elif name == "kernel.EchelonBasis.rref":
            fn = self.count_rref(fn)
        elif name in QUERIES:
            fn = self.count_query(fn)
        elif name in COUNTED:
            fn = self.count(COUNTED[name], fn)
        if layer == LEAF:
            return self.leaf_span(layer, name, fn)
        return self.span(layer, name, fn)

    # -- installation --------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, layers=LAYERS):
        """Wrap every function and method the layers' modules define, then
        rebind every alias of them in those modules."""
        layer_of = {m: layer for layer, mods in layers.items() for m in mods}
        modules = [sys.modules[m] for m in layer_of if m in sys.modules]
        wrapped = {}             # id(original) -> wrapper
        for mod in modules:
            layer = layer_of[mod.__name__]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapped[id(obj)] = self._instrument(layer, attr, obj)
                elif hasattr(obj, "cache_info"):     # an lru_cache
                    name = "%s.%s" % (layer, attr)
                    if name in CACHES:
                        self.caches[CACHES[name]] = obj
                    wrapped[id(obj)] = self._instrument(layer, attr, obj)
                elif isinstance(obj, type) and not issubclass(
                        obj, (BaseException, enum.Enum)):
                    self._install_class(layer, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, attr, wrapped[id(obj)])
        return self

    def _install_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("__") and attr not in _DUNDERS:
                continue
            qualname = "%s.%s" % (cls.__name__, attr)
            if isinstance(obj, types.FunctionType):
                value = self._instrument(layer, qualname, obj)
            elif isinstance(obj, (staticmethod, classmethod)):
                value = type(obj)(self._instrument(layer, qualname, obj.__func__))
            else:
                continue
            try:
                self._patch(cls, attr, value)
            except TypeError:    # extension type: its calls stay untraced
                self._patches.pop()
                return

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def summary(self):
        layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
        for layer, calls, _total, self_s in self.spans.values():
            layers[layer]["self_s"] += self_s
            layers[layer]["calls"] += calls
        caches = {}
        for prefix, fn in self.caches.items():
            info = fn.cache_info()
            caches[prefix] = {"hits": info.hits, "misses": info.misses}
        spans = {name: {"calls": s[1], "total_s": s[2], "self_s": s[3]}
                 for name, s in sorted(self.spans.items()) if s[1]}
        return {"wall_s": self.wall_s, "layers": layers,
                "counters": dict(self.counters), "caches": caches,
                "spans": spans}
