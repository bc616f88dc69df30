"""Per-layer tracing from outside the program.

The tracer wraps the module attributes through which one ackirby module
calls another (for example `ackirby._kernel.expand_multiply`, which
`search` calls as `_kernel.expand_multiply`).  A function that other
modules imported by name (`apply_move`, `search`, `verify`, ...) is
rebound in every ackirby module that holds it, except the two kernel
implementation modules, whose internal calls stay unwrapped so that both
backends are traced at the same boundary.

Each wrapped call inside an iteration records a span: name, start, end,
the index of the enclosing span, and the iteration id.  Spans stay in
memory and are written out when the benchmark ends.  A target that no
longer exists is recorded as missing; its metrics read 0.
"""

import contextlib
import importlib
import inspect
import statistics
import sys
from collections import defaultdict
from time import perf_counter, perf_counter_ns

IMPLEMENTATION_MODULES = ("ackirby._kernel_py", "ackirby._kernel_c")


def _count_expand_multiply(tracer, args, result):
    ci, cj = args[0], args[1]
    tracer.add("kernel.expand_multiply.products",
               2 * max(len(ci), 1) * max(len(cj), 1))
    tracer.add("kernel.expand_multiply.children", len(result))


def _count_successors(tracer, args, result):
    tracer.add("search.successors.edges", len(result))
    tracer.add("search.successors.mul_edges",
               sum(1 for edge, _ in result if edge[0] == "mul"))


def _count_search(tracer, args, result):
    tracer.add("search.visited", result.stats.visited)
    if result.certificate is not None:
        tracer.add("search.cert.moves", len(result.certificate.moves))


# (span name, module, attribute path, counter hook)
TARGETS = (
    ("cli.main", "ackirby.cli", "main", None),
    ("search.search", "ackirby.search", "search", _count_search),
    ("search.successors", "ackirby.search", "_successors", _count_successors),
    ("search.expand_certificate", "ackirby.search", "_expand_certificate", None),
    ("search.verify", "ackirby.search", "verify", None),
    ("kernel.expand_multiply", "ackirby._kernel", "expand_multiply",
     _count_expand_multiply),
    ("kernel.canonical_relator", "ackirby._kernel", "canonical_relator", None),
    ("kernel.reduce_word", "ackirby._kernel", "reduce_word", None),
    ("presentations.apply_move", "ackirby.presentations", "apply_move", None),
    ("presentations.canonical_form", "ackirby.presentations", "canonical_form", None),
    ("kirby.slide", "ackirby.kirby", "slide", None),
    ("kirby.determinant", "ackirby.kirby", "FramedLinkMatrix.determinant", None),
    ("curves.enumerate_candidates", "ackirby.curves", "enumerate_candidates", None),
)


class Tracer:
    """Records spans, counters and per-level search records while an
    iteration id is set; passes calls straight through otherwise."""

    def __init__(self):
        self.spans = []     # (name, start_ns, end_ns, parent index, iteration)
        self.levels = []    # (iteration, depth, visited, frontier, elapsed_s)
        self.counts = defaultdict(int)   # (iteration, counter) -> total
        self.missing = []
        self.iteration = None
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def add(self, counter, n):
        self.counts[(self.iteration, counter)] += n

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block."""
        iteration, self.iteration = self.iteration, None
        try:
            yield
        finally:
            self.iteration = iteration

    # -- installing -------------------------------------------------------

    def install(self, targets=TARGETS):
        for name, module, attr, hook in targets:
            self.wrap(name, module, attr, hook)
        return self

    def wrap(self, name, module_name, attr, hook=None):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(name)
            return
        owner = module
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                self.missing.append(name)
                return
        original = getattr(owner, leaf, None)
        if not callable(original):
            self.missing.append(name)
            return
        wrapper = self._make_wrapper(name, original, hook)
        sites = [(owner, leaf)]
        if owner is module:
            for mod_name, mod in list(sys.modules.items()):
                if (mod is module or mod is None or mod_name in IMPLEMENTATION_MODULES
                        or not (mod_name == "ackirby" or mod_name.startswith("ackirby."))):
                    continue
                sites.extend((mod, key) for key, value in list(vars(mod).items())
                             if value is original)
        for site_owner, key in sites:
            self._patches.append((site_owner, key, getattr(site_owner, key)))
            setattr(site_owner, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _make_wrapper(self, name, fn, hook):
        adapt = self._level_recorder if name == "search.search" and _takes_progress(fn) else None

        def traced(*args, **kwargs):
            if self.iteration is None or (self._stack and self._stack[-1][0] == name):
                return fn(*args, **kwargs)
            if adapt is not None:
                args, kwargs = adapt(args, kwargs)
            parent = self._stack[-1][1] if self._stack else None
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append((name, index))
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.iteration)
            self.add(name + ".calls", 1)
            if hook is not None:
                try:
                    hook(self, args, result)
                except (AttributeError, IndexError, TypeError):
                    # the call's shape changed; its counters go missing
                    if name + ".counters" not in self.missing:
                        self.missing.append(name + ".counters")
            return result

        traced.__wrapped__ = fn
        return traced

    def _level_recorder(self, args, kwargs):
        """Chain a per-level recorder in front of search's public
        progress callback."""
        args = list(args)
        user = args[2] if len(args) > 2 else kwargs.get("progress")
        iteration, start = self.iteration, perf_counter()

        def progress(depth, visited, frontier):
            self.levels.append((iteration, depth, visited, frontier,
                                perf_counter() - start))
            if user is not None:
                user(depth, visited, frontier)

        if len(args) > 2:
            args[2] = progress
        else:
            kwargs = dict(kwargs, progress=progress)
        return tuple(args), kwargs

    # -- reading ----------------------------------------------------------

    def iteration_metrics(self, iteration):
        """Per-layer totals of one iteration: inclusive seconds and self
        seconds per span name, and every counter."""
        spans = [(k, s) for k, s in enumerate(self.spans)
                 if s is not None and s[4] == iteration]
        child_ns = defaultdict(int)
        for _, (_, start, end, parent, _) in spans:
            if parent is not None:
                child_ns[parent] += end - start
        total = defaultdict(float)
        self_s = defaultdict(float)
        for k, (name, start, end, _, _) in spans:
            total[name] += (end - start) / 1e9
            self_s[name] += (end - start - child_ns[k]) / 1e9
        counts = {key: n for (it, key), n in self.counts.items() if it == iteration}
        return total, self_s, counts

    def layer_metrics(self, iterations):
        """Median over iterations of every per-layer metric."""
        rows = [_derive(*self.iteration_metrics(it)) for it in iterations]
        names = sorted(set().union(*rows)) if rows else []
        return {name: statistics.median(row.get(name, 0) for row in rows)
                for name in names}

    def dump(self):
        return {
            "missing": list(self.missing),
            "span_fields": ["name", "start_ns", "end_ns", "parent", "iteration"],
            "spans": [list(s) for s in self.spans],
            "level_fields": ["iteration", "depth", "visited", "frontier", "elapsed_s"],
            "levels": [list(row) for row in self.levels],
        }


def _takes_progress(fn):
    try:
        return "progress" in inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False


def _derive(total, self_s, counts):
    """Named per-layer metrics of one iteration."""
    def c(key):
        return counts.get(key, 0)

    inserts = max(c("search.visited") - c("search.search.calls"), 0)
    children = c("kernel.expand_multiply.children")
    row = {
        "search.prune.kept_ratio": c("search.successors.mul_edges") / children if children else 0.0,
        "search.successors.self_s": self_s["search.successors"],
        "search.dedup.inserts": inserts,
        "search.dedup.duplicates": max(c("search.successors.edges") - inserts, 0),
        "search.dedup.s": self_s["search.search"],
        "cli.overhead_s": total["cli.main"] - total["search.search"],
    }
    for name in ("kernel.expand_multiply", "kernel.canonical_relator",
                 "kernel.reduce_word", "presentations.apply_move",
                 "presentations.canonical_form", "kirby.slide",
                 "kirby.determinant", "curves.enumerate_candidates",
                 "search.successors", "search.search"):
        row[name + ".calls"] = c(name + ".calls")
        row[name + ".s"] = total[name]
    for name in ("search.expand_certificate", "search.verify"):
        row[name + ".s"] = total[name]
    for key in ("kernel.expand_multiply.products", "kernel.expand_multiply.children",
                "search.successors.edges", "search.cert.moves", "search.visited"):
        row[key] = c(key)
    return row
