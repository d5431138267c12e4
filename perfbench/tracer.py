"""Outside-in tracing of the library's layers.

Each traced function is wrapped from outside: the wrapper replaces the
function's name in every ``ilc`` module that holds it (``canon``, for
example, is imported into ``rewriting``, ``meaningless``, ``developments``
and ``order``), so calls through any of those names are timed.  A call
records a span (name, start, end, parent, op id) in memory.

Node counts are taken before a span starts, by a walk of the benchmark's
own.  The time that walk takes lies inside the enclosing spans, so every
span keeps the counting time it contains and subtracts it: a span's
effective duration is its wall time minus that counting time, and its self
time is its effective duration minus the effective durations of its child
spans.  The self times of one op's spans therefore add up to the effective
duration of its ``cli.main`` span.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter


def graph_size(*roots) -> int:
    """Number of distinct nodes reachable from the roots."""
    seen: set[int] = set()
    stack = [r for r in roots if r is not None]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        if n.kind == "lam":
            stack.append(n.a)
        elif n.kind == "app":
            stack.append(n.a)
            stack.append(n.b)
    return len(seen)


def _size_arg0(args, kwargs):
    return graph_size(args[0])


def _size_arg1(args, kwargs):
    return graph_size(args[1])


def _size_substitute(args, kwargs):
    return graph_size(args[0], args[1])


def _size_glb(args, kwargs):
    return sum(graph_size(t) for t in args[1])


def _steps(result):
    return {"steps": len(result.steps)}


def _unknown(result):
    return {"unknown": int(result.value == "unknown")}


# (metric, module, function, node counter or None, result counter or None).
# Several functions may share a metric; ``terms`` parsing and the address
# helpers are measured inside parse_tree and try_step.
SPANS = [
    ("cli.main", "ilc.cli", "main", None, None),
    ("trees.canon", "ilc.trees", "canon", _size_arg0, None),
    ("trees.parse_tree", "ilc.trees", "parse_tree", None, None),
    ("trees.render_tree", "ilc.trees", "render_tree", None, None),
    ("trees.is_guarded", "ilc.trees", "is_guarded", None, None),
    ("trees.bisimilar", "ilc.trees", "bisimilar", None, None),
    ("trees.tree_distance", "ilc.trees", "tree_distance", None, None),
    ("trees.walkers", "ilc.trees", "close_subtree", None, None),
    ("trees.walkers", "ilc.trees", "map_graph", None, None),
    ("trees.walkers", "ilc.trees", "bind_fvars", None, None),
    ("trees.walkers", "ilc.trees", "truncate", None, None),
    ("rewriting.redex_search", "ilc.rewriting", "first_redex", _size_arg1, None),
    ("rewriting.redex_search", "ilc.rewriting", "outermost_redexes", _size_arg1, None),
    ("rewriting.redex_search", "ilc.rewriting", "redexes", _size_arg1, None),
    ("rewriting.substitute", "ilc.rewriting", "substitute", _size_substitute, None),
    ("rewriting.try_step", "ilc.rewriting", "try_step", None, None),
    ("rewriting.run_strategy", "ilc.rewriting", "run_strategy", None, _steps),
    ("rewriting.trace_export", "ilc.rewriting", "trace_export", None, None),
    ("convergence.p_limit", "ilc.convergence", "p_limit", None, None),
    ("convergence.analyze", "ilc.convergence", "analyze", None, None),
    ("meaningless.is_active", "ilc.meaningless", "is_active", None, _unknown),
    ("meaningless.reduces_to_lam", "ilc.meaningless", "reduces_to_lam", None, _unknown),
    ("meaningless.is_stable", "ilc.meaningless", "is_stable", None, None),
    ("meaningless.bohm_tree", "ilc.meaningless", "bohm_tree", None, None),
    ("meaningless.strict_nf", "ilc.meaningless", "strict_nf", None, None),
    ("order.glb", "ilc.order", "glb", _size_glb, None),
    ("order.tree_leq", "ilc.order", "tree_leq", None, None),
    ("developments.develop", "ilc.developments", "develop", None, None),
    ("developments.path_labels", "ilc.developments", "path_labels", None, None),
    ("developments.joinability", "ilc.developments", "joinability", None, None),
]

# counted but not timed: whole-graph walks are too fine-grained for a span,
# and their time stays in the caller's self time
COUNTS = [("trees.reachable", "ilc.trees", "reachable")]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (op, name, start, end, parent, eff)
        self.open: list[list] = []  # [index, start, counting time at start]
        self.counting = 0.0  # total node-counting time so far
        self.op = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.nodes: dict[str, int] = defaultdict(int)
        self.extra: dict[str, int] = defaultdict(int)
        self._plan: list[tuple] = []  # (module, name, original, wrapper)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if not self._plan:
            for metric, modname, fname, size, post in SPANS:
                self._plan_rebind(sys.modules[modname], fname, self._span_wrapper(metric, size, post))
            for metric, modname, fname in COUNTS:
                self._plan_rebind(sys.modules[modname], fname, self._count_wrapper(metric))
        for mod, attr, orig, wrapped in self._plan:
            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig, wrapped in self._plan:
            setattr(mod, attr, orig)

    def _plan_rebind(self, home, fname: str, make) -> None:
        """Plan to rebind every ilc module's name for the function."""
        orig = getattr(home, fname)
        wrapped = make(orig)
        for modname, mod in list(sys.modules.items()):
            if modname != "ilc" and not modname.startswith("ilc."):
                continue
            for attr, val in vars(mod).items():
                if val is orig:
                    self._plan.append((mod, attr, orig, wrapped))

    def _span_wrapper(self, metric, size, post):
        def make(fn):
            def traced(*args, **kwargs):
                self.calls[metric] += 1
                if size is not None:
                    c0 = perf_counter()
                    self.nodes[metric] += size(args, kwargs)
                    self.counting += perf_counter() - c0
                index = len(self.spans)
                parent = self.open[-1][0] if self.open else None
                self.spans.append(None)
                frame = [index, perf_counter(), self.counting]
                self.open.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    self.open.pop()
                    eff = end - frame[1] - (self.counting - frame[2])
                    self.spans[index] = (self.op, metric, frame[1], end, parent, eff)
                if post is not None:
                    for k, v in post(result).items():
                        self.extra[f"{metric}.{k}"] += v
                return result

            return traced

        return make

    def _count_wrapper(self, metric):
        def make(fn):
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.calls[metric] += 1
                self.nodes[metric] += len(result)
                return result

            return counted

        return make

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per metric; every span must be closed."""
        child = [0.0] * len(self.spans)
        for op, name, start, end, parent, eff in self.spans:
            if parent is not None:
                child[parent] += eff
        out: dict[str, float] = defaultdict(float)
        for k, (op, name, start, end, parent, eff) in enumerate(self.spans):
            out[name] += eff - child[k]
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for op, name, start, end, parent, eff in self.spans:
                f.write(json.dumps({
                    "op": op, "name": name, "start": start, "end": end,
                    "parent": parent, "eff": eff,
                }) + "\n")
