"""Positional lambda trees, including infinite regular trees.

A tree is a finite rooted node graph whose edges may form cycles; unfolding
the graph yields a (possibly infinite) partial function from positions to
labels.  Bound variables are stored as de Bruijn indices; the paper's
positional binder labels of the unfolded tree are derived in the tests
(``oracles.label_at``).  ``Hole`` nodes represent positions outside the
domain (the tree ``⊥`` is a single Hole), and the analysis-only leaves
``Cut`` and ``Unknown`` mark depth-bounded and fuel-exhausted verdicts.
They never occur in trees handed to the order, metric, or rewrite
operations.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .terms import (
    Abs,
    App,
    Bot,
    Position,
    Sig,
    Term,
    Var,
    _parse,
    tokenize,
)

LAM = "lam"
APP = "app"
BVAR = "bvar"
FVAR = "fvar"
HOLE = "hole"
CUT = "cut"
UNKNOWN = "unknown"


class Node:
    """One graph node.  ``a``/``b`` hold children or the payload."""

    __slots__ = ("kind", "a", "b", "__weakref__")

    def __init__(self, kind: str, a=None, b=None):
        self.kind = kind
        self.a = a
        self.b = b

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Node({self.kind})"


def lam(child: Node) -> Node:
    return Node(LAM, child)


def app(left: Node, right: Node) -> Node:
    return Node(APP, left, right)


def bvar(index: int) -> Node:
    return Node(BVAR, index)


def fvar(name: str) -> Node:
    return Node(FVAR, name)


def hole() -> Node:
    return Node(HOLE)


def cut() -> Node:
    return Node(CUT)


def unknown() -> Node:
    return Node(UNKNOWN)


def label(n: Node) -> tuple:
    """Path-independent label used by order/metric comparisons."""
    if n.kind in (BVAR, FVAR):
        return (n.kind, n.a)
    return (n.kind,)


def children(n: Node) -> tuple[tuple[int, Node], ...]:
    """(edge index, child) pairs; edge 0 under lam, 1/2 under app."""
    if n.kind == LAM:
        return ((0, n.a),)
    if n.kind == APP:
        return ((1, n.a), (2, n.b))
    return ()


def child_at(n: Node, i: int) -> Node | None:
    if n.kind == LAM and i == 0:
        return n.a
    if n.kind == APP and i == 1:
        return n.a
    if n.kind == APP and i == 2:
        return n.b
    return None


def reachable(root: Node) -> list[Node]:
    """All nodes reachable from the root, in DFS preorder."""
    seen: set[Node] = set()
    order: list[Node] = []
    stack = [root]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        order.append(n)
        if n.kind == APP:
            stack.append(n.b)
            stack.append(n.a)
        elif n.kind == LAM:
            stack.append(n.a)
    return order


def is_finite(root: Node) -> bool:
    """True iff the unfolding is a finite tree (no reachable cycle)."""
    return not back_edges(root)[0]


def back_edges(root: Node, edge=None) -> tuple[set[Node], dict[Node, bool]]:
    """A depth-first search from the root along the edges that ``edge(i)``
    allows (all edges by default); a node first reached over another edge
    starts a search of its own.

    Returns the back-edge targets, the nodes entered again while on the
    search path (so the allowed edges close a cycle iff there is one), and
    the visited nodes: every node reachable from the root.  The search
    enters function sides before argument sides, as ``render_tree`` prints
    them.  Explicit stacks, so no depth
    limit: a popped pair ``(n,)`` finishes n.
    """
    return _back_edges(root, edge, None)


def _back_edges(root: Node, edge, finite: dict[Node, int] | None) -> tuple[set[Node], dict[Node, bool]]:
    """``back_edges``; given the classes of a ``ClassTable`` that has seen
    the root (or None), the search skips every node of a finite class.  Such
    a node reaches no cycle, so it is no target and leads to none: the
    targets are those of the whole search, at the cost of the nodes that
    reach a cycle."""
    body, fun, arg = (True, True, True) if edge is None else (edge(0), edge(1), edge(2))
    targets: set[Node] = set()
    state: dict[Node, bool] = {}  # True while on the search path, False when done
    starts = [root]
    stack: list = []
    while starts:
        stack.append(starts.pop())
        while stack:
            n = stack.pop()
            if type(n) is tuple:
                state[n[0]] = False
                continue
            st = state.get(n)
            if st is not None:
                if st:
                    targets.add(n)
                continue
            if finite is not None and finite[n] >= 0:
                continue
            kind = n.kind
            if kind == APP:
                state[n] = True
                stack.append((n,))
                (stack if arg else starts).append(n.b)
                (stack if fun else starts).append(n.a)
            elif kind == LAM:
                state[n] = True
                stack.append((n,))
                (stack if body else starts).append(n.a)
            else:
                state[n] = False
    return targets, state


def reaching(nodes: list[Node], seed, edge=None) -> set[Node]:
    """The nodes that reach a node satisfying ``seed``.

    ``nodes`` must be closed under children, as ``reachable`` returns them,
    or ``seed`` must hold of every node in ``nodes`` with a child outside
    them that reaches a seed.  A path counts only if ``edge(i)`` allows each
    edge index ``i`` on it (all edges by default).  One pass collects the
    allowed parent edges; a breadth-first search from the seeds then follows
    them backwards, so the cost is linear in the graph.
    """
    body, fun, arg = (True, True, True) if edge is None else (edge(0), edge(1), edge(2))
    parents: dict[Node, list[Node]] = {}
    for n in nodes:
        if n.kind == APP:
            if fun:
                parents.setdefault(n.a, []).append(n)
            if arg:
                parents.setdefault(n.b, []).append(n)
        elif n.kind == LAM and body:
            parents.setdefault(n.a, []).append(n)
    found = {n for n in nodes if seed(n)}
    queue = deque(found)
    while queue:
        for p in parents.get(queue.popleft(), ()):
            if p not in found:
                found.add(p)
                queue.append(p)
    return found


def components(nodes: list[Node], edge=None) -> list[list[Node]]:
    """The strongly connected components of the graph on ``nodes``, each
    listed after every component it reaches.

    ``nodes`` must be closed under children, as ``reachable`` returns them,
    and an edge counts only if ``edge(i)`` allows its index (all edges by
    default).  Tarjan's algorithm (1972) with an explicit stack, so the cost
    is linear in the graph and there is no depth limit.
    """
    body, fun, arg = (True, True, True) if edge is None else (edge(0), edge(1), edge(2))

    def succ(n: Node) -> list[Node]:
        if n.kind == APP:
            return [c for ok, c in ((fun, n.a), (arg, n.b)) if ok]
        return [n.a] if n.kind == LAM and body else []

    num: dict[Node, int] = {}  # discovery order
    low: dict[Node, int] = {}  # least number reachable inside the open part
    path: list[Node] = []  # visited nodes whose component is still open
    open_: set[Node] = set()
    out: list[list[Node]] = []
    for root in nodes:
        if root in num:
            continue
        num[root] = low[root] = len(num)
        path.append(root)
        open_.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            n, todo = work[-1]
            for c in todo:
                if c not in num:
                    num[c] = low[c] = len(num)
                    path.append(c)
                    open_.add(c)
                    work.append((c, iter(succ(c))))
                    break
                if c in open_:
                    low[n] = min(low[n], num[c])
            else:  # every successor is done: finish n
                work.pop()
                if work:
                    up = work[-1][0]
                    low[up] = min(low[up], low[n])
                if low[n] == num[n]:  # n roots a component
                    comp = []
                    while True:
                        m = path.pop()
                        open_.discard(m)
                        comp.append(m)
                        if m is n:
                            break
                    out.append(comp)
    return out


def has_kind(root: Node, *kinds: str) -> bool:
    return any(n.kind in kinds for n in reachable(root))


def max_bvar_index(root: Node) -> int:
    """Largest de Bruijn index reachable anywhere, or -1."""
    idx = -1
    for n in reachable(root):
        if n.kind == BVAR:
            idx = max(idx, n.a)
    return idx


def max_bvar_indices(root: Node) -> dict[Node, int]:
    """``max_bvar_index`` of every node below the root, in one pass over
    the strongly connected components: each takes the largest index among
    its own nodes and the components it reaches, which come before it."""
    out: dict[Node, int] = {}
    for comp in components(reachable(root)):
        idx = -1
        for n in comp:
            if n.kind == BVAR:
                idx = max(idx, n.a)
            for _, c in children(n):
                idx = max(idx, out.get(c, -1))  # a member of comp has none yet
        for n in comp:
            out[n] = idx
    return out


# ---------------------------------------------------------------------------
# Canonical forms and bisimulation


_OPEN = -1  # ClassTable: the node is on the depth-first path
_CYCLIC = -2  # ClassTable: the node reaches a cycle


class ClassTable:
    """Finite classes of nodes, interned across the calls of ``add``.

    ``add(root)`` visits, in one iterative depth-first pass, the nodes below
    the root that the table has not seen, and finishes them in postorder.  A
    node that reaches no cycle has a finite unfolding; its class is interned
    from its label and its children's classes when it finishes, so two nodes
    share a class iff they are bisimilar.  A node that reaches a cycle gets
    the negative ``_CYCLIC``: its unfolding is infinite, so it is bisimilar
    to no finite node.  The classes hold while the nodes seen never change.

    Each finite class c also records ``free[c]``, the largest de Bruijn
    index that escapes its members, or -1 if none does.  It is set once,
    when the class is interned, from the label and the children's classes:
    a variable of index i gives i, a lambda its body's less one (at least
    -1), an application the larger of its children's.  So the de Bruijn
    walkers of a step (``rewriting.substitute``, ``shift``,
    ``unshift_free``) know without a walk which finite subgraphs they leave
    unchanged.  A node that reaches a cycle has no entry.

    ``_open`` is the one place that opens a class and sets its ``free``
    index: ``add`` calls it, and so does ``rewriting.NodeIndex.node``, which
    interns a node as it is made.
    """

    __slots__ = ("cls", "table", "rep", "free")

    def __init__(self):
        self.cls: dict[Node, int] = {}  # node -> class, _OPEN or _CYCLIC
        self.table: dict[tuple, int] = {}  # (label, child classes) -> class
        self.rep: list[Node] = []  # class -> a member
        self.free: list[int] = []  # class -> its largest free index, or -1

    def add(self, root: Node) -> tuple[list[Node], list[Node]]:
        """The new nodes with a finite class, in postorder, and the new
        nodes that reach a cycle."""
        cls, table = self.cls, self.table
        finite: list[Node] = []
        cyclic: list[Node] = []
        stack = [root]
        while stack:
            n = stack[-1]
            state = cls.get(n)
            if state is None:  # first visit: open it and push unseen children
                cls[n] = _OPEN
                k = n.kind
                if k == APP:
                    if n.b not in cls:
                        stack.append(n.b)
                    if n.a not in cls:
                        stack.append(n.a)
                elif k == LAM and n.a not in cls:
                    stack.append(n.a)
                continue
            stack.pop()
            if state != _OPEN:  # a second entry of a finished node
                continue
            # every child is finished or still open (a back edge)
            k = n.kind
            if k == APP:
                x, y = cls[n.a], cls[n.b]
                if x < 0 or y < 0:
                    cls[n] = _CYCLIC
                    cyclic.append(n)
                    continue
                key = (k, x, y)
            elif k == LAM:
                x = cls[n.a]
                if x < 0:
                    cls[n] = _CYCLIC
                    cyclic.append(n)
                    continue
                key = (k, x)
            else:
                key = label(n)
            c = table.get(key)
            if c is None:
                self._open(key, n)
            else:
                cls[n] = c
            finite.append(n)
        return finite, cyclic

    def _open(self, key: tuple, n: Node) -> None:
        """Open the class of ``key``, a label and child classes, with ``n``
        as its member, and set its ``free`` index from the key."""
        free = self.free
        self.table[key] = self.cls[n] = len(self.rep)
        self.rep.append(n)
        k = key[0]
        if k == APP:
            x, y = free[key[1]], free[key[2]]
            free.append(x if x > y else y)
        elif k == LAM:
            x = free[key[1]]
            free.append(x - 1 if x > 0 else -1)
        else:
            free.append(key[1] if k == BVAR else -1)


def canon(root: Node) -> tuple:
    """A canonical key: two trees get equal keys iff they are bisimilar.

    The key is a preorder serialization of the minimized graph (bisimilar
    nodes merged), so it depends on the unfolded tree alone.  A fresh
    ``ClassTable`` gives the finite classes.  Partition refinement then runs
    only over the nodes that reach a cycle, with the finite classes held
    fixed.  The refinement spans that whole part, not one strongly connected
    component at a time: ``X = X X`` and ``C = C X`` lie in different
    components, yet ``C`` and ``X`` are bisimilar.  The serialization walks
    the minimized graph with an explicit stack, so deep graphs cost no
    Python recursion.
    """
    classes = ClassTable()
    _, cyclic = classes.add(root)
    cls, rep = classes.cls, classes.rep
    if cyclic:
        base = len(rep)  # cyclic blocks are numbered from here
        blocks: dict[tuple, int] = {}
        for n in cyclic:
            cls[n] = blocks.setdefault(label(n), base + len(blocks))
        while True:
            count = len(blocks)
            blocks = {}
            new = [
                blocks.setdefault(
                    (cls[n], cls[n.a], cls[n.b]) if n.kind == APP else (cls[n], cls[n.a]),
                    base + len(blocks),
                )
                for n in cyclic
            ]
            for n, b in zip(cyclic, new):
                cls[n] = b
            if len(blocks) == count:  # refinement only ever splits blocks
                break
        rep.extend([None] * len(blocks))  # every block has a member below
        for n in cyclic:
            rep[cls[n]] = n
    # canonical serialization: visit the minimized graph in preorder
    serial = [-1] * len(rep)
    visited = 0
    out: list[tuple] = []
    todo = [cls[root]]
    while todo:
        b = todo.pop()
        s = serial[b]
        if s >= 0:
            out.append(("ref", s))
            continue
        serial[b] = visited
        visited += 1
        n = rep[b]
        out.append(("node", label(n)))
        if n.kind == APP:
            todo.append(cls[n.b])
            todo.append(cls[n.a])
        elif n.kind == LAM:
            todo.append(cls[n.a])
    return tuple(out)


def bisimilar(s: Node, t: Node) -> bool:
    """Graph bisimulation; equality of the unfolded trees.  A node is
    bisimilar to itself, so a pair of one node is not walked.  A pair agrees
    when the kinds do and, for a variable, the payloads."""
    seen: set[tuple[Node, Node]] = set()
    stack = [(s, t)]
    while stack:
        pair = stack.pop()
        x, y = pair
        if x is y or pair in seen:
            continue
        seen.add(pair)
        k = x.kind
        if k != y.kind:
            return False
        if k == APP:
            stack.append((x.a, y.a))
            stack.append((x.b, y.b))
        elif k == LAM:
            stack.append((x.a, y.a))
        elif (k == BVAR or k == FVAR) and x.a != y.a:
            return False
    return True


def agree_where_defined(s: Node, t: Node) -> bool | None:
    """Do the unfoldings agree wherever neither has a Cut or Unknown leaf?

    False if some position reached through agreeing labels disagrees; None
    if none does but a Cut or Unknown leaf left a position undecided; True
    otherwise, when the trees are bisimilar.
    """
    undecided = False
    seen: set[tuple[Node, Node]] = set()
    stack = [(s, t)]
    while stack:
        pair = stack.pop()
        if pair in seen:
            continue
        seen.add(pair)
        x, y = pair
        if x.kind in (CUT, UNKNOWN) or y.kind in (CUT, UNKNOWN):
            undecided = True
            continue
        if label(x) != label(y):
            return False
        for (_, a), (_, b) in zip(children(x), children(y)):
            stack.append((a, b))
    return None if undecided else True


# ---------------------------------------------------------------------------
# Conversions to and from terms


def tree_of_term(m: Term) -> Node:
    """The tree of a term: bound variables become de Bruijn indices."""
    scope: dict[str, list[int]] = {}  # binder -> the depths binding it, if any
    top = Node(LAM)  # its child slot receives the result
    # (term, lambda depth, parent, child slot), or a binder whose scope ends
    stack: list = [(m, 0, top, "a")]
    while stack:
        item = stack.pop()
        if type(item) is str:
            scope[item].pop()
            continue
        t, depth, parent, slot = item
        match t:
            case Bot():
                node = hole()
            case Var(name):
                node = bvar(depth - 1 - scope[name][-1]) if scope.get(name) else fvar(name)
            case Abs(binder, body):
                node = Node(LAM)
                scope.setdefault(binder, []).append(depth)
                stack += (binder, (body, depth + 1, node, "a"))
            case App(fun, arg):
                node = Node(APP)
                stack += ((arg, depth, node, "b"), (fun, depth, node, "a"))
            case _:
                raise TypeError(f"not a term: {t!r}")
        setattr(parent, slot, node)
    return top.a


def term_of_tree(t: Node) -> Term:
    """Inverse of tree_of_term on finite trees; binders named x0, x1, ..."""
    if not is_finite(t):
        raise ValueError("cannot convert an infinite (cyclic) tree to a term")
    names: list[str] = []  # the binders of the open lambdas, innermost last
    out: list[Term] = []  # finished subterms
    # a node to convert, or the kind of a node whose children are in ``out``
    stack: list = [t]
    count = 0
    while stack:
        n = stack.pop()
        if type(n) is str:
            if n == LAM:
                out.append(Abs(names.pop(), out.pop()))
            else:
                arg = out.pop()
                out.append(App(out.pop(), arg))
            continue
        if n.kind == HOLE:
            out.append(Bot())
        elif n.kind in (CUT, UNKNOWN):
            raise ValueError(f"tree contains a {n.kind} leaf")
        elif n.kind == BVAR:
            if n.a >= len(names):
                raise ValueError("de Bruijn index escapes the tree")
            out.append(Var(names[-1 - n.a]))
        elif n.kind == FVAR:
            out.append(Var(n.a))
        elif n.kind == LAM:
            names.append(f"x{count}")
            count += 1
            stack += (LAM, n.a)
        elif n.kind == APP:
            stack += (APP, n.b, n.a)
        else:
            raise TypeError(n.kind)
    return out[0]


# ---------------------------------------------------------------------------
# Terms compared through their trees: alpha-equivalent terms have the same
# tree, so names never meet


def conflicts(m: Term, n: Term) -> set[Position]:
    """Positions where the two terms structurally disagree; none iff they
    are alpha-equivalent.  Bound variables disagree when their binders sit
    at different places, free variables when their names differ."""
    s, t = tree_of_term(m), tree_of_term(n)
    links: dict[tuple[Node, Node], tuple | None] = {(s, t): None}
    out: set[Position] = set()
    stack = [(s, t)]
    while stack:
        pair = stack.pop()
        x, y = pair
        if label(x) != label(y):
            out.add(link_position(links, pair))
            continue
        for (i, a), (_, b) in zip(children(x), children(y)):
            links[a, b] = (pair, i)  # a term's tree shares no node
            stack.append((a, b))
    return out


def alpha_eq(m: Term, n: Term) -> bool:
    """True iff the two terms have the same de Bruijn tree."""
    return bisimilar(tree_of_term(m), tree_of_term(n))


def term_distance(sig: Sig, m: Term, n: Term) -> Fraction:
    """2^(-d) where d is the least depth of a conflict; 0 if alpha-equal."""
    return tree_distance(sig, tree_of_term(m), tree_of_term(n))


def term_height(sig: Sig, m: Term) -> int:
    """One more than the greatest depth of a position in the domain; 0 for ⊥."""
    height = 0
    stack = [(tree_of_term(m), 1)]
    while stack:
        n, h = stack.pop()
        if n.kind != HOLE:
            height = max(height, h)
            stack += ((c, h + sig[i]) for i, c in children(n))
    return height


# ---------------------------------------------------------------------------
# Positions


def link_position(links: dict, key) -> Position:
    """The position at which a walk first reached ``key``: ``links`` maps
    each key it visited to (the key it came from, the edge index), and its
    start to None."""
    path: list[int] = []
    link = links[key]
    while link is not None:
        key, i = link
        path.append(i)
        link = links[key]
    return tuple(reversed(path))


def node_at(t: Node, p: Position) -> Node:
    n = t
    for i in p:
        c = child_at(n, i)
        if c is None:
            raise KeyError(f"position {list(p)} leaves the tree at edge {i}")
        n = c
    return n


def in_dom(t: Node, p: Position) -> bool:
    try:
        n = node_at(t, p)
    except KeyError:
        return False
    return n.kind != HOLE


def positions(t: Node, max_len, edge=None):
    """The (position, node) pairs of the unfolding in shortlex order: a
    breadth-first walk, which visits a node's edges in their numeric order,
    along the edges that ``edge(i)`` allows (all edges by default), never
    past length ``max_len``, which may be ``math.inf``.  A node comes once
    per path to it, so on a graph with cycles or sharing the pairs can be
    exponentially many in ``max_len``: a caller that may meet such a graph
    counts what it consumes.
    """
    allowed = (True, True, True) if edge is None else (edge(0), edge(1), edge(2))
    queue: list[tuple[Position, Node]] = [((), t)]
    for p, n in queue:  # the loop also reaches the pairs appended during it
        yield p, n
        if len(p) < max_len:
            for i, c in children(n):
                if allowed[i]:
                    queue.append((p + (i,), c))


# ---------------------------------------------------------------------------
# Graph transformations


def build(start, expand, settle=None) -> Node:
    """The graph of the states reachable from ``start``.

    ``expand(state)`` returns either a finished ``Node``, which stands for
    the state as it is, or an interior node's kind and child states:
    ``(LAM, body)`` or ``(APP, fun, arg)``.  Each state, which must be
    hashable, is expanded once, a first child before a second.  An interior
    node is allocated before its children are linked, so cycles among the
    states close, and the walk keeps an explicit stack, so it has no depth
    limit.

    ``settle()``, if given, runs after the walk and before any child is
    linked.  It returns expanded states that turn out to be bottom, a
    verdict that may need the whole walk, and each of them stands for one
    fresh hole, so the nodes that their expansions allocated drop out of
    the result.
    """
    memo: dict = {}
    interior: list[tuple[Node, tuple]] = []  # nodes whose children are unset
    stack = [start]
    while stack:
        state = stack.pop()
        if state in memo:
            continue
        out = expand(state)
        if type(out) is tuple:
            node = Node(out[0])
            interior.append((node, out))
            if len(out) == 3:
                stack.append(out[2])
            stack.append(out[1])
            out = node
        memo[state] = out
    if settle is not None:
        for state in settle():
            memo[state] = Node(HOLE)
    for node, out in interior:
        node.a = memo[out[1]]
        if len(out) == 3:
            node.b = memo[out[2]]
    return memo[start]


def transform(root: Node, leaf, step=(1, 0, 0), cap=None) -> Node:
    """Copy the graph below ``root``, ``build`` over (node, depth) states.

    The walk starts in state ``(root, 0)`` and crosses edge ``i`` with
    the depth raised by ``step[i]``: ``(1, 0, 0)`` counts the binders
    crossed, as de Bruijn indices need.  A depth above ``cap`` counts as
    ``cap``, which bounds the states of a cyclic graph.  ``leaf(n, d)``
    returns the node that replaces a state, or None to share a leaf and to
    copy an interior node, whose children's states are walked in turn.
    """
    body, fun, arg = step
    top = math.inf if cap is None else cap

    def expand(state):
        n, d = state
        out = leaf(n, d)
        if out is not None:
            return out
        kind = n.kind
        if kind == APP:
            e = d + fun
            f = d + arg
            return APP, (n.a, e if e < top else top), (n.b, f if f < top else top)
        if kind == LAM:
            e = d + body
            return LAM, (n.a, e if e < top else top)
        return n

    return build((root, 0), expand)


def map_graph(root: Node, leaf_fn) -> Node:
    """Copy the graph, letting ``leaf_fn(node)`` replace nodes (or return
    None to keep leaves).  Interior structure and cycles are preserved."""
    return transform(root, lambda n, d: leaf_fn(n), (0, 0, 0))


def close_subtree(n: Node) -> Node:
    """Replace de Bruijn indices escaping ``n`` by fresh free variables."""

    def escape(m: Node, d: int) -> Node | None:
        if m.kind == BVAR and m.a >= d:
            return fvar(f"_e{m.a - d}")
        return None

    return transform(n, escape, cap=max_bvar_index(n) + 1)


def bind_fvars(root: Node, mapping: dict[str, int]) -> Node:
    """Turn free variables back into de Bruijn indices: a free variable in
    ``mapping`` at lambda-crossing depth d becomes BVar(mapping[name] + d)."""
    if not mapping:
        return root
    # nodes that cannot reach a mapped free variable are shared untouched
    nodes = reachable(root)
    relevant = reaching(nodes, lambda n: n.kind == FVAR and n.a in mapping)
    # a path that crosses more lambdas than there are repeats one, and so
    # runs around a cycle that raises the depth without bound
    lambdas = sum(n.kind == LAM for n in relevant)

    def rebind(m: Node, d: int) -> Node | None:
        if m not in relevant:
            return m
        if d > lambdas:
            raise ValueError("cannot rebind a variable occurring at unbounded depth")
        if m.kind == FVAR:  # a relevant leaf is a mapped free variable
            return bvar(mapping[m.a] + d)
        return None

    return transform(root, rebind)


# ---------------------------------------------------------------------------
# Guardedness, truncation, metric


def is_guarded(sig: Sig, t: Node) -> bool:
    """True iff every cycle in the graph crosses a non-strict edge;
    equivalently, no infinite branch of bounded depth exists.

    One ``back_edges`` search along the strict edges finds their cycles and
    visits every node, which is then checked for Cut/Unknown leaves.
    """
    cycles, seen = back_edges(t, lambda i: sig[i] == 0)
    if any(n.kind == CUT or n.kind == UNKNOWN for n in seen):
        raise ValueError("guardedness is undefined for Cut/Unknown leaves")
    return not cycles


def truncate(sig: Sig, t: Node, d: int) -> Node:
    """Restriction of the tree to positions of depth < d (a finite tree).

    Guardedness makes every cycle raise the depth, so the walk's depth cap
    ``d``, where every state becomes a Hole, leaves no cycle in the copy.
    """
    if not is_guarded(sig, t):
        raise ValueError("cannot truncate an unguarded tree")
    return transform(t, lambda n, k: hole() if k >= d else None, sig, cap=d)


def tree_distance(sig: Sig, s: Node, t: Node) -> Fraction:
    """2^(-d) with d the least depth of a disagreeing position; 0 if equal."""
    for x in (s, t):
        if not is_guarded(sig, x):
            raise ValueError("tree_distance requires guarded trees")
    return _distance(sig, s, t)


def _distance(sig: Sig, s: Node, t: Node) -> Fraction:
    """``tree_distance`` of two trees already known to be guarded.

    A 0-1 BFS over the product graph, keyed by node pairs: an edge costs
    its signature bit, so states leave the deque in order of depth, each
    first at its least, and the first disagreement (of kind, or of a
    variable's payload) is the shallowest.
    """
    body, fun, arg = sig
    seen: set[tuple[Node, Node]] = set()
    queue: deque[tuple[Node, Node, int]] = deque([(s, t, 0)])
    while queue:
        x, y, d = queue.popleft()
        key = (x, y)
        if key in seen:
            continue
        seen.add(key)
        k = x.kind
        if k != y.kind:
            return Fraction(1, 2**d)
        if k == APP:
            if fun:
                queue.append((x.a, y.a, d + 1))
            else:
                queue.appendleft((x.a, y.a, d))
            if arg:
                queue.append((x.b, y.b, d + 1))
            else:
                queue.appendleft((x.b, y.b, d))
        elif k == LAM:
            if body:
                queue.append((x.a, y.a, d + 1))
            else:
                queue.appendleft((x.a, y.a, d))
        elif (k == BVAR or k == FVAR) and x.a != y.a:
            return Fraction(1, 2**d)
    return Fraction(0)


# ---------------------------------------------------------------------------
# Tree literals: rec X. TERM


def _tie(placeholder: Node, body: Node) -> None:
    placeholder.kind, placeholder.a, placeholder.b = body.kind, body.a, body.b


def parse_tree(text: str) -> Node:
    """Parse a term or a regular-tree literal with ``rec X. TERM`` bindings."""
    return _parse(
        tokenize(text),
        lambda name, index: fvar(name) if index is None else bvar(index),
        hole,
        lambda name, body: lam(body),
        app,
        _tie,
    )


def render_tree(t: Node, ascii_only: bool = False) -> str:
    """Print a tree; cyclic trees print as ``rec`` literals.

    This is ``render_trees`` on one root.  Over several roots that function
    keeps a memo from (finite class, lambda depth, context) to text already
    printed, so a later root copies what an earlier one printed.  A lone
    root has no later root to reuse its text, so it skips the class table
    and the memo's bookkeeping, which would about double its cost.
    """
    return render_trees([t], ascii_only)[0]


def render_trees(
    roots: list[Node], ascii_only: bool = False, classes: ClassTable | None = None
) -> list[str]:
    """Print each tree as ``render_tree`` does, reusing the text of the
    subtrees that an earlier root already printed.

    One iterative pass per root, with no depth limit: ``back_edges`` marks
    the nodes entered twice on some path, then an explicit work stack prints
    the unfolding into a list of parts, naming each marked node ``M0``,
    ``M1``, ... where its ``rec`` opens.  Binders are named from the lambda
    depth, ``x0`` outermost.

    Given several roots, as the states of a trace, one ``ClassTable`` spans
    them all: ``classes`` if given, such as the table that indexed the
    trace's run, to which the roots' unseen nodes are added, else a fresh
    one.  A node of a finite class has no ``rec`` below it, so its text
    depends only on its class, its lambda depth and its context (whether it
    needs parentheses).  While a root prints, the part indices at which each
    such subtree starts and ends are recorded; once the root's string is
    joined, a memo maps (class, depth, context) to that string and the two
    character offsets.  A later root copies a memoised subtree as one slice
    and walks no node below it, and the back-edge search skips the finite
    classes, so each root costs about the nodes that earlier roots did not
    print.  The offsets are kept, not the slices, so a deep tree is never
    concatenated bottom-up.  The last root records no entries, since no
    root comes after it, and a lone root keeps neither table nor memo.
    """
    bot = "bot" if ascii_only else "⊥"
    cut_s = "..." if ascii_only else "…"
    leaf = {HOLE: bot, CUT: cut_s, UNKNOWN: "?"}
    share = len(roots) > 1
    if share:
        if classes is None:
            classes = ClassTable()
        cls = classes.cls
        memo: dict[tuple, tuple[str, int, int]] = {}
    out: list[str] = []
    for t in roots:
        # a memo entry in progress: its key, start part and end part
        keys: list[tuple] = []
        starts: list[int] = []
        ends: list[int] = []
        record = share and len(out) < len(roots) - 1
        if share:
            classes.add(t)
            loops = _back_edges(t, None, cls)[0] if cls[t] < 0 else ()
        else:
            loops = back_edges(t)[0]

        # work items: a string is printed as is, a Node closes its rec
        # binding, an int ends memo entry ``keys[item]``, and a triple (node,
        # lambda depth, context) prints the node's unfolding; contexts: 0 top
        # (no parentheses), 1 function side, 2 argument side.  The inner loop
        # walks down function sides and lambda bodies directly and defers
        # only the argument sides.
        parts: list[str] = []
        rec_names: dict[Node, str] = {}
        counter = 0
        work: list = [(t, 0, 0)]
        while work:
            item = work.pop()
            tp = type(item)
            if tp is str:
                parts.append(item)
                continue
            if tp is int:
                ends[item] = len(parts)
                continue
            if tp is Node:
                del rec_names[item]
                continue
            n, d, ctx = item
            while True:
                kind = n.kind
                if kind == APP or kind == LAM:
                    if share and cls[n] >= 0:
                        key = (cls[n], d, ctx)
                        hit = memo.get(key)
                        if hit is not None:
                            earlier, i, j = hit
                            parts.append(earlier[i:j])
                            break
                        if record:  # the end marker goes below the node's own items
                            work.append(len(keys))
                            keys.append(key)
                            starts.append(len(parts))
                            ends.append(0)
                    if n in loops:
                        name = rec_names.get(n)
                        if name is not None:
                            parts.append(name)
                            break
                        name = rec_names[n] = f"M{counter}"
                        counter += 1
                        if ctx:
                            parts.append("(")
                            work.append(")")
                        work.append(n)
                        parts.append(f"rec {name}. ")
                        ctx = 0
                    if kind == APP:
                        if ctx == 2:
                            parts.append("(")
                            work.append(")")
                        work += ((n.b, d, 2), " ")
                        n, ctx = n.a, 1
                    else:
                        if ctx:
                            parts.append("(")
                            work.append(")")
                        parts.append(f"\\x{d}.")
                        n, d, ctx = n.a, d + 1, 0
                    continue
                if kind == FVAR:
                    parts.append(n.a)
                elif kind == BVAR:
                    parts.append(f"x{d - 1 - n.a}" if n.a < d else f"_e{n.a - d}")
                elif kind in leaf:
                    parts.append(leaf[kind])
                else:
                    raise TypeError(kind)
                break
        text = "".join(parts)
        out.append(text)
        if keys:
            offsets = [0, *accumulate(map(len, parts))]
            for key, i, j in zip(keys, starts, ends):
                memo[key] = (text, offsets[i], offsets[j])
    return out


# ---------------------------------------------------------------------------
# Approximants


@dataclass(frozen=True)
class Approximant:
    """A depth-bounded tree whose leaves distinguish proven-bottom (Hole),
    depth-limit (Cut), and fuel-exhaustion (Unknown)."""

    tree: Node
    depth: int | None = None
    fuel_exhausted: bool = False
    non_canonical: bool = False

    @property
    def has_unknown(self) -> bool:
        return has_kind(self.tree, UNKNOWN)
