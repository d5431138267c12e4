"""Rewrite systems on lambda trees: beta, eta, strictness rules, and
bottom-collapsing rules, with single steps, redex search, strategies, and
trace recording.

Reductions of length up to omega are represented exactly: a trace is a finite
list of steps, optionally closed by a detected state repetition (a "lasso"),
which stands for the omega-length reduction that repeats the cycle forever.

Nodes are immutable once they are handed to ``run_strategy`` or to a redex
search.  Every node mutation in the library happens inside the builder that
allocated the node, before the builder returns it: ``trees.build``,
``trees._tie`` and ``trees.tree_of_term``.  A step only adds nodes, the
spines of its reduct and context and the contractum, each built whole, so
a ``NodeIndex`` records its facts about a node once and they hold for the
whole run.

A step shares what it leaves unchanged with the state before it: the
siblings of its spines, and inside the contractum every finite subgraph
whose free de Bruijn indices the step leaves as they are, which the run's
``ClassTable`` records per class (``free``).  So a beta step copies only
the paths to the substituted variable, and a finite argument without a
free index is shared by all its occurrences; one with free indices gets
one shifted copy per binder depth.  A subgraph that reaches a cycle is
copied, because a de Bruijn walk unrolls its cycles: the copy is bisimilar
but not isomorphic, and it prints its ``rec`` binders elsewhere.  Every
step runs on a ``NodeIndex``, a run's or, for a step taken alone, a fresh
one, and every de Bruijn walk builds through the index of its caller.  A
step builds its contractum, when the walk's root is finite, and the spines
of its reduct and its context bottom-up through ``NodeIndex.node``: a
node whose children are finite is the class table's member of its class
if the table has one, so a finite node may be shared by every state,
context and contractum of the index that holds a bisimilar subtree, while
a node that reaches a cycle is made fresh, as a copy would be.
Across steps, the runs that share an index contract each finite class of
redex once per rule tag and reuse its contractum, and a run that steps a
state node that an earlier run stepped, at the same position, reuses that
run's ``Step``.  So consecutive states of a trace are graphs
that overlap, a subgraph may be reached from several places of one state
and from several states, and two traces may share steps; only the
unfolded trees, never the node identities, carry meaning.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import eq, ge
from typing import Callable

from .terms import Position, Sig, parse_sig, sig_str
from .trees import (
    _CYCLIC,
    APP,
    BVAR,
    CUT,
    HOLE,
    LAM,
    UNKNOWN,
    ClassTable,
    Node,
    bisimilar,
    canon,
    child_at,
    children,
    hole,
    max_bvar_index,
    node_at,
    reaching,
    parse_tree,
    render_trees,
    transform,
)


# ---------------------------------------------------------------------------
# Rule systems


class RuleSystem:
    __slots__ = ()


@dataclass(frozen=True)
class Beta(RuleSystem):
    name = "beta"  # the name a trace exports and decodes


@dataclass(frozen=True)
class Eta(RuleSystem):
    name = "eta"


@dataclass(frozen=True)
class Strict(RuleSystem):
    sig: Sig
    name = "s"


@dataclass(frozen=True)
class BetaStrict(RuleSystem):
    sig: Sig
    name = "betas"


@dataclass(frozen=True)
class BohmBot(RuleSystem):
    """Beta plus the bottom rule for a meaningless-set oracle.

    ``oracle(tree) -> bool | None`` answers whether a subtree belongs to the
    set of trees that may be collapsed to bottom (None = unknown).  The rule
    never fires on bottom itself.  ``fuel`` is the oracle's step budget,
    which a trace exports so that its decoding rebuilds the same oracle.
    """

    sig: Sig
    oracle: Callable[[Node], bool | None] = field(compare=False)
    fuel: int
    name = "bohm"


def rule_system(name: str, sig: Sig, fuel: int = 10_000) -> RuleSystem:
    """The rule system of a name: a class's ``name``, or ``strict`` for
    ``Strict``.  ``bohm``'s oracle is ``meaningless.in_bot_instances`` on
    ``fuel``, as ``ilc trace --rules bohm`` runs it, asked once per node:
    nodes never change once made, so a node that the redex search asked
    about, and then ``contractum``'s check, or that a later state shares,
    gets the answer it got."""
    match name:
        case Beta.name:
            return Beta()
        case Eta.name:
            return Eta()
        case Strict.name | "strict":
            return Strict(sig)
        case BetaStrict.name:
            return BetaStrict(sig)
        case BohmBot.name:
            from . import meaningless  # which imports this module

            answers: dict[Node, bool] = {}

            def oracle(n: Node) -> bool:
                yes = answers.get(n)
                if yes is None:
                    yes = answers[n] = meaningless.in_bot_instances(sig, n, fuel).is_yes
                return yes

            return BohmBot(sig, oracle, fuel)
    raise ValueError(f"cannot decode rule system {name!r}")


# ---------------------------------------------------------------------------
# Substitution (on graphs, capture-free via de Bruijn indices)


def _rewrite(root: Node, var: Callable[[int, int], Node], index: NodeIndex) -> Node:
    """The graph below ``root`` with ``var(i, d)`` in place of each variable
    of index i >= d at binder depth d; ``index`` holds the root, and
    ``var`` returns a node that it holds or that ``index.add`` may add.

    A finite node whose ``free`` index lies below the depth is left
    unchanged by the walk, so it is returned itself, not rebuilt.  A finite
    root is rebuilt bottom-up with an explicit stack, one memo entry per
    (class, binder depth) state, so bisimilar nodes at one depth are
    rebuilt once.  Each node made goes through ``NodeIndex.node``, as a
    step's spines do: the index's member of its class if it has one, else
    a new node, classed and given its facts as it is made.  So the result
    of a finite root is indexed when the walk returns it.

    A root that reaches a cycle is copied over (node, depth) states by
    ``trees.transform``, and its caller adds the copy to the index: the
    states unroll the cycles, so even a copy that changes no index is
    bisimilar to the root but not isomorphic, and prints its ``rec``
    binders elsewhere.  Only such a root needs the depth cap, one above its
    largest index, which bounds the states; one without any index is
    returned as it is, since its copy would be isomorphic.
    """
    cls, free = index.classes.cls, index.classes.free
    c = cls[root]
    if c < 0:
        cap = max_bvar_index(root) + 1
        if cap == 0:
            return root

        def leaf(n: Node, d: int) -> Node | None:
            c = cls[n]
            if c >= 0:
                if free[c] < d:
                    return n
                if n.kind == BVAR:
                    return var(n.a, d)
            return None

        return transform(root, leaf, cap=cap)
    if free[c] < 0:
        return root
    make = index.node
    memo: dict[tuple[int, int], Node] = {}  # (class, depth) -> its result
    stack = [(root, 0)]
    while stack:
        n, d = stack[-1]
        key = (cls[n], d)
        if key in memo:
            stack.pop()
            continue
        # a child is itself below its depth, or its state's result, or it
        # is pushed to be rebuilt first
        k = n.kind
        if k == APP:
            x, y = n.a, n.b
            cx, cy = cls[x], cls[y]
            a = x if free[cx] < d else memo.get((cx, d))
            b = y if free[cy] < d else memo.get((cy, d))
            if a is None or b is None:
                if b is None:
                    stack.append((y, d))
                if a is None:
                    stack.append((x, d))
                continue
            out = make(APP, a, b)
        elif k == LAM:
            x = n.a
            cx = cls[x]
            a = x if free[cx] <= d else memo.get((cx, d + 1))
            if a is None:
                stack.append((x, d + 1))
                continue
            out = make(LAM, a)
        else:  # a variable of index n.a >= d
            out = var(n.a, d)
            if out not in cls:
                index.add(out)
        stack.pop()
        memo[key] = out
    return memo[c, 0]


def shift(root: Node, by: int, index: NodeIndex) -> Node:
    """Add ``by`` to all free de Bruijn indices.  Each finite subgraph
    without a free index, the root included, is shared, not copied, and a
    finite root's result is built through ``index``, which holds the root,
    such as a run's (see ``_rewrite``)."""
    if by == 0:
        return root
    return _rewrite(root, lambda i, d: index.node(BVAR, i + by), index)


def substitute(body: Node, arg: Node, index: NodeIndex) -> Node:
    """Replace index 0 of ``body`` by ``arg`` (and shift the rest down).

    The walk shares each finite subgraph of ``body`` that holds no free
    index at or above its binder depth, and rebuilds only the paths to the
    variables it replaces, through ``index``, which holds both, such as a
    run's (see ``_rewrite``).  The occurrences at one binder depth share
    one shifted copy of ``arg``, and a finite ``arg`` without a free index,
    or one without any de Bruijn index, is shared by all of them.
    """
    copies: dict[int, Node] = {}  # binder depth -> arg shifted by it

    def put(i: int, d: int) -> Node:
        if i > d:
            return index.node(BVAR, i - 1)
        copy = copies.get(d)
        if copy is None:
            copy = copies[d] = shift(arg, d, index)
        return copy

    return _rewrite(body, put, index)


def unshift_free(root: Node, index: NodeIndex) -> Node:
    """Shift free indices down by one (used by eta; index 0 must not occur).
    Shares and builds as ``shift`` does; ``index`` holds the root."""

    def down(i: int, d: int) -> Node:
        if i == d:
            raise ValueError("eta: the bound variable occurs in the function")
        return index.node(BVAR, i - 1)

    return _rewrite(root, down, index)


def occurs_index(root: Node, index: int) -> bool:
    """Does de Bruijn index ``index`` (relative to the root) occur free?"""
    return _scan_indices(root, index, eq)


def escapes(root: Node, binders: int) -> bool:
    """Does a de Bruijn index escape ``binders`` binders above the root?"""
    return _scan_indices(root, binders, ge)


def _scan_indices(root: Node, index: int, hit: Callable[[int, int], bool]) -> bool:
    """Is ``hit(i, k)`` true of a variable of index i reached across binders
    that raise ``index`` to k?

    A scan of (node, binders crossed) states with an explicit stack.  A
    count above the largest reachable index plus one counts as that bound,
    which bounds the states of a cyclic graph; ``hit`` must be false for
    every count past it, as equality and ``>=`` are.
    """
    cap = max_bvar_index(root) + 1
    start = (root, min(index, cap))
    seen = {start}
    stack = [start]
    while stack:
        n, k = stack.pop()
        if n.kind == BVAR:
            if hit(n.a, k):
                return True
            continue
        for i, c in children(n):
            state = (c, min(k + 1, cap) if i == 0 else k)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return False


# ---------------------------------------------------------------------------
# Redexes


def _beta_tag(n: Node) -> str | None:
    return "beta" if n.kind == APP and n.a.kind == LAM else None


def _eta_test(classes: ClassTable | None) -> Callable[[Node], str | None]:
    """The eta test: is a node ``\\. M 0`` with index 0 not free in M?  For
    an M of a finite class in ``classes`` its ``free`` index answers when it
    is below 1; any other M is scanned (``occurs_index``)."""
    if classes is None:
        classes = ClassTable()
    cls, free = classes.cls, classes.free

    def eta_tag(n: Node) -> str | None:
        if n.kind != LAM or n.a.kind != APP or n.a.b.kind != BVAR or n.a.b.a != 0:
            return None
        m = n.a.a
        c = cls.get(m, -1)
        if c >= 0 and free[c] < 1:
            return "eta" if free[c] < 0 else None
        return None if occurs_index(m, 0) else "eta"

    return eta_tag


def _strict_test(sig: Sig) -> Callable[[Node], str | None]:
    a0, a1, a2 = sig

    def strict_tag(n: Node) -> str | None:
        k = n.kind
        if k == APP:
            if (a1 == 0 and n.a.kind == HOLE) or (a2 == 0 and n.b.kind == HOLE):
                return "s"
        elif k == LAM and a0 == 0 and n.a.kind == HOLE:
            return "s"
        return None

    return strict_tag


def redex_test(rules: RuleSystem, classes: ClassTable | None = None) -> Callable[[Node], str | None]:
    """The test of whether a node is itself a redex of ``rules``: it returns
    the rule tag, or None (bottom rules excluded).  Built once per rule
    system, so a walk pays no dispatch on the rules per node.  The eta test
    reads the free indices of the nodes that ``classes`` holds."""
    match rules:
        case Beta() | BohmBot():
            return _beta_tag
        case Eta():
            return _eta_test(classes)
        case Strict(sig):
            return _strict_test(sig)
        case BetaStrict(sig):
            strict_tag = _strict_test(sig)
            return lambda n: "beta" if n.kind == APP and n.a.kind == LAM else strict_tag(n)
    raise ValueError(f"no redex test for {rules!r}")


class NodeIndex:
    """Facts about the nodes of the runs that share it, under one rule
    system, each recorded once per node.

    ``add(root)`` records four facts about each node below the root that
    the index has not seen:

    - its class in ``classes``, a ``trees.ClassTable``: equal classes mean
      bisimilar nodes, and a negative class a node that reaches a cycle;
      a finite class also has its largest free index, which the eta test
      and the de Bruijn walkers of a step read;
    - ``tags``: its rule tag, if it is itself a redex node of the rule
      system, by ``test``, the system's ``redex_test``;
    - ``live``: whether it reaches a redex node;
    - ``stuck``: whether it reaches a Cut or Unknown leaf.

    A node that lies on no cycle takes the last three from its own kind and
    its children, which the index holds before it (``_facts``).  For the
    new nodes that reach a cycle, ``trees.reaching`` spreads ``live`` and
    ``stuck`` over just those nodes, seeded by each node's own tag or kind
    and its children seen before.

    ``nearest(t, sig)`` adds, once per node and signature, the nearest-redex
    fact of each live node below a finite ``t``: the least (``adepth``,
    length) of a redex position below the node, and the child that leads
    there, the lower child index on a tie.  That is best-first's order, so
    ``depth0_redex`` walks down these children to its pick.

    ``try_step`` keeps two memos in the index, so that each redex is
    contracted once per index:

    - ``contracta``: (finite class of a redex, rule tag) -> its contractum.
      A bisimilar finite redex has a bisimilar finite contractum, which
      prints the same text.  A redex that reaches a cycle is not memoised:
      its contractum is a copy that prints its ``rec`` binders elsewhere;
    - ``steps``: state node -> {(position, rule tag, signature): ``Step``},
      so a run that contracts the same redex of the same state node as an
      earlier run of the index, as the two runs of ``ilc join`` do while
      they coincide, gets the earlier ``Step`` itself.

    ``node`` is the index's one interning rule.  Every node that a step
    makes comes through it: ``try_step`` builds the spines of the reduct and
    the context by one ``node`` call per spine node, the de Bruijn walks
    (``_rewrite``) build a finite root's result by it, and the strictness
    and bottom rules contract to ``hole``, the index's one hole node, which
    every context also holds.  The class table gains nodes only through
    ``add`` and ``node``, both of which give each node its facts, so a node
    that ``node`` takes from the table has them; ``render_trees`` adds the
    unseen nodes of the states it prints, and a run leaves none unseen.

    The facts and the memos rely on nodes never changing once indexed (see
    the module docstring).

    A run adds only the states and contexts of its steps, and each of them
    replaces one subtree of the state before it: by M[N/x], every infinite
    branch of which ends in one of M or of N, or by a hole.  So if the
    run's start is guarded, all of them are (``convergence.p_limit`` relies
    on it), and none reaches a Cut or Unknown leaf unless the start does.
    """

    __slots__ = (
        "rules", "test", "classes", "tags", "live", "stuck", "contracta", "steps", "_nearest", "_canons",
        "hole",
    )

    def __init__(self, rules: RuleSystem):
        self.rules = rules
        self.classes = ClassTable()
        self.test = redex_test(rules, self.classes)
        self.tags: dict[Node, str] = {}
        self.live: set[Node] = set()
        self.stuck: set[Node] = set()
        self.contracta: dict[tuple[int, str], Node] = {}
        self.steps: dict[Node, dict[tuple[Position, str, Sig], Step]] = {}
        self._nearest: dict[Sig, dict[Node, tuple[int, int, int]]] = {}
        self._canons: dict[Node, tuple] = {}
        self.hole = hole()
        self.add(self.hole)

    def add(self, root: Node) -> None:
        finite, cyclic = self.classes.add(root)
        facts = self._facts
        for n in finite:
            facts(n)
        if cyclic:
            tags, live, stuck, test = self.tags, self.live, self.stuck, self.test
            for n in cyclic:
                tag = test(n)
                if tag:
                    tags[n] = tag
            # a path from a new cyclic node stays among them or leaves them
            # for a node whose facts are final
            live |= reaching(cyclic, lambda n: n in tags or any(c in live for _, c in children(n)))
            if stuck:  # else no node seen reaches a Cut or Unknown leaf
                stuck |= reaching(cyclic, lambda n: any(c in stuck for _, c in children(n)))

    def _facts(self, n: Node) -> None:
        """Record ``tags``, ``live`` and ``stuck`` for a new node that lies
        on no cycle, from its own kind and its children's facts, which the
        index holds already."""
        k = n.kind
        if k == APP or k == LAM:
            live, stuck = self.live, self.stuck
            a, b = n.a, n.b  # b is None under a lambda
            tag = self.test(n)
            if tag:
                self.tags[n] = tag
                live.add(n)
            elif a in live or b in live:
                live.add(n)
            if stuck and (a in stuck or b in stuck):
                stuck.add(n)
        elif k == CUT or k == UNKNOWN:
            self.stuck.add(n)

    def nearest(self, t: Node, sig: Sig) -> dict[Node, tuple[int, int, int]]:
        """The nearest-redex facts under ``sig``, made for the live nodes
        below ``t``, a finite node that the index holds: each maps to the
        least (``adepth``, length) of a redex position below it, relative
        to it, and the child index that the least such position starts
        with, the lower one on a tie, or -1 at a redex node.  Each fact is
        made once per node and signature, after its live children's, with
        an explicit stack."""
        best = self._nearest.setdefault(sig, {})
        tags, live = self.tags, self.live
        stack = [t] if t in live else []
        while stack:
            n = stack.pop()
            if n in best:
                continue
            if n in tags:
                best[n] = (0, 0, -1)
                continue
            # a live node that is no redex node has a live child
            below = [(i, c) for i, c in children(n) if c in live]
            todo = [c for _, c in below if c not in best]
            if todo:
                stack += [n, *todo]
                continue
            best[n] = min((best[c][0] + sig[i], best[c][1] + 1, i) for i, c in below)
        return best

    def node(self, kind: str, a, b=None) -> Node:
        """The node of ``kind`` over children ``a`` and ``b`` that the
        index holds (``a`` alone under a lambda), or the variable of
        payload ``a``, interned: the class table's member of its label and
        child classes, if it has one, is taken itself, else a new node is
        made, opens its class (``ClassTable._open``) and gets its facts
        (``_facts``).  A node with a child that reaches a cycle is made
        fresh, classed ``_CYCLIC`` and never interned, so the ``rec``
        binders of a printed state stay where a copy puts them.
        """
        classes = self.classes
        cls = classes.cls
        if kind == APP:
            x, y = cls[a], cls[b]
            key = (APP, x, y) if x >= 0 and y >= 0 else None
        elif kind == LAM:
            x = cls[a]
            key = (LAM, x) if x >= 0 else None
        else:  # BVAR or FVAR
            key = (kind, a)
        if key is None:
            n = Node(kind, a, b)
            cls[n] = _CYCLIC
        else:
            c = classes.table.get(key)
            if c is not None:
                return classes.rep[c]
            n = Node(kind, a, b)
            classes._open(key, n)
        self._facts(n)
        return n

    def key(self, n: Node) -> int | tuple:
        """A key of an indexed node: equal keys iff bisimilar.  Its finite
        class, or, for a node that reaches a cycle, ``canon``, computed
        once per node."""
        c = self.classes.cls[n]
        if c >= 0:
            return c
        k = self._canons.get(n)
        if k is None:
            k = self._canons[n] = canon(n)
        return k


_EXPLORATION_LIMIT = 100_000
_NO_LIMIT = float("inf")
# the longest position that a redex search, a descendant or a volatile
# position may have
POSITION_BOUND = 64


def _search(
    rules: RuleSystem,
    t: Node,
    max_len: int,
    mode: str,
    sig: Sig | None = None,
    limit: int | None = None,
    index: NodeIndex | None = None,
) -> tuple[list[tuple[Position, str]], bool, list[Node] | None]:
    """The redex search behind ``redexes``, ``first_redex``,
    ``outermost_redexes``, and ``depth0_redex`` where its facts do not
    answer.

    One walk over the positions of length <= max_len, in preorder (1 before
    2), or, given ``sig``, best-first by (``adepth``, length, position),
    which grows along every edge, so a position never comes before its
    prefixes.  It never enters a subtree without a redex node.  ``mode`` is
    ``"all"`` (every redex), ``"first"`` (stop at the first) or
    ``"outermost"`` (do not descend below a redex).  For bottom rules the
    oracle is consulted per position and nothing is pruned.  Searches that
    enumerate (all redexes, or best-first) reject Cut/Unknown leaves.  More
    than ``limit`` nodes visited raise ``RuntimeError``.

    Returns the redexes found, whether the bound cut the walk, and the
    nodes from ``t`` to the first redex found, which the preorder walk
    keeps (``_preorder``) and the others do not (None).  The bound cut the
    walk if it stopped at ``max_len`` on a node with a child that reaches a
    redex node and that it would have entered, so a redex lies past the
    bound.  A search for all redexes of a graph with a redex reachable from
    a cycle is always cut.  The walk needs no guardedness: ``max_len`` ends
    every path, also one around a cycle of strict edges, and the states of
    a run from a guarded start are guarded anyway (see ``NodeIndex``).

    ``index`` is a run's index for these rules that already holds ``t``;
    without one, a fresh index records the whole graph once.
    """
    if index is None:
        index = NodeIndex(rules)
        index.add(t)
    if (mode == "all" or sig is not None) and t in index.stuck:
        raise ValueError("redex search rejects Cut/Unknown leaves")
    if limit is None:
        limit = _NO_LIMIT
    bohm = isinstance(rules, BohmBot)
    if sig is None and not bohm:
        return _preorder(index, t, max_len, mode, limit)
    tags, live = index.tags, index.live
    out: list[tuple[Position, str]] = []
    cut = False
    # a stack of (position, node), or a heap of (depth, length, position,
    # node); positions are distinct, so the heap never compares nodes
    frontier: list = [((), t)] if sig is None else [(0, 0, (), t)]
    explored = 0
    while frontier:
        if sig is None:
            p, n = frontier.pop()
        else:
            d, _, p, n = heapq.heappop(frontier)
        explored += 1
        if explored > limit:
            raise RuntimeError("redex search exceeded its exploration limit")
        if not bohm and n not in live:
            continue
        tag = tags.get(n)
        found = [tag] if tag else []
        if bohm and n.kind != HOLE and (mode == "all" or not found) and rules.oracle(n):
            found.append("bot")
        if found:
            out += [(p, tag) for tag in found]
            if mode == "first":
                return out, False, None
            if mode == "outermost":
                continue
        if len(p) < max_len:
            for i, c in reversed(children(n)):
                if bohm or c in live:
                    q = p + (i,)
                    if sig is None:
                        frontier.append((q, c))
                    else:
                        heapq.heappush(frontier, (d + sig[i], len(q), q, c))
        elif not cut:
            cut = any(c in live for _, c in children(n))
    return out, cut, None


def _preorder(
    index: NodeIndex, t: Node, max_len: int, mode: str, limit: int,
    start: tuple[Position, list[Node]] | None = None,
) -> tuple[list[tuple[Position, str]], bool, list[Node] | None]:
    """``_search`` in preorder, for rules without a bottom rule.

    The walk goes down the first live child in place and back up to the
    next live sibling, keeping the path as one list of child indices and
    the nodes it leaves; a position is made only for a redex found, and the
    nodes from ``t`` to the first one are returned with it.  It visits the
    same nodes in the same order as the stack of positions that it replaced
    (``search_by_positions`` in the tests), so it finds the same redexes and
    exceeds ``limit`` at the same node.

    ``start``, a position of ``t`` and the nodes from ``t`` along it, starts
    the walk at that position, with that path, as if it had just come down
    to it, so it visits what a walk from ``t`` visits from there on.
    ``run_strategy`` resumes leftmost-outermost so, at its last contraction.
    """
    tags, live = index.tags, index.live
    out: list[tuple[Position, str]] = []
    first = None  # the nodes from t to out[0]
    cut = False
    if start is None:
        path: list[int] = []  # the child indices from the root to n
        up: list[Node] = []  # the node each of them leaves
        n = t
    else:
        path, up, n = list(start[0]), start[1][:-1], start[1][-1]
    explored = 0
    # every n but the first is live; a first n outside ``live`` has no tag
    # and no live child, so the walk backs up from it
    while True:
        explored += 1
        if explored > limit:
            raise RuntimeError("redex search exceeded its exploration limit")
        tag = tags.get(n)
        down = True
        if tag:
            out.append((tuple(path), tag))
            if first is None:
                first = up + [n]
            if mode == "first":
                return out, False, first
            down = mode == "all"
        if down:
            k = n.kind
            c = None
            if k == APP:
                if n.a in live:
                    c, i = n.a, 1
                elif n.b in live:
                    c, i = n.b, 2
            elif k == LAM and n.a in live:
                c, i = n.a, 0
            if c is not None:
                if len(path) < max_len:
                    path.append(i)
                    up.append(n)
                    n = c
                    continue
                cut = True
        # back up to the nearest live right sibling of the path
        while path:
            parent = up.pop()
            if path.pop() == 1 and parent.b in live:
                path.append(2)
                up.append(parent)
                n = parent.b
                break
        else:
            return out, cut, first


def _depth0(
    rules: RuleSystem, t: Node, sig: Sig, max_len: int, index: NodeIndex
) -> tuple[list[tuple[Position, str]], list[Node] | None]:
    """``depth0_redex``'s pick, as a list of at most one, and the nodes
    from ``t`` to it when the walk down the facts found it (else None)."""
    if index.classes.cls[t] >= 0 and not isinstance(rules, BohmBot):
        if t in index.stuck:
            raise ValueError("redex search rejects Cut/Unknown leaves")
        best = index.nearest(t, sig)
        f = best.get(t)
        if f is None:  # no redex node below t
            return [], None
        if f[1] <= max_len:
            n, p, spine = t, [], [t]
            while f[2] >= 0:
                n = n.b if f[2] == 2 else n.a
                p.append(f[2])
                spine.append(n)
                f = best[n]
            return [(tuple(p), index.tags[n])], spine
    found, _, spine = _search(rules, t, max_len, "first", sig, _EXPLORATION_LIMIT, index)
    return found, spine


def redexes(rules: RuleSystem, t: Node, max_len: int = POSITION_BOUND) -> set[tuple[Position, str]]:
    """All redex occurrences with position length <= max_len.

    For bottom rules the oracle is consulted per position; for the others the
    search is pruned to subtrees that contain a redex node at all.
    """
    return set(_search(rules, t, max_len, "all", limit=_EXPLORATION_LIMIT)[0])


def first_redex(
    rules: RuleSystem, t: Node, max_len: int = POSITION_BOUND, *, index: NodeIndex | None = None
) -> tuple[Position, str] | None:
    """Leftmost-outermost redex: first hit in preorder (1 before 2)."""
    found = _search(rules, t, max_len, "first", index=index)[0]
    return found[0] if found else None


def outermost_redexes(
    rules: RuleSystem, t: Node, max_len: int = POSITION_BOUND, *, index: NodeIndex | None = None
) -> list[tuple[Position, str]]:
    """Redexes none of which lies below another, in preorder."""
    return _search(rules, t, max_len, "outermost", limit=_EXPLORATION_LIMIT, index=index)[0]


def depth0_redex(
    rules: RuleSystem, t: Node, sig: Sig, max_len: int = POSITION_BOUND, *, index: NodeIndex | None = None
) -> tuple[Position, str] | None:
    """The redex of least depth, ties broken by length and then leftmost:
    the least of ``redexes`` by (``adepth``, length, position).

    On a finite ``t``, under rules without a bottom rule, one walk down from
    the root reads it off the index's nearest-redex facts
    (``NodeIndex.nearest``), with no positions built and no exploration
    limit.  On a ``t`` that reaches a cycle, under bottom rules, and when
    that redex lies past ``max_len``, a best-first walk (``_search``) finds
    it, which stops at the first hit, so it explores no more than
    ``redexes`` would.
    """
    if index is None:
        index = NodeIndex(rules)
        index.add(t)
    found = _depth0(rules, t, sig, max_len, index)[0]
    return found[0] if found else None


# ---------------------------------------------------------------------------
# Steps


@dataclass(frozen=True)
class Step:
    before: Node
    position: Position
    rule: str
    after: Node
    context: Node  # the step's reduction context
    depth: int
    # the nodes of ``after`` along ``position``, from its root to the
    # contractum, which leftmost-outermost resumes its search along; None
    # for a decoded step
    spine: list[Node] | None = field(default=None, compare=False, repr=False)


class NotARedex(ValueError):
    pass


def _spine(t: Node, p: Position) -> list[Node]:
    """The nodes along ``p``, from ``t`` to the node at ``p``."""
    spine = [t]
    for i in p:
        c = child_at(spine[-1], i)
        if c is None:
            raise KeyError(f"position {list(p)} leaves the tree at edge {i}")
        spine.append(c)
    return spine


def replace_at(t: Node, p: Position, replacement: Node) -> Node:
    """Copy the spine down to ``p`` and splice in the replacement."""
    spine = _spine(t, p)
    out = replacement
    for j in range(len(p) - 1, -1, -1):
        n, i = spine[j], p[j]
        out = Node(LAM, out) if i == 0 else Node(APP, out, n.b) if i == 1 else Node(APP, n.a, out)
    return out


def contractum(rules: RuleSystem, n: Node, tag: str, index: NodeIndex) -> Node:
    """The contractum of the redex ``n`` under ``rules``; ``index`` holds
    ``n``, and the de Bruijn walkers build through it, so a finite redex's
    contractum comes back indexed.  An ``s`` or ``bot`` tag must name a
    rule of ``rules`` that applies to ``n``: the strictness test of its
    signature, or its oracle."""
    if tag == "beta":
        if n.kind != APP or n.a.kind != LAM:
            raise NotARedex(f"no beta redex at node of kind {n.kind}")
        return substitute(n.a.a, n.b, index)
    if tag == "s":
        if not isinstance(rules, (Strict, BetaStrict)) or _strict_test(rules.sig)(n) is None:
            raise NotARedex(f"no strictness redex at node of kind {n.kind}")
        return index.hole
    if tag == "bot":
        if not isinstance(rules, BohmBot) or n.kind == HOLE or not rules.oracle(n):
            raise NotARedex(f"no bottom redex at node of kind {n.kind}")
        return index.hole
    if tag == "eta":
        if n.kind != LAM or n.a.kind != APP or n.a.b.kind != BVAR or n.a.b.a != 0:
            raise NotARedex("no eta redex here")
        return unshift_free(n.a.a, index)
    raise ValueError(f"unknown rule tag {tag!r}")


def step_sig(rules: RuleSystem) -> Sig:
    match rules:
        case Strict(sig) | BetaStrict(sig) | BohmBot(sig, _):
            return sig
    return (1, 1, 1)


def try_step(
    rules: RuleSystem,
    t: Node,
    p: Position,
    tag: str | None = None,
    sig: Sig | None = None,
    *,
    index: NodeIndex | None = None,
    spine: list[Node] | None = None,
) -> Step:
    """Contract the redex at ``p``.

    The recorded reduction context is the tree with the subtree at the
    longest non-strict prefix of ``p`` (``acut``) removed.  ``spine`` holds
    the nodes of ``t`` along ``p``, from ``t`` on, as a redex search that
    walked there passes them; without it one walk down ``p`` collects them.
    The step runs on ``index``, a run's index, or a fresh
    ``NodeIndex(rules)``: the state is added to it (nothing to do if it is
    there already), the contraction builds through it (a contractum that
    copies a root that reaches a cycle is added after), and the step goes
    through its memos (see ``NodeIndex``).  One bottom-up pass of
    ``NodeIndex.node`` calls along the spine builds the reduct's spine, and
    above the cut, where the lowest non-strict edge of ``p`` ends, the
    context's, and it adds up the depth (``adepth``).  A call that names
    its ``tag`` returns the memoised step of the same state node, position,
    tag and signature, and a redex of a finite class seen before gets the
    memoised contractum.  A call without a tag takes the one that ``rules``
    give the node at ``p``.
    """
    sig = sig if sig is not None else step_sig(rules)
    if index is None:
        index = NodeIndex(rules)
    done = index.steps.get(t)  # the memoised steps of this state
    if done is not None and tag is not None:
        step = done.get((p, tag, sig))
        if step is not None:
            return step
    if spine is None:
        spine = _spine(t, p)
    n = spine[-1]
    classes = index.classes
    if t not in classes.cls:
        index.add(t)
    c = classes.cls[n]
    if tag is None:
        tag = redex_test(rules, classes)(n)
        if tag is None and isinstance(rules, BohmBot) and n.kind != HOLE and rules.oracle(n):
            tag = "bot"
        if tag is None:
            raise NotARedex(f"no redex at {list(p)}: node kind {n.kind}")
    reduct = index.contracta.get((c, tag)) if c >= 0 else None
    if reduct is None:
        reduct = contractum(rules, n, tag, index)
        if reduct not in classes.cls:  # a copy of a root that reaches a cycle
            index.add(reduct)
        if c >= 0:
            index.contracta[c, tag] = reduct
    node = index.node
    after = [reduct]  # the reduct's spine, bottom-up
    context = None  # the context's spine node, from the cut up
    depth = 0
    for j in range(len(p) - 1, -1, -1):
        i, m, below = p[j], spine[j], after[-1]
        if sig[i]:
            depth += 1
            if context is None:
                context = index.hole
        if i == 0:
            after.append(node(LAM, below))
            if context is not None:
                context = node(LAM, context)
        elif i == 1:
            after.append(node(APP, below, m.b))
            if context is not None:
                context = node(APP, context, m.b)
        else:
            after.append(node(APP, m.a, below))
            if context is not None:
                context = node(APP, m.a, context)
    after.reverse()
    step = Step(t, p, tag, after[0], index.hole if context is None else context, depth, after)
    if done is None:
        done = index.steps[t] = {}
    done[p, tag, sig] = step
    return step


# ---------------------------------------------------------------------------
# Traces and strategies


@dataclass
class Trace:
    sig: Sig
    rules: RuleSystem
    start: Node
    steps: list[Step]
    stopped: str  # how the run ended: one of ``STOP_REASONS``
    cycle_at: int | None = None  # lasso: the state after the last step
    # equals the state before step cycle_at
    strategy: str | None = None  # the strategy that ``run_strategy`` ran
    # the finite classes of the run's states and contexts
    # (``NodeIndex.classes``), which printing them reuses; None for a trace
    # not made by ``run_strategy``.
    # Set, it also vouches that the steps contract redexes from ``start``,
    # so the contexts are guarded if the start is and ``p_limit`` checks
    # only the start (see ``NodeIndex``)
    classes: ClassTable | None = field(default=None, compare=False, repr=False)

    @property
    def final(self) -> Node:
        if self.steps:
            return self.steps[-1].after
        return self.start

    @property
    def is_closed(self) -> bool:
        """Did the run reach a normal form?"""
        return self.stopped == "normal_form"

    @property
    def cycle_steps(self) -> list[Step]:
        if self.cycle_at is None:
            return []
        return self.steps[self.cycle_at :]

    def check(self) -> None:
        for a, b in zip(self.steps, self.steps[1:]):
            if a.after is not b.before and not bisimilar(a.after, b.before):
                raise AssertionError("steps do not chain")
        if self.cycle_at is not None:
            if not bisimilar(self.steps[self.cycle_at].before, self.final):
                raise AssertionError("lasso closure state mismatch")


def _shifted(hist: list[tuple[Position, int | tuple]], pos: Position, key: int | tuple) -> bool:
    """Does a reduction repeat itself shifted ever deeper?

    ``hist`` holds the position and the key (from one ``NodeIndex``) of the
    redex subtree that each earlier round contracted last; a miss appends
    this round's.  A hit means some earlier round i fired a bisimilar
    subtree at a proper prefix of ``pos``, with every round in between
    staying inside that prefix; the run from i can then be replayed from
    here forever, so the reduction never escapes.
    """
    lcp = pos  # the common prefix of pos and the positions after the entry
    for qp, qk in reversed(hist):
        if qk == key and len(qp) < len(pos) and lcp[: len(qp)] == qp:
            return True
        while qp[: len(lcp)] != lcp:
            lcp = lcp[:-1]
    hist.append((pos, key))
    return False


# ``bound``: ``run_strategy`` found no redex within its position bound, but
# the final state still reaches a redex node (of the rules that
# ``NodeIndex.live`` follows: a ``bohm`` bottom redex is not among them)
STOP_REASONS = ("normal_form", "cycle", "shifted", "fuel", "bound")


def drive(
    index: NodeIndex,
    t: Node,
    fuel: int,
    next_round: Callable[[Node], list[Step]],
    shifts: Callable[[Node, Position], int | tuple] | None = None,
    key: Callable[[Node], object] | None = None,
) -> tuple[list[Step], str, int | None]:
    """The one reduction loop behind strategies, developments and the
    meaningless-term analyses.

    ``next_round(cur)`` returns the chained steps of one round from
    ``cur``, or none at a normal form.  Between rounds, and only there, the
    driver stops when the steps taken reach ``fuel``, when the state repeats
    an earlier one (a lasso), or, with ``shifts``, when the last step of the
    round repeats an earlier round's shifted deeper (``_shifted``); a round
    itself always runs whole.  States are keyed by ``index.key``, or by
    ``key`` when given, and the redex that a round's last step contracts by
    ``shifts(redex, position)``.  The driver adds each round's final state
    to the index, and with ``shifts`` the state before its last step, while
    ``t`` must already be in it.

    Returns the steps, the stop reason (one of ``STOP_REASONS`` but
    ``bound``) and, for a cycle, the number of steps before the state that
    the final state repeats.
    """
    key = key or index.key
    seen = {key(t): 0}
    hist: list[tuple[Position, int | tuple]] = []
    steps: list[Step] = []
    cur = t
    while len(steps) < fuel:
        rnd = next_round(cur)
        if not rnd:
            return steps, "normal_form", None
        steps += rnd
        last = rnd[-1]
        if shifts and last.before is not cur:
            index.add(last.before)
        cur = last.after
        index.add(cur)
        k = key(cur)
        if k in seen:
            return steps, "cycle", seen[k]
        seen[k] = len(steps)
        p = last.position
        if shifts and _shifted(hist, p, shifts(node_at(last.before, p), p)):
            return steps, "shifted", None
    return steps, "fuel", None


STRATEGIES = ("leftmost-outermost", "parallel-outermost", "depth0-first")
_STRATEGY_ALIASES = {
    "lmo": "leftmost-outermost",
    "po": "parallel-outermost",
    "d0": "depth0-first",
}


def run_strategy(
    rules: RuleSystem,
    strategy: str,
    t: Node,
    fuel: int,
    max_len: int = POSITION_BOUND,
    sig: Sig | None = None,
    *,
    index: NodeIndex | None = None,
) -> Trace:
    """Reduce until normal form, fuel exhaustion, or state repetition.

    ``sig`` overrides the signature used for depth/context bookkeeping (the
    plain beta and eta systems default to the all-non-strict 111).  A
    parallel-outermost round goes to ``drive`` one step at a time, so a
    state repeated in the middle of a round closes a lasso there.  A run
    whose search finds no redex within ``max_len`` although the state
    still reaches one stops as ``bound``, not ``normal_form``.

    A step's search hands ``try_step`` the nodes that it walked to its
    redex: leftmost-outermost's, depth0-first's walk down the index's
    facts, and the first of a parallel-outermost round's; a later step of
    the round walks its position in the state that the round has reached.
    Under Beta, Strict and BetaStrict, whose redex test reads only a node's
    kind and its children's, leftmost-outermost searches from the root once,
    and after each step resumes its walk at that step's position.

    ``index`` is an index for ``rules`` that the run shares with earlier
    runs, whose memoised steps and contracta it reuses (see ``NodeIndex``);
    without one the run makes its own.
    """
    strategy = _STRATEGY_ALIASES.get(strategy, strategy)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if sig is None:
        sig = step_sig(rules)
    if index is None:
        index = NodeIndex(rules)
    elif index.rules != rules:
        raise ValueError(f"an index for {index.rules!r} cannot run {rules!r}")
    index.add(t)
    resumes = strategy == "leftmost-outermost" and isinstance(rules, (Beta, Strict, BetaStrict))
    pending: list[tuple[Position, str]] = []  # the redexes left to contract, last first
    spine: list[Node] | None = None  # the nodes from the state to the next one, if walked
    last: Step | None = None  # the run's last step

    def next_round(cur: Node) -> list[Step]:
        nonlocal spine, last
        if not pending:
            if strategy == "parallel-outermost":
                found, _, spine = _search(rules, cur, max_len, "outermost", None, _EXPLORATION_LIMIT, index)
            elif resumes and last is not None:  # cur is last.after
                # the step rebuilt only the nodes along its position, each
                # of the same kind but the reduct, and no redex lies left of
                # that path: the first redex is now the parent, if the
                # reduct made it one, or else the walk's next hit from there
                p, spine = last.position, last.spine
                tag = index.tags.get(spine[-2]) if p else None
                if tag:
                    found, spine = [(p[:-1], tag)], spine[:-1]
                else:
                    found, _, spine = _preorder(index, cur, max_len, "first", _NO_LIMIT, (p, spine))
            elif strategy == "leftmost-outermost":
                found, _, spine = _search(rules, cur, max_len, "first", index=index)
            else:  # depth0-first: minimal depth, ties leftmost (shortlex)
                found, spine = _depth0(rules, cur, sig, max_len, index)
            pending.extend(reversed(found))
        if not pending:
            return []
        p, tag = pending.pop()
        last = try_step(rules, cur, p, tag, sig, index=index, spine=spine)
        spine = None
        return [last]

    steps, stopped, cycle_at = drive(index, t, fuel, next_round)
    if stopped == "normal_form" and (steps[-1].after if steps else t) in index.live:
        stopped = "bound"
    return Trace(sig, rules, t, steps, stopped, cycle_at, strategy, index.classes)


# ---------------------------------------------------------------------------
# Trace (de)serialization


def trace_export(trace: Trace, report: dict | None = None) -> dict:
    # each distinct state is rendered once, in trace order, by one
    # render_trees call, which reuses the text of what a step left unchanged
    # and the run's class table; a step's ``before`` is the previous step's
    # ``after``, and the first step's is the start
    states = [trace.start, *(n for s in trace.steps for n in (s.before, s.after, s.context))]
    states = list(dict.fromkeys(states))
    text = dict(zip(states, render_trees(states, ascii_only=True, classes=trace.classes)))

    doc = {
        "sig": sig_str(trace.sig),
        "rules": trace.rules.name,
        "start": text[trace.start],
        "steps": [
            {
                "pos": list(s.position),
                "rule": s.rule,
                "depth": s.depth,
                "before": text[s.before],
                "after": text[s.after],
                "context": text[s.context],
            }
            for s in trace.steps
        ],
        "tail": None if trace.cycle_at is None else {"cycle_at": trace.cycle_at},
        "metadata": {"stopped": trace.stopped, "strategy": trace.strategy, "fuel_spent": len(trace.steps)},
    }
    if isinstance(trace.rules, BohmBot):
        doc["metadata"]["oracle_fuel"] = trace.rules.fuel
    if report is not None:
        doc["report"] = report
    return doc


def trace_decode(doc: dict) -> Trace:
    """The trace that ``trace_export`` wrote.  A doc without a stop reason
    did not close: it is a lasso if it has a tail, else fuel ran out."""
    sig = parse_sig(doc["sig"])
    tail = doc.get("tail")
    cycle_at = None if tail is None else tail["cycle_at"]
    metadata = doc.get("metadata", {})
    stopped = metadata.get("stopped", "fuel" if cycle_at is None else "cycle")
    if stopped not in STOP_REASONS or (stopped == "cycle") != (cycle_at is not None):
        raise ValueError(f"bad stop reason {stopped!r} for the tail {tail!r}")
    fuel = metadata.get("oracle_fuel", 10_000)  # bohm's oracle
    rules = rule_system(doc.get("rules", "beta"), sig, fuel)
    steps = []
    for s in doc["steps"]:
        before = parse_tree(s["before"])
        after = parse_tree(s["after"])
        context = parse_tree(s["context"])
        steps.append(Step(before, tuple(s["pos"]), s["rule"], after, context, s["depth"]))
    start = steps[0].before if steps else parse_tree(doc["start"])
    return Trace(sig, rules, start, steps, stopped, cycle_at, metadata.get("strategy"))
