"""The approximation order on lambda trees: comparison, glb, lub, liminf.

All computations run on the finite node graphs of regular trees.  Comparison
and greatest lower bounds are greatest fixpoints on product graphs.  Since
a <= b iff a ∧ b = a, ``compare`` decides both orderings of two trees in the
walk that builds their glb, while ``tree_leq`` decides one and names a
shortest witness.  Least upper bounds of chains reduce to the maximal element
(the tests check it against the union-of-domains construction); limits
inferior are exact for eventually periodic sequences and honestly
approximated otherwise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, Sequence

from .terms import Position, Sig, Term
from .trees import (
    APP,
    HOLE,
    LAM,
    Approximant,
    Node,
    app,
    bisimilar,
    build,
    children,
    hole,
    is_guarded,
    label,
    link_position,
    tree_of_term,
    truncate,
    unknown,
)


@dataclass(frozen=True)
class OrderVerdict:
    result: bool
    witness: Position | None = None  # a violated-clause location iff False

    def __bool__(self) -> bool:
        return self.result


def _check_inputs(sig: Sig, *ts: Node) -> None:
    """Reject members with Cut/Unknown leaves or unguarded cycles, with the
    message of the first member that fails.

    Members share most of their nodes (the contexts of one trace do), so
    one ``is_guarded`` search runs from a fresh root whose function spine
    holds them in order: no node is walked twice, and the fresh nodes close
    no cycle.  Only if that search fails are the members checked one by
    one, for the first one's message.
    """
    if len(ts) > 1:
        try:
            if is_guarded(sig, reduce(app, ts)):
                return
        except ValueError:  # a Cut or Unknown leaf: the loop names its member
            pass
    for t in ts:
        try:
            guarded = is_guarded(sig, t)
        except ValueError:  # a Cut or Unknown leaf
            raise ValueError("order operations reject Cut/Unknown leaves") from None
        if not guarded:
            raise ValueError("order operations require guarded trees")


def tree_leq(sig: Sig, s: Node, t: Node) -> OrderVerdict:
    """Decide the tree order.

    Clauses checked on the product graph: (a) the domain of ``s`` is included
    in that of ``t``; (b) labels agree on the common domain; (c) wherever the
    greater tree has a child at a strict edge under a position of the smaller
    tree's domain, the smaller tree has it too.  The witness reported for a
    failure is a shortest offending position.  The breadth-first search
    records one link per product state, and only a witness becomes a
    position, so the cost is linear in the product graph.
    """
    _check_inputs(sig, s, t)
    links: dict[tuple[Node, Node], tuple | None] = {(s, t): None}
    queue = deque([(s, t)])
    while queue:
        pair = queue.popleft()
        x, y = pair
        if x.kind == HOLE:
            continue  # bottom is below everything at a non-strict or root slot
        if y.kind == HOLE or label(x) != label(y):  # domain inclusion or labels fail
            return OrderVerdict(False, link_position(links, pair))
        for (i, cx), (_, cy) in zip(children(x), children(y)):
            if sig[i] == 0 and cx.kind == HOLE and cy.kind != HOLE:
                return OrderVerdict(False, link_position(links, pair) + (i,))  # strict-child clause
            if (cx, cy) not in links:
                links[cx, cy] = (pair, i)
                queue.append((cx, cy))
    return OrderVerdict(True)


def term_leq(sig: Sig, m: Term, n: Term) -> bool:
    """The approximation order on finite terms: that of their trees."""
    return bool(tree_leq(sig, tree_of_term(m), tree_of_term(n)))


def glb(sig: Sig, ts: Sequence[Node]) -> Node:
    """Greatest lower bound of a nonempty finite set of guarded trees.

    The domain is the largest position set with unanimous labels that is
    prefix closed and closed under taking children at strict edges whenever
    any member has them; computed as a greatest fixpoint on the product
    graph, with labels inherited from the members (see ``_glb``).
    """
    ts = list(ts)
    if not ts:
        raise ValueError("glb of an empty set")
    _check_inputs(sig, *ts)
    return _glb(sig, ts)[0]


def compare(sig: Sig, a: Node, b: Node) -> tuple[bool, bool, Node]:
    """``a <= b``, ``b <= a`` and the glb of the two guarded trees.

    In a partial order with meets, ``a <= b`` holds iff ``a ∧ b = a``, so
    the one product walk that builds the glb also decides both orderings;
    ``tree_leq`` answers the same, with a shortest witness.  ``_glb`` is
    the walk without the input check, for inputs already checked.
    """
    _check_inputs(sig, a, b)
    g, (leq, geq) = _glb(sig, [a, b])
    return leq, geq, g


def _glb(sig: Sig, ts: list[Node]) -> tuple[Node, list[bool]]:
    """The glb of checked members, and for each member whether it equals
    the glb.

    One pass collects the reachable product states; a state with a hole or
    disagreeing labels fails, and each other state records its kind and
    child states (every member has the children, as all share the kind).
    A breadth-first search then follows the forced strict edges backwards
    from the failing states, so every state that reaches one fails too, and
    the cost is linear in the product graph.  ``trees.build`` then builds
    the result over the product states, with a hole for each failed one, so
    it has no depth limit.  The glb equals a member iff every failed state
    that the build reaches has a hole in that member's slot.
    """
    root = tuple(ts)
    width = len(root)
    seen = {root}
    stack = [root]
    failing: list[tuple[Node, ...]] = []
    forced_by: dict[tuple[Node, ...], list[tuple[Node, ...]]] = {}  # strict child -> parents
    expanded: dict[tuple[Node, ...], tuple | Node] = {}  # kept state -> ``build``'s expansion
    while stack:
        st = stack.pop()
        n0 = st[0]
        k = n0.kind
        if k == HOLE or [n.kind for n in st].count(k) != width:
            failing.append(st)
            continue
        if k == LAM:
            body = tuple([n.a for n in st])
            expanded[st] = (LAM, body)
            edges: tuple = ((0, body),)
        elif k == APP:
            fun, arg = tuple([n.a for n in st]), tuple([n.b for n in st])
            expanded[st] = (APP, fun, arg)
            edges = ((1, fun), (2, arg))
        elif [n.a for n in st].count(n0.a) != width:  # a variable: its payload is its label too
            failing.append(st)
            continue
        else:
            expanded[st] = n0  # a variable all members share
            continue
        for i, cs in edges:
            if cs not in seen:
                seen.add(cs)
                stack.append(cs)
            if sig[i] == 0 and [c.kind for c in cs].count(HOLE) != width:
                forced_by.setdefault(cs, []).append(st)

    failed = set(failing)
    queue = deque(failing)
    while queue:
        for st in forced_by.get(queue.popleft(), ()):
            if st not in failed:
                failed.add(st)
                queue.append(st)

    equal = [True] * width

    def expand(st: tuple[Node, ...]):
        if st in failed:
            for j, n in enumerate(st):
                if n.kind != HOLE:
                    equal[j] = False
            return hole()
        return expanded[st]

    return build(root, expand), equal


def lub_chain(sig: Sig, ts: Sequence[Node]) -> Node:
    """Least upper bound of a finite ascending chain.

    The result is the union of the domains with inherited labels; for a
    finite chain that union is realised by the last element.
    """
    ts = list(ts)
    if not ts:
        raise ValueError("lub of an empty chain")
    _check_inputs(sig, *ts)
    for k in range(len(ts) - 1):
        v = tree_leq(sig, ts[k], ts[k + 1])
        if not v:
            raise ValueError(f"not a chain: element {k} is not below element {k + 1}")
    return ts[-1]


@dataclass(frozen=True)
class Lasso:
    """An eventually periodic sequence: prefix then a repeating period."""

    prefix: tuple[Node, ...]
    period: tuple[Node, ...]

    def __post_init__(self):
        if not self.period:
            raise ValueError("a lasso needs a nonempty period")


def liminf_approx(
    sig: Sig,
    seq: Sequence[Node] | Lasso | Iterable[Node],
    depth: int,
    fuel: int,
) -> Approximant:
    """Limit inferior of a tree sequence.

    Finite lists converge to their last element; lassos are exact (the glb of
    the period); for open-ended generators a sliding-window glb is truncated
    at ``depth`` and only trusted once it is stable over a confirmation
    window, with Unknown leaves marking the unstable remainder.
    """
    if isinstance(seq, Lasso):
        return Approximant(glb(sig, list(seq.period)), depth=depth)
    if isinstance(seq, (list, tuple)):
        if not seq:
            raise ValueError("liminf of an empty sequence")
        return Approximant(seq[-1], depth=depth)
    return _liminf_window(sig, iter(seq), depth, fuel)


def _liminf_window(sig: Sig, it: Iterator[Node], depth: int, fuel: int) -> Approximant:
    window = max(2, 2 * depth)
    recent: deque[Node] = deque(maxlen=window)
    candidate: Node | None = None
    prev: Node | None = None
    stable = 0
    last: Node | None = None
    for _ in range(fuel):
        try:
            t = next(it)
        except StopIteration:
            if last is None:
                raise ValueError("liminf of an empty sequence") from None
            return Approximant(last, depth=depth)  # a closed sequence
        last = t
        recent.append(t)
        cur = truncate(sig, glb(sig, list(recent)), depth)
        if candidate is not None and bisimilar(cur, candidate):
            stable += 1
            if stable >= window and len(recent) == window:
                return Approximant(cur, depth=depth)
        else:
            prev, candidate, stable = candidate, cur, 0
    # fuel exhausted: report the candidate with Unknown where it moved last
    if candidate is None:
        return Approximant(unknown(), depth=depth, fuel_exhausted=True)
    marked = _mark_unstable(candidate, prev)
    return Approximant(marked, depth=depth, fuel_exhausted=True)


def _mark_unstable(cur: Node, prev: Node | None) -> Node:
    """Replace subtrees where the last two candidates disagreed by Unknown:
    ``trees.build`` over pairs of nodes, one from each candidate."""
    if prev is None:
        return unknown()

    def expand(pair: tuple[Node, Node]):
        x, y = pair
        if label(x) != label(y):
            return unknown()
        if x.kind == LAM:
            return LAM, (x.a, y.a)
        if x.kind == APP:
            return APP, (x.a, y.a), (x.b, y.b)
        return x

    return build((cur, prev), expand)
