"""Independent oracles and generators for the test suite.

Most of this is implemented from first principles on the finite term syntax
(or by brute-force enumeration), deliberately avoiding the library's graph
algorithms, so that agreement is meaningful.  The named, recursive
conflicts, alpha-equivalence, metric, order and height on terms are the
library's earlier versions of the term functions that now compare de Bruijn
trees; the brute-force glb uses the named order, so it does not depend on
``tree_leq``.  The round-by-round graph
fixpoints and the recursive walkers at the end are the library's earlier
implementations of ``tree_leq`` (with a position per product state), of
``canon``, of the backward-reachability sets, of ``glb`` (by rounds, and
with child tuples rebuilt on every visit of a product state),
of ``is_guarded``, of ``render_tree`` and ``render_term``, of the eight de
Bruijn and copying walkers (``bind_fvars`` among the fixpoints), of
``_mark_unstable`` and of the two recursive-descent parsers, kept as
references for the linear, iterative versions that replaced them (the
copying walkers, ``glb``, ``_mark_unstable`` and ``path_labels`` now build
their results with ``trees.build``), and the union-of-domains construction
that ``lub_chain`` once ran on every call as a self-check.  At the end are
the redex test that dispatched on the rule system at every node, the redex
search that built a position for every node it visited, the ``p_limit``
that checked every context for guardedness, the step that copied the
spines of its reduct and context as fresh nodes, the whole-graph redex
searches and the ``canon``-keyed ``run_strategy`` loop that
``rewriting.NodeIndex`` replaced, the per-node walks of
``developments`` that one strongly-connected-components pass replaced, and
the four hand-written position enumerations that ``trees.positions``
replaced, with the paper's positional binder labels (``label_at``) and the
closed subtree at a position (``subtree_at``), which only the tests read.
Last come the guardedness check that ``order`` once ran member by member,
and the shortlex walk over depth-0 positions, one per path, that
``meaningless.is_stable`` ran before it walked nodes, then the hand-written
argparse builder of the ``ilc`` command line that the option table
``cli._COMMANDS`` replaced.  The very last is the normaliser that indexed
every analysis call afresh and rebound one lambda at a time, which
``meaningless`` replaced with one shared node index and children
normalised where they stand;
it feeds the shifted-recurrence detector class that ``rewriting._shifted``
replaced.  After it comes the complete development with its own fuel loop
and ``canon``-keyed states, which ``rewriting.drive`` replaced.  The file
ends with a stdlib check of documents against the trace export schema.
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import json
import math
import random
import re
from collections import deque
from fractions import Fraction
from importlib import resources

from ilc.convergence import _poison, p_limit
from ilc.developments import _desc_step
from ilc.meaningless import (
    _UNKNOWN,
    TriVerdict,
    _check_tree,
    _no,
    _yes,
    reduces_to_lam,
    strict_nf,
)
from ilc.order import OrderVerdict, _check_inputs, glb
from ilc.rewriting import (
    Beta,
    BetaStrict,
    BohmBot,
    Eta,
    NodeIndex,
    NotARedex,
    Step,
    Strict,
    Trace,
    _spine,
    contractum,
    occurs_index,
    replace_at,
    step_sig,
    try_step,
)
from ilc.terms import BOT, CANONICAL_SIGS, Abs, App, Bot, ParseError, Position, Sig, Term, Var, acut, adepth, parse_term, render_term, tokenize
from ilc.trees import (
    APP,
    BVAR,
    CUT,
    FVAR,
    HOLE,
    LAM,
    UNKNOWN,
    Approximant,
    ClassTable,
    Node,
    app,
    bind_fvars,
    build,
    bvar,
    canon,
    child_at,
    children,
    close_subtree,
    cut,
    fvar,
    has_kind,
    hole,
    is_finite,
    is_guarded,
    label,
    lam,
    link_position,
    map_graph,
    max_bvar_index,
    node_at,
    parse_tree,
    positions,
    reachable,
    reaching,
    transform,
    tree_of_term,
    unknown,
)

# ---------------------------------------------------------------------------
# Iterated S-rewriting on finite terms


def s_normalize(sig: Sig, t: Term) -> Term:
    """Keep contracting lam x.bot -> bot and bot-at-strict-edge redexes."""
    a0, a1, a2 = sig

    def once(t: Term) -> Term:
        match t:
            case Abs(x, body):
                body = once(body)
                if a0 == 0 and isinstance(body, Bot):
                    return Bot()
                return Abs(x, body)
            case App(f, a):
                f, a = once(f), once(a)
                if (a1 == 0 and isinstance(f, Bot)) or (a2 == 0 and isinstance(a, Bot)):
                    return Bot()
                return App(f, a)
            case _:
                return t

    prev = None
    while prev != t:
        prev, t = t, once(t)
    return t


# ---------------------------------------------------------------------------
# Depth truncation on finite terms


def term_truncate(sig: Sig, t: Term, d: int) -> Term:
    a0, a1, a2 = sig
    if d <= 0:
        return Bot()
    match t:
        case Abs(x, body):
            return Abs(x, term_truncate(sig, body, d - a0))
        case App(f, a):
            return App(term_truncate(sig, f, d - a1), term_truncate(sig, a, d - a2))
        case _:
            return t


# ---------------------------------------------------------------------------
# Named comparisons on finite terms (the earlier library implementations)


def fresh_names(prefix: str = "'c"):
    """A deterministic supply of identifiers: 'c0, 'c1, ...  ``tokenize``
    rejects the quote, so no parsed identifier is one of them."""
    return (f"{prefix}{i}" for i in itertools.count())


def _rename_free(t: Term, old: str, new: str) -> Term:
    match t:
        case Var(name):
            return Var(new) if name == old else t
        case Abs(binder, body):
            if binder == old:
                return t
            return Abs(binder, _rename_free(body, old, new))
        case App(fun, arg):
            return App(_rename_free(fun, old, new), _rename_free(arg, old, new))
        case _:
            return t


def conflicts_named(m: Term, n: Term) -> set[Position]:
    """Positions where the two terms structurally disagree.

    Abstractions are compared after renaming both binders to the same fresh
    variable, so the result is stable under alpha-conversion of bound
    variables.  Free variables are compared by name.
    """
    fresh = fresh_names()

    def go(m: Term, n: Term) -> set[Position]:
        match (m, n):
            case (Bot(), Bot()):
                return set()
            case (Var(a), Var(b)) if a == b:
                return set()
            case (App(f1, a1), App(f2, a2)):
                return {(1,) + p for p in go(f1, f2)} | {(2,) + p for p in go(a1, a2)}
            case (Abs(x, b1), Abs(y, b2)):
                z = next(fresh)
                return {(0,) + p for p in go(_rename_free(b1, x, z), _rename_free(b2, y, z))}
            case _:
                return {()}

    return go(m, n)


def alpha_eq_named(m: Term, n: Term) -> bool:
    return not conflicts_named(m, n)


def term_distance_named(sig: Sig, m: Term, n: Term) -> Fraction:
    """2^(-d) where d is the least depth of a conflict; 0 if alpha-equal."""
    cs = conflicts_named(m, n)
    if not cs:
        return Fraction(0)
    d = min(adepth(sig, p) for p in cs)
    return Fraction(1, 2 ** d)


def term_leq_named(sig: Sig, m: Term, n: Term) -> bool:
    """The approximation order: bottom may only grow at non-strict edges."""
    a0, a1, a2 = sig
    fresh = fresh_names()

    def grow_ok(a: int, child_m: Term, child_n: Term) -> bool:
        # at a strict edge, a bottom child may not become defined
        return a == 1 or not isinstance(child_m, Bot) or isinstance(child_n, Bot)

    def go(m: Term, n: Term) -> bool:
        if isinstance(m, Bot):
            return True
        match (m, n):
            case (Var(a), Var(b)):
                return a == b
            case (Abs(x, b1), Abs(y, b2)):
                if not grow_ok(a0, b1, b2):
                    return False
                z = next(fresh)
                return go(_rename_free(b1, x, z), _rename_free(b2, y, z))
            case (App(f1, u1), App(f2, u2)):
                return (
                    grow_ok(a1, f1, f2)
                    and grow_ok(a2, u1, u2)
                    and go(f1, f2)
                    and go(u1, u2)
                )
            case _:
                return False

    return go(m, n)


def term_height_recursive(sig: Sig, m: Term) -> int:
    a0, a1, a2 = sig
    match m:
        case Bot():
            return 0
        case Var(_):
            return 1
        case Abs(_, body):
            return max(1, term_height_recursive(sig, body) + a0)
        case App(fun, arg):
            return max(1, term_height_recursive(sig, fun) + a1, term_height_recursive(sig, arg) + a2)
    raise TypeError(f"not a term: {m!r}")


# ---------------------------------------------------------------------------
# Brute-force greatest lower bound on finite trees

def _subterm_positions(t: Term) -> list[tuple[int, ...]]:
    out = [()]
    match t:
        case Abs(_, body):
            out += [(0,) + p for p in _subterm_positions(body)]
        case App(f, a):
            out += [(1,) + p for p in _subterm_positions(f)]
            out += [(2,) + p for p in _subterm_positions(a)]
    return out


def _replace(t: Term, p: tuple[int, ...], sub: Term) -> Term:
    if not p:
        return sub
    i, rest = p[0], p[1:]
    match t:
        case Abs(x, body) if i == 0:
            return Abs(x, _replace(body, rest, sub))
        case App(f, a) if i == 1:
            return App(_replace(f, rest, sub), a)
        case App(f, a) if i == 2:
            return App(f, _replace(a, rest, sub))
    raise KeyError(p)


def lower_bounds(sig: Sig, t: Term, limit: int = 1 << 14) -> list[Term]:
    """All terms obtained from t by pruning subterms to bot, filtered to
    genuine lower bounds (brute force over position subsets)."""
    ps = [p for p in _subterm_positions(t)]
    if 2 ** len(ps) > limit:
        raise ValueError("term too large for brute-force lower bounds")
    seen: set[str] = set()
    out: list[Term] = []
    for mask in range(2 ** len(ps)):
        cur = t
        for k, p in enumerate(ps):
            if mask >> k & 1:
                try:
                    cur = _replace(cur, p, Bot())
                except KeyError:
                    cur = None
                    break
        if cur is None:
            continue
        key = repr(cur)
        if key in seen:
            continue
        seen.add(key)
        if term_leq_named(sig, cur, t):
            out.append(cur)
    return out


def glb_oracle(sig: Sig, a: Term, b: Term) -> Term | None:
    """The unique common lower bound of a and b above all others, if any."""
    common = [x for x in lower_bounds(sig, a) if term_leq_named(sig, x, b)]
    best = None
    for x in common:
        if all(term_leq_named(sig, y, x) for y in common):
            best = x
            break
    return best


# ---------------------------------------------------------------------------
# Exhaustive enumeration of small finite trees


def enumerate_trees(max_nodes: int, free_vars=("x",), with_bot: bool = True):
    """All finite lambda-tree graphs with at most max_nodes nodes; bound
    variables only use indices that are actually in scope."""
    memo: dict[tuple[int, int], list[tuple[Node, int]]] = {}

    def gen(budget: int, depth: int) -> list[tuple[Node, int]]:
        key = (budget, depth)
        if key in memo:
            return memo[key]
        out: list[tuple[Node, int]] = []
        if budget >= 1:
            if with_bot:
                out.append((hole(), 1))
            for v in free_vars:
                out.append((fvar(v), 1))
            for k in range(depth):
                out.append((bvar(k), 1))
        if budget >= 2:
            for body, n in gen(budget - 1, depth + 1):
                out.append((lam(body), n + 1))
        if budget >= 3:
            for f, nf in gen(budget - 2, depth):
                for a, na in gen(budget - 1 - nf, depth):
                    out.append((app(f, a), nf + na + 1))
        memo[key] = out
        return out

    for t, _ in gen(max_nodes, 0):
        yield t


# ---------------------------------------------------------------------------
# Random generators


def random_term(rng: random.Random, size: int, depth: int = 0, free=("x", "y")) -> Term:
    if size <= 1:
        kinds = ["bot", "free"] + (["bound"] if depth else [])
        k = rng.choice(kinds)
        if k == "bot":
            return Bot()
        if k == "bound":
            return Var(f"v{rng.randrange(depth)}")
        return Var(rng.choice(free))
    k = rng.choice(["lam", "app", "app"]) if size >= 3 else "lam"
    if k == "lam":
        return Abs(f"v{depth}", random_term(rng, size - 1, depth + 1, free))
    ls = rng.randrange(1, size - 1)
    return App(
        random_term(rng, ls, depth, free),
        random_term(rng, size - 1 - ls, depth, free),
    )


def random_tree(rng: random.Random, size: int, depth: int = 0, free=("x", "y")) -> Node:
    if size <= 1:
        k = rng.choice(["bot", "free"] + (["bound"] if depth else []))
        if k == "bot":
            return hole()
        if k == "bound":
            return bvar(rng.randrange(depth))
        return fvar(rng.choice(free))
    k = rng.choice(["lam", "app", "app"]) if size >= 3 else "lam"
    if k == "lam":
        return lam(random_tree(rng, size - 1, depth + 1, free))
    ls = rng.randrange(1, size - 1)
    return app(
        random_tree(rng, ls, depth, free),
        random_tree(rng, size - 1 - ls, depth, free),
    )


def random_redexy_term(rng: random.Random, size: int) -> Term:
    """Random terms biased toward containing beta redexes."""
    if size < 4 or rng.random() < 0.3:
        return random_term(rng, max(size, 1))
    body = random_term(rng, (size - 2) // 2, depth=1)
    arg = random_term(rng, size - 2 - (size - 2) // 2)
    t = App(Abs("v0", _use_v0(rng, body)), arg)
    if rng.random() < 0.4:
        t = App(t, random_term(rng, 2))
    return t


def _use_v0(rng: random.Random, t: Term) -> Term:
    # sprinkle occurrences of the binder into a body generated blind
    match t:
        case Bot():
            return Var("v0") if rng.random() < 0.5 else t
        case Var(_):
            return Var("v0") if rng.random() < 0.3 else t
        case Abs(x, b):
            return Abs(x, _use_v0(rng, b))
        case App(f, a):
            return App(_use_v0(rng, f), _use_v0(rng, a))
    return t


_OMEGA = r"(\x.x x) (\x.x x)"
_GROWER = r"(\x.x x y) (\x.x x y)"  # reduces to itself applied to y, forever


def random_loopy_tree(rng: random.Random, sig: Sig) -> Node:
    """A random redex-rich term, in most cases applied to, or applying, a
    looping or growing term, or under a binder applied to one."""
    t = random_redexy_term(rng, rng.randrange(3, 9))
    if rng.random() < 0.6:
        src = rng.choice([_OMEGA, _GROWER, rf"(\x.y) ({_OMEGA})"])
        base = parse_term(src)
        t = rng.choice([App(t, base), App(base, t), Abs("w", App(Var("w"), base))])
    return tree_of_term(t)


def random_graph(rng: random.Random, size: int, cyclic: bool = True) -> Node:
    """A random node graph over a small label alphabet, so that bisimilar
    nodes are common.  With ``cyclic`` every edge may point anywhere;
    otherwise edges point only to later nodes, giving a DAG with sharing."""
    nodes = [Node(HOLE) for _ in range(size)]
    for k, n in enumerate(nodes):
        targets = nodes if cyclic else nodes[k + 1 :]
        kinds = ["lam", "app", "app"] if targets else []
        if k > 0 or not targets:  # the root is interior whenever it can be
            kinds += ["bvar", "fvar", "hole"]
        kind = rng.choice(kinds)
        if kind == "lam":
            n.kind, n.a = LAM, rng.choice(targets)
        elif kind == "app":
            n.kind, n.a, n.b = APP, rng.choice(targets), rng.choice(targets)
        elif kind == "bvar":
            n.kind, n.a = BVAR, rng.randrange(2)
        elif kind == "fvar":
            n.kind, n.a = FVAR, rng.choice("xy")
    return nodes[0]


def loopy(seed: int, count: int):
    """``rec x. M`` for redex-rich terms M with x free: these often reduce
    to a lasso."""
    rng = random.Random(seed)
    for _ in range(count):
        yield parse_tree("rec x. " + render_term(random_redexy_term(rng, rng.randrange(3, 12))))


def unroll(root: Node, depth: int) -> Node:
    """A bisimilar copy: fresh nodes for the unfolding down to ``depth``,
    whose deepest edges lead back into the original graph."""
    if depth == 0:
        return root
    if root.kind == LAM:
        return lam(unroll(root.a, depth - 1))
    if root.kind == APP:
        return app(unroll(root.a, depth - 1), unroll(root.b, depth - 1))
    return Node(root.kind, root.a, root.b)


# ---------------------------------------------------------------------------
# Round-by-round graph fixpoints (the earlier library implementations)


def canon_by_refinement(root: Node) -> tuple:
    """Partition refinement over the whole graph, one round per pass, then a
    recursive preorder serialization of the minimized graph."""
    nodes = reachable(root)
    block: dict[int, int] = {}
    key_ids: dict[tuple, int] = {}
    for n in nodes:
        block[id(n)] = key_ids.setdefault(label(n), len(key_ids))
    while True:
        key_ids = {}
        new: dict[int, int] = {}
        for n in nodes:
            k = (block[id(n)], tuple(block[id(c)] for _, c in children(n)))
            new[id(n)] = key_ids.setdefault(k, len(key_ids))
        stable = len(key_ids) == len(set(block.values()))
        block = new
        if stable:
            break
    reps: dict[int, Node] = {}
    for n in nodes:
        reps.setdefault(block[id(n)], n)
    serial: dict[int, int] = {}
    out: list[tuple] = []

    def visit(b: int):
        if b in serial:
            out.append(("ref", serial[b]))
            return
        serial[b] = len(serial)
        n = reps[b]
        out.append(("node", label(n)))
        for _, c in children(n):
            visit(block[id(c)])

    visit(block[id(root)])
    return tuple(out)


def reaching_by_rounds(root: Node, seed, edge=lambda i: True) -> set[int]:
    """ids of the nodes that reach a node satisfying ``seed`` along edges
    whose index satisfies ``edge``: the least fixpoint, one round per pass."""
    nodes = reachable(root)
    good = {id(n) for n in nodes if seed(n)}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            if id(n) in good:
                continue
            if any(edge(i) and id(c) in good for i, c in children(n)):
                good.add(id(n))
                changed = True
    return good


def redex_reachability_by_rounds(rules, t: Node) -> set[int]:
    """ids of the nodes from which some redex node is reachable."""
    return reaching_by_rounds(t, lambda n: redex_tag_by_match(rules, n) is not None)


def redex_reachability(rules, t: Node) -> set[Node]:
    """The nodes from which some redex node is reachable, by one whole-graph
    ``reaching`` pass (the per-search set before ``rewriting.NodeIndex``)."""
    return reaching(reachable(t), lambda n: redex_tag_by_match(rules, n) is not None)


def collapsible_by_rounds(sig: Sig, t: Node) -> set[int]:
    """ids of the nodes whose subtree S-rewrites to bottom: those that reach
    a Hole through strict edges."""
    return reaching_by_rounds(t, lambda n: n.kind == HOLE, lambda i: sig[i] == 0)


def bind_fvars_by_rounds(root: Node, mapping: dict[str, int]) -> Node:
    """``trees.bind_fvars`` with its set of rebound nodes computed as a
    round-by-round fixpoint."""
    if not mapping:
        return root
    nodes = reachable(root)
    relevant = reaching_by_rounds(root, lambda n: n.kind == FVAR and n.a in mapping)
    memo: dict[tuple[int, int], Node] = {}
    limit = 4 * len(nodes) + max(mapping.values(), default=0) + 8

    def go(m: Node, d: int) -> Node:
        if id(m) not in relevant:
            return m
        if d > limit:
            raise ValueError("cannot rebind a variable occurring at unbounded depth")
        key = (id(m), d)
        if key in memo:
            return memo[key]
        if m.kind == FVAR:
            out = bvar(mapping[m.a] + d) if m.a in mapping else m
            memo[key] = out
            return out
        new = Node(m.kind, m.a, m.b)
        memo[key] = new
        if m.kind == LAM:
            new.a = go(m.a, d + 1)
        elif m.kind == APP:
            new.a = go(m.a, d)
            new.b = go(m.b, d)
        return new

    return go(root, 0)


# ---------------------------------------------------------------------------
# Product-graph constructions (the earlier library implementations)


def tree_leq_by_positions(sig: Sig, s: Node, t: Node) -> OrderVerdict:
    """``order.tree_leq`` with the position of every product state carried
    through the breadth-first search."""
    _check_inputs(sig, s, t)
    seen: set[tuple[int, int]] = set()
    queue: deque[tuple[Node, Node, Position]] = deque([(s, t, ())])
    while queue:
        x, y, p = queue.popleft()
        if (id(x), id(y)) in seen:
            continue
        seen.add((id(x), id(y)))
        if x.kind == HOLE:
            continue  # bottom is below everything at a non-strict or root slot
        if y.kind == HOLE:
            return OrderVerdict(False, p)  # domain inclusion fails
        if label(x) != label(y):
            return OrderVerdict(False, p)
        for (i, cx), (_, cy) in zip(children(x), children(y)):
            if sig[i] == 0 and cx.kind == HOLE and cy.kind != HOLE:
                return OrderVerdict(False, p + (i,))  # strict-child clause
            queue.append((cx, cy, p + (i,)))
    return OrderVerdict(True)


_HOLE = hole()  # shared absorbing element for product constructions


def _tuple_children(nodes: tuple[Node, ...], i: int) -> tuple[Node, ...]:
    out = []
    for n in nodes:
        c = child_at(n, i)
        out.append(c if c is not None else _HOLE)
    return tuple(out)


def glb_by_tuples(sig: Sig, ts: list[Node]) -> Node:
    """``order.glb`` as it was before it recorded each kept state's children:
    the label check compares a set of ``label`` tuples, and every visit of a
    state rebuilds its child tuples, filling a missing child with a hole."""
    ts = list(ts)
    if not ts:
        raise ValueError("glb of an empty set")
    _check_inputs(sig, *ts)

    root = tuple(ts)
    seen = {root}
    stack = [root]
    failing: list[tuple[Node, ...]] = []
    forced_by: dict[tuple[Node, ...], list[tuple[Node, ...]]] = {}  # strict child -> parents
    while stack:
        st = stack.pop()
        n0 = st[0]
        if any(n.kind == HOLE for n in st) or len({label(n) for n in st}) != 1:
            failing.append(st)
            continue
        for i, _ in children(n0):
            cs = _tuple_children(st, i)
            if cs not in seen:
                seen.add(cs)
                stack.append(cs)
            if sig[i] == 0 and any(c.kind != HOLE for c in cs):
                forced_by.setdefault(cs, []).append(st)

    failed = set(failing)
    queue = deque(failing)
    while queue:
        for st in forced_by.get(queue.popleft(), ()):
            if st not in failed:
                failed.add(st)
                queue.append(st)

    def expand(st: tuple[Node, ...]):
        if st in failed:
            return hole()
        n0 = st[0]
        if n0.kind == LAM:
            return LAM, _tuple_children(st, 0)
        if n0.kind == APP:
            return APP, _tuple_children(st, 1), _tuple_children(st, 2)
        return n0  # a variable all members share

    return build(root, expand)


def glb_by_rounds(sig: Sig, ts: list[Node]) -> Node:
    """``order.glb`` as a greatest fixpoint that drops failing product
    states one pass over all states at a time, and a recursive build."""
    ts = list(ts)
    if not ts:
        raise ValueError("glb of an empty set")
    _check_inputs(sig, *ts)

    root = tuple(ts)
    states: dict[tuple[int, ...], tuple[Node, ...]] = {}
    stack = [root]
    while stack:
        st = stack.pop()
        key = tuple(id(n) for n in st)
        if key in states:
            continue
        states[key] = st
        if all(n.kind != HOLE for n in st) and len({label(n) for n in st}) == 1:
            for i, _ in children(st[0]):
                stack.append(_tuple_children(st, i))

    def locally_ok(st: tuple[Node, ...]) -> bool:
        if any(n.kind == HOLE for n in st):
            return False
        return len({label(n) for n in st}) == 1

    ok = {key for key, st in states.items() if locally_ok(st)}
    changed = True
    while changed:
        changed = False
        for key in list(ok):
            st = states[key]
            for i, _ in children(st[0]):
                cs = _tuple_children(st, i)
                if sig[i] == 0 and any(c.kind != HOLE for c in cs):
                    if tuple(id(n) for n in cs) not in ok:
                        ok.discard(key)
                        changed = True
                        break

    memo: dict[tuple[int, ...], Node] = {}

    def build(st: tuple[Node, ...]) -> Node:
        key = tuple(id(n) for n in st)
        if key not in ok:
            return hole()
        if key in memo:
            return memo[key]
        n0 = st[0]
        new = Node(n0.kind, n0.a, n0.b)
        memo[key] = new
        if n0.kind == LAM:
            new.a = build(_tuple_children(st, 0))
        elif n0.kind == APP:
            new.a = build(_tuple_children(st, 1))
            new.b = build(_tuple_children(st, 2))
        return new

    return build(root)


def lub_union(ts: list[Node]) -> Node:
    """The union of the domains of a chain, each position labelled as in
    the last member defined there."""
    memo: dict[tuple[int, ...], Node] = {}

    def build(st: tuple[Node, ...]) -> Node:
        key = tuple(id(n) for n in st)
        if key in memo:
            return memo[key]
        defined = [n for n in st if n.kind != HOLE]
        if not defined:
            return hole()
        n0 = defined[-1]
        new = Node(n0.kind, n0.a, n0.b)
        memo[key] = new
        if n0.kind == LAM:
            new.a = build(_tuple_children(st, 0))
        elif n0.kind == APP:
            new.a = build(_tuple_children(st, 1))
            new.b = build(_tuple_children(st, 2))
        return new

    return build(tuple(ts))


# ---------------------------------------------------------------------------
# Recursive walkers (the earlier library implementations)


def is_guarded_by_walks(sig: Sig, t: Node) -> bool:
    """``trees.is_guarded`` as three walks: a Cut/Unknown check, the
    reachable nodes, and a recursive cycle search along strict edges from
    each of them."""
    if has_kind(t, CUT, UNKNOWN):
        raise ValueError("guardedness is undefined for Cut/Unknown leaves")
    state: dict[int, int] = {}

    def visit(n: Node) -> bool:
        st = state.get(id(n))
        if st == 1:
            return False
        if st == 2:
            return True
        state[id(n)] = 1
        for i, c in children(n):
            if sig[i] == 0 and not visit(c):
                return False
        state[id(n)] = 2
        return True

    return all(visit(n) for n in reachable(t))


def render_tree_recursive(t: Node, ascii_only: bool = False) -> str:
    """``trees.render_tree`` as a recursive back-edge search and a recursive
    printer that concatenates nested strings and copies the binder list at
    every lambda."""
    bot = "bot" if ascii_only else "⊥"
    cut_s = "..." if ascii_only else "…"
    loops: set[int] = set()
    state: dict[int, int] = {}

    def find(n: Node):
        st = state.get(id(n))
        if st == 1:
            loops.add(id(n))
            return
        if st == 2:
            return
        state[id(n)] = 1
        for _, c in children(n):
            find(c)
        state[id(n)] = 2

    find(t)
    rec_names: dict[int, str] = {}
    counter = [0]

    def go(n: Node, binders: list[str], ctx: str) -> str:
        if id(n) in rec_names:
            return rec_names[id(n)]
        if id(n) in loops:
            name = f"M{counter[0]}"
            counter[0] += 1
            rec_names[id(n)] = name
            s = f"rec {name}. {body(n, binders, 'top')}"
            del rec_names[id(n)]
            return s if ctx == "top" else f"({s})"
        return body(n, binders, ctx)

    def body(n: Node, binders: list[str], ctx: str) -> str:
        if n.kind == HOLE:
            return bot
        if n.kind == CUT:
            return cut_s
        if n.kind == UNKNOWN:
            return "?"
        if n.kind == FVAR:
            return n.a
        if n.kind == BVAR:
            if n.a < len(binders):
                return binders[-1 - n.a]
            return f"_e{n.a - len(binders)}"
        if n.kind == LAM:
            name = f"x{len(binders)}"
            s = f"\\{name}.{go(n.a, binders + [name], 'top')}"
            return s if ctx == "top" else f"({s})"
        if n.kind == APP:
            s = f"{go(n.a, binders, 'fun')} {go(n.b, binders, 'arg')}"
            return s if ctx in ("top", "fun") else f"({s})"
        raise TypeError(n.kind)

    return go(t, [], "top")


def map_graph_recursive(root: Node, leaf_fn) -> Node:
    """``trees.map_graph`` as a recursive copy memoised on node ids."""
    memo: dict[int, Node] = {}

    def go(n: Node) -> Node:
        if id(n) in memo:
            return memo[id(n)]
        r = leaf_fn(n)
        if r is not None:
            memo[id(n)] = r
            return r
        new = Node(n.kind)
        memo[id(n)] = new
        if n.kind == LAM:
            new.a = go(n.a)
        elif n.kind == APP:
            new.a = go(n.a)
            new.b = go(n.b)
        else:
            new.a, new.b = n.a, n.b
        return new

    return go(root)


def close_subtree_recursive(n: Node, escape_prefix: str = "_e") -> Node:
    """``trees.close_subtree`` as a recursive copy."""
    cap = max_bvar_index(n) + 1
    memo: dict[tuple[int, int], Node] = {}

    def go(m: Node, d: int) -> Node:
        d = min(d, cap)
        key = (id(m), d)
        if key in memo:
            return memo[key]
        if m.kind == BVAR:
            out = m if m.a < d else fvar(f"{escape_prefix}{m.a - d}")
            memo[key] = out
            return out
        if m.kind == LAM:
            new = Node(LAM)
            memo[key] = new
            new.a = go(m.a, d + 1)
            return new
        if m.kind == APP:
            new = Node(APP)
            memo[key] = new
            new.a = go(m.a, d)
            new.b = go(m.b, d)
            return new
        memo[key] = m
        return m

    return go(n, 0)


def truncate_recursive(sig: Sig, t: Node, d: int) -> Node:
    """``trees.truncate`` as a recursive copy of the unfolding."""
    if not is_guarded(sig, t):
        raise ValueError("cannot truncate an unguarded tree")

    def go(n: Node, depth: int) -> Node:
        if depth >= d:
            return hole()
        if n.kind == LAM:
            return lam(go(n.a, depth + sig[0]))
        if n.kind == APP:
            return app(go(n.a, depth + sig[1]), go(n.b, depth + sig[2]))
        return Node(n.kind, n.a, n.b)

    return go(t, 0)


def class_table(*roots: Node) -> ClassTable:
    """A fresh class table of the roots, for a call of a walker by
    ``transform`` (``rewrite_by_transform`` and the walkers over it)."""
    classes = ClassTable()
    for r in roots:
        classes.add(r)
    return classes


def node_index(*roots: Node) -> NodeIndex:
    """A fresh beta index of the roots, for a direct call of a de Bruijn
    walker (``rewriting.shift``, ``substitute``, ``unshift_free``)."""
    index = NodeIndex(Beta())
    for r in roots:
        index.add(r)
    return index


def rewrite_by_transform(root: Node, var, classes: ClassTable) -> Node:
    """``rewriting._rewrite`` as it was before it built through the index:
    a ``transform`` copy over (node, depth) states of every root, which
    returns a finite node whose free index lies below the depth as it is.
    ``classes`` holds the root."""
    cls, free = classes.cls, classes.free
    cap = None
    if cls[root] < 0:
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


def shift_by_transform(root: Node, by: int, classes: ClassTable) -> Node:
    """``rewriting.shift`` over ``rewrite_by_transform``."""
    if by == 0:
        return root
    return rewrite_by_transform(root, lambda i, d: bvar(i + by), classes)


def substitute_by_transform(body: Node, arg: Node, classes: ClassTable) -> Node:
    """``rewriting.substitute`` over ``rewrite_by_transform``: one shifted
    copy of ``arg`` per binder depth."""
    copies: dict[int, Node] = {}

    def put(i: int, d: int) -> Node:
        if i > d:
            return bvar(i - 1)
        if d not in copies:
            copies[d] = shift_by_transform(arg, d, classes)
        return copies[d]

    return rewrite_by_transform(body, put, classes)


def unshift_free_by_transform(root: Node, classes: ClassTable) -> Node:
    """``rewriting.unshift_free`` over ``rewrite_by_transform``."""

    def down(i: int, d: int) -> Node:
        if i == d:
            raise ValueError("eta: the bound variable occurs in the function")
        return bvar(i - 1)

    return rewrite_by_transform(root, down, classes)


def contractum_by_transform(rules, n: Node, tag: str) -> Node:
    """``rewriting.contractum`` with a beta or eta redex contracted by the
    walkers over ``rewrite_by_transform``, as fresh copies; every other
    case, errors included, is ``contractum``'s."""
    if tag == "beta" and n.kind == APP and n.a.kind == LAM:
        return substitute_by_transform(n.a.a, n.b, class_table(n))
    if tag == "eta" and n.kind == LAM and n.a.kind == APP and n.a.b.kind == BVAR and n.a.b.a == 0:
        return unshift_free_by_transform(n.a.a, class_table(n))
    return contractum(rules, n, tag, NodeIndex(rules))


def shift_recursive(root: Node, by: int, cutoff: int = 0) -> Node:
    """``rewriting.shift`` as a recursive copy."""
    if by == 0:
        return root
    cap = max_bvar_index(root) + 1
    memo: dict[tuple[int, int], Node] = {}

    def go(n: Node, c: int) -> Node:
        c = min(c, cap)
        key = (id(n), c)
        if key in memo:
            return memo[key]
        if n.kind == BVAR:
            out = bvar(n.a + by) if n.a >= c else n
            memo[key] = out
            return out
        new = Node(n.kind, n.a, n.b)
        memo[key] = new
        if n.kind == LAM:
            new.a = go(n.a, c + 1)
        elif n.kind == APP:
            new.a = go(n.a, c)
            new.b = go(n.b, c)
        return new

    return go(root, cutoff)


def substitute_recursive(body: Node, arg: Node) -> Node:
    """``rewriting.substitute`` as a recursive copy."""
    cap = max_bvar_index(body) + 1
    memo: dict[tuple[int, int], Node] = {}

    def go(n: Node, d: int) -> Node:
        d = min(d, cap)
        key = (id(n), d)
        if key in memo:
            return memo[key]
        if n.kind == BVAR:
            if n.a == d:
                out = shift_recursive(arg, d)
            elif n.a > d:
                out = bvar(n.a - 1)
            else:
                out = n
            memo[key] = out
            return out
        new = Node(n.kind, n.a, n.b)
        memo[key] = new
        if n.kind == LAM:
            new.a = go(n.a, d + 1)
        elif n.kind == APP:
            new.a = go(n.a, d)
            new.b = go(n.b, d)
        return new

    return go(body, 0)


def unshift_free_recursive(root: Node) -> Node:
    """``rewriting.unshift_free`` as a recursive copy."""
    cap = max_bvar_index(root) + 1
    memo: dict[tuple[int, int], Node] = {}

    def go(n: Node, c: int) -> Node:
        c = min(c, cap)
        key = (id(n), c)
        if key in memo:
            return memo[key]
        if n.kind == BVAR:
            if n.a == c:
                raise ValueError("eta: the bound variable occurs in the function")
            out = bvar(n.a - 1) if n.a > c else n
            memo[key] = out
            return out
        new = Node(n.kind, n.a, n.b)
        memo[key] = new
        if n.kind == LAM:
            new.a = go(n.a, c + 1)
        elif n.kind == APP:
            new.a = go(n.a, c)
            new.b = go(n.b, c)
        return new

    return go(root, 0)


def occurs_index_recursive(root: Node, index: int) -> bool:
    """``rewriting.occurs_index`` as a recursive search."""
    cap = max_bvar_index(root) + 1
    seen: set[tuple[int, int]] = set()

    def go(n: Node, k: int) -> bool:
        k = min(k, cap)
        if (id(n), k) in seen:
            return False
        seen.add((id(n), k))
        if n.kind == BVAR:
            return n.a == k
        if n.kind == LAM:
            return go(n.a, k + 1)
        if n.kind == APP:
            return go(n.a, k) or go(n.b, k)
        return False

    return go(root, index)


def free_index_by_scan(root: Node) -> int:
    """The largest de Bruijn index that escapes a finite graph, or -1: a
    scan of its (node, binders crossed) states, with no class table
    (``trees.ClassTable.free``)."""
    top = -1
    seen: set[tuple[Node, int]] = set()
    stack = [(root, 0)]
    while stack:
        n, k = stack.pop()
        if (n, k) in seen:
            continue
        seen.add((n, k))
        if n.kind == BVAR:
            top = max(top, n.a - k)
        for i, c in children(n):
            stack.append((c, k + 1 if i == 0 else k))
    return top


def redex_key_by_walk(index: NodeIndex, sig: Sig, n: Node, pos: Position) -> int | tuple:
    """``meaningless.is_active``'s key of a contracted redex subtree as it
    was before it read the free index: a ``max_bvar_index`` walk, then a
    copy that names each variable bound outside ``t``, unless none is."""
    if sig[0] == 1:
        return index.key(n)
    b = pos.count(0)
    top = max_bvar_index(n)
    if top < b:
        return index.key(n)

    def name(m: Node, k: int) -> Node | None:
        return Node(FVAR, m.a - k - b) if m.kind == BVAR and m.a >= k + b else None

    named = transform(n, name, cap=top + 1)
    index.add(named)
    return index.key(named)


def mark_unstable_recursive(cur: Node, prev: Node | None) -> Node:
    """``order._mark_unstable`` as a recursive copy of the unfolding, for
    finite trees."""
    if prev is None:
        return unknown()

    def go(x: Node, y: Node) -> Node:
        if label(x) != label(y):
            return unknown()
        new = Node(x.kind, x.a, x.b)
        if x.kind == LAM:
            new.a = go(x.a, y.a)
        elif x.kind == APP:
            new.a = go(x.a, y.a)
            new.b = go(x.b, y.b)
        return new

    return go(cur, prev)


class _TermParser:
    """Recursive descent for TERM ::= '\\' IDENT '.' TERM | APP."""

    def __init__(self, toks):
        self.toks = toks
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def next(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect(self, kind, value=None):
        t = self.next()
        if t[0] != kind or (value is not None and t[1] != value):
            raise ParseError(f"expected {value or kind}, found {t[1] or 'end of input'}", t[2])
        return t

    def term(self) -> Term:
        kind, value, off = self.peek()
        if kind == "punct" and value == "\\":
            self.next()
            name = self.expect("ident")[1]
            self.expect("punct", ".")
            return Abs(name, self.term())
        return self.app()

    def app(self) -> Term:
        t = self.atom()
        if t is None:
            kind, value, off = self.peek()
            raise ParseError(f"expected a term, found {value or 'end of input'}", off)
        while True:
            u = self.atom()
            if u is None:
                return t
            t = App(t, u)

    def atom(self) -> Term | None:
        kind, value, off = self.peek()
        if kind == "ident":
            self.next()
            return Var(value)
        if kind == "bot":
            self.next()
            return BOT
        if kind == "punct" and value == "(":
            self.next()
            t = self.term()
            self.expect("punct", ")")
            return t
        if kind == "punct" and value == "\\":
            return None
        return None


def parse_term_recursive(text: str) -> Term:
    """``terms.parse_term`` by recursive descent."""
    toks = tokenize(text)
    p = _TermParser(toks)
    kind, value, off = p.peek()
    if kind == "rec":
        raise ParseError("'rec' literals denote trees, not terms", off)
    t = p.term()
    kind, value, off = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {value!r}", off)
    return t


def render_term_recursive(t: Term, ascii_only: bool = False) -> str:
    """``terms.render_term`` as a recursive printer."""
    bot = "bot" if ascii_only else "⊥"

    def go(t: Term, ctx: str) -> str:
        # ctx: 'top' (no parens needed), 'fun' (function side of app),
        # 'arg' (argument side of app)
        match t:
            case Bot():
                return bot
            case Var(name):
                return name
            case Abs(binder, body):
                s = f"\\{binder}.{go(body, 'top')}"
                return s if ctx == "top" else f"({s})"
            case App(fun, arg):
                s = f"{go(fun, 'fun')} {go(arg, 'arg')}"
                return s if ctx in ("top", "fun") else f"({s})"
        raise TypeError(f"not a term: {t!r}")

    return go(t, "top")


class _TreeParser:
    def __init__(self, toks):
        self.toks = toks
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def next(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect(self, kind, value=None):
        t = self.next()
        if t[0] != kind or (value is not None and t[1] != value):
            raise ParseError(f"expected {value or kind}, found {t[1] or 'end of input'}", t[2])
        return t

    def term(self, binders: list[str], recs: dict[str, Node]) -> Node:
        kind, value, off = self.peek()
        if kind == "punct" and value == "\\":
            self.next()
            name = self.expect("ident")[1]
            self.expect("punct", ".")
            return lam(self.term(binders + [name], recs))
        if kind == "rec":
            self.next()
            name = self.expect("ident")[1]
            self.expect("punct", ".")
            placeholder = Node(HOLE)
            body = self.term(binders, recs | {name: placeholder})
            if body is placeholder:
                raise ParseError(f"unproductive rec binding {name!r}", off)
            placeholder.kind, placeholder.a, placeholder.b = body.kind, body.a, body.b
            return placeholder
        return self.app(binders, recs)

    def app(self, binders, recs) -> Node:
        t = self.atom(binders, recs)
        if t is None:
            kind, value, off = self.peek()
            raise ParseError(f"expected a term, found {value or 'end of input'}", off)
        while True:
            u = self.atom(binders, recs)
            if u is None:
                return t
            t = app(t, u)

    def atom(self, binders, recs) -> Node | None:
        kind, value, off = self.peek()
        if kind == "ident":
            self.next()
            if value in recs:
                return recs[value]
            # innermost binding wins for shadowed names
            for d, name in enumerate(reversed(binders)):
                if name == value:
                    return bvar(d)
            return fvar(value)
        if kind == "bot":
            self.next()
            return hole()
        if kind == "punct" and value == "(":
            self.next()
            t = self.term(binders, recs)
            self.expect("punct", ")")
            return t
        return None


def parse_tree_recursive(text: str) -> Node:
    """``trees.parse_tree`` by recursive descent."""
    toks = tokenize(text)
    p = _TreeParser(toks)
    t = p.term([], {})
    kind, value, off = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {value!r}", off)
    return t


def tree_of_term_recursive(m: Term) -> Node:
    """``trees.tree_of_term`` by recursion."""

    def go(t: Term, env: dict[str, int], depth: int) -> Node:
        match t:
            case Bot():
                return hole()
            case Var(name):
                if name in env:
                    return bvar(depth - 1 - env[name])
                return fvar(name)
            case Abs(binder, body):
                saved = env.get(binder)
                env[binder] = depth
                child = go(body, env, depth + 1)
                if saved is None:
                    env.pop(binder, None)
                else:
                    env[binder] = saved
                return lam(child)
            case App(fun, arg):
                return app(go(fun, env, depth), go(arg, env, depth))
        raise TypeError(f"not a term: {t!r}")

    return go(m, {}, 0)


def term_of_tree_recursive(t: Node) -> Term:
    """``trees.term_of_tree`` by recursion."""
    if not is_finite(t):
        raise ValueError("cannot convert an infinite (cyclic) tree to a term")
    counter = [0]

    def go(n: Node, binders: list[str]) -> Term:
        if n.kind == HOLE:
            return Bot()
        if n.kind in (CUT, UNKNOWN):
            raise ValueError(f"tree contains a {n.kind} leaf")
        if n.kind == BVAR:
            if n.a >= len(binders):
                raise ValueError("de Bruijn index escapes the tree")
            return Var(binders[-1 - n.a])
        if n.kind == FVAR:
            return Var(n.a)
        if n.kind == LAM:
            name = f"x{counter[0]}"
            counter[0] += 1
            return Abs(name, go(n.a, binders + [name]))
        if n.kind == APP:
            return App(go(n.a, binders), go(n.b, binders))
        raise TypeError(n.kind)

    return go(t, [])


# ---------------------------------------------------------------------------
# Whole-graph redex search and lasso keys (the earlier ``rewriting`` loop)


def redex_tag_by_match(rules, n: Node) -> str | None:
    """The rule tag if the node itself is a redex (bottom rules excluded),
    dispatched on the rule system at every call: ``rewriting.redex_test``
    before it was built once per rule system."""
    match rules:
        case Beta():
            if n.kind == APP and n.a.kind == LAM:
                return "beta"
        case Eta():
            if (
                n.kind == LAM
                and n.a.kind == APP
                and n.a.b.kind == BVAR
                and n.a.b.a == 0
                and not occurs_index(n.a.a, 0)
            ):
                return "eta"
        case Strict(sig):
            return _strict_tag_by_match(sig, n)
        case BetaStrict(sig):
            if n.kind == APP and n.a.kind == LAM:
                return "beta"
            return _strict_tag_by_match(sig, n)
        case BohmBot(sig, _):
            if n.kind == APP and n.a.kind == LAM:
                return "beta"
    return None


def _strict_tag_by_match(sig: Sig, n: Node) -> str | None:
    a0, a1, a2 = sig
    if n.kind == APP and ((a1 == 0 and n.a.kind == HOLE) or (a2 == 0 and n.b.kind == HOLE)):
        return "s"
    if n.kind == LAM and a0 == 0 and n.a.kind == HOLE:
        return "s"
    return None


def search_by_positions(rules, t: Node, max_len: int, mode: str, sig=None, limit=None, index=None):
    """``rewriting._search`` as one loop over a stack (or a heap) of
    (position, node) pairs, building a position for every node it pushes
    and dispatching on the rule system at every node.  Returns the redexes
    found and the number of nodes visited, the count that ``limit`` bounds.
    """
    if index is None:
        index = NodeIndex(rules)
        index.add(t)
    if (mode == "all" or sig is not None) and t in index.stuck:
        raise ValueError("redex search rejects Cut/Unknown leaves")
    bohm = isinstance(rules, BohmBot)
    live = index.live
    out: list = []
    frontier: list = [((), t)] if sig is None else [(0, 0, (), t)]
    explored = 0
    while frontier:
        if sig is None:
            p, n = frontier.pop()
        else:
            d, _, p, n = heapq.heappop(frontier)
        explored += 1
        if limit is not None and explored > limit:
            raise RuntimeError("redex search exceeded its exploration limit")
        if not bohm and n not in live:
            continue
        tag = redex_tag_by_match(rules, n)
        found = [tag] if tag else []
        if bohm and n.kind != HOLE and (mode == "all" or not found) and rules.oracle(n):
            found.append("bot")
        if found:
            out += [(p, tag) for tag in found]
            if mode == "first":
                return out, explored
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
    return out, explored


def p_limit_checked(trace: Trace, depth: int = 16) -> Approximant:
    """``convergence.p_limit`` with every context of the glb checked for
    guardedness and Cut/Unknown leaves, whoever made the trace."""
    if trace.is_closed:
        return Approximant(trace.final)
    if trace.cycle_at is not None:
        return Approximant(glb(trace.sig, [s.context for s in trace.cycle_steps]))
    window = min(len(trace.steps), max(2, 2 * depth))
    recent = trace.steps[-window:]
    g = glb(trace.sig, [s.context for s in recent]) if recent else unknown()
    for s in recent:
        g = _poison(g, acut(trace.sig, s.position))
    return Approximant(g, fuel_exhausted=True)


def try_step_by_copy(rules, t: Node, p: Position, tag: str | None = None, sig: Sig | None = None) -> Step:
    """``rewriting.try_step`` as it built a step before its spines and its
    contractum went through the index: the reduct and the context copy the
    spine down ``p`` as fresh nodes (``replace_at``), with the contractum
    (``contractum_by_transform``), or a new hole at the longest non-strict
    prefix of ``p``, in place; no memo."""
    sig = sig if sig is not None else step_sig(rules)
    n = _spine(t, p)[-1]
    if tag is None:
        tag = redex_tag_by_match(rules, n)
        if tag is None and isinstance(rules, BohmBot) and n.kind != HOLE and rules.oracle(n):
            tag = "bot"
        if tag is None:
            raise NotARedex(f"no redex at {list(p)}: node kind {n.kind}")
    reduct = contractum_by_transform(rules, n, tag)
    after = replace_at(t, p, reduct)
    context = replace_at(t, acut(sig, p), hole())
    return Step(t, p, tag, after, context, adepth(sig, p))



def redexes_whole_graph(rules, t: Node, max_len: int = 64, limit: int = 100_000) -> set:
    """``rewriting.redexes`` with its pruning set rebuilt per call."""
    if has_kind(t, CUT, UNKNOWN):
        raise ValueError("redex search rejects Cut/Unknown leaves")
    out: set = set()
    bohm = isinstance(rules, BohmBot)
    good = None if bohm else redex_reachability(rules, t)
    stack: list = [(t, ())]
    explored = 0
    while stack:
        n, p = stack.pop()
        explored += 1
        if explored > limit:
            raise RuntimeError("redex search exceeded its exploration limit")
        if bohm:
            tag = redex_tag_by_match(rules, n)
            if tag:
                out.add((p, tag))
            if n.kind != HOLE and rules.oracle(n):
                out.add((p, "bot"))
        else:
            if n not in good:
                continue
            tag = redex_tag_by_match(rules, n)
            if tag:
                out.add((p, tag))
        if len(p) < max_len:
            for i, c in reversed(children(n)):
                if bohm or c in good:
                    stack.append((c, p + (i,)))
    return out


def _preorder_whole_graph(rules, t: Node, max_len: int, first: bool) -> list:
    bohm = isinstance(rules, BohmBot)
    good = None if bohm else redex_reachability(rules, t)
    out: list = []
    stack: list = [(t, ())]
    while stack:
        n, p = stack.pop()
        if not bohm and n not in good:
            continue
        tag = redex_tag_by_match(rules, n)
        if bohm and tag is None and n.kind != HOLE and rules.oracle(n):
            tag = "bot"
        if tag:
            out.append((p, tag))
            if first:
                return out
            continue  # do not descend below an outermost redex
        if len(p) < max_len:
            for i, c in reversed(children(n)):
                stack.append((c, p + (i,)))
    return out


def first_redex_whole_graph(rules, t: Node, max_len: int = 64):
    """``rewriting.first_redex`` with its pruning set rebuilt per call."""
    found = _preorder_whole_graph(rules, t, max_len, True)
    return found[0] if found else None


def outermost_redexes_whole_graph(rules, t: Node, max_len: int = 64) -> list:
    """``rewriting.outermost_redexes`` with its pruning set rebuilt per call."""
    return _preorder_whole_graph(rules, t, max_len, False)


def run_strategy_whole_graph(rules, strategy: str, t: Node, fuel: int, max_len: int = 64, sig=None) -> Trace:
    """``rewriting.run_strategy`` with whole-graph searches per step and every
    state keyed by ``canon``; depth0-first sorts the full ``redexes`` set."""
    strategy = {"lmo": "leftmost-outermost", "po": "parallel-outermost", "d0": "depth0-first"}.get(
        strategy, strategy
    )
    if sig is None:
        sig = step_sig(rules)
    steps: list[Step] = []
    seen = {canon(t): 0}
    cur = t
    spent = 0

    def stop(stopped, cycle_at=None):
        return Trace(sig, rules, t, steps, stopped, cycle_at, strategy)

    while spent < fuel:
        if strategy == "leftmost-outermost":
            found = first_redex_whole_graph(rules, cur, max_len)
            picks = [found] if found else []
        elif strategy == "parallel-outermost":
            picks = outermost_redexes_whole_graph(rules, cur, max_len)
        else:
            rs = sorted(
                redexes_whole_graph(rules, cur, max_len),
                key=lambda pt: (adepth(sig, pt[0]), len(pt[0]), pt[0]),
            )
            picks = [rs[0]] if rs else []
        if not picks:  # the search may have stopped at max_len
            return stop("bound" if cur in redex_reachability(rules, cur) else "normal_form")
        for p, tag in picks:
            step = try_step(rules, cur, p, tag, sig)
            steps.append(step)
            cur = step.after
            spent += 1
            key = canon(cur)
            if key in seen:
                return stop("cycle", seen[key])
            seen[key] = len(steps)
            if spent >= fuel:
                break
    return stop("fuel")


# ---------------------------------------------------------------------------
# Per-node graph walks in ``developments`` (the earlier versions)


def unguarded_to_hole_by_walks(sig: Sig, t: Node) -> Node:
    """``developments._unguarded_to_hole`` with one strict-edge search per
    node."""
    bad: set[int] = set()
    for n in reachable(t):
        # can n reach itself through a nonempty chain of strict edges?
        frontier = [c for i, c in children(n) if sig[i] == 0]
        seen: set[int] = set()
        while frontier:
            c = frontier.pop()
            if c is n:
                bad.add(id(n))
                break
            if id(c) in seen:
                continue
            seen.add(id(c))
            frontier.extend(cc for i, cc in children(c) if sig[i] == 0)
    if not bad:
        return t
    return map_graph(t, lambda n: hole() if id(n) in bad else None)


def max_bvar_indices_by_walks(root: Node) -> dict[int, int]:
    """For each node below the root (by id), the largest de Bruijn index
    reachable from it, or -1: one ``max_bvar_index`` walk per node, as
    ``path_labels`` once computed its environment caps."""
    return {id(n): max_bvar_index(n) for n in reachable(root)}


# ---------------------------------------------------------------------------
# Position enumerations (the earlier versions of the ``trees.positions``
# walks)


def dom_positions_by_queue(t: Node, max_len: int) -> list[Position]:
    """All domain positions of length <= max_len, in shortlex order, by a
    breadth-first walk of its own."""
    out: list[Position] = []
    queue: deque[tuple[Node, Position]] = deque([(t, ())])
    while queue:
        n, p = queue.popleft()
        if n.kind == HOLE:
            continue
        out.append(p)
        if len(p) >= max_len:
            continue
        for i, c in children(n):
            queue.append((c, p + (i,)))
    return out


def bot_positions_by_queue(t: Node, max_depth: int) -> set[Position]:
    """Positions of Hole leaves with plain length <= max_depth, by a
    breadth-first walk of its own."""
    out: set[Position] = set()
    queue: deque[tuple[Node, Position]] = deque([(t, ())])
    while queue:
        n, p = queue.popleft()
        if n.kind == HOLE:
            out.add(p)
            continue
        if len(p) >= max_depth:
            continue
        for i, c in children(n):
            queue.append((c, p + (i,)))
    return out


def label_at(t: Node, p: Position):
    """The label of the unfolded tree at p: 'lam', 'app', a free-variable
    label, or the position of the binder for bound variables."""
    n = t
    binders: list[Position] = []
    for k, i in enumerate(p):
        if n.kind == LAM:
            binders.append(p[:k])
        c = child_at(n, i)
        if c is None:
            raise KeyError(f"position {list(p)} not in the tree")
        n = c
    if n.kind == HOLE:
        raise KeyError(f"position {list(p)} not in the domain")
    if n.kind == BVAR:
        if n.a >= len(binders):
            raise ValueError("de Bruijn index escapes the tree")
        return binders[-1 - n.a]
    if n.kind == FVAR:
        return ("fvar", n.a)
    return n.kind


def subtree_at(t: Node, p: Position) -> Node:
    """The subtree at p; bound variables escaping it become free variables
    named ``_e0`` (innermost escaped binder), ``_e1``, ..."""
    n = node_at(t, p)
    return close_subtree(n)


def depth0_positions_by_layers(sig: Sig, t: Node) -> list[tuple[Position, Node]]:
    """The depth-0 (position, node) pairs that ``meaningless.is_stable``
    walks, layer by layer, each layer sorted; finite on guarded graphs."""
    out: list[tuple[Position, Node]] = []
    layer: list[tuple[Position, Node]] = [((), t)]
    while layer:
        nxt: list[tuple[Position, Node]] = []
        for p, n in layer:
            out.append((p, n))
            for i, c in children(n):
                if sig[i] == 0:
                    nxt.append((p + (i,), c))
        nxt.sort(key=lambda pn: pn[0])
        layer = nxt
    return out


def bound_var_positions_dfs(body: Node, bound: int = 64) -> list[Position]:
    """``developments._bound_var_positions`` as a depth-first walk that
    carries the lambdas crossed, with no exploration limit."""
    out: list[Position] = []
    stack: list[tuple[Position, Node, int]] = [((), body, 0)]
    while stack:
        p, n, d = stack.pop()
        if n.kind == BVAR and n.a == d:
            out.append(p)
        if len(p) >= bound:
            continue
        if n.kind == LAM:
            stack.append((p + (0,), n.a, d + 1))
        elif n.kind == APP:
            stack.append((p + (1,), n.a, d))
            stack.append((p + (2,), n.b, d))
    return out


# ---------------------------------------------------------------------------
# The member-by-member guardedness check and the per-path depth-0 walk


def check_inputs_per_member(sig: Sig, *ts: Node) -> None:
    """``order._check_inputs`` as one ``is_guarded`` search per member."""
    for t in ts:
        try:
            guarded = is_guarded(sig, t)
        except ValueError:  # a Cut or Unknown leaf
            raise ValueError("order operations reject Cut/Unknown leaves") from None
        if not guarded:
            raise ValueError("order operations require guarded trees")


def is_stable_by_paths(sig: Sig, t: Node, fuel: int = 10_000) -> TriVerdict:
    """``meaningless.is_stable`` over the depth-0 (position, node) pairs in
    shortlex order, one pair per path, so exponential on shared graphs."""
    _check_tree(sig, t)
    d0 = list(positions(t, math.inf, lambda i: sig[i] == 0))
    for p, n in d0:
        if n.kind == APP and n.a.kind == LAM:
            return TriVerdict("no", ([], p, t))
    saw_unknown = False
    if sig[1] == 1:
        for p, n in d0:
            if n.kind != APP:
                continue
            v = reduces_to_lam(n.a, fuel)
            if v.is_yes:
                _, poss = v.witness
                prep = [p + (1,) + q for q in poss]
                u = t
                for r in prep:
                    u = try_step(Beta(), u, r, "beta").after
                return TriVerdict("no", (prep, p, u))
            if v.is_unknown:
                saw_unknown = True
    return TriVerdict("unknown") if saw_unknown else TriVerdict("yes")


# ---------------------------------------------------------------------------
# The hand-written command-line parser


class _ParserByHand(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.exit(3, f"{self.prog}: error: {message}\n")


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sig", default="111", help="strictness signature, three digits (default 111)")
    p.add_argument("--depth", type=int, default=16, help="depth bound (default 16)")
    p.add_argument("--fuel", type=int, default=10_000, help="step budget (default 10000)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    enc = p.add_mutually_exclusive_group()
    enc.add_argument("--ascii", dest="ascii_only", action="store_true", default=None)
    enc.add_argument("--unicode", dest="ascii_only", action="store_false")


def _term_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("term")


def _pair_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("left")
    p.add_argument("right")


def _trace_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rules", choices=["beta", "eta", "strict", "betas", "bohm"], default="beta")
    p.add_argument("--strategy", choices=["lmo", "po", "d0"], default="lmo")
    p.add_argument("term")


def _join_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rules", choices=["beta", "betas"], default="betas")
    p.add_argument("term")


def _dev_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--redexes",
        default="",
        help="positions as digit strings joined by commas, e.g. 'e' for the root, '1,102'",
    )
    p.add_argument("--all", action="store_true", help="develop every beta redex")
    p.add_argument("term")


# subcommand -> (help, the function adding its own arguments after the common flags)
_COMMANDS_BY_HAND = {
    "tree": ("infinitary normal form", _term_arg),
    "trace": ("run a reduction strategy", _trace_args),
    "dist": ("tree distance", _pair_args),
    "order": ("order comparison and glb", _pair_args),
    "join": ("joinability of two strategies' reductions", _join_args),
    "dev": ("complete development of a redex set", _dev_args),
}


def build_parser_by_hand() -> argparse.ArgumentParser:
    """``cli._build_parser`` as it was written before the option table: one
    argparse call per option, the common flags added to every subcommand."""
    p = _ParserByHand(prog="ilc", description="partial-order infinitary lambda calculi")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_ParserByHand)
    for name, (help_text, add_args) in _COMMANDS_BY_HAND.items():
        s = sub.add_parser(name, help=help_text)
        _common_flags(s)
        add_args(s)
    return p


# ---------------------------------------------------------------------------
# The normaliser before the shared node index: each ``is_active`` and
# ``reduces_to_lam`` call indexed its states in a fresh ``NodeIndex`` and
# keyed its cache by ``canon`` of its input, every input ran the whole
# ``is_stable`` check, and ``bohm_tree`` closed each child before analysing
# it, naming the indices that escape it, and called ``bind_fvars`` on each
# lambda it closed, recursing once per depth level.  Its caches are its own.

class _ShiftDetector:
    """Detects a reduction that repeats itself shifted ever deeper.

    Feed it the position and the key of each contracted redex subtree, from
    one ``NodeIndex`` for the run.  A hit at step j means some earlier step i
    fired a bisimilar subtree at a proper prefix of the current position,
    with every step in between staying inside that prefix; the run from i
    can then be replayed from j forever, so the reduction never escapes.
    """

    def __init__(self):
        self.hist: list[tuple[Position, int | tuple]] = []

    def push(self, pos: Position, key: int | tuple) -> bool:
        hit = False
        lcp: Position | None = None  # common prefix of the steps after i
        for qp, qk in reversed(self.hist):
            if (
                qk == key
                and len(qp) < len(pos)
                and pos[: len(qp)] == qp
                and (lcp is None or lcp[: len(qp)] == qp)
            ):
                hit = True
                break
            if lcp is None:
                lcp = qp
            else:
                n = 0
                while n < min(len(lcp), len(qp)) and lcp[n] == qp[n]:
                    n += 1
                lcp = lcp[:n]
        self.hist.append((pos, key))
        return hit


_whnf_cache_per_call: dict[tuple, TriVerdict] = {}
_active_cache_per_call: dict[tuple, TriVerdict] = {}


def clear_caches_per_call() -> None:
    _whnf_cache_per_call.clear()
    _active_cache_per_call.clear()


def reduces_to_lam_per_call(t: Node, fuel: int = 10_000) -> TriVerdict:
    index = NodeIndex(Beta())
    key = (canon(t), fuel)
    if key in _whnf_cache_per_call:
        return _whnf_cache_per_call[key]
    index.add(t)
    seen = {index.key(t)}
    det = _ShiftDetector()
    cur = t
    positions: list[Position] = []
    verdict: TriVerdict | None = None
    for _ in range(fuel):
        if cur.kind == LAM:
            verdict = _yes((cur, positions))
            break
        if cur.kind != APP:
            verdict = _no(cur)
            break
        n, m = cur, 0
        spine_ids = {id(n)}
        infinite_spine = False
        while n.kind == APP:
            n = n.a
            m += 1
            if id(n) in spine_ids:
                infinite_spine = True
                break
            spine_ids.add(id(n))
        if infinite_spine or n.kind != LAM:
            verdict = _no(cur)
            break
        p: Position = (1,) * (m - 1)
        if det.push(p, index.key(node_at(cur, p))):
            verdict = _no(cur)
            break
        cur = try_step(Beta(), cur, p, "beta").after
        positions.append(p)
        index.add(cur)
        ck = index.key(cur)
        if ck in seen:
            verdict = _no(cur)
            break
        seen.add(ck)
    if verdict is None:
        return _UNKNOWN
    _whnf_cache_per_call[key] = verdict
    return verdict


def stability_per_call(sig: Sig, t: Node, fuel: int) -> TriVerdict:
    """``meaningless._stability``, asking ``reduces_to_lam_per_call``."""
    links: dict[Node, tuple | None] = {t: None}
    region = [t]
    for n in region:
        for i, c in children(n):
            if sig[i] == 0 and c not in links:
                links[c] = (n, i)
                region.append(c)
    for n in region:
        if n.kind == APP and n.a.kind == LAM:
            return _no(([], link_position(links, n), t))
    saw_unknown = False
    if sig[1] == 1:
        for n in region:
            if n.kind != APP:
                continue
            v = reduces_to_lam_per_call(n.a, fuel)
            if v.is_yes:
                _, poss = v.witness
                p = link_position(links, n)
                prep = [p + (1,) + q for q in poss]
                u = t
                for r in prep:
                    u = try_step(Beta(), u, r, "beta").after
                return _no((prep, p, u))
            if v.is_unknown:
                saw_unknown = True
    return _UNKNOWN if saw_unknown else _yes()


def is_active_per_call(sig: Sig, t: Node, fuel: int = 10_000) -> TriVerdict:
    index = NodeIndex(Beta())
    key = (sig, canon(t), fuel)
    if key in _active_cache_per_call:
        return _active_cache_per_call[key]
    index.add(t)
    steps = []
    seen = {index.key(t): 0}
    det = _ShiftDetector()
    cur = t
    spent = 0
    verdict: TriVerdict | None = None
    while spent < fuel and verdict is None:
        if not steps:
            _check_tree(sig, cur)
        v = stability_per_call(sig, cur, fuel)
        if v.is_yes:
            verdict = _no(cur)
            break
        if v.is_unknown:
            return _UNKNOWN
        prep, q, _ = v.witness
        for r in prep:
            st = try_step(Beta(), cur, r, "beta", sig=sig)
            steps.append(st)
            cur = st.after
            spent += 1
        index.add(cur)
        shifted = det.push(q, index.key(node_at(cur, q)))
        st = try_step(Beta(), cur, q, "beta", sig=sig)
        steps.append(st)
        cur = st.after
        spent += 1
        index.add(cur)
        ck = index.key(cur)
        if ck in seen:
            tr = Trace(sig, Beta(), t, steps, "cycle", cycle_at=seen[ck])
            verdict = _yes(tr)
            break
        seen[ck] = len(steps)
        if shifted:
            tr = Trace(sig, Beta(), t, steps, "shifted")
            verdict = _yes(tr)
            break
    if verdict is None:
        return _UNKNOWN
    _active_cache_per_call[key] = verdict
    return verdict


def bohm_tree_per_call(sig: Sig, t: Node, depth: int = 16, fuel: int = 10_000) -> Approximant:
    _check_tree(sig, t)
    flags = {"fuel": False}
    binder_ids = itertools.count()
    prefix = "__b"
    free = {n.a for n in reachable(t) if n.kind == FVAR}
    while any(name.startswith(prefix) for name in free):
        prefix += "_"

    def norm(sub: Node, d: int) -> Node:
        if d >= depth:
            return cut()
        v = is_active_per_call(sig, sub, fuel)
        if v.is_yes:
            return hole()
        if v.is_unknown:
            flags["fuel"] = True
            return unknown()
        return emit(v.witness, d)

    def extract(c: Node, local: list[int], d: int) -> Node:
        def escape(n: Node, k: int) -> Node | None:
            if n.kind == BVAR and n.a >= k:
                e = n.a - k
                if e >= len(local):
                    raise ValueError("a bound variable escapes the input tree")
                return fvar(f"{prefix}{local[-1 - e]}")
            return None

        return norm(transform(c, escape, cap=max_bvar_index(c) + 1), d + 1)

    def emit(root: Node, d: int) -> Node:
        local: list[int] = []
        done: list[Node] = []
        stack: list = [(root, True)]
        while stack:
            item = stack.pop()
            if item is None:
                arg = done.pop()
                done.append(app(done.pop(), arg))
                continue
            if type(item) is int:
                local.pop()
                done.append(lam(bind_fvars(done.pop(), {f"{prefix}{item}": 0})))
                continue
            n, strict = item
            if not strict:
                done.append(extract(n, local, d))
            elif n.kind in (HOLE, BVAR, FVAR):
                done.append(Node(n.kind, n.a))
            elif n.kind == LAM:
                b = next(binder_ids)
                local.append(b)
                stack += (b, (n.a, sig[0] == 0))
            elif n.kind == APP:
                stack += (None, (n.b, sig[2] == 0), (n.a, sig[1] == 0))
            else:
                raise TypeError(n.kind)
        return done[0]

    result = strict_nf(sig, norm(t, 0))
    return Approximant(
        result,
        depth=depth,
        fuel_exhausted=flags["fuel"],
        non_canonical=sig not in CANONICAL_SIGS,
    )


# ---------------------------------------------------------------------------
# The complete development before ``rewriting.drive``: its own fuel loop and
# ``seen`` map, each state keyed by a whole-graph ``canon`` and its residual
# set.


def develop_raw_by_canon(sig: Sig, tree: Node, positions: set[Position], fuel: int) -> tuple[Trace, Node]:
    """``developments._develop_raw`` with every state keyed by ``canon``."""
    rules = BetaStrict(sig)
    cur = tree
    us = {tuple(p) for p in positions}
    steps: list[Step] = []
    seen: dict[tuple, int] = {}
    while us:
        if len(steps) >= fuel:
            raise RuntimeError("development did not finish within fuel")
        key = (canon(cur), frozenset(us))
        if key in seen:
            tr = Trace(sig, rules, tree, steps, "cycle", cycle_at=seen[key])
            return tr, p_limit(tr).tree
        seen[key] = len(steps)
        p = min(us, key=lambda q: (len(q), q))
        tag = redex_tag_by_match(rules, node_at(cur, p))
        if tag is None:
            raise RuntimeError(f"residual at {list(p)} stopped being a redex")
        st = try_step(rules, cur, p, tag, sig=sig)
        steps.append(st)
        us = _desc_step(sig, st, us - {p})
        cur = st.after
    tr = Trace(sig, rules, tree, steps, "normal_form")
    return tr, cur


# ---------------------------------------------------------------------------
# A stdlib check of the trace export schema, for the keywords it uses

TRACE_SCHEMA = json.loads(resources.files("ilc").joinpath("schema/trace.schema.json").read_text())

# the JSON Schema keywords that ``schema_errors`` knows, and the annotations
# it ignores; a schema with any other keyword fails the check
SCHEMA_KEYWORDS = {"type", "required", "properties", "items", "enum", "pattern", "minimum", "maximum", "oneOf"}
SCHEMA_ANNOTATIONS = {"$schema", "title"}
JSON_TYPES = {"object": dict, "array": list, "string": str, "integer": int, "boolean": bool, "null": type(None)}


def subschemas(schema: dict):
    yield schema
    for sub in [*schema.get("properties", {}).values(), *schema.get("oneOf", [])]:
        yield from subschemas(sub)
    if "items" in schema:
        yield from subschemas(schema["items"])


def schema_errors(doc, schema: dict = TRACE_SCHEMA) -> list[str]:
    """What ``doc`` breaks of ``schema``: a stdlib check of the keywords in
    ``SCHEMA_KEYWORDS``, which raises on any other keyword."""
    for sub in subschemas(schema):
        unchecked = sub.keys() - SCHEMA_KEYWORDS - SCHEMA_ANNOTATIONS
        if unchecked:
            raise ValueError(f"unchecked schema keywords {sorted(unchecked)}")
    return _errors(doc, schema, "$")


def _errors(doc, schema: dict, path: str) -> list[str]:
    if "type" in schema:
        want = JSON_TYPES[schema["type"]]
        if not isinstance(doc, want) or (isinstance(doc, bool) and want is not bool):
            return [f"{path}: not of type {schema['type']}"]
    errors = []
    if "enum" in schema and doc not in schema["enum"]:
        errors.append(f"{path}: {doc!r} is not one of {schema['enum']}")
    if "pattern" in schema and not re.search(schema["pattern"], doc):
        errors.append(f"{path}: {doc!r} does not match {schema['pattern']}")
    if "minimum" in schema and doc < schema["minimum"]:
        errors.append(f"{path}: {doc} is below {schema['minimum']}")
    if "maximum" in schema and doc > schema["maximum"]:
        errors.append(f"{path}: {doc} is above {schema['maximum']}")
    errors += [f"{path}: no {key!r}" for key in schema.get("required", []) if key not in doc]
    for key, sub in schema.get("properties", {}).items():
        if key in doc:
            errors += _errors(doc[key], sub, f"{path}.{key}")
    if "items" in schema:
        for i, item in enumerate(doc):
            errors += _errors(item, schema["items"], f"{path}[{i}]")
    if "oneOf" in schema:
        fits = sum(not _errors(doc, sub, path) for sub in schema["oneOf"])
        if fits != 1:
            errors.append(f"{path}: fits {fits} of the oneOf schemas")
    return errors
